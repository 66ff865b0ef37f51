//! Bounded model checking of `P sat R`.
//!
//! §2 defines `P sat R` as "`R` is true before and after every
//! communication by `P`" — semantically (§3.3),
//! `∀s ∈ ⟦P⟧. (ρ + ch(s))⟦R⟧`. Because `⟦P⟧` is prefix-closed, checking
//! every member trace up to a depth checks every intermediate moment up
//! to that depth. The checker explores traces through the operational
//! semantics (which composes networks on the fly) and reports the first
//! counterexample trace, making it the refutation-complete companion to
//! the symbolic proof system: everything `csp-proof` proves is also
//! model-checked in this crate's tests.

use csp_assert::{AssertError, Assertion, EvalCtx, FuncTable};
use csp_lang::{Definitions, Env, Process};
use csp_obs::Collector;
use csp_semantics::{walk, CompiledLts, Config, Engine, Lts, Universe};
use csp_trace::Trace;
use rayon::prelude::*;

/// The verdict of a bounded satisfaction check.
#[derive(Debug, Clone)]
pub enum SatResult {
    /// Every explored trace satisfied the assertion.
    Holds {
        /// Number of traces (moments) checked.
        traces_checked: usize,
        /// The exploration depth.
        depth: usize,
        /// The backend that produced the verdict (never `Auto`).
        engine: Engine,
    },
    /// A reachable trace falsifies the assertion.
    Counterexample {
        /// The falsifying trace.
        trace: Trace,
        /// The backend that produced the verdict (never `Auto`).
        engine: Engine,
    },
}

impl SatResult {
    /// True if no counterexample was found.
    pub fn holds(&self) -> bool {
        matches!(self, SatResult::Holds { .. })
    }

    /// The backend that answered (resolved, never [`Engine::Auto`]).
    pub fn engine(&self) -> Engine {
        match self {
            SatResult::Holds { engine, .. } | SatResult::Counterexample { engine, .. } => *engine,
        }
    }
}

/// A bounded `sat` checker over a definition list.
#[derive(Debug, Clone)]
pub struct SatChecker<'a> {
    defs: &'a Definitions,
    universe: &'a Universe,
    funcs: FuncTable,
    env: Env,
    internal_budget_factor: usize,
    collector: Collector,
    engine: Engine,
}

impl<'a> SatChecker<'a> {
    /// Creates a checker with the built-in sequence functions and an
    /// empty host environment.
    pub fn new(defs: &'a Definitions, universe: &'a Universe) -> Self {
        SatChecker {
            defs,
            universe,
            funcs: FuncTable::with_builtins(),
            env: Env::new(),
            internal_budget_factor: 3,
            collector: Collector::disabled(),
            engine: Engine::Auto,
        }
    }

    /// Selects the verification backend; [`Engine::Auto`] (the default)
    /// picks per query based on the network shape.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the host environment (e.g. the multiplier's vector).
    #[must_use]
    pub fn with_env(mut self, env: Env) -> Self {
        self.env = env;
        self
    }

    /// Replaces the sequence-function table.
    #[must_use]
    pub fn with_funcs(mut self, funcs: FuncTable) -> Self {
        self.funcs = funcs;
        self
    }

    /// Sets the hidden-communication budget as a multiple of the depth.
    #[must_use]
    pub fn with_internal_budget_factor(mut self, factor: usize) -> Self {
        self.internal_budget_factor = factor.max(1);
        self
    }

    /// Attaches an observation stream: each check records a `satcheck`
    /// span (with exploration and moment counts) and per-phase child
    /// spans. Disabled by default.
    #[must_use]
    pub fn with_collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// Checks `process sat assertion` over all traces up to `depth`.
    ///
    /// # Errors
    ///
    /// Returns an [`AssertError`] if the assertion itself cannot be
    /// evaluated (unknown function, unbound variable), and wraps
    /// evaluation errors from trace exploration the same way.
    pub fn check(
        &self,
        process: &Process,
        assertion: &Assertion,
        depth: usize,
    ) -> Result<SatResult, AssertError> {
        let mut root = self.collector.span("satcheck");
        root.record("depth", depth);
        let engine = self.engine.resolve(self.defs, process);
        root.record("engine", engine.as_str());
        let start = Config::new(process.clone(), self.env.clone());
        let explore_span = root.child("satcheck.explore");
        let budget = depth * self.internal_budget_factor;
        let traces = match engine {
            Engine::Compiled => {
                let mut rel = CompiledLts::new(self.defs, self.universe);
                let s = rel.intern(start);
                walk::traces(&mut rel, &s, depth, budget)
            }
            _ => walk::traces(
                &mut Lts::new(self.defs, self.universe),
                &start,
                depth,
                budget,
            ),
        }
        .map_err(AssertError::Eval)?;
        explore_span.end();
        // Each moment is checked independently; fan out, then scan the
        // verdicts in trace order so the reported counterexample is the
        // same one the sequential loop would have found.
        let traces: Vec<Trace> = traces.iter().cloned().collect();
        root.record("moments", traces.len());
        self.collector.add("satcheck.moments", traces.len() as u64);
        let verdict_span = root.child("satcheck.verdicts");
        let verdicts: Vec<Result<bool, AssertError>> = traces
            .par_iter()
            .map(|trace| {
                let history = trace.history();
                let ctx = EvalCtx::new(&self.env, &history, &self.funcs, self.universe);
                ctx.assertion(assertion)
            })
            .collect();
        verdict_span.end();
        let mut checked = 0usize;
        for (trace, verdict) in traces.iter().zip(verdicts) {
            if !verdict? {
                root.record("counterexample", true);
                return Ok(SatResult::Counterexample {
                    trace: trace.clone(),
                    engine,
                });
            }
            checked += 1;
        }
        root.record("counterexample", false);
        Ok(SatResult::Holds {
            traces_checked: checked,
            depth,
            engine,
        })
    }

    /// Convenience: checks a named process.
    ///
    /// # Errors
    ///
    /// As for [`check`](Self::check).
    pub fn check_name(
        &self,
        name: &str,
        assertion: &Assertion,
        depth: usize,
    ) -> Result<SatResult, AssertError> {
        self.check(&Process::call(name), assertion, depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_assert::{parse_assertion, ChannelInfo};
    use csp_lang::examples;
    use csp_trace::Value;

    fn info() -> ChannelInfo {
        ChannelInfo::new()
            .with_channels(["input", "wire", "output"])
            .with_arrays(["row", "col"])
            .with_funcs(["f"])
    }

    #[test]
    fn copier_satisfies_wire_le_input() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("wire <= input", &info()).unwrap();
        let res = checker.check_name("copier", &r, 5).unwrap();
        match res {
            SatResult::Holds { traces_checked, .. } => assert!(traces_checked > 10),
            SatResult::Counterexample { trace, .. } => panic!("spurious cex: {trace}"),
        }
    }

    #[test]
    fn copier_refutes_wrong_direction() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("input <= wire", &info()).unwrap();
        let res = checker.check_name("copier", &r, 4).unwrap();
        match res {
            SatResult::Counterexample { trace, .. } => {
                // Minimal counterexample: one input, no wire yet.
                assert_eq!(trace.len(), 1);
            }
            SatResult::Holds { .. } => panic!("should be refuted"),
        }
    }

    #[test]
    fn copier_length_bound_holds() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("#input <= #wire + 1", &info()).unwrap();
        assert!(checker.check_name("copier", &r, 6).unwrap().holds());
        // The tight version without the +1 slack fails:
        let tight = parse_assertion("#input <= #wire", &info()).unwrap();
        assert!(!checker.check_name("copier", &tight, 6).unwrap().holds());
    }

    #[test]
    fn protocol_satisfies_output_le_input() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let checker = SatChecker::new(&defs, &uni).with_internal_budget_factor(4);
        let r = parse_assertion("output <= input", &info()).unwrap();
        assert!(checker.check_name("protocol", &r, 3).unwrap().holds());
    }

    #[test]
    fn sender_satisfies_table1_invariant() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("f(wire) <= input", &info()).unwrap();
        assert!(checker.check_name("sender", &r, 5).unwrap().holds());
    }

    #[test]
    fn receiver_satisfies_exercise_invariant() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("output <= f(wire)", &info()).unwrap();
        assert!(checker.check_name("receiver", &r, 5).unwrap().holds());
    }

    #[test]
    fn multiplier_scalar_product_invariant() {
        // Experiment E4: the §2 claim
        //   output_i = Σ_j v[j] × row[j]_i
        // verified by bounded model checking on the width-3 network.
        let defs = csp_lang::parse_definitions(
            "mult[i:1..3] = row[i]?x:{0..1} -> col[i-1]?y:NAT -> col[i]!(v[i]*x + y) -> mult[i]
             zeroes = col[0]!0 -> zeroes
             last = col[3]?y:NAT -> output!y -> last
             network = zeroes || mult[1] || mult[2] || mult[3] || last
             multiplier = chan col[0..3]; network",
        )
        .unwrap();
        let env = examples::multiplier_env(&[2, 3, 5]);
        let uni = Universe::new(10);
        let checker = SatChecker::new(&defs, &uni)
            .with_env(env)
            .with_internal_budget_factor(4);
        let r = parse_assertion(
            "forall i:NAT. 1 <= i and i <= #output => \
             output[i] == v[1]*row[1][i] + v[2]*row[2][i] + v[3]*row[3][i]",
            &info(),
        )
        .unwrap();
        let res = checker.check_name("multiplier", &r, 4).unwrap();
        assert!(res.holds(), "{res:?}");
        // And a deliberately wrong vector index refutes:
        let wrong = parse_assertion(
            "forall i:NAT. 1 <= i and i <= #output => output[i] == v[1]*row[1][i]",
            &info(),
        )
        .unwrap();
        assert!(!checker.check_name("multiplier", &wrong, 4).unwrap().holds());
    }

    #[test]
    fn engines_agree_and_report_themselves() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let r = parse_assertion("output <= input", &info()).unwrap();
        let wrong = parse_assertion("input <= output", &info()).unwrap();
        for name in ["copier", "pipeline"] {
            let base = SatChecker::new(&defs, &uni);
            for assertion in [&r, &wrong] {
                let enumerative = base
                    .clone()
                    .with_engine(Engine::Enumerative)
                    .check_name(name, assertion, 4)
                    .unwrap();
                let compiled = base
                    .clone()
                    .with_engine(Engine::Compiled)
                    .check_name(name, assertion, 4)
                    .unwrap();
                assert_eq!(enumerative.engine(), Engine::Enumerative);
                assert_eq!(compiled.engine(), Engine::Compiled);
                assert_eq!(enumerative.holds(), compiled.holds(), "{name}");
                // Identical exploration order ⇒ identical verdict detail.
                match (&enumerative, &compiled) {
                    (
                        SatResult::Holds {
                            traces_checked: a, ..
                        },
                        SatResult::Holds {
                            traces_checked: b, ..
                        },
                    ) => assert_eq!(a, b, "{name}"),
                    (
                        SatResult::Counterexample { trace: a, .. },
                        SatResult::Counterexample { trace: b, .. },
                    ) => assert_eq!(a, b, "{name}"),
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn auto_picks_compiled_for_networks_only() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("wire <= input", &info()).unwrap();
        let res = checker.check_name("copier", &r, 3).unwrap();
        assert_eq!(res.engine(), Engine::Enumerative);
        let res = checker.check_name("pipeline", &r, 3).unwrap();
        assert_eq!(res.engine(), Engine::Compiled);
    }

    #[test]
    fn stop_satisfies_everything_satisfiable_at_empty() {
        // §4: "the process STOP satisfies any satisfiable invariant
        // whatsoever" — the partial-correctness defect.
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("output <= input", &info()).unwrap();
        let res = checker.check(&Process::Stop, &r, 5).unwrap();
        match res {
            SatResult::Holds { traces_checked, .. } => assert_eq!(traces_checked, 1),
            other => panic!("{other:?}"),
        }
    }
}
