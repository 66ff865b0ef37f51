//! Conformance checking: a recorded run must be a behaviour the
//! semantics admits, and must maintain every proven invariant at every
//! moment.
//!
//! This closes the loop of the reproduction: the *proof system* certifies
//! `P sat R`; the *model* defines `⟦P⟧`; the *runtime* produces actual
//! traces; conformance shows the three agree on real executions.

use std::collections::BTreeSet;

use csp_assert::{Assertion, EvalCtx, FuncTable};
use csp_lang::{Definitions, Env, EvalError, Process};
use csp_semantics::{walk, CompiledLts, Config, Engine, Lts, Successors, Universe};
use csp_trace::Trace;

/// The verdict of a conformance check.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// The recorded trace is a member of the semantic trace set.
    pub trace_admitted: bool,
    /// Index of the first event the semantics could not match, if any.
    pub diverged_at: Option<usize>,
    /// For each checked invariant: its text and the index of the first
    /// prefix violating it (`None` = held throughout).
    pub invariants: Vec<(String, Option<usize>)>,
}

impl ConformanceReport {
    /// True when the trace is admitted and every invariant held.
    pub fn conforms(&self) -> bool {
        self.trace_admitted && self.invariants.iter().all(|(_, v)| v.is_none())
    }
}

/// Replays a recorded *visible* trace against the operational semantics
/// of `process` and checks the given invariants at every prefix.
///
/// The replay tracks the set of states the network could be in (hidden
/// communications may interleave anywhere, so each visible event is
/// matched after up to `internal_budget` concealed steps). `engine`
/// picks the relation the replay runs on; the report is the same on
/// either.
///
/// # Errors
///
/// Propagates evaluation failures from the semantics or the assertions.
#[allow(clippy::too_many_arguments)]
pub fn check_conformance(
    process: &Process,
    env: &Env,
    defs: &Definitions,
    universe: &Universe,
    visible: &Trace,
    invariants: &[Assertion],
    internal_budget: usize,
    engine: Engine,
) -> Result<ConformanceReport, EvalError> {
    let start = Config::new(process.clone(), env.clone());
    let diverged_at = match engine.resolve(defs, process) {
        Engine::Compiled => {
            let mut rel = CompiledLts::new(defs, universe);
            let s = rel.intern(start);
            replay(&mut rel, s, visible, internal_budget)?
        }
        _ => replay(
            &mut Lts::new(defs, universe),
            start,
            visible,
            internal_budget,
        )?,
    };

    // Invariants at every prefix (including the complete trace and <>).
    let funcs = FuncTable::with_builtins();
    let mut inv_results = Vec::with_capacity(invariants.len());
    for inv in invariants {
        let mut first_violation = None;
        for (i, prefix) in visible.prefixes().into_iter().enumerate() {
            let h = prefix.history();
            let ctx = EvalCtx::new(env, &h, &funcs, universe);
            let ok = ctx.assertion(inv).map_err(|e| match e {
                csp_assert::AssertError::Eval(e) => e,
                csp_assert::AssertError::UnknownFunction(n) => {
                    EvalError::UnboundVariable(format!("function {n}"))
                }
            })?;
            if !ok {
                first_violation = Some(i);
                break;
            }
        }
        inv_results.push((inv.to_string(), first_violation));
    }

    Ok(ConformanceReport {
        trace_admitted: diverged_at.is_none(),
        diverged_at,
        invariants: inv_results,
    })
}

/// The index of the first event of `visible` that no state of the
/// frontier offers, advancing the frontier one [`walk::after`] step per
/// event (the step the online [`crate::Monitor`] takes too).
fn replay<R: Successors>(
    rel: &mut R,
    start: R::State,
    visible: &Trace,
    internal_budget: usize,
) -> Result<Option<usize>, EvalError> {
    let mut frontier = walk::tau_closure(rel, BTreeSet::from([start]), internal_budget)?;
    for (i, event) in visible.iter().enumerate() {
        frontier = walk::after(rel, &frontier, event, internal_budget)?;
        if frontier.is_empty() {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, RunOptions, Scheduler};
    use csp_assert::{parse_assertion, ChannelInfo};
    use csp_lang::examples;
    use csp_trace::Value;

    fn info() -> ChannelInfo {
        ChannelInfo::new()
            .with_channels(["input", "wire", "output", "in", "out"])
            .with_arrays(["row", "col"])
            .with_funcs(["f"])
    }

    #[test]
    fn recorded_pipeline_run_conforms() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 24,
                    scheduler: Scheduler::seeded(5),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let inv = parse_assertion("output <= input", &info()).unwrap();
        let report = check_conformance(
            &Process::call("pipeline"),
            &Env::new(),
            &defs,
            &uni,
            &res.visible,
            &[inv],
            8,
            Engine::Auto,
        )
        .unwrap();
        assert!(report.conforms(), "{report:?}");
    }

    #[test]
    fn protocol_run_conforms_with_proven_invariant() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "protocol",
                &Env::new(),
                RunOptions {
                    max_steps: 30,
                    scheduler: Scheduler::seeded(8),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let inv = parse_assertion("output <= input", &info()).unwrap();
        let report = check_conformance(
            &Process::call("protocol"),
            &Env::new(),
            &defs,
            &uni,
            &res.visible,
            &[inv],
            12,
            Engine::Auto,
        )
        .unwrap();
        assert!(report.conforms(), "{report:?}");
    }

    #[test]
    fn corrupted_trace_is_rejected() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        // A trace the pipeline cannot produce: output before any input.
        let bogus = Trace::parse_like([("output", Value::nat(1))]);
        let report = check_conformance(
            &Process::call("pipeline"),
            &Env::new(),
            &defs,
            &uni,
            &bogus,
            &[],
            8,
            Engine::Auto,
        )
        .unwrap();
        assert!(!report.trace_admitted);
        assert_eq!(report.diverged_at, Some(0));
    }

    #[test]
    fn engines_agree_on_replay() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 24,
                    scheduler: Scheduler::seeded(5),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let bogus = Trace::parse_like([("output", Value::nat(1))]);
        for trace in [&res.visible, &bogus] {
            let mut reports = Vec::new();
            for engine in [Engine::Enumerative, Engine::Compiled, Engine::Auto] {
                reports.push(
                    check_conformance(
                        &Process::call("pipeline"),
                        &Env::new(),
                        &defs,
                        &uni,
                        trace,
                        &[],
                        8,
                        engine,
                    )
                    .unwrap(),
                );
            }
            for r in &reports[1..] {
                assert_eq!(r.trace_admitted, reports[0].trace_admitted);
                assert_eq!(r.diverged_at, reports[0].diverged_at);
            }
        }
    }

    #[test]
    fn invariant_violation_is_located() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        // Check a false invariant against a legitimate trace.
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 16,
                    scheduler: Scheduler::seeded(1),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let false_inv = parse_assertion("#input <= 0", &info()).unwrap();
        let report = check_conformance(
            &Process::call("pipeline"),
            &Env::new(),
            &defs,
            &uni,
            &res.visible,
            &[false_inv],
            8,
            Engine::Auto,
        )
        .unwrap();
        assert!(report.trace_admitted);
        let (_, violation) = &report.invariants[0];
        assert!(violation.is_some());
        assert!(!report.conforms());
    }
}
