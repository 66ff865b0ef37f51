//! Operational semantics: a labelled transition system over process
//! configurations.
//!
//! The paper defines processes denotationally; an implementation executes
//! them step by step. This module derives the transition relation from
//! the syntax and proves (in tests, and as property tests at the crate
//! root) that the traces it generates agree with the denotational model —
//! the standard "operational/denotational consistency" result the paper
//! leaves implicit.
//!
//! Compared with [`Semantics`](crate::Semantics) (which evaluates parallel
//! operands independently and merges whole trace sets), the LTS composes
//! *on the fly*: only reachable synchronisations are explored, which is
//! exponentially cheaper for networks like the multiplier array and is
//! what the benchmark harness uses for the larger experiments.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use csp_lang::{ChanRef, Definitions, Env, EvalError, Expr, Process};
use csp_trace::{ChannelSet, Event, TraceSet};

use crate::walk::{self, Successors};
use crate::Universe;

/// A configuration: a process term plus the environment binding its free
/// variables (input payloads, array parameters, host constants).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Config {
    process: Arc<Process>,
    env: Env,
}

impl Config {
    /// Creates a configuration.
    pub fn new(process: Process, env: Env) -> Self {
        Config {
            process: Arc::new(process),
            env,
        }
    }

    /// A configuration sharing an existing term — successor construction
    /// in the transition relation reuses unchanged subterms this way.
    fn from_arc(process: Arc<Process>, env: Env) -> Self {
        Config { process, env }
    }

    /// The process term.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// The environment.
    pub fn env(&self) -> &Env {
        &self.env
    }
}

/// One transition out of a state: a [`Config`] when stepped on the fly,
/// a [`StateId`](crate::StateId) in a compiled row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<S = Config> {
    /// An externally visible communication.
    Visible(Event, S),
    /// A communication concealed by `chan L; …`; it advances the network
    /// without extending the visible trace.
    Internal(S),
}

/// The transition-system view of a definition list.
#[derive(Debug, Clone)]
pub struct Lts<'a> {
    defs: &'a Definitions,
    universe: &'a Universe,
    fuel0: usize,
    /// Resolved parallel alphabets, keyed by the explicit channel list.
    /// Once a `||` has been expanded its alphabets are materialised into
    /// every successor term as constant channel references, so the same
    /// lists are re-resolved on every subsequent step of the network;
    /// caching them skips that churn. Only constant (environment-free)
    /// lists are cached. Shared across clones.
    alpha_memo: Arc<Mutex<BTreeMap<Vec<ChanRef>, Arc<ChannelSet>>>>,
}

impl<'a> Lts<'a> {
    /// Creates the LTS over the given definitions and universe.
    pub fn new(defs: &'a Definitions, universe: &'a Universe) -> Self {
        Lts {
            defs,
            universe,
            fuel0: (defs.len() + 2).max(8),
            alpha_memo: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The alphabet of one `||` operand: an explicit channel list is
    /// resolved (with memoisation when it is constant), an absent one is
    /// inferred from the operand's text.
    fn resolve_alpha(
        &self,
        explicit: Option<&[ChanRef]>,
        operand: &Process,
        env: &Env,
    ) -> Result<Arc<ChannelSet>, EvalError> {
        let Some(refs) = explicit else {
            return Ok(Arc::new(csp_lang::channel_alphabet(
                operand, self.defs, env,
            )?));
        };
        let constant = refs.iter().all(|c| c.indices().iter().all(Expr::is_closed));
        if constant {
            if let Some(hit) = self.alpha_memo.lock().expect("alphabet memo").get(refs) {
                return Ok(Arc::clone(hit));
            }
        }
        let set = Arc::new(crate::denote::resolve_chanrefs(refs, env)?);
        if constant {
            self.alpha_memo
                .lock()
                .expect("alphabet memo")
                .insert(refs.to_vec(), Arc::clone(&set));
        }
        Ok(set)
    }

    /// The initial configuration for a named process.
    pub fn initial(&self, name: &str, env: &Env) -> Config {
        Config::new(Process::call(name), env.clone())
    }

    /// All transitions enabled in `config`.
    ///
    /// # Errors
    ///
    /// Fails on undefined names, unbound variables, or unresolvable sets.
    pub fn steps(&self, config: &Config) -> Result<Vec<Step>, EvalError> {
        self.steps_inner(&config.process, &config.env, self.fuel0)
    }

    fn steps_inner(&self, p: &Process, env: &Env, fuel: usize) -> Result<Vec<Step>, EvalError> {
        match p {
            // Error holes behave like STOP: no transitions.
            Process::Stop | Process::Error(_) => Ok(Vec::new()),
            Process::Call { name, args } => {
                if fuel == 0 {
                    // Unguarded cycle: no transitions, like STOP — the
                    // least-fixed-point reading.
                    return Ok(Vec::new());
                }
                let vals = args
                    .iter()
                    .map(|e| e.eval(env))
                    .collect::<Result<Vec<_>, _>>()?;
                let (body, scope) = self.defs.resolve_call(name, &vals, env)?;
                self.steps_inner(body, &scope, fuel - 1)
            }
            Process::Output { chan, msg, then } => {
                let c = chan.resolve(env)?;
                let v = msg.eval(env)?;
                Ok(vec![Step::Visible(
                    Event::new(c, v),
                    Config::from_arc(Arc::clone(then), env.clone()),
                )])
            }
            Process::Input {
                chan,
                var,
                set,
                then,
            } => {
                let c = chan.resolve(env)?;
                let m = set.eval(env)?;
                let mut out = Vec::new();
                for v in self.universe.enumerate(&m)? {
                    out.push(Step::Visible(
                        Event::new(c.clone(), v.clone()),
                        Config::from_arc(Arc::clone(then), env.bind(var, v)),
                    ));
                }
                Ok(out)
            }
            Process::Choice(a, b) => {
                // Initial-choice semantics: the union of both arms'
                // transitions, matching ⟦P|Q⟧ = ⟦P⟧ ∪ ⟦Q⟧.
                let mut out = self.steps_inner(a, env, fuel)?;
                out.extend(self.steps_inner(b, env, fuel)?);
                Ok(out)
            }
            Process::Parallel {
                left,
                right,
                left_alpha,
                right_alpha,
            } => {
                // Alphabets are fixed at composition time (§1.2(7)); once
                // computed they are materialised into successor terms so
                // they do not drift as the operands evolve.
                let x = self.resolve_alpha(left_alpha.as_deref(), left, env)?;
                let y = self.resolve_alpha(right_alpha.as_deref(), right, env)?;
                let sync = x.intersection(&y);
                let ls = self.steps_inner(left, env, fuel)?;
                let rs = self.steps_inner(right, env, fuel)?;
                let mut out = Vec::new();
                let x_refs = channelset_to_refs(&x);
                let y_refs = channelset_to_refs(&y);
                // Operand environments can diverge (each side binds its own
                // input variables), so successors are closed with their own
                // environment before recombination. Host constants (array
                // cells like `v[1]`) are not variables and survive in the
                // shared outer environment. Closing is the identity on the
                // (typical) already-closed operand, in which case the term
                // is shared rather than copied.
                let close_arc = |p: &Arc<Process>, e: &Env| -> Arc<Process> {
                    if e.iter().any(|(v, _)| csp_lang::process_has_free(p, v)) {
                        Arc::new(
                            csp_lang::close_process(p, e)
                                .expect("closing with constants cannot fail"),
                        )
                    } else {
                        Arc::clone(p)
                    }
                };
                // The side that did not move is the same for every
                // interleaved step: close it once and share it.
                let left_stat = close_arc(left, env);
                let right_stat = close_arc(right, env);
                let rebuild = |l: Arc<Process>, r: Arc<Process>| Process::Parallel {
                    left: l,
                    right: r,
                    left_alpha: Some(x_refs.clone()),
                    right_alpha: Some(y_refs.clone()),
                };
                for step in &ls {
                    if let Step::Visible(e, lc) = step {
                        if !sync.contains(e.channel()) {
                            out.push(Step::Visible(
                                *e,
                                Config::new(
                                    rebuild(
                                        close_arc(&lc.process, &lc.env),
                                        Arc::clone(&right_stat),
                                    ),
                                    env.clone(),
                                ),
                            ));
                        } else {
                            // Joint step: the right must offer the same event.
                            for rstep in &rs {
                                if let Step::Visible(e2, rc) = rstep {
                                    if e2 == e {
                                        out.push(Step::Visible(
                                            *e,
                                            Config::new(
                                                rebuild(
                                                    close_arc(&lc.process, &lc.env),
                                                    close_arc(&rc.process, &rc.env),
                                                ),
                                                env.clone(),
                                            ),
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
                for rstep in &rs {
                    if let Step::Visible(e, rc) = rstep {
                        if !sync.contains(e.channel()) {
                            out.push(Step::Visible(
                                *e,
                                Config::new(
                                    rebuild(
                                        Arc::clone(&left_stat),
                                        close_arc(&rc.process, &rc.env),
                                    ),
                                    env.clone(),
                                ),
                            ));
                        }
                    }
                }
                Ok(out)
            }
            Process::Hide { channels, body } => {
                let hidden: ChannelSet = channels
                    .iter()
                    .map(|c| c.resolve(env))
                    .collect::<Result<_, _>>()?;
                let mut out = Vec::new();
                // Successor configs are owned here, so the hiding wrapper is
                // rebuilt around the *moved* body term — no deep copy.
                let rewrap = |c: Config| {
                    Config::new(
                        Process::Hide {
                            channels: channels.clone(),
                            body: c.process,
                        },
                        c.env,
                    )
                };
                for step in self.steps_inner(body, env, fuel)? {
                    match step {
                        Step::Visible(e, c) if hidden.contains(e.channel()) => {
                            out.push(Step::Internal(rewrap(c)));
                        }
                        Step::Visible(e, c) => {
                            out.push(Step::Visible(e, rewrap(c)));
                        }
                        Step::Internal(c) => {
                            out.push(Step::Internal(rewrap(c)));
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    /// The set of visible traces of length at most `depth`, exploring at
    /// most `internal_budget` concealed communications along any path
    /// (defaults used by [`traces`](Self::traces): `depth × 3`, matching
    /// the denotational hide multiplier). See [`walk::traces`].
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from [`steps`](Self::steps).
    pub fn traces_budgeted(
        &self,
        start: &Config,
        depth: usize,
        internal_budget: usize,
    ) -> Result<TraceSet, EvalError> {
        walk::traces(&mut self.clone(), start, depth, internal_budget)
    }

    /// The set of visible traces of length at most `depth`, with the
    /// default internal budget.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from [`steps`](Self::steps).
    pub fn traces(&self, start: &Config, depth: usize) -> Result<TraceSet, EvalError> {
        self.traces_budgeted(start, depth, depth * 3)
    }
}

/// The on-the-fly relation: a state is its configuration, and every
/// visit re-steps the term.
impl Successors for Lts<'_> {
    type State = Config;
    type Row = Vec<Step>;

    fn successors(&mut self, state: &Config) -> Result<Vec<Step>, EvalError> {
        self.steps(state)
    }

    fn config<'s>(&'s self, state: &'s Config) -> &'s Config {
        state
    }
}

/// Renders a concrete channel set back into constant channel references —
/// used to pin a parallel node's alphabets after first resolution.
fn channelset_to_refs(cs: &ChannelSet) -> Vec<ChanRef> {
    cs.iter()
        .map(|c| {
            ChanRef::with_indices(
                c.base(),
                c.indices().iter().map(|&i| Expr::int(i)).collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Semantics;
    use csp_lang::{examples, parse_definitions};
    use csp_trace::{Trace, Value};

    fn tr(pairs: &[(&'static str, u32)]) -> Trace {
        Trace::parse_like(pairs.iter().map(|&(c, n)| (c, Value::nat(n))))
    }

    #[test]
    fn stop_has_no_steps() {
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let c = Config::new(Process::Stop, Env::new());
        assert!(lts.steps(&c).unwrap().is_empty());
    }

    #[test]
    fn output_offers_one_step_input_offers_universe() {
        let defs = Definitions::new();
        let uni = Universe::new(2);
        let lts = Lts::new(&defs, &uni);
        let c = Config::new(csp_lang::parse_process("a!7 -> STOP").unwrap(), Env::new());
        // a!7 with NAT bound 2 still fires: outputs are computed, not
        // enumerated.
        let uni_big = Universe::new(7);
        let _ = uni_big;
        let steps = lts.steps(&c).unwrap();
        assert_eq!(steps.len(), 1);
        let c2 = Config::new(
            csp_lang::parse_process("a?x:NAT -> STOP").unwrap(),
            Env::new(),
        );
        assert_eq!(lts.steps(&c2).unwrap().len(), 3);
    }

    #[test]
    fn lts_traces_agree_with_denotation_on_pipeline() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let lts = Lts::new(&defs, &uni);
        let sem = Semantics::new(&defs, &uni);
        let env = Env::new();
        for name in ["copier", "recopier", "pipeline"] {
            for depth in 0..=4 {
                let op = lts.traces(&lts.initial(name, &env), depth).unwrap();
                let den = sem.denote_name(name, &env, depth).unwrap();
                assert_eq!(op, den, "{name} at depth {depth}");
            }
        }
    }

    #[test]
    fn lts_traces_agree_with_denotation_on_protocol() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let lts = Lts::new(&defs, &uni);
        let sem = Semantics::new(&defs, &uni);
        let env = Env::new();
        for depth in 0..=3 {
            let op = lts.traces(&lts.initial("protocol", &env), depth).unwrap();
            let den = sem.denote_name("protocol", &env, depth).unwrap();
            assert_eq!(op, den, "protocol at depth {depth}");
        }
    }

    #[test]
    fn multiplier_outputs_scalar_products() {
        // The full §1.3(5) network, width 3, via on-the-fly composition.
        // Row inputs are restricted to {0,1} so the state space stays
        // small while column sums (up to 2+3+5 = 10) remain representable
        // under the NAT bound.
        let defs = parse_definitions(
            "mult[i:1..3] = row[i]?x:{0..1} -> col[i-1]?y:NAT -> col[i]!(v[i]*x + y) -> mult[i]
             zeroes = col[0]!0 -> zeroes
             last = col[3]?y:NAT -> output!y -> last
             network = zeroes || mult[1] || mult[2] || mult[3] || last
             multiplier = chan col[0..3]; network",
        )
        .unwrap();
        let env = examples::multiplier_env(&[2, 3, 5]);
        let uni = Universe::new(10);
        let lts = Lts::new(&defs, &uni);
        let t = lts
            .traces_budgeted(&lts.initial("multiplier", &env), 4, 16)
            .unwrap();
        use csp_trace::Channel;
        let mut outputs = 0;
        for s in t.iter() {
            let h = s.history();
            let out = h.on(&Channel::simple("output"));
            if out.len() == 1 {
                outputs += 1;
                let r = |i: i64| {
                    h.on(&Channel::indexed("row", i))
                        .at(1)
                        .unwrap()
                        .as_int()
                        .unwrap()
                };
                assert_eq!(
                    out.at(1).unwrap().as_int().unwrap(),
                    2 * r(1) + 3 * r(2) + 5 * r(3),
                    "wrong scalar product in {s}"
                );
            }
        }
        assert!(outputs > 0, "no complete round explored");
    }

    #[test]
    fn hidden_events_do_not_appear_in_traces() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let lts = Lts::new(&defs, &uni);
        let t = lts
            .traces(&lts.initial("pipeline", &Env::new()), 3)
            .unwrap();
        use csp_trace::Channel;
        assert!(!t.channels().contains(&Channel::simple("wire")));
        assert!(t.contains(&tr(&[("input", 1), ("output", 1)])));
    }

    #[test]
    fn internal_budget_bounds_hidden_chatter() {
        // A process whose only behaviour is hidden: chan a; loop.
        let defs = parse_definitions("loop = a!0 -> loop").unwrap();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let hidden = csp_lang::parse_process("chan a; loop").unwrap();
        let c = Config::new(hidden, Env::new());
        // Must terminate despite the unbounded internal loop.
        let t = lts.traces_budgeted(&c, 3, 5).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn choice_steps_union_both_arms() {
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let c = Config::new(
            csp_lang::parse_process("a!1 -> STOP | b!2 -> STOP").unwrap(),
            Env::new(),
        );
        assert_eq!(lts.steps(&c).unwrap().len(), 2);
    }

    #[test]
    fn mismatched_sync_deadlocks() {
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let c = Config::new(
            csp_lang::parse_process("(w!1 -> STOP) || (w!2 -> STOP)").unwrap(),
            Env::new(),
        );
        assert!(lts.steps(&c).unwrap().is_empty());
    }

    #[test]
    fn alphabets_are_pinned_at_composition() {
        // P = a!1 -> STOP, Q = a?x -> a?x -> STOP. After the joint a.1,
        // P is STOP — but a stays in P's alphabet, so Q cannot continue
        // alone.
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let lts = Lts::new(&defs, &uni);
        let c = Config::new(
            csp_lang::parse_process("(a!1 -> STOP) || (a?x:NAT -> a?y:NAT -> STOP)").unwrap(),
            Env::new(),
        );
        let t = lts.traces(&c, 3).unwrap();
        assert!(t.contains(&tr(&[("a", 1)])));
        assert_eq!(t.depth(), 1, "Q escaped the pinned alphabet: {t}");
    }
}
