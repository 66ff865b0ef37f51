//! The online run monitor: runtime verification of an executing network
//! against its own semantics and `sat`-style assertions.
//!
//! Where [`crate::check_conformance`] replays a *finished* trace, the
//! monitor is fed each visible event as the coordinator commits it. It
//! tracks the same frontier the conformance replay does — a set of
//! [`StateId`]s in a [`CompiledLts`], advanced by one
//! [`walk::after`] step (the visible event, then up to a budget of
//! concealed steps) per observation — so trace-membership is decided
//! incrementally, and every observed prefix
//! is checked against the monitored assertions the way `P sat R`
//! quantifies over prefixes (§2.2). The first event the semantics cannot
//! match, or the first prefix falsifying an assertion, latches a
//! [`MonitorViolation`]; the run continues (observation must not change
//! the observed system) but the verdict is final.

use std::collections::BTreeSet;

use csp_assert::{Assertion, EvalCtx, FuncTable};
use csp_lang::{Definitions, Env, Process};
use csp_semantics::{walk, CompiledLts, Config, StateId, Universe};
use csp_trace::{Event, Trace};

/// What an online monitor should check, carried in
/// [`crate::RunOptions::monitor`].
#[derive(Debug, Clone, Default)]
pub struct MonitorSpec {
    /// Assertions checked on every visible prefix (empty = membership
    /// checking only).
    pub assertions: Vec<Assertion>,
    /// Concealed steps the spec process may take between two visible
    /// events (same role as the conformance `internal_budget`).
    pub internal_budget: usize,
}

impl MonitorSpec {
    /// Membership-only monitoring with the default internal budget.
    pub fn new() -> Self {
        MonitorSpec {
            assertions: Vec::new(),
            internal_budget: 32,
        }
    }

    /// Adds an assertion to check at every visible prefix.
    #[must_use]
    pub fn with_assertion(mut self, a: Assertion) -> Self {
        self.assertions.push(a);
        self
    }

    /// Overrides the concealed-step budget per visible event.
    #[must_use]
    pub fn with_internal_budget(mut self, budget: usize) -> Self {
        self.internal_budget = budget;
        self
    }
}

/// The monitor's verdict over the events it has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorVerdict {
    /// Every observed prefix is a trace of the spec and satisfies every
    /// monitored assertion.
    Conforming,
    /// A violation was observed (see the attached
    /// [`MonitorViolation`]).
    Violated,
    /// The monitor hit an evaluation error and stopped judging.
    Aborted,
}

impl MonitorVerdict {
    /// True iff no violation (and no abort) was observed.
    pub fn is_conforming(&self) -> bool {
        matches!(self, MonitorVerdict::Conforming)
    }
}

impl std::fmt::Display for MonitorVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorVerdict::Conforming => write!(f, "conforming"),
            MonitorVerdict::Violated => write!(f, "violated"),
            MonitorVerdict::Aborted => write!(f, "aborted"),
        }
    }
}

/// Why an observed event was flagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// No spec behaviour matches the observed prefix: the event is not
    /// in `traces(P)` after the previously observed prefix.
    NotInTraces,
    /// The observed prefix falsifies a monitored assertion (its text).
    AssertionFailed(String),
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::NotInTraces => write!(f, "event not admitted by the spec"),
            ViolationKind::AssertionFailed(a) => write!(f, "assertion `{a}` falsified"),
        }
    }
}

/// The first divergent event of a monitored run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorViolation {
    /// Index of the offending event in the *full* committed trace.
    pub step: usize,
    /// Index of the offending event in the visible trace.
    pub visible_index: usize,
    /// The offending event itself.
    pub event: Event,
    /// What went wrong.
    pub kind: ViolationKind,
    /// Causal-log seqs of the events strictly happens-before the
    /// offending one (its past cone), filled in by the executor from the
    /// run's [`csp_causal::CausalLog`].
    pub causal_history: Vec<usize>,
}

impl std::fmt::Display for MonitorViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {} (visible #{}) `{}`: {}",
            self.step, self.visible_index, self.event, self.kind
        )
    }
}

/// What a monitored run reports, in [`crate::RunResult::monitor`].
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// The verdict over the whole observed run.
    pub verdict: MonitorVerdict,
    /// The first divergent event, when `verdict` is `Violated`.
    pub violation: Option<MonitorViolation>,
    /// Visible events the monitor stepped through.
    pub events_checked: usize,
    /// The evaluation error that aborted monitoring, if any.
    pub error: Option<String>,
}

impl MonitorReport {
    /// True iff the observed run conformed.
    pub fn is_conforming(&self) -> bool {
        self.verdict.is_conforming()
    }
}

/// The online monitor itself. Owns a [`CompiledLts`] over the *spec*
/// process (the same term the executor runs) and advances a frontier of
/// state ids by one visible event per [`Monitor::observe`] call.
///
/// Reusing `CompiledLts` rather than a purpose-built automaton means the
/// monitor judges with exactly the semantics the verifier proves against
/// — successor rows are interned and memoised, so a long run pays the
/// stepping cost once per distinct network state.
pub struct Monitor<'a> {
    lts: CompiledLts<'a>,
    frontier: BTreeSet<StateId>,
    env: Env,
    universe: &'a Universe,
    funcs: FuncTable,
    assertions: Vec<Assertion>,
    budget: usize,
    visible: Vec<Event>,
    violation: Option<MonitorViolation>,
    error: Option<String>,
    events_checked: usize,
}

impl<'a> Monitor<'a> {
    /// A monitor for `process` (the executed network's own term) under
    /// `spec`.
    pub fn new(
        process: &Process,
        env: &Env,
        defs: &'a Definitions,
        universe: &'a Universe,
        spec: MonitorSpec,
    ) -> Self {
        let mut lts = CompiledLts::new(defs, universe);
        let start = lts.intern(Config::new(process.clone(), env.clone()));
        let budget = spec.internal_budget;
        let (frontier, error) = match walk::tau_closure(&mut lts, BTreeSet::from([start]), budget) {
            Ok(frontier) => (frontier, None),
            Err(e) => (BTreeSet::new(), Some(e.to_string())),
        };
        Monitor {
            lts,
            frontier,
            env: env.clone(),
            universe,
            funcs: FuncTable::with_builtins(),
            assertions: spec.assertions,
            budget,
            visible: Vec::new(),
            violation: None,
            error,
            events_checked: 0,
        }
    }

    /// True once a violation or abort has latched; later observations
    /// are ignored (the verdict names the *first* divergent event).
    pub fn is_latched(&self) -> bool {
        self.violation.is_some() || self.error.is_some()
    }

    /// Feeds one committed visible event (`step` = its index in the full
    /// trace). Returns `true` while the run still conforms. Never
    /// panics and never propagates errors into the run: an evaluation
    /// error latches an aborted verdict instead.
    pub fn observe(&mut self, event: Event, step: usize) -> bool {
        if self.is_latched() {
            return false;
        }
        let visible_index = self.visible.len();
        self.events_checked += 1;

        // One frontier step: the observed event, then up to `budget`
        // concealed moves. An empty frontier = the spec admits no such
        // continuation.
        let next = match walk::after(&mut self.lts, &self.frontier, &event, self.budget) {
            Ok(next) => next,
            Err(e) => {
                self.error = Some(e.to_string());
                return false;
            }
        };
        if next.is_empty() {
            self.violation = Some(MonitorViolation {
                step,
                visible_index,
                event,
                kind: ViolationKind::NotInTraces,
                causal_history: Vec::new(),
            });
            return false;
        }
        self.frontier = next;
        self.visible.push(event);

        // `P sat R` quantifies over every trace prefix: check the newly
        // extended prefix against each monitored assertion.
        if !self.assertions.is_empty() {
            let prefix = Trace::from_events(self.visible.iter().copied());
            let h = prefix.history();
            let ctx = EvalCtx::new(&self.env, &h, &self.funcs, self.universe);
            for a in &self.assertions {
                match ctx.assertion(a) {
                    Ok(true) => {}
                    Ok(false) => {
                        self.violation = Some(MonitorViolation {
                            step,
                            visible_index,
                            event,
                            kind: ViolationKind::AssertionFailed(a.to_string()),
                            causal_history: Vec::new(),
                        });
                        return false;
                    }
                    Err(e) => {
                        self.error = Some(match e {
                            csp_assert::AssertError::Eval(e) => e.to_string(),
                            csp_assert::AssertError::UnknownFunction(n) => {
                                format!("unknown function {n}")
                            }
                        });
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The verdict over everything observed so far.
    pub fn report(&self) -> MonitorReport {
        let verdict = if self.error.is_some() {
            MonitorVerdict::Aborted
        } else if self.violation.is_some() {
            MonitorVerdict::Violated
        } else {
            MonitorVerdict::Conforming
        };
        MonitorReport {
            verdict,
            violation: self.violation.clone(),
            events_checked: self.events_checked,
            error: self.error.clone(),
        }
    }

    /// Attaches a causal history (log seqs happens-before the violating
    /// event) to the latched violation, if any.
    pub fn attach_causal_history(&mut self, history: Vec<usize>) {
        if let Some(v) = &mut self.violation {
            v.causal_history = history;
        }
    }

    /// Step index (in the full trace) of the latched violation, if any.
    pub fn violation_step(&self) -> Option<usize> {
        self.violation.as_ref().map(|v| v.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_assert::{parse_assertion, ChannelInfo};
    use csp_lang::examples;
    use csp_trace::{Channel, Value};

    fn info() -> ChannelInfo {
        ChannelInfo::new()
            .with_channels(["input", "wire", "output"])
            .with_arrays(["col"])
            .with_funcs(["f"])
    }

    #[test]
    fn conforming_prefix_keeps_the_monitor_green() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let spec =
            MonitorSpec::new().with_assertion(parse_assertion("output <= input", &info()).unwrap());
        let mut m = Monitor::new(&Process::call("pipeline"), &Env::new(), &defs, &uni, spec);
        // input.0 then (hidden wire.0 happens internally) output.0.
        assert!(m.observe(Event::new(Channel::simple("input"), Value::nat(0)), 0));
        assert!(m.observe(Event::new(Channel::simple("output"), Value::nat(0)), 2));
        let r = m.report();
        assert!(r.is_conforming(), "{r:?}");
        assert_eq!(r.events_checked, 2);
    }

    #[test]
    fn out_of_spec_event_names_the_first_bad_step() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let mut m = Monitor::new(
            &Process::call("pipeline"),
            &Env::new(),
            &defs,
            &uni,
            MonitorSpec::new(),
        );
        // The pipeline cannot emit output before any input.
        let bad = Event::new(Channel::simple("output"), Value::nat(1));
        assert!(!m.observe(bad, 0));
        let r = m.report();
        assert_eq!(r.verdict, MonitorVerdict::Violated);
        let v = r.violation.unwrap();
        assert_eq!(v.step, 0);
        assert_eq!(v.visible_index, 0);
        assert_eq!(v.event, bad);
        assert_eq!(v.kind, ViolationKind::NotInTraces);
        // Latches: later (even legal) events do not move the verdict.
        assert!(!m.observe(Event::new(Channel::simple("input"), Value::nat(0)), 1));
        assert_eq!(m.report().events_checked, 1);
    }

    #[test]
    fn falsified_assertion_is_flagged_with_its_text() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let spec =
            MonitorSpec::new().with_assertion(parse_assertion("#input <= 0", &info()).unwrap());
        let mut m = Monitor::new(&Process::call("pipeline"), &Env::new(), &defs, &uni, spec);
        assert!(!m.observe(Event::new(Channel::simple("input"), Value::nat(0)), 0));
        let r = m.report();
        assert_eq!(r.verdict, MonitorVerdict::Violated);
        match r.violation.unwrap().kind {
            ViolationKind::AssertionFailed(text) => assert!(text.contains("#input")),
            other => panic!("expected AssertionFailed, got {other:?}"),
        }
    }
}
