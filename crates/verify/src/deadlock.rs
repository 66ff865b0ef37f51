//! Deadlock reachability analysis — going where the paper's theory
//! cannot.
//!
//! §4: the proof method "cannot prove (or even express) the absence of
//! deadlock", because the prefix-closure model identifies `STOP | P`
//! with `P`. The *operational* semantics, however, distinguishes
//! configurations: a state with no enabled transition is a deadlock, and
//! bounded search finds the traces that reach one. This module provides
//! that search — the analysis the paper names as future work
//! ("It is hoped that the adoption of a more realistic model of
//! non-determinism will permit … total correctness").
//!
//! Two kinds of dead states are distinguished: *termination-like* (every
//! component is `STOP` syntactically — the network ran out of program)
//! and *genuine deadlock* (some component still has program text but no
//! event can be agreed).

use std::collections::{BTreeSet, VecDeque};

use csp_lang::{EvalError, Process};
use csp_semantics::{Step, Successors};
use csp_trace::Trace;

/// A reachable dead configuration.
#[derive(Debug, Clone)]
pub struct Deadlock {
    /// A visible trace reaching the dead configuration.
    pub trace: Trace,
    /// Rendering of the stuck process term.
    pub state: String,
    /// True when the stuck term is syntactically all-`STOP` — i.e. the
    /// network genuinely finished rather than jammed.
    pub terminated: bool,
}

/// Result of a bounded deadlock search.
#[derive(Debug, Clone, Default)]
pub struct DeadlockReport {
    /// Dead configurations found, shortest witness first (at most one
    /// per distinct configuration).
    pub deadlocks: Vec<Deadlock>,
    /// Number of distinct configurations explored.
    pub states_explored: usize,
    /// True if the search exhausted every configuration reachable within
    /// the depth bound (so an empty `deadlocks` is a bounded guarantee).
    pub complete: bool,
}

impl DeadlockReport {
    /// True when no *genuine* deadlock (non-terminated dead state) was
    /// found.
    pub fn deadlock_free(&self) -> bool {
        self.deadlocks.iter().all(|d| d.terminated)
    }
}

/// Searches breadth-first for reachable dead states of the relation
/// from `start`, up to `depth` visible events and `internal_budget`
/// concealed steps along any path. Breadth-first order makes witnesses
/// shortest-first.
///
/// # Errors
///
/// Propagates evaluation failures from the transition relation.
pub fn find_deadlocks<R: Successors>(
    rel: &mut R,
    start: R::State,
    depth: usize,
    internal_budget: usize,
) -> Result<DeadlockReport, EvalError> {
    let mut report = DeadlockReport::default();
    let mut seen = BTreeSet::from([start.clone()]);
    let mut dead_seen: BTreeSet<String> = BTreeSet::new();
    let mut queue = VecDeque::from([(start, Trace::empty(), 0usize)]);

    while let Some((state, trace, internal_used)) = queue.pop_front() {
        report.states_explored += 1;
        let row = rel.successors(&state)?;
        if row.is_empty() {
            let process = rel.config(&state).process();
            let rendered = process.to_string();
            if dead_seen.insert(rendered.clone()) {
                report.deadlocks.push(Deadlock {
                    trace,
                    terminated: all_stop(process),
                    state: rendered,
                });
            }
            continue;
        }
        for step in row.iter() {
            match step {
                Step::Visible(e, next) => {
                    if trace.len() < depth && seen.insert(next.clone()) {
                        queue.push_back((next.clone(), trace.snoc(*e), internal_used));
                    }
                }
                Step::Internal(next) => {
                    if internal_used < internal_budget && seen.insert(next.clone()) {
                        queue.push_back((next.clone(), trace.clone(), internal_used + 1));
                    }
                }
            }
        }
    }
    // Completeness: exploration is cut only at the bounds; within them
    // every state was expanded.
    report.complete = true;
    Ok(report)
}

/// True when the term is `STOP` up to network structure.
fn all_stop(p: &Process) -> bool {
    match p {
        Process::Stop => true,
        Process::Parallel { left, right, .. } => all_stop(left) && all_stop(right),
        Process::Hide { body, .. } => all_stop(body),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_lang::{examples, parse_definitions, parse_process, Definitions, Env};
    use csp_semantics::{CompiledLts, Config, Lts, Universe};

    /// The search on the on-the-fly relation, with the default budget.
    fn search(defs: &Definitions, uni: &Universe, p: &Process, depth: usize) -> DeadlockReport {
        let start = Config::new(p.clone(), Env::new());
        find_deadlocks(&mut Lts::new(defs, uni), start, depth, depth * 4).unwrap()
    }

    #[test]
    fn pipeline_is_deadlock_free() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let report = search(&defs, &uni, &Process::call("pipeline"), 4);
        assert!(report.deadlocks.is_empty());
        assert!(report.deadlock_free());
        assert!(report.states_explored > 1);
        assert!(report.complete);
    }

    #[test]
    fn mismatched_sync_values_deadlock_immediately() {
        let defs = parse_definitions(
            "left = w!1 -> STOP
             right = w?x:{2} -> STOP
             net = left || right",
        )
        .unwrap();
        let uni = Universe::new(3);
        let report = search(&defs, &uni, &Process::call("net"), 3);
        assert_eq!(report.deadlocks.len(), 1);
        let d = &report.deadlocks[0];
        assert!(d.trace.is_empty(), "witness should be <>: {}", d.trace);
        assert!(!d.terminated, "a jam, not termination");
        assert!(!report.deadlock_free());
    }

    #[test]
    fn termination_is_distinguished_from_deadlock() {
        let defs = parse_definitions("once = a!1 -> b!2 -> STOP").unwrap();
        let uni = Universe::new(2);
        let report = search(&defs, &uni, &Process::call("once"), 4);
        assert_eq!(report.deadlocks.len(), 1);
        assert!(report.deadlocks[0].terminated);
        assert!(report.deadlock_free());
        assert_eq!(report.deadlocks[0].trace.len(), 2);
    }

    #[test]
    fn section4_blind_spot_demonstrated() {
        // STOP | P and P denote the SAME trace set (§4) — but an
        // implementation that commits to the STOP branch deadlocks. Our
        // LTS gives `|` the union (initial-choice) semantics, matching
        // the model: the choice term itself therefore shows no deadlock…
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let choice = parse_process("STOP | copier").unwrap();
        let report = search(&defs, &uni, &choice, 3);
        assert!(report.deadlocks.is_empty());
        // …which is precisely the §4 complaint: neither the model nor
        // any tool built on it can see the STOP branch. The defect is a
        // property of the semantics, faithfully reproduced.
    }

    #[test]
    fn hidden_loop_networks_explore_within_budget() {
        // chan a; loop — only internal behaviour; search terminates and
        // finds no dead state (the loop always has its internal step).
        let defs = parse_definitions("lp = a!0 -> lp").unwrap();
        let uni = Universe::new(1);
        let hidden = parse_process("chan a; lp").unwrap();
        let report = search(&defs, &uni, &hidden, 2);
        assert!(report.deadlocks.is_empty());
    }

    #[test]
    fn both_relations_give_the_same_report() {
        let fixtures: Vec<(Definitions, &str)> = vec![
            (examples::pipeline(), "pipeline"),
            (
                parse_definitions(
                    "left = w!1 -> w!2 -> STOP
                     right = w?x:{1} -> w?y:{9} -> STOP
                     net = left || right",
                )
                .unwrap(),
                "net",
            ),
            (
                parse_definitions("once = a!1 -> b!2 -> STOP").unwrap(),
                "once",
            ),
        ];
        for (defs, name) in &fixtures {
            let uni = Universe::new(9);
            let p = Process::call(name);
            let a = search(defs, &uni, &p, 4);
            let mut compiled = CompiledLts::new(defs, &uni);
            let start = compiled.intern(Config::new(p, Env::new()));
            let b = find_deadlocks(&mut compiled, start, 4, 16).unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{name}");
        }
    }

    #[test]
    fn budget_bounds_concealed_steps() {
        // Four hidden steps precede the first visible one: a budget of
        // three never gets there, a budget of four reaches the end.
        let defs = parse_definitions("lp = a!0 -> a!0 -> a!0 -> a!0 -> out!0 -> STOP").unwrap();
        let uni = Universe::new(1);
        let start = || Config::new(parse_process("chan a; lp").unwrap(), Env::new());
        let short = find_deadlocks(&mut Lts::new(&defs, &uni), start(), 1, 3).unwrap();
        assert!(short.deadlocks.is_empty());
        assert_eq!(short.states_explored, 4);
        let long = find_deadlocks(&mut Lts::new(&defs, &uni), start(), 1, 4).unwrap();
        assert_eq!(long.deadlocks.len(), 1);
        assert_eq!(long.deadlocks[0].trace.to_string(), "<out.0>");
        assert!(long.deadlocks[0].terminated);
    }

    #[test]
    fn partial_deadlock_after_progress() {
        // A network that works once and then jams: the second w value
        // mismatches.
        let defs = parse_definitions(
            "left = w!1 -> w!2 -> STOP
             right = w?x:{1} -> w?y:{9} -> STOP
             net = left || right",
        )
        .unwrap();
        let uni = Universe::new(9);
        let report = search(&defs, &uni, &Process::call("net"), 4);
        assert_eq!(report.deadlocks.len(), 1);
        let d = &report.deadlocks[0];
        assert_eq!(d.trace.len(), 1, "jams after the first exchange");
        assert!(!d.terminated);
    }
}
