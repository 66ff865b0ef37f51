//! The queries over the operational semantics, each written once.
//!
//! A query needs two things from the transition relation of §1.2: the
//! successor row of a state, and the configuration behind a state.
//! [`Successors`] is exactly that interface. Two relations implement it:
//!
//! * [`Lts`](crate::Lts) steps terms on the fly; its states are
//!   [`Config`]s and every visit re-steps the term;
//! * [`CompiledLts`](crate::CompiledLts) interns configurations into
//!   [`StateId`](crate::StateId)s and memoises each row, so a re-visit is
//!   a lookup.
//!
//! Both produce their rows in the same order, so every query below
//! returns the same answer on either; [`Engine`](crate::Engine) only
//! chooses which relation it runs on. The bounded-trace walk lives here,
//! as do the τ-closure, the visible-event frontier step shared by trace
//! replay and the online monitor, and trace refinement by subset
//! construction. The deadlock search in `csp-verify` is written over the
//! same trait.

use std::collections::BTreeSet;
use std::ops::Deref;

use csp_lang::EvalError;
use csp_trace::{Event, Trace, TraceSet};

use crate::{Config, Step};

/// A labelled transition relation over some representation of states.
pub trait Successors {
    /// A state of the relation.
    type State: Clone + Ord;
    /// A successor row. It is owned, so a walk can keep it while it
    /// steps further.
    type Row: Deref<Target = [Step<Self::State>]>;

    /// The transitions enabled in `state`, in the order
    /// [`Lts::steps`](crate::Lts::steps) produces them.
    ///
    /// # Errors
    ///
    /// Fails on undefined names, unbound variables, or unresolvable
    /// sets.
    fn successors(&mut self, state: &Self::State) -> Result<Self::Row, EvalError>;

    /// The configuration behind a state.
    fn config<'s>(&'s self, state: &'s Self::State) -> &'s Config;
}

/// The set of visible traces of length at most `depth` from `start`,
/// taking at most `internal_budget` concealed steps along any path.
/// `(trace, state)` pairs are visited once, which cuts re-exploration of
/// confluent interleavings.
///
/// # Errors
///
/// Propagates evaluation failures from the relation.
pub fn traces<R: Successors>(
    rel: &mut R,
    start: &R::State,
    depth: usize,
    internal_budget: usize,
) -> Result<TraceSet, EvalError> {
    let mut out = TraceSet::stop();
    let mut seen = BTreeSet::new();
    trace_walk(
        rel,
        start,
        depth,
        internal_budget,
        &Trace::empty(),
        &mut out,
        &mut seen,
    )?;
    Ok(out)
}

fn trace_walk<R: Successors>(
    rel: &mut R,
    state: &R::State,
    depth: usize,
    internal_budget: usize,
    prefix: &Trace,
    out: &mut TraceSet,
    seen: &mut BTreeSet<(Trace, R::State)>,
) -> Result<(), EvalError> {
    if !seen.insert((prefix.clone(), state.clone())) {
        return Ok(());
    }
    out.insert_closed(prefix.clone());
    for step in rel.successors(state)?.iter() {
        match step {
            Step::Visible(e, next) => {
                if depth > 0 {
                    trace_walk(
                        rel,
                        next,
                        depth - 1,
                        internal_budget,
                        &prefix.snoc(*e),
                        out,
                        seen,
                    )?;
                }
            }
            Step::Internal(next) => {
                if internal_budget > 0 {
                    trace_walk(rel, next, depth, internal_budget - 1, prefix, out, seen)?;
                }
            }
        }
    }
    Ok(())
}

/// Every state reachable from `set` by at most `budget` concealed steps
/// (the τ-closure, bounded as the trace walk bounds hidden chatter).
///
/// # Errors
///
/// Propagates evaluation failures from the relation.
pub fn tau_closure<R: Successors>(
    rel: &mut R,
    set: BTreeSet<R::State>,
    budget: usize,
) -> Result<BTreeSet<R::State>, EvalError> {
    let mut layer: Vec<R::State> = set.iter().cloned().collect();
    let mut closed = set;
    for _ in 0..budget {
        if layer.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for state in &layer {
            for step in rel.successors(state)?.iter() {
                if let Step::Internal(t) = step {
                    if closed.insert(t.clone()) {
                        next.push(t.clone());
                    }
                }
            }
        }
        layer = next;
    }
    Ok(closed)
}

/// One step of a visible-trace frontier: the states reached from
/// `frontier` by `event`, τ-closed within `internal_budget`. An empty
/// result means no state of the frontier offers `event`.
///
/// # Errors
///
/// Propagates evaluation failures from the relation.
pub fn after<R: Successors>(
    rel: &mut R,
    frontier: &BTreeSet<R::State>,
    event: &Event,
    internal_budget: usize,
) -> Result<BTreeSet<R::State>, EvalError> {
    let mut reached = BTreeSet::new();
    for state in frontier {
        for step in rel.successors(state)?.iter() {
            if let Step::Visible(e, t) = step {
                if e == event {
                    reached.insert(t.clone());
                }
            }
        }
    }
    tau_closure(rel, reached, internal_budget)
}

/// Bounded trace refinement by subset construction: every visible
/// behaviour of `imp` up to `depth` events must be matched by `spec`.
/// The walk pairs each implementation state with the set of
/// specification states reachable on the same visible trace (τ-closed
/// after every event, within what is left of the implementation's
/// budget); a pair whose specification side empties yields the
/// counterexample trace. No trace set is materialised.
///
/// # Errors
///
/// Propagates evaluation failures from the relation.
pub fn refines<R: Successors>(
    rel: &mut R,
    imp: &R::State,
    spec: &R::State,
    depth: usize,
    internal_budget: usize,
) -> Result<Result<(), Trace>, EvalError> {
    let spec0 = tau_closure(rel, BTreeSet::from([spec.clone()]), internal_budget)?;
    let mut seen = BTreeSet::new();
    refine_walk(
        rel,
        imp,
        &spec0,
        depth,
        internal_budget,
        &Trace::empty(),
        &mut seen,
    )
}

/// Memo key of the refinement walk: implementation state, specification
/// frontier, visible depth left, concealed budget left.
type RefineKey<S> = (S, BTreeSet<S>, usize, usize);

fn refine_walk<R: Successors>(
    rel: &mut R,
    state: &R::State,
    spec: &BTreeSet<R::State>,
    depth: usize,
    internal_left: usize,
    prefix: &Trace,
    seen: &mut BTreeSet<RefineKey<R::State>>,
) -> Result<Result<(), Trace>, EvalError> {
    if !seen.insert((state.clone(), spec.clone(), depth, internal_left)) {
        return Ok(Ok(()));
    }
    for step in rel.successors(state)?.iter() {
        let verdict = match step {
            Step::Visible(e, next) => {
                if depth == 0 {
                    continue;
                }
                let trace = prefix.snoc(*e);
                let spec_after = after(rel, spec, e, internal_left)?;
                if spec_after.is_empty() {
                    return Ok(Err(trace));
                }
                refine_walk(
                    rel,
                    next,
                    &spec_after,
                    depth - 1,
                    internal_left,
                    &trace,
                    seen,
                )?
            }
            Step::Internal(next) => {
                if internal_left == 0 {
                    continue;
                }
                refine_walk(rel, next, spec, depth, internal_left - 1, prefix, seen)?
            }
        };
        if verdict.is_err() {
            return Ok(verdict);
        }
    }
    Ok(Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledLts, Lts, Universe};
    use csp_lang::{parse_definitions, Env};
    use csp_trace::{Channel, Value};

    fn refinement_cases<R: Successors>(rel: &mut R, [spec, good, bad]: [R::State; 3]) {
        assert!(refines(rel, &good, &spec, 3, 9).unwrap().is_ok());
        let cex = refines(rel, &bad, &spec, 3, 9).unwrap().unwrap_err();
        assert_eq!(cex.len(), 1, "shortest counterexample: {cex}");
        assert!(refines(rel, &spec, &spec, 3, 9).unwrap().is_ok());
    }

    #[test]
    fn refinement_verdicts_on_both_relations() {
        let defs = parse_definitions(
            "spec = a?x:NAT -> spec | b!0 -> spec
             good = a?x:NAT -> good
             bad = c!9 -> bad",
        )
        .unwrap();
        let uni = Universe::new(1);
        let names = ["spec", "good", "bad"];
        let mut lts = Lts::new(&defs, &uni);
        let configs = names.map(|n| lts.initial(n, &Env::new()));
        refinement_cases(&mut lts, configs);
        let mut compiled = CompiledLts::new(&defs, &uni);
        let ids = names.map(|n| compiled.start(n, &Env::new()));
        refinement_cases(&mut compiled, ids);
    }

    #[test]
    fn refinement_sees_through_hiding() {
        // pipeline (with wire hidden) refines the one-place-at-a-time
        // spec only via τ-closure over the hidden synchronisations.
        let defs = parse_definitions(
            "copier = input?x:NAT -> wire!x -> copier
             recopier = wire?y:NAT -> output!y -> recopier
             pipeline = chan wire; (copier || recopier)
             anyio = input?x:NAT -> anyio | output!0 -> anyio | output!1 -> anyio",
        )
        .unwrap();
        let uni = Universe::new(1);
        let mut c = CompiledLts::new(&defs, &uni);
        let impl_s = c.start("pipeline", &Env::new());
        let spec_s = c.start("anyio", &Env::new());
        assert!(refines(&mut c, &impl_s, &spec_s, 3, 9).unwrap().is_ok());
        // And the reverse direction fails: anyio can output before any
        // input, which the pipeline never does.
        let cex = refines(&mut c, &spec_s, &impl_s, 3, 9)
            .unwrap()
            .unwrap_err();
        assert!(!cex.is_empty());
    }

    #[test]
    fn frontier_step_follows_hidden_moves() {
        let defs = csp_lang::examples::pipeline();
        let uni = Universe::new(1);
        let mut lts = Lts::new(&defs, &uni);
        let start = lts.initial("pipeline", &Env::new());
        let f0 = tau_closure(&mut lts, BTreeSet::from([start]), 4).unwrap();
        let input = Event::new(Channel::simple("input"), Value::nat(1));
        let output = Event::new(Channel::simple("output"), Value::nat(1));
        assert!(after(&mut lts, &f0, &output, 4).unwrap().is_empty());
        let f1 = after(&mut lts, &f0, &input, 4).unwrap();
        // The hidden wire hand-over is in the closure, so output follows.
        assert!(!after(&mut lts, &f1, &output, 4).unwrap().is_empty());
        // Without budget for it, it does not.
        let f1 = after(&mut lts, &f0, &input, 0).unwrap();
        assert!(after(&mut lts, &f1, &output, 0).unwrap().is_empty());
    }
}
