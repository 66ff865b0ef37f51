//! Property-based tests over the core data structures and the semantic
//! invariants the paper's model depends on.

use csp::{
    compare, parse_process, Channel, ChannelSet, Config, Definitions, Env, Event, Lts, Process,
    Semantics, Seq, Trace, TraceSet, Universe, Value,
};
use proptest::prelude::*;

// ---------------------------------------------------------------- data --

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u32..4).prop_map(Value::nat),
        Just(Value::sym("ACK")),
        Just(Value::sym("NACK")),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    (prop_oneof![Just("a"), Just("b"), Just("c")], arb_value())
        .prop_map(|(c, v)| Event::new(Channel::simple(c), v))
}

fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_event(), 0..=max_len).prop_map(Trace::from_events)
}

fn arb_traceset() -> impl Strategy<Value = TraceSet> {
    prop::collection::vec(arb_trace(4), 0..4).prop_map(TraceSet::closure_of)
}

/// Closed random process terms over channels a/b/c (mirrors the grammar
/// of csp-verify's generator, but through proptest so failures shrink).
fn arb_process() -> impl Strategy<Value = Process> {
    let leaf = Just(Process::Stop);
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![Just("a"), Just("b"), Just("c")],
                0i64..2,
                inner.clone()
            )
                .prop_map(|(c, n, p)| Process::output(c, csp::Expr::int(n), p)),
            (prop_oneof![Just("a"), Just("b"), Just("c")], inner.clone())
                .prop_map(|(c, p)| Process::input(c, "x", csp::SetExpr::range(0, 1), p)),
            (inner.clone(), inner).prop_map(|(p, q)| p.or(q)),
        ]
    })
}

// ------------------------------------------------------------ sequences --

proptest! {
    /// `s ≤ t ⇔ ∃u. s⌢u = t` — both directions.
    #[test]
    fn prefix_order_characterisation(s in arb_trace(4), u in arb_trace(4)) {
        let t = s.concat(&u);
        prop_assert!(s.is_prefix_of(&t));
        if !u.is_empty() {
            prop_assert!(!t.is_prefix_of(&s));
        }
    }

    /// The prefix order is a partial order.
    #[test]
    fn prefix_order_is_partial_order(a in arb_trace(4), b in arb_trace(4)) {
        prop_assert!(a.is_prefix_of(&a));
        if a.is_prefix_of(&b) && b.is_prefix_of(&a) {
            prop_assert_eq!(&a, &b);
        }
    }

    /// `#(s⌢t) = #s + #t` and 1-based indexing is consistent with it.
    #[test]
    fn concat_length_and_indexing(s in arb_trace(4), t in arb_trace(4)) {
        let st = s.concat(&t);
        prop_assert_eq!(st.len(), s.len() + t.len());
        for i in 1..=s.len() {
            prop_assert_eq!(st.at(i), s.at(i));
        }
        for i in 1..=t.len() {
            prop_assert_eq!(st.at(s.len() + i), t.at(i));
        }
    }

    /// `ch(s)` distributes the events: total messages equals trace
    /// length, and restriction commutes with history (lemma (d) of
    /// §3.4).
    #[test]
    fn history_lemmas(s in arb_trace(6)) {
        let h = s.history();
        prop_assert_eq!(h.total_messages(), s.len());
        let hidden: ChannelSet = ["b"].into_iter().collect();
        let restricted = s.restrict(&hidden).history();
        for c in ["a", "c"] {
            prop_assert_eq!(h.on(&Channel::simple(c)), restricted.on(&Channel::simple(c)));
        }
        prop_assert!(restricted.on(&Channel::simple("b")).is_empty());
    }

    /// Seq cons/tail round-trip and snoc/last.
    #[test]
    fn seq_cons_laws(xs in prop::collection::vec(0i64..5, 0..6), x in 0i64..5) {
        let s: Seq<i64> = xs.iter().copied().collect();
        let consed = s.cons(x);
        prop_assert_eq!(consed.head(), Some(&x));
        prop_assert_eq!(consed.tail().unwrap(), s.clone());
        let snocced = s.snoc(x);
        prop_assert_eq!(snocced.last(), Some(&x));
        prop_assert_eq!(snocced.len(), s.len() + 1);
    }
}

// ------------------------------------------------------------ trace sets --

proptest! {
    /// Every constructor maintains prefix closure.
    #[test]
    fn constructors_preserve_closure(ts in arb_traceset(), e in arb_event()) {
        prop_assert!(ts.is_prefix_closed());
        prop_assert!(ts.prefixed(e).is_prefix_closed());
        let hidden: ChannelSet = ["b"].into_iter().collect();
        prop_assert!(ts.hide(&hidden).is_prefix_closed());
    }

    /// Union/intersection are idempotent, commutative, and closed.
    #[test]
    fn union_intersection_laws(a in arb_traceset(), b in arb_traceset()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert!(a.union(&b).is_prefix_closed());
        prop_assert!(a.is_subset(&a.union(&b)));
        prop_assert!(a.intersection(&b).is_subset(&a));
    }

    /// §4 at the set level: `{<>} ∪ P = P` (STOP is the unit of choice).
    #[test]
    fn stop_is_choice_unit(p in arb_traceset()) {
        prop_assert_eq!(TraceSet::stop().union(&p), p);
    }

    /// The prefix operator distributes over union (§3.1 theorem).
    #[test]
    fn prefix_distributes_over_union(a in arb_traceset(), b in arb_traceset(), e in arb_event()) {
        let lhs = a.union(&b).prefixed(e);
        let rhs = a.prefixed(e).union(&b.prefixed(e));
        prop_assert_eq!(lhs, rhs);
    }

    /// Membership characterisation of parallel composition: every member
    /// projects into the operands (§3.1's definition).
    #[test]
    fn parallel_members_project(a in arb_traceset(), b in arb_traceset()) {
        let x: ChannelSet = ["a", "b"].into_iter().collect();
        let y: ChannelSet = ["b", "c"].into_iter().collect();
        // Restrict operands to their own alphabets first.
        let pa = TraceSet::closure_of(a.iter().map(|t| t.project(&x)));
        let pb = TraceSet::closure_of(b.iter().map(|t| t.project(&y)));
        let par = pa.parallel(&x, &pb, &y);
        prop_assert!(par.is_prefix_closed());
        for s in par.iter() {
            prop_assert!(s.is_over(&x.union(&y)));
            prop_assert!(pa.contains(&s.project(&x)), "s↾X ∉ P for {}", s);
            prop_assert!(pb.contains(&s.project(&y)), "s↾Y ∉ Q for {}", s);
        }
    }

    /// Hiding then hiding again on disjoint sets equals hiding the union.
    #[test]
    fn hide_composes(ts in arb_traceset()) {
        let b: ChannelSet = ["b"].into_iter().collect();
        let c: ChannelSet = ["c"].into_iter().collect();
        let bc: ChannelSet = ["b", "c"].into_iter().collect();
        prop_assert_eq!(ts.hide(&b).hide(&c), ts.hide(&bc));
    }

    /// §3.1: hiding distributes through unions.
    #[test]
    fn hide_distributes_over_union(a in arb_traceset(), b in arb_traceset()) {
        let c: ChannelSet = ["b"].into_iter().collect();
        prop_assert_eq!(
            a.union(&b).hide(&c),
            a.hide(&c).union(&b.hide(&c))
        );
    }

    /// §3.1: parallel composition distributes through unions in each
    /// argument ("all the operators we use will … distribute through
    /// arbitrary unions").
    #[test]
    fn parallel_distributes_over_union(
        a in arb_traceset(),
        b in arb_traceset(),
        q in arb_traceset(),
    ) {
        let x: ChannelSet = ["a", "b"].into_iter().collect();
        let y: ChannelSet = ["b", "c"].into_iter().collect();
        let pa = TraceSet::closure_of(a.iter().map(|t| t.project(&x)));
        let pb = TraceSet::closure_of(b.iter().map(|t| t.project(&x)));
        let pq = TraceSet::closure_of(q.iter().map(|t| t.project(&y)));
        let lhs = pa.union(&pb).parallel(&x, &pq, &y);
        let rhs = pa.parallel(&x, &pq, &y).union(&pb.parallel(&x, &pq, &y));
        prop_assert_eq!(lhs, rhs);
    }

    /// The padding characterisation of §3.1 agrees with the on-the-fly
    /// parallel composition on generated operands.
    #[test]
    fn padding_definition_agrees_with_parallel(
        a in arb_traceset(),
        b in arb_traceset(),
    ) {
        let x: ChannelSet = ["a", "b"].into_iter().collect();
        let y: ChannelSet = ["b", "c"].into_iter().collect();
        let pa = TraceSet::closure_of(a.iter().map(|t| t.project(&x)));
        let pb = TraceSet::closure_of(b.iter().map(|t| t.project(&y)));
        let depth = 4;
        let events_on = |ts: &TraceSet, cs: &ChannelSet| -> Vec<Event> {
            let mut out: Vec<Event> = ts
                .iter()
                .flat_map(|t| t.iter().cloned())
                .filter(|e| cs.contains(e.channel()))
                .collect();
            out.sort();
            out.dedup();
            out
        };
        let by_def = pa
            .pad(&events_on(&pb, &y.difference(&x)), depth)
            .intersection(&pb.pad(&events_on(&pa, &x.difference(&y)), depth));
        let by_impl = pa.parallel(&x, &pb, &y).up_to_depth(depth);
        prop_assert_eq!(by_def, by_impl);
    }
}

// ------------------------------------------- semantics & language --------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pretty-printer round-trips through the parser on generated
    /// terms.
    #[test]
    fn printer_parser_roundtrip(p in arb_process()) {
        let printed = p.to_string();
        let reparsed = parse_process(&printed)
            .unwrap_or_else(|e| panic!("printed form unparsable: {printed}: {e}"));
        prop_assert_eq!(reparsed, p);
    }

    /// The operational semantics agrees with the denotational semantics
    /// on generated closed terms (no definitions, no hiding — those are
    /// covered by the example-based tests).
    #[test]
    fn operational_equals_denotational(p in arb_process()) {
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let sem = Semantics::new(&defs, &uni);
        let lts = Lts::new(&defs, &uni);
        let env = Env::new();
        for depth in 0..=3 {
            let den = sem.denote(&p, &env, depth).expect("denote");
            let op = lts
                .traces(&Config::new(p.clone(), env.clone()), depth)
                .expect("lts traces");
            prop_assert!(compare(&den, &op).is_none(),
                "disagreement at depth {} for {}:\n{}",
                depth, p, compare(&den, &op).unwrap());
        }
    }

    /// Every denotation is prefix-closed and contains the empty trace
    /// (the §3.1 well-formedness of the semantic domain).
    #[test]
    fn denotations_are_prefix_closures(p in arb_process()) {
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let sem = Semantics::new(&defs, &uni);
        let t = sem.denote(&p, &Env::new(), 3).expect("denote");
        prop_assert!(t.is_prefix_closed());
        prop_assert!(t.contains(&Trace::empty()));
    }

    /// Deeper exploration only adds traces: `D_d(P) ⊆ D_{d+1}(P)` and
    /// truncation recovers the shallower set.
    #[test]
    fn depth_monotonicity(p in arb_process()) {
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let sem = Semantics::new(&defs, &uni);
        let env = Env::new();
        let d2 = sem.denote(&p, &env, 2).expect("denote");
        let d3 = sem.denote(&p, &env, 3).expect("denote");
        prop_assert!(d2.is_subset(&d3));
        prop_assert_eq!(d3.up_to_depth(2), d2);
    }
}

// ------------------------------------------------- engine equivalence --

/// Closed random networks: two sequential terms in parallel, optionally
/// concealing one channel — the shapes on which the compiled and
/// enumerative engines take genuinely different code paths (product
/// construction and τ-steps).
fn arb_network() -> impl Strategy<Value = Process> {
    (
        arb_process(),
        arb_process(),
        prop_oneof![
            Just(None),
            Just(Some("a")),
            Just(Some("b")),
            Just(Some("c"))
        ],
    )
        .prop_map(|(p, q, hide)| {
            let net = p.par(q);
            match hide {
                Some(c) => net.hide(vec![csp::ChanRef::simple(c)]),
                None => net,
            }
        })
}

proptest! {
    /// The compiled arena reproduces the enumerative engine's trace set
    /// exactly, and both agree with the `NaiveTraceSet` reference
    /// closure — the cross-validation triangle the engine selector
    /// relies on.
    #[test]
    fn compiled_and_enumerative_traces_agree(p in arb_network()) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let depth = 3;
        let budget = depth * 4;
        let start = Config::new(p.clone(), Env::new());

        let enumerative = Lts::new(&defs, &uni)
            .traces_budgeted(&start, depth, budget)
            .expect("enumerative");
        let mut arena = csp::CompiledLts::new(&defs, &uni);
        let s = arena.intern(start);
        let compiled = csp::walk::traces(&mut arena, &s, depth, budget).expect("compiled");
        prop_assert_eq!(&compiled, &enumerative);

        let naive_c = csp::NaiveTraceSet::closure_of(compiled.iter().cloned());
        let naive_e = csp::NaiveTraceSet::closure_of(enumerative.iter().cloned());
        prop_assert_eq!(naive_c, naive_e);
    }

    /// `sat` verdicts agree between engines on random networks and
    /// random `InstanceGen` assertions: same holds/refuted answer, same
    /// number of moments checked, same counterexample.
    #[test]
    fn sat_verdicts_agree_across_engines(p in arb_network(), seed in 0u64..1024) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let assertion = csp::InstanceGen::new(seed).assertion();

        let enum_res = csp::SatChecker::new(&defs, &uni)
            .with_engine(csp::Engine::Enumerative)
            .check(&p, &assertion, 3)
            .expect("enumerative sat");
        let comp_res = csp::SatChecker::new(&defs, &uni)
            .with_engine(csp::Engine::Compiled)
            .check(&p, &assertion, 3)
            .expect("compiled sat");

        prop_assert_eq!(enum_res.holds(), comp_res.holds());
        match (enum_res, comp_res) {
            (
                csp::SatResult::Holds { traces_checked: a, .. },
                csp::SatResult::Holds { traces_checked: b, .. },
            ) => prop_assert_eq!(a, b),
            (
                csp::SatResult::Counterexample { trace: a, .. },
                csp::SatResult::Counterexample { trace: b, .. },
            ) => prop_assert_eq!(a, b),
            _ => unreachable!("holds() equality already checked"),
        }
    }

    /// Refinement by subset construction agrees with the trace-subset
    /// check in both directions, on either relation.
    #[test]
    fn refinement_agrees_with_trace_subset(imp in arb_network(), spec in arb_network()) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let depth = 3;
        let budget = depth * 4;
        let (imp, spec) = (Config::new(imp, Env::new()), Config::new(spec, Env::new()));

        let mut lts = Lts::new(&defs, &uni);
        let imp_ts = lts.traces_budgeted(&imp, depth, budget).expect("impl traces");
        let spec_ts = lts.traces_budgeted(&spec, depth, budget).expect("spec traces");
        let subset = imp_ts.is_subset(&spec_ts);

        let on_the_fly = csp::walk::refines(&mut lts, &imp, &spec, depth, budget).expect("refines");
        let mut arena = csp::CompiledLts::new(&defs, &uni);
        let i = arena.intern(imp);
        let s = arena.intern(spec);
        let memoised = csp::walk::refines(&mut arena, &i, &s, depth, budget).expect("refines");
        prop_assert_eq!(&on_the_fly, &memoised);

        match memoised {
            Ok(()) => prop_assert!(subset, "walk says refines, subset check disagrees"),
            Err(cex) => {
                prop_assert!(!subset, "walk refuted but subset holds: {}", cex);
                prop_assert!(imp_ts.contains(&cex), "counterexample not an impl trace");
                prop_assert!(!spec_ts.contains(&cex), "counterexample admitted by spec");
            }
        }
    }

    /// The deadlock search produces the same report — same witnesses in
    /// the same order, same exploration count — on either relation.
    #[test]
    fn deadlock_reports_agree_across_engines(p in arb_network()) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let start = Config::new(p, Env::new());
        let enum_rep = csp::find_deadlocks(&mut Lts::new(&defs, &uni), start.clone(), 3, 12)
            .expect("enumerative");
        let mut arena = csp::CompiledLts::new(&defs, &uni);
        let s = arena.intern(start);
        let comp_rep = csp::find_deadlocks(&mut arena, s, 3, 12).expect("compiled");
        prop_assert_eq!(enum_rep.deadlock_free(), comp_rep.deadlock_free());
        prop_assert_eq!(format!("{enum_rep:?}"), format!("{comp_rep:?}"));
    }
}
