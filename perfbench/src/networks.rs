//! `check-networks`: one caller sends a seeded stream of `Session`
//! queries, each building its `Workbench` from source as a CLI call does.
//! The time is in `semantics`, `trace` and `verify`; no bounded `decide`
//! runs.

use csp_core::prelude::*;
use csp_core::{CompiledLts, OpStats, SatResult};

use crate::harness::{Counts, Op};
use crate::netgen::Network;
use crate::rng::Rng;
use crate::tracer::Tracer;

/// How an operation builds its workbench (the `csp_bench` fixtures
/// where one exists).
#[derive(Debug, Clone)]
pub enum Build {
    Pipeline,
    Protocol,
    Multiplier(usize),
    /// The whole of `paper.csp` (for `table`).
    Paper,
    /// A module over the universe `NAT ↾ {0, 1}`.
    Source(String),
}

impl Build {
    fn build(&self) -> Result<Workbench, String> {
        Ok(match self {
            Build::Pipeline => csp_bench::pipeline_workbench(),
            Build::Protocol => csp_bench::protocol_workbench(),
            Build::Multiplier(w) => csp_bench::multiplier_workbench(*w),
            Build::Paper => crate::prove::paper_workbench()?,
            Build::Source(src) => {
                let mut wb = Workbench::new().with_universe(Universe::new(1));
                wb.define_source(src).map_err(|e| e.to_string())?;
                wb
            }
        })
    }
}

#[derive(Debug, Clone)]
pub enum Query {
    Sat {
        process: String,
        assertion: String,
        depth: usize,
        engine: Engine,
    },
    /// Compiled trace enumeration (`CompiledLts`), counting the states
    /// it interns.
    Explore { process: String, depth: usize },
    Deadlocks {
        process: &'static str,
        depth: usize,
        engine: Engine,
    },
    Refines {
        implementation: &'static str,
        specification: &'static str,
        depth: usize,
        engine: Engine,
    },
    /// §3.3's fixpoint construction over every definition.
    Fixpoint { depth: usize },
    /// A monitored run under a fault plan.
    Run {
        process: &'static str,
        steps: usize,
        seed: u64,
        faults: String,
        monitor: &'static str,
    },
}

/// The known answer. Trace counts are sizes of the §3 trace sets, which
/// both engines and the denotational model agree on; counterexample
/// lengths and witnesses follow from the networks' structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    Holds {
        traces: u64,
    },
    /// Refuted, by a shortest counterexample of `len` events; when
    /// `count` is `Some((c, n))` it must hold more than `n` events on `c`.
    Refuted {
        len: usize,
        count: Option<(&'static str, usize)>,
    },
    /// Refuted by one of these traces (a generated network's
    /// counterexamples, enumerated by the benchmark).
    RefutedBy(std::collections::BTreeSet<String>),
    Traces(u64),
    /// Deadlocks after exactly these two events, in either order.
    Deadlock([&'static str; 2]),
    DeadlockFree,
    Refines,
    NotRefines {
        len: usize,
    },
    Converged {
        at: usize,
        key: &'static str,
        traces: u64,
    },
    /// The monitor accepts the run, and on its visible trace the values
    /// sent on the first channel are a prefix of those on the second.
    Conforming {
        prefix: (&'static str, &'static str),
    },
    /// The monitor reports a violation (the flipped answer of the tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Violates,
}

#[derive(Debug, Clone)]
pub struct NetOp {
    pub build: Build,
    pub query: Query,
    pub expect: Expect,
}

fn kind(q: &Query) -> &'static str {
    match q {
        Query::Sat { .. } => "sat",
        Query::Explore { .. } => "explore",
        Query::Deadlocks { .. } => "deadlock",
        Query::Refines { .. } => "refines",
        Query::Fixpoint { .. } => "fixpoint",
        Query::Run { .. } => "run",
    }
}

/// The values sent on `chan` along `trace`, in order.
fn values_on(trace: &Trace, chan: &str) -> Vec<String> {
    trace
        .iter()
        .filter(|e| e.channel().to_string() == chan)
        .map(|e| e.value().to_string())
        .collect()
}

impl NetOp {
    fn answer(&self, wb: &Workbench, tr: &mut Tracer, counts: &mut Counts) -> Result<(), String> {
        let err = |e: WorkbenchError| e.to_string();
        match (&self.query, &self.expect) {
            (
                Query::Sat {
                    process,
                    assertion,
                    depth,
                    engine,
                },
                expect,
            ) => {
                let g = tr.open("verify.sat");
                let (collector, at) = tr.collector();
                let verdict = wb.session_with(collector.clone()).check_sat(
                    process,
                    assertion,
                    SatOptions::from(*depth).with_engine(*engine),
                );
                tr.import(
                    &collector,
                    at,
                    &[
                        ("satcheck.explore", "semantics.explore"),
                        ("satcheck.verdicts", "assertion.eval"),
                    ],
                );
                tr.close(g);
                match (verdict.map_err(err)?, expect) {
                    (SatResult::Holds { traces_checked, .. }, Expect::Holds { traces })
                        if traces_checked as u64 == *traces =>
                    {
                        counts.insert("verify.traces_checked", *traces);
                        Ok(())
                    }
                    (SatResult::Counterexample { trace, .. }, Expect::Refuted { len, count })
                        if trace.len() == *len
                            && count.is_none_or(|(c, n)| values_on(&trace, c).len() > n) =>
                    {
                        counts.insert("verify.refutations", 1);
                        Ok(())
                    }
                    (SatResult::Counterexample { trace, .. }, Expect::RefutedBy(among))
                        if among.contains(&trace.to_string()) =>
                    {
                        counts.insert("verify.refutations", 1);
                        Ok(())
                    }
                    (SatResult::Holds { traces_checked, .. }, _) => {
                        Err(format!("holds on {traces_checked} traces"))
                    }
                    (SatResult::Counterexample { trace, .. }, _) => {
                        Err(format!("counterexample {trace}"))
                    }
                }
            }
            (Query::Explore { process, depth }, Expect::Traces(n)) => {
                let g = tr.open("semantics.compiled");
                let mut lts = CompiledLts::new(wb.definitions(), wb.universe());
                let start = lts.start(process, wb.env());
                // The trace set is dropped inside the span: freeing it is
                // the layer's work too.
                let traces = lts.traces(start, *depth).map(|t| t.len() as u64);
                let (states, transitions) = (lts.num_states(), lts.num_transitions());
                drop(lts);
                tr.close(g);
                let traces = traces.map_err(|e| e.to_string())?;
                counts.insert("semantics.states_interned", states as u64);
                counts.insert("semantics.transitions", transitions as u64);
                if traces == *n {
                    Ok(())
                } else {
                    Err(format!("{traces} traces"))
                }
            }
            (
                Query::Deadlocks {
                    process,
                    depth,
                    engine,
                },
                expect,
            ) => {
                let g = tr.open("verify.deadlock");
                let report = wb.deadlocks(process, SatOptions::from(*depth).with_engine(*engine));
                tr.close(g);
                let report = report.map_err(err)?;
                let stuck: Vec<&Trace> = report
                    .deadlocks
                    .iter()
                    .filter(|d| !d.terminated)
                    .map(|d| &d.trace)
                    .collect();
                match (stuck.first(), expect) {
                    (None, Expect::DeadlockFree) => Ok(()),
                    (Some(t), Expect::Deadlock(events)) => {
                        let mut seen: Vec<String> = t.iter().map(ToString::to_string).collect();
                        let mut want: Vec<String> = events.iter().map(|e| e.to_string()).collect();
                        seen.sort();
                        want.sort();
                        if seen == want {
                            counts.insert("verify.refutations", 1);
                            Ok(())
                        } else {
                            Err(format!("deadlock witness {t}"))
                        }
                    }
                    (Some(t), _) => Err(format!("deadlocks after {t}")),
                    (None, _) => Err("no deadlock found".to_string()),
                }
            }
            (
                Query::Refines {
                    implementation,
                    specification,
                    depth,
                    engine,
                },
                expect,
            ) => {
                let g = tr.open("verify.refines");
                let verdict = wb
                    .refines(
                        implementation,
                        specification,
                        SatOptions::from(*depth).with_engine(*engine),
                    )
                    .map_err(err);
                tr.close(g);
                match (verdict?, expect) {
                    (Ok(()), Expect::Refines) => Ok(()),
                    (Err(t), Expect::NotRefines { len }) if t.len() == *len => {
                        counts.insert("verify.refutations", 1);
                        Ok(())
                    }
                    (Ok(()), _) => Err("refines".to_string()),
                    (Err(t), _) => Err(format!("refinement counterexample {t}")),
                }
            }
            (Query::Fixpoint { depth }, Expect::Converged { at, key, traces }) => {
                let g = tr.open("semantics.fixpoint");
                let (collector, _) = tr.collector();
                let run = wb.session_with(collector).fixpoint(*depth, 32);
                tr.close(g);
                let run = run.map_err(err)?;
                for (ours, theirs) in [
                    ("semantics.fixpoint_iterations", "fixpoint.iterations"),
                    ("semantics.fixpoint_memo_hits", "fixpoint.memo_hits"),
                    ("semantics.fixpoint_memo_misses", "fixpoint.memo_misses"),
                ] {
                    counts.insert(ours, run.metrics.counter(theirs));
                }
                let got = run
                    .limit()
                    .get(&(key.to_string(), Vec::new()))
                    .map(|t| t.len() as u64);
                if run.converged_at == Some(*at) && got == Some(*traces) {
                    Ok(())
                } else {
                    Err(format!(
                        "converged at {:?} with {got:?} traces of {key}",
                        run.converged_at
                    ))
                }
            }
            (
                Query::Run {
                    process,
                    steps,
                    seed,
                    faults,
                    monitor,
                },
                expect @ (Expect::Conforming { .. } | Expect::Violates),
            ) => {
                let spec = wb.monitor_spec([*monitor]).map_err(err)?;
                let faults = FaultPlan::parse(faults).map_err(|e| e.to_string())?;
                let g = tr.open("runtime.run");
                let (collector, _) = tr.collector();
                let result = wb.session_with(collector).run(
                    process,
                    RunOptions {
                        max_steps: *steps,
                        scheduler: Scheduler::seeded(*seed),
                        faults,
                        monitor: Some(spec),
                        ..RunOptions::default()
                    },
                );
                tr.close(g);
                let result = result.map_err(err)?;
                let monitor = result.monitor.as_ref().ok_or("no monitor report")?;
                counts.insert("runtime.steps", result.steps as u64);
                counts.insert("runtime.restarts", result.recoveries() as u64);
                counts.insert("runtime.monitor_events", monitor.events_checked as u64);
                let conforms = match expect {
                    Expect::Conforming { prefix: (out, inp) } => {
                        let sent = values_on(&result.visible, inp);
                        monitor.is_conforming()
                            && sent.starts_with(&values_on(&result.visible, out))
                    }
                    _ => !monitor.is_conforming(),
                };
                if conforms {
                    Ok(())
                } else {
                    Err(format!("monitor {} on {}", monitor.verdict, result.visible))
                }
            }
            (q, e) => Err(format!("no known answer of the form {e:?} for {q:?}")),
        }
    }
}

impl Op for NetOp {
    fn kind(&self) -> &'static str {
        kind(&self.query)
    }

    fn label(&self) -> String {
        format!("{:?} on {:?}", self.query, self.build)
    }

    fn run(&self, tr: &mut Tracer) -> Result<Counts, String> {
        let before = OpStats::snapshot();
        let g = tr.open("lang.parse");
        let wb = self.build.build();
        tr.close(g);
        let mut counts = Counts::new();
        self.answer(&wb?, tr, &mut counts)?;
        let ops = OpStats::snapshot().delta(&before);
        counts.insert("trace.parallel_out_traces", ops.parallel_out_traces);
        counts.insert("trace.union_out_traces", ops.union_out_traces);
        counts.insert("trace.intern_hits", ops.intern_hits);
        counts.insert("trace.intern_misses", ops.intern_misses);
        Ok(counts)
    }
}

/// `spec` is a one-place buffer: the two-place pipeline is not a
/// refinement of it, but it refines the pipeline.
fn with_spec() -> String {
    format!(
        "{}spec = input?x:NAT -> output!x -> spec\n",
        csp_core::examples::PIPELINE_SRC
    )
}

fn sat(
    build: Build,
    process: &str,
    assertion: &str,
    depth: usize,
    engine: Engine,
    expect: Expect,
) -> NetOp {
    NetOp {
        build,
        query: Query::Sat {
            process: process.to_string(),
            assertion: assertion.to_string(),
            depth,
            engine,
        },
        expect,
    }
}

/// The seeded operation list of one pass. The paper networks, depths
/// and engines are the same for every seed, so every seed has the same
/// mix and nearly the same cost; the seed draws the fault plans, the
/// scheduler seeds and the generated networks.
pub fn ops(seed: u64) -> Vec<NetOp> {
    use Engine::{Compiled, Enumerative};
    let mut rng = Rng::stream(seed, 2);
    let holds = |traces| Expect::Holds { traces };
    let buffer2 = || Build::Source(csp_core::examples::BUFFER2_SRC.to_string());
    let mut ops = vec![
        sat(
            Build::Pipeline,
            "pipeline",
            "output <= input",
            5,
            Enumerative,
            holds(73),
        ),
        sat(
            Build::Pipeline,
            "pipeline",
            "output <= input",
            5,
            Compiled,
            holds(73),
        ),
        // The first input is a counterexample on its own.
        sat(
            Build::Pipeline,
            "pipeline",
            "input <= output",
            4,
            Enumerative,
            Expect::Refuted {
                len: 1,
                count: Some(("input", 0)),
            },
        ),
        sat(
            Build::Protocol,
            "protocol",
            "output <= input",
            4,
            Enumerative,
            holds(41),
        ),
        sat(
            Build::Protocol,
            "protocol",
            "output <= input",
            5,
            Compiled,
            holds(73),
        ),
    ];
    for (w, d, engine, traces) in [
        (2, 4, Enumerative, 181),
        (3, 3, Enumerative, 95),
        (3, 4, Compiled, 463),
    ] {
        ops.push(sat(
            Build::Multiplier(w),
            "multiplier",
            &csp_bench::multiplier_invariant(w),
            d,
            engine,
            holds(traces),
        ));
    }
    // Two inputs fit in the two cells before any output.
    ops.push(sat(
        buffer2(),
        "buffer2",
        "#in <= #out + 1",
        4,
        Compiled,
        Expect::Refuted {
            len: 2,
            count: Some(("in", 1)),
        },
    ));
    ops.push(sat(
        buffer2(),
        "buffer2",
        "#in <= #out + 2",
        5,
        Enumerative,
        holds(73),
    ));
    ops.push(NetOp {
        build: Build::Multiplier(4),
        query: Query::Explore {
            process: "multiplier".to_string(),
            depth: 4,
        },
        expect: Expect::Traces(1001),
    });
    ops.push(NetOp {
        build: Build::Pipeline,
        query: Query::Explore {
            process: "pipeline".to_string(),
            depth: 8,
        },
        expect: Expect::Traces(681),
    });
    // Each philosopher holding its first fork.
    for engine in [Enumerative, Compiled] {
        ops.push(NetOp {
            build: Build::Paper,
            query: Query::Deadlocks {
                process: "table",
                depth: 6,
                engine,
            },
            expect: Expect::Deadlock(["grab[0][0].1", "grab[1][1].1"]),
        });
    }
    ops.push(NetOp {
        build: Build::Pipeline,
        query: Query::Deadlocks {
            process: "pipeline",
            depth: 6,
            engine: Compiled,
        },
        expect: Expect::DeadlockFree,
    });
    ops.push(NetOp {
        build: Build::Source(with_spec()),
        query: Query::Refines {
            implementation: "pipeline",
            specification: "spec",
            depth: 6,
            engine: Enumerative,
        },
        expect: Expect::NotRefines { len: 2 },
    });
    ops.push(NetOp {
        build: Build::Source(with_spec()),
        query: Query::Refines {
            implementation: "spec",
            specification: "pipeline",
            depth: 6,
            engine: Compiled,
        },
        expect: Expect::Refines,
    });
    ops.push(NetOp {
        build: Build::Pipeline,
        query: Query::Fixpoint { depth: 4 },
        expect: Expect::Converged {
            at: 7,
            key: "pipeline",
            traces: 41,
        },
    });
    ops.push(NetOp {
        build: Build::Protocol,
        query: Query::Fixpoint { depth: 3 },
        expect: Expect::Converged {
            at: 7,
            key: "protocol",
            traces: 17,
        },
    });
    // A crashed stage restarted by replaying its history conforms: a
    // process's state is a function of its history (§3).
    for (build, process, victim, monitor, prefix) in [
        (
            Build::Pipeline,
            "pipeline",
            "copier",
            "output <= input",
            ("output", "input"),
        ),
        (
            Build::Protocol,
            "protocol",
            "receiver",
            "output <= input",
            ("output", "input"),
        ),
        (buffer2(), "buffer2", "cell1", "out <= in", ("out", "in")),
    ] {
        let at = rng.range(4, 16);
        ops.push(NetOp {
            build,
            query: Query::Run {
                process,
                steps: 64,
                seed: rng.next_u64() % 1_000,
                faults: format!("crash:{victim}@{at};restart:replay"),
                monitor,
            },
            expect: Expect::Conforming { prefix },
        });
    }
    for _ in 0..3 {
        let net = Network::generate(&mut rng);
        let build = Build::Source(net.source.clone());
        ops.push(sat(
            build.clone(),
            "gen",
            &format!("#{} <= {}", net.chan, net.max),
            net.depth,
            Compiled,
            holds(net.traces),
        ));
        ops.push(sat(
            build.clone(),
            "gen",
            &format!("#{} <= {}", net.chan, net.max - 1),
            net.depth,
            Enumerative,
            Expect::RefutedBy(net.violations.clone()),
        ));
        ops.push(NetOp {
            build,
            query: Query::Explore {
                process: "gen".to_string(),
                depth: net.depth,
            },
            expect: Expect::Traces(net.traces),
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn labels(seed: u64) -> Vec<String> {
        ops(seed).iter().map(Op::label).collect()
    }

    #[test]
    fn same_seed_same_ops_and_every_seed_the_same_mix() {
        assert_eq!(labels(3), labels(3));
        assert_ne!(labels(3), labels(4));
        let kinds = |seed| {
            let mut k: Vec<&str> = ops(seed).iter().map(|o| kind(&o.query)).collect();
            k.sort_unstable();
            k
        };
        for seed in 0..10 {
            assert_eq!(kinds(seed), kinds(0));
        }
    }

    /// A wrong known answer of the same shape as the right one.
    fn flipped(e: &Expect) -> Expect {
        match e {
            Expect::Holds { traces } => Expect::Holds { traces: traces - 1 },
            Expect::Refuted { len, count } => Expect::Refuted {
                len: len + 1,
                count: *count,
            },
            Expect::RefutedBy(_) => Expect::Holds { traces: 1 },
            Expect::Traces(n) => Expect::Traces(n - 1),
            Expect::Deadlock(_) => Expect::DeadlockFree,
            Expect::DeadlockFree => Expect::Deadlock(["a.0", "b.0"]),
            Expect::Refines => Expect::NotRefines { len: 1 },
            Expect::NotRefines { len } => Expect::NotRefines { len: len + 1 },
            Expect::Converged { at, key, traces } => Expect::Converged {
                at: *at,
                key,
                traces: traces - 1,
            },
            Expect::Conforming { .. } => Expect::Violates,
            Expect::Violates => Expect::Conforming {
                prefix: ("output", "input"),
            },
        }
    }

    #[test]
    fn every_op_meets_its_answer_and_a_flipped_answer_fails() {
        let mut tr = Tracer::new(false, Instant::now());
        for seed in [1, 2] {
            for mut op in ops(seed) {
                assert!(op.run(&mut tr).is_ok(), "{}", op.label());
                op.expect = flipped(&op.expect);
                assert!(op.run(&mut tr).is_err(), "flipped: {}", op.label());
            }
        }
    }

    #[test]
    fn the_other_engine_agrees_on_every_known_trace_count() {
        let mut tr = Tracer::new(false, Instant::now());
        for mut op in ops(1) {
            if let (Query::Sat { engine, .. }, Expect::Holds { .. }) = (&mut op.query, &op.expect) {
                *engine = match engine {
                    Engine::Compiled => Engine::Enumerative,
                    _ => Engine::Compiled,
                };
                assert!(op.run(&mut tr).is_ok(), "{}", op.label());
            }
        }
    }

    #[test]
    fn generated_networks_agree_with_the_benchmarks_own_enumeration() {
        let mut tr = Tracer::new(false, Instant::now());
        for seed in 10..40 {
            for op in ops(seed)
                .iter()
                .filter(|o| matches!(&o.build, Build::Source(s) if s.starts_with("p =")))
            {
                assert!(op.run(&mut tr).is_ok(), "seed {seed}: {}", op.label());
            }
        }
    }
}
