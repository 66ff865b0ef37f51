//! The closed loop shared by the pass-based workloads: one caller runs
//! every operation of a pass, in a seed-shuffled order, waiting for each
//! verdict before sending the next, until the run's time is up. Only
//! whole passes run, so every run sees the same mix of operations.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::rng::Rng;
use crate::stats::median;
use crate::tracer::Tracer;

/// Exact work counts of one operation (traces checked, states interned,
/// rules applied, …). They must repeat exactly every time the operation
/// runs; a change is a wrong answer, not a speed-up.
pub type Counts = BTreeMap<&'static str, u64>;

/// One operation with a known answer.
pub trait Op {
    /// The operation kind (`sat`, `script`, …); names the `op.<kind>` span.
    fn kind(&self) -> &'static str;
    /// A one-line description, unique within a workload.
    fn label(&self) -> String;
    /// Runs the operation and checks its verdict against the known
    /// answer: `Err` on a wrong verdict or an error, else the counts.
    fn run(&self, tr: &mut Tracer) -> Result<Counts, String>;
}

/// What a stretch of passes measured.
#[derive(Debug)]
pub struct Passes {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub passes: u64,
    /// Every untraced and every traced latency of each operation, by its
    /// index in the list.
    pub per_op_ms: Vec<Vec<f64>>,
    pub per_op_traced_ms: Vec<Vec<f64>>,
    pub tracer: Tracer,
}

/// Untraced repeats of every operation a run makes before it stops.
pub const MIN_REPEATS: usize = 10;

impl Passes {
    fn new(tracer: Tracer) -> Self {
        Passes {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            passes: 0,
            per_op_ms: Vec::new(),
            per_op_traced_ms: Vec::new(),
            tracer,
        }
    }

    /// Every untraced latency sample of the run replaced by the median
    /// of its operation's repeats. A pass is a few dozen operations of
    /// very different costs, so a percentile of the raw samples can fall
    /// on the edge between two operations and then reads one slow or
    /// fast repeat; the median repeat of each operation does not.
    pub fn latencies(&self) -> Vec<f64> {
        self.per_op_ms
            .iter()
            .flat_map(|v| std::iter::repeat_n(median(v), v.len()))
            .collect()
    }

    /// How much slower the traced passes ran, in percent: the summed
    /// median latency of every operation, traced against untraced.
    pub fn tracing_overhead_pct(&self) -> f64 {
        let sum = |per_op: &[Vec<f64>]| per_op.iter().map(|v| median(v)).sum::<f64>();
        (sum(&self.per_op_traced_ms) / sum(&self.per_op_ms) - 1.0) * 100.0
    }
}

/// Each operation's counts from its first run (the set-up pass); later
/// runs are compared with them.
pub struct Reference(Vec<Option<Counts>>);

impl Reference {
    pub fn new(n: usize) -> Self {
        Reference(vec![None; n])
    }

    /// Counts of one whole pass, summed over its operations.
    pub fn per_pass(&self) -> Counts {
        let mut sum = Counts::new();
        for c in self.0.iter().flatten() {
            for (k, v) in c {
                *sum.entry(k).or_default() += v;
            }
        }
        sum
    }
}

/// Runs one operation, timing it and checking its answer and counts.
fn run_one(op: &dyn Op, i: usize, slot: &mut Option<Counts>, out: &mut Passes) {
    let t0 = Instant::now();
    let root = out.tracer.open(&format!("op.{}", op.kind()));
    let result = op.run(&mut out.tracer);
    out.tracer.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let per_op = if out.tracer.is_on() {
        &mut out.per_op_traced_ms
    } else {
        &mut out.per_op_ms
    };
    if per_op.len() <= i {
        per_op.resize(i + 1, Vec::new());
    }
    per_op[i].push(ms);
    out.attempted += 1;
    let verdict = result.and_then(|counts| match slot {
        None => {
            *slot = Some(counts);
            Ok(())
        }
        Some(first) if *first == counts => Ok(()),
        Some(first) => Err(format!("work counts {counts:?} differ from {first:?}")),
    });
    if let Err(why) = verdict {
        out.failed += 1;
        if out.failures.len() < 8 {
            out.failures.push(format!("{}: {why}", op.label()));
        }
    }
}

/// Runs whole passes over `ops` until `seconds` have elapsed and every
/// operation has run [`MIN_REPEATS`] times untraced. Pass `k` visits the
/// operations in the order seeded by `(seed, k)`. With `traced`, every
/// second pass is traced, so that traced and untraced passes share the
/// machine's state alike.
pub fn run_passes(
    ops: &[Box<dyn Op>],
    reference: &mut Reference,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Passes {
    let start = Instant::now();
    let mut out = Passes::new(Tracer::new(false, start));
    loop {
        let on = traced && out.passes % 2 == 1;
        out.tracer.set_on(on);
        let mut order: Vec<usize> = (0..ops.len()).collect();
        Rng::stream(seed, 1_000 + out.passes).shuffle(&mut order);
        for i in order {
            run_one(ops[i].as_ref(), i, &mut reference.0[i], &mut out);
        }
        out.passes += 1;
        let untraced = if traced {
            out.passes.div_ceil(2)
        } else {
            out.passes
        };
        if start.elapsed().as_secs_f64() >= seconds && untraced >= MIN_REPEATS as u64 {
            break;
        }
    }
    out
}

/// Runs every operation once in list order: the set-up pass that lets
/// lazy state (the event interner) settle and records the reference
/// counts.
pub fn warm_up(ops: &[Box<dyn Op>], reference: &mut Reference) -> Result<(), String> {
    let mut out = Passes::new(Tracer::new(false, Instant::now()));
    for (i, op) in ops.iter().enumerate() {
        run_one(op.as_ref(), i, &mut reference.0[i], &mut out);
    }
    match out.failures.first() {
        None => Ok(()),
        Some(f) => Err(format!("set-up pass failed: {f}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Checks 10 traces the first time and 9 afterwards: a doctored
    /// engine that is faster because it does less.
    struct Doctored(Cell<u64>);

    impl Op for Doctored {
        fn kind(&self) -> &'static str {
            "sat"
        }

        fn label(&self) -> String {
            "doctored".to_string()
        }

        fn run(&self, _: &mut Tracer) -> Result<Counts, String> {
            let n = if self.0.get() == 0 { 10 } else { 9 };
            self.0.set(self.0.get() + 1);
            Ok(Counts::from([("verify.traces_checked", n)]))
        }
    }

    #[test]
    fn changed_work_counts_are_failures() {
        let ops: Vec<Box<dyn Op>> = vec![Box::new(Doctored(Cell::new(0)))];
        let mut reference = Reference::new(1);
        assert!(warm_up(&ops, &mut reference).is_ok());
        let p = run_passes(&ops, &mut reference, 1, 0.0, false);
        assert_eq!(p.attempted, MIN_REPEATS as u64);
        assert_eq!(p.failed, p.attempted, "{:?}", p.failures);
        assert_eq!(reference.per_pass()["verify.traces_checked"], 10);
    }
}
