//! `perfbench` — the repository's seeded, answer-checked benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload prove-paper|check-networks|serve-edit-mix \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop driving the public API from this one
//! process; every operation's verdict is checked against a known answer.
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` traces every second pass (or round), with benchmark-side
//! timers around every call into a layer, and reports the per-layer
//! metrics; its spans go to `perfbench/out/`. The last line of standard
//! output is the result as one JSON object. See `README.md`.

mod harness;
mod netgen;
mod networks;
mod prove;
mod rng;
mod serve;
mod stats;
mod tracer;

use std::collections::BTreeMap;
use std::time::Instant;

use harness::{Op, Reference};
use stats::{median, percentile, ratio};
use tracer::Tracer;

/// The rayon-shim width every workload runs at: one thread is the
/// steadiest setting on a small machine, and the work of a run then
/// does not depend on the core count.
const RAYON_WIDTH: &str = "1";
/// Callers and server workers of `serve-edit-mix`. Every `/v1/run`
/// executes its network on one OS thread per component plus the
/// coordinator; with two callers, two such runs compete for a two-core
/// machine, and their latency then measures the scheduler (1.6 ms alone,
/// 8–11 ms side by side, the workload's rate swinging 3× between runs).
/// One caller keeps at most one run's threads live.
const SERVE_WIDTH: usize = 1;
/// A run sets up at least `SETUPS` times over at least `SETUP_SECONDS`,
/// half before its timed loop and half after it; `setup_s` is the
/// median. A cheap set-up (tens of ms) is then timed tens of times, in
/// two stretches half a minute apart, so neither a stall of one set-up
/// nor a slow stretch of the machine moves the median far.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 6.0;

/// Runs `set_up` until it has run `count` times and `seconds` have
/// passed, adding each duration to `setups`, and returns what the last
/// one made; `discard` takes what the others made.
fn time_set_ups<T>(
    setups: &mut Vec<f64>,
    count: usize,
    seconds: f64,
    mut set_up: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<T, String> {
    let start = Instant::now();
    let mut n = 0;
    loop {
        let t0 = Instant::now();
        let made = set_up()?;
        setups.push(t0.elapsed().as_secs_f64());
        n += 1;
        if n >= count && start.elapsed().as_secs_f64() >= seconds {
            return Ok(made);
        }
        discard(made);
    }
}

/// Set-ups before the timed loop and after it.
fn set_ups_before<T>(
    setups: &mut Vec<f64>,
    set_up: impl FnMut() -> Result<T, String>,
    discard: impl FnMut(T),
) -> Result<T, String> {
    time_set_ups(
        setups,
        SETUPS.div_ceil(2),
        SETUP_SECONDS / 2.0,
        set_up,
        discard,
    )
}

fn set_ups_after<T>(
    setups: &mut Vec<f64>,
    set_up: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(), String> {
    let last = time_set_ups(
        setups,
        SETUPS / 2,
        SETUP_SECONDS / 2.0,
        set_up,
        &mut discard,
    )?;
    discard(last);
    Ok(())
}

const WORKLOADS: [&str; 3] = ["prove-paper", "check-networks", "serve-edit-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Metric name → value; units come from [`END_TO_END`] and
/// [`per_layer_names`].
type Metrics = BTreeMap<String, f64>;

struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Metrics,
    tracer: Option<Tracer>,
}

/// The process's peak resident set, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The checkout's git revision, read from `.git` (no process is
/// started); `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..l.find(' ').unwrap_or(l.len())].to_string())
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// The end-to-end metrics of an untraced run, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end metrics from the set-up times, the latency samples
/// and the counts of attempted and failed operations. One caller waits
/// for every verdict before it sends the next request, so its rate is
/// the inverse of the mean latency: `verdicts_per_s` is the share of
/// correct verdicts over the mean of the samples, the time a pass (a
/// round) takes when each operation takes its median time. The wall
/// time of whole passes moved twice as much from run to run as any
/// operation's median did (every pass absorbs the machine's stalls),
/// and a rate over it followed the machine rather than the program.
fn end_to_end(
    setups: &[f64],
    latencies: &[f64],
    attempted: u64,
    failed: u64,
) -> Result<Metrics, String> {
    let mean_s = latencies.iter().sum::<f64>() / latencies.len() as f64 / 1e3;
    let verdicts_per_s = ratio((attempted - failed) as f64, attempted as f64) / mean_s;
    Ok(Metrics::from([
        ("setup_s".to_string(), median(setups)),
        ("verdict_p50_ms".to_string(), median(latencies)),
        ("verdict_p90_ms".to_string(), percentile(latencies, 90.0)?),
        ("verdicts_per_s".to_string(), verdicts_per_s),
        ("peak_rss_mb".to_string(), peak_rss_mb()?),
    ]))
}

/// Busy time per call of each traced layer function, self time per
/// operation of each layer, and the worst span coverage of any
/// operation kind.
fn layer_times(m: &mut Metrics, tr: &Tracer, ops: u64) {
    let busy = tr.busy();
    for span in [
        "proof.check",
        "proof.synth",
        "analysis.lint",
        "semantics.compiled",
        "semantics.fixpoint",
        "verify.sat",
        "verify.deadlock",
        "verify.refines",
        "runtime.run",
        "lang.parse",
    ] {
        let (calls, ns) = busy.get(span).copied().unwrap_or_default();
        m.insert(format!("{span}_ms"), ratio(ns as f64, calls as f64) / 1e6);
    }
    let selfs = tr.self_ns();
    for layer in LAYERS {
        let ns = selfs.get(layer).copied().unwrap_or_default();
        m.insert(
            format!("{layer}.self_ms"),
            ratio(ns as f64, ops as f64) / 1e6,
        );
    }
    let coverage = tr.coverage();
    eprintln!("span coverage per operation kind: {coverage:?}");
    let worst = coverage.values().copied().reduce(f64::min).unwrap_or(0.0);
    m.insert("obs.span_coverage".to_string(), worst);
}

/// Layers with benchmark-side spans (self time is reported for each).
const LAYERS: [&str; 8] = [
    "lang",
    "analysis",
    "assertion",
    "proof",
    "semantics",
    "verify",
    "runtime",
    "serve",
];

/// Every per-layer metric with its unit, so each traced run reports the
/// same set: a layer a workload does not reach reads 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let counts = [
        "assertion.bounded_cases",
        "proof.discharge.bounded",
        "proof.discharge.syntactic",
        "proof.obligations",
        "proof.rules",
        "semantics.states_interned",
        "semantics.transitions",
        "semantics.fixpoint_iterations",
        "trace.parallel_out_traces",
        "trace.union_out_traces",
        "verify.traces_checked",
        "verify.refutations",
        "runtime.steps",
        "runtime.restarts",
        "runtime.monitor_events",
        "analysis.relinted_defs",
        "analysis.cached_defs",
    ];
    let ratios = [
        "semantics.fixpoint_memo_hit_ratio",
        "trace.intern_hit_ratio",
        "serve.hit_ratio",
        "obs.span_coverage",
    ];
    let times = [
        "proof.check_ms",
        "proof.synth_ms",
        "analysis.lint_ms",
        "semantics.compiled_ms",
        "semantics.fixpoint_ms",
        "verify.sat_ms",
        "verify.deadlock_ms",
        "verify.refines_ms",
        "runtime.run_ms",
        "lang.parse_ms",
        "serve.handler_hit_ms_p50",
        "serve.handler_miss_ms_p50",
        "serve.wait_ms_p99",
        "serve.verdict_p99_ms",
    ];
    let named = |names: &[&str], unit| {
        names
            .iter()
            .map(move |n| (n.to_string(), unit))
            .collect::<Vec<_>>()
    };
    let mut v = named(&counts, "count");
    v.extend(named(&ratios, "ratio"));
    v.extend(named(&times, "ms"));
    v.extend(LAYERS.iter().map(|l| (format!("{l}.self_ms"), "ms")));
    v.push(("obs.tracing_overhead_pct".to_string(), "%"));
    v
}

fn pass_workload(
    args: &Args,
    build: impl Fn(u64) -> Result<Vec<Box<dyn Op>>, String>,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let set_up = || {
        let ops = build(args.seed)?;
        let mut reference = Reference::new(ops.len());
        harness::warm_up(&ops, &mut reference)?;
        Ok((ops, reference))
    };
    let (ops, mut reference) = set_ups_before(&mut setups, set_up, drop)?;
    let p = harness::run_passes(&ops, &mut reference, args.seed, args.seconds, args.trace);
    set_ups_after(&mut setups, set_up, drop)?;
    let m = if !args.trace {
        end_to_end(&setups, &p.latencies(), p.attempted, p.failed)?
    } else {
        let counts = reference.per_pass();
        let c = |k: &str| counts.get(k).copied().unwrap_or_default() as f64;
        let mut m: Metrics = counts
            .iter()
            .map(|(k, v)| (k.to_string(), *v as f64))
            .collect();
        let hits = c("semantics.fixpoint_memo_hits");
        m.insert(
            "semantics.fixpoint_memo_hit_ratio".to_string(),
            ratio(hits, hits + c("semantics.fixpoint_memo_misses")),
        );
        let hits = c("trace.intern_hits");
        m.insert(
            "trace.intern_hit_ratio".to_string(),
            ratio(hits, hits + c("trace.intern_misses")),
        );
        m.insert(
            "obs.tracing_overhead_pct".to_string(),
            p.tracing_overhead_pct(),
        );
        // Every second pass is traced.
        layer_times(&mut m, &p.tracer, (p.passes / 2) * ops.len() as u64);
        m
    };
    Ok(Outcome {
        attempted: p.attempted,
        failed: p.failed,
        failures: p.failures,
        metrics: m,
        tracer: args.trace.then_some(p.tracer),
    })
}

fn serve_workload(args: &Args, width: usize) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let set_up = || serve::spawn(width, args.seed);
    let mut fleet = set_ups_before(&mut setups, set_up, serve::Fleet::stop)?;
    let before = fleet.handle.state().metrics();
    let t0 = Instant::now();
    let runs = serve::drive(&mut fleet, args.seconds, args.trace, t0);
    let after = fleet.handle.state().metrics();
    fleet.stop();
    set_ups_after(&mut setups, set_up, serve::Fleet::stop)?;
    let mut all = serve::ClientRun::new(Tracer::new(false, t0), args.trace);
    for r in runs {
        all.absorb(r);
    }
    let m = if !args.trace {
        end_to_end(&setups, &all.latencies(), all.attempted, all.failed)?
    } else {
        let d = |k: &str| after.counter(k).saturating_sub(before.counter(k)) as f64;
        let per_round = |n: f64| n / all.rounds as f64;
        eprintln!(
            "serve.pool_reuse_ratio (not exact: the pool evicts in hash order): {}",
            ratio(
                d("serve.pool.reuses"),
                d("serve.pool.reuses") + d("serve.pool.builds")
            )
        );
        let mut m = Metrics::from([
            (
                "serve.hit_ratio".to_string(),
                ratio(
                    d("serve.cache.hit"),
                    d("serve.cache.hit") + d("serve.cache.miss"),
                ),
            ),
            (
                "analysis.relinted_defs".to_string(),
                per_round(d("serve.lint.relinted")),
            ),
            (
                "analysis.cached_defs".to_string(),
                per_round(d("serve.lint.cached_defs")),
            ),
            ("runtime.steps".to_string(), per_round(all.run_steps as f64)),
            (
                "runtime.restarts".to_string(),
                per_round(all.run_restarts as f64),
            ),
            (
                "obs.tracing_overhead_pct".to_string(),
                (median(&all.traced_ms) / median(all.plain_ms.values()) - 1.0) * 100.0,
            ),
        ]);
        layer_times(&mut m, &all.tracer, all.traced_ms.len() as u64);
        m.extend([
            (
                "runtime.run_ms".to_string(),
                ratio(all.run_ms.iter().sum(), all.run_ms.len() as f64),
            ),
            ("serve.handler_hit_ms_p50".to_string(), median(&all.hit_ms)),
            (
                "serve.handler_miss_ms_p50".to_string(),
                median(&all.miss_ms),
            ),
            (
                "serve.wait_ms_p99".to_string(),
                percentile(&all.wait_ms, 99.0)?,
            ),
            (
                "serve.verdict_p99_ms".to_string(),
                percentile(all.plain_ms.values(), 99.0)?,
            ),
        ]);
        m
    };
    Ok(Outcome {
        attempted: all.attempted,
        failed: all.failed,
        failures: all.failures,
        metrics: m,
        tracer: args.trace.then_some(all.tracer),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the process to the lowest CPU it may run on, before it starts
/// any thread, so that every thread inherits the pin, and returns that
/// CPU. Every workload is one caller that waits for each reply, and
/// rayon runs one thread, so the program's work is serial either way.
/// Unpinned, a hand-off to a thread on the other core of the two-core
/// development VM (the serve worker, a `/v1/run` component) waited for
/// the host to run that core again: `serve-edit-mix` hits took 0.040 ms
/// in some stretches of the machine and 0.055–0.072 ms in others, and
/// 0.038–0.042 ms pinned in both.
fn pin_to_one_cpu() -> Result<u32, String> {
    // The size of the C library's `cpu_set_t`: 1024 CPUs.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write `size` bytes of `mask`.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .ok_or("sched_getaffinity: no CPU allowed")?;
    let cpu = word as u32 * 64 + bits.trailing_zeros();
    let mut one = [0u64; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // The rayon shim reads the variable at every parallel call.
    std::env::set_var("RAYON_NUM_THREADS", RAYON_WIDTH);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = pin_to_one_cpu()?;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let env = format!(
        "{{\"workload\":{:?},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"rayon_num_threads\":{RAYON_WIDTH},\"serve_workers\":{SERVE_WIDTH},\"serve_clients\":{SERVE_WIDTH},\
         \"pinned_cpu\":{cpu},\"git_revision\":{:?},\"profile\":{profile:?}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
    );
    let outcome = match args.workload.as_str() {
        "prove-paper" => pass_workload(&args, prove::ops)?,
        "check-networks" => pass_workload(&args, |seed| {
            Ok(networks::ops(seed)
                .into_iter()
                .map(|o| Box::new(o) as Box<dyn Op>)
                .collect())
        })?,
        _ => serve_workload(&args, SERVE_WIDTH)?,
    };
    let listed: Vec<(String, &str)> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    if let Some(tr) = &outcome.tracer {
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        writeln!(f, "{env}")
            .and_then(|()| tr.write_jsonl(&mut f))
            .and_then(|()| f.flush())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    let body: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{name:?}:{{\"value\":{},\"unit\":{unit:?}}}",
                json_number(v)
            )
        })
        .collect();
    println!("{{\"perfbench\":{env}}}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(",")
    );
    Ok(())
}

use std::io::Write;

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units `BENCHMARK.json` lists, in order.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = csp_core::obs::parse_json(&text).expect("BENCHMARK.json parses");
        let entries = json
            .get(section)
            .and_then(|v| v.as_array())
            .expect("a metric list");
        entries
            .iter()
            .map(|e| {
                let field = |k| {
                    e.get(k)
                        .and_then(|v| v.as_str())
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn the_rate_is_the_correct_share_over_the_mean_latency() {
        let latencies: Vec<f64> = (0..200).map(|i| if i < 100 { 1.0 } else { 3.0 }).collect();
        let m = end_to_end(&[0.5], &latencies, 200, 2).unwrap();
        assert_eq!(m["verdicts_per_s"], 0.99 / 0.002);
        assert_eq!(m["verdict_p50_ms"], 2.0);
        assert_eq!(m["verdict_p90_ms"], 3.0);
    }

    #[test]
    fn reported_metrics_are_the_ones_benchmark_json_lists() {
        let ours: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), ours);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
    }
}
