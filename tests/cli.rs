//! End-to-end tests of the `csp` command-line driver.

use std::io::Write;
use std::process::Command;

fn write_fixture(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create fixture");
    f.write_all(contents.as_bytes()).expect("write fixture");
    path
}

fn csp(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_csp"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

const PIPELINE: &str = "copier = input?x:NAT -> wire!x -> copier
recopier = wire?y:NAT -> output!y -> recopier
pipeline = chan wire; (copier || recopier)
";

#[test]
fn check_holds_and_refutes() {
    let f = write_fixture("pipeline2.csp", PIPELINE);
    let path = f.to_str().unwrap();
    let (stdout, _, code) = csp(&[
        "check",
        path,
        "--process",
        "pipeline",
        "--assert",
        "output <= input",
        "--depth",
        "3",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("holds"));

    let (stdout, _, code) = csp(&[
        "check",
        path,
        "--process",
        "copier",
        "--assert",
        "input <= wire",
        "--depth",
        "3",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("counterexample"));
}

#[test]
fn prove_synthesises_from_the_command_line() {
    let f = write_fixture("pipeline3.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "prove",
        f.to_str().unwrap(),
        "--spec",
        "copier=wire <= input",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("recursion (10)"), "{stdout}");
    assert!(stdout.contains("cons-monotonicity"), "{stdout}");
}

#[test]
fn prove_rejects_false_invariants() {
    let f = write_fixture("pipeline4.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "prove",
        f.to_str().unwrap(),
        "--spec",
        "copier=input <= wire",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("proof failed"));
}

#[test]
fn run_executes_with_seed() {
    let f = write_fixture("pipeline5.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "12",
        "--seed",
        "7",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("12 event(s)"));
    assert!(stdout.contains("input"));
}

#[test]
fn deadlock_finds_jams() {
    let f = write_fixture(
        "jam.csp",
        "left = w!1 -> STOP\nright = w?x:{2} -> STOP\nnet = left || right\n",
    );
    let (stdout, _, code) = csp(&[
        "deadlock",
        f.to_str().unwrap(),
        "--process",
        "net",
        "--depth",
        "3",
        "--nat-bound",
        "3",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("DEADLOCK"));
}

#[test]
fn traces_lists_maximal_behaviours() {
    let f = write_fixture("pipeline6.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "traces",
        f.to_str().unwrap(),
        "--process",
        "copier",
        "--depth",
        "2",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("traces of `copier`"));
}

#[test]
fn named_sets_via_flag() {
    let f = write_fixture(
        "proto.csp",
        "sender = input?y:M -> q[y]
         q[x:M] = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x])
         receiver = wire?z:M -> (wire!ACK -> output!z -> receiver | wire!NACK -> receiver)
         protocol = chan wire; (sender || receiver)\n",
    );
    let (stdout, _, code) = csp(&[
        "check",
        f.to_str().unwrap(),
        "--process",
        "protocol",
        "--assert",
        "output <= input",
        "--depth",
        "3",
        "--set",
        "M=0,1",
        "--nat-bound",
        "0",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("holds"));
}

#[test]
fn usage_errors_exit_2() {
    let (_, stderr, code) = csp(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage"));
    let (_, stderr, code) = csp(&[]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("missing subcommand"));
    let f = write_fixture("pipeline7.csp", PIPELINE);
    let (_, stderr, code) = csp(&["check", f.to_str().unwrap()]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--process"));
}

#[test]
fn lint_clean_file_exits_zero() {
    let f = write_fixture("lint_clean.csp", PIPELINE);
    let (stdout, _, code) = csp(&["lint", f.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("ok (3 definition(s))"), "{stdout}");
}

#[test]
fn lint_errors_exit_one_with_spans() {
    let f = write_fixture("lint_bad.csp", "p = c!0 -> ghost\n");
    let (stdout, _, code) = csp(&["lint", f.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[CSP001] at 1:12"), "{stdout}");
}

#[test]
fn lint_json_reports_codes_per_file_in_envelope() {
    let good = write_fixture("lint_json_good.csp", PIPELINE);
    let bad = write_fixture("lint_json_bad.csp", "p = c!0 -> ghost\n");
    let (stdout, _, code) = csp(&[
        "lint",
        "--json",
        good.to_str().unwrap(),
        bad.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    // One envelope line covering both files.
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    assert!(
        lines[0].starts_with("{\"schema\":\"csp/v1\",\"command\":\"lint\",\"data\":"),
        "{stdout}"
    );
    assert!(lines[0].contains("\"diagnostics\":[]"), "{stdout}");
    assert!(lines[0].contains("\"code\":\"CSP001\""), "{stdout}");
    assert!(lines[0].contains("\"severity\":\"error\""), "{stdout}");
    assert!(lines[0].contains("\"line\":1"), "{stdout}");
}

/// The acceptance criterion for the error-recovering front-end: a syntax
/// error in the first definition must not silence span-exact diagnostics
/// from the definitions after it.
#[test]
fn lint_recovers_past_a_broken_first_definition() {
    let f = write_fixture(
        "lint_recover.csp",
        "broken = c!0 -> ->\np = d!0 -> ghost\nq = e!1 -> q\n",
    );
    let (stdout, _, code) = csp(&["lint", f.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("error [parse]"), "{stdout}");
    assert!(stdout.contains("[CSP001] at 2:12"), "{stdout}");
}

#[test]
fn lint_json_carries_parse_errors_and_csp010_confirmations() {
    let f = write_fixture(
        "lint_recover_json.csp",
        "broken = c!0 -> ->\nnet = a!1 -> STOP || a?x:{2,3} -> STOP\n",
    );
    let (stdout, _, code) = csp(&["lint", "--json", f.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("\"errors\":[{\"message\":"), "{stdout}");
    assert!(stdout.contains("\"code\":\"CSP010\""), "{stdout}");
    assert!(
        stdout.contains("\"confirmation\":\"confirmed\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"witness\":"), "{stdout}");
}

#[test]
fn lint_deny_warnings_flips_exit_code() {
    let f = write_fixture("lint_warn.csp", "p = chan h; d!1 -> STOP\n");
    let path = f.to_str().unwrap();
    let (stdout, _, code) = csp(&["lint", path]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("[CSP007]"), "{stdout}");
    let (stdout, _, code) = csp(&["lint", "--deny", "warnings", path]);
    assert_eq!(code, Some(1), "{stdout}");
}

#[test]
fn lint_checks_assertion_scope() {
    let f = write_fixture("lint_scope.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "lint",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--assert",
        "wire <= input",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[CSP009]"), "{stdout}");
}

#[test]
fn check_json_uses_the_envelope_with_metrics() {
    let f = write_fixture("check_json.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "check",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--assert",
        "output <= input",
        "--depth",
        "3",
        "--nat-bound",
        "1",
        "--json",
        "--metrics",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.starts_with("{\"schema\":\"csp/v1\",\"command\":\"check\",\"data\":"),
        "{stdout}"
    );
    assert!(stdout.contains("\"holds\":true"), "{stdout}");
    assert!(stdout.contains("\"metrics\":{\"counters\""), "{stdout}");
    assert!(stdout.contains("satcheck.moments"), "{stdout}");
}

#[test]
fn run_writes_trace_jsonl() {
    let f = write_fixture("run_trace.csp", PIPELINE);
    let out = std::env::temp_dir().join("hoare-csp-cli-tests/run_events.jsonl");
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "10",
        "--seed",
        "1",
        "--nat-bound",
        "1",
        "--trace-out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let log = std::fs::read_to_string(&out).expect("trace log written");
    assert!(
        log.lines().any(|l| l.contains("\"name\":\"run.round\"")),
        "{log}"
    );
    assert!(log.lines().any(|l| l.contains("\"name\":\"run\"")), "{log}");
    assert!(stderr.contains("span(s)"), "{stderr}");
}

#[test]
fn run_metrics_table_reports_rounds() {
    let f = write_fixture("run_metrics.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "8",
        "--seed",
        "4",
        "--nat-bound",
        "1",
        "--metrics",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("run.scheduler_picks"), "{stdout}");
    assert!(stdout.contains("run.round"), "{stdout}");
}

/// `csp profile` phase names and span taxonomy are deterministic under a
/// single rayon thread — only the timing numbers may differ run to run.
#[test]
fn profile_is_stable_under_one_thread() {
    let f = write_fixture("profile.csp", PIPELINE);
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let folded_a = dir.join("profile_a.folded");
    let folded_b = dir.join("profile_b.folded");
    let run = |folded: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_csp"))
            .args([
                "profile",
                f.to_str().unwrap(),
                "--depth",
                "3",
                "--nat-bound",
                "1",
                "--folded-out",
                folded.to_str().unwrap(),
            ])
            .env("RAYON_NUM_THREADS", "1")
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let stdout_a = run(&folded_a);
    let stdout_b = run(&folded_b);
    for stdout in [&stdout_a, &stdout_b] {
        assert!(stdout.contains("parse"), "{stdout}");
        assert!(stdout.contains("fixpoint"), "{stdout}");
        assert!(stdout.contains("verify"), "{stdout}");
        assert!(stdout.contains("fixpoint.key"), "{stdout}");
        assert!(stdout.contains("folded stacks:"), "{stdout}");
    }
    // The folded stacks differ only in the self-time column.
    let stacks = |p: &std::path::Path| -> Vec<String> {
        std::fs::read_to_string(p)
            .expect("folded file written")
            .lines()
            .map(|l| l.rsplit_once(' ').expect("stack count").0.to_string())
            .collect()
    };
    assert_eq!(stacks(&folded_a), stacks(&folded_b));
    assert!(stacks(&folded_a)
        .iter()
        .any(|s| s.starts_with("fixpoint;fixpoint.iter")));
}

/// `--watch` always emits an initial and a final sample; the final one
/// is taken after the executor stops, so its counters are deterministic
/// under a fixed seed.
#[test]
fn run_watch_streams_status_to_stderr() {
    let f = write_fixture("run_watch.csp", PIPELINE);
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "12",
        "--seed",
        "7",
        "--nat-bound",
        "1",
        "--watch=10",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let watch_lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with("watch:")).collect();
    assert!(watch_lines.len() >= 2, "{stderr}");
    let last = watch_lines.last().unwrap();
    assert!(last.contains("round 12"), "{stderr}");
    assert!(last.contains("picks 12"), "{stderr}");
    assert!(last.contains("components 2/2 live"), "{stderr}");
    assert!(last.contains("events/s"), "{stderr}");
    assert!(last.contains("dropped 0"), "{stderr}");
    // The run's normal report is unaffected.
    assert!(stdout.contains("12 event(s)"), "{stdout}");
}

#[test]
fn run_exports_chrome_trace_and_prometheus() {
    let f = write_fixture("run_export.csp", PIPELINE);
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let chrome = dir.join("run_export_trace.json");
    let prom = dir.join("run_export.prom");
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "10",
        "--seed",
        "1",
        "--nat-bound",
        "1",
        "--chrome-out",
        chrome.to_str().unwrap(),
        "--prom-out",
        prom.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stderr.contains("wrote Chrome trace"), "{stderr}");
    let trace = std::fs::read_to_string(&chrome).expect("chrome trace written");
    assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
    assert!(trace.contains("\"ph\":\"M\""), "{trace}");
    assert!(trace.contains("\"name\":\"run.round\""), "{trace}");
    let exposition = std::fs::read_to_string(&prom).expect("prometheus written");
    assert!(
        exposition.contains("csp_counter{name=\"run.rounds\"} 10"),
        "{exposition}"
    );
    assert!(
        exposition.contains("csp_span_count{name=\"run.round\"} 10"),
        "{exposition}"
    );
    assert!(
        exposition.contains("# TYPE csp_counter counter"),
        "{exposition}"
    );
}

/// `--diff` against a handcrafted baseline shows exact signed deltas:
/// a span and a counter present only in the baseline come out as pure
/// negatives.
#[test]
fn profile_diff_prints_signed_deltas() {
    let f = write_fixture("profile_diff.csp", PIPELINE);
    let baseline = write_fixture(
        "profile_diff_baseline.json",
        "{\"counters\":{\"watch.sentinel\":1000000},\"histograms\":{},\
         \"spans\":{\"made.up\":{\"count\":3,\"total_ns\":5000000000,\"max_ns\":1000}}}",
    );
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let folded = dir.join("profile_diff.folded");
    let (stdout, _, code) = csp(&[
        "profile",
        f.to_str().unwrap(),
        "--depth",
        "3",
        "--nat-bound",
        "1",
        "--folded-out",
        folded.to_str().unwrap(),
        "--diff",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("diff vs"), "{stdout}");
    assert!(stdout.contains("(noise 1.0 ms)"), "{stdout}");
    // The baseline-only span: -3 closures, exactly -5000 ms.
    assert!(stdout.contains("made.up"), "{stdout}");
    assert!(stdout.contains("-3"), "{stdout}");
    assert!(stdout.contains("-5000.000"), "{stdout}");
    assert!(stdout.contains("-100.0%"), "{stdout}");
    // The baseline-only counter comes out negative; real fixpoint spans
    // appear as new time against the empty baseline.
    assert!(stdout.contains("watch.sentinel"), "{stdout}");
    assert!(stdout.contains("-1000000"), "{stdout}");
    assert!(stdout.contains("fixpoint"), "{stdout}");
}

#[test]
fn profile_diff_json_embeds_the_delta() {
    let f = write_fixture("profile_diff_json.csp", PIPELINE);
    let baseline = write_fixture(
        "profile_diff_json_baseline.json",
        "{\"counters\":{},\"histograms\":{},\"spans\":{}}",
    );
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let folded = dir.join("profile_diff_json.folded");
    let (stdout, _, code) = csp(&[
        "profile",
        f.to_str().unwrap(),
        "--depth",
        "3",
        "--nat-bound",
        "1",
        "--folded-out",
        folded.to_str().unwrap(),
        "--diff",
        baseline.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"diff\":{\"baseline\":"), "{stdout}");
    assert!(stdout.contains("\"noise_ms\":1.000"), "{stdout}");
    assert!(stdout.contains("\"table\":"), "{stdout}");
}

/// A `csp profile --json` envelope is itself a valid `--diff` baseline
/// (the metrics are found under `data.metrics`).
#[test]
fn profile_diff_accepts_a_prior_json_envelope() {
    let f = write_fixture("profile_diff_env.csp", PIPELINE);
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let folded = dir.join("profile_diff_env.folded");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "profile",
            f.to_str().unwrap(),
            "--depth",
            "3",
            "--nat-bound",
            "1",
            "--folded-out",
            folded.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        csp(&args)
    };
    let (envelope, _, code) = run(&["--json"]);
    assert_eq!(code, Some(0), "{envelope}");
    let baseline = dir.join("profile_diff_env_baseline.json");
    std::fs::write(&baseline, &envelope).expect("baseline written");
    let (stdout, _, code) = run(&["--diff", baseline.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("diff vs"), "{stdout}");
}

#[test]
fn bench_report_renders_the_history_trajectory() {
    let hist = write_fixture(
        "bench_report_history.jsonl",
        "{\"schema\": \"csp-bench-history/v1\", \"unix_ms\": 1754500000000, \
          \"samples\": 2, \"total_wall_ms\": 120.500, \
          \"benches\": {\"fixpoint.depth4\": 60.000, \"run.steps256\": 60.500}}\n\
         {\"schema\": \"csp-bench-history/v1\", \"unix_ms\": 1754500600000, \
          \"samples\": 2, \"total_wall_ms\": 130.010, \
          \"benches\": {\"fixpoint.depth4\": 62.000, \"run.steps256\": 68.010}}\n",
    );
    let (stdout, _, code) = csp(&["bench", "report", "--history", hist.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("2 run(s)"), "{stdout}");
    assert!(stdout.contains("+7.9%"), "{stdout}");
    assert!(stdout.contains("fixpoint.depth4"), "{stdout}");
    assert!(stdout.contains("60.000 →"), "{stdout}");
    assert!(stdout.contains("+3.3%"), "{stdout}");
    assert!(stdout.contains("+12.4%"), "{stdout}");
}

/// `--engine` pins the backend, and the human-readable verdict names the
/// engine that actually ran — so a log line is enough to tell which
/// semantics produced it.
#[test]
fn check_engine_flag_selects_the_backend() {
    let f = write_fixture("engine_flag.csp", PIPELINE);
    let path = f.to_str().unwrap();
    let base = [
        "check",
        path,
        "--process",
        "pipeline",
        "--assert",
        "output <= input",
        "--depth",
        "3",
        "--nat-bound",
        "1",
    ];
    for engine in ["enumerative", "compiled"] {
        let mut args = base.to_vec();
        args.extend_from_slice(&["--engine", engine]);
        let (stdout, _, code) = csp(&args);
        assert_eq!(code, Some(0), "{stdout}");
        assert!(
            stdout.contains(&format!("(depth 3, engine {engine})")),
            "{stdout}"
        );
    }
}

/// Without `--engine`, `Auto` resolves per query: compiled for the hidden
/// `pipeline` network, enumerative for the sequential `copier` — and the
/// report shows the resolved engine, never the literal `auto`.
#[test]
fn check_auto_engine_resolves_per_process_shape() {
    let f = write_fixture("engine_auto.csp", PIPELINE);
    let path = f.to_str().unwrap();
    let (stdout, _, code) = csp(&[
        "check",
        path,
        "--process",
        "pipeline",
        "--assert",
        "output <= input",
        "--depth",
        "3",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("engine compiled)"), "{stdout}");

    let (stdout, _, code) = csp(&[
        "check",
        path,
        "--process",
        "copier",
        "--assert",
        "wire <= input",
        "--depth",
        "3",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("engine enumerative)"), "{stdout}");
}

#[test]
fn check_rejects_unknown_engines_as_usage_errors() {
    let f = write_fixture("engine_bad.csp", PIPELINE);
    let (_, stderr, code) = csp(&[
        "check",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--assert",
        "output <= input",
        "--engine",
        "quantum",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown engine `quantum`"), "{stderr}");
    assert!(
        stderr.contains("expected `enumerative`, `compiled`, or `auto`"),
        "{stderr}"
    );
}

/// The `csp/v1` check envelope records the engine that ran, so machine
/// consumers can split verdicts per backend.
#[test]
fn check_json_envelope_reports_the_engine() {
    let f = write_fixture("engine_json.csp", PIPELINE);
    let path = f.to_str().unwrap();
    for engine in ["enumerative", "compiled"] {
        let (stdout, _, code) = csp(&[
            "check",
            path,
            "--process",
            "pipeline",
            "--assert",
            "output <= input",
            "--depth",
            "3",
            "--nat-bound",
            "1",
            "--json",
            "--engine",
            engine,
        ]);
        assert_eq!(code, Some(0), "{stdout}");
        assert!(
            stdout.starts_with("{\"schema\":\"csp/v1\",\"command\":\"check\",\"data\":"),
            "{stdout}"
        );
        assert!(stdout.contains("\"holds\":true"), "{stdout}");
        assert!(
            stdout.contains(&format!("\"engine\":\"{engine}\"")),
            "{stdout}"
        );
    }
}

/// `csp prove --json` carries the same `"engine"` member as check; the
/// sequential copier resolves `Auto` to the enumerative engine.
#[test]
fn prove_json_envelope_reports_the_engine() {
    let f = write_fixture("engine_prove.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "prove",
        f.to_str().unwrap(),
        "--spec",
        "copier=wire <= input",
        "--nat-bound",
        "1",
        "--json",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.starts_with("{\"schema\":\"csp/v1\",\"command\":\"prove\",\"data\":"),
        "{stdout}"
    );
    assert!(stdout.contains("\"proved\":true"), "{stdout}");
    assert!(stdout.contains("\"engine\":\"enumerative\""), "{stdout}");
}

/// `bench report --engine E` keeps only benches recorded on that engine
/// (tagged per row) and says so explicitly when nothing matches — rows
/// written before the engine split never match a filter.
#[test]
fn bench_report_filters_benches_per_engine() {
    let hist = write_fixture(
        "bench_report_engines.jsonl",
        "{\"schema\": \"csp-bench-history/v1\", \"unix_ms\": 1754500000000, \
          \"samples\": 2, \"total_wall_ms\": 100.000, \
          \"benches\": {\"lts/pipeline_d8\": 2.000, \"fixpoint.depth4\": 60.000}, \
          \"engines\": {\"lts/pipeline_d8\": \"compiled\", \"fixpoint.depth4\": \"enumerative\"}}\n\
         {\"schema\": \"csp-bench-history/v1\", \"unix_ms\": 1754500600000, \
          \"samples\": 2, \"total_wall_ms\": 90.000, \
          \"benches\": {\"lts/pipeline_d8\": 1.500, \"fixpoint.depth4\": 61.000}, \
          \"engines\": {\"lts/pipeline_d8\": \"compiled\", \"fixpoint.depth4\": \"enumerative\"}}\n",
    );
    let path = hist.to_str().unwrap();
    let (stdout, _, code) = csp(&["bench", "report", "--history", path, "--engine", "compiled"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("per-bench (first → last, engine compiled):"),
        "{stdout}"
    );
    assert!(stdout.contains("lts/pipeline_d8"), "{stdout}");
    assert!(stdout.contains("[compiled]"), "{stdout}");
    assert!(!stdout.contains("fixpoint.depth4"), "{stdout}");

    // A history written before the engine split carries no engines map, so
    // every bench is filtered out.
    let legacy = write_fixture(
        "bench_report_legacy.jsonl",
        "{\"schema\": \"csp-bench-history/v1\", \"unix_ms\": 1754500000000, \
          \"samples\": 2, \"total_wall_ms\": 100.000, \
          \"benches\": {\"fixpoint.depth4\": 60.000}}\n\
         {\"schema\": \"csp-bench-history/v1\", \"unix_ms\": 1754500600000, \
          \"samples\": 2, \"total_wall_ms\": 90.000, \
          \"benches\": {\"fixpoint.depth4\": 61.000}}\n",
    );
    let (stdout, _, code) = csp(&[
        "bench",
        "report",
        "--history",
        legacy.to_str().unwrap(),
        "--engine",
        "compiled",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("no benches recorded on engine compiled"),
        "{stdout}"
    );
}

#[test]
fn bench_report_rejects_unknown_subcommands() {
    let (_, stderr, code) = csp(&["bench", "mystery"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown bench subcommand"), "{stderr}");
}

/// Frames a batch of LSP messages in base-protocol headers.
fn lsp_frames(bodies: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    for b in bodies {
        out.extend_from_slice(format!("Content-Length: {}\r\n\r\n{b}", b.len()).as_bytes());
    }
    out
}

/// Drives `csp lsp` over real stdio through initialize → didOpen →
/// publishDiagnostics → shutdown → exit, on a document carrying both a
/// syntax error and a CSP001. CI runs exactly this test as its LSP gate.
#[test]
fn lsp_round_trip_over_stdio() {
    use std::process::Stdio;
    let text = "broken = c!0 -> ->\\np = d!0 -> ghost";
    let bodies = vec![
        r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#.to_string(),
        r#"{"jsonrpc":"2.0","method":"initialized","params":{}}"#.to_string(),
        format!(
            r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{"uri":"file:///m.csp","languageId":"csp","version":1,"text":"{text}"}}}}}}"#
        ),
        r#"{"jsonrpc":"2.0","id":2,"method":"shutdown","params":null}"#.to_string(),
        r#"{"jsonrpc":"2.0","method":"exit","params":null}"#.to_string(),
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_csp"))
        .arg("lsp")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(&lsp_frames(&bodies))
        .expect("requests written");
    let out = child.wait_with_output().expect("server exits");
    assert!(out.status.success(), "clean exit after shutdown handshake");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"hoverProvider\":true"), "{stdout}");
    assert!(stdout.contains("publishDiagnostics"), "{stdout}");
    assert!(stdout.contains("\"code\":\"parse\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"CSP001\""), "{stdout}");
}

/// Off-TTY, `--watch` must degrade to plain one-line-per-sample output:
/// no `\r` repaints, no ANSI erase sequences. This is what keeps piped
/// CI logs readable.
#[test]
fn run_watch_piped_stderr_has_no_ansi_repaints() {
    let f = write_fixture("run_watch_plain.csp", PIPELINE);
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "12",
        "--seed",
        "7",
        "--nat-bound",
        "1",
        "--watch=10",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(
        !stderr.contains('\u{1b}'),
        "ANSI escape in piped stderr: {stderr:?}"
    );
    assert!(
        !stderr.contains('\r'),
        "carriage return in piped stderr: {stderr:?}"
    );
    assert!(
        stderr.lines().filter(|l| l.starts_with("watch:")).count() >= 2,
        "{stderr}"
    );
}

/// Boots the real `csp serve` binary on an OS-assigned port, parses the
/// machine-readable listening line off stdout, and round-trips a
/// cold/warm lint pair plus a Prometheus scrape through it.
#[test]
fn serve_binary_round_trip() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_csp"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut line)
        .expect("listening line");
    // "csp serve: listening on http://HOST:PORT (workers 2, cache-cap 1024)"
    assert!(
        line.starts_with("csp serve: listening on http://"),
        "{line}"
    );
    assert!(line.contains("workers 2"), "{line}");
    let url = line
        .split_whitespace()
        .find(|w| w.starts_with("http://"))
        .expect("url in listening line")
        .to_string();

    let result = std::panic::catch_unwind(move || {
        let mut client = csp::serve::Client::connect(&url).expect("connect");
        let health = client.get("/healthz").expect("healthz");
        assert_eq!(health.status, 200, "{}", health.body);
        let body = format!("{{\"source\":\"{}\"}}", PIPELINE.replace('\n', "\\n"));
        let cold = client.post("/v1/lint", &body).expect("cold lint");
        assert_eq!(cold.status, 200, "{}", cold.body);
        assert_eq!(cold.header("X-Csp-Cache"), Some("miss"), "{}", cold.body);
        assert!(
            cold.body.contains("\"command\":\"serve.lint\""),
            "{}",
            cold.body
        );
        let warm = client.post("/v1/lint", &body).expect("warm lint");
        assert_eq!(warm.header("X-Csp-Cache"), Some("hit"));
        assert_eq!(cold.body, warm.body);
        let metrics = client.get("/metrics").expect("metrics");
        assert!(
            metrics
                .body
                .contains("csp_counter{name=\"serve.cache.hit\"} 1"),
            "{}",
            metrics.body
        );
    });
    child.kill().expect("server killed");
    let _ = child.wait();
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
}

#[test]
fn profile_json_envelope_reports_phases() {
    let f = write_fixture("profile_json.csp", PIPELINE);
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let folded = dir.join("profile_json.folded");
    let (stdout, _, code) = csp(&[
        "profile",
        f.to_str().unwrap(),
        "--depth",
        "3",
        "--nat-bound",
        "1",
        "--folded-out",
        folded.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.starts_with("{\"schema\":\"csp/v1\",\"command\":\"profile\",\"data\":"),
        "{stdout}"
    );
    assert!(stdout.contains("\"name\":\"parse\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"fixpoint\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"verify\""), "{stdout}");
    assert!(stdout.contains("\"alloc_bytes\":"), "{stdout}");
    assert!(stdout.contains("\"metrics\":{\"counters\""), "{stdout}");
    assert!(folded.exists());
}

#[test]
fn run_monitor_msc_and_json_envelope() {
    let f = write_fixture("run_monitor.csp", PIPELINE);
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let msc = dir.join("run_monitor.mmd");
    let causal = dir.join("run_monitor.jsonl");
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "16",
        "--seed",
        "7",
        "--nat-bound",
        "1",
        "--monitor=output <= input",
        "--fault-plan",
        "crash:copier@6;restart:replay",
        "--msc-out",
        msc.to_str().unwrap(),
        "--causal-out",
        causal.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    // The envelope carries the supervision summary and monitor verdict.
    assert!(
        stdout.contains("\"schema\":\"csp/v1\",\"command\":\"run\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"supervision\":{\"deaths\":1,\"recovered\":1,"),
        "{stdout}"
    );
    assert!(stdout.contains("\"verdict\":\"conforming\""), "{stdout}");
    assert!(stdout.contains("\"violation\":null"), "{stdout}");
    // The exports landed: a Mermaid chart and a JSONL log with header.
    let mmd = std::fs::read_to_string(&msc).unwrap();
    assert!(mmd.starts_with("sequenceDiagram"), "{mmd}");
    assert!(mmd.contains("participant P0 as copier"), "{mmd}");
    let log = std::fs::read_to_string(&causal).unwrap();
    assert!(log
        .lines()
        .next()
        .unwrap()
        .contains("\"labels\":[\"copier\",\"recopier\"]"));
    assert!(log.contains("\"kind\":\"comm\""), "{log}");
    assert!(stderr.contains("wrote MSC"), "{stderr}");
}

#[test]
fn run_monitor_violation_exits_one_and_names_the_event() {
    let f = write_fixture("run_violation.csp", PIPELINE);
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "16",
        "--seed",
        "7",
        "--monitor=#output <= 1",
    ]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("monitor: violated"), "{stdout}");
    assert!(stdout.contains("falsified"), "{stdout}");
}

#[test]
fn run_watch_reports_busiest_channel() {
    let f = write_fixture("run_watch_chan.csp", PIPELINE);
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "12",
        "--seed",
        "7",
        "--nat-bound",
        "1",
        "--watch=10",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let last = stderr.lines().rfind(|l| l.starts_with("watch:")).unwrap();
    // The final sample derives throughput from the per-channel
    // counters; the hidden wire carries a third of all events.
    assert!(last.contains("busiest "), "{stderr}");
    assert!(last.contains("(4 ev)"), "{stderr}");
}
