//! `serve-edit-mix`: `clients` callers, each on one keep-alive loopback
//! connection, talk to an in-process `csp serve` with as many workers.
//! Each caller owns three modules. A round of its schedule edits one
//! definition of every module (lint, check and prove of the new text:
//! misses that reach the pooled `AnalysisDb` and a pooled `Workbench`),
//! re-requests unchanged modules (hits) and runs every module under a
//! monitor (`/v1/run`, which bypasses the cache). The schedule predicts
//! the `X-Csp-Cache` header of every response.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use csp_core::obs::{json_string, parse_json, JsonValue};
use csp_serve::{Client, CspServer, ServeConfig, ServerHandle};

use crate::harness::MIN_REPEATS;
use crate::rng::Rng;
use crate::stats::{median, Reservoir};
use crate::tracer::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    Lint,
    Check,
    Prove,
    Run,
}

impl Endpoint {
    fn path(self) -> &'static str {
        match self {
            Endpoint::Lint => "/v1/lint",
            Endpoint::Check => "/v1/check",
            Endpoint::Prove => "/v1/prove",
            Endpoint::Run => "/v1/run",
        }
    }
}

/// The three module shapes every caller owns one of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    Pipeline,
    Protocol,
    Buffer,
}

const SHAPES: [Shape; 3] = [Shape::Pipeline, Shape::Protocol, Shape::Buffer];

/// The traffic mix is an assumed editor profile, not a measured one: no
/// record of real traffic to `csp serve` exists. An editor with three
/// modules open re-validates the unchanged ones whenever another is
/// saved, on focus changes and on CI re-runs; the profile takes that to
/// be four re-requests of every (module, lint|check|prove) pair per edit
/// of the module, plus one monitored run of each module per edit. A
/// round is then 36 hits, 9 misses and 3 bypasses per caller: a hit
/// ratio of 4/5. Another mix moves `verdict_p50_ms`, `verdict_p90_ms` and
/// `verdicts_per_s`; `serve.hit_ratio` reports the ratio in force.
const READS_PER_PAIR: usize = 4;

/// One caller's module: its shape and how often it was edited. An edit
/// renames the bound variable of the module's first definition, which
/// changes the text and no verdict. The same definition is edited every
/// time so that every edit relints the same definitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Module {
    client: usize,
    shape: Shape,
    version: u32,
}

impl Module {
    fn source(&self) -> String {
        let c = self.client;
        let x = format!("x{c}v{}", self.version);
        let y = format!("y{c}");
        match self.shape {
            Shape::Pipeline => format!(
                "copier = input?{x}:NAT -> wire!{x} -> copier\n\
                 recopier = wire?{y}:NAT -> output!{y} -> recopier\n\
                 pipeline = chan wire; (copier || recopier)\n"
            ),
            Shape::Protocol => format!(
                "sender = input?{x}:M -> q[{x}]\n\
                 q[x:M] = wire!x -> (wire?y:{{ACK}} -> sender | wire?y:{{NACK}} -> q[x])\n\
                 receiver = wire?{y}:M -> (wire!ACK -> output!{y} -> receiver | wire!NACK -> receiver)\n\
                 protocol = chan wire; (sender || receiver)\n"
            ),
            Shape::Buffer => format!(
                "cell0 = in?{x}:NAT -> link!{x} -> cell0\n\
                 cell1 = link?{y}:NAT -> out!{y} -> cell1\n\
                 buffer2 = chan link; (cell0 || cell1)\n"
            ),
        }
    }

    /// The request body; `seed` and `fault_at` matter to `/v1/run` only.
    fn body(&self, endpoint: Endpoint, seed: u64, fault_at: i64) -> String {
        let (network, universe, assertion, spec, victim) = match self.shape {
            Shape::Pipeline => (
                "pipeline",
                "\"nat_bound\":1",
                "output <= input",
                ("copier", "wire <= input"),
                "copier",
            ),
            Shape::Protocol => (
                "protocol",
                "\"nat_bound\":0,\"sets\":{\"M\":[0,1]}",
                "output <= input",
                ("receiver", "output <= f(wire)"),
                "receiver",
            ),
            Shape::Buffer => (
                "buffer2",
                "\"nat_bound\":1",
                "out <= in",
                ("cell0", "link <= in"),
                "cell1",
            ),
        };
        let head = format!(
            "{{\"module\":\"c{}-{network}\",\"source\":{},{universe}",
            self.client,
            json_string(&self.source())
        );
        match endpoint {
            Endpoint::Lint => format!("{head}}}"),
            Endpoint::Check => format!(
                "{head},\"process\":\"{network}\",\"assertion\":{},\"depth\":4}}",
                json_string(if self.shape == Shape::Buffer {
                    "#in <= #out + 2"
                } else {
                    assertion
                })
            ),
            Endpoint::Prove => format!(
                "{head},\"specs\":[{{\"process\":\"{}\",\"assertion\":{}}}]}}",
                spec.0,
                json_string(spec.1)
            ),
            Endpoint::Run => format!(
                "{head},\"process\":\"{network}\",\"steps\":32,\"seed\":{seed},\
                 \"fault_plan\":\"crash:{victim}@{fault_at};restart:replay\",\
                 \"monitor\":{}}}",
                json_string(assertion)
            ),
        }
    }
}

/// The known answer: every module is clean, every check holds on the 41
/// traces of depth 4 (each network is a two-place buffer, §1.3), every
/// spec is the paper's invariant of its process, and a replayed crash
/// leaves a run the monitor accepts.
pub fn check_body(endpoint: Endpoint, body: &str) -> Result<(), String> {
    let need: &[&str] = match endpoint {
        Endpoint::Lint => &["\"errors\":[]", "\"diagnostics\":[]"],
        Endpoint::Check => &["\"holds\":true", "\"traces_checked\":41"],
        Endpoint::Prove => &["\"proved\":true"],
        Endpoint::Run => &["\"conforming\":true"],
    };
    match need.iter().find(|n| !body.contains(**n)) {
        None => Ok(()),
        Some(n) => Err(format!("{} response lacks {n}: {body}", endpoint.path())),
    }
}

/// One request of the schedule and the cache outcome it must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Index of the module in the caller's list.
    pub module: usize,
    pub endpoint: Endpoint,
    pub body: String,
    pub cache: &'static str,
}

/// One caller's seeded schedule, a round at a time.
pub struct Schedule {
    rng: Rng,
    modules: Vec<Module>,
    /// Per module, the scheduler seed and crash step of its runs: fixed,
    /// so that every run of a module does the same work.
    runs: Vec<(u64, i64)>,
    seen: HashSet<(Module, Endpoint)>,
}

impl Schedule {
    pub fn new(seed: u64, client: usize) -> Self {
        let mut rng = Rng::stream(seed, 100 + client as u64);
        let runs = SHAPES
            .iter()
            .map(|_| (rng.next_u64() % 1_000, rng.range(4, 12)))
            .collect();
        Schedule {
            rng,
            modules: SHAPES
                .iter()
                .map(|&shape| Module {
                    client,
                    shape,
                    version: 0,
                })
                .collect(),
            runs,
            seen: HashSet::new(),
        }
    }

    fn request(&mut self, m: usize, endpoint: Endpoint) -> Request {
        let mut module = self.modules[m];
        let (seed, at) = self.runs[m];
        if endpoint == Endpoint::Run {
            // Runs execute the module as first written: the executor's
            // interleaving depends on the text, and a fixed text keeps
            // every run of a module the same work.
            module.version = 0;
        }
        let cache = match endpoint {
            Endpoint::Run => "bypass",
            _ if self.seen.insert((module, endpoint)) => "miss",
            _ => "hit",
        };
        Request {
            module: m,
            endpoint,
            body: module.body(endpoint, seed, at),
            cache,
        }
    }

    /// The set-up requests: lint, check and prove of every module as
    /// first written (all misses).
    pub fn warm_up(&mut self) -> Vec<Request> {
        let mut out = Vec::new();
        for m in 0..self.modules.len() {
            for e in [Endpoint::Lint, Endpoint::Check, Endpoint::Prove] {
                out.push(self.request(m, e));
            }
        }
        out
    }

    /// The next round: per module one edit (lint, check, prove of the
    /// new text) and one run, plus `READS_PER_PAIR` re-requests of every
    /// (module, lint|check|prove) pair, in a seeded order.
    pub fn round(&mut self) -> Vec<Request> {
        #[derive(Clone, Copy)]
        enum Item {
            Edit(usize),
            Run(usize),
            Read(usize, Endpoint),
        }
        let mut items = Vec::new();
        for m in 0..self.modules.len() {
            items.push(Item::Edit(m));
            items.push(Item::Run(m));
            for e in [Endpoint::Lint, Endpoint::Check, Endpoint::Prove] {
                items.extend(std::iter::repeat_n(Item::Read(m, e), READS_PER_PAIR));
            }
        }
        self.rng.shuffle(&mut items);
        let mut out = Vec::new();
        for item in items {
            match item {
                Item::Edit(m) => {
                    self.modules[m].version += 1;
                    for e in [Endpoint::Lint, Endpoint::Check, Endpoint::Prove] {
                        out.push(self.request(m, e));
                    }
                }
                Item::Run(m) => out.push(self.request(m, Endpoint::Run)),
                Item::Read(m, e) => out.push(self.request(m, e)),
            }
        }
        out
    }
}

/// A request kind: module, endpoint and cache outcome. Every round sends
/// each kind the same number of times.
type Kind = (usize, Endpoint, &'static str);

/// What one caller measured.
#[derive(Debug)]
pub struct ClientRun {
    /// Latencies of the untraced rounds, a fixed-size uniform sample.
    pub plain_ms: Reservoir,
    /// The same latencies by request kind, a fixed-size uniform sample
    /// of each.
    pub kind_ms: BTreeMap<Kind, Reservoir>,
    /// Latencies of the traced rounds.
    pub traced_ms: Vec<f64>,
    /// Server-side time (`X-Csp-Ms`) of hits and of misses, client
    /// latency minus server time (queueing and socket time), and server
    /// time of `/v1/run` requests; kept only when `detail` is set.
    pub detail: bool,
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    pub wait_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub rounds: u64,
    pub run_steps: u64,
    pub run_restarts: u64,
    pub tracer: Tracer,
}

/// Latency samples each caller keeps, in all and of each request kind.
const KEPT_SAMPLES: usize = 1 << 14;
const KEPT_PER_KIND: usize = 1 << 9;

/// The steps and restarts of each module's `/v1/run`, by module index,
/// from its first run: the executor's interleaving may vary, but every
/// run of a module must take its steps and recover from its crash.
pub type RunWork = BTreeMap<usize, (u64, u64)>;

/// A run response's steps and restarts; an error when either is missing.
fn run_work(body: &str) -> Result<(u64, u64), String> {
    let json = parse_json(body).map_err(|e| format!("/v1/run body: {e}"))?;
    let data = json.get("data");
    let number = |v: Option<&JsonValue>, what: &str| {
        v.and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("/v1/run body lacks {what}: {body}"))
    };
    Ok((
        number(data.and_then(|d| d.get("steps")), "steps")?,
        number(
            data.and_then(|d| d.get("supervision"))
                .and_then(|s| s.get("recovered")),
            "supervision.recovered",
        )?,
    ))
}

/// Sends one request and checks status, verdict and cache outcome.
pub fn exchange(client: &mut Client, req: &Request, work: &mut RunWork, out: &mut ClientRun) {
    let t0 = Instant::now();
    let g = out
        .tracer
        .open(&format!("op.{}", &req.endpoint.path()[4..]));
    let resp = client.post(req.endpoint.path(), &req.body);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let server_ms = resp
        .as_ref()
        .ok()
        .and_then(|r| r.header("X-Csp-Ms"))
        .and_then(|v| v.parse::<f64>().ok());
    if let (Some(s), true) = (server_ms, out.tracer.is_on()) {
        // The handler's time, placed at the end of the exchange; the
        // rest is queueing and socket time.
        let end = out.tracer.now_ns();
        let start = out.tracer.open_start_ns();
        let handler = end.saturating_sub((s * 1e6) as u64).max(start);
        out.tracer.push_child("serve.wait", start, handler);
        out.tracer.push_child("serve.handler", handler, end);
    }
    if out.tracer.is_on() {
        out.traced_ms.push(ms);
    } else {
        out.plain_ms.push(ms);
        out.kind_ms
            .entry((req.module, req.endpoint, req.cache))
            .or_insert_with(|| Reservoir::new(KEPT_PER_KIND))
            .push(ms);
    }
    out.tracer.close(g);
    out.attempted += 1;
    let verdict = resp.map_err(|e| e.to_string()).and_then(|r| {
        let cache = r.header("X-Csp-Cache").unwrap_or("none");
        if r.status != 200 {
            return Err(format!("status {}: {}", r.status, r.body));
        }
        if cache != req.cache {
            return Err(format!(
                "X-Csp-Cache {cache}, the schedule says {}",
                req.cache
            ));
        }
        check_body(req.endpoint, &r.body)?;
        if req.endpoint == Endpoint::Run {
            let (steps, restarts) = run_work(&r.body)?;
            let first = *work.entry(req.module).or_insert((steps, restarts));
            if first != (steps, restarts) {
                return Err(format!(
                    "/v1/run took {steps} steps and {restarts} restarts, its first run {first:?}"
                ));
            }
            out.run_steps += steps;
            out.run_restarts += restarts;
        }
        Ok(req.cache)
    });
    match (verdict, server_ms) {
        (Ok(_), Some(_)) if !out.detail => {}
        (Ok(cache), Some(s)) => {
            out.wait_ms.push((ms - s).max(0.0));
            match cache {
                "hit" => out.hit_ms.push(s),
                "miss" => out.miss_ms.push(s),
                _ => out.run_ms.push(s),
            }
        }
        (Ok(_), None) => {
            out.failed += 1;
            out.failures.push("no X-Csp-Ms header".to_string());
        }
        (Err(why), _) => {
            out.failed += 1;
            if out.failures.len() < 8 {
                out.failures.push(why);
            }
        }
    }
}

/// A running server and its connected callers with their schedules.
pub struct Fleet {
    pub handle: ServerHandle,
    pub clients: Vec<(Client, Schedule, RunWork)>,
}

impl Fleet {
    /// Closes the callers' connections, then stops the server and joins
    /// its threads.
    pub fn stop(self) {
        drop(self.clients);
        self.handle.stop();
    }
}

/// Spawns a server with `width` workers, connects `width` callers and
/// sends every caller's warm-up requests and first round.
pub fn spawn(width: usize, seed: u64) -> Result<Fleet, String> {
    // The deployed cache size. It holds every caller's live requests
    // many times over (each is re-requested every round), so eviction
    // takes only edited-away versions and every re-request hits.
    let server = CspServer::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: width,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut fleet = Fleet {
        handle,
        clients: Vec::new(),
    };
    for c in 0..width {
        let client = Client::connect(&fleet.handle.url()).map_err(|e| format!("connect: {e}"))?;
        fleet
            .clients
            .push((client, Schedule::new(seed, c), RunWork::new()));
    }
    for (client, schedule, work) in &mut fleet.clients {
        let mut run = ClientRun::new(Tracer::new(false, Instant::now()), false);
        let mut warm = schedule.warm_up();
        warm.extend(schedule.round());
        for req in warm {
            exchange(client, &req, work, &mut run);
        }
        if let Some(f) = run.failures.first() {
            return Err(format!("set-up request failed: {f}"));
        }
    }
    Ok(fleet)
}

impl ClientRun {
    pub fn new(tracer: Tracer, detail: bool) -> Self {
        ClientRun {
            plain_ms: Reservoir::new(KEPT_SAMPLES),
            kind_ms: BTreeMap::new(),
            traced_ms: Vec::new(),
            detail,
            hit_ms: Vec::new(),
            miss_ms: Vec::new(),
            wait_ms: Vec::new(),
            run_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            rounds: 0,
            run_steps: 0,
            run_restarts: 0,
            tracer,
        }
    }
}

impl ClientRun {
    /// Every untraced latency sample replaced by the median of its
    /// request kind. A round mixes hits of a few hundredths of a
    /// millisecond with misses and runs up to a few hundred times slower, so a
    /// percentile of the raw samples can fall on the edge between two
    /// kinds and then reads single slow or fast requests; the median of
    /// a kind does not.
    pub fn latencies(&self) -> Vec<f64> {
        self.kind_ms
            .values()
            .flat_map(|r| std::iter::repeat_n(median(r.values()), r.seen() as usize))
            .collect()
    }

    /// Adds another caller's measurements to these.
    pub fn absorb(&mut self, r: ClientRun) {
        self.plain_ms.absorb(r.plain_ms);
        for (kind, samples) in r.kind_ms {
            match self.kind_ms.entry(kind) {
                Entry::Vacant(e) => {
                    e.insert(samples);
                }
                Entry::Occupied(mut e) => e.get_mut().absorb(samples),
            }
        }

        self.traced_ms.extend(r.traced_ms);
        self.hit_ms.extend(r.hit_ms);
        self.miss_ms.extend(r.miss_ms);
        self.wait_ms.extend(r.wait_ms);
        self.run_ms.extend(r.run_ms);
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.failures.extend(r.failures);
        self.rounds += r.rounds;
        self.run_steps += r.run_steps;
        self.run_restarts += r.run_restarts;
        self.tracer.absorb(r.tracer);
    }
}

/// Every caller runs whole rounds until `seconds` have passed. With
/// `traced`, every second round is traced.
pub fn drive(fleet: &mut Fleet, seconds: f64, traced: bool, epoch: Instant) -> Vec<ClientRun> {
    std::thread::scope(|s| {
        let workers: Vec<_> = fleet
            .clients
            .iter_mut()
            .map(|(client, schedule, work)| {
                s.spawn(move || {
                    let mut out = ClientRun::new(Tracer::new(false, epoch), traced);
                    let start = Instant::now();
                    // Every request kind occurs once a round; percentiles
                    // need MIN_REPEATS untraced rounds of each.
                    let enough = |rounds: u64| {
                        let untraced = if traced { rounds.div_ceil(2) } else { rounds };
                        untraced >= MIN_REPEATS as u64
                    };
                    while start.elapsed().as_secs_f64() < seconds || !enough(out.rounds) {
                        let on = traced && out.rounds % 2 == 1;
                        out.tracer.set_on(on);
                        for req in schedule.round() {
                            exchange(client, &req, work, &mut out);
                        }
                        out.rounds += 1;
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes(rounds: &[Vec<Request>]) -> (usize, usize, usize) {
        let n = |c| rounds.iter().flatten().filter(|r| r.cache == c).count();
        (n("hit"), n("miss"), n("bypass"))
    }

    #[test]
    fn same_seed_same_schedule_and_every_seed_the_same_hit_ratio() {
        let take = |seed, client| {
            let mut s = Schedule::new(seed, client);
            let mut rounds = vec![s.warm_up()];
            rounds.extend((0..5).map(|_| s.round()));
            rounds
        };
        assert_eq!(take(3, 0), take(3, 0));
        assert_ne!(take(3, 0), take(4, 0));
        // The assumed profile: per module and round, one edit (a lint,
        // check and prove miss), READS_PER_PAIR re-requests of each of
        // the three, and one run.
        let modules = SHAPES.len();
        let per_round = (modules * 3 * READS_PER_PAIR, modules * 3, modules);
        assert_eq!(per_round, (36, 9, 3));
        for seed in 0..10 {
            let rounds = take(seed, 1);
            assert_eq!(outcomes(&rounds[..1]), (0, 9, 0));
            let (h, m, b) = outcomes(&rounds[1..]);
            assert_eq!(
                (h, m, b),
                (5 * per_round.0, 5 * per_round.1, 5 * per_round.2)
            );
            assert_eq!(h as f64 / (h + m) as f64, 0.8);
        }
    }

    #[test]
    fn each_latency_sample_is_the_median_of_its_request_kind() {
        let mut run = ClientRun::new(Tracer::new(false, Instant::now()), false);
        for (kind, ms) in [
            ((0, Endpoint::Lint, "hit"), [0.1, 0.5, 0.2]),
            ((0, Endpoint::Run, "bypass"), [2.0, 9.0, 3.0]),
        ] {
            let r = run
                .kind_ms
                .entry(kind)
                .or_insert_with(|| Reservoir::new(KEPT_PER_KIND));
            ms.into_iter().for_each(|v| r.push(v));
        }
        assert_eq!(run.latencies(), [0.2, 0.2, 0.2, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn wrong_verdicts_and_cache_outcomes_count_as_failures() {
        let mut fleet = spawn(1, 5).unwrap();
        let (client, schedule, work) = &mut fleet.clients[0];
        let mut out = ClientRun::new(Tracer::new(false, Instant::now()), false);
        let round = schedule.round();
        for req in &round {
            exchange(client, req, work, &mut out);
        }
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        // Replaying a request the schedule said would miss: it now hits.
        let mut replay = round
            .iter()
            .find(|r| r.cache == "miss" && r.endpoint == Endpoint::Check)
            .unwrap()
            .clone();
        exchange(client, &replay, work, &mut out);
        assert_eq!(out.failed, 1);
        replay.cache = "hit";
        exchange(client, &replay, work, &mut out);
        assert_eq!(out.failed, 1, "the replay with the right outcome passes");
        // A check whose true answer is not the one the benchmark expects.
        let flipped = Request {
            body: replay.body.replace("output <= input", "input <= output"),
            cache: "miss",
            ..replay
        };
        assert_ne!(flipped.body, round[0].body);
        exchange(client, &flipped, work, &mut out);
        assert_eq!(out.failed, 2, "{:?}", out.failures);
        // A run whose work differs from the module's first run.
        let run = round.iter().find(|r| r.endpoint == Endpoint::Run).unwrap();
        let (steps, restarts) = work[&run.module];
        work.insert(run.module, (steps + 1, restarts));
        exchange(client, run, work, &mut out);
        assert_eq!(out.failed, 3, "{:?}", out.failures);
        assert!(run_work("{\"data\":{\"steps\":32}}").is_err());
        fleet.stop();
    }
}
