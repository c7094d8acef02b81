//! The workloads and the phases each one runs.
//!
//! Every workload runs the same phases on its own inputs — fits, Fig. 10/11
//! accuracy, setups (publish → first answer over TCP), an open loop,
//! reloads and, in the traced run, a closed loop — so each prints every
//! end-to-end metric.  The workloads differ in what the phases stress:
//!
//! * `d1` — full-scale D1.  Transfer is ~90% of the fit, and the engine
//!   answers in well under a microsecond of each round trip, so it loads
//!   `preference` transfer and the `serve` reactor and wire, and barely
//!   engine routing.
//! * `d1_reload` — the same inputs with an in-band `reload` frame every
//!   250 ms among the open loop's reads: decode + compile + canary replay
//!   on the event loop serving them.  A change that buys read speed with
//!   compile cost, or that moves reloads off the loop, shows here and not
//!   in `d1`.
//! * `xl` — country-scale D1-XL.  Learning, apply and region-graph build
//!   dominate the fit, engine compile dominates setup, and uniform-random
//!   pairs make the engine most of every request over a 14 MB model: the
//!   control for `d1`.
//!
//! A run is a sequence of rounds, each doing its share of every phase
//! (fits, setups, loop segments, reloads).  The host's speed drifts by
//! several percent over seconds, so spreading every metric's samples over
//! the whole run keeps one slow stretch from landing on one metric.
//!
//! `--seed` draws the order of the query stream and of the reloads.  The
//! data set, and with it the query pairs, is always the canonical one: fit
//! cost moves by ~30% between data seeds and the `xl` tail latency with the
//! pair set, which would hide any regression smaller than that.  Only the
//! tests fit another data set, through `RunConfig::data_seed`.

use std::collections::HashMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use l2r_core::{
    decode_snapshot, encode_model_structural, Engine, L2r, ModelRegistry, ModelStore, QueryScratch,
    RouteStrategy, StoreOptions,
};
use l2r_datagen::{generate_network, generate_workload};
use l2r_eval::{build_test_queries, compare_methods, BucketStat, DatasetSpec, Method, Scale};
use l2r_preference::{build_descriptors, build_similarity_rows, transfer_preferences, Preference};
use l2r_region_graph::RegionEdgeId;
use l2r_road_network::{searches_performed, VertexId};
use l2r_serve::{registry_from_specs, Server, ServerConfig, ServerHandle, ServerState};

use crate::loadgen::{self, Expected, Item, RawReply, Tally, Target};
use crate::stats;
use crate::trace::{SpanId, Tracer};

/// Worker threads of `l2r_par` and event loops of the server: the
/// benchmark host has two cores.
pub const THREADS: usize = 2;

/// Name the model is published and served under.
const DATASET: &str = "D1";

/// Route requests the closed loop keeps in flight.
const WINDOW: usize = 32;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-scale D1, reads only.
    D1,
    /// Full-scale D1 with in-band reloads beside the reads.
    D1Reload,
    /// Country-scale D1-XL.
    Xl,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::D1, Workload::D1Reload, Workload::Xl];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::D1 => "d1",
            Workload::D1Reload => "d1_reload",
            Workload::Xl => "xl",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn plan(self) -> Plan {
        match self {
            Workload::D1 | Workload::D1Reload => Plan {
                scale: Scale::Full,
                rounds: 7,
                fits: 7,
                setups: 49,
                idle_reloads: if self == Workload::D1 { 49 } else { 0 },
                reload_period: (self == Workload::D1Reload).then_some(Duration::from_millis(250)),
                generations: 7,
                open_rate: 20_000.0,
                uniform_pairs: None,
                replay_cap: 20_000,
            },
            Workload::Xl => Plan {
                scale: Scale::Xl,
                rounds: 5,
                fits: 5,
                setups: 3,
                idle_reloads: 2,
                reload_period: None,
                generations: 2,
                open_rate: 750.0,
                uniform_pairs: Some(1500),
                replay_cap: 2_048,
            },
        }
    }
}

/// Phase sizes of a workload.  Counts are totals, spread evenly over the
/// rounds; every round runs one open-loop segment (and, traced, one
/// closed-loop segment).
#[derive(Debug, Clone)]
struct Plan {
    scale: Scale,
    rounds: usize,
    fits: usize,
    setups: usize,
    /// Reloads sent on the idle data connection.
    idle_reloads: usize,
    /// Period of the in-band reloads sent among the open loop's reads.
    /// Frequent enough that the stalls they cause hold well over 1% of the
    /// requests, so `route_p99_us` sits near the top of a stall instead of
    /// on its ramp, where it would swing with every millisecond of stall.
    reload_period: Option<Duration>,
    /// Generations published for reload frames to name.
    generations: usize,
    /// Open-loop arrival rate, requests per second.
    open_rate: f64,
    /// `Some(k)`: k uniform-random pairs drawn from the data seed (`xl`:
    /// one pass per 2 s open-loop segment, so every segment sends the same
    /// handful of multi-millisecond queries); `None`: held-out endpoints.
    uniform_pairs: Option<usize>,
    /// Requests of each loop kind replayed in-process by the traced run.
    replay_cap: usize,
}

/// How many of `count` items round `round` of `rounds` runs: evenly
/// spread, front-loaded, so round 0 gets one as soon as `count > 0`.
fn share(count: usize, rounds: usize, round: usize) -> usize {
    ((round + 1) * count).div_ceil(rounds) - (round * count).div_ceil(rounds)
}

/// Everything one run needs besides the workload's own plan.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the query stream and reload order.
    pub seed: u64,
    /// Overrides the network and trajectory seeds of the data set (tests
    /// only: the command line always runs the canonical data set).
    pub data_seed: Option<u64>,
    /// Total length of all loop segments, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Overrides the workload's scale (tests run at `Scale::Quick`).
    pub scale: Option<Scale>,
    /// Corrupts one expected answer, to prove the checks bite.
    pub corrupt_expected: bool,
    /// Directory the run's stores are created under (removed at exit).
    pub work_root: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value (a median where `n > 1`).
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// Outcome of one workload run.
#[derive(Debug)]
pub struct Report {
    /// End-to-end metrics, from untraced repetitions only.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Failed checks, in words.
    pub problems: Vec<String>,
    /// The recorded spans as JSON (traced run only).
    pub spans: Option<String>,
}

impl Report {
    /// Whether every operation and every check succeeded.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.tally.failed == 0
    }
}

/// Named sample lists; each becomes one metric (median, sample count).
#[derive(Debug, Default)]
struct Samples(Vec<(String, &'static str, Vec<f64>)>);

impl Samples {
    fn add(&mut self, name: &str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, values)) => values.push(value),
            None => self.0.push((name.to_string(), unit, vec![value])),
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |(_, _, v)| stats::median(v))
    }

    fn metrics(&self) -> Vec<Metric> {
        self.0
            .iter()
            .map(|(name, unit, values)| Metric {
                name: name.clone(),
                value: stats::median(values),
                unit,
                n: values.len(),
            })
            .collect()
    }
}

/// Timed end-to-end metrics the traced run reports its own overhead on
/// (accuracy does not depend on tracing; peak RSS is one per process).
const OVERHEAD_METRICS: [&str; 5] = [
    "setup_s",
    "fit_s",
    "route_p50_us",
    "route_p99_us",
    "reload_s",
];

/// Repetition kinds whose traced and untraced repetitions alternate.
#[derive(Debug, Clone, Copy)]
enum Rep {
    Fit,
    Setup,
    Segment,
    Reload,
}

/// Samples, spans and failures of one run.
#[derive(Debug)]
struct Recorder {
    trace: bool,
    reps: [usize; 4],
    tracer: Tracer,
    plain: Samples,
    traced: Samples,
    layer: Samples,
    tally: Tally,
    problems: Vec<String>,
}

impl Recorder {
    /// Whether the next repetition of `kind` is traced.  In the traced run
    /// every other repetition stays untraced, so the run can report its
    /// own overhead; the untraced run traces nothing.
    fn next(&mut self, kind: Rep) -> bool {
        let rep = &mut self.reps[kind as usize];
        *rep += 1;
        self.trace && *rep % 2 == 1
    }

    /// Where an end-to-end sample of a traced or untraced repetition goes.
    fn e2e(&mut self, traced: bool) -> &mut Samples {
        if traced {
            &mut self.traced
        } else {
            &mut self.plain
        }
    }
}

/// The run's working directory; removed (with everything in it) on drop.
#[derive(Debug)]
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path) -> Result<WorkDir, String> {
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = root.join(format!("run-{}-{nonce}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let dir = std::fs::canonicalize(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(root) = self.0.parent() {
            // Only succeeds once nothing else is left in the root.
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn strategy_index(strategy: RouteStrategy) -> u8 {
    RouteStrategy::ALL
        .iter()
        .position(|&s| s == strategy)
        .unwrap_or(0) as u8
}

/// The answer `engine` gives for every pair, in the wire's representation.
fn expected_answers(engine: &Engine, pairs: &[(u32, u32)]) -> Vec<Expected> {
    let mut scratch = QueryScratch::new();
    pairs
        .iter()
        .map(|&(s, d)| {
            engine
                .route(&mut scratch, VertexId(s), VertexId(d))
                .map(|r| {
                    (
                        strategy_index(r.strategy),
                        r.path.vertices().iter().map(|v| v.0).collect(),
                    )
                })
        })
        .collect()
}

/// The query pairs: uniform-random vertex pairs drawn from `seed`, or the
/// distinct endpoint pairs of the held-out trajectories.
fn query_pairs(
    plan: &Plan,
    seed: u64,
    vertices: usize,
    held_out: &[(u32, u32)],
) -> Vec<(u32, u32)> {
    match plan.uniform_pairs {
        Some(k) => {
            let mut rng = Rng(seed);
            (0..k)
                .map(|_| {
                    let s = rng.below(vertices);
                    let d = (s + 1 + rng.below(vertices - 1)) % vertices;
                    (s as u32, d as u32)
                })
                .collect()
        }
        None => {
            let mut pairs: Vec<(u32, u32)> =
                held_out.iter().copied().filter(|(s, d)| s != d).collect();
            pairs.sort_unstable();
            pairs.dedup();
            pairs
        }
    }
}

/// One serving stack: the running server and the data connection to it.
struct Stack {
    handle: ServerHandle,
    state: Arc<ServerState>,
    conn: TcpStream,
}

impl Stack {
    fn shutdown(self) -> Result<(), String> {
        drop(self.conn);
        self.handle.shutdown().map_err(err("server shutdown"))
    }
}

/// The query stream: every pair once per pass, each pass in a fresh seeded
/// order, so every seed sends the same mix of cheap and expensive queries.
/// Draws are remembered for the in-process replay of the traced run.
struct QueryStream {
    rng: Rng,
    order: Vec<u32>,
    next: usize,
    cap: usize,
    closed: Vec<u32>,
    open: Vec<u32>,
}

impl QueryStream {
    fn new(seed: u64, pairs: usize, cap: usize) -> QueryStream {
        QueryStream {
            rng: Rng(seed),
            order: (0..pairs as u32).collect(),
            next: pairs,
            cap,
            closed: Vec::new(),
            open: Vec::new(),
        }
    }

    fn draw(&mut self, record: bool, open: bool) -> u32 {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                let j = self.rng.below(i + 1);
                self.order.swap(i, j);
            }
            self.next = 0;
        }
        let i = self.order[self.next];
        self.next += 1;
        let log = if open {
            &mut self.open
        } else {
            &mut self.closed
        };
        if record && log.len() < self.cap {
            log.push(i);
        }
        i
    }
}

/// Runs one workload end to end.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    l2r_par::set_thread_override(Some(THREADS));
    let plan = cfg.workload.plan();
    let mut spec = DatasetSpec::d1(cfg.scale.unwrap_or(plan.scale));
    if let Some(seed) = cfg.data_seed {
        spec.network.seed = seed;
        spec.workload.seed = seed;
    }
    let work = WorkDir::create(&cfg.work_root)?;
    let mut rec = Recorder {
        trace: cfg.trace,
        reps: [0; 4],
        tracer: Tracer::new(cfg.trace),
        plain: Samples::default(),
        traced: Samples::default(),
        layer: Samples::default(),
        tally: Tally::default(),
        problems: Vec::new(),
    };

    let span = rec.tracer.begin("inputs", None);
    let syn = generate_network(&spec.network);
    let (train, mut test) =
        generate_workload(&syn, &spec.workload).temporal_split(spec.train_fraction);
    let held_out: Vec<(u32, u32)> = test
        .iter()
        .map(|t| (t.source().0, t.destination().0))
        .collect();
    let pairs = query_pairs(&plan, spec.workload.seed, syn.net.num_vertices(), &held_out);
    if pairs.is_empty() {
        return Err("the data set yields no query pairs".to_string());
    }
    let first_pair = Rng(cfg.seed ^ 0xF1F1).below(pairs.len()) as u32;
    let mut stream = QueryStream::new(cfg.seed ^ 0x57E4, pairs.len(), plan.replay_cap);
    let mut reload_rng = Rng(cfg.seed ^ 0x5E1D);
    rec.tracer.end(span);

    let gens_dir = work.path("generations");
    let store_path = gens_dir
        .to_str()
        .ok_or("the work directory is not UTF-8")?
        .to_string();
    let mut gens = ModelStore::create(
        &gens_dir,
        DATASET,
        StoreOptions {
            retain: plan.generations,
        },
    )
    .map_err(err("create generation store"))?;
    let mut reference: Option<Vec<u8>> = None;
    let mut model: Option<L2r> = None;
    let mut accuracy: Option<BucketStat> = None;
    let mut expected: Vec<Expected> = Vec::new();
    let mut stack: Option<Stack> = None;
    let mut setups = 0usize;
    // The traced run splits the loop time between the closed and the open
    // loop; the untraced run spends it all on the open loop.
    let loops_per_round = if cfg.trace { 2 } else { 1 };
    let segment = Duration::from_secs_f64(cfg.seconds / (loops_per_round * plan.rounds) as f64);
    let mut late_us: Vec<f64> = Vec::new();
    let mut requests = 0usize;
    let mut in_flight_max = 0usize;
    let mut sent = 0u64;

    for round in 0..plan.rounds {
        let round_span = rec.tracer.begin(format!("round_{round}"), None);

        for _ in 0..share(plan.fits, plan.rounds, round) {
            let fitted = fit(&mut rec, &syn.net, &train, &spec, round_span)?;
            let bytes = encode_model_structural(&fitted);
            match &reference {
                None => reference = Some(bytes),
                Some(r) if *r != bytes => {
                    rec.tally.record_failure();
                    rec.problems
                        .push("a refit encodes differently from the first fit".to_string());
                }
                Some(_) => rec.tally.record_success(),
            }
            if gens.generations().len() < plan.generations {
                gens.publish(&fitted).map_err(err("publish generation"))?;
            }
            model.get_or_insert(fitted);
        }
        let model = model.as_ref().ok_or("no fit ran before the first setup")?;

        if accuracy.is_none() {
            let span = rec.tracer.begin("accuracy", round_span);
            let queries = build_test_queries(&syn.net, model, &test, spec.max_test_queries);
            let results = compare_methods(
                &syn.net,
                &[Method::L2r(model)],
                &queries,
                &spec.distance_bounds_km,
            );
            accuracy = results.into_iter().next().map(|r| r.overall);
            test = Vec::new();
            rec.tracer.end(span);
        }

        for _ in 0..share(plan.setups, plan.rounds, round) {
            if let Some(previous) = stack.take() {
                previous.shutdown()?;
            }
            let dir = work.path(&format!("setup-{setups}"));
            setups += 1;
            // The first setup's engine provides the expected answers, so
            // its reply is checked only after they exist.
            let target = Target {
                dataset: DATASET,
                pairs: &pairs,
                expected: &[],
                store: &store_path,
            };
            let (next, reply) = setup(&mut rec, &dir, model, &target, first_pair, round_span)?;
            if expected.is_empty() {
                // The served engine is compiled from the decoded snapshot:
                // the decoded model must be the fitted one.
                let snapshot = decode_snapshot(&latest_bytes(&dir)?).map_err(err("decode"))?;
                if reference.as_ref() == Some(&encode_model_structural(&snapshot.model)) {
                    rec.tally.record_success();
                } else {
                    rec.tally.record_failure();
                    rec.problems
                        .push("the decoded snapshot differs from the fitted model".to_string());
                }
                drop(snapshot);
                let engine = next
                    .state
                    .registry()
                    .get(DATASET)
                    .ok_or("the server lost its model")?;
                expected = expected_answers(&engine, &pairs);
                if cfg.corrupt_expected {
                    let slot = &mut expected[first_pair as usize];
                    *slot = match slot.take() {
                        Some((s, v)) => Some(((s + 1) % RouteStrategy::ALL.len() as u8, v)),
                        None => Some((0, Vec::new())),
                    };
                }
            }
            let target = Target {
                expected: &expected,
                ..target
            };
            target.verify(Item::Route(first_pair), &reply, &mut rec.tally);
            stack = Some(next);
        }
        let Some(Stack { state, conn, .. }) = stack.as_mut() else {
            return Err("no setup ran before the first loop".to_string());
        };
        let target = Target {
            dataset: DATASET,
            pairs: &pairs,
            expected: &expected,
            store: &store_path,
        };
        let generations = gens.generations();
        let mut next_generation = || generations[reload_rng.below(generations.len())];

        // Closed loop, traced run only: callers that wait, WINDOW requests
        // in flight.  Its completion rate swings ±15% between segments on
        // a shared two-core host, too much to gate on, so it is a
        // per-layer number.
        if cfg.trace {
            let before = state.stats_fields();
            let t0 = Instant::now();
            let mut next_pair = || stream.draw(true, false);
            let s = loadgen::closed_segment(
                conn,
                &target,
                &mut next_pair,
                WINDOW,
                segment,
                &mut rec.tally,
            )
            .map_err(err("closed loop"))?;
            rec.tracer
                .span("closed_segment", t0, Instant::now(), round_span);
            serve_deltas(&mut rec.layer, "closed", &before, &state.stats_fields());
            sent += s.sent;
            rec.layer.add(
                "serve.closed_loop_qps",
                "req/s",
                s.completed as f64 / s.seconds,
            );
        }

        // Open loop: independent users at a fixed rate.
        let traced = rec.next(Rep::Segment);
        let before = state.stats_fields();
        let t0 = Instant::now();
        let per_segment = (plan.open_rate * segment.as_secs_f64()).round().max(1.0) as usize;
        let interval_ns = 1e9 / plan.open_rate;
        let mut schedule: Vec<(u64, Item)> = (0..per_segment)
            .map(|i| {
                let pair = stream.draw(cfg.trace, true);
                ((i as f64 * interval_ns) as u64, Item::Route(pair))
            })
            .collect();
        if let Some(period) = plan.reload_period {
            let mut due = (period / 2).min(segment / 2);
            while due < segment {
                let ns = due.as_nanos() as u64;
                let at = schedule.partition_point(|&(d, _)| d <= ns);
                schedule.insert(at, (ns, Item::Reload(next_generation())));
                due += period;
            }
        }
        let s = loadgen::open_segment(conn, &target, &schedule, &mut rec.tally)
            .map_err(err("open loop"))?;
        let id = rec
            .tracer
            .span("open_segment", t0, Instant::now(), round_span);
        if traced {
            serve_deltas(&mut rec.layer, "open", &before, &state.stats_fields());
        }
        for &(due, took) in &s.reloads {
            rec.tracer.span("reload", due, due + took, id);
            rec.e2e(traced).add("reload_s", "s", took.as_secs_f64());
        }
        sent += s.latency_us.len() as u64;
        if !traced {
            requests += s.latency_us.len();
        }
        // Percentiles per segment, gated on their median over segments: a
        // host stall then costs one segment, not the run's tail.  The p50
        // is timed from the send, so the sender's sleep overshoot (tens of
        // µs, a third or more of d1's round trip) stays out of it; the p99
        // is timed from the due time, so a stall counts against every
        // request queued behind it.
        let (mut service, mut latency) = (s.service_us, s.latency_us);
        stats::sort(&mut service);
        stats::sort(&mut latency);
        let sink = rec.e2e(traced);
        sink.add("route_p50_us", "us", stats::percentile(&service, 50.0));
        sink.add("route_p99_us", "us", stats::percentile(&latency, 99.0));
        late_us.extend(s.late_us);
        in_flight_max = in_flight_max.max(s.in_flight_max);

        // Reloads on the idle data connection.
        for _ in 0..share(plan.idle_reloads, plan.rounds, round) {
            let traced = rec.next(Rep::Reload);
            let item = Item::Reload(next_generation());
            let t0 = Instant::now();
            let (took, reply) = loadgen::request(conn, &target, item).map_err(err("reload"))?;
            target.verify(item, &reply, &mut rec.tally);
            rec.tracer.span("reload", t0, t0 + took, round_span);
            rec.e2e(traced).add("reload_s", "s", took.as_secs_f64());
        }
        rec.tracer.end(round_span);
    }

    let Some(stack) = stack else {
        return Err("no setup ran".to_string());
    };
    let engine = stack
        .state
        .registry()
        .get(DATASET)
        .ok_or("the server lost its model")?;
    stack.shutdown()?;
    drop((model, gens, reference));

    let accuracy = accuracy.ok_or("accuracy was not measured")?;
    rec.plain
        .add("accuracy_eq1_pct", "%", accuracy.accuracy_eq1);
    rec.plain
        .add("accuracy_eq4_pct", "%", accuracy.accuracy_eq4);
    let mut end_to_end = rec.plain.metrics();
    for m in &mut end_to_end {
        if m.name.starts_with("accuracy") {
            m.n = accuracy.count;
        } else if m.name.starts_with("route_") {
            m.n = requests;
        }
    }

    if cfg.trace {
        let span = rec.tracer.begin("replay", None);
        let replay: Vec<u32> = stream.closed.iter().chain(&stream.open).copied().collect();
        replay_engine(&engine, &pairs, &replay, &mut rec.layer);
        rec.tracer.end(span);
        let layer = &mut rec.layer;
        let engine_mean = layer.median("engine.route_mean_us");
        let loop_us = 1e6 / layer.median("serve.closed_loop_qps");
        layer.add("serve.loop_us_per_route", "us", loop_us);
        layer.add("serve.non_engine_us_per_route", "us", loop_us - engine_mean);
        layer.add("loadgen.late_mean_us", "us", stats::mean(&late_us));
        layer.add(
            "loadgen.late_max_us",
            "us",
            late_us.iter().copied().fold(0.0, f64::max),
        );
        layer.add("loadgen.sent", "count", sent as f64);
        layer.add("loadgen.in_flight_max", "count", in_flight_max as f64);
        for name in OVERHEAD_METRICS {
            let plain = rec.plain.median(name);
            layer.add(
                &format!("trace.overhead_pct.{name}"),
                "%",
                (rec.traced.median(name) - plain) / plain * 100.0,
            );
        }
    }
    drop(engine);
    end_to_end.push(Metric {
        name: "peak_rss_mb".to_string(),
        value: peak_rss_mb().ok_or("VmHWM is unreadable")?,
        unit: "MiB",
        n: 1,
    });
    Ok(Report {
        end_to_end,
        per_layer: rec.layer.metrics(),
        tally: rec.tally,
        problems: rec.problems,
        spans: cfg.trace.then(|| rec.tracer.to_json()),
    })
}

/// One timed `L2r::fit`; the traced repetitions also record the fit's
/// stages and, the first time, the transfer sub-steps.
fn fit(
    rec: &mut Recorder,
    net: &l2r_road_network::RoadNetwork,
    train: &[l2r_trajectory::MatchedTrajectory],
    spec: &DatasetSpec,
    parent: Option<SpanId>,
) -> Result<L2r, String> {
    let traced = rec.next(Rep::Fit);
    let searches = searches_performed();
    let t0 = Instant::now();
    let fitted = L2r::fit(net, train, spec.l2r.clone()).map_err(err("fit"))?;
    let t1 = Instant::now();
    rec.e2e(traced).add("fit_s", "s", (t1 - t0).as_secs_f64());
    if !traced {
        return Ok(fitted);
    }
    let s = fitted.stats();
    let id = rec.tracer.span("fit", t0, t1, parent);
    rec.tracer.stages(
        id,
        t0,
        &[
            ("region_graph.cluster", s.clustering_time),
            ("region_graph.build", s.region_graph_time),
            ("preference.learn", s.learning_time),
            ("preference.transfer", s.transfer_time),
            ("apply", s.apply_time),
        ],
    );
    let layer = &mut rec.layer;
    layer.add("region_graph.cluster_ms", "ms", ms(s.clustering_time));
    layer.add("region_graph.build_ms", "ms", ms(s.region_graph_time));
    layer.add("region_graph.regions", "count", s.num_regions as f64);
    layer.add("region_graph.t_edges", "count", s.num_t_edges as f64);
    layer.add("region_graph.b_edges", "count", s.num_b_edges as f64);
    layer.add("preference.learn_ms", "ms", ms(s.learning_time));
    layer.add("preference.transfer_ms", "ms", ms(s.transfer_time));
    layer.add("preference.null_rate", "ratio", s.null_rate);
    layer.add("apply.ms", "ms", ms(s.apply_time));
    let with = s.apply.edges_with_paths as f64;
    layer.add(
        "apply.paths_ratio",
        "ratio",
        with / (with + s.apply.edges_without_paths as f64).max(1.0),
    );
    layer.add(
        "road_network.fit_searches",
        "count",
        (searches_performed() - searches) as f64,
    );
    if rec.reps[Rep::Fit as usize] == 1 {
        transfer_substeps(&fitted, rec, id);
    }
    Ok(fitted)
}

/// One setup: publish into a fresh store, load it into a registry, start a
/// server and wait for the first route reply over TCP (`setup_s`).
fn setup(
    rec: &mut Recorder,
    dir: &Path,
    model: &L2r,
    target: &Target<'_>,
    first_pair: u32,
    parent: Option<SpanId>,
) -> Result<(Stack, RawReply), String> {
    let traced = rec.next(Rep::Setup);
    let t0 = Instant::now();
    let mut store =
        ModelStore::create(dir, DATASET, StoreOptions::default()).map_err(err("create store"))?;
    store.publish(model).map_err(err("publish"))?;
    let published = Instant::now();
    let id = if traced {
        rec.tracer.span("setup", t0, t0, parent)
    } else {
        None
    };
    let registry = if traced {
        rec.tracer.span("publish", t0, published, id);
        rec.layer.add("store.publish_ms", "ms", ms(published - t0));
        traced_registry(dir, rec, id)?
    } else {
        registry_from_specs(&[(DATASET.to_string(), dir.to_path_buf())])?
    };
    let bind = Instant::now();
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerConfig {
            workers: THREADS,
            ..ServerConfig::default()
        },
        registry,
    )
    .map_err(err("bind"))?;
    let addr = server.local_addr();
    let state = server.state();
    let handle = server.start();
    let started = Instant::now();
    let mut conn = loadgen::connect(addr).map_err(err("connect"))?;
    let (_, reply) =
        loadgen::request(&mut conn, target, Item::Route(first_pair)).map_err(err("first reply"))?;
    let t1 = Instant::now();
    rec.e2e(traced).add("setup_s", "s", (t1 - t0).as_secs_f64());
    if traced {
        rec.tracer.span("bind", bind, started, id);
        rec.tracer.span("first_reply", started, t1, id);
        rec.tracer.close_at(id, t1);
    }
    Ok((
        Stack {
            handle,
            state,
            conn,
        },
        reply,
    ))
}

/// The traced setup: `registry_from_specs`'s constituent public calls, one
/// span each.
fn traced_registry(
    dir: &Path,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> Result<ModelRegistry, String> {
    let t0 = Instant::now();
    let bytes = latest_bytes(dir)?;
    let t1 = Instant::now();
    let snapshot = decode_snapshot(&bytes).map_err(err("decode"))?;
    let t2 = Instant::now();
    let engine = snapshot.model.into_engine();
    let t3 = Instant::now();
    let connectors = engine.num_connectors();
    let registry = ModelRegistry::new();
    registry.insert(DATASET, engine);
    let t4 = Instant::now();
    rec.tracer.span("open", t0, t1, parent);
    rec.tracer.span("decode", t1, t2, parent);
    rec.tracer.span("compile", t2, t3, parent);
    rec.tracer.span("insert", t3, t4, parent);
    let layer = &mut rec.layer;
    layer.add("snapshot.bytes", "bytes", bytes.len() as f64);
    layer.add("snapshot.decode_ms", "ms", ms(t2 - t1));
    layer.add("engine.compile_ms", "ms", ms(t3 - t2));
    layer.add("engine.connectors", "count", connectors as f64);
    Ok(registry)
}

/// The newest generation's snapshot bytes in the store at `dir`.
fn latest_bytes(dir: &Path) -> Result<Vec<u8>, String> {
    let store = ModelStore::open(dir).map_err(err("open store"))?;
    let generation = store.latest().ok_or("the store has no generation")?;
    store.load_bytes(generation).map_err(err("read generation"))
}

/// Times the transfer sub-steps by re-running them on the fitted graph with
/// the model's own labels; the re-run must reproduce the fitted model.
fn transfer_substeps(model: &L2r, rec: &mut Recorder, parent: Option<SpanId>) {
    let rg = model.region_graph();
    let config = &model.config().transfer;
    let labeled: HashMap<RegionEdgeId, Preference> = model
        .learned_preferences()
        .iter()
        .map(|(id, lp)| (*id, lp.preference))
        .collect();
    let mut targets: Vec<RegionEdgeId> = rg.b_edges().map(|e| e.id).collect();
    targets.sort_unstable();
    // The node order `transfer_preferences` uses: labelled edges that are
    // not targets (sorted), then the targets (sorted).
    let mut ids: Vec<RegionEdgeId> = labeled
        .keys()
        .copied()
        .filter(|id| targets.binary_search(id).is_err())
        .collect();
    ids.sort_unstable();
    ids.extend(&targets);
    let edges: Vec<&l2r_region_graph::RegionEdge> = ids.iter().map(|id| rg.edge(*id)).collect();

    let t0 = Instant::now();
    let descriptors = build_descriptors(rg, &edges);
    let t1 = Instant::now();
    let rows = build_similarity_rows(&descriptors, config.amr);
    let t2 = Instant::now();
    let result = transfer_preferences(rg, &labeled, &targets, config);
    let t3 = Instant::now();
    let id = rec.tracer.span("transfer_rerun", t0, t3, parent);
    rec.tracer.span("descriptors", t0, t1, id);
    rec.tracer.span("similarity", t1, t2, id);
    rec.tracer.span("transfer", t2, t3, id);
    let layer = &mut rec.layer;
    layer.add("preference.descriptors_ms", "ms", ms(t1 - t0));
    layer.add("preference.similarity_ms", "ms", ms(t2 - t1));
    layer.add(
        "preference.solve_ms",
        "ms",
        ms(t3 - t2) - ms(t1 - t0) - ms(t2 - t1),
    );
    layer.add(
        "preference.solver_iterations",
        "count",
        result.solver_iterations as f64,
    );
    layer.add(
        "preference.similarity_pairs",
        "count",
        rows.iter().map(Vec::len).sum::<usize>() as f64,
    );
    if result.preferences != *model.transferred_preferences() {
        rec.problems
            .push("the traced transfer re-run differs from the fitted model".to_string());
    }
}

/// Batching over one loop segment, from deltas of the server counters.
fn serve_deltas(
    layer: &mut Samples,
    kind: &str,
    before: &[(String, u64)],
    after: &[(String, u64)],
) {
    let delta = |key: &str| {
        let get =
            |fields: &[(String, u64)]| fields.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v);
        get(after).saturating_sub(get(before)) as f64
    };
    let batches = delta("batches");
    layer.add(&format!("serve.{kind}_batches"), "count", batches);
    layer.add(
        &format!("serve.{kind}_mean_batch"),
        "count",
        delta("queries") / batches.max(1.0),
    );
}

/// Replays the loops' query streams in-process through one scratch.
fn replay_engine(engine: &Engine, pairs: &[(u32, u32)], stream: &[u32], layer: &mut Samples) {
    let mut scratch = QueryScratch::new();
    let mut us = Vec::with_capacity(stream.len());
    let mut by_strategy = [0usize; RouteStrategy::ALL.len()];
    let mut answered = 0usize;
    let searches = searches_performed();
    for &i in stream {
        let (s, d) = pairs[i as usize];
        let t0 = Instant::now();
        let result = engine.route(&mut scratch, VertexId(s), VertexId(d));
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        if let Some(r) = result {
            answered += 1;
            by_strategy[strategy_index(r.strategy) as usize] += 1;
        }
    }
    let routes = stream.len().max(1) as f64;
    layer.add(
        "road_network.searches_per_route",
        "count",
        (searches_performed() - searches) as f64 / routes,
    );
    layer.add("engine.route_mean_us", "us", stats::mean(&us));
    stats::sort(&mut us);
    layer.add("engine.route_p50_us", "us", stats::percentile(&us, 50.0));
    layer.add("engine.route_p99_us", "us", stats::percentile(&us, 99.0));
    layer.add("engine.answered_ratio", "ratio", answered as f64 / routes);
    for (strategy, count) in RouteStrategy::ALL.iter().zip(by_strategy) {
        layer.add(
            &format!("engine.strategy.{}", strategy.label()),
            "ratio",
            count as f64 / routes,
        );
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::share;

    #[test]
    fn shares_spread_evenly_and_start_in_round_zero() {
        let spread: Vec<usize> = (0..5).map(|r| share(3, 5, r)).collect();
        assert_eq!(spread, [1, 1, 0, 1, 0]);
        assert_eq!((0..7).map(|r| share(21, 7, r)).sum::<usize>(), 21);
        assert_eq!(
            (0..5).map(|r| share(7, 5, r)).collect::<Vec<_>>(),
            [2, 1, 2, 1, 1]
        );
        assert_eq!(share(0, 7, 0), 0);
    }
}
