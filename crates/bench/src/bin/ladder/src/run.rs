//! One untraced run of one workload: bring the stack up, take the
//! oracle's answers, warm up, measure a span of windows, check answers —
//! several rounds of it — and reduce the rounds to the end-to-end
//! metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use trajcl_engine::Engine;
use trajcl_geo::Trajectory;
use trajcl_index::{brute_force_knn, Metric};
use trajcl_serve::ServerStats;
use trajcl_tensor::{Shape, Tensor};

use crate::emit::{Measured, RunResult};
use crate::gen::{self, Stream};
use crate::host::{self, Pass, Tick};
use crate::load::{self, HotKnn, Outcome, Schedule, Script, Span, UpsertStream};
use crate::oracle;
use crate::spec::{MetricSpec, Sizing, Workload, END_TO_END};
use crate::stack::{self, connect, knn_payload, knn_reply_text, traj_json, Inputs, Stack};
use crate::stats::{self, Summary, MIN_BEYOND};

/// Closed-loop connections of every closed-loop workload (generator
/// threads ≤ `nproc` of the 2-core reference sandbox).
pub const CONNECTIONS: usize = 2;
/// The latency limit behind `knn_within_10ms_share`.
const LIMIT_NS: u64 = 10_000_000;
/// One cold request in this many is re-derived in process afterwards.
const COLD_SAMPLE_EVERY: u64 = 50;
/// Cold-stream indices of warm-up queries start here, clear of every
/// measured request.
const COLD_WARMUP_BASE: u64 = 1 << 40;
/// A window is quiet when the hypervisor stole at most this share of its
/// CPU capacity (one 10 ms tick of a 250 ms window on two CPUs).
const QUIET_STEAL_SHARE: f64 = 0.025;
/// Quiet windows a run needs before it may drop the others.
const MIN_QUIET_WINDOWS: usize = 8;
/// Share of open-loop sends that may be issued late before the run is
/// invalid. On two cores the paced sender shares a CPU with the forward
/// pass it triggers, so some lateness is the sandbox's, not a fault: up
/// to 2 % in healthy runs here, and a busier host must not void a run
/// whose latencies, timed from the due time, already carry the delay.
pub const MAX_LATE_SHARE: f64 = 0.10;
/// Lead between publishing a span and its start, so every generator
/// thread is already spinning on the clock when it begins.
const START_LEAD: Duration = Duration::from_millis(2);

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Input seed (never the model's: weights stay on seed 0).
    pub seed: u64,
    /// Measured seconds, split evenly across the rounds.
    pub seconds: u64,
    /// Sizes.
    pub sizing: Sizing,
}

/// Server counters accumulated over a measured span.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsDelta {
    /// Fused forward passes.
    pub batches: u64,
    /// Trajectories embedded through the batcher.
    pub batched_trajs: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
}

impl StatsDelta {
    fn between(before: &ServerStats, after: &ServerStats) -> StatsDelta {
        StatsDelta {
            batches: after.batches - before.batches,
            batched_trajs: after.batched_trajs - before.batched_trajs,
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
        }
    }
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Bring-up plus oracle plus warm-up, in seconds.
    pub setup_s: f64,
    /// The host's slowdown during that set-up, by the yardstick passes
    /// taken meanwhile; `None` when none was.
    pub setup_slowdown: Option<f64>,
    /// Yardstick passes taken during the span, on the span's clock.
    pub passes: Vec<Pass>,
    /// Host counters at the span's start and at the end of each window.
    pub ticks: Vec<Tick>,
    /// One outcome per kNN connection.
    pub knn: Vec<Outcome>,
    /// The upsert connection's outcome (mixed workload).
    pub upsert: Option<Outcome>,
    /// Due times of the open-loop sends issued late.
    pub late_at: Vec<u64>,
    /// Sum and count of per-query recall values.
    pub recall: (f64, usize),
    /// Failures no generator connection counted: a warm-up that went
    /// wrong, sampled cold replies that disagreed with the re-derived
    /// answer.
    pub other_failed: u64,
    /// Descriptions of failures, for the report.
    pub notes: Vec<String>,
    /// Server counters over the span.
    pub stats: StatsDelta,
}

/// Exact answers by brute force over the live vectors of a stack.
pub struct Truth {
    table: Tensor,
}

impl Truth {
    /// The true `k` nearest of `query`, as `(row, distance)`.
    pub fn answer(&self, query: &[f32], k: usize) -> Vec<(u64, f64)> {
        brute_force_knn(&self.table, query, k, Metric::L1)
            .into_iter()
            .map(|(row, dist)| (row as u64, dist))
            .collect()
    }

    /// Truth over `engine`'s database embeddings plus `extra` rows (the
    /// mixed workload's buffered vectors).
    fn over(engine: &Engine, extra: &[Vec<f32>]) -> Truth {
        let base = engine.embeddings().expect("engine has a database");
        let dim = base.shape().last();
        let mut data = base.data().to_vec();
        for row in extra {
            data.extend_from_slice(row);
        }
        let rows = data.len() / dim;
        Truth {
            table: Tensor::from_vec(data, Shape::d2(rows, dim)),
        }
    }
}

/// A second engine over the same database, for the fleet: its shard
/// servers hold no exact table to brute-force, so the oracle brings its
/// own. Built once per run, outside every `setup_s`.
pub struct Reference {
    engine: Arc<Engine>,
    hot_embeddings: Vec<Vec<f32>>,
}

impl Reference {
    /// Embeds the database and the hot pool in process.
    pub fn build(inputs: &Inputs, sizing: &Sizing) -> Reference {
        let engine = Arc::new(stack::engine(inputs.db.clone(), sizing));
        let hot = engine.embed_all(&inputs.hot).expect("embed hot pool");
        let hot_embeddings = (0..inputs.hot.len()).map(|i| hot.row(i).to_vec()).collect();
        Reference {
            engine,
            hot_embeddings,
        }
    }
}

/// The hot pool's requests and, per query, the one right reply.
pub struct HotOracle {
    /// Request payloads.
    pub payloads: Vec<String>,
    /// Expected reply text.
    pub expected: Vec<String>,
    /// The answers behind the text.
    pub answers: Vec<Vec<(u64, f64)>>,
}

impl HotOracle {
    /// Takes the answers before the measured span: from `Server::knn` in
    /// process, or — for a fleet, which has no in-process twin — from the
    /// fleet's own reply over the wire, required complete.
    pub fn take(stack: &Stack, hot: &[Trajectory], k: usize) -> HotOracle {
        let payloads: Vec<String> = hot.iter().map(|t| knn_payload(None, t, k)).collect();
        let mut expected = Vec::with_capacity(hot.len());
        let mut answers = Vec::with_capacity(hot.len());
        if stack.is_fleet() {
            let mut client = connect(stack.addr()).expect("oracle connect");
            for payload in &payloads {
                let text = client.call(payload).expect("oracle reply");
                let reply = oracle::parse_reply(&text).expect("fleet oracle reply");
                assert!(!reply.partial, "fleet answered partially before the span");
                answers.push(
                    reply
                        .hits
                        .iter()
                        .map(|(id, d)| (*id, d.parse().expect("printed distance")))
                        .collect(),
                );
                expected.push(text);
            }
        } else {
            for traj in hot {
                let hits = stack.server().knn(traj, k).expect("oracle knn");
                expected.push(knn_reply_text(&hits));
                answers.push(hits);
            }
        }
        HotOracle {
            payloads,
            expected,
            answers,
        }
    }

    /// The two closed-loop scripts that share the pool.
    pub fn lanes(&self, lanes: usize) -> Vec<HotKnn<'_>> {
        (0..lanes)
            .map(|lane| HotKnn {
                payloads: &self.payloads,
                expected: &self.expected,
                answers: &self.answers,
                lane,
                lanes,
            })
            .collect()
    }

    /// Mean recall of the served answers against brute force.
    fn recall(&self, truth: &Truth, embeddings: &[Vec<f32>]) -> (f64, usize) {
        let sum: f64 = self
            .answers
            .iter()
            .zip(embeddings)
            .map(|(served, q)| {
                let distances: Vec<f64> = served.iter().map(|h| h.1).collect();
                oracle::recall(&distances, &truth.answer(q, served.len()))
            })
            .sum();
        (sum, self.answers.len())
    }
}

/// Warm-up script of the cold workload: never-repeating queries from a
/// range of the cold stream no measured request uses.
struct ColdWarmup {
    seed: u64,
    k: usize,
}

impl Script for ColdWarmup {
    fn request(&self, n: usize, out: &mut String) {
        let traj = gen::trajectory(self.seed, Stream::Cold, COLD_WARMUP_BASE + n as u64);
        *out = knn_payload(None, &traj, self.k);
    }

    fn verdict(&self, _n: usize, reply: &str) -> Result<(), String> {
        if reply.starts_with("{\"ok\":true") {
            Ok(())
        } else {
            Err(format!("cold warm-up: {reply}"))
        }
    }
}

fn sampled(seed: u64, index: u64) -> bool {
    let mut h = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 31;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (h >> 33).is_multiple_of(COLD_SAMPLE_EVERY)
}

/// Brings `workload`'s stack up from nothing, warms it and measures one
/// span. The stack is handed back running (a traced run goes on to
/// probe it); the caller shuts it down.
pub fn measure_round(
    opts: &RunOptions,
    inputs: &Inputs,
    reference: Option<&Reference>,
    round: usize,
    span: Duration,
) -> (Round, Stack) {
    let RunOptions {
        workload,
        seed,
        sizing,
        ..
    } = *opts;
    // The generator's own preparation is not the system's set-up.
    let schedule = Schedule::new(sizing.cold_rate, span);
    let cold_base = (round * schedule.count) as u64;
    let cold_count = if workload.is_cold() {
        schedule.count
    } else {
        0
    };
    let cold: Vec<Trajectory> = (0..cold_count as u64)
        .map(|i| gen::trajectory(seed, Stream::Cold, cold_base + i))
        .collect();
    let cold_payloads: Vec<String> = (0u64..)
        .zip(&cold)
        .map(|(i, traj)| knn_payload(Some(i), traj, sizing.k))
        .collect();
    let write_json: Vec<String> = inputs.write.iter().map(traj_json).collect();

    let began = Instant::now();
    let yardstick = host::watch(began);
    let stack = Stack::bring_up(workload, inputs, &sizing);
    let hot = (!workload.is_cold()).then(|| HotOracle::take(&stack, &inputs.hot, sizing.k));

    let mut out = Round::default();
    let mut setup = Duration::ZERO;
    let mut span_at = Duration::ZERO;
    let mut stats_before = ServerStats::default();
    let mut sampler = None;
    let window = Duration::from_millis(sizing.window_ms);
    let mut on_warm = || {
        setup = began.elapsed();
        stats_before = stack.stats();
        let start = Instant::now() + START_LEAD;
        span_at = start - began;
        sampler = Some(host::sample_windows(
            start,
            window,
            windows_in(span, window),
        ));
        Span {
            start,
            length: span,
        }
    };

    match workload {
        Workload::TcpKnnColdOpen => {
            let warm = ColdWarmup { seed, k: sizing.k };
            if let Err(why) = load::warm_up(stack.addr(), &warm, sizing.warmup_requests) {
                out.other_failed += 1;
                out.notes.push(format!("warm-up failed: {why}"));
            }
            let start = on_warm().start;
            let open = load::open_loop(stack.addr(), &cold_payloads, &schedule, start, |i| {
                sampled(seed, cold_base + i as u64)
            });
            out.late_at = open.late_at;
            out.knn = vec![open.outcome];
            // Re-derive the sampled answers in process, against the same
            // server, before anything else touches it.
            let server = stack.server();
            let truth = Truth::over(server.engine(), &[]);
            for (i, text) in &open.kept {
                let traj = &cold[*i];
                let expected = server.knn(traj, sizing.k).expect("re-derive knn");
                if let Err(why) = oracle::check_rederived(&expected, Some(text)) {
                    out.other_failed += 1;
                    out.notes
                        .push(format!("cold query {}: {why:?}", cold_base + *i as u64));
                    continue;
                }
                let q = server.embed(traj).expect("re-derive embedding");
                let reply = oracle::parse_reply(text).expect("checked above");
                let served = oracle::served_distances(&reply);
                out.recall.0 += oracle::recall(&served, &truth.answer(&q, sizing.k));
                out.recall.1 += 1;
            }
        }
        Workload::TcpMixedRw => {
            let hot = hot.as_ref().expect("hot oracle");
            let writer = UpsertStream {
                traj_json: &write_json,
                write_ids: sizing.write_ids,
                expect_replace: true,
            };
            let readers = hot.lanes(1);
            let scripts: [&dyn Script; 2] = [&writer, &readers[0]];
            let mut outcomes =
                load::closed_loop(stack.addr(), &scripts, sizing.warmup_requests, &mut on_warm);
            out.knn = vec![outcomes.pop().expect("reader outcome")];
            out.upsert = outcomes.pop();
        }
        Workload::TcpKnnHot | Workload::FleetKnnHot => {
            let hot = hot.as_ref().expect("hot oracle");
            let lanes = hot.lanes(CONNECTIONS);
            let scripts: Vec<&dyn Script> = lanes.iter().map(|l| l as &dyn Script).collect();
            out.knn =
                load::closed_loop(stack.addr(), &scripts, sizing.warmup_requests, &mut on_warm);
        }
    }
    out.setup_s = setup.as_secs_f64();
    // The yardstick's passes, split where the set-up ended: those before
    // say how fast the host ran the set-up, those after go with the span.
    let (setup_ns, span_ns) = (setup.as_nanos() as u64, span_at.as_nanos() as u64);
    let passes = yardstick.finish();
    out.setup_slowdown = host::slowdown(passes.iter().filter(|p| p.at_ns < setup_ns).map(|p| p.us));
    out.passes = passes
        .iter()
        .filter(|p| p.at_ns >= span_ns)
        .map(|p| Pass {
            at_ns: p.at_ns - span_ns,
            us: p.us,
        })
        .collect();
    out.ticks = sampler.and_then(|s| s.join().ok()).unwrap_or_default();
    out.stats = StatsDelta::between(&stats_before, &stack.stats());

    if let Some(hot) = &hot {
        out.recall = match reference {
            Some(reference) => hot.recall(
                &Truth::over(&reference.engine, &[]),
                &reference.hot_embeddings,
            ),
            // A traced fleet phase brings no reference: recall is an
            // end-to-end metric, and those come from the untraced run.
            None if stack.is_fleet() => (0.0, 0),
            None => {
                let server = stack.server();
                let embed = |t: &Trajectory| server.embed(t).expect("oracle embed");
                let extra: Vec<Vec<f32>> = if workload == Workload::TcpMixedRw {
                    let pool: Vec<Vec<f32>> = inputs.write.iter().map(embed).collect();
                    (0..sizing.write_ids)
                        .map(|j| pool[j % pool.len()].clone())
                        .collect()
                } else {
                    Vec::new()
                };
                let queries: Vec<Vec<f32>> = inputs.hot.iter().map(embed).collect();
                hot.recall(&Truth::over(server.engine(), &extra), &queries)
            }
        };
    }
    let generator_notes: Vec<String> = out
        .knn
        .iter()
        .chain(&out.upsert)
        .flat_map(|o| o.notes.iter().cloned())
        .collect();
    out.notes.extend(generator_notes);
    (out, stack)
}

/// Whole windows in a span (at least one).
fn windows_in(span: Duration, window: Duration) -> usize {
    ((span.as_nanos() / window.as_nanos().max(1)) as usize).max(1)
}

/// How one windowed metric varied from window to window: context for
/// the reported value, which is taken over all the windows together.
#[derive(Clone, Debug)]
pub struct Detail {
    /// Metric name.
    pub name: &'static str,
    /// Median, quartiles and count of the per-window values.
    pub summary: Summary,
    /// Median of the better quarter of the per-window values: what the
    /// stack does in its good moments (README, "Two regimes").
    pub better_quarter: f64,
}

/// The reduced rounds: the end-to-end result plus what the report and
/// the traced run's `client.*` metrics need.
pub struct Reduced {
    /// The end-to-end metrics in declaration order.
    pub result: RunResult,
    /// Per-window spread of the windowed metrics.
    pub details: Vec<Detail>,
    /// Share of open-loop sends issued late (0 on closed loops).
    pub late_share: f64,
    /// kNN latency samples the percentiles were taken over.
    pub knn_samples: usize,
    /// 90th and 99th percentile of those samples, in microseconds:
    /// per-layer `client.knn_p90_us` and `client.knn_p99_us`, too unsteady
    /// between runs to carry a bound (README, "Measured at this commit").
    pub knn_p90_us: f64,
    /// See [`Reduced::knn_p90_us`].
    pub knn_p99_us: f64,
    /// Upsert connection: qps, p50, p99.
    pub upsert: Option<[f64; 3]>,
    /// Share of the measured windows that were quiet.
    pub quiet_share: f64,
    /// Share of the measured spans' CPU capacity the hypervisor stole.
    pub steal_share: f64,
    /// The host's slowdown per round, as the yardstick saw it: during the
    /// set-up (when a pass was taken) and during the span. Every reported
    /// time is the measured one divided by its round's.
    pub slowdowns: Vec<(Option<f64>, f64)>,
    /// Failure descriptions.
    pub notes: Vec<String>,
    /// Server counters summed over the rounds.
    pub stats: StatsDelta,
}

/// One measurement window of one round.
#[derive(Default)]
struct Window {
    /// Latencies of correct kNN replies, ascending.
    knn: Vec<u64>,
    /// Latencies of correct upsert replies, ascending.
    upsert: Vec<u64>,
    /// kNN requests sent (or due) in the window.
    knn_attempted: u64,
    /// Correct kNN replies that *arrived* in the window. On a closed loop
    /// that is `knn.len()`; the open loop files a sample under its due
    /// time, and its reply may arrive a window later.
    knn_arrived: u64,
    /// Open-loop sends issued late.
    late: u64,
    /// How long the window lasted.
    length_ns: u64,
    /// Process CPU spent, in microseconds.
    cpu_us: u64,
    /// Share of the window's CPU capacity the hypervisor stole.
    steal_share: f64,
    /// The host's slowdown while the window's round was measured: what
    /// every duration of the window is divided by (README, "Host speed").
    slowdown: f64,
}

impl Window {
    /// A window the hypervisor left alone. A stolen window measures the
    /// host, not the program: it is kept out of every timing metric.
    fn quiet(&self) -> bool {
        self.steal_share <= QUIET_STEAL_SHARE
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Cuts one round into its windows: window `w` runs from tick `w` to
/// tick `w + 1`, as the sampler took them. `from_due` says the samples
/// are stamped with due times (the open loop), not completion times.
///
/// Also returns how many timeouts were the host's: a request whose wait —
/// from when it was sent (or due) until the reply deadline — overlapped a
/// window the hypervisor took CPU from measured the host, exactly as that
/// window's latencies did. It is dropped from the run, neither attempted
/// nor failed. A timeout with the CPUs left alone is the program's.
fn windows_of(round: &Round, nproc: usize, from_due: bool) -> (Vec<Window>, u64) {
    let edges: Vec<u64> = round.ticks.iter().map(|t| t.at_ns).collect();
    let count = edges.len().saturating_sub(1);
    let mut windows: Vec<Window> = round
        .ticks
        .windows(2)
        .map(|ticks| {
            let (from, to) = (&ticks[0], &ticks[1]);
            let length_ns = to.at_ns - from.at_ns;
            // A steal tick is 10 ms of one CPU.
            let capacity_us = length_ns as f64 / 1e3 * nproc as f64;
            Window {
                length_ns,
                cpu_us: to.cpu_us - from.cpu_us,
                steal_share: (to.steal_ticks - from.steal_ticks) as f64 * 1e4 / capacity_us,
                ..Window::default()
            }
        })
        .collect();
    // The window whose edges enclose `at_ns`; none before the first tick
    // or after the last.
    let slot = |at_ns: u64| {
        edges
            .partition_point(|&edge| edge <= at_ns)
            .checked_sub(1)
            .filter(|&w| w < count)
    };
    let deadline_ns = load::REPLY_DEADLINE.as_nanos() as u64;
    let hosts_fault = |windows: &[Window], at_ns: u64| {
        let first = slot(at_ns).unwrap_or(0);
        let last = slot(at_ns + deadline_ns).unwrap_or(count.saturating_sub(1));
        windows
            .get(first..=last)
            .is_some_and(|wait| wait.iter().any(|w| !w.quiet()))
    };
    let mut excused = 0;
    for outcome in &round.knn {
        for s in &outcome.samples {
            if let Some(w) = slot(s.at_ns) {
                windows[w].knn.push(s.latency_ns);
                windows[w].knn_attempted += 1;
            }
            let arrived_ns = s.at_ns + if from_due { s.latency_ns } else { 0 };
            if let Some(w) = slot(arrived_ns) {
                windows[w].knn_arrived += 1;
            }
        }
        for &at in &outcome.timed_out_at {
            if hosts_fault(&windows, at) {
                excused += 1;
            } else if let Some(w) = slot(at) {
                windows[w].knn_attempted += 1;
            }
        }
        for &at in &outcome.failed_at {
            if let Some(w) = slot(at) {
                windows[w].knn_attempted += 1;
            }
        }
    }
    if let Some(outcome) = &round.upsert {
        for s in &outcome.samples {
            if let Some(w) = slot(s.at_ns) {
                windows[w].upsert.push(s.latency_ns);
            }
        }
        excused += outcome
            .timed_out_at
            .iter()
            .filter(|&&at| hosts_fault(&windows, at))
            .count() as u64;
    }
    for &at in &round.late_at {
        if let Some(w) = slot(at) {
            windows[w].late += 1;
        }
    }
    // One pace for the round: the yardstick's median over the quiet
    // windows (over all of them when none is quiet; the reference pace
    // when no pass was taken at all).
    let in_quiet = |p: &&Pass| slot(p.at_ns).is_some_and(|w| windows[w].quiet());
    let slowdown = host::slowdown(round.passes.iter().filter(in_quiet).map(|p| p.us))
        .or_else(|| host::slowdown(round.passes.iter().map(|p| p.us)))
        .unwrap_or(1.0);
    for window in &mut windows {
        window.knn.sort_unstable();
        window.upsert.sort_unstable();
        window.slowdown = slowdown;
    }
    (windows, excused)
}

/// Reduces the rounds of one run to its metrics.
pub fn reduce(opts: &RunOptions, rounds: &[Round]) -> Reduced {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all = Vec::new();
    let mut excused = 0;
    let mut slowdowns = Vec::with_capacity(rounds.len());
    for round in rounds {
        let (windows, hosts) = windows_of(round, nproc, opts.workload.is_cold());
        slowdowns.push((
            round.setup_slowdown,
            windows.first().map_or(1.0, |w| w.slowdown),
        ));
        all.extend(windows);
        excused += hosts;
    }
    let mut notes: Vec<String> = rounds
        .iter()
        .flat_map(|r| r.notes.iter().cloned())
        .collect();
    if excused > 0 {
        notes.push(format!(
            "{excused} requests timed out while the hypervisor held the CPU: dropped, neither attempted nor failed"
        ));
    }

    // Timing metrics come from quiet windows only — unless the host left
    // too few of them to stand on, in which case every window counts and
    // the run says so.
    let quiet_count = all.iter().filter(|w| w.quiet()).count();
    let quiet_share = quiet_count as f64 / all.len().max(1) as f64;
    let enough = quiet_count >= MIN_QUIET_WINDOWS.min(all.len());
    if !enough {
        notes.push(format!(
            "only {quiet_count} of {} windows were free of CPU steal: timing metrics use them all",
            all.len()
        ));
    }
    let used: Vec<&Window> = all.iter().filter(|w| !enough || w.quiet()).collect();

    // Every timing metric is taken over all the windows used, together:
    // replies per second of the time they cover, percentiles of their
    // pooled latency samples, CPU per reply. Whatever share of the span a
    // slow phase takes — the host's or the program's own — it weighs in
    // with that share (README, "Windows").
    //
    // Every duration is first brought to the reference pace: measured
    // while the host ran `slowdown` times slower, it is divided by that
    // (README, "Host speed"). Two things are not: the 10 ms limit, which
    // is a promise about real time, and the time an open loop's replies
    // are counted over, because its rate is its schedule's, not the host's.
    let open_loop = opts.workload.is_cold();
    let paced = |duration: f64, w: &Window| duration / w.slowdown;
    let seconds = |w: &Window| w.length_ns as f64 / 1e9;
    let rate_seconds = |w: &Window| {
        if open_loop {
            seconds(w)
        } else {
            paced(seconds(w), w)
        }
    };
    let used_s: f64 = used.iter().map(|w| rate_seconds(w)).sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { f64::NAN };
    let sum = |f: &dyn Fn(&Window) -> u64| -> f64 { used.iter().map(|w| f(w)).sum::<u64>() as f64 };
    let pooled = |pick: &dyn Fn(&Window) -> &Vec<u64>| -> Vec<u64> {
        let mut pool: Vec<u64> = used
            .iter()
            .flat_map(|w| pick(w).iter().map(|&ns| paced(ns as f64, w) as u64))
            .collect();
        pool.sort_unstable();
        pool
    };
    let percentile_us = |pool: &[u64], q: f64| stats::percentile(pool, q).map_or(f64::NAN, us);
    // A tail needs ten samples beyond it; a run that short says so.
    let tail_us = |pool: &[u64], q: f64, notes: &mut Vec<String>| match stats::tail_percentile(
        pool, q, MIN_BEYOND,
    ) {
        Some((value, reported)) => {
            if reported < q {
                notes.push(format!(
                    "only {} samples: p{:.0} reported at quantile {reported:.4}",
                    pool.len(),
                    q * 100.0
                ));
            }
            us(value)
        }
        None => f64::NAN,
    };
    let knn_pool = pooled(&|w| &w.knn);
    let upsert_pool = pooled(&|w| &w.upsert);
    let replies = (knn_pool.len() + upsert_pool.len()) as f64;
    // Throughput counts replies where they arrive, so the open loop
    // reports the rate it was answered at, not its own schedule.
    let knn_arrived = sum(&|w| w.knn_arrived);
    let knn_attempted = sum(&|w| w.knn_attempted);
    let within_limit: f64 = used
        .iter()
        .map(|w| w.knn.partition_point(|&l| l <= LIMIT_NS) as f64)
        .sum();
    let cpu_us: f64 = used.iter().map(|w| paced(w.cpu_us as f64, w)).sum();
    let knn_p90_us = tail_us(&knn_pool, 0.90, &mut notes);
    let knn_p99_us = tail_us(&knn_pool, 0.99, &mut notes);

    // Correctness is not a timing metric: every request of every window
    // counts, stolen or not — but for the timeouts that were the host's.
    let every = || rounds.iter().flat_map(|r| r.knn.iter().chain(&r.upsert));
    let attempted: u64 = every().map(|o| o.attempted).sum::<u64>() - excused;
    let failed: u64 = every().map(|o| o.failed).sum::<u64>() - excused
        + rounds.iter().map(|r| r.other_failed).sum::<u64>();
    let recall_sum: f64 = rounds.iter().map(|r| r.recall.0).sum();
    let recall_n: usize = rounds.iter().map(|r| r.recall.1).sum();
    let setups: Vec<f64> = rounds
        .iter()
        .map(|r| r.setup_s / r.setup_slowdown.unwrap_or(1.0))
        .collect();

    let value_of = |m: &MetricSpec| -> f64 {
        match m.name {
            "setup_s" => stats::median(&setups).unwrap_or(f64::NAN),
            "knn_qps" => ratio(knn_arrived, used_s),
            "ops_qps" => ratio(knn_arrived + upsert_pool.len() as f64, used_s),
            "knn_p50_us" => percentile_us(&knn_pool, 0.50),
            "knn_within_10ms_share" => ratio(within_limit, knn_attempted),
            "cpu_us_per_req" => ratio(cpu_us, replies),
            "rss_peak_mb" => host::rss_peak_mb().unwrap_or(f64::NAN),
            "recall_at_10" => ratio(recall_sum, recall_n as f64),
            "ok_share" => ratio(attempted.saturating_sub(failed) as f64, attempted as f64),
            _ => f64::NAN,
        }
    };
    let metrics: Vec<Measured> = END_TO_END
        .iter()
        .map(|m| Measured {
            name: m.name.to_string(),
            value: value_of(m),
            unit: m.unit.to_string(),
        })
        .collect();

    // How the same metrics varied window by window, for the report.
    let per_window = |f: &dyn Fn(&Window) -> f64| -> Vec<f64> {
        used.iter()
            .map(|w| f(w))
            .filter(|v| v.is_finite())
            .collect()
    };
    let details: Vec<Detail> = [
        (
            "knn_qps",
            &(|w: &Window| w.knn_arrived as f64 / rate_seconds(w)) as &dyn Fn(&Window) -> f64,
            true,
        ),
        (
            "ops_qps",
            &|w: &Window| (w.knn_arrived as usize + w.upsert.len()) as f64 / rate_seconds(w),
            true,
        ),
        (
            "knn_p50_us",
            &|w: &Window| paced(percentile_us(&w.knn, 0.50), w),
            false,
        ),
        (
            "cpu_us_per_req",
            &|w: &Window| {
                ratio(
                    paced(w.cpu_us as f64, w),
                    (w.knn.len() + w.upsert.len()) as f64,
                )
            },
            false,
        ),
    ]
    .into_iter()
    .filter_map(|(name, f, higher_is_better)| {
        let values = per_window(f);
        Some(Detail {
            name,
            summary: Summary::of(&values)?,
            better_quarter: stats::better_quarter_median(&values, higher_is_better)?,
        })
    })
    .collect();

    let late_share = if opts.workload.is_cold() {
        ratio(sum(&|w| w.late), knn_attempted)
    } else {
        0.0
    };
    let mut result = RunResult {
        correct: false,
        attempted: attempted.max(1),
        failed,
        metrics,
    };
    let missing = result.missing(END_TO_END);
    for name in &missing {
        notes.push(format!("declared metric {name} is absent or not finite"));
    }
    if late_share > MAX_LATE_SHARE {
        notes.push(format!(
            "generator ran late on {:.2}% of sends in quiet windows (limit {:.0}%): run invalid",
            late_share * 100.0,
            MAX_LATE_SHARE * 100.0
        ));
    }
    result.correct =
        failed == 0 && attempted > 0 && missing.is_empty() && late_share <= MAX_LATE_SHARE;

    let upsert = (!upsert_pool.is_empty()).then(|| {
        [
            ratio(upsert_pool.len() as f64, used_s),
            percentile_us(&upsert_pool, 0.50),
            tail_us(&upsert_pool, 0.99, &mut notes),
        ]
    });
    let mut stats = StatsDelta::default();
    for round in rounds {
        stats.batches += round.stats.batches;
        stats.batched_trajs += round.stats.batched_trajs;
        stats.cache_hits += round.stats.cache_hits;
        stats.cache_misses += round.stats.cache_misses;
    }
    Reduced {
        result,
        details,
        late_share,
        knn_samples: knn_pool.len(),
        knn_p90_us,
        knn_p99_us,
        upsert,
        quiet_share,
        steal_share: all.iter().map(|w| w.steal_share).sum::<f64>() / all.len().max(1) as f64,
        slowdowns,
        notes,
        stats,
    }
}

/// Runs every round of `opts` and reduces them. Prints one progress
/// line per round to stderr.
pub fn run(opts: &RunOptions) -> Reduced {
    let inputs = Inputs::generate(opts.seed, &opts.sizing);
    let reference =
        (opts.workload == Workload::FleetKnnHot).then(|| Reference::build(&inputs, &opts.sizing));
    let rounds = opts.sizing.rounds_for(opts.seconds);
    let span = Duration::from_millis(opts.seconds * 1000 / rounds as u64);
    let mut measured = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (data, stack) = measure_round(opts, &inputs, reference.as_ref(), round, span);
        stack.shutdown();
        eprintln!(
            "  {} round {}/{}: set-up {:.3} s, {} replies in {:.1} s",
            opts.workload.name(),
            round + 1,
            rounds,
            data.setup_s,
            data.knn
                .iter()
                .chain(&data.upsert)
                .map(|o| o.samples.len())
                .sum::<usize>(),
            span.as_secs_f64(),
        );
        measured.push(data);
    }
    reduce(opts, &measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Sample;

    /// One-second windows, so the arithmetic below is easy to follow.
    fn opts(workload: Workload) -> RunOptions {
        RunOptions {
            workload,
            seed: 1,
            seconds: 2,
            sizing: Sizing {
                window_ms: 1000,
                ..Sizing::smoke()
            },
        }
    }

    /// `per_window[w]` replies in one-second window `w`, all `latency_us`.
    fn outcome(per_window: &[usize], latency_us: u64, failed: u64) -> Outcome {
        let samples: Vec<Sample> = per_window
            .iter()
            .enumerate()
            .flat_map(|(w, &count)| {
                (0..count).map(move |i| Sample {
                    at_ns: w as u64 * 1_000_000_000 + i as u64 * 1000,
                    latency_ns: latency_us * 1000,
                })
            })
            .collect();
        Outcome {
            attempted: samples.len() as u64 + failed,
            samples,
            failed,
            failed_at: vec![0; failed as usize],
            timed_out_at: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A round of `steal.len()` one-second windows: `steal[w]` ticks
    /// stolen and 2 s of process CPU spent in window `w`.
    fn round(knn: Vec<Outcome>, upsert: Option<Outcome>, steal: &[u64]) -> Round {
        let mut ticks = vec![Tick::default()];
        for (w, stolen) in steal.iter().enumerate() {
            ticks.push(Tick {
                at_ns: (w as u64 + 1) * 1_000_000_000,
                steal_ticks: ticks[w].steal_ticks + stolen,
                cpu_us: ticks[w].cpu_us + 2_000_000,
            });
        }
        Round {
            setup_s: 0.5,
            ticks,
            knn,
            upsert,
            recall: (9.5, 10),
            ..Round::default()
        }
    }

    #[test]
    fn rounds_reduce_to_every_declared_metric() {
        let rounds = [round(
            vec![outcome(&[1500, 1500], 200, 0), outcome(&[500, 500], 400, 0)],
            None,
            &[0, 0],
        )];
        let reduced = reduce(&opts(Workload::TcpKnnHot), &rounds);
        let r = &reduced.result;
        assert!(r.correct, "{:?}", reduced.notes);
        assert_eq!(r.missing(END_TO_END), Vec::<&str>::new());
        assert_eq!(r.get("knn_qps"), Some(2000.0));
        assert_eq!(r.get("ops_qps"), Some(2000.0));
        assert_eq!(r.get("knn_p50_us"), Some(200.0));
        assert_eq!((reduced.knn_p90_us, reduced.knn_p99_us), (400.0, 400.0));
        assert_eq!(r.get("knn_within_10ms_share"), Some(1.0));
        assert_eq!(r.get("cpu_us_per_req"), Some(1000.0));
        assert_eq!(r.get("recall_at_10"), Some(0.95));
        assert_eq!(r.get("ok_share"), Some(1.0));
        assert_eq!(r.get("setup_s"), Some(0.5));
        assert_eq!((r.attempted, r.failed), (4000, 0));
        assert_eq!(reduced.knn_samples, 4000);
        assert_eq!(reduced.details[0].summary.windows, 2);
        assert_eq!((reduced.quiet_share, reduced.steal_share), (1.0, 0.0));
    }

    #[test]
    fn failures_and_writers_are_accounted_for() {
        let rounds = [round(
            vec![outcome(&[100, 100], 20_000, 4)],
            Some(outcome(&[900, 900], 100, 0)),
            &[0, 0],
        )];
        let reduced = reduce(&opts(Workload::TcpMixedRw), &rounds);
        let r = &reduced.result;
        assert!(!r.correct);
        assert_eq!((r.attempted, r.failed), (2004, 4));
        assert_eq!(r.get("knn_qps"), Some(100.0));
        assert_eq!(r.get("ops_qps"), Some(1000.0));
        // Failed requests miss the limit, and so do 20 ms replies.
        assert_eq!(r.get("knn_within_10ms_share"), Some(0.0));
        assert_eq!(r.get("ok_share"), Some(2000.0 / 2004.0));
        assert_eq!(reduced.upsert, Some([900.0, 100.0, 100.0]));
        // 200 kNN samples leave ten beyond p90 but not beyond p99, and
        // the run says which quantile it reported instead.
        assert_eq!(reduced.knn_p90_us, 20_000.0);
        let lowered: Vec<_> = reduced
            .notes
            .iter()
            .filter(|n| n.contains("reported at quantile"))
            .collect();
        assert_eq!(lowered.len(), 1, "{:?}", reduced.notes);
        assert!(lowered[0].contains("200 samples: p99"));
    }

    #[test]
    fn a_slow_regime_weighs_in_with_its_share_of_the_run() {
        // Eight windows flipping between a regime where hand-offs stay
        // on one CPU (2000 replies at 90 us) and one where they do not
        // (1000 at 140 us). Every window counts: throughput is the mean
        // rate, the percentiles pool all 12 000 samples — so a change
        // that makes the slow regime slower, or more frequent, moves
        // them. The better quarter is printed beside, not reported.
        let fast = outcome(&[2000, 0, 2000, 0, 0, 2000, 0, 2000], 90, 0);
        let slow = outcome(&[0, 1000, 0, 1000, 1000, 0, 1000, 0], 140, 0);
        let rounds = [round(vec![fast, slow], None, &[0; 8])];
        let reduced = reduce(&opts(Workload::TcpKnnHot), &rounds);
        let r = &reduced.result;
        assert_eq!(r.get("knn_qps"), Some(1500.0));
        // Two thirds of the samples are fast ones: the median is, the
        // 90th percentile is not.
        assert_eq!(r.get("knn_p50_us"), Some(90.0));
        assert_eq!(reduced.knn_p90_us, 140.0);
        // 16 s of CPU over 12 000 replies.
        assert_eq!(r.get("cpu_us_per_req"), Some(16e6 / 12e3));
        let qps = &reduced.details[0];
        assert_eq!((qps.summary.median, qps.summary.windows), (1500.0, 8));
        assert_eq!(qps.better_quarter, 2000.0);
        let p50 = &reduced.details[2];
        assert_eq!((p50.name, p50.better_quarter), ("knn_p50_us", 90.0));
    }

    #[test]
    fn stolen_windows_are_kept_out_of_timing_metrics() {
        // Ten windows; the hypervisor took a second of CPU in two of
        // them, and the replies show it.
        let per_window = [1000, 1000, 1000, 300, 250, 1000, 1000, 1000, 1000, 1000];
        let steal = [0, 0, 0, 100, 100, 0, 0, 0, 0, 0];
        let rounds = [round(vec![outcome(&per_window, 150, 0)], None, &steal)];
        let reduced = reduce(&opts(Workload::TcpKnnHot), &rounds);
        assert_eq!(reduced.quiet_share, 0.8);
        assert!(reduced.steal_share > 0.0);
        let qps = &reduced.details[0];
        assert_eq!((qps.name, qps.summary.windows), ("knn_qps", 8));
        assert_eq!(
            (qps.summary.q1, qps.summary.median, qps.summary.q3),
            (1000.0, 1000.0, 1000.0)
        );
        // CPU and replies of the stolen windows are out on both sides.
        assert_eq!(reduced.result.get("cpu_us_per_req"), Some(2000.0));
        // Correctness still counts every request.
        assert_eq!(reduced.result.attempted, 8550);

        // With fewer quiet windows than a median can stand on, nothing
        // is dropped and the run says so.
        let noisy = [round(
            vec![outcome(&[1000, 300, 250], 150, 0)],
            None,
            &[0, 100, 100],
        )];
        let reduced = reduce(&opts(Workload::TcpKnnHot), &noisy);
        assert_eq!(reduced.details[0].summary.windows, 3);
        assert!(reduced.notes.iter().any(|n| n.contains("CPU steal")));
        assert!(reduced.result.correct, "a noisy host is not a wrong answer");
    }

    #[test]
    fn windows_are_as_long_as_the_sampler_found_them() {
        // The second tick was taken half a second late (the hypervisor
        // had the CPU, and says so): the first window is 1.5 s long and
        // holds the requests, the CPU time and the steal of 1.5 s; the
        // second is what is left.
        let mut late = round(
            vec![outcome(&[1000, 1000, 1000], 150, 0)],
            None,
            &[60, 0, 0],
        );
        late.ticks[1].at_ns = 1_500_000_000;
        late.knn[0].samples[1000..2000]
            .iter_mut()
            .for_each(|s| s.at_ns += 200_000_000);
        let (windows, _) = windows_of(&late, 2, false);
        let seen: Vec<_> = windows.iter().map(|w| (w.length_ns, w.knn.len())).collect();
        assert_eq!(
            seen,
            [
                (1_500_000_000, 2000),
                (500_000_000, 0),
                (1_000_000_000, 1000)
            ]
        );
        // 60 ticks of 10 ms over 1.5 s of two CPUs.
        assert_eq!(windows[0].steal_share, 0.2);
        assert!(!windows[0].quiet() && windows[1].quiet());
    }

    #[test]
    fn a_timeout_while_the_hypervisor_held_the_cpu_is_the_hosts() {
        // A request sent at 0.9 s got no reply within the 1 s deadline.
        let with_timeout = |steal: &[u64]| {
            let mut lane = outcome(&[1000, 300, 1000], 150, 0);
            lane.attempted += 1;
            lane.failed = 1;
            lane.timed_out_at = vec![900_000_000];
            reduce(
                &opts(Workload::TcpKnnHot),
                &[round(vec![lane], None, steal)],
            )
        };
        // The hypervisor took a second of CPU while it waited: the wait
        // measured the host, and the request is dropped like the stolen
        // window's latencies.
        let stolen = with_timeout(&[0, 100, 0]);
        assert_eq!((stolen.result.attempted, stolen.result.failed), (2300, 0));
        assert!(stolen.result.correct, "{:?}", stolen.notes);
        assert!(stolen
            .notes
            .iter()
            .any(|n| n.contains("1 requests timed out")));
        assert_eq!(stolen.result.get("knn_within_10ms_share"), Some(1.0));
        // With the CPUs left alone the program lost it.
        let lost = with_timeout(&[0, 0, 0]);
        assert_eq!((lost.result.attempted, lost.result.failed), (2301, 1));
        assert!(!lost.result.correct);
        assert_eq!(
            lost.result.get("knn_within_10ms_share"),
            Some(2300.0 / 2301.0)
        );
    }

    #[test]
    fn durations_are_brought_to_the_reference_pace() {
        // The same replies, measured once with the host at the reference
        // pace and once with it running half as fast (every yardstick
        // pass took twice as long, during the set-up and during the span).
        let at_pace = |slowdown: f64, workload: Workload| {
            let mut r = round(vec![outcome(&[1000, 1000], 300, 0)], None, &[0, 0]);
            r.setup_slowdown = Some(slowdown);
            r.passes = (0..80)
                .map(|i| Pass {
                    at_ns: i * 25_000_000,
                    us: host::YARDSTICK_US * slowdown,
                })
                .collect();
            reduce(&opts(workload), &[r])
        };
        let (reference, slow) = (
            at_pace(1.0, Workload::TcpKnnHot),
            at_pace(2.0, Workload::TcpKnnHot),
        );
        let get = |r: &Reduced, name: &str| r.result.get(name).unwrap();
        // What took 300 us on the slow host takes 150 at the reference
        // pace; the replies of 2 s there are those of 1 s here.
        assert_eq!(get(&reference, "knn_p50_us"), 300.0);
        assert_eq!(get(&slow, "knn_p50_us"), 150.0);
        assert_eq!(slow.knn_p90_us, 150.0);
        assert_eq!(get(&reference, "knn_qps"), 1000.0);
        assert_eq!(get(&slow, "knn_qps"), 2000.0);
        assert_eq!(get(&slow, "cpu_us_per_req"), 1000.0);
        assert_eq!(get(&slow, "setup_s"), 0.25);
        assert_eq!(slow.slowdowns, [(Some(2.0), 2.0)]);
        // The 10 ms limit is a promise about real time.
        assert_eq!(get(&slow, "knn_within_10ms_share"), 1.0);
        // An open loop's rate is its schedule's, whatever the host's pace.
        let open = at_pace(2.0, Workload::TcpKnnColdOpen);
        assert_eq!(get(&open, "knn_qps"), 1000.0);
        assert_eq!(get(&open, "knn_p50_us"), 150.0);
        // No pass taken: durations stay as measured.
        let blind = reduce(
            &opts(Workload::TcpKnnHot),
            &[round(vec![outcome(&[1000, 1000], 300, 0)], None, &[0, 0])],
        );
        assert_eq!(get(&blind, "knn_p50_us"), 300.0);
        assert_eq!(blind.slowdowns, [(None, 1.0)]);
    }

    #[test]
    fn a_late_generator_invalidates_the_run() {
        let mut one = round(vec![outcome(&[400, 400], 900, 0)], None, &[0, 0]);
        one.late_at = (0..160).map(|i| i * 1000).collect();
        let reduced = reduce(&opts(Workload::TcpKnnColdOpen), &[one]);
        assert_eq!(reduced.late_share, 0.2);
        assert!(!reduced.result.correct);
        assert!(reduced.notes.iter().any(|n| n.contains("run invalid")));
    }

    #[test]
    fn the_open_loop_counts_replies_where_they_arrive() {
        // 400 requests due in each of two windows, answered 1.5 s after
        // their due times: latency and the limit are charged to the due
        // window, throughput to the window the reply reached — and the
        // second window's replies reached none of the span.
        let slow = round(vec![outcome(&[400, 400], 1_500_000, 0)], None, &[0, 0]);
        let reduced = reduce(&opts(Workload::TcpKnnColdOpen), &[slow]);
        let r = &reduced.result;
        assert_eq!(r.get("knn_p50_us"), Some(1_500_000.0));
        assert_eq!(r.get("knn_within_10ms_share"), Some(0.0));
        assert_eq!(r.get("knn_qps"), Some(200.0));
        // A closed loop stamps completion: the same samples count in place.
        let closed = round(vec![outcome(&[400, 400], 1_500_000, 0)], None, &[0, 0]);
        let reduced = reduce(&opts(Workload::TcpKnnHot), &[closed]);
        assert_eq!(reduced.result.get("knn_qps"), Some(400.0));
    }

    #[test]
    fn the_cold_sample_is_seeded_and_about_one_in_fifty() {
        let picked = (0..100_000).filter(|&i| sampled(9, i)).count();
        assert!((1500..2500).contains(&picked), "{picked}");
        assert_eq!(
            (0..1000).filter(|&i| sampled(9, i)).collect::<Vec<_>>(),
            (0..1000).filter(|&i| sampled(9, i)).collect::<Vec<_>>()
        );
        assert_ne!(
            (0..1000).filter(|&i| sampled(9, i)).collect::<Vec<_>>(),
            (0..1000).filter(|&i| sampled(10, i)).collect::<Vec<_>>()
        );
    }
}
