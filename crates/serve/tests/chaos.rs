//! Chaos suite: the fleet front-end under injected faults.
//!
//! Everything here is seeded and deterministic — the fault schedules
//! come from [`trajcl_serve::ChaosPlan`]'s pure per-frame function, and
//! the only timing dependence is on deadlines *holding* (assertions are
//! "within the budget", never "at exactly t").
//!
//! The headline test is the PR's acceptance scenario: with one of four
//! shard servers killed mid-pipelined-query, the front-end keeps
//! answering within its configured deadline with `"partial":true` and
//! correct `shards_ok`/`shards_total`, and returns to bit-exact
//! unsharded-oracle-equivalent answers after the shard restarts.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
use trajcl_engine::Engine;
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
use trajcl_index::shard_for;
use trajcl_serve::fleet::read_hits;
use trajcl_serve::net::listen_with;
use trajcl_serve::proto::{read_frame, traj_bits, traj_json, write_frame};
use trajcl_serve::{
    listen, ChaosPlan, ChaosProxy, Client, ClientOptions, Fleet, FleetConfig, FrameHandler,
    NetServer, ServeConfig, Server, SessionOptions, ShardHealth,
};

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// A tiny deterministic TrajCL engine (no pre-loaded database). Every
/// shard and the oracle build the SAME engine (seed 0), so embeddings —
/// and therefore wire-formatted distances — are bit-identical across
/// processes.
fn tiny_engine() -> Engine {
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = TrajClConfig::test_default();
    let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
    let grid = Grid::new(region, 100.0);
    let table = trajcl_tensor::Tensor::randn(
        trajcl_tensor::Shape::d2(grid.num_cells(), cfg.dim),
        0.0,
        0.5,
        &mut rng,
    );
    let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
    let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
    Engine::builder()
        .trajcl(model, feat)
        .build()
        .expect("engine")
}

/// Well-separated synthetic trajectories (same family as the net suite).
fn traj_for(id: u64) -> Trajectory {
    let y0 = 10.0 + (id % 1000) as f64 * 9.7 + (id / 1000) as f64 * 211.0;
    (0..6)
        .map(|t| Point::new(40.0 + t as f64 * 120.0, y0 + t as f64 * 3.0))
        .collect()
}

fn upsert_payload(id: u64) -> String {
    format!(
        "{{\"op\":\"upsert\",\"id\":{id},\"traj\":{}}}",
        traj_json(&traj_for(id))
    )
}

/// A `knn` in the exact form (`traj_bits`), so the reply is `hits_bits`:
/// ids, distance bits and tie order, for [`hits_of`] to compare.
fn knn_payload(qid: u64, k: usize) -> String {
    format!(
        "{{\"op\":\"knn\",\"traj_bits\":\"{}\",\"k\":{k}}}",
        traj_bits(&traj_for(qid))
    )
}

/// One downstream "process": a single-shard server on a free TCP port.
struct ShardServer {
    server: Arc<Server>,
    net: NetServer,
}

impl ShardServer {
    fn spawn() -> ShardServer {
        let server =
            Arc::new(Server::new(Arc::new(tiny_engine()), ServeConfig::default()).expect("server"));
        let net = listen(Arc::clone(&server), "127.0.0.1:0", 2).expect("listen");
        ShardServer { server, net }
    }

    /// Like [`ShardServer::spawn`], but durable: writes go through a
    /// write-ahead log under `dir` (recovered on spawn if it exists).
    fn spawn_wal(dir: &std::path::Path) -> ShardServer {
        let cfg = ServeConfig {
            wal: Some(trajcl_serve::WalConfig::new(dir)),
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::new(Arc::new(tiny_engine()), cfg).expect("server"));
        let net = listen(Arc::clone(&server), "127.0.0.1:0", 2).expect("listen");
        ShardServer { server, net }
    }

    fn addr(&self) -> String {
        self.net.local_addr().to_string()
    }

    /// SIGKILL-equivalent: the listener stops and every connection is
    /// severed without any protocol goodbye.
    fn kill(self) {
        self.net.shutdown();
        self.server.shutdown();
    }
}

/// A tight fleet config: everything fails (and recovers) fast enough
/// for a test, with real retry/backoff/probing behaviour.
fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        client: ClientOptions {
            connect_timeout: Some(ms(250)),
            read_timeout: Some(ms(1000)),
            write_timeout: Some(ms(1000)),
        },
        op_deadline: ms(2500),
        retries: 1,
        backoff_base: ms(10),
        backoff_max: ms(40),
        down_after: 2,
        probe_interval: ms(100),
        fail_closed: false,
        jitter_seed: 0xC0FFEE,
    }
}

/// The `"hits_bits":"…"` tail of a knn response — the part that must be
/// bit-identical between the fleet and the unsharded oracle: ids, the
/// distances' f64 bits, and their order.
fn hits_of(resp: &str) -> &str {
    let at = resp
        .find("\"hits_bits\":")
        .unwrap_or_else(|| panic!("no hits_bits in {resp}"));
    resp[at..].trim_end_matches('}')
}

fn wait_for<F: FnMut() -> bool>(mut cond: F, budget: Duration, what: &str) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < budget, "timed out waiting for {what}");
        std::thread::sleep(ms(25));
    }
}

/// Samples one shard's health every millisecond, from `start` until
/// `seen`, and keeps each state it changes to.
struct HealthWatch {
    done: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<ShardHealth>>,
}

impl HealthWatch {
    fn start(fleet: &Arc<Fleet>, shard: usize) -> HealthWatch {
        let done = Arc::new(AtomicBool::new(false));
        let thread = {
            let (fleet, done) = (Arc::clone(fleet), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                loop {
                    // Read the flag first: the last sample is then taken
                    // after the calls watched are over.
                    let last = done.load(Ordering::Acquire);
                    let h = fleet.health()[shard];
                    if seen.last() != Some(&h) {
                        seen.push(h);
                    }
                    if last {
                        return seen;
                    }
                    std::thread::sleep(ms(1));
                }
            })
        };
        HealthWatch { done, thread }
    }

    /// The states seen, in order.
    fn seen(self) -> Vec<ShardHealth> {
        self.done.store(true, Ordering::Release);
        self.thread.join().expect("health watcher")
    }
}

/// The acceptance scenario (ISSUE 9): kill 1 of 4 shards mid-pipelined
/// queries → bounded partial answers; restart it → re-admission through
/// half-open probing and bit-exact answers again.
#[test]
fn fleet_degrades_on_shard_death_and_recovers_bit_exact() {
    const NSHARDS: usize = 4;
    const N: u64 = 48;
    const QIDS: [u64; 4] = [0, 5, 17, 33];

    // Four shard "processes", each behind a fault-free chaos proxy so the
    // fleet-visible address survives a restart onto a fresh port.
    let mut shards: Vec<Option<ShardServer>> =
        (0..NSHARDS).map(|_| Some(ShardServer::spawn())).collect();
    let proxies: Vec<ChaosProxy> = shards
        .iter()
        .map(|s| ChaosProxy::start(&s.as_ref().unwrap().addr(), ChaosPlan::none(1)).expect("proxy"))
        .collect();
    let addrs: Vec<String> = proxies.iter().map(|p| p.local_addr().to_string()).collect();

    let fleet = Arc::new(Fleet::connect(&addrs, fleet_cfg()).expect("fleet"));
    let front = listen_with(
        Arc::clone(&fleet),
        "127.0.0.1:0",
        4,
        SessionOptions::default(),
    )
    .expect("front-end listen");
    let mut client = Client::connect(front.local_addr()).expect("connect front");

    // The unsharded oracle holds the SAME data in one process.
    let oracle = ShardServer::spawn();
    let mut oracle_client = Client::connect(&oracle.addr()).expect("connect oracle");

    for id in 0..N {
        let r = client.call(&upsert_payload(id)).expect("fleet upsert");
        assert!(r.contains("\"replaced\":false"), "{r}");
        let r = oracle_client
            .call(&upsert_payload(id))
            .expect("oracle upsert");
        assert!(r.contains("\"replaced\":false"), "{r}");
    }
    let r = client.call("{\"op\":\"compact\"}").expect("fleet compact");
    assert!(r.contains(&format!("\"sealed\":{N}")), "{r}");
    oracle_client
        .call("{\"op\":\"compact\"}")
        .expect("oracle compact");

    // Healthy fleet: full answers, bit-exact against the oracle.
    for qid in QIDS {
        let f = client.call(&knn_payload(qid, 5)).expect("fleet knn");
        assert!(
            f.contains("\"partial\":false,\"shards_ok\":4,\"shards_total\":4"),
            "{f}"
        );
        let o = oracle_client
            .call(&knn_payload(qid, 5))
            .expect("oracle knn");
        assert_eq!(hits_of(&f), hits_of(&o), "query {qid}");
    }
    // Aggregated stats see every vector and all-Up health.
    let stats = client.call("{\"op\":\"stats\"}").expect("stats");
    assert!(stats.contains(&format!("\"size\":{N}")), "{stats}");
    assert!(
        stats.contains("\"health\":[\"up\",\"up\",\"up\",\"up\"]"),
        "{stats}"
    );

    // Kill shard 0 mid-pipelined-query: queue six queries, kill, drain.
    const BATCH: u64 = 6;
    for req in 0..BATCH {
        let payload = format!(
            "{{\"req\":{req},\"op\":\"knn\",\"traj\":{},\"k\":5}}",
            traj_json(&traj_for(QIDS[(req % 4) as usize]))
        );
        client.send(&payload).expect("send");
    }
    shards[0].take().unwrap().kill();
    let drain_started = Instant::now();
    for _ in 0..BATCH {
        let r = client.recv().expect("recv").expect("open front connection");
        // Depending on the race each answer is full or partial — but it
        // IS an answer, never a hang and never a transport error.
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    assert!(
        drain_started.elapsed() < Duration::from_secs(20),
        "pipelined drain took {:?} — a downstream read blocked past its deadline",
        drain_started.elapsed()
    );

    // Settled degraded state: partial answers with correct counts,
    // within the per-op deadline, and the survivors' hits still exact.
    let one = Instant::now();
    let f = client.call(&knn_payload(QIDS[1], 5)).expect("degraded knn");
    assert!(
        one.elapsed() < fleet_cfg().op_deadline + Duration::from_secs(2),
        "degraded knn took {:?}",
        one.elapsed()
    );
    assert!(
        f.contains("\"partial\":true,\"shards_ok\":3,\"shards_total\":4"),
        "{f}"
    );
    wait_for(
        || fleet.health()[0] == ShardHealth::Down,
        Duration::from_secs(10),
        "shard 0 marked down",
    );
    // Writes owned by the dead shard error in-band, immediately.
    let owned_by_0: Vec<u64> = (0..N).filter(|&id| shard_for(id, NSHARDS) == 0).collect();
    assert!(!owned_by_0.is_empty(), "hash sent no ids to shard 0?");
    let w = Instant::now();
    let r = client
        .call(&upsert_payload(owned_by_0[0]))
        .expect("refused write still answers");
    assert!(r.contains("\"ok\":false"), "{r}");
    assert!(r.contains("down"), "{r}");
    assert!(w.elapsed() < Duration::from_secs(2), "{:?}", w.elapsed());

    // Restart shard 0 (fresh process, fresh port, EMPTY index) behind
    // the same front address; the prober re-admits it half-open.
    let restarted = ShardServer::spawn();
    proxies[0].set_upstream(&restarted.addr());
    wait_for(
        || fleet.health()[0] == ShardHealth::Up,
        Duration::from_secs(10),
        "shard 0 re-admitted",
    );

    // Re-drive the lost partition through the fleet, then the answers
    // must be bit-exact against the oracle again.
    for &id in &owned_by_0 {
        let r = client.call(&upsert_payload(id)).expect("re-upsert");
        assert!(r.contains("\"replaced\":false"), "{r}");
    }
    let r = client.call("{\"op\":\"compact\"}").expect("compact");
    assert!(r.contains("\"partial\":false"), "{r}");
    for qid in QIDS {
        let f = client.call(&knn_payload(qid, 5)).expect("recovered knn");
        assert!(
            f.contains("\"partial\":false,\"shards_ok\":4,\"shards_total\":4"),
            "{f}"
        );
        let o = oracle_client
            .call(&knn_payload(qid, 5))
            .expect("oracle knn");
        assert_eq!(hits_of(&f), hits_of(&o), "query {qid} after recovery");
    }

    front.shutdown();
    fleet.shutdown();
    for p in proxies {
        p.shutdown();
    }
    restarted.kill();
    for s in shards.into_iter().flatten() {
        s.kill();
    }
    oracle.kill();
}

/// The `"req":N` echo of a response (pipelined-batch bookkeeping).
fn req_of(resp: &str) -> usize {
    let at = resp
        .find("\"req\":")
        .unwrap_or_else(|| panic!("no req echo in {resp}"))
        + "\"req\":".len();
    resp[at..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .fold(0, |acc, b| acc * 10 + usize::from(b - b'0'))
}

/// ROADMAP fleet follow-on (a), closed by the WAL: a durable shard is
/// killed mid-pipelined-upsert, restarted on the same WAL directory,
/// and recovers **every acknowledged write by itself** — no operator
/// replay of the lost partition. After the in-flight batch is re-driven
/// (idempotent), the fleet's answers are bit-exact against an
/// always-alive unsharded oracle.
#[test]
fn shard_restart_with_wal_recovers_acked_writes() {
    const NSHARDS: usize = 2;
    const N: u64 = 32;
    let wal_dir = std::env::temp_dir().join(format!("trajcl-chaos-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Shard 0 is durable; shard 1 and the oracle are plain in-memory
    // servers. Both shards sit behind fault-free proxies so the
    // fleet-visible address survives shard 0's restart.
    let shard0 = ShardServer::spawn_wal(&wal_dir);
    let shard1 = ShardServer::spawn();
    let proxies = [
        ChaosProxy::start(&shard0.addr(), ChaosPlan::none(1)).expect("proxy 0"),
        ChaosProxy::start(&shard1.addr(), ChaosPlan::none(2)).expect("proxy 1"),
    ];
    let addrs: Vec<String> = proxies.iter().map(|p| p.local_addr().to_string()).collect();
    let fleet = Arc::new(Fleet::connect(&addrs, fleet_cfg()).expect("fleet"));
    let front = listen_with(
        Arc::clone(&fleet),
        "127.0.0.1:0",
        4,
        SessionOptions::default(),
    )
    .expect("front-end listen");
    let mut client = Client::connect(front.local_addr()).expect("connect front");
    let oracle = ShardServer::spawn();
    let mut oracle_client = Client::connect(&oracle.addr()).expect("connect oracle");

    for id in 0..N {
        let r = client.call(&upsert_payload(id)).expect("fleet upsert");
        assert!(r.contains("\"replaced\":false"), "{r}");
        oracle_client
            .call(&upsert_payload(id))
            .expect("oracle upsert");
    }
    // Compact checkpoints shard 0's WAL (snapshot + log truncate): the
    // seeded ids now live in the checkpoint, not the log.
    let r = client.call("{\"op\":\"compact\"}").expect("fleet compact");
    assert!(r.contains("\"ok\":true"), "{r}");
    oracle_client
        .call("{\"op\":\"compact\"}")
        .expect("oracle compact");

    // Pipeline 8 fresh upserts owned by shard 0, kill it mid-batch, and
    // record which of them the fleet actually acknowledged.
    let fresh: Vec<u64> = (1000..)
        .filter(|&id| shard_for(id, NSHARDS) == 0)
        .take(8)
        .collect();
    for (req, &id) in fresh.iter().enumerate() {
        let payload = format!(
            "{{\"req\":{req},\"op\":\"upsert\",\"id\":{id},\"traj\":{}}}",
            traj_json(&traj_for(id))
        );
        client.send(&payload).expect("send");
    }
    shard0.kill();
    let mut acked: Vec<u64> = Vec::new();
    for _ in 0..fresh.len() {
        let r = client.recv().expect("recv").expect("open front connection");
        // An in-band error is the fleet telling the client the write did
        // NOT happen; an ack means the shard fsync'd it before dying.
        if r.contains("\"ok\":true") {
            acked.push(fresh[req_of(&r)]);
        }
    }
    wait_for(
        || fleet.health()[0] == ShardHealth::Down,
        Duration::from_secs(10),
        "shard 0 marked down",
    );

    // Restart on the SAME WAL directory: the shard recovers its own
    // partition (checkpoint + log tail) before answering the prober.
    let restarted = ShardServer::spawn_wal(&wal_dir);
    let rec = restarted.server.wal_recovery().expect("recovery ran");
    assert!(
        rec.checkpoint_rows > 0,
        "compact must have checkpointed the seeded partition: {rec:?}"
    );
    proxies[0].set_upstream(&restarted.addr());
    wait_for(
        || fleet.health()[0] == ShardHealth::Up,
        Duration::from_secs(10),
        "shard 0 re-admitted",
    );

    // Durability invariant: every acknowledged write survived the kill —
    // its self-query answers through the fleet at exactly distance 0.
    // So did the checkpointed seeded partition.
    let seeded_on_0: Vec<u64> = (0..N).filter(|&id| shard_for(id, NSHARDS) == 0).collect();
    assert!(
        !seeded_on_0.is_empty(),
        "hash sent no seeded ids to shard 0?"
    );
    for &id in acked.iter().chain(seeded_on_0.iter().take(3)) {
        let f = client.call(&knn_payload(id, 1)).expect("recovered knn");
        assert_eq!(
            read_hits(&f),
            Ok(vec![(id, 0.0)]),
            "acked write {id} lost after restart: {f}"
        );
    }

    // Re-drive the whole in-flight batch (idempotent — acked ids are
    // replaced, lost ones inserted), mirror it into the oracle, compact
    // both, and the merged answers must be bit-exact again.
    for &id in &fresh {
        let r = client.call(&upsert_payload(id)).expect("re-upsert");
        assert!(r.contains("\"ok\":true"), "{r}");
        oracle_client
            .call(&upsert_payload(id))
            .expect("oracle upsert");
    }
    let r = client.call("{\"op\":\"compact\"}").expect("fleet compact");
    assert!(r.contains("\"partial\":false"), "{r}");
    oracle_client
        .call("{\"op\":\"compact\"}")
        .expect("oracle compact");
    for qid in [0u64, 7, 17, fresh[0], fresh[5]] {
        let f = client.call(&knn_payload(qid, 5)).expect("recovered knn");
        assert!(
            f.contains("\"partial\":false,\"shards_ok\":2,\"shards_total\":2"),
            "{f}"
        );
        let o = oracle_client
            .call(&knn_payload(qid, 5))
            .expect("oracle knn");
        assert_eq!(hits_of(&f), hits_of(&o), "query {qid} after recovery");
    }

    front.shutdown();
    fleet.shutdown();
    for p in proxies {
        p.shutdown();
    }
    restarted.kill();
    shard1.kill();
    oracle.kill();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Frame-level faults (drop / garble / truncate / delay) between the
/// fleet and its only shard: every request is answered or in-band
/// errored within bounds, state converges, and the final index matches
/// a direct unproxied view bit-for-bit.
#[test]
fn fleet_survives_frame_faults_and_converges() {
    let shard = ShardServer::spawn();
    let plan = ChaosPlan {
        drop_per_mille: 50,
        garble_per_mille: 30,
        truncate_per_mille: 20,
        delay_per_mille: 50,
        delay: ms(20),
        ..ChaosPlan::none(2024)
    };
    let proxy = ChaosProxy::start(&shard.addr(), plan).expect("proxy");
    let mut cfg = fleet_cfg();
    cfg.client.read_timeout = Some(ms(300)); // dropped frames fail fast
    cfg.retries = 3;
    // The startup probe itself runs through the faulty proxy; its frames
    // can be faulted, so allow a few (deterministic) attempts.
    let addrs = [proxy.local_addr().to_string()];
    let fleet = (0..5)
        .find_map(|_| Fleet::connect(&addrs, cfg).ok())
        .expect("fleet never connected through the chaos proxy");

    const N: u64 = 40;
    let mut in_band_errors = 0u32;
    for id in 0..N {
        // The fleet retries transport faults internally; a call that
        // still fails surfaces in-band and we just try again — exactly
        // what a real writer does.
        let mut done = false;
        for _ in 0..20 {
            let r = fleet.handle_frame(&upsert_payload(id));
            if r.contains("\"ok\":true") {
                done = true;
                break;
            }
            in_band_errors += 1;
        }
        assert!(done, "upsert {id} never succeeded");
    }
    for _ in 0..20 {
        if fleet
            .handle_frame("{\"op\":\"compact\"}")
            .contains("\"ok\":true")
        {
            break;
        }
    }

    // The fleet's view converges with the direct, unproxied view.
    let mut direct = Client::connect(&shard.addr()).expect("direct connect");
    for qid in [1u64, 9, 23] {
        let d = direct.call(&knn_payload(qid, 5)).expect("direct knn");
        let mut f = String::new();
        for _ in 0..20 {
            f = fleet.handle_frame(&knn_payload(qid, 5));
            if f.contains("\"ok\":true") {
                break;
            }
        }
        assert!(f.contains("\"ok\":true"), "{f}");
        assert_eq!(hits_of(&f), hits_of(&d), "query {qid}");
    }
    assert!(
        proxy.faults_injected() > 0,
        "the plan injected nothing — the test exercised no fault path"
    );
    // The seeded schedule really did bite (and the fleet absorbed it).
    eprintln!(
        "chaos: {} frames forwarded, {} faults injected, {} in-band errors surfaced",
        proxy.frames_forwarded(),
        proxy.faults_injected(),
        in_band_errors
    );

    fleet.shutdown();
    proxy.shutdown();
    shard.kill();
}

/// A listener that accepts, reads, answers `ping` — and silently
/// swallows everything else (see
/// `stalled_shard_hits_read_deadline_and_degrades`), after answering its
/// first `answers` data frames like a shard that holds `hits`.
struct Staller {
    addr: String,
    /// Frames swallowed so far.
    swallowed: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

/// A shard's reply to `query`, written here from the spec (PROTOCOL.md
/// §2.2): an `embed` gets the fixed embedding `[1.0, 2.5]` as `vec_bits`;
/// a `knn` gets `hits` as `hits_bits` when it came in an exact form
/// (`traj_bits` or `vec_bits`), else as the text `hits`.
fn crafted_reply(query: &str, hits: &[(u64, f64)]) -> String {
    if query.contains("\"op\":\"embed\"") {
        return "{\"ok\":true,\"vec_bits\":\"3f80000040200000\"}".to_string();
    }
    if query.contains("\"traj_bits\"") || query.contains("\"vec_bits\"") {
        let hex: String = hits
            .iter()
            .map(|(id, d)| format!("{id:016x}{:016x}", d.to_bits()))
            .collect();
        return format!("{{\"ok\":true,\"hits_bits\":\"{hex}\"}}");
    }
    let rows: Vec<String> = hits
        .iter()
        .enumerate()
        .map(|(rank, (id, d))| {
            format!(
                "{{\"rank\":{},\"index\":{id},\"distance\":{d:.6}}}",
                rank + 1
            )
        })
        .collect();
    format!("{{\"ok\":true,\"hits\":[{}]}}", rows.join(","))
}

impl Staller {
    fn spawn() -> Staller {
        Staller::spawn_after(0)
    }

    fn spawn_after(answers: usize) -> Staller {
        Staller::answering(Vec::new(), answers)
    }

    /// A fake shard that answers its first `answers` data frames with
    /// `hits`, whatever the query, then stalls.
    fn answering(hits: Vec<(u64, f64)>, answers: usize) -> Staller {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let swallowed = Arc::new(AtomicUsize::new(0));
        let answered = Arc::new(AtomicUsize::new(0));
        let hits = Arc::new(hits);
        let thread = {
            let (stop, swallowed) = (Arc::clone(&stop), Arc::clone(&swallowed));
            std::thread::spawn(move || {
                listener.set_nonblocking(false).expect("blocking listener");
                while !stop.load(Ordering::Acquire) {
                    let Ok((conn, _)) = listener.accept() else {
                        break;
                    };
                    let (swallowed, answered) = (Arc::clone(&swallowed), Arc::clone(&answered));
                    let hits = Arc::clone(&hits);
                    std::thread::spawn(move || {
                        let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
                        let mut writer = conn;
                        while let Ok(Some(payload)) = read_frame(&mut reader) {
                            let reply = if payload.contains("\"op\":\"ping\"") {
                                "{\"ok\":true,\"pong\":true}".to_string()
                            } else if answered.fetch_add(1, Ordering::AcqRel) < answers {
                                crafted_reply(&payload, &hits)
                            } else {
                                // Swallowed. The caller waits.
                                swallowed.fetch_add(1, Ordering::AcqRel);
                                continue;
                            };
                            if write_frame(&mut writer, &reply).is_err() {
                                return;
                            }
                        }
                    });
                }
            })
        };
        Staller {
            addr,
            swallowed,
            stop,
            thread,
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Release);
        let _ = std::net::TcpStream::connect(&self.addr); // wake accept()
        let _ = self.thread.join();
    }
}

/// A shard that accepts, reads, answers `ping` — and silently swallows
/// everything else. The deadliest failure mode: TCP healthy, probes
/// green, data path dead. Reads must still complete within the op
/// budget, marked partial.
#[test]
fn stalled_shard_hits_read_deadline_and_degrades() {
    let staller = Staller::spawn();
    let real = ShardServer::spawn();
    let mut cfg = fleet_cfg();
    cfg.client.read_timeout = Some(ms(300));
    cfg.op_deadline = ms(1000);
    let addrs = [real.addr(), staller.addr.clone()];
    let fleet = Fleet::connect(&addrs, cfg).expect("fleet");

    // Seed only ids the REAL shard owns (writes to the staller would
    // themselves stall into their deadline — separately tested budget).
    let mine: Vec<u64> = (0..40).filter(|&id| shard_for(id, 2) == 0).collect();
    for &id in &mine {
        let r = fleet.handle_frame(&upsert_payload(id));
        assert!(r.contains("\"ok\":true"), "{r}");
    }

    // The scattered read: the staller burns its read deadline, the
    // answer still arrives within the op budget, marked partial.
    let started = Instant::now();
    let f = fleet.handle_frame(&knn_payload(mine[0], 3));
    let elapsed = started.elapsed();
    assert!(
        f.contains("\"partial\":true,\"shards_ok\":1,\"shards_total\":2"),
        "{f}"
    );
    assert!(
        hits_of(&f).starts_with(&format!("\"hits_bits\":\"{:016x}", mine[0])),
        "{f}"
    );
    assert!(
        elapsed < Duration::from_secs(4),
        "stalled-shard knn took {elapsed:?}"
    );
    // The staller is now marked unhealthy; pings keep it from flapping
    // all the way out, but it must not be Up.
    assert_ne!(fleet.health()[1], ShardHealth::Up, "{:?}", fleet.health());

    fleet.shutdown();
    staller.stop();
    real.kill();
}

/// One budget per routed op: an `embed` tries shards in turn, and shards
/// that stall past `op_deadline` share that one budget rather than take
/// one each. Three stallers and one real shard, last: whatever shard an
/// `embed` starts at, its reply arrives within the budget (plus slack).
/// It is the embedding, or an in-band error once the stallers spent the
/// budget. Both kinds turn up, so the embeds did start at different shards.
#[test]
fn an_op_failing_over_past_stalled_shards_answers_within_one_budget() {
    let stallers: Vec<Staller> = (0..3).map(|_| Staller::spawn()).collect();
    let real = ShardServer::spawn();
    let mut cfg = fleet_cfg();
    cfg.client.read_timeout = Some(ms(3000));
    cfg.op_deadline = ms(500);
    let budget = cfg.op_deadline.mul_f64(1.5);
    let mut addrs: Vec<String> = stallers.iter().map(|s| s.addr.clone()).collect();
    addrs.push(real.addr());
    let fleet = Fleet::connect(&addrs, cfg).expect("fleet");

    let (mut embedded, mut refused) = (0, 0);
    for id in 0..10u64 {
        let payload = format!(
            "{{\"req\":{id},\"op\":\"embed\",\"traj\":{}}}",
            traj_json(&traj_for(id))
        );
        let started = Instant::now();
        let reply = fleet.handle_frame(&payload);
        let took = started.elapsed();
        assert!(took < budget, "embed {id} took {took:?}: {reply}");
        if reply.starts_with(&format!("{{\"req\":{id},\"ok\":true,\"embedding\":[")) {
            embedded += 1;
        } else {
            assert!(
                reply.starts_with(&format!("{{\"req\":{id},\"ok\":false,\"error\":\"shard ")),
                "{reply}"
            );
            refused += 1;
        }
    }
    assert!(
        embedded > 0 && refused > 0,
        "{embedded} embedded, {refused} refused"
    );

    fleet.shutdown();
    for s in stallers {
        s.stop();
    }
    real.kill();
}

/// The fleet merges on exact distances: two hits 3e-7 apart, on two
/// shards, keep their order, although both print as `1.000000`. Merged on
/// the printed text they would tie, and the tie would go to the lower id.
#[test]
fn the_fleet_merges_on_exact_distances() {
    let a = Staller::answering(vec![(9, 1.000_000_1)], usize::MAX);
    let b = Staller::answering(vec![(3, 1.000_000_4)], usize::MAX);
    let fleet = Fleet::connect(&[a.addr.clone(), b.addr.clone()], fleet_cfg()).expect("fleet");
    let query = format!(
        "{{\"op\":\"knn\",\"traj\":{},\"k\":2}}",
        traj_json(&traj_for(0))
    );
    let reply = fleet.handle_frame(&query);
    assert!(
        reply.ends_with(
            "\"hits\":[{\"rank\":1,\"index\":9,\"distance\":1.000000},\
             {\"rank\":2,\"index\":3,\"distance\":1.000000}]}"
        ),
        "{reply}"
    );
    fleet.shutdown();
    a.stop();
    b.stop();
}

/// Fail-closed fleets refuse degraded reads instead of answering
/// partially; writes to a down shard are refused in-band either way.
#[test]
fn fail_closed_refuses_partial_answers() {
    let real = ShardServer::spawn();
    let mut cfg = fleet_cfg();
    cfg.fail_closed = true;
    // Port 1 refuses connections: shard 1 is Down from the start.
    let addrs = [real.addr(), "127.0.0.1:1".to_string()];
    let fleet = Fleet::connect(&addrs, cfg).expect("one live shard suffices");
    assert_eq!(fleet.health()[1], ShardHealth::Down);

    let id_live = (0..64).find(|&id| shard_for(id, 2) == 0).unwrap();
    let r = fleet.handle_frame(&upsert_payload(id_live));
    assert!(r.contains("\"ok\":true"), "{r}");

    let r = fleet.handle_frame(&knn_payload(id_live, 1));
    assert!(r.contains("\"ok\":false"), "{r}");
    assert!(r.contains("fail-closed"), "{r}");

    let id_dead = (0..64).find(|&id| shard_for(id, 2) == 1).unwrap();
    let r = fleet.handle_frame(&upsert_payload(id_dead));
    assert!(r.contains("\"ok\":false"), "{r}");
    assert!(r.contains("down"), "{r}");

    fleet.shutdown();
    real.kill();
}

/// The retry-storm regression, as a count: a scatter must not touch a
/// shard whose breaker is open — no dial, no retry, no budget spent on
/// the corpse — so degraded reads cost what healthy ones do.
#[test]
fn down_shard_is_never_dialled_by_reads() {
    const NSHARDS: usize = 4;
    // Shard 0 accepts and drops every connection, counting accepts: any
    // touch (probe, dial, retry) is one more.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let corpse_addr = listener.local_addr().expect("addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let accepts = Arc::new(AtomicUsize::new(0));
    let corpse = {
        let (stop, accepts) = (Arc::clone(&stop), Arc::clone(&accepts));
        std::thread::spawn(move || {
            while let Ok((conn, _)) = listener.accept() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                accepts.fetch_add(1, Ordering::AcqRel);
                drop(conn);
            }
        })
    };
    let live: Vec<ShardServer> = (1..NSHARDS).map(|_| ShardServer::spawn()).collect();
    let mut addrs = vec![corpse_addr.clone()];
    addrs.extend(live.iter().map(ShardServer::addr));

    // The start-up probe is the failure that opens the breaker (`connect`
    // leaves the shard at `down_after` strikes); the prober, the only
    // thing allowed to talk to a Down shard, sleeps past the test's end.
    let mut cfg = fleet_cfg();
    cfg.probe_interval = Duration::from_secs(3600);
    let fleet = Fleet::connect(&addrs, cfg).expect("three live shards suffice");
    assert_eq!(fleet.health()[0], ShardHealth::Down);
    assert_eq!(accepts.load(Ordering::Acquire), 1, "the start-up probe");

    let ids: Vec<u64> = (0..48).filter(|&id| shard_for(id, NSHARDS) != 0).collect();
    for &id in &ids {
        let r = fleet.handle_frame(&upsert_payload(id));
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    for i in 0..50 {
        let r = fleet.handle_frame(&knn_payload(ids[i % ids.len()], 5));
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(
            r.contains("\"partial\":true,\"shards_ok\":3,\"shards_total\":4"),
            "{r}"
        );
    }

    // The wake-up connection queues behind any dial the reads made, so
    // once the thread is joined the count is final.
    stop.store(true, Ordering::Release);
    let _ = std::net::TcpStream::connect(&corpse_addr);
    corpse.join().expect("corpse thread");
    assert_eq!(
        accepts.load(Ordering::Acquire),
        1,
        "a read touched the Down shard"
    );

    fleet.shutdown();
    for s in live {
        s.kill();
    }
}

/// `kill_after_frames`: the proxy severs the connection after its frame
/// budget — a plain client sees the documented mid-stream death, and
/// the server keeps serving fresh connections.
#[test]
fn kill_after_frames_severs_the_connection() {
    let shard = ShardServer::spawn();
    let plan = ChaosPlan {
        kill_after_frames: Some(4),
        ..ChaosPlan::none(7)
    };
    let proxy = ChaosProxy::start(&shard.addr(), plan).expect("proxy");

    let mut client = Client::connect_with(
        proxy.local_addr(),
        &ClientOptions {
            read_timeout: Some(ms(500)),
            ..ClientOptions::default()
        },
    )
    .expect("connect");
    // 2 round trips = 4 frames: both succeed, the 5th frame dies.
    for _ in 0..2 {
        let r = client.call("{\"op\":\"ping\"}").expect("ping");
        assert!(r.contains("\"pong\":true"), "{r}");
    }
    let dead = client.call("{\"op\":\"ping\"}");
    assert!(dead.is_err(), "{dead:?}");

    // A fresh connection through the proxy gets its own frame budget.
    let mut fresh = Client::connect(proxy.local_addr()).expect("reconnect");
    let r = fresh
        .call("{\"op\":\"ping\"}")
        .expect("ping after reconnect");
    assert!(r.contains("\"pong\":true"), "{r}");

    proxy.shutdown();
    shard.kill();
}

/// Upserts `ids` through `fleet` and into a fresh unsharded oracle
/// (neither compacted: buffer scans are exact on both sides) and
/// returns the oracle with a connection to it.
fn seed_with_oracle(fleet: &Fleet, ids: &[u64]) -> (ShardServer, Client) {
    let oracle = ShardServer::spawn();
    let mut oracle_client = Client::connect(&oracle.addr()).expect("connect oracle");
    for &id in ids {
        let r = fleet.handle_frame(&upsert_payload(id));
        assert!(r.contains("\"ok\":true"), "{r}");
        oracle_client
            .call(&upsert_payload(id))
            .expect("oracle upsert");
    }
    (oracle, oracle_client)
}

/// The scatter's envelope with one shard stalled PAST the op budget
/// (its read deadline is longer than `op_deadline`) on a LIVE connection
/// — so the stall happens in the pipelined attempt, while the scatter owns
/// connections to shards 1–3 — and the healthy shards sit behind 40 ms
/// round trips (slower than the 1 ms read floor). The answer takes one
/// budget, not one per shard; the three shards that answered are all in it
/// (a reply already in the socket buffer is read even though the slow
/// sibling spent the budget). A stalled shard holds up nobody else: a write
/// to a healthy shard issued while the scatter waits on shard 0 takes one
/// round trip on a connection of its own, and a second scatter issued then
/// answers 3 of 4 within its own budget.
#[test]
fn scatter_with_a_stalled_shard_takes_one_budget_and_keeps_the_healthy_replies() {
    const NSHARDS: usize = 4;
    // Shard 0 answers one data frame (the warming kNN), then stalls.
    let staller = Staller::spawn_after(1);
    let real: Vec<ShardServer> = (1..NSHARDS).map(|_| ShardServer::spawn()).collect();
    let slow = ChaosPlan {
        delay_per_mille: 1000,
        delay: ms(20),
        ..ChaosPlan::none(5)
    };
    let proxies: Vec<ChaosProxy> = real
        .iter()
        .map(|s| ChaosProxy::start(&s.addr(), slow).expect("proxy"))
        .collect();
    let mut cfg = fleet_cfg();
    cfg.client.read_timeout = Some(ms(3000));
    cfg.op_deadline = ms(800);
    let budget = cfg.op_deadline.mul_f64(1.5);
    let mut addrs = vec![staller.addr.clone()];
    addrs.extend(proxies.iter().map(|p| p.local_addr().to_string()));
    let fleet = Arc::new(Fleet::connect(&addrs, cfg).expect("fleet"));

    // Seed only ids the real shards own: the oracle over the same ids
    // is then exactly "every hit of the three healthy shards".
    let mine: Vec<u64> = (0..32).filter(|&id| shard_for(id, NSHARDS) != 0).collect();
    let (oracle, mut oracle_client) = seed_with_oracle(&fleet, &mine);
    let o = oracle_client
        .call(&knn_payload(mine[0], 5))
        .expect("oracle knn");
    // The warming kNN: `Fleet::connect` dials nothing, so this is what
    // gives shard 0 the live connection the next scatter pipelines on.
    let warm = fleet.handle_frame(&knn_payload(mine[0], 5));
    assert!(warm.contains("\"partial\":false,\"shards_ok\":4"), "{warm}");
    assert_eq!(hits_of(&warm), hits_of(&o));
    assert_eq!(fleet.health(), vec![ShardHealth::Up; NSHARDS]);

    let scatter = || {
        let fleet = Arc::clone(&fleet);
        let payload = knn_payload(mine[0], 5);
        std::thread::spawn(move || {
            let started = Instant::now();
            (fleet.handle_frame(&payload), started.elapsed())
        })
    };
    let first = scatter();
    // Once shard 0 has swallowed the query, the scatter is under way: it
    // has written to every shard, owns a connection to each and waits on
    // shard 0.
    wait_for(
        || staller.swallowed.load(Ordering::Acquire) > 0,
        budget,
        "the scatter to reach shard 0",
    );
    let queued = scatter();
    let owned_by_1 = *mine
        .iter()
        .find(|&&id| shard_for(id, NSHARDS) == 1)
        .expect("an id on shard 1");
    let write_started = Instant::now();
    let w = fleet.handle_frame(&upsert_payload(owned_by_1));
    let write_took = write_started.elapsed();
    assert!(w.contains("\"replaced\":true"), "{w}");
    assert!(
        write_took < cfg.op_deadline / 2,
        "a write to a healthy shard waited {write_took:?} behind the stalled scatter"
    );

    // The second scatter waits for nothing the first one holds: it dials
    // connections of its own and answers within its own budget.
    for scatter in [first, queued] {
        let (f, took) = scatter.join().expect("scatter thread");
        assert!(
            f.contains("\"partial\":true,\"shards_ok\":3,\"shards_total\":4"),
            "{f}"
        );
        assert!(took < budget, "stalled-shard knn took {took:?}");
        assert_eq!(hits_of(&f), hits_of(&o));
    }
    // Only the shard that stalled pays for it.
    assert_ne!(fleet.health()[0], ShardHealth::Up, "{:?}", fleet.health());
    assert_eq!(fleet.health()[1..], [ShardHealth::Up; NSHARDS - 1]);

    fleet.shutdown();
    staller.stop();
    for p in proxies {
        p.shutdown();
    }
    for s in real {
        s.kill();
    }
    oracle.kill();
}

/// A shard connection severed BETWEEN two requests: the scatter's
/// pipelined write lands on a dead connection, which the read finds closed
/// before the reply begins. That costs the shard nothing (it never leaves
/// Up), and the same attempt dials again and completes the answer bit-exactly.
#[test]
fn severed_connection_costs_no_failure_and_a_fresh_dial_completes_the_answer() {
    const NSHARDS: usize = 2;
    let shards = [ShardServer::spawn(), ShardServer::spawn()];
    let ids: Vec<u64> = (0..24).collect();
    let on_0 = ids
        .iter()
        .filter(|&&id| shard_for(id, NSHARDS) == 0)
        .count() as u64;
    // Shard 0's connection carries its upserts and one kNN (two frames
    // each), then dies on the next frame it is handed.
    let plan = ChaosPlan {
        kill_after_frames: Some(2 * (on_0 + 1)),
        ..ChaosPlan::none(11)
    };
    let proxy = ChaosProxy::start(&shards[0].addr(), plan).expect("proxy");
    let addrs = [proxy.local_addr().to_string(), shards[1].addr()];
    let fleet = Arc::new(Fleet::connect(&addrs, fleet_cfg()).expect("fleet"));
    let (oracle, mut oracle_client) = seed_with_oracle(&fleet, &ids);

    let watch = HealthWatch::start(&fleet, 0);
    for qid in [3u64, 9] {
        let f = fleet.handle_frame(&knn_payload(qid, 5));
        assert!(
            f.contains("\"partial\":false,\"shards_ok\":2,\"shards_total\":2"),
            "query {qid}: {f}"
        );
        let o = oracle_client
            .call(&knn_payload(qid, 5))
            .expect("oracle knn");
        assert_eq!(hits_of(&f), hits_of(&o), "query {qid}");
    }
    assert_eq!(
        watch.seen(),
        [ShardHealth::Up],
        "a connection found closed before the reply is no failure"
    );
    assert_eq!(proxy.faults_injected(), 1, "the kill budget never fired");

    fleet.shutdown();
    proxy.shutdown();
    for s in shards {
        s.kill();
    }
    oracle.kill();
}

/// A shard that closed every idle connection the fleet holds to it (its
/// idle reaper, or a restart behind a stable address) is charged nothing.
/// Three writes at once, with `down_after` 2, each pop a closed connection,
/// find it closed before the reply begins and dial a fresh one in the same
/// attempt: the shard never leaves Up and every write lands.
#[test]
fn idle_connections_the_shard_closed_cost_it_no_failure() {
    const CALLS: u64 = 3;
    let shard = ShardServer::spawn();
    // Every frame waits 100 ms each way, so calls started together are all
    // in flight at once and each holds a connection of its own.
    let slow = ChaosPlan {
        delay_per_mille: 1000,
        delay: ms(100),
        ..ChaosPlan::none(13)
    };
    let proxy = ChaosProxy::start(&shard.addr(), slow).expect("proxy");
    let fleet =
        Arc::new(Fleet::connect(&[proxy.local_addr().to_string()], fleet_cfg()).expect("fleet"));
    let burst = |payload: fn(u64) -> String| {
        let start = Arc::new(std::sync::Barrier::new(CALLS as usize));
        let calls: Vec<_> = (0..CALLS)
            .map(|id| {
                let (fleet, start) = (Arc::clone(&fleet), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    fleet.handle_frame(&payload(id))
                })
            })
            .collect();
        calls.into_iter().map(|call| call.join().expect("call"))
    };
    for r in burst(|id| knn_payload(id, 1)) {
        assert!(r.contains("\"partial\":false"), "{r}");
    }
    // Frames through the proxy, one request and one reply each: the
    // start-up probe's `ping` (2), then per call (all three queries are
    // new to the front-end's cache) its `embed` leg (2) and its one-shard
    // scatter (2).
    assert_eq!(
        proxy.frames_forwarded(),
        2 + 4 * CALLS,
        "the start-up probe and the calls, with no retry"
    );

    proxy.sever_all();
    let watch = HealthWatch::start(&fleet, 0);
    for r in burst(upsert_payload) {
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    assert_eq!(watch.seen(), [ShardHealth::Up]);
    for id in 0..CALLS {
        let r = fleet.handle_frame(&knn_payload(id, 1));
        assert_eq!(read_hits(&r), Ok(vec![(id, 0.0)]), "{r}");
    }

    drop(fleet);
    proxy.shutdown();
    shard.kill();
}

/// A shard whose host stops completing TCP handshakes while it is still Up
/// (its accept queue is full, so the kernel drops every SYN), under an op
/// budget shorter than the connect deadline: the scatter's dial to it
/// spends the whole budget, but the dials come after every write on an
/// idle connection, so the three healthy shards' replies — 40 ms round
/// trips, far slower than the 1 ms read floor — are all in the answer.
/// Degraded, the dark shard is dialled only after the reads.
#[test]
fn a_shard_whose_dial_never_completes_keeps_its_siblings_replies() {
    const NSHARDS: usize = 4;
    // Shard 0 answers the start-up probe, then never accepts again.
    let dark = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let dark_addr = dark.local_addr().expect("addr");
    let probe = {
        let dark = dark.try_clone().expect("clone");
        std::thread::spawn(move || {
            let (mut conn, _) = dark.accept().expect("probe");
            let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
            let ping = read_frame(&mut reader).expect("ping").expect("ping frame");
            assert!(ping.contains("\"op\":\"ping\""), "{ping}");
            write_frame(&mut conn, "{\"ok\":true,\"pong\":true}").expect("pong");
        })
    };
    let real: Vec<ShardServer> = (1..NSHARDS).map(|_| ShardServer::spawn()).collect();
    let slow = ChaosPlan {
        delay_per_mille: 1000,
        delay: ms(20),
        ..ChaosPlan::none(17)
    };
    let proxies: Vec<ChaosProxy> = real
        .iter()
        .map(|s| ChaosProxy::start(&s.addr(), slow).expect("proxy"))
        .collect();
    let mut cfg = fleet_cfg();
    cfg.client.connect_timeout = Some(ms(1000));
    cfg.op_deadline = ms(400);
    let mut addrs = vec![dark_addr.to_string()];
    addrs.extend(proxies.iter().map(|p| p.local_addr().to_string()));
    let fleet = Fleet::connect(&addrs, cfg).expect("fleet");
    probe.join().expect("probe thread");
    // Seeding leaves an idle connection to each healthy shard.
    let mine: Vec<u64> = (0..32).filter(|&id| shard_for(id, NSHARDS) != 0).collect();
    let (oracle, mut oracle_client) = seed_with_oracle(&fleet, &mine);
    let o = oracle_client
        .call(&knn_payload(mine[0], 5))
        .expect("oracle knn");
    let mut backlog = Vec::new();
    loop {
        match std::net::TcpStream::connect_timeout(&dark_addr, ms(100)) {
            Ok(conn) => backlog.push(conn),
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::TimedOut, "{e}");
                break;
            }
        }
        assert!(
            backlog.len() < 10_000,
            "shard 0's accept queue never filled"
        );
    }
    assert_eq!(fleet.health(), vec![ShardHealth::Up; NSHARDS]);

    // Up, then Degraded (or Down, once the prober's ping failed too).
    for scatter in 0..2 {
        let started = Instant::now();
        let f = fleet.handle_frame(&knn_payload(mine[0], 5));
        let took = started.elapsed();
        assert!(
            f.contains("\"partial\":true,\"shards_ok\":3,\"shards_total\":4"),
            "scatter {scatter}: {f}"
        );
        assert_eq!(hits_of(&f), hits_of(&o), "scatter {scatter}");
        assert!(
            took < cfg.op_deadline * 2,
            "scatter {scatter} took {took:?}"
        );
    }
    assert_eq!(fleet.health()[0], ShardHealth::Down);
    assert_eq!(fleet.health()[1..], [ShardHealth::Up; NSHARDS - 1]);

    fleet.shutdown();
    drop(backlog);
    for p in proxies {
        p.shutdown();
    }
    for s in real {
        s.kill();
    }
    oracle.kill();
}

/// Two handler threads scattering at once for two seconds: each call owns
/// the connections it uses, so neither waits on the other, and a
/// connection never carries two requests, so neither can read the other's
/// reply — every answer is its own query's oracle answer.
#[test]
fn concurrent_scatters_neither_deadlock_nor_cross_replies() {
    const NSHARDS: usize = 4;
    const QUERIES: u64 = 16;
    let shards: Vec<ShardServer> = (0..NSHARDS).map(|_| ShardServer::spawn()).collect();
    let addrs: Vec<String> = shards.iter().map(ShardServer::addr).collect();
    let fleet = Arc::new(Fleet::connect(&addrs, fleet_cfg()).expect("fleet"));
    let ids: Vec<u64> = (0..48).collect();
    let (oracle, mut oracle_client) = seed_with_oracle(&fleet, &ids);
    let expected: Arc<Vec<String>> = Arc::new(
        (0..QUERIES)
            .map(|qid| {
                let o = oracle_client
                    .call(&knn_payload(qid, 5))
                    .expect("oracle knn");
                hits_of(&o).to_string()
            })
            .collect(),
    );

    let (tx, rx) = std::sync::mpsc::channel();
    for lane in 0..2u64 {
        let (fleet, expected, tx) = (Arc::clone(&fleet), Arc::clone(&expected), tx.clone());
        std::thread::spawn(move || {
            let started = Instant::now();
            let mut answered = 0u64;
            // Lane 0 asks the even queries, lane 1 the odd ones.
            for qid in (lane..QUERIES).step_by(2).cycle() {
                if started.elapsed() >= Duration::from_secs(2) {
                    break;
                }
                let f = fleet.handle_frame(&knn_payload(qid, 5));
                assert!(f.contains("\"partial\":false,\"shards_ok\":4"), "{f}");
                assert_eq!(hits_of(&f), expected[qid as usize], "query {qid}");
                answered += 1;
            }
            let _ = tx.send(answered);
        });
    }
    drop(tx);
    for _ in 0..2 {
        // A lane that deadlocked or panicked never reports.
        let answered = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("a scatter lane deadlocked or failed");
        assert!(answered > 0);
    }
    assert_eq!(fleet.health(), vec![ShardHealth::Up; NSHARDS]);

    fleet.shutdown();
    for s in shards {
        s.kill();
    }
    oracle.kill();
}

/// A frame relay in front of one shard server that counts the data
/// connections dialled through it (those whose first frame is not a
/// `ping`, so the start-up probe is not one) and how many of those the
/// dialler has since closed. While `hold` is set it keeps replies back.
struct CountingRelay {
    addr: String,
    opened: Arc<AtomicUsize>,
    closed: Arc<AtomicUsize>,
    /// Replies being kept back right now.
    held: Arc<AtomicUsize>,
    hold: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl CountingRelay {
    fn start(upstream: String) -> CountingRelay {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let [opened, closed, held] = [(); 3].map(|()| Arc::new(AtomicUsize::new(0)));
        let [hold, stop] = [(); 2].map(|()| Arc::new(AtomicBool::new(false)));
        let thread = {
            let (opened, closed, held) =
                (Arc::clone(&opened), Arc::clone(&closed), Arc::clone(&held));
            let (hold, stop) = (Arc::clone(&hold), Arc::clone(&stop));
            std::thread::spawn(move || {
                while let Ok((conn, _)) = listener.accept() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let server = std::net::TcpStream::connect(&upstream).expect("upstream");
                    let mut replies = std::io::BufReader::new(server.try_clone().expect("clone"));
                    let mut to_client = conn.try_clone().expect("clone");
                    let (hold, held) = (Arc::clone(&hold), Arc::clone(&held));
                    std::thread::spawn(move || {
                        while let Ok(Some(reply)) = read_frame(&mut replies) {
                            if hold.load(Ordering::Acquire) {
                                held.fetch_add(1, Ordering::AcqRel);
                                while hold.load(Ordering::Acquire) {
                                    std::thread::sleep(ms(1));
                                }
                                held.fetch_sub(1, Ordering::AcqRel);
                            }
                            if write_frame(&mut to_client, &reply).is_err() {
                                return;
                            }
                        }
                    });
                    let (opened, closed) = (Arc::clone(&opened), Arc::clone(&closed));
                    std::thread::spawn(move || {
                        let (mut requests, mut to_server) = (std::io::BufReader::new(conn), server);
                        let mut data = None;
                        while let Ok(Some(request)) = read_frame(&mut requests) {
                            if data.is_none() {
                                let first_is_data = !request.contains("\"op\":\"ping\"");
                                if first_is_data {
                                    opened.fetch_add(1, Ordering::AcqRel);
                                }
                                data = Some(first_is_data);
                            }
                            if write_frame(&mut to_server, &request).is_err() {
                                break;
                            }
                        }
                        if data == Some(true) {
                            closed.fetch_add(1, Ordering::AcqRel);
                        }
                        let _ = to_server.shutdown(std::net::Shutdown::Both);
                    });
                }
            })
        };
        CountingRelay {
            addr,
            opened,
            closed,
            held,
            hold,
            stop,
            thread,
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Release);
        let _ = std::net::TcpStream::connect(&self.addr); // wake accept()
        let _ = self.thread.join();
    }
}

/// The per-shard pools: four threads sending 24 `knn` each reuse
/// connections — each shard sees at most four data connections over the
/// whole run, where dialling per request would be 96 — and every reply is
/// its oracle's. After `Fleet::shutdown` every one of those connections is
/// closed while the fleet itself is still alive, including the ones a call
/// held when shutdown ran: they are dropped as that call checks them in.
#[test]
fn the_pool_reuses_connections_and_closes_every_one_at_shutdown() {
    const NSHARDS: usize = 3;
    const THREADS: u64 = 4;
    const QUERIES: u64 = 24;
    const QIDS: u64 = 16;
    let shards: Vec<ShardServer> = (0..NSHARDS).map(|_| ShardServer::spawn()).collect();
    let relays: Vec<CountingRelay> = shards
        .iter()
        .map(|s| CountingRelay::start(s.addr()))
        .collect();
    let addrs: Vec<String> = relays.iter().map(|r| r.addr.clone()).collect();
    let fleet = Arc::new(Fleet::connect(&addrs, fleet_cfg()).expect("fleet"));
    let ids: Vec<u64> = (0..40).collect();
    let (oracle, mut oracle_client) = seed_with_oracle(&fleet, &ids);
    let expected: Arc<Vec<String>> = Arc::new(
        (0..QIDS)
            .map(|qid| {
                let o = oracle_client
                    .call(&knn_payload(qid, 5))
                    .expect("oracle knn");
                hits_of(&o).to_string()
            })
            .collect(),
    );

    let lanes: Vec<_> = (0..THREADS)
        .map(|lane| {
            let (fleet, expected) = (Arc::clone(&fleet), Arc::clone(&expected));
            std::thread::spawn(move || {
                for i in 0..QUERIES {
                    let qid = (lane + i * THREADS) % QIDS;
                    let f = fleet.handle_frame(&knn_payload(qid, 5));
                    assert!(f.contains("\"partial\":false,\"shards_ok\":3"), "{f}");
                    assert_eq!(hits_of(&f), expected[qid as usize], "query {qid}");
                }
            })
        })
        .collect();
    for lane in lanes {
        lane.join().expect("query lane");
    }
    for (i, relay) in relays.iter().enumerate() {
        let opened = relay.opened.load(Ordering::Acquire);
        assert!(
            (1..=THREADS as usize).contains(&opened),
            "shard {i} saw {opened} data connections"
        );
        assert_eq!(relay.closed.load(Ordering::Acquire), 0, "shard {i}");
    }

    // A call in flight when shutdown runs: shard 0 keeps its reply back
    // until shutdown has returned.
    relays[0].hold.store(true, Ordering::Release);
    let in_flight = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || fleet.handle_frame(&knn_payload(3, 5)))
    };
    wait_for(
        || relays[0].held.load(Ordering::Acquire) > 0,
        Duration::from_secs(5),
        "shard 0's reply to be held",
    );
    fleet.shutdown();
    relays[0].hold.store(false, Ordering::Release);
    let f = in_flight.join().expect("in-flight call");
    assert_eq!(hits_of(&f), expected[3], "{f}");
    for (i, relay) in relays.iter().enumerate() {
        wait_for(
            || relay.closed.load(Ordering::Acquire) == relay.opened.load(Ordering::Acquire),
            Duration::from_secs(5),
            &format!("every data connection to shard {i} to close"),
        );
    }

    drop(fleet);
    for relay in relays {
        relay.stop();
    }
    for s in shards {
        s.kill();
    }
    oracle.kill();
}
