//! Bringing the program under test up and down: the fixed model, the
//! engine over the generated database, one served stack per workload
//! (a single server behind `net::listen`, or a fleet front-end over
//! shard servers), and the request payloads a client would send.
//!
//! Everything here is production configuration: `ServeConfig::default()`
//! with only shard count, IVF cells and (for the mixed workload) the WAL
//! set; `handlers = workers`, as `trajcl serve` wires it; four handlers
//! on the fleet front-end, its CLI default. The one departure is made in
//! `main`: `TRAJCL_THREADS=1`, because the tensor pool is not memory-safe
//! with more lanes (README, "The pool runs one lane").

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
use trajcl_engine::{Durability, Engine};
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
use trajcl_serve::{
    Client, ClientOptions, Fleet, FleetConfig, NetServer, ServeConfig, Server, ServerStats,
    SessionOptions, WalConfig,
};
use trajcl_tensor::{Shape, Tensor};

use crate::gen::REGION_M;
use crate::spec::{Sizing, Workload};

/// First id of the upsert stream, clear of the database rows.
pub const WRITE_BASE: u64 = 1 << 20;
/// Handler threads of the fleet front-end (`trajcl serve --fleet`'s
/// default for `--workers`).
const FLEET_HANDLERS: usize = 4;

/// The model configuration the legacy bench bins measure, so numbers
/// stay comparable with `BENCH_*.json` rows.
pub fn model_config() -> TrajClConfig {
    let mut cfg = TrajClConfig::scaled_default();
    cfg.dim = 32;
    cfg.ffn_hidden = 64;
    cfg
}

/// Model and featurizer from seed 0 — never from `--seed`, so only the
/// inputs vary between runs. 10 km region, 200 m grid, `max_len` 128.
pub fn model_parts() -> (TrajClModel, Featurizer) {
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = model_config();
    let region = Bbox::new(Point::new(0.0, 0.0), Point::new(REGION_M, REGION_M));
    let grid = Grid::new(region, 200.0);
    let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.3, &mut rng);
    let featurizer = Featurizer::new(grid, table, SpatialNorm::new(region, 200.0), 128);
    let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
    (model, featurizer)
}

/// An engine over `database` (embedded at build; empty for the fleet's
/// shard servers, whose rows arrive over the wire).
pub fn engine(database: Vec<Trajectory>, sizing: &Sizing) -> Engine {
    let (model, featurizer) = model_parts();
    Engine::builder()
        .trajcl(model, featurizer)
        .batch_size(128)
        .nprobe(sizing.nprobe)
        .database(database)
        .build()
        .expect("engine build")
}

/// The serving configuration: defaults plus the index layout.
pub fn serve_config(shards: usize, sizing: &Sizing) -> ServeConfig {
    ServeConfig {
        shards: Some(shards),
        ivf_nlist: Some(sizing.nlist),
        ..ServeConfig::default()
    }
}

/// A trajectory as the wire protocol's `[[x,y],...]` point array.
pub fn traj_json(t: &Trajectory) -> String {
    let mut s = String::with_capacity(t.len() * 20 + 2);
    s.push('[');
    for (i, p) in t.points().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{},{}]", p.x, p.y));
    }
    s.push(']');
    s
}

/// A `knn` request; `req` is echoed by the server when present.
pub fn knn_payload(req: Option<u64>, traj: &Trajectory, k: usize) -> String {
    match req {
        Some(req) => format!(
            "{{\"req\":{req},\"op\":\"knn\",\"traj\":{},\"k\":{k}}}",
            traj_json(traj)
        ),
        None => format!("{{\"op\":\"knn\",\"traj\":{},\"k\":{k}}}", traj_json(traj)),
    }
}

/// An `upsert` request over an already-encoded trajectory.
pub fn upsert_payload(id: u64, traj_json: &str) -> String {
    format!("{{\"op\":\"upsert\",\"id\":{id},\"traj\":{traj_json}}}")
}

/// The reply `proto::handle` prints for `hits`, byte for byte — what a
/// correct kNN reply without a `req` echo must equal.
pub fn knn_reply_text(hits: &[(u64, f64)]) -> String {
    let rows: Vec<String> = hits
        .iter()
        .enumerate()
        .map(|(rank, (id, dist))| {
            format!(
                "{{\"rank\":{},\"index\":{id},\"distance\":{dist:.6}}}",
                rank + 1
            )
        })
        .collect();
    format!("{{\"ok\":true,\"hits\":[{}]}}", rows.join(","))
}

/// A client with the benchmark's 1 s reply deadline: a request that
/// takes longer counts as failed (README, `ok_share`).
pub fn connect(addr: &str) -> std::io::Result<Client> {
    let second = Some(std::time::Duration::from_secs(1));
    Client::connect_with(
        addr,
        &ClientOptions {
            connect_timeout: second,
            read_timeout: second,
            write_timeout: second,
        },
    )
}

/// Scratch space under the build's target directory (inside the
/// checkout, ignored by git): WAL files and trace dumps go here.
pub fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("ladder")
}

/// The inputs of one run, generated once from `--seed`.
pub struct Inputs {
    /// Database rows; row `i` is served under id `i`.
    pub db: Vec<Trajectory>,
    /// The hot query pool.
    pub hot: Vec<Trajectory>,
    /// The trajectories behind the upsert stream; id `WRITE_BASE + j`
    /// always carries `write[j % write.len()]`.
    pub write: Vec<Trajectory>,
}

impl Inputs {
    /// Generates the inputs of `seed` at `sizing`.
    pub fn generate(seed: u64, sizing: &Sizing) -> Inputs {
        use crate::gen::{trajectories, Stream};
        Inputs {
            db: trajectories(seed, Stream::Db, sizing.rows),
            hot: trajectories(seed, Stream::Hot, sizing.hot),
            write: trajectories(seed, Stream::Write, sizing.write_pool),
        }
    }
}

/// One shard server of a fleet: the server and its listener.
struct ShardServer {
    server: Arc<Server>,
    net: NetServer,
}

/// A served stack with a client-facing address.
pub struct Stack {
    /// The engine behind the single server; `None` for a fleet.
    engine: Option<Arc<Engine>>,
    /// The single server (TCP workloads) — also what in-process oracles
    /// and rungs call. `None` for a fleet.
    server: Option<Arc<Server>>,
    shards: Vec<ShardServer>,
    fleet: Option<Arc<Fleet>>,
    front: Option<NetServer>,
    wal_dir: Option<PathBuf>,
    addr: String,
}

impl Stack {
    /// One server over `engine` behind `net::listen`, `handlers =
    /// workers`. With `wal_dir`, mutations go through a buffered
    /// (no-fsync) write-ahead log there.
    pub fn tcp(engine: Arc<Engine>, sizing: &Sizing, wal_dir: Option<&Path>) -> Stack {
        let mut cfg = serve_config(sizing.shards, sizing);
        if let Some(dir) = wal_dir {
            let _ = std::fs::remove_dir_all(dir);
            let mut wal = WalConfig::new(dir);
            wal.durability = Durability::Buffered;
            cfg.wal = Some(wal);
        }
        let handlers = cfg.workers.max(1);
        let server = Arc::new(Server::new(Arc::clone(&engine), cfg).expect("server"));
        let net = trajcl_serve::net::listen(Arc::clone(&server), "127.0.0.1:0", handlers)
            .expect("listen");
        Stack {
            addr: net.local_addr().to_string(),
            engine: Some(engine),
            server: Some(server),
            shards: Vec::new(),
            fleet: None,
            front: Some(net),
            wal_dir: wal_dir.map(Path::to_path_buf),
        }
    }

    /// A fleet front-end over `sizing.shards` single-shard servers with
    /// empty engines and one worker each; `db` is seeded *through the
    /// front-end* with pipelined upserts, then compacted.
    pub fn fleet(db: &[Trajectory], sizing: &Sizing) -> Stack {
        let shards: Vec<ShardServer> = (0..sizing.shards)
            .map(|_| {
                let mut cfg = serve_config(1, sizing);
                cfg.workers = 1;
                let server = Arc::new(
                    Server::new(Arc::new(engine(Vec::new(), sizing)), cfg).expect("shard server"),
                );
                let net = trajcl_serve::net::listen(Arc::clone(&server), "127.0.0.1:0", 1)
                    .expect("shard listen");
                ShardServer { server, net }
            })
            .collect();
        let addrs: Vec<String> = shards
            .iter()
            .map(|s| s.net.local_addr().to_string())
            .collect();
        let fleet = Arc::new(Fleet::connect(&addrs, FleetConfig::default()).expect("fleet"));
        let front = trajcl_serve::net::listen_with(
            Arc::clone(&fleet),
            "127.0.0.1:0",
            FLEET_HANDLERS,
            SessionOptions::default(),
        )
        .expect("front-end listen");
        let stack = Stack {
            addr: front.local_addr().to_string(),
            engine: None,
            server: None,
            shards,
            fleet: Some(fleet),
            front: Some(front),
            wal_dir: None,
        };
        stack.seed_over_the_wire(db);
        stack
    }

    /// Upserts `db` (row `i` as id `i`) through the client-facing
    /// address, keeping a window of requests in flight on each of two
    /// connections so the shard servers' batchers see company, then
    /// sends `compact`.
    fn seed_over_the_wire(&self, db: &[Trajectory]) {
        const IN_FLIGHT: usize = 8;
        std::thread::scope(|scope| {
            for lane in 0..2usize {
                let addr = &self.addr;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("seed connect");
                    let mut outstanding = 0usize;
                    let recv_ok = |client: &mut Client| {
                        let reply = client.recv().expect("seed reply").expect("seed eof");
                        assert!(reply.contains("\"ok\":true"), "seed upsert failed: {reply}");
                    };
                    for (id, traj) in db.iter().enumerate().skip(lane).step_by(2) {
                        if outstanding == IN_FLIGHT {
                            recv_ok(&mut client);
                            outstanding -= 1;
                        }
                        client
                            .send(&upsert_payload(id as u64, &traj_json(traj)))
                            .expect("seed send");
                        outstanding += 1;
                    }
                    for _ in 0..outstanding {
                        recv_ok(&mut client);
                    }
                });
            }
        });
        let reply = Client::connect(&self.addr)
            .and_then(|mut c| c.call("{\"op\":\"compact\"}"))
            .expect("compact");
        assert!(reply.contains("\"ok\":true"), "compact failed: {reply}");
    }

    /// The stack of `workload`, brought up from nothing: this is what
    /// `setup_s` times (together with the warm-up that follows).
    pub fn bring_up(workload: Workload, inputs: &Inputs, sizing: &Sizing) -> Stack {
        match workload {
            Workload::FleetKnnHot => Stack::fleet(&inputs.db, sizing),
            Workload::TcpMixedRw => {
                let dir = scratch_dir().join(format!("wal-{}", std::process::id()));
                let stack = Stack::tcp(
                    Arc::new(engine(inputs.db.clone(), sizing)),
                    sizing,
                    Some(&dir),
                );
                stack.prewarm_write_buffer(inputs, sizing);
                stack
            }
            Workload::TcpKnnHot | Workload::TcpKnnColdOpen => {
                Stack::tcp(Arc::new(engine(inputs.db.clone(), sizing)), sizing, None)
            }
        }
    }

    /// Brings the write buffer to its steady-state size in process: the
    /// measured upserts then replace ids at a constant buffer size, so
    /// index content — and every kNN answer — stays constant.
    fn prewarm_write_buffer(&self, inputs: &Inputs, sizing: &Sizing) {
        let server = self.server();
        for j in 0..sizing.write_ids {
            server
                .upsert(WRITE_BASE + j as u64, &inputs.write[j % inputs.write.len()])
                .expect("prewarm upsert");
        }
    }

    /// Where clients connect.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The in-process server behind a TCP stack.
    ///
    /// # Panics
    /// On a fleet stack, which has no single server.
    pub fn server(&self) -> &Arc<Server> {
        self.server.as_ref().expect("stack has one server")
    }

    /// The engine behind a TCP stack's server (shared, so a traced run
    /// can stand further servers up over the same embedded rows).
    ///
    /// # Panics
    /// On a fleet stack.
    pub fn engine(&self) -> &Arc<Engine> {
        self.engine.as_ref().expect("stack has one engine")
    }

    /// True for a fleet front-end over shard servers.
    pub fn is_fleet(&self) -> bool {
        self.fleet.is_some()
    }

    /// The counters the benchmark reads, summed over every server in the
    /// stack: batches, cache hits and misses, index size and memory.
    pub fn stats(&self) -> ServerStats {
        let mut sum = ServerStats::default();
        let servers = self
            .server
            .iter()
            .chain(self.shards.iter().map(|s| &s.server));
        for server in servers {
            let s = server.stats();
            sum.batches += s.batches;
            sum.batched_trajs += s.batched_trajs;
            sum.cache_hits += s.cache_hits;
            sum.cache_misses += s.cache_misses;
            sum.index_len += s.index_len;
            sum.index_memory_bytes += s.index_memory_bytes;
        }
        sum
    }

    /// Stops every listener, the fleet and every server, joining their
    /// threads, and removes the WAL directory.
    pub fn shutdown(mut self) {
        if let Some(front) = self.front.take() {
            front.shutdown();
        }
        if let Some(fleet) = self.fleet.take() {
            fleet.shutdown();
        }
        for shard in self.shards.drain(..) {
            shard.net.shutdown();
            shard.server.shutdown();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(dir) = self.wal_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajcl_serve::json::{parse, Json};

    #[test]
    fn payloads_are_the_protocols_json() {
        let t = Trajectory::from_xy(&[(1.5, 2.25), (300.0, 4000.01)]);
        assert_eq!(traj_json(&t), "[[1.5,2.25],[300,4000.01]]");
        let knn = parse(&knn_payload(Some(7), &t, 10)).unwrap();
        assert_eq!(knn.get("op").and_then(Json::as_str), Some("knn"));
        assert_eq!(knn.get("req").and_then(Json::as_u64), Some(7));
        assert_eq!(knn.get("k").and_then(Json::as_u64), Some(10));
        assert!(parse(&knn_payload(None, &t, 3))
            .unwrap()
            .get("req")
            .is_none());
        let up = parse(&upsert_payload(WRITE_BASE + 1, &traj_json(&t))).unwrap();
        assert_eq!(up.get("id").and_then(Json::as_u64), Some(WRITE_BASE + 1));
    }

    #[test]
    fn reply_text_matches_the_server_byte_for_byte() {
        let sizing = Sizing {
            rows: 24,
            nlist: 2,
            ..Sizing::smoke()
        };
        let inputs = Inputs::generate(5, &sizing);
        let stack = Stack::bring_up(Workload::TcpKnnHot, &inputs, &sizing);
        let server = stack.server();
        let hits = server.knn(&inputs.hot[0], sizing.k).unwrap();
        assert_eq!(hits.len(), sizing.k);
        let over_the_wire = connect(stack.addr())
            .unwrap()
            .call(&knn_payload(None, &inputs.hot[0], sizing.k))
            .unwrap();
        assert_eq!(over_the_wire, knn_reply_text(&hits));
        assert_eq!(stack.stats().index_len, 24);
        stack.shutdown();
    }
}
