//! Transport suite for `trajcl-serve`: mixed mutation/query traffic over
//! real TCP connections against the in-process view, pipelined
//! out-of-order response matching, torn-frame / mid-frame-disconnect
//! rejection, how a session loop shares frames among its threads and
//! how it ends, fd hygiene across many connections, exact integer fields
//! (directly and through a fleet), and a unix-socket smoke test.

use std::collections::HashSet;
use std::io::{Read as _, Write as _};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
use trajcl_engine::Engine;
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
use trajcl_serve::net::pump_frames;
use trajcl_serve::proto::{read_frame, traj_json, write_frame};
use trajcl_serve::{
    listen, Client, Fleet, FleetConfig, FrameHandler, NetServer, ServeConfig, Server,
};
use trajcl_tensor::{Shape, Tensor};

/// A tiny deterministic TrajCL engine (no pre-loaded database).
fn tiny_engine() -> Engine {
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = TrajClConfig::test_default();
    let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
    let grid = Grid::new(region, 100.0);
    let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
    let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
    let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
    Engine::builder()
        .trajcl(model, feat)
        .build()
        .expect("engine")
}

/// A well-separated synthetic trajectory, injective over the id ranges
/// used here (see the concurrency suite).
fn traj_for(id: u64) -> Trajectory {
    let y0 = 10.0 + (id % 1000) as f64 * 9.7 + (id / 1000) as f64 * 211.0;
    (0..6)
        .map(|t| Point::new(40.0 + t as f64 * 120.0, y0 + t as f64 * 3.0))
        .collect()
}

fn sharded_server(shards: usize) -> Arc<Server> {
    Arc::new(
        Server::new(
            Arc::new(tiny_engine()),
            ServeConfig {
                shards: Some(shards),
                ..ServeConfig::default()
            },
        )
        .expect("server"),
    )
}

#[test]
fn tcp_mixed_ops_match_the_in_process_view() {
    let server = sharded_server(3);
    let net = listen(Arc::clone(&server), "127.0.0.1:0", 2).expect("listen");
    let addr = net.local_addr().to_string();

    const THREADS: u64 = 3;
    const OPS: u64 = 20;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                // Each connection owns the id range [t*1000, t*1000+OPS):
                // the final index state is interleaving-independent.
                let mut client = Client::connect(&addr).expect("connect");
                for i in 0..OPS {
                    let id = t * 1000 + i;
                    let reply = client
                        .call(&format!(
                            "{{\"op\":\"upsert\",\"id\":{id},\"traj\":{}}}",
                            traj_json(&traj_for(id))
                        ))
                        .expect("upsert");
                    assert!(reply.contains("\"replaced\":false"), "{reply}");
                    if i % 4 == 0 {
                        let reply = client
                            .call(&format!(
                                "{{\"op\":\"knn\",\"traj\":{},\"k\":3}}",
                                traj_json(&traj_for(id))
                            ))
                            .expect("knn");
                        assert!(reply.contains("\"ok\":true"), "{reply}");
                    }
                    if i % 5 == 4 {
                        let reply = client
                            .call(&format!("{{\"op\":\"remove\",\"id\":{}}}", id - 2))
                            .expect("remove");
                        assert!(reply.contains("\"removed\":true"), "{reply}");
                    }
                    if t == 0 && i % 7 == 6 {
                        let reply = client.call("{\"op\":\"compact\"}").expect("compact");
                        assert!(reply.contains("\"sealed\":"), "{reply}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // Every thread upserted OPS ids and removed OPS/5 of them.
    let live = (THREADS * (OPS - OPS / 5)) as usize;
    assert_eq!(server.stats().index_len, live);

    // The wire view agrees with the in-process one: stats fields and,
    // hit for hit (same {:.6} formatting), kNN results.
    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.call("{\"op\":\"stats\"}").expect("stats");
    assert!(stats.contains(&format!("\"size\":{live}")), "{stats}");
    assert!(stats.contains("\"shards\":3"), "{stats}");
    for qid in [0u64, 7, 1003, 2011] {
        let reply = client
            .call(&format!(
                "{{\"op\":\"knn\",\"traj\":{},\"k\":5}}",
                traj_json(&traj_for(qid))
            ))
            .expect("knn");
        let want: Vec<String> = server
            .knn(&traj_for(qid), 5)
            .expect("knn")
            .iter()
            .enumerate()
            .map(|(rank, (id, dist))| {
                format!(
                    "{{\"rank\":{},\"index\":{id},\"distance\":{dist:.6}}}",
                    rank + 1
                )
            })
            .collect();
        assert!(
            reply.contains(&format!("\"hits\":[{}]", want.join(","))),
            "wire hits diverged from in-process for query {qid}:\n{reply}\nwant {want:?}"
        );
    }

    net.shutdown();
    server.shutdown();
}

#[test]
fn pipelined_responses_match_by_req_echo() {
    let server = sharded_server(2);
    // 4 threads per connection: responses genuinely race.
    let net = listen(Arc::clone(&server), "127.0.0.1:0", 4).expect("listen");
    let mut client = Client::connect(net.local_addr()).expect("connect");

    const BATCH: u64 = 24;
    for req in 0..BATCH {
        // Mix op types so completion order differs from send order.
        let payload = match req % 3 {
            0 => format!(
                "{{\"req\":{req},\"op\":\"upsert\",\"id\":{req},\"traj\":{}}}",
                traj_json(&traj_for(req))
            ),
            1 => format!(
                "{{\"req\":{req},\"op\":\"knn\",\"traj\":{},\"k\":2}}",
                traj_json(&traj_for(req))
            ),
            _ => format!("{{\"req\":{req},\"op\":\"stats\"}}"),
        };
        client.send(&payload).expect("send");
    }
    let mut seen = vec![false; BATCH as usize];
    for _ in 0..BATCH {
        let frame = client.recv().expect("recv").expect("open connection");
        assert!(frame.contains("\"ok\":true"), "{frame}");
        let req = trajcl_serve::json::parse(&frame)
            .expect("response json")
            .get("req")
            .and_then(|r| r.as_u64())
            .expect("req echo") as usize;
        assert!(!seen[req], "req {req} answered twice");
        seen[req] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "every request answered exactly once"
    );

    net.shutdown();
    server.shutdown();
}

/// Dials raw TCP, writes `bytes`, and returns what the server sends back
/// until EOF (a closed connection reads as 0 bytes).
fn raw_exchange(addr: &str, bytes: &[u8]) -> Vec<u8> {
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.write_all(bytes).expect("write");
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf); // reset instead of FIN is fine too
    buf
}

#[test]
fn torn_frames_kill_only_their_connection() {
    let server = sharded_server(2);
    let net = listen(Arc::clone(&server), "127.0.0.1:0", 1).expect("listen");
    let addr = net.local_addr().to_string();

    // A garbage header: the server must close the connection without
    // answering (framing errors are not recoverable in-stream).
    let reply = raw_exchange(&addr, b"not a length\n{\"op\":\"stats\"}\n");
    assert!(
        reply.is_empty(),
        "got {:?}",
        String::from_utf8_lossy(&reply)
    );

    // An over-limit length is rejected the same way.
    let reply = raw_exchange(&addr, b"99999999\n");
    assert!(
        reply.is_empty(),
        "got {:?}",
        String::from_utf8_lossy(&reply)
    );

    // A mid-frame disconnect: header promises 64 bytes, the peer vanishes
    // after 10. The session must wind down without poisoning anything.
    {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        s.write_all(b"64\n{\"op\":\"st").expect("write");
    } // dropped here

    // The listener and other connections are unaffected: a fresh client
    // completes a full round trip.
    let mut client = Client::connect(&addr).expect("connect");
    let reply = client.call("{\"op\":\"stats\"}").expect("stats");
    assert!(reply.contains("\"ok\":true"), "{reply}");

    net.shutdown();
    server.shutdown();
}

#[test]
fn ping_answers_with_echo() {
    let server = sharded_server(2);
    let net = listen(Arc::clone(&server), "127.0.0.1:0", 1).expect("listen");
    let mut client = Client::connect(net.local_addr()).expect("connect");

    let reply = client.call("{\"op\":\"ping\"}").expect("ping");
    assert_eq!(reply, "{\"ok\":true,\"pong\":true}");
    let reply = client.call("{\"req\":7,\"op\":\"ping\"}").expect("ping");
    assert_eq!(reply, "{\"req\":7,\"ok\":true,\"pong\":true}");
    // A probe is not a data-path request: the counter must not move.
    assert_eq!(server.stats().requests, 0);

    net.shutdown();
    server.shutdown();
}

#[test]
fn echoes_req_exactly_up_to_u64_max() {
    let server = sharded_server(1);
    let net = listen(Arc::clone(&server), "127.0.0.1:0", 1).expect("listen");
    let mut client = Client::connect(net.local_addr()).expect("connect");
    for req in ["9007199254740993", "18446744073709551615"] {
        let reply = client
            .call(&format!("{{\"req\":{req},\"op\":\"ping\"}}"))
            .expect("ping");
        assert_eq!(
            reply,
            format!("{{\"req\":{req},\"ok\":true,\"pong\":true}}")
        );
    }
    // 2^64 is no u64: no echo, as for any other non-integer `req`.
    let reply = client
        .call("{\"req\":18446744073709551616,\"op\":\"ping\"}")
        .expect("ping");
    assert_eq!(reply, "{\"ok\":true,\"pong\":true}");
    net.shutdown();
    server.shutdown();
}

/// Upserts ids 2^53 and 2^53 + 1 (one `f64`) through `call`, then checks
/// both are live and distinct, and that 2^64 is refused.
fn ids_past_2_pow_53_stay_distinct(mut call: impl FnMut(&str) -> String) {
    const LOW: u64 = 1 << 53;
    let traj = |id: u64| traj_json(&traj_for(10 + 50 * (id - LOW)));
    for id in [LOW, LOW + 1] {
        let reply = call(&format!(
            "{{\"op\":\"upsert\",\"id\":{id},\"traj\":{}}}",
            traj(id)
        ));
        assert!(reply.contains("\"replaced\":false"), "id {id}: {reply}");
    }
    for id in [LOW, LOW + 1] {
        let reply = call(&format!(
            "{{\"req\":{id},\"op\":\"knn\",\"traj\":{},\"k\":1}}",
            traj(id)
        ));
        assert!(
            reply.starts_with(&format!("{{\"req\":{id},\"ok\":true")),
            "{reply}"
        );
        assert!(
            reply.contains(&format!("\"index\":{id},")),
            "id {id}: {reply}"
        );
    }
    let reply = call(&format!(
        "{{\"op\":\"upsert\",\"id\":18446744073709551616,\"traj\":{}}}",
        traj(LOW)
    ));
    assert_eq!(
        reply,
        "{\"ok\":false,\"error\":\"\\\"id\\\" must be a non-negative integer\"}"
    );
}

#[test]
fn ids_past_2_pow_53_stay_distinct_direct_and_through_a_fleet() {
    let direct = sharded_server(2);
    let net = listen(Arc::clone(&direct), "127.0.0.1:0", 1).expect("listen");
    let mut client = Client::connect(net.local_addr()).expect("connect");
    ids_past_2_pow_53_stay_distinct(|p| client.call(p).expect("direct call"));

    let shards: Vec<(Arc<Server>, NetServer)> = (0..2)
        .map(|_| {
            let server = sharded_server(1);
            let net = listen(Arc::clone(&server), "127.0.0.1:0", 1).expect("listen");
            (server, net)
        })
        .collect();
    let addrs: Vec<String> = shards
        .iter()
        .map(|(_, net)| net.local_addr().to_string())
        .collect();
    let fleet = Fleet::connect(&addrs, FleetConfig::default()).expect("fleet");
    ids_past_2_pow_53_stay_distinct(|p| fleet.handle_frame(p));

    // A bad `traj` gets the unsharded server's reply, byte for byte.
    for traj in ["[[1,2,3]]", "[[\"a\",2]]", "[1,2]", "\"x\""] {
        let payload = format!("{{\"req\":3,\"op\":\"knn\",\"traj\":{traj},\"k\":2}}");
        let want = client.call(&payload).expect("direct call");
        assert!(want.contains("\"ok\":false"), "{want}");
        assert_eq!(fleet.handle_frame(&payload), want, "{payload}");
    }

    fleet.shutdown();
    for (server, net) in shards {
        net.shutdown();
        server.shutdown();
    }
    net.shutdown();
    direct.shutdown();
}

/// Answers every frame with its own payload, after waiting at `barrier`
/// and noting which thread answered.
struct Rendezvous {
    barrier: Barrier,
    threads: Mutex<Vec<ThreadId>>,
}

impl FrameHandler for Rendezvous {
    fn handle_frame(&self, payload: &str) -> String {
        self.threads
            .lock()
            .expect("threads")
            .push(std::thread::current().id());
        self.barrier.wait();
        payload.to_string()
    }
}

/// `count` frames `{"req":i}` back to back, as one pipelining client
/// would send them.
fn pipelined(count: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for req in 0..count {
        write_frame(&mut bytes, &format!("{{\"req\":{req}}}")).expect("encode");
    }
    bytes
}

/// Every frame in `bytes`, in order.
fn frames(mut bytes: &[u8]) -> Vec<String> {
    std::iter::from_fn(|| read_frame(&mut bytes).expect("response frame")).collect()
}

/// Runs `pump_frames` over `input` with a [`Rendezvous`] of `parties`
/// on another thread, failing the test if the session has not ended
/// within 10 s (a barrier nobody else reaches would block forever).
/// Returns the session's result, its output, the answering threads and
/// the thread that called `pump_frames`.
fn pump_with_deadline(
    input: Vec<u8>,
    handlers: usize,
    parties: usize,
) -> (std::io::Result<()>, Vec<u8>, Vec<ThreadId>, ThreadId) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let handler = Rendezvous {
            barrier: Barrier::new(parties),
            threads: Mutex::new(Vec::new()),
        };
        let mut out = Vec::new();
        let result = pump_frames(&handler, &mut &input[..], &mut out, handlers);
        let threads = handler.threads.into_inner().expect("threads");
        let _ = tx.send((result, out, threads, std::thread::current().id()));
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("the session hung: frames were not answered side by side")
}

#[test]
fn a_session_answers_up_to_handlers_frames_at_once_on_the_threads_that_read_them() {
    // Four handlers, eight pipelined frames, a barrier of four: each
    // round of four frames passes only if all four are in `handle_frame`
    // together, which a loop that answers one frame at a time never does.
    let (result, out, threads, caller) = pump_with_deadline(pipelined(8), 4, 4);
    result.expect("clean end of stream");
    let mut answered = frames(&out);
    answered.sort();
    let mut sent = frames(&pipelined(8));
    sent.sort();
    assert_eq!(answered, sent, "one response per frame");
    let distinct: HashSet<_> = threads.iter().collect();
    assert_eq!(distinct.len(), 4, "four threads answered: {threads:?}");
    assert!(threads.contains(&caller), "the calling thread takes turns");

    // One handler spawns nothing: every frame is answered, in order, on
    // the thread that called `pump_frames`.
    let (result, out, threads, caller) = pump_with_deadline(pipelined(3), 1, 1);
    result.expect("clean end of stream");
    assert_eq!(frames(&out), frames(&pipelined(3)));
    assert_eq!(threads, vec![caller; 3]);
}

#[test]
fn a_framing_error_ends_the_session_after_the_frames_before_it_are_answered() {
    for handlers in [1, 4] {
        let mut input = pipelined(2);
        input.extend_from_slice(b"not a length\n{}\n");
        let (result, out, _, _) = pump_with_deadline(input, handlers, 1);
        let err = result.expect_err("a garbage header is a framing error");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let mut answered = frames(&out);
        answered.sort();
        assert_eq!(answered, frames(&pipelined(2)), "handlers {handlers}");

        // A clean end of stream is a clean end of session.
        let (result, out, _, _) = pump_with_deadline(pipelined(2), handlers, 1);
        result.expect("clean end of stream");
        assert_eq!(frames(&out).len(), 2, "handlers {handlers}");
    }
}

/// Open file descriptors of this process.
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn ended_sessions_release_their_fds_before_shutdown() {
    let server = sharded_server(1);
    let net = listen(Arc::clone(&server), "127.0.0.1:0", 1).expect("listen");
    let before = open_fds();
    for _ in 0..300 {
        let mut client = Client::connect(net.local_addr()).expect("connect");
        let reply = client.call("{\"op\":\"ping\"}").expect("ping");
        assert!(reply.contains("\"pong\":true"), "{reply}");
    }
    // Sessions wind down after their client hangs up; give the last few
    // a moment. Other tests in this binary open sockets too, hence the
    // slack — a listener that keeps every fd is 300 over.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while open_fds() > before + 32 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let after = open_fds();
    assert!(
        after <= before + 32,
        "{before} fds before 300 connections, {after} after"
    );
    net.shutdown();
    server.shutdown();
}

#[test]
fn idle_sessions_are_reaped_but_active_ones_survive() {
    // With four handlers, every thread of the reaped session must exit.
    for handlers in [1, 4] {
        reap_idle_session(handlers);
    }
}

fn reap_idle_session(handlers: usize) {
    let engine = Arc::new(tiny_engine());
    let mut cfg = ServeConfig {
        shards: Some(2),
        ..ServeConfig::default()
    };
    cfg.session.idle_timeout = Some(std::time::Duration::from_millis(250));
    let server = Arc::new(Server::new(Arc::clone(&engine), cfg).expect("server"));
    let net = listen(Arc::clone(&server), "127.0.0.1:0", handlers).expect("listen");
    let addr = net.local_addr().to_string();

    // An active session outlives several idle deadlines as long as its
    // gaps stay under the deadline.
    let mut busy = Client::connect(&addr).expect("connect");
    for _ in 0..5 {
        std::thread::sleep(std::time::Duration::from_millis(100));
        let reply = busy.call("{\"op\":\"ping\"}").expect("ping");
        assert!(reply.contains("\"pong\":true"), "{reply}");
    }

    // A quiet session is severed by the server within the deadline: the
    // blocked read sees EOF, well before the client's own 30s timeout.
    let started = std::time::Instant::now();
    let reaped = busy.recv().expect("clean close, not an error");
    assert!(reaped.is_none(), "expected EOF, got {reaped:?}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "reap took {:?}",
        started.elapsed()
    );

    // The listener is unaffected: fresh connections keep working.
    let mut fresh = Client::connect(&addr).expect("connect");
    let reply = fresh.call("{\"op\":\"stats\"}").expect("stats");
    assert!(reply.contains("\"ok\":true"), "{reply}");

    net.shutdown();
    server.shutdown();
}

#[test]
fn unix_socket_round_trip_and_cleanup() {
    let dir = std::env::temp_dir().join("trajcl_net_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("serve-{}.sock", std::process::id()));
    let addr = format!("unix:{}", path.display());

    let server = sharded_server(2);
    let net = listen(Arc::clone(&server), &addr, 1).expect("listen");
    assert_eq!(net.local_addr(), addr);

    let mut client = Client::connect(&addr).expect("connect");
    let reply = client
        .call(&format!(
            "{{\"op\":\"upsert\",\"id\":9,\"traj\":{}}}",
            traj_json(&traj_for(9))
        ))
        .expect("upsert");
    assert!(reply.contains("\"replaced\":false"), "{reply}");
    let reply = client
        .call(&format!(
            "{{\"op\":\"knn\",\"traj\":{},\"k\":1}}",
            traj_json(&traj_for(9))
        ))
        .expect("knn");
    assert!(reply.contains("\"index\":9"), "{reply}");

    net.shutdown();
    server.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}
