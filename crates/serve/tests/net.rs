//! Transport suite for `trajcl-serve`: mixed mutation/query traffic over
//! real TCP connections against the in-process view, pipelined
//! out-of-order response matching, torn-frame / mid-frame-disconnect
//! rejection, how a session loop shares frames among its threads (and
//! where a request hands its reader on) and how it ends, fd hygiene across many connections, exact integer fields
//! (directly and through a fleet), a fleet's `knn` replies against a
//! server's (bad requests, the exact `traj_bits` and `vec_bits` forms,
//! and a bit-exact property over random rows and shard counts), the one
//! forward pass a fleet runs per fresh query, and a unix-socket smoke
//! test.

use std::cell::Cell;
use std::collections::HashSet;
use std::io::{BufReader, Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
use trajcl_engine::Engine;
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
use trajcl_serve::net::pump_frames;
use trajcl_serve::proto::{handle, read_frame, traj_bits, traj_json, write_frame, MAX_FRAME_LEN};
use trajcl_serve::{
    listen, listen_with, Client, Fleet, FleetConfig, FrameHandler, NetServer, ServeConfig, Server,
    SessionOptions, ShardHealth,
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

    let (fleet, shards) = fleet_of(2);
    ids_past_2_pow_53_stay_distinct(|p| fleet.handle_frame(p));

    // A bad `traj` gets the unsharded server's reply, byte for byte.
    for traj in ["[[1,2,3]]", "[[\"a\",2]]", "[1,2]", "\"x\""] {
        let payload = format!("{{\"req\":3,\"op\":\"knn\",\"traj\":{traj},\"k\":2}}");
        let want = client.call(&payload).expect("direct call");
        assert!(want.contains("\"ok\":false"), "{want}");
        assert_eq!(fleet.handle_frame(&payload), want, "{payload}");
    }

    shut_down(fleet, shards);
    net.shutdown();
    direct.shutdown();
}

/// A fleet over `n` single-shard servers on their own listeners.
fn fleet_of(n: usize) -> (Fleet, Vec<(Arc<Server>, NetServer)>) {
    let shards: Vec<(Arc<Server>, NetServer)> = (0..n)
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
    (fleet, shards)
}

fn shut_down(fleet: Fleet, shards: Vec<(Arc<Server>, NetServer)>) {
    fleet.shutdown();
    for (server, net) in shards {
        net.shutdown();
        server.shutdown();
    }
}

/// A bad `knn` gets the same reply from a fleet as from a server: the
/// front-end checks `traj` (or `traj_bits`) before `k`, as a server does.
#[test]
fn a_fleet_answers_a_bad_knn_with_the_servers_error() {
    let server = sharded_server(1);
    let (fleet, shards) = fleet_of(2);
    let traj = traj_json(&traj_for(3));
    let bits = traj_bits(&traj_for(3));
    let word = |x: f64| format!("{:016x}", x.to_bits());
    let with_bits =
        |hex: &str| format!("{{\"req\":4,\"op\":\"knn\",\"traj_bits\":\"{hex}\",\"k\":2}}");
    let table = [
        "{\"req\":4,\"op\":\"knn\"}".to_string(),
        "{\"op\":\"knn\",\"k\":2}".to_string(),
        "{\"op\":\"knn\",\"k\":-2}".to_string(),
        format!("{{\"op\":\"knn\",\"traj\":{traj}}}"),
        format!("{{\"op\":\"knn\",\"traj\":{traj},\"k\":16385}}"),
        "{\"op\":\"knn\",\"traj\":\"x\",\"k\":\"2\"}".to_string(),
        "{\"op\":\"knn\",\"traj\":[[1,2,3]],\"k\":-1}".to_string(),
        "{\"op\":\"knn\",\"traj\":[[1,2,3]]}".to_string(),
        "{\"op\":\"knn\",\"traj\":[],\"k\":2}".to_string(),
        with_bits(""),
        with_bits(&bits[..31]),
        with_bits(&bits[..bits.len() - 16]),
        with_bits(&bits.to_uppercase()),
        with_bits(&format!("{}g", &bits[..31])),
        with_bits(&format!("{}{}", word(f64::NAN), word(1.0))),
        with_bits(&format!("{}{}", word(1.0), word(f64::NEG_INFINITY))),
        "{\"op\":\"knn\",\"traj_bits\":[1],\"k\":2}".to_string(),
        "{\"op\":\"knn\",\"traj_bits\":\"0\",\"k\":-1}".to_string(),
        format!("{{\"op\":\"knn\",\"traj_bits\":\"{bits}\"}}"),
        format!("{{\"op\":\"knn\",\"traj\":{traj},\"traj_bits\":\"{bits}\",\"k\":2}}"),
    ];
    for payload in &table {
        let want = handle(&server, payload);
        assert!(want.contains("\"ok\":false"), "{payload}: {want}");
        assert_eq!(fleet.handle_frame(payload), want, "{payload}");
    }
    shut_down(fleet, shards);
    server.shutdown();
}

/// The tail of `reply` from `key` on.
fn tail<'r>(reply: &'r str, key: &str) -> &'r str {
    let at = reply
        .find(key)
        .unwrap_or_else(|| panic!("no {key} in {reply}"));
    &reply[at..]
}

/// A `traj_bits` query gets `hits_bits` from a server and from a fleet,
/// with the same bits; a `traj` query keeps its text `hits`.
#[test]
fn a_fleet_answers_traj_bits_with_the_servers_exact_hits() {
    let server = sharded_server(1);
    let (fleet, shards) = fleet_of(2);
    for id in 0..24u64 {
        let upsert = format!(
            "{{\"op\":\"upsert\",\"id\":{id},\"traj\":{}}}",
            traj_json(&traj_for(id))
        );
        assert_eq!(handle(&server, &upsert), fleet.handle_frame(&upsert));
    }
    for qid in [0u64, 5, 23, 40] {
        for (query, key) in [
            (
                format!("\"traj_bits\":\"{}\"", traj_bits(&traj_for(qid))),
                "\"hits_bits\":",
            ),
            (
                format!("\"traj\":{}", traj_json(&traj_for(qid))),
                "\"hits\":",
            ),
        ] {
            let payload = format!("{{\"req\":{qid},\"op\":\"knn\",{query},\"k\":7}}");
            let want = handle(&server, &payload);
            assert!(
                want.starts_with(&format!("{{\"req\":{qid},\"ok\":true,{key}")),
                "{want}"
            );
            let got = fleet.handle_frame(&payload);
            assert!(
                got.starts_with(&format!("{{\"req\":{qid},\"ok\":true,\"partial\":false,")),
                "{got}"
            );
            assert_eq!(tail(&got, key), tail(&want, key), "{payload}");
        }
    }
    shut_down(fleet, shards);
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // A fleet of 1–4 shards answers a `traj_bits` query with the
    // `hits_bits` of one server holding the same rows: the same ids, the
    // same distance bits, in the same order. Rows share a few trajectories,
    // so many distances tie exactly; neither side is compacted, so both
    // answer from exact buffer scans.
    #[test]
    fn a_fleet_answers_bit_exact_against_one_server(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let server = sharded_server(1);
        let (fleet, shards) = fleet_of(rng.gen_range(1..=4usize));
        let shapes = rng.gen_range(1..=6u64);
        let rows = rng.gen_range(1..=24usize);
        for _ in 0..rows {
            let upsert = format!(
                "{{\"op\":\"upsert\",\"id\":{},\"traj\":{}}}",
                rng.gen::<u64>(),
                traj_json(&traj_for(rng.gen_range(0..shapes)))
            );
            prop_assert_eq!(fleet.handle_frame(&upsert), handle(&server, &upsert));
        }
        for _ in 0..6 {
            let payload = format!(
                "{{\"op\":\"knn\",\"traj_bits\":\"{}\",\"k\":{}}}",
                traj_bits(&traj_for(rng.gen_range(0..shapes + 2))),
                rng.gen_range(1..=rows + 2)
            );
            let want = handle(&server, &payload);
            let want = want.strip_prefix("{\"ok\":true,").expect(&want);
            let got = fleet.handle_frame(&payload);
            let got = got
                .strip_prefix("{\"ok\":true,\"partial\":false,")
                .and_then(|tail| tail.split_once(",\"hits_bits\""))
                .map(|(_, hits)| format!("\"hits_bits\"{hits}"));
            prop_assert_eq!(got.as_deref(), Some(want), "{}", payload);
        }
        shut_down(fleet, shards);
        server.shutdown();
    }
}

/// A fleet embeds a query once: a fresh `knn` runs exactly one forward
/// pass across all its shards (the `embed` leg's, at one shard), and a
/// repeat runs none and looks nothing up in any shard's cache: the
/// front-end's own cache answers it, and the shards search by vector.
#[test]
fn a_fleet_knn_miss_is_one_forward_across_the_fleet_and_a_repeat_none() {
    let (fleet, shards) = fleet_of(4);
    for id in 0..16u64 {
        let upsert = format!(
            "{{\"op\":\"upsert\",\"id\":{id},\"traj\":{}}}",
            traj_json(&traj_for(id))
        );
        assert!(fleet.handle_frame(&upsert).contains("\"ok\":true"));
    }
    // Forward passes and cache lookups, summed over the shards.
    let work = || {
        shards
            .iter()
            .fold((0, 0), |(forwards, lookups), (server, _)| {
                let s = server.stats();
                (
                    forwards + s.batches,
                    lookups + s.cache_hits + s.cache_misses,
                )
            })
    };
    let knn = format!(
        "{{\"op\":\"knn\",\"traj\":{},\"k\":3}}",
        traj_json(&traj_for(40))
    );
    let (forwards, lookups) = work();
    let fresh = fleet.handle_frame(&knn);
    assert!(
        fresh.contains("\"partial\":false,\"shards_ok\":4"),
        "{fresh}"
    );
    assert_eq!(work(), (forwards + 1, lookups + 1), "a fresh query");
    let repeat = fleet.handle_frame(&knn);
    assert_eq!(repeat, fresh);
    assert_eq!(work(), (forwards + 1, lookups + 1), "a repeat");
    // The front-end counts its own lookups in `stats`.
    let stats = fleet.handle_frame("{\"op\":\"stats\"}");
    assert!(
        stats.contains("\"shards\":4,\"cache_hits\":1,\"cache_misses\":1,\"health\":["),
        "{stats}"
    );
    shut_down(fleet, shards);
}

/// An `embed` sent `traj_bits` answers the exact `vec_bits`, and a `knn`
/// sent those `vec_bits` gets the same `hits_bits` from a server and from
/// a fleet, and the same as the trajectory's own `traj_bits` query.
#[test]
fn a_fleet_answers_vec_bits_with_the_servers_exact_hits() {
    let server = sharded_server(1);
    let (fleet, shards) = fleet_of(3);
    for id in 0..24u64 {
        let upsert = format!(
            "{{\"op\":\"upsert\",\"id\":{id},\"traj\":{}}}",
            traj_json(&traj_for(id))
        );
        assert_eq!(handle(&server, &upsert), fleet.handle_frame(&upsert));
    }
    for qid in [0u64, 7, 23, 40] {
        let bits = traj_bits(&traj_for(qid));
        let embed = format!("{{\"op\":\"embed\",\"traj_bits\":\"{bits}\"}}");
        let vec = handle(&server, &embed);
        let hex = vec
            .strip_prefix("{\"ok\":true,\"vec_bits\":\"")
            .and_then(|rest| rest.strip_suffix("\"}"))
            .unwrap_or_else(|| panic!("{vec}"));
        assert_eq!(fleet.handle_frame(&embed), vec);
        let by_vec = format!("{{\"req\":{qid},\"op\":\"knn\",\"vec_bits\":\"{hex}\",\"k\":7}}");
        let want = handle(&server, &by_vec);
        assert!(
            want.starts_with(&format!("{{\"req\":{qid},\"ok\":true,\"hits_bits\":")),
            "{want}"
        );
        let got = fleet.handle_frame(&by_vec);
        assert!(
            got.starts_with(&format!("{{\"req\":{qid},\"ok\":true,\"partial\":false,")),
            "{got}"
        );
        assert_eq!(tail(&got, "\"hits_bits\":"), tail(&want, "\"hits_bits\":"));
        let by_traj = format!("{{\"op\":\"knn\",\"traj_bits\":\"{bits}\",\"k\":7}}");
        let by_traj = handle(&server, &by_traj);
        assert_eq!(
            tail(&by_traj, "\"hits_bits\":"),
            tail(&want, "\"hits_bits\":")
        );
    }
    shut_down(fleet, shards);
    server.shutdown();
}

/// A bad `vec_bits` `knn` gets an in-band error, the same from a fleet as
/// from a server; a shard checks the width, so a fleet's is a shard's.
#[test]
fn a_fleet_answers_a_bad_vec_bits_knn_with_the_servers_error() {
    let server = sharded_server(1);
    let (fleet, shards) = fleet_of(2);
    let dim = server.embed(&traj_for(1)).expect("embed").len();
    let word = |x: f32| format!("{:08x}", x.to_bits());
    let good = word(0.5).repeat(dim);
    let with = |hex: &str| format!("{{\"req\":4,\"op\":\"knn\",\"vec_bits\":\"{hex}\",\"k\":2}}");
    let traj = traj_json(&traj_for(3));
    let table = [
        (
            with(&good[1..]),
            "\"vec_bits\" length must be a multiple of 8".to_string(),
        ),
        (
            with(&format!("{}{}", word(1.5).to_uppercase(), &good[8..])),
            "\"vec_bits\" value 0: not 8 lowercase hex digits".into(),
        ),
        (
            with(&format!("{}{}{}", word(1.0), word(f32::NAN), &good[16..])),
            "\"vec_bits\" value 1: not finite".into(),
        ),
        (
            with(&format!("{}{}", &good, word(f32::INFINITY))),
            format!("\"vec_bits\" value {dim}: not finite"),
        ),
        (
            with(&good[8..]),
            format!(
                "query vector holds {} values, the model embeds {dim}",
                dim - 1
            ),
        ),
        (
            with(""),
            format!("query vector holds 0 values, the model embeds {dim}"),
        ),
        (
            "{\"req\":4,\"op\":\"knn\",\"vec_bits\":[0.5],\"k\":2}".into(),
            "\"vec_bits\" must be a string of hex digits".into(),
        ),
        (
            format!("{{\"req\":4,\"op\":\"knn\",\"traj\":{traj},\"vec_bits\":\"{good}\",\"k\":2}}"),
            "\"knn\" takes \"vec_bits\" or a trajectory, not both".into(),
        ),
        (
            format!("{{\"req\":4,\"op\":\"knn\",\"vec_bits\":\"{good}\"}}"),
            "missing field \"k\"".into(),
        ),
    ];
    for (payload, error) in &table {
        let want = handle(&server, payload);
        let escaped = error.replace('"', "\\\"");
        assert_eq!(
            want,
            format!("{{\"req\":4,\"ok\":false,\"error\":\"{escaped}\"}}"),
            "{payload}"
        );
        assert_eq!(fleet.handle_frame(payload), want, "{payload}");
    }
    assert_eq!(fleet.health(), vec![ShardHealth::Up; 2]);
    shut_down(fleet, shards);
    server.shutdown();
}

/// A query whose `traj` fits a frame but whose `traj_bits` (32 bytes a
/// point) would not is refused in-band by the front-end: no shard reads an
/// oversized header, so none is charged a failure for it.
#[test]
fn a_knn_too_large_for_a_shard_frame_leaves_every_shard_up() {
    let (fleet, shards) = fleet_of(2);
    let points = MAX_FRAME_LEN / 32 + 1000;
    let traj = vec!["[1,2]"; points].join(",");
    let payload = format!("{{\"req\":5,\"op\":\"knn\",\"traj\":[{traj}],\"k\":2}}");
    assert!(payload.len() < MAX_FRAME_LEN);
    let reply = fleet.handle_frame(&payload);
    let refused =
        format!("{{\"req\":5,\"ok\":false,\"error\":\"query of {points} points too large");
    assert!(reply.starts_with(&refused), "{reply}");
    assert_eq!(fleet.health(), vec![ShardHealth::Up; 2]);
    let small = format!(
        "{{\"req\":6,\"op\":\"knn\",\"traj\":{},\"k\":2}}",
        traj_json(&traj_for(1))
    );
    let reply = fleet.handle_frame(&small);
    assert!(
        reply.starts_with("{\"req\":6,\"ok\":true,\"partial\":false,"),
        "{reply}"
    );
    shut_down(fleet, shards);
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
        let result = pump_frames(
            &handler,
            &mut BufReader::new(&input[..]),
            &mut out,
            handlers,
        );
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

#[test]
fn a_lock_step_connection_is_answered_on_one_thread() {
    // Four handlers, one request in flight at a time: the thread that
    // answers a frame keeps the reader and reads the next one itself.
    let recorder = Arc::new(Rendezvous {
        barrier: Barrier::new(1),
        threads: Mutex::new(Vec::new()),
    });
    let net = listen_with(
        Arc::clone(&recorder),
        "127.0.0.1:0",
        4,
        SessionOptions::default(),
    )
    .expect("listen");
    let mut client = Client::connect(net.local_addr()).expect("connect");
    for req in 0..64 {
        let frame = format!("{{\"req\":{req}}}");
        assert_eq!(client.call(&frame).expect("reply"), frame);
    }
    drop(client);
    net.shutdown();
    let threads = recorder.threads.lock().expect("threads").clone();
    assert_eq!(threads.len(), 64);
    let distinct: HashSet<_> = threads.iter().collect();
    assert_eq!(distinct.len(), 1, "the reader changed hands: {threads:?}");
}

/// Passes the reader, says so on `passed`, then waits at a barrier with
/// every other frame.
struct PassThenWait {
    passed: std::sync::mpsc::Sender<()>,
    barrier: Barrier,
}

impl FrameHandler for PassThenWait {
    fn handle_frame(&self, payload: &str) -> String {
        self.handle_session_frame(payload, &|| {})
    }

    fn handle_session_frame(&self, payload: &str, pass: &dyn Fn()) -> String {
        pass();
        let _ = self.passed.send(());
        self.barrier.wait();
        payload.to_string()
    }
}

#[test]
fn a_request_that_waits_passes_the_reader() {
    // Two handlers and a barrier of two. The first frame passes the
    // reader and waits. The second is sent only once the first is being
    // answered, so it was not buffered with it, and only a follower that
    // took the reader can read it and bring it to the barrier. Without
    // the pass the session hangs and the client's read deadline fails
    // the test.
    let (mut client, session_end) = UnixStream::pair().expect("socket pair");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("deadline");
    let (passed, first_passed) = std::sync::mpsc::channel();
    let session = std::thread::spawn(move || {
        let handler = PassThenWait {
            passed,
            barrier: Barrier::new(2),
        };
        let mut input = BufReader::new(session_end.try_clone().expect("clone"));
        let mut out = session_end;
        pump_frames(&handler, &mut input, &mut out, 2)
    });
    write_frame(&mut client, "{\"req\":0}").expect("send");
    first_passed
        .recv_timeout(Duration::from_secs(10))
        .expect("the first frame is being answered");
    write_frame(&mut client, "{\"req\":1}").expect("send");
    let mut replies = BufReader::new(client.try_clone().expect("clone"));
    let mut answered: Vec<String> = (0..2)
        .map(|_| {
            read_frame(&mut replies)
                .expect("the second frame reached the barrier")
                .expect("a reply")
        })
        .collect();
    answered.sort();
    assert_eq!(answered, ["{\"req\":0}", "{\"req\":1}"]);
    client.shutdown(std::net::Shutdown::Both).expect("close");
    session.join().expect("session").expect("clean end");
}

#[test]
fn a_request_passes_the_reader_only_before_it_may_wait() {
    let server = sharded_server(1);
    // How many times `payload` called the hook, checking that each call
    // came before the request's forward and before its write.
    let passes = |handler: &dyn FrameHandler, payload: &str| {
        let stamp = || {
            let s = server.stats();
            (s.batches, s.generation)
        };
        let before = stamp();
        let count = Cell::new(0);
        let reply = handler.handle_session_frame(payload, &|| {
            assert_eq!(stamp(), before, "{payload} passed late");
            count.set(count.get() + 1);
        });
        assert!(reply.contains("\"ok\":true"), "{payload}: {reply}");
        count.get()
    };
    let traj = |id| traj_json(&traj_for(id));
    let knn = |id| format!("{{\"op\":\"knn\",\"k\":3,\"traj\":{}}}", traj(id));
    let embed = |id| format!("{{\"op\":\"embed\",\"traj\":{}}}", traj(id));
    let distance = |a, b| {
        format!(
            "{{\"op\":\"distance\",\"a\":{},\"b\":{}}}",
            traj(a),
            traj(b)
        )
    };
    let upsert = |id| format!("{{\"op\":\"upsert\",\"id\":{id},\"traj\":{}}}", traj(id));
    let remove = |id| format!("{{\"op\":\"remove\",\"id\":{id}}}");
    let (compact, ping, stats) = (
        "{\"op\":\"compact\"}",
        "{\"op\":\"ping\"}",
        "{\"op\":\"stats\"}",
    );

    // A miss passes once, before the forward gate.
    let forwards = || server.stats().batches;
    for payload in [knn(1), embed(2), distance(1, 3)] {
        let ran = forwards();
        assert_eq!(passes(&*server, &payload), 1, "{payload}");
        assert_eq!(forwards(), ran + 1, "{payload} missed");
    }
    // A hit never does.
    for payload in [knn(2), embed(3), distance(2, 1)] {
        let ran = forwards();
        assert_eq!(passes(&*server, &payload), 0, "{payload}");
        assert_eq!(forwards(), ran, "{payload} hit");
    }
    // A write passes once, before it embeds or writes: cached or not.
    for payload in [upsert(1), upsert(4), remove(1), compact.to_string()] {
        assert_eq!(passes(&*server, &payload), 1, "{payload}");
    }
    assert_eq!(passes(&*server, ping), 0);
    assert_eq!(passes(&*server, stats), 0);

    // A fleet passes before every op it routes; it answers `ping` itself.
    let (fleet, shards) = fleet_of(2);
    let routed = [knn(5), embed(5), distance(5, 6), upsert(7), remove(7)];
    for payload in routed.iter().map(String::as_str).chain([compact, stats]) {
        assert_eq!(passes(&fleet, payload), 1, "{payload}");
    }
    assert_eq!(passes(&fleet, ping), 0);
    shut_down(fleet, shards);
    server.shutdown();
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
