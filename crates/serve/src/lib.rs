//! # trajcl-serve
//!
//! A concurrent serving runtime over a [`trajcl_engine::Engine`] — the
//! layer that turns the library into a server:
//!
//! * **gated inline forwards** ([`server`]) — a cache miss runs its own
//!   tape-free forward through [`trajcl_engine::Engine::embed_all`] on
//!   the thread that asked, at most [`ServeConfig::workers`] of them at
//!   once; no queue, no worker threads;
//! * **sharded, snapshot-readable index** ([`router`], over
//!   [`trajcl_index::ShardedIndex`]) — vectors partition across N
//!   hash-on-id [`trajcl_index::MutableIndex`] shards, each with its own
//!   write lock, snapshot and independent compaction; `upsert`/`remove`
//!   land in per-shard write buffers, kNN scatter-gathers every shard and
//!   merges exactly, so readers never block on writers and writers on
//!   different shards never block each other;
//! * **LRU embedding cache** ([`cache`]) — keyed by trajectory content
//!   hash and consulted before any forward pass, so hot queries skip the
//!   model entirely;
//! * **wire protocol** ([`proto`]) — length-prefixed JSON frames over any
//!   byte stream (normative spec: `PROTOCOL.md` at the repo root);
//! * **transport** ([`net`]) — a TCP / unix-socket listener and client
//!   for those frames, with connect/read/write deadlines on every socket
//!   and idle-session reaping; the `trajcl serve` CLI subcommand speaks
//!   either the listener or the degenerate stdin/stdout
//!   single-connection mode;
//! * **fleet front-end** ([`fleet`]) — a router process owning
//!   [`Client`] connections to N downstream shard servers: scatters
//!   `knn`/`upsert`/`remove` by the same hash-on-id placement, merges
//!   through the exact top-k path, and degrades gracefully (retries
//!   with backoff, per-shard health tracking, `"partial":true` answers)
//!   when shards die;
//! * **fault injection** ([`chaos`]) — a deterministic seeded
//!   frame-corrupting proxy (drop/delay/truncate/garble/kill) that the
//!   chaos test suite uses to prove the failure modes in DESIGN.md §14
//!   actually hold;
//! * **durability** ([`router::WalConfig`], over
//!   [`trajcl_index::Wal`]) — an optional per-shard write-ahead log:
//!   every mutation is appended and group-fsync'd *before* it is
//!   applied or acknowledged, recovery replays last checkpoint + log
//!   tail, and the crash-point matrix in `crates/index/tests/`
//!   proves no acknowledged write is ever lost (DESIGN.md §15).
//!
//! ```
//! use std::sync::Arc;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
//! use trajcl_engine::Engine;
//! use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
//! use trajcl_serve::{ServeConfig, Server};
//! use trajcl_tensor::{Shape, Tensor};
//!
//! // A tiny engine over 8 synthetic trajectories.
//! let mut rng = StdRng::seed_from_u64(0);
//! let cfg = TrajClConfig::test_default();
//! let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
//! let grid = Grid::new(region, 100.0);
//! let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
//! let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
//! let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
//! let db: Vec<Trajectory> = (0..8)
//!     .map(|i| (0..6).map(|t| Point::new(t as f64 * 90.0, i as f64 * 120.0)).collect())
//!     .collect();
//! let engine = Engine::builder().trajcl(model, feat).database(db.clone()).build().unwrap();
//!
//! // Wrap it in the serving runtime and query concurrently.
//! let server = Server::new(Arc::new(engine), ServeConfig::default()).unwrap();
//! let hits = server.knn(&db[2], 3).unwrap();
//! assert_eq!(hits[0].0, 2); // the query is its own nearest neighbour
//! server.upsert(100, &db[5]).unwrap();
//! server.remove(0).unwrap();
//! assert_eq!(server.compact().unwrap(), 8); // 8 live vectors re-sealed
//! ```

#![warn(missing_docs)]
// The request path (DESIGN.md §11.2): a panic here kills a request
// mid-flight, so non-test code returns errors instead.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod cache;
pub mod chaos;
pub mod fleet;
pub mod json;
pub mod net;
pub mod proto;
pub mod router;
pub mod server;

pub use cache::{content_hash, LruCache};
pub use chaos::{ChaosPlan, ChaosProxy, Fault};
pub use fleet::{Fleet, FleetConfig, ShardHealth};
pub use net::{
    listen, listen_with, Client, ClientOptions, FrameHandler, NetServer, SessionOptions,
};
pub use router::{ShardRouter, WalConfig, WalRecoveryStats};
pub use server::{ServeConfig, Server, ServerStats};
