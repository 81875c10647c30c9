//! # trajcl-index
//!
//! The two indexes of the paper's kNN experiments (§V-E):
//!
//! * [`IvfIndex`] — an inverted-file (Voronoi) vector index over learned
//!   embeddings, substituting Faiss \[52\];
//! * [`SegmentHausdorffIndex`] — a segment-based exact Hausdorff kNN index
//!   with lower-bound pruning, substituting DFT \[1\].
//!
//! Both expose `memory_bytes` so Table IX's build-cost comparison (and the
//! DFT memory blow-up) can be reproduced.
//!
//! For serving, [`MutableIndex`] wraps the IVF machinery in an upsert /
//! remove / compact lifecycle with immutable, atomically-swapped read
//! snapshots ([`IndexSnapshot`]). The [`wal`] module adds crash
//! durability on top: a per-shard write-ahead log with group-commit
//! fsync, snapshot checkpointing, and a deterministic crash-point fault
//! injector ([`CrashPointFs`]) behind the crash-recovery test matrix
//! (DESIGN.md §15).
//!
//! Every index ranks by one distance, L1 ([`Metric`]). All hot paths run
//! through [`kernels`]: blocked SIMD-friendly f32 distance kernels, a
//! fused bounded top-k selector ([`TopK`]), the SQ8 scalar quantizer
//! ([`Sq8Codebook`]) behind [`Quantization::Sq8`]-configured indexes, and
//! the product quantizer ([`PqCodebook`], ADC lookup-table scans) behind
//! [`Quantization::Pq`]. SQ8's integer scan is one portable
//! sum-of-absolute-differences, [`kernels::dispatch::sad`], for every
//! CPU. Which of those a stored row is scanned and decoded with is
//! decided in one private module (`storage`, the codec seam); [`ivf`]
//! holds only what is IVF. Quantized hits are re-ranked exactly in one
//! place, [`IndexSnapshot::search_rescored`]. DESIGN.md §10 documents the
//! seam, the storage layouts and the over-fetch / rescore recall math
//! shared by both quantizers; §12 covers the integer kernels and CPU
//! dispatch.

#![warn(missing_docs)]

pub mod hausdorff_index;
pub mod ivf;
pub mod kernels;
pub mod mutable;
pub mod sharded;
mod storage;
pub mod wal;

pub use hausdorff_index::SegmentHausdorffIndex;
pub use ivf::{
    brute_force_batch_knn, brute_force_knn, IndexOptions, IvfIndex, Metric, Quantization,
    SearchScratch, DEFAULT_PQ_M, DEFAULT_RESCORE_FACTOR,
};
pub use kernels::{PqCodebook, Sq8Codebook, TopK};
pub use mutable::{ExactRescorer, IndexSnapshot, MutableIndex};
pub use sharded::{merge_partials, shard_for, splitmix64, ShardedIndex, ShardedSnapshot};
pub use wal::{
    atomic_write, CheckpointData, CheckpointEntry, CrashPointFs, Durability, RealFs, Wal, WalFs,
    WalOp, WalRecovery,
};
