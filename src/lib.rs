//! # trajcl
//!
//! Umbrella crate for the full-Rust reproduction of **"Contrastive
//! Trajectory Similarity Learning with Dual-Feature Attention"**
//! (TrajCL, ICDE 2023). Re-exports every workspace crate:
//!
//! * [`tensor`] — from-scratch f32 tensors + reverse-mode autograd;
//! * [`nn`] — layers, attention, RNN cells, optimizers;
//! * [`geo`] — trajectories, grids, Douglas–Peucker, spatial features;
//! * [`measures`] — Hausdorff / Fréchet / EDR / EDwP / DTW;
//! * [`graph`] — node2vec cell embeddings;
//! * [`data`] — synthetic datasets, augmentations, evaluation protocol;
//! * [`core`] — TrajCL itself (DualMSM/DualSTB, MoCo, fine-tuning);
//! * [`baselines`] — t2vec, E2DTC, TrjSR, CSTRM, T3S, Traj2SimVec, TrajGAT;
//! * [`index`] — IVF embedding index + segment Hausdorff index;
//! * [`engine`] — the unified similarity API: one object-safe
//!   `SimilarityBackend` over TrajCL, baselines and heuristic measures,
//!   served by `Engine`/`EngineBuilder` with exact kNN and persistence;
//! * [`serve`] — the concurrent serving runtime: gated inline embedding,
//!   the one indexed kNN (a mutable snapshot-readable index over the
//!   engine's table), an LRU embedding cache and the `trajcl serve` wire
//!   protocol.
//!
//! See `examples/quickstart.rs` for an end-to-end tour and DESIGN.md for
//! the architecture (crate graph, engine trait diagram, error-handling
//! policy).

pub use trajcl_baselines as baselines;
pub use trajcl_core as core;
pub use trajcl_data as data;
pub use trajcl_engine as engine;
pub use trajcl_geo as geo;
pub use trajcl_graph as graph;
pub use trajcl_index as index;
pub use trajcl_measures as measures;
pub use trajcl_nn as nn;
pub use trajcl_serve as serve;
pub use trajcl_tensor as tensor;
