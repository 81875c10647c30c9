//! # trajcl-baselines
//!
//! Re-implementations of every comparison method in the paper's evaluation:
//!
//! **Self-supervised learned measures** (§II "learned measures"):
//! * [`t2vec`] — GRU seq2seq denoising autoencoder over cell tokens \[11\];
//! * [`e2dtc`] — t2vec backbone + clustering self-training \[14\];
//! * [`trjsr`] — CNN over rasterised trajectory images with a
//!   super-resolution objective \[12\];
//! * [`cstrm`] — contrastive learning with a vanilla-MSM encoder over
//!   trainable cell tokens \[13\].
//!
//! **Supervised approximators** (Table X competitors):
//! * [`neutraj`] — LSTM + spatial memory \[18\] (extension baseline);
//! * [`t3s`] — LSTM + self-attention blend \[20\];
//! * [`traj2simvec`] — coordinate LSTM with sampled pair regression \[19\];
//! * [`trajgat`] — adjacency-biased attention over cell tokens \[21\].
//!
//! All models implement [`TrajectoryEncoder`], so the experiment harness
//! ranks them with the same embedding-space L1 machinery as TrajCL. Each
//! encoder is written once over [`trajcl_tensor::Exec`]: it trains on the
//! autograd tape and embeds ([`TrajectoryEncoder::embed`]) on the tape-free
//! [`trajcl_tensor::InferCtx`], with the same bits.
//! Simplifications relative to the originals are listed in DESIGN.md §4.

pub mod common;
pub mod cstrm;
pub mod e2dtc;
pub mod neutraj;
pub mod supervised;
pub mod t2vec;
pub mod t3s;
pub mod traj2simvec;
pub mod trajgat;
pub mod trjsr;

pub use common::{TokenBatch, TokenFeaturizer, TrajectoryEncoder};
pub use cstrm::{Cstrm, CstrmConfig};
pub use e2dtc::{E2dtc, E2dtcConfig};
pub use neutraj::Neutraj;
pub use supervised::train_pair_regression;
pub use t2vec::{T2Vec, T2VecConfig};
pub use t3s::T3s;
pub use traj2simvec::Traj2SimVec;
pub use trajgat::TrajGat;
pub use trjsr::{Rasterizer, TrjSr, TrjSrConfig};
