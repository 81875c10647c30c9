//! # trajcl-nn
//!
//! Neural-network building blocks on top of [`trajcl_tensor`]: a persistent
//! [`ParamStore`] with optimizer state and serialisation, standard layers
//! (linear, layer norm, MLP, embedding, conv), vanilla multi-head
//! self-attention with sinusoidal positional encodings, GRU/LSTM cells for
//! the recurrent baselines, SGD/Adam optimizers with the paper's step-decay
//! schedule, and [`regress`], the pair-regression trainer behind Table X.
//!
//! Every layer has one `forward`, generic over the
//! [`trajcl_tensor::Exec`] it runs on: a [`Fwd`] over a
//! [`trajcl_tensor::TapeExec`] trains it, a [`Fwd`] over a
//! [`trajcl_tensor::InferCtx`] serves it.
//!
//! The TrajCL-specific DualMSM/DualSTB modules live in `trajcl-core` and are
//! composed from the primitives exported here.

pub mod attention;
pub mod init;
pub mod modules;
pub mod optim;
pub mod regress;
pub mod rnn;
pub mod store;

pub use attention::{
    project_heads, sinusoidal_pe, MultiHeadSelfAttention, PeTable, PostBlock,
    TransformerEncoderLayer,
};
pub use modules::{Conv2d, Embedding, Fwd, LayerNorm, Linear, Mlp};
pub use optim::{Adam, Sgd, StepDecay};
pub use regress::{train_pairs, PairRegression};
pub use rnn::{run_gru, run_lstm, GruCell, LstmCell};
pub use store::{ParamId, ParamStore};
