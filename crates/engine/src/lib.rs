//! # trajcl-engine
//!
//! The unified similarity API over everything this workspace can do:
//!
//! * [`SimilarityBackend`] — one object-safe trait (`embed_batch`,
//!   `distance`, `dim`, `name`) implemented by TrajCL itself
//!   ([`TrajClBackend`]), every baseline encoder (via the blanket adapter
//!   [`EncoderBackend`]), exact heuristic measures ([`HeuristicBackend`])
//!   and fine-tuned estimators ([`FinetunedBackend`]);
//! * [`Engine`] / [`EngineBuilder`] — builder-pattern construction
//!   (dataset → featurizer → backend → optional IVF index), chunked
//!   [`Engine::embed_all`], [`Engine::knn`] that routes to the index or
//!   brute force automatically, [`Engine::approximate_measure`] wrapping
//!   fine-tuning, and whole-engine persistence
//!   ([`Engine::to_bytes`] / [`Engine::from_bytes`]);
//! * [`EngineError`] — one typed error for the whole stack, converted from
//!   the featurisation and persistence errors of the crates below.
//!
//! ```
//! use trajcl_data::{Dataset, DatasetProfile};
//! use trajcl_engine::Engine;
//! use trajcl_measures::HeuristicMeasure;
//!
//! let dataset = Dataset::generate(DatasetProfile::porto(), 30, 0);
//! // Heuristic backend: exact Hausdorff kNN, no training required.
//! let engine = Engine::builder()
//!     .heuristic(HeuristicMeasure::Hausdorff)
//!     .database(dataset.trajectories.clone())
//!     .build()
//!     .unwrap();
//! let hits = engine.knn(&dataset.trajectories[0], 3).unwrap();
//! assert_eq!(hits[0].0, 0); // the query itself is its own nearest neighbour
//! ```

pub mod backend;
pub mod engine;
pub mod error;

pub use backend::{
    EncoderBackend, FinetunedBackend, HeuristicBackend, SimilarityBackend, TrajClBackend,
};
pub use engine::{Engine, EngineBuilder, DEFAULT_BATCH};
pub use error::EngineError;
pub use trajcl_index::{Durability, IndexOptions, Quantization};
