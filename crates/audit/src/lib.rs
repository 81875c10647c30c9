//! `trajcl-audit`: the decoder fuzzer, wired into CI as `trajcl audit`.
//!
//! [`fuzz`] is a deterministic structure-aware mutation fuzzer for the
//! decoders that read untrusted bytes, four targets: `json` (the JSON
//! parser), `proto` (serve frames and the typed request and shard-reply
//! decoders), `engine` (TCE1 engine files) and `wal` (write-ahead-log
//! records and checkpoints). It asserts "reject cleanly or decode to
//! something probe-able, never panic".
//!
//! The serving stack's static rules (no panics on the request path,
//! `// SAFETY:` on every unsafe block, no lossy casts in codec modules)
//! are clippy lints; trust boundaries and the rules are documented in
//! DESIGN.md §11.

#![warn(missing_docs)]

pub mod fuzz;

pub use fuzz::{FuzzOptions, FuzzReport};
