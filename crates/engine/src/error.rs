//! The engine-wide error type.
//!
//! Hand-rolled in `thiserror` style (the build is offline): one enum with
//! `Display`, `std::error::Error` and `From` conversions from every layer
//! below, so `?` propagates from featurisation up through the CLI without
//! stringly-typed plumbing.

use trajcl_core::PersistError;
use trajcl_data::io::ParseError;
use trajcl_geo::FeaturizeError;

/// Everything that can go wrong inside a [`crate::Engine`] or the CLI
/// driving it.
#[derive(Debug)]
pub enum EngineError {
    /// A batch operation received no trajectories.
    EmptyBatch,
    /// The trajectory at `index` in a batch has no points.
    EmptyTrajectory {
        /// Position within the offending batch.
        index: usize,
    },
    /// A query referenced a database the engine does not have.
    NoDatabase,
    /// A query index fell outside the database.
    QueryOutOfRange {
        /// Requested index.
        index: usize,
        /// Database size.
        len: usize,
    },
    /// An operation needs more trajectories than were supplied.
    TooFewTrajectories {
        /// Minimum required.
        needed: usize,
        /// Actually supplied.
        got: usize,
    },
    /// The requested operation is not supported by this engine (e.g.
    /// persisting a fine-tuned estimator).
    Unsupported(String),
    /// Malformed user input (CLI options, config values).
    InvalidInput(String),
    /// Model/engine (de)serialisation failure.
    Persist(PersistError),
    /// An engine file failed to decode.
    CorruptEngineFile(&'static str),
    /// A trajectory text file failed to parse.
    Parse(ParseError),
    /// Filesystem failure.
    Io(std::io::Error),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyBatch => write!(f, "cannot operate on an empty batch"),
            EngineError::EmptyTrajectory { index } => {
                write!(f, "trajectory {index} in the batch holds no points")
            }
            EngineError::NoDatabase => write!(f, "engine has no database to query"),
            EngineError::QueryOutOfRange { index, len } => {
                write!(f, "query index {index} out of range ({len} trajectories)")
            }
            EngineError::TooFewTrajectories { needed, got } => {
                write!(f, "need at least {needed} trajectories, got {got}")
            }
            EngineError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            EngineError::InvalidInput(msg) => write!(f, "{msg}"),
            EngineError::Persist(e) => write!(f, "persistence: {e}"),
            EngineError::CorruptEngineFile(section) => {
                write!(f, "engine file corrupt ({section})")
            }
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Persist(e) => Some(e),
            EngineError::Parse(e) => Some(e),
            EngineError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FeaturizeError> for EngineError {
    fn from(e: FeaturizeError) -> Self {
        match e {
            FeaturizeError::EmptyBatch => EngineError::EmptyBatch,
            FeaturizeError::EmptyTrajectory { index } => EngineError::EmptyTrajectory { index },
        }
    }
}

impl From<PersistError> for EngineError {
    fn from(e: PersistError) -> Self {
        EngineError::Persist(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn featurize_errors_map_to_engine_variants() {
        assert!(matches!(
            EngineError::from(FeaturizeError::EmptyBatch),
            EngineError::EmptyBatch
        ));
        assert!(matches!(
            EngineError::from(FeaturizeError::EmptyTrajectory { index: 4 }),
            EngineError::EmptyTrajectory { index: 4 }
        ));
    }

    #[test]
    fn displays_are_informative() {
        let e = EngineError::QueryOutOfRange { index: 9, len: 5 };
        assert!(e.to_string().contains('9') && e.to_string().contains('5'));
    }

    #[test]
    fn io_errors_keep_a_source() {
        use std::error::Error as _;
        let e = EngineError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
