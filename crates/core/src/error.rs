//! Error types shared across the `sann` workspace.

use std::fmt;

/// A specialized [`Result`](std::result::Result) with [`Error`] as the error type.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by `sann` crates.
///
/// The variants cover the failure classes of the whole workspace so that
/// downstream crates can wrap this single type instead of defining a ladder
/// of nearly identical enums.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Two vectors (or a vector and an index) disagree on dimensionality.
    DimensionMismatch {
        /// The dimensionality that was expected.
        expected: usize,
        /// The dimensionality that was provided.
        actual: usize,
    },
    /// A parameter was outside its legal range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable explanation of the constraint that was violated.
        message: String,
    },
    /// A vector id referenced a row that does not exist.
    IdOutOfBounds {
        /// The offending id.
        id: u64,
        /// Number of rows actually present.
        len: u64,
    },
    /// The operation requires a non-empty dataset.
    Empty(&'static str),
    /// A persisted frame (index, dataset, cache entry) was malformed.
    Corrupt(String),
    /// Anything I/O-shaped (simulated device errors, cache files).
    Io(String),
    /// The named entity (vector, dataset, setup) does not exist.
    NotFound(String),
    /// The named entity already exists.
    AlreadyExists(String),
}

impl Error {
    /// Convenience constructor for [`Error::InvalidParameter`].
    pub fn invalid_parameter(name: &'static str, message: impl Into<String>) -> Self {
        Error::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            Error::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            Error::IdOutOfBounds { id, len } => {
                write!(f, "vector id {id} out of bounds for length {len}")
            }
            Error::Empty(what) => write!(f, "{what} is empty"),
            Error::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            Error::Io(msg) => write!(f, "i/o error: {msg}"),
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::AlreadyExists(what) => write!(f, "already exists: {what}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Self {
        Error::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = Error::DimensionMismatch {
            expected: 768,
            actual: 1536,
        };
        let text = err.to_string();
        assert!(text.contains("768"));
        assert!(text.contains("1536"));
        assert!(text.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: Error = io.into();
        assert!(matches!(err, Error::Io(_)));
    }

    #[test]
    fn invalid_parameter_ctor() {
        let err = Error::invalid_parameter("search_list", "must be >= k");
        assert_eq!(
            err.to_string(),
            "invalid parameter `search_list`: must be >= k"
        );
    }
}
