//! Typed protocol errors.

use std::fmt;

/// A directory operation that cannot be carried out, surfaced as a value
/// rather than a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// A directory bank geometry that cannot exist: entry count not a
    /// positive multiple of the associativity.
    BadGeometry {
        /// Requested entry count.
        entries: usize,
        /// Bank associativity.
        ways: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadGeometry { entries, ways } => write!(
                f,
                "directory geometry {entries} entries / {ways} ways is not a positive multiple"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}
