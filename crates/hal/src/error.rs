//! Error types for the device runtime.

use crate::api::{ApiSurface, Feature};
use std::fmt;

/// Errors returned by the simulated device runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HalError {
    /// A device allocation exceeded HBM capacity.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: u64,
        /// Bytes free on the device at the time of the request.
        available: u64,
    },
    /// A feature was used on an API surface that does not provide it — the
    /// §2.1 lesson ("it can foster the incorrect assumption among developers
    /// that *every* CUDA feature ... is, or will be, provided by HIP").
    UnsupportedFeature {
        /// API surface the call was made against.
        api: ApiSurface,
        /// The feature that is not available there.
        feature: Feature,
    },
    /// Host and device extents disagreed in a copy.
    SizeMismatch {
        /// Element count of the destination.
        dst: usize,
        /// Element count of the source.
        src: usize,
    },
    /// The pool allocator could not satisfy a request from its arena.
    PoolExhausted {
        /// Bytes requested.
        requested: u64,
        /// Largest free block available.
        largest_free: u64,
    },
    /// Freeing a pool block that the pool does not own (double free or
    /// foreign block).
    InvalidFree,
}

impl fmt::Display for HalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HalError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "device out of memory: requested {requested} B, {available} B free"
                )
            }
            HalError::UnsupportedFeature { api, feature } => {
                write!(f, "{feature:?} is not supported by the {api:?} API surface")
            }
            HalError::SizeMismatch { dst, src } => {
                write!(
                    f,
                    "copy size mismatch: dst has {dst} elements, src has {src}"
                )
            }
            HalError::PoolExhausted {
                requested,
                largest_free,
            } => {
                write!(
                    f,
                    "pool exhausted: requested {requested} B, largest free block {largest_free} B"
                )
            }
            HalError::InvalidFree => write!(f, "invalid pool free (double free or foreign block)"),
        }
    }
}

impl std::error::Error for HalError {}

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, HalError>;
