//! Error types for the device runtime.

use crate::api::ApiSurface;
use exa_machine::GpuArch;
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
    /// An API surface was used on hardware it cannot drive (CUDA on an AMD
    /// GPU) — the error an unported code hits on an early-access system.
    UnsupportedArch {
        /// API surface the call was made against.
        api: ApiSurface,
        /// Architecture of the device it was made on.
        arch: GpuArch,
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
            HalError::UnsupportedArch { api, arch } => {
                write!(f, "the {api:?} API surface cannot drive {arch:?} hardware")
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
