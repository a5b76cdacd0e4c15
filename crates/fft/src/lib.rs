//! # exa-fft — FFT substrate
//!
//! GESTS (§3.3) is "written in Fortran 95 around a custom-built 3D FFT
//! algorithm"; ExaSky's HACC "only depends on an external FFT library"; the
//! SHOC suite (Figure 1) contains an FFT microbenchmark. This crate is the
//! cuFFT/rocFFT stand-in they all share:
//!
//! * [`fft1d`] — a radix-2² Cooley–Tukey kernel for powers of two and a
//!   Bluestein chirp-z fallback for general lengths, with its inverse;
//! * [`mod@fft3d`] — in-memory 3-D transforms, thread-parallel over lines;
//! * [`dist3d`] — the distributed 3-D FFT at the heart of the GESTS PSDNS
//!   solver, with both domain decompositions the paper compares: **Slabs**
//!   (1-D decomposition, one transpose per transform, at most N ranks) and
//!   **Pencils** (2-D decomposition, two transposes, up to N² ranks);
//! * [`executed`] — the *executed* distributed transform: ranks really own
//!   line slices, FFT passes run concurrently on the work-stealing rank
//!   scheduler, and transposes really repartition the data — bit-identical
//!   to [`fft3d`](fft3d()) on the gathered array at any thread count;
//! * [`plan`] — the one [`TransposePlan`] both distributed transforms
//!   price, so the executed virtual time equals the costed price.

pub mod dist3d;
pub mod executed;
pub mod fft1d;
pub mod fft3d;
pub mod plan;

pub use dist3d::{Decomp, DistFft3d};
pub use exa_linalg::C64;
pub use executed::{DistGrid, ExecutedFft3d, LineAxis};
pub use fft1d::{dft_naive, fft, ifft};
pub use fft3d::fft3d;
pub use plan::TransposePlan;
