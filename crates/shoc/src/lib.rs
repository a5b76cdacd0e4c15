//! # exa-shoc — the SHOC-style microbenchmark suite (Figure 1)
//!
//! §2.1: "As an early, partial evaluation of HIP's functionality and
//! performance, OLCF personnel used AMD's hipify tool to convert the CUDA
//! implementations of the SHOC benchmark programs to HIP and compared the
//! performance of both versions when run on OLCF's Summit system with its
//! NVIDIA GPUs. ... the performance of the HIP implementations was similar
//! to that of the CUDA versions. Average normalized HIP performance was
//! 99.8 % of CUDA performance when considering data transfer costs, 99.9 %
//! without."
//!
//! This crate reimplements the SHOC programs against the `exa-hal` runtime:
//! every benchmark performs **real math** (verified against a host oracle)
//! while virtual time accrues from the machine model. Each benchmark also
//! carries a CUDA-dialect source snippet so the `hipify` translator can be
//! evaluated on the same corpus the paper used it on.
//!
//! [`figure1::run_figure1`] reruns the paper's experiment end to end:
//! hipify the suite, run both API surfaces on a Summit V100, and report the
//! normalized performance ratios.

pub mod figure1;
pub mod kernels;
pub mod result;

pub use kernels::all_benchmarks;
pub use result::Scale;
