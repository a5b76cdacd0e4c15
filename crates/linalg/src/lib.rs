//! # exa-linalg — dense linear algebra substrate
//!
//! The paper's applications lean on vendor linear-algebra libraries —
//! cuBLAS/rocBLAS GEMM for GAMESS and CoMet, rocSOLVER `zgetrf`/`zgetrs` for
//! LSMS, MAGMA's divide-and-conquer eigensolver for GAMESS, batched MAGMA
//! LU for PeleLM(eX). None of those exist here, so this crate *is* that
//! substrate: real, tested, pure-Rust implementations of
//!
//! * complex arithmetic ([`complex`]),
//! * column-major dense matrices ([`matrix`]),
//! * blocked, thread-parallel GEMM, including the Int8 path CoMet counts
//!   with ([`gemm`]),
//! * LU factorisation with partial pivoting and triangular solves ([`lu`]),
//! * the `zblock_lu` block-inversion algorithm LSMS historically used, for
//!   the §3.2 "block inversion vs. rocSOLVER LU" comparison ([`block_inv`]),
//! * and [`device`] — wrappers that run these routines "on" a simulated GPU,
//!   charging roofline time through `exa-hal`, with a problem-size tuning
//!   table reproducing the §4 story of libraries tuned for application
//!   problem sizes.

pub mod block_inv;
pub mod complex;
pub mod device;
pub mod gemm;
pub mod lu;
pub mod matrix;
pub mod scalar;

pub use complex::C64;
pub use matrix::Matrix;
