//! # exa-amr — block-structured AMR substrate (the AMReX stand-in)
//!
//! §3.8: "Both applications are built upon the AMReX block-structured AMR
//! library" and "the largest performance increase at large scale came from
//! the asynchronous ghost cell exchange implementation". This crate
//! provides the pieces of AMReX the Pele mini-apps lean on, for real:
//!
//! * [`IntBox`] — 2-D index-space boxes with the usual algebra (intersect,
//!   grow, shift);
//! * [`BoxArray`] — a domain chopped into max-size boxes with a round-robin
//!   rank distribution;
//! * [`MultiFab`] — per-box data with ghost frames, periodic
//!   `fill_boundary` ghost exchange (real copies + α–β comm charging via
//!   `exa-mpi`, synchronous or overlapped/asynchronous), and reductions.

pub mod box_array;
pub mod box_t;
pub mod multifab;

pub use box_array::BoxArray;
pub use box_t::IntBox;
pub use multifab::{GhostPolicy, MultiFab};
