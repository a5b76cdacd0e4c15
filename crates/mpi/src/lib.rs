//! # exa-mpi — deterministic simulated MPI
//!
//! The paper's conclusion (§6) is that "the 'GPU-Aware MPI + X' model for
//! inter-node communication remains the predominant narrative for Frontier
//! and the exascale era". This crate provides that MPI: a deterministic,
//! virtual-time message-passing layer whose collectives are priced with the
//! classic α–β models over the `exa-machine` interconnect catalogue
//! (Slingshot 10/11, EDR InfiniBand, Aries).
//!
//! ## Execution model
//!
//! Ranks are *simulated*, not spawned: a [`Comm`] owns one virtual clock per
//! rank and every operation advances the clocks of the ranks involved. Data-
//! carrying collectives really move the caller's data (so numerics stay
//! testable); cost-only variants price paper-scale runs (32k ranks) without
//! allocating paper-scale memory.
//!
//! GPU-aware communication is a per-[`Network`] toggle: turning it off makes
//! every payload stage through host memory, reproducing the §2.2 guidance
//! that `USE_DEVICE_PTR` + GPU-aware MPI is worth real time.

pub mod collectives;
pub mod comm;
#[cfg(test)]
mod lockstep_tests;
pub mod network;
pub mod nonblocking;
pub mod sched;

pub use comm::{Comm, CommStats};
pub use network::Network;
pub use nonblocking::{Overlap, Participants, Request};
pub use sched::{RankCtx, RankScheduler};

pub use exa_machine::SimTime;
