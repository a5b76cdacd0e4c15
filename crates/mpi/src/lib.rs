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
//! rank and every operation advances the clocks. Collectives are priced,
//! not executed — the one data-carrying collective, `allreduce_sum_f64`,
//! also sums the caller's vectors — so paper-scale runs (32k ranks) cost
//! no paper-scale memory; executed runs (the distributed FFT) move their
//! own data between rank slices and charge the matching collective.
//! Blocking collectives have split-phase twins ([`nonblocking`]) for the
//! overlap engine.
//!
//! GPU-aware communication is a per-[`Network`] toggle: turning it off makes
//! every payload stage through host memory, reproducing §6's "GPU-aware MPI
//! + X" lesson that device-direct transfers are worth real time.

pub mod collectives;
pub mod comm;
#[cfg(test)]
mod lockstep_tests;
pub mod network;
pub mod nonblocking;
pub mod sched;

pub use comm::{Comm, CommStats};
pub use network::Network;
pub use nonblocking::Overlap;
pub use sched::{RankCtx, RankScheduler};
