//! # exaready — Experiences Readying Applications for Exascale, in Rust
//!
//! Umbrella crate for the `exaready` workspace, a simulation-based
//! reproduction of *Experiences Readying Applications for Exascale*
//! (SC 2023): the Frontier Center-of-Excellence experience report on porting
//! ten scientific applications from OLCF Summit to OLCF Frontier.
//!
//! Each member crate is re-exported under a short name:
//!
//! * [`machine`] — hardware performance models and virtual time
//! * [`telemetry`] — unified span timelines, metrics, and trace exporters
//! * [`hal`] — the simulated CUDA/HIP device runtime, hipify, OpenMP offload
//! * [`mpi`] — deterministic simulated MPI
//! * [`linalg`] — dense linear algebra substrate
//! * [`fft`] — 1-D and distributed 3-D FFTs
//! * [`shoc`] — the SHOC-style microbenchmark suite (Figure 1)
//! * [`core`] — the application-readiness framework (FOMs, motifs, scenarios)
//! * [`apps`] — the ten mini-applications (Table 1/Table 2)
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

pub use exa_apps as apps;
pub use exa_core as core;
pub use exa_fft as fft;
pub use exa_hal as hal;
pub use exa_linalg as linalg;
pub use exa_machine as machine;
pub use exa_mpi as mpi;
pub use exa_serve as serve;
pub use exa_shoc as shoc;
pub use exa_telemetry as telemetry;
pub use workpool;
