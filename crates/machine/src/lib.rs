//! # exa-machine — hardware performance models and virtual time
//!
//! This crate is the lowest layer of the `exaready` simulator, the Rust
//! reproduction of *Experiences Readying Applications for Exascale* (SC 2023).
//!
//! The paper's measurements were taken on real machines — OLCF Summit and
//! Frontier, the Frontier early-access systems (Poplar, Tulip, Spock, Birch,
//! Crusher), and the CPU machines of Figure 2 (NERSC Cori, ANL Theta, NREL
//! Eagle). None of that hardware is available here, so this crate provides the
//! closest synthetic equivalent: **analytic performance models** of every
//! device, node, and interconnect the paper mentions, built from public
//! specification sheets, together with a **virtual clock** that the rest of
//! the simulator charges modelled costs against.
//!
//! The model is a roofline with occupancy, divergence, and wavefront-width
//! effects — exactly the effects the paper's porting stories hinge on
//! (register-pressure occupancy limits in LAMMPS §3.10 and E3SM §3.5,
//! wavefront-64 sensitivity in ExaSky §3.4, kernel-launch latency in E3SM
//! §3.5, host-link costs in SHOC Figure 1).
//!
//! Nothing in this crate reads the wall clock; all time is [`SimTime`] and all
//! results are deterministic.

pub mod cost;
pub mod cpu;
pub mod gpu;
pub mod interconnect;
pub mod kernel;
pub mod machine;
pub mod node;
pub mod time;

pub use cost::{graph_node_dispatch, CpuWork, EffCurve};
pub use gpu::{GpuArch, GpuModel};
pub use interconnect::InterconnectModel;
pub use kernel::{DType, KernelProfile, LaunchConfig};
pub use machine::MachineModel;
pub use node::{LinkModel, NodeModel};
pub use time::{Clock, SimTime};
