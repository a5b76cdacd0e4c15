//! # exa-hal — heterogeneous abstraction layer
//!
//! The simulator's analogue of the CUDA and HIP runtimes from the paper's
//! §2. It provides:
//!
//! * [`device`] — simulated GPU devices with memory accounting, built from
//!   `exa-machine` hardware models;
//! * [`stream`] — in-order execution streams with virtual-time kernel
//!   launches, events, and async host↔device copies;
//! * [`buffer`] — typed device buffers whose contents are real host memory,
//!   so kernels perform *real math* while time is charged analytically;
//! * [`api`] — the two API surfaces, `Cuda` and `Hip`, with a feature-parity
//!   table reproducing the "not every CUDA feature exists in HIP" lesson of
//!   §2.1;
//! * [`hipify`] — a source-to-source translator for a miniature CUDA-flavoured
//!   API language, reproducing the behaviour of AMD's `hipify` tool
//!   (automatic conversion of modern syntax, warnings on deprecated syntax);
//! * [`offload`] — an OpenMP-target-offload analogue: a structured
//!   target-data region with `map(tofrom:)` and `map(alloc:)` arrays,
//!   encoding §2.2's "map persistent arrays once" practice;
//! * [`uvm`] — managed memory whose pages migrate on first touch, the
//!   incremental-port path §3.8 says had to be removed;
//! * [`pool`] — a YAKL-style device pool allocator (E3SM §3.5) with real
//!   free-list bookkeeping and modelled allocation latencies;
//! * [`graph`] — a hipGraph/CUDA-Graphs kernel-graph engine: capture a
//!   stream's launch sequence, optimize it with kernel **fusion** and
//!   **fission** passes, and replay the whole graph for one launch charge.
//!
//! ## Execution model
//!
//! Kernels execute **eagerly and deterministically** on the host (optionally
//! data-parallel via the scoped-thread [`exec`] helpers), while their
//! *simulated* duration comes from the
//! [`exa_machine`] roofline model. Streams therefore carry a virtual clock:
//! "asynchronous" execution means clock bookkeeping, not host threads, so
//! every run is reproducible.

pub mod api;
pub mod buffer;
pub mod device;
pub mod error;
pub mod exec;
pub mod graph;
pub mod hipify;
pub mod offload;
pub mod pool;
pub mod stream;
pub mod trace;
pub mod uvm;

pub use api::ApiSurface;
pub use buffer::DeviceBuffer;
pub use device::Device;
pub use error::Result;
pub use graph::{FusionPolicy, GraphCapture, KernelGraph};
pub use hipify::hipify_source;
pub use pool::PoolAllocator;
pub use stream::Stream;
pub use trace::Tracer;
pub use uvm::ManagedBuffer;

// Re-export the model types callers need to build kernels.
pub use exa_machine::{DType, KernelProfile, LaunchConfig, SimTime};

// Re-export the telemetry surface streams plug into (see
// `Stream::attach_telemetry`): every stats struct here implements
// `exa_telemetry::MetricSource`.
pub use exa_telemetry::TelemetryCollector;
