//! # exa-tune — cost-model-guided autotuner for the performance knobs
//!
//! The paper's readiness arc is dominated by per-hardware re-tuning:
//! block sizes, launch parameters and pipeline depths were re-searched
//! for every device generation (Ginkgo's HIP port and CRK-HACC's SYCL
//! port both report work-group re-tuning as a central porting cost).
//! This crate is that search, reproduced for the simulator's own knobs —
//! the three that a search actually moves:
//!
//! | knob key             | frozen | consumer                              |
//! |----------------------|--------|---------------------------------------|
//! | `fft.gather`         | 0      | executed FFT repartition strategy     |
//! | `fft.line_batch`     | 1      | executed FFT lines per kernel call    |
//! | `fft.overlap_k`      | 4      | `DistFft3d` pipeline depth            |
//!
//! The tuner pipeline is **enumerate → cost-select → persist**
//! (DESIGN.md §14):
//!
//! 1. *enumerate* the candidate values per knob, always including the
//!    frozen constant;
//! 2. *cost-select* the cheapest under a deterministic cost model (virtual
//!    time from the machine model, or a counted host-operation model) —
//!    ties go to the frozen value, so the same specs yield a
//!    byte-identical [`TunedTable`] at any `EXA_THREADS`;
//! 3. *persist* winners to `TUNED.json`, which consumers read at
//!    construction time — env-overridable per knob
//!    (`EXA_TUNE_FFT_GATHER=1`), falling back to the frozen constants
//!    when absent.
//!
//! Every consumer keeps its frozen constant as the fallback, and every
//! tuned code path is bit-identical to its frozen twin on all physics
//! outputs — the knobs only reorder *independent* work (gather order,
//! line batching, pipeline depth), never a floating-point reduction.

mod table;
mod tuner;

pub use table::{knob, knob_i64, tuned, TunedTable, TUNED_FILE};
pub use tuner::{KnobReport, KnobSpec, Probe, TuneReport, Tuner};
