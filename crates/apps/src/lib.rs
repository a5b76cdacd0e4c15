//! # exa-apps — the ten applications of the readiness campaign
//!
//! One module per application of the paper's §3, each implementing the
//! computational *motif* of the real code, the specific optimization story
//! the paper tells about it, and the [`exa_core::Application`] contract so
//! the Table 1 / Table 2 harness can drive all ten uniformly:
//!
//! | module | paper §| application | motif |
//! |---|---|---|---|
//! | [`gamess`]  | 3.1  | GAMESS      | fragmented RI-MP2 — batched GEMM + eigensolver |
//! | [`lsms`]    | 3.2  | LSMS        | KKR multiple scattering — complex LU vs block inversion |
//! | [`gests`]   | 3.3  | GESTS       | pseudo-spectral DNS — distributed 3-D FFT |
//! | [`exasky`]  | 3.4  | ExaSky/HACC | particle gravity — PM + short-range kernels |
//! | [`e3sm`]    | 3.5  | E3SM-MMF    | column physics — kernel fusion/fission, pool allocator |
//! | [`comet`]   | 3.6  | CoMet       | comparative genomics — mixed-precision GEMM |
//! | [`nuccor`]  | 3.7  | NuCCOR      | coupled cluster — tensor contractions as GEMM |
//! | [`pele`]    | 3.8  | Pele        | AMR reactive flow — stiff chemistry, CVODE-style |
//! | [`coast`]   | 3.9  | COAST       | all-pairs shortest path — blocked Floyd–Warshall |
//! | [`lammps`]  | 3.10 | LAMMPS      | ReaxFF MD — divergence preprocessing, fused dual CG |
//!
//! Every module carries a calibrated cost-model path used to run the
//! paper-scale challenge problems, and most also a *real*, tested numerical
//! mini-implementation of the kernel an experiment or example runs;
//! calibration constants live in [`calibration`] and are documented
//! against the paper's own statements.

pub mod calibration;
pub mod coast;
pub mod comet;
pub mod e3sm;
pub mod exasky;
pub mod gamess;
pub mod gests;
pub mod gests_exec;
pub mod lammps;
pub mod lsms;
pub mod nuccor;
pub mod pele;
pub mod pele_exec;
pub mod query;

use exa_core::Application;

/// A catalog entry: a name and the constructor of what it names.
pub(crate) type Named<T> = (&'static str, fn() -> T);

/// The ten applications in paper-section order: each paper name with the
/// constructor of its model. The one list [`all_applications`],
/// [`query::APP_NAMES`] and [`query::app_by_name`] read.
pub(crate) const APPLICATIONS: [Named<Box<dyn Application>>; 10] = [
    ("GAMESS", || Box::new(gamess::Gamess::default())),
    ("LSMS", || Box::new(lsms::Lsms::default())),
    ("GESTS", || Box::new(gests::Gests)),
    ("ExaSky", || Box::new(exasky::ExaSky::default())),
    ("E3SM", || Box::new(e3sm::E3sm)),
    ("CoMet", || Box::new(comet::CoMet::default())),
    ("NuCCOR", || Box::new(nuccor::Nuccor)),
    ("Pele", || Box::new(pele::Pele)),
    ("COAST", || Box::new(coast::Coast::default())),
    ("LAMMPS", || Box::new(lammps::Lammps)),
];

/// All ten applications in paper-section order.
pub fn all_applications() -> Vec<Box<dyn Application>> {
    APPLICATIONS.iter().map(|(_, new)| new()).collect()
}

/// The eight applications of Table 2 (observed speed-ups), in table order.
pub fn table2_applications() -> Vec<Box<dyn Application>> {
    all_applications()
        .into_iter()
        .filter(|a| a.paper_speedup().is_some())
        .collect()
}
