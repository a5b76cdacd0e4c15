//! The experiment registry behind the `reproduce` binary: one module per
//! experiment, each exposing `pub fn run() -> Gate`. Every experiment
//! belongs to one group: `paper` (the eleven paper artifacts — Figure 1,
//! Tables 1–2, Figure 2 and the per-application studies of §3), `gates`
//! (what `scripts/tier1.sh` runs, in its order; the last four under
//! `EXA_THREADS=4`) or `extra`.

use crate::Gate;

/// One runnable experiment.
pub struct Experiment {
    /// Subcommand name (also the module name).
    pub name: &'static str,
    /// `paper`, `gates` or `extra`.
    pub group: &'static str,
    /// One-line description for `reproduce list`.
    pub about: &'static str,
    pub run: fn() -> Gate,
}

macro_rules! registry {
    ($($name:ident: $group:ident $about:literal,)*) => {
        $(pub mod $name;)*

        /// Every experiment, in `reproduce list` order.
        pub const ALL: &[Experiment] = &[
            $(Experiment {
                name: stringify!($name),
                group: stringify!($group),
                about: $about,
                run: $name::run,
            },)*
        ];
    };
}

registry! {
    fig1_shoc: paper "Figure 1: SHOC HIP vs CUDA on Summit (gate: verified, 0.90..=1.05 band)",
    table1_motifs: paper "Table 1: porting-motif matrix (gate: every paper entry present)",
    table2_speedups: paper "Table 2: Summit -> Frontier speed-ups",
    fig2_pele: paper "Figure 2: PeleC time per cell per timestep",
    lsms_solvers: paper "§3.2 LSMS: zblock_lu vs LU route, index rearrangement",
    gests_fom: paper "§3.3 GESTS: FOM, slabs vs pencils",
    exasky_kernels: paper "§3.4 ExaSky/HACC: gravity kernels and FOM",
    e3sm_latency: paper "§3.5 E3SM-MMF: latency-strategy ablation grid",
    comet_scaling: paper "§3.6 CoMet: precision sweep and weak scaling",
    coast_apsp: paper "§3.9 COAST: min-plus autotuning and Gordon-Bell runs",
    lammps_reaxff: paper "§3.10 LAMMPS ReaxFF: preprocessing, dual-CG QEq, spill fix",
    hipify_report: extra "§2.1 hipify conversion study and macro header",
    roofline_report: extra "§3.2/§3.10 profiler hotspot report",
    user_guide: extra "§5 user guide from the lessons registry",
    campaign_reports: extra "§6 readiness reports over the early-access timeline",
    machine_catalog: extra "§4 machine catalog",
    applications: extra "mini-app numerics and ablations, wall clock (ungated)",
    substrates: extra "substrate numerics, wall clock (ungated)",
    profile_export: gates "telemetry export -> PROFILE_pele.json + .trace.json (gated)",
    fom_ledger: gates "FOM ledger + regression sentinel -> FOM_LEDGER.json (gated)",
    comm_overlap: gates "comm/compute overlap >= 1.3x -> BENCH_comm_overlap.json",
    sim_throughput: gates "substrate >= 4x Pele step + executed FFT -> BENCH_sim_throughput.json",
    autotune: gates "production vs reference FFT plan, >= 1.25x bit-identical -> BENCH_autotune.json",
    graph_fusion: extra "fused graph replay >= 1.5x eager -> BENCH_graph_fusion.json",
    obs_export: gates "pool occupancy export -> PROFILE_substrate.json, METRICS.prom (gated)",
    telemetry_overhead: gates "collector + pool observer < 5% -> BENCH_telemetry_overhead.json",
    fault_scenarios: gates "MTBF sweep, checkpoint/restart, chaos drills -> BENCH_fault_scenarios.json",
    campaign_load: gates "1M-query campaign-service replay + SLO drill -> BENCH_campaign_service.json",
}

/// Expand command-line arguments — experiment names and the `paper` /
/// `gates` groups — into the experiments to run, in argument order.
/// Errors name the first argument that is neither.
pub fn resolve(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let mut plan = Vec::new();
    for arg in args {
        match arg.as_str() {
            "paper" | "gates" => plan.extend(ALL.iter().filter(|e| e.group == arg)),
            name => match ALL.iter().find(|e| e.name == name) {
                Some(e) => plan.push(e),
                None => return Err(format!("unknown experiment `{name}`")),
            },
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_have_their_documented_sizes() {
        let size = |g: &str| ALL.iter().filter(|e| e.group == g).count();
        assert_eq!((size("paper"), size("gates"), ALL.len()), (11, 9, 28));
    }

    #[test]
    fn resolve_expands_groups_and_rejects_unknown_names() {
        let args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let plan = resolve(&args(&["paper", "autotune"])).unwrap();
        assert_eq!(plan.len(), 12);
        assert_eq!(plan.last().unwrap().name, "autotune");
        let err = resolve(&args(&["fig1_shoc", "nope"])).err();
        assert!(err.is_some_and(|e| e.contains("nope")));
    }
}
