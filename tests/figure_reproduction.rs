//! Integration tests asserting every figure and headline number of the
//! paper reproduces in shape (see EXPERIMENTS.md for the side-by-side).

use exaready::apps::calibration::e3sm::COLUMNS_PER_GPU;
use exaready::apps::coast::Coast;
use exaready::apps::comet::CoMet;
use exaready::apps::e3sm::{realtime_ratio, E3smConfig};
use exaready::apps::gamess::gddi_scaling_efficiency;
use exaready::apps::pele::{
    chemistry_data_time, time_per_cell_step, weak_scaling_efficiency, CodeState,
};
use exaready::core::Motif;
use exaready::machine::{GpuArch, MachineModel};
use exaready::shoc::figure1::{run_figure1, summary};
use exaready::shoc::{all_benchmarks, Scale};

/// Figure 1: HIP within [0.9, 1.05] of CUDA on every SHOC program, with
/// means matching the paper's 99.8 % / 99.9 %.
#[test]
fn figure1_hip_vs_cuda_band() {
    let rows = run_figure1(Scale::Test).expect("figure 1 runs");
    assert_eq!(rows.len(), 16);
    for r in &rows {
        assert!(r.verified, "{} failed verification", r.name);
        assert!(
            (0.90..=1.05).contains(&r.ratio_with_transfer),
            "{}: {}",
            r.name,
            r.ratio_with_transfer
        );
    }
    let (with_t, without_t) = summary(&rows);
    assert!(with_t > 0.985 && with_t <= 1.0);
    assert!(without_t > 0.985 && without_t <= 1.0);
    // "99.8% of CUDA performance when considering data transfer costs,
    // 99.9% without": the without-transfer mean is at least as high.
    assert!(without_t >= with_t - 1e-6);
}

/// §2.1: the hipify conversion of the SHOC corpus is fully automatic.
#[test]
fn shoc_corpus_hipifies_automatically() {
    for b in all_benchmarks() {
        let report = exaready::hal::hipify_source(b.cuda_source());
        assert_eq!(report.manual_fix_lines(), 0, "{}", b.name());
        assert!(
            !report.output.contains("cudaM"),
            "{} left CUDA calls",
            b.name()
        );
    }
}

/// Figure 2: the PeleC timeline decreases monotonically, the project gain
/// is ~75x, and GPU machines dominate CPU machines at the same state.
#[test]
fn figure2_timeline_shape() {
    let cori_2018 = time_per_cell_step(&MachineModel::cori(), CodeState::Baseline2018);
    let theta_2018 = time_per_cell_step(&MachineModel::theta(), CodeState::Baseline2018);
    let eagle_2019 = time_per_cell_step(&MachineModel::eagle(), CodeState::Baseline2018);
    let summit_2020 = time_per_cell_step(&MachineModel::summit(), CodeState::GpuPort2020);
    let summit_2022 = time_per_cell_step(&MachineModel::summit(), CodeState::Fused2022);
    let frontier_2023 = time_per_cell_step(&MachineModel::frontier(), CodeState::Async2023);

    // The GPU port was "the most lucrative increase for single node
    // performance".
    assert!(summit_2020 < cori_2018.min(theta_2018).min(eagle_2019));
    // Software states keep improving on the same hardware.
    assert!(summit_2022 < summit_2020);
    // Frontier 2023 is the floor.
    assert!(frontier_2023 < summit_2022);
    // ~75x overall.
    let gain = cori_2018 / frontier_2023;
    assert!((50.0..110.0).contains(&gain), "project gain {gain}");
}

/// Figure 2's weak-scaling row (§3.8, "weak scaling efficiency of PeleC
/// and PeleLMeX from one to 4096 Frontier nodes is over 80%"): the 2023
/// state with the asynchronous ghost exchange against the synchronous 2022
/// state, pinned to their bits.
#[test]
fn figure2_weak_scaling_row_keeps_its_golden_bits() {
    let frontier = MachineModel::frontier();
    let async_2023 = weak_scaling_efficiency(&frontier, CodeState::Async2023, 4096);
    let fused_2022 = weak_scaling_efficiency(&frontier, CodeState::Fused2022, 4096);
    assert_eq!(async_2023.to_bits(), 0x3feb9611a7b9611b, "{async_2023}");
    assert_eq!(fused_2022.to_bits(), 0x3fe0d79435e50d7a, "{fused_2022}");
    assert!(async_2023 > 0.80 && async_2023 > fused_2022);
}

/// Figure 2's UVM row (§3.8, "removing the use of UVM was ultimately
/// necessary"): 64×64 chemistry cells for 4 steps on one MI250X GCD,
/// explicit copies against UVM page migration, pinned to their bits.
#[test]
fn figure2_uvm_row_keeps_its_golden_bits() {
    let explicit = chemistry_data_time(64 * 64, 4, false);
    let uvm = chemistry_data_time(64 * 64, 4, true);
    assert_eq!(explicit.secs().to_bits(), 0x3f12276e35a8a7b0, "{explicit}");
    assert_eq!(uvm.secs().to_bits(), 0x3f35277e4a257760, "{uvm}");
    assert!(explicit < uvm);
}

/// Table 2's GDDI row (§3.1, "nearly ideal linear scaling up to 2K
/// nodes"): the fragment driver's efficiency on 2,048 Frontier nodes.
#[test]
fn table2_gddi_row_keeps_its_golden_bits() {
    let eff = gddi_scaling_efficiency(&MachineModel::frontier(), 2048);
    assert_eq!(eff.to_bits(), 0x3fefd21ee7f4b486, "{eff}");
    assert!(eff >= 0.95);
}

/// The E3SM realtime row (§3.5, "1,000–2,000x realtime"): 180 s physics
/// steps at the strong-scaled columns per GPU, optimized and naive.
#[test]
fn e3sm_realtime_row_keeps_its_golden_bits() {
    let ratio = |cfg| realtime_ratio(GpuArch::Cdna2, cfg, COLUMNS_PER_GPU, 180.0);
    let optimized = ratio(E3smConfig::optimized());
    let naive = ratio(E3smConfig::naive());
    assert_eq!(optimized.to_bits(), 0x40c4ddf57da275f2, "{optimized}");
    assert_eq!(naive.to_bits(), 0x40a709b39589ffec, "{naive}");
    assert!(optimized >= 1000.0 && naive < optimized);
}

/// The machine catalog's exascale line: Frontier's FP64 machine peak
/// reaches 1 EF, Summit's does not.
#[test]
fn machine_catalog_peaks_keep_their_golden_bits() {
    let frontier = MachineModel::frontier().machine_peak_f64();
    let summit = MachineModel::summit().machine_peak_f64();
    assert_eq!(frontier.to_bits(), 0x43b9488b4a2ec700, "{frontier}");
    assert_eq!(summit.to_bits(), 0x4388743be2eb0000, "{summit}");
    assert!(frontier >= 1e18 && summit < 1e18);
}

/// Table 1: the motif matrix covers every entry the paper lists.
#[test]
fn table1_motif_matrix_covers_paper() {
    use exaready::apps::all_applications;
    let apps = all_applications();
    let expect: &[(&str, Motif)] = &[
        ("GAMESS", Motif::CudaHipPorting),
        ("CoMet", Motif::CudaHipPorting),
        ("NuCCOR", Motif::CudaHipPorting),
        ("COAST", Motif::CudaHipPorting),
        ("GAMESS", Motif::LibraryTuning),
        ("LSMS", Motif::LibraryTuning),
        ("GESTS", Motif::LibraryTuning),
        ("CoMet", Motif::LibraryTuning),
        ("LAMMPS", Motif::LibraryTuning),
        ("GESTS", Motif::PerformancePortability),
        ("ExaSky", Motif::PerformancePortability),
        ("E3SM", Motif::PerformancePortability),
        ("NuCCOR", Motif::PerformancePortability),
        ("Pele", Motif::PerformancePortability),
        ("E3SM", Motif::KernelFusionFission),
        ("Pele", Motif::KernelFusionFission),
        ("LAMMPS", Motif::KernelFusionFission),
        ("LSMS", Motif::AlgorithmicOptimizations),
        ("ExaSky", Motif::AlgorithmicOptimizations),
        ("E3SM", Motif::AlgorithmicOptimizations),
        ("CoMet", Motif::AlgorithmicOptimizations),
        ("Pele", Motif::AlgorithmicOptimizations),
        ("LAMMPS", Motif::AlgorithmicOptimizations),
    ];
    for (name, motif) in expect {
        let app = apps
            .iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
            .expect("app exists");
        assert!(
            app.motifs().contains(motif),
            "paper lists {name} under {motif} — missing in the app metadata"
        );
    }
}

/// §3.6 headline: CoMet sustains > 6 EF mixed precision on 9,074 nodes.
#[test]
fn comet_exaflops_headline() {
    let ef = CoMet::default().machine_exaflops(&MachineModel::frontier(), 9_074);
    assert!(ef > 6.0, "CoMet rate {ef} EF");
}

/// §3.9 headline: COAST crosses 1 EF on Frontier from 136 PF on Summit.
#[test]
fn coast_exaflop_headline() {
    let summit = Coast::machine_pflops(&MachineModel::summit());
    let frontier = Coast::machine_pflops(&MachineModel::frontier());
    assert!((summit - 136.0).abs() / 136.0 < 0.3, "Summit {summit} PF");
    assert!(frontier > 900.0, "Frontier {frontier} PF");
}

/// §4: the early-access systems shared the production machine's software
/// essentials — HIP streams run unchanged on every generation.
#[test]
fn early_access_systems_run_hip_unmodified() {
    use exaready::hal::{ApiSurface, Device, Stream};
    use exaready::machine::{DType, KernelProfile, LaunchConfig};
    for machine in MachineModel::early_access_timeline() {
        let device = Device::from_node(&machine.node, 0);
        let mut stream = Stream::new(device, ApiSurface::Hip)
            .unwrap_or_else(|e| panic!("HIP must drive {}: {e}", machine.name));
        let k = KernelProfile::new("probe", LaunchConfig::new(1024, 256)).flops(1e9, DType::F64);
        stream.launch_modeled(&k);
        assert!(stream.synchronize().secs() > 0.0);
        // CUDA must NOT drive the AMD early-access systems — the porting
        // pressure the whole campaign was about.
        assert!(Stream::new(Device::from_node(&machine.node, 0), ApiSurface::Cuda).is_err());
    }
}
