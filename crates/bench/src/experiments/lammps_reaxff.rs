//! §3.10 — LAMMPS ReaxFF: divergence preprocessing, fused dual-CG QEq, and
//! the register-spill fix.

use crate::{Gate, header, write_json};
use exa_apps::lammps::{
    build_tuples, cg_solve, cg_solve_dual, torsion_dense, torsion_kernel_time, torsion_naive,
    AtomSystem, CsrMatrix, Lammps,
};
use exa_machine::{GpuArch, GpuModel};
use serde::Serialize;

#[derive(Serialize)]
struct ReaxffRecord {
    naive_torsion_us: f64,
    dense_torsion_us: f64,
    torsion_speedup: f64,
    spill_fix_speedup: f64,
    cg_sweeps_separate: usize,
    cg_sweeps_fused: usize,
    overall_speedup: f64,
}

pub fn run() -> Gate {
    header("LAMMPS ReaxFF (§3.10): HNS crystal, Kokkos/HIP backend on MI250X");
    let gpu = GpuModel::mi250x_gcd();

    // Real mini-system: verify the rewrite is exact, report survivor rate.
    let sys = AtomSystem::crystal(6, 13);
    let neigh = sys.neighbor_list(1.4);
    let bond = sys.bond_list(&neigh, 1.25);
    let (e_naive, evaluated) = torsion_naive(&sys, &neigh, &bond, 1.3);
    let tuples = build_tuples(&sys, &neigh, &bond, 1.3);
    let e_dense = torsion_dense(&sys, &tuples);
    println!(
        "torsion energy: Algorithm-1 {e_naive:.6}, preprocessed {e_dense:.6} \
         (identical: {}); {evaluated} surviving tuples",
        (e_naive - e_dense).abs() < 1e-10
    );

    // Device-model timings at production scale.
    let atoms = 100_000u64;
    let prod_tuples = atoms * 18;
    let t_naive = torsion_kernel_time(&gpu, atoms, prod_tuples, false, true);
    let t_dense = torsion_kernel_time(&gpu, atoms, prod_tuples, true, true);
    let t_spill = torsion_kernel_time(&gpu, atoms, prod_tuples, true, false);
    println!("\ntorsion kernel, 100k atoms on one GCD:");
    println!("  Algorithm 1 (divergent)         : {t_naive}");
    println!(
        "  preprocessed tuple list (dense) : {t_dense}   ({:.1}x)",
        t_naive / t_dense
    );
    println!(
        "  dense but register-spilling     : {t_spill}   (spill fix: {:.2}x)",
        t_spill / t_dense
    );

    // QEq dual-CG study on the real mini-system.
    let h = CsrMatrix::qeq_matrix(&sys, &neigh, 2.0);
    let b1: Vec<f64> = (0..h.n).map(|i| (i as f64 * 0.37).sin()).collect();
    let b2: Vec<f64> = (0..h.n).map(|i| (i as f64 * 0.11).cos()).collect();
    let s1 = cg_solve(&h, &b1, 1e-10, 500);
    let s2 = cg_solve(&h, &b2, 1e-10, 500);
    let (d1, _) = cg_solve_dual(&h, &b1, &b2, 1e-10, 500);
    println!("\nQEq charge equilibration ({} unknowns):", h.n);
    println!(
        "  separate CG: {} + {} = {} matrix sweeps, {} comm rounds",
        s1.matrix_sweeps,
        s2.matrix_sweeps,
        s1.matrix_sweeps + s2.matrix_sweeps,
        s1.comm_rounds + s2.comm_rounds
    );
    println!(
        "  fused dual-RHS CG: {} matrix sweeps, {} comm rounds",
        d1.matrix_sweeps, d1.comm_rounds
    );

    // The headline claim.
    let before = Lammps::step_time(GpuArch::Cdna2, false);
    let after = Lammps::step_time(GpuArch::Cdna2, true);
    println!(
        "\nReaxFF step (100k atoms): {before} -> {after}  = {:.2}x  \
         [paper: \"greater than 50% speedup ... since Feb. 2022\"]",
        before / after
    );

    write_json(
        "lammps_reaxff",
        &ReaxffRecord {
            naive_torsion_us: t_naive.micros(),
            dense_torsion_us: t_dense.micros(),
            torsion_speedup: t_naive / t_dense,
            spill_fix_speedup: t_spill / t_dense,
            cg_sweeps_separate: s1.matrix_sweeps + s2.matrix_sweeps,
            cg_sweeps_fused: d1.matrix_sweeps,
            overall_speedup: before / after,
        },
    );
    Ok(())
}
