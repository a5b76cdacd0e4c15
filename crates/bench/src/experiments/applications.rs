//! Wall-clock timings of the mini-apps' real numerics, doubling as
//! ablation measurements for the design choices DESIGN.md §5 calls out:
//! the LAMMPS tuple preprocessor and dual-CG fusion, the Pele chemistry
//! solver split, COAST tile sizes, and the CoMet GEMM-vs-naive counting.
//! Ungated; the table lands in `target/experiments/applications.json`.

use crate::{header, time_case, write_json, Case, Gate};
use exa_apps::coast::{floyd_warshall_blocked, floyd_warshall_ref, INF};
use exa_apps::comet::{ccc_tables_gemm, ccc_tables_naive};
use exa_apps::e3sm::{advect, upwind_faces, weno5_faces};
use exa_apps::exasky::PmSolver;
use exa_apps::gamess::{EigenSolver, ScfProblem};
use exa_apps::lammps::MdRun;
use exa_apps::lammps::{
    build_tuples, cg_solve, cg_solve_dual, torsion_dense, torsion_naive, AtomSystem, CsrMatrix,
};
use exa_apps::pele::{bdf1_step, chemistry_data_time, ChemLinearSolver, Mechanism};
use exa_linalg::device::DeviceBlas;

fn lammps_torsion(cases: &mut Vec<Case>) {
    let sys = AtomSystem::crystal(6, 13);
    let neigh = sys.neighbor_list(1.4);
    let bond = sys.bond_list(&neigh, 1.25);
    time_case(cases, "lammps/torsion/algorithm1_naive", || {
        torsion_naive(&sys, &neigh, &bond, 1.3)
    });
    time_case(cases, "lammps/torsion/preprocess_then_dense", || {
        let tuples = build_tuples(&sys, &neigh, &bond, 1.3);
        torsion_dense(&sys, &tuples)
    });
    let tuples = build_tuples(&sys, &neigh, &bond, 1.3);
    time_case(cases, "lammps/torsion/dense_only_reused_list", || {
        torsion_dense(&sys, &tuples)
    });
}

fn lammps_qeq(cases: &mut Vec<Case>) {
    let sys = AtomSystem::crystal(8, 21);
    let neigh = sys.neighbor_list(1.4);
    let h = CsrMatrix::qeq_matrix(&sys, &neigh, 2.0);
    let b1: Vec<f64> = (0..h.n).map(|i| (i as f64 * 0.37).sin()).collect();
    let b2: Vec<f64> = (0..h.n).map(|i| (i as f64 * 0.11).cos()).collect();
    time_case(cases, "lammps/qeq/separate_cg", || {
        (cg_solve(&h, &b1, 1e-10, 500), cg_solve(&h, &b2, 1e-10, 500))
    });
    time_case(cases, "lammps/qeq/fused_dual_cg", || {
        cg_solve_dual(&h, &b1, &b2, 1e-10, 500)
    });
}

fn lammps_md(cases: &mut Vec<Case>) {
    let mut md = MdRun::new(3, 7);
    time_case(cases, "lammps/md/verlet_step_27_atoms", || {
        md.step(1e-3);
        md.total_energy()
    });
}

fn pele_chemistry(cases: &mut Vec<Case>) {
    let mech = Mechanism::ignition();
    let u0 = [0.9, 0.1, 0.0, 0.9];
    for (name, solver) in [
        ("bdf1_batched_lu", ChemLinearSolver::BatchedLu),
        ("bdf1_matrix_free_gmres", ChemLinearSolver::MatrixFreeGmres),
    ] {
        time_case(cases, format!("pele/chemistry/{name}"), || {
            bdf1_step(&mech, &u0, 1e-4, solver)
        });
    }
}

fn pele_uvm_ablation(cases: &mut Vec<Case>) {
    time_case(cases, "pele/uvm_sim/uvm_path", || {
        chemistry_data_time(4096, 4, true)
    });
    time_case(cases, "pele/uvm_sim/explicit_path", || {
        chemistry_data_time(4096, 4, false)
    });
}

fn coast_tilings(cases: &mut Vec<Case>) {
    let n = 128;
    let dist: Vec<f32> = (0..n * n)
        .map(|idx| {
            let (i, j) = (idx / n, idx % n);
            if i == j {
                0.0
            } else if (i + 1) % n == j || (i * 7 + 3) % n == j {
                1.0 + ((i * j) % 10) as f32 / 10.0
            } else {
                INF
            }
        })
        .collect();
    time_case(cases, "coast/floyd_warshall/reference", || {
        let mut d = dist.clone();
        floyd_warshall_ref(&mut d, n);
        d
    });
    for tile in [8usize, 16, 32, 64] {
        time_case(cases, format!("coast/floyd_warshall/blocked/{tile}"), || {
            let mut d = dist.clone();
            floyd_warshall_blocked(&mut d, n, tile);
            d
        });
    }
}

fn comet_counting(cases: &mut Vec<Case>) {
    let vectors: Vec<Vec<u8>> = (0..32u64)
        .map(|i| {
            (0..256u64)
                .map(|k| (((i + 1) * (k + 3) * 2654435761) >> 7 & 1) as u8)
                .collect()
        })
        .collect();
    time_case(cases, "comet/ccc/naive_counting", || {
        ccc_tables_naive(&vectors)
    });
    time_case(cases, "comet/ccc/int8_gemm_formulation", || {
        ccc_tables_gemm(&vectors)
    });
}

fn gamess_scf(cases: &mut Vec<Case>) {
    use exa_hal::{ApiSurface, Device, Stream};
    use exa_machine::GpuModel;
    let prob = ScfProblem::synthetic(10, 3, 17);
    let lib = DeviceBlas::default();
    for (name, solver) in [
        ("jacobi", EigenSolver::Jacobi),
        ("syevd", EigenSolver::DivideConquer),
    ] {
        time_case(cases, format!("gamess/scf/{name}"), || {
            let mut s =
                Stream::new(Device::new(GpuModel::mi250x_gcd(), 0), ApiSurface::Hip).unwrap();
            prob.solve(&mut s, &lib, solver, 1e-9, 100)
        });
    }
}

fn e3sm_weno(cases: &mut Vec<Case>) {
    let u: Vec<f64> = (0..4096)
        .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 4096.0).sin())
        .collect();
    time_case(cases, "e3sm/reconstruction/upwind", || {
        advect(&u, 0.4, upwind_faces)
    });
    time_case(cases, "e3sm/reconstruction/weno5", || {
        advect(&u, 0.4, weno5_faces)
    });
}

fn exasky_pm(cases: &mut Vec<Case>) {
    let pm = PmSolver::new(16);
    let particles: Vec<[f64; 3]> = (0..512)
        .map(|i| {
            let t = i as f64 * 0.0137;
            [
                (t.sin() + 1.0) / 2.0 % 1.0,
                (t.cos() + 1.0) / 2.0 % 1.0,
                (2.0 * t).fract().abs(),
            ]
        })
        .collect();
    time_case(cases, "exasky/pm/deposit_poisson_force_16cubed", || {
        let rho = pm.deposit(&particles);
        let phi = pm.poisson(&rho);
        pm.force(&phi)
    });
}

pub fn run() -> Gate {
    header("Mini-app numerics and ablations (median wall clock)");
    let mut cases = Vec::new();
    lammps_torsion(&mut cases);
    lammps_qeq(&mut cases);
    lammps_md(&mut cases);
    pele_chemistry(&mut cases);
    pele_uvm_ablation(&mut cases);
    coast_tilings(&mut cases);
    comet_counting(&mut cases);
    gamess_scf(&mut cases);
    e3sm_weno(&mut cases);
    exasky_pm(&mut cases);
    write_json("applications", &cases);
    Ok(())
}
