//! Wall-clock timings of the substrate crates: the numerics every
//! mini-app is built on (GEMM, LU, eigensolvers, FFTs, and the SHOC
//! programs on the CUDA surface). Ungated; the table lands in
//! `target/experiments/substrates.json`.

use crate::{header, time_case, write_json, Case, Gate};
use exa_fft::{fft, fft3d, C64};
use exa_hal::{ApiSurface, Device, Stream};
use exa_linalg::block_inv::{block_lu_inverse_block, lu_inverse_block};
use exa_linalg::eigen::{jacobi_eigen, tridiag_eigen};
use exa_linalg::gemm::{gemm_f16_acc32, matmul};
use exa_linalg::lu::getrf;
use exa_linalg::Matrix;
use exa_machine::GpuModel;
use exa_shoc::{all_benchmarks, Scale};

fn gemm(cases: &mut Vec<Case>) {
    for n in [64usize, 128, 256] {
        let a = Matrix::<f64>::seeded_random(n, n, 1);
        let b = Matrix::<f64>::seeded_random(n, n, 2);
        time_case(cases, format!("linalg/gemm/f64/{n}"), || matmul(&a, &b));
        let af = Matrix::<f32>::seeded_random(n, n, 1);
        let bf = Matrix::<f32>::seeded_random(n, n, 2);
        time_case(cases, format!("linalg/gemm/f16_acc32/{n}"), || {
            gemm_f16_acc32(&af, &bf)
        });
    }
}

fn lu_and_block_inverse(cases: &mut Vec<Case>) {
    for n in [64usize, 128] {
        let mut a = Matrix::<exa_linalg::C64>::seeded_random(n, n, 7);
        for i in 0..n {
            a[(i, i)] += exa_linalg::C64::from_re(n as f64);
        }
        time_case(cases, format!("linalg/solvers/zgetrf/{n}"), || {
            getrf(&a).unwrap()
        });
        // The LSMS §3.2 pair: block inversion vs full-LU block extraction.
        time_case(cases, format!("linalg/solvers/zblock_lu_16/{n}"), || {
            block_lu_inverse_block(&a, 16).unwrap()
        });
        time_case(cases, format!("linalg/solvers/lu_inverse_block_16/{n}"), || {
            lu_inverse_block(&a, 16).unwrap()
        });
    }
}

fn eigen(cases: &mut Vec<Case>) {
    let n = 48;
    let r = Matrix::<f64>::seeded_random(n, n, 3);
    let mut a = Matrix::<f64>::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            a[(i, j)] = 0.5 * (r[(i, j)] + r[(j, i)]);
        }
    }
    time_case(cases, "linalg/eigen/jacobi_48", || jacobi_eigen(&a, 1e-12, 40));
    time_case(cases, "linalg/eigen/tridiag_48", || tridiag_eigen(&a, 60));
}

fn ffts(cases: &mut Vec<Case>) {
    for n in [1024usize, 4096] {
        let base: Vec<C64> = (0..n)
            .map(|i| C64::new((i % 17) as f64 - 8.0, (i % 5) as f64))
            .collect();
        time_case(cases, format!("fft/fft1d/{n}"), || {
            let mut x = base.clone();
            fft(&mut x);
            x
        });
    }
    let n3 = 32;
    let cube: Vec<C64> = (0..n3 * n3 * n3)
        .map(|i| C64::from_re((i % 11) as f64))
        .collect();
    time_case(cases, "fft/fft3d_32", || {
        let mut x = cube.clone();
        fft3d(&mut x, n3, n3, n3);
        x
    });
}

fn shoc_suite(cases: &mut Vec<Case>) {
    for bench in all_benchmarks() {
        time_case(cases, format!("shoc/cuda_v100/{}", bench.name()), || {
            let d = Device::new(GpuModel::v100(), 0);
            let mut s = Stream::new(d, ApiSurface::Cuda).unwrap();
            bench.run(&mut s, Scale::Test).unwrap()
        });
    }
}

pub fn run() -> Gate {
    header("Substrate numerics (median wall clock)");
    let mut cases = Vec::new();
    gemm(&mut cases);
    lu_and_block_inverse(&mut cases);
    eigen(&mut cases);
    ffts(&mut cases);
    shoc_suite(&mut cases);
    write_json("substrates", &cases);
    Ok(())
}
