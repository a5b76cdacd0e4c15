//! Device library wrappers — the rocBLAS / rocSOLVER / MAGMA analogue.
//!
//! §4: "Math libraries achieve maximum performance through tuning for the
//! complex hierarchy of memory levels and device parallelism of GPUs.
//! Performance trade-offs depend on specifics of the input and output sizes,
//! so libraries often contain a large collection of problem-size-dependent
//! implementations. Early access allowed application developers to provide
//! target problem sizes for library developers, such that the libraries were
//! tuned and ready for these applications when the final system arrived."
//!
//! [`DeviceBlas`] is that library's untuned (generic) build: each call
//! executes the real math from this crate and charges roofline time through
//! an `exa-hal` [`Stream`] at the generic kernels' efficiencies.

use crate::complex::C64;
use crate::eigen::{jacobi_eigen, jacobi_flops, tridiag_eigen, tridiag_flops, EigenDecomp};
use crate::gemm::{gemm_flops, matmul};
use crate::lu::{getrf, getrf_flops, getrs_flops, LuFactors, Singular};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use exa_hal::{DType, KernelProfile, LaunchConfig, Stream};

/// Fraction of matrix-unit peak the generic GEMM kernel achieves.
pub const GEMM_EFF_GENERIC: f64 = 0.62;
/// Generic LU efficiency.
pub const LU_EFF_GENERIC: f64 = 0.48;

/// The device linear-algebra library.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceBlas;

impl DeviceBlas {
    fn gemm_profile<S: Scalar>(
        &self,
        name: &str,
        m: usize,
        n: usize,
        k: usize,
        dtype: DType,
    ) -> KernelProfile {
        let elem = dtype.bytes() as f64;
        KernelProfile::new(name, LaunchConfig::cover((m as u64 * n as u64).max(1), 256))
            .flops(gemm_flops::<S>(m, n, k), dtype)
            .matrix_units(true)
            .bytes(((m * k + k * n) as f64) * elem, (m * n) as f64 * elem)
            .regs(96)
            .lds(32 * 1024)
            .compute_eff(GEMM_EFF_GENERIC)
    }

    /// `dgemm`: real double GEMM on the device.
    pub fn dgemm(&self, stream: &mut Stream, a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        let p = self.gemm_profile::<f64>("dgemm", a.rows(), b.cols(), a.cols(), DType::F64);
        let mut out = None;
        stream.launch(&p, || out = Some(matmul(a, b)));
        out.expect("kernel body ran")
    }

    /// `zgetrf`: factor a complex matrix on the device (rocSOLVER analogue).
    pub fn zgetrf(&self, stream: &mut Stream, a: &Matrix<C64>) -> Result<LuFactors<C64>, Singular> {
        let n = a.rows();
        let p = KernelProfile::new(
            "zgetrf",
            LaunchConfig::cover((n as u64 * n as u64).max(1), 256),
        )
        .flops(getrf_flops::<C64>(n), DType::C64)
        .bytes((n * n * 16) as f64 * 2.0, (n * n * 16) as f64)
        .regs(128)
        .compute_eff(LU_EFF_GENERIC);
        let mut out = None;
        stream.launch(&p, || out = Some(getrf(a)));
        out.expect("kernel body ran")
    }

    /// `zgetrs`: solve with prior factors on the device.
    pub fn zgetrs(&self, stream: &mut Stream, f: &LuFactors<C64>, rhs: &mut Matrix<C64>) {
        let n = f.n();
        let nrhs = rhs.cols();
        let p = KernelProfile::new(
            "zgetrs",
            LaunchConfig::cover((n as u64 * nrhs as u64).max(1), 256),
        )
        .flops(getrs_flops::<C64>(n, nrhs), DType::C64)
        .bytes((n * n * 16 + n * nrhs * 16) as f64, (n * nrhs * 16) as f64)
        .regs(96)
        .compute_eff(LU_EFF_GENERIC);
        stream.launch(&p, || f.getrs(rhs));
    }

    /// Symmetric eigensolver, classic Jacobi kernel (the pre-MAGMA path).
    pub fn syev_jacobi(&self, stream: &mut Stream, a: &Matrix<f64>) -> EigenDecomp {
        let n = a.rows();
        let sweeps = 8;
        let p = KernelProfile::new(
            "syev_jacobi",
            LaunchConfig::cover((n as u64 * n as u64).max(1), 256),
        )
        .flops(jacobi_flops(n, sweeps), DType::F64)
        .bytes((n * n * 8) as f64 * sweeps as f64, (n * n * 8) as f64)
        .regs(64)
        .compute_eff(0.35);
        let mut out = None;
        stream.launch(&p, || out = Some(jacobi_eigen(a, 1e-12, sweeps * 4)));
        out.expect("kernel body ran")
    }

    /// Symmetric eigensolver, divide-and-conquer class (the "more efficient
    /// ... symmetric eigen solver" MAGMA gave GAMESS with ROCm 5.4, §3.1).
    pub fn syevd(&self, stream: &mut Stream, a: &Matrix<f64>) -> EigenDecomp {
        let n = a.rows();
        let p = KernelProfile::new(
            "syevd",
            LaunchConfig::cover((n as u64 * n as u64).max(1), 256),
        )
        .flops(tridiag_flops(n), DType::F64)
        .bytes((n * n * 8) as f64 * 3.0, (n * n * 8) as f64)
        .regs(96)
        .compute_eff(0.55);
        let mut out = None;
        stream.launch(&p, || out = Some(tridiag_eigen(a, 80)));
        out.expect("kernel body ran")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_hal::{ApiSurface, Device, SimTime};
    use exa_machine::GpuModel;

    fn hip_stream() -> Stream {
        Stream::new(Device::new(GpuModel::mi250x_gcd(), 0), ApiSurface::Hip).unwrap()
    }

    #[test]
    fn device_gemm_computes_and_charges() {
        let mut s = hip_stream();
        let lib = DeviceBlas;
        let a = Matrix::<f64>::seeded_random(32, 32, 1);
        let b = Matrix::<f64>::seeded_random(32, 32, 2);
        let c = lib.dgemm(&mut s, &a, &b);
        assert!(c.max_abs_diff(&a.matmul_ref(&b)) < 1e-11);
        assert!(s.device_time() > SimTime::ZERO);
        assert_eq!(s.stats().kernels, 1);
    }

    #[test]
    fn zgetrf_zgetrs_solve_on_device() {
        let mut s = hip_stream();
        let lib = DeviceBlas;
        let n = 16;
        let mut a = Matrix::<C64>::seeded_random(n, n, 5);
        for i in 0..n {
            a[(i, i)] += C64::from_re(n as f64);
        }
        let x = Matrix::<C64>::seeded_random(n, 1, 6);
        let mut b = a.matmul_ref(&x);
        let f = lib.zgetrf(&mut s, &a).unwrap();
        lib.zgetrs(&mut s, &f, &mut b);
        assert!(b.max_abs_diff(&x) < 1e-9);
        assert_eq!(s.stats().kernels, 2);
    }

    #[test]
    fn syevd_beats_jacobi_and_agrees() {
        let a = {
            let r = Matrix::<f64>::seeded_random(24, 24, 9);
            let mut m = Matrix::zeros(24, 24);
            for j in 0..24 {
                for i in 0..24 {
                    m[(i, j)] = 0.5 * (r[(i, j)] + r[(j, i)]);
                }
            }
            m
        };
        let lib = DeviceBlas;
        let mut s1 = hip_stream();
        let dj = lib.syev_jacobi(&mut s1, &a);
        let t_jacobi = s1.synchronize();
        let mut s2 = hip_stream();
        let dd = lib.syevd(&mut s2, &a);
        let t_dc = s2.synchronize();
        for (x, y) in dj.values.iter().zip(&dd.values) {
            assert!((x - y).abs() < 1e-7, "{x} vs {y}");
        }
        assert!(t_dc < t_jacobi, "D&C-class solver must be cheaper");
    }
}
