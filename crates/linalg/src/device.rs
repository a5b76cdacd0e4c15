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
use crate::lu::{getrf, getrf_flops, getrs_flops, LuFactors, Singular};
use crate::matrix::Matrix;
use exa_hal::{DType, KernelProfile, LaunchConfig, Stream};

/// Generic LU efficiency.
pub const LU_EFF_GENERIC: f64 = 0.48;

/// The device linear-algebra library.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceBlas;

impl DeviceBlas {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_hal::{ApiSurface, Device};
    use exa_machine::GpuModel;

    fn hip_stream() -> Stream {
        Stream::new(Device::new(GpuModel::mi250x_gcd(), 0), ApiSurface::Hip).unwrap()
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
}
