//! GEMM — blocked, parallel matrix multiply, plus the Int8 variant CoMet
//! (§3.6) counts with.
//!
//! `C ← α·A·B + β·C`, column-major, parallelised over column panels of `C`
//! with a k-blocked inner kernel. `gemm_i8` emulates Int8 inputs with Int32
//! accumulation (DP4A / int8 MFMA semantics).

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use exa_hal::exec;

/// Cache block in the k dimension.
const KBLOCK: usize = 64;
/// Column panel width per parallel task.
const JPANEL: usize = 8;
/// Cache block in the m (row) dimension: one `MB`-row tile of a C column
/// (2 KiB at f64) stays L1-resident across a whole k-block instead of
/// streaming the full column once per k iteration.
const MB: usize = 256;

/// General matrix multiply: `c ← alpha * a * b + beta * c`.
///
/// # Panics
/// Panics when dimensions are incompatible.
pub fn gemm<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "inner dimensions must agree");
    assert_eq!(c.rows(), m, "C row count mismatch");
    assert_eq!(c.cols(), n, "C column count mismatch");
    if m == 0 || n == 0 {
        return;
    }

    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let c_cols = c.as_mut_slice();

    // Each panel of `JPANEL` columns of C is independent.
    exec::par_chunks_mut(c_cols, m * JPANEL, |panel, c_panel| {
        let j0 = panel * JPANEL;
        let ncols = c_panel.len() / m;
        // Scale C by beta once.
        for x in c_panel.iter_mut() {
            *x = beta * *x;
        }
        // k-blocked, row-blocked accumulation. Splitting the row loop
        // into MB tiles only reorders independent axpy spans — every
        // C element still accumulates its k terms in ascending order,
        // so results are bit-identical to the unblocked kernel.
        let mut k0 = 0;
        while k0 < k {
            let kend = (k0 + KBLOCK).min(k);
            for (jj, c_col) in c_panel.chunks_mut(m).enumerate().take(ncols) {
                let j = j0 + jj;
                let mut i0 = 0;
                while i0 < m {
                    let iend = (i0 + MB).min(m);
                    let c_blk = &mut c_col[i0..iend];
                    for kk in k0..kend {
                        let bkj = alpha * b_data[kk + j * k];
                        let a_blk = &a_data[kk * m + i0..kk * m + iend];
                        for (ci, &aik) in c_blk.iter_mut().zip(a_blk) {
                            let prod = aik * bkj;
                            *ci += prod;
                        }
                    }
                    i0 = iend;
                }
            }
            k0 = kend;
        }
    });
}

/// Convenience: `A * B` with fresh output.
pub fn matmul<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(S::one(), a, b, S::zero(), &mut c);
    c
}

/// FLOPs performed by a GEMM of these dimensions in the given scalar type.
pub fn gemm_flops<S: Scalar>(m: usize, n: usize, k: usize) -> f64 {
    m as f64 * n as f64 * k as f64 * S::FLOPS_PER_MULADD
}

/// GEMM with Int8 inputs and Int32 accumulation (DP4A / int8 MFMA
/// semantics). Matrices are column-major slices with explicit dims.
pub fn gemm_i8(m: usize, n: usize, k: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0i32; m * n];
    exec::par_chunks_mut(&mut c, m, |j, c_col| {
        for kk in 0..k {
            let bkj = b[kk + j * k] as i32;
            let a_col = &a[kk * m..kk * m + m];
            for (ci, &aik) in c_col.iter_mut().zip(a_col) {
                *ci += aik as i32 * bkj;
            }
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    fn assert_gemm_matches_ref<S: Scalar>(m: usize, n: usize, k: usize, seed: u64, tol: f64) {
        let a = Matrix::<S>::seeded_random(m, k, seed);
        let b = Matrix::<S>::seeded_random(k, n, seed + 1);
        let fast = matmul(&a, &b);
        let slow = a.matmul_ref(&b);
        assert!(
            fast.max_abs_diff(&slow) < tol,
            "gemm mismatch at {m}x{n}x{k}: {}",
            fast.max_abs_diff(&slow)
        );
    }

    #[test]
    fn gemm_matches_reference_f64() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 17, 17),
            (64, 32, 48),
            (100, 3, 200),
        ] {
            assert_gemm_matches_ref::<f64>(m, n, k, 11, 1e-11);
        }
    }

    #[test]
    fn gemm_matches_reference_f32() {
        assert_gemm_matches_ref::<f32>(33, 29, 65, 3, 1e-3);
    }

    #[test]
    fn gemm_matches_reference_complex() {
        assert_gemm_matches_ref::<C64>(24, 24, 24, 5, 1e-11);
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = Matrix::<f64>::seeded_random(8, 8, 1);
        let b = Matrix::<f64>::seeded_random(8, 8, 2);
        let c0 = Matrix::<f64>::seeded_random(8, 8, 3);
        let mut c = c0.clone();
        gemm(2.0, &a, &b, 0.5, &mut c);
        let expect = {
            let mut ab = a.matmul_ref(&b);
            for j in 0..8 {
                for i in 0..8 {
                    ab[(i, j)] = 2.0 * ab[(i, j)] + 0.5 * c0[(i, j)];
                }
            }
            ab
        };
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn gemm_flop_counts() {
        assert_eq!(gemm_flops::<f64>(10, 20, 30), 12_000.0);
        assert_eq!(gemm_flops::<C64>(10, 20, 30), 48_000.0);
    }

    #[test]
    fn i8_gemm_exact_small_integers() {
        // 2x2: a = [1 2; 3 4] (column major: 1,3,2,4), b = [5 6; 7 8].
        let a = [1i8, 3, 2, 4];
        let b = [5i8, 7, 6, 8];
        let c = gemm_i8(2, 2, 2, &a, &b);
        assert_eq!(c, vec![19, 43, 22, 50]);
    }

    #[test]
    fn i8_gemm_accumulates_in_i32() {
        // 127*127*k would overflow i8/i16 quickly; i32 must hold it.
        let k = 1024;
        let a = vec![127i8; k]; // 1 x k
        let b = vec![127i8; k]; // k x 1
        let c = gemm_i8(1, 1, k, &a, &b);
        assert_eq!(c[0], 127 * 127 * k as i32);
    }

    #[test]
    fn empty_dims_are_noops() {
        let a = Matrix::<f64>::zeros(0, 5);
        let b = Matrix::<f64>::zeros(5, 0);
        let c = matmul(&a, &b);
        assert_eq!(c.rows(), 0);
        assert_eq!(c.cols(), 0);
    }
}
