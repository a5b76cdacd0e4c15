//! LU factorisation with partial pivoting and triangular solves — the
//! `getrf`/`getrs` pair LSMS moved to on Frontier (§3.2: "we replaced the
//! block inversion algorithm by the LU factorization routines available in
//! rocSOLVER (i.e. rocsolver_zgetrf and rocsolver_zgetrs)").

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Error for numerically singular inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular {
    /// Column at which elimination found no usable pivot.
    pub at_col: usize,
}

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is singular (zero pivot at column {})",
            self.at_col
        )
    }
}

impl std::error::Error for Singular {}

/// An LU factorisation `P·A = L·U` stored LAPACK-style: `L` (unit diagonal)
/// below, `U` on and above the diagonal, plus the pivot row swaps.
#[derive(Debug, Clone)]
pub struct LuFactors<S: Scalar> {
    /// Packed L\U storage.
    pub lu: Matrix<S>,
    /// `pivots[k]` = row swapped with row `k` at step `k`.
    pub pivots: Vec<usize>,
}

/// Factor a square matrix (`getrf`). Consumes a copy of `a`.
pub fn getrf<S: Scalar>(a: &Matrix<S>) -> Result<LuFactors<S>, Singular> {
    assert!(a.is_square(), "LU requires a square matrix");
    let n = a.rows();
    let mut lu = a.clone();
    let mut pivots = vec![0usize; n];

    for k in 0..n {
        // Partial pivot: largest |value| in column k at/below the diagonal.
        let mut p = k;
        let mut pmax = lu[(k, k)].abs();
        for i in k + 1..n {
            let v = lu[(i, k)].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax == 0.0 {
            return Err(Singular { at_col: k });
        }
        pivots[k] = p;
        if p != k {
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(p, j)];
                lu[(p, j)] = tmp;
            }
        }
        // Eliminate below the pivot.
        let inv_pivot = S::one() / lu[(k, k)];
        for i in k + 1..n {
            let lik = lu[(i, k)] * inv_pivot;
            lu[(i, k)] = lik;
            for j in k + 1..n {
                let sub = lik * lu[(k, j)];
                lu[(i, j)] -= sub;
            }
        }
    }
    Ok(LuFactors { lu, pivots })
}

impl<S: Scalar> LuFactors<S> {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A·x = b` in place for each column of `b` (`getrs`).
    pub fn getrs(&self, b: &mut Matrix<S>) {
        assert_eq!(b.rows(), self.n(), "rhs row count mismatch");
        let n = self.n();
        for j in 0..b.cols() {
            // Apply row swaps.
            for k in 0..n {
                let p = self.pivots[k];
                if p != k {
                    let tmp = b[(k, j)];
                    b[(k, j)] = b[(p, j)];
                    b[(p, j)] = tmp;
                }
            }
            // Forward substitution with unit-diagonal L.
            for k in 0..n {
                let bk = b[(k, j)];
                for i in k + 1..n {
                    let sub = self.lu[(i, k)] * bk;
                    b[(i, j)] -= sub;
                }
            }
            // Back substitution with U.
            for k in (0..n).rev() {
                let x = b[(k, j)] / self.lu[(k, k)];
                b[(k, j)] = x;
                for i in 0..k {
                    let sub = self.lu[(i, k)] * x;
                    b[(i, j)] -= sub;
                }
            }
        }
    }

    /// Solve for a single right-hand-side vector.
    pub fn solve_vec(&self, b: &[S]) -> Vec<S> {
        let mut m = Matrix::from_fn(b.len(), 1, |i, _| b[i]);
        self.getrs(&mut m);
        (0..b.len()).map(|i| m[(i, 0)]).collect()
    }

    /// Full inverse via `getrs` on the identity.
    pub fn inverse(&self) -> Matrix<S> {
        let mut inv = Matrix::identity(self.n());
        self.getrs(&mut inv);
        inv
    }

    /// Reconstruct `P⁻¹·L·U` — should equal the original matrix; the
    /// property tests rely on this.
    pub fn reconstruct(&self) -> Matrix<S> {
        let n = self.n();
        let mut l = Matrix::identity(n);
        let mut u = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                if i > j {
                    l[(i, j)] = self.lu[(i, j)];
                } else {
                    u[(i, j)] = self.lu[(i, j)];
                }
            }
        }
        let mut pa = l.matmul_ref(&u);
        // Undo the pivoting: apply swaps in reverse.
        for k in (0..n).rev() {
            let p = self.pivots[k];
            if p != k {
                for j in 0..n {
                    let tmp = pa[(k, j)];
                    pa[(k, j)] = pa[(p, j)];
                    pa[(p, j)] = tmp;
                }
            }
        }
        pa
    }
}

/// FLOPs of `getrf` at order `n` in scalar type `S` (2n³/3 real muladd
/// pairs).
pub fn getrf_flops<S: Scalar>(n: usize) -> f64 {
    let n = n as f64;
    (n * n * n / 3.0) * S::FLOPS_PER_MULADD
}

/// FLOPs of `getrs` with `nrhs` right-hand sides.
pub fn getrs_flops<S: Scalar>(n: usize, nrhs: usize) -> f64 {
    let n = n as f64;
    n * n * nrhs as f64 * S::FLOPS_PER_MULADD
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    fn well_conditioned<S: Scalar>(n: usize, seed: u64) -> Matrix<S> {
        // Random + n·I keeps the matrix comfortably nonsingular.
        let mut a = Matrix::<S>::seeded_random(n, n, seed);
        for i in 0..n {
            let bump = S::from_f64(n as f64);
            a[(i, i)] += bump;
        }
        a
    }

    #[test]
    fn reconstruct_recovers_input_f64() {
        for n in [1, 2, 5, 16, 33] {
            let a = well_conditioned::<f64>(n, 10 + n as u64);
            let f = getrf(&a).unwrap();
            assert!(f.reconstruct().max_abs_diff(&a) < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn reconstruct_recovers_input_complex() {
        let a = well_conditioned::<C64>(20, 77);
        let f = getrf(&a).unwrap();
        assert!(f.reconstruct().max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let n = 24;
        let a = well_conditioned::<f64>(n, 5);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 10.0).collect();
        let b = a.matmul_ref(&Matrix::from_fn(n, 1, |i, _| x_true[i]));
        let b = b.as_slice();
        let f = getrf(&a).unwrap();
        let x = f.solve_vec(b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn multiple_rhs_solved_together() {
        let n = 12;
        let a = well_conditioned::<f64>(n, 9);
        let f = getrf(&a).unwrap();
        let xs = Matrix::<f64>::seeded_random(n, 3, 13);
        let mut b = a.matmul_ref(&xs);
        f.getrs(&mut b);
        assert!(b.max_abs_diff(&xs) < 1e-9);
    }

    #[test]
    fn inverse_really_inverts() {
        let a = well_conditioned::<C64>(10, 21);
        let inv = getrf(&a).unwrap().inverse();
        let prod = a.matmul_ref(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(10)) < 1e-9);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let err = getrf(&a).unwrap_err();
        assert_eq!(err.at_col, 1);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let f = getrf(&a).unwrap();
        let x = f.solve_vec(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn flop_formulas() {
        assert!((getrf_flops::<f64>(100) - 2.0 / 3.0 * 1e6).abs() < 1.0);
        assert_eq!(getrs_flops::<C64>(10, 2), 1600.0);
    }
}
