//! `zblock_lu` — the block-inversion algorithm LSMS historically used.
//!
//! §3.2: LSMS needs only the upper-left `b×b` block of the inverse of the
//! LIZ τ-matrix. The `zblock_lu` algorithm eliminates trailing blocks with
//! Schur complements, so it performs "a slightly lower total floating point
//! operation count" than a full `getrf` + `getrs` — and yet, on Frontier,
//! the direct rocSOLVER LU route was *faster* because library kernels beat
//! bespoke ones. Both are implemented here so the trade-off is measurable
//! (see the `lsms_solvers` bench).
//!
//! Algorithm: partition `A` into `nb×nb` blocks of size `b`. Repeatedly
//! eliminate the last block row/column:
//! `A'₍ᵢⱼ₎ = Aᵢⱼ − Aᵢₖ · Aₖₖ⁻¹ · Aₖⱼ` for the current trailing block `k`.
//! After all eliminations the surviving top-left block `S` satisfies
//! `(A⁻¹)₀₀ = S⁻¹`.

use crate::lu::{getrf, getrf_flops, getrs_flops, Singular};
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Compute the top-left `b×b` block of `A⁻¹` by block elimination.
///
/// `a` must be square with order divisible by `b`.
pub fn block_lu_inverse_block<S: Scalar>(a: &Matrix<S>, b: usize) -> Result<Matrix<S>, Singular> {
    assert!(a.is_square(), "block inversion requires a square matrix");
    let n = a.rows();
    assert!(
        b > 0 && n.is_multiple_of(b),
        "order {n} not divisible by block size {b}"
    );
    let nb = n / b;

    // Work on an owned copy, shrinking one block per step.
    let mut work = a.clone();
    for step in (1..nb).rev() {
        let m = (step + 1) * b; // current working order
        let k0 = step * b; // trailing block origin
        let akk = work.block(k0, k0, b, b);
        let akk_lu = getrf(&akk)?;
        // X = Akk⁻¹ · A[k, 0..k0]  (solve with the trailing row as RHS).
        let mut akj = work.block(k0, 0, b, k0);
        akk_lu.getrs(&mut akj);
        // A[0..k0, 0..k0] -= A[0..k0, k] · X.
        let aik = work.block(0, k0, k0, b);
        let update = aik.matmul_ref(&akj);
        let mut shrunk = work.block(0, 0, k0, k0);
        for j in 0..k0 {
            for i in 0..k0 {
                let sub = update[(i, j)];
                shrunk[(i, j)] -= sub;
            }
        }
        let _ = m;
        work = shrunk;
    }
    // work is now the b×b Schur complement; its inverse is (A⁻¹)₀₀.
    Ok(getrf(&work)?.inverse())
}

/// Reference route: full `getrf` + `getrs`, extracting the same block — the
/// rocSOLVER path LSMS adopted for Frontier.
pub fn lu_inverse_block<S: Scalar>(a: &Matrix<S>, b: usize) -> Result<Matrix<S>, Singular> {
    let f = getrf(a)?;
    Ok(f.inverse().block(0, 0, b, b))
}

/// FLOP count of the block-elimination route (per §3.2, slightly below the
/// full-LU count).
pub fn block_lu_flops<S: Scalar>(n: usize, b: usize) -> f64 {
    let nb = n / b;
    let mut flops = 0.0;
    for step in (1..nb).rev() {
        let k0 = (step * b) as f64;
        // Factor the b×b trailing block, solve b×k0 RHS, and the rank-b
        // update of the k0×k0 leading block.
        flops += getrf_flops::<S>(b);
        flops += getrs_flops::<S>(b, step * b);
        flops += k0 * k0 * b as f64 * S::FLOPS_PER_MULADD;
    }
    flops + getrf_flops::<S>(b) + getrs_flops::<S>(b, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    fn well_conditioned<S: Scalar>(n: usize, seed: u64) -> Matrix<S> {
        let mut a = Matrix::<S>::seeded_random(n, n, seed);
        for i in 0..n {
            let bump = S::from_f64(n as f64);
            a[(i, i)] += bump;
        }
        a
    }

    #[test]
    fn block_route_matches_full_lu_route_f64() {
        for (n, b) in [(8, 2), (12, 3), (32, 8), (30, 30)] {
            let a = well_conditioned::<f64>(n, n as u64);
            let via_block = block_lu_inverse_block(&a, b).unwrap();
            let via_lu = lu_inverse_block(&a, b).unwrap();
            assert!(
                via_block.max_abs_diff(&via_lu) < 1e-8,
                "n={n} b={b}: {}",
                via_block.max_abs_diff(&via_lu)
            );
        }
    }

    #[test]
    fn block_route_matches_full_lu_route_complex() {
        let a = well_conditioned::<C64>(24, 99);
        let via_block = block_lu_inverse_block(&a, 6).unwrap();
        let via_lu = lu_inverse_block(&a, 6).unwrap();
        assert!(via_block.max_abs_diff(&via_lu) < 1e-8);
    }

    #[test]
    fn single_block_degenerates_to_plain_inverse() {
        let a = well_conditioned::<f64>(10, 3);
        let inv_block = block_lu_inverse_block(&a, 10).unwrap();
        let inv_full = getrf(&a).unwrap().inverse();
        assert!(inv_block.max_abs_diff(&inv_full) < 1e-10);
    }

    #[test]
    fn block_flops_below_full_lu_flops() {
        // §3.2: "the zblock_lu algorithm has a slightly lower total floating
        // point operation count".
        for (n, b) in [(512, 32), (1024, 64), (2048, 128)] {
            let blk = block_lu_flops::<C64>(n, b);
            let full = getrf_flops::<C64>(n) + getrs_flops::<C64>(n, n);
            assert!(blk < full, "n={n}: block {blk:.3e} !< full {full:.3e}");
            // ... but not wildly lower: same O(N³) scaling.
            assert!(blk > full * 0.2);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_block_size_rejected() {
        let a = well_conditioned::<f64>(10, 1);
        let _ = block_lu_inverse_block(&a, 3);
    }
}
