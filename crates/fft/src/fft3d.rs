//! In-memory 3-D FFTs, parallel over lines.
//!
//! Data layout: `data[(i0 * n1 + i1) * n2 + i2]` — `i2` fastest (row-major,
//! C order). The transform applies 1-D FFTs along each axis in turn.

use crate::fft1d::fft;
use exa_hal::exec;
use exa_linalg::C64;

/// Forward 3-D FFT over an `n0 × n1 × n2` array.
pub fn fft3d(data: &mut [C64], n0: usize, n1: usize, n2: usize) {
    assert_eq!(data.len(), n0 * n1 * n2, "array length must equal n0*n1*n2");

    // Axis 2 (contiguous lines).
    exec::par_chunks_mut(data, n2, |_, line| fft(line));

    // Axis 1: lines stride n2 within each i0-plane.
    exec::par_chunks_mut(data, n1 * n2, |_, plane| {
        let mut line = vec![C64::ZERO; n1];
        for i2 in 0..n2 {
            for i1 in 0..n1 {
                line[i1] = plane[i1 * n2 + i2];
            }
            fft(&mut line);
            for i1 in 0..n1 {
                plane[i1 * n2 + i2] = line[i1];
            }
        }
    });

    // Axis 0: lines stride n1*n2. Parallelise over (i1, i2) pairs by
    // gathering each line; to keep chunks disjoint we transpose into a
    // scratch of n0-major order.
    let plane_stride = n1 * n2;
    let mut scratch: Vec<C64> = vec![C64::ZERO; n0 * n1 * n2];
    // scratch[(i1 * n2 + i2) * n0 + i0] = data[i0 * plane + i1 * n2 + i2]
    exec::par_chunks_mut(&mut scratch, n0, |p, line| {
        // p = i1 * n2 + i2
        for (i0, v) in line.iter_mut().enumerate() {
            *v = data[i0 * plane_stride + p];
        }
        fft(line);
    });
    exec::par_map_inplace(data, |idx, _| {
        let i0 = idx / plane_stride;
        let p = idx % plane_stride;
        scratch[p * n0 + i0]
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft1d::dft_naive;

    fn signal(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                C64::new(re, re * 0.5 - 0.1)
            })
            .collect()
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn separable_against_naive_dft() {
        // Full 3-D DFT by three nested naive 1-D DFTs must agree.
        let (n0, n1, n2) = (3, 4, 5);
        let orig = signal(n0 * n1 * n2, 9);
        let mut fast = orig.clone();
        fft3d(&mut fast, n0, n1, n2);

        // Naive path: axis 2, axis 1, axis 0.
        let mut slow = orig;
        for i0 in 0..n0 {
            for i1 in 0..n1 {
                let base = (i0 * n1 + i1) * n2;
                let line: Vec<C64> = (0..n2).map(|i2| slow[base + i2]).collect();
                let out = dft_naive(&line, false);
                for (i2, v) in out.into_iter().enumerate() {
                    slow[base + i2] = v;
                }
            }
        }
        for i0 in 0..n0 {
            for i2 in 0..n2 {
                let line: Vec<C64> = (0..n1).map(|i1| slow[(i0 * n1 + i1) * n2 + i2]).collect();
                let out = dft_naive(&line, false);
                for (i1, v) in out.into_iter().enumerate() {
                    slow[(i0 * n1 + i1) * n2 + i2] = v;
                }
            }
        }
        for i1 in 0..n1 {
            for i2 in 0..n2 {
                let line: Vec<C64> = (0..n0).map(|i0| slow[(i0 * n1 + i1) * n2 + i2]).collect();
                let out = dft_naive(&line, false);
                for (i0, v) in out.into_iter().enumerate() {
                    slow[(i0 * n1 + i1) * n2 + i2] = v;
                }
            }
        }
        assert!(max_err(&fast, &slow) < 1e-9);
    }

    #[test]
    fn delta_is_flat_in_3d() {
        let n = 4;
        let mut x = vec![C64::ZERO; n * n * n];
        x[0] = C64::ONE;
        fft3d(&mut x, n, n, n);
        for z in &x {
            assert!((*z - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn plane_wave_lands_in_single_mode() {
        let n = 8;
        use std::f64::consts::PI;
        let (k0, k1, k2) = (1usize, 2usize, 3usize);
        let mut x = vec![C64::ZERO; n * n * n];
        for i0 in 0..n {
            for i1 in 0..n {
                for i2 in 0..n {
                    let phase = 2.0 * PI * (k0 * i0 + k1 * i1 + k2 * i2) as f64 / n as f64;
                    x[(i0 * n + i1) * n + i2] = C64::cis(phase);
                }
            }
        }
        fft3d(&mut x, n, n, n);
        let total = (n * n * n) as f64;
        for i0 in 0..n {
            for i1 in 0..n {
                for i2 in 0..n {
                    let v = x[(i0 * n + i1) * n + i2].abs();
                    if (i0, i1, i2) == (k0, k1, k2) {
                        assert!((v - total).abs() < 1e-8);
                    } else {
                        assert!(v < 1e-8, "leakage at ({i0},{i1},{i2})");
                    }
                }
            }
        }
    }
}
