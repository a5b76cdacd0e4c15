//! One-dimensional complex FFTs.
//!
//! Powers of two run one in-place Cooley–Tukey kernel over any number of
//! whole lines; other lengths fall back to Bluestein's chirp-z algorithm,
//! whose three inner power-of-two transforms run on that same kernel.
//!
//! The kernel reads a per-thread cached `Plan` for `(n, inverse)`: the
//! bit-reversal swap pairs and, per radix-2 stage, one contiguous twiddle
//! slice. It runs the stages two at a time (radix-2² sweeps: four loads,
//! stage `s`'s two butterflies, stage `s+1`'s two, four stores) and ends
//! with one radix-2 sweep when `log₂ n` is odd. Every element sees exactly
//! the floating-point operations, operands and order of the textbook
//! stage-by-stage radix-2 loop — only independent operations are
//! reordered — so results are bitwise equal to it, signed zeros and
//! non-finite values included.

use exa_linalg::C64;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::rc::Rc;

/// Forward DFT, in place: `X[k] = Σ x[j]·e^{-2πi jk/n}`.
pub fn fft(data: &mut [C64]) {
    transform(data, data.len(), false);
}

/// Inverse DFT, in place, normalised by `1/n` so `ifft(fft(x)) = x`.
pub fn ifft(data: &mut [C64]) {
    transform(data, data.len(), true);
}

/// Forward DFT of `lines.len() / n` contiguous length-`n` lines, bit-for-bit
/// identical to calling [`fft`] per line (lines are independent; batching
/// only sets how many lines one call hands the kernel).
pub fn fft_batch(lines: &mut [C64], n: usize) {
    transform(lines, n, false);
}

/// Inverse counterpart of [`fft_batch`], bit-identical to per-line [`ifft`].
pub fn ifft_batch(lines: &mut [C64], n: usize) {
    transform(lines, n, true);
}

/// Dispatch on length. Inverse transforms come back normalised by `1/n`.
fn transform(lines: &mut [C64], n: usize, inverse: bool) {
    assert_eq!(lines.len() % n.max(1), 0, "batch must hold whole lines");
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        pow2_lines(lines, n, inverse);
    } else {
        for line in lines.chunks_exact_mut(n) {
            bluestein(line, inverse);
        }
    }
}

/// Everything a power-of-two transform reads besides its data; a pure
/// function of `(n, inverse)`.
struct Plan {
    /// Bit-reversal permutation as swap pairs `(i, j)`, `i < j`.
    swaps: Vec<(usize, usize)>,
    /// `stage_tw[s][k] = tw[k·n/2^{s+1}]` for `k < 2^s`, where
    /// `tw[k] = e^{sign·2πi k/n}` is the half-length table: the strided
    /// walk stage `s` makes over `tw`, stored contiguously.
    stage_tw: Vec<Vec<C64>>,
}

impl Plan {
    fn new(n: usize, inverse: bool) -> Self {
        let bits = n.trailing_zeros();
        let swaps = (0..n)
            .map(|i| (i, (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1)))
            .filter(|&(i, j)| j > i)
            .collect();
        let sign = if inverse { 1.0 } else { -1.0 };
        let tw: Vec<C64> = (0..n / 2)
            .map(|k| C64::cis(sign * 2.0 * PI * k as f64 / n as f64))
            .collect();
        let stage_tw = (0..bits)
            .map(|s| {
                let stride = n >> (s + 1);
                (0..1usize << s).map(|k| tw[k * stride]).collect()
            })
            .collect();
        Plan { swaps, stage_tw }
    }

    /// The plan for `(n, inverse)`, cached per thread: the distributed 3-D
    /// FFT transforms thousands of equal-length lines back to back, and a
    /// plan never affects results.
    fn cached(n: usize, inverse: bool) -> Rc<Plan> {
        type CacheEntry = (usize, bool, Rc<Plan>);
        thread_local! {
            static CACHE: RefCell<Vec<CacheEntry>> = const { RefCell::new(Vec::new()) };
        }
        CACHE.with(|c| {
            let mut c = c.borrow_mut();
            if let Some((_, _, p)) = c.iter().find(|(m, inv, _)| *m == n && *inv == inverse) {
                return Rc::clone(p);
            }
            let plan = Rc::new(Plan::new(n, inverse));
            if c.len() >= 16 {
                c.remove(0);
            }
            c.push((n, inverse, Rc::clone(&plan)));
            plan
        })
    }
}

/// The power-of-two kernel: transforms every length-`n` line of `lines`
/// in place (`n ≥ 2` a power of two). Inverse lines are scaled by `1/n`
/// in the last sweep — the same multiply on the same value as a separate
/// pass.
fn pow2_lines(lines: &mut [C64], n: usize, inverse: bool) {
    debug_assert!(n >= 2 && n.is_power_of_two() && lines.len().is_multiple_of(n));
    let plan = Plan::cached(n, inverse);
    let stages = plan.stage_tw.as_slice();
    let scale = if inverse { Some(1.0 / n as f64) } else { None };
    for line in lines.chunks_exact_mut(n) {
        for &(i, j) in &plan.swaps {
            line.swap(i, j);
        }
        let mut s = 0;
        while s + 2 <= stages.len() {
            let (t1, t2) = (&stages[s], &stages[s + 1]);
            s += 2;
            match scale {
                Some(f) if s == stages.len() => sweep2::<true>(line, t1, t2, f),
                _ => sweep2::<false>(line, t1, t2, 1.0),
            }
        }
        if let Some(t) = stages.get(s) {
            match scale {
                Some(f) => sweep1::<true>(line, t, f),
                None => sweep1::<false>(line, t, 1.0),
            }
        }
    }
}

/// One radix-2 stage with half-width `h = t.len()`: butterfly `(k, k+h)`
/// of every `2h` block with twiddle `t[k]`; outputs times `f` if `SCALE`.
fn sweep1<const SCALE: bool>(line: &mut [C64], t: &[C64], f: f64) {
    let h = t.len();
    for block in line.chunks_exact_mut(2 * h) {
        let (lo, hi) = block.split_at_mut(h);
        for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(t) {
            let v = *b * w;
            let (x, y) = (*a + v, *a - v);
            (*a, *b) = if SCALE {
                (x.scale(f), y.scale(f))
            } else {
                (x, y)
            };
        }
    }
}

/// Radix-2 stages `s` and `s+1` in one pass (`h = t1.len() = 2^s`,
/// `t2.len() = 2h`): per `4h` block and `k < h`, the quartet
/// `k, k+h, k+2h, k+3h` goes through [`quartet`] with twiddles `t1[k]`,
/// `t2[k]`, `t2[k+h]`.
fn sweep2<const SCALE: bool>(line: &mut [C64], t1: &[C64], t2: &[C64], f: f64) {
    let h = t1.len();
    if h == 1 {
        // First sweep: one quartet per block, twiddles hoisted.
        let (w1, w2, w3) = (t1[0], t2[0], t2[1]);
        for q in line.chunks_exact_mut(4) {
            let r = quartet::<SCALE>([q[0], q[1], q[2], q[3]], w1, w2, w3, f);
            q.copy_from_slice(&r);
        }
        return;
    }
    let (t2lo, t2hi) = t2.split_at(h);
    for block in line.chunks_exact_mut(4 * h) {
        let (q01, q23) = block.split_at_mut(2 * h);
        let (q0, q1) = q01.split_at_mut(h);
        let (q2, q3) = q23.split_at_mut(h);
        for k in 0..h {
            let r = quartet::<SCALE>([q0[k], q1[k], q2[k], q3[k]], t1[k], t2lo[k], t2hi[k], f);
            (q0[k], q1[k], q2[k], q3[k]) = (r[0], r[1], r[2], r[3]);
        }
    }
}

/// Two radix-2 stages on one quartet `[a, b, c, d]` (elements `k`, `k+h`,
/// `k+2h`, `k+3h`): stage `s` butterflies `(a, b)` and `(c, d)` with
/// `w1`, then stage `s+1` butterflies `(a, c)` with `w2` and `(b, d)`
/// with `w3` — each element's exact radix-2 operations, in stage order.
/// Outputs are multiplied by `f` if `SCALE`.
#[inline(always)]
fn quartet<const SCALE: bool>(x: [C64; 4], w1: C64, w2: C64, w3: C64, f: f64) -> [C64; 4] {
    let [a, b, c, d] = x;
    let v = b * w1;
    let (a, b) = (a + v, a - v);
    let v = d * w1;
    let (c, d) = (c + v, c - v);
    let v = c * w2;
    let (a, c) = (a + v, a - v);
    let v = d * w3;
    let (b, d) = (b + v, b - v);
    if SCALE {
        [a.scale(f), b.scale(f), c.scale(f), d.scale(f)]
    } else {
        [a, b, c, d]
    }
}

/// Bluestein's algorithm: any-length DFT via a power-of-two convolution.
/// The inverse comes back normalised by `1/n`.
fn bluestein(data: &mut [C64], inverse: bool) {
    let n = data.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    // Chirp: w[j] = e^{sign·πi j²/n}. Use j² mod 2n to stay accurate.
    let chirp: Vec<C64> = (0..n)
        .map(|j| {
            let jj = (j * j) % (2 * n);
            C64::cis(sign * PI * jj as f64 / n as f64)
        })
        .collect();

    let m = (2 * n - 1).next_power_of_two();
    let mut a = vec![C64::ZERO; m];
    let mut b = vec![C64::ZERO; m];
    for j in 0..n {
        a[j] = data[j] * chirp[j];
        b[j] = chirp[j].conj();
    }
    for j in 1..n {
        b[m - j] = chirp[j].conj();
    }
    pow2_lines(&mut a, m, false);
    pow2_lines(&mut b, m, false);
    for (x, y) in a.iter_mut().zip(&b) {
        *x *= *y;
    }
    // The inverse kernel already applies the convolution's `1/m`.
    pow2_lines(&mut a, m, true);
    let scale = 1.0 / n as f64;
    for ((d, &x), &c) in data.iter_mut().zip(&a).zip(&chirp) {
        let z = x * c;
        *d = if inverse { z.scale(scale) } else { z };
    }
}

/// Reference O(n²) DFT, the oracle for property tests.
pub fn dft_naive(input: &[C64], inverse: bool) -> Vec<C64> {
    let n = input.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = vec![C64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        for (j, &x) in input.iter().enumerate() {
            let ang = sign * 2.0 * PI * (j * k % n) as f64 / n as f64;
            *o += x * C64::cis(ang);
        }
        if inverse {
            *o = o.scale(1.0 / n as f64);
        }
    }
    out
}

/// FLOPs of one complex FFT of length `n` (the standard `5 n log₂ n`).
pub fn fft_flops(n: usize) -> f64 {
    let n = n as f64;
    5.0 * n * n.log2().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let im = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                C64::new(re, im)
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
    fn round_trip_pow2_and_general() {
        for n in [1, 2, 4, 8, 64, 256, 3, 5, 12, 100, 243] {
            let orig = signal(n, n as u64);
            let mut x = orig.clone();
            fft(&mut x);
            ifft(&mut x);
            assert!(
                max_err(&x, &orig) < 1e-10,
                "n = {n}: {}",
                max_err(&x, &orig)
            );
        }
    }

    #[test]
    fn matches_naive_dft() {
        for n in [2, 4, 16, 3, 7, 24, 30] {
            let x = signal(n, 1000 + n as u64);
            let mut fast = x.clone();
            fft(&mut fast);
            let slow = dft_naive(&x, false);
            assert!(max_err(&fast, &slow) < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn delta_transforms_to_constant() {
        let mut x = vec![C64::ZERO; 32];
        x[0] = C64::ONE;
        fft(&mut x);
        for z in &x {
            assert!((*z - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 64;
        let f = 5;
        let mut x: Vec<C64> = (0..n)
            .map(|j| C64::cis(2.0 * PI * (f * j) as f64 / n as f64))
            .collect();
        fft(&mut x);
        for (k, z) in x.iter().enumerate() {
            if k == f {
                assert!((z.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        for n in [16, 48, 128] {
            let x = signal(n, 7 + n as u64);
            let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let mut freq = x.clone();
            fft(&mut freq);
            let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!(
                (time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0),
                "n = {n}"
            );
        }
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a = signal(n, 1);
        let b = signal(n, 2);
        let sum: Vec<C64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a.clone();
        fft(&mut fa);
        let mut fb = b.clone();
        fft(&mut fb);
        let mut fs = sum.clone();
        fft(&mut fs);
        let combined: Vec<C64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fs, &combined) < 1e-10);
    }

    #[test]
    fn batch_is_bitwise_per_line() {
        for n in [4usize, 64, 256, 12, 100] {
            for batch in [1usize, 2, 5, 16] {
                let orig = signal(n * batch, (n * 31 + batch) as u64);
                let mut per_line = orig.clone();
                for line in per_line.chunks_mut(n) {
                    fft(line);
                }
                let mut batched = orig.clone();
                fft_batch(&mut batched, n);
                let same = per_line.iter().zip(&batched).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
                assert!(
                    same,
                    "fft_batch differs from per-line fft at n={n} batch={batch}"
                );
                for line in per_line.chunks_mut(n) {
                    ifft(line);
                }
                ifft_batch(&mut batched, n);
                let same = per_line.iter().zip(&batched).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
                assert!(
                    same,
                    "ifft_batch differs from per-line ifft at n={n} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn flops_formula_sane() {
        assert!((fft_flops(1024) - 5.0 * 1024.0 * 10.0).abs() < 1.0);
        assert!(fft_flops(1) > 0.0);
    }

    /// The stage-by-stage radix-2 loop the kernel replaced, frozen verbatim:
    /// bit-reversal, then one pass per stage walking the half-length table
    /// `tw` at stride `n/len`, unnormalised.
    fn radix2_reference(data: &mut [C64], inverse: bool) {
        let n = data.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
            if j > i {
                data.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let tw: Vec<C64> = (0..n / 2)
            .map(|k| C64::cis(sign * 2.0 * PI * k as f64 / n as f64))
            .collect();
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for chunk in data.chunks_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for k in 0..half {
                    let u = lo[k];
                    let v = hi[k] * tw[k * stride];
                    lo[k] = u + v;
                    hi[k] = u - v;
                }
            }
            len <<= 1;
        }
    }

    /// Bluestein built on [`radix2_reference`], unnormalised.
    fn bluestein_reference(data: &mut [C64], inverse: bool) {
        let n = data.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let chirp: Vec<C64> = (0..n)
            .map(|j| C64::cis(sign * PI * ((j * j) % (2 * n)) as f64 / n as f64))
            .collect();
        let m = (2 * n - 1).next_power_of_two();
        let mut a = vec![C64::ZERO; m];
        let mut b = vec![C64::ZERO; m];
        for j in 0..n {
            a[j] = data[j] * chirp[j];
            b[j] = chirp[j].conj();
        }
        for j in 1..n {
            b[m - j] = chirp[j].conj();
        }
        radix2_reference(&mut a, false);
        radix2_reference(&mut b, false);
        for (x, y) in a.iter_mut().zip(&b) {
            *x *= *y;
        }
        radix2_reference(&mut a, true);
        let scale = 1.0 / m as f64;
        for k in 0..n {
            data[k] = a[k].scale(scale) * chirp[k];
        }
    }

    /// Reference per-line transform: dispatch, then the separate `1/n`
    /// pass for inverses.
    fn reference(line: &mut [C64], inverse: bool) {
        let n = line.len();
        if n.is_power_of_two() {
            radix2_reference(line, inverse);
        } else {
            bluestein_reference(line, inverse);
        }
        if inverse {
            for z in line.iter_mut() {
                *z = z.scale(1.0 / n as f64);
            }
        }
    }

    /// Seeded values drawn from signed zeros, subnormals and small normals,
    /// with a `±inf` at roughly one component in `inf_every`.
    fn edge_signal(len: usize, seed: u64, inf_every: u64) -> Vec<C64> {
        const POOL: [f64; 8] = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-309, 1.0, -0.75];
        let mut s = seed;
        let mut draw = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = s >> 33;
            if inf_every > 0 && r.is_multiple_of(inf_every) {
                if r & (1 << 20) == 0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            } else {
                POOL[(r >> 8) as usize % POOL.len()]
            }
        };
        (0..len).map(|_| C64::new(draw(), draw())).collect()
    }

    fn same_bits(a: &[C64], b: &[C64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    /// `fft`, `ifft`, `fft_batch` and `ifft_batch` against the frozen
    /// reference, bit for bit, on one batch of `n`-lines.
    fn assert_matches_reference(orig: &[C64], n: usize, what: &str) {
        for inverse in [false, true] {
            let mut want = orig.to_vec();
            for line in want.chunks_mut(n) {
                reference(line, inverse);
            }
            let mut per_line = orig.to_vec();
            for line in per_line.chunks_mut(n) {
                if inverse {
                    ifft(line);
                } else {
                    fft(line);
                }
            }
            let mut batched = orig.to_vec();
            if inverse {
                ifft_batch(&mut batched, n);
            } else {
                fft_batch(&mut batched, n);
            }
            let lines = orig.len() / n;
            assert!(
                same_bits(&per_line, &want),
                "per-line (inverse={inverse}) differs from the reference: n={n} lines={lines} {what}"
            );
            assert!(
                same_bits(&batched, &want),
                "batched (inverse={inverse}) differs from the reference: n={n} lines={lines} {what}"
            );
        }
    }

    #[test]
    fn kernel_is_bitwise_the_frozen_radix2_loop() {
        let lengths = (1..=12).map(|b| 1usize << b).chain([3, 12, 100, 243]);
        for n in lengths {
            for lines in 1..=9usize {
                let seed = (n * 131 + lines) as u64;
                let len = n * lines;
                assert_matches_reference(&signal(len, seed), n, "random");
                assert_matches_reference(&edge_signal(len, seed, 0), n, "zeros/subnormals");
                assert_matches_reference(&edge_signal(len, seed, 97), n, "with infinities");
            }
        }
    }
}
