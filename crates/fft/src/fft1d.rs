//! One-dimensional complex FFTs.
//!
//! Powers of two run one Cooley–Tukey kernel over any number of whole
//! lines; other lengths fall back to Bluestein's chirp-z algorithm, whose
//! three inner power-of-two transforms run on that same kernel.
//!
//! The kernel transforms `L` lines at once in structure-of-arrays form:
//! point `i` of the `L` lines is one `Lanes` value, `re: [f64; L]` and
//! `im: [f64; L]`, held in a per-thread scratch. It runs the radix-2
//! stages two at a time (radix-2² sweeps: stage `s`'s two butterflies,
//! then stage `s+1`'s two, on each quartet of points), closing with a
//! radix-2 sweep when `log₂ n` is odd. The first sweep reads its quartets
//! from the lines in bit-reversed order, so there is no separate swap
//! pass, and the closing sweep writes the lines back, scaled by `1/n` for
//! an inverse. Twiddles come from a per-thread cached `Plan` for
//! `(n, inverse)`.
//!
//! Every lane does exactly the floating-point operations, operands and
//! order of the textbook stage-by-stage radix-2 loop (plain `*`, `+`, `-`,
//! which LLVM never contracts into FMAs) — only independent operations are
//! reordered — so results are bitwise equal to it, signed zeros and
//! non-finite values included, whatever `L` and whatever instruction set.
//!
//! Batches run groups of four lines through `L = 4`, and leftover lines
//! (and so per-line calls and Bluestein's inner transforms) through
//! `L = 1`. The `L = 4` body is one generic function compiled twice:
//! portable, and inside an AVX2 `target_feature` wrapper that x86-64
//! hosts with AVX2 select at run time ([`LineIsa::host`]), where each
//! lane array becomes one 256-bit vector.

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
/// only sets how many lines the kernel runs side by side).
pub fn fft_batch(lines: &mut [C64], n: usize) {
    transform(lines, n, false);
}

/// Inverse counterpart of [`fft_batch`], bit-identical to per-line [`ifft`].
pub fn ifft_batch(lines: &mut [C64], n: usize) {
    transform(lines, n, true);
}

/// Dispatch on length, on the host's kernel instantiation. Inverse
/// transforms come back normalised by `1/n`.
fn transform(lines: &mut [C64], n: usize, inverse: bool) {
    transform_on(LineIsa::host(), lines, n, inverse);
}

/// [`transform`] on the `isa` instantiation of the four-lane kernel.
fn transform_on(isa: LineIsa, lines: &mut [C64], n: usize, inverse: bool) {
    assert_eq!(lines.len() % n.max(1), 0, "batch must hold whole lines");
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        pow2_lines(isa, lines, n, inverse);
    } else {
        for line in lines.chunks_exact_mut(n) {
            bluestein(isa, line, inverse);
        }
    }
}

/// The instruction set the four-line kernel instantiation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineIsa {
    /// The generic body as the target's baseline compiles it.
    Portable,
    /// The same body compiled with AVX2 enabled (x86-64 only).
    Avx2,
}

impl LineIsa {
    /// The instantiation this host runs: AVX2 where the CPU reports it.
    pub fn host() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return LineIsa::Avx2;
        }
        LineIsa::Portable
    }

    /// Lower-case name, as recorded in benchmark artifacts.
    pub fn name(self) -> &'static str {
        match self {
            LineIsa::Portable => "portable",
            LineIsa::Avx2 => "avx2",
        }
    }
}

/// Everything a power-of-two transform reads besides its data; a pure
/// function of `(n, inverse)`.
struct Plan {
    /// Bit-reversal permutation: point `i` of the transform is input
    /// point `rev[i]`.
    rev: Vec<usize>,
    /// `stage_tw[s][k] = tw[k·n/2^{s+1}]` for `k < 2^s`, where
    /// `tw[k] = e^{sign·2πi k/n}` is the half-length table: the strided
    /// walk stage `s` makes over `tw`, stored contiguously.
    stage_tw: Vec<Vec<C64>>,
}

impl Plan {
    fn new(n: usize, inverse: bool) -> Self {
        let bits = n.trailing_zeros();
        let rev = (0..n)
            .map(|i| (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1))
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
        Plan { rev, stage_tw }
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

/// Point `i` of `L` lines side by side.
#[derive(Debug, Clone, Copy)]
struct Lanes<const L: usize> {
    re: [f64; L],
    im: [f64; L],
}

impl<const L: usize> Lanes<L> {
    const ZERO: Self = Lanes {
        re: [0.0; L],
        im: [0.0; L],
    };

    /// Lane `l`, times `f` if `SCALE`.
    #[inline(always)]
    fn lane<const SCALE: bool>(&self, l: usize, f: f64) -> C64 {
        if SCALE {
            C64::new(self.re[l] * f, self.im[l] * f)
        } else {
            C64::new(self.re[l], self.im[l])
        }
    }
}

thread_local! {
    /// Per-thread working storage of the kernel, one per lane width; grows
    /// to the longest line seen and is reused by every later call.
    static SCRATCH1: RefCell<Vec<Lanes<1>>> = const { RefCell::new(Vec::new()) };
    static SCRATCH4: RefCell<Vec<Lanes<4>>> = const { RefCell::new(Vec::new()) };
}

/// The first `n` points of a thread's scratch, grown if needed.
fn with_scratch<const L: usize, R>(
    key: &'static std::thread::LocalKey<RefCell<Vec<Lanes<L>>>>,
    n: usize,
    f: impl FnOnce(&mut [Lanes<L>]) -> R,
) -> R {
    key.with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < n {
            s.resize(n, Lanes::ZERO);
        }
        f(&mut s[..n])
    })
}

/// The power-of-two kernel: transforms every length-`n` line of `lines`
/// in place (`n ≥ 2` a power of two), whole groups of four lines on the
/// `isa` instantiation of the four-lane body, the rest one lane at a time.
/// Inverse lines come back scaled by `1/n`.
fn pow2_lines(isa: LineIsa, lines: &mut [C64], n: usize, inverse: bool) {
    let plan = Plan::cached(n, inverse);
    if inverse {
        pow2_lines_scaled::<true>(isa, lines, &plan, 1.0 / n as f64);
    } else {
        pow2_lines_scaled::<false>(isa, lines, &plan, 1.0);
    }
}

/// [`pow2_lines`] with outputs times `f` if `SCALE`. The flag is a const
/// so the forward instantiation has no multiply at all: from a run-time
/// `Option<f64>`, LLVM multiplied by the `None` payload and selected, which
/// made per-line transforms up to 4× slower.
fn pow2_lines_scaled<const SCALE: bool>(isa: LineIsa, lines: &mut [C64], plan: &Plan, f: f64) {
    let n = plan.rev.len();
    debug_assert!(n >= 2 && n.is_power_of_two() && lines.len().is_multiple_of(n));
    let (quads, rest) = lines.split_at_mut(lines.len() & !(4 * n - 1));
    if !quads.is_empty() {
        with_scratch(&SCRATCH4, n, |buf| match isa {
            #[cfg(target_arch = "x86_64")]
            LineIsa::Avx2 => {
                assert!(
                    std::arch::is_x86_feature_detected!("avx2"),
                    "AVX2 line kernel on a CPU without AVX2"
                );
                // SAFETY: `lanes_avx2`'s only requirement is that the CPU
                // supports AVX2, which the assertion above just checked.
                unsafe { lanes_avx2::<SCALE>(quads, plan, buf, f) }
            }
            _ => lanes::<4, SCALE>(quads, plan, buf, f),
        });
    }
    if !rest.is_empty() {
        with_scratch(&SCRATCH1, n, |buf| lanes::<1, SCALE>(rest, plan, buf, f));
    }
}

/// The four-lane body compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lanes_avx2<const SCALE: bool>(lines: &mut [C64], plan: &Plan, buf: &mut [Lanes<4>], f: f64) {
    lanes::<4, SCALE>(lines, plan, buf, f);
}

/// The kernel body: transforms `lines` (a whole number of groups of `L`
/// length-`n` lines, `n = buf.len()`) group by group through `buf`,
/// outputs times `f` if `SCALE` — the same multiply on the same value as
/// a separate pass. The first sweep reads the lines and the last one
/// writes them, so each point is loaded and stored once.
#[inline(always)]
fn lanes<const L: usize, const SCALE: bool>(
    lines: &mut [C64],
    plan: &Plan,
    buf: &mut [Lanes<L>],
    f: f64,
) {
    let n = buf.len();
    let stages = plan.stage_tw.as_slice();
    // Stages `..last` run as radix-2² sweeps in `buf`, the first of them
    // reading the lines (lines of two or four points are just gathered);
    // the one or two stages from `last` on make the closing sweep, one
    // block over the whole line, which writes the lines back.
    let last = (stages.len() - 1) & !1;
    for group in lines.chunks_exact_mut(L * n) {
        let mut rows = group.chunks_exact_mut(n);
        let mut rows: [&mut [C64]; L] = std::array::from_fn(|_| rows.next().expect("L lines"));
        let point = |j: usize| {
            let mut p = Lanes::ZERO;
            for (l, row) in rows.iter().enumerate() {
                (p.re[l], p.im[l]) = (row[j].re, row[j].im);
            }
            p
        };
        if last == 0 {
            for (p, &j) in buf.iter_mut().zip(&plan.rev) {
                *p = point(j);
            }
        } else {
            // The first sweep (h = 1) reads its quartets straight from the
            // lines: bit-reversed quartet `rev[j]..rev[j] + 4` is input
            // points `j, j + n/2, j + n/4, j + 3n/4` (`j < n/4`), so walking
            // `j` upwards reads four sequential streams per line.
            let (w1, w2, w3) = (stages[0][0], stages[1][0], stages[1][1]);
            let q = n / 4;
            let (quads, _) = buf.as_chunks_mut::<4>();
            for (j, &r) in plan.rev[..q].iter().enumerate() {
                let x = [point(j), point(j + 2 * q), point(j + q), point(j + 3 * q)];
                quads[r / 4] = quartet(x, w1, w2, w3);
            }
        }
        for pair in stages[2.min(last)..last].chunks_exact(2) {
            radix4_sweep(buf, &pair[0], &pair[1]);
        }
        let mut put = |i: usize, p: Lanes<L>| {
            for (l, row) in rows.iter_mut().enumerate() {
                row[i] = p.lane::<SCALE>(l, f);
            }
        };
        match &stages[last..] {
            [t] => {
                let (lo, hi) = buf.split_at(t.len());
                for (k, ((&a, &b), &w)) in lo.iter().zip(hi).zip(t).enumerate() {
                    let (mut a, mut b) = (a, b);
                    butterfly(&mut a, &mut b, w);
                    put(k, a);
                    put(k + t.len(), b);
                }
            }
            [t1, t2] => {
                let h = t1.len();
                for k in 0..h {
                    let x = [buf[k], buf[k + h], buf[k + 2 * h], buf[k + 3 * h]];
                    let [a, b, c, d] = quartet(x, t1[k], t2[k], t2[k + h]);
                    put(k, a);
                    put(k + h, b);
                    put(k + 2 * h, c);
                    put(k + 3 * h, d);
                }
            }
            _ => unreachable!("the closing sweep covers one or two stages"),
        }
    }
}

/// Radix-2 stages `s` and `s+1` in one pass (`h = t1.len() = 2^s`,
/// `t2.len() = 2h`): per `4h` block and `k < h`, the quartet
/// `k, k+h, k+2h, k+3h` goes through [`quartet`] with twiddles `t1[k]`,
/// `t2[k]`, `t2[k+h]`.
#[inline(always)]
fn radix4_sweep<const L: usize>(buf: &mut [Lanes<L>], t1: &[C64], t2: &[C64]) {
    let h = t1.len();
    let (t2lo, t2hi) = t2.split_at(h);
    for block in buf.chunks_exact_mut(4 * h) {
        let (q01, q23) = block.split_at_mut(2 * h);
        let (q0, q1) = q01.split_at_mut(h);
        let (q2, q3) = q23.split_at_mut(h);
        for k in 0..h {
            let r = quartet([q0[k], q1[k], q2[k], q3[k]], t1[k], t2lo[k], t2hi[k]);
            (q0[k], q1[k], q2[k], q3[k]) = (r[0], r[1], r[2], r[3]);
        }
    }
}

/// Two radix-2 stages on one quartet `[a, b, c, d]` (points `k`, `k+h`,
/// `k+2h`, `k+3h`): stage `s` butterflies `(a, b)` and `(c, d)` with
/// `w1`, then stage `s+1` butterflies `(a, c)` with `w2` and `(b, d)`
/// with `w3` — each point's exact radix-2 operations, in stage order.
#[inline(always)]
fn quartet<const L: usize>(x: [Lanes<L>; 4], w1: C64, w2: C64, w3: C64) -> [Lanes<L>; 4] {
    let [mut a, mut b, mut c, mut d] = x;
    butterfly(&mut a, &mut b, w1);
    butterfly(&mut c, &mut d, w1);
    butterfly(&mut a, &mut c, w2);
    butterfly(&mut b, &mut d, w3);
    [a, b, c, d]
}

/// The radix-2 butterfly on every lane: `v = b·w`, `a ← a + v`,
/// `b ← a − v`, with [`C64`]'s multiply, add and subtract, operand for
/// operand.
#[inline(always)]
fn butterfly<const L: usize>(a: &mut Lanes<L>, b: &mut Lanes<L>, w: C64) {
    for l in 0..L {
        let vr = b.re[l] * w.re - b.im[l] * w.im;
        let vi = b.re[l] * w.im + b.im[l] * w.re;
        let (ar, ai) = (a.re[l], a.im[l]);
        (a.re[l], a.im[l]) = (ar + vr, ai + vi);
        (b.re[l], b.im[l]) = (ar - vr, ai - vi);
    }
}

/// Bluestein's algorithm: any-length DFT via a power-of-two convolution.
/// The inverse comes back normalised by `1/n`.
fn bluestein(isa: LineIsa, data: &mut [C64], inverse: bool) {
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
    pow2_lines(isa, &mut a, m, false);
    pow2_lines(isa, &mut b, m, false);
    for (x, y) in a.iter_mut().zip(&b) {
        *x *= *y;
    }
    // The inverse kernel already applies the convolution's `1/m`.
    pow2_lines(isa, &mut a, m, true);
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

    /// Every kernel instantiation this host can run: the portable one
    /// always, AVX2 where the CPU has it.
    fn isas() -> Vec<LineIsa> {
        let mut isas = vec![LineIsa::Portable];
        if LineIsa::host() != LineIsa::Portable {
            isas.push(LineIsa::host());
        }
        isas
    }

    /// `fft`, `ifft`, `fft_batch`, `ifft_batch` and the batch on every
    /// instantiation in [`isas`] against the frozen reference, bit for bit,
    /// on one batch of `n`-lines.
    fn assert_matches_reference(orig: &[C64], n: usize, what: &str) {
        let lines = orig.len() / n;
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
            assert!(
                same_bits(&per_line, &want),
                "per-line (inverse={inverse}) differs from the reference: n={n} lines={lines} {what}"
            );
            let mut batched = orig.to_vec();
            if inverse {
                ifft_batch(&mut batched, n);
            } else {
                fft_batch(&mut batched, n);
            }
            assert!(
                same_bits(&batched, &want),
                "batched (inverse={inverse}) differs from the reference: n={n} lines={lines} {what}"
            );
            for isa in isas() {
                let mut got = orig.to_vec();
                transform_on(isa, &mut got, n, inverse);
                assert!(
                    same_bits(&got, &want),
                    "{isa:?} batch (inverse={inverse}) differs from the reference: \
                     n={n} lines={lines} {what}"
                );
            }
        }
    }

    /// Lengths 2¹…2¹² and four Bluestein lengths, 1–9 lines (so whole
    /// four-line groups, remainders and both), random, signed-zero /
    /// subnormal and infinite inputs, on every instantiation.
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
