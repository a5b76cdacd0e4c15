//! CoMet (§3.6) — comparative genomics via mixed-precision GEMM.
//!
//! CoMet computes similarity metrics (Custom Correlation Coefficient, CCC)
//! between all pairs of vectors in a dataset. The 2-way CCC over binary
//! (allele) data reduces to counting co-occurrence tables for every vector
//! pair — which is exactly a GEMM over indicator matrices, and therefore
//! runs on the GPUs' reduced-precision matrix units: "CoMet can calculate
//! on data using FP32, FP16, Int8 and other datatypes."
//!
//! Reproduced claims: the GEMM-dominated runtime, the precision sweep, the
//! near-perfect weak scaling to full system, the ~6.71 EF mixed-precision
//! rate on 9,074 Frontier nodes, and the Table 2 speed-up of 5.2×
//! (per MI250X card vs per V100).

use crate::calibration::comet as cal;
use exa_core::{Application, FigureOfMerit, FomMeasurement, Motif};
use exa_hal::{DType, SimTime};
use exa_linalg::gemm::gemm_i8;
use exa_machine::{GpuArch, GpuModel, MachineModel};

/// Count co-occurrence tables for all vector pairs, the real (naive) way:
/// for binary vectors `v_i`, table entry `(a,b)` of pair `(i,j)` counts
/// positions where `v_i = a` and `v_j = b`.
pub fn ccc_tables_naive(vectors: &[Vec<u8>]) -> Vec<[[u32; 2]; 2]> {
    let n = vectors.len();
    let mut out = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let mut t = [[0u32; 2]; 2];
            for (&a, &b) in vectors[i].iter().zip(&vectors[j]) {
                t[a as usize][b as usize] += 1;
            }
            out.push(t);
        }
    }
    out
}

/// The GEMM formulation: build indicator matrices `X_a[k, i] = [v_i[k]=a]`
/// and compute all four tables as `X_aᵀ · X_b` products (here with the Int8
/// GEMM — the reduced-precision path).
pub fn ccc_tables_gemm(vectors: &[Vec<u8>]) -> Vec<[[u32; 2]; 2]> {
    let n = vectors.len();
    let k = vectors[0].len();
    assert!(vectors.iter().all(|v| v.len() == k));
    // Column-major k x n indicators.
    let mut x0 = vec![0i8; k * n];
    let mut x1 = vec![0i8; k * n];
    for (i, v) in vectors.iter().enumerate() {
        for (kk, &bit) in v.iter().enumerate() {
            if bit == 0 {
                x0[kk + i * k] = 1;
            } else {
                x1[kk + i * k] = 1;
            }
        }
    }
    // Products: t[a][b][i, j] = Σ_k Xa[k,i] Xb[k,j] = (Xaᵀ Xb)[i, j].
    let xt = |x: &[i8]| -> Vec<i8> {
        // Transpose k x n (column-major) into n x k (column-major).
        let mut t = vec![0i8; k * n];
        for i in 0..n {
            for kk in 0..k {
                t[i + kk * n] = x[kk + i * k];
            }
        }
        t
    };
    let x0t = xt(&x0);
    let x1t = xt(&x1);
    let p00 = gemm_i8(n, n, k, &x0t, &x0);
    let p01 = gemm_i8(n, n, k, &x0t, &x1);
    let p10 = gemm_i8(n, n, k, &x1t, &x0);
    let p11 = gemm_i8(n, n, k, &x1t, &x1);
    let mut out = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let idx = i + j * n;
            out.push([
                [p00[idx] as u32, p01[idx] as u32],
                [p10[idx] as u32, p11[idx] as u32],
            ]);
        }
    }
    out
}

/// The CCC value from a co-occurrence table (simplified 2-way metric).
pub fn ccc_from_table(t: &[[u32; 2]; 2]) -> f64 {
    let total: u32 = t[0][0] + t[0][1] + t[1][0] + t[1][1];
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    // Excess co-occurrence over independence for the (1,1) cell.
    let p11 = t[1][1] as f64 / n;
    let p1x = (t[1][0] + t[1][1]) as f64 / n;
    let px1 = (t[0][1] + t[1][1]) as f64 / n;
    p11 - p1x * px1
}

/// Sustained metric-GEMM rate (FLOP/s) of one device at a precision.
pub fn device_rate(gpu: &GpuModel, dtype: DType, eff: f64) -> f64 {
    gpu.peak_flops(dtype, true) * eff
}

/// The CoMet application.
#[derive(Debug, Clone)]
pub struct CoMet {
    /// Vectors per GPU (weak scaling unit).
    pub vectors_per_gpu: u64,
    /// Elements (alleles/samples) per vector.
    pub vector_len: u64,
    /// Compute precision for the metric GEMM.
    pub dtype: DType,
}

impl Default for CoMet {
    fn default() -> Self {
        CoMet {
            vectors_per_gpu: 20_000,
            vector_len: 50_000,
            dtype: DType::F16,
        }
    }
}

impl CoMet {
    fn eff(arch: GpuArch) -> f64 {
        match arch {
            GpuArch::Volta => cal::SUMMIT_EFF,
            GpuArch::Vega20 => cal::FRONTIER_EFF * 0.5,
            GpuArch::Cdna1 => cal::FRONTIER_EFF * 0.75,
            GpuArch::Cdna2 => cal::FRONTIER_EFF,
        }
    }

    /// Vector-pair comparisons per second for one *card* (V100, or both
    /// GCDs of an MI250X) — Table 2's per-device basis.
    pub fn comparisons_per_second_per_card(&self, machine: &MachineModel) -> f64 {
        let gpu = machine.node.gpu();
        let gcds_per_card = if gpu.arch == GpuArch::Cdna2 { 2.0 } else { 1.0 };
        let rate = device_rate(gpu, self.dtype, Self::eff(gpu.arch)) * gcds_per_card;
        // One comparison = 2·len muladds across the 4 tables' GEMMs.
        let flops_per_cmp = 2.0 * self.vector_len as f64 * 4.0;
        rate / flops_per_cmp
    }

    /// Whole-machine sustained FLOP rate at `nodes` nodes (the weak-scaling
    /// study; §3.6 reports 6.71 EF at 9,074 nodes).
    pub fn machine_exaflops(&self, machine: &MachineModel, nodes: u32) -> f64 {
        let gpu = machine.node.gpu();
        let per_gcd = device_rate(gpu, self.dtype, Self::eff(gpu.arch));
        // Near-perfect weak scaling: the GEMM is local; only the metric
        // reduction crosses nodes. Apply a mild scaling efficiency.
        let scale_eff = 0.98;
        per_gcd * machine.node.gpus_per_node as f64 * nodes as f64 * scale_eff / 1e18
    }
}

impl Application for CoMet {
    fn name(&self) -> &'static str {
        "CoMet"
    }

    fn paper_section(&self) -> &'static str {
        "3.6"
    }

    fn motifs(&self) -> Vec<Motif> {
        vec![
            Motif::CudaHipPorting,
            Motif::LibraryTuning,
            Motif::AlgorithmicOptimizations,
        ]
    }

    fn fom(&self) -> FigureOfMerit {
        FigureOfMerit::throughput("comparisons", "vector-pair comparisons/s/card")
    }

    fn run(&self, machine: &MachineModel) -> FomMeasurement {
        let fom = self.comparisons_per_second_per_card(machine);
        FomMeasurement::new(
            machine.name.clone(),
            format!("{:?} metric GEMM, per card", self.dtype),
            fom,
            SimTime::from_secs(self.vectors_per_gpu as f64 * self.vectors_per_gpu as f64 / fom),
        )
    }

    fn paper_speedup(&self) -> Option<f64> {
        Some(5.2)
    }

    fn profile_phases(&self) -> Vec<exa_core::Phase> {
        use exa_core::Phase;
        // §3.6: CCC is GEMM-dominated by construction; the rest is the
        // 2x2-table metrics reduction, vector staging, and the all-pairs
        // vector broadcast.
        vec![
            Phase::kernel("ccc_gemm", 0.68),
            Phase::kernel("metrics_reduce", 0.14),
            Phase::new("vector_staging", 0.06),
            Phase::collective("vector_allgather", 0.12),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_vectors() -> Vec<Vec<u8>> {
        (0..6u64)
            .map(|i| {
                (0..40u64)
                    .map(|k| (((i + 1) * (k + 3) * 2654435761) >> 7 & 1) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn gemm_formulation_matches_naive_counting() {
        let vs = test_vectors();
        let naive = ccc_tables_naive(&vs);
        let gemm = ccc_tables_gemm(&vs);
        assert_eq!(naive, gemm, "the GEMM *is* the counting");
    }

    #[test]
    fn tables_are_complete_and_symmetric() {
        let vs = test_vectors();
        let n = vs.len();
        let len = vs[0].len() as u32;
        let tables = ccc_tables_naive(&vs);
        for i in 0..n {
            for j in 0..n {
                let t = &tables[i * n + j];
                assert_eq!(t[0][0] + t[0][1] + t[1][0] + t[1][1], len);
                let tt = &tables[j * n + i];
                assert_eq!(t[0][1], tt[1][0], "transpose symmetry");
            }
        }
    }

    #[test]
    fn ccc_detects_correlation() {
        let a = vec![1u8, 1, 1, 1, 0, 0, 0, 0];
        let b = a.clone(); // perfectly correlated
        let c: Vec<u8> = a.iter().map(|&x| 1 - x).collect(); // anti-correlated
        let t_ab = ccc_tables_naive(&[a.clone(), b])[1];
        let t_ac = ccc_tables_naive(&[a, c])[1];
        assert!(ccc_from_table(&t_ab) > 0.2);
        assert!(ccc_from_table(&t_ac) < -0.2);
    }

    #[test]
    fn reduced_precision_increases_throughput() {
        let m = MachineModel::frontier();
        let mk = |dtype| CoMet {
            dtype,
            ..CoMet::default()
        };
        let f64_rate = mk(DType::F64).comparisons_per_second_per_card(&m);
        let f32_rate = mk(DType::F32).comparisons_per_second_per_card(&m);
        let f16_rate = mk(DType::F16).comparisons_per_second_per_card(&m);
        let i8_rate = mk(DType::I8).comparisons_per_second_per_card(&m);
        assert!(f32_rate >= f64_rate);
        assert!(f16_rate > f32_rate * 2.0, "FP16 MFMA should be ~4x FP32");
        assert!(i8_rate >= f16_rate);
    }

    #[test]
    fn frontier_run_exceeds_six_exaflops() {
        // §3.6: "over 6.71 exaflops ... on 9,074 compute nodes".
        let app = CoMet::default();
        let ef = app.machine_exaflops(&MachineModel::frontier(), 9_074);
        assert!(ef > 6.0 && ef < 9.0, "mixed-precision rate {ef} EF");
    }

    #[test]
    fn weak_scaling_is_near_perfect() {
        let app = CoMet::default();
        let m = MachineModel::frontier();
        let e1 = app.machine_exaflops(&m, 1_000);
        let e9 = app.machine_exaflops(&m, 9_000);
        let eff = e9 / (9.0 * e1);
        assert!(eff > 0.95, "weak-scaling efficiency {eff}");
    }

    #[test]
    fn table2_speedup_near_5_2x() {
        let app = CoMet::default();
        let s = app.measure_speedup();
        let paper = app.paper_speedup().unwrap();
        assert!(
            (s - paper).abs() / paper < 0.15,
            "CoMet speedup {s} vs paper {paper}"
        );
    }
}

// ---------------------------------------------------------------------------
// 3-way CCC — CoMet's higher-order metric (the "2-way and 3-way methods"
// of the CoMet papers; §3.6's mixed-precision GEMM pipeline feeds both).
// ---------------------------------------------------------------------------

/// Count the 2×2×2 co-occurrence table for one vector triple.
pub fn ccc3_table(a: &[u8], b: &[u8], c: &[u8]) -> [[[u32; 2]; 2]; 2] {
    assert!(a.len() == b.len() && b.len() == c.len());
    let mut t = [[[0u32; 2]; 2]; 2];
    for k in 0..a.len() {
        t[a[k] as usize][b[k] as usize][c[k] as usize] += 1;
    }
    t
}

/// The 3-way CCC value: excess joint occurrence of (1,1,1) over the
/// independence prediction.
pub fn ccc3_from_table(t: &[[[u32; 2]; 2]; 2]) -> f64 {
    let total: u32 = t.iter().flatten().flatten().sum();
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    let p111 = t[1][1][1] as f64 / n;
    let pa: f64 = (t[1].iter().flatten().sum::<u32>()) as f64 / n;
    let pb: f64 = (t[0][1].iter().sum::<u32>() + t[1][1].iter().sum::<u32>()) as f64 / n;
    let pc: f64 = t.iter().flatten().map(|row| row[1]).sum::<u32>() as f64 / n;
    p111 - pa * pb * pc
}

/// All-triples 3-way scan over a small cohort, returning the best triple
/// (the "identify clusters of items" use case of §3.6).
pub fn best_triple(vectors: &[Vec<u8>]) -> ((usize, usize, usize), f64) {
    let n = vectors.len();
    let mut best = ((0, 0, 0), f64::NEG_INFINITY);
    for i in 0..n {
        for j in i + 1..n {
            for k in j + 1..n {
                let v = ccc3_from_table(&ccc3_table(&vectors[i], &vectors[j], &vectors[k]));
                if v > best.1 {
                    best = ((i, j, k), v);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod ccc3_tests {
    use super::*;

    #[test]
    fn table_counts_are_complete() {
        let a = vec![0u8, 1, 0, 1, 1, 0];
        let b = vec![1u8, 1, 0, 0, 1, 0];
        let c = vec![0u8, 1, 1, 0, 1, 0];
        let t = ccc3_table(&a, &b, &c);
        let total: u32 = t.iter().flatten().flatten().sum();
        assert_eq!(total, 6);
        assert_eq!(t[1][1][1], 2); // positions 1 and 4
        assert_eq!(t[0][0][0], 1); // only position 5
        assert_eq!(t[0][0][1], 1); // position 2
    }

    #[test]
    fn independent_vectors_score_near_zero() {
        // Deterministic pseudo-random independent bits.
        let gen = |salt: u64| -> Vec<u8> {
            (0..4096u64)
                .map(|k| (((k + 1).wrapping_mul(salt) >> 17) & 1) as u8)
                .collect()
        };
        let (a, b, c) = (
            gen(2654435761),
            gen(0x9E3779B97F4A7C15),
            gen(0xD1B54A32D192ED03),
        );
        let v = ccc3_from_table(&ccc3_table(&a, &b, &c));
        assert!(v.abs() < 0.05, "independent triple should score ~0: {v}");
    }

    #[test]
    fn planted_triple_is_found() {
        let gen = |salt: u64| -> Vec<u8> {
            (0..512u64)
                .map(|k| (((k + 1).wrapping_mul(salt) >> 13) & 1) as u8)
                .collect()
        };
        let mut cohort: Vec<Vec<u8>> = (0..6).map(|i| gen(1 + 2 * i as u64 * 2654435761)).collect();
        // Plant a strongly co-occurring triple at indices 1, 3, 4.
        let signal = gen(777);
        for idx in [1usize, 3, 4] {
            for (pos, bit) in cohort[idx].iter_mut().enumerate() {
                if signal[pos] == 1 {
                    *bit = 1;
                }
            }
        }
        let ((i, j, k), score) = best_triple(&cohort);
        assert_eq!(
            (i, j, k),
            (1, 3, 4),
            "planted triple must win (score {score})"
        );
        assert!(score > 0.05);
    }
}
