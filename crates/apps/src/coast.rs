//! COAST (§3.9) — Communication-Optimized All-Pairs Shortest Path.
//!
//! COAST mines knowledge graphs (SPOKE: 50M+ biomedical concepts) by
//! solving all-pairs shortest path with a "parallel, distributed, and GPU
//! accelerated version of the Floyd-Warshall algorithm". Two porting
//! strategies from the paper are implemented:
//!
//! * a **thin abstraction layer** over the device APIs ("defines functions
//!   like set_device() ... and delegates ... depending on the compile-time
//!   configuration") — here, the `ApiSurface` dispatch of `exa-hal`;
//! * **automated software tuning** of the min-plus tile kernel ("written
//!   ... as nested loops with multiple levels of tiling, and the best set
//!   of tiling factors is discovered in the process of compiling and
//!   timing a large number of combinations").
//!
//! Reproduced numbers: 5.6 TF/V100 → 30.6 TF/MI250X kernel throughput,
//! 136 PF (Summit, GB 2020) → ~1.004 EF (Frontier, GB 2022), speed-up 7.4×.

use crate::calibration::coast as cal;
use exa_core::{Application, FigureOfMerit, FomMeasurement, Motif};
use exa_hal::{DType, KernelProfile, LaunchConfig, SimTime};
use exa_machine::{GpuArch, GpuModel, MachineModel};

/// Infinity for min-plus arithmetic.
pub const INF: f32 = f32::INFINITY;

/// Plain Floyd–Warshall, the oracle.
pub fn floyd_warshall_ref(dist: &mut [f32], n: usize) {
    assert_eq!(dist.len(), n * n);
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i * n + k];
            if dik == INF {
                continue;
            }
            for j in 0..n {
                let cand = dik + dist[k * n + j];
                if cand < dist[i * n + j] {
                    dist[i * n + j] = cand;
                }
            }
        }
    }
}

/// Blocked Floyd–Warshall with tile size `b` — the structure the GPU
/// version tiles into min-plus GEMM kernels. Produces identical results to
/// the reference.
pub fn floyd_warshall_blocked(dist: &mut [f32], n: usize, b: usize) {
    assert_eq!(dist.len(), n * n);
    assert!(b >= 1 && n.is_multiple_of(b), "tile must divide n");
    let nb = n / b;
    for kb in 0..nb {
        // Phase 1: diagonal tile.
        minplus_tile(dist, n, b, kb, kb, kb);
        // Phase 2: row and column of the diagonal.
        for other in 0..nb {
            if other != kb {
                minplus_tile(dist, n, b, kb, other, kb); // row tiles
                minplus_tile(dist, n, b, other, kb, kb); // column tiles
            }
        }
        // Phase 3: the rest.
        for ib in 0..nb {
            for jb in 0..nb {
                if ib != kb && jb != kb {
                    minplus_tile(dist, n, b, ib, jb, kb);
                }
            }
        }
    }
}

/// One min-plus "GEMM" tile update:
/// `D[ib, jb] = min(D[ib, jb], D[ib, kb] ⊗ D[kb, jb])` where `⊗` is
/// min-plus matrix product, iterated over the k-tile (in-place dependency
/// order as in the blocked algorithm).
fn minplus_tile(dist: &mut [f32], n: usize, b: usize, ib: usize, jb: usize, kb: usize) {
    let (i0, j0, k0) = (ib * b, jb * b, kb * b);
    for kk in 0..b {
        let k = k0 + kk;
        for ii in 0..b {
            let i = i0 + ii;
            let dik = dist[i * n + k];
            if dik == INF {
                continue;
            }
            for jj in 0..b {
                let j = j0 + jj;
                let cand = dik + dist[k * n + j];
                if cand < dist[i * n + j] {
                    dist[i * n + j] = cand;
                }
            }
        }
    }
}

/// A candidate tiling configuration for the device kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Tile edge held in LDS.
    pub tile: u32,
    /// Per-thread register blocking factor.
    pub thread_block: u32,
}

impl Tiling {
    /// Kernel profile of the min-plus GEMM at this tiling on an `n`-vertex
    /// block (per k-panel). `eff` is the fraction of peak the *best* tiling
    /// achieves; off-sweet-spot factors derate it (too-small tiles starve
    /// the LDS reuse, extreme register blocking stalls or spills).
    pub fn profile(&self, n: u64, eff: f64) -> KernelProfile {
        let flops = 2.0 * (n as f64) * (n as f64) * self.tile as f64;
        let lds = self.tile * self.tile * 4 * 2;
        let regs = 24 + self.thread_block * self.thread_block * 2;
        let tile_factor = match self.tile {
            16 => 0.55,
            32 => 0.80,
            64 => 1.00,
            _ => 0.92,
        };
        let tb_factor = match self.thread_block {
            1 => 0.50,
            2 => 0.78,
            4 => 1.00,
            _ => 0.88,
        };
        let eff_total = (eff * tile_factor * tb_factor).min(0.97);
        KernelProfile::new(
            "minplus_gemm",
            LaunchConfig::cover(n * n / (self.thread_block as u64).pow(2), 256),
        )
        .flops(flops, DType::F32)
        .bytes(
            (n as f64) * (n as f64) * 4.0 * 2.0 / self.tile as f64,
            (n as f64) * (n as f64) * 4.0 / 8.0,
        )
        .lds(lds)
        .regs(regs)
        .compute_eff(eff_total)
    }
}

/// The §3.9 autotuner: compile and time every combination, keep the best.
/// Returns (best tiling, achieved TFLOP/s).
pub fn autotune(gpu: &GpuModel, eff: f64) -> (Tiling, f64) {
    let n: u64 = 1 << 14;
    let mut best: Option<(Tiling, f64)> = None;
    for &tile in &[16u32, 32, 64, 128] {
        for &tb in &[1u32, 2, 4, 8] {
            let t = Tiling {
                tile,
                thread_block: tb,
            };
            let p = t.profile(n, eff);
            let time = gpu.kernel_time(&p);
            let tf = p.flops / time.secs() / 1e12;
            if best.is_none_or(|(_, b)| tf > b) {
                best = Some((t, tf));
            }
        }
    }
    best.expect("search space non-empty")
}

/// The COAST application.
#[derive(Debug, Clone)]
pub struct Coast {
    /// Graph vertices of the challenge problem (SPOKE scale).
    pub vertices: u64,
}

impl Default for Coast {
    fn default() -> Self {
        Coast {
            vertices: 50_000_000,
        }
    }
}

impl Coast {
    fn eff(arch: GpuArch) -> f64 {
        match arch {
            GpuArch::Volta => cal::SUMMIT_EFF,
            GpuArch::Vega20 => cal::FRONTIER_EFF * 0.5,
            GpuArch::Cdna1 => cal::FRONTIER_EFF * 0.7,
            GpuArch::Cdna2 => cal::FRONTIER_EFF,
        }
    }

    /// Whole-machine sustained rate in PFLOP/s for the Gordon-Bell-style
    /// APSP run (85 % machine-scale efficiency: the broadcast phases of the
    /// distributed Floyd–Warshall cost a little).
    pub fn machine_pflops(machine: &MachineModel) -> f64 {
        let gpu = machine.node.gpu();
        let (_, tf_per_gcd) = autotune(gpu, Self::eff(gpu.arch));
        tf_per_gcd * machine.total_gpus() as f64 * 0.85 / 1e3
    }
}

impl Application for Coast {
    fn name(&self) -> &'static str {
        "COAST"
    }

    fn paper_section(&self) -> &'static str {
        "3.9"
    }

    fn motifs(&self) -> Vec<Motif> {
        vec![Motif::CudaHipPorting, Motif::AlgorithmicOptimizations]
    }

    fn fom(&self) -> FigureOfMerit {
        FigureOfMerit::throughput("sustained rate", "PFLOP/s (machine)")
    }

    fn run(&self, machine: &MachineModel) -> FomMeasurement {
        let pf = Self::machine_pflops(machine);
        FomMeasurement::new(
            machine.name.clone(),
            format!("{} GPUs, autotuned min-plus kernel", machine.total_gpus()),
            pf,
            SimTime::from_secs(1.0),
        )
    }

    fn paper_speedup(&self) -> Option<f64> {
        Some(7.4)
    }

    fn profile_phases(&self) -> Vec<exa_core::Phase> {
        use exa_core::Phase;
        // §3.9 blocked Floyd-Warshall: the tuned min-plus tile kernel is
        // nearly everything; the remainder is the pivot-panel broadcast and
        // the inter-block distance exchange.
        vec![
            Phase::kernel("minplus_tile", 0.74),
            Phase::collective("pivot_panel_bcast", 0.14),
            Phase::collective("block_row_exchange", 0.12),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_graph(n: usize, seed: u64) -> Vec<f32> {
        let mut d = vec![INF; n * n];
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as u32
        };
        for i in 0..n {
            d[i * n + i] = 0.0;
        }
        // Sparse-ish random edges.
        for _ in 0..(3 * n) {
            let i = next() as usize % n;
            let j = next() as usize % n;
            let w = 1.0 + (next() % 100) as f32 / 10.0;
            if i != j && w < d[i * n + j] {
                d[i * n + j] = w;
            }
        }
        d
    }

    fn dijkstra_row(adj: &[f32], n: usize, src: usize) -> Vec<f32> {
        let mut dist = vec![INF; n];
        let mut done = vec![false; n];
        dist[src] = 0.0;
        for _ in 0..n {
            let mut u = usize::MAX;
            let mut best = INF;
            for v in 0..n {
                if !done[v] && dist[v] < best {
                    best = dist[v];
                    u = v;
                }
            }
            if u == usize::MAX {
                break;
            }
            done[u] = true;
            for v in 0..n {
                let w = adj[u * n + v];
                if w < INF && dist[u] + w < dist[v] {
                    dist[v] = dist[u] + w;
                }
            }
        }
        dist
    }

    #[test]
    fn blocked_matches_reference_for_all_tilings() {
        let n = 32;
        let adj = random_graph(n, 42);
        let mut reference = adj.clone();
        floyd_warshall_ref(&mut reference, n);
        for b in [1, 2, 4, 8, 16, 32] {
            let mut blocked = adj.clone();
            floyd_warshall_blocked(&mut blocked, n, b);
            // Path sums associate differently across tilings; compare with
            // a float tolerance rather than bitwise.
            for (x, y) in blocked.iter().zip(&reference) {
                let same = (x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-4;
                assert!(same, "tile {b} diverged: {x} vs {y}");
            }
        }
    }

    #[test]
    fn apsp_matches_dijkstra() {
        let n = 24;
        let adj = random_graph(n, 7);
        let mut fw = adj.clone();
        floyd_warshall_blocked(&mut fw, n, 8);
        for src in [0, 5, 23] {
            let dj = dijkstra_row(&adj, n, src);
            for v in 0..n {
                let a = fw[src * n + v];
                let b = dj[v];
                assert!(
                    (a == INF && b == INF) || (a - b).abs() < 1e-4,
                    "src {src} -> {v}: FW {a} vs Dijkstra {b}"
                );
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_after_apsp() {
        let n = 16;
        let mut d = random_graph(n, 3);
        floyd_warshall_blocked(&mut d, n, 4);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if d[i * n + k] < INF && d[k * n + j] < INF {
                        assert!(d[i * n + j] <= d[i * n + k] + d[k * n + j] + 1e-4);
                    }
                }
            }
        }
    }

    #[test]
    fn autotuned_kernel_rates_match_the_paper() {
        // §3.9: 5.6 TF on one V100, 30.6 TF on one MI250X (both GCDs).
        let (_, v100_tf) = autotune(&GpuModel::v100(), cal::SUMMIT_EFF);
        let (_, gcd_tf) = autotune(&GpuModel::mi250x_gcd(), cal::FRONTIER_EFF);
        let mi250x_tf = 2.0 * gcd_tf;
        assert!(
            (v100_tf - 5.6).abs() / 5.6 < 0.25,
            "V100 kernel {v100_tf} TF"
        );
        assert!(
            (mi250x_tf - 30.6).abs() / 30.6 < 0.25,
            "MI250X kernel {mi250x_tf} TF"
        );
    }

    #[test]
    fn autotuner_prefers_larger_tiles_than_the_minimum() {
        let (best, _) = autotune(&GpuModel::mi250x_gcd(), cal::FRONTIER_EFF);
        assert!(best.tile > 16, "best tiling {best:?}");
    }

    #[test]
    fn gordon_bell_runs_reproduced() {
        // 136 PF on Summit (2020); 1.004 EF on Frontier (2022).
        let summit_pf = Coast::machine_pflops(&MachineModel::summit());
        let frontier_pf = Coast::machine_pflops(&MachineModel::frontier());
        assert!(
            (summit_pf - 136.0).abs() / 136.0 < 0.3,
            "Summit {summit_pf} PF"
        );
        assert!(
            frontier_pf > 900.0,
            "Frontier must be exascale-class: {frontier_pf} PF"
        );
        let speedup = frontier_pf / summit_pf;
        assert!((speedup - 7.4).abs() / 7.4 < 0.2, "COAST speedup {speedup}");
    }
}
