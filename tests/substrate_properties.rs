//! Property-based tests (proptest) on the substrate invariants that every
//! mini-app relies on: FFT unitarity, LU correctness, GEMM linearity,
//! min-plus APSP optimality, pool-allocator soundness, hipify idempotence,
//! communicator conservation, and monotone virtual time.

use exaready::fft::{dft_naive, fft, ifft, C64};
use exaready::hal::pool::PoolBlock;
use exaready::hal::{hipify_source, ApiSurface, Device, PoolAllocator, Stream};
use exaready::linalg::gemm::matmul;
use exaready::linalg::lu::getrf;
use exaready::linalg::Matrix;
use exaready::machine::{GpuModel, MachineModel, SimTime};
use exaready::mpi::{Comm, Network};
use proptest::prelude::*;

fn complex_vec(max_len: usize) -> impl Strategy<Value = Vec<C64>> {
    prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(re, im)| C64::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ifft(fft(x)) == x for arbitrary lengths (radix-2 and Bluestein).
    #[test]
    fn fft_round_trips(x in complex_vec(200)) {
        let mut y = x.clone();
        fft(&mut y);
        ifft(&mut y);
        let scale = x.iter().map(|z| z.abs()).fold(1.0, f64::max);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-9 * scale);
        }
    }

    /// Parseval: energy is conserved (up to the 1/n convention).
    #[test]
    fn fft_conserves_energy(x in complex_vec(128)) {
        let n = x.len() as f64;
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x;
        fft(&mut y);
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
        prop_assert!((time_energy - freq_energy).abs() < 1e-7 * time_energy.max(1.0));
    }

    /// The fast FFT matches the O(n²) DFT.
    #[test]
    fn fft_matches_naive(x in complex_vec(64)) {
        let mut fast = x.clone();
        fft(&mut fast);
        let slow = dft_naive(&x, false);
        let scale = x.iter().map(|z| z.abs()).fold(1.0, f64::max) * x.len() as f64;
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-9 * scale);
        }
    }

    /// LU factorisation solves A x = b for random diagonally-bumped A.
    #[test]
    fn lu_solves_linear_systems(n in 1usize..24, seed in 0u64..1000) {
        let mut a = Matrix::<f64>::seeded_random(n, n, seed);
        for i in 0..n {
            a[(i, i)] += n as f64 + 1.0;
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - n as f64 / 2.0).collect();
        let b = a.matmul_ref(&Matrix::from_fn(n, 1, |i, _| x_true[i]));
        let b = b.as_slice();
        let f = getrf(&a).expect("diagonally dominant");
        let x = f.solve_vec(b);
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-7);
        }
        // And P⁻¹LU reconstructs A.
        prop_assert!(f.reconstruct().max_abs_diff(&a) < 1e-8);
    }

    /// GEMM is bilinear: (αA)(B) == α(AB).
    #[test]
    fn gemm_is_homogeneous(n in 1usize..16, alpha in -4.0f64..4.0, seed in 0u64..500) {
        let a = Matrix::<f64>::seeded_random(n, n, seed);
        let b = Matrix::<f64>::seeded_random(n, n, seed + 1);
        let scaled_a = Matrix::from_fn(n, n, |i, j| alpha * a[(i, j)]);
        let left = matmul(&scaled_a, &b);
        let ab = matmul(&a, &b);
        let right = Matrix::from_fn(n, n, |i, j| alpha * ab[(i, j)]);
        prop_assert!(left.max_abs_diff(&right) < 1e-9 * (1.0 + alpha.abs()) * n as f64);
    }

    /// The pool allocator never hands out overlapping blocks and always
    /// restores the full arena after mixed alloc/free sequences.
    #[test]
    fn pool_allocator_is_sound(ops in prop::collection::vec((0u8..2, 1u64..100_000), 1..60)) {
        let device = Device::new(GpuModel::mi250x_gcd(), 0);
        let mut stream = Stream::new(device.clone(), ApiSurface::Hip).unwrap();
        let mut pool = PoolAllocator::new(device, 1 << 24, &mut stream).unwrap();
        let mut live: Vec<PoolBlock> = Vec::new();
        for (op, size) in ops {
            if op == 0 || live.is_empty() {
                if let Ok(block) = pool.alloc(&mut stream, size) {
                    // No overlap with any live block.
                    for other in &live {
                        let disjoint = block.offset + block.size <= other.offset
                            || other.offset + other.size <= block.offset;
                        prop_assert!(disjoint, "overlap: {block:?} vs {other:?}");
                    }
                    live.push(block);
                }
            } else {
                let idx = (size as usize) % live.len();
                let block = live.swap_remove(idx);
                prop_assert!(pool.free(&mut stream, block).is_ok());
            }
            prop_assert!(pool.check_invariants());
        }
        for block in live {
            pool.free(&mut stream, block).unwrap();
        }
        prop_assert_eq!(pool.largest_free(), 1 << 24);
    }

    /// hipify is idempotent: converting converted source changes nothing.
    #[test]
    fn hipify_idempotent(calls in prop::collection::vec(0usize..6, 1..10)) {
        let templates = [
            "cudaMalloc(&p, n);",
            "cudaMemcpyAsync(d, h, n, cudaMemcpyHostToDevice, s);",
            "kernel<<<g, b>>>(p, n);",
            "cublasDgemm(h, a, b, c);",
            "cudaStreamSynchronize(s);",
            "int x = 1; // plain line",
        ];
        let src: String =
            calls.iter().map(|&i| templates[i]).collect::<Vec<_>>().join("\n");
        let once = hipify_source(&src);
        let twice = hipify_source(&once.output);
        prop_assert_eq!(&once.output, &twice.output);
        prop_assert_eq!(twice.manual_fix_lines(), 0);
    }

    /// Virtual clocks never go backwards under any operation sequence.
    #[test]
    fn comm_time_is_monotone(ops in prop::collection::vec(0u8..5, 1..40)) {
        let mut comm = Comm::new(4, Network::from_machine(&MachineModel::summit()));
        let mut last = SimTime::ZERO;
        for op in ops {
            match op {
                0 => { comm.allreduce(1 << 12); }
                1 => { comm.bcast(1 << 10); }
                2 => { comm.ialltoallv(4, 3, 3 * 256).wait(&mut comm); }
                3 => { comm.advance(1, SimTime::from_micros(5.0)); }
                _ => { comm.alltoallv(4, 3, 3 * 256); }
            }
            let now = comm.elapsed();
            prop_assert!(now >= last, "time went backwards: {now} < {last}");
            last = now;
        }
    }

    /// Kernel cost model sanity: more flops never takes less time.
    #[test]
    fn kernel_time_is_monotone_in_flops(base in 1.0e6f64..1.0e12, factor in 1.0f64..100.0) {
        use exaready::machine::{DType, KernelProfile, LaunchConfig};
        let gpu = GpuModel::mi250x_gcd();
        let small = KernelProfile::new("k", LaunchConfig::new(4096, 256)).flops(base, DType::F64);
        let large =
            KernelProfile::new("k", LaunchConfig::new(4096, 256)).flops(base * factor, DType::F64);
        prop_assert!(gpu.kernel_time(&large) >= gpu.kernel_time(&small));
    }
}

// ---------------------------------------------------------------------------
// Second wave of properties: block inversion, APSP, and stiff chemistry.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Block inversion extracts the same block as full LU for any valid
    /// (n, b) pair.
    #[test]
    fn block_inversion_matches_lu(blocks in 1usize..6, b in 1usize..6, seed in 0u64..200) {
        use exaready::linalg::block_inv::{block_lu_inverse_block, lu_inverse_block};
        let n = blocks * b;
        let mut a = Matrix::<f64>::seeded_random(n, n, seed);
        for i in 0..n {
            a[(i, i)] += n as f64 + 2.0;
        }
        let via_block = block_lu_inverse_block(&a, b).expect("nonsingular");
        let via_lu = lu_inverse_block(&a, b).expect("nonsingular");
        prop_assert!(via_block.max_abs_diff(&via_lu) < 1e-7);
    }

    /// Blocked Floyd–Warshall satisfies the triangle inequality and agrees
    /// with the unblocked reference for random graphs and any valid tile.
    #[test]
    fn apsp_optimality(seed in 0u64..200, tile_pow in 0u32..4) {
        use exaready::apps::coast::{floyd_warshall_blocked, floyd_warshall_ref, INF};
        let n = 16;
        let tile = 1usize << tile_pow; // 1, 2, 4, 8 — all divide 16
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u32
        };
        let mut d = vec![INF; n * n];
        for i in 0..n {
            d[i * n + i] = 0.0;
        }
        for _ in 0..40 {
            let i = next() as usize % n;
            let j = next() as usize % n;
            if i != j {
                d[i * n + j] = 1.0 + (next() % 50) as f32 / 10.0;
            }
        }
        let mut blocked = d.clone();
        floyd_warshall_blocked(&mut blocked, n, tile);
        let mut reference = d;
        floyd_warshall_ref(&mut reference, n);
        for (a, b) in blocked.iter().zip(&reference) {
            prop_assert!((a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
        }
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if blocked[i * n + k].is_finite() && blocked[k * n + j].is_finite() {
                        prop_assert!(
                            blocked[i * n + j] <= blocked[i * n + k] + blocked[k * n + j] + 1e-3
                        );
                    }
                }
            }
        }
    }

    /// BDF1 chemistry conserves species mass and stays in bounds for any
    /// initial condition and step size.
    #[test]
    fn chemistry_invariants(
        ya in 0.0f64..1.0,
        yb_frac in 0.0f64..1.0,
        t0 in 0.2f64..2.5,
        dt in 1e-6f64..5e-3,
    ) {
        use exaready::apps::pele::{bdf1_step, ChemLinearSolver};
        let yb = (1.0 - ya) * yb_frac;
        let yc = 1.0 - ya - yb;
        let mech = exaready::apps::pele::Mechanism::ignition();
        let u0 = [ya, yb, yc, t0];
        let (u, _) = bdf1_step(&mech, &u0, dt, ChemLinearSolver::BatchedLu);
        let mass = u[0] + u[1] + u[2];
        prop_assert!((mass - 1.0).abs() < 1e-8, "mass {mass}");
        prop_assert!(u[3] >= t0 - 1e-9, "temperature cannot drop: {} -> {}", t0, u[3]);
        prop_assert!(u.iter().all(|x| x.is_finite()));
        // Product never decreases.
        prop_assert!(u[2] >= yc - 1e-9);
    }

    /// hipify converts any mix of kernel-launch shapes without losing the
    /// argument list.
    #[test]
    fn hipify_preserves_launch_arguments(
        grid in 1u32..1024,
        block in 1u32..1024,
        nargs in 1usize..6,
    ) {
        let args: Vec<String> = (0..nargs).map(|i| format!("arg{i}")).collect();
        let src = format!("k<<<{grid}, {block}>>>({});", args.join(", "));
        let out = hipify_source(&src).output;
        let want_grid = format!("dim3({grid})");
        let want_block = format!("dim3({block})");
        prop_assert!(out.contains(&want_grid));
        prop_assert!(out.contains(&want_block));
        for a in &args {
            prop_assert!(out.contains(a.as_str()), "lost {a} in {out}");
        }
    }
}
