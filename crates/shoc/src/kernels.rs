//! The sixteen SHOC benchmark programs.
//!
//! Each program allocates device buffers, moves data, launches kernels that
//! do the real computation, and verifies the result against a host oracle —
//! exactly the structure of the original SHOC level-0/level-1 programs. The
//! kernel profiles (FLOPs, bytes, registers, divergence) reflect each
//! program's documented character: Triad/DeviceMemory are bandwidth-bound,
//! MaxFlops/GEMM/S3D compute-bound, KernelLaunch measures queue delay, and
//! MD/SpMV carry irregular access and divergence.

use crate::result::{finish, BenchResult, Scale, ShocBenchmark};
use exa_fft::{fft, ifft, C64};
use exa_hal::exec;
use exa_hal::{DType, KernelProfile, LaunchConfig, Result, Stream};
use exa_linalg::{gemm::matmul, Matrix};

/// All sixteen programs in Figure 1 order.
pub fn all_benchmarks() -> Vec<Box<dyn ShocBenchmark>> {
    vec![
        Box::new(BusSpeedDownload),
        Box::new(BusSpeedReadback),
        Box::new(MaxFlops),
        Box::new(DeviceMemory),
        Box::new(KernelLaunch),
        Box::new(FftBench),
        Box::new(GemmBench),
        Box::new(MdBench),
        Box::new(Reduction),
        Box::new(Scan),
        Box::new(Sort),
        Box::new(SpMV),
        Box::new(Stencil2D),
        Box::new(Triad),
        Box::new(S3D),
        Box::new(Md5Hash),
    ]
}

fn input_f32(n: usize, salt: u32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            ((i as u32).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f32 / 500.0 - 1.0
        })
        .collect()
}

// ---------------------------------------------------------------------------

/// Host→device bus bandwidth.
pub struct BusSpeedDownload;

impl ShocBenchmark for BusSpeedDownload {
    fn name(&self) -> &'static str {
        "BusSpeedDownload"
    }

    fn cuda_source(&self) -> &'static str {
        "cudaMalloc(&d_buf, nbytes);\ncudaMemcpy(d_buf, h_buf, nbytes, cudaMemcpyHostToDevice);\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.n();
        let host = input_f32(n, 1);
        let mut buf = s.alloc::<f32>(n)?;
        s.upload(&host, &mut buf)?;
        let ok = buf.as_slice() == host.as_slice();
        let total = s.synchronize();
        Ok(BenchResult {
            name: self.name().into(),
            time_total: total,
            time_kernel: total,
            verified: ok,
        })
    }
}

/// Device→host bus bandwidth.
pub struct BusSpeedReadback;

impl ShocBenchmark for BusSpeedReadback {
    fn name(&self) -> &'static str {
        "BusSpeedReadback"
    }

    fn cuda_source(&self) -> &'static str {
        "cudaMemcpy(h_buf, d_buf, nbytes, cudaMemcpyDeviceToHost);\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.n();
        let host = input_f32(n, 2);
        let mut buf = s.alloc::<f32>(n)?;
        s.upload(&host, &mut buf)?;
        let mut back = vec![0.0f32; n];
        s.download(&buf, &mut back)?;
        let ok = back == host;
        let total = s.synchronize();
        Ok(BenchResult {
            name: self.name().into(),
            time_total: total,
            time_kernel: total,
            verified: ok,
        })
    }
}

/// Peak attainable FLOP rate (long FMA chains, no memory traffic).
pub struct MaxFlops;

impl ShocBenchmark for MaxFlops {
    fn name(&self) -> &'static str {
        "MaxFlops"
    }

    fn cuda_source(&self) -> &'static str {
        "maxflops_kernel<<<grid, block>>>(d_x, iters);\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.n();
        const ITERS: usize = 64;
        let host = input_f32(n, 3);
        let mut x = s.alloc::<f32>(n)?;
        s.upload(&host, &mut x)?;
        let profile = KernelProfile::new("maxflops", LaunchConfig::cover(n as u64, 256))
            .flops((n * ITERS * 2) as f64, DType::F32)
            .bytes((n * 4) as f64, (n * 4) as f64)
            .regs(32)
            .compute_eff(0.95);
        let e0 = s.record_event();
        s.launch(&profile, || {
            exec::par_map_inplace(x.as_mut_slice(), |_, mut v| {
                for _ in 0..ITERS {
                    v = v * 1.000_976_6 + 0.0001;
                }
                v
            });
        });
        let e1 = s.record_event();
        let mut out = vec![0.0f32; n];
        s.download(&x, &mut out)?;
        // Oracle on a few lanes.
        let ok = [0usize, n / 2, n - 1].iter().all(|&i| {
            let mut v = host[i];
            for _ in 0..ITERS {
                v = v * 1.000_976_6 + 0.0001;
            }
            (v - out[i]).abs() < 1e-5
        });
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

/// Global-memory streaming bandwidth (device-side copy).
pub struct DeviceMemory;

impl ShocBenchmark for DeviceMemory {
    fn name(&self) -> &'static str {
        "DeviceMemory"
    }

    fn cuda_source(&self) -> &'static str {
        "readGlobalMemoryCoalesced<<<grid, block>>>(d_src, d_dst, n);\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.n();
        let host = input_f32(n, 4);
        let mut src = s.alloc::<f32>(n)?;
        let mut dst = s.alloc::<f32>(n)?;
        s.upload(&host, &mut src)?;
        let profile = KernelProfile::new("devmem_copy", LaunchConfig::cover(n as u64, 256))
            .flops(0.0, DType::F32)
            .bytes((n * 4) as f64, (n * 4) as f64)
            .mem_eff(0.88);
        let e0 = s.record_event();
        let (src_ref, dst_mut) = (&src, &mut dst);
        s.launch(&profile, || {
            dst_mut.as_mut_slice().copy_from_slice(src_ref.as_slice());
        });
        let e1 = s.record_event();
        let ok = dst.as_slice() == host.as_slice();
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

/// Kernel launch (queue) delay: many empty kernels back to back.
pub struct KernelLaunch;

impl ShocBenchmark for KernelLaunch {
    fn name(&self) -> &'static str {
        "KernelLaunch"
    }

    fn cuda_source(&self) -> &'static str {
        "for (int i = 0; i < reps; ++i) empty_kernel<<<1, 1>>>();\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, _scale: Scale) -> Result<BenchResult> {
        const REPS: usize = 64;
        let profile = KernelProfile::new("empty", LaunchConfig::new(1, 32)).flops(32.0, DType::F32);
        let e0 = s.record_event();
        for _ in 0..REPS {
            s.launch_modeled(&profile);
        }
        let e1 = s.record_event();
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), true))
    }
}

/// Batched 1-D FFT.
pub struct FftBench;

impl ShocBenchmark for FftBench {
    fn name(&self) -> &'static str {
        "FFT"
    }

    fn cuda_source(&self) -> &'static str {
        "cufftPlan1d(&plan, n, CUFFT_Z2Z, batch);\ncufftExecZ2Z(plan, d_data, d_data, CUFFT_FORWARD);\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let len = 512usize;
        let batch = scale.n() / len;
        let host: Vec<f32> = input_f32(2 * len * batch, 5);
        let mut rows: Vec<Vec<C64>> = (0..batch)
            .map(|b| {
                (0..len)
                    .map(|i| {
                        let k = 2 * (b * len + i);
                        C64::new(host[k] as f64, host[k + 1] as f64)
                    })
                    .collect()
            })
            .collect();
        let energy_before: f64 = rows
            .iter()
            .flat_map(|r| r.iter().map(|z| z.norm_sqr()))
            .sum();

        let mut buf = s.alloc::<f64>(2 * len * batch)?;
        s.upload(
            &host.iter().map(|&x| x as f64).collect::<Vec<_>>(),
            &mut buf,
        )?;
        let flops = batch as f64 * exa_fft::fft1d::fft_flops(len);
        let bytes = (batch * len * 16) as f64;
        let profile =
            KernelProfile::new("fft_batch", LaunchConfig::cover((batch * len) as u64, 256))
                .flops(flops, DType::C64)
                .bytes(2.0 * bytes, bytes)
                .regs(64)
                .lds(8 * 1024)
                .compute_eff(0.25)
                .mem_eff(0.7);
        let e0 = s.record_event();
        s.launch(&profile, || {
            for r in rows.iter_mut() {
                fft(r);
            }
        });
        let e1 = s.record_event();
        s.download_modeled(buf.bytes());
        // Parseval oracle (and a spot round-trip).
        let energy_after: f64 = rows
            .iter()
            .flat_map(|r| r.iter().map(|z| z.norm_sqr()))
            .sum::<f64>()
            / len as f64;
        let mut probe = rows[0].clone();
        ifft(&mut probe);
        let ok = (energy_before - energy_after).abs() < 1e-6 * energy_before.max(1.0);
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

/// Single-precision GEMM.
pub struct GemmBench;

impl ShocBenchmark for GemmBench {
    fn name(&self) -> &'static str {
        "GEMM"
    }

    fn cuda_source(&self) -> &'static str {
        "cublasSgemm(handle, CUBLAS_OP_N, CUBLAS_OP_N, n, n, n, &alpha, dA, n, dB, n, &beta, dC, n);\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.edge();
        let a = Matrix::<f32>::seeded_random(n, n, 11);
        let b = Matrix::<f32>::seeded_random(n, n, 12);
        s.upload_modeled((2 * n * n * 4) as u64);
        let profile = KernelProfile::new("sgemm", LaunchConfig::cover((n * n) as u64, 256))
            .flops(2.0 * (n as f64).powi(3), DType::F32)
            .matrix_units(true)
            .bytes((2 * n * n * 4) as f64, (n * n * 4) as f64)
            .regs(96)
            .lds(32 * 1024)
            .compute_eff(0.88);
        let mut c = None;
        let e0 = s.record_event();
        s.launch(&profile, || c = Some(matmul(&a, &b)));
        let e1 = s.record_event();
        s.download_modeled((n * n * 4) as u64);
        let c = c.expect("kernel ran");
        // Spot-check a few entries by dot product.
        let ok = [(0, 0), (n / 2, n / 3), (n - 1, n - 1)]
            .iter()
            .all(|&(i, j)| {
                let mut acc = 0.0f64;
                for k in 0..n {
                    acc += a[(i, k)] as f64 * b[(k, j)] as f64;
                }
                (acc - c[(i, j)] as f64).abs() < 1e-2 * acc.abs().max(1.0)
            });
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

/// Lennard-Jones molecular dynamics force kernel.
pub struct MdBench;

impl ShocBenchmark for MdBench {
    fn name(&self) -> &'static str {
        "MD"
    }

    fn cuda_source(&self) -> &'static str {
        "compute_lj_force<<<grid, block>>>(d_pos, d_force, d_neigh, n, maxNeighbors);\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.n().min(1 << 16);
        const NEIGH: usize = 8;
        let pos = input_f32(3 * n, 6);
        let mut dpos = s.alloc::<f32>(3 * n)?;
        s.upload(&pos, &mut dpos)?;
        let mut force = s.alloc::<f32>(3 * n)?;

        let lj = |i: usize| -> [f32; 3] {
            let mut f = [0.0f32; 3];
            for d in 1..=NEIGH {
                let j = (i + d) % n;
                let dx = pos[3 * j] - pos[3 * i];
                let dy = pos[3 * j + 1] - pos[3 * i + 1];
                let dz = pos[3 * j + 2] - pos[3 * i + 2];
                let r2 = (dx * dx + dy * dy + dz * dz).max(1e-3);
                let inv6 = 1.0 / (r2 * r2 * r2);
                let scale = 24.0 * inv6 * (2.0 * inv6 - 1.0) / r2;
                f[0] += scale * dx;
                f[1] += scale * dy;
                f[2] += scale * dz;
            }
            f
        };

        let profile = KernelProfile::new("lj_force", LaunchConfig::cover(n as u64, 128))
            .flops((n * NEIGH * 26) as f64, DType::F32)
            .bytes((n * NEIGH * 12) as f64, (n * 12) as f64)
            .regs(64)
            .divergence(0.85)
            .mem_eff(0.55);
        let e0 = s.record_event();
        let force_mut = &mut force;
        s.launch(&profile, || {
            exec::par_fill(force_mut.as_mut_slice(), |idx| {
                let i = idx / 3;
                lj(i)[idx % 3]
            });
        });
        let e1 = s.record_event();
        let mut out = vec![0.0f32; 3 * n];
        s.download(&force, &mut out)?;
        let probe = lj(n / 2);
        let ok = (0..3).all(|d| (out[3 * (n / 2) + d] - probe[d]).abs() < 1e-4);
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

/// Parallel sum reduction.
pub struct Reduction;

impl ShocBenchmark for Reduction {
    fn name(&self) -> &'static str {
        "Reduction"
    }

    fn cuda_source(&self) -> &'static str {
        "reduce<<<grid, block, smem>>>(d_in, d_out, n);\ncudaMemcpy(&sum, d_out, 8, cudaMemcpyDeviceToHost);"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.n();
        let host: Vec<f64> = input_f32(n, 7).iter().map(|&x| x as f64).collect();
        let mut buf = s.alloc::<f64>(n)?;
        s.upload(&host, &mut buf)?;
        let profile = KernelProfile::new("reduce", LaunchConfig::cover(n as u64, 256))
            .flops(n as f64, DType::F64)
            .bytes((n * 8) as f64, 64.0)
            .lds(2048)
            .mem_eff(0.85);
        let mut sum = 0.0f64;
        let e0 = s.record_event();
        let buf_ref = &buf;
        s.launch(&profile, || {
            sum = exec::par_sum_f64(buf_ref.as_slice());
        });
        let e1 = s.record_event();
        s.download_modeled(8);
        let oracle: f64 = host.iter().sum();
        let ok = (sum - oracle).abs() < 1e-6 * oracle.abs().max(1.0);
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

/// Exclusive prefix sum.
pub struct Scan;

impl ShocBenchmark for Scan {
    fn name(&self) -> &'static str {
        "Scan"
    }

    fn cuda_source(&self) -> &'static str {
        "scan<<<grid, block, smem>>>(d_in, d_out, d_blocksums, n);\naddBlockSums<<<grid, block>>>(d_out, d_blocksums, n);"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.n();
        let host: Vec<u64> = (0..n).map(|i| ((i * 2654435761) % 100) as u64).collect();
        let mut input = s.alloc::<u64>(n)?;
        s.upload(&host, &mut input)?;
        let mut output = s.alloc::<u64>(n)?;
        // Work-efficient scan: ~2 passes over the data.
        let profile = KernelProfile::new("scan", LaunchConfig::cover(n as u64, 256))
            .flops((2 * n) as f64, DType::F64)
            .bytes((2 * n * 8) as f64, (n * 8) as f64)
            .lds(4096)
            .mem_eff(0.75);
        let e0 = s.record_event();
        let (inp, out) = (&input, &mut output);
        s.launch(&profile, || {
            // Work-efficient blocked scan, the real SHOC shape: per-block
            // partial sums, an exclusive scan of the block sums, then a
            // parallel downsweep seeded with each block's offset.
            const CHUNK: usize = 1 << 15;
            let src = inp.as_slice();
            let dst = out.as_mut_slice();
            let nchunks = n.div_ceil(CHUNK).max(1);
            let sums: Vec<u64> = exec::par_map(nchunks, |c| {
                src[c * CHUNK..((c + 1) * CHUNK).min(n)].iter().sum()
            });
            let mut offsets = vec![0u64; nchunks];
            let mut acc = 0u64;
            for (o, s) in offsets.iter_mut().zip(&sums) {
                *o = acc;
                acc += s;
            }
            exec::par_chunks_mut(dst, CHUNK, |c, chunk| {
                let base = c * CHUNK;
                let mut acc = offsets[c];
                for (k, d) in chunk.iter_mut().enumerate() {
                    *d = acc;
                    acc += src[base + k];
                }
            });
        });
        let e1 = s.record_event();
        let mut res = vec![0u64; n];
        s.download(&output, &mut res)?;
        let mut acc = 0u64;
        let ok = host.iter().enumerate().all(|(i, &x)| {
            let good = res[i] == acc;
            acc += x;
            good
        });
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

/// Radix sort of 32-bit keys.
pub struct Sort;

impl ShocBenchmark for Sort {
    fn name(&self) -> &'static str {
        "Sort"
    }

    fn cuda_source(&self) -> &'static str {
        "for (int shift = 0; shift < 32; shift += 8) {\n  histogram<<<grid, block>>>(d_keys, d_hist, shift);\n  scatter<<<grid, block>>>(d_keys, d_out, d_hist, shift);\n}"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.n();
        let host: Vec<u32> = (0..n)
            .map(|i| (i as u32).wrapping_mul(2654435761))
            .collect();
        let mut keys = s.alloc::<u32>(n)?;
        s.upload(&host, &mut keys)?;
        // 4 passes of 8-bit LSD radix: each reads + writes all keys twice.
        let profile = KernelProfile::new("radix_pass", LaunchConfig::cover(n as u64, 256))
            .flops((n * 4) as f64, DType::F32)
            .bytes((2 * n * 4) as f64, (2 * n * 4) as f64)
            .lds(8 * 1024)
            .mem_eff(0.6);
        let checksum: u64 = host.iter().map(|&k| k as u64).sum();
        let e0 = s.record_event();
        for pass in 0..4u32 {
            let keys_mut = &mut keys;
            s.launch(&profile, || {
                // Parallel stable counting sort on the current byte — the
                // GPU radix shape: per-block histograms, an exclusive scan
                // over (digit, block), then each block scatters its slice in
                // order through its own cursors. `block_ranges` guarantees
                // the histogram blocks line up with the scatter's blocks.
                let shift = pass * 8;
                let data = keys_mut.as_mut_slice();
                let digit = |k: u32| ((k >> shift) & 0xFF) as usize;
                let ranges = exec::block_ranges(n, exec::DEFAULT_MIN_LEN);
                let data_ref: &[u32] = data;
                let hists: Vec<[usize; 256]> = exec::par_map(ranges.len(), |b| {
                    let mut h = [0usize; 256];
                    for &k in &data_ref[ranges[b].clone()] {
                        h[digit(k)] += 1;
                    }
                    h
                });
                // Digit-major running total: keys with equal digits keep
                // block order (stability), blocks own disjoint cursor spans.
                let mut cursors = vec![[0usize; 256]; ranges.len()];
                let mut total = 0usize;
                for d in 0..256 {
                    for (b, h) in hists.iter().enumerate() {
                        cursors[b][d] = total;
                        total += h[d];
                    }
                }
                let mut tmp = vec![0u32; data.len()];
                // SAFETY: the scatter splits `0..n` into the same `ranges`
                // the histograms counted. Block `b`'s digit-`d` cursor starts
                // at `cursors[b][d]` and advances once per digit-`d` key of
                // its block, `hists[b][d]` times in all, so it emits exactly
                // `cursors[b][d]..cursors[b][d] + hists[b][d]`. The running
                // total above lays those spans end to end without overlap,
                // so no position is emitted by two blocks.
                unsafe {
                    exec::par_scatter_blocks(
                        &mut tmp,
                        n,
                        exec::DEFAULT_MIN_LEN,
                        |b, range, emit| {
                            let mut cur = cursors[b];
                            for &k in &data_ref[range] {
                                let d = digit(k);
                                emit(cur[d], k);
                                cur[d] += 1;
                            }
                        },
                    );
                }
                data.copy_from_slice(&tmp);
            });
        }
        let e1 = s.record_event();
        let mut sorted = vec![0u32; n];
        s.download(&keys, &mut sorted)?;
        let ok = sorted.windows(2).all(|w| w[0] <= w[1])
            && sorted.iter().map(|&k| k as u64).sum::<u64>() == checksum;
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

/// Sparse matrix–vector product (CSR).
pub struct SpMV;

impl ShocBenchmark for SpMV {
    fn name(&self) -> &'static str {
        "SpMV"
    }

    fn cuda_source(&self) -> &'static str {
        "spmv_csr_scalar<<<grid, block>>>(d_val, d_cols, d_rowDelimiters, d_vec, n, d_out);\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.n().min(1 << 16);
        const NNZ_PER_ROW: usize = 16;
        // Deterministic pseudo-random CSR pattern.
        let cols: Vec<usize> = (0..n * NNZ_PER_ROW)
            .map(|k| (k.wrapping_mul(2654435761) ^ (k >> 7)) % n)
            .collect();
        let vals = input_f32(n * NNZ_PER_ROW, 8);
        let x = input_f32(n, 9);
        let mut dx = s.alloc::<f32>(n)?;
        s.upload(&x, &mut dx)?;
        s.upload_modeled((n * NNZ_PER_ROW * 8) as u64);
        let mut y = s.alloc::<f32>(n)?;
        let profile = KernelProfile::new("spmv_csr", LaunchConfig::cover(n as u64, 128))
            .flops((2 * n * NNZ_PER_ROW) as f64, DType::F32)
            .bytes((n * NNZ_PER_ROW * 8 + n * 4) as f64, (n * 4) as f64)
            .divergence(0.9)
            .mem_eff(0.45);
        let e0 = s.record_event();
        let (cols_ref, vals_ref, x_ref, y_mut) = (&cols, &vals, &x, &mut y);
        s.launch(&profile, || {
            exec::par_fill(y_mut.as_mut_slice(), |i| {
                let mut acc = 0.0f32;
                for k in 0..NNZ_PER_ROW {
                    let idx = i * NNZ_PER_ROW + k;
                    acc += vals_ref[idx] * x_ref[cols_ref[idx]];
                }
                acc
            });
        });
        let e1 = s.record_event();
        let mut out = vec![0.0f32; n];
        s.download(&y, &mut out)?;
        let i = n / 3;
        let oracle: f32 = (0..NNZ_PER_ROW)
            .map(|k| vals[i * NNZ_PER_ROW + k] * x[cols[i * NNZ_PER_ROW + k]])
            .sum();
        let ok = (out[i] - oracle).abs() < 1e-4;
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

/// 9-point 2-D stencil iterations.
pub struct Stencil2D;

impl ShocBenchmark for Stencil2D {
    fn name(&self) -> &'static str {
        "Stencil2D"
    }

    fn cuda_source(&self) -> &'static str {
        "for (int it = 0; it < iters; ++it) {\n  stencil9<<<grid, block>>>(d_in, d_out, rows, cols);\n  cudaMemcpy(d_in, d_out, nbytes, cudaMemcpyDeviceToDevice);\n}"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let m = scale.edge();
        const ITERS: usize = 4;
        let host = input_f32(m * m, 10);
        let mut grid = s.alloc::<f32>(m * m)?;
        s.upload(&host, &mut grid)?;
        let profile = KernelProfile::new("stencil9", LaunchConfig::cover((m * m) as u64, 256))
            .flops((m * m * 10) as f64, DType::F32)
            .bytes((m * m * 4) as f64 * 1.5, (m * m * 4) as f64)
            .lds(16 * 1024)
            .mem_eff(0.7);

        // One row per parallel chunk — the "one thread block per tile"
        // shape; identical accumulation order to the serial sweep, so the
        // result is bit-identical run to run.
        let step = |src: &[f32]| -> Vec<f32> {
            let mut dst = src.to_vec();
            exec::par_chunks_mut(&mut dst, m, |i, row| {
                if i == 0 || i >= m - 1 {
                    return;
                }
                for j in 1..m - 1 {
                    let mut acc = 0.0f32;
                    for di in 0..3 {
                        for dj in 0..3 {
                            acc += src[(i + di - 1) * m + (j + dj - 1)];
                        }
                    }
                    row[j] = acc / 9.0;
                }
            });
            dst
        };

        let e0 = s.record_event();
        for _ in 0..ITERS {
            let grid_mut = &mut grid;
            s.launch(&profile, || {
                let next = step(grid_mut.as_slice());
                grid_mut.as_mut_slice().copy_from_slice(&next);
            });
        }
        let e1 = s.record_event();
        let mut out = vec![0.0f32; m * m];
        s.download(&grid, &mut out)?;
        // Oracle: rerun on the host.
        let mut oracle = host;
        for _ in 0..ITERS {
            oracle = step(&oracle);
        }
        let ok = out.iter().zip(&oracle).all(|(a, b)| (a - b).abs() < 1e-4);
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

/// STREAM triad.
pub struct Triad;

impl ShocBenchmark for Triad {
    fn name(&self) -> &'static str {
        "Triad"
    }

    fn cuda_source(&self) -> &'static str {
        "triad<<<grid, block>>>(d_a, d_b, d_c, s, n);\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.n();
        let b_host = input_f32(n, 11);
        let c_host = input_f32(n, 12);
        let mut b = s.alloc::<f32>(n)?;
        let mut c = s.alloc::<f32>(n)?;
        let mut a = s.alloc::<f32>(n)?;
        s.upload(&b_host, &mut b)?;
        s.upload(&c_host, &mut c)?;
        const SCALAR: f32 = 1.75;
        let profile = KernelProfile::new("triad", LaunchConfig::cover(n as u64, 256))
            .flops((2 * n) as f64, DType::F32)
            .bytes((2 * n * 4) as f64, (n * 4) as f64)
            .mem_eff(0.88);
        let e0 = s.record_event();
        let (b_ref, c_ref, a_mut) = (&b, &c, &mut a);
        s.launch(&profile, || {
            exec::par_fill(a_mut.as_mut_slice(), |i| {
                b_ref.as_slice()[i] * SCALAR + c_ref.as_slice()[i]
            });
        });
        let e1 = s.record_event();
        let mut out = vec![0.0f32; n];
        s.download(&a, &mut out)?;
        let ok = (0..n)
            .step_by(997)
            .all(|i| (out[i] - (b_host[i] * SCALAR + c_host[i])).abs() < 1e-5);
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

/// S3D: a chemical-kinetics rate kernel (transcendental-heavy, the
/// register-pressure end of the suite — the same character as Pele's
/// chemistry kernels in §3.8).
pub struct S3D;

impl ShocBenchmark for S3D {
    fn name(&self) -> &'static str {
        "S3D"
    }

    fn cuda_source(&self) -> &'static str {
        "ratt_kernel<<<grid, block>>>(d_T, d_rates, n);\nratx_kernel<<<grid, block>>>(d_T, d_rates, n);\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let n = scale.n().min(1 << 16);
        let t_host: Vec<f64> = input_f32(n, 13)
            .iter()
            .map(|&x| 900.0 + 500.0 * (x as f64 + 1.0))
            .collect();
        let mut temp = s.alloc::<f64>(n)?;
        s.upload(&t_host, &mut temp)?;
        let mut rates = s.alloc::<f64>(n)?;
        const SPECIES: usize = 22; // drm19-like mechanism size
        let rate = |t: f64| -> f64 {
            let mut acc = 0.0;
            for k in 1..=SPECIES {
                let ea = 8000.0 + 350.0 * k as f64;
                acc += (k as f64) * (-ea / (1.987 * t)).exp() * t.powf(0.5 + 0.05 * k as f64);
            }
            acc
        };
        let profile = KernelProfile::new("s3d_rates", LaunchConfig::cover(n as u64, 128))
            .flops((n * SPECIES * 40) as f64, DType::F64)
            .bytes((n * 8) as f64, (n * 8) as f64)
            .regs(192)
            .compute_eff(0.45);
        let e0 = s.record_event();
        let (t_ref, r_mut) = (&temp, &mut rates);
        s.launch(&profile, || {
            let t_slice = t_ref.as_slice();
            exec::par_fill(r_mut.as_mut_slice(), |i| rate(t_slice[i]));
        });
        let e1 = s.record_event();
        let mut out = vec![0.0f64; n];
        s.download(&rates, &mut out)?;
        let i = n / 7;
        let ok = (out[i] - rate(t_host[i])).abs() < 1e-9 * rate(t_host[i]).abs().max(1.0);
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_hal::{ApiSurface, Device};
    use exa_machine::GpuModel;

    fn cuda_stream() -> Stream {
        Stream::new(Device::new(GpuModel::v100(), 0), ApiSurface::Cuda).unwrap()
    }

    #[test]
    fn every_benchmark_runs_and_verifies_on_cuda() {
        for b in all_benchmarks() {
            let mut s = cuda_stream();
            let r = b.run(&mut s, Scale::Test).unwrap();
            assert!(r.verified, "{} failed verification", b.name());
            assert!(
                r.time_total > exa_hal::SimTime::ZERO,
                "{} charged no time",
                b.name()
            );
            assert!(r.time_kernel <= r.time_total, "{} kernel > total", b.name());
        }
    }

    #[test]
    fn data_parallel_kernels_verify_at_full_scale() {
        // Scale::Full puts Scan/Sort (2²² elements) and Stencil2D (1024²
        // grid) over the exec parallel threshold, so the blocked scan, the
        // histogram + block-scatter radix passes, and the row-parallel
        // stencil all take their multi-threaded paths — and must still
        // match their serial host oracles.
        for b in [&Scan as &dyn ShocBenchmark, &Sort, &Stencil2D] {
            let mut s = cuda_stream();
            let r = b.run(&mut s, Scale::Full).unwrap();
            assert!(r.verified, "{} failed verification at full scale", b.name());
        }
    }

    #[test]
    fn every_benchmark_runs_on_hip_surface_too() {
        for b in all_benchmarks() {
            let d = Device::new(GpuModel::mi250x_gcd(), 0);
            let mut s = Stream::new(d, ApiSurface::Hip).unwrap();
            let r = b.run(&mut s, Scale::Test).unwrap();
            assert!(r.verified, "{} failed on HIP/MI250X", b.name());
        }
    }

    #[test]
    fn suite_has_fifteen_programs_with_unique_names() {
        let benches = all_benchmarks();
        assert_eq!(benches.len(), 16);
        let mut names: Vec<_> = benches.iter().map(|b| b.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn cuda_sources_hipify_cleanly() {
        // §2.1: "the hipify tool converted the bulk of the code
        // automatically" — our corpus uses no deprecated syntax, so
        // conversion should be 100 % automatic.
        for b in all_benchmarks() {
            let report = exa_hal::hipify_source(b.cuda_source());
            assert_eq!(
                report.manual_fix_lines(),
                0,
                "{} required manual fixes",
                b.name()
            );
            assert!(report.api_lines > 0, "{} has no API lines", b.name());
            assert_eq!(report.auto_fraction(), 1.0, "{}", b.name());
            assert!(
                !report.output.contains("cuda"),
                "{} left cuda calls",
                b.name()
            );
        }
    }

    #[test]
    fn bandwidth_benchmarks_are_memory_bound() {
        // Triad on V100 at Test scale: time should track bytes/bandwidth,
        // not flops/peak.
        let mut s = cuda_stream();
        let r = Triad.run(&mut s, Scale::Test).unwrap();
        let n = Scale::Test.n() as f64;
        let ideal_mem = 3.0 * n * 4.0 / (900.0e9 * 0.88);
        assert!(r.time_kernel.secs() > ideal_mem * 0.5);
    }
}

// ---------------------------------------------------------------------------
// MD5Hash — SHOC's integer-throughput benchmark, with a real MD5 core.
// ---------------------------------------------------------------------------

/// Reference MD5 of a byte message (RFC 1321, single-shot).
pub fn md5(message: &[u8]) -> [u8; 16] {
    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9, 14, 20, 5, 9, 14, 20, 5,
        9, 14, 20, 5, 9, 14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 6, 10,
        15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];
    const K: [u32; 64] = [
        0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
        0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
        0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
        0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
        0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
        0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
        0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
        0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
        0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
        0xeb86d391,
    ];
    // Padding.
    let mut msg = message.to_vec();
    let bit_len = (msg.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_le_bytes());

    let (mut a0, mut b0, mut c0, mut d0) =
        (0x67452301u32, 0xefcdab89u32, 0x98badcfeu32, 0x10325476u32);
    for chunk in msg.chunks_exact(64) {
        let m: Vec<u32> = chunk
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
            .collect();
        let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            let rot = f
                .wrapping_add(a)
                .wrapping_add(K[i])
                .wrapping_add(m[g])
                .rotate_left(S[i]);
            b = b.wrapping_add(rot);
            a = tmp;
        }
        a0 = a0.wrapping_add(a);
        b0 = b0.wrapping_add(b);
        c0 = c0.wrapping_add(c);
        d0 = d0.wrapping_add(d);
    }
    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(&a0.to_le_bytes());
    out[4..8].copy_from_slice(&b0.to_le_bytes());
    out[8..12].copy_from_slice(&c0.to_le_bytes());
    out[12..16].copy_from_slice(&d0.to_le_bytes());
    out
}

/// SHOC's MD5Hash: brute-force a short key by digest (integer-ALU bound).
pub struct Md5Hash;

impl ShocBenchmark for Md5Hash {
    fn name(&self) -> &'static str {
        "MD5Hash"
    }

    fn cuda_source(&self) -> &'static str {
        "FindKeyWithDigest_Kernel<<<grid, block>>>(d_digest, keyspace, d_foundIndex, d_foundKey);\ncudaDeviceSynchronize();"
    }

    fn run(&self, s: &mut Stream, scale: Scale) -> Result<BenchResult> {
        let keyspace: u32 = match scale {
            Scale::Test => 1 << 10,
            Scale::Full => 1 << 16,
        };
        // The "secret" key whose digest we search for.
        let secret: u32 = keyspace - 7;
        let target = md5(&secret.to_le_bytes());
        // MD5 is pure integer work: 64 rounds x ~8 int ops per candidate.
        let profile = KernelProfile::new("md5_search", LaunchConfig::cover(keyspace as u64, 256))
            .flops(keyspace as f64 * 64.0 * 8.0, DType::I8)
            .bytes(64.0, 8.0)
            .regs(48)
            .compute_eff(0.5);
        let mut found: Option<u32> = None;
        let e0 = s.record_event();
        let found_ref = &mut found;
        s.launch(&profile, || {
            *found_ref = (0..keyspace).find(|k| md5(&k.to_le_bytes()) == target);
        });
        let e1 = s.record_event();
        s.download_modeled(8);
        let ok = found == Some(secret);
        Ok(finish(self.name(), s, e1.elapsed_since(&e0), ok))
    }
}

#[cfg(test)]
mod md5_tests {
    use super::*;

    fn hex(d: &[u8; 16]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc1321_test_vectors() {
        assert_eq!(hex(&md5(b"")), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(hex(&md5(b"a")), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(hex(&md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            hex(&md5(b"message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            hex(&md5(b"abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
    }

    #[test]
    fn multi_block_messages_hash_correctly() {
        // 80 bytes spans two 64-byte blocks after padding.
        let msg = vec![b'x'; 80];
        let d = md5(&msg);
        // Self-consistency + avalanche: one flipped byte changes the digest.
        let mut msg2 = msg.clone();
        msg2[40] = b'y';
        assert_ne!(md5(&msg), md5(&msg2));
        assert_eq!(md5(&msg), d);
    }
}
