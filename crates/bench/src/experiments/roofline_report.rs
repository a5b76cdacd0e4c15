//! Kernel-profiling demonstration: trace a representative mix of the
//! campaign's kernels on one MI250X GCD and print the profiler's hotspot
//! report — the workflow behind §3.2's "by employing kernel profiling we
//! were able to identify bottlenecks" and §3.10.2's "initial profiling on
//! AMD Instinct GPUs found a few key bottlenecks".

use crate::{Gate, header, write_json};
use exa_hal::trace::Tracer;
use exa_hal::{ApiSurface, DType, Device, KernelProfile, LaunchConfig, Stream};
use exa_machine::GpuModel;

pub fn run() -> Gate {
    header("Profiler hotspot report: one MI250X GCD, mixed campaign kernels");
    let gpu = GpuModel::mi250x_gcd();
    let device = Device::new(gpu.clone(), 0);
    let mut stream = Stream::new(device, ApiSurface::Hip).expect("hip on cdna2");
    let mut tracer = Tracer::new(gpu);

    let big = LaunchConfig::new(1 << 16, 256);
    // A GEMM-heavy phase (GAMESS/NuCCOR character).
    let zgemm = KernelProfile::new("zgemm", big)
        .flops(8.0 * 2048f64.powi(3), DType::C64)
        .matrix_units(true)
        .bytes(3.0 * 2048.0 * 2048.0 * 16.0, 2048.0 * 2048.0 * 16.0)
        .regs(96)
        .compute_eff(0.85);
    // A bandwidth phase (GESTS FFT passes).
    let fft_pass = KernelProfile::new("fft_pass", big)
        .flops(5.0 * (1 << 24) as f64 * 24.0, DType::C64)
        .bytes(2.0 * (1 << 24) as f64 * 16.0, (1 << 24) as f64 * 16.0)
        .compute_eff(0.2)
        .mem_eff(0.75);
    // The divergent torsion kernel (LAMMPS, pre-preprocessing).
    let torsion = KernelProfile::new("torsion_naive", big)
        .flops(5.5e8, DType::F64)
        .bytes(6.4e7, 4.0e7)
        .divergence(0.06)
        .regs(168);
    // The register monster (Pele chemistry Jacobian).
    let jacobian = KernelProfile::new("chem_jacobian", big)
        .flops(2.0e11, DType::F64)
        .bytes(1.0e9, 1.0e9)
        .regs(18_000);
    // A latency victim (E3SM microkernel).
    let micro = KernelProfile::new("micro_physics", LaunchConfig::new(8, 64))
        .flops(2.0e5, DType::F64)
        .bytes(4.0e5, 2.0e5);

    for _ in 0..4 {
        tracer.launch_traced_modeled(&mut stream, &zgemm);
    }
    for _ in 0..9 {
        tracer.launch_traced_modeled(&mut stream, &fft_pass);
    }
    tracer.launch_traced_modeled(&mut stream, &torsion);
    tracer.launch_traced_modeled(&mut stream, &jacobian);
    for _ in 0..24 {
        tracer.launch_traced_modeled(&mut stream, &micro);
    }

    println!("{}", tracer.report());
    println!(
        "reading the report the COE way: the spilling kernel ('YES') wants fission \
         (§3.5/§3.10.3); the divergent one wants a preprocessor list (§3.10.2); \
         Latency-bound rows want fusion and async launch (§3.5)."
    );
    write_json("roofline_report", &tracer.hotspots());
    Ok(())
}
