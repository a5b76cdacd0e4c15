//! Cross-crate integration tests for the §2/§5/§6 runtime lessons: each
//! test walks a small "porting session" through several crates at once —
//! hipify → parity check → execution → profiling → optimization.

use exaready::core::lessons::IssueClass;
use exaready::core::{lessons, render_user_guide};
use exaready::hal::error::HalError;
use exaready::hal::offload::MapDir;
use exaready::hal::offload::TargetData;
use exaready::hal::trace::{Bound, Tracer};
use exaready::hal::uvm::ManagedBuffer;
use exaready::hal::{hipify_source, ApiSurface, Device, Stream};
use exaready::machine::{DType, GpuModel, KernelProfile, LaunchConfig, MachineModel, NodeModel};
use exaready::mpi::{Comm, Network};

/// A full mini porting session: take a CUDA snippet, hipify it, then run
/// the ported kernel on the Frontier node under HIP.
#[test]
fn porting_session_end_to_end() {
    let cuda_src = "\
cudaMalloc(&d_a, bytes);
cudaMemcpyAsync(d_a, h_a, bytes, cudaMemcpyHostToDevice, stream);
axpy<<<grid, block>>>(d_a, d_b, n);
cudaStreamSynchronize(stream);";
    // 1. hipify.
    let report = hipify_source(cuda_src);
    assert_eq!(report.manual_fix_lines(), 0);
    assert!(report.output.contains("hipLaunchKernelGGL"));
    // 2. Run on the target node.
    let node = NodeModel::frontier();
    let device = Device::from_node(&node, 0);
    let mut stream = Stream::new(device, ApiSurface::Hip).expect("ported code runs");
    let n = 1 << 16;
    let mut buf = stream.alloc::<f32>(n).unwrap();
    let host: Vec<f32> = (0..n).map(|i| i as f32).collect();
    stream.upload(&host, &mut buf).unwrap();
    let k = KernelProfile::new("axpy", LaunchConfig::cover(n as u64, 256))
        .flops(2.0 * n as f64, DType::F32)
        .bytes(2.0 * n as f64 * 4.0, n as f64 * 4.0);
    stream.launch(&k, || {
        for x in buf.as_mut_slice() {
            *x = 2.0 * *x + 1.0;
        }
    });
    let mut out = vec![0.0f32; n];
    stream.download(&buf, &mut out).unwrap();
    assert_eq!(out[100], 201.0);
}

/// An unported code gets stopped twice: a CUDA-only feature by the hipify
/// diagnostics, and the CUDA surface itself by the runtime on AMD hardware.
#[test]
fn unsupported_features_are_caught_at_both_layers() {
    let report = hipify_source("cudaGraphInstantiate(&exec, graph, 0);");
    assert_eq!(report.manual_fix_lines(), 1);
    let device = Device::from_node(&NodeModel::frontier(), 0);
    assert!(matches!(
        Stream::new(device, ApiSurface::Cuda),
        Err(HalError::UnsupportedArch {
            api: ApiSurface::Cuda,
            ..
        })
    ));
}

/// §2.2 + §3.8 together: persistent target-data regions and explicit
/// copies each beat their naive counterparts, and the two lessons compose.
#[test]
fn data_residency_lessons_compose() {
    let node = NodeModel::frontier();
    let bytes: u64 = 1 << 28;
    let iters = 10;

    // Worst: UVM ping-pong each iteration.
    let device = Device::from_node(&node, 0);
    let mut s_uvm = Stream::new(device.clone(), ApiSurface::Hip).unwrap();
    let mut managed = ManagedBuffer::<f64>::new(&device, (bytes / 8) as usize).unwrap();
    for _ in 0..iters {
        managed.access_host(&mut s_uvm, 0, (bytes / 8) as usize);
        managed.access_device(&mut s_uvm, 0, (bytes / 8) as usize);
    }
    let t_uvm = s_uvm.synchronize();

    // Middle: explicit map to/from every iteration.
    let device = Device::from_node(&node, 0);
    let mut s_remap = Stream::new(device, ApiSurface::Hip).unwrap();
    for _ in 0..iters {
        let mut region = TargetData::begin();
        region.map(&mut s_remap, "u", bytes, MapDir::ToFrom);
        region.end(&mut s_remap);
    }
    let t_remap = s_remap.synchronize();

    // Best: one persistent region.
    let device = Device::from_node(&node, 0);
    let mut s_persist = Stream::new(device, ApiSurface::Hip).unwrap();
    let mut region = TargetData::begin();
    region.map(&mut s_persist, "u", bytes, MapDir::ToFrom);
    for _ in 0..iters {
        // Device-resident compute; nothing moves.
    }
    region.end(&mut s_persist);
    let t_persist = s_persist.synchronize();

    assert!(t_persist < t_remap, "{t_persist} !< {t_remap}");
    assert!(t_remap < t_uvm, "{t_remap} !< {t_uvm}");
}

/// The profiler classifies the campaign's canonical kernels the way the
/// paper's teams diagnosed them.
#[test]
fn profiler_diagnoses_canonical_kernels() {
    let gpu = GpuModel::mi250x_gcd();
    let tracer = Tracer::new(gpu);
    let big = LaunchConfig::new(1 << 15, 256);
    let gemm = KernelProfile::new("gemm", big)
        .flops(1e13, DType::F64)
        .matrix_units(true)
        .bytes(1e9, 1e9)
        .compute_eff(0.85);
    let stream_kernel = KernelProfile::new("triad", big)
        .flops(1e8, DType::F64)
        .bytes(1e11, 5e10);
    let tiny = KernelProfile::new("micro", LaunchConfig::new(2, 64)).flops(1e4, DType::F64);
    assert_eq!(tracer.classify(&gemm), Bound::Compute);
    assert_eq!(tracer.classify(&stream_kernel), Bound::Memory);
    assert_eq!(tracer.classify(&tiny), Bound::Latency);
}

/// GPU-aware MPI is faster than host-staged on every machine with GPUs —
/// the §6 "GPU-Aware MPI + X" conclusion.
#[test]
fn gpu_aware_mpi_wins_on_every_gpu_machine() {
    for machine in [
        MachineModel::summit(),
        MachineModel::spock(),
        MachineModel::crusher(),
        MachineModel::frontier(),
    ] {
        let aware_net = Network::from_machine(&machine).with_gpu_aware(true);
        let staged_net = Network::from_machine(&machine).with_gpu_aware(false);
        let mut aware = Comm::new(32, aware_net);
        let mut staged = Comm::new(32, staged_net);
        aware.alltoallv(32, 31, 31 << 20);
        staged.alltoallv(32, 31, 31 << 20);
        assert!(
            staged.elapsed() > aware.elapsed(),
            "{}: staged {} !> aware {}",
            machine.name,
            staged.elapsed(),
            aware.elapsed()
        );
    }
}

/// The lessons registry backs a renderable user guide whose Hardware
/// section triages functionality before performance (§6's ordering).
#[test]
fn user_guide_generation_is_complete_and_ordered() {
    let guide = render_user_guide();
    assert!(guide.contains("## Hardware"));
    assert!(guide.contains("## Software"));
    assert!(guide.contains("## SystemOperations"));
    let all = lessons();
    assert!(all.iter().any(|l| l.class == IssueClass::Functionality));
    for l in &all {
        assert!(
            guide.contains(l.guidance),
            "guide must carry the guidance for {}",
            l.title
        );
    }
}
