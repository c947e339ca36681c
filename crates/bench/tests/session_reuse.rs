//! A solve session reuses the device storage that a freed session or the
//! tuner left on its device. This test binary runs the counting allocator
//! and holds a single test, so nothing else allocates while a session is
//! built.

use trisolve_autotune::DynamicTuner;
use trisolve_bench::alloc::{self, CountingAlloc};
use trisolve_core::SolveSession;
use trisolve_gpu_sim::{DeviceSpec, Gpu};
use trisolve_tridiag::norms::batch_worst_relative_residual;
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_session_takes_the_storage_its_device_kept() {
    let shape = WorkloadShape::new(256, 1024);
    // One of the session's nine device buffers.
    let buffer_bytes = (shape.total_equations() * 4) as u64;
    let bytes_to_build = |gpu: &mut Gpu<f32>| {
        let (session, counts) = alloc::counting(|| SolveSession::new(gpu, shape));
        let counts = counts.expect("this process counts allocations");
        (session.unwrap(), counts.bytes)
    };

    // The first session on a device draws its buffers fresh.
    let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
    let (first, fresh) = bytes_to_build(&mut gpu);
    assert!(fresh >= 9 * buffer_bytes, "{fresh} bytes");
    drop(first);
    let (_second, reused) = bytes_to_build(&mut gpu);
    assert!(
        reused < buffer_bytes,
        "after a dropped session: {reused} bytes"
    );

    // The tuned session takes the storage of the tuner's sessions.
    let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
    let tuned = DynamicTuner::new().tune_for(&mut gpu, shape);
    let (mut session, reused) = bytes_to_build(&mut gpu);
    assert!(reused < buffer_bytes, "after tuning: {reused} bytes");
    let batch = random_dominant::<f32>(shape, 2011).unwrap();
    let out = session
        .solve(&mut gpu, &batch, &tuned.params_for(shape))
        .unwrap();
    assert!(batch_worst_relative_residual(&batch, &out.x).unwrap() < 1e-4);
}
