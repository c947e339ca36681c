//! Heap allocations per solve grow with launches, not with blocks. This
//! test binary runs the counting allocator and holds a single test, so
//! nothing else allocates while a solve is counted.

use trisolve_bench::alloc::{self, CountingAlloc};
use trisolve_core::{BaseVariant, SolveSession, SolverParams};
use trisolve_gpu_sim::{DeviceSpec, Gpu};
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn reused_session_solve_allocations_do_not_grow_with_blocks() {
    // The plan the dynamic tuner picks for 1024 x 1024 f32 on the GTX 470:
    // stage 2 at stride 1, then the base kernel at stride 2, one launch
    // each, whatever the number of systems (and so of blocks).
    let params = SolverParams {
        stage1_target_systems: 16,
        onchip_size: 512,
        thomas_switch: 128,
        variant: BaseVariant::Coalesced,
    };
    let allocs = |systems: usize| {
        let shape = WorkloadShape::new(systems, 1024);
        let batch = random_dominant::<f32>(shape, 2011).unwrap();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        // The first solve builds the plan and grows the device's scratch.
        let first = session.solve(&mut gpu, &batch, &params).unwrap();
        // A cleared profile keeps its capacity, so the counted solve's
        // launches never grow it.
        gpu.reset_clock();
        let (again, counts) = alloc::counting(|| session.solve(&mut gpu, &batch, &params));
        let again = again.unwrap();
        assert_eq!(again.x, first.x);
        assert_eq!(again.kernel_stats.len(), 2);
        counts.expect("this process counts allocations").allocs
    };
    let (quarter, half, full) = (allocs(256), allocs(512), allocs(1024));
    assert_eq!(quarter, half, "doubling the blocks added allocations");
    assert!(full <= 100, "1024 x 1024 solve: {full} allocations");
    assert_eq!(full, half);
}
