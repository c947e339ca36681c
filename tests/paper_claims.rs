//! Structural claims from the paper's method sections (§III, Figures 2 and
//! 4), asserted against the simulator: these are the *reasons* the
//! multi-stage design exists, so the reproduction must exhibit them.

use trisolve::prelude::*;
use trisolve::solver::StageOp;

fn coeffs(gpu: &mut Gpu<f32>, batch: &SystemBatch<f32>) -> [trisolve::gpu::BufferId; 4] {
    [
        gpu.alloc_from(&batch.a).unwrap(),
        gpu.alloc_from(&batch.b).unwrap(),
        gpu.alloc_from(&batch.c).unwrap(),
        gpu.alloc_from(&batch.d).unwrap(),
    ]
}

/// Figure 4: "stage 1 incurs a higher penalty per split than stage 2" —
/// compared, as in the paper, when both stages can fill the machine
/// (with very few systems stage 2 underutilises and the comparison flips,
/// which is exactly why stage 1 exists; see the next test).
#[test]
fn stage1_costs_more_per_split_than_stage2() {
    let shape = WorkloadShape::new(256, 8192);
    let batch = random_dominant::<f32>(shape, 1).unwrap();
    let total = shape.total_equations();

    // Three stage-1 splits: three launches.
    let mut g1: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
    let src = coeffs(&mut g1, &batch);
    let dst = [
        g1.alloc(total).unwrap(),
        g1.alloc(total).unwrap(),
        g1.alloc(total).unwrap(),
        g1.alloc(total).unwrap(),
    ];
    let step = |stride| StageOp::Stage1Split {
        stride,
        systems_now: 256 * stride,
    };
    step(1)
        .describe(256, 8192)
        .launch(&mut g1, &src, &dst)
        .unwrap();
    step(2)
        .describe(256, 8192)
        .launch(&mut g1, &dst, &src)
        .unwrap();
    step(4)
        .describe(256, 8192)
        .launch(&mut g1, &src, &dst)
        .unwrap();
    let t_stage1 = g1.elapsed_s();

    // The same three splits as one stage-2 launch.
    let mut g2: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
    let src = coeffs(&mut g2, &batch);
    let dst = [
        g2.alloc(total).unwrap(),
        g2.alloc(total).unwrap(),
        g2.alloc(total).unwrap(),
        g2.alloc(total).unwrap(),
    ];
    let split = StageOp::Stage2Split {
        chains: 256,
        stride_in: 1,
        steps: 3,
    };
    split
        .describe(256, 8192)
        .launch(&mut g2, &src, &dst)
        .unwrap();
    let t_stage2 = g2.elapsed_s();

    assert!(
        t_stage1 > t_stage2,
        "3 stage-1 launches ({t_stage1:.3e}s) must cost more than one stage-2 launch ({t_stage2:.3e}s)"
    );
}

/// §III-C: stage 1 is worth its overhead only when there are too few
/// systems — with one huge system, forcing stage-2-only (P1 = 1) must lose
/// to a plan that uses stage 1 to fill the machine first.
#[test]
fn cooperative_splitting_pays_off_for_single_systems() {
    let shape = WorkloadShape::new(1, 1 << 19);
    let batch = random_dominant::<f32>(shape, 2).unwrap();
    let time_with_p1 = |p1: usize| {
        let params = SolverParams {
            stage1_target_systems: p1,
            onchip_size: 512,
            thomas_switch: 128,
            variant: BaseVariant::Strided,
        };
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        solve_batch_on_gpu(&mut gpu, &batch, &params)
            .unwrap()
            .sim_time_s
    };
    let no_stage1 = time_with_p1(1);
    let with_stage1 = time_with_p1(32);
    assert!(
        with_stage1 < no_stage1,
        "stage 1 must pay off on 1x512K: with {with_stage1:.3e}s vs without {no_stage1:.3e}s"
    );
}

/// §II: "code that runs on only a single processor is unlikely to be
/// efficient" — per-equation throughput improves as the batch grows until
/// the machine fills.
#[test]
fn throughput_grows_until_machine_fills() {
    let per_eq_time = |m: usize| {
        let shape = WorkloadShape::new(m, 1024);
        let batch = random_dominant::<f32>(shape, 3).unwrap();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let t = solve_batch_on_gpu(&mut gpu, &batch, &SolverParams::default_untuned())
            .unwrap()
            .sim_time_s;
        t / shape.total_equations() as f64
    };
    let t1 = per_eq_time(1);
    let t16 = per_eq_time(16);
    let t256 = per_eq_time(256);
    assert!(
        t16 < t1 * 0.7,
        "16 systems must beat 1: {t16:.3e} vs {t1:.3e}"
    );
    assert!(t256 < t16, "256 systems must beat 16");
    // And once the machine is full, throughput stabilises.
    let t1024 = per_eq_time(1024);
    assert!(
        (t1024 / t256 - 1.0).abs() < 0.4,
        "full-machine throughput should be roughly flat: {t256:.3e} vs {t1024:.3e}"
    );
}

/// §III-A: Sakharnykh's thread-per-system formulation "cannot use shared
/// memory ... only good at solving a large number of small systems". Our
/// block-per-system base kernel keeps working when systems are few — the
/// per-equation cost of 32 systems is within a small factor of the cost of
/// 2048 systems.
#[test]
fn base_kernel_tolerates_few_systems() {
    let per_eq = |m: usize| {
        let shape = WorkloadShape::new(m, 512);
        let batch = random_dominant::<f32>(shape, 4).unwrap();
        let params = SolverParams {
            stage1_target_systems: 16,
            onchip_size: 512,
            thomas_switch: 128,
            variant: BaseVariant::Strided,
        };
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        solve_batch_on_gpu(&mut gpu, &batch, &params)
            .unwrap()
            .sim_time_s
            / shape.total_equations() as f64
    };
    let few = per_eq(32);
    let many = per_eq(2048);
    assert!(
        few < many * 20.0,
        "few-system penalty should be bounded: {few:.3e} vs {many:.3e}"
    );
}

/// The launch-overhead asymmetry (Figure 1's decision box): for a workload
/// of *many* systems, the plan must never schedule stage 1.
#[test]
fn many_systems_skip_stage1_entirely() {
    for m in [64usize, 1024] {
        let shape = WorkloadShape::new(m, 16384);
        let batch = random_dominant::<f32>(shape, 5).unwrap();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());
        let out = solve_batch_on_gpu(&mut gpu, &batch, &SolverParams::default_untuned()).unwrap();
        assert_eq!(out.plan.stage1_steps, 0, "m={m} must not use stage 1");
        assert_eq!(out.plan.num_launches(), 2, "stage 2 + base only");
    }
}
