//! Cross-crate integration tests: the full generate → tune → solve → verify
//! pipeline, on every paper device, in both precisions, across the workload
//! regimes the Figure 1 workflow distinguishes.

use trisolve::prelude::*;
use trisolve::solver::reference;

fn solve_and_verify<TN: FnOnce(&mut Gpu<f32>) -> SolverParams>(
    device: DeviceSpec,
    shape: WorkloadShape,
    pick_params: TN,
    tolerance: f64,
) -> SolveOutcome<f32> {
    let batch = random_dominant::<f32>(shape, 4242).unwrap();
    let mut gpu: Gpu<f32> = Gpu::new(device);
    let params = pick_params(&mut gpu);
    let outcome = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
    let residual = batch_worst_relative_residual(&batch, &outcome.x).unwrap();
    assert!(
        residual < tolerance,
        "residual {residual:.3e} too large for {} on {}",
        shape.label(),
        gpu.spec().name()
    );
    outcome
}

#[test]
fn every_device_solves_every_workload_regime_untuned() {
    // Small on-chip systems, many big systems (stage 2), few huge systems
    // (stage 1 + 2) — per device, with safe defaults.
    for device in DeviceSpec::paper_devices() {
        for shape in [
            WorkloadShape::new(200, 128),
            WorkloadShape::new(24, 4096),
            WorkloadShape::new(2, 1 << 16),
        ] {
            solve_and_verify(
                device.clone(),
                shape,
                |_| SolverParams::default_untuned(),
                2e-4,
            );
        }
    }
}

#[test]
fn every_device_solves_statically_tuned() {
    for device in DeviceSpec::paper_devices() {
        for shape in [WorkloadShape::new(64, 2048), WorkloadShape::new(1, 1 << 15)] {
            solve_and_verify(
                device.clone(),
                shape,
                |gpu| StaticTuner.params_for(shape, gpu.spec().queryable(), 4),
                2e-4,
            );
        }
    }
}

#[test]
fn dynamic_tuning_end_to_end_never_loses_to_default() {
    for device in DeviceSpec::paper_devices() {
        let shape = WorkloadShape::new(8, 1 << 14);
        let batch = random_dominant::<f32>(shape, 99).unwrap();

        let mut gpu: Gpu<f32> = Gpu::new(device.clone());
        let mut tuner = DynamicTuner::new();
        tuner.tune_for(&mut gpu, shape);
        let tuned = tuner.params_for(shape, gpu.spec().queryable(), 4);

        let t_tuned = {
            let mut g: Gpu<f32> = Gpu::new(device.clone());
            solve_batch_on_gpu(&mut g, &batch, &tuned)
                .unwrap()
                .sim_time_s
        };
        let t_default = {
            let mut g: Gpu<f32> = Gpu::new(device.clone());
            solve_batch_on_gpu(&mut g, &batch, &SolverParams::default_untuned())
                .unwrap()
                .sim_time_s
        };
        assert!(
            t_tuned <= t_default * 1.001,
            "{}: tuned {t_tuned:.6} > default {t_default:.6}",
            device.name()
        );
    }
}

#[test]
fn f64_pipeline_matches_lu_closely() {
    let shape = WorkloadShape::new(12, 4096);
    let batch = random_dominant::<f64>(shape, 5).unwrap();
    let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
    let params = StaticTuner.params_for(shape, gpu.spec().queryable(), 8);
    let outcome = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
    let diff = reference::compare_with_lu(&batch, &outcome).unwrap();
    assert!(diff < 1e-9, "f64 GPU vs LU deviation {diff:.3e}");
}

#[test]
fn gpu_solve_equals_cpu_replay_of_the_same_plan() {
    let shape = WorkloadShape::new(4, 8192);
    let batch = random_dominant::<f64>(shape, 321).unwrap();
    let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
    let params = SolverParams::default_untuned();
    let outcome = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
    let replay = reference::replay_plan_on_cpu(&batch, &outcome.plan).unwrap();
    for (i, (u, v)) in outcome.x.iter().zip(&replay).enumerate() {
        assert!(
            (u - v).abs() <= 1e-12 * (1.0 + v.abs()),
            "divergence at {i}: {u} vs {v}"
        );
    }
}

#[test]
fn application_workloads_solve_accurately() {
    // The three application generators from the paper's introduction.
    let shape = WorkloadShape::new(32, 500);
    let batches: Vec<SystemBatch<f64>> = vec![
        poisson_1d(shape, 1).unwrap(),
        adi_heat_lines(shape, 0.8).unwrap(),
        cubic_spline(shape, 1).unwrap(),
    ];
    for (i, batch) in batches.iter().enumerate() {
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let outcome =
            solve_batch_on_gpu(&mut gpu, batch, &SolverParams::default_untuned()).unwrap();
        let residual = batch_worst_relative_residual(batch, &outcome.x).unwrap();
        assert!(residual < 1e-12, "application {i}: residual {residual:.3e}");
    }
}

#[test]
fn tuning_cache_round_trips_through_solver() {
    let shape = WorkloadShape::new(16, 8192);
    let device = DeviceSpec::gtx_470();
    let path = std::env::temp_dir().join(format!("trisolve-pipeline-{}.json", std::process::id()));
    let key = PlanDb::key(device.name(), 4, shape.system_size, "dominant", "auto");
    {
        let mut db = PlanDb::open(&path);
        let mut gpu: Gpu<f32> = Gpu::new(device.clone());
        let cfg = DynamicTuner::new().tune_for(&mut gpu, shape);
        db.put(key.clone(), cfg);
        db.save().unwrap();
    }
    let mut reloaded = PlanDb::open(&path);
    assert_eq!(reloaded.origin().label(), "loaded");
    let restored = DynamicTuner::from_config(reloaded.get(&key).expect("config stored"));
    let batch = random_dominant::<f32>(shape, 77).unwrap();
    let mut gpu: Gpu<f32> = Gpu::new(device.clone());
    let params = restored.params_for(shape, gpu.spec().queryable(), 4);
    let outcome = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
    assert!(batch_worst_relative_residual(&batch, &outcome.x).unwrap() < 1e-4);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn huge_single_system_runs_all_four_stages() {
    let shape = WorkloadShape::new(1, 1 << 18);
    let outcome = solve_and_verify(
        DeviceSpec::gtx_470(),
        shape,
        |_| SolverParams::default_untuned(),
        2e-4,
    );
    assert!(outcome.plan.stage1_steps >= 4, "stage 1 must engage");
    assert!(outcome.plan.stage2_steps >= 1, "stage 2 must engage");
    // One launch per stage-1 step + one stage-2 launch + the base kernel.
    assert_eq!(
        outcome.kernel_stats.len() as u32,
        outcome.plan.stage1_steps + 1 + 1
    );
}

#[test]
fn out_of_memory_is_reported_not_panicked() {
    // A workload bigger than the 8800's 768 MB of global memory.
    let shape = WorkloadShape::new(48, 1 << 19); // 9 buffers x 100 MB
    let batch = random_dominant::<f32>(shape, 1).unwrap();
    let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::geforce_8800_gtx());
    let err = solve_batch_on_gpu(&mut gpu, &batch, &SolverParams::default_untuned());
    assert!(err.is_err());
}

/// Every launch a solve executes is the launch its plan describes: same
/// label and geometry, in plan order, for every op of every plan over the
/// shrunk paper grid × devices × layouts × precisions.
fn described_launches_are_executed<T: trisolve::solver::kernels::GpuScalar>() {
    use trisolve::solver::params::INTERLEAVED_MIN_SYSTEMS;
    let eb = trisolve::solver::kernels::elem_bytes::<T>();
    for device in DeviceSpec::paper_devices() {
        for shape in WorkloadShape::shrunk_paper_grid(16) {
            let batch = random_dominant::<T>(shape, 7).unwrap();
            let mut variants = vec![BaseVariant::Strided, BaseVariant::Coalesced];
            if shape.num_systems >= INTERLEAVED_MIN_SYSTEMS {
                variants.push(BaseVariant::Interleaved);
            }
            for variant in variants {
                let params = SolverParams {
                    variant,
                    ..SolverParams::default_untuned()
                };
                let mut gpu: Gpu<T> = Gpu::new(device.clone());
                let outcome = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
                let executed: Vec<_> = outcome
                    .kernel_stats
                    .iter()
                    .map(|s| (s.label.clone(), s.grid_blocks, s.block_threads))
                    .collect();
                let described: Vec<_> = outcome
                    .plan
                    .descriptors()
                    .map(|d| d.config(eb))
                    .map(|c| (c.label, c.grid_blocks, c.block_threads))
                    .collect();
                assert_eq!(executed.len(), outcome.plan.ops.len());
                assert_eq!(
                    executed,
                    described,
                    "{} {} {variant:?} {eb} B",
                    device.name(),
                    shape.label()
                );
            }
        }
    }
}

#[test]
fn described_launches_are_executed_f32() {
    described_launches_are_executed::<f32>();
}

#[test]
fn described_launches_are_executed_f64() {
    described_launches_are_executed::<f64>();
}
