//! Priced measurement is the executed measurement.
//!
//! The dynamic tuner prices candidates from the kernels' cost meters
//! ([`SolveSession::price`]) instead of running the numerics. That is only
//! sound because every `KernelStats` is a pure function of (device, launch
//! config, op), independent of the data. These tests state that invariant
//! and check it:
//!
//! * over the shrunk figure grid plus the many-small grid, on every paper
//!   device, in both precisions and for every admissible layout, executing
//!   on the tuning batch, executing on another batch, and pricing charge
//!   bit-identical per-launch stats and advance the clock identically;
//! * a tuner that prices (plain device) and a tuner that executes (a device
//!   with an armed but zero-budget fault plan) reach the same
//!   `TunedConfig` through the same sequence of candidate costs.

use trisolve::autotune::tuners::clamp_to_device;
use trisolve::autotune::Microbench;
use trisolve::gpu::KernelStats;
use trisolve::prelude::*;
use trisolve::solver::kernels::{elem_bytes, GpuScalar};
use trisolve_bench::experiments::{many_small_grid, paper_grid};

/// Grid shrink factor: the `--quick` grid of the figure binaries.
const SHRINK: usize = 4;

/// Seed of the second, independent data set.
const OTHER_SEED: u64 = 0x005e_ed0f_da7a;

/// The bit pattern of every compared `KernelStats` field.
fn fingerprint(s: &KernelStats) -> (String, usize, usize, Vec<u64>, String) {
    let t = &s.totals;
    let bits = [
        t.gmem_read_bytes,
        t.gmem_write_bytes,
        t.gmem_txn_bytes,
        t.gmem_warp_txns,
        t.smem_accesses,
        t.smem_conflict_accesses,
        t.thread_ops,
        t.barriers,
        s.exec_time_s,
        s.overhead_s,
        s.bw_floor_s,
        s.stall_exec_s,
    ]
    .iter()
    .map(|v| v.to_bits())
    .collect();
    (
        s.label.clone(),
        s.grid_blocks,
        s.block_threads,
        bits,
        format!("{:?}", s.limited_by),
    )
}

/// One run's record: per-launch fingerprints, the returned seconds and
/// the device clock's advance, both as bits.
type Run = (Vec<(String, usize, usize, Vec<u64>, String)>, u64, u64);

fn run<T: GpuScalar>(
    dev: &DeviceSpec,
    shape: WorkloadShape,
    params: &SolverParams,
    batch: Option<&SystemBatch<T>>,
) -> Run {
    let mut gpu: Gpu<T> = Gpu::new(dev.clone());
    let mut session = SolveSession::new(&mut gpu, shape).unwrap();
    let begin = gpu.elapsed_s();
    let secs = match batch {
        Some(b) => session.measure(&mut gpu, b, params),
        None => session.price(&mut gpu, params),
    }
    .unwrap();
    let launches = gpu.timeline().iter().map(fingerprint).collect();
    (
        launches,
        secs.to_bits(),
        (gpu.elapsed_s() - begin).to_bits(),
    )
}

/// Check priced ≡ executed ≡ executed-on-other-data over the grid for one
/// device and precision; returns the number of points compared.
fn check_device<T: GpuScalar>(dev: &DeviceSpec) -> usize {
    let q = dev.queryable().clone();
    let eb = elem_bytes::<T>();
    let mut points = 0;
    let shapes = paper_grid(SHRINK)
        .into_iter()
        .chain(many_small_grid(SHRINK));
    for shape in shapes {
        let base = clamp_to_device(StaticTuner.params_for(shape, &q, eb), &q, eb);
        // A fresh harness per shape holds one tuning batch at a time.
        let mut mb: Microbench<T> = Microbench::new();
        let other = random_dominant::<T>(shape, OTHER_SEED).unwrap();
        for variant in [
            BaseVariant::Strided,
            BaseVariant::Coalesced,
            BaseVariant::Interleaved,
        ] {
            let params = SolverParams { variant, ..base };
            if trisolve::analysis::statically_rejected(shape, &params, &q, eb).is_some() {
                continue;
            }
            let tuning = run(dev, shape, &params, Some(mb.batch(shape)));
            let label = format!("{} {} {variant:?} f{}", q.name, shape.label(), eb * 8);
            assert!(!tuning.0.is_empty(), "{label}: no launches");
            assert_eq!(
                tuning,
                run(dev, shape, &params, Some(&other)),
                "{label}: stats depend on the data"
            );
            assert_eq!(
                tuning,
                run::<T>(dev, shape, &params, None),
                "{label}: priced stats differ from executed"
            );
            points += 1;
        }
    }
    points
}

fn check_device_both_precisions(dev: DeviceSpec) {
    let f32_points = check_device::<f32>(&dev);
    let f64_points = check_device::<f64>(&dev);
    // Every shape admits at least the staged layouts.
    let shapes = paper_grid(SHRINK).len() + many_small_grid(SHRINK).len();
    assert!(f32_points >= 2 * shapes, "{f32_points} f32 points");
    assert!(f64_points >= 2 * shapes, "{f64_points} f64 points");
}

#[test]
fn kernel_stats_are_data_independent_and_priced_exactly_8800() {
    check_device_both_precisions(DeviceSpec::geforce_8800_gtx());
}

#[test]
fn kernel_stats_are_data_independent_and_priced_exactly_280() {
    check_device_both_precisions(DeviceSpec::gtx_280());
}

#[test]
fn kernel_stats_are_data_independent_and_priced_exactly_470() {
    check_device_both_precisions(DeviceSpec::gtx_470());
}

/// The candidate costs a traced tuning run evaluated, in order, as bits.
fn eval_costs(tracer: &Tracer) -> Vec<Option<u64>> {
    tracer
        .events()
        .iter()
        .filter(|e| e.cat == "tuner" && e.name == "eval")
        .map(|e| e.arg_f64("cost_s").map(f64::to_bits))
        .collect()
}

/// Run `tune` on a plain device (priced) and on a device with an armed,
/// zero-budget fault plan (executed); both must agree exactly.
fn priced_and_executed_tuning_agree(dev: &DeviceSpec, tune: impl Fn(&mut Gpu<f32>) -> TunedConfig) {
    let traced = |mut gpu: Gpu<f32>| {
        let tracer = Tracer::enabled();
        gpu.set_tracer(tracer.clone());
        let cfg = tune(&mut gpu);
        assert_eq!(gpu.faults_injected(), 0);
        (cfg, eval_costs(&tracer))
    };
    let (priced, priced_costs) = traced(Gpu::new(dev.clone()));
    let armed = FaultPlan::seeded(1)
        .with_launch_failures(1.0)
        .with_max_faults(0);
    let executing = Gpu::with_faults(dev.clone(), armed);
    assert!(executing.faults_enabled());
    let (executed, executed_costs) = traced(executing);
    let name = &dev.queryable().name;
    assert_eq!(priced, executed, "{name}: tuned configs differ");
    assert_eq!(priced.evaluations, priced_costs.len(), "{name}");
    assert_eq!(priced_costs, executed_costs, "{name}: eval costs differ");
}

#[test]
fn priced_tuning_matches_executed_tuning_on_every_device() {
    for dev in DeviceSpec::paper_devices() {
        for shape in [
            WorkloadShape::new(128, 2048),
            WorkloadShape::new(1, 1 << 17),
        ] {
            priced_and_executed_tuning_agree(&dev, |gpu| DynamicTuner::new().tune_for(gpu, shape));
        }
        priced_and_executed_tuning_agree(&dev, |gpu| {
            DynamicTuner::new().tune(gpu, TuningBudget::quick())
        });
    }
}
