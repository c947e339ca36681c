//! Integration tests for the fault-injection harness and the resilient
//! solve pipeline: the forced-fault fixtures must all pass, a disabled
//! fault plan must not change results or simulated timings by a single bit,
//! injection must be deterministic per seed, recovery must surface in the
//! trace/metrics rollup, and — property-tested — any solve the resilience
//! layer accepts must agree with the pivoted-LU CPU reference.

use proptest::prelude::*;
use trisolve::chaos;
use trisolve::harness::HarnessOptions;
use trisolve::prelude::*;
use trisolve::tridiag::cpu_batch::{solve_batch_sequential, BatchAlgorithm};
use trisolve::tridiag::workloads::{ill_conditioned, non_dominant};

fn resilient_f64(
    plan: FaultPlan,
    shape: WorkloadShape,
    batch: &SystemBatch<f64>,
    params: &SolverParams,
    policy: &ResiliencePolicy,
) -> (
    Gpu<f64>,
    Result<ResilientOutcome<f64>, trisolve::solver::CoreError>,
) {
    let mut gpu: Gpu<f64> = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
    let mut session = SolveSession::new(&mut gpu, shape).unwrap();
    let r = session.solve_resilient(&mut gpu, batch, params, policy);
    (gpu, r)
}

#[test]
fn forced_fault_fixtures_all_pass() {
    let fixtures = chaos::fixture_checks().unwrap();
    assert_eq!(fixtures.len(), 4);
    for f in &fixtures {
        assert!(f.passed, "{} failed: {}", f.name, f.detail);
        assert!(!f.detail.is_empty());
    }
}

/// The acceptance bit-identity criterion: with faults disabled, the
/// resilient pipeline is exactly the plain solve — same solution bits,
/// same simulated time bits, same device clock.
#[test]
fn disabled_fault_plan_is_bit_identical_to_plain_solve() {
    let shape = WorkloadShape::new(16, 2048);
    let batch = random_dominant::<f64>(shape, 2011).unwrap();
    let params = StaticTuner.params_for(shape, DeviceSpec::gtx_470().queryable(), 8);
    let policy = ResiliencePolicy::for_elem_bytes(8);

    let (gpu, r) = resilient_f64(FaultPlan::disabled(), shape, &batch, &params, &policy);
    let r = r.unwrap();
    assert!(r.first_try());

    let mut plain_gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
    let mut session = SolveSession::new(&mut plain_gpu, shape).unwrap();
    let plain = session.solve(&mut plain_gpu, &batch, &params).unwrap();

    assert_eq!(plain.x, r.outcome.x);
    assert_eq!(plain.sim_time_s.to_bits(), r.outcome.sim_time_s.to_bits());
    assert_eq!(plain_gpu.elapsed_s().to_bits(), gpu.elapsed_s().to_bits());
    assert!(gpu.fault_log().is_none(), "no injector may be attached");
}

/// Persistent faults leave only the CPU LU reference standing — and its
/// solution is bit-identical to calling the host LU driver directly.
#[test]
fn cpu_fallback_matches_host_lu_bit_for_bit() {
    let shape = WorkloadShape::new(4, 512);
    let batch = random_dominant::<f64>(shape, 7).unwrap();
    let params = SolverParams::default_untuned();
    let policy = ResiliencePolicy::for_elem_bytes(8);
    let plan = FaultPlan::seeded(13).with_launch_failures(1.0);

    let (_, r) = resilient_f64(plan, shape, &batch, &params, &policy);
    let r = r.unwrap();
    assert_eq!(r.recovered_by, "cpu-reference");
    let lu = solve_batch_sequential(&batch, BatchAlgorithm::Lu).unwrap();
    assert_eq!(r.outcome.x, lu, "CPU fallback must be the LU reference");
}

/// Same seed, same fault sites, same recovery, same bits — the campaign's
/// reproducibility promise.
#[test]
fn fault_campaigns_are_deterministic_per_seed() {
    let shape = WorkloadShape::new(8, 1024);
    let batch = random_dominant::<f64>(shape, 5).unwrap();
    let params = SolverParams::default_untuned();
    let policy = ResiliencePolicy::for_elem_bytes(8);
    let plan = || {
        FaultPlan::seeded(21)
            .with_launch_failures(0.2)
            .with_bit_flips(0.1)
            .with_max_faults(4)
    };

    let (gpu1, r1) = resilient_f64(plan(), shape, &batch, &params, &policy);
    let (gpu2, r2) = resilient_f64(plan(), shape, &batch, &params, &policy);
    let (r1, r2) = (r1.unwrap(), r2.unwrap());
    assert_eq!(r1.outcome.x, r2.outcome.x);
    assert_eq!(r1.retries, r2.retries);
    assert_eq!(r1.attempts, r2.attempts);
    assert_eq!(gpu1.elapsed_s().to_bits(), gpu2.elapsed_s().to_bits());
    assert_eq!(
        gpu1.fault_log().map(trisolve::gpu::FaultLog::injected),
        gpu2.fault_log().map(trisolve::gpu::FaultLog::injected)
    );

    // A different seed takes a different path (different fault sites).
    let other = FaultPlan::seeded(22)
        .with_launch_failures(0.2)
        .with_bit_flips(0.1)
        .with_max_faults(4);
    let (gpu3, r3) = resilient_f64(other, shape, &batch, &params, &policy);
    let r3 = r3.unwrap();
    assert!(
        gpu3.elapsed_s().to_bits() != gpu1.elapsed_s().to_bits()
            || gpu3.fault_log().map(|l| l.records.len())
                != gpu1.fault_log().map(|l| l.records.len())
            || r3.attempts != r1.attempts,
        "different seeds should not replay the identical campaign"
    );
}

/// Recovery is observable end-to-end: fault/retry/residual instants land
/// in the trace and roll up into the metrics report.
#[test]
fn recovery_rolls_up_into_the_metrics_report() {
    let shape = WorkloadShape::new(4, 512);
    let batch = random_dominant::<f64>(shape, 42).unwrap();
    let params = SolverParams::default_untuned();
    let policy = ResiliencePolicy::for_elem_bytes(8);
    let plan = FaultPlan::seeded(7)
        .with_launch_failures(1.0)
        .with_max_faults(2);

    let mut gpu: Gpu<f64> = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
    let tracer = Tracer::enabled();
    gpu.set_tracer(tracer.clone());
    let mut session = SolveSession::new(&mut gpu, shape).unwrap();
    let r = session
        .solve_resilient(&mut gpu, &batch, &params, &policy)
        .unwrap();
    assert_eq!(r.retries, 2);

    let events = tracer.events();
    let counters = tracer.counters();
    let report = MetricsReport::from_trace(&events, &counters);
    assert_eq!(report.faults, 2);
    assert_eq!(report.retries, 2);
    assert_eq!(report.residual_checks, 1);
    assert!(report.render(4).contains("resilience: 2 faults injected"));
    // Counters agree with the instants.
    assert!(counters.contains(&("faults_injected", 2)));
    assert!(counters.contains(&("retries", 2)));
}

/// The quick campaign (the CI smoke) must fully recover.
#[test]
fn quick_campaign_recovers_every_case() {
    let cases = chaos::campaign(&HarnessOptions::quick(), chaos::CHAOS_SEED).unwrap();
    assert!(!cases.is_empty());
    for c in &cases {
        assert!(
            c.recovered,
            "{}: {}",
            c.label,
            c.error.as_deref().unwrap_or("?")
        );
        assert!(c.residual.is_finite());
        assert!(c.attempts >= 1);
    }
    // The seeded mix actually injects faults somewhere in the sweep.
    assert!(cases.iter().map(|c| c.faults_injected).sum::<usize>() > 0);
}

/// Strategy: a workload from any of the campaign's three classes.
fn stress_batch() -> impl Strategy<Value = SystemBatch<f64>> {
    (1usize..5, 8usize..160, any::<u64>(), 0usize..3).prop_map(|(m, n, seed, class)| {
        let shape = WorkloadShape::new(m, n);
        match class {
            0 => random_dominant::<f64>(shape, seed).unwrap(),
            1 => ill_conditioned::<f64>(shape, seed, 1e-3).unwrap(),
            _ => non_dominant::<f64>(shape, seed, 0.85).unwrap(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the injector does, an accepted resilient solve agrees with
    /// the pivoted-LU reference: bit-for-bit when the CPU step won,
    /// residual-verified within tolerance otherwise.
    #[test]
    fn recovered_solves_agree_with_the_lu_reference(
        batch in stress_batch(),
        fault_seed in any::<u64>(),
    ) {
        let shape = WorkloadShape::new(batch.num_systems, batch.system_size);
        let params = SolverParams::default_untuned();
        let policy = ResiliencePolicy::for_elem_bytes(8).with_residual_tolerance(1e-6);
        let plan = FaultPlan::seeded(fault_seed)
            .with_launch_failures(0.3)
            .with_bit_flips(0.2)
            .with_transfer_corruption(0.1)
            .with_max_faults(6);
        let (_, r) = resilient_f64(plan, shape, &batch, &params, &policy);
        let r = r.unwrap();
        prop_assert!(r.residual <= 1e-6, "accepted residual {:.3e}", r.residual);
        if r.recovered_by == "cpu-reference" {
            let lu = solve_batch_sequential(&batch, BatchAlgorithm::Lu).unwrap();
            prop_assert_eq!(&r.outcome.x, &lu);
        } else {
            // The GPU solution passed the same residual bar the LU
            // reference clears — silent corruption cannot have survived.
            let res = batch_worst_relative_residual(&batch, &r.outcome.x).unwrap();
            prop_assert!(res <= 1e-6, "residual {res:.3e}");
        }
    }
}
