//! Integration tests for the sanitizer harness: the injected-hazard
//! fixtures must all be detected, shipping kernels must sweep clean in both
//! precisions and both layout variants, and enabling the sanitizer must not
//! change a solve's results or simulated timing by a single bit.

use trisolve::harness::HarnessOptions;
use trisolve::prelude::*;
use trisolve::sanitize;

#[test]
fn injected_hazard_fixtures_all_detected() {
    let fixtures = sanitize::fixture_checks().unwrap();
    assert_eq!(fixtures.len(), 4);
    for f in &fixtures {
        assert!(f.passed, "{} not detected: {}", f.name, f.detail);
        assert!(!f.detail.is_empty());
    }
}

#[test]
fn shipping_kernels_sweep_clean_in_both_precisions() {
    let opts = HarnessOptions {
        devices: vec![DeviceSpec::gtx_470()],
        shrink: 16,
        both_precisions: true,
    };
    let cases = sanitize::sweep(&opts).unwrap();
    // 4 workloads x 2 staged variants + the interleaved many-small case
    // + repack + baselines, per precision.
    assert_eq!(cases.len(), 22);
    assert!(
        cases
            .iter()
            .any(|c| c.label.contains("Interleaved") && c.is_clean()),
        "no clean interleaved case in the sweep"
    );
    for c in &cases {
        assert!(c.is_clean(), "{}: {:?}", c.label, c.hazards);
        assert!(c.launches > 0, "{}: nothing ran", c.label);
    }
    // The single-system workload must exercise every stage (stage 1 splits,
    // stage 2, base kernel), not just the base kernel.
    assert!(
        cases.iter().any(|c| c.launches >= 3),
        "no multi-stage case in the sweep"
    );
}

fn solve_with_and_without_sanitizer<T: trisolve::solver::kernels::GpuScalar>(
    shape: WorkloadShape,
    variant: BaseVariant,
) -> (SolveOutcome<T>, SolveOutcome<T>) {
    let dev = DeviceSpec::gtx_470();
    let batch = random_dominant::<T>(shape, 2011).unwrap();
    let params = SolverParams {
        variant,
        ..StaticTuner.params_for(
            shape,
            dev.queryable(),
            trisolve::solver::kernels::elem_bytes::<T>(),
        )
    };
    let mut plain: Gpu<T> = Gpu::new(dev.clone());
    let off = solve_batch_on_gpu(&mut plain, &batch, &params).unwrap();
    let mut sanitized: Gpu<T> = Gpu::with_sanitizer(dev);
    let on = solve_batch_on_gpu(&mut sanitized, &batch, &params).unwrap();
    let report = sanitized.take_sanitizer_report().unwrap();
    assert!(report.is_clean(), "{report}");
    (off, on)
}

/// The acceptance bit-identity criterion: with the sanitizer off, results
/// and simulated timings are exactly what they are with it on — the shadow
/// state never leaks into the numerics or the cost meters.
#[test]
fn sanitizer_on_off_solves_are_bit_identical() {
    // A multi-stage single-system solve in f32, strided base kernel.
    let (off, on) = solve_with_and_without_sanitizer::<f32>(
        WorkloadShape::new(1, 64 * 1024),
        BaseVariant::Strided,
    );
    assert_eq!(off.x, on.x);
    assert_eq!(off.sim_time_s.to_bits(), on.sim_time_s.to_bits());
    assert_eq!(off.kernel_stats.len(), on.kernel_stats.len());

    // A batched f64 solve through the coalesced (repack) variant.
    let (off, on) = solve_with_and_without_sanitizer::<f64>(
        WorkloadShape::new(16, 4096),
        BaseVariant::Coalesced,
    );
    assert_eq!(off.x, on.x);
    assert_eq!(off.sim_time_s.to_bits(), on.sim_time_s.to_bits());
    for (a, b) in off.kernel_stats.iter().zip(&on.kernel_stats) {
        assert_eq!(
            a.total_time_s().to_bits(),
            b.total_time_s().to_bits(),
            "{}",
            a.label
        );
    }
}
