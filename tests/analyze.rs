//! Integration tests for the static analyzer harness: the planted-defect
//! fixtures must all be refuted, the full Figure 5–8 matrix must certify
//! on every device in both precisions, statically-certified plans must
//! run dynamically sanitizer-clean (soundness), and the tuner's pruning
//! predicate must agree bit-for-bit with the execution engine's verdict.

use proptest::prelude::*;
use trisolve::analysis::{analyze_params, statically_rejected};
use trisolve::analyze;
use trisolve::harness::HarnessOptions;
use trisolve::prelude::*;
use trisolve::sanitize;
use trisolve::solver::kernels::elem_bytes;
use trisolve_autotune::Microbench;

#[test]
fn planted_defect_fixtures_all_refuted() {
    let fixtures = analyze::fixture_checks();
    assert_eq!(fixtures.len(), 5);
    for f in &fixtures {
        assert!(f.passed, "{} not refuted: {}", f.name, f.detail);
        assert!(!f.detail.is_empty());
    }
}

#[test]
fn full_matrix_certifies_on_every_device_in_both_precisions() {
    let cases = analyze::sweep(&HarnessOptions::full());
    // Per device and precision: every grid shape (paper + many-small) x
    // its admissible layout variants (the interleaved family joins at
    // the 32-system batch floor), plus the repack and baseline kernel
    // sets.
    let mut shapes = WorkloadShape::paper_grid();
    shapes.extend(WorkloadShape::many_small_grid());
    let per = 2 + shapes
        .iter()
        .map(|s| {
            if s.num_systems >= trisolve::solver::params::INTERLEAVED_MIN_SYSTEMS {
                3
            } else {
                2
            }
        })
        .sum::<usize>();
    assert_eq!(cases.len(), 3 * 2 * per);
    assert!(
        cases
            .iter()
            .any(|c| c.label.contains("64Kx32") && c.label.contains("Interleaved")),
        "no many-small interleaved case in the sweep"
    );
    for c in &cases {
        assert!(c.certified, "{}: {}", c.label, c.failures.join("; "));
        assert!(c.obligations > 0, "{}: nothing proven", c.label);
    }
}

#[test]
fn cross_validation_finds_no_soundness_gap() {
    let checks = analyze::cross_validate(&HarnessOptions::quick()).unwrap();
    assert!(!checks.is_empty());
    for c in &checks {
        assert!(c.certified, "{}: sample did not certify", c.label);
        assert!(c.is_sound(), "{}: {}", c.label, c.hazards.join("; "));
    }
}

fn devices() -> Vec<DeviceSpec> {
    DeviceSpec::paper_devices()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Soundness: any plan the analyzer certifies on the (shrunk) paper
    /// grid runs under the dynamic sanitizer without a single hazard.
    #[test]
    fn certified_plans_run_sanitizer_clean(
        dev_idx in 0usize..3,
        shape_idx in 0usize..4,
        strided in any::<bool>(),
    ) {
        let dev = &devices()[dev_idx];
        let shapes = WorkloadShape::shrunk_paper_grid(16);
        let shape = shapes[shape_idx % shapes.len()];
        let variant = if strided { BaseVariant::Strided } else { BaseVariant::Coalesced };
        let params = SolverParams {
            variant,
            ..StaticTuner.params_for(shape, dev.queryable(), 8)
        };
        let report = analyze_params(shape, &params, dev.queryable(), 8).unwrap();
        prop_assert!(report.certified(), "{}", report.failures().join("; "));
        let case = sanitize::solve_case::<f64>(dev, shape, variant, "f64").unwrap();
        prop_assert!(case.is_clean(), "{}: {}", case.label, case.hazards.join("; "));
    }

    /// Bit-identical pruning: the candidates the microbenchmark prunes
    /// are exactly those `statically_rejected` flags, and exactly those
    /// priced `+inf` — never a candidate the engine would have run.
    #[test]
    fn pruning_is_exactly_the_engine_rejection_set(
        dev_idx in 0usize..3,
        onchip_log2 in 5u32..13,
        thomas_log2 in 2u32..7,
    ) {
        let dev = &devices()[dev_idx];
        let shape = WorkloadShape::new(16, 2048);
        let params = SolverParams {
            onchip_size: 1 << onchip_log2,
            thomas_switch: 1 << thomas_log2,
            ..SolverParams::default_untuned()
        };
        let rejected =
            statically_rejected(shape, &params, dev.queryable(), elem_bytes::<f32>());
        let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
        let mut bench: Microbench<f32> = Microbench::new();
        let cost = bench.measure(&mut gpu, shape, &params);
        prop_assert_eq!(bench.pruned_candidates == 1, rejected.is_some());
        prop_assert!(
            cost.is_infinite() == rejected.is_some(),
            "cost {} vs static verdict {:?}", cost, rejected
        );
        prop_assert_eq!(bench.measurements, 1);
    }
}
