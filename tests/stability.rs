//! Integration tests for the numerical-stability certifier: the planted
//! stability fixtures must all be refuted, the full certification sweep
//! must contain no false verdicts, and — property-tested — every solve the
//! resilience layer *accepts* under a certified bound must actually land
//! within that bound (the a-priori proof is sound against the observed
//! residual), while campaign acceptance thresholds can only tighten under
//! certification, never loosen.

use proptest::prelude::*;
use trisolve::analysis::certify_plan;
use trisolve::analyze::{stability_fixture_checks, stability_sweep};
use trisolve::harness::{many_small_shape, HarnessOptions};
use trisolve::prelude::*;
use trisolve::solver::kernels::{elem_bytes, GpuScalar};
use trisolve::tridiag::workloads::WorkloadClass;

/// The campaign's workload classes, mirrored from the chaos harness: one
/// the certifier proves, one it proves with a wide error bound, one it
/// must refuse to certify.
const CLASSES: &[WorkloadClass] = &[
    WorkloadClass::Dominant,
    WorkloadClass::IllConditioned { margin: 1e-3 },
    WorkloadClass::NonDominant { dominance: 0.85 },
];

/// Fig. 5–8 shapes (shrunk) plus the many-small regime — the matrix the
/// soundness property samples from.
fn property_grid() -> Vec<WorkloadShape> {
    let mut grid = WorkloadShape::shrunk_paper_grid(4);
    grid.push(many_small_shape(4));
    grid
}

#[test]
fn stability_fixtures_are_exactly_three_and_all_refuted() {
    let fixtures = stability_fixture_checks();
    assert_eq!(fixtures.len(), 3);
    for f in &fixtures {
        assert!(f.passed, "{} not refuted: {}", f.name, f.detail);
        assert!(!f.detail.is_empty());
    }
}

/// The full certification sweep (all paper devices, both precisions): no
/// false proofs (a non-dominant class certified) and no false refutations
/// (a dominant class refused), and both verdict kinds must occur.
#[test]
fn full_stability_sweep_has_no_false_verdicts() {
    let cases = stability_sweep(&HarnessOptions::full());
    assert!(!cases.is_empty());
    for c in &cases {
        assert!(
            c.passed(),
            "{}: expected certified={}, got certified={} ({:?})",
            c.label,
            c.expected_certified,
            c.certified,
            c.failures
        );
    }
    assert!(cases.iter().any(|c| c.certified));
    assert!(cases.iter().any(|c| !c.certified));
}

/// One fault-free resilient solve under the certified-bound policy.
/// Returns `(accepted residual, certified bound)` for certified classes,
/// `None` where the certifier refuses (nothing to be sound about).
fn accepted_residual<T: GpuScalar>(
    shape: WorkloadShape,
    class: WorkloadClass,
    seed: u64,
) -> Option<(f64, f64)> {
    let dev = DeviceSpec::gtx_470();
    let q = dev.queryable();
    let eb = elem_bytes::<T>();
    let params =
        trisolve::autotune::tuners::clamp_to_device(StaticTuner.params_for(shape, q, eb), q, eb);
    let plan = SolvePlan::build(shape, &params, q, eb).expect("plan builds on GTX 470");
    let cert = certify_plan(&plan, class, eb);
    if !cert.certified() {
        // Refusal is only ever correct for the non-dominant class.
        assert!(
            !class.is_dominant(),
            "false refutation for {}: {:?}",
            class.label(),
            cert.failures()
        );
        assert!(cert.bound_rel.is_infinite());
        return None;
    }
    assert!(cert.bound_rel.is_finite() && cert.bound_rel > 0.0);
    if !cert.precision_safe() {
        // The certificate itself warns this precision cannot meet the
        // safety threshold (the tuner gate prices such f32 candidates
        // +inf), so the pipeline is allowed to reject here — acceptance
        // is only required where the certifier calls the precision safe.
        assert!(eb <= 4 && cert.precision_downgrade_recommended());
        return None;
    }

    let batch = class.generate::<T>(shape, seed).unwrap();
    // The campaign's per-class acceptance threshold (mirrors the chaos
    // harness): dominant systems use the precision-matched tolerance, the
    // stress classes get headroom proportional to their conditioning.
    let class_tol = match (class.label(), eb <= 4) {
        ("dominant", true) => 1e-4,
        ("dominant", false) => 1e-8,
        (_, true) => 1e-2,
        (_, false) => 1e-6,
    };
    let legacy = ResiliencePolicy::for_elem_bytes(eb)
        .with_residual_tolerance(class_tol)
        .residual_tolerance;
    let policy = ResiliencePolicy::for_elem_bytes(eb)
        .with_residual_tolerance(class_tol)
        .with_certified_bound(cert.bound_rel);
    // Tighten-only: the adopted tolerance never exceeds the legacy one,
    // and an accepted residual is therefore within the certified bound
    // whenever the bound is the binding constraint.
    assert!(policy.residual_tolerance <= legacy);
    assert!(policy.residual_tolerance <= legacy.max(cert.bound_rel));

    let mut gpu: Gpu<T> = Gpu::new(dev);
    let mut session = SolveSession::new(&mut gpu, shape).unwrap();
    let r = match session.solve_resilient(&mut gpu, &batch, &params, &policy) {
        Ok(r) => r,
        Err(e) => panic!(
            "fault-free resilient solve rejected for {} {} eb={eb} \
             (certified bound {:.3e}, adopted tolerance {:.3e}): {e}",
            class.label(),
            shape.label(),
            cert.bound_rel,
            policy.residual_tolerance
        ),
    };
    let observed = batch_worst_relative_residual(&batch, &r.outcome.x).unwrap();
    Some((observed, cert.bound_rel))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness of the a-priori bound: across the (shrunk) Fig. 5–8 grid
    /// × workload classes × both precisions, every solve the resilience
    /// layer accepts has an observed residual within the certified
    /// forward-error bound.
    #[test]
    fn accepted_solves_stay_within_the_certified_bound(
        shape_idx in 0usize..64,
        class_idx in 0usize..3,
        seed in 0u64..1024,
    ) {
        let grid = property_grid();
        let shape = grid[shape_idx % grid.len()];
        let class = CLASSES[class_idx];
        for (observed, bound) in accepted_residual::<f32>(shape, class, seed)
            .into_iter()
            .chain(accepted_residual::<f64>(shape, class, seed))
        {
            prop_assert!(
                observed <= bound,
                "observed residual {observed:.3e} exceeds certified bound {bound:.3e} \
                 for {} on {}",
                class.label(),
                shape.label()
            );
        }
    }

    /// Threshold monotonicity: for *any* certified bound, adopting it can
    /// only tighten the acceptance tolerance. Finite positive bounds take
    /// the min with the legacy tolerance; infinite, zero, negative or NaN
    /// bounds (refuted certificates) leave it untouched.
    #[test]
    fn certified_bounds_never_loosen_the_acceptance_threshold(
        raw in 1e-18f64..1e6,
        special_idx in 0usize..5,
        eb_idx in 0usize..2,
    ) {
        // Mix arbitrary floats with the boundary values the policy must
        // treat as "no certificate": infinities, NaN, zero, negatives.
        let bound = match special_idx {
            0 => raw,
            1 => f64::INFINITY,
            2 => f64::NAN,
            3 => 0.0,
            _ => -raw.abs(),
        };
        let eb = [4usize, 8][eb_idx];
        let legacy = ResiliencePolicy::for_elem_bytes(eb).residual_tolerance;
        let adopted = ResiliencePolicy::for_elem_bytes(eb)
            .with_certified_bound(bound)
            .residual_tolerance;
        prop_assert!(adopted <= legacy, "threshold loosened: {adopted:e} > {legacy:e}");
        if bound.is_finite() && bound > 0.0 {
            prop_assert_eq!(adopted, legacy.min(bound));
        } else {
            prop_assert_eq!(adopted, legacy);
        }
    }
}

/// The refuted-class bound is infinite, so the campaign keeps its legacy
/// threshold there — certification never disables the residual check.
#[test]
fn refuted_classes_keep_the_legacy_threshold() {
    let dev = DeviceSpec::gtx_470();
    let q = dev.queryable();
    let shape = WorkloadShape::new(16, 2048);
    for &eb in &[4usize, 8] {
        let params = trisolve::autotune::tuners::clamp_to_device(
            StaticTuner.params_for(shape, q, eb),
            q,
            eb,
        );
        let plan = SolvePlan::build(shape, &params, q, eb).unwrap();
        let cert = certify_plan(&plan, WorkloadClass::NonDominant { dominance: 0.85 }, eb);
        assert!(!cert.certified());
        let legacy = ResiliencePolicy::for_elem_bytes(eb).residual_tolerance;
        let adopted = ResiliencePolicy::for_elem_bytes(eb)
            .with_certified_bound(cert.bound_rel)
            .residual_tolerance;
        assert_eq!(adopted, legacy);
    }
}
