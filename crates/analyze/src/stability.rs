//! Numerical-stability certifier: interval abstract interpretation over the
//! solver recurrences.
//!
//! The memory prover ([`crate::proof`]) walks a plan's *access* summaries;
//! this module walks its *recurrence* summaries
//! ([`trisolve_core::kernels::recurrence`]) with an interval domain over the
//! row dominance ratio `δ = (|a| + |c|) / |b|` and proves, per
//! `(plan, workload class, precision)` point:
//!
//! * **(a) dominance preservation** — starting from the class's worst-case
//!   ratio ([`WorkloadClass::dominance_ratio`]), every CR/PCR step maps
//!   `δ < 1` to `δ' = min(δ, δ² / (1 − δ²)) < 1` (the classical
//!   dominance-preservation bound for cyclic reduction: the reduced system's
//!   off-diagonal mass is at most `δ²/(1−δ²)` of its diagonal, and strict
//!   dominance is never lost). A class entering at `δ ≥ 1` is refuted.
//! * **(b) pivot-freedom** — every serial Thomas phase entered at ratio `δ`
//!   has pivots bounded below: `|b̂ᵢ| ≥ |bᵢ|·(1 − δ) > 0`. For `δ ≥ 1` a
//!   zero pivot is constructible and the obligation is refuted.
//! * **(c) an a-priori forward error bound** — each launch contributes its
//!   sequential rounding-op count weighted by the error growth factor
//!   `(1 + δ) / (1 − δ)` at stage entry; the certified relative bound is
//!   `C_SAFETY · Σ ops·growth · u` with `u` the precision's unit roundoff
//!   (also reported in ulps, i.e. divided by `u`).
//!
//! Certificates feed three consumers: the tuner's precision-safety gate
//! (`Microbench` prices f32 candidates whose bound exceeds
//! [`F32_SAFETY_THRESHOLD`] at `+inf`), the resilience layer (residual
//! acceptance thresholds tighten to the certified bound), and the
//! `trisolve analyze --stability` sweep, whose planted fixtures this module
//! must refute.

use serde::Serialize;
use trisolve_core::kernels::RecurrenceKind;
use trisolve_core::SolvePlan;
use trisolve_tridiag::workloads::WorkloadClass;

use crate::proof::Obligation;

/// Safety factor between the first-order rounding model and the certified
/// bound, absorbing constants the per-row op counts deliberately ignore
/// (error interaction terms, padding rows, norm equivalence). Calibrated
/// against the soundness proptests: every observed clean-solve residual
/// across fig5–8 × classes × precisions sits below the certified bound.
pub const C_SAFETY: f64 = 32.0;

/// Largest certified relative error bound the tuner accepts for an f32
/// candidate: above one part in a hundred, the gate refuses the candidate
/// and recommends the f64 path instead.
pub const F32_SAFETY_THRESHOLD: f64 = 1e-2;

/// Unit roundoff of the element type (`2⁻²⁴` for f32, `2⁻⁵³` for f64),
/// keyed by element width like the rest of the planning stack.
pub fn unit_roundoff(elem_bytes: usize) -> f64 {
    if elem_bytes <= 4 {
        f32::EPSILON as f64 / 2.0
    } else {
        f64::EPSILON / 2.0
    }
}

/// One CR/PCR step's dominance-ratio transfer function.
///
/// For a system with row ratio `δ < 1`, the stride-doubled system produced
/// by one reduction step has row ratio at most `δ² / (1 − δ²)`; since the
/// step also never *loses* strict dominance, the interval bound is clamped:
/// `δ' = min(δ, δ² / (1 − δ²))`. Ratios at or above 1 (dominance already
/// broken) are propagated unchanged — no recovery is ever claimed.
pub fn pcr_dominance_transfer(delta: f64) -> f64 {
    if delta >= 1.0 || !delta.is_finite() {
        return delta;
    }
    let d2 = delta * delta;
    delta.min(d2 / (1.0 - d2))
}

/// Amplification of one rounding error through elimination at row ratio
/// `δ`: the classical `(1 + δ) / (1 − δ)` growth factor, infinite once
/// dominance is lost.
pub fn error_growth(delta: f64) -> f64 {
    if delta >= 1.0 || !delta.is_finite() {
        return f64::INFINITY;
    }
    (1.0 + delta) / (1.0 - delta)
}

/// The dominance ratio entering each launch of a plan, starting from the
/// class's worst-case ratio and stepping [`pcr_dominance_transfer`] through
/// every PCR step. Element `i` is the ratio *entering* launch `i`.
pub fn stage_entry_ratios(recurrences: &[RecurrenceKind], delta0: f64) -> Vec<f64> {
    let mut ratios = Vec::with_capacity(recurrences.len());
    let mut delta = delta0;
    for r in recurrences {
        ratios.push(delta);
        for _ in 0..r.pcr_steps() {
            delta = pcr_dominance_transfer(delta);
        }
    }
    ratios
}

/// A stability certificate for one `(plan, class, precision)` point.
#[derive(Debug, Clone, Serialize)]
pub struct StabilityCertificate {
    /// The workload class the certificate assumes.
    pub class: WorkloadClass,
    /// Element width the error bound is stated for (4 = f32, 8 = f64).
    pub elem_bytes: usize,
    /// Dominance ratio entering each launch, in plan order.
    pub stage_entry_ratios: Vec<f64>,
    /// The three proof obligations (dominance, pivots, error bound).
    pub obligations: Vec<Obligation>,
    /// Certified a-priori relative forward error bound (`+∞` when
    /// dominance is refuted).
    pub bound_rel: f64,
    /// The same bound in ulps of the element type (`bound_rel / u`).
    pub bound_ulps: f64,
}

impl StabilityCertificate {
    /// All obligations proven: dominance preserved stage-by-stage, every
    /// Thomas pivot bounded away from zero, and the error bound finite.
    pub fn certified(&self) -> bool {
        self.obligations.iter().all(|o| o.proven)
    }

    /// The failed obligations (empty when certified).
    pub fn failures(&self) -> Vec<&Obligation> {
        self.obligations.iter().filter(|o| !o.proven).collect()
    }

    /// The tuner's precision-safety predicate: certified, and — for f32 —
    /// the certified bound within [`F32_SAFETY_THRESHOLD`].
    pub fn precision_safe(&self) -> bool {
        self.certified() && (self.elem_bytes > 4 || self.bound_rel <= F32_SAFETY_THRESHOLD)
    }

    /// True when the class is numerically sound but too ill-conditioned for
    /// f32: dominance and pivots certify, yet the f32 bound exceeds the
    /// safety threshold — the f64 path would pass. The tuner counts these
    /// as `precision_downgraded`.
    pub fn precision_downgrade_recommended(&self) -> bool {
        self.elem_bytes <= 4 && self.certified() && self.bound_rel > F32_SAFETY_THRESHOLD
    }
}

/// Certify a plan's numerics for a workload class at a given precision.
///
/// Walks the recurrence of each op's descriptor
/// ([`SolvePlan::descriptors`]) — the same descriptor the launch configs
/// and access summaries come from, so the certificate describes exactly
/// the recurrences the plan executes.
pub fn certify_plan(
    plan: &SolvePlan,
    class: WorkloadClass,
    elem_bytes: usize,
) -> StabilityCertificate {
    let recurrences: Vec<_> = plan.descriptors().map(|d| d.recurrence()).collect();
    let delta0 = class.dominance_ratio();
    let ratios = stage_entry_ratios(&recurrences, delta0);
    let u = unit_roundoff(elem_bytes);

    // (a) Dominance preservation.
    let exit = ratios.last().copied().unwrap_or(delta0);
    let dominance = if delta0 < 1.0 {
        Obligation {
            name: "dominance-preservation".into(),
            proven: true,
            detail: format!(
                "class '{}' enters at ratio {delta0:.6}; every CR/PCR step maps \
                 d < 1 to min(d, d^2/(1-d^2)) < 1 (exit ratio {exit:.6})",
                class.label()
            ),
        }
    } else {
        Obligation {
            name: "dominance-preservation".into(),
            proven: false,
            detail: format!(
                "class '{}' enters at ratio {delta0:.6} >= 1: dominance is broken \
                 before the first reduction step and no stage restores it",
                class.label()
            ),
        }
    };

    // (b) Pivot-freedom: every Thomas phase entered at ratio < 1 has
    // pivots |b^| >= |b|(1 - d) > 0.
    let mut worst_pivot_ratio: Option<f64> = None;
    for (rec, &r) in recurrences.iter().zip(&ratios) {
        if rec.thomas_len() > 0 {
            worst_pivot_ratio = Some(worst_pivot_ratio.map_or(r, |w: f64| w.max(r)));
        }
    }
    let pivots = match worst_pivot_ratio {
        Some(r) if r < 1.0 => Obligation {
            name: "pivot-freedom".into(),
            proven: true,
            detail: format!(
                "every Thomas phase enters at ratio <= {r:.6}: pivots bounded \
                 below by |b|*(1 - d) = |b|*{:.3e}",
                1.0 - r
            ),
        },
        Some(r) => Obligation {
            name: "pivot-freedom".into(),
            proven: false,
            detail: format!(
                "a Thomas phase enters at ratio {r:.6} >= 1: a zero pivot is \
                 constructible (b[i] - a[i]*c[i-1]/b[i-1] can vanish exactly)",
            ),
        },
        None => Obligation {
            name: "pivot-freedom".into(),
            proven: true,
            detail: "plan has no serial Thomas phase".into(),
        },
    };

    // (c) A-priori forward error bound: per-launch rounding ops weighted by
    // the growth factor at stage entry (conservative: the ratio only
    // shrinks inside a launch).
    let weighted_ops: f64 = recurrences
        .iter()
        .zip(&ratios)
        .map(|(rec, &r)| rec.rounding_ops() as f64 * error_growth(r))
        .sum();
    let bound_ulps = C_SAFETY * weighted_ops;
    let bound_rel = bound_ulps * u;
    let error_bound = if bound_rel.is_finite() {
        Obligation {
            name: "error-bound".into(),
            proven: true,
            detail: format!(
                "certified relative forward error <= {bound_rel:.3e} \
                 ({bound_ulps:.1} ulps at {} B)",
                elem_bytes
            ),
        }
    } else {
        Obligation {
            name: "error-bound".into(),
            proven: false,
            detail: format!(
                "error growth is unbounded for class '{}' (ratio >= 1): no \
                 finite a-priori bound exists",
                class.label()
            ),
        }
    };

    StabilityCertificate {
        class,
        elem_bytes,
        stage_entry_ratios: ratios,
        obligations: vec![dominance, pivots, error_bound],
        bound_rel,
        bound_ulps,
    }
}

/// Audit a claimed [`WorkloadClass`] against the measured worst dominance
/// ratio of an actual batch
/// ([`trisolve_tridiag::workloads::worst_dominance_ratio`]): the claim is
/// refuted when the batch contains a row worse than the class's bound.
/// This is how the planted "non-dominant batch falsely classed dominant"
/// fixture is caught.
pub fn class_claim_obligation(measured_ratio: f64, class: WorkloadClass) -> Obligation {
    // Interior rows of the exact-knob generators sit *at* the bound;
    // tolerate only representation noise above it.
    let claimed = class.dominance_ratio();
    let ok = measured_ratio <= claimed * (1.0 + 1e-9);
    Obligation {
        name: "class-claim".into(),
        proven: ok,
        detail: if ok {
            format!(
                "measured worst ratio {measured_ratio:.6} within the class '{}' \
                 bound {claimed:.6}",
                class.label()
            )
        } else {
            format!(
                "batch has a row at ratio {measured_ratio:.6} but class '{}' \
                 claims <= {claimed:.6}: the classification is wrong",
                class.label()
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_core::{BaseVariant, SolverParams};
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::workloads::WorkloadShape;

    fn plan(m: usize, n: usize, variant: BaseVariant) -> SolvePlan {
        let p = SolverParams {
            variant,
            ..SolverParams::default_untuned()
        };
        SolvePlan::build(
            WorkloadShape::new(m, n),
            &p,
            DeviceSpec::gtx_470().queryable(),
            4,
        )
        .unwrap()
    }

    #[test]
    fn transfer_preserves_and_improves_dominance() {
        // Small ratios improve quadratically...
        let d = pcr_dominance_transfer(0.5);
        assert!((d - 1.0 / 3.0).abs() < 1e-12);
        // ...near-1 ratios are preserved (clamped), never worsened...
        assert_eq!(pcr_dominance_transfer(0.999), 0.999);
        // ...and broken dominance is propagated, not repaired.
        assert_eq!(pcr_dominance_transfer(1.25), 1.25);
        // Iterating from any d < 1 stays < 1 forever (near-1 ratios are a
        // fixed point of the clamped transfer: preservation, not recovery).
        let mut d = 0.97;
        for _ in 0..64 {
            let next = pcr_dominance_transfer(d);
            assert!(next < 1.0 && next <= d);
            d = next;
        }
        // Below the golden-ratio threshold the quadratic term wins and the
        // iteration contracts to zero.
        let mut d = 0.5;
        for _ in 0..16 {
            d = pcr_dominance_transfer(d);
        }
        assert!(d < 1e-6, "iteration contracts from 0.5: {d}");
    }

    #[test]
    fn growth_blows_up_exactly_at_lost_dominance() {
        assert!((error_growth(0.5) - 3.0).abs() < 1e-12);
        assert!(error_growth(1.0).is_infinite());
        assert!(error_growth(2.0).is_infinite());
    }

    #[test]
    fn dominant_class_certifies_everywhere() {
        for (m, n, v) in [
            (1usize, 1 << 21, BaseVariant::Strided),
            (1024, 1024, BaseVariant::Coalesced),
            (65536, 64, BaseVariant::Interleaved),
        ] {
            let p = plan(m, n, v);
            for eb in [4usize, 8] {
                let cert = certify_plan(&p, WorkloadClass::Dominant, eb);
                assert!(
                    cert.certified(),
                    "{m}x{n} {v:?} {eb}B: {:?}",
                    cert.failures()
                );
                assert!(cert.bound_rel.is_finite());
                assert!(cert.bound_rel > 0.0);
            }
        }
    }

    #[test]
    fn non_dominant_class_is_refuted() {
        let cert = certify_plan(
            &plan(1024, 1024, BaseVariant::Strided),
            WorkloadClass::NonDominant { dominance: 0.85 },
            8,
        );
        assert!(!cert.certified());
        let names: Vec<&str> = cert.failures().iter().map(|o| o.name.as_str()).collect();
        assert!(names.contains(&"dominance-preservation"), "{names:?}");
        assert!(names.contains(&"pivot-freedom"), "{names:?}");
        assert!(names.contains(&"error-bound"), "{names:?}");
        assert!(cert.bound_rel.is_infinite());
        assert!(!cert.precision_safe());
        assert!(!cert.precision_downgrade_recommended());
    }

    #[test]
    fn ill_conditioned_certifies_but_fails_the_f32_gate() {
        let class = WorkloadClass::IllConditioned { margin: 1e-3 };
        let p = plan(1, 1 << 21, BaseVariant::Strided);
        let f32_cert = certify_plan(&p, class, 4);
        let f64_cert = certify_plan(&p, class, 8);
        // Numerically sound at both precisions...
        assert!(f32_cert.certified(), "{:?}", f32_cert.failures());
        assert!(f64_cert.certified(), "{:?}", f64_cert.failures());
        // ...but the f32 bound blows through the safety threshold while the
        // f64 bound does not: a precision downgrade, not a refutation.
        assert!(f32_cert.bound_rel > F32_SAFETY_THRESHOLD);
        assert!(!f32_cert.precision_safe());
        assert!(f32_cert.precision_downgrade_recommended());
        assert!(f64_cert.precision_safe());
        assert!(!f64_cert.precision_downgrade_recommended());
    }

    #[test]
    fn bounds_scale_with_unit_roundoff() {
        let p = plan(1024, 1024, BaseVariant::Strided);
        let c32 = certify_plan(&p, WorkloadClass::Dominant, 4);
        let c64 = certify_plan(&p, WorkloadClass::Dominant, 8);
        // Same plan, same class: identical ulp count, f32/f64 ratio of
        // relative bounds is exactly 2^29.
        assert!((c32.bound_ulps - c64.bound_ulps).abs() < 1e-6);
        let ratio = c32.bound_rel / c64.bound_rel;
        assert!((ratio - (1u64 << 29) as f64).abs() / ratio < 1e-12);
    }

    #[test]
    fn entry_ratios_are_monotone_nonincreasing() {
        let p = plan(1, 1 << 21, BaseVariant::Strided);
        let recs: Vec<_> = p.descriptors().map(|d| d.recurrence()).collect();
        let ratios = stage_entry_ratios(&recs, 2.0 / 3.0);
        assert_eq!(ratios.len(), recs.len());
        for w in ratios.windows(2) {
            assert!(w[1] <= w[0] + 1e-15, "{ratios:?}");
        }
    }

    #[test]
    fn class_claims_are_audited_against_measurements() {
        let ok = class_claim_obligation(0.6, WorkloadClass::Dominant);
        assert!(ok.proven, "{}", ok.detail);
        // A non-dominant batch (worst row ratio > 1) claimed as Dominant.
        let bad = class_claim_obligation(1.0 / 0.85, WorkloadClass::Dominant);
        assert!(!bad.proven, "{}", bad.detail);
        // Exact-knob generators sit right at their bound and still pass.
        let exact =
            class_claim_obligation(1.0 / 1.001, WorkloadClass::IllConditioned { margin: 1e-3 });
        assert!(exact.proven, "{}", exact.detail);
    }
}
