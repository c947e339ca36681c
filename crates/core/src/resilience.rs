//! Resilient solving: retries, residual-verified recovery, and graceful
//! degradation to the CPU reference.
//!
//! The paper's pipeline assumes every launch succeeds and every PCR split
//! is numerically benign. A production solver cannot: transient device
//! faults happen (see [`trisolve_gpu_sim::fault`]) and PCR/CR lose accuracy
//! on non-diagonally-dominant systems where pivoted LU does not. This
//! module wraps [`SolveSession::solve`] in a [`ResiliencePolicy`]:
//!
//! 1. **Retries with backoff** — transient device errors (injected launch
//!    failures, watchdog timeouts, spurious OOM) are retried up to
//!    [`ResiliencePolicy::max_retries`] times per chain step, charging
//!    exponential backoff to the *simulated* clock so recovery cost is
//!    visible in `sim_time`.
//! 2. **Residual verification** — every solve that returns is checked:
//!    `‖A·x − d‖∞ / ‖d‖∞` must not exceed
//!    [`ResiliencePolicy::residual_tolerance`]. Silent corruption (ECC bit
//!    flips, transfer corruption) fails this check and triggers a retry —
//!    re-uploading the coefficients repairs corrupted device buffers.
//! 3. **Graceful degradation** — when a step's retries are exhausted (or it
//!    fails non-transiently) the chain falls back:
//!    tuned plan → default plan (§IV-B) → alternate memory layout →
//!    CPU LU reference (partial pivoting, stable on systems the pivot-free
//!    GPU algorithm cannot handle).
//!
//! Every recovery action emits a `resilience` trace event (`fault` events
//! come from the injector itself): `retry`, `fallback` and `residual`
//! instants plus `retries` / `fallbacks` / `residual_checks` /
//! `residual_failures` counters, all rolled up by
//! [`trisolve_obs::MetricsReport`].

use crate::engine::{check_shape, SolveSession};
use crate::error::CoreError;
use crate::kernels::GpuScalar;
use crate::params::{BaseVariant, SolverParams};
use crate::reference::solve_on_host;
use crate::solver::SolveOutcome;
use crate::Result;
use trisolve_gpu_sim::{CpuSpec, Gpu};
use trisolve_obs::{arg, Tracer};
use trisolve_tridiag::norms::batch_worst_relative_residual;
use trisolve_tridiag::SystemBatch;

/// How hard to fight for a solution before giving up.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// Extra attempts per degradation-chain step after the first (so a
    /// step makes at most `max_retries + 1` attempts).
    pub max_retries: usize,
    /// Backoff charged to the simulated clock before retry `k` of a step:
    /// `backoff_base_s * 2^(k-1)` seconds.
    pub backoff_base_s: f64,
    /// Acceptance threshold for the worst relative residual
    /// `‖A·x − d‖∞ / ‖d‖∞` over the batch. A non-finite residual always
    /// fails.
    pub residual_tolerance: f64,
    /// Fall back to the paper's default parameters (§IV-B) when the tuned
    /// plan keeps failing.
    pub try_default_plan: bool,
    /// Fall back to the tuned plan with the opposite base-kernel memory
    /// layout (strided ↔ coalesced) — sidesteps layout-correlated faults.
    pub try_alternate_layout: bool,
    /// Last resort: solve on the CPU with pivoted LU.
    pub cpu_fallback: bool,
}

impl Default for ResiliencePolicy {
    /// Two retries per step, 100 simulated µs base backoff, a residual
    /// tolerance of `1e-4` (safe for `f32`; tighten for `f64` with
    /// [`ResiliencePolicy::for_elem_bytes`]), full degradation chain.
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_base_s: 100e-6,
            residual_tolerance: 1e-4,
            try_default_plan: true,
            try_alternate_layout: true,
            cpu_fallback: true,
        }
    }
}

impl ResiliencePolicy {
    /// The default policy with a residual tolerance matched to the element
    /// width: `1e-4` for 4-byte floats, `1e-8` for 8-byte.
    #[must_use]
    pub fn for_elem_bytes(elem_bytes: usize) -> Self {
        Self {
            residual_tolerance: if elem_bytes <= 4 { 1e-4 } else { 1e-8 },
            ..Self::default()
        }
    }

    /// Set the residual acceptance threshold.
    #[must_use]
    pub fn with_residual_tolerance(mut self, tol: f64) -> Self {
        self.residual_tolerance = tol;
        self
    }

    /// Tighten the residual acceptance threshold to a statically certified
    /// a-priori forward error bound (`trisolve-analyze`'s
    /// `StabilityCertificate::bound_rel`).
    ///
    /// The certified bound can only *tighten* the policy: the resulting
    /// tolerance is `min(residual_tolerance, bound)`. A non-finite or
    /// non-positive bound (e.g. the infinite bound of an uncertifiable
    /// non-dominant class) leaves the legacy threshold untouched, so
    /// resilience never silently accepts worse solutions than it would
    /// have without a certificate.
    #[must_use]
    pub fn with_certified_bound(mut self, bound: f64) -> Self {
        if bound.is_finite() && bound > 0.0 {
            self.residual_tolerance = self.residual_tolerance.min(bound);
        }
        self
    }

    /// GPU-only policy: no plan fallbacks, no CPU — retries only. Useful
    /// for isolating what a single plan survives.
    #[must_use]
    pub fn retries_only(retries: usize) -> Self {
        Self {
            max_retries: retries,
            try_default_plan: false,
            try_alternate_layout: false,
            cpu_fallback: false,
            ..Self::default()
        }
    }
}

/// What one recovery action was, for the structured report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The step was re-attempted after a transient fault or a rejected
    /// residual.
    Retry,
    /// The chain moved on to the next degradation step.
    Fallback,
    /// A solve returned but its residual exceeded the tolerance.
    ResidualReject,
    /// A solve returned and its residual passed: this is the result.
    Accepted,
}

/// One entry of the recovery narrative.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Which chain step acted (`"tuned-plan"`, `"default-plan"`,
    /// `"alternate-layout"`, `"cpu-reference"`).
    pub step: &'static str,
    /// What happened.
    pub action: RecoveryAction,
    /// Specifics: the error retried past, the residual value, …
    pub detail: String,
}

/// A successful resilient solve: the outcome plus how it was won.
#[derive(Debug, Clone)]
pub struct ResilientOutcome<T: GpuScalar> {
    /// The accepted solve (solution, simulated time, plan, stats).
    pub outcome: SolveOutcome<T>,
    /// The verified worst relative residual of the accepted solution.
    pub residual: f64,
    /// Which chain step produced it.
    pub recovered_by: &'static str,
    /// Total solve attempts, the successful one included.
    pub attempts: usize,
    /// Re-attempts after transient faults or rejected residuals.
    pub retries: usize,
    /// Chain steps abandoned before the accepted one.
    pub fallbacks: usize,
    /// The full recovery narrative, in order.
    pub events: Vec<RecoveryEvent>,
}

impl<T: GpuScalar> ResilientOutcome<T> {
    /// True when the solve needed no recovery at all: first step, first
    /// attempt.
    #[must_use]
    pub fn first_try(&self) -> bool {
        self.retries == 0 && self.fallbacks == 0
    }
}

/// The degradation chain a policy unrolls for a tuned parameter point:
/// deduplicated, in fallback order, CPU step excluded.
fn chain(params: &SolverParams, policy: &ResiliencePolicy) -> Vec<(&'static str, SolverParams)> {
    let mut steps: Vec<(&'static str, SolverParams)> = vec![("tuned-plan", *params)];
    if policy.try_default_plan {
        let d = SolverParams::default_untuned();
        if steps.iter().all(|(_, p)| *p != d) {
            steps.push(("default-plan", d));
        }
    }
    if policy.try_alternate_layout {
        let mut alt = *params;
        alt.variant = match alt.variant {
            BaseVariant::Strided => BaseVariant::Coalesced,
            // A persistently faulting interleaved fast path degrades to the
            // staged pipeline in its safe default layout.
            BaseVariant::Coalesced | BaseVariant::Interleaved => BaseVariant::Strided,
        };
        if steps.iter().all(|(_, p)| *p != alt) {
            steps.push(("alternate-layout", alt));
        }
    }
    steps
}

impl<T: GpuScalar> SolveSession<T> {
    /// Solve under a [`ResiliencePolicy`]: retry transient faults with
    /// backoff, verify every result's residual, degrade through
    /// tuned → default → alternate-layout → CPU-reference until one step
    /// produces an accepted solution.
    ///
    /// With no faults injected and a first-attempt residual under
    /// tolerance, the returned outcome is bit-identical to
    /// [`SolveSession::solve`] — the residual check reads the solution on
    /// the host and costs no simulated time.
    ///
    /// # Errors
    ///
    /// [`CoreError::ResilienceExhausted`] when every permitted step fails;
    /// the message carries the last failure. Errors in the host-side
    /// residual computation itself (shape mismatches) propagate as-is.
    pub fn solve_resilient(
        &mut self,
        gpu: &mut Gpu<T>,
        batch: &SystemBatch<T>,
        params: &SolverParams,
        policy: &ResiliencePolicy,
    ) -> Result<ResilientOutcome<T>> {
        let tracer = gpu.tracer().clone();
        let steps = chain(params, policy);
        let mut attempts = 0usize;
        let mut retries = 0usize;
        let mut fallbacks = 0usize;
        let mut events: Vec<RecoveryEvent> = Vec::new();
        let mut last_error = String::from("no attempt was permitted by the policy");

        for (step_idx, (step, p)) in steps.iter().enumerate() {
            if step_idx > 0 {
                fallbacks += 1;
                emit_fallback(&tracer, gpu, steps[step_idx - 1].0, step, &last_error);
                events.push(RecoveryEvent {
                    step,
                    action: RecoveryAction::Fallback,
                    detail: last_error.clone(),
                });
            }
            let mut attempt = 0usize;
            loop {
                attempts += 1;
                match self.solve(gpu, batch, p) {
                    Ok(outcome) => {
                        let residual = batch_worst_relative_residual(batch, &outcome.x)?;
                        let accepted = residual <= policy.residual_tolerance;
                        emit_residual(&tracer, gpu, step, residual, policy, accepted);
                        if accepted {
                            events.push(RecoveryEvent {
                                step,
                                action: RecoveryAction::Accepted,
                                detail: format!("residual {residual:.3e}"),
                            });
                            return Ok(ResilientOutcome {
                                outcome,
                                residual,
                                recovered_by: step,
                                attempts,
                                retries,
                                fallbacks,
                                events,
                            });
                        }
                        last_error = format!(
                            "residual {residual:.3e} exceeds tolerance {:.1e} under `{step}`",
                            policy.residual_tolerance
                        );
                        events.push(RecoveryEvent {
                            step,
                            action: RecoveryAction::ResidualReject,
                            detail: last_error.clone(),
                        });
                    }
                    Err(e) if e.is_transient() => last_error = e.to_string(),
                    Err(e) => {
                        // Deterministic failure: retrying this step verbatim
                        // cannot succeed, move down the chain.
                        last_error = e.to_string();
                        break;
                    }
                }
                if attempt >= policy.max_retries {
                    break;
                }
                attempt += 1;
                retries += 1;
                // Exponential backoff, charged to the simulated clock; the
                // retry's re-upload also repairs corrupted device buffers.
                let backoff_s = policy.backoff_base_s * f64::from(1u32 << (attempt - 1).min(20));
                gpu.advance_clock(backoff_s);
                emit_retry(&tracer, gpu, step, attempt, backoff_s, &last_error);
                events.push(RecoveryEvent {
                    step,
                    action: RecoveryAction::Retry,
                    detail: last_error.clone(),
                });
            }
        }

        if policy.cpu_fallback {
            fallbacks += 1;
            let from = steps.last().map_or("tuned-plan", |(s, _)| s);
            emit_fallback(&tracer, gpu, from, "cpu-reference", &last_error);
            events.push(RecoveryEvent {
                step: "cpu-reference",
                action: RecoveryAction::Fallback,
                detail: last_error.clone(),
            });
            attempts += 1;
            match self.cpu_reference_solve(gpu, batch) {
                Ok(outcome) => {
                    let residual = batch_worst_relative_residual(batch, &outcome.x)?;
                    let accepted = residual <= policy.residual_tolerance;
                    emit_residual(&tracer, gpu, "cpu-reference", residual, policy, accepted);
                    if accepted {
                        events.push(RecoveryEvent {
                            step: "cpu-reference",
                            action: RecoveryAction::Accepted,
                            detail: format!("residual {residual:.3e}"),
                        });
                        return Ok(ResilientOutcome {
                            outcome,
                            residual,
                            recovered_by: "cpu-reference",
                            attempts,
                            retries,
                            fallbacks,
                            events,
                        });
                    }
                    last_error = format!(
                        "CPU reference residual {residual:.3e} exceeds tolerance {:.1e} \
                         (system effectively singular at this precision)",
                        policy.residual_tolerance
                    );
                }
                Err(e) => last_error = format!("CPU reference failed: {e}"),
            }
        }

        Err(CoreError::ResilienceExhausted {
            attempts,
            last_error,
        })
    }

    /// The chain's last resort: sequential pivoted LU on the host, timed by
    /// the calibrated CPU model, with the record-keeping plan built against
    /// this session's device.
    fn cpu_reference_solve(
        &mut self,
        gpu: &Gpu<T>,
        batch: &SystemBatch<T>,
    ) -> Result<SolveOutcome<T>> {
        check_shape(self.shape(), batch)?;
        let p = SolverParams::default_untuned();
        let cpu = CpuSpec::core_i5_dual_3_4ghz();
        solve_on_host(batch, &p, gpu.spec().queryable(), &cpu)
    }
}

/// Emit a `retry` instant plus counter (no-op without a tracer).
fn emit_retry<T: GpuScalar>(
    tracer: &Tracer,
    gpu: &Gpu<T>,
    step: &str,
    attempt: usize,
    backoff_s: f64,
    error: &str,
) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.instant(
        "resilience",
        "retry",
        gpu.elapsed_s() * 1e6,
        vec![
            arg("step", step.to_string()),
            arg("attempt", attempt),
            arg("backoff_s", backoff_s),
            arg("error", error.to_string()),
        ],
    );
    tracer.counter_add("retries", 1);
}

/// Emit a `fallback` instant plus counter (no-op without a tracer).
fn emit_fallback<T: GpuScalar>(tracer: &Tracer, gpu: &Gpu<T>, from: &str, to: &str, reason: &str) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.instant(
        "resilience",
        "fallback",
        gpu.elapsed_s() * 1e6,
        vec![
            arg("from", from.to_string()),
            arg("to", to.to_string()),
            arg("reason", reason.to_string()),
        ],
    );
    tracer.counter_add("fallbacks", 1);
}

/// Emit a `residual` instant plus counters (no-op without a tracer).
fn emit_residual<T: GpuScalar>(
    tracer: &Tracer,
    gpu: &Gpu<T>,
    step: &str,
    residual: f64,
    policy: &ResiliencePolicy,
    accepted: bool,
) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.instant(
        "resilience",
        "residual",
        gpu.elapsed_s() * 1e6,
        vec![
            arg("step", step.to_string()),
            arg("value", residual),
            arg("tolerance", policy.residual_tolerance),
            arg("accepted", u64::from(accepted)),
        ],
    );
    tracer.counter_add("residual_checks", 1);
    if !accepted {
        tracer.counter_add("residual_failures", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_gpu_sim::{DeviceSpec, FaultPlan, SimError};
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

    fn setup(plan: FaultPlan) -> (Gpu<f64>, SolveSession<f64>, SystemBatch<f64>) {
        let shape = WorkloadShape::new(4, 512);
        let batch = random_dominant::<f64>(shape, 42).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        gpu.enable_faults(plan);
        let session = SolveSession::new(&mut gpu, shape).unwrap();
        (gpu, session, batch)
    }

    fn policy() -> ResiliencePolicy {
        ResiliencePolicy::for_elem_bytes(8)
    }

    #[test]
    fn clean_run_is_first_try_and_matches_plain_solve() {
        let params = SolverParams::default_untuned();
        let (mut gpu, mut session, batch) = setup(FaultPlan::disabled());
        let r = session
            .solve_resilient(&mut gpu, &batch, &params, &policy())
            .unwrap();
        assert!(r.first_try());
        assert_eq!(r.recovered_by, "tuned-plan");
        assert_eq!(r.attempts, 1);
        assert!(r.residual <= 1e-8);

        let (mut gpu2, mut session2, _) = setup(FaultPlan::disabled());
        let plain = session2.solve(&mut gpu2, &batch, &params).unwrap();
        assert_eq!(plain.x, r.outcome.x, "bit-identical to plain solve");
        assert_eq!(
            plain.sim_time_s.to_bits(),
            r.outcome.sim_time_s.to_bits(),
            "bit-identical simulated time"
        );
    }

    #[test]
    fn transient_launch_failures_are_retried_with_backoff() {
        let params = SolverParams::default_untuned();
        let plan = FaultPlan::seeded(7)
            .with_launch_failures(1.0)
            .with_max_faults(2);
        let (mut gpu, mut session, batch) = setup(plan);
        let before = gpu.elapsed_s();
        let r = session
            .solve_resilient(&mut gpu, &batch, &params, &policy())
            .unwrap();
        assert_eq!(r.recovered_by, "tuned-plan");
        assert_eq!(r.retries, 2);
        assert_eq!(r.attempts, 3);
        assert_eq!(r.fallbacks, 0);
        // Backoff was charged to the simulated clock: 100µs + 200µs beyond
        // the solve itself.
        assert!(gpu.elapsed_s() - before > 300e-6);
    }

    #[test]
    fn persistent_faults_degrade_to_cpu_reference() {
        let params = SolverParams::default_untuned();
        let plan = FaultPlan::seeded(3).with_launch_failures(1.0);
        let (mut gpu, mut session, batch) = setup(plan);
        let r = session
            .solve_resilient(&mut gpu, &batch, &params, &policy())
            .unwrap();
        assert_eq!(r.recovered_by, "cpu-reference");
        assert!(r.fallbacks >= 1);
        assert!(r.residual <= 1e-8);
        assert!(r.outcome.kernel_stats.is_empty(), "no GPU kernels ran");
    }

    #[test]
    fn bit_flips_are_caught_by_residual_verification() {
        let params = SolverParams::default_untuned();
        // Seed 0 deterministically lands its single budgeted flip on a bit
        // that pushes the residual over tolerance (seeds whose flip hits a
        // low-order mantissa bit are accepted outright — correctly so).
        let plan = FaultPlan::seeded(0).with_bit_flips(1.0).with_max_faults(1);
        let (mut gpu, mut session, batch) = setup(plan);
        let r = session
            .solve_resilient(&mut gpu, &batch, &params, &policy())
            .unwrap();
        // The flip corrupts attempt 1; the residual check rejects it and
        // the clean retry wins.
        assert_eq!(r.recovered_by, "tuned-plan");
        assert_eq!(r.retries, 1);
        assert!(r
            .events
            .iter()
            .any(|e| e.action == RecoveryAction::ResidualReject));
        assert!(r.residual <= 1e-8);
    }

    #[test]
    fn exhausted_chain_fails_loudly() {
        let params = SolverParams::default_untuned();
        let plan = FaultPlan::seeded(9).with_launch_failures(1.0);
        let (mut gpu, mut session, batch) = setup(plan);
        let p = ResiliencePolicy::retries_only(1);
        let err = session
            .solve_resilient(&mut gpu, &batch, &params, &p)
            .unwrap_err();
        match err {
            CoreError::ResilienceExhausted {
                attempts,
                last_error,
            } => {
                assert_eq!(attempts, 2);
                assert!(last_error.contains("transient launch failure"));
            }
            other => panic!("expected ResilienceExhausted, got {other}"),
        }
    }

    #[test]
    fn chain_deduplicates_and_orders_steps() {
        let tuned = SolverParams {
            stage1_target_systems: 8,
            onchip_size: 512,
            thomas_switch: 64,
            variant: BaseVariant::Coalesced,
        };
        let steps = chain(&tuned, &ResiliencePolicy::default());
        let names: Vec<&str> = steps.iter().map(|(s, _)| *s).collect();
        assert_eq!(names, ["tuned-plan", "default-plan", "alternate-layout"]);
        // Tuned == default ⇒ the default step disappears.
        let steps = chain(
            &SolverParams::default_untuned(),
            &ResiliencePolicy::default(),
        );
        let names: Vec<&str> = steps.iter().map(|(s, _)| *s).collect();
        assert_eq!(names, ["tuned-plan", "alternate-layout"]);
    }

    #[test]
    fn recovery_emits_resilience_trace_events_and_counters() {
        let params = SolverParams::default_untuned();
        let plan = FaultPlan::seeded(7)
            .with_launch_failures(1.0)
            .with_max_faults(1);
        let (mut gpu, mut session, batch) = setup(plan);
        let tracer = Tracer::enabled();
        gpu.set_tracer(tracer.clone());
        session
            .solve_resilient(&mut gpu, &batch, &params, &policy())
            .unwrap();
        let events = tracer.events();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.cat == "resilience")
            .map(|e| e.name.as_str())
            .collect();
        assert!(names.contains(&"fault"));
        assert!(names.contains(&"retry"));
        assert!(names.contains(&"residual"));
        let counters = tracer.counters();
        assert!(counters.contains(&("retries", 1)));
        assert!(counters.contains(&("residual_checks", 1)));
        assert!(counters.contains(&("faults_injected", 1)));
    }

    #[test]
    fn certified_bound_only_tightens_the_tolerance() {
        let p = ResiliencePolicy::for_elem_bytes(8);
        assert_eq!(p.residual_tolerance, 1e-8);
        // A tighter certified bound wins.
        let tightened = p.clone().with_certified_bound(3e-12);
        assert_eq!(tightened.residual_tolerance, 3e-12);
        // A looser bound never loosens the legacy threshold.
        assert_eq!(
            p.clone().with_certified_bound(1e-2).residual_tolerance,
            1e-8
        );
        // Infinite / NaN / non-positive bounds (uncertifiable classes) are
        // ignored outright.
        assert_eq!(
            p.clone()
                .with_certified_bound(f64::INFINITY)
                .residual_tolerance,
            1e-8
        );
        assert_eq!(
            p.clone().with_certified_bound(f64::NAN).residual_tolerance,
            1e-8
        );
        assert_eq!(p.clone().with_certified_bound(0.0).residual_tolerance, 1e-8);
        assert_eq!(p.with_certified_bound(-1.0).residual_tolerance, 1e-8);
    }

    #[test]
    fn transience_matching_is_what_the_retry_loop_relies_on() {
        assert!(
            CoreError::Device(SimError::TransientLaunchFailure { kernel: "k".into() })
                .is_transient()
        );
        assert!(!CoreError::BadParams { detail: "x".into() }.is_transient());
    }
}
