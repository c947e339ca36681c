//! Micro-benchmark harness for the dynamic tuner: measures candidate
//! configurations on the simulated device through reusable
//! [`SolveSession`]s — priced from the kernels' cost meters when that is
//! provably the same reading, executed on a cached tuning workload
//! otherwise.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use trisolve_analyze::{certify_plan, statically_rejected, StabilityCertificate};
use trisolve_core::engine::SolveSession;
use trisolve_core::kernels::{elem_bytes, GpuScalar};
use trisolve_core::{SolvePlan, SolverParams};
use trisolve_gpu_sim::Gpu;
use trisolve_obs::arg;
use trisolve_tridiag::workloads::{random_dominant, WorkloadClass, WorkloadShape};
use trisolve_tridiag::SystemBatch;

/// Deterministic seed for tuning workloads: tuning must be reproducible
/// run-to-run so the cache stays meaningful.
const TUNING_SEED: u64 = 0x0007_1215_017e;

/// Measures configurations; caches sessions and tuning workloads.
///
/// A [`SolveSession`] is cached per shape, so the tuner's hot loop —
/// hundreds of measurements over a handful of shapes — pays for plan
/// construction and device allocation once per shape instead of once per
/// measurement. A harness is therefore tied to the first [`Gpu`] it
/// measures each shape on (sessions hold device buffers); use one harness
/// per device, as the tuners do.
///
/// A measurement is *priced* ([`SolveSession::price`]) when the device
/// injects no faults, runs no sanitizer, and the candidate's plan carries
/// a stability certificate for [`WorkloadClass::Dominant`] — the class of
/// the tuning batch, so the certificate rules out the numerical breakdown
/// only execution could otherwise find. Every other measurement executes
/// on the cached [`random_dominant`] tuning batch, generated on first use.
/// Both paths return bit-identical simulated seconds.
pub struct Microbench<T: GpuScalar> {
    batches: HashMap<WorkloadShape, SystemBatch<T>>,
    sessions: HashMap<WorkloadShape, SolveSession<T>>,
    /// Precision-safety gate: when set (and the scalar is f32), every
    /// runnable candidate's plan is certified against this workload class
    /// by the stability analyzer before being measured, and candidates
    /// whose certificate fails [`StabilityCertificate::precision_safe`]
    /// cost `+inf` — the numerics analogue of `statically_rejected`.
    /// `None` (the default) leaves the harness bit-identical to the
    /// ungated behaviour.
    stability_class: Option<WorkloadClass>,
    /// Total configurations measured (for reporting tuning cost).
    pub measurements: usize,
    /// Measurements that hit at least one transient device fault (see
    /// [`trisolve_gpu_sim::fault`]). Each is retried up to
    /// [`FAULT_RETRIES`] times before the candidate is written off as
    /// unrunnable — the search then steps around it instead of aborting.
    pub faulted_measurements: usize,
    /// Candidates the static analyzer proved invalid before any simulated
    /// timing (see [`trisolve_analyze::statically_rejected`]). Each still
    /// counts as a measurement and costs `+inf` — exactly what the
    /// execution engine would have returned — so pruning changes *when*
    /// the verdict is known, never the search trajectory.
    pub pruned_candidates: usize,
    /// Candidates whose stability certificate passed the precision-safety
    /// gate (only counted while [`Self::with_stability_class`] is active).
    pub stability_certified: usize,
    /// Candidates the stability gate refused (priced `+inf` without
    /// touching the device).
    pub stability_refuted: usize,
    /// Refused f32 candidates that were numerically sound but over the f32
    /// error-bound threshold — the f64 path would have passed, so the
    /// refusal is a *precision downgrade* recommendation.
    pub precision_downgraded: usize,
}

/// Transient-fault retries per measurement before a candidate costs `+inf`.
pub const FAULT_RETRIES: usize = 2;

impl<T: GpuScalar> Default for Microbench<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: GpuScalar> std::fmt::Debug for Microbench<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Microbench")
            .field("cached_batches", &self.batches.len())
            .field("cached_sessions", &self.sessions.len())
            .field("measurements", &self.measurements)
            .finish()
    }
}

impl<T: GpuScalar> Microbench<T> {
    /// Fresh, empty harness.
    pub fn new() -> Self {
        Self {
            batches: HashMap::new(),
            sessions: HashMap::new(),
            stability_class: None,
            measurements: 0,
            faulted_measurements: 0,
            pruned_candidates: 0,
            stability_certified: 0,
            stability_refuted: 0,
            precision_downgraded: 0,
        }
    }

    /// Enable the precision-safety gate for a workload class: f32
    /// candidates whose certified error bound fails
    /// [`trisolve_analyze::F32_SAFETY_THRESHOLD`] (or whose class refutes
    /// dominance outright) are priced `+inf` before any simulated timing,
    /// steering the tuner toward layouts and precisions the certifier
    /// accepts. Without this call the harness is bit-identical to the
    /// ungated behaviour.
    #[must_use]
    pub fn with_stability_class(mut self, class: WorkloadClass) -> Self {
        self.stability_class = Some(class);
        self
    }

    /// The (cached) tuning batch for a workload shape.
    pub fn batch(&mut self, shape: WorkloadShape) -> &SystemBatch<T> {
        self.batches
            .entry(shape)
            .or_insert_with(|| random_dominant(shape, TUNING_SEED).expect("valid tuning shape"))
    }

    /// Measure the simulated solve time of `params` on `shape`, in seconds.
    ///
    /// Configurations that cannot run (invalid on the device, numerical
    /// breakdown) cost `+inf`, so searches simply step around them.
    ///
    /// When the device has a tracer attached, every measurement emits one
    /// `"tuner"/"eval"` event carrying the candidate's parameters, its
    /// measured cost (`null` when unrunnable) and a `runnable` flag — the
    /// raw material for reconstructing the tuner's search tree.
    pub fn measure(
        &mut self,
        gpu: &mut Gpu<T>,
        shape: WorkloadShape,
        params: &SolverParams,
    ) -> f64 {
        let tracer = gpu.tracer().clone();
        // Static pre-check: a candidate the analyzer proves the engine
        // would reject (plan construction or launch validation) is priced
        // +inf without touching the device. `statically_rejected` mirrors
        // `SolveSession::plan_for` exactly, so the cost function — and
        // therefore the tuned output — is bit-identical to measuring it.
        let pruned = statically_rejected(shape, params, gpu.spec().queryable(), elem_bytes::<T>());
        // Precision-safety gate (opt-in): certify the surviving candidate's
        // plan for the declared workload class. Like `statically_rejected`,
        // the verdict is reached without touching the device.
        let stability = if pruned.is_none() {
            self.stability_check(gpu, shape, params)
        } else {
            None
        };
        let refused = stability.as_ref().is_some_and(|c| !c.precision_safe());
        let (cost, fault_retries) = if pruned.is_some() {
            self.measurements += 1;
            self.pruned_candidates += 1;
            (f64::INFINITY, 0)
        } else if refused {
            self.measurements += 1;
            self.stability_refuted += 1;
            if stability
                .as_ref()
                .is_some_and(StabilityCertificate::precision_downgrade_recommended)
            {
                self.precision_downgraded += 1;
            }
            (f64::INFINITY, 0)
        } else {
            if stability.is_some() {
                self.stability_certified += 1;
            }
            self.measure_inner(gpu, shape, params)
        };
        if tracer.is_enabled() {
            let mut args = vec![
                arg("systems", shape.num_systems),
                arg("size", shape.system_size),
                arg("stage1_target", params.stage1_target_systems),
                arg("onchip_size", params.onchip_size),
                arg("thomas_switch", params.thomas_switch),
                arg("variant", format!("{:?}", params.variant)),
                arg("layout", params.variant.layout_name()),
                arg("cost_s", cost),
                arg("runnable", cost.is_finite()),
                arg("fault_retries", fault_retries),
                arg("pruned", pruned.is_some()),
            ];
            // Only gated harnesses carry stability args/counters, so
            // ungated traces stay byte-identical to the pre-gate output.
            if let Some(cert) = &stability {
                args.push(arg("stability_refused", refused));
                args.push(arg("bound_rel", cert.bound_rel));
            }
            tracer.instant_now("tuner", "eval", args);
            tracer.counter_add("tuner_evals", 1);
            // Eval-latency histogram over runnable candidates (pruned and
            // refused ones are priced +inf, which is not a latency).
            if cost.is_finite() {
                tracer.observe("tuner_eval_ms", cost * 1e3);
            }
            if pruned.is_some() {
                tracer.counter_add("candidates_pruned", 1);
                tracer.counter_add("proofs_failed", 1);
            }
            if let Some(cert) = &stability {
                if refused {
                    tracer.counter_add("stability_refuted", 1);
                    if cert.precision_downgrade_recommended() {
                        tracer.counter_add("precision_downgraded", 1);
                    }
                } else {
                    tracer.counter_add("stability_certified", 1);
                }
            }
        }
        cost
    }

    /// Certify a candidate's plan for the gate's workload class. Returns
    /// `None` when the gate is off or the scalar is not f32 — the gate
    /// guards *single-precision* candidates, the precision the paper's
    /// pivot-free stages actually lose digits in.
    fn stability_check(
        &self,
        gpu: &Gpu<T>,
        shape: WorkloadShape,
        params: &SolverParams,
    ) -> Option<StabilityCertificate> {
        let class = self.stability_class?;
        let eb = elem_bytes::<T>();
        if eb > 4 {
            return None;
        }
        let plan = SolvePlan::build(shape, params, gpu.spec().queryable(), eb).ok()?;
        Some(certify_plan(&plan, class, eb))
    }

    fn measure_inner(
        &mut self,
        gpu: &mut Gpu<T>,
        shape: WorkloadShape,
        params: &SolverParams,
    ) -> (f64, usize) {
        self.measurements += 1;
        let session = match self.sessions.entry(shape) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => match SolveSession::new(gpu, shape) {
                Ok(s) => v.insert(s),
                // The shape itself doesn't fit the device: every parameter
                // point is unrunnable.
                Err(_) => return (f64::INFINITY, 0),
            },
        };
        // Price instead of executing when execution could not tell us
        // more: no fault can strike, no sanitizer is watching, and the
        // plan is certified for the dominant class the tuning batch is
        // drawn from, so it cannot break down numerically. The priced
        // reading is bit-identical to the measured one.
        let priceable = !gpu.faults_enabled()
            && !gpu.sanitizing()
            && session.plan_for(params).is_ok_and(|plan| {
                certify_plan(plan, WorkloadClass::Dominant, elem_bytes::<T>()).certified()
            });
        if priceable {
            return (session.price(gpu, params).unwrap_or(f64::INFINITY), 0);
        }
        let batch = self
            .batches
            .entry(shape)
            .or_insert_with(|| random_dominant(shape, TUNING_SEED).expect("valid tuning shape"));
        // Transient device faults (injected launch failures, timeouts) get
        // a short retry budget so one blip does not disqualify a good
        // candidate; a candidate still faulting afterwards is skipped
        // (+inf) rather than aborting the whole search.
        let mut fault_retries = 0usize;
        loop {
            match session.measure(gpu, batch, params) {
                Ok(t) => return (t, fault_retries),
                Err(e) if e.is_transient() && fault_retries < FAULT_RETRIES => {
                    if fault_retries == 0 {
                        self.faulted_measurements += 1;
                    }
                    fault_retries += 1;
                }
                // Deterministic failures (bad params, validation, algebra,
                // numerical breakdown) and transient faults past the retry
                // budget: unrunnable.
                Err(_) => return (f64::INFINITY, fault_retries),
            }
        }
    }

    /// Number of shapes with a live cached session.
    pub fn cached_sessions(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_core::{solver, BaseVariant};
    use trisolve_gpu_sim::DeviceSpec;

    #[test]
    fn measures_and_counts() {
        let mut mb: Microbench<f32> = Microbench::new();
        let mut gpu = Gpu::new(DeviceSpec::gtx_470());
        let shape = WorkloadShape::new(32, 512);
        let p = SolverParams::default_untuned();
        let t1 = mb.measure(&mut gpu, shape, &p);
        let t2 = mb.measure(&mut gpu, shape, &p);
        assert!(t1.is_finite() && t1 > 0.0);
        assert_eq!(t1, t2); // deterministic
        assert_eq!(mb.measurements, 2);
        assert_eq!(mb.cached_sessions(), 1);
    }

    #[test]
    fn measurements_match_one_shot_solves() {
        let mut mb: Microbench<f64> = Microbench::new();
        let mut gpu = Gpu::new(DeviceSpec::gtx_470());
        let shape = WorkloadShape::new(8, 1024);
        let p = SolverParams::default_untuned();
        let t_session = mb.measure(&mut gpu, shape, &p);
        let batch = random_dominant::<f64>(shape, TUNING_SEED).unwrap();
        let mut fresh: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let t_one_shot = solver::solve_batch_on_gpu(&mut fresh, &batch, &p)
            .unwrap()
            .sim_time_s;
        assert_eq!(t_session, t_one_shot);
    }

    #[test]
    fn invalid_configs_cost_infinity() {
        let mut mb: Microbench<f32> = Microbench::new();
        let mut gpu = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let shape = WorkloadShape::new(8, 1024);
        let p = SolverParams {
            stage1_target_systems: 16,
            onchip_size: 1024, // too large for the 8800
            thomas_switch: 64,
            variant: BaseVariant::Strided,
        };
        assert!(mb.measure(&mut gpu, shape, &p).is_infinite());
        // The session survives the rejected point and keeps serving.
        assert!(mb
            .measure(&mut gpu, shape, &SolverParams::default_untuned())
            .is_finite());
        assert_eq!(mb.cached_sessions(), 1);
    }

    #[test]
    fn transient_faults_are_retried_not_fatal() {
        use trisolve_gpu_sim::FaultPlan;
        let mut mb: Microbench<f32> = Microbench::new();
        // One guaranteed launch failure, then a clean device: the harness
        // should absorb the fault, retry, and still produce a finite cost.
        let plan = FaultPlan::seeded(11)
            .with_launch_failures(1.0)
            .with_max_faults(1);
        let mut gpu = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
        let shape = WorkloadShape::new(16, 512);
        let p = SolverParams::default_untuned();
        let t = mb.measure(&mut gpu, shape, &p);
        assert!(t.is_finite(), "fault should be retried, got {t}");
        assert_eq!(mb.faulted_measurements, 1);
        assert_eq!(mb.measurements, 1);
        // A clean follow-up measurement does not count as faulted.
        let t2 = mb.measure(&mut gpu, shape, &p);
        assert!(t2.is_finite());
        assert_eq!(mb.faulted_measurements, 1);
    }

    #[test]
    fn persistent_faults_cost_infinity() {
        use trisolve_gpu_sim::FaultPlan;
        let mut mb: Microbench<f32> = Microbench::new();
        // Unbounded guaranteed failures: the retry budget runs out and the
        // candidate is priced out of the search instead of aborting it.
        let plan = FaultPlan::seeded(3).with_launch_failures(1.0);
        let mut gpu = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
        let shape = WorkloadShape::new(16, 512);
        let t = mb.measure(&mut gpu, shape, &SolverParams::default_untuned());
        assert!(t.is_infinite());
        assert_eq!(mb.faulted_measurements, 1);
    }

    #[test]
    fn statically_rejected_candidates_are_pruned_not_measured() {
        let mut mb: Microbench<f32> = Microbench::new();
        let mut gpu = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let shape = WorkloadShape::new(8, 1024);
        let bad = SolverParams {
            stage1_target_systems: 16,
            onchip_size: 1024, // provably too large for the 8800
            thomas_switch: 64,
            variant: BaseVariant::Strided,
        };
        assert!(mb.measure(&mut gpu, shape, &bad).is_infinite());
        assert_eq!(mb.pruned_candidates, 1);
        assert_eq!(mb.measurements, 1); // still counts as an evaluation
        assert_eq!(mb.cached_sessions(), 0); // the device was never touched
                                             // A runnable candidate is measured, not pruned.
        let t = mb.measure(&mut gpu, shape, &SolverParams::default_untuned());
        assert!(t.is_finite());
        assert_eq!(mb.pruned_candidates, 1);
        assert_eq!(mb.measurements, 2);
    }

    #[test]
    fn pruning_agrees_with_the_engine_verdict() {
        use trisolve_analyze::statically_rejected;
        // Exactness over a parameter sweep: a candidate is pruned iff the
        // un-pruned harness would have priced it +inf via plan rejection;
        // un-pruned candidates always measure finite on this shape.
        let mut mb: Microbench<f32> = Microbench::new();
        let mut gpu = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let shape = WorkloadShape::new(16, 2048);
        let q = gpu.spec().queryable().clone();
        for onchip in [64usize, 128, 256, 512, 1024] {
            let p = SolverParams {
                stage1_target_systems: 16,
                onchip_size: onchip,
                thomas_switch: 32,
                variant: BaseVariant::Strided,
            };
            let before = mb.pruned_candidates;
            let cost = mb.measure(&mut gpu, shape, &p);
            let pruned = mb.pruned_candidates > before;
            assert_eq!(
                pruned,
                statically_rejected(shape, &p, &q, 4).is_some(),
                "onchip={onchip}"
            );
            assert_eq!(pruned, cost.is_infinite(), "onchip={onchip}");
        }
        assert!(mb.pruned_candidates >= 1);
    }

    #[test]
    fn stability_gate_refuses_unsafe_f32_candidates() {
        use trisolve_tridiag::workloads::WorkloadClass;
        // A non-dominant class refutes every f32 candidate outright.
        let mut mb: Microbench<f32> =
            Microbench::new().with_stability_class(WorkloadClass::NonDominant { dominance: 0.85 });
        let mut gpu = Gpu::new(DeviceSpec::gtx_470());
        let shape = WorkloadShape::new(32, 512);
        let t = mb.measure(&mut gpu, shape, &SolverParams::default_untuned());
        assert!(t.is_infinite());
        assert_eq!(mb.stability_refuted, 1);
        assert_eq!(mb.precision_downgraded, 0); // refuted, not downgradeable
        assert_eq!(mb.measurements, 1);
        assert_eq!(mb.cached_sessions(), 0); // the device was never touched

        // A dominant class certifies and the candidate is measured.
        let mut mb: Microbench<f32> =
            Microbench::new().with_stability_class(WorkloadClass::Dominant);
        let t = mb.measure(&mut gpu, shape, &SolverParams::default_untuned());
        assert!(t.is_finite());
        assert_eq!(mb.stability_certified, 1);
        assert_eq!(mb.stability_refuted, 0);
    }

    #[test]
    fn stability_gate_recommends_downgrades_for_ill_conditioned_f32() {
        use trisolve_tridiag::workloads::WorkloadClass;
        // Margin 1e-3 on a deeply split huge system: numerically sound, but
        // the certified f32 bound blows through the safety threshold — the
        // gate refuses and records a precision downgrade.
        let class = WorkloadClass::IllConditioned { margin: 1e-3 };
        let mut mb: Microbench<f32> = Microbench::new().with_stability_class(class);
        let mut gpu = Gpu::new(DeviceSpec::gtx_470());
        let shape = WorkloadShape::new(1, 1 << 21);
        let t = mb.measure(&mut gpu, shape, &SolverParams::default_untuned());
        assert!(t.is_infinite());
        assert_eq!(mb.stability_refuted, 1);
        assert_eq!(mb.precision_downgraded, 1);
    }

    #[test]
    fn stability_gate_is_inert_for_f64_and_by_default() {
        use trisolve_tridiag::workloads::WorkloadClass;
        // f64: the gate never engages even when a class is declared.
        let mut mb: Microbench<f64> =
            Microbench::new().with_stability_class(WorkloadClass::NonDominant { dominance: 0.85 });
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let shape = WorkloadShape::new(32, 512);
        assert!(mb
            .measure(&mut gpu, shape, &SolverParams::default_untuned())
            .is_finite());
        assert_eq!(mb.stability_certified + mb.stability_refuted, 0);

        // Default harness: identical costs with and without a Dominant gate
        // (the gate only ever *adds* refusals, and Dominant has none here).
        let mut plain: Microbench<f32> = Microbench::new();
        let mut gated: Microbench<f32> =
            Microbench::new().with_stability_class(WorkloadClass::Dominant);
        let mut g1 = Gpu::new(DeviceSpec::gtx_470());
        let mut g2 = Gpu::new(DeviceSpec::gtx_470());
        let p = SolverParams::default_untuned();
        assert_eq!(
            plain.measure(&mut g1, shape, &p).to_bits(),
            gated.measure(&mut g2, shape, &p).to_bits()
        );
        assert_eq!(plain.stability_certified, 0);
        assert_eq!(gated.stability_certified, 1);
    }

    #[test]
    fn batches_are_cached() {
        let mut mb: Microbench<f32> = Microbench::new();
        let shape = WorkloadShape::new(4, 256);
        let p1 = mb.batch(shape) as *const _;
        let p2 = mb.batch(shape) as *const _;
        assert_eq!(p1, p2);
    }
}
