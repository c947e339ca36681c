//! The `trisolve chaos` harness: seeded fault-injection campaigns over the
//! paper's workload matrix, proving the resilience layer (see
//! [`trisolve_core::resilience`]) recovers every case — or fails loudly
//! with a structured report.
//!
//! Two halves, mirroring the [`crate::sanitize`] harness:
//!
//! 1. **Fixture self-check** — forced fault scenarios each proving one
//!    recovery mechanism end-to-end: a transient launch failure absorbed by
//!    retries, persistent faults degrading all the way to the CPU LU
//!    reference, a silent bit flip caught by residual verification, and —
//!    the other direction — a *disabled* fault plan leaving results and
//!    simulated timings bit-identical to a plain solve.
//! 2. **Campaign sweep** — the resilient solve pipeline over the Figure 5–8
//!    workload grid on the paper's devices, across three workload classes
//!    (diagonally dominant, ill-conditioned, non-diagonally-dominant) under
//!    a seeded [`FaultPlan`] mixing transient launch failures, kernel
//!    timeouts, transfer corruption, ECC-style bit flips and spurious OOM.
//!    Every case must come back recovered (residual-verified against the
//!    policy tolerance, compared against the host pivoted-LU reference) or
//!    the harness reports it as unrecovered. Where the stability certifier
//!    (`trisolve-analyze`) proves an a-priori forward error bound tighter
//!    than the legacy class tolerance, the campaign adopts the certified
//!    bound — acceptance thresholds can only *tighten* under certification,
//!    never loosen.
//!
//! The harness is a library so the CI gate (`scripts/check.sh`), the
//! integration tests and the CLI subcommand all run the same code.

use trisolve_analyze::certify_plan;
use trisolve_autotune::{StaticTuner, Tuner};
use trisolve_core::engine::SolveSession;
use trisolve_core::kernels::{elem_bytes, GpuScalar};
use trisolve_core::{
    BaseVariant, RecoveryAction, ResiliencePolicy, ResilientOutcome, SolvePlan, SolverParams,
};
use trisolve_gpu_sim::{DeviceSpec, FaultLog, FaultPlan, Gpu};
use trisolve_tridiag::cpu_batch::{solve_batch_sequential, BatchAlgorithm};
use trisolve_tridiag::workloads::{random_dominant, WorkloadClass, WorkloadShape};
use trisolve_tridiag::SystemBatch;

use crate::harness::{many_small_shape, FixtureOutcome, HarnessOptions, Report};

/// Base seed for campaign fault plans and workloads (the paper's
/// publication year, like the bench and sanitize harnesses).
pub const CHAOS_SEED: u64 = 2011;

/// Attempts allowed for device-buffer allocation when the fault plan
/// injects spurious OOM during session construction.
const SESSION_ALLOC_ATTEMPTS: usize = 4;

/// Outcome of one campaign case.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ChaosCase {
    /// Human-readable case label (device, workload, precision, class).
    pub label: String,
    /// Did the resilient solve produce an accepted solution?
    pub recovered: bool,
    /// Which degradation-chain step won (empty when unrecovered).
    pub recovered_by: String,
    /// Verified worst relative residual of the accepted solution.
    pub residual: f64,
    /// Max-norm relative deviation from the host pivoted-LU reference
    /// solution (informational: grows with the condition number even for
    /// perfectly recovered solves).
    pub vs_reference: f64,
    /// Faults the injector actually fired during the case.
    pub faults_injected: usize,
    /// Total solve attempts, the accepted one included.
    pub attempts: usize,
    /// Re-attempts after transient faults or rejected residuals.
    pub retries: usize,
    /// Degradation-chain steps abandoned before the accepted one.
    pub fallbacks: usize,
    /// The failure, for unrecovered cases.
    pub error: Option<String>,
}

// ---------------------------------------------------------------------------
// Fixture self-check
// ---------------------------------------------------------------------------

/// The fixtures' workload, solved resiliently (untuned parameters, the
/// f64 policy) on a device with `plan` armed; returned with that device.
type FixtureRun = (ResilientOutcome<f64>, Gpu<f64>, SystemBatch<f64>);

/// The shape of the fixtures' workload.
const FIXTURE_SHAPE: WorkloadShape = WorkloadShape::new(4, 512);

fn resilient_fixture(plan: FaultPlan) -> Result<FixtureRun, String> {
    let batch = random_dominant::<f64>(FIXTURE_SHAPE, 42).map_err(|e| e.to_string())?;
    let mut gpu: Gpu<f64> = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
    let mut session = SolveSession::new(&mut gpu, FIXTURE_SHAPE).map_err(|e| e.to_string())?;
    let policy = ResiliencePolicy::for_elem_bytes(8);
    let r = session
        .solve_resilient(&mut gpu, &batch, &SolverParams::default_untuned(), &policy)
        .map_err(|e| e.to_string())?;
    Ok((r, gpu, batch))
}

fn retry_fixture() -> Result<FixtureOutcome, String> {
    // Exactly two forced launch failures: the retry budget (2) absorbs
    // them and the tuned plan still wins.
    let plan = FaultPlan::seeded(7)
        .with_launch_failures(1.0)
        .with_max_faults(2);
    let (r, ..) = resilient_fixture(plan)?;
    let passed = r.recovered_by == "tuned-plan" && r.retries == 2 && r.fallbacks == 0;
    Ok(FixtureOutcome {
        name: "transient launch failures absorbed by retries",
        passed,
        detail: format!(
            "recovered by `{}` after {} retries, residual {:.3e}",
            r.recovered_by, r.retries, r.residual
        ),
    })
}

fn degradation_fixture() -> Result<FixtureOutcome, String> {
    // Unbounded forced launch failures: no GPU plan can run; the chain
    // must walk all the way down to the CPU LU reference.
    let plan = FaultPlan::seeded(3).with_launch_failures(1.0);
    let (r, ..) = resilient_fixture(plan)?;
    let passed = r.recovered_by == "cpu-reference" && r.fallbacks >= 1;
    Ok(FixtureOutcome {
        name: "persistent faults degrade to the CPU reference",
        passed,
        detail: format!(
            "recovered by `{}` after {} fallbacks / {} attempts, residual {:.3e}",
            r.recovered_by, r.fallbacks, r.attempts, r.residual
        ),
    })
}

fn bit_flip_fixture() -> Result<FixtureOutcome, String> {
    // Seed 0 deterministically lands its single budgeted flip on a bit
    // that pushes the residual over tolerance; the check must reject the
    // corrupted attempt and the clean retry must win. (Seeds whose flip
    // hits a low-order mantissa bit are accepted outright — correctly so;
    // that is why the fixture pins the seed.)
    let plan = FaultPlan::seeded(0).with_bit_flips(1.0).with_max_faults(1);
    let (r, ..) = resilient_fixture(plan)?;
    let rejected = r
        .events
        .iter()
        .any(|e| e.action == RecoveryAction::ResidualReject);
    let tolerance = ResiliencePolicy::for_elem_bytes(8).residual_tolerance;
    let passed = rejected && r.retries == 1 && r.residual <= tolerance;
    Ok(FixtureOutcome {
        name: "silent bit flip caught by residual verification",
        passed,
        detail: format!(
            "corrupted attempt rejected: {rejected}; final residual {:.3e} after {} retries",
            r.residual, r.retries
        ),
    })
}

fn disabled_plan_fixture() -> Result<FixtureOutcome, String> {
    // The no-op contract, from the harness's own angle: a disabled fault
    // plan plus the resilience wrapper must reproduce the plain solve
    // bit-for-bit, simulated timings included.
    let (r, gpu, batch) = resilient_fixture(FaultPlan::disabled())?;
    let mut plain_gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
    let mut plain_session =
        SolveSession::new(&mut plain_gpu, FIXTURE_SHAPE).map_err(|e| e.to_string())?;
    let plain = plain_session
        .solve(&mut plain_gpu, &batch, &SolverParams::default_untuned())
        .map_err(|e| e.to_string())?;

    let bits_equal = plain.x == r.outcome.x
        && plain.sim_time_s.to_bits() == r.outcome.sim_time_s.to_bits()
        && plain_gpu.elapsed_s().to_bits() == gpu.elapsed_s().to_bits();
    let passed = bits_equal && r.first_try() && gpu.fault_log().is_none();
    Ok(FixtureOutcome {
        name: "disabled fault plan is bit-identical to a plain solve",
        passed,
        detail: format!(
            "bit-identical: {bits_equal}; first try: {}; injector attached: {}",
            r.first_try(),
            gpu.fault_log().is_some()
        ),
    })
}

/// Run the four forced-fault fixtures. Each proves one recovery mechanism
/// (or the no-op contract) end-to-end; a harness that cannot pass its own
/// fixtures proves nothing about the campaign.
pub fn fixture_checks() -> Result<Vec<FixtureOutcome>, String> {
    Ok(vec![
        retry_fixture()?,
        degradation_fixture()?,
        bit_flip_fixture()?,
        disabled_plan_fixture()?,
    ])
}

// ---------------------------------------------------------------------------
// Campaign sweep
// ---------------------------------------------------------------------------

/// The three workload classes the campaign stresses.
///
/// * Ill-conditioned with margin `1e-3`: condition number in the thousands
///   — the GPU's pivot-free splitting loses accuracy here and residual
///   verification has real work to do.
/// * Non-dominant with dominance `0.85`: every interior row breaks
///   dominance, the class the paper's algorithm does not guarantee —
///   recovery may have to reach the pivoted-LU CPU reference.
const CLASSES: &[WorkloadClass] = &[
    WorkloadClass::Dominant,
    WorkloadClass::IllConditioned { margin: 1e-3 },
    WorkloadClass::NonDominant { dominance: 0.85 },
];

/// Residual acceptance threshold per class and element width. Dominant
/// systems use the standard precision-matched tolerance; the stress
/// classes get headroom proportional to their conditioning (LU stays
/// backward-stable, so these remain far below "garbage" residuals).
fn class_tolerance(class: &str, elem_bytes: usize) -> f64 {
    match (class, elem_bytes) {
        ("dominant", b) if b <= 4 => 1e-4,
        ("dominant", _) => 1e-8,
        (_, b) if b <= 4 => 1e-2,
        (_, _) => 1e-6,
    }
}

/// The statically certified a-priori forward error bound for this
/// `(device, shape, params, class)` point, from the stability certifier
/// (`trisolve-analyze`). Returns `+inf` when no plan can be built — or when
/// the class is uncertifiable (non-dominant) — so the policy tightening in
/// [`run_case`] is a no-op exactly when certification fails: certified
/// bounds can only *tighten* the campaign's acceptance thresholds, never
/// loosen them.
fn certified_bound<T: GpuScalar>(
    dev: &DeviceSpec,
    shape: WorkloadShape,
    params: &SolverParams,
    class: WorkloadClass,
) -> f64 {
    SolvePlan::build(shape, params, dev.queryable(), elem_bytes::<T>())
        .map_or(f64::INFINITY, |plan| {
            certify_plan(&plan, class, elem_bytes::<T>()).bound_rel
        })
}

/// The seeded fault mix every campaign case runs under: mostly-transient
/// launch faults plus occasional silent corruption, capped so a case sees
/// a handful of faults rather than an unbounded storm.
fn campaign_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_launch_failures(0.08)
        .with_kernel_timeouts(0.02)
        .with_transfer_corruption(0.03)
        .with_bit_flips(0.03)
        .with_alloc_failures(0.02)
        .with_max_faults(8)
}

/// Max-norm relative deviation of `x` from the reference solution.
fn deviation_from<T: GpuScalar>(x: &[T], reference: &[T]) -> f64 {
    let mut worst = 0.0f64;
    let mut scale = 0.0f64;
    for (xi, ri) in x.iter().zip(reference) {
        worst = worst.max((xi.to_f64() - ri.to_f64()).abs());
        scale = scale.max(ri.to_f64().abs());
    }
    if scale > 0.0 {
        worst / scale
    } else {
        worst
    }
}

/// One campaign case: build the workload, arm the injector, solve
/// resiliently, compare against the host LU reference. `layout` forces a
/// memory-layout variant (the interleaved fast-path cases); `None` takes
/// whatever the static tuner picks.
fn run_case<T: GpuScalar>(
    dev: &DeviceSpec,
    shape: WorkloadShape,
    class: WorkloadClass,
    precision: &str,
    case_seed: u64,
    layout: Option<BaseVariant>,
) -> Result<ChaosCase, String> {
    let mut label = format!(
        "{} {} {} {}",
        dev.name(),
        shape.label(),
        precision,
        class.label()
    );
    let batch: SystemBatch<T> = class
        .generate(shape, case_seed)
        .map_err(|e| e.to_string())?;
    let reference =
        solve_batch_sequential(&batch, BatchAlgorithm::Lu).map_err(|e| e.to_string())?;
    let mut params = StaticTuner.params_for(shape, dev.queryable(), elem_bytes::<T>());
    if let Some(variant) = layout {
        params.variant = variant;
        label.push_str(&format!(" {variant:?}"));
    }
    let policy = ResiliencePolicy::for_elem_bytes(elem_bytes::<T>())
        .with_residual_tolerance(class_tolerance(class.label(), elem_bytes::<T>()))
        .with_certified_bound(certified_bound::<T>(dev, shape, &params, class));

    let mut gpu: Gpu<T> = Gpu::with_faults(dev.clone(), campaign_plan(case_seed));

    // Session construction allocates device buffers, so an injected OOM
    // can land here too; give it the same bounded-retry treatment the
    // solve path gets.
    let mut session = None;
    let mut last = String::new();
    for _ in 0..SESSION_ALLOC_ATTEMPTS {
        match SolveSession::new(&mut gpu, shape) {
            Ok(s) => {
                session = Some(s);
                break;
            }
            Err(e) if e.is_transient() => last = e.to_string(),
            Err(e) => return Err(format!("{label}: {e}")),
        }
    }
    let Some(mut session) = session else {
        return Err(format!(
            "{label}: session allocation never recovered: {last}"
        ));
    };

    let solved = session.solve_resilient(&mut gpu, &batch, &params, &policy);
    let faults_injected = gpu.fault_log().map_or(0, FaultLog::injected);
    Ok(match solved {
        Ok(r) => ChaosCase {
            label,
            recovered: true,
            recovered_by: r.recovered_by.to_string(),
            residual: r.residual,
            vs_reference: deviation_from(&r.outcome.x, &reference),
            faults_injected,
            attempts: r.attempts,
            retries: r.retries,
            fallbacks: r.fallbacks,
            error: None,
        },
        Err(e) => ChaosCase {
            label,
            residual: f64::NAN,
            vs_reference: f64::NAN,
            faults_injected,
            error: Some(e.to_string()),
            ..ChaosCase::default()
        },
    })
}

/// Run the campaign sweep with per-case fault plans and workloads seeded
/// from `seed`. Every returned case says whether the resilient pipeline
/// recovered it; unrecovered cases carry the structured failure.
pub fn campaign(opts: &HarnessOptions, seed: u64) -> Result<Vec<ChaosCase>, String> {
    // Every class over the shrunk paper grid, then over the many-small
    // batch with the interleaved batched-Thomas fast path forced: its
    // degradation chain starts by falling back to the staged strided
    // pipeline, so persistent faults still reach the CPU reference.
    let mut points: Vec<_> = WorkloadShape::shrunk_paper_grid(opts.shrink)
        .into_iter()
        .map(|shape| (shape, None))
        .collect();
    points.push((
        many_small_shape(opts.shrink),
        Some(BaseVariant::Interleaved),
    ));
    let mut out = Vec::new();
    for dev in &opts.devices {
        for &(precision, eb) in opts.precisions() {
            for &(shape, layout) in &points {
                for &class in CLASSES {
                    // Case `i` of the campaign runs under seed `seed + i`.
                    let case_seed = seed.wrapping_add(out.len() as u64);
                    out.push(if eb == 8 {
                        run_case::<f64>(dev, shape, class, precision, case_seed, layout)?
                    } else {
                        run_case::<f32>(dev, shape, class, precision, case_seed, layout)?
                    });
                }
            }
        }
    }
    Ok(out)
}

/// The `trisolve chaos` run: the forced-fault fixtures, then the campaign
/// seeded from `seed`.
pub fn run(opts: &HarnessOptions, seed: u64) -> Result<Report, String> {
    let fixtures = fixture_checks()?;
    let cases = campaign(opts, seed)?;
    let faults: usize = cases.iter().map(|c| c.faults_injected).sum();
    let retries: usize = cases.iter().map(|c| c.retries).sum();
    let fallbacks: usize = cases.iter().map(|c| c.fallbacks).sum();
    let mut r = Report::new("all_recovered");
    r.fields(serde_json::json!({ "seed": seed }));
    r.fixtures(
        "fixture self-check (each forces one recovery mechanism):",
        ("passed", "FAILED", 52),
        &fixtures,
        |n| format!("resilience layer failed its self-check: {n} fixture(s)"),
    );
    r.fields(serde_json::json!({
        "cases": cases,
        "faults_injected": faults,
        "retries": retries,
        "fallbacks": fallbacks,
    }));
    r.line(format_args!(
        "\nfault campaign (seed {seed}, {} cases, {faults} faults injected):",
        cases.len()
    ));
    for c in &cases {
        if c.recovered {
            r.line(format_args!(
                "  [recovered] {:<44} via {:<16} residual {:.1e}  \
                 faults {} retries {} fallbacks {}",
                c.label, c.recovered_by, c.residual, c.faults_injected, c.retries, c.fallbacks
            ));
        } else {
            r.line(format_args!(
                "  [ DEAD    ] {:<44} {}",
                c.label,
                c.error.as_deref().unwrap_or("unknown failure")
            ));
        }
    }
    r.line(format_args!(
        "\ntotals: {faults} faults | {retries} retries | {fallbacks} fallbacks"
    ));
    let unrecovered = cases.iter().filter(|c| !c.recovered).count();
    r.fail(
        unrecovered,
        format!("{unrecovered} campaign case(s) did not recover"),
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fixtures_pass() {
        for f in fixture_checks().unwrap() {
            assert!(f.passed, "{}: {}", f.name, f.detail);
        }
    }

    #[test]
    fn class_tolerances_are_ordered() {
        for b in [4usize, 8] {
            assert!(class_tolerance("dominant", b) < class_tolerance("ill-conditioned", b));
            assert_eq!(
                class_tolerance("ill-conditioned", b),
                class_tolerance("non-dominant", b)
            );
        }
    }

    #[test]
    fn certified_bounds_only_tighten_campaign_tolerances() {
        let dev = DeviceSpec::gtx_470();
        let shape = WorkloadShape::new(64, 512);
        for &class in CLASSES {
            for eb in [4usize, 8] {
                let params = StaticTuner.params_for(shape, dev.queryable(), eb);
                let legacy = class_tolerance(class.label(), eb);
                let bound = if eb <= 4 {
                    certified_bound::<f32>(&dev, shape, &params, class)
                } else {
                    certified_bound::<f64>(&dev, shape, &params, class)
                };
                let policy = ResiliencePolicy::for_elem_bytes(eb)
                    .with_residual_tolerance(legacy)
                    .with_certified_bound(bound);
                assert!(
                    policy.residual_tolerance <= legacy,
                    "{} eb={eb}: certified bound loosened the tolerance \
                     ({:.3e} > {legacy:.3e})",
                    class.label(),
                    policy.residual_tolerance
                );
                if class.is_dominant() {
                    assert!(bound.is_finite(), "dominant class must certify");
                }
            }
        }
        // The uncertifiable class carries an infinite bound, so its legacy
        // stress tolerance survives untouched.
        let nd = WorkloadClass::NonDominant { dominance: 0.85 };
        let params = StaticTuner.params_for(shape, dev.queryable(), 8);
        let bound = certified_bound::<f64>(&dev, shape, &params, nd);
        assert!(bound.is_infinite());
        let policy = ResiliencePolicy::for_elem_bytes(8)
            .with_residual_tolerance(class_tolerance(nd.label(), 8))
            .with_certified_bound(bound);
        assert_eq!(policy.residual_tolerance, class_tolerance(nd.label(), 8));
    }
}
