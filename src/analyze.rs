//! The `trisolve analyze` harness: statically certify every shipping
//! kernel and plan across the paper's workload matrix using the
//! [`trisolve_analyze`] prover, without executing a single simulated
//! instruction.
//!
//! Three halves, mirroring the dynamic [`crate::sanitize`] harness:
//!
//! 1. **Fixture self-check** — synthetic summaries and plans each
//!    containing one planted defect (a stretched out-of-bounds access
//!    map, a collapsed barrier that races, a reordered stage ladder, an
//!    oversized on-chip budget). Each must be *refuted*; a prover that
//!    certifies its own broken fixtures proves nothing about clean runs.
//! 2. **Certification sweep** — the multi-stage solver (all three
//!    memory-layout variants, the interleaved batched-Thomas family
//!    wherever the batch admits it), the repack/unpack passes and the
//!    three prior-art baseline kernels over the Figure 5–8 workload grid
//!    *plus* the many-small grid, on the paper's devices. Every case
//!    must come back fully proven: OOB-free, race-free,
//!    launch-admissible, lint-error-free and within the all-sizes
//!    shared-memory budget.
//! 3. **Cross-validation** — a sample of statically-certified cases is
//!    re-run under the *dynamic* sanitizer (DESIGN.md §3.6). A certified
//!    case that produces a runtime hazard is a soundness bug in the
//!    analyzer and fails the harness loudly.
//! 4. **Stability certification** (`--stability`) — the numerical
//!    certifier ([`trisolve_analyze::stability`]) over the same workload
//!    grid × layouts × precisions × the chaos campaign's three workload
//!    classes: dominant and ill-conditioned classes must certify
//!    (dominance preserved, pivots bounded, finite error bound), the
//!    non-dominant class must be refuted, and three planted stability
//!    fixtures (a misclassified batch, a zero-pivot Thomas chain, an f32
//!    bound violation) must each be caught.
//! 5. **Schedule certification** (`--schedule`) — the happens-before
//!    certifier ([`trisolve_analyze::schedule`]) over the pipelined
//!    stream schedules the engine lowers for the same workload grid:
//!    every lowered schedule must discharge all four ordering
//!    obligations, four planted schedule defects (a deleted upload,
//!    stripped event waits, a reciprocal-event cycle, a phantom wait)
//!    must each be refuted *on the right obligation*, and the
//!    cross-validation executes certified schedules under the dynamic
//!    cross-stream tracker (must be hazard-free) plus the one executable
//!    refuted fixture (must produce the very race the prover predicted) —
//!    prover and tracker agree in both directions.
//!
//! The harness is a library so the CI gate (`scripts/check.sh`), the
//! integration tests and the CLI subcommand all run the same code.

use trisolve_analyze::{
    analyze_params, certify_plan, certify_schedule, class_claim_obligation,
    conflict::kernel_bank_summaries, lint_plan, prove_kernel, schedule_fixtures, schedule_rejected,
    smem_budget_obligation, statically_rejected, LintLevel, F32_SAFETY_THRESHOLD,
};
use trisolve_autotune::{StaticTuner, Tuner};
use trisolve_core::kernels::{
    baseline_access_summary, baseline_config, elem_bytes, repack_access_summary, repack_config,
    unpack_access_summary, unpack_config, BaselineAlgo, GpuScalar, KernelAccessSummary,
};
use trisolve_core::params::INTERLEAVED_MIN_SYSTEMS;
use trisolve_core::{lower_schedule, BaseVariant, SolvePlan, SolveSession, SolverParams, StageOp};
use trisolve_gpu_sim::{validate_launch, DeviceSpec, Gpu, LaunchConfig};
use trisolve_tridiag::thomas::solve_thomas;
use trisolve_tridiag::workloads::{
    random_dominant, worst_dominance_ratio, WorkloadClass, WorkloadShape,
};
use trisolve_tridiag::{SolverError, TridiagonalSystem};

use crate::sanitize::{shrunk_many_small, shrunk_paper_grid, solve_case};

/// Outcome of one planted-defect fixture.
#[derive(Debug, Clone)]
pub struct ProofFixture {
    /// Fixture name (what was planted).
    pub name: &'static str,
    /// Did the prover refuse to certify the planted defect?
    pub refuted: bool,
    /// The failed obligation the prover produced (or why refutation
    /// failed).
    pub detail: String,
}

/// Outcome of one certification-sweep case.
#[derive(Debug, Clone)]
pub struct AnalyzeCase {
    /// Human-readable case label (device, workload, precision, kernels).
    pub label: String,
    /// Did every proof obligation discharge?
    pub certified: bool,
    /// Obligations the prover checked for this case.
    pub obligations: usize,
    /// Worst shared-memory bank-conflict degree across the case's sites.
    pub worst_bank_degree: usize,
    /// Every failed obligation, lint error and validation site.
    pub failures: Vec<String>,
}

/// Outcome of one cross-validation pairing: the static verdict next to
/// the dynamic sanitizer's hazard list for the same case.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// Case label shared by both runs.
    pub label: String,
    /// The static analyzer's verdict.
    pub certified: bool,
    /// Hazards the dynamic sanitizer found (rendered).
    pub hazards: Vec<String>,
}

impl CrossCheck {
    /// True unless a statically-certified case produced a dynamic hazard
    /// — the one combination that indicts the analyzer's soundness.
    pub fn is_sound(&self) -> bool {
        !self.certified || self.hazards.is_empty()
    }
}

/// Options for the certification sweep and cross-validation.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Devices to sweep (defaults to all three paper devices).
    pub devices: Vec<DeviceSpec>,
    /// Linear shrink applied to the paper's workload grid; 1 = the full
    /// Figure 5–8 sizes. The static sweep is cheap, so the *analysis*
    /// always covers the full grid — the shrink only bounds the
    /// cross-validation solves.
    pub shrink: usize,
    /// Sweep f32 as well as f64.
    pub both_precisions: bool,
}

impl AnalyzeOptions {
    /// The full matrix: all devices, both precisions, full-size grid.
    pub fn full() -> Self {
        Self {
            devices: DeviceSpec::paper_devices(),
            shrink: 1,
            both_precisions: true,
        }
    }

    /// The CI smoke matrix: one device, f64 only, shrunk
    /// cross-validation workloads.
    pub fn quick() -> Self {
        Self {
            devices: vec![DeviceSpec::gtx_470()],
            shrink: 16,
            both_precisions: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Fixture self-check
// ---------------------------------------------------------------------------

fn refutation(name: &'static str, refuted: bool, failures: Vec<String>) -> ProofFixture {
    ProofFixture {
        name,
        refuted,
        detail: if failures.is_empty() {
            "planted defect was not refuted".into()
        } else {
            failures.join("; ")
        },
    }
}

fn fixture_summary() -> (KernelAccessSummary, LaunchConfig) {
    let n = 1024;
    let base = StageOp::BaseSolve {
        chains: 1,
        chain_len: n,
        stride: 1,
        thomas_chains: 4,
        variant: BaseVariant::Strided,
    }
    .describe(1, n);
    (base.access_summary(), base.config(8))
}

/// Planted defect: the buffer is one element shorter than the access
/// map's reach, so exactly one global access goes out of bounds.
fn oob_fixture() -> ProofFixture {
    let (mut summary, cfg) = fixture_summary();
    summary.buffer_len -= 1;
    let proof = prove_kernel(&summary, &cfg, 8);
    let failures: Vec<String> = proof
        .failures()
        .filter(|o| o.name.starts_with("oob-global"))
        .map(|o| format!("{}: {}", o.name, o.detail))
        .collect();
    refutation("out-of-bounds access map", !failures.is_empty(), failures)
}

/// Planted defect: the base kernel's double sync is collapsed — the PCR
/// read and write intervals merge, recreating the read/write race the
/// real kernel's second barrier exists to prevent.
fn race_fixture() -> ProofFixture {
    let (mut summary, cfg) = fixture_summary();
    if summary.intervals.len() >= 2 {
        let second = summary.intervals.remove(1);
        let first = &mut summary.intervals[0];
        first.label = format!("{}+{}", first.label, second.label);
        first.accesses.extend(second.accesses);
    }
    let proof = prove_kernel(&summary, &cfg, 8);
    let failures: Vec<String> = proof
        .failures()
        .filter(|o| o.name.starts_with("race-free"))
        .map(|o| format!("{}: {}", o.name, o.detail))
        .collect();
    refutation("collapsed-barrier race", !failures.is_empty(), failures)
}

/// Planted defect: a valid plan with its stage ladder reversed, which
/// the structural lints must flag as an error.
fn lint_fixture() -> ProofFixture {
    let q = DeviceSpec::gtx_470().queryable().clone();
    let shape = WorkloadShape::new(16, 2048);
    let params = SolverParams::default_untuned();
    match SolvePlan::build(shape, &params, &q, 8) {
        Ok(mut plan) => {
            plan.ops.reverse();
            let failures: Vec<String> = lint_plan(&plan)
                .into_iter()
                .filter(|l| l.level == LintLevel::Error)
                .map(|l| format!("[{}] {}", l.code, l.message))
                .collect();
            refutation("reversed stage ladder", !failures.is_empty(), failures)
        }
        Err(e) => refutation(
            "reversed stage ladder",
            false,
            vec![format!("fixture plan failed to build: {e}")],
        ),
    }
}

/// Planted defect: the interleave pass's output buffer is one element
/// short of the batch it scatters into, so the highest interleaved-layout
/// store (`(n-1)·m + (m-1)`) lands out of bounds. Exercises the prover on
/// the interleaved access maps specifically — the `j·m + s` scatter is
/// the family's characteristic pattern.
fn interleave_oob_fixture() -> ProofFixture {
    let (m, n) = (64usize, 32usize);
    let pack = StageOp::InterleavePack {
        systems: m,
        size: n,
    }
    .describe(m, n);
    let mut summary = pack.access_summary();
    summary.buffer_len -= 1;
    let proof = prove_kernel(&summary, &pack.config(8), 8);
    let failures: Vec<String> = proof
        .failures()
        .filter(|o| o.name.starts_with("oob-global"))
        .map(|o| format!("{}: {}", o.name, o.detail))
        .collect();
    refutation(
        "interleaved-layout out-of-bounds scatter",
        !failures.is_empty(),
        failures,
    )
}

/// Planted defect: an on-chip size four times past the weakest device's
/// capacity. Both the all-sizes budget proof and the tuner's rejection
/// predicate must refuse it.
fn budget_fixture() -> ProofFixture {
    let q = DeviceSpec::geforce_8800_gtx().queryable().clone();
    let params = SolverParams {
        onchip_size: 4096,
        ..SolverParams::default_untuned()
    };
    let budget = smem_budget_obligation(&params, &q, 4);
    let rejected = statically_rejected(WorkloadShape::new(16, 4096), &params, &q, 4);
    let mut failures = Vec::new();
    if !budget.proven {
        failures.push(format!("{}: {}", budget.name, budget.detail));
    }
    if let Some(reason) = rejected {
        failures.push(reason);
    }
    refutation("oversized on-chip budget", failures.len() == 2, failures)
}

/// Run the five planted-defect fixtures. Each plants exactly one defect
/// class; a sound prover refutes all five.
pub fn fixture_checks() -> Vec<ProofFixture> {
    vec![
        oob_fixture(),
        race_fixture(),
        interleave_oob_fixture(),
        lint_fixture(),
        budget_fixture(),
    ]
}

// ---------------------------------------------------------------------------
// Certification sweep
// ---------------------------------------------------------------------------

/// Prove a set of standalone `(summary, config)` kernels as one case:
/// every proof obligation plus launch admissibility on the device.
fn prove_standalone(
    label: String,
    dev: &DeviceSpec,
    eb: usize,
    kernels: &[(KernelAccessSummary, LaunchConfig)],
) -> AnalyzeCase {
    let q = dev.queryable();
    let mut obligations = 0;
    let mut worst = 1;
    let mut failures = Vec::new();
    for (summary, cfg) in kernels {
        let proof = prove_kernel(summary, cfg, eb);
        obligations += proof.obligations.len();
        failures.extend(
            proof
                .failures()
                .map(|o| format!("{}: {} ({})", proof.label, o.name, o.detail)),
        );
        let validation = validate_launch(q, cfg);
        obligations += 1;
        failures.extend(
            validation
                .errors()
                .map(|d| format!("launch refused: {}", d.site())),
        );
        worst = worst.max(
            kernel_bank_summaries(summary, q, eb)
                .iter()
                .map(|b| b.degree)
                .max()
                .unwrap_or(1),
        );
    }
    AnalyzeCase {
        label,
        certified: failures.is_empty(),
        obligations,
        worst_bank_degree: worst,
        failures,
    }
}

/// One multi-stage plan case: build, validate, lint and prove the plan
/// the engine would run for `(shape, params)` on this device.
fn plan_case(
    dev: &DeviceSpec,
    shape: WorkloadShape,
    variant: BaseVariant,
    precision: &str,
    eb: usize,
) -> AnalyzeCase {
    let q = dev.queryable();
    let label = format!(
        "{} {} {} {:?}",
        dev.name(),
        shape.label(),
        precision,
        variant
    );
    let params = SolverParams {
        variant,
        ..StaticTuner.params_for(shape, q, eb)
    };
    match analyze_params(shape, &params, q, eb) {
        Ok(report) => AnalyzeCase {
            label,
            certified: report.certified(),
            obligations: report.obligations_checked(),
            worst_bank_degree: report.worst_bank_degree(),
            failures: report.failures(),
        },
        Err(e) => AnalyzeCase {
            label,
            certified: false,
            obligations: 0,
            worst_bank_degree: 1,
            failures: vec![format!("plan construction rejected: {e}")],
        },
    }
}

/// The repack/unpack transpose passes, proven directly from their
/// summaries (they run outside any `SolvePlan`).
fn repack_case(dev: &DeviceSpec, precision: &str, eb: usize) -> AnalyzeCase {
    let (m, n, stride) = (4usize, 2048usize, 4usize);
    let label = format!("{} repack/unpack {m}x{n}@{stride} {precision}", dev.name());
    let kernels = vec![
        (
            repack_access_summary(m, n, stride),
            repack_config(m, n, stride, eb),
        ),
        (
            unpack_access_summary(m, n, stride),
            unpack_config(m, n, stride, eb),
        ),
    ];
    prove_standalone(label, dev, eb, &kernels)
}

/// The three prior-art baseline kernels, proven directly from their
/// summaries at the same geometry the dynamic sweep runs them.
fn baseline_case(dev: &DeviceSpec, precision: &str, eb: usize) -> AnalyzeCase {
    let (m, n, stride) = (8usize, 256usize, 1usize);
    let chain_len = n / stride;
    let label = format!("{} baselines {chain_len}@{stride} {precision}", dev.name());
    let kernels: Vec<(KernelAccessSummary, LaunchConfig)> = [
        BaselineAlgo::Pcr,
        BaselineAlgo::Cr,
        BaselineAlgo::CrPcr { pcr_threshold: 64 },
    ]
    .into_iter()
    .map(|algo| {
        (
            baseline_access_summary(m, n, chain_len, stride, algo),
            baseline_config(m * stride, chain_len, stride, algo, eb),
        )
    })
    .collect();
    prove_standalone(label, dev, eb, &kernels)
}

fn sweep_device(
    dev: &DeviceSpec,
    shapes: &[WorkloadShape],
    precision: &str,
    eb: usize,
    out: &mut Vec<AnalyzeCase>,
) {
    for &shape in shapes {
        let mut variants = vec![BaseVariant::Strided, BaseVariant::Coalesced];
        // The interleaved family joins wherever the plan builder admits
        // it (the batch floor rules elsewhere, matching
        // `prune_layout_axis`).
        if shape.num_systems >= INTERLEAVED_MIN_SYSTEMS {
            variants.push(BaseVariant::Interleaved);
        }
        for variant in variants {
            out.push(plan_case(dev, shape, variant, precision, eb));
        }
    }
    out.push(repack_case(dev, precision, eb));
    out.push(baseline_case(dev, precision, eb));
}

/// Run the certification sweep: the Figure 5–8 grid plus the many-small
/// grid × every admissible layout variant × devices (× precisions), plus
/// the repack and baseline kernel sets per device. Every case is
/// expected to certify.
pub fn sweep(opts: &AnalyzeOptions) -> Vec<AnalyzeCase> {
    let mut shapes = WorkloadShape::paper_grid();
    shapes.extend(WorkloadShape::many_small_grid());
    let mut out = Vec::new();
    for dev in &opts.devices {
        sweep_device(dev, &shapes, "f64", 8, &mut out);
        if opts.both_precisions {
            sweep_device(dev, &shapes, "f32", 4, &mut out);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Cross-validation against the dynamic sanitizer
// ---------------------------------------------------------------------------

fn cross_check<T: GpuScalar>(
    dev: &DeviceSpec,
    shape: WorkloadShape,
    variant: BaseVariant,
    precision: &str,
) -> Result<CrossCheck, String> {
    let eb = elem_bytes::<T>();
    let q = dev.queryable();
    let params = SolverParams {
        variant,
        ..StaticTuner.params_for(shape, q, eb)
    };
    let certified = analyze_params(shape, &params, q, eb).is_ok_and(|r| r.certified());
    let dynamic = solve_case::<T>(dev, shape, variant, precision)?;
    Ok(CrossCheck {
        label: dynamic.label,
        certified,
        hazards: dynamic.hazards,
    })
}

/// Re-run a sample of sweep cases under the dynamic sanitizer and pair
/// each runtime hazard list with the static verdict. Workloads use the
/// shrunk grid (static certification is size-generic; dynamic solves are
/// not free). Any certified-but-hazardous pair is a soundness failure.
pub fn cross_validate(opts: &AnalyzeOptions) -> Result<Vec<CrossCheck>, String> {
    let shapes = shrunk_paper_grid(opts.shrink);
    // Sample: the grid's corner shapes — many small systems, few large.
    let sample: Vec<WorkloadShape> = match (shapes.first(), shapes.last()) {
        (Some(&a), Some(&b)) if a != b => vec![a, b],
        (Some(&a), _) => vec![a],
        _ => Vec::new(),
    };
    let many_small = crate::sanitize::shrunk_many_small(opts.shrink);
    let mut out = Vec::new();
    for dev in &opts.devices {
        for &shape in &sample {
            for variant in [BaseVariant::Strided, BaseVariant::Coalesced] {
                out.push(cross_check::<f64>(dev, shape, variant, "f64")?);
                if opts.both_precisions {
                    out.push(cross_check::<f32>(dev, shape, variant, "f32")?);
                }
            }
        }
        // The interleaved fast path: certified statically, then re-run
        // under the dynamic sanitizer on a shrunk many-small batch.
        out.push(cross_check::<f64>(
            dev,
            many_small,
            BaseVariant::Interleaved,
            "f64",
        )?);
        if opts.both_precisions {
            out.push(cross_check::<f32>(
                dev,
                many_small,
                BaseVariant::Interleaved,
                "f32",
            )?);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Stability certification (`--stability`)
// ---------------------------------------------------------------------------

/// The workload classes the stability sweep certifies, mirroring the chaos
/// campaign's matrix. The dominant and ill-conditioned classes enter below
/// ratio 1 and must certify; the non-dominant class must be refuted.
const STABILITY_CLASSES: &[WorkloadClass] = &[
    WorkloadClass::Dominant,
    WorkloadClass::IllConditioned { margin: 1e-3 },
    WorkloadClass::NonDominant { dominance: 0.85 },
];

/// The plan the stability fixtures certify against: a staged pipeline on
/// the reference device, guaranteed to carry both PCR and Thomas phases.
fn stability_fixture_plan(eb: usize) -> Result<SolvePlan, String> {
    SolvePlan::build(
        WorkloadShape::new(16, 2048),
        &SolverParams::default_untuned(),
        DeviceSpec::gtx_470().queryable(),
        eb,
    )
    .map_err(|e| format!("fixture plan failed to build: {e}"))
}

/// Planted defect: a non-dominant batch (every interior row breaks
/// dominance) claimed as `Dominant`. The class-claim audit measures the
/// batch's actual worst row ratio against the generator's knob and must
/// refute the classification — while accepting the honest one.
fn misclassified_batch_fixture() -> ProofFixture {
    let name = "non-dominant batch falsely classed dominant";
    let class = WorkloadClass::NonDominant { dominance: 0.85 };
    match class.generate::<f64>(WorkloadShape::new(32, 256), 2011) {
        Ok(batch) => {
            let measured = worst_dominance_ratio(&batch);
            let claim = class_claim_obligation(measured, WorkloadClass::Dominant);
            let honest = class_claim_obligation(measured, class);
            let mut failures = Vec::new();
            if !claim.proven {
                failures.push(format!("{}: {}", claim.name, claim.detail));
            }
            if !honest.proven {
                failures.push(format!(
                    "honest classification rejected too: {}",
                    honest.detail
                ));
            }
            refutation(name, !claim.proven && honest.proven, failures)
        }
        Err(e) => refutation(
            name,
            false,
            vec![format!("fixture batch failed to build: {e}")],
        ),
    }
}

/// Planted defect: a Thomas chain whose second pivot cancels exactly
/// (`b₁ − a₁·c₀/b₀ = 0`). The certifier must refuse pivot-freedom for any
/// class entering at the chain's measured ratio (≥ 1), and the serial
/// Thomas solver must confirm the prediction with a zero pivot at the
/// predicted row.
fn zero_pivot_fixture() -> ProofFixture {
    let name = "zero-pivot Thomas chain";
    let (a, b, c, d) = (
        vec![0.0f64, 1.0, 0.5],
        vec![1.0, 1.0, 2.0],
        vec![1.0, 0.5, 0.0],
        vec![1.0, 1.0, 1.0],
    );
    let sys = match TridiagonalSystem::new(a.clone(), b.clone(), c.clone(), d.clone()) {
        Ok(s) => s,
        Err(e) => {
            return refutation(
                name,
                false,
                vec![format!("fixture system failed to build: {e}")],
            )
        }
    };
    let batch = match trisolve_tridiag::SystemBatch::new(1, 3, a, b, c, d) {
        Ok(x) => x,
        Err(e) => {
            return refutation(
                name,
                false,
                vec![format!("fixture batch failed to build: {e}")],
            )
        }
    };
    // Row 1 has ratio (1 + 0.5)/1 = 1.5: dominance is broken, so the
    // static certificate for a class at this measured ratio must refuse
    // pivot-freedom on any Thomas-bearing plan.
    let measured = worst_dominance_ratio(&batch);
    let mut failures = Vec::new();
    let mut static_refuted = false;
    match stability_fixture_plan(8) {
        Ok(plan) => {
            let class = WorkloadClass::NonDominant {
                dominance: 1.0 / measured,
            };
            let cert = certify_plan(&plan, class, 8);
            if let Some(o) = cert.failures().iter().find(|o| o.name == "pivot-freedom") {
                static_refuted = true;
                failures.push(format!("{}: {}", o.name, o.detail));
            }
        }
        Err(e) => failures.push(e),
    }
    // The prediction is constructive: the serial Thomas recurrence hits
    // the planted zero pivot exactly where the bound says it can.
    let dynamic_confirmed = match solve_thomas(&sys) {
        Err(SolverError::ZeroPivot { row, .. }) => {
            failures.push(format!(
                "solve_thomas hit the predicted zero pivot at row {row}"
            ));
            row == 1
        }
        Err(e) => {
            failures.push(format!("solve_thomas failed differently: {e}"));
            false
        }
        Ok(_) => {
            failures.push("solve_thomas accepted the planted chain".into());
            false
        }
    };
    refutation(name, static_refuted && dynamic_confirmed, failures)
}

/// Planted defect: an ill-conditioned class (margin `1e-6`, condition
/// number ~2·10⁶) pushed through the f32 gate. Dominance still certifies —
/// the entry ratio is strictly below 1 — but the certified f32 bound blows
/// through [`F32_SAFETY_THRESHOLD`] and the gate must refuse the candidate
/// while the f64 path passes: a forced precision downgrade.
fn f32_bound_violation_fixture() -> ProofFixture {
    let name = "ill-conditioned class violating the f32 bound";
    let class = WorkloadClass::IllConditioned { margin: 1e-6 };
    let plan = match stability_fixture_plan(4) {
        Ok(p) => p,
        Err(e) => return refutation(name, false, vec![e]),
    };
    let f32_cert = certify_plan(&plan, class, 4);
    let f64_cert = certify_plan(&plan, class, 8);
    let refuted = f32_cert.certified()
        && !f32_cert.precision_safe()
        && f32_cert.precision_downgrade_recommended()
        && f64_cert.precision_safe();
    refutation(
        name,
        refuted,
        vec![format!(
            "f32 bound {:.3e} exceeds the {F32_SAFETY_THRESHOLD:.0e} gate \
             (condition estimate {:.1e}); f64 bound {:.3e} passes",
            f32_cert.bound_rel,
            class.condition_estimate(),
            f64_cert.bound_rel
        )],
    )
}

/// Run the three planted stability fixtures. Separate from
/// [`fixture_checks`] (the memory/structural prover's five) so each
/// prover's self-check stays independently pinned.
pub fn stability_fixture_checks() -> Vec<ProofFixture> {
    vec![
        misclassified_batch_fixture(),
        zero_pivot_fixture(),
        f32_bound_violation_fixture(),
    ]
}

/// Outcome of one stability-certification case.
#[derive(Debug, Clone)]
pub struct StabilityCase {
    /// Human-readable case label (device, workload, precision, layout,
    /// class).
    pub label: String,
    /// Should this class certify on this plan? Non-dominant classes must
    /// not.
    pub expected_certified: bool,
    /// Did the certifier's three obligations all discharge?
    pub certified: bool,
    /// The tuner's precision-safety verdict (for f32, the certified bound
    /// within [`F32_SAFETY_THRESHOLD`]).
    pub precision_safe: bool,
    /// Certified a-priori relative forward error bound.
    pub bound_rel: f64,
    /// The same bound in ulps of the element type.
    pub bound_ulps: f64,
    /// Failed obligations (expected and required for non-dominant classes).
    pub failures: Vec<String>,
}

impl StabilityCase {
    /// The verdict matches the expectation: certified exactly when the
    /// class admits certification — no false refutations, no false proofs.
    pub fn passed(&self) -> bool {
        self.certified == self.expected_certified
    }
}

/// One stability case: certify the plan the engine would run for
/// `(shape, variant)` on this device against one workload class.
fn stability_case(
    dev: &DeviceSpec,
    shape: WorkloadShape,
    variant: BaseVariant,
    precision: &str,
    eb: usize,
    class: WorkloadClass,
) -> StabilityCase {
    let q = dev.queryable();
    let label = format!(
        "{} {} {} {:?} {}",
        dev.name(),
        shape.label(),
        precision,
        variant,
        class.label()
    );
    let expected_certified = class.dominance_ratio() < 1.0;
    let params = SolverParams {
        variant,
        ..StaticTuner.params_for(shape, q, eb)
    };
    match SolvePlan::build(shape, &params, q, eb) {
        Ok(plan) => {
            let cert = certify_plan(&plan, class, eb);
            StabilityCase {
                label,
                expected_certified,
                certified: cert.certified(),
                precision_safe: cert.precision_safe(),
                bound_rel: cert.bound_rel,
                bound_ulps: cert.bound_ulps,
                failures: cert
                    .failures()
                    .iter()
                    .map(|o| format!("{}: {}", o.name, o.detail))
                    .collect(),
            }
        }
        Err(e) => StabilityCase {
            label,
            expected_certified,
            certified: false,
            precision_safe: false,
            bound_rel: f64::NAN,
            bound_ulps: f64::NAN,
            failures: vec![format!("plan construction rejected: {e}")],
        },
    }
}

fn stability_sweep_device(
    dev: &DeviceSpec,
    shapes: &[WorkloadShape],
    precision: &str,
    eb: usize,
    out: &mut Vec<StabilityCase>,
) {
    for &shape in shapes {
        let mut variants = vec![BaseVariant::Strided, BaseVariant::Coalesced];
        if shape.num_systems >= INTERLEAVED_MIN_SYSTEMS {
            variants.push(BaseVariant::Interleaved);
        }
        for variant in variants {
            for &class in STABILITY_CLASSES {
                out.push(stability_case(dev, shape, variant, precision, eb, class));
            }
        }
    }
}

/// Run the stability-certification sweep: the Figure 5–8 grid plus the
/// many-small grid × every admissible layout variant × devices
/// (× precisions) × the three campaign workload classes. Dominant and
/// ill-conditioned cases must certify; non-dominant cases must be refuted
/// — [`StabilityCase::passed`] checks the verdict against the expectation
/// in both directions.
pub fn stability_sweep(opts: &AnalyzeOptions) -> Vec<StabilityCase> {
    let mut shapes = WorkloadShape::paper_grid();
    shapes.extend(WorkloadShape::many_small_grid());
    let mut out = Vec::new();
    for dev in &opts.devices {
        stability_sweep_device(dev, &shapes, "f64", 8, &mut out);
        if opts.both_precisions {
            stability_sweep_device(dev, &shapes, "f32", 4, &mut out);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Schedule certification (`--schedule`)
// ---------------------------------------------------------------------------

/// Seed for the schedule cross-validation workloads.
const SCHEDULE_SEED: u64 = 47;

/// Batches per pipelined schedule in the sweep and cross-validation.
/// Three batches exercise both event-edge families of the lowering: the
/// solution-buffer WAR edge (present from the second batch) and the
/// double-buffer set-reuse edge (present from the third).
const SCHEDULE_BATCHES: usize = 3;

/// The plan the schedule fixtures mutate: the reference device's staged
/// pipeline, matching the in-crate fixture tests.
fn schedule_fixture_plan() -> Result<SolvePlan, String> {
    SolvePlan::build(
        WorkloadShape::new(8, 2048),
        &SolverParams::default_untuned(),
        DeviceSpec::gtx_470().queryable(),
        4,
    )
    .map_err(|e| format!("fixture plan failed to build: {e}"))
}

/// Run the four planted schedule defects (deleted upload, stripped waits,
/// reciprocal events, phantom wait). Each must be refuted *on its own
/// obligation* — a certifier that flags the wrong hazard class has not
/// understood the defect, so that counts as a miss.
pub fn schedule_fixture_checks() -> Vec<ProofFixture> {
    let plan = match schedule_fixture_plan() {
        Ok(p) => p,
        Err(e) => return vec![refutation("schedule fixture plan", false, vec![e])],
    };
    schedule_fixtures(&plan)
        .into_iter()
        .map(|fixture| {
            let report = certify_schedule(fixture.name, &fixture.schedule);
            let refuted = report.refutes(fixture.obligation);
            let failures: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
            refutation(fixture.name, refuted, failures)
        })
        .collect()
}

/// Outcome of one schedule-certification case.
#[derive(Debug, Clone)]
pub struct ScheduleCase {
    /// Case label (device, workload, precision, batch count).
    pub label: String,
    /// Did all four happens-before obligations discharge?
    pub certified: bool,
    /// Node count of the lowered schedule DAG.
    pub nodes: usize,
    /// Stream count the lowering targeted.
    pub streams: usize,
    /// Every refuted obligation, rendered.
    pub failures: Vec<String>,
}

/// Lower the pipelined schedule the engine would execute for this
/// `(device, shape, precision)` point and certify it. Also checks that
/// [`schedule_rejected`] — the analysis-side mirror of the executor's
/// admission predicate — agrees with the certifier's verdict.
fn schedule_case(
    dev: &DeviceSpec,
    shape: WorkloadShape,
    precision: &str,
    eb: usize,
    batches: usize,
) -> ScheduleCase {
    let q = dev.queryable();
    let label = format!("{} {} {} x{batches}", dev.name(), shape.label(), precision);
    let params = StaticTuner.params_for(shape, q, eb);
    match SolvePlan::build(shape, &params, q, eb) {
        Ok(plan) => {
            let schedule = lower_schedule(&plan, batches, 2);
            let report = certify_schedule(&label, &schedule);
            let mut failures: Vec<String> =
                report.violations.iter().map(ToString::to_string).collect();
            if schedule_rejected(&plan, batches) == report.certified() {
                failures.push("admission mirror disagrees with the certifier".into());
            }
            ScheduleCase {
                label,
                certified: failures.is_empty(),
                nodes: report.nodes,
                streams: report.streams,
                failures,
            }
        }
        Err(e) => ScheduleCase {
            label,
            certified: false,
            nodes: 0,
            streams: 0,
            failures: vec![format!("plan construction rejected: {e}")],
        },
    }
}

/// Run the schedule-certification sweep: the Figure 5–8 grid plus the
/// many-small grid × devices (× precisions), lowering each plan to its
/// two-stream pipelined schedule and discharging all four happens-before
/// obligations. Lowering and checking are purely static, so the sweep
/// always covers the full-size grid regardless of the shrink factor.
pub fn schedule_sweep(opts: &AnalyzeOptions) -> Vec<ScheduleCase> {
    let mut shapes = WorkloadShape::paper_grid();
    shapes.extend(WorkloadShape::many_small_grid());
    let mut out = Vec::new();
    for dev in &opts.devices {
        for &shape in &shapes {
            out.push(schedule_case(dev, shape, "f64", 8, SCHEDULE_BATCHES));
            if opts.both_precisions {
                out.push(schedule_case(dev, shape, "f32", 4, SCHEDULE_BATCHES));
            }
        }
    }
    out
}

/// One schedule cross-validation pairing: the static certifier's verdict
/// next to the dynamic cross-stream tracker's hazard list for the same
/// *executed* schedule.
#[derive(Debug, Clone)]
pub struct ScheduleCrossCheck {
    /// Case label shared by both runs.
    pub label: String,
    /// The static certifier's verdict for the executed schedule.
    pub certified: bool,
    /// Hazards the dynamic sanitizer found while executing it (rendered).
    pub hazards: Vec<String>,
}

impl ScheduleCrossCheck {
    /// Prover and tracker agree in *both* directions: certified schedules
    /// must run hazard-free, and the refuted-but-executable fixture must
    /// produce the race the prover predicted.
    pub fn agrees(&self) -> bool {
        self.certified == self.hazards.is_empty()
    }
}

fn rendered_hazards(report: &trisolve_gpu_sim::SanitizerReport) -> Vec<String> {
    let mut hazards: Vec<String> = report.hazards.iter().map(ToString::to_string).collect();
    if report.dropped > 0 {
        hazards.push(format!(
            "{} further hazards dropped past the cap",
            report.dropped
        ));
    }
    hazards
}

/// Execute the certified pipelined schedule for this case under the
/// dynamic sanitizer (per-launch checks *and* the cross-stream tracker)
/// and pair the hazard list with the static verdict.
fn pipelined_cross_check<T: GpuScalar>(
    dev: &DeviceSpec,
    shape: WorkloadShape,
    precision: &str,
) -> Result<ScheduleCrossCheck, String> {
    let label = format!("{} {} {} pipelined", dev.name(), shape.label(), precision);
    let params = StaticTuner.params_for(shape, dev.queryable(), elem_bytes::<T>());
    let batches: Vec<_> = (0..SCHEDULE_BATCHES)
        .map(|i| random_dominant::<T>(shape, SCHEDULE_SEED + i as u64))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut gpu: Gpu<T> = Gpu::with_sanitizer(dev.clone());
    let mut session = SolveSession::new(&mut gpu, shape).map_err(|e| format!("{label}: {e}"))?;
    let plan = session
        .plan_for(&params)
        .map_err(|e| format!("{label}: {e}"))?
        .clone();
    let certified = !schedule_rejected(&plan, batches.len());
    session
        .solve_pipelined(&mut gpu, &batches, &params)
        .map_err(|e| format!("{label}: {e}"))?;
    let report = gpu.take_sanitizer_report().expect("sanitizer is on");
    Ok(ScheduleCrossCheck {
        label,
        certified,
        hazards: rendered_hazards(&report),
    })
}

/// Execute the one *executable* refuted fixture (`stripped-waits`) through
/// the unchecked entry point under the sanitizer. The dynamic tracker must
/// catch the same cross-stream race the certifier refuted — the second
/// direction of the agreement contract.
fn racy_fixture_cross_check(dev: &DeviceSpec) -> Result<ScheduleCrossCheck, String> {
    let shape = WorkloadShape::new(8, 2048);
    let params = SolverParams::default_untuned();
    let label = format!("{} stripped-waits fixture f32", dev.name());
    let plan = SolvePlan::build(shape, &params, dev.queryable(), 4)
        .map_err(|e| format!("{label}: {e}"))?;
    let fixture = schedule_fixtures(&plan)
        .into_iter()
        .find(|f| f.executable)
        .ok_or_else(|| format!("{label}: no executable fixture"))?;
    let certified = fixture.schedule.check().is_empty();
    let batches: Vec<_> = (0..2)
        .map(|i| random_dominant::<f32>(shape, SCHEDULE_SEED + 16 + i as u64))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut gpu: Gpu<f32> = Gpu::with_sanitizer(dev.clone());
    let mut session = SolveSession::new(&mut gpu, shape).map_err(|e| format!("{label}: {e}"))?;
    session
        .solve_scheduled_unchecked(&mut gpu, &batches, &params, fixture.schedule)
        .map_err(|e| format!("{label}: {e}"))?;
    let report = gpu.take_sanitizer_report().expect("sanitizer is on");
    Ok(ScheduleCrossCheck {
        label,
        certified,
        hazards: rendered_hazards(&report),
    })
}

/// Cross-validate the happens-before certifier against the dynamic
/// cross-stream tracker: certified pipelined schedules on the shrunk
/// grid's corner shapes plus the many-small batch must run hazard-free,
/// and the executable `stripped-waits` fixture must race dynamically.
/// Any [`ScheduleCrossCheck`] that fails to agree indicts one side.
pub fn schedule_cross_validate(opts: &AnalyzeOptions) -> Result<Vec<ScheduleCrossCheck>, String> {
    let shapes = shrunk_paper_grid(opts.shrink);
    let sample: Vec<WorkloadShape> = match (shapes.first(), shapes.last()) {
        (Some(&a), Some(&b)) if a != b => vec![a, b],
        (Some(&a), _) => vec![a],
        _ => Vec::new(),
    };
    let many_small = shrunk_many_small(opts.shrink);
    let mut out = Vec::new();
    for dev in &opts.devices {
        for &shape in &sample {
            out.push(pipelined_cross_check::<f64>(dev, shape, "f64")?);
            if opts.both_precisions {
                out.push(pipelined_cross_check::<f32>(dev, shape, "f32")?);
            }
        }
        // The interleaved fast path pipelined on a shrunk many-small batch.
        out.push(pipelined_cross_check::<f64>(dev, many_small, "f64")?);
        // The refuted-but-executable fixture: the tracker must race.
        out.push(racy_fixture_cross_check(dev)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fixtures_refuted() {
        for f in fixture_checks() {
            assert!(f.refuted, "{}: {}", f.name, f.detail);
        }
    }

    #[test]
    fn quick_sweep_certifies_every_case() {
        for case in sweep(&AnalyzeOptions::quick()) {
            assert!(
                case.certified,
                "{}: {}",
                case.label,
                case.failures.join("; ")
            );
            assert!(case.obligations > 0, "{}: no obligations", case.label);
        }
    }

    #[test]
    fn stability_fixtures_all_refuted() {
        let fixtures = stability_fixture_checks();
        assert_eq!(fixtures.len(), 3);
        for f in fixtures {
            assert!(f.refuted, "{}: {}", f.name, f.detail);
        }
    }

    #[test]
    fn quick_stability_sweep_has_no_false_verdicts() {
        let cases = stability_sweep(&AnalyzeOptions::quick());
        assert!(!cases.is_empty());
        for c in &cases {
            assert!(
                c.passed(),
                "{}: certified={} expected={} ({})",
                c.label,
                c.certified,
                c.expected_certified,
                c.failures.join("; ")
            );
        }
        // Both verdict kinds actually occur: certifications for the
        // dominant/ill-conditioned classes, refutations for non-dominant.
        assert!(cases.iter().any(|c| c.certified));
        assert!(cases.iter().any(|c| !c.certified && !c.expected_certified));
    }

    #[test]
    fn cross_validation_is_sound_on_the_quick_matrix() {
        let checks = cross_validate(&AnalyzeOptions::quick()).unwrap();
        assert!(!checks.is_empty());
        for c in checks {
            assert!(c.is_sound(), "{}: {}", c.label, c.hazards.join("; "));
            assert!(c.certified, "{}: sample case did not certify", c.label);
        }
    }

    #[test]
    fn schedule_fixtures_all_refuted() {
        let fixtures = schedule_fixture_checks();
        assert_eq!(fixtures.len(), 4);
        for f in fixtures {
            assert!(f.refuted, "{}: {}", f.name, f.detail);
        }
    }

    #[test]
    fn quick_schedule_sweep_certifies_every_case() {
        let cases = schedule_sweep(&AnalyzeOptions::quick());
        assert!(!cases.is_empty());
        for c in cases {
            assert!(c.certified, "{}: {}", c.label, c.failures.join("; "));
            assert!(c.nodes > 0, "{}: empty schedule", c.label);
            assert_eq!(c.streams, 2, "{}", c.label);
        }
    }

    #[test]
    fn schedule_cross_validation_agrees_both_ways() {
        let checks = schedule_cross_validate(&AnalyzeOptions::quick()).unwrap();
        assert!(!checks.is_empty());
        for c in &checks {
            assert!(
                c.agrees(),
                "{}: certified={} hazards=[{}]",
                c.label,
                c.certified,
                c.hazards.join("; ")
            );
        }
        // Both directions actually occur on the quick matrix.
        assert!(checks.iter().any(|c| c.certified));
        assert!(checks.iter().any(|c| !c.certified && !c.hazards.is_empty()));
    }
}
