//! Whole-plan analysis reports and the tuner-facing rejection predicate.

use serde::Serialize;
use trisolve_core::{BaseVariant, CoreError, SolvePlan, SolverParams, StageOp};
use trisolve_gpu_sim::QueryableProps;
use trisolve_tridiag::workloads::WorkloadShape;

use crate::conflict::{kernel_bank_summaries, predict_layout, BankSummary};
use crate::lints::{lint_plan, smem_budget_obligation, Lint, LintLevel};
use crate::proof::{prove_kernel, KernelProof, Obligation};

/// The complete static verdict on one `(device, plan)` point.
#[derive(Debug, Clone, Serialize)]
pub struct AnalysisReport {
    /// Workload + device label, e.g. `"1024x1024 on GeForce GTX 470"`.
    pub label: String,
    /// The plan's one-line summary.
    pub plan_summary: String,
    /// Sites of fatal launch-validation diagnostics (empty = admissible).
    pub validation_errors: Vec<String>,
    /// Plan-level lints (structural errors and advice).
    pub lints: Vec<Lint>,
    /// Per-kernel proof records, in launch order.
    pub proofs: Vec<KernelProof>,
    /// Worst-case bank-conflict degrees of every shared-memory site.
    pub banks: Vec<BankSummary>,
    /// The all-sizes shared-memory budget proof for the plan's params.
    pub budget: Obligation,
    /// The layout the conflict/occupancy model predicts for this workload
    /// (interleaved in the many-small window, else by the base kernel's
    /// stride), next to the layout the plan actually uses.
    pub predicted_variant: BaseVariant,
    /// The layout the plan schedules.
    pub planned_variant: BaseVariant,
}

impl AnalysisReport {
    /// True when every proof discharged: the plan is admissible, lint-
    /// error-free, OOB-free, race-free and within the all-sizes budget.
    ///
    /// Advisory lints, bank-conflict degrees and a variant-prediction
    /// mismatch do **not** block certification — they are performance
    /// observations, not safety facts.
    pub fn certified(&self) -> bool {
        self.validation_errors.is_empty()
            && self.lints.iter().all(|l| l.level != LintLevel::Error)
            && self.proofs.iter().all(KernelProof::proven)
            && self.budget.proven
    }

    /// Every failed proof, lint error and validation site, flattened to
    /// printable strings. Empty iff [`Self::certified`].
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .validation_errors
            .iter()
            .map(|s| format!("launch refused: {s}"))
            .collect();
        out.extend(
            self.lints
                .iter()
                .filter(|l| l.level == LintLevel::Error)
                .map(|l| format!("lint [{}]: {}", l.code, l.message)),
        );
        for p in &self.proofs {
            out.extend(
                p.failures()
                    .map(|o| format!("{}: {} ({})", p.label, o.name, o.detail)),
            );
        }
        if !self.budget.proven {
            out.push(format!("smem-budget: {}", self.budget.detail));
        }
        out
    }

    /// Total obligations checked across all kernels (plus the budget).
    pub fn obligations_checked(&self) -> usize {
        1 + self
            .proofs
            .iter()
            .map(|p| p.obligations.len())
            .sum::<usize>()
    }

    /// Worst bank-conflict degree across every shared-memory site.
    pub fn worst_bank_degree(&self) -> usize {
        self.banks.iter().map(|b| b.degree).max().unwrap_or(1)
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut lines = vec![format!(
            "{}: {} — {}",
            self.label,
            self.plan_summary,
            if self.certified() {
                "CERTIFIED"
            } else {
                "UNPROVEN"
            }
        )];
        lines.push(format!(
            "  {} obligations, worst bank degree {}, predicted {:?} (planned {:?})",
            self.obligations_checked(),
            self.worst_bank_degree(),
            self.predicted_variant,
            self.planned_variant,
        ));
        for f in self.failures() {
            lines.push(format!("  FAIL {f}"));
        }
        for l in self.lints.iter().filter(|l| l.level == LintLevel::Advice) {
            lines.push(format!("  advice [{}]: {}", l.code, l.message));
        }
        lines.join("\n")
    }
}

/// Analyze a built plan on a device: validation, lints, per-kernel
/// proofs, bank-conflict degrees and the all-sizes budget proof.
pub fn analyze_plan(plan: &SolvePlan, q: &QueryableProps, elem_bytes: usize) -> AnalysisReport {
    let validation = plan.validate(q, elem_bytes);
    let validation_errors: Vec<String> = validation
        .errors()
        .map(trisolve_gpu_sim::Diagnostic::site)
        .collect();
    let lints = lint_plan(plan);

    let summaries: Vec<_> = plan.descriptors().map(|d| d.access_summary()).collect();
    let proofs: Vec<KernelProof> = summaries
        .iter()
        .zip(plan.descriptors())
        .map(|(s, d)| prove_kernel(s, &d.config(elem_bytes), elem_bytes))
        .collect();
    let banks: Vec<BankSummary> = summaries
        .iter()
        .flat_map(|s| kernel_bank_summaries(s, q, elem_bytes))
        .collect();
    let budget = smem_budget_obligation(&plan.params, q, elem_bytes);

    let (base_stride, planned_variant) = plan
        .ops
        .iter()
        .find_map(|op| match *op {
            StageOp::BaseSolve {
                stride, variant, ..
            } => Some((stride, variant)),
            _ => None,
        })
        .unwrap_or((1, plan.params.variant));

    AnalysisReport {
        label: format!("{} on {}", plan.shape.label(), q.name),
        plan_summary: plan.summary(),
        validation_errors,
        lints,
        proofs,
        banks,
        budget,
        predicted_variant: predict_layout(plan.shape, base_stride, q, elem_bytes),
        planned_variant,
    }
}

/// Build the plan for `(shape, params)` and analyze it. A plan the
/// builder itself rejects yields the builder's error.
pub fn analyze_params(
    shape: WorkloadShape,
    params: &SolverParams,
    q: &QueryableProps,
    elem_bytes: usize,
) -> trisolve_core::Result<AnalysisReport> {
    let plan = SolvePlan::build(shape, params, q, elem_bytes)?;
    Ok(analyze_plan(&plan, q, elem_bytes))
}

/// The tuner-facing rejection predicate: `Some(reason)` iff the
/// execution engine's `SolveSession::plan_for` would refuse this
/// candidate without running a single kernel.
///
/// Both ask the one admission function, [`SolvePlan::admit`]: plan
/// construction failing, or the built plan carrying a fatal
/// launch-validation diagnostic (`CoreError::PlanRejected`). Pruning on
/// it therefore cannot change which candidates the tuner's cost function
/// prices finitely, only *when* the `+inf` is known — the
/// bit-identical-output guarantee the auto-tuner's pruning hook relies on.
pub fn statically_rejected(
    shape: WorkloadShape,
    params: &SolverParams,
    q: &QueryableProps,
    elem_bytes: usize,
) -> Option<String> {
    match SolvePlan::admit(shape, params, q, elem_bytes) {
        Ok(_) => None,
        Err(CoreError::PlanRejected { report }) => {
            let sites: Vec<String> = report
                .errors()
                .map(trisolve_gpu_sim::Diagnostic::site)
                .collect();
            Some(format!("launch validation rejected: {}", sites.join(", ")))
        }
        Err(e) => Some(format!("plan construction rejected: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_gpu_sim::DeviceSpec;

    fn params() -> SolverParams {
        SolverParams::default_untuned()
    }

    #[test]
    fn paper_grid_certifies_on_every_device_and_layout() {
        use trisolve_core::params::INTERLEAVED_MIN_SYSTEMS;
        for dev in DeviceSpec::paper_devices() {
            let q = dev.queryable();
            for shape in WorkloadShape::paper_grid() {
                let mut variants = vec![BaseVariant::Strided, BaseVariant::Coalesced];
                // The interleaved family joins the sweep wherever the
                // builder admits it (the batch floor rules elsewhere).
                if shape.num_systems >= INTERLEAVED_MIN_SYSTEMS {
                    variants.push(BaseVariant::Interleaved);
                }
                for variant in variants {
                    let p = SolverParams {
                        variant,
                        ..params()
                    };
                    let report = analyze_params(shape, &p, q, 4).unwrap();
                    assert!(
                        report.certified(),
                        "{}: {:?}",
                        report.label,
                        report.failures()
                    );
                }
            }
        }
    }

    #[test]
    fn interleaved_plan_reports_its_layout_and_certifies() {
        let dev = DeviceSpec::gtx_470();
        let q = dev.queryable();
        let p = SolverParams {
            variant: BaseVariant::Interleaved,
            ..params()
        };
        let r = analyze_params(WorkloadShape::new(65536, 32), &p, q, 4).unwrap();
        assert!(r.certified(), "{:?}", r.failures());
        assert_eq!(r.planned_variant, BaseVariant::Interleaved);
        // Inside the many-small window the model agrees with the plan.
        assert_eq!(r.predicted_variant, BaseVariant::Interleaved);
        assert!(r.plan_summary.contains("ithomas"), "{}", r.plan_summary);
    }

    #[test]
    fn rejection_predicate_matches_the_plan_builder() {
        let dev = DeviceSpec::geforce_8800_gtx();
        let q = dev.queryable();
        let shape = WorkloadShape::new(32, 4096);
        // Admissible params: not rejected.
        assert_eq!(statically_rejected(shape, &params(), q, 4), None);
        // onchip_size above the machine cap: the builder refuses it.
        let too_big = SolverParams {
            onchip_size: 2048,
            ..params()
        };
        let reason = statically_rejected(shape, &too_big, q, 4);
        assert!(reason.is_some());
        assert!(
            SolvePlan::build(shape, &too_big, q, 4).is_err(),
            "predicate fired but the builder accepts"
        );
    }

    #[test]
    fn report_render_names_the_verdict() {
        let dev = DeviceSpec::gtx_470();
        let r = analyze_params(
            WorkloadShape::new(1024, 1024),
            &params(),
            dev.queryable(),
            4,
        )
        .unwrap();
        let text = r.render();
        assert!(text.contains("CERTIFIED"), "{text}");
        assert!(text.contains("obligations"), "{text}");
    }

    #[test]
    fn corrupted_plan_is_not_certified() {
        let dev = DeviceSpec::gtx_470();
        let q = dev.queryable();
        let mut plan = SolvePlan::build(WorkloadShape::new(1, 1 << 21), &params(), q, 4).unwrap();
        plan.ops.reverse();
        let r = analyze_plan(&plan, q, 4);
        assert!(!r.certified());
        assert!(r.failures().iter().any(|f| f.contains("stage-order")));
    }

    #[test]
    fn strided_prediction_kicks_in_at_wide_strides() {
        // 1x2M with a 256 on-chip size splits 8192-way: stride far past
        // one transaction span, so the model predicts Strided.
        let dev = DeviceSpec::gtx_470();
        let r = analyze_params(
            WorkloadShape::new(1, 2 * 1024 * 1024),
            &params(),
            dev.queryable(),
            4,
        )
        .unwrap();
        assert_eq!(r.predicted_variant, BaseVariant::Strided);
    }
}
