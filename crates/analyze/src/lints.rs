//! Plan-level lints: structural invariants of a [`SolvePlan`] that the
//! builder is supposed to guarantee, re-proven here from the emitted op
//! sequence alone.
//!
//! A lint at [`LintLevel::Error`] marks a plan that is internally
//! inconsistent — stages out of the Figure 1 order, a broken stride
//! ladder, dead launches, or lost equations. These never fire on plans
//! built by [`SolvePlan::build`]; the linter exists to catch drift
//! between the builder and the kernels it schedules (and is exercised
//! against hand-corrupted plans in the fixture tests).

use serde::Serialize;
use trisolve_core::{SolvePlan, SolverParams, StageOp};
use trisolve_gpu_sim::{validate_launch, QueryableProps};

use crate::proof::Obligation;

/// Severity of a plan lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LintLevel {
    /// The plan is internally inconsistent and must not run.
    Error,
    /// The plan runs correctly but leaves something on the table.
    Advice,
}

/// One plan-level finding.
#[derive(Debug, Clone, Serialize)]
pub struct Lint {
    /// Severity.
    pub level: LintLevel,
    /// Stable machine-readable code, e.g. `"stride-ladder"`.
    pub code: &'static str,
    /// Human-readable explanation with the offending numbers.
    pub message: String,
}

impl Lint {
    fn error(code: &'static str, message: String) -> Self {
        Lint {
            level: LintLevel::Error,
            code,
            message,
        }
    }

    fn advice(code: &'static str, message: String) -> Self {
        Lint {
            level: LintLevel::Advice,
            code,
            message,
        }
    }
}

/// Lint a plan's op sequence for structural invariants.
///
/// Checks, in order:
///
/// * **stage order** — zero or more `Stage1Split`, then at most one
///   `Stage2Split`, then exactly one terminal `BaseSolve`;
/// * **stride ladder monotonicity** — stage-1 strides double from 1,
///   stage 2 enters at the next stride and applies `steps` further
///   halvings, and the base kernel's stride equals the ladder's top;
/// * **switch-point consistency** — `systems_now` doubles along stage 1,
///   `thomas_chains == thomas_switch.min(chain_len)`, and the
///   `chain_len` matches `onchip_size.min(padded_size)`;
/// * **dead stages** — a stage-1 launch scheduled after the target
///   system count is already reached, or a stage-2 launch with zero
///   steps, does work no later stage needs;
/// * **equation conservation** — the base kernel's
///   `chains * chain_len` must equal `num_systems * padded_size`;
/// * **layout agreement** — the plan contains interleaved launches exactly
///   when `params.variant` requests the interleaved layout.
///
/// An **interleaved** plan (the stage-skip fast path) is held to its own
/// invariants instead: exactly the pack → batched-Thomas → unpack triple,
/// every launch agreeing on the batch geometry, the batch at or above
/// [`trisolve_core::params::INTERLEAVED_MIN_SYSTEMS`], and equation
/// conservation (`systems * size == num_systems * padded_size`). Mixing
/// staged and interleaved launches in one plan is a `stage-order` error.
pub fn lint_plan(plan: &SolvePlan) -> Vec<Lint> {
    let mut lints = Vec::new();
    let p = &plan.params;
    let m = plan.shape.num_systems;

    let is_interleaved_op = |op: &StageOp| {
        matches!(
            op,
            StageOp::InterleavePack { .. }
                | StageOp::InterleavedThomas { .. }
                | StageOp::Deinterleave { .. }
        )
    };

    // Layout agreement: the stage-skip ladder runs exactly when the
    // parameters request the interleaved layout. A plan whose ops disagree
    // with its recorded `params.variant` has drifted from the builder.
    let has_interleaved = plan.ops.iter().any(is_interleaved_op);
    if has_interleaved != (p.variant == trisolve_core::BaseVariant::Interleaved) {
        lints.push(Lint::error(
            "layout-mismatch",
            format!(
                "plan {} interleaved launches but params request the {:?} layout",
                if has_interleaved {
                    "contains"
                } else {
                    "contains no"
                },
                p.variant
            ),
        ));
    }

    if has_interleaved {
        if !plan.ops.iter().all(is_interleaved_op) {
            lints.push(Lint::error(
                "stage-order",
                "staged and interleaved launches mixed in one plan".into(),
            ));
        }
        lint_interleaved(plan, &mut lints);
        return lints;
    }

    // Stage order.
    let mut seen_stage2 = false;
    let mut seen_base = false;
    for op in &plan.ops {
        match op {
            StageOp::Stage1Split { .. } if seen_stage2 || seen_base => {
                lints.push(Lint::error(
                    "stage-order",
                    "stage-1 launch scheduled after stage 2 or the base kernel".into(),
                ));
            }
            StageOp::Stage1Split { .. } => {}
            StageOp::Stage2Split { .. } => {
                if seen_stage2 {
                    lints.push(Lint::error(
                        "stage-order",
                        "more than one stage-2 launch in the plan".into(),
                    ));
                }
                if seen_base {
                    lints.push(Lint::error(
                        "stage-order",
                        "stage-2 launch scheduled after the base kernel".into(),
                    ));
                }
                seen_stage2 = true;
            }
            StageOp::BaseSolve { .. } => {
                if seen_base {
                    lints.push(Lint::error(
                        "stage-order",
                        "more than one base-kernel launch in the plan".into(),
                    ));
                }
                seen_base = true;
            }
            // Interleaved launches never reach this loop: plans containing
            // any are fully linted by `lint_interleaved` and returned above.
            _ => {}
        }
    }
    if !matches!(plan.ops.last(), Some(StageOp::BaseSolve { .. })) {
        lints.push(Lint::error(
            "stage-order",
            "plan does not end with the base kernel".into(),
        ));
    }

    // Stride ladder + switch points + dead stages + conservation.
    let mut stride = 1usize;
    let mut systems = m;
    for op in &plan.ops {
        match *op {
            StageOp::Stage1Split {
                stride: s,
                systems_now,
            } => {
                if s != stride {
                    lints.push(Lint::error(
                        "stride-ladder",
                        format!(
                            "stage-1 stride {s} breaks the doubling ladder (expected {stride})"
                        ),
                    ));
                }
                if systems_now != systems {
                    lints.push(Lint::error(
                        "switch-points",
                        format!(
                            "stage-1 reports {systems_now} systems where the ladder implies {systems}"
                        ),
                    ));
                }
                if systems_now >= p.stage1_target_systems {
                    lints.push(Lint::error(
                        "dead-stage",
                        format!(
                            "stage-1 launch with {systems_now} systems already at/above the \
                             target {}; the switch point was missed",
                            p.stage1_target_systems
                        ),
                    ));
                }
                stride = s.max(1) * 2;
                systems = systems_now.max(1) * 2;
            }
            StageOp::Stage2Split {
                chains,
                stride_in,
                steps,
            } => {
                if stride_in != stride {
                    lints.push(Lint::error(
                        "stride-ladder",
                        format!(
                            "stage-2 enters at stride {stride_in} but the ladder is at {stride}"
                        ),
                    ));
                }
                if chains != systems {
                    lints.push(Lint::error(
                        "switch-points",
                        format!("stage-2 owns {chains} chains where the ladder implies {systems}"),
                    ));
                }
                if steps == 0 {
                    lints.push(Lint::error(
                        "dead-stage",
                        "stage-2 launch with zero PCR steps does nothing".into(),
                    ));
                }
                stride = stride_in << steps;
                systems = chains << steps;
            }
            StageOp::BaseSolve {
                chains,
                chain_len,
                stride: s,
                thomas_chains,
                ..
            } => {
                if s != stride {
                    lints.push(Lint::error(
                        "stride-ladder",
                        format!("base kernel at stride {s} but the ladder is at {stride}"),
                    ));
                }
                if chains != systems {
                    lints.push(Lint::error(
                        "switch-points",
                        format!(
                            "base kernel owns {chains} chains where the ladder implies {systems}"
                        ),
                    ));
                }
                if chain_len != p.onchip_size.min(plan.padded_size) {
                    lints.push(Lint::error(
                        "switch-points",
                        format!(
                            "chain length {chain_len} does not match \
                             onchip_size.min(padded) = {}",
                            p.onchip_size.min(plan.padded_size)
                        ),
                    ));
                }
                if thomas_chains != p.thomas_switch.min(chain_len) {
                    lints.push(Lint::error(
                        "switch-points",
                        format!(
                            "thomas switch {thomas_chains} does not match \
                             thomas_switch.min(chain_len) = {}",
                            p.thomas_switch.min(chain_len)
                        ),
                    ));
                }
                if chains * chain_len != m * plan.padded_size {
                    lints.push(Lint::error(
                        "equation-conservation",
                        format!(
                            "{chains} chains x {chain_len} equations != \
                             {m} systems x {} padded size",
                            plan.padded_size
                        ),
                    ));
                }
            }
            // Interleaved launches: handled by `lint_interleaved` above.
            _ => {}
        }
    }

    // Advice: a fully split plan with more stage-1 launches than needed
    // to hit the target burns global bandwidth per extra step.
    if plan.stage1_steps > 0 && m >= p.stage1_target_systems {
        lints.push(Lint::advice(
            "stage1-overuse",
            format!(
                "{} stage-1 launches although the workload already has {m} \
                 independent systems (target {})",
                plan.stage1_steps, p.stage1_target_systems
            ),
        ));
    }

    lints
}

/// Lint the interleaved (stage-skip) op triple. Called by [`lint_plan`]
/// whenever a plan contains any interleaved launch.
fn lint_interleaved(plan: &SolvePlan, lints: &mut Vec<Lint>) {
    use trisolve_core::params::INTERLEAVED_MIN_SYSTEMS;
    let m = plan.shape.num_systems;

    let interleaved: Vec<&StageOp> = plan
        .ops
        .iter()
        .filter(|op| {
            matches!(
                op,
                StageOp::InterleavePack { .. }
                    | StageOp::InterleavedThomas { .. }
                    | StageOp::Deinterleave { .. }
            )
        })
        .collect();
    let well_ordered = matches!(
        interleaved.as_slice(),
        [
            StageOp::InterleavePack { .. },
            StageOp::InterleavedThomas { .. },
            StageOp::Deinterleave { .. },
        ]
    );
    if !well_ordered {
        lints.push(Lint::error(
            "stage-order",
            format!(
                "interleaved plan must be exactly pack -> batched Thomas -> unpack, \
                 got {} interleaved launch(es)",
                interleaved.len()
            ),
        ));
    }

    for op in interleaved {
        let (systems, size) = match *op {
            StageOp::InterleavePack { systems, size }
            | StageOp::InterleavedThomas { systems, size }
            | StageOp::Deinterleave { systems, size } => (systems, size),
            _ => continue,
        };
        let label = op.describe(m, plan.padded_size).stage;
        if systems != m || size != plan.padded_size {
            lints.push(Lint::error(
                "switch-points",
                format!(
                    "{label} launch covers {systems}x{size} but the workload is \
                     {m}x{} (padded)",
                    plan.padded_size
                ),
            ));
        }
        if systems < INTERLEAVED_MIN_SYSTEMS {
            lints.push(Lint::error(
                "interleave-floor",
                format!(
                    "{label} launch over {systems} systems is below the interleaved \
                     batch floor {INTERLEAVED_MIN_SYSTEMS}"
                ),
            ));
        }
        if systems * size != m * plan.padded_size {
            lints.push(Lint::error(
                "equation-conservation",
                format!(
                    "{label}: {systems} systems x {size} equations != {m} systems x {} \
                     padded size",
                    plan.padded_size
                ),
            ));
        }
    }
    if !matches!(plan.ops.last(), Some(StageOp::Deinterleave { .. })) {
        lints.push(Lint::error(
            "stage-order",
            "interleaved plan does not end with the deinterleave launch".into(),
        ));
    }
}

/// Prove that the base kernel fits the device for *every* power-of-two
/// system size a workload could present, under the given parameters.
///
/// The plan builder clamps the chain length to
/// `onchip_size.min(padded_size)`, so the footprint is maximised at
/// `chain_len == onchip_size`; the sweep nevertheless walks every
/// power of two up to 2^22 (beyond the paper's largest workload) so the
/// proof covers the clamp itself, not just its endpoint. A failure
/// names the first size whose launch the device would refuse.
pub fn smem_budget_obligation(
    params: &SolverParams,
    q: &QueryableProps,
    elem_bytes: usize,
) -> Obligation {
    use trisolve_core::BaseVariant;

    let name = "smem-budget".to_string();
    for k in 0..=22u32 {
        let n = 1usize << k;
        let chain_len = params.onchip_size.min(n);
        let base = StageOp::BaseSolve {
            chains: n / chain_len,
            chain_len,
            stride: n / chain_len,
            thomas_chains: params.thomas_switch,
            variant: BaseVariant::Strided,
        };
        let cfg = base.describe(1, n).config(elem_bytes);
        let report = validate_launch(q, &cfg);
        if report.has_errors() {
            return Obligation {
                name,
                proven: false,
                detail: format!(
                    "size 2^{k}: base launch refused on {} ({})",
                    q.name,
                    report
                        .diagnostics
                        .iter()
                        .map(trisolve_gpu_sim::Diagnostic::site)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            };
        }
    }
    Obligation {
        name,
        proven: true,
        detail: format!(
            "base launch fits {} for every pow2 size up to 2^22 \
             (onchip_size {}, {} B elements)",
            q.name, params.onchip_size, elem_bytes
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_core::BaseVariant;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::workloads::WorkloadShape;

    fn params() -> SolverParams {
        SolverParams {
            stage1_target_systems: 16,
            onchip_size: 512,
            thomas_switch: 64,
            variant: BaseVariant::Strided,
        }
    }

    fn built_plan(m: usize, n: usize) -> SolvePlan {
        let dev = DeviceSpec::gtx_470();
        SolvePlan::build(WorkloadShape::new(m, n), &params(), dev.queryable(), 4).unwrap()
    }

    fn errors(lints: &[Lint]) -> Vec<&'static str> {
        lints
            .iter()
            .filter(|l| l.level == LintLevel::Error)
            .map(|l| l.code)
            .collect()
    }

    #[test]
    fn built_plans_lint_clean() {
        for (m, n) in [(1usize, 1 << 21), (1024, 1024), (4096, 4096), (7, 300)] {
            let lints = lint_plan(&built_plan(m, n));
            assert!(errors(&lints).is_empty(), "m={m} n={n}: {lints:?}");
        }
    }

    #[test]
    fn broken_stride_ladder_is_caught() {
        let mut plan = built_plan(1, 1 << 21);
        if let Some(StageOp::Stage1Split { stride, .. }) = plan.ops.get_mut(2) {
            *stride *= 2;
        } else {
            panic!("expected a stage-1 op");
        }
        assert!(errors(&lint_plan(&plan)).contains(&"stride-ladder"));
    }

    #[test]
    fn dead_stage2_is_caught() {
        let mut plan = built_plan(1024, 4096);
        if let Some(StageOp::Stage2Split { steps, .. }) = plan.ops.get_mut(0) {
            *steps = 0;
        } else {
            panic!("expected a stage-2 op");
        }
        assert!(errors(&lint_plan(&plan)).contains(&"dead-stage"));
    }

    #[test]
    fn reordered_stages_are_caught() {
        let mut plan = built_plan(1, 1 << 21);
        plan.ops.reverse();
        assert!(errors(&lint_plan(&plan)).contains(&"stage-order"));
    }

    #[test]
    fn lost_equations_are_caught() {
        let mut plan = built_plan(1024, 1024);
        if let Some(StageOp::BaseSolve { chains, .. }) = plan.ops.last_mut() {
            *chains /= 2;
        }
        let codes = errors(&lint_plan(&plan));
        assert!(codes.contains(&"equation-conservation"), "{codes:?}");
    }

    fn built_interleaved_plan(m: usize, n: usize) -> SolvePlan {
        let dev = DeviceSpec::gtx_470();
        let p = SolverParams {
            variant: BaseVariant::Interleaved,
            ..params()
        };
        SolvePlan::build(WorkloadShape::new(m, n), &p, dev.queryable(), 4).unwrap()
    }

    #[test]
    fn built_interleaved_plans_lint_clean() {
        for (m, n) in [(65536usize, 32usize), (16384, 64), (100, 48), (32, 1)] {
            let lints = lint_plan(&built_interleaved_plan(m, n));
            assert!(errors(&lints).is_empty(), "m={m} n={n}: {lints:?}");
        }
    }

    #[test]
    fn reordered_interleaved_ops_are_caught() {
        let mut plan = built_interleaved_plan(16384, 64);
        plan.ops.reverse();
        assert!(errors(&lint_plan(&plan)).contains(&"stage-order"));
    }

    #[test]
    fn interleaved_geometry_drift_is_caught() {
        let mut plan = built_interleaved_plan(16384, 64);
        if let Some(StageOp::InterleavedThomas { systems, .. }) = plan.ops.get_mut(1) {
            *systems /= 2;
        } else {
            panic!("expected the batched-Thomas op");
        }
        let codes = errors(&lint_plan(&plan));
        assert!(codes.contains(&"switch-points"), "{codes:?}");
        assert!(codes.contains(&"equation-conservation"), "{codes:?}");
    }

    #[test]
    fn interleaved_batch_floor_violation_is_caught() {
        let mut plan = built_interleaved_plan(16384, 64);
        for op in &mut plan.ops {
            match op {
                StageOp::InterleavePack { systems, .. }
                | StageOp::InterleavedThomas { systems, .. }
                | StageOp::Deinterleave { systems, .. } => *systems = 8,
                _ => {}
            }
        }
        plan.shape.num_systems = 8;
        assert!(errors(&lint_plan(&plan)).contains(&"interleave-floor"));
    }

    #[test]
    fn interleaved_layout_param_drift_is_caught() {
        // A stage-skip plan whose recorded params claim a staged layout —
        // the planner/lints magic-number drift the floor rule guards,
        // planted by hand.
        let mut plan = built_interleaved_plan(16384, 64);
        plan.params.variant = BaseVariant::Strided;
        assert!(errors(&lint_plan(&plan)).contains(&"layout-mismatch"));
        // And the mirror image: staged ops under an interleaved request.
        let mut plan = built_plan(16384, 64);
        plan.params.variant = BaseVariant::Interleaved;
        assert!(errors(&lint_plan(&plan)).contains(&"layout-mismatch"));
    }

    #[test]
    fn mixed_staged_and_interleaved_plan_is_caught() {
        let mut plan = built_interleaved_plan(16384, 64);
        let base = built_plan(16384, 64).ops.last().copied().unwrap();
        plan.ops.push(base);
        let codes = errors(&lint_plan(&plan));
        assert!(codes.contains(&"stage-order"), "{codes:?}");
    }

    #[test]
    fn smem_budget_proves_on_paper_devices() {
        for dev in DeviceSpec::paper_devices() {
            let q = dev.queryable();
            for eb in [4usize, 8] {
                let max = SolverParams::max_onchip_size(q, eb);
                let p = SolverParams {
                    onchip_size: max,
                    thomas_switch: 32.min(max),
                    ..params()
                };
                let ob = smem_budget_obligation(&p, q, eb);
                assert!(ob.proven, "{}: {}", q.name, ob.detail);
            }
        }
    }

    #[test]
    fn smem_budget_refutes_oversized_onchip() {
        let dev = DeviceSpec::geforce_8800_gtx();
        let p = SolverParams {
            onchip_size: 4096,
            thomas_switch: 64,
            ..params()
        };
        let ob = smem_budget_obligation(&p, dev.queryable(), 4);
        assert!(!ob.proven, "{}", ob.detail);
    }
}
