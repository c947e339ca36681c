//! Happens-before certifier for pipelined stream schedules.
//!
//! The ordering checker itself lives in `trisolve-core`
//! ([`Schedule::check`]) because the pipelined session path must run it at
//! admission time — one implementation, zero drift between what the prover
//! certifies and what the executor refuses. This module is the *analysis
//! surface* over it: a renderable [`ScheduleReport`] per `(device, plan,
//! workload)` point, [`schedule_rejected`] — the executor's admission
//! decision, made by the same core function — and the planted-defect
//! fixtures the `trisolve analyze --schedule` sweep must refute:
//!
//! | fixture           | mutation of the certified lowering       | refuted obligation        |
//! |-------------------|------------------------------------------|---------------------------|
//! | `missing-upload`  | batch 0's H2D node deleted               | `use-before-ready`        |
//! | `stripped-waits`  | every event wait removed                 | `cross-stream-write-race` |
//! | `reciprocal-events` | extra record/wait closing a cycle      | `event-wait-cycle`        |
//! | `phantom-wait`    | wait on an event no node records         | `dangling-wait`           |
//!
//! `stripped-waits` is deliberately still *executable* (event waits shape
//! ordering, never numerics), so the dynamic cross-stream sanitizer can run
//! it and must flag the same race the static certifier refutes — prover and
//! sanitizer agree in both directions.

use serde::Serialize;
use trisolve_core::schedule::{lower_schedule, NodeAction};
use trisolve_core::{
    pipelined_schedule, Schedule, ScheduleViolation, SolvePlan, SCHEDULE_OBLIGATIONS,
};

/// Certification verdict for one schedule.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleReport {
    /// What was certified (device/workload/precision description).
    pub label: String,
    /// Node count of the schedule DAG.
    pub nodes: usize,
    /// Stream count.
    pub streams: usize,
    /// Event-slot count.
    pub events: usize,
    /// The obligations the checker discharges, in check order.
    pub obligations: Vec<&'static str>,
    /// Every refuted obligation; empty ⇔ certified.
    pub violations: Vec<ScheduleViolation>,
}

impl ScheduleReport {
    /// True when every obligation was proven.
    #[must_use]
    pub fn certified(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when at least one violation refutes `obligation`.
    #[must_use]
    pub fn refutes(&self, obligation: &str) -> bool {
        self.violations.iter().any(|v| v.obligation == obligation)
    }

    /// Multi-line human-readable rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "schedule `{}`: {} nodes on {} streams, {} events — {}\n",
            self.label,
            self.nodes,
            self.streams,
            self.events,
            if self.certified() {
                "CERTIFIED"
            } else {
                "REFUTED"
            }
        );
        for ob in &self.obligations {
            let failed: Vec<&ScheduleViolation> = self
                .violations
                .iter()
                .filter(|v| v.obligation == *ob)
                .collect();
            if failed.is_empty() {
                out.push_str(&format!("  [proved ] {ob}\n"));
            } else {
                out.push_str(&format!("  [refuted] {ob} ({} violations)\n", failed.len()));
                for v in failed.iter().take(3) {
                    out.push_str(&format!("            {}\n", v.detail));
                }
            }
        }
        out
    }
}

/// Certify `schedule`: run the happens-before checker and wrap the verdict
/// in a report. This is the same check the pipelined session path runs at
/// admission — see [`schedule_rejected`].
#[must_use]
pub fn certify_schedule(label: impl Into<String>, schedule: &Schedule) -> ScheduleReport {
    ScheduleReport {
        label: label.into(),
        nodes: schedule.len(),
        streams: schedule.streams,
        events: schedule.events,
        obligations: SCHEDULE_OBLIGATIONS.to_vec(),
        violations: schedule.check(),
    }
}

/// The admission decision of `SolveSession::solve_pipelined`: both call
/// [`pipelined_schedule`], which lowers `plan` for `batches` batches on two
/// streams and certifies it. `true` here ⇔ the executor returns
/// `CoreError::ScheduleRejected` for the same inputs.
#[must_use]
pub fn schedule_rejected(plan: &SolvePlan, batches: usize) -> bool {
    pipelined_schedule(plan, batches).is_err()
}

/// One planted-defect schedule for the `--schedule` sweep.
#[derive(Debug, Clone)]
pub struct ScheduleFixture {
    /// Fixture name (stable, used by the harness and docs).
    pub name: &'static str,
    /// The obligation the certifier must refute.
    pub obligation: &'static str,
    /// What was mutated.
    pub detail: &'static str,
    /// The defective schedule.
    pub schedule: Schedule,
    /// Whether the dynamic cross-validation harness can execute this
    /// fixture (true only when the mutation keeps every buffer defined —
    /// event edges never change numerics, deleted uploads do).
    pub executable: bool,
}

/// The four planted defects, each a minimal mutation of the certified
/// two-batch/two-stream lowering of `plan`.
#[must_use]
pub fn schedule_fixtures(plan: &SolvePlan) -> Vec<ScheduleFixture> {
    let base = lower_schedule(plan, 2, 2);
    debug_assert!(base.check().is_empty(), "baseline lowering must certify");

    let mut missing_upload = base.clone();
    missing_upload
        .nodes
        .retain(|nd| !matches!(nd.action, NodeAction::H2d { batch: 0 }));

    let mut stripped_waits = base.clone();
    for nd in &mut stripped_waits.nodes {
        nd.waits.clear();
    }

    let mut reciprocal = base.clone();
    let extra = reciprocal.events;
    reciprocal.events += 1;
    let last = reciprocal.nodes.len() - 1;
    reciprocal.nodes[last].records.push(extra);
    reciprocal.nodes[0].waits.push(extra);

    let mut phantom = base;
    let unrecorded = phantom.events;
    phantom.events += 1;
    phantom.nodes[0].waits.push(unrecorded);

    vec![
        ScheduleFixture {
            name: "missing-upload",
            obligation: "use-before-ready",
            detail: "batch 0's H2D node deleted: every op reads coefficients nothing wrote",
            schedule: missing_upload,
            executable: false,
        },
        ScheduleFixture {
            name: "stripped-waits",
            obligation: "cross-stream-write-race",
            detail: "all event waits removed: batch 1's x-writer races batch 0's download",
            schedule: stripped_waits,
            executable: true,
        },
        ScheduleFixture {
            name: "reciprocal-events",
            obligation: "event-wait-cycle",
            detail: "extra record/wait pair closes a cycle through both streams",
            schedule: reciprocal,
            executable: false,
        },
        ScheduleFixture {
            name: "phantom-wait",
            obligation: "dangling-wait",
            detail: "first node waits on an event slot no node ever records",
            schedule: phantom,
            executable: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_core::{SolveSession, SolverParams};
    use trisolve_gpu_sim::{DeviceSpec, Gpu};
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

    fn plan() -> SolvePlan {
        SolvePlan::build(
            WorkloadShape::new(8, 2048),
            &SolverParams::default_untuned(),
            DeviceSpec::gtx_470().queryable(),
            4,
        )
        .unwrap()
    }

    #[test]
    fn every_fixture_is_refuted_on_its_obligation() {
        for fixture in schedule_fixtures(&plan()) {
            let report = certify_schedule(fixture.name, &fixture.schedule);
            assert!(!report.certified(), "{} must be refuted", fixture.name);
            assert!(
                report.refutes(fixture.obligation),
                "{} must refute {}, got {:?}",
                fixture.name,
                fixture.obligation,
                report.violations
            );
            assert!(report.render().contains("REFUTED"));
        }
    }

    #[test]
    fn unmutated_lowering_certifies_and_renders() {
        let schedule = lower_schedule(&plan(), 3, 2);
        let report = certify_schedule("gtx470/8x2048/f32", &schedule);
        assert!(report.certified());
        assert!(!schedule_rejected(&plan(), 3));
        let text = report.render();
        assert!(text.contains("CERTIFIED"));
        for ob in SCHEDULE_OBLIGATIONS {
            assert!(text.contains(ob), "render must list `{ob}`");
        }
    }

    #[test]
    fn racy_fixture_stays_executable_and_dynamically_hazardous() {
        // Both directions of the cross-validation contract, in-crate: the
        // one executable fixture must produce cross-stream hazards under
        // the dynamic tracker, and the certified lowering must not.
        let shape = WorkloadShape::new(8, 2048);
        let params = SolverParams::default_untuned();
        let batches: Vec<_> = (0..2)
            .map(|s| random_dominant::<f32>(shape, 9 + s).unwrap())
            .collect();
        let fixture = schedule_fixtures(
            &SolvePlan::build(shape, &params, DeviceSpec::gtx_470().queryable(), 4).unwrap(),
        )
        .into_iter()
        .find(|f| f.executable)
        .expect("one executable fixture");
        assert_eq!(fixture.name, "stripped-waits");

        let mut gpu: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        session
            .solve_scheduled_unchecked(&mut gpu, &batches, &params, fixture.schedule)
            .unwrap();
        let racy_report = gpu.take_sanitizer_report().unwrap();
        let cross = racy_report
            .hazards
            .iter()
            .filter(|h| h.kind == trisolve_gpu_sim::HazardKind::CrossStreamRace)
            .count();
        assert!(cross > 0, "dynamic tracker must catch the planted race");

        let mut gpu2: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
        let mut session2 = SolveSession::new(&mut gpu2, shape).unwrap();
        session2
            .solve_pipelined(&mut gpu2, &batches, &params)
            .unwrap();
        let clean_report = gpu2.take_sanitizer_report().unwrap();
        assert!(clean_report.is_clean(), "{:?}", clean_report.hazards);
    }
}
