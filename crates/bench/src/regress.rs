//! The bench-regression gate: re-measure the cases a committed
//! `BENCH_<n>.json` snapshot recorded and fail on regressions.
//!
//! The gate re-runs [`crate::snapshot::measure_workload`] for every
//! (device, systems, size) case named in the baseline — it does not
//! trust the current grid to match the baseline's (quick grids shrink
//! workload dimensions) — and compares metric classes by how
//! deterministic they are:
//!
//! - **`dynamic_ms`, `pipelined_ms`** — the dynamically tuned, resilient
//!   solve's simulated milliseconds and the two-stream pipelined solve's
//!   simulated wall-clock. Simulated time is deterministic, so both must
//!   match the baseline to float noise (1e-9 relative) in *either*
//!   direction: any drift is a cost-model, tuning or lowering change that
//!   must re-snapshot the baseline, and a planted 1% regression fails.
//! - **tuner evaluations, launches and payload bytes** — the dynamic
//!   tuner's search cost, the solve's and the run's kernel launches
//!   (`solve_launches`, `total_launches`) and the global-memory payload
//!   (`gmem_payload_bytes`), compared exactly in either direction: all
//!   are deterministic counts.
//! - **heap allocations** — the tuned solve's `host_allocs` and
//!   `host_alloc_bytes`, compared exactly in either direction when both
//!   the baseline and this process counted them ([`crate::alloc`]; the
//!   `trisolve` CLI and the `snapshot` binary do).
//! - **recovery counters** — `faults_injected`, `retries`, `fallbacks`
//!   with zero tolerance: a clean benchmark run must stay clean.
//!
//! When the baseline carries a `service` section, the gate additionally
//! replays the recorded service campaign — the exact spec is read from
//! the baseline, so the comparison survives later spec changes — and
//! holds its **shed and recovery counters to zero tolerance** (lost
//! requests, deadline misses, cost-bound violations, every shed reason,
//! breaker trips and reopens, CPU-reference recoveries, steady-state
//! tuner evaluations) plus a relative band on the end-to-end p99
//! latency. The campaign is deterministic per seed, so any drift is a
//! real behavior change: intentional ones re-snapshot the baseline.
//!
//! Wall-clock columns (`*_wall_ms`) are host-time telemetry and are
//! never gated. Metrics absent from an older baseline are skipped.

use trisolve_gpu_sim::DeviceSpec;
use trisolve_tridiag::workloads::WorkloadShape;

use crate::snapshot;

/// Per-metric-class noise tolerances for the gate.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Allowed relative drift, either way, of the deterministic simulated
    /// milliseconds (`dynamic_ms`, `pipelined_ms`): float noise only.
    pub sim_ms_rel: f64,
    /// Allowed relative increase of the service campaign's end-to-end
    /// p99 latency.
    pub service_p99_rel: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Self {
            sim_ms_rel: 1e-9,
            service_p99_rel: 0.10,
        }
    }
}

/// One compared metric within a case.
#[derive(Debug, Clone)]
pub struct Check {
    /// Metric name (`dynamic_ms`, `tuner_evaluations`, `retries`, …).
    pub metric: &'static str,
    /// Value recorded in the baseline snapshot.
    pub baseline: f64,
    /// Value measured now.
    pub current: f64,
    /// Smallest `current` the tolerance allows (`-inf` for one-sided
    /// checks, which only gate increases).
    pub floor: f64,
    /// Largest `current` the tolerance allows.
    pub limit: f64,
    /// True when `current` fell outside `floor..=limit`.
    pub regressed: bool,
}

/// All checks for one re-measured (device, workload) case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Device name from the baseline.
    pub device: String,
    /// Workload label (`<systems>x<size>`).
    pub workload: String,
    /// The individual metric comparisons.
    pub checks: Vec<Check>,
}

/// The gate's verdict over every compared case.
#[derive(Debug, Clone, Default)]
pub struct RegressReport {
    /// Per-case comparison results.
    pub cases: Vec<CaseOutcome>,
    /// Baseline entries that could not be compared (unknown device, …).
    pub skipped: Vec<String>,
}

impl RegressReport {
    /// Every failed check, with its case context.
    pub fn regressions(&self) -> Vec<(&CaseOutcome, &Check)> {
        self.cases
            .iter()
            .flat_map(|c| c.checks.iter().filter(|k| k.regressed).map(move |k| (c, k)))
            .collect()
    }

    /// True when no check regressed.
    pub fn passed(&self) -> bool {
        self.cases
            .iter()
            .all(|c| c.checks.iter().all(|k| !k.regressed))
    }

    /// Human-readable gate report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for case in &self.cases {
            out.push_str(&format!("  case {} / {}\n", case.device, case.workload));
            for k in &case.checks {
                out.push_str(&format!(
                    "    {:<18} baseline {:>12.4}  current {:>12.4}  allowed {:>12.4} .. {:<12.4}  {}\n",
                    k.metric,
                    k.baseline,
                    k.current,
                    k.floor,
                    k.limit,
                    if k.regressed { "REGRESSED" } else { "ok" }
                ));
            }
        }
        for s in &self.skipped {
            out.push_str(&format!("  skipped: {s}\n"));
        }
        let regressions = self.regressions().len();
        let checks: usize = self.cases.iter().map(|c| c.checks.len()).sum();
        if self.passed() {
            out.push_str(&format!(
                "  PASS: {} cases, {checks} checks, 0 regressions\n",
                self.cases.len()
            ));
        } else {
            out.push_str(&format!(
                "  FAIL: {} cases, {checks} checks, {regressions} regression(s)\n",
                self.cases.len()
            ));
        }
        out
    }
}

/// A one-sided check: `current` may not exceed `limit`.
fn check(metric: &'static str, baseline: f64, current: f64, limit: f64) -> Check {
    Check {
        metric,
        baseline,
        current,
        floor: f64::NEG_INFINITY,
        limit,
        regressed: current > limit,
    }
}

/// A deterministic metric: `current` must equal `baseline` up to `rel`
/// relative drift in either direction (`rel = 0` demands equality).
fn exact(metric: &'static str, baseline: f64, current: f64, rel: f64) -> Check {
    let slack = baseline.abs() * rel;
    let (floor, limit) = (baseline - slack, baseline + slack);
    Check {
        metric,
        baseline,
        current,
        floor,
        limit,
        regressed: !(floor..=limit).contains(&current),
    }
}

/// Compare one re-measured record against its baseline workload row.
pub fn compare_case(
    baseline: &serde_json::Value,
    rec: &snapshot::WorkloadRecord,
    tol: &Tolerances,
) -> Vec<Check> {
    let mut checks = Vec::new();
    let num = |key: &str| baseline.get(key).and_then(serde_json::Value::as_f64);
    // Simulated milliseconds are deterministic: gated to float noise.
    // `pipelined_ms` is absent from pre-pipelining baselines → skipped.
    let sim_ms: [(&'static str, f64); 2] = [
        ("dynamic_ms", rec.dynamic_ms),
        ("pipelined_ms", rec.pipelined_ms),
    ];
    for (name, current) in sim_ms {
        if let Some(b) = num(name) {
            if b.is_finite() && b > 0.0 {
                checks.push(exact(name, b, current, tol.sim_ms_rel));
            }
        }
    }
    // Search cost, launch counts and payload bytes are deterministic
    // counts: gated exactly. Each is absent from some older baselines.
    let counts: [(&'static str, f64); 4] = [
        ("tuner_evaluations", rec.tuner_evaluations as f64),
        ("solve_launches", rec.solve_launches as f64),
        ("total_launches", rec.total_launches as f64),
        ("gmem_payload_bytes", rec.gmem_payload_bytes as f64),
    ];
    for (name, current) in counts {
        if let Some(b) = num(name) {
            checks.push(exact(name, b, current, 0.0));
        }
    }
    // Heap allocations are exact counts too, but only a process running
    // the counting allocator has them.
    let allocs: [(&'static str, Option<u64>); 2] = [
        ("host_allocs", rec.host_allocs.map(|c| c.allocs)),
        ("host_alloc_bytes", rec.host_allocs.map(|c| c.bytes)),
    ];
    for (name, current) in allocs {
        if let (Some(b), Some(current)) = (num(name), current) {
            checks.push(exact(name, b, current as f64, 0.0));
        }
    }
    let counters: [(&'static str, u64); 3] = [
        ("faults_injected", rec.faults_injected),
        ("retries", rec.retries),
        ("fallbacks", rec.fallbacks),
    ];
    for (name, current) in counters {
        if let Some(b) = num(name) {
            checks.push(check(name, b, current as f64, b));
        }
    }
    checks
}

/// Replay the baseline's recorded service campaign and hold its shed and
/// recovery counters to zero tolerance (plus a relative band on the
/// end-to-end p99 latency). Returns `None` when the section carries no
/// replayable spec.
pub fn compare_service(service: &serde_json::Value, tol: &Tolerances) -> Option<CaseOutcome> {
    let spec = service.get("spec")?;
    let profile = trisolve_serve::LoadProfile {
        requests: spec.get("requests")?.as_u64()? as usize,
        seed: spec.get("seed")?.as_u64()?,
        load_scale: spec.get("load_scale").and_then(serde_json::Value::as_f64)?,
        chaos: spec.get("chaos")?.as_bool()?,
    };
    let rec = crate::service::measure_service(&profile);
    let s = &rec.stats;

    let mut checks = Vec::new();
    let num = |key: &str| service.get(key).and_then(serde_json::Value::as_f64);
    // Shed and recovery counters: zero tolerance. The campaign is
    // deterministic per seed, so `current > baseline` is a genuine
    // behavior regression, not noise.
    let counters: [(&'static str, u64); 10] = [
        ("lost", s.lost()),
        ("deadline_misses", s.deadline_misses),
        ("bound_violations", s.bound_violations),
        ("shed_queue_full", s.shed_queue_full),
        ("shed_deadline", s.shed_deadline),
        ("shed_breaker", s.shed_breaker),
        ("shed_exhausted", s.shed_exhausted),
        ("breaker_trips", s.breaker_trips),
        ("breaker_reopens", s.breaker_reopens),
        ("cpu_recoveries", s.cpu_recoveries),
    ];
    for (name, current) in counters {
        if let Some(b) = num(name) {
            checks.push(check(name, b, current as f64, b));
        }
    }
    // Steady-state tuner evaluations are gated against zero outright: the
    // plan-database warm start is the whole point, whatever the baseline
    // happened to record.
    checks.push(check("tuner_evals", 0.0, s.tuner_evals as f64, 0.0));
    if let Some(b) = num("e2e_p99_ms") {
        if b.is_finite() && b > 0.0 {
            checks.push(check(
                "e2e_p99_ms",
                b,
                s.e2e_ms.p99_ms,
                b * (1.0 + tol.service_p99_rel),
            ));
        }
    }
    Some(CaseOutcome {
        device: "service".to_string(),
        workload: format!(
            "{} requests, seed {}{}",
            profile.requests,
            profile.seed,
            if profile.chaos { ", chaos" } else { "" }
        ),
        checks,
    })
}

/// Run the gate: re-measure every workload case the baseline document
/// recorded and compare under `tol`. With `quick`, only the first
/// device's first two workloads are re-measured (the smoke-test budget).
///
/// Errors when the document has no comparable case at all — a vacuous
/// gate must not pass silently.
pub fn compare_against(
    baseline: &serde_json::Value,
    quick: bool,
    tol: &Tolerances,
) -> Result<RegressReport, String> {
    let devices = baseline
        .get("devices")
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| "baseline has no `devices` array".to_string())?;
    let specs = DeviceSpec::paper_devices();
    let mut report = RegressReport::default();

    let device_budget = if quick { 1 } else { usize::MAX };
    let workload_budget = if quick { 2 } else { usize::MAX };
    for dev_doc in devices.iter().take(device_budget) {
        let name = dev_doc
            .get("device")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("<unnamed>");
        let Some(spec) = specs.iter().find(|d| d.queryable().name == name) else {
            report.skipped.push(format!("unknown device `{name}`"));
            continue;
        };
        let workloads = dev_doc
            .get("workloads")
            .and_then(serde_json::Value::as_array)
            .map_or(&[][..], Vec::as_slice);
        for w in workloads.iter().take(workload_budget) {
            let (Some(systems), Some(size)) = (
                w.get("systems").and_then(serde_json::Value::as_u64),
                w.get("size").and_then(serde_json::Value::as_u64),
            ) else {
                report
                    .skipped
                    .push(format!("{name}: workload row without systems/size"));
                continue;
            };
            let shape = WorkloadShape::new(systems as usize, size as usize);
            let rec = snapshot::measure_workload(spec, shape);
            report.cases.push(CaseOutcome {
                device: name.to_string(),
                workload: shape.label(),
                checks: compare_case(w, &rec, tol),
            });
        }
    }

    // The service campaign: replayed from the baseline's own recorded
    // spec in both quick and full mode (identical spec, so always
    // comparable).
    if let Some(service) = baseline.get("service") {
        match compare_service(service, tol) {
            Some(case) => report.cases.push(case),
            None => report
                .skipped
                .push("service section without a replayable spec".to_string()),
        }
    }

    if report.cases.iter().all(|c| c.checks.is_empty()) {
        return Err("baseline yielded no comparable metric — vacuous gate".to_string());
    }
    Ok(report)
}
