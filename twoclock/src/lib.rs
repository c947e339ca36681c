//! `twoclock`: the trisolve benchmark, measured on both of its clocks.
//!
//! * the **host clock** (`std::time::Instant`) is the real throughput
//!   ceiling, because the simulator is the hardware;
//! * the **simulated clock** (device seconds charged by `gpu-sim`) is what
//!   the paper reports, and is deterministic.
//!
//! One process runs one named [`Workload`] on one seed. An untraced run
//! produces the end-to-end metrics; a traced run ([`Options::trace`])
//! times each layer's public functions from outside and produces the
//! per-layer metrics. See `README.md` in this directory for the metric
//! table, the layer → end-to-end map, and how to read a traced run.

mod probe;
mod service;
mod solver;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GTX 470, 1024 systems × 1024 equations, f32, dominant: the paper's
    /// Fig. 7/8 cell. Two heavy launches per solve.
    Batch1Kx1K,
    /// GTX 470, one system of 512K equations: the cross-block stage-1
    /// ladder, eight launches per solve.
    Single512K,
    /// A seeded open-loop chaos campaign through the 3-device service.
    ServeChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Batch1Kx1K,
        Workload::Single512K,
        Workload::ServeChaos,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch1Kx1K => "batch-1Kx1K",
            Workload::Single512K => "single-512K",
            Workload::ServeChaos => "serve-chaos",
        }
    }

    /// Parse a command-line workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run settings taken from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase in seconds. The service workload offers
    /// `1000 × seconds` requests, about `seconds` of simulated traffic.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Options {
    /// Defaults for `seed`: 10-second timed phase, untraced.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            seconds: 10.0,
            trace: false,
        }
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Metrics an untraced run reports in its result line (`end_to_end` in
/// `BENCHMARK.json`), with units. Each applies to every workload and is
/// never 0.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("host_eq_per_s", "eq/s"),
    ("rel_residual_p50", "ratio"),
];

/// Stage families a solve can launch, in plan order.
pub const FAMILIES: [&str; 6] = [
    "stage1",
    "stage2",
    "base",
    "interleave",
    "ithomas",
    "deinterleave",
];

/// Metrics a traced run reports in its result line (`per_layer` in
/// `BENCHMARK.json`), with units. `sim_ms` is simulated device time; a
/// layer that does no work on a workload reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &'static str); 41] = [
        ("autotune.tune_s", "s"),
        ("autotune.evals", "count"),
        ("autotune.eval_ms", "ms"),
        ("analyze.pruned", "count"),
        ("analyze.candidates", "count"),
        ("analyze.admit_us", "us"),
        ("core.plan_us", "us"),
        ("core.session_ms", "ms"),
        ("core.measure_ms", "ms"),
        ("core.d2h_unpad_ms", "ms"),
        ("core.launches", "count"),
        ("core.gmem_bytes", "bytes"),
        ("core.overlap_ratio", "ratio"),
        ("core.pipelined_host_ms", "ms"),
        ("gpu-sim.h2d_ms", "ms"),
        ("gpu-sim.d2h_ms", "ms"),
        ("gpu-sim.host_ns_per_eq", "ns/eq"),
        ("gpu-sim.launch_us", "us"),
        ("tridiag.residual_ms", "ms"),
        ("tridiag.cpu_thomas_ms", "ms"),
        ("serve.batches", "count"),
        ("serve.coalesced_fraction", "ratio"),
        ("serve.queue_p99_ms", "sim_ms"),
        ("serve.solve_p99_ms", "sim_ms"),
        ("serve.faults", "count"),
        ("serve.cpu_recoveries", "count"),
        ("serve.breaker_trips", "count"),
        ("serve.lost", "count"),
        ("serve.shed_exhausted", "count"),
        ("serve.warm_evals", "count"),
        ("serve.db_hits", "count"),
        ("serve.db_misses", "count"),
        ("obs.events", "count"),
        ("obs.trace_overhead", "ratio"),
        ("unattributed_ms", "ms"),
        ("sim_solve_ms", "sim_ms"),
        ("sim_pipelined_ms", "sim_ms"),
        ("serve_e2e_p50_ms", "sim_ms"),
        ("serve_e2e_p99_ms", "sim_ms"),
        ("serve_goodput_rps", "req/sim_s"),
        ("serve_shed_fraction", "ratio"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for f in FAMILIES {
        out.push((format!("core.sim_stage_ms.{f}"), "sim_ms"));
        out.push((format!("core.peak_fraction.{f}"), "ratio"));
    }
    out
}

/// One measured value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Unit: `s`, `ms`, `us` for host time; `sim_ms` for simulated time.
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Every metric the run produced, by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Host spans as Chrome trace JSON (traced runs only).
    pub trace_json: Option<String>,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), Metric { value, unit });
    }

    /// A metric's value, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Count one checked operation; record a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Fold a traced run's spans in: self time per span name (text
    /// lines), the `unattributed_ms` residual, and the Chrome trace.
    pub fn attach_spans(&mut self, spans: &spans::Spans) {
        for (name, t) in spans.totals() {
            self.set(format!("self_ms.{name}"), t.self_ms, "ms");
        }
        self.set("unattributed_ms", spans.unattributed_ms(), "ms");
        self.trace_json = Some(spans.chrome_json());
    }

    /// True when no check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed / attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the named metrics. A metric the run did not produce
    /// reads 0 in its listed unit (its layer did no work); a non-finite
    /// value is written as `null`.
    pub fn result_json(&self, names: &[(String, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let m = self
                .metrics
                .get(name)
                .copied()
                .unwrap_or(Metric { value: 0.0, unit });
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Run one workload.
pub fn run(workload: Workload, opts: &Options) -> Report {
    let mut report = match workload {
        Workload::Batch1Kx1K => solver::run(solver::BATCH_1KX1K, opts),
        Workload::Single512K => solver::run(solver::SINGLE_512K, opts),
        Workload::ServeChaos => service::run(opts),
    };
    let rate = report.error_rate();
    report.set("error_rate", rate, "ratio");
    report
}
