//! The solver service: queue → admission → coalesce → resilient solve →
//! breaker, over a persistent plan database.
//!
//! [`SolveService::run`] executes a whole request campaign as a
//! single-threaded discrete-event simulation on the service clock
//! (simulated seconds, the same currency as the device models), so every
//! shed, breaker trip, and latency percentile is deterministic per seed.
//! Each simulated device is a [`DeviceWorker`]: one timeline shared by an
//! `f32` and an `f64` engine core, a bounded FIFO of admitted requests, a
//! [`CircuitBreaker`], and a learned [`CostModel`].
//!
//! Dispatch coalesces queue-head-compatible requests (same size,
//! precision, class, layout) into one batch, re-checks every member's
//! deadline against the *current* worst-case bound, arms the device's
//! fault campaign for the window, and drives
//! `SolveSession::solve_resilient` — the per-batch retry / replan /
//! CPU-fallback chain from the resilience layer. Cold workload classes
//! pay the dynamic tuner once; the tuned configuration is persisted to
//! the [`PlanDb`] so restarts warm-start with zero tuner evaluations.

use std::collections::{BinaryHeap, VecDeque};
use std::path::PathBuf;

use trisolve_autotune::{ensure_tuned, DynamicTuner, Microbench, PlanDb};
use trisolve_core::kernels::{elem_bytes, GpuScalar};
use trisolve_core::{BaseVariant, ResiliencePolicy, SharedPlanCache, SolveSession, SolverParams};
use trisolve_gpu_sim::{DeviceSpec, FaultPlan, Gpu};
use trisolve_obs::MetricsRegistry;
use trisolve_tridiag::system::SystemBatch;
use trisolve_tridiag::workloads::{WorkloadClass, WorkloadShape};

use crate::admission::{AdmissionPolicy, CostModel};
use crate::breaker::{BreakerPolicy, CircuitBreaker, SolveSignal};
use crate::request::{
    Completion, Disposition, LayoutPref, Precision, Rejection, ShedReason, SolveRequest,
};

/// Systems in the canonical tuning workload for a cold plan-database key.
/// Small enough to bound cold-start cost, large enough to exercise the
/// staged pipeline's batch axes.
pub const TUNE_SYSTEMS: usize = 64;

/// Cached per-shape sessions kept per engine core before LRU eviction.
const SESSION_CAP: usize = 4;

/// Attempts to allocate a session before giving up on the window
/// (transient alloc faults heal on retry; real pressure heals on evict).
const SESSION_ALLOC_ATTEMPTS: usize = 4;

/// A fault-injection window against one device on the service clock.
#[derive(Debug, Clone)]
pub struct StormWindow {
    /// Index into [`ServiceConfig::devices`].
    pub device: usize,
    /// Window start, simulated seconds (inclusive).
    pub start_s: f64,
    /// Window end, simulated seconds (exclusive).
    pub end_s: f64,
    /// The campaign to arm while the window is active.
    pub plan: FaultPlan,
}

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The device fleet.
    pub devices: Vec<DeviceSpec>,
    /// Queueing and coalescing knobs.
    pub admission: AdmissionPolicy,
    /// Per-device breaker knobs.
    pub breaker: BreakerPolicy,
    /// On-disk plan database path (`None` = in-memory, no warm start).
    pub plan_db_path: Option<PathBuf>,
    /// Low-rate fault campaign armed for every window outside storms
    /// (chaos mode's background noise).
    pub background_faults: Option<FaultPlan>,
    /// Scheduled fault storms (chaos mode's breaker-trip driver).
    pub storms: Vec<StormWindow>,
}

impl ServiceConfig {
    /// The paper's three-device fleet with default policies and no faults.
    pub fn paper_fleet() -> Self {
        Self {
            devices: DeviceSpec::paper_devices(),
            admission: AdmissionPolicy::default(),
            breaker: BreakerPolicy::default(),
            plan_db_path: None,
            background_faults: None,
            storms: Vec::new(),
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::paper_fleet()
    }
}

/// One precision's engine on a device: the simulated GPU plus reusable
/// solve sessions (LRU-capped) sharing one plan cache.
#[derive(Debug)]
struct WorkerCore<T: GpuScalar> {
    gpu: Gpu<T>,
    shared: SharedPlanCache,
    /// Most-recently-used last.
    sessions: Vec<(WorkloadShape, SolveSession<T>)>,
}

/// What one dispatched window did, for the timeline and the breaker.
#[derive(Debug)]
struct WindowOutcome {
    /// Device-clock seconds the window occupied (tuning, retries, and
    /// backoff included).
    duration_s: f64,
    /// Portion of `duration_s` spent in cold tuning.
    tuning_s: f64,
    /// Microbench evaluations the window's cold tuning spent.
    tuner_evals: u64,
    /// Verified worst relative residual of the accepted solution.
    residual: f64,
    /// Which degradation-chain step produced it.
    recovered_by: String,
    /// Faults injected during the window.
    faults: u64,
    /// The whole chain failed; members must be shed.
    exhausted: bool,
}

impl<T: GpuScalar> WorkerCore<T> {
    fn new(spec: DeviceSpec) -> Self {
        Self {
            gpu: Gpu::new(spec),
            shared: SharedPlanCache::new(),
            sessions: Vec::new(),
        }
    }

    /// Fetch or build the session for `shape`, evicting least-recently
    /// used sessions on allocation pressure. An associated function over
    /// split fields so the caller keeps `gpu` borrowable for the solve.
    fn session_for<'s>(
        sessions: &'s mut Vec<(WorkloadShape, SolveSession<T>)>,
        gpu: &mut Gpu<T>,
        shared: &SharedPlanCache,
        shape: WorkloadShape,
    ) -> Result<&'s mut SolveSession<T>, String> {
        if let Some(pos) = sessions.iter().position(|(s, _)| *s == shape) {
            let entry = sessions.remove(pos);
            sessions.push(entry);
            return Ok(&mut sessions.last_mut().expect("just pushed").1);
        }
        while sessions.len() >= SESSION_CAP {
            sessions.remove(0);
        }
        let mut last_err = String::new();
        for _ in 0..SESSION_ALLOC_ATTEMPTS {
            match SolveSession::with_plan_cache(gpu, shape, shared.clone()) {
                Ok(session) => {
                    sessions.push((shape, session));
                    return Ok(&mut sessions.last_mut().expect("just pushed").1);
                }
                Err(e) => {
                    last_err = e.to_string();
                    // Free the least-recently used session and retry: real
                    // memory pressure heals by eviction, injected alloc
                    // faults heal by the retry itself.
                    if !sessions.is_empty() {
                        sessions.remove(0);
                    }
                }
            }
        }
        Err(last_err)
    }

    /// [`ensure_tuned`] for `key` with the service's tuning harness: the
    /// canonical tuning workload for size `n`, gated by `class`. Returns
    /// the evaluations spent (0 on a warm key).
    fn tune_on_miss(&mut self, db: &mut PlanDb, key: &str, n: usize, class: WorkloadClass) -> u64 {
        let mut mb = tuning_bench(class);
        ensure_tuned(&mut self.gpu, db, key, tuning_shape(n), &mut mb);
        mb.measurements as u64
    }

    /// Solve one coalesced batch end to end: arm the window's fault
    /// campaign, warm or fetch the tuned plan, honour the layout
    /// preference, generate the member systems, and drive the resilient
    /// solve. Never panics; an unwinnable window reports `exhausted`.
    fn run_batch(
        &mut self,
        db: &mut PlanDb,
        device_name: &str,
        members: &[&SolveRequest],
        fault_plan: &FaultPlan,
    ) -> WindowOutcome {
        let window_begin_s = self.gpu.elapsed_s();
        self.gpu.enable_faults(fault_plan.clone());

        let head = members[0];
        let n = head.shape.system_size;
        let total_m: usize = members.iter().map(|r| r.shape.num_systems).sum();
        let batch_shape = WorkloadShape::new(total_m, n);
        let eb = elem_bytes::<T>();

        // Plan: warm from the database, or pay the tuner once per key.
        let tune_begin_s = self.gpu.elapsed_s();
        let key = PlanDb::key(device_name, eb, n, head.class.label(), head.layout.label());
        let tuner_evals = self.tune_on_miss(db, &key, n, head.class);
        let cfg = db.get(&key).unwrap_or_else(|| {
            // Storm-tainted tuning was not persisted: tune again next
            // window; for now fall back to a fresh (possibly tainted)
            // configuration so this window can still complete on the
            // resilience chain.
            DynamicTuner::new().tune_for_with(
                &mut self.gpu,
                tuning_shape(n),
                &mut tuning_bench(head.class),
            )
        });
        let tuning_s = self.gpu.elapsed_s() - tune_begin_s;

        let tuned_params = cfg.params_for(batch_shape);
        let mut params = apply_layout(tuned_params, head.layout);

        let exhausted_outcome =
            |gpu: &Gpu<T>, detail: String, evals: u64, tuning: f64| WindowOutcome {
                duration_s: gpu.elapsed_s() - window_begin_s,
                tuning_s: tuning,
                tuner_evals: evals,
                residual: f64::INFINITY,
                recovered_by: detail,
                faults: gpu.faults_injected() as u64,
                exhausted: true,
            };

        // Member workloads, concatenated along the system axis.
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut c = Vec::new();
        let mut d = Vec::new();
        for r in members {
            let shape = WorkloadShape::new(r.shape.num_systems, n);
            match r.class.generate::<T>(shape, r.seed) {
                Ok(part) => {
                    a.extend(part.a);
                    b.extend(part.b);
                    c.extend(part.c);
                    d.extend(part.d);
                }
                Err(e) => {
                    return exhausted_outcome(
                        &self.gpu,
                        format!("workload generation failed: {e}"),
                        tuner_evals,
                        tuning_s,
                    );
                }
            }
        }
        let batch = match SystemBatch::new(total_m, n, a, b, c, d) {
            Ok(batch) => batch,
            Err(e) => {
                return exhausted_outcome(
                    &self.gpu,
                    format!("batch assembly failed: {e}"),
                    tuner_evals,
                    tuning_s,
                );
            }
        };

        let session =
            match Self::session_for(&mut self.sessions, &mut self.gpu, &self.shared, batch_shape) {
                Ok(session) => session,
                Err(e) => {
                    return exhausted_outcome(
                        &self.gpu,
                        format!("session allocation failed: {e}"),
                        tuner_evals,
                        tuning_s,
                    );
                }
            };

        // A forced layout the validator rejects for this shape falls back
        // to the tuned choice rather than failing the request.
        if head.layout != LayoutPref::Auto
            && params != tuned_params
            && session.plan_for(&params).is_err()
        {
            params = tuned_params;
        }

        let policy = ResiliencePolicy::for_elem_bytes(eb)
            .with_residual_tolerance(class_tolerance(head.class.label(), eb));
        match session.solve_resilient(&mut self.gpu, &batch, &params, &policy) {
            Ok(ro) => WindowOutcome {
                duration_s: self.gpu.elapsed_s() - window_begin_s,
                tuning_s,
                tuner_evals,
                residual: ro.residual,
                recovered_by: ro.recovered_by.to_owned(),
                faults: self.gpu.faults_injected() as u64,
                exhausted: false,
            },
            Err(e) => exhausted_outcome(&self.gpu, e.to_string(), tuner_evals, tuning_s),
        }
    }
}

/// Residual acceptance tolerance per workload class and element width —
/// the same ladder the chaos harness verifies against.
pub fn class_tolerance(class_label: &str, eb: usize) -> f64 {
    match (class_label, eb) {
        ("dominant", b) if b <= 4 => 1e-4,
        ("dominant", _) => 1e-8,
        (_, b) if b <= 4 => 1e-2,
        (_, _) => 1e-6,
    }
}

/// Whether the class's workload generator accepts its parameter: the
/// ill-conditioned margin and the non-dominant dominance must be positive
/// and finite (the generators assert it).
fn class_is_generable(class: WorkloadClass) -> bool {
    match class {
        WorkloadClass::Dominant => true,
        WorkloadClass::IllConditioned { margin: p }
        | WorkloadClass::NonDominant { dominance: p } => p > 0.0 && p.is_finite(),
    }
}

fn apply_layout(mut params: SolverParams, layout: LayoutPref) -> SolverParams {
    match layout {
        LayoutPref::Auto => {}
        LayoutPref::Strided => params.variant = BaseVariant::Strided,
        LayoutPref::Coalesced => params.variant = BaseVariant::Coalesced,
        LayoutPref::Interleaved => params.variant = BaseVariant::Interleaved,
    }
    params
}

/// The canonical tuning workload for a cold plan-database key of system
/// size `n`.
fn tuning_shape(n: usize) -> WorkloadShape {
    WorkloadShape::new(TUNE_SYSTEMS, n)
}

/// A fresh measurement harness gated by the request's stability class.
fn tuning_bench<T: GpuScalar>(class: WorkloadClass) -> Microbench<T> {
    Microbench::new().with_stability_class(class)
}

/// One admitted queue entry: the request index plus the worst-case bound
/// it was charged at admission (for the projected-wait sum).
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    idx: usize,
    bound_s: f64,
}

/// One simulated device: two precision cores sharing a single timeline,
/// a bounded queue, a breaker, and a learned cost model.
#[derive(Debug)]
struct DeviceWorker {
    name: String,
    core32: WorkerCore<f32>,
    core64: WorkerCore<f64>,
    queue: VecDeque<QueueEntry>,
    queued_bound_s: f64,
    busy_until_s: f64,
    dispatch_version: u64,
    dispatch_pending: bool,
    breaker: CircuitBreaker,
    cost: CostModel,
    requests_served: u64,
    batches: u64,
    busy_s: f64,
}

impl DeviceWorker {
    fn new(spec: DeviceSpec, breaker: BreakerPolicy) -> Self {
        Self {
            name: spec.name().to_owned(),
            core32: WorkerCore::new(spec.clone()),
            core64: WorkerCore::new(spec),
            queue: VecDeque::new(),
            queued_bound_s: 0.0,
            busy_until_s: 0.0,
            dispatch_version: 0,
            dispatch_pending: false,
            breaker: CircuitBreaker::new(breaker),
            cost: CostModel::default(),
            requests_served: 0,
            batches: 0,
            busy_s: 0.0,
        }
    }

    /// Worst-case seconds `req` may occupy this device, cold tuning
    /// included when its plan-database key is absent.
    fn request_bound_s(&self, db: &PlanDb, req: &SolveRequest) -> f64 {
        let mut bound = self.cost.solve_bound_s(req.equations());
        let key = PlanDb::key(
            &self.name,
            req.precision.elem_bytes(),
            req.shape.system_size,
            req.class.label(),
            req.layout.label(),
        );
        if !db.contains(&key) {
            let tune_eqs = TUNE_SYSTEMS * req.shape.system_size.next_power_of_two();
            bound += self.cost.tuning_bound_s(tune_eqs);
        }
        bound
    }

    /// Earliest time a request admitted now could start solving.
    fn projected_start_s(&self, now_s: f64) -> f64 {
        now_s.max(self.busy_until_s) + self.queued_bound_s
    }
}

/// Latency summary over one histogram series, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Largest sample.
    pub max_ms: f64,
}

impl LatencyStats {
    fn from_registry(metrics: &MetricsRegistry, name: &str) -> Self {
        metrics.histogram(name).map_or_else(Self::default, |h| {
            let p = h.percentiles();
            Self {
                count: h.count(),
                mean_ms: h.mean(),
                p50_ms: p.p50,
                p90_ms: p.p90,
                p99_ms: p.p99,
                max_ms: h.max(),
            }
        })
    }
}

/// Per-device campaign summary.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Device name.
    pub name: String,
    /// Requests completed on this device.
    pub requests: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Seconds the device timeline was occupied.
    pub busy_s: f64,
    /// Breaker trips.
    pub trips: u64,
    /// Breaker probe recoveries.
    pub recoveries: u64,
    /// Breaker state at campaign end.
    pub final_breaker_state: String,
    /// Would the breaker admit a request one cooldown after campaign end?
    /// `false` means the breaker is deadlocked: a probe slot leaked while
    /// open/half-open, so the device could never serve again.
    pub admits_after_cooldown: bool,
}

/// Campaign-level outcome counters and latency summaries.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed (residual-verified).
    pub completed: u64,
    /// Sheds: every admissible queue at depth bound.
    pub shed_queue_full: u64,
    /// Sheds: no device could meet the deadline.
    pub shed_deadline: u64,
    /// Sheds: every breaker open.
    pub shed_breaker: u64,
    /// Sheds: resilience chain exhausted on the dispatched batch.
    pub shed_exhausted: u64,
    /// Completions recorded after their deadline — the invariant the
    /// admission controller exists to keep at zero.
    pub deadline_misses: u64,
    /// Windows whose measured duration exceeded the admission bound —
    /// the cost model's own invariant, also zero by construction.
    pub bound_violations: u64,
    /// Breaker trips across the fleet.
    pub breaker_trips: u64,
    /// Breaker probe recoveries across the fleet.
    pub breaker_recoveries: u64,
    /// Failed probes that re-opened a breaker.
    pub breaker_reopens: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests that rode a batch with at least one companion.
    pub coalesced: u64,
    /// Plan-database hits at dispatch.
    pub db_hits: u64,
    /// Plan-database misses at dispatch.
    pub db_misses: u64,
    /// How the plan database came up (`fresh` / `loaded` / `quarantined`).
    pub db_origin: String,
    /// Microbench evaluations spent on cold tuning this campaign.
    pub tuner_evals: u64,
    /// Faults injected across all windows.
    pub faults: u64,
    /// Completions recovered by the CPU reference.
    pub cpu_recoveries: u64,
    /// Worst accepted relative residual.
    pub worst_residual: f64,
    /// Last event time on the service clock.
    pub makespan_s: f64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Queue-wait latency.
    pub queue_ms: LatencyStats,
    /// Device-occupancy latency per window.
    pub solve_ms: LatencyStats,
    /// Arrival-to-completion latency.
    pub e2e_ms: LatencyStats,
    /// Per-device breakdown.
    pub devices: Vec<DeviceReport>,
}

impl ServiceStats {
    /// Total sheds, all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_breaker + self.shed_exhausted
    }

    /// Requests that never received a disposition. The service's core
    /// invariant: zero, always.
    pub fn lost(&self) -> u64 {
        self.submitted - self.completed - self.shed_total()
    }
}

/// A finished campaign: per-request dispositions (input order) + stats.
#[derive(Debug)]
pub struct ServiceRunReport {
    /// One disposition per submitted request, aligned with the input.
    pub dispositions: Vec<Disposition>,
    /// Campaign counters and latency summaries.
    pub stats: ServiceStats,
}

/// Discrete-event state local to one `run` call.
#[derive(Debug)]
struct Campaign {
    heap: BinaryHeap<std::cmp::Reverse<Ev>>,
    seq: u64,
    dispositions: Vec<Option<Disposition>>,
    now_s: f64,
    shed_queue_full: u64,
    shed_deadline: u64,
    shed_breaker: u64,
    shed_exhausted: u64,
    deadline_misses: u64,
    bound_violations: u64,
    batches: u64,
    coalesced: u64,
    tuner_evals: u64,
    faults: u64,
    cpu_recoveries: u64,
    completed: u64,
    worst_residual: f64,
}

impl Campaign {
    fn new(n: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            dispositions: vec![None; n],
            now_s: 0.0,
            shed_queue_full: 0,
            shed_deadline: 0,
            shed_breaker: 0,
            shed_exhausted: 0,
            deadline_misses: 0,
            bound_violations: 0,
            batches: 0,
            coalesced: 0,
            tuner_evals: 0,
            faults: 0,
            cpu_recoveries: 0,
            completed: 0,
            worst_residual: 0.0,
        }
    }

    fn push(&mut self, t: f64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(std::cmp::Reverse(Ev { t, seq, kind }));
    }

    fn shed(&mut self, idx: usize, reason: ShedReason, at_s: f64, retry_after_s: f64) {
        match reason {
            ShedReason::QueueFull => self.shed_queue_full += 1,
            ShedReason::DeadlineUnmeetable => self.shed_deadline += 1,
            ShedReason::BreakerOpen => self.shed_breaker += 1,
            ShedReason::SolverExhausted => self.shed_exhausted += 1,
        }
        self.dispositions[idx] = Some(Disposition::Shed(Rejection {
            reason,
            at_s,
            retry_after_s: retry_after_s.max(0.0),
        }));
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EvKind {
    Arrival(usize),
    Dispatch { device: usize, version: u64 },
}

/// Heap event: ordered by time, then insertion sequence (deterministic
/// tie-break). Times are always finite.
#[derive(Debug, Clone, Copy)]
struct Ev {
    t: f64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.t.total_cmp(&other.t).is_eq() && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t.total_cmp(&other.t).then(self.seq.cmp(&other.seq))
    }
}

/// The multi-device solver service.
#[derive(Debug)]
pub struct SolveService {
    admission: AdmissionPolicy,
    db: PlanDb,
    workers: Vec<DeviceWorker>,
    storms: Vec<StormWindow>,
    background: Option<FaultPlan>,
    metrics: MetricsRegistry,
}

impl SolveService {
    /// Build the service: open (or quarantine-and-rebuild) the plan
    /// database, stand up one worker per device.
    pub fn new(cfg: ServiceConfig) -> Self {
        let db = cfg
            .plan_db_path
            .as_ref()
            .map_or_else(PlanDb::in_memory, PlanDb::open);
        let workers = cfg
            .devices
            .iter()
            .map(|spec| DeviceWorker::new(spec.clone(), cfg.breaker))
            .collect();
        Self {
            admission: cfg.admission,
            db,
            workers,
            storms: cfg.storms,
            background: cfg.background_faults,
            metrics: MetricsRegistry::new(),
        }
    }

    /// The plan database (origin, hit/miss counters, entry count).
    pub fn plan_db(&self) -> &PlanDb {
        &self.db
    }

    /// Service-level metrics (counters, gauges, latency histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Pre-tune every `(device, size, precision, class, layout)` combo so
    /// a subsequent campaign drawing from these combos runs with zero
    /// tuner evaluations. Returns the evaluations spent — 0 when the plan
    /// database already covers everything (the warm-start proof).
    pub fn warm_plan_db(
        &mut self,
        combos: &[(usize, Precision, WorkloadClass, LayoutPref)],
    ) -> u64 {
        let mut evals = 0;
        for w in &mut self.workers {
            for &(n, precision, class, layout) in combos {
                // Warm-up runs fault-free regardless of chaos windows.
                let key = PlanDb::key(
                    &w.name,
                    precision.elem_bytes(),
                    n,
                    class.label(),
                    layout.label(),
                );
                evals += match precision {
                    Precision::F32 => {
                        w.core32.gpu.enable_faults(FaultPlan::disabled());
                        w.core32.tune_on_miss(&mut self.db, &key, n, class)
                    }
                    Precision::F64 => {
                        w.core64.gpu.enable_faults(FaultPlan::disabled());
                        w.core64.tune_on_miss(&mut self.db, &key, n, class)
                    }
                };
            }
        }
        self.metrics.counter_add("serve.tuner_evals", evals);
        evals
    }

    /// Run a whole campaign to completion. Every submitted request gets
    /// exactly one disposition; the returned stats carry the proof
    /// counters (`lost`, `deadline_misses`, trips, sheds).
    pub fn run(&mut self, requests: &[SolveRequest]) -> ServiceRunReport {
        let mut c = Campaign::new(requests.len());
        for (i, r) in requests.iter().enumerate() {
            c.push(r.arrival_s, EvKind::Arrival(i));
        }
        while let Some(std::cmp::Reverse(ev)) = c.heap.pop() {
            c.now_s = c.now_s.max(ev.t);
            match ev.kind {
                EvKind::Arrival(i) => self.admit(&mut c, requests, i, ev.t),
                EvKind::Dispatch { device, version } => {
                    if self.workers[device].dispatch_version == version {
                        self.workers[device].dispatch_pending = false;
                        self.dispatch(&mut c, requests, device, ev.t);
                    }
                }
            }
        }
        // Safety sweep: the event loop drains every queue (each dispatch
        // reschedules while work remains), so this only fires on a logic
        // bug — and even then no request goes unanswered.
        for d in 0..self.workers.len() {
            while let Some(entry) = self.workers[d].queue.pop_front() {
                c.shed(entry.idx, ShedReason::QueueFull, c.now_s, 0.0);
            }
        }
        self.finish(c, requests)
    }

    /// Admission: route to the device with the earliest projected
    /// completion that meets the deadline, or shed with a reason.
    fn admit(&mut self, c: &mut Campaign, requests: &[SolveRequest], i: usize, t: f64) {
        let req = &requests[i];
        if !class_is_generable(req.class) {
            // No device can ever build this workload: answer it now.
            let reason = ShedReason::SolverExhausted;
            self.metrics.counter_add(shed_counter_name(reason), 1);
            c.shed(i, reason, t, 0.0);
            return;
        }
        let mut best: Option<(usize, f64, f64)> = None; // (device, done, bound)
        let mut any_breaker_ok = false;
        let mut any_depth_ok = false;
        let mut min_drain_s = f64::INFINITY;
        let mut min_breaker_retry_s = f64::INFINITY;
        for (d, w) in self.workers.iter_mut().enumerate() {
            min_breaker_retry_s = min_breaker_retry_s.min(w.breaker.retry_after_s(t));
            if !w.breaker.would_admit(t) {
                continue;
            }
            any_breaker_ok = true;
            min_drain_s = min_drain_s.min(w.projected_start_s(t) - t);
            if w.queue.len() >= self.admission.max_queue_depth {
                continue;
            }
            any_depth_ok = true;
            let bound = w.request_bound_s(&self.db, req);
            let done = w.projected_start_s(t) + bound;
            if done <= req.deadline_s && best.is_none_or(|(_, b, _)| done < b) {
                best = Some((d, done, bound));
            }
        }
        match best {
            Some((d, _, bound)) => {
                let w = &mut self.workers[d];
                w.queue.push_back(QueueEntry {
                    idx: i,
                    bound_s: bound,
                });
                w.queued_bound_s += bound;
                if !w.dispatch_pending {
                    let at = if w.busy_until_s > t {
                        w.busy_until_s
                    } else {
                        t + self.admission.coalesce_window_s
                    };
                    Self::schedule_dispatch(c, w, d, at);
                }
            }
            None => {
                let (reason, retry) = if !any_breaker_ok {
                    (
                        ShedReason::BreakerOpen,
                        if min_breaker_retry_s.is_finite() {
                            min_breaker_retry_s
                        } else {
                            0.0
                        },
                    )
                } else if !any_depth_ok {
                    (ShedReason::QueueFull, min_drain_s)
                } else {
                    (ShedReason::DeadlineUnmeetable, min_drain_s)
                };
                self.metrics.counter_add(shed_counter_name(reason), 1);
                c.shed(i, reason, t, retry);
            }
        }
        let depth: usize = self.workers.iter().map(|w| w.queue.len()).sum();
        self.metrics
            .gauge_max("serve.queue_depth_peak", depth as f64);
    }

    fn schedule_dispatch(c: &mut Campaign, w: &mut DeviceWorker, d: usize, at: f64) {
        w.dispatch_version += 1;
        w.dispatch_pending = true;
        c.push(
            at,
            EvKind::Dispatch {
                device: d,
                version: w.dispatch_version,
            },
        );
    }

    /// The fault campaign to arm for a window starting at `t` on device
    /// `d`: the active storm, else background noise, else nothing. The
    /// seed is decorrelated per window so repeated arming doesn't replay
    /// one fault pattern.
    fn fault_plan_at(&self, d: usize, t: f64) -> FaultPlan {
        let mut plan = self
            .storms
            .iter()
            .find(|s| s.device == d && s.start_s <= t && t < s.end_s)
            .map(|s| s.plan.clone())
            .or_else(|| self.background.clone())
            .unwrap_or_else(FaultPlan::disabled);
        plan.seed ^= t.to_bits().rotate_left(17) ^ (d as u64);
        plan
    }

    /// Dispatch: breaker gate (re-routing a tripped device's backlog),
    /// coalesce from the queue head, re-check deadlines, solve, record.
    fn dispatch(&mut self, c: &mut Campaign, requests: &[SolveRequest], d: usize, t: f64) {
        if self.workers[d].queue.is_empty() {
            return;
        }
        if !self.workers[d].breaker.would_admit(t) {
            // Tripped (or probing): hand the backlog to the rest of the
            // fleet at their own admission gates, original deadlines kept.
            let backlog: Vec<QueueEntry> = self.workers[d].queue.drain(..).collect();
            self.workers[d].queued_bound_s = 0.0;
            for entry in backlog {
                self.admit(c, requests, entry.idx, t);
            }
            return;
        }

        // Coalesce: queue-head request plus every compatible entry behind
        // it, bounded by the coalesce limit.
        let limit = self.admission.coalesce_limit;
        let fault_plan = self.fault_plan_at(d, t);
        let w = &mut self.workers[d];
        let head_idx = w.queue[0].idx;
        let head = &requests[head_idx];
        let compat = |r: &SolveRequest| {
            r.shape.system_size == head.shape.system_size
                && r.precision == head.precision
                && r.class.label() == head.class.label()
                && r.layout == head.layout
        };
        let mut batch_entries: Vec<QueueEntry> = Vec::new();
        let mut keep: VecDeque<QueueEntry> = VecDeque::new();
        while let Some(entry) = w.queue.pop_front() {
            if batch_entries.len() < limit && compat(&requests[entry.idx]) {
                batch_entries.push(entry);
            } else {
                keep.push_back(entry);
            }
        }
        w.queue = keep;

        // Deadline re-check under the *current* cost model (it may have
        // ratcheted since admission): anyone who can no longer make it is
        // shed now, before burning device time.
        let key = PlanDb::key(
            &w.name,
            head.precision.elem_bytes(),
            head.shape.system_size,
            head.class.label(),
            head.layout.label(),
        );
        loop {
            let total_eqs: usize = batch_entries
                .iter()
                .map(|e| requests[e.idx].equations())
                .sum();
            let mut wc = w.cost.solve_bound_s(total_eqs);
            if !self.db.contains(&key) {
                wc += w
                    .cost
                    .tuning_bound_s(TUNE_SYSTEMS * head.shape.system_size.next_power_of_two());
            }
            let before = batch_entries.len();
            batch_entries.retain(|e| {
                if t + wc > requests[e.idx].deadline_s {
                    c.shed(e.idx, ShedReason::DeadlineUnmeetable, t, 0.0);
                    false
                } else {
                    true
                }
            });
            if batch_entries.len() == before {
                break;
            }
        }
        w.queued_bound_s = w.queue.iter().map(|e| e.bound_s).sum();
        if batch_entries.is_empty() {
            if !w.queue.is_empty() && !w.dispatch_pending {
                Self::schedule_dispatch(c, w, d, t);
            }
            return;
        }

        // Book the breaker slot (the half-open probe, if that's where we
        // are) only now that a batch will actually run.
        let admitted = w.breaker.admit(t);
        debug_assert!(admitted, "would_admit held above at the same instant");

        let members: Vec<&SolveRequest> = batch_entries.iter().map(|e| &requests[e.idx]).collect();
        let total_eqs: usize = members.iter().map(|r| r.equations()).sum();
        let wc_batch = {
            let mut wc = w.cost.solve_bound_s(total_eqs);
            if !self.db.contains(&key) {
                wc += w
                    .cost
                    .tuning_bound_s(TUNE_SYSTEMS * head.shape.system_size.next_power_of_two());
            }
            wc
        };
        let name = w.name.clone();
        let wo = match head.precision {
            Precision::F32 => w
                .core32
                .run_batch(&mut self.db, &name, &members, &fault_plan),
            Precision::F64 => w
                .core64
                .run_batch(&mut self.db, &name, &members, &fault_plan),
        };

        let done_s = t + wo.duration_s;
        w.busy_until_s = done_s;
        w.busy_s += wo.duration_s;
        w.batches += 1;
        c.batches += 1;
        c.tuner_evals += wo.tuner_evals;
        c.faults += wo.faults;
        if wo.duration_s > wc_batch {
            c.bound_violations += 1;
            self.metrics.counter_add("serve.bound_violations", 1);
        }
        w.cost
            .observe((wo.duration_s - wo.tuning_s).max(0.0), total_eqs);
        w.breaker.record(
            &SolveSignal {
                faults: wo.faults as usize,
                exhausted: wo.exhausted,
                recovered_on_gpu: !wo.exhausted && wo.recovered_by != "cpu-reference",
            },
            done_s,
        );
        self.metrics.counter_add("serve.batches", 1);
        self.metrics
            .counter_add("serve.tuner_evals", wo.tuner_evals);
        self.metrics.counter_add("serve.faults", wo.faults);
        self.metrics.observe("serve.solve_ms", wo.duration_s * 1e3);

        if wo.exhausted {
            self.metrics
                .counter_add(shed_counter_name(ShedReason::SolverExhausted), 1);
            for e in &batch_entries {
                c.shed(e.idx, ShedReason::SolverExhausted, done_s, 0.0);
            }
        } else {
            if wo.recovered_by == "cpu-reference" {
                c.cpu_recoveries += batch_entries.len() as u64;
                self.metrics
                    .counter_add("serve.cpu_recoveries", batch_entries.len() as u64);
            }
            c.worst_residual = c.worst_residual.max(wo.residual);
            let companions = batch_entries.len() as u64 - 1;
            c.coalesced += if companions > 0 {
                batch_entries.len() as u64
            } else {
                0
            };
            for e in &batch_entries {
                let r = &requests[e.idx];
                if done_s > r.deadline_s {
                    c.deadline_misses += 1;
                    self.metrics.counter_add("serve.deadline_misses", 1);
                }
                c.completed += 1;
                self.metrics.counter_add("serve.completed", 1);
                self.metrics
                    .observe("serve.queue_ms", (t - r.arrival_s) * 1e3);
                self.metrics
                    .observe("serve.e2e_ms", (done_s - r.arrival_s) * 1e3);
                c.dispositions[e.idx] = Some(Disposition::Completed(Completion {
                    at_s: done_s,
                    queue_s: t - r.arrival_s,
                    solve_s: wo.duration_s,
                    residual: wo.residual,
                    recovered_by: wo.recovered_by.clone(),
                    device: name.clone(),
                    batched_with: companions as usize,
                }));
            }
            self.workers[d].requests_served += batch_entries.len() as u64;
        }

        let w = &mut self.workers[d];
        if !w.queue.is_empty() && !w.dispatch_pending {
            Self::schedule_dispatch(c, w, d, done_s);
        }
    }

    fn finish(&mut self, c: Campaign, requests: &[SolveRequest]) -> ServiceRunReport {
        let submitted = requests.len() as u64;
        let trips: u64 = self.workers.iter().map(|w| w.breaker.trips()).sum();
        let recoveries: u64 = self.workers.iter().map(|w| w.breaker.recoveries()).sum();
        let reopens: u64 = self.workers.iter().map(|w| w.breaker.reopens()).sum();
        for (name, value) in [
            ("serve.breaker_trips", trips),
            ("serve.breaker_recoveries", recoveries),
        ] {
            let already = self.metrics.counter(name);
            self.metrics
                .counter_add(name, value.saturating_sub(already));
        }
        let devices = self
            .workers
            .iter_mut()
            .map(|w| DeviceReport {
                name: w.name.clone(),
                requests: w.requests_served,
                batches: w.batches,
                busy_s: w.busy_s,
                trips: w.breaker.trips(),
                recoveries: w.breaker.recoveries(),
                final_breaker_state: w.breaker.state_at(c.now_s).label().to_owned(),
                admits_after_cooldown: w
                    .breaker
                    .would_admit(c.now_s + w.breaker.policy().cooldown_s + 1e-9),
            })
            .collect();
        let makespan_s = c.now_s;
        let stats = ServiceStats {
            submitted,
            completed: c.completed,
            shed_queue_full: c.shed_queue_full,
            shed_deadline: c.shed_deadline,
            shed_breaker: c.shed_breaker,
            shed_exhausted: c.shed_exhausted,
            deadline_misses: c.deadline_misses,
            bound_violations: c.bound_violations,
            breaker_trips: trips,
            breaker_recoveries: recoveries,
            breaker_reopens: reopens,
            batches: c.batches,
            coalesced: c.coalesced,
            db_hits: self.db.hits(),
            db_misses: self.db.misses(),
            db_origin: self.db.origin().label().to_owned(),
            tuner_evals: c.tuner_evals,
            faults: c.faults,
            cpu_recoveries: c.cpu_recoveries,
            worst_residual: c.worst_residual,
            makespan_s,
            throughput_rps: if makespan_s > 0.0 {
                c.completed as f64 / makespan_s
            } else {
                0.0
            },
            queue_ms: LatencyStats::from_registry(&self.metrics, "serve.queue_ms"),
            solve_ms: LatencyStats::from_registry(&self.metrics, "serve.solve_ms"),
            e2e_ms: LatencyStats::from_registry(&self.metrics, "serve.e2e_ms"),
            devices,
        };
        let dispositions = c
            .dispositions
            .into_iter()
            .map(|d| {
                d.unwrap_or(Disposition::Shed(Rejection {
                    reason: ShedReason::QueueFull,
                    at_s: makespan_s,
                    retry_after_s: 0.0,
                }))
            })
            .collect();
        ServiceRunReport {
            dispositions,
            stats,
        }
    }
}

fn shed_counter_name(reason: ShedReason) -> &'static str {
    match reason {
        ShedReason::QueueFull => "serve.shed.queue_full",
        ShedReason::DeadlineUnmeetable => "serve.shed.deadline",
        ShedReason::BreakerOpen => "serve.shed.breaker",
        ShedReason::SolverExhausted => "serve.shed.exhausted",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, m: usize, n: usize, arrival_s: f64, budget_s: f64) -> SolveRequest {
        SolveRequest {
            id,
            shape: WorkloadShape::new(m, n),
            precision: Precision::F32,
            layout: LayoutPref::Auto,
            class: WorkloadClass::Dominant,
            arrival_s,
            deadline_s: arrival_s + budget_s,
            seed: 1000 + id,
        }
    }

    fn single_device_config() -> ServiceConfig {
        ServiceConfig {
            devices: vec![DeviceSpec::gtx_470()],
            ..ServiceConfig::paper_fleet()
        }
    }

    #[test]
    fn completes_requests_within_deadline_and_loses_none() {
        let mut svc = SolveService::new(single_device_config());
        let requests: Vec<SolveRequest> = (0..8)
            .map(|i| req(i, 16, 64, i as f64 * 0.1, 30.0))
            .collect();
        let report = svc.run(&requests);
        assert_eq!(report.stats.lost(), 0);
        assert_eq!(report.stats.deadline_misses, 0);
        assert_eq!(report.stats.completed, 8);
        for (r, disp) in requests.iter().zip(&report.dispositions) {
            match disp {
                Disposition::Completed(done) => {
                    assert!(done.at_s <= r.deadline_s);
                    assert!(done.residual <= 1e-4);
                }
                Disposition::Shed(rej) => panic!("unexpected shed: {rej:?}"),
            }
        }
        // One class, one size: the tuner ran exactly once.
        assert!(report.stats.tuner_evals > 0);
        assert_eq!(report.stats.db_misses, 1);
        assert!(report.stats.db_hits >= 7);
    }

    #[test]
    fn hopeless_deadlines_shed_at_admission() {
        let mut svc = SolveService::new(single_device_config());
        let requests = vec![req(0, 16, 64, 0.0, 1e-6)];
        let report = svc.run(&requests);
        assert_eq!(report.stats.shed_deadline, 1);
        assert_eq!(report.stats.completed, 0);
        assert_eq!(report.stats.lost(), 0);
        match &report.dispositions[0] {
            Disposition::Shed(rej) => {
                assert_eq!(rej.reason, ShedReason::DeadlineUnmeetable);
                assert!((rej.at_s - 0.0).abs() < 1e-12);
            }
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn burst_beyond_queue_depth_sheds_queue_full() {
        let cfg = ServiceConfig {
            admission: AdmissionPolicy {
                max_queue_depth: 2,
                coalesce_limit: 1,
                ..AdmissionPolicy::default()
            },
            ..single_device_config()
        };
        let mut svc = SolveService::new(cfg);
        // Same-instant burst with roomy deadlines: depth 2 admits two,
        // the rest shed queue-full before any deadline question arises.
        let requests: Vec<SolveRequest> = (0..6).map(|i| req(i, 16, 64, 0.0, 1e6)).collect();
        let report = svc.run(&requests);
        assert_eq!(report.stats.shed_queue_full, 4, "{:?}", report.stats);
        assert_eq!(report.stats.completed, 2);
        assert_eq!(report.stats.lost(), 0);
    }

    #[test]
    fn compatible_requests_coalesce_into_one_batch() {
        let mut svc = SolveService::new(single_device_config());
        // Arrivals inside the coalesce window with identical workload
        // class: one dispatched batch serves all three.
        let requests: Vec<SolveRequest> = (0..3)
            .map(|i| req(i, 8, 64, i as f64 * 1e-5, 30.0))
            .collect();
        let report = svc.run(&requests);
        assert_eq!(report.stats.completed, 3);
        assert_eq!(report.stats.batches, 1);
        assert_eq!(report.stats.coalesced, 3);
        for disp in &report.dispositions {
            match disp {
                Disposition::Completed(done) => assert_eq!(done.batched_with, 2),
                other => panic!("expected completion, got {other:?}"),
            }
        }
    }

    #[test]
    fn storm_trips_breaker_and_probe_recovers() {
        let storm = StormWindow {
            device: 0,
            start_s: 0.0,
            end_s: 1.0,
            plan: FaultPlan::seeded(7)
                .with_launch_failures(0.97)
                .with_bit_flips(0.5),
        };
        let cfg = ServiceConfig {
            breaker: BreakerPolicy {
                trip_after: 2,
                cooldown_s: 0.05,
                fault_heavy_faults: 4,
            },
            storms: vec![storm],
            ..single_device_config()
        };
        let mut svc = SolveService::new(cfg);
        // Steady stream through the storm and well past it.
        let requests: Vec<SolveRequest> = (0..60)
            .map(|i| req(i, 16, 64, i as f64 * 0.05, 60.0))
            .collect();
        let report = svc.run(&requests);
        assert_eq!(report.stats.lost(), 0);
        assert_eq!(report.stats.deadline_misses, 0);
        assert!(report.stats.breaker_trips >= 1, "{:?}", report.stats);
        assert!(report.stats.breaker_recoveries >= 1, "{:?}", report.stats);
        assert!(report.stats.faults > 0);
        // Every request still got an answer: completed on the CPU chain,
        // rerouted later, or structurally shed while the breaker was open.
        assert_eq!(
            report.stats.completed + report.stats.shed_total(),
            report.stats.submitted
        );
        // After the storm the device must have healed.
        assert_eq!(report.stats.devices[0].final_breaker_state, "closed");
    }

    #[test]
    fn warm_plan_db_zeroes_campaign_tuner_evals() {
        let dir = std::env::temp_dir().join("trisolve-serve-warm-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.json");
        let _ = std::fs::remove_file(&path);
        let combos = vec![(
            64usize,
            Precision::F32,
            WorkloadClass::Dominant,
            LayoutPref::Auto,
        )];
        let requests: Vec<SolveRequest> = (0..6)
            .map(|i| req(i, 16, 64, i as f64 * 0.1, 30.0))
            .collect();

        let cfg = ServiceConfig {
            plan_db_path: Some(path.clone()),
            ..single_device_config()
        };
        let mut cold = SolveService::new(cfg.clone());
        let cold_evals = cold.warm_plan_db(&combos);
        assert!(cold_evals > 0, "cold warm-up must pay the tuner");
        let cold_report = cold.run(&requests);
        assert_eq!(cold_report.stats.tuner_evals, 0, "campaign keys were warm");
        drop(cold);

        // A fresh service over the same database file: zero evaluations
        // anywhere — the warm start crossed the restart.
        let mut warm = SolveService::new(cfg);
        assert_eq!(warm.plan_db().origin().label(), "loaded");
        assert_eq!(warm.warm_plan_db(&combos), 0);
        let warm_report = warm.run(&requests);
        assert_eq!(warm_report.stats.tuner_evals, 0);
        assert_eq!(warm_report.stats.completed, 6);
        assert_eq!(warm_report.stats.lost(), 0);
    }

    #[test]
    fn forced_layouts_complete_and_key_separately() {
        let mut svc = SolveService::new(single_device_config());
        let mut requests = Vec::new();
        for (i, layout) in [
            LayoutPref::Strided,
            LayoutPref::Coalesced,
            LayoutPref::Interleaved,
        ]
        .into_iter()
        .enumerate()
        {
            let mut r = req(i as u64, 16, 64, i as f64, 60.0);
            r.layout = layout;
            requests.push(r);
        }
        let report = svc.run(&requests);
        assert_eq!(report.stats.completed, 3);
        assert_eq!(report.stats.lost(), 0);
        // Three layout preferences = three plan-database keys.
        assert_eq!(svc.plan_db().len(), 3);
    }
}
