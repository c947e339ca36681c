//! The execution engine: how a batch is solved on the simulated device.
//!
//! Two pieces compose here:
//!
//! * [`SolveSession`] — a reusable per-shape context. Repeated solves of
//!   the same workload shape (the dynamic tuner's micro-benchmark loop,
//!   Criterion benches) skip plan construction, padded-staging allocation
//!   and device (re)allocation: the session owns the padded host staging
//!   plus persistent device buffers behind RAII
//!   [`DeviceBuffer`](trisolve_gpu_sim::DeviceBuffer) guards, and caches
//!   built [`SolvePlan`]s per parameter point. Dropping the session frees
//!   everything — including on kernel-error paths, where no manual
//!   `gpu.free()` bookkeeping exists to get wrong. One-shot callers use
//!   [`solve_batch_on_gpu`](crate::solver::solve_batch_on_gpu), which is a
//!   fresh session plus one solve.
//! * [`StageTimeline`] — a serialisable per-stage profile aggregated from
//!   the launch-by-launch [`KernelStats`], replacing ad-hoc accounting in
//!   the reporting binaries.
//!
//! The host engine, sequential pivoted LU under the calibrated CPU timing
//! model, is one function:
//! [`solve_on_host`](crate::reference::solve_on_host).

use crate::kernels::{elem_bytes, CoeffBuffers, GpuScalar};
use crate::params::SolverParams;
use crate::plan::SolvePlan;
use crate::schedule::{
    lower_schedule, pipelined_schedule, BufKey, NodeAction, Schedule, ScheduleNode,
};
use crate::solver::SolveOutcome;
use crate::{CoreError, Result};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use trisolve_gpu_sim::{
    overlap_ratio, serial_time_s, wall_time_s, BufferId, DeviceBuffer, Event, Gpu, KernelStats,
    QueryableProps, Stream, ValidationReport,
};
use trisolve_obs::{arg, Phase, TraceEvent};
use trisolve_tridiag::workloads::WorkloadShape;
use trisolve_tridiag::{Scalar, SystemBatch};

// ---------------------------------------------------------------------------
// StageTimeline
// ---------------------------------------------------------------------------

/// One kernel family's aggregate cost within a [`StageTimeline`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageTimelineEntry {
    /// Stage name: the kernel label prefix before the first `[` (`stage1`,
    /// `stage2`, `base`, …).
    pub stage: String,
    /// Number of kernel launches attributed to this stage.
    pub launches: usize,
    /// Total simulated milliseconds (execution + launch overhead).
    pub sim_time_ms: f64,
    /// Simulated execution milliseconds (overhead excluded).
    pub exec_time_ms: f64,
    /// Simulated launch-overhead milliseconds.
    pub overhead_ms: f64,
    /// Useful global-memory traffic in MiB (reads + writes).
    pub gmem_payload_mib: f64,
    /// Launch-averaged resident warps per SM (the occupancy the stage
    /// actually achieved).
    pub mean_warps_per_sm: f64,
}

/// A per-stage breakdown of a solve, aggregated from per-launch
/// [`KernelStats`] in execution order. Serialisable, so reporting binaries
/// can emit it as JSON next to the figures they reproduce.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageTimeline {
    /// Total simulated milliseconds across every launch.
    pub total_ms: f64,
    /// Total number of kernel launches.
    pub launches: usize,
    /// Per-stage aggregates, ordered by first launch.
    pub stages: Vec<StageTimelineEntry>,
}

/// One launch's contribution to a [`StageTimeline`], read from either its
/// [`KernelStats`] or its trace span.
struct LaunchSample<'a> {
    family: &'a str,
    exec_s: f64,
    overhead_s: f64,
    payload_bytes: f64,
    warps_per_sm: f64,
}

impl StageTimeline {
    /// Aggregate a launch sequence by kernel family (label prefix before
    /// the first `[`), preserving first-launch order.
    pub fn from_stats(stats: &[KernelStats]) -> Self {
        Self::accumulate(stats.iter().map(|s| LaunchSample {
            family: s.label.split('[').next().unwrap_or(&s.label),
            exec_s: s.exec_time_s,
            overhead_s: s.overhead_s,
            payload_bytes: s.totals.gmem_payload_bytes(),
            warps_per_sm: s.residency.warps_per_sm as f64,
        }))
    }

    /// The timeline of a completed solve.
    pub fn from_outcome<T: Scalar>(outcome: &SolveOutcome<T>) -> Self {
        Self::from_stats(&outcome.kernel_stats)
    }

    /// Rebuild the timeline from a recorded trace: per-launch `"gpu"` spans
    /// carry exactly the fields [`StageTimeline::from_stats`] aggregates
    /// (`exec_s`, `overhead_s`, `gmem_payload_bytes`, `warps_per_sm`), so
    /// when tracing is enabled the timeline is a projection of the trace
    /// rather than a parallel bookkeeping path. Over the same launch
    /// sequence the two constructors agree entry-for-entry, bit-for-bit —
    /// asserted by this crate's regression tests.
    pub fn from_trace(events: &[TraceEvent]) -> Self {
        Self::accumulate(
            events
                .iter()
                .filter(|ev| ev.cat == "gpu" && ev.phase == Phase::Span)
                .map(|ev| LaunchSample {
                    family: ev.family(),
                    exec_s: ev.arg_f64("exec_s").unwrap_or(0.0),
                    overhead_s: ev.arg_f64("overhead_s").unwrap_or(0.0),
                    payload_bytes: ev.arg_f64("gmem_payload_bytes").unwrap_or(0.0),
                    warps_per_sm: ev.arg_f64("warps_per_sm").unwrap_or(0.0),
                }),
        )
    }

    /// The one fold behind both constructors: sum each launch into its
    /// family's entry (created on first launch), then average occupancy.
    fn accumulate<'a>(launches: impl Iterator<Item = LaunchSample<'a>>) -> Self {
        let mut stages: Vec<StageTimelineEntry> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        let (mut total_ms, mut count) = (0.0, 0);
        for l in launches {
            let i = *index.entry(l.family).or_insert_with(|| {
                stages.push(StageTimelineEntry {
                    stage: l.family.to_string(),
                    launches: 0,
                    sim_time_ms: 0.0,
                    exec_time_ms: 0.0,
                    overhead_ms: 0.0,
                    gmem_payload_mib: 0.0,
                    mean_warps_per_sm: 0.0,
                });
                stages.len() - 1
            });
            let sim_ms = (l.exec_s + l.overhead_s) * 1e3;
            let e = &mut stages[i];
            e.launches += 1;
            e.sim_time_ms += sim_ms;
            e.exec_time_ms += l.exec_s * 1e3;
            e.overhead_ms += l.overhead_s * 1e3;
            e.gmem_payload_mib += l.payload_bytes / (1024.0 * 1024.0);
            // Accumulate; averaged below.
            e.mean_warps_per_sm += l.warps_per_sm;
            total_ms += sim_ms;
            count += 1;
        }
        for e in &mut stages {
            e.mean_warps_per_sm /= e.launches as f64;
        }
        Self {
            total_ms,
            launches: count,
            stages,
        }
    }

    /// Fixed-width table rendering, one row per stage.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>8} {:>12} {:>12} {:>14} {:>10}\n",
            "stage", "launches", "time (ms)", "exec (ms)", "payload (MiB)", "warps/SM"
        ));
        for e in &self.stages {
            out.push_str(&format!(
                "{:<10} {:>8} {:>12.6} {:>12.6} {:>14.3} {:>10.1}\n",
                e.stage,
                e.launches,
                e.sim_time_ms,
                e.exec_time_ms,
                e.gmem_payload_mib,
                e.mean_warps_per_sm
            ));
        }
        out.push_str(&format!(
            "{:<10} {:>8} {:>12.6}\n",
            "total", self.launches, self.total_ms
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// SolveSession (GPU)
// ---------------------------------------------------------------------------

/// A reusable GPU solve context for one workload shape.
///
/// Owns the padded host staging buffer and nine persistent device buffers
/// (4 source coefficient arrays, 4 double-buffer destinations, 1 solution),
/// all behind RAII guards, plus a cache of built [`SolvePlan`]s keyed by
/// [`SolverParams`]. Repeated [`SolveSession::solve`] /
/// [`SolveSession::measure`] calls over the same shape — the dynamic
/// tuner's hot loop — re-upload coefficients (the in-place double-buffered
/// stages consume them) but skip padding-buffer allocation, device
/// allocation and plan construction.
///
/// Every entry point runs a [`Schedule`] through one executor: the
/// synchronous ones run the plan's one-batch, one-stream lowering on the
/// device's default stream, the pipelined ones a multi-batch lowering on
/// created streams.
///
/// A session is tied to the [`Gpu`] it was prepared on; using it with a
/// different device is a logic error and surfaces as an invalid-buffer
/// device error.
#[derive(Debug)]
pub struct SolveSession<T: GpuScalar> {
    device: QueryableProps,
    /// Built plans, each with its one-batch, one-stream lowering (the
    /// schedule a synchronous solve runs) once a solve or measurement has
    /// run it: lowered once per plan, never per solve.
    plans: HashMap<SolverParams, (SolvePlan, Option<Schedule>)>,
    /// Optional cross-session plan store (multi-tenant service fronts):
    /// `plan_for` publishes every plan it builds here and consults it
    /// before building, so tenants sharing a cache pay plan construction
    /// and static validation once per (device, shape, params) point even
    /// though each tenant owns its own buffers.
    shared: Option<SharedPlanCache>,
    /// Static launch-validation reports, one per parameter point ever
    /// requested (clean reports included, so callers can surface warnings).
    validation: HashMap<SolverParams, ValidationReport>,
    ws: Workspace<T>,
}

/// Everything a schedule's nodes run on: the workload layout, the host
/// padding scratch and the session's device buffers.
#[derive(Debug)]
struct Workspace<T> {
    shape: WorkloadShape,
    padded_size: usize,
    /// Host-side padding scratch (empty while `padded_size == system_size`,
    /// where uploads borrow straight from the batch).
    staging: Vec<T>,
    src: [DeviceBuffer; 4],
    dst: [DeviceBuffer; 4],
    x: DeviceBuffer,
}

/// Key of one published plan in a [`SharedPlanCache`]: the device the
/// plan was validated against (by name — the paper devices are uniquely
/// named), the workload shape, the element width and the parameter point.
type SharedPlanKey = (String, WorkloadShape, usize, SolverParams);

/// A published [`SolvePlan::admit`] outcome: the accepted plan and its
/// report, or [`CoreError::PlanRejected`].
type Admission = Result<(SolvePlan, ValidationReport)>;

/// Cross-session, clone-to-share store of built (and statically
/// validated) [`SolvePlan`]s — what makes [`SolveSession`] multi-tenant.
///
/// Buffers stay per-session (each tenant's staging and device
/// allocations are its own), but plan construction and validation are
/// pure functions of `(device, shape, elem_bytes, params)`, so tenants
/// can share their results. A service front-end creates one cache per
/// device and hands a clone to every session it opens via
/// [`SolveSession::with_plan_cache`]; sessions created with
/// [`SolveSession::new`] keep today's private-cache behaviour.
///
/// Plans are only ever *added* under a key, and a key's plan is a pure
/// deterministic function of the key, so shared hits return exactly the
/// plan a private cache would have built — bit-identical solves either
/// way. Rejected parameter points (validation errors) are recorded too,
/// so every tenant sees the same [`CoreError::PlanRejected`] without
/// re-validating.
#[derive(Debug, Clone, Default)]
pub struct SharedPlanCache {
    inner: Arc<Mutex<SharedPlanState>>,
}

#[derive(Debug, Default)]
struct SharedPlanState {
    plans: HashMap<SharedPlanKey, Admission>,
    hits: u64,
    misses: u64,
}

impl SharedPlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct (device, shape, elem-bytes, params) points cached.
    pub fn len(&self) -> usize {
        self.lock().plans.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times a session found its plan here instead of building it.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Times a session had to build (and publish) a plan.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SharedPlanState> {
        // Plan values are write-once per key and never partially built,
        // so a poisoned lock (a panicking tenant) leaves no torn state;
        // recover the guard instead of propagating the poison.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get(&self, key: &SharedPlanKey) -> Option<Admission> {
        let mut s = self.lock();
        let found = s.plans.get(key).cloned();
        if found.is_some() {
            s.hits += 1;
        } else {
            s.misses += 1;
        }
        found
    }

    fn publish(&self, key: SharedPlanKey, admission: Admission) {
        self.lock().plans.entry(key).or_insert(admission);
    }
}

/// [`CoreError::BadParams`] unless `batch` has exactly `shape`.
pub(crate) fn check_shape<T: Scalar>(shape: WorkloadShape, batch: &SystemBatch<T>) -> Result<()> {
    if (batch.num_systems, batch.system_size) != (shape.num_systems, shape.system_size) {
        return Err(CoreError::BadParams {
            detail: format!(
                "session prepared for {}x{} systems, got {}x{}",
                shape.num_systems, shape.system_size, batch.num_systems, batch.system_size
            ),
        });
    }
    Ok(())
}

impl<T: GpuScalar> SolveSession<T> {
    /// Allocate a session's device buffers for `shape` on `gpu`.
    pub fn new(gpu: &mut Gpu<T>, shape: WorkloadShape) -> Result<Self> {
        if shape.num_systems == 0 || shape.system_size == 0 {
            return Err(CoreError::BadParams {
                detail: "workload must have at least one system and one equation".into(),
            });
        }
        let padded_size = shape.system_size.next_power_of_two();
        let total = shape.num_systems * padded_size;
        let src = alloc4(gpu, total)?;
        let dst = alloc4(gpu, total)?;
        let x = gpu.alloc_guarded(total)?;
        if gpu.tracer().is_enabled() {
            gpu.tracer().instant_now(
                "engine",
                "session",
                vec![
                    arg("systems", shape.num_systems),
                    arg("size", shape.system_size),
                    arg("padded_size", padded_size),
                ],
            );
        }
        Ok(Self {
            device: gpu.spec().queryable().clone(),
            plans: HashMap::new(),
            shared: None,
            validation: HashMap::new(),
            ws: Workspace {
                shape,
                padded_size,
                staging: Vec::new(),
                src,
                dst,
                x,
            },
        })
    }

    /// Allocate a session whose plan cache is shared with other sessions
    /// (the multi-tenant service case): buffers are this session's own,
    /// but plans built by any tenant of `cache` are reused instead of
    /// rebuilt. See [`SharedPlanCache`].
    pub fn with_plan_cache(
        gpu: &mut Gpu<T>,
        shape: WorkloadShape,
        cache: SharedPlanCache,
    ) -> Result<Self> {
        let mut session = Self::new(gpu, shape)?;
        session.shared = Some(cache);
        Ok(session)
    }

    /// The workload shape this session was prepared for.
    pub fn shape(&self) -> WorkloadShape {
        self.ws.shape
    }

    /// The padded (power-of-two) per-system size.
    pub fn padded_size(&self) -> usize {
        self.ws.padded_size
    }

    /// Number of distinct parameter points with a cached plan.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Queryable properties of the device this session allocated on —
    /// the same limits `plan_for` validates against, so external
    /// analyzers (e.g. `trisolve-analyze`) can reproduce its verdicts.
    pub fn device(&self) -> &QueryableProps {
        &self.device
    }

    /// The cached plan for `params`, building (and statically validating)
    /// on first use. A plan with launch-validation *errors* — a launch the
    /// device would reject — is refused here, before any kernel runs; the
    /// full report stays readable via [`SolveSession::validation_for`].
    pub fn plan_for(&mut self, params: &SolverParams) -> Result<&SolvePlan> {
        match self.plans.entry(*params) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(&e.into_mut().0),
            std::collections::hash_map::Entry::Vacant(v) => {
                let shape = self.ws.shape;
                let shared_key = self
                    .shared
                    .as_ref()
                    .map(|_| (self.device.name.clone(), shape, elem_bytes::<T>(), *params));
                // A shared hit replays another tenant's admission verbatim —
                // it is a pure function of the key, so this is bit-identical
                // to admitting locally.
                let published = shared_key
                    .as_ref()
                    .and_then(|key| self.shared.as_ref().and_then(|c| c.get(key)));
                let admitted = match published {
                    Some(hit) => hit,
                    None => {
                        let admitted =
                            SolvePlan::admit(shape, params, &self.device, elem_bytes::<T>());
                        // Accepted and rejected plans are published;
                        // build errors are not.
                        let built = matches!(admitted, Ok(_) | Err(CoreError::PlanRejected { .. }));
                        if let (Some(key), Some(cache)) = (shared_key, &self.shared) {
                            if built {
                                cache.publish(key, admitted.clone());
                            }
                        }
                        admitted
                    }
                };
                match admitted {
                    Ok((plan, report)) => {
                        self.validation.insert(*params, report);
                        Ok(&v.insert((plan, None)).0)
                    }
                    Err(e) => {
                        if let CoreError::PlanRejected { report } = &e {
                            self.validation.insert(*params, report.clone());
                        }
                        Err(e)
                    }
                }
            }
        }
    }

    /// The static launch-validation report recorded for `params`, if a plan
    /// was ever requested for it (clean reports included, so callers can
    /// inspect warnings such as low occupancy).
    pub fn validation_for(&self, params: &SolverParams) -> Option<&ValidationReport> {
        self.validation.get(params)
    }

    /// Solve `batch` with `params`, reusing the session's buffers and plan
    /// cache. Identical results (bit-for-bit) and simulated timings to a
    /// one-shot [`crate::solver::solve_batch_on_gpu`] call.
    pub fn solve(
        &mut self,
        gpu: &mut Gpu<T>,
        batch: &SystemBatch<T>,
        params: &SolverParams,
    ) -> Result<SolveOutcome<T>> {
        check_shape(self.ws.shape, batch)?;
        let mut x = Vec::new();
        let (sim_time_s, kernel_stats) =
            self.run_synchronous(gpu, params, Some(batch), Some(&mut x), "solve")?;
        Ok(SolveOutcome {
            x,
            sim_time_s,
            kernel_stats,
            plan: self.plans[params].0.clone(),
        })
    }

    /// Solve and report only the simulated time — the tuner's measurement
    /// primitive. Skips the solution download (which costs no simulated
    /// time, so the reading is identical to [`SolveSession::solve`]'s
    /// `sim_time_s`).
    pub fn measure(
        &mut self,
        gpu: &mut Gpu<T>,
        batch: &SystemBatch<T>,
        params: &SolverParams,
    ) -> Result<f64> {
        check_shape(self.ws.shape, batch)?;
        Ok(self
            .run_synchronous(gpu, params, Some(batch), None, "measure")?
            .0)
    }

    /// Price `params` from the kernels' cost meters without running the
    /// numerics: no batch, no transfer, one O(blocks) pass per launch (see
    /// [`Gpu::price`]). Returns the same simulated seconds as
    /// [`SolveSession::measure`], and charges the device clock, profile
    /// and trace identically, because every meter depends on the launch
    /// geometry only.
    ///
    /// What pricing cannot see is a data-dependent failure: a zero pivot
    /// or a non-finite solution that makes an executed solve return
    /// [`CoreError::NumericalBreakdown`]. Callers price only plans whose
    /// stability certificate rules that out for their data, and execute
    /// otherwise. Pricing also bypasses fault injection and the
    /// sanitizer.
    pub fn price(&mut self, gpu: &mut Gpu<T>, params: &SolverParams) -> Result<f64> {
        Ok(self.run_synchronous(gpu, params, None, None, "measure")?.0)
    }

    /// The body of [`SolveSession::solve`], [`SolveSession::measure`] and
    /// [`SolveSession::price`]: run `params`' one-batch schedule on the
    /// default stream — every node but the D2H on `batch` (priced without
    /// one), each launch traced as an `"engine"` span of its stage, then
    /// the outer `span`, then the D2H into `x` when asked for. Returns the
    /// simulated time and the per-launch stats of this solve only.
    fn run_synchronous(
        &mut self,
        gpu: &mut Gpu<T>,
        params: &SolverParams,
        batch: Option<&SystemBatch<T>>,
        x: Option<&mut Vec<T>>,
        span: &'static str,
    ) -> Result<(f64, Vec<KernelStats>)> {
        self.plan_for(params)?;
        let (plan, cached) = self.plans.get_mut(params).expect("admitted above");
        // Pricing runs on a throwaway lowering. The tuner prices each
        // candidate once; a lowering kept per priced plan leaves small live
        // allocations behind the tuning session's device buffers, so the
        // allocator recycles those buffers' memory dirty and the next
        // session pays to zero it (about 25 ms of twoclock's `batch-1Kx1K`
        // set-up on a 2-vCPU Xeon with glibc malloc).
        let priced;
        let schedule = match batch {
            Some(_) => cached.get_or_insert_with(|| lower_schedule(plan, 1, 1)),
            None => {
                priced = lower_schedule(plan, 1, 1);
                &priced
            }
        };
        let (body, d2h) = schedule.nodes.split_at(schedule.nodes.len() - 1);
        let bindings = Bindings {
            streams: &[Stream::DEFAULT],
            events: &[],
            src: &[ids(&self.ws.src)],
            dst: &[ids(&self.ws.dst)],
            x: self.ws.x.id(),
        };
        let batches = batch.map(std::slice::from_ref);
        let begin_s = gpu.elapsed_s();
        let mut kernel_stats = Vec::with_capacity(body.len());
        let on_launch = |gpu: &Gpu<T>, stage, stage_begin_s, stats| {
            kernel_stats.push(stats);
            let tracer = gpu.tracer();
            if tracer.is_enabled() {
                let dur_s = gpu.elapsed_s() - stage_begin_s;
                let args = vec![arg("launches", 1usize)];
                tracer.span("engine", stage, stage_begin_s * 1e6, dur_s * 1e6, args);
                tracer.observe(&format!("stage_ms/{stage}"), dur_s * 1e3);
            }
        };
        self.ws
            .run(gpu, body, &bindings, batches, &mut [], on_launch)?;
        let tracer = gpu.tracer();
        if tracer.is_enabled() {
            let (shape, dur_s) = (self.ws.shape, gpu.elapsed_s() - begin_s);
            let args = vec![
                arg("systems", shape.num_systems),
                arg("size", shape.system_size),
                arg("padded_size", self.ws.padded_size),
                arg("stage1_target", params.stage1_target_systems),
                arg("onchip_size", params.onchip_size),
                arg("thomas_switch", params.thomas_switch),
                arg("variant", format!("{:?}", params.variant)),
                arg("launches", kernel_stats.len()),
            ];
            tracer.span("engine", span, begin_s * 1e6, dur_s * 1e6, args);
            // End-to-end latency histograms: one series per span kind
            // ("solve" for user-facing solves, "measure" for tuner probes).
            tracer.observe(&format!("{span}_ms"), dur_s * 1e3);
        }
        if let Some(x) = x {
            let xs = std::slice::from_mut(x);
            self.ws
                .run(gpu, d2h, &bindings, batches, xs, |_, _, _, _| {})?;
        }
        // Left-fold over the launches in order: exactly what a fresh
        // device clock accumulates, and — unlike an `elapsed_s()` delta —
        // independent of whatever simulated time preceded this solve. The
        // same parameter point therefore times identically on the first
        // and the thousandth reuse of a session.
        let sim_time_s = kernel_stats.iter().map(KernelStats::total_time_s).sum();
        Ok((sim_time_s, kernel_stats))
    }

    /// Solve `batches` back-to-back through the two-stream pipelined path:
    /// batch `k` runs on stream `k % 2` with its own coefficient buffer
    /// set, so batch `k+1`'s upload and interleave-pack overlap batch `k`'s
    /// solve and download on the other stream.
    ///
    /// The schedule comes from [`pipelined_schedule`], which lowers the
    /// plan and certifies it: an uncertified schedule is rejected via
    /// [`CoreError::ScheduleRejected`] *before any transfer or launch is
    /// enqueued*, like [`SolveSession::plan_for`] rejects a plan. Results
    /// are bit-identical to calling [`SolveSession::solve`] once per batch.
    pub fn solve_pipelined(
        &mut self,
        gpu: &mut Gpu<T>,
        batches: &[SystemBatch<T>],
        params: &SolverParams,
    ) -> Result<PipelinedOutcome<T>> {
        if batches.is_empty() {
            return Err(CoreError::BadParams {
                detail: "pipelined solve needs at least one batch".into(),
            });
        }
        let plan = self.plan_for_batches(batches, params)?;
        let schedule = pipelined_schedule(&plan, batches.len())?;
        self.run_on_streams(gpu, batches, plan, schedule)
    }

    /// Certify `schedule` with the happens-before checker, then execute it.
    /// The certified object and the executed object are the same value —
    /// prover and executor cannot drift. Rejection happens before any
    /// launch or transfer touches the device.
    pub fn solve_scheduled(
        &mut self,
        gpu: &mut Gpu<T>,
        batches: &[SystemBatch<T>],
        params: &SolverParams,
        schedule: Schedule,
    ) -> Result<PipelinedOutcome<T>> {
        let plan = self.plan_for_batches(batches, params)?;
        self.run_on_streams(gpu, batches, plan, schedule.certified()?)
    }

    /// Execute `schedule` **without** certifying it first.
    ///
    /// Exists solely so validation harnesses can cross-check the static
    /// certifier against the dynamic cross-stream sanitizer on
    /// deliberately defective fixtures (`trisolve analyze --schedule`).
    /// Production callers use [`SolveSession::solve_pipelined`] or
    /// [`SolveSession::solve_scheduled`], which refuse uncertified
    /// schedules.
    pub fn solve_scheduled_unchecked(
        &mut self,
        gpu: &mut Gpu<T>,
        batches: &[SystemBatch<T>],
        params: &SolverParams,
        schedule: Schedule,
    ) -> Result<PipelinedOutcome<T>> {
        let plan = self.plan_for_batches(batches, params)?;
        self.run_on_streams(gpu, batches, plan, schedule)
    }

    /// Check every batch against the session's shape, then admit `params`.
    fn plan_for_batches(
        &mut self,
        batches: &[SystemBatch<T>],
        params: &SolverParams,
    ) -> Result<SolvePlan> {
        for batch in batches {
            check_shape(self.ws.shape, batch)?;
        }
        Ok(self.plan_for(params)?.clone())
    }

    /// Run a multi-batch schedule on freshly created streams, one per
    /// schedule stream, with a second coefficient set for odd-parity
    /// batches when the schedule names one, and report its overlap.
    fn run_on_streams(
        &mut self,
        gpu: &mut Gpu<T>,
        batches: &[SystemBatch<T>],
        plan: SolvePlan,
        schedule: Schedule,
    ) -> Result<PipelinedOutcome<T>> {
        // Odd-parity batches double-buffer into their own coefficient set;
        // allocate it only when the schedule actually references set 1.
        let needs_set1 = schedule.nodes.iter().any(|nd| {
            nd.reads
                .iter()
                .chain(nd.writes.iter())
                .any(|k| matches!(k, BufKey::Src { set: 1, .. } | BufKey::Dst { set: 1, .. }))
        });
        let total = self.ws.shape.num_systems * self.ws.padded_size;
        let set1 = if needs_set1 {
            Some((alloc4(gpu, total)?, alloc4(gpu, total)?))
        } else {
            None
        };
        let (src0, dst0) = (ids(&self.ws.src), ids(&self.ws.dst));
        let (src1, dst1) = set1
            .as_ref()
            .map_or((src0, dst0), |(s, d)| (ids(s), ids(d)));
        let begin_s = gpu.elapsed_s();
        let streams = gpu.enable_streams(schedule.streams);
        let events: Vec<_> = (0..schedule.events).map(|_| gpu.create_event()).collect();
        let bindings = Bindings {
            streams: &streams,
            events: &events,
            src: &[src0, src1],
            dst: &[dst0, dst1],
            x: self.ws.x.id(),
        };
        let mut xs: Vec<Vec<T>> = vec![Vec::new(); batches.len()];
        self.ws.run(
            gpu,
            &schedule.nodes,
            &bindings,
            Some(batches),
            &mut xs,
            |_, _, _, _| {},
        )?;

        let intervals = gpu.stream_op_intervals();
        let wall_s = wall_time_s(intervals);
        let serial_s = serial_time_s(intervals);
        let ratio = overlap_ratio(intervals);
        let tracer = gpu.tracer();
        if tracer.is_enabled() {
            tracer.span(
                "engine",
                "pipelined",
                begin_s * 1e6,
                (gpu.elapsed_s() - begin_s) * 1e6,
                vec![
                    arg("batches", batches.len()),
                    arg("streams", schedule.streams),
                    arg("nodes", schedule.len()),
                    arg("wall_ms", wall_s * 1e3),
                    arg("serial_ms", serial_s * 1e3),
                    arg("overlap_ratio", ratio),
                ],
            );
            tracer.observe("pipelined_ms", wall_s * 1e3);
        }
        if let Some(reg) = tracer.registry() {
            reg.set_gauge("overlap_ratio", ratio);
        }
        Ok(PipelinedOutcome {
            xs,
            wall_s,
            serial_s,
            overlap_ratio: ratio,
            plan,
            schedule,
        })
    }
}

impl<T: GpuScalar> Workspace<T> {
    /// The one executor: run `nodes` in order, each on the stream its
    /// schedule stream binds to, after the waits and before the records
    /// its event edges name, then return to the default stream and join
    /// the streams. Functional results are computed eagerly at enqueue (the
    /// simulator is functional), so they depend only on node order — event
    /// edges shape the simulated clock and the hazard tracking, never the
    /// numerics. That is exactly why certified and uncertified schedules of
    /// the same node list are bit-identical, why a pipelined solve is
    /// bit-identical to one synchronous solve per batch, and why the
    /// dynamic race check is about *ordering*, not corruption.
    ///
    /// An H2D node uploads its batch, an op node launches on the buffers
    /// its certified keys name and hands its stage, pre-launch clock and
    /// [`KernelStats`] to `on_launch`, and a D2H node downloads into
    /// `xs[batch]`. With `batches` absent the op nodes are priced from
    /// their meters instead and the transfers move nothing.
    fn run(
        &mut self,
        gpu: &mut Gpu<T>,
        nodes: &[ScheduleNode],
        bindings: &Bindings<'_>,
        batches: Option<&[SystemBatch<T>]>,
        xs: &mut [Vec<T>],
        mut on_launch: impl FnMut(&Gpu<T>, &'static str, f64, KernelStats),
    ) -> Result<()> {
        let (m, np) = (self.shape.num_systems, self.padded_size);
        let (streams, events) = (bindings.streams, bindings.events);
        let outcome = nodes.iter().try_for_each(|node| {
            let stream = streams[node.stream.min(streams.len() - 1)];
            for ev in node.waits.iter().filter_map(|&e| events.get(e)) {
                gpu.wait_event(stream, *ev);
            }
            gpu.set_stream(stream);
            match (node.action, batches) {
                (NodeAction::H2d { batch }, Some(batches)) => {
                    let set = match node.writes.first() {
                        Some(BufKey::Src { set, .. } | BufKey::Dst { set, .. }) => *set % 2,
                        _ => batch % 2,
                    };
                    self.upload_batch(gpu, &batches[batch], bindings.src[set])?;
                }
                (NodeAction::Op { op, .. }, _) => {
                    let d = op.describe(m, np);
                    let begin_s = gpu.elapsed_s();
                    let stats = match batches {
                        Some(_) => {
                            d.launch(gpu, &bindings.ids(&node.reads), &bindings.ids(&node.writes))?
                        }
                        None => d.price(gpu)?,
                    };
                    on_launch(gpu, d.stage, begin_s, stats);
                }
                (NodeAction::D2h { batch }, Some(_)) => {
                    xs[batch] = gpu.download_rows(bindings.x, np, self.shape.system_size)?;
                }
                (NodeAction::H2d { .. } | NodeAction::D2h { .. }, None) => {}
            }
            for ev in node.records.iter().filter_map(|&e| events.get(e)) {
                gpu.record_event(stream, *ev);
            }
            Ok(())
        });
        gpu.set_stream(Stream::DEFAULT);
        gpu.sync_streams();
        outcome
    }

    /// Upload the batch's four coefficient arrays into `targets`, padding
    /// each system to the power-of-two size with decoupled identity rows
    /// (b = 1, everything else 0): they solve to zero and PCR leaves them
    /// decoupled, so the original solutions are unaffected. The pipelined
    /// path double-buffers coefficient sets, so odd batches land in
    /// session-external buffers.
    ///
    /// When no padding is needed the upload borrows straight from the batch
    /// — no host-side copy at all.
    fn upload_batch(
        &mut self,
        gpu: &mut Gpu<T>,
        batch: &SystemBatch<T>,
        targets: CoeffBuffers,
    ) -> Result<()> {
        let m = self.shape.num_systems;
        let n = self.shape.system_size;
        let np = self.padded_size;
        let arrays: [(&[T], bool); 4] = [
            (&batch.a, false),
            (&batch.b, true),
            (&batch.c, false),
            (&batch.d, false),
        ];
        if np == n {
            for (i, (data, _)) in arrays.iter().enumerate() {
                gpu.upload(targets[i], data)?;
            }
            return Ok(());
        }
        self.staging.resize(m * np, T::ZERO);
        for (i, (data, pad_with_one)) in arrays.iter().enumerate() {
            let fill = if *pad_with_one { T::ONE } else { T::ZERO };
            for s in 0..m {
                self.staging[s * np..s * np + n].copy_from_slice(&data[s * n..(s + 1) * n]);
                for v in &mut self.staging[s * np + n..(s + 1) * np] {
                    *v = fill;
                }
            }
            gpu.upload(targets[i], &self.staging)?;
        }
        Ok(())
    }
}

/// The handles of four guarded coefficient buffers, as one bundle.
fn ids(bufs: &[DeviceBuffer; 4]) -> CoeffBuffers {
    bufs.each_ref().map(DeviceBuffer::id)
}

/// Four guarded device buffers of `len` elements.
fn alloc4<T: GpuScalar>(gpu: &mut Gpu<T>, len: usize) -> Result<[DeviceBuffer; 4]> {
    Ok([
        gpu.alloc_guarded(len)?,
        gpu.alloc_guarded(len)?,
        gpu.alloc_guarded(len)?,
        gpu.alloc_guarded(len)?,
    ])
}

/// What a schedule's indices name on the device: the stream each schedule
/// stream runs on, the event each event slot is, and the buffers behind
/// its [`BufKey`]s — each buffer set's source and destination coefficient
/// bundles, and the solution vector.
struct Bindings<'a> {
    streams: &'a [Stream],
    events: &'a [Event],
    src: &'a [CoeffBuffers],
    dst: &'a [CoeffBuffers],
    x: BufferId,
}

impl Bindings<'_> {
    fn ids(&self, keys: &[BufKey]) -> Vec<BufferId> {
        keys.iter()
            .map(|&key| match key {
                BufKey::Src { set, arr } => self.src[set][arr],
                BufKey::Dst { set, arr } => self.dst[set][arr],
                BufKey::X => self.x,
            })
            .collect()
    }
}

/// Result of a pipelined multi-batch solve ([`SolveSession::solve_pipelined`]).
#[derive(Debug, Clone)]
pub struct PipelinedOutcome<T: Scalar> {
    /// Per-batch solutions, bit-identical to one [`SolveSession::solve`]
    /// per batch.
    pub xs: Vec<Vec<T>>,
    /// Wall-clock simulated seconds of the scheduled region, overlap
    /// included.
    pub wall_s: f64,
    /// Serialized simulated seconds: the same ops back-to-back with no
    /// overlap — exactly the single-stream (staged) wall-clock.
    pub serial_s: f64,
    /// `1 − wall/serial`, clamped to `[0, 1]`; 0 means no overlap.
    pub overlap_ratio: f64,
    /// The plan every batch executed.
    pub plan: SolvePlan,
    /// The certified schedule that was executed.
    pub schedule: Schedule,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BaseVariant;
    use crate::schedule::lower_schedule;
    use crate::solver::solve_batch_on_gpu;
    use crate::StageOp;
    use trisolve_gpu_sim::{DeviceSpec, FaultPlan};
    use trisolve_obs::Tracer;
    use trisolve_tridiag::norms::batch_worst_relative_residual;
    use trisolve_tridiag::workloads::random_dominant;

    fn params(p1: usize, s3: usize, t4: usize) -> SolverParams {
        SolverParams {
            stage1_target_systems: p1,
            onchip_size: s3,
            thomas_switch: t4,
            variant: BaseVariant::Strided,
        }
    }

    #[test]
    fn pipelined_solve_is_bit_identical_to_sync_and_overlaps() {
        let shape = WorkloadShape::new(8, 2048);
        let p = params(16, 512, 64);
        let batches: Vec<_> = (0..3)
            .map(|s| random_dominant::<f32>(shape, 100 + s).unwrap())
            .collect();

        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        let sync: Vec<_> = batches
            .iter()
            .map(|b| session.solve(&mut gpu, b, &p).unwrap().x)
            .collect();

        let mut gpu2: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut session2 = SolveSession::new(&mut gpu2, shape).unwrap();
        let out = session2.solve_pipelined(&mut gpu2, &batches, &p).unwrap();
        assert_eq!(out.xs.len(), 3);
        for (k, x) in out.xs.iter().enumerate() {
            let bits_sync: Vec<u32> = sync[k].iter().map(|v| v.to_bits()).collect();
            let bits_pipe: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_sync, bits_pipe, "batch {k} diverged");
        }
        // With ≥2 batches, stream 1's transfers overlap stream 0's compute.
        assert!(out.wall_s < out.serial_s, "pipelined must beat staged");
        assert!(out.overlap_ratio > 0.0);
        assert!(session2.cached_plans() >= 1);
    }

    #[test]
    fn uncertified_schedule_rejected_before_any_launch() {
        let shape = WorkloadShape::new(4, 1024);
        let p = params(16, 512, 64);
        let batches: Vec<_> = (0..2)
            .map(|s| random_dominant::<f32>(shape, 7 + s).unwrap())
            .collect();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        let plan = session.plan_for(&p).unwrap().clone();
        let certified = lower_schedule(&plan, 2, 2);
        let mut schedule = certified.clone();
        for nd in &mut schedule.nodes {
            nd.waits.clear();
        }
        let before = gpu.elapsed_s();
        let err = session
            .solve_scheduled(&mut gpu, &batches, &p, schedule)
            .unwrap_err();
        assert!(matches!(err, CoreError::ScheduleRejected { .. }), "{err}");
        assert!(err.to_string().contains("happens-before"));
        assert_eq!(
            gpu.elapsed_s().to_bits(),
            before.to_bits(),
            "rejection must precede every launch"
        );
        assert!(gpu.stream_op_intervals().is_empty());
        // The unmutated lowering is admitted and runs.
        let ran = session.solve_scheduled(&mut gpu, &batches, &p, certified);
        assert!(ran.is_ok());
    }

    #[test]
    fn pipelined_interleaved_plan_is_bit_identical_too() {
        // The many-small stage-skip plan (interleave → batched Thomas →
        // deinterleave) through the pipeline, f64.
        let shape = WorkloadShape::new(512, 64);
        let p = SolverParams {
            stage1_target_systems: 16,
            onchip_size: 512,
            thomas_switch: 64,
            variant: BaseVariant::Interleaved,
        };
        let batches: Vec<_> = (0..2)
            .map(|s| random_dominant::<f64>(shape, 40 + s).unwrap())
            .collect();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        let sync: Vec<_> = batches
            .iter()
            .map(|b| session.solve(&mut gpu, b, &p).unwrap().x)
            .collect();
        let mut gpu2: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let mut session2 = SolveSession::new(&mut gpu2, shape).unwrap();
        let out = session2.solve_pipelined(&mut gpu2, &batches, &p).unwrap();
        assert!(out
            .plan
            .ops
            .iter()
            .any(|op| matches!(op, StageOp::InterleavedThomas { .. })));
        for (k, x) in out.xs.iter().enumerate() {
            let a: Vec<u64> = sync[k].iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b);
        }
        let resid = batch_worst_relative_residual(&batches[0], &out.xs[0]).unwrap();
        assert!(resid < 1e-8, "residual {resid}");
    }

    #[test]
    fn certified_pipelined_run_is_sanitizer_clean() {
        let shape = WorkloadShape::new(8, 1024);
        let p = params(16, 512, 64);
        let batches: Vec<_> = (0..3)
            .map(|s| random_dominant::<f32>(shape, 60 + s).unwrap())
            .collect();
        let mut gpu: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        session.solve_pipelined(&mut gpu, &batches, &p).unwrap();
        let report = gpu.take_sanitizer_report().unwrap();
        assert!(report.is_clean(), "{:?}", report.hazards);
    }

    #[test]
    fn racy_schedule_caught_by_dynamic_cross_stream_tracking() {
        // The static certifier's cross-stream-race verdict and the dynamic
        // sanitizer must agree: strip the x-ordering waits and the tracker
        // flags the same conflict at runtime.
        let shape = WorkloadShape::new(8, 1024);
        let p = params(16, 512, 64);
        let batches: Vec<_> = (0..2)
            .map(|s| random_dominant::<f32>(shape, 80 + s).unwrap())
            .collect();
        let mut gpu: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        let plan = session.plan_for(&p).unwrap().clone();
        let mut schedule = lower_schedule(&plan, 2, 2);
        for nd in &mut schedule.nodes {
            nd.waits.clear();
        }
        assert!(schedule
            .check()
            .iter()
            .any(|v| v.obligation == "cross-stream-write-race"));
        session
            .solve_scheduled_unchecked(&mut gpu, &batches, &p, schedule)
            .unwrap();
        let report = gpu.take_sanitizer_report().unwrap();
        assert!(
            report
                .hazards
                .iter()
                .any(|h| h.kind == trisolve_gpu_sim::HazardKind::CrossStreamRace),
            "dynamic tracker must catch the planted race"
        );
    }

    #[test]
    fn shared_plan_cache_replays_plans_bit_identically() {
        // Two tenants of one cache on the same device and shape: the
        // second must hit the published plan, skip building, and still
        // produce a bit-identical solve (plan construction is pure).
        let shape = WorkloadShape::new(8, 2048);
        let p = params(16, 512, 64);
        let batch = random_dominant::<f32>(shape, 11).unwrap();
        let cache = SharedPlanCache::new();

        let mut gpu_a: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut a = SolveSession::with_plan_cache(&mut gpu_a, shape, cache.clone()).unwrap();
        let out_a = a.solve(&mut gpu_a, &batch, &p).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);

        let mut gpu_b: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut b = SolveSession::with_plan_cache(&mut gpu_b, shape, cache.clone()).unwrap();
        let out_b = b.solve(&mut gpu_b, &batch, &p).unwrap();
        assert_eq!(cache.hits(), 1, "tenant B must reuse tenant A's plan");
        assert_eq!(out_a.x, out_b.x);
        assert_eq!(out_a.sim_time_s.to_bits(), out_b.sim_time_s.to_bits());

        // A private session solves identically too: sharing never
        // perturbs results.
        let mut gpu_c: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut c = SolveSession::new(&mut gpu_c, shape).unwrap();
        let out_c = c.solve(&mut gpu_c, &batch, &p).unwrap();
        assert_eq!(out_a.x, out_c.x);

        // Validation reports travel with the shared plan.
        assert!(b.validation_for(&p).is_some());
    }

    #[test]
    fn shared_plan_cache_keys_by_device_and_shape() {
        // Different devices (and shapes) must not collide in the shared
        // store: each publishes its own entry.
        let p = params(16, 512, 64);
        let cache = SharedPlanCache::new();
        for dev in [DeviceSpec::gtx_470(), DeviceSpec::gtx_280()] {
            let shape = WorkloadShape::new(4, 1024);
            let batch = random_dominant::<f32>(shape, 5).unwrap();
            let mut gpu: Gpu<f32> = Gpu::new(dev);
            let mut s = SolveSession::with_plan_cache(&mut gpu, shape, cache.clone()).unwrap();
            s.solve(&mut gpu, &batch, &p).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn stage_timeline_from_trace_agrees_with_from_outcome() {
        // A fig5-style batch (many small systems: stage2 + base) and a
        // full-pipeline workload (stage1 + stage2 + base).
        for shape in [WorkloadShape::new(1024, 1024), WorkloadShape::new(4, 8192)] {
            let p = params(16, 512, 64);
            let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
            let tracer = trisolve_obs::Tracer::enabled();
            gpu.set_tracer(tracer.clone());
            let batch = random_dominant::<f32>(shape, 7).unwrap();
            let mut session = SolveSession::new(&mut gpu, shape).unwrap();
            let outcome = session.solve(&mut gpu, &batch, &p).unwrap();

            let from_outcome = StageTimeline::from_outcome(&outcome);
            let from_trace = StageTimeline::from_trace(&tracer.events());
            assert_eq!(from_outcome.launches, from_trace.launches);
            assert_eq!(
                from_outcome.total_ms.to_bits(),
                from_trace.total_ms.to_bits()
            );
            // Entry-for-entry: same stages, in the same first-launch order,
            // with identical aggregates.
            assert_eq!(from_outcome.stages, from_trace.stages);
        }
    }

    #[test]
    fn engine_spans_cover_every_stage() {
        let shape = WorkloadShape::new(4, 8192);
        let p = params(16, 512, 64);
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let tracer = trisolve_obs::Tracer::enabled();
        gpu.set_tracer(tracer.clone());
        let batch = random_dominant::<f32>(shape, 11).unwrap();
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        session.solve(&mut gpu, &batch, &p).unwrap();

        let events = tracer.events();
        let engine_names: Vec<&str> = events
            .iter()
            .filter(|e| e.cat == "engine")
            .map(|e| e.name.as_str())
            .collect();
        assert!(engine_names.contains(&"session"));
        assert!(engine_names.contains(&"stage1"));
        assert!(engine_names.contains(&"stage2"));
        assert!(engine_names.contains(&"base"));
        let solve = events
            .iter()
            .find(|e| e.cat == "engine" && e.name == "solve")
            .expect("solve span");
        // 2 stage1 doublings (4 → 8 → 16 systems) + stage2 + base.
        assert_eq!(solve.arg_u64("launches"), Some(4));
        assert_eq!(solve.arg_u64("onchip_size"), Some(512));
    }

    #[test]
    fn interleaved_solve_reuses_session_buffers_and_spans_every_op() {
        // The stage-skip path must run inside the session's existing nine
        // buffers (pack into dst, solve into src-scratch — here alt[0] —
        // and deinterleave into x) and emit one engine span per op.
        let shape = WorkloadShape::new(2048, 64);
        let p = SolverParams {
            variant: BaseVariant::Interleaved,
            ..params(16, 256, 32)
        };
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let tracer = trisolve_obs::Tracer::enabled();
        gpu.set_tracer(tracer.clone());
        let batch = random_dominant::<f64>(shape, 13).unwrap();
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        let outcome = session.solve(&mut gpu, &batch, &p).unwrap();

        assert_eq!(outcome.plan.num_launches(), 3);
        let res = batch_worst_relative_residual(&batch, &outcome.x).unwrap();
        assert!(res < 1e-10, "residual {res:.3e}");

        let events = tracer.events();
        let engine_names: Vec<&str> = events
            .iter()
            .filter(|e| e.cat == "engine")
            .map(|e| e.name.as_str())
            .collect();
        for stage in ["interleave", "ithomas", "deinterleave"] {
            assert!(engine_names.contains(&stage), "missing span {stage}");
        }

        // Same answer as the staged pipeline (up to solver round-off).
        let staged = session
            .solve(&mut gpu, &batch, &params(16, 256, 32))
            .unwrap();
        for (u, v) in outcome.x.iter().zip(&staged.x) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn session_reuse_is_bit_identical_to_one_shot() {
        let shape = WorkloadShape::new(4, 1500); // padding path: np = 2048
        let p = params(16, 256, 32);
        let mut session_gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let mut session = SolveSession::new(&mut session_gpu, shape).unwrap();
        for seed in [1, 2, 3] {
            let batch = random_dominant::<f64>(shape, seed).unwrap();
            let from_session = session.solve(&mut session_gpu, &batch, &p).unwrap();
            let mut fresh: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
            let one_shot = solve_batch_on_gpu(&mut fresh, &batch, &p).unwrap();
            assert_eq!(from_session.x, one_shot.x, "seed {seed}");
            assert_eq!(from_session.sim_time_s, one_shot.sim_time_s);
            assert_eq!(from_session.kernel_stats.len(), one_shot.kernel_stats.len());
        }
    }

    /// The solve downloads its solution once, payload rows only, and a D2H
    /// fault stays what downloading the padded buffer and then cutting the
    /// padding made of it: the same draw over the padded buffer, the same
    /// fault record and trace, and a flip that reaches `x` only when it
    /// lands in a system's payload.
    #[test]
    fn one_copy_download_matches_download_then_unpad_under_d2h_faults() {
        let p = params(16, 256, 32);
        // The third shape's 1 MiB of f64 is copied in two halves, both ways.
        for (shape, padded, seeds) in [
            (WorkloadShape::new(4, 100), true, 48),
            (WorkloadShape::new(4, 128), false, 48),
            (WorkloadShape::new(2, 65_536), false, 4),
        ] {
            let (n, np) = (shape.system_size, shape.system_size.next_power_of_two());
            let (mut in_payload, mut in_padding) = (0, 0);
            for seed in 0..seeds {
                let batch = random_dominant::<f64>(shape, seed).unwrap();
                let run = |one_copy: bool| {
                    // Every transfer flips a bit: the four uploads and the
                    // download draw in the same order on both paths.
                    let plan = FaultPlan::seeded(seed).with_transfer_corruption(1.0);
                    let mut gpu: Gpu<f64> = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
                    gpu.set_tracer(Tracer::enabled());
                    let mut session = SolveSession::new(&mut gpu, shape).unwrap();
                    let x = if one_copy {
                        session.solve(&mut gpu, &batch, &p).map(|o| o.x)
                    } else {
                        session.measure(&mut gpu, &batch, &p).and_then(|_| {
                            let x_padded = gpu.download(session.ws.x.id())?;
                            Ok(x_padded.chunks(np).flat_map(|r| r[..n].to_vec()).collect())
                        })
                    };
                    let bits = x.map(|x| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                    // The outer span is named after the entry point; the
                    // rest of the trace must match event for event.
                    let events: Vec<String> = gpu
                        .tracer()
                        .events()
                        .iter()
                        .filter(|e| {
                            !(e.cat == "engine" && (e.name == "solve" || e.name == "measure"))
                        })
                        .map(|e| format!("{} {} {} {:?}", e.cat, e.name, e.ts_us, e.args))
                        .collect();
                    (
                        bits.map_err(|e| e.to_string()),
                        gpu.take_fault_log(),
                        events,
                    )
                };
                let (one, two) = (run(true), run(false));
                assert_eq!(one, two, "{shape:?} seed {seed}");
                let (Ok(_), Some(log), _) = &one else {
                    continue;
                };
                let d2h = log
                    .records
                    .iter()
                    .find(|r| r.site == "d2h")
                    .expect("d2h flip");
                let index: usize = d2h.detail.rsplit(' ').next().unwrap().parse().unwrap();
                if index % np < n {
                    in_payload += 1;
                } else {
                    in_padding += 1;
                }
            }
            assert!(in_payload > 0, "{shape:?}: no flip landed in a payload");
            assert_eq!(in_padding > 0, padded, "{shape:?}: flips in the padding");
        }
    }

    #[test]
    fn session_caches_plans_per_parameter_point() {
        let shape = WorkloadShape::new(8, 1024);
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        let batch = random_dominant::<f64>(shape, 9).unwrap();
        let p1 = params(16, 256, 32);
        let p2 = params(16, 512, 64);
        session.solve(&mut gpu, &batch, &p1).unwrap();
        session.solve(&mut gpu, &batch, &p1).unwrap();
        assert_eq!(session.cached_plans(), 1);
        let t = session.measure(&mut gpu, &batch, &p2).unwrap();
        assert_eq!(session.cached_plans(), 2);
        let out = session.solve(&mut gpu, &batch, &p2).unwrap();
        assert!(batch_worst_relative_residual(&batch, &out.x).unwrap() < 1e-9);
        assert_eq!(t, out.sim_time_s, "deterministic simulation");
    }

    #[test]
    fn session_buffers_free_on_drop() {
        let shape = WorkloadShape::new(4, 512);
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        {
            let _session = SolveSession::<f64>::new(&mut gpu, shape).unwrap();
            // 9 buffers of m*np elements.
            assert_eq!(gpu.allocated_bytes(), 9 * 4 * 512 * 8);
        }
        assert_eq!(gpu.allocated_bytes(), 0);
    }

    #[test]
    fn session_rejects_mismatched_batch() {
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let mut session = SolveSession::new(&mut gpu, WorkloadShape::new(4, 512)).unwrap();
        let batch = random_dominant::<f64>(WorkloadShape::new(2, 512), 1).unwrap();
        let err = session.solve(&mut gpu, &batch, &params(16, 256, 32));
        assert!(matches!(err, Err(CoreError::BadParams { .. })));
    }

    #[test]
    fn stage_timeline_aggregates_by_stage_in_order() {
        // 2 systems of 8192 with these params: 3 stage-1 launches, 1
        // stage-2 launch, 1 base launch.
        let shape = WorkloadShape::new(2, 8192);
        let p = params(16, 512, 64);
        let batch = random_dominant::<f64>(shape, 3).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let out = solve_batch_on_gpu(&mut gpu, &batch, &p).unwrap();
        let tl = StageTimeline::from_outcome(&out);
        assert_eq!(tl.launches, 5);
        let names: Vec<&str> = tl.stages.iter().map(|e| e.stage.as_str()).collect();
        assert_eq!(names, ["stage1", "stage2", "base"]);
        assert_eq!(tl.stages[0].launches, 3);
        assert_eq!(tl.stages[1].launches, 1);
        assert_eq!(tl.stages[2].launches, 1);
        // The aggregate must preserve the reported simulated time exactly
        // (same sum the solver reports).
        assert!((tl.total_ms - out.sim_time_ms()).abs() < 1e-12);
        let stage_sum: f64 = tl.stages.iter().map(|e| e.sim_time_ms).sum();
        assert!((stage_sum - tl.total_ms).abs() < 1e-12);
        for e in &tl.stages {
            assert!(e.gmem_payload_mib > 0.0);
            assert!(e.mean_warps_per_sm > 0.0);
            assert!((e.exec_time_ms + e.overhead_ms - e.sim_time_ms).abs() < 1e-12);
        }
        assert!(tl.render_table().contains("stage1"));
    }
}
