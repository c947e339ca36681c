//! The snapshot harness as a library: per-device, per-workload
//! measurements for all three tuners with trace-derived counters,
//! latency percentiles, and roofline attribution.
//!
//! The `snapshot` bin is a thin wrapper around [`snapshot_doc`];
//! [`measure_workload`] is the shared per-(device, workload) primitive
//! the bench-regression gate (`crate::regress`) re-runs against a
//! committed baseline, so the gate measures exactly what the snapshot
//! recorded. Simulated metrics are fully deterministic (fixed seed,
//! simulated clock); the `*_wall_ms` fields are host wall-clock readings
//! and vary run to run — they are reported for tracking, never gated.

use std::collections::BTreeMap;
use std::time::Instant;

use trisolve_analyze::certify_plan;
use trisolve_autotune::{DefaultTuner, DynamicTuner, Microbench, StaticTuner, Tuner};
use trisolve_core::engine::SolveSession;
use trisolve_core::{ResiliencePolicy, SolvePlan};
use trisolve_gpu_sim::{DeviceSpec, Gpu};
use trisolve_obs::roofline::{DevicePeaks, LimiterVerdict, RooflineSample};
use trisolve_obs::{Histogram, MetricsRegistry, Phase, TraceEvent, Tracer};
use trisolve_tridiag::workloads::{random_dominant, WorkloadClass, WorkloadShape};
use trisolve_tridiag::SystemBatch;

use crate::alloc::{self, AllocCounts};
use crate::experiments;

/// Per-kernel-family observability rollup of one traced run: launch
/// latencies (exactly mergeable across runs), roofline inputs, and the
/// re-derived limiter verdicts checked against the simulator's own.
#[derive(Debug, Clone)]
pub struct FamilyObs {
    /// Kernel family (label up to the first `[`).
    pub family: String,
    /// Launches observed.
    pub launches: u64,
    /// Total simulated milliseconds.
    pub total_ms: f64,
    /// Per-launch simulated-ms histogram.
    pub hist_ms: Histogram,
    /// Total DRAM transaction bytes across launches.
    pub txn_bytes: f64,
    /// Total thread-level arithmetic ops across launches.
    pub thread_ops: f64,
    /// Total execution seconds (excluding launch overhead).
    pub exec_s: f64,
    /// Launch counts per re-derived verdict:
    /// `[bandwidth, occupancy, latency]`.
    pub verdicts: [u64; 3],
    /// Launches whose span carried roofline args.
    pub roofline_launches: u64,
    /// Of those, launches where the re-derived verdict matched the
    /// simulator's `limited_by`.
    pub agreed: u64,
}

impl FamilyObs {
    fn new(family: String) -> Self {
        Self {
            family,
            launches: 0,
            total_ms: 0.0,
            hist_ms: Histogram::new(),
            txn_bytes: 0.0,
            thread_ops: 0.0,
            exec_s: 0.0,
            verdicts: [0; 3],
            roofline_launches: 0,
            agreed: 0,
        }
    }

    /// Fold another rollup of the same family into this one.
    pub fn merge(&mut self, other: &FamilyObs) {
        self.launches += other.launches;
        self.total_ms += other.total_ms;
        self.hist_ms.merge(&other.hist_ms);
        self.txn_bytes += other.txn_bytes;
        self.thread_ops += other.thread_ops;
        self.exec_s += other.exec_s;
        for (mine, theirs) in self.verdicts.iter_mut().zip(other.verdicts) {
            *mine += theirs;
        }
        self.roofline_launches += other.roofline_launches;
        self.agreed += other.agreed;
    }

    /// Dominant limiter verdict by launch count (bandwidth wins ties).
    pub fn dominant_verdict(&self) -> Option<LimiterVerdict> {
        let [bw, occ, lat] = self.verdicts;
        if bw + occ + lat == 0 {
            None
        } else if bw >= occ && bw >= lat {
            Some(LimiterVerdict::BandwidthBound)
        } else if occ >= lat {
            Some(LimiterVerdict::OccupancyBound)
        } else {
            Some(LimiterVerdict::LatencyBound)
        }
    }

    /// Achieved DRAM bandwidth in GB/s over the family's execution time.
    pub fn achieved_gbps(&self) -> f64 {
        if self.exec_s > 0.0 {
            self.txn_bytes / self.exec_s / 1e9
        } else {
            0.0
        }
    }

    /// Arithmetic intensity in ops per DRAM byte (1-byte floor).
    pub fn arithmetic_intensity(&self) -> f64 {
        self.thread_ops / self.txn_bytes.max(1.0)
    }

    /// True when every roofline-carrying launch agreed with the
    /// simulator's limiter.
    pub fn agreement_ok(&self) -> bool {
        self.agreed == self.roofline_launches
    }
}

/// Roll a trace's kernel-launch spans up per family, re-deriving the
/// limiter verdict of every launch from its roofline args and checking
/// it against the simulator's own `limited_by`.
pub fn family_obs_from_events(events: &[TraceEvent]) -> Vec<FamilyObs> {
    let mut map: BTreeMap<String, FamilyObs> = BTreeMap::new();
    for ev in events {
        if ev.cat != "gpu" || ev.phase != Phase::Span || ev.name == "h2d" || ev.name == "d2h" {
            continue;
        }
        let family = ev.family().to_string();
        let obs = map
            .entry(family.clone())
            .or_insert_with(|| FamilyObs::new(family));
        let ms = ev.dur_us / 1e3;
        obs.launches += 1;
        obs.total_ms += ms;
        obs.hist_ms.record(ms);
        if let Some(sample) = RooflineSample::from_span(ev) {
            obs.txn_bytes += sample.txn_bytes;
            obs.thread_ops += sample.thread_ops;
            obs.exec_s += sample.exec_s;
            match sample.verdict {
                LimiterVerdict::BandwidthBound => obs.verdicts[0] += 1,
                LimiterVerdict::OccupancyBound => obs.verdicts[1] += 1,
                LimiterVerdict::LatencyBound => obs.verdicts[2] += 1,
            }
            obs.roofline_launches += 1;
            if sample.agrees_with_sim() {
                obs.agreed += 1;
            }
        }
    }
    map.into_values().collect()
}

/// [`DevicePeaks`] of a simulated device, for peak-relative roofline
/// numbers (`obs` cannot see `DeviceSpec`; this crate can).
pub fn device_peaks(dev: &DeviceSpec) -> DevicePeaks {
    let h = dev.hidden();
    DevicePeaks {
        mem_bandwidth_gbps: h.mem_bandwidth_gbps,
        achievable_fraction: h.achievable_bw_fraction,
    }
}

/// Everything [`measure_workload`] records for one (device, workload)
/// point.
#[derive(Debug, Clone)]
pub struct WorkloadRecord {
    /// The measured workload shape.
    pub shape: WorkloadShape,
    /// Simulated ms with the untuned default parameters.
    pub untuned_ms: f64,
    /// Simulated ms with the static (queryable-props) tuner.
    pub static_ms: f64,
    /// Simulated ms of the dynamically tuned, resilient solve.
    pub dynamic_ms: f64,
    /// Simulated wall ms of a three-batch pipelined solve through the
    /// certified two-stream schedule (statically tuned parameters).
    pub pipelined_ms: f64,
    /// The same three batches' ops serialized back-to-back — exactly the
    /// staged single-stream baseline the pipelined run must not lose to.
    pub pipelined_staged_ms: f64,
    /// `1 − pipelined/staged`, clamped to `[0, 1]`: the fraction of the
    /// staged time the stream overlap hid.
    pub overlap_ratio: f64,
    /// Host wall-clock ms spent measuring the untuned solve.
    pub untuned_wall_ms: f64,
    /// Host wall-clock ms spent measuring the static solve.
    pub static_wall_ms: f64,
    /// Host wall-clock ms spent on dynamic tuning plus the tuned solve.
    pub dynamic_wall_ms: f64,
    /// Heap allocations of the tuned solve (session and resilient solve,
    /// as `dynamic_ms` measures it); `None` when the process does not
    /// count allocations ([`crate::alloc`]).
    pub host_allocs: Option<AllocCounts>,
    /// Micro-benchmark evaluations the dynamic tuner performed.
    pub tuner_evaluations: usize,
    /// `tuner_evals` counter from the trace (must agree).
    pub traced_tuner_evals: u64,
    /// Kernel launches belonging to the tuned solve itself.
    pub solve_launches: usize,
    /// All launches, tuning included.
    pub total_launches: u64,
    /// Global-memory payload bytes across the traced run.
    pub gmem_payload_bytes: u64,
    /// Tuner candidates pruned by the static analyzer.
    pub candidates_pruned: u64,
    /// Static proof obligations failed across pruned candidates.
    pub proofs_failed: u64,
    /// How the resilient solve completed (`"none"` on a clean run).
    pub recovered_by: String,
    /// Faults injected by the fault layer.
    pub faults_injected: u64,
    /// Resilience retries.
    pub retries: u64,
    /// Resilience fallbacks.
    pub fallbacks: u64,
    /// Residual verifications.
    pub residual_checks: u64,
    /// Per-family observability rollups (tuning + solve launches).
    pub families: Vec<FamilyObs>,
    /// Latency histograms recorded during the traced run (kernel
    /// families, stages, solve/measure, tuner evals).
    pub registry: MetricsRegistry,
}

impl WorkloadRecord {
    /// True when the re-derived limiter verdict agreed with the
    /// simulator's on every roofline-carrying launch.
    pub fn roofline_agreement(&self) -> bool {
        self.families.iter().all(FamilyObs::agreement_ok)
    }
}

/// Measure one (device, workload) point exactly as the snapshot records
/// it: untuned and static solves on fresh devices, then dynamic tuning
/// plus a resilient tuned solve on one traced device.
pub fn measure_workload(dev: &DeviceSpec, shape: WorkloadShape) -> WorkloadRecord {
    let q = dev.queryable().clone();
    let batch: SystemBatch<f32> = random_dominant(shape, experiments::EXPERIMENT_SEED).unwrap();

    let clamp = |t: &dyn Tuner| {
        let p = t.params_for(shape, &q, 4);
        trisolve_autotune::tuners::clamp_to_device(p, &q, 4)
    };
    let wall = Instant::now();
    let untuned_ms = experiments::solve_ms(dev, &batch, &clamp(&DefaultTuner));
    let untuned_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let wall = Instant::now();
    let static_ms = experiments::solve_ms(dev, &batch, &clamp(&StaticTuner));
    let static_wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    // The dynamic path runs traced end to end — tuning and the tuned
    // solve on the same gpu — so the record reports the search cost and
    // the solve's launch/byte counters straight from the trace.
    let wall = Instant::now();
    let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
    gpu.set_tracer(Tracer::enabled());
    let mut tuner = DynamicTuner::new();
    let cfg = tuner.tune_for(&mut gpu, shape);
    let params = clamp(&tuner);
    let solve_begin_us = gpu.tracer().clock_us();
    // The tuned solve goes through the resilient pipeline so the record
    // carries the recovery counters (all zero on a clean run — no fault
    // plan is armed here; with no faults the resilient path is
    // bit-identical to the plain solve).
    let policy = ResiliencePolicy::for_elem_bytes(4);
    let mut recovered_by = String::from("unrecovered");
    let (dynamic_ms, host_allocs) = alloc::counting(|| match SolveSession::new(&mut gpu, shape) {
        Ok(mut session) => session
            .solve_resilient(&mut gpu, &batch, &params, &policy)
            .map_or(f64::INFINITY, |r| {
                recovered_by = r.recovered_by.to_string();
                r.outcome.sim_time_ms()
            }),
        Err(_) => f64::INFINITY,
    });
    let dynamic_wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    // The pipelined point: three batches through the certified two-stream
    // schedule with the statically tuned parameters. The staged baseline
    // is the same run's serialized interval time — on one stream the ops
    // chain back-to-back, so `serial_s` *is* the staged wall-clock.
    let pipelined_params = clamp(&StaticTuner);
    let pipelined_batches: Vec<SystemBatch<f32>> = (0..3)
        .map(|i: u64| random_dominant(shape, experiments::EXPERIMENT_SEED + 1 + i).unwrap())
        .collect();
    let mut pipe_gpu: Gpu<f32> = Gpu::new(dev.clone());
    let (pipelined_ms, pipelined_staged_ms, overlap_ratio) =
        match SolveSession::new(&mut pipe_gpu, shape) {
            Ok(mut session) => session
                .solve_pipelined(&mut pipe_gpu, &pipelined_batches, &pipelined_params)
                .map_or((f64::INFINITY, f64::INFINITY, 0.0), |o| {
                    (o.wall_s * 1e3, o.serial_s * 1e3, o.overlap_ratio)
                }),
            Err(_) => (f64::INFINITY, f64::INFINITY, 0.0),
        };

    let counter = |name: &str| {
        gpu.tracer()
            .counters()
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    };
    let events = gpu.tracer().events();
    // Launches after `solve_begin_us` belong to the tuned solve;
    // everything before is the tuner's micro-benchmarks.
    let solve_launches = events
        .iter()
        .filter(|e| e.cat == "gpu" && e.phase == Phase::Span && e.ts_us >= solve_begin_us)
        .count();
    let families = family_obs_from_events(&events);
    let registry = gpu.tracer().registry().cloned().unwrap_or_default();

    WorkloadRecord {
        shape,
        untuned_ms,
        static_ms,
        dynamic_ms,
        pipelined_ms,
        pipelined_staged_ms,
        overlap_ratio,
        untuned_wall_ms,
        static_wall_ms,
        dynamic_wall_ms,
        host_allocs,
        tuner_evaluations: cfg.evaluations,
        traced_tuner_evals: counter("tuner_evals"),
        solve_launches,
        total_launches: counter("launches"),
        gmem_payload_bytes: counter("gmem_payload_bytes"),
        candidates_pruned: counter("candidates_pruned"),
        proofs_failed: counter("proofs_failed"),
        recovered_by,
        faults_injected: counter("faults_injected"),
        retries: counter("retries"),
        fallbacks: counter("fallbacks"),
        residual_checks: counter("residual_checks"),
        families,
        registry,
    }
}

/// Render one record as the snapshot's per-workload JSON row.
pub fn workload_json(rec: &WorkloadRecord, peaks: &DevicePeaks) -> serde_json::Value {
    let percentiles: Vec<(String, serde_json::Value)> = rec
        .registry
        .histograms()
        .into_iter()
        .map(|(name, h)| {
            let p = h.percentiles();
            (
                name,
                serde_json::json!({
                    "count": h.count(),
                    "p50_ms": p.p50,
                    "p90_ms": p.p90,
                    "p99_ms": p.p99,
                    "p999_ms": p.p999,
                    "max_ms": h.max(),
                }),
            )
        })
        .collect();
    let roofline: Vec<(String, serde_json::Value)> = rec
        .families
        .iter()
        .map(|f| {
            (
                f.family.clone(),
                serde_json::json!({
                    "launches": f.launches,
                    "achieved_gbps": f.achieved_gbps(),
                    "peak_fraction": peaks.fraction_of_peak(f.achieved_gbps()),
                    "arithmetic_intensity": f.arithmetic_intensity(),
                    "verdict": f.dominant_verdict().map(LimiterVerdict::as_str),
                    "agreement": f.agreement_ok(),
                }),
            )
        })
        .collect();
    serde_json::json!({
        "workload": rec.shape.label(),
        "systems": rec.shape.num_systems,
        "size": rec.shape.system_size,
        "untuned_ms": rec.untuned_ms,
        "static_ms": rec.static_ms,
        "dynamic_ms": rec.dynamic_ms,
        "pipelined_ms": rec.pipelined_ms,
        "pipelined_staged_ms": rec.pipelined_staged_ms,
        "overlap_ratio": rec.overlap_ratio,
        "untuned_wall_ms": rec.untuned_wall_ms,
        "static_wall_ms": rec.static_wall_ms,
        "dynamic_wall_ms": rec.dynamic_wall_ms,
        "host_allocs": rec.host_allocs.map(|c| c.allocs),
        "host_alloc_bytes": rec.host_allocs.map(|c| c.bytes),
        "tuner_evaluations": rec.tuner_evaluations,
        "traced_tuner_evals": rec.traced_tuner_evals,
        "solve_launches": rec.solve_launches,
        "total_launches": rec.total_launches,
        "gmem_payload_bytes": rec.gmem_payload_bytes,
        "candidates_pruned": rec.candidates_pruned,
        "proofs_failed": rec.proofs_failed,
        "recovered_by": rec.recovered_by,
        "faults_injected": rec.faults_injected,
        "retries": rec.retries,
        "fallbacks": rec.fallbacks,
        "residual_checks": rec.residual_checks,
        "percentiles": serde_json::Value::Object(percentiles),
        "roofline": serde_json::Value::Object(roofline),
        "roofline_agreement": rec.roofline_agreement(),
    })
}

/// The stability-gate demonstration: run the dynamic tuner twice on a
/// many-small shape — ungated, then gated with a moderately
/// ill-conditioned workload class — and record the layout each run picks
/// plus the gate's counters. The interleaved batched-Thomas plan runs one
/// long serial recurrence per system, so its certified f32 bound blows
/// through the safety threshold at this conditioning while the staged PCR
/// ladder's stays within it: the gate flips the layout choice. A second,
/// static probe shows the f32 → f64 precision recommendation for the
/// chaos campaign's stress class.
pub fn stability_section(dev: &DeviceSpec, many_small_grid: &[WorkloadShape]) -> serde_json::Value {
    let q = dev.queryable().clone();
    let gate_class = WorkloadClass::IllConditioned { margin: 0.1 };

    // Ungated: the layout probe measures the interleaved fast path on the
    // simulated clock and takes the winner. Demonstrate the gate on the
    // first shape where the ungated tuner actually picks interleaved —
    // the regime the gate has a decision to flip.
    let fallback = many_small_grid
        .first()
        .copied()
        .unwrap_or_else(|| WorkloadShape::new(65536, 64));
    let mut shape = fallback;
    let mut ungated_layout = None;
    for &s in many_small_grid {
        let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
        let cfg = DynamicTuner::new().tune_for(&mut gpu, s);
        let v = cfg.params_for(s).variant;
        if ungated_layout.is_none() {
            (shape, ungated_layout) = (s, Some(v));
        }
        if v == trisolve_core::BaseVariant::Interleaved {
            (shape, ungated_layout) = (s, Some(v));
            break;
        }
    }
    let ungated_layout = ungated_layout.unwrap_or(trisolve_core::BaseVariant::Strided);

    // Gated: every f32 candidate must carry a stability certificate for
    // the declared class; refused candidates are priced +inf.
    let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
    let mut mb: Microbench<f32> = Microbench::new().with_stability_class(gate_class);
    let gated_cfg = DynamicTuner::new().tune_for_with(&mut gpu, shape, &mut mb);
    let gated_layout = gated_cfg.params_for(shape).variant;

    // The f32 → f64 recommendation for the chaos campaign's stress class
    // on this device's statically tuned staged plan.
    let stress = WorkloadClass::IllConditioned { margin: 1e-3 };
    let stress_shape = WorkloadShape::new(1, 1 << 21);
    let probe = |eb: usize| {
        let params = trisolve_autotune::tuners::clamp_to_device(
            StaticTuner.params_for(stress_shape, &q, eb),
            &q,
            eb,
        );
        SolvePlan::build(stress_shape, &params, &q, eb)
            .map(|plan| certify_plan(&plan, stress, eb))
            .ok()
    };
    let precision_probe = match (probe(4), probe(8)) {
        (Some(f32_cert), Some(f64_cert)) => serde_json::json!({
            "class": stress.label(),
            "margin": 1e-3,
            "workload": stress_shape.label(),
            "f32_bound_rel": f32_cert.bound_rel,
            "f64_bound_rel": f64_cert.bound_rel,
            "f32_precision_safe": f32_cert.precision_safe(),
            "f64_precision_safe": f64_cert.precision_safe(),
            "precision_downgrade_recommended": f32_cert.precision_downgrade_recommended(),
        }),
        _ => serde_json::json!(null),
    };

    serde_json::json!({
        "gate_class": gate_class.label(),
        "gate_margin": 0.1,
        "workload": shape.label(),
        "ungated_layout": ungated_layout.layout_name(),
        "gated_layout": gated_layout.layout_name(),
        "layout_flipped": ungated_layout != gated_layout,
        "stability_certified": mb.stability_certified,
        "stability_refuted": mb.stability_refuted,
        "precision_downgraded": mb.precision_downgraded,
        "precision_probe": precision_probe,
    })
}

/// Build the full snapshot document: per-device workload rows (with
/// percentiles and roofline sections), the many-small layout comparison,
/// and the stability-gate demonstration.
pub fn snapshot_doc(quick: bool) -> serde_json::Value {
    let shrink = if quick { 4 } else { 1 };
    let grid = WorkloadShape::shrunk_paper_grid(shrink);
    let many_small_grid = WorkloadShape::shrunk_many_small_grid(shrink);

    let mut devices = Vec::new();
    let mut pipelined_beats_staged = false;
    for dev in DeviceSpec::paper_devices() {
        let peaks = device_peaks(&dev);
        let records: Vec<WorkloadRecord> = grid
            .iter()
            .map(|&shape| measure_workload(&dev, shape))
            .collect();
        pipelined_beats_staged |= records
            .iter()
            .any(|r| r.pipelined_ms.is_finite() && r.pipelined_ms < r.pipelined_staged_ms);
        let workloads: Vec<serde_json::Value> = records
            .iter()
            .map(|rec| workload_json(rec, &peaks))
            .collect();
        // The many-small regime: staged PCR vs the interleaved
        // batched-Thomas fast path, and the layout every tuner picks.
        let many_small: Vec<_> = experiments::many_small_comparison(&dev, &many_small_grid)
            .iter()
            .map(|r| {
                serde_json::json!({
                    "workload": r.shape.label(),
                    "systems": r.shape.num_systems,
                    "size": r.shape.system_size,
                    "staged_pcr_ms": r.staged_pcr_ms,
                    "batched_thomas_ms": r.batched_thomas_ms,
                    "interleaved_wins": r.interleaved_wins(),
                    "untuned_layout": r.untuned_variant.layout_name(),
                    "static_layout": r.static_variant.layout_name(),
                    "dynamic_layout": r.dynamic_variant.layout_name(),
                })
            })
            .collect();

        devices.push(serde_json::json!({
            "device": dev.queryable().name,
            "workloads": workloads,
            "many_small": many_small,
            "stability": stability_section(&dev, &many_small_grid),
        }));
    }

    // The service-level campaign: same fixed spec in quick and full mode
    // (service counters are only comparable across commits when the
    // offered load is identical).
    let service = crate::service::measure_service(&crate::service::service_profile());

    serde_json::json!({
        "snapshot": "trisolve-bench",
        "seed": experiments::EXPERIMENT_SEED,
        "quick": quick,
        "precision": "f32",
        "pipelined_beats_staged": pipelined_beats_staged,
        "devices": devices,
        "service": crate::service::service_json(&service),
    })
}
