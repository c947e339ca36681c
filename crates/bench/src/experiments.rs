//! One function per table/figure of the paper's evaluation (§V).
//!
//! All experiments run in **single precision** (the paper's primary
//! precision) on the simulated devices of Table I. Times are simulated
//! milliseconds; the shapes — orderings, crossovers, ratios — are the
//! reproduction targets (see EXPERIMENTS.md).

use trisolve_autotune::{DefaultTuner, DynamicTuner, StaticTuner, Tuner};
use trisolve_core::engine::{Backend, GpuBackend, StageTimeline};
use trisolve_core::kernels::GpuScalar;
use trisolve_core::{solver, SolveOutcome, SolverParams};
use trisolve_gpu_sim::{CpuSpec, DeviceSpec, Gpu};
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};
use trisolve_tridiag::SystemBatch;

/// Seed for every experiment workload (reproducibility).
pub const EXPERIMENT_SEED: u64 = 2011;

/// Measure one configuration on one device, returning simulated
/// milliseconds (`+inf` if the configuration cannot run).
pub fn solve_ms<T: GpuScalar>(
    device: &DeviceSpec,
    batch: &SystemBatch<T>,
    params: &SolverParams,
) -> f64 {
    let mut gpu: Gpu<T> = Gpu::new(device.clone());
    match solver::measure_solve_time(&mut gpu, batch, params) {
        Ok(t) => t * 1e3,
        Err(_) => f64::INFINITY,
    }
}

/// Solve one configuration on one device through the [`GpuBackend`] engine,
/// returning the full outcome (`None` if the configuration cannot run).
pub fn solve_outcome<T: GpuScalar>(
    device: &DeviceSpec,
    batch: &SystemBatch<T>,
    params: &SolverParams,
) -> Option<SolveOutcome<T>> {
    let mut gpu: Gpu<T> = Gpu::new(device.clone());
    let shape = WorkloadShape::new(batch.num_systems, batch.system_size);
    let mut backend = GpuBackend::new(&mut gpu);
    let mut session = backend.prepare(shape, params).ok()?;
    backend.solve(&mut session, batch, params).ok()
}

/// The per-stage [`StageTimeline`] of one configuration on one device
/// (`None` if the configuration cannot run).
pub fn stage_timeline<T: GpuScalar>(
    device: &DeviceSpec,
    batch: &SystemBatch<T>,
    params: &SolverParams,
) -> Option<StageTimeline> {
    solve_outcome(device, batch, params).map(|o| StageTimeline::from_outcome(&o))
}

/// Chrome trace-event JSON of one traced solve on one device (`None` if
/// the configuration cannot run) — the `--trace` flag of the figure
/// binaries. Loads in Perfetto / `chrome://tracing`.
pub fn traced_chrome_trace<T: GpuScalar>(
    device: &DeviceSpec,
    batch: &SystemBatch<T>,
    params: &SolverParams,
) -> Option<String> {
    let mut gpu: Gpu<T> = Gpu::new(device.clone());
    gpu.set_tracer(trisolve_obs::Tracer::enabled());
    let shape = WorkloadShape::new(batch.num_systems, batch.system_size);
    {
        let mut backend = GpuBackend::new(&mut gpu);
        let mut session = backend.prepare(shape, params).ok()?;
        backend.solve(&mut session, batch, params).ok()?;
    }
    let tracer = gpu.tracer();
    Some(trisolve_obs::chrome_trace(
        &tracer.events(),
        &tracer.counters(),
    ))
}

// ---------------------------------------------------------------------------
// Figure 5: stage-2 -> stage-3 switch point sweep
// ---------------------------------------------------------------------------

/// One point of the Figure 5 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Candidate on-chip size (x-axis of Figure 5).
    pub onchip_size: usize,
    /// The Thomas switch re-tuned for this on-chip size (the paper re-tunes
    /// it per candidate).
    pub thomas_switch: usize,
    /// The better base-kernel memory layout at this point.
    pub variant: trisolve_core::BaseVariant,
    /// Simulated milliseconds.
    pub time_ms: f64,
    /// Performance relative to the best point (1.0 = best), the figure's
    /// y-axis.
    pub relative: f64,
}

/// Sweep the stage-2→3 switch point on one device (Figure 5).
///
/// Workload: `m` systems of `n` equations (the paper uses a machine-filling
/// batch of large systems). For every candidate on-chip size the Thomas
/// switch is re-tuned and the better memory-layout variant is taken.
pub fn fig5_sweep(device: &DeviceSpec, m: usize, n: usize) -> Vec<Fig5Point> {
    let shape = WorkloadShape::new(m, n);
    let batch: SystemBatch<f32> = random_dominant(shape, EXPERIMENT_SEED).unwrap();
    let max_onchip = SolverParams::max_onchip_size(device.queryable(), 4);

    let mut points = Vec::new();
    for s3 in [128usize, 256, 512, 1024] {
        if s3 > max_onchip || s3 > n {
            continue;
        }
        let (t4, variant, ms) = best_t4_and_time(device, &batch, s3);
        points.push(Fig5Point {
            onchip_size: s3,
            thomas_switch: t4,
            variant,
            time_ms: ms,
            relative: 0.0,
        });
    }
    let best = points
        .iter()
        .map(|p| p.time_ms)
        .fold(f64::INFINITY, f64::min);
    for p in &mut points {
        p.relative = best / p.time_ms;
    }
    points
}

/// For a fixed on-chip size, find the best (Thomas switch, variant) and
/// return it with the best time.
fn best_t4_and_time(
    device: &DeviceSpec,
    batch: &SystemBatch<f32>,
    s3: usize,
) -> (usize, trisolve_core::BaseVariant, f64) {
    use trisolve_core::BaseVariant;
    let mut best = (32usize, BaseVariant::Strided, f64::INFINITY);
    let mut t4 = 16usize;
    while t4 <= s3 {
        for variant in [BaseVariant::Strided, BaseVariant::Coalesced] {
            let p = SolverParams {
                stage1_target_systems: 16,
                onchip_size: s3,
                thomas_switch: t4,
                variant,
            };
            let ms = solve_ms(device, batch, &p);
            if ms < best.2 {
                best = (t4, variant, ms);
            }
        }
        t4 *= 2;
    }
    best
}

// ---------------------------------------------------------------------------
// Figure 6: stage-3 -> stage-4 switch point sweep
// ---------------------------------------------------------------------------

/// One point of the Figure 6 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    /// Subsystems handed to the Thomas phase (x-axis).
    pub thomas_switch: usize,
    /// Simulated milliseconds.
    pub time_ms: f64,
    /// Performance relative to the best point (y-axis).
    pub relative: f64,
}

/// Sweep the PCR→Thomas switch inside the base kernel (Figure 6).
///
/// Workload: a machine-filling batch of systems exactly the device's
/// on-chip size, so only the base kernel runs.
pub fn fig6_sweep(device: &DeviceSpec, systems_per_sm: usize) -> Vec<Fig6Point> {
    let n = SolverParams::max_onchip_size(device.queryable(), 4);
    let m = systems_per_sm * device.queryable().num_processors;
    let shape = WorkloadShape::new(m, n);
    let batch: SystemBatch<f32> = random_dominant(shape, EXPERIMENT_SEED).unwrap();

    let mut points = Vec::new();
    let mut t4 = 16usize;
    while t4 <= 512.min(n) {
        let p = SolverParams {
            stage1_target_systems: 16,
            onchip_size: n,
            thomas_switch: t4,
            variant: trisolve_core::BaseVariant::Strided,
        };
        points.push(Fig6Point {
            thomas_switch: t4,
            time_ms: solve_ms(device, &batch, &p),
            relative: 0.0,
        });
        t4 *= 2;
    }
    let best = points
        .iter()
        .map(|p| p.time_ms)
        .fold(f64::INFINITY, f64::min);
    for p in &mut points {
        p.relative = best / p.time_ms;
    }
    points
}

// ---------------------------------------------------------------------------
// Figure 7: untuned vs static vs dynamic over the workload grid
// ---------------------------------------------------------------------------

/// One cell of the Figure 7 grid.
#[derive(Debug, Clone)]
pub struct Fig7Cell {
    /// Device name.
    pub device: String,
    /// Workload shape.
    pub shape: WorkloadShape,
    /// Untuned (default parameters) time, ms — the numbers printed above
    /// the paper's bars.
    pub untuned_ms: f64,
    /// Statically tuned time, ms.
    pub static_ms: f64,
    /// Dynamically tuned time, ms.
    pub dynamic_ms: f64,
    /// Per-stage timeline of the dynamically tuned solve (`None` if the
    /// tuned configuration could not run).
    pub dynamic_timeline: Option<StageTimeline>,
}

/// Aggregates over the Figure 7 grid (the §V headline numbers).
#[derive(Debug, Clone, Copy)]
pub struct Fig7Summary {
    /// Mean runtime reduction of static vs untuned (paper: ~17 %).
    pub static_mean_improvement: f64,
    /// Mean runtime reduction of dynamic vs untuned (paper: ~32 %).
    pub dynamic_mean_improvement: f64,
    /// Maximum dynamic-vs-untuned speedup (paper: up to 5×).
    pub dynamic_max_speedup: f64,
    /// Maximum static-vs-untuned runtime reduction (paper: up to 60 %).
    pub static_max_improvement: f64,
}

/// Run the Figure 7 comparison for one device over a workload grid.
///
/// The dynamic tuner runs once per workload class ("at runtime", §IV-C/D)
/// and its result is reused; tuning cost is amortised exactly as the
/// paper's cached tuning results are, so only the tuned solve is timed.
pub fn fig7_device(device: &DeviceSpec, shapes: &[WorkloadShape]) -> Vec<Fig7Cell> {
    let q = device.queryable().clone();
    shapes
        .iter()
        .map(|&shape| {
            let batch: SystemBatch<f32> = random_dominant(shape, EXPERIMENT_SEED).unwrap();
            let mut dynamic = DynamicTuner::new();
            {
                let mut gpu: Gpu<f32> = Gpu::new(device.clone());
                dynamic.tune_for(&mut gpu, shape);
            }
            let tuned = |tuner: &dyn Tuner| {
                let params = tuner.params_for(shape, &q, 4);
                trisolve_autotune::tuners::clamp_to_device(params, &q, 4)
            };
            // The dynamic solve goes through the engine once so its outcome
            // also yields the per-stage timeline; the session's simulated
            // time is identical to `solve_ms` (same launches, same stats).
            let dyn_out = solve_outcome::<f32>(device, &batch, &tuned(&dynamic));
            Fig7Cell {
                device: q.name.clone(),
                shape,
                untuned_ms: solve_ms(device, &batch, &tuned(&DefaultTuner)),
                static_ms: solve_ms(device, &batch, &tuned(&StaticTuner)),
                dynamic_ms: dyn_out
                    .as_ref()
                    .map_or(f64::INFINITY, trisolve_core::SolveOutcome::sim_time_ms),
                dynamic_timeline: dyn_out.map(|o| StageTimeline::from_outcome(&o)),
            }
        })
        .collect()
}

/// Compute the §V headline aggregates from Figure 7 cells.
pub fn fig7_summary(cells: &[Fig7Cell]) -> Fig7Summary {
    let mut s_impr = Vec::new();
    let mut d_impr = Vec::new();
    let mut d_speedup: f64 = 0.0;
    for c in cells {
        s_impr.push(1.0 - c.static_ms / c.untuned_ms);
        d_impr.push(1.0 - c.dynamic_ms / c.untuned_ms);
        d_speedup = d_speedup.max(c.untuned_ms / c.dynamic_ms);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Fig7Summary {
        static_mean_improvement: mean(&s_impr),
        dynamic_mean_improvement: mean(&d_impr),
        dynamic_max_speedup: d_speedup,
        static_max_improvement: s_impr.iter().cloned().fold(f64::MIN, f64::max),
    }
}

// ---------------------------------------------------------------------------
// Figure 8: GPU (GTX 470, dynamically tuned) vs CPU (MKL model)
// ---------------------------------------------------------------------------

/// One row of the Figure 8 comparison.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Workload shape.
    pub shape: WorkloadShape,
    /// Simulated GPU milliseconds (GTX 470, dynamically tuned).
    pub gpu_ms: f64,
    /// Simulated CPU milliseconds (Core i5 MKL model).
    pub cpu_ms: f64,
    /// CPU threads used (2 for batches, 1 for a single system).
    pub cpu_threads: usize,
    /// `cpu_ms / gpu_ms` (the paper's 11×/7×/6×/0.7× labels).
    pub speedup: f64,
    /// Per-stage timeline of the tuned GPU solve (`None` if it cannot run).
    pub gpu_timeline: Option<StageTimeline>,
}

/// Run the Figure 8 comparison over a workload grid.
pub fn fig8_comparison(shapes: &[WorkloadShape]) -> Vec<Fig8Row> {
    let device = DeviceSpec::gtx_470();
    let cpu = CpuSpec::core_i5_dual_3_4ghz();
    let q = device.queryable().clone();

    shapes
        .iter()
        .map(|&shape| {
            let batch: SystemBatch<f32> = random_dominant(shape, EXPERIMENT_SEED).unwrap();
            let mut dynamic = DynamicTuner::new();
            {
                let mut gpu: Gpu<f32> = Gpu::new(device.clone());
                dynamic.tune_for(&mut gpu, shape);
            }
            let params = dynamic.params_for(shape, &q, 4);
            let out = solve_outcome::<f32>(&device, &batch, &params);
            let gpu_ms = out
                .as_ref()
                .map_or(f64::INFINITY, trisolve_core::SolveOutcome::sim_time_ms);
            let (cpu_s, threads) = cpu.time_batch_lu_auto(shape.num_systems, shape.system_size);
            let cpu_ms = cpu_s * 1e3;
            Fig8Row {
                shape,
                gpu_ms,
                cpu_ms,
                cpu_threads: threads,
                speedup: cpu_ms / gpu_ms,
                gpu_timeline: out.map(|o| StageTimeline::from_outcome(&o)),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Many-small layout comparison: staged PCR vs interleaved batched-Thomas
// ---------------------------------------------------------------------------

/// One row of the many-small layout comparison: the staged pipeline's
/// best time against the interleaved batched-Thomas fast path, plus the
/// layout each of the three tuners selects for the shape.
#[derive(Debug, Clone)]
pub struct ManySmallRow {
    /// Workload shape.
    pub shape: WorkloadShape,
    /// Best staged time (strided or coalesced base kernel), ms.
    pub staged_pcr_ms: f64,
    /// Interleaved batched-Thomas time, ms.
    pub batched_thomas_ms: f64,
    /// Layout the machine-oblivious default tuner selects.
    pub untuned_variant: trisolve_core::BaseVariant,
    /// Layout the machine-query (static) tuner selects.
    pub static_variant: trisolve_core::BaseVariant,
    /// Layout the measured (dynamic) tuner selects after tuning on the
    /// device at this exact shape.
    pub dynamic_variant: trisolve_core::BaseVariant,
}

impl ManySmallRow {
    /// True when the fast path beats the staged pipeline on this row.
    pub fn interleaved_wins(&self) -> bool {
        self.batched_thomas_ms < self.staged_pcr_ms
    }
}

/// Compare the staged pipeline against the interleaved batched-Thomas
/// fast path over the many-small grid on one device.
///
/// Both sides run the static tuner's switch points so the comparison
/// isolates the layout axis; the row also records which layout each
/// tuner strategy would pick, making the snapshot show *when* the
/// selection logic agrees with the measurement.
pub fn many_small_comparison(device: &DeviceSpec, shapes: &[WorkloadShape]) -> Vec<ManySmallRow> {
    use trisolve_core::BaseVariant;
    let q = device.queryable().clone();
    shapes
        .iter()
        .map(|&shape| {
            let batch: SystemBatch<f32> = random_dominant(shape, EXPERIMENT_SEED).unwrap();
            let staged_base = trisolve_autotune::tuners::clamp_to_device(
                SolverParams {
                    variant: BaseVariant::Strided,
                    ..StaticTuner.params_for(shape, &q, 4)
                },
                &q,
                4,
            );
            let staged_pcr_ms = [BaseVariant::Strided, BaseVariant::Coalesced]
                .into_iter()
                .map(|variant| {
                    solve_ms(
                        device,
                        &batch,
                        &SolverParams {
                            variant,
                            ..staged_base
                        },
                    )
                })
                .fold(f64::INFINITY, f64::min);
            let batched_thomas_ms = solve_ms(
                device,
                &batch,
                &SolverParams {
                    variant: BaseVariant::Interleaved,
                    ..staged_base
                },
            );
            let mut dynamic = DynamicTuner::new();
            {
                let mut gpu: Gpu<f32> = Gpu::new(device.clone());
                dynamic.tune_for(&mut gpu, shape);
            }
            ManySmallRow {
                shape,
                staged_pcr_ms,
                batched_thomas_ms,
                untuned_variant: DefaultTuner.params_for(shape, &q, 4).variant,
                static_variant: StaticTuner.params_for(shape, &q, 4).variant,
                dynamic_variant: dynamic.params_for(shape, &q, 4).variant,
            }
        })
        .collect()
}
