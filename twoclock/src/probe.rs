//! Layer probes of the solve path: each layer's public functions, timed
//! from outside on one workload shape, plus the shared pieces the
//! workloads build on (device, inputs, tuning, correctness checks).

use trisolve_analyze::statically_rejected;
use trisolve_autotune::tuners::clamp_to_device;
use trisolve_autotune::{DynamicTuner, Tuner};
use trisolve_core::engine::{SolveSession, StageTimeline};
use trisolve_core::{BaseVariant, ResiliencePolicy, SolveOutcome, SolvePlan, SolverParams};
use trisolve_gpu_sim::{DeviceSpec, Gpu, KernelStats, LaunchConfig};
use trisolve_obs::{TraceEvent, Tracer};
use trisolve_tridiag::cpu_batch::{solve_batch_sequential, BatchAlgorithm};
use trisolve_tridiag::norms::batch_worst_relative_residual;
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};
use trisolve_tridiag::SystemBatch;

use crate::spans::Spans;
use crate::stats::{median, median_time};
use crate::{Report, FAMILIES};

/// Element width of every solver workload (f32).
pub(crate) const ELEM_BYTES: usize = 4;

/// Batches `solve_pipelined` and the layer probes take.
pub(crate) const INPUT_BATCHES: u64 = 3;

/// The device every solver workload and probe runs on.
pub(crate) fn device() -> DeviceSpec {
    DeviceSpec::gtx_470()
}

/// Residual tolerance every solve must meet: the f32 resilience policy's.
pub(crate) fn tolerance() -> f64 {
    ResiliencePolicy::for_elem_bytes(ELEM_BYTES).residual_tolerance
}

/// Input `i` of a run: a diagonally dominant batch drawn from
/// `seed << 32 | i`, so runs on different seeds share no input.
pub(crate) fn input(shape: WorkloadShape, seed: u64, i: u64) -> SystemBatch<f32> {
    random_dominant(shape, seed.wrapping_shl(32) | i).expect("dominant batch")
}

/// The first [`INPUT_BATCHES`] inputs of a run.
pub(crate) fn inputs(shape: WorkloadShape, seed: u64) -> Vec<SystemBatch<f32>> {
    (0..INPUT_BATCHES).map(|i| input(shape, seed, i)).collect()
}

/// Dynamically tune `shape` on `gpu` and clamp the result to the device,
/// exactly as the snapshot harness derives its `dynamic_ms` parameters.
/// Returns the parameters and the tuner's evaluation count.
pub(crate) fn tune(gpu: &mut Gpu<f32>, shape: WorkloadShape) -> (SolverParams, usize) {
    let q = gpu.spec().queryable().clone();
    let mut tuner = DynamicTuner::new();
    let cfg = tuner.tune_for(gpu, shape);
    let params = clamp_to_device(tuner.params_for(shape, &q, ELEM_BYTES), &q, ELEM_BYTES);
    (params, cfg.evaluations)
}

/// Check one solve's residual against [`tolerance`]; returns it.
pub(crate) fn check_residual(
    report: &mut Report,
    batch: &SystemBatch<f32>,
    x: &[f32],
    what: &str,
) -> f64 {
    let r = batch_worst_relative_residual(batch, x).unwrap_or(f64::INFINITY);
    report.check(r <= tolerance(), || {
        format!("{what}: residual {r:e} above tolerance {:e}", tolerance())
    });
    r
}

/// True when two solutions are identical bit for bit.
pub(crate) fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Solve the batches through `solve_pipelined` on a fresh device and check
/// each solution against the per-batch `solve` result in `expected`.
/// Returns the simulated pipelined milliseconds, the overlap ratio and
/// the host seconds of the call.
pub(crate) fn pipelined(
    report: &mut Report,
    spans: &mut Spans,
    tracer: &Tracer,
    shape: WorkloadShape,
    params: &SolverParams,
    batches: &[SystemBatch<f32>],
    expected: &[Vec<f32>],
) -> (f64, f64, f64) {
    let mut gpu: Gpu<f32> = Gpu::new(device());
    gpu.set_tracer(tracer.clone());
    let mut session = SolveSession::new(&mut gpu, shape).expect("pipelined session");
    let (out, host_s) = spans.time("core.solve_pipelined", || {
        session.solve_pipelined(&mut gpu, batches, params)
    });
    match out {
        Ok(o) => {
            for (k, (x, want)) in o.xs.iter().zip(expected).enumerate() {
                report.check(bit_identical(x, want), || {
                    format!("solve_pipelined batch {k} differs from its solve")
                });
            }
            (o.wall_s * 1e3, o.overlap_ratio, host_s)
        }
        Err(e) => {
            report.check(false, || format!("solve_pipelined failed: {e}"));
            (f64::NAN, f64::NAN, host_s)
        }
    }
}

/// Per-family simulated milliseconds, and achieved DRAM bandwidth as a
/// fraction of the device's theoretical peak, over one solve's launches.
pub(crate) fn family_breakdown(report: &mut Report, dev: &DeviceSpec, stats: &[KernelStats]) {
    let timeline = StageTimeline::from_stats(stats);
    let peak_gbps = dev.hidden().mem_bandwidth_gbps;
    for f in FAMILIES {
        let sim_ms = timeline
            .stages
            .iter()
            .filter(|e| e.stage == f)
            .fold(0.0, |ms, e| ms + e.sim_time_ms);
        let (txn, exec_s) = stats
            .iter()
            .filter(|s| s.label.split('[').next() == Some(f))
            .fold((0.0, 0.0), |(b, t), s| {
                (b + s.totals.gmem_txn_bytes, t + s.exec_time_s)
            });
        let fraction = if exec_s > 0.0 {
            txn / exec_s / 1e9 / peak_gbps
        } else {
            0.0
        };
        report.set(format!("core.sim_stage_ms.{f}"), sim_ms, "sim_ms");
        report.set(format!("core.peak_fraction.{f}"), fraction, "ratio");
    }
}

/// The tuner's candidate list, as recorded by its `tuner/eval` events.
fn tuner_candidates(events: &[TraceEvent]) -> Vec<(WorkloadShape, SolverParams)> {
    let usize_arg = |e: &TraceEvent, k: &str| e.arg_u64(k).map(|v| v as usize);
    events
        .iter()
        .filter(|e| e.cat == "tuner" && e.name == "eval")
        .filter_map(|e| {
            let variant = match e.arg_str("variant")? {
                "Strided" => BaseVariant::Strided,
                "Coalesced" => BaseVariant::Coalesced,
                "Interleaved" => BaseVariant::Interleaved,
                _ => return None,
            };
            let shape = WorkloadShape::new(usize_arg(e, "systems")?, usize_arg(e, "size")?);
            let params = SolverParams {
                stage1_target_systems: usize_arg(e, "stage1_target")?,
                onchip_size: usize_arg(e, "onchip_size")?,
                thomas_switch: usize_arg(e, "thomas_switch")?,
                variant,
            };
            Some((shape, params))
        })
        .collect()
}

/// Time `f` over `reps` calls as one span; returns the median seconds of
/// one call and the last result.
fn probe_span<R>(
    spans: &mut Spans,
    name: &'static str,
    reps: usize,
    f: impl FnMut() -> R,
) -> (f64, R) {
    let open = spans.begin(name);
    let out = median_time(reps, f);
    spans.end(open);
    out
}

/// Repetitions of the cheap probes (plan build, empty launch).
const CHEAP_REPS: usize = 200;
/// Repetitions of the probes that run a whole solve or transfer.
const SOLVE_REPS: usize = 5;

/// Time every layer of the solve path on `shape` with the tuned `params`.
///
/// `gpu` is the traced device the tuner ran on; its `tuner/eval` events
/// supply the candidate list the analyzer probe re-admits. Records the
/// `analyze.*`, `core.*`, `gpu-sim.*`, `tridiag.*`, `obs.*` and simulated
/// per-layer metrics.
pub(crate) fn layers(
    report: &mut Report,
    spans: &mut Spans,
    gpu: &mut Gpu<f32>,
    shape: WorkloadShape,
    params: &SolverParams,
    batches: &[SystemBatch<f32>],
) {
    let dev = gpu.spec().clone();
    let q = dev.queryable().clone();
    let tracer = gpu.tracer().clone();
    let equations = shape.total_equations() as f64;

    // analyze: the static admission check over every candidate the tuner
    // evaluated.
    let candidates = tuner_candidates(&tracer.events());
    let (_, admit_s) = spans.time("analyze.statically_rejected", || {
        for (s, p) in &candidates {
            std::hint::black_box(statically_rejected(*s, p, &q, ELEM_BYTES));
        }
    });
    let pruned = tracer
        .counters()
        .iter()
        .find(|(k, _)| *k == "candidates_pruned")
        .map_or(0, |(_, v)| *v);
    report.set("analyze.pruned", pruned as f64, "count");
    report.set("analyze.candidates", candidates.len() as f64, "count");
    report.set("analyze.admit_us", admit_s * 1e6, "us");

    // core: plan build + validation, session set-up.
    let (plan_s, plan) = probe_span(spans, "core.plan", CHEAP_REPS, || {
        SolvePlan::build(shape, params, &q, ELEM_BYTES).map(|p| {
            let report = p.validate(&q, ELEM_BYTES);
            (p, report)
        })
    });
    report.check(plan.as_ref().is_ok_and(|(_, v)| !v.has_errors()), || {
        "tuned plan does not build or validate".to_string()
    });
    report.set("core.plan_us", plan_s * 1e6, "us");

    let (session_s, _) = probe_span(spans, "core.session_new", SOLVE_REPS, || {
        SolveSession::<f32>::new(gpu, shape).map(drop)
    });
    report.set("core.session_ms", session_s * 1e3, "ms");

    // core: measure and solve on the traced device, and the same solve on
    // an untraced twin for the tracing overhead.
    let mut session = SolveSession::new(gpu, shape).expect("probe session");
    let mut plain_gpu: Gpu<f32> = Gpu::new(dev.clone());
    let mut plain = SolveSession::new(&mut plain_gpu, shape).expect("probe session");
    let (mut measure_s, mut solve_s, mut plain_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_outcome: Option<SolveOutcome<f32>> = None;
    for k in 0..SOLVE_REPS {
        let batch = &batches[k % batches.len()];
        let (m, t) = spans.time("core.measure", || session.measure(gpu, batch, params));
        report.check(m.is_ok(), || "measure failed".to_string());
        measure_s.push(t);
        let (o, t) = spans.time("core.solve", || session.solve(gpu, batch, params));
        solve_s.push(t);
        let (p, t) = spans.time("core.solve_untraced", || {
            plain.solve(&mut plain_gpu, batch, params)
        });
        plain_s.push(t);
        match (o, p) {
            (Ok(o), Ok(p)) => {
                check_residual(report, batch, &o.x, "traced solve");
                report.check(
                    bit_identical(&o.x, &p.x) && o.sim_time_s == p.sim_time_s,
                    || "traced and untraced solves differ".to_string(),
                );
                traced_outcome = Some(o);
            }
            (o, p) => report.check(false, || {
                format!("probe solve failed: {:?} / {:?}", o.err(), p.err())
            }),
        }
    }
    let (measure_ms, solve_ms) = (median(&measure_s) * 1e3, median(&solve_s) * 1e3);
    report.set("core.measure_ms", measure_ms, "ms");
    report.set("core.solve_ms", solve_ms, "ms");
    report.set("core.d2h_unpad_ms", solve_ms - measure_ms, "ms");
    report.set(
        "obs.trace_overhead",
        median(&solve_s) / median(&plain_s) - 1.0,
        "ratio",
    );
    if let Some(o) = &traced_outcome {
        report.set("core.launches", o.kernel_stats.len() as f64, "count");
        let bytes: f64 = o.kernel_stats.iter().map(|s| s.totals.gmem_txn_bytes).sum();
        report.set("core.gmem_bytes", bytes, "bytes");
        report.set("sim_solve_ms", o.sim_time_ms(), "sim_ms");
        family_breakdown(report, &dev, &o.kernel_stats);
    }

    // core: the pipelined path, checked against per-batch solves.
    let (expected, _) = spans.time("core.solve_untraced", || {
        batches
            .iter()
            .map(|b| {
                plain
                    .solve(&mut plain_gpu, b, params)
                    .map(|o| o.x)
                    .unwrap_or_default()
            })
            .collect::<Vec<Vec<f32>>>()
    });
    let (sim_ms, overlap, host_s) =
        pipelined(report, spans, &tracer, shape, params, batches, &expected);
    report.set("sim_pipelined_ms", sim_ms, "sim_ms");
    report.set("core.overlap_ratio", overlap, "ratio");
    report.set("core.pipelined_host_ms", host_s * 1e3, "ms");
    drop(session);

    // gpu-sim: the four coefficient uploads, one download, one empty
    // launch on every worker thread (the per-launch thread start-up).
    let padded = shape.num_systems * shape.system_size.next_power_of_two();
    let host: Vec<Vec<f32>> = {
        let b = &batches[0];
        [&b.a, &b.b, &b.c, &b.d]
            .map(|v| {
                let mut v = v.clone();
                v.resize(padded, 0.0);
                v
            })
            .to_vec()
    };
    let bufs: Vec<_> = (0..4)
        .map(|_| gpu.alloc_guarded(padded).expect("probe buffer"))
        .collect();
    let (h2d_s, _) = probe_span(spans, "gpu-sim.h2d", SOLVE_REPS, || {
        for (buf, data) in bufs.iter().zip(&host) {
            gpu.upload(buf.id(), data).expect("upload");
        }
    });
    let (d2h_s, _) = probe_span(spans, "gpu-sim.d2h", SOLVE_REPS, || {
        gpu.download(bufs[0].id()).expect("download")
    });
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let noop = LaunchConfig::new("noop", workers.max(2), 32);
    let (launch_s, launched) = probe_span(spans, "gpu-sim.launch", CHEAP_REPS, || {
        gpu.launch(&noop, &[], &[], |_, _| {})
    });
    report.check(launched.is_ok(), || "empty launch failed".to_string());
    report.set("gpu-sim.h2d_ms", h2d_s * 1e3, "ms");
    report.set("gpu-sim.d2h_ms", d2h_s * 1e3, "ms");
    report.set("gpu-sim.launch_us", launch_s * 1e6, "us");
    report.set(
        "gpu-sim.host_ns_per_eq",
        (measure_ms - h2d_s * 1e3) * 1e6 / equations,
        "ns/eq",
    );

    // tridiag: the residual check, and the plain single-threaded Thomas
    // baseline of the same problem.
    let batch = &batches[0];
    let (residual_s, _) = probe_span(spans, "tridiag.residual", 3, || {
        batch_worst_relative_residual(batch, &expected[0])
    });
    let (thomas_s, cpu_x) = probe_span(spans, "tridiag.cpu_thomas", 3, || {
        solve_batch_sequential(batch, BatchAlgorithm::Thomas)
    });
    match cpu_x {
        Ok(cpu_x) => {
            check_residual(report, batch, &cpu_x, "cpu Thomas");
        }
        Err(e) => report.check(false, || format!("cpu Thomas failed: {e}")),
    }
    report.set("tridiag.residual_ms", residual_s * 1e3, "ms");
    report.set("tridiag.cpu_thomas_ms", thomas_s * 1e3, "ms");
    report.set("obs.events", tracer.event_count() as f64, "count");
}
