//! The solver workloads: tune once, then solve one shape repeatedly
//! through a reused `SolveSession`.

use std::time::Instant;

use trisolve_core::engine::SolveSession;
use trisolve_core::SolverParams;
use trisolve_gpu_sim::Gpu;
use trisolve_obs::Tracer;
use trisolve_tridiag::workloads::WorkloadShape;
use trisolve_tridiag::SystemBatch;

use crate::probe::{self, check_residual};
use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::{Options, Report};

/// GTX 470, 1024 × 1024 (the paper's Fig. 7/8 cell).
pub(crate) const BATCH_1KX1K: WorkloadShape = WorkloadShape::new(1024, 1024);
/// GTX 470, one system of 512K equations.
pub(crate) const SINGLE_512K: WorkloadShape = WorkloadShape::new(1, 512 * 1024);

/// Everything set-up produces: the device, the tuned parameters and a
/// session whose plan cache already holds them.
struct Ready {
    gpu: Gpu<f32>,
    params: SolverParams,
    evals: usize,
    session: SolveSession<f32>,
}

/// Set-up: everything before the first timed solve. Tunes `shape` on a
/// fresh device, opens the session and builds the tuned plan.
fn set_up(shape: WorkloadShape) -> Ready {
    let mut gpu: Gpu<f32> = Gpu::new(probe::device());
    let (params, evals) = probe::tune(&mut gpu, shape);
    let mut session = SolveSession::new(&mut gpu, shape).expect("session for the workload shape");
    session.plan_for(&params).expect("tuned plan");
    Ready {
        gpu,
        params,
        evals,
        session,
    }
}

/// Run one solver workload.
pub(crate) fn run(shape: WorkloadShape, opts: &Options) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new(opts.trace);
    let root = spans.begin("run");
    let batches = probe::inputs(shape, opts.seed);
    if opts.trace {
        traced(&mut report, &mut spans, shape, &batches);
    } else {
        untraced(&mut report, &mut spans, shape, &batches, opts);
    }
    spans.end(root);
    if opts.trace {
        report.attach_spans(&spans);
    }
    report
}

/// The end-to-end run: repeated set-up, then solves for `opts.seconds`.
fn untraced(
    report: &mut Report,
    spans: &mut Spans,
    shape: WorkloadShape,
    batches: &[SystemBatch<f32>],
    opts: &Options,
) {
    let off = Tracer::disabled();
    let mut setups = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..crate::SETUP_REPEATS {
        let (r, secs) = spans.time("setup", || set_up(shape));
        setups.push(secs);
        if let Some(prev) = &ready {
            report.check(prev.params == r.params && prev.evals == r.evals, || {
                "tuning is not repeatable".to_string()
            });
        }
        ready = Some(r);
    }
    let mut r = ready.expect("at least one set-up");

    let mut walls = Vec::new();
    let mut sim_ms: Option<f64> = None;
    let mut residuals = Vec::new();
    let mut first_x: Vec<Vec<f32>> = Vec::new();
    let window = Instant::now();
    while walls.is_empty() || window.elapsed().as_secs_f64() < opts.seconds {
        // Every timed solve gets an input of its own, generated outside
        // the timed call.
        let i = walls.len();
        let fresh;
        let batch = match batches.get(i) {
            Some(b) => b,
            None => {
                fresh = probe::input(shape, opts.seed, i as u64);
                &fresh
            }
        };
        let t = Instant::now();
        let out = r.session.solve(&mut r.gpu, batch, &r.params);
        walls.push(t.elapsed().as_secs_f64());
        match out {
            Ok(o) => {
                residuals.push(check_residual(report, batch, &o.x, "timed solve"));
                let ms = o.sim_time_ms();
                report.check(sim_ms.is_none_or(|first| first == ms), || {
                    format!("simulated solve time moved: {ms} ms")
                });
                sim_ms.get_or_insert(ms);
                if first_x.len() < batches.len() {
                    first_x.push(o.x);
                }
            }
            Err(e) => report.check(false, || format!("timed solve failed: {e}")),
        }
    }
    // Short windows may not reach every input batch; solve the rest
    // outside the window so the pipelined check has its references.
    while first_x.len() < batches.len() {
        let batch = &batches[first_x.len()];
        let x = r.session.solve(&mut r.gpu, batch, &r.params).map(|o| o.x);
        first_x.push(x.unwrap_or_default());
    }
    let (pipe_ms, _, _) =
        probe::pipelined(report, spans, &off, shape, &r.params, batches, &first_x);

    let eq = shape.total_equations() as f64;
    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    report.set("setup_s", median(&setups), "s");
    report.set("solve_wall_ms_p50", quantile(&ms, 0.5), "ms");
    report.set("solve_wall_ms_p90", quantile(&ms, 0.9), "ms");
    report.set("solves", walls.len() as f64, "count");
    // Throughput of the median solve: a burst of load from outside the
    // process slows a minority of solves without moving it.
    report.set("host_eq_per_s", eq / median(&walls), "eq/s");
    report.set("sim_solve_ms", sim_ms.unwrap_or(f64::NAN), "sim_ms");
    report.set("sim_pipelined_ms", pipe_ms, "sim_ms");
    report.set("rel_residual_p50", median(&residuals), "ratio");
    report.set(
        "worst_rel_residual",
        residuals.iter().fold(0.0, |w, &r| f64::max(w, r)),
        "ratio",
    );
    report.set("tuner_evals", r.evals as f64, "count");
}

/// The traced run: one traced set-up, then every layer probe.
fn traced(
    report: &mut Report,
    spans: &mut Spans,
    shape: WorkloadShape,
    batches: &[SystemBatch<f32>],
) {
    let tracer = Tracer::enabled();
    let mut gpu: Gpu<f32> = Gpu::new(probe::device());
    gpu.set_tracer(tracer);
    let ((params, evals), tune_s) =
        spans.time("autotune.tune_for", || probe::tune(&mut gpu, shape));
    report.set("autotune.tune_s", tune_s, "s");
    report.set("autotune.evals", evals as f64, "count");
    report.set("autotune.eval_ms", tune_s * 1e3 / evals.max(1) as f64, "ms");
    probe::layers(report, spans, &mut gpu, shape, &params, batches);
}
