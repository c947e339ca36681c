//! The service workload: a seeded open-loop chaos campaign through the
//! fault-tolerant solver service, with a warm plan database.

use std::collections::BTreeMap;

use trisolve_gpu_sim::Gpu;
use trisolve_obs::Tracer;
use trisolve_serve::service::class_tolerance;
use trisolve_serve::{
    generate, Disposition, LoadProfile, Precision, ServiceRunReport, ShedReason, SolveRequest,
    SolveService, Workload,
};
use trisolve_tridiag::workloads::{WorkloadClass, WorkloadShape};

use crate::probe;
use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::{Options, Report};

/// Requests offered per second of `--seconds`. The generator spaces
/// arrivals about 1 ms apart, so a campaign spans about `seconds` of
/// simulated time.
const REQUESTS_PER_SECOND: f64 = 1000.0;

/// The campaign a run offers: chaos mode, nominal load, seeded by the run.
fn profile(opts: &Options) -> LoadProfile {
    LoadProfile {
        requests: ((opts.seconds * REQUESTS_PER_SECOND).round() as usize).max(1),
        seed: opts.seed,
        load_scale: 1.0,
        chaos: true,
    }
}

/// Set-up: a fresh service with its plan database warmed over the
/// campaign's combo list. Returns the service and the tuner evaluations
/// the warm-up spent.
fn set_up(workload: &Workload) -> (SolveService, u64) {
    let mut svc = SolveService::new(workload.config.clone());
    let evals = svc.warm_plan_db(&workload.combos);
    (svc, evals)
}

/// Run the service workload.
pub(crate) fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new(opts.trace);
    let root = spans.begin("run");
    let workload = generate(&profile(opts));
    if opts.trace {
        traced(&mut report, &mut spans, &workload, opts.seed);
    } else {
        let mut setups = Vec::new();
        let mut ready: Option<(SolveService, u64)> = None;
        for _ in 0..crate::SETUP_REPEATS {
            let (r, secs) = spans.time("setup", || set_up(&workload));
            setups.push(secs);
            if let Some((_, evals)) = &ready {
                report.check(*evals == r.1, || "warm-up is not repeatable".to_string());
            }
            ready = Some(r);
        }
        let (mut svc, evals) = ready.expect("at least one set-up");
        report.set("setup_s", median(&setups), "s");
        report.set("serve.warm_evals", evals as f64, "count");
        let (run, run_s) = spans.time("serve.run", || svc.run(&workload.requests));
        outcome(&mut report, &workload.requests, &run, run_s);
    }
    spans.end(root);
    if opts.trace {
        report.attach_spans(&spans);
    }
    report
}

/// Check every disposition and record the campaign's metrics.
fn outcome(report: &mut Report, requests: &[SolveRequest], run: &ServiceRunReport, run_s: f64) {
    let s = &run.stats;
    let mut e2e_ms = Vec::new();
    let mut equations = 0usize;
    let mut residuals = Vec::new();
    for (req, d) in requests.iter().zip(&run.dispositions) {
        match d {
            Disposition::Completed(c) => {
                e2e_ms.push((c.at_s - req.arrival_s) * 1e3);
                equations += req.equations();
                residuals.push(c.residual);
                let tol = class_tolerance(req.class.label(), req.precision.elem_bytes());
                report.check(c.residual <= tol && c.at_s <= req.deadline_s, || {
                    format!(
                        "request {}: residual {:e} (tolerance {tol:e}), done at {} s, deadline {} s",
                        req.id, c.residual, c.at_s, req.deadline_s
                    )
                });
            }
            // The campaign's stress classes (ill-conditioned, non-dominant)
            // can defeat every rung of the resilience chain in f32; the
            // service answers those with a structured `SolverExhausted`
            // shed. A dominant system must always solve.
            Disposition::Shed(r) => report.check(
                r.reason != ShedReason::SolverExhausted || req.class != WorkloadClass::Dominant,
                || {
                    format!(
                        "request {}: solver exhausted on a dominant {} {} system",
                        req.id,
                        req.shape.label(),
                        req.precision.label()
                    )
                },
            ),
        }
    }
    report.check(
        run.dispositions.len() == requests.len() && s.lost() == 0,
        || format!("{} requests lost", s.lost()),
    );
    report.check(s.deadline_misses == 0, || {
        format!("{} deadline misses", s.deadline_misses)
    });

    let submitted = s.submitted.max(1) as f64;
    report.set("requests", s.submitted as f64, "count");
    report.set("host_eq_per_s", equations as f64 / run_s, "eq/s");
    report.set("serve_e2e_p50_ms", quantile(&e2e_ms, 0.5), "sim_ms");
    report.set("serve_e2e_p99_ms", quantile(&e2e_ms, 0.99), "sim_ms");
    report.set(
        "serve_goodput_rps",
        s.completed as f64 / s.makespan_s,
        "req/sim_s",
    );
    report.set(
        "serve_shed_fraction",
        s.shed_total() as f64 / submitted,
        "ratio",
    );
    report.set("rel_residual_p50", quantile(&residuals, 0.5), "ratio");
    report.set(
        "worst_rel_residual",
        residuals.iter().fold(0.0, |w, &r| f64::max(w, r)),
        "ratio",
    );
    report.set("serve.run_s", run_s, "s");
    report.set("serve.host_us_per_request", run_s * 1e6 / submitted, "us");
    report.set("serve.batches", s.batches as f64, "count");
    report.set(
        "serve.coalesced_fraction",
        s.coalesced as f64 / s.completed.max(1) as f64,
        "ratio",
    );
    report.set("serve.queue_p99_ms", s.queue_ms.p99_ms, "sim_ms");
    report.set("serve.solve_p99_ms", s.solve_ms.p99_ms, "sim_ms");
    report.set("serve.faults", s.faults as f64, "count");
    report.set("serve.cpu_recoveries", s.cpu_recoveries as f64, "count");
    report.set("serve.breaker_trips", s.breaker_trips as f64, "count");
    report.set("serve.lost", s.lost() as f64, "count");
    report.set("serve.shed_exhausted", s.shed_exhausted as f64, "count");
    report.set("serve.db_hits", s.db_hits as f64, "count");
    report.set("serve.db_misses", s.db_misses as f64, "count");
    report.set("serve.tuner_evals", s.tuner_evals as f64, "count");
}

/// The campaign's most frequent f32 request shape (ties to the smaller
/// shape): the shape the layer probes run on.
fn probe_shape(requests: &[SolveRequest]) -> WorkloadShape {
    let mut counts: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for r in requests.iter().filter(|r| r.precision == Precision::F32) {
        *counts
            .entry((r.shape.num_systems, r.shape.system_size))
            .or_default() += 1;
    }
    let ((m, n), _) = counts.into_iter().fold(
        ((1, 64), 0),
        |best, (k, c)| if c > best.1 { (k, c) } else { best },
    );
    WorkloadShape::new(m, n)
}

/// The traced run: one timed warm-up, the layer probes on the campaign's
/// most frequent request shape, then the campaign.
fn traced(report: &mut Report, spans: &mut Spans, workload: &Workload, seed: u64) {
    let ((mut svc, evals), warm_s) = spans.time("serve.warm_plan_db", || set_up(workload));
    report.set("autotune.tune_s", warm_s, "s");
    report.set("autotune.evals", evals as f64, "count");
    report.set("autotune.eval_ms", warm_s * 1e3 / evals.max(1) as f64, "ms");
    report.set("serve.warm_evals", evals as f64, "count");

    let shape = probe_shape(&workload.requests);
    let mut gpu: Gpu<f32> = Gpu::new(probe::device());
    gpu.set_tracer(Tracer::enabled());
    let ((params, _), _) = spans.time("autotune.tune_for", || probe::tune(&mut gpu, shape));
    let batches = probe::inputs(shape, seed);
    probe::layers(report, spans, &mut gpu, shape, &params, &batches);
    report.set("probe.systems", shape.num_systems as f64, "count");
    report.set("probe.size", shape.system_size as f64, "count");

    let (run, run_s) = spans.time("serve.run", || svc.run(&workload.requests));
    outcome(report, &workload.requests, &run, run_s);
}
