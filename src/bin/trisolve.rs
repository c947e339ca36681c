//! `trisolve` — command-line front end to the auto-tuned multi-stage
//! tridiagonal solver on the simulated GPUs.
//!
//! ```console
//! $ trisolve devices
//! $ trisolve solve --device 470 --systems 64 --size 8192 --tuner dynamic
//! $ trisolve tune  --device 280 --systems 16 --size 65536 --cache tuning.json
//! $ trisolve compare --systems 1024 --size 1024
//! $ trisolve chaos --quick
//! ```
//!
//! Each subcommand declares the `--flag`s it accepts; the typed parser in
//! [`trisolve::harness`] rejects anything else. `--json` switches the
//! output to machine-readable JSON.

use std::process::ExitCode;
use trisolve::autotune::{DbOrigin, PlanDb};
use trisolve::harness::{
    exit_rule, parse_args, print_json, CliError, CliOptions, HarnessOptions, Precision, Report,
    TraceFormat, TunerKind, WorkloadKind,
};
use trisolve::prelude::*;
use trisolve::serve::LoadProfile;
use trisolve::solver::kernels::{elem_bytes, GpuScalar};
use trisolve::{analyze, chaos, sanitize, serve_sim};

/// Counts heap allocations, so `report --regress` can gate the tuned
/// solve's `host_allocs` and `host_alloc_bytes` exactly.
#[global_allocator]
static ALLOC: trisolve_bench::alloc::CountingAlloc = trisolve_bench::alloc::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match opts.command {
        "devices" => cmd_devices(&opts),
        "solve" => match opts.precision.unwrap_or(Precision::F32) {
            Precision::F32 => cmd_solve::<f32>(&opts),
            Precision::F64 => cmd_solve::<f64>(&opts),
        },
        "tune" => cmd_tune(&opts),
        "compare" => cmd_compare(&opts),
        "trace" => cmd_trace(&opts),
        "sanitize" | "analyze" | "chaos" | "serve-sim" => {
            self_check(&opts).and_then(|r| r.finish(opts.json))
        }
        "report" => cmd_report(&opts),
        "sort" => cmd_sort(&opts),
        "fft" => cmd_fft(&opts),
        "quicksort" => cmd_quicksort(&opts),
        _ => {
            println!("{USAGE}");
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
trisolve — auto-tuned multi-stage tridiagonal solver (simulated GPU)

USAGE:
  trisolve devices [--json]
  trisolve solve   --systems M --size N [--device 8800|280|470]
                   [--tuner default|static|dynamic] [--precision f32|f64]
                   [--workload random|poisson|adi|spline] [--seed S] [--json]
  trisolve tune    --systems M --size N [--device ...] [--cache FILE] [--json]
  trisolve compare --systems M --size N [--workload ...] [--seed S] [--json]
                   (all three tuners on all three devices)
  trisolve trace   --systems M --size N [--device ...] [--tuner default|static|dynamic]
                   [--workload random|poisson|adi|spline] [--seed S]
                   [--format chrome|jsonl] [--out PATH]
                   (traced solve on the simulated clock; Chrome trace-event
                    JSON loads in Perfetto / chrome://tracing, metrics summary
                    on stderr)
  trisolve sanitize [--quick] [--device 8800|280|470] [--shrink K] [--json]
                   (injected-hazard fixtures, then every shipping kernel
                    over the Figure 5-8 matrix under the dynamic sanitizer;
                    nonzero exit on any hazard or undetected fixture)
  trisolve analyze [--quick] [--device 8800|280|470] [--shrink K] [--json]
                   (planted-defect proof fixtures, then a static
                    certification sweep — OOB/race proofs, plan lints,
                    bank-conflict counts, smem budget — over the Figure 5-8
                    matrix, cross-validated against the dynamic sanitizer;
                    nonzero exit on any unproven case, unrefuted fixture or
                    certified-but-hazardous cross-check)
  trisolve analyze --stability [--quick] [--device ...] [--json]
                   (numerical-stability certification: planted stability
                    fixtures, then dominance / pivot-freedom / error-bound
                    certificates over the Figure 5-8 + many-small matrix x
                    layouts x precisions x workload classes; nonzero exit
                    on any unrefuted fixture, false proof or false
                    refutation)
  trisolve analyze --schedule [--quick] [--device ...] [--shrink K] [--json]
                   (happens-before certification of the pipelined stream
                    schedules: four planted schedule defects, then the
                    lowered schedule for every Figure 5-8 + many-small
                    point certified on all four ordering obligations, and
                    certified schedules executed under the dynamic
                    cross-stream tracker next to the one executable racy
                    fixture; nonzero exit on any unrefuted fixture,
                    uncertified schedule or prover/tracker disagreement)
  trisolve chaos   [--quick] [--device 8800|280|470] [--shrink K] [--seed S] [--json]
                   (forced-fault fixtures, then a seeded fault-injection
                    campaign over the Figure 5-8 matrix across dominant /
                    ill-conditioned / non-dominant workloads; nonzero exit
                    on any unrecovered case or failed fixture)
  trisolve serve-sim [--quick] [--chaos] [--requests N] [--scale X] [--seed S] [--json]
                   (solver-service load replay: planted-corruption and
                    breaker fixtures, then a seeded mixed-request campaign
                    against the three-device fleet through the admission /
                    coalescing / breaker / plan-database stack; --chaos adds
                    background faults and per-device storms; nonzero exit on
                    any lost request, late completion, cost-bound violation,
                    steady-state tuner evaluation, or breaker deadlock)
  trisolve report  [--quick] [--device 8800|280|470] [--json] [--prom]
                   (performance observatory: traced benchmark sweep with
                    per-kernel-family latency percentiles, achieved
                    bandwidth / arithmetic intensity and a roofline
                    limiter verdict cross-checked against the simulator;
                    --prom emits a Prometheus text scrape; nonzero exit
                    on any verdict disagreement)
  trisolve report  --regress BENCH.json [--quick]
                   (bench-regression gate: re-measure the cases a
                    committed BENCH_<n>.json recorded and fail on
                    significant regressions in dynamic-tuned ms, tuner
                    evaluations, heap allocations or recovery counters)
  trisolve sort    --len N [--device ...]     (SVI-C merge-sort demo)
  trisolve fft     --len N [--device ...]     (SVI-C four-step FFT demo)
  trisolve quicksort --len N [--device ...]   (SVII multi-stage quicksort demo)
";

/// The `--workload` systems (random dominant by default) for `shape`,
/// seeded by `--seed` (2011 by default).
fn workload<T: GpuScalar>(o: &CliOptions, shape: WorkloadShape) -> Result<SystemBatch<T>, String> {
    let seed = o.seed.unwrap_or(2011);
    let batch = match o.workload.unwrap_or(WorkloadKind::Random) {
        WorkloadKind::Random => random_dominant(shape, seed),
        WorkloadKind::Poisson => poisson_1d(shape, seed),
        WorkloadKind::Adi => adi_heat_lines(shape, 0.5),
        WorkloadKind::Spline => cubic_spline(shape, seed),
    };
    batch.map_err(|e| e.to_string())
}

/// The parameters `tuner` picks for `shape` on `gpu`'s device, and the
/// micro-benchmarks it ran (dynamic tuning runs them on `gpu`).
fn pick_params<T: GpuScalar>(
    tuner: TunerKind,
    gpu: &mut Gpu<T>,
    shape: WorkloadShape,
) -> (SolverParams, usize) {
    let q = gpu.spec().queryable().clone();
    match tuner {
        TunerKind::Default => (DefaultTuner.params_for(shape, &q, elem_bytes::<T>()), 0),
        TunerKind::Static => (StaticTuner.params_for(shape, &q, elem_bytes::<T>()), 0),
        TunerKind::Dynamic => {
            let cfg = DynamicTuner::new().tune_for(gpu, shape);
            (cfg.params_for(shape), cfg.evaluations)
        }
    }
}

/// Each simulated device's numerics run on the host's PCR row kernel, so
/// its instantiation is listed with the devices: two hosts' wall-clock
/// numbers compare only on the same one.
fn cmd_devices(o: &CliOptions) -> Result<(), String> {
    let row_kernel = trisolve::tridiag::pcr::row_kernel_width();
    if o.json {
        let rows: Vec<_> = DeviceSpec::paper_devices()
            .iter()
            .map(|d| {
                serde_json::json!({
                    "name": d.name(),
                    "queryable": d.queryable(),
                    "host_row_kernel": row_kernel,
                })
            })
            .collect();
        return print_json(&rows);
    }
    for d in DeviceSpec::paper_devices() {
        let q = d.queryable();
        println!(
            "{:<18} {:>4} SMs x {:>2} TPs  shared {:>2} KB  regs {:>5}  global {:>4} MB  (max on-chip f32: {})",
            q.name,
            q.num_processors,
            q.thread_procs_per_sm,
            q.shared_mem_per_sm_bytes / 1024,
            q.registers_per_sm,
            q.global_mem_bytes / (1024 * 1024),
            SolverParams::max_onchip_size(q, 4),
        );
    }
    println!("host PCR row kernel: {row_kernel}");
    Ok(())
}

fn cmd_solve<T: GpuScalar>(o: &CliOptions) -> Result<(), String> {
    let shape = o.shape()?;
    let dev = o.device();
    let batch = workload::<T>(o, shape)?;
    let tuner = o.tuner.unwrap_or(TunerKind::Dynamic);
    let (params, evals) = pick_params(tuner, &mut Gpu::<T>::new(dev.clone()), shape);
    let mut gpu: Gpu<T> = Gpu::new(dev.clone());
    let outcome = solve_batch_on_gpu(&mut gpu, &batch, &params).map_err(|e| e.to_string())?;
    let residual = batch_worst_relative_residual(&batch, &outcome.x).map_err(|e| e.to_string())?;
    let timeline = StageTimeline::from_outcome(&outcome);

    if o.json {
        return print_json(&serde_json::json!({
            "device": dev.name(),
            "workload": shape.label(),
            "tuner": tuner.name(),
            "tuning_evaluations": evals,
            "params": params,
            "plan": outcome.plan.summary(),
            "launches": outcome.kernel_stats.len(),
            "sim_time_ms": outcome.sim_time_ms(),
            "worst_relative_residual": residual,
            "stage_timeline": timeline,
        }));
    }
    println!("device    : {}", dev.name());
    println!(
        "workload  : {} ({} equations)",
        shape.label(),
        shape.total_equations()
    );
    println!("tuner     : {} ({evals} micro-benchmarks)", tuner.name());
    println!(
        "params    : S3={} T4={} P1={} {:?}",
        params.onchip_size, params.thomas_switch, params.stage1_target_systems, params.variant
    );
    println!("plan      : {}", outcome.plan.summary());
    println!(
        "sim time  : {:.3} ms over {} launches",
        outcome.sim_time_ms(),
        outcome.kernel_stats.len()
    );
    println!("residual  : {residual:.3e}");
    print!("{}", timeline.render_table());
    Ok(())
}

fn cmd_tune(o: &CliOptions) -> Result<(), String> {
    let shape = o.shape()?;
    let dev = o.device();
    let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
    let cfg = DynamicTuner::new().tune_for(&mut gpu, shape);

    if let Some(path) = &o.cache {
        let mut db = PlanDb::open(path);
        if let DbOrigin::Quarantined { reason, moved_to } = db.origin() {
            let to = moved_to
                .as_ref()
                .map_or(String::new(), |p| format!(" to {}", p.display()));
            eprintln!("warning: {path} quarantined{to}: {reason}");
        }
        // The key `solve_auto` reads for this device, width and size.
        let key = PlanDb::ungated_key(dev.name(), cfg.elem_bytes, shape.system_size);
        db.put(key, cfg.clone());
        db.save().map_err(|e| format!("{path}: {e}"))?;
        println!("saved to {path} ({} entries)", db.len());
    }
    if o.json {
        return print_json(&cfg);
    }
    println!(
        "{}: S3={} T4={} P1={} strided-from-stride={} ({} micro-benchmarks)",
        dev.name(),
        cfg.onchip_size,
        cfg.thomas_switch,
        cfg.stage1_target_systems,
        cfg.strided_from_stride,
        cfg.evaluations
    );
    Ok(())
}

fn cmd_compare(o: &CliOptions) -> Result<(), String> {
    let shape = o.shape()?;
    let batch = workload::<f32>(o, shape)?;
    let mut rows = Vec::new();
    for dev in DeviceSpec::paper_devices() {
        let times: Vec<f64> = [TunerKind::Default, TunerKind::Static, TunerKind::Dynamic]
            .into_iter()
            .map(|tuner| {
                let (params, _) = pick_params(tuner, &mut Gpu::<f32>::new(dev.clone()), shape);
                let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
                solve_batch_on_gpu(&mut gpu, &batch, &params)
                    .map_or(f64::INFINITY, |o| o.sim_time_ms())
            })
            .collect();
        rows.push((dev.name().to_string(), times));
    }
    if o.json {
        let out: Vec<_> = rows
            .iter()
            .map(|(name, t)| {
                serde_json::json!({
                    "device": name, "untuned_ms": t[0], "static_ms": t[1], "dynamic_ms": t[2]
                })
            })
            .collect();
        return print_json(&out);
    }
    println!("{} on all devices (simulated ms):", shape.label());
    println!(
        "{:<20} {:>10} {:>10} {:>10}",
        "device", "untuned", "static", "dynamic"
    );
    for (name, t) in rows {
        println!("{name:<20} {:>10.3} {:>10.3} {:>10.3}", t[0], t[1], t[2]);
    }
    Ok(())
}

fn cmd_trace(o: &CliOptions) -> Result<(), String> {
    let shape = o.shape()?;
    let dev = o.device();
    let batch = workload::<f32>(o, shape)?;
    let format = o.format.unwrap_or(TraceFormat::Chrome);

    let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
    gpu.set_tracer(Tracer::enabled());
    // Tune on the SAME traced gpu so the search telemetry (probe / move /
    // select / eval events) lands in the trace alongside the final solve.
    let tuner = o.tuner.unwrap_or(TunerKind::Dynamic);
    let (params, _) = pick_params(tuner, &mut gpu, shape);

    let outcome = solve_batch_on_gpu(&mut gpu, &batch, &params).map_err(|e| e.to_string())?;
    let residual = batch_worst_relative_residual(&batch, &outcome.x).map_err(|e| e.to_string())?;

    let tracer = gpu.tracer().clone();
    let events = tracer.events();
    let counters = tracer.counters();
    let (body, name) = match format {
        TraceFormat::Chrome => {
            let json = chrome_trace(&events, &counters);
            // Self-check before handing the file to Perfetto: the export
            // must parse as JSON and actually contain events.
            let parsed: serde_json::Value = serde_json::from_str(&json)
                .map_err(|e| format!("internal error: chrome trace is not valid JSON: {e}"))?;
            if parsed["traceEvents"].as_array().map_or(0, Vec::len) == 0 {
                return Err("internal error: chrome trace has no events".into());
            }
            (json, "chrome")
        }
        TraceFormat::Jsonl => (jsonl(&events), "jsonl"),
    };

    if let Some(path) = &o.out {
        std::fs::write(path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
    } else {
        println!("{body}");
    }

    // Summary on stderr so stdout stays machine-readable when no --out.
    eprintln!(
        "traced {} on {} ({} tuner): {:.3} simulated ms, residual {residual:.3e}",
        shape.label(),
        dev.name(),
        tuner.name(),
        outcome.sim_time_ms(),
    );
    let report = MetricsReport::from_trace(&events, &counters);
    eprint!("{}", report.render(8));
    eprint!("{}", StageTimeline::from_trace(&events).render_table());
    if let Some(path) = &o.out {
        eprintln!("wrote {name} trace ({} events) to {path}", events.len());
    }
    Ok(())
}

/// The report of a self-checking command: the matrix its flags select,
/// checked by its harness.
fn self_check(o: &CliOptions) -> Result<Report, String> {
    match o.command {
        "sanitize" => sanitize::run(&o.harness(HarnessOptions::full())),
        "analyze" if o.stability => Ok(analyze::run_stability(&o.harness(analyze::full_options()))),
        "analyze" if o.schedule => analyze::run_schedule(&o.harness(analyze::full_options())),
        "analyze" => analyze::run(&o.harness(analyze::full_options())),
        "chaos" => chaos::run(
            &o.harness(HarnessOptions::full()),
            o.seed.unwrap_or(chaos::CHAOS_SEED),
        ),
        _ => {
            let mut profile = if o.quick {
                LoadProfile::quick(o.chaos)
            } else {
                LoadProfile::full(o.chaos)
            };
            profile.requests = o.requests.unwrap_or(profile.requests);
            profile.seed = o.seed.unwrap_or(profile.seed);
            profile.load_scale = o.scale.unwrap_or(profile.load_scale);
            serve_sim::run(&profile)
        }
    }
}

fn cmd_report(o: &CliOptions) -> Result<(), String> {
    use trisolve::report;

    // Gate mode: compare a re-measured sweep against a committed
    // BENCH_<n>.json baseline.
    if let Some(path) = &o.regress {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let baseline: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
        let gate = report::regress_against(&baseline, o.quick)?;
        println!("bench-regression gate against {path}:");
        print!("{}", gate.render());
        let regressed = gate.regressions().len();
        return exit_rule(&[(
            regressed,
            format!("{regressed} metric(s) regressed against {path}"),
        )]);
    }

    // Observatory mode: traced sweep with per-family percentiles and
    // roofline attribution.
    let devices = o
        .device
        .clone()
        .map_or_else(DeviceSpec::paper_devices, |d| vec![d]);
    let reports = report::run(&devices, o.quick);
    if o.prom {
        print!("{}", report::to_prometheus(&reports));
    } else if o.json {
        print_json(&report::to_json(&reports))?;
    } else {
        for r in &reports {
            print!("{}", r.render());
        }
    }
    let disagreed = reports.iter().filter(|r| !r.agreement_ok()).count();
    exit_rule(&[(
        disagreed,
        format!("roofline limiter verdict disagreed with the simulator on {disagreed} device(s)"),
    )])
}

/// `len` random keys (seed 2011), for the sort demos.
fn random_keys(len: usize) -> Vec<u32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2011);
    (0..len).map(|_| rng.gen()).collect()
}

/// The demos' own check: the output must come back sorted.
fn check_sorted(keys: &[u32]) -> Result<(), String> {
    if keys.windows(2).all(|w| w[0] <= w[1]) {
        Ok(())
    } else {
        Err("internal error: output is not sorted".into())
    }
}

/// `--len`, required to be a power of two.
fn pow2_len(o: &CliOptions) -> Result<usize, String> {
    let len = o.len.ok_or(CliError::Missing("len"))?;
    if !len.is_power_of_two() {
        return Err("--len must be a power of two".into());
    }
    Ok(len)
}

fn cmd_sort(o: &CliOptions) -> Result<(), String> {
    let len = pow2_len(o)?;
    let dev = o.device();
    let data = random_keys(len);
    let mut gpu: Gpu<u32> = Gpu::new(dev.clone());
    let tuned = trisolve::dnc::tune_sort(&mut gpu, len);
    let out =
        trisolve::dnc::sort_on_gpu(&mut gpu, &data, tuned.params).map_err(|e| e.to_string())?;
    check_sorted(&out.data)?;
    println!(
        "sorted {len} keys on {} in {:.3} simulated ms (tile {}, coop {}; {} tuning probes)",
        dev.name(),
        out.sim_time_s * 1e3,
        tuned.params.tile_size,
        tuned.params.coop_threshold,
        tuned.evaluations
    );
    Ok(())
}

fn cmd_fft(o: &CliOptions) -> Result<(), String> {
    let len = pow2_len(o)?;
    let dev = o.device();
    let re: Vec<f64> = (0..len)
        .map(|i| ((i * 37 % 512) as f64) / 256.0 - 1.0)
        .collect();
    let im = vec![0.0f64; len];
    let mut gpu: Gpu<f64> = Gpu::new(dev.clone());
    let (params, evals) = trisolve::dnc::tune_fft(&mut gpu, len);
    let out = trisolve::dnc::fft_on_gpu(&mut gpu, &re, &im, params).map_err(|e| e.to_string())?;
    println!(
        "FFT of {len} points on {} in {:.3} simulated ms (split N1={}, {} tuning probes, {} launches)",
        dev.name(),
        out.sim_time_s * 1e3,
        params.n1,
        evals,
        out.kernel_stats.len()
    );
    Ok(())
}

fn cmd_quicksort(o: &CliOptions) -> Result<(), String> {
    let len = o.len.ok_or(CliError::Missing("len"))?;
    let dev = o.device();
    let data = random_keys(len);
    let mut gpu: Gpu<u32> = Gpu::new(dev.clone());
    let (params, evals) = trisolve::dnc::tune_quicksort(&mut gpu, len);
    let out =
        trisolve::dnc::quicksort_on_gpu(&mut gpu, &data, params).map_err(|e| e.to_string())?;
    check_sorted(&out.data)?;
    println!(
        "quicksorted {len} keys on {} in {:.3} simulated ms \
         (on-chip {}, coop {}; {} probes, {} launches)",
        dev.name(),
        out.sim_time_s * 1e3,
        params.onchip_threshold,
        params.coop_threshold,
        evals,
        out.kernel_stats.len()
    );
    Ok(())
}
