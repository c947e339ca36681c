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
//! Dependency-free argument parsing (`--key value` pairs after a
//! subcommand); `--json` switches the output to machine-readable JSON.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trisolve::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "devices" => cmd_devices(&opts),
        "solve" => cmd_solve(&opts),
        "tune" => cmd_tune(&opts),
        "compare" => cmd_compare(&opts),
        "trace" => cmd_trace(&opts),
        "sanitize" => cmd_sanitize(&opts),
        "analyze" => cmd_analyze(&opts),
        "chaos" => cmd_chaos(&opts),
        "serve-sim" => cmd_serve_sim(&opts),
        "report" => cmd_report(&opts),
        "sort" => cmd_sort(&opts),
        "fft" => cmd_fft(&opts),
        "quicksort" => cmd_quicksort(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
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
  trisolve compare --systems M --size N [--seed S] [--json]
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
                    evaluations or recovery counters)
  trisolve sort    --len N [--device ...]     (SVI-C merge-sort demo)
  trisolve fft     --len N [--device ...]     (SVI-C four-step FFT demo)
  trisolve quicksort --len N [--device ...]   (SVII multi-stage quicksort demo)
";

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{k}`"));
        };
        if key == "json"
            || key == "quick"
            || key == "stability"
            || key == "schedule"
            || key == "prom"
            || key == "chaos"
        {
            map.insert(key.to_string(), "true".into());
            continue;
        }
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), v.clone());
    }
    Ok(map)
}

fn opt_usize(opts: &Opts, key: &str) -> Result<usize, String> {
    opts.get(key)
        .ok_or_else(|| format!("missing --{key}"))?
        .parse()
        .map_err(|_| format!("--{key} must be a number"))
}

fn device(opts: &Opts) -> Result<DeviceSpec, String> {
    match opts.get("device").map_or("470", String::as_str) {
        "8800" | "8800gtx" => Ok(DeviceSpec::geforce_8800_gtx()),
        "280" | "gtx280" => Ok(DeviceSpec::gtx_280()),
        "470" | "gtx470" => Ok(DeviceSpec::gtx_470()),
        other => Err(format!("unknown device `{other}` (use 8800, 280 or 470)")),
    }
}

/// `--seed`, or `default` when absent.
fn opt_seed(opts: &Opts, default: u64) -> Result<u64, String> {
    opts.get("seed").map_or(Ok(default), |s| {
        s.parse().map_err(|_| "--seed must be a number".to_string())
    })
}

fn workload(opts: &Opts, shape: WorkloadShape) -> Result<SystemBatch<f32>, String> {
    let seed = opt_seed(opts, 2011)?;
    let kind = opts.get("workload").map_or("random", String::as_str);
    let batch = match kind {
        "random" => random_dominant(shape, seed),
        "poisson" => poisson_1d(shape, seed),
        "adi" => adi_heat_lines(shape, 0.5),
        "spline" => cubic_spline(shape, seed),
        other => return Err(format!("unknown workload `{other}`")),
    };
    batch.map_err(|e| e.to_string())
}

fn json_flag(opts: &Opts) -> bool {
    opts.contains_key("json")
}

/// Each simulated device's numerics run on the host's PCR row kernel, so
/// its instantiation is listed with the devices: two hosts' wall-clock
/// numbers compare only on the same one.
fn cmd_devices(opts: &Opts) -> Result<(), String> {
    let row_kernel = trisolve::tridiag::pcr::row_kernel_width();
    if json_flag(opts) {
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
        println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        return Ok(());
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

fn pick_params(
    opts: &Opts,
    shape: WorkloadShape,
    dev: &DeviceSpec,
) -> Result<(SolverParams, &'static str, usize), String> {
    let q = dev.queryable();
    match opts.get("tuner").map_or("dynamic", String::as_str) {
        "default" => Ok((DefaultTuner.params_for(shape, q, 4), "default", 0)),
        "static" => Ok((StaticTuner.params_for(shape, q, 4), "static", 0)),
        "dynamic" => {
            let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
            let mut tuner = DynamicTuner::new();
            let cfg = tuner.tune_for(&mut gpu, shape);
            Ok((cfg.params_for(shape), "dynamic", cfg.evaluations))
        }
        other => Err(format!("unknown tuner `{other}`")),
    }
}

fn cmd_solve(opts: &Opts) -> Result<(), String> {
    let shape = WorkloadShape::new(opt_usize(opts, "systems")?, opt_usize(opts, "size")?);
    let dev = device(opts)?;
    match opts.get("precision").map_or("f32", String::as_str) {
        "f32" => {}
        "f64" => return solve_f64(opts, shape, dev),
        other => return Err(format!("unknown precision `{other}` (use f32 or f64)")),
    }
    let batch = workload(opts, shape)?;
    let (params, tuner_name, evals) = pick_params(opts, shape, &dev)?;
    let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
    let mut backend = GpuBackend::new(&mut gpu);
    let mut session = backend.prepare(shape, &params).map_err(|e| e.to_string())?;
    let outcome = backend
        .solve(&mut session, &batch, &params)
        .map_err(|e| e.to_string())?;
    let residual = batch_worst_relative_residual(&batch, &outcome.x).map_err(|e| e.to_string())?;
    let timeline = StageTimeline::from_outcome(&outcome);

    if json_flag(opts) {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({
                "device": dev.name(),
                "workload": shape.label(),
                "tuner": tuner_name,
                "tuning_evaluations": evals,
                "params": params,
                "plan": outcome.plan.summary(),
                "launches": outcome.kernel_stats.len(),
                "sim_time_ms": outcome.sim_time_ms(),
                "worst_relative_residual": residual,
                "stage_timeline": timeline,
            }))
            .unwrap()
        );
    } else {
        println!("device    : {}", dev.name());
        println!(
            "workload  : {} ({} equations)",
            shape.label(),
            shape.total_equations()
        );
        println!("tuner     : {tuner_name} ({evals} micro-benchmarks)");
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
    }
    Ok(())
}

fn solve_f64(opts: &Opts, shape: WorkloadShape, dev: DeviceSpec) -> Result<(), String> {
    let seed = opt_seed(opts, 2011)?;
    let batch: SystemBatch<f64> = random_dominant(shape, seed).map_err(|e| e.to_string())?;
    let params = StaticTuner.params_for(shape, dev.queryable(), 8);
    let mut gpu: Gpu<f64> = Gpu::new(dev.clone());
    let outcome = trisolve::solver::solve_batch_on_gpu(&mut gpu, &batch, &params)
        .map_err(|e| e.to_string())?;
    let residual = batch_worst_relative_residual(&batch, &outcome.x).map_err(|e| e.to_string())?;
    println!(
        "f64 solve on {}: {:.3} ms, residual {residual:.3e}",
        dev.name(),
        outcome.sim_time_ms()
    );
    Ok(())
}

fn cmd_tune(opts: &Opts) -> Result<(), String> {
    let shape = WorkloadShape::new(opt_usize(opts, "systems")?, opt_usize(opts, "size")?);
    let dev = device(opts)?;
    let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
    let mut tuner = DynamicTuner::new();
    let cfg = tuner.tune_for(&mut gpu, shape);

    if let Some(path) = opts.get("cache") {
        let path = PathBuf::from(path);
        let mut cache = TuningCache::load(&path).map_err(|e| e.to_string())?;
        cache.insert(dev.name(), cfg.clone());
        cache.save(&path).map_err(|e| e.to_string())?;
        println!("saved to {} ({} entries)", path.display(), cache.len());
    }
    if json_flag(opts) {
        println!("{}", serde_json::to_string_pretty(&cfg).unwrap());
    } else {
        println!(
            "{}: S3={} T4={} P1={} strided-from-stride={} ({} micro-benchmarks)",
            dev.name(),
            cfg.onchip_size,
            cfg.thomas_switch,
            cfg.stage1_target_systems,
            cfg.strided_from_stride,
            cfg.evaluations
        );
    }
    Ok(())
}

fn cmd_compare(opts: &Opts) -> Result<(), String> {
    let shape = WorkloadShape::new(opt_usize(opts, "systems")?, opt_usize(opts, "size")?);
    let batch = workload(opts, shape)?;
    let mut rows = Vec::new();
    for dev in DeviceSpec::paper_devices() {
        let q = dev.queryable().clone();
        let mut times = Vec::new();
        for tuner in ["default", "static", "dynamic"] {
            let mut o = opts.clone();
            o.insert("tuner".into(), tuner.into());
            let (params, _, _) = pick_params(&o, shape, &dev)?;
            let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
            let ms = trisolve::solver::solver::measure_solve_time(&mut gpu, &batch, &params)
                .map_or(f64::INFINITY, |t| t * 1e3);
            times.push(ms);
        }
        rows.push((q.name.clone(), times));
    }
    if json_flag(opts) {
        let out: Vec<_> = rows
            .iter()
            .map(|(name, t)| {
                serde_json::json!({
                    "device": name, "untuned_ms": t[0], "static_ms": t[1], "dynamic_ms": t[2]
                })
            })
            .collect();
        println!("{}", serde_json::to_string_pretty(&out).unwrap());
    } else {
        println!("{} on all devices (simulated ms):", shape.label());
        println!(
            "{:<20} {:>10} {:>10} {:>10}",
            "device", "untuned", "static", "dynamic"
        );
        for (name, t) in rows {
            println!("{name:<20} {:>10.3} {:>10.3} {:>10.3}", t[0], t[1], t[2]);
        }
    }
    Ok(())
}

fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let shape = WorkloadShape::new(opt_usize(opts, "systems")?, opt_usize(opts, "size")?);
    let dev = device(opts)?;
    let batch = workload(opts, shape)?;
    let format = opts.get("format").map_or("chrome", String::as_str);
    if format != "chrome" && format != "jsonl" {
        return Err(format!("unknown format `{format}` (use chrome or jsonl)"));
    }

    let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
    gpu.set_tracer(Tracer::enabled());

    let (params, tuner_name) = match opts.get("tuner").map_or("dynamic", String::as_str) {
        "default" => (
            DefaultTuner.params_for(shape, dev.queryable(), 4),
            "default",
        ),
        "static" => (StaticTuner.params_for(shape, dev.queryable(), 4), "static"),
        "dynamic" => {
            // Tune on the SAME traced gpu so the search telemetry (probe /
            // move / select / eval events) lands in the trace alongside the
            // final solve.
            let mut tuner = DynamicTuner::new();
            let cfg = tuner.tune_for(&mut gpu, shape);
            (cfg.params_for(shape), "dynamic")
        }
        other => return Err(format!("unknown tuner `{other}`")),
    };

    let outcome = {
        let mut backend = GpuBackend::new(&mut gpu);
        let mut session = backend.prepare(shape, &params).map_err(|e| e.to_string())?;
        backend
            .solve(&mut session, &batch, &params)
            .map_err(|e| e.to_string())?
    };
    let residual = batch_worst_relative_residual(&batch, &outcome.x).map_err(|e| e.to_string())?;

    let tracer = gpu.tracer().clone();
    let events = tracer.events();
    let counters = tracer.counters();
    let body = if format == "chrome" {
        let json = chrome_trace(&events, &counters);
        // Self-check before handing the file to Perfetto: the export must
        // parse as JSON and actually contain events.
        let parsed: serde_json::Value = serde_json::from_str(&json)
            .map_err(|e| format!("internal error: chrome trace is not valid JSON: {e}"))?;
        let n = parsed["traceEvents"].as_array().map_or(0, Vec::len);
        if n == 0 {
            return Err("internal error: chrome trace has no events".into());
        }
        json
    } else {
        jsonl(&events)
    };

    if let Some(path) = opts.get("out") {
        std::fs::write(path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
    } else {
        println!("{body}");
    }

    // Summary on stderr so stdout stays machine-readable when no --out.
    eprintln!(
        "traced {} on {} ({tuner_name} tuner): {:.3} simulated ms, residual {residual:.3e}",
        shape.label(),
        dev.name(),
        outcome.sim_time_ms(),
    );
    let report = MetricsReport::from_trace(&events, &counters);
    eprint!("{}", report.render(8));
    eprint!("{}", StageTimeline::from_trace(&events).render_table());
    if let Some(path) = opts.get("out") {
        eprintln!("wrote {format} trace ({} events) to {path}", events.len());
    }
    Ok(())
}

fn cmd_sanitize(opts: &Opts) -> Result<(), String> {
    use trisolve::sanitize;

    let mut sweep_opts = if opts.contains_key("quick") {
        sanitize::SweepOptions::quick()
    } else {
        sanitize::SweepOptions::full()
    };
    if opts.contains_key("device") {
        sweep_opts.devices = vec![device(opts)?];
    }
    if opts.contains_key("shrink") {
        sweep_opts.shrink = opt_usize(opts, "shrink")?.max(1);
    }

    let fixtures = sanitize::fixture_checks()?;
    let cases = sanitize::sweep(&sweep_opts)?;
    let missed: Vec<_> = fixtures.iter().filter(|f| !f.detected).collect();
    let dirty: Vec<_> = cases.iter().filter(|c| !c.is_clean()).collect();
    let launches: usize = cases.iter().map(|c| c.launches).sum();

    if json_flag(opts) {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({
                "fixtures": fixtures.iter().map(|f| serde_json::json!({
                    "name": f.name, "detected": f.detected, "detail": f.detail,
                })).collect::<Vec<_>>(),
                "cases": cases.iter().map(|c| serde_json::json!({
                    "label": c.label,
                    "launches": c.launches,
                    "hazards": c.hazards,
                    "warnings": c.warnings,
                })).collect::<Vec<_>>(),
                "launches_checked": launches,
                "clean": missed.is_empty() && dirty.is_empty(),
            }))
            .unwrap()
        );
    } else {
        println!("fixture self-check (each plants one hazard):");
        for f in &fixtures {
            let mark = if f.detected { "detected" } else { "MISSED" };
            println!("  [{mark:^8}] {:<32} {}", f.name, f.detail);
        }
        println!(
            "\nshipping sweep ({} cases, {launches} launches):",
            cases.len()
        );
        for c in &cases {
            let verdict = if c.is_clean() { "clean" } else { "HAZARDS" };
            let warn = if c.warnings.is_empty() {
                String::new()
            } else {
                format!("  ({} warnings)", c.warnings.len())
            };
            println!(
                "  [{verdict:^7}] {:<44} {:>3} launches{warn}",
                c.label, c.launches
            );
            for h in &c.hazards {
                println!("      {h}");
            }
        }
    }
    if !missed.is_empty() {
        return Err(format!(
            "sanitizer failed its self-check: {} fixture(s) undetected",
            missed.len()
        ));
    }
    if !dirty.is_empty() {
        return Err(format!("{} shipping case(s) produced hazards", dirty.len()));
    }
    Ok(())
}

fn cmd_analyze(opts: &Opts) -> Result<(), String> {
    use trisolve::analyze;

    let mut a_opts = if opts.contains_key("quick") {
        analyze::AnalyzeOptions::quick()
    } else {
        analyze::AnalyzeOptions::full()
    };
    if opts.contains_key("device") {
        a_opts.devices = vec![device(opts)?];
    }
    if opts.contains_key("shrink") {
        a_opts.shrink = opt_usize(opts, "shrink")?.max(1);
    }
    if opts.contains_key("stability") {
        return cmd_analyze_stability(&a_opts, json_flag(opts));
    }
    if opts.contains_key("schedule") {
        return cmd_analyze_schedule(&a_opts, json_flag(opts));
    }

    let fixtures = analyze::fixture_checks();
    let cases = analyze::sweep(&a_opts);
    let checks = analyze::cross_validate(&a_opts)?;
    let unrefuted: Vec<_> = fixtures.iter().filter(|f| !f.refuted).collect();
    let unproven: Vec<_> = cases.iter().filter(|c| !c.certified).collect();
    let unsound: Vec<_> = checks.iter().filter(|c| !c.is_sound()).collect();
    let obligations: usize = cases.iter().map(|c| c.obligations).sum();

    if json_flag(opts) {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({
                "fixtures": fixtures.iter().map(|f| serde_json::json!({
                    "name": f.name, "refuted": f.refuted, "detail": f.detail,
                })).collect::<Vec<_>>(),
                "cases": cases.iter().map(|c| serde_json::json!({
                    "label": c.label,
                    "certified": c.certified,
                    "obligations": c.obligations,
                    "worst_bank_degree": c.worst_bank_degree,
                    "failures": c.failures,
                })).collect::<Vec<_>>(),
                "cross_checks": checks.iter().map(|c| serde_json::json!({
                    "label": c.label,
                    "certified": c.certified,
                    "hazards": c.hazards,
                    "sound": c.is_sound(),
                })).collect::<Vec<_>>(),
                "obligations_checked": obligations,
                "certified": unrefuted.is_empty() && unproven.is_empty() && unsound.is_empty(),
            }))
            .unwrap()
        );
    } else {
        println!("fixture self-check (each plants one defect the prover must refute):");
        for f in &fixtures {
            let mark = if f.refuted { "refuted" } else { "MISSED" };
            println!("  [{mark:^8}] {:<32} {}", f.name, f.detail);
        }
        println!(
            "\ncertification sweep ({} cases, {obligations} obligations):",
            cases.len()
        );
        for c in &cases {
            let verdict = if c.certified { "proven" } else { "UNPROVEN" };
            println!(
                "  [{verdict:^8}] {:<44} {:>3} obligations, worst bank degree {}",
                c.label, c.obligations, c.worst_bank_degree
            );
            for f in &c.failures {
                println!("      {f}");
            }
        }
        println!("\ncross-validation against the dynamic sanitizer:");
        for c in &checks {
            let verdict = if !c.is_sound() {
                "UNSOUND"
            } else if c.certified {
                "agrees"
            } else {
                "uncertified"
            };
            println!("  [{verdict:^11}] {:<44}", c.label);
            for h in &c.hazards {
                println!("      {h}");
            }
        }
    }
    if !unrefuted.is_empty() {
        return Err(format!(
            "analyzer failed its self-check: {} fixture(s) unrefuted",
            unrefuted.len()
        ));
    }
    if !unproven.is_empty() {
        return Err(format!("{} sweep case(s) left unproven", unproven.len()));
    }
    if !unsound.is_empty() {
        return Err(format!(
            "{} statically-certified case(s) produced dynamic hazards",
            unsound.len()
        ));
    }
    Ok(())
}

fn cmd_analyze_stability(
    a_opts: &trisolve::analyze::AnalyzeOptions,
    json: bool,
) -> Result<(), String> {
    use trisolve::analyze;

    let fixtures = analyze::stability_fixture_checks();
    let cases = analyze::stability_sweep(a_opts);
    let unrefuted: Vec<_> = fixtures.iter().filter(|f| !f.refuted).collect();
    let false_proofs = cases
        .iter()
        .filter(|c| c.certified && !c.expected_certified)
        .count();
    let false_refutations = cases
        .iter()
        .filter(|c| !c.certified && c.expected_certified)
        .count();
    let certified = cases.iter().filter(|c| c.certified).count();
    let refuted = cases.len() - certified;
    let downgrades = cases
        .iter()
        .filter(|c| c.certified && !c.precision_safe)
        .count();

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({
                "fixtures": fixtures.iter().map(|f| serde_json::json!({
                    "name": f.name, "refuted": f.refuted, "detail": f.detail,
                })).collect::<Vec<_>>(),
                "cases": cases.iter().map(|c| serde_json::json!({
                    "label": c.label,
                    "expected_certified": c.expected_certified,
                    "certified": c.certified,
                    "precision_safe": c.precision_safe,
                    "bound_rel": c.bound_rel,
                    "bound_ulps": c.bound_ulps,
                    "failures": c.failures,
                })).collect::<Vec<_>>(),
                "certified": certified,
                "refuted": refuted,
                "precision_downgrades": downgrades,
                "false_proofs": false_proofs,
                "false_refutations": false_refutations,
                "sound": unrefuted.is_empty() && false_proofs == 0 && false_refutations == 0,
            }))
            .unwrap()
        );
    } else {
        println!("stability fixture self-check (each plants one numerical defect):");
        for f in &fixtures {
            let mark = if f.refuted { "refuted" } else { "MISSED" };
            println!("  [{mark:^8}] {:<44} {}", f.name, f.detail);
        }
        println!(
            "\nstability sweep ({} cases: {certified} certified, {refuted} refuted, \
             {downgrades} f32 downgrades):",
            cases.len()
        );
        for c in &cases {
            let verdict = if !c.passed() {
                "WRONG"
            } else if c.certified && !c.precision_safe {
                "downgrade"
            } else if c.certified {
                "certified"
            } else {
                "refuted"
            };
            if c.certified {
                println!(
                    "  [{verdict:^9}] {:<56} bound {:.1e} ({:.1e} ulps)",
                    c.label, c.bound_rel, c.bound_ulps
                );
            } else {
                println!(
                    "  [{verdict:^9}] {:<56} {}",
                    c.label,
                    c.failures
                        .iter()
                        .map(|f| f.split(':').next().unwrap_or(f))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
        }
    }
    if !unrefuted.is_empty() {
        return Err(format!(
            "certifier failed its self-check: {} stability fixture(s) unrefuted",
            unrefuted.len()
        ));
    }
    if false_proofs > 0 {
        return Err(format!(
            "{false_proofs} non-dominant case(s) falsely certified"
        ));
    }
    if false_refutations > 0 {
        return Err(format!(
            "{false_refutations} certifiable case(s) falsely refuted"
        ));
    }
    Ok(())
}

fn cmd_analyze_schedule(
    a_opts: &trisolve::analyze::AnalyzeOptions,
    json: bool,
) -> Result<(), String> {
    use trisolve::analyze;

    let fixtures = analyze::schedule_fixture_checks();
    let cases = analyze::schedule_sweep(a_opts);
    let checks = analyze::schedule_cross_validate(a_opts)?;
    let unrefuted: Vec<_> = fixtures.iter().filter(|f| !f.refuted).collect();
    let uncertified: Vec<_> = cases.iter().filter(|c| !c.certified).collect();
    let disagreeing: Vec<_> = checks.iter().filter(|c| !c.agrees()).collect();
    let nodes: usize = cases.iter().map(|c| c.nodes).sum();

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({
                "fixtures": fixtures.iter().map(|f| serde_json::json!({
                    "name": f.name, "refuted": f.refuted, "detail": f.detail,
                })).collect::<Vec<_>>(),
                "cases": cases.iter().map(|c| serde_json::json!({
                    "label": c.label,
                    "certified": c.certified,
                    "nodes": c.nodes,
                    "streams": c.streams,
                    "failures": c.failures,
                })).collect::<Vec<_>>(),
                "cross_checks": checks.iter().map(|c| serde_json::json!({
                    "label": c.label,
                    "certified": c.certified,
                    "hazards": c.hazards,
                    "agrees": c.agrees(),
                })).collect::<Vec<_>>(),
                "nodes_checked": nodes,
                "certified": unrefuted.is_empty() && uncertified.is_empty()
                    && disagreeing.is_empty(),
            }))
            .unwrap()
        );
    } else {
        println!("schedule fixture self-check (each plants one ordering defect):");
        for f in &fixtures {
            let mark = if f.refuted { "refuted" } else { "MISSED" };
            println!("  [{mark:^8}] {:<20} {}", f.name, f.detail);
        }
        println!(
            "\nschedule certification sweep ({} schedules, {nodes} DAG nodes):",
            cases.len()
        );
        for c in &cases {
            let verdict = if c.certified { "certified" } else { "REFUTED" };
            println!(
                "  [{verdict:^9}] {:<44} {:>3} nodes on {} streams",
                c.label, c.nodes, c.streams
            );
            for f in &c.failures {
                println!("      {f}");
            }
        }
        println!("\ncross-validation against the dynamic cross-stream tracker:");
        for c in &checks {
            let verdict = if !c.agrees() {
                "DISAGREES"
            } else if c.certified {
                "clean"
            } else {
                "races"
            };
            println!("  [{verdict:^9}] {:<44}", c.label);
            for h in c.hazards.iter().take(3) {
                println!("      {h}");
            }
        }
    }
    if !unrefuted.is_empty() {
        return Err(format!(
            "certifier failed its self-check: {} schedule fixture(s) unrefuted",
            unrefuted.len()
        ));
    }
    if !uncertified.is_empty() {
        return Err(format!(
            "{} lowered schedule(s) left uncertified",
            uncertified.len()
        ));
    }
    if !disagreeing.is_empty() {
        return Err(format!(
            "{} cross-check(s) where prover and tracker disagree",
            disagreeing.len()
        ));
    }
    Ok(())
}

fn cmd_chaos(opts: &Opts) -> Result<(), String> {
    use trisolve::chaos;

    let mut chaos_opts = if opts.contains_key("quick") {
        chaos::ChaosOptions::quick()
    } else {
        chaos::ChaosOptions::full()
    };
    if opts.contains_key("device") {
        chaos_opts.devices = vec![device(opts)?];
    }
    if opts.contains_key("shrink") {
        chaos_opts.shrink = opt_usize(opts, "shrink")?.max(1);
    }
    chaos_opts.seed = opt_seed(opts, chaos_opts.seed)?;

    let fixtures = chaos::fixture_checks()?;
    let cases = chaos::campaign(&chaos_opts)?;
    let failed_fixtures: Vec<_> = fixtures.iter().filter(|f| !f.passed).collect();
    let unrecovered: Vec<_> = cases.iter().filter(|c| !c.recovered).collect();
    let faults: usize = cases.iter().map(|c| c.faults_injected).sum();
    let retries: usize = cases.iter().map(|c| c.retries).sum();
    let fallbacks: usize = cases.iter().map(|c| c.fallbacks).sum();

    if json_flag(opts) {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({
                "seed": chaos_opts.seed,
                "fixtures": fixtures.iter().map(|f| serde_json::json!({
                    "name": f.name, "passed": f.passed, "detail": f.detail,
                })).collect::<Vec<_>>(),
                "cases": cases.iter().map(|c| serde_json::json!({
                    "label": c.label,
                    "recovered": c.recovered,
                    "recovered_by": c.recovered_by,
                    "residual": c.residual,
                    "vs_reference": c.vs_reference,
                    "faults_injected": c.faults_injected,
                    "attempts": c.attempts,
                    "retries": c.retries,
                    "fallbacks": c.fallbacks,
                    "error": c.error,
                })).collect::<Vec<_>>(),
                "faults_injected": faults,
                "retries": retries,
                "fallbacks": fallbacks,
                "all_recovered": failed_fixtures.is_empty() && unrecovered.is_empty(),
            }))
            .unwrap()
        );
    } else {
        println!("fixture self-check (each forces one recovery mechanism):");
        for f in &fixtures {
            let mark = if f.passed { "passed" } else { "FAILED" };
            println!("  [{mark:^8}] {:<52} {}", f.name, f.detail);
        }
        println!(
            "\nfault campaign (seed {}, {} cases, {faults} faults injected):",
            chaos_opts.seed,
            cases.len()
        );
        for c in &cases {
            if c.recovered {
                println!(
                    "  [recovered] {:<44} via {:<16} residual {:.1e}  \
                     faults {} retries {} fallbacks {}",
                    c.label, c.recovered_by, c.residual, c.faults_injected, c.retries, c.fallbacks
                );
            } else {
                println!(
                    "  [ DEAD    ] {:<44} {}",
                    c.label,
                    c.error.as_deref().unwrap_or("unknown failure")
                );
            }
        }
        println!("\ntotals: {faults} faults | {retries} retries | {fallbacks} fallbacks");
    }
    if !failed_fixtures.is_empty() {
        return Err(format!(
            "resilience layer failed its self-check: {} fixture(s)",
            failed_fixtures.len()
        ));
    }
    if !unrecovered.is_empty() {
        return Err(format!(
            "{} campaign case(s) did not recover",
            unrecovered.len()
        ));
    }
    Ok(())
}

fn cmd_serve_sim(opts: &Opts) -> Result<(), String> {
    use trisolve::serve::LoadProfile;
    use trisolve::serve_sim;

    let chaos = opts.contains_key("chaos");
    let mut profile = if opts.contains_key("quick") {
        LoadProfile::quick(chaos)
    } else {
        LoadProfile::full(chaos)
    };
    if opts.contains_key("requests") {
        profile.requests = opt_usize(opts, "requests")?;
    }
    profile.seed = opt_seed(opts, profile.seed)?;
    if let Some(x) = opts.get("scale") {
        profile.load_scale = x
            .parse()
            .map_err(|_| "--scale must be a number".to_string())?;
    }

    let fixtures = serve_sim::fixture_checks()?;
    let outcome = serve_sim::campaign(&profile)?;
    let violations = serve_sim::gate(&outcome);
    let failed_fixtures: Vec<_> = fixtures.iter().filter(|f| !f.passed).collect();
    let s = &outcome.stats;

    if json_flag(opts) {
        let lat = |l: &trisolve::serve::LatencyStats| {
            serde_json::json!({
                "count": l.count, "mean_ms": l.mean_ms, "p50_ms": l.p50_ms,
                "p90_ms": l.p90_ms, "p99_ms": l.p99_ms, "max_ms": l.max_ms,
            })
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({
                "seed": profile.seed,
                "requests": profile.requests,
                "load_scale": profile.load_scale,
                "chaos": profile.chaos,
                "fixtures": fixtures.iter().map(|f| serde_json::json!({
                    "name": f.name, "passed": f.passed, "detail": f.detail,
                })).collect::<Vec<_>>(),
                "completed": s.completed,
                "shed": serde_json::json!({
                    "total": s.shed_total(),
                    "queue_full": s.shed_queue_full,
                    "deadline": s.shed_deadline,
                    "breaker": s.shed_breaker,
                    "exhausted": s.shed_exhausted,
                }),
                "lost": s.lost(),
                "deadline_misses": s.deadline_misses,
                "batches": s.batches,
                "coalesced": s.coalesced,
                "breaker": serde_json::json!({
                    "trips": s.breaker_trips,
                    "recoveries": s.breaker_recoveries,
                    "reopens": s.breaker_reopens,
                }),
                "faults": s.faults,
                "cpu_recoveries": s.cpu_recoveries,
                "warm_evals": outcome.warm_evals,
                "campaign_tuner_evals": s.tuner_evals,
                "restart_warm_evals": outcome.restart_warm_evals,
                "plan_db_entries": outcome.db_len,
                "worst_residual": s.worst_residual,
                "makespan_s": s.makespan_s,
                "throughput_rps": s.throughput_rps,
                "queue_ms": lat(&s.queue_ms),
                "solve_ms": lat(&s.solve_ms),
                "e2e_ms": lat(&s.e2e_ms),
                "devices": s.devices.iter().map(|d| serde_json::json!({
                    "name": d.name, "requests": d.requests, "batches": d.batches,
                    "busy_s": d.busy_s, "trips": d.trips,
                    "recoveries": d.recoveries, "breaker": d.final_breaker_state,
                    "admits_after_cooldown": d.admits_after_cooldown,
                })).collect::<Vec<_>>(),
                "violations": violations,
                "passed": failed_fixtures.is_empty() && violations.is_empty(),
            }))
            .unwrap()
        );
    } else {
        println!("fixture self-check (each forces one service mechanism):");
        for f in &fixtures {
            let mark = if f.passed { "passed" } else { "FAILED" };
            println!("  [{mark:^8}] {:<52} {}", f.name, f.detail);
        }
        println!(
            "\nservice campaign (seed {}, {} requests, load x{}{}):",
            profile.seed,
            profile.requests,
            profile.load_scale,
            if profile.chaos { ", chaos" } else { "" }
        );
        println!(
            "  dispositions : {} completed, {} shed ({} queue-full / {} deadline / \
             {} breaker / {} exhausted), {} lost",
            s.completed,
            s.shed_total(),
            s.shed_queue_full,
            s.shed_deadline,
            s.shed_breaker,
            s.shed_exhausted,
            s.lost()
        );
        println!(
            "  batching     : {} batches ({} requests coalesced into shared windows)",
            s.batches, s.coalesced
        );
        println!(
            "  breaker      : {} trip(s), {} recovery(ies), {} reopen(s); {} faults injected",
            s.breaker_trips, s.breaker_recoveries, s.breaker_reopens, s.faults
        );
        println!(
            "  plan db      : {} warm-up evals, {} in-campaign evals, {} after restart \
             ({} entries)",
            outcome.warm_evals, s.tuner_evals, outcome.restart_warm_evals, outcome.db_len
        );
        println!(
            "  latency (ms) : queue p50 {:.3} p99 {:.3} | solve p50 {:.3} p99 {:.3} | \
             e2e p99 {:.3} max {:.3}",
            s.queue_ms.p50_ms,
            s.queue_ms.p99_ms,
            s.solve_ms.p50_ms,
            s.solve_ms.p99_ms,
            s.e2e_ms.p99_ms,
            s.e2e_ms.max_ms
        );
        println!(
            "  throughput   : {:.0} req/s over {:.2} simulated s, worst residual {:.1e}",
            s.throughput_rps, s.makespan_s, s.worst_residual
        );
        for d in &s.devices {
            println!(
                "    {:<18} {:>6} requests {:>5} batches  busy {:>7.2}s  breaker `{}`",
                d.name, d.requests, d.batches, d.busy_s, d.final_breaker_state
            );
        }
        for v in &violations {
            println!("  VIOLATION: {v}");
        }
    }
    if !failed_fixtures.is_empty() {
        return Err(format!(
            "service failed its self-check: {} fixture(s)",
            failed_fixtures.len()
        ));
    }
    if !violations.is_empty() {
        return Err(format!(
            "campaign violated {} invariant(s)",
            violations.len()
        ));
    }
    Ok(())
}

fn cmd_report(opts: &Opts) -> Result<(), String> {
    use trisolve::report;

    let quick = opts.contains_key("quick");
    // Gate mode: compare a re-measured sweep against a committed
    // BENCH_<n>.json baseline.
    if let Some(path) = opts.get("regress") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let baseline: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
        let gate = report::regress_against(&baseline, quick)?;
        println!("bench-regression gate against {path}:");
        print!("{}", gate.render());
        if !gate.passed() {
            return Err(format!(
                "{} metric(s) regressed against {path}",
                gate.regressions().len()
            ));
        }
        return Ok(());
    }

    // Observatory mode: traced sweep with per-family percentiles and
    // roofline attribution.
    let devices = if opts.contains_key("device") {
        vec![device(opts)?]
    } else {
        DeviceSpec::paper_devices()
    };
    let reports = report::run(&devices, quick);
    if opts.contains_key("prom") {
        print!("{}", report::to_prometheus(&reports));
    } else if json_flag(opts) {
        println!(
            "{}",
            serde_json::to_string_pretty(&report::to_json(&reports)).unwrap()
        );
    } else {
        for r in &reports {
            print!("{}", r.render());
        }
    }
    let disagreed: Vec<_> = reports.iter().filter(|r| !r.agreement_ok()).collect();
    if !disagreed.is_empty() {
        return Err(format!(
            "roofline limiter verdict disagreed with the simulator on {} device(s)",
            disagreed.len()
        ));
    }
    Ok(())
}

fn cmd_sort(opts: &Opts) -> Result<(), String> {
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    let len = opt_usize(opts, "len")?;
    if !len.is_power_of_two() {
        return Err("--len must be a power of two".into());
    }
    let dev = device(opts)?;
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    let data: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
    let mut gpu: trisolve::gpu::Gpu<u32> = trisolve::gpu::Gpu::new(dev.clone());
    let tuned = trisolve::dnc::tune_sort(&mut gpu, len);
    let out =
        trisolve::dnc::sort_on_gpu(&mut gpu, &data, tuned.params).map_err(|e| e.to_string())?;
    assert!(out.data.windows(2).all(|w| w[0] <= w[1]));
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

fn cmd_fft(opts: &Opts) -> Result<(), String> {
    let len = opt_usize(opts, "len")?;
    if !len.is_power_of_two() {
        return Err("--len must be a power of two".into());
    }
    let dev = device(opts)?;
    let re: Vec<f64> = (0..len)
        .map(|i| ((i * 37 % 512) as f64) / 256.0 - 1.0)
        .collect();
    let im = vec![0.0f64; len];
    let mut gpu: trisolve::gpu::Gpu<f64> = trisolve::gpu::Gpu::new(dev.clone());
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

fn cmd_quicksort(opts: &Opts) -> Result<(), String> {
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    let len = opt_usize(opts, "len")?;
    let dev = device(opts)?;
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    let data: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
    let mut gpu: trisolve::gpu::Gpu<u32> = trisolve::gpu::Gpu::new(dev.clone());
    let (params, evals) = trisolve::dnc::tune_quicksort(&mut gpu, len);
    let out =
        trisolve::dnc::quicksort_on_gpu(&mut gpu, &data, params).map_err(|e| e.to_string())?;
    assert!(out.data.windows(2).all(|w| w[0] <= w[1]));
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
