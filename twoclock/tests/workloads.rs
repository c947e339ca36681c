//! The benchmark's own checks: anchoring to the committed trajectory,
//! bit-for-bit repeatability of every simulated number and exact count,
//! traced/untraced agreement, a second seed, and `BENCHMARK.json`
//! agreeing with the metric tables.

use trisolve_autotune::tuners::clamp_to_device;
use trisolve_autotune::{StaticTuner, Tuner};
use trisolve_core::engine::SolveSession;
use trisolve_gpu_sim::{DeviceSpec, Gpu, KernelStats};
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};
use trisolve_tridiag::SystemBatch;
use twoclock::{per_layer, run, Options, Report, Workload, END_TO_END};

/// BENCH_10's GTX 470 1Kx1K `dynamic_ms`.
const BENCH_10_GTX470_1KX1K_DYNAMIC_MS: f64 = 0.9405461434406412;

/// A run with the shortest timed phase.
fn quick(workload: Workload, seed: u64, trace: bool) -> Report {
    let opts = Options {
        seconds: if workload == Workload::ServeChaos {
            1.0
        } else {
            0.0
        },
        trace,
        ..Options::new(seed)
    };
    let report = run(workload, &opts);
    assert!(
        report.correct(),
        "{} seed {seed}: {:?}",
        workload.name(),
        report.failures
    );
    report
}

/// Every value on a deterministic clock or counter: simulated time,
/// counts, bytes and ratios of counts.
fn deterministic(report: &Report) -> Vec<(String, u64)> {
    report
        .metrics
        .iter()
        .filter(|(name, m)| {
            matches!(m.unit, "sim_ms" | "count" | "bytes" | "req/sim_s")
                || name.starts_with("serve_shed")
                || name.starts_with("worst_rel")
        })
        .map(|(name, m)| (name.clone(), m.value.to_bits()))
        .collect()
}

#[test]
fn batch_anchor_repeats_and_matches_the_traced_run() {
    let a = quick(Workload::Batch1Kx1K, 2011, false);
    assert_eq!(
        a.get("sim_solve_ms"),
        Some(BENCH_10_GTX470_1KX1K_DYNAMIC_MS)
    );
    let b = quick(Workload::Batch1Kx1K, 2011, false);
    assert_eq!(deterministic(&a), deterministic(&b));
    let traced = quick(Workload::Batch1Kx1K, 2011, true);
    for name in ["sim_solve_ms", "sim_pipelined_ms"] {
        assert_eq!(traced.get(name), a.get(name), "{name} traced vs untraced");
    }
    assert_eq!(traced.get("core.launches"), Some(2.0));
    assert_eq!(traced.get("autotune.evals"), a.get("tuner_evals"));
}

#[test]
fn single_system_repeats_and_matches_the_traced_run() {
    let a = quick(Workload::Single512K, 2011, false);
    let b = quick(Workload::Single512K, 2011, false);
    assert_eq!(deterministic(&a), deterministic(&b));
    let traced = quick(Workload::Single512K, 2011, true);
    for name in ["sim_solve_ms", "sim_pipelined_ms"] {
        assert_eq!(traced.get(name), a.get(name), "{name} traced vs untraced");
    }
    assert_eq!(traced.get("core.launches"), Some(8.0));
}

#[test]
fn service_campaign_repeats_bit_for_bit() {
    let a = quick(Workload::ServeChaos, 2011, false);
    let b = quick(Workload::ServeChaos, 2011, false);
    assert_eq!(deterministic(&a), deterministic(&b));
    assert_eq!(a.get("serve.lost"), Some(0.0));
    assert_eq!(
        a.get("serve.tuner_evals"),
        Some(0.0),
        "the warm-up covers the campaign"
    );
    let traced = quick(Workload::ServeChaos, 2011, true);
    for name in ["serve_e2e_p50_ms", "serve_e2e_p99_ms", "serve_goodput_rps"] {
        assert_eq!(traced.get(name), a.get(name), "{name} traced vs untraced");
    }
}

#[test]
fn a_second_seed_runs_clean_and_moves_the_inputs() {
    let a = quick(Workload::Batch1Kx1K, 7, false);
    assert_eq!(
        a.get("sim_solve_ms"),
        Some(BENCH_10_GTX470_1KX1K_DYNAMIC_MS)
    );
    let s1 = quick(Workload::ServeChaos, 7, false);
    let s2 = quick(Workload::ServeChaos, 8, false);
    assert_ne!(
        s1.get("serve_e2e_p99_ms"),
        s2.get("serve_e2e_p99_ms"),
        "the seed must reach the load generator"
    );
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in [Workload::Single512K, Workload::ServeChaos] {
        let r = quick(workload, 2011, true);
        for (name, unit) in per_layer() {
            // Families the plan does not launch read 0 without a record,
            // and so does the service layer on a solver workload.
            let optional = name.starts_with("core.sim_stage_ms.")
                || name.starts_with("core.peak_fraction.")
                || (workload != Workload::ServeChaos && name.starts_with("serve"));
            let m = r.metrics.get(&name);
            assert!(
                m.is_some() || optional,
                "{}: {name} missing",
                workload.name()
            );
            if let Some(m) = m {
                assert_eq!(m.unit, unit, "{name}");
                assert!(
                    m.value.is_finite(),
                    "{}: {name} = {}",
                    workload.name(),
                    m.value
                );
            }
        }
        assert!(r.get("obs.events").unwrap_or(0.0) > 0.0);
        assert!(r
            .trace_json
            .as_deref()
            .is_some_and(|t| t.contains("core.solve")));
        let line = r.result_json(&per_layer());
        let v: serde_json::Value = serde_json::from_str(&line).expect("result line is JSON");
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(
            v["metrics"].as_object().map(Vec::len),
            Some(per_layer().len())
        );
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let pairs = |key: &str| -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap_or_default().to_string(),
                    m["unit"].as_str().unwrap_or_default().to_string(),
                )
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(pairs("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(pairs("per_layer"), layers);
    let names: Vec<&str> = doc["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .filter_map(|w| w["name"].as_str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

/// The synchronous path charges no simulated time for host↔device
/// transfers: a solve's device-clock delta is exactly its kernel sum.
/// `sim_pipelined_ms` is therefore the only transfer-inclusive
/// simulated number.
#[test]
fn synchronous_transfers_charge_no_simulated_time() {
    let dev = DeviceSpec::gtx_470();
    let q = dev.queryable().clone();
    for shape in [
        WorkloadShape::new(1024, 1024),
        WorkloadShape::new(1, 512 * 1024),
        WorkloadShape::new(16 * 1024, 64),
    ] {
        let params = clamp_to_device(StaticTuner.params_for(shape, &q, 4), &q, 4);
        let batch: SystemBatch<f32> = random_dominant(shape, 2011).expect("batch");
        let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
        let mut session = SolveSession::new(&mut gpu, shape).expect("session");
        let before = gpu.elapsed_s();
        let out = session.solve(&mut gpu, &batch, &params).expect("solve");
        let kernels: f64 = out.kernel_stats.iter().map(KernelStats::total_time_s).sum();
        assert_eq!(gpu.elapsed_s() - before, kernels, "{}", shape.label());
    }
}
