//! The bench-regression gate must pass on a faithful baseline and fail
//! on planted regressions — the gate's own false-negative test.

use trisolve_bench::regress::{compare_against, Tolerances};
use trisolve_bench::snapshot::{device_peaks, measure_workload, workload_json};
use trisolve_gpu_sim::DeviceSpec;
use trisolve_tridiag::workloads::WorkloadShape;

fn baseline_doc(device: &str, row: serde_json::Value) -> serde_json::Value {
    serde_json::json!({
        "snapshot": "trisolve-bench",
        "devices": [serde_json::json!({
            "device": device,
            "workloads": [row],
        })],
    })
}

#[test]
fn gate_passes_on_faithful_baseline_and_fails_on_planted_regressions() {
    let dev = DeviceSpec::paper_devices().into_iter().next().unwrap();
    let name = dev.queryable().name.clone();
    let shape = WorkloadShape::new(64, 512);
    let rec = measure_workload(&dev, shape);
    let tol = Tolerances::default();

    // Faithful baseline: the committed snapshot row of the very same
    // measurement. Simulated metrics are deterministic, so this must pass.
    let doc = baseline_doc(&name, workload_json(&rec, &device_peaks(&dev)));
    let report = compare_against(&doc, false, &tol).unwrap();
    assert!(
        report.passed(),
        "gate failed on its own baseline:\n{}",
        report.render()
    );
    assert_eq!(report.cases.len(), 1);
    assert!(report.render().contains("PASS"));

    // Planted slowdown: the baseline claims the dynamic solve used to be
    // twice as fast. The re-measured value is far outside the gate.
    let planted = serde_json::json!({
        "systems": 64,
        "size": 512,
        "dynamic_ms": rec.dynamic_ms / 2.0,
        "tuner_evaluations": rec.tuner_evaluations,
        "faults_injected": 0,
        "retries": 0,
        "fallbacks": 0,
    });
    let report = compare_against(&baseline_doc(&name, planted), false, &tol).unwrap();
    assert!(!report.passed());
    assert!(report
        .regressions()
        .iter()
        .any(|(_, k)| k.metric == "dynamic_ms"));
    assert!(report.render().contains("REGRESSED"));

    // Planted search blow-up: the baseline claims the tuner used to need
    // a single evaluation.
    let planted = serde_json::json!({
        "systems": 64,
        "size": 512,
        "dynamic_ms": rec.dynamic_ms,
        "tuner_evaluations": 1,
    });
    let report = compare_against(&baseline_doc(&name, planted), false, &tol).unwrap();
    assert!(
        report
            .regressions()
            .iter()
            .any(|(_, k)| k.metric == "tuner_evaluations"),
        "expected eval blow-up (current {} vs baseline 1):\n{}",
        rec.tuner_evaluations,
        report.render()
    );
}

#[test]
fn gate_fails_on_planted_one_percent_regressions() {
    let dev = DeviceSpec::paper_devices().into_iter().next().unwrap();
    let name = dev.queryable().name.clone();
    let shape = WorkloadShape::new(64, 512);
    let rec = measure_workload(&dev, shape);
    let tol = Tolerances::default();
    let row = |dynamic_ms: f64, pipelined_ms: f64, evals: usize, counts: (usize, u64, u64)| {
        serde_json::json!({
            "systems": 64,
            "size": 512,
            "dynamic_ms": dynamic_ms,
            "pipelined_ms": pipelined_ms,
            "tuner_evaluations": evals,
            "solve_launches": counts.0,
            "total_launches": counts.1,
            "gmem_payload_bytes": counts.2,
        })
    };
    let regressed = |doc: serde_json::Value| -> Vec<&'static str> {
        let report = compare_against(&baseline_doc(&name, doc), false, &tol).unwrap();
        report.regressions().iter().map(|(_, k)| k.metric).collect()
    };
    let (d, p, e) = (rec.dynamic_ms, rec.pipelined_ms, rec.tuner_evaluations);
    let (sl, tl, b) = (
        rec.solve_launches,
        rec.total_launches,
        rec.gmem_payload_bytes,
    );
    let c = (sl, tl, b);

    assert!(regressed(row(d, p, e, c)).is_empty());
    // Each deterministic metric 1% worse than its baseline fails the gate.
    assert_eq!(regressed(row(d / 1.01, p, e, c)), ["dynamic_ms"]);
    assert_eq!(regressed(row(d, p / 1.01, e, c)), ["pipelined_ms"]);
    assert_eq!(regressed(row(d, p, e - 1, c)), ["tuner_evaluations"]);
    // One launch more or fewer, and 1% more payload bytes, fail too.
    assert_eq!(regressed(row(d, p, e, (sl - 1, tl, b))), ["solve_launches"]);
    assert_eq!(regressed(row(d, p, e, (sl + 1, tl, b))), ["solve_launches"]);
    assert_eq!(regressed(row(d, p, e, (sl, tl - 1, b))), ["total_launches"]);
    assert_eq!(regressed(row(d, p, e, (sl, tl + 1, b))), ["total_launches"]);
    let fewer_bytes = (b as f64 / 1.01) as u64;
    assert_eq!(
        regressed(row(d, p, e, (sl, tl, fewer_bytes))),
        ["gmem_payload_bytes"]
    );
    // Drift the other way is a behaviour change too: re-snapshot it.
    assert_eq!(
        regressed(row(d * 1.01, p, e + 1, c)),
        ["dynamic_ms", "tuner_evaluations"]
    );
}

#[test]
fn service_gate_passes_on_faithful_baseline_and_fails_on_planted_regressions() {
    use trisolve_bench::service::{measure_service, service_json};
    use trisolve_serve::LoadProfile;

    // A small spec keeps the test fast; the gate replays whatever spec
    // the baseline recorded, so this exercises exactly the shipped path.
    let profile = LoadProfile {
        requests: 250,
        seed: 2011,
        load_scale: 1.0,
        chaos: true,
    };
    let rec = measure_service(&profile);
    let section = service_json(&rec);
    let tol = Tolerances::default();

    let doc = |service: serde_json::Value| {
        serde_json::json!({
            "snapshot": "trisolve-bench",
            "devices": serde_json::json!([]),
            "service": service,
        })
    };
    // The vendored `Value` has no mutable indexing; rebuild the section
    // with one field replaced.
    let with_field = |v: &serde_json::Value, key: &str, value: f64| {
        let serde_json::Value::Object(pairs) = v else {
            panic!("service section is not an object");
        };
        serde_json::Value::Object(
            pairs
                .iter()
                .map(|(k, val)| {
                    let val = if k == key {
                        serde_json::json!(value)
                    } else {
                        val.clone()
                    };
                    (k.clone(), val)
                })
                .collect(),
        )
    };

    // Faithful baseline: deterministic campaign, must pass.
    let report = compare_against(&doc(section.clone()), false, &tol).unwrap();
    assert!(
        report.passed(),
        "service gate failed on its own baseline:\n{}",
        report.render()
    );
    assert!(report.cases.iter().any(|c| c.device == "service"));

    // Planted shed-counter regression: the baseline claims the campaign
    // used to shed fewer deadline requests. Zero tolerance must fire.
    let shed = section["shed_deadline"].as_f64().unwrap();
    assert!(shed > 0.0, "fixture needs a campaign that actually sheds");
    let planted = with_field(&section, "shed_deadline", shed - 1.0);
    let report = compare_against(&doc(planted), false, &tol).unwrap();
    assert!(
        report
            .regressions()
            .iter()
            .any(|(c, k)| c.device == "service" && k.metric == "shed_deadline"),
        "planted shed regression not caught:\n{}",
        report.render()
    );

    // Planted recovery-counter regression: the baseline claims the
    // breaker never tripped.
    let trips = section["breaker_trips"].as_f64().unwrap();
    assert!(trips > 0.0, "chaos fixture needs at least one trip");
    let planted = with_field(&section, "breaker_trips", 0.0);
    let report = compare_against(&doc(planted), false, &tol).unwrap();
    assert!(
        report
            .regressions()
            .iter()
            .any(|(c, k)| c.device == "service" && k.metric == "breaker_trips"),
        "planted breaker-trip regression not caught:\n{}",
        report.render()
    );
}

#[test]
fn vacuous_or_malformed_baselines_are_errors() {
    let tol = Tolerances::default();
    // No devices array at all.
    assert!(compare_against(&serde_json::json!({}), false, &tol).is_err());
    // Devices but nothing comparable — the gate must not pass silently.
    let empty = serde_json::json!({
        "devices": [serde_json::json!({
            "device": "GeForce 8800 GTX",
            "workloads": serde_json::json!([]),
        })],
    });
    assert!(compare_against(&empty, false, &tol).is_err());
    // Unknown device is skipped, leaving nothing comparable.
    let unknown = serde_json::json!({
        "devices": [serde_json::json!({
            "device": "No Such GPU",
            "workloads": [serde_json::json!({
                "systems": 8, "size": 32, "dynamic_ms": 1.0,
            })],
        })],
    });
    assert!(compare_against(&unknown, false, &tol).is_err());
}
