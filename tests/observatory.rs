//! The performance observatory end to end: latency histograms recorded
//! per kernel family / stage / solve, roofline limiter verdicts that
//! agree with the simulator's internal limiter across the Figure 5-8
//! sweep, and exports that parse back exactly.

use trisolve::prelude::*;
use trisolve_bench::experiments;
use trisolve_bench::snapshot::{device_peaks, family_obs_from_events};
use trisolve_obs::roofline::RooflineSample;
use trisolve_obs::Phase;

/// Every kernel launch of the Figure 5-8 sweep (shrunken grid, all three
/// devices) must carry roofline components whose re-derived limiter
/// verdict agrees with the simulator's own `limited_by` — the
/// attribution is only trustworthy if the two never diverge.
#[test]
fn roofline_verdict_agrees_with_simulator_across_fig5_8_sweep() {
    let mut launches = 0u64;
    let mut families = std::collections::BTreeSet::new();
    for dev in DeviceSpec::paper_devices() {
        for shape in WorkloadShape::shrunk_paper_grid(1) {
            let batch: SystemBatch<f32> =
                random_dominant(shape, experiments::EXPERIMENT_SEED).unwrap();
            let params = StaticTuner.params_for(shape, dev.queryable(), 4);
            let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
            gpu.set_tracer(Tracer::enabled());
            trisolve::solver::solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
            let events = gpu.tracer().events();
            for ev in &events {
                if ev.cat != "gpu"
                    || ev.phase != Phase::Span
                    || ev.name == "h2d"
                    || ev.name == "d2h"
                {
                    continue;
                }
                let sample = RooflineSample::from_span(ev).unwrap_or_else(|| {
                    panic!(
                        "kernel span `{}` on {} has no roofline args",
                        ev.name,
                        dev.name()
                    )
                });
                assert!(
                    sample.agrees_with_sim(),
                    "verdict {} disagrees with simulator {:?} for `{}` on {}",
                    sample.verdict,
                    sample.sim_verdict,
                    ev.name,
                    dev.name()
                );
                launches += 1;
                families.insert(ev.family().to_string());
            }
        }
    }
    // The grid's multi-stage plans launch a handful of kernels per
    // solve; the sweep must cover every shipping kernel family.
    assert!(launches >= 30, "sweep only exercised {launches} launches");
    assert!(
        families.len() >= 2,
        "sweep only exercised families {families:?}"
    );
}

/// A traced solve records latency series at every level — kernel family,
/// stage, end-to-end solve — with internally consistent percentiles, and
/// the family rollup reproduces the trace's launch count and bandwidth
/// within the device's peak envelope.
#[test]
fn traced_solve_populates_every_histogram_level() {
    let dev = DeviceSpec::gtx_470();
    let shape = WorkloadShape::new(512, 2048);
    let batch: SystemBatch<f32> = random_dominant(shape, 7).unwrap();
    let params = StaticTuner.params_for(shape, dev.queryable(), 4);
    let mut gpu: Gpu<f32> = Gpu::new(dev.clone());
    gpu.set_tracer(Tracer::enabled());
    trisolve::solver::solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();

    let registry = gpu
        .tracer()
        .registry()
        .expect("enabled tracer has a registry");
    let hists = registry.histograms();
    assert!(
        hists.iter().any(|(n, _)| n.starts_with("kernel_ms/")),
        "no kernel family series in {:?}",
        hists.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
    );
    assert!(hists.iter().any(|(n, _)| n.starts_with("stage_ms/")));
    for (name, h) in &hists {
        assert!(h.count() > 0, "{name} is empty");
        let p = h.percentiles();
        assert!(
            p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.p999,
            "{name} percentiles not monotone: {p:?}"
        );
        assert!(p.p999 <= h.max() && h.min() <= p.p50, "{name} out of range");
    }

    let events = gpu.tracer().events();
    let kernel_spans = events
        .iter()
        .filter(|e| e.cat == "gpu" && e.phase == Phase::Span && e.name != "h2d" && e.name != "d2h")
        .count() as u64;
    let families = family_obs_from_events(&events);
    let rolled: u64 = families.iter().map(|f| f.launches).sum();
    assert_eq!(rolled, kernel_spans);
    let peaks = device_peaks(&dev);
    for f in &families {
        assert_eq!(
            f.roofline_launches, f.launches,
            "{} spans lack roofline args",
            f.family
        );
        assert!(f.agreement_ok(), "{} limiter disagreement", f.family);
        let gbps = f.achieved_gbps();
        assert!(gbps > 0.0, "{} has no bandwidth", f.family);
        assert!(
            gbps <= peaks.achievable_gbps() * 1.001,
            "{} exceeds the device's achievable bandwidth: {gbps} GB/s",
            f.family
        );
    }
}

/// Chrome-trace export round-trip: hostile category and kernel names
/// (quotes, backslashes, control characters) must survive JSON escaping
/// and parse back to the exact original strings, each on its own thread
/// row with its own thread-name metadata.
#[test]
fn chrome_export_escaping_round_trips_through_parser() {
    let tracer = Tracer::enabled();
    let evil_name = "k\"quote\\slash\nnewline\ttab";
    let evil_cat = "cat\"\\\u{1}";
    tracer.span(evil_cat, evil_name, 0.0, 5.0, vec![]);
    let events = tracer.events();
    let json = chrome_trace(&events, &tracer.counters());
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("export must parse");
    let rows = parsed["traceEvents"].as_array().unwrap();
    let span_row = rows
        .iter()
        .find(|r| r["ph"].as_str() == Some("X"))
        .expect("span event present");
    assert_eq!(span_row["name"].as_str(), Some(evil_name));
    assert_eq!(span_row["cat"].as_str(), Some(evil_cat));
    // The unknown category got its own named thread row.
    let tid = span_row["tid"].as_u64().unwrap();
    let meta = rows
        .iter()
        .find(|r| {
            r["ph"].as_str() == Some("M")
                && r["name"].as_str() == Some("thread_name")
                && r["tid"].as_u64() == Some(tid)
        })
        .expect("thread_name metadata for the unknown category");
    assert_eq!(meta["args"]["name"].as_str(), Some(evil_cat));
}
