//! Integration tests for the pipelined stream executor (DESIGN.md §3.15):
//! bit-identity with the synchronous path across the shrunk Figure 5–8
//! grid plus the many-small batch in both precisions, per-stream trace
//! lanes with *measured* overlap, the `overlap_ratio` gauge, the Chrome
//! export's stream rows, and the admission gate rejecting an uncertified
//! schedule before any launch.

use trisolve::harness::many_small_shape;
use trisolve::obs::Phase;
use trisolve::prelude::*;
use trisolve::solver::{lower_schedule, CoreError};

/// Batches per pipelined run: three exercises both event-edge families of
/// the lowering (the solution-buffer WAR edge and the set-reuse edge).
const BATCHES: usize = 3;

/// Bit-identity of `solve_pipelined` against one synchronous solve per
/// batch, for one `(shape, precision)` point. A macro because `to_bits`
/// is inherent on `f32`/`f64`, not a trait method.
macro_rules! assert_pipelined_bit_identical {
    ($ty:ty, $shape:expr, $seed:expr) => {{
        let shape = $shape;
        let dev = DeviceSpec::gtx_470();
        let params = StaticTuner.params_for(shape, dev.queryable(), std::mem::size_of::<$ty>());
        let batches: Vec<SystemBatch<$ty>> = (0..BATCHES)
            .map(|i| random_dominant::<$ty>(shape, $seed + i as u64).unwrap())
            .collect();

        let mut gpu_sync: Gpu<$ty> = Gpu::new(dev.clone());
        let mut sync_session = SolveSession::new(&mut gpu_sync, shape).unwrap();
        let sync: Vec<Vec<$ty>> = batches
            .iter()
            .map(|b| sync_session.solve(&mut gpu_sync, b, &params).unwrap().x)
            .collect();

        let mut gpu_pipe: Gpu<$ty> = Gpu::new(dev.clone());
        let mut pipe_session = SolveSession::new(&mut gpu_pipe, shape).unwrap();
        let out = pipe_session
            .solve_pipelined(&mut gpu_pipe, &batches, &params)
            .unwrap();

        assert_eq!(out.xs.len(), sync.len(), "{}", shape.label());
        for (k, (p, s)) in out.xs.iter().zip(&sync).enumerate() {
            let pb: Vec<_> = p.iter().map(|v| v.to_bits()).collect();
            let sb: Vec<_> = s.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                pb,
                sb,
                "{} {} batch {k} diverged from the sync path",
                shape.label(),
                stringify!($ty)
            );
        }
        assert!(out.wall_s <= out.serial_s + 1e-12, "{}", shape.label());
    }};
}

/// Satellite 2: the pipelined path is bit-identical to the synchronous
/// path on every shape of the (shrunk) Figure 5–8 grid plus the
/// many-small batch, in both precisions.
#[test]
fn pipelined_matches_sync_bit_for_bit_across_the_grids() {
    let mut shapes = WorkloadShape::shrunk_paper_grid(16);
    shapes.push(many_small_shape(16));
    shapes.dedup();
    for (i, &shape) in shapes.iter().enumerate() {
        assert_pipelined_bit_identical!(f32, shape, 100 + i as u64);
        assert_pipelined_bit_identical!(f64, shape, 200 + i as u64);
    }
}

/// Satellite 3: a traced pipelined solve puts its kernel and transfer
/// spans on per-stream `stream/<k>` lanes, at least one pair of spans on
/// *distinct* lanes genuinely overlaps in simulated time, the
/// `overlap_ratio` gauge carries the run's measured ratio, and the Chrome
/// export names one thread row per stream lane.
#[test]
fn pipelined_trace_shows_overlap_on_per_stream_lanes() {
    let shape = WorkloadShape::new(8, 2048);
    let params = SolverParams {
        stage1_target_systems: 16,
        onchip_size: 512,
        thomas_switch: 64,
        variant: BaseVariant::Strided,
    };
    let batches: Vec<SystemBatch<f32>> = (0..BATCHES)
        .map(|i| random_dominant::<f32>(shape, 300 + i as u64).unwrap())
        .collect();

    let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
    gpu.set_tracer(Tracer::enabled());
    let mut session = SolveSession::new(&mut gpu, shape).unwrap();
    let out = session
        .solve_pipelined(&mut gpu, &batches, &params)
        .unwrap();
    assert!(
        out.overlap_ratio > 0.0,
        "this workload must measure real overlap (wall {} vs serial {})",
        out.wall_s,
        out.serial_s
    );

    let events = gpu.tracer().events();
    let lanes: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.phase == Phase::Span && e.cat.starts_with("stream/"))
        .collect();
    assert!(
        lanes.len() >= 2,
        "pipelined spans must land on stream lanes"
    );
    let distinct: std::collections::BTreeSet<&str> = lanes.iter().map(|e| e.cat).collect();
    assert!(distinct.len() >= 2, "both streams must carry spans");

    // At least one pair of spans on different lanes overlaps in time —
    // the trace shows the same concurrency the clock charged for.
    let overlapping_pair = lanes.iter().any(|a| {
        lanes
            .iter()
            .any(|b| a.cat != b.cat && a.ts_us < b.ts_us + b.dur_us && b.ts_us < a.ts_us + a.dur_us)
    });
    assert!(
        overlapping_pair,
        "no overlapping span pair on distinct lanes"
    );

    // The engine span summarizes the scheduled region, and the gauge
    // carries the measured ratio.
    let span = events
        .iter()
        .find(|e| e.cat == "engine" && e.name == "pipelined")
        .expect("engine `pipelined` span");
    assert_eq!(span.arg_f64("overlap_ratio"), Some(out.overlap_ratio));
    let reg = gpu.tracer().registry().expect("enabled tracer");
    assert_eq!(reg.gauge("overlap_ratio"), Some(out.overlap_ratio));
    assert!(reg
        .histogram("pipelined_ms")
        .is_some_and(|h| h.count() == 1));

    // The Chrome export names one thread row per stream lane.
    let chrome = chrome_trace(&events, &gpu.tracer().counters());
    let parsed: serde_json::Value = serde_json::from_str(&chrome).unwrap();
    let rows = parsed["traceEvents"].as_array().unwrap();
    for lane in &distinct {
        assert!(
            rows.iter().any(|r| r["name"] == "thread_name"
                && r["ph"] == "M"
                && r["args"]["name"] == *lane),
            "missing thread row for `{lane}`"
        );
    }
}

/// The admission gate: a schedule the certifier refutes is rejected with
/// `CoreError::ScheduleRejected` before any launch — the simulated clock
/// and the stream timeline stay untouched.
#[test]
fn uncertified_schedule_is_rejected_before_any_launch() {
    let shape = WorkloadShape::new(8, 2048);
    let params = SolverParams::default_untuned();
    let batches: Vec<SystemBatch<f32>> = (0..2)
        .map(|i| random_dominant::<f32>(shape, 400 + i as u64).unwrap())
        .collect();

    let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
    let mut session = SolveSession::new(&mut gpu, shape).unwrap();
    let plan = session.plan_for(&params).unwrap().clone();
    let mut bad = lower_schedule(&plan, 2, 2);
    for nd in &mut bad.nodes {
        nd.waits.clear();
    }

    let before = gpu.elapsed_s();
    let err = session
        .solve_scheduled(&mut gpu, &batches, &params, bad)
        .unwrap_err();
    assert!(matches!(err, CoreError::ScheduleRejected { .. }));
    assert!(err.to_string().contains("happens-before"));
    assert_eq!(gpu.elapsed_s().to_bits(), before.to_bits());
    assert!(gpu.stream_op_intervals().is_empty());
}
