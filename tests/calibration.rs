//! Calibration shape tests: pin the qualitative findings of the paper's
//! evaluation section so model changes that break them fail CI.
//!
//! Absolute simulated milliseconds are calibration artefacts; what these
//! tests assert is *who wins, by roughly what factor, and where the
//! crossovers fall* — the reproduction contract of EXPERIMENTS.md. Sizes
//! are scaled down where that does not change the finding.

use trisolve_bench::experiments;
use trisolve_gpu_sim::{CpuSpec, DeviceSpec};
use trisolve_tridiag::workloads::WorkloadShape;

fn best_of<T, F: Fn(&T) -> f64>(points: &[T], key: F) -> &T {
    points
        .iter()
        .max_by(|a, b| key(a).total_cmp(&key(b)))
        .expect("non-empty sweep")
}

// ---------------------------------------------------------------------------
// Figure 6: stage-3 -> stage-4 switch points
// ---------------------------------------------------------------------------

#[test]
fn fig6_thomas_switch_optima_match_paper() {
    // Paper §V: "for the GeForce 280 and 470, the best switch point is 128
    // subsystems, while for the GeForce 8800, the best switch point is 64".
    let expect = [
        (DeviceSpec::geforce_8800_gtx(), 64usize),
        (DeviceSpec::gtx_280(), 128),
        (DeviceSpec::gtx_470(), 128),
    ];
    for (device, best_t4) in expect {
        let pts = experiments::fig6_sweep(&device, 8);
        let best = best_of(&pts, |p| p.relative);
        assert_eq!(
            best.thomas_switch,
            best_t4,
            "{}: expected T4 {}, got {}",
            device.name(),
            best_t4,
            best.thomas_switch
        );
    }
}

#[test]
fn fig6_static_guess_is_suboptimal_on_newer_devices() {
    // "Because our static tuner will always choose 64 subsystems as the
    // switch point, this result means dynamic tuning will improve the
    // performance further."
    for device in [DeviceSpec::gtx_280(), DeviceSpec::gtx_470()] {
        let pts = experiments::fig6_sweep(&device, 8);
        let at_64 = pts.iter().find(|p| p.thomas_switch == 64).unwrap();
        let at_128 = pts.iter().find(|p| p.thomas_switch == 128).unwrap();
        assert!(
            at_128.relative > at_64.relative,
            "{}: 128 must beat the static guess of 64",
            device.name()
        );
    }
}

#[test]
fn fig6_extremes_lose_clearly() {
    // Both switching far too early (too little work saved) and far too late
    // (too little parallelism) must cost real performance.
    for device in DeviceSpec::paper_devices() {
        let pts = experiments::fig6_sweep(&device, 8);
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(first.relative < 0.97, "{}: T4=16 too good", device.name());
        assert!(last.relative < 0.97, "{}: max T4 too good", device.name());
    }
}

// ---------------------------------------------------------------------------
// Figure 5: stage-2 -> stage-3 switch points
// ---------------------------------------------------------------------------

#[test]
fn fig5_onchip_size_optima_match_paper() {
    // Paper §V: 8800 prefers 256 ("instead of 128"); the 470 prefers
    // splitting one step further, 512 over 1024.
    let pts = experiments::fig5_sweep(&DeviceSpec::geforce_8800_gtx(), 128, 1024);
    assert_eq!(best_of(&pts, |p| p.relative).onchip_size, 256);

    let pts = experiments::fig5_sweep(&DeviceSpec::gtx_470(), 128, 1024);
    let best = best_of(&pts, |p| p.relative);
    assert_eq!(best.onchip_size, 512, "470 must prefer 512 over 1024");
    let at_1024 = pts.iter().find(|p| p.onchip_size == 1024).unwrap();
    assert!(
        at_1024.relative > 0.6,
        "1024 should be competitive, just not best (got {:.3})",
        at_1024.relative
    );
}

#[test]
fn fig5_280_sizes_256_and_512_are_close() {
    // Paper §V: "For the GeForce 280, switching at system sizes 256 and 512
    // have comparable performance."
    let pts = experiments::fig5_sweep(&DeviceSpec::gtx_280(), 128, 1024);
    let at_256 = pts.iter().find(|p| p.onchip_size == 256).unwrap();
    let at_512 = pts.iter().find(|p| p.onchip_size == 512).unwrap();
    let ratio = at_256.time_ms / at_512.time_ms;
    assert!(
        (0.7..1.45).contains(&ratio),
        "256 vs 512 should be comparable on the 280, ratio {ratio:.2}"
    );
}

// ---------------------------------------------------------------------------
// Figure 7: tuning strategy comparison (scaled grid)
// ---------------------------------------------------------------------------

#[test]
fn fig7_dynamic_never_loses_static_usually_wins() {
    let grid = WorkloadShape::shrunk_paper_grid(4);
    let mut cells = Vec::new();
    for device in DeviceSpec::paper_devices() {
        cells.extend(experiments::fig7_device(&device, &grid));
    }
    for c in &cells {
        assert!(
            c.dynamic_ms <= c.untuned_ms * 1.001,
            "{} {}: dynamic ({:.3}) worse than untuned ({:.3})",
            c.device,
            c.shape.label(),
            c.dynamic_ms,
            c.untuned_ms
        );
        assert!(
            c.dynamic_ms <= c.static_ms * 1.001,
            "{} {}: dynamic worse than static",
            c.device,
            c.shape.label()
        );
    }
    let s = experiments::fig7_summary(&cells);
    // Headline bands (paper: 17% static, 32% dynamic): allow generous slack,
    // but the ordering and the rough magnitudes must hold.
    assert!(
        (0.05..0.45).contains(&s.static_mean_improvement),
        "static mean improvement {:.2} out of band",
        s.static_mean_improvement
    );
    assert!(
        (0.15..0.60).contains(&s.dynamic_mean_improvement),
        "dynamic mean improvement {:.2} out of band",
        s.dynamic_mean_improvement
    );
    assert!(
        s.dynamic_mean_improvement > s.static_mean_improvement,
        "dynamic must beat static on average"
    );
    assert!(
        s.dynamic_max_speedup > 1.5,
        "largest dynamic speedup {:.2} too small",
        s.dynamic_max_speedup
    );
}

#[test]
fn fig7_default_parameters_are_8800_baseline() {
    // "the default parameters are designed for a baseline
    // (least-common-denominator) architecture (in this case the 8800 GTX)":
    // on the 8800, static tuning finds (almost) nothing to improve on the
    // batch workloads.
    let grid = [WorkloadShape::new(256, 1024)];
    let cells = experiments::fig7_device(&DeviceSpec::geforce_8800_gtx(), &grid);
    let c = &cells[0];
    assert!(
        (c.static_ms / c.untuned_ms - 1.0).abs() < 0.1,
        "8800 static ({:.3}) should be ~= untuned ({:.3})",
        c.static_ms,
        c.untuned_ms
    );
}

// ---------------------------------------------------------------------------
// Figure 8: GPU vs CPU (scaled grid)
// ---------------------------------------------------------------------------

#[test]
fn fig8_gpu_wins_parallel_workloads() {
    let grid = WorkloadShape::shrunk_paper_grid(4); // 256x512 ... (parallel rows)
    let rows = experiments::fig8_comparison(&grid[..3]);
    for r in &rows {
        assert!(
            r.speedup > 3.0,
            "{}: GPU should win clearly, speedup {:.2}",
            r.shape.label(),
            r.speedup
        );
        assert_eq!(r.cpu_threads, 2, "batches use both CPU cores");
    }
}

#[test]
fn fig8_cpu_wins_the_single_2m_system() {
    // The crossover needs the full workload: a 2M-equation system is
    // PCR-splitting-dominated on the GPU ("the speedups ... deteriorate",
    // §VI-B) while the sequential CPU solver stays work-optimal.
    let rows = experiments::fig8_comparison(&[WorkloadShape::new(1, 2 * 1024 * 1024)]);
    let r = &rows[0];
    assert!(
        r.speedup < 1.0,
        "1x2M: CPU must win (paper 0.7X), got {:.2}X",
        r.speedup
    );
    assert!(
        r.speedup > 0.4,
        "1x2M: GPU should not collapse either (paper 0.7X), got {:.2}X",
        r.speedup
    );
    assert_eq!(r.cpu_threads, 1, "single system uses a single CPU thread");
}

#[test]
fn fig8_cpu_model_reproduces_mkl_milliseconds() {
    // The CPU model is calibrated to Figure 8's MKL column.
    let cpu = CpuSpec::core_i5_dual_3_4ghz();
    for (m, n, paper_ms) in [
        (1024usize, 1024usize, 10.70f64),
        (2048, 2048, 37.9),
        (4096, 4096, 168.3),
        (1, 2 * 1024 * 1024, 34.0),
    ] {
        let (t, _) = cpu.time_batch_lu_auto(m, n);
        let ratio = t * 1e3 / paper_ms;
        assert!(
            (0.75..1.3).contains(&ratio),
            "{m}x{n}: model/paper ratio {ratio:.2}"
        );
    }
}
