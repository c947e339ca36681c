//! Calibration harness: prints the qualitative shape of every figure so the
//! hidden device constants can be validated (and, during development,
//! adjusted). See DESIGN.md §4 and EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p trisolve-bench --bin calibrate [--quick]`

use trisolve_bench::{experiments, report};
use trisolve_gpu_sim::DeviceSpec;
use trisolve_tridiag::workloads::WorkloadShape;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (m5, n5, spm6, shrink) = if quick {
        (256, 1024, 8, 4)
    } else {
        (1024, 1024, 32, 1)
    };

    println!("=== Figure 5: stage-2->3 switch sweep (m={m5}, n={n5}) ===");
    for dev in DeviceSpec::paper_devices() {
        let pts = experiments::fig5_sweep(&dev, m5, n5);
        let rows: Vec<Vec<String>> = pts
            .iter()
            .map(|p| {
                vec![
                    p.onchip_size.to_string(),
                    p.thomas_switch.to_string(),
                    report::ms(p.time_ms),
                    format!("{:.3}", p.relative),
                ]
            })
            .collect();
        println!(
            "{}",
            report::render_table(dev.name(), &["S3", "bestT4", "ms", "relative"], &rows)
        );
    }

    println!("=== Figure 6: stage-3->4 switch sweep ({spm6} systems/SM) ===");
    for dev in DeviceSpec::paper_devices() {
        let pts = experiments::fig6_sweep(&dev, spm6);
        let rows: Vec<Vec<String>> = pts
            .iter()
            .map(|p| {
                vec![
                    p.thomas_switch.to_string(),
                    report::ms(p.time_ms),
                    format!("{:.3}", p.relative),
                ]
            })
            .collect();
        println!(
            "{}",
            report::render_table(dev.name(), &["T4", "ms", "relative"], &rows)
        );
    }

    println!("=== Figure 7: tuning comparison (grid shrink {shrink}) ===");
    let grid = WorkloadShape::shrunk_paper_grid(shrink);
    let mut all_cells = Vec::new();
    for dev in DeviceSpec::paper_devices() {
        let cells = experiments::fig7_device(&dev, &grid);
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|c| {
                vec![
                    c.shape.label(),
                    report::ms(c.untuned_ms),
                    report::ms(c.static_ms),
                    report::ms(c.dynamic_ms),
                    format!("{:.2}", c.static_ms / c.untuned_ms),
                    format!("{:.2}", c.dynamic_ms / c.untuned_ms),
                ]
            })
            .collect();
        println!(
            "{}",
            report::render_table(
                dev.name(),
                &["workload", "untuned", "static", "dynamic", "s/u", "d/u"],
                &rows
            )
        );
        all_cells.extend(cells);
    }
    let s = experiments::fig7_summary(&all_cells);
    println!(
        "summary: static mean improvement {} (paper 17%), dynamic mean {} (paper 32%), dynamic max speedup {:.1}x (paper 5x), static max {}\n",
        report::pct(s.static_mean_improvement),
        report::pct(s.dynamic_mean_improvement),
        s.dynamic_max_speedup,
        report::pct(s.static_max_improvement),
    );

    println!("=== Figure 8: GTX 470 vs Core i5 (grid shrink {shrink}) ===");
    let rows = experiments::fig8_comparison(&grid);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shape.label(),
                report::ms(r.gpu_ms),
                report::ms(r.cpu_ms),
                r.cpu_threads.to_string(),
                report::speedup(r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            "GPU vs CPU",
            &["workload", "gpu_ms", "cpu_ms", "threads", "speedup"],
            &table
        )
    );
}
