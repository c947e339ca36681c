//! Regenerate paper Figure 7: non-tuned vs statically tuned vs dynamically
//! tuned execution time over the workload grid (1K×1K, 2K×2K, 4K×4K, 1×2M)
//! on all three devices, normalised to the untuned time, with the untuned
//! milliseconds printed like the numbers above the paper's bars.
//!
//! `cargo run --release -p trisolve-bench --bin fig7 [-- --quick] [-- --trace]`
//!
//! `--trace` additionally writes a Chrome trace of the statically tuned
//! GTX 470 solve of the first grid workload to `target/fig7_trace.json`.

use trisolve_bench::{experiments, report};
use trisolve_gpu_sim::DeviceSpec;
use trisolve_tridiag::workloads::WorkloadShape;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trace = std::env::args().any(|a| a == "--trace");
    let shrink = if quick { 4 } else { 1 };
    let grid = WorkloadShape::shrunk_paper_grid(shrink);
    println!(
        "Figure 7 reproduction: workload grid {:?}, f32\n",
        grid.iter().map(WorkloadShape::label).collect::<Vec<_>>()
    );

    let mut all = Vec::new();
    for dev in DeviceSpec::paper_devices() {
        let cells = experiments::fig7_device(&dev, &grid);
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|c| {
                vec![
                    c.shape.label(),
                    report::ms(c.untuned_ms),
                    format!("{:.2}", 1.0),
                    format!("{:.2}", c.static_ms / c.untuned_ms),
                    format!("{:.2}", c.dynamic_ms / c.untuned_ms),
                ]
            })
            .collect();
        println!(
            "{}",
            report::render_table(
                dev.name(),
                &[
                    "workload",
                    "untuned ms",
                    "untuned (norm)",
                    "static (norm)",
                    "dynamic (norm)"
                ],
                &rows
            )
        );
        all.extend(cells);
    }

    println!("== per-stage timelines (dynamically tuned, serde-JSON) ==");
    for c in &all {
        if let Some(tl) = &c.dynamic_timeline {
            println!(
                "timeline-json {{\"device\":{:?},\"workload\":{:?},\"timeline\":{}}}",
                c.device,
                c.shape.label(),
                serde_json::to_string(tl).expect("timeline serialises")
            );
        }
    }
    println!();

    if trace {
        use trisolve_autotune::{StaticTuner, Tuner};
        let dev = DeviceSpec::gtx_470();
        let shape = grid[0];
        let batch = trisolve_tridiag::workloads::random_dominant::<f32>(
            shape,
            experiments::EXPERIMENT_SEED,
        )
        .unwrap();
        let params = StaticTuner.params_for(shape, dev.queryable(), 4);
        if let Some(json) = experiments::traced_chrome_trace(&dev, &batch, &params) {
            report::write_trace_file("fig7", &json);
        }
    }

    let s = experiments::fig7_summary(&all);
    println!("== headline numbers (paper §V) ==");
    println!(
        "{}",
        report::compare_line(
            "static tuning: mean runtime reduction",
            "17%",
            &report::pct(s.static_mean_improvement)
        )
    );
    println!(
        "{}",
        report::compare_line(
            "static tuning: max runtime reduction",
            "up to 60%",
            &report::pct(s.static_max_improvement)
        )
    );
    println!(
        "{}",
        report::compare_line(
            "dynamic tuning: mean runtime reduction",
            "32%",
            &report::pct(s.dynamic_mean_improvement)
        )
    );
    println!(
        "{}",
        report::compare_line(
            "dynamic tuning: max speedup",
            "5x",
            &format!("{:.1}x", s.dynamic_max_speedup)
        )
    );
}
