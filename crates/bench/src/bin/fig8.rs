//! Regenerate paper Figure 8: the dynamically tuned GTX 470 against the
//! Intel MKL tridiagonal solver on a dual-core 3.4 GHz Core i5, over the
//! workload grid — including the 1×2M case where the CPU wins.
//!
//! `cargo run --release -p trisolve-bench --bin fig8 [-- --quick] [-- --trace]`
//!
//! `--trace` additionally writes a Chrome trace of the statically tuned
//! GTX 470 solve of the first grid workload to `target/fig8_trace.json`.

use trisolve_bench::{experiments, report};
use trisolve_tridiag::workloads::WorkloadShape;

/// Paper Figure 8 values: (label, gpu_ms, cpu_ms, speedup label).
const PAPER: [(&str, f64, f64, &str); 4] = [
    ("1Kx1K", 0.96, 10.70, "11X"),
    ("2Kx2K", 5.52, 37.9, "7X"),
    ("4Kx4K", 27.92, 168.3, "6X"),
    ("1x2M", 50.40, 34.0, "0.7X"),
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trace = std::env::args().any(|a| a == "--trace");
    let shrink = if quick { 4 } else { 1 };
    let grid = WorkloadShape::shrunk_paper_grid(shrink);
    println!("Figure 8 reproduction: GTX 470 (dynamically tuned) vs Core i5 MKL model, f32\n");

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
            "measured (simulated ms)",
            &["workload", "GPU ms", "CPU ms", "CPU threads", "GPU speedup"],
            &table
        )
    );

    println!("== per-stage timelines (GTX 470, dynamically tuned, serde-JSON) ==");
    for r in &rows {
        if let Some(tl) = &r.gpu_timeline {
            println!(
                "timeline-json {{\"workload\":{:?},\"timeline\":{}}}",
                r.shape.label(),
                serde_json::to_string(tl).expect("timeline serialises")
            );
        }
    }
    println!();

    if trace {
        use trisolve_autotune::{StaticTuner, Tuner};
        let dev = trisolve_gpu_sim::DeviceSpec::gtx_470();
        let shape = grid[0];
        let batch = trisolve_tridiag::workloads::random_dominant::<f32>(
            shape,
            experiments::EXPERIMENT_SEED,
        )
        .unwrap();
        let params = StaticTuner.params_for(shape, dev.queryable(), 4);
        if let Some(json) = experiments::traced_chrome_trace(&dev, &batch, &params) {
            report::write_trace_file("fig8", &json);
        }
    }

    if shrink == 1 {
        println!("paper values for comparison:");
        for (label, g, c, s) in PAPER {
            println!("  {label:<8} GPU {g:>6.2} ms   CPU {c:>6.1} ms   {s}");
        }
        println!(
            "\nShape checks: GPU wins 6-11x on the parallel workloads, CPU wins on the\n\
             single 2M-equation system (PCR-dominated splitting, §VI-B)."
        );
    }
}
