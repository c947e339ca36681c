//! Auto-tuning walkthrough: watch the three parameter-selection strategies
//! (default / machine-query / self-tuned) pick switch points on each of the
//! paper's three GPUs, and see what each choice costs.
//!
//! Run with: `cargo run --release --example autotune_demo`

use trisolve::gpu::DeviceSpec;
use trisolve::prelude::*;

fn main() {
    // A workload with real tension between the switch points: a few big
    // systems (stage 1 engages) on some devices, plenty of splitting on all.
    let shape = WorkloadShape::new(8, 1 << 15);
    let batch = random_dominant::<f32>(shape, 7).expect("valid workload");
    println!("workload: {}\n", shape.label());

    for device in DeviceSpec::paper_devices() {
        let q = device.queryable().clone();
        println!("--- {} ---", q.name);

        // Default: one size fits all.
        let p_def = DefaultTuner.params_for(shape, &q, 4);

        // Static: reads Table II and guesses.
        let p_sta = StaticTuner.params_for(shape, &q, 4);

        // Dynamic: measures. (Tuning cost is separate from solve cost and
        // cached for future runs — print both.)
        let mut dynamic = DynamicTuner::new();
        let config = {
            let mut gpu: Gpu<f32> = Gpu::new(device.clone());
            dynamic.tune_for(&mut gpu, shape)
        };
        let p_dyn = dynamic.params_for(shape, &q, 4);

        for (name, p) in [("default", p_def), ("static", p_sta), ("dynamic", p_dyn)] {
            let mut gpu: Gpu<f32> = Gpu::new(device.clone());
            let ms =
                solve_batch_on_gpu(&mut gpu, &batch, &p).map_or(f64::INFINITY, |o| o.sim_time_ms());
            println!(
                "  {name:<8} S3={:<5} T4={:<4} P1={:<4} {:<10} -> {ms:8.3} ms",
                p.onchip_size,
                p.thomas_switch,
                p.stage1_target_systems,
                format!("{:?}", p.variant),
            );
        }
        println!(
            "  (dynamic tuning spent {} micro-benchmarks; result cacheable)\n",
            config.evaluations
        );
    }

    // Persist the tuned configurations the way a long-running application
    // would ("save those results for future runs", §IV-D): `solve_auto`
    // tunes on first use and saves to the plan database.
    let path = std::env::temp_dir().join(format!(
        "trisolve-autotune-demo-{}.json",
        std::process::id()
    ));
    let mut db = PlanDb::open(&path);
    for device in DeviceSpec::paper_devices() {
        let mut gpu: Gpu<f32> = Gpu::new(device);
        solve_auto(&mut gpu, &batch, &mut db).expect("tuned solve");
    }
    println!(
        "saved {} tuned configurations to {}",
        db.len(),
        path.display()
    );

    // A restart: the reopened file serves every device without tuning.
    let mut reloaded = PlanDb::open(&path);
    assert_eq!(reloaded.origin().label(), "loaded");
    assert_eq!(reloaded.len(), db.len());
    for device in DeviceSpec::paper_devices() {
        let mut gpu: Gpu<f32> = Gpu::new(device);
        solve_auto(&mut gpu, &batch, &mut reloaded).expect("warm solve");
    }
    assert_eq!((reloaded.hits(), reloaded.misses()), (3, 0));
    println!(
        "reloaded: {} hits, {} misses (no re-tuning)",
        reloaded.hits(),
        reloaded.misses()
    );
    std::fs::remove_file(&path).expect("plan database written");
}
