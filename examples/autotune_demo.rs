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
    // would ("save those results for future runs", §IV-D).
    let mut cache = TuningCache::new();
    for device in DeviceSpec::paper_devices() {
        let mut gpu: Gpu<f32> = Gpu::new(device.clone());
        let mut dynamic = DynamicTuner::new();
        let config = dynamic.tune_for(&mut gpu, shape);
        cache.insert(device.name(), config);
    }
    let path = std::env::temp_dir().join("trisolve-tuning-cache.json");
    cache.save(&path).expect("cache is writable");
    println!(
        "saved {} tuned configurations to {}",
        cache.len(),
        path.display()
    );
    let reloaded = TuningCache::load(&path).expect("cache reloads");
    assert_eq!(reloaded.len(), cache.len());
    let restored = DynamicTuner::from_config(
        reloaded
            .get("GeForce GTX 470", 4)
            .expect("470 config cached")
            .clone(),
    );
    println!(
        "reloaded 470 config: on-chip size {}",
        restored.config().unwrap().onchip_size
    );
}
