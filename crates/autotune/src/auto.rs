//! The "just solve it" convenience layer: tune-on-first-use over the
//! persistent [`PlanDb`], the workflow a downstream application wants.

use crate::microbench::Microbench;
use crate::plandb::PlanDb;
use crate::tuners::{DynamicTuner, TunedConfig};
use trisolve_core::kernels::{elem_bytes, GpuScalar};
use trisolve_core::{solve_batch_on_gpu, Result, SolveOutcome};
use trisolve_gpu_sim::Gpu;
use trisolve_tridiag::workloads::WorkloadShape;
use trisolve_tridiag::SystemBatch;

/// Solve a batch with dynamically tuned parameters, tuning on first use and
/// storing the result in `db` (the paper's "save those results for future
/// runs" loop, packaged).
///
/// The configuration is tuned on the batch's own shape, with no stability
/// gate, and stored under [`PlanDb::ungated_key`] for this device, element
/// width and system-size bucket — the key `trisolve tune --cache` writes.
/// Pass the same `db` across calls, or reopen its file, to amortise tuning
/// completely.
pub fn solve_auto<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    batch: &SystemBatch<T>,
    db: &mut PlanDb,
) -> Result<SolveOutcome<T>> {
    let shape = WorkloadShape::new(batch.num_systems, batch.system_size);
    let key = PlanDb::ungated_key(gpu.spec().name(), elem_bytes::<T>(), shape.system_size);
    let cfg = ensure_tuned(gpu, db, &key, shape, &mut Microbench::new());
    solve_batch_on_gpu(gpu, batch, &cfg.params_for(shape))
}

/// Fetch the configuration stored under `key`, or run the dynamic tuner on
/// `shape` with the caller's measurement harness `mb`, store the result
/// under `key` and save the database. The evaluations spent are
/// `mb.measurements` (none on a hit).
///
/// A tuning run during which any measurement hit a device fault is
/// returned but not stored: a storm-tainted configuration is not worth
/// persisting. Saving is best-effort; a failed save costs a re-tune on the
/// next open, never this call.
pub fn ensure_tuned<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    db: &mut PlanDb,
    key: &str,
    shape: WorkloadShape,
    mb: &mut Microbench<T>,
) -> TunedConfig {
    if let Some(cfg) = db.get(key) {
        return cfg;
    }
    let faulted_before = mb.faulted_measurements;
    let cfg = DynamicTuner::new().tune_for_with(gpu, shape, mb);
    if mb.faulted_measurements == faulted_before {
        db.put(key.to_owned(), cfg.clone());
        let _ = db.save();
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::norms::batch_worst_relative_residual;
    use trisolve_tridiag::workloads::random_dominant;

    #[test]
    fn solve_auto_tunes_once_then_reuses() {
        let shape = WorkloadShape::new(16, 2048);
        let batch = random_dominant::<f32>(shape, 3).unwrap();
        let mut db = PlanDb::in_memory();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());

        let out1 = solve_auto(&mut gpu, &batch, &mut db).unwrap();
        assert_eq!((db.len(), db.hits(), db.misses()), (1, 0, 1));
        let key = PlanDb::key("GeForce GTX 280", 4, 2048, "ungated", "auto");
        assert!(db.contains(&key));

        // Second call: a hit, no re-tuning, same result.
        let out2 = solve_auto(&mut gpu, &batch, &mut db).unwrap();
        assert_eq!((db.len(), db.hits(), db.misses()), (1, 1, 1));
        assert_eq!(out1.x, out2.x);
        assert!(batch_worst_relative_residual(&batch, &out1.x).unwrap() < 1e-4);
    }

    #[test]
    fn store_is_per_device_and_width() {
        let shape = WorkloadShape::new(8, 1024);
        let key = |device: &str, eb| PlanDb::ungated_key(device, eb, 1024);
        let mut db = PlanDb::in_memory();
        let mut g32: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut g64: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let mut g8800: Gpu<f32> = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let k32 = key("GeForce GTX 470", 4);
        let k64 = key("GeForce GTX 470", 8);
        let k8800 = key("GeForce 8800 GTX", 4);
        ensure_tuned(&mut g32, &mut db, &k32, shape, &mut Microbench::new());
        let cfg64 = ensure_tuned(&mut g64, &mut db, &k64, shape, &mut Microbench::new());
        ensure_tuned(&mut g8800, &mut db, &k8800, shape, &mut Microbench::new());
        assert_eq!(db.len(), 3);
        // f64 config respects the device's f64 on-chip cap.
        assert!(cfg64.onchip_size <= 1024);
        assert_eq!(cfg64.elem_bytes, 8);
        // A warm key spends no evaluations.
        let mut mb = Microbench::new();
        assert_eq!(ensure_tuned(&mut g64, &mut db, &k64, shape, &mut mb), cfg64);
        assert_eq!(mb.measurements, 0);
    }
}
