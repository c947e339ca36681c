//! The "just solve it" convenience layer: tune-on-first-use with a
//! persistent cache, the workflow a downstream application wants.

use crate::cache::TuningCache;
use crate::tuners::{DynamicTuner, TunedConfig};
use trisolve_core::kernels::{elem_bytes, GpuScalar};
use trisolve_core::{solve_batch_on_gpu, Result, SolveOutcome};
use trisolve_gpu_sim::Gpu;
use trisolve_tridiag::workloads::WorkloadShape;
use trisolve_tridiag::SystemBatch;

/// Solve a batch with dynamically tuned parameters, tuning on first use and
/// caching the result under the device name (the paper's "save those
/// results for future runs" loop, packaged).
///
/// The cached configuration is keyed by device + element width; it is
/// refreshed when absent. Pass the same `cache` across calls (and persist
/// it with [`TuningCache::save`]) to amortise tuning completely.
pub fn solve_auto<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    batch: &SystemBatch<T>,
    cache: &mut TuningCache,
) -> Result<SolveOutcome<T>> {
    let shape = WorkloadShape::new(batch.num_systems, batch.system_size);
    let params = ensure_tuned(gpu, shape, cache).params_for(shape);
    solve_batch_on_gpu(gpu, batch, &params)
}

/// Fetch the cached configuration for this device, element width and
/// workload class, or run the dynamic tuner for `shape` and cache the
/// result under the shape's class.
pub fn ensure_tuned<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    shape: WorkloadShape,
    cache: &mut TuningCache,
) -> TunedConfig {
    let name = gpu.spec().name().to_string();
    if let Some(cfg) = cache.get_for(&name, elem_bytes::<T>(), shape) {
        return cfg.clone();
    }
    let mut tuner = DynamicTuner::new();
    let cfg = tuner.tune_for(gpu, shape);
    cache.insert_for(&name, shape, cfg.clone());
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
        let mut cache = TuningCache::new();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());

        assert!(cache.is_empty());
        let out1 = solve_auto(&mut gpu, &batch, &mut cache).unwrap();
        assert_eq!(cache.len(), 1);
        let evals_after_first = cache
            .get_for("GeForce GTX 280", 4, shape)
            .unwrap()
            .evaluations;

        // Second call: no re-tuning (cache unchanged), same result.
        let out2 = solve_auto(&mut gpu, &batch, &mut cache).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache
                .get_for("GeForce GTX 280", 4, shape)
                .unwrap()
                .evaluations,
            evals_after_first
        );
        assert_eq!(out1.x, out2.x);
        assert!(batch_worst_relative_residual(&batch, &out1.x).unwrap() < 1e-4);
    }

    #[test]
    fn cache_is_per_device_and_width() {
        let shape = WorkloadShape::new(8, 1024);
        let mut cache = TuningCache::new();
        let mut g32: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut g64: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        ensure_tuned(&mut g32, shape, &mut cache);
        ensure_tuned(&mut g64, shape, &mut cache);
        let mut g8800: Gpu<f32> = Gpu::new(DeviceSpec::geforce_8800_gtx());
        ensure_tuned(&mut g8800, shape, &mut cache);
        assert_eq!(cache.len(), 3);
        // f64 config respects the device's f64 on-chip cap.
        let cfg64 = cache.get_for("GeForce GTX 470", 8, shape).unwrap();
        assert!(cfg64.onchip_size <= 1024);
        assert_eq!(cfg64.elem_bytes, 8);
    }
}
