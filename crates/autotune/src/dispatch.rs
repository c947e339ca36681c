//! CPU/GPU dispatch — the paper's closing future-work item ("extend our
//! techniques to also explore the boundary between GPU and CPU", §VII),
//! built from the pieces the reproduction already has: a tuned GPU solver
//! with a simulated stopwatch, and the calibrated MKL-class CPU model.
//!
//! Figure 8 is exactly a dispatch table: the GPU wins parallel workloads
//! 6–11×, the CPU wins the single 2M-equation system. [`Dispatcher`]
//! measures both sides per workload class (tuning the GPU side first) and
//! remembers the verdicts, so an application can just call
//! [`Dispatcher::solve`] and always get the faster engine.

use crate::microbench::Microbench;
use crate::tuners::{DynamicTuner, TunedConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use trisolve_core::kernels::{elem_bytes, GpuScalar};
use trisolve_core::reference::solve_on_host;
use trisolve_core::{solve_batch_on_gpu, CoreError, SolveOutcome, SolvePlan};
use trisolve_gpu_sim::{CpuSpec, Gpu};
use trisolve_tridiag::workloads::WorkloadShape;
use trisolve_tridiag::SystemBatch;

/// Which engine a workload class should run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// The multi-stage GPU solver (dynamically tuned).
    Gpu,
    /// The sequential-LU CPU solver (MKL analogue).
    Cpu,
}

/// A per-workload-class dispatch decision with the measurements behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// The chosen engine.
    pub engine: Engine,
    /// Simulated GPU milliseconds (tuned).
    pub gpu_ms: f64,
    /// Simulated CPU milliseconds (model).
    pub cpu_ms: f64,
    /// The tuned GPU configuration used for the measurement.
    pub gpu_config: TunedConfig,
}

/// Chooses, per workload class, whether to solve on the (simulated) GPU or
/// the CPU — by measuring, exactly like the dynamic tuner.
#[derive(Debug, Default)]
pub struct Dispatcher {
    cpu: Option<CpuSpec>,
    verdicts: HashMap<WorkloadShape, Verdict>,
}

impl Dispatcher {
    /// Dispatcher with the paper's Core i5 CPU model.
    pub fn new() -> Self {
        Self {
            cpu: None,
            verdicts: HashMap::new(),
        }
    }

    /// Override the CPU model (defaults to the paper's Core i5).
    pub fn with_cpu(mut self, cpu: CpuSpec) -> Self {
        self.cpu = Some(cpu);
        self
    }

    fn cpu_spec(&self) -> CpuSpec {
        self.cpu
            .clone()
            .unwrap_or_else(CpuSpec::core_i5_dual_3_4ghz)
    }

    /// The dispatch decision for a workload class, measuring (and tuning
    /// the GPU side) on first sight.
    pub fn decide<T: GpuScalar>(&mut self, gpu: &mut Gpu<T>, shape: WorkloadShape) -> Verdict {
        if let Some(v) = self.verdicts.get(&shape) {
            return v.clone();
        }
        let mut tuner = DynamicTuner::new();
        let config = tuner.tune_for(gpu, shape);
        let params = config.params_for(shape);
        let mut mb: Microbench<T> = Microbench::new();
        let mut gpu_ms = mb.measure(gpu, shape, &params) * 1e3;
        // Static launch validation as a dispatch gate: a plan with a launch
        // the device would reject must never be routed to the GPU, whatever
        // the measurement said.
        let device = gpu.spec().queryable();
        if SolvePlan::admit(shape, &params, device, elem_bytes::<T>()).is_err() {
            gpu_ms = f64::INFINITY;
        }
        let (cpu_s, _) = self
            .cpu_spec()
            .time_batch_lu_auto(shape.num_systems, shape.system_size);
        let cpu_ms = cpu_s * 1e3;
        let verdict = Verdict {
            engine: if gpu_ms <= cpu_ms {
                Engine::Gpu
            } else {
                Engine::Cpu
            },
            gpu_ms,
            cpu_ms,
            gpu_config: config,
        };
        self.verdicts.insert(shape, verdict.clone());
        verdict
    }

    /// Solve on whichever engine the (cached) verdict prefers: the CPU path
    /// really solves on the host (sequential LU, like MKL) under the
    /// calibrated timing model, with `outcome.plan` recording what the GPU
    /// *would* have run; the GPU path runs the tuned multi-stage solver.
    pub fn solve<T: GpuScalar>(
        &mut self,
        gpu: &mut Gpu<T>,
        batch: &SystemBatch<T>,
    ) -> Result<(SolveOutcome<T>, Engine), CoreError> {
        let shape = WorkloadShape::new(batch.num_systems, batch.system_size);
        let verdict = self.decide(gpu, shape);
        let params = verdict.gpu_config.params_for(shape);
        match verdict.engine {
            Engine::Gpu => Ok((solve_batch_on_gpu(gpu, batch, &params)?, Engine::Gpu)),
            Engine::Cpu => {
                let outcome =
                    solve_on_host(batch, &params, gpu.spec().queryable(), &self.cpu_spec())?;
                Ok((outcome, Engine::Cpu))
            }
        }
    }

    /// Verdicts accumulated so far.
    pub fn verdicts(&self) -> impl Iterator<Item = (&WorkloadShape, &Verdict)> {
        self.verdicts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::norms::batch_worst_relative_residual;
    use trisolve_tridiag::workloads::random_dominant;

    #[test]
    fn figure8_crossover_drives_dispatch_and_routing() {
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut d = Dispatcher::new();
        // Parallel workload: GPU wins (Figure 8: 11x) — and solving routes
        // there with a correct result.
        let gpu_shape = WorkloadShape::new(1024, 1024);
        let v = d.decide(&mut gpu, gpu_shape);
        assert_eq!(v.engine, Engine::Gpu, "gpu {} cpu {}", v.gpu_ms, v.cpu_ms);
        let batch = random_dominant::<f32>(gpu_shape, 1).unwrap();
        let (out, engine) = d.solve(&mut gpu, &batch).unwrap();
        assert_eq!(engine, Engine::Gpu);
        assert!(batch_worst_relative_residual(&batch, &out.x).unwrap() < 1e-4);

        // Single huge system: CPU wins (Figure 8: 0.7x) — the CPU path
        // really solves on the host.
        let cpu_shape = WorkloadShape::new(1, 2 * 1024 * 1024);
        let v = d.decide(&mut gpu, cpu_shape);
        assert_eq!(v.engine, Engine::Cpu, "gpu {} cpu {}", v.gpu_ms, v.cpu_ms);
        let batch = random_dominant::<f32>(cpu_shape, 2).unwrap();
        let (out, engine) = d.solve(&mut gpu, &batch).unwrap();
        assert_eq!(engine, Engine::Cpu);
        assert!(batch_worst_relative_residual(&batch, &out.x).unwrap() < 1e-3);
        assert!(out.kernel_stats.is_empty(), "CPU path launches nothing");
    }

    #[test]
    fn decisions_are_cached() {
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());
        let mut d = Dispatcher::new();
        let shape = WorkloadShape::new(64, 1024);
        let v1 = d.decide(&mut gpu, shape);
        let launches = gpu.timeline().len();
        let v2 = d.decide(&mut gpu, shape);
        assert_eq!(v1, v2);
        assert_eq!(gpu.timeline().len(), launches, "no re-measurement");
        assert_eq!(d.verdicts().count(), 1);
    }

    #[test]
    fn slower_cpu_shifts_the_boundary() {
        // With a CPU model 20x slower, even a large single system moves to
        // the GPU side of the boundary.
        let slow_cpu = CpuSpec {
            ns_per_eq_lu: 16.2 * 20.0,
            ..CpuSpec::core_i5_dual_3_4ghz()
        };
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut d = Dispatcher::new().with_cpu(slow_cpu);
        let v = d.decide(&mut gpu, WorkloadShape::new(1, 1 << 20));
        assert_eq!(v.engine, Engine::Gpu);
    }
}
