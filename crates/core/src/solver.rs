//! The one-shot solver entry points, built on [`crate::engine`]'s reusable
//! [`SolveSession`](crate::engine::SolveSession): pad, upload, execute the
//! plan's stage sequence with double-buffered coefficient arrays, download
//! and unpad. Callers that solve the same shape repeatedly should hold a
//! session instead.

use crate::engine::SolveSession;
use crate::kernels::GpuScalar;
use crate::params::SolverParams;
use crate::plan::SolvePlan;
use crate::Result;
use trisolve_gpu_sim::{Gpu, KernelStats};
use trisolve_tridiag::workloads::WorkloadShape;
use trisolve_tridiag::{Scalar, SystemBatch};

/// The result of a multi-stage GPU solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome<T: Scalar> {
    /// Flat solution vector (system-major, original — unpadded — sizes).
    pub x: Vec<T>,
    /// Simulated seconds the solve took (kernel time + launch overheads;
    /// host⇄device transfers excluded, as in the paper's timings).
    pub sim_time_s: f64,
    /// Per-launch statistics, in execution order.
    pub kernel_stats: Vec<KernelStats>,
    /// The plan that was executed.
    pub plan: SolvePlan,
}

impl<T: Scalar> SolveOutcome<T> {
    /// Simulated milliseconds.
    pub fn sim_time_ms(&self) -> f64 {
        self.sim_time_s * 1e3
    }
}

/// Solve a batch of tridiagonal systems on the simulated GPU with the
/// multi-stage solver.
///
/// This is the crate's main entry point: it builds the Figure 1 plan for
/// `params`, pads systems to a power of two if needed, runs the stage
/// kernels, and returns the solution plus the simulated timing profile.
pub fn solve_batch_on_gpu<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    batch: &SystemBatch<T>,
    params: &SolverParams,
) -> Result<SolveOutcome<T>> {
    let shape = WorkloadShape::new(batch.num_systems, batch.system_size);
    let mut session = SolveSession::new(gpu, shape)?;
    session.solve(gpu, batch, params)
    // The session drops here: its RAII buffer guards release every device
    // allocation — on the error path too, with no cleanup bookkeeping.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BaseVariant;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::norms::batch_worst_relative_residual;
    use trisolve_tridiag::workloads::{self, WorkloadShape};

    fn params(p1: usize, s3: usize, t4: usize, variant: BaseVariant) -> SolverParams {
        SolverParams {
            stage1_target_systems: p1,
            onchip_size: s3,
            thomas_switch: t4,
            variant,
        }
    }

    fn check(shape: WorkloadShape, p: &SolverParams, dev: DeviceSpec, tol: f64) {
        let batch = workloads::random_dominant::<f64>(shape, 77).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(dev);
        let out = solve_batch_on_gpu(&mut gpu, &batch, p).unwrap();
        assert_eq!(out.x.len(), shape.total_equations());
        let res = batch_worst_relative_residual(&batch, &out.x).unwrap();
        assert!(res < tol, "residual {res} for {}", shape.label());
        assert!(out.sim_time_s > 0.0);
        // All buffers freed.
        assert_eq!(gpu.allocated_bytes(), 0);
    }

    #[test]
    fn small_systems_base_only() {
        check(
            WorkloadShape::new(64, 128),
            &params(16, 256, 32, BaseVariant::Strided),
            DeviceSpec::gtx_470(),
            1e-9,
        );
    }

    #[test]
    fn many_large_systems_stage2_path() {
        check(
            WorkloadShape::new(32, 2048),
            &params(16, 512, 64, BaseVariant::Strided),
            DeviceSpec::gtx_470(),
            1e-9,
        );
    }

    #[test]
    fn few_large_systems_full_pipeline() {
        // 2 systems of 8192: stage 1 (to 16 systems) + stage 2 + base.
        check(
            WorkloadShape::new(2, 8192),
            &params(16, 512, 128, BaseVariant::Strided),
            DeviceSpec::gtx_470(),
            1e-9,
        );
    }

    #[test]
    fn coalesced_variant_full_pipeline() {
        check(
            WorkloadShape::new(2, 8192),
            &params(16, 512, 128, BaseVariant::Coalesced),
            DeviceSpec::gtx_470(),
            1e-9,
        );
    }

    #[test]
    fn single_huge_system() {
        check(
            WorkloadShape::new(1, 65536),
            &params(16, 256, 64, BaseVariant::Strided),
            DeviceSpec::geforce_8800_gtx(),
            1e-9,
        );
    }

    #[test]
    fn non_power_of_two_padding_round_trip() {
        check(
            WorkloadShape::new(5, 1000),
            &params(16, 256, 32, BaseVariant::Strided),
            DeviceSpec::gtx_280(),
            1e-9,
        );
    }

    #[test]
    fn plan_launch_count_matches_profile() {
        let shape = WorkloadShape::new(2, 8192);
        let p = params(16, 512, 64, BaseVariant::Strided);
        let batch = workloads::random_dominant::<f64>(shape, 3).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let out = solve_batch_on_gpu(&mut gpu, &batch, &p).unwrap();
        assert_eq!(out.kernel_stats.len(), out.plan.num_launches());
        // 2 -> 16 systems: 3 stage-1 launches; remaining splits 8192->512 is
        // 4 total, so stage 2 does 1 step; plus base = 5 launches.
        assert_eq!(out.plan.stage1_steps, 3);
        assert_eq!(out.plan.stage2_steps, 1);
        assert_eq!(out.kernel_stats.len(), 5);
    }

    #[test]
    fn all_paper_devices_solve_the_paper_workloads_small() {
        // Scaled-down versions of the Figure 7 grid for test speed.
        for dev in DeviceSpec::paper_devices() {
            let s3 = SolverParams::max_onchip_size(dev.queryable(), 8).min(256);
            check(
                WorkloadShape::new(64, 1024),
                &params(16, s3, 32, BaseVariant::Strided),
                dev.clone(),
                1e-9,
            );
            check(
                WorkloadShape::new(1, 32768),
                &params(16, s3, 32, BaseVariant::Strided),
                dev,
                1e-9,
            );
        }
    }

    #[test]
    fn timing_profile_is_self_consistent() {
        let shape = WorkloadShape::new(8, 4096);
        let p = params(16, 512, 64, BaseVariant::Strided);
        let batch = workloads::random_dominant::<f64>(shape, 5).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let out = solve_batch_on_gpu(&mut gpu, &batch, &p).unwrap();
        let sum: f64 = out
            .kernel_stats
            .iter()
            .map(trisolve_gpu_sim::KernelStats::total_time_s)
            .sum();
        assert!((sum - out.sim_time_s).abs() < 1e-12);
    }
}
