//! The host side of the solver: the sequential pivoted-LU engine the
//! paper compares against ([`solve_on_host`]), cross-checks of GPU
//! outcomes against it, and a host replay of a plan's algebra.

use crate::engine::check_shape;
use crate::kernels::{elem_bytes, GpuScalar};
use crate::params::SolverParams;
use crate::plan::{SolvePlan, StageOp};
use crate::solver::SolveOutcome;
use crate::Result;
use trisolve_gpu_sim::{CpuSpec, QueryableProps};
use trisolve_tridiag::cpu_batch::{solve_batch_sequential, BatchAlgorithm};
use trisolve_tridiag::norms;
use trisolve_tridiag::workloads::WorkloadShape;
use trisolve_tridiag::{Scalar, SystemBatch};

/// Solve a batch on the host with sequential pivoted LU (the MKL analogue
/// of Fig. 8), timed by the calibrated `cpu` model.
///
/// `outcome.plan` records what `device` *would* have run for this batch
/// under `params`, so callers that pick an engine can still inspect it.
/// The outcome reports no kernel launches.
pub fn solve_on_host<T: GpuScalar>(
    batch: &SystemBatch<T>,
    params: &SolverParams,
    device: &QueryableProps,
    cpu: &CpuSpec,
) -> Result<SolveOutcome<T>> {
    let shape = WorkloadShape::new(batch.num_systems, batch.system_size);
    let plan = SolvePlan::build(shape, params, device, elem_bytes::<T>())?;
    let x = solve_batch_sequential(batch, BatchAlgorithm::Lu)?;
    Ok(SolveOutcome {
        x,
        sim_time_s: cpu
            .time_batch_lu_auto(shape.num_systems, shape.system_size)
            .0,
        kernel_stats: Vec::new(),
        plan,
    })
}

/// Worst component-wise deviation between a GPU outcome and the sequential
/// pivoted-LU reference solution. A batch whose shape differs from the
/// outcome's plan is [`CoreError::BadParams`](crate::CoreError::BadParams).
pub fn compare_with_lu<T: Scalar>(
    batch: &SystemBatch<T>,
    outcome: &SolveOutcome<T>,
) -> Result<f64> {
    check_shape(outcome.plan.shape, batch)?;
    let reference = solve_batch_sequential(batch, BatchAlgorithm::Lu)?;
    Ok(norms::max_abs_diff(&outcome.x, &reference))
}

/// Replay a plan's stage algebra entirely on the CPU: the same PCR split
/// schedule followed by per-chain PCR-Thomas. Used by tests to show the GPU
/// kernels compute *exactly* the planned algorithm (bit-for-bit in f64 up to
/// associativity-neutral operations), not merely something with a small
/// residual.
pub fn replay_plan_on_cpu<T: Scalar>(batch: &SystemBatch<T>, plan: &SolvePlan) -> Result<Vec<T>> {
    use trisolve_tridiag::pcr;
    use trisolve_tridiag::system::ChainView;
    use trisolve_tridiag::thomas::{solve_thomas_chain, ChainScratch};

    let m = batch.num_systems;
    let n = batch.system_size;
    let np = plan.padded_size;

    let total_steps = plan.stage1_steps + plan.stage2_steps;
    let (chain_len, t4) = match plan.ops.last().expect("plans always end with a base solve") {
        StageOp::BaseSolve {
            chain_len,
            thomas_chains,
            ..
        } => (*chain_len, *thomas_chains),
        _ => unreachable!("plans always end with BaseSolve"),
    };

    let mut x_all = Vec::with_capacity(m * n);
    let mut scratch = ChainScratch::new();
    for s in 0..m {
        let sys = batch.system(s)?;
        // Pad like the GPU driver does.
        let mut a = sys.a.clone();
        let mut b = sys.b.clone();
        let mut c = sys.c.clone();
        let mut d = sys.d.clone();
        a.resize(np, T::ZERO);
        b.resize(np, T::ONE);
        c.resize(np, T::ZERO);
        d.resize(np, T::ZERO);
        let padded = trisolve_tridiag::TridiagonalSystem::new(a, b, c, d)?;

        // Global splitting (stages 1+2).
        let split = pcr::pcr_split(&padded, total_steps)?;
        debug_assert_eq!(split.stride, plan.split_factor);

        // Per-chain base solve (stages 3+4).
        let mut x = vec![T::ZERO; np];
        for chain in split.chains() {
            // PCR within the chain to t4 subsystems...
            let ga = chain.gather(&split.a);
            let gb = chain.gather(&split.b);
            let gc = chain.gather(&split.c);
            let gd = chain.gather(&split.d);
            let local = trisolve_tridiag::TridiagonalSystem::new(ga, gb, gc, gd)?;
            let steps = t4.min(chain_len).trailing_zeros();
            let lsplit = pcr::pcr_split(&local, steps)?;
            let mut lx = vec![T::ZERO; chain_len];
            for sub in ChainView::chains_of(0, chain_len, t4.min(chain_len)) {
                solve_thomas_chain(
                    &sub,
                    &lsplit.a,
                    &lsplit.b,
                    &lsplit.c,
                    &lsplit.d,
                    &mut lx,
                    &mut scratch,
                )?;
            }
            chain.scatter(&lx, &mut x);
        }
        x_all.extend_from_slice(&x[..n]);
    }
    Ok(x_all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{BaseVariant, SolverParams};
    use crate::solver::solve_batch_on_gpu;
    use crate::CoreError;
    use trisolve_gpu_sim::{DeviceSpec, Gpu};
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

    #[test]
    fn gpu_solver_matches_cpu_replay_exactly() {
        let shape = WorkloadShape::new(3, 4096);
        let batch = random_dominant::<f64>(shape, 55).unwrap();
        let params = SolverParams {
            stage1_target_systems: 16,
            onchip_size: 512,
            thomas_switch: 64,
            variant: BaseVariant::Strided,
        };
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let out = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
        let replay = replay_plan_on_cpu(&batch, &out.plan).unwrap();
        // Same arithmetic in the same order: results agree to roundoff-free
        // identity in all but degenerate cancellation cases.
        for (i, (u, v)) in out.x.iter().zip(&replay).enumerate() {
            assert!(
                (u - v).abs() <= 1e-12 * (1.0 + v.abs()),
                "i={i}: gpu {u} vs replay {v}"
            );
        }
    }

    #[test]
    fn verify_and_compare_helpers() {
        let shape = WorkloadShape::new(4, 512);
        let batch = random_dominant::<f64>(shape, 2).unwrap();
        let params = SolverParams::default_untuned();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let out = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
        assert!(norms::batch_worst_relative_residual(&batch, &out.x).unwrap() < 1e-10);
        assert!(compare_with_lu(&batch, &out).unwrap() < 1e-8);
    }

    #[test]
    fn solve_on_host_records_the_plan_and_no_launches() {
        let shape = WorkloadShape::new(4, 300);
        let params = SolverParams {
            stage1_target_systems: 16,
            onchip_size: 256,
            thomas_switch: 32,
            variant: BaseVariant::Strided,
        };
        let device = DeviceSpec::gtx_470();
        let plan = SolvePlan::build(shape, &params, device.queryable(), 8).unwrap();
        let cpu = CpuSpec::core_i5_dual_3_4ghz();
        let batch = random_dominant::<f64>(shape, 11).unwrap();
        let out = solve_on_host(&batch, &params, device.queryable(), &cpu).unwrap();
        assert!(norms::batch_worst_relative_residual(&batch, &out.x).unwrap() < 1e-10);
        assert!(
            out.kernel_stats.is_empty(),
            "no kernel launches on the host"
        );
        assert_eq!(out.sim_time_s, cpu.time_batch_lu_auto(4, 300).0);
        assert!(out.sim_time_s > 0.0);
        assert_eq!((out.plan.shape, out.plan.params), (shape, params));
        assert_eq!(out.plan.summary(), plan.summary());
    }

    #[test]
    fn compare_with_lu_refuses_a_batch_of_another_shape() {
        let params = SolverParams::default_untuned();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let batch = random_dominant::<f64>(WorkloadShape::new(2, 300), 3).unwrap();
        let out = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
        // Same element count, different shape: not comparable.
        let other = random_dominant::<f64>(WorkloadShape::new(4, 150), 3).unwrap();
        let err = compare_with_lu(&other, &out);
        assert!(matches!(err, Err(CoreError::BadParams { .. })));
        let shorter = random_dominant::<f64>(WorkloadShape::new(1, 300), 3).unwrap();
        let err = compare_with_lu(&shorter, &out);
        assert!(matches!(err, Err(CoreError::BadParams { .. })));
    }
}
