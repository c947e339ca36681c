//! The interleaved batched-Thomas fast path — the stage-skip alternative to
//! the whole staged CR/PCR pipeline for the many-small-systems regime.
//!
//! The batch is repacked into fully *interleaved* layout (system `i`'s
//! element `j` at `j·batch + i`, coefficient `batch` in the affine map),
//! after which one thread per system runs the serial Thomas algorithm with
//! every global access perfectly coalesced across the warp's systems: thread
//! `i` and thread `i+1` always touch adjacent elements. No shared memory, no
//! block synchronisation, no PCR splitting — the approach of the interleaved
//! batch solvers of Gloster et al. and Carroll et al. (see PAPERS.md), which
//! beats staged PCR outright once the batch is large and the systems small.
//!
//! Three kernels, matching the plan's three stage-skip ops:
//!
//! * [`interleave_batch`] — tiled-transpose repack from system-major to
//!   interleaved layout (both global sides coalesced, like
//!   [`crate::kernels::repack`]);
//! * [`ithomas_solve`] — the single-kernel batched Thomas solve, reading
//!   interleaved coefficients and scattering the interleaved solution;
//! * [`deinterleave_solution`] — tiled-transpose repack of the solution back
//!   to system-major order.
//!
//! Each exports its `LaunchConfig` builder here and its affine access
//! summary in [`crate::kernels::access`], side by side with the five staged
//! families, so `SolvePlan::launch_configs` / `access_summaries` stay zipped
//! 1:1 and the description cannot drift from the execution.

use crate::error::CoreError;
use crate::kernels::base::THOMAS_OPS_PER_EQ;
use crate::kernels::{elem_bytes, launch_or_price, CoeffBuffers, GpuScalar};
use crate::params::SPLIT_KERNEL_REGS_PER_THREAD;
use crate::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use trisolve_gpu_sim::{BufferId, Gpu, KernelStats, LaunchConfig, OutMode};
use trisolve_tridiag::system::ChainView;
use trisolve_tridiag::thomas::{self, ChainScratch};

/// Shared-memory accesses per element of the tiled repack transpose (one
/// write into the padded tile, one read out) — same constant family as the
/// chain-repack kernels.
const TRANSPOSE_SMEM_PER_EQ: usize = 2;

/// Registers per thread of the batched-Thomas kernel: the per-system
/// running recurrence needs only a handful of live values (the forward
/// coefficients round-trip through global scratch, not registers).
pub const ITHOMAS_REGS_PER_THREAD: usize = 16;

fn transpose_block_threads(n: usize) -> usize {
    256.min(n.max(32))
}

/// Launch geometry of the interleave (transpose-in) pass (shared between
/// the kernel and the plan validator so the two cannot drift).
pub fn interleave_config(m: usize, n: usize, elem_bytes: usize) -> LaunchConfig {
    LaunchConfig::new(
        format!("interleave[{m}x{n}]"),
        m,
        transpose_block_threads(n),
    )
    .with_regs(SPLIT_KERNEL_REGS_PER_THREAD)
    .with_shared_mem(32 * 33 * elem_bytes) // padded transpose tile
}

/// Launch geometry of the batched-Thomas solve: one thread per system,
/// warp-width blocks, no shared memory at all.
pub fn ithomas_config(m: usize, n: usize, _elem_bytes: usize) -> LaunchConfig {
    let block = 256.min(m.max(32));
    LaunchConfig::new(format!("ithomas[{m}x{n}]"), m.div_ceil(block), block)
        .with_regs(ITHOMAS_REGS_PER_THREAD)
}

/// Launch geometry of the deinterleave (transpose-out) pass.
pub fn deinterleave_config(m: usize, n: usize, elem_bytes: usize) -> LaunchConfig {
    LaunchConfig::new(
        format!("deinterleave[{m}x{n}]"),
        m,
        transpose_block_threads(n),
    )
    .with_regs(SPLIT_KERNEL_REGS_PER_THREAD)
    .with_shared_mem(32 * 33 * elem_bytes)
}

/// Repack the four coefficient arrays from system-major layout (`src`,
/// system `s` contiguous at `s·n`) into fully interleaved layout (`dst`,
/// element `j` of system `s` at `j·m + s`) with a tiled shared-memory
/// transpose: both global sides coalesced, staged through the padded
/// (bank-conflict-free) 32×33 tile.
pub fn interleave_batch<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    src: CoeffBuffers,
    dst: CoeffBuffers,
    m: usize,
    n: usize,
) -> Result<KernelStats> {
    interleave_run(gpu, Some((src, dst)), m, n)
}

/// [`interleave_batch`] from `src` into `dst`, or priced from its meters
/// alone when `bufs` is `None` (see [`launch_or_price`]).
pub(crate) fn interleave_run<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    bufs: Option<(CoeffBuffers, CoeffBuffers)>,
    m: usize,
    n: usize,
) -> Result<KernelStats> {
    let cfg = interleave_config(m, n, elem_bytes::<T>());
    let io = bufs.map(|(src, dst)| (src, dst.map(|b| (b, OutMode::Scattered))));
    launch_or_price(gpu, &cfg, io, |ctx, io| {
        let s = ctx.block_id as usize;
        // Tracked copy: logical thread `j` owns element `j` of system `s`.
        // The padded tile's internal staging is not replayed per element
        // (the tile layout is conflict- and race-free by construction).
        if !ctx.pricing() {
            for k in 0..4 {
                for j in 0..n {
                    let v = io.load(k, s * n + j, j, "interleave::load");
                    io.scattered[k].set_at(j * m + s, v, j, "interleave::scatter");
                }
            }
        }
        ctx.gmem_read(4 * n, 1);
        ctx.gmem_write(4 * n, 1);
        ctx.smem(2 * TRANSPOSE_SMEM_PER_EQ * 4 * n);
        ctx.sync();
        ctx.sync();
    })
}

/// Solve the whole interleaved batch with one kernel: thread `s` runs the
/// serial Thomas algorithm over system `s`, reading coefficients at
/// `j·m + s` (perfectly coalesced across the warp) and scattering the
/// solution back in the same interleaved layout into `x_interleaved`.
///
/// The forward-elimination coefficients round-trip through global scratch
/// (they do not fit registers for any interesting `n`); the traffic is
/// metered coalesced like every other access of this kernel.
pub fn ithomas_solve<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    src: CoeffBuffers,
    x_interleaved: BufferId,
    m: usize,
    n: usize,
) -> Result<KernelStats> {
    ithomas_run(gpu, Some((src, x_interleaved)), m, n)
}

/// [`ithomas_solve`] from `src` into `x_interleaved`, or priced from its
/// meters alone when `bufs` is `None` (see [`launch_or_price`]).
pub(crate) fn ithomas_run<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    bufs: Option<(CoeffBuffers, BufferId)>,
    m: usize,
    n: usize,
) -> Result<KernelStats> {
    let cfg = ithomas_config(m, n, elem_bytes::<T>());
    let block = cfg.block_threads;

    let failed = AtomicBool::new(false);
    let io = bufs.map(|(src, x)| (src, [(x, OutMode::Scattered)]));
    let stats = launch_or_price(gpu, &cfg, io, |ctx, io| {
        let first = ctx.block_id as usize * block;
        let count = block.min(m.saturating_sub(first));
        if count == 0 {
            return;
        }
        if !ctx.pricing() {
            let mut lx = vec![T::ZERO; n];
            let mut scratch = ChainScratch::new();
            for t in 0..count {
                let s = first + t;
                // System `s` as an interleaved chain: element `j` at
                // `j·m + s`.
                let chain = ChainView {
                    offset: s,
                    stride: m,
                    len: n,
                };
                let cur = (
                    chain.gather(io.inputs[0]),
                    chain.gather(io.inputs[1]),
                    chain.gather(io.inputs[2]),
                    chain.gather(io.inputs[3]),
                );
                if ctx.sanitizing() {
                    for k in 0..4 {
                        for j in 0..n {
                            let _ = io.load(k, chain.index(j), t, "ithomas::load");
                        }
                    }
                }
                let local = ChainView {
                    offset: 0,
                    stride: 1,
                    len: n,
                };
                if thomas::solve_thomas_chain(
                    &local,
                    &cur.0,
                    &cur.1,
                    &cur.2,
                    &cur.3,
                    &mut lx,
                    &mut scratch,
                )
                .is_err()
                {
                    failed.store(true, Ordering::Relaxed);
                    return;
                }
                for (j, &v) in lx.iter().enumerate() {
                    if !v.is_finite() {
                        failed.store(true, Ordering::Relaxed);
                        return;
                    }
                    io.scattered[0].set_at(chain.index(j), v, t, "ithomas::store");
                }
            }
        }
        // Coalesced coefficient load, forward-coefficient round trip
        // through global scratch, and the solution store — all stride 1
        // across the warp's adjacent systems.
        ctx.gmem_read(4 * n * count, 1);
        ctx.gmem_write(2 * n * count, 1);
        ctx.gmem_read(2 * n * count, 1);
        ctx.gmem_write(n * count, 1);
        // One serial Thomas sweep pair per system, `count` systems in
        // flight per block: each thread walks `n` dependent steps.
        ctx.serial_phase(n, THOMAS_OPS_PER_EQ, count);
    })?;

    if failed.load(Ordering::Relaxed) {
        return Err(CoreError::NumericalBreakdown {
            kernel: cfg.label.clone(),
        });
    }
    Ok(stats)
}

/// Transpose an interleaved solution vector back to system-major order:
/// element `j` of system `s` moves from `j·m + s` to `s·n + j`, staged
/// through the same padded tile as [`interleave_batch`].
pub fn deinterleave_solution<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    x_interleaved: BufferId,
    x_out: BufferId,
    m: usize,
    n: usize,
) -> Result<KernelStats> {
    deinterleave_run(gpu, Some((x_interleaved, x_out)), m, n)
}

/// [`deinterleave_solution`] from `x_interleaved` into `x_out`, or priced
/// from its meters alone when `bufs` is `None` (see [`launch_or_price`]).
pub(crate) fn deinterleave_run<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    bufs: Option<(BufferId, BufferId)>,
    m: usize,
    n: usize,
) -> Result<KernelStats> {
    let cfg = deinterleave_config(m, n, elem_bytes::<T>());
    let io = bufs.map(|(xi, x)| ([xi], [(x, OutMode::Scattered)]));
    launch_or_price(gpu, &cfg, io, |ctx, io| {
        let s = ctx.block_id as usize;
        if !ctx.pricing() {
            for j in 0..n {
                let v = io.load(0, j * m + s, j, "deinterleave::load");
                io.scattered[0].set_at(s * n + j, v, j, "deinterleave::scatter");
            }
        }
        ctx.gmem_read(n, 1);
        ctx.gmem_write(n, 1);
        ctx.smem(TRANSPOSE_SMEM_PER_EQ * n);
        ctx.sync();
        ctx.sync();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::cpu_batch::{solve_batch_sequential, BatchAlgorithm};
    use trisolve_tridiag::norms::batch_worst_relative_residual;
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};
    use trisolve_tridiag::SystemBatch;

    fn coeffs(gpu: &mut Gpu<f64>, batch: &SystemBatch<f64>) -> CoeffBuffers {
        [
            gpu.alloc_from(&batch.a).unwrap(),
            gpu.alloc_from(&batch.b).unwrap(),
            gpu.alloc_from(&batch.c).unwrap(),
            gpu.alloc_from(&batch.d).unwrap(),
        ]
    }

    fn alloc4(gpu: &mut Gpu<f64>, total: usize) -> CoeffBuffers {
        [
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
        ]
    }

    #[test]
    fn interleave_is_a_transpose() {
        let (m, n) = (64usize, 16usize);
        let shape = WorkloadShape::new(m, n);
        let batch = random_dominant::<f64>(shape, 5).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = coeffs(&mut gpu, &batch);
        let dst = alloc4(&mut gpu, m * n);
        interleave_batch(&mut gpu, src, dst, m, n).unwrap();
        let out = gpu.download(dst[3]).unwrap();
        for s in 0..m {
            for j in 0..n {
                assert_eq!(out[j * m + s], batch.d[s * n + j], "s={s} j={j}");
            }
        }
    }

    #[test]
    fn full_pipeline_matches_cpu_lu() {
        for (m, n) in [(128usize, 32usize), (100, 48), (1000, 64)] {
            let shape = WorkloadShape::new(m, n);
            let batch = random_dominant::<f64>(shape, 17).unwrap();
            let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
            let src = coeffs(&mut gpu, &batch);
            let dst = alloc4(&mut gpu, m * n);
            let xi = gpu.alloc(m * n).unwrap();
            let x = gpu.alloc(m * n).unwrap();
            interleave_batch(&mut gpu, src, dst, m, n).unwrap();
            ithomas_solve(&mut gpu, dst, xi, m, n).unwrap();
            deinterleave_solution(&mut gpu, xi, x, m, n).unwrap();
            let got = gpu.download(x).unwrap();
            let expect = solve_batch_sequential(&batch, BatchAlgorithm::Lu).unwrap();
            let res = batch_worst_relative_residual(&batch, &got).unwrap();
            assert!(res < 1e-10, "m={m} n={n} residual {res:.3e}");
            for (u, v) in got.iter().zip(&expect) {
                assert!((u - v).abs() < 1e-8, "m={m} n={n}");
            }
        }
    }

    #[test]
    fn ithomas_traffic_is_fully_coalesced() {
        let (m, n) = (4096usize, 64usize);
        let batch = random_dominant::<f64>(WorkloadShape::new(m, n), 3).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = coeffs(&mut gpu, &batch);
        let dst = alloc4(&mut gpu, m * n);
        let xi = gpu.alloc(m * n).unwrap();
        interleave_batch(&mut gpu, src, dst, m, n).unwrap();
        let stats = ithomas_solve(&mut gpu, dst, xi, m, n).unwrap();
        assert_eq!(stats.totals.coalescing_efficiency(), 1.0);
        assert_eq!(stats.totals.smem_accesses, 0.0);
        assert_eq!(stats.totals.barriers, 0.0);
    }

    #[test]
    fn ragged_tail_block_solves_every_system() {
        // 300 systems with 256-thread blocks: the second block runs a
        // 44-system ragged tail.
        let (m, n) = (300usize, 32usize);
        let batch = random_dominant::<f64>(WorkloadShape::new(m, n), 9).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let src = coeffs(&mut gpu, &batch);
        let dst = alloc4(&mut gpu, m * n);
        let xi = gpu.alloc(m * n).unwrap();
        let x = gpu.alloc(m * n).unwrap();
        interleave_batch(&mut gpu, src, dst, m, n).unwrap();
        ithomas_solve(&mut gpu, dst, xi, m, n).unwrap();
        deinterleave_solution(&mut gpu, xi, x, m, n).unwrap();
        let got = gpu.download(x).unwrap();
        assert!(batch_worst_relative_residual(&batch, &got).unwrap() < 1e-10);
    }

    #[test]
    fn f32_pipeline_keeps_single_precision_accuracy() {
        let (m, n) = (512usize, 64usize);
        let shape = WorkloadShape::new(m, n);
        let batch = random_dominant::<f32>(shape, 7).unwrap();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let src = [
            gpu.alloc_from(&batch.a).unwrap(),
            gpu.alloc_from(&batch.b).unwrap(),
            gpu.alloc_from(&batch.c).unwrap(),
            gpu.alloc_from(&batch.d).unwrap(),
        ];
        let dst = [
            gpu.alloc(m * n).unwrap(),
            gpu.alloc(m * n).unwrap(),
            gpu.alloc(m * n).unwrap(),
            gpu.alloc(m * n).unwrap(),
        ];
        let xi = gpu.alloc(m * n).unwrap();
        let x = gpu.alloc(m * n).unwrap();
        interleave_batch(&mut gpu, src, dst, m, n).unwrap();
        ithomas_solve(&mut gpu, dst, xi, m, n).unwrap();
        deinterleave_solution(&mut gpu, xi, x, m, n).unwrap();
        let got = gpu.download(x).unwrap();
        assert!(batch_worst_relative_residual(&batch, &got).unwrap() < 1e-4);
    }

    #[test]
    fn numerical_breakdown_reported_not_propagated_as_nan() {
        // Singular systems (zero diagonal): the solve must error, not emit
        // NaN solutions.
        let (m, n) = (64usize, 16usize);
        let a = vec![0.0f64; m * n];
        let b = vec![0.0f64; m * n];
        let c = vec![0.0f64; m * n];
        let d = vec![1.0f64; m * n];
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = [
            gpu.alloc_from(&a).unwrap(),
            gpu.alloc_from(&b).unwrap(),
            gpu.alloc_from(&c).unwrap(),
            gpu.alloc_from(&d).unwrap(),
        ];
        let xi = gpu.alloc(m * n).unwrap();
        let err = ithomas_solve(&mut gpu, src, xi, m, n);
        assert!(matches!(err, Err(CoreError::NumericalBreakdown { .. })));
    }

    #[test]
    fn configs_match_kernel_geometry() {
        let cfg = ithomas_config(65536, 64, 4);
        assert_eq!(cfg.block_threads, 256);
        assert_eq!(cfg.grid_blocks, 256);
        assert_eq!(cfg.shared_mem_bytes, 0);
        // Tiny batches still launch warp-width blocks.
        let small = ithomas_config(40, 64, 4);
        assert_eq!(small.block_threads, 40);
        assert_eq!(small.grid_blocks, 1);
        let il = interleave_config(1024, 32, 8);
        assert_eq!(il.grid_blocks, 1024);
        assert_eq!(il.block_threads, 32);
        assert_eq!(il.shared_mem_bytes, 32 * 33 * 8);
        let dl = deinterleave_config(1024, 32, 4);
        assert_eq!(dl.label, "deinterleave[1024x32]");
    }
}
