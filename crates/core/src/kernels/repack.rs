//! Chain repacking — the third answer to §III-A's strided-subsystem
//! problem, beyond the paper's two base-kernel variants: spend one
//! tiled-transpose pass making every chain *contiguous*, solve with the
//! fully-coalesced stride-1 base kernel, then transpose the solution back.
//!
//! A tiled shared-memory transpose reads and writes global memory
//! coalesced on both sides (the staging tile absorbs the stride), at the
//! price of two extra passes over the data and the tile's shared traffic.
//! Whether that beats the strided gather is exactly the kind of
//! workload-dependent tradeoff the paper's self-tuner exists to settle —
//! `ablation_repack` measures the three-way crossover.

use crate::kernels::{CoeffBuffers, GpuScalar};
use crate::params::SPLIT_KERNEL_REGS_PER_THREAD;
use crate::Result;
use trisolve_gpu_sim::{BlockCtx, BufferId, Gpu, KernelStats, LaunchConfig, OutMode};
use trisolve_tridiag::system::ChainView;

/// Shared-memory accesses per element of a tiled transpose (one write into
/// the tile, one read out).
pub(crate) const TRANSPOSE_SMEM_PER_EQ: usize = 2;

/// Meter one block of a padded-tile transpose: `elems` elements read and
/// written coalesced, `smem_accesses` tile accesses, and the barrier pair
/// around the tile.
pub(crate) fn meter_transpose(ctx: &mut BlockCtx, elems: usize, smem_accesses: usize) {
    ctx.gmem_read(elems, 1);
    ctx.gmem_write(elems, 1);
    ctx.smem(smem_accesses);
    ctx.sync();
    ctx.sync();
}

/// Launch geometry of a padded-tile transpose pass: one block per row of
/// `row_len` elements, staging through the padded 32×33 tile. Shared by
/// repack/unpack and interleave/deinterleave.
pub(crate) fn transpose_config(
    label: String,
    rows: usize,
    row_len: usize,
    elem_bytes: usize,
) -> LaunchConfig {
    LaunchConfig::new(label, rows, 256.min(row_len.max(32)))
        .with_regs(SPLIT_KERNEL_REGS_PER_THREAD)
        .with_shared_mem(32 * 33 * elem_bytes) // padded transpose tile
}

/// Launch geometry of the repack (transpose-in) pass.
pub fn repack_config(m: usize, n: usize, stride: usize, elem_bytes: usize) -> LaunchConfig {
    let (chains, chain_len) = (m * stride, n / stride);
    let label = format!("repack[{chains}x{chain_len}@{stride}]");
    transpose_config(label, chains, chain_len, elem_bytes)
}

/// Launch geometry of the unpack (transpose-out) pass.
pub fn unpack_config(m: usize, n: usize, stride: usize, elem_bytes: usize) -> LaunchConfig {
    let (chains, chain_len) = (m * stride, n / stride);
    let label = format!("unpack[{chains}x{chain_len}@{stride}]");
    transpose_config(label, chains, chain_len, elem_bytes)
}

/// Repack the four coefficient arrays from interleaved chains (stride `k`
/// inside each parent of `n` equations) into chain-major contiguous layout:
/// chain `c` of parent `p` lands at `(p*k + c) * (n/k)`.
///
/// After this pass the chains are ordinary contiguous systems, so the base
/// kernel runs with unit stride (fully coalesced loads and stores).
pub fn repack_chains<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    src: CoeffBuffers,
    dst: CoeffBuffers,
    m: usize,
    n: usize,
    stride: usize,
) -> Result<KernelStats> {
    debug_assert!(n.is_multiple_of(stride));
    let chain_len = n / stride;
    let cfg = repack_config(m, n, stride, std::mem::size_of::<T>());

    let outputs: Vec<_> = dst
        .iter()
        .map(|&b| (b, OutMode::Chunked { chunk: chain_len }))
        .collect();
    let stats = gpu.launch(&cfg, &src, &outputs, |ctx, io| {
        let bid = ctx.block_id as usize;
        let parent = bid / stride;
        let r = bid % stride;
        let chain = ChainView {
            offset: parent * n + r,
            stride,
            len: chain_len,
        };
        // Tracked copy: logical thread `j` owns chain element `j`. The
        // padded shared tile's internal staging is not replayed per element
        // (the tile layout is conflict- and race-free by construction).
        for k in 0..4 {
            for j in 0..chain_len {
                let v = io.load(k, chain.index(j), j, "repack::gather");
                io.store(k, j, v, j, "repack::store");
            }
        }
        // Tiled transpose: both global sides coalesced, staged through a
        // padded (bank-conflict-free) shared tile.
        meter_transpose(
            ctx,
            4 * chain_len,
            2 * TRANSPOSE_SMEM_PER_EQ * 4 * chain_len,
        );
    })?;
    Ok(stats)
}

/// Transpose a chain-major solution vector back to the original
/// (interleaved) equation order.
pub fn unpack_solution<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    x_chain_major: BufferId,
    x_out: BufferId,
    m: usize,
    n: usize,
    stride: usize,
) -> Result<KernelStats> {
    debug_assert!(n.is_multiple_of(stride));
    let chain_len = n / stride;
    let cfg = unpack_config(m, n, stride, std::mem::size_of::<T>());

    let stats = gpu.launch(
        &cfg,
        &[x_chain_major],
        &[(x_out, OutMode::Scattered)],
        |ctx, io| {
            let bid = ctx.block_id as usize;
            let parent = bid / stride;
            let r = bid % stride;
            let chain = ChainView {
                offset: parent * n + r,
                stride,
                len: chain_len,
            };
            for j in 0..chain_len {
                let v = io.load(0, bid * chain_len + j, j, "unpack::load");
                io.scattered[0].set_at(chain.index(j), v, j, "unpack::scatter");
            }
            meter_transpose(ctx, chain_len, TRANSPOSE_SMEM_PER_EQ * chain_len);
        },
    )?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testing::{alloc4, upload};
    use crate::params::BaseVariant;
    use crate::plan::StageOp;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::norms::batch_worst_relative_residual;
    use trisolve_tridiag::pcr;
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

    /// Split on the CPU, repack on the GPU, solve the repacked (contiguous)
    /// chains with the unit-stride base kernel, unpack — the full repack
    /// pipeline must produce the same answer as the strided base kernel.
    #[test]
    fn repack_pipeline_solves_correctly() {
        let (m, n, stride) = (3usize, 2048usize, 8usize);
        let chain_len = n / stride;
        let shape = WorkloadShape::new(m, n);
        let batch = random_dominant::<f64>(shape, 12).unwrap();
        let total = m * n;

        // CPU-side split to `stride` chains per system.
        let (mut a, mut b, mut c, mut d) = (
            vec![0.0; total],
            vec![0.0; total],
            vec![0.0; total],
            vec![0.0; total],
        );
        for s in 0..m {
            let sys = batch.system(s).unwrap();
            let split = pcr::pcr_split(&sys, stride.trailing_zeros()).unwrap();
            a[s * n..(s + 1) * n].copy_from_slice(&split.a);
            b[s * n..(s + 1) * n].copy_from_slice(&split.b);
            c[s * n..(s + 1) * n].copy_from_slice(&split.c);
            d[s * n..(s + 1) * n].copy_from_slice(&split.d);
        }

        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = [
            gpu.alloc_from(&a).unwrap(),
            gpu.alloc_from(&b).unwrap(),
            gpu.alloc_from(&c).unwrap(),
            gpu.alloc_from(&d).unwrap(),
        ];
        let packed = alloc4(&mut gpu, total);
        let x_packed = gpu.alloc(total).unwrap();
        let x_out = gpu.alloc(total).unwrap();

        repack_chains(&mut gpu, src, packed, m, n, stride).unwrap();
        // Repacked chains are contiguous systems of chain_len.
        let base = StageOp::BaseSolve {
            chains: m * stride,
            chain_len,
            stride: 1,
            thomas_chains: 64,
            variant: BaseVariant::Strided,
        };
        base.describe(m * stride, chain_len)
            .launch(&mut gpu, &packed, &[x_packed])
            .unwrap();
        unpack_solution(&mut gpu, x_packed, x_out, m, n, stride).unwrap();

        let x = gpu.download(x_out).unwrap();
        let res = batch_worst_relative_residual(&batch, &x).unwrap();
        assert!(res < 1e-10, "repack pipeline residual {res:.3e}");
    }

    #[test]
    fn repack_meters_coalesced_traffic() {
        let (m, n, stride) = (2usize, 1024usize, 16usize);
        let batch = random_dominant::<f32>(WorkloadShape::new(m, n), 3).unwrap();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());
        let src = upload(&mut gpu, &batch);
        let dst = alloc4(&mut gpu, m * n);
        let stats = repack_chains(&mut gpu, src, dst, m, n, stride).unwrap();
        // The whole point: no transaction waste despite the stride.
        assert_eq!(stats.totals.coalescing_efficiency(), 1.0);
        assert!(stats.totals.smem_accesses > 0.0);
    }

    #[test]
    fn unpack_restores_equation_order() {
        let (m, n, stride) = (2usize, 256usize, 4usize);
        let chain_len = n / stride;
        // Chain-major data: value = parent-index it should land at.
        let mut chain_major = vec![0.0f32; m * n];
        for p in 0..m {
            for r in 0..stride {
                for j in 0..chain_len {
                    chain_major[(p * stride + r) * chain_len + j] = (p * n + r + j * stride) as f32;
                }
            }
        }
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let src = gpu.alloc_from(&chain_major).unwrap();
        let dst = gpu.alloc(m * n).unwrap();
        unpack_solution(&mut gpu, src, dst, m, n, stride).unwrap();
        let out = gpu.download(dst).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }
}
