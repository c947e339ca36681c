//! Stage 2 — independent splitting.
//!
//! One block per independent chain; the block applies as many PCR steps as
//! needed to bring its chain down to the on-chip size, synchronising only
//! within the block — so the whole stage is a *single launch*, the decisive
//! cost advantage over stage 1 (§III-B, Figure 4).
//!
//! Chains produced by stage 1 are strided in their parent system, so every
//! global access of this kernel carries the parent stride; when stage 1 was
//! skipped (`stride_in == 1`) each block owns a contiguous system and the
//! accesses are coalesced. The functional execution gathers each chain once
//! and iterates locally (blocks own their chains exclusively), while the
//! meters charge the per-step global read/write traffic the real kernel —
//! which cannot keep an over-shared-memory-sized chain on chip — would
//! generate.
//!
//! On the host, adjacent chains of one parent are taken together: the
//! launch hands blocks over in tiles of one cache line of elements when the
//! chain stride allows it (`chain_tile`), and a tile's chains run as the
//! lanes of lane-interleaved arrays. Each gathered row and each stored row
//! is then one contiguous run, and every lane gets bit for bit the
//! arithmetic of a chain alone (DESIGN §3.20). Each block still meters on
//! its own context.

use crate::kernels::access::{chain_map, GlobalAccess, KernelAccessSummary};
use crate::kernels::stage1::{
    PCR_LOADS_PER_EQ, PCR_OPS_PER_EQ, PCR_STAGING_SMEM_PER_EQ, PCR_STORES_PER_EQ,
    PCR_UNIQUE_LOADS_PER_EQ,
};
use crate::kernels::{
    block_chain, chain_tile, chain_tile_scratch, elem_bytes, launch_or_price_tiles, BufferRoles,
    ChainTile, Family, GpuScalar, LaunchIo, RecurrenceKind, DOUBLE_BUFFERED,
};
use crate::params::{SPLIT_KERNEL_REGS_PER_THREAD, SPLIT_KERNEL_THREADS};
use crate::Result;
use trisolve_gpu_sim::{store_tile, Gpu, KernelStats, LaunchConfig};

/// The independent splitting stage.
///
/// * `m` parent systems of `n` equations (power of two) live in the
///   current bundle.
/// * On entry each parent is already split into `stride_in` chains
///   (by stage 1); the grid has `m * stride_in` blocks, one per chain.
/// * Each block applies `steps` PCR steps to its chain; the transformed
///   coefficients land in the alternate bundle at the chain's (strided)
///   positions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stage2 {
    pub m: usize,
    pub n: usize,
    pub stride_in: usize,
    pub steps: u32,
}

impl Family for Stage2 {
    const STAGE: &'static str = "stage2";
    const ROLES: BufferRoles = DOUBLE_BUFFERED;

    fn label(&self) -> String {
        let chains = self.m * self.stride_in;
        format!("stage2[chains={chains},steps={}]", self.steps)
    }

    fn config(&self, _elem_bytes: usize) -> LaunchConfig {
        LaunchConfig::new(
            self.label(),
            self.m * self.stride_in,
            SPLIT_KERNEL_THREADS.min(self.n / self.stride_in),
        )
        .with_regs(SPLIT_KERNEL_REGS_PER_THREAD)
    }

    /// `steps` PCR steps applied block-locally.
    fn recurrence(&self) -> RecurrenceKind {
        RecurrenceKind::Pcr { steps: self.steps }
    }

    /// Each block gathers its chain, iterates locally double-buffering
    /// through *global* memory (hence no shared-memory intervals to
    /// prove), and scatters back to the chain's strided positions.
    fn access(&self) -> KernelAccessSummary {
        let (m, n, stride_in) = (self.m, self.n, self.stride_in);
        let chain_len = n / stride_in;
        let map = chain_map(m, n, stride_in, chain_len);
        KernelAccessSummary {
            label: self.label(),
            buffer_len: m * n,
            block_threads: SPLIT_KERNEL_THREADS.min(chain_len),
            smem_elems: 0,
            global: vec![
                GlobalAccess {
                    site: "stage2::gather",
                    is_write: false,
                    map: map.clone(),
                    warp_stride: stride_in,
                    clamped_neighbours: false,
                    exclusive: false,
                },
                GlobalAccess {
                    site: "stage2::scatter",
                    is_write: true,
                    map,
                    warp_stride: stride_in,
                    clamped_neighbours: false,
                    exclusive: true,
                },
            ],
            intervals: Vec::new(),
        }
    }

    fn run<T: GpuScalar>(&self, gpu: &mut Gpu<T>, io: Option<LaunchIo<'_>>) -> Result<KernelStats> {
        let (n, stride_in, steps) = (self.n, self.stride_in, self.steps);
        debug_assert!(n.is_power_of_two());
        debug_assert!(stride_in.is_power_of_two());
        debug_assert!(steps >= 1);
        let chain_len = n / stride_in;
        let cfg = self.config(elem_bytes::<T>());
        let tile = chain_tile(stride_in, elem_bytes::<T>());
        launch_or_price_tiles(gpu, &cfg, io, tile, |scratch, ctxs, ios| {
            let (lanes, inputs) = (ctxs.len(), ios[0].inputs);
            let first = block_chain(ctxs[0].block_id as usize, n, stride_in);
            // Numerics, for the whole tile: its chains as lane-interleaved
            // working arrays (read in place when the tile is contiguous),
            // and the steps. Only an executed launch computes.
            let coeffs = (!ctxs[0].pricing()).then(|| {
                let (work, ..) = scratch.get(chain_tile_scratch(chain_len * lanes), 0);
                let mut coeffs = ChainTile::new(&first, lanes, inputs, work);
                for step in 0..steps {
                    coeffs.pcr_step(1 << step);
                }
                coeffs
            });
            for (g, (ctx, io)) in ctxs.iter_mut().zip(ios.iter()).enumerate() {
                if ctx.sanitizing() {
                    // Replay the gather through the tracked API (the values
                    // were already read above) so memcheck/initcheck see the
                    // kernel's true global read set. Logical thread `j` owns
                    // chain element `j`. The per-step streaming below
                    // double-buffers through global memory (`src` → `dst`),
                    // so it is race-free by construction and needs no
                    // shared-memory replay.
                    for k in 0..4 {
                        for j in 0..chain_len {
                            let _ = io.load(k, first.index(j) + g, j, "stage2::gather");
                        }
                    }
                }
                for _ in 0..steps {
                    // The real kernel streams the chain through global memory
                    // every step (it exceeds shared capacity by
                    // construction).
                    ctx.gmem_read_staged(
                        PCR_LOADS_PER_EQ * chain_len,
                        PCR_UNIQUE_LOADS_PER_EQ * chain_len,
                        stride_in,
                    );
                    ctx.gmem_write(PCR_STORES_PER_EQ * chain_len, stride_in);
                    ctx.smem(PCR_STAGING_SMEM_PER_EQ * chain_len);
                    ctx.ops(PCR_OPS_PER_EQ * chain_len);
                    ctx.sync();
                }
            }
            // Scatter the final coefficients to the chains' parent positions.
            if let Some(coeffs) = coeffs {
                for (k, vals) in coeffs.cur().into_iter().enumerate() {
                    store_tile(
                        ios,
                        k,
                        first.offset,
                        first.stride,
                        |_| chain_len,
                        vals,
                        "stage2::scatter",
                    );
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testing::{alloc4, upload};
    use crate::kernels::CoeffBuffers;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::pcr;

    fn stage2_split(
        gpu: &mut Gpu<f64>,
        src: CoeffBuffers,
        dst: CoeffBuffers,
        m: usize,
        n: usize,
        stride_in: usize,
        steps: u32,
    ) -> Result<KernelStats> {
        Stage2 {
            m,
            n,
            stride_in,
            steps,
        }
        .run(gpu, Some((&src, &dst)))
    }
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

    fn gpu470() -> Gpu<f64> {
        Gpu::new(DeviceSpec::gtx_470())
    }

    #[test]
    fn contiguous_systems_match_cpu_pcr_split() {
        // m systems, no prior stage-1 splitting: stride_in = 1.
        let shape = WorkloadShape::new(4, 1024);
        let batch = random_dominant::<f64>(shape, 5).unwrap();
        let mut gpu = gpu470();
        let src = upload(&mut gpu, &batch);
        let dst = alloc4(&mut gpu, shape.total_equations());
        stage2_split(&mut gpu, src, dst, 4, 1024, 1, 2).unwrap();

        let gb = gpu.download(dst[1]).unwrap();
        let gd = gpu.download(dst[3]).unwrap();
        for s in 0..4 {
            let sys = batch.system(s).unwrap();
            let split = pcr::pcr_split(&sys, 2).unwrap();
            for i in 0..1024 {
                assert!((gb[s * 1024 + i] - split.b[i]).abs() < 1e-12);
                assert!((gd[s * 1024 + i] - split.d[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn strided_chains_compose_with_prior_split() {
        // Apply 2 steps via two single-step stage-2 calls with growing
        // stride_in, and compare against one 2-step call.
        let shape = WorkloadShape::new(1, 2048);
        let batch = random_dominant::<f64>(shape, 9).unwrap();

        let mut g1 = gpu470();
        let src = upload(&mut g1, &batch);
        let dst = alloc4(&mut g1, 2048);
        stage2_split(&mut g1, src, dst, 1, 2048, 1, 2).unwrap();
        let direct_b = g1.download(dst[1]).unwrap();

        let mut g2 = gpu470();
        let src2 = upload(&mut g2, &batch);
        let mid = alloc4(&mut g2, 2048);
        let fin = alloc4(&mut g2, 2048);
        stage2_split(&mut g2, src2, mid, 1, 2048, 1, 1).unwrap();
        stage2_split(&mut g2, mid, fin, 1, 2048, 2, 1).unwrap();
        let composed_b = g2.download(fin[1]).unwrap();

        for i in 0..2048 {
            assert!(
                (direct_b[i] - composed_b[i]).abs() < 1e-10,
                "i={i}: {} vs {}",
                direct_b[i],
                composed_b[i]
            );
        }
    }

    #[test]
    fn single_launch_regardless_of_steps() {
        let shape = WorkloadShape::new(8, 4096);
        let batch = random_dominant::<f64>(shape, 3).unwrap();
        let mut gpu = gpu470();
        let src = upload(&mut gpu, &batch);
        let dst = alloc4(&mut gpu, shape.total_equations());
        stage2_split(&mut gpu, src, dst, 8, 4096, 1, 3).unwrap();
        assert_eq!(gpu.timeline().len(), 1);
    }

    #[test]
    fn strided_chains_pay_coalescing_penalty() {
        let shape = WorkloadShape::new(1, 4096);
        let batch = random_dominant::<f64>(shape, 3).unwrap();

        // stride_in = 1: coalesced.
        let mut g1 = gpu470();
        let src = upload(&mut g1, &batch);
        let dst = alloc4(&mut g1, 4096);
        let s1 = stage2_split(&mut g1, src, dst, 1, 4096, 1, 1).unwrap();
        // Contiguous chains: only the missed fraction of the redundant
        // neighbour streams costs anything.
        assert!(s1.totals.coalescing_efficiency() > 0.7);

        // stride_in = 8: wasteful transactions.
        let mut g2 = gpu470();
        let src2 = upload(&mut g2, &batch);
        // Pre-split on the CPU so the data is meaningful (not required for
        // the traffic check, but keeps the kernel numerically sensible).
        let dst2 = alloc4(&mut g2, 4096);
        let s2 = stage2_split(&mut g2, src2, dst2, 1, 4096, 8, 1).unwrap();
        assert!(s2.totals.coalescing_efficiency() < 0.5);
    }

    #[test]
    fn chain_scatter_covers_everything_without_races() {
        // Race checking is always on: a successful launch proves chains
        // are disjoint and cover the buffer.
        let shape = WorkloadShape::new(2, 1024);
        let batch = random_dominant::<f64>(shape, 8).unwrap();
        let mut gpu = gpu470();
        let src = upload(&mut gpu, &batch);
        let dst = alloc4(&mut gpu, 2048);
        stage2_split(&mut gpu, src, dst, 2, 1024, 4, 1).unwrap();
    }
}
