//! Stage 1 — cooperative splitting.
//!
//! One PCR step at a given stride, applied to *every* equation of every
//! system by the whole machine: blocks cover contiguous equation ranges, so
//! all global accesses are coalesced, and the split factor of every system
//! doubles. Because the next step needs the values written by this one,
//! each step is its own kernel launch — the global synchronisation whose
//! fixed cost (launch overhead) is exactly why the paper leaves stage 1 as
//! soon as there are enough independent systems (§III-C).

use crate::kernels::{launch_or_price, CoeffBuffers, GpuScalar};
use crate::params::{SPLIT_KERNEL_REGS_PER_THREAD, SPLIT_KERNEL_THREADS};
use crate::Result;
use trisolve_gpu_sim::{BlockIo, Gpu, KernelStats, LaunchConfig, OutMode};

/// Per-equation thread-operations of one PCR row update.
pub const PCR_OPS_PER_EQ: usize = 12;
/// Per-equation global loads of one PCR row update: own row plus two
/// neighbour rows, 4 values each. The neighbour streams overlap the own-row
/// stream and are staged through shared memory / caught by the texture
/// cache, so only `PCR_UNIQUE_LOADS_PER_EQ` of them are unique traffic.
pub const PCR_LOADS_PER_EQ: usize = 12;
/// Unique per-equation global loads of one PCR row update.
pub const PCR_UNIQUE_LOADS_PER_EQ: usize = 4;
/// Shared-memory accesses per equation for the neighbour staging.
pub const PCR_STAGING_SMEM_PER_EQ: usize = 12;
/// Per-equation global stores of one PCR row update.
pub const PCR_STORES_PER_EQ: usize = 4;

/// Launch geometry of one cooperative splitting step. The kernel launches
/// with exactly this configuration, so static validation of the config *is*
/// validation of the launch — the two cannot drift.
pub fn stage1_config(m: usize, n: usize, stride: usize) -> LaunchConfig {
    let total = m * n;
    let chunk = n.min(1024);
    let grid = total / chunk;
    LaunchConfig::new(
        format!("stage1[stride={stride}]"),
        grid,
        SPLIT_KERNEL_THREADS,
    )
    .with_regs(SPLIT_KERNEL_REGS_PER_THREAD)
}

/// Launch one cooperative splitting step: PCR at `stride` over a batch of
/// `m` systems of `n` (power-of-two) equations, reading `src` and writing
/// `dst`.
pub fn stage1_step<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    src: CoeffBuffers,
    dst: CoeffBuffers,
    m: usize,
    n: usize,
    stride: usize,
) -> Result<KernelStats> {
    stage1_run(gpu, Some((src, dst)), m, n, stride)
}

/// [`stage1_step`] on `(src, dst)`, or priced from its meters alone when
/// `bufs` is `None` (see [`launch_or_price`]).
pub(crate) fn stage1_run<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    bufs: Option<(CoeffBuffers, CoeffBuffers)>,
    m: usize,
    n: usize,
    stride: usize,
) -> Result<KernelStats> {
    debug_assert!(n.is_power_of_two());
    let chunk = n.min(1024);
    let cfg = stage1_config(m, n, stride);
    let io = bufs.map(|(src, dst)| (src, dst.map(|b| (b, OutMode::Chunked { chunk }))));

    launch_or_price(gpu, &cfg, io, |ctx, io| {
        let base = ctx.block_id as usize * chunk;
        // Fetch a full row, treating indices outside this equation's system
        // as identity rows (b = 1, everything else 0). Logical thread `tid`
        // owns element `tid` of the block's chunk.
        let row = |io: &BlockIo<T>, sys: usize, pos: isize, tid: usize| -> (T, T, T, T) {
            if pos < 0 || pos as usize >= n {
                (T::ZERO, T::ONE, T::ZERO, T::ZERO)
            } else {
                let g = sys * n + pos as usize;
                (
                    io.load(0, g, tid, "stage1::row"),
                    io.load(1, g, tid, "stage1::row"),
                    io.load(2, g, tid, "stage1::row"),
                    io.load(3, g, tid, "stage1::row"),
                )
            }
        };
        if !ctx.pricing() {
            for i in 0..chunk {
                let g = base + i;
                let sys = g / n;
                let pos = (g % n) as isize;
                let (ai, bi, ci, di) = row(io, sys, pos, i);
                let (am, bm, cm, dm) = row(io, sys, pos - stride as isize, i);
                let (ap, bp, cp, dp) = row(io, sys, pos + stride as isize, i);
                let alpha = -ai / bm;
                let gamma = -ci / bp;
                io.store(0, i, alpha * am, i, "stage1::store");
                io.store(1, i, bi + alpha * cm + gamma * ap, i, "stage1::store");
                io.store(2, i, gamma * cp, i, "stage1::store");
                io.store(3, i, di + alpha * dm + gamma * dp, i, "stage1::store");
            }
        }
        ctx.gmem_read_staged(PCR_LOADS_PER_EQ * chunk, PCR_UNIQUE_LOADS_PER_EQ * chunk, 1);
        ctx.gmem_write(PCR_STORES_PER_EQ * chunk, 1);
        ctx.smem(PCR_STAGING_SMEM_PER_EQ * chunk);
        ctx.ops(PCR_OPS_PER_EQ * chunk);
        ctx.sync();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::pcr;
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

    fn upload(gpu: &mut Gpu<f64>, v: &[f64]) -> trisolve_gpu_sim::BufferId {
        gpu.alloc_from(v).unwrap()
    }

    #[test]
    fn matches_cpu_pcr_step() {
        let shape = WorkloadShape::new(3, 2048);
        let batch = random_dominant::<f64>(shape, 11).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = [
            upload(&mut gpu, &batch.a),
            upload(&mut gpu, &batch.b),
            upload(&mut gpu, &batch.c),
            upload(&mut gpu, &batch.d),
        ];
        let total = shape.total_equations();
        let dst = [
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
        ];
        for stride in [1usize, 2, 4] {
            stage1_step(&mut gpu, src, dst, 3, 2048, stride).unwrap();
            // CPU reference: apply one PCR step per system.
            for s in 0..3 {
                let sys = batch.system(s).unwrap();
                let n = 2048;
                let mut ea = vec![0.0; n];
                let mut eb = vec![0.0; n];
                let mut ec = vec![0.0; n];
                let mut ed = vec![0.0; n];
                pcr::pcr_step(
                    stride, &sys.a, &sys.b, &sys.c, &sys.d, &mut ea, &mut eb, &mut ec, &mut ed,
                );
                let ga = gpu.download(dst[0]).unwrap();
                let gb = gpu.download(dst[1]).unwrap();
                let gc = gpu.download(dst[2]).unwrap();
                let gd = gpu.download(dst[3]).unwrap();
                for i in 0..n {
                    let g = s * n + i;
                    assert!((ga[g] - ea[i]).abs() < 1e-12, "a stride={stride} i={i}");
                    assert!((gb[g] - eb[i]).abs() < 1e-12, "b stride={stride} i={i}");
                    assert!((gc[g] - ec[i]).abs() < 1e-12, "c stride={stride} i={i}");
                    assert!((gd[g] - ed[i]).abs() < 1e-12, "d stride={stride} i={i}");
                }
            }
        }
    }

    #[test]
    fn traffic_is_coalesced_and_proportional() {
        let shape = WorkloadShape::new(4, 1024);
        let batch = random_dominant::<f64>(shape, 1).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let src = [
            upload(&mut gpu, &batch.a),
            upload(&mut gpu, &batch.b),
            upload(&mut gpu, &batch.c),
            upload(&mut gpu, &batch.d),
        ];
        let total = shape.total_equations();
        let dst = [
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
        ];
        let stats = stage1_step(&mut gpu, src, dst, 4, 1024, 1).unwrap();
        let expect_read = (PCR_UNIQUE_LOADS_PER_EQ * total * 8) as f64;
        let expect_write = (PCR_STORES_PER_EQ * total * 8) as f64;
        assert_eq!(stats.totals.gmem_read_bytes, expect_read);
        assert_eq!(stats.totals.gmem_write_bytes, expect_write);
        // Staging captures most of the redundant neighbour reads, but the
        // missed fraction still moves across the bus.
        let eff = stats.totals.coalescing_efficiency();
        assert!(eff > 0.5 && eff <= 1.0, "efficiency {eff}");
        // Each launch pays overhead: this is the stage-1 penalty.
        assert!(stats.overhead_s > 0.0);
    }

    #[test]
    fn each_step_is_one_launch() {
        let shape = WorkloadShape::new(1, 4096);
        let batch = random_dominant::<f64>(shape, 2).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let src = [
            upload(&mut gpu, &batch.a),
            upload(&mut gpu, &batch.b),
            upload(&mut gpu, &batch.c),
            upload(&mut gpu, &batch.d),
        ];
        let dst = [
            gpu.alloc(4096).unwrap(),
            gpu.alloc(4096).unwrap(),
            gpu.alloc(4096).unwrap(),
            gpu.alloc(4096).unwrap(),
        ];
        stage1_step(&mut gpu, src, dst, 1, 4096, 1).unwrap();
        stage1_step(&mut gpu, dst, src, 1, 4096, 2).unwrap();
        assert_eq!(gpu.timeline().len(), 2);
    }
}
