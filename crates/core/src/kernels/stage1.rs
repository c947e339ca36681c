//! Stage 1 — cooperative splitting.
//!
//! One PCR step at a given stride, applied to *every* equation of every
//! system by the whole machine: blocks cover contiguous equation ranges, so
//! all global accesses are coalesced, and the split factor of every system
//! doubles. Because the next step needs the values written by this one,
//! each step is its own kernel launch — the global synchronisation whose
//! fixed cost (launch overhead) is exactly why the paper leaves stage 1 as
//! soon as there are enough independent systems (§III-C).

use crate::kernels::access::{AffineMap, GlobalAccess, KernelAccessSummary};
use crate::kernels::{
    elem_bytes, launch_or_price, BufferRoles, Family, GpuScalar, LaunchIo, RecurrenceKind,
    DOUBLE_BUFFERED,
};
use crate::params::{SPLIT_KERNEL_REGS_PER_THREAD, SPLIT_KERNEL_THREADS};
use crate::Result;
use trisolve_gpu_sim::{Gpu, KernelStats, LaunchConfig, OutMode};
use trisolve_tridiag::pcr;

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

/// One cooperative splitting step: PCR at `stride` over a batch of `m`
/// systems of `n` (power-of-two) equations, reading the current bundle and
/// writing the alternate one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stage1 {
    pub m: usize,
    pub n: usize,
    pub stride: usize,
}

impl Family for Stage1 {
    const STAGE: &'static str = "stage1";
    const ROLES: BufferRoles = DOUBLE_BUFFERED;

    fn label(&self) -> String {
        format!("stage1[stride={}]", self.stride)
    }

    fn config(&self, _elem_bytes: usize) -> LaunchConfig {
        let grid = self.m * self.n / self.n.min(1024);
        LaunchConfig::new(self.label(), grid, SPLIT_KERNEL_THREADS)
            .with_regs(SPLIT_KERNEL_REGS_PER_THREAD)
    }

    /// A single PCR step at the parent stride.
    fn recurrence(&self) -> RecurrenceKind {
        RecurrenceKind::Pcr { steps: 1 }
    }

    /// Blocks cover contiguous chunks; each element reads its own row plus
    /// two neighbour rows clamped to its system, and writes its own
    /// position of the chunk.
    fn access(&self) -> KernelAccessSummary {
        let Stage1 { m, n, .. } = *self;
        let chunk = n.min(1024);
        let map = AffineMap::at(0)
            .term("i", 1, chunk)
            .term("block", chunk, m * n / chunk);
        KernelAccessSummary {
            label: self.label(),
            buffer_len: m * n,
            block_threads: SPLIT_KERNEL_THREADS,
            smem_elems: 0,
            global: vec![
                GlobalAccess {
                    site: "stage1::row",
                    is_write: false,
                    map: map.clone(),
                    warp_stride: 1,
                    clamped_neighbours: true,
                    exclusive: false,
                },
                GlobalAccess {
                    site: "stage1::store",
                    is_write: true,
                    map,
                    warp_stride: 1,
                    clamped_neighbours: false,
                    exclusive: true,
                },
            ],
            intervals: Vec::new(),
        }
    }

    fn run<T: GpuScalar>(&self, gpu: &mut Gpu<T>, io: Option<LaunchIo<'_>>) -> Result<KernelStats> {
        let Stage1 { n, stride, .. } = *self;
        debug_assert!(n.is_power_of_two());
        let chunk = n.min(1024);
        let cfg = self.config(elem_bytes::<T>());
        launch_or_price(gpu, &cfg, io, OutMode::Chunked { chunk }, |ctx, io| {
            if !ctx.pricing() {
                // `chunk` divides `n`: thread `i` owns row `lo + i` of system `sys`.
                let base = ctx.block_id as usize * chunk;
                let (sys, lo) = (base / n, base % n);
                let [a, b, c, d] = [0, 1, 2, 3].map(|k| &io.inputs[k][sys * n..][..n]);
                let [oa, ob, oc, od] =
                    <&mut [_; 4]>::try_from(&mut io.owned[..]).expect("4 outputs");
                pcr::pcr_rows(stride, lo, a, b, c, d, oa, ob, oc, od);
                // Sanitizer replay, in the kernel's order: thread `i` loads its
                // row and its in-system neighbours, then stores its results.
                for i in (0..chunk).filter(|_| ctx.sanitizing()) {
                    let (g, pos) = (base + i, lo + i);
                    let minus = (pos >= stride).then(|| g - stride);
                    let plus = (pos + stride < n).then(|| g + stride);
                    for row in [Some(g), minus, plus].into_iter().flatten() {
                        (0..4).for_each(|k| _ = io.load(k, row, i, "stage1::row"));
                    }
                    (0..4).for_each(|k| io.store(k, i, io.owned[k][i], i, "stage1::store"));
                }
            }
            ctx.gmem_read_staged(PCR_LOADS_PER_EQ * chunk, PCR_UNIQUE_LOADS_PER_EQ * chunk, 1);
            ctx.gmem_write(PCR_STORES_PER_EQ * chunk, 1);
            ctx.smem(PCR_STAGING_SMEM_PER_EQ * chunk);
            ctx.ops(PCR_OPS_PER_EQ * chunk);
            ctx.sync();
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::CoeffBuffers;
    use trisolve_gpu_sim::sanitizer::MAX_HAZARDS_PER_BLOCK;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};
    use trisolve_tridiag::SystemBatch;

    /// The batch's four coefficient arrays uploaded, except input `skip`,
    /// which is allocated but never written.
    fn upload<T: GpuScalar>(gpu: &mut Gpu<T>, b: &SystemBatch<T>, skip: usize) -> CoeffBuffers {
        let mut bufs = [&b.a, &b.b, &b.c, &b.d].map(|v| gpu.alloc_from(v).unwrap());
        if skip < 4 {
            bufs[skip] = gpu.alloc(b.b.len()).unwrap();
        }
        bufs
    }

    #[test]
    fn matches_cpu_pcr_step() {
        let (m, n) = (3, 2048);
        let batch = random_dominant::<f64>(WorkloadShape::new(m, n), 11).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = upload(&mut gpu, &batch, 4);
        let dst = [0; 4].map(|_| gpu.alloc(m * n).unwrap());
        for stride in [1usize, 2, 4, 1024] {
            let step = Stage1 { m, n, stride };
            step.run(&mut gpu, Some((&src, &dst))).unwrap();
            let got = dst.map(|b| gpu.download(b).unwrap());
            for s in 0..m {
                let sys = batch.system(s).unwrap();
                let mut want = [(); 4].map(|()| vec![0.0; n]);
                let [ea, eb, ec, ed] = &mut want;
                pcr::pcr_step(stride, &sys.a, &sys.b, &sys.c, &sys.d, ea, eb, ec, ed);
                for k in 0..4 {
                    assert_eq!(got[k][s * n..(s + 1) * n], want[k], "stride={stride}");
                }
            }
        }
    }

    #[test]
    fn traffic_is_coalesced_and_proportional() {
        let (m, n) = (4, 1024);
        let shape = WorkloadShape::new(m, n);
        let batch = random_dominant::<f64>(shape, 1).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let src = upload(&mut gpu, &batch, 4);
        let total = shape.total_equations();
        let dst = [0; 4].map(|_| gpu.alloc(total).unwrap());
        let step = Stage1 { m, n, stride: 1 };
        let stats = step.run(&mut gpu, Some((&src, &dst))).unwrap();
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
        let (m, n) = (1, 4096);
        let batch = random_dominant::<f64>(WorkloadShape::new(m, n), 2).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let src = upload(&mut gpu, &batch, 4);
        let dst = [0; 4].map(|_| gpu.alloc(n).unwrap());
        let step = |stride| Stage1 { m, n, stride };
        step(1).run(&mut gpu, Some((&src, &dst))).unwrap();
        step(2).run(&mut gpu, Some((&dst, &src))).unwrap();
        assert_eq!(gpu.timeline().len(), 2);
    }

    /// Sanitized launches compute the same bits and track, per block in
    /// order, each thread's own row then its in-system `-stride`/`+stride`
    /// rows: reads of a never-written input are all reported (capped).
    /// A second step reading the outputs stays clean: the first step's
    /// tracked stores leave no output element marked unwritten.
    #[test]
    fn sanitized_launch_is_bit_identical_and_tracks_every_row_read() {
        // `uninit == 4`: every input written, so no hazard at all.
        for (m, n, stride, uninit) in [(3, 2048, 1, 4), (3, 2048, 512, 2), (5, 64, 16, 0)] {
            let batch = random_dominant::<f32>(WorkloadShape::new(m, n), 7).unwrap();
            let run = |mut gpu: Gpu<f32>| {
                let src = upload(&mut gpu, &batch, uninit);
                let dst = [0; 4].map(|_| gpu.alloc(m * n).unwrap());
                let step = Stage1 { m, n, stride };
                step.run(&mut gpu, Some((&src, &dst))).unwrap();
                step.run(&mut gpu, Some((&dst, &src))).unwrap();
                let out = src.map(|b| {
                    let v = gpu.download(b).unwrap();
                    v.into_iter().map(f32::to_bits).collect::<Vec<_>>()
                });
                (out, gpu.take_sanitizer_report())
            };
            let (plain, _) = run(Gpu::new(DeviceSpec::gtx_470()));
            let (checked, report) = run(Gpu::with_sanitizer(DeviceSpec::gtx_470()));
            assert_eq!(plain, checked, "{m}x{n} stride {stride}");
            let report = report.unwrap();
            let (chunk, mut want, mut dropped) = (n.min(1024), Vec::new(), 0);
            for block in (0..m * n / chunk).filter(|_| uninit < 4) {
                let reads: Vec<_> = (0..chunk)
                    .flat_map(|tid| {
                        let g = block * chunk + tid;
                        let minus = (g % n >= stride).then(|| g - stride);
                        let plus = (g % n + stride < n).then(|| g + stride);
                        [Some(g), minus, plus].map(|row| row.map(|i| (tid, i)))
                    })
                    .flatten()
                    .collect();
                dropped += reads.len().saturating_sub(MAX_HAZARDS_PER_BLOCK);
                want.extend(reads.iter().take(MAX_HAZARDS_PER_BLOCK).map(|(tid, i)| {
                    format!(
                        "stage1[stride={stride}]: uninitialized read input[{uninit}][{i}] \
                         in block {block}: read by thread {tid} at `stage1::row`"
                    )
                }));
            }
            let got: Vec<_> = report.hazards.iter().map(ToString::to_string).collect();
            assert_eq!(
                (got, report.dropped, report.launches_checked),
                (want, dropped, 2)
            );
        }
    }
}
