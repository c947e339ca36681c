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
//! Three kernel families, matching the plan's three stage-skip ops:
//!
//! * `Interleave` — tiled-transpose repack from system-major to
//!   interleaved layout (both global sides coalesced, like
//!   [`crate::kernels::repack`]);
//! * `IThomas` — the single-kernel batched Thomas solve, reading
//!   interleaved coefficients and scattering the interleaved solution;
//! * `Deinterleave` — tiled-transpose repack of the solution back to
//!   system-major order.
//!
//! Each is a `Family` like the three staged families, so its label,
//! launch config, access summary and recurrence come from one value and
//! cannot drift from the execution.

use crate::error::CoreError;
use crate::kernels::access::{
    interleaved_map, system_major_map, transpose_summary, GlobalAccess, KernelAccessSummary,
};
use crate::kernels::base::THOMAS_OPS_PER_EQ;
use crate::kernels::repack::{meter_transpose, transpose_config, TRANSPOSE_SMEM_PER_EQ};
use crate::kernels::{
    elem_bytes, launch_or_price, launch_or_price_tiles, BufferRole, BufferRoles, Family, GpuScalar,
    LaunchIo, RecurrenceKind, CUR, DOUBLE_BUFFERED,
};
use crate::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use trisolve_gpu_sim::{Gpu, KernelStats, LaunchConfig, OutMode};
use trisolve_tridiag::thomas::{self, LaneView};

/// Registers per thread of the batched-Thomas kernel: the per-system
/// running recurrence needs only a handful of live values (the forward
/// coefficients round-trip through global scratch, not registers).
pub const ITHOMAS_REGS_PER_THREAD: usize = 16;

/// Repack the four coefficient arrays of `m` systems of `n` equations from
/// system-major layout (system `s` contiguous at `s·n`) into fully
/// interleaved layout (element `j` of system `s` at `j·m + s`) with a
/// tiled shared-memory transpose: both global sides coalesced, staged
/// through the padded (bank-conflict-free) 32×33 tile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interleave {
    pub m: usize,
    pub n: usize,
}

impl Family for Interleave {
    const STAGE: &'static str = "interleave";
    const ROLES: BufferRoles = DOUBLE_BUFFERED;

    fn label(&self) -> String {
        format!("interleave[{}x{}]", self.m, self.n)
    }

    fn config(&self, elem_bytes: usize) -> LaunchConfig {
        transpose_config(self.label(), self.m, self.n, elem_bytes)
    }

    /// A layout transposition: exact.
    fn recurrence(&self) -> RecurrenceKind {
        RecurrenceKind::DataMovement
    }

    /// System-major read, interleaved scatter.
    fn access(&self) -> KernelAccessSummary {
        let Interleave { m, n } = *self;
        transpose_summary(
            self.label(),
            m * n,
            n,
            ("interleave::load", system_major_map(m, n)),
            ("interleave::scatter", interleaved_map(m, n)),
        )
    }

    fn run<T: GpuScalar>(&self, gpu: &mut Gpu<T>, io: Option<LaunchIo<'_>>) -> Result<KernelStats> {
        let Interleave { m, n } = *self;
        let cfg = self.config(elem_bytes::<T>());
        launch_or_price(gpu, &cfg, io, OutMode::Scattered, |ctx, io| {
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
            meter_transpose(ctx, 4 * n, 2 * TRANSPOSE_SMEM_PER_EQ * 4 * n);
        })
    }
}

/// Solve the whole interleaved batch with one kernel: thread `s` runs the
/// serial Thomas algorithm over system `s`, reading coefficients at
/// `j·m + s` (perfectly coalesced across the warp) and scattering the
/// solution back in the same interleaved layout into the alternate
/// bundle's first buffer (free scratch after the pack's swap).
///
/// The forward-elimination coefficients round-trip through global scratch
/// (they do not fit registers for any interesting `n`); the traffic is
/// metered coalesced like every other access of this kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IThomas {
    pub m: usize,
    pub n: usize,
}

impl Family for IThomas {
    const STAGE: &'static str = "ithomas";
    const ROLES: BufferRoles = BufferRoles {
        reads: CUR,
        writes: &[BufferRole::Alt(0)],
        swap: false,
    };

    fn label(&self) -> String {
        format!("ithomas[{}x{}]", self.m, self.n)
    }

    /// One thread per system, warp-width blocks, no shared memory at all.
    fn config(&self, _elem_bytes: usize) -> LaunchConfig {
        let block = 256.min(self.m.max(32));
        LaunchConfig::new(self.label(), self.m.div_ceil(block), block)
            .with_regs(ITHOMAS_REGS_PER_THREAD)
    }

    /// One full serial Thomas chain of the (padded) system size per
    /// thread, no PCR at all.
    fn recurrence(&self) -> RecurrenceKind {
        RecurrenceKind::Thomas { chain_len: self.n }
    }

    /// Thread `s` walks system `s` through the interleaved coefficients —
    /// every access warp-stride 1 by construction — with no shared memory
    /// and no barriers at all, which is exactly why the family wins the
    /// many-small regime.
    fn access(&self) -> KernelAccessSummary {
        let IThomas { m, n } = *self;
        let site = |site, is_write| GlobalAccess {
            site,
            is_write,
            map: interleaved_map(m, n),
            warp_stride: 1,
            clamped_neighbours: false,
            exclusive: is_write,
        };
        KernelAccessSummary {
            label: self.label(),
            buffer_len: m * n,
            block_threads: 256.min(m.max(32)),
            smem_elems: 0,
            global: vec![site("ithomas::load", false), site("ithomas::store", true)],
            intervals: Vec::new(),
        }
    }

    fn run<T: GpuScalar>(&self, gpu: &mut Gpu<T>, io: Option<LaunchIo<'_>>) -> Result<KernelStats> {
        let IThomas { m, n } = *self;
        let cfg = self.config(elem_bytes::<T>());
        let block = cfg.block_threads;

        let failed = AtomicBool::new(false);
        let stats = launch_or_price_tiles(gpu, &cfg, io, 1, |scratch, ctx, io| {
            let (ctx, io) = (&mut ctx[0], &mut io[0]);
            let first = ctx.block_id as usize * block;
            let count = block.min(m.saturating_sub(first));
            if count == 0 {
                return;
            }
            if !ctx.pricing() {
                // The block's systems are the lanes of one sweep, read in
                // place: row `j` of system `first + t` is at `j·m + first + t`.
                let lanes = LaneView {
                    offset: first,
                    row_stride: m,
                    lanes: count,
                    len: n,
                };
                let [a, b, c, d] = [0, 1, 2, 3].map(|k| io.inputs[k]);
                let (work, broke, _) = scratch.get(2 * n * count, count);
                let (lx, cp) = work.split_at_mut(n * count);
                thomas::solve_thomas_lanes(&lanes, a, b, c, d, lx, cp, broke);
                // Replay system by system, as one thread per system would
                // run: its tracked loads, then its stores, stopping at the
                // first system that broke down or produced a non-finite
                // value.
                for (t, &lane_broke) in broke.iter().enumerate() {
                    let s = first + t;
                    if ctx.sanitizing() {
                        for k in 0..4 {
                            for j in 0..n {
                                let _ = io.load(k, j * m + s, t, "ithomas::load");
                            }
                        }
                    }
                    if lane_broke {
                        failed.store(true, Ordering::Relaxed);
                        return;
                    }
                    for j in 0..n {
                        let v = lx[j * count + t];
                        if !v.is_finite() {
                            failed.store(true, Ordering::Relaxed);
                            return;
                        }
                        io.scattered[0].set_at(j * m + s, v, t, "ithomas::store");
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
}

/// Transpose an interleaved solution vector back to system-major order:
/// element `j` of system `s` moves from `j·m + s` to `s·n + j`, staged
/// through the same padded tile as [`Interleave`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deinterleave {
    pub m: usize,
    pub n: usize,
}

impl Family for Deinterleave {
    const STAGE: &'static str = "deinterleave";
    const ROLES: BufferRoles = BufferRoles {
        reads: &[BufferRole::Alt(0)],
        writes: &[BufferRole::X],
        swap: false,
    };

    fn label(&self) -> String {
        format!("deinterleave[{}x{}]", self.m, self.n)
    }

    fn config(&self, elem_bytes: usize) -> LaunchConfig {
        transpose_config(self.label(), self.m, self.n, elem_bytes)
    }

    /// A layout transposition: exact.
    fn recurrence(&self) -> RecurrenceKind {
        RecurrenceKind::DataMovement
    }

    /// Interleaved read of the solution, system-major scatter.
    fn access(&self) -> KernelAccessSummary {
        let Deinterleave { m, n } = *self;
        transpose_summary(
            self.label(),
            m * n,
            n,
            ("deinterleave::load", interleaved_map(m, n)),
            ("deinterleave::scatter", system_major_map(m, n)),
        )
    }

    fn run<T: GpuScalar>(&self, gpu: &mut Gpu<T>, io: Option<LaunchIo<'_>>) -> Result<KernelStats> {
        let Deinterleave { m, n } = *self;
        let cfg = self.config(elem_bytes::<T>());
        launch_or_price(gpu, &cfg, io, OutMode::Scattered, |ctx, io| {
            let s = ctx.block_id as usize;
            if !ctx.pricing() {
                for j in 0..n {
                    let v = io.load(0, j * m + s, j, "deinterleave::load");
                    io.scattered[0].set_at(s * n + j, v, j, "deinterleave::scatter");
                }
            }
            meter_transpose(ctx, n, TRANSPOSE_SMEM_PER_EQ * n);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testing::{alloc4, upload};
    use crate::kernels::CoeffBuffers;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::cpu_batch::{solve_batch_sequential, BatchAlgorithm};
    use trisolve_tridiag::norms::batch_worst_relative_residual;
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};
    use trisolve_tridiag::SystemBatch;

    /// Interleave, batched-Thomas and deinterleave `batch` on `gpu`: the
    /// pack, the solve's stats, and the solution.
    fn pipeline<T: GpuScalar>(
        gpu: &mut Gpu<T>,
        batch: &SystemBatch<T>,
    ) -> (CoeffBuffers, KernelStats, Vec<T>) {
        let (m, n) = (batch.num_systems, batch.system_size);
        let src = upload(gpu, batch);
        let dst = alloc4(gpu, m * n);
        let (xi, x) = (gpu.alloc(m * n).unwrap(), gpu.alloc(m * n).unwrap());
        Interleave { m, n }.run(gpu, Some((&src, &dst))).unwrap();
        let stats = IThomas { m, n }.run(gpu, Some((&dst, &[xi]))).unwrap();
        Deinterleave { m, n }.run(gpu, Some((&[xi], &[x]))).unwrap();
        (dst, stats, gpu.download(x).unwrap())
    }

    #[test]
    fn interleave_is_a_transpose() {
        let (m, n) = (64usize, 16usize);
        let shape = WorkloadShape::new(m, n);
        let batch = random_dominant::<f64>(shape, 5).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let (dst, _, _) = pipeline(&mut gpu, &batch);
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
            let (_, _, got) = pipeline(&mut gpu, &batch);
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
        let (_, stats, _) = pipeline(&mut gpu, &batch);
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
        let (_, _, got) = pipeline(&mut gpu, &batch);
        assert!(batch_worst_relative_residual(&batch, &got).unwrap() < 1e-10);
    }

    #[test]
    fn f32_pipeline_keeps_single_precision_accuracy() {
        let (m, n) = (512usize, 64usize);
        let shape = WorkloadShape::new(m, n);
        let batch = random_dominant::<f32>(shape, 7).unwrap();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let (_, _, got) = pipeline(&mut gpu, &batch);
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
        let err = IThomas { m, n }.run(&mut gpu, Some((&src, &[xi])));
        assert!(matches!(err, Err(CoreError::NumericalBreakdown { .. })));
    }

    #[test]
    fn breakdown_stores_only_the_systems_before_the_failing_one() {
        // One 64-system block; system 37 gets an exact zero pivot at row 5.
        let (m, n, bad) = (64usize, 16usize, 37usize);
        let batch = random_dominant::<f64>(WorkloadShape::new(m, n), 12).unwrap();
        let interleave =
            |v: &[f64]| -> Vec<f64> { (0..m * n).map(|i| v[(i % m) * n + i / m]).collect() };
        let [mut a, mut b, c, d] = [&batch.a, &batch.b, &batch.c, &batch.d].map(|v| interleave(v));
        a[5 * m + bad] = 0.0;
        b[5 * m + bad] = 0.0;
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = [&a, &b, &c, &d].map(|v| gpu.alloc_from(v).unwrap());
        let sentinel = -7.25f64;
        let xi = gpu.alloc_from(&vec![sentinel; m * n]).unwrap();
        let err = IThomas { m, n }.run(&mut gpu, Some((&src, &[xi])));
        assert!(matches!(err, Err(CoreError::NumericalBreakdown { .. })));

        let got = gpu.download(xi).unwrap();
        for s in 0..m {
            let expect =
                (s < bad).then(|| thomas::solve_thomas(&batch.system(s).unwrap()).unwrap());
            for j in 0..n {
                let v = got[j * m + s];
                match &expect {
                    Some(x) => assert_eq!(v.to_bits(), x[j].to_bits(), "s={s} j={j}"),
                    None => assert_eq!(v.to_bits(), sentinel.to_bits(), "s={s} j={j}"),
                }
            }
        }
    }

    #[test]
    fn configs_match_kernel_geometry() {
        let config = |m, n| IThomas { m, n }.config(4);
        let cfg = config(65536, 64);
        assert_eq!(cfg.block_threads, 256);
        assert_eq!(cfg.grid_blocks, 256);
        assert_eq!(cfg.shared_mem_bytes, 0);
        // Tiny batches still launch warp-width blocks.
        let small = config(40, 64);
        assert_eq!(small.block_threads, 40);
        assert_eq!(small.grid_blocks, 1);
        let il = Interleave { m: 1024, n: 32 }.config(8);
        assert_eq!(il.grid_blocks, 1024);
        assert_eq!(il.block_threads, 32);
        assert_eq!(il.shared_mem_bytes, 32 * 33 * 8);
        let dl = Deinterleave { m: 1024, n: 32 }.config(4);
        assert_eq!(dl.label, "deinterleave[1024x32]");
    }
}
