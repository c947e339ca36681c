//! Stage 3 + 4 — the hybrid PCR-Thomas base kernel (paper §III-A).
//!
//! One block per subsystem: the block gathers its chain into shared memory,
//! PCR-splits it in shared memory until `thomas_chains` independent serial
//! chains exist (stage 3), then one thread per chain finishes with the
//! work-optimal Thomas algorithm (stage 4).
//!
//! Two memory-layout variants handle chains that are strided in their parent
//! system:
//!
//! * [`BaseVariant::Strided`] gathers the chain directly at its stride —
//!   uncoalesced transactions (bandwidth waste capped at the minimum
//!   transaction size, plus issue serialisation), but the entire solve then
//!   runs from shared memory.
//! * [`BaseVariant::Coalesced`] streams the contiguous tiles covering the
//!   chain — perfectly coalesced but moving `stride`× the payload.
//!
//! Which wins depends on the stride and the device; the paper resolves the
//! choice empirically with the self-tuner, and so does `trisolve-autotune`.
//!
//! The variants differ in their meters only. On the host, blocks whose
//! chains sit at least one cache line of elements apart are taken in tiles
//! of that many adjacent chains, and blocks whose chains sit closer in
//! tiles of every chain of their parent (`chain_tile`): the tile gathers
//! and stores whole rows, its PCR steps are one step on lane-interleaved
//! arrays, and its Thomas phase is one lane-wise sweep over every
//! sub-chain of every block. Each block keeps its own meters, verdict and
//! store (DESIGN §3.20).

use crate::error::CoreError;
use crate::kernels::access::{
    chain_map, AffineMap, BarrierInterval, GlobalAccess, KernelAccessSummary, SmemAccess, SmemOwner,
};
use crate::kernels::stage1::PCR_OPS_PER_EQ;
use crate::kernels::{
    block_chain, chain_tile, chain_tile_scratch, elem_bytes, launch_or_price_tiles, BufferRole,
    BufferRoles, ChainTile, Family, GpuScalar, LaunchIo, RecurrenceKind, CUR,
};
use crate::params::{BaseVariant, BASE_KERNEL_REGS_PER_THREAD};
use crate::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use trisolve_gpu_sim::{store_tile, Gpu, KernelStats, LaunchConfig};
use trisolve_tridiag::system::ChainView;
use trisolve_tridiag::thomas::{self, LaneView};

/// Shared-memory word accesses per equation per on-chip PCR step.
pub const PCR_SMEM_PER_EQ: usize = 16;
/// Thread-operations per equation of the serial Thomas phase.
pub const THOMAS_OPS_PER_EQ: usize = 8;
/// Shared-memory word accesses per equation of the Thomas phase.
pub const THOMAS_SMEM_PER_EQ: usize = 5;

/// The base kernel over every chain of a batch.
///
/// * `m` parent systems of `n` (power-of-two) equations live in the
///   current bundle, already split into `stride` chains each of
///   `chain_len` equations.
/// * Each block solves one chain on-chip, switching from PCR to Thomas at
///   `t4` subsystems (the plan's Thomas switch clamped to the chain
///   length), and scatters its solution into the solution vector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Base {
    pub m: usize,
    pub n: usize,
    pub chain_len: usize,
    pub stride: usize,
    pub t4: usize,
    pub variant: BaseVariant,
}

impl Family for Base {
    const STAGE: &'static str = "base";
    const ROLES: BufferRoles = BufferRoles {
        reads: CUR,
        writes: &[BufferRole::X],
        swap: false,
    };

    fn label(&self) -> String {
        let (len, stride, t4, variant) = (self.chain_len, self.stride, self.t4, self.variant);
        format!("base[{len}@{stride},t4={t4},{variant:?}]")
    }

    /// `elem_bytes` sizes the shared-memory footprint: the four
    /// coefficient arrays, one chain each.
    fn config(&self, elem_bytes: usize) -> LaunchConfig {
        LaunchConfig::new(self.label(), self.m * self.stride, self.chain_len)
            .with_regs(BASE_KERNEL_REGS_PER_THREAD)
            .with_shared_mem(4 * self.chain_len * elem_bytes)
    }

    /// PCR in shared memory down to `t4` serial chains, then Thomas. The
    /// `t4.trailing_zeros()` step count and `chain_len / t4` chain length
    /// are the access summary's barrier choreography.
    fn recurrence(&self) -> RecurrenceKind {
        RecurrenceKind::Hybrid {
            pcr_steps: self.t4.trailing_zeros(),
            thomas_len: self.chain_len / self.t4.max(1),
        }
    }

    /// The full barrier choreography: load→sync, then per PCR step a read
    /// interval (rows `j±s`, clamped) and a write interval (row `j`)
    /// separated by the double sync, then the Thomas interval where thread
    /// `t` exclusively owns the interleaved sub-chain `t`.
    fn access(&self) -> KernelAccessSummary {
        let (chain_len, stride, t4) = (self.chain_len, self.stride, self.t4);
        let chain = chain_map(self.m, self.n, stride, chain_len);
        // The Coalesced variant streams the contiguous tiles covering the
        // chain, so consecutive threads touch consecutive elements; Strided
        // gathers directly at the chain stride.
        let warp_stride = match self.variant {
            BaseVariant::Strided => stride,
            // Interleaved never reaches the base kernel (the plan replaces
            // the whole staged pipeline with the batched-Thomas family),
            // but the summary stays total.
            BaseVariant::Coalesced | BaseVariant::Interleaved => 1,
        };
        let one_per_thread = SmemOwner {
            row_len: chain_len,
            modulus: chain_len,
        };
        let staged_rows = || {
            // Array `k` occupies elements `k·chain_len .. (k+1)·chain_len`.
            AffineMap::at(0)
                .term("t", 1, chain_len)
                .term("k", chain_len, 4)
        };
        let smem = |site, is_write, map, owner| SmemAccess {
            site,
            is_write,
            map,
            displacements: Vec::new(),
            clamp_row: None,
            owner,
            thread_coeff: 1,
        };

        let mut intervals = vec![BarrierInterval {
            label: "load".into(),
            accesses: vec![smem(
                "base::smem_store",
                true,
                staged_rows(),
                Some(one_per_thread),
            )],
        }];
        for step in 0..self.t4.trailing_zeros() {
            let s = 1usize << step;
            intervals.push(BarrierInterval {
                label: format!("pcr_read[s={s}]"),
                accesses: vec![SmemAccess {
                    displacements: vec![-(s as isize), 0, s as isize],
                    clamp_row: Some(chain_len),
                    ..smem("base::pcr_read", false, staged_rows(), None)
                }],
            });
            intervals.push(BarrierInterval {
                label: format!("pcr_write[s={s}]"),
                accesses: vec![smem(
                    "base::pcr_write",
                    true,
                    staged_rows(),
                    Some(one_per_thread),
                )],
            });
        }
        let sub_chains = Some(SmemOwner {
            row_len: chain_len,
            modulus: t4,
        });
        intervals.push(BarrierInterval {
            label: "thomas".into(),
            accesses: vec![
                smem(
                    "base::thomas_read",
                    false,
                    AffineMap::at(0)
                        .term("t", 1, t4)
                        .term("i", t4, chain_len / t4)
                        .term("k", chain_len, 4),
                    sub_chains,
                ),
                smem(
                    "base::thomas_write",
                    true,
                    AffineMap::at(3 * chain_len)
                        .term("t", 1, t4)
                        .term("i", t4, chain_len / t4),
                    sub_chains,
                ),
            ],
        });

        KernelAccessSummary {
            label: self.label(),
            buffer_len: self.m * self.n,
            block_threads: chain_len,
            smem_elems: 4 * chain_len,
            global: vec![
                GlobalAccess {
                    site: "base::load",
                    is_write: false,
                    map: chain.clone(),
                    warp_stride,
                    clamped_neighbours: false,
                    exclusive: false,
                },
                GlobalAccess {
                    site: "base::store",
                    is_write: true,
                    map: chain,
                    warp_stride,
                    clamped_neighbours: false,
                    exclusive: true,
                },
            ],
            intervals,
        }
    }

    fn run<T: GpuScalar>(&self, gpu: &mut Gpu<T>, io: Option<LaunchIo<'_>>) -> Result<KernelStats> {
        let (n, chain_len, stride, t4) = (self.n, self.chain_len, self.stride, self.t4);
        debug_assert!(n.is_power_of_two());
        debug_assert!(chain_len.is_power_of_two());
        debug_assert_eq!(chain_len * stride, n);
        debug_assert!(t4.is_power_of_two());
        let pcr_steps = t4.trailing_zeros();
        let cfg = self.config(elem_bytes::<T>());

        // Shared-memory accesses serialise per 32-bit word on the banked
        // register-file-like shared memory: 64-bit elements cost two-way
        // conflicts (the double-precision penalty of §III-A).
        let word_factor = f64::max(elem_bytes::<T>() as f64 / 4.0, 1.0);

        let tile = chain_tile(stride, elem_bytes::<T>());
        let failed = AtomicBool::new(false);
        let stats = launch_or_price_tiles(gpu, &cfg, io, tile, |scratch, ctxs, ios| {
            let (lanes, inputs) = (ctxs.len(), ios[0].inputs);
            let first = block_chain(ctxs[0].block_id as usize, n, stride);

            // ---- Numerics, for the whole tile -----------------------------
            // Stage 3 (PCR in shared memory) and stage 4 (Thomas, one thread
            // per sub-chain). Sub-chain `t` of a block is rows `t, t + t4,
            // ...` of its chain. In the tile, row `i` of lane `g` sits at
            // `i·lanes + g`, so sub-chain `t` of lane `g` is lane `t·lanes + g`
            // of one sweep at row stride `t4·lanes`, and the sweep's compact
            // output `lx` is the tile's own layout. The working arrays, `lx`
            // and the sweep's flags live in the launch's scratch; a priced
            // launch computes nothing.
            let solved = if ctxs[0].pricing() {
                None
            } else {
                let len = chain_len * lanes;
                let (work, broke, wide) =
                    scratch.get(chain_tile_scratch(len) + 2 * len, t4 * lanes);
                let (tile_work, rest) = work.split_at_mut(chain_tile_scratch(len));
                let (lx, cp) = rest.split_at_mut(len);
                let mut coeffs = ChainTile::new(&first, lanes, inputs, tile_work);
                coeffs.pcr_steps(pcr_steps, wide);
                let sweep = LaneView {
                    offset: 0,
                    row_stride: t4 * lanes,
                    lanes: t4 * lanes,
                    len: chain_len / t4,
                };
                let [a, b, c, d] = coeffs.cur();
                thomas::solve_thomas_lanes(&sweep, a, b, c, d, lx, cp, broke);
                let clean = !broke.contains(&true) && lx.iter().all(|v| v.is_finite());
                Some((&*lx, &*broke, clean))
            };
            // Per block, the verdict is `None` when its sweep broke down, else
            // how many elements it stores: all of them, or those before its
            // first non-finite one. A priced launch stores everything.
            let verdict = |g: usize| match solved {
                Some((lx, broke, false)) => {
                    // Block `g`'s sweep lanes are `t·lanes + g`.
                    if broke.iter().skip(g).step_by(lanes).any(|&b| b) {
                        return None;
                    }
                    let bad = (0..chain_len).position(|i| !lx[i * lanes + g].is_finite());
                    Some(bad.unwrap_or(chain_len))
                }
                _ => Some(chain_len),
            };

            // ---- Per block: meters and sanitizer replays, in kernel order --
            for (g, (ctx, io)) in ctxs.iter_mut().zip(ios.iter()).enumerate() {
                // Load phase (stage-3 entry).
                match self.variant {
                    // Interleaved plans never emit a BaseSolve op (the
                    // batched-Thomas family replaces the whole staged
                    // pipeline); if one is forced through anyway the gather
                    // behaves like the strided load.
                    BaseVariant::Strided | BaseVariant::Interleaved => {
                        ctx.gmem_read(4 * chain_len, stride);
                    }
                    BaseVariant::Coalesced => {
                        ctx.gmem_read_overfetch(4 * chain_len, stride as f64);
                    }
                }
                if ctx.sanitizing() {
                    // Replay the gather through the tracked APIs: thread `j`
                    // loads its four coefficients from global memory and
                    // stages them into the block's shared arrays. Shared
                    // layout (matching the declared `4 * chain_len` element
                    // footprint): array `k` occupies elements
                    // `k*chain_len .. (k+1)*chain_len`.
                    for k in 0..4 {
                        for j in 0..chain_len {
                            let _ = io.load(k, first.index(j) + g, j, "base::load");
                            ctx.track_smem_write(k * chain_len + j, j, "base::smem_store");
                        }
                    }
                }
                ctx.sync();

                // Stage 3.
                for step in 0..pcr_steps {
                    let s = 1usize << step;
                    ctx.smem_conflict(PCR_SMEM_PER_EQ * chain_len, word_factor);
                    ctx.ops(PCR_OPS_PER_EQ * chain_len);
                    if ctx.sanitizing() {
                        // Read half of the in-place PCR step: thread `j` reads
                        // rows `j-s`, `j`, `j+s` of every array (clamped at
                        // the ends).
                        for j in 0..chain_len {
                            let lo = j.saturating_sub(s);
                            let hi = (j + s).min(chain_len - 1);
                            for k in 0..4 {
                                ctx.track_smem_read(k * chain_len + lo, j, "base::pcr_read");
                                ctx.track_smem_read(k * chain_len + j, j, "base::pcr_read");
                                ctx.track_smem_read(k * chain_len + hi, j, "base::pcr_read");
                            }
                        }
                    }
                    // The declared shared footprint (4 arrays of one chain
                    // each) is exactly single-buffered, so each PCR step must
                    // update the arrays *in place*: one barrier separates
                    // every thread's reads from the writes...
                    ctx.sync();
                    if ctx.sanitizing() {
                        for j in 0..chain_len {
                            for k in 0..4 {
                                ctx.track_smem_write(k * chain_len + j, j, "base::pcr_write");
                            }
                        }
                    }
                    // ...and a second one separates the writes from the next
                    // step's reads. The pair is NOT redundant: collapsing it
                    // into one barrier would put thread `j`'s write of row
                    // `j` in the same interval as thread `j∓s`'s read of that
                    // row — a read-write race the sanitizer reports if either
                    // sync is removed.
                    ctx.sync();
                }

                // Stage 4. A block whose sweep broke down fails here, before
                // its stage-4 meters and its store.
                if verdict(g).is_none() {
                    failed.store(true, Ordering::Relaxed);
                    continue;
                }
                ctx.serial_phase(chain_len / t4, THOMAS_OPS_PER_EQ, t4);
                ctx.smem_conflict(THOMAS_SMEM_PER_EQ * chain_len, word_factor);
                if ctx.sanitizing() {
                    // Thomas replay: thread `t` owns sub-chain `t` and sweeps
                    // it, reading all four arrays and overwriting the d-array
                    // slots with the solution. Chains are disjoint, so every
                    // element is touched by exactly one thread — hazard-free
                    // by construction.
                    for (t, sub) in ChainView::chains_of(0, chain_len, t4)
                        .into_iter()
                        .enumerate()
                    {
                        for i in 0..sub.len {
                            let e = sub.index(i);
                            for k in 0..4 {
                                ctx.track_smem_read(k * chain_len + e, t, "base::thomas_read");
                            }
                            ctx.track_smem_write(3 * chain_len + e, t, "base::thomas_write");
                        }
                    }
                }
                ctx.sync();
            }

            // ---- Store phase ----------------------------------------------
            // Each block stores its verdict's elements, then fails if that
            // was not all of them.
            if let Some((lx, _, _)) = solved {
                let count = |g| verdict(g).unwrap_or(0);
                store_tile(ios, 0, first.offset, stride, count, lx, "base::store");
            }
            for (g, ctx) in ctxs.iter_mut().enumerate() {
                match verdict(g) {
                    None => {}
                    Some(count) if count < chain_len => failed.store(true, Ordering::Relaxed),
                    Some(_) => ctx.gmem_write(chain_len, stride),
                }
            }
        })?;

        if failed.load(Ordering::Relaxed) {
            return Err(CoreError::NumericalBreakdown {
                kernel: cfg.label.clone(),
            });
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testing::upload;
    use crate::kernels::CoeffBuffers;
    use trisolve_gpu_sim::{BufferId, DeviceSpec};
    use trisolve_tridiag::cpu_batch::{solve_batch_sequential, BatchAlgorithm};
    use trisolve_tridiag::norms::batch_worst_relative_residual;
    use trisolve_tridiag::pcr;
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

    /// Launch the base kernel from `src` into `x`.
    #[allow(clippy::too_many_arguments)]
    fn base_solve<T: GpuScalar>(
        gpu: &mut Gpu<T>,
        src: CoeffBuffers,
        x: BufferId,
        m: usize,
        n: usize,
        chain_len: usize,
        stride: usize,
        thomas_chains: usize,
        variant: BaseVariant,
    ) -> Result<KernelStats> {
        let t4 = thomas_chains.min(chain_len);
        let base = Base {
            m,
            n,
            chain_len,
            stride,
            t4,
            variant,
        };
        base.run(gpu, Some((&src, &[x])))
    }

    #[test]
    fn solves_contiguous_small_systems_exactly() {
        let shape = WorkloadShape::new(20, 256);
        let batch = random_dominant::<f64>(shape, 21).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = upload(&mut gpu, &batch);
        let x = gpu.alloc(shape.total_equations()).unwrap();
        base_solve(&mut gpu, src, x, 20, 256, 256, 1, 64, BaseVariant::Strided).unwrap();
        let got = gpu.download(x).unwrap();
        let expect = solve_batch_sequential(&batch, BatchAlgorithm::Thomas).unwrap();
        for (u, v) in got.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-8);
        }
        assert!(batch_worst_relative_residual(&batch, &got).unwrap() < 1e-10);
    }

    #[test]
    fn solves_strided_chains_of_presplit_systems() {
        // Split systems on the CPU (2 PCR steps -> 4 chains of 256), upload
        // the transformed coefficients, and let the base kernel finish.
        let shape = WorkloadShape::new(3, 1024);
        let batch = random_dominant::<f64>(shape, 33).unwrap();
        let total = shape.total_equations();
        let (mut a, mut b, mut c, mut d) = (
            vec![0.0; total],
            vec![0.0; total],
            vec![0.0; total],
            vec![0.0; total],
        );
        for s in 0..3 {
            let sys = batch.system(s).unwrap();
            let split = pcr::pcr_split(&sys, 2).unwrap();
            a[s * 1024..(s + 1) * 1024].copy_from_slice(&split.a);
            b[s * 1024..(s + 1) * 1024].copy_from_slice(&split.b);
            c[s * 1024..(s + 1) * 1024].copy_from_slice(&split.c);
            d[s * 1024..(s + 1) * 1024].copy_from_slice(&split.d);
        }
        for variant in [BaseVariant::Strided, BaseVariant::Coalesced] {
            let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
            let src = [
                gpu.alloc_from(&a).unwrap(),
                gpu.alloc_from(&b).unwrap(),
                gpu.alloc_from(&c).unwrap(),
                gpu.alloc_from(&d).unwrap(),
            ];
            let x = gpu.alloc(total).unwrap();
            base_solve(&mut gpu, src, x, 3, 1024, 256, 4, 32, variant).unwrap();
            let got = gpu.download(x).unwrap();
            assert!(
                batch_worst_relative_residual(&batch, &got).unwrap() < 1e-10,
                "{variant:?}"
            );
        }
    }

    #[test]
    fn variants_price_the_load_differently() {
        let shape = WorkloadShape::new(2, 4096);
        let batch = random_dominant::<f64>(shape, 4).unwrap();
        let run = |variant: BaseVariant| {
            let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
            let src = upload(&mut gpu, &batch);
            let x = gpu.alloc(shape.total_equations()).unwrap();
            base_solve(&mut gpu, src, x, 2, 4096, 512, 8, 64, variant).unwrap()
        };
        let s = run(BaseVariant::Strided);
        let c = run(BaseVariant::Coalesced);
        // Strided: capped transaction waste but serialised issue slots.
        // Coalesced: stride x over-fetch but coalesced slots.
        assert!(s.totals.gmem_txn_bytes < c.totals.gmem_txn_bytes);
        assert!(s.totals.gmem_warp_txns > c.totals.gmem_warp_txns);
        // Payload identical.
        assert_eq!(s.totals.gmem_read_bytes, c.totals.gmem_read_bytes);
    }

    #[test]
    fn f32_solve_keeps_single_precision_accuracy() {
        let shape = WorkloadShape::new(10, 512);
        let batch = random_dominant::<f32>(shape, 6).unwrap();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());
        let src = upload(&mut gpu, &batch);
        let x = gpu.alloc(shape.total_equations()).unwrap();
        base_solve(&mut gpu, src, x, 10, 512, 512, 1, 64, BaseVariant::Strided).unwrap();
        let got = gpu.download(x).unwrap();
        assert!(batch_worst_relative_residual(&batch, &got).unwrap() < 1e-4);
    }

    #[test]
    fn f64_pays_sharedmem_conflicts() {
        let shape = WorkloadShape::new(4, 256);
        let b32 = random_dominant::<f32>(shape, 1).unwrap();
        let b64 = random_dominant::<f64>(shape, 1).unwrap();

        let mut g32: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());
        let src = upload(&mut g32, &b32);
        let x = g32.alloc(shape.total_equations()).unwrap();
        let s32 = base_solve(&mut g32, src, x, 4, 256, 256, 1, 64, BaseVariant::Strided).unwrap();

        let mut g64: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let src = upload(&mut g64, &b64);
        let x = g64.alloc(shape.total_equations()).unwrap();
        let s64 = base_solve(&mut g64, src, x, 4, 256, 256, 1, 64, BaseVariant::Strided).unwrap();

        assert_eq!(s32.totals.smem_conflict_accesses, 0.0);
        assert!(s64.totals.smem_conflict_accesses > 0.0);
    }

    #[test]
    fn numerical_breakdown_reported_not_propagated_as_nan() {
        // A singular system (zero diagonal everywhere) must produce an error.
        let n = 64;
        let mut a = vec![1.0f64; n];
        let b = vec![0.0f64; n];
        let mut c = vec![1.0f64; n];
        a[0] = 0.0;
        c[n - 1] = 0.0;
        let d = vec![1.0f64; n];
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = [
            gpu.alloc_from(&a).unwrap(),
            gpu.alloc_from(&b).unwrap(),
            gpu.alloc_from(&c).unwrap(),
            gpu.alloc_from(&d).unwrap(),
        ];
        let x = gpu.alloc(n).unwrap();
        let err = base_solve(&mut gpu, src, x, 1, 64, 64, 1, 16, BaseVariant::Strided);
        assert!(matches!(err, Err(CoreError::NumericalBreakdown { .. })));
    }

    #[test]
    fn rejects_chains_exceeding_block_limits() {
        // chain_len 2048 needs 2048 threads: more than any device allows.
        let shape = WorkloadShape::new(1, 2048);
        let batch = random_dominant::<f64>(shape, 2).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = upload(&mut gpu, &batch);
        let x = gpu.alloc(2048).unwrap();
        let err = base_solve(&mut gpu, src, x, 1, 2048, 2048, 1, 64, BaseVariant::Strided);
        assert!(err.is_err());
    }
}
