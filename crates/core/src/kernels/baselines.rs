//! Prior-art on-chip kernels, for the §III-A comparison: pure **PCR**
//! (Zhang et al., Egloff), pure **CR** (Göddeke & Strzodka) and Zhang et
//! al.'s best hybrid, **CR-PCR** — each solving one shared-memory-sized
//! system per block, like the paper's PCR-Thomas base kernel they are
//! compared against.
//!
//! The cost meters encode each algorithm's signature inefficiency:
//!
//! * pure PCR does `O(n log n)` work — every equation active every step;
//! * CR is work-optimal but halves its active threads every level (idle
//!   lanes inside warps once fewer than a warp remain) and needs `2·log n`
//!   barrier-separated steps;
//! * CR-PCR trims CR's inefficient tail by switching to PCR on the reduced
//!   system.

use crate::error::CoreError;
use crate::kernels::base::PCR_SMEM_PER_EQ;
use crate::kernels::stage1::PCR_OPS_PER_EQ;
use crate::kernels::{elem_bytes, CoeffBuffers, GpuScalar};
use crate::params::BASE_KERNEL_REGS_PER_THREAD;
use crate::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use trisolve_gpu_sim::{BufferId, Gpu, KernelStats, LaunchConfig, OutMode};
use trisolve_tridiag::system::ChainView;
use trisolve_tridiag::{cr, hybrid, pcr, TridiagonalSystem};

/// Which prior-art on-chip algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineAlgo {
    /// Pure parallel cyclic reduction.
    Pcr,
    /// Pure cyclic reduction.
    Cr,
    /// Zhang et al.'s CR-PCR hybrid: CR until the system is at most
    /// `pcr_threshold` equations, then pure PCR.
    CrPcr {
        /// Reduced-system size at which CR hands over to PCR.
        pcr_threshold: usize,
    },
}

impl BaselineAlgo {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            BaselineAlgo::Pcr => "pcr".into(),
            BaselineAlgo::Cr => "cr".into(),
            BaselineAlgo::CrPcr { pcr_threshold } => format!("cr-pcr[{pcr_threshold}]"),
        }
    }
}

const CR_OPS_PER_EQ: usize = 14;
const CR_SMEM_PER_EQ: usize = 18;

/// Launch geometry of a prior-art baseline kernel (shared between the
/// kernel and validation callers so the two cannot drift).
pub fn baseline_config(
    chains: usize,
    chain_len: usize,
    stride: usize,
    algo: BaselineAlgo,
    elem_bytes: usize,
) -> LaunchConfig {
    LaunchConfig::new(
        format!("baseline[{}@{stride},{}]", chain_len, algo.label()),
        chains,
        chain_len,
    )
    .with_regs(BASE_KERNEL_REGS_PER_THREAD)
    .with_shared_mem(4 * chain_len * elem_bytes)
}

/// Solve every chain of a batch with a prior-art on-chip kernel
/// (one block per chain, same launch geometry as
/// the base kernel's `StageOp::BaseSolve` launch).
#[allow(clippy::too_many_arguments)]
pub fn baseline_solve<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    src: CoeffBuffers,
    x: BufferId,
    m: usize,
    n: usize,
    chain_len: usize,
    stride: usize,
    algo: BaselineAlgo,
) -> Result<KernelStats> {
    debug_assert!(chain_len.is_power_of_two());
    debug_assert_eq!(chain_len * stride, n);
    let chains = m * stride;
    let cfg = baseline_config(chains, chain_len, stride, algo, elem_bytes::<T>());

    let word_factor = f64::max(elem_bytes::<T>() as f64 / 4.0, 1.0);
    let failed = AtomicBool::new(false);

    let stats = gpu.launch(&cfg, &src, &[(x, OutMode::Scattered)], |ctx, io| {
        let bid = ctx.block_id as usize;
        let parent = bid / stride;
        let r = bid % stride;
        let chain = ChainView {
            offset: parent * n + r,
            stride,
            len: chain_len,
        };
        let local = TridiagonalSystem::new(
            chain.gather(io.inputs[0]),
            chain.gather(io.inputs[1]),
            chain.gather(io.inputs[2]),
            chain.gather(io.inputs[3]),
        );
        ctx.gmem_read(4 * chain_len, stride);
        if ctx.sanitizing() {
            // Replay the gather through the tracked API so memcheck /
            // initcheck see the kernel's true global read set (values were
            // already read above). The baselines' internal shared-memory
            // choreography differs per algorithm and is not replayed per
            // element; their global read/write sets are what the sanitizer
            // audits here.
            for k in 0..4 {
                for j in 0..chain_len {
                    let _ = io.load(k, chain.index(j), j, "baseline::gather");
                }
            }
        }
        ctx.sync();

        let local = match local {
            Ok(s) => s,
            Err(_) => {
                failed.store(true, Ordering::Relaxed);
                return;
            }
        };

        let warp = ctx.device().queryable().warp_size;
        let solved = match algo {
            BaselineAlgo::Pcr => {
                // log2(n) steps, every equation active every step.
                let steps = pcr::ceil_log2(chain_len);
                for _ in 0..steps {
                    ctx.smem_conflict(PCR_SMEM_PER_EQ * chain_len, word_factor);
                    ctx.ops(PCR_OPS_PER_EQ * chain_len);
                    ctx.sync();
                    ctx.sync();
                }
                pcr::solve_pcr(&local)
            }
            BaselineAlgo::Cr => {
                meter_cr_levels(ctx, chain_len, 1, warp, word_factor);
                cr::solve_cr(&local)
            }
            BaselineAlgo::CrPcr { pcr_threshold } => {
                meter_cr_levels(ctx, chain_len, pcr_threshold, warp, word_factor);
                let reduced = pcr_threshold.min(chain_len);
                let steps = pcr::ceil_log2(reduced.max(1));
                for _ in 0..steps {
                    // The reduced system is small: few active warps, so each
                    // dependent PCR step exposes pipeline latency.
                    ctx.serial_phase(1, PCR_OPS_PER_EQ, reduced);
                    ctx.smem_conflict(PCR_SMEM_PER_EQ * reduced, word_factor);
                    ctx.sync();
                    ctx.sync();
                }
                hybrid::solve_cr_pcr(&local, pcr_threshold)
            }
        };

        match solved {
            Ok(lx) => {
                for (j, v) in lx.iter().enumerate() {
                    if !v.is_finite() {
                        failed.store(true, Ordering::Relaxed);
                        return;
                    }
                    io.scattered[0].set_at(chain.index(j), *v, j, "baseline::store");
                }
                ctx.gmem_write(chain_len, stride);
            }
            Err(_) => failed.store(true, Ordering::Relaxed),
        }
    })?;

    if failed.load(Ordering::Relaxed) {
        return Err(CoreError::NumericalBreakdown {
            kernel: cfg.label.clone(),
        });
    }
    Ok(stats)
}

/// Meter CR's forward-reduction and back-substitution levels down to
/// `threshold` remaining equations: active counts halve per level, but a
/// partially-filled warp still occupies whole-warp issue slots.
fn meter_cr_levels(
    ctx: &mut trisolve_gpu_sim::BlockCtx<'_>,
    n: usize,
    threshold: usize,
    _warp: usize,
    _word_factor: f64,
) {
    let threshold = threshold.max(1);
    // Forward reduction: at each level, size/2 equations are updated,
    // accessing shared memory at a power-of-two stride (bank conflicts!),
    // and each level depends on the previous one (serial-phase latency once
    // too few warps remain).
    let mut size = n;
    let mut stride = 2usize;
    while size > threshold {
        let active = size / 2;
        ctx.serial_phase(1, CR_OPS_PER_EQ, active);
        ctx.smem_strided(CR_SMEM_PER_EQ * active, stride);
        ctx.sync();
        ctx.sync();
        size = active.max(1);
        stride *= 2;
    }
    // Back substitution retraces the levels: recover `back` equations per
    // level on the way up, at shrinking strides.
    let mut back = size;
    while back < n {
        stride /= 2;
        ctx.serial_phase(1, 6, back);
        ctx.smem_strided(8 * back, stride.max(1));
        ctx.sync();
        back *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testing::upload;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::norms::batch_worst_relative_residual;
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

    fn run(algo: BaselineAlgo) -> (f64, KernelStats) {
        let shape = WorkloadShape::new(32, 512);
        let batch = random_dominant::<f64>(shape, 3).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = upload(&mut gpu, &batch);
        let x = gpu.alloc(shape.total_equations()).unwrap();
        let stats = baseline_solve(&mut gpu, src, x, 32, 512, 512, 1, algo).unwrap();
        let got = gpu.download(x).unwrap();
        let res = batch_worst_relative_residual(&batch, &got).unwrap();
        (res, stats)
    }

    #[test]
    fn all_baselines_solve_correctly() {
        for algo in [
            BaselineAlgo::Pcr,
            BaselineAlgo::Cr,
            BaselineAlgo::CrPcr { pcr_threshold: 64 },
        ] {
            let (res, _) = run(algo);
            assert!(res < 1e-9, "{}: residual {res:.3e}", algo.label());
        }
    }

    #[test]
    fn cr_signature_inefficiencies_are_metered() {
        let (_, pcr_stats) = run(BaselineAlgo::Pcr);
        let (_, cr_stats) = run(BaselineAlgo::Cr);
        // CR accesses shared memory at power-of-two strides: heavy bank
        // conflicts relative to its raw traffic. (In f64 both algorithms
        // carry the 2-way word serialisation, so compare conflict ratios.)
        let conflict_ratio =
            |s: &KernelStats| s.totals.smem_conflict_accesses / s.totals.smem_accesses.max(1.0);
        assert!(conflict_ratio(&cr_stats) > 2.0 * conflict_ratio(&pcr_stats));
        // CR's raw shared traffic is below PCR's O(n log n)...
        assert!(cr_stats.totals.smem_accesses < pcr_stats.totals.smem_accesses);
        // ...but it needs roughly twice the barrier-separated steps.
        assert!(cr_stats.totals.barriers > 1.3 * pcr_stats.totals.barriers);
    }

    #[test]
    fn hybrid_sits_between_cr_and_pcr_in_work() {
        let (_, pcr_stats) = run(BaselineAlgo::Pcr);
        let (_, cr_stats) = run(BaselineAlgo::Cr);
        let (_, hy_stats) = run(BaselineAlgo::CrPcr { pcr_threshold: 64 });
        assert!(hy_stats.totals.thread_ops <= pcr_stats.totals.thread_ops);
        assert!(hy_stats.totals.barriers <= cr_stats.totals.barriers);
        let _ = cr_stats;
    }

    #[test]
    fn baselines_handle_strided_chains() {
        // Pre-split systems: baselines must solve interleaved chains too.
        let shape = WorkloadShape::new(2, 1024);
        let batch = random_dominant::<f64>(shape, 5).unwrap();
        let total = shape.total_equations();
        let (mut a, mut b, mut c, mut d) = (
            vec![0.0; total],
            vec![0.0; total],
            vec![0.0; total],
            vec![0.0; total],
        );
        for s in 0..2 {
            let sys = batch.system(s).unwrap();
            let split = pcr::pcr_split(&sys, 1).unwrap();
            a[s * 1024..(s + 1) * 1024].copy_from_slice(&split.a);
            b[s * 1024..(s + 1) * 1024].copy_from_slice(&split.b);
            c[s * 1024..(s + 1) * 1024].copy_from_slice(&split.c);
            d[s * 1024..(s + 1) * 1024].copy_from_slice(&split.d);
        }
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = [
            gpu.alloc_from(&a).unwrap(),
            gpu.alloc_from(&b).unwrap(),
            gpu.alloc_from(&c).unwrap(),
            gpu.alloc_from(&d).unwrap(),
        ];
        let x = gpu.alloc(total).unwrap();
        baseline_solve(&mut gpu, src, x, 2, 1024, 512, 2, BaselineAlgo::Pcr).unwrap();
        let got = gpu.download(x).unwrap();
        assert!(batch_worst_relative_residual(&batch, &got).unwrap() < 1e-9);
    }

    #[test]
    fn singular_systems_reported() {
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
        let err = baseline_solve(&mut gpu, src, x, 1, 64, 64, 1, BaselineAlgo::Cr);
        assert!(matches!(err, Err(CoreError::NumericalBreakdown { .. })));
    }
}
