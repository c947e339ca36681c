//! The three GPU kernels of the multi-stage solver, written against the
//! simulator's launch API.
//!
//! Every kernel both *computes* (real arithmetic on real buffers, verified
//! against the CPU reference algorithms) and *meters* its memory traffic,
//! arithmetic and synchronisation so the simulator can time it. The metering
//! calls are the performance model of the real CUDA kernels; the analytic
//! expectations they encode are checked by the tests in this module tree.
//!
//! The meters depend on the launch geometry only, never on the data, so
//! the plan families can also be *priced* without computing: each has a
//! crate-internal `*_run` entry taking `Option` buffers, guards its
//! numerics with [`BlockCtx::pricing`], and keeps its meter calls
//! unconditional (see `launch_or_price`).

pub mod access;
pub mod base;
pub mod baselines;
pub mod interleaved;
pub mod recurrence;
pub mod repack;
pub mod stage1;
pub mod stage2;

pub use access::{
    base_access_summary, baseline_access_summary, deinterleave_access_summary,
    interleave_access_summary, ithomas_access_summary, repack_access_summary,
    stage1_access_summary, stage2_access_summary, unpack_access_summary, AffineMap, AffineTerm,
    BarrierInterval, GlobalAccess, KernelAccessSummary, SmemAccess, SmemOwner,
};
pub use base::{base_config, base_solve};
pub use baselines::{baseline_config, baseline_solve, BaselineAlgo};
pub use interleaved::{
    deinterleave_config, deinterleave_solution, interleave_batch, interleave_config,
    ithomas_config, ithomas_solve,
};
pub use recurrence::{
    base_recurrence_summary, deinterleave_recurrence_summary, interleave_recurrence_summary,
    ithomas_recurrence_summary, stage1_recurrence_summary, stage2_recurrence_summary,
    RecurrenceKind, RecurrenceSummary, PCR_ROUNDING_OPS_PER_ROW, THOMAS_ROUNDING_OPS_PER_ROW,
};
pub use repack::{repack_chains, repack_config, unpack_config, unpack_solution};
pub use stage1::{stage1_config, stage1_step};
pub use stage2::{stage2_config, stage2_split};

use crate::Result;
use trisolve_gpu_sim::{
    BlockCtx, BlockIo, BufferId, Element, Gpu, KernelStats, LaunchConfig, OutMode,
};
use trisolve_tridiag::Scalar;

/// Scalars usable on the simulated GPU (`f32`, `f64`).
pub trait GpuScalar: Scalar + Element {}
impl<T: Scalar + Element> GpuScalar for T {}

/// Element width in bytes of a GPU scalar (disambiguates the `BYTES`
/// constants that both `Scalar` and `Element` define — they agree for every
/// implementor).
pub fn elem_bytes<T: GpuScalar>() -> usize {
    <T as Element>::BYTES
}

/// The four coefficient buffers `(a, b, c, d)` as one handle bundle.
pub type CoeffBuffers = [BufferId; 4];

/// Run one family launch: executed on `io = Some((inputs, outputs))`, or
/// priced from its meters alone with `io = None` ([`Gpu::price`]). Either
/// way the device is charged the same [`KernelStats`], because every
/// family guards its numerics with [`BlockCtx::pricing`] and keeps its
/// meter calls unconditional.
pub(crate) fn launch_or_price<T, I, O, F>(
    gpu: &mut Gpu<T>,
    cfg: &LaunchConfig,
    io: Option<(I, O)>,
    kernel: F,
) -> Result<KernelStats>
where
    T: GpuScalar,
    I: AsRef<[BufferId]>,
    O: AsRef<[(BufferId, OutMode)]>,
    F: Fn(&mut BlockCtx, &mut BlockIo<'_, T>) + Sync,
{
    Ok(match io {
        Some((inputs, outputs)) => gpu.launch(cfg, inputs.as_ref(), outputs.as_ref(), kernel)?,
        None => gpu.price(cfg, kernel)?,
    })
}
