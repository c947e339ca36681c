//! The GPU kernels of the multi-stage solver, written against the
//! simulator's launch API.
//!
//! Every kernel both *computes* (real arithmetic on real buffers, verified
//! against the CPU reference algorithms) and *meters* its memory traffic,
//! arithmetic and synchronisation so the simulator can time it. The metering
//! calls are the performance model of the real CUDA kernels; the analytic
//! expectations they encode are checked by the tests in this module tree.
//!
//! The six kernel families a plan launches (stage 1, stage 2, the base
//! kernel, and the interleave → batched-Thomas → deinterleave path) each
//! implement `Family`: one type per family that derives its stage name,
//! buffer roles, launch label and config, recurrence, access summary and
//! run/price entry from the same fields. Callers reach them only through a
//! plan op's [`OpDescriptor`](crate::plan::OpDescriptor), so a launch's
//! label, config, access summary and recurrence cannot disagree. The
//! baseline, repack and unpack kernels are not plan ops and keep their
//! free `*_config` / `*_access_summary` functions.
//!
//! The meters depend on the launch geometry only, never on the data, so
//! the plan families can also be *priced* without computing: each guards
//! its numerics with [`BlockCtx::pricing`] and keeps its meter calls
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
    baseline_access_summary, repack_access_summary, unpack_access_summary, AffineMap, AffineTerm,
    BarrierInterval, GlobalAccess, KernelAccessSummary, SmemAccess, SmemOwner,
};
pub use baselines::{baseline_config, baseline_solve, BaselineAlgo};
pub use recurrence::{RecurrenceKind, PCR_ROUNDING_OPS_PER_ROW, THOMAS_ROUNDING_OPS_PER_ROW};
pub use repack::{repack_chains, repack_config, unpack_config, unpack_solution};

use crate::Result;
use trisolve_gpu_sim::{
    BlockCtx, BlockIo, BufferId, Element, Gpu, KernelStats, LaunchConfig, OutMode, TileScratch,
};
use trisolve_tridiag::pcr;
use trisolve_tridiag::system::ChainView;
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

/// The buffers one plan-op launch reads and writes: `(inputs, outputs)`,
/// in the order of its [`BufferRoles`].
pub(crate) type LaunchIo<'a> = (&'a [BufferId], &'a [BufferId]);

/// One buffer a plan op touches, relative to the executor's current and
/// alternate coefficient bundles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferRole {
    /// Array `i` of the current bundle.
    Cur(usize),
    /// Array `i` of the alternate (double-buffer) bundle.
    Alt(usize),
    /// The solution vector.
    X,
}

/// A plan op's buffer discipline: what it reads, what it writes, and
/// whether the bundles swap afterwards. The schedule lowering certifies
/// these accesses and the executors launch on exactly these buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferRoles {
    /// Buffers read, in kernel input order.
    pub reads: &'static [BufferRole],
    /// Buffers written, in kernel output order.
    pub writes: &'static [BufferRole],
    /// The current and alternate bundles swap after the op.
    pub swap: bool,
}

/// The current coefficient bundle.
pub(crate) const CUR: &[BufferRole] = &[
    BufferRole::Cur(0),
    BufferRole::Cur(1),
    BufferRole::Cur(2),
    BufferRole::Cur(3),
];

/// Coefficients in, transformed coefficients out into the alternate
/// bundle, which then becomes current (stage 1, stage 2, interleave).
pub(crate) const DOUBLE_BUFFERED: BufferRoles = BufferRoles {
    reads: CUR,
    writes: &[
        BufferRole::Alt(0),
        BufferRole::Alt(1),
        BufferRole::Alt(2),
        BufferRole::Alt(3),
    ],
    swap: true,
};

/// One kernel family a plan launches: the only place its static facts are
/// derived. The six implementors carry the op's fields plus the batch
/// geometry; [`StageOp::describe`](crate::plan::StageOp::describe) picks
/// the family and every [`OpDescriptor`](crate::plan::OpDescriptor) fact
/// comes from it.
pub(crate) trait Family {
    /// Short stage name: trace category, `stage_ms/<stage>` metric key and
    /// schedule node label.
    const STAGE: &'static str;
    /// The buffers the launch reads and writes.
    const ROLES: BufferRoles;
    /// The launch label, formatted here and nowhere else.
    fn label(&self) -> String;
    /// Launch geometry for elements of `elem_bytes`.
    fn config(&self, elem_bytes: usize) -> LaunchConfig;
    /// The numeric recurrence the launch applies.
    fn recurrence(&self) -> RecurrenceKind;
    /// The affine access summary of the launch.
    fn access(&self) -> KernelAccessSummary;
    /// Launch on `io`, or price from the meters alone with `None` (see
    /// [`launch_or_price`]).
    fn run<T: GpuScalar>(&self, gpu: &mut Gpu<T>, io: Option<LaunchIo<'_>>) -> Result<KernelStats>;
}

/// Run one family launch: executed on `io = Some((inputs, outputs))`, every
/// output partitioned by `mode`, or priced from its meters alone with
/// `io = None` ([`Gpu::price`]). Either way the device is charged the same
/// [`KernelStats`], because every family guards its numerics with
/// [`BlockCtx::pricing`] and keeps its meter calls unconditional.
pub(crate) fn launch_or_price<T, F>(
    gpu: &mut Gpu<T>,
    cfg: &LaunchConfig,
    io: Option<LaunchIo<'_>>,
    mode: OutMode,
    kernel: F,
) -> Result<KernelStats>
where
    T: GpuScalar,
    F: Fn(&mut BlockCtx, &mut BlockIo<'_, T>) + Sync,
{
    Ok(match io {
        Some((inputs, outputs)) => {
            let outputs: Vec<_> = outputs.iter().map(|&b| (b, mode)).collect();
            gpu.launch(cfg, inputs, &outputs, kernel)?
        }
        None => gpu.price(cfg, kernel)?,
    })
}

/// [`launch_or_price`] for a kernel that takes its blocks in tiles of
/// `tile` adjacent blocks, with a [`TileScratch`] for its working arrays
/// ([`Gpu::launch_tiles`]), and writes every output scattered. Pricing
/// runs one block per tile, on an empty scratch it never grows.
pub(crate) fn launch_or_price_tiles<T, F>(
    gpu: &mut Gpu<T>,
    cfg: &LaunchConfig,
    io: Option<LaunchIo<'_>>,
    tile: usize,
    kernel: F,
) -> Result<KernelStats>
where
    T: GpuScalar,
    F: Fn(&mut TileScratch<T>, &mut [BlockCtx], &mut [BlockIo<'_, T>]) + Sync,
{
    Ok(match io {
        Some((inputs, outputs)) => {
            let outputs: Vec<_> = outputs.iter().map(|&b| (b, OutMode::Scattered)).collect();
            gpu.launch_tiles(cfg, tile, inputs, &outputs, kernel)?
        }
        None => {
            let mut scratch = TileScratch::default();
            gpu.price(cfg, |ctx, io| {
                kernel(
                    &mut scratch,
                    std::slice::from_mut(ctx),
                    std::slice::from_mut(io),
                );
            })?
        }
    })
}

/// The chain block `bid` owns in a batch of `n`-equation systems split
/// into `stride` chains each: `parent = bid / stride`, `r = bid % stride`,
/// element `j` at `parent·n + r + j·stride` (stage 2 and the base kernel).
pub(crate) fn block_chain(bid: usize, n: usize, stride: usize) -> ChainView {
    ChainView {
        offset: bid / stride * n + bid % stride,
        stride,
        len: n / stride,
    }
}

/// Bytes of one host cache line.
const CACHE_LINE_BYTES: usize = 64;

/// How many adjacent chain blocks stage 2 and the base kernel take per
/// tile: one cache line of elements (16 `f32`, 8 `f64`) when chains at
/// `stride` are that far apart, so each gathered or stored row fills a
/// line; every chain of a parent when `stride` is narrower than a line, so
/// the tile is the parent's contiguous layout; otherwise 1. The tile width
/// divides `stride`, so a tile's chains share one parent system.
pub(crate) fn chain_tile(stride: usize, elem_bytes: usize) -> usize {
    let line = CACHE_LINE_BYTES / elem_bytes;
    if stride < line {
        stride
    } else if stride.is_multiple_of(line) {
        line
    } else {
        1
    }
}

/// The chains of one tile of adjacent blocks, lane-interleaved and
/// double-buffered for PCR steps. Lane `g` is the chain at parent offset
/// `first.offset + g`; its row `j` sits at `j·lanes + g`.
///
/// One PCR step at local stride `s` on every lane is one step at stride
/// `s·lanes` on the flat arrays: the neighbours of row `j` of lane `g` sit
/// `s·lanes` away, and a row lacks its `−s` (`+s`) neighbour exactly when
/// its flat index is below `s·lanes` (within `s·lanes` of the end). Every
/// lane therefore gets the operations, in the order, that one chain alone
/// gets.
///
/// A tile of every chain of its parent (`lanes == stride`) is already in
/// this layout in the launch input, so it is read where it lies: the first
/// step reads the input and writes the working arrays, and a tile that
/// takes no step is the input itself. Any other tile is gathered, one
/// `lanes`-element run per row. The working arrays are borrowed from the
/// launch's [`TileScratch`] and never cleared: the gather or the first
/// step writes every row before any is read.
pub(crate) struct ChainTile<'a, T> {
    /// Chains in the tile.
    lanes: usize,
    /// The tile's `(a, b, c, d)` in the launch input, while it is read
    /// where it lies and no step has run.
    input: Option<[&'a [T]; 4]>,
    cur: [&'a mut [T]; 4],
    next: [&'a mut [T]; 4],
}

/// Working elements a [`ChainTile`] of `elems` elements borrows.
pub(crate) const fn chain_tile_scratch(elems: usize) -> usize {
    8 * elems
}

impl<'a, T: GpuScalar> ChainTile<'a, T> {
    /// The `lanes` chains starting at `first` in the four `inputs`, with
    /// `work` (at least [`chain_tile_scratch`] of `first.len · lanes`
    /// elements) as working memory.
    pub(crate) fn new(
        first: &ChainView,
        lanes: usize,
        inputs: &[&'a [T]],
        work: &'a mut [T],
    ) -> Self {
        let len = first.len * lanes;
        let mut arrays = work.chunks_exact_mut(len);
        let mut four = || [(); 4].map(|()| arrays.next().expect("eight working arrays"));
        let (mut cur, next) = (four(), four());
        let input = (lanes == first.stride)
            .then(|| [0, 1, 2, 3].map(|k| &inputs[k][first.offset..][..len]));
        if input.is_none() {
            for (dst, src) in cur.iter_mut().zip(inputs) {
                if lanes == 1 {
                    // One lane is the chain itself, gathered element by
                    // element (a run copy per element would cost a
                    // `memcpy` call each).
                    for (j, v) in dst.iter_mut().enumerate() {
                        *v = src[first.index(j)];
                    }
                } else {
                    for (j, row) in dst.chunks_exact_mut(lanes).enumerate() {
                        row.copy_from_slice(&src[first.index(j)..][..lanes]);
                    }
                }
            }
        }
        Self {
            lanes,
            input,
            cur,
            next,
        }
    }

    /// One PCR step at local stride `s` on every lane; the result becomes
    /// current.
    pub(crate) fn pcr_step(&mut self, s: usize) {
        let stride = s * self.lanes;
        match self.input.take() {
            Some([a, b, c, d]) => {
                let [oa, ob, oc, od] = &mut self.cur;
                pcr::pcr_step(stride, a, b, c, d, oa, ob, oc, od);
            }
            None => {
                let [a, b, c, d] = &self.cur;
                let [oa, ob, oc, od] = &mut self.next;
                pcr::pcr_step(stride, a, b, c, d, oa, ob, oc, od);
                std::mem::swap(&mut self.cur, &mut self.next);
            }
        }
    }

    /// PCR steps at local strides 1, 2, …, 2^(steps − 1) on every lane,
    /// as [`ChainTile::pcr_step`] runs them, except that a run of `f32`
    /// steps that take the `f64` path stays in `f64` from one to the next,
    /// on `wide` ([`Scalar::pcr_steps_wide`]). The result is the same bit
    /// for bit.
    pub(crate) fn pcr_steps(&mut self, steps: u32, wide: &mut Vec<f64>) {
        let mut k = 0;
        while k < steps {
            let (stride, left) = (self.lanes << k, steps - k);
            let ran = match self.input {
                Some(src) => {
                    let dst = self.cur.each_mut().map(|v| &mut **v);
                    T::pcr_steps_wide(stride, left, src, dst, wide)
                }
                None => {
                    let src = self.cur.each_ref().map(|v| &**v);
                    let dst = self.next.each_mut().map(|v| &mut **v);
                    let ran = T::pcr_steps_wide(stride, left, src, dst, wide);
                    if ran > 0 {
                        std::mem::swap(&mut self.cur, &mut self.next);
                    }
                    ran
                }
            };
            if ran > 0 {
                self.input = None;
                k += ran;
            } else {
                self.pcr_step(1 << k);
                k += 1;
            }
        }
    }

    /// The current `(a, b, c, d)`.
    pub(crate) fn cur(&self) -> [&[T]; 4] {
        self.input
            .unwrap_or_else(|| self.cur.each_ref().map(|v| &v[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

    /// A tile's steps by [`ChainTile::pcr_steps`], the subnormal ones
    /// resident in `f64`, equal [`ChainTile::pcr_step`] one at a time, bit
    /// for bit: for tiles read in place (`lanes == stride`), a gathered one
    /// and a one-lane one, after every step count. A `random_dominant`
    /// system's off-diagonals go tiny at its step 5 or 6 and stay tiny for
    /// one more, so a resident run ends at the step limit when the count
    /// cuts it and where the probe finds the interior normal again when it
    /// does not.
    #[test]
    fn resident_steps_match_one_step_at_a_time() {
        let n = 1024;
        let batch = random_dominant::<f32>(WorkloadShape::new(4, n), 2011).unwrap();
        let inputs = [&batch.a[..], &batch.b[..], &batch.c[..], &batch.d[..]];
        for (stride, lanes) in [(2, 2), (16, 16), (4, 2), (8, 1)] {
            // The tile of system 1's first chains.
            let first = block_chain(stride, n, stride);
            let len = first.len * lanes;
            let mut went_wide = false;
            for steps in 0..=first.len.trailing_zeros() {
                let mut work = [(); 2].map(|()| vec![0f32; chain_tile_scratch(len)]);
                let [w1, w2] = &mut work;
                let mut one_by_one = ChainTile::new(&first, lanes, &inputs, w1);
                for k in 0..steps {
                    one_by_one.pcr_step(1 << k);
                }
                let mut resident = ChainTile::new(&first, lanes, &inputs, w2);
                let mut wide = Vec::new();
                resident.pcr_steps(steps, &mut wide);
                went_wide |= !wide.is_empty();
                for (k, (g, w)) in resident.cur().iter().zip(one_by_one.cur()).enumerate() {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(g),
                        bits(w),
                        "stride {stride}, {lanes} lanes, {steps} steps: array {k}"
                    );
                }
            }
            assert!(went_wide, "stride {stride}: no step ran resident");
        }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! Buffer fixtures shared by the kernel tests.
    use super::{CoeffBuffers, GpuScalar};
    use trisolve_gpu_sim::Gpu;
    use trisolve_tridiag::SystemBatch;

    /// The batch's four coefficient arrays, uploaded.
    pub(crate) fn upload<T: GpuScalar>(gpu: &mut Gpu<T>, b: &SystemBatch<T>) -> CoeffBuffers {
        [&b.a, &b.b, &b.c, &b.d].map(|v| gpu.alloc_from(v).unwrap())
    }

    /// Four fresh buffers of `len` elements.
    pub(crate) fn alloc4<T: GpuScalar>(gpu: &mut Gpu<T>, len: usize) -> CoeffBuffers {
        [(); 4].map(|()| gpu.alloc(len).unwrap())
    }
}
