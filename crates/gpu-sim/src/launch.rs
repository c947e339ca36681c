//! The kernel launch abstraction: launch configurations, the per-block
//! execution context with its cost meters, and the output-writing façades
//! (owned chunks vs. race-checked scattered writes).
//!
//! ## Programming model
//!
//! A kernel is a Rust closure invoked once per block. It receives:
//!
//! * a [`BlockCtx`] — block id plus the cost meters it must feed as it works
//!   (`gmem_read`, `smem`, `ops`, `sync`, …);
//! * a [`BlockIo`] — read-only views of the input buffers, an exclusive
//!   mutable chunk of each *chunked* output, and a [`ScatterWriter`] for each
//!   *scattered* output.
//!
//! Blocks run independently (in parallel via Rayon) and cannot communicate —
//! exactly the real-GPU constraint that a kernel has no global barrier. The
//! paper's stage 1 needs a global synchronisation per split and therefore
//! pays one *launch* per split; the simulator enforces that structure.
//!
//! [`crate::Gpu::launch_tiles`] hands a kernel its blocks in *tiles* of
//! adjacent blocks — one `BlockCtx` and one `BlockIo` per block — so the
//! host can run their numerics together; [`store_tile`] stores a tile's
//! lane-interleaved rows and logs each block's writes as its own. The
//! simulated launch, its meters and its race check do not depend on the
//! tile width.
//!
//! Scattered outputs are race-checked, always: each [`ScatterWriter`] logs
//! its block's writes as affine runs `(start, stride, count)`, and after
//! the grid has run the launch checks the blocks' logs against each other
//! once. If two blocks wrote the same element, the launch fails with
//! [`crate::SimError::WriteRace`] instead of silently corrupting data (on
//! hardware this would be undefined behaviour).
//! [`ScatterWriter::set_strided`] stores a whole strided chain with one
//! bounds check and one logged run.
//!
//! When the device was built with [`crate::Gpu::with_sanitizer`], the
//! *tracked* access APIs — [`BlockIo::load`], [`BlockIo::store`],
//! [`ScatterWriter::set_at`], [`BlockCtx::track_smem_read`] /
//! [`BlockCtx::track_smem_write`] — additionally feed a per-block
//! [`BlockShadow`] that implements memcheck / initcheck / racecheck (see
//! [`crate::sanitizer`]). Without a sanitizer the tracked APIs degrade to
//! the plain accesses at the cost of one branch.

// The only unsafe code in the workspace lives in this module (`SharedOut`'s
// scattered-write pointer); the workspace-level `unsafe_code = "deny"` lint
// is lifted here and every unsafe block carries a SAFETY comment.
#![allow(unsafe_code)]

use crate::cost::CostCounters;
use crate::device::DeviceSpec;
use crate::sanitizer::{BlockShadow, InitMask, Region};
use crate::writelog::WriteLog;
use crate::Element;
use std::cell::RefCell;

/// Configuration of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Label shown in profiles and error messages.
    pub label: String,
    /// Number of blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block.
    pub block_threads: usize,
    /// Shared memory bytes used per block.
    pub shared_mem_bytes: usize,
    /// Registers used per thread (residency pressure).
    pub regs_per_thread: usize,
}

impl LaunchConfig {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, grid_blocks: usize, block_threads: usize) -> Self {
        Self {
            label: label.into(),
            grid_blocks,
            block_threads,
            shared_mem_bytes: 0,
            regs_per_thread: 16,
        }
    }

    /// Builder-style shared memory setting.
    pub fn with_shared_mem(mut self, bytes: usize) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// Builder-style register pressure setting.
    pub fn with_regs(mut self, regs_per_thread: usize) -> Self {
        self.regs_per_thread = regs_per_thread;
        self
    }
}

/// How an output buffer is partitioned among blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutMode {
    /// Block `b` exclusively owns elements `b*chunk .. (b+1)*chunk` and gets
    /// them as a readable *and* writable slice (its "own system" in global
    /// memory). The final chunk may be shorter.
    Chunked {
        /// Elements per block.
        chunk: usize,
    },
    /// Blocks may write anywhere, but every element at most once across the
    /// whole grid (checked). Write-only.
    Scattered,
}

/// Per-block execution context: identity plus cost meters.
///
/// The meters are the honesty contract of the simulation: every kernel must
/// record the memory traffic and arithmetic it performs. The tridiagonal
/// kernels' meter calls are verified against analytic expectations in the
/// `trisolve-core` tests.
#[derive(Debug)]
pub struct BlockCtx<'a> {
    /// This block's index within the grid.
    pub block_id: u32,
    /// Threads in this block.
    pub block_threads: usize,
    device: &'a DeviceSpec,
    elem_bytes: usize,
    counters: CostCounters,
    /// Sanitizer shadow state, present only under `Gpu::with_sanitizer`.
    /// Kept strictly apart from the cost counters so tracking can never
    /// perturb a simulated timing.
    shadow: Option<&'a RefCell<BlockShadow>>,
    /// True inside [`crate::Gpu::price`]: the block has no buffers and
    /// must only feed its meters.
    pricing: bool,
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn new(
        block_id: u32,
        block_threads: usize,
        device: &'a DeviceSpec,
        elem_bytes: usize,
    ) -> Self {
        Self {
            block_id,
            block_threads,
            device,
            elem_bytes,
            counters: CostCounters::default(),
            shadow: None,
            pricing: false,
        }
    }

    pub(crate) fn attach_shadow(&mut self, cell: &'a RefCell<BlockShadow>) {
        self.shadow = Some(cell);
    }

    pub(crate) fn set_pricing(&mut self) {
        self.pricing = true;
    }

    /// True when this block runs under [`crate::Gpu::price`]: its
    /// [`BlockIo`] is empty, so the kernel must skip its numerics and
    /// only make its meter calls. Meters may depend on the launch
    /// geometry and the block id, never on buffer contents — that is
    /// what makes a priced launch charge exactly the executed
    /// [`crate::KernelStats`].
    pub fn pricing(&self) -> bool {
        self.pricing
    }

    /// True when this launch runs under the dynamic sanitizer; kernels use
    /// this to guard replay-only tracking work that would otherwise burn
    /// host time for nothing.
    pub fn sanitizing(&self) -> bool {
        self.shadow.is_some()
    }

    /// Sanitizer hook: record that logical thread `tid` *reads* shared-memory
    /// element `idx` at source site `site`. No-op without a sanitizer or when
    /// the launch declared no shared memory; checks bounds against the
    /// declared shared allocation, reads-before-any-write (initcheck) and
    /// same-interval conflicts with other threads (racecheck).
    pub fn track_smem_read(&mut self, idx: usize, tid: usize, site: &'static str) {
        let Some(cell) = self.shadow else { return };
        let mut s = cell.borrow_mut();
        let elems = s.smem_elems();
        if elems == 0 {
            return;
        }
        if idx >= elems {
            s.record_oob(Region::Shared, idx, elems, tid, site, false);
            return;
        }
        if !s.smem_initialized(idx) {
            s.record_uninit(Region::Shared, idx, tid, site);
        }
        s.record_access(Region::Shared, idx, tid, site, false);
    }

    /// Sanitizer hook: record that logical thread `tid` *writes* shared-memory
    /// element `idx` at source site `site` (see [`BlockCtx::track_smem_read`]).
    pub fn track_smem_write(&mut self, idx: usize, tid: usize, site: &'static str) {
        let Some(cell) = self.shadow else { return };
        let mut s = cell.borrow_mut();
        let elems = s.smem_elems();
        if elems == 0 {
            return;
        }
        if idx >= elems {
            s.record_oob(Region::Shared, idx, elems, tid, site, true);
            return;
        }
        s.record_access(Region::Shared, idx, tid, site, true);
        s.mark_smem_write(idx);
    }

    /// Record a global-memory read of `elems` elements accessed with an
    /// element stride of `stride_elems` between consecutive threads
    /// (`1` = perfectly coalesced).
    pub fn gmem_read(&mut self, elems: usize, stride_elems: usize) {
        let (payload, moved, txns) = self.traffic(elems, stride_elems);
        self.counters.gmem_read_bytes += payload;
        self.counters.gmem_txn_bytes += moved;
        self.counters.gmem_warp_txns += txns;
    }

    /// Record a global-memory write (same stride semantics as `gmem_read`).
    pub fn gmem_write(&mut self, elems: usize, stride_elems: usize) {
        let (payload, moved, txns) = self.traffic(elems, stride_elems);
        self.counters.gmem_write_bytes += payload;
        self.counters.gmem_txn_bytes += moved;
        self.counters.gmem_warp_txns += txns;
    }

    fn traffic(&self, elems: usize, stride_elems: usize) -> (f64, f64, f64) {
        let b = self.elem_bytes as f64;
        let payload = elems as f64 * b;
        let moved_per_elem = if stride_elems <= 1 {
            b
        } else {
            // Each warp's accesses spread over `stride` segments; the memory
            // system moves at least one minimum transaction per element once
            // the stride exceeds the transaction width.
            (b * stride_elems as f64).min(self.device.hidden().min_transaction_bytes)
        }
        .max(b);
        let moved = elems as f64 * moved_per_elem;
        // Issue slots: a fully coalesced warp access needs one slot per
        // 128 bytes; a strided access serialises into one transaction per
        // covered minimum-transaction segment, up to one per element — the
        // latency-side cost of poor coalescing.
        let warp = self.device.queryable().warp_size as f64;
        let coalesced_slots = (b * warp / 128.0).max(1.0);
        let slots_per_warp = if stride_elems <= 1 {
            coalesced_slots
        } else {
            (warp * b * stride_elems as f64 / self.device.hidden().min_transaction_bytes)
                .min(warp)
                .max(coalesced_slots)
        };
        let txns = (elems as f64 / warp).ceil() * slots_per_warp;
        (payload, moved, txns)
    }

    /// Record a global read of `total` elements of which only `unique` are
    /// distinct — the overlapping neighbour streams of a PCR splitting
    /// kernel, staged through shared memory (or caught by the texture/L1
    /// cache on parts that have one). The redundant fraction that the
    /// device's `read_reuse_fraction` captures never reaches the bus.
    pub fn gmem_read_staged(&mut self, total: usize, unique: usize, stride_elems: usize) {
        debug_assert!(unique <= total);
        let reuse = self.device.hidden().read_reuse_fraction;
        let redundant_missed = (total - unique) as f64 * (1.0 - reuse);
        let effective = unique as f64 + redundant_missed;
        // Per-element costs derived from one full warp's traffic.
        let warp = self.device.queryable().warp_size as f64;
        let (payload_warp, moved_warp, txn_warp) =
            self.traffic(self.device.queryable().warp_size, stride_elems);
        self.counters.gmem_read_bytes += unique as f64 * payload_warp / warp;
        self.counters.gmem_txn_bytes += effective * moved_warp / warp;
        self.counters.gmem_warp_txns += effective * txn_warp / warp;
    }

    /// Record a global read that is perfectly coalesced but *over-fetches*:
    /// `factor`× the payload is moved to obtain `elems` useful elements (the
    /// tile-transpose load of the base kernel's coalesced variant, which
    /// reads whole contiguous tiles and keeps only its own chain's
    /// elements).
    pub fn gmem_read_overfetch(&mut self, elems: usize, factor: f64) {
        assert!(factor >= 1.0, "overfetch factor must be >= 1");
        let b = self.elem_bytes as f64;
        let payload = elems as f64 * b;
        self.counters.gmem_read_bytes += payload;
        self.counters.gmem_txn_bytes += payload * factor;
        let warp = self.device.queryable().warp_size as f64;
        self.counters.gmem_warp_txns +=
            (elems as f64 / warp).ceil() * factor * (b * warp / 128.0).max(1.0);
    }

    /// Meter a *serial phase*: each of `active_threads` threads executes
    /// `steps` dependent steps of `ops_per_step` operations (the Thomas stage
    /// of the hybrid base kernel, where one thread owns one subsystem).
    ///
    /// Two SIMT effects are charged beyond the raw operation count: idle
    /// lanes in partially-filled warps, and the *dependency latency* of each
    /// serial step (division + shared-memory round trip) that goes unhidden
    /// when the block has fewer active warps than the device's pipeline
    /// depth (`smem_pipeline_warps`). The latter is what makes switching to
    /// Thomas too early expensive (paper Figure 6: "at the cost of less
    /// parallelism to hide memory latency").
    pub fn serial_phase(&mut self, steps: usize, ops_per_step: usize, active_threads: usize) {
        if steps == 0 || active_threads == 0 {
            return;
        }
        let q = self.device.queryable();
        let h = self.device.hidden();
        let warps = active_threads.div_ceil(q.warp_size);
        let padded_threads = warps * q.warp_size;
        let issue_ops = steps as f64 * ops_per_step as f64 * padded_threads as f64;
        let unhidden = (1.0 - warps as f64 / h.smem_pipeline_warps).max(0.0);
        let dep_cycles = steps as f64 * h.serial_dep_latency_cycles * unhidden;
        // The timing model divides thread_ops by the lane count to get
        // cycles; convert the latency cycles into equivalent thread-ops.
        self.counters.thread_ops += issue_ops + dep_cycles * q.thread_procs_per_sm as f64;
    }

    /// Record `accesses` conflict-free shared-memory word accesses.
    pub fn smem(&mut self, accesses: usize) {
        self.counters.smem_accesses += accesses as f64;
    }

    /// Record shared-memory accesses serialised `ways`-fold by bank
    /// conflicts (`ways = 1` means conflict-free).
    pub fn smem_conflict(&mut self, accesses: usize, ways: f64) {
        assert!(ways >= 1.0, "conflict degree must be >= 1");
        self.counters.smem_accesses += accesses as f64;
        self.counters.smem_conflict_accesses += accesses as f64 * (ways - 1.0);
    }

    /// Record shared-memory accesses at a power-of-two element stride
    /// between consecutive threads — the classic cyclic-reduction pattern.
    /// The conflict degree is `min(stride, bank count)`, additionally
    /// multiplied by the 64-bit serialisation factor for wide elements.
    pub fn smem_strided(&mut self, accesses: usize, stride: usize) {
        let banks = self.device.hidden().shared_banks as f64;
        let word_factor = (self.elem_bytes as f64 / 4.0).max(1.0);
        let ways = (stride as f64).min(banks).max(1.0) * word_factor;
        self.smem_conflict(accesses, ways);
    }

    /// Record `n` arithmetic thread-operations.
    pub fn ops(&mut self, n: usize) {
        self.counters.thread_ops += n as f64;
    }

    /// Record a block-wide barrier (`__syncthreads`). Under the sanitizer
    /// this also closes the racecheck *barrier interval*: accesses before
    /// the barrier happen-before accesses after it.
    pub fn sync(&mut self) {
        self.counters.barriers += 1.0;
        if let Some(cell) = self.shadow {
            cell.borrow_mut().barrier();
        }
    }

    /// The device this block runs on (queryable part is fair game for
    /// kernels, e.g. warp size).
    pub fn device(&self) -> &DeviceSpec {
        self.device
    }

    /// Snapshot of the accumulated counters.
    pub fn counters(&self) -> &CostCounters {
        &self.counters
    }

    pub(crate) fn into_counters(self) -> CostCounters {
        self.counters
    }
}

/// One scattered output buffer during one launch: a raw pointer every
/// block stores through. Who wrote what is logged per block, in each
/// [`ScatterWriter`]'s [`WriteLog`].
pub(crate) struct SharedOut<E> {
    ptr: *mut E,
    len: usize,
}

// SAFETY: every store through `ptr` is bounds-checked against `len`, and
// the buffer outlives the launch. Blocks of a correct kernel write
// disjoint elements, so concurrent stores never alias. A kernel whose
// blocks do write the same element is rejected after the grid has run:
// `Gpu::launch_tiles` checks the blocks' write logs and returns
// `SimError::WriteRace` before the buffer is read again. The verdict
// needs every block's writes, so racing stores have already landed,
// unsynchronised, by then (DESIGN §3.18).
unsafe impl<E: Send> Send for SharedOut<E> {}
unsafe impl<E: Send> Sync for SharedOut<E> {}

impl<E: Element> SharedOut<E> {
    pub(crate) fn new(buf: &mut [E]) -> Self {
        Self {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }

    #[inline]
    fn store(&self, idx: usize, v: E) {
        assert!(
            idx < self.len,
            "scattered write out of bounds: {idx} >= {}",
            self.len
        );
        // SAFETY: idx bounds-checked above; disjointness per the write-log
        // check that follows the grid.
        unsafe {
            *self.ptr.add(idx) = v;
        }
    }

    /// Store `vals[j]` at `start + j·stride`: one bounds check, one loop.
    #[inline]
    fn store_strided(&self, start: usize, stride: usize, vals: &[E]) {
        let Some(last) = vals.len().checked_sub(1) else {
            return;
        };
        let end = last
            .checked_mul(stride)
            .and_then(|o| o.checked_add(start))
            .filter(|&e| e < self.len);
        assert!(
            end.is_some(),
            "scattered write out of bounds: {start} + {last} x {stride} >= {}",
            self.len
        );
        for (j, &v) in vals.iter().enumerate() {
            // SAFETY: the last (largest) index was bounds-checked above;
            // disjointness per the write-log check that follows the grid.
            unsafe {
                *self.ptr.add(start + j * stride) = v;
            }
        }
    }
}

/// Write façade handed to a block for one scattered output buffer.
pub struct ScatterWriter<'a, E: Element> {
    pub(crate) out: &'a SharedOut<E>,
    /// Position of this buffer among the launch's scattered outputs, for
    /// hazard reports.
    pub(crate) slot: usize,
    pub(crate) shadow: Option<&'a RefCell<BlockShadow>>,
    /// This block's writes, checked against the other blocks' after the
    /// grid has run.
    pub(crate) log: WriteLog,
}

impl<E: Element> std::fmt::Debug for ScatterWriter<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScatterWriter")
            .field("slot", &self.slot)
            .field("len", &self.out.len)
            .finish_non_exhaustive()
    }
}

impl<E: Element> ScatterWriter<'_, E> {
    /// Write `v` at `idx`. Panics if out of bounds. If another block also
    /// writes this element, the launch fails with
    /// [`crate::SimError::WriteRace`] once the grid has run.
    #[inline]
    pub fn set(&self, idx: usize, v: E) {
        self.out.store(idx, v);
        self.log.record(idx);
    }

    /// Tracked write: like [`ScatterWriter::set`], but reports the logical
    /// thread `tid` and source site to the sanitizer. Under the sanitizer an
    /// out-of-bounds index is *recorded* and the write dropped (so the launch
    /// can keep collecting hazards) instead of panicking; same-block
    /// same-interval conflicts between different threads are racechecked.
    /// Without a sanitizer this is exactly `set`.
    #[inline]
    pub fn set_at(&self, idx: usize, v: E, tid: usize, site: &'static str) {
        if let Some(cell) = self.shadow {
            let mut s = cell.borrow_mut();
            if idx >= self.out.len {
                s.record_oob(
                    Region::ScatteredOut(self.slot),
                    idx,
                    self.out.len,
                    tid,
                    site,
                    true,
                );
                return;
            }
            s.record_access(Region::ScatteredOut(self.slot), idx, tid, site, true);
        }
        self.set(idx, v);
    }

    /// Bulk strided store: `vals[j]` goes to `start + j·stride`, written by
    /// logical thread `j` at source site `site`. Without a sanitizer it is
    /// one bounds check (panicking if the last index is out of bounds,
    /// before anything is stored), one store loop and one logged run.
    /// Under the sanitizer it is exactly the [`ScatterWriter::set_at`]
    /// loop.
    #[inline]
    pub fn set_strided(&self, start: usize, stride: usize, vals: &[E], site: &'static str) {
        if self.shadow.is_some() {
            for (j, &v) in vals.iter().enumerate() {
                self.set_at(start + j * stride, v, j, site);
            }
            return;
        }
        self.out.store_strided(start, stride, vals);
        self.log.record_run(start, stride, vals.len());
    }

    /// Length of the underlying buffer.
    pub fn len(&self) -> usize {
        self.out.len
    }

    /// True if the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.out.len == 0
    }
}

/// Store a tile's lane-interleaved rows into scattered output `out`.
///
/// `ios` are the blocks of one tile of [`crate::Gpu::launch_tiles`], and
/// block `g` is lane `g` of `vals`: its element `j` is `vals[j·lanes + g]`
/// (`lanes = ios.len()`), and its first `count(g)` elements go to
/// `start + g + j·stride`. Each block logs exactly the run `(start + g,
/// stride, count(g))` that [`ScatterWriter::set_strided`] would log for
/// its lane, so the race check sees the same writes. Rows that every lane
/// stores are written `lanes` contiguous elements at a time.
///
/// Panics, before anything is stored, if an index is out of bounds. With
/// one lane this is exactly `set_strided`, sanitizer tracking included;
/// under the sanitizer every tile has one lane.
pub fn store_tile<E: Element>(
    ios: &[BlockIo<'_, E>],
    out: usize,
    start: usize,
    stride: usize,
    count: impl Fn(usize) -> usize,
    vals: &[E],
    site: &'static str,
) {
    let lanes = ios.len();
    if lanes == 1 {
        ios[0].scattered[out].set_strided(start, stride, &vals[..count(0)], site);
        return;
    }
    let counts: Vec<usize> = (0..lanes).map(count).collect();
    let shared = ios[0].scattered[out].out;
    debug_assert!(ios.iter().all(|io| {
        let w = &io.scattered[out];
        std::ptr::eq(w.out, shared) && w.shadow.is_none()
    }));
    for (g, &count) in counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
        let end = (count - 1)
            .checked_mul(stride)
            .and_then(|o| o.checked_add(start))
            .and_then(|e| e.checked_add(g))
            .filter(|&e| e < shared.len);
        assert!(
            end.is_some(),
            "scattered write out of bounds: {start} + {g} + {} x {stride} >= {}",
            count - 1,
            shared.len
        );
    }
    let full = counts.iter().copied().min().unwrap_or(0);
    let longest = counts.iter().copied().max().unwrap_or(0);
    for (j, row) in vals.chunks_exact(lanes).take(longest).enumerate() {
        if j < full {
            shared.store_strided(start + j * stride, 1, row);
        } else {
            for (g, &v) in row.iter().enumerate().filter(|&(g, _)| j < counts[g]) {
                shared.store(start + g + j * stride, v);
            }
        }
    }
    for (g, (io, count)) in ios.iter().zip(counts).enumerate() {
        io.scattered[out].log.record_run(start + g, stride, count);
    }
}

/// Per-block sanitizer wiring carried by [`BlockIo`]: the shadow cell plus
/// views of the launch inputs' global-memory init masks.
pub(crate) struct ShadowHandle<'a> {
    pub(crate) cell: &'a RefCell<BlockShadow>,
    pub(crate) input_init: &'a [&'a InitMask],
}

/// Everything a block can touch: input views, its owned chunks, and the
/// scattered writers, in the order the corresponding buffers were passed to
/// [`crate::Gpu::launch`] or [`crate::Gpu::launch_tiles`].
pub struct BlockIo<'a, E: Element> {
    /// Read-only full views of the input buffers.
    pub inputs: Vec<&'a [E]>,
    /// This block's exclusive read-write chunk of each `Chunked` output.
    pub owned: Vec<&'a mut [E]>,
    /// Writers for each `Scattered` output.
    pub scattered: Vec<ScatterWriter<'a, E>>,
    pub(crate) shadow: Option<ShadowHandle<'a>>,
}

impl<E: Element> std::fmt::Debug for BlockIo<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockIo")
            .field("inputs", &self.inputs.len())
            .field("owned", &self.owned.len())
            .field("scattered", &self.scattered.len())
            .finish_non_exhaustive()
    }
}

impl<'a, E: Element> BlockIo<'a, E> {
    /// Tracked read of `inputs[input][idx]` by logical thread `tid` at
    /// source site `site`.
    ///
    /// Without a sanitizer this is a plain (panicking) index. Under the
    /// sanitizer, an out-of-bounds index is recorded as a memcheck hazard
    /// and `E::default()` is returned, and a read of an element no upload or
    /// prior kernel ever wrote is recorded as an initcheck hazard. Input
    /// buffers are immutable for the whole launch, so reads need no
    /// racecheck.
    #[inline]
    pub fn load(&self, input: usize, idx: usize, tid: usize, site: &'static str) -> E {
        let arr = self.inputs[input];
        if let Some(h) = &self.shadow {
            if idx >= arr.len() {
                h.cell.borrow_mut().record_oob(
                    Region::Input(input),
                    idx,
                    arr.len(),
                    tid,
                    site,
                    false,
                );
                return E::default();
            }
            if !h.input_init[input].get(idx) {
                h.cell
                    .borrow_mut()
                    .record_uninit(Region::Input(input), idx, tid, site);
            }
        }
        arr[idx]
    }

    /// Tracked write of `owned[out][idx] = v` (block-local index) by logical
    /// thread `tid` at source site `site`.
    ///
    /// Without a sanitizer this is a plain (panicking) index assignment.
    /// Under the sanitizer an out-of-bounds index is recorded and the write
    /// dropped; in-bounds writes are racechecked against same-interval
    /// accesses by other threads and feed the chunk's init shadow.
    #[inline]
    pub fn store(&mut self, out: usize, idx: usize, v: E, tid: usize, site: &'static str) {
        let chunk_len = self.owned[out].len();
        if let Some(h) = &self.shadow {
            let mut s = h.cell.borrow_mut();
            if idx >= chunk_len {
                s.record_oob(Region::ChunkedOut(out), idx, chunk_len, tid, site, true);
                return;
            }
            s.record_access(Region::ChunkedOut(out), idx, tid, site, true);
            s.mark_owned_write(out, idx, chunk_len);
        }
        self.owned[out][idx] = v;
    }
}

/// Aliases to keep `Gpu::launch`'s signature readable.
pub type BlockOut<'a, E> = BlockIo<'a, E>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn ctx(dev: &DeviceSpec) -> BlockCtx<'_> {
        BlockCtx::new(0, 128, dev, 4)
    }

    #[test]
    fn coalesced_traffic_is_payload() {
        let dev = DeviceSpec::gtx_470();
        let mut c = ctx(&dev);
        c.gmem_read(1024, 1);
        assert_eq!(c.counters().gmem_read_bytes, 4096.0);
        assert_eq!(c.counters().gmem_txn_bytes, 4096.0);
        assert_eq!(c.counters().coalescing_efficiency(), 1.0);
    }

    #[test]
    fn strided_traffic_inflates_up_to_transaction_floor() {
        let dev = DeviceSpec::gtx_470();
        // stride 2: 8 bytes moved per 4-byte element.
        let mut c = ctx(&dev);
        c.gmem_read(100, 2);
        assert_eq!(c.counters().gmem_txn_bytes, 800.0);
        // stride 64: capped at the 32-byte minimum transaction.
        let mut c = ctx(&dev);
        c.gmem_read(100, 64);
        assert_eq!(c.counters().gmem_txn_bytes, 3200.0);
        assert!((c.counters().coalescing_efficiency() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn writes_and_reads_accumulate_separately() {
        let dev = DeviceSpec::gtx_280();
        let mut c = ctx(&dev);
        c.gmem_read(10, 1);
        c.gmem_write(20, 1);
        assert_eq!(c.counters().gmem_read_bytes, 40.0);
        assert_eq!(c.counters().gmem_write_bytes, 80.0);
        assert_eq!(c.counters().gmem_payload_bytes(), 120.0);
    }

    #[test]
    fn smem_conflicts_add_serialised_accesses() {
        let dev = DeviceSpec::geforce_8800_gtx();
        let mut c = ctx(&dev);
        c.smem(100);
        c.smem_conflict(100, 2.0);
        assert_eq!(c.counters().smem_accesses, 200.0);
        assert_eq!(c.counters().smem_conflict_accesses, 100.0);
    }

    #[test]
    fn ops_and_sync_meter() {
        let dev = DeviceSpec::gtx_470();
        let mut c = ctx(&dev);
        c.ops(500);
        c.sync();
        c.sync();
        assert_eq!(c.counters().thread_ops, 500.0);
        assert_eq!(c.counters().barriers, 2.0);
    }

    #[test]
    fn scattered_writes_fold_into_a_block_log() {
        let mut buf = vec![0.0f32; 8];
        let out = SharedOut::new(&mut buf);
        let writer = ScatterWriter {
            out: &out,
            slot: 0,
            shadow: None,
            log: WriteLog::default(),
        };
        writer.set(3, 1.0);
        writer.set(3, 2.0); // same block rewriting: one element
        writer.set_strided(5, 2, &[3.0, 4.0], "test"); // continues 3, 5, 7
        assert_eq!(writer.log.into_runs().len(), 1);
        assert_eq!(buf, [0.0, 0.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn scattered_out_bounds_checked() {
        let mut buf = vec![0.0f32; 4];
        let out = SharedOut::new(&mut buf);
        out.store(4, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn strided_store_bounds_checked_before_any_store() {
        let mut buf = vec![0.0f32; 8];
        let out = SharedOut::new(&mut buf);
        out.store_strided(1, 3, &[1.0, 2.0, 3.0]); // last index 7 is fine
        out.store_strided(2, 3, &[1.0, 2.0, 3.0]); // last index 8 is not
    }

    #[test]
    fn staged_reads_discount_redundant_traffic() {
        let dev = DeviceSpec::gtx_470(); // read_reuse_fraction 0.85
        let mut c = ctx(&dev);
        // 12 accesses per eq, 4 unique: payload counts unique only; the
        // redundant 8 are 85% captured.
        c.gmem_read_staged(1200, 400, 1);
        assert_eq!(c.counters().gmem_read_bytes, 400.0 * 4.0);
        let expect_moved = (400.0 + 800.0 * 0.15) * 4.0;
        assert!((c.counters().gmem_txn_bytes - expect_moved).abs() < 1e-9);

        // A plain read of the same unique payload moves less than the
        // staged read (which pays for cache misses) but more than nothing.
        let mut plain = ctx(&dev);
        plain.gmem_read(400, 1);
        assert!(plain.counters().gmem_txn_bytes < c.counters().gmem_txn_bytes);
    }

    #[test]
    fn staged_reads_issue_one_slot_per_element_when_scattered() {
        let dev = DeviceSpec::gtx_470();
        let mut strided = ctx(&dev);
        strided.gmem_read_staged(320, 320, 64);
        let mut coalesced = ctx(&dev);
        coalesced.gmem_read_staged(320, 320, 1);
        // Fully scattered: one 32-byte transaction per element (f32), i.e.
        // 32 slots per warp vs 1 when coalesced.
        assert!(strided.counters().gmem_warp_txns >= 30.0 * coalesced.counters().gmem_warp_txns);
    }

    #[test]
    fn serial_phase_penalises_few_warps() {
        let dev = DeviceSpec::gtx_470(); // pipeline depth 8 warps
        let mut narrow = ctx(&dev);
        narrow.serial_phase(16, 8, 32); // 1 warp active
        let mut wide = ctx(&dev);
        wide.serial_phase(4, 8, 256); // same total issue work, 8 warps
        assert!(
            narrow.counters().thread_ops > 2.0 * wide.counters().thread_ops,
            "narrow {} vs wide {}",
            narrow.counters().thread_ops,
            wide.counters().thread_ops
        );
    }

    #[test]
    fn serial_phase_zero_cases() {
        let dev = DeviceSpec::gtx_280();
        let mut c = ctx(&dev);
        c.serial_phase(0, 8, 64);
        c.serial_phase(8, 8, 0);
        assert_eq!(c.counters().thread_ops, 0.0);
    }

    #[test]
    fn overfetch_scales_moved_not_payload() {
        let dev = DeviceSpec::gtx_470();
        let mut c = ctx(&dev);
        c.gmem_read_overfetch(100, 8.0);
        assert_eq!(c.counters().gmem_read_bytes, 400.0);
        assert_eq!(c.counters().gmem_txn_bytes, 3200.0);
    }

    #[test]
    fn launch_config_builders() {
        let cfg = LaunchConfig::new("k", 10, 256)
            .with_shared_mem(4096)
            .with_regs(24);
        assert_eq!(cfg.grid_blocks, 10);
        assert_eq!(cfg.block_threads, 256);
        assert_eq!(cfg.shared_mem_bytes, 4096);
        assert_eq!(cfg.regs_per_thread, 24);
    }
}
