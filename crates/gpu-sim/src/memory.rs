//! Simulated device: global memory management, kernel launching, and the
//! simulated clock/profile.

use crate::cost::{CostCounters, KernelStats};
use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::fault::{FaultInjector, FaultLog, FaultPlan, FaultRecord};
use crate::launch::{
    BlockCtx, BlockIo, LaunchConfig, OutMode, ScatterWriter, ShadowHandle, SharedOut, TileScratch,
};
use crate::sanitizer::{BlockShadow, Hazard, InitMask, SanitizerReport};
use crate::stream::{
    transfer_time_s, EngineKind, Event, OpInterval, Stream, StreamEngines, MAX_STREAMS,
};
use crate::timing;
use crate::writelog::{self, Run, WriteLog};
use crate::Element;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;
use trisolve_obs::{arg, Tracer};

/// Handle to a buffer in simulated global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(usize);

impl BufferId {
    /// Raw slot index (diagnostics only).
    pub fn raw(&self) -> usize {
        self.0
    }
}

/// Deferred-free list shared between a [`Gpu`] and its [`DeviceBuffer`]
/// guards. Guards cannot hold a mutable borrow of the device (the caller
/// needs it to launch kernels), so dropping a guard *enqueues* the free; the
/// device reclaims queued ids at its next mutating operation, and
/// [`Gpu::allocated_bytes`] already discounts queued-but-unreclaimed
/// buffers so accounting is exact at every instant.
type FreeQueue = Arc<Mutex<Vec<BufferId>>>;

/// RAII guard for a device allocation: dropping it frees the buffer.
///
/// Obtained from [`Gpu::alloc_guarded`] / [`Gpu::alloc_from_guarded`]. The
/// guard owns the allocation; the underlying [`BufferId`] (via
/// [`DeviceBuffer::id`]) is what kernel launches consume. Because the free
/// happens in `Drop`, buffers are released on *every* exit path — early
/// returns on kernel errors included — with no manual `gpu.free()` loops.
///
/// ```
/// use trisolve_gpu_sim::{DeviceSpec, Gpu};
///
/// let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
/// {
///     let buf = gpu.alloc_from_guarded(&[1.0, 2.0])?;
///     assert_eq!(gpu.view(buf.id())?, &[1.0, 2.0]);
/// } // guard dropped here
/// assert_eq!(gpu.allocated_bytes(), 0);
/// # Ok::<(), trisolve_gpu_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct DeviceBuffer {
    id: BufferId,
    queue: FreeQueue,
}

impl DeviceBuffer {
    /// The buffer handle, for uploads, launches and downloads.
    pub fn id(&self) -> BufferId {
        self.id
    }
}

impl Drop for DeviceBuffer {
    fn drop(&mut self) {
        self.queue.lock().push(self.id);
    }
}

/// A simulated GPU: a device specification, global-memory buffers of element
/// type `E`, and a simulated clock advanced by every launch.
///
/// ```
/// use trisolve_gpu_sim::{DeviceSpec, Gpu, LaunchConfig, OutMode};
///
/// let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
/// let src = gpu.alloc_from(&[1.0, 2.0, 3.0, 4.0])?;
/// let dst = gpu.alloc(4)?;
///
/// // A 2-block kernel that doubles its chunk, metering as it goes.
/// let cfg = LaunchConfig::new("double", 2, 32);
/// gpu.launch(&cfg, &[src], &[(dst, OutMode::Chunked { chunk: 2 })], |ctx, io| {
///     let b = ctx.block_id as usize;
///     for i in 0..2 {
///         io.owned[0][i] = io.inputs[0][b * 2 + i] * 2.0;
///     }
///     ctx.gmem_read(2, 1);
///     ctx.gmem_write(2, 1);
///     ctx.ops(2);
/// })?;
///
/// assert_eq!(gpu.download(dst)?, vec![2.0, 4.0, 6.0, 8.0]);
/// assert!(gpu.elapsed_s() > 0.0); // the simulated clock advanced
/// # Ok::<(), trisolve_gpu_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Gpu<E: Element> {
    spec: DeviceSpec,
    buffers: Vec<Option<Storage<E>>>,
    allocated_bytes: usize,
    /// Storage of freed buffers, oldest freed first, for [`Gpu::alloc`] to
    /// reuse. With the live buffers it stays within the device's global
    /// memory (`Gpu::trim_kept`).
    kept: VecDeque<Storage<E>>,
    timeline: Vec<KernelStats>,
    elapsed_s: f64,
    free_queue: FreeQueue,
    sanitizer: Option<SanitizerState>,
    tracer: Tracer,
    faults: Option<FaultInjector>,
    /// Stream/event engine state: no created streams until
    /// [`Gpu::enable_streams`].
    streams: StreamEngines,
    /// Stream the next `launch`/`price`/`upload`/`download` is issued on:
    /// [`Stream::DEFAULT`] unless [`Gpu::set_stream`] picked another.
    stream: Stream,
    /// One [`TileScratch`] per tile group of a launch, kept from launch to
    /// launch (see [`TILE_GROUPS`]).
    scratch: Vec<TileScratch<E>>,
}

/// The elements behind a buffer, live or kept after its free.
#[derive(Debug)]
struct Storage<E> {
    data: Vec<E>,
    /// Whether anything was written into `data` since it was last zero:
    /// storage that was never written is reused without a fill.
    written: bool,
}

/// How many groups of adjacent tiles a launch runs in parallel, each on
/// one of the device's [`TileScratch`]es. A constant, not the host's CPU
/// count, so what a launch allocates does not depend on the host; the
/// vendored pool spreads the groups over its threads.
const TILE_GROUPS: usize = 16;

/// Size from which a host↔device copy runs in two halves, one per CPU
/// ([`copy_split`]): 1 MiB. A split pays one pool wake-up, about 15 µs on
/// a 2-vCPU Intel Xeon, so it only gains on copies that take about twice
/// that. Split against serial warm copies there, median of 7 rounds:
/// 512 KiB 23 against 15 µs, 1 MiB 31 against 46 µs, 2 MiB 71 against
/// 175 µs.
const SPLIT_COPY_BYTES: usize = 1 << 20;

/// `dst.copy_from_slice(src)`: in two halves, the second on a pool worker
/// ([`rayon::join`]), from [`SPLIT_COPY_BYTES`] on, else on the calling
/// thread. Either way every element is copied once, so what lands and
/// what a fault hook or the sanitizer does after the copy is the same.
fn copy_split<E: Element>(dst: &mut [E], src: &[E]) {
    if src.len() * E::BYTES < SPLIT_COPY_BYTES {
        dst.copy_from_slice(src);
        return;
    }
    let half = src.len() / 2;
    let ((d0, d1), (s0, s1)) = (dst.split_at_mut(half), src.split_at(half));
    rayon::join(|| d0.copy_from_slice(s0), || d1.copy_from_slice(s1));
}

/// Device-side sanitizer state: a global-memory init shadow per buffer slot
/// (parallel to `Gpu::buffers`; slots are never reused) plus the accumulated
/// hazard report.
#[derive(Debug)]
struct SanitizerState {
    init: Vec<InitMask>,
    report: SanitizerReport,
}

/// What one sanitized launch learned, to be folded into [`SanitizerState`]
/// after the output buffers are restored.
struct LaunchAudit {
    hazards: Vec<Hazard>,
    dropped: usize,
    /// `(buffer slot, written-mask)` per output: which elements this launch
    /// initialised.
    output_inits: Vec<(usize, InitMask)>,
}

impl<E: Element> Gpu<E> {
    /// Create a device.
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            spec,
            buffers: Vec::new(),
            allocated_bytes: 0,
            kept: VecDeque::new(),
            timeline: Vec::new(),
            elapsed_s: 0.0,
            free_queue: Arc::new(Mutex::new(Vec::new())),
            sanitizer: None,
            tracer: Tracer::disabled(),
            faults: None,
            streams: StreamEngines::default(),
            stream: Stream::DEFAULT,
            scratch: Vec::new(),
        }
    }

    /// Attach a tracer: every launch, H2D/D2H transfer and sanitizer
    /// hazard from now on emits into it (see [`trisolve_obs`]). The
    /// default tracer is disabled; tracing never feeds the cost model, so
    /// results and simulated timings are bit-identical either way.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached tracer handle (disabled unless [`Gpu::set_tracer`] was
    /// called). Clone it to emit correlated events from host-side layers.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Create a device with the dynamic sanitizer enabled (see
    /// [`crate::sanitizer`]): every launch shadow-tracks the accesses made
    /// through the tracked `BlockIo`/`ScatterWriter`/`BlockCtx` APIs and
    /// records memcheck / initcheck / racecheck hazards. Hazards are
    /// reported, not fatal; read them via [`Gpu::sanitizer_report`].
    ///
    /// The shadow state is disjoint from the cost meters, so simulated
    /// timings are bit-identical with the sanitizer on or off.
    pub fn with_sanitizer(spec: DeviceSpec) -> Self {
        let mut gpu = Self::new(spec);
        gpu.enable_sanitizer();
        gpu
    }

    /// Enable the sanitizer on an existing device. Buffers that already
    /// exist are conservatively treated as fully initialised (their history
    /// was not tracked). The scattered outputs' written masks come from the
    /// same per-block write logs the always-on race check reads.
    pub fn enable_sanitizer(&mut self) {
        if self.sanitizer.is_some() {
            return;
        }
        let init = self
            .buffers
            .iter()
            .map(|b| InitMask::new_init(b.as_ref().map_or(0, |b| b.data.len())))
            .collect();
        self.sanitizer = Some(SanitizerState {
            init,
            report: SanitizerReport::default(),
        });
    }

    /// True when the dynamic sanitizer is active.
    pub fn sanitizing(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// The accumulated sanitizer findings, if the sanitizer is enabled.
    pub fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        self.sanitizer.as_ref().map(|s| &s.report)
    }

    /// Take the accumulated findings, resetting the report (the init shadows
    /// survive). `None` when the sanitizer is off.
    pub fn take_sanitizer_report(&mut self) -> Option<SanitizerReport> {
        self.sanitizer
            .as_mut()
            .map(|s| std::mem::take(&mut s.report))
    }

    /// Create a device with a fault-injection campaign attached (see
    /// [`crate::fault`]). A disabled plan attaches nothing.
    pub fn with_faults(spec: DeviceSpec, plan: FaultPlan) -> Self {
        let mut gpu = Self::new(spec);
        gpu.enable_faults(plan);
        gpu
    }

    /// Attach a fault-injection campaign to an existing device, replacing
    /// any previous one. With [`FaultPlan::disabled`] (or any plan whose
    /// rates are all zero) **no injector is attached at all**: every
    /// operation takes the exact pre-fault-layer code path, so results and
    /// simulated timings are bit-identical to a build without the fault
    /// layer (the same strict no-op contract as the sanitizer and tracer).
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        self.faults = plan.is_enabled().then(|| FaultInjector::new(plan));
    }

    /// True when a fault-injection campaign is active.
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// The injection history, if a campaign is active.
    pub fn fault_log(&self) -> Option<&FaultLog> {
        self.faults.as_ref().map(FaultInjector::log)
    }

    /// Total faults injected so far (0 when no campaign is active).
    ///
    /// Service fronts sample this before and after each solve window and
    /// feed the delta to their per-device circuit breaker, so a
    /// fault-heavy window is observable without draining the log.
    pub fn faults_injected(&self) -> usize {
        self.fault_log().map_or(0, FaultLog::injected)
    }

    /// Take the injection history, resetting it (the campaign, its PRNG
    /// stream and its fault budget stay in place). `None` when no campaign
    /// is active.
    pub fn take_fault_log(&mut self) -> Option<FaultLog> {
        self.faults.as_mut().map(FaultInjector::take_log)
    }

    /// Advance the simulated clock without launching anything — how the
    /// resilience layer charges retry backoff to simulated time. Negative
    /// amounts are ignored (the clock is monotonic).
    pub fn advance_clock(&mut self, seconds: f64) {
        if seconds > 0.0 {
            self.elapsed_s += seconds;
        }
    }

    /// Create `n` streams (clamped to `1..=`[`MAX_STREAMS`]) besides the
    /// default one, returning their handles. Replaces any previous created
    /// streams and events, and makes the default stream current. When the
    /// sanitizer is active, the cross-stream vector-clock tracker is
    /// attached too, so unordered cross-stream buffer conflicts surface as
    /// [`crate::HazardKind::CrossStreamRace`] in the sanitizer report.
    ///
    /// Creating streams changes nothing by itself: operations stay on the
    /// default stream until [`Gpu::set_stream`] routes them elsewhere.
    pub fn enable_streams(&mut self, n: usize) -> Vec<Stream> {
        let n = n.clamp(1, MAX_STREAMS);
        self.streams = StreamEngines::new(n, self.sanitizer.is_some());
        self.stream = Stream::DEFAULT;
        (0..n).map(Stream).collect()
    }

    /// Issue subsequent [`Gpu::launch`]/[`Gpu::price`]/[`Gpu::upload`]/
    /// [`Gpu::download`] calls on `stream`: a created stream (asynchronous
    /// engine accounting) or [`Stream::DEFAULT`] (synchronous with the
    /// host; see [`crate::stream`]).
    ///
    /// # Panics
    /// With a handle this device did not create (a handle from another
    /// device, or from before the last [`Gpu::enable_streams`]).
    pub fn set_stream(&mut self, stream: Stream) {
        assert!(
            stream == Stream::DEFAULT || stream.index() < self.streams.num_streams(),
            "set_stream: stream {} not enabled",
            stream.index()
        );
        self.stream = stream;
    }

    /// Create an (unrecorded) event.
    pub fn create_event(&mut self) -> Event {
        Event(self.streams.create_event())
    }

    /// Record `event` at `stream`'s current position: waiters become
    /// ordered after all work enqueued on `stream` so far.
    pub fn record_event(&mut self, stream: Stream, event: Event) {
        self.streams.record_event(stream.index(), event.index());
    }

    /// Make `stream` wait for `event` before running anything enqueued
    /// after this call. A wait on a never-recorded event completes
    /// immediately (CUDA semantics) — the static schedule certifier is
    /// what refutes dangling waits before execution.
    pub fn wait_event(&mut self, stream: Stream, event: Event) {
        self.streams.wait_event(stream.index(), event.index());
    }

    /// Join the host clock with every stream: the simulated clock advances
    /// to the completion time of the last asynchronous operation (like
    /// `cudaDeviceSynchronize`). No-op when the created streams are idle.
    pub fn sync_streams(&mut self) {
        let ready = self.streams.max_ready();
        if ready > self.elapsed_s {
            self.elapsed_s = ready;
        }
    }

    /// Busy intervals of every operation issued on a created stream since
    /// [`Gpu::enable_streams`] (or since [`Gpu::reset_clock`]), in issue
    /// order — the raw material for overlap accounting (see
    /// [`crate::stream::overlap_ratio`]). The default stream adds none.
    pub fn stream_op_intervals(&self) -> &[OpInterval] {
        self.streams.intervals()
    }

    /// Emit a fault instant into the trace (no-op when no tracer attached).
    fn trace_fault(&self, rec: &FaultRecord) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.instant(
            "resilience",
            "fault",
            self.elapsed_s * 1e6,
            vec![
                arg("kind", rec.kind.to_string()),
                arg("site", rec.site.clone()),
                arg("detail", rec.detail.clone()),
            ],
        );
        self.tracer.counter_add("faults_injected", 1);
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Bytes currently allocated in global memory.
    ///
    /// Buffers whose [`DeviceBuffer`] guard has dropped but that have not
    /// yet been reclaimed do not count: logically they are already free.
    /// Nor does the storage the device keeps from freed buffers.
    pub fn allocated_bytes(&self) -> usize {
        let pending: usize = self
            .free_queue
            .lock()
            .iter()
            .filter_map(|id| self.buffers.get(id.0).and_then(|b| b.as_ref()))
            .map(|b| b.data.len() * E::BYTES)
            .sum();
        self.allocated_bytes - pending
    }

    /// Release every buffer whose guard has dropped since the last mutating
    /// operation. Called automatically by [`Gpu::alloc`], [`Gpu::upload`],
    /// [`Gpu::launch`] and [`Gpu::free`]; callers never need to.
    fn reclaim(&mut self) {
        let pending = std::mem::take(&mut *self.free_queue.lock());
        for id in pending {
            // A guard can only be built from a live allocation, but tolerate
            // a manual `free` racing the guard's drop.
            let _ = self.free_now(id);
        }
    }

    /// Allocate a zero-initialised buffer of `len` elements.
    ///
    /// The capacity check, the fault draw, the accounting, the new slot
    /// (slots and ids are never reused) and the sanitizer's uninitialised
    /// mark do not depend on what the device keeps from freed buffers.
    /// Only then does the buffer take its storage: the best fit among the
    /// kept storage (the smallest that holds `len` elements, the earliest
    /// freed on a tie), zero-filled only if anything was ever written into
    /// it; fresh storage when none fits.
    pub fn alloc(&mut self, len: usize) -> Result<BufferId, SimError> {
        self.reclaim();
        let available = self.spec.queryable().global_mem_bytes - self.allocated_bytes;
        let bytes = match len.checked_mul(E::BYTES) {
            Some(bytes) if bytes <= available => bytes,
            bytes => {
                return Err(SimError::OutOfGlobalMemory {
                    requested: bytes.unwrap_or(usize::MAX),
                    available,
                })
            }
        };
        let fault = self.faults.as_mut().and_then(|f| f.next_alloc_fault(bytes));
        if let Some(rec) = fault {
            self.trace_fault(&rec);
            return Err(SimError::OutOfGlobalMemory {
                requested: bytes,
                available,
            });
        }
        self.allocated_bytes += bytes;
        let id = BufferId(self.buffers.len());
        if let Some(st) = &mut self.sanitizer {
            // Although the functional simulator zero-fills, a fresh
            // allocation is *uninitialised* for initcheck purposes — exactly
            // `cudaMalloc` semantics.
            st.init.push(InitMask::new_uninit(len));
        }
        let storage = self.take_storage(len);
        self.buffers.push(Some(storage));
        self.trim_kept();
        Ok(id)
    }

    /// Storage for `len` zero elements: the best fit among the kept
    /// storage, or fresh storage when none holds `len` elements.
    fn take_storage(&mut self, len: usize) -> Storage<E> {
        // `min_by_key` keeps the first of equal minima: the earliest freed.
        let best = self
            .kept
            .iter()
            .enumerate()
            .filter(|(_, s)| s.data.capacity() >= len)
            .min_by_key(|(_, s)| s.data.capacity())
            .map(|(i, _)| i);
        let Some(mut s) = best.and_then(|i| self.kept.remove(i)) else {
            return Storage {
                data: vec![E::default(); len],
                written: false,
            };
        };
        if s.written {
            s.data.clear();
            s.written = false;
        }
        // Truncates, or zero-fills the elements past the kept length.
        s.data.resize(len, E::default());
        s
    }

    /// Bytes of storage the device keeps from freed buffers.
    fn kept_bytes(&self) -> usize {
        self.kept.iter().map(|s| s.data.capacity() * E::BYTES).sum()
    }

    /// Drop the storage kept longest until the live buffers and the kept
    /// storage together fit in the device's global memory.
    fn trim_kept(&mut self) {
        let cap = self.spec.queryable().global_mem_bytes;
        let mut kept = self.kept_bytes();
        while self.allocated_bytes + kept > cap {
            let Some(s) = self.kept.pop_front() else {
                break;
            };
            kept -= s.data.capacity() * E::BYTES;
        }
    }

    /// Allocate a buffer initialised from host data (an H2D copy).
    pub fn alloc_from(&mut self, data: &[E]) -> Result<BufferId, SimError> {
        let id = self.alloc(data.len())?;
        self.buffer_mut(id)?.copy_from_slice(data);
        if let Some(st) = &mut self.sanitizer {
            st.init[id.0].set_all();
        }
        self.corrupt_h2d(id, data.len());
        self.transfer("h2d", id, data.len());
        Ok(id)
    }

    /// Fault hook for H2D copies: maybe flip one bit of one element that
    /// just landed in device buffer `id`.
    fn corrupt_h2d(&mut self, id: BufferId, len: usize) {
        let fault = self
            .faults
            .as_mut()
            .and_then(|f| f.next_transfer_fault("h2d", len, 8 * E::BYTES as u32));
        if let Some((index, bit, rec)) = fault {
            if let Ok(buf) = self.buffer_mut(id) {
                buf[index] = buf[index].flip_bit(bit);
            }
            self.trace_fault(&rec);
        }
    }

    /// Allocate a zero-initialised buffer owned by an RAII guard.
    pub fn alloc_guarded(&mut self, len: usize) -> Result<DeviceBuffer, SimError> {
        let id = self.alloc(len)?;
        Ok(DeviceBuffer {
            id,
            queue: Arc::clone(&self.free_queue),
        })
    }

    /// Allocate a guard-owned buffer initialised from host data.
    pub fn alloc_from_guarded(&mut self, data: &[E]) -> Result<DeviceBuffer, SimError> {
        let id = self.alloc_from(data)?;
        Ok(DeviceBuffer {
            id,
            queue: Arc::clone(&self.free_queue),
        })
    }

    /// Overwrite a buffer's contents from host data (lengths must match).
    pub fn upload(&mut self, id: BufferId, data: &[E]) -> Result<(), SimError> {
        self.reclaim();
        let buf = self.buffer_mut(id)?;
        if buf.len() != data.len() {
            return Err(SimError::InvalidBuffer { id: id.0 });
        }
        copy_split(buf, data);
        if let Some(st) = &mut self.sanitizer {
            st.init[id.0].set_all();
        }
        self.corrupt_h2d(id, data.len());
        self.transfer("h2d", id, data.len());
        Ok(())
    }

    /// Copy a buffer back to the host.
    ///
    /// Takes `&mut self` so the fault layer can corrupt the host copy (the
    /// device buffer itself is untouched by a D2H fault) — with no
    /// campaign attached the call is read-only in effect.
    pub fn download(&mut self, id: BufferId) -> Result<Vec<E>, SimError> {
        let len = self.view(id)?.len();
        self.download_rows(id, len.max(1), len)
    }

    /// Copy a buffer back to the host, keeping the first `keep` elements
    /// of every `row`-element row: the rows of a padded batch without
    /// their padding, copied once. The transfer is the whole buffer, as
    /// for [`Gpu::download`]: a D2H fault draws its element from the whole
    /// buffer, is recorded and traced the same way, and flips the host's
    /// copy of that element only if the host keeps it. With `keep == row`
    /// this is [`Gpu::download`]. Panics unless `0 < row` and
    /// `keep <= row`.
    pub fn download_rows(
        &mut self,
        id: BufferId,
        row: usize,
        keep: usize,
    ) -> Result<Vec<E>, SimError> {
        assert!(
            0 < row && keep <= row,
            "download keeps {keep} of {row} elements per row"
        );
        let buf = self.view(id)?;
        let len = buf.len();
        let mut out = if keep == row {
            let mut out = vec![E::default(); len];
            copy_split(&mut out, buf);
            out
        } else {
            let mut out = Vec::with_capacity(len / row * keep + (len % row).min(keep));
            for r in buf.chunks(row) {
                out.extend_from_slice(&r[..keep.min(r.len())]);
            }
            out
        };
        let fault = self
            .faults
            .as_mut()
            .and_then(|f| f.next_transfer_fault("d2h", len, 8 * E::BYTES as u32));
        if let Some((index, bit, rec)) = fault {
            let (r, col) = (index / row, index % row);
            if col < keep {
                let kept = &mut out[r * keep + col];
                *kept = kept.flip_bit(bit);
            }
            self.trace_fault(&rec);
        }
        self.transfer("d2h", id, len);
        Ok(out)
    }

    /// Book one host↔device transfer on the current stream: charge its
    /// copy time (none on the default stream, where a transfer is untimed
    /// host staging), trace it, and feed it to the cross-stream tracker.
    /// An untimed transfer is a trace instant, a timed one a span on its
    /// stream's lane; both add to the direction's byte counter.
    fn transfer(&mut self, direction: &'static str, id: BufferId, elems: usize) {
        let bytes = elems * E::BYTES;
        let (start_s, end_s) = self.issue(EngineKind::Copy, transfer_time_s(bytes));
        if self.tracer.is_enabled() {
            let (cat, args) = (
                self.stream.category(),
                vec![
                    arg("buffer", id.0),
                    arg("elems", elems),
                    arg("bytes", bytes),
                ],
            );
            if end_s > start_s {
                let dur_us = (end_s - start_s) * 1e6;
                self.tracer
                    .span(cat, direction, start_s * 1e6, dur_us, args);
            } else {
                self.tracer.instant(cat, direction, start_s * 1e6, args);
            }
            let counter = if direction == "h2d" {
                "h2d_bytes"
            } else {
                "d2h_bytes"
            };
            self.tracer.counter_add(counter, bytes as u64);
        }
        let label = format_args!("{direction}[buf{}]", id.0);
        if direction == "h2d" {
            self.track(direction, label, &[], &[(id, OutMode::Scattered)]);
        } else {
            self.track(direction, label, &[id], &[]);
        }
    }

    /// Borrow a buffer's contents.
    pub fn view(&self, id: BufferId) -> Result<&[E], SimError> {
        self.buffers
            .get(id.0)
            .and_then(|b| b.as_ref())
            .map(|b| b.data.as_slice())
            .ok_or(SimError::InvalidBuffer { id: id.0 })
    }

    /// Borrow a buffer's contents to write them, marking its storage
    /// written.
    fn buffer_mut(&mut self, id: BufferId) -> Result<&mut Vec<E>, SimError> {
        let storage = self
            .buffers
            .get_mut(id.0)
            .and_then(|b| b.as_mut())
            .ok_or(SimError::InvalidBuffer { id: id.0 })?;
        storage.written = true;
        Ok(&mut storage.data)
    }

    /// Free a buffer. Its slot and id are never reused; the device keeps
    /// its storage for a later [`Gpu::alloc`], within global memory.
    pub fn free(&mut self, id: BufferId) -> Result<(), SimError> {
        self.reclaim();
        self.free_now(id)
    }

    fn free_now(&mut self, id: BufferId) -> Result<(), SimError> {
        let slot = self
            .buffers
            .get_mut(id.0)
            .ok_or(SimError::InvalidBuffer { id: id.0 })?;
        match slot.take() {
            Some(storage) => {
                self.allocated_bytes -= storage.data.len() * E::BYTES;
                self.kept.push_back(storage);
                self.trim_kept();
                Ok(())
            }
            None => Err(SimError::InvalidBuffer { id: id.0 }),
        }
    }

    /// Simulated time elapsed on this device, in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Reset the simulated clock and the launch profile (buffers survive).
    /// Stream engine state resets too — per-stream ready times, engine
    /// free times, the interval log, and recorded event times (events
    /// revert to unrecorded; the cross-stream tracker's ordering knowledge
    /// is clock-independent and survives).
    pub fn reset_clock(&mut self) {
        self.elapsed_s = 0.0;
        self.timeline.clear();
        self.streams.reset();
    }

    /// The per-launch profile since the last [`Gpu::reset_clock`].
    pub fn timeline(&self) -> &[KernelStats] {
        &self.timeline
    }

    /// Launch a kernel.
    ///
    /// * `inputs` are read-only: every block sees the full buffers.
    /// * `outputs` are write targets partitioned per [`OutMode`]; an output
    ///   buffer may not simultaneously be an input (double-buffer instead —
    ///   the same discipline a real grid-wide kernel needs).
    /// * `kernel` runs once per block (in parallel) with a [`BlockCtx`] for
    ///   cost metering and a [`BlockIo`] for data access.
    ///
    /// On success the simulated clock advances by the modelled execution
    /// time plus launch overhead, and the launch is appended to the profile.
    pub fn launch<F>(
        &mut self,
        cfg: &LaunchConfig,
        inputs: &[BufferId],
        outputs: &[(BufferId, OutMode)],
        kernel: F,
    ) -> Result<KernelStats, SimError>
    where
        F: Fn(&mut BlockCtx, &mut BlockIo<'_, E>) + Sync,
    {
        self.launch_tiles(cfg, 1, inputs, outputs, |_, ctxs, ios| {
            kernel(&mut ctxs[0], &mut ios[0]);
        })
    }

    /// Launch a kernel whose blocks are handed to it in *tiles* of `tile`
    /// adjacent blocks: `kernel` runs once per tile with one [`BlockCtx`]
    /// and one [`BlockIo`] per block, in block order (the last tile may be
    /// shorter), plus a [`TileScratch`] for its working arrays. The tiles
    /// run in a fixed number of groups of adjacent tiles, each group in
    /// order on one scratch that the device keeps across launches. The
    /// simulated launch is the same as [`Gpu::launch`]'s: every block
    /// keeps its own meters, owned chunks and scattered-write log, so the
    /// [`KernelStats`], the race check and its report do not depend on the
    /// tile width. A tile lets the host run its blocks'
    /// numerics together, e.g. adjacent strided chains as SIMD lanes
    /// ([`crate::launch::store_tile`] stores them).
    ///
    /// Under the sanitizer every tile is one block, so tracked accesses
    /// replay exactly as with [`Gpu::launch`].
    pub fn launch_tiles<F>(
        &mut self,
        cfg: &LaunchConfig,
        tile: usize,
        inputs: &[BufferId],
        outputs: &[(BufferId, OutMode)],
        kernel: F,
    ) -> Result<KernelStats, SimError>
    where
        F: Fn(&mut TileScratch<E>, &mut [BlockCtx], &mut [BlockIo<'_, E>]) + Sync,
    {
        self.reclaim();

        // Validate the launch shape before touching any buffer.
        timing::residency(&self.spec, cfg)?;

        // No id may appear as both input and output, or twice as an output.
        for (oid, _) in outputs {
            if inputs.contains(oid) {
                return Err(SimError::InvalidLaunch {
                    detail: format!(
                        "buffer {} is both input and output; double-buffer instead",
                        oid.0
                    ),
                });
            }
            if outputs.iter().filter(|(o, _)| o == oid).count() > 1 {
                return Err(SimError::InvalidLaunch {
                    detail: format!("buffer {} appears twice as an output", oid.0),
                });
            }
        }

        // Fault hook: a transient launch failure or watchdog timeout aborts
        // here — the kernel never runs, buffers are untouched and the
        // simulated clock does not advance (same contract as the error
        // paths above).
        let launch_fault = self
            .faults
            .as_mut()
            .and_then(|f| f.next_launch_fault(&cfg.label));
        if let Some((err, rec)) = launch_fault {
            self.trace_fault(&rec);
            return Err(err);
        }

        // Take output buffers out of the pool so inputs can be borrowed
        // immutably at the same time.
        let mut taken: Vec<(BufferId, OutMode, Vec<E>)> = Vec::with_capacity(outputs.len());
        for (oid, mode) in outputs {
            let slot = self
                .buffers
                .get_mut(oid.0)
                .ok_or(SimError::InvalidBuffer { id: oid.0 })?;
            let storage = slot.take().ok_or(SimError::InvalidBuffer { id: oid.0 })?;
            taken.push((*oid, *mode, storage.data));
        }
        // Restore-on-exit guard pattern: from here on, every path must put
        // the buffers back before returning.
        let tile = if self.sanitizer.is_some() {
            1
        } else {
            tile.max(1)
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.run_tiles(cfg, tile, inputs, &mut taken, &mut scratch, kernel);
        self.scratch = scratch;
        // An output counts as written even when the launch failed.
        for (oid, _, data) in taken {
            self.buffers[oid.0] = Some(Storage {
                data,
                written: true,
            });
        }

        let (stats, audit) = result?;

        // Fault hook: an ECC-style bit flip silently corrupts one element
        // of one output buffer after a successful launch. The cost model
        // and the sanitizer's init shadows are unaffected — the corruption
        // is only observable in the data (and to residual verification).
        let output_lens: Vec<usize> = outputs
            .iter()
            .map(|(oid, _)| self.buffers[oid.0].as_ref().map_or(0, |b| b.data.len()))
            .collect();
        let flip = self
            .faults
            .as_mut()
            .and_then(|f| f.next_output_bit_flip(&cfg.label, &output_lens, 8 * E::BYTES as u32));
        if let Some((slot, index, bit, rec)) = flip {
            if let Ok(buf) = self.buffer_mut(outputs[slot].0) {
                buf[index] = buf[index].flip_bit(bit);
            }
            self.trace_fault(&rec);
        }

        self.charge(&stats, audit, &cfg.label, inputs, outputs);
        Ok(stats)
    }

    /// Price a kernel launch from its cost meters alone: the same
    /// residency check and [`KernelStats`] as [`Gpu::launch`], without
    /// touching a buffer.
    ///
    /// `kernel` runs once per block, in block order on the calling
    /// thread, with a [`BlockCtx`] whose [`BlockCtx::pricing`] is true and
    /// an empty [`BlockIo`]. It must skip its numerics and keep every
    /// meter call. The counters fold through the same timing model, and
    /// the clock, profile and trace advance exactly as for a launch. No
    /// fault is injected and nothing is sanitized, so callers that need
    /// either execute instead.
    pub fn price<F>(&mut self, cfg: &LaunchConfig, mut kernel: F) -> Result<KernelStats, SimError>
    where
        F: FnMut(&mut BlockCtx, &mut BlockIo<'_, E>),
    {
        self.reclaim();
        timing::residency(&self.spec, cfg)?;
        let counters: Vec<CostCounters> = (0..cfg.grid_blocks)
            .map(|b| {
                let mut ctx = BlockCtx::new(b as u32, cfg.block_threads, &self.spec, E::BYTES);
                ctx.set_pricing();
                let mut io = BlockIo {
                    inputs: &[],
                    owned: &mut [],
                    scattered: &mut [],
                    shadow: None,
                };
                kernel(&mut ctx, &mut io);
                ctx.into_counters()
            })
            .collect();
        let stats = timing::kernel_time(&self.spec, cfg, &counters)?;
        self.charge(&stats, None, &cfg.label, &[], &[]);
        Ok(stats)
    }

    /// Book a successful launch on the current stream: charge its time,
    /// emit its trace span, fold its sanitizer audit, feed it to the
    /// cross-stream tracker, and append it to the profile.
    fn charge(
        &mut self,
        stats: &KernelStats,
        audit: Option<LaunchAudit>,
        label: &str,
        inputs: &[BufferId],
        outputs: &[(BufferId, OutMode)],
    ) {
        let (start_s, _) = self.issue(EngineKind::Compute, stats.total_time_s());
        if self.tracer.is_enabled() {
            self.trace_launch(stats, audit.as_ref(), self.stream.category(), start_s * 1e6);
        }
        self.fold_audit(audit);
        self.track("launch", format_args!("{label}"), inputs, outputs);
        self.timeline.push(stats.clone());
    }

    /// Fold a sanitized launch's findings into the device-level report.
    fn fold_audit(&mut self, audit: Option<LaunchAudit>) {
        if let (Some(st), Some(audit)) = (&mut self.sanitizer, audit) {
            st.report.launches_checked += 1;
            st.report.hazards.extend(audit.hazards);
            st.report.dropped += audit.dropped;
            for (slot, mask) in audit.output_inits {
                st.init[slot].merge(&mask);
            }
        }
    }

    /// Issue one operation of `dur_s` seconds on the current stream and
    /// `engine`, no earlier than the host clock. Returns `(start, end)`.
    fn issue(&mut self, engine: EngineKind, dur_s: f64) -> (f64, f64) {
        self.streams
            .schedule(self.stream, engine, &mut self.elapsed_s, dur_s)
    }

    /// Feed one operation on the current stream to the cross-stream race
    /// tracker (when it tracks the stream) and fold any hazard it forms
    /// into the sanitizer report plus the trace.
    fn track(
        &mut self,
        site: &'static str,
        label: std::fmt::Arguments<'_>,
        inputs: &[BufferId],
        outputs: &[(BufferId, OutMode)],
    ) {
        let stream = self.stream;
        let Some(tracker) = self.streams.tracker_for(stream) else {
            return;
        };
        let reads: Vec<usize> = inputs.iter().map(|b| b.0).collect();
        let writes: Vec<usize> = outputs.iter().map(|(b, _)| b.0).collect();
        let hazards = tracker.on_op(stream.index(), &label.to_string(), site, &reads, &writes);
        if hazards.is_empty() {
            return;
        }
        if self.tracer.is_enabled() {
            for h in &hazards {
                self.tracer.instant(
                    "sanitizer",
                    "hazard",
                    self.elapsed_s * 1e6,
                    vec![
                        arg("kernel", h.kernel.as_str()),
                        arg("kind", h.kind.to_string()),
                        arg("region", h.region.to_string()),
                        arg("detail", h.to_string()),
                    ],
                );
                self.tracer.counter_add("hazards", 1);
            }
        }
        if let Some(st) = &mut self.sanitizer {
            st.report.hazards.extend(hazards);
        }
    }

    /// Emit the per-launch trace span (plus counters and any sanitizer
    /// hazard instants) for a successful launch, at its stream's category
    /// (`"gpu"` on the default stream) and scheduled start: the pre-launch
    /// host clock on the default stream, the engine start on a created
    /// stream, so pipelined traces show one lane per stream.
    fn trace_launch(
        &self,
        stats: &KernelStats,
        audit: Option<&LaunchAudit>,
        cat: &'static str,
        begin_us: f64,
    ) {
        let dur_us = stats.total_time_s() * 1e6;
        self.tracer.span(
            cat,
            stats.label.clone(),
            begin_us,
            dur_us,
            vec![
                arg("grid", stats.grid_blocks),
                arg("block", stats.block_threads),
                arg("blocks_per_sm", stats.residency.blocks_per_sm),
                arg("warps_per_sm", stats.residency.warps_per_sm),
                arg("residency_limit", stats.residency.limited_by),
                arg("limited_by", format!("{:?}", stats.limited_by)),
                arg("exec_s", stats.exec_time_s),
                arg("overhead_s", stats.overhead_s),
                arg("bw_floor_s", stats.bw_floor_s),
                arg("stall_exec_s", stats.stall_exec_s),
                arg("gmem_payload_bytes", stats.totals.gmem_payload_bytes()),
                arg("gmem_read_bytes", stats.totals.gmem_read_bytes as u64),
                arg("gmem_write_bytes", stats.totals.gmem_write_bytes as u64),
                arg("gmem_txn_bytes", stats.totals.gmem_txn_bytes as u64),
                arg("gmem_warp_txns", stats.totals.gmem_warp_txns as u64),
                arg("smem_accesses", stats.totals.smem_accesses as u64),
                arg("smem_conflicts", stats.totals.smem_conflict_accesses as u64),
                arg("thread_ops", stats.totals.thread_ops as u64),
                arg("barriers", stats.totals.barriers as u64),
            ],
        );
        self.tracer.counter_add("launches", 1);
        // Per-family latency histogram (label up to the first `[`).
        let family = stats.label.split('[').next().unwrap_or(&stats.label);
        self.tracer
            .observe(&format!("kernel_ms/{family}"), stats.total_time_ms());
        self.tracer.counter_add(
            "gmem_payload_bytes",
            stats.totals.gmem_payload_bytes() as u64,
        );
        self.tracer
            .counter_add("gmem_txn_bytes", stats.totals.gmem_txn_bytes as u64);
        self.tracer
            .counter_add("barriers", stats.totals.barriers as u64);
        if let Some(audit) = audit {
            for h in &audit.hazards {
                self.tracer.instant(
                    "sanitizer",
                    "hazard",
                    begin_us,
                    vec![
                        arg("kernel", h.kernel.as_str()),
                        arg("kind", h.kind.to_string()),
                        arg("site", h.second.site),
                        arg("region", h.region.to_string()),
                        arg("block", h.block),
                        arg("index", h.index),
                        arg("detail", h.to_string()),
                    ],
                );
                self.tracer.counter_add("hazards", 1);
            }
        }
    }

    /// Run every tile of a launch and check its writes. Everything a block
    /// gets is allocated once per launch, for the whole grid: the blocks'
    /// contexts and views, their chunks and their write logs. The tiles
    /// run in at most [`TILE_GROUPS`] groups of adjacent tiles, group `i`
    /// on `scratch[i]`.
    fn run_tiles<F>(
        &self,
        cfg: &LaunchConfig,
        tile: usize,
        inputs: &[BufferId],
        taken: &mut [(BufferId, OutMode, Vec<E>)],
        scratch: &mut Vec<TileScratch<E>>,
        kernel: F,
    ) -> Result<(KernelStats, Option<LaunchAudit>), SimError>
    where
        F: Fn(&mut TileScratch<E>, &mut [BlockCtx], &mut [BlockIo<'_, E>]) + Sync,
    {
        let grid = cfg.grid_blocks;
        let input_views: Vec<&[E]> = inputs
            .iter()
            .map(|id| self.view(*id))
            .collect::<Result<_, _>>()?;
        // Init shadows of the input buffers, for the initcheck on loads.
        let input_masks: Option<Vec<&InitMask>> = self
            .sanitizer
            .as_ref()
            .map(|st| inputs.iter().map(|id| &st.init[id.0]).collect());
        let smem_elems = cfg.shared_mem_bytes / E::BYTES;

        // Partition chunked outputs into per-block slices and build the
        // shared scattered outputs.
        let mut chunk_iters: Vec<std::slice::ChunksMut<'_, E>> = Vec::new();
        let mut scattered: Vec<SharedOut<E>> = Vec::new();
        // Buffer slot + chunk + full length per chunked output, and buffer
        // slot + length per scattered output, for the sanitizer audit.
        let mut chunked_meta: Vec<(usize, usize, usize)> = Vec::new();
        let mut scattered_meta: Vec<(usize, usize)> = Vec::new();
        for (oid, mode, buf) in taken.iter_mut() {
            match mode {
                OutMode::Chunked { chunk } => {
                    if *chunk == 0 || buf.len() < *chunk * grid {
                        return Err(SimError::InvalidLaunch {
                            detail: format!(
                                "chunked output too small: len {} < chunk {} x grid {grid}",
                                buf.len(),
                                chunk
                            ),
                        });
                    }
                    chunked_meta.push((oid.0, *chunk, buf.len()));
                    chunk_iters.push(buf.chunks_mut(*chunk));
                }
                OutMode::Scattered => {
                    scattered_meta.push((oid.0, buf.len()));
                    scattered.push(SharedOut::new(buf));
                }
            }
        }
        let (n_chunked, n_scattered) = (chunk_iters.len(), scattered.len());

        // Per block, block-major: its sanitizer shadow, its chunk of each
        // chunked output, and its writer of each scattered output.
        let shadows: Vec<Mutex<BlockShadow>> = match input_masks {
            Some(_) => (0..grid)
                .map(|_| Mutex::new(BlockShadow::new(smem_elems, n_chunked)))
                .collect(),
            None => Vec::new(),
        };
        let mut owned: Vec<&mut [E]> = Vec::with_capacity(grid * n_chunked);
        let mut writers: Vec<ScatterWriter<'_, E>> = Vec::with_capacity(grid * n_scattered);
        for b in 0..grid {
            for iter in &mut chunk_iters {
                owned.push(iter.next().expect("chunk per block"));
            }
            for (slot, out) in scattered.iter().enumerate() {
                writers.push(ScatterWriter {
                    out,
                    slot,
                    shadow: shadows.get(b),
                    log: WriteLog::default(),
                });
            }
        }
        let mut ctxs: Vec<BlockCtx<'_>> = (0..grid)
            .map(|b| {
                let mut ctx = BlockCtx::new(b as u32, cfg.block_threads, &self.spec, E::BYTES);
                if let Some(cell) = shadows.get(b) {
                    ctx.attach_shadow(cell);
                }
                ctx
            })
            .collect();
        let (mut owned_rest, mut writers_rest) = (&mut owned[..], &mut writers[..]);
        let mut ios: Vec<BlockIo<'_, E>> = Vec::with_capacity(grid);
        for b in 0..grid {
            let (own, rest) = std::mem::take(&mut owned_rest).split_at_mut(n_chunked);
            owned_rest = rest;
            let (writers, rest) = std::mem::take(&mut writers_rest).split_at_mut(n_scattered);
            writers_rest = rest;
            ios.push(BlockIo {
                inputs: &input_views,
                owned: own,
                scattered: writers,
                shadow: shadows
                    .get(b)
                    .zip(input_masks.as_deref())
                    .map(|(cell, input_init)| ShadowHandle { cell, input_init }),
            });
        }

        // Groups of adjacent tiles, one per parallel item; a group runs
        // its tiles in order on its own scratch.
        let tiles = grid.div_ceil(tile);
        let groups = tiles.min(TILE_GROUPS);
        if scratch.len() < groups {
            scratch.resize_with(groups, TileScratch::default);
        }
        let per_group = (tiles.div_ceil(groups.max(1)) * tile).max(1);
        let kernel = &kernel;
        let work: Vec<_> = ctxs
            .chunks_mut(per_group)
            .zip(ios.chunks_mut(per_group))
            .zip(scratch.iter_mut())
            .collect();
        let _: Vec<()> = work
            .into_par_iter()
            .map(|((ctxs, ios), scratch)| {
                for (ctxs, ios) in ctxs.chunks_mut(tile).zip(ios.chunks_mut(tile)) {
                    kernel(scratch, ctxs, ios);
                }
            })
            .collect();

        // Who wrote what, per scattered output: every block's runs, in
        // block order. One check per output proves the blocks disjoint.
        let mut scattered_runs: Vec<Vec<(u32, Run)>> =
            (0..n_scattered).map(|_| Vec::with_capacity(grid)).collect();
        for (b, io) in ios.iter_mut().enumerate() {
            for (runs, writer) in scattered_runs.iter_mut().zip(io.scattered.iter_mut()) {
                writer.log.drain_into(b as u32, runs);
            }
        }
        let counters: Vec<CostCounters> = ctxs.into_iter().map(BlockCtx::into_counters).collect();
        for (runs, &(_, len)) in scattered_runs.iter().zip(&scattered_meta) {
            if let Some((index, first_block, second_block)) = writelog::find_race(len, runs) {
                return Err(SimError::WriteRace {
                    index,
                    first_block,
                    second_block,
                });
            }
        }

        let audit = input_masks.is_some().then(|| {
            self.build_audit(
                cfg,
                shadows.into_iter().map(Mutex::into_inner),
                &chunked_meta,
                &scattered_meta,
                &scattered_runs,
            )
        });

        let stats = timing::kernel_time(&self.spec, cfg, &counters)?;
        Ok((stats, audit))
    }

    /// Fold the per-block shadows and the scattered-output write logs into
    /// a launch audit: finished hazards (kernel label + block attached) plus
    /// the written-element masks to merge into the global init shadows.
    fn build_audit(
        &self,
        cfg: &LaunchConfig,
        shadows: impl Iterator<Item = BlockShadow>,
        chunked_meta: &[(usize, usize, usize)],
        scattered_meta: &[(usize, usize)],
        scattered_runs: &[Vec<(u32, Run)>],
    ) -> LaunchAudit {
        let mut hazards = Vec::new();
        let mut dropped = 0usize;
        let mut owned_masks: Vec<InitMask> = chunked_meta
            .iter()
            .map(|&(_, _, len)| InitMask::new_uninit(len))
            .collect();
        for (b, shadow) in shadows.enumerate() {
            let (block_hazards, owned_writes, block_dropped) = shadow.into_parts();
            dropped += block_dropped;
            for h in block_hazards {
                hazards.push(Hazard {
                    kind: h.kind,
                    kernel: cfg.label.clone(),
                    block: b as u32,
                    region: h.region,
                    index: h.index,
                    first: h.first,
                    second: h.second,
                });
            }
            for (o, local) in owned_writes.into_iter().enumerate() {
                let (_, chunk, _) = chunked_meta[o];
                let base = b * chunk;
                match local {
                    Some(local) => {
                        for i in 0..chunk {
                            if local.get(i) {
                                owned_masks[o].set(base + i);
                            }
                        }
                    }
                    // No tracked store hit this output: assume an untracked
                    // kernel wrote its whole chunk. Conservative, but keeps
                    // kernels that index `io.owned` directly (demos, tests)
                    // from poisoning later launches with false uninit reads.
                    None => owned_masks[o].set_range(base, base + chunk),
                }
            }
        }
        let mut output_inits: Vec<(usize, InitMask)> = chunked_meta
            .iter()
            .zip(owned_masks)
            .map(|(&(slot, _, _), mask)| (slot, mask))
            .collect();
        for (&(slot, len), runs) in scattered_meta.iter().zip(scattered_runs) {
            output_inits.push((slot, writelog::written_mask(len, runs)));
        }
        LaunchAudit {
            hazards,
            dropped,
            output_inits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitizer::HazardKind;

    fn gpu() -> Gpu<f32> {
        Gpu::new(DeviceSpec::gtx_470())
    }

    #[test]
    fn alloc_upload_download_free() {
        let mut g = gpu();
        let id = g.alloc_from(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(g.download(id).unwrap(), vec![1.0, 2.0, 3.0]);
        g.upload(id, &[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(g.view(id).unwrap(), &[4.0, 5.0, 6.0]);
        assert_eq!(g.allocated_bytes(), 12);
        g.free(id).unwrap();
        assert_eq!(g.allocated_bytes(), 0);
        assert!(g.view(id).is_err());
        assert!(g.free(id).is_err());
    }

    #[test]
    fn allocation_respects_device_capacity() {
        let mut g = gpu();
        let cap = g.spec().queryable().global_mem_bytes / 4;
        assert!(matches!(
            g.alloc(cap + 1),
            Err(SimError::OutOfGlobalMemory { .. })
        ));
        // Exactly full is fine; one more element is not.
        let id = g.alloc(cap).unwrap();
        assert!(g.alloc(1).is_err());
        g.free(id).unwrap();
        assert!(g.alloc(1).is_ok());
    }

    /// An upload from [`SPLIT_COPY_BYTES`] on copies in two halves. What
    /// lands, the H2D fault it draws, its trace and the sanitizer's init
    /// marks are those of `alloc_from`'s one serial copy of the same data.
    #[test]
    fn split_upload_matches_one_serial_copy_under_h2d_faults() {
        let n = SPLIT_COPY_BYTES / 4 + 3;
        let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        for seed in 0..8 {
            let run = |split: bool| {
                let plan = FaultPlan::seeded(seed).with_transfer_corruption(1.0);
                let mut g: Gpu<f32> = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
                g.enable_sanitizer();
                g.set_tracer(Tracer::enabled());
                let id = if split {
                    let id = g.alloc(n).unwrap();
                    g.upload(id, &data).unwrap();
                    id
                } else {
                    g.alloc_from(&data).unwrap()
                };
                let init = &g.sanitizer.as_ref().unwrap().init[id.0];
                let marked = (0..n).all(|i| init.get(i));
                let events: Vec<String> = g
                    .tracer()
                    .events()
                    .iter()
                    .map(|e| format!("{} {} {} {:?}", e.cat, e.name, e.ts_us, e.args))
                    .collect();
                let bits: Vec<u32> = g.view(id).unwrap().iter().map(|v| v.to_bits()).collect();
                (bits, g.take_fault_log(), events, marked)
            };
            let split = run(true);
            assert_eq!(split, run(false), "seed {seed}");
            let (bits, log, _, marked) = split;
            assert!(marked, "seed {seed}: upload left elements uninitialised");
            assert!(log.is_some_and(|l| l.records.iter().any(|r| r.site == "h2d")));
            let flipped = bits.iter().zip(&data).filter(|(b, d)| **b != d.to_bits());
            assert_eq!(flipped.count(), 1, "seed {seed}");
        }
    }

    #[test]
    fn upload_length_mismatch_rejected() {
        let mut g = gpu();
        let id = g.alloc(4).unwrap();
        assert!(g.upload(id, &[1.0]).is_err());
    }

    #[test]
    fn traced_launch_emits_span_and_transfer_events() {
        let mut g = gpu();
        let tracer = Tracer::enabled();
        g.set_tracer(tracer.clone());
        let src = g.alloc_from(&[1.0f32; 256]).unwrap();
        let dst = g.alloc(256).unwrap();
        let cfg = LaunchConfig::new("double[test]", 2, 128);
        g.launch(
            &cfg,
            &[src],
            &[(dst, OutMode::Chunked { chunk: 128 })],
            |ctx, io| {
                let b = ctx.block_id as usize;
                ctx.gmem_read(128, 1);
                ctx.gmem_write(128, 1);
                for i in 0..128 {
                    io.owned[0][i] = io.inputs[0][b * 128 + i] * 2.0;
                }
            },
        )
        .unwrap();
        let _ = g.download(dst).unwrap();

        let events = tracer.events();
        let span = events
            .iter()
            .find(|e| e.cat == "gpu" && e.name == "double[test]")
            .expect("launch span recorded");
        assert_eq!(span.family(), "double");
        assert_eq!(span.arg_u64("grid"), Some(2));
        assert_eq!(span.arg_u64("block"), Some(128));
        assert_eq!(span.arg_u64("gmem_read_bytes"), Some(256 * 4));
        assert_eq!(span.arg_u64("gmem_write_bytes"), Some(256 * 4));
        assert!((span.dur_us - g.elapsed_s() * 1e6).abs() < 1e-9);
        let h2d = events.iter().filter(|e| e.name == "h2d").count();
        let d2h = events.iter().filter(|e| e.name == "d2h").count();
        assert_eq!(h2d, 1);
        assert_eq!(d2h, 1);
        let counters = tracer.counters();
        assert!(counters.contains(&("launches", 1)));
        assert!(counters.contains(&("h2d_bytes", 256 * 4)));
        assert!(counters.contains(&("d2h_bytes", 256 * 4)));
    }

    #[test]
    fn tracing_leaves_clock_and_results_bit_identical() {
        let run = |traced: bool| -> (f64, Vec<f32>) {
            let mut g = gpu();
            if traced {
                g.set_tracer(Tracer::enabled());
            }
            let src = g
                .alloc_from(&(0..512).map(|i| i as f32).collect::<Vec<_>>())
                .unwrap();
            let dst = g.alloc(512).unwrap();
            let cfg = LaunchConfig::new("scale", 4, 128);
            g.launch(
                &cfg,
                &[src],
                &[(dst, OutMode::Chunked { chunk: 128 })],
                |ctx, io| {
                    let b = ctx.block_id as usize;
                    ctx.gmem_read(128, 1);
                    ctx.gmem_write(128, 1);
                    for i in 0..128 {
                        io.owned[0][i] = io.inputs[0][b * 128 + i] * 0.5;
                    }
                    ctx.ops(128);
                },
            )
            .unwrap();
            (g.elapsed_s(), g.download(dst).unwrap())
        };
        let (t_off, x_off) = run(false);
        let (t_on, x_on) = run(true);
        assert_eq!(t_off.to_bits(), t_on.to_bits());
        assert_eq!(x_off, x_on);
    }

    #[test]
    fn chunked_launch_copies_data() {
        let mut g = gpu();
        let src = g
            .alloc_from(&(0..1024).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        let dst = g.alloc(1024).unwrap();
        let cfg = LaunchConfig::new("copy", 8, 128);
        let stats = g
            .launch(
                &cfg,
                &[src],
                &[(dst, OutMode::Chunked { chunk: 128 })],
                |ctx, io| {
                    let b = ctx.block_id as usize;
                    let input = io.inputs[0];
                    ctx.gmem_read(128, 1);
                    ctx.gmem_write(128, 1);
                    for i in 0..128 {
                        io.owned[0][i] = input[b * 128 + i] * 2.0;
                    }
                    ctx.ops(128);
                },
            )
            .unwrap();
        let out = g.download(dst).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as f32) * 2.0);
        }
        assert_eq!(stats.totals.gmem_read_bytes, 1024.0 * 4.0);
        assert!(g.elapsed_s() > 0.0);
        assert_eq!(g.timeline().len(), 1);
    }

    #[test]
    fn scattered_launch_strided_write() {
        let mut g = gpu();
        let dst = g.alloc(64).unwrap();
        let cfg = LaunchConfig::new("scatter", 4, 32);
        // Block b writes elements b, b+4, b+8, ... (stride 4 chains).
        g.launch(&cfg, &[], &[(dst, OutMode::Scattered)], |ctx, io| {
            let b = ctx.block_id as usize;
            for k in 0..16 {
                io.scattered[0].set(b + 4 * k, ctx.block_id as f32);
            }
            ctx.gmem_write(16, 4);
        })
        .unwrap();
        let out = g.download(dst).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i % 4) as f32);
        }
    }

    #[test]
    fn scattered_race_detected() {
        let mut g = gpu();
        let dst = g.alloc(8).unwrap();
        let cfg = LaunchConfig::new("race", 2, 32);
        let err = g.launch(&cfg, &[], &[(dst, OutMode::Scattered)], |_, io| {
            io.scattered[0].set(3, 1.0); // both blocks write index 3
        });
        assert!(matches!(err, Err(SimError::WriteRace { index: 3, .. })));
        // Buffer must have been restored despite the failure.
        assert!(g.view(dst).is_ok());
        // Clock must not have advanced.
        assert_eq!(g.elapsed_s(), 0.0);
    }

    /// Launch `grid` blocks whose scattered writes are `writes(block, io)`
    /// and return the race verdict.
    fn race_verdict<F>(len: usize, grid: usize, writes: F) -> Option<(usize, u32, u32)>
    where
        F: Fn(usize, &mut BlockIo<'_, f32>) + Sync,
    {
        let mut g = gpu();
        let dst = g.alloc(len).unwrap();
        let cfg = LaunchConfig::new("race", grid, 32);
        let result = g.launch(&cfg, &[], &[(dst, OutMode::Scattered)], |ctx, io| {
            writes(ctx.block_id as usize, io);
        });
        match result {
            Ok(_) => None,
            Err(SimError::WriteRace {
                index,
                first_block,
                second_block,
            }) => {
                assert_eq!(
                    g.elapsed_s(),
                    0.0,
                    "a racy launch must not advance the clock"
                );
                Some((index, first_block, second_block))
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn write_race_report_is_a_function_of_the_writes() {
        // 64 blocks each own 16 contiguous elements; blocks 40, 17 and 23
        // also write element 700, which block 43 owns. The report names
        // the smallest raced element and its two lowest writers, however
        // the blocks were scheduled.
        let racy = |b: usize, io: &mut BlockIo<'_, f32>| {
            io.scattered[0].set_strided(16 * b, 1, &[b as f32; 16], "t");
            if [40, 17, 23].contains(&b) {
                io.scattered[0].set(700, 0.0);
            }
        };
        for _ in 0..50 {
            assert_eq!(race_verdict(1024, 64, racy), Some((700, 17, 23)));
        }
    }

    #[test]
    fn race_hidden_inside_a_run_is_found() {
        // Block 0 writes 0, 4, …, 60 one element at a time (one folded
        // run); block 1 writes 40, in the middle of it.
        let verdict = race_verdict(64, 2, |b, io| {
            if b == 0 {
                for k in 0..16 {
                    io.scattered[0].set(4 * k, 1.0);
                }
            } else {
                io.scattered[0].set(40, 2.0);
            }
        });
        assert_eq!(verdict, Some((40, 0, 1)));
    }

    #[test]
    fn race_between_runs_of_different_strides_is_found() {
        // Stride 3 from 0 and stride 5 from 5 first meet at 15.
        let verdict = race_verdict(64, 2, |b, io| {
            let (start, stride) = if b == 0 { (0, 3) } else { (5, 5) };
            io.scattered[0].set_strided(start, stride, &[1.0; 11], "t");
        });
        assert_eq!(verdict, Some((15, 0, 1)));
    }

    #[test]
    fn interleaved_strided_chains_are_not_a_race() {
        // Block b stores chain b, b + 4, …: four interleaved stride-4
        // chains covering the buffer, in bulk and element by element.
        for bulk in [true, false] {
            let verdict = race_verdict(64, 4, |b, io| {
                let vals = [b as f32; 16];
                if bulk {
                    io.scattered[0].set_strided(b, 4, &vals, "t");
                } else {
                    for (k, &v) in vals.iter().enumerate() {
                        io.scattered[0].set(b + 4 * k, v);
                    }
                }
            });
            assert_eq!(verdict, None);
        }
    }

    /// Launch `grid` blocks in tiles of `tile`: block `b` stores the first
    /// `count(b)` elements of chain `b` (elements `b, b + grid, …`) of a
    /// `grid × len` buffer through `store_tile`, then the element
    /// `extra(b)`, if any. Returns the launch's race verdict, the buffer
    /// and the clock.
    fn tiled_chains<C, X>(
        grid: usize,
        len: usize,
        tile: usize,
        count: C,
        extra: X,
    ) -> (Option<(usize, u32, u32)>, Vec<f32>, f64)
    where
        C: Fn(usize) -> usize + Sync,
        X: Fn(usize) -> Option<usize> + Sync,
    {
        let mut g = gpu();
        let dst = g.alloc(grid * len).unwrap();
        let cfg = LaunchConfig::new("tiles", grid, 32);
        let result = g.launch_tiles(
            &cfg,
            tile,
            &[],
            &[(dst, OutMode::Scattered)],
            |_, ctxs, ios| {
                let first = ctxs[0].block_id as usize;
                let lanes = ctxs.len();
                let vals: Vec<f32> = (0..len * lanes)
                    .map(|i| (first + i % lanes) as f32 + (i / lanes) as f32 / 64.0)
                    .collect();
                crate::launch::store_tile(ios, 0, first, grid, |g| count(first + g), &vals, "t");
                for (ctx, io) in ctxs.iter().zip(ios.iter()) {
                    if let Some(i) = extra(ctx.block_id as usize) {
                        io.scattered[0].set(i, -1.0);
                    }
                }
            },
        );
        let verdict = match result {
            Ok(_) => None,
            Err(SimError::WriteRace {
                index,
                first_block,
                second_block,
            }) => Some((index, first_block, second_block)),
            Err(e) => panic!("unexpected error {e}"),
        };
        let out = g.view(dst).expect("buffer restored").to_vec();
        (verdict, out, g.elapsed_s())
    }

    #[test]
    fn tile_stores_write_and_log_what_one_block_stores() {
        // Ten chains of 8 in tiles of 4 (the last tile has two blocks),
        // each block storing a different prefix of its chain.
        let count = |b: usize| [8, 0, 3, 8, 5, 8, 1, 8, 8, 7][b];
        let (verdict, tiled, clock) = tiled_chains(10, 8, 4, count, |_| None);
        let (verdict1, single, clock1) = tiled_chains(10, 8, 1, count, |_| None);
        assert_eq!((verdict, verdict1), (None, None));
        assert_eq!(clock.to_bits(), clock1.to_bits());
        assert_eq!(tiled, single);
        for (i, &v) in tiled.iter().enumerate() {
            let (b, j) = (i % 10, i / 10);
            let want = if j < count(b) {
                b as f32 + j as f32 / 64.0
            } else {
                0.0
            };
            assert_eq!(v, want, "element {i}");
        }
    }

    #[test]
    fn races_through_tiles_report_what_tile_width_one_reports() {
        let full = |_: usize| 8;
        // Block 5 also writes row 3 of chain 6, in the same tile of 4.
        let in_tile = |b: usize| (b == 5).then_some(6usize + 3 * 10);
        // Block 2 also writes row 1 of chain 9, two tiles later (the last
        // tile, which has two blocks).
        let across = |b: usize| (b == 2).then_some(9usize + 10);
        for (extra, want) in [
            (
                &in_tile as &(dyn Fn(usize) -> Option<usize> + Sync),
                (36, 5, 6),
            ),
            (&across, (19, 2, 9)),
        ] {
            let (verdict, _, clock) = tiled_chains(10, 8, 4, full, extra);
            let (verdict1, _, clock1) = tiled_chains(10, 8, 1, full, extra);
            assert_eq!(verdict, Some(want));
            assert_eq!(verdict1, Some(want));
            assert_eq!((clock, clock1), (0.0, 0.0), "a racy launch moves no clock");
        }
    }

    #[test]
    fn input_as_output_rejected() {
        let mut g = gpu();
        let buf = g.alloc(64).unwrap();
        let cfg = LaunchConfig::new("alias", 1, 32);
        let err = g.launch(&cfg, &[buf], &[(buf, OutMode::Scattered)], |_, _| {});
        assert!(matches!(err, Err(SimError::InvalidLaunch { .. })));
    }

    #[test]
    fn duplicate_output_rejected() {
        let mut g = gpu();
        let buf = g.alloc(64).unwrap();
        let cfg = LaunchConfig::new("dup", 1, 32);
        let err = g.launch(
            &cfg,
            &[],
            &[(buf, OutMode::Scattered), (buf, OutMode::Scattered)],
            |_, _| {},
        );
        assert!(matches!(err, Err(SimError::InvalidLaunch { .. })));
    }

    #[test]
    fn chunked_output_size_validated() {
        let mut g = gpu();
        let buf = g.alloc(64).unwrap();
        let cfg = LaunchConfig::new("small", 8, 32);
        let err = g.launch(
            &cfg,
            &[],
            &[(buf, OutMode::Chunked { chunk: 16 })], // needs 128 elements
            |_, _| {},
        );
        assert!(matches!(err, Err(SimError::InvalidLaunch { .. })));
    }

    #[test]
    fn multiple_outputs_in_order() {
        let mut g = gpu();
        let c1 = g.alloc(8).unwrap();
        let s1 = g.alloc(8).unwrap();
        let c2 = g.alloc(8).unwrap();
        let cfg = LaunchConfig::new("multi", 2, 32);
        g.launch(
            &cfg,
            &[],
            &[
                (c1, OutMode::Chunked { chunk: 4 }),
                (s1, OutMode::Scattered),
                (c2, OutMode::Chunked { chunk: 4 }),
            ],
            |ctx, io| {
                assert_eq!(io.owned.len(), 2);
                assert_eq!(io.scattered.len(), 1);
                io.owned[0][0] = 1.0;
                io.owned[1][0] = 2.0;
                io.scattered[0].set(ctx.block_id as usize, 3.0);
            },
        )
        .unwrap();
        assert_eq!(g.view(c1).unwrap()[0], 1.0);
        assert_eq!(g.view(c1).unwrap()[4], 1.0);
        assert_eq!(g.view(c2).unwrap()[0], 2.0);
        assert_eq!(g.view(s1).unwrap()[0], 3.0);
        assert_eq!(g.view(s1).unwrap()[1], 3.0);
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let mut g = gpu();
        let dst = g.alloc(1024).unwrap();
        let cfg = LaunchConfig::new("k", 4, 64);
        for _ in 0..3 {
            g.launch(
                &cfg,
                &[],
                &[(dst, OutMode::Chunked { chunk: 256 })],
                |ctx, _| {
                    ctx.ops(1000);
                },
            )
            .unwrap();
        }
        assert_eq!(g.timeline().len(), 3);
        let t = g.elapsed_s();
        assert!(t > 0.0);
        g.reset_clock();
        assert_eq!(g.elapsed_s(), 0.0);
        assert!(g.timeline().is_empty());
        // Data survives reset.
        assert!(g.view(dst).is_ok());
    }

    #[test]
    fn guard_drop_frees_buffer() {
        let mut g = gpu();
        let kept = g.alloc(2).unwrap();
        {
            let b = g.alloc_from_guarded(&[1.0, 2.0, 3.0]).unwrap();
            assert_eq!(g.view(b.id()).unwrap(), &[1.0, 2.0, 3.0]);
            assert_eq!(g.allocated_bytes(), 5 * 4);
        }
        // Guard dropped: the bytes no longer count, even before reclaim.
        assert_eq!(g.allocated_bytes(), 2 * 4);
        // The next mutating op reclaims the slot for real.
        g.free(kept).unwrap();
        assert_eq!(g.allocated_bytes(), 0);
    }

    #[test]
    fn guard_drop_returns_capacity_for_new_allocs() {
        let mut g = gpu();
        let cap = g.spec().queryable().global_mem_bytes / 4;
        {
            let _all = g.alloc_guarded(cap).unwrap();
            assert!(g.alloc(1).is_err());
        }
        // The deferred free must be honoured before the capacity check.
        assert!(g.alloc(cap).is_ok());
    }

    #[test]
    fn guard_survives_early_return_paths() {
        fn failing(g: &mut Gpu<f32>) -> Result<(), SimError> {
            let a = g.alloc_guarded(64)?;
            let _b = g.alloc_guarded(64)?;
            let cfg = LaunchConfig::new("race", 2, 32);
            // Both blocks write index 0: the launch fails mid-pipeline and
            // the function unwinds through `?` with guards still live.
            g.launch(&cfg, &[], &[(a.id(), OutMode::Scattered)], |_, io| {
                io.scattered[0].set(0, 1.0);
            })?;
            Ok(())
        }
        let mut g = gpu();
        assert!(failing(&mut g).is_err());
        assert_eq!(g.allocated_bytes(), 0, "error path must not leak");
    }

    #[test]
    fn manual_free_of_guarded_buffer_is_tolerated() {
        let mut g = gpu();
        let b = g.alloc_guarded(8).unwrap();
        g.free(b.id()).unwrap();
        drop(b); // enqueues a second free of the same id
        assert!(g.alloc(1).is_ok()); // reclaim ignores the stale entry
        assert_eq!(g.allocated_bytes(), 4);
    }

    #[test]
    fn disabled_fault_plan_attaches_no_injector() {
        let mut g = gpu();
        g.enable_faults(FaultPlan::disabled());
        assert!(!g.faults_enabled());
        assert!(g.fault_log().is_none());
        let g2: Gpu<f32> = Gpu::with_faults(DeviceSpec::gtx_470(), FaultPlan::seeded(5));
        assert!(!g2.faults_enabled(), "all-zero rates attach nothing");
    }

    #[test]
    fn injected_launch_failure_leaves_clock_and_buffers_intact() {
        let mut g = gpu();
        g.enable_faults(FaultPlan::seeded(11).with_launch_failures(1.0));
        let dst = g.alloc(64).unwrap();
        let cfg = LaunchConfig::new("k", 2, 32);
        let err = g.launch(
            &cfg,
            &[],
            &[(dst, OutMode::Chunked { chunk: 32 })],
            |_, _| {},
        );
        assert!(matches!(err, Err(SimError::TransientLaunchFailure { .. })));
        assert_eq!(g.elapsed_s(), 0.0, "failed launch must not advance time");
        assert!(g.view(dst).is_ok(), "buffers restored");
        assert!(g.timeline().is_empty());
        assert_eq!(g.fault_log().unwrap().launch_failures, 1);
    }

    #[test]
    fn injected_timeout_is_a_distinct_error() {
        let mut g = gpu();
        g.enable_faults(FaultPlan::seeded(11).with_kernel_timeouts(1.0));
        let dst = g.alloc(64).unwrap();
        let cfg = LaunchConfig::new("k", 2, 32);
        let err = g.launch(
            &cfg,
            &[],
            &[(dst, OutMode::Chunked { chunk: 32 })],
            |_, _| {},
        );
        assert!(matches!(err, Err(SimError::KernelTimeout { .. })));
        assert_eq!(g.elapsed_s(), 0.0);
    }

    #[test]
    fn injected_oom_reports_out_of_memory() {
        let mut g = gpu();
        g.enable_faults(FaultPlan::seeded(2).with_alloc_failures(1.0));
        assert!(matches!(
            g.alloc(16),
            Err(SimError::OutOfGlobalMemory { .. })
        ));
        assert_eq!(g.allocated_bytes(), 0, "failed alloc must not leak");
        assert_eq!(g.fault_log().unwrap().alloc_failures, 1);
    }

    #[test]
    fn h2d_corruption_flips_exactly_one_element() {
        let mut g = gpu();
        g.enable_faults(
            FaultPlan::seeded(4)
                .with_transfer_corruption(1.0)
                .with_max_faults(1),
        );
        let data: Vec<f32> = (0..128).map(|i| i as f32).collect();
        let id = g.alloc_from(&data).unwrap();
        let on_device = g.view(id).unwrap();
        let diffs = on_device
            .iter()
            .zip(&data)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(diffs, 1);
        assert_eq!(g.fault_log().unwrap().transfer_corruptions, 1);
    }

    #[test]
    fn d2h_corruption_leaves_device_buffer_untouched() {
        let mut g = gpu();
        g.enable_faults(
            FaultPlan::seeded(4)
                .with_transfer_corruption(1.0)
                .with_max_faults(2),
        );
        let data = vec![1.0f32; 64];
        let id = g.alloc(64).unwrap();
        g.upload(id, &data).unwrap(); // fault #1 corrupts the device copy
        let device_copy = g.view(id).unwrap().to_vec();
        let host_copy = g.download(id).unwrap(); // fault #2 corrupts the host copy
        assert_ne!(host_copy, device_copy);
        assert_eq!(g.view(id).unwrap(), device_copy.as_slice());
    }

    #[test]
    fn output_bit_flip_corrupts_one_result_element() {
        let mut g = gpu();
        g.enable_faults(FaultPlan::seeded(6).with_bit_flips(1.0).with_max_faults(1));
        let dst = g.alloc(256).unwrap();
        let cfg = LaunchConfig::new("ones", 2, 32);
        g.launch(
            &cfg,
            &[],
            &[(dst, OutMode::Chunked { chunk: 128 })],
            |_, io| {
                for v in io.owned[0].iter_mut() {
                    *v = 1.0;
                }
            },
        )
        .unwrap();
        let out = g.download(dst).unwrap();
        let wrong = out.iter().filter(|v| **v != 1.0).count();
        assert_eq!(wrong, 1);
        assert!(g.elapsed_s() > 0.0, "a corrupted launch still ran");
        assert_eq!(g.fault_log().unwrap().bit_flips, 1);
    }

    #[test]
    fn fault_campaign_is_deterministic_per_seed() {
        let run = |seed: u64| -> (FaultLog, Vec<f32>) {
            let mut g = gpu();
            g.enable_faults(
                FaultPlan::seeded(seed)
                    .with_launch_failures(0.3)
                    .with_bit_flips(0.3)
                    .with_transfer_corruption(0.3),
            );
            let mut last = Vec::new();
            for round in 0..8 {
                let src = g
                    .alloc_from(&(0..64).map(|i| (i + round) as f32).collect::<Vec<_>>())
                    .unwrap();
                let dst = g.alloc(64).unwrap();
                let cfg = LaunchConfig::new("copy", 2, 32);
                let r = g.launch(
                    &cfg,
                    &[src],
                    &[(dst, OutMode::Chunked { chunk: 32 })],
                    |ctx, io| {
                        let b = ctx.block_id as usize;
                        for i in 0..32 {
                            io.owned[0][i] = io.inputs[0][b * 32 + i];
                        }
                    },
                );
                if r.is_ok() {
                    last = g.download(dst).unwrap();
                }
                g.free(src).unwrap();
                g.free(dst).unwrap();
            }
            (g.take_fault_log().unwrap(), last)
        };
        let (log_a, x_a) = run(99);
        let (log_b, x_b) = run(99);
        assert_eq!(log_a, log_b);
        assert!(log_a.injected() > 0, "campaign should have injected");
        assert_eq!(x_a, x_b);
        let (log_c, _) = run(100);
        assert_ne!(log_a, log_c, "different seed, different campaign");
    }

    #[test]
    fn advance_clock_is_monotonic() {
        let mut g = gpu();
        g.advance_clock(1.5e-3);
        g.advance_clock(-1.0);
        g.advance_clock(f64::NAN);
        assert_eq!(g.elapsed_s(), 1.5e-3);
    }

    #[test]
    fn async_ops_overlap_and_sync_joins_the_clock() {
        let mut g = gpu();
        let streams = g.enable_streams(2);
        let data: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        let a = g.alloc(4096).unwrap();
        let b = g.alloc(4096).unwrap();
        // Upload on stream 0 (copy engine) while stream 1 computes on an
        // unrelated buffer (compute engine): genuine overlap.
        g.set_stream(streams[0]);
        g.upload(a, &data).unwrap();
        let cfg = LaunchConfig::new("busy", 4, 128);
        g.set_stream(streams[1]);
        g.launch(
            &cfg,
            &[],
            &[(b, OutMode::Chunked { chunk: 1024 })],
            |ctx, _| {
                ctx.ops(100_000);
            },
        )
        .unwrap();
        let intervals = g.stream_op_intervals().to_vec();
        assert_eq!(intervals.len(), 2);
        // Both started at 0: distinct engines, no contention.
        assert_eq!(intervals[0].start_s, 0.0);
        assert_eq!(intervals[1].start_s, 0.0);
        assert!(crate::stream::overlap_ratio(&intervals) > 0.0);
        assert_eq!(g.elapsed_s(), 0.0, "async work leaves the host clock");
        g.sync_streams();
        let wall = intervals[0].end_s.max(intervals[1].end_s);
        assert_eq!(g.elapsed_s(), wall, "sync joins to the last completion");
        // The data landed (functional simulation is eager).
        assert_eq!(g.view(a).unwrap()[5], 5.0);
    }

    #[test]
    fn same_engine_contention_serializes() {
        let mut g = gpu();
        let streams = g.enable_streams(2);
        let a = g.alloc(1 << 20).unwrap();
        let b = g.alloc(1 << 20).unwrap();
        let data = vec![1.0f32; 1 << 20];
        g.set_stream(streams[0]);
        g.upload(a, &data).unwrap();
        g.set_stream(streams[1]);
        g.upload(b, &data).unwrap();
        let iv = g.stream_op_intervals();
        assert_eq!(iv[1].start_s, iv[0].end_s, "one copy engine serialises");
    }

    #[test]
    fn event_wait_orders_cross_stream_work() {
        let mut g = gpu();
        let streams = g.enable_streams(2);
        let a = g.alloc(1 << 20).unwrap();
        let data = vec![2.0f32; 1 << 20];
        g.set_stream(streams[0]);
        g.upload(a, &data).unwrap();
        let ev = g.create_event();
        g.record_event(streams[0], ev);
        g.wait_event(streams[1], ev);
        let dst = g.alloc(1024).unwrap();
        let cfg = LaunchConfig::new("after", 2, 64);
        g.set_stream(streams[1]);
        g.launch(
            &cfg,
            &[a],
            &[(dst, OutMode::Chunked { chunk: 512 })],
            |ctx, _| ctx.ops(10),
        )
        .unwrap();
        let iv = g.stream_op_intervals();
        assert!(
            iv[1].start_s >= iv[0].end_s,
            "waiter starts after the recorded position"
        );
        // A wait on a never-recorded event is a no-op.
        let ev2 = g.create_event();
        g.wait_event(streams[0], ev2);
    }

    #[test]
    fn enabled_but_unused_streams_are_bit_identical_to_sync() {
        let run = |with_streams: bool| -> (f64, Vec<f32>) {
            let mut g = gpu();
            if with_streams {
                let _ = g.enable_streams(2);
            }
            let src = g
                .alloc_from(&(0..512).map(|i| i as f32).collect::<Vec<_>>())
                .unwrap();
            let dst = g.alloc(512).unwrap();
            let cfg = LaunchConfig::new("scale", 4, 128);
            g.launch(
                &cfg,
                &[src],
                &[(dst, OutMode::Chunked { chunk: 128 })],
                |ctx, io| {
                    let b = ctx.block_id as usize;
                    ctx.gmem_read(128, 1);
                    ctx.gmem_write(128, 1);
                    for i in 0..128 {
                        io.owned[0][i] = io.inputs[0][b * 128 + i] * 0.5;
                    }
                    ctx.ops(128);
                },
            )
            .unwrap();
            g.sync_streams();
            (g.elapsed_s(), g.download(dst).unwrap())
        };
        let (t_off, x_off) = run(false);
        let (t_on, x_on) = run(true);
        assert_eq!(t_off.to_bits(), t_on.to_bits());
        assert_eq!(x_off, x_on);
    }

    #[test]
    fn cross_stream_race_detected_and_event_edge_clears_it() {
        let racy = |with_edge: bool| -> usize {
            let mut g: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
            let streams = g.enable_streams(2);
            let a = g.alloc(1024).unwrap();
            let dst = g.alloc(1024).unwrap();
            let data = vec![1.0f32; 1024];
            g.set_stream(streams[0]);
            g.upload(a, &data).unwrap();
            if with_edge {
                let ev = g.create_event();
                g.record_event(streams[0], ev);
                g.wait_event(streams[1], ev);
            }
            let cfg = LaunchConfig::new("reader", 2, 64);
            g.set_stream(streams[1]);
            g.launch(
                &cfg,
                &[a],
                &[(dst, OutMode::Chunked { chunk: 512 })],
                |ctx, io| {
                    ctx.gmem_read(512, 1);
                    let b = ctx.block_id as usize;
                    for i in 0..512 {
                        io.owned[0][i] = io.inputs[0][b * 512 + i];
                    }
                },
            )
            .unwrap();
            g.take_sanitizer_report()
                .unwrap()
                .hazards
                .iter()
                .filter(|h| h.kind == HazardKind::CrossStreamRace)
                .count()
        };
        assert!(
            racy(false) > 0,
            "unordered cross-stream use must be flagged"
        );
        assert_eq!(racy(true), 0, "event edge orders the access");
    }

    #[test]
    fn reset_clock_resets_stream_engines() {
        let mut g = gpu();
        let streams = g.enable_streams(2);
        let a = g.alloc(1024).unwrap();
        g.set_stream(streams[0]);
        g.upload(a, &vec![0.0f32; 1024]).unwrap();
        assert!(!g.stream_op_intervals().is_empty());
        g.reset_clock();
        assert!(g.stream_op_intervals().is_empty());
        g.set_stream(streams[1]);
        g.upload(a, &vec![0.0f32; 1024]).unwrap();
        assert_eq!(g.stream_op_intervals()[0].start_s, 0.0);
    }

    #[test]
    fn price_charges_exactly_what_launch_charges() {
        // The kernel's meters depend on the block id only; its numerics
        // are guarded by `pricing()`.
        let kernel = |ctx: &mut BlockCtx, io: &mut BlockIo<'_, f32>| {
            let b = ctx.block_id as usize;
            if !ctx.pricing() {
                for i in 0..128 {
                    io.owned[0][i] = io.inputs[0][b * 128 + i] + 1.0;
                }
            }
            ctx.gmem_read(128, 1 + b);
            ctx.gmem_write(128, 1);
            ctx.ops(64 * (b + 1));
            ctx.sync();
        };
        let cfg = LaunchConfig::new("meter[test]", 4, 128);
        let tracer = Tracer::enabled();
        let mut launched = gpu();
        launched.set_tracer(tracer.clone());
        let src = launched.alloc_from(&[1.0f32; 512]).unwrap();
        let dst = launched.alloc(512).unwrap();
        let exec = launched
            .launch(
                &cfg,
                &[src],
                &[(dst, OutMode::Chunked { chunk: 128 })],
                kernel,
            )
            .unwrap();
        let launch_spans = tracer.events().iter().filter(|e| e.cat == "gpu").count();

        let priced_tracer = Tracer::enabled();
        let mut priced = gpu();
        priced.set_tracer(priced_tracer.clone());
        let stats = priced.price(&cfg, kernel).unwrap();
        assert_eq!(format!("{stats:?}"), format!("{exec:?}"));
        assert_eq!(priced.elapsed_s().to_bits(), launched.elapsed_s().to_bits());
        assert_eq!(priced.timeline().len(), 1);
        assert_eq!(priced.allocated_bytes(), 0, "pricing allocates nothing");
        let priced_spans = priced_tracer
            .events()
            .iter()
            .filter(|e| e.cat == "gpu")
            .count();
        assert_eq!(
            priced_spans,
            launch_spans - 1,
            "no h2d instant when pricing"
        );

        // Residency is validated exactly like a launch.
        let too_big = LaunchConfig::new("huge", 1, 4096);
        assert!(priced.price(&too_big, kernel).is_err());
        assert_eq!(priced.timeline().len(), 1);
    }

    #[test]
    fn alloc_size_overflow_is_out_of_memory() {
        let mut g = gpu();
        assert!(matches!(
            g.alloc(usize::MAX / 2),
            Err(SimError::OutOfGlobalMemory {
                requested: usize::MAX,
                ..
            })
        ));
        assert_eq!(g.allocated_bytes(), 0);
    }

    /// A plan that fails some allocations fails the same ones, with the
    /// same log, on a device that frees and reuses storage in between as
    /// on one that never frees; a failed allocation takes no kept storage.
    #[test]
    fn recycling_moves_no_alloc_fault() {
        let lens = [64, 32, 64, 128, 16, 64, 32, 96, 64, 8, 64, 32];
        let mut failures = 0;
        for seed in 0..6 {
            let run = |free: bool| {
                let plan = FaultPlan::seeded(seed).with_alloc_failures(0.3);
                let mut g: Gpu<f32> = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
                let mut failed = Vec::new();
                for (k, &len) in lens.iter().enumerate() {
                    let kept = g.kept_bytes();
                    match g.alloc(len) {
                        Ok(id) => {
                            g.upload(id, &vec![1.0; len]).unwrap();
                            if free {
                                g.free(id).unwrap();
                            }
                        }
                        Err(e) => {
                            assert!(matches!(e, SimError::OutOfGlobalMemory { .. }));
                            assert_eq!(g.kept_bytes(), kept, "the failed alloc took storage");
                            failed.push(k);
                        }
                    }
                }
                (failed, g.take_fault_log())
            };
            let recycled = run(true);
            assert_eq!(recycled, run(false), "seed {seed}");
            failures += recycled.0.len();
        }
        assert!(failures > 0, "no allocation failed");
    }

    /// Storage that anything wrote into reads back as zeros once another
    /// buffer takes it.
    #[test]
    fn written_storage_is_zero_once_reallocated() {
        const N: usize = 256;
        type Writer = fn() -> (Gpu<f32>, BufferId);
        let writers: [(&str, Writer); 6] = [
            ("upload", || {
                let mut g = gpu();
                let id = g.alloc(N).unwrap();
                g.upload(id, &[1.0; N]).unwrap();
                (g, id)
            }),
            ("alloc_from", || {
                let mut g = gpu();
                let id = g.alloc_from(&[1.0; N]).unwrap();
                (g, id)
            }),
            ("launch", || {
                let mut g = gpu();
                let id = g.alloc(N).unwrap();
                let cfg = LaunchConfig::new("ones", 2, 32);
                g.launch(
                    &cfg,
                    &[],
                    &[(id, OutMode::Chunked { chunk: N / 2 })],
                    |_, io| {
                        io.owned[0].fill(1.0);
                    },
                )
                .unwrap();
                (g, id)
            }),
            ("failed launch", || {
                let mut g = gpu();
                let id = g.alloc(N).unwrap();
                let cfg = LaunchConfig::new("race", 2, 32);
                let race = g.launch(&cfg, &[], &[(id, OutMode::Scattered)], |_, io| {
                    io.scattered[0].set(3, 1.0);
                });
                assert!(matches!(race, Err(SimError::WriteRace { .. })));
                (g, id)
            }),
            ("bit flip", || {
                let plan = FaultPlan::seeded(6).with_bit_flips(1.0).with_max_faults(1);
                let mut g = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
                let id = g.alloc(N).unwrap();
                let cfg = LaunchConfig::new("nothing", 2, 32);
                let chunked = [(id, OutMode::Chunked { chunk: N / 2 })];
                g.launch(&cfg, &[], &chunked, |_, _| {}).unwrap();
                (g, id)
            }),
            ("h2d flip", || {
                let plan = FaultPlan::seeded(4)
                    .with_transfer_corruption(1.0)
                    .with_max_faults(1);
                let mut g = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
                let id = g.alloc(N).unwrap();
                g.upload(id, &[0.0; N]).unwrap();
                (g, id)
            }),
        ];
        for (name, write) in writers {
            let (mut g, id) = write();
            let zero_bits = |g: &Gpu<f32>, id| g.view(id).unwrap().iter().all(|v| v.to_bits() == 0);
            assert!(!zero_bits(&g, id), "{name} wrote nothing");
            g.free(id).unwrap();
            let again = g.alloc(N).unwrap();
            assert!(g.kept.is_empty(), "{name}: the storage was not reused");
            assert!(zero_bits(&g, again), "{name}");
        }
    }

    /// Storage never written is reused without a fill, shorter or longer
    /// (within its capacity), and still reads as zeros; so is storage
    /// whose written tail lies past a shorter buffer's end.
    #[test]
    fn unwritten_storage_reads_zero_reallocated_shorter_and_longer() {
        let mut g = gpu();
        let id = g.alloc(64).unwrap();
        g.free(id).unwrap();
        let short = g.alloc(16).unwrap();
        assert!(g.kept.is_empty(), "the storage was not reused");
        assert_eq!(g.view(short).unwrap(), &[0.0; 16]);
        g.free(short).unwrap();
        let long = g.alloc(64).unwrap();
        assert!(g.kept.is_empty(), "the storage was not reused");
        assert_eq!(g.view(long).unwrap(), &[0.0; 64]);
        g.upload(long, &[1.0; 64]).unwrap();
        g.free(long).unwrap();
        let short = g.alloc(16).unwrap();
        assert_eq!(g.view(short).unwrap(), &[0.0; 16]);
        g.free(short).unwrap();
        let long = g.alloc(64).unwrap();
        assert!(g.kept.is_empty(), "the storage was not reused");
        assert_eq!(g.view(long).unwrap(), &[0.0; 64]);
        g.free(long).unwrap();
        let longer = g.alloc(128).unwrap();
        assert_eq!(g.kept.len(), 1, "no kept storage holds 128 elements");
        assert_eq!(g.view(longer).unwrap(), &[0.0; 128]);
    }

    #[test]
    fn recycled_buffer_is_uninitialised_for_initcheck() {
        let mut g = gpu();
        g.enable_sanitizer();
        let id = g.alloc_from(&[1.0f32; 64]).unwrap();
        g.free(id).unwrap();
        let src = g.alloc(64).unwrap();
        assert!(g.kept.is_empty(), "the storage was not reused");
        let dst = g.alloc(64).unwrap();
        let cfg = LaunchConfig::new("read", 1, 32);
        let outputs = [(dst, OutMode::Chunked { chunk: 64 })];
        g.launch(&cfg, &[src], &outputs, |_, io| {
            let v = io.load(0, 5, 0, "read");
            io.store(0, 5, v, 0, "write");
        })
        .unwrap();
        let report = g.take_sanitizer_report().unwrap();
        assert!(
            report
                .hazards
                .iter()
                .any(|h| h.kind == HazardKind::UninitializedRead),
            "{report:?}"
        );
    }

    /// Live buffers plus kept storage stay within global memory: kept
    /// storage is dropped, oldest first, rather than refuse an allocation.
    #[test]
    fn kept_storage_stays_within_global_memory() {
        let mut g = gpu();
        let cap = g.spec().queryable().global_mem_bytes;
        let elems = cap / 4;
        let within = |g: &Gpu<f32>| assert!(g.allocated_bytes() + g.kept_bytes() <= cap);
        let half = g.alloc(elems / 2).unwrap();
        g.free(half).unwrap();
        within(&g);
        assert_eq!(g.kept_bytes(), cap / 2);
        // Too large for the kept half, which would overflow beside it.
        let most = g.alloc(elems / 4 * 3).unwrap();
        within(&g);
        assert_eq!(g.kept_bytes(), 0);
        let rest = g.alloc(elems - elems / 4 * 3).unwrap();
        assert_eq!(g.allocated_bytes(), cap);
        g.free(most).unwrap();
        g.free(rest).unwrap();
        within(&g);
        assert_eq!(g.kept_bytes(), cap);
        let all = g.alloc(elems).unwrap();
        within(&g);
        g.free(all).unwrap();
        within(&g);
    }

    #[test]
    fn f64_device_works() {
        let mut g: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let id = g.alloc_from(&[1.0f64, 2.0]).unwrap();
        assert_eq!(g.allocated_bytes(), 16);
        assert_eq!(g.download(id).unwrap(), vec![1.0, 2.0]);
    }
}
