//! Asynchronous stream/event execution model: CUDA-style streams with one
//! compute engine and one copy engine, plus the cross-stream dependency
//! tracker behind the sanitizer's new cross-stream mode.
//!
//! A [`Stream`](crate::Stream) is an in-order queue of device work. Every
//! device has the default stream, [`Stream::DEFAULT`] (CUDA's stream 0),
//! and [`crate::Gpu::enable_streams`] creates up to [`MAX_STREAMS`] more.
//!
//! The default stream is synchronous with the host: an operation on it
//! starts at the host clock, a kernel advances the host clock by its
//! modelled time, and a copy is untimed host staging, exactly as the
//! simulator timed every operation before streams existed. It occupies no
//! engine queue, logs no busy interval and is not race-tracked.
//!
//! Work on *created* streams may overlap in simulated time, subject to
//! engine contention: the modelled device has **one kernel-execution engine
//! and one copy engine** (the paper-era GTX 470 has exactly one copy
//! engine), so two streams issuing compute work serialise on the compute
//! engine — the serialization fallback — while a copy on one stream
//! genuinely overlaps a kernel on another. Each such operation starts at
//!
//! ```text
//! start = max(host clock at enqueue, stream ready time, engine free time)
//! ```
//!
//! and the stream's ready time and the engine's free time both advance to
//! `start + duration`. [`Event`](crate::Event)s capture a stream's ready
//! time when recorded; a waiting stream's ready time joins to the recorded
//! time, which is exactly CUDA's `cudaStreamWaitEvent` happens-before edge
//! (a wait on a never-recorded event completes immediately, also per CUDA —
//! the *static* schedule certifier in `trisolve-analyze` refutes such
//! dangling waits before execution). Copies on created streams charge
//! modelled PCIe time ([`PCIE_LATENCY_S`] + bytes /
//! [`PCIE_BANDWIDTH_BYTES_PER_S`]).
//!
//! The [`CrossStreamTracker`] is a FastTrack-style vector-clock race
//! detector at buffer granularity: every operation on a created stream is
//! a tick on its stream's clock, event record/wait transports clocks
//! between streams, and two operations on different streams touching the
//! same buffer (at least one writing) without a happens-before path between
//! them raise [`crate::HazardKind::CrossStreamRace`].

use crate::sanitizer::{AccessSite, Hazard, HazardKind, Region};
use std::collections::HashMap;

/// Maximum number of streams [`crate::Gpu::enable_streams`] hands out.
///
/// Fixed so the per-stream Chrome-trace categories can be `&'static str`
/// (see [`Stream::category`]); four streams is already twice what the
/// two-engine device can keep busy.
pub const MAX_STREAMS: usize = 4;

/// Trace categories by stream index: `stream/<id>` for the created
/// streams (the Chrome-trace exporter gives each distinct category its own
/// thread row, so pipelined traces show one lane per stream), then `gpu`
/// for the default stream.
const STREAM_CATS: [&str; MAX_STREAMS + 1] =
    ["stream/0", "stream/1", "stream/2", "stream/3", "gpu"];

/// Modelled host↔device bandwidth for *asynchronous* copies, in bytes per
/// second. PCIe 2.0 x16 achieves ~6 GB/s of the 8 GB/s theoretical peak —
/// the link the paper's GTX 470 sits on. Like the analyzer's transaction
/// constants, this is a modelled constant, not a queryable property.
pub const PCIE_BANDWIDTH_BYTES_PER_S: f64 = 6.0e9;

/// Fixed per-copy latency (driver + DMA setup) charged to every
/// asynchronous transfer, in seconds.
pub const PCIE_LATENCY_S: f64 = 20e-6;

/// Modelled duration of one asynchronous host↔device copy of `bytes`.
pub fn transfer_time_s(bytes: usize) -> f64 {
    PCIE_LATENCY_S + bytes as f64 / PCIE_BANDWIDTH_BYTES_PER_S
}

/// Handle to one in-order work queue on a [`crate::Gpu`]: the default
/// stream, or one obtained from [`crate::Gpu::enable_streams`] (only valid
/// on the device that created it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stream(pub(crate) usize);

impl Stream {
    /// The default stream, CUDA's stream 0: synchronous with the host (see
    /// the [module docs](self)). Every device has it.
    pub const DEFAULT: Stream = Stream(MAX_STREAMS);

    /// The stream's index: created streams are numbered densely from 0,
    /// the default stream after every stream a device can create.
    pub fn index(&self) -> usize {
        self.0
    }

    /// The trace category of the stream's operations: `"stream/<id>"`,
    /// or `"gpu"` on the default stream.
    pub fn category(&self) -> &'static str {
        STREAM_CATS[self.0]
    }
}

/// Handle to one event created by [`crate::Gpu::create_event`]. Records a
/// stream's position when recorded; waiting on it orders another stream
/// after that position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event(pub(crate) usize);

impl Event {
    /// The event's index (0-based, dense).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Which engine an asynchronous operation occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EngineKind {
    /// Kernel execution.
    Compute,
    /// H2D/D2H DMA.
    Copy,
}

/// One asynchronous operation's busy interval on the simulated clock, for
/// overlap accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpInterval {
    /// Index of the stream the operation ran on.
    pub stream: usize,
    /// Simulated start time, seconds.
    pub start_s: f64,
    /// Simulated completion time, seconds.
    pub end_s: f64,
}

impl OpInterval {
    /// The operation's busy time in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Wall-clock span of a set of intervals: latest end minus earliest start
/// (0 when empty).
pub fn wall_time_s(intervals: &[OpInterval]) -> f64 {
    let start = intervals
        .iter()
        .map(|i| i.start_s)
        .fold(f64::INFINITY, f64::min);
    let end = intervals
        .iter()
        .map(|i| i.end_s)
        .fold(f64::NEG_INFINITY, f64::max);
    if end > start {
        end - start
    } else {
        0.0
    }
}

/// Sum of busy times of a set of intervals — the wall clock a single
/// stream would need for the same work.
pub fn serial_time_s(intervals: &[OpInterval]) -> f64 {
    intervals.iter().map(OpInterval::duration_s).sum()
}

/// Fraction of serial time hidden by overlap: `1 - wall/serial`, clamped
/// to `[0, 1]` (0 for an empty set or a fully serialised schedule).
pub fn overlap_ratio(intervals: &[OpInterval]) -> f64 {
    let serial = serial_time_s(intervals);
    if serial <= 0.0 {
        return 0.0;
    }
    (1.0 - wall_time_s(intervals) / serial).clamp(0.0, 1.0)
}

/// The engine/stream scheduling state of one device: per-stream ready
/// times of the created streams, the two engine free times, recorded
/// events and the interval log.
#[derive(Debug, Default)]
pub(crate) struct StreamEngines {
    /// Completion time of the last operation enqueued on each created
    /// stream.
    ready: Vec<f64>,
    compute_free: f64,
    copy_free: f64,
    /// Recorded completion time per event (`None` = created, not recorded).
    events: Vec<Option<f64>>,
    intervals: Vec<OpInterval>,
    /// Vector-clock race tracker; present when the sanitizer was active at
    /// [`crate::Gpu::enable_streams`] time.
    tracker: Option<CrossStreamTracker>,
}

impl StreamEngines {
    pub(crate) fn new(num_streams: usize, track: bool) -> Self {
        Self {
            ready: vec![0.0; num_streams],
            compute_free: 0.0,
            copy_free: 0.0,
            events: Vec::new(),
            intervals: Vec::new(),
            tracker: track.then(|| CrossStreamTracker::new(num_streams)),
        }
    }

    pub(crate) fn num_streams(&self) -> usize {
        self.ready.len()
    }

    /// The race tracker for an operation on `stream`, if one is attached
    /// and the stream is tracked (the default stream is not).
    pub(crate) fn tracker_for(&mut self, stream: Stream) -> Option<&mut CrossStreamTracker> {
        self.tracker.as_mut().filter(|_| stream != Stream::DEFAULT)
    }

    /// Schedule one operation of `dur_s` seconds on `stream`'s queue and
    /// the given engine, no earlier than `*host_s` (the host clock at
    /// enqueue). Returns the `(start, end)` interval.
    ///
    /// On the default stream the operation starts at the host clock and
    /// the host waits for it: a kernel moves `*host_s` to its end, and a
    /// copy is untimed staging that ends where it starts. It is not logged.
    pub(crate) fn schedule(
        &mut self,
        stream: Stream,
        engine: EngineKind,
        host_s: &mut f64,
        dur_s: f64,
    ) -> (f64, f64) {
        let now_s = *host_s;
        if stream == Stream::DEFAULT {
            if engine == EngineKind::Compute {
                *host_s += dur_s;
            }
            return (now_s, *host_s);
        }
        let stream = stream.0;
        let engine_free = match engine {
            EngineKind::Compute => self.compute_free,
            EngineKind::Copy => self.copy_free,
        };
        let start = now_s.max(self.ready[stream]).max(engine_free);
        let end = start + dur_s;
        match engine {
            EngineKind::Compute => self.compute_free = end,
            EngineKind::Copy => self.copy_free = end,
        }
        self.ready[stream] = end;
        self.intervals.push(OpInterval {
            stream,
            start_s: start,
            end_s: end,
        });
        (start, end)
    }

    pub(crate) fn create_event(&mut self) -> usize {
        self.events.push(None);
        self.events.len() - 1
    }

    /// Record `event` at `stream`'s current ready time. A no-op on the
    /// default stream: its work completes before the host issues anything
    /// else, so every later operation is already ordered after it.
    pub(crate) fn record_event(&mut self, stream: usize, event: usize) {
        let Some(&ready) = self.ready.get(stream) else {
            return;
        };
        self.events[event] = Some(ready);
        if let Some(t) = &mut self.tracker {
            t.record_event(stream, event);
        }
    }

    /// Make `stream` wait for `event`. Waiting on a never-recorded event
    /// completes immediately (CUDA semantics); the static certifier is
    /// what refutes such dangling waits. A no-op on the default stream,
    /// which runs at the host clock: join the streams first instead
    /// ([`crate::Gpu::sync_streams`]).
    pub(crate) fn wait_event(&mut self, stream: usize, event: usize) {
        let Some(ready) = self.ready.get_mut(stream) else {
            return;
        };
        if let Some(recorded) = self.events[event] {
            if recorded > *ready {
                *ready = recorded;
            }
        }
        if let Some(t) = &mut self.tracker {
            t.wait_event(stream, event);
        }
    }

    /// Latest ready time across every stream — where the host clock lands
    /// after a full device synchronisation.
    pub(crate) fn max_ready(&self) -> f64 {
        self.ready.iter().copied().fold(0.0, f64::max)
    }

    pub(crate) fn intervals(&self) -> &[OpInterval] {
        &self.intervals
    }

    /// Reset the scheduling clock state (per-stream ready times, engine
    /// free times, the interval log, and every recorded event time — the
    /// tracker's ordering knowledge survives, it is clock-independent).
    pub(crate) fn reset(&mut self) {
        for r in &mut self.ready {
            *r = 0.0;
        }
        self.compute_free = 0.0;
        self.copy_free = 0.0;
        self.intervals.clear();
        for e in &mut self.events {
            *e = None;
        }
    }
}

/// One access stamp in the [`CrossStreamTracker`]: which stream, at which
/// tick of that stream's clock, through which kind of operation.
#[derive(Debug, Clone, Copy)]
struct AccessStamp {
    stream: usize,
    tick: u64,
    /// Static operation-kind label (`"launch"`, `"h2d"`, `"d2h"`).
    site: &'static str,
}

/// Per-buffer shadow: the last write and the reads since it.
#[derive(Debug, Default)]
struct BufferOrder {
    last_write: Option<AccessStamp>,
    reads: Vec<AccessStamp>,
}

/// FastTrack-style vector-clock tracker for cross-stream buffer ordering.
///
/// Every asynchronous operation ticks its stream's component of that
/// stream's vector clock; recording an event snapshots the recording
/// stream's clock, and waiting on the event joins the snapshot into the
/// waiting stream's clock. An access stamp `(s, k)` happens-before the
/// current operation on stream `c` iff `s == c` or `vc[c][s] >= k`.
#[derive(Debug)]
pub(crate) struct CrossStreamTracker {
    /// `vc[s][t]`: the latest tick of stream `t` that stream `s` is
    /// ordered after.
    vc: Vec<Vec<u64>>,
    /// Clock snapshots taken by [`CrossStreamTracker::record_event`].
    event_vcs: HashMap<usize, Vec<u64>>,
    /// Shadow order state per global-memory buffer slot.
    buffers: HashMap<usize, BufferOrder>,
}

impl CrossStreamTracker {
    fn new(num_streams: usize) -> Self {
        Self {
            vc: vec![vec![0; num_streams]; num_streams],
            event_vcs: HashMap::new(),
            buffers: HashMap::new(),
        }
    }

    fn ordered(&self, stream: usize, stamp: &AccessStamp) -> bool {
        stamp.stream == stream || self.vc[stream][stamp.stream] >= stamp.tick
    }

    fn hazard(label: &str, slot: usize, first: &AccessStamp, second: &AccessStamp) -> Hazard {
        let write_of = |site: &'static str| site != "d2h" && site != "read";
        Hazard {
            kind: HazardKind::CrossStreamRace,
            kernel: label.to_string(),
            block: 0,
            region: Region::Global(slot),
            index: 0,
            first: Some(AccessSite {
                site: first.site,
                tid: first.stream,
                write: write_of(first.site),
            }),
            second: AccessSite {
                site: second.site,
                tid: second.stream,
                write: write_of(second.site),
            },
        }
    }

    /// Record one asynchronous operation on `stream` that reads buffer
    /// slots `reads` and writes slots `writes`, returning any cross-stream
    /// races it forms with unordered earlier accesses. `site` is the
    /// operation kind (`"launch"`, `"h2d"`, `"d2h"`); `label` names the
    /// operation in the hazard report.
    pub(crate) fn on_op(
        &mut self,
        stream: usize,
        label: &str,
        site: &'static str,
        reads: &[usize],
        writes: &[usize],
    ) -> Vec<Hazard> {
        self.vc[stream][stream] += 1;
        let tick = self.vc[stream][stream];
        let read_site: &'static str = if site == "d2h" { "d2h" } else { "read" };
        let mut hazards = Vec::new();
        for &slot in reads {
            let entry = self.buffers.entry(slot).or_default();
            let stamp = AccessStamp {
                stream,
                tick,
                site: read_site,
            };
            if let Some(w) = entry.last_write {
                if !(w.stream == stream || self.vc[stream][w.stream] >= w.tick) {
                    hazards.push(Self::hazard(label, slot, &w, &stamp));
                }
            }
            self.buffers.entry(slot).or_default().reads.push(stamp);
        }
        for &slot in writes {
            let stamp = AccessStamp { stream, tick, site };
            let entry = self.buffers.entry(slot).or_default();
            let prior_write = entry.last_write;
            let prior_reads = std::mem::take(&mut entry.reads);
            entry.last_write = Some(stamp);
            if let Some(w) = prior_write {
                if !self.ordered(stream, &w) {
                    hazards.push(Self::hazard(label, slot, &w, &stamp));
                }
            }
            for r in &prior_reads {
                if r.stream != stream && !self.ordered(stream, r) {
                    hazards.push(Self::hazard(label, slot, r, &stamp));
                }
            }
        }
        hazards
    }

    fn record_event(&mut self, stream: usize, event: usize) {
        self.event_vcs.insert(event, self.vc[stream].clone());
    }

    fn wait_event(&mut self, stream: usize, event: usize) {
        if let Some(snapshot) = self.event_vcs.get(&event) {
            for (own, ev) in self.vc[stream].iter_mut().zip(snapshot) {
                *own = (*own).max(*ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_serialize_on_one_engine_and_overlap_across_engines() {
        let mut e = StreamEngines::new(2, false);
        // Two compute ops on different streams contend for the single
        // compute engine: serialization fallback.
        let (s0, e0) = e.schedule(Stream(0), EngineKind::Compute, &mut 0.0, 1.0);
        let (s1, e1) = e.schedule(Stream(1), EngineKind::Compute, &mut 0.0, 1.0);
        assert_eq!((s0, e0), (0.0, 1.0));
        assert_eq!((s1, e1), (1.0, 2.0), "compute engine serialises");
        // A copy on stream 0 uses the copy engine: overlaps stream 1's
        // compute, starting as soon as stream 0 is ready.
        let (s2, e2) = e.schedule(Stream(0), EngineKind::Copy, &mut 0.0, 0.5);
        assert_eq!((s2, e2), (1.0, 1.5), "copy engine overlaps compute");
        assert_eq!(e.intervals().len(), 3);
        assert!((wall_time_s(e.intervals()) - 2.0).abs() < 1e-12);
        assert!((serial_time_s(e.intervals()) - 2.5).abs() < 1e-12);
        assert!(overlap_ratio(e.intervals()) > 0.0);
    }

    #[test]
    fn default_stream_runs_at_the_host_clock_and_logs_nothing() {
        let mut e = StreamEngines::new(2, true);
        e.schedule(Stream(0), EngineKind::Compute, &mut 0.0, 4.0);
        let mut host = 1.5;
        let kernel = e.schedule(Stream::DEFAULT, EngineKind::Compute, &mut host, 2.0);
        assert_eq!((kernel, host), ((1.5, 3.5), 3.5), "the host waits");
        let copy = e.schedule(Stream::DEFAULT, EngineKind::Copy, &mut host, 9.0);
        assert_eq!((copy, host), ((3.5, 3.5), 3.5), "staging is untimed");
        assert_eq!(e.intervals().len(), 1);
        assert!(e.tracker_for(Stream::DEFAULT).is_none());
        assert!(e.tracker_for(Stream(1)).is_some());
        // Events neither record nor wait on the default stream.
        let ev = e.create_event();
        e.record_event(Stream::DEFAULT.index(), ev);
        e.wait_event(1, ev);
        e.wait_event(Stream::DEFAULT.index(), ev);
        assert_eq!(
            e.schedule(Stream(1), EngineKind::Copy, &mut 0.0, 1.0).0,
            0.0
        );
    }

    #[test]
    fn ops_never_start_before_enqueue_time() {
        let mut e = StreamEngines::new(1, false);
        let (s, _) = e.schedule(Stream(0), EngineKind::Compute, &mut 3.0, 1.0);
        assert_eq!(s, 3.0);
    }

    #[test]
    fn single_stream_has_no_overlap() {
        let mut e = StreamEngines::new(1, false);
        e.schedule(Stream(0), EngineKind::Copy, &mut 0.0, 0.25);
        e.schedule(Stream(0), EngineKind::Compute, &mut 0.0, 1.0);
        e.schedule(Stream(0), EngineKind::Copy, &mut 0.0, 0.25);
        let wall = wall_time_s(e.intervals());
        let serial = serial_time_s(e.intervals());
        assert!((wall - serial).abs() < 1e-12, "one stream is back-to-back");
        assert_eq!(overlap_ratio(e.intervals()), 0.0);
    }

    #[test]
    fn event_wait_orders_streams() {
        let mut e = StreamEngines::new(2, false);
        e.schedule(Stream(0), EngineKind::Compute, &mut 0.0, 2.0);
        let ev = e.create_event();
        e.record_event(0, ev);
        e.wait_event(1, ev);
        let (s, _) = e.schedule(Stream(1), EngineKind::Copy, &mut 0.0, 0.5);
        assert_eq!(s, 2.0, "stream 1 waits for the recorded position");
        assert_eq!(e.max_ready(), 2.5);
    }

    #[test]
    fn wait_on_unrecorded_event_is_a_noop() {
        let mut e = StreamEngines::new(2, false);
        let ev = e.create_event();
        e.wait_event(1, ev);
        let (s, _) = e.schedule(Stream(1), EngineKind::Compute, &mut 0.0, 1.0);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn reset_clears_clock_state() {
        let mut e = StreamEngines::new(2, false);
        e.schedule(Stream(0), EngineKind::Compute, &mut 0.0, 1.0);
        let ev = e.create_event();
        e.record_event(0, ev);
        e.reset();
        assert_eq!(e.max_ready(), 0.0);
        assert!(e.intervals().is_empty());
        // The event was un-recorded: waiting on it is a no-op again.
        e.wait_event(1, ev);
        let (s, _) = e.schedule(Stream(1), EngineKind::Compute, &mut 0.0, 1.0);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn tracker_flags_unordered_write_read_and_clears_after_event_edge() {
        let mut t = CrossStreamTracker::new(2);
        // Stream 0 writes buffer 7; stream 1 reads it with no ordering.
        assert!(t.on_op(0, "h2d[b0]", "h2d", &[], &[7]).is_empty());
        let hz = t.on_op(1, "stage1[k]", "launch", &[7], &[]);
        assert_eq!(hz.len(), 1);
        assert_eq!(hz[0].kind, HazardKind::CrossStreamRace);
        assert_eq!(hz[0].region, Region::Global(7));
        assert_eq!(hz[0].first.unwrap().tid, 0);
        assert!(hz[0].first.unwrap().write);
        assert!(!hz[0].second.write);

        // Same pattern with an event edge in between: ordered, no hazard.
        let mut t = CrossStreamTracker::new(2);
        assert!(t.on_op(0, "h2d[b0]", "h2d", &[], &[7]).is_empty());
        t.record_event(0, 0);
        t.wait_event(1, 0);
        assert!(t.on_op(1, "stage1[k]", "launch", &[7], &[]).is_empty());
    }

    #[test]
    fn tracker_flags_write_after_unordered_read() {
        let mut t = CrossStreamTracker::new(2);
        assert!(t.on_op(0, "d2h[b0]", "d2h", &[3], &[]).is_empty());
        let hz = t.on_op(1, "base[k]", "launch", &[], &[3]);
        assert_eq!(hz.len(), 1, "WAR without an event edge races");
        assert!(!hz[0].first.unwrap().write);
        assert!(hz[0].second.write);
    }

    #[test]
    fn tracker_same_stream_is_always_ordered() {
        let mut t = CrossStreamTracker::new(2);
        assert!(t.on_op(0, "h2d", "h2d", &[], &[1]).is_empty());
        assert!(t.on_op(0, "k", "launch", &[1], &[2]).is_empty());
        assert!(t.on_op(0, "d2h", "d2h", &[2], &[]).is_empty());
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let small = transfer_time_s(4 * 1024);
        let big = transfer_time_s(4 * 1024 * 1024);
        assert!(small >= PCIE_LATENCY_S);
        assert!(big > small);
        assert!((big - small) > 0.9 * (4.0 * 1024.0 * 1024.0) / PCIE_BANDWIDTH_BYTES_PER_S);
    }
}
