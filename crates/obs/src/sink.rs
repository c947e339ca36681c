//! The sink API: where instrumented code hands events, and the cheap
//! clonable [`Tracer`] handle that every layer threads through.
//!
//! The central contract, mirroring the sanitizer's: a **disabled tracer is
//! a strict no-op**. Every recording method first checks whether a sink is
//! attached and returns immediately otherwise, and tracing never feeds the
//! simulator's cost model — so solve results *and* simulated timings are
//! bit-identical with tracing on or off (asserted by the workspace's
//! `tests/trace.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::event::{ArgValue, Phase, TraceEvent};
use crate::registry::MetricsRegistry;

/// The in-memory trace sink: an append-only event buffer plus named
/// atomic counters and a monotonic simulated-clock gauge.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    events: Mutex<Vec<TraceEvent>>,
    seq: AtomicU64,
    /// f64 bits of the latest simulated timestamp seen, so non-GPU
    /// emitters (e.g. the tuner's search loop) can stamp events with
    /// monotonic sim-time without holding a `Gpu` reference.
    clock_us_bits: AtomicU64,
    counters: RwLock<BTreeMap<&'static str, AtomicU64>>,
    /// Aggregated latency histograms (per kernel family, per stage, per
    /// solve, per tuner eval), recorded via [`Tracer::observe`].
    registry: MetricsRegistry,
}

impl TraceBuffer {
    /// An empty buffer with the clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all recorded events, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace buffer poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace buffer poisoned").len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let map = self.counters.read().expect("counter map poisoned");
        map.iter()
            .map(|(k, v)| (*k, v.load(Ordering::Relaxed)))
            .collect()
    }

    /// The buffer's metrics registry (histograms recorded alongside the
    /// event stream).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Record one event. The buffer assigns the sequence number.
    pub fn record(
        &self,
        phase: Phase,
        cat: &'static str,
        name: String,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = TraceEvent {
            seq,
            ts_us,
            dur_us,
            phase,
            cat,
            name,
            args,
        };
        self.events.lock().expect("trace buffer poisoned").push(ev);
    }

    /// Add `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        {
            let map = self.counters.read().expect("counter map poisoned");
            if let Some(c) = map.get(name) {
                c.fetch_add(delta, Ordering::Relaxed);
                return;
            }
        }
        let mut map = self.counters.write().expect("counter map poisoned");
        map.entry(name)
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Advance the simulated-time gauge (monotonic: stale values are kept).
    pub fn set_clock_us(&self, ts_us: f64) {
        // Monotonic max over f64 bit patterns; non-negative floats order
        // the same as their bit patterns, so a CAS loop on bits suffices.
        let new_bits = ts_us.to_bits();
        let mut cur = self.clock_us_bits.load(Ordering::Relaxed);
        while f64::from_bits(cur) < ts_us {
            match self.clock_us_bits.compare_exchange_weak(
                cur,
                new_bits,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value of the simulated-time gauge, in microseconds.
    pub fn clock_us(&self) -> f64 {
        f64::from_bits(self.clock_us_bits.load(Ordering::Relaxed))
    }
}

/// A cheap, clonable handle to an optional [`TraceBuffer`].
///
/// `Tracer::default()` / [`Tracer::disabled`] carry no sink: every method
/// is a branch-and-return no-op. [`Tracer::enabled`] allocates a fresh
/// shared buffer; clones share it.
///
/// Callers on hot paths should guard argument construction with
/// [`Tracer::is_enabled`] so the disabled path does not even build the
/// argument vector.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<TraceBuffer>>,
}

impl Tracer {
    /// A tracer with no sink attached — every call is a no-op.
    pub fn disabled() -> Self {
        Self { sink: None }
    }

    /// A tracer recording into a fresh shared [`TraceBuffer`].
    pub fn enabled() -> Self {
        Self {
            sink: Some(Arc::new(TraceBuffer::new())),
        }
    }

    /// True when a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The attached buffer, if any.
    pub fn buffer(&self) -> Option<&TraceBuffer> {
        self.sink.as_deref()
    }

    /// Record a complete span: `[ts_us, ts_us + dur_us]` in simulated time.
    pub fn span(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(Phase::Span, cat, name.into(), ts_us, dur_us, args);
            sink.set_clock_us(ts_us + dur_us);
        }
    }

    /// Record an instant event at an explicit simulated timestamp.
    pub fn instant(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        ts_us: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(Phase::Instant, cat, name.into(), ts_us, 0.0, args);
            sink.set_clock_us(ts_us);
        }
    }

    /// Record an instant event stamped with the current clock gauge —
    /// for emitters (e.g. the tuner's search loop) that do not advance
    /// simulated time themselves.
    pub fn instant_now(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(sink) = &self.sink {
            let ts = sink.clock_us();
            sink.record(Phase::Instant, cat, name.into(), ts, 0.0, args);
        }
    }

    /// Add `delta` to a named monotonic counter. No-op when disabled.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.counter_add(name, delta);
        }
    }

    /// Advance the simulated-clock gauge (monotonic). No-op when disabled.
    pub fn set_clock_us(&self, ts_us: f64) {
        if let Some(sink) = &self.sink {
            sink.set_clock_us(ts_us);
        }
    }

    /// Current simulated-clock gauge in microseconds (0 when disabled).
    pub fn clock_us(&self) -> f64 {
        self.sink.as_ref().map_or(0.0, |s| s.clock_us())
    }

    /// Snapshot of recorded events (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.sink.as_ref().map_or_else(Vec::new, |s| s.events())
    }

    /// Number of recorded events (0 when disabled).
    pub fn event_count(&self) -> usize {
        self.sink.as_ref().map_or(0, |s| s.len())
    }

    /// Snapshot of counters (empty when disabled).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.sink.as_ref().map_or_else(Vec::new, |s| s.counters())
    }

    /// Record one latency sample into the named registry histogram
    /// (see [`MetricsRegistry`] for the `"base/label"` naming
    /// convention). Strict no-op when disabled, like every other
    /// recording method — histograms never feed the cost model, so the
    /// bit-identity contract holds with observation on or off.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(sink) = &self.sink {
            sink.registry().observe(name, value);
        }
    }

    /// The attached buffer's metrics registry, if enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.sink.as_ref().map(|s| s.registry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::arg;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.span("gpu", "k", 0.0, 1.0, vec![arg("grid", 1usize)]);
        t.instant("engine", "e", 2.0, Vec::new());
        t.instant_now("tuner", "eval", Vec::new());
        t.counter_add("launches", 1);
        t.set_clock_us(99.0);
        t.observe("solve_ms", 1.0);
        assert!(!t.is_enabled());
        assert_eq!(t.event_count(), 0);
        assert!(t.events().is_empty());
        assert!(t.counters().is_empty());
        assert_eq!(t.clock_us(), 0.0);
        assert!(t.registry().is_none());
    }

    #[test]
    fn observations_land_in_the_shared_registry() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t.observe("kernel_ms/stage2", 1.0);
        t2.observe("kernel_ms/stage2", 3.0);
        let reg = t.registry().expect("enabled tracer has a registry");
        let h = reg.histogram("kernel_ms/stage2").expect("recorded");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 4.0);
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t.span("gpu", "a", 0.0, 5.0, Vec::new());
        t2.instant("engine", "b", 5.0, Vec::new());
        assert_eq!(t.event_count(), 2);
        let evs = t2.events();
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[0].name, "a");
        assert_eq!(evs[1].name, "b");
    }

    #[test]
    fn clock_is_monotonic_and_advanced_by_spans() {
        let t = Tracer::enabled();
        t.span("gpu", "a", 10.0, 5.0, Vec::new());
        assert_eq!(t.clock_us(), 15.0);
        t.set_clock_us(3.0); // stale — ignored
        assert_eq!(t.clock_us(), 15.0);
        t.instant_now("tuner", "eval", Vec::new());
        assert_eq!(t.events()[1].ts_us, 15.0);
    }

    #[test]
    fn counters_accumulate() {
        let t = Tracer::enabled();
        t.counter_add("launches", 1);
        t.counter_add("launches", 2);
        t.counter_add("h2d_bytes", 64);
        assert_eq!(t.counters(), vec![("h2d_bytes", 64), ("launches", 3)]);
    }
}
