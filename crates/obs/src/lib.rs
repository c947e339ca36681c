#![warn(missing_docs)]

//! # trisolve-obs
//!
//! The workspace's tracing and metrics layer: a lightweight,
//! zero-dependency sink for **simulated-time** spans, typed events, and
//! counters, with Chrome trace-event / JSONL exporters and an aggregate
//! [`MetricsReport`].
//!
//! Three layers emit into it:
//!
//! * `gpu-sim` — one span per kernel launch (label, grid/block,
//!   residency, cost counters) plus H2D/D2H transfer instants and
//!   sanitizer hazard instants;
//! * `core::engine` — session/solve/stage spans, so the stage timeline is
//!   a projection of the trace;
//! * `autotune` — one event per candidate evaluated by the
//!   microbenchmark harness and per probe/decision taken by the pruned
//!   search, so the dynamic tuner's search tree is reconstructible.
//!
//! ## The no-op contract
//!
//! A disabled [`Tracer`] (the default) records nothing and costs one
//! branch per call site. Tracing never feeds the simulator's cost model,
//! so solve results **and** simulated timings are bit-identical with
//! tracing on or off — asserted by the workspace's trace tests, mirroring
//! the sanitizer's contract.
//!
//! ## The performance observatory
//!
//! Three modules turn the raw trace into *performance* answers:
//! [`hist`] (log-bucketed, exactly-mergeable latency histograms:
//! p50/p90/p99/p99.9 per kernel family, per stage, per solve),
//! [`roofline`] (achieved bandwidth, arithmetic intensity, and a
//! [`LimiterVerdict`] re-derived per launch from the span's cost
//! counters — asserted to agree with `gpu-sim`'s internal limiter), and
//! [`registry`] (a clonable [`MetricsRegistry`] with Prometheus-text and
//! JSON exporters, the aggregation point a serving layer scrapes).
//!
//! ## Example
//!
//! ```
//! use trisolve_obs::{arg, chrome_trace, MetricsReport, Tracer};
//!
//! let tracer = Tracer::enabled();
//! tracer.span("gpu", "stage2[interleaved]", 0.0, 42.0, vec![
//!     arg("grid", 64usize),
//!     arg("gmem_read_bytes", 1_048_576u64),
//! ]);
//! tracer.counter_add("launches", 1);
//!
//! let events = tracer.events();
//! let json = chrome_trace(&events, &tracer.counters());
//! assert!(json.contains("\"traceEvents\""));
//! let report = MetricsReport::from_trace(&events, &tracer.counters());
//! assert_eq!(report.kernels[0].family, "stage2");
//! ```

pub mod event;
pub mod export;
pub mod hist;
pub mod metrics;
pub mod registry;
pub mod roofline;
pub mod sink;

pub use event::{arg, ArgValue, Phase, TraceEvent};
pub use export::{chrome_trace, jsonl, tid_for_cat};
pub use hist::{Histogram, Percentiles};
pub use metrics::{KernelSummary, MetricsReport};
pub use registry::MetricsRegistry;
pub use roofline::{verdict_from_components, DevicePeaks, LimiterVerdict, RooflineSample};
pub use sink::{TraceBuffer, Tracer};
