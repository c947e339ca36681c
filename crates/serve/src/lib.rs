//! trisolve-serve: a fault-tolerant solver service front-end.
//!
//! Clients submit `(systems × size × precision × layout × workload-class)`
//! jobs with per-request deadlines; the service runs them through a
//! bounded, admission-controlled queue per simulated device:
//!
//! 1. **Admission** ([`admission`]): each arrival is routed to the device
//!    with the earliest projected completion; if every queue is at its
//!    depth bound, every breaker is open, or no device can finish within
//!    the deadline under a conservative worst-case solve bound, the
//!    request is **shed immediately** with a structured rejection and a
//!    retry-after hint — bounded queues, no silent drops.
//! 2. **Coalescing** ([`service`]): at dispatch, queued requests with the
//!    same system size, precision, class, and layout preference merge into
//!    one batch, so many-small traffic rides the solver's batched paths.
//! 3. **Resilient solve**: every batch goes through
//!    `trisolve_core::SolveSession::solve_resilient`, so the existing
//!    retry / replan / layout-switch / CPU-fallback degradation chain
//!    applies per batch, and every completion is residual-verified.
//! 4. **Circuit breaker** ([`breaker`]): consecutive fault-heavy or
//!    exhausted windows trip a per-device breaker; its backlog re-routes,
//!    and the device rejoins via a half-open probe after a cooldown.
//! 5. **Plan database** ([`trisolve_autotune::PlanDb`]): tuned
//!    configurations persist to a checksummed, versioned on-disk database
//!    keyed by `device × precision × size-bucket × class × layout`,
//!    warm-starting the dynamic tuner across service restarts. Corrupt or
//!    version-skewed files are quarantined, never fatal.
//!
//! Everything runs on the simulated clock, so a whole campaign — sheds,
//! trips, recoveries, latencies — is deterministic per seed.

pub mod admission;
pub mod breaker;
pub mod loadgen;
pub mod request;
pub mod service;

pub use admission::{AdmissionPolicy, CostModel};
pub use breaker::{BreakerPolicy, BreakerState, CircuitBreaker, SolveSignal};
pub use loadgen::{generate, LoadProfile, Workload};
pub use request::{
    Completion, Disposition, LayoutPref, Precision, Rejection, ShedReason, SolveRequest,
};
pub use service::{
    class_tolerance, DeviceReport, LatencyStats, ServiceConfig, ServiceRunReport, ServiceStats,
    SolveService, StormWindow, TUNE_SYSTEMS,
};
