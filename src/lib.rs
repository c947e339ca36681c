#![warn(missing_docs)]

//! # trisolve
//!
//! An auto-tuned multi-stage solver for large tridiagonal systems on a
//! simulated GPU — a full Rust reproduction of Davidson, Zhang & Owens,
//! *"An Auto-tuned Method for Solving Large Tridiagonal Systems on the
//! GPU"* (IPDPS 2011).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`tridiag`] — tridiagonal algebra: system types, Thomas/LU/CR/PCR and
//!   hybrid solvers, workload generators, norms, batched CPU drivers;
//! * [`gpu`] — the functional GPU machine simulator (devices of the paper's
//!   Table I, launch API, analytic timing model, MKL-class CPU model);
//! * [`solver`] — the paper's multi-stage solver (stage kernels, plans,
//!   driver);
//! * [`autotune`] — default / machine-query / self-tuned parameter
//!   selection, the pruned-search framework, and the tuning cache;
//! * [`dnc`] — the §VI-C divide-and-conquer generalisation (auto-tuned
//!   multi-stage merge sort);
//! * [`analysis`] — the static kernel & plan analyzer: affine
//!   access-pattern proofs (OOB- and race-freedom), bank-conflict and
//!   coalescing classification, plan lints and tuner search-space pruning;
//! * [`harness`] — the skeleton the self-checking commands share: one
//!   options type, one fixture verdict, one report with its JSON printer
//!   and exit rule, and the typed option parser of the `trisolve` binary;
//! * [`sanitize`] — the `trisolve sanitize` harness: injected-hazard
//!   fixtures plus the shipping-kernel sweep under the dynamic sanitizer;
//! * [`analyze`] — the `trisolve analyze` harness: planted-defect proof
//!   fixtures, the full-matrix static certification sweep, and
//!   cross-validation of static verdicts against the dynamic sanitizer;
//! * [`chaos`] — the `trisolve chaos` harness: forced-fault fixtures plus
//!   seeded fault-injection campaigns proving the resilience layer
//!   (retries, residual verification, graceful degradation to CPU)
//!   recovers the paper's workload matrix;
//! * [`serve`] — the fault-tolerant solver service: bounded
//!   admission-controlled request queues with per-request deadlines,
//!   request coalescing, per-device circuit breakers, and a crash-safe
//!   on-disk plan database warm-starting the dynamic tuner;
//! * [`serve_sim`] — the `trisolve serve-sim` harness: planted-corruption
//!   and breaker-lifecycle fixtures plus seeded load-replay campaigns
//!   (chaos mode included) proving the service loses no request;
//! * [`obs`] — the unified tracing & metrics layer: per-launch spans on the
//!   simulated clock, tuner-search telemetry, Chrome-trace/JSONL export,
//!   latency histograms and roofline attribution;
//! * [`report`] — the `trisolve report` harness: the performance
//!   observatory (per-family percentiles, roofline limiter verdicts
//!   cross-checked against the simulator) and the bench-regression gate.
//!
//! ## Quickstart
//!
//! ```
//! use trisolve::prelude::*;
//!
//! // A batch of 32 diagonally dominant systems of 4096 equations.
//! let shape = WorkloadShape::new(32, 4096);
//! let batch = random_dominant::<f32>(shape, 42).unwrap();
//!
//! // A simulated GeForce GTX 470, and parameters tuned for it at runtime.
//! let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
//! let mut tuner = DynamicTuner::new();
//! tuner.tune_for(&mut gpu, shape);
//! let params = tuner.params_for(shape, gpu.spec().queryable(), 4);
//!
//! // Solve and verify.
//! let outcome = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
//! let residual = batch_worst_relative_residual(&batch, &outcome.x).unwrap();
//! assert!(residual < 1e-4);
//! println!("solved in {:.3} simulated ms", outcome.sim_time_ms());
//! ```

pub mod analyze;
pub mod chaos;
pub mod harness;
pub mod report;
pub mod sanitize;
pub mod serve_sim;

pub use trisolve_analyze as analysis;
pub use trisolve_autotune as autotune;
pub use trisolve_core as solver;
pub use trisolve_dnc as dnc;
pub use trisolve_gpu_sim as gpu;
pub use trisolve_obs as obs;
pub use trisolve_serve as serve;
pub use trisolve_tridiag as tridiag;

/// The most common imports in one place.
pub mod prelude {
    pub use trisolve_autotune::{
        solve_auto, DefaultTuner, DynamicTuner, StaticTuner, TunedConfig, Tuner, TuningBudget,
        TuningCache,
    };
    pub use trisolve_core::{
        solve_batch_on_gpu, Backend, BaseVariant, CpuBackend, GpuBackend, ResiliencePolicy,
        ResilientOutcome, SolveOutcome, SolvePlan, SolveSession, SolverParams, StageTimeline,
    };
    pub use trisolve_gpu_sim::{CpuSpec, DeviceSpec, FaultPlan, Gpu, QueryableProps};
    pub use trisolve_obs::{chrome_trace, jsonl, MetricsReport, TraceEvent, Tracer};
    pub use trisolve_tridiag::norms::{batch_worst_relative_residual, relative_residual};
    pub use trisolve_tridiag::workloads::{
        adi_heat_lines, cubic_spline, poisson_1d, random_dominant, WorkloadShape,
    };
    pub use trisolve_tridiag::{Scalar, SolverError, SystemBatch, TridiagonalSystem};
}
