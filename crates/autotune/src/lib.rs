#![warn(missing_docs)]

//! # trisolve-autotune
//!
//! The paper's parameter-selection machinery (§IV): three strategies for
//! choosing the multi-stage solver's switch points, and the pruned-search
//! framework behind the dynamic one.
//!
//! * [`tuners::DefaultTuner`] — machine-oblivious constants that merely have
//!   to *work* on every device (§IV-B);
//! * [`tuners::StaticTuner`] — machine-query tuning from the runtime-visible
//!   device properties only (§IV-C);
//! * [`tuners::DynamicTuner`] — the self-tuner (§IV-D): seeded by the static
//!   guess, it searches the **decoupled** parameter groups with
//!   micro-benchmarks and saves the result for future runs in the
//!   [`plandb::PlanDb`] ([`auto::solve_auto`] tunes on first use).
//!
//! The two pruning ideas the paper contributes are first-class here:
//!
//! 1. **Decoupling** ([`space`]): independent parameter groups are searched
//!    additively (`16 + 32` evaluations) rather than jointly (`16 × 32`);
//!    the cost arithmetic is exported and asserted in tests.
//! 2. **Seeded local search** ([`search`]): hill climbing over power-of-two
//!    axes starting from the machine-query guess, which usually sits near
//!    the optimum of the (empirically near-unimodal) search space.

pub mod auto;
pub mod dispatch;
pub mod microbench;
pub mod plandb;
pub mod search;
pub mod space;
pub mod tuners;

pub use auto::{ensure_tuned, solve_auto};
pub use dispatch::{Dispatcher, Engine};
pub use microbench::Microbench;
pub use plandb::{DbOrigin, PlanDb, PLANDB_FORMAT_VERSION};
pub use search::{
    exhaustive_pow2, exhaustive_pow2_traced, hill_climb_pow2, hill_climb_pow2_traced, SearchStats,
};
pub use space::{decoupled_evaluations, joint_evaluations, Pow2Axis};
pub use tuners::{
    DefaultTuner, DynamicTuner, StaticTuner, TunedConfig, Tuner, TuningBudget, TUNED_CONFIG_VERSION,
};
