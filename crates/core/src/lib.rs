#![warn(missing_docs)]

//! # trisolve-core
//!
//! The paper's primary contribution: a **multi-stage tridiagonal solver**
//! that handles workloads from many small systems to a single system filling
//! global memory, running on the simulated GPU of `trisolve-gpu-sim`.
//!
//! The solver composes four stages (paper §III, Figure 1):
//!
//! 1. **Stage 1 — cooperative splitting** (`kernels::stage1`): all
//!    processors cooperate to PCR-split the systems one step per *kernel
//!    launch* (a global synchronisation each time). Used only while there
//!    are too few independent systems to keep the machine busy.
//! 2. **Stage 2 — independent splitting** (`kernels::stage2`): one block per
//!    (sub)system, splitting in global memory down to the on-chip size with
//!    block-local synchronisation only — a single launch.
//! 3. **Stage 3 — on-chip PCR** (`kernels::base_kernel`): each block gathers
//!    one subsystem into shared memory and PCR-splits it until there are
//!    `thomas_switch` independent serial chains.
//! 4. **Stage 4 — Thomas**: each thread solves one chain serially,
//!    work-optimally.
//!
//! The three *switch points* between stages plus the base kernel's memory
//! layout variant form [`params::SolverParams`] — the tuning space explored
//! by `trisolve-autotune`.

pub mod engine;
pub mod error;
pub mod kernels;
pub mod params;
pub mod plan;
pub mod reference;
pub mod resilience;
pub mod schedule;
pub mod solver;

pub use engine::{
    PipelinedOutcome, SharedPlanCache, SolveSession, StageTimeline, StageTimelineEntry,
};
pub use error::CoreError;
pub use params::{BaseVariant, SolverParams, BASE_KERNEL_REGS_PER_THREAD};
pub use plan::{OpDescriptor, SolvePlan, StageOp};
pub use resilience::{RecoveryAction, RecoveryEvent, ResiliencePolicy, ResilientOutcome};
pub use schedule::{
    lower_schedule, pipelined_schedule, BufKey, NodeAction, Schedule, ScheduleNode,
    ScheduleViolation, SCHEDULE_OBLIGATIONS,
};
pub use solver::{solve_batch_on_gpu, SolveOutcome};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
