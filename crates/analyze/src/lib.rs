//! Static kernel & plan analyzer.
//!
//! Abstract interpretation over the kernel families of `trisolve-core`
//! (`base`, `stage1`, `stage2`, `repack`, `baselines`, and the
//! interleaved fast-path triple `interleave`/`ithomas`/`deinterleave`):
//! every [`StageOp`](trisolve_core::StageOp)'s descriptor contributes an
//! affine *access summary* ([`trisolve_core::kernels::access`]) — global and
//! shared index sets as functions of `system_size`, `num_systems`,
//! grid/block dimensions and PCR step — from which this crate statically
//! proves, for any `(device, plan, size)` point and without executing a
//! single simulated instruction:
//!
//! * **(a) OOB-freedom** of every global and shared access
//!   ([`proof::prove_kernel`]);
//! * **(b) inter-barrier race-freedom** of shared-memory writes, using
//!   the barrier-interval choreography each summary carries;
//! * **(c) per-warp bank-conflict degrees** and a **coalescing
//!   classification** predicting the layout winner — strided vs.
//!   coalesced by chain stride, and the interleaved batched-Thomas fast
//!   path inside the modeled many-small window ([`conflict`]);
//! * **(d) plan-level lints** — switch-point monotonicity, dead or
//!   unreachable stages, and a shared-memory budget proof across all
//!   power-of-two sizes per device ([`lints`]);
//! * **(e) numerical stability** — dominance preservation through the
//!   CR/PCR ladder, pivot-freedom of the Thomas phases, and an a-priori
//!   forward error bound per precision, interval-interpreted over each
//!   plan's [recurrences](trisolve_core::kernels::recurrence)
//!   ([`stability`]);
//! * **(f) happens-before safety of pipelined stream schedules** —
//!   use-before-ready, cross-stream write races, event wait-cycles and
//!   dangling waits over the lowered schedule DAG, with the pipelined
//!   executor's own admission function ([`schedule`]).
//!
//! The verdicts feed two consumers: `autotune`'s micro-benchmark harness
//! prunes provably-invalid candidates via [`statically_rejected`] and
//! [`prune::prune_onchip_axis`] before spending any simulated timing,
//! and the `trisolve analyze` subcommand sweeps the paper's fig5–8
//! matrix and exits nonzero on any unproven case. The dynamic sanitizer
//! (`gpu-sim::sanitizer`, DESIGN.md §3.6) is the ground truth the
//! analyzer is cross-validated against: a statically-certified case that
//! produces a dynamic hazard is a soundness bug, and the cross-validation
//! mode fails loudly on it.
//!
//! Like `gpu-sim::validate`, the analyzer reads only
//! [`QueryableProps`](trisolve_gpu_sim::QueryableProps) — the paper's
//! Table II information asymmetry is preserved: bank counts and
//! transaction sizes are *modeled* (documented constants), never read
//! from the hidden timing properties.

#![warn(missing_docs)]

pub mod conflict;
pub mod lints;
pub mod proof;
pub mod prune;
pub mod report;
pub mod schedule;
pub mod stability;

pub use conflict::{
    bank_conflict_degree, classify_access, many_small_window, predict_layout, predict_variant,
    BankSummary, CoalesceClass, ANALYZER_TXN_BYTES,
};
pub use lints::{lint_plan, smem_budget_obligation, Lint, LintLevel};
pub use proof::{prove_kernel, KernelProof, Obligation};
pub use prune::{
    prune_layout_axis, prune_onchip_axis, LayoutPrune, OnchipPrune, ONCHIP_SEARCH_CEILING,
};
pub use report::{analyze_params, analyze_plan, statically_rejected, AnalysisReport};
pub use schedule::{
    certify_schedule, schedule_fixtures, schedule_rejected, ScheduleFixture, ScheduleReport,
};
pub use stability::{
    certify_plan, class_claim_obligation, error_growth, pcr_dominance_transfer, stage_entry_ratios,
    unit_roundoff, StabilityCertificate, C_SAFETY, F32_SAFETY_THRESHOLD,
};
