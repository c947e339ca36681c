//! Request and disposition types for the solver service.
//!
//! A client job names a workload `(systems × size × precision × layout ×
//! workload-class)` plus an absolute **deadline** on the simulated clock.
//! The service answers every submitted request with exactly one
//! [`Disposition`]: residual-verified completion, or a structured shed
//! with a retry-after hint — never silence (the serve-sim harness's
//! zero-lost-requests invariant counts dispositions against submissions).

use trisolve_tridiag::workloads::{WorkloadClass, WorkloadShape};

/// Element precision of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 4-byte elements.
    F32,
    /// 8-byte elements.
    F64,
}

impl Precision {
    /// Element width in bytes.
    pub fn elem_bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }

    /// Short label (`f32` / `f64`).
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F64 => "f64",
        }
    }
}

/// The client's memory-layout preference.
///
/// `Auto` lets the tuned configuration pick (the common case). The forced
/// variants pin the base-kernel layout — they are part of the plan-database
/// key, so each preference warm-starts independently. A forced layout the
/// plan validator rejects for the coalesced shape falls back to the tuned
/// choice rather than failing the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutPref {
    /// Let the tuned configuration decide.
    Auto,
    /// Force the strided base kernel.
    Strided,
    /// Force the coalesced base kernel.
    Coalesced,
    /// Prefer the interleaved batched-Thomas fast path (honoured only for
    /// shapes inside the fast path's many-small window).
    Interleaved,
}

impl LayoutPref {
    /// Key label (`auto`, `strided`, `coalesced`, `interleaved`).
    pub fn label(self) -> &'static str {
        match self {
            LayoutPref::Auto => "auto",
            LayoutPref::Strided => "strided",
            LayoutPref::Coalesced => "coalesced",
            LayoutPref::Interleaved => "interleaved",
        }
    }
}

/// One submitted job.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Caller-assigned request id (unique per campaign).
    pub id: u64,
    /// Workload shape (`systems × size`).
    pub shape: WorkloadShape,
    /// Element precision.
    pub precision: Precision,
    /// Memory-layout preference.
    pub layout: LayoutPref,
    /// Matrix class the workload generator draws from (also selects the
    /// residual acceptance tolerance).
    pub class: WorkloadClass,
    /// Arrival time on the simulated clock, seconds.
    pub arrival_s: f64,
    /// Absolute completion deadline on the simulated clock, seconds.
    pub deadline_s: f64,
    /// Workload generation seed.
    pub seed: u64,
}

impl SolveRequest {
    /// Total equations in the request.
    pub fn equations(&self) -> usize {
        self.shape.num_systems * self.shape.system_size
    }

    /// Deadline budget relative to arrival, seconds.
    pub fn budget_s(&self) -> f64 {
        self.deadline_s - self.arrival_s
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Every admissible device queue was at its depth bound.
    QueueFull,
    /// No device could meet the deadline (projected wait + worst-case
    /// solve bound past it), at admission or at dispatch re-check.
    DeadlineUnmeetable,
    /// Every device's circuit breaker was open.
    BreakerOpen,
    /// The dispatched batch exhausted the whole resilience chain (even the
    /// CPU reference missed the residual tolerance). Practically reachable
    /// only for near-singular systems; kept so every request still gets a
    /// disposition.
    SolverExhausted,
}

impl ShedReason {
    /// Stable label for reports and counters.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::DeadlineUnmeetable => "deadline-unmeetable",
            ShedReason::BreakerOpen => "breaker-open",
            ShedReason::SolverExhausted => "solver-exhausted",
        }
    }
}

/// A structured load-shed answer.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Why the request was shed.
    pub reason: ShedReason,
    /// When the rejection was issued (simulated seconds). Admission sheds
    /// are issued at arrival; dispatch-time re-check sheds are issued when
    /// the batch would have started.
    pub at_s: f64,
    /// Suggested wait before resubmitting, seconds.
    pub retry_after_s: f64,
}

/// A residual-verified completion.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Completion time on the simulated clock, seconds.
    pub at_s: f64,
    /// Time spent queued before dispatch, seconds.
    pub queue_s: f64,
    /// Time the solve (and any cold tuning) occupied the device, seconds.
    pub solve_s: f64,
    /// Verified worst relative residual of the accepted solution (over the
    /// whole coalesced batch the request rode in).
    pub residual: f64,
    /// Which degradation-chain step produced the accepted solution.
    pub recovered_by: String,
    /// Device that served the request.
    pub device: String,
    /// Other requests coalesced into the same batch.
    pub batched_with: usize,
}

/// The service's single answer to a request.
#[derive(Debug, Clone)]
pub enum Disposition {
    /// Completed, residual-verified.
    Completed(Completion),
    /// Shed with a structured rejection.
    Shed(Rejection),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Precision::F32.label(), "f32");
        assert_eq!(Precision::F64.elem_bytes(), 8);
        assert_eq!(LayoutPref::Auto.label(), "auto");
        assert_eq!(ShedReason::QueueFull.label(), "queue-full");
    }

    #[test]
    fn request_budget_and_equations() {
        let r = SolveRequest {
            id: 1,
            shape: WorkloadShape::new(8, 64),
            precision: Precision::F32,
            layout: LayoutPref::Auto,
            class: WorkloadClass::Dominant,
            arrival_s: 1.0,
            deadline_s: 1.5,
            seed: 7,
        };
        assert_eq!(r.equations(), 512);
        assert!((r.budget_s() - 0.5).abs() < 1e-12);
    }
}
