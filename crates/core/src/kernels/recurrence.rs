//! Per-kernel *recurrences* — the numeric mirror of the access summaries
//! in [`super::access`].
//!
//! Where an access summary describes *which addresses* a launch touches, a
//! [`RecurrenceKind`] describes *which numeric recurrence* it applies to the
//! coefficients: how many parallel-cyclic-reduction steps, how long a serial
//! Thomas chain, or pure data movement (exact, no rounding at all). The
//! stability certifier in `trisolve-analyze` abstract-interprets these
//! recurrences to prove dominance preservation, pivot-freedom and a-priori
//! error bounds without executing a single simulated instruction.
//!
//! Each plan-op family derives its recurrence in its `Family` impl, next
//! to its launch config and access summary, and a plan op's
//! [`OpDescriptor`](crate::plan::OpDescriptor) hands it out — description
//! and execution cannot drift.

use serde::Serialize;

/// Sequential rounding operations one row's value passes through per PCR
/// step: each step forms new `(a, b, c, d)` from two neighbour rows —
/// two elimination multipliers (one divide, one negate-multiply each) and
/// the four coefficient updates they feed, ≈ 12 roundings on the value's
/// critical path. A documented model constant, deliberately conservative.
pub const PCR_ROUNDING_OPS_PER_ROW: usize = 12;

/// Sequential rounding operations per row of the Thomas recurrence:
/// forward elimination (multiplier divide, two fused update pairs) plus
/// back substitution (multiply, subtract, divide) ≈ 8 roundings on the
/// solution's critical path per eliminated row.
pub const THOMAS_ROUNDING_OPS_PER_ROW: usize = 8;

/// The numeric recurrence a single kernel launch applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RecurrenceKind {
    /// `steps` parallel-cyclic-reduction steps: every row is recombined with
    /// its stride-distant neighbours, halving coupling per step.
    Pcr {
        /// Number of PCR steps applied inside the launch.
        steps: u32,
    },
    /// A serial Thomas elimination over chains of `chain_len` rows (forward
    /// sweep then back substitution).
    Thomas {
        /// Rows per serial chain.
        chain_len: usize,
    },
    /// The on-chip hybrid: `pcr_steps` PCR steps in shared memory, then
    /// Thomas over the resulting `thomas_len`-row serial chains.
    Hybrid {
        /// PCR steps before the Thomas switch.
        pcr_steps: u32,
        /// Rows per serial chain handed to the Thomas phase.
        thomas_len: usize,
    },
    /// Pure data movement (layout transposition): bit-exact, no rounding.
    DataMovement,
}

impl RecurrenceKind {
    /// PCR (dominance-transfer) steps this recurrence applies.
    pub fn pcr_steps(&self) -> u32 {
        match *self {
            RecurrenceKind::Pcr { steps } => steps,
            RecurrenceKind::Hybrid { pcr_steps, .. } => pcr_steps,
            RecurrenceKind::Thomas { .. } | RecurrenceKind::DataMovement => 0,
        }
    }

    /// Length of the serial Thomas chain this recurrence ends with (0 when
    /// it has no Thomas phase).
    pub fn thomas_len(&self) -> usize {
        match *self {
            RecurrenceKind::Thomas { chain_len } => chain_len,
            RecurrenceKind::Hybrid { thomas_len, .. } => thomas_len,
            RecurrenceKind::Pcr { .. } | RecurrenceKind::DataMovement => 0,
        }
    }

    /// Sequential rounding operations on one row's critical path through
    /// this recurrence (the per-launch term of the a-priori error bound).
    pub fn rounding_ops(&self) -> usize {
        self.pcr_steps() as usize * PCR_ROUNDING_OPS_PER_ROW
            + self.thomas_len() * THOMAS_ROUNDING_OPS_PER_ROW
    }

    /// Whether the launch is bit-exact (no floating-point arithmetic).
    pub fn is_exact(&self) -> bool {
        matches!(self, RecurrenceKind::DataMovement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BaseVariant;
    use crate::plan::StageOp;

    #[test]
    fn rounding_ops_compose_pcr_and_thomas_terms() {
        assert_eq!(
            RecurrenceKind::Pcr { steps: 3 }.rounding_ops(),
            3 * PCR_ROUNDING_OPS_PER_ROW
        );
        assert_eq!(
            RecurrenceKind::Thomas { chain_len: 64 }.rounding_ops(),
            64 * THOMAS_ROUNDING_OPS_PER_ROW
        );
        assert_eq!(
            RecurrenceKind::Hybrid {
                pcr_steps: 3,
                thomas_len: 8
            }
            .rounding_ops(),
            3 * PCR_ROUNDING_OPS_PER_ROW + 8 * THOMAS_ROUNDING_OPS_PER_ROW
        );
        assert_eq!(RecurrenceKind::DataMovement.rounding_ops(), 0);
        assert!(RecurrenceKind::DataMovement.is_exact());
        assert!(!RecurrenceKind::Pcr { steps: 1 }.is_exact());
    }

    #[test]
    fn base_recurrence_matches_the_kernel_switch_points() {
        // 256-row chains, Thomas switch 32: 5 PCR halvings to 32 chains of 8.
        let base = |chain_len, stride, thomas_chains, variant| {
            StageOp::BaseSolve {
                chains: stride,
                chain_len,
                stride,
                thomas_chains,
                variant,
            }
            .describe(1, chain_len * stride)
            .recurrence()
        };
        assert_eq!(
            base(256, 8, 32, BaseVariant::Strided),
            RecurrenceKind::Hybrid {
                pcr_steps: 5,
                thomas_len: 8
            }
        );
        // The switch clamps to the chain length: t4 = 64, chains of 1 row.
        assert_eq!(
            base(64, 1, 128, BaseVariant::Coalesced),
            RecurrenceKind::Hybrid {
                pcr_steps: 6,
                thomas_len: 1
            }
        );
    }
}
