//! Tuner search-space pruning from static proofs.
//!
//! The dynamic tuner's `onchip_size` axis is the expensive one: every
//! candidate costs a full micro-benchmarked solve. A candidate whose
//! base-kernel launch the device provably refuses (shared memory,
//! register file or block-size limits — all queryable) would be priced
//! `+inf` after a wasted plan-construction round trip. This module
//! derives the feasible ceiling *before* the search starts, by running
//! the same static launch validation the plan builder uses over every
//! power-of-two candidate up to a fixed theoretical ceiling.
//!
//! The pruning is exact, not heuristic:
//! [`validate_launch`](trisolve_gpu_sim::validate_launch) refuses the
//! base launch for a power-of-two size `v` if and only if
//! `v > SolverParams::max_onchip_size` (each of its three hard limits —
//! `smem-exceeded`, `regs-exceeded`, `block-too-large` — is one of the
//! three minima in that computation). The tuner's resulting axis is
//! therefore *identical* to the pre-pruning axis, and the tuned output
//! bit-identical; what changes is that the infeasible candidate class
//! is counted and reported instead of silently never tried.

use serde::Serialize;
use trisolve_core::{BaseVariant, StageOp};
use trisolve_gpu_sim::{validate_launch, QueryableProps};

/// Theoretical ceiling of the `onchip_size` search: one power of two
/// above the largest value any shipped or near-future device profile
/// admits (the GTX 470 caps at 1024). Candidates between the device's
/// feasible maximum and this ceiling form the statically-pruned class.
pub const ONCHIP_SEARCH_CEILING: usize = 4096;

/// The outcome of statically pruning the `onchip_size` axis.
#[derive(Debug, Clone, Serialize)]
pub struct OnchipPrune {
    /// Largest power-of-two on-chip size whose base launch the device
    /// admits. Equals `SolverParams::max_onchip_size` by construction.
    pub feasible_max: usize,
    /// The pruned candidates: every power of two in
    /// `(feasible_max, ceiling]`, each with a proof of refusal.
    pub pruned: Vec<usize>,
    /// Total fatal diagnostics across the pruned candidates — each is
    /// one failed launch-admissibility proof.
    pub proofs_failed: usize,
}

/// Statically prune the power-of-two `onchip_size` axis on a device.
///
/// Walks every power of two from 1 to `ceiling`, validating the base
/// kernel's launch footprint (`v` threads, `4·v·elem_bytes` shared
/// bytes, 24 registers per thread) against the device's queryable
/// limits. Infeasible candidates land in [`OnchipPrune::pruned`]; the
/// grid dimension is fixed at `num_processors` (clamped to 1) — grid
/// size never constrains the on-chip axis, so the verdict depends only
/// on `v`.
pub fn prune_onchip_axis(q: &QueryableProps, elem_bytes: usize, ceiling: usize) -> OnchipPrune {
    let mut feasible_max = 1usize;
    let mut pruned = Vec::new();
    let mut proofs_failed = 0usize;
    let mut v = 1usize;
    while v <= ceiling {
        let chains = q.num_processors.max(1);
        let base = StageOp::BaseSolve {
            chains,
            chain_len: v,
            stride: 1,
            thomas_chains: v.min(32),
            variant: BaseVariant::Strided,
        };
        let cfg = base.describe(chains, v).config(elem_bytes);
        let report = validate_launch(q, &cfg);
        if report.has_errors() {
            pruned.push(v);
            proofs_failed += report.errors().count();
        } else {
            feasible_max = v;
        }
        match v.checked_mul(2) {
            Some(next) => v = next,
            None => break,
        }
    }
    OnchipPrune {
        feasible_max,
        pruned,
        proofs_failed,
    }
}

/// The outcome of statically pruning the base-layout axis for a workload.
#[derive(Debug, Clone, Serialize)]
pub struct LayoutPrune {
    /// Layouts whose plan the builder provably accepts for this shape.
    pub candidates: Vec<BaseVariant>,
    /// Layouts the builder provably refuses (each is one statically
    /// pruned candidate class).
    pub pruned: Vec<BaseVariant>,
}

/// Statically prune the base-layout axis for a workload shape.
///
/// Mirrors the plan builder exactly: the staged layouts (strided,
/// coalesced) are buildable for every shape, while the interleaved
/// fast path requires at least
/// [`INTERLEAVED_MIN_SYSTEMS`](trisolve_core::params::INTERLEAVED_MIN_SYSTEMS)
/// systems — below that the builder refuses the variant outright, so the
/// tuner can skip its phase-D probes without pricing a single candidate.
/// Like the on-chip pruning, this changes *when* the `+inf` verdict is
/// known, never the search result.
pub fn prune_layout_axis(shape: trisolve_tridiag::workloads::WorkloadShape) -> LayoutPrune {
    use trisolve_core::params::INTERLEAVED_MIN_SYSTEMS;
    let mut candidates = vec![BaseVariant::Strided, BaseVariant::Coalesced];
    let mut pruned = Vec::new();
    if shape.num_systems >= INTERLEAVED_MIN_SYSTEMS {
        candidates.push(BaseVariant::Interleaved);
    } else {
        pruned.push(BaseVariant::Interleaved);
    }
    LayoutPrune { candidates, pruned }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_core::SolverParams;
    use trisolve_gpu_sim::DeviceSpec;

    #[test]
    fn feasible_max_equals_the_machine_query_cap() {
        // The exactness claim in the module docs: the statically-proven
        // ceiling coincides with SolverParams::max_onchip_size on every
        // paper device, for both element widths.
        for dev in DeviceSpec::paper_devices() {
            let q = dev.queryable();
            for eb in [4usize, 8] {
                let p = prune_onchip_axis(q, eb, ONCHIP_SEARCH_CEILING);
                assert_eq!(
                    p.feasible_max,
                    SolverParams::max_onchip_size(q, eb),
                    "{} eb={eb}",
                    q.name
                );
            }
        }
    }

    #[test]
    fn every_paper_device_prunes_at_least_one_class() {
        // The ceiling sits above every device cap, so each tuner run has
        // a non-empty statically-pruned candidate class to report.
        for dev in DeviceSpec::paper_devices() {
            let p = prune_onchip_axis(dev.queryable(), 4, ONCHIP_SEARCH_CEILING);
            assert!(!p.pruned.is_empty(), "{}", dev.queryable().name);
            assert!(p.proofs_failed >= p.pruned.len());
        }
    }

    #[test]
    fn layout_pruning_mirrors_the_plan_builder() {
        use trisolve_core::SolvePlan;
        use trisolve_tridiag::workloads::WorkloadShape;
        let dev = DeviceSpec::gtx_470();
        let q = dev.queryable();
        for m in [1usize, 8, 31, 32, 33, 1024, 65536] {
            let shape = WorkloadShape::new(m, 64);
            let prune = prune_layout_axis(shape);
            for variant in [
                BaseVariant::Strided,
                BaseVariant::Coalesced,
                BaseVariant::Interleaved,
            ] {
                let p = SolverParams {
                    variant,
                    ..SolverParams::default_untuned()
                };
                let buildable = SolvePlan::build(shape, &p, q, 4).is_ok();
                assert_eq!(
                    prune.candidates.contains(&variant),
                    buildable,
                    "m={m} {variant:?}"
                );
                assert_eq!(
                    prune.pruned.contains(&variant),
                    !buildable,
                    "m={m} {variant:?}"
                );
            }
        }
    }

    #[test]
    fn pruned_set_is_exactly_the_infeasible_tail() {
        let dev = DeviceSpec::gtx_470();
        let p = prune_onchip_axis(dev.queryable(), 4, ONCHIP_SEARCH_CEILING);
        assert_eq!(p.feasible_max, 1024);
        assert_eq!(p.pruned, vec![2048, 4096]);
        // The 8800's register file bites harder: a deeper pruned tail.
        let p8800 = prune_onchip_axis(
            DeviceSpec::geforce_8800_gtx().queryable(),
            4,
            ONCHIP_SEARCH_CEILING,
        );
        assert_eq!(p8800.feasible_max, 256);
        assert_eq!(p8800.pruned, vec![512, 1024, 2048, 4096]);
    }
}
