//! Per-kernel proof obligations: OOB-freedom, write disjointness,
//! shared-memory footprint containment and inter-barrier race-freedom.
//!
//! Soundness rests on three facts about the abstract domain:
//!
//! 1. every access summary is an [`AffineMap`] with non-negative
//!    coefficients over a bounded box, so interval bounds are *exact* —
//!    a proven `max < len` obligation covers every concrete index;
//! 2. injectivity of a map (the non-overlapping-digits test) implies the
//!    iteration points — and therefore distinct threads and blocks — hit
//!    pairwise distinct indices, which is write disjointness;
//! 3. displaced accesses are clamped by the kernels into their row, so
//!    bounding the row bounds the displaced set
//!    ([`SmemAccess::max_elem`]).
//!
//! The obligations are *sufficient*, not complete: a kernel the rules
//! cannot prove is reported unproven even if it happens to be safe.
//! For the five shipped kernel families every obligation discharges —
//! `trisolve analyze` asserts exactly that over the full evaluation
//! matrix, and cross-validates against the dynamic sanitizer.

use serde::Serialize;
use trisolve_core::kernels::access::{KernelAccessSummary, SmemAccess};
use trisolve_gpu_sim::LaunchConfig;

/// One named proof obligation and its verdict.
#[derive(Debug, Clone, Serialize)]
pub struct Obligation {
    /// Stable obligation name, e.g. `"oob-global:base::store"`.
    pub name: String,
    /// Whether the proof discharged.
    pub proven: bool,
    /// The inequality or argument behind the verdict, with numbers.
    pub detail: String,
}

impl Obligation {
    fn proven(name: String, detail: String) -> Self {
        Obligation {
            name,
            proven: true,
            detail,
        }
    }

    fn failed(name: String, detail: String) -> Self {
        Obligation {
            name,
            proven: false,
            detail,
        }
    }
}

/// The proof record of one kernel launch.
#[derive(Debug, Clone, Serialize)]
pub struct KernelProof {
    /// Kernel label (from the access summary).
    pub label: String,
    /// Every obligation checked, proven or not.
    pub obligations: Vec<Obligation>,
}

impl KernelProof {
    /// True when every obligation discharged.
    pub fn proven(&self) -> bool {
        self.obligations.iter().all(|o| o.proven)
    }

    /// The obligations that failed.
    pub fn failures(&self) -> impl Iterator<Item = &Obligation> {
        self.obligations.iter().filter(|o| !o.proven)
    }
}

/// Prove one kernel's access summary against its launch configuration.
///
/// `elem_bytes` converts the modeled shared-memory element footprint to
/// bytes for comparison with the declared launch footprint.
pub fn prove_kernel(
    summary: &KernelAccessSummary,
    cfg: &LaunchConfig,
    elem_bytes: usize,
) -> KernelProof {
    let mut obligations = Vec::new();

    // (a) OOB-freedom of every global access, and partition proofs for
    // exclusive writes.
    for g in &summary.global {
        let name = format!("oob-global:{}", g.site);
        match g.map.max_index() {
            None => obligations.push(Obligation::proven(name, "empty access set".into())),
            Some(max) if max < summary.buffer_len => {
                let clamp_note = if g.clamped_neighbours {
                    "; neighbour rows clamped into the footprint"
                } else {
                    ""
                };
                obligations.push(Obligation::proven(
                    name,
                    format!(
                        "max index {max} < buffer length {}{clamp_note}",
                        summary.buffer_len
                    ),
                ));
            }
            Some(max) => obligations.push(Obligation::failed(
                name,
                format!("max index {max} >= buffer length {}", summary.buffer_len),
            )),
        }
        if g.is_write && g.exclusive {
            let name = format!("write-partition:{}", g.site);
            if g.map.is_injective() {
                let cover = if g.map.covers_exactly() {
                    "injective and exactly covers its footprint"
                } else {
                    "injective (distinct iteration points hit distinct indices)"
                };
                obligations.push(Obligation::proven(name, cover.into()));
            } else {
                obligations.push(Obligation::failed(
                    name,
                    "write map is not provably injective".into(),
                ));
            }
        }
    }

    // (b) shared-memory footprint containment + per-access bounds.
    if summary.smem_elems > 0 {
        let modeled = summary.smem_elems * elem_bytes;
        let name = "smem-footprint".to_string();
        if modeled <= cfg.shared_mem_bytes {
            obligations.push(Obligation::proven(
                name,
                format!(
                    "modeled {modeled} bytes <= declared {} bytes",
                    cfg.shared_mem_bytes
                ),
            ));
        } else {
            obligations.push(Obligation::failed(
                name,
                format!(
                    "modeled {modeled} bytes exceeds declared {} bytes",
                    cfg.shared_mem_bytes
                ),
            ));
        }
    }
    for interval in &summary.intervals {
        for a in &interval.accesses {
            let name = format!("oob-smem:{}@{}", a.site, interval.label);
            if !a.displacements.is_empty() && a.clamp_row.is_none() {
                obligations.push(Obligation::failed(
                    name,
                    "displaced access without a clamp row is unbounded".into(),
                ));
                continue;
            }
            match a.max_elem() {
                None => obligations.push(Obligation::proven(name, "empty access set".into())),
                Some(max) if max < summary.smem_elems => obligations.push(Obligation::proven(
                    name,
                    format!("max element {max} < footprint {}", summary.smem_elems),
                )),
                Some(max) => obligations.push(Obligation::failed(
                    name,
                    format!("max element {max} >= footprint {}", summary.smem_elems),
                )),
            }
        }
        obligations.push(prove_interval_race_free(
            interval.label.as_str(),
            &interval.accesses,
        ));
    }

    KernelProof {
        label: summary.label.clone(),
        obligations,
    }
}

/// Race-freedom of one barrier interval.
///
/// Two rules, both sufficient:
///
/// * **WW**: every write site must be injective (distinct iteration
///   points — hence distinct threads — hit distinct elements) or carry a
///   thread-ownership signature (each element is owned by exactly one
///   thread, so no two threads write it).
/// * **RW / cross-site WW**: for any write site paired with another
///   site whose element ranges overlap, both must carry *equal*
///   ownership signatures — then every conflicting pair is same-thread,
///   which the barrier semantics allow. Disjoint ranges need no proof.
///
/// Read-only intervals (e.g. the PCR read phase between the double
/// syncs) discharge vacuously — which is exactly why the base kernel
/// needs both barriers: collapsing them would merge the read interval
/// with the write interval, the `±s` displaced reads overlap the row
/// writes without a common owner, and this proof fails (see the
/// fixture tests).
fn prove_interval_race_free(label: &str, accesses: &[SmemAccess]) -> Obligation {
    let name = format!("race-free:{label}");
    let writes: Vec<&SmemAccess> = accesses.iter().filter(|a| a.is_write).collect();
    if writes.is_empty() {
        return Obligation::proven(name, "read-only interval".into());
    }
    for w in &writes {
        if !w.map.is_injective() && w.owner.is_none() {
            return Obligation::failed(
                name,
                format!("write {} is neither injective nor thread-owned", w.site),
            );
        }
        if !w.displacements.is_empty() {
            // A displaced write touches other threads' rows by design;
            // no ownership argument covers it.
            return Obligation::failed(name, format!("write {} is displaced", w.site));
        }
    }
    for w in &writes {
        for a in accesses {
            if std::ptr::eq(*w, a) {
                continue;
            }
            let (Some(w_max), Some(a_max)) = (w.max_elem(), a.max_elem()) else {
                continue; // empty access conflicts with nothing
            };
            let w_min = w.map.min_index().unwrap_or(0);
            let a_min = a.map.min_index().unwrap_or(0);
            // With a clamp the displaced row index can reach down to 0.
            let a_min = if a.clamp_row.is_some() { 0 } else { a_min };
            let overlap = w_min <= a_max && a_min <= w_max;
            if !overlap {
                continue;
            }
            match (w.owner, a.owner) {
                (Some(wo), Some(ao)) if wo == ao => {}
                _ => {
                    return Obligation::failed(
                        name,
                        format!(
                            "{} (write) overlaps {} without a common thread owner",
                            w.site, a.site
                        ),
                    );
                }
            }
        }
    }
    Obligation::proven(
        name,
        format!(
            "{} write site(s): injective or thread-owned; overlapping pairs share owners",
            writes.len()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_core::kernels::access::{AffineMap, BarrierInterval, SmemOwner};
    use trisolve_core::{BaseVariant, OpDescriptor, StageOp};

    /// The strided base kernel over `m` systems of `n` equations split
    /// into `stride` chains, Thomas switch 32.
    fn base(m: usize, n: usize, stride: usize) -> OpDescriptor {
        let op = StageOp::BaseSolve {
            chains: m * stride,
            chain_len: n / stride,
            stride,
            thomas_chains: 32,
            variant: BaseVariant::Strided,
        };
        op.describe(m, n)
    }

    fn smem(site: &'static str, is_write: bool, map: AffineMap) -> SmemAccess {
        SmemAccess {
            site,
            is_write,
            map,
            displacements: Vec::new(),
            clamp_row: None,
            owner: None,
            thread_coeff: 1,
        }
    }

    #[test]
    fn base_kernel_proves_clean() {
        let d = base(4, 2048, 8);
        let proof = prove_kernel(&d.access_summary(), &d.config(8), 8);
        assert!(proof.proven(), "{:?}", proof.failures().collect::<Vec<_>>());
    }

    #[test]
    fn planted_oob_is_refuted() {
        let d = base(4, 2048, 8);
        let mut s = d.access_summary();
        // Stretch the store map one block past the buffer end.
        for g in &mut s.global {
            if g.is_write {
                g.map.offset += 1;
            }
        }
        let proof = prove_kernel(&s, &d.config(8), 8);
        assert!(proof.failures().any(|o| o.name == "oob-global:base::store"));
    }

    #[test]
    fn collapsed_barrier_races_are_refuted() {
        // Merge the PCR read and write phases into one interval — the
        // single-barrier bug the base kernel's double sync prevents.
        let read = SmemAccess {
            displacements: vec![-1, 0, 1],
            clamp_row: Some(256),
            ..smem(
                "pcr_read",
                false,
                AffineMap::at(0).term("t", 1, 256).term("k", 256, 4),
            )
        };
        let write = SmemAccess {
            owner: Some(SmemOwner {
                row_len: 256,
                modulus: 256,
            }),
            ..smem(
                "pcr_write",
                true,
                AffineMap::at(0).term("t", 1, 256).term("k", 256, 4),
            )
        };
        let iv = BarrierInterval {
            label: "collapsed".into(),
            accesses: vec![read, write],
        };
        let ob = prove_interval_race_free("collapsed", &iv.accesses);
        assert!(!ob.proven, "{}", ob.detail);
    }

    #[test]
    fn non_injective_unowned_write_is_refuted() {
        // Two threads per element: coeff 0 thread term.
        let w = smem(
            "bad",
            true,
            AffineMap::at(0).term("t", 0, 2).term("j", 1, 64),
        );
        let ob = prove_interval_race_free("bad", &[w]);
        assert!(!ob.proven);
    }

    #[test]
    fn smem_overflow_is_refuted() {
        let d = base(1, 256, 1);
        let mut s = d.access_summary();
        s.smem_elems = 2 * 256; // pretend only half the arrays were declared
        let proof = prove_kernel(&s, &d.config(8), 8);
        assert!(proof.failures().any(|o| o.name.starts_with("oob-smem:")));
    }

    #[test]
    fn same_owner_read_write_overlap_is_proven() {
        // The Thomas interval shape: read all arrays, write the d-array,
        // both partitioned by the same interleaved sub-chains.
        let owner = Some(SmemOwner {
            row_len: 64,
            modulus: 8,
        });
        let read = SmemAccess {
            owner,
            ..smem(
                "r",
                false,
                AffineMap::at(0)
                    .term("t", 1, 8)
                    .term("i", 8, 8)
                    .term("k", 64, 4),
            )
        };
        let write = SmemAccess {
            owner,
            ..smem(
                "w",
                true,
                AffineMap::at(3 * 64).term("t", 1, 8).term("i", 8, 8),
            )
        };
        let ob = prove_interval_race_free("thomas", &[read, write]);
        assert!(ob.proven, "{}", ob.detail);
    }
}
