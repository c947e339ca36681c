//! Affine access summaries — the static mirror of every kernel family's
//! memory behaviour.
//!
//! Each kernel in this module's siblings touches global and shared memory
//! through index expressions that are *affine* in a handful of bounded
//! iteration variables (block id decomposed into `parent`/`r`, logical
//! thread id, per-thread loop counters, PCR step). This module captures
//! those expressions as data — [`AffineMap`]s over explicit iteration
//! boxes — so `trisolve-analyze` can prove out-of-bounds freedom, write
//! disjointness and inter-barrier race freedom *symbolically*, for every
//! `(device, plan, size)` point, without executing anything.
//!
//! The six plan-op families build their summaries in their
//! `Family` impls, from the same fields and the same
//! label as their launch config, so the description and the execution
//! cannot drift apart silently; the non-plan kernels (repack, unpack,
//! baselines) keep their constructors here. The dynamic sanitizer replay
//! (`ctx.sanitizing()` blocks in each kernel) is the ground truth these
//! summaries are cross-validated against — see `trisolve analyze`'s
//! cross-validation mode.

use serde::Serialize;
use trisolve_tridiag::pcr::ceil_log2;

use super::baselines::BaselineAlgo;

/// One bounded iteration variable of an [`AffineMap`]:
/// contributes `coeff * v` with `v ∈ [0, extent)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AffineTerm {
    /// Variable name (for reports): `"parent"`, `"r"`, `"j"`, `"t"`, …
    pub var: &'static str,
    /// Multiplier of the variable.
    pub coeff: usize,
    /// Exclusive upper bound of the variable (`extent == 0` ⇒ empty map).
    pub extent: usize,
}

/// An affine index set: `{ offset + Σ coeffᵢ·vᵢ | vᵢ ∈ [0, extentᵢ) }`.
///
/// All coefficients are non-negative (they are `usize`), so interval
/// analysis over the iteration box is *exact*: the minimum is `offset`,
/// the maximum is `offset + Σ coeffᵢ·(extentᵢ−1)`. This is the abstract
/// domain of the whole analyzer; its soundness argument is three lines
/// of arithmetic (see DESIGN.md §3.10).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AffineMap {
    /// Constant base index.
    pub offset: usize,
    /// The iteration variables.
    pub terms: Vec<AffineTerm>,
}

impl AffineMap {
    /// A map with only a constant offset (a single index).
    pub fn at(offset: usize) -> Self {
        AffineMap {
            offset,
            terms: Vec::new(),
        }
    }

    /// Builder: add an iteration variable.
    #[must_use]
    pub fn term(mut self, var: &'static str, coeff: usize, extent: usize) -> Self {
        self.terms.push(AffineTerm { var, coeff, extent });
        self
    }

    /// Number of iteration points (not necessarily distinct indices).
    pub fn points(&self) -> usize {
        self.terms.iter().map(|t| t.extent).product()
    }

    /// True when the iteration box is empty.
    pub fn is_empty(&self) -> bool {
        self.points() == 0
    }

    /// Smallest index of the set (`None` when empty).
    pub fn min_index(&self) -> Option<usize> {
        (!self.is_empty()).then_some(self.offset)
    }

    /// Largest index of the set (`None` when empty). Exact, because every
    /// coefficient is non-negative.
    pub fn max_index(&self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        Some(
            self.offset
                + self
                    .terms
                    .iter()
                    .map(|t| t.coeff * (t.extent - 1))
                    .sum::<usize>(),
        )
    }

    /// Coefficient of a variable (0 when absent).
    pub fn coeff_of(&self, var: &'static str) -> usize {
        self.terms
            .iter()
            .find(|t| t.var == var)
            .map_or(0, |t| t.coeff)
    }

    /// Sufficient (and for our mixed-radix maps, tight) injectivity test:
    /// sort the non-trivial terms by coefficient and require each
    /// coefficient to exceed the total reach of the smaller ones —
    /// the "digits do not overlap" argument. Injective maps prove write
    /// disjointness: distinct iteration points (in particular, points
    /// owned by distinct threads or blocks) hit distinct indices.
    pub fn is_injective(&self) -> bool {
        let mut terms: Vec<&AffineTerm> = self.terms.iter().filter(|t| t.extent > 1).collect();
        if terms.iter().any(|t| t.coeff == 0) {
            return false;
        }
        terms.sort_by_key(|t| t.coeff);
        let mut reach = 0usize;
        for t in terms {
            if t.coeff <= reach {
                return false;
            }
            reach += t.coeff * (t.extent - 1);
        }
        true
    }

    /// True when the image is *exactly* the interval
    /// `[offset, offset + points())` — a perfect mixed-radix decomposition,
    /// i.e. the write both partitions and covers its footprint.
    pub fn covers_exactly(&self) -> bool {
        let mut terms: Vec<&AffineTerm> = self.terms.iter().filter(|t| t.extent > 1).collect();
        if terms.iter().any(|t| t.coeff == 0) {
            return false;
        }
        terms.sort_by_key(|t| t.coeff);
        let mut reach = 0usize;
        for t in terms {
            if t.coeff != reach + 1 {
                return false;
            }
            reach += t.coeff * (t.extent - 1);
        }
        true
    }
}

/// One global-memory access site of a kernel: the union over the whole
/// grid of the indices the site touches, plus the per-warp stride the
/// coalescing classifier needs.
#[derive(Debug, Clone, Serialize)]
pub struct GlobalAccess {
    /// Site label, matching the dynamic sanitizer's tracked-API site
    /// string (e.g. `"base::load"`), so static verdicts and dynamic
    /// hazards can be joined.
    pub site: &'static str,
    /// Write (`true`) or read.
    pub is_write: bool,
    /// The index set, as a map over the grid/thread iteration box.
    pub map: AffineMap,
    /// Element stride between consecutive logical threads of a warp
    /// (1 = perfectly coalesced).
    pub warp_stride: usize,
    /// The site also reads neighbour rows at `pos ± stride`, clamped to
    /// the footprint (identity rows are substituted outside it) — the
    /// clamp keeps the range inside `map`, so OOB bounds are unchanged.
    pub clamped_neighbours: bool,
    /// Writes that must *partition* their footprint: the race-freedom
    /// proof obligation requires [`AffineMap::is_injective`].
    pub exclusive: bool,
}

/// Thread-ownership signature of a shared-memory access:
/// `thread = (element % row_len) % modulus`. Two accesses with equal
/// owners in the same barrier interval are same-thread-only conflicts —
/// not races.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SmemOwner {
    /// Length of one logical row of the shared array.
    pub row_len: usize,
    /// Sub-chain interleaving modulus (`row_len` itself for one element
    /// per thread).
    pub modulus: usize,
}

/// One shared-memory access site inside a barrier interval.
#[derive(Debug, Clone, Serialize)]
pub struct SmemAccess {
    /// Site label, matching the sanitizer's `track_smem_*` site string.
    pub site: &'static str,
    /// Write (`true`) or read.
    pub is_write: bool,
    /// Element index set over the thread/loop iteration box. The thread
    /// variable is named `"t"` by convention.
    pub map: AffineMap,
    /// Row-relative displacements also read (PCR neighbour rows `±s`);
    /// each displaced index is clamped into `[0, clamp_row)` before the
    /// array base is added, exactly like the kernel clamps.
    pub displacements: Vec<isize>,
    /// Clamp row length; must be `Some` whenever `displacements` is
    /// non-empty.
    pub clamp_row: Option<usize>,
    /// Thread-ownership signature, when the access has one.
    pub owner: Option<SmemOwner>,
    /// Element stride between consecutive threads (bank-conflict input).
    pub thread_coeff: usize,
}

impl SmemAccess {
    /// Largest element index the access can touch. For displaced accesses
    /// the kernel clamps the *row* index (offset + thread term) into
    /// `[0, clamp_row)`, so the bound is the last row element plus the
    /// reach of the array-selection terms outside the clamp.
    pub fn max_elem(&self) -> Option<usize> {
        match self.clamp_row {
            None => self.map.max_index(),
            Some(row) => {
                if self.map.is_empty() || row == 0 {
                    return None;
                }
                let outside: usize = self
                    .map
                    .terms
                    .iter()
                    .filter(|t| t.var != "t")
                    .map(|t| t.coeff * (t.extent - 1))
                    .sum();
                Some(row - 1 + outside)
            }
        }
    }
}

/// The shared-memory accesses between two consecutive `ctx.sync()`
/// barriers. Race-freedom is proven per interval: the barriers are the
/// only ordering the block guarantees.
#[derive(Debug, Clone, Serialize)]
pub struct BarrierInterval {
    /// Human-readable interval label (e.g. `"pcr_read[s=4]"`).
    pub label: String,
    /// The access sites active in this interval.
    pub accesses: Vec<SmemAccess>,
}

/// Everything the analyzer needs to know about one kernel launch:
/// global footprints, shared-memory choreography, and the extents they
/// must stay within.
#[derive(Debug, Clone, Serialize)]
pub struct KernelAccessSummary {
    /// Kernel label (matches the launch config label's family).
    pub label: String,
    /// Length, in elements, of the global buffers the kernel addresses
    /// (coefficients and solution all span `m · n_padded`).
    pub buffer_len: usize,
    /// Threads per block.
    pub block_threads: usize,
    /// Modeled shared-memory footprint in elements (0 = no shared state
    /// worth modeling; the declared launch footprint must cover this).
    pub smem_elems: usize,
    /// Global access sites.
    pub global: Vec<GlobalAccess>,
    /// Barrier-separated shared-memory choreography.
    pub intervals: Vec<BarrierInterval>,
}

/// The strided chain gather/scatter map shared by stage 2, the base
/// kernel and the baselines: block `bid` decomposes into
/// `parent = bid / stride`, `r = bid % stride`, and element `j` of the
/// chain sits at `parent·n + r + j·stride`. With `chain_len·stride == n`
/// this is a perfect mixed-radix decomposition of `[0, m·n)`.
pub(crate) fn chain_map(m: usize, n: usize, stride: usize, chain_len: usize) -> AffineMap {
    AffineMap::at(0)
        .term("r", 1, stride)
        .term("j", stride, chain_len)
        .term("parent", n, m)
}

/// Access summary of a padded-tile transpose pass over a buffer of
/// `buffer_len` elements in rows of `row_len`: `load` reads through its
/// map, `store` writes through its map, and the 32×33 tile in between —
/// whose post-transpose read stride of 33 is what makes it
/// bank-conflict-free — absorbs any stride, so both global sides are
/// coalesced. Shared by repack/unpack and interleave/deinterleave.
pub(crate) fn transpose_summary(
    label: String,
    buffer_len: usize,
    row_len: usize,
    (load, src): (&'static str, AffineMap),
    (store, dst): (&'static str, AffineMap),
) -> KernelAccessSummary {
    let site = |site, is_write, map| GlobalAccess {
        site,
        is_write,
        map,
        warp_stride: 1,
        clamped_neighbours: false,
        exclusive: is_write,
    };
    KernelAccessSummary {
        label,
        buffer_len,
        block_threads: 256.min(row_len.max(32)),
        smem_elems: 32 * 33,
        global: vec![site(load, false, src), site(store, true, dst)],
        intervals: transpose_tile_intervals(),
    }
}

/// The chain-major (repacked) layout: chain `c` contiguous at
/// `c·chain_len`.
fn chunked_map(m: usize, n: usize, stride: usize) -> AffineMap {
    let chain_len = n / stride;
    AffineMap::at(0)
        .term("j", 1, chain_len)
        .term("block", chain_len, m * stride)
}

/// Access summary of the repack (transpose-in) pass: strided gather,
/// chunk-contiguous store.
pub fn repack_access_summary(m: usize, n: usize, stride: usize) -> KernelAccessSummary {
    let (chains, chain_len) = (m * stride, n / stride);
    transpose_summary(
        format!("repack[{chains}x{chain_len}@{stride}]"),
        m * n,
        chain_len,
        ("repack::gather", chain_map(m, n, stride, chain_len)),
        ("repack::store", chunked_map(m, n, stride)),
    )
}

/// Access summary of the unpack (transpose-out) pass: chunk-contiguous
/// load, strided scatter.
pub fn unpack_access_summary(m: usize, n: usize, stride: usize) -> KernelAccessSummary {
    let (chains, chain_len) = (m * stride, n / stride);
    transpose_summary(
        format!("unpack[{chains}x{chain_len}@{stride}]"),
        m * n,
        chain_len,
        ("unpack::load", chunked_map(m, n, stride)),
        ("unpack::scatter", chain_map(m, n, stride, chain_len)),
    )
}

/// The fully *interleaved* batch map: element `j` of system `s` sits at
/// `j·m + s`, i.e. the affine map with coefficient `batch` on the element
/// variable. With `s ∈ [0, m)` and `j ∈ [0, n)` this is a perfect
/// mixed-radix decomposition of `[0, m·n)` — injective and exactly
/// covering, so the write-partition and OOB proofs extend to the
/// interleaved family with no new abstract domain.
pub(crate) fn interleaved_map(m: usize, n: usize) -> AffineMap {
    AffineMap::at(0).term("s", 1, m).term("j", m, n)
}

/// The system-major batch map (system `s` contiguous at `s·n`): the layout
/// the host uploads and the transpose passes convert from/to.
pub(crate) fn system_major_map(m: usize, n: usize) -> AffineMap {
    AffineMap::at(0).term("j", 1, n).term("s", n, m)
}

/// The padded 32×33 transpose tile: threads write rows (stride 1),
/// sync, then read columns — whose stride is the *padded* row length 33,
/// coprime to every pow2 bank count, hence conflict-free.
fn transpose_tile_intervals() -> Vec<BarrierInterval> {
    vec![
        BarrierInterval {
            label: "tile_in".into(),
            accesses: vec![SmemAccess {
                site: "repack::tile_store",
                is_write: true,
                map: AffineMap::at(0).term("t", 1, 32).term("ty", 33, 32),
                displacements: Vec::new(),
                clamp_row: None,
                owner: None,
                thread_coeff: 1,
            }],
        },
        BarrierInterval {
            label: "tile_out".into(),
            accesses: vec![SmemAccess {
                site: "repack::tile_load",
                is_write: false,
                map: AffineMap::at(0).term("t", 33, 32).term("ty", 1, 32),
                displacements: Vec::new(),
                clamp_row: None,
                owner: None,
                thread_coeff: 33,
            }],
        },
    ]
}

/// Access summary of a prior-art baseline kernel
/// (`baseline_config(chains, chain_len, stride, algo, _)`). Global side
/// matches the base kernel's strided gather/scatter; the shared-memory
/// choreography is per algorithm — notably CR's pow2-strided levels,
/// whose widening thread stride is the textbook bank-conflict source the
/// analyzer's conflict counts surface.
pub fn baseline_access_summary(
    m: usize,
    n: usize,
    chain_len: usize,
    stride: usize,
    algo: BaselineAlgo,
) -> KernelAccessSummary {
    let chain = chain_map(m, n, stride, chain_len);
    let one_per_thread = SmemOwner {
        row_len: chain_len,
        modulus: chain_len,
    };
    let mut intervals = Vec::new();
    let pcr_intervals = |intervals: &mut Vec<BarrierInterval>, rows: usize, row_stride: usize| {
        // PCR over `rows` active rows spaced `row_stride` apart, one
        // read + one write interval per step (the double sync).
        for step in 0..ceil_log2(rows.max(1)) {
            let s = 1usize << step;
            let map = AffineMap::at(0)
                .term("t", row_stride, rows)
                .term("k", chain_len, 4);
            intervals.push(BarrierInterval {
                label: format!("pcr_read[s={s}]"),
                accesses: vec![SmemAccess {
                    site: "baseline::pcr_read",
                    is_write: false,
                    map: map.clone(),
                    displacements: vec![-((s * row_stride) as isize), 0, (s * row_stride) as isize],
                    clamp_row: Some(chain_len),
                    owner: None,
                    thread_coeff: row_stride,
                }],
            });
            intervals.push(BarrierInterval {
                label: format!("pcr_write[s={s}]"),
                accesses: vec![SmemAccess {
                    site: "baseline::pcr_write",
                    is_write: true,
                    map,
                    displacements: Vec::new(),
                    clamp_row: None,
                    owner: (row_stride == 1).then_some(one_per_thread),
                    thread_coeff: row_stride,
                }],
            });
        }
    };
    let cr_levels = |intervals: &mut Vec<BarrierInterval>, threshold: usize| -> usize {
        // CR forward reduction: level `l` updates the `chain_len >> l`
        // rows at offset `2^l − 1`, stride `2^l` — active threads halve,
        // the pow2 stride doubles.
        let mut level = 1usize;
        while (chain_len >> level) > 0 && (chain_len >> level) >= threshold.max(1) {
            let active = chain_len >> level;
            let row_stride = 1usize << level;
            let map = AffineMap::at(row_stride - 1)
                .term("t", row_stride, active)
                .term("k", chain_len, 4);
            intervals.push(BarrierInterval {
                label: format!("cr_read[l={level}]"),
                accesses: vec![SmemAccess {
                    site: "baseline::cr_read",
                    is_write: false,
                    map: map.clone(),
                    displacements: vec![-((row_stride / 2) as isize), 0, (row_stride / 2) as isize],
                    clamp_row: Some(chain_len),
                    owner: None,
                    thread_coeff: row_stride,
                }],
            });
            intervals.push(BarrierInterval {
                label: format!("cr_write[l={level}]"),
                accesses: vec![SmemAccess {
                    site: "baseline::cr_write",
                    is_write: true,
                    map,
                    displacements: Vec::new(),
                    clamp_row: None,
                    owner: None,
                    thread_coeff: row_stride,
                }],
            });
            level += 1;
        }
        chain_len >> (level - 1)
    };
    match algo {
        BaselineAlgo::Pcr => pcr_intervals(&mut intervals, chain_len, 1),
        BaselineAlgo::Cr => {
            cr_levels(&mut intervals, 1);
        }
        BaselineAlgo::CrPcr { pcr_threshold } => {
            let reduced = cr_levels(&mut intervals, pcr_threshold.max(1));
            let row_stride = chain_len / reduced.max(1);
            pcr_intervals(&mut intervals, reduced.max(1), row_stride.max(1));
        }
    }
    KernelAccessSummary {
        label: format!("baseline[{chain_len}@{stride},{}]", algo.label()),
        buffer_len: m * n,
        block_threads: chain_len,
        smem_elems: 4 * chain_len,
        global: vec![
            GlobalAccess {
                site: "baseline::gather",
                is_write: false,
                map: chain.clone(),
                warp_stride: stride,
                clamped_neighbours: false,
                exclusive: false,
            },
            GlobalAccess {
                site: "baseline::store",
                is_write: true,
                map: chain,
                warp_stride: stride,
                clamped_neighbours: false,
                exclusive: true,
            },
        ],
        intervals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BaseVariant;

    #[test]
    fn affine_bounds_are_exact() {
        let m = AffineMap::at(5).term("a", 3, 4).term("b", 12, 2);
        assert_eq!(m.min_index(), Some(5));
        assert_eq!(m.max_index(), Some(5 + 3 * 3 + 12));
        assert_eq!(m.points(), 8);
        let empty = AffineMap::at(0).term("a", 1, 0);
        assert!(empty.is_empty());
        assert_eq!(empty.max_index(), None);
    }

    #[test]
    fn chain_map_is_a_mixed_radix_bijection() {
        // parent·n + r + j·stride with chain_len·stride == n partitions
        // and exactly covers [0, m·n).
        for (m, n, stride) in [(3usize, 1024usize, 4usize), (1, 2048, 64), (7, 256, 1)] {
            let map = chain_map(m, n, stride, n / stride);
            assert!(map.is_injective(), "m={m} n={n} stride={stride}");
            assert!(map.covers_exactly(), "m={m} n={n} stride={stride}");
            assert_eq!(map.max_index(), Some(m * n - 1));
            assert_eq!(map.points(), m * n);
        }
    }

    #[test]
    fn broken_radix_is_not_injective() {
        // stride 4 chains of length 3 inside rows of 8: element 4 of
        // chain 0 collides with element 0 of... nothing — but the reach
        // test rejects the gap-free cover; construct a genuine collision:
        // coeff 2 with extent 3 overlaps coeff 1 with extent 3.
        let m = AffineMap::at(0).term("a", 1, 3).term("b", 2, 3);
        assert!(!m.is_injective());
        // Zero coefficient ⇒ every b collides.
        let z = AffineMap::at(0).term("a", 0, 2).term("b", 1, 4);
        assert!(!z.is_injective());
    }

    #[test]
    fn clamped_displacement_bound_uses_row_length() {
        // A CR-style displaced read: rows at stride 8, array term k.
        // Unclamped map max is (3·8+7) + 3·32; the clamp bounds the row
        // part by the full row length 32 instead.
        let a = SmemAccess {
            site: "test",
            is_write: false,
            map: AffineMap::at(7).term("t", 8, 4).term("k", 32, 4),
            displacements: vec![-4, 0, 4],
            clamp_row: Some(32),
            owner: None,
            thread_coeff: 8,
        };
        assert_eq!(a.max_elem(), Some(31 + 3 * 32));
        // Without a clamp the plain map bound applies.
        let b = SmemAccess {
            clamp_row: None,
            displacements: Vec::new(),
            ..a
        };
        assert_eq!(b.max_elem(), b.map.max_index());
    }

    #[test]
    fn summaries_cover_every_family() {
        use crate::kernels::base::Base;
        use crate::kernels::interleaved::{Deinterleave, IThomas, Interleave};
        use crate::kernels::stage1::Stage1;
        use crate::kernels::stage2::Stage2;
        use crate::kernels::Family;

        let s1 = Stage1 {
            m: 4,
            n: 2048,
            stride: 2,
        }
        .access();
        assert_eq!(s1.buffer_len, 4 * 2048);
        assert!(s1.global.iter().any(|g| g.is_write && g.exclusive));

        let s2 = Stage2 {
            m: 4,
            n: 2048,
            stride_in: 4,
            steps: 2,
        }
        .access();
        assert_eq!(s2.global[1].map.max_index(), Some(4 * 2048 - 1));
        assert!(s2.intervals.is_empty());

        let base = |variant| Base {
            m: 4,
            n: 2048,
            chain_len: 256,
            stride: 8,
            t4: 32,
            variant,
        };
        let b = base(BaseVariant::Strided).access();
        assert_eq!(b.smem_elems, 4 * 256);
        // load + (read+write) per PCR step + thomas.
        assert_eq!(b.intervals.len(), 1 + 2 * 5 + 1);
        assert_eq!(b.global[0].warp_stride, 8);
        let bc = base(BaseVariant::Coalesced).access();
        assert_eq!(bc.global[0].warp_stride, 1);

        let r = repack_access_summary(2, 1024, 16);
        assert_eq!(r.smem_elems, 32 * 33);
        let u = unpack_access_summary(2, 1024, 16);
        assert_eq!(u.global[1].site, "unpack::scatter");

        let (m, n) = (65536, 64);
        let il = Interleave { m, n }.access();
        assert_eq!(il.global[1].map.coeff_of("j"), 65536, "coefficient batch");
        let it = IThomas { m, n }.access();
        assert!(it.intervals.is_empty() && it.smem_elems == 0);
        assert!(it.global.iter().all(|g| g.warp_stride == 1));
        let dl = Deinterleave { m, n }.access();
        assert_eq!(dl.global[1].site, "deinterleave::scatter");

        for algo in [
            BaselineAlgo::Pcr,
            BaselineAlgo::Cr,
            BaselineAlgo::CrPcr { pcr_threshold: 32 },
        ] {
            let s = baseline_access_summary(8, 256, 256, 1, algo);
            assert!(!s.intervals.is_empty(), "{algo:?}");
            assert_eq!(s.buffer_len, 8 * 256);
        }
    }

    #[test]
    fn interleaved_map_is_a_mixed_radix_bijection() {
        // s + j·m over s∈[0,m), j∈[0,n): injective, exactly covering
        // [0, m·n) — the property the write-partition proof relies on.
        for (m, n) in [(65536usize, 64usize), (100, 48), (32, 1)] {
            let map = interleaved_map(m, n);
            assert!(map.is_injective(), "m={m} n={n}");
            assert!(map.covers_exactly(), "m={m} n={n}");
            assert_eq!(map.max_index(), Some(m * n - 1));
            let back = system_major_map(m, n);
            assert!(back.is_injective() && back.covers_exactly());
        }
    }

    #[test]
    fn cr_levels_stay_in_bounds_and_widen_stride() {
        let s = baseline_access_summary(1, 256, 256, 1, BaselineAlgo::Cr);
        let mut max_coeff = 0;
        for iv in &s.intervals {
            for a in &iv.accesses {
                let hi = a.max_elem();
                assert!(hi.unwrap() < s.smem_elems, "{} in {}", a.site, iv.label);
                max_coeff = max_coeff.max(a.thread_coeff);
            }
        }
        assert!(max_coeff >= 64, "CR stride must widen, got {max_coeff}");
    }
}
