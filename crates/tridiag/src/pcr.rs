//! Parallel cyclic reduction (PCR) — the splitting workhorse of every stage
//! of the multi-stage solver.
//!
//! One PCR step at stride `s` eliminates, for every equation `i`, the
//! couplings to `x[i−s]` and `x[i+s]` by combining equation `i` with its two
//! stride-`s` neighbours. After the step every equation couples to `x[i−2s]`
//! and `x[i+2s]` instead, so each step doubles the number of independent
//! interleaved subsystems ("chains"). `log2(n)` steps solve the system
//! outright; `j < log2(n)` steps split it into `2^j` chains, each of which is
//! an ordinary tridiagonal system at stride `2^j`.
//!
//! Out-of-range neighbours are treated as identity rows (`b = 1`, others 0),
//! which is exact because equation `i` provably has a zero stride-`s`
//! sub-coefficient whenever `i < s` (and symmetrically at the top) — the
//! invariant is checked in the tests.

use crate::error::SolverError;
use crate::scalar::Scalar;
use crate::system::{ChainView, TridiagonalSystem};
use crate::thomas;
use crate::Result;

/// Apply one PCR step at stride `stride` to the system stored in the `src`
/// slices, writing the transformed system into the `dst` slices.
///
/// All slices must have the same length `n` (the system size). `src` and
/// `dst` must be distinct buffers (double buffering), mirroring the
/// read-old/write-new discipline a GPU kernel needs.
#[allow(clippy::too_many_arguments)]
pub fn pcr_step<T: Scalar>(
    stride: usize,
    src_a: &[T],
    src_b: &[T],
    src_c: &[T],
    src_d: &[T],
    dst_a: &mut [T],
    dst_b: &mut [T],
    dst_c: &mut [T],
    dst_d: &mut [T],
) {
    pcr_rows(
        stride, 0, src_a, src_b, src_c, src_d, dst_a, dst_b, dst_c, dst_d,
    );
}

/// Apply one PCR step at stride `stride` to rows `lo .. lo + dst_b.len()`
/// of one system: the `src` slices hold the whole system (all of length
/// `n`), and row `lo + j` of the step's result lands in element `j` of each
/// `dst` slice.
///
/// Every row gets exactly the operations, in exactly the order, of the
/// textbook update with out-of-range neighbours read as identity rows
/// (`b = 1`, others 0). All rows run through one branch-free row kernel
/// that the compiler vectorises; a missing neighbour is fed from a
/// constant chunk of identity rows. Rust never contracts `a * b + c` into
/// a fused multiply-add, so every vector lane rounds like the scalar
/// update and the result is bit-for-bit the scalar loop's, including the
/// sign of zero and infinities. (A NaN stays a NaN; Rust leaves the sign
/// and payload of NaN results unspecified.)
///
/// The kernel is compiled twice: once for the baseline target and once
/// with `avx512f`, 16 `f32` lanes wide, which one call picks when the host
/// supports it ([`row_kernel_width`]). Subnormal operands cost x86 a
/// microcode assist per instruction, not per lane, so the wider kernel
/// pays far fewer of them on the late PCR steps.
///
/// The slices are separate parameters, not arrays, on purpose: only
/// reference parameters carry the no-alias guarantee that lets the
/// compiler vectorise the kernel without runtime overlap checks.
#[allow(clippy::too_many_arguments)]
pub fn pcr_rows<T: Scalar>(
    stride: usize,
    lo: usize,
    sa: &[T],
    sb: &[T],
    sc: &[T],
    sd: &[T],
    da: &mut [T],
    db: &mut [T],
    dc: &mut [T],
    dd: &mut [T],
) {
    #[cfg(target_arch = "x86_64")]
    if has_avx512f() {
        #[allow(unsafe_code)]
        // SAFETY: the only requirement of a `target_feature` function is
        // that the host supports its features, and `avx512f` was just
        // detected at run time.
        unsafe {
            pcr_rows_avx512f(stride, lo, sa, sb, sc, sd, da, db, dc, dd);
        }
        return;
    }
    pcr_rows_body(stride, lo, sa, sb, sc, sd, da, db, dc, dd);
}

/// Which instantiation of the PCR row kernel [`pcr_rows`] runs on this
/// host: `"avx512f"` or `"baseline"`.
pub fn row_kernel_width() -> &'static str {
    if has_avx512f() {
        "avx512f"
    } else {
        "baseline"
    }
}

fn has_avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// [`pcr_rows_body`] compiled for `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn pcr_rows_avx512f<T: Scalar>(
    stride: usize,
    lo: usize,
    sa: &[T],
    sb: &[T],
    sc: &[T],
    sd: &[T],
    da: &mut [T],
    db: &mut [T],
    dc: &mut [T],
    dd: &mut [T],
) {
    pcr_rows_body(stride, lo, sa, sb, sc, sd, da, db, dc, dd);
}

/// Rows of identity coefficients one kernel call takes for a missing
/// neighbour; an edge run longer than this is fed chunk by chunk.
const IDENTITY_ROWS: usize = 64;

/// The four coefficient arrays of a run of rows.
#[derive(Clone, Copy)]
struct Rows<'a, T> {
    a: &'a [T],
    b: &'a [T],
    c: &'a [T],
    d: &'a [T],
}

impl<'a, T> Rows<'a, T> {
    /// Rows `from .. from + len`, with a length the optimiser can see.
    #[inline(always)]
    fn window(self, from: usize, len: usize) -> Self {
        Rows {
            a: &self.a[from..][..len],
            b: &self.b[from..][..len],
            c: &self.c[from..][..len],
            d: &self.d[from..][..len],
        }
    }
}

/// The body of [`pcr_rows`], inlined into each instantiation.
///
/// `lo..hi` splits into at most three contiguous runs at the cut points
/// `stride` (rows below it have no `−stride` neighbour) and `n − stride`
/// (rows from it on have no `+stride` neighbour): a low-edge run, then
/// the interior (or, when `stride > n − stride`, the rows that miss both
/// neighbours), then a high-edge run. Within a run every row has the same
/// neighbours present, so each run is one kernel call per
/// [`IDENTITY_ROWS`] chunk when a neighbour is missing, or one call
/// outright when both exist.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pcr_rows_body<T: Scalar>(
    stride: usize,
    lo: usize,
    sa: &[T],
    sb: &[T],
    sc: &[T],
    sd: &[T],
    da: &mut [T],
    db: &mut [T],
    dc: &mut [T],
    dd: &mut [T],
) {
    let n = sb.len();
    let hi = lo + db.len();
    debug_assert!(stride >= 1);
    debug_assert!(hi <= n);
    debug_assert!([sa.len(), sc.len(), sd.len()].iter().all(|&l| l == n));
    debug_assert!([da.len(), dc.len(), dd.len()].iter().all(|&l| l == hi - lo));

    let src = Rows {
        a: sa,
        b: sb,
        c: sc,
        d: sd,
    };
    let (zeros, ones) = ([T::ZERO; IDENTITY_ROWS], [T::ONE; IDENTITY_ROWS]);
    let identity = Rows {
        a: &zeros[..],
        b: &ones[..],
        c: &zeros[..],
        d: &zeros[..],
    };
    let (low, high) = (stride.min(n), n.saturating_sub(stride));
    let cut1 = low.min(high).clamp(lo, hi);
    let cut2 = low.max(high).clamp(lo, hi);
    for (from, to) in [(lo, cut1), (cut1, cut2), (cut2, hi)] {
        if from == to {
            continue;
        }
        let has_minus = from >= stride;
        let has_plus = to + stride <= n;
        let chunk = if has_minus && has_plus {
            to - from
        } else {
            IDENTITY_ROWS
        };
        for start in (from..to).step_by(chunk) {
            let len = chunk.min(to - start);
            let minus = if has_minus {
                src.window(start - stride, len)
            } else {
                identity.window(0, len)
            };
            let plus = if has_plus {
                src.window(start + stride, len)
            } else {
                identity.window(0, len)
            };
            let o = start - lo;
            row_kernel(
                src.window(start, len),
                minus,
                plus,
                &mut da[o..][..len],
                &mut db[o..][..len],
                &mut dc[o..][..len],
                &mut dd[o..][..len],
            );
        }
    }
}

/// One PCR row update over equal-length runs: own rows, their `−stride`
/// neighbours and their `+stride` neighbours, into `oa..od`.
#[inline(always)]
fn row_kernel<T: Scalar>(
    own: Rows<'_, T>,
    m: Rows<'_, T>,
    p: Rows<'_, T>,
    oa: &mut [T],
    ob: &mut [T],
    oc: &mut [T],
    od: &mut [T],
) {
    let len = oa.len();
    let (own, m, p) = (own.window(0, len), m.window(0, len), p.window(0, len));
    let (ob, oc, od) = (&mut ob[..len], &mut oc[..len], &mut od[..len]);
    for j in 0..len {
        let alpha = -own.a[j] / m.b[j];
        let gamma = -own.c[j] / p.b[j];
        oa[j] = alpha * m.a[j];
        ob[j] = own.b[j] + alpha * m.c[j] + gamma * p.a[j];
        oc[j] = gamma * p.c[j];
        od[j] = own.d[j] + alpha * m.d[j] + gamma * p.d[j];
    }
}

/// The result of PCR-splitting a system: transformed coefficients plus the
/// final stride (`2^steps`), whose chains are independent subsystems.
#[derive(Debug, Clone)]
pub struct PcrSplit<T: Scalar> {
    /// Transformed sub-diagonal (couples at distance `stride`).
    pub a: Vec<T>,
    /// Transformed main diagonal.
    pub b: Vec<T>,
    /// Transformed super-diagonal (couples at distance `stride`).
    pub c: Vec<T>,
    /// Transformed right-hand side.
    pub d: Vec<T>,
    /// Final coupling distance = number of independent chains.
    pub stride: usize,
}

impl<T: Scalar> PcrSplit<T> {
    /// The independent chains of the split system.
    pub fn chains(&self) -> Vec<ChainView> {
        ChainView::chains_of(0, self.b.len(), self.stride)
    }
}

/// Run `steps` PCR steps on a system, returning the transformed coefficients.
pub fn pcr_split<T: Scalar>(sys: &TridiagonalSystem<T>, steps: u32) -> Result<PcrSplit<T>> {
    let n = sys.len();
    if n == 0 {
        return Err(SolverError::EmptySystem);
    }
    let mut cur = (sys.a.clone(), sys.b.clone(), sys.c.clone(), sys.d.clone());
    let mut next = (
        vec![T::ZERO; n],
        vec![T::ZERO; n],
        vec![T::ZERO; n],
        vec![T::ZERO; n],
    );
    let mut stride = 1usize;
    for _ in 0..steps {
        pcr_step(
            stride,
            &cur.0,
            &cur.1,
            &cur.2,
            &cur.3,
            &mut next.0,
            &mut next.1,
            &mut next.2,
            &mut next.3,
        );
        std::mem::swap(&mut cur, &mut next);
        stride *= 2;
    }
    Ok(PcrSplit {
        a: cur.0,
        b: cur.1,
        c: cur.2,
        d: cur.3,
        stride,
    })
}

/// Solve a system with pure PCR: split until every chain has length 1, then
/// divide. `O(n log n)` work, `O(log n)` steps.
pub fn solve_pcr<T: Scalar>(sys: &TridiagonalSystem<T>) -> Result<Vec<T>> {
    let n = sys.len();
    let steps = ceil_log2(n);
    let split = pcr_split(sys, steps)?;
    let mut x = vec![T::ZERO; n];
    for (i, xi) in x.iter_mut().enumerate() {
        let mag = split.b[i].abs().to_f64();
        if !mag.is_finite() || mag == 0.0 {
            return Err(SolverError::ZeroPivot {
                row: i,
                magnitude: mag,
            });
        }
        *xi = split.d[i] / split.b[i];
    }
    Ok(x)
}

/// Solve by `steps` PCR splits followed by a Thomas solve of every chain —
/// the algorithmic core of the paper's base kernel, on the CPU.
pub fn solve_pcr_then_thomas<T: Scalar>(sys: &TridiagonalSystem<T>, steps: u32) -> Result<Vec<T>> {
    let n = sys.len();
    let split = pcr_split(sys, steps)?;
    let mut x = vec![T::ZERO; n];
    let mut scratch = thomas::ChainScratch::new();
    for chain in split.chains() {
        thomas::solve_thomas_chain(
            &chain,
            &split.a,
            &split.b,
            &split.c,
            &split.d,
            &mut x,
            &mut scratch,
        )?;
    }
    Ok(x)
}

/// Smallest number of PCR steps after which every chain of an `n`-equation
/// system has length 1 (i.e. `ceil(log2(n))`).
pub fn ceil_log2(n: usize) -> u32 {
    debug_assert!(n >= 1);
    usize::BITS - (n - 1).leading_zeros()
}

/// Number of PCR steps needed to split an `n`-equation system into chains of
/// at most `target` equations.
pub fn steps_to_reach(n: usize, target: usize) -> u32 {
    assert!(target >= 1);
    let mut steps = 0u32;
    let mut len = n;
    while len > target {
        len = len.div_ceil(2);
        steps += 1;
    }
    steps
}

/// Per-equation floating-point cost of one PCR step (cost models).
pub const PCR_FLOPS_PER_EQ: usize = 12;

/// Total floating-point cost of `steps` PCR steps over `n` equations.
pub fn pcr_flops(n: usize, steps: u32) -> usize {
    n * PCR_FLOPS_PER_EQ * steps as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thomas::solve_thomas;

    fn dominant(n: usize, scale: f64) -> TridiagonalSystem<f64> {
        let mut a = vec![-1.0; n];
        let b = vec![3.0 * scale; n];
        let mut c = vec![-1.2; n];
        a[0] = 0.0;
        c[n - 1] = 0.0;
        let d: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        TridiagonalSystem::new(a, b, c, d).unwrap()
    }

    /// The scalar row loop `pcr_rows` replaced, kept as the bit-exact
    /// oracle: every row fetches its neighbours with a branch, reading
    /// out-of-range ones as identity rows.
    fn scalar_step<T: Scalar>(stride: usize, src: &[Vec<T>; 4]) -> [Vec<T>; 4] {
        let [a, b, c, d] = src;
        let n = b.len();
        let mut dst = [(); 4].map(|()| vec![T::ZERO; n]);
        let identity = (T::ZERO, T::ONE, T::ZERO, T::ZERO);
        for i in 0..n {
            let (am, bm, cm, dm) = if i >= stride {
                let j = i - stride;
                (a[j], b[j], c[j], d[j])
            } else {
                identity
            };
            let (ap, bp, cp, dp) = if i + stride < n {
                let j = i + stride;
                (a[j], b[j], c[j], d[j])
            } else {
                identity
            };
            let alpha = -a[i] / bm;
            let gamma = -c[i] / bp;
            dst[0][i] = alpha * am;
            dst[1][i] = b[i] + alpha * cm + gamma * ap;
            dst[2][i] = gamma * cp;
            dst[3][i] = d[i] + alpha * dm + gamma * dp;
        }
        dst
    }

    /// Bit pattern of an element, so `-0.0 != 0.0` and `inf` compare
    /// exactly. Every NaN maps to one pattern: Rust leaves the sign and
    /// payload of a NaN *result* unspecified, and when two NaNs of
    /// different sign meet, which one an `a + b` propagates depends on the
    /// operand order the code generator picks, which differs between the
    /// scalar and the vector loop.
    trait Bits: Scalar {
        /// Smallest positive normal value, widened.
        const MIN_NORMAL: f64;
        fn bits(self) -> u64;
    }

    impl Bits for f32 {
        const MIN_NORMAL: f64 = f32::MIN_POSITIVE as f64;
        fn bits(self) -> u64 {
            if self.is_nan() {
                u64::MAX
            } else {
                u64::from(self.to_bits())
            }
        }
    }

    impl Bits for f64 {
        const MIN_NORMAL: f64 = f64::MIN_POSITIVE;
        fn bits(self) -> u64 {
            if self.is_nan() {
                u64::MAX
            } else {
                self.to_bits()
            }
        }
    }

    /// A diagonally dominant system with pseudo-random coefficients of
    /// both signs, a subnormal planted in `a` and `c`, plus the given
    /// `(array, row, value)` overrides.
    fn rough<T: Bits>(n: usize, seed: u64, overrides: &[(usize, usize, f64)]) -> [Vec<T>; 4] {
        let mut s = seed;
        let mut r = || {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut sys: [Vec<T>; 4] = [1.0, 4.0, 1.0, 10.0].map(|scale: f64| {
            (0..n)
                .map(|_| T::from_f64(if scale == 4.0 { 4.0 + r() } else { scale * r() }))
                .collect()
        });
        let tiny = T::MIN_NORMAL / 8.0;
        for (k, i, v) in [(0, n / 2, tiny), (2, n / 3, -tiny)]
            .into_iter()
            .chain(overrides.iter().copied())
        {
            if i < n {
                sys[k][i] = T::from_f64(v);
            }
        }
        sys
    }

    /// `pcr_rows` over `lo..hi` against the oracle, bit for bit: the
    /// dispatched call (`widest`) or the baseline instantiation.
    fn assert_rows_match<T: Bits>(
        widest: bool,
        stride: usize,
        src: &[Vec<T>; 4],
        want: &[Vec<T>; 4],
        what: &str,
    ) {
        let n = src[1].len();
        let ranges = [
            (0, n),
            (0, n / 2),
            (n / 2, n),
            (n / 4, n - n / 4),
            (n / 3, n / 3 + 1),
            (n / 2, n / 2),
        ];
        for (lo, hi) in ranges {
            let mut got = [(); 4].map(|()| vec![T::ZERO; hi - lo]);
            let [ga, gb, gc, gd] = &mut got;
            let [sa, sb, sc, sd] = src.each_ref().map(Vec::as_slice);
            if widest {
                pcr_rows(stride, lo, sa, sb, sc, sd, ga, gb, gc, gd);
            } else {
                pcr_rows_body(stride, lo, sa, sb, sc, sd, ga, gb, gc, gd);
            }
            for k in 0..4 {
                for (j, (g, w)) in got[k].iter().zip(&want[k][lo..hi]).enumerate() {
                    assert_eq!(
                        g.bits(),
                        w.bits(),
                        "{what} widest={widest} stride={stride} rows {lo}..{hi}: array {k} row {}: {g} vs {w}",
                        lo + j
                    );
                }
            }
        }
    }

    /// Each oracle input is checked after 0 to `PRE_STEPS` PCR steps. The
    /// off-diagonals shrink quadratically per step, so they pass through
    /// the subnormal range to exact zeros, in f32 first, f64 later.
    const PRE_STEPS: u32 = 12;

    /// `rough(n, seed, overrides)` after each of 0 to [`PRE_STEPS`] steps.
    fn pre_stepped<T: Bits>(
        n: usize,
        seed: u64,
        overrides: &[(usize, usize, f64)],
    ) -> Vec<(u32, [Vec<T>; 4])> {
        let mut sys = rough::<T>(n, seed, overrides);
        let mut out = Vec::new();
        for k in 0..=PRE_STEPS {
            out.push((k, sys.clone()));
            sys = scalar_step(1 << k, &sys);
        }
        out
    }

    /// Every stride from 1 past `n` and every range shape, on pre-stepped
    /// inputs, with signed zeros (seed 1) or a NaN and both infinities
    /// (seed 2) planted, on the baseline instantiation and, when the host
    /// has `avx512f`, the wide one. The sizes include edge runs longer
    /// than one identity chunk, such as rows `0..200` and `800..1000` of
    /// `n = 1000` at stride 200.
    fn rows_match_scalar_oracle<T: Bits>() {
        let sizes = [1usize, 2, 3, 5, 64, 1000, 1024];
        assert!(sizes.iter().any(|&n| n > 3 * IDENTITY_ROWS));
        let mut widths = vec![false];
        if has_avx512f() {
            widths.push(true);
        } else {
            eprintln!(
                "{}: skipped the avx512f instantiation: host lacks avx512f",
                T::NAME
            );
        }
        let specials = [
            (0, 2, f64::NAN),
            (1, 5, f64::INFINITY),
            (2, 40, f64::NEG_INFINITY),
        ];
        let negzero = [(0, 1, -0.0), (2, 3, -0.0), (3, 7, -0.0)];
        for n in sizes {
            for (seed, overrides) in [(1, &negzero[..]), (2, &specials[..])] {
                for (k, sys) in pre_stepped::<T>(n, seed, overrides) {
                    let what = format!("{} n={n} seed={seed} k={k}", T::NAME);
                    for stride in 1..=n + 1 {
                        let want = scalar_step(stride, &sys);
                        for &widest in &widths {
                            assert_rows_match(widest, stride, &sys, &want, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rows_match_scalar_oracle_f32() {
        rows_match_scalar_oracle::<f32>();
    }

    #[test]
    fn rows_match_scalar_oracle_f64() {
        rows_match_scalar_oracle::<f64>();
    }

    /// The stepped oracle inputs really carry subnormals and exact zeros
    /// away from the edge rows (whose zeros are structural).
    fn reaches_subnormals_and_zeros<T: Bits>() {
        let min_normal = T::from_f64(T::MIN_NORMAL);
        let (mut subnormal, mut zero) = (false, false);
        for (k, sys) in pre_stepped::<T>(1024, 1, &[]).into_iter().skip(1) {
            for v in sys.iter().flat_map(|v| v.iter().skip(1 << k)) {
                subnormal |= *v != T::ZERO && v.abs() < min_normal;
                zero |= *v == T::ZERO;
            }
        }
        assert!(subnormal && zero, "{}", T::NAME);
    }

    #[test]
    fn oracle_inputs_reach_subnormals_and_zeros() {
        reaches_subnormals_and_zeros::<f32>();
        reaches_subnormals_and_zeros::<f64>();
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn steps_to_reach_values() {
        assert_eq!(steps_to_reach(1024, 256), 2);
        assert_eq!(steps_to_reach(1024, 1024), 0);
        assert_eq!(steps_to_reach(1000, 256), 2);
        assert_eq!(steps_to_reach(2_000_000, 256), 13);
        assert_eq!(steps_to_reach(1, 1), 0);
    }

    #[test]
    fn boundary_subcoefficients_vanish() {
        // Invariant: after j steps at stride 2^j, a[i] == 0 for i < 2^j and
        // c[i] == 0 for i >= n - 2^j.
        let sys = dominant(37, 1.0);
        for steps in 0..=6u32 {
            let split = pcr_split(&sys, steps).unwrap();
            let s = split.stride.min(37);
            for i in 0..s {
                assert!(
                    split.a[i].abs() < 1e-12,
                    "steps={steps} a[{i}]={}",
                    split.a[i]
                );
            }
            for i in 37 - s..37 {
                assert!(
                    split.c[i].abs() < 1e-12,
                    "steps={steps} c[{i}]={}",
                    split.c[i]
                );
            }
        }
    }

    #[test]
    fn split_chains_preserve_solution() {
        // Solving each chain of the split system must reproduce the direct
        // solution of the original.
        for n in [8usize, 16, 33, 100, 257] {
            let sys = dominant(n, 1.0);
            let direct = solve_thomas(&sys).unwrap();
            for steps in 0..=4u32 {
                let x = solve_pcr_then_thomas(&sys, steps).unwrap();
                for (u, v) in direct.iter().zip(&x) {
                    assert!((u - v).abs() < 1e-8, "n={n} steps={steps}");
                }
            }
        }
    }

    #[test]
    fn pure_pcr_matches_thomas() {
        for n in [1usize, 2, 7, 64, 129, 500] {
            let sys = dominant(n, 1.0);
            let direct = solve_thomas(&sys).unwrap();
            let x = solve_pcr(&sys).unwrap();
            for (u, v) in direct.iter().zip(&x) {
                assert!((u - v).abs() < 1e-7, "n={n}");
            }
        }
    }

    #[test]
    fn zero_steps_is_identity() {
        let sys = dominant(12, 1.0);
        let split = pcr_split(&sys, 0).unwrap();
        assert_eq!(split.a, sys.a);
        assert_eq!(split.b, sys.b);
        assert_eq!(split.stride, 1);
    }

    #[test]
    fn split_systems_stay_dominant() {
        // PCR preserves diagonal dominance (each step is a convex-like
        // combination); verify empirically on a dominant system.
        let sys = dominant(128, 1.0);
        let split = pcr_split(&sys, 4).unwrap();
        for i in 0..128 {
            assert!(
                split.b[i].abs() > split.a[i].abs() + split.c[i].abs() - 1e-12,
                "row {i} lost dominance"
            );
        }
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [3usize, 5, 9, 17, 31, 1000, 1023] {
            let sys = dominant(n, 1.0);
            let direct = solve_thomas(&sys).unwrap();
            let x = solve_pcr_then_thomas(&sys, 3.min(ceil_log2(n))).unwrap();
            for (u, v) in direct.iter().zip(&x) {
                assert!((u - v).abs() < 1e-7, "n={n}");
            }
        }
    }

    #[test]
    fn flops_model_scales() {
        assert_eq!(pcr_flops(100, 0), 0);
        assert_eq!(pcr_flops(100, 2), 2400);
    }

    #[test]
    fn singular_after_split_detected() {
        // An all-zero diagonal system cannot be solved by PCR's final divide.
        let sys = TridiagonalSystem::new(
            vec![0.0, 1.0],
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        // PCR step: alpha = -a/bm etc. — with zero diagonals the divide at
        // the end must fail rather than return NaN silently.
        assert!(solve_pcr(&sys).is_err() || solve_pcr(&sys).unwrap().iter().all(|v| v.is_finite()));
    }
}
