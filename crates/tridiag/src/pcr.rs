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
/// supports it ([`row_kernel_width`]). For `f32`, a run of rows whose
/// off-diagonals are tiny is evaluated in `f64` and rounded back onto the
/// `f32` grid after every operation ([`Scalar::pcr_row_update`]), which
/// gives the same bits without ever handing the CPU an `f32` subnormal,
/// and so without its microcode assists.
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
    pcr_rows_with::<T, Dispatched>(stride, lo, sa, sb, sc, sd, da, db, dc, dd);
}

/// [`pcr_rows`] with the row update `K`, in the widest instantiation the
/// host runs.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pcr_rows_with<T: Scalar, K: RowKernel<T>>(
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
            pcr_rows_avx512f::<T, K>(stride, lo, sa, sb, sc, sd, da, db, dc, dd);
        }
        return;
    }
    pcr_rows_body::<T, K>(stride, lo, sa, sb, sc, sd, da, db, dc, dd);
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
fn pcr_rows_avx512f<T: Scalar, K: RowKernel<T>>(
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
    pcr_rows_body::<T, K>(stride, lo, sa, sb, sc, sd, da, db, dc, dd);
}

/// A row update over equal-length runs: own rows, their `−stride`
/// neighbours and their `+stride` neighbours, into the four outputs. An
/// associated function rather than a closure: a closure is called through
/// a shim that need not inline, and a kernel left outside the `avx512f`
/// instantiation is compiled for the baseline target.
trait RowKernel<T> {
    #[allow(clippy::too_many_arguments)]
    fn update(
        own: Rows<'_, T>,
        m: Rows<'_, T>,
        p: Rows<'_, T>,
        oa: &mut [T],
        ob: &mut [T],
        oc: &mut [T],
        od: &mut [T],
    );
}

/// The element type's own row update, [`Scalar::pcr_row_update`].
struct Dispatched;

impl<T: Scalar> RowKernel<T> for Dispatched {
    #[inline(always)]
    fn update(
        own: Rows<'_, T>,
        m: Rows<'_, T>,
        p: Rows<'_, T>,
        oa: &mut [T],
        ob: &mut [T],
        oc: &mut [T],
        od: &mut [T],
    ) {
        T::pcr_row_update(own, m, p, oa, ob, oc, od);
    }
}

/// Rows of identity coefficients one kernel call takes for a missing
/// neighbour; an edge run longer than this is fed chunk by chunk.
const IDENTITY_ROWS: usize = 64;

/// The four coefficient arrays of a run of rows, as [`pcr_rows`] hands
/// them to [`Scalar::pcr_row_update`].
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a, T> {
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
fn pcr_rows_body<T: Scalar, K: RowKernel<T>>(
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
            K::update(
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
/// neighbours and their `+stride` neighbours, into `oa..od`, in the
/// element type's own arithmetic.
#[inline(always)]
pub(crate) fn row_kernel<T: Scalar>(
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

/// The `f32` row update: [`row_kernel_f64`] on runs whose first
/// [`PROBE_ROWS`] own off-diagonals hold a nonzero magnitude below
/// [`TINY`], the native [`row_kernel`] elsewhere. Both give the same bits,
/// so the test only decides speed.
#[inline(always)]
pub(crate) fn row_update_f32(
    own: Rows<'_, f32>,
    m: Rows<'_, f32>,
    p: Rows<'_, f32>,
    oa: &mut [f32],
    ob: &mut [f32],
    oc: &mut [f32],
    od: &mut [f32],
) {
    let probe = own.window(0, own.a.len().min(PROBE_ROWS));
    if has_tiny(probe.a) || has_tiny(probe.c) {
        row_kernel_f64(own, m, p, oa, ob, oc, od);
    } else {
        row_kernel(own, m, p, oa, ob, oc, od);
    }
}

/// Off-diagonal magnitude below which a run goes down the `f64` path:
/// 2^−75, whose square lies below the `f32` subnormal range, so a step on
/// such rows handles subnormals. Picked by measuring the `pcr_ladder`
/// steps and the PCR call sites of `batch-1Kx1K` and `single-512K` (DESIGN
/// §3.17): 2^−63, below which a step's products can go subnormal, also
/// sent step 4 of the 64K ladder, which takes no assist, down the slower
/// path.
const TINY: f32 = f32::from_bits((127 - 75) << 23);

/// Rows of a run the path test reads. A step shrinks the off-diagonals of
/// every row alike, so the first rows stand for the run; scanning all of
/// it cost the normal steps of the 64K ladder 10–20%.
const PROBE_ROWS: usize = 64;

/// Whether any element of `xs` is nonzero and smaller in magnitude than
/// [`TINY`]: a branch-free scan of the bits.
#[inline(always)]
fn has_tiny(xs: &[f32]) -> bool {
    let limit = TINY.to_bits();
    xs.iter().fold(false, |any, x| {
        any | ((x.to_bits() & !SIGN32).wrapping_sub(1) < limit - 1)
    })
}

/// The sign bit of an `f32`.
const SIGN32: u32 = 1 << 31;
/// The sign bit of an `f64`.
const SIGN64: u64 = 1 << 63;
/// 2^−126, the smallest normal `f32`, as an `f64`.
const MIN_NORMAL_F32: f64 = f32::MIN_POSITIVE as f64;
/// 2^−97: its `f64` ulp is 2^−149, the spacing of the `f32` subnormals.
/// `|x| + SUBNORMAL_GRID` rounds a magnitude below 2^−126 onto that grid,
/// and the low 24 bits of the sum are the `f32` bits of the result (up to
/// and including 2^−126 itself, at `0x0080_0000`).
const SUBNORMAL_GRID: f64 = f64::from_bits((1023 - 97) << 52);
/// The exponent field of 1.0 in an `f64`. OR-ed into a magnitude below
/// 2^−126 it gives a value in `[1, 2)`, which the hardware converts to
/// `f32` without an assist.
const ONE_EXPONENT: u64 = 0x3ff << 52;

// The lanes that must not reach a hardware conversion are changed by
// integer operations (`|` with a mask, never a select of a constant), so
// the compiler cannot hoist the conversion above the change: it would, for
// a select with a constant arm.

/// `x` as an `f64`, exactly, without a hardware conversion: a zero
/// exponent gives `mantissa · 2^−149`, from the bits of 2^−97 +
/// `mantissa` · 2^−149; any other exponent is re-biased in the bits, to
/// 2047 for infinities and NaNs.
#[inline(always)]
pub(crate) fn widen(x: f32) -> f64 {
    let bits = x.to_bits();
    let magnitude = bits & !SIGN32;
    let small = f64::from_bits(SUBNORMAL_GRID.to_bits() | u64::from(magnitude)) - SUBNORMAL_GRID;
    let bias: u64 = if magnitude >= 0x7f80_0000 {
        (2047 - 255) << 52
    } else {
        (1023 - 127) << 52
    };
    let wide = if magnitude < 0x0080_0000 {
        small.to_bits()
    } else {
        (u64::from(magnitude) << 29) + bias
    };
    f64::from_bits(wide | (u64::from(bits & SIGN32) << 32))
}

/// `x` made safe for the hardware `f64 → f32` converter: a magnitude
/// below 2^−126 (which would convert to a subnormal) becomes a value in
/// `[1, 2)`; the caller discards that lane's conversion.
#[inline(always)]
fn convertible(x: f64, tiny: bool) -> f64 {
    f64::from_bits(x.to_bits() | (u64::from(tiny) * ONE_EXPONENT))
}

/// `x` rounded to the nearest `f32` (ties to even, overflow to infinity),
/// kept as an `f64`: a magnitude below 2^−126 is rounded onto the
/// subnormal grid by [`SUBNORMAL_GRID`], every other value by the hardware
/// converters.
#[inline(always)]
pub(crate) fn round(x: f64) -> f64 {
    let tiny = x.abs() < MIN_NORMAL_F32;
    let small = (x.abs() + SUBNORMAL_GRID) - SUBNORMAL_GRID;
    let small = f64::from_bits(small.to_bits() | (x.to_bits() & SIGN64));
    let normal = f64::from(convertible(x, tiny) as f32);
    if tiny {
        small
    } else {
        normal
    }
}

/// `x` rounded to the nearest `f32`, as [`round`] does, and returned as
/// one: the grid sum's low bits are the subnormal result.
#[inline(always)]
pub(crate) fn narrow(x: f64) -> f32 {
    let tiny = x.abs() < MIN_NORMAL_F32;
    let small = ((x.abs() + SUBNORMAL_GRID).to_bits() & 0x00ff_ffff) as u32;
    let small = small | ((x.to_bits() >> 32) as u32 & SIGN32);
    let normal = (convertible(x, tiny) as f32).to_bits();
    f32::from_bits(if tiny { small } else { normal })
}

/// [`row_kernel`] for `f32`, evaluated in `f64` on operands widened by
/// [`widen`], each operation's result rounded back onto the `f32` grid by
/// [`round`] (the last one of each output by [`narrow`]).
///
/// Every `f32` value, subnormals included, is a normal `f64`, and so is
/// every intermediate: a product of two `f32` values is exact in `f64`,
/// and sums and quotients, rounded first to `f64` and then to `f32`, are
/// rounded correctly because 53 ≥ 2·24 + 2. Neither `widen` nor the
/// rounding converts an `f32` subnormal in hardware, so the path takes no
/// subnormal assist, and its results are bit for bit those of
/// [`row_kernel`].
#[inline(always)]
pub(crate) fn row_kernel_f64(
    own: Rows<'_, f32>,
    m: Rows<'_, f32>,
    p: Rows<'_, f32>,
    oa: &mut [f32],
    ob: &mut [f32],
    oc: &mut [f32],
    od: &mut [f32],
) {
    let len = oa.len();
    let (own, m, p) = (own.window(0, len), m.window(0, len), p.window(0, len));
    let (ob, oc, od) = (&mut ob[..len], &mut oc[..len], &mut od[..len]);
    for j in 0..len {
        let alpha = round(-widen(own.a[j]) / widen(m.b[j]));
        let gamma = round(-widen(own.c[j]) / widen(p.b[j]));
        oa[j] = narrow(alpha * widen(m.a[j]));
        let b = round(widen(own.b[j]) + round(alpha * widen(m.c[j])));
        ob[j] = narrow(b + round(gamma * widen(p.a[j])));
        oc[j] = narrow(gamma * widen(p.c[j]));
        let d = round(widen(own.d[j]) + round(alpha * widen(m.d[j])));
        od[j] = narrow(d + round(gamma * widen(p.d[j])));
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

        /// [`assert_rows_match`] with every row update of the type: the
        /// dispatched one and, for `f32`, each of its two paths forced.
        fn assert_kernels_match(
            widest: bool,
            stride: usize,
            src: &[Vec<Self>; 4],
            want: &[Vec<Self>; 4],
            what: &str,
        );
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

        fn assert_kernels_match(
            widest: bool,
            stride: usize,
            src: &[Vec<f32>; 4],
            want: &[Vec<f32>; 4],
            what: &str,
        ) {
            assert_rows_match::<f32, Dispatched>(widest, stride, src, want, what);
            assert_rows_match::<f32, Native>(widest, stride, src, want, what);
            assert_rows_match::<f32, F64Path>(widest, stride, src, want, what);
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

        fn assert_kernels_match(
            widest: bool,
            stride: usize,
            src: &[Vec<f64>; 4],
            want: &[Vec<f64>; 4],
            what: &str,
        ) {
            assert_rows_match::<f64, Dispatched>(widest, stride, src, want, what);
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

    /// The native row kernel, forced.
    struct Native;

    impl<T: Scalar> RowKernel<T> for Native {
        #[inline(always)]
        fn update(
            own: Rows<'_, T>,
            m: Rows<'_, T>,
            p: Rows<'_, T>,
            oa: &mut [T],
            ob: &mut [T],
            oc: &mut [T],
            od: &mut [T],
        ) {
            row_kernel(own, m, p, oa, ob, oc, od);
        }
    }

    /// The `f32` row kernel evaluated in `f64`, forced.
    struct F64Path;

    impl RowKernel<f32> for F64Path {
        #[inline(always)]
        fn update(
            own: Rows<'_, f32>,
            m: Rows<'_, f32>,
            p: Rows<'_, f32>,
            oa: &mut [f32],
            ob: &mut [f32],
            oc: &mut [f32],
            od: &mut [f32],
        ) {
            row_kernel_f64(own, m, p, oa, ob, oc, od);
        }
    }

    /// `pcr_rows` over `lo..hi` with the row update `K` against the
    /// oracle, bit for bit, in the widest instantiation the host runs
    /// (`widest`) or the baseline one.
    fn assert_rows_match<T: Bits, K: RowKernel<T>>(
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
                pcr_rows_with::<T, K>(stride, lo, sa, sb, sc, sd, ga, gb, gc, gd);
            } else {
                pcr_rows_body::<T, K>(stride, lo, sa, sb, sc, sd, ga, gb, gc, gd);
            }
            for k in 0..4 {
                for (j, (g, w)) in got[k].iter().zip(&want[k][lo..hi]).enumerate() {
                    assert_eq!(
                        g.bits(),
                        w.bits(),
                        "{what} {} widest={widest} stride={stride} rows {lo}..{hi}: array {k} row {}: {g} vs {w}",
                        std::any::type_name::<K>(),
                        lo + j
                    );
                }
            }
        }
    }

    /// The instantiations to check: the baseline one and, when the host
    /// has `avx512f`, the wide one.
    fn widths(what: &str) -> Vec<bool> {
        if has_avx512f() {
            vec![false, true]
        } else {
            eprintln!("{what}: skipped the avx512f instantiation: host lacks avx512f");
            vec![false]
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
        let widths = widths(T::NAME);
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
                            T::assert_kernels_match(widest, stride, &sys, &want, &what);
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

    /// Adversarial `f32` operands, both signs of each: at every exponent,
    /// the power of two, its successor and 1.5 times it, so that sums and
    /// products land on exact ties; odd multiples of 2^−149, whose halves
    /// are ties on the subnormal grid; the neighbours of 2^−126; `f32::MAX`
    /// and the factors 18 631 · 1801·2^103 = (2 − 2^−24)·2^127, the
    /// overflow threshold, with their successors and predecessors; ±0,
    /// ±inf and NaN.
    fn adversarial_f32() -> Vec<f32> {
        let mut v = vec![
            0.0,
            f32::INFINITY,
            f32::NAN,
            f32::MAX,
            18_631.0,
            1801.0 * 2f32.powi(103),
        ];
        for e in -149i32..=127 {
            let bits = if e >= -126 {
                ((e + 127) as u32) << 23
            } else {
                1 << (e + 149)
            };
            let half = if e >= -126 { 1 << 22 } else { bits >> 1 };
            v.push(f32::from_bits(bits));
            v.push(f32::from_bits(bits + 1));
            v.push(f32::from_bits(bits | half));
        }
        for k in [0u32, 1, 2, 3, 7, (1 << 22) - 1, (1 << 22) + 1] {
            v.push(f32::from_bits(2 * k + 1));
        }
        let edges: Vec<f32> = [
            f32::MIN_POSITIVE,
            f32::MAX,
            18_631.0,
            1801.0 * 2f32.powi(103),
        ]
        .iter()
        .flat_map(|x| [x.to_bits() - 1, x.to_bits() + 1])
        .map(f32::from_bits)
        .collect();
        v.extend(edges);
        let negatives: Vec<f32> = v.iter().map(|x| -x).collect();
        v.extend(negatives);
        v
    }

    /// One `f32` operation evaluated as the `f64` path evaluates it, against
    /// the native result: [`widen`] is exact, [`round`] gives the native
    /// result as an `f64`, [`narrow`] gives its bits.
    fn assert_op_matches(x: f32, y: f32) {
        let nan_as_nan = |v: f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
        assert_eq!(
            nan_as_nan(widen(x)),
            nan_as_nan(f64::from(x)),
            "widen {x:e}"
        );
        let (wx, wy) = (widen(x), widen(y));
        for (op, native, wide) in [
            ('+', x + y, wx + wy),
            ('-', x - y, wx - wy),
            ('*', x * y, wx * wy),
            ('/', x / y, wx / wy),
        ] {
            let what = || format!("{x:e} {op} {y:e} = {native:e}");
            assert_eq!(narrow(wide).bits(), native.bits(), "narrow: {}", what());
            let want = nan_as_nan(f64::from(native));
            assert_eq!(nan_as_nan(round(wide)), want, "round: {}", what());
        }
    }

    #[test]
    fn f64_path_helpers_match_native_ops_on_adversarial_pairs() {
        let v = adversarial_f32();
        for &x in &v {
            for &y in &v {
                assert_op_matches(x, y);
            }
        }
    }

    /// Seeded random bit patterns: half of the operands drawn anywhere, the
    /// other half with an exponent field below 40, so that sums, products
    /// and quotients land in and around the subnormal range.
    #[test]
    fn f64_path_helpers_match_native_ops_on_random_bits() {
        let mut s = 2011u64;
        let mut next = || {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let bits = (s >> 32) as u32;
            if s & 1 == 0 {
                f32::from_bits(bits)
            } else {
                f32::from_bits((bits & 0x807f_ffff) | ((bits >> 8) % 40) << 23)
            }
        };
        for _ in 0..1 << 21 {
            let (x, y) = (next(), next());
            assert_op_matches(x, y);
        }
    }

    /// Rows made of [`adversarial_f32`] values, every row update of `f32`
    /// against the oracle at several strides and in both instantiations.
    #[test]
    fn adversarial_rows_match_scalar_oracle_f32() {
        let v = adversarial_f32();
        let mut s = 7u64;
        let mut pick = || {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            v[(s >> 33) as usize % v.len()]
        };
        let n = 3 * IDENTITY_ROWS + 17;
        for round in 0..32 {
            let sys: [Vec<f32>; 4] = [(); 4].map(|()| (0..n).map(|_| pick()).collect());
            for stride in [1, 2, 3, 16, n / 2, n] {
                let want = scalar_step(stride, &sys);
                for widest in widths("f32") {
                    let what = format!("adversarial round {round}");
                    f32::assert_kernels_match(widest, stride, &sys, &want, &what);
                }
            }
        }
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
