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
use std::marker::PhantomData;

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
    in_widest(RowsJob::<T, K> {
        stride,
        lo,
        src: [sa, sb, sc, sd],
        dst: [da, db, dc, dd],
        kernel: PhantomData,
    });
}

/// Work compiled twice, plainly and inside the `avx512f` instantiation,
/// and run by [`in_widest`] in the widest one the host supports: the PCR
/// row kernel ([`RowsJob`]) and the resident `f32`-grid ladder
/// ([`GridLadder`]). `run` is `#[inline(always)]` in every implementor,
/// so the work is compiled into each instantiation.
trait Widest {
    type Output;
    fn run(self) -> Self::Output;
}

/// Run `work` in the `avx512f` instantiation when the host supports it,
/// else in the baseline one.
#[inline(always)]
fn in_widest<W: Widest>(work: W) -> W::Output {
    #[cfg(target_arch = "x86_64")]
    if has_avx512f() {
        #[allow(unsafe_code)]
        // SAFETY: the only requirement of a `target_feature` function is
        // that the host supports its features, and `avx512f` was just
        // detected at run time.
        return unsafe { in_avx512f(work) };
    }
    work.run()
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

/// `work` compiled for `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn in_avx512f<W: Widest>(work: W) -> W::Output {
    work.run()
}

/// One [`pcr_rows_body`] call with the row update `K`.
struct RowsJob<'a, T, K> {
    stride: usize,
    lo: usize,
    src: [&'a [T]; 4],
    dst: [&'a mut [T]; 4],
    kernel: PhantomData<K>,
}

impl<T: Scalar, K: RowKernel<T>> Widest for RowsJob<'_, T, K> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let ([sa, sb, sc, sd], [da, db, dc, dd]) = (self.src, self.dst);
        pcr_rows_body::<T, K>(self.stride, self.lo, sa, sb, sc, sd, da, db, dc, dd);
    }
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

/// The `f32` row update: [`F64Path`] on runs whose first
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
    if probes_tiny(own.a, own.c) {
        F64Path::update(own, m, p, oa, ob, oc, od);
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

/// Rows of the largest system whose subnormal steps run resident in `f64`
/// ([`pcr_steps_f32_grid`]): its eight `f64` arrays, 128 KiB, stay in the
/// L2 cache beside the tile's own. Measured on `solver_benches`'
/// `strided_chains` on a 2-vCPU Intel Xeon with AVX-512: `1K×1K` f32,
/// whose base-kernel tiles are 1 024 rows, gains (24.0 and 21.7 → 20.4 and
/// 18.8 ms, criterion lower bounds); `2×64K` f32, whose tiles are 16 lanes
/// of 512 rows (8 192), lost 7–15% when they ran resident (4.37 and 4.43
/// → 5.01 and 4.66 ms) and is unchanged at this limit (4.30 and 4.45 ms).
const RESIDENT_ROWS: usize = 2048;

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
/// The exponent field of an `f64`.
const EXPONENT64: u64 = 0x7ff << 52;
/// 2^−126, the smallest normal `f32`, as an `f64`.
const MIN_NORMAL_F32: f64 = f32::MIN_POSITIVE as f64;
/// (2 − 2^−24)·2^127, halfway between `f32::MAX` and 2^128: the smallest
/// magnitude that rounds to an `f32` infinity (the tie goes to the even
/// 2^128).
const OVERFLOW_F32: f64 = f64::from_bits(((1023 + 127) << 52) | (((1 << 24) - 1) << 28));
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
/// kept as an `f64`, without a conversion: `(|x| + m) − m` with the sign
/// of `x`, where `m = max(2^(e+29), 2^−97)` for `x`'s binade `2^e`. The
/// `f64` ulp of `m` is the `f32` ulp of that binade (2^(e−23), or 2^−149
/// below 2^−126), so the sum rounds `|x|` onto the `f32` grid and the
/// difference is exact. A magnitude of at least
/// [`OVERFLOW_F32`] gives infinity; a NaN stays a NaN.
#[inline(always)]
pub(crate) fn round(x: f64) -> f64 {
    let bits = x.to_bits();
    let magnitude = f64::from_bits(bits & !SIGN64);
    // 2^(e+29) from the exponent field. For an infinity or a NaN the sum
    // carries into the sign bit, so `m` is negative and loses the `max`;
    // any magnitude whose `m` leaves the `f64` range is caught by the
    // overflow test below.
    let m = f64::from_bits((bits & EXPONENT64) + (29 << 52));
    let m = if m > SUBNORMAL_GRID {
        m
    } else {
        SUBNORMAL_GRID
    };
    let rounded = (magnitude + m) - m;
    let rounded = if magnitude >= OVERFLOW_F32 {
        f64::INFINITY
    } else {
        rounded
    };
    f64::from_bits(rounded.to_bits() | (bits & SIGN64))
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

/// How the `f32` row update reads and writes its values in `f64`
/// ([`grid_rows`]): `f32` elements widened by [`widen`] and stored by
/// [`narrow`] ([`Widened`]), or `f32` values held as `f64`, read as they
/// are and stored by [`round`] ([`Held`]).
trait GridIo {
    type Elem: Copy;
    /// The element as an `f64`, exactly.
    fn load(x: Self::Elem) -> f64;
    /// `x` rounded onto the `f32` grid, as an element.
    fn store(x: f64) -> Self::Elem;
    /// The zero whose sign is that of `−x / y · z`: `1 ⊕ s(x) ⊕ s(y) ⊕
    /// s(z)`, from the sign bits.
    fn signed_zero(x: Self::Elem, y: Self::Elem, z: Self::Elem) -> Self::Elem;
}

/// `f32` elements, widened on load and narrowed on store.
struct Widened;

impl GridIo for Widened {
    type Elem = f32;

    #[inline(always)]
    fn load(x: f32) -> f64 {
        widen(x)
    }

    #[inline(always)]
    fn store(x: f64) -> f32 {
        narrow(x)
    }

    #[inline(always)]
    fn signed_zero(x: f32, y: f32, z: f32) -> f32 {
        f32::from_bits(((x.to_bits() ^ y.to_bits() ^ z.to_bits()) & SIGN32) ^ SIGN32)
    }
}

/// `f32` values held as `f64` (the grid's values, which [`widen`] gives
/// exactly), for steps that stay in `f64` from one to the next
/// ([`pcr_steps_f32_grid`]).
struct Held;

impl GridIo for Held {
    type Elem = f64;

    #[inline(always)]
    fn load(x: f64) -> f64 {
        x
    }

    #[inline(always)]
    fn store(x: f64) -> f64 {
        round(x)
    }

    #[inline(always)]
    fn signed_zero(x: f64, y: f64, z: f64) -> f64 {
        f64::from_bits(((x.to_bits() ^ y.to_bits() ^ z.to_bits()) & SIGN64) ^ SIGN64)
    }
}

/// Which of a row update's results the `f64` path computes, chosen once
/// per run of rows or resident step ([`StepBound::kind`]); the others are
/// exact without arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    /// All ten rounded operations.
    Full,
    /// `ob = own.b` and `od = own.d`; α, γ, `oa` and `oc` computed.
    KeepBd,
    /// `ob = own.b` and `od = own.d`; `oa` and `oc` signed zeros, no
    /// division.
    Copy,
}

/// The [`StepKind`]s as the const parameter of [`grid_rows`].
const FULL: u8 = StepKind::Full as u8;
const KEEP_BD: u8 = StepKind::KeepBd as u8;
const COPY: u8 = StepKind::Copy as u8;

/// [`row_kernel`] for `f32`, evaluated in `f64` through `G`: each
/// operation's result is rounded back onto the `f32` grid by [`round`],
/// the last one of each output by `G::store`. `KIND` (a [`StepKind`])
/// skips the operations whose results the step's bound proves exact:
/// keep-b/d and copy leave `ob` and `od` as they are, since the step's
/// `b` and `d` are its input's, which the caller keeps.
///
/// Every `f32` value, subnormals included, is a normal `f64`, and so is
/// every intermediate: a product of two `f32` values is exact in `f64`,
/// and sums and quotients, rounded first to `f64` and then to `f32`, are
/// rounded correctly because 53 ≥ 2·24 + 2. Neither [`widen`] nor the
/// rounding converts an `f32` subnormal in hardware, so the path takes no
/// subnormal assist, and its results are bit for bit those of
/// [`row_kernel`].
#[inline(always)]
fn grid_rows<G: GridIo, const KIND: u8>(
    own: Rows<'_, G::Elem>,
    m: Rows<'_, G::Elem>,
    p: Rows<'_, G::Elem>,
    oa: &mut [G::Elem],
    ob: &mut [G::Elem],
    oc: &mut [G::Elem],
    od: &mut [G::Elem],
) {
    let len = oa.len();
    let (own, m, p) = (own.window(0, len), m.window(0, len), p.window(0, len));
    let (ob, oc, od) = (&mut ob[..len], &mut oc[..len], &mut od[..len]);
    let load = G::load;
    // The outputs are written in the order `oa`, `ob`, `oc`, `od`: with
    // `oa` and `oc` first, the per-step 64K steps measured 20% slower.
    for j in 0..len {
        if KIND == COPY {
            oa[j] = G::signed_zero(own.a[j], m.b[j], m.a[j]);
            oc[j] = G::signed_zero(own.c[j], p.b[j], p.c[j]);
            continue;
        }
        let alpha = round(-load(own.a[j]) / load(m.b[j]));
        let gamma = round(-load(own.c[j]) / load(p.b[j]));
        oa[j] = G::store(alpha * load(m.a[j]));
        if KIND == FULL {
            let b = round(load(own.b[j]) + round(alpha * load(m.c[j])));
            ob[j] = G::store(b + round(gamma * load(p.a[j])));
        }
        oc[j] = G::store(gamma * load(p.c[j]));
        if KIND == FULL {
            let d = round(load(own.d[j]) + round(alpha * load(m.d[j])));
            od[j] = G::store(d + round(gamma * load(p.d[j])));
        }
    }
}

/// [`grid_rows`] through `G`, of kind `KIND`, as a [`RowKernel`].
struct OnGrid<G, const KIND: u8>(PhantomData<G>);

impl<G: GridIo, const KIND: u8> RowKernel<G::Elem> for OnGrid<G, KIND> {
    #[inline(always)]
    fn update(
        own: Rows<'_, G::Elem>,
        m: Rows<'_, G::Elem>,
        p: Rows<'_, G::Elem>,
        oa: &mut [G::Elem],
        ob: &mut [G::Elem],
        oc: &mut [G::Elem],
        od: &mut [G::Elem],
    ) {
        grid_rows::<G, KIND>(own, m, p, oa, ob, oc, od);
    }
}

/// The `f32` row update evaluated in `f64`: [`grid_rows`] of the kind the
/// run's bound picks ([`StepBound::of_run`]).
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
        match StepBound::of_run(own, m, p).kind() {
            StepKind::Full => return OnGrid::<Widened, FULL>::update(own, m, p, oa, ob, oc, od),
            StepKind::KeepBd => OnGrid::<Widened, KEEP_BD>::update(own, m, p, oa, ob, oc, od),
            StepKind::Copy => OnGrid::<Widened, COPY>::update(own, m, p, oa, ob, oc, od),
        }
        // The kinds leave `b` and `d` to the caller, which here are copies.
        let len = oa.len();
        ob[..len].copy_from_slice(&own.b[..len]);
        od[..len].copy_from_slice(&own.d[..len]);
    }
}

/// One resident step's row update of kind `KIND`, on held values.
type Resident<const KIND: u8> = OnGrid<Held, KIND>;

/// Whether rows whose off-diagonals are `a` and `c` take the `f64` path:
/// any of the first [`PROBE_ROWS`] holds a nonzero magnitude below
/// [`TINY`].
#[inline(always)]
fn probes_tiny(a: &[f32], c: &[f32]) -> bool {
    let rows = a.len().min(PROBE_ROWS);
    has_tiny(&a[..rows]) || has_tiny(&c[..rows])
}

/// The first row of the interior run of a step at `stride` on `n` rows,
/// where both neighbours exist, or 0 when there is none. The rows next to
/// the edges decay faster than the rest: their off-diagonals are often
/// exact zeros while the interior's are still tiny, so a step's path is
/// decided by the interior, as [`row_update_f32`] decides it for the
/// interior run.
fn interior(n: usize, stride: usize) -> usize {
    if 2 * stride <= n {
        stride
    } else {
        0
    }
}

/// 2^−28: a step keeps `b` (or `d`) when every addend of it is
/// at most this times the smallest `|b|` (`|d|`). An addend of magnitude
/// `y` leaves `x` unchanged when `|fl(y)| < ¼ ulp(x)`, and `¼ ulp(x) >
/// 2^−26·|x|`; the bound leaves a factor 4 for rounding (DESIGN §3.17).
const ADDEND_RATIO: f64 = f64::from_bits((1023 - 28) << 52);
/// 2^−152: a step's product `α·m.a` (`γ·p.c`) at most this in
/// magnitude rounds to a zero, since the `f32` rounding sends every
/// magnitude up to 2^−150 to zero.
const ZERO_PRODUCT: f64 = f64::from_bits((1023 - 152) << 52);
/// 2^−149, the least `f32` subnormal and the spacing of their grid.
const LEAST_F32: f64 = f64::from_bits((1023 - 149) << 52);
/// 1 + 2^−23.
const ONE_ULP_UP: f64 = 1.0 + f32::EPSILON as f64;
/// The magnitude bits of an `f64` infinity; larger ones are NaNs.
const INFINITY64: u64 = EXPONENT64;

/// An upper bound on `|fl(x / y)|`, the `f32` quotient of a magnitude of
/// at most `x` by one of at least `y > 0`, rounded to nearest: a normal
/// result errs by at most 2^−24 relatively, which `1 + 2^−23` covers with
/// the `f64` evaluation's own rounding; one on the subnormal grid errs by
/// at most 2^−150 absolutely, which no relative factor near 1 covers (a
/// quotient just above 2^−150 rounds up to 2^−149), so 2^−149 is added.
#[inline]
fn quotient_bound(x: f64, y: f64) -> f64 {
    x / y * ONE_ULP_UP + LEAST_F32
}

/// Magnitude bounds of one step's input, a resident tile's ([`Self::of`])
/// or a run's ([`Self::of_run`]), as `f64` bits (a magnitude's bits order
/// as the magnitudes do): the
/// largest `|a|`, `|b|`, `|c|`, `|d|` in `max`; the smallest `|b|` and
/// `|d|`, and the smallest nonzero `|a|` and `|c|` less one, in `min`.
/// Integer reductions, so they vectorise and take no assist.
#[derive(Debug, Clone, Copy)]
struct StepBound {
    max: [u64; 4],
    min: [u64; 4],
}

impl StepBound {
    /// The bounds of the system `arrays`, `(a, b, c, d)`.
    #[inline(always)]
    fn of(arrays: [&[f64]; 4]) -> Self {
        let mut bound = StepBound {
            max: [0; 4],
            min: [0; 4],
        };
        for (k, xs) in arrays.into_iter().enumerate() {
            bound.reduce(k, xs);
        }
        bound
    }

    /// The bounds of array `k`, from its values `xs`.
    #[inline(always)]
    fn reduce(&mut self, k: usize, xs: &[f64]) {
        // Zeros are left out of the least `|a|` and `|c|`: less one, they
        // wrap to the largest bits.
        let less = u64::from(k.is_multiple_of(2));
        let (mut max, mut min) = (0, u64::MAX);
        for x in xs {
            let bits = x.to_bits() & !SIGN64;
            max = max.max(bits);
            min = min.min(bits.wrapping_sub(less));
        }
        (self.max[k], self.min[k]) = (max, min);
    }

    /// The bounds of a run of `f32` rows, `own`, and of its neighbours `m`
    /// and `p`: every value counts, except that the least `|d|` is
    /// `own`'s (a neighbour's `d` is only an addend).
    #[inline(always)]
    fn of_run(own: Rows<'_, f32>, m: Rows<'_, f32>, p: Rows<'_, f32>) -> Self {
        let mut bound = StepBound {
            max: [0; 4],
            min: [u64::MAX; 4],
        };
        for (rows, is_own) in [(own, true), (m, false), (p, false)] {
            for (k, xs) in [rows.a, rows.b, rows.c, rows.d].into_iter().enumerate() {
                let (max, min) = extremes_f32(xs, k.is_multiple_of(2));
                bound.max[k] = bound.max[k].max(max);
                if is_own || k != 3 {
                    bound.min[k] = bound.min[k].min(min);
                }
            }
        }
        bound
    }

    /// Whether some `a` or `c` is nonzero and smaller in magnitude than
    /// [`TINY`], as [`has_tiny`] tests a run.
    fn has_tiny(&self) -> bool {
        self.min[0].min(self.min[2]) < f64::from(TINY).to_bits() - 1
    }

    /// The kind of the step on these rows, whatever its stride. With
    /// `|α| ≤ α̂ = quotient_bound(max|a|, min(min|b|, 1))` (a missing
    /// neighbour is an identity row, `b = 1`) and `|γ| ≤ γ̂` likewise from
    /// `max|c|`:
    /// - [`StepKind::KeepBd`] when the addends of `d`, `α·m.d` and
    ///   `γ·p.d`, are small against every `d`: `max(α̂, γ̂)·max|d|` at most
    ///   [`ADDEND_RATIO`]`·min|d|`. That puts `α̂` and `γ̂` below the ratio,
    ///   so `max|c| ≤ γ̂·min|b|` and the addends of `b`, at most
    ///   `α̂·max|c|` and `γ̂·max|a|`, are small against every `b` too;
    /// - [`StepKind::Copy`] when also `α̂·max|a|` and `γ̂·max|c|` are at
    ///   most [`ZERO_PRODUCT`];
    /// - [`StepKind::Full`] otherwise, and whenever a value is not finite
    ///   (`0·inf` is NaN) or a `b` or `d` is zero (`±0 + ±0` takes its
    ///   sign from both).
    fn kind(&self) -> StepKind {
        let [_, min_b, _, min_d] = self.min;
        if self.max.iter().any(|&m| m >= INFINITY64) || min_b == 0 || min_d == 0 {
            return StepKind::Full;
        }
        let [a, _, c, d] = self.max.map(f64::from_bits);
        let divisor = f64::from_bits(min_b).min(1.0);
        let (alpha, gamma) = (quotient_bound(a, divisor), quotient_bound(c, divisor));
        if alpha.max(gamma) * d > ADDEND_RATIO * f64::from_bits(min_d) {
            StepKind::Full
        } else if alpha * a <= ZERO_PRODUCT && gamma * c <= ZERO_PRODUCT {
            StepKind::Copy
        } else {
            StepKind::KeepBd
        }
    }
}

/// [`StepBound::reduce`] on `f32` values: the largest magnitude of `xs`
/// and the least (the least nonzero one less one, when `nonzero`), as the
/// bits of the `f64` magnitudes.
#[inline(always)]
fn extremes_f32(xs: &[f32], nonzero: bool) -> (u64, u64) {
    let less = u32::from(nonzero);
    let (mut max, mut min) = (0u32, u32::MAX);
    for x in xs {
        let bits = x.to_bits() & !SIGN32;
        max = max.max(bits);
        min = min.min(bits.wrapping_sub(less));
    }
    let wide = |bits: u32| widen(f32::from_bits(bits)).to_bits();
    // Undo the `less` before widening, and redo it after; all zeros stay
    // the largest bits.
    let min = match min.checked_add(less) {
        Some(least) => wide(least) - u64::from(less),
        None => u64::MAX,
    };
    (wide(max), min)
}

/// Consecutive `f32` PCR steps at strides `stride`, `2·stride`, … on the
/// system in `src`, resident in `f64`: when the first step takes the `f64`
/// path ([`row_update_f32`]'s test on the first rows of the step's
/// interior, [`interior`]), `src` is widened once into `wide`, that step
/// and every later one that still has a tiny off-diagonal ([`StepBound`])
/// run on the `f32` grid in `f64` ([`grid_rows`] of the kind the step's
/// bound picks, through [`pcr_rows`]'s edge handling and width dispatch),
/// and the result is narrowed once into `dst`. Runs at most `max_steps`
/// steps and returns how many it ran: 0, touching nothing, when the first
/// step would run natively or the system has more than [`RESIDENT_ROWS`]
/// rows. `wide` grows to `8·n` elements (both buffers of the four arrays)
/// when it is shorter.
///
/// The result is bit for bit that of the same steps by [`pcr_step`]:
/// widening is exact, each operation is rounded as the `f64` path rounds
/// it, a result a step's kind does not compute is proved equal to its
/// operand or to a signed zero ([`StepBound::kind`]), and narrowing a
/// value of the grid is exact. What is saved is the widening of every
/// step's inputs and the narrowing of its outputs, and the arithmetic
/// whose result is known.
pub fn pcr_steps_f32_grid(
    stride: usize,
    max_steps: u32,
    src: [&[f32]; 4],
    dst: [&mut [f32]; 4],
    wide: &mut Vec<f64>,
) -> u32 {
    let n = src[1].len();
    let from = interior(n, stride);
    if max_steps == 0 || n > RESIDENT_ROWS || !probes_tiny(&src[0][from..], &src[2][from..]) {
        return 0;
    }
    if wide.len() < 8 * n {
        wide.resize(8 * n, 0.0);
    }
    in_widest(GridLadder {
        stride,
        max_steps,
        src,
        dst,
        wide: &mut wide[..8 * n],
    })
}

/// The body of [`pcr_steps_f32_grid`] after its first probe, with `wide`
/// cut to its eight arrays.
struct GridLadder<'a> {
    stride: usize,
    max_steps: u32,
    src: [&'a [f32]; 4],
    dst: [&'a mut [f32]; 4],
    wide: &'a mut [f64],
}

impl Widest for GridLadder<'_> {
    type Output = u32;

    #[inline(always)]
    fn run(self) -> u32 {
        let n = self.src[1].len();
        let mut arrays = self.wide.chunks_exact_mut(n);
        let mut four = || [(); 4].map(|()| arrays.next().expect("eight wide arrays"));
        let (mut cur, mut next) = (four(), four());
        for (w, s) in cur.iter_mut().zip(self.src) {
            for (w, &s) in w.iter_mut().zip(s) {
                *w = widen(s);
            }
        }
        let mut bound = StepBound::of(cur.each_ref().map(|v| &**v));
        let mut steps = 0;
        loop {
            let kind = bound.kind();
            let [a, b, c, d] = &cur;
            let [oa, ob, oc, od] = &mut next;
            let stride = self.stride << steps;
            match kind {
                StepKind::Full => {
                    pcr_rows_body::<f64, Resident<FULL>>(stride, 0, a, b, c, d, oa, ob, oc, od);
                }
                StepKind::KeepBd => {
                    pcr_rows_body::<f64, Resident<KEEP_BD>>(stride, 0, a, b, c, d, oa, ob, oc, od);
                }
                StepKind::Copy => {
                    pcr_rows_body::<f64, Resident<COPY>>(stride, 0, a, b, c, d, oa, ob, oc, od);
                }
            }
            // Keep-b/d and copy leave `b` and `d` where they are, so only
            // the off-diagonals are new.
            let new: &[usize] = if kind == StepKind::Full {
                std::mem::swap(&mut cur, &mut next);
                &[0, 1, 2, 3]
            } else {
                std::mem::swap(&mut cur[0], &mut next[0]);
                std::mem::swap(&mut cur[2], &mut next[2]);
                &[0, 2]
            };
            steps += 1;
            // A copy leaves no nonzero off-diagonal, so no tiny one.
            if steps == self.max_steps || kind == StepKind::Copy {
                break;
            }
            for &k in new {
                bound.reduce(k, cur[k]);
            }
            if !bound.has_tiny() {
                break;
            }
        }
        for (d, w) in self.dst.into_iter().zip(&cur) {
            for (d, &w) in d.iter_mut().zip(w.iter()) {
                *d = narrow(w);
            }
        }
        steps
    }
}

/// [`Scalar::pcr_steps_wide`] of `f64`, whose steps never take an `f64`
/// path: runs none.
pub(crate) fn no_steps_wide(
    _stride: usize,
    _max_steps: u32,
    _src: [&[f64]; 4],
    _dst: [&mut [f64]; 4],
    _wide: &mut Vec<f64>,
) -> u32 {
    0
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

    /// Steps at `strides` on the `f32` grid in `f64`, widened before the
    /// first and narrowed after the last only, in the widest instantiation
    /// (`widest`) or the baseline one: so an output whose last rounding
    /// were missing would carry its extra bits into the next step.
    fn grid_steps(widest: bool, strides: &[usize], sys: &[Vec<f32>; 4]) -> [Vec<f32>; 4] {
        let n = sys[1].len();
        let mut cur = sys
            .each_ref()
            .map(|v| v.iter().map(|&x| widen(x)).collect::<Vec<_>>());
        let mut next = [(); 4].map(|()| vec![0.0; n]);
        for &stride in strides {
            let [a, b, c, d] = cur.each_ref().map(|v| &v[..]);
            let [oa, ob, oc, od] = next.each_mut().map(|v| &mut v[..]);
            if widest {
                pcr_rows_with::<f64, Resident<FULL>>(stride, 0, a, b, c, d, oa, ob, oc, od);
            } else {
                pcr_rows_body::<f64, Resident<FULL>>(stride, 0, a, b, c, d, oa, ob, oc, od);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur.map(|v| v.into_iter().map(narrow).collect())
    }

    /// Rows of [`adversarial_f32`] values through the grid row kernel, in
    /// both instantiations, against the oracle: one step, narrowed at once,
    /// and two steps in a row, narrowed after the second.
    #[test]
    fn adversarial_rows_match_scalar_oracle_on_the_f32_grid() {
        let v = adversarial_f32();
        let mut s = 11u64;
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
                let then = 2 * stride % n + 1;
                let want_then = scalar_step(then, &want);
                for widest in widths("f32") {
                    for (strides, want) in [(&[stride][..], &want), (&[stride, then], &want_then)] {
                        let got = grid_steps(widest, strides, &sys);
                        for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                            assert_eq!(g.bits(), w.bits(), "round {round}, strides {strides:?}");
                        }
                    }
                }
            }
        }
    }

    /// [`round`] at the edges of the `f32` range, directly.
    #[test]
    fn round_keeps_signed_zeros_and_overflows_at_the_threshold() {
        let threshold = (2.0 - 2f64.powi(-24)) * 2f64.powi(127);
        assert_eq!(OVERFLOW_F32, threshold);
        let below = f64::from_bits(threshold.to_bits() - 1);
        for sign in [1.0, -1.0] {
            let bits = |x: f64| round(sign * x).to_bits();
            assert_eq!(bits(threshold), (sign * f64::INFINITY).to_bits());
            assert_eq!(bits(below), (sign * f64::from(f32::MAX)).to_bits());
            assert_eq!(bits(f64::INFINITY), (sign * f64::INFINITY).to_bits());
            assert_eq!(bits(0.0), (sign * 0.0).to_bits());
            // Half the smallest subnormal ties to the even zero, a hair
            // above rounds up to it.
            let least = f64::from(f32::from_bits(1));
            assert_eq!(bits(least / 2.0), (sign * 0.0).to_bits());
            assert_eq!(bits(least * 0.5000001), (sign * least).to_bits());
            assert!(round(sign * f64::NAN).is_nan());
        }
    }

    /// [`pcr_steps_f32_grid`] in the widest instantiation (`widest`) or in
    /// the baseline one.
    fn grid_ladder(
        widest: bool,
        stride: usize,
        max_steps: u32,
        src: &[Vec<f32>; 4],
        dst: &mut [Vec<f32>; 4],
        wide: &mut Vec<f64>,
    ) -> u32 {
        let (src, dst) = (
            src.each_ref().map(|v| &v[..]),
            dst.each_mut().map(|v| &mut v[..]),
        );
        if widest {
            return pcr_steps_f32_grid(stride, max_steps, src, dst, wide);
        }
        let n = src[1].len();
        let from = interior(n, stride);
        if max_steps == 0 || !probes_tiny(&src[0][from..], &src[2][from..]) {
            return 0;
        }
        wide.resize(8 * n, 0.0);
        GridLadder {
            stride,
            max_steps,
            src,
            dst,
            wide,
        }
        .run()
    }

    /// Runs of resident steps against the oracle's steps, bit for bit: on
    /// the pre-stepped oracle inputs (signed zeros, or a NaN and both
    /// infinities planted), from every step on, both for runs the probe
    /// ends before the step limit and for runs the limit ends.
    #[test]
    fn resident_steps_match_native_steps() {
        let n = 1024;
        let specials = [
            (0, 2, f64::NAN),
            (1, 5, f64::INFINITY),
            (2, 40, f64::NEG_INFINITY),
        ];
        let negzero = [(0, 1, -0.0), (2, 3, -0.0), (3, 7, -0.0)];
        let (mut ended_by_probe, mut ended_by_limit) = (0, 0);
        let mut wide = Vec::new();
        for (seed, overrides) in [(1, &negzero[..]), (2, &specials[..])] {
            for (k, sys) in pre_stepped::<f32>(n, seed, overrides) {
                for max_steps in [1, 2, 16] {
                    for widest in widths("f32") {
                        let mut got = [(); 4].map(|()| vec![0.0; n]);
                        let ran = grid_ladder(widest, 1 << k, max_steps, &sys, &mut got, &mut wide);
                        if ran == 0 {
                            assert!(got.iter().flatten().all(|v| v.to_bits() == 0));
                            continue;
                        }
                        assert!(ran <= max_steps);
                        let mut want = sys.clone();
                        for j in 0..ran {
                            want = scalar_step(1 << (k + j), &want);
                        }
                        for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                            assert_eq!(
                                g.bits(),
                                w.bits(),
                                "seed {seed}, {ran} steps from step {k}, widest={widest}"
                            );
                        }
                        if ran == max_steps {
                            ended_by_limit += 1;
                        } else {
                            ended_by_probe += 1;
                        }
                    }
                }
            }
        }
        assert!(ended_by_probe > 0 && ended_by_limit > 0);
    }

    /// One resident step at `stride` on `sys`, whatever its first probe
    /// says, in the widest instantiation (`widest`) or the baseline one,
    /// against the oracle, bit for bit; returns the kind the step took.
    fn resident_step_matches(
        widest: bool,
        stride: usize,
        sys: &[Vec<f32>; 4],
        what: &str,
    ) -> StepKind {
        let n = sys[1].len();
        let mut got = [(); 4].map(|()| vec![0.0; n]);
        let mut wide = vec![0.0; 8 * n];
        let job = GridLadder {
            stride,
            max_steps: 1,
            src: sys.each_ref().map(|v| &v[..]),
            dst: got.each_mut().map(|v| &mut v[..]),
            wide: &mut wide,
        };
        assert_eq!(if widest { in_widest(job) } else { job.run() }, 1);
        let want = scalar_step(stride, sys);
        for k in 0..4 {
            for (i, (g, w)) in got[k].iter().zip(&want[k]).enumerate() {
                assert_eq!(
                    g.bits(),
                    w.bits(),
                    "{what} widest={widest} stride={stride}: array {k} row {i}: {g:e} vs {w:e}"
                );
            }
        }
        let held = sys
            .each_ref()
            .map(|v| v.iter().map(|&x| widen(x)).collect::<Vec<_>>());
        StepBound::of(held.each_ref().map(|v| &v[..])).kind()
    }

    /// `n` rows of `a, b, c, d`, then the `(array, row, value)` overrides.
    fn rows_of(
        n: usize,
        [a, b, c, d]: [f32; 4],
        overrides: &[(usize, usize, f32)],
    ) -> [Vec<f32>; 4] {
        let mut sys = [a, b, c, d].map(|v| vec![v; n]);
        for &(k, i, v) in overrides {
            sys[k][i] = v;
        }
        sys
    }

    /// `x` moved by `k` units in the last place, towards larger magnitudes
    /// for positive `k`.
    fn ulps(x: f32, k: i32) -> f32 {
        f32::from_bits(x.to_bits().wrapping_add_signed(k))
    }

    /// Resident steps, and the per-step row updates of `f32` (the `f64`
    /// path forced, whose runs pick their kinds from their own bounds),
    /// at the edges of the kinds' bounds, against the oracle in both
    /// instantiations, with the kind each resident step must take:
    /// - `d` addends at exactly ¼ ulp of a `d` at the bottom of its binade
    ///   (a tie that keeps `d`), and one ulp above and below it, and at a
    ///   `d` at the top of its binade (with `b = 1`, `α = −a`);
    /// - products `α·m.a` at 2^−150 (a tie to zero), 2^−151 and 2^−152,
    ///   each ± 1 ulp;
    /// - α quotients in (2^−150, 2^−149), which round up to 2^−149;
    /// - tiny off-diagonals of both signs (both zeros and subnormals
    ///   among them) beside `b` and `d` of both signs: a copy, whose zeros
    ///   take their signs from three operands;
    /// - ±0 in every operand (a zero `b` beside zero off-diagonals, a
    ///   zero `d`, every `d` a zero), and an infinity or a NaN beside a
    ///   zero `own.a`, which keep the full kernel;
    /// - short systems at strides past half their length, whose rows
    ///   mostly read identity neighbours, with `b` far above 1.
    #[test]
    fn resident_step_kinds_match_scalar_oracle_at_their_bounds() {
        let n = 3 * IDENTITY_ROWS + 5;
        let quarter = 2f32.powi(-25);
        let p = |e: i32| 2f32.powi(e);
        let mut cases: Vec<(String, [Vec<f32>; 4], Option<StepKind>)> = Vec::new();
        let expect = StepKind::Full;
        for k in [0, 1, -1] {
            for d in [1.0, -1.0] {
                let sys = rows_of(n, [ulps(quarter, k), 1.0, 0.0, d], &[]);
                cases.push((
                    format!("d addend ¼ ulp {k:+} ulp, d = {d}"),
                    sys,
                    Some(expect),
                ));
            }
            // The tie of a `d` at the top of its binade is ½ ulp up.
            let top = ulps(2.0, -1);
            let sys = rows_of(n, [-ulps(p(-25), k), 1.0, 0.0, top], &[]);
            let what = format!("d addend ½ ulp {k:+} ulp at the top of its binade");
            cases.push((what, sys, Some(expect)));
            let sys = rows_of(n, [0.0, 1.0, ulps(quarter, k), -1.0], &[]);
            cases.push((format!("gamma addend ¼ ulp {k:+} ulp"), sys, Some(expect)));
            // Even rows hold `x`, odd rows `y`: at an odd stride the
            // products are `x·y`, at an even one `x²` and `y²`.
            for (x, y) in [(p(-75), p(-75)), (p(-75), p(-76)), (p(-76), p(-76))] {
                let x = ulps(x, k);
                let over: Vec<_> = (1..n)
                    .step_by(2)
                    .flat_map(|i| [(0, i, y), (2, i, -y)])
                    .collect();
                let sys = rows_of(n, [x, -1.0, -x, 3.0], &over);
                cases.push((format!("products of {x:e} and {y:e}"), sys, None));
            }
        }
        let sys = rows_of(n, [1.5 * p(-50), p(100), -1.25 * p(-50), 1.0], &[]);
        cases.push((
            "alpha quotients in (2^-150, 2^-149)".into(),
            sys,
            Some(StepKind::KeepBd),
        ));
        let mut s = 5u64;
        let mut r = || {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            s >> 33
        };
        let mut signed = |x: f32| if r() % 2 == 0 { x } else { -x };
        let tiny = [
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x7f_ffff),
            p(-90),
            p(-80),
        ];
        let mut copy = rows_of(n, [0.0; 4], &[]);
        for i in 0..n {
            copy[0][i] = signed(tiny[i % tiny.len()]);
            copy[1][i] = signed(1.0 + (i % 7) as f32 / 8.0);
            copy[2][i] = signed(tiny[(i / 2) % tiny.len()]);
            copy[3][i] = signed(p(i as i32 % 9 - 4));
        }
        cases.push((
            "copy of signed zeros".into(),
            copy.clone(),
            Some(StepKind::Copy),
        ));
        // A zero `b` beside zero off-diagonals divides 0 by 0; zeros of `d`
        // add up to a zero whose sign depends on all three.
        for z in [0.0, -0.0] {
            let mut sys = copy.clone();
            sys[1][n / 2] = z;
            for k in [0, 2] {
                sys[k].iter_mut().for_each(|v| *v = signed(0.0));
            }
            let what = format!("b = {z:?} beside zero off-diagonals");
            cases.push((what, sys, Some(StepKind::Full)));
            let mut sys = copy.clone();
            sys[3][n / 2] = z;
            cases.push((format!("d = {z:?}"), sys, Some(StepKind::Full)));
        }
        let mut sys = copy.clone();
        sys[3].iter_mut().for_each(|d| *d = signed(0.0));
        cases.push(("every d a zero".into(), sys, Some(StepKind::Full)));
        for v in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            for k in 0..4 {
                let mut sys = copy.clone();
                sys[0][n / 2] = 0.0;
                sys[k][n / 2 - 1] = v;
                sys[k][n / 2 + 1] = v;
                cases.push((
                    format!("{v} in array {k} beside a zero own.a"),
                    sys,
                    Some(StepKind::Full),
                ));
            }
        }
        let edges = rows_of(
            5,
            [p(-30), p(20), -p(-31), 1.0],
            &[(0, 0, -p(-20)), (2, 4, p(-20))],
        );
        let mut kinds = Vec::new();
        for widest in widths("f32") {
            for (what, sys, expect) in &cases {
                for stride in [1, 2, 3, sys[1].len() / 2 + 1] {
                    let kind = resident_step_matches(widest, stride, sys, what);
                    let want = scalar_step(stride, sys);
                    f32::assert_kernels_match(widest, stride, sys, &want, what);
                    if let Some(expect) = expect {
                        assert_eq!(kind, *expect, "{what}");
                    }
                    kinds.push(kind);
                }
            }
            for stride in 1..=5 {
                let want = scalar_step(stride, &edges);
                f32::assert_kernels_match(widest, stride, &edges, &want, "identity edge rows");
                kinds.push(resident_step_matches(
                    widest,
                    stride,
                    &edges,
                    "identity edge rows",
                ));
            }
        }
        for kind in [StepKind::Full, StepKind::KeepBd, StepKind::Copy] {
            assert!(kinds.contains(&kind), "no step took {kind:?}");
        }
    }

    /// [`quotient_bound`] bounds every `f32` quotient of the adversarial
    /// operands: the normal results' relative rounding, and the subnormal
    /// grid's absolute one, a quotient just above 2^−150 rounding up to
    /// 2^−149.
    #[test]
    fn quotient_bound_covers_every_rounded_quotient() {
        let v: Vec<f32> = adversarial_f32()
            .into_iter()
            .filter(|x| x.is_finite())
            .collect();
        for &x in &v {
            for &y in v.iter().filter(|y| **y != 0.0) {
                let q = (x / y).abs();
                if q.is_finite() {
                    let bound = quotient_bound(f64::from(x.abs()), f64::from(y.abs()));
                    assert!(f64::from(q) <= bound, "{x:e} / {y:e} = {q:e} > {bound:e}");
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
