//! The Thomas algorithm: serial Gaussian elimination specialised to
//! tridiagonal systems. `O(n)` work, `O(n)` sequential steps, no pivoting.
//!
//! In the paper this is **stage 4**: once PCR has produced enough independent
//! subsystems, each GPU thread runs Thomas over its own (strided) chain. The
//! strided variant here mirrors that access pattern exactly and is the
//! reference the base kernels are verified against.

use crate::error::SolverError;
use crate::scalar::Scalar;
use crate::system::{ChainView, TridiagonalSystem};
use crate::Result;

/// Absolute pivot threshold: a pivot whose magnitude is below it (or is
/// not finite) is treated as breakdown. It is not scaled by the system's
/// coefficients.
const PIVOT_ABS_TOL: f64 = 1e-30;

/// Solve a tridiagonal system with the Thomas algorithm.
///
/// Returns the solution vector. Fails with [`SolverError::ZeroPivot`] if
/// elimination breaks down (the matrix is singular or requires pivoting; use
/// [`crate::lu::solve_lu`] for such systems).
///
/// ```
/// use trisolve_tridiag::{thomas::solve_thomas, TridiagonalSystem};
///
/// // [2 1; 1 3] x = [5; 10]  =>  x = (1, 3)
/// let sys = TridiagonalSystem::new(
///     vec![0.0f64, 1.0],
///     vec![2.0, 3.0],
///     vec![1.0, 0.0],
///     vec![5.0, 10.0],
/// )?;
/// let x = solve_thomas(&sys)?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), trisolve_tridiag::SolverError>(())
/// ```
pub fn solve_thomas<T: Scalar>(sys: &TridiagonalSystem<T>) -> Result<Vec<T>> {
    let n = sys.len();
    let mut cp = vec![T::ZERO; n];
    let mut dp = vec![T::ZERO; n];
    solve_thomas_into(&sys.a, &sys.b, &sys.c, &sys.d, &mut cp, &mut dp)?;
    Ok(dp)
}

/// Thomas over explicit coefficient slices; `cp`/`dp` are scratch buffers of
/// length `n`, and the solution is written into `dp`.
pub fn solve_thomas_into<T: Scalar>(
    a: &[T],
    b: &[T],
    c: &[T],
    d: &[T],
    cp: &mut [T],
    dp: &mut [T],
) -> Result<()> {
    let n = b.len();
    if n == 0 {
        return Err(SolverError::EmptySystem);
    }

    let mut beta = b[0];
    check_pivot(beta, 0)?;
    cp[0] = c[0] / beta;
    dp[0] = d[0] / beta;
    for i in 1..n {
        beta = b[i] - a[i] * cp[i - 1];
        check_pivot(beta, i)?;
        cp[i] = c[i] / beta;
        dp[i] = (d[i] - a[i] * dp[i - 1]) / beta;
    }
    for i in (0..n - 1).rev() {
        let next = dp[i + 1];
        dp[i] -= cp[i] * next;
    }
    Ok(())
}

/// Thomas over a strided [`ChainView`] inside flat parent arrays, writing the
/// chain's solution into `x` at the chain's parent positions.
///
/// This is the exact memory access pattern of a stage-4 GPU thread solving
/// one post-PCR chain: coefficients live `stride` apart in the parent arrays.
pub fn solve_thomas_chain<T: Scalar>(
    chain: &ChainView,
    a: &[T],
    b: &[T],
    c: &[T],
    d: &[T],
    x: &mut [T],
    scratch: &mut ChainScratch<T>,
) -> Result<()> {
    let n = chain.len;
    if n == 0 {
        return Err(SolverError::EmptySystem);
    }
    scratch.resize(n);
    let cp = &mut scratch.cp;
    let dp = &mut scratch.dp;

    let i0 = chain.index(0);
    let mut beta = b[i0];
    check_pivot(beta, i0)?;
    cp[0] = c[i0] / beta;
    dp[0] = d[i0] / beta;
    for k in 1..n {
        let i = chain.index(k);
        beta = b[i] - a[i] * cp[k - 1];
        check_pivot(beta, i)?;
        cp[k] = c[i] / beta;
        dp[k] = (d[i] - a[i] * dp[k - 1]) / beta;
    }
    for k in (0..n - 1).rev() {
        let next = dp[k + 1];
        dp[k] -= cp[k] * next;
    }
    for k in 0..n {
        x[chain.index(k)] = dp[k];
    }
    Ok(())
}

/// Reusable scratch space for [`solve_thomas_chain`], so per-chain solves in
/// a hot loop do not allocate ("workhorse collection" pattern).
#[derive(Debug, Default, Clone)]
pub struct ChainScratch<T: Scalar> {
    cp: Vec<T>,
    dp: Vec<T>,
}

impl<T: Scalar> ChainScratch<T> {
    /// Create empty scratch; it grows on first use.
    pub fn new() -> Self {
        Self {
            cp: Vec::new(),
            dp: Vec::new(),
        }
    }

    fn resize(&mut self, n: usize) {
        self.cp.clear();
        self.cp.resize(n, T::ZERO);
        self.dp.clear();
        self.dp.resize(n, T::ZERO);
    }
}

/// `lanes` chains of `len` equations interleaved in flat parent arrays:
/// element `k` of chain `t` sits at `offset + k·row_stride + t`, so one row
/// of every chain is the contiguous slice starting at `offset + k·row_stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneView {
    /// Parent index of element 0 of lane 0.
    pub offset: usize,
    /// Distance between consecutive rows (`>= lanes`).
    pub row_stride: usize,
    /// Number of chains.
    pub lanes: usize,
    /// Equations per chain.
    pub len: usize,
}

/// Thomas over every chain of a [`LaneView`] at once, the lanes being the
/// vector dimension: each row of the forward sweep and of the back
/// substitution is one branch-free loop over the lanes.
///
/// Lane `t` performs exactly [`solve_thomas_chain`]'s operations on its
/// chain, in the same order and with the same pivot test, so a lane that
/// passes holds bit for bit the solution `solve_thomas_chain` would write.
/// The solution lands in `x` lane-interleaved and compact: element `k` of
/// lane `t` at `k·lanes + t`.
///
/// `cp` is working space of at least `len·lanes` elements, whatever they
/// hold. `broke` gets one flag per lane, `true` where `solve_thomas_chain`
/// fails on that chain (a pivot below the threshold or non-finite, or an
/// empty chain). A failed lane keeps sweeping; its entries of `x` are
/// unspecified.
#[allow(clippy::too_many_arguments)]
pub fn solve_thomas_lanes<T: Scalar>(
    view: &LaneView,
    a: &[T],
    b: &[T],
    c: &[T],
    d: &[T],
    x: &mut [T],
    cp: &mut [T],
    broke: &mut [bool],
) {
    let LaneView {
        offset,
        row_stride,
        lanes,
        len,
    } = *view;
    debug_assert!(len <= 1 || row_stride >= lanes);
    let broke = &mut broke[..lanes];
    broke.fill(len == 0);
    if len == 0 {
        return;
    }
    let cp = &mut cp[..len * lanes];
    let dp = &mut x[..len * lanes];
    // Row `k` of every lane; slicing once lets the lane loops index it
    // without bounds checks.
    let row = |k: usize| offset + k * row_stride..offset + k * row_stride + lanes;

    let [b0, c0, d0] = [b, c, d].map(|v| &v[row(0)]);
    let (cp0, dp0) = (&mut cp[..lanes], &mut dp[..lanes]);
    for t in 0..lanes {
        let beta = b0[t];
        broke[t] |= bad_pivot(beta);
        cp0[t] = c0[t] / beta;
        dp0[t] = d0[t] / beta;
    }
    for k in 1..len {
        let [ak, bk, ck, dk] = [a, b, c, d].map(|v| &v[row(k)]);
        let (cp_prev, cp_k) = cp[(k - 1) * lanes..(k + 1) * lanes].split_at_mut(lanes);
        let (dp_prev, dp_k) = dp[(k - 1) * lanes..(k + 1) * lanes].split_at_mut(lanes);
        for t in 0..lanes {
            let beta = bk[t] - ak[t] * cp_prev[t];
            broke[t] |= bad_pivot(beta);
            cp_k[t] = ck[t] / beta;
            dp_k[t] = (dk[t] - ak[t] * dp_prev[t]) / beta;
        }
    }
    for k in (0..len - 1).rev() {
        let cp_k = &cp[k * lanes..(k + 1) * lanes];
        let (dp_k, dp_next) = dp[k * lanes..(k + 2) * lanes].split_at_mut(lanes);
        for t in 0..lanes {
            let next = dp_next[t];
            dp_k[t] -= cp_k[t] * next;
        }
    }
}

#[inline]
fn check_pivot<T: Scalar>(beta: T, row: usize) -> Result<()> {
    if bad_pivot(beta) {
        return Err(SolverError::ZeroPivot {
            row,
            magnitude: beta.abs().to_f64(),
        });
    }
    Ok(())
}

/// The one pivot test: `|beta|` non-finite or below [`PIVOT_ABS_TOL`].
/// Written as one negated range test (NaN lies in no range) so the lane
/// loops stay branch-free.
#[inline]
fn bad_pivot<T: Scalar>(beta: T) -> bool {
    let mag = beta.abs().to_f64();
    !(PIVOT_ABS_TOL..f64::INFINITY).contains(&mag)
}

/// Floating-point operation count of a Thomas solve of `n` equations
/// (used by the CPU/GPU cost models).
pub fn thomas_flops(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    // Forward sweep: 2 divs + 3 mul/add per row (first row cheaper),
    // back substitution: 2 ops per row.
    8 * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::TridiagonalSystem;

    fn poisson(n: usize) -> TridiagonalSystem<f64> {
        let mut a = vec![-1.0; n];
        let b = vec![2.5; n];
        let mut c = vec![-1.0; n];
        a[0] = 0.0;
        c[n - 1] = 0.0;
        let d: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
        TridiagonalSystem::new(a, b, c, d).unwrap()
    }

    #[test]
    fn solves_identity() {
        let sys = TridiagonalSystem::new(
            vec![0.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0],
            vec![0.0, 0.0, 0.0],
            vec![7.0, -3.0, 0.5],
        )
        .unwrap();
        let x = solve_thomas(&sys).unwrap();
        assert_eq!(x, vec![7.0, -3.0, 0.5]);
    }

    #[test]
    fn solves_single_equation() {
        let sys = TridiagonalSystem::new(vec![0.0], vec![4.0], vec![0.0], vec![8.0]).unwrap();
        assert_eq!(solve_thomas(&sys).unwrap(), vec![2.0]);
    }

    #[test]
    fn residual_small_on_dominant_system() {
        let sys = poisson(257);
        let x = solve_thomas(&sys).unwrap();
        let y = sys.matvec(&x).unwrap();
        for (yi, di) in y.iter().zip(&sys.d) {
            assert!((yi - di).abs() < 1e-10, "residual too large");
        }
    }

    #[test]
    fn known_2x2_solution() {
        // [2 1; 1 3] x = [5; 10]  =>  x = [1, 3]
        let sys = TridiagonalSystem::new(
            vec![0.0, 1.0],
            vec![2.0, 3.0],
            vec![1.0, 0.0],
            vec![5.0, 10.0],
        )
        .unwrap();
        let x = solve_thomas(&sys).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn detects_zero_pivot() {
        let sys = TridiagonalSystem::new(
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert!(matches!(
            solve_thomas(&sys),
            Err(SolverError::ZeroPivot { row: 0, .. })
        ));
    }

    #[test]
    fn detects_induced_breakdown() {
        // Elimination produces a zero pivot at row 1: b1 - a1*c0/b0 = 2 - 4*1/2 = 0.
        let sys = TridiagonalSystem::new(
            vec![0.0, 4.0],
            vec![2.0, 2.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert!(matches!(
            solve_thomas(&sys),
            Err(SolverError::ZeroPivot { row: 1, .. })
        ));
    }

    #[test]
    fn chain_solve_matches_contiguous() {
        let sys = poisson(64);
        let direct = solve_thomas(&sys).unwrap();

        // Solve via a stride-1 chain covering the whole system.
        let chain = ChainView {
            offset: 0,
            stride: 1,
            len: 64,
        };
        let mut x = vec![0.0f64; 64];
        let mut scratch = ChainScratch::new();
        solve_thomas_chain(&chain, &sys.a, &sys.b, &sys.c, &sys.d, &mut x, &mut scratch).unwrap();
        for (u, v) in direct.iter().zip(&x) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn strided_chain_solves_interleaved_systems() {
        // Interleave two independent 4-equation systems at stride 2 and check
        // each chain solves to its own solution.
        let s0 = poisson(4);
        let mut s1 = poisson(4);
        for v in &mut s1.d {
            *v *= 2.0;
        }
        let n = 8;
        let mut a = vec![0.0f64; n];
        let mut b = vec![0.0f64; n];
        let mut c = vec![0.0f64; n];
        let mut d = vec![0.0f64; n];
        for i in 0..4 {
            a[2 * i] = s0.a[i];
            b[2 * i] = s0.b[i];
            c[2 * i] = s0.c[i];
            d[2 * i] = s0.d[i];
            a[2 * i + 1] = s1.a[i];
            b[2 * i + 1] = s1.b[i];
            c[2 * i + 1] = s1.c[i];
            d[2 * i + 1] = s1.d[i];
        }
        let mut x = vec![0.0f64; n];
        let mut scratch = ChainScratch::new();
        for (r, sys) in [(0usize, &s0), (1usize, &s1)] {
            let chain = ChainView {
                offset: r,
                stride: 2,
                len: 4,
            };
            solve_thomas_chain(&chain, &a, &b, &c, &d, &mut x, &mut scratch).unwrap();
            let expect = solve_thomas(sys).unwrap();
            for i in 0..4 {
                assert!((x[2 * i + r] - expect[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn flops_model_is_linear() {
        assert_eq!(thomas_flops(0), 0);
        assert_eq!(thomas_flops(100), 800);
        assert!(thomas_flops(200) == 2 * thomas_flops(100));
    }
}
