//! Workload generators for the application classes the paper's introduction
//! motivates: ADI methods, spectral Poisson solvers, cubic spline
//! approximation, plus synthetic random/stress workloads for testing and
//! tuning.
//!
//! Every generator produces strictly diagonally dominant systems (except the
//! explicit stress generators), so the pivot-free GPU algorithms are stable —
//! the same property the paper's evaluation workloads rely on.

use crate::scalar::Scalar;
use crate::system::{SystemBatch, TridiagonalSystem};
use crate::Result;
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A named workload shape `(m systems, n equations)` as used throughout the
/// paper's figures, e.g. `1K×1K` or `1×2M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct WorkloadShape {
    /// Number of independent systems (`m`).
    pub num_systems: usize,
    /// Equations per system (`n`).
    pub system_size: usize,
}

impl WorkloadShape {
    /// Construct a shape.
    pub const fn new(num_systems: usize, system_size: usize) -> Self {
        Self {
            num_systems,
            system_size,
        }
    }

    /// Total number of equations.
    pub const fn total_equations(&self) -> usize {
        self.num_systems * self.system_size
    }

    /// The paper's Figure 7/8 workload grid: 1K×1K, 2K×2K, 4K×4K, 1×2M.
    pub fn paper_grid() -> Vec<WorkloadShape> {
        vec![
            WorkloadShape::new(1024, 1024),
            WorkloadShape::new(2048, 2048),
            WorkloadShape::new(4096, 4096),
            WorkloadShape::new(1, 2 * 1024 * 1024),
        ]
    }

    /// The many-small-systems grid motivating the interleaved
    /// batched-Thomas fast path: deep batches (16K–64K systems) of
    /// one-to-four-warp systems (32–128 unknowns), the shape an ADI
    /// half-step over a large 2-D grid or a per-scanline spline fit
    /// produces. Used by the fig-style sweeps alongside
    /// [`Self::paper_grid`].
    pub fn many_small_grid() -> Vec<WorkloadShape> {
        vec![
            WorkloadShape::new(16 * 1024, 64),
            WorkloadShape::new(64 * 1024, 32),
            WorkloadShape::new(64 * 1024, 64),
            WorkloadShape::new(64 * 1024, 128),
        ]
    }

    /// A [`Self::paper_grid`] shape shrunk by `k` for fast runs: both
    /// dimensions divided by `k`, keeping at least one system of 512
    /// equations so multi-stage plans still exercise every stage.
    pub fn shrunk_paper(self, k: usize) -> Self {
        let k = k.max(1);
        Self::new(
            (self.num_systems / k).max(1),
            (self.system_size / k).max(512),
        )
    }

    /// A [`Self::many_small_grid`] shape shrunk by `k`: the batch divided by
    /// `k` down to the interleaved plan's 32-system floor, the system size
    /// kept (it is already small; shrinking it would leave the regime under
    /// test).
    pub fn shrunk_many_small(self, k: usize) -> Self {
        Self::new((self.num_systems / k.max(1)).max(32), self.system_size)
    }

    /// [`Self::paper_grid`] with every shape [shrunk](Self::shrunk_paper) by `k`.
    pub fn shrunk_paper_grid(k: usize) -> Vec<WorkloadShape> {
        Self::paper_grid()
            .into_iter()
            .map(|s| s.shrunk_paper(k))
            .collect()
    }

    /// [`Self::many_small_grid`] with every shape
    /// [shrunk](Self::shrunk_many_small) by `k`.
    pub fn shrunk_many_small_grid(k: usize) -> Vec<WorkloadShape> {
        Self::many_small_grid()
            .into_iter()
            .map(|s| s.shrunk_many_small(k))
            .collect()
    }

    /// Short label in the paper's notation (`1Kx1K`, `1x2M`, …).
    pub fn label(&self) -> String {
        fn fmt(v: usize) -> String {
            if v >= 1024 * 1024 && v.is_multiple_of(1024 * 1024) {
                format!("{}M", v / (1024 * 1024))
            } else if v >= 1024 && v.is_multiple_of(1024) {
                format!("{}K", v / 1024)
            } else {
                v.to_string()
            }
        }
        format!("{}x{}", fmt(self.num_systems), fmt(self.system_size))
    }
}

/// Generate a batch of strictly diagonally dominant systems with uniformly
/// random off-diagonals and right-hand sides. The default tuning/testing
/// workload.
pub fn random_dominant<T: Scalar>(shape: WorkloadShape, seed: u64) -> Result<SystemBatch<T>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let off = Uniform::new(-1.0f64, 1.0);
    let rhs = Uniform::new(-10.0f64, 10.0);
    let total = shape.total_equations();
    let n = shape.system_size;

    let mut a = vec![T::ZERO; total];
    let mut b = vec![T::ZERO; total];
    let mut c = vec![T::ZERO; total];
    let mut d = vec![T::ZERO; total];
    for s in 0..shape.num_systems {
        for i in 0..n {
            let idx = s * n + i;
            let av = if i == 0 { 0.0 } else { off.sample(&mut rng) };
            let cv = if i == n - 1 {
                0.0
            } else {
                off.sample(&mut rng)
            };
            // Strict dominance with a comfortable margin.
            let bv = (av.abs() + cv.abs() + 1.0) * if idx.is_multiple_of(2) { 1.0 } else { -1.0 };
            a[idx] = T::from_f64(av);
            b[idx] = T::from_f64(bv);
            c[idx] = T::from_f64(cv);
            d[idx] = T::from_f64(rhs.sample(&mut rng));
        }
    }
    SystemBatch::new(shape.num_systems, n, a, b, c, d)
}

/// 1-D Poisson equation `−u'' = f` on `[0,1]` with Dirichlet boundaries,
/// discretised with second-order central differences: the classic
/// `[−1, 2, −1]` matrix (scaled), one system per right-hand side. This is the
/// kernel of the spectral Poisson solvers the paper cites (Hockney).
pub fn poisson_1d<T: Scalar>(shape: WorkloadShape, seed: u64) -> Result<SystemBatch<T>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let f = Uniform::new(-1.0f64, 1.0);
    let n = shape.system_size;
    let h = 1.0 / (n as f64 + 1.0);
    let total = shape.total_equations();

    let mut a = vec![T::ZERO; total];
    let mut b = vec![T::ZERO; total];
    let mut c = vec![T::ZERO; total];
    let mut d = vec![T::ZERO; total];
    // A small diagonal shift keeps the matrix strictly dominant, as a
    // Helmholtz-shifted Poisson operator (−u'' + σu = f) would.
    let sigma = 1.0;
    for s in 0..shape.num_systems {
        for i in 0..n {
            let idx = s * n + i;
            a[idx] = if i == 0 { T::ZERO } else { T::from_f64(-1.0) };
            c[idx] = if i == n - 1 {
                T::ZERO
            } else {
                T::from_f64(-1.0)
            };
            b[idx] = T::from_f64(2.0 + sigma * h * h);
            d[idx] = T::from_f64(f.sample(&mut rng) * h * h);
        }
    }
    SystemBatch::new(shape.num_systems, n, a, b, c, d)
}

/// Line systems from one implicit half-step of an ADI (alternating direction
/// implicit) scheme for the 2-D heat equation on an `n×m` grid: `m` systems of
/// `n` equations, coefficients `[−r, 1+2r, −r]` (Crank–Nicolson style), RHS
/// from a smooth initial temperature field. The paper's headline motivating
/// application (Ho & Johnsson; Sakharnykh).
pub fn adi_heat_lines<T: Scalar>(shape: WorkloadShape, diffusion_r: f64) -> Result<SystemBatch<T>> {
    assert!(diffusion_r > 0.0, "diffusion number must be positive");
    let n = shape.system_size;
    let m = shape.num_systems;
    let total = shape.total_equations();

    let mut a = vec![T::ZERO; total];
    let mut b = vec![T::ZERO; total];
    let mut c = vec![T::ZERO; total];
    let mut d = vec![T::ZERO; total];
    for line in 0..m {
        let y = (line as f64 + 0.5) / m as f64;
        for i in 0..n {
            let idx = line * n + i;
            let x = (i as f64 + 0.5) / n as f64;
            a[idx] = if i == 0 {
                T::ZERO
            } else {
                T::from_f64(-diffusion_r)
            };
            c[idx] = if i == n - 1 {
                T::ZERO
            } else {
                T::from_f64(-diffusion_r)
            };
            b[idx] = T::from_f64(1.0 + 2.0 * diffusion_r);
            // Smooth hot-spot initial condition.
            let u0 = (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin();
            d[idx] = T::from_f64(u0);
        }
    }
    SystemBatch::new(m, n, a, b, c, d)
}

/// Natural cubic spline interpolation systems: `[1, 4, 1]` matrices with
/// second-derivative right-hand sides from random sample points.
pub fn cubic_spline<T: Scalar>(shape: WorkloadShape, seed: u64) -> Result<SystemBatch<T>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pts = Uniform::new(-5.0f64, 5.0);
    let n = shape.system_size;
    let total = shape.total_equations();

    let mut a = vec![T::ZERO; total];
    let mut b = vec![T::ZERO; total];
    let mut c = vec![T::ZERO; total];
    let mut d = vec![T::ZERO; total];
    for s in 0..shape.num_systems {
        // Random sample values y_0..y_{n+1}; the spline system solves for the
        // interior second derivatives.
        let y: Vec<f64> = (0..n + 2).map(|_| pts.sample(&mut rng)).collect();
        for i in 0..n {
            let idx = s * n + i;
            a[idx] = if i == 0 { T::ZERO } else { T::ONE };
            c[idx] = if i == n - 1 { T::ZERO } else { T::ONE };
            b[idx] = T::from_f64(4.0);
            d[idx] = T::from_f64(6.0 * (y[i] - 2.0 * y[i + 1] + y[i + 2]));
        }
    }
    SystemBatch::new(shape.num_systems, n, a, b, c, d)
}

/// Constant-coefficient Toeplitz systems `[lo, diag, hi]` — useful for
/// analytic checks because eigenvalues are known in closed form.
pub fn toeplitz<T: Scalar>(
    shape: WorkloadShape,
    lo: f64,
    diag: f64,
    hi: f64,
) -> Result<SystemBatch<T>> {
    let n = shape.system_size;
    let total = shape.total_equations();
    let mut a = vec![T::from_f64(lo); total];
    let mut c = vec![T::from_f64(hi); total];
    let b = vec![T::from_f64(diag); total];
    let d = (0..total)
        .map(|i| T::from_f64(((i % 97) as f64) / 97.0 - 0.5))
        .collect();
    for s in 0..shape.num_systems {
        a[s * n] = T::ZERO;
        c[s * n + n - 1] = T::ZERO;
    }
    SystemBatch::new(shape.num_systems, n, a, b, c, d)
}

/// Nearly-singular stress systems: dominance margin shrinks to `eps`.
/// Used by failure-injection tests; pivot-free algorithms lose accuracy here
/// and the LU baseline must still succeed.
pub fn near_singular<T: Scalar>(shape: WorkloadShape, eps: f64) -> Result<SystemBatch<T>> {
    let n = shape.system_size;
    let total = shape.total_equations();
    let mut a = vec![T::from_f64(-1.0); total];
    let mut c = vec![T::from_f64(-1.0); total];
    let b = vec![T::from_f64(2.0 + eps); total];
    let d = vec![T::ONE; total];
    for s in 0..shape.num_systems {
        a[s * n] = T::ZERO;
        c[s * n + n - 1] = T::ZERO;
    }
    SystemBatch::new(shape.num_systems, n, a, b, c, d)
}

/// Ill-conditioned random systems with a tunable dominance `margin`.
///
/// Off-diagonals are uniformly random in `(-1, 1)` and each diagonal is
/// `±(|a| + |c|)·(1 + margin)` — strictly dominant for any `margin > 0`, but
/// only barely: the dominance excess shrinks with `margin`, and the condition
/// number grows roughly like `O(1/margin)` (for the constant-coefficient
/// analogue, `κ∞ ≈ 2/margin` as `margin → 0`). Typical chaos-testing values:
///
/// * `margin = 1.0` — comfortable, comparable to [`random_dominant`];
/// * `margin = 1e-3` — `κ` in the thousands, f32 solves start losing digits;
/// * `margin = 1e-6` — near the f32 cliff; f64 still resolves it.
///
/// Used by the chaos campaign to make residual verification do real work:
/// a bit flip on a well-conditioned system can vanish into the noise floor,
/// while here it is amplified by the conditioning.
pub fn ill_conditioned<T: Scalar>(
    shape: WorkloadShape,
    seed: u64,
    margin: f64,
) -> Result<SystemBatch<T>> {
    assert!(
        margin > 0.0 && margin.is_finite(),
        "dominance margin must be positive and finite"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let off = Uniform::new(-1.0f64, 1.0);
    let rhs = Uniform::new(-1.0f64, 1.0);
    let total = shape.total_equations();
    let n = shape.system_size;

    let mut a = vec![T::ZERO; total];
    let mut b = vec![T::ZERO; total];
    let mut c = vec![T::ZERO; total];
    let mut d = vec![T::ZERO; total];
    for s in 0..shape.num_systems {
        for i in 0..n {
            let idx = s * n + i;
            let av = if i == 0 { 0.0 } else { off.sample(&mut rng) };
            let cv = if i == n - 1 {
                0.0
            } else {
                off.sample(&mut rng)
            };
            let sign = if idx.is_multiple_of(2) { 1.0 } else { -1.0 };
            let bv = sign * (av.abs() + cv.abs()) * (1.0 + margin);
            a[idx] = T::from_f64(av);
            b[idx] = T::from_f64(bv);
            c[idx] = T::from_f64(cv);
            d[idx] = T::from_f64(rhs.sample(&mut rng));
        }
    }
    SystemBatch::new(shape.num_systems, n, a, b, c, d)
}

/// Random systems that deliberately *break* diagonal dominance.
///
/// Each diagonal is `±dominance·(|a| + |c|)`; `dominance < 1` makes every
/// interior row non-dominant, so the pivot-free GPU stages can amplify
/// rounding error or break down outright, while the pivoting CPU LU baseline
/// still solves the system. `dominance ≥ 1` degenerates to (weak) dominance;
/// the interesting chaos-testing range is roughly `0.5 ≤ dominance < 1`,
/// below which systems become so wild that even f64 residual checks against
/// the LU reference get noisy.
pub fn non_dominant<T: Scalar>(
    shape: WorkloadShape,
    seed: u64,
    dominance: f64,
) -> Result<SystemBatch<T>> {
    assert!(
        dominance > 0.0 && dominance.is_finite(),
        "dominance ratio must be positive and finite"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let off = Uniform::new(0.5f64, 1.0);
    let rhs = Uniform::new(-1.0f64, 1.0);
    let total = shape.total_equations();
    let n = shape.system_size;

    let mut a = vec![T::ZERO; total];
    let mut b = vec![T::ZERO; total];
    let mut c = vec![T::ZERO; total];
    let mut d = vec![T::ZERO; total];
    for s in 0..shape.num_systems {
        for i in 0..n {
            let idx = s * n + i;
            // Off-diagonals bounded away from zero so `dominance` really is
            // the row-wise ratio |b| / (|a| + |c|), not a vacuous bound.
            let av = if i == 0 { 0.0 } else { off.sample(&mut rng) };
            let cv = if i == n - 1 {
                0.0
            } else {
                off.sample(&mut rng)
            };
            let sign = if idx.is_multiple_of(2) { 1.0 } else { -1.0 };
            let bv = sign * dominance * (av.abs() + cv.abs());
            a[idx] = T::from_f64(av);
            b[idx] = T::from_f64(bv);
            c[idx] = T::from_f64(cv);
            d[idx] = T::from_f64(rhs.sample(&mut rng));
        }
    }
    SystemBatch::new(shape.num_systems, n, a, b, c, d)
}

/// Extract a single [`TridiagonalSystem`] convenience generator (system 0 of a
/// one-system batch) for examples and docs.
pub fn single_random_dominant<T: Scalar>(n: usize, seed: u64) -> Result<TridiagonalSystem<T>> {
    random_dominant(WorkloadShape::new(1, n), seed)?.system(0)
}

/// A numerically characterised workload class: one of the three families the
/// chaos campaign and the stability certifier reason about, carrying the
/// generator knob that determines its conditioning.
///
/// The class is the *claim* the certifier checks plans against: each variant
/// exposes the worst-case row dominance ratio its generator actually produces
/// ([`Self::dominance_ratio`]), so fixtures and proofs assert against the
/// generator's real knobs rather than re-deriving them.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WorkloadClass {
    /// [`random_dominant`] systems: diag `±(|a| + |c| + 1)` with `|a|, |c| < 1`.
    Dominant,
    /// [`ill_conditioned`] systems with the given dominance `margin`
    /// (row ratio exactly `1 / (1 + margin)`).
    IllConditioned {
        /// The generator's dominance margin knob (`> 0`).
        margin: f64,
    },
    /// [`non_dominant`] systems with the given `dominance` ratio `< 1`
    /// (row ratio exactly `1 / dominance > 1`).
    NonDominant {
        /// The generator's dominance knob (`|b| = dominance·(|a| + |c|)`).
        dominance: f64,
    },
}

impl WorkloadClass {
    /// Short label for reports (`dominant`, `ill-conditioned`, `non-dominant`).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadClass::Dominant => "dominant",
            WorkloadClass::IllConditioned { .. } => "ill-conditioned",
            WorkloadClass::NonDominant { .. } => "non-dominant",
        }
    }

    /// Worst-case row dominance ratio `(|a| + |c|) / |b|` the class's
    /// generator can produce.
    ///
    /// * `Dominant`: `|b| = |a| + |c| + 1` with `|a| + |c| < 2`, so the ratio
    ///   is below `2/3` for every row;
    /// * `IllConditioned`: `|b| = (|a| + |c|)(1 + margin)` makes every
    ///   interior row sit at exactly `1 / (1 + margin)`;
    /// * `NonDominant`: `|b| = dominance·(|a| + |c|)` makes every interior
    ///   row sit at exactly `1 / dominance` (`> 1` for `dominance < 1`).
    pub fn dominance_ratio(&self) -> f64 {
        match *self {
            WorkloadClass::Dominant => 2.0 / 3.0,
            WorkloadClass::IllConditioned { margin } => 1.0 / (1.0 + margin),
            WorkloadClass::NonDominant { dominance } => 1.0 / dominance,
        }
    }

    /// Dominance margin `1/ratio − 1 = (|b| − |a| − |c|) / (|a| + |c|)`;
    /// negative when the class breaks dominance.
    pub fn dominance_margin(&self) -> f64 {
        1.0 / self.dominance_ratio() - 1.0
    }

    /// `O(1/margin)` condition-number estimate for the class (the
    /// constant-coefficient analogue's `κ∞ ≈ 2/margin`); infinite for
    /// non-dominant classes, whose conditioning is unbounded.
    pub fn condition_estimate(&self) -> f64 {
        let margin = self.dominance_margin();
        if margin > 0.0 {
            2.0 / margin
        } else {
            f64::INFINITY
        }
    }

    /// Whether every row the generator produces is strictly dominant.
    pub fn is_dominant(&self) -> bool {
        self.dominance_ratio() < 1.0
    }

    /// Generate a batch of this class (dispatches to the matching generator).
    pub fn generate<T: Scalar>(&self, shape: WorkloadShape, seed: u64) -> Result<SystemBatch<T>> {
        match *self {
            WorkloadClass::Dominant => random_dominant(shape, seed),
            WorkloadClass::IllConditioned { margin } => ill_conditioned(shape, seed, margin),
            WorkloadClass::NonDominant { dominance } => non_dominant(shape, seed, dominance),
        }
    }
}

/// Measure the worst (largest) row dominance ratio `(|a| + |c|) / |b|` over
/// every row of a batch. Rows with a zero diagonal yield `+∞`. This is the
/// ground truth a [`WorkloadClass`]'s claimed [`WorkloadClass::dominance_ratio`]
/// is audited against.
pub fn worst_dominance_ratio<T: Scalar>(batch: &SystemBatch<T>) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..batch.a.len() {
        let off = batch.a[i].to_f64().abs() + batch.c[i].to_f64().abs();
        let diag = batch.b[i].to_f64().abs();
        let ratio = if diag == 0.0 {
            if off == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            off / diag
        };
        worst = worst.max(ratio);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_labels_match_paper_notation() {
        assert_eq!(WorkloadShape::new(1024, 1024).label(), "1Kx1K");
        assert_eq!(WorkloadShape::new(4096, 4096).label(), "4Kx4K");
        assert_eq!(WorkloadShape::new(1, 2 * 1024 * 1024).label(), "1x2M");
        assert_eq!(WorkloadShape::new(3, 100).label(), "3x100");
    }

    #[test]
    fn paper_grid_is_the_figure7_grid() {
        let grid = WorkloadShape::paper_grid();
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[3].total_equations(), 2 * 1024 * 1024);
    }

    #[test]
    fn many_small_grid_is_deep_batches_of_small_systems() {
        let grid = WorkloadShape::many_small_grid();
        assert!(!grid.is_empty());
        for s in &grid {
            assert!(s.num_systems >= 16 * 1024, "{s:?} not a deep batch");
            assert!(s.system_size <= 128, "{s:?} not a small system");
        }
        assert!(grid.contains(&WorkloadShape::new(64 * 1024, 32)));
        assert_eq!(WorkloadShape::new(64 * 1024, 32).label(), "64Kx32");
    }

    #[test]
    fn random_dominant_is_dominant_and_reproducible() {
        let shape = WorkloadShape::new(4, 64);
        let b1: SystemBatch<f64> = random_dominant(shape, 42).unwrap();
        let b2: SystemBatch<f64> = random_dominant(shape, 42).unwrap();
        let b3: SystemBatch<f64> = random_dominant(shape, 43).unwrap();
        assert!(b1.is_diagonally_dominant());
        assert_eq!(b1, b2);
        assert_ne!(b1, b3);
    }

    #[test]
    fn all_generators_produce_valid_dominant_batches() {
        let shape = WorkloadShape::new(3, 33);
        let gens: Vec<SystemBatch<f64>> = vec![
            random_dominant(shape, 1).unwrap(),
            poisson_1d(shape, 1).unwrap(),
            adi_heat_lines(shape, 0.5).unwrap(),
            cubic_spline(shape, 1).unwrap(),
            toeplitz(shape, -1.0, 3.0, -1.0).unwrap(),
        ];
        for (i, b) in gens.iter().enumerate() {
            assert!(b.is_diagonally_dominant(), "generator {i} not dominant");
            assert_eq!(b.num_systems, 3);
            assert_eq!(b.system_size, 33);
            // All systems individually valid.
            for s in 0..b.num_systems {
                b.system(s).unwrap();
            }
        }
    }

    #[test]
    fn near_singular_is_weakly_dominant_only() {
        let b: SystemBatch<f64> = near_singular(WorkloadShape::new(1, 16), 0.0).unwrap();
        assert!(!b.is_diagonally_dominant()); // strict dominance fails
        let b: SystemBatch<f64> = near_singular(WorkloadShape::new(1, 16), 0.5).unwrap();
        assert!(b.is_diagonally_dominant()); // a healthy margin restores it
    }

    #[test]
    fn ill_conditioned_is_barely_dominant_and_reproducible() {
        let shape = WorkloadShape::new(3, 48);
        let b1: SystemBatch<f64> = ill_conditioned(shape, 9, 1e-3).unwrap();
        let b2: SystemBatch<f64> = ill_conditioned(shape, 9, 1e-3).unwrap();
        assert_eq!(b1, b2);
        assert!(b1.is_diagonally_dominant(), "margin > 0 keeps dominance");
        // The dominance excess really is tiny: every interior row's
        // |b| / (|a| + |c|) sits at exactly 1 + margin.
        let sys = b1.system(0).unwrap();
        for i in 1..sys.len() - 1 {
            let ratio = sys.b[i].abs() / (sys.a[i].abs() + sys.c[i].abs());
            assert!((ratio - 1.001).abs() < 1e-9, "row {i} ratio {ratio}");
        }
    }

    #[test]
    fn non_dominant_breaks_dominance_below_one() {
        let shape = WorkloadShape::new(2, 32);
        let b: SystemBatch<f64> = non_dominant(shape, 4, 0.8).unwrap();
        assert!(!b.is_diagonally_dominant());
        let sys = b.system(0).unwrap();
        for i in 1..sys.len() - 1 {
            let ratio = sys.b[i].abs() / (sys.a[i].abs() + sys.c[i].abs());
            assert!((ratio - 0.8).abs() < 1e-9, "row {i} ratio {ratio}");
        }
        // Reproducible per seed.
        let b2: SystemBatch<f64> = non_dominant(shape, 4, 0.8).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn stress_generators_reject_bad_knobs() {
        let shape = WorkloadShape::new(1, 8);
        assert!(std::panic::catch_unwind(|| ill_conditioned::<f64>(shape, 0, 0.0)).is_err());
        assert!(std::panic::catch_unwind(|| non_dominant::<f64>(shape, 0, -1.0)).is_err());
    }

    #[test]
    fn poisson_solves_to_smooth_solution() {
        let b: SystemBatch<f64> = poisson_1d(WorkloadShape::new(1, 127), 7).unwrap();
        let sys = b.system(0).unwrap();
        let x = crate::thomas::solve_thomas(&sys).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn adi_requires_positive_r() {
        let result =
            std::panic::catch_unwind(|| adi_heat_lines::<f64>(WorkloadShape::new(1, 8), -0.1));
        assert!(result.is_err());
    }

    #[test]
    fn f32_generation_works() {
        let b: SystemBatch<f32> = random_dominant(WorkloadShape::new(2, 16), 5).unwrap();
        assert!(b.is_diagonally_dominant());
    }

    #[test]
    fn class_ratio_bounds_match_the_generators() {
        let shape = WorkloadShape::new(4, 64);
        for (class, exact) in [
            (WorkloadClass::Dominant, false),
            (WorkloadClass::IllConditioned { margin: 1e-3 }, true),
            (WorkloadClass::NonDominant { dominance: 0.85 }, true),
        ] {
            let batch: SystemBatch<f64> = class.generate(shape, 11).unwrap();
            let measured = worst_dominance_ratio(&batch);
            let claimed = class.dominance_ratio();
            assert!(
                measured <= claimed + 1e-12,
                "{}: measured {measured} > claimed {claimed}",
                class.label()
            );
            if exact {
                // Interior rows sit exactly at the knob-determined ratio.
                assert!(
                    (measured - claimed).abs() < 1e-9,
                    "{}: measured {measured} != claimed {claimed}",
                    class.label()
                );
            }
        }
    }

    #[test]
    fn class_margin_and_condition_track_the_knobs() {
        let ill = WorkloadClass::IllConditioned { margin: 1e-3 };
        assert!((ill.dominance_margin() - 1e-3).abs() < 1e-12);
        assert!((ill.condition_estimate() - 2e3).abs() / 2e3 < 1e-9);
        assert!(ill.is_dominant());

        let non = WorkloadClass::NonDominant { dominance: 0.85 };
        assert!(non.dominance_margin() < 0.0);
        assert!(non.condition_estimate().is_infinite());
        assert!(!non.is_dominant());

        assert!(WorkloadClass::Dominant.is_dominant());
        assert!((WorkloadClass::Dominant.dominance_margin() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn worst_ratio_flags_zero_diagonal_rows() {
        let batch = SystemBatch::<f64>::new(
            1,
            3,
            vec![0.0, 1.0, 1.0],
            vec![2.0, 0.0, 2.0],
            vec![1.0, 1.0, 0.0],
            vec![1.0; 3],
        )
        .unwrap();
        assert!(worst_dominance_ratio(&batch).is_infinite());
    }
}
