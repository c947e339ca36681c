//! System representations: a single tridiagonal system and a contiguous batch
//! of equally-sized systems, plus the strided *chain* views produced by PCR
//! splitting.

use crate::error::SolverError;
use crate::scalar::Scalar;
use crate::Result;

/// A single tridiagonal system `a[i]·x[i-1] + b[i]·x[i] + c[i]·x[i+1] = d[i]`.
///
/// Storage convention: `a[0] == 0`, `c[n-1] == 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct TridiagonalSystem<T: Scalar> {
    /// Sub-diagonal (`a[0]` must be zero).
    pub a: Vec<T>,
    /// Main diagonal.
    pub b: Vec<T>,
    /// Super-diagonal (`c[n-1]` must be zero).
    pub c: Vec<T>,
    /// Right-hand side.
    pub d: Vec<T>,
}

impl<T: Scalar> TridiagonalSystem<T> {
    /// Build a system from the four coefficient arrays, validating shape and
    /// boundary conventions.
    pub fn new(a: Vec<T>, b: Vec<T>, c: Vec<T>, d: Vec<T>) -> Result<Self> {
        let n = b.len();
        if n == 0 {
            return Err(SolverError::EmptySystem);
        }
        if a.len() != n || c.len() != n || d.len() != n {
            return Err(SolverError::DimensionMismatch {
                detail: format!(
                    "a={}, b={}, c={}, d={} (all must match)",
                    a.len(),
                    b.len(),
                    c.len(),
                    d.len()
                ),
            });
        }
        check_boundaries(&a, &c)?;
        Ok(Self { a, b, c, d })
    }

    /// Number of equations.
    pub fn len(&self) -> usize {
        self.b.len()
    }

    /// True if the system has zero equations (never true for a validated
    /// system; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.b.is_empty()
    }

    /// Check every coefficient is finite.
    pub fn check_finite(&self) -> Result<()> {
        for (i, v) in self
            .a
            .iter()
            .chain(&self.b)
            .chain(&self.c)
            .chain(&self.d)
            .enumerate()
        {
            if !v.is_finite() {
                return Err(SolverError::NonFiniteInput {
                    index: i % self.len(),
                });
            }
        }
        Ok(())
    }

    /// Strict row diagonal dominance: `|b[i]| > |a[i]| + |c[i]|` for all `i`.
    ///
    /// Diagonal dominance guarantees the pivot-free algorithms (Thomas, CR,
    /// PCR) are numerically stable; the workload generators used throughout
    /// the paper's evaluation all produce dominant systems.
    pub fn is_diagonally_dominant(&self) -> bool {
        self.a
            .iter()
            .zip(&self.b)
            .zip(&self.c)
            .all(|((&a, &b), &c)| b.abs() > a.abs() + c.abs())
    }

    /// Multiply the matrix by a candidate solution: `y = A·x`.
    pub fn matvec(&self, x: &[T]) -> Result<Vec<T>> {
        let n = self.len();
        if x.len() != n {
            return Err(SolverError::DimensionMismatch {
                detail: format!("x has {} entries, system has {n}", x.len()),
            });
        }
        let mut y = vec![T::ZERO; n];
        for i in 0..n {
            let mut acc = self.b[i] * x[i];
            if i > 0 {
                acc += self.a[i] * x[i - 1];
            }
            if i + 1 < n {
                acc += self.c[i] * x[i + 1];
            }
            y[i] = acc;
        }
        Ok(y)
    }
}

/// [`SolverError::MalformedBoundary`] unless the system with sub- and
/// super-diagonals `a` and `c` keeps the storage convention `a[0] == 0`,
/// `c[n-1] == 0`.
pub(crate) fn check_boundaries<T: Scalar>(a: &[T], c: &[T]) -> Result<()> {
    if a.first().is_some_and(|&v| v != T::ZERO) {
        return Err(SolverError::MalformedBoundary {
            detail: "a[0] must be 0".into(),
        });
    }
    if c.last().is_some_and(|&v| v != T::ZERO) {
        return Err(SolverError::MalformedBoundary {
            detail: "c[n-1] must be 0".into(),
        });
    }
    Ok(())
}

/// A batch of `m` tridiagonal systems, each of `n` equations, stored
/// system-major (`system s` occupies `s*n .. (s+1)*n` of each array).
///
/// This is the layout the GPU kernels stream from global memory, and the unit
/// of work for every stage of the multi-stage solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemBatch<T: Scalar> {
    /// Number of systems.
    pub num_systems: usize,
    /// Equations per system.
    pub system_size: usize,
    /// Sub-diagonals, length `num_systems * system_size`.
    pub a: Vec<T>,
    /// Main diagonals.
    pub b: Vec<T>,
    /// Super-diagonals.
    pub c: Vec<T>,
    /// Right-hand sides.
    pub d: Vec<T>,
}

impl<T: Scalar> SystemBatch<T> {
    /// Build a batch from flat arrays, validating shape and per-system
    /// boundary conventions.
    pub fn new(
        num_systems: usize,
        system_size: usize,
        a: Vec<T>,
        b: Vec<T>,
        c: Vec<T>,
        d: Vec<T>,
    ) -> Result<Self> {
        if num_systems == 0 || system_size == 0 {
            return Err(SolverError::EmptySystem);
        }
        let total = num_systems * system_size;
        if a.len() != total || b.len() != total || c.len() != total || d.len() != total {
            return Err(SolverError::DimensionMismatch {
                detail: format!(
                    "expected {total} entries per array, got a={}, b={}, c={}, d={}",
                    a.len(),
                    b.len(),
                    c.len(),
                    d.len()
                ),
            });
        }
        for s in 0..num_systems {
            if a[s * system_size] != T::ZERO {
                return Err(SolverError::MalformedBoundary {
                    detail: format!("a[0] of system {s} must be 0"),
                });
            }
            if c[s * system_size + system_size - 1] != T::ZERO {
                return Err(SolverError::MalformedBoundary {
                    detail: format!("c[n-1] of system {s} must be 0"),
                });
            }
        }
        Ok(Self {
            num_systems,
            system_size,
            a,
            b,
            c,
            d,
        })
    }

    /// Build a batch of `m` copies of one system.
    pub fn replicate(sys: &TridiagonalSystem<T>, m: usize) -> Result<Self> {
        if m == 0 {
            return Err(SolverError::EmptySystem);
        }
        let n = sys.len();
        let rep = |v: &[T]| {
            let mut out = Vec::with_capacity(m * n);
            for _ in 0..m {
                out.extend_from_slice(v);
            }
            out
        };
        Self::new(m, n, rep(&sys.a), rep(&sys.b), rep(&sys.c), rep(&sys.d))
    }

    /// Assemble a batch from individual systems (all must share a size).
    pub fn from_systems(systems: &[TridiagonalSystem<T>]) -> Result<Self> {
        let m = systems.len();
        if m == 0 {
            return Err(SolverError::EmptySystem);
        }
        let n = systems[0].len();
        let total = m * n;
        let mut a = Vec::with_capacity(total);
        let mut b = Vec::with_capacity(total);
        let mut c = Vec::with_capacity(total);
        let mut d = Vec::with_capacity(total);
        for (i, s) in systems.iter().enumerate() {
            if s.len() != n {
                return Err(SolverError::DimensionMismatch {
                    detail: format!("system {i} has size {}, expected {n}", s.len()),
                });
            }
            a.extend_from_slice(&s.a);
            b.extend_from_slice(&s.b);
            c.extend_from_slice(&s.c);
            d.extend_from_slice(&s.d);
        }
        Self::new(m, n, a, b, c, d)
    }

    /// Total number of equations across the batch.
    pub fn total_equations(&self) -> usize {
        self.num_systems * self.system_size
    }

    /// Bytes occupied by the four coefficient arrays (the global-memory
    /// footprint of the unsolved batch).
    pub fn coefficient_bytes(&self) -> usize {
        4 * self.total_equations() * T::BYTES
    }

    /// Extract system `s` as an owned [`TridiagonalSystem`].
    pub fn system(&self, s: usize) -> Result<TridiagonalSystem<T>> {
        if s >= self.num_systems {
            return Err(SolverError::InvalidParameter {
                name: "s",
                detail: format!("system index {s} out of range ({})", self.num_systems),
            });
        }
        let r = s * self.system_size..(s + 1) * self.system_size;
        TridiagonalSystem::new(
            self.a[r.clone()].to_vec(),
            self.b[r.clone()].to_vec(),
            self.c[r.clone()].to_vec(),
            self.d[r].to_vec(),
        )
    }

    /// True if every system in the batch is strictly diagonally dominant.
    pub fn is_diagonally_dominant(&self) -> bool {
        self.a
            .iter()
            .zip(&self.b)
            .zip(&self.c)
            .all(|((&a, &b), &c)| b.abs() > a.abs() + c.abs())
    }
}

/// A strided *chain* inside a larger system: the independent subsystem made of
/// equations `offset, offset+stride, offset+2·stride, …` after PCR has split a
/// system `stride` ways.
///
/// A chain is itself a tridiagonal system whose neighbour couplings are at
/// distance `stride` in the parent arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainView {
    /// First parent index of the chain.
    pub offset: usize,
    /// Distance between consecutive chain elements in the parent.
    pub stride: usize,
    /// Number of equations in the chain.
    pub len: usize,
}

impl ChainView {
    /// Enumerate the `stride` chains covering a parent system of `n`
    /// equations starting at parent offset `base`.
    pub fn chains_of(base: usize, n: usize, stride: usize) -> Vec<ChainView> {
        assert!(stride >= 1, "stride must be >= 1");
        (0..stride.min(n))
            .map(|r| ChainView {
                offset: base + r,
                stride,
                len: (n - r).div_ceil(stride),
            })
            .collect()
    }

    /// Parent index of chain element `i`.
    #[inline]
    pub fn index(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        self.offset + i * self.stride
    }

    /// Gather the chain's elements from a parent array into a contiguous
    /// vector.
    pub fn gather<T: Scalar>(&self, parent: &[T]) -> Vec<T> {
        (0..self.len).map(|i| parent[self.index(i)]).collect()
    }

    /// Scatter contiguous values back into a parent array.
    pub fn scatter<T: Scalar>(&self, values: &[T], parent: &mut [T]) {
        assert_eq!(values.len(), self.len);
        for (i, &v) in values.iter().enumerate() {
            parent[self.index(i)] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sys() -> TridiagonalSystem<f64> {
        TridiagonalSystem::new(
            vec![0.0, -1.0, -1.0, -1.0],
            vec![4.0, 4.0, 4.0, 4.0],
            vec![-1.0, -1.0, -1.0, 0.0],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_lengths() {
        let err = TridiagonalSystem::new(vec![0.0f64], vec![1.0, 2.0], vec![0.0], vec![1.0]);
        assert!(matches!(err, Err(SolverError::DimensionMismatch { .. })));
    }

    #[test]
    fn new_rejects_empty() {
        let err = TridiagonalSystem::<f64>::new(vec![], vec![], vec![], vec![]);
        assert_eq!(err, Err(SolverError::EmptySystem));
    }

    #[test]
    fn new_rejects_bad_boundaries() {
        let err = TridiagonalSystem::new(
            vec![1.0f64, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
        );
        assert!(matches!(err, Err(SolverError::MalformedBoundary { .. })));
        let err = TridiagonalSystem::new(
            vec![0.0f64, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![0.0, 0.0],
        );
        assert!(matches!(err, Err(SolverError::MalformedBoundary { .. })));
    }

    #[test]
    fn dominance_detection() {
        let sys = small_sys();
        assert!(sys.is_diagonally_dominant());
        let weak = TridiagonalSystem::new(
            vec![0.0, -2.0],
            vec![2.0, 2.0],
            vec![-2.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert!(!weak.is_diagonally_dominant());
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let sys = small_sys();
        let y = sys.matvec(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn matvec_rejects_wrong_length() {
        let sys = small_sys();
        assert!(sys.matvec(&[1.0]).is_err());
    }

    #[test]
    fn check_finite_catches_nan() {
        let mut sys = small_sys();
        sys.d[2] = f64::NAN;
        assert!(sys.check_finite().is_err());
        assert!(small_sys().check_finite().is_ok());
    }

    #[test]
    fn batch_replicate_and_extract() {
        let sys = small_sys();
        let batch = SystemBatch::replicate(&sys, 3).unwrap();
        assert_eq!(batch.num_systems, 3);
        assert_eq!(batch.system_size, 4);
        assert_eq!(batch.total_equations(), 12);
        for s in 0..3 {
            assert_eq!(batch.system(s).unwrap(), sys);
        }
        assert!(batch.system(3).is_err());
    }

    #[test]
    fn batch_from_systems_requires_uniform_size() {
        let s1 = small_sys();
        let s2 = TridiagonalSystem::new(vec![0.0], vec![1.0], vec![0.0], vec![1.0]).unwrap();
        assert!(SystemBatch::from_systems(&[s1, s2]).is_err());
    }

    #[test]
    fn batch_validates_interior_boundaries() {
        // A flat array where system 1's a[0] is nonzero must be rejected.
        let a = vec![0.0f64, -1.0, 0.5, -1.0];
        let b = vec![4.0; 4];
        let c = vec![-1.0, 0.0, -1.0, 0.0];
        let d = vec![1.0; 4];
        assert!(SystemBatch::new(2, 2, a, b, c, d).is_err());
    }

    #[test]
    fn batch_coefficient_bytes() {
        let sys = small_sys();
        let batch = SystemBatch::replicate(&sys, 2).unwrap();
        assert_eq!(batch.coefficient_bytes(), 4 * 8 * 8);
    }

    #[test]
    fn chain_views_cover_parent_exactly_once() {
        for n in [1usize, 5, 8, 13] {
            for stride in [1usize, 2, 4, 8] {
                let chains = ChainView::chains_of(0, n, stride);
                let mut seen = vec![0u32; n];
                for ch in &chains {
                    for i in 0..ch.len {
                        seen[ch.index(i)] += 1;
                    }
                }
                assert!(seen.iter().all(|&s| s == 1), "n={n} stride={stride}");
            }
        }
    }

    #[test]
    fn chain_gather_scatter_round_trip() {
        let parent: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let chains = ChainView::chains_of(0, 10, 4);
        let mut rebuilt = vec![0.0f64; 10];
        for ch in &chains {
            let vals = ch.gather(&parent);
            ch.scatter(&vals, &mut rebuilt);
        }
        assert_eq!(parent, rebuilt);
    }

    #[test]
    fn chain_lens_sum_to_parent() {
        for n in [3usize, 7, 16, 31] {
            for k in [1usize, 2, 3, 8, 16] {
                let chains = ChainView::chains_of(0, n, k);
                let total: usize = chains.iter().map(|c| c.len).sum();
                assert_eq!(total, n);
            }
        }
    }
}
