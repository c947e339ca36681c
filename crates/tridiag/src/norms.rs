//! Error and residual norms used by the test suites and the experiment
//! harness to validate every solver against every other.

use crate::error::SolverError;
use crate::scalar::Scalar;
use crate::system::{check_boundaries, SystemBatch, TridiagonalSystem};
use crate::Result;

/// Maximum absolute residual `‖A·x − d‖∞` of a candidate solution.
pub fn residual_linf<T: Scalar>(sys: &TridiagonalSystem<T>, x: &[T]) -> Result<f64> {
    Ok(system_norms(sys, x)?.0)
}

/// Relative residual: `‖A·x − d‖∞ / max(1, ‖d‖∞)`.
pub fn relative_residual<T: Scalar>(sys: &TridiagonalSystem<T>, x: &[T]) -> Result<f64> {
    let (r, dmax) = system_norms(sys, x)?;
    Ok(r / dmax.max(1.0))
}

/// [`residual_norms`] of a whole system, refusing an `x` of another length.
fn system_norms<T: Scalar>(sys: &TridiagonalSystem<T>, x: &[T]) -> Result<(f64, f64)> {
    let n = sys.len();
    if x.len() != n {
        return Err(SolverError::DimensionMismatch {
            detail: format!("x has {} entries, system has {n}", x.len()),
        });
    }
    Ok(residual_norms(&sys.a, &sys.b, &sys.c, &sys.d, x))
}

/// `(‖A·x − d‖∞, ‖d‖∞)` for the system with diagonals `a`, `b`, `c` and
/// right-hand side `d`, all as long as `x`. Each row of `A·x` is formed as
/// [`TridiagonalSystem::matvec`] forms it, and nothing is allocated.
fn residual_norms<T: Scalar>(a: &[T], b: &[T], c: &[T], d: &[T], x: &[T]) -> (f64, f64) {
    let n = x.len();
    let (mut r, mut dmax) = (0.0f64, 0.0f64);
    for i in 0..n {
        let mut acc = b[i] * x[i];
        if i > 0 {
            acc += a[i] * x[i - 1];
        }
        if i + 1 < n {
            acc += c[i] * x[i + 1];
        }
        r = r.max((acc - d[i]).abs().to_f64());
        dmax = dmax.max(d[i].abs().to_f64());
    }
    (r, dmax)
}

/// Maximum absolute component-wise difference between two vectors.
pub fn max_abs_diff<T: Scalar>(x: &[T], y: &[T]) -> f64 {
    assert_eq!(x.len(), y.len(), "length mismatch in max_abs_diff");
    x.iter()
        .zip(y)
        .map(|(u, v)| (*u - *v).abs().to_f64())
        .fold(0.0, f64::max)
}

/// Relative L2 error `‖x − y‖₂ / max(ε, ‖y‖₂)`.
pub fn relative_l2_error<T: Scalar>(x: &[T], y: &[T]) -> f64 {
    assert_eq!(x.len(), y.len(), "length mismatch in relative_l2_error");
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (u, v) in x.iter().zip(y) {
        let d = (*u - *v).to_f64();
        num += d * d;
        let vv = v.to_f64();
        den += vv * vv;
    }
    num.sqrt() / den.sqrt().max(f64::EPSILON)
}

/// Worst relative residual across every system of a batch given the batch's
/// flat solution vector, read in place from the batch's arrays. A system
/// that breaks the storage convention fails as
/// [`TridiagonalSystem::new`] fails on it.
pub fn batch_worst_relative_residual<T: Scalar>(batch: &SystemBatch<T>, x: &[T]) -> Result<f64> {
    let n = batch.system_size;
    if n == 0 && batch.num_systems > 0 {
        return Err(SolverError::EmptySystem);
    }
    let mut worst = 0.0f64;
    for s in 0..batch.num_systems {
        let rows = s * n..(s + 1) * n;
        let (a, b) = (&batch.a[rows.clone()], &batch.b[rows.clone()]);
        let (c, d) = (&batch.c[rows.clone()], &batch.d[rows.clone()]);
        check_boundaries(a, c)?;
        let (r, dmax) = residual_norms(a, b, c, d, &x[rows]);
        worst = worst.max(r / dmax.max(1.0));
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::TridiagonalSystem;
    use crate::thomas::solve_thomas;

    fn sys() -> TridiagonalSystem<f64> {
        TridiagonalSystem::new(
            vec![0.0, -1.0, -1.0],
            vec![4.0, 4.0, 4.0],
            vec![-1.0, -1.0, 0.0],
            vec![1.0, 2.0, 3.0],
        )
        .unwrap()
    }

    #[test]
    fn residual_of_exact_solution_is_tiny() {
        let s = sys();
        let x = solve_thomas(&s).unwrap();
        assert!(residual_linf(&s, &x).unwrap() < 1e-12);
        assert!(relative_residual(&s, &x).unwrap() < 1e-12);
    }

    #[test]
    fn residual_of_wrong_solution_is_large() {
        let s = sys();
        let bad = vec![10.0, 10.0, 10.0];
        assert!(residual_linf(&s, &bad).unwrap() > 1.0);
    }

    #[test]
    fn diff_norms() {
        let x = [1.0f64, 2.0, 3.0];
        let y = [1.0f64, 2.5, 3.0];
        assert_eq!(max_abs_diff(&x, &y), 0.5);
        assert!(relative_l2_error(&x, &x) < 1e-15);
        assert!(relative_l2_error(&x, &y) > 0.1);
    }

    #[test]
    fn batch_residual_spots_one_bad_system() {
        let s = sys();
        let batch = crate::system::SystemBatch::replicate(&s, 3).unwrap();
        let xs = solve_thomas(&s).unwrap();
        let mut flat = Vec::new();
        for _ in 0..3 {
            flat.extend_from_slice(&xs);
        }
        assert!(batch_worst_relative_residual(&batch, &flat).unwrap() < 1e-12);
        flat[4] += 1.0; // corrupt system 1
        assert!(batch_worst_relative_residual(&batch, &flat).unwrap() > 0.1);
    }
}
