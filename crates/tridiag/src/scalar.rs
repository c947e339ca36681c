//! Minimal floating-point abstraction so every algorithm in the workspace is
//! generic over `f32` (the paper's primary precision) and `f64` (used for the
//! double-precision hybrid comparison in §III-A).
//!
//! We deliberately avoid pulling in `num-traits`: the handful of operations
//! the solvers need is small and fixed.

use crate::pcr::{self, Rows};
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point element type usable by every solver in the workspace.
pub trait Scalar:
    Copy
    + PartialOrd
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + Sum
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Size of the element in bytes (used by the simulator's traffic model).
    const BYTES: usize;
    /// Human-readable precision name ("f32" / "f64").
    const NAME: &'static str;

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root (used by norms only).
    fn sqrt(self) -> Self;
    /// Lossy conversion from `f64` (workload generation).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (norms, reporting).
    fn to_f64(self) -> f64;
    /// Machine epsilon of the type.
    fn epsilon() -> Self;
    /// True if the value is finite (not NaN/inf).
    fn is_finite(self) -> bool;

    /// One PCR row update over equal-length runs of rows, the kernel of
    /// [`crate::pcr::pcr_rows`]: own rows and their `−stride` and
    /// `+stride` neighbours, into the four outputs. `f32` evaluates runs
    /// with tiny off-diagonals in `f64`, for the same bits without
    /// subnormal assists.
    #[allow(clippy::too_many_arguments)]
    fn pcr_row_update(
        own: Rows<'_, Self>,
        minus: Rows<'_, Self>,
        plus: Rows<'_, Self>,
        oa: &mut [Self],
        ob: &mut [Self],
        oc: &mut [Self],
        od: &mut [Self],
    );

    /// Consecutive PCR steps from stride `stride` on, resident in `f64`
    /// while they take the `f64` path, at most `max_steps` of them, from
    /// `src` into `dst`, with `wide` as working memory; returns how many
    /// ran. `f32` runs [`crate::pcr::pcr_steps_f32_grid`]; `f64` runs
    /// none, since its steps never take that path.
    fn pcr_steps_wide(
        stride: usize,
        max_steps: u32,
        src: [&[Self]; 4],
        dst: [&mut [Self]; 4],
        wide: &mut Vec<f64>,
    ) -> u32;

    /// `max` that is total on non-NaN inputs.
    fn max_s(self, other: Self) -> Self {
        if self > other {
            self
        } else {
            other
        }
    }

    /// `min` that is total on non-NaN inputs.
    fn min_s(self, other: Self) -> Self {
        if self < other {
            self
        } else {
            other
        }
    }
}

macro_rules! impl_scalar {
    ($t:ty, $name:literal, $row_update:path, $steps_wide:path) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const BYTES: usize = std::mem::size_of::<$t>();
            const NAME: &'static str = $name;

            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn epsilon() -> Self {
                <$t>::EPSILON
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn pcr_row_update(
                own: Rows<'_, Self>,
                minus: Rows<'_, Self>,
                plus: Rows<'_, Self>,
                oa: &mut [Self],
                ob: &mut [Self],
                oc: &mut [Self],
                od: &mut [Self],
            ) {
                $row_update(own, minus, plus, oa, ob, oc, od);
            }
            fn pcr_steps_wide(
                stride: usize,
                max_steps: u32,
                src: [&[Self]; 4],
                dst: [&mut [Self]; 4],
                wide: &mut Vec<f64>,
            ) -> u32 {
                $steps_wide(stride, max_steps, src, dst, wide)
            }
        }
    };
}

impl_scalar!(f32, "f32", pcr::row_update_f32, pcr::pcr_steps_f32_grid);
impl_scalar!(f64, "f64", pcr::row_kernel, pcr::no_steps_wide);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_type() {
        assert_eq!(f32::ZERO, 0.0f32);
        assert_eq!(f64::ONE, 1.0f64);
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f64::BYTES, 8);
        assert_eq!(f32::NAME, "f32");
        assert_eq!(f64::NAME, "f64");
    }

    #[test]
    fn conversions_round_trip() {
        let v = 3.25f64;
        assert_eq!(f64::from_f64(v), v);
        assert_eq!(f32::from_f64(v).to_f64(), v); // 3.25 exactly representable
    }

    #[test]
    fn abs_and_sqrt() {
        assert_eq!((-2.0f32).abs(), 2.0);
        assert_eq!(4.0f64.sqrt(), 2.0);
    }

    #[test]
    fn max_min_total_on_non_nan() {
        assert_eq!(1.0f64.max_s(2.0), 2.0);
        assert_eq!(1.0f64.min_s(2.0), 1.0);
        assert_eq!(2.0f32.max_s(1.0), 2.0);
    }

    #[test]
    fn finiteness() {
        assert!(1.0f32.is_finite());
        assert!(!(f64::INFINITY).is_finite());
        assert!(!(f32::NAN).is_finite());
    }
}
