//! Internal helper macro for `f64`-backed quantity newtypes.
//!
//! Generates the arithmetic every scalar physical quantity shares:
//! addition/subtraction with itself, scaling by a dimensionless `f64`,
//! dimensionless ratio of two quantities, assignment variants, `Sum`, and
//! ordering helpers. Per-type constructors, accessors, and dimension-mixing
//! products (e.g. `Power * TimeDelta`) are written out by hand in each
//! module so the public API stays explicit.

/// Implements shared scalar-quantity arithmetic for an `f64` newtype.
macro_rules! impl_scalar_quantity {
    ($ty:ident, $raw:ident) => {
        impl $ty {
            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                assert!(lo.0 <= hi.0, "clamp bounds inverted: {:?} > {:?}", lo, hi);
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);
        }

        impl core::ops::Add for $ty {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::AddAssign for $ty {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::Sub for $ty {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::SubAssign for $ty {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::ops::Mul<f64> for $ty {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$ty> for f64 {
            type Output = $ty;
            fn mul(self, rhs: $ty) -> $ty {
                $ty(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $ty {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Ratio of two like quantities is dimensionless.
        impl core::ops::Div for $ty {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::ops::Neg for $ty {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::iter::Sum for $ty {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, x| acc + x)
            }
        }

        impl<'a> core::iter::Sum<&'a $ty> for $ty {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, x| acc + *x)
            }
        }
    };
}
