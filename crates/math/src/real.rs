//! The floating-point abstraction (`FP` in the paper's Hi-Chi code).
//!
//! The paper (§3) stresses that Hi-Chi "can easily switch between using
//! single and double precision data types" by abstracting the scalar type
//! as `FP`. [`Real`] is the Rust equivalent: a sealed trait implemented for
//! exactly `f32` and `f64`, carrying every scalar operation the pushers,
//! field evaluators and solvers need.

use std::fmt::{Debug, Display, LowerExp};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Rem, Sub, SubAssign};

mod private {
    /// Prevents downstream implementations so new methods can be added
    /// without a breaking change (C-SEALED).
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Abstraction over `f32`/`f64`, mirroring the paper's `FP` typedef.
///
/// This trait is sealed: it is implemented for `f32` and `f64` only and
/// cannot be implemented outside this crate.
///
/// # Example
///
/// ```
/// use pic_math::Real;
///
/// fn kinetic_energy<R: Real>(gamma: R, mc2: R) -> R {
///     (gamma - R::ONE) * mc2
/// }
/// assert_eq!(kinetic_energy(2.0_f32, 1.0), 1.0);
/// assert_eq!(kinetic_energy(2.0_f64, 1.0), 1.0);
/// ```
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + LowerExp
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Rem<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + private::Sealed
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The constant 2.
    const TWO: Self;
    /// The constant 1/2.
    const HALF: Self;
    /// Archimedes' constant π.
    const PI: Self;
    /// Machine epsilon of the underlying type.
    const EPSILON: Self;
    /// Largest finite value.
    const MAX: Self;
    /// Number of bytes in the in-memory representation (4 or 8).
    const BYTES: usize;
    /// Human-readable name matching the paper's tables: `"float"`/`"double"`.
    const NAME: &'static str;

    /// Lossy conversion from `f64` (used for literals and constants).
    fn from_f64(x: f64) -> Self;
    /// Lossless widening to `f64` (used by diagnostics and statistics).
    fn to_f64(self) -> f64;
    /// Conversion from an index or count.
    fn from_usize(n: usize) -> Self;

    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Sine (radians).
    fn sin(self) -> Self;
    /// Cosine (radians).
    fn cos(self) -> Self;
    /// Simultaneous sine and cosine.
    fn sin_cos(self) -> (Self, Self);
    /// Simultaneous sine and cosine by a branch-free polynomial that
    /// auto-vectorizes, unlike the libm call behind [`Real::sin_cos`].
    ///
    /// Cody–Waite reduction by π/2 (a three-part split whose leading
    /// parts multiply the quadrant index exactly), then minimax
    /// polynomials on `[−π/4, π/4]` with their own constants and degree
    /// per precision (Cephes `sinf`/`cosf` for `f32`, fdlibm's kernels
    /// for `f64`). Within `|x| ≤ 8192·π/2` (f32) or `|x| ≤ 2²⁰·π/2`
    /// (f64) the products are exact and the absolute error is within
    /// 2ε (tested against libm); beyond that the reduced argument loses `≈ |x|·ε` and the
    /// results stay within `[−1, 1]`. NaN and ±∞ give NaN.
    ///
    /// ```
    /// use pic_math::Real;
    /// let (s, c) = 2.0_f32.poly_sin_cos();
    /// assert!((s - 2.0_f32.sin()).abs() < 1e-6 && (c - 2.0_f32.cos()).abs() < 1e-6);
    /// ```
    fn poly_sin_cos(self) -> (Self, Self);
    /// Exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Fused multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// Reciprocal `1/self`.
    fn recip(self) -> Self;
    /// Largest integer ≤ `self`.
    fn floor(self) -> Self;
    /// Rounds half away from zero.
    fn round(self) -> Self;
    /// Minimum of two values (propagates the non-NaN operand).
    fn min(self, other: Self) -> Self;
    /// Maximum of two values (propagates the non-NaN operand).
    fn max(self, other: Self) -> Self;
    /// `true` if the value is finite.
    fn is_finite(self) -> bool;
    /// `true` if the value is NaN.
    fn is_nan(self) -> bool;

    /// Clamps into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo > hi`.
    fn clamp(self, lo: Self, hi: Self) -> Self {
        debug_assert!(lo <= hi, "clamp: lo > hi");
        self.max(lo).min(hi)
    }
}

/// Horner evaluation of `Σ cᵢ·zⁱ` over coefficients in ascending order;
/// the fold's first step is `0·z + c_top = c_top` exactly, so this is
/// plain Horner from the top.
#[inline(always)]
pub(crate) fn horner<R: Real>(z: R, coefs: impl DoubleEndedIterator<Item = R>) -> R {
    coefs.rev().fold(R::ZERO, |acc, c| acc.mul_add(z, c))
}

/// Cody–Waite split of π/2, the round-to-integer shift and the
/// minimax coefficients of [`Real::poly_sin_cos`] for one precision.
struct SinCosConsts<T: 'static> {
    /// π/2 = `pio2[0] + pio2[1] + pio2[2]`; the first two have few
    /// enough significant bits that `k·pio2[0]` and `k·pio2[1]` are
    /// exact for every quadrant index `k` of the accurate domain.
    pio2: [T; 3],
    /// 1.5·2^(mantissa bits): adding it rounds `x·2/π` to the nearest
    /// integer and leaves that integer in the low mantissa bits.
    shift: T,
    /// 2/π rounded to the precision.
    frac_2_pi: T,
    /// `sin r = r + r·z·P(z)`, `z = r²`.
    sin: &'static [T],
    /// `cos r = 1 − z/2 + z²·Q(z)`.
    cos: &'static [T],
}

const SIN_COS_F32: SinCosConsts<f32> = SinCosConsts {
    pio2: [1.570_312_5, 4.837_513e-4, 7.549_79e-8],
    shift: 12_582_912.0,
    frac_2_pi: std::f32::consts::FRAC_2_PI,
    sin: &[-1.666_665_5e-1, 8.332_161e-3, -1.951_529_6e-4],
    cos: &[4.166_664_6e-2, -1.388_731_6e-3, 2.443_315_7e-5],
};

const SIN_COS_F64: SinCosConsts<f64> = SinCosConsts {
    pio2: [
        1.570_796_326_734_125_6,
        6.077_100_506_303_966e-11,
        2.022_266_248_711_166_5e-21,
    ],
    shift: 6_755_399_441_055_744.0,
    frac_2_pi: std::f64::consts::FRAC_2_PI,
    sin: &[
        -1.666_666_666_666_663_2e-1,
        8.333_333_333_322_49e-3,
        -1.984_126_982_985_795e-4,
        2.755_731_370_707_006_8e-6,
        -2.505_076_025_340_686_3e-8,
        1.589_690_995_211_55e-10,
    ],
    cos: &[
        4.166_666_666_666_66e-2,
        -1.388_888_888_887_411e-3,
        2.480_158_728_947_673e-5,
        -2.755_731_435_139_066_3e-7,
        2.087_572_321_298_175e-9,
        -1.135_964_755_778_819_5e-11,
    ],
};

macro_rules! impl_real {
    ($t:ty, $name:expr, $bytes:expr, $pi:expr, $sc:expr) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const HALF: Self = 0.5;
            const PI: Self = $pi;
            const EPSILON: Self = <$t>::EPSILON;
            const MAX: Self = <$t>::MAX;
            const BYTES: usize = $bytes;
            const NAME: &'static str = $name;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn from_usize(n: usize) -> Self {
                n as $t
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn sin(self) -> Self {
                self.sin()
            }
            #[inline(always)]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline(always)]
            fn sin_cos(self) -> (Self, Self) {
                self.sin_cos()
            }
            #[inline(always)]
            fn poly_sin_cos(self) -> (Self, Self) {
                let sc = &$sc;
                let [p1, p2, p3] = sc.pio2;
                // Quadrant k = round(x·2/π). The mantissa of `y` holds
                // k + 2^(mantissa bits − 1), a multiple of 4 away from k,
                // so its low two bits are k mod 4 for negative k too.
                let y = self * sc.frac_2_pi + sc.shift;
                let quadrant = y.to_bits();
                let k = y - sc.shift;
                let r = ((self - k * p1) - k * p2) - k * p3;
                // Inside the accurate domain |r| ≤ π/4 + ulps; clamping
                // keeps the polynomials bounded beyond it.
                const LIMIT: $t = 0.8;
                let r = if r > LIMIT {
                    LIMIT
                } else if r < -LIMIT {
                    -LIMIT
                } else {
                    r
                };
                let z = r * r;
                let sin = (r * z).mul_add(horner(z, sc.sin.iter().copied()), r);
                // fdlibm's compensated form of 1 − z/2 + z²·Q(z).
                let hz = 0.5 * z;
                let w = 1.0 - hz;
                let cos = w + (((1.0 - w) - hz) + (z * z) * horner(z, sc.cos.iter().copied()));
                // x = k·π/2 + r: odd k swaps the pair, k ≡ 2, 3 negates it.
                let (s, c) = if quadrant & 1 != 0 {
                    (cos, -sin)
                } else {
                    (sin, cos)
                };
                if quadrant & 2 != 0 {
                    (-s, -c)
                } else {
                    (s, c)
                }
            }
            #[inline(always)]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline(always)]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self.mul_add(a, b)
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                self.powi(n)
            }
            #[inline(always)]
            fn recip(self) -> Self {
                self.recip()
            }
            #[inline(always)]
            fn floor(self) -> Self {
                self.floor()
            }
            #[inline(always)]
            fn round(self) -> Self {
                self.round()
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                self.is_nan()
            }
        }
    };
}

impl_real!(f32, "float", 4, std::f32::consts::PI, SIN_COS_F32);
impl_real!(f64, "double", 8, std::f64::consts::PI, SIN_COS_F64);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<R: Real>() {
        assert_eq!(R::from_f64(0.0), R::ZERO);
        assert_eq!(R::from_f64(1.0), R::ONE);
        assert_eq!(R::ONE + R::ONE, R::TWO);
        assert_eq!(R::ONE / R::TWO, R::HALF);
        assert_eq!(R::from_usize(7).to_f64(), 7.0);
    }

    #[test]
    fn identities_f32() {
        roundtrip::<f32>();
    }

    #[test]
    fn identities_f64() {
        roundtrip::<f64>();
    }

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(f32::NAME, "float");
        assert_eq!(f64::NAME, "double");
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f64::BYTES, 8);
    }

    #[test]
    fn trig_and_sqrt() {
        fn check<R: Real>(tol: f64) {
            let x = R::from_f64(0.7);
            let (s, c) = x.sin_cos();
            assert!((s.to_f64() - 0.7f64.sin()).abs() < tol);
            assert!((c.to_f64() - 0.7f64.cos()).abs() < tol);
            assert!(((s * s + c * c).to_f64() - 1.0).abs() < tol);
            assert!((R::from_f64(2.0).sqrt().to_f64() - 2.0f64.sqrt()).abs() < tol);
        }
        check::<f32>(1e-6);
        check::<f64>(1e-14);
    }

    /// Largest |poly_sin_cos − libm f64| over `xs`, in units of ε.
    fn poly_error_eps<R: Real>(xs: impl Iterator<Item = f64>) -> f64 {
        xs.map(|x| {
            let (s, c) = R::from_f64(x).poly_sin_cos();
            // Compare against the exact function of the rounded input.
            let xr = R::from_f64(x).to_f64();
            let err = (s.to_f64() - xr.sin())
                .abs()
                .max((c.to_f64() - xr.cos()).abs());
            err / R::EPSILON.to_f64()
        })
        .fold(0.0, f64::max)
    }

    fn sweep(lo: f64, hi: f64, n: usize) -> impl Iterator<Item = f64> {
        (0..=n).map(move |i| lo + (hi - lo) * i as f64 / n as f64)
    }

    #[test]
    fn poly_sin_cos_is_accurate_over_the_domain() {
        // Dense near the reduction boundaries, then out to 10⁴.
        for (lo, hi, n) in [(-7.0, 7.0, 200_001), (-1.0e4, 1.0e4, 400_001)] {
            let e32 = poly_error_eps::<f32>(sweep(lo, hi, n));
            let e64 = poly_error_eps::<f64>(sweep(lo, hi, n));
            assert!(e32 <= 2.0, "f32 error {e32} ε on [{lo}, {hi}]");
            assert!(e64 <= 2.0, "f64 error {e64} ε on [{lo}, {hi}]");
        }
        // Quadrant boundaries and their neighbours, both signs.
        let pts = (-8..=8).flat_map(|k| {
            let b = k as f64 * std::f64::consts::FRAC_PI_4;
            [b - 1e-6, b, b + 1e-6]
        });
        assert!(poly_error_eps::<f32>(pts.clone()) <= 2.0);
        assert!(poly_error_eps::<f64>(pts) <= 2.0);
    }

    #[test]
    fn poly_sin_cos_stays_bounded_and_propagates_nan() {
        for x in [1.0e6_f64, 3.0e7, 1.0e12, 1.0e30, -1.0e30] {
            let (s, c) = (x as f32).poly_sin_cos();
            assert!(s.abs() <= 1.0 + 1e-6 && c.abs() <= 1.0 + 1e-6, "f32 at {x}");
            let (s, c) = x.poly_sin_cos();
            assert!(
                s.abs() <= 1.0 + 1e-12 && c.abs() <= 1.0 + 1e-12,
                "f64 at {x}"
            );
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (s, c) = x.poly_sin_cos();
            assert!(s.is_nan() && c.is_nan(), "f64 at {x}");
            let (s, c) = (x as f32).poly_sin_cos();
            assert!(s.is_nan() && c.is_nan(), "f32 at {x}");
        }
        assert_eq!(0.0_f32.poly_sin_cos(), (0.0, 1.0));
        assert_eq!(0.0_f64.poly_sin_cos(), (0.0, 1.0));
    }

    #[test]
    fn cody_waite_splits_multiply_exactly() {
        // The leading parts must have ≤ (mantissa − log2 k_max) significant
        // bits so that k·part is exact for every k of the accurate domain.
        fn sig_bits_f32(x: f32) -> u32 {
            24 - (x.to_bits() | 1 << 23).trailing_zeros()
        }
        fn sig_bits_f64(x: f64) -> u32 {
            53 - (x.to_bits() | 1 << 52).trailing_zeros()
        }
        let [a, b, c] = SIN_COS_F32.pio2;
        assert!(sig_bits_f32(a) + 13 <= 24 && sig_bits_f32(b) + 13 <= 24);
        assert!((a as f64 + b as f64 + c as f64 - std::f64::consts::FRAC_PI_2).abs() < 1e-14);
        let [a, b, c] = SIN_COS_F64.pio2;
        assert!(sig_bits_f64(a) + 20 <= 53 && sig_bits_f64(b) + 20 <= 53);
        assert!((a + b + c - std::f64::consts::FRAC_PI_2).abs() < 1e-30);
    }

    #[test]
    fn clamp_orders() {
        assert_eq!(5.0f64.clamp(0.0, 1.0), 1.0);
        assert_eq!((-5.0f64).clamp(0.0, 1.0), 0.0);
        assert_eq!(0.5f32.clamp(0.0, 1.0), 0.5);
    }

    #[test]
    fn mul_add_matches() {
        let r = 2.0f64.mul_add(3.0, 4.0);
        assert_eq!(r, 10.0);
    }

    #[test]
    fn min_max_behave() {
        assert_eq!(Real::min(1.0f32, 2.0), 1.0);
        assert_eq!(Real::max(1.0f32, 2.0), 2.0);
    }
}
