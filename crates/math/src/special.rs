//! Radial functions of the standing m-dipole wave (paper Eq. 15).
//!
//! The benchmark field (paper §5.2) is built from three radial functions
//!
//! ```text
//! f1(x) = sin(x)/x² − cos(x)/x                                  (= j₁(x))
//! f2(x) = (3/x³ − 1/x)·sin(x) − 3·cos(x)/x²                     (= j₂(x))
//! f3(x) = (1/x − 1/x³)·sin(x) + cos(x)/x²                       (= j₀(x) − j₁(x)/x)
//! ```
//!
//! with `x = kR`. Near the focus (`x → 0`) the closed forms suffer
//! catastrophic cancellation — e.g. `f2` subtracts two `O(1/x³)` terms to
//! produce an `O(x²)` result — so below [`SERIES_THRESHOLD`] the power
//! series are used instead.
//!
//! Two implementations live here:
//!
//! * [`dipole_radial`] — the one the field samplers call. It returns the
//!   three factors the field needs, `(f₁/x, f₂/x², f₃)`, from a single
//!   polynomial [`Real::poly_sin_cos`]. It evaluates both the closed
//!   forms and fixed-degree Horner series (degree per precision) and
//!   picks one with a select, so it has no branch and a block of lanes
//!   auto-vectorizes.
//! * [`f1`], [`f2`], [`f3`], [`j0`] — the reference: libm `sin_cos` and
//!   the series summed until its terms stop contributing. The golden
//!   values and the accuracy bound of [`dipole_radial`] are stated
//!   against these.

use crate::real::{horner, Real};

/// Below this argument the series expansions are used instead of the
/// closed forms. At `x = 1` both branches agree to ~10⁻¹⁴ relative in
/// double precision, so the hand-over is seamless.
pub const SERIES_THRESHOLD: f64 = 1.0;

#[inline]
fn series<R: Real>(x: R, first: R, ratio: impl Fn(usize) -> f64) -> R {
    // Sums first · Σ tₙ with t₀ = 1, tₙ₊₁ = −tₙ·x²/ratio(n), until the terms
    // stop contributing.
    let x2 = x * x;
    let mut term = R::ONE;
    let mut sum = R::ONE;
    for n in 0..32 {
        term = -term * x2 / R::from_f64(ratio(n));
        let next = sum + term;
        if next == sum {
            break;
        }
        sum = next;
    }
    first * sum
}

/// Spherical Bessel function j₀(x) = sin(x)/x, continuous at 0.
///
/// # Example
///
/// ```
/// use pic_math::special::j0;
/// assert_eq!(j0(0.0_f64), 1.0);
/// assert!((j0(3.0_f64) - 3.0f64.sin() / 3.0).abs() < 1e-15);
/// ```
#[inline]
pub fn j0<R: Real>(x: R) -> R {
    if x.abs().to_f64() < SERIES_THRESHOLD {
        // j0 = Σ (−1)ⁿ x²ⁿ/(2n+1)!  ⇒ ratio (2n+2)(2n+3)
        series(x, R::ONE, |n| ((2 * n + 2) * (2 * n + 3)) as f64)
    } else {
        x.sin() / x
    }
}

/// Dipole radial function f₁(x) = sin(x)/x² − cos(x)/x (paper Eq. 15; = j₁).
///
/// # Example
///
/// ```
/// use pic_math::special::f1;
/// // Leading behaviour near the focus: f1(x) ≈ x/3.
/// assert!((f1(1e-4_f64) - 1e-4 / 3.0).abs() < 1e-12);
/// ```
#[inline]
pub fn f1<R: Real>(x: R) -> R {
    if x.abs().to_f64() < SERIES_THRESHOLD {
        // j1 = (x/3)·Σ tₙ with ratio (2n+2)(2n+5)
        series(x, x / R::from_f64(3.0), |n| {
            ((2 * n + 2) * (2 * n + 5)) as f64
        })
    } else {
        let (s, c) = x.sin_cos();
        s / (x * x) - c / x
    }
}

/// Dipole radial function f₂(x) = (3/x³ − 1/x)·sin(x) − 3cos(x)/x² (= j₂).
///
/// # Example
///
/// ```
/// use pic_math::special::f2;
/// // Leading behaviour near the focus: f2(x) ≈ x²/15.
/// assert!((f2(1e-3_f64) - 1e-6 / 15.0).abs() < 1e-13);
/// ```
#[inline]
pub fn f2<R: Real>(x: R) -> R {
    if x.abs().to_f64() < SERIES_THRESHOLD {
        // j2 = (x²/15)·Σ tₙ with ratio (2n+2)(2n+7)
        series(x, x * x / R::from_f64(15.0), |n| {
            ((2 * n + 2) * (2 * n + 7)) as f64
        })
    } else {
        let (s, c) = x.sin_cos();
        let inv = x.recip();
        let inv2 = inv * inv;
        (R::from_f64(3.0) * inv2 * inv - inv) * s - R::from_f64(3.0) * c * inv2
    }
}

/// Dipole radial function f₃(x) = (1/x − 1/x³)·sin(x) + cos(x)/x² (Eq. 15).
///
/// Equals j₀(x) − j₁(x)/x; tends to 2/3 at the focus.
///
/// # Example
///
/// ```
/// use pic_math::special::f3;
/// assert!((f3(1e-6_f64) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[inline]
pub fn f3<R: Real>(x: R) -> R {
    if x.abs().to_f64() < SERIES_THRESHOLD {
        // f3 = Σ (−1)ⁿ aₙ x²ⁿ, aₙ = 1/(2n+1)! − 1/(j₁ denom). The first few
        // coefficients are 2/3, 2/15, 1/140, 1/5670, 1/399168, 1/43243200;
        // the term ratio aₙ₊₁/aₙ = (2n+5) / ((2n+2)(2n+3)(2n+7)/(2n+... ))
        // has no compact closed form, so sum the two constituent series.
        j0(x)
            - if x == R::ZERO {
                R::from_f64(1.0 / 3.0)
            } else {
                f1(x) / x
            }
    } else {
        let (s, c) = x.sin_cos();
        let inv = x.recip();
        let inv2 = inv * inv;
        (inv - inv2 * inv) * s + c * inv2
    }
}

/// Taylor coefficients of f₁(x)/x in z = x²: (−1)ⁿ(2n+2)/(2n+3)!.
const F1_OVER_X: [f64; 9] = [
    1.0 / 3.0,
    -1.0 / 30.0,
    1.0 / 840.0,
    -1.0 / 45_360.0,
    1.0 / 3_991_680.0,
    -1.0 / 518_918_400.0,
    1.0 / 93_405_312_000.0,
    -1.0 / 22_230_464_256_000.0,
    1.0 / 6_758_061_133_824_000.0,
];

/// Taylor coefficients of f₂(x)/x² in z = x²: 1/15, then the term ratio
/// −1/((2n+2)(2n+7)).
const F2_OVER_X2: [f64; 9] = [
    1.0 / 15.0,
    -1.0 / 210.0,
    1.0 / 7_560.0,
    -1.0 / 498_960.0,
    1.0 / 51_891_840.0,
    -1.0 / 7_783_776_000.0,
    1.0 / 1_587_890_304_000.0,
    -1.0 / 422_378_820_864_000.0,
    1.0 / 141_919_283_810_304_000.0,
];

/// Taylor coefficients of f₃(x) = j₀(x) − j₁(x)/x in z = x²:
/// (−1)ⁿ(2n+2)²/(2n+3)!.
const F3: [f64; 9] = [
    2.0 / 3.0,
    -2.0 / 15.0,
    1.0 / 140.0,
    -1.0 / 5_670.0,
    1.0 / 399_168.0,
    -1.0 / 43_243_200.0,
    1.0 / 6_671_808_000.0,
    -1.0 / 1_389_404_016_000.0,
    1.0 / 375_447_840_768_000.0,
];

/// Series terms kept in single precision. At z = 1 the first dropped
/// term is below 3·10⁻¹⁰ of the sum in every series (f64 keeps all
/// nine: the first dropped term is below 2·10⁻¹⁷ of the sum).
const F32_TERMS: usize = 6;

/// The Taylor series `coefs` in z, keeping [`F32_TERMS`] terms in f32
/// and all of them in f64.
#[inline(always)]
fn taylor<R: Real>(z: R, coefs: &[f64]) -> R {
    let terms = if R::BYTES == 4 {
        F32_TERMS
    } else {
        coefs.len()
    };
    horner(z, coefs.iter().take(terms).map(|&c| R::from_f64(c)))
}

/// The three radial factors of the m-dipole field at `u = kR ≥ 0`:
/// `(f₁(u)/u, f₂(u)/u², f₃(u))`, finite at the focus (limits 1/3, 1/15,
/// 2/3). The field divides `f₁` by `R` and `f₂` by `R²` (paper Eq. 14).
///
/// One [`Real::poly_sin_cos`] feeds the closed forms, written through
/// the recurrences `f₁ = (j₀ − cos u)/u`, `f₂ = 3f₁/u − j₀`,
/// `f₃ = j₀ − f₁/u` with `j₀ = sin u/u`. The near-focus series are
/// evaluated too, and `u <` [`SERIES_THRESHOLD`] selects them. The
/// closed forms are NaN at `u = 0`; the select discards them there.
/// No branch, so a loop over a block of lanes auto-vectorizes.
///
/// Against the f64 reference [`f1`], [`f2`], [`f3`] the error is within
/// `96·ε` (f32) and `128·ε` (f64) of each function's envelope
/// (`1/(3 + u²)`, `1/(15 + u³)`, `1/(1.5 + u)`) for `u ∈ [0, 10⁴]` —
/// pinned by a property test. The worst case is just above the handover,
/// where the closed form of f₂ cancels.
///
/// # Example
///
/// ```
/// use pic_math::special::{dipole_radial, f1, f2, f3};
/// let (a, b, c) = dipole_radial(0.0_f32);
/// assert_eq!((a, b), (1.0 / 3.0, 1.0 / 15.0));
/// assert!((c - 2.0 / 3.0).abs() < 1e-7);
/// let (a, b, c) = dipole_radial(2.5_f64);
/// assert!((a - f1(2.5) / 2.5).abs() < 1e-15);
/// assert!((b - f2(2.5) / 6.25).abs() < 1e-15);
/// assert!((c - f3(2.5)).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn dipole_radial<R: Real>(u: R) -> (R, R, R) {
    let (s, c) = u.poly_sin_cos();
    let inv = u.recip();
    let j0 = s * inv;
    let f1 = (j0 - c) * inv;
    let f1_over_u = f1 * inv;
    let closed = (
        f1_over_u,
        (R::from_f64(3.0) * f1_over_u - j0) * (inv * inv),
        j0 - f1_over_u,
    );
    let z = u * u;
    let series = (
        taylor(z, &F1_OVER_X),
        taylor(z, &F2_OVER_X2),
        taylor(z, &F3),
    );
    if u < R::from_f64(SERIES_THRESHOLD) {
        series
    } else {
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Error of [`dipole_radial`] at `u` against the f64 reference, as a
    /// multiple of ε of `R`, relative to each function's envelope
    /// (its value at the focus, decaying like the function for large u).
    fn radial_error_eps<R: Real>(u: R) -> f64 {
        let x = u.to_f64();
        let (a, b, c) = dipole_radial(u);
        let reference = if x == 0.0 {
            (1.0 / 3.0, 1.0 / 15.0, 2.0 / 3.0)
        } else {
            (f1(x) / x, f2(x) / (x * x), f3(x))
        };
        let envelope = (
            1.0 / (3.0 + x * x),
            1.0 / (15.0 + x * x * x),
            1.0 / (1.5 + x),
        );
        let err = ((a.to_f64() - reference.0).abs() / envelope.0)
            .max((b.to_f64() - reference.1).abs() / envelope.1)
            .max((c.to_f64() - reference.2).abs() / envelope.2);
        err / R::EPSILON.to_f64()
    }

    /// The stated bound of [`dipole_radial`] in ε of `R`: 96 for f32,
    /// 128 for f64. The worst case sits just above the handover, where
    /// the closed form of f₂/u² cancels ~15×. A dense scan of [1, 4]
    /// measured 56 ε in f32 (the per-function libm path this replaced:
    /// 69 ε) and 87 ε in f64, where the reference's own closed form
    /// cancels as much.
    fn bound_eps<R: Real>() -> f64 {
        if R::BYTES == 4 {
            96.0
        } else {
            128.0
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn dipole_radial_is_within_its_bound(u in 0.0f64..1.0e4, near in 0.0f64..2.0) {
            for x in [u, near] {
                let e32 = radial_error_eps(x as f32);
                let e64 = radial_error_eps(x);
                prop_assert!(e32 <= bound_eps::<f32>(), "f32 at u = {}: {} ε", x, e32);
                prop_assert!(e64 <= bound_eps::<f64>(), "f64 at u = {}: {} ε", x, e64);
            }
        }
    }

    #[test]
    fn dipole_radial_edges_are_within_its_bound() {
        let one = 1.0_f32;
        for u in [
            0.0,
            one - f32::EPSILON,
            f32::from_bits(one.to_bits() - 1),
            one,
            f32::from_bits(one.to_bits() + 1),
            one + f32::EPSILON,
        ] {
            let e = radial_error_eps(u);
            assert!(e <= bound_eps::<f32>(), "f32 at u = {u:e}: {e} ε");
        }
        let one = 1.0_f64;
        for u in [
            0.0,
            one - f64::EPSILON,
            f64::from_bits(one.to_bits() - 1),
            one,
            f64::from_bits(one.to_bits() + 1),
            one + f64::EPSILON,
        ] {
            let e = radial_error_eps(u);
            assert!(e <= bound_eps::<f64>(), "f64 at u = {u:e}: {e} ε");
        }
    }

    #[test]
    fn dipole_radial_dense_sweep_is_within_its_bound() {
        // Cubic spacing: dense near the focus and the handover, sparse far out.
        let mut worst = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for i in 0..=200_000 {
            let x = 1.0e4 * (i as f64 / 200_000.0).powi(3);
            let (e32, e64) = (radial_error_eps(x as f32), radial_error_eps(x));
            if e32 > worst.0 {
                worst.0 = e32;
                worst.1 = x;
            }
            if e64 > worst.2 {
                worst.2 = e64;
                worst.3 = x;
            }
        }
        assert!(
            worst.0 <= bound_eps::<f32>() && worst.2 <= bound_eps::<f64>(),
            "{worst:?}"
        );
    }

    /// Closed forms evaluated in f64 well away from the cancellation zone.
    fn f1_ref(x: f64) -> f64 {
        x.sin() / (x * x) - x.cos() / x
    }
    fn f2_ref(x: f64) -> f64 {
        (3.0 / x.powi(3) - 1.0 / x) * x.sin() - 3.0 * x.cos() / (x * x)
    }
    fn f3_ref(x: f64) -> f64 {
        (1.0 / x - 1.0 / x.powi(3)) * x.sin() + x.cos() / (x * x)
    }

    #[test]
    fn series_matches_closed_form_at_handover() {
        // Both branches must agree near the threshold from either side.
        for &x in &[0.5, 0.8, 0.99, 1.01, 1.5, 3.0] {
            assert!((f1(x) - f1_ref(x)).abs() < 1e-13, "f1({x})");
            assert!((f2(x) - f2_ref(x)).abs() < 1e-13, "f2({x})");
            assert!((f3(x) - f3_ref(x)).abs() < 1e-13, "f3({x})");
        }
    }

    #[test]
    fn limits_at_focus() {
        assert_eq!(f1(0.0_f64), 0.0);
        assert_eq!(f2(0.0_f64), 0.0);
        assert!((f3(0.0_f64) - 2.0 / 3.0).abs() < 1e-15);
        // The closed forms are NaN at the focus; the select must drop them.
        assert_eq!(dipole_radial(0.0_f64), (1.0 / 3.0, 1.0 / 15.0, 2.0 / 3.0));
        assert_eq!(dipole_radial(0.0_f32), (1.0 / 3.0, 1.0 / 15.0, 2.0 / 3.0));
        assert_eq!(j0(0.0_f64), 1.0);
    }

    #[test]
    fn no_cancellation_blowup_in_f32() {
        // The closed form of f2 in f32 loses everything below x ~ 3e-2;
        // the series branch must stay accurate.
        for &x in &[1e-6_f32, 1e-4, 1e-2, 0.1, 0.5, 0.9] {
            let exact = f2(x as f64) as f32;
            let got = f2(x);
            let denom = exact.abs().max(1e-30);
            assert!(
                (got - exact).abs() / denom < 1e-5,
                "f2({x}) = {got}, want {exact}"
            );
        }
    }

    #[test]
    fn f3_is_j0_minus_j1_over_x() {
        for &x in &[0.3_f64, 0.7, 2.0, 5.0] {
            let expect = j0(x) - f1(x) / x;
            assert!((f3(x) - expect).abs() < 1e-14, "x = {x}");
        }
    }

    #[test]
    fn odd_even_symmetry() {
        // f1 is odd; f2, f3 and j0 are even.
        for &x in &[0.2_f64, 0.9, 2.5] {
            assert!((f1(-x) + f1(x)).abs() < 1e-15);
            assert!((f2(-x) - f2(x)).abs() < 1e-15);
            assert!((f3(-x) - f3(x)).abs() < 1e-15);
            assert!((j0(-x) - j0(x)).abs() < 1e-15);
        }
    }

    #[test]
    fn asymptotics_far_from_focus() {
        // For large x the functions decay like 1/x.
        for &x in &[50.0_f64, 500.0] {
            assert!(f1(x).abs() < 2.0 / x);
            assert!(f2(x).abs() < 2.0 / x);
            assert!(f3(x).abs() < 2.0 / x);
        }
    }
}
