//! Exact rational arithmetic over `i128`.
//!
//! Gains in a synchronous dataflow graph are products of `out/in` rate
//! ratios (Definition 1 of the paper) and must be computed exactly:
//! floating point would mis-classify rate-matched graphs. The numbers stay
//! small for all graphs our generators produce (they are quotients of
//! repetition-vector entries), but every operation is overflow-checked and
//! the panicking operators are documented as such.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Greatest common divisor (non-negative result, `gcd(0, 0) == 0`).
pub fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Greatest common divisor over `u64`.
pub fn gcd_u64(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple over `i128`, checked. `lcm(0, x) == 0`.
pub fn checked_lcm_i128(a: i128, b: i128) -> Option<i128> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    let g = gcd_i128(a, b);
    (a / g).checked_mul(b)?.checked_abs()
}

/// Least common multiple over `u64`, checked.
pub fn checked_lcm_u64(a: u64, b: u64) -> Option<u64> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    let g = gcd_u64(a, b);
    (a / g).checked_mul(b)
}

/// An exact rational number: `num / den` with `den > 0` and
/// `gcd(|num|, den) == 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ratio {
    num: i128,
    den: i128,
}

impl Ratio {
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Construct and normalize. Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Ratio {
        Self::checked_new(num, den).expect("Ratio::new: zero denominator")
    }

    /// Construct and normalize; `None` if `den == 0`.
    fn checked_new(num: i128, den: i128) -> Option<Ratio> {
        if den == 0 {
            return None;
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd_i128(num, den);
        if g == 0 {
            return Some(Ratio::ZERO);
        }
        Some(Ratio {
            num: sign * (num / g),
            den: (den / g).abs(),
        })
    }

    /// The integer `n` as a ratio.
    pub const fn integer(n: i128) -> Ratio {
        Ratio { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn den(&self) -> i128 {
        self.den
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            (self.num - (self.den - 1)) / self.den
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> i128 {
        if self.num > 0 {
            (self.num + self.den - 1) / self.den
        } else {
            self.num / self.den
        }
    }

    /// Lossy conversion for reporting only.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    pub fn checked_add(&self, rhs: Ratio) -> Option<Ratio> {
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d): keeps
        // intermediates small for the common case of shared denominators.
        let l = checked_lcm_i128(self.den, rhs.den)?;
        let lhs_num = self.num.checked_mul(l / self.den)?;
        let rhs_num = rhs.num.checked_mul(l / rhs.den)?;
        Ratio::checked_new(lhs_num.checked_add(rhs_num)?, l)
    }

    pub fn checked_sub(&self, rhs: Ratio) -> Option<Ratio> {
        self.checked_add(Ratio {
            num: rhs.num.checked_neg()?,
            den: rhs.den,
        })
    }

    pub fn checked_mul(&self, rhs: Ratio) -> Option<Ratio> {
        // Cross-reduce before multiplying to delay overflow.
        let g1 = gcd_i128(self.num, rhs.den).max(1);
        let g2 = gcd_i128(rhs.num, self.den).max(1);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Ratio::checked_new(num, den)
    }

    pub fn checked_div(&self, rhs: Ratio) -> Option<Ratio> {
        if rhs.num == 0 {
            return None;
        }
        self.checked_mul(Ratio {
            num: rhs.den,
            den: rhs.num,
        })
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    /// Panics on internal i128 overflow (unreachable for repetition-vector
    /// quotients, which are bounded by the vector entries themselves).
    fn cmp(&self, other: &Self) -> Ordering {
        // Reduce cross terms first: a/b vs c/d  <=>  a*d vs c*b.
        let g_num = gcd_i128(self.num, other.num).max(1);
        let g_den = gcd_i128(self.den, other.den).max(1);
        let cross = |x: &Ratio, y: &Ratio| {
            (x.num / g_num)
                .checked_mul(y.den / g_den)
                .expect("Ratio::cmp overflow")
        };
        cross(self, other).cmp(&cross(other, self))
    }
}

impl std::ops::Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        self.checked_add(rhs).expect("Ratio add overflow")
    }
}

impl std::ops::Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self.checked_sub(rhs).expect("Ratio sub overflow")
    }
}

impl std::ops::Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        self.checked_mul(rhs).expect("Ratio mul overflow")
    }
}

impl std::ops::Div for Ratio {
    type Output = Ratio;
    fn div(self, rhs: Ratio) -> Ratio {
        self.checked_div(rhs)
            .expect("Ratio div by zero or overflow")
    }
}

impl std::iter::Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, |acc, x| acc + x)
    }
}

impl From<i128> for Ratio {
    fn from(n: i128) -> Ratio {
        Ratio::integer(n)
    }
}

impl From<u64> for Ratio {
    fn from(n: u64) -> Ratio {
        Ratio::integer(n as i128)
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_on_construction() {
        let r = Ratio::new(6, 4);
        assert_eq!(r.num(), 3);
        assert_eq!(r.den(), 2);
        let r = Ratio::new(-6, 4);
        assert_eq!(r.num(), -3);
        assert_eq!(r.den(), 2);
        let r = Ratio::new(6, -4);
        assert_eq!(r.num(), -3);
        assert_eq!(r.den(), 2);
        let r = Ratio::new(0, -7);
        assert_eq!(r, Ratio::ZERO);
    }

    #[test]
    fn zero_denominator_rejected() {
        assert!(Ratio::checked_new(1, 0).is_none());
    }

    #[test]
    fn arithmetic_identities() {
        let a = Ratio::new(2, 3);
        let b = Ratio::new(3, 4);
        assert_eq!(a + b, Ratio::new(17, 12));
        assert_eq!(a - b, Ratio::new(-1, 12));
        assert_eq!(a * b, Ratio::new(1, 2));
        assert_eq!(a / b, Ratio::new(8, 9));
    }

    #[test]
    fn floor_ceil_negative() {
        assert_eq!(Ratio::new(-7, 2).floor(), -4);
        assert_eq!(Ratio::new(-7, 2).ceil(), -3);
        assert_eq!(Ratio::new(7, 2).floor(), 3);
        assert_eq!(Ratio::new(7, 2).ceil(), 4);
        assert_eq!(Ratio::integer(5).floor(), 5);
        assert_eq!(Ratio::integer(5).ceil(), 5);
    }

    #[test]
    fn ordering() {
        let mut v = vec![
            Ratio::new(1, 2),
            Ratio::new(-1, 3),
            Ratio::ONE,
            Ratio::ZERO,
            Ratio::new(7, 8),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Ratio::new(-1, 3),
                Ratio::ZERO,
                Ratio::new(1, 2),
                Ratio::new(7, 8),
                Ratio::ONE,
            ]
        );
    }

    /// `cmp` divides the cross terms by the numerators' and the
    /// denominators' gcds before multiplying: each pair below overflows
    /// `i128` when cross-multiplied naively, and orders correctly.
    #[test]
    fn ordering_reduces_cross_terms_before_multiplying() {
        let big = 1i128 << 126;
        assert!(big.checked_mul(5).is_none());
        let (third, fifth) = (Ratio::new(big, 3), Ratio::new(big, 5));
        assert_eq!(third.cmp(&fifth), Ordering::Greater);
        assert_eq!(fifth.cmp(&third), Ordering::Less);
        let (small, smaller) = (Ratio::new(5, big), Ratio::new(3, big));
        assert_eq!(small.cmp(&smaller), Ordering::Greater);
        assert_eq!(Ratio::new(-3, big).cmp(&Ratio::new(3, big)), Ordering::Less);
    }

    /// On a grid of small ratios `cmp` is the sign of the difference,
    /// and `Equal` exactly when the normalized forms are equal.
    #[test]
    fn ordering_agrees_with_the_sign_of_the_difference() {
        let grid: Vec<Ratio> = (-6..=6)
            .flat_map(|n| (1..=6).map(move |d| Ratio::new(n, d)))
            .collect();
        for &a in &grid {
            for &b in &grid {
                assert_eq!(a.cmp(&b), (a - b).num().cmp(&0), "{a} vs {b}");
                assert_eq!(a.cmp(&b) == Ordering::Equal, a == b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn sum_iterator() {
        let s: Ratio = (1..=4).map(|i| Ratio::new(1, i)).sum();
        assert_eq!(s, Ratio::new(25, 12));
    }

    #[test]
    fn gcd_lcm_helpers() {
        assert_eq!(gcd_i128(12, 18), 6);
        assert_eq!(gcd_i128(-12, 18), 6);
        assert_eq!(gcd_i128(0, 0), 0);
        assert_eq!(gcd_u64(35, 14), 7);
        assert_eq!(checked_lcm_i128(4, 6), Some(12));
        assert_eq!(checked_lcm_u64(0, 5), Some(0));
        assert_eq!(checked_lcm_u64(21, 6), Some(42));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Ratio::new(3, 2)), "3/2");
        assert_eq!(format!("{}", Ratio::integer(-4)), "-4");
    }

    #[test]
    fn cross_reduced_mul_avoids_overflow() {
        // (big/3) * (3/big) must not overflow even though naive products do.
        let big = i128::MAX / 2;
        let a = Ratio::new(big, 3);
        let b = Ratio::new(3, big);
        assert_eq!(a.checked_mul(b), Some(Ratio::ONE));
    }
}
