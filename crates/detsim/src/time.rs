//! Virtual simulation time.
//!
//! Time is kept in integer **nanoseconds** (`u64`), which gives ~584 years
//! of range, exact arithmetic (no floating-point drift across schedulers,
//! which would destroy determinism), and a total order suitable for the
//! event queue.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// A point (or span) of virtual time, in nanoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic operators treat it uniformly, mirroring how DES kernels use
/// a single numeric time type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time. Useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional microseconds, rounding to the nearest
    /// nanosecond. Negative inputs saturate to zero.
    ///
    /// The paper specifies processing delays in microseconds (e.g. `3.53 µs`
    /// for malware scanning); this is the bridge from those constants.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        if us <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime(round_half_up(us * 1_000.0))
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime(round_half_up(s * 1_000_000_000.0))
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time expressed as fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time expressed as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Multiply a duration by an integer scale factor (used by the
    /// rate/time scaling described in DESIGN.md).
    #[inline]
    pub fn scaled(self, factor: u64) -> SimTime {
        SimTime(self.0.saturating_mul(factor))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

/// `x.round() as u64` for the `x > 0.0` (or NaN) the constructors pass
/// in, without the libm call: ties round up, NaN gives 0, and values
/// past `u64::MAX` saturate, exactly as `round` then `as` do. The
/// subtraction is exact: below 1 it is `x - 0`, from 1 on `x / 2 <= t
/// <= x` (Sterbenz), and from 2^53 on `x` is an integer.
#[inline]
fn round_half_up(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Pick the largest unit that keeps at least one integer digit.
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn fractional_micros_round() {
        assert_eq!(SimTime::from_micros_f64(3.53).as_nanos(), 3530);
        assert_eq!(SimTime::from_micros_f64(0.5).as_nanos(), 500);
        assert_eq!(SimTime::from_micros_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn round_half_up_matches_libm_round() {
        let libm = |x: f64| x.round() as u64;
        let mut cases = vec![
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            5e-324,                  // smallest subnormal
            0.49999999999999994,     // largest double below 0.5
            0.5,
            1.0,
            u64::MAX as f64,
            1e300,
        ];
        // Ties k + 0.5 and their neighbours.
        for k in [0u64, 1, 2, 3, 499, 3530, 1 << 20, 1 << 40, (1 << 51) + 1] {
            let tie = k as f64 + 0.5;
            cases.extend([tie, tie.next_down(), tie.next_up()]);
        }
        // Around 2^52 (last binade with halves), 2^53 (last with every
        // integer) and 2^64 (saturation).
        for e in [52, 53, 63, 64] {
            let mut x = 2f64.powi(e);
            for _ in 0..8 {
                x = x.next_down();
            }
            for _ in 0..16 {
                cases.push(x);
                x = x.next_up();
            }
        }
        // A deterministic sweep of magnitudes and fractions.
        let mut bits = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..100_000 {
            bits ^= bits << 13;
            bits ^= bits >> 7;
            bits ^= bits << 17;
            let mantissa = (bits >> 11) as f64 / (1u64 << 53) as f64;
            cases.push(mantissa * 2f64.powi((bits % 70) as i32 - 4));
        }
        for x in cases {
            assert_eq!(round_half_up(x), libm(x), "x = {x:e}");
        }
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!((a + b).as_nanos(), 14_000);
        assert_eq!((a - b).as_nanos(), 6_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_nanos(), 14_000);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn scaled_multiplies() {
        assert_eq!(
            SimTime::from_micros(2).scaled(50),
            SimTime::from_micros(100)
        );
        assert_eq!(SimTime::MAX.scaled(2), SimTime::MAX); // saturates
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimTime::from_micros(2)), "2.000µs");
        assert_eq!(format!("{}", SimTime::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(4)), "4.000s");
    }

    #[test]
    fn roundtrip_f64() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
