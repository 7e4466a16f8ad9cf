//! Simulated time: nanosecond-resolution instants and durations.
//!
//! The whole simulator counts in integer nanoseconds. `u64` nanoseconds
//! cover ~584 years of simulated time, far beyond any run here; arithmetic
//! is `debug_assert`-checked and saturating in release builds so a
//! mis-ordered subtraction cannot silently wrap.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// `x.round() as u64`, computed without a call to `f64::round`.
///
/// Rounds half away from zero and saturates exactly like the cast:
/// NaN and everything below one half give 0, values from 2^64 up give
/// `u64::MAX`. Baseline x86-64 has no rounding instruction, so
/// `f64::round` is a library call; this is a truncating conversion and
/// a compare. The fraction `x - trunc(x)` is exact for every finite
/// `x`, so the result is bit-for-bit the cast's.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    /// From 2^52 up every `f64` is an integer.
    const INTEGRAL: f64 = 4_503_599_627_370_496.0;
    if (0.5..INTEGRAL).contains(&x) {
        let whole = x as i64;
        (whole + (x - whole as f64 >= 0.5) as i64) as u64
    } else if x >= INTEGRAL {
        x as u64
    } else {
        0
    }
}

/// A point in simulated time, measured in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as "never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time since the epoch as a duration.
    #[inline]
    pub const fn elapsed_since_epoch(self) -> SimDuration {
        SimDuration(self.0)
    }

    /// Duration since `earlier`. Saturates to zero if `earlier` is later
    /// (callers assert in debug builds).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            self >= earlier,
            "SimTime::since: earlier {earlier:?} is after {self:?}"
        );
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Seconds since the epoch as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_u64(s * 1e9))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True iff this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative float, rounding to the nearest nanosecond.
    /// Used by the execution-speed model (`work / speed`).
    #[inline]
    pub fn mul_f64(self, k: f64) -> Self {
        debug_assert!(k >= 0.0, "SimDuration::mul_f64: negative factor {k}");
        SimDuration(round_u64(self.0 as f64 * k))
    }

    /// Divide by a positive float, rounding to the nearest nanosecond.
    #[inline]
    pub fn div_f64(self, k: f64) -> Self {
        debug_assert!(k > 0.0, "SimDuration::div_f64: non-positive divisor {k}");
        SimDuration(round_u64(self.0 as f64 / k))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self >= rhs, "SimDuration underflow: {self:?} - {rhs:?}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn time_duration_arithmetic() {
        let t0 = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(50);
        let t1 = t0 + d;
        assert_eq!(t1.as_nanos(), 150);
        assert_eq!(t1.since(t0), d);
        assert_eq!(t1 - t0, d);
        assert_eq!(t1 - d, t0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
        assert_eq!(d.div_f64(2.0), SimDuration::from_millis(5));
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
    }

    #[test]
    fn round_u64_matches_round_then_cast() {
        let two52 = 4_503_599_627_370_496.0f64;
        let two63 = 9_223_372_036_854_775_808.0f64;
        let edges = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            1.0 - f64::EPSILON / 2.0,
            two52 - 0.5,
            two52 - 1.5,
            two52,
            two52 + 1.0,
            two52 + 2.0,
            two63,
            two63 * 2.0,
            two63 * 4.0,
            f64::MAX,
            f64::INFINITY,
            -0.5,
            -0.4,
            -2.5,
            -1e300,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            1e-300,
        ];
        for x in edges {
            assert_eq!(round_u64(x), x.round() as u64, "x = {x:e}");
        }
        // Random bit patterns cover every exponent; random values near
        // half-integers cover the rounding boundary.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = f64::from_bits(state);
            assert_eq!(round_u64(x), x.round() as u64, "x = {x:e}");
            let y = (state >> 11) as f64 / 2.0 + 0.5 * ((state & 1) as f64);
            assert_eq!(round_u64(y), y.round() as u64, "y = {y:e}");
            let z = (state % 10_000_000_000) as f64 * 1e-9 * 1e9;
            assert_eq!(round_u64(z), z.round() as u64, "z = {z:e}");
        }
    }

    #[test]
    fn from_secs_f64_clamps_negative() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(
            SimDuration::from_nanos(5).saturating_sub(SimDuration::from_nanos(9)),
            SimDuration::ZERO
        );
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_nanos(1);
        let b = SimDuration::from_nanos(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }
}
