//! Simulation time.
//!
//! Time is kept as integer microseconds so that event ordering is exact and
//! runs are bit-for-bit reproducible — floating-point clocks accumulate
//! rounding that can reorder ties across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use iobt_ckpt::{Dec, DecodeError, Enc, Wire};

/// An instant on the simulation clock, in microseconds since start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// Raw microseconds, as a `u64`.
impl Wire for SimTime {
    fn put(&self, e: &mut Enc) {
        let Self(micros) = self;
        e.u64(*micros);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(SimTime(d.u64()?))
    }
}

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant from fractional seconds; negative and non-finite
    /// values clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_finite() && secs > 0.0 {
            SimTime((secs * 1e6).round().min(u64::MAX as f64) as u64)
        } else {
            SimTime::ZERO
        }
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating difference `self - earlier`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

/// A span of simulation time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// Raw microseconds, as a `u64`.
impl Wire for SimDuration {
    fn put(&self, e: &mut Enc) {
        let Self(micros) = self;
        e.u64(*micros);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(SimDuration(d.u64()?))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span from fractional seconds; negative and non-finite
    /// values clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_finite() && secs > 0.0 {
            SimDuration((secs * 1e6).round().min(u64::MAX as f64) as u64)
        } else {
            SimDuration::ZERO
        }
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;

    /// Saturating: an earlier minus a later instant is zero.
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!(t.as_millis_f64(), 1_500.0);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NEG_INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = SimTime::MAX;
        assert_eq!(t + SimDuration::from_micros(10), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimTime::from_micros(5), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        let mut t = SimTime::ZERO;
        t += SimDuration::from_millis(1);
        assert_eq!(t, SimTime::from_millis(1));
    }

    proptest! {
        #[test]
        fn since_inverts_add(start in 0u64..1u64 << 40, delta in 0u64..1u64 << 20) {
            let t0 = SimTime::from_micros(start);
            let d = SimDuration::from_micros(delta);
            prop_assert_eq!((t0 + d).saturating_since(t0), d);
        }
    }
}
