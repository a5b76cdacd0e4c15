//! Virtual (simulated) time.
//!
//! Every cost in the simulator — kernel execution, host↔device copies, MPI
//! messages, allocator latencies — is expressed as a [`SimTime`] and advanced
//! on a [`Clock`]. Wall-clock time is never consulted, which makes every
//! experiment in the repository bit-for-bit reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time, stored as seconds in an `f64`.
///
/// `f64` seconds keep the arithmetic simple while retaining ~15 significant
/// digits — microsecond resolution over multi-hour simulated runs. All
/// constructors and accessors are unit-explicit to avoid confusion.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    /// Zero duration.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds. Panics on negative or non-finite input in
    /// debug builds; costs are never negative by construction.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "invalid SimTime: {s}");
        SimTime(s)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub fn from_nanos(ns: f64) -> Self {
        Self::from_secs(ns * 1e-9)
    }

    /// The span in seconds.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }

    /// The span in microseconds.
    #[inline]
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Element-wise maximum — used for roofline `max(compute, memory)` and
    /// for synchronising clocks (`join`).
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// True if this is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
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
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Mul<SimTime> for f64 {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: SimTime) -> SimTime {
        rhs * self
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    /// Ratio of two spans — used for speed-up computations.
    #[inline]
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // SimTime is always finite and non-negative by construction, so
        // partial_cmp never fails.
        self.partial_cmp(other).expect("SimTime is always ordered")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3} µs", s * 1e6)
        } else {
            write!(f, "{:.1} ns", s * 1e9)
        }
    }
}

/// A monotonically advancing virtual clock.
///
/// Streams, ranks, and devices each own a `Clock`. A clock only moves
/// forward; synchronisation between two timelines is expressed with
/// [`Clock::sync_to`] (advance to the later of the two).
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// A new clock at t = 0.
    pub fn new() -> Self {
        Clock { now: SimTime::ZERO }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance by `dt` and return the new time.
    #[inline]
    pub fn advance(&mut self, dt: SimTime) -> SimTime {
        self.now += dt;
        self.now
    }

    /// Advance to at least `t` (no-op if already past). Returns the new time.
    #[inline]
    pub fn sync_to(&mut self, t: SimTime) -> SimTime {
        self.now = self.now.max(t);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        let t = SimTime::from_micros(2.5);
        assert!((t.secs() - 2.5e-6).abs() < 1e-18);
        assert_eq!(SimTime::from_nanos(1e9), SimTime::from_secs(1.0));
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(0.25);
        assert_eq!(a + b, SimTime::from_secs(1.25));
        assert_eq!(a - b, SimTime::from_secs(0.75));
        assert_eq!(a * 2.0, SimTime::from_secs(2.0));
        assert_eq!(a / 4.0, b);
        assert!((a / b - 4.0).abs() < 1e-12);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn sum_of_spans() {
        let total: SimTime = (1..=4).map(|i| SimTime::from_secs(i as f64)).sum();
        assert_eq!(total, SimTime::from_secs(10.0));
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimTime::from_secs(1.0));
        c.sync_to(SimTime::from_secs(0.5)); // already past: no-op
        assert_eq!(c.now(), SimTime::from_secs(1.0));
        c.sync_to(SimTime::from_secs(2.0));
        assert_eq!(c.now(), SimTime::from_secs(2.0));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500 s");
        assert_eq!(format!("{}", SimTime::from_micros(2e3)), "2.000 ms");
        assert_eq!(format!("{}", SimTime::from_micros(3.0)), "3.000 µs");
        assert_eq!(format!("{}", SimTime::from_nanos(4.0)), "4.0 ns");
    }
}
