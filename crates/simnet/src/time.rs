use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since simulation start.
///
/// Wraps `f64` with a total order (`f64::total_cmp`) so it can key the event
/// queue. Construction rejects NaN, which keeps the total order meaningful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point.
    ///
    /// # Panics
    /// Panics if `seconds` is NaN or negative.
    pub fn new(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimTime must be finite and non-negative, got {seconds}"
        );
        SimTime(seconds)
    }

    /// Seconds since simulation start.
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Advances by `dt` seconds.
    ///
    /// # Panics
    /// Panics if `dt` is NaN or negative.
    pub fn after(self, dt: f64) -> SimTime {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "time delta must be finite and non-negative, got {dt}"
        );
        SimTime(self.0 + dt)
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, dt: f64) -> SimTime {
        self.after(dt)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, dt: f64) {
        *self = self.after(dt);
    }
}

impl Sub for SimTime {
    type Output = f64;
    fn sub(self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::new(1.0);
        let b = a + 0.5;
        assert!(b > a);
        assert_eq!(b - a, 0.5);
        assert_eq!(a.max(b), b);
        assert_eq!(SimTime::ZERO.seconds(), 0.0);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += 2.0;
        assert_eq!(t.seconds(), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        SimTime::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_delta() {
        let _ = SimTime::ZERO + f64::NAN;
    }
}
