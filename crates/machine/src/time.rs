//! Simulated time.
//!
//! The simulator's clock is the CE instruction cycle: 170 ns on the real
//! Cedar. All component timings are expressed in integer cycles; wall-clock
//! quantities (seconds, MFLOPS) are derived at the edges.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// The CE instruction cycle time of the real Cedar, in nanoseconds.
pub const CEDAR_CYCLE_NS: f64 = 170.0;

/// A point in simulated time, measured in CE cycles since reset.
///
/// # Examples
///
/// ```
/// use cedar_machine::time::Cycle;
/// let t = Cycle(100) + 13;
/// assert_eq!(t, Cycle(113));
/// assert_eq!(t - Cycle(100), 13);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// A wake cycle that never comes: the component sleeps until another
    /// one wakes it.
    pub const NEVER: Cycle = Cycle(u64::MAX);

    /// Convert a cycle count to seconds using the given cycle time.
    pub fn to_seconds(self, cycle_ns: f64) -> f64 {
        self.0 as f64 * cycle_ns * 1e-9
    }

    /// Convert a cycle count to microseconds using the given cycle time.
    pub fn to_micros(self, cycle_ns: f64) -> f64 {
        self.0 as f64 * cycle_ns * 1e-3
    }

    /// Number of whole cycles in `micros` microseconds at `cycle_ns` per cycle,
    /// rounded up so that delays never come out shorter than requested.
    pub fn from_micros(micros: f64, cycle_ns: f64) -> Cycle {
        Cycle(((micros * 1000.0) / cycle_ns).ceil() as u64)
    }

    /// Saturating difference in cycles (`self - earlier`, or 0 if earlier is later).
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("cycle subtraction underflow: rhs is later than self")
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// Compute a sustained rate in MFLOPS from a flop count and elapsed cycles.
///
/// Returns 0.0 when no time has elapsed.
pub fn mflops(flops: u64, elapsed: u64, cycle_ns: f64) -> f64 {
    if elapsed == 0 {
        return 0.0;
    }
    let seconds = elapsed as f64 * cycle_ns * 1e-9;
    flops as f64 / seconds / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let t = Cycle(5);
        assert_eq!(t + 7, Cycle(12));
        let mut u = t;
        u += 3;
        assert_eq!(u, Cycle(8));
        assert_eq!(u - t, 3);
        assert_eq!(Cycle(3).saturating_since(Cycle(10)), 0);
        assert_eq!(Cycle(10).saturating_since(Cycle(3)), 7);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn cycle_subtraction_underflow_panics() {
        let _ = Cycle(1) - Cycle(2);
    }

    #[test]
    fn seconds_conversion_uses_cycle_time() {
        // 1e9 cycles at 170ns = 170 seconds.
        assert!((Cycle(1_000_000_000).to_seconds(CEDAR_CYCLE_NS) - 170.0).abs() < 1e-9);
        assert!((Cycle(1000).to_micros(CEDAR_CYCLE_NS) - 170.0).abs() < 1e-9);
    }

    #[test]
    fn from_micros_rounds_up() {
        // 90us at 170ns/cycle = 529.4 cycles -> 530.
        assert_eq!(Cycle::from_micros(90.0, CEDAR_CYCLE_NS), Cycle(530));
    }

    #[test]
    fn mflops_of_peak_vector_rate() {
        // 2 flops/cycle at 170ns => 11.76 MFLOPS: the CE peak quoted in the paper.
        let rate = mflops(2_000_000, 1_000_000, CEDAR_CYCLE_NS);
        assert!((rate - 11.76).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn mflops_zero_elapsed_is_zero() {
        assert_eq!(mflops(100, 0, CEDAR_CYCLE_NS), 0.0);
    }
}
