//! Simulation time and data rates.
//!
//! Time is an integer number of **picoseconds** stored in a `u64`. That
//! gives sub-nanosecond resolution (needed because a byte at 2.4 GiB/s
//! takes ~0.39 ns) while still covering more than two months of
//! simulated time, far beyond any experiment here. Using integers keeps
//! every run exactly reproducible: there is no accumulation of floating
//! point rounding in the event queue.

use serde::Serialize;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time or a duration, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Ps(pub u64);

#[allow(clippy::self_named_constructors)]
impl Ps {
    /// Zero time — the epoch of every simulation.
    pub const ZERO: Ps = Ps(0);
    /// The largest representable time; used as an "infinite" deadline.
    pub const MAX: Ps = Ps(u64::MAX);

    /// `n` picoseconds.
    #[inline]
    pub const fn ps(n: u64) -> Ps {
        Ps(n)
    }
    /// `n` nanoseconds.
    #[inline]
    pub const fn ns(n: u64) -> Ps {
        Ps(n * 1_000)
    }
    /// `n` microseconds.
    #[inline]
    pub const fn us(n: u64) -> Ps {
        Ps(n * 1_000_000)
    }
    /// `n` milliseconds.
    #[inline]
    pub const fn ms(n: u64) -> Ps {
        Ps(n * 1_000_000_000)
    }
    /// `n` seconds.
    #[inline]
    pub const fn secs(n: u64) -> Ps {
        Ps(n * 1_000_000_000_000)
    }

    /// Value in picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Value in (truncated) nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }
    /// Value in fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// Value in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Value in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Ps) -> Ps {
        Ps(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Ps) -> Option<Ps> {
        self.0.checked_add(rhs.0).map(Ps)
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, rhs: Ps) -> Ps {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, rhs: Ps) -> Ps {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// Scale a duration by a dimensionless `f64` factor (used by cost
    /// models that interpolate between calibrated rates). Rounds to the
    /// nearest picosecond; panics on negative factors.
    pub fn scale(self, factor: f64) -> Ps {
        assert!(factor >= 0.0, "cannot scale a duration by {factor}");
        Ps((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Ps {
    type Output = Ps;
    #[inline]
    fn add(self, rhs: Ps) -> Ps {
        Ps(self.0 + rhs.0)
    }
}

impl AddAssign for Ps {
    #[inline]
    fn add_assign(&mut self, rhs: Ps) {
        self.0 += rhs.0;
    }
}

impl Sub for Ps {
    type Output = Ps;
    #[inline]
    fn sub(self, rhs: Ps) -> Ps {
        Ps(self.0 - rhs.0)
    }
}

impl SubAssign for Ps {
    #[inline]
    fn sub_assign(&mut self, rhs: Ps) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ps {
    type Output = Ps;
    #[inline]
    fn mul(self, rhs: u64) -> Ps {
        Ps(self.0 * rhs)
    }
}

impl Div<u64> for Ps {
    type Output = Ps;
    #[inline]
    fn div(self, rhs: u64) -> Ps {
        Ps(self.0 / rhs)
    }
}

impl Sum for Ps {
    fn sum<I: Iterator<Item = Ps>>(iter: I) -> Ps {
        iter.fold(Ps::ZERO, Add::add)
    }
}

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", ps as f64 / 1e12)
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// A data rate in bytes per second.
///
/// All conversions between byte counts and durations go through 128-bit
/// integer arithmetic so that the result is exact to the picosecond and
/// identical on every platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct Rate {
    bytes_per_sec: u64,
}

impl Rate {
    /// A rate of `n` bytes per second. Zero rates are rejected — they
    /// would make durations infinite.
    pub fn bytes_per_sec(n: u64) -> Rate {
        assert!(n > 0, "a Rate must be positive");
        Rate { bytes_per_sec: n }
    }

    /// A rate of `n` mebibytes (2^20 bytes) per second.
    pub fn mib_per_sec(n: u64) -> Rate {
        Rate::bytes_per_sec(n * (1 << 20))
    }

    /// A rate of `n` gibibytes (2^30 bytes) per second.
    pub fn gib_per_sec(n: u64) -> Rate {
        Rate::bytes_per_sec(n * (1 << 30))
    }

    /// A rate given in fractional GiB/s (convenience for calibration
    /// constants quoted like "1.6 GiB/s" in the paper).
    pub fn gib_per_sec_f64(n: f64) -> Rate {
        assert!(n > 0.0);
        Rate::bytes_per_sec((n * (1u64 << 30) as f64).round() as u64)
    }

    /// A rate given in megabits per second (used for the 9953 Mbit/s
    /// effective 10 GbE data rate the paper quotes).
    pub fn mbit_per_sec(n: u64) -> Rate {
        Rate::bytes_per_sec(n * 1_000_000 / 8)
    }

    /// Raw value in bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> u64 {
        self.bytes_per_sec
    }

    /// Value in fractional MiB/s (for reporting).
    #[inline]
    pub fn as_mib_per_sec(self) -> f64 {
        self.bytes_per_sec as f64 / (1u64 << 20) as f64
    }

    /// Exact time to move `bytes` at this rate, rounded up to the next
    /// picosecond (rounding up keeps a server conservative: it can never
    /// finish "early" and violate causality elsewhere).
    #[inline]
    pub fn time_for(self, bytes: u64) -> Ps {
        let num = bytes as u128 * 1_000_000_000_000u128;
        let den = self.bytes_per_sec as u128;
        Ps(num.div_ceil(den) as u64)
    }

    /// The rate that moves `bytes` in `elapsed` (for reporting measured
    /// throughput). Returns `None` when `elapsed` is zero.
    pub fn from_transfer(bytes: u64, elapsed: Ps) -> Option<Rate> {
        if elapsed == Ps::ZERO {
            return None;
        }
        let bps = bytes as u128 * 1_000_000_000_000u128 / elapsed.0 as u128;
        if bps == 0 {
            // Slower than one byte per second: clamp to the minimum
            // representable positive rate.
            return Some(Rate::bytes_per_sec(1));
        }
        Some(Rate::bytes_per_sec(bps.min(u64::MAX as u128) as u64))
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MiB/s", self.as_mib_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_convert_units() {
        assert_eq!(Ps::ns(1), Ps(1_000));
        assert_eq!(Ps::us(3), Ps(3_000_000));
        assert_eq!(Ps::ms(2), Ps(2_000_000_000));
        assert_eq!(Ps::secs(1), Ps(1_000_000_000_000));
        assert_eq!(Ps::secs(1).as_ns(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Ps::ns(10);
        let b = Ps::ns(4);
        assert_eq!(a + b, Ps::ns(14));
        assert_eq!(a - b, Ps::ns(6));
        assert_eq!(b.saturating_sub(a), Ps::ZERO);
        assert_eq!(a * 3, Ps::ns(30));
        assert_eq!(a / 2, Ps::ns(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Ps::ps(12)), "12ps");
        assert_eq!(format!("{}", Ps::ns(350)), "350.000ns");
        assert_eq!(format!("{}", Ps::us(5)), "5.000us");
        assert_eq!(format!("{}", Ps::secs(2)), "2.000s");
    }

    #[test]
    fn rate_time_for_is_exact() {
        // 1 GiB/s moves 1 GiB in exactly one second.
        let r = Rate::gib_per_sec(1);
        assert_eq!(r.time_for(1 << 30), Ps::secs(1));
        // One byte takes ceil(1e12 / 2^30) ps.
        assert_eq!(r.time_for(1), Ps(932));
        // Zero bytes take zero time.
        assert_eq!(r.time_for(0), Ps::ZERO);
    }

    #[test]
    fn rate_round_trips_through_transfer() {
        let r = Rate::mib_per_sec(800);
        let t = r.time_for(64 << 20);
        let back = Rate::from_transfer(64 << 20, t).unwrap();
        // Round-up in time_for makes the recovered rate at most the
        // original and very close to it.
        assert!(back <= r);
        assert!(back.as_mib_per_sec() > 799.9);
    }

    #[test]
    fn rate_mbit_matches_paper_line_rate() {
        // The paper: 9953 Mbit/s = 1244 MB/s ≈ 1186 MiB/s.
        let r = Rate::mbit_per_sec(9953);
        assert_eq!(r.as_bytes_per_sec(), 1_244_125_000);
        let mib = r.as_mib_per_sec();
        assert!((mib - 1186.5).abs() < 1.0, "got {mib}");
    }

    #[test]
    fn scale_rounds_to_nearest() {
        assert_eq!(Ps::ns(100).scale(0.5), Ps::ns(50));
        assert_eq!(Ps::ps(3).scale(0.5), Ps::ps(2)); // 1.5 rounds to 2
        assert_eq!(Ps::ns(1).scale(0.0), Ps::ZERO);
    }

    #[test]
    #[should_panic]
    fn negative_scale_panics() {
        let _ = Ps::ns(1).scale(-1.0);
    }

    #[test]
    fn from_transfer_handles_edges() {
        assert!(Rate::from_transfer(10, Ps::ZERO).is_none());
        // Sub-byte-per-second transfers clamp to 1 B/s.
        let r = Rate::from_transfer(1, Ps::secs(1_000)).unwrap();
        assert_eq!(r.as_bytes_per_sec(), 1);
    }

    #[test]
    fn sum_of_durations() {
        let total: Ps = [Ps::ns(1), Ps::ns(2), Ps::ns(3)].into_iter().sum();
        assert_eq!(total, Ps::ns(6));
    }
}
