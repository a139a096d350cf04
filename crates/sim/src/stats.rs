//! Measurement helpers: busy-time meters, (x, y) series and summary
//! statistics used by the figure regenerators.

use crate::time::Ps;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Integrates busy time per named category over a simulation run.
///
/// This is the accounting behind the paper's Figure 9: user-library,
/// driver-command and bottom-half CPU time on the receiving host are
/// each a category, and utilization is the integral divided by the
/// experiment duration.
///
/// A meter holds a handful of categories (at most five in the
/// simulation), so it keeps one row per category in a small vector
/// sorted by name. [`BusyMeter::charge`], which runs for every CPU
/// charge, finds its row by comparing string addresses first (callers
/// pass the same `&'static str` constants) and by content only when
/// that fails.
#[derive(Debug, Clone, Default)]
pub struct BusyMeter {
    /// `(category, busy)` rows in category-name order.
    rows: Vec<(&'static str, Ps)>,
}

impl BusyMeter {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `amount` of busy time to `category`.
    pub fn charge(&mut self, category: &'static str, amount: Ps) {
        if let Some(row) = self.rows.iter_mut().find(|r| std::ptr::eq(r.0, category)) {
            row.1 += amount;
            return;
        }
        match self.rows.binary_search_by(|r| r.0.cmp(category)) {
            Ok(i) => self.rows[i].1 += amount,
            Err(i) => self.rows.insert(i, (category, amount)),
        }
    }

    /// Total charged to one category.
    pub fn total(&self, category: &str) -> Ps {
        self.rows
            .iter()
            .find(|r| r.0 == category)
            .map_or(Ps::ZERO, |r| r.1)
    }

    /// Total across all categories.
    pub fn grand_total(&self) -> Ps {
        self.rows.iter().map(|r| r.1).sum()
    }

    /// Utilization of one category over `[0, horizon]`, in `[0, 1]`.
    pub fn utilization(&self, category: &str, horizon: Ps) -> f64 {
        if horizon == Ps::ZERO {
            return 0.0;
        }
        self.total(category).as_ps() as f64 / horizon.as_ps() as f64
    }

    /// Iterate `(category, busy)` pairs in category order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Ps)> + '_ {
        self.rows.iter().copied()
    }

    /// Fold another meter into this one (used when merging per-core
    /// meters into a host-wide view).
    pub fn merge(&mut self, other: &BusyMeter) {
        for (k, v) in other.iter() {
            self.charge(k, v);
        }
    }

    /// Reset all categories to zero.
    pub fn reset(&mut self) {
        self.rows.clear();
    }
}

/// One point of a figure series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// X value (message size in bytes for most figures).
    pub x: f64,
    /// Y value (MiB/s, percent CPU, ... depending on the figure).
    pub y: f64,
}

/// A named (x, y) series, e.g. one curve of one paper figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    /// Curve label as it appears in the figure legend.
    pub name: String,
    /// Points in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// An empty series with the given legend label.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point. Callers append in x order; this is asserted so
    /// figure output is always sorted.
    pub fn push(&mut self, x: f64, y: f64) {
        if let Some(last) = self.points.last() {
            assert!(
                x >= last.x,
                "series '{}' points must be x-sorted",
                self.name
            );
        }
        self.points.push(Point { x, y });
    }

    /// Y value at exactly `x`, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y)
    }

    /// Maximum y value in the series (None when empty).
    pub fn y_max(&self) -> Option<f64> {
        self.points.iter().map(|p| p.y).fold(None, |acc, y| {
            Some(acc.map_or(y, |m: f64| if y > m { y } else { m }))
        })
    }

    /// Render a set of series that share x values as an aligned text
    /// table, one row per x — the exact format the `fig*` binaries print.
    pub fn table(series: &[Series], x_label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:>12}", x_label));
        for s in series {
            out.push_str(&format!(" {:>28}", s.name));
        }
        out.push('\n');
        let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
        for i in 0..rows {
            let x = series
                .iter()
                .find_map(|s| s.points.get(i))
                .map(|p| p.x)
                .unwrap_or(f64::NAN);
            out.push_str(&format!("{:>12}", format_bytes(x)));
            for s in series {
                match s.points.get(i) {
                    Some(p) => out.push_str(&format!(" {:>28.1}", p.y)),
                    None => out.push_str(&format!(" {:>28}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Format a byte count the way the paper's axes do: 16B, 4kB, 1MB.
pub fn format_bytes(bytes: f64) -> String {
    if !bytes.is_finite() {
        return "-".into();
    }
    let b = bytes as u64;
    if b >= 1 << 20 && b.is_multiple_of(1 << 20) {
        format!("{}MB", b >> 20)
    } else if b >= 1 << 10 && b.is_multiple_of(1 << 10) {
        format!("{}kB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// Summary statistics over a sample of durations (per-iteration times of
/// a ping-pong, for instance).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Minimum, in picoseconds.
    pub min: Ps,
    /// Maximum, in picoseconds.
    pub max: Ps,
    /// Mean, in picoseconds.
    pub mean: Ps,
    /// Median, in picoseconds.
    pub median: Ps,
}

impl Summary {
    /// Summarize a non-empty sample. Returns `None` on an empty slice.
    pub fn of(samples: &[Ps]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<Ps> = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let sum: u128 = sorted.iter().map(|p| p.as_ps() as u128).sum();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            Ps(((sorted[n / 2 - 1].as_ps() as u128 + sorted[n / 2].as_ps() as u128) / 2) as u64)
        };
        Some(Summary {
            n,
            min: sorted[0],
            max: sorted[n - 1],
            mean: Ps((sum / n as u128) as u64),
            median,
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} median={} mean={} max={}",
            self.n, self.min, self.median, self.mean, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_meter_accumulates_and_merges() {
        let mut m = BusyMeter::new();
        m.charge("bh", Ps::ns(100));
        m.charge("bh", Ps::ns(50));
        m.charge("driver", Ps::ns(25));
        assert_eq!(m.total("bh"), Ps::ns(150));
        assert_eq!(m.total("missing"), Ps::ZERO);
        assert_eq!(m.grand_total(), Ps::ns(175));

        let mut other = BusyMeter::new();
        other.charge("bh", Ps::ns(10));
        other.charge("user", Ps::ns(5));
        m.merge(&other);
        assert_eq!(m.total("bh"), Ps::ns(160));
        assert_eq!(m.total("user"), Ps::ns(5));
    }

    #[test]
    fn busy_meter_utilization() {
        let mut m = BusyMeter::new();
        m.charge("bh", Ps::ns(250));
        assert!((m.utilization("bh", Ps::ns(1000)) - 0.25).abs() < 1e-12);
        assert_eq!(m.utilization("bh", Ps::ZERO), 0.0);
        m.reset();
        assert_eq!(m.grand_total(), Ps::ZERO);
    }

    #[test]
    fn busy_meter_iterates_in_name_order() {
        let mut m = BusyMeter::new();
        for (cat, ns) in [("user", 1), ("bh", 2), ("driver", 3), ("app", 4), ("bh", 5)] {
            m.charge(cat, Ps::ns(ns));
        }
        let rows: Vec<(&str, Ps)> = m.iter().collect();
        assert_eq!(
            rows,
            [
                ("app", Ps::ns(4)),
                ("bh", Ps::ns(7)),
                ("driver", Ps::ns(3)),
                ("user", Ps::ns(1)),
            ]
        );
    }

    /// A category name stored at another address still charges the row
    /// of the equal name: the address is only the fast path.
    #[test]
    fn busy_meter_matches_categories_by_content() {
        let mut m = BusyMeter::new();
        m.charge("bh", Ps::ns(10));
        let copy: &'static str = String::from("bh").leak();
        assert!(!std::ptr::eq(copy, "bh"));
        m.charge(copy, Ps::ns(5));
        m.charge("bh", Ps::ns(1));
        assert_eq!(m.iter().count(), 1);
        assert_eq!(m.total("bh"), Ps::ns(16));
        assert_eq!(m.total(copy), Ps::ns(16));
    }

    #[test]
    fn series_accumulates_sorted_points() {
        let mut s = Series::new("MX");
        s.push(16.0, 10.0);
        s.push(256.0, 100.0);
        s.push(4096.0, 900.0);
        assert_eq!(s.y_at(256.0), Some(100.0));
        assert_eq!(s.y_at(1.0), None);
        assert_eq!(s.y_max(), Some(900.0));
    }

    #[test]
    #[should_panic(expected = "x-sorted")]
    fn series_rejects_unsorted_points() {
        let mut s = Series::new("bad");
        s.push(100.0, 1.0);
        s.push(50.0, 2.0);
    }

    #[test]
    fn table_renders_aligned_rows() {
        let mut a = Series::new("A");
        a.push(1024.0, 1.0);
        a.push(2048.0, 2.0);
        let mut b = Series::new("B");
        b.push(1024.0, 3.0);
        b.push(2048.0, 4.0);
        let t = Series::table(&[a, b], "size");
        assert!(t.contains("1kB"));
        assert!(t.contains("2kB"));
        assert!(t.lines().count() == 3);
    }

    #[test]
    fn format_bytes_matches_paper_axis_style() {
        assert_eq!(format_bytes(16.0), "16B");
        assert_eq!(format_bytes(4096.0), "4kB");
        assert_eq!(format_bytes((1 << 20) as f64), "1MB");
        assert_eq!(format_bytes((16 << 20) as f64), "16MB");
        assert_eq!(format_bytes(1500.0), "1500B");
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[Ps::ns(10), Ps::ns(30), Ps::ns(20)]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.min, Ps::ns(10));
        assert_eq!(s.max, Ps::ns(30));
        assert_eq!(s.mean, Ps::ns(20));
        assert_eq!(s.median, Ps::ns(20));
        // Even count takes the midpoint of the central pair.
        let s = Summary::of(&[Ps::ns(10), Ps::ns(20), Ps::ns(30), Ps::ns(40)]).unwrap();
        assert_eq!(s.median, Ps::ns(25));
        assert!(Summary::of(&[]).is_none());
    }
}
