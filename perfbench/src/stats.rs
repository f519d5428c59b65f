//! Order statistics used by every metric the benchmark reports.
//!
//! * [`median`] and [`quartiles`] follow Python's
//!   `statistics.median` / `statistics.quantiles(values, n=4)` (the
//!   default "exclusive" method), so a spread computed here agrees with
//!   one computed over the printed values by a Python script.
//! * [`tail`] applies the reporting rule for latency tails: report the
//!   highest percentile, at most p99, that still has at least ten samples
//!   beyond it, and say which percentile and how many samples it rests on.

/// Samples beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Highest tail percentile ever reported.
pub const TAIL_CAP: f64 = 99.0;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by Python's exclusive method; `None` with
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len() as i64;
    if ld < 2 {
        return None;
    }
    let (n, m) = (4i64, ld + 1);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (v[(j - 1) as usize] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the spread measure a
/// metric's bound is compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of non-empty `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// The highest percentile (capped at [`TAIL_CAP`]) with at least
/// [`TAIL_BEYOND`] samples strictly beyond its nearest rank, for `n`
/// samples; `None` when `n` is too small for any percentile ≥ p50.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    let p = (100.0 * (n - TAIL_BEYOND) as f64 / n as f64)
        .floor()
        .min(TAIL_CAP);
    Some(p)
}

/// A reported latency tail: which percentile, over how many samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported; `None` means the sample count supports no
    /// tail and `value` is the maximum instead.
    pub percentile: Option<f64>,
    /// The value at that percentile (the maximum when `percentile` is
    /// `None`).
    pub value: f64,
    /// Samples the figure rests on.
    pub n: usize,
}

impl Tail {
    /// How the figure was derived, for the printed report.
    pub fn describe(&self) -> String {
        match self.percentile {
            Some(p) => format!("p{p} of n={}", self.n),
            None => format!("max of n={} (too few samples for a tail)", self.n),
        }
    }
}

/// The tail of `values` by the reporting rule; `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let n = values.len();
    let p = tail_percentile(n);
    let value = match p {
        Some(p) => percentile(values, p)?,
        None => sorted(values)[n - 1],
    };
    Some(Tail {
        percentile: p,
        value,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(50), Some(80.0));
        assert_eq!(tail_percentile(101), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.0));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_BEYOND, "n={n} p={p}");
            // One percent higher would leave fewer than ten beyond it
            // (unless the cap stopped us).
            if p < TAIL_CAP {
                let higher = (((p + 1.0) / 100.0) * n as f64).ceil() as usize;
                assert!(n - higher < TAIL_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_falls_back_to_max_and_says_so() {
        let t = tail(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(t.percentile, None);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.n, 3);
        assert!(t.describe().contains("max of n=3"));
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, Some(80.0));
        assert_eq!(t.value, 40.0);
        assert_eq!(t.describe(), "p80 of n=50");
        assert_eq!(tail(&[]), None);
    }
}
