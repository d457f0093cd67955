//! Order statistics over timing samples.

use swiftsim_metrics::Json;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so the spread printed here is the
/// one an outside checker computes. Fewer than two values have no spread:
/// both quartiles are then the single value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`p` in 0..=1) of the values; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond it,
/// capped at p99; `None` with fewer than twenty samples, where no tail
/// percentile is worth printing.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n >= 20).then(|| (1.0 - 10.0 / n as f64).min(0.99))
}

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// All zero for no values.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        let first = values.first().copied().unwrap_or(0.0);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(first, f64::min),
            max: values.iter().copied().fold(first, f64::max),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::obj(vec![
            ("value", Json::Num(self.median)),
            ("unit", Json::str(unit)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("n", Json::int(self.n as u64)),
        ])
    }

    /// Rebuild from [`Summary::to_json`] output; missing quartiles fall
    /// back to the value itself (a metric recorded as a single number).
    pub fn from_json(json: &Json) -> Option<Summary> {
        let median = json.get("value")?.as_f64()?;
        let field = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(median);
        Some(Summary {
            n: json.get("n").and_then(Json::as_u64).unwrap_or(1) as usize,
            median,
            q1: field("q1"),
            q3: field("q3"),
            min: field("min"),
            max: field("max"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[4.0, 2.0], 0.0), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(5000), Some(0.99));
    }

    #[test]
    fn summary_spread_and_round_trip() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (5, 3.0, 1.0, 5.0));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::from_json(&s.to_json("s")), Some(s));
        assert_eq!(Summary::of(&[]).max, 0.0);
        let bare = Json::obj(vec![("value", Json::Num(2.5))]);
        assert_eq!(Summary::from_json(&bare).map(|s| s.spread()), Some(0.0));
    }
}
