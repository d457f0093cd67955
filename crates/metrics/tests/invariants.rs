//! The Metrics Gatherer's aggregation helpers over random inputs drawn from
//! a seeded `swiftsim-rng` stream: reproducible, and run in every build.

use swiftsim_metrics::{geomean, mean, mean_abs, rel_error, MetricsCollector, Value};
use swiftsim_rng::SmallRng;

/// Random inputs per property.
const CASES: u64 = 128;

/// A uniform draw from `lo..hi`.
fn uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    // 53 random mantissa bits give a uniform f64 in [0, 1).
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

/// `len` values from `lo..hi`, `len` drawn from `lens`.
fn uniform_vec(rng: &mut SmallRng, lo: f64, hi: f64, lens: std::ops::Range<usize>) -> Vec<f64> {
    (0..rng.gen_range(lens))
        .map(|_| uniform(rng, lo, hi))
        .collect()
}

/// `len` counts below `bound`, `len` drawn from `lens`.
fn count_vec(rng: &mut SmallRng, bound: u64, lens: std::ops::Range<usize>) -> Vec<u64> {
    (0..rng.gen_range(lens))
        .map(|_| rng.gen_range(0..bound))
        .collect()
}

/// The geometric mean of positive values lies between min and max and
/// never exceeds the arithmetic mean (AM–GM).
#[test]
fn geomean_between_min_and_max() {
    let mut rng = SmallRng::seed_from_u64(0x3e7c_0001);
    for case in 0..CASES {
        let values = uniform_vec(&mut rng, 0.01, 1e6, 1..40);
        let g = geomean(&values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(0.0f64, f64::max);
        assert!(g >= min * (1.0 - 1e-9), "case {case}: {g} < {min}");
        assert!(g <= max * (1.0 + 1e-9), "case {case}: {g} > {max}");
        assert!(g <= mean(&values) * (1.0 + 1e-9), "case {case}");
    }
}

/// Scaling every value scales the geometric mean by the same factor.
#[test]
fn geomean_is_homogeneous() {
    let mut rng = SmallRng::seed_from_u64(0x3e7c_0002);
    for case in 0..CASES {
        let values = uniform_vec(&mut rng, 0.01, 1e4, 1..20);
        let k = uniform(&mut rng, 0.1, 100.0);
        let scaled: Vec<f64> = values.iter().map(|v| v * k).collect();
        let lhs = geomean(&scaled);
        let rhs = geomean(&values) * k;
        assert!((lhs - rhs).abs() <= rhs.abs() * 1e-9, "case {case}");
    }
}

/// Relative error measures the multiplicative distance from the
/// reference, and is zero on the reference itself.
#[test]
fn rel_error_basics() {
    let mut rng = SmallRng::seed_from_u64(0x3e7c_0003);
    for case in 0..CASES {
        let actual = uniform(&mut rng, 1.0, 1e9);
        let delta = uniform(&mut rng, 0.0, 5.0);
        assert!(
            (rel_error(actual * (1.0 + delta), actual) - delta).abs() < 1e-6,
            "case {case}"
        );
        assert_eq!(rel_error(actual, actual), 0.0, "case {case}");
        assert!(mean_abs(&[-delta, delta]) >= 0.0, "case {case}");
    }
}

/// Accumulating counts in any interleaving yields the total.
#[test]
fn collector_accumulation_is_order_independent() {
    let mut rng = SmallRng::seed_from_u64(0x3e7c_0004);
    for case in 0..CASES {
        let amounts = count_vec(&mut rng, 1000, 1..50);
        let total: u64 = amounts.iter().sum();
        let mut forward = MetricsCollector::new();
        for &a in &amounts {
            forward.add("x", a);
        }
        let mut backward = MetricsCollector::new();
        for &a in amounts.iter().rev() {
            backward.add("x", a);
        }
        assert_eq!(forward.count("x"), Some(total), "case {case}");
        assert_eq!(backward.count("x"), Some(total), "case {case}");
    }
}

/// Absorbing worker collectors preserves every entry under its prefix.
#[test]
fn absorb_preserves_entries() {
    let mut rng = SmallRng::seed_from_u64(0x3e7c_0005);
    for case in 0..CASES {
        let values = count_vec(&mut rng, 1000, 1..20);
        let mut main = MetricsCollector::new();
        for (i, &v) in values.iter().enumerate() {
            let mut worker = MetricsCollector::new();
            worker.set("cycles", Value::Cycles(v));
            main.absorb(&format!("w{i}"), &worker);
        }
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(main.cycles(&format!("w{i}.cycles")), Some(v), "case {case}");
        }
        assert_eq!(main.len(), values.len(), "case {case}");
    }
}
