//! Mergeable log-bucketed histograms and atomic gauges.
//!
//! The serve daemon and campaign executor record latency distributions
//! (queue wait, dispatch, decode, simulate, merge) into [`Histogram`]s and
//! instantaneous levels (queue depth, connected workers) into [`Gauge`]s.
//! Both join [`CounterSet`](crate::CounterSet) as the building blocks of the
//! observability [`Registry`](crate::Registry).
//!
//! # Bucketing scheme
//!
//! Buckets are log-linear, HdrHistogram-style with 3 significant bits:
//! values below 8 get an exact bucket each, and every octave `[2^o, 2^(o+1))`
//! above that is split into 8 equal-width sub-buckets. A recorded value is
//! therefore never mis-bucketed by more than 1/8 of its own magnitude, which
//! bounds quantile estimates to at most +12.5% relative error (estimates
//! never under-report; see [`Histogram::quantile`]). The full `u64` range
//! maps to at most 496 buckets, so two histograms recorded anywhere —
//! different workers, different processes — always share the same geometry
//! and [`Histogram::merge`] is exact elementwise addition.

/// Number of significant bits: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (and the count of exact single-value buckets).
const SUBS: u64 = 1 << SUB_BITS;

/// Bucket index for a value. Total ordering of values is preserved.
fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros();
        let sub = (v >> (octave - SUB_BITS)) & (SUBS - 1);
        (SUBS as u32 + (octave - SUB_BITS) * SUBS as u32 + sub as u32) as usize
    }
}

/// Inclusive `(lo, hi)` value range covered by a bucket index.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUBS as usize {
        (idx as u64, idx as u64)
    } else {
        let octave = ((idx - SUBS as usize) / SUBS as usize) as u32 + SUB_BITS;
        let sub = ((idx - SUBS as usize) % SUBS as usize) as u64;
        let width = 1u64 << (octave - SUB_BITS);
        let lo = (1u64 << octave) + sub * width;
        (lo, lo + (width - 1))
    }
}

/// A mergeable log-bucketed histogram of `u64` samples.
///
/// Recording is O(1); memory grows lazily with the largest observed value
/// (at most 496 buckets over the full `u64` range). All histograms share one
/// fixed bucket geometry, so [`merge`](Histogram::merge) is exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts, grown to the highest used index.
    counts: Vec<u64>,
    /// Total number of recorded samples.
    count: u64,
    /// Saturating sum of all samples.
    sum: u64,
    /// Smallest recorded sample (meaningless when `count == 0`).
    min: u64,
    /// Largest recorded sample (meaningless when `count == 0`).
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all recorded samples.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] = self.counts[idx].saturating_add(n);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
    }

    /// Merge another histogram into this one.
    ///
    /// Exact: buckets share one global geometry, so merging is elementwise
    /// addition and is associative and commutative up to saturation.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`).
    ///
    /// Returns the upper bound of the bucket holding the nearest-rank
    /// sample, clamped to the observed `[min, max]`. The estimate never
    /// under-reports the true quantile and over-reports by at most 12.5%
    /// (one sub-bucket width of the bucketing scheme).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64)
            .max(1)
            .min(self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                let (_, hi) = bucket_bounds(idx);
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(upper_bound_inclusive, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (bucket_bounds(idx).1, n))
    }
}

/// A shared instantaneous level (queue depth, connected workers, ...).
///
/// Clones share the underlying value, like [`CounterSet`](crate::CounterSet).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: std::sync::Arc<std::sync::atomic::AtomicI64>,
}

impl Gauge {
    /// A new gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the gauge to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, std::sync::atomic::Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value
            .fetch_add(delta, std::sync::atomic::Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bounds_cover_the_full_range_without_gaps() {
        // Consecutive buckets tile the u64 range exactly.
        let mut expected_lo = 0u64;
        for idx in 0..bucket_index(u64::MAX) + 1 {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expected_lo, "gap before bucket {idx}");
            assert!(hi >= lo);
            if hi == u64::MAX {
                assert_eq!(idx, bucket_index(u64::MAX));
                return;
            }
            expected_lo = hi + 1;
        }
        panic!("buckets never reached u64::MAX");
    }

    #[test]
    fn index_matches_bounds() {
        for &v in &[
            0,
            1,
            7,
            8,
            9,
            15,
            16,
            100,
            1000,
            1 << 20,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= v && v <= hi,
                "value {v} outside bucket {idx} [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn bucket_error_is_bounded() {
        // The bucket upper bound over-reports by at most 1/8.
        for &v in &[8, 100, 12345, 1 << 30, (1 << 62) + 12345] {
            let (_, hi) = bucket_bounds(bucket_index(v));
            assert!((hi as f64) <= v as f64 * 1.125, "value {v} -> bound {hi}");
        }
    }

    #[test]
    fn gauge_clones_share_state() {
        let g = Gauge::new();
        let g2 = g.clone();
        g.set(5);
        g2.add(-2);
        assert_eq!(g.get(), 3);
    }
}
