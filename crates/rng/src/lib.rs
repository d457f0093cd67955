//! Self-contained deterministic pseudo-randomness for Swift-Sim.
//!
//! The workspace must build in fully offline environments, so the external
//! `rand` crate is replaced by this minimal xoshiro256++ implementation.
//! Only the tiny API surface the simulator actually uses is provided:
//! seeding from a `u64`, uniform ranges, and Bernoulli draws. Simulation
//! code treats randomness as a *deterministic function of the seed* — trace
//! generators and the Random replacement policy must reproduce bit-identical
//! runs — so the generator is fixed forever; changing it would invalidate
//! every committed experiment number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

/// One round of splitmix64, used to expand a 64-bit seed into the full
/// 256-bit xoshiro state (the seeding scheme recommended by the xoshiro
/// authors, and the one `rand`'s `SmallRng::seed_from_u64` uses).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small, fast, deterministic PRNG (xoshiro256++).
///
/// Drop-in replacement for the subset of `rand::rngs::SmallRng` that
/// Swift-Sim uses. Not cryptographically secure — simulator-internal use
/// only.
///
/// # Examples
///
/// ```
/// use swiftsim_rng::SmallRng;
///
/// let mut a = SmallRng::seed_from_u64(7);
/// let mut b = SmallRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.gen_range(0u64..10) < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Create a generator whose entire sequence is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw from a half-open integer range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: SampleRange>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53 random mantissa bits give a uniform f64 in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform draw over `0..bound` without modulo bias (rejection on the
    /// short final interval).
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "cannot sample from an empty range");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }
}

/// Integer types [`SmallRng::gen_range`] can sample.
pub trait SampleRange: Sized {
    /// Uniform draw from `range`; panics if it is empty.
    fn sample(rng: &mut SmallRng, range: std::ops::Range<Self>) -> Self;
}

impl SampleRange for u64 {
    fn sample(rng: &mut SmallRng, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample from an empty range");
        range.start + rng.bounded_u64(range.end - range.start)
    }
}

impl SampleRange for usize {
    fn sample(rng: &mut SmallRng, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample from an empty range");
        range.start + rng.bounded_u64((range.end - range.start) as u64) as usize
    }
}

impl SampleRange for u32 {
    fn sample(rng: &mut SmallRng, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample from an empty range");
        range.start + rng.bounded_u64(u64::from(range.end - range.start)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(5u64..17);
            assert!((5..17).contains(&v));
            let u = rng.gen_range(0usize..3);
            assert!(u < 3);
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!(
            (2000..3000).contains(&hits),
            "{hits} hits of 10000 at p=0.25"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SmallRng::seed_from_u64(0).gen_range(3u64..3);
    }
}
