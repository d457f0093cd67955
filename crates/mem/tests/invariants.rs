//! The memory substrate's core invariants over random inputs drawn from a
//! seeded `swiftsim-rng` stream: reproducible, and run in every build.

use std::collections::HashSet;
use swiftsim_config::{presets, ReplacementPolicy};
use swiftsim_mem::{
    coalesce_accesses, AccessOutcome, AddressMapping, MemTxn, ReuseDistanceAnalyzer, SectorCache,
};
use swiftsim_rng::SmallRng;

/// Random inputs per property.
const CASES: u64 = 128;

fn mapping() -> AddressMapping {
    AddressMapping::new(&presets::rtx2080ti().sm.l1d)
}

/// `len` values in `0..bound`, `len` drawn from `lens`.
fn random_vec(rng: &mut SmallRng, bound: u64, lens: std::ops::Range<usize>) -> Vec<u64> {
    (0..rng.gen_range(lens))
        .map(|_| rng.gen_range(0..bound))
        .collect()
}

/// Coalescing never produces more transactions than lanes (plus line
/// spills), covers every lane's address, and merges duplicates.
#[test]
fn coalescer_covers_all_lanes() {
    let m = mapping();
    let mut rng = SmallRng::seed_from_u64(0x3e30_0001);
    for case in 0..CASES {
        let addrs = random_vec(&mut rng, 1 << 30, 1..32);
        let width = [1u8, 2, 4, 8, 16][rng.gen_range(0usize..5)];
        let txns = coalesce_accesses(&m, &addrs, width, false);
        // Bounded: at most 2 txns per lane (line-crossing access).
        assert!(txns.len() <= addrs.len() * 2, "case {case}");
        // Every lane's first byte is covered by some transaction sector.
        for &a in &addrs {
            let line = m.line_addr(a);
            let sector_bit = 1u8 << m.sector_index(a);
            assert!(
                txns.iter()
                    .any(|t| t.line_addr == line && t.sector_mask & sector_bit != 0),
                "case {case}: address {a:#x} not covered"
            );
        }
        // Line addresses are unique and sorted.
        assert!(
            txns.windows(2).all(|w| w[0].line_addr < w[1].line_addr),
            "case {case}"
        );
    }
}

/// For every replacement policy: after access+fill, re-access of the same
/// sectors hits, and hit/miss counters are conserved.
#[test]
fn cache_conservation() {
    let mut rng = SmallRng::seed_from_u64(0x3e30_0002);
    for case in 0..CASES {
        let lines = random_vec(&mut rng, 64, 1..100);
        let policy = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ][rng.gen_range(0usize..3)];
        let mut cfg = presets::rtx2080ti().sm.l1d;
        cfg.sets = 4;
        cfg.ways = 2;
        cfg.replacement = policy;
        let mut cache = SectorCache::new(&cfg, 42);
        let ctx = format!("case {case}, {policy:?}");

        let mut now = 0u64;
        let mut waiter = 0u64;
        for &l in &lines {
            let txn = MemTxn {
                line_addr: l * 128,
                sector_mask: 0b0001,
                write: false,
            };
            now += 10;
            waiter += 1;
            match cache.access(txn, waiter, now) {
                AccessOutcome::Miss { fetch, .. } => {
                    // Fill immediately; the line must then be present.
                    now += 100;
                    let fill = cache.fill(fetch.line_addr, now);
                    assert!(fill.waiters.contains(&waiter), "{ctx}");
                }
                AccessOutcome::Hit { ready_at, .. } => assert!(ready_at >= now, "{ctx}"),
                other => panic!("{ctx}: no overlapping misses or stores here, got {other:?}"),
            }
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, lines.len() as u64, "{ctx}");
        assert_eq!(s.fills, s.misses, "{ctx}");
        assert!((0.0..=1.0).contains(&s.miss_rate()), "{ctx}");
    }
}

/// Reuse-distance invariants: cold count equals distinct lines, hit rate
/// is monotone in capacity, and a cache big enough for everything
/// captures every non-cold access.
#[test]
fn reuse_distance_invariants() {
    let mut rng = SmallRng::seed_from_u64(0x3e30_0003);
    for case in 0..CASES {
        let lines = random_vec(&mut rng, 32, 1..200);
        let mut rd = ReuseDistanceAnalyzer::new();
        for &l in &lines {
            if let Some(d) = rd.record(l) {
                // Distance is bounded by the number of distinct lines.
                assert!(d < 32, "case {case}: distance {d}");
            }
        }
        let distinct = lines.iter().collect::<HashSet<_>>().len() as u64;
        assert_eq!(rd.cold_misses(), distinct, "case {case}");
        assert_eq!(rd.accesses(), lines.len() as u64, "case {case}");

        let mut prev = 0.0;
        for cap in [1u64, 2, 4, 8, 16, 32, 64] {
            let r = rd.hit_rate(cap);
            assert!(r >= prev - 1e-12, "case {case}: hit rate not monotone");
            prev = r;
        }
        let expected = (lines.len() as u64 - distinct) as f64 / lines.len() as f64;
        assert!((rd.hit_rate(64) - expected).abs() < 1e-9, "case {case}");
    }
}
