//! Sectored tag array with pluggable replacement.

use crate::addr::AddressMapping;
use crate::Cycle;
use swiftsim_config::{CacheConfig, ReplacementPolicy};
use swiftsim_rng::SmallRng;

/// State of one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// No data, no reservation.
    Invalid,
    /// Allocated for an in-flight fill (allocate-on-miss caches).
    Reserved,
    /// Holding data; per-sector validity in the entry's sector mask.
    Valid,
}

/// Everything about a line but its tag and its two timestamps.
#[derive(Debug, Clone, Copy)]
struct Flags {
    state: LineState,
    /// Valid sectors (bit per sector).
    valid_mask: u8,
    /// Dirty sectors (write-back caches).
    dirty_mask: u8,
}

impl Flags {
    const INVALID: Flags = Flags {
        state: LineState::Invalid,
        valid_mask: 0,
        dirty_mask: 0,
    };
}

/// Result of probing the tag array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// All requested sectors valid in the named way.
    Hit {
        /// Way within the set.
        way: usize,
    },
    /// Line present (valid or reserved) but at least one requested sector is
    /// not valid — a *sector miss* that still merges into the line.
    SectorMiss {
        /// Way within the set.
        way: usize,
    },
    /// Tag not present.
    LineMiss,
}

/// A victim chosen for eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Way within the set that was reclaimed.
    pub way: usize,
    /// Line-aligned address of the evicted line, if it held data.
    pub evicted_line: Option<u64>,
    /// Dirty-sector mask of the evicted line (write-back caches must write
    /// these sectors out).
    pub dirty_mask: u8,
}

/// Sectored tag array: tags at line granularity, validity and dirtiness at
/// sector granularity, replacement per [`ReplacementPolicy`].
///
/// Lines are stored column-wise, each column in `set * ways + way` order. A
/// lookup compares every tag of a set and reads nothing else of the ways
/// that do not match, so with the tags on their own a 16-way set is two
/// host cache lines to search where whole line records would be eight; a
/// replacement then reads the set's flags and one timestamp column.
#[derive(Debug, Clone)]
pub struct TagArray {
    mapping: AddressMapping,
    ways: usize,
    tags: Vec<u64>,
    flags: Vec<Flags>,
    last_use: Vec<Cycle>,
    alloc_time: Vec<Cycle>,
    replacement: ReplacementPolicy,
    rng: SmallRng,
}

impl TagArray {
    /// Build a tag array for the given cache configuration. `seed` feeds
    /// the Random replacement policy so simulations stay deterministic.
    pub fn new(cfg: &CacheConfig, seed: u64) -> Self {
        let lines = (cfg.sets * cfg.ways) as usize;
        TagArray {
            mapping: AddressMapping::new(cfg),
            ways: cfg.ways as usize,
            tags: vec![0; lines],
            flags: vec![Flags::INVALID; lines],
            last_use: vec![0; lines],
            alloc_time: vec![0; lines],
            replacement: cfg.replacement,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The address mapping shared with the enclosing cache.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Index of way 0 of the set `addr` maps to.
    fn set_base(&self, addr: u64) -> usize {
        self.mapping.set_index(addr) * self.ways
    }

    /// Index of the line holding `addr` (valid or reserved), if any.
    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let line_addr = self.mapping.line_addr(addr);
        let base = self.set_base(addr);
        self.tags[base..base + self.ways]
            .iter()
            .zip(&self.flags[base..base + self.ways])
            .position(|(&tag, flags)| tag == line_addr && flags.state != LineState::Invalid)
            .map(|way| base + way)
    }

    fn covers(flags: Flags, sector_mask: u8) -> bool {
        flags.state == LineState::Valid && flags.valid_mask & sector_mask == sector_mask
    }

    /// Probe for `addr` requesting `sector_mask` sectors; updates LRU on
    /// hits.
    pub fn probe(&mut self, addr: u64, sector_mask: u8, now: Cycle) -> Probe {
        let probe = self.probe_silent(addr, sector_mask);
        if let Probe::Hit { way } | Probe::SectorMiss { way } = probe {
            let base = self.set_base(addr);
            self.last_use[base + way] = now;
        }
        probe
    }

    /// Probe without touching replacement state (for functional inspection).
    pub fn probe_silent(&self, addr: u64, sector_mask: u8) -> Probe {
        match self.find(addr) {
            Some(idx) => {
                let way = idx - self.set_base(addr);
                if Self::covers(self.flags[idx], sector_mask) {
                    Probe::Hit { way }
                } else {
                    Probe::SectorMiss { way }
                }
            }
            None => Probe::LineMiss,
        }
    }

    /// The way a new line takes in the set starting at `base`: the first
    /// invalid way if there is one, else the policy's victim among the
    /// valid ways — the first minimum of `last_use` (LRU) or `alloc_time`
    /// (FIFO) in way order, or for Random the valid way whose rank among
    /// the valid ways one draw over their number names. Reserved lines are
    /// never victimized, so this is `None` when every way is reserved.
    #[inline]
    fn select_way(&mut self, base: usize) -> Option<usize> {
        let flags = &self.flags[base..base + self.ways];
        if let Some(way) = flags.iter().position(|f| f.state == LineState::Invalid) {
            return Some(way);
        }
        let valid = |way: &usize| flags[*way].state == LineState::Valid;
        match self.replacement {
            ReplacementPolicy::Lru => (0..self.ways)
                .filter(valid)
                .min_by_key(|way| self.last_use[base + way]),
            ReplacementPolicy::Fifo => (0..self.ways)
                .filter(valid)
                .min_by_key(|way| self.alloc_time[base + way]),
            ReplacementPolicy::Random => {
                let valid_ways = (0..self.ways).filter(valid).count();
                if valid_ways == 0 {
                    return None;
                }
                let rank = self.rng.gen_range(0..valid_ways);
                (0..self.ways).filter(valid).nth(rank)
            }
        }
    }

    /// Replace line `idx` by a fresh line for `line_addr`.
    fn install(&mut self, idx: usize, line_addr: u64, flags: Flags, now: Cycle) {
        self.tags[idx] = line_addr;
        self.flags[idx] = flags;
        self.last_use[idx] = now;
        self.alloc_time[idx] = now;
    }

    /// Allocate a way for `addr`, evicting per the replacement policy.
    /// Reserved lines are never victimized (their fills are in flight), so
    /// this returns `None` — a *reservation failure* — when every way in the
    /// set is reserved.
    pub fn allocate(&mut self, addr: u64, reserve: bool, now: Cycle) -> Option<Victim> {
        let line_addr = self.mapping.line_addr(addr);
        let base = self.set_base(addr);
        let way = self.select_way(base)?;
        let old = self.flags[base + way];
        let was_valid = old.state == LineState::Valid;
        let victim = Victim {
            way,
            evicted_line: was_valid.then_some(self.tags[base + way]),
            dirty_mask: if was_valid { old.dirty_mask } else { 0 },
        };
        let state = if reserve {
            LineState::Reserved
        } else {
            LineState::Valid
        };
        self.install(
            base + way,
            line_addr,
            Flags {
                state,
                ..Flags::INVALID
            },
            now,
        );
        Some(victim)
    }

    /// One functional access: whether `sector_mask` of `addr`'s line was
    /// all valid, leaving the array as a [`probe`](Self::probe) followed on
    /// a miss by an unreserved [`allocate`](Self::allocate) (line miss
    /// only) and a [`fill`](Self::fill) of the requested sectors would —
    /// without the three searches of the set or the intermediate results.
    /// This is what a timing-free replay needs; a cache that holds
    /// reservations across cycles uses the three steps.
    ///
    /// A line miss in a set whose every way is reserved allocates nothing.
    pub fn touch(&mut self, addr: u64, sector_mask: u8, now: Cycle) -> bool {
        if let Some(idx) = self.find(addr) {
            self.last_use[idx] = now;
            let flags = &mut self.flags[idx];
            let hit = Self::covers(*flags, sector_mask);
            flags.state = LineState::Valid;
            flags.valid_mask |= sector_mask;
            return hit;
        }
        let base = self.set_base(addr);
        if let Some(way) = self.select_way(base) {
            let flags = Flags {
                state: LineState::Valid,
                valid_mask: sector_mask,
                dirty_mask: 0,
            };
            self.install(base + way, self.mapping.line_addr(addr), flags, now);
        }
        false
    }

    /// Mark sectors of an existing line valid (fill completion).
    ///
    /// # Panics
    ///
    /// Panics if the line is not present; fills always target a line that
    /// [`TagArray::allocate`] created.
    pub fn fill(&mut self, addr: u64, sector_mask: u8, now: Cycle) {
        let Some(idx) = self.find(addr) else {
            panic!("fill for absent line {:#x}", self.mapping.line_addr(addr));
        };
        let flags = &mut self.flags[idx];
        flags.state = LineState::Valid;
        flags.valid_mask |= sector_mask;
        self.last_use[idx] = now;
    }

    /// Mark sectors dirty (write hit in a write-back cache).
    ///
    /// # Panics
    ///
    /// Panics if the line is not valid.
    pub fn mark_dirty(&mut self, addr: u64, sector_mask: u8) {
        match self.find(addr) {
            Some(idx) if self.flags[idx].state == LineState::Valid => {
                let flags = &mut self.flags[idx];
                flags.dirty_mask |= sector_mask;
                flags.valid_mask |= sector_mask;
            }
            _ => panic!(
                "mark_dirty for absent line {:#x}",
                self.mapping.line_addr(addr)
            ),
        }
    }

    /// State of the line holding `addr`, if any.
    pub fn line_state(&self, addr: u64) -> Option<(LineState, u8)> {
        self.find(addr)
            .map(|idx| (self.flags[idx].state, self.flags[idx].valid_mask))
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;

    fn small_cfg(replacement: ReplacementPolicy) -> CacheConfig {
        let mut cfg = presets::rtx2080ti().sm.l1d;
        cfg.sets = 2;
        cfg.ways = 2;
        cfg.replacement = replacement;
        cfg
    }

    #[test]
    fn probe_miss_then_fill_hits() {
        let mut t = TagArray::new(&small_cfg(ReplacementPolicy::Lru), 0);
        assert_eq!(t.probe(0x1000, 0b0001, 0), Probe::LineMiss);
        t.allocate(0x1000, true, 0).expect("allocation");
        assert_eq!(t.probe(0x1000, 0b0001, 1), Probe::SectorMiss { way: 0 });
        t.fill(0x1000, 0b0001, 2);
        assert_eq!(t.probe(0x1000, 0b0001, 3), Probe::Hit { way: 0 });
        // A different sector of the same line still sector-misses.
        assert_eq!(t.probe(0x1020, 0b0010, 4), Probe::SectorMiss { way: 0 });
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = TagArray::new(&small_cfg(ReplacementPolicy::Lru), 0);
        // Set 0 holds lines 0x0000 and 0x0100 (2 sets of 128 B lines).
        for (i, addr) in [0x0000u64, 0x0100].iter().enumerate() {
            t.allocate(*addr, false, i as u64).unwrap();
            t.fill(*addr, 0b1111, i as u64);
        }
        // Touch 0x0000 so 0x0100 is LRU.
        t.probe(0x0000, 0b0001, 10);
        let victim = t.allocate(0x0200, false, 11).unwrap();
        assert_eq!(victim.evicted_line, Some(0x0100));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut t = TagArray::new(&small_cfg(ReplacementPolicy::Fifo), 0);
        for (i, addr) in [0x0000u64, 0x0100].iter().enumerate() {
            t.allocate(*addr, false, i as u64).unwrap();
            t.fill(*addr, 0b1111, i as u64);
        }
        // Touch 0x0000; FIFO must still evict it (allocated first).
        t.probe(0x0000, 0b0001, 10);
        let victim = t.allocate(0x0200, false, 11).unwrap();
        assert_eq!(victim.evicted_line, Some(0x0000));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let pick = |seed: u64| {
            let mut t = TagArray::new(&small_cfg(ReplacementPolicy::Random), seed);
            for (i, addr) in [0x0000u64, 0x0100].iter().enumerate() {
                t.allocate(*addr, false, i as u64).unwrap();
                t.fill(*addr, 0b1111, i as u64);
            }
            t.allocate(0x0200, false, 11).unwrap().evicted_line
        };
        assert_eq!(pick(7), pick(7));
    }

    #[test]
    fn reserved_lines_are_not_victims() {
        let mut t = TagArray::new(&small_cfg(ReplacementPolicy::Lru), 0);
        t.allocate(0x0000, true, 0).unwrap();
        t.allocate(0x0100, true, 1).unwrap();
        // Both ways of set 0 reserved: allocation fails.
        assert!(t.allocate(0x0200, true, 2).is_none());
        // But set 1 is unaffected.
        assert!(t.allocate(0x0080, true, 2).is_some());
    }

    #[test]
    fn eviction_reports_dirty_mask() {
        let mut t = TagArray::new(&small_cfg(ReplacementPolicy::Lru), 0);
        t.allocate(0x0000, false, 0).unwrap();
        t.fill(0x0000, 0b0011, 0);
        t.mark_dirty(0x0000, 0b0010);
        t.allocate(0x0100, false, 1).unwrap();
        t.fill(0x0100, 0b1111, 1);
        let victim = t.allocate(0x0200, false, 2).unwrap();
        assert_eq!(victim.evicted_line, Some(0x0000));
        assert_eq!(victim.dirty_mask, 0b0010);
    }

    #[test]
    fn silent_probe_does_not_disturb_lru() {
        let mut t = TagArray::new(&small_cfg(ReplacementPolicy::Lru), 0);
        for (i, addr) in [0x0000u64, 0x0100].iter().enumerate() {
            t.allocate(*addr, false, i as u64).unwrap();
            t.fill(*addr, 0b1111, i as u64);
        }
        // Silent probe of 0x0000 must NOT refresh it.
        assert_eq!(t.probe_silent(0x0000, 0b0001), Probe::Hit { way: 0 });
        let victim = t.allocate(0x0200, false, 11).unwrap();
        assert_eq!(victim.evicted_line, Some(0x0000));
    }

    #[test]
    #[should_panic(expected = "absent line")]
    fn fill_absent_line_panics() {
        let mut t = TagArray::new(&small_cfg(ReplacementPolicy::Lru), 0);
        t.fill(0x1000, 0b0001, 0);
    }

    /// One line of [`View`]: its tag, flags and timestamps.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct LineView {
        tag: u64,
        state: LineState,
        valid_mask: u8,
        dirty_mask: u8,
        last_use: Cycle,
        alloc_time: Cycle,
    }

    /// Every line of a tag array, in `set * ways + way` order, and its
    /// replacement RNG: what the reference tests compare.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct View {
        lines: Vec<LineView>,
        rng: SmallRng,
    }

    fn view(t: &TagArray) -> View {
        View {
            lines: (0..t.tags.len())
                .map(|idx| LineView {
                    tag: t.tags[idx],
                    state: t.flags[idx].state,
                    valid_mask: t.flags[idx].valid_mask,
                    dirty_mask: t.flags[idx].dirty_mask,
                    last_use: t.last_use[idx],
                    alloc_time: t.alloc_time[idx],
                })
                .collect(),
            rng: t.rng.clone(),
        }
    }

    /// The three-step functional access `touch` stands in for.
    fn reference_touch(t: &mut TagArray, addr: u64, sector_mask: u8, now: Cycle) -> bool {
        match t.probe(addr, sector_mask, now) {
            Probe::Hit { .. } => true,
            Probe::SectorMiss { .. } => {
                t.fill(addr, sector_mask, now);
                false
            }
            Probe::LineMiss => {
                t.allocate(addr, false, now);
                t.fill(addr, sector_mask, now);
                false
            }
        }
    }

    /// Victim selection as `allocate` did it before it shared one routine
    /// with `touch`: the first invalid way, else the valid ways collected
    /// into a list and the policy applied to the list. Returns the way and
    /// the replacement RNG afterwards.
    fn reference_victim(
        state: &View,
        set: usize,
        ways: usize,
        policy: ReplacementPolicy,
    ) -> (Option<usize>, SmallRng) {
        let lines = &state.lines[set * ways..(set + 1) * ways];
        let mut rng = state.rng.clone();
        if let Some(way) = lines.iter().position(|l| l.state == LineState::Invalid) {
            return (Some(way), rng);
        }
        let candidates: Vec<usize> = (0..ways)
            .filter(|&w| lines[w].state == LineState::Valid)
            .collect();
        if candidates.is_empty() {
            return (None, rng);
        }
        let way = match policy {
            ReplacementPolicy::Lru => *candidates
                .iter()
                .min_by_key(|&&w| lines[w].last_use)
                .expect("non-empty"),
            ReplacementPolicy::Fifo => *candidates
                .iter()
                .min_by_key(|&&w| lines[w].alloc_time)
                .expect("non-empty"),
            ReplacementPolicy::Random => candidates[rng.gen_range(0..candidates.len())],
        };
        (Some(way), rng)
    }

    const POLICIES: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ];

    /// A 4-way L1, a 16-way L2 slice and a direct-mapped edge case, each
    /// cut down to four sets so a short stream evicts constantly.
    fn geometries(replacement: ReplacementPolicy) -> [CacheConfig; 3] {
        let gpu = presets::rtx2080ti();
        let shrink = |mut cfg: CacheConfig, ways: u32| {
            cfg.sets = 4;
            cfg.ways = ways;
            cfg.replacement = replacement;
            cfg
        };
        [
            shrink(gpu.sm.l1d.clone(), 4),
            shrink(gpu.memory.l2.clone(), 16),
            shrink(gpu.sm.l1d, 1),
        ]
    }

    /// A random sectored access: one of three times as many lines as the
    /// array holds, a non-empty sector mask, and a clock that sometimes
    /// stands still so timestamps tie.
    fn random_access(rng: &mut SmallRng, cfg: &CacheConfig, now: &mut Cycle) -> (u64, u8) {
        let lines = u64::from(cfg.sets * cfg.ways) * 3;
        let addr = rng.gen_range(0..lines) * u64::from(cfg.line_bytes) + rng.gen_range(0u64..128);
        let mask = rng.gen_range(1u32..16) as u8;
        *now += rng.gen_range(0u64..3);
        (addr, mask)
    }

    #[test]
    fn touch_matches_probe_allocate_fill() {
        for policy in POLICIES {
            for (g, cfg) in geometries(policy).iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(0x70c4 + g as u64);
                let mut fused = TagArray::new(cfg, 9);
                let mut steps = TagArray::new(cfg, 9);
                let mut now = 0;
                let mut hits = 0;
                for i in 0..4000 {
                    let (addr, mask) = random_access(&mut rng, cfg, &mut now);
                    let hit = fused.touch(addr, mask, now);
                    assert_eq!(
                        hit,
                        reference_touch(&mut steps, addr, mask, now),
                        "{policy:?} geometry {g} access {i}"
                    );
                    assert_eq!(
                        view(&fused),
                        view(&steps),
                        "{policy:?} geometry {g} access {i}"
                    );
                    hits += u32::from(hit);
                }
                // The stream must exercise both verdicts to mean anything.
                assert!((100..3900).contains(&hits), "{policy:?} {g}: {hits} hits");
            }
        }
    }

    #[test]
    fn allocate_picks_the_way_the_collecting_reference_did() {
        for policy in POLICIES {
            for (g, cfg) in geometries(policy).iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(0xa110c + g as u64);
                let mut t = TagArray::new(cfg, 5);
                let ways = cfg.ways as usize;
                let mut now = 0;
                let mut refused = 0;
                for i in 0..4000 {
                    let (addr, mask) = random_access(&mut rng, cfg, &mut now);
                    if t.probe(addr, mask, now) != Probe::LineMiss {
                        // Complete the line's fill, if it was reserved.
                        t.fill(addr, mask, now);
                        continue;
                    }
                    let before = view(&t);
                    let set = t.mapping().set_index(addr);
                    let (want, rng_after) = reference_victim(&before, set, ways, policy);
                    // Every third allocation reserves, so sets fill up with
                    // lines that must not be victimized.
                    let got = t.allocate(addr, i % 3 == 0, now);
                    assert_eq!(
                        got.map(|v| v.way),
                        want,
                        "{policy:?} geometry {g} access {i}"
                    );
                    assert_eq!(view(&t).rng, rng_after, "{policy:?} geometry {g}");
                    if let (Some(victim), Some(way)) = (got, want) {
                        let old = before.lines[set * ways + way];
                        let held_data = old.state == LineState::Valid;
                        assert_eq!(victim.evicted_line, held_data.then_some(old.tag));
                        assert_eq!(
                            victim.dirty_mask,
                            if held_data { old.dirty_mask } else { 0 }
                        );
                    }
                    refused += u32::from(got.is_none());
                }
                assert!(
                    refused > 0,
                    "{policy:?} geometry {g}: no all-reserved set seen"
                );
            }
        }
    }

    #[test]
    fn touch_in_an_all_reserved_set_allocates_nothing() {
        let mut t = TagArray::new(&small_cfg(ReplacementPolicy::Lru), 0);
        t.allocate(0x0000, true, 0).unwrap();
        t.allocate(0x0100, true, 1).unwrap();
        let before = view(&t);
        assert!(!t.touch(0x0200, 0b0001, 2));
        assert_eq!(view(&t), before);
        // Touching a reserved line completes it like a fill would.
        assert!(!t.touch(0x0100, 0b0011, 3));
        assert_eq!(t.line_state(0x0100), Some((LineState::Valid, 0b0011)));
        assert!(t.touch(0x0100, 0b0001, 4));
    }
}
