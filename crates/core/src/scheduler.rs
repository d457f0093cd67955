//! Warp Scheduler & Dispatch policies (§III-B1, §III-D).
//!
//! The warp scheduler is the paper's canonical "module of interest": its
//! working example assumes an architect exploring *a new warp scheduling
//! algorithm*, so the scheduler is simulated cycle-accurately in every
//! preset and is trivially replaceable — a policy only sees its sub-core's
//! warps as bitmasks ([`IssueMasks`]) and returns the bit to issue from.
//!
//! This is the issue stage the way hardware builds it: each sub-core keeps
//! a ready vector over a fixed partition of the SM's warp slots, and the
//! policy is a priority encoder over it. The SM maintains the masks where
//! warp state changes (see DESIGN.md, "Warp issue stage"), so a pick costs
//! a few word operations however many warps are resident.
//!
//! Three policies are provided: greedy-then-oldest ([`GtoScheduler`], the
//! Table II default), loose round-robin ([`LrrScheduler`]), and a
//! two-level scheduler ([`TwoLevelScheduler`]). None of them allocates.

use swiftsim_config::SchedulerPolicy;

#[cfg(test)]
mod reference;

/// One sub-core's warps as a policy sees them in one cycle.
///
/// Bit `b` is one warp slot of the sub-core. Bits run in scan order —
/// block slot, then warp — with `slot_bits` consecutive bits per block
/// slot, so bit `b` belongs to the block in slot `b / slot_bits`. A free
/// bit is never live.
///
/// # Ranks
///
/// A policy that remembers a warp from one cycle to the next must remember
/// its **rank** among the live warps ([`IssueMasks::rank_of`]), not its
/// bit, and map it back with [`IssueMasks::bit_of_rank`]. When a warp exits
/// or a block is installed below it, the rank moves to another warp, and a
/// remembered target silently carries on with whichever warp now holds it.
/// That is the model the goldens record
/// (`sm::tests::view_ids_are_ranks_among_live_warps` pins it); changing it
/// moves simulated cycles and is a model change of its own.
#[derive(Debug, Clone, Copy)]
pub struct IssueMasks<'a> {
    /// Resident warps that have not exited.
    pub live: u64,
    /// The live warps whose next instruction could issue this cycle
    /// (hazards and structural constraints already checked).
    pub ready: u64,
    /// Bits per block slot; at least 1.
    pub slot_bits: u32,
    /// Cycle at which each block slot's current block was dispatched to
    /// the SM, indexed by slot; lower = older.
    pub ages: &'a [u64],
}

impl IssueMasks<'_> {
    /// The rank of `bit` among the live warps: how many live bits are
    /// below it.
    pub fn rank_of(&self, bit: u32) -> u32 {
        (self.live & ((1u64 << bit) - 1)).count_ones()
    }

    /// The live bit holding `rank`, or `None` when fewer warps are live.
    pub fn bit_of_rank(&self, rank: u32) -> Option<u32> {
        let mut rest = self.live;
        for _ in 0..rank {
            rest &= rest.wrapping_sub(1);
        }
        (rest != 0).then(|| rest.trailing_zeros())
    }

    /// The lowest bit of `set` in the oldest block slot that has one; of
    /// equally old slots, the lowest. `None` when `set` is empty.
    pub fn oldest(&self, set: u64) -> Option<u32> {
        let width = u64::MAX >> (64 - self.slot_bits);
        let mut best: Option<(u64, u32)> = None;
        let mut rest = set;
        while rest != 0 {
            let bit = rest.trailing_zeros();
            let slot = bit / self.slot_bits;
            let age = self.ages[slot as usize];
            if best.is_none_or(|(oldest, _)| age < oldest) {
                best = Some((age, bit));
            }
            rest &= !(width << (slot * self.slot_bits));
        }
        best.map(|(_, bit)| bit)
    }

    fn is_ready(&self, bit: u32) -> bool {
        self.ready >> bit & 1 != 0
    }
}

/// A warp-scheduling policy: one instance per sub-core.
///
/// Implementations must be deterministic: simulation reproducibility depends
/// on it. The trait is object-safe so the sub-core holds a
/// `Box<dyn WarpSchedulerPolicy>`.
pub trait WarpSchedulerPolicy: Send {
    /// Choose the bit of a ready warp to issue from this cycle, or `None`
    /// when `warps.ready` is empty. `now` is the current cycle. The SM calls
    /// this once per sub-core per scanned cycle, also when nothing is ready
    /// or nothing is live, and issues from the returned bit, which must be
    /// set in `warps.ready`.
    ///
    /// # No-pick idempotence (event-engine contract)
    ///
    /// When no warp is ready, repeated `pick` calls with the same input
    /// must reach a fixed point by the second call: after one all-unready
    /// pick, further identical picks must return `None` without observable
    /// state change. The event-driven engine relies on this to put idle
    /// SMs to sleep — it *omits* `pick` calls for the cycles it credits a
    /// sleeper, so any internal bookkeeping (round-robin cursors, greedy
    /// last-issued state, fetch groups) must not advance on an all-unready
    /// cycle in a way that alters a later successful pick. All built-in
    /// policies satisfy this: GTO and LRR mutate state only on a successful
    /// pick, and the two-level scheduler's active set empties on the first
    /// all-unready call.
    fn pick(&mut self, warps: &IssueMasks<'_>, now: u64) -> Option<u32>;

    /// Human-readable policy name for metrics and reports.
    fn name(&self) -> &'static str;
}

/// Instantiate the policy configured in [`SchedulerPolicy`].
pub(crate) fn make_policy(policy: SchedulerPolicy) -> Box<dyn WarpSchedulerPolicy> {
    match policy {
        SchedulerPolicy::Gto => Box::new(GtoScheduler::new()),
        SchedulerPolicy::Lrr => Box::new(LrrScheduler::new()),
        SchedulerPolicy::TwoLevel => Box::new(TwoLevelScheduler::new(8)),
    }
}

/// Greedy-then-oldest: keep issuing from the same warp until it stalls,
/// then fall back to the lowest ready warp of the oldest block.
#[derive(Debug, Clone, Default)]
pub struct GtoScheduler {
    /// Rank of the greedy target.
    last: Option<u32>,
}

impl GtoScheduler {
    /// Create a GTO scheduler.
    pub fn new() -> Self {
        GtoScheduler::default()
    }
}

impl WarpSchedulerPolicy for GtoScheduler {
    fn pick(&mut self, warps: &IssueMasks<'_>, _now: u64) -> Option<u32> {
        // Greedy: stick with the previous warp while it stays ready.
        let last = self.last.and_then(|rank| warps.bit_of_rank(rank));
        if let Some(bit) = last.filter(|&bit| warps.is_ready(bit)) {
            return Some(bit);
        }
        let bit = warps.oldest(warps.ready)?;
        self.last = Some(warps.rank_of(bit));
        Some(bit)
    }

    fn name(&self) -> &'static str {
        "gto"
    }
}

/// Loose round-robin: rotate through ready warps starting after the last
/// one that issued.
#[derive(Debug, Clone, Default)]
pub struct LrrScheduler {
    /// Rank the next search starts from, modulo the live count.
    next: u32,
}

impl LrrScheduler {
    /// Create an LRR scheduler.
    pub fn new() -> Self {
        LrrScheduler::default()
    }
}

impl WarpSchedulerPolicy for LrrScheduler {
    fn pick(&mut self, warps: &IssueMasks<'_>, _now: u64) -> Option<u32> {
        let n = warps.live.count_ones();
        let start = warps.bit_of_rank(self.next.checked_rem(n)?)?;
        let rotated = warps.ready.rotate_right(start);
        if rotated == 0 {
            return None;
        }
        let bit = (start + rotated.trailing_zeros()) % 64;
        self.next = (warps.rank_of(bit) + 1) % n;
        Some(bit)
    }

    fn name(&self) -> &'static str {
        "lrr"
    }
}

/// Two-level scheduler: a small *active set* is scheduled round-robin;
/// warps that stall are demoted to the pending set and replaced by pending
/// warps, hiding long-latency operations with a small selection window.
#[derive(Debug, Clone)]
pub struct TwoLevelScheduler {
    active_size: usize,
    /// Ranks of the active warps in promotion order, `len` of them. A
    /// sub-core has at most 64 warps, so no active set can be longer.
    active: [u8; 64],
    len: usize,
    next: usize,
}

impl TwoLevelScheduler {
    /// Create a two-level scheduler with the given active-set size.
    pub fn new(active_size: usize) -> Self {
        TwoLevelScheduler {
            active_size: active_size.clamp(1, 64),
            active: [0; 64],
            len: 0,
            next: 0,
        }
    }
}

impl WarpSchedulerPolicy for TwoLevelScheduler {
    fn pick(&mut self, warps: &IssueMasks<'_>, _now: u64) -> Option<u32> {
        // Demote active warps that are no longer ready.
        let mut pending = warps.ready;
        let mut kept = 0;
        for k in 0..self.len {
            let rank = self.active[k];
            let bit = warps.bit_of_rank(u32::from(rank));
            if let Some(bit) = bit.filter(|&bit| warps.is_ready(bit)) {
                pending &= !(1 << bit);
                self.active[kept] = rank;
                kept += 1;
            }
        }
        self.len = kept;
        // Promote ready pending warps into free active slots, oldest block
        // first.
        while self.len < self.active_size {
            let Some(bit) = warps.oldest(pending) else {
                break;
            };
            pending &= !(1 << bit);
            self.active[self.len] = warps.rank_of(bit) as u8;
            self.len += 1;
        }
        if self.len == 0 {
            return None;
        }
        let idx = self.next % self.len;
        self.next = self.next.wrapping_add(1);
        warps.bit_of_rank(u32::from(self.active[idx]))
    }

    fn name(&self) -> &'static str {
        "two_level"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_rng::SmallRng;

    /// `ready.len()` live warps, one per block slot, so slot `i`'s age is
    /// warp `i`'s age.
    fn masks<'a>(ready: &[bool], ages: &'a [u64]) -> IssueMasks<'a> {
        IssueMasks {
            live: (1u64 << ready.len()) - 1,
            ready: (0..).zip(ready).fold(0, |m, (i, &r)| m | u64::from(r) << i),
            slot_bits: 1,
            ages,
        }
    }

    const AGES: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

    #[test]
    fn gto_sticks_with_current_warp() {
        let mut s = GtoScheduler::new();
        let w = masks(&[true, true, true], &AGES);
        let first = s.pick(&w, 0).unwrap();
        assert_eq!(first, 0, "oldest first");
        // Still ready: greedy keeps picking it.
        assert_eq!(s.pick(&w, 1), Some(0));
        // Warp 0 stalls: fall to the next oldest.
        let w2 = masks(&[false, true, true], &AGES);
        assert_eq!(s.pick(&w2, 2), Some(1));
        // And becomes the new greedy target.
        assert_eq!(s.pick(&masks(&[true, true, true], &AGES), 3), Some(1));
    }

    #[test]
    fn gto_prefers_oldest_block() {
        let mut s = GtoScheduler::new();
        // Warp 0 belongs to a younger block.
        assert_eq!(s.pick(&masks(&[true, true], &[100, 5]), 0), Some(1));
        // Equally old blocks: the lower slot wins.
        let two_slots = IssueMasks {
            live: 0b1111,
            ready: 0b1010,
            slot_bits: 2,
            ages: &[7, 7],
        };
        assert_eq!(GtoScheduler::new().pick(&two_slots, 0), Some(1));
    }

    #[test]
    fn lrr_rotates() {
        let mut s = LrrScheduler::new();
        let w = masks(&[true, true, true], &AGES);
        assert_eq!(s.pick(&w, 0), Some(0));
        assert_eq!(s.pick(&w, 1), Some(1));
        assert_eq!(s.pick(&w, 2), Some(2));
        assert_eq!(s.pick(&w, 3), Some(0));
    }

    #[test]
    fn lrr_skips_stalled() {
        let mut s = LrrScheduler::new();
        assert_eq!(s.pick(&masks(&[false, true, false], &AGES), 0), Some(1));
        assert_eq!(s.pick(&masks(&[true, false, false], &AGES), 1), Some(0));
    }

    #[test]
    fn no_ready_warp_returns_none() {
        let mut gto = GtoScheduler::new();
        let mut lrr = LrrScheduler::new();
        let mut tl = TwoLevelScheduler::new(4);
        let w = masks(&[false, false], &AGES);
        assert_eq!(gto.pick(&w, 0), None);
        assert_eq!(lrr.pick(&w, 0), None);
        assert_eq!(tl.pick(&w, 0), None);
        let none = masks(&[], &AGES);
        assert_eq!(gto.pick(&none, 0), None);
        assert_eq!(lrr.pick(&none, 0), None);
    }

    #[test]
    fn two_level_bounds_active_set() {
        let mut s = TwoLevelScheduler::new(2);
        let w = masks(&[true, true, true, true], &AGES);
        let mut picked = std::collections::HashSet::new();
        for now in 0..8 {
            picked.insert(s.pick(&w, now).unwrap());
        }
        // Only the 2 oldest warps rotate while they stay ready.
        assert_eq!(picked, [0u32, 1].into_iter().collect());
    }

    #[test]
    fn two_level_promotes_on_stall() {
        let mut s = TwoLevelScheduler::new(1);
        assert_eq!(s.pick(&masks(&[true, true], &AGES), 0), Some(0));
        // Warp 0 stalls: warp 1 is promoted.
        assert_eq!(s.pick(&masks(&[false, true], &AGES), 1), Some(1));
    }

    #[test]
    fn factory_matches_config() {
        assert_eq!(make_policy(SchedulerPolicy::Gto).name(), "gto");
        assert_eq!(make_policy(SchedulerPolicy::Lrr).name(), "lrr");
        assert_eq!(make_policy(SchedulerPolicy::TwoLevel).name(), "two_level");
    }

    #[test]
    fn policies_are_deterministic() {
        let seq = |mut p: Box<dyn WarpSchedulerPolicy>| -> Vec<Option<u32>> {
            (0..20)
                .map(|now| {
                    let ready: Vec<bool> = (0..4).map(|i| (now + i) % 3 != 0).collect();
                    p.pick(&masks(&ready, &AGES), now as u64)
                })
                .collect()
        };
        for policy in [
            SchedulerPolicy::Gto,
            SchedulerPolicy::Lrr,
            SchedulerPolicy::TwoLevel,
        ] {
            assert_eq!(seq(make_policy(policy)), seq(make_policy(policy)));
        }
    }

    /// The views the earlier interface handed a policy for `warps`: one
    /// per live bit, numbered by rank.
    fn views_of(warps: &IssueMasks<'_>) -> Vec<reference::WarpView> {
        (0..64)
            .filter(|&bit| warps.live >> bit & 1 != 0)
            .enumerate()
            .map(|(id, bit)| reference::WarpView {
                id,
                ready: warps.is_ready(bit),
                age: warps.ages[(bit / warps.slot_bits) as usize],
            })
            .collect()
    }

    /// The mask policies pick what the view-based policies they replaced
    /// pick, round after round from the same state, while blocks install
    /// and warps exit under them (shifting ranks), slots share an age, and
    /// all-unready rounds repeat. Every pick is a ready warp, and some warp
    /// is picked whenever one is ready.
    #[test]
    fn masks_agree_with_the_view_reference() {
        let mut rng = SmallRng::seed_from_u64(0x5c4e_d01e);
        let mut rounds = 0;
        for _ in 0..200 {
            let slot_bits = rng.gen_range(1u32..17);
            let slots = rng.gen_range(1..64 / slot_bits + 1);
            let width = u64::MAX >> (64 - slot_bits);
            let active_size = rng.gen_range(1usize..10);
            let mut pairs: [(
                Box<dyn WarpSchedulerPolicy>,
                Box<dyn reference::WarpSchedulerPolicy>,
            ); 3] = [
                (
                    Box::new(GtoScheduler::new()),
                    Box::new(reference::GtoScheduler::new()),
                ),
                (
                    Box::new(LrrScheduler::new()),
                    Box::new(reference::LrrScheduler::new()),
                ),
                (
                    Box::new(TwoLevelScheduler::new(active_size)),
                    Box::new(reference::TwoLevelScheduler::new(active_size)),
                ),
            ];
            let mut live = 0u64;
            let mut ages = vec![0u64; slots as usize];
            for now in 0..60u64 {
                for slot in 0..slots {
                    let range = width << (slot * slot_bits);
                    match rng.gen_range(0u32..12) {
                        0 => live &= !range,
                        1 => {
                            // One warp of the block exits.
                            let in_slot = live & range;
                            if in_slot != 0 {
                                live &= !(1 << in_slot.trailing_zeros());
                            }
                        }
                        2 if live & range == 0 => {
                            live |= range & rng.next_u64() | 1 << (slot * slot_bits);
                            // Few distinct ages, so slots often tie.
                            ages[slot as usize] = now / 8;
                        }
                        _ => {}
                    }
                }
                let ready = if rng.gen_bool(0.25) {
                    0
                } else {
                    live & rng.next_u64()
                };
                let repeats = if ready == 0 { 3 } else { 1 };
                for _ in 0..repeats {
                    rounds += 1;
                    let warps = IssueMasks {
                        live,
                        ready,
                        slot_bits,
                        ages: &ages,
                    };
                    let views = views_of(&warps);
                    for (new, old) in &mut pairs {
                        let got = new.pick(&warps, now);
                        let want = old.pick(&views, now);
                        assert_eq!(
                            got.map(|bit| warps.rank_of(bit) as usize),
                            want,
                            "{} at round {rounds}: {warps:?}",
                            new.name()
                        );
                        match got {
                            Some(bit) => assert!(
                                warps.is_ready(bit),
                                "{} picked an unready warp",
                                new.name()
                            ),
                            None => assert_eq!(ready, 0, "{} refused ready warps", new.name()),
                        }
                    }
                }
            }
        }
        assert!(rounds >= 10_000, "only {rounds} rounds");
    }
}
