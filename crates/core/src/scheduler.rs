//! Warp Scheduler & Dispatch policies (§III-B1, §III-D).
//!
//! The warp scheduler is the paper's canonical "module of interest": its
//! working example assumes an architect exploring *a new warp scheduling
//! algorithm*, so the scheduler is simulated cycle-accurately in every
//! preset and is trivially replaceable — a policy only sees an abstract
//! [`WarpView`] list and returns which warp to issue from.
//!
//! Three policies are provided: greedy-then-oldest ([`GtoScheduler`], the
//! Table II default), loose round-robin ([`LrrScheduler`]), and a
//! two-level scheduler ([`TwoLevelScheduler`]).

use swiftsim_config::SchedulerPolicy;

/// What a scheduling policy is allowed to know about one warp when picking
/// the next issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpView {
    /// The warp's rank among its sub-core's *live* warps this cycle: the
    /// SM numbers the views `0..n` in scan order (block slot, then warp)
    /// and skips warps that have exited.
    ///
    /// It identifies a warp within one `pick` call only. It is **not**
    /// stable across cycles: when a warp exits or a block is installed,
    /// every later warp's rank shifts, so a policy that remembers an id —
    /// GTO's `last`, the two-level active set — silently carries on with
    /// whichever warp now holds that rank. That is the model the goldens
    /// record (`sm::tests::view_ids_are_ranks_among_live_warps` pins it);
    /// changing it moves simulated cycles and is a model change of its
    /// own.
    pub id: usize,
    /// Whether the warp has an instruction ready to issue this cycle
    /// (hazards and structural constraints already checked).
    pub ready: bool,
    /// Cycle at which the warp's current thread block was dispatched to the
    /// SM; lower = older (GTO's tie-break).
    pub age: u64,
}

/// A warp-scheduling policy.
///
/// Implementations must be deterministic: simulation reproducibility depends
/// on it. The trait is object-safe so the sub-core holds a
/// `Box<dyn WarpSchedulerPolicy>`.
pub trait WarpSchedulerPolicy: Send {
    /// Choose among `warps` the one to issue from this cycle, or `None`
    /// when no warp is ready. `now` is the current cycle.
    ///
    /// # No-pick idempotence (event-engine contract)
    ///
    /// When every view is unready, repeated `pick` calls with the same
    /// input must reach a fixed point by the second call: after one
    /// all-unready pick, further identical picks must return `None`
    /// without observable state change. The event-driven engine relies on
    /// this to memoize quiescent cycles — it may *omit* `pick` calls for
    /// cycles it proves identical, so any internal bookkeeping (round-robin
    /// cursors, greedy last-issued state, fetch groups) must not advance on
    /// an all-unready cycle in a way that alters a later successful pick.
    /// All built-in policies satisfy this: GTO and LRR mutate state only on
    /// a successful pick, and the two-level scheduler's active-set rotation
    /// reaches its fixed point on the first all-unready call.
    fn pick(&mut self, warps: &[WarpView], now: u64) -> Option<usize>;

    /// Human-readable policy name for metrics and reports.
    fn name(&self) -> &'static str;
}

/// Instantiate the policy configured in [`SchedulerPolicy`].
pub fn make_policy(policy: SchedulerPolicy) -> Box<dyn WarpSchedulerPolicy> {
    match policy {
        SchedulerPolicy::Gto => Box::new(GtoScheduler::new()),
        SchedulerPolicy::Lrr => Box::new(LrrScheduler::new()),
        SchedulerPolicy::TwoLevel => Box::new(TwoLevelScheduler::new(8)),
    }
}

/// Greedy-then-oldest: keep issuing from the same warp until it stalls,
/// then fall back to the oldest ready warp.
#[derive(Debug, Clone, Default)]
pub struct GtoScheduler {
    last: Option<usize>,
}

impl GtoScheduler {
    /// Create a GTO scheduler.
    pub fn new() -> Self {
        GtoScheduler::default()
    }
}

impl WarpSchedulerPolicy for GtoScheduler {
    fn pick(&mut self, warps: &[WarpView], _now: u64) -> Option<usize> {
        // Greedy: stick with the previous warp while it stays ready.
        if let Some(last) = self.last {
            if warps.iter().any(|w| w.id == last && w.ready) {
                return Some(last);
            }
        }
        // Oldest ready (age, then id for determinism).
        let pick = warps
            .iter()
            .filter(|w| w.ready)
            .min_by_key(|w| (w.age, w.id))?;
        self.last = Some(pick.id);
        Some(pick.id)
    }

    fn name(&self) -> &'static str {
        "gto"
    }
}

/// Loose round-robin: rotate through ready warps starting after the last
/// one that issued.
#[derive(Debug, Clone, Default)]
pub struct LrrScheduler {
    next: usize,
}

impl LrrScheduler {
    /// Create an LRR scheduler.
    pub fn new() -> Self {
        LrrScheduler::default()
    }
}

impl WarpSchedulerPolicy for LrrScheduler {
    fn pick(&mut self, warps: &[WarpView], _now: u64) -> Option<usize> {
        if warps.is_empty() {
            return None;
        }
        let n = warps.len();
        for off in 0..n {
            let idx = (self.next + off) % n;
            if warps[idx].ready {
                self.next = (idx + 1) % n;
                return Some(warps[idx].id);
            }
        }
        None
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
    active: Vec<usize>,
    next: usize,
}

impl TwoLevelScheduler {
    /// Create a two-level scheduler with the given active-set size.
    pub fn new(active_size: usize) -> Self {
        TwoLevelScheduler {
            active_size: active_size.max(1),
            active: Vec::new(),
            next: 0,
        }
    }
}

impl WarpSchedulerPolicy for TwoLevelScheduler {
    fn pick(&mut self, warps: &[WarpView], _now: u64) -> Option<usize> {
        // Demote active warps that are no longer ready.
        self.active
            .retain(|id| warps.iter().any(|w| w.id == *id && w.ready));
        // Promote ready pending warps into free active slots (by age).
        if self.active.len() < self.active_size {
            let mut candidates: Vec<&WarpView> = warps
                .iter()
                .filter(|w| w.ready && !self.active.contains(&w.id))
                .collect();
            candidates.sort_by_key(|w| (w.age, w.id));
            for c in candidates {
                if self.active.len() >= self.active_size {
                    break;
                }
                self.active.push(c.id);
            }
        }
        if self.active.is_empty() {
            return None;
        }
        let idx = self.next % self.active.len();
        self.next = self.next.wrapping_add(1);
        Some(self.active[idx])
    }

    fn name(&self) -> &'static str {
        "two_level"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(ready: &[bool]) -> Vec<WarpView> {
        ready
            .iter()
            .enumerate()
            .map(|(id, &r)| WarpView {
                id,
                ready: r,
                age: id as u64,
            })
            .collect()
    }

    #[test]
    fn gto_sticks_with_current_warp() {
        let mut s = GtoScheduler::new();
        let w = views(&[true, true, true]);
        let first = s.pick(&w, 0).unwrap();
        assert_eq!(first, 0, "oldest first");
        // Still ready: greedy keeps picking it.
        assert_eq!(s.pick(&w, 1), Some(0));
        // Warp 0 stalls: fall to the next oldest.
        let w2 = views(&[false, true, true]);
        assert_eq!(s.pick(&w2, 2), Some(1));
        // And becomes the new greedy target.
        assert_eq!(s.pick(&views(&[true, true, true]), 3), Some(1));
    }

    #[test]
    fn gto_prefers_oldest_block() {
        let mut s = GtoScheduler::new();
        let mut w = views(&[true, true]);
        w[0].age = 100; // warp 0 belongs to a younger block
        w[1].age = 5;
        assert_eq!(s.pick(&w, 0), Some(1));
    }

    #[test]
    fn lrr_rotates() {
        let mut s = LrrScheduler::new();
        let w = views(&[true, true, true]);
        assert_eq!(s.pick(&w, 0), Some(0));
        assert_eq!(s.pick(&w, 1), Some(1));
        assert_eq!(s.pick(&w, 2), Some(2));
        assert_eq!(s.pick(&w, 3), Some(0));
    }

    #[test]
    fn lrr_skips_stalled() {
        let mut s = LrrScheduler::new();
        assert_eq!(s.pick(&views(&[false, true, false]), 0), Some(1));
        assert_eq!(s.pick(&views(&[true, false, false]), 1), Some(0));
    }

    #[test]
    fn no_ready_warp_returns_none() {
        let mut gto = GtoScheduler::new();
        let mut lrr = LrrScheduler::new();
        let mut tl = TwoLevelScheduler::new(4);
        let w = views(&[false, false]);
        assert_eq!(gto.pick(&w, 0), None);
        assert_eq!(lrr.pick(&w, 0), None);
        assert_eq!(tl.pick(&w, 0), None);
        assert_eq!(gto.pick(&[], 0), None);
        assert_eq!(lrr.pick(&[], 0), None);
    }

    #[test]
    fn two_level_bounds_active_set() {
        let mut s = TwoLevelScheduler::new(2);
        let w = views(&[true, true, true, true]);
        let mut picked = std::collections::HashSet::new();
        for now in 0..8 {
            picked.insert(s.pick(&w, now).unwrap());
        }
        // Only the 2 oldest warps rotate while they stay ready.
        assert_eq!(picked, [0usize, 1].into_iter().collect());
    }

    #[test]
    fn two_level_promotes_on_stall() {
        let mut s = TwoLevelScheduler::new(1);
        assert_eq!(s.pick(&views(&[true, true]), 0), Some(0));
        // Warp 0 stalls: warp 1 is promoted.
        assert_eq!(s.pick(&views(&[false, true]), 1), Some(1));
    }

    #[test]
    fn factory_matches_config() {
        assert_eq!(make_policy(SchedulerPolicy::Gto).name(), "gto");
        assert_eq!(make_policy(SchedulerPolicy::Lrr).name(), "lrr");
        assert_eq!(make_policy(SchedulerPolicy::TwoLevel).name(), "two_level");
    }

    #[test]
    fn policies_are_deterministic() {
        let seq = |mut p: Box<dyn WarpSchedulerPolicy>| -> Vec<Option<usize>> {
            (0..20)
                .map(|now| {
                    let ready: Vec<bool> = (0..4).map(|i| (now + i) % 3 != 0).collect();
                    p.pick(&views(&ready), now as u64)
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
}
