//! The view-based policies the mask-native ones in the parent module
//! replaced, kept as the oracle the differential test compares them with.
//! Everything below the imports is the earlier implementation as it was,
//! so a disagreement is a behaviour change of the new code, not of this one.

#![allow(dead_code, unreachable_pub)]

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
