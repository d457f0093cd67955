//! A complete banked sector cache: tag array + MSHR file + bank timing.
//!
//! One [`SectorCache`] instance models the per-SM L1 data cache; another
//! (one per memory partition) models an L2 slice. Behavioral differences —
//! streaming allocate-on-fill vs allocate-on-miss, write-through vs
//! write-back, no-write-allocate vs write-allocate — all come from the
//! [`CacheConfig`], so exploring cache policies (one of the paper's
//! motivating use cases) only requires editing the configuration file.

use crate::coalesce::MemTxn;
use crate::fasthash::FastMap;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::tag_array::{LineState, Probe, TagArray};
use crate::Cycle;
use swiftsim_config::{AllocPolicy, CacheConfig, CacheWriteAllocate, CacheWritePolicy};

/// Outcome of one cache access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessOutcome {
    /// All requested sectors present. `ready_at` is when data returns;
    /// `downstream_write` carries the forwarded store for write-through
    /// caches.
    Hit {
        /// Cycle at which the data is available to the requester.
        ready_at: Cycle,
        /// Write-through traffic to forward to the next level, if any.
        downstream_write: Option<MemTxn>,
    },
    /// Miss: an MSHR entry was allocated and `fetch` must be forwarded to
    /// the next level. The requester's `waiter` token is woken by
    /// [`SectorCache::fill`].
    Miss {
        /// The fetch to forward downstream.
        fetch: MemTxn,
        /// Write-through traffic to forward alongside the fetch, if any.
        downstream_write: Option<MemTxn>,
    },
    /// Miss merged into an in-flight MSHR entry: no downstream traffic, the
    /// waiter is woken by the already-pending fill.
    MissMerged {
        /// Write-through traffic to forward, if any.
        downstream_write: Option<MemTxn>,
    },
    /// A store handled without allocation (write-through +
    /// no-write-allocate): the store is simply forwarded downstream and the
    /// warp does not wait for it.
    WriteForwarded {
        /// The store to forward downstream.
        forward: MemTxn,
    },
    /// The access could not be accepted this cycle (MSHR full, merge limit
    /// hit, or every way in the set reserved). The requester must retry.
    ReservationFailure,
}

/// An evicted dirty line that must be written back downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line-aligned address of the victim.
    pub line_addr: u64,
    /// Dirty sectors to write out.
    pub dirty_mask: u8,
}

/// Result of completing a fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillResult {
    /// Waiter tokens registered by [`SectorCache::access`] for this line.
    pub waiters: Vec<u64>,
    /// Dirty victim to write back downstream, if the fill evicted one.
    pub writeback: Option<EvictedLine>,
}

/// Hot-path counters, reported to the Metrics Gatherer after simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // self-describing counters
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    pub merged_misses: u64,
    pub write_forwards: u64,
    pub reservation_failures: u64,
    pub bank_conflicts: u64,
    pub bank_stall_cycles: u64,
    pub writebacks: u64,
    pub fills: u64,
}

impl CacheStats {
    /// Miss rate over demand accesses (misses + merged misses over all
    /// demand accesses that probed the tags).
    pub fn miss_rate(&self) -> f64 {
        let demand = self.hits + self.misses + self.merged_misses;
        if demand == 0 {
            return 0.0;
        }
        (self.misses + self.merged_misses) as f64 / demand as f64
    }
}

/// A banked, sectored, MSHR-backed cache.
#[derive(Debug, Clone)]
pub struct SectorCache {
    tags: TagArray,
    mshr: MshrFile,
    latency: Cycle,
    alloc: AllocPolicy,
    write_policy: CacheWritePolicy,
    write_allocate: CacheWriteAllocate,
    bank_free_at: Vec<Cycle>,
    /// Sectors to mark dirty when a write-allocate fill returns.
    pending_dirty: FastMap<u64, u8>,
    /// Dirty victims evicted at allocation time (allocate-on-miss caches),
    /// surfaced with the next fill.
    staged_writebacks: Vec<EvictedLine>,
    stats: CacheStats,
}

impl SectorCache {
    /// Build a cache from its configuration. `seed` feeds the Random
    /// replacement policy (deterministic per seed).
    pub fn new(cfg: &CacheConfig, seed: u64) -> Self {
        SectorCache {
            tags: TagArray::new(cfg, seed),
            mshr: MshrFile::new(cfg.mshr_entries, cfg.mshr_max_merge),
            latency: Cycle::from(cfg.latency),
            alloc: cfg.alloc,
            write_policy: cfg.write_policy,
            write_allocate: cfg.write_allocate,
            bank_free_at: vec![0; cfg.banks as usize],
            pending_dirty: FastMap::default(),
            staged_writebacks: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Present one coalesced transaction to the cache at cycle `now`.
    /// `waiter` identifies the requester; it is returned by the matching
    /// [`SectorCache::fill`] so the caller can wake the stalled warp.
    pub fn access(&mut self, txn: MemTxn, waiter: u64, now: Cycle) -> AccessOutcome {
        self.stats.accesses += 1;

        // Bank arbitration: the transaction occupies its bank for one cycle.
        let bank = self
            .tags
            .mapping()
            .bank_index(txn.line_addr | lowest_sector_offset(txn));
        let start = now.max(self.bank_free_at[bank]);
        if start > now {
            self.stats.bank_conflicts += 1;
            self.stats.bank_stall_cycles += start - now;
        }

        let probe = self.tags.probe(txn.line_addr, txn.sector_mask, start);

        if txn.write {
            return self.handle_write(txn, waiter, probe, bank, start);
        }

        match probe {
            Probe::Hit { .. } => {
                self.bank_free_at[bank] = start + 1;
                self.stats.hits += 1;
                AccessOutcome::Hit {
                    ready_at: start + self.latency,
                    downstream_write: None,
                }
            }
            Probe::SectorMiss { .. } | Probe::LineMiss => {
                self.handle_read_miss(txn, waiter, probe, bank, start)
            }
        }
    }

    fn handle_read_miss(
        &mut self,
        txn: MemTxn,
        waiter: u64,
        probe: Probe,
        bank: usize,
        start: Cycle,
    ) -> AccessOutcome {
        // For allocate-on-miss caches a brand-new line needs a way *and* an
        // MSHR entry; check the way first without committing.
        if self.alloc == AllocPolicy::OnMiss
            && matches!(probe, Probe::LineMiss)
            && !self.mshr.contains(txn.line_addr)
        {
            // Tentatively allocate; failure = every way reserved.
            match self.tags.allocate(txn.line_addr, true, start) {
                Some(victim) => {
                    if let Some(evicted) = victim.evicted_line {
                        if victim.dirty_mask != 0 {
                            // Dirty eviction at allocation time: surfaced to
                            // the caller with the next fill.
                            self.staged_writebacks.push(EvictedLine {
                                line_addr: evicted,
                                dirty_mask: victim.dirty_mask,
                            });
                        }
                    }
                }
                None => {
                    self.stats.reservation_failures += 1;
                    return AccessOutcome::ReservationFailure;
                }
            }
        }

        match self.mshr.allocate(txn.line_addr, txn.sector_mask, waiter) {
            MshrOutcome::Allocated => {
                self.bank_free_at[bank] = start + 1;
                self.stats.misses += 1;
                AccessOutcome::Miss {
                    fetch: MemTxn {
                        write: false,
                        ..txn
                    },
                    downstream_write: None,
                }
            }
            MshrOutcome::Merged => {
                self.bank_free_at[bank] = start + 1;
                self.stats.merged_misses += 1;
                AccessOutcome::MissMerged {
                    downstream_write: None,
                }
            }
            MshrOutcome::ReservationFailure => {
                self.stats.reservation_failures += 1;
                AccessOutcome::ReservationFailure
            }
        }
    }

    fn handle_write(
        &mut self,
        txn: MemTxn,
        waiter: u64,
        probe: Probe,
        bank: usize,
        start: Cycle,
    ) -> AccessOutcome {
        match self.write_policy {
            CacheWritePolicy::WriteThrough => {
                // Update the line on hit, forward the store regardless.
                if matches!(probe, Probe::Hit { .. } | Probe::SectorMiss { .. })
                    && self.tags.line_state(txn.line_addr).map(|(s, _)| s) == Some(LineState::Valid)
                {
                    // Refresh written sectors as valid (write-validate).
                    self.tags.fill(txn.line_addr, txn.sector_mask, start);
                }
                self.bank_free_at[bank] = start + 1;
                if matches!(probe, Probe::Hit { .. }) {
                    self.stats.hits += 1;
                    AccessOutcome::Hit {
                        ready_at: start + self.latency,
                        downstream_write: Some(txn),
                    }
                } else {
                    self.stats.write_forwards += 1;
                    AccessOutcome::WriteForwarded { forward: txn }
                }
            }
            CacheWritePolicy::WriteBack => match probe {
                Probe::Hit { .. } => {
                    self.tags.mark_dirty(txn.line_addr, txn.sector_mask);
                    self.bank_free_at[bank] = start + 1;
                    self.stats.hits += 1;
                    AccessOutcome::Hit {
                        ready_at: start + self.latency,
                        downstream_write: None,
                    }
                }
                Probe::SectorMiss { .. } | Probe::LineMiss => {
                    if self.write_allocate == CacheWriteAllocate::NoWriteAllocate {
                        self.bank_free_at[bank] = start + 1;
                        self.stats.write_forwards += 1;
                        return AccessOutcome::WriteForwarded { forward: txn };
                    }
                    // Fetch-on-write: allocate like a read miss, remember to
                    // dirty the written sectors when the fill lands.
                    let outcome = self.handle_read_miss(
                        MemTxn {
                            write: false,
                            ..txn
                        },
                        waiter,
                        probe,
                        bank,
                        start,
                    );
                    if !matches!(outcome, AccessOutcome::ReservationFailure) {
                        *self.pending_dirty.entry(txn.line_addr).or_insert(0) |= txn.sector_mask;
                    }
                    outcome
                }
            },
        }
    }

    /// Complete the in-flight fill for `line_addr` at cycle `now`.
    ///
    /// Returns the waiters to wake and, possibly, a dirty victim to write
    /// back downstream.
    ///
    /// # Panics
    ///
    /// Panics if no fill is in flight for `line_addr` — that is a protocol
    /// violation by the caller.
    pub fn fill(&mut self, line_addr: u64, now: Cycle) -> FillResult {
        let (waiters, sector_mask) = self
            .mshr
            .fill(line_addr)
            .unwrap_or_else(|| panic!("fill for line {line_addr:#x} with no MSHR entry"));
        self.stats.fills += 1;

        let mut writeback = self.staged_writebacks.pop();

        match self.alloc {
            AllocPolicy::OnMiss => {
                // Usually the way was reserved at miss time. A *sector*
                // miss, however, targets an already-valid line, and that
                // line may have been evicted while the fill was in flight —
                // re-allocate it (or, if every way is reserved, serve the
                // waiters without caching the data).
                if self.tags.line_state(line_addr).is_none() {
                    if let Some(victim) = self.tags.allocate(line_addr, false, now) {
                        if let Some(evicted) = victim.evicted_line {
                            if victim.dirty_mask != 0 {
                                writeback = Some(EvictedLine {
                                    line_addr: evicted,
                                    dirty_mask: victim.dirty_mask,
                                });
                            }
                        }
                    }
                }
                if self.tags.line_state(line_addr).is_some() {
                    self.tags.fill(line_addr, sector_mask, now);
                }
            }
            AllocPolicy::OnFill => {
                // Allocate now; on-fill caches have no reserved lines so a
                // victim always exists.
                let victim = self
                    .tags
                    .allocate(line_addr, false, now)
                    .expect("allocate-on-fill cache always has a victim");
                if let (Some(evicted), true) = (victim.evicted_line, victim.dirty_mask != 0) {
                    writeback = Some(EvictedLine {
                        line_addr: evicted,
                        dirty_mask: victim.dirty_mask,
                    });
                }
                self.tags.fill(line_addr, sector_mask, now);
            }
        }

        if let Some(dirty) = self.pending_dirty.remove(&line_addr) {
            // The line may have bypassed caching above (every way reserved);
            // the dirty data then goes straight back downstream.
            if matches!(self.tags.line_state(line_addr), Some((LineState::Valid, _))) {
                self.tags.mark_dirty(line_addr, dirty);
            } else if writeback.is_none() {
                writeback = Some(EvictedLine {
                    line_addr,
                    dirty_mask: dirty,
                });
            }
        }
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        FillResult { waiters, writeback }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        let mut s = self.stats;
        s.merged_misses = self.mshr.merges();
        s
    }

    /// In-flight MSHR occupancy (for the Metrics Gatherer and tests).
    pub fn mshr_occupancy(&self) -> usize {
        self.mshr.occupancy()
    }

    /// The longest-outstanding in-flight MSHR line and its waiter count,
    /// for deadlock diagnostics.
    pub fn oldest_mshr_line(&self) -> Option<(u64, usize)> {
        self.mshr.oldest_line()
    }

    /// The cache's address mapping.
    pub fn mapping(&self) -> &crate::AddressMapping {
        self.tags.mapping()
    }
}

/// Offset of the lowest requested sector, used for bank selection.
fn lowest_sector_offset(txn: MemTxn) -> u64 {
    u64::from(txn.sector_mask.trailing_zeros()) * 32
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;

    fn l1() -> SectorCache {
        SectorCache::new(&presets::rtx2080ti().sm.l1d, 0)
    }

    fn l2() -> SectorCache {
        SectorCache::new(&presets::rtx2080ti().memory.l2, 0)
    }

    fn read(line: u64, sectors: u8) -> MemTxn {
        MemTxn {
            line_addr: line,
            sector_mask: sectors,
            write: false,
        }
    }

    fn write(line: u64, sectors: u8) -> MemTxn {
        MemTxn {
            line_addr: line,
            sector_mask: sectors,
            write: true,
        }
    }

    #[test]
    fn read_miss_fill_hit() {
        let mut c = l1();
        let out = c.access(read(0x1000, 0b0001), 7, 0);
        let AccessOutcome::Miss { fetch, .. } = out else {
            panic!("expected miss, got {out:?}");
        };
        assert_eq!(fetch.line_addr, 0x1000);
        assert!(!fetch.write);

        let fill = c.fill(0x1000, 100);
        assert_eq!(fill.waiters, vec![7]);
        assert!(fill.writeback.is_none());

        let out = c.access(read(0x1000, 0b0001), 8, 101);
        assert!(matches!(out, AccessOutcome::Hit { ready_at, .. } if ready_at == 101 + 32));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn second_miss_merges() {
        let mut c = l1();
        assert!(matches!(
            c.access(read(0x1000, 0b0001), 1, 0),
            AccessOutcome::Miss { .. }
        ));
        assert!(matches!(
            c.access(read(0x1000, 0b0010), 2, 1),
            AccessOutcome::MissMerged { .. }
        ));
        let fill = c.fill(0x1000, 50);
        assert_eq!(fill.waiters, vec![1, 2]);
        // Both sectors are now valid.
        assert!(matches!(
            c.access(read(0x1000, 0b0011), 3, 51),
            AccessOutcome::Hit { .. }
        ));
    }

    #[test]
    fn sector_miss_on_valid_line() {
        let mut c = l1();
        c.access(read(0x1000, 0b0001), 1, 0);
        c.fill(0x1000, 10);
        // Same line, different sector: miss again (sectored behavior).
        assert!(matches!(
            c.access(read(0x1000, 0b1000), 2, 11),
            AccessOutcome::Miss { .. }
        ));
    }

    #[test]
    fn write_through_l1_forwards_stores() {
        let mut c = l1();
        // Write miss: forwarded, no allocation, no MSHR.
        let out = c.access(write(0x2000, 0b0001), 1, 0);
        let AccessOutcome::WriteForwarded { forward } = out else {
            panic!("expected forward, got {out:?}");
        };
        assert!(forward.write);
        assert_eq!(c.mshr_occupancy(), 0);

        // Fill the line via a read, then a write hit still forwards.
        c.access(read(0x2000, 0b0001), 2, 1);
        c.fill(0x2000, 20);
        let out = c.access(write(0x2000, 0b0001), 3, 21);
        assert!(
            matches!(out, AccessOutcome::Hit { downstream_write: Some(w), .. } if w.write),
            "write-through hit must forward the store"
        );
    }

    #[test]
    fn write_back_l2_dirties_and_writes_back() {
        let mut cfg = presets::rtx2080ti().memory.l2;
        cfg.sets = 2;
        cfg.ways = 1;
        let mut c = SectorCache::new(&cfg, 0);

        // Write miss with write-allocate: fetches the line.
        let out = c.access(write(0x0000, 0b0001), 1, 0);
        assert!(matches!(out, AccessOutcome::Miss { fetch, .. } if !fetch.write));
        c.fill(0x0000, 10);

        // Evicting the dirty line (same set: 2 sets of 128 B lines → +0x100)
        // must produce a writeback.
        let out = c.access(read(0x0100, 0b0001), 2, 11);
        assert!(matches!(out, AccessOutcome::Miss { .. }));
        let fill = c.fill(0x0100, 200);
        let wb = fill.writeback.expect("dirty line written back");
        assert_eq!(wb.line_addr, 0x0000);
        assert_eq!(wb.dirty_mask, 0b0001);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_back_hit_does_not_go_downstream() {
        let mut c = l2();
        c.access(read(0x3000, 0b0001), 1, 0);
        c.fill(0x3000, 10);
        let out = c.access(write(0x3000, 0b0001), 2, 11);
        assert!(matches!(
            out,
            AccessOutcome::Hit {
                downstream_write: None,
                ..
            }
        ));
    }

    #[test]
    fn mshr_exhaustion_is_reservation_failure() {
        let mut cfg = presets::rtx2080ti().sm.l1d;
        cfg.mshr_entries = 2;
        cfg.mshr_max_merge = 1;
        let mut c = SectorCache::new(&cfg, 0);
        assert!(matches!(
            c.access(read(0x0000, 1), 1, 0),
            AccessOutcome::Miss { .. }
        ));
        assert!(matches!(
            c.access(read(0x1000, 1), 2, 0),
            AccessOutcome::Miss { .. }
        ));
        assert!(matches!(
            c.access(read(0x2000, 1), 3, 0),
            AccessOutcome::ReservationFailure
        ));
        assert_eq!(c.stats().reservation_failures, 1);
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut c = l1();
        // Two transactions to the same bank (same sector offset) in the same
        // cycle: the second stalls.
        c.access(read(0x0000, 0b0001), 1, 0);
        c.access(read(0x8000, 0b0001), 2, 0);
        let s = c.stats();
        assert_eq!(s.bank_conflicts, 1);
        assert!(s.bank_stall_cycles >= 1);

        // Different banks in the same cycle: no new conflict.
        let mut c2 = l1();
        c2.access(read(0x0000, 0b0001), 1, 0);
        c2.access(read(0x0000, 0b0010), 2, 0);
        assert_eq!(c2.stats().bank_conflicts, 0);
    }

    #[test]
    fn miss_rate_counts_merges() {
        let mut c = l1();
        c.access(read(0x0000, 1), 1, 0);
        c.access(read(0x0000, 1), 2, 0); // merged
        c.fill(0x0000, 10);
        c.access(read(0x0000, 1), 3, 11); // hit
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.merged_misses, 1);
        assert_eq!(s.hits, 1);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no MSHR entry")]
    fn fill_without_miss_panics() {
        let mut c = l1();
        c.fill(0x1234, 0);
    }

    #[test]
    fn streaming_l1_never_tag_reservation_fails() {
        // Allocate-on-fill: misses don't reserve ways, so a tiny cache with
        // a big MSHR can have unbounded outstanding lines.
        let mut cfg = presets::rtx2080ti().sm.l1d;
        cfg.sets = 2;
        cfg.ways = 1;
        let mut c = SectorCache::new(&cfg, 0);
        for i in 0..16u64 {
            let out = c.access(read(i * 0x80, 1), i, 0);
            assert!(
                matches!(out, AccessOutcome::Miss { .. }),
                "access {i} gave {out:?}"
            );
        }
        for i in 0..16u64 {
            c.fill(i * 0x80, 100 + i);
        }
        assert_eq!(c.stats().fills, 16);
    }
}
