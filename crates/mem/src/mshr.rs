//! Miss-status holding registers.
//!
//! An MSHR file tracks in-flight line fills. A miss to a line that already
//! has an entry *merges* into it (up to the per-entry merge limit — "8
//! maximum merge / MSHR" for the 2080 Ti L1 in Table II) instead of sending
//! a duplicate request to the next level. When the file is full, or an
//! entry's merge budget is exhausted, the access suffers a *reservation
//! failure* and must be retried — the very failure mode the paper observes
//! dominating Accel-Sim's RTX 3090 mispredictions (§IV-B3).

use crate::fasthash::FastMap;

/// Result of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// New entry allocated; the caller must forward one fill request to the
    /// next memory level.
    Allocated,
    /// Merged into an existing in-flight entry; no new downstream request.
    Merged,
    /// No entry available (file full) or merge limit reached; retry later.
    ReservationFailure,
}

#[derive(Debug, Clone)]
struct Entry {
    /// Waiter tokens to wake when the fill returns.
    waiters: Vec<u64>,
    /// Union of sectors requested by all merged misses.
    sector_mask: u8,
    /// Allocation order (monotonic), so the oldest in-flight fill can be
    /// named in deadlock diagnostics.
    allocated_seq: u64,
}

/// The MSHR file of one cache.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: FastMap<u64, Entry>,
    capacity: usize,
    max_merge: usize,
    /// Lifetime peak occupancy, reported to the Metrics Gatherer.
    peak: usize,
    merges: u64,
    reservation_failures: u64,
    /// Monotonic allocation counter feeding [`Entry::allocated_seq`].
    seq: u64,
}

impl MshrFile {
    /// Create a file with `capacity` entries and `max_merge` merged requests
    /// per entry (the allocating request counts toward the limit).
    pub fn new(capacity: u32, max_merge: u32) -> Self {
        MshrFile {
            entries: FastMap::default(),
            capacity: capacity as usize,
            max_merge: max_merge as usize,
            peak: 0,
            merges: 0,
            reservation_failures: 0,
            seq: 0,
        }
    }

    /// Present a miss for `line_addr` requesting `sector_mask`, with
    /// `waiter` woken on fill.
    pub fn allocate(&mut self, line_addr: u64, sector_mask: u8, waiter: u64) -> MshrOutcome {
        if let Some(entry) = self.entries.get_mut(&line_addr) {
            if entry.waiters.len() >= self.max_merge {
                self.reservation_failures += 1;
                return MshrOutcome::ReservationFailure;
            }
            entry.waiters.push(waiter);
            entry.sector_mask |= sector_mask;
            self.merges += 1;
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            self.reservation_failures += 1;
            return MshrOutcome::ReservationFailure;
        }
        self.entries.insert(
            line_addr,
            Entry {
                waiters: vec![waiter],
                sector_mask,
                allocated_seq: self.seq,
            },
        );
        self.seq += 1;
        self.peak = self.peak.max(self.entries.len());
        MshrOutcome::Allocated
    }

    /// Complete the fill for `line_addr`: frees the entry and returns the
    /// waiter tokens together with the union sector mask to fill.
    ///
    /// Returns `None` if no entry exists (callers treat that as a protocol
    /// bug and panic at a higher level).
    pub fn fill(&mut self, line_addr: u64) -> Option<(Vec<u64>, u8)> {
        self.entries
            .remove(&line_addr)
            .map(|e| (e.waiters, e.sector_mask))
    }

    /// Whether a fill for `line_addr` is in flight.
    pub fn contains(&self, line_addr: u64) -> bool {
        self.entries.contains_key(&line_addr)
    }

    /// Entries currently in flight.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Lifetime peak occupancy.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// Lifetime merge count.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Lifetime reservation failures.
    pub fn reservation_failures(&self) -> u64 {
        self.reservation_failures
    }

    /// The longest-outstanding in-flight line, with its waiter count —
    /// the entry a stuck simulation is most likely blocked on (deadlock
    /// diagnostics and event-engine introspection).
    pub fn oldest_line(&self) -> Option<(u64, usize)> {
        self.entries
            .iter()
            .min_by_key(|(_, e)| e.allocated_seq)
            .map(|(&line, e)| (line, e.waiters.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge_then_fill() {
        let mut m = MshrFile::new(4, 3);
        assert_eq!(m.allocate(0x1000, 0b0001, 1), MshrOutcome::Allocated);
        assert_eq!(m.allocate(0x1000, 0b0010, 2), MshrOutcome::Merged);
        assert_eq!(m.allocate(0x1000, 0b0100, 3), MshrOutcome::Merged);
        // Merge limit (3) reached.
        assert_eq!(
            m.allocate(0x1000, 0b1000, 4),
            MshrOutcome::ReservationFailure
        );
        assert!(m.contains(0x1000));
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.merges(), 2);
        assert_eq!(m.reservation_failures(), 1);

        let (waiters, mask) = m.fill(0x1000).expect("entry present");
        assert_eq!(waiters, vec![1, 2, 3]);
        assert_eq!(mask, 0b0111);
        assert!(!m.contains(0x1000));
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn capacity_limit_fails_new_lines_only() {
        let mut m = MshrFile::new(2, 8);
        assert_eq!(m.allocate(0x1000, 1, 1), MshrOutcome::Allocated);
        assert_eq!(m.allocate(0x2000, 1, 2), MshrOutcome::Allocated);
        // File full: new line fails...
        assert_eq!(m.allocate(0x3000, 1, 3), MshrOutcome::ReservationFailure);
        // ...but merging into an existing line still succeeds.
        assert_eq!(m.allocate(0x1000, 2, 4), MshrOutcome::Merged);
        assert_eq!(m.peak_occupancy(), 2);
    }

    #[test]
    fn fill_without_entry_is_none() {
        let mut m = MshrFile::new(2, 2);
        assert!(m.fill(0xdead).is_none());
    }

    #[test]
    fn oldest_line_tracks_allocation_order() {
        let mut m = MshrFile::new(4, 8);
        assert_eq!(m.oldest_line(), None);
        m.allocate(0x2000, 1, 1);
        m.allocate(0x1000, 1, 2);
        m.allocate(0x1000, 2, 3); // merge does not change age
        assert_eq!(m.oldest_line(), Some((0x2000, 1)));
        m.fill(0x2000);
        assert_eq!(m.oldest_line(), Some((0x1000, 2)));
    }

    #[test]
    fn distinct_lines_use_distinct_entries() {
        let mut m = MshrFile::new(8, 1);
        for i in 0..5u64 {
            assert_eq!(m.allocate(i * 0x80, 1, i), MshrOutcome::Allocated);
        }
        assert_eq!(m.occupancy(), 5);
        // max_merge = 1: the allocating request exhausts the budget.
        assert_eq!(m.allocate(0, 1, 99), MshrOutcome::ReservationFailure);
    }
}
