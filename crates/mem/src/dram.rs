//! DRAM channel model.
//!
//! Each of the GPU's memory partitions (22 on the RTX 2080 Ti, Table II)
//! owns one DRAM channel. The model is latency + bandwidth + bounded
//! queueing: every sector transaction pays the fixed access latency (227
//! core cycles on the 2080 Ti) and channels issue at most one transaction
//! every `cycles_per_txn` cycles, so bursts queue up and see contention —
//! the "additional latency due to resource contention" that both the
//! cycle-accurate and analytical memory models must account for (§III-D2).

use crate::Cycle;

/// Lifetime counters of one DRAM channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // self-describing counters
pub struct DramStats {
    pub reads: u64,
    pub writes: u64,
    pub queued_cycles: u64,
    pub busy_cycles: u64,
    pub rejections: u64,
}

impl DramStats {
    /// Average queueing delay per serviced transaction, in cycles.
    pub fn avg_queue_delay(&self) -> f64 {
        let served = self.reads + self.writes;
        if served == 0 {
            return 0.0;
        }
        self.queued_cycles as f64 / served as f64
    }
}

/// One DRAM channel: fixed access latency, issue bandwidth, bounded queue.
#[derive(Debug, Clone)]
pub struct DramChannel {
    latency: Cycle,
    cycles_per_txn: Cycle,
    queue_depth: usize,
    /// Cycle at which the channel can start its next transaction.
    next_free: Cycle,
    /// Completion times of in-flight transactions (ascending).
    in_flight: std::collections::VecDeque<Cycle>,
    stats: DramStats,
}

impl DramChannel {
    /// Create a channel with the given access latency, issue interval, and
    /// queue depth.
    pub fn new(latency: u32, cycles_per_txn: u32, queue_depth: u32) -> Self {
        DramChannel {
            latency: Cycle::from(latency),
            cycles_per_txn: Cycle::from(cycles_per_txn),
            queue_depth: queue_depth as usize,
            next_free: 0,
            in_flight: std::collections::VecDeque::new(),
            stats: DramStats::default(),
        }
    }

    /// Submit one sector transaction at cycle `now`.
    ///
    /// Returns the completion cycle, or `None` if the queue is full (the
    /// caller must retry; this back-pressure propagates up the hierarchy).
    pub fn submit(&mut self, write: bool, now: Cycle) -> Option<Cycle> {
        self.drain(now);
        if self.in_flight.len() >= self.queue_depth {
            self.stats.rejections += 1;
            return None;
        }
        let start = now.max(self.next_free);
        self.stats.queued_cycles += start - now;
        self.next_free = start + self.cycles_per_txn;
        self.stats.busy_cycles += self.cycles_per_txn;
        let done = start + self.latency;
        self.in_flight.push_back(done);
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        Some(done)
    }

    /// Retire transactions whose completion time has passed.
    fn drain(&mut self, now: Cycle) {
        while let Some(&front) = self.in_flight.front() {
            if front <= now {
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
    }

    /// Transactions currently outstanding at cycle `now`.
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.drain(now);
        self.in_flight.len()
    }

    /// Earliest cycle at which a submission could be accepted; rejected
    /// senders use this to schedule their retry instead of polling every
    /// cycle.
    pub fn earliest_accept(&mut self, now: Cycle) -> Cycle {
        self.drain(now);
        if self.in_flight.len() < self.queue_depth {
            now
        } else {
            self.in_flight.front().copied().unwrap_or(now) + 1
        }
    }

    /// Completion time of the oldest in-flight transaction, if any — the
    /// channel's next-event hint for event-driven engines (completions
    /// retire in submission order).
    pub fn next_completion(&self) -> Option<Cycle> {
        self.in_flight.front().copied()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_latency() {
        let mut d = DramChannel::new(227, 2, 64);
        assert_eq!(d.submit(false, 100), Some(327));
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().queued_cycles, 0);
    }

    #[test]
    fn bandwidth_serializes_bursts() {
        let mut d = DramChannel::new(100, 2, 64);
        // Four transactions in the same cycle: starts 0, 2, 4, 6.
        let done: Vec<Cycle> = (0..4).map(|_| d.submit(false, 0).unwrap()).collect();
        assert_eq!(done, vec![100, 102, 104, 106]);
        assert_eq!(d.stats().queued_cycles, 2 + 4 + 6);
        assert!((d.stats().avg_queue_delay() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn queue_full_rejects() {
        let mut d = DramChannel::new(1000, 1, 2);
        assert!(d.submit(false, 0).is_some());
        assert!(d.submit(false, 0).is_some());
        assert!(d.submit(false, 0).is_none());
        assert_eq!(d.stats().rejections, 1);
        // After completions drain, submissions succeed again.
        assert!(d.submit(false, 2000).is_some());
    }

    #[test]
    fn occupancy_drains_over_time() {
        let mut d = DramChannel::new(50, 1, 8);
        d.submit(false, 0);
        d.submit(true, 0);
        assert_eq!(d.occupancy(10), 2);
        assert_eq!(d.occupancy(60), 0);
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn idle_channel_restarts_cleanly() {
        let mut d = DramChannel::new(100, 4, 8);
        d.submit(false, 0);
        // Long idle gap: next submission is not penalized.
        assert_eq!(d.submit(false, 10_000), Some(10_100));
        assert_eq!(d.stats().queued_cycles, 0);
    }
}
