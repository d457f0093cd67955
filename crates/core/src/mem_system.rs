//! Memory-access models: the cycle-accurate hierarchy walk and the
//! analytical model of §III-D2 (Eq. 1).
//!
//! Both implement [`MemorySystem`], the fixed interface the LD/ST units
//! program against: *"the memory requests will be sent to the cache through
//! the LD/ST units"* and the unit only needs an instruction-completion
//! acknowledgment back (§III-B2). Swapping the implementation is exactly
//! the Swift-Sim-Basic → Swift-Sim-Memory step of the paper.
//!
//! * [`CycleAccurateMemory`] (`walk.rs`) walks every request through the
//!   per-SM L1, the SM↔L2 interconnect, the banked L2 slices, and the
//!   partitioned DRAM channels, with MSHR merging, reservation-failure
//!   retries, back-pressure (one refused-message queue per link: forward
//!   NoC, reply NoC, DRAM), and dirty writebacks — event-accurately
//!   ordered.
//!   Events pop in `(cycle, scheduling order)` order from a calendar queue
//!   (`calendar.rs`: per-cycle lists over a 1024-cycle window, an overflow
//!   heap beyond it, migrated the moment a cycle enters the window), and a
//!   request's token is its slot in a free-list slab (`slab.rs`). So tokens
//!   are opaque keys, live from [`MemReply::Pending`] to their one
//!   [`MemCompletion`] and reused after it, never ordered by issue time.
//!   DESIGN.md, "Cycle-accurate memory walk", states the contracts.
//! * [`AnalyticalMemory`] (`analytical.rs`) computes the expected latency
//!   of each load/store PC as `L_inst = L_L1·R_L1 + L_L2·R_L2 +
//!   L_DRAM·R_DRAM` (Eq. 1), then adds only the *additional latency due to
//!   resource contention* — modeled from the SM's outstanding-request
//!   count. The per-PC hit rates come from one pre-pass (`prepass.rs`)
//!   over a functional cache simulator or a reuse-distance tool.

use crate::Cycle;
use swiftsim_mem::{AddressMapping, MemTxn};
use swiftsim_metrics::{MetricsCollector, Profiler};
use swiftsim_trace::{AddressView, MemInstRef};

mod analytical;
pub(crate) mod calendar;
mod prepass;
mod slab;
mod walk;

pub use analytical::{AnalyticalMemory, LatencyTerms};
pub(crate) use prepass::build_analytical_memory;
pub use prepass::build_analytical_memory_for;
pub use walk::CycleAccurateMemory;

/// Reply to a warp-level memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemReply {
    /// Completion time known immediately (all transactions hit, or the
    /// model is analytical).
    Done(Cycle),
    /// Completion will be delivered by [`MemorySystem::advance`] under the
    /// returned token.
    Pending(u64),
}

/// A completed pending access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCompletion {
    /// Token from [`MemReply::Pending`].
    pub token: u64,
    /// Cycle at which the data is available.
    pub at: Cycle,
}

/// The memory-access interface of the framework.
pub trait MemorySystem: Send {
    /// Whether SM `sm`'s LD/ST path can accept another instruction right
    /// now. When false, the Warp Scheduler must stall memory instructions
    /// (a memory-pipeline-full structural stall, as in Accel-Sim).
    fn can_accept(&self, sm: usize) -> bool {
        let _ = sm;
        true
    }

    /// Issue one warp memory instruction from SM `sm` at PC `pc`, already
    /// coalesced into `txns`, at cycle `now`.
    fn access(&mut self, sm: usize, pc: u32, txns: &[MemTxn], now: Cycle) -> MemReply;

    /// Advance internal state to `now`, appending finished pending accesses
    /// to `completions`.
    fn advance(&mut self, now: Cycle, completions: &mut Vec<MemCompletion>);

    /// Earliest cycle at which internal state changes, if any (lets the
    /// event-driven engine fast-forward over idle spans).
    fn next_event(&self) -> Option<Cycle>;

    /// Describe the oldest in-flight request (and, when known, the MSHR
    /// entry or DRAM transaction it waits on), for deadlock diagnostics.
    /// Default: nothing to report.
    fn oldest_pending(&self) -> Option<String> {
        None
    }

    /// Report counters to the Metrics Gatherer.
    fn report(&self, collector: &mut MetricsCollector);

    /// Model name for metrics.
    fn name(&self) -> &'static str;

    /// Enable self-profiling. Models that cannot attribute their own time
    /// ignore this (the default).
    fn set_profiling(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Flush wall-time/cycle attribution accumulated since the last call
    /// into `prof`, under the memory-side modules (L1/NoC/L2/DRAM or the
    /// analytical model). Called once per kernel while the kernel's
    /// profiling frame is open. Default: no attribution.
    fn report_profile(&mut self, prof: &mut Profiler) {
        let _ = prof;
    }

    /// Verify that nothing is in flight — no event, request, queued message
    /// or MSHR entry — as must hold at every kernel end, where the engines
    /// check it in debug builds. Default: nothing to check.
    ///
    /// # Errors
    ///
    /// Names the first live piece of state found.
    fn check_quiescent(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The buffer every memory instruction of a trace is coalesced into — by
/// the LD/ST issue path and by the analytical pre-pass — so neither
/// allocates per instruction.
#[derive(Debug, Default)]
pub(crate) struct CoalesceScratch {
    txns: Vec<MemTxn>,
}

impl CoalesceScratch {
    /// The line transactions of `inst`, or `None` when it is not a global
    /// or local memory access (the only spaces the hierarchy serves).
    pub(crate) fn coalesce(
        &mut self,
        mapping: &AddressMapping,
        inst: &swiftsim_trace::InstView<'_>,
    ) -> Option<&[MemTxn]> {
        let inst = MemInstRef::of(0, inst)?;
        Some(self.coalesce_ref(mapping, &inst))
    }

    /// The line transactions of a global or local memory instruction,
    /// coalesced from its borrowed addresses.
    pub(crate) fn coalesce_ref(
        &mut self,
        mapping: &AddressMapping,
        inst: &MemInstRef<'_>,
    ) -> &[MemTxn] {
        match inst.addresses {
            AddressView::Strided { base, stride } => swiftsim_mem::coalesce_strided_into(
                mapping,
                base,
                stride,
                inst.active_lanes(),
                inst.width,
                inst.write,
                &mut self.txns,
            ),
            AddressView::Explicit(addrs) => swiftsim_mem::coalesce_accesses_into(
                mapping,
                addrs,
                inst.width,
                inst.write,
                &mut self.txns,
            ),
        }
        &self.txns
    }
}

#[cfg(test)]
mod tests {
    use super::analytical::Outstanding;
    use super::*;
    use std::collections::HashMap;
    use swiftsim_config::{presets, GpuConfig};
    use swiftsim_mem::PcHitRates;

    pub(super) fn small_cfg() -> GpuConfig {
        let mut cfg = presets::rtx2080ti();
        cfg.num_sms = 2;
        cfg.memory.partitions = 2;
        cfg
    }

    fn read(line: u64) -> MemTxn {
        MemTxn {
            line_addr: line,
            sector_mask: 0b0001,
            write: false,
        }
    }

    fn drain(mem: &mut CycleAccurateMemory, until: Cycle) -> Vec<MemCompletion> {
        let mut out = Vec::new();
        let mut now = 0;
        while now <= until {
            match mem.next_event() {
                Some(t) if t <= until => now = t,
                _ => break,
            }
            mem.advance(now, &mut out);
        }
        out
    }

    #[test]
    fn cold_load_misses_all_the_way_to_dram() {
        let cfg = small_cfg();
        let mut mem = CycleAccurateMemory::new(&cfg);
        let reply = mem.access(0, 0x10, &[read(0x1000)], 0);
        let MemReply::Pending(token) = reply else {
            panic!("cold load must be pending, got {reply:?}");
        };
        let done = drain(&mut mem, 100_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, token);
        // Must pay at least NoC + DRAM + NoC.
        let floor = Cycle::from(2 * cfg.noc.latency + cfg.memory.dram_latency);
        assert!(done[0].at >= floor, "{} < {floor}", done[0].at);
    }

    #[test]
    fn warm_load_hits_in_l1() {
        let cfg = small_cfg();
        let mut mem = CycleAccurateMemory::new(&cfg);
        mem.access(0, 0x10, &[read(0x1000)], 0);
        drain(&mut mem, 100_000);
        let reply = mem.access(0, 0x10, &[read(0x1000)], 10_000);
        assert!(
            matches!(reply, MemReply::Done(at) if at == 10_000 + Cycle::from(cfg.sm.l1d.latency)),
            "second access must be an L1 hit, got {reply:?}"
        );
        let mut c = MetricsCollector::new();
        mem.report(&mut c);
        assert_eq!(c.count("mem.l1.hits"), Some(1));
    }

    #[test]
    fn cross_sm_reuse_hits_l2() {
        let cfg = small_cfg();
        let mut mem = CycleAccurateMemory::new(&cfg);
        mem.access(0, 0x10, &[read(0x1000)], 0);
        drain(&mut mem, 100_000);
        let reply = mem.access(1, 0x10, &[read(0x1000)], 10_000);
        let MemReply::Pending(_) = reply else {
            panic!("L1 of SM1 is cold");
        };
        let done = drain(&mut mem, 200_000);
        assert_eq!(done.len(), 1);
        // Served by L2: faster than DRAM path, slower than L1.
        let dram_floor = Cycle::from(cfg.memory.dram_latency);
        assert!(done[0].at - 10_000 < dram_floor + 300);
        assert!(mem.l2_miss_rate() < 1.0);
    }

    #[test]
    fn stores_complete_immediately() {
        let cfg = small_cfg();
        let mut mem = CycleAccurateMemory::new(&cfg);
        let w = MemTxn {
            line_addr: 0x2000,
            sector_mask: 1,
            write: true,
        };
        let reply = mem.access(0, 0x20, &[w], 0);
        assert!(matches!(reply, MemReply::Done(_)));
        // The store still generates downstream traffic.
        drain(&mut mem, 100_000);
        let mut collector = MetricsCollector::new();
        mem.report(&mut collector);
        assert!(collector.count("mem.dram.writes").unwrap_or(0) <= 1);
    }

    #[test]
    fn multi_txn_load_completes_once() {
        let cfg = small_cfg();
        let mut mem = CycleAccurateMemory::new(&cfg);
        let reply = mem.access(0, 0x30, &[read(0x1000), read(0x9000), read(0x5000)], 0);
        let MemReply::Pending(token) = reply else {
            panic!()
        };
        let done = drain(&mut mem, 1_000_000);
        assert_eq!(done.len(), 1, "exactly one completion for the instruction");
        assert_eq!(done[0].token, token);
    }

    #[test]
    fn analytical_matches_eq1() {
        let cfg = small_cfg();
        let terms = LatencyTerms::from_config(&cfg);
        let rates = PcHitRates {
            l1: 0.5,
            l2: 0.3,
            dram: 0.2,
        };
        let expect = 0.5 * terms.l1 + 0.3 * terms.l2 + 0.2 * terms.dram;
        assert!((terms.expected_latency(rates) - expect).abs() < 1e-9);

        let mut table = HashMap::new();
        table.insert(0x40u32, rates);
        let mut mem = AnalyticalMemory::new(&cfg, &table);
        let MemReply::Done(at) = mem.access(0, 0x40, &[read(0x0)], 100) else {
            panic!("analytical accesses always complete immediately")
        };
        assert_eq!(at, 100 + expect.round() as Cycle);
    }

    #[test]
    fn analytical_unknown_pc_uses_dram_latency() {
        let cfg = small_cfg();
        let mem = AnalyticalMemory::new(&cfg, &HashMap::new());
        let terms = mem.terms();
        assert!((mem.latency_of(0x999) - terms.dram).abs() < 1e-9);
    }

    #[test]
    fn analytical_contention_grows_with_outstanding() {
        let cfg = small_cfg();
        let mut mem = AnalyticalMemory::new(&cfg, &HashMap::new());
        let MemReply::Done(first) = mem.access(0, 1, &[read(0)], 0) else {
            panic!()
        };
        // Pile on more accesses in the same cycle: later ones see pressure.
        let mut last = first;
        for i in 1..20u64 {
            let MemReply::Done(at) = mem.access(0, 1, &[read(i * 0x80)], 0) else {
                panic!()
            };
            assert!(at >= last, "latency must not shrink under load");
            last = at;
        }
        assert!(last > first, "contention adder must kick in");
        // A different SM is unaffected.
        let MemReply::Done(other) = mem.access(1, 1, &[read(0)], 0) else {
            panic!()
        };
        assert_eq!(other, first);
    }

    #[test]
    fn analytical_outstanding_drains_over_time() {
        let cfg = small_cfg();
        let mut mem = AnalyticalMemory::new(&cfg, &HashMap::new());
        for i in 0..20u64 {
            mem.access(0, 1, &[read(i * 0x80)], 0);
        }
        // Far in the future all outstanding txns have drained.
        let MemReply::Done(at) = mem.access(0, 1, &[read(0)], 1_000_000) else {
            panic!()
        };
        let MemReply::Done(fresh) = mem.access(1, 1, &[read(0)], 1_000_000) else {
            panic!()
        };
        assert!(at <= fresh + 1, "drained SM behaves like a fresh one");
    }

    /// The outstanding transactions against the min-heap of per-transaction
    /// times they replace: seeded schedules of accesses whose clock is not
    /// monotone (a fetch miss delays an address generation past a later
    /// one's) and whose completions land near, far, and in bursts. After
    /// each access the count and the saved times must match.
    #[test]
    fn outstanding_expires_what_a_heap_pops() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        use swiftsim_rng::SmallRng;
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(0x0075_7a00 + seed);
            let mut times = Outstanding::default();
            let mut heap: BinaryHeap<Reverse<Cycle>> = BinaryHeap::new();
            let mut clock: Cycle = rng.gen_range(0..1_000);
            let mut expired = 0;
            for _ in 0..4_000 {
                clock += rng.gen_range(0..6);
                let now = clock.saturating_sub(rng.gen_range(0..24));
                times.expire(now);
                while heap.peek().is_some_and(|&Reverse(t)| t <= now) {
                    heap.pop();
                    expired += 1;
                }
                assert_eq!(times.times.len(), heap.len(), "seed {seed}");
                let done = now
                    + match rng.gen_range(0u32..4) {
                        0 => rng.gen_range(0..8),
                        1 => rng.gen_range(200..600),
                        _ => rng.gen_range(0..4_000),
                    };
                let n = rng.gen_range(1usize..5);
                times.push(done, n);
                heap.extend(std::iter::repeat_n(Reverse(done), n));
            }
            let mut want: Vec<Cycle> = heap.into_iter().map(|Reverse(t)| t).collect();
            want.sort_unstable();
            assert_eq!(times.times, want, "seed {seed}");
            assert!(expired > 1_000, "seed {seed}: only {expired} expired");
        }
    }

    #[test]
    fn reports_are_populated() {
        let cfg = small_cfg();
        let mut mem = CycleAccurateMemory::new(&cfg);
        mem.access(0, 0x10, &[read(0x1000)], 0);
        drain(&mut mem, 100_000);
        let mut c = MetricsCollector::new();
        mem.report(&mut c);
        assert_eq!(c.count("mem.l1.misses"), Some(1));
        assert_eq!(c.count("mem.dram.reads"), Some(1));

        let mut an = AnalyticalMemory::new(&cfg, &HashMap::new());
        an.access(0, 1, &[read(0)], 0);
        let mut c2 = MetricsCollector::new();
        an.report(&mut c2);
        assert_eq!(c2.count("mem.accesses"), Some(1));
    }
}
