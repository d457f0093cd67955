//! Memory-access models: the cycle-accurate hierarchy walk and the
//! analytical model of §III-D2 (Eq. 1).
//!
//! Both implement [`MemorySystem`], the fixed interface the LD/ST units
//! program against: *"the memory requests will be sent to the cache through
//! the LD/ST units"* and the unit only needs an instruction-completion
//! acknowledgment back (§III-B2). Swapping the implementation is exactly
//! the Swift-Sim-Basic → Swift-Sim-Memory step of the paper.
//!
//! * [`CycleAccurateMemory`] walks every request through the per-SM L1,
//!   the SM↔L2 interconnect, the banked L2 slices, and the partitioned
//!   DRAM channels, with MSHR merging, reservation-failure retries, queue
//!   back-pressure, and dirty writebacks — event-accurately ordered.
//!   Events pop in `(cycle, scheduling order)` order from a calendar queue
//!   (`calendar.rs`: per-cycle lists over a 1024-cycle window, an overflow
//!   heap beyond it, migrated the moment a cycle enters the window), and a
//!   request's token is its slot in a free-list slab (`slab.rs`). So tokens
//!   are opaque keys, live from [`MemReply::Pending`] to their one
//!   [`MemCompletion`] and reused after it, never ordered by issue time.
//!   DESIGN.md, "Cycle-accurate memory walk", states the contracts.
//! * [`AnalyticalMemory`] computes the expected latency of each load/store
//!   PC as `L_inst = L_L1·R_L1 + L_L2·R_L2 + L_DRAM·R_DRAM` (Eq. 1), with
//!   the per-PC hit rates taken from a reuse-distance tool or functional
//!   cache simulator, then adds only the *additional latency due to
//!   resource contention* — modeled from the SM's outstanding-request
//!   count.

use crate::Cycle;
use std::collections::{HashMap, VecDeque};
use swiftsim_config::GpuConfig;
use swiftsim_mem::FastMap;
use swiftsim_mem::{
    AccessOutcome, AddressMapping, DramChannel, DramChannelState, DramStats, FunctionalCacheSim,
    LineSnapshot, MemTxn, MshrCounters, PcHitRates, ReuseDistanceAnalyzer, SectorCache,
    SectorCacheState, TagArrayState,
};
use swiftsim_metrics::{Json, MetricsCollector, ProfModule, Profiler, Value};
use swiftsim_noc::{Crossbar, Interconnect, Mesh, NocState, NocStats, PortState};
use swiftsim_trace::{AddressView, MemInstRef, TraceSource};

use crate::checkpoint::{WordReader, WordWriter};

pub(crate) mod calendar;
mod slab;

use calendar::CalendarQueue;
use slab::Slab;

/// Sentinel waiter for requests nobody waits on (forwarded stores).
const NO_WAITER: u64 = u64::MAX;

/// Per-SM LD/ST queue depth: memory instructions stall at the scheduler
/// once this many transactions are blocked on L1 resources.
const LDST_QUEUE_DEPTH: usize = 64;

/// What happened to one transaction presented to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnDisposition {
    /// Completed synchronously at the given cycle.
    Sync(Cycle),
    /// In flight; completion arrives through the event path.
    Async,
    /// Rejected by a reservation failure; queued until resources free.
    Blocked,
}

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

    /// Serialize the model's persistent state at a quiescent kernel
    /// boundary for a checkpoint snapshot (cache tags, DRAM timing,
    /// lifetime counters — everything that carries across kernels).
    ///
    /// Only valid at a kernel boundary, where no request or event is in
    /// flight; implementations must verify that quiescence
    /// ([`MemorySystem::check_quiescent`]) and refuse otherwise. Models
    /// that do not support checkpointing keep the default, which refuses.
    ///
    /// # Errors
    ///
    /// The model is not quiescent, or does not support checkpointing.
    fn save_state(&self) -> Result<Json, String> {
        Err(format!("{} does not support checkpointing", self.name()))
    }

    /// Restore state serialized by [`MemorySystem::save_state`] into a
    /// freshly built model of the same configuration.
    ///
    /// # Errors
    ///
    /// The state is malformed, belongs to a different model kind, or
    /// disagrees with this model's geometry (SM/partition/bank counts).
    fn load_state(&mut self, state: &Json) -> Result<(), String> {
        let _ = state;
        Err(format!("{} does not support checkpointing", self.name()))
    }
}

// ---------------------------------------------------------------------------
// Cycle-accurate hierarchy
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Event {
    /// Request arrives at an L2 slice.
    L2Access {
        part: usize,
        txn: MemTxn,
        waiter: u64,
    },
    /// DRAM data returns to the L2 slice.
    DramReturn { part: usize, line_addr: u64 },
    /// Reply data arrives back at the SM; fill the L1 line.
    L1Fill { sm: usize, line_addr: u64 },
    /// Drain the pending injection queue of one forward-NoC port.
    FwdDrain { part: usize },
    /// Drain the pending injection queue of one reply-NoC port.
    RspDrain { sm: usize },
    /// Drain the pending submission queue of one DRAM channel.
    DramDrain { part: usize },
}

#[derive(Debug)]
struct PendingReq {
    outstanding: u32,
    last_ready: Cycle,
    /// Issuing SM and issue cycle, for deadlock diagnostics.
    sm: usize,
    issued_at: Cycle,
}

/// Fully simulated L1 → NoC → L2 → DRAM memory system.
pub struct CycleAccurateMemory {
    l1: Vec<SectorCache>,
    l2: Vec<SectorCache>,
    dram: Vec<DramChannel>,
    fwd_noc: Box<dyn Interconnect>,
    rsp_noc: Box<dyn Interconnect>,
    line_bytes: u32,
    partitions: u32,
    /// Pending events, popped in `(cycle, scheduling order)` order; its
    /// scheduling counter is the snapshot's `event_seq` word.
    events: CalendarQueue<Event>,
    /// In-flight warp requests; a request's token is its slot.
    reqs: Slab<PendingReq>,
    /// Requests ever issued and L2 waiters ever registered: snapshot words
    /// only (ids are slots, not these counts).
    next_token: u64,
    next_l2_waiter: u64,
    /// Source-side injection queues: messages the NoC or DRAM refused,
    /// drained in order as the destination frees (one armed drain event per
    /// destination, so back-pressure costs O(1) per message).
    fwd_pending: Vec<VecDeque<(usize, MemTxn, u64)>>,
    fwd_armed: Vec<bool>,
    rsp_pending: Vec<VecDeque<(usize, u64, u32)>>,
    rsp_armed: Vec<bool>,
    dram_pending: Vec<VecDeque<(u64, bool, bool)>>,
    dram_armed: Vec<bool>,
    /// Transactions blocked by an L1 MSHR/way reservation failure, drained
    /// when a fill frees resources (the per-SM LD/ST queue).
    l1_blocked: Vec<VecDeque<(MemTxn, u64)>>,
    /// Transactions blocked at an L2 slice, drained on DRAM returns.
    l2_blocked: Vec<VecDeque<(MemTxn, u64)>>,
    retry_cycles: u64,
    accesses: u64,
    store_only: u64,
    events_processed: u64,
    /// Self-profiling: when on, `advance` times its drain loop and buckets
    /// the drained events per hierarchy level so `report_profile` can split
    /// the wall time across L1/NoC/L2/DRAM.
    profiling: bool,
    prof_advance_ns: u64,
    /// Events drained since the last profile flush: `[L1, NoC, L2, DRAM]`.
    prof_level_events: [u64; 4],
}

impl std::fmt::Debug for CycleAccurateMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleAccurateMemory")
            .field("sms", &self.l1.len())
            .field("partitions", &self.partitions)
            .field("pending_events", &self.events.len())
            .finish()
    }
}

impl CycleAccurateMemory {
    /// Build the detailed memory system for `cfg`.
    pub fn new(cfg: &GpuConfig) -> Self {
        let sms = cfg.num_sms as usize;
        let parts = cfg.memory.partitions as usize;
        CycleAccurateMemory {
            l1: (0..sms)
                .map(|i| SectorCache::new(&cfg.sm.l1d, i as u64))
                .collect(),
            l2: (0..parts)
                .map(|i| SectorCache::new(&cfg.memory.l2, 0x5eed + i as u64))
                .collect(),
            dram: (0..parts)
                .map(|_| {
                    DramChannel::new(
                        cfg.memory.dram_latency,
                        cfg.memory.dram_cycles_per_txn,
                        cfg.memory.dram_queue_depth,
                    )
                })
                .collect(),
            fwd_noc: make_noc(cfg, sms, parts),
            rsp_noc: make_noc(cfg, parts, sms),
            line_bytes: cfg.memory.l2.line_bytes,
            partitions: cfg.memory.partitions,
            events: CalendarQueue::new(),
            reqs: Slab::new(),
            next_token: 0,
            next_l2_waiter: 0,
            fwd_pending: vec![VecDeque::new(); parts],
            fwd_armed: vec![false; parts],
            rsp_pending: vec![VecDeque::new(); sms],
            rsp_armed: vec![false; sms],
            dram_pending: vec![VecDeque::new(); parts],
            dram_armed: vec![false; parts],
            l1_blocked: (0..sms).map(|_| VecDeque::new()).collect(),
            l2_blocked: (0..parts).map(|_| VecDeque::new()).collect(),
            retry_cycles: 0,
            accesses: 0,
            store_only: 0,
            events_processed: 0,
            profiling: false,
            prof_advance_ns: 0,
            prof_level_events: [0; 4],
        }
    }

    fn schedule(&mut self, at: Cycle, event: Event) {
        self.events.push(at, event);
    }

    fn partition_of(&self, line_addr: u64) -> usize {
        AddressMapping::partition_index(line_addr, self.line_bytes, self.partitions)
    }

    /// Send a transaction toward L2, queueing on NoC back-pressure.
    fn forward_to_l2(&mut self, sm: usize, txn: MemTxn, waiter: u64, now: Cycle) {
        let part = self.partition_of(txn.line_addr);
        if !self.fwd_pending[part].is_empty() {
            // Preserve order behind already-queued messages.
            self.retry_cycles += 1;
            self.fwd_pending[part].push_back((sm, txn, waiter));
            self.arm_fwd(part, now);
            return;
        }
        let flits = 1 + u32::from(txn.write) * txn.num_sectors();
        match self.fwd_noc.traverse(sm, part, flits, now) {
            Some(arrival) => self.schedule(arrival, Event::L2Access { part, txn, waiter }),
            None => {
                self.retry_cycles += 1;
                self.fwd_pending[part].push_back((sm, txn, waiter));
                self.arm_fwd(part, now);
            }
        }
    }

    fn arm_fwd(&mut self, part: usize, now: Cycle) {
        if !self.fwd_armed[part] {
            self.fwd_armed[part] = true;
            let at = self.fwd_noc.earliest_accept(part, now).max(now + 1);
            self.schedule(at, Event::FwdDrain { part });
        }
    }

    fn drain_fwd(&mut self, part: usize, now: Cycle) {
        self.fwd_armed[part] = false;
        while let Some((sm, txn, waiter)) = self.fwd_pending[part].pop_front() {
            let flits = 1 + u32::from(txn.write) * txn.num_sectors();
            match self.fwd_noc.traverse(sm, part, flits, now) {
                Some(arrival) => self.schedule(arrival, Event::L2Access { part, txn, waiter }),
                None => {
                    self.fwd_pending[part].push_front((sm, txn, waiter));
                    self.arm_fwd(part, now);
                    return;
                }
            }
        }
    }

    fn reply_to_sm(&mut self, part: usize, sm: usize, line_addr: u64, flits: u32, now: Cycle) {
        if !self.rsp_pending[sm].is_empty() {
            self.retry_cycles += 1;
            self.rsp_pending[sm].push_back((part, line_addr, flits));
            self.arm_rsp(sm, now);
            return;
        }
        match self.rsp_noc.traverse(part, sm, flits, now) {
            Some(arrival) => self.schedule(arrival, Event::L1Fill { sm, line_addr }),
            None => {
                self.retry_cycles += 1;
                self.rsp_pending[sm].push_back((part, line_addr, flits));
                self.arm_rsp(sm, now);
            }
        }
    }

    fn arm_rsp(&mut self, sm: usize, now: Cycle) {
        if !self.rsp_armed[sm] {
            self.rsp_armed[sm] = true;
            let at = self.rsp_noc.earliest_accept(sm, now).max(now + 1);
            self.schedule(at, Event::RspDrain { sm });
        }
    }

    fn drain_rsp(&mut self, sm: usize, now: Cycle) {
        self.rsp_armed[sm] = false;
        while let Some((part, line_addr, flits)) = self.rsp_pending[sm].pop_front() {
            match self.rsp_noc.traverse(part, sm, flits, now) {
                Some(arrival) => self.schedule(arrival, Event::L1Fill { sm, line_addr }),
                None => {
                    self.rsp_pending[sm].push_front((part, line_addr, flits));
                    self.arm_rsp(sm, now);
                    return;
                }
            }
        }
    }

    fn submit_dram(
        &mut self,
        part: usize,
        line_addr: u64,
        write: bool,
        wants_return: bool,
        now: Cycle,
    ) {
        if !self.dram_pending[part].is_empty() {
            self.retry_cycles += 1;
            self.dram_pending[part].push_back((line_addr, write, wants_return));
            self.arm_dram(part, now);
            return;
        }
        match self.dram[part].submit(write, now) {
            Some(done) => {
                if wants_return {
                    self.schedule(done, Event::DramReturn { part, line_addr });
                }
            }
            None => {
                self.retry_cycles += 1;
                self.dram_pending[part].push_back((line_addr, write, wants_return));
                self.arm_dram(part, now);
            }
        }
    }

    fn arm_dram(&mut self, part: usize, now: Cycle) {
        if !self.dram_armed[part] {
            self.dram_armed[part] = true;
            let at = self.dram[part].earliest_accept(now).max(now + 1);
            self.schedule(at, Event::DramDrain { part });
        }
    }

    fn drain_dram(&mut self, part: usize, now: Cycle) {
        self.dram_armed[part] = false;
        while let Some((line_addr, write, wants_return)) = self.dram_pending[part].pop_front() {
            match self.dram[part].submit(write, now) {
                Some(done) => {
                    if wants_return {
                        self.schedule(done, Event::DramReturn { part, line_addr });
                    }
                }
                None => {
                    self.dram_pending[part].push_front((line_addr, write, wants_return));
                    self.arm_dram(part, now);
                    return;
                }
            }
        }
    }

    fn complete_txn(&mut self, packed: u64, at: Cycle, completions: &mut Vec<MemCompletion>) {
        if packed == NO_WAITER {
            return;
        }
        let (_sm, token) = unpack_sm_token(packed);
        let slot = token as usize;
        // One completion per request: a transaction never outlives its
        // request, so its slot cannot have been freed (or reused) yet.
        let Some(req) = self.reqs.get_mut(slot) else {
            debug_assert!(false, "transaction completed for dead request {token}");
            return;
        };
        req.outstanding -= 1;
        req.last_ready = req.last_ready.max(at);
        if req.outstanding == 0 {
            let req = self.reqs.remove(slot).expect("live");
            completions.push(MemCompletion {
                token,
                at: req.last_ready,
            });
        }
    }

    /// Run one transaction against SM `sm`'s L1.
    fn process_l1_txn(
        &mut self,
        sm: usize,
        txn: MemTxn,
        packed: u64,
        now: Cycle,
    ) -> TxnDisposition {
        match self.l1[sm].access(txn, packed, now) {
            AccessOutcome::Hit {
                ready_at,
                downstream_write,
            } => {
                if let Some(w) = downstream_write {
                    self.forward_to_l2(sm, w, NO_WAITER, now);
                }
                TxnDisposition::Sync(ready_at)
            }
            AccessOutcome::Miss {
                fetch,
                downstream_write,
            } => {
                self.forward_to_l2(sm, fetch, packed, now);
                if let Some(w) = downstream_write {
                    self.forward_to_l2(sm, w, NO_WAITER, now);
                }
                TxnDisposition::Async
            }
            AccessOutcome::MissMerged { downstream_write } => {
                if let Some(w) = downstream_write {
                    self.forward_to_l2(sm, w, NO_WAITER, now);
                }
                TxnDisposition::Async
            }
            AccessOutcome::WriteForwarded { forward } => {
                // Stores complete from the warp's perspective at issue.
                self.forward_to_l2(sm, forward, NO_WAITER, now);
                TxnDisposition::Sync(now + 1)
            }
            AccessOutcome::ReservationFailure => TxnDisposition::Blocked,
        }
    }

    /// Re-attempt transactions blocked on L1 resources; called whenever a
    /// fill frees an MSHR entry.
    fn drain_l1_blocked(&mut self, sm: usize, now: Cycle, completions: &mut Vec<MemCompletion>) {
        while let Some((txn, packed)) = self.l1_blocked[sm].pop_front() {
            match self.process_l1_txn(sm, txn, packed, now) {
                TxnDisposition::Sync(ready) => self.complete_txn(packed, ready, completions),
                TxnDisposition::Async => {}
                TxnDisposition::Blocked => {
                    self.l1_blocked[sm].push_front((txn, packed));
                    return;
                }
            }
        }
    }

    /// Retry up to two transactions blocked at L2 slice `part`.
    fn admit_l2_blocked(&mut self, part: usize, now: Cycle) {
        for _ in 0..2 {
            let Some((txn, waiter)) = self.l2_blocked[part].pop_front() else {
                break;
            };
            self.schedule(now + 1, Event::L2Access { part, txn, waiter });
        }
    }

    fn handle_event(&mut self, now: Cycle, event: Event, completions: &mut Vec<MemCompletion>) {
        match event {
            Event::FwdDrain { part } => self.drain_fwd(part, now),
            Event::RspDrain { sm } => self.drain_rsp(sm, now),
            Event::DramDrain { part } => self.drain_dram(part, now),
            Event::L2Access { part, txn, waiter } => {
                // The L2 MSHR holds the requester's packed (SM, token): the
                // fill's line and that SM are all a reply needs, and the
                // token itself completes at L1 fill time.
                if waiter != NO_WAITER {
                    self.next_l2_waiter += 1;
                }
                match self.l2[part].access(txn, waiter, now) {
                    AccessOutcome::Hit {
                        ready_at,
                        downstream_write,
                    } => {
                        if let Some(wb) = downstream_write {
                            self.submit_dram(part, wb.line_addr, true, false, ready_at);
                        }
                        if waiter != NO_WAITER {
                            let (sm, _token) = unpack_sm_token(waiter);
                            self.reply_to_sm(
                                part,
                                sm,
                                txn.line_addr,
                                1 + txn.num_sectors(),
                                ready_at,
                            );
                        }
                    }
                    AccessOutcome::Miss { fetch, .. } => {
                        self.submit_dram(part, fetch.line_addr, false, true, now);
                    }
                    AccessOutcome::MissMerged { .. } => {}
                    AccessOutcome::WriteForwarded { forward } => {
                        // L2 is write-back/write-allocate in all presets, but
                        // a no-allocate configuration forwards to DRAM.
                        self.submit_dram(part, forward.line_addr, true, false, now);
                    }
                    AccessOutcome::ReservationFailure => {
                        self.retry_cycles += 1;
                        self.l2_blocked[part].push_back((txn, waiter));
                    }
                }
                // Blocked transactions wait for DRAM returns; once the slice
                // has no fill in flight, none will come, so the retries
                // admitted by the last one admit the next.
                if self.l2[part].mshr_occupancy() == 0 {
                    self.admit_l2_blocked(part, now);
                }
            }
            Event::DramReturn { part, line_addr } => {
                let fill = self.l2[part].fill(line_addr, now);
                // The fill freed one L2 MSHR entry (and possibly a way):
                // admit a couple of blocked transactions, keeping the rest
                // queued for later returns.
                self.admit_l2_blocked(part, now);
                if let Some(wb) = fill.writeback {
                    self.submit_dram(part, wb.line_addr, true, false, now);
                }
                for waiter in fill.waiters {
                    if waiter != NO_WAITER {
                        let (sm, _token) = unpack_sm_token(waiter);
                        self.reply_to_sm(part, sm, line_addr, 5, now);
                    }
                }
            }
            Event::L1Fill { sm, line_addr } => {
                let fill = self.l1[sm].fill(line_addr, now);
                // Streaming write-through L1s never evict dirty data, but a
                // reconfigured (write-back) L1 may.
                if let Some(wb) = fill.writeback {
                    let txn = MemTxn {
                        line_addr: wb.line_addr,
                        sector_mask: wb.dirty_mask,
                        write: true,
                    };
                    self.forward_to_l2(sm, txn, NO_WAITER, now);
                }
                for token in fill.waiters {
                    self.complete_txn(token, now, completions);
                }
                // The fill freed an MSHR entry (and possibly a way):
                // blocked transactions can now proceed.
                self.drain_l1_blocked(sm, now, completions);
            }
        }
    }

    /// The per-SM L1 caches (exposed for metrics and tests).
    pub fn l1_stats(&self, sm: usize) -> swiftsim_mem::CacheStats {
        self.l1[sm].stats()
    }

    /// Aggregate L2 miss rate so far.
    pub fn l2_miss_rate(&self) -> f64 {
        let (mut m, mut d) = (0u64, 0u64);
        for slice in &self.l2 {
            let s = slice.stats();
            m += s.misses + s.merged_misses;
            d += s.hits + s.misses + s.merged_misses;
        }
        if d == 0 {
            0.0
        } else {
            m as f64 / d as f64
        }
    }
}

/// Instantiate the configured interconnect topology — swapping the NoC is
/// a configuration change, not a remodeling effort (§II-B's criticism of
/// queueing-equation NoC models).
fn make_noc(cfg: &GpuConfig, num_src: usize, num_dst: usize) -> Box<dyn Interconnect> {
    match cfg.noc.topology {
        swiftsim_config::NocTopology::Crossbar => {
            Box::new(Crossbar::new(&cfg.noc, num_src, num_dst))
        }
        swiftsim_config::NocTopology::Mesh => Box::new(Mesh::new(&cfg.noc, num_src, num_dst)),
    }
}

fn total_len<T>(queues: &[VecDeque<T>]) -> usize {
    queues.iter().map(VecDeque::len).sum()
}

/// Pack an SM index and token into the single u64 the L1 waiter slot holds.
fn pack_sm_token(sm: usize, token: u64) -> u64 {
    debug_assert!(token < 1 << 48);
    ((sm as u64) << 48) | token
}

fn unpack_sm_token(packed: u64) -> (usize, u64) {
    ((packed >> 48) as usize, packed & ((1 << 48) - 1))
}

impl MemorySystem for CycleAccurateMemory {
    fn can_accept(&self, sm: usize) -> bool {
        // Bounded LD/ST queue: once transactions back up on L1 resources,
        // the scheduler must stop issuing memory instructions to this SM.
        self.l1_blocked[sm].len() < LDST_QUEUE_DEPTH
    }

    fn access(&mut self, sm: usize, _pc: u32, txns: &[MemTxn], now: Cycle) -> MemReply {
        self.accesses += 1;
        if txns.iter().all(|t| t.write) {
            self.store_only += 1;
        }
        self.next_token += 1;
        // Register the request *before* touching the L1: an event-path
        // transaction (retry) may otherwise complete against a missing
        // entry.
        let slot = self.reqs.insert(PendingReq {
            outstanding: txns.len() as u32,
            last_ready: now + 1,
            sm,
            issued_at: now,
        });
        let token = slot as u64;
        let packed = pack_sm_token(sm, token);

        let mut sync_count = 0u32;
        let mut sync_latest: Cycle = 0;
        for &txn in txns {
            match self.process_l1_txn(sm, txn, packed, now) {
                TxnDisposition::Sync(ready) => {
                    sync_count += 1;
                    sync_latest = sync_latest.max(ready);
                }
                TxnDisposition::Async => {}
                TxnDisposition::Blocked => {
                    self.retry_cycles += 1;
                    self.l1_blocked[sm].push_back((txn, packed));
                }
            }
        }

        // Looked up only now: an event-path retry inside the loop may have
        // touched the entry.
        let req = self.reqs.get_mut(slot).expect("just inserted");
        req.outstanding -= sync_count;
        req.last_ready = req.last_ready.max(sync_latest);
        if req.outstanding == 0 {
            let req = self.reqs.remove(slot).expect("present");
            return MemReply::Done(req.last_ready);
        }
        MemReply::Pending(token)
    }

    fn advance(&mut self, now: Cycle, completions: &mut Vec<MemCompletion>) {
        if !self.profiling {
            while let Some((at, event)) = self.events.pop_due(now) {
                self.events_processed += 1;
                self.handle_event(at, event, completions);
            }
            return;
        }
        let Some((mut at, mut event)) = self.events.pop_due(now) else {
            return;
        };
        // One Instant pair per drain burst (not per event) keeps the probe
        // cost negligible; the wall time is split by per-level event counts
        // in report_profile.
        let t0 = std::time::Instant::now();
        loop {
            self.events_processed += 1;
            self.prof_level_events[match event {
                Event::L1Fill { .. } => 0,
                Event::FwdDrain { .. } | Event::RspDrain { .. } => 1,
                Event::L2Access { .. } => 2,
                Event::DramReturn { .. } | Event::DramDrain { .. } => 3,
            }] += 1;
            self.handle_event(at, event, completions);
            let Some(next) = self.events.pop_due(now) else {
                break;
            };
            (at, event) = next;
        }
        self.prof_advance_ns += t0.elapsed().as_nanos() as u64;
    }

    fn next_event(&self) -> Option<Cycle> {
        self.events.next_at()
    }

    fn oldest_pending(&self) -> Option<String> {
        let (token, req) = self
            .reqs
            .iter()
            .min_by_key(|&(slot, req)| (req.issued_at, slot))?;
        let mut msg = format!(
            "oldest memory request: token {token} from SM {} issued at cycle {} \
             ({} transactions outstanding)",
            req.sm, req.issued_at, req.outstanding
        );
        if let Some((line, waiters)) = self.l1[req.sm].oldest_mshr_line() {
            msg.push_str(&format!(
                ", oldest L1 MSHR line {line:#x} with {waiters} waiter(s)"
            ));
        }
        if let Some(at) = self.dram.iter().filter_map(|d| d.next_completion()).min() {
            msg.push_str(&format!(", next DRAM completion at cycle {at}"));
        }
        Some(msg)
    }

    fn report(&self, collector: &mut MetricsCollector) {
        let mut l1_hits = 0u64;
        let mut l1_misses = 0u64;
        let mut l1_conflicts = 0u64;
        let mut l1_resfail = 0u64;
        for cache in &self.l1 {
            let s = cache.stats();
            l1_hits += s.hits;
            l1_misses += s.misses + s.merged_misses;
            l1_conflicts += s.bank_conflicts;
            l1_resfail += s.reservation_failures;
        }
        let mut scope = collector.scope("mem");
        scope.set("l1.hits", Value::Count(l1_hits));
        scope.set("l1.misses", Value::Count(l1_misses));
        let l1_total = l1_hits + l1_misses;
        scope.set(
            "l1.miss_rate",
            Value::Ratio(if l1_total == 0 {
                0.0
            } else {
                l1_misses as f64 / l1_total as f64
            }),
        );
        scope.set("l1.bank_conflicts", Value::Count(l1_conflicts));
        scope.set("l1.reservation_failures", Value::Count(l1_resfail));
        scope.set("l2.miss_rate", Value::Ratio(self.l2_miss_rate()));
        let mut dram_reads = 0u64;
        let mut dram_writes = 0u64;
        for ch in &self.dram {
            dram_reads += ch.stats().reads;
            dram_writes += ch.stats().writes;
        }
        scope.set("dram.reads", Value::Count(dram_reads));
        scope.set("dram.writes", Value::Count(dram_writes));
        scope.set(
            "noc.fwd_stall_cycles",
            Value::Cycles(self.fwd_noc.stats().stall_cycles),
        );
        scope.set(
            "noc.rsp_stall_cycles",
            Value::Cycles(self.rsp_noc.stats().stall_cycles),
        );
        scope.set("retries", Value::Count(self.retry_cycles));
        scope.set("events", Value::Count(self.events_processed));
        scope.set("accesses", Value::Count(self.accesses));
        scope.set("store_only_accesses", Value::Count(self.store_only));
    }

    fn name(&self) -> &'static str {
        "cycle_accurate_memory"
    }

    fn set_profiling(&mut self, enabled: bool) {
        self.profiling = enabled;
    }

    fn report_profile(&mut self, prof: &mut Profiler) {
        const MODULES: [ProfModule; 4] = [
            ProfModule::L1,
            ProfModule::Noc,
            ProfModule::L2,
            ProfModule::Dram,
        ];
        let total: u64 = self.prof_level_events.iter().sum();
        if total > 0 {
            for (level, &module) in MODULES.iter().enumerate() {
                let events = self.prof_level_events[level];
                if events == 0 {
                    continue;
                }
                let wall = (u128::from(self.prof_advance_ns) * u128::from(events)
                    / u128::from(total)) as u64;
                prof.record_wall_ns(module, wall, events);
            }
        }
        self.prof_advance_ns = 0;
        self.prof_level_events = [0; 4];
    }

    fn check_quiescent(&self) -> Result<(), String> {
        if self.events.len() != 0 {
            return Err(format!("{} events still scheduled", self.events.len()));
        }
        if self.reqs.len() != 0 {
            return Err(format!("{} requests still pending", self.reqs.len()));
        }
        let queues: [(&str, usize); 5] = [
            ("forward-NoC injection", total_len(&self.fwd_pending)),
            ("reply-NoC injection", total_len(&self.rsp_pending)),
            ("DRAM submission", total_len(&self.dram_pending)),
            ("L1-blocked", total_len(&self.l1_blocked)),
            ("L2-blocked", total_len(&self.l2_blocked)),
        ];
        for (what, queued) in queues {
            if queued != 0 {
                return Err(format!("{queued} messages still in the {what} queues"));
            }
        }
        if self
            .fwd_armed
            .iter()
            .chain(&self.rsp_armed)
            .chain(&self.dram_armed)
            .any(|&a| a)
        {
            return Err("a drain event is still armed".to_owned());
        }
        for (what, caches) in [("l1", &self.l1), ("l2", &self.l2)] {
            for (i, cache) in caches.iter().enumerate() {
                let live = cache.mshr_occupancy();
                if live != 0 {
                    return Err(format!("{what}[{i}] has {live} MSHR entries in flight"));
                }
            }
        }
        Ok(())
    }

    fn save_state(&self) -> Result<Json, String> {
        // Anything in flight would be lost by the snapshot, so refuse
        // loudly.
        self.check_quiescent()?;
        let caches = |list: &[SectorCache], what: &str| -> Result<Json, String> {
            let mut out = Vec::with_capacity(list.len());
            for (i, cache) in list.iter().enumerate() {
                let state = cache
                    .save_state()
                    .map_err(|e| format!("{what}[{i}]: {e}"))?;
                out.push(Json::str(cache_words(&state)));
            }
            Ok(Json::Arr(out))
        };
        let mut counters = WordWriter::new();
        for &c in &[
            self.events.scheduled(),
            self.next_token,
            self.next_l2_waiter,
            self.retry_cycles,
            self.accesses,
            self.store_only,
            self.events_processed,
        ] {
            counters.push(c);
        }
        Ok(Json::obj(vec![
            ("kind", Json::str("cycle_accurate")),
            ("l1", caches(&self.l1, "l1")?),
            ("l2", caches(&self.l2, "l2")?),
            (
                "dram",
                Json::Arr(
                    self.dram
                        .iter()
                        .map(|d| Json::str(dram_words(&d.save_state())))
                        .collect(),
                ),
            ),
            ("fwd_noc", Json::str(noc_words(&self.fwd_noc.save_state()))),
            ("rsp_noc", Json::str(noc_words(&self.rsp_noc.save_state()))),
            ("counters", Json::str(counters.finish())),
        ]))
    }

    fn load_state(&mut self, state: &Json) -> Result<(), String> {
        let kind = state.get("kind").and_then(Json::as_str).unwrap_or("?");
        if kind != "cycle_accurate" {
            return Err(format!(
                "memory snapshot is for a {kind:?} model, this run uses cycle_accurate"
            ));
        }
        let arr = |key: &str, expect: usize| -> Result<Vec<&str>, String> {
            let items = state
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("memory snapshot missing {key} array"))?;
            if items.len() != expect {
                return Err(format!(
                    "memory snapshot has {} {key} entries, this config has {expect}",
                    items.len()
                ));
            }
            items
                .iter()
                .map(|j| {
                    j.as_str()
                        .ok_or_else(|| format!("{key} entry is not a string"))
                })
                .collect()
        };
        for (i, words) in arr("l1", self.l1.len())?.iter().enumerate() {
            let parsed = cache_from_words(words, "l1")?;
            self.l1[i]
                .restore_state(&parsed)
                .map_err(|e| format!("l1[{i}]: {e}"))?;
        }
        for (i, words) in arr("l2", self.l2.len())?.iter().enumerate() {
            let parsed = cache_from_words(words, "l2")?;
            self.l2[i]
                .restore_state(&parsed)
                .map_err(|e| format!("l2[{i}]: {e}"))?;
        }
        for (i, words) in arr("dram", self.dram.len())?.iter().enumerate() {
            let parsed = dram_from_words(words)?;
            self.dram[i]
                .restore_state(&parsed)
                .map_err(|e| format!("dram[{i}]: {e}"))?;
        }
        let noc_text = |key: &str| -> Result<String, String> {
            state
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("memory snapshot missing {key}"))
        };
        self.fwd_noc
            .restore_state(&noc_from_words(&noc_text("fwd_noc")?, "fwd_noc")?)
            .map_err(|e| format!("fwd_noc: {e}"))?;
        self.rsp_noc
            .restore_state(&noc_from_words(&noc_text("rsp_noc")?, "rsp_noc")?)
            .map_err(|e| format!("rsp_noc: {e}"))?;
        let counters = state
            .get("counters")
            .and_then(Json::as_str)
            .ok_or_else(|| "memory snapshot missing counters".to_owned())?;
        let mut r = WordReader::new(counters, "memory counters");
        self.events.set_scheduled(r.next()?);
        self.next_token = r.next()?;
        self.next_l2_waiter = r.next()?;
        self.retry_cycles = r.next()?;
        self.accesses = r.next()?;
        self.store_only = r.next()?;
        self.events_processed = r.next()?;
        r.finish()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint word codecs for the component state structs
// ---------------------------------------------------------------------------

/// Encode one cache's snapshot as a word stream:
/// `[nlines, per line (tag, state|valid<<8|dirty<<16, last_use, alloc_time),
/// rng x4, bank_free_at slice, mshr x4, stats x10]`.
fn cache_words(state: &SectorCacheState) -> String {
    let mut w = WordWriter::new();
    w.push(state.tags.lines.len() as u64);
    for line in &state.tags.lines {
        w.push(line.tag);
        w.push(
            u64::from(line.state)
                | u64::from(line.valid_mask) << 8
                | u64::from(line.dirty_mask) << 16,
        );
        w.push(line.last_use);
        w.push(line.alloc_time);
    }
    for &word in &state.tags.rng {
        w.push(word);
    }
    w.push_slice(&state.bank_free_at);
    w.push(state.mshr.peak);
    w.push(state.mshr.merges);
    w.push(state.mshr.reservation_failures);
    w.push(state.mshr.seq);
    let s = &state.stats;
    for &c in &[
        s.accesses,
        s.hits,
        s.misses,
        s.merged_misses,
        s.write_forwards,
        s.reservation_failures,
        s.bank_conflicts,
        s.bank_stall_cycles,
        s.writebacks,
        s.fills,
    ] {
        w.push(c);
    }
    w.finish()
}

fn cache_from_words(text: &str, what: &str) -> Result<SectorCacheState, String> {
    let mut r = WordReader::new(text, what);
    let nlines = r.next_usize()?;
    let mut lines = Vec::with_capacity(nlines.min(1 << 20));
    for _ in 0..nlines {
        let tag = r.next()?;
        let packed = r.next()?;
        lines.push(LineSnapshot {
            tag,
            state: (packed & 0xff) as u8,
            valid_mask: (packed >> 8 & 0xff) as u8,
            dirty_mask: (packed >> 16 & 0xff) as u8,
            last_use: r.next()?,
            alloc_time: r.next()?,
        });
    }
    let rng = [r.next()?, r.next()?, r.next()?, r.next()?];
    let bank_free_at = r.next_slice()?;
    let mshr = MshrCounters {
        peak: r.next()?,
        merges: r.next()?,
        reservation_failures: r.next()?,
        seq: r.next()?,
    };
    let stats = swiftsim_mem::CacheStats {
        accesses: r.next()?,
        hits: r.next()?,
        misses: r.next()?,
        merged_misses: r.next()?,
        write_forwards: r.next()?,
        reservation_failures: r.next()?,
        bank_conflicts: r.next()?,
        bank_stall_cycles: r.next()?,
        writebacks: r.next()?,
        fills: r.next()?,
    };
    r.finish()?;
    Ok(SectorCacheState {
        tags: TagArrayState { lines, rng },
        bank_free_at,
        mshr,
        stats,
    })
}

/// `[next_free, reads, writes, queued_cycles, busy_cycles, rejections,
/// in_flight slice]`.
fn dram_words(state: &DramChannelState) -> String {
    let mut w = WordWriter::new();
    w.push(state.next_free);
    w.push(state.stats.reads);
    w.push(state.stats.writes);
    w.push(state.stats.queued_cycles);
    w.push(state.stats.busy_cycles);
    w.push(state.stats.rejections);
    w.push_slice(&state.in_flight);
    w.finish()
}

fn dram_from_words(text: &str) -> Result<DramChannelState, String> {
    let mut r = WordReader::new(text, "dram channel");
    let next_free = r.next()?;
    let stats = DramStats {
        reads: r.next()?,
        writes: r.next()?,
        queued_cycles: r.next()?,
        busy_cycles: r.next()?,
        rejections: r.next()?,
    };
    let in_flight = r.next_slice()?;
    r.finish()?;
    Ok(DramChannelState {
        next_free,
        in_flight,
        stats,
    })
}

/// `[nports, per port (next_free, in_flight slice), stats x4]`.
fn noc_words(state: &NocState) -> String {
    let mut w = WordWriter::new();
    w.push(state.ports.len() as u64);
    for port in &state.ports {
        w.push(port.next_free);
        w.push_slice(&port.in_flight);
    }
    w.push(state.stats.flits);
    w.push(state.stats.traversals);
    w.push(state.stats.stall_cycles);
    w.push(state.stats.rejections);
    w.finish()
}

fn noc_from_words(text: &str, what: &str) -> Result<NocState, String> {
    let mut r = WordReader::new(text, what);
    let nports = r.next_usize()?;
    let mut ports = Vec::with_capacity(nports.min(4096));
    for _ in 0..nports {
        ports.push(PortState {
            next_free: r.next()?,
            in_flight: r.next_slice()?,
        });
    }
    let stats = NocStats {
        flits: r.next()?,
        traversals: r.next()?,
        stall_cycles: r.next()?,
        rejections: r.next()?,
    };
    r.finish()?;
    Ok(NocState { ports, stats })
}

// ---------------------------------------------------------------------------
// Analytical memory model (Eq. 1)
// ---------------------------------------------------------------------------

/// Latency constants of Eq. 1, derived from a [`GpuConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyTerms {
    /// `L_L1`: L1 hit latency.
    pub l1: f64,
    /// `L_L2`: L1 miss served by L2 (adds two NoC traversals).
    pub l2: f64,
    /// `L_DRAM`: served by DRAM behind L2.
    pub dram: f64,
}

impl LatencyTerms {
    /// Derive the terms from a hardware configuration.
    pub fn from_config(cfg: &GpuConfig) -> Self {
        let l1 = f64::from(cfg.sm.l1d.latency);
        let l2 = l1 + 2.0 * f64::from(cfg.noc.latency) + f64::from(cfg.memory.l2.latency);
        let dram = l2 + f64::from(cfg.memory.dram_latency);
        LatencyTerms { l1, l2, dram }
    }

    /// Evaluate Eq. 1 for the given hit rates.
    pub fn expected_latency(&self, r: PcHitRates) -> f64 {
        self.l1 * r.l1 + self.l2 * r.l2 + self.dram * r.dram
    }
}

/// The classic analytical memory model (§III-D2).
#[derive(Debug)]
pub struct AnalyticalMemory {
    terms: LatencyTerms,
    /// Per-PC (expected latency, hit-rate profile), read once per issued
    /// memory instruction.
    per_pc: FastMap<u32, (f64, PcHitRates)>,
    default_latency: f64,
    /// Outstanding transaction completion times per SM, used for the
    /// contention adder.
    outstanding: Vec<Outstanding>,
    /// Extra cycles per outstanding transaction (queueing pressure).
    contention_per_txn: f64,
    /// Virtual clock of the aggregate DRAM service: advances by
    /// `bw_cycles_per_txn` per expected DRAM transaction. The bandwidth
    /// ceiling part of the contention adder — without it a latency-only
    /// model lets throughput grow without bound, grossly underestimating
    /// bandwidth-saturated kernels.
    bw_next_free: f64,
    /// Aggregate cycles one DRAM transaction occupies the channels:
    /// `1 / (partitions * min(1/cycles_per_txn, queue_depth/latency))`.
    bw_cycles_per_txn: f64,
    accesses: u64,
    txns: u64,
    contention_cycles: u64,
    /// Expected transactions served by each level, accumulated from the
    /// per-PC hit-rate profile as transactions flow through `access`. The
    /// model never simulates the hierarchy, but its own rate profile
    /// yields estimated `mem.l1.*` / `mem.l2.*` / `mem.dram.*` statistics,
    /// so the typed stat catalog is populated across every preset and the
    /// validation harness can correlate them against the oracle.
    est_l1_hits: f64,
    est_l1_misses: f64,
    est_l2_hits: f64,
    est_dram_reads: f64,
    est_dram_writes: f64,
    /// Counter snapshots at the last profile flush, so each kernel frame
    /// gets per-kernel deltas from report_profile.
    prof_accesses: u64,
    prof_contention: u64,
}

impl AnalyticalMemory {
    /// Build the model from per-PC hit rates (e.g. produced by
    /// [`FunctionalCacheSim`] or a reuse-distance tool).
    pub fn new(cfg: &GpuConfig, rates: &HashMap<u32, PcHitRates>) -> Self {
        let terms = LatencyTerms::from_config(cfg);
        let per_pc = rates
            .iter()
            .map(|(&pc, &r)| (pc, (terms.expected_latency(r), r)))
            .collect();
        // Queueing pressure per outstanding transaction. Saturated-bandwidth
        // behaviour is covered by the explicit service clock below, so this
        // term only models the residual NoC/MSHR queueing an SM's own
        // outstanding transactions cause; a quarter of the SMs contending
        // at any instant calibrates it against the cycle-accurate
        // hierarchy.
        let service = f64::from(cfg.memory.partitions)
            / f64::from(cfg.memory.dram_cycles_per_txn)
            / (f64::from(cfg.num_sms) * 0.25);
        // Effective per-channel throughput is the lesser of the issue rate
        // (1/cycles_per_txn) and the concurrency limit (queue_depth
        // outstanding over the access latency).
        let per_channel = (1.0 / f64::from(cfg.memory.dram_cycles_per_txn))
            .min(f64::from(cfg.memory.dram_queue_depth) / f64::from(cfg.memory.dram_latency));
        let bw_cycles_per_txn = 1.0 / (per_channel * f64::from(cfg.memory.partitions)).max(1e-9);
        AnalyticalMemory {
            terms,
            per_pc,
            default_latency: terms.expected_latency(PcHitRates::all_dram()),
            outstanding: (0..cfg.num_sms).map(|_| Outstanding::default()).collect(),
            contention_per_txn: (1.0 / service.max(1e-6)).min(16.0),
            bw_next_free: 0.0,
            bw_cycles_per_txn,
            accesses: 0,
            txns: 0,
            contention_cycles: 0,
            est_l1_hits: 0.0,
            est_l1_misses: 0.0,
            est_l2_hits: 0.0,
            est_dram_reads: 0.0,
            est_dram_writes: 0.0,
            prof_accesses: 0,
            prof_contention: 0,
        }
    }

    /// Convenience constructor: the per-PC rates of every PC a finished
    /// functional simulation observed.
    pub fn from_funcsim(cfg: &GpuConfig, sim: &FunctionalCacheSim) -> Self {
        let rates = sim.pcs().map(|pc| (pc, sim.rates(pc))).collect();
        AnalyticalMemory::new(cfg, &rates)
    }

    /// The Eq. 1 latency terms in use.
    pub fn terms(&self) -> LatencyTerms {
        self.terms
    }

    /// The expected uncontended latency for `pc`.
    pub fn latency_of(&self, pc: u32) -> f64 {
        self.per_pc
            .get(&pc)
            .map_or(self.default_latency, |&(latency, _)| latency)
    }
}

impl MemorySystem for AnalyticalMemory {
    fn access(&mut self, sm: usize, pc: u32, txns: &[MemTxn], now: Cycle) -> MemReply {
        self.accesses += 1;
        self.txns += txns.len() as u64;
        let (l_inst, rates) = self
            .per_pc
            .get(&pc)
            .copied()
            .unwrap_or((self.default_latency, PcHitRates::all_dram()));
        let dram_rate = rates.dram;
        // Expected per-level service counts from the rate profile: the
        // estimated hierarchy statistics the model reports in place of
        // simulated ones.
        let n = txns.len() as f64;
        let writes = txns.iter().filter(|t| t.write).count() as f64;
        self.est_l1_hits += rates.l1 * n;
        self.est_l1_misses += (rates.l2 + rates.dram) * n;
        self.est_l2_hits += rates.l2 * n;
        // Every DRAM-served transaction fetches the line (write-allocate),
        // and a missing store additionally writes the dirty line back —
        // the same ~0.75 writebacks-per-store factor the bandwidth model
        // below uses.
        self.est_dram_reads += rates.dram * n;
        self.est_dram_writes += 0.75 * rates.dram * writes;
        let outstanding = &mut self.outstanding[sm];
        outstanding.expire(now);
        // Contention adder, part 1: queueing pressure from this SM's
        // outstanding transactions plus serialization of this access's own
        // transactions.
        let pressure = outstanding.times.len() as f64 * self.contention_per_txn;
        let serialization = (txns.len().saturating_sub(1)) as f64;

        // Part 2: the global bandwidth ceiling. Each expected DRAM
        // transaction advances the shared service clock; in saturation the
        // clock overtakes the latency estimate and throughput converges to
        // the channels' effective bandwidth.
        // A missing load costs one DRAM read. A missing store costs more:
        // the write-allocate L2 fetches the line (one read) and eventually
        // writes the dirty line back (~0.75 writebacks per store observed
        // against the cycle-accurate hierarchy).
        let dram_txns: f64 = txns
            .iter()
            .map(|t| if t.write { 1.75 } else { 1.0 })
            .sum::<f64>()
            * dram_rate;
        self.bw_next_free = self.bw_next_free.max(now as f64) + dram_txns * self.bw_cycles_per_txn;

        let latency_done =
            now + l_inst.round() as Cycle + (pressure + serialization).round() as u64;
        let done = latency_done.max(self.bw_next_free as Cycle);
        self.contention_cycles += done - (now + l_inst.round() as Cycle).min(done);

        outstanding.push(done, txns.len());
        MemReply::Done(done)
    }

    fn advance(&mut self, _now: Cycle, _completions: &mut Vec<MemCompletion>) {}

    fn next_event(&self) -> Option<Cycle> {
        None
    }

    fn report(&self, collector: &mut MetricsCollector) {
        let mut scope = collector.scope("mem");
        scope.set("accesses", Value::Count(self.accesses));
        scope.set("txns", Value::Count(self.txns));
        scope.set("contention_cycles", Value::Cycles(self.contention_cycles));
        scope.set("model.pcs", Value::Count(self.per_pc.len() as u64));
        // Estimated hierarchy statistics, under the same keys the
        // cycle-accurate hierarchy reports, so the stat catalog's
        // l1/l2/dram entries exist for every preset.
        scope.set("l1.hits", Value::Count(self.est_l1_hits.round() as u64));
        scope.set("l1.misses", Value::Count(self.est_l1_misses.round() as u64));
        let l1_total = self.est_l1_hits + self.est_l1_misses;
        scope.set(
            "l1.miss_rate",
            Value::Ratio(if l1_total == 0.0 {
                0.0
            } else {
                self.est_l1_misses / l1_total
            }),
        );
        let l2_total = self.est_l2_hits + self.est_dram_reads;
        scope.set(
            "l2.miss_rate",
            Value::Ratio(if l2_total == 0.0 {
                0.0
            } else {
                self.est_dram_reads / l2_total
            }),
        );
        scope.set(
            "dram.reads",
            Value::Count(self.est_dram_reads.round() as u64),
        );
        scope.set(
            "dram.writes",
            Value::Count(self.est_dram_writes.round() as u64),
        );
    }

    fn name(&self) -> &'static str {
        "analytical_memory"
    }

    fn report_profile(&mut self, prof: &mut Profiler) {
        // The analytical model is evaluated synchronously inside the LD/ST
        // issue path, so its wall time already lands in the ldst-coalescer
        // span; here it contributes its event volume and the contention
        // cycles it charged this kernel.
        let accesses = self.accesses - self.prof_accesses;
        let contention = self.contention_cycles - self.prof_contention;
        self.prof_accesses = self.accesses;
        self.prof_contention = self.contention_cycles;
        if accesses > 0 {
            prof.record_wall_ns(ProfModule::MemAnalytical, 0, accesses);
        }
        if contention > 0 {
            prof.add_cycles(ProfModule::MemAnalytical, contention);
        }
    }

    fn save_state(&self) -> Result<Json, String> {
        // The per-PC latency table and the Eq. 1 terms are a pure function
        // of the configuration and the pre-pass, which a resumed run
        // rebuilds identically — only the evolving timing state travels.
        // Outstanding completion times may legitimately lie in the future
        // at a kernel boundary, and times already past stay until the SM's
        // next access expires them; one word per transaction, ascending.
        let mut w = WordWriter::new();
        w.push_f64(self.bw_next_free);
        w.push(self.accesses);
        w.push(self.txns);
        w.push(self.contention_cycles);
        w.push(self.prof_accesses);
        w.push(self.prof_contention);
        w.push_f64(self.est_l1_hits);
        w.push_f64(self.est_l1_misses);
        w.push_f64(self.est_l2_hits);
        w.push_f64(self.est_dram_reads);
        w.push_f64(self.est_dram_writes);
        w.push(self.outstanding.len() as u64);
        for outstanding in &self.outstanding {
            let (front, back) = outstanding.times.as_slices();
            w.push_slice(&[front, back].concat());
        }
        Ok(Json::obj(vec![
            ("kind", Json::str("analytical")),
            ("v", Json::str(w.finish())),
        ]))
    }

    fn load_state(&mut self, state: &Json) -> Result<(), String> {
        let kind = state.get("kind").and_then(Json::as_str).unwrap_or("?");
        if kind != "analytical" {
            return Err(format!(
                "memory snapshot is for a {kind:?} model, this run uses analytical"
            ));
        }
        let text = state
            .get("v")
            .and_then(Json::as_str)
            .ok_or_else(|| "memory snapshot missing words".to_owned())?;
        let mut r = WordReader::new(text, "analytical memory");
        let bw_next_free = r.next_f64()?;
        let accesses = r.next()?;
        let txns = r.next()?;
        let contention_cycles = r.next()?;
        let prof_accesses = r.next()?;
        let prof_contention = r.next()?;
        let est_l1_hits = r.next_f64()?;
        let est_l1_misses = r.next_f64()?;
        let est_l2_hits = r.next_f64()?;
        let est_dram_reads = r.next_f64()?;
        let est_dram_writes = r.next_f64()?;
        let nsm = r.next_usize()?;
        if nsm != self.outstanding.len() {
            return Err(format!(
                "memory snapshot has {nsm} SMs, this config has {}",
                self.outstanding.len()
            ));
        }
        let mut outstanding = Vec::with_capacity(nsm);
        for _ in 0..nsm {
            let mut sm = Outstanding::default();
            for t in r.next_slice()? {
                sm.push(t, 1);
            }
            outstanding.push(sm);
        }
        r.finish()?;
        self.bw_next_free = bw_next_free;
        self.accesses = accesses;
        self.txns = txns;
        self.contention_cycles = contention_cycles;
        self.prof_accesses = prof_accesses;
        self.prof_contention = prof_contention;
        self.est_l1_hits = est_l1_hits;
        self.est_l1_misses = est_l1_misses;
        self.est_l2_hits = est_l2_hits;
        self.est_dram_reads = est_dram_reads;
        self.est_dram_writes = est_dram_writes;
        self.outstanding = outstanding;
        Ok(())
    }
}

/// One SM's outstanding transactions in [`AnalyticalMemory`]: their
/// completion cycles in ascending order, expired lazily at the SM's next
/// access exactly as a min-heap of them pops. Completion times come mostly
/// in order (the bandwidth clock only moves forward), so a new one is
/// appended or inserted a few places from the back; an SM keeps hundreds
/// in flight under a saturated bandwidth clock, at one word each.
#[derive(Debug, Default)]
struct Outstanding {
    times: VecDeque<Cycle>,
}

impl Outstanding {
    /// Drop every transaction done by `now`.
    fn expire(&mut self, now: Cycle) {
        while self.times.front().is_some_and(|&t| t <= now) {
            self.times.pop_front();
        }
    }

    /// Record `n` transactions done at `done`.
    fn push(&mut self, done: Cycle, n: usize) {
        if self.times.back().is_none_or(|&t| t <= done) {
            self.times.extend(std::iter::repeat_n(done, n));
        } else {
            let at = self.times.partition_point(|&t| t <= done);
            for _ in 0..n {
                self.times.insert(at, done);
            }
        }
    }
}

/// The buffer every memory instruction of a trace is coalesced into — by
/// the LD/ST issue path and by the analytical pre-passes — so neither
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

/// Streaming accumulator behind [`build_analytical_memory_for`]: the
/// functional cache-simulation pre-pass (§III-D2's "cache simulator")
/// consumed one memory instruction at a time, so no kernel has to be
/// decoded for it. Feed every kernel's instructions in launch order, as
/// [`TraceSource::for_each_mem_inst`] hands them out, then
/// [`finish`](AnalyticalMemoryBuilder::finish).
pub struct AnalyticalMemoryBuilder {
    cfg: GpuConfig,
    funcsim: FunctionalCacheSim,
    mapping: AddressMapping,
    num_sms: usize,
    scratch: CoalesceScratch,
}

impl AnalyticalMemoryBuilder {
    /// Start a pre-pass for the given hardware configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        AnalyticalMemoryBuilder {
            cfg: cfg.clone(),
            funcsim: FunctionalCacheSim::new(cfg),
            mapping: AddressMapping::new(&cfg.sm.l1d),
            num_sms: cfg.num_sms.max(1) as usize,
            scratch: CoalesceScratch::default(),
        }
    }

    /// Replay one global or local memory instruction through the
    /// functional cache simulator.
    pub fn feed(&mut self, inst: &MemInstRef<'_>) {
        // Place block `b` on SM `b % num_sms`: round-robin, which is not
        // what the block scheduler does (it fills SM 0 to its occupancy
        // limit first, `block_scheduler.rs`). Each SM's L1 stream depends
        // only on this placement; making the two agree moves every
        // simulated result, so it waits for a model change of its own.
        let sm = inst.block % self.num_sms;
        for &txn in self.scratch.coalesce_ref(&self.mapping, inst) {
            self.funcsim.access(sm, inst.pc, txn);
        }
    }

    /// Instantiate the Eq. 1 model from the accumulated per-PC hit rates.
    pub fn finish(self) -> Box<dyn MemorySystem> {
        Box::new(AnalyticalMemory::from_funcsim(&self.cfg, &self.funcsim))
    }
}

/// Build an [`AnalyticalMemory`] for the given kernel launches of
/// `source`: the functional cache-simulation pre-pass replays every
/// global/local memory instruction of those launches to obtain per-PC hit
/// rates, then instantiates the Eq. 1 model from them. Each kernel is
/// skimmed once ([`TraceSource::for_each_mem_inst`]) and never decoded, so
/// peak memory is one kernel's bytes. The pre-pass cost is part of
/// Swift-Sim-Memory's runtime; DESIGN.md, "Analytical pre-pass", gives its
/// cost model and its share of a run on the repository benchmark.
///
/// A full run passes every launch; a sampled run passes only the launches
/// it will simulate in detail. Replayed launches are never decoded, which
/// is where most of kernel-level sampling's speedup comes from.
///
/// # Errors
///
/// Returns [`crate::SimError::Trace`] when a kernel fails its skim.
pub fn build_analytical_memory_for(
    cfg: &GpuConfig,
    source: &dyn TraceSource,
    kernels: &[usize],
) -> Result<Box<dyn MemorySystem>, crate::SimError> {
    let mut builder = AnalyticalMemoryBuilder::new(cfg);
    for &k in kernels {
        source.for_each_mem_inst(k, &mut |inst| builder.feed(inst))?;
    }
    Ok(builder.finish())
}

/// Build an [`AnalyticalMemory`] for the given kernel launches of
/// `source` using the *reuse-distance tool* instead of the functional
/// cache simulator — the other hit-rate source §III-D2 names. Stack
/// distances are computed per SM for the L1 (stores bypass the
/// write-through, no-allocate L1) and globally for the shared L2; an
/// access is predicted to hit a level when its distance is below that
/// level's line capacity (fully-associative LRU approximation — exactly
/// the assumption §II-B criticizes, which is why non-LRU exploration needs
/// the cycle-accurate cache module instead). Launches are chosen as for
/// [`build_analytical_memory_for`].
///
/// # Errors
///
/// Returns [`crate::SimError::Trace`] when a kernel fails its skim.
pub fn build_analytical_memory_reuse_for(
    cfg: &GpuConfig,
    source: &dyn TraceSource,
    kernels: &[usize],
) -> Result<Box<dyn MemorySystem>, crate::SimError> {
    let mut builder = ReuseAnalyticalMemoryBuilder::new(cfg);
    for &k in kernels {
        source.for_each_mem_inst(k, &mut |inst| builder.feed(inst))?;
    }
    Ok(builder.finish())
}

#[derive(Default, Clone, Copy)]
struct ReuseCounts {
    l1: u64,
    l2: u64,
    dram: u64,
}

/// Streaming accumulator behind [`build_analytical_memory_reuse_for`]: the
/// reuse-distance pre-pass consumed one memory instruction at a time. Feed
/// every kernel's instructions in launch order, as
/// [`TraceSource::for_each_mem_inst`] hands them out, then
/// [`finish`](ReuseAnalyticalMemoryBuilder::finish).
pub struct ReuseAnalyticalMemoryBuilder {
    cfg: GpuConfig,
    mapping: AddressMapping,
    num_sms: usize,
    l1_lines: u64,
    l2_lines: u64,
    l1_rd: Vec<ReuseDistanceAnalyzer>,
    l2_rd: ReuseDistanceAnalyzer,
    per_pc: FastMap<u32, ReuseCounts>,
    scratch: CoalesceScratch,
}

impl ReuseAnalyticalMemoryBuilder {
    /// Start a pre-pass for the given hardware configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        let num_sms = cfg.num_sms.max(1) as usize;
        ReuseAnalyticalMemoryBuilder {
            cfg: cfg.clone(),
            mapping: AddressMapping::new(&cfg.sm.l1d),
            num_sms,
            l1_lines: u64::from(cfg.sm.l1d.sets) * u64::from(cfg.sm.l1d.ways),
            l2_lines: u64::from(cfg.memory.l2.sets)
                * u64::from(cfg.memory.l2.ways)
                * u64::from(cfg.memory.partitions),
            l1_rd: (0..num_sms).map(|_| ReuseDistanceAnalyzer::new()).collect(),
            l2_rd: ReuseDistanceAnalyzer::new(),
            per_pc: FastMap::default(),
            scratch: CoalesceScratch::default(),
        }
    }

    /// Replay one global or local memory instruction through the
    /// reuse-distance analyzers.
    pub fn feed(&mut self, inst: &MemInstRef<'_>) {
        let sm = inst.block % self.num_sms;
        let counts = self.per_pc.entry(inst.pc).or_default();
        for txn in self.scratch.coalesce_ref(&self.mapping, inst) {
            let l1_hit = if txn.write {
                false // write-through, no-write-allocate L1
            } else {
                matches!(self.l1_rd[sm].record(txn.line_addr),
                         Some(d) if d < self.l1_lines)
            };
            if l1_hit {
                counts.l1 += 1;
                continue;
            }
            let l2_hit = matches!(self.l2_rd.record(txn.line_addr),
                                  Some(d) if d < self.l2_lines);
            if l2_hit {
                counts.l2 += 1;
            } else {
                counts.dram += 1;
            }
        }
    }

    /// Instantiate the Eq. 1 model from the accumulated hit counts.
    pub fn finish(self) -> Box<dyn MemorySystem> {
        let rates: HashMap<u32, PcHitRates> = self
            .per_pc
            .into_iter()
            .map(|(pc, c)| {
                let total = (c.l1 + c.l2 + c.dram).max(1) as f64;
                (
                    pc,
                    PcHitRates {
                        l1: c.l1 as f64 / total,
                        l2: c.l2 as f64 / total,
                        dram: c.dram as f64 / total,
                    },
                )
            })
            .collect();
        Box::new(AnalyticalMemory::new(&self.cfg, &rates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;

    fn small_cfg() -> GpuConfig {
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
        assert_eq!(mem.l1_stats(0).hits, 1);
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
