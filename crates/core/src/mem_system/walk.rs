//! The cycle-accurate hierarchy walk: [`CycleAccurateMemory`].

use super::calendar::CalendarQueue;
use super::slab::Slab;
use super::{MemCompletion, MemReply, MemorySystem};
use crate::Cycle;
use std::collections::VecDeque;
use swiftsim_config::GpuConfig;
use swiftsim_mem::{AccessOutcome, AddressMapping, DramChannel, MemTxn, SectorCache};
use swiftsim_metrics::{MetricsCollector, ProfModule, Profiler, Value};
use swiftsim_noc::{Crossbar, Interconnect, Mesh};

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
    /// Drain the messages `link` refused toward destination `dst`.
    Drain { link: Link, dst: usize },
}

/// The three links of the walk that can refuse a message: a NoC port whose
/// queue is full or a DRAM channel whose request queue is.
#[derive(Debug, Clone, Copy)]
enum Link {
    /// SM → L2 slice over the forward NoC; the destination is a partition.
    Fwd,
    /// L2 slice → SM over the reply NoC; the destination is an SM.
    Rsp,
    /// L2 slice → its DRAM channel; the destination is the partition.
    Dram,
}

/// What each link's refused messages wait in, indexed by [`Link`].
const LINK_QUEUES: [&str; 3] = [
    "forward-NoC injection",
    "reply-NoC injection",
    "DRAM submission",
];

/// One message on a link: the sending port (an SM or a partition), the
/// line transaction, and for a request toward L2 its packed waiter.
#[derive(Debug, Clone, Copy)]
struct Msg {
    src: usize,
    txn: MemTxn,
    waiter: u64,
}

impl Msg {
    /// A message no request waits on: a reply or a DRAM transaction.
    fn line(src: usize, line_addr: u64, sector_mask: u8, write: bool) -> Msg {
        let txn = MemTxn {
            line_addr,
            sector_mask,
            write,
        };
        Msg {
            src,
            txn,
            waiter: NO_WAITER,
        }
    }
}

/// The messages one link refused, queued at their source per destination
/// and drained in order as the destination frees: one armed drain event
/// per destination, so back-pressure costs O(1) per message.
#[derive(Debug)]
struct Refused {
    pending: Vec<VecDeque<Msg>>,
    armed: Vec<bool>,
}

/// The sectors a DRAM fill returns to the SM: the whole line.
const FULL_LINE: u8 = 0b1111;

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
    /// Pending events, popped in `(cycle, scheduling order)` order.
    events: CalendarQueue<Event>,
    /// In-flight warp requests; a request's token is its slot.
    reqs: Slab<PendingReq>,
    /// What each link refused, indexed by [`Link`].
    refused: [Refused; 3],
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
            refused: [parts, sms, parts].map(|n| Refused {
                pending: vec![VecDeque::new(); n],
                armed: vec![false; n],
            }),
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

    /// Send a transaction toward L2.
    fn forward_to_l2(&mut self, sm: usize, txn: MemTxn, waiter: u64, now: Cycle) {
        let part = self.partition_of(txn.line_addr);
        let msg = Msg {
            src: sm,
            txn,
            waiter,
        };
        self.send(Link::Fwd, part, msg, now);
    }

    /// Send the `sectors` of line `line_addr` from L2 slice `part` to `sm`.
    fn reply_to_sm(&mut self, part: usize, sm: usize, line_addr: u64, sectors: u8, now: Cycle) {
        let msg = Msg::line(part, line_addr, sectors, false);
        self.send(Link::Rsp, sm, msg, now);
    }

    /// Submit a read (which returns its line to the slice) or a write of
    /// line `line_addr` to partition `part`'s DRAM channel.
    fn submit_dram(&mut self, part: usize, line_addr: u64, write: bool, now: Cycle) {
        let msg = Msg::line(part, line_addr, FULL_LINE, write);
        self.send(Link::Dram, part, msg, now);
    }

    /// Offer `msg` to `link`, or queue it behind the messages the link
    /// already refused toward `dst`, preserving their order.
    ///
    /// `send` and `deliver` are inlined into each caller, where `link` is a
    /// constant, so the per-link matches fold away on the path with no
    /// back-pressure (measured: without it `mvt` and `backprop` on
    /// swift-basic ran 3–5% slower than three separate copies).
    #[inline(always)]
    fn send(&mut self, link: Link, dst: usize, msg: Msg, now: Cycle) {
        if self.refused[link as usize].pending[dst].is_empty() && self.deliver(link, dst, msg, now)
        {
            return;
        }
        self.retry_cycles += 1;
        self.refused[link as usize].pending[dst].push_back(msg);
        self.arm(link, dst, now);
    }

    /// Offer `msg` to `link` once and, if the link accepts it, schedule
    /// its arrival. Returns whether the link accepted it.
    #[inline(always)]
    fn deliver(&mut self, link: Link, dst: usize, msg: Msg, now: Cycle) -> bool {
        let Msg { src, txn, waiter } = msg;
        let accepted = match link {
            Link::Fwd => {
                let flits = 1 + u32::from(txn.write) * txn.num_sectors();
                self.fwd_noc.traverse(src, dst, flits, now)
            }
            Link::Rsp => self.rsp_noc.traverse(src, dst, 1 + txn.num_sectors(), now),
            Link::Dram => self.dram[dst].submit(txn.write, now),
        };
        let Some(at) = accepted else {
            return false;
        };
        let line_addr = txn.line_addr;
        let event = match link {
            Link::Fwd => Event::L2Access {
                part: dst,
                txn,
                waiter,
            },
            Link::Rsp => Event::L1Fill { sm: dst, line_addr },
            // A write retires in the channel; a read returns its line.
            Link::Dram if txn.write => return true,
            Link::Dram => Event::DramReturn {
                part: dst,
                line_addr,
            },
        };
        self.schedule(at, event);
        true
    }

    /// Schedule one drain of `link`'s queue toward `dst` for when the
    /// destination can next accept, unless one is already scheduled.
    fn arm(&mut self, link: Link, dst: usize, now: Cycle) {
        if self.refused[link as usize].armed[dst] {
            return;
        }
        self.refused[link as usize].armed[dst] = true;
        let free = match link {
            Link::Fwd => self.fwd_noc.earliest_accept(dst, now),
            Link::Rsp => self.rsp_noc.earliest_accept(dst, now),
            Link::Dram => self.dram[dst].earliest_accept(now),
        };
        self.schedule(free.max(now + 1), Event::Drain { link, dst });
    }

    fn drain(&mut self, link: Link, dst: usize, now: Cycle) {
        self.refused[link as usize].armed[dst] = false;
        while let Some(msg) = self.refused[link as usize].pending[dst].pop_front() {
            if !self.deliver(link, dst, msg, now) {
                self.refused[link as usize].pending[dst].push_front(msg);
                self.arm(link, dst, now);
                return;
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
            Event::Drain { link, dst } => self.drain(link, dst, now),
            Event::L2Access { part, txn, waiter } => {
                // The L2 MSHR holds the requester's packed (SM, token): the
                // fill's line and that SM are all a reply needs, and the
                // token itself completes at L1 fill time.
                match self.l2[part].access(txn, waiter, now) {
                    AccessOutcome::Hit {
                        ready_at,
                        downstream_write,
                    } => {
                        if let Some(wb) = downstream_write {
                            self.submit_dram(part, wb.line_addr, true, ready_at);
                        }
                        if waiter != NO_WAITER {
                            let (sm, _token) = unpack_sm_token(waiter);
                            self.reply_to_sm(part, sm, txn.line_addr, txn.sector_mask, ready_at);
                        }
                    }
                    AccessOutcome::Miss { fetch, .. } => {
                        self.submit_dram(part, fetch.line_addr, false, now);
                    }
                    AccessOutcome::MissMerged { .. } => {}
                    AccessOutcome::WriteForwarded { forward } => {
                        // L2 is write-back/write-allocate in all presets, but
                        // a no-allocate configuration forwards to DRAM.
                        self.submit_dram(part, forward.line_addr, true, now);
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
                    self.submit_dram(part, wb.line_addr, true, now);
                }
                for waiter in fill.waiters {
                    if waiter != NO_WAITER {
                        let (sm, _token) = unpack_sm_token(waiter);
                        self.reply_to_sm(part, sm, line_addr, FULL_LINE, now);
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
                Event::L2Access { .. } => 2,
                Event::DramReturn { .. }
                | Event::Drain {
                    link: Link::Dram, ..
                } => 3,
                Event::Drain { .. } => 1,
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
        for (what, refused) in LINK_QUEUES.into_iter().zip(&self.refused) {
            let queued = total_len(&refused.pending);
            if queued != 0 {
                return Err(format!("{queued} messages still in the {what} queues"));
            }
            if refused.armed.contains(&true) {
                return Err(format!("a {what} drain event is still armed"));
            }
        }
        let blocked = [("L1", &self.l1_blocked), ("L2", &self.l2_blocked)];
        for (what, queues) in blocked {
            let queued = total_len(queues);
            if queued != 0 {
                return Err(format!(
                    "{queued} messages still in the {what}-blocked queues"
                ));
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_system::tests::small_cfg;

    /// Four SMs on one partition, every NoC port and DRAM channel holding
    /// one message, a 16-line L2, and each wave issued in one cycle. The
    /// first wave's misses and stores crowd the forward NoC and the DRAM
    /// queue; the second finds its lines in L2 and crowds the reply port of
    /// the SM that asks for all of them; the third evicts the stored lines,
    /// so their writebacks queue for DRAM among the reads.
    fn refusing_walk() -> (CycleAccurateMemory, Vec<MemCompletion>) {
        let mut cfg = small_cfg();
        cfg.num_sms = 4;
        cfg.memory.partitions = 1;
        cfg.memory.l2.sets = 4;
        cfg.memory.l2.ways = 4;
        cfg.noc.flits_per_cycle = 1;
        cfg.noc.queue_depth = 1;
        cfg.memory.dram_queue_depth = 1;
        let mut mem = CycleAccurateMemory::new(&cfg);
        let txn = |line_addr: u64, sector_mask: u8, write: bool| MemTxn {
            line_addr,
            sector_mask,
            write,
        };
        let mut done = Vec::new();
        let mut wave =
            |mem: &mut CycleAccurateMemory, at: Cycle, accesses: &[(usize, Vec<MemTxn>)]| {
                for (sm, txns) in accesses {
                    // A reply known at issue is listed under token `u64::MAX`.
                    if let MemReply::Done(at) = mem.access(*sm, 0x10, txns, at) {
                        done.push(MemCompletion {
                            token: u64::MAX,
                            at,
                        });
                    }
                }
                while let Some(t) = mem.next_event() {
                    mem.advance(t, &mut done);
                }
            };
        let first: Vec<_> = (0..4u64)
            .flat_map(|sm| {
                let line = 0x1_0000 + sm * 0x80;
                let loads = vec![txn(line, 0b0011, false), txn(line + 0x1000, 0b1111, false)];
                let store = vec![txn(0x8_0000 + sm * 0x80, 0b0011, true)];
                [(sm as usize, loads), (sm as usize, store)]
            })
            .collect();
        wave(&mut mem, 0, &first);
        let others = (1..4u64).map(|sm| txn(0x1_0000 + sm * 0x80, 0b0011, false));
        wave(&mut mem, 100_000, &[(0, others.collect())]);
        let fresh: Vec<_> = (0..4u64)
            .map(|sm| {
                let lines = (0..4u64).map(|i| txn(0x40_0000 + (sm * 4 + i) * 0x80, 0b1111, false));
                (sm as usize, lines.collect())
            })
            .collect();
        wave(&mut mem, 200_000, &fresh);
        (mem, done)
    }

    #[test]
    fn every_link_refuses_and_drains_in_order() {
        let (mem, done) = refusing_walk();
        let rejections = [
            mem.fwd_noc.stats().rejections,
            mem.rsp_noc.stats().rejections,
            mem.dram.iter().map(|d| d.stats().rejections).sum(),
        ];
        assert_eq!(rejections, [28, 2, 30], "forward NoC, reply NoC, DRAM");
        mem.check_quiescent().expect("drained");
        let pairs: Vec<(u64, Cycle)> = done.iter().map(|d| (d.token, d.at)).collect();
        let sync = u64::MAX;
        assert_eq!(
            pairs,
            [
                (sync, 1),
                (sync, 1),
                (sync, 1),
                (sync, 1),
                (0, 475),
                (1, 1159),
                (2, 1843),
                (3, 2527),
                (3, 100_228),
                (3, 200_931),
                (2, 201_843),
                (1, 202_755),
                (0, 203_667),
            ]
        );
        let mut c = MetricsCollector::new();
        mem.report(&mut c);
        assert_eq!(c.count("mem.dram.writes"), Some(4));
        assert_eq!(c.count("mem.retries"), Some(60));
        assert_eq!(c.count("mem.events"), Some(146));
        assert_eq!(mem.events.scheduled(), 146);
        // A port that holds one message accepts only when it is empty, so
        // it never queues a message behind another.
        assert_eq!(c.get("mem.noc.fwd_stall_cycles"), Some(Value::Cycles(0)));
        assert_eq!(c.get("mem.noc.rsp_stall_cycles"), Some(Value::Cycles(0)));
    }
}
