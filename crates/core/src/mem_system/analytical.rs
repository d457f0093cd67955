//! The analytical memory model of §III-D2: Eq. 1 over per-PC hit rates,
//! plus a contention adder.

use super::{MemCompletion, MemReply, MemorySystem};
use crate::Cycle;
use std::collections::{HashMap, VecDeque};
use swiftsim_config::GpuConfig;
use swiftsim_mem::{FastMap, MemTxn, PcHitRates};
use swiftsim_metrics::{MetricsCollector, ProfModule, Profiler, Value};

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
    /// Build the model from per-PC hit rates (the pre-pass takes them from
    /// a functional cache simulation or from reuse distances).
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
}

/// One SM's outstanding transactions in [`AnalyticalMemory`]: their
/// completion cycles in ascending order, expired lazily at the SM's next
/// access exactly as a min-heap of them pops. Completion times come mostly
/// in order (the bandwidth clock only moves forward), so a new one is
/// appended or inserted a few places from the back; an SM keeps hundreds
/// in flight under a saturated bandwidth clock, at one word each.
#[derive(Debug, Default)]
pub(super) struct Outstanding {
    pub(super) times: VecDeque<Cycle>,
}

impl Outstanding {
    /// Drop every transaction done by `now`.
    pub(super) fn expire(&mut self, now: Cycle) {
        while self.times.front().is_some_and(|&t| t <= now) {
            self.times.pop_front();
        }
    }

    /// Record `n` transactions done at `done`.
    pub(super) fn push(&mut self, done: Cycle, n: usize) {
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
