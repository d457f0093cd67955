//! Fast functional (timing-free) cache-hierarchy simulation.
//!
//! This is the "cache simulator" option the paper names for obtaining the
//! per-PC hit rates `R_L1`, `R_L2`, `R_DRAM` of the analytical memory model
//! (Eq. 1). It replays an application's coalesced memory transactions
//! through functional copies of every L1 and every L2 slice — same sectored
//! tag arrays and replacement policies as the cycle-accurate caches, but no
//! MSHRs, queues, or cycle ticking — and accumulates, for each load PC,
//! where its accesses were served.
//!
//! The pass is part of every Swift-Sim-Memory run and is not free beside
//! it: measured on the repository benchmark it is a quarter to a third of
//! the run (DESIGN.md, "Analytical pre-pass"), most of that the trace
//! decode that feeds it. The replay itself is one [`TagArray::touch`] per cache
//! level and a counter bump per transaction, with no heap traffic.

use crate::addr::AddressMapping;
use crate::coalesce::MemTxn;
use crate::fasthash::FastMap;
use crate::tag_array::TagArray;
use swiftsim_config::GpuConfig;

/// Where a PC's accesses were served, as fractions summing to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcHitRates {
    /// Fraction of accesses hitting in L1 (`R_L1` in Eq. 1).
    pub l1: f64,
    /// Fraction hitting in L2 (`R_L2`).
    pub l2: f64,
    /// Fraction served by DRAM (`R_DRAM`).
    pub dram: f64,
}

impl PcHitRates {
    /// Rates for a PC that was never observed: everything from DRAM, the
    /// conservative default.
    pub fn all_dram() -> Self {
        PcHitRates {
            l1: 0.0,
            l2: 0.0,
            dram: 1.0,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    l1_hits: u64,
    l2_hits: u64,
    dram: u64,
}

impl Counts {
    fn total(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.dram
    }
}

/// Functional two-level sectored cache simulation over a whole GPU.
#[derive(Debug, Clone)]
pub struct FunctionalCacheSim {
    l1s: Vec<TagArray>,
    l2s: Vec<TagArray>,
    line_bytes: u32,
    partitions: u32,
    per_pc: FastMap<u32, Counts>,
    overall: Counts,
    time: u64,
}

impl FunctionalCacheSim {
    /// Build functional caches for every SM and memory partition of `cfg`.
    pub fn new(cfg: &GpuConfig) -> Self {
        FunctionalCacheSim {
            l1s: (0..cfg.num_sms)
                .map(|i| TagArray::new(&cfg.sm.l1d, u64::from(i)))
                .collect(),
            l2s: (0..cfg.memory.partitions)
                .map(|i| TagArray::new(&cfg.memory.l2, 0x1_0000 + u64::from(i)))
                .collect(),
            line_bytes: cfg.memory.l2.line_bytes,
            partitions: cfg.memory.partitions,
            per_pc: FastMap::default(),
            overall: Counts::default(),
            time: 0,
        }
    }

    /// Replay one coalesced transaction issued by SM `sm` at load/store PC
    /// `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range for the configured GPU.
    pub fn access(&mut self, sm: usize, pc: u32, txn: MemTxn) {
        self.time += 1;
        let now = self.time;
        let counts = self.per_pc.entry(pc).or_default();

        // Write-through, no-write-allocate L1: stores skip L1 presence.
        if !txn.write && self.l1s[sm].touch(txn.line_addr, txn.sector_mask, now) {
            counts.l1_hits += 1;
            self.overall.l1_hits += 1;
            return;
        }
        let part = AddressMapping::partition_index(txn.line_addr, self.line_bytes, self.partitions);
        if self.l2s[part].touch(txn.line_addr, txn.sector_mask, now) {
            counts.l2_hits += 1;
            self.overall.l2_hits += 1;
        } else {
            counts.dram += 1;
            self.overall.dram += 1;
        }
    }

    /// Hit rates observed for `pc`, or the all-DRAM default if the PC was
    /// never replayed.
    pub fn rates(&self, pc: u32) -> PcHitRates {
        match self.per_pc.get(&pc) {
            Some(c) if c.total() > 0 => {
                let t = c.total() as f64;
                PcHitRates {
                    l1: c.l1_hits as f64 / t,
                    l2: c.l2_hits as f64 / t,
                    dram: c.dram as f64 / t,
                }
            }
            _ => PcHitRates::all_dram(),
        }
    }

    /// Aggregate hit rates over all replayed transactions.
    pub fn overall_rates(&self) -> PcHitRates {
        let c = self.overall;
        if c.total() == 0 {
            return PcHitRates::all_dram();
        }
        let t = c.total() as f64;
        PcHitRates {
            l1: c.l1_hits as f64 / t,
            l2: c.l2_hits as f64 / t,
            dram: c.dram as f64 / t,
        }
    }

    /// Total transactions replayed.
    pub fn accesses(&self) -> u64 {
        self.time
    }

    /// Distinct load/store PCs observed.
    pub fn num_pcs(&self) -> usize {
        self.per_pc.len()
    }

    /// The load/store PCs observed, in no particular order.
    pub fn pcs(&self) -> impl Iterator<Item = u32> + '_ {
        self.per_pc.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;

    fn read(line: u64) -> MemTxn {
        MemTxn {
            line_addr: line,
            sector_mask: 0b0001,
            write: false,
        }
    }

    #[test]
    fn repeated_access_hits_l1() {
        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        sim.access(0, 0x10, read(0x1000));
        for _ in 0..9 {
            sim.access(0, 0x10, read(0x1000));
        }
        let r = sim.rates(0x10);
        assert!((r.l1 - 0.9).abs() < 1e-12, "r = {r:?}");
        assert!((r.dram - 0.1).abs() < 1e-12);
        assert_eq!(sim.accesses(), 10);
        assert_eq!(sim.num_pcs(), 1);
    }

    #[test]
    fn cross_sm_reuse_hits_l2_not_l1() {
        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        sim.access(0, 0x10, read(0x1000));
        // A different SM misses its own L1 but finds the line in shared L2.
        sim.access(1, 0x10, read(0x1000));
        let r = sim.rates(0x10);
        assert_eq!(r.l1, 0.0);
        assert!((r.l2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rates_sum_to_one() {
        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        for i in 0..500u64 {
            sim.access((i % 4) as usize, 0x20, read((i % 37) * 0x80));
        }
        let r = sim.rates(0x20);
        assert!((r.l1 + r.l2 + r.dram - 1.0).abs() < 1e-9);
        let o = sim.overall_rates();
        assert!((o.l1 + o.l2 + o.dram - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_pc_defaults_to_dram() {
        let sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        assert_eq!(sim.rates(0xdead), PcHitRates::all_dram());
        assert_eq!(sim.overall_rates(), PcHitRates::all_dram());
    }

    #[test]
    fn stores_bypass_l1() {
        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        let w = MemTxn {
            line_addr: 0x2000,
            sector_mask: 1,
            write: true,
        };
        sim.access(0, 0x30, w);
        sim.access(0, 0x30, w);
        let r = sim.rates(0x30);
        // Second store hits L2 (allocated by the first), never L1.
        assert_eq!(r.l1, 0.0);
        assert!((r.l2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_pc_rates_are_independent() {
        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        // PC 1 streams (never reuses); PC 2 hammers one line.
        for i in 0..100u64 {
            sim.access(0, 1, read(0x10_0000 + i * 0x80));
            sim.access(0, 2, read(0x2000));
        }
        assert_eq!(sim.rates(1).l1, 0.0);
        assert!(sim.rates(2).l1 > 0.9);
    }
}
