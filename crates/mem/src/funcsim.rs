//! Fast functional (timing-free) cache-hierarchy simulation, and the
//! per-PC table of where transactions were served.
//!
//! [`FunctionalCacheSim`] is the "cache simulator" option the paper names
//! for obtaining the per-PC hit rates `R_L1`, `R_L2`, `R_DRAM` of the
//! analytical memory model (Eq. 1). It replays an application's coalesced
//! memory transactions through functional copies of every L1 and every L2
//! slice — same sectored tag arrays and replacement policies as the
//! cycle-accurate caches, but no MSHRs, queues, or cycle ticking — and
//! says which level served each one. The other option, a reuse-distance
//! tool ([`crate::ReuseDistanceAnalyzer`]), answers the same question from
//! stack distances. Either way the answers go into one [`PcHitTable`],
//! whose per-PC counts become the rates.
//!
//! The pass is part of every Swift-Sim-Memory run and is not free beside
//! it: measured on the repository benchmark it is a quarter to a third of
//! the run (DESIGN.md, "Analytical pre-pass"), most of that the trace
//! decode that feeds it. The replay itself is one [`TagArray::touch`] per
//! cache level per transaction, with no heap traffic.

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

/// The level of the hierarchy that served one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Hit in the issuing SM's L1.
    L1,
    /// Missed L1, hit in the L2.
    L2,
    /// Missed both caches.
    Dram,
}

/// Per-PC counts of the level that served each transaction. A PC gets an
/// entry at its first transaction, so an instruction with no active lane
/// leaves none.
#[derive(Debug, Clone, Default)]
pub struct PcHitTable {
    /// Transactions served by `[L1, L2, DRAM]`.
    per_pc: FastMap<u32, [u64; 3]>,
}

impl PcHitTable {
    /// Count one transaction of `pc`, served by `level`.
    pub fn record(&mut self, pc: u32, level: ServedBy) {
        self.per_pc.entry(pc).or_default()[level as usize] += 1;
    }

    /// Every PC with a transaction and its hit rates, in no particular
    /// order.
    pub fn rates(&self) -> impl Iterator<Item = (u32, PcHitRates)> + '_ {
        self.per_pc.iter().map(|(&pc, &[l1, l2, dram])| {
            let t = (l1 + l2 + dram) as f64;
            let rates = PcHitRates {
                l1: l1 as f64 / t,
                l2: l2 as f64 / t,
                dram: dram as f64 / t,
            };
            (pc, rates)
        })
    }
}

/// Functional two-level sectored cache simulation over a whole GPU.
#[derive(Debug, Clone)]
pub struct FunctionalCacheSim {
    l1s: Vec<TagArray>,
    l2s: Vec<TagArray>,
    line_bytes: u32,
    partitions: u32,
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
            time: 0,
        }
    }

    /// Replay one coalesced transaction issued by SM `sm` at load/store PC
    /// `pc` and return the level that served it. The replay does not
    /// depend on `pc`; the caller tallies levels per PC in a
    /// [`PcHitTable`].
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range for the configured GPU.
    pub fn access(&mut self, sm: usize, pc: u32, txn: MemTxn) -> ServedBy {
        let _ = pc;
        self.time += 1;
        let now = self.time;
        // Write-through, no-write-allocate L1: stores skip L1 presence.
        if !txn.write && self.l1s[sm].touch(txn.line_addr, txn.sector_mask, now) {
            return ServedBy::L1;
        }
        let part = AddressMapping::partition_index(txn.line_addr, self.line_bytes, self.partitions);
        if self.l2s[part].touch(txn.line_addr, txn.sector_mask, now) {
            ServedBy::L2
        } else {
            ServedBy::Dram
        }
    }

    /// Total transactions replayed.
    pub fn accesses(&self) -> u64 {
        self.time
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

    /// Replay `(sm, pc, txn)` triples into a fresh table.
    fn replay(sim: &mut FunctionalCacheSim, txns: &[(usize, u32, MemTxn)]) -> PcHitTable {
        let mut table = PcHitTable::default();
        for &(sm, pc, txn) in txns {
            table.record(pc, sim.access(sm, pc, txn));
        }
        table
    }

    fn rates_of(table: &PcHitTable, pc: u32) -> Option<PcHitRates> {
        table.rates().find(|&(p, _)| p == pc).map(|(_, r)| r)
    }

    #[test]
    fn repeated_access_hits_l1() {
        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        assert_eq!(sim.access(0, 0x10, read(0x1000)), ServedBy::Dram);
        for _ in 0..9 {
            assert_eq!(sim.access(0, 0x10, read(0x1000)), ServedBy::L1);
        }
        assert_eq!(sim.accesses(), 10);

        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        let table = replay(&mut sim, &[(0, 0x10, read(0x1000)); 10]);
        let r = rates_of(&table, 0x10).expect("replayed");
        assert!((r.l1 - 0.9).abs() < 1e-12, "r = {r:?}");
        assert!((r.dram - 0.1).abs() < 1e-12);
        assert_eq!(table.rates().count(), 1);
    }

    #[test]
    fn cross_sm_reuse_hits_l2_not_l1() {
        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        assert_eq!(sim.access(0, 0x10, read(0x1000)), ServedBy::Dram);
        // A different SM misses its own L1 but finds the line in shared L2.
        assert_eq!(sim.access(1, 0x10, read(0x1000)), ServedBy::L2);
    }

    #[test]
    fn rates_sum_to_one() {
        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        let txns: Vec<_> = (0..500u64)
            .map(|i| {
                (
                    (i % 4) as usize,
                    0x20 + (i % 3) as u32,
                    read((i % 37) * 0x80),
                )
            })
            .collect();
        let table = replay(&mut sim, &txns);
        assert_eq!(table.rates().count(), 3);
        for (pc, r) in table.rates() {
            assert!(
                (r.l1 + r.l2 + r.dram - 1.0).abs() < 1e-9,
                "pc {pc:#x}: {r:?}"
            );
        }
    }

    #[test]
    fn unknown_pc_defaults_to_dram() {
        // A PC the table never saw has no rates; Eq. 1 charges it all-DRAM.
        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        let table = replay(&mut sim, &[(0, 0x10, read(0x1000))]);
        assert_eq!(rates_of(&table, 0xdead), None);
        assert_eq!(rates_of(&PcHitTable::default(), 0x10), None);
        assert_eq!(
            PcHitRates::all_dram(),
            PcHitRates {
                l1: 0.0,
                l2: 0.0,
                dram: 1.0
            }
        );
    }

    #[test]
    fn stores_bypass_l1() {
        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        let w = MemTxn {
            line_addr: 0x2000,
            sector_mask: 1,
            write: true,
        };
        // Second store hits L2 (allocated by the first), never L1.
        assert_eq!(sim.access(0, 0x30, w), ServedBy::Dram);
        assert_eq!(sim.access(0, 0x30, w), ServedBy::L2);
    }

    #[test]
    fn per_pc_rates_are_independent() {
        let mut sim = FunctionalCacheSim::new(&presets::rtx2080ti());
        // PC 1 streams (never reuses); PC 2 hammers one line.
        let txns: Vec<_> = (0..100u64)
            .flat_map(|i| [(0, 1, read(0x10_0000 + i * 0x80)), (0, 2, read(0x2000))])
            .collect();
        let table = replay(&mut sim, &txns);
        assert_eq!(rates_of(&table, 1).unwrap().l1, 0.0);
        assert!(rates_of(&table, 2).unwrap().l1 > 0.9);
    }
}
