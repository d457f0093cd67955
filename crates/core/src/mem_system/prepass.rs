//! The analytical pre-pass: one skim of the trace that replays every
//! global/local memory instruction through a hit-rate source and builds
//! the Eq. 1 model from the per-PC rates.
//!
//! §III-D2 takes the hit rates "using a reuse distance tool or cache
//! simulator". The two differ only in which level they say serves each
//! transaction; block placement, coalescing, the per-PC table
//! ([`PcHitTable`]) and the rates are shared.

use super::{AnalyticalMemory, CoalesceScratch, MemorySystem};
use crate::MemoryModelKind;
use std::collections::HashMap;
use swiftsim_config::GpuConfig;
use swiftsim_mem::{
    AddressMapping, FunctionalCacheSim, MemTxn, PcHitTable, ReuseDistanceAnalyzer, ServedBy,
};
use swiftsim_trace::TraceSource;

/// The hit-rate source: which level serves each transaction.
enum Levels {
    /// Functional copies of every L1 and L2 slice ([`FunctionalCacheSim`]).
    Caches(FunctionalCacheSim),
    /// Stack distances per SM for the L1 and over all SMs for the shared
    /// L2; an access hits a level when its distance is below that level's
    /// line capacity (fully-associative LRU approximation — exactly the
    /// assumption §II-B criticizes, which is why non-LRU exploration needs
    /// the cycle-accurate cache module instead).
    Reuse {
        l1: Vec<ReuseDistanceAnalyzer>,
        l2: ReuseDistanceAnalyzer,
        l1_lines: u64,
        l2_lines: u64,
    },
}

impl Levels {
    /// The hit-rate source memory model `kind` names: functional caches for
    /// [`MemoryModelKind::Analytical`], reuse distances for
    /// [`MemoryModelKind::AnalyticalReuse`].
    fn new(cfg: &GpuConfig, kind: MemoryModelKind, num_sms: usize) -> Self {
        match kind {
            MemoryModelKind::AnalyticalReuse => Levels::Reuse {
                l1: (0..num_sms).map(|_| ReuseDistanceAnalyzer::new()).collect(),
                l2: ReuseDistanceAnalyzer::new(),
                l1_lines: u64::from(cfg.sm.l1d.sets) * u64::from(cfg.sm.l1d.ways),
                l2_lines: u64::from(cfg.memory.l2.sets)
                    * u64::from(cfg.memory.l2.ways)
                    * u64::from(cfg.memory.partitions),
            },
            MemoryModelKind::Analytical | MemoryModelKind::CycleAccurate => {
                Levels::Caches(FunctionalCacheSim::new(cfg))
            }
        }
    }

    fn serve(&mut self, sm: usize, pc: u32, txn: MemTxn) -> ServedBy {
        match self {
            Levels::Caches(sim) => sim.access(sm, pc, txn),
            Levels::Reuse {
                l1,
                l2,
                l1_lines,
                l2_lines,
            } => {
                // Stores bypass the write-through, no-write-allocate L1.
                if !txn.write && l1[sm].record(txn.line_addr).is_some_and(|d| d < *l1_lines) {
                    ServedBy::L1
                } else if l2.record(txn.line_addr).is_some_and(|d| d < *l2_lines) {
                    ServedBy::L2
                } else {
                    ServedBy::Dram
                }
            }
        }
    }
}

/// [`build_analytical_memory_for`] with the hit-rate source memory model
/// `kind` names (see [`Levels::new`]), unboxed.
pub(crate) fn build_analytical_memory(
    cfg: &GpuConfig,
    kind: MemoryModelKind,
    source: &dyn TraceSource,
    kernels: &[usize],
) -> Result<AnalyticalMemory, crate::SimError> {
    let mapping = AddressMapping::new(&cfg.sm.l1d);
    let num_sms = cfg.num_sms.max(1) as usize;
    let mut levels = Levels::new(cfg, kind, num_sms);
    let mut table = PcHitTable::default();
    let mut scratch = CoalesceScratch::default();
    for &k in kernels {
        source.for_each_mem_inst(k, &mut |inst| {
            // Place block `b` on SM `b % num_sms`: round-robin, which is
            // not what the block scheduler does (it fills SM 0 to its
            // occupancy limit first, `block_scheduler.rs`). Each SM's L1
            // stream depends only on this placement; making the two agree
            // moves every simulated result, so it waits for a model change
            // of its own.
            let sm = inst.block % num_sms;
            for &txn in scratch.coalesce_ref(&mapping, inst) {
                table.record(inst.pc, levels.serve(sm, inst.pc, txn));
            }
        })?;
    }
    let rates: HashMap<_, _> = table.rates().collect();
    Ok(AnalyticalMemory::new(cfg, &rates))
}

/// Build an [`AnalyticalMemory`] for the given kernel launches of
/// `source`: the pre-pass replays every global/local memory instruction of
/// those launches through the functional cache simulator to obtain per-PC
/// hit rates, then instantiates the Eq. 1 model from them (the
/// reuse-distance source runs the same pre-pass). Each kernel is skimmed
/// once ([`TraceSource::for_each_mem_inst`]) and never decoded, so peak
/// memory is one kernel's bytes. The pre-pass cost is part of
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
    let memory = build_analytical_memory(cfg, MemoryModelKind::Analytical, source, kernels)?;
    Ok(Box::new(memory))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_system::tests::small_cfg;
    use crate::mem_system::LatencyTerms;
    use swiftsim_metrics::MetricsCollector;

    /// A PC no instruction of the seeded apps below uses except with an
    /// empty active mask.
    const EMPTY_MASK_PC: u32 = 0x0f00;

    /// Two kernels of loads and stores at 12 PCs shared across blocks,
    /// strided and explicit, over a window that gives every level some
    /// hits; some warps also issue an `LDG` with no active lane at
    /// [`EMPTY_MASK_PC`].
    fn prepass_app(seed: u64) -> swiftsim_trace::ApplicationTrace {
        use swiftsim_rng::SmallRng;
        use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};
        let mut rng = SmallRng::seed_from_u64(0x00b1_1d00 + seed);
        let kernels = (0..2)
            .map(|k| {
                let mut kernel = KernelTrace::new(format!("k{k}"), (12, 1, 1), (64, 1, 1));
                for _ in 0..12 {
                    let block = kernel.push_block();
                    for _ in 0..2 {
                        let warp = block.push_warp();
                        for _ in 0..24 {
                            let pc = 0x100 + 0x10 * rng.gen_range(0u32..12);
                            let opcode = match rng.gen_range(0u32..6) {
                                0 | 1 => Opcode::Stg,
                                2 => Opcode::Ldl,
                                _ => Opcode::Ldg,
                            };
                            let width = if rng.gen_range(0u32..2) == 0 { 4 } else { 8 };
                            let base = rng.gen_range(0u64..1 << 16) & !3;
                            let inst = match opcode {
                                Opcode::Stg => InstBuilder::new(opcode).src(2).src(3),
                                _ => InstBuilder::new(opcode).dst(1).src(2),
                            }
                            .pc(pc);
                            let inst = if rng.gen_range(0u32..3) == 0 {
                                let n = rng.gen_range(1usize..33);
                                let addrs = (0..n)
                                    .map(|_| base + (rng.gen_range(0u64..4096) & !3))
                                    .collect();
                                inst.explicit_addrs(addrs, width)
                            } else {
                                let stride = [4, 8, 64, 128, 260][rng.gen_range(0usize..5)];
                                inst.global_strided(base, stride, width)
                            };
                            warp.push(inst);
                            if rng.gen_range(0u32..40) == 0 {
                                warp.push(
                                    InstBuilder::new(Opcode::Ldg)
                                        .pc(EMPTY_MASK_PC)
                                        .dst(4)
                                        .src(2)
                                        .global_strided(base, 4, 4)
                                        .mask(0),
                                );
                            }
                        }
                        warp.push(InstBuilder::new(Opcode::Exit).pc(0x800));
                    }
                }
                kernel
            })
            .collect();
        ApplicationTrace::new(format!("prepass{seed}"), kernels)
    }

    /// The Eq. 1 model one hit-rate source's pre-pass builds for `app`.
    fn prepass_model(
        cfg: &GpuConfig,
        reuse: bool,
        app: &swiftsim_trace::ApplicationTrace,
    ) -> AnalyticalMemory {
        let kind = if reuse {
            MemoryModelKind::AnalyticalReuse
        } else {
            MemoryModelKind::Analytical
        };
        let kernels: Vec<usize> = (0..app.kernels().len()).collect();
        build_analytical_memory(cfg, kind, app, &kernels).unwrap()
    }

    /// Both hit-rate sources' per-PC tables on seeded apps, pinned: an
    /// FNV-1a digest of `latency_of` at every PC that has transactions,
    /// `mem.model.pcs`, and the empty-mask PC's latency. The digests are
    /// those of the two separate builders this pre-pass replaced. Under
    /// either source a PC with no transaction has no entry, so it costs
    /// the all-DRAM default; the reuse-distance builder used to give it
    /// rates 0/0/0, an Eq. 1 latency of 0, and count it in
    /// `mem.model.pcs`.
    #[test]
    fn prepass_tables_are_pinned_for_both_sources() {
        let mut cfg = small_cfg();
        cfg.num_sms = 4;
        cfg.sm.l1d.sets = 4;
        let dram = LatencyTerms::from_config(&cfg).dram;
        // (seed, reuse, digest, pcs, latency at EMPTY_MASK_PC)
        let want: [(u64, bool, u64, u64, f64); 4] = [
            (0, false, 0xe180_e37f_6385_6e3b, 12, dram),
            (0, true, 0x3169_88de_188d_6fe8, 12, dram),
            (1, false, 0xcbf2_7f15_dbe1_78ee, 12, dram),
            (1, true, 0x8d3f_c734_cf59_90e5, 12, dram),
        ];
        for (seed, reuse, digest, pcs, empty) in want {
            let app = prepass_app(seed);
            let mem = prepass_model(&cfg, reuse, &app);
            let mut bytes = Vec::new();
            for pc in (0x100u32..0x1c0).step_by(0x10) {
                let latency = mem.latency_of(pc);
                assert!(latency < dram, "seed {seed}: PC {pc:#x} never hits");
                bytes.extend_from_slice(&pc.to_le_bytes());
                bytes.extend_from_slice(&latency.to_bits().to_le_bytes());
            }
            let case = format!("seed {seed}, reuse {reuse}");
            assert_eq!(swiftsim_config::fnv1a64(&bytes), digest, "{case}");
            let mut c = MetricsCollector::new();
            mem.report(&mut c);
            assert_eq!(c.count("mem.model.pcs"), Some(pcs), "{case}");
            assert_eq!(mem.latency_of(EMPTY_MASK_PC), empty, "{case}");
        }
    }
}
