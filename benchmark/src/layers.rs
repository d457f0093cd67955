//! Per-layer measurements taken from outside the simulator: the names of
//! every per-layer metric, the self-profiler's attribution per simulated
//! cycle, and replays of a workload's own global-memory instructions
//! through the public functions of the memory and NoC substrates.

use std::hint::black_box;
use std::time::Instant;
use swiftsim_config::GpuConfig;
use swiftsim_mem::{
    coalesce_accesses, AccessOutcome, AddressMapping, DramChannel, FunctionalCacheSim, MemTxn,
    ReuseDistanceAnalyzer, SectorCache,
};
use swiftsim_metrics::{ProfModule, ProfileReport};
use swiftsim_noc::{Crossbar, Interconnect};
use swiftsim_trace::{KernelTrace, MemSpace};

/// Values of per-layer metrics, by name. A metric a workload does not
/// exercise is left out here and printed as 0.
pub type Layers = Vec<(String, f64)>;

/// The self-profiler's modules that get a per-layer metric (`other` is
/// left to `core.unattributed_ms`).
pub fn profiled_modules() -> impl Iterator<Item = ProfModule> {
    ProfModule::ALL
        .into_iter()
        .filter(|&m| m != ProfModule::Other)
}

/// Stages of the serve daemon's latency histograms (`<stage>_us`).
pub const SERVE_STAGES: [&str; 7] = [
    "queue_wait",
    "dispatch",
    "decode",
    "simulate",
    "merge",
    "cache_lookup",
    "store",
];

/// Every per-layer metric the traced pass prints, with its unit and the
/// direction in which it is better: the list `BENCHMARK.json` repeats.
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| out.push((name.to_owned(), unit, better));
    add("config.parse_ms", "ms", "lower");
    add("workloads.generate_ms", "ms", "lower");
    add("trace.encode_ms", "ms", "lower");
    add("trace.open_ms", "ms", "lower");
    add("trace.decode_ns_per_inst", "ns", "lower");
    add("trace.decode_insts", "count", "lower");
    add("trace.file_bytes", "count", "lower");
    add("core.run_ms", "ms", "lower");
    for module in profiled_modules() {
        add(
            &format!("core.{}_ns_per_cycle", module.name()),
            "ns",
            "lower",
        );
        add(&format!("core.{}_events", module.name()), "count", "lower");
    }
    add("core.unattributed_ms", "ms", "lower");
    add("core.skip_ratio", "ratio", "higher");
    add("core.prepass_ms", "ms", "lower");
    add("core.cycles", "count", "lower");
    add("core.cycles_err_pct", "%", "lower");
    add("core.stats_digest48", "count", "lower");
    add("mem.funcsim_ns_per_txn", "ns", "lower");
    add("mem.coalesce_ns_per_inst", "ns", "lower");
    add("mem.txns_per_inst", "ratio", "lower");
    add("mem.l1_ns_per_txn", "ns", "lower");
    add("mem.l1_hit_ratio", "ratio", "higher");
    add("mem.reuse_ns_per_access", "ns", "lower");
    add("mem.dram_ns_per_txn", "ns", "lower");
    add("noc.ns_per_packet", "ns", "lower");
    add("metrics.emit_ms", "ms", "lower");
    for stage in SERVE_STAGES {
        add(&format!("serve.{stage}_p50_ms"), "ms", "lower");
    }
    add("serve.cold_jobs_per_s", "1/s", "higher");
    add("serve.warm_p50_ms", "ms", "lower");
    add("serve.warm_p99_ms", "ms", "lower");
    add("serve.cache_hits", "count", "higher");
    add("serve.cache_lookups", "count", "lower");
    add("serve.requeues", "count", "lower");
    add("serve.failed_tasks", "count", "lower");
    add("bench.trace_overhead_pct", "%", "lower");
    out
}

/// Host time and events per self-profiler module, summed over the traced
/// repetitions of one workload.
#[derive(Debug, Default)]
pub struct ProfileTotals {
    wall_ns: [u64; ProfModule::ALL.len()],
    events: [u64; ProfModule::ALL.len()],
    skipped_cycles: u64,
    cycles: u64,
    runs: u64,
}

impl ProfileTotals {
    pub fn add(&mut self, report: &ProfileReport, cycles: u64) {
        for module in ProfModule::ALL {
            self.wall_ns[module.index()] += report.total_wall(module).as_nanos() as u64;
            self.events[module.index()] +=
                report.frames.iter().map(|f| f.events(module)).sum::<u64>();
        }
        self.skipped_cycles += report.total_cycles(ProfModule::CycleSkip);
        self.cycles += cycles;
        self.runs += 1;
    }

    /// Host milliseconds per run that the profiler attributed to a listed
    /// module.
    pub fn attributed_ms_per_run(&self) -> f64 {
        let ns: u64 = profiled_modules().map(|m| self.wall_ns[m.index()]).sum();
        ns as f64 / 1e6 / self.runs.max(1) as f64
    }

    pub fn emit(&self, out: &mut Layers) {
        let cycles = self.cycles.max(1) as f64;
        let runs = self.runs.max(1);
        for module in profiled_modules() {
            let i = module.index();
            out.push((
                format!("core.{}_ns_per_cycle", module.name()),
                self.wall_ns[i] as f64 / cycles,
            ));
            out.push((
                format!("core.{}_events", module.name()),
                (self.events[i] / runs) as f64,
            ));
        }
        out.push((
            "core.skip_ratio".to_owned(),
            self.skipped_cycles as f64 / cycles,
        ));
    }
}

/// One global- or local-memory instruction of a trace, placed on the SM the
/// analytical pre-pass would place its block on.
pub struct MemOp {
    sm: usize,
    pc: u32,
    addrs: Vec<u64>,
    width: u8,
    write: bool,
}

pub fn global_mem_ops(kernels: &[KernelTrace], num_sms: usize) -> Vec<MemOp> {
    let mut ops = Vec::new();
    for kernel in kernels {
        for (b, block) in kernel.blocks().iter().enumerate() {
            for inst in block.warps().iter().flatten() {
                let Some(mem) = &inst.mem else { continue };
                if matches!(mem.space, MemSpace::Global | MemSpace::Local) {
                    ops.push(MemOp {
                        sm: b % num_sms,
                        pc: inst.pc,
                        addrs: mem.addresses.expand(inst.active_lanes()),
                        width: mem.width,
                        write: inst.opcode.is_store(),
                    });
                }
            }
        }
    }
    ops
}

/// Nanoseconds per item that `work` takes over `count` items.
fn ns_per(count: usize, work: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    work();
    t0.elapsed().as_nanos() as f64 / count.max(1) as f64
}

/// Feed the memory instructions through the coalescer, one L1 per SM, the
/// functional cache simulator, the reuse-distance analyzer, one DRAM
/// channel per partition and the request crossbar, each on its own and
/// each through public functions only.
pub fn replay_substrates(cfg: &GpuConfig, ops: &[MemOp], out: &mut Layers) {
    if ops.is_empty() {
        return;
    }
    let mut put = |name: &str, value: f64| out.push((name.to_owned(), value));
    let mapping = AddressMapping::new(&cfg.sm.l1d);
    let num_sms = cfg.num_sms.max(1) as usize;
    let partitions = cfg.memory.partitions;
    let partition_of = |txn: &MemTxn| {
        AddressMapping::partition_index(txn.line_addr, cfg.memory.l2.line_bytes, partitions)
    };

    let mut txns: Vec<(usize, u32, MemTxn)> = Vec::new();
    let coalesce_ns = ns_per(ops.len(), || {
        for op in ops {
            for txn in coalesce_accesses(&mapping, &op.addrs, op.width, op.write) {
                txns.push((op.sm, op.pc, txn));
            }
        }
    });
    put("mem.coalesce_ns_per_inst", coalesce_ns);
    put("mem.txns_per_inst", txns.len() as f64 / ops.len() as f64);

    let mut l1s: Vec<SectorCache> = (0..num_sms)
        .map(|sm| SectorCache::new(&cfg.sm.l1d, sm as u64))
        .collect();
    let l1_ns = ns_per(txns.len(), || {
        for (now, (sm, _, txn)) in (1u64..).zip(&txns) {
            // A miss is filled at once, so the MSHRs never run out and no
            // access is refused.
            if let AccessOutcome::Miss { fetch, .. } = l1s[*sm].access(*txn, 0, now) {
                black_box(l1s[*sm].fill(fetch.line_addr, now));
            }
        }
    });
    let (hits, accesses) = l1s.iter().fold((0, 0), |(h, a), l1| {
        let s = l1.stats();
        (h + s.hits, a + s.accesses)
    });
    put("mem.l1_ns_per_txn", l1_ns);
    put("mem.l1_hit_ratio", hits as f64 / accesses.max(1) as f64);

    let mut funcsim = FunctionalCacheSim::new(cfg);
    let funcsim_ns = ns_per(txns.len(), || {
        for (sm, pc, txn) in &txns {
            funcsim.access(*sm, *pc, *txn);
        }
    });
    black_box(funcsim.accesses());
    put("mem.funcsim_ns_per_txn", funcsim_ns);

    let mut reuse = ReuseDistanceAnalyzer::new();
    let reuse_ns = ns_per(txns.len(), || {
        for (_, _, txn) in &txns {
            black_box(reuse.record(txn.line_addr));
        }
    });
    put("mem.reuse_ns_per_access", reuse_ns);

    let mut channels: Vec<DramChannel> = (0..partitions)
        .map(|_| {
            DramChannel::new(
                cfg.memory.dram_latency,
                cfg.memory.dram_cycles_per_txn,
                cfg.memory.dram_queue_depth,
            )
        })
        .collect();
    let dram_ns = ns_per(txns.len(), || {
        let mut now = 0;
        for (_, _, txn) in &txns {
            let channel = &mut channels[partition_of(txn)];
            now += 1;
            // A full queue refuses the transaction; wait as a sender would.
            while channel.submit(txn.write, now).is_none() {
                now = channel.earliest_accept(now);
            }
        }
    });
    put("mem.dram_ns_per_txn", dram_ns);

    let mut noc = Crossbar::new(&cfg.noc, num_sms, partitions as usize);
    let noc_ns = ns_per(txns.len(), || {
        let mut now = 0;
        for (sm, _, txn) in &txns {
            let dst = partition_of(txn);
            let flits = 1 + u32::from(txn.write) * txn.num_sectors();
            now += 1;
            while noc.traverse(*sm, dst, flits, now).is_none() {
                now = noc.earliest_accept(dst, now);
            }
        }
    });
    put("noc.ns_per_packet", noc_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_trace::{InstBuilder, Opcode};

    #[test]
    fn metric_names_fit_the_contract() {
        let metrics = per_layer_metrics();
        let mut names: Vec<&str> = metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        for (name, unit, better) in &metrics {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(matches!(*better, "lower" | "higher"));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.len());
    }

    #[test]
    fn replay_reports_every_substrate() {
        let mut kernel = KernelTrace::new("k", (2, 1, 1), (32, 1, 1));
        for b in 0u64..2 {
            let warp = kernel.push_block().push_warp();
            for i in 0u64..4 {
                warp.push(
                    InstBuilder::new(Opcode::Ldg)
                        .pc(0)
                        .dst(2)
                        .src(1)
                        .global_strided(0x1000 * b + 128 * (i % 2), 4, 4),
                );
            }
            warp.push(
                InstBuilder::new(Opcode::Sts)
                    .pc(16)
                    .src(2)
                    .global_strided(0, 4, 4),
            );
            warp.push(InstBuilder::new(Opcode::Exit).pc(32));
        }
        let cfg = swiftsim_config::presets::rtx2080ti();
        let ops = global_mem_ops(&[kernel], cfg.num_sms as usize);
        // Shared-memory and non-memory instructions are not replayed.
        assert_eq!(ops.len(), 8);
        let mut out = Layers::new();
        replay_substrates(&cfg, &ops, &mut out);
        let get = |name: &str| out.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("mem.txns_per_inst"), Some(1.0));
        // Two lines per SM, each touched twice: half the accesses hit.
        assert_eq!(get("mem.l1_hit_ratio"), Some(0.5));
        for name in [
            "mem.coalesce_ns_per_inst",
            "mem.l1_ns_per_txn",
            "mem.funcsim_ns_per_txn",
            "mem.reuse_ns_per_access",
            "mem.dram_ns_per_txn",
            "noc.ns_per_packet",
        ] {
            assert!(get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }
}
