//! Differential gate for the event-driven cycle-skipping engine.
//!
//! The engine's contract is that sleeping SMs and clock jumps are a pure
//! wall-clock optimization: for any workload, preset, trace
//! representation, and thread count, a run must produce the same
//! `SimulationResult` statistics — cycles, per-kernel breakdowns, and
//! every Metrics Gatherer counter — as dense per-cycle ticking, the oracle
//! behind `RunOptions::with_dense_clock`. This suite
//! is the gate on that claim; `crates/bench/tests/speed_gates.rs` checks
//! the speedup the equivalence buys.

use swiftsim_config::presets;
use swiftsim_core::{
    AluModelKind, FidelityConfig, MemoryModelKind, RunOptions, SimulationResult, SimulatorPreset,
};
use swiftsim_metrics::Value;
use swiftsim_trace::{ChunkedTraceSource, TextTraceSource, TraceSource};
use swiftsim_workloads::Scale;

/// A small config so the detailed preset stays fast in tests.
fn small_gpu() -> swiftsim_config::GpuConfig {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 4;
    cfg.memory.partitions = 4;
    cfg
}

fn run_with(
    cfg: &swiftsim_config::GpuConfig,
    options: &RunOptions,
    threads: usize,
    source: &dyn TraceSource,
) -> SimulationResult {
    swiftsim_core::run(source, cfg, &options.clone().with_threads(threads))
        .expect("differential run completes")
}

/// Assert the two results are statistically indistinguishable. Wall time
/// and profiling are measurement artifacts.
fn assert_stats_equal(dense: &SimulationResult, event: &SimulationResult, ctx: &str) {
    assert_eq!(dense.cycles, event.cycles, "{ctx}: total cycles");
    assert_eq!(dense.kernels, event.kernels, "{ctx}: per-kernel stats");
    assert_eq!(dense.metrics, event.metrics, "{ctx}: metrics");
    assert_eq!(
        dense.instructions(),
        event.instructions(),
        "{ctx}: instructions"
    );
}

/// The same run under the dense oracle and under the event-driven engine.
fn oracle_pair(fidelity: FidelityConfig) -> (RunOptions, RunOptions) {
    let event = RunOptions::default().with_fidelity(fidelity);
    (event.clone().with_dense_clock(), event)
}

fn preset_pair(preset: SimulatorPreset) -> (RunOptions, RunOptions) {
    oracle_pair(FidelityConfig::for_preset(preset))
}

#[test]
fn event_engine_matches_dense_on_all_presets_and_workloads() {
    let cfg = small_gpu();
    for w in swiftsim_workloads::suite() {
        let app = w.generate(Scale::Tiny);
        for preset in [
            SimulatorPreset::Detailed,
            SimulatorPreset::SwiftBasic,
            SimulatorPreset::SwiftMemory,
        ] {
            let (dense, event) = preset_pair(preset);
            assert_stats_equal(
                &run_with(&cfg, &dense, 1, &app),
                &run_with(&cfg, &event, 1, &app),
                &format!("{} under {preset:?}", w.name),
            );
        }
    }
}

#[test]
fn event_engine_matches_dense_across_trace_representations() {
    let dir = std::env::temp_dir().join(format!("swiftsim-equiv-sources-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let app = swiftsim_workloads::by_name("backprop")
        .expect("workload exists")
        .generate(Scale::Tiny);
    let text_path = dir.join("app.sstrace");
    let bin_path = dir.join("app.sstraceb");
    app.write_to_file(&text_path).expect("write text trace");
    app.write_binary_file(&bin_path)
        .expect("write binary trace");
    let text = TextTraceSource::open(&text_path).expect("open text trace");
    let chunked = ChunkedTraceSource::open(&bin_path).expect("open chunked trace");

    let cfg = small_gpu();
    let sources: [(&str, &dyn TraceSource); 3] =
        [("memory", &app), ("text", &text), ("chunked", &chunked)];
    for preset in [
        SimulatorPreset::Detailed,
        SimulatorPreset::SwiftBasic,
        SimulatorPreset::SwiftMemory,
    ] {
        let (dense, event) = preset_pair(preset);
        let reference = run_with(&cfg, &dense, 1, &app);
        for (label, source) in sources {
            assert_stats_equal(
                &reference,
                &run_with(&cfg, &event, 1, source),
                &format!("{label} source under {preset:?}"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_engine_matches_dense_when_sharded() {
    let cfg = small_gpu();
    let app = swiftsim_workloads::by_name("hotspot")
        .expect("workload exists")
        .generate(Scale::Tiny);
    for preset in [
        SimulatorPreset::Detailed,
        SimulatorPreset::SwiftBasic,
        SimulatorPreset::SwiftMemory,
    ] {
        let (dense, event) = preset_pair(preset);
        for threads in [2usize, 4] {
            assert_stats_equal(
                &run_with(&cfg, &dense, threads, &app),
                &run_with(&cfg, &event, threads, &app),
                &format!("{preset:?} at {threads} threads"),
            );
        }
    }
}

/// The kernel loop's headline contract: its shards commit every cycle, so
/// a multi-threaded run is **bit-identical** to a single-threaded one, its
/// one-shard case — same cycles, same per-kernel stats, same Metrics
/// Gatherer counters — for every preset and thread count
/// (including uneven SM splits). Only `sim.threads` and the simulator
/// label legitimately differ; they are normalized before comparing.
#[test]
fn two_phase_parallel_matches_single_thread_bit_identically() {
    let cfg = small_gpu(); // 4 SMs: threads 3 exercises the uneven 2/1/1 split
    let app = swiftsim_workloads::by_name("hotspot")
        .expect("workload exists")
        .generate(Scale::Tiny);
    for preset in [
        SimulatorPreset::Detailed,
        SimulatorPreset::SwiftBasic,
        SimulatorPreset::SwiftMemory,
    ] {
        let (_, event) = preset_pair(preset);
        let mut reference = run_with(&cfg, &event, 1, &app);
        reference.metrics.set("sim.threads", Value::Count(0));
        for threads in [2usize, 3, 4] {
            let mut sharded = run_with(&cfg, &event, threads, &app);
            sharded.metrics.set("sim.threads", Value::Count(0));
            assert_stats_equal(
                &reference,
                &sharded,
                &format!("{preset:?} at {threads} threads vs single"),
            );
        }
    }
}

/// The bit-identity must also hold when the trace streams from disk and
/// under dense ticking (no event-driven jumps to hide behind).
#[test]
fn two_phase_parallel_matches_single_thread_across_sources_and_policies() {
    let dir = std::env::temp_dir().join(format!("swiftsim-equiv-twophase-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let app = swiftsim_workloads::by_name("backprop")
        .expect("workload exists")
        .generate(Scale::Tiny);
    let bin_path = dir.join("app.sstraceb");
    app.write_binary_file(&bin_path)
        .expect("write binary trace");
    let chunked = ChunkedTraceSource::open(&bin_path).expect("open chunked trace");

    let cfg = small_gpu();
    let (dense, event) = preset_pair(SimulatorPreset::SwiftBasic);
    for (clock, options) in [("dense", dense), ("event-driven", event)] {
        let mut reference = run_with(&cfg, &options, 1, &app);
        reference.metrics.set("sim.threads", Value::Count(0));
        let sources: [(&str, &dyn TraceSource); 2] = [("memory", &app), ("chunked", &chunked)];
        for (label, source) in sources {
            let mut sharded = run_with(&cfg, &options, 4, source);
            sharded.metrics.set("sim.threads", Value::Count(0));
            assert_stats_equal(
                &reference,
                &sharded,
                &format!("{label} source, {clock} clock, 4 threads"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_engine_matches_dense_on_custom_hybrids() {
    // Mixes outside the preset table, including the reuse-distance memory
    // model and a cycle-accurate ALU over an analytical memory.
    let cfg = small_gpu();
    let app = swiftsim_workloads::by_name("srad")
        .expect("workload exists")
        .generate(Scale::Tiny);
    let mixes = [
        (AluModelKind::CycleAccurate, MemoryModelKind::Analytical),
        (
            AluModelKind::CycleAccurate,
            MemoryModelKind::AnalyticalReuse,
        ),
        (AluModelKind::Analytical, MemoryModelKind::AnalyticalReuse),
    ];
    for (alu, memory) in mixes {
        let mut fidelity = FidelityConfig::for_preset(SimulatorPreset::Detailed);
        fidelity.alu = alu;
        fidelity.memory = memory;
        let (dense, event) = oracle_pair(fidelity);
        assert_stats_equal(
            &run_with(&cfg, &dense, 1, &app),
            &run_with(&cfg, &event, 1, &app),
            &format!("hybrid {alu:?}+{memory:?}"),
        );
    }
}

/// A deterministic hand-rolled config sweep over a real workload (the
/// `randomized` module below draws random traces as well).
#[test]
fn event_engine_matches_dense_under_config_perturbations() {
    let app = swiftsim_workloads::by_name("bfs")
        .expect("workload exists")
        .generate(Scale::Tiny);
    // A tiny xorshift so the perturbations are varied but reproducible.
    let mut state = 0x5eed_cafe_u64;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    for round in 0..6 {
        let mut cfg = small_gpu();
        cfg.num_sms = 2 + next(3) as u32; // 2..=4
        cfg.sm.max_blocks = 4 + next(12) as u32;
        cfg.sm.scheduler = match next(3) {
            0 => swiftsim_config::SchedulerPolicy::Gto,
            1 => swiftsim_config::SchedulerPolicy::Lrr,
            _ => swiftsim_config::SchedulerPolicy::TwoLevel,
        };
        let preset = match next(3) {
            0 => SimulatorPreset::Detailed,
            1 => SimulatorPreset::SwiftBasic,
            _ => SimulatorPreset::SwiftMemory,
        };
        let (dense, event) = preset_pair(preset);
        assert_stats_equal(
            &run_with(&cfg, &dense, 1, &app),
            &run_with(&cfg, &event, 1, &app),
            &format!(
                "round {round}: {preset:?} sms={} blocks={} sched={:?}",
                cfg.num_sms, cfg.sm.max_blocks, cfg.sm.scheduler
            ),
        );
    }
}

/// Random traces *and* configs, drawn from a seeded `swiftsim-rng` stream:
/// reproducible, and run in every build.
mod randomized {
    use super::*;
    use swiftsim_rng::SmallRng;
    use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};

    /// One to three warp bodies of `(opcode selector, address seed)` pairs.
    fn random_bodies(rng: &mut SmallRng) -> Vec<Vec<(u32, u64)>> {
        (0..rng.gen_range(1usize..4))
            .map(|_| {
                (0..rng.gen_range(1usize..16))
                    .map(|_| (rng.gen_range(0u32..5), rng.next_u64()))
                    .collect()
            })
            .collect()
    }

    fn build_app(blocks: u32, warps: u32, bodies: &[Vec<(u32, u64)>]) -> ApplicationTrace {
        let mut kernel = KernelTrace::new("equiv", (blocks, 1, 1), (warps * 32, 1, 1));
        for b in 0..blocks {
            let block = kernel.push_block();
            for w in 0..warps {
                let body = &bodies[((b * warps + w) as usize) % bodies.len()];
                let warp = block.push_warp();
                for (i, &(op, seed)) in body.iter().enumerate() {
                    let pc = (i as u32) * 16;
                    let addr = (seed % (1 << 24)) & !0x7f;
                    let inst = match op {
                        0 => InstBuilder::new(Opcode::Ldg)
                            .pc(pc)
                            .dst(8 + (i % 6) as u16)
                            .src(2)
                            .global_strided(addr, 4, 4),
                        1 => InstBuilder::new(Opcode::Stg)
                            .pc(pc)
                            .src(8 + (i % 6) as u16)
                            .global_strided(addr | 0x4000_0000, 4, 4),
                        2 => InstBuilder::new(Opcode::Bar).pc(pc),
                        3 => InstBuilder::new(Opcode::Dfma).pc(pc).dst(22).src(22),
                        _ => InstBuilder::new(Opcode::Ffma).pc(pc).dst(26).src(26),
                    };
                    warp.push(inst);
                }
                warp.push(InstBuilder::new(Opcode::Exit).pc(body.len() as u32 * 16));
            }
        }
        ApplicationTrace::new("equiv", vec![kernel])
    }

    #[test]
    fn random_configs_and_traces_are_clock_invariant() {
        let mut rng = SmallRng::seed_from_u64(0x5ee9_0001);
        for case in 0..16 {
            let (blocks, warps) = (rng.gen_range(1u32..5), rng.gen_range(1u32..4));
            let mut cfg = super::small_gpu();
            cfg.num_sms = rng.gen_range(1u32..4);
            cfg.memory.partitions = cfg.num_sms;
            let preset = [
                SimulatorPreset::Detailed,
                SimulatorPreset::SwiftBasic,
                SimulatorPreset::SwiftMemory,
            ][rng.gen_range(0usize..3)];
            let app = build_app(blocks, warps, &random_bodies(&mut rng));
            let (dense, event) = super::preset_pair(preset);
            assert_stats_equal(
                &run_with(&cfg, &dense, 1, &app),
                &run_with(&cfg, &event, 1, &app),
                &format!(
                    "case {case}: {preset:?}, {blocks}x{warps} warps, {} SMs",
                    cfg.num_sms
                ),
            );
        }
    }

    /// Per-cycle commits stay bit-identical to a single thread for any
    /// trace and thread count.
    #[test]
    fn random_traces_match_one_thread_at_any_thread_count() {
        let cfg = super::small_gpu(); // 4 SMs
        let mut rng = SmallRng::seed_from_u64(0x5ee9_0002);
        for case in 0..8 {
            let threads = rng.gen_range(2usize..5);
            let (blocks, warps) = (rng.gen_range(1u32..5), rng.gen_range(1u32..4));
            let app = build_app(blocks, warps, &random_bodies(&mut rng));
            let ctx = format!("case {case}: {threads} threads, {blocks}x{warps} warps");

            let basic = RunOptions::default().with_preset(SimulatorPreset::SwiftBasic);
            let mut reference = run_with(&cfg, &basic, 1, &app);
            let mut sharded = run_with(&cfg, &basic, threads, &app);
            reference.metrics.set("sim.threads", Value::Count(0));
            sharded.metrics.set("sim.threads", Value::Count(0));
            assert_stats_equal(&reference, &sharded, &ctx);
        }
    }
}
