//! End-to-end tests: real synthetic workloads through all three simulator
//! presets, checking completion, determinism, and the qualitative
//! relationships the paper's evaluation depends on.

use swiftsim_config::presets;
use swiftsim_core::{RunOptions, SimulationResult, SimulatorPreset};
use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};
use swiftsim_workloads::Scale;

mod helpers {
    use super::*;

    /// A small config so detailed simulation stays fast in tests.
    pub fn small_gpu() -> swiftsim_config::GpuConfig {
        let mut cfg = presets::rtx2080ti();
        cfg.num_sms = 4;
        cfg.memory.partitions = 4;
        cfg
    }

    pub fn run(preset: SimulatorPreset, app: &ApplicationTrace) -> SimulationResult {
        swiftsim_core::run(
            app,
            &small_gpu(),
            &RunOptions::default().with_preset(preset),
        )
        .expect("simulation completes")
    }
}
use helpers::{run, small_gpu};

fn tiny_app(name: &str) -> ApplicationTrace {
    swiftsim_workloads::suite()
        .into_iter()
        .find(|w| w.name == name)
        .expect("workload exists")
        .generate(Scale::Tiny)
}

#[test]
fn all_presets_complete_on_every_workload() {
    for w in swiftsim_workloads::suite() {
        let app = w.generate(Scale::Tiny);
        for preset in [
            SimulatorPreset::Detailed,
            SimulatorPreset::SwiftBasic,
            SimulatorPreset::SwiftMemory,
        ] {
            let r = run(preset, &app);
            assert!(r.cycles > 0, "{} under {preset:?}", w.name);
            assert_eq!(
                r.instructions(),
                app.num_insts(),
                "{} under {preset:?}: every traced instruction must issue",
                w.name
            );
        }
    }
}

#[test]
fn simulation_is_deterministic() {
    let app = tiny_app("bfs");
    for preset in [
        SimulatorPreset::Detailed,
        SimulatorPreset::SwiftBasic,
        SimulatorPreset::SwiftMemory,
    ] {
        let a = run(preset, &app);
        let b = run(preset, &app);
        assert_eq!(a.cycles, b.cycles, "{preset:?}");
        assert_eq!(a.metrics, b.metrics, "{preset:?}");
    }
}

#[test]
fn hybrid_predictions_track_the_baseline() {
    // The paper's claim: simplified models cost only minor accuracy. At
    // tiny scale we just require the same order of magnitude.
    for name in ["nw", "gemm", "bfs"] {
        let app = tiny_app(name);
        let detailed = run(SimulatorPreset::Detailed, &app).cycles as f64;
        let basic = run(SimulatorPreset::SwiftBasic, &app).cycles as f64;
        let memory = run(SimulatorPreset::SwiftMemory, &app).cycles as f64;
        for (label, cycles) in [("basic", basic), ("memory", memory)] {
            let ratio = cycles / detailed;
            assert!(
                (0.2..5.0).contains(&ratio),
                "{name}: swift-{label} {cycles} vs detailed {detailed} (ratio {ratio:.2})"
            );
        }
    }
}

#[test]
fn parallel_simulation_matches_workload_and_finishes() {
    let app = tiny_app("hotspot");
    let single = swiftsim_core::run(
        &app,
        &small_gpu(),
        &RunOptions::default().with_preset(SimulatorPreset::SwiftMemory),
    )
    .expect("single-thread run");
    let parallel = swiftsim_core::run(
        &app,
        &small_gpu(),
        &RunOptions::default()
            .with_preset(SimulatorPreset::SwiftMemory)
            .with_threads(2),
    )
    .expect("parallel run");
    assert_eq!(parallel.instructions(), single.instructions());
    // Sharding is an approximation: cycle counts must stay in the same
    // ballpark as the single-threaded run.
    let ratio = parallel.cycles as f64 / single.cycles as f64;
    assert!((0.3..3.0).contains(&ratio), "ratio {ratio:.2}");
}

#[test]
fn kernels_serialize() {
    let app = tiny_app("backprop"); // two kernels
    let r = run(SimulatorPreset::SwiftBasic, &app);
    assert_eq!(r.kernels.len(), 2);
    let sum: u64 = r.kernels.iter().map(|k| k.cycles).sum();
    assert_eq!(sum, r.cycles, "total = sum of serialized kernels");
}

#[test]
fn metrics_gatherer_reports_core_counters() {
    let app = tiny_app("hotspot");
    let r = run(SimulatorPreset::Detailed, &app);
    assert_eq!(r.metrics.cycles("gpu.cycles"), Some(r.cycles));
    assert!(r.metrics.count("gpu.instructions").unwrap() > 0);
    assert!(r.metrics.count("mem.l1.misses").is_some());
    assert!(r.metrics.ratio("mem.l2.miss_rate").is_some());
    // hotspot uses shared memory with a conflict-free layout or conflicts;
    // either way the counter must exist.
    assert!(r.metrics.count("core.shared.bank_conflicts").is_some());
    // The detailed preset models frontend caches.
    assert!(r.metrics.count("core.icache.misses").unwrap() > 0);
}

#[test]
fn simplified_frontend_has_no_icache_misses() {
    let app = tiny_app("hotspot");
    let r = run(SimulatorPreset::SwiftBasic, &app);
    assert_eq!(r.metrics.count("core.icache.misses"), Some(0));
}

#[test]
fn dependent_instructions_respect_latency() {
    // One warp, one block: LDG -> FFMA (RAW) -> EXIT. The kernel cannot be
    // faster than the memory latency plus pipeline latencies.
    let cfg = small_gpu();
    let mut kernel = KernelTrace::new("dep", (1, 1, 1), (32, 1, 1));
    let b = kernel.push_block();
    let w = b.push_warp();
    w.push(
        InstBuilder::new(Opcode::Ldg)
            .pc(0)
            .dst(8)
            .src(1)
            .global_strided(0x100000, 4, 4),
    );
    w.push(InstBuilder::new(Opcode::Ffma).pc(16).dst(9).src(8).src(8));
    w.push(InstBuilder::new(Opcode::Exit).pc(32));
    let app = ApplicationTrace::new("dep", vec![kernel]);

    let r = run(SimulatorPreset::Detailed, &app);
    let floor = u64::from(cfg.memory.dram_latency);
    assert!(
        r.cycles > floor,
        "cold DRAM load must bound the critical path: {} <= {floor}",
        r.cycles
    );
}

#[test]
fn independent_warps_overlap() {
    // Many independent warps should take far less than warps * single-warp
    // time (latency hiding works).
    let make = |warps: u32| {
        let mut kernel = KernelTrace::new("overlap", (1, 1, 1), (32 * warps, 1, 1));
        let b = kernel.push_block();
        for wi in 0..warps {
            let w = b.push_warp();
            for i in 0..8u32 {
                w.push(
                    InstBuilder::new(Opcode::Ldg)
                        .pc(i * 16)
                        .dst(8 + i as u16 % 4)
                        .src(1)
                        .global_strided(u64::from(wi) * 0x100000 + u64::from(i) * 0x1000, 4, 4),
                );
            }
            w.push(InstBuilder::new(Opcode::Exit).pc(9 * 16));
        }
        ApplicationTrace::new("overlap", vec![kernel])
    };
    let one = run(SimulatorPreset::Detailed, &make(1)).cycles;
    let eight = run(SimulatorPreset::Detailed, &make(8)).cycles;
    assert!(
        eight < one * 4,
        "8 warps at {eight} cycles vs 1 warp at {one}: no latency hiding?"
    );
}

#[test]
fn barrier_synchronizes_block() {
    // Warp 0 does long work before the barrier; warp 1 almost none. Both
    // finish after the barrier, so total time tracks warp 0.
    let mut kernel = KernelTrace::new("bar", (1, 1, 1), (64, 1, 1));
    let b = kernel.push_block();
    {
        let w0 = b.push_warp();
        for i in 0..50u32 {
            w0.push(
                InstBuilder::new(Opcode::Ffma)
                    .pc(i * 16)
                    .dst(8)
                    .src(8)
                    .src(8),
            );
        }
        w0.push(InstBuilder::new(Opcode::Bar).pc(50 * 16));
        w0.push(InstBuilder::new(Opcode::Exit).pc(51 * 16));
    }
    {
        let w1 = b.push_warp();
        w1.push(InstBuilder::new(Opcode::Bar).pc(0));
        w1.push(InstBuilder::new(Opcode::Iadd).pc(16).dst(4).src(4));
        w1.push(InstBuilder::new(Opcode::Exit).pc(32));
    }
    let app = ApplicationTrace::new("bar", vec![kernel]);
    let r = run(SimulatorPreset::Detailed, &app);
    // Warp 0's 50 dependent FFMAs (latency 4) dominate: >= ~200 cycles.
    assert!(r.cycles >= 150, "barrier must delay warp 1: {}", r.cycles);
}

#[test]
fn inconsistent_trace_is_rejected() {
    let mut kernel = KernelTrace::new("bad", (4, 1, 1), (32, 1, 1));
    kernel.push_block(); // only 1 of 4 declared blocks traced
    let app = ApplicationTrace::new("bad", vec![kernel]);
    let err = swiftsim_core::run(
        &app,
        &small_gpu(),
        &RunOptions::default().with_preset(SimulatorPreset::SwiftMemory),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        swiftsim_core::SimError::InconsistentTrace { .. }
    ));
}

#[test]
fn oversized_block_is_rejected() {
    let mut kernel = KernelTrace::new("big", (1, 1, 1), (32, 1, 1));
    kernel.shared_mem_bytes = 10 * 1024 * 1024;
    let b = kernel.push_block();
    let w = b.push_warp();
    w.push(InstBuilder::new(Opcode::Exit).pc(0));
    let app = ApplicationTrace::new("big", vec![kernel]);
    let err = run_err(&app);
    assert!(matches!(err, swiftsim_core::SimError::BlockTooLarge { .. }));
}

/// An in-memory trace cannot hold a register above R255 (a packed record
/// keeps one byte), so naming one must fail the run with a typed error on
/// every preset, never alias a low register (R300 read as R44) or reach
/// the writeback sentinel (R65535, which used to deadlock the detailed
/// preset at cycle 250).
#[test]
fn registers_above_r255_end_in_a_typed_error() {
    for reg in [256u16, 300, u16::MAX] {
        for as_dst in [true, false] {
            let load = InstBuilder::new(Opcode::Ldg).pc(0);
            let load = if as_dst {
                load.dst(reg).src(1)
            } else {
                load.dst(1).src(reg)
            };
            let mut kernel = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
            let warp = kernel.push_block().push_warp();
            warp.push(load.global_strided(0x1000, 4, 4));
            warp.push(InstBuilder::new(Opcode::Iadd).pc(16).dst(2).src(reg % 256));
            warp.push(InstBuilder::new(Opcode::Exit).pc(32));
            let app = ApplicationTrace::new("regs", vec![kernel]);
            for preset in [
                SimulatorPreset::Detailed,
                SimulatorPreset::SwiftBasic,
                SimulatorPreset::SwiftMemory,
            ] {
                for threads in [1, 2] {
                    let options = RunOptions::default()
                        .with_preset(preset)
                        .with_threads(threads);
                    let err = swiftsim_core::run(&app, &small_gpu(), &options)
                        .expect_err("a register above R255 fails the run");
                    let ctx = format!("R{reg}, dst {as_dst}, {preset:?}, {threads} threads");
                    match &err {
                        swiftsim_core::SimError::Trace { message, io_kind } => {
                            assert!(message.contains(&format!("R{reg}")), "{ctx}: {message}");
                            assert_eq!(*io_kind, None, "{ctx}");
                        }
                        other => panic!("{ctx}: {other:?}"),
                    }
                }
            }
        }
    }
}

fn run_err(app: &ApplicationTrace) -> swiftsim_core::SimError {
    swiftsim_core::run(
        app,
        &small_gpu(),
        &RunOptions::default().with_preset(SimulatorPreset::SwiftBasic),
    )
    .unwrap_err()
}

#[test]
fn mesh_topology_is_a_config_swap() {
    // §II-B: changing the NoC topology must not require remodeling — it is
    // one configuration field. The mesh's longer average path must not
    // make anything faster.
    let app = tiny_app("bfs");
    let crossbar = run(SimulatorPreset::SwiftBasic, &app).cycles;
    let mut gpu = small_gpu();
    gpu.noc.topology = swiftsim_config::NocTopology::Mesh;
    let mesh = swiftsim_core::run(
        &app,
        &gpu,
        &RunOptions::default().with_preset(SimulatorPreset::SwiftBasic),
    )
    .expect("mesh run")
    .cycles;
    assert!(
        mesh >= crossbar,
        "mesh {mesh} faster than crossbar {crossbar}?"
    );
}

#[test]
fn reuse_distance_model_tracks_funcsim_model() {
    // The two hit-rate sources the paper names must produce predictions in
    // the same ballpark.
    use swiftsim_core::MemoryModelKind;
    let app = tiny_app("kmeans");
    let funcsim = swiftsim_core::run(
        &app,
        &small_gpu(),
        &RunOptions::default().with_preset(SimulatorPreset::SwiftMemory),
    )
    .expect("funcsim-rates run");
    let mut reuse_options = RunOptions::default().with_preset(SimulatorPreset::SwiftMemory);
    reuse_options.fidelity.memory = MemoryModelKind::AnalyticalReuse;
    let reuse = swiftsim_core::run(&app, &small_gpu(), &reuse_options).expect("reuse-rates run");
    assert!(reuse.simulator.contains("analytical_memory_rd"));
    let ratio = reuse.cycles as f64 / funcsim.cycles as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "reuse-distance model {} vs funcsim model {} (ratio {ratio:.2})",
        reuse.cycles,
        funcsim.cycles
    );
}

#[test]
fn custom_hybrid_cycle_accurate_alu_over_analytical_memory() {
    // The builder supports mixes beyond the paper's presets (§III-B3: "the
    // architect can choose the modeling method per module").
    use swiftsim_core::{AluModelKind, MemoryModelKind};
    let app = tiny_app("srad");
    let mut options = RunOptions::default();
    options.fidelity.alu = AluModelKind::CycleAccurate;
    options.fidelity.memory = MemoryModelKind::Analytical;
    let r = swiftsim_core::run(&app, &small_gpu(), &options).expect("custom hybrid run");
    assert_eq!(
        r.simulator,
        "cycle_accurate_alu+analytical_memory+detailed_frontend+event_driven"
    );
    assert_eq!(r.instructions(), app.num_insts());
}
