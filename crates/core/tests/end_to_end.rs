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
                        .dst(8 + i as u8 % 4)
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

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The SSTB file of app "regs": one kernel "k" of one 32-thread block whose
/// one warp is `LDG D:R{dst} S:R{src}` at pc 0, strided from 0x1000 by 4,
/// 4 bytes wide. Written byte by byte, the way the encoder writes any
/// register, so a value above R255 (which no in-memory trace can hold)
/// reaches the decoder.
fn sstb_one_load(dst: u16, src: u16) -> Vec<u8> {
    let mut payload = vec![1, 1, 1, 0]; // one block, one warp, one instruction; pc 0
    let ldg = Opcode::ALL.iter().position(|&o| o == Opcode::Ldg).unwrap();
    payload.push(ldg as u8);
    payload.push(1 << 4 | 0b0011); // one source, a memory payload, a dst
    for v in [u64::from(dst), u64::from(src), u64::from(u32::MAX)] {
        push_varint(&mut payload, v);
    }
    payload.push(4);
    push_varint(&mut payload, 0x1000);
    push_varint(&mut payload, 4);

    let mut file = b"SSTB\x02".to_vec();
    for name in ["regs", "k"] {
        push_varint(&mut file, name.len() as u64);
        file.extend_from_slice(name.as_bytes());
        if name == "regs" {
            push_varint(&mut file, 1); // kernel count
        }
    }
    for v in [1, 1, 1, 32, 1, 1, 0, 32, 1, payload.len() as u64] {
        push_varint(&mut file, v); // grid, block, shmem, regs, insts, length
    }
    file.extend_from_slice(&swiftsim_config::fnv1a64(&payload).to_le_bytes());
    file.extend_from_slice(&payload);
    file
}

/// R255 is the last register. A trace file naming a higher one must fail
/// the run with a typed error on every preset, never alias a low register
/// (R300 read as R44) or reach the writeback sentinel (R65535, which once
/// deadlocked the detailed preset). No in-memory trace can name one
/// (`InstBuilder` takes a `u8`), so the files are written from the R255
/// trace: the text by substituting the register token, the SSTB byte by
/// byte.
#[test]
fn registers_above_r255_end_in_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("swiftsim-e2e-regs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for reg in [256u16, 300, u16::MAX] {
        for as_dst in [true, false] {
            let (dst, src) = if as_dst { (reg, 1) } else { (1, reg) };
            let low = |r: u16| r.min(255) as u8;
            let mut kernel = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
            kernel.push_block().push_warp().push(
                InstBuilder::new(Opcode::Ldg)
                    .pc(0)
                    .dst(low(dst))
                    .src(low(src))
                    .global_strided(0x1000, 4, 4),
            );
            let r255 = ApplicationTrace::new("regs", vec![kernel]);
            // The hand-written file is what the encoder writes.
            assert_eq!(sstb_one_load(dst.min(255), src.min(255)), r255.to_binary());

            let text = dir.join(format!("{reg}-{as_dst}.sstrace"));
            let sstb = dir.join(format!("{reg}-{as_dst}.sstraceb"));
            let r255_text = r255.to_trace_text();
            std::fs::write(&text, r255_text.replace("R255", &format!("R{reg}"))).unwrap();
            std::fs::write(&sstb, sstb_one_load(dst, src)).unwrap();
            for path in [&text, &sstb] {
                let source = swiftsim_trace::open_trace(path).expect("the file opens");
                for preset in [
                    SimulatorPreset::Detailed,
                    SimulatorPreset::SwiftBasic,
                    SimulatorPreset::SwiftMemory,
                ] {
                    for threads in [1, 2] {
                        let options = RunOptions::default()
                            .with_preset(preset)
                            .with_threads(threads);
                        let err = swiftsim_core::run(source.as_ref(), &small_gpu(), &options)
                            .expect_err("a register above R255 fails the run");
                        let ctx = format!("{}, {preset:?}, {threads} threads", path.display());
                        match &err {
                            swiftsim_core::SimError::Trace { message, io_kind } => {
                                if path == &text {
                                    let token = format!("R{reg}");
                                    assert!(message.contains(&token), "{ctx}: {message}");
                                }
                                assert_eq!(*io_kind, None, "{ctx}");
                            }
                            other => panic!("{ctx}: {other:?}"),
                        }
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
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
