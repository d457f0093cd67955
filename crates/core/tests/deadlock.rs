//! Deadlock diagnostics: a simulation that stops making progress must fail
//! with an error that names the stalled shard and describes the oldest
//! waiting warp, not just a cycle number.

use swiftsim_config::presets;
use swiftsim_core::{RunOptions, SimError, SimulatorPreset};
use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};

/// Two warps in one block: warp 0 waits at a barrier forever, because warp
/// 1's trace runs out of instructions without exiting — it can neither
/// reach the barrier nor retire. No component ever has a next event, so
/// the engine's idle-streak watchdog must trip.
fn deadlocked_app() -> ApplicationTrace {
    let mut kernel = KernelTrace::new("wedge", (1, 1, 1), (64, 1, 1));
    let block = kernel.push_block();
    {
        let w0 = block.push_warp();
        w0.push(InstBuilder::new(Opcode::Bar).pc(0));
        w0.push(InstBuilder::new(Opcode::Exit).pc(16));
    }
    {
        let w1 = block.push_warp();
        w1.push(InstBuilder::new(Opcode::Iadd).pc(0).dst(4).src(4));
        // No Bar, no Exit: the warp wedges with its trace exhausted.
    }
    ApplicationTrace::new("wedge", vec![kernel])
}

#[test]
fn forced_deadlock_names_the_shard_and_the_stuck_warp() {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 2;
    cfg.memory.partitions = 2;
    let err = swiftsim_core::run(
        &deadlocked_app(),
        &cfg,
        &RunOptions::default().with_preset(SimulatorPreset::SwiftBasic),
    )
    .expect_err("a wedged trace must be detected, not spin forever");

    let SimError::Deadlock {
        cycle,
        shard,
        detail,
    } = &err
    else {
        panic!("expected a deadlock, got: {err}");
    };
    assert!(
        *cycle > 0,
        "the watchdog trips after some progress attempts"
    );
    assert_eq!(*shard, 0, "single-threaded runs report shard 0");
    assert!(
        detail.contains("barrier"),
        "the oldest stalled warp is the one at the barrier: {detail}"
    );

    // The rendered message carries all of it for CLI users.
    let msg = err.to_string();
    assert!(msg.contains("shard 0"), "{msg}");
    assert!(msg.contains("barrier"), "{msg}");
}

/// `sms` blocks, the last wedged. With one block slot per SM the wedge
/// lands on the last SM, which under sharding is never shard 0's local
/// index 0 — a deadlock report keyed by *local* ids would misname it.
fn app_wedged_on_last_sm(sms: u32) -> ApplicationTrace {
    let mut kernel = KernelTrace::new("wedge2", (sms, 1, 1), (64, 1, 1));
    for _ in 1..sms {
        let healthy = kernel.push_block();
        for _ in 0..2 {
            let w = healthy.push_warp();
            w.push(InstBuilder::new(Opcode::Iadd).pc(0).dst(4).src(4));
            w.push(InstBuilder::new(Opcode::Exit).pc(16));
        }
    }
    {
        let wedged = kernel.push_block();
        let w0 = wedged.push_warp();
        w0.push(InstBuilder::new(Opcode::Bar).pc(0));
        w0.push(InstBuilder::new(Opcode::Exit).pc(16));
        let w1 = wedged.push_warp();
        w1.push(InstBuilder::new(Opcode::Iadd).pc(0).dst(4).src(4));
        // No Bar, no Exit: wedged with its trace exhausted.
    }
    ApplicationTrace::new("wedge2", vec![kernel])
}

/// Regression: sharded runs must report the *global* SM id of the stalled
/// warp. An earlier revision printed the shard-local index, which on any
/// shard but the first names the wrong SM.
#[test]
fn sharded_deadlock_reports_global_sm_ids() {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 2;
    cfg.memory.partitions = 2;
    cfg.sm.max_blocks = 1; // one slot per SM: block 1 must land on SM 1

    let err = swiftsim_core::run(
        &app_wedged_on_last_sm(2),
        &cfg,
        &RunOptions::default()
            .with_preset(SimulatorPreset::SwiftBasic)
            .with_threads(2),
    )
    .expect_err("the wedged block must be detected");

    let SimError::Deadlock { shard, detail, .. } = &err else {
        panic!("expected a deadlock, got: {err}");
    };
    assert_eq!(
        *shard, 1,
        "the stalled SM belongs to the second shard: {detail}"
    );
    assert!(
        detail.contains("SM 1"),
        "the report must name the global SM id, not the shard-local index: {detail}"
    );
    assert!(detail.contains("barrier"), "{detail}");
}

/// A single-threaded run reports a provably dead model at once too: when
/// every SM sleeps with no wake and the memory system has no next event,
/// nothing can ever change, so it does not wait out the idle watchdog's
/// million iterations (whose report would name a cycle past a million).
#[test]
fn sequential_fast_deadlock_is_prompt() {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 4;
    cfg.memory.partitions = 2;
    cfg.sm.max_blocks = 1;

    for preset in [
        SimulatorPreset::Detailed,
        SimulatorPreset::SwiftBasic,
        SimulatorPreset::SwiftMemory,
    ] {
        let t0 = std::time::Instant::now();
        let err = swiftsim_core::run(
            &app_wedged_on_last_sm(4),
            &cfg,
            &RunOptions::default().with_preset(preset).with_threads(1),
        )
        .expect_err("the wedged block must be detected");
        let elapsed = t0.elapsed();

        let SimError::Deadlock {
            cycle,
            shard,
            detail,
        } = &err
        else {
            panic!("expected a deadlock under {preset:?}, got: {err}");
        };
        assert_eq!(*shard, 0, "{preset:?}: {detail}");
        assert!(detail.contains("SM 3"), "{preset:?}: {detail}");
        assert!(detail.contains("barrier"), "{preset:?}: {detail}");
        assert!(*cycle < 10_000, "{preset:?}: reported at cycle {cycle}");
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "{preset:?}: took {elapsed:?}"
        );
    }
}

/// The two-phase coordinator reports a provably dead model at once (every
/// idle cycle would be a cross-thread round-trip, see `twophase.rs`) — and
/// must keep doing so, with the global SM id, when shard 0 runs on the
/// coordinating thread and the other shards behind the epoch gate.
#[test]
fn sharded_fast_deadlock_is_prompt_at_two_and_four_threads() {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 4;
    cfg.memory.partitions = 2;
    cfg.sm.max_blocks = 1; // one slot per SM: block 3 must land on SM 3

    for threads in [2usize, 4] {
        let t0 = std::time::Instant::now();
        let err = swiftsim_core::run(
            &app_wedged_on_last_sm(4),
            &cfg,
            &RunOptions::default()
                .with_preset(SimulatorPreset::SwiftBasic)
                .with_threads(threads),
        )
        .expect_err("the wedged block must be detected");
        let elapsed = t0.elapsed();

        let SimError::Deadlock { shard, detail, .. } = &err else {
            panic!("expected a deadlock at {threads} threads, got: {err}");
        };
        // SM 3 is the last SM of the last shard.
        assert_eq!(*shard, threads - 1, "{threads} threads: {detail}");
        assert!(detail.contains("SM 3"), "{threads} threads: {detail}");
        assert!(detail.contains("barrier"), "{threads} threads: {detail}");
        // The idle watchdog needs a million idle ticks; the
        // short-circuit needs a handful of cycles.
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "{threads} threads: took {elapsed:?}"
        );
    }
}

/// `stores` warps of block 0 store to the line warp 0 loads, so the L2
/// slice's MSHR entry for it reaches its merge limit (4) and the later
/// stores are blocked at the slice; after `delay` instructions SM 1 loads
/// the same line and queues behind them. A DRAM return admits two blocked
/// transactions, and here both are stores that hit the line it just
/// filled, so no further return follows. The slice must keep admitting its
/// blocked queue once no fill is in flight, or SM 1's load (and the stores
/// behind the first two) would wait for a return that never comes.
fn app_blocked_at_l2(stores: u32, delay: u32) -> ApplicationTrace {
    let line = 0x8000;
    let mut kernel = KernelTrace::new("l2_blocked", (2, 1, 1), (32 * (stores + 1), 1, 1));
    let b0 = kernel.push_block();
    let w = b0.push_warp();
    w.push(
        InstBuilder::new(Opcode::Ldg)
            .pc(0)
            .dst(8)
            .src(2)
            .global_strided(line, 4, 4),
    );
    w.push(InstBuilder::new(Opcode::Exit).pc(16));
    for _ in 0..stores {
        let w = b0.push_warp();
        w.push(
            InstBuilder::new(Opcode::Stg)
                .pc(32)
                .src(2)
                .global_strided(line, 4, 4),
        );
        w.push(InstBuilder::new(Opcode::Exit).pc(48));
    }
    let b1 = kernel.push_block();
    let w = b1.push_warp();
    for i in 0..delay {
        w.push(InstBuilder::new(Opcode::Iadd).pc(64 + i * 16).dst(4).src(4));
    }
    w.push(
        InstBuilder::new(Opcode::Ldg)
            .pc(1024)
            .dst(8)
            .src(2)
            .global_strided(line, 4, 4),
    );
    w.push(InstBuilder::new(Opcode::Exit).pc(1040));
    for _ in 0..stores {
        b1.push_warp().push(InstBuilder::new(Opcode::Exit).pc(2048));
    }
    ApplicationTrace::new("l2_blocked", vec![kernel])
}

#[test]
fn transactions_blocked_at_l2_are_admitted_without_a_dram_return() {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 2;
    cfg.memory.partitions = 1;
    cfg.sm.max_blocks = 1; // block 1 (the late load) lands on SM 1
    for (stores, delay) in [(6, 4), (8, 16), (12, 32)] {
        for (preset, threads) in [
            (SimulatorPreset::Detailed, 1),
            (SimulatorPreset::SwiftBasic, 1),
            (SimulatorPreset::SwiftBasic, 2),
        ] {
            let result = swiftsim_core::run(
                &app_blocked_at_l2(stores, delay),
                &cfg,
                &RunOptions::default()
                    .with_preset(preset)
                    .with_threads(threads),
            );
            if let Err(e) = result {
                panic!("{stores} stores, delay {delay}, {preset:?}, {threads} threads: {e}");
            }
        }
    }
}
