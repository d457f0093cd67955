//! A model bug that panics inside a shard's compute phase must fail the
//! run with `SimError::WorkerPanic` naming the shard — whether the shard
//! runs on a worker thread behind the epoch gate or, as shard 0 does, on
//! the calling thread itself, single-threaded runs included — and must
//! never hang the other shards or unwind into the caller.

use swiftsim_config::presets;
use swiftsim_core::{RunOptions, SimError, SimulatorPreset};
use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};

/// One single-warp block per SM; block `bad` issues a global load whose
/// address payload has been stripped (the builder itself refuses to make
/// one), which the LD/ST path treats as a broken internal condition.
fn app_with_payloadless_load(sms: u32, bad: u32) -> ApplicationTrace {
    let mut kernel = KernelTrace::new("broken", (sms, 1, 1), (32, 1, 1));
    for b in 0..sms {
        let warp = kernel.push_block().push_warp();
        if b == bad {
            let mut load = InstBuilder::new(Opcode::Ldg)
                .pc(0)
                .dst(4)
                .global_strided(0x1000, 4, 4)
                .build();
            load.mem = None;
            warp.push(load);
        } else {
            warp.push(InstBuilder::new(Opcode::Iadd).pc(0).dst(4).src(4));
        }
        warp.push(InstBuilder::new(Opcode::Exit).pc(16));
    }
    ApplicationTrace::new("broken", vec![kernel])
}

#[test]
fn a_panic_on_any_shard_is_a_worker_panic_error() {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 4;
    cfg.memory.partitions = 2;
    cfg.sm.max_blocks = 1; // one slot per SM: block b lands on SM b

    for threads in [1usize, 2, 4] {
        for bad_sm in [0u32, 3] {
            let err = swiftsim_core::run(
                &app_with_payloadless_load(4, bad_sm),
                &cfg,
                &RunOptions::default()
                    .with_preset(SimulatorPreset::SwiftBasic)
                    .with_threads(threads),
            )
            .expect_err("the broken load must fail the run");
            let SimError::WorkerPanic { context, message } = &err else {
                panic!("{threads} threads, SM {bad_sm}: expected a worker panic, got: {err}");
            };
            let shard = bad_sm as usize * threads / 4;
            assert!(
                context.contains(&format!("shard {shard} ")),
                "{threads} threads, SM {bad_sm}: {context}"
            );
            assert!(message.contains("payload"), "{message}");
        }
    }
}
