// The property-based suite needs the external `proptest` crate, which is
// unavailable in offline builds. Enable the crate's non-default `proptest`
// feature (after restoring the dev-dependency in Cargo.toml and the
// workspace manifest) to run it.
#![cfg(feature = "proptest")]

//! Property-based tests for the framework's block-scheduling and analytical
//! model invariants. (The warp-scheduler property lives with the policies,
//! in `scheduler::tests::masks_agree_with_the_view_reference`.)

use proptest::prelude::*;
use swiftsim_config::presets;
use swiftsim_core::mem_system::{AnalyticalMemory, LatencyTerms, MemReply, MemorySystem};
use swiftsim_core::BlockScheduler;
use swiftsim_mem::{MemTxn, PcHitRates};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Block scheduler conservation: every block is dispatched exactly
    /// once, per-SM occupancy never exceeds the limit, and completion
    /// reaches all_done exactly at the end.
    #[test]
    fn block_scheduler_conserves_blocks(
        num_sms in 1usize..8,
        total in 0usize..40,
        per_sm in 1u32..5,
        order in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut bs = BlockScheduler::new(num_sms, total, per_sm);
        let mut running: Vec<Vec<usize>> = vec![Vec::new(); num_sms];
        let mut dispatched = std::collections::HashSet::new();
        let mut completed = 0usize;

        for step in order {
            let sm = usize::from(step) % num_sms;
            if step % 2 == 0 {
                if let Some(b) = bs.dispatch(sm) {
                    prop_assert!(dispatched.insert(b), "block {b} dispatched twice");
                    running[sm].push(b);
                    prop_assert!(running[sm].len() as u32 <= per_sm);
                }
            } else if let Some(_b) = running[sm].pop() {
                bs.complete(sm);
                completed += 1;
            }
        }
        // Drain everything.
        loop {
            let mut progressed = false;
            for sm in 0..num_sms {
                if let Some(b) = bs.dispatch(sm) {
                    prop_assert!(dispatched.insert(b));
                    running[sm].push(b);
                    progressed = true;
                }
                if let Some(_b) = running[sm].pop() {
                    bs.complete(sm);
                    completed += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        prop_assert_eq!(dispatched.len(), total);
        prop_assert_eq!(completed, total);
        prop_assert!(bs.all_done());
    }

    /// Eq. 1 sanity: the expected latency is a convex combination of the
    /// level latencies, so it lies between L_L1 and L_DRAM and is monotone
    /// in the DRAM fraction.
    #[test]
    fn eq1_latency_is_bounded_and_monotone(l1 in 0.0f64..1.0, l2_frac in 0.0f64..1.0) {
        let terms = LatencyTerms::from_config(&presets::rtx2080ti());
        let l2 = (1.0 - l1) * l2_frac;
        let dram = 1.0 - l1 - l2;
        let r = PcHitRates { l1, l2, dram };
        let lat = terms.expected_latency(r);
        prop_assert!(lat >= terms.l1 - 1e-9);
        prop_assert!(lat <= terms.dram + 1e-9);

        // Shifting mass from L1 to DRAM cannot reduce latency.
        if l1 >= 0.1 {
            let worse = PcHitRates { l1: l1 - 0.1, l2, dram: dram + 0.1 };
            prop_assert!(terms.expected_latency(worse) >= lat - 1e-9);
        }
    }

    /// The analytical memory model never completes before its uncontended
    /// latency and never travels back in time.
    #[test]
    fn analytical_memory_latency_floor(
        accesses in prop::collection::vec((0u32..8, 0u64..64, any::<bool>()), 1..100),
    ) {
        let mut cfg = presets::rtx2080ti();
        cfg.num_sms = 4;
        let mut table = std::collections::HashMap::new();
        for pc in 0..8u32 {
            table.insert(pc, PcHitRates { l1: 0.5, l2: 0.25, dram: 0.25 });
        }
        let mut mem = AnalyticalMemory::new(&cfg, &table);
        let mut now = 0u64;
        for (pc, gap, write) in accesses {
            now += gap;
            let txn = MemTxn { line_addr: u64::from(pc) * 0x80, sector_mask: 1, write };
            let MemReply::Done(done) = mem.access(0, pc, &[txn], now) else {
                prop_assert!(false, "analytical model must reply synchronously");
                return Ok(());
            };
            let floor = now + mem.latency_of(pc).round() as u64;
            prop_assert!(done >= floor, "done {done} below floor {floor}");
        }
    }
}

/// Engine torture test: random (but well-formed) traces must complete on
/// every preset with all instructions issued, deterministically.
mod random_traces {
    use proptest::prelude::*;
    use swiftsim_core::{GpuSimulator, RunOptions, SimulatorPreset};
    use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode, WarpTrace};

    fn arb_warp_body() -> impl Strategy<Value = Vec<(u8, u64)>> {
        // (opcode selector, address seed) pairs.
        prop::collection::vec((0u8..10, any::<u64>()), 1..24)
    }

    fn build_app(blocks: u32, warps: u32, bodies: Vec<Vec<(u8, u64)>>) -> ApplicationTrace {
        let mut kernel = KernelTrace::new("torture", (blocks, 1, 1), (warps * 32, 1, 1));
        for b in 0..blocks {
            let block = kernel.push_block();
            for w in 0..warps {
                let body = &bodies[((b * warps + w) as usize) % bodies.len()];
                let mut warp = WarpTrace::new();
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
                        2 => InstBuilder::new(Opcode::Lds)
                            .pc(pc)
                            .dst(16)
                            .src(2)
                            .global_strided(addr % 4096, 4, 4),
                        3 => InstBuilder::new(Opcode::Bar).pc(pc),
                        4 => InstBuilder::new(Opcode::Mufu).pc(pc).dst(20).src(20),
                        5 => InstBuilder::new(Opcode::Dfma).pc(pc).dst(22).src(22),
                        6 => InstBuilder::new(Opcode::Hmma).pc(pc).dst(24).src(24),
                        7 => InstBuilder::new(Opcode::Bra).pc(pc).src(7),
                        8 => InstBuilder::new(Opcode::Ffma)
                            .pc(pc)
                            .dst(26)
                            .src(8 + (i % 6) as u16)
                            .src(26),
                        _ => InstBuilder::new(Opcode::Iadd).pc(pc).dst(4).src(4),
                    };
                    warp.push(inst);
                }
                warp.push(InstBuilder::new(Opcode::Exit).pc(body.len() as u32 * 16));
                *block.push_warp() = warp;
            }
        }
        ApplicationTrace::new("torture", vec![kernel])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn random_traces_complete_on_all_presets(
            blocks in 1u32..5,
            warps in 1u32..4,
            bodies in prop::collection::vec(arb_warp_body(), 1..4),
        ) {
            let mut cfg = swiftsim_config::presets::rtx2080ti();
            cfg.num_sms = 2;
            cfg.memory.partitions = 2;
            let app = build_app(blocks, warps, bodies);
            for preset in [
                SimulatorPreset::Detailed,
                SimulatorPreset::SwiftBasic,
                SimulatorPreset::SwiftMemory,
            ] {
                let sim = GpuSimulator::try_new(
                    cfg.clone(),
                    &RunOptions::default().with_preset(preset),
                )
                .expect("valid config");
                let a = sim.run(&app).expect("random trace completes");
                prop_assert_eq!(a.instructions(), app.num_insts());
                let b = sim.run(&app).expect("rerun completes");
                prop_assert_eq!(a.cycles, b.cycles, "{:?} nondeterministic", preset);
            }
        }
    }
}
