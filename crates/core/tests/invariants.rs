//! Invariants of the block scheduler, the analytical memory model and the
//! engine, checked on inputs drawn from a seeded `swiftsim-rng` stream.
//! (The warp-scheduler property lives with the policies, in
//! `scheduler::tests::masks_agree_with_the_view_reference`.)

use swiftsim_config::presets;
use swiftsim_core::mem_system::{AnalyticalMemory, LatencyTerms, MemReply, MemorySystem};
use swiftsim_core::{BlockScheduler, GpuSimulator, RunOptions, SimulatorPreset};
use swiftsim_mem::{MemTxn, PcHitRates};
use swiftsim_rng::SmallRng;
use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};

/// A uniform draw from `[0, 1)`.
fn unit(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Block scheduler conservation: every block is dispatched exactly once,
/// per-SM occupancy never exceeds the limit, and completion reaches
/// `all_done` exactly at the end.
#[test]
fn block_scheduler_conserves_blocks() {
    let mut rng = SmallRng::seed_from_u64(0xb10c_0001);
    for case in 0..128 {
        let num_sms = rng.gen_range(1usize..8);
        let total = rng.gen_range(0usize..40);
        let per_sm = rng.gen_range(1u32..5);
        let mut bs = BlockScheduler::new(num_sms, total, per_sm);
        let mut running: Vec<Vec<usize>> = vec![Vec::new(); num_sms];
        let mut dispatched = std::collections::HashSet::new();
        let mut completed = 0usize;

        for _ in 0..rng.gen_range(0usize..200) {
            let sm = rng.gen_range(0..num_sms);
            if rng.gen_bool(0.5) {
                if let Some(b) = bs.dispatch(sm) {
                    assert!(dispatched.insert(b), "case {case}: block {b} twice");
                    running[sm].push(b);
                    assert!(running[sm].len() as u32 <= per_sm, "case {case}");
                }
            } else if running[sm].pop().is_some() {
                bs.complete(sm);
                completed += 1;
            }
        }
        // Drain everything.
        loop {
            let mut progressed = false;
            for (sm, blocks) in running.iter_mut().enumerate() {
                if let Some(b) = bs.dispatch(sm) {
                    assert!(dispatched.insert(b), "case {case}: block {b} twice");
                    blocks.push(b);
                    progressed = true;
                }
                if blocks.pop().is_some() {
                    bs.complete(sm);
                    completed += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        assert_eq!(dispatched.len(), total, "case {case}");
        assert_eq!(completed, total, "case {case}");
        assert!(bs.all_done(), "case {case}");
    }
}

/// Eq. 1 sanity: the expected latency is a convex combination of the level
/// latencies, so it lies between L_L1 and L_DRAM and is monotone in the
/// DRAM fraction.
#[test]
fn eq1_latency_is_bounded_and_monotone() {
    let terms = LatencyTerms::from_config(&presets::rtx2080ti());
    let mut rng = SmallRng::seed_from_u64(0xe91_0002);
    for _ in 0..256 {
        let l1 = unit(&mut rng);
        let l2 = (1.0 - l1) * unit(&mut rng);
        let dram = 1.0 - l1 - l2;
        let lat = terms.expected_latency(PcHitRates { l1, l2, dram });
        assert!(lat >= terms.l1 - 1e-9, "{lat} below L1 at {l1}/{l2}");
        assert!(lat <= terms.dram + 1e-9, "{lat} above DRAM at {l1}/{l2}");

        // Shifting mass from L1 to DRAM cannot reduce latency.
        if l1 >= 0.1 {
            let worse = PcHitRates {
                l1: l1 - 0.1,
                l2,
                dram: dram + 0.1,
            };
            assert!(terms.expected_latency(worse) >= lat - 1e-9);
        }
    }
}

/// The analytical memory model never completes before its uncontended
/// latency and never travels back in time.
#[test]
fn analytical_memory_latency_floor() {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 4;
    let table = (0..8u32)
        .map(|pc| {
            let rates = PcHitRates {
                l1: 0.5,
                l2: 0.25,
                dram: 0.25,
            };
            (pc, rates)
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(0xf100_0003);
    for _ in 0..64 {
        let mut mem = AnalyticalMemory::new(&cfg, &table);
        let mut now = 0u64;
        for _ in 0..rng.gen_range(1usize..100) {
            let pc = rng.gen_range(0u32..8);
            now += rng.gen_range(0u64..64);
            let txn = MemTxn {
                line_addr: u64::from(pc) * 0x80,
                sector_mask: 1,
                write: rng.gen_bool(0.5),
            };
            let MemReply::Done(done) = mem.access(0, pc, &[txn], now) else {
                panic!("the analytical model must reply synchronously");
            };
            let floor = now + mem.latency_of(pc).round() as u64;
            assert!(done >= floor, "done {done} below floor {floor}");
        }
    }
}

/// One `(opcode selector, address seed)` body per warp kind.
fn random_body(rng: &mut SmallRng) -> Vec<(u32, u64)> {
    (0..rng.gen_range(1usize..24))
        .map(|_| (rng.gen_range(0u32..10), rng.next_u64()))
        .collect()
}

fn torture_app(blocks: u32, warps: u32, bodies: &[Vec<(u32, u64)>]) -> ApplicationTrace {
    let mut kernel = KernelTrace::new("torture", (blocks, 1, 1), (warps * 32, 1, 1));
    for b in 0..blocks {
        let block = kernel.push_block();
        for w in 0..warps {
            let body = &bodies[((b * warps + w) as usize) % bodies.len()];
            let warp = block.push_warp();
            for (i, &(op, seed)) in body.iter().enumerate() {
                let pc = (i as u32) * 16;
                let addr = (seed % (1 << 24)) & !0x7f;
                let reg = 8 + (i % 6) as u8;
                warp.push(match op {
                    0 => InstBuilder::new(Opcode::Ldg)
                        .pc(pc)
                        .dst(reg)
                        .src(2)
                        .global_strided(addr, 4, 4),
                    1 => InstBuilder::new(Opcode::Stg)
                        .pc(pc)
                        .src(reg)
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
                        .src(reg)
                        .src(26),
                    _ => InstBuilder::new(Opcode::Iadd).pc(pc).dst(4).src(4),
                });
            }
            warp.push(InstBuilder::new(Opcode::Exit).pc(body.len() as u32 * 16));
        }
    }
    ApplicationTrace::new("torture", vec![kernel])
}

/// Engine torture test: random (but well-formed) traces complete on every
/// preset with all instructions issued, deterministically.
#[test]
fn random_traces_complete_on_all_presets() {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 2;
    cfg.memory.partitions = 2;
    let mut rng = SmallRng::seed_from_u64(0x7047_0004);
    for case in 0..12 {
        let (blocks, warps) = (rng.gen_range(1u32..5), rng.gen_range(1u32..4));
        let bodies: Vec<_> = (0..rng.gen_range(1usize..4))
            .map(|_| random_body(&mut rng))
            .collect();
        let app = torture_app(blocks, warps, &bodies);
        for preset in [
            SimulatorPreset::Detailed,
            SimulatorPreset::SwiftBasic,
            SimulatorPreset::SwiftMemory,
        ] {
            let sim =
                GpuSimulator::try_new(cfg.clone(), &RunOptions::default().with_preset(preset))
                    .expect("valid config");
            let a = sim.run(&app).expect("random trace completes");
            assert_eq!(a.instructions(), app.num_insts(), "case {case}, {preset:?}");
            let b = sim.run(&app).expect("rerun completes");
            assert_eq!(
                a.cycles, b.cycles,
                "case {case}: {preset:?} nondeterministic"
            );
        }
    }
}
