// The property-based suite needs the external `proptest` crate, which is
// unavailable in offline builds. Enable the crate's non-default `proptest`
// feature (after restoring the dev-dependency in Cargo.toml and the
// workspace manifest) to run it.
#![cfg(feature = "proptest")]

//! Property-based tests: arbitrary well-formed traces survive a
//! serialize/parse round trip, and statistics are preserved.

use proptest::prelude::*;
use swiftsim_trace::{
    AddressList, ApplicationTrace, KernelTrace, MemInfo, Opcode, Reg, TraceInstruction, WarpTrace,
};

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    prop::sample::select(Opcode::ALL.to_vec())
}

fn arb_mask() -> impl Strategy<Value = u32> {
    // Never empty: a traced instruction always has at least one active lane.
    any::<u32>().prop_map(|m| if m == 0 { 1 } else { m })
}

fn arb_inst() -> impl Strategy<Value = TraceInstruction> {
    (
        arb_opcode(),
        any::<u16>(),
        prop::option::of(0u16..255),
        prop::collection::vec(0u16..255, 0..4),
        arb_mask(),
        any::<u64>(),
        0u64..256,
        prop::sample::select(vec![1u8, 2, 4, 8, 16]),
        any::<bool>(),
    )
        .prop_map(
            |(opcode, pc, dst, srcs, mask, base, stride, width, explicit)| {
                let mem = opcode.mem_space().map(|space| {
                    let addresses = if explicit {
                        AddressList::Explicit(
                            (0..mask.count_ones())
                                .map(|i| base.wrapping_add(u64::from(i) * 7919))
                                .collect(),
                        )
                    } else {
                        AddressList::Strided { base, stride }
                    };
                    Box::new(MemInfo {
                        space,
                        width,
                        addresses,
                    })
                });
                TraceInstruction {
                    pc: u32::from(pc),
                    opcode,
                    dst: dst.map(Reg),
                    srcs: srcs.into_iter().map(Reg).collect(),
                    active_mask: mask,
                    mem,
                }
            },
        )
}

fn arb_app() -> impl Strategy<Value = ApplicationTrace> {
    prop::collection::vec(
        (
            prop::collection::vec(
                prop::collection::vec(arb_inst(), 1..12), // warps
                1..3,
            ),
            1u32..3, // blocks
        ),
        1..3, // kernels
    )
    .prop_map(|kernels| {
        let ks = kernels
            .into_iter()
            .enumerate()
            .map(|(ki, (warps, nblocks))| {
                let mut k = KernelTrace::new(
                    format!("kernel_{ki}"),
                    (nblocks, 1, 1),
                    (32 * warps.len() as u32, 1, 1),
                );
                for _ in 0..nblocks {
                    let b = k.push_block();
                    for winsts in &warps {
                        let warp: WarpTrace = winsts.iter().cloned().collect();
                        *b.push_warp() = warp;
                    }
                }
                k
            })
            .collect();
        ApplicationTrace::new("prop_app", ks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_preserves_everything(app in arb_app()) {
        let text = app.to_trace_text();
        let parsed = ApplicationTrace::parse(&text).expect("round trip parse");
        prop_assert_eq!(&parsed, &app);
        prop_assert_eq!(parsed.stats(), app.stats());
    }

    #[test]
    fn binary_round_trip_preserves_everything(app in arb_app()) {
        let bytes = app.to_binary();
        let parsed = ApplicationTrace::from_binary(&bytes).expect("binary round trip");
        prop_assert_eq!(&parsed, &app);
    }

    #[test]
    fn binary_decoder_survives_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Arbitrary input must never panic the decoder.
        let _ = ApplicationTrace::from_binary(&bytes);
    }

    #[test]
    fn every_generated_instruction_is_well_formed(inst in arb_inst()) {
        prop_assert!(inst.is_well_formed());
    }

    #[test]
    fn strided_expansion_length_matches_mask(
        base in any::<u64>(),
        stride in 0u64..1024,
        lanes in 0u32..=32,
    ) {
        let list = AddressList::Strided { base, stride };
        prop_assert_eq!(list.expand(lanes).len(), lanes as usize);
    }
}
