//! Random well-formed traces, drawn from a seeded `swiftsim-rng` stream:
//! they survive the text and binary round trips with their statistics, and
//! every source's `for_each_mem_inst` hands out exactly the records of the
//! decoded kernel. Then the same agreement on deliberately damaged text
//! and binary traces, where the skims must never panic.

use std::sync::Arc;
use swiftsim_rng::SmallRng;
use swiftsim_trace::{
    AddressList, ApplicationTrace, CachedTraceSource, ChunkedTraceSource, DecodedKernelCache,
    InstBuilder, KernelTrace, MemInfo, MemInstRef, Opcode, Reg, TextTraceSource, TraceError,
    TraceInstruction, TraceSource, WarpTrace,
};

/// Random apps per property.
const CASES: u64 = 64;

fn random_inst(rng: &mut SmallRng) -> TraceInstruction {
    let opcode = Opcode::ALL[rng.gen_range(0..Opcode::ALL.len())];
    // Never empty: a traced instruction always has at least one active lane.
    let active_mask = match rng.gen_range(0u32..4) {
        0 => u32::MAX,
        1 => 1 << rng.gen_range(0u32..32),
        _ => (rng.next_u64() as u32).max(1),
    };
    // Mostly short source lists; now and then one past what the 4-bit
    // count of the binary flags byte states.
    let num_srcs = if rng.gen_range(0u32..16) == 0 {
        rng.gen_range(14usize..70)
    } else {
        rng.gen_range(0usize..4)
    };
    let base = rng.next_u64();
    let mem = opcode.mem_space().map(|space| {
        let addresses = if rng.gen_bool(0.5) {
            AddressList::Explicit(
                (0..active_mask.count_ones())
                    .map(|i| base.wrapping_add(u64::from(i) * 7919))
                    .collect(),
            )
        } else {
            AddressList::Strided {
                base,
                stride: rng.gen_range(0u64..256),
            }
        };
        Box::new(MemInfo {
            space,
            width: [1, 2, 4, 8, 16][rng.gen_range(0usize..5)],
            addresses,
        })
    });
    TraceInstruction {
        pc: rng.gen_range(0u32..1 << 16),
        opcode,
        dst: rng
            .gen_bool(0.5)
            .then(|| Reg(rng.gen_range(0u32..255) as u16)),
        srcs: (0..num_srcs)
            .map(|_| Reg(rng.gen_range(0u32..255) as u16))
            .collect(),
        active_mask,
        mem,
    }
}

fn random_app(rng: &mut SmallRng) -> ApplicationTrace {
    let kernels = (0..rng.gen_range(1usize..3))
        .map(|ki| {
            let warps = rng.gen_range(1u32..3);
            let blocks = rng.gen_range(1u32..3);
            let mut kernel =
                KernelTrace::new(format!("kernel_{ki}"), (blocks, 1, 1), (32 * warps, 1, 1));
            for _ in 0..blocks {
                let block = kernel.push_block();
                for _ in 0..warps {
                    let insts = rng.gen_range(1usize..12);
                    *block.push_warp() =
                        (0..insts).map(|_| random_inst(rng)).collect::<WarpTrace>();
                }
            }
            kernel
        })
        .collect();
    ApplicationTrace::new("random_app", kernels)
}

/// A `for_each_mem_inst` record with its addresses owned, for comparing.
type Record = (usize, u32, bool, u8, u32, AddressList);

fn owned(m: &MemInstRef<'_>) -> Record {
    let m = *m;
    (
        m.block,
        m.pc,
        m.write,
        m.width,
        m.active_mask,
        m.addresses.into(),
    )
}

fn records(src: &dyn TraceSource, kernel: usize) -> Result<Vec<Record>, TraceError> {
    let mut out = Vec::new();
    src.for_each_mem_inst(kernel, &mut |m| out.push(owned(m)))?;
    Ok(out)
}

/// What the decoder's kernel hands out: the reference for every skim.
fn oracle(kernel: &KernelTrace) -> Vec<Record> {
    let mut out = Vec::new();
    kernel.for_each_mem_inst(|m| out.push(owned(m)));
    out
}

/// A scratch directory unique to one test of one process.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swiftsim-roundtrip-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn every_generated_instruction_is_well_formed() {
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..CASES * 16 {
        let inst = random_inst(&mut rng);
        assert!(inst.is_well_formed(), "{inst:?}");
    }
}

#[test]
fn text_round_trip_preserves_everything() {
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..CASES {
        let app = random_app(&mut rng);
        let parsed = ApplicationTrace::parse(&app.to_trace_text()).expect("round trip parse");
        assert_eq!(parsed, app);
        assert_eq!(parsed.stats(), app.stats());
    }
}

#[test]
fn binary_round_trip_preserves_everything() {
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..CASES {
        let app = random_app(&mut rng);
        let parsed = ApplicationTrace::from_binary(&app.to_binary()).expect("binary round trip");
        assert_eq!(parsed, app);
        assert_eq!(parsed.content_hash(), app.content_hash());
    }
}

#[test]
fn binary_decoder_survives_random_bytes() {
    let mut rng = SmallRng::seed_from_u64(4);
    for case in 0..CASES * 8 {
        // Half the inputs get a valid magic and version, so the decoder
        // reaches the section table.
        let mut bytes = if case % 2 == 0 {
            b"SSTB\x02".to_vec()
        } else {
            Vec::new()
        };
        bytes.extend((0..rng.gen_range(0usize..512)).map(|_| rng.next_u64() as u8));
        let _ = ApplicationTrace::from_binary(&bytes);
    }
}

#[test]
fn strided_expansion_length_matches_mask() {
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..CASES * 16 {
        let list = AddressList::Strided {
            base: rng.next_u64(),
            stride: rng.gen_range(0u64..1024),
        };
        let lanes = rng.gen_range(0u32..33);
        assert_eq!(list.expand(lanes).len(), lanes as usize);
    }
}

#[test]
fn every_source_skims_the_decoded_records() {
    let dir = scratch("skim");
    let mut rng = SmallRng::seed_from_u64(6);
    for case in 0..CASES {
        let app = random_app(&mut rng);
        let path = dir.join(format!("{case}.sstraceb"));
        app.write_binary_file(&path).expect("write binary trace");
        let text: Arc<dyn TraceSource> =
            Arc::new(TextTraceSource::from_text(app.to_trace_text()).expect("text source"));
        let chunked = ChunkedTraceSource::open(&path).expect("chunked source");
        let cache = DecodedKernelCache::new(1 << 24);
        let cached =
            CachedTraceSource::new(Arc::clone(&text), Arc::clone(&cache)).expect("cached source");

        for (k, kernel) in app.kernels().iter().enumerate() {
            let want = oracle(kernel);
            assert_eq!(records(&app, k).unwrap(), want, "in memory, case {case}");
            assert_eq!(
                records(text.as_ref(), k).unwrap(),
                want,
                "text, case {case}"
            );
            assert_eq!(records(&chunked, k).unwrap(), want, "binary, case {case}");
            assert_eq!(
                records(&cached, k).unwrap(),
                want,
                "cold cache, case {case}"
            );
            assert_eq!(cache.stats().entries, k, "a skim does not fill the cache");
            cached.decode_kernel(k).expect("decode fills the cache");
            assert_eq!(
                records(&cached, k).unwrap(),
                want,
                "warm cache, case {case}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn long_source_lists_round_trip_and_skim() {
    let dir = scratch("srcs");
    for n in [15u16, 16, 20, 64] {
        let load = (0..n).fold(InstBuilder::new(Opcode::Ldg).dst(200), |b, r| b.src(r));
        let tensor = (0..n).fold(InstBuilder::new(Opcode::Hmma).dst(201), |b, r| b.src(r));
        let mut kernel = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
        let warp = kernel.push_block().push_warp();
        warp.push(load.pc(0x10).global_strided(0x4000, 4, 4));
        warp.push(tensor.pc(0x20));
        warp.push(
            InstBuilder::new(Opcode::Stg)
                .pc(0x30)
                .src(201)
                .explicit_addrs(vec![8, 16], 8),
        );
        let app = ApplicationTrace::new("wide", vec![kernel]);

        let bytes = app.to_binary();
        assert_eq!(
            ApplicationTrace::from_binary(&bytes).expect("binary"),
            app,
            "{n} sources"
        );
        let text = app.to_trace_text();
        assert_eq!(
            ApplicationTrace::parse(&text).expect("text"),
            app,
            "{n} sources"
        );

        let path = dir.join(format!("{n}.sstraceb"));
        std::fs::write(&path, &bytes).expect("write binary trace");
        let want = oracle(&app.kernels()[0]);
        assert_eq!(want.len(), 2);
        let text = TextTraceSource::from_text(text).expect("text source");
        assert_eq!(records(&text, 0).unwrap(), want, "text skim, {n} sources");
        let chunked = ChunkedTraceSource::open(&path).expect("chunked source");
        assert_eq!(
            records(&chunked, 0).unwrap(),
            want,
            "binary skim, {n} sources"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// R255 is the last register: a higher one is refused, never aliased onto
/// a low one, as a load's destination or as a source. A text trace fails
/// with `Parse` on the instruction's line, an SSTB trace and its skim with
/// `InvalidValue`.
#[test]
fn registers_above_r255_are_refused() {
    let dir = scratch("regs");
    for reg in [255u16, 256, u16::MAX] {
        let loads = [
            InstBuilder::new(Opcode::Ldg).dst(reg).src(1),
            InstBuilder::new(Opcode::Ldg).dst(1).src(reg),
        ];
        for (i, load) in loads.into_iter().enumerate() {
            let mut kernel = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
            let warp = kernel.push_block().push_warp();
            warp.push(load.pc(0x10).global_strided(0x4000, 4, 4));
            let app = ApplicationTrace::new("regs", vec![kernel]);
            let ctx = format!("R{reg}, load {i}");

            let text = app.to_trace_text();
            let line = 1 + text
                .lines()
                .position(|l| l.contains(&format!("R{reg}")))
                .expect("the register is written");
            let bytes = app.to_binary();
            let path = dir.join(format!("{reg}-{i}.sstraceb"));
            std::fs::write(&path, &bytes).expect("write binary trace");
            let chunked = ChunkedTraceSource::open(&path).expect("the header is intact");

            if reg < 256 {
                assert_eq!(ApplicationTrace::parse(&text).as_ref(), Ok(&app), "{ctx}");
                assert_eq!(
                    ApplicationTrace::from_binary(&bytes).as_ref(),
                    Ok(&app),
                    "{ctx}"
                );
                assert_eq!(records(&chunked, 0), Ok(oracle(&app.kernels()[0])), "{ctx}");
                continue;
            }
            match ApplicationTrace::parse(&text) {
                Err(TraceError::Parse { line: at, .. }) => assert_eq!(at, line, "{ctx}"),
                other => panic!("{ctx}: text gave {other:?}"),
            }
            for (what, got) in [
                ("SSTB", ApplicationTrace::from_binary(&bytes).map(|_| ())),
                ("SSTB skim", records(&chunked, 0).map(|_| ())),
            ] {
                assert!(
                    matches!(got, Err(TraceError::InvalidValue { .. })),
                    "{ctx}: {what} gave {got:?}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A small app with every kind of line the skims treat differently:
/// strided and explicit global accesses, a local store, a shared load
/// they skip, arithmetic, a barrier and two blocks, in two kernels.
fn small_app() -> ApplicationTrace {
    let mut k0 = KernelTrace::new("k0", (2, 1, 1), (32, 1, 1));
    for b in 0..2u64 {
        let warp = k0.push_block().push_warp();
        warp.push(
            InstBuilder::new(Opcode::Ldg)
                .pc(0)
                .dst(4)
                .src(1)
                .global_strided(0x100 * b, 4, 4),
        );
        warp.push(InstBuilder::new(Opcode::Ffma).pc(16).dst(5).src(4).src(4));
        warp.push(
            InstBuilder::new(Opcode::Stg)
                .pc(32)
                .src(5)
                .explicit_addrs(vec![0x40, 0x99], 4),
        );
        warp.push(InstBuilder::new(Opcode::Bar).pc(48));
        warp.push(InstBuilder::new(Opcode::Exit).pc(64));
    }
    let mut k1 = KernelTrace::new("k1", (1, 1, 1), (32, 1, 1));
    let warp = k1.push_block().push_warp();
    warp.push(
        InstBuilder::new(Opcode::Lds)
            .pc(0)
            .dst(2)
            .src(1)
            .global_strided(0, 4, 4),
    );
    warp.push(
        InstBuilder::new(Opcode::Stl)
            .pc(16)
            .src(2)
            .mask(0xf)
            .global_strided(0x800, 8, 8),
    );
    warp.push(InstBuilder::new(Opcode::Exit).pc(32));
    ApplicationTrace::new("small", vec![k0, k1])
}

/// For every kernel of `src`: if the decoder accepts it, the skim must too,
/// with the decoder's records. A kernel the decoder rejects may be skimmed
/// or rejected, but the call must return.
fn check_skim_against_decode(src: &dyn TraceSource, what: &str) {
    for k in 0..src.num_kernels() {
        let skim = records(src, k);
        if let Ok(kernel) = src.decode_kernel(k) {
            assert_eq!(skim, Ok(oracle(&kernel)), "{what}, kernel {k}");
        }
    }
}

#[test]
fn text_skim_survives_every_truncation_and_byte_substitution() {
    let text = small_app().to_trace_text();
    let mut damaged = Vec::new();
    for cut in 0..text.len() {
        damaged.push(text[..cut].to_owned());
    }
    // Text must stay UTF-8, so a "flip" swaps one byte for each of the
    // characters the format gives a meaning to, and for one it does not;
    // a vertical tab is white space to the decoder's `char` split only.
    let bytes = text.as_bytes();
    for i in 0..bytes.len() {
        for sub in *b" \t\x0b\n#:,0fxGRDS" {
            if bytes[i] != sub {
                let mut b = bytes.to_vec();
                b[i] = sub;
                damaged.push(String::from_utf8(b).expect("ASCII substitution"));
            }
        }
    }
    let mut opened = 0;
    for (i, text) in damaged.into_iter().enumerate() {
        if let Ok(src) = TextTraceSource::from_text(text) {
            opened += 1;
            check_skim_against_decode(&src, &format!("damaged text {i}"));
        }
    }
    assert!(
        opened > 1000,
        "only {opened} damaged texts got past the structural scan"
    );
}

#[test]
fn binary_skim_survives_every_truncation_and_byte_flip() {
    let dir = scratch("flip");
    let bytes = small_app().to_binary();
    let mut damaged: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut b = bytes.clone();
            b[i] ^= flip;
            damaged.push(b);
        }
    }
    let path = dir.join("damaged.sstraceb");
    for (i, b) in damaged.iter().enumerate() {
        std::fs::write(&path, b).expect("write damaged trace");
        if let Ok(src) = ChunkedTraceSource::open(&path) {
            check_skim_against_decode(&src, &format!("damaged binary {i}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn skims_cut_lines_and_tokens_where_the_decoder_does() {
    // The text skim has a byte-wise path for plain ASCII and the decoder's
    // path for everything else: comments, a vertical tab, and white space
    // outside ASCII must all land on the second with the same records.
    let text = small_app().to_trace_text();
    let variants = [
        text.replace(" M:", "\tM:"),
        text.replace(" M:", "\x0bM:"),
        text.replace(" M:", "\u{a0}M:"),
        text.replace(" LDG ", "\u{3000}LDG\u{2003}"),
        text.replace("\n", " # a comment\n"),
        text.replace("\n", "\r\n"),
        text.replace("block_begin\n", "  block_begin  \n\n#\n"),
    ];
    for (i, text) in variants.into_iter().enumerate() {
        let src = TextTraceSource::from_text(text).expect("still a trace");
        for k in 0..src.num_kernels() {
            let kernel = src.decode_kernel(k).expect("still decodes");
            assert_eq!(
                records(&src, k),
                Ok(oracle(&kernel)),
                "variant {i}, kernel {k}"
            );
        }
    }
}
