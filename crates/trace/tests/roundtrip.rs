//! Random well-formed traces, drawn from a seeded `swiftsim-rng` stream:
//! they survive the text and binary round trips with their statistics, and
//! every source's `for_each_mem_inst` hands out exactly the records of the
//! decoded kernel. Then the same agreement on deliberately damaged text
//! and binary traces, where the skims must never panic.

use std::sync::Arc;
use swiftsim_rng::SmallRng;
use swiftsim_trace::{
    AddressList, AddressView, ApplicationTrace, CachedTraceSource, ChunkedTraceSource,
    DecodedKernelCache, InstBuilder, KernelTrace, MemInstRef, Opcode, TextTraceSource, TraceError,
    TraceSource, WarpTrace,
};

/// Random apps per property.
const CASES: u64 = 64;

fn random_inst(rng: &mut SmallRng) -> InstBuilder {
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
    let mut inst = InstBuilder::new(opcode);
    if opcode.mem_space().is_some() {
        let stride = (!rng.gen_bool(0.5)).then(|| rng.gen_range(0u64..256));
        let width = [1, 2, 4, 8, 16][rng.gen_range(0usize..5)];
        inst = match stride {
            None => inst.explicit_addrs(
                (0..active_mask.count_ones())
                    .map(|i| base.wrapping_add(u64::from(i) * 7919))
                    .collect(),
                width,
            ),
            Some(stride) => inst.global_strided(base, stride, width),
        };
    }
    inst = inst.mask(active_mask).pc(rng.gen_range(0u32..1 << 16));
    if rng.gen_bool(0.5) {
        inst = inst.dst(rng.gen_range(0u32..255) as u8);
    }
    (0..num_srcs).fold(inst, |inst, _| inst.src(rng.gen_range(0u32..255) as u8))
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
                    let warp = block.push_warp();
                    for _ in 0..insts {
                        warp.push(random_inst(rng));
                    }
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
        let mut warp = WarpTrace::new();
        // `push` panics on an instruction inconsistent with its opcode.
        warp.push(inst.clone());
        let view = warp.iter().next().unwrap();
        assert!(view.is_well_formed(), "{inst:?}");
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
        let list = AddressView::Strided {
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
    for n in [15u8, 16, 20, 64] {
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

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The SSTB file of app "regs": one kernel "k" of one 32-thread block whose
/// one warp is `LDG D:R{dst} S:R{src}` at pc 0x10, strided from 0x4000 by
/// 4, 4 bytes wide. Written byte by byte, the way the encoder writes any
/// register, so a value above R255 (which no in-memory trace can hold)
/// reaches the decoder.
fn sstb_one_load(dst: u16, src: u16) -> Vec<u8> {
    let mut payload = vec![1, 1, 1]; // one block, one warp, one instruction
    push_varint(&mut payload, 0x10);
    let ldg = Opcode::ALL.iter().position(|&o| o == Opcode::Ldg).unwrap();
    payload.push(ldg as u8);
    payload.push(1 << 4 | 0b0011); // one source, a memory payload, a dst
    for v in [u64::from(dst), u64::from(src), u64::from(u32::MAX)] {
        push_varint(&mut payload, v);
    }
    payload.push(4);
    push_varint(&mut payload, 0x4000);
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

/// R255 is the last register: a higher one is refused, never aliased onto
/// a low one, as a load's destination or as a source. A text trace fails
/// with `Parse` on the instruction's line, an SSTB trace and its skim with
/// `InvalidValue`. No in-memory trace can name such a register
/// (`InstBuilder` takes a `u8`), so the files are written from the R255
/// trace: the text by substituting the register token, the SSTB byte by
/// byte.
#[test]
fn registers_above_r255_are_refused() {
    let dir = scratch("regs");
    for reg in [255u16, 256, u16::MAX] {
        let loads = [(reg, 1), (1, reg)];
        for (i, (dst, src)) in loads.into_iter().enumerate() {
            let low = |r: u16| r.min(255) as u8;
            let mut kernel = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
            kernel.push_block().push_warp().push(
                InstBuilder::new(Opcode::Ldg)
                    .pc(0x10)
                    .dst(low(dst))
                    .src(low(src))
                    .global_strided(0x4000, 4, 4),
            );
            let r255 = ApplicationTrace::new("regs", vec![kernel]);
            let ctx = format!("R{reg}, load {i}");
            // The hand-written file is what the encoder writes.
            assert_eq!(sstb_one_load(dst.min(255), src.min(255)), r255.to_binary());

            let text = r255.to_trace_text().replace("R255", &format!("R{reg}"));
            let line = 1 + text
                .lines()
                .position(|l| l.contains(&format!("R{reg}")))
                .expect("the register is written");
            let bytes = sstb_one_load(dst, src);
            let path = dir.join(format!("{reg}-{i}.sstraceb"));
            std::fs::write(&path, &bytes).expect("write binary trace");
            let chunked = ChunkedTraceSource::open(&path).expect("the header is intact");

            if reg < 256 {
                assert_eq!(ApplicationTrace::parse(&text).as_ref(), Ok(&r255), "{ctx}");
                assert_eq!(
                    ApplicationTrace::from_binary(&bytes).as_ref(),
                    Ok(&r255),
                    "{ctx}"
                );
                assert_eq!(
                    records(&chunked, 0),
                    Ok(oracle(&r255.kernels()[0])),
                    "{ctx}"
                );
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

/// A built instruction the decoders would refuse is refused when it is
/// pushed, in every build: packed, it would fail the run it is simulated
/// in and be written to a trace file that no decoder reads.
#[test]
fn pushing_an_instruction_inconsistent_with_its_opcode_panics() {
    let cases = [
        (
            "no address",
            InstBuilder::new(Opcode::Ldg).pc(0).dst(2).src(1),
        ),
        (
            "width 3",
            InstBuilder::new(Opcode::Ldg)
                .pc(0)
                .dst(2)
                .global_strided(0x1000, 4, 3),
        ),
        (
            "3 addresses for 32 lanes",
            InstBuilder::new(Opcode::Ldg)
                .pc(0)
                .dst(2)
                .explicit_addrs(vec![1, 2, 3], 4)
                .mask(u32::MAX),
        ),
    ];
    for (what, inst) in cases {
        let mut warp = WarpTrace::new();
        let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| warp.push(inst)));
        let message = pushed.map(|()| String::new()).unwrap_or_else(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        });
        assert!(
            message.contains("inconsistent with opcode LDG"),
            "{what}: push gave {message:?}"
        );
    }
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
