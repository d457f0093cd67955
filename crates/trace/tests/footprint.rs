//! Heap behaviour of the decoded trace, measured with a counting global
//! allocator: a packed record takes at most 16 bytes, a warp's heap blocks
//! do not grow with its instruction count, a hostile count cannot force a
//! large block, [`kernel_approx_bytes`] tracks what the allocator really
//! holds, and the pre-pass skims build nothing. Then the packed image
//! against the owned records it is built from: packing and viewing gives
//! back every instruction, and decoding gives back every file byte.
//!
//! The counters are per thread, so the tests of this binary (each on its
//! own thread) do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swiftsim_config::fnv1a64;
use swiftsim_rng::SmallRng;
use swiftsim_trace::{
    kernel_approx_bytes, AddressList, ApplicationTrace, ChunkedTraceSource, InstBuilder,
    KernelTrace, MemInfo, Opcode, OpcodeClass, Reg, TextTraceSource, TraceInstruction, TraceSource,
    WarpTrace,
};
use swiftsim_workloads::Scale;

/// The most bytes one packed instruction record may take.
const RECORD_BYTES: usize = 16;

#[derive(Clone, Copy, Default)]
struct Counters {
    /// Heap blocks requested (`alloc`, and every `realloc`).
    blocks: usize,
    /// Bytes requested, summed over those blocks.
    requested: usize,
    /// Bytes the live blocks occupy as glibc malloc chunks.
    live_chunk_bytes: isize,
}

thread_local! {
    static COUNTERS: Cell<Counters> = const {
        Cell::new(Counters { blocks: 0, requested: 0, live_chunk_bytes: 0 })
    };
}

/// What glibc's malloc spends on a block of `size` bytes: an 8-byte header,
/// rounded up to 16, at least 32.
fn chunk_bytes(size: usize) -> isize {
    ((size + 8 + 15) & !15).max(32) as isize
}

fn record(requested: usize, freed: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = COUNTERS.try_with(|c| {
        let mut n = c.get();
        if requested > 0 {
            n.blocks += 1;
            n.requested += requested;
            n.live_chunk_bytes += chunk_bytes(requested);
        }
        if freed > 0 {
            n.live_chunk_bytes -= chunk_bytes(freed);
        }
        c.set(n);
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping around it only touches a
// `const`-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size());
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size());
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` allocated on this thread, with its result still alive.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Counters) {
    let before = COUNTERS.with(Cell::get);
    let value = f();
    let after = COUNTERS.with(Cell::get);
    let delta = Counters {
        blocks: after.blocks - before.blocks,
        requested: after.requested - before.requested,
        live_chunk_bytes: after.live_chunk_bytes - before.live_chunk_bytes,
    };
    (value, delta)
}

/// A kernel with every kind of instruction the decoder allocates for.
fn mixed_kernel(blocks: u64, warps: u64, iters: u64) -> KernelTrace {
    let mut kernel = KernelTrace::new("mixed", (blocks as u32, 1, 1), (warps as u32 * 32, 1, 1));
    for b in 0..blocks {
        let block = kernel.push_block();
        for w in 0..warps {
            let warp = block.push_warp();
            for i in 0..iters {
                let pc = (i * 64) as u32;
                warp.push(
                    InstBuilder::new(Opcode::Ldg)
                        .pc(pc)
                        .dst(4)
                        .src(1)
                        .global_strided(0x1000 * (b + 1) + 0x100 * w + 4 * i, 4, 4),
                );
                warp.push(
                    InstBuilder::new(Opcode::Ffma)
                        .pc(pc + 16)
                        .dst(5)
                        .src(4)
                        .src(4)
                        .src(5),
                );
                warp.push(
                    InstBuilder::new(Opcode::Stg)
                        .pc(pc + 32)
                        .src(5)
                        .explicit_addrs((0..32).map(|l| 0x9000 + (l * 7919 + i) * 4).collect(), 4),
                );
                warp.push(InstBuilder::new(Opcode::Bar).pc(pc + 48));
            }
            warp.push(InstBuilder::new(Opcode::Exit).pc(0xfff0));
        }
    }
    kernel
}

#[test]
fn decode_allocates_once_per_container_and_payload() {
    let (blocks, warps, iters) = (6, 4, 25);
    let app = ApplicationTrace::new("app", vec![mixed_kernel(blocks, warps, iters)]);
    let bytes = app.to_binary();

    let (decoded, counted) = measure(|| ApplicationTrace::from_binary(&bytes).expect("decodes"));
    assert_eq!(decoded, app);

    let memory_insts = blocks * warps * iters * 2;
    // Per warp: its records, its memory payloads and its explicit-address
    // arena, each one exact block. The header, the names, the kernel list
    // and the scratch warp the decoder packs into (which grows by doubling,
    // once per kernel): a few dozen blocks that do not grow with the
    // kernel.
    let fixed = 64;
    let bound = (blocks + blocks * warps * 3 + fixed) as usize;
    assert!(
        counted.blocks <= bound,
        "{} heap blocks for {blocks} blocks x {warps} warps: bound {bound}",
        counted.blocks
    );
    // No instruction owns a block: the bound is far below one block per
    // memory instruction, let alone per instruction.
    assert!(bound < memory_insts as usize);
}

/// The bytes `f` requested, net of what it freed, over `n` instructions.
fn bytes_per_inst(n: usize, f: impl FnOnce() -> WarpTrace) -> f64 {
    let (warp, counted) = measure(f);
    assert_eq!(warp.len(), n);
    counted.live_chunk_bytes as f64 / n as f64
}

#[test]
fn a_record_is_at_most_16_bytes() {
    // Five sources, a destination and a partial mask: a full record, and
    // nothing for the side tables.
    let n = 4096;
    let inst = (1..=5)
        .fold(InstBuilder::new(Opcode::Ffma).dst(255), |b, r| b.src(r))
        .mask(0x00ff_ff00)
        .build();
    let per_inst = bytes_per_inst(n, || {
        let mut warp = WarpTrace::with_capacity(n);
        for _ in 0..n {
            warp.push(inst.clone());
        }
        warp
    });
    // One block of `n` records; its malloc header spread over 4096 of them
    // is far below a byte.
    assert!(
        per_inst <= RECORD_BYTES as f64 + 0.01,
        "{per_inst} bytes per record"
    );

    // The same through both decoders.
    let mut kernel = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
    *kernel.push_block().push_warp() = std::iter::repeat_n(inst, n).collect();
    let app = ApplicationTrace::new("app", vec![kernel]);
    let (bin, text) = (app.to_binary(), app.to_trace_text());
    for (what, decode) in [
        (
            "SSTB",
            Box::new(|| ApplicationTrace::from_binary(&bin)) as Box<dyn Fn() -> _>,
        ),
        ("text", Box::new(|| ApplicationTrace::parse(&text))),
    ] {
        let (decoded, counted) = measure(|| decode().expect("decodes"));
        assert_eq!(decoded, app);
        // The record block, and the names and the kernel, block and warp
        // lists: at most 2 KiB that do not grow with the warp.
        let per_inst = (counted.live_chunk_bytes - 2048) as f64 / n as f64;
        assert!(
            per_inst <= RECORD_BYTES as f64,
            "{what}: {per_inst} bytes per instruction beyond 2 KiB"
        );
    }
}

#[test]
fn a_strided_memory_instruction_owns_no_heap_block() {
    // A warp of `n` strided loads holds two blocks whatever `n` is: its
    // records and its payload table.
    let warp_of = |n: u64| {
        let mut kernel = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
        let warp = kernel.push_block().push_warp();
        for i in 0..n {
            warp.push(
                InstBuilder::new(Opcode::Ldg)
                    .pc(16 * i as u32)
                    .dst(4)
                    .src(2)
                    .global_strided(0x1000 + 128 * i, 4, 4),
            );
        }
        ApplicationTrace::new("app", vec![kernel]).to_binary()
    };
    let live_blocks = |bytes: &[u8]| {
        let (decoded, counted) = measure(|| ApplicationTrace::from_binary(bytes).expect("decodes"));
        drop(decoded);
        counted.blocks
    };
    let (small, large) = (warp_of(64), warp_of(4096));
    let (small, large) = (live_blocks(&small), live_blocks(&large));
    // The scratch warp doubles its way up to the larger warp: six more
    // doublings of each of its two tables, and nothing per instruction.
    assert!(
        large <= small + 2 * 6,
        "64 loads: {small} heap blocks, 4096 loads: {large}"
    );
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[test]
fn hostile_instruction_count_errors_without_a_large_allocation() {
    // One block, one warp, 2^28 instructions — in a 16-byte payload.
    let mut payload = vec![1, 1];
    push_varint(&mut payload, 1 << 28);
    payload.resize(16, 0);

    // A well-formed SSTB v2 file around it, so the decoder gets as far as
    // the payload: header, one section entry committing to the payload.
    let mut file = b"SSTB\x02".to_vec();
    for name in ["app", "k"] {
        push_varint(&mut file, name.len() as u64);
        file.extend_from_slice(name.as_bytes());
        if name == "app" {
            push_varint(&mut file, 1); // kernel count
        }
    }
    for v in [1, 1, 1, 32, 1, 1, 0, 32, 1 << 28, payload.len() as u64] {
        push_varint(&mut file, v); // grid, block, shmem, regs, insts, length
    }
    file.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    file.extend_from_slice(&payload);

    let (result, counted) = measure(|| ApplicationTrace::from_binary(&file));
    let err = result.expect_err("16 bytes cannot hold 2^28 instructions");
    assert!(err.to_string().contains("binary trace"), "{err}");
    assert!(
        counted.requested < 8 << 10,
        "decoding a 16-byte payload requested {} bytes",
        counted.requested
    );
}

#[test]
fn kernel_approx_bytes_tracks_the_allocator() {
    for name in ["bfs", "gemm"] {
        let generated = swiftsim_workloads::by_name(name)
            .expect("suite workload")
            .generate(Scale::Small);
        let bytes = generated.to_binary();
        drop(generated);

        let (decoded, counted) =
            measure(|| ApplicationTrace::from_binary(&bytes).expect("decodes"));
        let estimate: usize = decoded.kernels().iter().map(kernel_approx_bytes).sum();
        let live = counted.live_chunk_bytes as f64;
        let ratio = estimate as f64 / live;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{name}: kernel_approx_bytes says {estimate}, the allocator holds {live} ({ratio:.3}x)"
        );
    }
}

/// Skim every kernel of `src`, returning the heap blocks each skim made and
/// the memory instructions it handed out.
fn skim_blocks(src: &dyn TraceSource) -> Vec<(usize, usize)> {
    (0..src.num_kernels())
        .map(|k| {
            let mut seen = 0;
            let (result, counted) = measure(|| src.for_each_mem_inst(k, &mut |_| seen += 1));
            result.expect("skims");
            (counted.blocks, seen)
        })
        .collect()
}

#[test]
fn text_skim_allocates_nothing() {
    let app = ApplicationTrace::new("app", vec![mixed_kernel(3, 4, 25), mixed_kernel(6, 4, 50)]);
    let src = TextTraceSource::from_text(app.to_trace_text()).expect("text source");
    // Explicit lists land in a lane buffer on the stack: no heap block per
    // instruction, nor per kernel.
    assert_eq!(
        skim_blocks(&src),
        [(0, 3 * 4 * 25 * 2), (0, 6 * 4 * 50 * 2)]
    );
}

#[test]
fn binary_skim_allocates_one_payload_buffer_per_kernel() {
    let app = ApplicationTrace::new("app", vec![mixed_kernel(3, 4, 25), mixed_kernel(6, 4, 50)]);
    let dir = std::env::temp_dir().join(format!("swiftsim-footprint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("skim.sstraceb");
    app.write_binary_file(&path).expect("write binary trace");
    let src = ChunkedTraceSource::open(&path).expect("chunked source");
    assert_eq!(
        skim_blocks(&src),
        [(1, 3 * 4 * 25 * 2), (1, 6 * 4 * 50 * 2)]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A random well-formed instruction, biased to the cases the packing
/// treats apart: sources past what a record holds, R255, no destination,
/// explicit address lists.
fn random_inst(rng: &mut SmallRng) -> TraceInstruction {
    let opcode = Opcode::ALL[rng.gen_range(0..Opcode::ALL.len())];
    let active_mask = match rng.gen_range(0u32..3) {
        0 => u32::MAX,
        _ => (rng.next_u64() as u32).max(1),
    };
    let reg = |rng: &mut SmallRng| match rng.gen_range(0u32..8) {
        0 => Reg(255),
        _ => Reg(rng.gen_range(0u32..256) as u16),
    };
    let base = rng.next_u64();
    let mem = opcode.mem_space().map(|space| MemInfo {
        space,
        width: [1, 2, 4, 8, 16][rng.gen_range(0usize..5)],
        addresses: if rng.gen_bool(0.5) {
            AddressList::Explicit(
                (0..u64::from(active_mask.count_ones()))
                    .map(|i| base ^ (i * 0x9e37))
                    .collect(),
            )
        } else {
            AddressList::Strided {
                base,
                stride: rng.next_u64() >> rng.gen_range(0u32..64),
            }
        },
    });
    TraceInstruction {
        pc: rng.next_u64() as u32,
        opcode,
        dst: rng.gen_bool(0.5).then(|| reg(rng)),
        srcs: (0..rng.gen_range(0usize..13)).map(|_| reg(rng)).collect(),
        active_mask,
        mem,
    }
}

#[test]
fn packing_and_viewing_gives_back_every_instruction() {
    let mut rng = SmallRng::seed_from_u64(38);
    let (mut long_lists, mut r255, mut no_dst, mut explicit) = (0, 0, 0, 0);
    let mut classes = Vec::new();
    for case in 0..256 {
        let insts: Vec<TraceInstruction> = (0..rng.gen_range(1usize..40))
            .map(|_| random_inst(&mut rng))
            .collect();
        let warp: WarpTrace = insts.iter().cloned().collect();
        let back: Vec<TraceInstruction> = warp.iter().map(TraceInstruction::from).collect();
        assert_eq!(back, insts, "case {case}");
        assert!(warp.iter().all(|inst| inst.is_well_formed()), "case {case}");
        assert_eq!(warp.invalid_register(), None, "case {case}");
        for inst in &insts {
            long_lists += usize::from(inst.srcs.len() >= 7);
            r255 += usize::from(inst.dst == Some(Reg(255)) || inst.srcs.contains(&Reg(255)));
            no_dst += usize::from(inst.dst.is_none());
            explicit += usize::from(matches!(
                inst.mem.as_ref().map(|m| &m.addresses),
                Some(AddressList::Explicit(_))
            ));
            if !classes.contains(&inst.opcode.class()) {
                classes.push(inst.opcode.class());
            }
        }
    }
    assert!(long_lists > 100 && r255 > 100 && no_dst > 100 && explicit > 100);
    let every_class = [
        OpcodeClass::Int,
        OpcodeClass::Sp,
        OpcodeClass::Dp,
        OpcodeClass::Sfu,
        OpcodeClass::Tensor,
        OpcodeClass::Memory,
        OpcodeClass::Control,
        OpcodeClass::Barrier,
        OpcodeClass::Exit,
    ];
    assert!(
        every_class.iter().all(|c| classes.contains(c)),
        "{classes:?}"
    );
}

#[test]
fn decoding_then_encoding_gives_back_every_byte() {
    let mut rng = SmallRng::seed_from_u64(3838);
    let mut apps: Vec<ApplicationTrace> = ["bfs", "gemm"]
        .iter()
        .map(|name| {
            swiftsim_workloads::by_name(name)
                .expect("suite workload")
                .generate(Scale::Tiny)
        })
        .collect();
    for case in 0..16 {
        let mut kernel = KernelTrace::new(format!("random{case}"), (2, 1, 1), (64, 1, 1));
        for _ in 0..2 {
            let block = kernel.push_block();
            for _ in 0..2 {
                *block.push_warp() = (0..rng.gen_range(0usize..30))
                    .map(|_| random_inst(&mut rng))
                    .collect();
            }
        }
        apps.push(ApplicationTrace::new("random", vec![kernel]));
    }
    for app in &apps {
        let bytes = app.to_binary();
        let from_binary = ApplicationTrace::from_binary(&bytes).expect("SSTB decodes");
        assert_eq!(from_binary.to_binary(), bytes, "{}", app.name);
        let text = app.to_trace_text();
        let parsed = ApplicationTrace::parse(&text).expect("text parses");
        assert_eq!(parsed.to_trace_text(), text, "{}", app.name);
        assert_eq!(parsed.to_binary(), bytes, "{}", app.name);
    }
}
