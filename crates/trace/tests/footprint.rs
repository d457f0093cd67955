//! Heap behaviour of the decoded trace, measured with a counting global
//! allocator: how many heap blocks a decode makes, that a hostile count
//! cannot force a large one, that [`kernel_approx_bytes`] tracks what the
//! allocator really holds, and that the pre-pass skims build nothing.
//!
//! The counters are per thread, so the tests of this binary (each on its
//! own thread) do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swiftsim_config::fnv1a64;
use swiftsim_trace::{
    kernel_approx_bytes, ApplicationTrace, ChunkedTraceSource, InstBuilder, KernelTrace, Opcode,
    TextTraceSource, TraceInstruction, TraceSource,
};
use swiftsim_workloads::Scale;

// The layout the whole change rests on; `inst.rs` asserts the same.
const _: () = assert!(std::mem::size_of::<TraceInstruction>() <= 40);

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
    let explicit_lists = blocks * warps * iters;
    // The header, the names and the kernel list: a handful of blocks that
    // do not grow with the kernel.
    let fixed = 16;
    let bound = (blocks + blocks * warps + memory_insts + explicit_lists + fixed) as usize;
    assert!(
        counted.blocks <= bound,
        "{} heap blocks for {blocks} blocks x {warps} warps, {memory_insts} memory \
         instructions, {explicit_lists} explicit lists: bound {bound}",
        counted.blocks
    );
    // Most instructions are not memory instructions and must own no block:
    // the bound above is far below one block per instruction.
    assert!(bound < app.num_insts() as usize);
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
