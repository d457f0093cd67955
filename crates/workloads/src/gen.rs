//! Trace-generation primitives.
//!
//! A [`PatternKernel`] describes a kernel the way an architect would
//! characterize it — launch geometry, per-iteration instruction [`Mix`],
//! and [`MemPattern`] — and deterministically expands into a
//! [`KernelTrace`]. Static PCs repeat across loop iterations exactly as in
//! real SASS, which is what gives the analytical memory model's per-PC hit
//! rates (Eq. 1) something meaningful to attach to.

use swiftsim_rng::SmallRng;
use swiftsim_trace::{InstBuilder, KernelTrace, Opcode, WarpTrace};

/// How much of the paper-scale workload to generate.
///
/// `Paper` sizes drive the figure-regeneration harness; `Small` keeps
/// example binaries snappy; `Tiny` keeps unit tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Unit-test scale (a few blocks, a few iterations).
    Tiny,
    /// Example/CI scale.
    Small,
    /// Evaluation scale used by the benchmark harness.
    Paper,
}

impl Scale {
    fn div(self) -> u32 {
        match self {
            Scale::Tiny => 32,
            Scale::Small => 8,
            Scale::Paper => 1,
        }
    }

    /// Scale down a paper-scale count, keeping at least `min`.
    pub fn apply(self, paper_value: u32, min: u32) -> u32 {
        (paper_value / self.div()).max(min)
    }

    /// Stable lowercase token (`tiny`/`small`/`paper`), the inverse of the
    /// `FromStr` impl. Campaign labels and cache keys are built from it, so
    /// it must never change.
    pub fn token(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parse a [`Scale::token`]; the error names the valid tokens.
    fn from_str(token: &str) -> Result<Scale, String> {
        match token {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale {other:?} (tiny|small|paper)")),
        }
    }
}

/// Per-loop-iteration instruction mix of a generated kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // counts of instructions per iteration, self-describing
pub struct Mix {
    pub loads: u32,
    pub stores: u32,
    pub fp: u32,
    pub int_ops: u32,
    pub sfu: u32,
    pub tensor: u32,
    pub dp: u32,
    pub shared_ld: u32,
    pub shared_st: u32,
}

/// Memory-access pattern of a generated kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemPattern {
    /// Fully coalesced streaming: each warp walks consecutive cache lines
    /// (dense linear algebra and stencil sweeps).
    Streaming,
    /// Per-lane stride in bytes; strides ≥ one line fan a warp access out
    /// into many transactions (column-major walks, AoS layouts).
    Strided {
        /// Byte distance between consecutive lanes.
        lane_stride: u64,
    },
    /// Row stencil: each iteration loads the `rows` neighbouring rows
    /// (hotspot/SRAD/ADI-like).
    Stencil {
        /// Bytes per matrix row.
        row_bytes: u64,
        /// Neighbouring rows touched per load slot.
        rows: u32,
    },
    /// Graph-irregular: uniformly random lines from a footprint, with a
    /// hot subset absorbing part of the traffic (BFS/pagerank-like).
    Irregular {
        /// Distinct 128 B lines in the footprint.
        footprint_lines: u64,
        /// Fraction of accesses hitting the hot 8% of the footprint.
        hot_fraction: f64,
    },
    /// Block-tiled with reuse: all warps of a block read the same tile
    /// (GEMM-like; pairs naturally with shared memory and barriers).
    Tiled {
        /// Tile size in bytes.
        tile_bytes: u64,
    },
}

/// A parameterized synthetic kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternKernel {
    /// Kernel name (appears in traces and reports).
    pub name: String,
    /// Thread blocks at paper scale.
    pub blocks: u32,
    /// Threads per block (multiple of 32).
    pub threads_per_block: u32,
    /// Loop iterations per warp at paper scale.
    pub iters: u32,
    /// Instruction mix per iteration.
    pub mix: Mix,
    /// Memory-access pattern.
    pub pattern: MemPattern,
    /// Static shared memory per block in bytes.
    pub shared_mem_bytes: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Whether each iteration ends with a block-wide barrier.
    pub barrier: bool,
}

impl PatternKernel {
    /// Expand into a kernel trace at the given scale. Generation is
    /// deterministic: the same spec and scale always produce the same
    /// trace.
    pub fn generate(&self, scale: Scale) -> KernelTrace {
        let blocks = scale.apply(self.blocks, 2);
        let iters = scale.apply(self.iters, 2);
        let threads = self.threads_per_block.max(32) / 32 * 32;
        let warps = threads / 32;

        let mut kernel = KernelTrace::new(self.name.clone(), (blocks, 1, 1), (threads, 1, 1));
        kernel.shared_mem_bytes = self.shared_mem_bytes;
        kernel.regs_per_thread = self.regs_per_thread;

        // App-level base address: distinct apps touch distinct regions.
        let app_base = (hash64(&self.name) % 0x1000) << 24;

        for b in 0..blocks {
            let block = kernel.push_block();
            for w in 0..warps {
                let mut rng = SmallRng::seed_from_u64(
                    hash64(&self.name) ^ (u64::from(b) << 20) ^ u64::from(w),
                );
                *block.push_warp() = self.generate_warp(app_base, b, w, iters, warps, &mut rng);
            }
        }
        kernel
    }

    /// Number of static instructions in the loop body (constant PCs across
    /// iterations).
    fn body_len(&self) -> u32 {
        let m = &self.mix;
        let barrier = u32::from(self.barrier);
        m.loads
            + m.shared_st
            + m.shared_ld
            + m.fp
            + m.int_ops
            + m.sfu
            + m.tensor
            + m.dp
            + m.stores
            + barrier
            + 3 // loop counter, compare, branch
    }

    fn generate_warp(
        &self,
        app_base: u64,
        block: u32,
        warp: u32,
        iters: u32,
        warps_per_block: u32,
        rng: &mut SmallRng,
    ) -> WarpTrace {
        let mut out = WarpTrace::with_capacity((iters * self.body_len() + 1) as usize);
        let m = &self.mix;
        let global_warp = u64::from(block) * u64::from(warps_per_block) + u64::from(warp);

        for iter in 0..iters {
            let mut pc = 0u32;
            let next_pc = |pc: &mut u32| {
                let cur = *pc;
                *pc += 16;
                cur
            };
            // Rotating register allocation: loads feed the FP chain, the FP
            // chain feeds the stores — real RAW dependences.
            let mut last_loaded: u16 = 8;
            let mut fp_acc: u16 = 24;

            for l in 0..m.loads {
                let dst = 8 + ((iter * m.loads + l) % 8) as u16;
                let addr = self.load_address(app_base, global_warp, iter, l, rng);
                let inst = match self.pattern {
                    MemPattern::Strided { lane_stride } => InstBuilder::new(Opcode::Ldg)
                        .pc(next_pc(&mut pc))
                        .dst(dst)
                        .src(2)
                        .global_strided(addr, lane_stride, 4),
                    _ => InstBuilder::new(Opcode::Ldg)
                        .pc(next_pc(&mut pc))
                        .dst(dst)
                        .src(2)
                        .global_strided(addr, 4, 4),
                };
                out.push(inst);
                last_loaded = dst;
            }

            for s in 0..m.shared_st {
                let addr = u64::from((warp * 32 + s) % 64) * 4;
                out.push(
                    InstBuilder::new(Opcode::Sts)
                        .pc(next_pc(&mut pc))
                        .src(last_loaded)
                        .global_strided(addr, 4, 4),
                );
            }
            if self.barrier {
                out.push(InstBuilder::new(Opcode::Bar).pc(next_pc(&mut pc)));
            }
            for s in 0..m.shared_ld {
                let dst = 16 + (s % 4) as u16;
                let addr = u64::from((warp * 7 + s * 13) % 64) * 4;
                out.push(
                    InstBuilder::new(Opcode::Lds)
                        .pc(next_pc(&mut pc))
                        .dst(dst)
                        .src(2)
                        .global_strided(addr, 4, 4),
                );
                last_loaded = dst;
            }

            for _ in 0..m.fp {
                let dst = fp_acc;
                out.push(
                    InstBuilder::new(Opcode::Ffma)
                        .pc(next_pc(&mut pc))
                        .dst(dst)
                        .src(last_loaded)
                        .src(fp_acc),
                );
                fp_acc = 24 + ((fp_acc + 1) % 6);
            }
            for i in 0..m.int_ops {
                out.push(
                    InstBuilder::new(if i % 3 == 0 {
                        Opcode::Imad
                    } else {
                        Opcode::Iadd
                    })
                    .pc(next_pc(&mut pc))
                    .dst(4 + (i % 3) as u16)
                    .src(4 + (i % 3) as u16),
                );
            }
            for _ in 0..m.sfu {
                out.push(
                    InstBuilder::new(Opcode::Mufu)
                        .pc(next_pc(&mut pc))
                        .dst(30)
                        .src(fp_acc),
                );
            }
            for _ in 0..m.tensor {
                out.push(
                    InstBuilder::new(Opcode::Hmma)
                        .pc(next_pc(&mut pc))
                        .dst(32)
                        .src(last_loaded)
                        .src(fp_acc),
                );
            }
            for _ in 0..m.dp {
                out.push(
                    InstBuilder::new(Opcode::Dfma)
                        .pc(next_pc(&mut pc))
                        .dst(40)
                        .src(40),
                );
            }

            for s in 0..m.stores {
                let addr = self.store_address(app_base, global_warp, iter, s);
                out.push(
                    InstBuilder::new(Opcode::Stg)
                        .pc(next_pc(&mut pc))
                        .src(fp_acc)
                        .global_strided(addr, 4, 4),
                );
            }

            // Loop bookkeeping: counter, compare, branch.
            out.push(
                InstBuilder::new(Opcode::Iadd)
                    .pc(next_pc(&mut pc))
                    .dst(2)
                    .src(2),
            );
            out.push(
                InstBuilder::new(Opcode::Isetp)
                    .pc(next_pc(&mut pc))
                    .dst(7)
                    .src(2),
            );
            out.push(InstBuilder::new(Opcode::Bra).pc(next_pc(&mut pc)).src(7));
            debug_assert_eq!(pc / 16, self.body_len());
        }
        out.push(InstBuilder::new(Opcode::Exit).pc(self.body_len() * 16));
        out
    }

    fn load_address(
        &self,
        app_base: u64,
        global_warp: u64,
        iter: u32,
        slot: u32,
        rng: &mut SmallRng,
    ) -> u64 {
        match self.pattern {
            MemPattern::Streaming => {
                app_base
                    + (global_warp * u64::from(self.iters.max(1)) + u64::from(iter)) * 128
                    + u64::from(slot) * 0x40_0000
            }
            MemPattern::Strided { lane_stride } => {
                app_base
                    + (global_warp * u64::from(self.iters.max(1)) + u64::from(iter))
                        * lane_stride
                        * 32
                    + u64::from(slot) * 0x40_0000
            }
            MemPattern::Stencil { row_bytes, rows } => {
                let row = u64::from(slot % rows.max(1));
                app_base
                    + (global_warp * u64::from(self.iters.max(1)) + u64::from(iter)) * 128
                    + row * row_bytes
            }
            MemPattern::Irregular {
                footprint_lines,
                hot_fraction,
            } => {
                let hot_lines = (footprint_lines / 12).max(1);
                let line = if rng.gen_bool(hot_fraction.clamp(0.0, 1.0)) {
                    rng.gen_range(0..hot_lines)
                } else {
                    rng.gen_range(0..footprint_lines.max(1))
                };
                app_base + line * 128
            }
            MemPattern::Tiled { tile_bytes } => {
                // All warps of the block stream the same tile.
                let block = global_warp / 8; // approximate block id
                let offset = (u64::from(iter) * 128 + u64::from(slot) * 32) % tile_bytes.max(128);
                app_base + block * tile_bytes + offset
            }
        }
    }

    fn store_address(&self, app_base: u64, global_warp: u64, iter: u32, slot: u32) -> u64 {
        // Output regions are streaming for every pattern (results written
        // once), offset away from the input region.
        app_base
            + 0x2000_0000
            + (global_warp * u64::from(self.iters.max(1)) + u64::from(iter)) * 128
            + u64::from(slot) * 0x10_0000
    }
}

/// Generate a multi-kernel application with at least `target_insts`
/// traced instructions, for stressing the trace-ingestion pipeline.
///
/// The app cycles through the five memory patterns across eight kernels of
/// roughly equal size, so streaming ingestion (which holds ~2 decoded
/// kernels) has a meaningful memory advantage over eager loading (which
/// holds all eight). Deterministic: the same target always produces the
/// same trace.
pub fn ingest_stress_app(target_insts: u64) -> swiftsim_trace::ApplicationTrace {
    const KERNELS: u64 = 8;
    let mix = Mix {
        loads: 2,
        stores: 1,
        fp: 6,
        int_ops: 4,
        ..Mix::default()
    };
    let patterns = [
        MemPattern::Streaming,
        MemPattern::Strided { lane_stride: 128 },
        MemPattern::Stencil {
            row_bytes: 4096,
            rows: 3,
        },
        MemPattern::Tiled { tile_bytes: 8192 },
        MemPattern::Irregular {
            footprint_lines: 4096,
            hot_fraction: 0.5,
        },
    ];

    let threads_per_block = 128u32; // 4 warps
    let iters = 8u32;
    // Per warp: body * iters + EXIT; body = mix ops + 3 loop instructions.
    let body = u64::from(mix.loads + mix.stores + mix.fp + mix.int_ops + 3);
    let per_block = u64::from(threads_per_block / 32) * (body * u64::from(iters) + 1);
    let per_kernel = target_insts.div_ceil(KERNELS);
    let blocks = per_kernel.div_ceil(per_block).max(2) as u32;

    let kernels = (0..KERNELS)
        .map(|i| {
            PatternKernel {
                name: format!("ingest_k{i}"),
                blocks,
                threads_per_block,
                iters,
                mix,
                pattern: patterns[i as usize % patterns.len()],
                shared_mem_bytes: 0,
                regs_per_thread: 32,
                barrier: false,
            }
            .generate(Scale::Paper)
        })
        .collect();
    swiftsim_trace::ApplicationTrace::new("ingest_stress", kernels)
}

/// Deterministic per-name seed. FNV-1a's shape and offset basis, but not
/// FNV-1a: the prime is `0x1000_0000_01b3`, where FNV's is
/// `0x100_0000_01b3` (`swiftsim_config::fnv1a64`). It is not replaced by
/// that function because every generated trace's address base and random
/// stream derive from it, so the fix would change every generated
/// application and every number measured on one.
pub(crate) fn hash64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PatternKernel {
        PatternKernel {
            name: "test_kernel".into(),
            blocks: 64,
            threads_per_block: 128,
            iters: 16,
            mix: Mix {
                loads: 2,
                stores: 1,
                fp: 4,
                int_ops: 2,
                ..Mix::default()
            },
            pattern: MemPattern::Streaming,
            shared_mem_bytes: 0,
            regs_per_thread: 32,
            barrier: false,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = spec().generate(Scale::Tiny);
        let b = spec().generate(Scale::Tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn scale_controls_size() {
        let tiny = spec().generate(Scale::Tiny);
        let small = spec().generate(Scale::Small);
        let paper = spec().generate(Scale::Paper);
        assert!(tiny.num_insts() < small.num_insts());
        assert!(small.num_insts() < paper.num_insts());
    }

    #[test]
    fn trace_is_consistent_with_geometry() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
            let k = spec().generate(scale);
            assert!(k.is_consistent(32), "scale {scale:?}");
        }
    }

    #[test]
    fn pcs_repeat_across_iterations() {
        let k = spec().generate(Scale::Small);
        let warp = &k.blocks()[0].warps()[0];
        let mut pcs: Vec<u32> = warp.iter().map(|i| i.pc).collect();
        pcs.sort_unstable();
        pcs.dedup();
        // Static footprint = body length + EXIT, regardless of iterations.
        assert_eq!(pcs.len() as u32, spec().body_len() + 1);
    }

    #[test]
    fn every_instruction_is_well_formed() {
        let patterns = [
            MemPattern::Streaming,
            MemPattern::Strided { lane_stride: 128 },
            MemPattern::Stencil {
                row_bytes: 4096,
                rows: 3,
            },
            MemPattern::Irregular {
                footprint_lines: 1000,
                hot_fraction: 0.5,
            },
            MemPattern::Tiled { tile_bytes: 8192 },
        ];
        for pattern in patterns {
            let mut s = spec();
            s.pattern = pattern;
            s.mix.shared_ld = 1;
            s.mix.shared_st = 1;
            s.barrier = true;
            let k = s.generate(Scale::Tiny);
            for block in k.blocks() {
                for warp in block.warps() {
                    for inst in warp {
                        assert!(inst.is_well_formed(), "{inst:?} under {pattern:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn irregular_pattern_stays_in_footprint() {
        let mut s = spec();
        let footprint = 64u64;
        s.pattern = MemPattern::Irregular {
            footprint_lines: footprint,
            hot_fraction: 0.6,
        };
        let k = s.generate(Scale::Small);
        let app_base = (hash64("test_kernel") % 0x1000) << 24;
        for block in k.blocks() {
            for warp in block.warps() {
                for inst in warp {
                    if inst.opcode == Opcode::Ldg {
                        if let Some(mem) = &inst.mem {
                            let addrs = mem.addresses.expand(inst.active_lanes());
                            assert!(addrs[0] >= app_base);
                            assert!(addrs[0] < app_base + footprint * 128 + 128);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ingest_stress_app_meets_target_and_is_deterministic() {
        let app = ingest_stress_app(100_000);
        assert!(app.num_insts() >= 100_000, "got {}", app.num_insts());
        assert_eq!(app.kernels().len(), 8);
        for k in app.kernels() {
            assert!(k.is_consistent(32));
        }
        assert_eq!(app, ingest_stress_app(100_000));
    }

    #[test]
    fn hash_is_stable_and_distinct() {
        assert_eq!(hash64("bfs"), hash64("bfs"));
        assert_ne!(hash64("bfs"), hash64("gemm"));
    }

    #[test]
    fn scale_tokens_round_trip() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
            assert_eq!(scale.token().parse::<Scale>(), Ok(scale));
        }
        let err = "Tiny".parse::<Scale>().unwrap_err();
        assert!(err.contains("tiny|small|paper"), "{err}");
        assert!("huge".parse::<Scale>().is_err());
    }
}
