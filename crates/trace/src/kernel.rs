//! Kernel, block, warp, and application trace containers.

use crate::inst::{heap_block, MemInstRef, Reg};
use crate::isa::OpcodeClass;
use crate::warp::WarpTrace;
use std::fmt;

/// A CUDA launch dimension (x, y, z).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// X extent.
    pub x: u32,
    /// Y extent.
    pub y: u32,
    /// Z extent.
    pub z: u32,
}

impl Dim3 {
    /// Create a dimension triple.
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// Total element count (`x * y * z`).
    pub fn count(&self) -> u64 {
        u64::from(self.x) * u64::from(self.y) * u64::from(self.z)
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Self {
        Dim3::new(x, y, z)
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.x, self.y, self.z)
    }
}

/// The warps of one thread block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockTrace {
    warps: Vec<WarpTrace>,
}

impl BlockTrace {
    /// Create an empty block trace.
    pub fn new() -> Self {
        BlockTrace::default()
    }

    /// Create an empty block trace with room for `warps` warps.
    pub fn with_capacity(warps: usize) -> Self {
        BlockTrace {
            warps: Vec::with_capacity(warps),
        }
    }

    /// Append an empty warp and return a mutable handle to fill it.
    pub fn push_warp(&mut self) -> &mut WarpTrace {
        self.push_warp_trace(WarpTrace::new())
    }

    /// Append a pre-built warp and return a mutable handle to it.
    pub fn push_warp_trace(&mut self, warp: WarpTrace) -> &mut WarpTrace {
        self.warps.push(warp);
        self.warps.last_mut().expect("just pushed")
    }

    /// Bytes this block holds on the heap: the warp array at its capacity
    /// plus what the warps hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        heap_block::<WarpTrace>(self.warps.capacity())
            + self.warps.iter().map(WarpTrace::heap_bytes).sum::<usize>()
    }

    /// The block's warps.
    pub fn warps(&self) -> &[WarpTrace] {
        &self.warps
    }

    /// Number of warps.
    pub fn num_warps(&self) -> usize {
        self.warps.len()
    }

    /// Total dynamic instructions across all warps.
    pub fn num_insts(&self) -> u64 {
        self.warps.iter().map(|w| w.len() as u64).sum()
    }
}

impl FromIterator<WarpTrace> for BlockTrace {
    fn from_iter<I: IntoIterator<Item = WarpTrace>>(iter: I) -> Self {
        BlockTrace {
            warps: iter.into_iter().collect(),
        }
    }
}

/// One kernel launch: geometry, resource usage, and per-block traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTrace {
    /// Kernel name (mangled or friendly).
    pub name: String,
    /// Grid dimensions (thread blocks).
    pub grid_dim: Dim3,
    /// Block dimensions (threads).
    pub block_dim: Dim3,
    /// Static shared memory per block, in bytes.
    pub shared_mem_bytes: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
    blocks: Vec<BlockTrace>,
}

impl KernelTrace {
    /// Create a kernel trace with the given launch geometry and no blocks.
    pub fn new(
        name: impl Into<String>,
        grid_dim: impl Into<Dim3>,
        block_dim: impl Into<Dim3>,
    ) -> Self {
        KernelTrace {
            name: name.into(),
            grid_dim: grid_dim.into(),
            block_dim: block_dim.into(),
            shared_mem_bytes: 0,
            regs_per_thread: 32,
            blocks: Vec::new(),
        }
    }

    /// Append an empty block and return a mutable handle to fill it.
    pub fn push_block(&mut self) -> &mut BlockTrace {
        self.blocks.push(BlockTrace::new());
        self.blocks.last_mut().expect("just pushed")
    }

    /// Append a pre-built block.
    pub fn push_block_trace(&mut self, block: BlockTrace) {
        self.blocks.push(block);
    }

    /// Make room for `additional` more blocks.
    pub fn reserve_blocks(&mut self, additional: usize) {
        self.blocks.reserve_exact(additional);
    }

    /// Bytes this kernel holds on the heap: its name, the block array at
    /// its capacity, and what the blocks hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        heap_block::<u8>(self.name.capacity())
            + heap_block::<BlockTrace>(self.blocks.capacity())
            + self
                .blocks
                .iter()
                .map(BlockTrace::heap_bytes)
                .sum::<usize>()
    }

    /// The kernel's blocks, in launch order.
    pub fn blocks(&self) -> &[BlockTrace] {
        &self.blocks
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block_dim.count() as u32
    }

    /// Warps per block for the given warp size.
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        self.threads_per_block().div_ceil(warp_size)
    }

    /// Total dynamic instructions in the kernel.
    pub fn num_insts(&self) -> u64 {
        self.blocks.iter().map(BlockTrace::num_insts).sum()
    }

    /// Hand `f` every global or local memory instruction, in (block, warp,
    /// instruction) order. The reference every
    /// [`TraceSource::for_each_mem_inst`](crate::TraceSource::for_each_mem_inst)
    /// must agree with.
    pub fn for_each_mem_inst(&self, mut f: impl FnMut(&MemInstRef<'_>)) {
        for (b, block) in self.blocks.iter().enumerate() {
            for warp in &block.warps {
                for inst in warp {
                    if let Some(mem) = MemInstRef::of(b, &inst) {
                        f(&mem);
                    }
                }
            }
        }
    }

    /// The first register above R255 an instruction of the kernel names,
    /// if any ([`WarpTrace::invalid_register`]).
    pub fn invalid_register(&self) -> Option<Reg> {
        self.blocks
            .iter()
            .flat_map(|block| &block.warps)
            .find_map(WarpTrace::invalid_register)
    }

    /// Check that the trace body matches the launch geometry: one traced
    /// block per grid element (when blocks are present) and a consistent
    /// warp count per block.
    pub fn is_consistent(&self, warp_size: u32) -> bool {
        if self.blocks.is_empty() {
            return false;
        }
        if self.blocks.len() as u64 != self.grid_dim.count() {
            return false;
        }
        let expected_warps = self.warps_per_block(warp_size) as usize;
        self.blocks.iter().all(|b| b.num_warps() == expected_warps)
    }
}

/// A traced application: an ordered list of kernel launches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplicationTrace {
    /// Application name (e.g. `"bfs"`).
    pub name: String,
    kernels: Vec<KernelTrace>,
}

impl ApplicationTrace {
    /// Create an application trace from kernels in launch order.
    pub fn new(name: impl Into<String>, kernels: Vec<KernelTrace>) -> Self {
        ApplicationTrace {
            name: name.into(),
            kernels,
        }
    }

    /// The kernels, in launch order.
    pub fn kernels(&self) -> &[KernelTrace] {
        &self.kernels
    }

    /// Total dynamic instructions across kernels.
    pub fn num_insts(&self) -> u64 {
        self.kernels.iter().map(KernelTrace::num_insts).sum()
    }

    /// Compute summary statistics over the whole application.
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats::default();
        for kernel in &self.kernels {
            stats.kernels += 1;
            stats.blocks += kernel.blocks().len() as u64;
            for block in kernel.blocks() {
                stats.warps += block.num_warps() as u64;
                for warp in block.warps() {
                    for inst in warp {
                        stats.instructions += 1;
                        match inst.opcode.class() {
                            OpcodeClass::Int => stats.int_insts += 1,
                            OpcodeClass::Sp => stats.sp_insts += 1,
                            OpcodeClass::Dp => stats.dp_insts += 1,
                            OpcodeClass::Sfu => stats.sfu_insts += 1,
                            OpcodeClass::Tensor => stats.tensor_insts += 1,
                            OpcodeClass::Memory => stats.mem_insts += 1,
                            OpcodeClass::Control => stats.control_insts += 1,
                            OpcodeClass::Barrier => stats.barriers += 1,
                            OpcodeClass::Exit => {}
                        }
                    }
                }
            }
        }
        stats
    }
}

impl FromIterator<KernelTrace> for ApplicationTrace {
    fn from_iter<I: IntoIterator<Item = KernelTrace>>(iter: I) -> Self {
        ApplicationTrace {
            name: String::new(),
            kernels: iter.into_iter().collect(),
        }
    }
}

/// Instruction-mix summary of an [`ApplicationTrace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing counters
pub struct TraceStats {
    pub kernels: u64,
    pub blocks: u64,
    pub warps: u64,
    pub instructions: u64,
    pub int_insts: u64,
    pub sp_insts: u64,
    pub dp_insts: u64,
    pub sfu_insts: u64,
    pub tensor_insts: u64,
    pub mem_insts: u64,
    pub control_insts: u64,
    pub barriers: u64,
}

impl TraceStats {
    /// Fraction of dynamic instructions that access memory.
    pub fn memory_intensity(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.mem_insts as f64 / self.instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstBuilder;
    use crate::isa::Opcode;

    fn tiny_app() -> ApplicationTrace {
        let mut kernel = KernelTrace::new("k", (2, 1, 1), (64, 1, 1));
        for _ in 0..2 {
            let b = kernel.push_block();
            for _ in 0..2 {
                let w = b.push_warp();
                w.push(
                    InstBuilder::new(Opcode::Ldg)
                        .dst(2)
                        .src(1)
                        .global_strided(0, 4, 4),
                );
                w.push(InstBuilder::new(Opcode::Ffma).dst(3).src(2).src(2));
                w.push(InstBuilder::new(Opcode::Iadd).dst(1).src(1));
                w.push(InstBuilder::new(Opcode::Exit));
            }
        }
        ApplicationTrace::new("tiny", vec![kernel])
    }

    #[test]
    fn dim3_count() {
        assert_eq!(Dim3::new(4, 2, 3).count(), 24);
        assert_eq!(Dim3::from((1, 1, 1)).count(), 1);
    }

    #[test]
    fn warps_per_block_rounds_up() {
        let k = KernelTrace::new("k", (1, 1, 1), (65, 1, 1));
        assert_eq!(k.warps_per_block(32), 3);
        assert_eq!(k.threads_per_block(), 65);
    }

    #[test]
    fn stats_count_classes() {
        let stats = tiny_app().stats();
        assert_eq!(stats.kernels, 1);
        assert_eq!(stats.blocks, 2);
        assert_eq!(stats.warps, 4);
        assert_eq!(stats.instructions, 16);
        assert_eq!(stats.mem_insts, 4);
        assert_eq!(stats.sp_insts, 4);
        assert_eq!(stats.int_insts, 4);
        assert!((stats.memory_intensity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_intensity_is_zero() {
        assert_eq!(TraceStats::default().memory_intensity(), 0.0);
    }

    #[test]
    fn consistency_checks_geometry() {
        let app = tiny_app();
        assert!(app.kernels()[0].is_consistent(32));

        let mut short = app.kernels()[0].clone();
        short.grid_dim = Dim3::new(3, 1, 1);
        assert!(!short.is_consistent(32));

        let empty = KernelTrace::new("e", (1, 1, 1), (32, 1, 1));
        assert!(!empty.is_consistent(32));
    }

    #[test]
    fn collect_warp_from_iterator() {
        let warp: WarpTrace = (0..5)
            .map(|i| InstBuilder::new(Opcode::Iadd).pc(i * 16).dst(1).build())
            .collect();
        assert_eq!(warp.len(), 5);
        assert_eq!(warp.iter().count(), 5);
        let pcs: Vec<u32> = (&warp).into_iter().map(|i| i.pc).collect();
        assert_eq!(pcs, vec![0, 16, 32, 48, 64]);
    }

    #[test]
    fn num_insts_aggregates() {
        let app = tiny_app();
        assert_eq!(app.num_insts(), 16);
        assert_eq!(app.kernels()[0].num_insts(), 16);
        assert_eq!(app.kernels()[0].blocks()[0].num_insts(), 8);
    }
}
