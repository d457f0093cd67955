//! Dynamic trace instructions and compressed per-thread address lists.

use crate::isa::{MemSpace, Opcode};
use crate::warp::InstView;
use std::fmt;

/// An architectural register number.
///
/// Registers only matter to the performance model through data dependences
/// (the scoreboard), so a bare index is sufficient. SASS numbers them R0 to
/// R255 and a warp stores each in one byte, so a trace file naming a higher
/// one is refused at decode and [`InstBuilder`] takes a `u8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<u16> for Reg {
    fn from(value: u16) -> Self {
        Reg(value)
    }
}

/// What the allocator spends on one heap block beyond the bytes asked for:
/// glibc's chunk header plus rounding up to 16 bytes, about 16 on average.
const MALLOC_BLOCK_OVERHEAD: usize = 16;

/// Heap bytes behind a block of `capacity` items of `T`, allocator overhead
/// included; an empty `Vec` owns no block.
pub(crate) fn heap_block<T>(capacity: usize) -> usize {
    match capacity * std::mem::size_of::<T>() {
        0 => 0,
        bytes => bytes + MALLOC_BLOCK_OVERHEAD,
    }
}

/// Per-thread addresses of a memory instruction, compressed.
///
/// NVBit-style traces record one address per active thread. Storing 32
/// addresses per instruction explodes trace size, so — like the Accel-Sim
/// trace format — the common base+stride pattern is stored in constant
/// space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AddressList {
    /// Lane `i` (counting only *active* lanes, in ascending lane order)
    /// accesses `base + i * stride`.
    Strided {
        /// Address accessed by the first active lane.
        base: u64,
        /// Byte distance between consecutive active lanes.
        stride: u64,
    },
    /// Explicit per-active-lane addresses, ascending lane order. The length
    /// must equal the number of set bits in the instruction's active mask.
    Explicit(Vec<u64>),
}

impl AddressList {
    /// The list, borrowed.
    pub(crate) fn view(&self) -> AddressView<'_> {
        match self {
            &AddressList::Strided { base, stride } => AddressView::Strided { base, stride },
            AddressList::Explicit(addrs) => AddressView::Explicit(addrs),
        }
    }
}

/// An [`AddressList`] borrowed from wherever the instruction lives: a
/// warp's packed image, or a lane buffer a trace skim reuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressView<'a> {
    /// As [`AddressList::Strided`].
    Strided {
        /// Address accessed by the first active lane.
        base: u64,
        /// Byte distance between consecutive active lanes.
        stride: u64,
    },
    /// As [`AddressList::Explicit`].
    Explicit(&'a [u64]),
}

impl AddressView<'_> {
    /// Expand to one address per active lane. An explicit list is returned
    /// as it is (its length was checked against the active mask when the
    /// instruction was packed or decoded).
    pub fn expand(&self, active_lanes: u32) -> Vec<u64> {
        match *self {
            AddressView::Strided { base, stride } => (0..u64::from(active_lanes))
                .map(|i| base.wrapping_add(i.wrapping_mul(stride)))
                .collect(),
            AddressView::Explicit(addrs) => addrs.to_vec(),
        }
    }

    /// Number of addresses this list yields for `active_lanes` active lanes.
    pub fn len(&self, active_lanes: u32) -> usize {
        match self {
            AddressView::Strided { .. } => active_lanes as usize,
            AddressView::Explicit(addrs) => addrs.len(),
        }
    }
}

impl From<AddressView<'_>> for AddressList {
    fn from(view: AddressView<'_>) -> Self {
        match view {
            AddressView::Strided { base, stride } => AddressList::Strided { base, stride },
            AddressView::Explicit(addrs) => AddressList::Explicit(addrs.to_vec()),
        }
    }
}

/// Lanes of a warp: the most addresses an explicit list can hold.
pub(crate) const WARP_LANES: usize = 32;

/// Whether a memory payload of `width` bytes per lane at `addresses` fits
/// an instruction with `active_mask`: a width the hardware has, and an
/// explicit list with one address per active lane.
pub(crate) fn mem_payload_fits(width: u8, addresses: AddressView<'_>, active_mask: u32) -> bool {
    matches!(width, 1 | 2 | 4 | 8 | 16)
        && match addresses {
            AddressView::Strided { .. } => true,
            AddressView::Explicit(addrs) => addrs.len() == active_mask.count_ones() as usize,
        }
}

/// Whether an `opcode` instruction with `active_mask` may carry `mem`: a
/// payload exactly when the opcode accesses memory, in the opcode's space,
/// and fitting the mask ([`mem_payload_fits`]).
pub(crate) fn is_well_formed(opcode: Opcode, active_mask: u32, mem: Option<MemView<'_>>) -> bool {
    match (mem, opcode.mem_space()) {
        (None, None) => true,
        (Some(mem), Some(space)) => {
            mem.space == space && mem_payload_fits(mem.width, mem.addresses, active_mask)
        }
        _ => false,
    }
}

/// Everything of one instruction but its sources, as a decoder reads it
/// or a builder holds it, before [`WarpTrace`](crate::WarpTrace) packs it:
/// no owned record and no heap block on the way. The addresses of an
/// explicit access borrow the decoder's lane buffer or the builder's list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstParts<'a> {
    pub(crate) pc: u32,
    pub(crate) opcode: Opcode,
    pub(crate) dst: Option<u8>,
    pub(crate) active_mask: u32,
    pub(crate) mem: Option<MemView<'a>>,
}

/// One global or local memory instruction, borrowed: what
/// [`TraceSource::for_each_mem_inst`](crate::TraceSource::for_each_mem_inst)
/// hands out, and everything the analytical pre-pass reads of an
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemInstRef<'a> {
    /// Index of the instruction's thread block in its kernel.
    pub block: usize,
    /// Program counter.
    pub pc: u32,
    /// Whether the instruction stores.
    pub write: bool,
    /// Access width per thread in bytes.
    pub width: u8,
    /// 32-bit lane mask of threads executing the instruction.
    pub active_mask: u32,
    /// Per-thread addresses.
    pub addresses: AddressView<'a>,
}

impl<'a> MemInstRef<'a> {
    /// The record of an `opcode` instruction in `space`, or `None` unless
    /// it accesses global or local memory — the spaces the cache hierarchy
    /// serves.
    pub(crate) fn in_hierarchy(
        block: usize,
        pc: u32,
        opcode: Opcode,
        space: MemSpace,
        active_mask: u32,
        width: u8,
        addresses: AddressView<'a>,
    ) -> Option<Self> {
        matches!(space, MemSpace::Global | MemSpace::Local).then_some(MemInstRef {
            block,
            pc,
            write: opcode.is_store(),
            width,
            active_mask,
            addresses,
        })
    }

    /// `inst` as an instruction of block `block`, or `None` unless it
    /// accesses global or local memory.
    pub fn of(block: usize, inst: &InstView<'a>) -> Option<Self> {
        let mem = inst.mem?;
        Self::in_hierarchy(
            block,
            inst.pc,
            inst.opcode,
            mem.space,
            inst.active_mask,
            mem.width,
            mem.addresses,
        )
    }

    /// Number of active lanes.
    pub fn active_lanes(&self) -> u32 {
        self.active_mask.count_ones()
    }
}

/// The memory payload of one instruction, borrowed from wherever the
/// instruction lives: a warp's packed image ([`InstView::mem`]), or a
/// decoder's lane buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemView<'a> {
    /// Memory space accessed.
    pub space: MemSpace,
    /// Access width per thread in bytes (1, 2, 4, 8, or 16).
    pub width: u8,
    /// Per-thread addresses.
    pub addresses: AddressView<'a>,
}

/// Sources a builder holds without a heap block: as many as a packed
/// record holds itself.
const INLINE_SRCS: usize = crate::warp::INLINE_SRCS;

/// One instruction under construction: the only owned form of an
/// instruction, which [`WarpTrace::push`](crate::WarpTrace::push) packs.
/// The synthetic workload generators and tests build every in-memory trace
/// with it.
///
/// Up to five sources live in the builder itself, and a strided access is
/// two words, so the common instruction owns no heap block. A register is
/// a `u8`, R0 to R255, so a built trace cannot name one a warp cannot
/// store.
///
/// # Examples
///
/// ```
/// use swiftsim_trace::{InstBuilder, Opcode, Reg, WarpTrace};
///
/// let mut warp = WarpTrace::new();
/// warp.push(
///     InstBuilder::new(Opcode::Ffma)
///         .pc(0x120)
///         .dst(8)
///         .src(4)
///         .src(5)
///         .mask(0xffff_ffff),
/// );
/// let inst = warp.iter().next().unwrap();
/// assert_eq!(inst.active_lanes(), 32);
/// assert_eq!(inst.dst, Some(Reg(8)));
/// ```
///
/// A register above R255 does not compile:
///
/// ```compile_fail
/// use swiftsim_trace::{InstBuilder, Opcode};
///
/// let _ = InstBuilder::new(Opcode::Iadd).dst(256);
/// ```
#[derive(Debug, Clone)]
pub struct InstBuilder {
    pc: u32,
    opcode: Opcode,
    dst: Option<u8>,
    active_mask: u32,
    num_inline: u8,
    inline: [u8; INLINE_SRCS],
    /// Sources past the inline ones; empty, so no heap block, otherwise.
    spilled: Vec<u8>,
    /// The opcode's memory space, width per lane and addresses.
    mem: Option<(MemSpace, u8, AddressList)>,
}

impl InstBuilder {
    /// Start building an instruction with full active mask and PC 0.
    pub fn new(opcode: Opcode) -> Self {
        InstBuilder {
            pc: 0,
            opcode,
            dst: None,
            active_mask: u32::MAX,
            num_inline: 0,
            inline: [0; INLINE_SRCS],
            spilled: Vec::new(),
            mem: None,
        }
    }

    /// Set the program counter.
    pub fn pc(mut self, pc: u32) -> Self {
        self.pc = pc;
        self
    }

    /// Set the destination register.
    pub fn dst(mut self, reg: u8) -> Self {
        self.dst = Some(reg);
        self
    }

    /// Append a source register.
    pub fn src(mut self, reg: u8) -> Self {
        match self.inline.get_mut(usize::from(self.num_inline)) {
            Some(slot) => {
                *slot = reg;
                self.num_inline += 1;
            }
            None => self.spilled.push(reg),
        }
        self
    }

    /// Set the active-thread mask.
    pub fn mask(mut self, mask: u32) -> Self {
        self.active_mask = mask;
        self
    }

    /// Attach a strided access in the opcode's memory space.
    ///
    /// # Panics
    ///
    /// Panics if the opcode is not a memory opcode; that is a bug in the
    /// caller, not a data error.
    pub fn global_strided(mut self, base: u64, stride: u64, width: u8) -> Self {
        let space = self
            .opcode
            .mem_space()
            .expect("strided access attached to non-memory opcode");
        self.mem = Some((space, width, AddressList::Strided { base, stride }));
        self
    }

    /// Attach an explicit per-lane address list in the opcode's memory
    /// space, and narrow the active mask to the list length.
    ///
    /// # Panics
    ///
    /// Panics if the opcode is not a memory opcode or if `addrs` holds more
    /// than 32 addresses.
    pub fn explicit_addrs(mut self, addrs: Vec<u64>, width: u8) -> Self {
        let space = self
            .opcode
            .mem_space()
            .expect("explicit access attached to non-memory opcode");
        assert!(addrs.len() <= WARP_LANES, "a warp has at most 32 lanes");
        self.active_mask = if addrs.len() == WARP_LANES {
            u32::MAX
        } else {
            (1u32 << addrs.len()) - 1
        };
        self.mem = Some((space, width, AddressList::Explicit(addrs)));
        self
    }

    /// The instruction as a warp packs it: its parts, its inline sources
    /// and the sources past them.
    pub(crate) fn parts(&self) -> (InstParts<'_>, &[u8], &[u8]) {
        let parts = InstParts {
            pc: self.pc,
            opcode: self.opcode,
            dst: self.dst,
            active_mask: self.active_mask,
            mem: self.mem.as_ref().map(|(space, width, addresses)| MemView {
                space: *space,
                width: *width,
                addresses: addresses.view(),
            }),
        };
        let inline = &self.inline[..usize::from(self.num_inline)];
        (parts, inline, &self.spilled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WarpTrace;

    #[test]
    fn strided_expansion() {
        let list = AddressView::Strided {
            base: 0x100,
            stride: 4,
        };
        assert_eq!(list.expand(4), vec![0x100, 0x104, 0x108, 0x10c]);
        assert_eq!(list.len(4), 4);
        assert_eq!(list.len(0), 0);
    }

    #[test]
    fn strided_expansion_wraps_instead_of_panicking() {
        let list = AddressView::Strided {
            base: u64::MAX - 4,
            stride: 4,
        };
        let addrs = list.expand(3);
        assert_eq!(addrs[0], u64::MAX - 4);
        assert_eq!(addrs[2], 3); // wrapped
    }

    #[test]
    fn explicit_expansion_is_identity() {
        let addrs = vec![0x10, 0x200, 0x8];
        let list = AddressList::Explicit(addrs.clone());
        assert_eq!(list.view().expand(3), addrs);
    }

    /// `inst` packed alone into a warp.
    fn packed(inst: InstBuilder) -> WarpTrace {
        let mut warp = WarpTrace::new();
        warp.push(inst);
        warp
    }

    #[test]
    fn builder_defaults() {
        let warp = packed(InstBuilder::new(Opcode::Iadd));
        let inst = warp.iter().next().unwrap();
        assert_eq!(inst.active_lanes(), 32);
        assert_eq!(inst.pc, 0);
        assert!(inst.dst.is_none());
        assert!(inst.srcs.is_empty());
        assert!(inst.mem.is_none());
        assert!(inst.is_well_formed());
    }

    #[test]
    fn builder_memory() {
        let warp = packed(
            InstBuilder::new(Opcode::Ldg)
                .dst(2)
                .src(1)
                .global_strided(0x1000, 4, 4),
        );
        let inst = warp.iter().next().unwrap();
        let mem = inst.mem.unwrap();
        assert_eq!(mem.space, MemSpace::Global);
        assert_eq!(
            mem.addresses,
            AddressView::Strided {
                base: 0x1000,
                stride: 4
            }
        );
        assert!(inst.is_well_formed());
    }

    #[test]
    fn explicit_addrs_sets_mask() {
        let warp = packed(
            InstBuilder::new(Opcode::Ldg)
                .dst(2)
                .explicit_addrs(vec![1, 2, 3], 4),
        );
        let inst = warp.iter().next().unwrap();
        assert_eq!(inst.active_lanes(), 3);
        assert!(inst.is_well_formed());

        let full = packed(
            InstBuilder::new(Opcode::Ldg)
                .dst(2)
                .explicit_addrs((0..32).map(|i| i * 8).collect(), 8),
        );
        assert_eq!(full.iter().next().unwrap().active_lanes(), 32);
    }

    #[test]
    fn sources_past_the_inline_ones_spill_in_order() {
        for n in 0..=20u8 {
            let builder = (0..n).fold(InstBuilder::new(Opcode::Hmma), |b, r| b.src(r));
            let (_, inline, spilled) = builder.parts();
            assert_eq!(inline.len(), usize::from(n).min(INLINE_SRCS), "{n} sources");
            assert_eq!(spilled.len(), usize::from(n).saturating_sub(INLINE_SRCS));
            // No heap block unless a source spills.
            assert_eq!(builder.spilled.capacity() > 0, usize::from(n) > INLINE_SRCS);
            let warp = packed(builder);
            let srcs: Vec<u8> = warp
                .iter()
                .next()
                .unwrap()
                .srcs
                .iter()
                .map(|r| r.0 as u8)
                .collect();
            assert_eq!(srcs, (0..n).collect::<Vec<_>>(), "{n} sources");
        }
    }

    #[test]
    #[should_panic(expected = "non-memory opcode")]
    fn memory_payload_on_alu_panics() {
        let _ = InstBuilder::new(Opcode::Fadd).global_strided(0, 4, 4);
    }

    #[test]
    fn well_formedness_catches_mismatches() {
        let strided = |space, width| MemView {
            space,
            width,
            addresses: AddressView::Strided {
                base: 0x1000,
                stride: 4,
            },
        };
        let three = [1, 2, 3];
        let explicit = MemView {
            space: MemSpace::Global,
            width: 4,
            addresses: AddressView::Explicit(&three),
        };
        assert!(is_well_formed(
            Opcode::Ldg,
            u32::MAX,
            Some(strided(MemSpace::Global, 4))
        ));
        assert!(is_well_formed(Opcode::Ldg, 0b111, Some(explicit)));
        assert!(is_well_formed(Opcode::Iadd, u32::MAX, None));
        // Wrong space.
        assert!(!is_well_formed(
            Opcode::Ldg,
            u32::MAX,
            Some(strided(MemSpace::Shared, 4))
        ));
        // Missing payload, and a payload on an opcode without one.
        assert!(!is_well_formed(Opcode::Ldg, u32::MAX, None));
        assert!(!is_well_formed(
            Opcode::Iadd,
            u32::MAX,
            Some(strided(MemSpace::Global, 4))
        ));
        // Bad width.
        assert!(!is_well_formed(
            Opcode::Ldg,
            u32::MAX,
            Some(strided(MemSpace::Global, 3))
        ));
        // Explicit list length mismatch.
        assert!(!is_well_formed(Opcode::Ldg, u32::MAX, Some(explicit)));
    }
}
