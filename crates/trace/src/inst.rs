//! Dynamic trace instructions and compressed per-thread address lists.

use crate::isa::{MemSpace, Opcode};
use crate::warp::InstView;
use std::fmt;

/// An architectural register number.
///
/// Registers only matter to the performance model through data dependences
/// (the scoreboard), so a bare index is sufficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

/// Architectural registers per thread: SASS numbers them R0 to R255, and
/// the scoreboard tracks exactly that many. A trace file naming a higher
/// one is refused at decode.
pub(crate) const NUM_REGS: u16 = 256;

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

/// Registers a [`SrcList`] holds without a heap block: the tag, the length
/// and seven 2-byte registers fill the 16 bytes the spill pointer needs
/// anyway.
const INLINE_SRCS: usize = 7;

/// The source registers of one owned [`TraceInstruction`].
///
/// Traced SASS instructions read at most a handful of registers, so the
/// list lives inline and building an instruction allocates nothing for
/// it; only lists longer than seven registers (both trace formats allow
/// any number) spill to the heap. Equality, ordering of iteration and
/// hashing go by content, never by which representation holds it.
///
/// # Examples
///
/// ```
/// use swiftsim_trace::{Reg, SrcList};
///
/// let srcs: SrcList = [Reg(4), Reg(5)].into_iter().collect();
/// assert_eq!(srcs.len(), 2);
/// assert_eq!(srcs[1], Reg(5));
/// assert!(srcs.iter().all(|r| r.0 >= 4));
/// ```
#[derive(Clone)]
pub struct SrcList(SrcRepr);

#[derive(Clone)]
enum SrcRepr {
    Inline {
        len: u8,
        regs: [Reg; INLINE_SRCS],
    },
    // A thin pointer: `Box<[Reg]>` is two words and would grow every
    // owned instruction by eight bytes for a case that almost never occurs.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<Reg>>),
}

const _: () = assert!(std::mem::size_of::<SrcList>() == 16);

impl SrcList {
    /// An empty list.
    pub const fn new() -> Self {
        SrcList(SrcRepr::Inline {
            len: 0,
            regs: [Reg(0); INLINE_SRCS],
        })
    }

    /// Append a register.
    pub fn push(&mut self, reg: Reg) {
        match &mut self.0 {
            SrcRepr::Inline { len, regs } => {
                let n = usize::from(*len);
                if n < INLINE_SRCS {
                    regs[n] = reg;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * INLINE_SRCS);
                    spilled.extend_from_slice(regs);
                    spilled.push(reg);
                    self.0 = SrcRepr::Spilled(Box::new(spilled));
                }
            }
            SrcRepr::Spilled(regs) => regs.push(reg),
        }
    }

    /// The registers, in operand order.
    pub fn as_slice(&self) -> &[Reg] {
        match &self.0 {
            SrcRepr::Inline { len, regs } => &regs[..usize::from(*len)],
            SrcRepr::Spilled(regs) => regs,
        }
    }

    /// A heap-backed list of any length, so tests can compare the two
    /// representations of the same content.
    #[cfg(test)]
    pub(crate) fn spilled_for_tests(regs: &[Reg]) -> Self {
        SrcList(SrcRepr::Spilled(Box::new(regs.to_vec())))
    }
}

impl Default for SrcList {
    fn default() -> Self {
        SrcList::new()
    }
}

impl std::ops::Deref for SrcList {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a SrcList {
    type Item = &'a Reg;
    type IntoIter = std::slice::Iter<'a, Reg>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<Reg> for SrcList {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> Self {
        let mut list = SrcList::new();
        for reg in iter {
            list.push(reg);
        }
        list
    }
}

impl PartialEq for SrcList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SrcList {}

impl std::hash::Hash for SrcList {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for SrcList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
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
    /// Expand to one address per active lane.
    ///
    /// `active_lanes` is the number of set bits in the active mask. For
    /// [`AddressList::Explicit`] the stored list is returned as-is (callers
    /// validate length at construction).
    pub fn expand(&self, active_lanes: u32) -> Vec<u64> {
        self.view().expand(active_lanes)
    }

    /// Number of addresses this list yields for `active_lanes` active lanes.
    pub fn len(&self, active_lanes: u32) -> usize {
        self.view().len(active_lanes)
    }

    /// Whether the list yields no addresses.
    pub fn is_empty(&self, active_lanes: u32) -> bool {
        self.len(active_lanes) == 0
    }

    /// The list, borrowed.
    pub fn view(&self) -> AddressView<'_> {
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
    /// Expand to one address per active lane, as [`AddressList::expand`].
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
/// before packing it into a [`WarpTrace`](crate::WarpTrace): no owned
/// record and no heap block on the way. The addresses of an explicit
/// access borrow the decoder's lane buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstParts<'a> {
    pub(crate) pc: u32,
    pub(crate) opcode: Opcode,
    pub(crate) dst: Option<Reg>,
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

/// Memory-access payload of a load/store instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemInfo {
    /// Memory space accessed.
    pub space: MemSpace,
    /// Access width per thread in bytes (1, 2, 4, 8, or 16).
    pub width: u8,
    /// Per-thread addresses.
    pub addresses: AddressList,
}

/// One dynamic instruction of one warp, owned: what the synthetic
/// generators and tests build (with [`InstBuilder`]) and
/// [`WarpTrace::push`](crate::WarpTrace::push) packs.
///
/// A decoded trace holds no `TraceInstruction`s: a warp keeps a packed
/// image (DESIGN.md, "Decoded-trace layout") and hands out borrowed
/// [`InstView`]s, which convert back with `TraceInstruction::from`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceInstruction {
    /// Program counter (byte offset of the instruction in the kernel).
    pub pc: u32,
    /// Opcode.
    pub opcode: Opcode,
    /// Destination register, if the instruction writes one.
    pub dst: Option<Reg>,
    /// Source registers (data dependences).
    pub srcs: SrcList,
    /// 32-bit lane mask of threads executing this instruction.
    pub active_mask: u32,
    /// Memory payload for load/store opcodes.
    pub mem: Option<MemInfo>,
}

impl TraceInstruction {
    /// Number of active lanes.
    pub fn active_lanes(&self) -> u32 {
        self.active_mask.count_ones()
    }

    /// Whether the instruction accesses memory.
    pub fn is_memory(&self) -> bool {
        self.mem.is_some()
    }

    /// Internal consistency check used by the parser and by property tests:
    /// memory payload present iff the opcode is a memory opcode, spaces
    /// agree, and explicit address lists match the active-lane count.
    pub fn is_well_formed(&self) -> bool {
        is_well_formed(
            self.opcode,
            self.active_mask,
            self.mem.as_ref().map(MemInfo::view),
        )
    }
}

impl MemInfo {
    /// The payload, borrowed.
    pub(crate) fn view(&self) -> MemView<'_> {
        MemView {
            space: self.space,
            width: self.width,
            addresses: self.addresses.view(),
        }
    }
}

/// A [`MemInfo`] borrowed from wherever the instruction lives: a warp's
/// packed image ([`InstView::mem`]), or a decoder's lane buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemView<'a> {
    /// Memory space accessed.
    pub space: MemSpace,
    /// Access width per thread in bytes (1, 2, 4, 8, or 16).
    pub width: u8,
    /// Per-thread addresses.
    pub addresses: AddressView<'a>,
}

impl From<InstView<'_>> for TraceInstruction {
    fn from(inst: InstView<'_>) -> Self {
        TraceInstruction {
            pc: inst.pc,
            opcode: inst.opcode,
            dst: inst.dst,
            srcs: inst.srcs.iter().collect(),
            active_mask: inst.active_mask,
            mem: inst.mem.map(|mem| MemInfo {
                space: mem.space,
                width: mem.width,
                addresses: mem.addresses.into(),
            }),
        }
    }
}

/// Ergonomic builder for [`TraceInstruction`], used by the synthetic
/// workload generators and by tests.
///
/// # Examples
///
/// ```
/// use swiftsim_trace::{InstBuilder, Opcode};
///
/// let inst = InstBuilder::new(Opcode::Ffma)
///     .pc(0x120)
///     .dst(8)
///     .src(4)
///     .src(5)
///     .mask(0xffff_ffff)
///     .build();
/// assert_eq!(inst.active_lanes(), 32);
/// assert!(inst.is_well_formed());
/// ```
#[derive(Debug, Clone)]
pub struct InstBuilder {
    inst: TraceInstruction,
}

impl InstBuilder {
    /// Start building an instruction with full active mask and PC 0.
    pub fn new(opcode: Opcode) -> Self {
        InstBuilder {
            inst: TraceInstruction {
                pc: 0,
                opcode,
                dst: None,
                srcs: SrcList::new(),
                active_mask: u32::MAX,
                mem: None,
            },
        }
    }

    /// Set the program counter.
    pub fn pc(mut self, pc: u32) -> Self {
        self.inst.pc = pc;
        self
    }

    /// Set the destination register.
    pub fn dst(mut self, reg: u16) -> Self {
        self.inst.dst = Some(Reg(reg));
        self
    }

    /// Append a source register.
    pub fn src(mut self, reg: u16) -> Self {
        self.inst.srcs.push(Reg(reg));
        self
    }

    /// Set the active-thread mask.
    pub fn mask(mut self, mask: u32) -> Self {
        self.inst.active_mask = mask;
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
            .inst
            .opcode
            .mem_space()
            .expect("strided access attached to non-memory opcode");
        self.inst.mem = Some(MemInfo {
            space,
            width,
            addresses: AddressList::Strided { base, stride },
        });
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
            .inst
            .opcode
            .mem_space()
            .expect("explicit access attached to non-memory opcode");
        assert!(addrs.len() <= 32, "a warp has at most 32 lanes");
        self.inst.active_mask = if addrs.len() == 32 {
            u32::MAX
        } else {
            (1u32 << addrs.len()) - 1
        };
        self.inst.mem = Some(MemInfo {
            space,
            width,
            addresses: AddressList::Explicit(addrs),
        });
        self
    }

    /// Finish building.
    pub fn build(self) -> TraceInstruction {
        debug_assert!(self.inst.is_well_formed());
        self.inst
    }
}

impl From<InstBuilder> for TraceInstruction {
    fn from(builder: InstBuilder) -> Self {
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_expansion() {
        let list = AddressList::Strided {
            base: 0x100,
            stride: 4,
        };
        assert_eq!(list.expand(4), vec![0x100, 0x104, 0x108, 0x10c]);
        assert_eq!(list.len(4), 4);
        assert!(!list.is_empty(4));
        assert!(list.is_empty(0));
    }

    #[test]
    fn strided_expansion_wraps_instead_of_panicking() {
        let list = AddressList::Strided {
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
        assert_eq!(list.expand(3), addrs);
    }

    fn regs(n: u16) -> Vec<Reg> {
        (0..n).map(Reg).collect()
    }

    #[test]
    fn src_list_spills_past_the_inline_capacity() {
        for n in 0..=20u16 {
            let list: SrcList = regs(n).into_iter().collect();
            assert_eq!(list.as_slice(), regs(n), "{n} sources");
            assert_eq!(list.len(), usize::from(n));
            let inline = matches!(list.0, SrcRepr::Inline { .. });
            assert_eq!(inline, usize::from(n) <= INLINE_SRCS, "{n} sources");
        }
    }

    #[test]
    fn src_list_compares_and_hashes_by_content() {
        use std::hash::{Hash, Hasher};
        let hash = |inst: &TraceInstruction| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            inst.hash(&mut h);
            h.finish()
        };
        let inline = InstBuilder::new(Opcode::Ffma).dst(9).src(1).src(2).build();
        let mut spilled = inline.clone();
        spilled.srcs = SrcList::spilled_for_tests(&[Reg(1), Reg(2)]);
        assert_eq!(inline, spilled);
        assert_eq!(hash(&inline), hash(&spilled));
        assert_eq!(format!("{:?}", inline.srcs), format!("{:?}", spilled.srcs));

        let mut other = inline.clone();
        other.srcs = [Reg(1), Reg(3)].into_iter().collect();
        assert_ne!(inline, other);
    }

    #[test]
    fn builder_defaults() {
        let inst = InstBuilder::new(Opcode::Iadd).build();
        assert_eq!(inst.active_lanes(), 32);
        assert_eq!(inst.pc, 0);
        assert!(inst.dst.is_none());
        assert!(!inst.is_memory());
        assert!(inst.is_well_formed());
    }

    #[test]
    fn builder_memory() {
        let inst = InstBuilder::new(Opcode::Ldg)
            .dst(2)
            .src(1)
            .global_strided(0x1000, 4, 4)
            .build();
        assert!(inst.is_memory());
        let mem = inst.mem.as_ref().unwrap();
        assert_eq!(mem.space, MemSpace::Global);
        assert!(inst.is_well_formed());
    }

    #[test]
    fn explicit_addrs_sets_mask() {
        let inst = InstBuilder::new(Opcode::Ldg)
            .dst(2)
            .explicit_addrs(vec![1, 2, 3], 4)
            .build();
        assert_eq!(inst.active_lanes(), 3);
        assert!(inst.is_well_formed());

        let full = InstBuilder::new(Opcode::Ldg)
            .dst(2)
            .explicit_addrs((0..32).map(|i| i * 8).collect(), 8)
            .build();
        assert_eq!(full.active_lanes(), 32);
    }

    #[test]
    #[should_panic(expected = "non-memory opcode")]
    fn memory_payload_on_alu_panics() {
        let _ = InstBuilder::new(Opcode::Fadd).global_strided(0, 4, 4);
    }

    #[test]
    fn well_formedness_catches_mismatches() {
        let mut inst = InstBuilder::new(Opcode::Ldg)
            .dst(2)
            .global_strided(0x1000, 4, 4)
            .build();
        // Wrong space.
        inst.mem.as_mut().unwrap().space = MemSpace::Shared;
        assert!(!inst.is_well_formed());

        // Missing payload.
        let mut inst2 = InstBuilder::new(Opcode::Ldg)
            .dst(2)
            .build_unchecked_for_tests();
        inst2.mem = None;
        assert!(!inst2.is_well_formed());

        // Bad width.
        let mut inst3 = InstBuilder::new(Opcode::Ldg)
            .dst(2)
            .global_strided(0x1000, 4, 4)
            .build();
        inst3.mem.as_mut().unwrap().width = 3;
        assert!(!inst3.is_well_formed());

        // Explicit list length mismatch.
        let mut inst4 = InstBuilder::new(Opcode::Ldg)
            .dst(2)
            .explicit_addrs(vec![1, 2, 3], 4)
            .build();
        inst4.active_mask = u32::MAX;
        assert!(!inst4.is_well_formed());
    }

    impl InstBuilder {
        /// Test helper that skips the well-formedness debug assertion.
        fn build_unchecked_for_tests(self) -> TraceInstruction {
            self.inst
        }
    }
}
