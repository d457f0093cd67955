//! The packed in-memory image of one warp's instruction stream.
//!
//! A decoded kernel is the simulator's largest structure, and the issue
//! loop's first touch of each instruction is a compulsory cache miss. So a
//! warp keeps one fixed 16-byte record per instruction, holding everything
//! the issue decision reads, and puts what only some instructions have in
//! side tables of its own:
//!
//! - sources past the fifth, concatenated in one register table;
//! - memory payloads, one per memory instruction in instruction order,
//!   each a space, a width and either a strided base/stride or a range of
//!   the explicit-address arena;
//! - the explicit per-lane addresses, in that arena.
//!
//! No instruction owns a heap block: a warp holds at most five, however
//! many instructions it has. A side-table entry belongs to the n-th
//! instruction that has one, so it is found by counting, which an
//! [`InstCursor`] does as it walks the warp. DESIGN.md, "Decoded-trace
//! layout", gives the bytes per instruction on the benchmark traces.

use crate::inst::{
    heap_block, is_well_formed, AddressView, InstParts, MemInfo, MemView, Reg, TraceInstruction,
};
use crate::isa::{MemSpace, Opcode};
use std::fmt;

/// Sources a record holds itself; the rest go to the warp's spill table.
const INLINE_SRCS: usize = 5;

// Bits of a record's `flags` byte.
const HAS_DST: u8 = 0b0000_0001;
const HAS_MEM: u8 = 0b0000_0010;
/// The instruction has more than [`INLINE_SRCS`] sources.
const SPILLED: u8 = 0b0000_0100;
/// Bits 4-6: how many of `srcs` are sources.
const SRC_COUNT_SHIFT: u8 = 4;

/// One instruction, packed: what the issue loop reads, in 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    pc: u32,
    active_mask: u32,
    opcode: Opcode,
    flags: u8,
    /// The destination register; meaningful only under `HAS_DST`.
    dst: u8,
    /// The first sources, in operand order.
    srcs: [u8; INLINE_SRCS],
}

const _: () = assert!(std::mem::size_of::<Record>() == 16);

/// A memory instruction's payload. The addresses of an explicit access
/// are `len` entries of the warp's arena from `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    Strided {
        space: MemSpace,
        width: u8,
        base: u64,
        stride: u64,
    },
    Explicit {
        space: MemSpace,
        width: u8,
        start: u32,
        len: u32,
    },
}

const _: () = assert!(std::mem::size_of::<Payload>() <= 24);

/// A position in one warp's instruction stream: the instruction's index,
/// and how many memory payloads and spilled source lists the instructions
/// before it own. Only meaningful for the warp it walks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstCursor {
    inst: u32,
    mem: u32,
    spill: u32,
}

impl InstCursor {
    /// The index of the instruction the cursor is at.
    pub fn index(&self) -> usize {
        self.inst as usize
    }

    /// Move past `rec`, the record the cursor is at.
    #[inline]
    fn step(&mut self, rec: &Record) {
        self.inst += 1;
        self.mem += u32::from(rec.flags & HAS_MEM != 0);
        self.spill += u32::from(rec.flags & SPILLED != 0);
    }
}

/// The dynamic instruction stream of one warp, as a packed image (module
/// docs).
///
/// Iterating a warp yields borrowed [`InstView`]s; [`WarpTrace::push`]
/// packs owned [`TraceInstruction`]s. Equality is by content.
///
/// A record holds a register in one byte, so a pushed instruction naming
/// a register above R255 cannot be stored: the warp keeps the first such
/// register ([`WarpTrace::invalid_register`]), and simulating the kernel
/// fails with a typed error rather than aliasing it to a low register.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct WarpTrace {
    records: Vec<Record>,
    payloads: Vec<Payload>,
    addrs: Vec<u64>,
    /// End offset in `spill_regs` of each spilled source list.
    spill_ends: Vec<u32>,
    spill_regs: Vec<u8>,
    bad_reg: Option<Reg>,
}

impl WarpTrace {
    /// Create an empty warp trace.
    pub const fn new() -> Self {
        WarpTrace {
            records: Vec::new(),
            payloads: Vec::new(),
            addrs: Vec::new(),
            spill_ends: Vec::new(),
            spill_regs: Vec::new(),
            bad_reg: None,
        }
    }

    /// Create an empty warp trace with room for `insts` instructions, so a
    /// producer that knows the count fills one right-sized record array.
    pub fn with_capacity(insts: usize) -> Self {
        WarpTrace {
            records: Vec::with_capacity(insts),
            ..WarpTrace::new()
        }
    }

    /// Append an instruction (anything convertible, e.g. an
    /// [`InstBuilder`](crate::InstBuilder)), packing it.
    pub fn push(&mut self, inst: impl Into<TraceInstruction>) {
        let inst = inst.into();
        let parts = InstParts {
            pc: inst.pc,
            opcode: inst.opcode,
            dst: inst.dst,
            active_mask: inst.active_mask,
            mem: inst.mem.as_ref().map(MemInfo::view),
        };
        self.push_parts(&parts, &inst.srcs);
    }

    /// Pack one instruction: what the decoders call, with no owned record
    /// built on the way.
    #[inline]
    pub(crate) fn push_parts(&mut self, inst: &InstParts<'_>, srcs: &[Reg]) {
        let mut rec = Record {
            pc: inst.pc,
            active_mask: inst.active_mask,
            opcode: inst.opcode,
            flags: 0,
            dst: 0,
            srcs: [0; INLINE_SRCS],
        };
        // Every register number or-ed together: above 0xff iff one is.
        let mut all = 0u16;
        if let Some(dst) = inst.dst {
            rec.flags |= HAS_DST;
            rec.dst = dst.0 as u8;
            all |= dst.0;
        }
        let (inline, spilled) = srcs.split_at(srcs.len().min(INLINE_SRCS));
        for (slot, &reg) in rec.srcs.iter_mut().zip(inline) {
            *slot = reg.0 as u8;
            all |= reg.0;
        }
        rec.flags |= (inline.len() as u8) << SRC_COUNT_SHIFT;
        if !spilled.is_empty() {
            rec.flags |= SPILLED;
            for &reg in spilled {
                self.spill_regs.push(reg.0 as u8);
                all |= reg.0;
            }
            self.spill_ends.push(offset(self.spill_regs.len()));
        }
        if all > 0xff && self.bad_reg.is_none() {
            self.bad_reg = inst
                .dst
                .into_iter()
                .chain(srcs.iter().copied())
                .find(|r| r.0 > 0xff);
        }
        if let Some(MemView {
            space,
            width,
            addresses,
        }) = inst.mem
        {
            rec.flags |= HAS_MEM;
            let payload = match addresses {
                AddressView::Strided { base, stride } => Payload::Strided {
                    space,
                    width,
                    base,
                    stride,
                },
                AddressView::Explicit(addrs) => {
                    let start = offset(self.addrs.len());
                    self.addrs.extend_from_slice(addrs);
                    Payload::Explicit {
                        space,
                        width,
                        start,
                        len: offset(addrs.len()),
                    }
                }
            };
            self.payloads.push(payload);
        }
        self.records.push(rec);
    }

    /// The warp, right-sized, leaving this one empty with its capacity
    /// kept. A decoder packs every warp of a kernel into one scratch warp
    /// and takes each out when it ends, so each table of a decoded warp is
    /// one allocation of exactly its size, and a count a file states
    /// reserves nothing.
    pub(crate) fn take(&mut self) -> WarpTrace {
        let warp = WarpTrace {
            records: self.records.to_vec(),
            payloads: self.payloads.to_vec(),
            addrs: self.addrs.to_vec(),
            spill_ends: self.spill_ends.to_vec(),
            spill_regs: self.spill_regs.to_vec(),
            bad_reg: self.bad_reg.take(),
        };
        self.records.clear();
        self.payloads.clear();
        self.addrs.clear();
        self.spill_ends.clear();
        self.spill_regs.clear();
        warp
    }

    /// The first register above R255 a pushed instruction named, if any:
    /// such a warp cannot be simulated.
    pub fn invalid_register(&self) -> Option<Reg> {
        self.bad_reg
    }

    /// Bytes this warp holds on the heap: the record array and each side
    /// table at its capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        heap_block::<Record>(self.records.capacity())
            + heap_block::<Payload>(self.payloads.capacity())
            + heap_block::<u64>(self.addrs.capacity())
            + heap_block::<u32>(self.spill_ends.capacity())
            + heap_block::<u8>(self.spill_regs.capacity())
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the warp executes no instructions.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over instructions.
    pub fn iter(&self) -> WarpIter<'_> {
        WarpIter {
            warp: self,
            records: self.records.iter(),
            cursor: InstCursor::default(),
        }
    }

    /// The instruction at `cursor`, or `None` past the last one.
    #[inline]
    pub fn at(&self, cursor: InstCursor) -> Option<InstView<'_>> {
        let rec = self.records.get(cursor.inst as usize)?;
        Some(self.view(rec, cursor))
    }

    /// `rec`, the record at `cursor`, with its side-table entries.
    #[inline]
    fn view<'a>(&'a self, rec: &'a Record, cursor: InstCursor) -> InstView<'a> {
        let srcs = SrcRegs {
            inline: &rec.srcs[..usize::from(rec.flags >> SRC_COUNT_SHIFT)],
            spilled: if rec.flags & SPILLED == 0 {
                &[]
            } else {
                let k = cursor.spill as usize;
                let start = k.checked_sub(1).map_or(0, |prev| self.spill_ends[prev]);
                &self.spill_regs[start as usize..self.spill_ends[k] as usize]
            },
        };
        let mem = (rec.flags & HAS_MEM != 0).then(|| self.mem_view(cursor.mem as usize));
        InstView {
            pc: rec.pc,
            opcode: rec.opcode,
            dst: (rec.flags & HAS_DST != 0).then_some(Reg(u16::from(rec.dst))),
            srcs,
            active_mask: rec.active_mask,
            mem,
        }
    }

    /// The memory payload of the warp's `index`-th memory instruction.
    fn mem_view(&self, index: usize) -> MemView<'_> {
        match self.payloads[index] {
            Payload::Strided {
                space,
                width,
                base,
                stride,
            } => MemView {
                space,
                width,
                addresses: AddressView::Strided { base, stride },
            },
            Payload::Explicit {
                space,
                width,
                start,
                len,
            } => MemView {
                space,
                width,
                addresses: AddressView::Explicit(
                    &self.addrs[start as usize..start as usize + len as usize],
                ),
            },
        }
    }

    /// Move `cursor` past the instruction it is at; past the last one it
    /// stays where it is.
    #[inline]
    pub fn advance(&self, cursor: &mut InstCursor) {
        if let Some(rec) = self.records.get(cursor.inst as usize) {
            cursor.step(rec);
        }
    }
}

/// A side-table offset. A warp has at most 2^28 instructions in either
/// trace format, so only a hand-built warp could overflow one.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a warp's side table holds fewer than 2^32 entries")
}

impl fmt::Debug for WarpTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<TraceInstruction> for WarpTrace {
    fn from_iter<I: IntoIterator<Item = TraceInstruction>>(iter: I) -> Self {
        let mut warp = WarpTrace::new();
        warp.extend(iter);
        warp
    }
}

impl Extend<TraceInstruction> for WarpTrace {
    fn extend<I: IntoIterator<Item = TraceInstruction>>(&mut self, iter: I) {
        for inst in iter {
            self.push(inst);
        }
    }
}

impl<'a> IntoIterator for &'a WarpTrace {
    type Item = InstView<'a>;
    type IntoIter = WarpIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The instructions of a [`WarpTrace`], in order.
#[derive(Debug, Clone)]
pub struct WarpIter<'a> {
    warp: &'a WarpTrace,
    /// The records from the cursor's on.
    records: std::slice::Iter<'a, Record>,
    cursor: InstCursor,
}

impl<'a> Iterator for WarpIter<'a> {
    type Item = InstView<'a>;

    #[inline]
    fn next(&mut self) -> Option<InstView<'a>> {
        let rec = self.records.next()?;
        let inst = self.warp.view(rec, self.cursor);
        self.cursor.step(rec);
        Some(inst)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for WarpIter<'_> {}

/// One instruction of a [`WarpTrace`], borrowed from its packed image.
/// The fields are those of [`TraceInstruction`]; `TraceInstruction::from`
/// makes an owned copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstView<'a> {
    /// Program counter (byte offset of the instruction in the kernel).
    pub pc: u32,
    /// Opcode.
    pub opcode: Opcode,
    /// Destination register, if the instruction writes one.
    pub dst: Option<Reg>,
    /// Source registers (data dependences).
    pub srcs: SrcRegs<'a>,
    /// 32-bit lane mask of threads executing this instruction.
    pub active_mask: u32,
    /// Memory payload for load/store opcodes.
    pub mem: Option<MemView<'a>>,
}

impl InstView<'_> {
    /// Number of active lanes.
    pub fn active_lanes(&self) -> u32 {
        self.active_mask.count_ones()
    }

    /// As [`TraceInstruction::is_well_formed`].
    pub fn is_well_formed(&self) -> bool {
        is_well_formed(self.opcode, self.active_mask, self.mem)
    }
}

/// The source registers of an [`InstView`], in operand order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SrcRegs<'a> {
    inline: &'a [u8],
    spilled: &'a [u8],
}

impl<'a> SrcRegs<'a> {
    /// Number of sources.
    pub fn len(&self) -> usize {
        self.inline.len() + self.spilled.len()
    }

    /// Whether the instruction reads no register.
    pub fn is_empty(&self) -> bool {
        self.inline.is_empty()
    }

    /// The register numbers, in operand order, as the two slices the
    /// record and the spill table hold.
    pub(crate) fn as_bytes(&self) -> [&'a [u8]; 2] {
        [self.inline, self.spilled]
    }

    /// The registers, in operand order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + 'a {
        self.inline
            .iter()
            .chain(self.spilled)
            .map(|&r| Reg(u16::from(r)))
    }
}

impl fmt::Debug for SrcRegs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstBuilder;

    #[test]
    fn cursors_find_side_table_entries_by_counting() {
        let insts = [
            InstBuilder::new(Opcode::Ldg)
                .dst(1)
                .src(2)
                .global_strided(0x100, 4, 4),
            (0..9u16).fold(InstBuilder::new(Opcode::Hmma).dst(3), |b, r| b.src(r)),
            InstBuilder::new(Opcode::Sts)
                .src(3)
                .explicit_addrs(vec![8, 16, 24], 4),
            InstBuilder::new(Opcode::Iadd).dst(4).src(4),
            (0..6u16).fold(InstBuilder::new(Opcode::Ffma), |b, r| b.src(250 + r)),
            InstBuilder::new(Opcode::Exit),
        ]
        .map(InstBuilder::build);
        let warp: WarpTrace = insts.iter().cloned().collect();
        let back: Vec<TraceInstruction> = warp.iter().map(TraceInstruction::from).collect();
        assert_eq!(back, insts);
        assert_eq!(warp.iter().len(), insts.len());
        assert_eq!(warp.invalid_register(), None);

        let mut cursor = InstCursor::default();
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(cursor.index(), i);
            assert_eq!(TraceInstruction::from(warp.at(cursor).unwrap()), *inst);
            warp.advance(&mut cursor);
        }
        assert!(warp.at(cursor).is_none());
        warp.advance(&mut cursor);
        assert_eq!(cursor.index(), insts.len());
    }

    #[test]
    fn a_register_above_r255_marks_the_warp() {
        let mut warp = WarpTrace::new();
        warp.push(InstBuilder::new(Opcode::Iadd).dst(255).src(7));
        assert_eq!(warp.invalid_register(), None);
        warp.push(InstBuilder::new(Opcode::Iadd).dst(1).src(300));
        warp.push(InstBuilder::new(Opcode::Iadd).dst(256));
        assert_eq!(warp.invalid_register(), Some(Reg(300)));
        // Not equal to the warp its registers alias.
        let mut aliased = WarpTrace::new();
        aliased.push(InstBuilder::new(Opcode::Iadd).dst(255).src(7));
        aliased.push(InstBuilder::new(Opcode::Iadd).dst(1).src(44));
        aliased.push(InstBuilder::new(Opcode::Iadd).dst(0));
        assert_ne!(warp, aliased);
    }
}
