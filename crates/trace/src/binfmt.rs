//! Compact chunked binary trace format (`.sstraceb`, version 2).
//!
//! Text traces are convenient to inspect but large: real NVBit captures run
//! to gigabytes. This module provides a varint-packed binary encoding that
//! is typically 3–6x smaller than the text format and parses without any
//! string processing. Version 2 is *chunked*: a per-kernel section table
//! sits between the header and the kernel payloads, so a single kernel can
//! be located and decoded without touching the rest of the file — the
//! foundation of the streaming [`crate::ChunkedTraceSource`].
//!
//! ```text
//! "SSTB" u8-version(2)
//! app-name
//! kernel-count
//! section table, one entry per kernel:
//!     name grid(3) block(3) shmem regs num-insts payload-len payload-hash(8B LE)
//! payloads, concatenated in kernel order:
//!     block-count { warp-count { inst-count { instruction } } }
//! ```
//!
//! All integers are LEB128 varints; strings are length-prefixed UTF-8;
//! `payload-hash` is the FNV-1a of the payload bytes, fixed 8-byte
//! little-endian. An instruction is
//!
//! ```text
//! pc opcode flags [dst] [src-count] srcs... mask [width addrs]
//! ```
//!
//! where the `flags` byte holds, from bit 0: the destination's presence,
//! the memory payload's presence, an explicit (rather than strided)
//! address list, the long-source-list flag, and in bits 4-7 the source
//! count. Up to 15 sources are counted in those four bits and `src-count`
//! is absent; a longer list sets the long-source-list flag, leaves the four
//! bits 0, and writes its count as the `src-count` varint. Registers are
//! varints below 256 (R0 to R255); a higher one is an invalid value. The
//! memory space is the opcode's, so it is not stored.
//!
//! Because every section entry commits to its payload (length + content
//! hash), the [`ApplicationTrace::content_hash`] of a trace is defined as
//! the FNV-1a of the header + section table alone: an indexed file yields
//! it without decoding any payload, and an in-memory trace yields the same
//! value by encoding payloads one kernel at a time and discarding them.

use crate::error::TraceError;
use crate::inst::{
    is_well_formed, AddressView, InstParts, MemInstRef, MemView, Reg, NUM_REGS, WARP_LANES,
};
use crate::isa::Opcode;
use crate::kernel::{ApplicationTrace, BlockTrace, Dim3, KernelTrace};
use crate::source::KernelMeta;
use crate::warp::{InstView, WarpTrace};
use swiftsim_config::fnv1a64;

pub(crate) const MAGIC: &[u8; 4] = b"SSTB";
const VERSION: u8 = 2;

// Flag bits of the per-instruction header byte.
const FLAG_HAS_DST: u8 = 0b0000_0001;
const FLAG_HAS_MEM: u8 = 0b0000_0010;
const FLAG_EXPLICIT_ADDRS: u8 = 0b0000_0100;
const FLAG_MANY_SRCS: u8 = 0b0000_1000;
const SRC_COUNT_SHIFT: u8 = 4;
/// The most sources the 4-bit count field of the flags byte states.
const MAX_FLAG_SRCS: usize = 15;

// Largest counts a payload may state, whatever its length.
const MAX_BLOCKS: usize = 1 << 24;
const MAX_WARPS: usize = 1 << 16;
const MAX_INSTS: usize = 1 << 28;

/// The shortest encoded block or warp: its one-byte item count.
const MIN_ENCODED_LIST_BYTES: usize = 1;

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn push_string(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// A count read from the data, cut down to how many items of at least
    /// `min_item_bytes` each the unread bytes can still hold — what is safe
    /// to reserve before decoding the items.
    fn bounded_count(&self, claimed: usize, min_item_bytes: usize) -> usize {
        claimed.min(self.remaining() / min_item_bytes)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[cold]
    pub(crate) fn err(&self, what: &str) -> TraceError {
        TraceError::invalid_value("binary trace", format!("{what} at byte {}", self.pos))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| self.err("overflow"))?;
        if end > self.bytes.len() {
            return Err(self.err("unexpected end of data"));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    // `byte` and `varint` are the inner loop of every decode and skim:
    // they read straight off the slice, and build an error only once the
    // bytes run out or a value exceeds ten bytes.
    #[inline]
    fn byte(&mut self) -> Result<u8, TraceError> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err(self.err("unexpected end of data"));
        };
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        let mut shift = 0;
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(self.err("varint too long"));
            }
        }
        Err(self.err("unexpected end of data"))
    }

    fn varint_u32(&mut self, what: &str) -> Result<u32, TraceError> {
        u32::try_from(self.varint()?).map_err(|_| self.err(what))
    }

    /// A register, R0 to R255.
    fn reg(&mut self, what: &str) -> Result<Reg, TraceError> {
        u16::try_from(self.varint()?)
            .ok()
            .filter(|&r| r < NUM_REGS)
            .map(Reg)
            .ok_or_else(|| self.err(what))
    }

    /// A count read from the data, refused above `limit`.
    fn count(&mut self, limit: usize, what: &str) -> Result<usize, TraceError> {
        let n = self.varint()?;
        if n > limit as u64 {
            return Err(self.err(what));
        }
        Ok(n as usize)
    }

    fn string(&mut self) -> Result<String, TraceError> {
        let len = self.varint()? as usize;
        if len > 1 << 20 {
            return Err(self.err("string too long"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("invalid UTF-8"))
    }
}

fn encode_inst(out: &mut Vec<u8>, inst: InstView<'_>) {
    push_varint(out, u64::from(inst.pc));
    out.push(inst.opcode.index());

    let mut flags = 0u8;
    if inst.dst.is_some() {
        flags |= FLAG_HAS_DST;
    }
    let explicit = matches!(
        inst.mem.map(|m| m.addresses),
        Some(AddressView::Explicit(_))
    );
    if inst.mem.is_some() {
        flags |= FLAG_HAS_MEM;
    }
    if explicit {
        flags |= FLAG_EXPLICIT_ADDRS;
    }
    let many_srcs = inst.srcs.len() > MAX_FLAG_SRCS;
    if many_srcs {
        flags |= FLAG_MANY_SRCS;
    } else {
        flags |= (inst.srcs.len() as u8) << SRC_COUNT_SHIFT;
    }
    out.push(flags);

    if let Some(dst) = inst.dst {
        push_varint(out, u64::from(dst.0));
    }
    if many_srcs {
        push_varint(out, inst.srcs.len() as u64);
    }
    for regs in inst.srcs.as_bytes() {
        for &reg in regs {
            push_varint(out, u64::from(reg));
        }
    }
    push_varint(out, u64::from(inst.active_mask));

    if let Some(mem) = inst.mem {
        out.push(mem.width);
        match mem.addresses {
            AddressView::Strided { base, stride } => {
                push_varint(out, base);
                push_varint(out, stride);
            }
            AddressView::Explicit(addrs) => {
                push_varint(out, addrs.len() as u64);
                // Delta-encode: consecutive-lane addresses are near each
                // other in practice, keeping varints short.
                let mut prev = 0u64;
                for &a in addrs {
                    push_varint(out, a.wrapping_sub(prev));
                    prev = a;
                }
            }
        }
    }
}

/// Read one instruction, checked exactly as the decoder checks it, handing
/// each source register to `src`. The addresses of an explicit access
/// borrow the caller's lane buffer.
fn read_inst<'l>(
    r: &mut Reader<'_>,
    lanes: &'l mut [u64; WARP_LANES],
    mut src: impl FnMut(Reg),
) -> Result<InstParts<'l>, TraceError> {
    let pc = r.varint_u32("pc out of range")?;
    let op_index = r.byte()? as usize;
    let opcode = *Opcode::ALL
        .get(op_index)
        .ok_or_else(|| r.err("opcode index out of range"))?;
    let flags = r.byte()?;
    let dst = if flags & FLAG_HAS_DST != 0 {
        Some(r.reg("dst register")?)
    } else {
        None
    };
    let num_srcs = if flags & FLAG_MANY_SRCS == 0 {
        u64::from(flags >> SRC_COUNT_SHIFT)
    } else {
        // A list the 4-bit field can state has only that encoding, and
        // every source takes at least one of the unread bytes.
        let n = r.varint()?;
        if flags >> SRC_COUNT_SHIFT != 0 || n <= MAX_FLAG_SRCS as u64 || n > r.remaining() as u64 {
            return Err(r.err("source count"));
        }
        n
    };
    for _ in 0..num_srcs {
        src(r.reg("src register")?);
    }
    let active_mask = r.varint_u32("active mask")?;

    let mem = if flags & FLAG_HAS_MEM != 0 {
        let space = opcode
            .mem_space()
            .ok_or_else(|| r.err("memory payload on non-memory opcode"))?;
        let width = r.byte()?;
        let addresses = if flags & FLAG_EXPLICIT_ADDRS != 0 {
            let n = r.varint()?;
            if n > WARP_LANES as u64 {
                return Err(r.err("more than 32 lane addresses"));
            }
            let lanes = &mut lanes[..n as usize];
            let mut prev = 0u64;
            for lane in lanes.iter_mut() {
                prev = prev.wrapping_add(r.varint()?);
                *lane = prev;
            }
            AddressView::Explicit(lanes)
        } else {
            let base = r.varint()?;
            let stride = r.varint()?;
            AddressView::Strided { base, stride }
        };
        Some(MemView {
            space,
            width,
            addresses,
        })
    } else {
        None
    };

    if !is_well_formed(opcode, active_mask, mem) {
        return Err(r.err("inconsistent instruction"));
    }
    Ok(InstParts {
        pc,
        opcode,
        dst,
        active_mask,
        mem,
    })
}

/// One entry of the version-2 section table: a kernel's launch metadata
/// plus the length and content hash of its (not yet decoded) payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Section {
    pub(crate) meta: KernelMeta,
    pub(crate) payload_len: u64,
    pub(crate) payload_hash: u64,
}

/// Encode a kernel's body (blocks/warps/instructions) as a standalone
/// payload.
pub(crate) fn encode_kernel_payload(kernel: &KernelTrace) -> Vec<u8> {
    let mut out = Vec::new();
    push_varint(&mut out, kernel.blocks().len() as u64);
    for block in kernel.blocks() {
        push_varint(&mut out, block.num_warps() as u64);
        for warp in block.warps() {
            push_varint(&mut out, warp.len() as u64);
            for inst in warp {
                encode_inst(&mut out, inst);
            }
        }
    }
    out
}

/// Decode one kernel payload against its section metadata.
pub(crate) fn decode_kernel_payload(
    bytes: &[u8],
    meta: &KernelMeta,
) -> Result<KernelTrace, TraceError> {
    let mut r = Reader::new(bytes);
    let mut kernel = KernelTrace::new(meta.name.clone(), meta.grid_dim, meta.block_dim);
    kernel.shared_mem_bytes = meta.shared_mem_bytes;
    kernel.regs_per_thread = meta.regs_per_thread;
    // Blocks and warps are reserved once, at the count the payload states
    // cut down to what its unread bytes can hold: no regrowth copies or
    // capacity slack on a sound payload, and a hostile count cannot force
    // an allocation larger than a small multiple of the payload itself.
    // Instructions are packed into one scratch warp and each warp taken
    // out right-sized, so an instruction count reserves nothing.
    let mut lanes = [0u64; WARP_LANES];
    let mut srcs = Vec::new();
    let mut scratch = WarpTrace::new();
    let num_blocks = r.count(MAX_BLOCKS, "block count")?;
    kernel.reserve_blocks(r.bounded_count(num_blocks, MIN_ENCODED_LIST_BYTES));
    for _ in 0..num_blocks {
        let num_warps = r.count(MAX_WARPS, "warp count")?;
        let mut block =
            BlockTrace::with_capacity(r.bounded_count(num_warps, MIN_ENCODED_LIST_BYTES));
        for _ in 0..num_warps {
            let num_insts = r.count(MAX_INSTS, "instruction count")?;
            for _ in 0..num_insts {
                srcs.clear();
                let inst = read_inst(&mut r, &mut lanes, |reg| srcs.push(reg))?;
                scratch.push_parts(&inst, &srcs);
            }
            block.push_warp_trace(scratch.take());
        }
        kernel.push_block_trace(block);
    }
    check_payload_end(&r, meta, kernel.num_insts())?;
    Ok(kernel)
}

/// Walk one kernel payload with every check [`decode_kernel_payload`]
/// makes, in the same order and with the same errors, handing `f` each
/// global or local memory instruction. Packs no instruction and builds no
/// container: the only buffer is a lane array on the stack.
pub(crate) fn skim_kernel_payload(
    bytes: &[u8],
    meta: &KernelMeta,
    f: &mut dyn FnMut(&MemInstRef<'_>),
) -> Result<(), TraceError> {
    let mut r = Reader::new(bytes);
    let mut lanes = [0u64; WARP_LANES];
    let mut insts = 0u64;
    for block in 0..r.count(MAX_BLOCKS, "block count")? {
        for _ in 0..r.count(MAX_WARPS, "warp count")? {
            let num_insts = r.count(MAX_INSTS, "instruction count")?;
            for _ in 0..num_insts {
                let inst = read_inst(&mut r, &mut lanes, |_| ())?;
                let Some(mem) = inst.mem else {
                    continue;
                };
                if let Some(mem) = MemInstRef::in_hierarchy(
                    block,
                    inst.pc,
                    inst.opcode,
                    mem.space,
                    inst.active_mask,
                    mem.width,
                    mem.addresses,
                ) {
                    f(&mem);
                }
            }
            insts += num_insts as u64;
        }
    }
    check_payload_end(&r, meta, insts)
}

/// The checks after a payload's last instruction: no bytes left over, and
/// as many instructions as the section table promised.
fn check_payload_end(r: &Reader<'_>, meta: &KernelMeta, insts: u64) -> Result<(), TraceError> {
    if r.remaining() != 0 {
        return Err(r.err("trailing payload bytes"));
    }
    if insts != meta.num_insts {
        return Err(TraceError::invalid_value(
            "binary trace",
            format!(
                "kernel {:?} payload has {insts} instructions, section table says {}",
                meta.name, meta.num_insts
            ),
        ));
    }
    Ok(())
}

fn encode_section_entry(out: &mut Vec<u8>, s: &Section) {
    push_string(out, &s.meta.name);
    for d in [s.meta.grid_dim.x, s.meta.grid_dim.y, s.meta.grid_dim.z] {
        push_varint(out, u64::from(d));
    }
    for d in [s.meta.block_dim.x, s.meta.block_dim.y, s.meta.block_dim.z] {
        push_varint(out, u64::from(d));
    }
    push_varint(out, u64::from(s.meta.shared_mem_bytes));
    push_varint(out, u64::from(s.meta.regs_per_thread));
    push_varint(out, s.meta.num_insts);
    push_varint(out, s.payload_len);
    out.extend_from_slice(&s.payload_hash.to_le_bytes());
}

fn decode_section_entry(r: &mut Reader<'_>) -> Result<Section, TraceError> {
    let name = r.string()?;
    let g = [
        r.varint_u32("grid dim")?,
        r.varint_u32("grid dim")?,
        r.varint_u32("grid dim")?,
    ];
    let b = [
        r.varint_u32("block dim")?,
        r.varint_u32("block dim")?,
        r.varint_u32("block dim")?,
    ];
    let shared_mem_bytes = r.varint_u32("shared memory")?;
    let regs_per_thread = r.varint_u32("registers")?;
    let num_insts = r.varint()?;
    let payload_len = r.varint()?;
    let hash_bytes: [u8; 8] = r.take(8)?.try_into().expect("take(8) returns 8 bytes");
    Ok(Section {
        meta: KernelMeta {
            name,
            grid_dim: Dim3::new(g[0], g[1], g[2]),
            block_dim: Dim3::new(b[0], b[1], b[2]),
            shared_mem_bytes,
            regs_per_thread,
            num_insts,
        },
        payload_len,
        payload_hash: u64::from_le_bytes(hash_bytes),
    })
}

/// Serialize the `"SSTB"` header + section table for the given sections.
pub(crate) fn encode_header(name: &str, sections: &[Section]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    push_string(&mut out, name);
    push_varint(&mut out, sections.len() as u64);
    for s in sections {
        encode_section_entry(&mut out, s);
    }
    out
}

/// Parse the header + section table from the front of `bytes`, returning
/// the app name, the sections, and the number of header bytes consumed.
pub(crate) fn decode_header(bytes: &[u8]) -> Result<(String, Vec<Section>, usize), TraceError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(TraceError::invalid_value("binary trace", "bad magic"));
    }
    let version = r.byte()?;
    if version != VERSION {
        return Err(TraceError::invalid_value(
            "binary trace version",
            version.to_string(),
        ));
    }
    let name = r.string()?;
    let num_kernels = r.varint()? as usize;
    if num_kernels > 1 << 20 {
        return Err(r.err("kernel count"));
    }
    let mut sections = Vec::with_capacity(num_kernels);
    for _ in 0..num_kernels {
        sections.push(decode_section_entry(&mut r)?);
    }
    Ok((name, sections, r.pos()))
}

fn section_of(kernel: &KernelTrace) -> (Section, Vec<u8>) {
    let payload = encode_kernel_payload(kernel);
    let section = Section {
        meta: KernelMeta::of(kernel),
        payload_len: payload.len() as u64,
        payload_hash: fnv1a64(&payload),
    };
    (section, payload)
}

/// Streaming writer for the chunked binary format: feed kernels one at a
/// time, then [`finish`](ChunkedTraceWriter::finish). Only the *encoded*
/// payload bytes are buffered (compact varints, typically far smaller than
/// the decoded `KernelTrace`), so a generator can emit a
/// multi-gigabyte-when-decoded application without ever materializing it.
#[derive(Debug, Default)]
pub struct ChunkedTraceWriter {
    name: String,
    sections: Vec<Section>,
    payloads: Vec<Vec<u8>>,
}

impl ChunkedTraceWriter {
    /// Start a trace for the application `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ChunkedTraceWriter {
            name: name.into(),
            sections: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// Append one kernel. The kernel is encoded immediately and can be
    /// dropped by the caller afterwards.
    pub fn add_kernel(&mut self, kernel: &KernelTrace) {
        let (section, payload) = section_of(kernel);
        self.sections.push(section);
        self.payloads.push(payload);
    }

    /// Kernels added so far.
    pub fn num_kernels(&self) -> usize {
        self.sections.len()
    }

    /// Finish into the complete on-disk byte image.
    pub fn finish(self) -> Vec<u8> {
        let mut out = encode_header(&self.name, &self.sections);
        for payload in &self.payloads {
            out.extend_from_slice(payload);
        }
        out
    }
}

impl ApplicationTrace {
    /// Serialize to the chunked binary format (version 2).
    pub fn to_binary(&self) -> Vec<u8> {
        let mut w = ChunkedTraceWriter::new(&self.name);
        for kernel in self.kernels() {
            w.add_kernel(kernel);
        }
        w.finish()
    }

    /// Stable identity of the trace's full content: FNV-1a over the binary
    /// header + section table (which is versioned, so a format change also
    /// changes every hash; and every section entry commits to its payload's
    /// length and FNV-1a, so any instruction change changes the hash).
    ///
    /// Two traces hash equal exactly when every kernel, block, warp, and
    /// instruction — including addresses and active masks — is identical.
    /// The campaign engine uses this as the trace component of its
    /// content-addressed cache keys; `DefaultHasher` would not survive a
    /// toolchain upgrade. A [`crate::ChunkedTraceSource`] yields the *same*
    /// value from an indexed file without decoding any kernel (see
    /// [`crate::TraceSource::content_hash`]).
    pub fn content_hash(&self) -> u64 {
        // Encode payloads one kernel at a time, keeping only their section
        // entries: peak extra memory is one encoded kernel.
        let sections: Vec<Section> = self
            .kernels()
            .iter()
            .map(|k| {
                let (section, _payload) = section_of(k);
                section
            })
            .collect();
        fnv1a64(&encode_header(&self.name, &sections))
    }

    /// Parse the chunked binary format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidValue`] on a bad magic/version, a
    /// truncated stream, a section-hash mismatch, or any field outside its
    /// domain.
    pub fn from_binary(bytes: &[u8]) -> Result<ApplicationTrace, TraceError> {
        let (name, sections, header_len) = decode_header(bytes)?;
        let mut kernels = Vec::with_capacity(sections.len());
        let mut offset = header_len;
        for section in &sections {
            let len = usize::try_from(section.payload_len).map_err(|_| {
                TraceError::invalid_value("binary trace", "payload length overflow")
            })?;
            let end = offset
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| {
                    TraceError::invalid_value("binary trace", "truncated kernel payload")
                })?;
            let payload = &bytes[offset..end];
            if fnv1a64(payload) != section.payload_hash {
                return Err(TraceError::invalid_value(
                    "binary trace",
                    format!("section hash mismatch for kernel {:?}", section.meta.name),
                ));
            }
            kernels.push(decode_kernel_payload(payload, &section.meta)?);
            offset = end;
        }
        if offset != bytes.len() {
            return Err(TraceError::invalid_value("binary trace", "trailing bytes"));
        }
        Ok(ApplicationTrace::new(name, kernels))
    }

    /// Write the binary format to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] carrying `path` on any I/O failure.
    pub fn write_binary_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), TraceError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_binary()).map_err(|e| TraceError::io(path, &e))
    }

    /// Read the binary format from `path`, eagerly decoding every kernel.
    /// For streaming per-kernel decode, use [`crate::ChunkedTraceSource`]
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] carrying `path` when the file cannot be
    /// read, or the parse error otherwise.
    pub fn read_binary_file(
        path: impl AsRef<std::path::Path>,
    ) -> Result<ApplicationTrace, TraceError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| TraceError::io(path, &e))?;
        ApplicationTrace::from_binary(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AddressList, InstBuilder, SrcList, TraceInstruction};

    fn sample_app() -> ApplicationTrace {
        let mut kernel = KernelTrace::new("k0", (2, 1, 1), (64, 1, 1));
        kernel.shared_mem_bytes = 2048;
        kernel.regs_per_thread = 40;
        for b in 0u64..2 {
            let block = kernel.push_block();
            for w in 0u64..2 {
                let warp = block.push_warp();
                warp.push(
                    InstBuilder::new(Opcode::Ldg)
                        .pc(0)
                        .dst(4)
                        .src(1)
                        .global_strided(0x10_0000 + b * 0x1000 + w * 0x100, 4, 4),
                );
                warp.push(InstBuilder::new(Opcode::Ffma).pc(16).dst(5).src(4).src(4));
                warp.push(
                    InstBuilder::new(Opcode::Stg)
                        .pc(32)
                        .src(5)
                        .explicit_addrs(vec![0x40, 0x99, 0x80, 0x20_0000], 4),
                );
                warp.push(InstBuilder::new(Opcode::Bar).pc(48));
                warp.push(InstBuilder::new(Opcode::Exit).pc(64).mask(0x00ff_00ff));
            }
        }
        ApplicationTrace::new("binary_sample", vec![kernel])
    }

    #[test]
    fn round_trip() {
        let app = sample_app();
        let bytes = app.to_binary();
        let back = ApplicationTrace::from_binary(&bytes).expect("round trip");
        assert_eq!(back, app);
    }

    fn app_of(inst: TraceInstruction) -> ApplicationTrace {
        let mut kernel = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
        kernel.push_block().push_warp().push(inst);
        ApplicationTrace::new("one", vec![kernel])
    }

    /// The encoding of an instruction with `n` sources and a destination.
    fn wide_inst_bytes(n: u16) -> Vec<u8> {
        let wide = (0..n).fold(InstBuilder::new(Opcode::Hmma).dst(40), |b, r| b.src(r));
        let warp: WarpTrace = std::iter::once(wide.build()).collect();
        let mut out = Vec::new();
        encode_inst(&mut out, warp.iter().next().unwrap());
        out
    }

    #[test]
    fn fifteen_sources_round_trip() {
        // The most the 4-bit source count of the flags byte can state, and
        // more than a record holds inline.
        let wide = (0..15).fold(InstBuilder::new(Opcode::Hmma).dst(40), |b, r| b.src(r));
        let app = app_of(wide.build());
        let back = ApplicationTrace::from_binary(&app.to_binary()).expect("round trip");
        assert_eq!(back, app);
        let inst = back.kernels()[0].blocks()[0].warps()[0]
            .iter()
            .next()
            .unwrap();
        assert_eq!(inst.srcs.len(), 15);
        assert_eq!(inst.srcs.iter().nth(14), Some(Reg(14)));
        // pc, opcode, then flags: the count in the high nibble, no varint.
        assert_eq!(wide_inst_bytes(15)[2], 15 << SRC_COUNT_SHIFT | FLAG_HAS_DST);
    }

    #[test]
    fn longer_source_lists_carry_a_count_varint() {
        for n in [16u16, 20, 64, 200] {
            let bytes = wide_inst_bytes(n);
            // Flags: the long-list flag and an empty nibble; after the
            // destination, the count.
            assert_eq!(bytes[2], FLAG_MANY_SRCS | FLAG_HAS_DST, "{n} sources");
            let mut r = Reader::new(&bytes[3..]);
            assert_eq!(r.varint().unwrap(), 40);
            assert_eq!(r.varint().unwrap(), u64::from(n));

            let wide = (0..n).fold(InstBuilder::new(Opcode::Hmma).dst(40), |b, r| b.src(r));
            let app = app_of(wide.build());
            let back = ApplicationTrace::from_binary(&app.to_binary()).expect("round trip");
            assert_eq!(back, app, "{n} sources");
        }
    }

    #[test]
    fn non_canonical_or_oversized_source_counts_are_rejected() {
        let decode = |bytes: &[u8]| {
            read_inst(&mut Reader::new(bytes), &mut [0; WARP_LANES], |_| ()).map(drop)
        };
        let good = wide_inst_bytes(16);
        assert!(decode(&good).is_ok());
        // A count the nibble could have stated.
        let mut short = good.clone();
        short[4] = 15;
        assert!(decode(&short).is_err());
        // The long-list flag beside a non-empty nibble.
        let mut both = good.clone();
        both[2] |= 1 << SRC_COUNT_SHIFT;
        assert!(decode(&both).is_err());
        // More sources than bytes left to hold them.
        let mut huge = good[..4].to_vec();
        push_varint(&mut huge, 1 << 40);
        huge.extend_from_slice(&good[5..]);
        let err = decode(&huge).unwrap_err();
        assert!(err.to_string().contains("source count"), "{err}");
    }

    /// A memory-instruction record with its addresses owned.
    type Owned = (usize, u32, bool, u8, u32, AddressList);

    fn owned(m: &MemInstRef<'_>) -> Owned {
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

    /// The records [`skim_kernel_payload`] hands out, owned.
    fn skim_records(payload: &[u8], meta: &KernelMeta) -> Result<Vec<Owned>, TraceError> {
        let mut out = Vec::new();
        skim_kernel_payload(payload, meta, &mut |m| out.push(owned(m)))?;
        Ok(out)
    }

    #[test]
    fn skim_matches_decode_on_every_damaged_payload() {
        // Damage below the section hash, which would otherwise catch it:
        // the skim must make the decoder's every check, so it agrees with
        // the decoder on the records and on the error, byte for byte.
        let mut app = sample_app();
        let wide = (0..20).fold(InstBuilder::new(Opcode::Ldg).dst(40), |b, r| b.src(r));
        let mut k1 = KernelTrace::new("k1", (1, 1, 1), (32, 1, 1));
        k1.push_block()
            .push_warp()
            .push(wide.global_strided(0x80, 4, 8));
        app = ApplicationTrace::new(app.name.clone(), vec![app.kernels()[0].clone(), k1]);
        for kernel in app.kernels() {
            let meta = KernelMeta::of(kernel);
            let payload = encode_kernel_payload(kernel);
            let mut damaged: Vec<Vec<u8>> = (0..payload.len())
                .map(|cut| payload[..cut].to_vec())
                .collect();
            for i in 0..payload.len() {
                for flip in [0x01u8, 0x08, 0x80, 0xff] {
                    let mut p = payload.clone();
                    p[i] ^= flip;
                    damaged.push(p);
                }
            }
            damaged.push(payload);
            let mut accepted = 0;
            for (i, p) in damaged.iter().enumerate() {
                let skim = skim_records(p, &meta);
                match decode_kernel_payload(p, &meta) {
                    Ok(decoded) => {
                        accepted += 1;
                        let mut want = Vec::new();
                        decoded.for_each_mem_inst(|m| want.push(owned(m)));
                        assert_eq!(skim, Ok(want), "damaged payload {i} of {}", meta.name);
                    }
                    Err(e) => assert_eq!(skim, Err(e), "damaged payload {i} of {}", meta.name),
                }
            }
            assert!(
                accepted > 1,
                "{}: only the intact payload decoded",
                meta.name
            );
        }
    }

    #[test]
    fn content_hash_ignores_how_sources_are_stored() {
        let inline = InstBuilder::new(Opcode::Ffma).dst(9).src(1).src(2).build();
        let mut spilled = inline.clone();
        spilled.srcs = SrcList::spilled_for_tests(&[Reg(1), Reg(2)]);
        let (inline, spilled) = (app_of(inline), app_of(spilled));
        assert_eq!(inline, spilled);
        assert_eq!(inline.to_binary(), spilled.to_binary());
        assert_eq!(inline.content_hash(), spilled.content_hash());
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let app = sample_app();
        assert!(app.to_binary().len() < app.to_trace_text().len());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_app().to_binary();
        bytes[0] = b'X';
        assert!(ApplicationTrace::from_binary(&bytes).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample_app().to_binary();
        bytes[4] = 99;
        assert!(ApplicationTrace::from_binary(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample_app().to_binary();
        // Any prefix must fail, never panic.
        for cut in 0..bytes.len() {
            assert!(
                ApplicationTrace::from_binary(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly parsed"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample_app().to_binary();
        bytes.push(0);
        assert!(ApplicationTrace::from_binary(&bytes).is_err());
    }

    #[test]
    fn corrupt_bytes_never_panic() {
        // Flip every byte (one at a time): decoding must return, not panic.
        // Payload flips are guaranteed to be *detected* by the section
        // hash; header flips either fail to parse or change the layout.
        let bytes = sample_app().to_binary();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xff;
            let _ = ApplicationTrace::from_binary(&corrupted);
        }
    }

    #[test]
    fn payload_corruption_is_detected_by_section_hash() {
        let app = sample_app();
        let bytes = app.to_binary();
        let (_, _, header_len) = decode_header(&bytes).unwrap();
        // Flip each payload byte: every flip must be rejected.
        for i in header_len..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x01;
            assert!(
                ApplicationTrace::from_binary(&corrupted).is_err(),
                "payload flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn content_hash_matches_header_hash_and_is_sensitive() {
        let app = sample_app();
        let bytes = app.to_binary();
        let (_, _, header_len) = decode_header(&bytes).unwrap();
        assert_eq!(app.content_hash(), fnv1a64(&bytes[..header_len]));

        // Any change to any instruction changes the hash.
        let mut other = sample_app();
        other.name = "renamed".to_owned();
        assert_ne!(app.content_hash(), other.content_hash());
    }

    #[test]
    fn writer_matches_to_binary() {
        let app = sample_app();
        let mut w = ChunkedTraceWriter::new(&app.name);
        for k in app.kernels() {
            w.add_kernel(k);
        }
        assert_eq!(w.num_kernels(), 1);
        assert_eq!(w.finish(), app.to_binary());
    }

    #[test]
    fn file_round_trip() {
        let app = sample_app();
        let dir = std::env::temp_dir().join("swiftsim_binfmt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.sstraceb");
        app.write_binary_file(&path).unwrap();
        assert_eq!(ApplicationTrace::read_binary_file(&path).unwrap(), app);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_missing_file_is_io_with_path() {
        let err = ApplicationTrace::read_binary_file("/definitely/not/here.sstraceb").unwrap_err();
        match &err {
            TraceError::Io { path, kind, .. } => {
                assert!(path.contains("here.sstraceb"), "{err}");
                assert_eq!(*kind, std::io::ErrorKind::NotFound);
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn empty_app_round_trips() {
        let app = ApplicationTrace::new("empty", vec![]);
        let back = ApplicationTrace::from_binary(&app.to_binary()).unwrap();
        assert_eq!(back, app);
    }
}
