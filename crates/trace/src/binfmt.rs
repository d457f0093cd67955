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
//! little-endian. An instruction is `pc opcode flags [dst] srcs... mask
//! [space width addrs]` where `flags` packs the destination presence,
//! source count, and address-list kind.
//!
//! Because every section entry commits to its payload (length + content
//! hash), the [`ApplicationTrace::content_hash`] of a trace is defined as
//! the FNV-1a of the header + section table alone: an indexed file yields
//! it without decoding any payload, and an in-memory trace yields the same
//! value by encoding payloads one kernel at a time and discarding them.

use crate::error::TraceError;
use crate::inst::{AddressList, MemInfo, Reg, SrcList, TraceInstruction};
use crate::isa::Opcode;
use crate::kernel::{ApplicationTrace, BlockTrace, Dim3, KernelTrace, WarpTrace};
use crate::source::KernelMeta;

pub(crate) const MAGIC: &[u8; 4] = b"SSTB";
const VERSION: u8 = 2;

// Flag bits of the per-instruction header byte.
const FLAG_HAS_DST: u8 = 0b0000_0001;
const FLAG_HAS_MEM: u8 = 0b0000_0010;
const FLAG_EXPLICIT_ADDRS: u8 = 0b0000_0100;
const SRC_COUNT_SHIFT: u8 = 4;

/// The shortest encoded instruction: one byte each of pc, opcode, flags and
/// active mask.
const MIN_ENCODED_INST_BYTES: usize = 4;
/// The shortest encoded block or warp: its one-byte item count.
const MIN_ENCODED_LIST_BYTES: usize = 1;

/// FNV-1a over a byte slice — the stable hash used for section hashes and
/// the whole-trace content hash (`DefaultHasher` would not survive a
/// toolchain upgrade).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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
        claimed.min((self.bytes.len() - self.pos) / min_item_bytes)
    }

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

    fn byte(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.err("varint too long"))
    }

    fn varint_u32(&mut self, what: &str) -> Result<u32, TraceError> {
        u32::try_from(self.varint()?).map_err(|_| self.err(what))
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

fn encode_inst(out: &mut Vec<u8>, inst: &TraceInstruction) {
    push_varint(out, u64::from(inst.pc));
    let op_index = Opcode::ALL
        .iter()
        .position(|&o| o == inst.opcode)
        .expect("opcode is in ALL") as u8;
    out.push(op_index);

    let mut flags = 0u8;
    if inst.dst.is_some() {
        flags |= FLAG_HAS_DST;
    }
    let explicit = matches!(
        inst.mem.as_ref().map(|m| &m.addresses),
        Some(AddressList::Explicit(_))
    );
    if inst.mem.is_some() {
        flags |= FLAG_HAS_MEM;
    }
    if explicit {
        flags |= FLAG_EXPLICIT_ADDRS;
    }
    flags |= (inst.srcs.len().min(15) as u8) << SRC_COUNT_SHIFT;
    out.push(flags);

    if let Some(dst) = inst.dst {
        push_varint(out, u64::from(dst.0));
    }
    for src in &inst.srcs {
        push_varint(out, u64::from(src.0));
    }
    push_varint(out, u64::from(inst.active_mask));

    if let Some(mem) = &inst.mem {
        out.push(mem.width);
        match &mem.addresses {
            AddressList::Strided { base, stride } => {
                push_varint(out, *base);
                push_varint(out, *stride);
            }
            AddressList::Explicit(addrs) => {
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

fn decode_inst(r: &mut Reader<'_>) -> Result<TraceInstruction, TraceError> {
    let pc = r.varint_u32("pc out of range")?;
    let op_index = r.byte()? as usize;
    let opcode = *Opcode::ALL
        .get(op_index)
        .ok_or_else(|| r.err("opcode index out of range"))?;
    let flags = r.byte()?;
    let dst = if flags & FLAG_HAS_DST != 0 {
        Some(Reg(
            u16::try_from(r.varint()?).map_err(|_| r.err("dst register"))?
        ))
    } else {
        None
    };
    let mut srcs = SrcList::new();
    for _ in 0..flags >> SRC_COUNT_SHIFT {
        srcs.push(Reg(
            u16::try_from(r.varint()?).map_err(|_| r.err("src register"))?
        ));
    }
    let active_mask = r.varint_u32("active mask")?;

    let mem = if flags & FLAG_HAS_MEM != 0 {
        let space = opcode
            .mem_space()
            .ok_or_else(|| r.err("memory payload on non-memory opcode"))?;
        let width = r.byte()?;
        let addresses = if flags & FLAG_EXPLICIT_ADDRS != 0 {
            let n = r.varint()? as usize;
            if n > 32 {
                return Err(r.err("more than 32 lane addresses"));
            }
            let mut addrs = Vec::with_capacity(n);
            let mut prev = 0u64;
            for _ in 0..n {
                prev = prev.wrapping_add(r.varint()?);
                addrs.push(prev);
            }
            AddressList::Explicit(addrs)
        } else {
            let base = r.varint()?;
            let stride = r.varint()?;
            AddressList::Strided { base, stride }
        };
        Some(Box::new(MemInfo {
            space,
            width,
            addresses,
        }))
    } else {
        None
    };

    let inst = TraceInstruction {
        pc,
        opcode,
        dst,
        srcs,
        active_mask,
        mem,
    };
    if !inst.is_well_formed() {
        return Err(r.err("inconsistent instruction"));
    }
    Ok(inst)
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
    // Every container is reserved once, at the count the payload states cut
    // down to what its unread bytes can hold: no regrowth copies or
    // capacity slack on a sound payload, and a hostile count cannot force
    // an allocation larger than a small multiple of the payload itself.
    let num_blocks = r.varint()? as usize;
    if num_blocks > 1 << 24 {
        return Err(r.err("block count"));
    }
    kernel.reserve_blocks(r.bounded_count(num_blocks, MIN_ENCODED_LIST_BYTES));
    for _ in 0..num_blocks {
        let num_warps = r.varint()? as usize;
        if num_warps > 1 << 16 {
            return Err(r.err("warp count"));
        }
        let mut block =
            BlockTrace::with_capacity(r.bounded_count(num_warps, MIN_ENCODED_LIST_BYTES));
        for _ in 0..num_warps {
            let num_insts = r.varint()? as usize;
            if num_insts > 1 << 28 {
                return Err(r.err("instruction count"));
            }
            let warp = block.push_warp_trace(WarpTrace::with_capacity(
                r.bounded_count(num_insts, MIN_ENCODED_INST_BYTES),
            ));
            for _ in 0..num_insts {
                warp.push(decode_inst(&mut r)?);
            }
        }
        kernel.push_block_trace(block);
    }
    if r.pos() != bytes.len() {
        return Err(r.err("trailing payload bytes"));
    }
    if kernel.num_insts() != meta.num_insts {
        return Err(TraceError::invalid_value(
            "binary trace",
            format!(
                "kernel {:?} payload has {} instructions, section table says {}",
                meta.name,
                kernel.num_insts(),
                meta.num_insts
            ),
        ));
    }
    Ok(kernel)
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
        payload_hash: fnv1a(&payload),
    };
    (section, payload)
}

/// Streaming writer for the chunked binary format: feed kernels one at a
/// time, then [`finish`](ChunkedTraceWriter::finish) or
/// [`finish_to_file`](ChunkedTraceWriter::finish_to_file). Only the
/// *encoded* payload bytes are buffered (compact varints, typically far
/// smaller than the decoded `KernelTrace`), so a generator can emit a
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

    /// Finish and write to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] carrying `path` on any I/O failure.
    pub fn finish_to_file(self, path: impl AsRef<std::path::Path>) -> Result<(), TraceError> {
        let path = path.as_ref();
        std::fs::write(path, self.finish()).map_err(|e| TraceError::io(path, &e))
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
        fnv1a(&encode_header(&self.name, &sections))
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
            if fnv1a(payload) != section.payload_hash {
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
    use crate::inst::InstBuilder;

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

    #[test]
    fn fifteen_sources_round_trip() {
        // The most the 4-bit source count of the flags byte can state, and
        // more than a `SrcList` holds inline.
        let wide = (0..15).fold(InstBuilder::new(Opcode::Hmma).dst(40), |b, r| b.src(r));
        let app = app_of(wide.build());
        let back = ApplicationTrace::from_binary(&app.to_binary()).expect("round trip");
        assert_eq!(back, app);
        let inst = &back.kernels()[0].blocks()[0].warps()[0].instructions()[0];
        assert_eq!(inst.srcs.len(), 15);
        assert_eq!(inst.srcs[14], Reg(14));
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
        assert_eq!(app.content_hash(), fnv1a(&bytes[..header_len]));

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
