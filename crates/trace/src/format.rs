//! On-disk text format for application traces.
//!
//! The format is line-oriented, in the spirit of the Accel-Sim tracer's
//! `.trace` files:
//!
//! ```text
//! app bfs
//! kernel bfs_kernel
//! grid 16 1 1
//! block 256 1 1
//! shmem 0
//! regs 24
//! block_begin
//! warp_begin
//! 0000 IADD D:R1 S:R2 S:R3 M:ffffffff
//! 0010 LDG D:R4 S:R1 M:ffffffff global W:4 ST:1000:4
//! 0020 STG S:R4 M:0000ffff global W:4 AD:80,a0,c0,...
//! warp_end
//! block_end
//! kernel_end
//! ```
//!
//! Instruction lines are `<pc-hex> <opcode>` followed by register tokens
//! (`D:`/`S:` prefixed, `R0` to `R255`), the active mask (`M:` hex), and — for memory
//! opcodes — the space, the per-thread width (`W:`), and either a strided
//! address descriptor (`ST:base:stride`, both hex) or an explicit list
//! (`AD:` comma-separated hex).

use crate::error::TraceError;
use crate::inst::{
    is_well_formed, mem_payload_fits, AddressView, InstParts, MemInstRef, MemView, Reg, NUM_REGS,
    WARP_LANES,
};
use crate::isa::{MemSpace, Opcode};
use crate::kernel::{ApplicationTrace, BlockTrace, Dim3, KernelTrace};
use crate::warp::{InstView, WarpTrace};
use std::fmt::Write as _;

impl ApplicationTrace {
    /// Serialize to the text trace format.
    pub fn to_trace_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "app {}", self.name);
        for kernel in self.kernels() {
            let _ = writeln!(out, "kernel {}", kernel.name);
            let _ = writeln!(out, "grid {}", kernel.grid_dim);
            let _ = writeln!(out, "block {}", kernel.block_dim);
            let _ = writeln!(out, "shmem {}", kernel.shared_mem_bytes);
            let _ = writeln!(out, "regs {}", kernel.regs_per_thread);
            for block in kernel.blocks() {
                let _ = writeln!(out, "block_begin");
                for warp in block.warps() {
                    let _ = writeln!(out, "warp_begin");
                    for inst in warp {
                        write_inst(&mut out, inst);
                    }
                    let _ = writeln!(out, "warp_end");
                }
                let _ = writeln!(out, "block_end");
            }
            let _ = writeln!(out, "kernel_end");
        }
        out
    }

    /// Parse from the text trace format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on malformed lines, unknown opcodes, register
    /// or mask tokens outside their domain, inconsistent address lists, or
    /// truncated sections.
    pub fn parse(text: &str) -> Result<ApplicationTrace, TraceError> {
        Parser::new(text).parse_app()
    }

    /// Write the trace to `path` in the text format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] carrying `path` on any I/O failure.
    pub fn write_to_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), TraceError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_trace_text()).map_err(|e| TraceError::io(path, &e))
    }

    /// Read a trace from `path`, eagerly parsing every kernel. For lazy
    /// per-kernel parsing, use [`crate::TextTraceSource`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] carrying `path` when the file cannot be
    /// read, or the parse error otherwise.
    pub fn read_from_file(
        path: impl AsRef<std::path::Path>,
    ) -> Result<ApplicationTrace, TraceError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| TraceError::io(path, &e))?;
        ApplicationTrace::parse(&text)
    }
}

/// Parse one kernel from a text slice beginning at its `kernel` line.
/// `line_offset` is the 0-based line number of the slice's first line in
/// the enclosing file, so parse errors report whole-file line numbers.
/// Used by [`crate::TextTraceSource`] for lazy per-kernel decode.
pub(crate) fn parse_kernel_text(text: &str, line_offset: usize) -> Result<KernelTrace, TraceError> {
    let mut parser = Parser::with_offset(text, line_offset);
    let kernel = parser.parse_kernel()?;
    if let Some((no, line)) = parser.next_line() {
        return Err(TraceError::parse(
            no,
            format!("unexpected content after kernel_end: {line:?}"),
        ));
    }
    Ok(kernel)
}

fn write_inst(out: &mut String, inst: InstView<'_>) {
    let _ = write!(out, "{:04x} {}", inst.pc, inst.opcode);
    if let Some(dst) = inst.dst {
        let _ = write!(out, " D:{dst}");
    }
    for src in inst.srcs.iter() {
        let _ = write!(out, " S:{src}");
    }
    let _ = write!(out, " M:{:08x}", inst.active_mask);
    if let Some(mem) = inst.mem {
        let _ = write!(out, " {} W:{}", mem.space, mem.width);
        match mem.addresses {
            AddressView::Strided { base, stride } => {
                let _ = write!(out, " ST:{base:x}:{stride:x}");
            }
            AddressView::Explicit(addrs) => {
                let _ = write!(out, " AD:");
                for (i, a) in addrs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{a:x}");
                }
            }
        }
    }
    out.push('\n');
}

/// A raw line without its `#` comment and surrounding whitespace.
pub(crate) fn strip_comment(raw: &str) -> &str {
    match raw.find('#') {
        Some(pos) => &raw[..pos],
        None => raw,
    }
    .trim()
}

/// Match `line` against a section keyword: the keyword alone, or followed
/// by whitespace (so `"block"` does not match `"block_begin"`).
pub(crate) fn keyword<'a>(line: &'a str, kw: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(kw)?;
    if rest.is_empty() || rest.starts_with(char::is_whitespace) {
        Some(rest.trim())
    } else {
        None
    }
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    line_offset: usize,
    peeked: Option<(usize, &'a str)>,
    /// Where an explicit address list is read before it is copied into
    /// its warp's address arena.
    lanes: [u64; WARP_LANES],
    /// Where an instruction's sources are read before they are packed.
    srcs: Vec<Reg>,
    /// Where a warp is packed before it is taken out right-sized; empty
    /// between warps (a warp that fails to parse fails the whole parse).
    warp: WarpTrace,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser::with_offset(text, 0)
    }

    fn with_offset(text: &'a str, line_offset: usize) -> Self {
        Parser {
            lines: text.lines().enumerate(),
            line_offset,
            peeked: None,
            lanes: [0; WARP_LANES],
            srcs: Vec::new(),
            warp: WarpTrace::new(),
        }
    }

    /// Next non-empty, non-comment line with its 1-based number.
    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        if let Some(item) = self.peeked.take() {
            return Some(item);
        }
        for (idx, raw) in self.lines.by_ref() {
            let line = strip_comment(raw);
            if !line.is_empty() {
                return Some((self.line_offset + idx + 1, line));
            }
        }
        None
    }

    fn peek_line(&mut self) -> Option<(usize, &'a str)> {
        if self.peeked.is_none() {
            self.peeked = self.next_line();
        }
        self.peeked
    }

    fn expect_keyword(&mut self, kw: &str, section: &str) -> Result<(usize, &'a str), TraceError> {
        let (no, line) = self
            .next_line()
            .ok_or_else(|| TraceError::eof(section.to_owned()))?;
        match keyword(line, kw) {
            Some(rest) => Ok((no, rest)),
            None => Err(expected(no, kw, line)),
        }
    }

    fn parse_app(&mut self) -> Result<ApplicationTrace, TraceError> {
        let (_, name) = self.expect_keyword("app", "application header")?;
        let name = name.to_owned();
        let mut kernels = Vec::new();
        while let Some((_, line)) = self.peek_line() {
            if line.starts_with("kernel") {
                kernels.push(self.parse_kernel()?);
            } else {
                let (no, line) = self.next_line().expect("peeked");
                return Err(TraceError::parse(
                    no,
                    format!("expected \"kernel\", found {line:?}"),
                ));
            }
        }
        Ok(ApplicationTrace::new(name, kernels))
    }

    fn parse_kernel(&mut self) -> Result<KernelTrace, TraceError> {
        let (_, name) = self.expect_keyword("kernel", "kernel header")?;
        let name = name.to_owned();
        let (no, grid) = self.expect_keyword("grid", "kernel header")?;
        let grid_dim = parse_dim3(no, grid)?;
        let (no, block) = self.expect_keyword("block", "kernel header")?;
        let block_dim = parse_dim3(no, block)?;
        let (no, shmem) = self.expect_keyword("shmem", "kernel header")?;
        let shared_mem_bytes = parse_u32(no, shmem, "shared memory size")?;
        let (no, regs) = self.expect_keyword("regs", "kernel header")?;
        let regs_per_thread = parse_u32(no, regs, "register count")?;

        let mut kernel = KernelTrace::new(name, grid_dim, block_dim);
        kernel.shared_mem_bytes = shared_mem_bytes;
        kernel.regs_per_thread = regs_per_thread;

        loop {
            let (no, line) = self
                .peek_line()
                .ok_or_else(|| TraceError::eof("kernel".to_owned()))?;
            match line {
                "block_begin" => {
                    self.next_line();
                    kernel.push_block_trace(self.parse_block()?);
                }
                "kernel_end" => {
                    self.next_line();
                    return Ok(kernel);
                }
                other => {
                    return Err(TraceError::parse(
                        no,
                        format!("expected \"block_begin\" or \"kernel_end\", found {other:?}"),
                    ))
                }
            }
        }
    }

    fn parse_block(&mut self) -> Result<BlockTrace, TraceError> {
        let mut block = BlockTrace::new();
        loop {
            let (no, line) = self
                .peek_line()
                .ok_or_else(|| TraceError::eof("block".to_owned()))?;
            match line {
                "warp_begin" => {
                    self.next_line();
                    block.push_warp_trace(self.parse_warp()?);
                }
                "block_end" => {
                    self.next_line();
                    return Ok(block);
                }
                other => {
                    return Err(TraceError::parse(
                        no,
                        format!("expected \"warp_begin\" or \"block_end\", found {other:?}"),
                    ))
                }
            }
        }
    }

    /// Parse one warp into the scratch warp and take it out right-sized.
    fn parse_warp(&mut self) -> Result<WarpTrace, TraceError> {
        loop {
            let (no, line) = self
                .next_line()
                .ok_or_else(|| TraceError::eof("warp".to_owned()))?;
            if line == "warp_end" {
                return Ok(self.warp.take());
            }
            parse_inst(no, line, &mut self.lanes, &mut self.srcs, &mut self.warp)?;
        }
    }
}

pub(crate) fn parse_dim3(no: usize, s: &str) -> Result<Dim3, TraceError> {
    let mut it = s.split_whitespace();
    let mut next = |what: &str| -> Result<u32, TraceError> {
        let tok = it
            .next()
            .ok_or_else(|| TraceError::parse(no, format!("missing {what} dimension")))?;
        tok.parse()
            .map_err(|_| TraceError::invalid_value(format!("{what} dimension"), tok))
    };
    let dim = Dim3::new(next("x")?, next("y")?, next("z")?);
    if it.next().is_some() {
        return Err(TraceError::parse(no, "too many dimension components"));
    }
    Ok(dim)
}

pub(crate) fn parse_u32(no: usize, s: &str, what: &str) -> Result<u32, TraceError> {
    s.parse()
        .map_err(|_| TraceError::parse(no, format!("invalid {what}: {s:?}")))
}

/// A register token's value, R0 to R255. The error names the line:
/// registers are the one operand the pre-pass skim never reads, so this
/// error often surfaces only when the simulation decodes the kernel, long
/// after the skim.
fn parse_reg(no: usize, token: &str) -> Result<Reg, TraceError> {
    token
        .strip_prefix('R')
        .and_then(|body| body.parse::<u16>().ok())
        .filter(|&r| r < NUM_REGS)
        .map(Reg)
        .ok_or_else(|| TraceError::parse(no, format!("invalid register {token:?}")))
}

fn expected(no: usize, kw: &str, line: &str) -> TraceError {
    TraceError::parse(no, format!("expected {kw:?}, found {line:?}"))
}

fn parse_pc(token: &str) -> Result<u32, TraceError> {
    u32::from_str_radix(token, 16).map_err(|_| TraceError::invalid_value("program counter", token))
}

/// Where an instruction line's addresses are: its `ST:` descriptor, or the
/// first `n` entries of the lane buffer its `AD:` list was read into.
#[derive(Clone, Copy)]
enum Addrs {
    Strided { base: u64, stride: u64 },
    Explicit(usize),
}

/// A memory instruction's space, width and addresses.
type MemOperands = (MemSpace, u8, Addrs);

/// The tokens of an instruction line other than its pc, opcode and
/// registers, as the decoder and the skim both read them.
#[derive(Default)]
struct Operands {
    active_mask: Option<u32>,
    space: Option<MemSpace>,
    width: Option<u8>,
    addresses: Option<Addrs>,
}

impl Operands {
    /// Read one token; an `AD:` list overwrites the front of `lanes`.
    fn read(
        &mut self,
        no: usize,
        tok: &str,
        lanes: &mut [u64; WARP_LANES],
    ) -> Result<(), TraceError> {
        if let Some(m) = tok.strip_prefix("M:") {
            let mask = u32::from_str_radix(m, 16)
                .map_err(|_| TraceError::invalid_value("active mask", m))?;
            if self.active_mask.replace(mask).is_some() {
                return Err(TraceError::parse(no, "multiple active masks"));
            }
        } else if let Some(w) = tok.strip_prefix("W:") {
            let w: u8 = w
                .parse()
                .map_err(|_| TraceError::invalid_value("access width", w))?;
            self.width = Some(w);
        } else if let Some(st) = tok.strip_prefix("ST:") {
            let (base, stride) = st
                .split_once(':')
                .ok_or_else(|| TraceError::invalid_value("strided address", st))?;
            let base = u64::from_str_radix(base, 16)
                .map_err(|_| TraceError::invalid_value("address base", base))?;
            let stride = u64::from_str_radix(stride, 16)
                .map_err(|_| TraceError::invalid_value("address stride", stride))?;
            self.addresses = Some(Addrs::Strided { base, stride });
        } else if let Some(ad) = tok.strip_prefix("AD:") {
            let mut n = 0;
            for a in ad.split(',') {
                // One address per lane: a longer list never fits a mask.
                let lane = lanes
                    .get_mut(n)
                    .ok_or_else(|| TraceError::parse(no, "more than 32 lane addresses"))?;
                *lane = u64::from_str_radix(a, 16)
                    .map_err(|_| TraceError::invalid_value("address", a))?;
                n += 1;
            }
            self.addresses = Some(Addrs::Explicit(n));
        } else if let Ok(space) = tok.parse() {
            self.space = Some(space);
        } else {
            return Err(TraceError::parse(no, format!("unrecognized token {tok:?}")));
        }
        Ok(())
    }

    /// The active mask, and the memory operands when the line has them:
    /// space, width and addresses come all together or not at all.
    fn finish(self, no: usize) -> Result<(u32, Option<MemOperands>), TraceError> {
        let active_mask = self
            .active_mask
            .ok_or_else(|| TraceError::parse(no, "instruction missing active mask"))?;
        let mem = match (self.space, self.width, self.addresses) {
            (None, None, None) => None,
            (Some(space), Some(width), Some(addresses)) => Some((space, width, addresses)),
            _ => {
                return Err(TraceError::parse(
                    no,
                    "memory instruction needs space, W: width and ST:/AD: addresses together",
                ))
            }
        };
        Ok((active_mask, mem))
    }
}

fn view(addrs: Addrs, lanes: &[u64; WARP_LANES]) -> AddressView<'_> {
    match addrs {
        Addrs::Strided { base, stride } => AddressView::Strided { base, stride },
        Addrs::Explicit(n) => AddressView::Explicit(&lanes[..n]),
    }
}

fn inconsistent(no: usize, opcode: Opcode) -> TraceError {
    TraceError::parse(
        no,
        format!("instruction is inconsistent with opcode {opcode}"),
    )
}

/// Parse one instruction line and pack it into `warp`. `srcs` is scratch
/// space, reused from line to line.
fn parse_inst(
    no: usize,
    line: &str,
    lanes: &mut [u64; WARP_LANES],
    srcs: &mut Vec<Reg>,
    warp: &mut WarpTrace,
) -> Result<(), TraceError> {
    let mut tokens = line.split_whitespace();
    let pc_tok = tokens
        .next()
        .ok_or_else(|| TraceError::parse(no, "empty instruction"))?;
    let pc = parse_pc(pc_tok)?;
    let op_tok = tokens
        .next()
        .ok_or_else(|| TraceError::parse(no, "instruction missing opcode"))?;
    let opcode: Opcode = op_tok.parse()?;

    let mut dst = None;
    srcs.clear();
    let mut operands = Operands::default();
    for tok in tokens {
        if let Some(r) = tok.strip_prefix("D:") {
            if dst.replace(parse_reg(no, r)?).is_some() {
                return Err(TraceError::parse(no, "multiple destination registers"));
            }
        } else if let Some(r) = tok.strip_prefix("S:") {
            srcs.push(parse_reg(no, r)?);
        } else {
            operands.read(no, tok, lanes)?;
        }
    }
    let (active_mask, mem) = operands.finish(no)?;

    let inst = InstParts {
        pc,
        opcode,
        dst,
        active_mask,
        mem: mem.map(|(space, width, addrs)| MemView {
            space,
            width,
            addresses: view(addrs, lanes),
        }),
    };
    if !is_well_formed(opcode, active_mask, inst.mem) {
        return Err(inconsistent(no, opcode));
    }
    warp.push_parts(&inst, srcs);
    Ok(())
}

/// The opcodes whose lines the skim reads past the opcode: the global and
/// local loads and stores, the accesses the cache hierarchy serves.
const HIERARCHY_OPCODES: [Opcode; 4] = [Opcode::Ldg, Opcode::Stg, Opcode::Ldl, Opcode::Stl];

/// Walk one kernel's text (the slice [`parse_kernel_text`] takes) and hand
/// `f` each global or local memory instruction, in (block, warp,
/// instruction) order.
///
/// Every line is stripped of its comment and checked against the section
/// structure [`parse_kernel_text`] requires; an instruction line is read
/// only up to its opcode unless that opcode is `LDG`/`STG`/`LDL`/`STL`.
/// Those lines get the decoder's checks on every token but the registers,
/// which are skipped unparsed, and an `AD:` list lands in one lane buffer
/// reused for the whole kernel. So the skim accepts every kernel the
/// decoder accepts, with the same records, but can accept a kernel the
/// decoder rejects for a register token or for a token on a line it does
/// not read: a caller must still decode or content-hash each kernel before
/// trusting it (DESIGN.md, "Analytical pre-pass").
pub(crate) fn skim_kernel_text(
    text: &str,
    line_offset: usize,
    f: &mut dyn FnMut(&MemInstRef<'_>),
) -> Result<(), TraceError> {
    // In ASCII text with no comment and no vertical tab (U+000B, white
    // space to `char` but not to `u8`), the byte-wise trim and split cut
    // exactly what `strip_comment` and `split_whitespace` cut, in half the
    // time. Generated and converted traces are such text.
    if text.is_ascii() && !text.contains('#') && !text.contains('\x0b') {
        skim_lines(
            text,
            line_offset,
            str::trim_ascii,
            str::split_ascii_whitespace,
            f,
        )
    } else {
        skim_lines(text, line_offset, strip_comment, str::split_whitespace, f)
    }
}

/// [`skim_kernel_text`] with the decoder's line cleaning and tokenizing, or
/// equivalents of them for the text at hand.
fn skim_lines<'t, T: Iterator<Item = &'t str>>(
    text: &'t str,
    line_offset: usize,
    clean: impl Fn(&'t str) -> &'t str,
    split: impl Fn(&'t str) -> T,
    f: &mut dyn FnMut(&MemInstRef<'_>),
) -> Result<(), TraceError> {
    let mut lines = text.lines().enumerate().filter_map(|(idx, raw)| {
        let line = clean(raw);
        (!line.is_empty()).then_some((line_offset + idx + 1, line))
    });
    // The header values were read by the structural scan; only their order
    // is left to check.
    for kw in ["kernel", "grid", "block", "shmem", "regs"] {
        let (no, line) = lines
            .next()
            .ok_or_else(|| TraceError::eof("kernel header"))?;
        if keyword(line, kw).is_none() {
            return Err(expected(no, kw, line));
        }
    }
    let mut lanes = [0u64; WARP_LANES];
    let mut block = 0;
    loop {
        match lines.next().ok_or_else(|| TraceError::eof("kernel"))? {
            (_, "block_begin") => {}
            (_, "kernel_end") => break,
            (no, other) => {
                return Err(TraceError::parse(
                    no,
                    format!("expected \"block_begin\" or \"kernel_end\", found {other:?}"),
                ))
            }
        }
        loop {
            match lines.next().ok_or_else(|| TraceError::eof("block"))? {
                (_, "warp_begin") => {}
                (_, "block_end") => break,
                (no, other) => {
                    return Err(TraceError::parse(
                        no,
                        format!("expected \"warp_begin\" or \"block_end\", found {other:?}"),
                    ))
                }
            }
            loop {
                let (no, line) = lines.next().ok_or_else(|| TraceError::eof("warp"))?;
                if line == "warp_end" {
                    break;
                }
                // A warp line is never empty, so it has a pc token.
                let mut tokens = split(line);
                let pc = tokens.next().unwrap_or_default();
                let op_tok = tokens
                    .next()
                    .ok_or_else(|| TraceError::parse(no, "instruction missing opcode"))?;
                let Some(opcode) = HIERARCHY_OPCODES
                    .into_iter()
                    .find(|op| op.mnemonic() == op_tok)
                else {
                    continue;
                };
                let pc = parse_pc(pc)?;
                let mut operands = Operands::default();
                for tok in tokens {
                    if !(tok.starts_with("D:") || tok.starts_with("S:")) {
                        operands.read(no, tok, &mut lanes)?;
                    }
                }
                let (active_mask, mem) = operands.finish(no)?;
                let Some((space, width, addrs)) = mem else {
                    return Err(inconsistent(no, opcode));
                };
                let addresses = view(addrs, &lanes);
                if Some(space) != opcode.mem_space()
                    || !mem_payload_fits(width, addresses, active_mask)
                {
                    return Err(inconsistent(no, opcode));
                }
                let mem = MemInstRef::in_hierarchy(
                    block,
                    pc,
                    opcode,
                    space,
                    active_mask,
                    width,
                    addresses,
                )
                .expect("LDG/STG/LDL/STL access global or local memory");
                f(&mem);
            }
        }
        block += 1;
    }
    if let Some((no, line)) = lines.next() {
        return Err(TraceError::parse(
            no,
            format!("unexpected content after kernel_end: {line:?}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{heap_block, InstBuilder};

    fn sample_app() -> ApplicationTrace {
        let mut kernel = KernelTrace::new("k0", (1, 2, 1), (64, 1, 1));
        kernel.shared_mem_bytes = 4096;
        kernel.regs_per_thread = 40;
        for blk in 0..2 {
            let b = kernel.push_block();
            for w in 0..2 {
                let warp = b.push_warp();
                warp.push(
                    InstBuilder::new(Opcode::Ldg)
                        .pc(0x10)
                        .dst(4)
                        .src(1)
                        .global_strided(0x1_0000 + blk * 0x100 + w * 0x80, 4, 4),
                );
                warp.push(InstBuilder::new(Opcode::Ffma).pc(0x20).dst(5).src(4).src(4));
                warp.push(
                    InstBuilder::new(Opcode::Stg)
                        .pc(0x30)
                        .src(5)
                        .explicit_addrs(vec![0x40, 0x80, 0xc0, 0x99], 4),
                );
                warp.push(InstBuilder::new(Opcode::Bar).pc(0x40));
                warp.push(InstBuilder::new(Opcode::Exit).pc(0x50).mask(0xffff));
            }
        }
        let mut k1 = KernelTrace::new("k1", (1, 1, 1), (32, 1, 1));
        let b = k1.push_block();
        let warp = b.push_warp();
        warp.push(
            InstBuilder::new(Opcode::Lds)
                .pc(0)
                .dst(2)
                .src(1)
                .global_strided(0, 4, 4),
        );
        warp.push(InstBuilder::new(Opcode::Exit).pc(0x10));
        ApplicationTrace::new("sample", vec![kernel, k1])
    }

    #[test]
    fn round_trip() {
        let app = sample_app();
        let text = app.to_trace_text();
        let parsed = ApplicationTrace::parse(&text).expect("parse");
        assert_eq!(parsed, app);
    }

    #[test]
    fn any_number_of_sources_round_trips() {
        // Twenty sources: past what a record holds inline.
        let wide = (0..20).fold(InstBuilder::new(Opcode::Hmma).dst(40), |b, r| b.src(r));
        let mut kernel = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
        kernel.push_block().push_warp().push(wide);
        let app = ApplicationTrace::new("wide", vec![kernel]);
        let parsed = ApplicationTrace::parse(&app.to_trace_text()).expect("parse");
        assert_eq!(parsed, app);
        let inst = parsed.kernels()[0].blocks()[0].warps()[0]
            .iter()
            .next()
            .unwrap();
        assert_eq!(inst.srcs.len(), 20);
    }

    #[test]
    fn warps_parse_into_right_sized_allocations() {
        // Comments, blank lines and a trailing comment between the
        // instructions: the look-ahead counts instruction lines only.
        let text = "app a\nkernel k\ngrid 1 1 1\nblock 32 1 1\nshmem 0\nregs 8\n\
                    block_begin\nwarp_begin\n# prologue\n0000 IADD D:R1 M:ffffffff\n\n\
                    0010 IADD D:R2 S:R1 M:ffffffff # use\n0020 EXIT M:ffffffff\nwarp_end\n\
                    warp_begin\nwarp_end\nblock_end\nkernel_end\n";
        let app = ApplicationTrace::parse(text).expect("parse");
        let warps = app.kernels()[0].blocks()[0].warps();
        assert_eq!((warps[0].len(), warps[1].len()), (3, 0));
        // Three 16-byte records and no side table.
        assert_eq!(warps[0].heap_bytes(), heap_block::<[u8; 16]>(3));
        assert_eq!(warps[1].heap_bytes(), 0);
    }

    #[test]
    fn round_trip_preserves_stats() {
        let app = sample_app();
        let parsed = ApplicationTrace::parse(&app.to_trace_text()).unwrap();
        assert_eq!(parsed.stats(), app.stats());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = format!("# header\n\n{}\n# trailer\n", sample_app().to_trace_text());
        assert_eq!(ApplicationTrace::parse(&text).unwrap(), sample_app());
    }

    #[test]
    fn missing_mask_rejected() {
        let text = "app a\nkernel k\ngrid 1 1 1\nblock 32 1 1\nshmem 0\nregs 8\n\
                    block_begin\nwarp_begin\n0000 IADD D:R1\nwarp_end\nblock_end\nkernel_end\n";
        let err = ApplicationTrace::parse(text).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 9, .. }), "{err}");
    }

    #[test]
    fn truncated_warp_rejected() {
        let text = "app a\nkernel k\ngrid 1 1 1\nblock 32 1 1\nshmem 0\nregs 8\n\
                    block_begin\nwarp_begin\n0000 IADD M:ffffffff\n";
        assert_eq!(
            ApplicationTrace::parse(text).unwrap_err(),
            TraceError::UnexpectedEof("warp".to_owned())
        );
    }

    #[test]
    fn unknown_opcode_rejected() {
        let text = "app a\nkernel k\ngrid 1 1 1\nblock 32 1 1\nshmem 0\nregs 8\n\
                    block_begin\nwarp_begin\n0000 FROB M:ffffffff\nwarp_end\nblock_end\nkernel_end\n";
        assert!(matches!(
            ApplicationTrace::parse(text).unwrap_err(),
            TraceError::InvalidValue { .. }
        ));
    }

    #[test]
    fn memory_opcode_without_addresses_rejected() {
        let text = "app a\nkernel k\ngrid 1 1 1\nblock 32 1 1\nshmem 0\nregs 8\n\
                    block_begin\nwarp_begin\n0000 LDG D:R1 M:ffffffff\nwarp_end\nblock_end\nkernel_end\n";
        assert!(ApplicationTrace::parse(text).is_err());
    }

    #[test]
    fn explicit_list_length_mismatch_rejected() {
        // Mask has 32 lanes but only 2 addresses.
        let text = "app a\nkernel k\ngrid 1 1 1\nblock 32 1 1\nshmem 0\nregs 8\n\
                    block_begin\nwarp_begin\n0000 LDG D:R1 M:ffffffff global W:4 AD:10,20\n\
                    warp_end\nblock_end\nkernel_end\n";
        assert!(ApplicationTrace::parse(text).is_err());
    }

    #[test]
    fn wrong_space_for_opcode_rejected() {
        // LDS is shared-memory but the line claims global.
        let text = "app a\nkernel k\ngrid 1 1 1\nblock 32 1 1\nshmem 0\nregs 8\n\
                    block_begin\nwarp_begin\n0000 LDS D:R1 M:ffffffff global W:4 ST:0:4\n\
                    warp_end\nblock_end\nkernel_end\n";
        assert!(ApplicationTrace::parse(text).is_err());
    }

    #[test]
    fn empty_app_parses() {
        let app = ApplicationTrace::parse("app nothing\n").unwrap();
        assert_eq!(app.name, "nothing");
        assert!(app.kernels().is_empty());
    }

    #[test]
    fn garbage_after_header_rejected() {
        assert!(ApplicationTrace::parse("app a\nwidget w\n").is_err());
    }

    #[test]
    fn file_round_trip() {
        let app = sample_app();
        let dir = std::env::temp_dir().join("swiftsim_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.sstrace");
        app.write_to_file(&path).unwrap();
        let back = ApplicationTrace::read_from_file(&path).unwrap();
        assert_eq!(back, app);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_from_file_surfaces_parse_errors() {
        let dir = std::env::temp_dir().join("swiftsim_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.sstrace");
        std::fs::write(&path, "not a trace").unwrap();
        let err = ApplicationTrace::read_from_file(&path).unwrap_err();
        assert!(matches!(err, TraceError::Parse { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_missing_file_is_io_with_path() {
        let err = ApplicationTrace::read_from_file("/definitely/not/here.sstrace").unwrap_err();
        match &err {
            TraceError::Io { path, kind, .. } => {
                assert!(path.contains("here.sstrace"), "{err}");
                assert_eq!(*kind, std::io::ErrorKind::NotFound);
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn parse_kernel_text_offsets_line_numbers() {
        let app = sample_app();
        let text = app.to_trace_text();
        // Slice out the first kernel (from its "kernel" line to "kernel_end").
        let start = text.find("kernel ").unwrap();
        let end = text.find("kernel_end\n").unwrap() + "kernel_end\n".len();
        let offset = text[..start].lines().count();
        let kernel = parse_kernel_text(&text[start..end], offset).unwrap();
        assert_eq!(&kernel, &app.kernels()[0]);

        // A parse error inside the slice reports the whole-file line number.
        let broken = "kernel k\ngrid 1 1 1\nblock 32 1 1\nshmem 0\nregs 8\nwidget\nkernel_end\n";
        let err = parse_kernel_text(broken, 100).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 106, .. }), "{err}");
    }
}
