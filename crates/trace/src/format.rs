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
//! (`D:`/`S:` prefixed), the active mask (`M:` hex), and — for memory
//! opcodes — the space, the per-thread width (`W:`), and either a strided
//! address descriptor (`ST:base:stride`, both hex) or an explicit list
//! (`AD:` comma-separated hex).

use crate::error::TraceError;
use crate::inst::{AddressList, MemInfo, Reg, SrcList, TraceInstruction};
use crate::isa::Opcode;
use crate::kernel::{ApplicationTrace, BlockTrace, Dim3, KernelTrace, WarpTrace};
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

fn write_inst(out: &mut String, inst: &TraceInstruction) {
    let _ = write!(out, "{:04x} {}", inst.pc, inst.opcode);
    if let Some(dst) = inst.dst {
        let _ = write!(out, " D:{dst}");
    }
    for src in &inst.srcs {
        let _ = write!(out, " S:{src}");
    }
    let _ = write!(out, " M:{:08x}", inst.active_mask);
    if let Some(mem) = &inst.mem {
        let _ = write!(out, " {} W:{}", mem.space, mem.width);
        match &mem.addresses {
            AddressList::Strided { base, stride } => {
                let _ = write!(out, " ST:{base:x}:{stride:x}");
            }
            AddressList::Explicit(addrs) => {
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

/// The shortest instruction line: a one-digit pc, a three-letter opcode
/// and a one-digit mask, `0 BAR M:0`.
const MIN_INST_LINE_BYTES: usize = 9;

/// A raw line without its `#` comment and surrounding whitespace.
pub(crate) fn strip_comment(raw: &str) -> &str {
    match raw.find('#') {
        Some(pos) => &raw[..pos],
        None => raw,
    }
    .trim()
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    line_offset: usize,
    peeked: Option<(usize, &'a str)>,
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

    fn expect_keyword(
        &mut self,
        keyword: &str,
        section: &str,
    ) -> Result<(usize, &'a str), TraceError> {
        let (no, line) = self
            .next_line()
            .ok_or_else(|| TraceError::eof(section.to_owned()))?;
        match line.strip_prefix(keyword) {
            Some(rest) if rest.is_empty() || rest.starts_with(char::is_whitespace) => {
                Ok((no, rest.trim()))
            }
            _ => Err(TraceError::parse(
                no,
                format!("expected {keyword:?}, found {line:?}"),
            )),
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

    /// How many instruction lines the warp starting at the cursor can
    /// hold: the lines up to its `warp_end` that are long enough to be an
    /// instruction. Counting them first lets the warp be one right-sized
    /// allocation instead of a `Vec` doubling its way up; a line too short
    /// to parse reserves nothing, so garbage input cannot inflate it.
    fn warp_len_ahead(&self) -> usize {
        let peeked = self.peeked.map(|(_, line)| line);
        let ahead = self.lines.clone().map(|(_, raw)| strip_comment(raw));
        peeked
            .into_iter()
            .chain(ahead)
            .take_while(|&line| line != "warp_end")
            .filter(|line| line.len() >= MIN_INST_LINE_BYTES)
            .count()
    }

    fn parse_warp(&mut self) -> Result<WarpTrace, TraceError> {
        let mut warp = WarpTrace::with_capacity(self.warp_len_ahead());
        loop {
            let (no, line) = self
                .next_line()
                .ok_or_else(|| TraceError::eof("warp".to_owned()))?;
            if line == "warp_end" {
                return Ok(warp);
            }
            warp.push(parse_inst(no, line)?);
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

fn parse_reg(token: &str) -> Result<Reg, TraceError> {
    let body = token
        .strip_prefix('R')
        .ok_or_else(|| TraceError::invalid_value("register", token))?;
    body.parse::<u16>()
        .map(Reg)
        .map_err(|_| TraceError::invalid_value("register", token))
}

fn parse_inst(no: usize, line: &str) -> Result<TraceInstruction, TraceError> {
    let mut tokens = line.split_whitespace();
    let pc_tok = tokens
        .next()
        .ok_or_else(|| TraceError::parse(no, "empty instruction"))?;
    let pc = u32::from_str_radix(pc_tok, 16)
        .map_err(|_| TraceError::invalid_value("program counter", pc_tok))?;
    let op_tok = tokens
        .next()
        .ok_or_else(|| TraceError::parse(no, "instruction missing opcode"))?;
    let opcode: Opcode = op_tok.parse()?;

    let mut dst = None;
    let mut srcs = SrcList::new();
    let mut active_mask = None;
    let mut mem_space = None;
    let mut width = None;
    let mut addresses = None;

    for tok in tokens {
        if let Some(r) = tok.strip_prefix("D:") {
            if dst.replace(parse_reg(r)?).is_some() {
                return Err(TraceError::parse(no, "multiple destination registers"));
            }
        } else if let Some(r) = tok.strip_prefix("S:") {
            srcs.push(parse_reg(r)?);
        } else if let Some(m) = tok.strip_prefix("M:") {
            let mask = u32::from_str_radix(m, 16)
                .map_err(|_| TraceError::invalid_value("active mask", m))?;
            if active_mask.replace(mask).is_some() {
                return Err(TraceError::parse(no, "multiple active masks"));
            }
        } else if let Some(w) = tok.strip_prefix("W:") {
            let w: u8 = w
                .parse()
                .map_err(|_| TraceError::invalid_value("access width", w))?;
            width = Some(w);
        } else if let Some(st) = tok.strip_prefix("ST:") {
            let (base, stride) = st
                .split_once(':')
                .ok_or_else(|| TraceError::invalid_value("strided address", st))?;
            let base = u64::from_str_radix(base, 16)
                .map_err(|_| TraceError::invalid_value("address base", base))?;
            let stride = u64::from_str_radix(stride, 16)
                .map_err(|_| TraceError::invalid_value("address stride", stride))?;
            addresses = Some(AddressList::Strided { base, stride });
        } else if let Some(ad) = tok.strip_prefix("AD:") {
            // One right-sized allocation: the list has a comma fewer than
            // it has addresses.
            let mut addrs = Vec::with_capacity(1 + ad.bytes().filter(|&b| b == b',').count());
            for a in ad.split(',') {
                addrs.push(
                    u64::from_str_radix(a, 16)
                        .map_err(|_| TraceError::invalid_value("address", a))?,
                );
            }
            addresses = Some(AddressList::Explicit(addrs));
        } else if let Ok(space) = tok.parse() {
            mem_space = Some(space);
        } else {
            return Err(TraceError::parse(no, format!("unrecognized token {tok:?}")));
        }
    }

    let active_mask =
        active_mask.ok_or_else(|| TraceError::parse(no, "instruction missing active mask"))?;

    let mem = match (mem_space, width, addresses) {
        (None, None, None) => None,
        (Some(space), Some(width), Some(addresses)) => Some(Box::new(MemInfo {
            space,
            width,
            addresses,
        })),
        _ => {
            return Err(TraceError::parse(
                no,
                "memory instruction needs space, W: width and ST:/AD: addresses together",
            ))
        }
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
        return Err(TraceError::parse(
            no,
            format!("instruction is inconsistent with opcode {}", inst.opcode),
        ));
    }
    Ok(inst)
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
        // Twenty sources: past what a `SrcList` holds inline.
        let wide = (0..20).fold(InstBuilder::new(Opcode::Hmma).dst(40), |b, r| b.src(r));
        let mut kernel = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
        kernel.push_block().push_warp().push(wide);
        let app = ApplicationTrace::new("wide", vec![kernel]);
        let parsed = ApplicationTrace::parse(&app.to_trace_text()).expect("parse");
        assert_eq!(parsed, app);
        let inst = &parsed.kernels()[0].blocks()[0].warps()[0].instructions()[0];
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
        assert_eq!(warps[0].heap_bytes(), heap_block::<TraceInstruction>(3));
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
