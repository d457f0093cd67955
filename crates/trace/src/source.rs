//! Streaming trace ingestion: the [`TraceSource`] abstraction.
//!
//! The simulator consumes kernels strictly one at a time, so nothing forces
//! an application trace to be fully decoded before the first cycle ticks.
//! A [`TraceSource`] exposes per-kernel launch metadata up front (cheap to
//! obtain from a header or a structural scan) and decodes kernel *bodies*
//! lazily, one index at a time — the simulator can hold at most two decoded
//! kernels (the one simulating and the one prefetching) regardless of
//! application size.
//!
//! Three implementations ship here:
//!
//! - [`ApplicationTrace`] itself — everything already in memory; decode is
//!   a borrow ([`Cow::Borrowed`]).
//! - [`TextTraceSource`] — holds the raw text of a `.sstrace` file and a
//!   per-kernel byte-range index from a single structural scan; each kernel
//!   is parsed on demand.
//! - [`ChunkedTraceSource`] — reads only the header + section table of a
//!   version-2 `.sstraceb` file; each kernel payload is read and decoded
//!   straight from disk on demand, verified against its section hash.
//!
//! The two file-backed sources also walk a kernel's global and local memory
//! instructions straight from its bytes, building nothing
//! ([`TraceSource::for_each_mem_inst`]), for the analytical pre-pass.
//!
//! [`open_trace`] sniffs the on-disk format and returns the right one.
//!
//! All sources agree on [`TraceSource::content_hash`]: the same application
//! content yields the same hash no matter which representation it came
//! from, so campaign cache keys are representation-independent.

use crate::binfmt::{
    decode_header, decode_kernel_payload, encode_header, encode_kernel_payload,
    skim_kernel_payload, Section, MAGIC,
};
use crate::error::TraceError;
use crate::format::{
    keyword, parse_dim3, parse_kernel_text, parse_u32, skim_kernel_text, strip_comment,
};
use crate::inst::MemInstRef;
use crate::kernel::{ApplicationTrace, Dim3, KernelTrace};
use std::borrow::Cow;
use std::io::{Read, Seek, SeekFrom};
use std::sync::{Mutex, OnceLock};
use swiftsim_config::fnv1a64;

/// Launch metadata of one kernel, available without decoding its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelMeta {
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
    /// Total dynamic instructions in the kernel body.
    pub num_insts: u64,
}

impl KernelMeta {
    /// Extract the metadata of a decoded kernel.
    pub fn of(kernel: &KernelTrace) -> Self {
        KernelMeta {
            name: kernel.name.clone(),
            grid_dim: kernel.grid_dim,
            block_dim: kernel.block_dim,
            shared_mem_bytes: kernel.shared_mem_bytes,
            regs_per_thread: kernel.regs_per_thread,
            num_insts: kernel.num_insts(),
        }
    }
}

/// An application trace that can be consumed kernel-by-kernel.
///
/// Implementations are `Send + Sync` so a background thread can decode
/// kernel *k+1* while kernel *k* simulates (see `GpuSimulator::run`
/// in `swiftsim-core`). Decoding the same index twice is allowed and
/// returns equal kernels; the simulator decodes each index exactly once.
///
/// # Migration
///
/// `GpuSimulator::run(&ApplicationTrace)` is now a thin wrapper over
/// `run(impl Into<TraceInput>)` — `ApplicationTrace` implements this
/// trait with borrowing (zero-copy) decode, so existing callers are
/// unchanged. File-based callers should move from
/// `ApplicationTrace::read_from_file`/`read_binary_file` + `run` to
/// [`open_trace`] + `run(source.as_ref())` to get lazy decode and bounded memory.
pub trait TraceSource: Send + Sync {
    /// Application name.
    fn name(&self) -> &str;

    /// Number of kernel launches.
    fn num_kernels(&self) -> usize;

    /// Launch metadata of kernel `index` (no body decode).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_kernels()`.
    fn kernel_meta(&self, index: usize) -> KernelMeta;

    /// Decode the body of kernel `index`. In-memory sources borrow;
    /// file-backed sources decode and return an owned kernel.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the underlying bytes are unreadable,
    /// corrupt, or inconsistent with the metadata.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_kernels()`.
    fn decode_kernel(&self, index: usize) -> Result<Cow<'_, KernelTrace>, TraceError>;

    /// Hand `f` every global or local memory instruction of kernel
    /// `index`, in the (block, warp, instruction) order of
    /// [`KernelTrace::for_each_mem_inst`] on the decoded kernel, and with
    /// the same records. This is the analytical pre-pass's input; sources
    /// override it to walk their bytes without building the kernel.
    ///
    /// The default decodes the kernel and walks it — the reference the
    /// overrides are tested against. An override must accept every kernel
    /// [`TraceSource::decode_kernel`] accepts, but may accept a kernel it
    /// rejects (the text skim does not parse register tokens), so a caller
    /// must still decode or content-hash every kernel it skims before
    /// returning a result from it.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the kernel's bytes are unreadable or
    /// fail a check the walk makes; `f` may have seen part of the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_kernels()`.
    fn for_each_mem_inst(
        &self,
        index: usize,
        f: &mut dyn FnMut(&MemInstRef<'_>),
    ) -> Result<(), TraceError> {
        self.decode_kernel(index)?.for_each_mem_inst(f);
        Ok(())
    }

    /// Stable identity of the full application content, equal across all
    /// representations of the same trace (see
    /// [`ApplicationTrace::content_hash`] for the definition). Used by the
    /// campaign engine for content-addressed cache keys.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when computing the hash requires decoding
    /// kernels and a kernel fails to decode.
    fn content_hash(&self) -> Result<u64, TraceError>;

    /// Whether kernel decode is expensive enough that the simulator should
    /// pipeline it on a background thread. In-memory sources return
    /// `false` (decode is a borrow; a thread round-trip would only add
    /// latency); file-backed sources keep the default `true`.
    fn prefers_prefetch(&self) -> bool {
        true
    }

    /// Total dynamic instructions across all kernels, from metadata alone.
    fn total_insts(&self) -> u64 {
        (0..self.num_kernels())
            .map(|i| self.kernel_meta(i).num_insts)
            .sum()
    }

    /// Decode every kernel into an eager [`ApplicationTrace`].
    ///
    /// # Errors
    ///
    /// Returns the first kernel decode failure.
    fn to_application(&self) -> Result<ApplicationTrace, TraceError> {
        let mut kernels = Vec::with_capacity(self.num_kernels());
        for i in 0..self.num_kernels() {
            kernels.push(self.decode_kernel(i)?.into_owned());
        }
        Ok(ApplicationTrace::new(self.name().to_owned(), kernels))
    }
}

impl TraceSource for ApplicationTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_kernels(&self) -> usize {
        self.kernels().len()
    }

    fn kernel_meta(&self, index: usize) -> KernelMeta {
        KernelMeta::of(&self.kernels()[index])
    }

    /// Borrows the kernel after the one check the text and SSTB decoders
    /// make that a built kernel can fail: a register above R255.
    fn decode_kernel(&self, index: usize) -> Result<Cow<'_, KernelTrace>, TraceError> {
        let kernel = &self.kernels()[index];
        match kernel.invalid_register() {
            Some(reg) => Err(TraceError::invalid_value(
                format!("register in kernel {:?}", kernel.name),
                reg.to_string(),
            )),
            None => Ok(Cow::Borrowed(kernel)),
        }
    }

    fn content_hash(&self) -> Result<u64, TraceError> {
        Ok(ApplicationTrace::content_hash(self))
    }

    fn prefers_prefetch(&self) -> bool {
        false
    }

    fn total_insts(&self) -> u64 {
        self.num_insts()
    }
}

struct PendingKernel {
    start: usize,
    line_offset: usize,
    name: String,
    grid_dim: Option<Dim3>,
    block_dim: Option<Dim3>,
    shared_mem_bytes: Option<u32>,
    regs_per_thread: Option<u32>,
    num_insts: u64,
    in_warp: bool,
}

/// Lazy text-format source: the raw text stays in memory, but kernels are
/// parsed one at a time from a byte-range index built by a single
/// structural scan (headers and section keywords only — instruction lines
/// are merely counted, not tokenized).
pub struct TextTraceSource {
    app_name: String,
    text: String,
    /// Per-kernel byte range of the slice `kernel ... kernel_end` in `text`.
    ranges: Vec<(usize, usize)>,
    /// Per-kernel 0-based line number of the `kernel` line, for error spans.
    line_offsets: Vec<usize>,
    metas: Vec<KernelMeta>,
    hash: OnceLock<Result<u64, TraceError>>,
}

impl TextTraceSource {
    /// Open a text trace file and scan its structure.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] carrying `path` when the file cannot be
    /// read, or a parse error from the structural scan.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| TraceError::io(path, &e))?;
        Self::from_text(text)
    }

    /// Build a source over trace text already in memory.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the structural scan fails (bad header
    /// lines, sections out of place, truncated kernels).
    pub fn from_text(text: impl Into<String>) -> Result<Self, TraceError> {
        let text = text.into();
        let mut app_name: Option<String> = None;
        let mut ranges = Vec::new();
        let mut line_offsets = Vec::new();
        let mut metas = Vec::new();
        let mut cur: Option<PendingKernel> = None;

        let mut pos = 0usize;
        for (idx, raw) in text.split_inclusive('\n').enumerate() {
            let start = pos;
            pos += raw.len();
            let no = idx + 1;
            let line = strip_comment(raw);
            if line.is_empty() {
                continue;
            }

            let Some(k) = cur.as_mut() else {
                if app_name.is_none() {
                    let Some(rest) = keyword(line, "app") else {
                        return Err(TraceError::parse(
                            no,
                            format!("expected \"app\", found {line:?}"),
                        ));
                    };
                    app_name = Some(rest.to_owned());
                } else if let Some(rest) = keyword(line, "kernel") {
                    cur = Some(PendingKernel {
                        start,
                        line_offset: idx,
                        name: rest.to_owned(),
                        grid_dim: None,
                        block_dim: None,
                        shared_mem_bytes: None,
                        regs_per_thread: None,
                        num_insts: 0,
                        in_warp: false,
                    });
                } else {
                    return Err(TraceError::parse(
                        no,
                        format!("expected \"kernel\", found {line:?}"),
                    ));
                }
                continue;
            };

            if k.in_warp {
                if line == "warp_end" {
                    k.in_warp = false;
                } else {
                    k.num_insts += 1;
                }
            } else if let Some(rest) = keyword(line, "grid") {
                k.grid_dim = Some(parse_dim3(no, rest)?);
            } else if let Some(rest) = keyword(line, "block") {
                k.block_dim = Some(parse_dim3(no, rest)?);
            } else if let Some(rest) = keyword(line, "shmem") {
                k.shared_mem_bytes = Some(parse_u32(no, rest, "shared memory size")?);
            } else if let Some(rest) = keyword(line, "regs") {
                k.regs_per_thread = Some(parse_u32(no, rest, "register count")?);
            } else if line == "warp_begin" {
                k.in_warp = true;
            } else if line == "block_begin" || line == "block_end" {
                // Block structure is validated by the real parse on decode.
            } else if line == "kernel_end" {
                let k = cur.take().expect("inside a kernel");
                let missing = |what: &str| {
                    TraceError::parse(no, format!("kernel {:?} has no {what} line", k.name))
                };
                metas.push(KernelMeta {
                    name: k.name.clone(),
                    grid_dim: k.grid_dim.ok_or_else(|| missing("grid"))?,
                    block_dim: k.block_dim.ok_or_else(|| missing("block"))?,
                    shared_mem_bytes: k.shared_mem_bytes.ok_or_else(|| missing("shmem"))?,
                    regs_per_thread: k.regs_per_thread.ok_or_else(|| missing("regs"))?,
                    num_insts: k.num_insts,
                });
                ranges.push((k.start, pos));
                line_offsets.push(k.line_offset);
            } else {
                return Err(TraceError::parse(
                    no,
                    format!("unexpected line outside warp: {line:?}"),
                ));
            }
        }

        if cur.is_some() {
            return Err(TraceError::eof("kernel"));
        }
        let Some(app_name) = app_name else {
            return Err(TraceError::eof("application header"));
        };
        Ok(TextTraceSource {
            app_name,
            text,
            ranges,
            line_offsets,
            metas,
            hash: OnceLock::new(),
        })
    }
}

impl TraceSource for TextTraceSource {
    fn name(&self) -> &str {
        &self.app_name
    }

    fn num_kernels(&self) -> usize {
        self.metas.len()
    }

    fn kernel_meta(&self, index: usize) -> KernelMeta {
        self.metas[index].clone()
    }

    fn decode_kernel(&self, index: usize) -> Result<Cow<'_, KernelTrace>, TraceError> {
        let (start, end) = self.ranges[index];
        let kernel = parse_kernel_text(&self.text[start..end], self.line_offsets[index])?;
        Ok(Cow::Owned(kernel))
    }

    fn for_each_mem_inst(
        &self,
        index: usize,
        f: &mut dyn FnMut(&MemInstRef<'_>),
    ) -> Result<(), TraceError> {
        let (start, end) = self.ranges[index];
        skim_kernel_text(&self.text[start..end], self.line_offsets[index], f)
    }

    fn content_hash(&self) -> Result<u64, TraceError> {
        self.hash
            .get_or_init(|| {
                // One kernel decoded + encoded at a time; only the compact
                // section entries accumulate.
                let mut sections = Vec::with_capacity(self.num_kernels());
                for i in 0..self.num_kernels() {
                    let kernel = self.decode_kernel(i)?;
                    let payload = encode_kernel_payload(&kernel);
                    sections.push(Section {
                        meta: KernelMeta::of(&kernel),
                        payload_len: payload.len() as u64,
                        payload_hash: fnv1a64(&payload),
                    });
                }
                Ok(fnv1a64(&encode_header(&self.app_name, &sections)))
            })
            .clone()
    }
}

/// Lazy chunked-binary source: opens a version-2 `.sstraceb` file, reads
/// only the header + section table, and decodes each kernel payload
/// straight from disk on demand (verified against its section hash). The
/// content hash comes from the header bytes alone — no payload is touched
/// until the simulator asks for it.
pub struct ChunkedTraceSource {
    path: String,
    file: Mutex<std::fs::File>,
    app_name: String,
    sections: Vec<Section>,
    /// Absolute file offset of each kernel's payload.
    offsets: Vec<u64>,
    hash: u64,
}

impl ChunkedTraceSource {
    /// Open a chunked binary trace file and read its section table.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] carrying `path` when the file cannot be
    /// read, or [`TraceError::InvalidValue`] when the header is corrupt or
    /// the section table disagrees with the file length.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let io = |e: &std::io::Error| TraceError::io(path, e);
        let mut file = std::fs::File::open(path).map_err(|e| io(&e))?;
        let file_len = file.metadata().map_err(|e| io(&e))?.len();

        // The header length is not known up front: read a prefix and grow
        // it until the header + section table parses (or the whole file is
        // buffered and still does not).
        let mut buf: Vec<u8> = Vec::new();
        let mut want: u64 = 64 * 1024;
        let (app_name, sections, header_len) = loop {
            let target = usize::try_from(want.min(file_len))
                .map_err(|_| TraceError::invalid_value("binary trace", "file too large"))?;
            if buf.len() < target {
                let old_len = buf.len();
                buf.resize(target, 0);
                file.read_exact(&mut buf[old_len..]).map_err(|e| io(&e))?;
            }
            match decode_header(&buf) {
                Ok(parsed) => break parsed,
                Err(e) => {
                    if (buf.len() as u64) < file_len {
                        want = want.saturating_mul(2);
                    } else {
                        return Err(e);
                    }
                }
            }
        };
        let hash = fnv1a64(&buf[..header_len]);

        let mut offsets = Vec::with_capacity(sections.len());
        let mut offset = header_len as u64;
        for section in &sections {
            offsets.push(offset);
            offset = offset.checked_add(section.payload_len).ok_or_else(|| {
                TraceError::invalid_value("binary trace", "payload offsets overflow")
            })?;
        }
        if offset != file_len {
            return Err(TraceError::invalid_value(
                "binary trace",
                format!(
                    "section table implies {offset} bytes but the file has {file_len} \
                     (truncated or trailing data)"
                ),
            ));
        }

        Ok(ChunkedTraceSource {
            path: path.display().to_string(),
            file: Mutex::new(file),
            app_name,
            sections,
            offsets,
            hash,
        })
    }

    /// The path this source reads from.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Kernel `index`'s payload bytes, verified against its section hash.
    fn read_payload(&self, index: usize) -> Result<Vec<u8>, TraceError> {
        let section = &self.sections[index];
        let len = usize::try_from(section.payload_len)
            .map_err(|_| TraceError::invalid_value("binary trace", "payload length overflow"))?;
        let mut payload = vec![0u8; len];
        {
            let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
            file.seek(SeekFrom::Start(self.offsets[index]))
                .map_err(|e| TraceError::io(&self.path, &e))?;
            file.read_exact(&mut payload)
                .map_err(|e| TraceError::io(&self.path, &e))?;
        }
        if fnv1a64(&payload) != section.payload_hash {
            return Err(TraceError::invalid_value(
                "binary trace",
                format!("section hash mismatch for kernel {:?}", section.meta.name),
            ));
        }
        Ok(payload)
    }
}

impl TraceSource for ChunkedTraceSource {
    fn name(&self) -> &str {
        &self.app_name
    }

    fn num_kernels(&self) -> usize {
        self.sections.len()
    }

    fn kernel_meta(&self, index: usize) -> KernelMeta {
        self.sections[index].meta.clone()
    }

    fn decode_kernel(&self, index: usize) -> Result<Cow<'_, KernelTrace>, TraceError> {
        let payload = self.read_payload(index)?;
        Ok(Cow::Owned(decode_kernel_payload(
            &payload,
            &self.sections[index].meta,
        )?))
    }

    fn for_each_mem_inst(
        &self,
        index: usize,
        f: &mut dyn FnMut(&MemInstRef<'_>),
    ) -> Result<(), TraceError> {
        let payload = self.read_payload(index)?;
        skim_kernel_payload(&payload, &self.sections[index].meta, f)
    }

    fn content_hash(&self) -> Result<u64, TraceError> {
        Ok(self.hash)
    }
}

/// Open a trace file as a lazy [`TraceSource`], sniffing the format: files
/// starting with the `"SSTB"` magic open as [`ChunkedTraceSource`],
/// anything else as [`TextTraceSource`].
///
/// # Errors
///
/// Returns [`TraceError::Io`] carrying `path` when the file cannot be
/// read, or the format-specific open error.
pub fn open_trace(path: impl AsRef<std::path::Path>) -> Result<Box<dyn TraceSource>, TraceError> {
    let path = path.as_ref();
    let mut magic = [0u8; 4];
    let is_binary = {
        let mut file = std::fs::File::open(path).map_err(|e| TraceError::io(path, &e))?;
        file.read_exact(&mut magic).is_ok() && &magic == MAGIC
    };
    if is_binary {
        Ok(Box::new(ChunkedTraceSource::open(path)?))
    } else {
        Ok(Box::new(TextTraceSource::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstBuilder;
    use crate::isa::Opcode;

    fn sample_app() -> ApplicationTrace {
        let mut k0 = KernelTrace::new("alpha", (2, 1, 1), (64, 1, 1));
        k0.shared_mem_bytes = 1024;
        k0.regs_per_thread = 24;
        for b in 0u64..2 {
            let block = k0.push_block();
            for w in 0u64..2 {
                let warp = block.push_warp();
                warp.push(
                    InstBuilder::new(Opcode::Ldg)
                        .pc(0)
                        .dst(4)
                        .src(1)
                        .global_strided(0x1000 + b * 0x100 + w * 0x40, 4, 4),
                );
                warp.push(InstBuilder::new(Opcode::Ffma).pc(16).dst(5).src(4).src(4));
                warp.push(InstBuilder::new(Opcode::Exit).pc(32));
            }
        }
        let mut k1 = KernelTrace::new("beta", (1, 1, 1), (32, 1, 1));
        let block = k1.push_block();
        let warp = block.push_warp();
        warp.push(InstBuilder::new(Opcode::Iadd).pc(0).dst(1).src(1));
        warp.push(InstBuilder::new(Opcode::Exit).pc(16));
        ApplicationTrace::new("sample", vec![k0, k1])
    }

    fn temp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("swiftsim_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn in_memory_source_borrows() {
        let app = sample_app();
        let src: &dyn TraceSource = &app;
        assert_eq!(src.num_kernels(), 2);
        assert_eq!(src.name(), "sample");
        assert_eq!(src.total_insts(), app.num_insts());
        let k = src.decode_kernel(0).unwrap();
        assert!(matches!(k, Cow::Borrowed(_)));
        assert_eq!(src.kernel_meta(1).name, "beta");
        assert_eq!(src.kernel_meta(1).num_insts, 2);
    }

    #[test]
    fn text_source_matches_eager_parse() {
        let app = sample_app();
        let src = TextTraceSource::from_text(app.to_trace_text()).unwrap();
        assert_eq!(src.num_kernels(), 2);
        assert_eq!(src.kernel_meta(0), KernelMeta::of(&app.kernels()[0]));
        assert_eq!(src.kernel_meta(1), KernelMeta::of(&app.kernels()[1]));
        assert_eq!(src.to_application().unwrap(), app);
        assert_eq!(src.content_hash().unwrap(), app.content_hash());
    }

    #[test]
    fn text_source_reports_whole_file_line_numbers() {
        let app = sample_app();
        let mut text = app.to_trace_text();
        // Corrupt an instruction line inside the *second* kernel.
        let beta = text.find("kernel beta").unwrap();
        let iadd = text[beta..].find("0000 IADD").unwrap() + beta;
        text.replace_range(iadd..iadd + 4, "zzzz");
        let src = TextTraceSource::from_text(text.clone()).unwrap();
        let err = src.decode_kernel(1).unwrap_err();
        let expected_line = text[..iadd].lines().count() + 1;
        match err {
            TraceError::InvalidValue { .. } => {}
            TraceError::Parse { line, .. } => assert_eq!(line, expected_line),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn text_source_rejects_structural_garbage() {
        assert!(TextTraceSource::from_text("widget\n").is_err());
        assert!(TextTraceSource::from_text("app a\nwidget\n").is_err());
        // Truncated kernel.
        assert!(TextTraceSource::from_text("app a\nkernel k\ngrid 1 1 1\n").is_err());
        // Missing header line.
        assert!(TextTraceSource::from_text("app a\nkernel k\nkernel_end\n").is_err());
        // Empty app is fine.
        let src = TextTraceSource::from_text("app a\n").unwrap();
        assert_eq!(src.num_kernels(), 0);
    }

    #[test]
    fn chunked_source_matches_eager_decode() {
        let app = sample_app();
        let path = temp_dir().join("chunked.sstraceb");
        app.write_binary_file(&path).unwrap();

        let src = ChunkedTraceSource::open(&path).unwrap();
        assert_eq!(src.name(), "sample");
        assert_eq!(src.num_kernels(), 2);
        assert_eq!(src.kernel_meta(0), KernelMeta::of(&app.kernels()[0]));
        assert_eq!(src.total_insts(), app.num_insts());
        assert_eq!(src.content_hash().unwrap(), app.content_hash());
        assert_eq!(src.to_application().unwrap(), app);
        // Decoding out of order and twice works.
        assert_eq!(&*src.decode_kernel(1).unwrap(), &app.kernels()[1]);
        assert_eq!(&*src.decode_kernel(1).unwrap(), &app.kernels()[1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_source_rejects_truncated_file() {
        let app = sample_app();
        let bytes = app.to_binary();
        let path = temp_dir().join("truncated.sstraceb");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(ChunkedTraceSource::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_source_detects_payload_corruption_on_decode() {
        let app = sample_app();
        let mut bytes = app.to_binary();
        let path = temp_dir().join("corrupt.sstraceb");
        // Flip the last byte — inside the final kernel's payload.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        // Open succeeds (header is intact) ...
        let src = ChunkedTraceSource::open(&path).unwrap();
        // ... the intact kernel decodes, the corrupt one is rejected.
        assert!(src.decode_kernel(0).is_ok());
        assert!(src.decode_kernel(1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_trace_sniffs_format() {
        let app = sample_app();
        let dir = temp_dir();
        let text_path = dir.join("sniff.sstrace");
        let bin_path = dir.join("sniff.sstraceb");
        app.write_to_file(&text_path).unwrap();
        app.write_binary_file(&bin_path).unwrap();

        let text_src = open_trace(&text_path).unwrap();
        let bin_src = open_trace(&bin_path).unwrap();
        assert_eq!(text_src.to_application().unwrap(), app);
        assert_eq!(bin_src.to_application().unwrap(), app);
        assert_eq!(
            text_src.content_hash().unwrap(),
            bin_src.content_hash().unwrap()
        );

        let err = match open_trace(dir.join("nope.sstrace")) {
            Err(e) => e,
            Ok(_) => panic!("missing file unexpectedly opened"),
        };
        assert!(matches!(err, TraceError::Io { .. }), "{err}");
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&bin_path).ok();
    }
}
