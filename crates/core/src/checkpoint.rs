//! Resumable simulation snapshots (the `SSTBCKPT v1` format).
//!
//! A snapshot captures everything a simulation carries **across** a kernel
//! boundary: the clock, accumulated statistics, per-kernel results,
//! sampling measurements, and the persistent memory-hierarchy state (cache
//! tags, DRAM channel timing, lifetime counters). Kernel boundaries are
//! quiescent points — the event heap is drained, no requests are in flight,
//! every warp has retired — so transient engine state never needs
//! serializing; [`MemorySystem::save_state`] enforces that invariant and
//! refuses to snapshot a non-quiescent hierarchy.
//!
//! # File format
//!
//! Three lines of UTF-8 text:
//!
//! ```text
//! SSTBCKPT v1
//! <16 hex digits: fnv1a64 of the payload line>
//! <single-line JSON payload>
//! ```
//!
//! The payload carries an `identity` block (application name, trace content
//! hash, GPU config hash, fidelity description, thread count) that must
//! match the resuming run exactly, four state sections (`stats`, `kernels`,
//! `sampling`, `memory`), and a `section_hashes` block with the fnv1a64 of
//! each section's serialized form. The whole-payload hash detects
//! truncation and bit flips; the per-section hashes localize a mismatch and
//! are folded into campaign job keys so a resumed job caches under a key
//! that names the exact state it started from.
//!
//! All 64-bit state (cache tags, RNG words, cycle counts, `f64` bit
//! patterns) is encoded as **hex word streams** — space-separated lowercase
//! hex words inside JSON strings — because the JSON number representation
//! is an `f64` and only exact below 2^53. `WordWriter`/`WordReader` are
//! the crate-internal helpers every component serializer uses.
//!
//! Snapshots are written atomically (write to a `.tmp` sibling, then
//! rename), so a crash mid-write never leaves a half-snapshot at the
//! target path.
//!
//! [`MemorySystem::save_state`]: crate::mem_system::MemorySystem::save_state

use crate::error::SimError;
use crate::result::KernelResult;
use crate::sm::SmStats;
use crate::Cycle;
use std::path::Path;
use swiftsim_config::fnv1a64;
use swiftsim_metrics::Json;

/// Format-version tag on the first line of every snapshot file.
const MAGIC: &str = "SSTBCKPT v1";

/// Serialize `u64` words as a space-separated lowercase-hex stream.
///
/// JSON numbers are `f64` and lose precision above 2^53; cache tags, RNG
/// state, and `f64::to_bits` patterns need all 64 bits, so component state
/// travels through JSON as strings of hex words instead.
#[derive(Debug, Default)]
pub(crate) struct WordWriter {
    out: String,
}

impl WordWriter {
    pub(crate) fn new() -> Self {
        WordWriter::default()
    }

    /// Append one word.
    pub(crate) fn push(&mut self, word: u64) {
        use std::fmt::Write as _;
        if !self.out.is_empty() {
            self.out.push(' ');
        }
        let _ = write!(self.out, "{word:x}");
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub(crate) fn push_f64(&mut self, value: f64) {
        self.push(value.to_bits());
    }

    /// Append a length-prefixed run of words.
    pub(crate) fn push_slice(&mut self, words: &[u64]) {
        self.push(words.len() as u64);
        for &w in words {
            self.push(w);
        }
    }

    /// The finished stream.
    pub(crate) fn finish(self) -> String {
        self.out
    }
}

/// Parse a [`WordWriter`] stream back into words, with exhaustion checks.
#[derive(Debug)]
pub(crate) struct WordReader<'a> {
    words: std::str::SplitAsciiWhitespace<'a>,
    what: &'a str,
}

impl<'a> WordReader<'a> {
    /// Read from `text`; `what` names the stream in error messages.
    pub(crate) fn new(text: &'a str, what: &'a str) -> Self {
        WordReader {
            words: text.split_ascii_whitespace(),
            what,
        }
    }

    /// The next word.
    pub(crate) fn next(&mut self) -> Result<u64, String> {
        let token = self
            .words
            .next()
            .ok_or_else(|| format!("{}: word stream truncated", self.what))?;
        u64::from_str_radix(token, 16).map_err(|_| format!("{}: bad hex word {token:?}", self.what))
    }

    /// The next word as an `f64` bit pattern.
    pub(crate) fn next_f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.next()?))
    }

    /// The next word as a `usize`.
    pub(crate) fn next_usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.next()?).map_err(|_| format!("{}: word exceeds usize", self.what))
    }

    /// A length-prefixed run of words written by [`WordWriter::push_slice`].
    pub(crate) fn next_slice(&mut self) -> Result<Vec<u64>, String> {
        let len = self.next_usize()?;
        // Cap the preallocation: a corrupt length must not OOM the reader.
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(self.next()?);
        }
        Ok(out)
    }

    /// Assert the stream is fully consumed.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        if self.words.next().is_some() {
            return Err(format!("{}: trailing words in stream", self.what));
        }
        Ok(())
    }
}

fn checkpoint_err(message: impl Into<String>) -> SimError {
    SimError::Checkpoint {
        message: message.into(),
    }
}

/// Everything a simulation carries across a kernel boundary, in a form
/// that can be written to disk and resumed bit-identically.
///
/// Produced by `swiftsim run --checkpoint-out` (one snapshot per kernel
/// boundary, atomically replacing the previous one) and consumed by
/// `--resume`. The serve daemon uses the same snapshots to migrate
/// in-flight jobs off a draining coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Application name (identity).
    pub(crate) app: String,
    /// Trace content hash (identity).
    pub(crate) content_hash: u64,
    /// [`GpuConfig::stable_hash`](swiftsim_config::GpuConfig::stable_hash)
    /// of the run's configuration (identity).
    pub(crate) config_hash: u64,
    /// [`FidelityConfig::describe`](crate::FidelityConfig::describe) of the
    /// run's fidelity (identity).
    pub(crate) fidelity: String,
    /// Worker threads the run used (identity: the two-phase engine's
    /// shard grouping depends on it).
    pub(crate) threads: usize,
    /// Index of the first kernel the resumed run must simulate.
    pub(crate) next_kernel: usize,
    /// Simulated cycle at the boundary.
    pub(crate) cycle: Cycle,
    /// Whole-run statistics accumulated so far.
    pub(crate) total_stats: SmStats,
    /// Per-kernel results of the kernels already simulated.
    pub(crate) kernels: Vec<KernelResult>,
    /// Sampling measurements (`None` when sampling is off).
    pub(crate) sampling: Option<Vec<u64>>,
    /// Persistent memory-hierarchy state, as serialized by the run's
    /// [`MemorySystem::save_state`](crate::mem_system::MemorySystem::save_state).
    pub(crate) memory: Json,
}

/// Names of the four state sections, in serialization order.
const SECTION_NAMES: [&str; 4] = ["stats", "kernels", "sampling", "memory"];

impl Snapshot {
    /// Application name recorded in the snapshot.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Index of the first kernel a resumed run will simulate; equivalently,
    /// the number of kernels already completed.
    pub fn next_kernel(&self) -> usize {
        self.next_kernel
    }

    /// Simulated cycle at the snapshot's kernel boundary.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Fidelity description the snapshot was taken under.
    pub fn fidelity(&self) -> &str {
        &self.fidelity
    }

    /// Worker-thread count the snapshot was taken under.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// fnv1a64 of each state section's serialized form, in a stable order.
    ///
    /// Campaign job keys fold these in on resume so a resumed job caches
    /// under a key naming the exact state it started from.
    pub fn section_hashes(&self) -> Vec<(&'static str, u64)> {
        SECTION_NAMES
            .iter()
            .zip(self.sections())
            .map(|(&name, json)| (name, fnv1a64(json.dump().as_bytes())))
            .collect()
    }

    /// A single stable digest folding every section hash — the value
    /// campaign job keys mix in when a job resumes from this snapshot.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for (name, hash) in self.section_hashes() {
            text.push_str(name);
            text.push(':');
            text.push_str(&format!("{hash:016x}"));
            text.push(' ');
        }
        fnv1a64(text.as_bytes())
    }

    fn sections(&self) -> [Json; 4] {
        let mut stats = WordWriter::new();
        stats.push(self.cycle);
        push_stats(&mut stats, &self.total_stats);
        let kernels = Json::Arr(
            self.kernels
                .iter()
                .map(|k| {
                    let mut w = WordWriter::new();
                    w.push(k.cycles);
                    w.push(k.instructions);
                    w.push(k.blocks);
                    Json::obj(vec![
                        ("name", Json::str(k.name.clone())),
                        ("v", Json::str(w.finish())),
                    ])
                })
                .collect(),
        );
        let sampling = match &self.sampling {
            None => Json::Null,
            Some(words) => {
                let mut w = WordWriter::new();
                for &word in words {
                    w.push(word);
                }
                Json::str(w.finish())
            }
        };
        [
            Json::str(stats.finish()),
            kernels,
            sampling,
            self.memory.clone(),
        ]
    }

    fn payload(&self) -> Json {
        let sections = self.sections();
        let section_hashes = Json::obj(
            SECTION_NAMES
                .iter()
                .zip(&sections)
                .map(|(&name, json)| {
                    (
                        name,
                        Json::str(format!("{:016x}", fnv1a64(json.dump().as_bytes()))),
                    )
                })
                .collect(),
        );
        let [stats, kernels, sampling, memory] = sections;
        Json::obj(vec![
            ("version", Json::int(1)),
            (
                "result_schema",
                Json::int(crate::json::RESULT_SCHEMA_VERSION),
            ),
            (
                "identity",
                Json::obj(vec![
                    ("app", Json::str(self.app.clone())),
                    (
                        "content_hash",
                        Json::str(format!("{:016x}", self.content_hash)),
                    ),
                    (
                        "config_hash",
                        Json::str(format!("{:016x}", self.config_hash)),
                    ),
                    ("fidelity", Json::str(self.fidelity.clone())),
                    ("threads", Json::int(self.threads as u64)),
                ]),
            ),
            ("next_kernel", Json::int(self.next_kernel as u64)),
            ("stats", stats),
            ("kernels", kernels),
            ("sampling", sampling),
            ("memory", memory),
            ("section_hashes", section_hashes),
        ])
    }

    /// Render the snapshot as `SSTBCKPT v1` file text.
    pub fn to_text(&self) -> String {
        let payload = self.payload().dump();
        format!("{MAGIC}\n{:016x}\n{payload}\n", fnv1a64(payload.as_bytes()))
    }

    /// Write the snapshot to `path` atomically (temp sibling + rename), so
    /// a crash mid-write never leaves a torn snapshot where a resume (or
    /// the serve daemon's drain path) would read it.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] on any I/O failure.
    pub fn write_to(&self, path: &Path) -> Result<(), SimError> {
        let tmp = tmp_sibling(path);
        std::fs::write(&tmp, self.to_text())
            .map_err(|e| checkpoint_err(format!("writing checkpoint {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            checkpoint_err(format!("publishing checkpoint {}: {e}", path.display()))
        })
    }

    /// Parse snapshot file text (see [`Snapshot::read_from`]).
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] on a bad magic line, a payload-hash
    /// mismatch (truncation or bit flip), a section-hash mismatch, or any
    /// malformed section.
    pub fn from_text(text: &str) -> Result<Snapshot, SimError> {
        let mut lines = text.lines();
        let magic = lines.next().unwrap_or("");
        if magic != MAGIC {
            return Err(checkpoint_err(format!(
                "not a checkpoint file (expected {MAGIC:?} header, found {magic:?})"
            )));
        }
        let stored_hash = lines
            .next()
            .ok_or_else(|| checkpoint_err("checkpoint truncated before payload hash"))?;
        let payload_line = lines
            .next()
            .ok_or_else(|| checkpoint_err("checkpoint truncated before payload"))?;
        let actual = format!("{:016x}", fnv1a64(payload_line.as_bytes()));
        if stored_hash != actual {
            return Err(checkpoint_err(format!(
                "checkpoint corrupt: payload hash {actual} does not match stored {stored_hash} \
                 (file truncated or bits flipped)"
            )));
        }
        let payload = Json::parse(payload_line)
            .map_err(|e| checkpoint_err(format!("checkpoint payload: {e}")))?;
        Snapshot::from_payload(&payload)
    }

    /// Read and validate a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] on I/O failure or any corruption detected
    /// by [`Snapshot::from_text`].
    pub fn read_from(path: &Path) -> Result<Snapshot, SimError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| checkpoint_err(format!("reading checkpoint {}: {e}", path.display())))?;
        Snapshot::from_text(&text).map_err(|e| match e {
            SimError::Checkpoint { message } => {
                checkpoint_err(format!("{}: {message}", path.display()))
            }
            other => other,
        })
    }

    fn from_payload(payload: &Json) -> Result<Snapshot, SimError> {
        let version = payload
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| checkpoint_err("checkpoint payload missing version"))?;
        if version != 1 {
            return Err(checkpoint_err(format!(
                "unsupported checkpoint version {version} (this build reads version 1)"
            )));
        }
        let identity = payload
            .get("identity")
            .ok_or_else(|| checkpoint_err("checkpoint payload missing identity"))?;
        let ident_str = |key: &str| -> Result<String, SimError> {
            identity
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| checkpoint_err(format!("checkpoint identity missing {key}")))
        };
        let ident_hash = |key: &str| -> Result<u64, SimError> {
            let text = ident_str(key)?;
            u64::from_str_radix(&text, 16)
                .map_err(|_| checkpoint_err(format!("checkpoint identity {key} is not hex")))
        };
        let threads = identity
            .get("threads")
            .and_then(Json::as_u64)
            .ok_or_else(|| checkpoint_err("checkpoint identity missing threads"))?
            as usize;
        let next_kernel = payload
            .get("next_kernel")
            .and_then(Json::as_u64)
            .ok_or_else(|| checkpoint_err("checkpoint payload missing next_kernel"))?
            as usize;

        // Verify each section against its stored hash before decoding, so a
        // flipped bit is reported as corruption in a named section rather
        // than as a confusing parse error.
        let hashes = payload
            .get("section_hashes")
            .ok_or_else(|| checkpoint_err("checkpoint payload missing section_hashes"))?;
        let section = |name: &str| -> Result<&Json, SimError> {
            let json = payload.get(name).ok_or_else(|| {
                checkpoint_err(format!("checkpoint payload missing section {name}"))
            })?;
            let stored = hashes.get(name).and_then(Json::as_str).ok_or_else(|| {
                checkpoint_err(format!("checkpoint missing hash for section {name}"))
            })?;
            let actual = format!("{:016x}", fnv1a64(json.dump().as_bytes()));
            if stored != actual {
                return Err(checkpoint_err(format!(
                    "checkpoint section {name} corrupt: hash {actual} does not match stored {stored}"
                )));
            }
            Ok(json)
        };

        let stats_text = section("stats")?
            .as_str()
            .ok_or_else(|| checkpoint_err("checkpoint stats section is not a string"))?;
        let mut r = WordReader::new(stats_text, "stats section");
        let (cycle, total_stats) = (|| -> Result<(Cycle, SmStats), String> {
            let cycle = r.next()?;
            let stats = read_stats(&mut r)?;
            r.finish()?;
            Ok((cycle, stats))
        })()
        .map_err(checkpoint_err)?;

        let kernels_json = section("kernels")?
            .as_arr()
            .ok_or_else(|| checkpoint_err("checkpoint kernels section is not an array"))?
            .to_vec();
        let mut kernels = Vec::with_capacity(kernels_json.len());
        for entry in &kernels_json {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| checkpoint_err("checkpoint kernel entry missing name"))?
                .to_owned();
            let words = entry
                .get("v")
                .and_then(Json::as_str)
                .ok_or_else(|| checkpoint_err("checkpoint kernel entry missing words"))?;
            let mut r = WordReader::new(words, "kernel entry");
            let parsed = (|| -> Result<KernelResult, String> {
                let k = KernelResult {
                    name,
                    cycles: r.next()?,
                    instructions: r.next()?,
                    blocks: r.next()?,
                };
                r.finish()?;
                Ok(k)
            })()
            .map_err(checkpoint_err)?;
            kernels.push(parsed);
        }

        let sampling = match section("sampling")? {
            Json::Null => None,
            json => {
                let text = json
                    .as_str()
                    .ok_or_else(|| checkpoint_err("checkpoint sampling section is not a string"))?;
                let mut r = WordReader::new(text, "sampling section");
                let mut words = Vec::new();
                while let Ok(w) = r.next() {
                    words.push(w);
                }
                Some(words)
            }
        };

        Ok(Snapshot {
            app: ident_str("app")?,
            content_hash: ident_hash("content_hash")?,
            config_hash: ident_hash("config_hash")?,
            fidelity: ident_str("fidelity")?,
            threads,
            next_kernel,
            cycle,
            total_stats,
            kernels,
            sampling,
            memory: section("memory")?.clone(),
        })
    }

    /// Check that this snapshot was taken by a run identical to the one
    /// resuming from it. Resumption is only bit-identical when the trace,
    /// configuration, fidelity, and thread count all match.
    pub(crate) fn validate_identity(
        &self,
        app: &str,
        content_hash: u64,
        config_hash: u64,
        fidelity: &str,
        threads: usize,
    ) -> Result<(), SimError> {
        let mismatch = |what: &str, snap: &str, run: &str| {
            checkpoint_err(format!(
                "checkpoint {what} mismatch: snapshot was taken with {snap:?}, this run has {run:?}"
            ))
        };
        if self.app != app {
            return Err(mismatch("application", &self.app, app));
        }
        if self.content_hash != content_hash {
            return Err(mismatch(
                "trace content",
                &format!("{:016x}", self.content_hash),
                &format!("{content_hash:016x}"),
            ));
        }
        if self.config_hash != config_hash {
            return Err(mismatch(
                "GPU config",
                &format!("{:016x}", self.config_hash),
                &format!("{config_hash:016x}"),
            ));
        }
        if self.fidelity != fidelity {
            return Err(mismatch("fidelity", &self.fidelity, fidelity));
        }
        if self.threads != threads {
            return Err(mismatch(
                "thread count",
                &self.threads.to_string(),
                &threads.to_string(),
            ));
        }
        Ok(())
    }
}

fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The 10 [`SmStats`] counters as a fixed word array (field order).
pub(crate) fn stats_words(s: &SmStats) -> [u64; 10] {
    [
        s.issued,
        s.mem_insts,
        s.stall_scoreboard,
        s.stall_unit_busy,
        s.stall_barrier,
        s.stall_empty,
        s.shared_bank_conflicts,
        s.icache_misses,
        s.ccache_misses,
        s.active_cycles,
    ]
}

/// Rebuild [`SmStats`] from the word array written by [`stats_words`].
pub(crate) fn stats_from_words(w: &[u64; 10]) -> SmStats {
    SmStats {
        issued: w[0],
        mem_insts: w[1],
        stall_scoreboard: w[2],
        stall_unit_busy: w[3],
        stall_barrier: w[4],
        stall_empty: w[5],
        shared_bank_conflicts: w[6],
        icache_misses: w[7],
        ccache_misses: w[8],
        active_cycles: w[9],
    }
}

fn push_stats(w: &mut WordWriter, s: &SmStats) {
    w.push(s.issued);
    w.push(s.mem_insts);
    w.push(s.stall_scoreboard);
    w.push(s.stall_unit_busy);
    w.push(s.stall_barrier);
    w.push(s.stall_empty);
    w.push(s.shared_bank_conflicts);
    w.push(s.icache_misses);
    w.push(s.ccache_misses);
    w.push(s.active_cycles);
}

fn read_stats(r: &mut WordReader<'_>) -> Result<SmStats, String> {
    Ok(SmStats {
        issued: r.next()?,
        mem_insts: r.next()?,
        stall_scoreboard: r.next()?,
        stall_unit_busy: r.next()?,
        stall_barrier: r.next()?,
        stall_empty: r.next()?,
        shared_bank_conflicts: r.next()?,
        icache_misses: r.next()?,
        ccache_misses: r.next()?,
        active_cycles: r.next()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            app: "vecadd".to_owned(),
            content_hash: 0xdead_beef_0123_4567,
            config_hash: 0x8899_aabb_ccdd_eeff,
            fidelity: "cycle_accurate_alu+cycle_accurate_memory+detailed_frontend+event_driven"
                .to_owned(),
            threads: 2,
            next_kernel: 3,
            cycle: 123_456_789,
            total_stats: SmStats {
                issued: u64::MAX - 7, // exercise > 2^53 round trip
                mem_insts: 42,
                ..SmStats::default()
            },
            kernels: vec![
                KernelResult {
                    name: "k0".to_owned(),
                    cycles: 1000,
                    instructions: 5000,
                    blocks: 16,
                },
                KernelResult {
                    name: "k1".to_owned(),
                    cycles: u64::MAX / 3,
                    instructions: 2,
                    blocks: 1,
                },
            ],
            sampling: Some(vec![1, 2, u64::MAX]),
            memory: Json::obj(vec![
                ("kind", Json::str("analytical")),
                ("v", Json::str("ff 0 1")),
            ]),
        }
    }

    #[test]
    fn word_stream_round_trips_full_u64_range() {
        let mut w = WordWriter::new();
        for &v in &[0u64, 1, u64::MAX, 1 << 53, (1 << 53) + 1] {
            w.push(v);
        }
        w.push_f64(core::f64::consts::PI);
        w.push_slice(&[7, 8, 9]);
        let text = w.finish();
        let mut r = WordReader::new(&text, "test");
        for &v in &[0u64, 1, u64::MAX, 1 << 53, (1 << 53) + 1] {
            assert_eq!(r.next().unwrap(), v);
        }
        assert_eq!(r.next_f64().unwrap(), core::f64::consts::PI);
        assert_eq!(r.next_slice().unwrap(), vec![7, 8, 9]);
        r.finish().unwrap();
    }

    #[test]
    fn word_reader_rejects_truncation_and_garbage() {
        let mut r = WordReader::new("ff", "t");
        r.next().unwrap();
        assert!(r.next().unwrap_err().contains("truncated"));
        let mut r = WordReader::new("xyzzy", "t");
        assert!(r.next().unwrap_err().contains("bad hex"));
        let r = WordReader::new("1 2", "t");
        let mut r2 = r;
        r2.next().unwrap();
        assert!(r2.finish().unwrap_err().contains("trailing"));
    }

    #[test]
    fn snapshot_text_round_trips() {
        let snap = sample_snapshot();
        let parsed = Snapshot::from_text(&snap.to_text()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn snapshot_file_round_trips_atomically() {
        let dir = std::env::temp_dir().join("sstb_ckpt_test_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.sstbckpt");
        let snap = sample_snapshot();
        snap.write_to(&path).unwrap();
        // No temp sibling left behind.
        assert!(!tmp_sibling(&path).exists());
        assert_eq!(Snapshot::read_from(&path).unwrap(), snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let text = sample_snapshot().to_text();
        // Cut the payload line short: the whole-payload hash must catch it.
        let cut = &text[..text.len() - 30];
        let err = Snapshot::from_text(cut).unwrap_err().to_string();
        assert!(
            err.contains("corrupt") || err.contains("truncated"),
            "{err}"
        );
    }

    #[test]
    fn bit_flipped_snapshot_is_rejected() {
        let text = sample_snapshot().to_text();
        // Flip one hex digit inside the payload (third line).
        let payload_start = text.match_indices('\n').nth(1).unwrap().0 + 1;
        let flip_at = payload_start + text[payload_start..].find("deadbeef").unwrap();
        let mut bytes = text.into_bytes();
        bytes[flip_at] = b'f';
        let flipped = String::from_utf8(bytes).unwrap();
        let err = Snapshot::from_text(&flipped).unwrap_err().to_string();
        assert!(err.contains("corrupt"), "{err}");
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let err = Snapshot::from_text("SSTB v0\nabc\n{}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("not a checkpoint file"), "{err}");
    }

    #[test]
    fn identity_mismatches_are_named() {
        let snap = sample_snapshot();
        let fid = snap.fidelity.clone();
        assert!(snap
            .validate_identity("vecadd", snap.content_hash, snap.config_hash, &fid, 2)
            .is_ok());
        let err = snap
            .validate_identity("other", snap.content_hash, snap.config_hash, &fid, 2)
            .unwrap_err()
            .to_string();
        assert!(err.contains("application"), "{err}");
        let err = snap
            .validate_identity("vecadd", 1, snap.config_hash, &fid, 2)
            .unwrap_err()
            .to_string();
        assert!(err.contains("trace content"), "{err}");
        let err = snap
            .validate_identity("vecadd", snap.content_hash, snap.config_hash, &fid, 4)
            .unwrap_err()
            .to_string();
        assert!(err.contains("thread count"), "{err}");
    }

    #[test]
    fn section_hashes_and_digest_are_stable_and_state_sensitive() {
        let snap = sample_snapshot();
        let hashes = snap.section_hashes();
        assert_eq!(
            hashes.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec!["stats", "kernels", "sampling", "memory"]
        );
        assert_eq!(snap.digest(), sample_snapshot().digest());
        let mut later = sample_snapshot();
        later.cycle += 1;
        assert_ne!(snap.digest(), later.digest(), "digest must track state");
    }
}
