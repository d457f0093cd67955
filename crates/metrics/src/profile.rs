//! Self-profiling instrumentation: where does the *simulator* spend its
//! own wall-clock time?
//!
//! The paper's headline numbers (Fig. 4/5) are wall-clock claims, so the
//! framework needs to attribute its own run time to the modules of §III —
//! block scheduler, warp scheduler, ALU pipeline, LD/ST + coalescer, L1,
//! NoC, L2, DRAM — to know which component to parallelize or approximate
//! next. This module provides that substrate:
//!
//! * [`Profiler`] — a per-shard recorder of module wall-time and cycle
//!   attribution. When disabled every call is a single branch on an enum
//!   discriminant, so instrumented hot loops pay effectively nothing.
//! * [`ProfileReport`] — the merged result: per-kernel frames with
//!   per-module totals, renderable as a text attribution [`Table`] or as a
//!   Chrome trace-event / Perfetto-compatible [`Json`] document.
//!
//! Timing granularity is deliberately coarse: one span per module per
//! simulated kernel (a *frame*), accumulated from many small
//! [`Profiler::record`] calls. That keeps `--profile` overhead low while
//! still answering "where did the time go" per kernel and per module.

use crate::json::Json;
use crate::table::Table;
use std::time::{Duration, Instant};

/// A simulator module that can be attributed wall time and cycles.
///
/// Mirrors the module decomposition of the paper's Fig. 1: the SM-side
/// pipeline stages, the memory hierarchy levels, and the analytical memory
/// model that replaces the latter under the `swift-sim-memory` preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfModule {
    /// Kernel/block dispatch bookkeeping.
    BlockScheduler,
    /// Warp scan, stall classification, and pick.
    WarpScheduler,
    /// ALU/SFU/tensor issue and write-back pipeline.
    Alu,
    /// LD/ST unit: address generation and the coalescer.
    LdSt,
    /// L1 data cache (tag checks, MSHR, fills).
    L1,
    /// Interconnect between SMs and memory partitions.
    Noc,
    /// L2 cache slices.
    L2,
    /// DRAM timing model.
    Dram,
    /// The analytical memory model (Eq. 1) used by `swift-sim-memory`.
    MemAnalytical,
    /// Trace ingestion: decoding a kernel from its `TraceSource` (runs on
    /// the prefetch thread, overlapping simulation of the prior kernel).
    TraceDecode,
    /// Everything not covered by a finer-grained module (event-loop glue,
    /// time advance, termination checks).
    Other,
    /// Quiescent cycles the event-driven engine fast-forwarded over instead
    /// of ticking (cycle attribution only; skipping costs no wall time).
    CycleSkip,
    /// Two-phase parallel engine synchronization: the coordinator waiting
    /// on shard compute phases and committing their buffered events.
    PhaseSync,
}

impl ProfModule {
    /// Every module, in fixed report order.
    pub const ALL: [ProfModule; 13] = [
        ProfModule::BlockScheduler,
        ProfModule::WarpScheduler,
        ProfModule::Alu,
        ProfModule::LdSt,
        ProfModule::L1,
        ProfModule::Noc,
        ProfModule::L2,
        ProfModule::Dram,
        ProfModule::MemAnalytical,
        ProfModule::TraceDecode,
        ProfModule::Other,
        ProfModule::CycleSkip,
        ProfModule::PhaseSync,
    ];

    /// Dense index of this module in [`ProfModule::ALL`].
    pub fn index(self) -> usize {
        match self {
            ProfModule::BlockScheduler => 0,
            ProfModule::WarpScheduler => 1,
            ProfModule::Alu => 2,
            ProfModule::LdSt => 3,
            ProfModule::L1 => 4,
            ProfModule::Noc => 5,
            ProfModule::L2 => 6,
            ProfModule::Dram => 7,
            ProfModule::MemAnalytical => 8,
            ProfModule::TraceDecode => 9,
            ProfModule::Other => 10,
            ProfModule::CycleSkip => 11,
            ProfModule::PhaseSync => 12,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ProfModule::BlockScheduler => "block-scheduler",
            ProfModule::WarpScheduler => "warp-scheduler",
            ProfModule::Alu => "alu-pipeline",
            ProfModule::LdSt => "ldst-coalescer",
            ProfModule::L1 => "l1-cache",
            ProfModule::Noc => "noc",
            ProfModule::L2 => "l2-cache",
            ProfModule::Dram => "dram",
            ProfModule::MemAnalytical => "mem-analytical",
            ProfModule::TraceDecode => "trace-decode",
            ProfModule::Other => "other",
            ProfModule::CycleSkip => "cycle-skip",
            ProfModule::PhaseSync => "phase-sync",
        }
    }

    /// Inverse of [`ProfModule::name`], for deserializing reports shipped
    /// between processes (worker → coordinator).
    pub fn from_name(name: &str) -> Option<ProfModule> {
        ProfModule::ALL.iter().copied().find(|m| m.name() == name)
    }

    /// Trace-event category: which side of the GPU the module sits on.
    fn category(self) -> &'static str {
        match self {
            ProfModule::BlockScheduler
            | ProfModule::WarpScheduler
            | ProfModule::Alu
            | ProfModule::LdSt => "core",
            ProfModule::L1
            | ProfModule::Noc
            | ProfModule::L2
            | ProfModule::Dram
            | ProfModule::MemAnalytical => "mem",
            ProfModule::TraceDecode
            | ProfModule::Other
            | ProfModule::CycleSkip
            | ProfModule::PhaseSync => "sim",
        }
    }
}

const NUM_MODULES: usize = ProfModule::ALL.len();

/// Per-module accumulators within one frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ModuleTotals {
    wall_ns: u64,
    cycles: u64,
    events: u64,
}

/// One profiled span of simulation — in practice, one kernel on one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfFrame {
    /// Display name, e.g. `"k0:matmul"`.
    pub name: String,
    /// Track (shard) the frame ran on; track 0 is the single-threaded run.
    pub track: usize,
    /// Frame start, nanoseconds since the profiler epoch.
    pub start_ns: u64,
    /// Frame end, nanoseconds since the profiler epoch.
    pub end_ns: u64,
    totals: [ModuleTotals; NUM_MODULES],
}

impl ProfFrame {
    /// Wall time attributed to `module` in this frame.
    pub fn wall(&self, module: ProfModule) -> Duration {
        Duration::from_nanos(self.totals[module.index()].wall_ns)
    }

    /// Simulated cycles attributed to `module` in this frame.
    pub fn cycles(&self, module: ProfModule) -> u64 {
        self.totals[module.index()].cycles
    }

    /// Number of recorded events for `module` in this frame.
    pub fn events(&self, module: ProfModule) -> u64 {
        self.totals[module.index()].events
    }

    /// Build a frame from explicit per-module `(module, wall_ns, cycles,
    /// events)` entries — the constructor used when deserializing frames
    /// recorded in another process.
    pub fn from_parts(
        name: &str,
        track: usize,
        start_ns: u64,
        end_ns: u64,
        entries: &[(ProfModule, u64, u64, u64)],
    ) -> ProfFrame {
        let mut totals = [ModuleTotals::default(); NUM_MODULES];
        for &(module, wall_ns, cycles, events) in entries {
            let t = &mut totals[module.index()];
            t.wall_ns = t.wall_ns.saturating_add(wall_ns);
            t.cycles = t.cycles.saturating_add(cycles);
            t.events = t.events.saturating_add(events);
        }
        ProfFrame {
            name: name.to_owned(),
            track,
            start_ns,
            end_ns,
            totals,
        }
    }

    /// Serialize to JSON. Module totals are emitted by stable module name
    /// as `[wall_ns, cycles, events]` triples; inactive modules are
    /// omitted.
    pub fn to_json(&self) -> Json {
        let totals: Vec<(String, Json)> = ProfModule::ALL
            .iter()
            .filter_map(|&m| {
                let t = self.totals[m.index()];
                if t.wall_ns == 0 && t.cycles == 0 && t.events == 0 {
                    return None;
                }
                Some((
                    m.name().to_owned(),
                    Json::Arr(vec![
                        Json::int(t.wall_ns),
                        Json::int(t.cycles),
                        Json::int(t.events),
                    ]),
                ))
            })
            .collect();
        Json::obj(vec![
            ("name", Json::str(self.name.as_str())),
            ("track", Json::int(self.track as u64)),
            ("start_ns", Json::int(self.start_ns)),
            ("end_ns", Json::int(self.end_ns)),
            ("totals", Json::Obj(totals)),
        ])
    }

    /// Deserialize a frame written by [`ProfFrame::to_json`]. Module names
    /// from a different build that no longer resolve are skipped rather
    /// than rejected, so traces stay forward-compatible.
    pub fn from_json(v: &Json) -> Result<ProfFrame, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("frame missing name")?;
        let track = v
            .get("track")
            .and_then(Json::as_u64)
            .ok_or("frame missing track")? as usize;
        let start_ns = v
            .get("start_ns")
            .and_then(Json::as_u64)
            .ok_or("frame missing start_ns")?;
        let end_ns = v
            .get("end_ns")
            .and_then(Json::as_u64)
            .ok_or("frame missing end_ns")?;
        let mut entries = Vec::new();
        if let Some(Json::Obj(totals)) = v.get("totals") {
            for (module_name, triple) in totals {
                let Some(module) = ProfModule::from_name(module_name) else {
                    continue;
                };
                let triple = triple.as_arr().ok_or("totals entry not an array")?;
                let get = |i: usize| triple.get(i).and_then(Json::as_u64).unwrap_or(0);
                entries.push((module, get(0), get(1), get(2)));
            }
        }
        Ok(ProfFrame::from_parts(
            name, track, start_ns, end_ns, &entries,
        ))
    }
}

/// Records module wall-time and cycle attribution for one execution shard.
///
/// All methods are near-free when the profiler is disabled: [`Profiler::start`]
/// returns `None` without reading the clock, and the other entry points
/// check `enabled` first. The hot-loop contract is
///
/// ```
/// use swiftsim_metrics::{ProfModule, Profiler};
///
/// let mut prof = Profiler::enabled();
/// prof.begin_frame("k0:demo");
/// let t0 = prof.start();            // None when disabled — no clock read
/// // ... do module work ...
/// prof.record(ProfModule::Alu, t0); // no-op when t0 is None
/// prof.add_cycles(ProfModule::Alu, 4);
/// prof.end_frame();
/// assert_eq!(prof.frames().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Profiler {
    enabled: bool,
    epoch: Instant,
    track: usize,
    frames: Vec<ProfFrame>,
    current: Option<ProfFrame>,
}

impl Profiler {
    /// A disabled profiler: every call is a cheap no-op.
    pub fn disabled() -> Self {
        Profiler {
            enabled: false,
            epoch: Instant::now(),
            track: 0,
            frames: Vec::new(),
            current: None,
        }
    }

    /// An enabled profiler with its own epoch, recording on track 0.
    pub fn enabled() -> Self {
        Profiler {
            enabled: true,
            epoch: Instant::now(),
            track: 0,
            frames: Vec::new(),
            current: None,
        }
    }

    /// An enabled profiler sharing `epoch` with sibling shards, recording
    /// on `track`. Parallel runs hand every shard the same epoch so their
    /// frames line up on one timeline.
    pub fn enabled_on_track(epoch: Instant, track: usize) -> Self {
        Profiler {
            enabled: true,
            epoch,
            track,
            frames: Vec::new(),
            current: None,
        }
    }

    /// Whether this profiler records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The epoch all timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Begin a new frame (one simulated kernel). Implicitly ends any open
    /// frame. No-op when disabled.
    pub fn begin_frame(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        self.end_frame();
        let now = self.now_ns();
        self.current = Some(ProfFrame {
            name: name.to_owned(),
            track: self.track,
            start_ns: now,
            end_ns: now,
            totals: [ModuleTotals::default(); NUM_MODULES],
        });
    }

    /// Close the open frame, if any. No-op when disabled or no frame open.
    pub fn end_frame(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(mut frame) = self.current.take() {
            frame.end_ns = self.now_ns();
            self.frames.push(frame);
        }
    }

    /// Start a span: reads the clock only when enabled, so the disabled
    /// path is a single branch.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Attribute the wall time since `t0` (from [`Profiler::start`]) to
    /// `module`. No-op when `t0` is `None`.
    #[inline]
    pub fn record(&mut self, module: ProfModule, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.record_wall_ns(module, t0.elapsed().as_nanos() as u64, 1);
        }
    }

    /// Attribute `wall_ns` nanoseconds and `events` events to `module`
    /// directly — for callers that split one measured interval across
    /// modules (e.g. the event-driven memory system splitting its
    /// `advance` time by per-level event counts).
    #[inline]
    pub fn record_wall_ns(&mut self, module: ProfModule, wall_ns: u64, events: u64) {
        if !self.enabled {
            return;
        }
        if let Some(frame) = self.current.as_mut() {
            let t = &mut frame.totals[module.index()];
            t.wall_ns += wall_ns;
            t.events += events;
        }
    }

    /// Attribute simulated cycles to `module` in the open frame.
    #[inline]
    pub fn add_cycles(&mut self, module: ProfModule, cycles: u64) {
        if !self.enabled {
            return;
        }
        if let Some(frame) = self.current.as_mut() {
            frame.totals[module.index()].cycles += cycles;
        }
    }

    /// Frames recorded so far (open frame excluded).
    pub fn frames(&self) -> &[ProfFrame] {
        &self.frames
    }

    /// Consume the profiler, closing any open frame, and return a report.
    pub fn into_report(mut self) -> ProfileReport {
        self.end_frame();
        ProfileReport {
            frames: self.frames,
        }
    }

    /// Merge another profiler's frames (e.g. a sibling shard's) into this
    /// one. Both should share an epoch for the timeline to be coherent.
    pub fn absorb(&mut self, other: Profiler) {
        let report = other.into_report();
        self.frames.extend(report.frames);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// The merged output of one profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// All recorded frames, across every shard.
    pub frames: Vec<ProfFrame>,
}

impl ProfileReport {
    /// An empty report.
    pub fn new() -> Self {
        ProfileReport { frames: Vec::new() }
    }

    /// Merge frames from several shard reports into one, ordered by
    /// (start time, track) so output is deterministic.
    pub fn merge(reports: Vec<ProfileReport>) -> Self {
        let mut frames: Vec<ProfFrame> = reports.into_iter().flat_map(|r| r.frames).collect();
        frames.sort_by_key(|f| (f.start_ns, f.track, f.name.clone()));
        ProfileReport { frames }
    }

    /// Total wall time attributed to `module` across all frames.
    pub fn total_wall(&self, module: ProfModule) -> Duration {
        self.frames.iter().map(|f| f.wall(module)).sum()
    }

    /// Total simulated cycles attributed to `module` across all frames.
    pub fn total_cycles(&self, module: ProfModule) -> u64 {
        self.frames.iter().map(|f| f.cycles(module)).sum()
    }

    /// Wall time attributed to any module (the profiled fraction of the
    /// run; event-loop glue outside spans is not included).
    pub fn attributed_wall(&self) -> Duration {
        ProfModule::ALL.iter().map(|&m| self.total_wall(m)).sum()
    }

    /// The per-module attribution table: wall time, share of attributed
    /// time, simulated cycles, and event counts. Modules with no recorded
    /// activity are omitted.
    pub fn attribution_table(&self) -> Table {
        let total = self.attributed_wall().as_nanos().max(1) as f64;
        let mut table = Table::new(vec!["Module", "Wall (ms)", "Share (%)", "Cycles", "Events"]);
        for &module in &ProfModule::ALL {
            let wall = self.total_wall(module);
            let cycles = self.total_cycles(module);
            let events: u64 = self.frames.iter().map(|f| f.events(module)).sum();
            if wall.is_zero() && cycles == 0 && events == 0 {
                continue;
            }
            table.row(vec![
                module.name().to_owned(),
                format!("{:.3}", wall.as_secs_f64() * 1e3),
                format!("{:.1}", wall.as_nanos() as f64 / total * 100.0),
                cycles.to_string(),
                events.to_string(),
            ]);
        }
        table
    }

    /// Export as a Chrome trace-event document (the JSON object format),
    /// loadable in Perfetto and `about://tracing`.
    ///
    /// Each (frame, module) pair with recorded wall time becomes a complete
    /// `"X"` event on a synthetic thread id derived from the shard track
    /// and the module index; `"M"` metadata events name the threads. The
    /// per-module events within one frame are laid out sequentially from
    /// the frame start — the trace shows attribution, not interleaving.
    pub fn to_chrome_trace(&self) -> Json {
        Json::obj(vec![
            ("traceEvents", Json::Arr(self.chrome_events(1, 0, &[]))),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }

    /// The raw trace events behind [`ProfileReport::to_chrome_trace`],
    /// emitted on process `pid` with every timestamp shifted by
    /// `offset_ns` and `extra_args` appended to each span's args.
    ///
    /// This is the multiplexing primitive: a coordinator merging reports
    /// from several workers assigns each worker its own pid, rebases their
    /// clocks via `offset_ns`, and tags spans with trace context (run/task
    /// ids) through `extra_args`.
    pub fn chrome_events(
        &self,
        pid: u64,
        offset_ns: u64,
        extra_args: &[(&str, Json)],
    ) -> Vec<Json> {
        let mut events: Vec<Json> = Vec::new();
        let mut named: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
        for frame in &self.frames {
            // One event per module with activity, plus a frame-spanning
            // event on the track's first row.
            events.push(trace_event(
                &frame.name,
                "frame",
                pid,
                frame.track * (NUM_MODULES + 1),
                frame.start_ns.saturating_add(offset_ns),
                frame.end_ns.saturating_sub(frame.start_ns),
                extra_args.to_vec(),
            ));
            let mut cursor = frame.start_ns.saturating_add(offset_ns);
            for &module in &ProfModule::ALL {
                let t = frame.totals[module.index()];
                if t.wall_ns == 0 && t.cycles == 0 && t.events == 0 {
                    continue;
                }
                let tid = frame.track * (NUM_MODULES + 1) + 1 + module.index();
                named.insert((frame.track, module.index()));
                let mut args = vec![
                    ("cycles", Json::Num(t.cycles as f64)),
                    ("events", Json::Num(t.events as f64)),
                    ("frame", Json::str(frame.name.as_str())),
                ];
                args.extend(extra_args.to_vec());
                events.push(trace_event(
                    module.name(),
                    module.category(),
                    pid,
                    tid,
                    cursor,
                    t.wall_ns,
                    args,
                ));
                cursor += t.wall_ns;
            }
        }
        // Thread-name metadata so Perfetto shows readable rows.
        let mut meta: Vec<(usize, String)> = Vec::new();
        for frame in &self.frames {
            meta.push((
                frame.track * (NUM_MODULES + 1),
                format!("shard{} frames", frame.track),
            ));
        }
        for (track, idx) in named {
            meta.push((
                track * (NUM_MODULES + 1) + 1 + idx,
                format!("shard{} {}", track, ProfModule::ALL[idx].name()),
            ));
        }
        meta.sort();
        meta.dedup();
        for (tid, name) in meta {
            events.push(Json::obj(vec![
                ("ph", Json::str("M")),
                ("name", Json::str("thread_name")),
                ("pid", Json::Num(pid as f64)),
                ("tid", Json::Num(tid as f64)),
                ("args", Json::obj(vec![("name", Json::str(name.as_str()))])),
            ]));
        }
        events
    }

    /// Nanoseconds from the profiler epoch to the last frame end — the
    /// span a coordinator needs when rebasing a remote report onto its own
    /// clock.
    pub fn span_ns(&self) -> u64 {
        self.frames.iter().map(|f| f.end_ns).max().unwrap_or(0)
    }

    /// Serialize the full report (all frames) to JSON.
    ///
    /// This is the wire format workers use to ship their profiler track to
    /// the coordinator with `task-result`; unlike
    /// [`ProfileReport::summary_json`] it is lossless.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "frames",
            Json::Arr(self.frames.iter().map(ProfFrame::to_json).collect()),
        )])
    }

    /// Deserialize a report written by [`ProfileReport::to_json`].
    pub fn from_json(v: &Json) -> Result<ProfileReport, String> {
        let frames = v
            .get("frames")
            .and_then(Json::as_arr)
            .ok_or("report missing frames")?;
        Ok(ProfileReport {
            frames: frames
                .iter()
                .map(ProfFrame::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    /// Compact JSON summary (module → wall-ms / cycles / events), used by
    /// campaign JSONL rows and the bench baseline file.
    pub fn summary_json(&self) -> Json {
        let mut modules: Vec<(&str, Json)> = Vec::new();
        for &module in &ProfModule::ALL {
            let wall = self.total_wall(module);
            let cycles = self.total_cycles(module);
            let events: u64 = self.frames.iter().map(|f| f.events(module)).sum();
            if wall.is_zero() && cycles == 0 && events == 0 {
                continue;
            }
            modules.push((
                module.name(),
                Json::obj(vec![
                    ("wall_ms", Json::Num(wall.as_secs_f64() * 1e3)),
                    ("cycles", Json::Num(cycles as f64)),
                    ("events", Json::Num(events as f64)),
                ]),
            ));
        }
        Json::obj(vec![
            ("attributed_wall_ms", {
                Json::Num(self.attributed_wall().as_secs_f64() * 1e3)
            }),
            ("frames", Json::Num(self.frames.len() as f64)),
            ("modules", Json::obj(modules)),
        ])
    }
}

impl Default for ProfileReport {
    fn default() -> Self {
        ProfileReport::new()
    }
}

fn trace_event(
    name: &str,
    cat: &str,
    pid: u64,
    tid: usize,
    start_ns: u64,
    dur_ns: u64,
    args: Vec<(&str, Json)>,
) -> Json {
    let mut fields = vec![
        ("ph", Json::str("X")),
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("pid", Json::Num(pid as f64)),
        ("tid", Json::Num(tid as f64)),
        // Trace-event timestamps are microseconds; keep sub-µs resolution
        // as a fraction.
        ("ts", Json::Num(start_ns as f64 / 1e3)),
        ("dur", Json::Num(dur_ns as f64 / 1e3)),
    ];
    if !args.is_empty() {
        fields.push(("args", Json::obj(args)));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut prof = Profiler::disabled();
        prof.begin_frame("k0");
        assert!(prof.start().is_none());
        prof.record(ProfModule::Alu, prof.start());
        prof.add_cycles(ProfModule::Alu, 100);
        prof.record_wall_ns(ProfModule::L2, 5_000, 3);
        prof.end_frame();
        let report = prof.into_report();
        assert!(report.frames.is_empty());
        assert_eq!(report.attributed_wall(), Duration::ZERO);
    }

    #[test]
    fn enabled_profiler_attributes_spans() {
        let mut prof = Profiler::enabled();
        prof.begin_frame("k0:demo");
        let t0 = prof.start();
        assert!(t0.is_some());
        prof.record(ProfModule::WarpScheduler, t0);
        prof.add_cycles(ProfModule::WarpScheduler, 42);
        prof.record_wall_ns(ProfModule::Dram, 1_500, 2);
        prof.end_frame();

        let report = prof.into_report();
        assert_eq!(report.frames.len(), 1);
        let frame = &report.frames[0];
        assert_eq!(frame.name, "k0:demo");
        assert_eq!(frame.cycles(ProfModule::WarpScheduler), 42);
        assert_eq!(frame.events(ProfModule::WarpScheduler), 1);
        assert_eq!(frame.wall(ProfModule::Dram), Duration::from_nanos(1_500));
        assert_eq!(frame.events(ProfModule::Dram), 2);
        assert!(report.total_wall(ProfModule::Dram) >= Duration::from_nanos(1_500));
    }

    #[test]
    fn into_report_closes_open_frame() {
        let mut prof = Profiler::enabled();
        prof.begin_frame("k0");
        prof.record_wall_ns(ProfModule::L1, 10, 1);
        let report = prof.into_report();
        assert_eq!(report.frames.len(), 1);
        assert!(report.frames[0].end_ns >= report.frames[0].start_ns);
    }

    #[test]
    fn merge_orders_frames_deterministically() {
        let mk = |name: &str, track: usize, start: u64| ProfFrame {
            name: name.to_owned(),
            track,
            start_ns: start,
            end_ns: start + 10,
            totals: [ModuleTotals::default(); NUM_MODULES],
        };
        let a = ProfileReport {
            frames: vec![mk("k1", 0, 50), mk("k0", 0, 5)],
        };
        let b = ProfileReport {
            frames: vec![mk("k0", 1, 5), mk("k1", 1, 40)],
        };
        let merged = ProfileReport::merge(vec![a, b]);
        let order: Vec<(u64, usize)> = merged
            .frames
            .iter()
            .map(|f| (f.start_ns, f.track))
            .collect();
        assert_eq!(order, vec![(5, 0), (5, 1), (40, 1), (50, 0)]);
    }

    #[test]
    fn attribution_table_lists_active_modules() {
        let mut prof = Profiler::enabled();
        prof.begin_frame("k0");
        prof.record_wall_ns(ProfModule::Alu, 3_000_000, 10);
        prof.record_wall_ns(ProfModule::L2, 1_000_000, 4);
        prof.end_frame();
        let table = prof.into_report().attribution_table();
        let text = table.to_string();
        assert!(text.contains("alu-pipeline"));
        assert!(text.contains("l2-cache"));
        assert!(!text.contains("dram"), "inactive modules omitted:\n{text}");
        assert_eq!(table.num_rows(), 2);
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let mut prof = Profiler::enabled_on_track(Instant::now(), 2);
        prof.begin_frame("k0:nw");
        prof.record_wall_ns(ProfModule::LdSt, 2_000, 5);
        prof.record_wall_ns(ProfModule::Noc, 1_000, 2);
        prof.end_frame();
        let trace = prof.into_report().to_chrome_trace();

        // The document round-trips through the serializer.
        let text = trace.dump();
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 frame event + 2 module events + 3 metadata events.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 3);
        // Module events carry their wall time in microseconds.
        let ldst = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("ldst-coalescer"))
            .unwrap();
        assert_eq!(ldst.get("dur").unwrap().as_f64(), Some(2.0));
        assert_eq!(ldst.get("cat").and_then(Json::as_str), Some("core"));
    }

    #[test]
    fn report_json_round_trips_losslessly() {
        let mut prof = Profiler::enabled_on_track(Instant::now(), 3);
        prof.begin_frame("k0:bfs");
        prof.record_wall_ns(ProfModule::Alu, 2_500, 7);
        prof.add_cycles(ProfModule::CycleSkip, 900);
        prof.end_frame();
        prof.begin_frame("k1:bfs");
        prof.record_wall_ns(ProfModule::Dram, 800, 1);
        prof.end_frame();
        let report = prof.into_report();
        let back = ProfileReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        // And through the actual wire text.
        let text = report.to_json().dump();
        let reparsed = ProfileReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(reparsed, report);
        assert!(report.span_ns() >= report.frames[1].end_ns);
    }

    #[test]
    fn from_name_inverts_name() {
        for &m in &ProfModule::ALL {
            assert_eq!(ProfModule::from_name(m.name()), Some(m));
        }
        assert_eq!(ProfModule::from_name("not-a-module"), None);
    }

    #[test]
    fn chrome_events_rebase_pid_offset_and_args() {
        let frame = ProfFrame::from_parts("k0", 0, 100, 300, &[(ProfModule::Alu, 50, 4, 1)]);
        let report = ProfileReport {
            frames: vec![frame],
        };
        let events = report.chrome_events(7, 1_000_000, &[("task", Json::int(42))]);
        for e in &events {
            assert_eq!(e.get("pid").and_then(Json::as_u64), Some(7));
        }
        let alu = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("alu-pipeline"))
            .unwrap();
        // 100ns frame start + 1ms offset, in microseconds.
        assert_eq!(alu.get("ts").unwrap().as_f64(), Some(1_000_100.0 / 1e3));
        let args = alu.get("args").unwrap();
        assert_eq!(args.get("task").and_then(Json::as_u64), Some(42));
    }

    #[test]
    fn summary_json_reports_totals() {
        let mut prof = Profiler::enabled();
        prof.begin_frame("k0");
        prof.add_cycles(ProfModule::MemAnalytical, 1000);
        prof.record_wall_ns(ProfModule::MemAnalytical, 500, 1);
        prof.end_frame();
        let summary = prof.into_report().summary_json();
        let modules = summary.get("modules").unwrap();
        let entry = modules.get("mem-analytical").unwrap();
        assert_eq!(entry.get("cycles").unwrap().as_f64(), Some(1000.0));
        assert_eq!(summary.get("frames").unwrap().as_f64(), Some(1.0));
    }
}
