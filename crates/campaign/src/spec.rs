//! Campaign specification, expansion, and resolution.
//!
//! A spec is a declarative description of a sweep: for each axis (simulator
//! preset, GPU, workload, per-simulation threads, scheduler override,
//! replacement-policy override) it lists the values to cover, and
//! [`CampaignSpec::expand`] takes the cartesian product in a fixed axis
//! order, so the job list — and every job's index — is deterministic.
//! [`CampaignSpec::resolve`] then loads each distinct GPU config and trace
//! once, applies knob overrides, and computes each job's stable cache key.

use crate::cache::CACHE_KEY_SCHEMA;
use crate::ENGINE_VERSION;
use std::fmt;
use std::sync::Arc;
use swiftsim_config::{fnv1a64, GpuConfig, ReplacementPolicy, SchedulerPolicy};
use swiftsim_core::{
    AluModelKind, FidelityConfig, FrontendModelKind, MemoryModelKind, SamplingPolicy,
    SimulatorPreset, RESULT_SCHEMA_VERSION,
};
use swiftsim_trace::{open_trace, TraceSource};
use swiftsim_workloads::Scale;

/// Error raised while parsing or resolving a campaign spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The spec text or field values are malformed.
    Spec(String),
    /// A GPU preset/config file could not be used.
    Gpu(String),
    /// A workload name or trace file could not be used.
    Workload(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(m) => write!(f, "campaign spec: {m}"),
            CampaignError::Gpu(m) => write!(f, "campaign gpu: {m}"),
            CampaignError::Workload(m) => write!(f, "campaign workload: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Where a job's GPU configuration comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuSource {
    /// A built-in preset name (`rtx2080ti`, `rtx3060`, `rtx3090`).
    Preset(String),
    /// A `-key value` config file on disk.
    File(String),
}

impl GpuSource {
    fn describe(&self) -> &str {
        match self {
            GpuSource::Preset(name) | GpuSource::File(name) => name,
        }
    }
}

/// Where a job's application trace comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSource {
    /// A built-in synthetic workload, generated at the spec's scale.
    Builtin(String),
    /// A text or binary trace file on disk.
    TraceFile(String),
}

impl WorkloadSource {
    fn describe(&self) -> &str {
        match self {
            WorkloadSource::Builtin(name) | WorkloadSource::TraceFile(name) => name,
        }
    }
}

/// A declarative sweep: the cartesian product of every axis below.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (reports and JSONL rows carry it).
    pub name: String,
    /// Simulator presets to cover.
    pub presets: Vec<SimulatorPreset>,
    /// GPU configurations to cover.
    pub gpus: Vec<GpuSource>,
    /// Workloads/traces to cover.
    pub workloads: Vec<WorkloadSource>,
    /// Scale for built-in workloads.
    pub scale: Scale,
    /// Per-simulation worker threads (the SM-sharded parallelism *inside*
    /// one job; the campaign's own parallelism is across jobs). `0` means
    /// auto: resolved against this host's cores and each job's SM count
    /// during [`CampaignSpec::resolve`].
    pub threads: Vec<usize>,
    /// Warp-scheduler overrides; `None` keeps the config's own policy.
    pub schedulers: Vec<Option<SchedulerPolicy>>,
    /// L1 replacement-policy overrides; `None` keeps the config's own.
    pub replacements: Vec<Option<ReplacementPolicy>>,
    /// ALU-model overrides on top of the preset; `None` keeps the preset's.
    pub alu_models: Vec<Option<AluModelKind>>,
    /// Memory-model overrides on top of the preset; `None` keeps the
    /// preset's.
    pub mem_models: Vec<Option<MemoryModelKind>>,
    /// Frontend-model overrides on top of the preset; `None` keeps the
    /// preset's.
    pub frontends: Vec<Option<FrontendModelKind>>,
    /// Kernel-launch sampling overrides; `None` keeps the preset's
    /// (sampling off everywhere). Sampling changes predicted cycles, so it
    /// is a real axis: it lands in the fidelity, the label, and the key.
    pub samplings: Vec<Option<SamplingPolicy>>,
    /// Self-profile every job (per-module wall-time attribution carried on
    /// each row). Deliberately *not* part of the job cache key: profiling
    /// observes the simulator without changing its predictions.
    pub profile: bool,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".to_owned(),
            presets: vec![SimulatorPreset::SwiftBasic],
            gpus: vec![GpuSource::Preset("rtx2080ti".to_owned())],
            workloads: Vec::new(),
            scale: Scale::Small,
            threads: vec![1],
            schedulers: vec![None],
            replacements: vec![None],
            alu_models: vec![None],
            mem_models: vec![None],
            frontends: vec![None],
            samplings: vec![None],
            profile: false,
        }
    }
}

/// One expanded job: a single simulation the campaign will run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Position in the deterministic expansion order.
    pub index: usize,
    /// Simulator preset.
    pub preset: SimulatorPreset,
    /// GPU source.
    pub gpu: GpuSource,
    /// Workload source.
    pub workload: WorkloadSource,
    /// Scale for built-in workloads.
    pub scale: Scale,
    /// Per-simulation worker threads.
    pub threads: usize,
    /// Warp-scheduler override.
    pub scheduler: Option<SchedulerPolicy>,
    /// Replacement-policy override.
    pub replacement: Option<ReplacementPolicy>,
    /// ALU-model override on top of the preset.
    pub alu: Option<AluModelKind>,
    /// Memory-model override on top of the preset.
    pub memory: Option<MemoryModelKind>,
    /// Frontend-model override on top of the preset.
    pub frontend: Option<FrontendModelKind>,
    /// Sampling-policy override on top of the preset.
    pub sampling: Option<SamplingPolicy>,
}

impl JobSpec {
    /// Compact human-readable job label, e.g.
    /// `bfs/rtx2080ti/swift-sim-basic/t1/sched=gto`.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{}/t{}",
            self.workload.describe(),
            self.gpu.describe(),
            self.preset.label(),
            self.threads
        );
        if let Some(s) = self.scheduler {
            label.push_str(&format!("/sched={s}"));
        }
        if let Some(r) = self.replacement {
            label.push_str(&format!("/repl={r}"));
        }
        if let Some(a) = self.alu {
            label.push_str(&format!("/alu={}", a.token()));
        }
        if let Some(m) = self.memory {
            label.push_str(&format!("/mem={}", m.token()));
        }
        if let Some(f) = self.frontend {
            label.push_str(&format!("/fe={}", f.token()));
        }
        if let Some(s) = self.sampling {
            label.push_str(&format!("/samp={}", s.token()));
        }
        label
    }

    /// Serialize this job as a *single-job campaign spec* in the same
    /// `key = value` format [`CampaignSpec::parse`] reads.
    ///
    /// This is how a distributed scheduler ships one job to a remote
    /// worker: the worker parses and resolves the text with the exact
    /// machinery a local campaign uses, so it loads the same inputs,
    /// applies the same overrides, and — crucially — computes the same
    /// content-addressed cache key. Key agreement between shipper and
    /// worker is therefore a end-to-end determinism check.
    ///
    /// Every token round-trips: preset labels, policy names, and fidelity
    /// tokens are all accepted back by the parser. File-backed GPU configs
    /// and traces are shipped *by path* (a shared filesystem is assumed);
    /// paths containing `,` or `#` cannot be represented in the spec
    /// format and are rejected with `None`.
    pub fn to_single_spec_text(&self, name: &str) -> Option<String> {
        let mut text = format!("name = {name}\n");
        let path_ok = |p: &str| !p.contains(',') && !p.contains('#');
        match &self.gpu {
            GpuSource::Preset(n) => text.push_str(&format!("gpu = {n}\n")),
            GpuSource::File(p) => {
                if !path_ok(p) {
                    return None;
                }
                text.push_str(&format!("gpu-config = {p}\n"));
            }
        }
        match &self.workload {
            WorkloadSource::Builtin(n) => text.push_str(&format!("workload = {n}\n")),
            WorkloadSource::TraceFile(p) => {
                if !path_ok(p) {
                    return None;
                }
                text.push_str(&format!("trace = {p}\n"));
            }
        }
        text.push_str(&format!("scale = {}\n", self.scale.token()));
        text.push_str(&format!("preset = {}\n", self.preset.label()));
        text.push_str(&format!("threads = {}\n", self.threads));
        if let Some(s) = self.scheduler {
            text.push_str(&format!("scheduler = {s}\n"));
        }
        if let Some(r) = self.replacement {
            text.push_str(&format!("replacement = {r}\n"));
        }
        if let Some(a) = self.alu {
            text.push_str(&format!("alu-model = {}\n", a.token()));
        }
        if let Some(m) = self.memory {
            text.push_str(&format!("mem-model = {}\n", m.token()));
        }
        if let Some(f) = self.frontend {
            text.push_str(&format!("frontend = {}\n", f.token()));
        }
        if let Some(s) = self.sampling {
            text.push_str(&format!("sampling = {}\n", s.token()));
        }
        Some(text)
    }

    /// The job's resolved per-module fidelity: the preset's alias expanded,
    /// then any per-axis overrides applied on top.
    pub fn fidelity(&self) -> FidelityConfig {
        let mut fidelity = FidelityConfig::for_preset(self.preset);
        if let Some(a) = self.alu {
            fidelity.alu = a;
        }
        if let Some(m) = self.memory {
            fidelity.memory = m;
        }
        if let Some(f) = self.frontend {
            fidelity.frontend = f;
        }
        if let Some(s) = self.sampling {
            fidelity.sampling = s;
        }
        fidelity
    }
}

/// A job with its inputs loaded and its cache key computed.
///
/// `spec.threads` is concrete here: a spec-level `threads = 0` (auto) is
/// resolved against this host and the job's GPU during
/// [`CampaignSpec::resolve`], so the cache key and label carry the count
/// that actually shards the simulation.
#[derive(Clone)]
pub struct ResolvedJob {
    /// The expanded job description (threads resolved to a concrete count).
    pub spec: JobSpec,
    /// GPU configuration with knob overrides applied.
    pub cfg: GpuConfig,
    /// Resolved per-module fidelity (preset alias + per-axis overrides);
    /// the executor builds the simulator from this, and it is folded into
    /// [`ResolvedJob::key`].
    pub fidelity: FidelityConfig,
    /// The trace source (shared across jobs that use the same one).
    /// Built-in workloads are in-memory; trace files stream lazily.
    pub app: Arc<dyn TraceSource>,
    /// Content-addressed cache key.
    pub key: u64,
}

impl fmt::Debug for ResolvedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResolvedJob")
            .field("spec", &self.spec)
            .field("fidelity", &self.fidelity.describe())
            .field("cfg", &self.cfg.name)
            .field("app", &self.app.name())
            .field("key", &self.key_hex())
            .finish()
    }
}

impl ResolvedJob {
    /// The cache key as the 16-digit hex string used for file names and
    /// JSONL rows.
    pub fn key_hex(&self) -> String {
        format!("{:016x}", self.key)
    }
}

fn parse_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .collect()
}

fn parse_override<T: std::str::FromStr>(s: &str, what: &str) -> Result<Option<T>, CampaignError> {
    if s == "default" {
        return Ok(None);
    }
    s.parse()
        .map(Some)
        .map_err(|_| CampaignError::Spec(format!("unknown {what} {s:?}")))
}

impl CampaignSpec {
    /// Parse the `key = value1, value2, ...` spec format.
    ///
    /// Recognized keys: `name`, `preset`, `gpu`, `gpu-config` (file paths),
    /// `workload`, `trace` (file paths), `scale`, `threads`, `scheduler`,
    /// `replacement`, `alu-model`, `mem-model`, `frontend`, `sampling`,
    /// `profile` (`true`/`false`). `#` starts a comment; list-valued keys
    /// accumulate across repeated lines. Override lists
    /// (`scheduler`/`replacement`/`alu-model`/`mem-model`/`frontend`/
    /// `sampling`) may include `default` to also cover the un-overridden
    /// configuration; the fidelity keys take the same tokens as the core
    /// parser (`analytical`, `cycle_accurate`, `analytical_reuse`,
    /// `detailed`, `simplified`, `off`, `cluster`, `cluster:N`).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] on an unknown key or a malformed
    /// value.
    pub fn parse(text: &str) -> Result<CampaignSpec, CampaignError> {
        let mut spec = CampaignSpec::default();
        let mut gpus = Vec::new();
        let mut presets = Vec::new();
        let mut threads = Vec::new();
        let mut schedulers = Vec::new();
        let mut replacements = Vec::new();
        let mut alu_models = Vec::new();
        let mut mem_models = Vec::new();
        let mut frontends = Vec::new();
        let mut samplings = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                CampaignError::Spec(format!("line {}: expected `key = value`", lineno + 1))
            })?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "name" => spec.name = value.to_owned(),
                "preset" => {
                    for v in parse_list(value) {
                        let preset = v.parse::<SimulatorPreset>();
                        presets.push(preset.map_err(|e| CampaignError::Spec(e.to_string()))?);
                    }
                }
                "gpu" => gpus.extend(parse_list(value).into_iter().map(GpuSource::Preset)),
                "gpu-config" => gpus.extend(parse_list(value).into_iter().map(GpuSource::File)),
                "workload" => spec
                    .workloads
                    .extend(parse_list(value).into_iter().map(WorkloadSource::Builtin)),
                "trace" => spec
                    .workloads
                    .extend(parse_list(value).into_iter().map(WorkloadSource::TraceFile)),
                "scale" => spec.scale = value.parse().map_err(CampaignError::Spec)?,
                "threads" => {
                    for v in parse_list(value) {
                        threads.push(v.parse().map_err(|_| {
                            CampaignError::Spec(format!("invalid thread count {v:?}"))
                        })?);
                    }
                }
                "scheduler" => {
                    for v in parse_list(value) {
                        schedulers.push(parse_override::<SchedulerPolicy>(&v, "scheduler")?);
                    }
                }
                "replacement" => {
                    for v in parse_list(value) {
                        replacements.push(parse_override::<ReplacementPolicy>(
                            &v,
                            "replacement policy",
                        )?);
                    }
                }
                "alu-model" => {
                    for v in parse_list(value) {
                        alu_models.push(parse_override::<AluModelKind>(&v, "ALU model")?);
                    }
                }
                "mem-model" => {
                    for v in parse_list(value) {
                        mem_models.push(parse_override::<MemoryModelKind>(&v, "memory model")?);
                    }
                }
                "frontend" => {
                    for v in parse_list(value) {
                        frontends.push(parse_override::<FrontendModelKind>(&v, "frontend model")?);
                    }
                }
                "sampling" => {
                    for v in parse_list(value) {
                        samplings.push(parse_override::<SamplingPolicy>(&v, "sampling policy")?);
                    }
                }
                "profile" => {
                    spec.profile = match value {
                        "true" | "on" | "1" => true,
                        "false" | "off" | "0" => false,
                        other => {
                            return Err(CampaignError::Spec(format!(
                                "invalid profile value {other:?} (expected true/false)"
                            )))
                        }
                    }
                }
                other => {
                    return Err(CampaignError::Spec(format!(
                        "line {}: unknown key {other:?}",
                        lineno + 1
                    )))
                }
            }
        }

        if !presets.is_empty() {
            spec.presets = presets;
        }
        if !gpus.is_empty() {
            spec.gpus = gpus;
        }
        if !threads.is_empty() {
            spec.threads = threads;
        }
        if !schedulers.is_empty() {
            spec.schedulers = schedulers;
        }
        if !replacements.is_empty() {
            spec.replacements = replacements;
        }
        if !alu_models.is_empty() {
            spec.alu_models = alu_models;
        }
        if !mem_models.is_empty() {
            spec.mem_models = mem_models;
        }
        if !frontends.is_empty() {
            spec.frontends = frontends;
        }
        if !samplings.is_empty() {
            spec.samplings = samplings;
        }
        Ok(spec)
    }

    /// Expand the cartesian product into the deterministic job list.
    ///
    /// Axis order (outermost to innermost): GPU, workload, preset, threads,
    /// scheduler, replacement, ALU model, memory model, frontend, sampling
    /// policy. The order — and therefore each job's
    /// `index` — depends only on the spec.
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::new();
        for gpu in &self.gpus {
            for workload in &self.workloads {
                for &preset in &self.presets {
                    for &threads in &self.threads {
                        for &scheduler in &self.schedulers {
                            for &replacement in &self.replacements {
                                for &alu in &self.alu_models {
                                    for &memory in &self.mem_models {
                                        for &frontend in &self.frontends {
                                            for &sampling in &self.samplings {
                                                jobs.push(JobSpec {
                                                    index: jobs.len(),
                                                    preset,
                                                    gpu: gpu.clone(),
                                                    workload: workload.clone(),
                                                    scale: self.scale,
                                                    threads,
                                                    scheduler,
                                                    replacement,
                                                    alu,
                                                    memory,
                                                    frontend,
                                                    sampling,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        jobs
    }

    /// Expand and resolve: load every distinct GPU config and trace once,
    /// apply knob overrides, and compute cache keys.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] when the sweep is empty, a preset name is
    /// unknown, or a config/trace file cannot be read.
    pub fn resolve(&self) -> Result<Vec<ResolvedJob>, CampaignError> {
        let jobs = self.expand();
        if jobs.is_empty() {
            return Err(CampaignError::Spec(
                "empty sweep: need at least one workload (and gpu/preset)".to_owned(),
            ));
        }

        // Load each distinct input once; jobs share them. The trace's
        // content hash rides along so it is computed once per trace, not
        // once per job (for file-backed sources it may touch the disk).
        let mut gpu_cache: Vec<(GpuSource, GpuConfig)> = Vec::new();
        let mut trace_cache: Vec<(WorkloadSource, Arc<dyn TraceSource>, u64)> = Vec::new();

        let mut resolved = Vec::with_capacity(jobs.len());
        for mut spec in jobs {
            let base = match gpu_cache.iter().find(|(s, _)| *s == spec.gpu) {
                Some((_, cfg)) => cfg.clone(),
                None => {
                    let cfg = load_gpu(&spec.gpu)?;
                    gpu_cache.push((spec.gpu.clone(), cfg.clone()));
                    cfg
                }
            };
            let (app, trace_hash) = match trace_cache.iter().find(|(s, _, _)| *s == spec.workload) {
                Some((_, app, hash)) => (Arc::clone(app), *hash),
                None => {
                    let app = load_trace(&spec.workload, spec.scale)?;
                    let hash = app.content_hash().map_err(|e| {
                        CampaignError::Workload(format!("{}: {e}", spec.workload.describe()))
                    })?;
                    trace_cache.push((spec.workload.clone(), Arc::clone(&app), hash));
                    (app, hash)
                }
            };

            let mut cfg = base;
            if let Some(s) = spec.scheduler {
                cfg.sm.scheduler = s;
            }
            if let Some(r) = spec.replacement {
                cfg.sm.l1d.replacement = r;
            }

            // `threads = 0` means auto: resolve it here, against this host
            // and this job's GPU, so the concrete count lands in the cache
            // key (sharding changes predicted cycles). Explicit counts are
            // validated now rather than failing the job mid-campaign.
            let num_sms = cfg.num_sms as usize;
            if spec.threads == 0 {
                spec.threads = swiftsim_core::max_threads().min(num_sms).max(1);
            } else if spec.threads > num_sms {
                return Err(CampaignError::Spec(format!(
                    "threads = {} exceeds the {} SMs of gpu {:?} (use threads = 0 for auto)",
                    spec.threads,
                    num_sms,
                    spec.gpu.describe(),
                )));
            }

            let fidelity = spec.fidelity();
            let key = job_key(&cfg, trace_hash, spec.preset, fidelity, spec.threads);
            resolved.push(ResolvedJob {
                spec,
                cfg,
                fidelity,
                app,
                key,
            });
        }
        Ok(resolved)
    }
}

/// Stable content-addressed key of one job.
///
/// Covers everything that determines the simulation's outcome: the resolved
/// configuration (overrides applied — via [`GpuConfig::stable_hash`]), the
/// trace content (`trace_hash` is [`TraceSource::content_hash`], which is
/// identical for the in-memory, text, and chunked-binary representation of
/// the same application), the preset, the resolved per-module fidelity
/// (overrides change predicted cycles), the per-simulation thread count
/// (sharding changes predicted cycles), and the engine/schema versions so
/// stale caches self-invalidate. The simulator code version
/// (`CARGO_PKG_VERSION`) and [`CACHE_KEY_SCHEMA`] are folded in too:
/// without them, results cached before a model change would be silently
/// served after it.
pub fn job_key(
    cfg: &GpuConfig,
    trace_hash: u64,
    preset: SimulatorPreset,
    fidelity: FidelityConfig,
    threads: usize,
) -> u64 {
    job_key_versioned(
        cfg,
        trace_hash,
        preset,
        fidelity,
        threads,
        env!("CARGO_PKG_VERSION"),
    )
}

/// [`job_key`] with the simulator version as an explicit input, so tests can
/// prove that a version bump invalidates cached entries.
fn job_key_versioned(
    cfg: &GpuConfig,
    trace_hash: u64,
    preset: SimulatorPreset,
    fidelity: FidelityConfig,
    threads: usize,
    pkg_version: &str,
) -> u64 {
    let descriptor = format!(
        "swiftsim-campaign;pkg={pkg_version};keyschema={CACHE_KEY_SCHEMA};\
         engine={ENGINE_VERSION};schema={RESULT_SCHEMA_VERSION};\
         cfg={:016x};trace={trace_hash:016x};preset={};fid={};threads={threads}",
        cfg.stable_hash(),
        preset.label(),
        fidelity.describe(),
    );
    fnv1a64(descriptor.as_bytes())
}

fn load_gpu(source: &GpuSource) -> Result<GpuConfig, CampaignError> {
    match source {
        GpuSource::Preset(name) => swiftsim_config::presets::by_name(name)
            .ok_or_else(|| CampaignError::Gpu(format!("unknown GPU preset {name:?}"))),
        GpuSource::File(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CampaignError::Gpu(format!("cannot read {path}: {e}")))?;
            GpuConfig::parse(&text).map_err(|e| CampaignError::Gpu(format!("{path}: {e}")))
        }
    }
}

fn load_trace(
    source: &WorkloadSource,
    scale: Scale,
) -> Result<Arc<dyn TraceSource>, CampaignError> {
    match source {
        WorkloadSource::Builtin(name) => swiftsim_workloads::by_name(name)
            .map(|w| Arc::new(w.generate(scale)) as Arc<dyn TraceSource>)
            .ok_or_else(|| CampaignError::Workload(format!("unknown workload {name:?}"))),
        WorkloadSource::TraceFile(path) => open_trace(path)
            .map(Arc::from)
            .map_err(|e| CampaignError::Workload(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let spec = CampaignSpec::parse(
            "# demo\n\
             name = dse\n\
             preset = swift-basic, swift-memory\n\
             gpu = rtx2080ti, rtx3060\n\
             workload = bfs, gemm   # two apps\n\
             scale = tiny\n\
             threads = 1, 2\n\
             scheduler = default, gto\n\
             replacement = lru\n\
             profile = true\n",
        )
        .unwrap();
        assert_eq!(spec.name, "dse");
        assert!(spec.profile);
        assert_eq!(spec.presets.len(), 2);
        assert_eq!(spec.gpus.len(), 2);
        assert_eq!(spec.workloads.len(), 2);
        assert_eq!(spec.scale, Scale::Tiny);
        assert_eq!(spec.threads, vec![1, 2]);
        assert_eq!(spec.schedulers, vec![None, Some(SchedulerPolicy::Gto)]);
        assert_eq!(spec.replacements, vec![Some(ReplacementPolicy::Lru)]);
        // 2 gpus x 2 workloads x 2 presets x 2 threads x 2 schedulers x 1.
        assert_eq!(spec.expand().len(), 32);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CampaignSpec::parse("bogus-key = 1").is_err());
        assert!(CampaignSpec::parse("no equals sign").is_err());
        assert!(CampaignSpec::parse("preset = warp9").is_err());
        assert!(CampaignSpec::parse("scale = huge").is_err());
        assert!(CampaignSpec::parse("threads = many").is_err());
        assert!(CampaignSpec::parse("scheduler = chaotic").is_err());
        assert!(CampaignSpec::parse("profile = maybe").is_err());
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = CampaignSpec::parse(
            "workload = bfs, nw\n\
             preset = swift-basic, swift-memory\n\
             scheduler = gto, lrr, two_level\n\
             scale = tiny\n",
        )
        .unwrap();
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        assert_eq!(a[0].index, 0);
        assert!(a.windows(2).all(|w| w[0].index + 1 == w[1].index));
        // Axis order: workload is outer, preset next, scheduler innermost.
        assert_eq!(a[0].label(), "bfs/rtx2080ti/swift-sim-basic/t1/sched=gto");
        assert_eq!(a[1].label(), "bfs/rtx2080ti/swift-sim-basic/t1/sched=lrr");
        assert_eq!(a[3].label(), "bfs/rtx2080ti/swift-sim-memory/t1/sched=gto");
        assert_eq!(a[6].label(), "nw/rtx2080ti/swift-sim-basic/t1/sched=gto");
    }

    #[test]
    fn resolve_applies_overrides_and_shares_inputs() {
        let spec = CampaignSpec::parse(
            "workload = nw\n\
             scale = tiny\n\
             replacement = default, fifo\n",
        )
        .unwrap();
        let jobs = spec.resolve().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(
            jobs[0].cfg.sm.l1d.replacement,
            swiftsim_config::presets::rtx2080ti().sm.l1d.replacement
        );
        assert_eq!(jobs[1].cfg.sm.l1d.replacement, ReplacementPolicy::Fifo);
        // The trace is loaded once and shared.
        assert!(Arc::ptr_eq(&jobs[0].app, &jobs[1].app));
        assert_ne!(jobs[0].key, jobs[1].key);
    }

    #[test]
    fn fidelity_axes_expand_and_resolve() {
        let spec = CampaignSpec::parse(
            "workload = nw\n\
             scale = tiny\n\
             preset = swift-basic\n\
             alu-model = default, cycle_accurate\n\
             sampling = off, cluster:2\n",
        )
        .unwrap();
        let jobs = spec.resolve().unwrap();
        assert_eq!(jobs.len(), 4);

        // Innermost axis is the sampling policy; ALU model varies outside it.
        let cluster = SamplingPolicy::KernelCluster { reps: 2 };
        assert_eq!(jobs[0].spec.alu, None);
        assert_eq!(jobs[0].spec.sampling, Some(SamplingPolicy::Off));
        assert_eq!(jobs[1].spec.sampling, Some(cluster));
        assert_eq!(jobs[2].spec.alu, Some(AluModelKind::CycleAccurate));

        // `default` keeps the preset's module choice; an override replaces
        // exactly one axis of the preset alias.
        assert_eq!(
            jobs[0].fidelity.alu,
            AluModelKind::Analytical,
            "swift-basic preset choice survives a `default` override"
        );
        assert_eq!(jobs[1].fidelity.sampling, cluster);
        assert_eq!(jobs[2].fidelity.alu, AluModelKind::CycleAccurate);
        assert_eq!(
            jobs[2].fidelity.memory,
            MemoryModelKind::CycleAccurate,
            "untouched axes keep the preset's choice"
        );

        // Overrides land in labels and distinguish cache keys.
        assert!(jobs[2].spec.label().contains("/alu=cycle_accurate"));
        assert!(jobs[1].spec.label().contains("/samp=cluster:2"));
        let keys: std::collections::HashSet<u64> = jobs.iter().map(|j| j.key).collect();
        assert_eq!(keys.len(), 4, "every fidelity mix gets its own key");

        // Garbage fidelity tokens are rejected at parse time.
        assert!(CampaignSpec::parse("alu-model = quantum").is_err());
        assert!(CampaignSpec::parse("mem-model = psychic").is_err());
        assert!(CampaignSpec::parse("frontend = vibes").is_err());
        assert!(CampaignSpec::parse("sampling = sometimes").is_err());

        // The clock is no axis: its old key is an ordinary unknown key.
        assert_eq!(
            CampaignSpec::parse("workload = nw\nskip = dense").unwrap_err(),
            CampaignError::Spec("line 2: unknown key \"skip\"".to_owned())
        );
    }

    #[test]
    fn resolve_rejects_unknowns() {
        let empty = CampaignSpec::default();
        assert!(matches!(empty.resolve(), Err(CampaignError::Spec(_))));

        let spec = CampaignSpec::parse("workload = doom\nscale = tiny").unwrap();
        assert!(matches!(spec.resolve(), Err(CampaignError::Workload(_))));

        let spec = CampaignSpec::parse("workload = nw\ngpu = gtx9000").unwrap();
        assert!(matches!(spec.resolve(), Err(CampaignError::Gpu(_))));
    }

    #[test]
    fn threads_zero_resolves_to_concrete_count() {
        let spec = CampaignSpec::parse("workload = nw\nscale = tiny\nthreads = 0").unwrap();
        let jobs = spec.resolve().unwrap();
        assert!(jobs[0].spec.threads >= 1, "auto resolves to a real count");
        assert!(jobs[0].spec.threads <= jobs[0].cfg.num_sms as usize);
        // The resolved count is in the label (and therefore the key input).
        assert!(jobs[0]
            .spec
            .label()
            .contains(&format!("/t{}", jobs[0].spec.threads)));

        // Oversubscribing the GPU is rejected at resolve time.
        let spec = CampaignSpec::parse("workload = nw\nscale = tiny\nthreads = 4096").unwrap();
        assert!(matches!(spec.resolve(), Err(CampaignError::Spec(_))));
    }

    #[test]
    fn job_keys_are_stable_and_sensitive() {
        let spec = CampaignSpec::parse("workload = nw\nscale = tiny").unwrap();
        let first = spec.resolve().unwrap();
        let again = spec.resolve().unwrap();
        // Same spec, fresh resolution: identical keys.
        assert_eq!(first[0].key, again[0].key);

        // Any knob change produces a different key.
        let variants = [
            "workload = nw\nscale = tiny\nscheduler = lrr",
            "workload = nw\nscale = tiny\nreplacement = fifo",
            "workload = nw\nscale = tiny\nthreads = 2",
            "workload = nw\nscale = tiny\npreset = swift-memory",
            "workload = nw\nscale = tiny\ngpu = rtx3060",
            "workload = nw\nscale = small",
            "workload = bfs\nscale = tiny",
            "workload = nw\nscale = tiny\nalu-model = cycle_accurate",
            "workload = nw\nscale = tiny\nmem-model = analytical_reuse",
            "workload = nw\nscale = tiny\nfrontend = detailed",
            "workload = nw\nscale = tiny\nsampling = cluster:2",
        ];
        for text in variants {
            let other = CampaignSpec::parse(text).unwrap().resolve().unwrap();
            assert_ne!(first[0].key, other[0].key, "variant {text:?}");
        }
    }

    #[test]
    fn single_spec_text_round_trips_with_identical_keys() {
        // Every axis overridden at once: the serialized single-job spec
        // must resolve — on a "remote worker" with no shared state — to
        // the same label and the same content-addressed key.
        let spec = CampaignSpec::parse(
            "workload = nw, bfs\n\
             scale = tiny\n\
             gpu = rtx3060\n\
             preset = detailed-baseline, swift-sim-memory\n\
             threads = 2\n\
             scheduler = lrr\n\
             replacement = fifo\n\
             alu-model = cycle_accurate\n\
             mem-model = analytical_reuse\n\
             frontend = simplified\n\
             sampling = cluster:3\n",
        )
        .unwrap();
        let jobs = spec.resolve().unwrap();
        assert!(jobs.len() >= 2);
        for job in &jobs {
            let text = job.spec.to_single_spec_text("shipped").unwrap();
            let round = CampaignSpec::parse(&text).unwrap().resolve().unwrap();
            assert_eq!(round.len(), 1, "single-job spec expands to one job");
            assert_eq!(round[0].spec.label(), job.spec.label());
            assert_eq!(round[0].key, job.key, "worker computes the same key");
        }

        // Paths the spec format cannot carry are refused, not mangled.
        let mut bad = jobs[0].spec.clone();
        bad.workload = WorkloadSource::TraceFile("a,b.trace".to_owned());
        assert_eq!(bad.to_single_spec_text("x"), None);
    }

    #[test]
    fn job_key_misses_on_simulator_version_bump() {
        let spec = CampaignSpec::parse("workload = nw\nscale = tiny").unwrap();
        let job = spec.resolve().unwrap().into_iter().next().unwrap();

        let trace_hash = job.app.content_hash().unwrap();
        let current = job_key_versioned(
            &job.cfg,
            trace_hash,
            job.spec.preset,
            job.fidelity,
            job.spec.threads,
            env!("CARGO_PKG_VERSION"),
        );
        assert_eq!(current, job.key, "explicit-version path matches job_key");

        // A different simulator version must produce a different key, so
        // results cached before a release are never served after it.
        let bumped = job_key_versioned(
            &job.cfg,
            trace_hash,
            job.spec.preset,
            job.fidelity,
            job.spec.threads,
            "99.0.0-post-model-change",
        );
        assert_ne!(current, bumped);
    }
}
