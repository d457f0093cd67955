//! Batched, cached, fault-isolated simulation sweeps.
//!
//! The headline use case of the Swift-Sim paper (§IV-B3) is design-space
//! exploration: thousands of *(GPU config × workload × simulator preset ×
//! knob)* simulations, each independent of the others. This crate is the
//! engine that runs such sweeps as first-class *campaigns*:
//!
//! * [`CampaignSpec`] declares the sweep — lists of presets, GPUs,
//!   workloads, thread counts, and knob overrides — and expands their
//!   cartesian product into a deterministic job list ([`CampaignSpec::expand`]).
//!   Specs can be built programmatically or parsed from a simple
//!   `key = v1, v2` text file ([`CampaignSpec::parse`]).
//! * [`run_campaign`] executes the jobs on a worker pool
//!   (`std::thread::scope`), *whole simulations in parallel* — orthogonal
//!   to `swiftsim-core`'s SM-sharded parallelism, which can still be used
//!   inside each job via the `threads` knob. A panicking or failing job is
//!   isolated ([`std::panic::catch_unwind`]), retried up to a bound, and
//!   reported as a failed row; the rest of the campaign completes.
//! * [`ResultCache`] memoizes finished jobs on disk, content-addressed by a
//!   stable hash of everything that determines the outcome: the resolved
//!   GPU configuration (knob overrides applied), the trace's content hash,
//!   the preset, and the thread count. Re-running a campaign after editing
//!   one knob re-simulates only the delta.
//! * [`CampaignReport`] carries one row per job and renders both the
//!   JSON-lines emission (sharing `SimulationResult::to_json`'s schema with
//!   `swiftsim --json`) and a `swiftsim-metrics` summary table.
//!
//! # Examples
//!
//! ```
//! use swiftsim_campaign::{CampaignOptions, CampaignSpec, run_campaign};
//!
//! let spec = CampaignSpec::parse(
//!     "name = demo\n\
//!      preset = swift-memory\n\
//!      workload = nw\n\
//!      scale = tiny\n\
//!      scheduler = gto, lrr\n",
//! )
//! .unwrap();
//! let report = run_campaign(&spec, &CampaignOptions::default().cache_off()).unwrap();
//! assert_eq!(report.rows.len(), 2);
//! assert_eq!(report.failed(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cache;
mod executor;
mod report;
mod runner;
mod spec;

pub use cache::{CacheMode, ResultCache};
pub use executor::{
    run_jobs, run_jobs_cancellable, CancelToken, ExecutorOptions, JobOutcome, JobStatus,
    RenderedResult,
};
pub use report::{CampaignReport, JobRow, RowStatus};
pub use runner::{JobRunner, StageTimings};
pub use spec::{CampaignError, CampaignSpec, GpuSource, JobSpec, ResolvedJob, WorkloadSource};

use std::path::PathBuf;

/// Bumped whenever the engine changes in a way that invalidates cached
/// results (job-key composition, result schema, simulator semantics).
/// Version 4: multi-threaded jobs moved from decoupled per-shard memory
/// slices to the two-phase engine over one shared memory system
/// (bit-identical to single-threaded, its shards committing every
/// cycle), so cached multi-threaded rows no longer match what a rerun
/// produces. (Version 3: the event-driven cycle-skipping core replaced
/// the swift presets' stat-free idle jump. Version 2: trace content
/// hashes moved to the chunked-binary header scheme.)
pub const ENGINE_VERSION: u64 = 4;

/// How a campaign run executes: worker count, retry bound, cache policy.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Concurrent jobs (clamped to the job count; `0` means one worker per
    /// available CPU).
    pub workers: usize,
    /// Re-runs granted to a job that fails or panics.
    pub max_retries: u32,
    /// Cache policy.
    pub cache: CacheMode,
    /// Cache directory.
    pub cache_dir: PathBuf,
    /// Print one progress line per finished job to stderr.
    pub progress: bool,
    /// Self-profile every job, regardless of the spec's `profile` key.
    /// Profiled rows carry a per-module attribution summary in the JSONL
    /// emission.
    pub profile: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            workers: 0,
            max_retries: 1,
            cache: CacheMode::Use,
            cache_dir: PathBuf::from("target/swiftsim-campaigns/cache"),
            progress: false,
            profile: false,
        }
    }
}

impl CampaignOptions {
    /// Disable the result cache (neither read nor written).
    pub fn cache_off(mut self) -> Self {
        self.cache = CacheMode::Off;
        self
    }

    /// Ignore cached results but refresh them with this run's.
    pub fn refresh(mut self) -> Self {
        self.cache = CacheMode::Refresh;
        self
    }

    /// Set the worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// Expand, resolve, and execute a campaign.
///
/// Jobs run on a worker pool; each is checked against the cache first, and
/// failures (errors or panics) are confined to their row.
///
/// # Errors
///
/// Returns [`CampaignError`] when the spec itself is unusable (unknown
/// workload or GPU preset, unreadable config/trace file, empty sweep).
/// Individual job failures do *not* error: they are reported as
/// [`RowStatus::Failed`] rows.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> Result<CampaignReport, CampaignError> {
    let jobs = spec.resolve()?;
    let cache = ResultCache::new(opts.cache_dir.clone(), opts.cache);
    let exec_opts = ExecutorOptions {
        workers: opts.workers,
        max_retries: opts.max_retries,
        progress: opts.progress,
        // Interactive runs (progress on) also get a liveness line while
        // long jobs are still simulating.
        heartbeat: opts.progress.then(|| std::time::Duration::from_secs(10)),
        profile: opts.profile || spec.profile,
    };
    let runner = JobRunner::new(exec_opts, cache);
    let outcomes = runner.run(&jobs, &CancelToken::new());
    Ok(CampaignReport::from_outcomes(
        spec.name.clone(),
        jobs,
        outcomes,
    ))
}
