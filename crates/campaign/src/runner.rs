//! [`JobRunner`]: the reusable execution core behind both one-shot
//! campaigns ([`crate::run_campaign`]) and the long-running `swiftsim
//! serve` daemon.
//!
//! A runner owns the execution *policy* — worker count, retry bound,
//! profiling, the on-disk [`ResultCache`] — and exposes two entry points:
//! [`JobRunner::run`] drives a whole resolved job list on the internal
//! worker pool (the classic campaign path), while [`JobRunner::run_one`]
//! executes a single job on the calling thread (the shape a service's own
//! scheduler wants: it owns the threads, the runner owns one job's
//! cache-check → simulate → store → retry lifecycle). Both honor a
//! [`CancelToken`].

use crate::cache::ResultCache;
use crate::executor::{
    run_jobs_cancellable, CancelToken, ExecutorOptions, JobOutcome, JobStatus, RenderedResult,
};
use crate::spec::ResolvedJob;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use swiftsim_config::fnv1a64;
use swiftsim_core::{GpuSimulator, RunOptions, SimError, Snapshot};

/// Wall time spent in each stage of one job attempt: cache consultation,
/// simulator construction (config validation + trace open/decode setup),
/// the simulation proper, and storing the fresh result.
///
/// Produced by [`JobRunner::run_one_timed`] so a scheduler (the serve
/// daemon's executor slots) can feed per-stage latency histograms. A cache
/// hit reports only `cache_lookup`; stages not reached stay zero. When a
/// job is retried, the timings describe the final attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Looking the job key up in the on-disk result cache.
    pub cache_lookup: Duration,
    /// `GpuSimulator::try_new`: config validation and trace-source
    /// setup — the "decode" side of an attempt.
    pub build: Duration,
    /// Running the simulation itself.
    pub simulate: Duration,
    /// Persisting the fresh result into the cache.
    pub store: Duration,
}

/// Reusable executor for resolved campaign jobs: cache consultation,
/// simulation, retries, panic isolation, and cancellation.
#[derive(Debug, Clone)]
pub struct JobRunner {
    opts: ExecutorOptions,
    cache: ResultCache,
    checkpoint_dir: Option<PathBuf>,
}

impl JobRunner {
    /// A runner with the given pool options and result cache.
    pub fn new(opts: ExecutorOptions, cache: ResultCache) -> Self {
        JobRunner {
            opts,
            cache,
            checkpoint_dir: None,
        }
    }

    /// Checkpoint every job at kernel boundaries into `dir` (one
    /// `<key>.sstbckpt` per job, named by the job's cache key). A killed
    /// attempt leaves its last boundary snapshot behind; the next attempt
    /// of the same job resumes from it instead of starting over, and the
    /// snapshot is removed once the job completes.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// The directory jobs checkpoint into, when enabled.
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.checkpoint_dir.as_deref()
    }

    /// Where this job's boundary snapshot lives, when checkpointing is on.
    pub fn snapshot_path(&self, job: &ResolvedJob) -> Option<PathBuf> {
        self.checkpoint_dir
            .as_ref()
            .map(|d| d.join(format!("{}.sstbckpt", job.key_hex())))
    }

    /// The runner's pool options.
    pub fn options(&self) -> &ExecutorOptions {
        &self.opts
    }

    /// The runner's on-disk result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Execute `jobs` on the internal worker pool: consult the cache,
    /// simulate misses, store fresh results, retry failures. Jobs not yet
    /// started when `cancel` trips come back as [`JobStatus::Cancelled`].
    /// Outcomes are in job order.
    pub fn run(&self, jobs: &[ResolvedJob], cancel: &CancelToken) -> Vec<JobOutcome> {
        let runs = run_jobs_cancellable(
            jobs,
            &self.opts,
            cancel,
            |job| job.spec.label(),
            |_, job| self.attempt(job),
        );

        jobs.iter().zip(runs).map(outcome_of).collect()
    }

    /// Execute exactly one job on the *calling* thread, with the same
    /// cache/retry/panic-isolation lifecycle as [`JobRunner::run`].
    ///
    /// This is the building block for external schedulers (the serve
    /// daemon's worker slots): they decide *when and where* a job runs,
    /// the runner decides *how*.
    pub fn run_one(&self, job: &ResolvedJob, cancel: &CancelToken) -> JobOutcome {
        self.run_one_timed(job, cancel).0
    }

    /// Like [`JobRunner::run_one`], but also reports where the wall time of
    /// the (final) attempt went, stage by stage.
    pub fn run_one_timed(
        &self,
        job: &ResolvedJob,
        cancel: &CancelToken,
    ) -> (JobOutcome, StageTimings) {
        let single = std::slice::from_ref(job);
        let mut opts = self.opts.clone();
        opts.workers = 1;
        opts.heartbeat = None;
        let timings = Mutex::new(StageTimings::default());
        let runs = run_jobs_cancellable(
            single,
            &opts,
            cancel,
            |job| job.spec.label(),
            |_, job| self.attempt_timed(job, &timings),
        );
        let run = runs.into_iter().next().expect("one job in, one run out");
        let outcome = outcome_of((job, run));
        let timings = timings.into_inner().unwrap_or_else(|p| p.into_inner());
        (outcome, timings)
    }

    /// One cache-check → simulate → store attempt. `Ok((result, true))`
    /// means a cache hit.
    fn attempt(
        &self,
        job: &ResolvedJob,
    ) -> Result<(swiftsim_core::SimulationResult, bool), String> {
        self.attempt_timed(job, &Mutex::new(StageTimings::default()))
    }

    /// The attempt body, publishing stage durations into `timings` at each
    /// stage boundary (so even a failing attempt reports the stages it
    /// reached). The cell is a `Mutex` because the executor's panic
    /// isolation runs attempts under `catch_unwind`.
    fn attempt_timed(
        &self,
        job: &ResolvedJob,
        timings: &Mutex<StageTimings>,
    ) -> Result<(swiftsim_core::SimulationResult, bool), String> {
        let publish = |t: StageTimings| {
            *timings.lock().unwrap_or_else(|p| p.into_inner()) = t;
        };
        // A snapshot left by an earlier (killed) attempt of this exact job.
        // Its digest is folded into the cache key below: a resumed result
        // is only interchangeable with a fresh one relative to the snapshot
        // it actually grew from, so a different (or tampered) snapshot must
        // not be served a stale entry. Unreadable snapshots are discarded
        // up front rather than failing the attempt.
        let snapshot_path = self.snapshot_path(job);
        let resume_digest = snapshot_path.as_ref().filter(|p| p.exists()).and_then(|p| {
            match Snapshot::read_from(p) {
                Ok(snap) => Some(snap.digest()),
                Err(_) => {
                    let _ = std::fs::remove_file(p);
                    None
                }
            }
        });
        let key = match resume_digest {
            Some(digest) => fold_resume_key(job.key, digest),
            None => job.key,
        };

        let mut t = StageTimings::default();
        let t0 = Instant::now();
        // A completed job's base-key entry satisfies the lookup even when a
        // snapshot lingers (the resumed run would reproduce it bit for bit).
        let hit = self.cache.lookup(key).or_else(|| {
            (key != job.key)
                .then(|| self.cache.lookup(job.key))
                .flatten()
        });
        t.cache_lookup = t0.elapsed();
        publish(t);
        if let Some(hit) = hit {
            return Ok((hit, true));
        }
        let t1 = Instant::now();
        let mut options = RunOptions::default()
            .with_fidelity(job.fidelity)
            .with_threads(job.spec.threads)
            .with_profile(self.opts.profile);
        if let Some(path) = &snapshot_path {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            options = options.with_checkpoint_out(path);
            if resume_digest.is_some() {
                options = options.with_resume(path);
            }
        }
        let sim = GpuSimulator::try_new(job.cfg.clone(), &options).map_err(|e| e.to_string())?;
        t.build = t1.elapsed();
        publish(t);
        let t2 = Instant::now();
        let result = match sim.run(job.app.as_ref()) {
            Ok(result) => result,
            Err(SimError::Checkpoint { .. }) if resume_digest.is_some() => {
                // The snapshot no longer matches the job (config or trace
                // moved underneath it, or it was corrupted after the read
                // above). Drop it and redo the attempt from scratch — the
                // recursion terminates because the snapshot is gone.
                if let Some(path) = &snapshot_path {
                    let _ = std::fs::remove_file(path);
                }
                return self.attempt_timed(job, timings);
            }
            Err(e) => return Err(e.to_string()),
        };
        t.simulate = t2.elapsed();
        publish(t);
        let t3 = Instant::now();
        // Store under the base key (the canonical complete-job result;
        // resumed runs are bit-identical to fresh ones, proven by the
        // checkpoint round-trip suite) and drop the now-redundant snapshot
        // so the next attempt of this job is a plain base-key hit.
        self.cache.store(job.key, &job.spec.label(), &result);
        if key != job.key {
            self.cache.store(key, &job.spec.label(), &result);
        }
        if let Some(path) = &snapshot_path {
            let _ = std::fs::remove_file(path);
        }
        t.store = t3.elapsed();
        publish(t);
        Ok((result, false))
    }
}

/// Fold a resume snapshot's digest (itself a hash over the snapshot's
/// per-section hashes) into a job's cache key, giving the resumed
/// computation its own identity.
pub(crate) fn fold_resume_key(base: u64, snapshot_digest: u64) -> u64 {
    fnv1a64(format!("swiftsim-resume;base={base:016x};snapshot={snapshot_digest:016x}").as_bytes())
}

/// Map one executor run back onto the job it executed.
fn outcome_of(
    (job, run): (
        &ResolvedJob,
        crate::executor::JobRun<(swiftsim_core::SimulationResult, bool)>,
    ),
) -> JobOutcome {
    let (status, attempts) = match (run.result, run.cancelled) {
        (_, true) => (JobStatus::Cancelled, 0),
        (Ok((result, true)), _) => (JobStatus::Cached(RenderedResult::new(result)), 0),
        (Ok((result, false)), _) => (
            JobStatus::Completed(RenderedResult::new(result)),
            run.attempts,
        ),
        (Err(error), _) => (JobStatus::Failed { error }, run.attempts),
    };
    JobOutcome {
        index: job.spec.index,
        label: job.spec.label(),
        status,
        attempts,
        wall: run.wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheMode;
    use crate::spec::CampaignSpec;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swiftsim-runner-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_jobs(n_schedulers: usize) -> Vec<ResolvedJob> {
        let scheds = ["gto", "lrr", "two_level"][..n_schedulers].join(", ");
        CampaignSpec::parse(&format!(
            "workload = nw\nscale = tiny\npreset = swift-memory\nscheduler = {scheds}\n"
        ))
        .unwrap()
        .resolve()
        .unwrap()
    }

    #[test]
    fn run_one_matches_pool_run() {
        let jobs = tiny_jobs(2);
        let runner = JobRunner::new(
            ExecutorOptions::default(),
            ResultCache::new(scratch_dir("one"), CacheMode::Off),
        );
        let pooled = runner.run(&jobs, &CancelToken::new());
        let single = runner.run_one(&jobs[0], &CancelToken::new());
        let (JobStatus::Completed(a), JobStatus::Completed(b)) =
            (&pooled[0].status, &single.status)
        else {
            panic!("both must complete: {pooled:?} / {single:?}");
        };
        assert_eq!(a.cycles, b.cycles, "same job, same prediction");
        assert_eq!(single.index, jobs[0].spec.index);
    }

    #[test]
    fn cancelled_token_skips_unstarted_jobs() {
        let jobs = tiny_jobs(3);
        let runner = JobRunner::new(
            ExecutorOptions::default(),
            ResultCache::new(scratch_dir("cancel"), CacheMode::Off),
        );
        let cancel = CancelToken::new();
        cancel.cancel();
        let outcomes = runner.run(&jobs, &cancel);
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert_eq!(o.status, JobStatus::Cancelled, "{o:?}");
            assert_eq!(o.attempts, 0);
        }
        // A single-job run honors the token the same way.
        let one = runner.run_one(&jobs[0], &cancel);
        assert_eq!(one.status, JobStatus::Cancelled);
    }

    #[test]
    fn run_one_timed_attributes_stages() {
        let dir = scratch_dir("timed");
        let jobs = tiny_jobs(1);
        let runner = JobRunner::new(
            ExecutorOptions::default(),
            ResultCache::new(dir.clone(), CacheMode::Use),
        );
        let (fresh, t) = runner.run_one_timed(&jobs[0], &CancelToken::new());
        assert!(matches!(fresh.status, JobStatus::Completed(_)), "{fresh:?}");
        assert!(t.simulate > Duration::ZERO, "{t:?}");
        // The cached re-run never reaches the simulate stage.
        let (cached, t2) = runner.run_one_timed(&jobs[0], &CancelToken::new());
        assert!(matches!(cached.status, JobStatus::Cached(_)), "{cached:?}");
        assert_eq!(t2.simulate, Duration::ZERO, "{t2:?}");
        assert_eq!(t2.build, Duration::ZERO, "{t2:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A multi-kernel job so a `halt_after`-interrupted attempt genuinely
    /// stops mid-application.
    fn backprop_job() -> Vec<ResolvedJob> {
        CampaignSpec::parse("workload = backprop\nscale = tiny\npreset = swift-memory\n")
            .unwrap()
            .resolve()
            .unwrap()
    }

    #[test]
    fn fold_resume_key_is_stable_and_distinct() {
        let base = 0x1234_5678_9abc_def0u64;
        let folded = fold_resume_key(base, 7);
        assert_eq!(folded, fold_resume_key(base, 7), "deterministic");
        assert_ne!(folded, base, "a resumed computation has its own key");
        assert_ne!(folded, fold_resume_key(base, 8), "digest-sensitive");
        assert_ne!(folded, fold_resume_key(base ^ 1, 7), "base-sensitive");
    }

    #[test]
    fn interrupted_job_resumes_and_matches_a_fresh_run() {
        let cache_dir = scratch_dir("ckpt-cache");
        let ckpt_dir = scratch_dir("ckpt-snaps");
        let jobs = backprop_job();
        let job = &jobs[0];
        let runner = JobRunner::new(
            ExecutorOptions::default(),
            ResultCache::new(cache_dir.clone(), CacheMode::Use),
        )
        .with_checkpoint_dir(ckpt_dir.clone());
        let snap_path = runner.snapshot_path(job).expect("checkpointing is on");
        std::fs::create_dir_all(&ckpt_dir).unwrap();

        // "Kill" an attempt mid-application: the same configuration run
        // with halt_after leaves its boundary snapshot in the job's slot.
        let halted = RunOptions::default()
            .with_fidelity(job.fidelity)
            .with_threads(job.spec.threads)
            .with_checkpoint_out(&snap_path)
            .with_halt_after(1);
        let partial = GpuSimulator::try_new(job.cfg.clone(), &halted)
            .unwrap()
            .run(job.app.as_ref())
            .unwrap();
        assert_eq!(partial.kernels.len(), 1, "halted after the first kernel");
        let digest = Snapshot::read_from(&snap_path).unwrap().digest();

        // The next attempt resumes from the snapshot and completes.
        let outcome = runner.run_one(job, &CancelToken::new());
        let JobStatus::Completed(resumed) = &outcome.status else {
            panic!("resumed attempt must complete: {outcome:?}");
        };
        assert!(resumed.kernels.len() > 1, "covers the whole application");
        assert!(!snap_path.exists(), "snapshot is dropped on completion");
        // The result is canonical: stored under the base key and the
        // folded resume key alike.
        assert!(runner.cache().lookup(job.key).is_some());
        assert!(runner
            .cache()
            .lookup(fold_resume_key(job.key, digest))
            .is_some());

        // Bit-identical to an uninterrupted run of the same job.
        let fresh_runner = JobRunner::new(
            ExecutorOptions::default(),
            ResultCache::new(scratch_dir("ckpt-fresh"), CacheMode::Off),
        );
        let fresh = fresh_runner.run_one(job, &CancelToken::new());
        let JobStatus::Completed(fresh) = &fresh.status else {
            panic!("fresh run must complete: {fresh:?}");
        };
        assert_eq!(resumed.cycles, fresh.cycles);
        assert_eq!(resumed.kernels, fresh.kernels);
        assert_eq!(resumed.metrics, fresh.metrics);

        let _ = std::fs::remove_dir_all(&cache_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn corrupt_snapshot_is_discarded_and_the_job_completes() {
        let cache_dir = scratch_dir("ckpt-bad-cache");
        let ckpt_dir = scratch_dir("ckpt-bad-snaps");
        let jobs = backprop_job();
        let job = &jobs[0];
        let runner = JobRunner::new(
            ExecutorOptions::default(),
            ResultCache::new(cache_dir.clone(), CacheMode::Off),
        )
        .with_checkpoint_dir(ckpt_dir.clone());
        let snap_path = runner.snapshot_path(job).unwrap();
        std::fs::create_dir_all(&ckpt_dir).unwrap();
        std::fs::write(&snap_path, "not a snapshot").unwrap();

        let outcome = runner.run_one(job, &CancelToken::new());
        assert!(
            matches!(outcome.status, JobStatus::Completed(_)),
            "a corrupt snapshot must not fail the job: {outcome:?}"
        );
        assert!(!snap_path.exists(), "the corrupt snapshot is removed");

        let _ = std::fs::remove_dir_all(&cache_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn run_one_hits_the_shared_disk_cache() {
        let dir = scratch_dir("disk");
        let jobs = tiny_jobs(1);
        let runner = JobRunner::new(
            ExecutorOptions::default(),
            ResultCache::new(dir.clone(), CacheMode::Use),
        );
        let first = runner.run_one(&jobs[0], &CancelToken::new());
        assert!(matches!(first.status, JobStatus::Completed(_)), "{first:?}");
        let second = runner.run_one(&jobs[0], &CancelToken::new());
        let JobStatus::Cached(cached) = &second.status else {
            panic!("second run must hit the cache: {second:?}");
        };
        let JobStatus::Completed(fresh) = &first.status else {
            unreachable!();
        };
        assert_eq!(cached.cycles, fresh.cycles);
        assert_eq!(second.attempts, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
