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
use std::sync::Mutex;
use std::time::{Duration, Instant};
use swiftsim_core::{GpuSimulator, RunOptions};

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
}

impl JobRunner {
    /// A runner with the given pool options and result cache.
    pub fn new(opts: ExecutorOptions, cache: ResultCache) -> Self {
        JobRunner { opts, cache }
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
        let mut t = StageTimings::default();
        let t0 = Instant::now();
        let hit = self.cache.lookup(job.key);
        t.cache_lookup = t0.elapsed();
        publish(t);
        if let Some(hit) = hit {
            return Ok((hit, true));
        }
        let t1 = Instant::now();
        let options = RunOptions::default()
            .with_fidelity(job.fidelity)
            .with_threads(job.spec.threads)
            .with_profile(self.opts.profile);
        let sim = GpuSimulator::try_new(job.cfg.clone(), &options).map_err(|e| e.to_string())?;
        t.build = t1.elapsed();
        publish(t);
        let t2 = Instant::now();
        let result = sim.run(job.app.as_ref()).map_err(|e| e.to_string())?;
        t.simulate = t2.elapsed();
        publish(t);
        let t3 = Instant::now();
        self.cache.store(job.key, &job.spec.label(), &result);
        t.store = t3.elapsed();
        publish(t);
        Ok((result, false))
    }
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
