//! The campaign worker pool: whole simulations in parallel, with per-job
//! panic isolation and bounded retries.
//!
//! This is the *coarse-grained* parallelism axis ("Parallelizing a modern
//! GPU simulator" calls it simulation-level): independent jobs on
//! independent threads, embarrassingly parallel. It composes with the
//! *fine-grained* SM-sharded parallelism inside `swiftsim-core` — a
//! campaign of N jobs each using M shard threads runs N×M workers at peak.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use swiftsim_core::{panic_message, SimulationResult};

/// A shared cancellation flag: cancel once, observed by every holder.
///
/// Cancellation is cooperative and job-granular: a job that has not started
/// when the token trips is never started (its `JobRun` comes back with
/// `JobRun::cancelled` set); a job already simulating runs to completion
/// — the simulator has no mid-run interruption point — and its result is
/// still returned.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trip the token. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Worker-pool configuration.
#[derive(Debug, Clone)]
pub struct ExecutorOptions {
    /// Concurrent workers; `0` means one per available CPU. Always clamped
    /// to the job count.
    pub workers: usize,
    /// Re-runs granted to a job that errors or panics.
    pub max_retries: u32,
    /// Print one line per finished job to stderr.
    pub progress: bool,
    /// Print a periodic `[heartbeat]` status line to stderr while jobs are
    /// still running, at this interval.
    pub heartbeat: Option<Duration>,
    /// Build each job's simulator with self-profiling enabled.
    pub profile: bool,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            workers: 0,
            max_retries: 1,
            progress: false,
            heartbeat: None,
            profile: false,
        }
    }
}

impl ExecutorOptions {
    /// Effective worker count for `n` jobs.
    pub fn effective_workers(&self, n: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        };
        requested.clamp(1, n.max(1))
    }
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Simulated in this run.
    Completed(SimulationResult),
    /// Served from the result cache.
    Cached(SimulationResult),
    /// All attempts errored or panicked; the message is the last failure.
    Failed {
        /// Last error or panic message.
        error: String,
    },
    /// Never started: its [`CancelToken`] tripped first.
    Cancelled,
}

/// Outcome and accounting of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's index in the campaign's expansion order.
    pub index: usize,
    /// The job's human-readable label.
    pub label: String,
    /// How it ended.
    pub status: JobStatus,
    /// Attempts consumed (0 for cache hits, else ≥ 1).
    pub attempts: u32,
    /// Wall-clock time spent on the job, including failed attempts.
    pub wall: Duration,
}

/// One generic job execution: result, attempts consumed, wall time.
#[derive(Debug, Clone)]
pub struct JobRun<R> {
    /// `Ok` from the first successful attempt, or the last failure — an
    /// error string, with panics rendered as `panic: <message>`.
    pub result: Result<R, String>,
    /// Attempts consumed (≥ 1; 0 when the job was cancelled before it
    /// started).
    pub attempts: u32,
    /// Wall time across all attempts.
    pub wall: Duration,
    /// The job never started because the pool's [`CancelToken`] tripped;
    /// `result` holds `Err("cancelled")`.
    pub cancelled: bool,
}

/// Run `run` over every job on a worker pool, isolating panics and
/// retrying failures up to `opts.max_retries` extra attempts.
///
/// Results come back in job order regardless of scheduling. A panic in one
/// job is caught ([`catch_unwind`]) and becomes that job's `Err`; the pool
/// and the other jobs are unaffected.
pub fn run_jobs<J, R>(
    jobs: &[J],
    opts: &ExecutorOptions,
    label: impl Fn(&J) -> String + Sync,
    run: impl Fn(usize, &J) -> Result<R, String> + Sync,
) -> Vec<JobRun<R>>
where
    J: Sync,
    R: Send,
{
    run_jobs_cancellable(jobs, opts, &CancelToken::new(), label, run)
}

/// [`run_jobs`] with a [`CancelToken`]: jobs not yet started when the token
/// trips are skipped and come back with `JobRun::cancelled` set.
pub fn run_jobs_cancellable<J, R>(
    jobs: &[J],
    opts: &ExecutorOptions,
    cancel: &CancelToken,
    label: impl Fn(&J) -> String + Sync,
    run: impl Fn(usize, &J) -> Result<R, String> + Sync,
) -> Vec<JobRun<R>>
where
    J: Sync,
    R: Send,
{
    let workers = opts.effective_workers(jobs.len());
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<JobRun<R>>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };

                let started = Instant::now();
                let mut attempts = 0;
                let mut was_cancelled = false;
                let result = loop {
                    if cancel.is_cancelled() {
                        was_cancelled = attempts == 0;
                        break Err("cancelled".to_owned());
                    }
                    attempts += 1;
                    let attempt =
                        catch_unwind(AssertUnwindSafe(|| run(i, job))).unwrap_or_else(|payload| {
                            Err(format!("panic: {}", panic_message(payload.as_ref())))
                        });
                    match attempt {
                        Ok(r) => break Ok(r),
                        Err(e) if attempts > opts.max_retries => break Err(e),
                        Err(_) => {}
                    }
                };
                let outcome = JobRun {
                    result,
                    attempts,
                    wall: started.elapsed(),
                    cancelled: was_cancelled,
                };

                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                if opts.progress {
                    let status = match &outcome.result {
                        Ok(_) => "ok".to_owned(),
                        Err(e) => format!("FAILED: {e}"),
                    };
                    eprintln!(
                        "[{finished}/{}] {} — {status} ({:.1} ms, {} attempt{})",
                        jobs.len(),
                        label(job),
                        outcome.wall.as_secs_f64() * 1e3,
                        outcome.attempts,
                        if outcome.attempts == 1 { "" } else { "s" },
                    );
                }

                slots.lock().expect("result slots poisoned")[i] = Some(outcome);
            });
        }

        // The scope's own thread would otherwise just block at the scope
        // end; with a heartbeat configured it polls the done counter and
        // reports liveness for long sweeps.
        if let Some(period) = opts.heartbeat {
            let started = Instant::now();
            let mut last_beat = Instant::now();
            while done.load(Ordering::Relaxed) < jobs.len() {
                std::thread::sleep(period.min(Duration::from_millis(50)));
                if last_beat.elapsed() >= period && done.load(Ordering::Relaxed) < jobs.len() {
                    last_beat = Instant::now();
                    eprintln!(
                        "[heartbeat] {}/{} jobs done, {:.1} s elapsed",
                        done.load(Ordering::Relaxed),
                        jobs.len(),
                        started.elapsed().as_secs_f64(),
                    );
                }
            }
        }
    });

    slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every job index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;

    fn opts(workers: usize, max_retries: u32) -> ExecutorOptions {
        ExecutorOptions {
            workers,
            max_retries,
            progress: false,
            heartbeat: None,
            profile: false,
        }
    }

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<u64> = (0..32).collect();
        let runs = run_jobs(
            &jobs,
            &opts(4, 0),
            |_| String::new(),
            |_, &j| {
                // Stagger completion so out-of-order finishes are likely.
                std::thread::sleep(Duration::from_micros((32 - j) * 50));
                Ok(j * 10)
            },
        );
        let values: Vec<u64> = runs.into_iter().map(|r| r.result.unwrap()).collect();
        assert_eq!(values, (0..32).map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        let jobs: Vec<usize> = (0..8).collect();
        let runs = run_jobs(
            &jobs,
            &opts(3, 0),
            |_| String::new(),
            |_, &j| {
                if j == 5 {
                    panic!("injected failure in job {j}");
                }
                Ok(j)
            },
        );
        for (j, run) in runs.iter().enumerate() {
            if j == 5 {
                let err = run.result.as_ref().unwrap_err();
                assert!(err.contains("panic"), "{err}");
                assert!(err.contains("injected failure in job 5"), "{err}");
            } else {
                assert_eq!(*run.result.as_ref().unwrap(), j, "job {j} must complete");
            }
        }
    }

    #[test]
    fn failures_are_retried_within_bounds() {
        let tries = AtomicUsize::new(0);
        let runs = run_jobs(
            &[()],
            &opts(1, 3),
            |_| String::new(),
            |_, ()| {
                // Fails twice, then succeeds: needs 2 retries of the 3 granted.
                if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                    Err("flaky".to_owned())
                } else {
                    Ok(())
                }
            },
        );
        assert!(runs[0].result.is_ok());
        assert_eq!(runs[0].attempts, 3);

        let runs = run_jobs(
            &[()],
            &opts(1, 1),
            |_| String::new(),
            |_, ()| Err::<(), _>("always down".to_owned()),
        );
        assert_eq!(runs[0].result.as_ref().unwrap_err(), "always down");
        assert_eq!(runs[0].attempts, 2, "initial try + 1 retry");
    }

    #[test]
    fn two_workers_run_jobs_concurrently() {
        // Both jobs block until the *other* is also inside the runner; only
        // genuinely concurrent execution lets them release each other.
        let gate = Mutex::new(0usize);
        let cv = Condvar::new();
        let jobs = [0, 1];
        let runs = run_jobs(
            &jobs,
            &opts(2, 0),
            |_| String::new(),
            |_, _| {
                let mut inside = gate.lock().unwrap();
                *inside += 1;
                cv.notify_all();
                let (guard, timeout) = cv
                    .wait_timeout_while(inside, Duration::from_secs(10), |n| *n < 2)
                    .unwrap();
                drop(guard);
                if timeout.timed_out() {
                    Err("never saw a concurrent peer".to_owned())
                } else {
                    Ok(())
                }
            },
        );
        assert!(
            runs.iter().all(|r| r.result.is_ok()),
            "jobs must overlap in time with 2 workers: {:?}",
            runs.iter().map(|r| r.result.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn heartbeat_monitor_does_not_wedge_the_pool() {
        // The monitor runs on the scope's main thread; the pool must still
        // drain every job and return, even with a sub-job-length interval.
        let jobs: Vec<u64> = (0..6).collect();
        let mut o = opts(2, 0);
        o.heartbeat = Some(Duration::from_millis(1));
        let runs = run_jobs(
            &jobs,
            &o,
            |_| String::new(),
            |_, &j| {
                std::thread::sleep(Duration::from_millis(10));
                Ok(j)
            },
        );
        let values: Vec<u64> = runs.into_iter().map(|r| r.result.unwrap()).collect();
        assert_eq!(values, jobs);
    }

    #[test]
    fn worker_count_is_clamped() {
        let o = opts(16, 0);
        assert_eq!(o.effective_workers(3), 3);
        assert_eq!(o.effective_workers(0), 1);
        assert!(opts(0, 0).effective_workers(64) >= 1);
    }
}
