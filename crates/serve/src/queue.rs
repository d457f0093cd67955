//! The async job queue: submissions, per-task scheduling, lifecycle
//! states, fairness, and drain.
//!
//! A *submission* (one `submit` request — a whole sweep or a single run)
//! expands into one **task per simulation**. Tasks, not submissions, are
//! the scheduling unit: a 100-job sweep from one client does not block a
//! single-run request from another, because the scheduler hands out tasks
//! **round-robin across clients** — each dispatch goes to the next client
//! in rotation that has runnable work. Within one client, higher
//! `priority` tasks go first; ties break by submission order then task
//! index, so scheduling is deterministic given a dispatch order.
//!
//! Lifecycle: every task is `queued` → `running` → terminal
//! (`done`/`failed`/`cancelled`), and a submission's state is derived
//! from its tasks. Cancellation is cooperative and task-granular
//! (matching [`swiftsim_campaign::CancelToken`]): queued tasks die
//! immediately, running tasks finish and keep their result.
//!
//! The queue is executor-agnostic: local worker threads and remote worker
//! connections both pull from [`JobQueue::next_task`] and push through
//! [`JobQueue::complete`]. Remote failure splits into two independently
//! counted, independently capped budgets:
//!
//! * **Infrastructure losses** — the executor vanished (connection drop,
//!   lease expiry) and said nothing about the job itself. These go through
//!   [`JobQueue::requeue`], bounded by `max_losses`.
//! * **Execution failures** — a live worker ran the job and reported a
//!   real error. These go through [`JobQueue::grant_retry`], bounded by
//!   `max_exec_retries`.
//!
//! Keeping the two counters separate means a sweep on flaky workers
//! cannot silently burn a task's execution-retry budget on connection
//! drops (nor the reverse), and a task that ultimately fails does so with
//! the right diagnosis: the real execution error when the job is bad, an
//! executor-loss message when the fleet is.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use swiftsim_campaign::{CampaignReport, CancelToken, JobOutcome, JobStatus, ResolvedJob};

/// One schedulable simulation, leased to whichever executor claimed it.
#[derive(Debug, Clone)]
pub struct LeasedTask {
    /// The owning submission.
    pub submission: u64,
    /// Task index within the submission (== `job.spec.index`).
    pub index: usize,
    /// The resolved job to execute.
    pub job: ResolvedJob,
    /// The submission's cancel token; executors pass it to the runner.
    pub cancel: CancelToken,
    /// How long the task sat queued before this dispatch (since submission,
    /// or since its latest requeue).
    pub queue_wait: Duration,
}

/// One lease that [`JobQueue::requeue_executor`] or
/// [`JobQueue::reap_expired`] took back, so the caller can log and trace
/// exactly which run/task was affected and whether it got another chance.
#[derive(Debug, Clone)]
pub struct RequeuedLease {
    /// The owning submission.
    pub submission: u64,
    /// Task index within the submission.
    pub index: usize,
    /// Task label (for logs).
    pub label: String,
    /// The executor that held the lease.
    pub executor: String,
    /// Whether the task was queued again (`false`: its loss budget is
    /// spent and it was failed).
    pub requeued: bool,
}

/// What [`JobQueue::next_task`] returned.
#[derive(Debug)]
pub enum Dispatch {
    /// A task to execute.
    Task(Box<LeasedTask>),
    /// Nothing runnable before the deadline; poll again.
    Idle,
    /// The queue is draining and has nothing left to hand out — executors
    /// should exit.
    Drain,
}

#[derive(Debug)]
enum TaskState {
    Queued,
    Running { executor: String, since: Instant },
    Terminal(Box<JobOutcome>),
}

#[derive(Debug)]
struct Task {
    job: ResolvedJob,
    state: TaskState,
    /// When the task last became `Queued` (submission or latest requeue);
    /// the base of the queue-wait latency reported on dispatch.
    enqueued: Instant,
    /// Times this task was requeued after losing its executor
    /// (infrastructure: connection drops, lease expiries). Counted
    /// separately from `exec_failures` so flaky workers cannot exhaust a
    /// task's execution-retry budget.
    losses: u32,
    /// Times a live worker ran this task and reported a real execution
    /// failure.
    exec_failures: u32,
}

/// Tasks per lifecycle state, across all submissions — the per-state
/// breakdown a `stats` endpoint reports next to the flat queue depth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskStateCounts {
    /// Waiting for an executor.
    pub queued: usize,
    /// Leased to an executor.
    pub running: usize,
    /// Finished with a fresh result.
    pub completed: usize,
    /// Finished from cache (disk or warm).
    pub cached: usize,
    /// Finished with an error.
    pub failed: usize,
    /// Cancelled before running.
    pub cancelled: usize,
}

struct Submission {
    id: u64,
    name: String,
    client: String,
    priority: u64,
    seq: u64,
    cancel: CancelToken,
    tasks: Vec<Task>,
    /// Tasks in `Queued`, kept in step by [`Submission::set_state`], so the
    /// scheduler skips a submission with none without walking its tasks.
    queued: usize,
}

impl Submission {
    /// Move task `index` to `state`.
    fn set_state(&mut self, index: usize, state: TaskState) {
        let task = &mut self.tasks[index];
        let was = matches!(task.state, TaskState::Queued);
        task.state = state;
        let is = matches!(task.state, TaskState::Queued);
        self.queued = self.queued + usize::from(is) - usize::from(was);
    }
}

/// A submission's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionState {
    /// No task has started.
    Queued,
    /// At least one task is running or finished, and some remain.
    Running,
    /// Every task finished, none failed or was cancelled.
    Done,
    /// Every task finished and at least one failed.
    Failed,
    /// Every task finished, none failed, at least one was cancelled.
    Cancelled,
}

impl SubmissionState {
    /// Lower-case protocol name.
    pub fn name(self) -> &'static str {
        match self {
            SubmissionState::Queued => "queued",
            SubmissionState::Running => "running",
            SubmissionState::Done => "done",
            SubmissionState::Failed => "failed",
            SubmissionState::Cancelled => "cancelled",
        }
    }

    /// Whether no further state change can happen.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SubmissionState::Done | SubmissionState::Failed | SubmissionState::Cancelled
        )
    }
}

/// Status snapshot of one submission.
#[derive(Debug, Clone)]
pub struct SubmissionView {
    /// Submission id.
    pub id: u64,
    /// Campaign name.
    pub name: String,
    /// Submitting client.
    pub client: String,
    /// Priority it was submitted with.
    pub priority: u64,
    /// Derived lifecycle state.
    pub state: SubmissionState,
    /// Tasks in a terminal state.
    pub done: usize,
    /// Tasks currently running.
    pub running: usize,
    /// Total tasks.
    pub total: usize,
}

struct QueueState {
    submissions: HashMap<u64, Submission>,
    next_id: u64,
    next_seq: u64,
    /// Client rotation cursor: the client that was served most recently.
    last_client: Option<String>,
    draining: bool,
}

/// The shared queue. All methods are safe to call from any thread.
pub struct JobQueue {
    state: Mutex<QueueState>,
    /// Signaled on every state change: new tasks, completions, drain.
    changed: Condvar,
    /// Requeues granted to a task whose executor was lost, before the task
    /// is failed outright. Infrastructure budget only — independent of
    /// `max_exec_retries`.
    max_losses: u32,
    /// Re-runs granted to a task whose worker reported a real execution
    /// failure, before that failure becomes the task's outcome.
    max_exec_retries: u32,
}

impl JobQueue {
    /// An empty queue. A task survives `max_losses` executor losses
    /// (worker connection drops, lease expiries) and, independently,
    /// `max_exec_retries` reported execution failures before failing.
    pub fn new(max_losses: u32, max_exec_retries: u32) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                submissions: HashMap::new(),
                next_id: 1,
                next_seq: 0,
                last_client: None,
                draining: false,
            }),
            changed: Condvar::new(),
            max_losses,
            max_exec_retries,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueue a submission: one task per resolved job. Returns the
    /// submission id, or `None` when the queue is draining (new work is
    /// refused during shutdown).
    pub fn submit(
        &self,
        client: &str,
        name: &str,
        priority: u64,
        jobs: Vec<ResolvedJob>,
    ) -> Option<u64> {
        self.submit_prejudged(client, name, priority, jobs.into_iter().map(|j| (j, None)))
    }

    /// [`JobQueue::submit`], but tasks arriving with a ready outcome (a
    /// warm-cache hit judged at submit time) are born terminal and never
    /// scheduled. Judging at submit time — instead of completing the task
    /// after enqueueing it — closes the race where an executor claims the
    /// task before the warm hit lands.
    pub fn submit_prejudged(
        &self,
        client: &str,
        name: &str,
        priority: u64,
        jobs: impl IntoIterator<Item = (ResolvedJob, Option<JobOutcome>)>,
    ) -> Option<u64> {
        let mut state = self.lock();
        if state.draining {
            return None;
        }
        let id = state.next_id;
        state.next_id += 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        let tasks: Vec<Task> = jobs
            .into_iter()
            .map(|(job, prejudged)| Task {
                job,
                state: match prejudged {
                    Some(outcome) => TaskState::Terminal(Box::new(outcome)),
                    None => TaskState::Queued,
                },
                enqueued: Instant::now(),
                losses: 0,
                exec_failures: 0,
            })
            .collect();
        let queued = tasks
            .iter()
            .filter(|t| matches!(t.state, TaskState::Queued))
            .count();
        state.submissions.insert(
            id,
            Submission {
                id,
                name: name.to_owned(),
                client: client.to_owned(),
                priority,
                seq,
                cancel: CancelToken::new(),
                tasks,
                queued,
            },
        );
        drop(state);
        self.changed.notify_all();
        Some(id)
    }

    /// Claim the next runnable task for `executor`, blocking up to
    /// `deadline`.
    ///
    /// Fairness: the dispatch goes to the next client in rotation (after
    /// the most recently served one) that has runnable work. Within that
    /// client: highest priority, then oldest submission, then lowest task
    /// index.
    pub fn next_task(&self, executor: &str, deadline: Duration) -> Dispatch {
        let start = Instant::now();
        let mut state = self.lock();
        loop {
            if let Some((sub_id, index)) = pick_task(&state) {
                let sub = state.submissions.get_mut(&sub_id).expect("picked exists");
                let client = sub.client.clone();
                let cancel = sub.cancel.clone();
                let queue_wait = sub.tasks[index].enqueued.elapsed();
                sub.set_state(
                    index,
                    TaskState::Running {
                        executor: executor.to_owned(),
                        since: Instant::now(),
                    },
                );
                let leased = LeasedTask {
                    submission: sub_id,
                    index,
                    job: sub.tasks[index].job.clone(),
                    cancel,
                    queue_wait,
                };
                state.last_client = Some(client);
                return Dispatch::Task(Box::new(leased));
            }
            if state.draining {
                return Dispatch::Drain;
            }
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return Dispatch::Idle;
            }
            let (guard, _) = self
                .changed
                .wait_timeout(state, deadline - elapsed)
                .unwrap_or_else(|p| p.into_inner());
            state = guard;
        }
    }

    /// Record a finished task. The outcome's `index` must match the task's.
    pub fn complete(&self, submission: u64, index: usize, outcome: JobOutcome) {
        let mut state = self.lock();
        if let Some(sub) = state.submissions.get_mut(&submission) {
            debug_assert_eq!(outcome.index, index);
            sub.set_state(index, TaskState::Terminal(Box::new(outcome)));
        }
        drop(state);
        self.changed.notify_all();
    }

    /// Return a running task to the queue (its executor was lost). After
    /// `max_losses` requeues the task is failed instead, so one bad input
    /// cannot bounce between workers forever. Returns whether the task is
    /// queued again (false: it was failed, or was not running).
    ///
    /// This is the *infrastructure* path — the executor said nothing about
    /// the job itself. Losses counted here never touch the execution-retry
    /// budget (see [`JobQueue::grant_retry`]).
    pub fn requeue(&self, submission: u64, index: usize, reason: &str) -> bool {
        let mut state = self.lock();
        let Some(sub) = state.submissions.get_mut(&submission) else {
            return false;
        };
        let label = sub.tasks[index].job.spec.label();
        let task = &mut sub.tasks[index];
        if !matches!(task.state, TaskState::Running { .. }) {
            return false;
        }
        task.losses += 1;
        let losses = task.losses;
        let requeued = losses <= self.max_losses;
        if requeued {
            task.enqueued = Instant::now();
            sub.set_state(index, TaskState::Queued);
        } else {
            let outcome = JobOutcome {
                index,
                label,
                status: JobStatus::Failed {
                    error: format!("lost executor {losses} times (last: {reason})"),
                },
                attempts: losses,
                wall: Duration::ZERO,
            };
            sub.set_state(index, TaskState::Terminal(Box::new(outcome)));
        }
        drop(state);
        self.changed.notify_all();
        requeued
    }

    /// A live worker ran this task and reported a real execution failure:
    /// decide whether the task gets another run. Returns `true` and
    /// requeues the task while its execution-failure count is within
    /// `max_exec_retries`; returns `false` (leaving the task `Running`,
    /// for the caller to [`JobQueue::complete`] with the real error) once
    /// the budget is spent or when the task is not running.
    ///
    /// Execution failures counted here never touch the infrastructure-loss
    /// budget (see [`JobQueue::requeue`]): a sweep on flaky workers cannot
    /// burn a task's execution retries on connection drops, nor can a
    /// genuinely failing job eat the requeues that keep it schedulable
    /// across worker churn.
    pub fn grant_retry(&self, submission: u64, index: usize) -> bool {
        let mut state = self.lock();
        let Some(sub) = state.submissions.get_mut(&submission) else {
            return false;
        };
        let task = &mut sub.tasks[index];
        if !matches!(task.state, TaskState::Running { .. }) {
            return false;
        }
        task.exec_failures += 1;
        let retried = task.exec_failures <= self.max_exec_retries;
        if retried {
            task.enqueued = Instant::now();
            sub.set_state(index, TaskState::Queued);
        }
        drop(state);
        self.changed.notify_all();
        retried
    }

    /// Requeue every task currently leased to `executor` (its connection
    /// dropped). Returns the affected leases with their requeue verdicts,
    /// so the caller can attribute every loss in logs and traces.
    pub fn requeue_executor(&self, executor: &str, reason: &str) -> Vec<RequeuedLease> {
        let leased: Vec<(u64, usize, String)> = {
            let state = self.lock();
            state
                .submissions
                .values()
                .flat_map(|sub| {
                    sub.tasks
                        .iter()
                        .enumerate()
                        .filter_map(move |(i, t)| match &t.state {
                            TaskState::Running { executor: e, .. } if e == executor => {
                                Some((sub.id, i, t.job.spec.label()))
                            }
                            _ => None,
                        })
                })
                .collect()
        };
        leased
            .into_iter()
            .map(|(sub, idx, label)| RequeuedLease {
                submission: sub,
                index: idx,
                label,
                executor: executor.to_owned(),
                requeued: self.requeue(sub, idx, reason),
            })
            .collect()
    }

    /// Requeue tasks whose lease is older than `lease` and whose executor
    /// name starts with `executor_prefix`: such an executor is alive
    /// enough to hold a connection but has stopped making progress. The
    /// prefix lets the server reap only *remote* leases — a long-running
    /// local simulation is directly observable and must not be
    /// double-scheduled. Returns the expired leases with their requeue
    /// verdicts.
    pub fn reap_expired(&self, lease: Duration, executor_prefix: &str) -> Vec<RequeuedLease> {
        let expired: Vec<(u64, usize, String, String)> = {
            let state = self.lock();
            state
                .submissions
                .values()
                .flat_map(|sub| {
                    sub.tasks
                        .iter()
                        .enumerate()
                        .filter_map(move |(i, t)| match &t.state {
                            TaskState::Running { since, executor }
                                if since.elapsed() > lease
                                    && executor.starts_with(executor_prefix) =>
                            {
                                Some((sub.id, i, t.job.spec.label(), executor.clone()))
                            }
                            _ => None,
                        })
                })
                .collect()
        };
        expired
            .into_iter()
            .map(|(sub, idx, label, executor)| RequeuedLease {
                submission: sub,
                index: idx,
                label,
                executor,
                requeued: self.requeue(sub, idx, "lease expired"),
            })
            .collect()
    }

    /// Cancel a submission: its token trips (queued tasks are skipped by
    /// the executor path too), and tasks still queued here become terminal
    /// `Cancelled` immediately. Running tasks finish. Returns false for an
    /// unknown id.
    pub fn cancel(&self, submission: u64) -> bool {
        let mut state = self.lock();
        let Some(sub) = state.submissions.get_mut(&submission) else {
            return false;
        };
        sub.cancel.cancel();
        for index in 0..sub.tasks.len() {
            if matches!(sub.tasks[index].state, TaskState::Queued) {
                let outcome = JobOutcome {
                    index,
                    label: sub.tasks[index].job.spec.label(),
                    status: JobStatus::Cancelled,
                    attempts: 0,
                    wall: Duration::ZERO,
                };
                sub.set_state(index, TaskState::Terminal(Box::new(outcome)));
            }
        }
        drop(state);
        self.changed.notify_all();
        true
    }

    /// Stop accepting submissions and wake every waiter. Existing work
    /// still runs to completion (graceful drain).
    pub fn drain(&self) {
        self.lock().draining = true;
        self.changed.notify_all();
    }

    /// Whether nothing is queued or running (during drain: safe to exit).
    pub fn is_idle(&self) -> bool {
        let state = self.lock();
        state.submissions.values().all(|sub| {
            sub.tasks
                .iter()
                .all(|t| matches!(t.state, TaskState::Terminal(_)))
        })
    }

    /// Status of one submission.
    pub fn status(&self, submission: u64) -> Option<SubmissionView> {
        let state = self.lock();
        state.submissions.get(&submission).map(view)
    }

    /// Status of every submission, ordered by id.
    pub fn list(&self) -> Vec<SubmissionView> {
        let state = self.lock();
        let mut views: Vec<SubmissionView> = state.submissions.values().map(view).collect();
        views.sort_by_key(|v| v.id);
        views
    }

    /// Tasks queued or running, across all submissions (the queue depth a
    /// stats endpoint reports).
    pub fn depth(&self) -> usize {
        let state = self.lock();
        state
            .submissions
            .values()
            .flat_map(|s| s.tasks.iter())
            .filter(|t| !matches!(t.state, TaskState::Terminal(_)))
            .count()
    }

    /// Count tasks per lifecycle state across all submissions.
    pub fn state_counts(&self) -> TaskStateCounts {
        let state = self.lock();
        let mut counts = TaskStateCounts::default();
        for task in state.submissions.values().flat_map(|s| s.tasks.iter()) {
            match &task.state {
                TaskState::Queued => counts.queued += 1,
                TaskState::Running { .. } => counts.running += 1,
                TaskState::Terminal(outcome) => match outcome.status {
                    JobStatus::Completed(_) => counts.completed += 1,
                    JobStatus::Cached(_) => counts.cached += 1,
                    JobStatus::Failed { .. } => counts.failed += 1,
                    JobStatus::Cancelled => counts.cancelled += 1,
                },
            }
        }
        counts
    }

    /// Build the finished submission's report. `None` until every task is
    /// terminal (check [`SubmissionView::state`] first).
    ///
    /// Outcomes merge deterministically regardless of which executor
    /// finished which task in which order:
    /// [`CampaignReport::from_outcomes`] matches them back to jobs by
    /// index.
    pub fn report(&self, submission: u64) -> Option<CampaignReport> {
        let state = self.lock();
        let sub = state.submissions.get(&submission)?;
        let mut jobs = Vec::with_capacity(sub.tasks.len());
        let mut outcomes = Vec::with_capacity(sub.tasks.len());
        for task in &sub.tasks {
            match &task.state {
                TaskState::Terminal(outcome) => {
                    jobs.push(task.job.clone());
                    outcomes.push(outcome.as_ref().clone());
                }
                _ => return None,
            }
        }
        Some(CampaignReport::from_outcomes(
            sub.name.clone(),
            jobs,
            outcomes,
        ))
    }

    /// Block until `submission` reaches a terminal state (or `deadline`
    /// passes — then `None`). Unknown ids return `None` immediately.
    pub fn wait_terminal(&self, submission: u64, deadline: Duration) -> Option<SubmissionState> {
        let start = Instant::now();
        let mut state = self.lock();
        loop {
            let current = view(state.submissions.get(&submission)?).state;
            if current.is_terminal() {
                return Some(current);
            }
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return None;
            }
            let (guard, _) = self
                .changed
                .wait_timeout(state, deadline - elapsed)
                .unwrap_or_else(|p| p.into_inner());
            state = guard;
        }
    }
}

fn view(sub: &Submission) -> SubmissionView {
    let total = sub.tasks.len();
    let done = sub
        .tasks
        .iter()
        .filter(|t| matches!(t.state, TaskState::Terminal(_)))
        .count();
    let running = sub
        .tasks
        .iter()
        .filter(|t| matches!(t.state, TaskState::Running { .. }))
        .count();
    let state = if done == total {
        let mut failed = false;
        let mut cancelled = false;
        for t in &sub.tasks {
            if let TaskState::Terminal(o) = &t.state {
                match o.status {
                    JobStatus::Failed { .. } => failed = true,
                    JobStatus::Cancelled => cancelled = true,
                    _ => {}
                }
            }
        }
        if failed {
            SubmissionState::Failed
        } else if cancelled {
            SubmissionState::Cancelled
        } else {
            SubmissionState::Done
        }
    } else if done == 0 && running == 0 {
        SubmissionState::Queued
    } else {
        SubmissionState::Running
    };
    SubmissionView {
        id: sub.id,
        name: sub.name.clone(),
        client: sub.client.clone(),
        priority: sub.priority,
        state,
        done,
        running,
        total,
    }
}

/// The scheduling decision. Returns `(submission, task index)`.
fn pick_task(state: &QueueState) -> Option<(u64, usize)> {
    // Best runnable task per client: (priority desc, seq asc, index asc).
    let mut per_client: HashMap<&str, (u64, u64, usize, u64)> = HashMap::new();
    for sub in state.submissions.values() {
        debug_assert_eq!(
            sub.queued,
            sub.tasks
                .iter()
                .filter(|t| matches!(t.state, TaskState::Queued))
                .count(),
            "submission {}: queued count",
            sub.id
        );
        if sub.queued == 0 {
            continue;
        }
        for (i, task) in sub.tasks.iter().enumerate() {
            if !matches!(task.state, TaskState::Queued) {
                continue;
            }
            let candidate = (sub.priority, sub.seq, i, sub.id);
            let better = match per_client.get(sub.client.as_str()) {
                None => true,
                Some(&(p, s, idx, _)) => {
                    (std::cmp::Reverse(sub.priority), sub.seq, i) < (std::cmp::Reverse(p), s, idx)
                }
            };
            if better {
                per_client.insert(sub.client.as_str(), candidate);
            }
        }
    }
    if per_client.is_empty() {
        return None;
    }

    // Round-robin: the lexicographically next client after the last one
    // served; wrap to the smallest. Client names give a stable rotation
    // order without tracking join order.
    let mut clients: Vec<&str> = per_client.keys().copied().collect();
    clients.sort_unstable();
    let chosen = match state.last_client.as_deref() {
        Some(last) => clients
            .iter()
            .find(|c| **c > last)
            .or_else(|| clients.first())
            .copied()
            .expect("non-empty"),
        None => clients[0],
    };
    let (_, _, index, sub_id) = per_client[chosen];
    Some((sub_id, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use swiftsim_campaign::CampaignSpec;

    fn jobs(n_schedulers: usize) -> Vec<ResolvedJob> {
        let scheds = ["gto", "lrr", "two_level"][..n_schedulers].join(", ");
        CampaignSpec::parse(&format!(
            "workload = nw\nscale = tiny\npreset = swift-memory\nscheduler = {scheds}\n"
        ))
        .unwrap()
        .resolve()
        .unwrap()
    }

    fn done(task: &LeasedTask) -> JobOutcome {
        JobOutcome {
            index: task.index,
            label: task.job.spec.label(),
            status: JobStatus::Failed {
                error: "test stub".to_owned(),
            },
            attempts: 1,
            wall: Duration::ZERO,
        }
    }

    fn claim(q: &JobQueue, executor: &str) -> Box<LeasedTask> {
        match q.next_task(executor, Duration::from_secs(5)) {
            Dispatch::Task(t) => t,
            other => panic!("expected a task, got {other:?}"),
        }
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let q = JobQueue::new(1, 1);
        let id = q.submit("alice", "sweep", 0, jobs(2)).unwrap();
        assert_eq!(q.status(id).unwrap().state, SubmissionState::Queued);
        assert_eq!(q.depth(), 2);

        let t0 = claim(&q, "w0");
        assert_eq!(q.status(id).unwrap().state, SubmissionState::Running);
        assert!(q.report(id).is_none(), "no report before terminal");

        q.complete(id, t0.index, done(&t0));
        let t1 = claim(&q, "w0");
        q.complete(id, t1.index, done(&t1));

        let v = q.status(id).unwrap();
        assert_eq!(v.done, 2);
        assert_eq!(v.state, SubmissionState::Failed, "stub outcomes fail");
        assert_eq!(q.depth(), 0);
        assert!(q.is_idle());
        let report = q.report(id).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(
            q.wait_terminal(id, Duration::ZERO),
            Some(SubmissionState::Failed)
        );
    }

    #[test]
    fn round_robin_across_clients_priority_within() {
        let q = JobQueue::new(1, 1);
        // alice floods the queue first; bob submits one task, low and one
        // high priority.
        let a = q.submit("alice", "flood", 0, jobs(3)).unwrap();
        let b_low = q.submit("bob", "low", 0, jobs(1)).unwrap();
        let b_high = q.submit("bob", "high", 9, jobs(1)).unwrap();

        // Dispatch order: clients alternate; bob's high-priority submission
        // beats his earlier low-priority one.
        let owners: Vec<u64> = (0..5)
            .map(|_| {
                let t = claim(&q, "w");
                let sub = t.submission;
                q.complete(sub, t.index, done(&t));
                sub
            })
            .collect();
        assert_eq!(owners[0], a, "alphabetical start: alice first");
        assert_eq!(owners[1], b_high, "bob's turn serves his priority-9 job");
        assert_eq!(owners[2], a);
        assert_eq!(owners[3], b_low, "bob's queue drains high before low");
        assert_eq!(owners[4], a);
    }

    #[test]
    fn cancel_skips_queued_keeps_running() {
        let q = JobQueue::new(1, 1);
        let id = q.submit("c", "s", 0, jobs(3)).unwrap();
        let running = claim(&q, "w");
        assert!(q.cancel(id));
        assert!(running.cancel.is_cancelled(), "executors observe the token");

        // The two queued tasks became terminal-cancelled instantly; the
        // running one still owes a completion.
        let v = q.status(id).unwrap();
        assert_eq!((v.done, v.running), (2, 1));
        assert_eq!(v.state, SubmissionState::Running);

        q.complete(id, running.index, {
            let mut o = done(&running);
            o.status = JobStatus::Completed(result_stub());
            o
        });
        assert_eq!(q.status(id).unwrap().state, SubmissionState::Cancelled);
        let report = q.report(id).unwrap();
        assert_eq!(report.cancelled(), 2);
        assert_eq!(report.completed(), 1);
    }

    fn result_stub() -> std::sync::Arc<swiftsim_campaign::RenderedResult> {
        // Cheapest honest way to get a real result: run the tiny job.
        let job = jobs(1).remove(0);
        swiftsim_campaign::RenderedResult::new(
            swiftsim_core::run(
                job.app.as_ref(),
                &job.cfg,
                &swiftsim_core::RunOptions::default().with_fidelity(job.fidelity),
            )
            .unwrap(),
        )
    }

    #[test]
    fn requeue_is_bounded() {
        let q = JobQueue::new(2, 1);
        let id = q.submit("c", "s", 0, jobs(1)).unwrap();

        // Two losses: requeued both times.
        for _ in 0..2 {
            let t = claim(&q, "dying-worker");
            assert!(q.requeue(t.submission, t.index, "connection dropped"));
            assert_eq!(q.status(id).unwrap().state, SubmissionState::Queued);
        }
        // Third loss exhausts the budget: the task fails.
        let t = claim(&q, "dying-worker");
        assert!(!q.requeue(t.submission, t.index, "connection dropped"));
        let v = q.status(id).unwrap();
        assert_eq!(v.state, SubmissionState::Failed);
        let report = q.report(id).unwrap();
        assert!(report.rows[0]
            .error
            .as_deref()
            .unwrap()
            .contains("lost executor 3 times"));
    }

    /// Regression: infrastructure losses and execution failures used to be
    /// indistinguishable to the caller-facing budget. With one loss cap of
    /// 1 and one retry cap of 1, a connection drop followed by a reported
    /// failure would exhaust a shared counter; independent counters keep
    /// both budgets intact.
    #[test]
    fn infra_losses_and_exec_failures_are_capped_independently() {
        let q = JobQueue::new(1, 1);
        let id = q.submit("c", "s", 0, jobs(1)).unwrap();

        // One reported execution failure: retried (1 <= max_exec_retries).
        let t = claim(&q, "flaky-sim");
        assert!(q.grant_retry(t.submission, t.index));
        assert_eq!(q.status(id).unwrap().state, SubmissionState::Queued);

        // One connection drop: requeued. A shared counter would be at 2
        // here and fail the task; the infra budget must be untouched by
        // the execution failure above.
        let t = claim(&q, "dying-worker");
        assert!(
            q.requeue(t.submission, t.index, "connection dropped"),
            "an execution failure must not consume the infrastructure budget"
        );

        // Second execution failure: the retry budget is spent. The task is
        // left Running for the caller to complete with the real error —
        // grant_retry never invents an executor-loss message for it.
        let t = claim(&q, "flaky-sim");
        assert!(!q.grant_retry(t.submission, t.index));
        assert_eq!(q.status(id).unwrap().running, 1);
        q.complete(id, t.index, done(&t));
        let report = q.report(id).unwrap();
        assert_eq!(
            report.rows[0].error.as_deref(),
            Some("test stub"),
            "the task fails with the real execution error"
        );
    }

    #[test]
    fn requeue_executor_returns_only_that_workers_leases() {
        let q = JobQueue::new(5, 1);
        let id = q.submit("c", "s", 0, jobs(3)).unwrap();
        let t_a = claim(&q, "a");
        let _t_b = claim(&q, "b");
        let lost = q.requeue_executor("a", "killed");
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].submission, t_a.submission);
        assert_eq!(lost[0].index, t_a.index);
        assert_eq!(lost[0].executor, "a");
        assert!(lost[0].requeued, "budget of 5 grants the requeue");
        assert!(!lost[0].label.is_empty());
        let v = q.status(id).unwrap();
        assert_eq!(v.running, 1, "b's lease survives");
        // a's task is claimable again.
        let t2 = claim(&q, "a2");
        assert_eq!(t2.index, t_a.index);
    }

    #[test]
    fn requeue_executor_reports_exhausted_budgets() {
        let q = JobQueue::new(0, 1);
        let id = q.submit("c", "s", 0, jobs(1)).unwrap();
        let _t = claim(&q, "doomed");
        let lost = q.requeue_executor("doomed", "killed");
        assert_eq!(lost.len(), 1);
        assert!(!lost[0].requeued, "loss budget of 0 fails the task");
        assert_eq!(q.status(id).unwrap().state, SubmissionState::Failed);
    }

    #[test]
    fn reap_expired_requeues_stale_leases() {
        let q = JobQueue::new(5, 1);
        q.submit("c", "s", 0, jobs(1)).unwrap();
        let _t = claim(&q, "remote-hung");
        assert!(
            q.reap_expired(Duration::from_secs(3600), "remote-")
                .is_empty(),
            "fresh lease"
        );
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            q.reap_expired(Duration::from_millis(1), "local-")
                .is_empty(),
            "prefix filter protects other executors"
        );
        let reaped = q.reap_expired(Duration::from_millis(1), "remote-");
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].executor, "remote-hung");
        assert!(reaped[0].requeued);
    }

    #[test]
    fn queue_wait_and_state_counts_track_the_lifecycle() {
        let q = JobQueue::new(1, 1);
        let id = q.submit("c", "s", 0, jobs(3)).unwrap();
        assert_eq!(
            q.state_counts(),
            TaskStateCounts {
                queued: 3,
                ..TaskStateCounts::default()
            }
        );
        std::thread::sleep(Duration::from_millis(15));
        let t = claim(&q, "w");
        assert!(
            t.queue_wait >= Duration::from_millis(15),
            "{:?}",
            t.queue_wait
        );
        let counts = q.state_counts();
        assert_eq!((counts.queued, counts.running), (2, 1));
        q.complete(id, t.index, {
            let mut o = done(&t);
            o.status = JobStatus::Completed(result_stub());
            o
        });
        q.cancel(id);
        let counts = q.state_counts();
        assert_eq!(counts.completed, 1);
        assert_eq!(counts.cancelled, 2);
        assert_eq!(counts.running + counts.queued, 0);
    }

    #[test]
    fn prejudged_tasks_are_born_terminal() {
        let q = JobQueue::new(1, 1);
        let mut js = jobs(2);
        let warm_job = js.remove(0);
        let warm_outcome = JobOutcome {
            index: warm_job.spec.index,
            label: warm_job.spec.label(),
            status: JobStatus::Cached(result_stub()),
            attempts: 0,
            wall: Duration::ZERO,
        };
        let cold = js.remove(0);
        let id = q
            .submit_prejudged(
                "c",
                "s",
                0,
                vec![(warm_job, Some(warm_outcome)), (cold, None)],
            )
            .unwrap();
        // Only the cold task is schedulable; the warm one never dispatches.
        let t = claim(&q, "w");
        assert_eq!(t.index, 1);
        q.complete(id, t.index, done(&t));
        let report = q.report(id).unwrap();
        assert_eq!(report.cached(), 1);
    }

    #[test]
    fn drain_refuses_submits_and_releases_idle_executors() {
        let q = Arc::new(JobQueue::new(1, 1));
        let id = q.submit("c", "s", 0, jobs(1)).unwrap();
        q.drain();
        assert!(q.submit("c", "late", 0, jobs(1)).is_none());

        // Existing work is still handed out during drain...
        let t = claim(&q, "w");
        q.complete(id, t.index, done(&t));
        // ...and once nothing is left, executors are told to exit.
        assert!(matches!(
            q.next_task("w", Duration::from_secs(5)),
            Dispatch::Drain
        ));
        assert!(q.is_idle());
    }

    #[test]
    fn blocked_next_task_wakes_on_submit() {
        let q = Arc::new(JobQueue::new(1, 1));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || match q2.next_task("w", Duration::from_secs(10)) {
            Dispatch::Task(t) => t.job.spec.label(),
            other => panic!("expected task, got {other:?}"),
        });
        std::thread::sleep(Duration::from_millis(30));
        q.submit("c", "s", 0, jobs(1)).unwrap();
        let label = waiter.join().unwrap();
        assert!(label.contains("nw/"), "{label}");
    }

    /// Finished submissions stay in the queue; the scheduler passes over
    /// them on their queued count alone. Every lifecycle move keeps that
    /// count equal to a recount (debug-asserted on each pick).
    #[test]
    fn next_task_finds_one_queued_task_among_finished_submissions() {
        let q = JobQueue::new(1, 1);
        let job = jobs(1).remove(0);
        let cancelled = JobOutcome {
            index: 0,
            label: job.spec.label(),
            status: JobStatus::Cancelled,
            attempts: 0,
            wall: Duration::ZERO,
        };
        for _ in 0..10_000 {
            q.submit_prejudged("old", "done", 0, [(job.clone(), Some(cancelled.clone()))])
                .unwrap();
        }
        let live = q.submit("new", "live", 0, vec![job.clone(); 2]).unwrap();

        let first = claim(&q, "w1");
        assert_eq!((first.submission, first.index), (live, 0));
        assert!(q.requeue(live, 0, "lost"), "back to queued");
        let again = claim(&q, "w1");
        assert_eq!((again.submission, again.index), (live, 0));
        let second = claim(&q, "w2");
        assert_eq!((second.submission, second.index), (live, 1));
        assert!(q.grant_retry(live, 1), "a retry queues it again");
        assert!(q.cancel(live));
        q.complete(live, 0, done(&again));
        assert!(matches!(q.next_task("w1", Duration::ZERO), Dispatch::Idle));
        assert_eq!(q.state_counts().queued, 0);
    }
}
