//! The remote worker: `swiftsim serve --worker <coordinator>`.
//!
//! A worker is deliberately thin: connect, introduce itself, then loop
//! *pulling* tasks. Each task arrives as a **single-job campaign spec in
//! text form** — the worker parses and resolves it with the exact same
//! machinery a local campaign uses, which means it independently
//! recomputes the job's content-addressed key. The key travels back with
//! the result, and the coordinator rejects the result if the keys
//! disagree: any skew between the two processes (simulator version, GPU
//! preset tables, trace file contents) is caught at merge time instead of
//! silently corrupting a sweep.
//!
//! Liveness is structural, not configured: the worker's TCP connection
//! *is* its heartbeat. A killed worker drops the socket, the coordinator
//! requeues its lease within one read timeout; a wedged-but-connected
//! worker is bounded by the coordinator's lease timer.

use crate::protocol::{
    err_response, read_message, str_field, u64_field, write_message, WireError, PROTOCOL_VERSION,
};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;
use swiftsim_campaign::{
    CacheMode, CampaignSpec, CancelToken, ExecutorOptions, JobRunner, JobStatus, ResultCache,
};
use swiftsim_metrics::Json;

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Name reported to the coordinator (diagnostics only; liveness is
    /// per-connection).
    pub name: String,
    /// On-disk result cache directory for simulations run here.
    pub cache_dir: PathBuf,
    /// On-disk cache policy.
    pub cache: CacheMode,
    /// Per-task simulation retries.
    pub max_retries: u32,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            coordinator: "127.0.0.1:7733".to_owned(),
            name: "worker".to_owned(),
            cache_dir: PathBuf::from("target/swiftsim-campaigns/worker-cache"),
            cache: CacheMode::Off,
            max_retries: 1,
        }
    }
}

/// What a worker did before the coordinator drained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Tasks simulated successfully.
    pub completed: u64,
    /// Tasks served from this worker's own disk cache.
    pub cached: u64,
    /// Tasks that failed here (the coordinator decides about retries).
    pub failed: u64,
}

/// Run a worker until the coordinator tells it to drain.
///
/// # Errors
///
/// Returns [`WireError`] when the coordinator is unreachable, closes the
/// connection, or violates the protocol. Task-level simulation failures
/// are *not* errors: they are reported back as failed task results.
pub fn run_worker(opts: &WorkerOptions) -> Result<WorkerSummary, WireError> {
    let stream = TcpStream::connect(&opts.coordinator)?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    let hello = Json::obj(vec![
        ("op", Json::str("worker-hello")),
        ("name", Json::str(&opts.name)),
        ("version", Json::int(PROTOCOL_VERSION)),
    ]);
    write_message(&mut writer, &hello)?;
    let reply = expect_reply(&mut reader)?;
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return Err(WireError::Malformed(format!(
            "coordinator refused hello: {}",
            str_field(&reply, "error").unwrap_or("?")
        )));
    }

    let exec_opts = ExecutorOptions {
        workers: 1,
        max_retries: opts.max_retries,
        progress: false,
        heartbeat: None,
        profile: false,
    };
    let cache = ResultCache::new(opts.cache_dir.clone(), opts.cache);
    let runner = JobRunner::new(exec_opts.clone(), cache.clone());
    // Used for tasks whose coordinator asked for a trace (`"trace": true`):
    // the profiler's per-module frames ship back with the result and merge
    // into the coordinator's session-wide Perfetto timeline.
    let profiled = JobRunner::new(
        ExecutorOptions {
            profile: true,
            ..exec_opts
        },
        cache,
    );

    let mut summary = WorkerSummary::default();
    loop {
        let request = Json::obj(vec![
            ("op", Json::str("task-request")),
            ("name", Json::str(&opts.name)),
        ]);
        write_message(&mut writer, &request)?;
        let reply = expect_reply(&mut reader)?;
        if reply.get("drain") == Some(&Json::Bool(true)) {
            return Ok(summary);
        }
        let Some(task) = reply.get("task").filter(|t| !matches!(t, Json::Null)) else {
            // Coordinator had nothing within its poll window; ask again.
            continue;
        };

        let result_msg = execute_task(&runner, &profiled, task, &mut summary);
        write_message(&mut writer, &result_msg)?;
        let ack = expect_reply(&mut reader)?;
        if ack.get("ok") != Some(&Json::Bool(true)) {
            return Err(WireError::Malformed(format!(
                "coordinator rejected task result: {}",
                str_field(&ack, "error").unwrap_or("?")
            )));
        }
    }
}

fn expect_reply(reader: &mut BufReader<TcpStream>) -> Result<Json, WireError> {
    match read_message(reader)? {
        Some(msg) => Ok(msg),
        None => Err(WireError::Malformed(
            "coordinator closed the connection".to_owned(),
        )),
    }
}

/// Run one shipped task and build its `task-result` message.
///
/// The coordinator's trace context rides along: `submission`/`index` are
/// echoed back as the run/task ids, per-stage wall times are attached for
/// the coordinator's fleet-wide latency histograms, and when the task
/// asked for a trace the profiler's frames ship back under `"profile"`.
fn execute_task(
    runner: &JobRunner,
    profiled: &JobRunner,
    task: &Json,
    summary: &mut WorkerSummary,
) -> Json {
    let submission = u64_field(task, "submission").unwrap_or(0);
    let index = u64_field(task, "index").unwrap_or(0);
    let base = move |status: &str| {
        vec![
            ("op", Json::str("task-result")),
            ("submission", Json::int(submission)),
            ("index", Json::int(index)),
            ("status", Json::str(status)),
        ]
    };
    let fail = |summary: &mut WorkerSummary, key: String, error: String| {
        summary.failed += 1;
        let mut fields = base("failed");
        fields.push(("key", Json::str(key)));
        fields.push(("error", Json::str(error)));
        fields.push(("attempts", Json::int(1)));
        fields.push(("wall_us", Json::int(0)));
        Json::obj(fields)
    };

    let Some(spec_text) = str_field(task, "spec") else {
        return fail(summary, String::new(), "task carried no spec".to_owned());
    };
    let jobs = match CampaignSpec::parse(spec_text).and_then(|s| s.resolve()) {
        Ok(jobs) => jobs,
        Err(e) => return fail(summary, String::new(), format!("spec unusable here: {e}")),
    };
    if jobs.len() != 1 {
        return fail(
            summary,
            String::new(),
            format!("shipped spec expanded to {} jobs, expected 1", jobs.len()),
        );
    }
    let job = &jobs[0];
    // The independently recomputed key: the coordinator compares it with
    // its own before accepting the result.
    let key = job.key_hex();

    let traced = matches!(task.get("trace"), Some(Json::Bool(true)));
    let runner = if traced { profiled } else { runner };
    let (outcome, stages) = runner.run_one_timed(job, &CancelToken::new());
    match outcome.status {
        JobStatus::Completed(result) | JobStatus::Cached(result) => {
            let cached = outcome.attempts == 0;
            if cached {
                summary.cached += 1;
            } else {
                summary.completed += 1;
            }
            let mut fields = base(if cached { "cached" } else { "ok" });
            fields.push(("key", Json::str(key)));
            fields.push(("result", result.json()));
            fields.push(("attempts", Json::int(u64::from(outcome.attempts))));
            fields.push(("wall_us", Json::int(outcome.wall.as_micros() as u64)));
            fields.push(("decode_us", Json::int(stages.build.as_micros() as u64)));
            fields.push(("simulate_us", Json::int(stages.simulate.as_micros() as u64)));
            if let Some(report) = &result.profile {
                fields.push(("profile", report.to_json()));
            }
            Json::obj(fields)
        }
        JobStatus::Failed { error } => fail(summary, key, error),
        JobStatus::Cancelled => fail(summary, key, "cancelled on worker".to_owned()),
    }
}

/// Keep connecting to the coordinator until it answers, up to `attempts`
/// tries spaced `backoff` apart — lets workers start before (or survive a
/// restart of) the coordinator.
///
/// # Errors
///
/// The last connection error when every attempt failed.
pub fn run_worker_with_retry(
    opts: &WorkerOptions,
    attempts: u32,
    backoff: Duration,
) -> Result<WorkerSummary, WireError> {
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff);
        }
        match run_worker(opts) {
            Ok(summary) => return Ok(summary),
            Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                last = Some(WireError::Io(e));
            }
            Err(other) => return Err(other),
        }
    }
    Err(last.unwrap_or_else(|| WireError::Malformed(err_response("no attempts made").dump())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::op_of;

    #[test]
    fn execute_task_reports_key_and_result() {
        let runner = JobRunner::new(
            ExecutorOptions::default(),
            ResultCache::new(
                std::env::temp_dir().join("swiftsim-worker-test"),
                CacheMode::Off,
            ),
        );
        let spec =
            CampaignSpec::parse("workload = nw\nscale = tiny\npreset = swift-memory").unwrap();
        let job = spec.resolve().unwrap().remove(0);
        let task = Json::obj(vec![
            ("submission", Json::int(1)),
            ("index", Json::int(0)),
            (
                "spec",
                Json::str(job.spec.to_single_spec_text("t").unwrap()),
            ),
        ]);
        let mut summary = WorkerSummary::default();
        let msg = execute_task(&runner, &runner, &task, &mut summary);
        assert_eq!(op_of(&msg), "task-result");
        assert_eq!(str_field(&msg, "status"), Some("ok"));
        assert_eq!(str_field(&msg, "key"), Some(job.key_hex().as_str()));
        assert!(msg.get("result").is_some());
        // Stage latencies ride along for the coordinator's histograms; an
        // untraced task ships no profiler frames.
        assert!(u64_field(&msg, "simulate_us").is_some());
        assert!(msg.get("profile").is_none());
        assert_eq!(summary.completed, 1);
    }

    #[test]
    fn traced_task_ships_the_profiler_track() {
        let plain = JobRunner::new(
            ExecutorOptions::default(),
            ResultCache::new(
                std::env::temp_dir().join("swiftsim-worker-trace-test"),
                CacheMode::Off,
            ),
        );
        let profiled = JobRunner::new(
            ExecutorOptions {
                profile: true,
                ..ExecutorOptions::default()
            },
            ResultCache::new(
                std::env::temp_dir().join("swiftsim-worker-trace-test"),
                CacheMode::Off,
            ),
        );
        let spec =
            CampaignSpec::parse("workload = nw\nscale = tiny\npreset = swift-memory").unwrap();
        let job = spec.resolve().unwrap().remove(0);
        let task = Json::obj(vec![
            ("submission", Json::int(7)),
            ("index", Json::int(0)),
            ("trace", Json::Bool(true)),
            (
                "spec",
                Json::str(job.spec.to_single_spec_text("t").unwrap()),
            ),
        ]);
        let mut summary = WorkerSummary::default();
        let msg = execute_task(&plain, &profiled, &task, &mut summary);
        assert_eq!(str_field(&msg, "status"), Some("ok"));
        let profile = msg.get("profile").expect("traced task ships its frames");
        let frames = profile.get("frames").and_then(Json::as_arr).unwrap();
        assert!(!frames.is_empty(), "profiler recorded at least one frame");
        // The trace context echoes back: same run/task ids the
        // coordinator dispatched with.
        assert_eq!(u64_field(&msg, "submission"), Some(7));
        assert_eq!(u64_field(&msg, "index"), Some(0));
    }

    #[test]
    fn unusable_spec_fails_without_crashing() {
        let runner = JobRunner::new(
            ExecutorOptions::default(),
            ResultCache::new(
                std::env::temp_dir().join("swiftsim-worker-test"),
                CacheMode::Off,
            ),
        );
        let task = Json::obj(vec![
            ("submission", Json::int(1)),
            ("index", Json::int(0)),
            ("spec", Json::str("workload = doom\nscale = tiny")),
        ]);
        let mut summary = WorkerSummary::default();
        let msg = execute_task(&runner, &runner, &task, &mut summary);
        assert_eq!(str_field(&msg, "status"), Some("failed"));
        assert!(str_field(&msg, "error").unwrap().contains("spec unusable"));
        assert_eq!(summary.failed, 1);
    }
}
