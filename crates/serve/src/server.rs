//! The coordinator daemon: TCP accept loop, request dispatch, local
//! executor slots, remote-worker bookkeeping, and graceful drain.
//!
//! Threading model (std only, no async runtime):
//!
//! * a **supervisor** thread owns the non-blocking listener: it accepts
//!   connections, reaps expired remote leases, watches the shutdown
//!   flags, and orchestrates the drain;
//! * **local executor** threads (`local_slots` of them) pull tasks from
//!   the queue and run them through the shared [`JobRunner`];
//! * one **connection** thread per client or worker socket speaks the
//!   line-delimited JSON protocol; worker connections double as the
//!   liveness signal — a dropped socket requeues everything leased to it.
//!
//! Every simulation — submitted locally or executed remotely — flows
//! through the same warm caches and the same on-disk result cache, and
//! merges back into its submission by task index, so a sweep's report is
//! bit-identical to what a local `swiftsim campaign` run produces no
//! matter how execution was scheduled.
//!
//! Observability: every significant latency (queue wait, dispatch,
//! decode, simulate, result merge) lands in a mergeable histogram of the
//! daemon's [`Registry`], scrapable via the `metrics` op as Prometheus
//! text or JSON; task-lifecycle events feed a bounded [`FlightRecorder`]
//! that dumps JSONL on deadlock, panic, exhausted worker-loss budgets, or
//! the explicit `dump-events` op; and with a trace output configured
//! ([`ServeOptions::trace_out`]) every task's journey — queue wait,
//! executor span, and the executing worker's own profiler frames shipped
//! back with `task-result` — merges into one Perfetto timeline via
//! [`TraceMux`].

use crate::obs::{failure_kind, TraceMux};
use crate::protocol::{
    err_response, ok_response, op_of, str_field, u64_field, write_message, WireError,
    PROTOCOL_VERSION,
};
use crate::queue::{Dispatch, JobQueue, LeasedTask, RequeuedLease, SubmissionView};
use crate::signal;
use crate::warm::WarmCaches;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swiftsim_campaign::{
    CacheMode, CampaignReport, CampaignSpec, ExecutorOptions, JobOutcome, JobRow, JobRunner,
    JobStatus, RenderedResult, ResultCache, StageTimings,
};
use swiftsim_core::SimulationResult;
use swiftsim_metrics::{CounterSet, FlightRecorder, Json, ProfileReport, Registry};

/// Everything configurable about a serve daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7733` (`:0` picks a free port).
    pub listen: String,
    /// Local executor threads. `None` means one per available CPU; `Some(0)`
    /// runs no local simulations (remote workers do everything).
    pub local_slots: Option<usize>,
    /// On-disk result cache directory (shared with `swiftsim campaign`).
    pub cache_dir: PathBuf,
    /// On-disk cache policy.
    pub cache: CacheMode,
    /// Per-task simulation retries (errors/panics), as in campaigns: on
    /// the local executor, and re-runs of a task whose remote worker
    /// reported a real execution failure.
    pub max_retries: u32,
    /// Warm in-memory result cache budget, bytes.
    pub result_cache_bytes: usize,
    /// Shared decoded-kernel cache budget, bytes.
    pub kernel_cache_bytes: usize,
    /// Times a task may lose its remote worker (connection drop, lease
    /// expiry) before failing. Infrastructure budget: counted and capped
    /// independently of execution failures, so a flaky fleet cannot burn a
    /// task's retry budget without ever running it.
    pub max_worker_losses: u32,
    /// Remote lease age after which a task is taken back from a
    /// non-responsive worker.
    pub worker_lease: Duration,
    /// Write a merged Perfetto/Chrome trace of the whole session here at
    /// drain. Setting this also turns on self-profiling for every task
    /// (local slots directly; remote workers via the shipped `trace`
    /// flag), so the trace carries per-module simulator tracks.
    pub trace_out: Option<PathBuf>,
    /// Where flight-recorder dumps (JSONL, one event per line) go. With
    /// `None`, dumps still announce themselves on stderr but events stay
    /// in memory (reachable via the `dump-events` op).
    pub events_out: Option<PathBuf>,
    /// Flight-recorder ring capacity, in events. `0` disables recording
    /// entirely (the disabled path is one branch per event).
    pub flight_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: "127.0.0.1:7733".to_owned(),
            local_slots: None,
            cache_dir: PathBuf::from("target/swiftsim-campaigns/cache"),
            cache: CacheMode::Use,
            max_retries: 1,
            result_cache_bytes: 64 << 20,
            kernel_cache_bytes: 256 << 20,
            max_worker_losses: 2,
            worker_lease: Duration::from_secs(300),
            trace_out: None,
            events_out: None,
            flight_capacity: 4096,
        }
    }
}

struct ServerShared {
    queue: JobQueue,
    warm: Arc<WarmCaches>,
    runner: JobRunner,
    /// Counters, gauges, and latency histograms, exposed by `metrics`.
    obs: Registry,
    /// Ring buffer of structured lifecycle events for post-mortems.
    flight: FlightRecorder,
    /// Merged-trace accumulator; `Some` iff `trace_out` is configured.
    tracer: Option<TraceMux>,
    started: Instant,
    /// Instance stop flag ( `shutdown` op, [`ServerHandle::shutdown`] ).
    stop: AtomicBool,
    /// Set once the drain finished; connection threads then close.
    finished: AtomicBool,
    conn_ids: AtomicU64,
    opts: ServeOptions,
}

impl ServerShared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    fn counters(&self) -> &CounterSet {
        self.obs.counters()
    }
}

/// A running daemon: its bound address plus shutdown/join control.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    supervisor: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's metric counters (shared; live).
    pub fn counters(&self) -> CounterSet {
        self.shared.obs.counters().clone()
    }

    /// The daemon's full metric registry (shared; live): counters plus
    /// gauges and latency histograms.
    pub fn registry(&self) -> Registry {
        self.shared.obs.clone()
    }

    /// The daemon's flight recorder (shared; live).
    pub fn flight(&self) -> FlightRecorder {
        self.shared.flight.clone()
    }

    /// Begin a graceful drain and block until the daemon has fully
    /// stopped: queued work finishes, new submissions are refused.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.supervisor.join();
    }

    /// Block until the daemon stops on its own (SIGTERM or a `shutdown`
    /// request).
    pub fn join(self) {
        let _ = self.supervisor.join();
    }
}

/// Bind and start a daemon. Returns once the listener is accepting.
///
/// # Errors
///
/// Returns the bind error when the listen address is unusable.
pub fn start(opts: ServeOptions) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&opts.listen)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let exec_opts = ExecutorOptions {
        workers: 1,
        max_retries: opts.max_retries,
        progress: false,
        heartbeat: None,
        // Tracing needs per-module frames from every simulation.
        profile: opts.trace_out.is_some(),
    };
    let cache = ResultCache::new(opts.cache_dir.clone(), opts.cache);
    let runner = JobRunner::new(exec_opts, cache);
    let obs = Registry::new();
    // Touch the gauges so a scrape before any activity still shows them.
    obs.gauge("queue_depth");
    obs.gauge("workers_connected");
    obs.gauge("connections_open");
    let shared = Arc::new(ServerShared {
        queue: JobQueue::new(opts.max_worker_losses, opts.max_retries),
        warm: WarmCaches::new(opts.result_cache_bytes, opts.kernel_cache_bytes),
        runner,
        obs,
        flight: FlightRecorder::with_capacity(opts.flight_capacity),
        tracer: opts.trace_out.as_ref().map(|_| TraceMux::new()),
        started: Instant::now(),
        stop: AtomicBool::new(false),
        finished: AtomicBool::new(false),
        conn_ids: AtomicU64::new(0),
        opts,
    });

    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-supervisor".to_owned())
            .spawn(move || supervise(&shared, &listener))
            .expect("spawn supervisor")
    };

    Ok(ServerHandle {
        addr,
        shared,
        supervisor,
    })
}

fn supervise(shared: &Arc<ServerShared>, listener: &TcpListener) {
    let slots = shared.opts.local_slots.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });

    let mut executors = Vec::with_capacity(slots);
    for i in 0..slots {
        let shared = Arc::clone(shared);
        executors.push(
            std::thread::Builder::new()
                .name(format!("serve-local-{i}"))
                .spawn(move || local_executor(&shared, i))
                .expect("spawn executor"),
        );
    }

    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut last_reap = Instant::now();
    loop {
        if shared.stopping() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let id = shared.conn_ids.fetch_add(1, Ordering::Relaxed);
                shared.counters().incr("connections");
                connections.push(
                    std::thread::Builder::new()
                        .name(format!("serve-conn-{id}"))
                        .spawn(move || {
                            shared.obs.gauge("connections_open").add(1);
                            if let Err(e) = serve_connection(&shared, stream, id) {
                                eprintln!("serve: connection {id}: {e}");
                            }
                            shared.obs.gauge("connections_open").add(-1);
                        })
                        .expect("spawn connection"),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        if last_reap.elapsed() >= Duration::from_secs(1) {
            last_reap = Instant::now();
            for lease in shared
                .queue
                .reap_expired(shared.opts.worker_lease, "remote-")
            {
                note_lost_lease(shared, &lease, "lease-expiry");
            }
            shared
                .obs
                .gauge("queue_depth")
                .set(shared.queue.depth() as i64);
        }
        connections.retain(|c| !c.is_finished());
    }

    // Graceful drain: no new submissions, queued work still runs, then
    // every thread is joined so the process exits with nothing in flight.
    eprintln!("serve: draining ({} tasks pending)", shared.queue.depth());
    shared.flight.record_with("drain", || {
        ev_fields(vec![("pending", Json::int(shared.queue.depth() as u64))])
    });
    shared.queue.drain();
    while !shared.queue.is_idle() {
        std::thread::sleep(Duration::from_millis(20));
        for lease in shared
            .queue
            .reap_expired(shared.opts.worker_lease, "remote-")
        {
            note_lost_lease(shared, &lease, "lease-expiry");
        }
    }
    for exec in executors {
        let _ = exec.join();
    }
    shared.finished.store(true, Ordering::SeqCst);
    for conn in connections {
        let _ = conn.join();
    }
    if let (Some(path), Some(mux)) = (&shared.opts.trace_out, &shared.tracer) {
        match std::fs::write(path, mux.to_chrome_json().dump()) {
            Ok(()) => eprintln!(
                "serve: wrote merged trace ({} events) to {}",
                mux.len(),
                path.display()
            ),
            Err(e) => eprintln!("serve: trace write to {} failed: {e}", path.display()),
        }
    }
    eprintln!("serve: drained, exiting");
}

fn local_executor(shared: &ServerShared, slot: usize) {
    let name = format!("local-{slot}");
    loop {
        match shared.queue.next_task(&name, Duration::from_millis(200)) {
            Dispatch::Task(task) => {
                let dispatched = Instant::now();
                note_dispatch(shared, &task, &name, dispatched);
                let (outcome, timings) = execute_local(shared, &task);
                observe_stages(shared, &timings);
                if let Some(mux) = &shared.tracer {
                    let done = Instant::now();
                    mux.task_span(
                        task.submission,
                        task.index,
                        &task.job.spec.label(),
                        &name,
                        dispatched,
                        done,
                    );
                    if let JobStatus::Completed(r) = &outcome.status {
                        if let Some(report) = &r.profile {
                            mux.executor_report(
                                &name,
                                task.submission,
                                task.index,
                                report,
                                dispatched,
                                done,
                            );
                        }
                    }
                }
                observe_outcome(
                    shared,
                    &outcome,
                    "local",
                    &name,
                    task.submission,
                    task.index,
                );
                shared.queue.complete(task.submission, task.index, outcome);
            }
            Dispatch::Idle => {}
            Dispatch::Drain => break,
        }
    }
}

fn execute_local(shared: &ServerShared, task: &LeasedTask) -> (JobOutcome, StageTimings) {
    let started = Instant::now();
    if task.cancel.is_cancelled() {
        let outcome = JobOutcome {
            index: task.index,
            label: task.job.spec.label(),
            status: JobStatus::Cancelled,
            attempts: 0,
            wall: started.elapsed(),
        };
        return (outcome, StageTimings::default());
    }
    let warm_hit = shared.warm.lookup_result(task.job.key);
    let warm_lookup = started.elapsed();
    if let Some(result) = warm_hit {
        shared.counters().incr("warm_result_hits");
        let outcome = JobOutcome {
            index: task.index,
            label: task.job.spec.label(),
            status: JobStatus::Cached(result),
            attempts: 0,
            wall: started.elapsed(),
        };
        let timings = StageTimings {
            cache_lookup: warm_lookup,
            ..StageTimings::default()
        };
        return (outcome, timings);
    }
    let job = shared.warm.warm_job(task.job.clone());
    let (outcome, mut timings) = shared.runner.run_one_timed(&job, &task.cancel);
    timings.cache_lookup += warm_lookup;
    if let JobStatus::Completed(r) | JobStatus::Cached(r) = &outcome.status {
        shared.warm.store_result(task.job.key, r);
    }
    (outcome, timings)
}

fn record_outcome(counters: &CounterSet, outcome: &JobOutcome, origin: &str) {
    counters.incr(&format!("tasks_{origin}"));
    match &outcome.status {
        JobStatus::Completed(_) => counters.incr("tasks_completed"),
        JobStatus::Cached(_) => counters.incr("tasks_cached"),
        JobStatus::Failed { .. } => counters.incr("tasks_failed"),
        JobStatus::Cancelled => counters.incr("tasks_cancelled"),
    }
}

/// Flight-event fields from borrowed pairs.
fn ev_fields(pairs: Vec<(&str, Json)>) -> Vec<(String, Json)> {
    pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

/// A task left the queue for an executor: histogram its queue wait,
/// flight-record the dispatch, and open its queue span in the trace.
fn note_dispatch(shared: &ServerShared, task: &LeasedTask, executor: &str, dispatched: Instant) {
    shared
        .obs
        .observe_duration("queue_wait_us", task.queue_wait);
    shared.flight.record_with("dispatch", || {
        ev_fields(vec![
            ("run", Json::int(task.submission)),
            ("task", Json::int(task.index as u64)),
            ("label", Json::str(task.job.spec.label())),
            ("executor", Json::str(executor)),
            ("wait_us", Json::int(task.queue_wait.as_micros() as u64)),
        ])
    });
    if let Some(mux) = &shared.tracer {
        let wait_ns = task.queue_wait.as_nanos().min(u64::MAX as u128) as u64;
        mux.queue_span(
            task.submission,
            task.index,
            &task.job.spec.label(),
            wait_ns,
            dispatched,
            executor,
        );
    }
}

/// Per-stage attempt timings → the fleet-wide latency histograms.
/// `decode` is simulator construction (config validation + trace
/// decode setup); zero stages (not reached, e.g. cache hits) are skipped
/// so the histograms describe work actually done.
fn observe_stages(shared: &ServerShared, t: &StageTimings) {
    shared
        .obs
        .observe_duration("cache_lookup_us", t.cache_lookup);
    if t.build > Duration::ZERO {
        shared.obs.observe_duration("decode_us", t.build);
    }
    if t.simulate > Duration::ZERO {
        shared.obs.observe_duration("simulate_us", t.simulate);
    }
    if t.store > Duration::ZERO {
        shared.obs.observe_duration("store_us", t.store);
    }
}

/// Account one finished task everywhere: counters, labeled counters, the
/// flight recorder — and when the failure is a deadlock or a panic,
/// classify it, log it structurally, and dump the flight recorder.
fn observe_outcome(
    shared: &ServerShared,
    outcome: &JobOutcome,
    origin: &str,
    executor: &str,
    run: u64,
    task: usize,
) {
    record_outcome(shared.counters(), outcome, origin);
    let status = match &outcome.status {
        JobStatus::Completed(_) => "completed",
        JobStatus::Cached(_) => "cached",
        JobStatus::Failed { .. } => "failed",
        JobStatus::Cancelled => "cancelled",
    };
    shared
        .obs
        .incr_labeled("tasks_done", &[("origin", origin), ("status", status)]);
    shared.flight.record_with("task-done", || {
        let mut f = vec![
            ("run", Json::int(run)),
            ("task", Json::int(task as u64)),
            ("executor", Json::str(executor)),
            ("origin", Json::str(origin)),
            ("status", Json::str(status)),
            ("wall_us", Json::int(outcome.wall.as_micros() as u64)),
        ];
        if let JobStatus::Failed { error } = &outcome.status {
            f.push(("error", Json::str(error.as_str())));
        }
        ev_fields(f)
    });
    if let JobStatus::Failed { error } = &outcome.status {
        if let Some(kind) = failure_kind(error) {
            shared.counters().incr(&format!("failures_{kind}"));
            shared.flight.record_with(kind, || {
                ev_fields(vec![
                    ("run", Json::int(run)),
                    ("task", Json::int(task as u64)),
                    ("executor", Json::str(executor)),
                    ("error", Json::str(error.as_str())),
                ])
            });
            eprintln!(
                "serve: event={kind} run={run} task={task} executor={executor} error={error:?}"
            );
            dump_flight(shared, kind);
        }
    }
}

/// A running task lost its executor (connection drop or lease expiry):
/// count it, flight-record it, log it structurally, and — when its loss
/// budget is spent and it was failed instead of requeued — dump the
/// flight recorder, because work was lost to infrastructure.
fn note_lost_lease(shared: &ServerShared, lease: &RequeuedLease, kind: &str) {
    shared.counters().incr("tasks_requeued");
    shared.flight.record_with(kind, || {
        ev_fields(vec![
            ("run", Json::int(lease.submission)),
            ("task", Json::int(lease.index as u64)),
            ("label", Json::str(lease.label.as_str())),
            ("executor", Json::str(lease.executor.as_str())),
            ("requeued", Json::Bool(lease.requeued)),
        ])
    });
    eprintln!(
        "serve: event={kind} executor={} run={} task={} requeued={}",
        lease.executor, lease.submission, lease.index, lease.requeued
    );
    if !lease.requeued {
        shared.counters().incr("tasks_loss_exhausted");
        dump_flight(shared, "loss-budget-exhausted");
    }
}

/// Dump the flight recorder: JSONL to [`ServeOptions::events_out`] when
/// configured, always announced on stderr with the trigger.
fn dump_flight(shared: &ServerShared, reason: &str) {
    if !shared.flight.is_enabled() {
        return;
    }
    shared.counters().incr("flight_dumps");
    match &shared.opts.events_out {
        Some(path) => match std::fs::write(path, shared.flight.dump_jsonl()) {
            Ok(()) => eprintln!(
                "serve: event=flight-dump reason={reason} events={} file={}",
                shared.flight.len(),
                path.display()
            ),
            Err(e) => eprintln!("serve: event=flight-dump reason={reason} write failed: {e}"),
        },
        None => eprintln!(
            "serve: event=flight-dump reason={reason} events={} (no events file configured; \
             use the dump-events op to read them)",
            shared.flight.len()
        ),
    }
}

/// Per-connection state: whether this connection is a worker, and what it
/// currently has leased (for requeue-on-drop).
struct ConnState {
    id: u64,
    worker: Option<String>,
    lease: Option<Lease>,
}

/// A task leased to a remote worker, plus when it was shipped (the
/// coordinator-side anchor for clock-rebasing the worker's trace frames).
struct Lease {
    task: LeasedTask,
    dispatched: Instant,
}

impl ConnState {
    fn executor_name(&self) -> String {
        // Unique per connection even when two workers share a name.
        format!(
            "remote-{}-{}",
            self.id,
            self.worker.as_deref().unwrap_or("client")
        )
    }
}

fn serve_connection(
    shared: &Arc<ServerShared>,
    stream: TcpStream,
    id: u64,
) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut conn = ConnState {
        id,
        worker: None,
        lease: None,
    };

    let result = loop {
        match read_request(shared, &mut reader) {
            Ok(Some(msg)) => {
                let reply = handle_request(shared, &mut conn, &msg);
                write_message(&mut writer, &reply)?;
            }
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };

    // Anything still leased to this connection lost its executor.
    if conn.lease.is_some() {
        let requeued = shared
            .queue
            .requeue_executor(&conn.executor_name(), "worker connection lost");
        for lease in &requeued {
            note_lost_lease(shared, lease, "worker-loss-requeue");
        }
        eprintln!(
            "serve: worker {:?} disconnected with a task in flight; requeued {}",
            conn.worker.as_deref().unwrap_or("?"),
            requeued.iter().filter(|l| l.requeued).count(),
        );
    }
    if let Some(worker) = &conn.worker {
        shared.obs.gauge("workers_connected").add(-1);
        shared.flight.record_with("worker-drop", || {
            ev_fields(vec![
                ("conn", Json::int(id)),
                ("worker", Json::str(worker.as_str())),
            ])
        });
        eprintln!("serve: event=worker-disconnect conn={id} worker={worker}");
    }
    result
}

/// Read one request, tolerating read timeouts (used to poll the shutdown
/// flags) and partial lines (the buffer persists across timeouts).
fn read_request(
    shared: &ServerShared,
    reader: &mut BufReader<TcpStream>,
) -> Result<Option<Json>, WireError> {
    use std::io::BufRead;
    let mut buf = String::new();
    loop {
        match reader.read_line(&mut buf) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None) // clean EOF between messages
                } else {
                    Err(WireError::Malformed("EOF mid-message".to_owned()))
                };
            }
            Ok(_) if buf.ends_with('\n') => {
                let line = buf.trim();
                if line.is_empty() {
                    buf.clear();
                    continue;
                }
                let json = Json::parse(line).map_err(WireError::Malformed)?;
                return Ok(Some(json));
            }
            Ok(_) => {} // partial line; keep reading
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle between requests: close once the daemon has fully
                // drained (mid-message partials still get their chance
                // until then).
                if shared.finished.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

fn handle_request(shared: &Arc<ServerShared>, conn: &mut ConnState, msg: &Json) -> Json {
    match op_of(msg) {
        "ping" => ok_response(vec![
            ("version", Json::int(PROTOCOL_VERSION)),
            ("role", Json::str("coordinator")),
        ]),
        "submit" => handle_submit(shared, msg),
        "status" => match u64_field(msg, "job").and_then(|id| shared.queue.status(id)) {
            Some(view) => ok_response(view_fields(&view)),
            None => err_response("unknown job"),
        },
        "list" => {
            let jobs: Vec<Json> = shared
                .queue
                .list()
                .iter()
                .map(|v| {
                    Json::Obj(
                        view_fields(v)
                            .into_iter()
                            .map(|(k, j)| (k.to_owned(), j))
                            .collect(),
                    )
                })
                .collect();
            ok_response(vec![("jobs", Json::Arr(jobs))])
        }
        "cancel" => match u64_field(msg, "job") {
            Some(id) if shared.queue.cancel(id) => {
                shared.counters().incr("jobs_cancelled");
                shared
                    .flight
                    .record_with("cancel", || ev_fields(vec![("run", Json::int(id))]));
                ok_response(vec![("job", Json::int(id))])
            }
            _ => err_response("unknown job"),
        },
        "result" => handle_result(shared, msg),
        "stats" => handle_stats(shared),
        "metrics" => handle_metrics(shared),
        "dump-events" => handle_dump_events(shared),
        "shutdown" => {
            shared.stop.store(true, Ordering::SeqCst);
            ok_response(vec![("draining", Json::Bool(true))])
        }
        "worker-hello" => {
            let version = u64_field(msg, "version").unwrap_or(0);
            if version != PROTOCOL_VERSION {
                return err_response(format!(
                    "protocol version mismatch: coordinator {PROTOCOL_VERSION}, worker {version}"
                ));
            }
            let name = str_field(msg, "name").unwrap_or("worker").to_owned();
            shared.counters().incr("workers_joined");
            shared.obs.gauge("workers_connected").add(1);
            shared.flight.record_with("worker-connect", || {
                ev_fields(vec![
                    ("conn", Json::int(conn.id)),
                    ("worker", Json::str(name.as_str())),
                ])
            });
            eprintln!("serve: event=worker-connect conn={} worker={name}", conn.id);
            conn.worker = Some(name);
            ok_response(vec![("version", Json::int(PROTOCOL_VERSION))])
        }
        "task-request" => handle_task_request(shared, conn),
        "task-result" => handle_task_result(shared, conn, msg),
        other => err_response(format!("unknown op {other:?}")),
    }
}

fn handle_submit(shared: &Arc<ServerShared>, msg: &Json) -> Json {
    // A shutdown request flips the stop flag before the supervisor gets
    // around to draining the queue; refuse on either signal so no
    // submission slips through that window.
    if shared.stopping() {
        return err_response("daemon is draining; submission refused");
    }
    let Some(spec_text) = str_field(msg, "spec") else {
        return err_response("submit needs a \"spec\" field");
    };
    let client = str_field(msg, "client").unwrap_or("anonymous");
    let priority = u64_field(msg, "priority").unwrap_or(0);

    let spec = match CampaignSpec::parse(spec_text) {
        Ok(s) => s,
        Err(e) => return err_response(e.to_string()),
    };
    let jobs = match spec.resolve() {
        Ok(j) => j,
        Err(e) => return err_response(e.to_string()),
    };

    // Judge the warm result cache now: warm tasks are born finished and
    // never touch the scheduler.
    let total = jobs.len();
    let mut warm_hits = 0u64;
    let prejudged: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            let outcome = shared.warm.lookup_result(job.key).map(|result| {
                warm_hits += 1;
                JobOutcome {
                    index: job.spec.index,
                    label: job.spec.label(),
                    status: JobStatus::Cached(result),
                    attempts: 0,
                    wall: Duration::ZERO,
                }
            });
            (job, outcome)
        })
        .collect();

    match shared
        .queue
        .submit_prejudged(client, &spec.name, priority, prejudged)
    {
        Some(id) => {
            shared.counters().incr("jobs_submitted");
            shared.counters().add("tasks_total", total as u64);
            shared.counters().add("warm_submit_hits", warm_hits);
            shared
                .counters()
                .incr(&format!("client.{client}.submissions"));
            shared
                .obs
                .incr_labeled("client_submissions", &[("client", client)]);
            shared.flight.record_with("submit", || {
                ev_fields(vec![
                    ("run", Json::int(id)),
                    ("client", Json::str(client)),
                    ("name", Json::str(spec.name.as_str())),
                    ("tasks", Json::int(total as u64)),
                    ("warm", Json::int(warm_hits)),
                    ("priority", Json::int(priority)),
                ])
            });
            ok_response(vec![
                ("job", Json::int(id)),
                ("tasks", Json::int(total as u64)),
                ("warm", Json::int(warm_hits)),
            ])
        }
        None => err_response("daemon is draining; submission refused"),
    }
}

fn handle_result(shared: &Arc<ServerShared>, msg: &Json) -> Json {
    let Some(id) = u64_field(msg, "job") else {
        return err_response("result needs a \"job\" field");
    };
    let wait = matches!(msg.get("wait"), Some(Json::Bool(true)));
    let timeout = Duration::from_millis(u64_field(msg, "timeout_ms").unwrap_or(600_000));

    let state = if wait {
        shared.queue.wait_terminal(id, timeout)
    } else {
        shared
            .queue
            .status(id)
            .map(|v| v.state)
            .filter(|s| s.is_terminal())
    };
    match state {
        None if shared.queue.status(id).is_none() => err_response("unknown job"),
        None => err_response("job not finished"),
        Some(_) => result_reply(
            id,
            &shared.queue.report(id).expect("terminal implies report"),
        ),
    }
}

/// The `result` reply for a finished submission. Each row's `result` is
/// its shared rendered text, copied into the line as is.
fn result_reply(id: u64, report: &CampaignReport) -> Json {
    ok_response(vec![
        ("job", Json::int(id)),
        ("name", Json::str(&report.name)),
        ("summary", Json::str(report.summary_line())),
        (
            "rows",
            Json::Arr(report.rows.iter().map(JobRow::to_json).collect()),
        ),
    ])
}

fn handle_stats(shared: &Arc<ServerShared>) -> Json {
    let depth = shared.queue.depth();
    shared.counters().set("queue_depth", depth as u64);
    shared.obs.gauge("queue_depth").set(depth as i64);
    let counts = shared.queue.state_counts();
    let rs = shared.warm.result_stats();
    let ks = shared.warm.kernel_stats();
    ok_response(vec![
        (
            "uptime_us",
            Json::int(shared.started.elapsed().as_micros() as u64),
        ),
        ("counters", shared.counters().to_json()),
        (
            "queue",
            Json::obj(vec![
                ("depth", Json::int(depth as u64)),
                (
                    "by_state",
                    Json::obj(vec![
                        ("queued", Json::int(counts.queued as u64)),
                        ("running", Json::int(counts.running as u64)),
                        ("completed", Json::int(counts.completed as u64)),
                        ("cached", Json::int(counts.cached as u64)),
                        ("failed", Json::int(counts.failed as u64)),
                        ("cancelled", Json::int(counts.cancelled as u64)),
                    ]),
                ),
            ]),
        ),
        (
            "result_cache",
            Json::obj(vec![
                ("hits", Json::int(rs.hits)),
                ("misses", Json::int(rs.misses)),
                ("evictions", Json::int(rs.evictions)),
                ("entries", Json::int(rs.entries as u64)),
                ("bytes", Json::int(rs.bytes as u64)),
            ]),
        ),
        (
            "kernel_cache",
            Json::obj(vec![
                ("hits", Json::int(ks.hits)),
                ("misses", Json::int(ks.misses)),
                ("evictions", Json::int(ks.evictions)),
                ("entries", Json::int(ks.entries as u64)),
                ("bytes", Json::int(ks.bytes as u64)),
            ]),
        ),
    ])
}

/// The `metrics` op: Prometheus-style text exposition plus the same data
/// as structured JSON (counters, labeled counters, gauges, histogram
/// summaries).
fn handle_metrics(shared: &Arc<ServerShared>) -> Json {
    let depth = shared.queue.depth();
    shared.counters().set("queue_depth", depth as u64);
    shared.obs.gauge("queue_depth").set(depth as i64);
    ok_response(vec![
        ("text", Json::str(shared.obs.prometheus_text("swiftsim"))),
        ("metrics", shared.obs.to_json()),
    ])
}

/// The `dump-events` op: the flight recorder's current contents, and —
/// when an events file is configured — a dump to disk as a side effect.
fn handle_dump_events(shared: &Arc<ServerShared>) -> Json {
    if shared.opts.events_out.is_some() {
        dump_flight(shared, "dump-events-op");
    }
    let events: Vec<Json> = shared
        .flight
        .snapshot()
        .iter()
        .map(|e| e.to_json())
        .collect();
    ok_response(vec![
        ("enabled", Json::Bool(shared.flight.is_enabled())),
        ("dropped", Json::int(shared.flight.dropped())),
        ("events", Json::Arr(events)),
    ])
}

fn handle_task_request(shared: &Arc<ServerShared>, conn: &mut ConnState) -> Json {
    if conn.worker.is_none() {
        return err_response("task-request before worker-hello");
    }
    if conn.lease.is_some() {
        return err_response("worker already holds a lease");
    }
    let executor = conn.executor_name();
    match shared
        .queue
        .next_task(&executor, Duration::from_millis(500))
    {
        Dispatch::Task(task) => {
            let dispatched = Instant::now();
            let Some(spec_text) = task.job.spec.to_single_spec_text("shipped") else {
                // The job cannot be expressed in spec text (pathological
                // path); fail it rather than bounce it between workers.
                let outcome = JobOutcome {
                    index: task.index,
                    label: task.job.spec.label(),
                    status: JobStatus::Failed {
                        error: "job not shippable to a remote worker".to_owned(),
                    },
                    attempts: 0,
                    wall: Duration::ZERO,
                };
                observe_outcome(
                    shared,
                    &outcome,
                    "remote",
                    &executor,
                    task.submission,
                    task.index,
                );
                shared.queue.complete(task.submission, task.index, outcome);
                return ok_response(vec![("task", Json::Null)]);
            };
            note_dispatch(shared, &task, &executor, dispatched);
            let reply = ok_response(vec![(
                "task",
                Json::obj(vec![
                    ("submission", Json::int(task.submission)),
                    ("index", Json::int(task.index as u64)),
                    ("label", Json::str(task.job.spec.label())),
                    ("key", Json::str(task.job.key_hex())),
                    ("spec", Json::str(spec_text)),
                    // Trace context: submission/index double as the
                    // run/task ids; `trace` asks the worker to profile and
                    // ship its frames back with the result.
                    ("trace", Json::Bool(shared.tracer.is_some())),
                ]),
            )]);
            // Dispatch latency: queue pick to reply packaged.
            shared
                .obs
                .observe_duration("dispatch_us", dispatched.elapsed());
            conn.lease = Some(Lease {
                task: *task,
                dispatched,
            });
            reply
        }
        Dispatch::Idle => ok_response(vec![("task", Json::Null)]),
        Dispatch::Drain => ok_response(vec![("task", Json::Null), ("drain", Json::Bool(true))]),
    }
}

fn handle_task_result(shared: &Arc<ServerShared>, conn: &mut ConnState, msg: &Json) -> Json {
    let received = Instant::now();
    let Some(lease) = conn.lease.take() else {
        return err_response("task-result without a lease");
    };
    let submission = u64_field(msg, "submission");
    let index = u64_field(msg, "index").map(|i| i as usize);
    if submission != Some(lease.task.submission) || index != Some(lease.task.index) {
        conn.lease = Some(lease);
        return err_response("task-result does not match the held lease");
    }
    let Lease { task, dispatched } = lease;
    let executor = conn.executor_name();

    let worker_key = str_field(msg, "key").unwrap_or("");
    let attempts = u64_field(msg, "attempts").unwrap_or(1) as u32;
    let wall = Duration::from_micros(u64_field(msg, "wall_us").unwrap_or(0));
    let status = str_field(msg, "status").unwrap_or("failed");

    // Trace context closes here: the worker's execution becomes a span on
    // this executor's coordinator row, and its shipped profiler frames —
    // clock-rebased into the dispatch→receive window — its own process.
    if let Some(mux) = &shared.tracer {
        mux.task_span(
            task.submission,
            task.index,
            &task.job.spec.label(),
            &executor,
            dispatched,
            received,
        );
        if let Some(profile) = msg.get("profile") {
            match ProfileReport::from_json(profile) {
                Ok(report) => mux.executor_report(
                    &executor,
                    task.submission,
                    task.index,
                    &report,
                    dispatched,
                    received,
                ),
                Err(e) => eprintln!("serve: worker profile unparsable ({executor}): {e}"),
            }
        }
    }
    // Worker-measured stage latencies merge into the same fleet-wide
    // histograms the local slots feed.
    if let Some(us) = u64_field(msg, "decode_us").filter(|us| *us > 0) {
        shared.obs.observe("decode_us", us);
    }
    if let Some(us) = u64_field(msg, "simulate_us").filter(|us| *us > 0) {
        shared.obs.observe("simulate_us", us);
    }

    // End-to-end determinism check: the worker resolved the shipped spec
    // independently; its content-addressed key must agree with ours. A
    // mismatch means version/config/trace skew — the result cannot be
    // trusted as *this* job's answer.
    let outcome = if worker_key != task.job.key_hex() {
        shared.counters().incr("key_mismatches");
        JobOutcome {
            index: task.index,
            label: task.job.spec.label(),
            status: JobStatus::Failed {
                error: format!(
                    "worker job-key mismatch (coordinator {}, worker {worker_key}): \
                     worker runs a different simulator version or sees different inputs",
                    task.job.key_hex()
                ),
            },
            attempts,
            wall,
        }
    } else {
        let status = match status {
            "ok" | "cached" => match msg.get("result").map(SimulationResult::from_json) {
                Some(Ok(result)) => {
                    let result = RenderedResult::new(result);
                    shared.warm.store_result(task.job.key, &result);
                    if status == "cached" {
                        JobStatus::Cached(result)
                    } else {
                        JobStatus::Completed(result)
                    }
                }
                Some(Err(e)) => JobStatus::Failed {
                    error: format!("worker result unparsable: {e}"),
                },
                None => JobStatus::Failed {
                    error: "worker sent ok without a result".to_owned(),
                },
            },
            _ => JobStatus::Failed {
                error: str_field(msg, "error")
                    .unwrap_or("worker failure")
                    .to_owned(),
            },
        };
        JobOutcome {
            index: task.index,
            label: task.job.spec.label(),
            status,
            attempts,
            wall,
        }
    };
    // A reported failure is an *execution* failure — the worker is alive
    // and talking — so it draws on the task's execution-retry budget, not
    // the executor-loss budget that connection drops and lease expiries
    // use. Within budget the task requeues (likely to land on another
    // worker); past it, the task fails with the real execution error.
    if matches!(outcome.status, JobStatus::Failed { .. })
        && shared.queue.grant_retry(task.submission, task.index)
    {
        shared.counters().incr("tasks_retried");
        shared.flight.record_with("exec-retry", || {
            ev_fields(vec![
                ("run", Json::int(task.submission)),
                ("task", Json::int(task.index as u64)),
                ("executor", Json::str(executor.as_str())),
            ])
        });
        shared.obs.observe_duration("merge_us", received.elapsed());
        return ok_response(vec![("accepted", Json::Bool(true))]);
    }
    observe_outcome(
        shared,
        &outcome,
        "remote",
        &executor,
        task.submission,
        task.index,
    );
    shared.queue.complete(task.submission, task.index, outcome);
    // Merge latency: result line received to merged into the submission.
    shared.obs.observe_duration("merge_us", received.elapsed());
    ok_response(vec![("accepted", Json::Bool(true))])
}

fn view_fields(v: &SubmissionView) -> Vec<(&'static str, Json)> {
    vec![
        ("job", Json::int(v.id)),
        ("name", Json::str(&v.name)),
        ("client", Json::str(&v.client)),
        ("priority", Json::int(v.priority)),
        ("state", Json::str(v.state.name())),
        ("done", Json::int(v.done as u64)),
        ("running", Json::int(v.running as u64)),
        ("total", Json::int(v.total as u64)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A warm reply, rendered by splicing each row's stored text, against
    /// the same reply with every result rendered from the value by
    /// `SimulationResult::to_json`.
    #[test]
    fn warm_reply_splices_the_bytes_a_rendered_result_gives() {
        let jobs = CampaignSpec::parse(
            "name = splice\nworkload = nw\nscale = tiny\npreset = swift-memory\nscheduler = gto, lrr\n",
        )
        .unwrap()
        .resolve()
        .unwrap();
        let outcomes = jobs
            .iter()
            .map(|job| {
                // Row 0 without a profile, row 1 with one.
                let options = swiftsim_core::RunOptions::default()
                    .with_fidelity(job.fidelity)
                    .with_profile(job.spec.index == 1);
                let result = swiftsim_core::run(job.app.as_ref(), &job.cfg, &options).unwrap();
                JobOutcome {
                    index: job.spec.index,
                    label: job.spec.label(),
                    status: JobStatus::Cached(RenderedResult::new(result)),
                    attempts: 0,
                    wall: Duration::from_micros(3),
                }
            })
            .collect();
        let report = CampaignReport::from_outcomes("splice".to_owned(), jobs, outcomes);
        assert!(report.rows[0].result.as_ref().unwrap().profile.is_none());
        assert!(report.rows[1].result.as_ref().unwrap().profile.is_some());

        let mut reference = result_reply(5, &report);
        let Some(Json::Arr(rows)) = reference_field(&mut reference, "rows") else {
            panic!("reply has rows");
        };
        for (json, row) in rows.iter_mut().zip(&report.rows) {
            *reference_field(json, "result").unwrap() = row.result.as_ref().unwrap().to_json();
        }
        let spliced = result_reply(5, &report).dump();
        assert_eq!(spliced, reference.dump());
        assert!(
            spliced.contains("\"profile\":{"),
            "row 1 carries its profile"
        );
        assert!(spliced.contains("\"profile\":null"), "row 0 has none");
    }

    fn reference_field<'j>(json: &'j mut Json, key: &str) -> Option<&'j mut Json> {
        match json {
            Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}
