//! End-to-end tests: a real daemon on a real socket, real workers, real
//! simulations (tiny scale), and the acceptance properties of the serve
//! subsystem — bit-identical reports, worker-loss convergence, warm-cache
//! resubmission, fair scheduling, and graceful drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;
use swiftsim_campaign::{run_campaign, CacheMode, CampaignOptions, CampaignSpec};
use swiftsim_metrics::Json;
use swiftsim_serve::client::ServeClient;
use swiftsim_serve::server::{self, ServeOptions};
use swiftsim_serve::worker::{run_worker, WorkerOptions};

const SWEEP_SPEC: &str = "name = e2e\n\
                          workload = nw, bfs\n\
                          scale = tiny\n\
                          preset = swift-sim-basic, swift-sim-memory\n\
                          scheduler = gto, lrr\n";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swiftsim-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(tag: &str) -> ServeOptions {
    ServeOptions {
        listen: "127.0.0.1:0".to_owned(),
        local_slots: Some(2),
        cache_dir: scratch(tag),
        cache: CacheMode::Off,
        worker_lease: Duration::from_secs(30),
        ..ServeOptions::default()
    }
}

/// Strip the fields that legitimately differ between runs (wall time,
/// cache provenance, slow flags) and keep everything that must not.
fn prediction_fields(row: &Json) -> String {
    let job = row.get("job").expect("row has job");
    let Some(Json::Obj(result)) = row.get("result") else {
        panic!("row has a result object");
    };
    // The whole result payload except the host's wall time, whose digit
    // count alone would make its length differ.
    let payload: Vec<_> = result
        .iter()
        .filter(|(key, _)| key != "wall_time_us")
        .cloned()
        .collect();
    format!(
        "label={} key={} result={}",
        job.get("label").and_then(Json::as_str).unwrap(),
        job.get("key").and_then(Json::as_str).unwrap(),
        Json::Obj(payload).dump(),
    )
}

/// The acceptance test: daemon + 2 remote workers, no local slots. The
/// merged report must be bit-identical (modulo wall time) to a direct
/// local `swiftsim campaign` run of the same spec.
#[test]
fn remote_sweep_matches_local_campaign_bit_for_bit() {
    let mut o = opts("remote-identical");
    o.local_slots = Some(0); // every simulation must flow through workers
    let handle = server::start(o).unwrap();
    let addr = handle.addr().to_string();

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let w = WorkerOptions {
                coordinator: addr.clone(),
                name: format!("w{i}"),
                cache_dir: scratch(&format!("remote-identical-w{i}")),
                cache: CacheMode::Off,
                ..WorkerOptions::default()
            };
            std::thread::spawn(move || run_worker(&w).unwrap())
        })
        .collect();

    let mut client = ServeClient::connect(&addr).unwrap();
    let (job, tasks) = client.submit(SWEEP_SPEC, "acceptance", 0).unwrap();
    assert_eq!(tasks, 8);
    let reply = client.wait_result(job, Duration::from_secs(300)).unwrap();
    let rows = reply.get("rows").and_then(Json::as_arr).unwrap().to_vec();
    assert_eq!(rows.len(), 8);

    // Reference: the same spec run entirely locally, no service involved.
    let spec = CampaignSpec::parse(SWEEP_SPEC).unwrap();
    let local = run_campaign(&spec, &CampaignOptions::default().cache_off()).unwrap();
    assert_eq!(local.failed(), 0);
    let local_rows: Vec<Json> = local
        .to_jsonl()
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .collect();

    for (served, direct) in rows.iter().zip(&local_rows) {
        assert_eq!(
            prediction_fields(served),
            prediction_fields(direct),
            "served row must match the local campaign exactly"
        );
        assert_eq!(
            served.get("status").and_then(Json::as_str),
            Some("ok"),
            "remote-executed rows report ok"
        );
    }

    // Both workers drain cleanly and between them did all the work.
    client.shutdown().unwrap();
    let mut done = 0;
    for w in workers {
        done += w.join().unwrap().completed;
    }
    assert_eq!(done, 8);
    handle.join();
}

/// Kill a worker mid-campaign (drop its socket while it holds a lease):
/// the task requeues and the sweep still converges to a complete report.
#[test]
fn worker_loss_mid_task_converges_via_requeue() {
    let mut o = opts("worker-loss");
    o.local_slots = Some(0);
    let handle = server::start(o).unwrap();
    let addr = handle.addr().to_string();

    let mut client = ServeClient::connect(&addr).unwrap();
    let (job, tasks) = client
        .submit(
            "name = loss\nworkload = nw\nscale = tiny\npreset = swift-sim-memory\nscheduler = gto, lrr\n",
            "c",
            0,
        )
        .unwrap();
    assert_eq!(tasks, 2);

    // A "worker" that claims a task and dies without answering: raw
    // protocol over a socket we then drop. This is exactly what a killed
    // worker process looks like to the coordinator.
    {
        let mut dying = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(dying.try_clone().unwrap());
        let mut say = |line: String| {
            dying.write_all(line.as_bytes()).unwrap();
            dying.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Json::parse(reply.trim()).unwrap()
        };
        let hello = say("{\"op\":\"worker-hello\",\"name\":\"doomed\",\"version\":2}".to_owned());
        assert_eq!(hello.get("ok"), Some(&Json::Bool(true)));
        let reply = say("{\"op\":\"task-request\",\"name\":\"doomed\"}".to_owned());
        assert!(
            !matches!(reply.get("task"), Some(Json::Null) | None),
            "doomed worker got a lease: {}",
            reply.dump()
        );
        // Socket drops here with the lease unresolved.
    }

    // A healthy worker finishes the sweep, including the requeued task.
    let w = WorkerOptions {
        coordinator: addr.clone(),
        name: "healthy".to_owned(),
        cache_dir: scratch("worker-loss-w"),
        cache: CacheMode::Off,
        ..WorkerOptions::default()
    };
    let healthy = std::thread::spawn(move || run_worker(&w).unwrap());

    let reply = client.wait_result(job, Duration::from_secs(300)).unwrap();
    let rows = reply.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 2);
    for row in rows {
        assert_eq!(row.get("status").and_then(Json::as_str), Some("ok"));
    }

    let stats = client.stats().unwrap();
    let requeued = stats
        .get("counters")
        .and_then(|c| c.get("tasks_requeued"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(requeued >= 1, "the dropped lease was requeued: {requeued}");

    client.shutdown().unwrap();
    healthy.join().unwrap();
    handle.join();
}

/// Regression: infrastructure requeues (connection drops, lease expiries)
/// and reported execution failures used to share one bounded-attempt
/// budget, so a sweep on flaky workers could fail a task that no worker
/// ever actually ran to a real error — or burn its execution retries on
/// connection drops. With both caps set to 1, this drives one loss of
/// each kind and the task must still converge to `ok` on a healthy
/// worker; a shared counter would have failed it after the second loss.
#[test]
fn infra_losses_do_not_consume_execution_retries() {
    let mut o = opts("infra-vs-exec");
    o.local_slots = Some(0);
    o.max_worker_losses = 1;
    o.max_retries = 1;
    let handle = server::start(o).unwrap();
    let addr = handle.addr().to_string();

    let mut client = ServeClient::connect(&addr).unwrap();
    let (job, tasks) = client
        .submit(
            "name = flaky\nworkload = nw\nscale = tiny\npreset = swift-sim-memory\nscheduler = gto\n",
            "c",
            0,
        )
        .unwrap();
    assert_eq!(tasks, 1);

    // Raw-protocol worker: hello, then poll task-request until the single
    // task is leased to us (requeues from a prior loss land asynchronously
    // when the server notices the dropped socket).
    let lease_task = |name: &str| -> (TcpStream, BufReader<TcpStream>, Json) {
        let mut sock = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let say = |sock: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: String| {
            sock.write_all(line.as_bytes()).unwrap();
            sock.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Json::parse(reply.trim()).unwrap()
        };
        let hello = say(
            &mut sock,
            &mut reader,
            format!("{{\"op\":\"worker-hello\",\"name\":\"{name}\",\"version\":2}}"),
        );
        assert_eq!(hello.get("ok"), Some(&Json::Bool(true)));
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let reply = say(
                &mut sock,
                &mut reader,
                format!("{{\"op\":\"task-request\",\"name\":\"{name}\"}}"),
            );
            match reply.get("task") {
                Some(Json::Null) | None => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "no lease for {name}: {}",
                        reply.dump()
                    );
                    std::thread::sleep(Duration::from_millis(50));
                }
                Some(task) => return (sock, reader, task.clone()),
            }
        }
    };

    // Loss #1, infrastructure: a worker claims the task and its socket
    // drops with the lease unresolved. max_worker_losses = 1 is now spent.
    drop(lease_task("doomed"));

    // Loss #2, execution: a live worker runs the task and reports a real
    // failure. Under the old shared budget this second loss exhausted the
    // task; independently capped, it only spends max_retries = 1.
    {
        let (mut sock, mut reader, task) = lease_task("flaky");
        let submission = task.get("submission").and_then(Json::as_u64).unwrap();
        let index = task.get("index").and_then(Json::as_u64).unwrap();
        let key = task.get("key").and_then(Json::as_str).unwrap();
        sock.write_all(
            format!(
                "{{\"op\":\"task-result\",\"name\":\"flaky\",\"submission\":{submission},\
                 \"index\":{index},\"key\":\"{key}\",\"status\":\"failed\",\
                 \"error\":\"synthetic crash\",\"attempts\":1,\"wall_us\":0}}\n"
            )
            .as_bytes(),
        )
        .unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let reply = Json::parse(reply.trim()).unwrap();
        assert_eq!(reply.get("accepted"), Some(&Json::Bool(true)), "{reply:?}");
    }

    // A healthy worker gets the third lease and the sweep converges.
    let w = WorkerOptions {
        coordinator: addr.clone(),
        name: "healthy".to_owned(),
        cache_dir: scratch("infra-vs-exec-w"),
        cache: CacheMode::Off,
        ..WorkerOptions::default()
    };
    let healthy = std::thread::spawn(move || run_worker(&w).unwrap());

    let reply = client.wait_result(job, Duration::from_secs(300)).unwrap();
    let rows = reply.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(
        rows[0].get("status").and_then(Json::as_str),
        Some("ok"),
        "the task survived one infra loss AND one execution failure: {}",
        rows[0].dump()
    );

    let stats = client.stats().unwrap();
    let counter = |name: &str| {
        stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    assert!(counter("tasks_requeued") >= 1, "infra loss was requeued");
    assert!(counter("tasks_retried") >= 1, "exec failure was retried");

    client.shutdown().unwrap();
    healthy.join().unwrap();
    handle.join();
}

/// Resubmitting the same sweep hits the warm result cache: zero new
/// simulations, instant completion, and the identical report.
#[test]
fn warm_resubmission_skips_all_simulation() {
    let handle = server::start(opts("warm")).unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();

    let (cold_id, _) = client.submit(SWEEP_SPEC, "c", 0).unwrap();
    let cold = client
        .wait_result(cold_id, Duration::from_secs(300))
        .unwrap();

    let (warm_id, _) = client.submit(SWEEP_SPEC, "c", 0).unwrap();
    let warm = client
        .wait_result(warm_id, Duration::from_secs(300))
        .unwrap();

    let cold_rows = cold.get("rows").and_then(Json::as_arr).unwrap();
    let warm_rows = warm.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(cold_rows.len(), warm_rows.len());
    for (a, b) in cold_rows.iter().zip(warm_rows) {
        assert_eq!(prediction_fields(a), prediction_fields(b));
        // A warm row serves the cold row's result itself, host wall time
        // included.
        assert_eq!(a.get("result"), b.get("result"));
        assert_eq!(
            b.get("status").and_then(Json::as_str),
            Some("cached"),
            "warm rows are served from memory"
        );
    }

    let stats = client.stats().unwrap();
    let warm_hits = stats
        .get("counters")
        .and_then(|c| c.get("warm_submit_hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert_eq!(warm_hits, 8, "every resubmitted task was judged warm");

    client.shutdown().unwrap();
    handle.join();
}

/// Two clients: a flood from one must not starve a single run from the
/// other, and priorities order work within a client.
#[test]
fn status_list_cancel_and_fairness() {
    let mut o = opts("lifecycle");
    o.local_slots = Some(1); // serialize execution so ordering is observable
    let handle = server::start(o).unwrap();
    let addr = handle.addr().to_string();

    let mut alice = ServeClient::connect(&addr).unwrap();
    let mut bob = ServeClient::connect(&addr).unwrap();
    assert_eq!(alice.ping().unwrap(), 2);

    let flood_spec = "name = flood\nworkload = nw\nscale = tiny\npreset = swift-sim-basic\nscheduler = gto, lrr, two_level\n";
    let (flood, flood_tasks) = alice.submit(flood_spec, "alice", 0).unwrap();
    assert_eq!(flood_tasks, 3);
    let single_spec = "name = single\nworkload = bfs\nscale = tiny\npreset = swift-sim-memory\n";
    let (single, _) = bob.submit(single_spec, "bob", 5).unwrap();

    // Bob's single run completes long before Alice's flood would if the
    // scheduler were FIFO; with round-robin it is dispatched second.
    bob.wait_result(single, Duration::from_secs(300)).unwrap();
    let flood_status = alice.status(flood).unwrap();
    let state = flood_status.get("state").and_then(Json::as_str).unwrap();
    assert!(
        state == "queued" || state == "running" || state == "done",
        "sane state: {state}"
    );

    // list sees both submissions with their clients.
    let listed = alice
        .request_ok(&Json::obj(vec![("op", Json::str("list"))]))
        .unwrap();
    let jobs = listed.get("jobs").and_then(Json::as_arr).unwrap();
    assert_eq!(jobs.len(), 2);
    let clients: Vec<&str> = jobs
        .iter()
        .filter_map(|j| j.get("client").and_then(Json::as_str))
        .collect();
    assert!(clients.contains(&"alice") && clients.contains(&"bob"));

    // Cancel a fresh submission: queued tasks die, report says cancelled.
    // No earlier submission ran its jobs, so none is warm at submit, and
    // the one slot cannot finish six detailed runs before the cancel lands.
    let doomed_spec = "name = doomed\nworkload = hotspot, pathfinder\nscale = tiny\npreset = detailed\nscheduler = gto, lrr, two_level\n";
    let (doomed, doomed_tasks) = bob.submit(doomed_spec, "bob", 0).unwrap();
    assert_eq!(doomed_tasks, 6);
    bob.cancel(doomed).unwrap();
    let report = bob.wait_result(doomed, Duration::from_secs(300)).unwrap();
    let rows = report.get("rows").and_then(Json::as_arr).unwrap();
    assert!(
        rows.iter()
            .any(|r| r.get("status").and_then(Json::as_str) == Some("cancelled")),
        "cancellation reaches the report: {}",
        report.get("summary").and_then(Json::as_str).unwrap_or("")
    );

    alice.wait_result(flood, Duration::from_secs(300)).unwrap();
    alice.shutdown().unwrap();
    handle.join();
}

/// Graceful drain: a shutdown with queued work finishes that work first,
/// refuses new submissions meanwhile, and the daemon exits idle.
#[test]
fn graceful_drain_finishes_queued_work_and_refuses_new() {
    let mut o = opts("drain");
    o.local_slots = Some(1);
    let handle = server::start(o).unwrap();
    let addr = handle.addr().to_string();
    let mut client = ServeClient::connect(&addr).unwrap();

    let (job, tasks) = client.submit(SWEEP_SPEC, "c", 0).unwrap();
    assert_eq!(tasks, 8);

    // Park a result wait on its own connection *before* the shutdown: a
    // drain must let in-flight consumers collect their reports (after the
    // daemon exits the results are gone with it).
    let mut waiter = ServeClient::connect(&addr).unwrap();
    let waiting = std::thread::spawn(move || waiter.wait_result(job, Duration::from_secs(300)));
    std::thread::sleep(Duration::from_millis(50)); // let the wait register
    client.shutdown().unwrap();

    // Submissions after the drain began are refused (answered with an
    // error on a live connection, or never served on a post-drain one).
    let refused = client.submit(SWEEP_SPEC, "late", 0);
    assert!(refused.is_err(), "drain refuses new work: {refused:?}");

    // The in-flight sweep still completed, with every row ok.
    let report = waiting.join().unwrap().unwrap();
    let rows = report.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 8);
    for row in rows {
        assert_eq!(row.get("status").and_then(Json::as_str), Some("ok"));
    }
    handle.join();
}

/// Malformed requests get protocol errors, not dropped connections, and
/// the daemon keeps serving afterwards.
#[test]
fn protocol_errors_are_answered_not_fatal() {
    let handle = server::start(opts("protocol")).unwrap();
    let addr = handle.addr().to_string();
    let mut client = ServeClient::connect(&addr).unwrap();

    let unknown = client
        .request(&Json::obj(vec![("op", Json::str("frobnicate"))]))
        .unwrap();
    assert_eq!(unknown.get("ok"), Some(&Json::Bool(false)));

    let bad_spec = client
        .request(&Json::obj(vec![
            ("op", Json::str("submit")),
            ("spec", Json::str("workload = doom\nscale = tiny")),
        ]))
        .unwrap();
    assert_eq!(bad_spec.get("ok"), Some(&Json::Bool(false)));
    assert!(bad_spec
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("doom"));

    let orphan_result = client
        .request(&Json::obj(vec![("op", Json::str("task-result"))]))
        .unwrap();
    assert_eq!(orphan_result.get("ok"), Some(&Json::Bool(false)));

    // Status of a job that never existed.
    let ghost = client
        .request(&Json::obj(vec![
            ("op", Json::str("status")),
            ("job", Json::int(999)),
        ]))
        .unwrap();
    assert_eq!(ghost.get("ok"), Some(&Json::Bool(false)));

    // The connection and daemon survived all of it.
    assert_eq!(client.ping().unwrap(), 2);
    client.shutdown().unwrap();
    handle.join();
}

/// The stats endpoint reports counters and cache statistics that add up.
#[test]
fn stats_reflect_execution_and_caches() {
    let handle = server::start(opts("stats")).unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();

    let spec = "workload = nw\nscale = tiny\npreset = swift-sim-memory\nscheduler = gto, lrr\n";
    let (job, _) = client.submit(spec, "statclient", 0).unwrap();
    client.wait_result(job, Duration::from_secs(300)).unwrap();

    let stats = client.stats().unwrap();
    let counters = stats.get("counters").unwrap();
    let get = |k: &str| counters.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(get("jobs_submitted"), 1);
    assert_eq!(get("tasks_total"), 2);
    assert_eq!(get("tasks_completed"), 2);
    assert_eq!(get("queue_depth"), 0);
    assert_eq!(get("client.statclient.submissions"), 1);
    assert!(stats.get("result_cache").is_some());
    assert!(stats.get("kernel_cache").is_some());

    // The enriched stats of protocol v2: uptime and per-lifecycle-state
    // task counts that add up to the submission.
    assert!(
        stats.get("uptime_us").and_then(Json::as_u64).unwrap_or(0) > 0,
        "uptime is reported"
    );
    let queue = stats.get("queue").expect("stats carry a queue object");
    assert_eq!(queue.get("depth").and_then(Json::as_u64), Some(0));
    let by_state = queue.get("by_state").expect("queue carries by_state");
    let state = |k: &str| by_state.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(
        state("completed") + state("cached"),
        2,
        "both tasks reached a terminal state: {}",
        by_state.dump()
    );
    assert_eq!(state("queued") + state("running"), 0);

    client.shutdown().unwrap();
    handle.join();
}

/// The `metrics` op: after a sweep, the Prometheus exposition carries the
/// latency histograms with non-empty buckets, the gauges, and the labeled
/// per-client counters; the JSON view agrees.
#[test]
fn metrics_exposition_has_live_histograms_after_a_sweep() {
    let handle = server::start(opts("metrics")).unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();

    let (job, tasks) = client.submit(SWEEP_SPEC, "mclient", 0).unwrap();
    assert_eq!(tasks, 8);
    client.wait_result(job, Duration::from_secs(300)).unwrap();

    let (text, json) = client.metrics().unwrap();
    // Histograms: every fresh task simulated, so simulate_us has samples
    // and cumulative buckets ending in +Inf.
    assert!(
        text.contains("# TYPE swiftsim_simulate_us histogram"),
        "histogram TYPE line present:\n{text}"
    );
    assert!(
        text.contains("swiftsim_simulate_us_bucket{le="),
        "non-empty buckets exposed:\n{text}"
    );
    assert!(text.contains("swiftsim_simulate_us_bucket{le=\"+Inf\"}"));
    assert!(text.contains("swiftsim_queue_wait_us_count"));
    assert!(text.contains("# TYPE swiftsim_queue_depth gauge"));
    assert!(
        text.contains("swiftsim_client_submissions{client=\"mclient\"} 1"),
        "labeled counter exposed:\n{text}"
    );

    let hists = json.get("histograms").expect("JSON view has histograms");
    let simulate = hists.get("simulate_us").expect("simulate_us histogram");
    assert_eq!(simulate.get("count").and_then(Json::as_u64), Some(8));
    assert!(simulate.get("p99").and_then(Json::as_u64).unwrap_or(0) > 0);
    let queue_wait = hists.get("queue_wait_us").expect("queue_wait histogram");
    assert!(queue_wait.get("count").and_then(Json::as_u64).unwrap_or(0) >= 8);

    // The flight recorder saw the whole lifecycle; dump-events returns it.
    let events = client.dump_events().unwrap();
    assert_eq!(events.get("enabled"), Some(&Json::Bool(true)));
    let kinds: Vec<&str> = events
        .get("events")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("event").and_then(Json::as_str))
        .collect();
    assert!(kinds.contains(&"submit"), "{kinds:?}");
    assert!(kinds.contains(&"dispatch"), "{kinds:?}");
    assert!(kinds.contains(&"task-done"), "{kinds:?}");

    client.shutdown().unwrap();
    handle.join();
}

/// The tentpole acceptance: a remote-worker campaign with `trace_out`
/// produces ONE merged Perfetto trace holding the coordinator's queue and
/// executor spans (pid 1) AND the worker's own profiler frames (its own
/// pid), all tagged with consistent run/task ids.
#[test]
fn remote_sweep_merges_one_trace_with_worker_tracks() {
    let trace_path = std::env::temp_dir().join(format!(
        "swiftsim-serve-e2e-trace-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&trace_path);
    let mut o = opts("traced");
    o.local_slots = Some(0); // all simulation on the remote worker
    o.trace_out = Some(trace_path.clone());
    let handle = server::start(o).unwrap();
    let addr = handle.addr().to_string();

    let w = WorkerOptions {
        coordinator: addr.clone(),
        name: "tracer".to_owned(),
        cache_dir: scratch("traced-w"),
        cache: CacheMode::Off,
        ..WorkerOptions::default()
    };
    let worker = std::thread::spawn(move || run_worker(&w).unwrap());

    let mut client = ServeClient::connect(&addr).unwrap();
    let spec = "name = traced\nworkload = nw\nscale = tiny\npreset = swift-sim-memory\nscheduler = gto, lrr\n";
    let (job, tasks) = client.submit(spec, "c", 0).unwrap();
    assert_eq!(tasks, 2);
    client.wait_result(job, Duration::from_secs(300)).unwrap();
    client.shutdown().unwrap();
    worker.join().unwrap();
    handle.join(); // trace is written at the end of the drain

    let doc = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let ctx = |e: &Json| {
        let run = e
            .get("args")
            .and_then(|a| a.get("run"))
            .and_then(Json::as_u64);
        let task = e
            .get("args")
            .and_then(|a| a.get("task"))
            .and_then(Json::as_u64);
        run.zip(task)
    };
    // Coordinator spans: queue + executor rows on pid 1, with run/task.
    let coord: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(1))
        .filter_map(&ctx)
        .collect();
    // Worker frames: X events on a pid other than 1, same run/task args.
    let worker_spans: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("pid").and_then(Json::as_u64).unwrap_or(1) != 1
        })
        .filter_map(&ctx)
        .collect();
    assert!(!coord.is_empty(), "coordinator spans carry trace context");
    assert!(
        !worker_spans.is_empty(),
        "worker frames carry trace context"
    );
    for id in &worker_spans {
        assert!(
            coord.contains(id),
            "worker span {id:?} matches a coordinator span; coordinator saw {coord:?}"
        );
    }
    // Both tasks of the sweep appear.
    assert!(coord.iter().any(|(_, t)| *t == 0) && coord.iter().any(|(_, t)| *t == 1));
    // The worker's process row is named after its executor identity.
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("name").and_then(Json::as_str) == Some("process_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.contains("tracer"))
        }),
        "worker process is named in the trace"
    );
    let _ = std::fs::remove_file(&trace_path);
}

/// Worker loss beyond the loss budget dumps the flight recorder as JSONL
/// naming the run and task ids — the post-mortem artifact.
#[test]
fn exhausted_loss_budget_dumps_flight_recorder_jsonl() {
    let events_path = std::env::temp_dir().join(format!(
        "swiftsim-serve-e2e-events-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&events_path);
    let mut o = opts("flightdump");
    o.local_slots = Some(0);
    o.max_worker_losses = 0; // first loss exhausts the budget
    o.events_out = Some(events_path.clone());
    let handle = server::start(o).unwrap();
    let addr = handle.addr().to_string();

    let mut client = ServeClient::connect(&addr).unwrap();
    let (job, _) = client
        .submit(
            "name = doomed\nworkload = nw\nscale = tiny\npreset = swift-sim-memory\nscheduler = gto\n",
            "c",
            0,
        )
        .unwrap();

    // A worker claims the task and dies. With a zero loss budget the task
    // fails instead of requeueing, which must trigger the dump.
    {
        let mut dying = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(dying.try_clone().unwrap());
        let mut say = |line: String| {
            dying.write_all(line.as_bytes()).unwrap();
            dying.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Json::parse(reply.trim()).unwrap()
        };
        let hello = say("{\"op\":\"worker-hello\",\"name\":\"doomed\",\"version\":2}".to_owned());
        assert_eq!(hello.get("ok"), Some(&Json::Bool(true)));
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let reply = say("{\"op\":\"task-request\",\"name\":\"doomed\"}".to_owned());
            if !matches!(reply.get("task"), Some(Json::Null) | None) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "never got a lease");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    // The loss fails the task, so the submission reaches a terminal state.
    let report = client.wait_result(job, Duration::from_secs(300)).unwrap();
    let rows = report.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows[0].get("status").and_then(Json::as_str), Some("failed"));

    // The dump exists, every line parses, and the lost task is named by
    // run and task id. (The task turns terminal a moment before the dump
    // is written, so give the file a beat to appear.)
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let dump = loop {
        match std::fs::read_to_string(&events_path) {
            Ok(d) if !d.is_empty() => break d,
            _ if std::time::Instant::now() >= deadline => panic!("flight recorder never dumped"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let events: Vec<Json> = dump
        .lines()
        .map(|l| Json::parse(l).expect("JSONL line parses"))
        .collect();
    assert!(!events.is_empty());
    let loss = events
        .iter()
        .find(|e| {
            e.get("event").and_then(Json::as_str) == Some("worker-loss-requeue")
                && e.get("requeued") == Some(&Json::Bool(false))
        })
        .expect("the exhausted loss is recorded");
    assert_eq!(loss.get("run").and_then(Json::as_u64), Some(job));
    assert_eq!(loss.get("task").and_then(Json::as_u64), Some(0));
    assert!(
        loss.get("executor")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("doomed")),
        "{}",
        loss.dump()
    );
    // Earlier lifecycle events are in the same dump (submit → dispatch).
    assert!(events
        .iter()
        .any(|e| e.get("event").and_then(Json::as_str) == Some("submit")));

    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_file(&events_path);
}
