//! Host-speed tripwires: each `#[test]` below is one CI speed gate, with
//! the bound the gate has always had. They are timing checks, so they are
//! meaningful only in the profile the speed numbers come from:
//!
//! ```sh
//! cargo test --release -p swiftsim-bench --test speed_gates
//! ```
//!
//! Debug builds compile them (so clippy lints them) but mark them ignored.
//! A static mutex serializes the tests so no two timed runs share the host,
//! and every wall-clock ratio is the median over alternating pairs of runs.
//! These are tripwires, not the ledger: the speed numbers a change claims
//! come from the repository benchmark in `benchmark/`.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use swiftsim_core::{
    run, GpuSimulator, RunOptions, SamplingPolicy, SimulationResult, SimulatorPreset,
};
use swiftsim_metrics::geomean;
use swiftsim_trace::{ApplicationTrace, ChunkedTraceSource};
use swiftsim_workloads::{MemPattern, Mix, PatternKernel, Scale};

static HOST: Mutex<()> = Mutex::new(());

/// Hold the host for one gate's timed runs. A failed gate poisons the
/// lock, but the `()` it guards cannot be left half-updated, so the other
/// gates still run.
fn lock_host() -> MutexGuard<'static, ()> {
    HOST.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Eight SMs and four memory partitions, so a 4-thread run has two SMs
/// per shard.
fn gpu() -> swiftsim_config::GpuConfig {
    let mut cfg = swiftsim_config::presets::rtx2080ti();
    cfg.num_sms = 8;
    cfg.memory.partitions = 4;
    cfg
}

fn options(preset: SimulatorPreset, threads: usize) -> RunOptions {
    RunOptions::default()
        .with_preset(preset)
        .with_threads(threads)
}

fn sim(options: RunOptions) -> GpuSimulator {
    GpuSimulator::try_new(gpu(), &options).expect("valid config")
}

/// The two `tiny` apps the clock and thread gates run.
fn tiny_apps() -> Vec<ApplicationTrace> {
    let app = |name| swiftsim_workloads::by_name(name).unwrap();
    vec![
        app("nw").generate(Scale::Tiny),
        app("bfs").generate(Scale::Tiny),
    ]
}

fn assert_same_prediction(a: &SimulationResult, b: &SimulationResult, what: &str) {
    let key = |r: &SimulationResult| (r.cycles, r.instructions());
    assert_eq!(key(a), key(b), "{what}: cycles or instructions diverge");
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Run `a` and `b` in turn, `pairs` times.
fn alternate<T>(pairs: usize, mut a: impl FnMut() -> T, mut b: impl FnMut() -> T) -> Vec<(T, T)> {
    (0..pairs).map(|_| (a(), b())).collect()
}

/// Median of `slow`'s wall time over `fast`'s across alternating pairs.
fn median_ratio(pairs: usize, mut slow: impl FnMut(), mut fast: impl FnMut()) -> f64 {
    let secs = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    let timed = alternate(pairs, || secs(&mut slow), || secs(&mut fast));
    median(timed.into_iter().map(|(s, f)| s / f.max(1e-9)).collect())
}

const INGEST_GATE: &str = "streaming_ingest_uses_less_memory_in_no_more_time";
/// Set in an ingestion child to `<mode>:<trace path>`.
const INGEST_CHILD_ENV: &str = "SWIFTSIM_SPEED_GATE_INGEST";

/// Child side: ingest the parent's trace in one mode, run it, and report
/// `key=value` words on stdout, peak RSS as `VmHWM` (0 off Linux).
fn ingest_child(spec: &str) {
    let (mode, path) = spec.split_once(':').expect("<mode>:<trace path>");
    let sim = sim(options(SimulatorPreset::SwiftBasic, 1));
    let t0 = Instant::now();
    let result = match mode {
        "eager" => sim.run(&ApplicationTrace::read_binary_file(path).expect("read trace")),
        "streaming" => sim.run(&ChunkedTraceSource::open(path).expect("open trace")),
        other => panic!("unknown ingest mode {other:?}"),
    }
    .expect("ingest run");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let rss_kb = hwm.map_or("0", |v| v.trim().trim_end_matches("kB").trim());
    let (cycles, insts) = (result.cycles, result.instructions());
    println!("\ncycles={cycles} insts={insts} wall_ms={wall_ms:.1} peak_rss_kb={rss_kb}");
}

/// Parent side: re-run this test binary as an ingestion child and parse
/// its report into `[cycles, insts, wall_ms, peak_rss_kb]`.
fn ingest_measure(mode: &str, trace: &Path) -> [f64; 4] {
    let out = Command::new(std::env::current_exe().expect("own executable"))
        .args(["--exact", INGEST_GATE, "--nocapture"])
        .env(INGEST_CHILD_ENV, format!("{mode}:{}", trace.display()))
        // Captured, not inherited: the child's own libtest lines would
        // otherwise splice into this run's report.
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn ingest child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{mode} child failed:\n{stdout}\n{stderr}"
    );
    ["cycles", "insts", "wall_ms", "peak_rss_kb"].map(|key| {
        let word = stdout
            .split_whitespace()
            .find_map(|w| w.strip_prefix(key)?.strip_prefix('='));
        let word = word.unwrap_or_else(|| panic!("{mode} child did not report {key}: {stdout}"));
        word.parse().expect("numeric field")
    })
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release profile only")]
fn streaming_ingest_uses_less_memory_in_no_more_time() {
    if let Ok(spec) = std::env::var(INGEST_CHILD_ENV) {
        return ingest_child(&spec);
    }
    let _host = lock_host();
    let app = swiftsim_workloads::ingest_stress_app(1_200_000);
    let insts = app.num_insts();
    assert!(insts >= 1_000_000, "only {insts} instructions");
    let pid = std::process::id();
    let path = std::env::temp_dir().join(format!("swiftsim-speed-gates-{pid}.sstraceb"));
    app.write_binary_file(&path).expect("write trace");
    drop(app); // the children load it themselves

    // Nine pairs: on a noisy 2-core host single pairs read 0.65-1.3, and
    // their median still has to land on the right side of the bound.
    let pairs = alternate(
        9,
        || ingest_measure("eager", &path),
        || ingest_measure("streaming", &path),
    );
    let _ = std::fs::remove_file(&path);
    for (eager, streaming) in &pairs {
        assert_eq!(
            eager[..2],
            streaming[..2],
            "eager vs streaming cycles, instructions"
        );
    }
    let ratio = |i: usize| median(pairs.iter().map(|(e, s)| s[i] / e[i].max(1.0)).collect());
    let (rss, wall) = (ratio(3), ratio(2));
    eprintln!("ingest: {insts} instructions, streaming/eager peak RSS {rss:.3}, wall {wall:.3}");
    assert!(rss <= 0.6, "streaming RSS ratio {rss:.3} above 0.6");
    assert!(wall <= 1.1, "streaming wall ratio {wall:.3} above 1.1");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release profile only")]
fn event_driven_clock_beats_dense_on_detailed() {
    let _host = lock_host();
    let mut speedups = Vec::new();
    for app in tiny_apps() {
        let event = options(SimulatorPreset::Detailed, 1);
        let dense = sim(event.clone().with_dense_clock());
        let event = sim(event);
        let (d, e) = (dense.run(&app).unwrap(), event.run(&app).unwrap());
        assert_same_prediction(&d, &e, &format!("{}: dense vs event-driven", app.name));
        speedups.push(median_ratio(
            9,
            || drop(dense.run(&app).unwrap()),
            || drop(event.run(&app).unwrap()),
        ));
    }
    let geo = geomean(&speedups);
    eprintln!("clock: dense/event-driven wall on detailed {speedups:.3?}, geomean {geo:.3}");
    assert!(geo >= 1.2, "detailed speedup {geo:.3} below 1.2");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release profile only")]
fn phase_sync_keeps_two_threads_near_one() {
    let _host = lock_host();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut speedups = Vec::new();
    for app in tiny_apps() {
        let sims = [1, 2, 4].map(|t| sim(options(SimulatorPreset::Detailed, t)));
        let runs = sims.each_ref().map(|s| s.run(&app).unwrap());
        for (threads, r) in [2, 4].iter().zip(&runs[1..]) {
            assert_same_prediction(
                &runs[0],
                r,
                &format!("{}: 1 vs {threads} threads", app.name),
            );
        }
        speedups.push(median_ratio(
            9,
            || drop(sims[0].run(&app).unwrap()),
            || drop(sims[1].run(&app).unwrap()),
        ));
    }
    let geo = geomean(&speedups);
    eprintln!("phase sync: 1-/2-thread wall {speedups:.3?}, geomean {geo:.3} on {cores} cores");
    // Not a scaling gate: a `tiny` cycle is a few microseconds of work, so
    // no speed-up is expected. It catches the handshake going back to a
    // kernel sleep per phase, which sits near 0.1.
    if cores >= 2 {
        assert!(geo >= 0.25, "threads=2 speed-up {geo:.3} below 0.25");
    }
}

/// A training-loop-shaped app: `iters` repetitions of a compute step and
/// a memory-heavy reduce step, so two clusters of `iters` launches each.
fn iterative_app(iters: usize) -> ApplicationTrace {
    let step = PatternKernel {
        name: "train_step".to_owned(),
        blocks: 64,
        threads_per_block: 128,
        iters: 12,
        mix: Mix {
            loads: 2,
            stores: 1,
            fp: 6,
            int_ops: 3,
            ..Mix::default()
        },
        pattern: MemPattern::Streaming,
        shared_mem_bytes: 0,
        regs_per_thread: 32,
        barrier: false,
    };
    let reduce = PatternKernel {
        name: "grad_reduce".to_owned(),
        blocks: 32,
        iters: 8,
        mix: Mix {
            loads: 3,
            stores: 1,
            int_ops: 2,
            ..Mix::default()
        },
        pattern: MemPattern::Strided { lane_stride: 128 },
        ..step.clone()
    };
    let pair = [step.generate(Scale::Small), reduce.generate(Scale::Small)];
    let kernels = (0..iters).flat_map(|_| pair.clone()).collect();
    ApplicationTrace::new("train_loop", kernels)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release profile only")]
fn sampled_iterative_app_is_within_bound_and_5x_faster() {
    let _host = lock_host();
    let app = iterative_app(32);
    let launches = app.kernels().len() as u64;
    let exact_opts = RunOptions::default().with_preset(SimulatorPreset::SwiftBasic);
    let sampling = SamplingPolicy::KernelCluster { reps: 2 };
    let sampled_opts = exact_opts.clone().with_sampling(sampling);
    let exact = run(&app, &gpu(), &exact_opts).expect("exact run");
    let sampled = run(&app, &gpu(), &sampled_opts).expect("sampled run");

    let conf = sampled.confidence.as_ref().expect("a confidence block");
    assert_eq!(conf.clusters, 2);
    assert_eq!(conf.replayed_kernels, launches - conf.sampled_kernels);
    let (bound, err) = (conf.app_error_bound, sampled.cycles.abs_diff(exact.cycles));
    let rel_error = err as f64 / exact.cycles as f64;
    assert!(
        rel_error <= bound + 1e-9,
        "error {rel_error:.4} above the reported bound {bound:.4}"
    );

    let speedup = median_ratio(
        3,
        || drop(run(&app, &gpu(), &exact_opts).unwrap()),
        || drop(run(&app, &gpu(), &sampled_opts).unwrap()),
    );
    eprintln!("sampling: {speedup:.1}x faster, error {rel_error:.4} <= bound {bound:.4}");
    assert!(speedup >= 5.0, "sampling speedup {speedup:.2} below 5.0");
}
