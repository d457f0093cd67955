//! `swiftsim` — the Swift-Sim command-line driver.
//!
//! Runs any simulator preset on a hardware configuration and an
//! application trace, and prints the Metrics Gatherer report:
//!
//! ```text
//! swiftsim --preset swift-basic --gpu rtx2080ti --workload bfs --scale small
//! swiftsim --preset detailed --config my_gpu.cfg --trace app.sstrace
//! swiftsim --list-workloads
//! swiftsim --dump-config rtx3090 > rtx3090.cfg
//! swiftsim --dump-trace nw --scale tiny > nw.sstrace
//! swiftsim campaign sweep.campaign --jobs 8 --out results.jsonl
//! swiftsim serve --listen 127.0.0.1:7733
//! swiftsim serve --worker 127.0.0.1:7733
//! swiftsim submit sweep.campaign --to 127.0.0.1:7733
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use swiftsim_campaign::{run_campaign, CampaignOptions, CampaignSpec};
use swiftsim_config::{presets, GpuConfig};
use swiftsim_core::{FidelityConfig, GpuSimulator, RunOptions, SimulatorPreset};
use swiftsim_metrics::Json;
use swiftsim_serve::client::ServeClient;
use swiftsim_serve::server::{self, ServeOptions};
use swiftsim_serve::worker::{run_worker_with_retry, WorkerOptions};
use swiftsim_trace::{open_trace, TraceSource};
use swiftsim_workloads::Scale;

const USAGE: &str = "\
swiftsim — modular and hybrid GPU architecture simulation

USAGE:
    swiftsim [OPTIONS]
    swiftsim campaign <SPEC> [CAMPAIGN OPTIONS]
    swiftsim serve [SERVE OPTIONS]
    swiftsim submit <SPEC> [SUBMIT OPTIONS]
    swiftsim validate [VALIDATE OPTIONS]

FIDELITY GRAMMAR (one grammar, every surface):
    Per-module fidelity is selected by `-sim_*` key/value pairs. Valid keys:
    -sim_alu_model, -sim_mem_model, -sim_frontend_model, -sim_sampling.
    The pairs may be given as bare
    arguments (`swiftsim -sim_sampling cluster:2 ...`, also after
    `campaign`), bundled in --fidelity \"<OPTS>\" (same keys, quoted), or as
    spec-file axes for campaign/submit (alu-model / mem-model / frontend /
    sampling lines take the same value tokens). For campaign, each
    key's value may be a comma-separated axis (no spaces, `default` keeps
    the preset's policy): `-sim_sampling off,cluster:2`. An unknown
    `-sim_*` key is an error that lists the valid keys.

OPTIONS:
    --preset <detailed|swift-basic|swift-memory>   simulator preset [default: swift-basic]
    --fidelity \"<OPTS>\"                            per-module fidelity overrides on top of the
                                                   preset, GPGPU-Sim option style, e.g.
                                                   \"-sim_alu_model analytical -sim_sampling cluster:2\"
                                                   (see FIDELITY GRAMMAR; bare -sim_* pairs
                                                   are accepted too)
    --gpu <rtx2080ti|rtx3060|rtx3090>              built-in hardware preset [default: rtx2080ti]
    --config <FILE>                                hardware config file (overrides --gpu)
    --workload <NAME>                              built-in synthetic workload
    --trace <FILE>                                 application trace file (overrides --workload)
    --scale <tiny|small|paper>                     workload scale [default: small]
    --threads <N>                                  worker threads; 0 = auto (one per core,
                                                   capped at the GPU's SM count) [default: 1]
    --profile                                      self-profile the simulator and print a
                                                   per-module wall-time attribution table
    --trace-out <FILE>                             write the profile as a Chrome trace-event /
                                                   Perfetto JSON file (implies --profile)
    --checkpoint-out <FILE>                        write a resumable snapshot of the simulation
                                                   at every kernel boundary (atomic overwrite)
    --resume <FILE>                                resume from a snapshot written by
                                                   --checkpoint-out; the completed prefix is
                                                   replayed from the snapshot bit-identically
    --halt-after <N>                               stop cleanly after N kernels have completed
                                                   (the result covers the simulated prefix;
                                                   with --checkpoint-out this is a
                                                   deterministic \"kill mid-app\")
    --json                                         print the result as JSON instead of a report
    --list-workloads                               list built-in workloads and exit
    --dump-config <GPU>                            print a GPU preset as a config file and exit
    --dump-trace <NAME>                            print a workload's trace and exit
    --dump-trace-bin <NAME> <FILE>                 write a workload's binary trace and exit
    --help                                         show this help

CAMPAIGN OPTIONS (after `swiftsim campaign <SPEC>`):
    --fidelity \"<OPTS>\" / bare -sim_* pairs        force one fidelity override across every job
                                                   (replaces the spec's matching axis; same
                                                   keys as the FIDELITY GRAMMAR above)
    --checkpoint-dir <DIR>                         checkpoint every job at kernel boundaries
                                                   into DIR; a killed campaign resumes each
                                                   interrupted job from its last snapshot
    --jobs <N>                                     concurrent simulations [default: one per CPU]
    --no-cache                                     neither read nor write the result cache
    --refresh                                      ignore cached results but overwrite them
    --cache-dir <DIR>                              result cache root [default: target/swiftsim-campaigns/cache]
    --out <FILE>                                   also write all rows as JSON lines to FILE
    --json                                         print JSON lines to stdout instead of the table
    --profile                                      self-profile every job (heartbeats + per-job
                                                   module attribution in the JSONL rows)

SERVE OPTIONS (after `swiftsim serve`):
    --listen <ADDR>                                coordinator listen address [default: 127.0.0.1:7733]
                                                   (port 0 picks a free port; the bound address is
                                                   printed to stdout as a JSON \"serving\" line)
    --worker <ADDR>                                run as a remote worker for the coordinator at
                                                   ADDR instead of serving
    --name <NAME>                                  worker name for diagnostics [default: worker]
    --local-slots <N>                              local executor threads; 0 = remote workers only
                                                   [default: one per CPU]
    --cache-dir <DIR>                              on-disk result cache root
    --no-cache / --refresh                         on-disk cache policy, as in campaigns
    --retries <N>                                  per-task simulation retries [default: 1]
    --lease-secs <N>                               take tasks back from silent workers after N
                                                   seconds [default: 300]
    --trace-out <FILE>                             record a task-lifecycle trace: workers ship
                                                   their profiler tracks back and the daemon
                                                   writes one merged Perfetto JSON file with
                                                   coordinator and worker tracks on drain
    --events-out <FILE>                            write the flight recorder as JSON lines on
                                                   deadlock, panic, exhausted worker-loss
                                                   budget, or a dump-events request
    --flight-capacity <N>                          flight-recorder ring size; 0 disables it
                                                   [default: 4096]
    --checkpoint-dir <DIR>                         checkpoint local tasks at kernel boundaries
                                                   into DIR; after a crash or drain, restarted
                                                   tasks resume from their last snapshot

SUBMIT OPTIONS (after `swiftsim submit <SPEC>`):
    --to <ADDR>                                    daemon address [default: 127.0.0.1:7733]
    --client <NAME>                                client name for fair scheduling [default: $USER]
    --priority <N>                                 higher runs earlier within this client [default: 0]
    --timeout-secs <N>                             give up waiting after N seconds [default: 3600]
    --no-wait                                      print the job id and exit without waiting
    --out <FILE>                                   also write result rows as JSON lines to FILE
    --stats                                        print daemon statistics as JSON and exit
    --metrics                                      print the daemon's Prometheus-style metrics
                                                   exposition (counters, gauges, latency
                                                   histograms) and exit; with --json, print
                                                   the structured JSON form instead
    --dump-events                                  print the daemon's flight-recorder ring as
                                                   JSON lines and exit
    --drain                                        ask the daemon to drain and exit

VALIDATE OPTIONS (after `swiftsim validate`):
    Runs every selected fidelity preset across the workload suite,
    correlates each preset's typed stats (cycles, IPC, L1/L2 miss rates,
    DRAM traffic) against the silicon oracle, and prints per-stat MAPE,
    Pearson and Spearman rank correlation, and worst-offender tables —
    one figure-style table per (preset x GPU). Deterministic end to end,
    so the MAPE numbers are exactly reproducible and CI can gate on them.
    --scale <tiny|small|paper>                     workload scale [default: tiny]
    --apps <a,b,...>                               comma-separated application subset
                                                   [default: the full 20-app suite]
    --gpu <g1,g2,...>                              GPU presets to validate on
                                                   [default: rtx2080ti]
    --preset <p1,p2,...>                           presets to validate [default: all three]
    --threads <N>                                  worker threads per simulation [default: 1]
    --top <N>                                      worst offenders kept per stat [default: 3]
    --json <FILE>                                  also write the accuracy report (the
                                                   BENCH_accuracy.json schema) to FILE
    --write-thresholds <FILE>                      write CI gate bounds: this run's per-stat
                                                   MAPE plus --slack, with the exact suite
                                                   configuration recorded for replay
    --slack <F>                                    absolute MAPE margin added to bounds
                                                   [default: 0.05]
    --check <FILE>                                 accuracy-gate mode: re-run the suite the
                                                   thresholds file records, compare MAPE
                                                   against its bounds, exit nonzero listing
                                                   every violation (config flags above are
                                                   ignored; the file is the configuration)
    --oracle accelsim:<FILE>                       score against an imported Accel-Sim-style
                                                   stat file instead of the silicon oracle
    --inject-drift <F>                             multiply every prediction by F (gate
                                                   self-test; proves the gate fails)
";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Write to stdout, treating a broken pipe (e.g. `swiftsim ... | head`) as
/// a clean exit instead of a panic.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

#[derive(Debug)]
struct Args {
    preset: SimulatorPreset,
    fidelity: Option<String>,
    gpu: GpuConfig,
    workload: Option<String>,
    trace_file: Option<String>,
    scale: Scale,
    threads: usize,
    json: bool,
    profile: bool,
    trace_out: Option<String>,
    checkpoint_out: Option<String>,
    resume: Option<String>,
    halt_after: Option<usize>,
}

#[derive(Debug)]
struct CampaignArgs {
    spec_path: String,
    options: CampaignOptions,
    /// `-sim_*` pairs forced across every job (from `--fidelity` and bare
    /// pairs alike), replacing the spec's matching axes.
    fidelity: Option<String>,
    out: Option<String>,
    json: bool,
}

/// Append one `-sim_*` key/value pair (or a whole `--fidelity` string) to
/// an accumulated fidelity-override text. Both spellings funnel into the
/// same string so they compose in either order.
fn push_fidelity_text(acc: &mut Option<String>, text: &str) {
    let acc = acc.get_or_insert_with(String::new);
    if !acc.is_empty() {
        acc.push(' ');
    }
    acc.push_str(text);
}

fn parse_campaign_args(mut argv: Vec<String>) -> Result<CampaignArgs, String> {
    let mut spec_path = None;
    let mut options = CampaignOptions::default();
    let mut fidelity = None;
    let mut out = None;
    let mut json = false;

    let mut it = argv.drain(..);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--jobs" => {
                options.workers = value("--jobs")?
                    .parse()
                    .map_err(|_| "invalid job count".to_owned())?;
            }
            "--no-cache" => options = options.cache_off(),
            "--refresh" => options = options.refresh(),
            "--profile" => options.profile = true,
            "--cache-dir" => options.cache_dir = value("--cache-dir")?.into(),
            "--checkpoint-dir" => options.checkpoint_dir = Some(value("--checkpoint-dir")?.into()),
            "--fidelity" => {
                let text = value("--fidelity")?;
                push_fidelity_text(&mut fidelity, &text);
            }
            "--out" => out = Some(value("--out")?),
            "--json" => json = true,
            sim_key if sim_key.starts_with("-sim_") => {
                let v = value(sim_key)?;
                push_fidelity_text(&mut fidelity, &format!("{sim_key} {v}"));
            }
            other if !other.starts_with('-') && spec_path.is_none() => {
                spec_path = Some(other.to_owned());
            }
            other => return Err(format!("unknown campaign option {other:?} (try --help)")),
        }
    }
    Ok(CampaignArgs {
        spec_path: spec_path.ok_or("campaign needs a spec file (try --help)")?,
        options,
        fidelity,
        out,
        json,
    })
}

/// Force `-sim_*` overrides across every job of a campaign by replacing
/// the spec's matching sweep axes with the single given value. Uses the
/// same key grammar as `--fidelity` on a plain run.
fn apply_fidelity_axes(spec: &mut CampaignSpec, text: &str) -> Result<(), String> {
    // Each key's value is a comma-separated axis (no spaces: the grammar
    // is whitespace-tokenized); `default` keeps the preset's own policy
    // for that cell, mirroring campaign spec files.
    fn one<T: std::str::FromStr>(key: &str, value: &str) -> Result<Vec<Option<T>>, String>
    where
        T::Err: std::fmt::Display,
    {
        value
            .split(',')
            .filter(|v| !v.is_empty())
            .map(|v| match v {
                "default" => Ok(None),
                v => v
                    .parse::<T>()
                    .map(Some)
                    .map_err(|e| format!("invalid {key} value {v:?}: {e}")),
            })
            .collect::<Result<Vec<_>, _>>()
            .and_then(|axis| {
                if axis.is_empty() {
                    Err(format!("{key} has an empty value list"))
                } else {
                    Ok(axis)
                }
            })
    }

    let mut tokens = text.split_whitespace();
    while let Some(token) = tokens.next() {
        let value = tokens
            .next()
            .ok_or_else(|| format!("fidelity option {token:?} is missing its value"))?;
        match token {
            "-sim_alu_model" => spec.alu_models = one(token, value)?,
            "-sim_mem_model" => spec.mem_models = one(token, value)?,
            "-sim_frontend_model" => spec.frontends = one(token, value)?,
            "-sim_sampling" => spec.samplings = one(token, value)?,
            other => return Err(unknown_fidelity_key(other)),
        }
    }
    Ok(())
}

fn parse_args(mut argv: Vec<String>) -> Result<Option<Args>, String> {
    let mut preset = SimulatorPreset::SwiftBasic;
    let mut fidelity = None;
    let mut gpu = presets::rtx2080ti();
    let mut workload = None;
    let mut trace_file = None;
    let mut scale = Scale::Small;
    let mut threads = 1usize;
    let mut json = false;
    let mut profile = false;
    let mut trace_out = None;
    let mut checkpoint_out = None;
    let mut resume = None;
    let mut halt_after = None;

    let mut it = argv.drain(..);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => {
                emit(USAGE);
                return Ok(None);
            }
            "--list-workloads" => {
                let mut out = String::new();
                for w in swiftsim_workloads::suite() {
                    out.push_str(&format!("{:<12} {}\n", w.name, w.suite));
                }
                emit(&out);
                return Ok(None);
            }
            "--dump-config" => {
                let name = value("--dump-config")?;
                let cfg = presets::by_name(&name)
                    .ok_or_else(|| format!("unknown GPU preset {name:?}"))?;
                emit(&cfg.to_config_text());
                return Ok(None);
            }
            "--dump-trace" => {
                let name = value("--dump-trace")?;
                let w = find_workload(&name)?;
                emit(&w.generate(scale).to_trace_text());
                return Ok(None);
            }
            "--dump-trace-bin" => {
                let name = value("--dump-trace-bin")?;
                let path = value("--dump-trace-bin")?;
                let w = find_workload(&name)?;
                w.generate(scale)
                    .write_binary_file(&path)
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                return Ok(None);
            }
            "--preset" => {
                preset = value("--preset")?
                    .parse::<SimulatorPreset>()
                    .map_err(|e| e.to_string())?;
            }
            "--fidelity" => {
                let text = value("--fidelity")?;
                push_fidelity_text(&mut fidelity, &text);
            }
            "--gpu" => {
                let name = value("--gpu")?;
                gpu = presets::by_name(&name)
                    .ok_or_else(|| format!("unknown GPU preset {name:?}"))?;
            }
            "--config" => {
                let path = value("--config")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                gpu = GpuConfig::parse(&text).map_err(|e| e.to_string())?;
            }
            "--workload" => workload = Some(value("--workload")?),
            "--trace" => trace_file = Some(value("--trace")?),
            "--scale" => scale = value("--scale")?.parse()?,
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|_| "invalid thread count".to_owned())?;
            }
            "--json" => json = true,
            "--profile" => profile = true,
            "--trace-out" => {
                trace_out = Some(value("--trace-out")?);
                profile = true;
            }
            "--checkpoint-out" => checkpoint_out = Some(value("--checkpoint-out")?),
            "--resume" => resume = Some(value("--resume")?),
            "--halt-after" => {
                halt_after = Some(
                    value("--halt-after")?
                        .parse()
                        .map_err(|_| "invalid kernel count".to_owned())?,
                );
            }
            // Bare `-sim_*` pairs are sugar for --fidelity "<key> <value>";
            // both spellings funnel into one override string, so they
            // compose in either order.
            sim_key if sim_key.starts_with("-sim_") => {
                let v = value(sim_key)?;
                push_fidelity_text(&mut fidelity, &format!("{sim_key} {v}"));
            }
            other => return Err(format!("unknown option {other:?} (try --help)")),
        }
    }
    Ok(Some(Args {
        preset,
        fidelity,
        gpu,
        workload,
        trace_file,
        scale,
        threads,
        json,
        profile,
        trace_out,
        checkpoint_out,
        resume,
        halt_after,
    }))
}

/// Apply GPGPU-Sim-style `-sim_*` fidelity overrides on top of a preset's
/// module choices. Unlike `FidelityConfig::parse_args` (which starts from
/// the default config and tolerates foreign options inside a config file),
/// the `--fidelity` flag carries *only* fidelity keys, so every token must
/// be one.
fn apply_fidelity_text(fidelity: &mut FidelityConfig, text: &str) -> Result<(), String> {
    let mut tokens = text.split_whitespace();
    while let Some(token) = tokens.next() {
        let value = tokens
            .next()
            .ok_or_else(|| format!("fidelity option {token:?} is missing its value"))?;
        if !fidelity
            .apply_option(token, value)
            .map_err(|e| e.to_string())?
        {
            return Err(unknown_fidelity_key(token));
        }
    }
    Ok(())
}

/// The error for a token that names no fidelity key: the core parser's
/// `InvalidConfig` for an unknown `-sim_*` key, worded the same for any
/// other token.
fn unknown_fidelity_key(token: &str) -> String {
    let message = format!(
        "unknown fidelity option {token:?} (expected -sim_alu_model, -sim_mem_model, \
         -sim_frontend_model, or -sim_sampling)"
    );
    swiftsim_core::SimError::InvalidConfig { message }.to_string()
}

fn find_workload(name: &str) -> Result<swiftsim_workloads::Workload, String> {
    swiftsim_workloads::suite()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?} (see --list-workloads)"))
}

fn run_campaign_cmd(argv: Vec<String>) -> Result<(), String> {
    let args = parse_campaign_args(argv)?;
    let text = std::fs::read_to_string(&args.spec_path)
        .map_err(|e| format!("cannot read {}: {e}", args.spec_path))?;
    let mut spec = CampaignSpec::parse(&text).map_err(|e| e.to_string())?;
    if let Some(overrides) = &args.fidelity {
        apply_fidelity_axes(&mut spec, overrides)?;
    }

    let mut options = args.options;
    options.progress = true;
    let report = run_campaign(&spec, &options).map_err(|e| e.to_string())?;

    if let Some(path) = &args.out {
        std::fs::write(path, report.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if args.json {
        emit(&report.to_jsonl());
    } else {
        emit(&format!(
            "{}\n{}\n",
            report.summary_table(),
            report.summary_line()
        ));
    }
    if report.failed() > 0 {
        return Err(format!("{} job(s) failed", report.failed()));
    }
    Ok(())
}

#[derive(Debug)]
struct ServeArgs {
    options: ServeOptions,
    /// `Some(coordinator)` runs as a remote worker instead of a daemon.
    worker: Option<String>,
    name: String,
}

fn parse_serve_args(mut argv: Vec<String>) -> Result<ServeArgs, String> {
    let mut options = ServeOptions::default();
    let mut worker = None;
    let mut name = "worker".to_owned();

    let mut it = argv.drain(..);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--listen" => options.listen = value("--listen")?,
            "--worker" => worker = Some(value("--worker")?),
            "--name" => name = value("--name")?,
            "--local-slots" => {
                options.local_slots = Some(
                    value("--local-slots")?
                        .parse()
                        .map_err(|_| "invalid slot count".to_owned())?,
                );
            }
            "--cache-dir" => options.cache_dir = value("--cache-dir")?.into(),
            "--no-cache" => options.cache = swiftsim_campaign::CacheMode::Off,
            "--refresh" => options.cache = swiftsim_campaign::CacheMode::Refresh,
            "--retries" => {
                options.max_retries = value("--retries")?
                    .parse()
                    .map_err(|_| "invalid retry count".to_owned())?;
            }
            "--lease-secs" => {
                options.worker_lease = Duration::from_secs(
                    value("--lease-secs")?
                        .parse()
                        .map_err(|_| "invalid lease".to_owned())?,
                );
            }
            "--trace-out" => options.trace_out = Some(value("--trace-out")?.into()),
            "--events-out" => options.events_out = Some(value("--events-out")?.into()),
            "--flight-capacity" => {
                options.flight_capacity = value("--flight-capacity")?
                    .parse()
                    .map_err(|_| "invalid flight-recorder capacity".to_owned())?;
            }
            "--checkpoint-dir" => options.checkpoint_dir = Some(value("--checkpoint-dir")?.into()),
            other => return Err(format!("unknown serve option {other:?} (try --help)")),
        }
    }
    Ok(ServeArgs {
        options,
        worker,
        name,
    })
}

fn run_serve_cmd(argv: Vec<String>) -> Result<(), String> {
    let args = parse_serve_args(argv)?;
    if let Some(coordinator) = args.worker {
        let wopts = WorkerOptions {
            coordinator: coordinator.clone(),
            name: args.name.clone(),
            cache_dir: args.options.cache_dir.join("worker"),
            cache: args.options.cache,
            max_retries: args.options.max_retries,
        };
        eprintln!("worker {:?}: connecting to {coordinator}...", args.name);
        let summary = run_worker_with_retry(&wopts, 30, Duration::from_secs(1))
            .map_err(|e| format!("worker: {e}"))?;
        eprintln!(
            "worker {:?}: drained after {} completed, {} cached, {} failed",
            args.name, summary.completed, summary.cached, summary.failed
        );
        return Ok(());
    }

    swiftsim_serve::signal::install_handlers();
    let handle = server::start(args.options).map_err(|e| format!("serve: {e}"))?;
    // A machine-readable line so scripts (and the CI smoke test) can learn
    // the bound address when listening on port 0.
    emit(&format!(
        "{}\n",
        Json::obj(vec![
            ("serving", Json::str(handle.addr().to_string())),
            (
                "version",
                Json::int(swiftsim_serve::protocol::PROTOCOL_VERSION)
            ),
        ])
        .dump()
    ));
    eprintln!(
        "serve: listening on {} (SIGTERM or a shutdown request drains gracefully)",
        handle.addr()
    );
    handle.join();
    Ok(())
}

#[derive(Debug)]
struct SubmitArgs {
    spec_path: Option<String>,
    to: String,
    client: String,
    priority: u64,
    timeout: Duration,
    wait: bool,
    out: Option<String>,
    stats: bool,
    metrics: bool,
    dump_events: bool,
    json: bool,
    drain: bool,
}

fn parse_submit_args(mut argv: Vec<String>) -> Result<SubmitArgs, String> {
    let mut args = SubmitArgs {
        spec_path: None,
        to: "127.0.0.1:7733".to_owned(),
        client: std::env::var("USER").unwrap_or_else(|_| "anonymous".to_owned()),
        priority: 0,
        timeout: Duration::from_secs(3600),
        wait: true,
        out: None,
        stats: false,
        metrics: false,
        dump_events: false,
        json: false,
        drain: false,
    };

    let mut it = argv.drain(..);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--to" => args.to = value("--to")?,
            "--client" => args.client = value("--client")?,
            "--priority" => {
                args.priority = value("--priority")?
                    .parse()
                    .map_err(|_| "invalid priority".to_owned())?;
            }
            "--timeout-secs" => {
                args.timeout = Duration::from_secs(
                    value("--timeout-secs")?
                        .parse()
                        .map_err(|_| "invalid timeout".to_owned())?,
                );
            }
            "--no-wait" => args.wait = false,
            "--out" => args.out = Some(value("--out")?),
            "--stats" => args.stats = true,
            "--metrics" => args.metrics = true,
            "--dump-events" => args.dump_events = true,
            "--json" => args.json = true,
            "--drain" => args.drain = true,
            other if !other.starts_with('-') && args.spec_path.is_none() => {
                args.spec_path = Some(other.to_owned());
            }
            other => return Err(format!("unknown submit option {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn run_submit_cmd(argv: Vec<String>) -> Result<(), String> {
    let args = parse_submit_args(argv)?;
    let mut client = ServeClient::connect(&args.to)
        .map_err(|e| format!("cannot reach daemon at {}: {e}", args.to))?;

    if args.stats {
        let stats = client.stats().map_err(|e| e.to_string())?;
        emit(&(stats.dump() + "\n"));
        return Ok(());
    }
    if args.metrics {
        let (text, json) = client.metrics().map_err(|e| e.to_string())?;
        if args.json {
            emit(&(json.dump() + "\n"));
        } else {
            emit(&text);
        }
        return Ok(());
    }
    if args.dump_events {
        let reply = client.dump_events().map_err(|e| e.to_string())?;
        let mut jsonl = String::new();
        for ev in reply.get("events").and_then(Json::as_arr).unwrap_or(&[]) {
            jsonl.push_str(&ev.dump());
            jsonl.push('\n');
        }
        emit(&jsonl);
        if let Some(dropped) = reply.get("dropped").and_then(Json::as_u64) {
            if dropped > 0 {
                eprintln!("flight recorder dropped {dropped} older event(s)");
            }
        }
        return Ok(());
    }
    if args.drain {
        client.shutdown().map_err(|e| e.to_string())?;
        eprintln!("daemon at {} is draining", args.to);
        return Ok(());
    }

    let spec_path = args
        .spec_path
        .ok_or("submit needs a spec file (try --help)")?;
    let text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let (job, tasks) = client
        .submit(&text, &args.client, args.priority)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "submitted job {job} ({tasks} task(s)) to {} as client {:?}",
        args.to, args.client
    );
    if !args.wait {
        emit(&format!(
            "{}\n",
            Json::obj(vec![("job", Json::int(job)), ("tasks", Json::int(tasks))]).dump()
        ));
        return Ok(());
    }

    let report = client
        .wait_result(job, args.timeout)
        .map_err(|e| e.to_string())?;
    let rows = report
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("daemon result carried no rows")?;
    let mut jsonl = String::new();
    let mut bad = 0usize;
    for row in rows {
        jsonl.push_str(&row.dump());
        jsonl.push('\n');
        if !matches!(
            row.get("status").and_then(Json::as_str),
            Some("ok" | "cached")
        ) {
            bad += 1;
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, &jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    emit(&jsonl);
    if let Some(summary) = report.get("summary").and_then(Json::as_str) {
        eprintln!("{summary}");
    }
    if bad > 0 {
        return Err(format!("{bad} job(s) did not finish ok"));
    }
    Ok(())
}

#[derive(Debug)]
struct ValidateArgs {
    options: swiftsim_validate::ValidateOptions,
    json_out: Option<String>,
    write_thresholds: Option<String>,
    slack: f64,
    check: Option<String>,
}

fn parse_validate_args(mut argv: Vec<String>) -> Result<ValidateArgs, String> {
    use swiftsim_validate::OracleSource;

    let mut options = swiftsim_validate::ValidateOptions::default();
    let mut json_out = None;
    let mut write_thresholds = None;
    let mut slack = 0.05;
    let mut check = None;

    let mut it = argv.drain(..);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => {
                emit(USAGE);
                std::process::exit(0);
            }
            "--scale" => options.scale = value("--scale")?.parse()?,
            "--apps" => {
                options.apps = Some(value("--apps")?.split(',').map(str::to_owned).collect());
            }
            "--gpu" => {
                options.gpus = value("--gpu")?
                    .split(',')
                    .map(|name| {
                        presets::by_name(name).ok_or_else(|| format!("unknown GPU preset {name:?}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--preset" => {
                options.presets = value("--preset")?
                    .split(',')
                    .map(|p| p.parse::<SimulatorPreset>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--threads" => {
                options.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "invalid thread count".to_owned())?;
            }
            "--top" => {
                options.top_offenders = value("--top")?
                    .parse()
                    .map_err(|_| "invalid offender count".to_owned())?;
            }
            "--json" => json_out = Some(value("--json")?),
            "--write-thresholds" => write_thresholds = Some(value("--write-thresholds")?),
            "--slack" => {
                slack = value("--slack")?
                    .parse()
                    .map_err(|_| "invalid slack".to_owned())?;
            }
            "--check" => check = Some(value("--check")?),
            "--oracle" => {
                let spec = value("--oracle")?;
                let path = spec
                    .strip_prefix("accelsim:")
                    .ok_or_else(|| format!("unknown oracle {spec:?} (expected accelsim:<FILE>)"))?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                options.oracle =
                    OracleSource::Imported(swiftsim_validate::parse_accelsim_stats(&text)?);
            }
            "--inject-drift" => {
                options.drift = value("--inject-drift")?
                    .parse()
                    .map_err(|_| "invalid drift factor".to_owned())?;
            }
            other => return Err(format!("unknown validate option {other:?} (try --help)")),
        }
    }
    Ok(ValidateArgs {
        options,
        json_out,
        write_thresholds,
        slack,
        check,
    })
}

fn run_validate_cmd(argv: Vec<String>) -> Result<(), String> {
    let mut args = parse_validate_args(argv)?;

    // Gate mode: the thresholds file records the exact suite it bounds, so
    // CI needs no other configuration flags.
    let thresholds = match &args.check {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let t = swiftsim_validate::Thresholds::from_json(&Json::parse(&text)?)?;
            let recorded = t.to_options()?;
            args.options.scale = recorded.scale;
            args.options.apps = recorded.apps;
            args.options.gpus = recorded.gpus;
            args.options.presets = recorded.presets;
            Some(t)
        }
        None => None,
    };

    let report = swiftsim_validate::run_validation(&args.options)?;
    emit(&report.render());

    if let Some(path) = &args.json_out {
        let text = report.to_json().dump() + "\n";
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &args.write_thresholds {
        let bounds = swiftsim_validate::Thresholds::from_report(&report, args.slack);
        let text = bounds.to_json().dump() + "\n";
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        emit(&format!(
            "wrote {} bounds (MAPE + {:.0}% slack) to {path}\n",
            bounds.max_mape.len(),
            100.0 * args.slack
        ));
    }
    if let Some(thresholds) = thresholds {
        let violations = thresholds.check(&report);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("accuracy gate: {v}");
            }
            return Err(format!(
                "accuracy gate failed: {} violation(s)",
                violations.len()
            ));
        }
        emit(&format!(
            "accuracy gate passed: {} bounds held\n",
            thresholds.max_mape.len()
        ));
    }
    Ok(())
}

fn run(mut argv: Vec<String>) -> Result<(), String> {
    if argv.first().map(String::as_str) == Some("campaign") {
        return run_campaign_cmd(argv.split_off(1));
    }
    if argv.first().map(String::as_str) == Some("serve") {
        return run_serve_cmd(argv.split_off(1));
    }
    if argv.first().map(String::as_str) == Some("submit") {
        return run_submit_cmd(argv.split_off(1));
    }
    if argv.first().map(String::as_str) == Some("validate") {
        return run_validate_cmd(argv.split_off(1));
    }
    let Some(args) = parse_args(argv)? else {
        return Ok(());
    };

    // Trace files stream: the kernel index/metadata is read now, kernel
    // payloads decode lazily (and one kernel ahead) during the run. Binary
    // traces are detected by their magic, not the extension.
    let source: Box<dyn TraceSource> = match (&args.trace_file, &args.workload) {
        (Some(path), _) => open_trace(path).map_err(|e| e.to_string())?,
        (None, Some(name)) => Box::new(find_workload(name)?.generate(args.scale)),
        (None, None) => return Err("need --workload or --trace (try --help)".to_owned()),
    };

    let mut fidelity = FidelityConfig::for_preset(args.preset);
    if let Some(text) = &args.fidelity {
        apply_fidelity_text(&mut fidelity, text)?;
    }
    let mut options = RunOptions::default()
        .with_fidelity(fidelity)
        .with_threads(args.threads)
        .with_profile(args.profile);
    if let Some(path) = &args.checkpoint_out {
        options = options.with_checkpoint_out(path);
    }
    if let Some(path) = &args.resume {
        options = options.with_resume(path);
    }
    if let Some(kernels) = args.halt_after {
        options = options.with_halt_after(kernels);
    }
    let sim = GpuSimulator::try_new(args.gpu.clone(), &options).map_err(|e| e.to_string())?;

    eprintln!(
        "simulating {:?} ({} instructions) on {} with {} ({})...",
        source.name(),
        source.total_insts(),
        args.gpu.name,
        args.preset.label(),
        sim.description(),
    );
    let result = sim.run(source.as_ref()).map_err(|e| e.to_string())?;

    if let Some(path) = &args.checkpoint_out {
        eprintln!("checkpoint snapshot at {path} (resume with --resume {path})");
    }
    if let (Some(path), Some(report)) = (&args.trace_out, &result.profile) {
        let trace = report.to_chrome_trace().dump();
        std::fs::write(path, trace).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("profile trace written to {path} (open in ui.perfetto.dev or chrome://tracing)");
    }

    if args.json {
        // The same schema campaign JSONL rows embed under "result". The
        // attribution table goes to stderr so stdout stays machine-readable.
        if let Some(report) = &result.profile {
            eprintln!("{}", report.attribution_table());
        }
        emit(&(result.to_json().dump() + "\n"));
        return Ok(());
    }

    let mut out = String::new();
    out.push_str(&format!("app        = {}\n", result.app));
    out.push_str(&format!("simulator  = {}\n", result.simulator));
    out.push_str(&format!("cycles     = {}\n", result.cycles));
    out.push_str(&format!("insts      = {}\n", result.instructions()));
    out.push_str(&format!("ipc        = {:.3}\n", result.ipc()));
    out.push_str(&format!(
        "wall_time  = {:.3}s\n",
        result.wall_time.as_secs_f64()
    ));
    out.push_str(&format!(
        "sim_rate   = {:.0} cycles/s\n\n",
        result.sim_rate()
    ));
    if let Some(c) = &result.confidence {
        out.push_str(&format!(
            "sampling   = {} cluster(s), {} detailed + {} replayed kernel(s), \
             app error bound {:.1}%\n",
            c.clusters,
            c.sampled_kernels,
            c.replayed_kernels,
            c.app_error_bound * 100.0
        ));
    }
    for k in &result.kernels {
        out.push_str(&format!(
            "kernel {:<24} cycles={:<10} insts={:<10} ipc={:.3}\n",
            k.name,
            k.cycles,
            k.instructions,
            k.ipc()
        ));
    }
    out.push('\n');
    out.push_str(&result.metrics.to_report());
    if let Some(report) = &result.profile {
        out.push_str(&format!(
            "\nself-profile (wall-time attribution per simulator module)\n{}",
            report.attribution_table()
        ));
    }
    emit(&out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let args = parse_args(vec![]).unwrap().unwrap();
        assert_eq!(args.preset, SimulatorPreset::SwiftBasic);
        assert_eq!(args.gpu.name, "RTX 2080 Ti");
        assert!(args.workload.is_none());
        assert!(args.trace_file.is_none());
        assert_eq!(args.threads, 1);
    }

    #[test]
    fn full_flag_set_parses() {
        let argv: Vec<String> = [
            "--preset",
            "swift-memory",
            "--gpu",
            "rtx3090",
            "--workload",
            "bfs",
            "--scale",
            "tiny",
            "--threads",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_args(argv).unwrap().unwrap();
        assert_eq!(args.preset, SimulatorPreset::SwiftMemory);
        assert_eq!(args.gpu.num_sms, 82);
        assert_eq!(args.workload.as_deref(), Some("bfs"));
        assert_eq!(args.scale, Scale::Tiny);
        assert_eq!(args.threads, 4);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse_args(vec!["--frobnicate".into()]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn missing_value_is_rejected() {
        assert!(parse_args(vec!["--preset".into()]).is_err());
        assert!(parse_args(vec!["--gpu".into(), "gtx9000".into()]).is_err());
        assert!(parse_args(vec!["--scale".into(), "huge".into()]).is_err());
    }

    #[test]
    fn run_requires_a_workload_or_trace() {
        assert!(run(vec![]).is_err());
    }

    #[test]
    fn find_workload_matches_suite() {
        assert!(find_workload("bfs").is_ok());
        assert!(find_workload("doom").is_err());
    }

    #[test]
    fn json_flag_parses() {
        let args = parse_args(vec!["--json".into()]).unwrap().unwrap();
        assert!(args.json);
        assert!(!parse_args(vec![]).unwrap().unwrap().json);
    }

    #[test]
    fn fidelity_flag_parses_and_overrides_the_preset() {
        let args = parse_args(vec![
            "--preset".into(),
            "detailed".into(),
            "--fidelity".into(),
            "-sim_alu_model analytical -sim_frontend_model simplified".into(),
        ])
        .unwrap()
        .unwrap();
        let mut fidelity = FidelityConfig::for_preset(args.preset);
        apply_fidelity_text(&mut fidelity, args.fidelity.as_deref().unwrap()).unwrap();
        assert_eq!(
            fidelity.describe(),
            "analytical_alu+cycle_accurate_memory+simplified_frontend+event_driven"
        );

        // Bad keys, bad values, and missing values are all surfaced.
        let mut f = FidelityConfig::default();
        assert!(apply_fidelity_text(&mut f, "-sim_warp_model fancy").is_err());
        assert!(apply_fidelity_text(&mut f, "-sim_alu_model quantum").is_err());
        assert!(apply_fidelity_text(&mut f, "-sim_alu_model").is_err());
        assert!(apply_fidelity_text(&mut f, "--threads 4").is_err());
    }

    #[test]
    fn unknown_sim_key_error_lists_every_valid_key() {
        // Pin the discoverability contract: a typo'd -sim_* key names all
        // four valid keys, through the core parser (unknown -sim_*), the
        // CLI wrapper (non-fidelity token) and the campaign axes.
        let mut f = FidelityConfig::default();
        let mut spec = CampaignSpec::parse("name = t\nworkload = bfs\n").unwrap();
        for bad in ["-sim_bogus x", "--threads 4"] {
            for err in [
                apply_fidelity_text(&mut f, bad).unwrap_err(),
                apply_fidelity_axes(&mut spec, bad).unwrap_err(),
            ] {
                for key in [
                    "-sim_alu_model",
                    "-sim_mem_model",
                    "-sim_frontend_model",
                    "-sim_sampling",
                ] {
                    assert!(err.contains(key), "{bad:?} error must list {key}: {err}");
                }
            }
        }

        // The removed shard-synchronization and clock keys are ordinary
        // unknown keys: refused as an invalid configuration via
        // --fidelity, via bare pairs and on campaign.
        let refused = |err: String| {
            assert!(
                err.starts_with("invalid simulator configuration: unknown fidelity option"),
                "{err}"
            );
        };
        for (key, value) in [("-sim_sync_quantum", "8"), ("-sim_skip_policy", "dense")] {
            let pair = format!("{key} {value}");
            for argv in [["--fidelity", pair.as_str()], [key, value]] {
                let args = parse_args(argv.map(String::from).to_vec())
                    .unwrap()
                    .unwrap();
                let text = args.fidelity.as_deref().unwrap();
                refused(apply_fidelity_text(&mut f, text).unwrap_err());
            }
            let args = parse_campaign_args(vec!["sweep.campaign".into(), key.into(), value.into()])
                .unwrap();
            refused(apply_fidelity_axes(&mut spec, args.fidelity.as_deref().unwrap()).unwrap_err());
        }
        assert_eq!(f, FidelityConfig::default());
    }

    #[test]
    fn bare_sim_pairs_merge_with_the_fidelity_flag() {
        let args = parse_args(vec![
            "-sim_sampling".into(),
            "cluster:2".into(),
            "--fidelity".into(),
            "-sim_alu_model analytical".into(),
            "-sim_mem_model".into(),
            "analytical".into(),
        ])
        .unwrap()
        .unwrap();
        assert_eq!(
            args.fidelity.as_deref(),
            Some("-sim_sampling cluster:2 -sim_alu_model analytical -sim_mem_model analytical")
        );
        let mut f = FidelityConfig::for_preset(SimulatorPreset::Detailed);
        apply_fidelity_text(&mut f, args.fidelity.as_deref().unwrap()).unwrap();
        assert_eq!(
            f.sampling,
            swiftsim_core::SamplingPolicy::KernelCluster { reps: 2 }
        );
        assert!(parse_args(vec!["-sim_sampling".into()]).is_err());
    }

    #[test]
    fn checkpoint_flags_parse() {
        let args = parse_args(vec![
            "--checkpoint-out".into(),
            "snap.sstbckpt".into(),
            "--resume".into(),
            "old.sstbckpt".into(),
            "--halt-after".into(),
            "3".into(),
        ])
        .unwrap()
        .unwrap();
        assert_eq!(args.checkpoint_out.as_deref(), Some("snap.sstbckpt"));
        assert_eq!(args.resume.as_deref(), Some("old.sstbckpt"));
        assert_eq!(args.halt_after, Some(3));

        let defaults = parse_args(vec![]).unwrap().unwrap();
        assert!(defaults.checkpoint_out.is_none());
        assert!(defaults.resume.is_none());
        assert!(defaults.halt_after.is_none());
        assert!(parse_args(vec!["--halt-after".into(), "some".into()]).is_err());
        assert!(parse_args(vec!["--checkpoint-out".into()]).is_err());
    }

    #[test]
    fn campaign_fidelity_overrides_replace_spec_axes() {
        let args = parse_campaign_args(vec![
            "sweep.campaign".into(),
            "--fidelity".into(),
            "-sim_alu_model analytical".into(),
            "-sim_sampling".into(),
            "cluster:2".into(),
            "--checkpoint-dir".into(),
            "/tmp/ckpts".into(),
        ])
        .unwrap();
        assert_eq!(
            args.fidelity.as_deref(),
            Some("-sim_alu_model analytical -sim_sampling cluster:2")
        );
        assert_eq!(
            args.options.checkpoint_dir,
            Some(std::path::PathBuf::from("/tmp/ckpts"))
        );

        let mut spec =
            CampaignSpec::parse("name = t\nworkload = bfs\npreset = detailed\n").unwrap();
        apply_fidelity_axes(&mut spec, args.fidelity.as_deref().unwrap()).unwrap();
        assert_eq!(spec.alu_models.len(), 1);
        assert!(spec.alu_models[0].is_some());
        assert_eq!(
            spec.samplings,
            vec![Some(swiftsim_core::SamplingPolicy::KernelCluster {
                reps: 2
            })]
        );

        // Comma-separated values become a sweep axis; `default` keeps the
        // preset's own policy for that cell.
        apply_fidelity_axes(&mut spec, "-sim_sampling default,off,cluster:4").unwrap();
        assert_eq!(
            spec.samplings,
            vec![
                None,
                Some(swiftsim_core::SamplingPolicy::Off),
                Some(swiftsim_core::SamplingPolicy::KernelCluster { reps: 4 })
            ]
        );
        let err = apply_fidelity_axes(&mut spec, "-sim_sampling ,").unwrap_err();
        assert!(err.contains("empty value list"), "{err}");

        // Unknown keys list the valid set.
        let err = apply_fidelity_axes(&mut spec, "-sim_bogus x").unwrap_err();
        assert!(err.contains("-sim_sampling"), "{err}");
        assert!(apply_fidelity_axes(&mut spec, "-sim_alu_model").is_err());
        assert!(apply_fidelity_axes(&mut spec, "-sim_alu_model quantum").is_err());
    }

    #[test]
    fn campaign_args_parse() {
        let argv: Vec<String> = [
            "sweep.campaign",
            "--jobs",
            "8",
            "--refresh",
            "--cache-dir",
            "/tmp/cc",
            "--out",
            "rows.jsonl",
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_campaign_args(argv).unwrap();
        assert_eq!(args.spec_path, "sweep.campaign");
        assert_eq!(args.options.workers, 8);
        assert_eq!(args.options.cache, swiftsim_campaign::CacheMode::Refresh);
        assert_eq!(args.options.cache_dir, std::path::PathBuf::from("/tmp/cc"));
        assert_eq!(args.out.as_deref(), Some("rows.jsonl"));
        assert!(args.json);
    }

    #[test]
    fn serve_args_parse() {
        let argv: Vec<String> = [
            "--listen",
            "127.0.0.1:0",
            "--local-slots",
            "2",
            "--no-cache",
            "--lease-secs",
            "60",
            "--trace-out",
            "merged.json",
            "--events-out",
            "flight.jsonl",
            "--flight-capacity",
            "128",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_serve_args(argv).unwrap();
        assert_eq!(args.options.listen, "127.0.0.1:0");
        assert_eq!(args.options.local_slots, Some(2));
        assert_eq!(args.options.cache, swiftsim_campaign::CacheMode::Off);
        assert_eq!(args.options.worker_lease, Duration::from_secs(60));
        assert_eq!(
            args.options.trace_out,
            Some(std::path::PathBuf::from("merged.json"))
        );
        assert_eq!(
            args.options.events_out,
            Some(std::path::PathBuf::from("flight.jsonl"))
        );
        assert_eq!(args.options.flight_capacity, 128);
        assert!(args.worker.is_none());

        let ckpt = parse_serve_args(vec!["--checkpoint-dir".into(), "/tmp/sd".into()]).unwrap();
        assert_eq!(
            ckpt.options.checkpoint_dir,
            Some(std::path::PathBuf::from("/tmp/sd"))
        );

        let defaults = parse_serve_args(vec![]).unwrap();
        assert!(defaults.options.checkpoint_dir.is_none());
        assert!(defaults.options.trace_out.is_none());
        assert!(defaults.options.events_out.is_none());
        assert_eq!(defaults.options.flight_capacity, 4096);
        assert!(parse_serve_args(vec!["--flight-capacity".into(), "lots".into()]).is_err());

        let worker = parse_serve_args(vec![
            "--worker".into(),
            "127.0.0.1:7733".into(),
            "--name".into(),
            "w1".into(),
        ])
        .unwrap();
        assert_eq!(worker.worker.as_deref(), Some("127.0.0.1:7733"));
        assert_eq!(worker.name, "w1");

        assert!(parse_serve_args(vec!["--frob".into()]).is_err());
        assert!(parse_serve_args(vec!["--local-slots".into(), "many".into()]).is_err());
    }

    #[test]
    fn submit_args_parse() {
        let argv: Vec<String> = [
            "sweep.campaign",
            "--to",
            "127.0.0.1:9",
            "--client",
            "ci",
            "--priority",
            "5",
            "--timeout-secs",
            "10",
            "--no-wait",
            "--out",
            "rows.jsonl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_submit_args(argv).unwrap();
        assert_eq!(args.spec_path.as_deref(), Some("sweep.campaign"));
        assert_eq!(args.to, "127.0.0.1:9");
        assert_eq!(args.client, "ci");
        assert_eq!(args.priority, 5);
        assert_eq!(args.timeout, Duration::from_secs(10));
        assert!(!args.wait);
        assert_eq!(args.out.as_deref(), Some("rows.jsonl"));

        let stats = parse_submit_args(vec!["--stats".into()]).unwrap();
        assert!(stats.stats && stats.spec_path.is_none());

        let metrics = parse_submit_args(vec!["--metrics".into(), "--json".into()]).unwrap();
        assert!(metrics.metrics && metrics.json && metrics.spec_path.is_none());
        assert!(!parse_submit_args(vec!["--stats".into()]).unwrap().metrics);

        let dump = parse_submit_args(vec!["--dump-events".into()]).unwrap();
        assert!(dump.dump_events && !dump.metrics);

        assert!(parse_submit_args(vec!["--priority".into()]).is_err());
    }

    #[test]
    fn campaign_args_reject_bad_input() {
        assert!(parse_campaign_args(vec![]).is_err(), "spec is required");
        assert!(parse_campaign_args(vec!["a".into(), "--frob".into()]).is_err());
        assert!(parse_campaign_args(vec!["a".into(), "--jobs".into()]).is_err());
        let no_cache = parse_campaign_args(vec!["a".into(), "--no-cache".into()]).unwrap();
        assert_eq!(no_cache.options.cache, swiftsim_campaign::CacheMode::Off);
    }
}
