//! The `serve.sweep` workload: a fresh in-process serve daemon with one
//! local slot, and one closed-loop client that submits a 16-job sweep cold
//! and then resubmits it warm.

use crate::cell::{stats_digest, Cell, Identity};
use crate::layers::{Layers, SERVE_STAGES};
use crate::spans::Recorder;
use crate::stats::{median, percentile, tail_percentile};
use crate::workloads::{input_paths, Input};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use swiftsim_campaign::CacheMode;
use swiftsim_config::{fnv1a64, presets};
use swiftsim_core::{SimulationResult, SimulatorPreset};
use swiftsim_metrics::Json;
use swiftsim_serve::client::ServeClient;
use swiftsim_serve::server::{self, ServeOptions, ServerHandle};
use swiftsim_trace::open_trace;

const GPUS: [&str; 2] = ["rtx3060", "rtx3090"];

/// Warm resubmissions after the cold sweep, chosen on the reference host
/// so that the cold sweep is about half of a repetition.
pub const WARM_ROUNDS: usize = 200;

const WAIT: Duration = Duration::from_secs(120);

/// One job of a finished sweep, as the daemon reported it.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    trace: String,
    gpu: String,
    key: String,
    status: String,
    id: Identity,
}

fn parse_rows(report: &Json) -> Result<Vec<Row>, String> {
    let rows = report
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("report has no rows")?;
    rows.iter()
        .map(|row| {
            let job = row.get("job").ok_or("row has no job")?;
            let field = |key: &str| {
                job.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("row job has no {key}"))
            };
            let status = row.get("status").and_then(Json::as_str).unwrap_or("");
            let result = row
                .get("result")
                .filter(|r| **r != Json::Null)
                .ok_or_else(|| {
                    let error = row.get("error").and_then(Json::as_str).unwrap_or("?");
                    format!(
                        "job {} is {status}: {error}",
                        field("label").unwrap_or_default()
                    )
                })
                .and_then(SimulationResult::from_json)?;
            Ok(Row {
                trace: field("workload")?,
                gpu: field("gpu")?,
                key: field("key")?,
                status: status.to_owned(),
                id: Identity {
                    cycles: result.cycles,
                    instructions: result.instructions(),
                    digest: stats_digest(&result),
                },
            })
        })
        .collect()
}

pub struct SweepCell {
    spec: String,
    traces: Vec<PathBuf>,
    cache_dir: PathBuf,
    /// Instructions the sweep's jobs must simulate in total.
    expect_insts: u64,
    /// Rows of the latest cold sweep.
    cold_rows: Vec<Row>,
    cold_s: Vec<f64>,
    warm_ms: Vec<f64>,
    /// The daemon's `metrics` and `stats` replies after the latest traced
    /// repetition.
    daemon: Option<(Json, Json)>,
}

pub fn start_daemon(cache_dir: &Path) -> Result<ServerHandle, String> {
    server::start(ServeOptions {
        listen: "127.0.0.1:0".to_owned(),
        local_slots: Some(1),
        cache_dir: cache_dir.to_owned(),
        // The on-disk cache is off: warm answers come from the daemon's
        // in-memory result cache alone, which starts empty with the daemon.
        cache: CacheMode::Off,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("daemon start: {e}"))
}

impl SweepCell {
    /// `trace_insts` is the instruction count of the generated traces
    /// together; every trace is simulated once per preset and GPU.
    pub fn new(dir: &Path, trace_insts: u64) -> Result<SweepCell, String> {
        let traces = input_paths(Input::Sweep, dir);
        let list = |items: Vec<String>| items.join(", ");
        let spec = format!(
            "name = serve.sweep\ntrace = {}\npreset = swift-sim-basic, swift-sim-memory\ngpu = {}\n",
            list(traces.iter().map(|p| p.display().to_string()).collect()),
            list(GPUS.iter().map(|g| (*g).to_owned()).collect()),
        );
        Ok(SweepCell {
            spec,
            traces,
            cache_dir: dir.join("cache"),
            expect_insts: trace_insts * 2 * GPUS.len() as u64,
            cold_rows: Vec::new(),
            cold_s: Vec::new(),
            warm_ms: Vec::new(),
            daemon: None,
        })
    }

    /// Submit the sweep and wait for its report. Only the two requests are
    /// timed; the rows are parsed and checked off the clock.
    fn submit_and_wait(
        &self,
        client: &mut ServeClient,
        rec: &mut Recorder,
    ) -> Result<(f64, Vec<Row>), String> {
        let t0 = Instant::now();
        let (job, _tasks) = rec
            .span("serve.submit", |_| {
                client.submit(&self.spec, "benchmark", 0)
            })
            .map_err(|e| format!("submit: {e}"))?;
        let report = rec
            .span("serve.wait", |_| client.wait_result(job, WAIT))
            .map_err(|e| format!("result: {e}"))?;
        let seconds = t0.elapsed().as_secs_f64();
        Ok((seconds, parse_rows(&report)?))
    }

    /// Cold sweep, then the warm rounds, against a running daemon. Returns
    /// the seconds the client spent waiting on the daemon.
    fn sweep(&mut self, client: &mut ServeClient, rec: &mut Recorder) -> Result<f64, String> {
        let (cold_s, cold) = self.submit_and_wait(client, rec)?;
        if let Some(row) = cold.iter().find(|r| r.status != "ok") {
            return Err(format!("cold job on {} is {:?}", row.trace, row.status));
        }
        let mut warm_ms = Vec::with_capacity(WARM_ROUNDS);
        for _ in 0..WARM_ROUNDS {
            let (warm_s, warm) = self.submit_and_wait(client, rec)?;
            warm_ms.push(warm_s * 1e3);
            if let Some(row) = warm.iter().find(|r| r.status != "cached") {
                return Err(format!("warm job on {} is {:?}", row.trace, row.status));
            }
            let same = warm.len() == cold.len()
                && warm
                    .iter()
                    .zip(&cold)
                    .all(|(w, c)| (&w.key, w.id) == (&c.key, c.id));
            if !same {
                return Err("warm rows differ from the cold rows".to_owned());
            }
        }
        let wall_s = cold_s + warm_ms.iter().sum::<f64>() / 1e3;
        self.cold_rows = cold;
        self.cold_s.push(cold_s);
        self.warm_ms.extend(warm_ms);
        Ok(wall_s)
    }
}

impl Cell for SweepCell {
    fn rep(&mut self, traced: bool, rec: &mut Recorder) -> Result<(f64, Identity), String> {
        let handle = start_daemon(&self.cache_dir)?;
        let outcome = ServeClient::connect(&handle.addr().to_string())
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut client| {
                let wall_s = rec.span("rep", |rec| self.sweep(&mut client, rec))?;
                if traced {
                    let metrics = client.metrics().map_err(|e| e.to_string())?.1;
                    let stats = client.stats().map_err(|e| e.to_string())?;
                    self.daemon = Some((metrics, stats));
                }
                Ok(wall_s)
            });
        handle.shutdown();
        let wall_s = outcome?;

        let rows = &self.cold_rows;
        let instructions: u64 = rows.iter().map(|r| r.id.instructions).sum();
        if instructions != self.expect_insts {
            return Err(format!(
                "the sweep simulated {instructions} instructions, its traces ask for {}",
                self.expect_insts
            ));
        }
        let digests: Vec<u8> = rows
            .iter()
            .flat_map(|r| r.id.digest.to_le_bytes())
            .collect();
        Ok((
            wall_s,
            Identity {
                cycles: rows.iter().map(|r| r.id.cycles).sum(),
                instructions,
                digest: fnv1a64(&digests),
            },
        ))
    }

    /// Mean error of the sweep's 16 simulations against the detailed preset
    /// on the same trace and GPU: eight reference runs, done here.
    fn analyse(
        &mut self,
        _own: Identity,
        _rec: &mut Recorder,
        out: &mut Layers,
    ) -> Result<(), String> {
        let mut errors = Vec::new();
        for trace in &self.traces {
            let source = open_trace(trace).map_err(|e| e.to_string())?;
            for gpu in GPUS {
                let cfg = presets::by_name(gpu).ok_or(format!("no GPU preset {gpu}"))?;
                let options = crate::cell::run_options(SimulatorPreset::Detailed, 1);
                let reference = swiftsim_core::run(source.as_ref(), &cfg, &options)
                    .map_err(|e| e.to_string())?
                    .cycles;
                let name = trace.display().to_string();
                for row in &self.cold_rows {
                    if row.trace == name && row.gpu == cfg.name {
                        errors.push(
                            row.id.cycles.abs_diff(reference) as f64 / reference.max(1) as f64,
                        );
                    }
                }
            }
        }
        if errors.len() != self.cold_rows.len() {
            return Err(format!(
                "{} of {} sweep rows found a reference",
                errors.len(),
                self.cold_rows.len()
            ));
        }
        let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
        out.push(("core.cycles_err_pct".to_owned(), mean * 100.0));
        Ok(())
    }

    fn layers(&self, _rec: &Recorder, out: &mut Layers) {
        let mut put = |name: &str, value: f64| out.push((name.to_owned(), value));
        put(
            "serve.cold_jobs_per_s",
            self.cold_rows.len() as f64 / median(&self.cold_s).max(1e-9),
        );
        put("serve.warm_p50_ms", median(&self.warm_ms));
        if let Some(p) = tail_percentile(self.warm_ms.len()) {
            put("serve.warm_p99_ms", percentile(&self.warm_ms, p));
        }
        let Some((metrics, stats)) = &self.daemon else {
            return;
        };
        for stage in SERVE_STAGES {
            let p50_us = metrics
                .get("histograms")
                .and_then(|h| h.get(&format!("{stage}_us")))
                .and_then(|h| h.get("p50"))
                .and_then(Json::as_f64);
            if let Some(us) = p50_us {
                put(&format!("serve.{stage}_p50_ms"), us / 1e3);
            }
        }
        let number = |path: [&str; 2]| {
            stats
                .get(path[0])
                .and_then(|s| s.get(path[1]))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let hits = number(["result_cache", "hits"]);
        put("serve.cache_hits", hits);
        put(
            "serve.cache_lookups",
            hits + number(["result_cache", "misses"]),
        );
        put("serve.requeues", number(["counters", "tasks_requeued"]));
        put("serve.failed_tasks", number(["counters", "tasks_failed"]));
    }
}
