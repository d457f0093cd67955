//! The measuring process: one per workload and pass, so peak memory and
//! allocator state belong to that workload alone. It reads the trace files
//! the workload process generated, repeats the workload, checks every
//! repetition, and prints one JSON document for the workload process.

use crate::layers::{self, Layers, ProfileTotals};
use crate::spans::{self, Recorder};
use crate::stats::median;
use crate::sweep::SweepCell;
use crate::workloads::{input_paths, Input, Workload};
use std::path::PathBuf;
use std::time::Instant;
use swiftsim_config::{fnv1a64, presets, GpuConfig};
use swiftsim_core::mem_system::build_analytical_memory_for;
use swiftsim_core::{GpuSimulator, RunOptions, SimulationResult, SimulatorPreset, StatId};
use swiftsim_metrics::Json;
use swiftsim_trace::open_trace;

/// What the workload process tells its measuring child.
pub struct CellArgs {
    pub workload: &'static Workload,
    /// Directory holding the generated trace files; results go there too.
    pub dir: PathBuf,
    /// How long to keep repeating.
    pub seconds: f64,
    /// Repetitions to time at least, however long they take.
    pub min_reps: usize,
    pub traced: bool,
    /// Instructions in the generated trace, counted by the generator.
    pub expect_insts: u64,
}

/// The GPU every trace-file workload simulates, through the same text
/// round trip a user's config file takes.
pub fn parse_gpu_config() -> Result<GpuConfig, String> {
    GpuConfig::parse(&presets::rtx2080ti().to_config_text()).map_err(|e| e.to_string())
}

pub fn run_options(preset: SimulatorPreset, threads: usize) -> RunOptions {
    RunOptions::default()
        .with_preset(preset)
        .with_threads(threads)
}

/// Peak resident set of this process (`VmHWM`) in KiB; 0 where
/// `/proc/self/status` does not exist.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// FNV-1a over every catalog stat of a result, name and value bits, so two
/// commits compare bit for bit. `sim_threads` is left out: it describes
/// the host side of the run and is the one stat `basic.bfs.t2` may differ
/// from `basic.bfs` in.
pub fn stats_digest(result: &SimulationResult) -> u64 {
    let mut bytes = Vec::new();
    for (id, value) in result.stats() {
        if id != StatId::SimThreads {
            bytes.extend_from_slice(id.name().as_bytes());
            bytes.extend_from_slice(&value.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// What identifies a simulation's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Identity {
    pub cycles: u64,
    pub instructions: u64,
    pub digest: u64,
}

/// Counts attempted and failed operations and keeps the first outcome, to
/// which every later one must be identical.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub first: Option<Identity>,
}

impl Checks {
    /// Record one attempted operation; `Err` says why it failed.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                None
            }
        }
    }

    /// `Err` unless `id` equals the first identity seen (which it becomes
    /// when there is none yet).
    pub fn same_as_first(&mut self, id: Identity) -> Result<(), String> {
        match self.first {
            None => {
                self.first = Some(id);
                Ok(())
            }
            Some(first) if first == id => Ok(()),
            Some(first) => Err(format!("outcome {id:?} differs from the first, {first:?}")),
        }
    }
}

/// One workload as the measuring process repeats it.
pub trait Cell {
    /// One repetition: the seconds it took, or why it failed.
    fn rep(&mut self, traced: bool, rec: &mut Recorder) -> Result<(f64, Identity), String>;

    /// Runs before the first timed repetition that are not repetitions
    /// themselves; each is one attempted operation.
    fn before(&mut self, _checks: &mut Checks) {}

    /// One-off per-layer measurements of the traced pass; `own` is the
    /// outcome the workload's repetitions give.
    fn analyse(
        &mut self,
        own: Identity,
        rec: &mut Recorder,
        out: &mut Layers,
    ) -> Result<(), String>;

    /// Per-layer metrics gathered over the traced repetitions.
    fn layers(&self, rec: &Recorder, out: &mut Layers);
}

/// A trace-file workload: `open_trace` → `GpuSimulator::run` → result JSON
/// on disk.
struct SimCell {
    cfg: GpuConfig,
    workload: &'static Workload,
    sim: GpuSimulator,
    profiled: GpuSimulator,
    trace: PathBuf,
    result_path: PathBuf,
    expect_insts: u64,
    profile: ProfileTotals,
}

impl SimCell {
    fn new(args: &CellArgs) -> Result<SimCell, String> {
        let cfg = parse_gpu_config()?;
        let w = args.workload;
        let options = run_options(w.preset, w.threads);
        let build = |options: &RunOptions| {
            GpuSimulator::try_new(cfg.clone(), options).map_err(|e| e.to_string())
        };
        Ok(SimCell {
            sim: build(&options)?,
            profiled: build(&options.clone().with_profile(true))?,
            trace: input_paths(w.input, &args.dir).remove(0),
            result_path: args.dir.join("result.json"),
            expect_insts: args.expect_insts,
            profile: ProfileTotals::default(),
            workload: w,
            cfg,
        })
    }

    /// The repetition proper, timed from opening the trace to the result
    /// document being on disk; checked afterwards, off the clock.
    fn run_once(
        &self,
        sim: &GpuSimulator,
        rec: &mut Recorder,
    ) -> Result<(f64, SimulationResult), String> {
        let t0 = Instant::now();
        let result = rec.span("rep", |rec| -> Result<SimulationResult, String> {
            let source = rec
                .span("trace.open", |_| open_trace(&self.trace))
                .map_err(|e| e.to_string())?;
            let result = rec
                .span("core.run", |_| sim.run(source.as_ref()))
                .map_err(|e| e.to_string())?;
            rec.span("metrics.emit", |_| {
                std::fs::write(&self.result_path, result.to_json().dump())
            })
            .map_err(|e| format!("{}: {e}", self.result_path.display()))?;
            Ok(result)
        })?;
        let wall_s = t0.elapsed().as_secs_f64();

        if result.instructions() != self.expect_insts {
            return Err(format!(
                "simulated {} instructions, the trace has {}",
                result.instructions(),
                self.expect_insts
            ));
        }
        let text = std::fs::read_to_string(&self.result_path).map_err(|e| e.to_string())?;
        let back = Json::parse(&text).and_then(|j| SimulationResult::from_json(&j))?;
        if back.cycles != result.cycles {
            return Err(format!(
                "result JSON reads back {} cycles, the run gave {}",
                back.cycles, result.cycles
            ));
        }
        Ok((wall_s, result))
    }
}

fn identity(result: &SimulationResult) -> Identity {
    Identity {
        cycles: result.cycles,
        instructions: result.instructions(),
        digest: stats_digest(result),
    }
}

impl Cell for SimCell {
    fn rep(&mut self, traced: bool, rec: &mut Recorder) -> Result<(f64, Identity), String> {
        let sim = if traced { &self.profiled } else { &self.sim };
        let (wall_s, result) = self.run_once(sim, rec)?;
        if let Some(report) = &result.profile {
            self.profile.add(report, result.cycles);
        }
        Ok((wall_s, identity(&result)))
    }

    /// A multi-threaded workload first runs single-threaded: that outcome
    /// becomes the one every threaded repetition must reproduce bit for bit.
    fn before(&mut self, checks: &mut Checks) {
        if self.workload.threads > 1 {
            let outcome =
                GpuSimulator::try_new(self.cfg.clone(), &run_options(self.workload.preset, 1))
                    .map_err(|e| e.to_string())
                    .and_then(|single| self.run_once(&single, &mut Recorder::new(false)))
                    .and_then(|(_, result)| checks.same_as_first(identity(&result)));
            checks.record(outcome);
        }
    }

    fn analyse(
        &mut self,
        own: Identity,
        rec: &mut Recorder,
        out: &mut Layers,
    ) -> Result<(), String> {
        let mut put = |name: &str, value: f64| out.push((name.to_owned(), value));
        let source = open_trace(&self.trace).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let kernels = rec
            .span("trace.decode", |_| {
                (0..source.num_kernels())
                    .map(|k| source.decode_kernel(k).map(|c| c.into_owned()))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        let decode_ns = t0.elapsed().as_nanos() as f64;
        let insts: u64 = kernels.iter().map(|k| k.num_insts()).sum();
        put("trace.decode_ns_per_inst", decode_ns / insts.max(1) as f64);
        put("trace.decode_insts", insts as f64);
        let bytes = std::fs::metadata(&self.trace).map_or(0, |m| m.len());
        put("trace.file_bytes", bytes as f64);

        // The pre-pass is part of a run only under the analytical memory
        // model; elsewhere its cost is predicted, and printed, as zero.
        if self.workload.preset == SimulatorPreset::SwiftMemory {
            let all: Vec<usize> = (0..source.num_kernels()).collect();
            let t0 = Instant::now();
            rec.span("core.prepass", |_| {
                build_analytical_memory_for(&self.cfg, source.as_ref(), &all).map(drop)
            })
            .map_err(|e| e.to_string())?;
            put("core.prepass_ms", t0.elapsed().as_secs_f64() * 1e3);
        }

        let ops = layers::global_mem_ops(&kernels, self.cfg.num_sms.max(1) as usize);
        drop(kernels);
        layers::replay_substrates(&self.cfg, &ops, out);
        drop(ops);

        // Simulated-time error against the detailed preset on the same
        // trace and GPU. The detailed workload is its own reference.
        let reference = if self.workload.preset == SimulatorPreset::Detailed {
            own.cycles
        } else {
            let detailed =
                GpuSimulator::try_new(self.cfg.clone(), &run_options(SimulatorPreset::Detailed, 1))
                    .map_err(|e| e.to_string())?;
            detailed
                .run(source.as_ref())
                .map_err(|e| e.to_string())?
                .cycles
        };
        out.push((
            "core.cycles_err_pct".to_owned(),
            own.cycles.abs_diff(reference) as f64 / reference.max(1) as f64 * 100.0,
        ));
        Ok(())
    }

    fn layers(&self, rec: &Recorder, out: &mut Layers) {
        let span_ms = |name: &str| median(&spans::durations_ms(rec.spans(), name));
        out.push(("trace.open_ms".to_owned(), span_ms("trace.open")));
        out.push(("core.run_ms".to_owned(), span_ms("core.run")));
        out.push(("metrics.emit_ms".to_owned(), span_ms("metrics.emit")));
        self.profile.emit(out);
        out.push((
            "core.unattributed_ms".to_owned(),
            span_ms("core.run") - self.profile.attributed_ms_per_run(),
        ));
    }
}

fn build_cell(args: &CellArgs) -> Result<Box<dyn Cell>, String> {
    Ok(match args.workload.input {
        Input::Sweep => Box::new(SweepCell::new(&args.dir, args.expect_insts)?),
        _ => Box::new(SimCell::new(args)?),
    })
}

/// One checked repetition: its seconds if it ran and gave the first
/// repetition's outcome. Counts as one attempted operation.
fn checked_rep(
    cell: &mut dyn Cell,
    traced: bool,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Option<f64> {
    let outcome = cell
        .rep(traced, rec)
        .and_then(|(wall_s, id)| checks.same_as_first(id).map(|()| wall_s));
    checks.record(outcome)
}

/// Repeat until `seconds` have passed and `min_reps` repetitions were
/// timed. Returns the seconds of every repetition that passed its checks.
/// The traced pass alternates an untraced with a traced repetition and
/// returns both sample lists, so the two are measured under the same
/// conditions.
fn repeat(
    cell: &mut dyn Cell,
    args: &CellArgs,
    seconds: f64,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> (Vec<f64>, Vec<f64>) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut off = Recorder::new(false);
    let started = Instant::now();
    let mut rounds = 0;
    // A workload that fails every time still ends: after four times the
    // repetitions asked for, time alone decides.
    while (plain.len() < args.min_reps && rounds < 4 * args.min_reps)
        || started.elapsed().as_secs_f64() < seconds
    {
        rounds += 1;
        plain.extend(checked_rep(cell, false, &mut off, checks));
        if args.traced {
            traced.extend(checked_rep(cell, true, rec, checks));
        }
    }
    (plain, traced)
}

/// Measure one workload and return the document for the workload process.
pub fn run_cell(args: &CellArgs) -> Result<Json, String> {
    let mut cell = build_cell(args)?;
    let mut checks = Checks::default();
    let mut rec = Recorder::new(args.traced);
    let mut layers = Layers::new();

    cell.before(&mut checks);
    // One untimed repetition lets lazy set-up finish and page in the files.
    checked_rep(cell.as_mut(), false, &mut Recorder::new(false), &mut checks);

    let started = Instant::now();
    if args.traced {
        let analysed = cell.analyse(checks.first.unwrap_or_default(), &mut rec, &mut layers);
        checks.record(analysed);
    }
    // The one-off analyses come out of the traced pass's time.
    let seconds = (args.seconds - started.elapsed().as_secs_f64()).max(0.0);
    let (plain, traced) = repeat(cell.as_mut(), args, seconds, &mut rec, &mut checks);

    let id = checks.first.unwrap_or_default();
    let mut doc = vec![
        ("attempted", Json::int(checks.attempted)),
        ("failed", Json::int(checks.failed)),
        (
            "errors",
            Json::Arr(checks.errors.iter().map(Json::str).collect()),
        ),
        (
            "wall_s",
            Json::Arr(plain.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("cycles", Json::int(id.cycles)),
        ("instructions", Json::int(id.instructions)),
        ("stats_digest", Json::str(format!("{:016x}", id.digest))),
        ("peak_rss_kb", Json::int(peak_rss_kb())),
    ];
    if args.traced {
        cell.layers(&rec, &mut layers);
        let (plain_s, traced_s) = (median(&plain), median(&traced));
        if plain_s > 0.0 {
            layers.push((
                "bench.trace_overhead_pct".to_owned(),
                (traced_s - plain_s) / plain_s * 100.0,
            ));
        }
        layers.push(("core.cycles".to_owned(), id.cycles as f64));
        layers.push((
            "core.stats_digest48".to_owned(),
            (id.digest & ((1 << 48) - 1)) as f64,
        ));
        doc.push((
            "layers",
            Json::Obj(layers.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
        ));
        doc.push(("epoch_unix_us", Json::int(rec.epoch_unix_us())));
        doc.push(("spans", spans::spans_to_json(rec.spans())));
    }
    Ok(Json::obj(doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate_inputs, Size};

    fn run(preset: SimulatorPreset, threads: usize) -> SimulationResult {
        let app = generate_inputs(Input::Bfs, 1, Size::Quick).remove(0);
        swiftsim_core::run(&app, &presets::rtx2080ti(), &run_options(preset, threads)).unwrap()
    }

    #[test]
    fn digest_is_stable_across_runs_and_differs_across_presets() {
        let basic = stats_digest(&run(SimulatorPreset::SwiftBasic, 1));
        assert_eq!(basic, stats_digest(&run(SimulatorPreset::SwiftBasic, 1)));
        assert_ne!(basic, stats_digest(&run(SimulatorPreset::Detailed, 1)));
        assert_ne!(basic, stats_digest(&run(SimulatorPreset::SwiftMemory, 1)));
    }

    #[test]
    fn digest_ignores_the_thread_count() {
        let one = run(SimulatorPreset::SwiftBasic, 1);
        let two = run(SimulatorPreset::SwiftBasic, 2);
        assert_eq!(one.cycles, two.cycles);
        assert_eq!(stats_digest(&one), stats_digest(&two));
    }

    #[test]
    fn checks_count_failures_and_pin_the_first_identity() {
        let mut checks = Checks::default();
        let a = Identity {
            cycles: 10,
            instructions: 5,
            digest: 1,
        };
        let first = checks.same_as_first(a);
        assert_eq!(checks.record(first), Some(()));
        let again = checks.same_as_first(a);
        assert_eq!(checks.record(again), Some(()));
        let differs = checks.same_as_first(Identity { cycles: 11, ..a });
        assert_eq!(checks.record(differs), None);
        assert_eq!((checks.attempted, checks.failed), (3, 1));
        assert_eq!(checks.first, Some(a));
        assert_eq!(checks.errors.len(), 1);
    }
}
