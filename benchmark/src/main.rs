//! The repository benchmark: trace file in, result JSON out, per simulator
//! preset, with a per-layer traced pass. See `README.md` beside this
//! package for every metric, workload and mode.
//!
//! Three kinds of process share this binary. Without `--workload` it runs
//! every workload, each in a child of its own, and writes the result ledger.
//! With `--workload` it is that child: it generates the workload's inputs
//! from the seed, times set-up, and hands the trace files to a measuring
//! process (`--cell`), whose peak memory is then the simulator's alone.

mod cell;
mod compare;
mod layers;
mod spans;
mod stats;
mod sweep;
mod workloads;

use cell::CellArgs;
use layers::per_layer_metrics;
use spans::Recorder;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use swiftsim_core::GpuSimulator;
use swiftsim_metrics::Json;
use workloads::{Input, Size, Workload, WORKLOADS};

/// End-to-end metrics: name, unit, better direction, and the share of the
/// parent's median by which a change may worsen them (`BENCHMARK.json`
/// repeats these; a test keeps the two equal).
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
];

/// How long one run measures when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 10.0;

/// Timed repetitions per run at least.
const MIN_REPS: usize = 5;

/// Set-ups per run at least; `setup_s` is their median. A set-up of a few
/// milliseconds is repeated further, until [`SETUP_SECONDS`] have passed or
/// [`SETUP_ROUNDS_MAX`] were made, because so short a time is noisy.
const SETUP_ROUNDS: usize = 7;
const SETUP_ROUNDS_MAX: usize = 40;
const SETUP_SECONDS: f64 = 1.0;

const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  swiftsim-benchmark [--seed N] [--seconds S] [--quick]
      run every workload, untraced then traced; write benchmark/out/result.json
  swiftsim-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
      run one workload; the last line of standard output is its result
  swiftsim-benchmark --compare A.json B.json
      compare two result files; exit 1 if B is worse than A";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    cell: bool,
    probe: bool,
    insts: u64,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        quick: false,
        cell: false,
        probe: false,
        insts: 0,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = number(flag, value()?)?,
            "--seconds" => args.seconds = number(flag, value()?)?,
            "--trace" => args.traced = number::<u8>(flag, value()?)? != 0,
            "--insts" => args.insts = number(flag, value()?)?,
            "--quick" => args.quick = true,
            "--cell" => args.cell = true,
            "--probe" => args.probe = true,
            "--compare" => {
                args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    Ok(args)
}

impl Args {
    fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Bench
        }
    }

    /// `--quick` checks everything and measures nothing: two repetitions,
    /// no minimum run length.
    fn min_reps(&self) -> usize {
        if self.quick {
            2
        } else {
            MIN_REPS
        }
    }
}

/// One set-up, as a user's first run pays it: GPU config parse, seeded trace
/// generation, encoding to the on-disk files, simulator construction (for
/// `serve.sweep`, daemon start). Returns the generated instruction count.
fn set_up(
    w: &Workload,
    seed: u64,
    size: Size,
    dir: &Path,
    rec: &mut Recorder,
) -> Result<u64, String> {
    rec.span("setup", |rec| {
        let cfg = rec.span("config.parse", |_| cell::parse_gpu_config())?;
        let apps = rec.span("workloads.generate", |_| {
            workloads::generate_inputs(w.input, seed, size)
        });
        rec.span("trace.encode", |_| {
            apps.iter()
                .zip(workloads::input_paths(w.input, dir))
                .try_for_each(|(app, path)| workloads::encode(app, &path))
        })?;
        if w.input == Input::Sweep {
            sweep::start_daemon(&dir.join("cache"))?.shutdown();
        } else {
            GpuSimulator::try_new(cfg, &cell::run_options(w.preset, w.threads))
                .map_err(|e| e.to_string())?;
        }
        Ok(apps.iter().map(|a| a.num_insts()).sum())
    })
}

/// The last line of a child's standard output, parsed as JSON.
fn last_json_line(stdout: &[u8]) -> Result<Json, String> {
    let text = String::from_utf8_lossy(stdout);
    let line = text.lines().rev().find(|l| !l.trim().is_empty());
    Json::parse(line.ok_or("the child printed nothing")?)
}

/// Run the measuring process and parse its document. As a memory probe
/// it does the warm-up and one repetition under a single malloc arena: with
/// glibc's per-thread arenas the peak RSS of the threaded workloads falls
/// into one of several modes 20% apart, run to run, by which arena a thread
/// happens to free into. The timed process keeps the default arenas, since
/// a single one costs `ingest.text` and `serve.sweep` a tenth of their speed.
fn spawn_cell(args: &Args, w: &Workload, insts: u64, probe: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--cell", "--workload", w.name])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .args(["--insts", &insts.to_string()])
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    if probe {
        cmd.arg("--probe").env("MALLOC_ARENA_MAX", "1");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("the measuring process ended with {}", out.status));
    }
    last_json_line(&out.stdout)
}

fn workload_dir(w: &Workload) -> PathBuf {
    Path::new(OUT_DIR).join(w.name)
}

fn numbers(json: Option<&Json>) -> Vec<f64> {
    json.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn print_summary(name: &str, unit: &str, s: &Summary) {
    println!(
        "  {name:<14}{:>12.4} {unit:<3} median of {}  q1 {:.4}  q3 {:.4}  min {:.4}  max {:.4}  spread {:.2}%",
        s.median,
        s.n,
        s.q1,
        s.q3,
        s.min,
        s.max,
        s.spread() * 100.0
    );
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Print and return the end-to-end metrics of an untraced pass.
fn end_to_end(cell: &Json, probe: &Json, setup_s: &[f64]) -> Vec<(String, Json)> {
    let count = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    let wall = Summary::of(&numbers(cell.get("wall_s")));
    let setup = Summary::of(setup_s);
    let rss_mb = count(probe, "peak_rss_kb") as f64 / 1024.0;
    print_summary("wall_s", "s", &wall);
    println!(
        "  {:<14}{:>12.4}     million simulated instructions per second of wall_s (derived)",
        "minst_per_s",
        count(cell, "instructions") as f64 / 1e6 / wall.median.max(1e-12)
    );
    println!(
        "  {:<14}{rss_mb:>12.4} MB  VmHWM of the memory probe",
        "peak_rss_mb"
    );
    print_summary("setup_s", "s", &setup);
    vec![
        ("wall_s".to_owned(), wall.to_json("s")),
        ("peak_rss_mb".to_owned(), metric(rss_mb, "MB")),
        ("setup_s".to_owned(), setup.to_json("s")),
    ]
}

/// Print and return every per-layer metric of a traced pass, and write the
/// workload's spans (this process's set-up spans and the measuring
/// process's) as Chrome trace events.
fn per_layer(
    cell: &Json,
    rec: &Recorder,
    w: &Workload,
    dir: &Path,
) -> Result<Vec<(String, Json)>, String> {
    let mut spans = rec.spans().to_vec();
    let mut layers: Vec<(String, f64)> = ["config.parse", "workloads.generate", "trace.encode"]
        .iter()
        .map(|name| {
            let ms = stats::median(&spans::durations_ms(&spans, name));
            (format!("{name}_ms"), ms)
        })
        .collect();
    if let Some(Json::Obj(pairs)) = cell.get("layers") {
        layers.extend(
            pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))),
        );
    }

    let child_epoch_us = cell
        .get("epoch_unix_us")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let shift_ns = child_epoch_us.saturating_sub(rec.epoch_unix_us()) * 1000;
    if let Some(more) = cell
        .get("spans")
        .and_then(|s| spans::spans_from_json(s, spans.len(), shift_ns))
    {
        spans.extend(more);
    }
    // One trace-viewer process per workload, so the full run can join the
    // workloads' event lists as they are.
    let pid = WORKLOADS.iter().position(|x| x.name == w.name).unwrap_or(0) as u64 + 1;
    let trace = Json::obj(vec![
        (
            "traceEvents",
            Json::Arr(spans::chrome_events(&spans, w.name, pid)),
        ),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    std::fs::write(dir.join("trace.json"), trace.dump()).map_err(|e| e.to_string())?;

    Ok(per_layer_metrics()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            println!("  {name:<34}{value:>18.4} {unit}");
            (name, metric(value, unit))
        })
        .collect())
}

/// Run one workload: set up, measure in a child, check, print. The last
/// line printed is the result object the benchmark contract asks for; the
/// fuller record goes to `benchmark/out/<workload>/detail.<trace>.json`.
fn run_workload(args: &Args, w: &'static Workload) -> Result<(), String> {
    let dir = workload_dir(w);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let size = args.size();
    println!(
        "== {} ==  seed {}, {} scale, {} pass; {}, {} thread(s); simulated caches start empty",
        w.name,
        args.seed,
        size.name(),
        if args.traced { "traced" } else { "untraced" },
        if w.input == Input::Sweep {
            "rtx3060 + rtx3090"
        } else {
            "rtx2080ti (68 SMs)"
        },
        w.threads
    );
    println!("  why: {}", w.why);

    let mut rec = Recorder::new(args.traced);
    let mut setup_s = Vec::new();
    // One untimed set-up first: the first pass over fresh heap pages costs
    // up to twice the later ones and would skew a median of seven.
    let insts = set_up(w, args.seed, size, &dir, &mut Recorder::new(false))?;
    let started = Instant::now();
    let rounds = if args.quick { 1 } else { SETUP_ROUNDS };
    while setup_s.len() < rounds
        || (!args.quick
            && started.elapsed().as_secs_f64() < SETUP_SECONDS
            && setup_s.len() < SETUP_ROUNDS_MAX)
    {
        let t0 = Instant::now();
        set_up(w, args.seed, size, &dir, &mut rec)?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let cell = spawn_cell(args, w, insts, false);
    let probe = if args.traced {
        Ok(Json::Null)
    } else {
        spawn_cell(args, w, insts, true)
    };
    // The generated traces are large and rebuilt from the seed every run.
    for path in workloads::input_paths(w.input, &dir) {
        let _ = std::fs::remove_file(path);
    }
    let (cell, probe) = (cell?, probe?);

    let count = |key: &str| cell.get(key).and_then(Json::as_u64).unwrap_or(0);
    let both = |key: &str| count(key) + probe.get(key).and_then(Json::as_u64).unwrap_or(0);
    let (attempted, failed) = (both("attempted").max(1), both("failed"));
    for doc in [&cell, &probe] {
        for error in doc.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
            println!("  FAILED: {}", error.as_str().unwrap_or("?"));
        }
    }
    let digest = cell.get("stats_digest").cloned().unwrap_or(Json::Null);
    println!(
        "  failed/attempted {failed}/{attempted}   cycles {}   instructions {}   stats_digest {}",
        count("cycles"),
        count("instructions"),
        digest.as_str().unwrap_or("?")
    );
    let metrics = if args.traced {
        per_layer(&cell, &rec, w, &dir)?
    } else {
        end_to_end(&cell, &probe, &setup_s)
    };

    let detail = Json::obj(vec![
        ("attempted", Json::int(attempted)),
        ("failed", Json::int(failed)),
        ("cycles", Json::int(count("cycles"))),
        ("instructions", Json::int(count("instructions"))),
        ("stats_digest", digest),
        (
            "wall_s_samples",
            cell.get("wall_s").cloned().unwrap_or(Json::Null),
        ),
        ("metrics", Json::Obj(metrics.clone())),
    ]);
    let pass = u8::from(args.traced);
    std::fs::write(dir.join(format!("detail.{pass}.json")), detail.dump())
        .map_err(|e| e.to_string())?;

    // The contract's result object carries value and unit only.
    let slim = metrics
        .into_iter()
        .map(|(name, m)| {
            let keep = |key: &str| (key.to_owned(), m.get(key).cloned().unwrap_or(Json::Null));
            (name, Json::Obj(vec![keep("value"), keep("unit")]))
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::int(attempted)),
        ("failed", Json::int(failed)),
        ("metrics", Json::Obj(slim)),
    ]);
    println!("{}", result.dump());
    Ok(())
}

/// Run every workload in a child process of its own, untraced then traced,
/// and gather the children's records into the result ledger and one trace.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut all_correct = true;
    let mut rows = Vec::new();
    let mut events = Vec::new();
    for w in &WORKLOADS {
        let mut row = vec![("name".to_owned(), Json::str(w.name))];
        for pass in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", pass])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            // The child prints straight to this process's output.
            let status = cmd.status().map_err(|e| format!("spawn: {e}"))?;
            if !status.success() {
                return Err(format!("{} did not run: {status}", w.name));
            }
            let path = workload_dir(w).join(format!("detail.{pass}.json"));
            let detail = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|t| Json::parse(&t))?;
            let Json::Obj(pairs) = detail else {
                return Err(format!("{}: not an object", path.display()));
            };
            for (key, value) in pairs {
                if key == "failed" {
                    all_correct &= value == Json::int(0);
                }
                match (key.as_str(), pass) {
                    ("wall_s_samples", _) => {}
                    ("metrics", "0") => row.push(("end_to_end".to_owned(), value)),
                    ("metrics", _) => row.push(("per_layer".to_owned(), value)),
                    ("attempted" | "failed", "1") => {
                        row.push((format!("traced_{key}"), value));
                    }
                    (_, "0") => row.push((key, value)),
                    _ => {}
                }
            }
        }
        let trace = std::fs::read_to_string(workload_dir(w).join("trace.json"))
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))?;
        if let Some(Json::Arr(more)) = trace.get("traceEvents") {
            events.extend(more.iter().cloned());
        }
        rows.push(Json::Obj(row));
    }

    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let bounds = END_TO_END
        .iter()
        .map(|(name, _, _, bound)| ((*name).to_owned(), Json::Num(*bound)))
        .collect();
    let result = Json::obj(vec![
        ("schema", Json::int(1)),
        ("host_cores", Json::int(cores as u64)),
        ("commit", Json::str(commit)),
        ("scale", Json::str(args.size().name())),
        ("seed", Json::int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        (
            "command",
            Json::str(
                std::iter::once("swiftsim-benchmark".to_owned())
                    .chain(std::env::args().skip(1))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        ),
        ("bounds", Json::Obj(bounds)),
        ("workloads", Json::Arr(rows)),
    ]);
    let out = Path::new(OUT_DIR);
    std::fs::write(out.join("result.json"), result.dump() + "\n").map_err(|e| e.to_string())?;
    let trace = Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    std::fs::write(out.join("trace.json"), trace.dump()).map_err(|e| e.to_string())?;
    compare::print_overview(&result);
    println!(
        "wrote {0}/result.json and {0}/trace.json in {1:.0} s{2}",
        out.display(),
        started.elapsed().as_secs_f64(),
        if args.quick {
            "; --quick checks outputs only, its numbers mean nothing"
        } else {
            ""
        }
    );
    Ok(all_correct)
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    if let Some((a, b)) = &args.compare {
        return compare::compare_files(a, b);
    }
    let Some(name) = &args.workload else {
        return run_all(&args);
    };
    let w = workloads::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; there are: {}", names.join(", "))
    })?;
    if args.cell {
        let doc = cell::run_cell(&CellArgs {
            workload: w,
            dir: workload_dir(w),
            seconds: if args.quick || args.probe {
                0.0
            } else {
                args.seconds
            },
            min_reps: if args.probe { 1 } else { args.min_reps() },
            traced: args.traced,
            expect_insts: args.insts,
        })?;
        println!("{}", doc.dump());
        return Ok(true);
    }
    // A printed result carries its own verdict; the exit code only says
    // whether there is one.
    run_workload(&args, w).map(|()| true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("swiftsim-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let args = parse_args(&strings(&[
            "--workload",
            "basic.bfs",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("basic.bfs"));
        assert_eq!((args.seed, args.seconds, args.traced), (7, 3.0, true));
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--seed", "x"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
    }

    /// `BENCHMARK.json` repeats the tables in this package; they must agree.
    #[test]
    fn benchmark_json_matches_the_source() {
        let text = std::fs::read_to_string("../BENCHMARK.json").unwrap();
        let json = Json::parse(&text).unwrap();
        let field = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_owned();
        let rows = |key: &str| json.get(key).and_then(Json::as_arr).unwrap().to_vec();

        assert_eq!(json.get("run_seconds"), Some(&Json::Num(RUN_SECONDS)));
        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|(n, u, b, bound)| ((*n).to_owned(), (*u).to_owned(), (*b).to_owned(), *bound))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_owned(), b.to_owned()))
            .collect();
        assert_eq!(listed, ours);
    }
}
