//! Experiment harness shared by the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §2 for the index). This library holds the common sweep
//! logic: run a workload through the three simulator presets, compare
//! against the silicon oracle, and aggregate the error/speedup statistics
//! the paper reports.
//!
//! Environment knobs (all optional):
//!
//! * `SWIFTSIM_SCALE` — `tiny` / `small` / `paper` (default `small`;
//!   the committed EXPERIMENTS.md numbers use `paper`).
//! * `SWIFTSIM_APPS` — comma-separated subset of workload names.
//! * `SWIFTSIM_THREADS` — worker threads for the parallel runs
//!   (default `0` = auto: all cores, capped at the GPU's SM count by the
//!   simulator builder).
//!
//! A malformed knob ends the run with an error, never a silently different
//! figure. Nothing is cached: every run simulates afresh, so wall-clock
//! columns always come from the build being run.

#![warn(unreachable_pub)]

use std::time::Duration;
use swiftsim_config::GpuConfig;
use swiftsim_core::{run, RunOptions, SimulatorPreset};
use swiftsim_metrics::{geomean, mean};
use swiftsim_workloads::{silicon, Scale, Workload};

/// Scale/threads/app-subset configuration shared by all binaries.
#[derive(Debug, Clone)]
pub struct Knobs {
    /// Workload scale.
    pub scale: Scale,
    /// Threads for parallel hybrid runs.
    pub threads: usize,
    /// Workload subset (None = full suite).
    pub apps: Option<Vec<String>>,
}

impl Knobs {
    /// Read the environment knobs; a malformed one ends the process with a
    /// non-zero status and the message from [`Knobs::parse`].
    pub fn from_env() -> Knobs {
        let var = |key: &str| std::env::var(key).ok();
        Knobs::parse(
            var("SWIFTSIM_SCALE").as_deref(),
            var("SWIFTSIM_THREADS").as_deref(),
            var("SWIFTSIM_APPS").as_deref(),
        )
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parse the three knobs (`None` = unset: `small`, 0 threads, the full
    /// suite).
    ///
    /// # Errors
    ///
    /// An unknown scale, a non-numeric thread count, or an app name that is
    /// not in [`swiftsim_workloads::suite`] (the message lists the valid
    /// names).
    pub fn parse(
        scale: Option<&str>,
        threads: Option<&str>,
        apps: Option<&str>,
    ) -> Result<Knobs, String> {
        let scale = scale.map_or(Ok(Scale::Small), |s| {
            s.parse().map_err(|e| format!("{e} in SWIFTSIM_SCALE"))
        })?;
        let threads = threads.map_or(Ok(0), |t| {
            t.parse()
                .map_err(|_| format!("invalid thread count {t:?} in SWIFTSIM_THREADS"))
        })?;
        let suite: Vec<&str> = swiftsim_workloads::suite().iter().map(|w| w.name).collect();
        let known = |a: &str| {
            if suite.contains(&a) {
                Ok(a.to_owned())
            } else {
                let valid = suite.join(", ");
                Err(format!(
                    "unknown app {a:?} in SWIFTSIM_APPS (valid: {valid})"
                ))
            }
        };
        let apps = apps
            .map(|list| {
                let names = list.split(',').map(str::trim).filter(|a| !a.is_empty());
                names.map(known).collect::<Result<Vec<_>, _>>()
            })
            .transpose()?;
        Ok(Knobs {
            scale,
            threads,
            apps,
        })
    }

    /// The workloads this run covers.
    pub fn workloads(&self) -> Vec<Workload> {
        let all = swiftsim_workloads::suite();
        match &self.apps {
            Some(filter) => all
                .into_iter()
                .filter(|w| filter.iter().any(|f| f == w.name))
                .collect(),
            None => all,
        }
    }

    /// Human-readable description for report headers.
    pub fn describe(&self) -> String {
        format!(
            "scale={:?} threads={} apps={}",
            self.scale,
            self.threads,
            self.apps
                .as_ref()
                .map_or_else(|| "all".to_owned(), |a| a.join(","))
        )
    }
}

/// One preset's measurement on one application.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Predicted execution cycles.
    pub cycles: u64,
    /// Host wall-clock time of the simulation.
    pub wall: Duration,
}

/// All measurements for one application on one GPU.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Application name.
    pub app: &'static str,
    /// Detailed baseline (the Accel-Sim stand-in), single-threaded.
    pub detailed: Measurement,
    /// Swift-Sim-Basic, single-threaded.
    pub basic_1t: Measurement,
    /// Swift-Sim-Memory, single-threaded.
    pub memory_1t: Measurement,
    /// Swift-Sim-Basic, parallel.
    pub basic_mt: Measurement,
    /// Swift-Sim-Memory, parallel.
    pub memory_mt: Measurement,
    /// The silicon oracle's "measured hardware" cycles.
    pub hardware: u64,
}

impl AppResult {
    /// Relative prediction error of a measurement against the oracle.
    pub fn error(&self, m: Measurement) -> f64 {
        swiftsim_metrics::rel_error(m.cycles as f64, self.hardware as f64)
    }

    /// Wall-clock speedup of `m` over the detailed baseline.
    pub fn speedup(&self, m: Measurement) -> f64 {
        self.detailed.wall.as_secs_f64() / m.wall.as_secs_f64().max(1e-9)
    }
}

fn run_one(
    gpu: &GpuConfig,
    preset: SimulatorPreset,
    threads: usize,
    app: &swiftsim_trace::ApplicationTrace,
) -> Measurement {
    let options = RunOptions::default()
        .with_preset(preset)
        .with_threads(threads);
    let result = run(app, gpu, &options).expect("benchmark simulation completes");
    Measurement {
        cycles: result.cycles,
        wall: result.wall_time,
    }
}

/// Run the full three-simulator sweep for one workload on one GPU.
pub fn sweep_app(gpu: &GpuConfig, workload: &Workload, knobs: &Knobs) -> AppResult {
    let app = workload.generate(knobs.scale);
    let detailed = run_one(gpu, SimulatorPreset::Detailed, 1, &app);
    let basic_1t = run_one(gpu, SimulatorPreset::SwiftBasic, 1, &app);
    let memory_1t = run_one(gpu, SimulatorPreset::SwiftMemory, 1, &app);
    let (basic_mt, memory_mt) = if knobs.threads != 1 {
        (
            run_one(gpu, SimulatorPreset::SwiftBasic, knobs.threads, &app),
            run_one(gpu, SimulatorPreset::SwiftMemory, knobs.threads, &app),
        )
    } else {
        (basic_1t, memory_1t)
    };
    let hardware = silicon::hardware_cycles(workload.name, &gpu.name, detailed.cycles);
    AppResult {
        app: workload.name,
        detailed,
        basic_1t,
        memory_1t,
        basic_mt,
        memory_mt,
        hardware,
    }
}

/// Accuracy-only sweep (Fig. 6 does not need wall-clock numbers, so the
/// parallel runs are skipped).
pub fn sweep_app_accuracy(gpu: &GpuConfig, workload: &Workload, scale: Scale) -> AppResult {
    let app = workload.generate(scale);
    let detailed = run_one(gpu, SimulatorPreset::Detailed, 1, &app);
    let basic_1t = run_one(gpu, SimulatorPreset::SwiftBasic, 1, &app);
    let memory_1t = run_one(gpu, SimulatorPreset::SwiftMemory, 1, &app);
    let hardware = silicon::hardware_cycles(workload.name, &gpu.name, detailed.cycles);
    AppResult {
        app: workload.name,
        detailed,
        basic_1t,
        memory_1t,
        basic_mt: basic_1t,
        memory_mt: memory_1t,
        hardware,
    }
}

/// Mean of a per-app statistic.
pub fn mean_of(results: &[AppResult], f: impl Fn(&AppResult) -> f64) -> f64 {
    mean(&results.iter().map(f).collect::<Vec<_>>())
}

/// Geometric mean of a per-app statistic.
pub fn geomean_of(results: &[AppResult], f: impl Fn(&AppResult) -> f64) -> f64 {
    geomean(&results.iter().map(f).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;

    fn tiny_knobs() -> Knobs {
        Knobs {
            scale: Scale::Tiny,
            threads: 1,
            apps: Some(vec!["nw".to_owned()]),
        }
    }

    #[test]
    fn sweep_produces_consistent_result() {
        let knobs = tiny_knobs();
        let mut gpu = presets::rtx2080ti();
        gpu.num_sms = 4;
        gpu.memory.partitions = 4;
        let w = &knobs.workloads()[0];
        let r = sweep_app(&gpu, w, &knobs);
        assert_eq!(r.app, "nw");
        assert!(r.detailed.cycles > 0);
        assert!(r.hardware > 0);
        assert!(r.error(r.basic_1t) >= 0.0);
        assert!(r.speedup(r.memory_1t) > 0.0);
    }

    #[test]
    fn knobs_filter_workloads() {
        let knobs = tiny_knobs();
        let ws = knobs.workloads();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].name, "nw");
        assert!(knobs.describe().contains("nw"));

        let parsed = Knobs::parse(Some("tiny"), Some("2"), Some("nw, bfs")).unwrap();
        assert_eq!((parsed.scale, parsed.threads), (Scale::Tiny, 2));
        assert_eq!(parsed.workloads().len(), 2);
        let err = Knobs::parse(None, None, Some("bsf")).unwrap_err();
        assert!(err.contains("\"bsf\"") && err.contains("bfs"), "{err}");
        let err = Knobs::parse(Some("Tiny"), None, None).unwrap_err();
        assert!(err.contains("tiny|small|paper"), "{err}");
        assert!(Knobs::parse(None, Some("two"), None).is_err());
    }

    #[test]
    fn aggregates_work() {
        let m = Measurement {
            cycles: 100,
            wall: Duration::from_millis(10),
        };
        let r = AppResult {
            app: "x",
            detailed: Measurement {
                cycles: 100,
                wall: Duration::from_millis(100),
            },
            basic_1t: m,
            memory_1t: m,
            basic_mt: m,
            memory_mt: m,
            hardware: 80,
        };
        let rs = vec![r];
        assert!((mean_of(&rs, |r| r.error(r.basic_1t)) - 0.25).abs() < 1e-12);
        assert!((geomean_of(&rs, |r| r.speedup(r.basic_1t)) - 10.0).abs() < 1e-9);
    }
}
