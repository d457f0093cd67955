//! The hardware-validation harness (ROADMAP item 4).
//!
//! Swift-Sim's headline claim is accuracy-per-speed: hybrid presets that
//! stay near the detailed model's fidelity while running orders of
//! magnitude faster (§IV of the paper). The speed half is timed by the
//! repository benchmark (`benchmark/`) and tripwired by
//! `crates/bench/tests/speed_gates.rs`; this crate is the fidelity half.
//! It runs every fidelity preset across the workload suite, correlates
//! each preset's predictions against the silicon oracle
//! ([`swiftsim_workloads::silicon`], which emits per-stat expectations —
//! cycles, IPC, cache miss rates, DRAM traffic), and reports, per
//! (preset × GPU × stat):
//!
//! * **MAPE** — mean absolute percentage error across applications;
//! * **Pearson** and **Spearman rank** correlation — does the preset
//!   *order* applications the way silicon does, even where its absolute
//!   numbers drift;
//! * a **worst-offender table** — the applications contributing the most
//!   error, which is where model debugging starts.
//!
//! Predictions are consumed exclusively through the typed stat catalog
//! ([`swiftsim_core::StatId`], [`SimulationResult::stats`]) — never by
//! string-matching into the metrics collector — so a renamed stat breaks
//! the build or the load, not the accuracy numbers.
//!
//! The report serializes as `BENCH_accuracy.json`
//! ([`ValidationReport::to_json`], schema-versioned) and is enforced by
//! checked-in thresholds ([`Thresholds`]): the CI `accuracy-gate` job
//! fails when any preset's per-stat MAPE drifts past its stored bound.
//! Thresholds are updated deliberately (regenerate, review the diff,
//! commit), never silently. An Accel-Sim-style stat file can replace the
//! silicon oracle ([`parse_accelsim_stats`]) when real reference data is
//! available.
//!
//! [`SimulationResult::stats`]: swiftsim_core::SimulationResult::stats

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::collections::BTreeMap;
use swiftsim_config::{presets, GpuConfig};
use swiftsim_core::{RunOptions, SimulationResult, SimulatorPreset, StatId};
use swiftsim_metrics::{mean, pearson, spearman, Json, Table};
use swiftsim_workloads::{silicon, Scale, Workload};

/// Version tag embedded in every serialized accuracy report.
///
/// v1: initial schema — per-(preset × GPU) stat tables with MAPE,
/// Pearson, Spearman, and worst offenders.
pub const ACCURACY_SCHEMA_VERSION: u64 = 1;

/// The statistics the harness validates: exactly the per-stat
/// expectations the silicon oracle emits (cycles, IPC, L1/L2 miss rates,
/// DRAM traffic). Every preset produces all of them — the analytical
/// memory model reports estimated hierarchy statistics for this purpose.
pub const VALIDATED_STATS: &[StatId] = &[
    StatId::Cycles,
    StatId::Ipc,
    StatId::L1MissRate,
    StatId::L2MissRate,
    StatId::DramReads,
    StatId::DramWrites,
];

/// Where the "measured hardware" reference values come from.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleSource {
    /// The deterministic silicon oracle: the detailed baseline's per-stat
    /// predictions perturbed by per-(app, GPU, stat) lognormal factors
    /// (see [`swiftsim_workloads::silicon`]).
    Silicon,
    /// Imported measurements, keyed by `(app, stat name)` — e.g. parsed
    /// from an Accel-Sim-style stat file with [`parse_accelsim_stats`].
    Imported(BTreeMap<(String, String), f64>),
}

impl OracleSource {
    fn token(&self) -> &'static str {
        match self {
            OracleSource::Silicon => "silicon",
            OracleSource::Imported(_) => "imported",
        }
    }
}

/// What to validate and how.
#[derive(Debug, Clone)]
pub struct ValidateOptions {
    /// Workload scale (determinism makes accuracy numbers exactly
    /// reproducible per scale; thresholds record the scale they bound).
    pub scale: Scale,
    /// Application subset; `None` runs the full 20-app suite.
    pub apps: Option<Vec<String>>,
    /// GPU configurations to validate on.
    pub gpus: Vec<GpuConfig>,
    /// Fidelity presets to validate.
    pub presets: Vec<SimulatorPreset>,
    /// Worker threads per simulation (1 keeps runs bit-reproducible
    /// across hosts with different core counts).
    pub threads: usize,
    /// Worst offenders kept per stat.
    pub top_offenders: usize,
    /// Multiplier applied to every predicted stat — 1.0 for real
    /// validation. The CI accuracy-gate's self-test sets it ≠ 1.0 to
    /// inject fidelity drift and prove the gate actually fails.
    pub drift: f64,
    /// Reference-value source.
    pub oracle: OracleSource,
}

impl Default for ValidateOptions {
    /// Full suite on the RTX 2080 Ti, all three presets, tiny scale.
    fn default() -> Self {
        ValidateOptions {
            scale: Scale::Tiny,
            apps: None,
            gpus: vec![presets::rtx2080ti()],
            presets: vec![
                SimulatorPreset::Detailed,
                SimulatorPreset::SwiftBasic,
                SimulatorPreset::SwiftMemory,
            ],
            threads: 1,
            top_offenders: 3,
            drift: 1.0,
            oracle: OracleSource::Silicon,
        }
    }
}

/// One application's contribution to a stat's error, for the
/// worst-offender table.
#[derive(Debug, Clone, PartialEq)]
pub struct Offender {
    /// Application name.
    pub app: String,
    /// The preset's (possibly drift-injected) prediction.
    pub predicted: f64,
    /// The oracle's expectation.
    pub expected: f64,
    /// `|predicted - expected| / |expected|`.
    pub rel_error: f64,
}

/// Accuracy of one statistic for one (preset × GPU), across applications.
#[derive(Debug, Clone, PartialEq)]
pub struct StatAccuracy {
    /// The validated statistic.
    pub stat: StatId,
    /// Applications with both a prediction and a nonzero expectation.
    pub n: usize,
    /// Applications skipped (missing prediction or zero expectation).
    pub skipped: usize,
    /// Mean absolute percentage error across the `n` applications.
    pub mape: f64,
    /// Pearson correlation of (predicted, expected) across applications.
    pub pearson: f64,
    /// Spearman rank correlation of (predicted, expected).
    pub spearman: f64,
    /// The worst applications by relative error, descending.
    pub worst: Vec<Offender>,
}

/// Accuracy of one preset on one GPU: a [`StatAccuracy`] per validated
/// stat, in [`VALIDATED_STATS`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct PresetAccuracy {
    /// Preset label ([`SimulatorPreset::label`]).
    pub preset: String,
    /// GPU configuration name.
    pub gpu: String,
    /// Per-stat accuracy tables.
    pub stats: Vec<StatAccuracy>,
}

impl PresetAccuracy {
    /// This preset's MAPE for one stat, if validated.
    pub fn mape_of(&self, stat: StatId) -> Option<f64> {
        self.stats.iter().find(|s| s.stat == stat).map(|s| s.mape)
    }

    /// Mean MAPE across the validated stats.
    pub fn mean_mape(&self) -> f64 {
        mean(&self.stats.iter().map(|s| s.mape).collect::<Vec<_>>())
    }
}

/// The full accuracy report: one [`PresetAccuracy`] per (preset × GPU).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Workload scale token (`tiny`/`small`/`paper`).
    pub scale: String,
    /// Oracle token (`silicon`/`imported`).
    pub oracle: String,
    /// Applications validated, in suite order.
    pub apps: Vec<String>,
    /// Per-(preset × GPU) tables, presets × GPUs in option order.
    pub presets: Vec<PresetAccuracy>,
}

fn resolve_apps(apps: &Option<Vec<String>>) -> Result<Vec<Workload>, String> {
    let suite = swiftsim_workloads::suite();
    match apps {
        None => Ok(suite),
        Some(names) => names
            .iter()
            .map(|name| {
                suite
                    .iter()
                    .find(|w| w.name == name)
                    .cloned()
                    .ok_or_else(|| format!("unknown workload {name:?}"))
            })
            .collect(),
    }
}

/// Compute one stat's accuracy table from `(app, predicted, expected)`
/// triples. Applications with a zero expectation are skipped (MAPE is
/// undefined there), counted in [`StatAccuracy::skipped`].
pub fn stat_accuracy(
    stat: StatId,
    triples: &[(String, Option<f64>, Option<f64>)],
    top_offenders: usize,
) -> StatAccuracy {
    let mut pairs = Vec::new();
    let mut offenders = Vec::new();
    let mut skipped = 0usize;
    for (app, predicted, expected) in triples {
        match (predicted, expected) {
            (Some(p), Some(e)) if *e != 0.0 => {
                let rel = ((p - e) / e).abs();
                pairs.push((*p, *e));
                offenders.push(Offender {
                    app: app.clone(),
                    predicted: *p,
                    expected: *e,
                    rel_error: rel,
                });
            }
            _ => skipped += 1,
        }
    }
    let mape = mean(&offenders.iter().map(|o| o.rel_error).collect::<Vec<_>>());
    let r = pearson(&pairs);
    let rho = spearman(&pairs);
    offenders.sort_by(|a, b| {
        b.rel_error
            .partial_cmp(&a.rel_error)
            .expect("finite errors")
            .then_with(|| a.app.cmp(&b.app))
    });
    offenders.truncate(top_offenders);
    StatAccuracy {
        stat,
        n: pairs.len(),
        skipped,
        mape,
        pearson: r,
        spearman: rho,
        worst: offenders,
    }
}

/// Run the validation harness: simulate every (preset × GPU × app),
/// correlate each preset's typed stats against the oracle, and build the
/// accuracy report.
///
/// Deterministic end to end — traces, simulators, and the silicon oracle
/// are all seeded — so two runs at the same options produce byte-identical
/// reports, which is what makes exact MAPE thresholds enforceable in CI.
///
/// # Errors
///
/// Returns a message for an unknown workload name or a simulation
/// failure.
pub fn run_validation(options: &ValidateOptions) -> Result<ValidationReport, String> {
    let workloads = resolve_apps(&options.apps)?;
    if workloads.is_empty() {
        return Err("no applications selected".to_owned());
    }
    let mut report = ValidationReport {
        scale: options.scale.token().to_owned(),
        oracle: options.oracle.token().to_owned(),
        apps: workloads.iter().map(|w| w.name.to_owned()).collect(),
        presets: Vec::new(),
    };

    for gpu in &options.gpus {
        // The detailed baseline anchors the silicon oracle: its per-stat
        // predictions, perturbed deterministically, are the "measured"
        // values every preset (including the baseline itself) is scored
        // against.
        let mut baseline: BTreeMap<&str, SimulationResult> = BTreeMap::new();
        for w in &workloads {
            baseline.insert(w.name, run_one(w, gpu, SimulatorPreset::Detailed, options)?);
        }
        let expected = |app: &str, stat: StatId| -> Option<f64> {
            match &options.oracle {
                OracleSource::Silicon => baseline[app]
                    .stat(stat)
                    .map(|v| silicon::hardware_stat(app, &gpu.name, stat.name(), v)),
                OracleSource::Imported(map) => {
                    map.get(&(app.to_owned(), stat.name().to_owned())).copied()
                }
            }
        };

        for &preset in &options.presets {
            let mut predictions: BTreeMap<&str, SimulationResult> = BTreeMap::new();
            for w in &workloads {
                let result = if preset == SimulatorPreset::Detailed {
                    baseline[w.name].clone()
                } else {
                    run_one(w, gpu, preset, options)?
                };
                predictions.insert(w.name, result);
            }
            let mut stats = Vec::new();
            for &stat in VALIDATED_STATS {
                let triples: Vec<(String, Option<f64>, Option<f64>)> = workloads
                    .iter()
                    .map(|w| {
                        (
                            w.name.to_owned(),
                            predictions[w.name].stat(stat).map(|v| v * options.drift),
                            expected(w.name, stat),
                        )
                    })
                    .collect();
                stats.push(stat_accuracy(stat, &triples, options.top_offenders));
            }
            report.presets.push(PresetAccuracy {
                preset: preset.label().to_owned(),
                gpu: gpu.name.clone(),
                stats,
            });
        }
    }
    Ok(report)
}

fn run_one(
    w: &Workload,
    gpu: &GpuConfig,
    preset: SimulatorPreset,
    options: &ValidateOptions,
) -> Result<SimulationResult, String> {
    let app = w.generate(options.scale);
    let run_options = RunOptions::default()
        .with_preset(preset)
        .with_threads(options.threads);
    swiftsim_core::run(&app, gpu, &run_options)
        .map_err(|e| format!("{} on {} with {}: {e}", w.name, gpu.name, preset.label()))
}

impl StatAccuracy {
    /// Serialize to the accuracy-report schema.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("stat", Json::str(self.stat.name())),
            ("unit", Json::str(self.stat.unit().token())),
            ("n", Json::int(self.n as u64)),
            ("skipped", Json::int(self.skipped as u64)),
            ("mape", Json::Num(self.mape)),
            ("pearson", Json::Num(self.pearson)),
            ("spearman", Json::Num(self.spearman)),
            (
                "worst",
                Json::Arr(
                    self.worst
                        .iter()
                        .map(|o| {
                            Json::obj(vec![
                                ("app", Json::str(&o.app)),
                                ("predicted", Json::Num(o.predicted)),
                                ("expected", Json::Num(o.expected)),
                                ("rel_error", Json::Num(o.rel_error)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Result<StatAccuracy, String> {
        let name = json
            .get("stat")
            .and_then(Json::as_str)
            .ok_or("stat entry: missing stat")?;
        let stat = StatId::from_name(name).map_err(|e| e.to_string())?;
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("stat {name}: missing {key}"))
        };
        let worst = json
            .get("worst")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|o| {
                Ok(Offender {
                    app: o
                        .get("app")
                        .and_then(Json::as_str)
                        .ok_or("offender: missing app")?
                        .to_owned(),
                    predicted: o
                        .get("predicted")
                        .and_then(Json::as_f64)
                        .ok_or("offender: missing predicted")?,
                    expected: o
                        .get("expected")
                        .and_then(Json::as_f64)
                        .ok_or("offender: missing expected")?,
                    rel_error: o
                        .get("rel_error")
                        .and_then(Json::as_f64)
                        .ok_or("offender: missing rel_error")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(StatAccuracy {
            stat,
            n: num("n")? as usize,
            skipped: num("skipped")? as usize,
            mape: num("mape")?,
            pearson: num("pearson")?,
            spearman: num("spearman")?,
            worst,
        })
    }
}

impl ValidationReport {
    /// Serialize to the `BENCH_accuracy.json` schema (deterministic field
    /// order; two identical runs dump byte-identical documents).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::int(ACCURACY_SCHEMA_VERSION)),
            ("scale", Json::str(&self.scale)),
            ("oracle", Json::str(&self.oracle)),
            ("apps", Json::Arr(self.apps.iter().map(Json::str).collect())),
            (
                "presets",
                Json::Arr(
                    self.presets
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("preset", Json::str(&p.preset)),
                                ("gpu", Json::str(&p.gpu)),
                                ("mean_mape", Json::Num(p.mean_mape())),
                                (
                                    "stats",
                                    Json::Arr(p.stats.iter().map(StatAccuracy::to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuild a report from [`ValidationReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field, a schema
    /// mismatch, or an unknown stat name (the typed catalog's load-time
    /// guard).
    pub fn from_json(json: &Json) -> Result<ValidationReport, String> {
        let schema = json.get("schema").and_then(Json::as_u64).unwrap_or(0);
        if schema != ACCURACY_SCHEMA_VERSION {
            return Err(format!(
                "accuracy schema {schema} (this build reads {ACCURACY_SCHEMA_VERSION})"
            ));
        }
        let str_arr = |key: &str| -> Result<Vec<String>, String> {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("report: missing {key}"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("report: non-string {key} entry"))
                })
                .collect()
        };
        let presets = json
            .get("presets")
            .and_then(Json::as_arr)
            .ok_or("report: missing presets")?
            .iter()
            .map(|p| {
                Ok(PresetAccuracy {
                    preset: p
                        .get("preset")
                        .and_then(Json::as_str)
                        .ok_or("preset entry: missing preset")?
                        .to_owned(),
                    gpu: p
                        .get("gpu")
                        .and_then(Json::as_str)
                        .ok_or("preset entry: missing gpu")?
                        .to_owned(),
                    stats: p
                        .get("stats")
                        .and_then(Json::as_arr)
                        .ok_or("preset entry: missing stats")?
                        .iter()
                        .map(StatAccuracy::from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ValidationReport {
            scale: json
                .get("scale")
                .and_then(Json::as_str)
                .ok_or("report: missing scale")?
                .to_owned(),
            oracle: json
                .get("oracle")
                .and_then(Json::as_str)
                .ok_or("report: missing oracle")?
                .to_owned(),
            apps: str_arr("apps")?,
            presets,
        })
    }

    /// Render the figure-style accuracy tables (one per preset × GPU).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.presets {
            out.push_str(&format!(
                "{} on {} ({} apps, {} scale, {} oracle)\n",
                p.preset,
                p.gpu,
                self.apps.len(),
                self.scale,
                self.oracle
            ));
            let mut t = Table::new(vec![
                "Stat",
                "N",
                "MAPE %",
                "Pearson",
                "Spearman",
                "Worst app",
                "Worst err %",
            ]);
            for s in &p.stats {
                let (worst_app, worst_err) = s
                    .worst
                    .first()
                    .map(|o| (o.app.clone(), format!("{:.1}", 100.0 * o.rel_error)))
                    .unwrap_or_else(|| ("-".to_owned(), "-".to_owned()));
                t.row(vec![
                    s.stat.name().to_owned(),
                    s.n.to_string(),
                    format!("{:.1}", 100.0 * s.mape),
                    format!("{:.3}", s.pearson),
                    format!("{:.3}", s.spearman),
                    worst_app,
                    worst_err,
                ]);
            }
            out.push_str(&t.to_string());
            out.push_str(&format!("mean MAPE: {:.1}%\n\n", 100.0 * p.mean_mape()));
        }
        out
    }
}

/// Checked-in accuracy bounds: the CI gate fails when a fresh report's
/// MAPE exceeds a stored bound, or when a bounded (preset × GPU × stat)
/// entry is missing from the report.
///
/// The file records the exact validation configuration (scale, apps,
/// GPUs, presets) so the gate re-runs the same deterministic suite the
/// bounds were measured on. Regenerate with
/// `swiftsim validate ... --write-thresholds <FILE>`, review the diff,
/// and commit — bounds change deliberately, never silently.
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    /// Scale token the bounds were measured at.
    pub scale: String,
    /// Application subset (empty = full suite).
    pub apps: Vec<String>,
    /// GPU names to validate on.
    pub gpus: Vec<String>,
    /// Preset labels to validate.
    pub presets: Vec<String>,
    /// `"preset|gpu|stat"` → maximum allowed MAPE.
    pub max_mape: BTreeMap<String, f64>,
}

fn threshold_key(preset: &str, gpu: &str, stat: StatId) -> String {
    format!("{preset}|{gpu}|{}", stat.name())
}

impl Thresholds {
    /// Derive bounds from a measured report: each (preset × GPU × stat)
    /// MAPE plus `slack` absolute margin. The margin absorbs deliberate
    /// small model adjustments; anything larger is exactly the drift the
    /// gate exists to catch.
    pub fn from_report(report: &ValidationReport, slack: f64) -> Thresholds {
        let mut max_mape = BTreeMap::new();
        let mut gpus = Vec::new();
        let mut presets = Vec::new();
        for p in &report.presets {
            if !gpus.contains(&p.gpu) {
                gpus.push(p.gpu.clone());
            }
            if !presets.contains(&p.preset) {
                presets.push(p.preset.clone());
            }
            for s in &p.stats {
                max_mape.insert(threshold_key(&p.preset, &p.gpu, s.stat), s.mape + slack);
            }
        }
        Thresholds {
            scale: report.scale.clone(),
            apps: report.apps.clone(),
            gpus,
            presets,
            max_mape,
        }
    }

    /// The validation options that reproduce the bounded suite.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown scale, GPU, or preset label.
    pub fn to_options(&self) -> Result<ValidateOptions, String> {
        let gpus = self
            .gpus
            .iter()
            .map(|name| {
                presets::by_name(name).ok_or_else(|| format!("unknown GPU {name:?} in thresholds"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let preset_kinds = self
            .presets
            .iter()
            .map(|label| label.parse::<SimulatorPreset>().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ValidateOptions {
            scale: self.scale.parse()?,
            apps: if self.apps.is_empty() {
                None
            } else {
                Some(self.apps.clone())
            },
            gpus,
            presets: preset_kinds,
            ..ValidateOptions::default()
        })
    }

    /// Check a report against the bounds. Returns one human-readable
    /// violation per exceeded or missing entry; empty means the gate
    /// passes.
    pub fn check(&self, report: &ValidationReport) -> Vec<String> {
        let mut violations = Vec::new();
        for (key, &bound) in &self.max_mape {
            let mut parts = key.splitn(3, '|');
            let (Some(preset), Some(gpu), Some(stat_name)) =
                (parts.next(), parts.next(), parts.next())
            else {
                violations.push(format!("malformed threshold key {key:?}"));
                continue;
            };
            let stat = match StatId::from_name(stat_name) {
                Ok(s) => s,
                Err(e) => {
                    violations.push(format!("threshold {key}: {e}"));
                    continue;
                }
            };
            let entry = report
                .presets
                .iter()
                .find(|p| p.preset == preset && p.gpu == gpu)
                .and_then(|p| p.mape_of(stat));
            match entry {
                None => violations.push(format!(
                    "{preset} on {gpu}: stat {stat_name} missing from the report \
                     (bound {:.1}%)",
                    100.0 * bound
                )),
                Some(mape) if mape > bound => violations.push(format!(
                    "{preset} on {gpu}: {stat_name} MAPE {:.2}% exceeds the stored \
                     bound {:.2}% — fidelity drift; investigate before re-baselining",
                    100.0 * mape,
                    100.0 * bound
                )),
                Some(_) => {}
            }
        }
        violations
    }

    /// Serialize to the checked-in thresholds file format.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::int(ACCURACY_SCHEMA_VERSION)),
            ("scale", Json::str(&self.scale)),
            ("apps", Json::Arr(self.apps.iter().map(Json::str).collect())),
            ("gpus", Json::Arr(self.gpus.iter().map(Json::str).collect())),
            (
                "presets",
                Json::Arr(self.presets.iter().map(Json::str).collect()),
            ),
            (
                "max_mape",
                Json::Obj(
                    self.max_mape
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuild thresholds from [`Thresholds::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(json: &Json) -> Result<Thresholds, String> {
        let schema = json.get("schema").and_then(Json::as_u64).unwrap_or(0);
        if schema != ACCURACY_SCHEMA_VERSION {
            return Err(format!(
                "thresholds schema {schema} (this build reads {ACCURACY_SCHEMA_VERSION})"
            ));
        }
        let str_arr = |key: &str| -> Result<Vec<String>, String> {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("thresholds: missing {key}"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("thresholds: non-string {key} entry"))
                })
                .collect()
        };
        let max_mape = match json.get("max_mape") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("thresholds: non-numeric bound for {k}"))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err("thresholds: missing max_mape".to_owned()),
        };
        Ok(Thresholds {
            scale: json
                .get("scale")
                .and_then(Json::as_str)
                .ok_or("thresholds: missing scale")?
                .to_owned(),
            apps: str_arr("apps")?,
            gpus: str_arr("gpus")?,
            presets: str_arr("presets")?,
            max_mape,
        })
    }
}

/// Parse an Accel-Sim-style aggregated stat file into the `(app, stat)`
/// map an [`OracleSource::Imported`] oracle consumes.
///
/// The format is the one Accel-Sim's job-launching scripts aggregate to:
/// application sections introduced by a dashed header naming the app,
/// followed by `stat = value` lines:
///
/// ```text
/// ---------- bfs ----------
/// gpu_tot_sim_cycle = 1834500
/// l1_miss_rate = 0.41
/// ```
///
/// Well-known Accel-Sim stat names are aliased to catalog names
/// (`gpu_tot_sim_cycle` → `cycles`, `gpu_tot_ipc` → `ipc`,
/// `gpu_tot_sim_insn` → `instructions`, `l1d_miss_rate` → `l1_miss_rate`,
/// `L2_total_miss_rate` → `l2_miss_rate`, `total_dram_reads` →
/// `dram_reads`, `total_dram_writes` → `dram_writes`); any other name
/// must already be a catalog name — unknown names are load-time errors,
/// same as everywhere else the catalog is consumed.
///
/// # Errors
///
/// Returns a message naming the offending line: a stat outside a section,
/// an unparsable value, or an unknown stat name.
pub fn parse_accelsim_stats(text: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let mut out = BTreeMap::new();
    let mut app: Option<String> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('-') {
            let name = line.trim_matches('-').trim();
            if name.is_empty() {
                return Err(format!("line {lineno}: section header names no app"));
            }
            app = Some(name.to_owned());
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {lineno}: expected `stat = value`, got {line:?}"
            ));
        };
        let app = app
            .as_ref()
            .ok_or_else(|| format!("line {lineno}: stat before any app section header"))?;
        let key = match key.trim() {
            "gpu_tot_sim_cycle" => "cycles",
            "gpu_tot_ipc" => "ipc",
            "gpu_tot_sim_insn" => "instructions",
            "l1d_miss_rate" => "l1_miss_rate",
            "L2_total_miss_rate" => "l2_miss_rate",
            "total_dram_reads" => "dram_reads",
            "total_dram_writes" => "dram_writes",
            other => other,
        };
        let stat = StatId::from_name(key).map_err(|e| format!("line {lineno}: {e}"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("line {lineno}: unparsable value {:?}", value.trim()))?;
        out.insert((app.clone(), stat.name().to_owned()), value);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_accuracy_on_a_hand_computed_fixture() {
        // apps a,b,c: predicted [110, 180, 330], expected [100, 200, 300]
        // → rel errors [0.10, 0.10, 0.10], MAPE = 0.10.
        let triples = vec![
            ("a".to_owned(), Some(110.0), Some(100.0)),
            ("b".to_owned(), Some(180.0), Some(200.0)),
            ("c".to_owned(), Some(330.0), Some(300.0)),
        ];
        let acc = stat_accuracy(StatId::Cycles, &triples, 2);
        assert_eq!(acc.n, 3);
        assert_eq!(acc.skipped, 0);
        assert!((acc.mape - 0.10).abs() < 1e-12, "{}", acc.mape);
        // Hand-computed Pearson over (110,100),(180,200),(330,300):
        // sxy = 22000, sxx = 75800/3, syy = 20000 → r = 22000/√(sxx·syy).
        let r = 22000.0 / ((75800.0f64 / 3.0) * 20000.0).sqrt();
        assert!((acc.pearson - r).abs() < 1e-12, "{}", acc.pearson);
        // Both sides rank identically → Spearman exactly 1.
        assert!((acc.spearman - 1.0).abs() < 1e-12);
        // Offenders are tied at 0.10; ties break by app name.
        assert_eq!(acc.worst.len(), 2);
        assert_eq!(acc.worst[0].app, "a");

        // Zero expectations and missing predictions are skipped, not
        // folded in as zeros.
        let sparse = vec![
            ("a".to_owned(), Some(110.0), Some(100.0)),
            ("b".to_owned(), None, Some(200.0)),
            ("c".to_owned(), Some(3.0), Some(0.0)),
            ("d".to_owned(), Some(150.0), Some(100.0)),
        ];
        let acc = stat_accuracy(StatId::DramReads, &sparse, 3);
        assert_eq!(acc.n, 2);
        assert_eq!(acc.skipped, 2);
        assert!((acc.mape - 0.30).abs() < 1e-12);
        assert_eq!(acc.worst[0].app, "d");
        assert!((acc.worst[0].rel_error - 0.5).abs() < 1e-12);
    }

    #[test]
    fn thresholds_round_trip_and_gate_math() {
        let report = ValidationReport {
            scale: "tiny".to_owned(),
            oracle: "silicon".to_owned(),
            apps: vec!["bfs".to_owned()],
            presets: vec![PresetAccuracy {
                preset: "detailed-baseline".to_owned(),
                gpu: "RTX 2080 Ti".to_owned(),
                stats: vec![stat_accuracy(
                    StatId::Cycles,
                    &[("bfs".to_owned(), Some(110.0), Some(100.0))],
                    1,
                )],
            }],
        };
        let thresholds = Thresholds::from_report(&report, 0.05);
        assert!(thresholds.check(&report).is_empty());

        // Round-trips through JSON.
        let json = thresholds.to_json().dump();
        let back = Thresholds::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, thresholds);

        // Drift past the bound is a violation.
        let mut drifted = report.clone();
        drifted.presets[0].stats[0].mape = 0.20;
        let violations = thresholds.check(&drifted);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("cycles"), "{}", violations[0]);
        assert!(violations[0].contains("drift"), "{}", violations[0]);

        // A bounded stat missing from the report is also a violation.
        let mut missing = report.clone();
        missing.presets[0].stats.clear();
        assert_eq!(thresholds.check(&missing).len(), 1);
    }

    #[test]
    fn report_json_round_trips_and_rejects_unknown_stats() {
        let report = ValidationReport {
            scale: "tiny".to_owned(),
            oracle: "silicon".to_owned(),
            apps: vec!["bfs".to_owned(), "nw".to_owned()],
            presets: vec![PresetAccuracy {
                preset: "swift-sim-memory".to_owned(),
                gpu: "RTX 3090".to_owned(),
                stats: vec![stat_accuracy(
                    StatId::L1MissRate,
                    &[
                        ("bfs".to_owned(), Some(0.4), Some(0.5)),
                        ("nw".to_owned(), Some(0.2), Some(0.25)),
                    ],
                    3,
                )],
            }],
        };
        let dumped = report.to_json().dump();
        let back = ValidationReport::from_json(&Json::parse(&dumped).unwrap()).unwrap();
        assert_eq!(back, report);

        let bad = dumped.replace("l1_miss_rate", "l1_missrate");
        let err = ValidationReport::from_json(&Json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("l1_missrate"), "{err}");
    }

    #[test]
    fn accelsim_stat_files_parse_with_aliases() {
        let text = "\
# reference measurements
---------- bfs ----------
gpu_tot_sim_cycle = 1834500
gpu_tot_ipc = 0.82
l1d_miss_rate = 0.41
---------- nw ----------
cycles = 220000
total_dram_reads = 91000
";
        let map = parse_accelsim_stats(text).unwrap();
        assert_eq!(
            map.get(&("bfs".to_owned(), "cycles".to_owned())),
            Some(&1_834_500.0)
        );
        assert_eq!(map.get(&("bfs".to_owned(), "ipc".to_owned())), Some(&0.82));
        assert_eq!(
            map.get(&("nw".to_owned(), "dram_reads".to_owned())),
            Some(&91_000.0)
        );

        let err = parse_accelsim_stats("cycles = 5\n").unwrap_err();
        assert!(err.contains("before any app section"), "{err}");
        let err = parse_accelsim_stats("--- bfs ---\nnot_a_stat = 5\n").unwrap_err();
        assert!(err.contains("not_a_stat"), "{err}");
    }
}
