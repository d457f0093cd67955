//! `--compare A.json B.json`: one row per end-to-end metric and workload,
//! with both medians, their ratio, the bound and a verdict; plus the
//! overview the full run prints, host time beside simulated statistics.

use crate::stats::Summary;
use crate::END_TO_END;
use std::path::Path;
use swiftsim_metrics::Json;

/// Points of `cycles_err_pct` by which two results of one deterministic
/// model may differ before the difference counts as a change.
const ERR_PCT_BOUND: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The spread of either side is wider than the bound, so a difference
    /// of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one timing metric of one workload.
pub fn verdict(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    let ratio = b.median / a.median;
    let worse_by = if lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn workloads(result: &Json) -> &[Json] {
    result
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

fn name_of(workload: &Json) -> &str {
    workload.get("name").and_then(Json::as_str).unwrap_or("?")
}

fn metric<'a>(workload: &'a Json, group: &str, name: &str) -> Option<&'a Json> {
    workload.get(group)?.get(name)
}

fn value(workload: &Json, group: &str, name: &str) -> Option<f64> {
    metric(workload, group, name)?.get("value")?.as_f64()
}

fn failed_share(workload: &Json) -> f64 {
    let count = |key: &str| workload.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    (count("failed") + count("traced_failed"))
        / (count("attempted") + count("traced_attempted")).max(1.0)
}

/// Compare two result documents. Prints every row; `Ok(true)` when no row
/// is worse, no simulated statistic changed and no workload fails a larger
/// share of its operations.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let mut acceptable = true;
    let mut unresolved = 0;
    println!(
        "{:<14}{:<18}{:>12}{:>12}{:>9}{:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for wa in workloads(a) {
        let name = name_of(wa);
        let wb = workloads(b)
            .iter()
            .find(|w| name_of(w) == name)
            .ok_or(format!("workload {name} is missing from B"))?;

        for (metric_name, unit, better, default_bound) in END_TO_END {
            let bound = a
                .get("bounds")
                .and_then(|b| b.get(metric_name))
                .and_then(Json::as_f64)
                .unwrap_or(default_bound);
            let summary = |w: &Json| {
                metric(w, "end_to_end", metric_name)
                    .and_then(Summary::from_json)
                    .ok_or(format!("{name} has no {metric_name}"))
            };
            let (sa, sb) = (summary(wa)?, summary(wb)?);
            let v = verdict(&sa, &sb, better == "lower", bound);
            acceptable &= v != Verdict::Worse;
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{name:<14}{:<18}{:>12.4}{:>12.4}{:>9.4}{:>6.0}%  {}",
                format!("{metric_name} [{unit}]"),
                sa.median,
                sb.median,
                sb.median / sa.median,
                bound * 100.0,
                v.name()
            );
        }

        // Simulated statistics of one model are exact: any change is a
        // change of the model, never noise.
        let text = |w: &Json, key: &str| match w.get(key) {
            Some(Json::Str(s)) => s.clone(),
            Some(other) => other.dump(),
            None => String::new(),
        };
        let err = |w: &Json| value(w, "per_layer", "core.cycles_err_pct").unwrap_or(0.0);
        let same = text(wa, "cycles") == text(wb, "cycles")
            && text(wa, "stats_digest") == text(wb, "stats_digest")
            && (err(wa) - err(wb)).abs() <= ERR_PCT_BOUND;
        acceptable &= same;
        println!(
            "{name:<14}{:<18}{:>12.4}{:>12.4}{:>9}{:>7}  {}",
            "cycles_err_pct [%]",
            err(wa),
            err(wb),
            "",
            "",
            if same {
                format!("ok, digest {}", text(wa, "stats_digest"))
            } else {
                format!(
                    "changed: cycles {} -> {}, digest {} -> {}",
                    text(wa, "cycles"),
                    text(wb, "cycles"),
                    text(wa, "stats_digest"),
                    text(wb, "stats_digest")
                )
            }
        );

        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            acceptable = false;
            println!("{name:<14}failed share rose from {fa:.4} to {fb:.4}: worse");
        }
    }
    println!(
        "{}; {unresolved} row(s) unresolved (spread wider than the bound); ratios are B over A",
        if acceptable {
            "no row is worse"
        } else {
            "B is WORSE than A"
        }
    );
    Ok(acceptable)
}

pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", path.display())))
    };
    compare(&load(a)?, &load(b)?)
}

/// Host time and simulated statistics side by side for every workload, and
/// the paper's two speed-ups with the simulator's error beside each.
pub fn print_overview(result: &Json) {
    println!(
        "\n{:<14}{:>10}{:>13}{:>13}{:>10}{:>12}{:>10}  stats_digest",
        "workload", "wall_s", "minst_per_s", "peak_rss_mb", "setup_s", "cycles", "err_pct"
    );
    let e2e = |w: &Json, name: &str| value(w, "end_to_end", name).unwrap_or(0.0);
    for w in workloads(result) {
        let insts = w.get("instructions").and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{:<14}{:>10.4}{:>13.4}{:>13.2}{:>10.4}{:>12}{:>10.4}  {}",
            name_of(w),
            e2e(w, "wall_s"),
            insts / 1e6 / e2e(w, "wall_s").max(1e-12),
            e2e(w, "peak_rss_mb"),
            e2e(w, "setup_s"),
            w.get("cycles").and_then(Json::as_u64).unwrap_or(0),
            value(w, "per_layer", "core.cycles_err_pct").unwrap_or(0.0),
            w.get("stats_digest").and_then(Json::as_str).unwrap_or("?"),
        );
    }
    let find = |name: &str| workloads(result).iter().find(|w| name_of(w) == name);
    if let Some(base) = find("detailed.bfs") {
        for name in ["basic.bfs", "memory.bfs", "basic.bfs.t2"] {
            if let Some(w) = find(name) {
                println!(
                    "detailed.bfs / {name} = {:.2}x in host time (base detailed.bfs {:.4} s), at {:.2}% cycle error against detailed.bfs",
                    e2e(base, "wall_s") / e2e(w, "wall_s").max(1e-12),
                    e2e(base, "wall_s"),
                    value(w, "per_layer", "core.cycles_err_pct").unwrap_or(0.0),
                );
            }
        }
    }
    println!(
        "the model is validated only against its own detailed preset; no silicon error is claimed"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, spread: f64) -> Summary {
        Summary {
            n: 9,
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
            min: median * 0.9,
            max: median * 1.1,
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let a = summary(1.0, 0.01);
        assert_eq!(verdict(&a, &summary(1.05, 0.01), true, 0.07), Verdict::Ok);
        assert_eq!(
            verdict(&a, &summary(1.08, 0.01), true, 0.07),
            Verdict::Worse
        );
        // Faster is never worse, however much.
        assert_eq!(verdict(&a, &summary(0.5, 0.01), true, 0.07), Verdict::Ok);
        // For a higher-is-better metric the directions swap.
        assert_eq!(
            verdict(&a, &summary(0.9, 0.01), false, 0.07),
            Verdict::Worse
        );
        assert_eq!(verdict(&a, &summary(1.2, 0.01), false, 0.07), Verdict::Ok);
        // A spread wider than the bound on either side resolves nothing.
        assert_eq!(
            verdict(&a, &summary(1.5, 0.09), true, 0.07),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&summary(1.0, 0.09), &a, true, 0.07),
            Verdict::Unresolved
        );
    }

    fn result(wall: f64, digest: &str, failed: u64) -> Json {
        let m = |v: f64| summary(v, 0.01).to_json("s");
        Json::obj(vec![
            ("bounds", Json::obj(vec![("wall_s", Json::Num(0.07))])),
            (
                "workloads",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("basic.bfs")),
                    ("attempted", Json::int(10)),
                    ("failed", Json::int(failed)),
                    ("cycles", Json::int(17667)),
                    ("stats_digest", Json::str(digest)),
                    (
                        "end_to_end",
                        Json::obj(vec![
                            ("wall_s", m(wall)),
                            ("peak_rss_mb", m(60.0)),
                            ("setup_s", m(0.1)),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_accepts_equal_and_rejects_slower_changed_or_failing() {
        let a = result(1.0, "aa", 0);
        assert_eq!(compare(&a, &result(1.03, "aa", 0)), Ok(true));
        assert_eq!(compare(&a, &result(1.10, "aa", 0)), Ok(false));
        assert_eq!(compare(&a, &result(1.0, "bb", 0)), Ok(false));
        assert_eq!(compare(&a, &result(1.0, "aa", 1)), Ok(false));
        let empty = Json::obj(vec![("workloads", Json::Arr(Vec::new()))]);
        assert!(compare(&a, &empty).is_err());
    }
}
