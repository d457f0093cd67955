//! Campaign results: structured rows, JSON-lines emission, summary table.

use crate::executor::{JobOutcome, JobStatus, RenderedResult};
use crate::spec::ResolvedJob;
use std::sync::Arc;
use swiftsim_metrics::{Json, Table};

/// How a row ended (the data-less mirror of [`JobStatus`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    /// Simulated in this run.
    Ok,
    /// Served from the result cache.
    Cached,
    /// All attempts failed.
    Failed,
    /// Never started: the run's [`crate::CancelToken`] tripped first.
    Cancelled,
}

impl RowStatus {
    /// Lower-case name used in JSONL and tables.
    pub fn name(self) -> &'static str {
        match self {
            RowStatus::Ok => "ok",
            RowStatus::Cached => "cached",
            RowStatus::Failed => "failed",
            RowStatus::Cancelled => "cancelled",
        }
    }
}

/// One job's full record.
#[derive(Debug, Clone)]
pub struct JobRow {
    /// Index in expansion order.
    pub index: usize,
    /// Human-readable label.
    pub label: String,
    /// Content-addressed cache key (16 hex digits).
    pub key: String,
    /// Workload/trace name.
    pub workload: String,
    /// GPU name (from the resolved config).
    pub gpu: String,
    /// Simulator preset label.
    pub preset: String,
    /// Per-simulation threads.
    pub threads: usize,
    /// Scheduler override, if any.
    pub scheduler: Option<String>,
    /// Replacement-policy override, if any.
    pub replacement: Option<String>,
    /// Outcome kind.
    pub status: RowStatus,
    /// Attempts consumed (0 for cache hits).
    pub attempts: u32,
    /// Wall time spent on the job in this run.
    pub wall: std::time::Duration,
    /// Freshly simulated row whose wall time exceeded ~3× the median of
    /// this campaign's fresh rows — worth a look before blaming the sweep.
    pub slow: bool,
    /// Failure message, for [`RowStatus::Failed`] rows.
    pub error: Option<String>,
    /// The simulation result, for non-failed rows.
    pub result: Option<Arc<RenderedResult>>,
}

impl JobRow {
    /// Serialize to the JSONL row schema. The `result` field uses exactly
    /// [`swiftsim_core::SimulationResult::to_json`]'s schema — the same one
    /// `swiftsim --json` prints for single runs — as the result's rendered
    /// text ([`RenderedResult::json`]), so dump it to read it.
    pub fn to_json(&self) -> Json {
        let opt_str = |v: &Option<String>| match v {
            Some(s) => Json::str(s.clone()),
            None => Json::Null,
        };
        Json::obj(vec![
            (
                "job",
                Json::obj(vec![
                    ("index", Json::int(self.index as u64)),
                    ("label", Json::str(&self.label)),
                    ("key", Json::str(&self.key)),
                    ("workload", Json::str(&self.workload)),
                    ("gpu", Json::str(&self.gpu)),
                    ("preset", Json::str(&self.preset)),
                    ("threads", Json::int(self.threads as u64)),
                    ("scheduler", opt_str(&self.scheduler)),
                    ("replacement", opt_str(&self.replacement)),
                ]),
            ),
            ("status", Json::str(self.status.name())),
            ("attempts", Json::int(u64::from(self.attempts))),
            ("wall_us", Json::int(self.wall.as_micros() as u64)),
            ("slow", Json::Bool(self.slow)),
            ("error", opt_str(&self.error)),
            (
                "result",
                match &self.result {
                    Some(r) => r.json(),
                    None => Json::Null,
                },
            ),
            (
                "profile",
                match self.result.as_ref().and_then(|r| r.profile.as_ref()) {
                    Some(p) => p.summary_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Flag freshly simulated rows whose wall time exceeds 3× the median wall
/// time of the campaign's fresh rows. Cached and failed rows are neither
/// counted in the median (a cache hit's wall is I/O, not simulation; a
/// failure's includes retries) nor flagged.
pub(crate) fn mark_slow_rows(rows: &mut [JobRow]) {
    let mut fresh: Vec<std::time::Duration> = rows
        .iter()
        .filter(|r| r.status == RowStatus::Ok)
        .map(|r| r.wall)
        .collect();
    if fresh.len() < 2 {
        return;
    }
    fresh.sort_unstable();
    let median = fresh[fresh.len() / 2];
    if median.is_zero() {
        return;
    }
    for row in rows {
        row.slow = row.status == RowStatus::Ok && row.wall > median * 3;
    }
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// One row per job, in expansion order.
    pub rows: Vec<JobRow>,
}

impl CampaignReport {
    /// Assemble a report from resolved jobs and their outcomes.
    ///
    /// `outcomes` need not be in job order (a service scheduler finishes
    /// jobs as workers free up): each outcome is matched to its job by
    /// [`JobOutcome::index`], so the same set of outcomes always yields the
    /// same report. Every job must have exactly one outcome.
    pub fn from_outcomes(
        name: String,
        jobs: Vec<ResolvedJob>,
        mut outcomes: Vec<JobOutcome>,
    ) -> CampaignReport {
        outcomes.sort_by_key(|o| o.index);
        assert_eq!(
            jobs.len(),
            outcomes.len(),
            "one outcome per job required to build a report"
        );
        let rows = jobs
            .into_iter()
            .zip(outcomes)
            .map(|(job, outcome)| {
                assert_eq!(job.spec.index, outcome.index, "outcome/job mismatch");
                let (status, error, result) = match outcome.status {
                    JobStatus::Completed(r) => (RowStatus::Ok, None, Some(r)),
                    JobStatus::Cached(r) => (RowStatus::Cached, None, Some(r)),
                    JobStatus::Failed { error } => (RowStatus::Failed, Some(error), None),
                    JobStatus::Cancelled => (RowStatus::Cancelled, None, None),
                };
                JobRow {
                    index: job.spec.index,
                    label: job.spec.label(),
                    key: job.key_hex(),
                    workload: match &job.spec.workload {
                        crate::spec::WorkloadSource::Builtin(n)
                        | crate::spec::WorkloadSource::TraceFile(n) => n.clone(),
                    },
                    gpu: job.cfg.name.clone(),
                    preset: job.spec.preset.label().to_owned(),
                    threads: job.spec.threads,
                    scheduler: job.spec.scheduler.map(|s| s.to_string()),
                    replacement: job.spec.replacement.map(|r| r.to_string()),
                    status,
                    attempts: outcome.attempts,
                    wall: outcome.wall,
                    slow: false,
                    error,
                    result,
                }
            })
            .collect();
        let mut report = CampaignReport { name, rows };
        mark_slow_rows(&mut report.rows);
        report
    }

    /// Rows that simulated in this run.
    pub fn completed(&self) -> usize {
        self.count(RowStatus::Ok)
    }

    /// Rows served from the cache.
    pub fn cached(&self) -> usize {
        self.count(RowStatus::Cached)
    }

    /// Rows that failed every attempt.
    pub fn failed(&self) -> usize {
        self.count(RowStatus::Failed)
    }

    /// Rows cancelled before they started.
    pub fn cancelled(&self) -> usize {
        self.count(RowStatus::Cancelled)
    }

    fn count(&self, status: RowStatus) -> usize {
        self.rows.iter().filter(|r| r.status == status).count()
    }

    /// Find a row by (workload, GPU name, preset label) — the lookup the
    /// figure binaries use to join campaign rows with the silicon oracle.
    pub fn find(&self, workload: &str, gpu: &str, preset: &str) -> Option<&JobRow> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.gpu == gpu && r.preset == preset)
    }

    /// All rows as JSON lines (one compact object per row, trailing
    /// newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&row.to_json().dump());
            out.push('\n');
        }
        out
    }

    /// Per-job summary as a fixed-width table.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(vec![
            "Job",
            "Status",
            "Cycles",
            "IPC",
            "Wall (ms)",
            "Attempts",
        ]);
        for row in &self.rows {
            let (cycles, ipc) = match &row.result {
                Some(r) => (r.cycles.to_string(), format!("{:.3}", r.ipc())),
                None => ("-".to_owned(), "-".to_owned()),
            };
            t.row(vec![
                row.label.clone(),
                match (&row.error, row.slow) {
                    (Some(e), _) => format!("{}: {e}", row.status.name()),
                    (None, true) => format!("{} (slow)", row.status.name()),
                    (None, false) => row.status.name().to_owned(),
                },
                cycles,
                ipc,
                format!("{:.1}", row.wall.as_secs_f64() * 1e3),
                row.attempts.to_string(),
            ]);
        }
        t
    }

    /// Rows flagged as outliers (> 3× the median fresh wall time).
    pub fn slow(&self) -> usize {
        self.rows.iter().filter(|r| r.slow).count()
    }

    /// One-line outcome summary, e.g. `30 jobs: 24 ok, 6 cached, 0 failed`.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "{} jobs: {} ok, {} cached, {} failed",
            self.rows.len(),
            self.completed(),
            self.cached(),
            self.failed()
        );
        let cancelled = self.cancelled();
        if cancelled > 0 {
            line.push_str(&format!(", {cancelled} cancelled"));
        }
        let slow = self.slow();
        if slow > 0 {
            line.push_str(&format!(" ({slow} flagged slow)"));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn row(index: usize, status: RowStatus, wall_ms: u64) -> JobRow {
        JobRow {
            index,
            label: format!("job{index}"),
            key: format!("{index:016x}"),
            workload: "nw".to_owned(),
            gpu: "g".to_owned(),
            preset: "p".to_owned(),
            threads: 1,
            scheduler: None,
            replacement: None,
            status,
            attempts: u32::from(status != RowStatus::Cached),
            wall: Duration::from_millis(wall_ms),
            slow: false,
            error: None,
            result: None,
        }
    }

    #[test]
    fn slow_rows_are_flagged_against_the_fresh_median() {
        let mut rows = vec![
            row(0, RowStatus::Ok, 10),
            row(1, RowStatus::Ok, 12),
            row(2, RowStatus::Ok, 11),
            row(3, RowStatus::Ok, 100), // ~9x the 11-12 ms median
            // A cached row with an extreme wall must be neither flagged nor
            // allowed to drag the median.
            row(4, RowStatus::Cached, 0),
            row(5, RowStatus::Failed, 500),
        ];
        mark_slow_rows(&mut rows);
        let flags: Vec<bool> = rows.iter().map(|r| r.slow).collect();
        assert_eq!(flags, vec![false, false, false, true, false, false]);

        let report = CampaignReport {
            name: "t".to_owned(),
            rows,
        };
        assert_eq!(report.slow(), 1);
        assert!(report.summary_line().contains("1 flagged slow"));
        assert!(report.summary_table().to_string().contains("ok (slow)"));
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains("\"slow\":true"));
    }

    #[test]
    fn slow_flagging_needs_a_meaningful_median() {
        // One fresh row: no median to compare against, nothing flagged.
        let mut rows = vec![row(0, RowStatus::Ok, 500), row(1, RowStatus::Cached, 1)];
        mark_slow_rows(&mut rows);
        assert!(rows.iter().all(|r| !r.slow));
    }
}
