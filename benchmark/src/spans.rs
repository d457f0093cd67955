//! Spans recorded from the benchmark's own files, around each call into a
//! layer of the simulator. Kept in memory; written once, as Chrome
//! trace-event JSON, when the workload ends.

use std::time::{Instant, SystemTime, UNIX_EPOCH};
use swiftsim_metrics::Json;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder was made.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans. A disabled recorder runs the closures and
/// records nothing, so timed and traced repetitions share one code path.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    epoch_unix_us: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            epoch_unix_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// When the recorder was made, in microseconds since the Unix epoch:
    /// what places the spans of two processes on one timeline.
    pub fn epoch_unix_us(&self) -> u64 {
        self.epoch_unix_us
    }

    /// Run `f` inside a span named `name`; spans begun by `f` through the
    /// recorder it is handed become children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's own time: its duration minus the part of it that its direct
/// children cover (children may touch or overlap; covered time counts
/// once).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let span = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// Durations, in milliseconds, of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Chrome trace-event objects (`"X"` phase) for one workload's spans.
/// `args` carries what the event format has no field for: the span's own
/// index, its parent, its self time, and the workload the span belongs to.
pub fn chrome_events(spans: &[Span], workload: &str, pid: u64) -> Vec<Json> {
    let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut events = vec![Json::obj(vec![
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::int(pid)),
        ("args", Json::obj(vec![("name", Json::str(workload))])),
    ])];
    events.extend(spans.iter().enumerate().map(|(i, s)| {
        Json::obj(vec![
            ("name", Json::str(&s.name)),
            ("cat", Json::str(s.name.split('.').next().unwrap_or(""))),
            ("ph", Json::str("X")),
            ("pid", Json::int(pid)),
            ("tid", Json::int(1)),
            ("ts", Json::Num((s.start_ns - origin) as f64 / 1e3)),
            ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
            (
                "args",
                Json::obj(vec![
                    ("workload", Json::str(workload)),
                    ("id", Json::int(i as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::int(p as u64)),
                    ),
                    ("self_us", Json::Num(self_time_ns(spans, i) as f64 / 1e3)),
                ]),
            ),
        ])
    }));
    events
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::str(&s.name),
                    Json::int(s.start_ns),
                    Json::int(s.end_ns),
                    s.parent.map_or(Json::Null, |p| Json::int(p as u64)),
                ])
            })
            .collect(),
    )
}

/// Read back [`spans_to_json`] output for appending to a list that already
/// holds `base` spans: parent indices move by `base`, times by `shift_ns`
/// (the distance between the two recorders' epochs).
pub fn spans_from_json(json: &Json, base: usize, shift_ns: u64) -> Option<Vec<Span>> {
    json.as_arr()?
        .iter()
        .map(|row| {
            let row = row.as_arr()?;
            Some(Span {
                name: row.first()?.as_str()?.to_owned(),
                start_ns: row.get(1)?.as_u64()? + shift_ns,
                end_ns: row.get(2)?.as_u64()? + shift_ns,
                parent: row.get(3)?.as_u64().map(|p| p as usize + base),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("trace.open", 10, 30, Some(0)),
            // Adjacent to the previous child: no gap, no double count.
            span("core.run", 30, 80, Some(0)),
            // A grandchild takes time from its parent only.
            span("core.prepass", 40, 60, Some(2)),
            span("metrics.emit", 90, 95, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 50 - 5);
        assert_eq!(self_time_ns(&spans, 2), 50 - 20);
        assert_eq!(self_time_ns(&spans, 3), 20);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            // Sticks out past its parent: only the inside part counts.
            span("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new(true);
        rec.span("rep", |rec| {
            rec.span("trace.open", |_| ());
            rec.span("core.run", |rec| rec.span("core.prepass", |_| ()));
        });
        rec.span("trace.decode", |_| ());
        let parents: Vec<_> = rec
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            parents,
            [
                ("rep", None),
                ("trace.open", Some(0)),
                ("core.run", Some(0)),
                ("core.prepass", Some(2)),
                ("trace.decode", None),
            ]
        );
        for s in rec.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("core.run", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn spans_round_trip_with_rebased_parents() {
        let spans = vec![span("rep", 5, 50, None), span("core.run", 10, 40, Some(0))];
        let back = spans_from_json(&spans_to_json(&spans), 3, 0).unwrap();
        assert_eq!(back[0], spans[0]);
        assert_eq!(back[1].parent, Some(3));
        let shifted = spans_from_json(&spans_to_json(&spans), 0, 100).unwrap();
        assert_eq!((shifted[1].start_ns, shifted[1].end_ns), (110, 140));
        let events = chrome_events(&spans, "basic.bfs", 2);
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("dur"), Some(&Json::Num(0.03)));
    }
}
