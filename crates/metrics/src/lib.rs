//! Metrics Gatherer for the Swift-Sim GPU simulation framework (§III-C of
//! the paper).
//!
//! After modeling, architects gather performance metrics from each module:
//! total simulation cycles from the Block Scheduler, core stall cycles, L1
//! miss rates and bank conflicts from the SMs, NoC stall cycles and LLC miss
//! rates from the memory side. Thanks to the framework's modular design,
//! each module keeps plain counters locally (cheap to bump in the hot loop)
//! and *reports* them into a [`MetricsCollector`] when simulation finishes.
//!
//! The crate also provides the statistics helpers used throughout the
//! evaluation ([`geomean`], [`mean`], [`rel_error`]) and a fixed-width text
//! [`Table`] used by the experiment harness to print paper-style rows.
//!
//! On top of the per-run collectors sits the *observability layer* for
//! long-running services (the `swiftsim serve` daemon foremost):
//! [`CounterSet`] (flat monotonic counters), [`Histogram`] (mergeable
//! log-bucketed latency distributions) and [`Gauge`] (instantaneous
//! levels), all unified behind a [`Registry`] with Prometheus-style text
//! exposition; a [`FlightRecorder`] ring buffer of structured events for
//! post-mortems; and a self-profiling [`Profiler`] whose
//! [`ProfileReport`]s serialize losslessly, so worker processes can ship
//! their tracks to a coordinator that merges them into one Perfetto
//! timeline.
//!
//! # Examples
//!
//! ```
//! use swiftsim_metrics::{MetricsCollector, Value};
//!
//! let mut collector = MetricsCollector::new();
//! collector.set("gpu.cycles", Value::Cycles(123_456));
//! {
//!     let mut sm = collector.scope("sm0");
//!     sm.set("l1.miss_rate", Value::Ratio(0.18));
//!     sm.set("l1.bank_conflicts", Value::Count(42));
//! }
//! assert_eq!(collector.cycles("gpu.cycles"), Some(123_456));
//! assert_eq!(collector.count("sm0.l1.bank_conflicts"), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod collector;
mod counters;
mod flight;
mod hist;
pub mod json;
mod profile;
mod registry;
mod stats;
mod table;

pub use collector::{MetricsCollector, ScopedCollector, Value};
pub use counters::CounterSet;
pub use flight::{FlightEvent, FlightRecorder};
pub use hist::{Gauge, Histogram};
pub use json::Json;
pub use profile::{ProfFrame, ProfModule, ProfileReport, Profiler};
pub use registry::{escape_label_value, sanitize_metric_name, Registry};
pub use stats::{geomean, mean, mean_abs, pearson, rel_error, spearman};
pub use table::Table;
