//! Simulation-as-a-service for Swift-Sim: a long-running daemon with an
//! async job queue, warm caches, and multi-worker scheduling.
//!
//! The Swift-Sim paper's headline workflow — design-space exploration
//! over thousands of configurations (§IV-B3) — is bursty and repetitive:
//! the same traces, the same GPU models, near-identical sweeps submitted
//! over and over as a design converges. A one-shot `swiftsim campaign`
//! pays the full cold-start price every time: decode every trace, rebuild
//! every simulator, and only the on-disk result cache carries over. This
//! crate keeps a simulator *service* resident instead:
//!
//! * [`server`] — the `swiftsim serve` daemon: accepts sweep specs and
//!   single-run requests over a line-delimited JSON protocol on TCP,
//!   schedules them fairly across clients with per-submission priorities,
//!   and answers status/list/cancel/result/stats queries. SIGTERM drains
//!   gracefully: running work finishes, nothing new starts.
//! * [`queue`] — the async job queue behind it: task-granular states
//!   (queued → running → done/failed/cancelled), round-robin fairness
//!   across clients, bounded requeue of tasks whose executor vanished.
//! * [`warm`] — what makes the daemon worth it: an LRU result cache keyed
//!   by the campaign engine's content-addressed job keys, and a shared
//!   decoded-kernel cache so file-backed traces decode once per daemon,
//!   not once per job.
//! * [`worker`] — `swiftsim serve --worker <addr>`: remote execution
//!   slots. Tasks ship as single-job campaign specs; each worker
//!   re-resolves them independently and the coordinator cross-checks the
//!   recomputed job key before accepting a result, so any skew between
//!   machines is caught at merge time. A worker's TCP connection is its
//!   liveness: kill the worker and its lease requeues within a read
//!   timeout.
//! * [`client`] / [`protocol`] — a thin synchronous client (used by
//!   `swiftsim submit`) and the wire format underneath everything.
//!
//! Scheduling never changes answers: results merge back by task index,
//! so a sweep's report is bit-identical to a local `swiftsim campaign`
//! run of the same spec, whether it ran on zero, one, or ten workers.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use swiftsim_serve::client::ServeClient;
//! use swiftsim_serve::server::{self, ServeOptions};
//!
//! // An in-process daemon on an ephemeral port (exactly what
//! // `swiftsim serve` does, minus the CLI).
//! let handle = server::start(ServeOptions {
//!     listen: "127.0.0.1:0".to_owned(),
//!     cache_dir: std::env::temp_dir().join("swiftsim-serve-doc"),
//!     ..ServeOptions::default()
//! })
//! .unwrap();
//!
//! let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
//! let (job, tasks) = client
//!     .submit("workload = nw\nscale = tiny\npreset = swift-memory\n", "docs", 0)
//!     .unwrap();
//! assert_eq!(tasks, 1);
//! let report = client.wait_result(job, Duration::from_secs(120)).unwrap();
//! assert!(report.get("rows").is_some());
//! handle.shutdown();
//! ```

#![deny(unsafe_code)] // `signal.rs` carries the one vetted exception
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod client;
pub mod obs;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;
pub mod warm;
pub mod worker;
