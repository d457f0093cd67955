//! Error type for simulation runs.

use std::fmt;

/// The stable prefix of every rendered [`SimError::Deadlock`] message.
///
/// Services that only see stringified errors (the serve daemon's flight
/// recorder, remote workers shipping failures as text) match on this marker
/// to classify a failure as a modeling deadlock — keep it in sync with the
/// `Display` impl below, which is built from it.
pub const DEADLOCK_MARKER: &str = "simulation made no progress";

/// Error produced while running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The simulator configuration is invalid (rejected by
    /// [`GpuSimulator::try_new`](crate::GpuSimulator::try_new) before any
    /// simulation starts).
    InvalidConfig {
        /// Explanation of the problem.
        message: String,
    },
    /// A kernel could not be decoded from its trace source while the
    /// simulation was consuming it (I/O failure, corrupt section, parse
    /// error in a lazily-decoded kernel).
    Trace {
        /// The rendered [`swiftsim_trace::TraceError`].
        message: String,
        /// When the underlying failure was file I/O
        /// ([`swiftsim_trace::TraceError::Io`]), its
        /// [`std::io::ErrorKind`] — preserved so a service log can
        /// distinguish `NotFound` (bad request) from `PermissionDenied`
        /// (deployment problem) without string matching. `None` for
        /// parse/corruption failures.
        io_kind: Option<std::io::ErrorKind>,
    },
    /// The trace is inconsistent with its declared launch geometry.
    InconsistentTrace {
        /// The offending kernel's name.
        kernel: String,
        /// Explanation.
        message: String,
    },
    /// A kernel needs more per-block resources than one SM provides.
    BlockTooLarge {
        /// The offending kernel's name.
        kernel: String,
        /// Which resource is exceeded.
        resource: String,
    },
    /// The simulation exceeded its cycle safety limit, which indicates a
    /// modeling deadlock (e.g. a warp waiting on a completion that was
    /// never scheduled).
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// The stalled SM shard (shard 0 is the whole GPU when
        /// single-threaded).
        shard: usize,
        /// The oldest waiting warp and/or in-flight memory request, so the
        /// hang is debuggable from the error alone.
        detail: String,
    },
    /// A worker thread panicked. The panic is captured and surfaced as an
    /// error so one bad shard (or one bad job in a campaign) cannot abort
    /// the whole process.
    WorkerPanic {
        /// What the worker was doing (e.g. `"shard 3"`).
        context: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

/// Render a `catch_unwind`/`join` panic payload as text.
///
/// Panic payloads are `Box<dyn Any>`; in practice they are almost always
/// `&str` (from `panic!("...")`) or `String` (from `panic!("{x}")`).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { message } => {
                write!(f, "invalid simulator configuration: {message}")
            }
            SimError::Trace { message, .. } => {
                write!(f, "trace ingestion failed: {message}")
            }
            SimError::InconsistentTrace { kernel, message } => {
                write!(f, "kernel {kernel}: inconsistent trace: {message}")
            }
            SimError::BlockTooLarge { kernel, resource } => {
                write!(f, "kernel {kernel}: block exceeds SM {resource}")
            }
            SimError::Deadlock {
                cycle,
                shard,
                detail,
            } => {
                write!(
                    f,
                    "{DEADLOCK_MARKER} at cycle {cycle} (shard {shard}): {detail}"
                )
            }
            SimError::WorkerPanic { context, message } => {
                write!(f, "worker panicked in {context}: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// The [`std::io::ErrorKind`] behind this error, when it wraps a trace
    /// I/O failure.
    pub fn io_kind(&self) -> Option<std::io::ErrorKind> {
        match self {
            SimError::Trace { io_kind, .. } => *io_kind,
            _ => None,
        }
    }
}

impl From<swiftsim_trace::TraceError> for SimError {
    fn from(e: swiftsim_trace::TraceError) -> Self {
        SimError::Trace {
            io_kind: e.io_kind(),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = SimError::BlockTooLarge {
            kernel: "k".to_owned(),
            resource: "shared memory".to_owned(),
        };
        assert_eq!(e.to_string(), "kernel k: block exceeds SM shared memory");
    }

    #[test]
    fn deadlock_display_names_shard_and_detail() {
        let e = SimError::Deadlock {
            cycle: 42,
            shard: 3,
            detail: "SM 1 block 7 warp 0 at barrier".to_owned(),
        };
        let s = e.to_string();
        assert!(s.starts_with(DEADLOCK_MARKER), "{s}");
        assert!(s.contains("cycle 42"), "{s}");
        assert!(s.contains("shard 3"), "{s}");
        assert!(s.contains("warp 0 at barrier"), "{s}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn trace_io_kind_survives_conversion_and_display() {
        use std::io::ErrorKind;
        let make = |kind: ErrorKind| {
            let io = std::io::Error::new(kind, "os says no");
            SimError::from(swiftsim_trace::TraceError::io("/traces/app.sstraceb", &io))
        };

        // NotFound and PermissionDenied stay distinguishable both
        // structurally (io_kind) and in the rendered message.
        let not_found = make(ErrorKind::NotFound);
        let denied = make(ErrorKind::PermissionDenied);
        assert_eq!(not_found.io_kind(), Some(ErrorKind::NotFound));
        assert_eq!(denied.io_kind(), Some(ErrorKind::PermissionDenied));
        assert!(not_found.to_string().contains("NotFound"), "{not_found}");
        assert!(denied.to_string().contains("PermissionDenied"), "{denied}");
        assert!(not_found.to_string().contains("/traces/app.sstraceb"));

        // Non-I/O trace failures carry no kind.
        let parse: SimError = swiftsim_trace::TraceError::Parse {
            line: 1,
            message: "bad".to_owned(),
        }
        .into();
        assert_eq!(parse.io_kind(), None);
        let cfg = SimError::InvalidConfig {
            message: "m".to_owned(),
        };
        assert_eq!(cfg.io_kind(), None);
    }
}
