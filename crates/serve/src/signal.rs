//! Minimal async-signal-safe SIGTERM/SIGINT handling, without libc.
//!
//! The workspace builds with no external crates, so the handler is wired
//! through a hand-declared `signal(2)` binding. The handler does the only
//! thing an async-signal-safe handler may do with std: store to an atomic.
//! The serve accept loop polls [`shutdown_requested`] and begins a
//! graceful drain when it flips.
//!
//! The flag is process-global (signals are), and only ever *set* by the
//! handler. Shutdown initiated by protocol (`shutdown` op) or by tests
//! uses each server's own stop flag instead, so several in-process
//! servers — as in the test suite — stay independent.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM/SIGINT has been observed.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // `signal(2)` from the platform libc, which every Rust binary on
        // unix links anyway. `sighandler_t` is a function pointer, passed
        // and returned as `usize` to keep the declaration type-simple.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_terminate(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub(crate) fn install() {
        let handler = on_terminate as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(crate) fn install() {}
}

/// Install the SIGTERM/SIGINT → drain handlers (no-op off unix; the
/// `shutdown` protocol op still works everywhere).
pub fn install_handlers() {
    imp::install();
}
