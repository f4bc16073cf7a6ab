//! Minimal SIGTERM/SIGINT latching, with no signal-handling crate.
//!
//! `tempod` needs exactly one bit from the OS: "someone asked this
//! process to stop". The handler sets an atomic flag that the runtime
//! loop polls between socket timeouts, then the loop exits normally,
//! the store is flushed, and the socket is closed — the §5 distinction
//! between a *graceful* departure (state persisted at a known instant)
//! and a crash (state as of the last reset only).
//!
//! This module is one of the crate's two `unsafe` islands (the other is
//! `mmsg.rs`'s `recvmmsg` / `sendmmsg`): registering a handler via the
//! C `signal(2)` entry point that `std` already links.
//! The handler body is async-signal-safe — one relaxed atomic store.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

#[allow(unsafe_code)]
mod ffi {
    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
    }

    pub extern "C" fn on_signal(_signum: i32) {
        super::SHUTDOWN.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn install(signum: i32) {
        // SAFETY: `signal` is the C standard library's handler
        // registration; the handler only performs an atomic store,
        // which is async-signal-safe.
        unsafe {
            signal(signum, on_signal as *const () as usize);
        }
    }
}

/// Latches SIGTERM and SIGINT into [`shutdown_requested`]. Idempotent.
pub fn install() {
    ffi::install(SIGTERM);
    ffi::install(SIGINT);
}

/// Whether a shutdown signal (or [`request_shutdown`]) has been seen.
#[must_use]
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Requests shutdown from inside the process — what a signal does,
/// minus the kernel. Lets tests and embedders drive the graceful path.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Clears the latch. Tests only; a real `tempod` never un-asks to die.
pub fn reset() {
    SHUTDOWN.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_set_and_reset() {
        reset();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset();
        assert!(!shutdown_requested());
    }

    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }
}
