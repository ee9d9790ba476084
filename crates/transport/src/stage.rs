//! Set-up stage stamps: where a daemon's start-up time goes.
//!
//! A process that wants to know installs one observer with [`observe`].
//! The layers it runs on call [`reached`] at each [`Stage`], and the
//! observer hears each stage once, the first time any thread reaches it,
//! on that thread. Without an observer a stage costs one atomic load.
//! `mf-served` is the observer: it prints each stage on stderr with a
//! `CLOCK_MONOTONIC` timestamp.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A step of a daemon's set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The daemon's `main` was entered.
    Main,
    /// The daemon's listener is bound: tenants can connect.
    Listening,
    /// A worker child completed its handshake: the first `HelloAck` sent.
    FirstHelloAck,
    /// The engine, and with it the worker fleet, is up.
    EngineBuilt,
    /// The first `Done` reply was written to a tenant.
    FirstDone,
}

impl Stage {
    /// The stage's name on a stamp line.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Main => "main",
            Stage::Listening => "listening",
            Stage::FirstHelloAck => "first-hello-ack",
            Stage::EngineBuilt => "engine-built",
            Stage::FirstDone => "first-done",
        }
    }
}

static OBSERVER: OnceLock<fn(Stage)> = OnceLock::new();

/// One bit per [`Stage`] already reported.
static REPORTED: AtomicU8 = AtomicU8::new(0);

/// Install the process's observer; only the first call takes effect.
pub fn observe(observer: fn(Stage)) {
    let _ = OBSERVER.set(observer);
}

/// `stage` was reached: tell the observer, if it has not heard of it yet.
pub fn reached(stage: Stage) {
    let Some(observer) = OBSERVER.get() else {
        return;
    };
    let bit = 1 << stage as u8;
    if REPORTED.fetch_or(bit, Ordering::Relaxed) & bit == 0 {
        observer(stage);
    }
}
