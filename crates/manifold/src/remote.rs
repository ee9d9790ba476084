//! Integration surface for *real* (multi-OS-process) task instances.
//!
//! Everything in this crate runs processes as threads of one program; a
//! task instance is a bookkeeping entity. A real distributed deployment —
//! the paper's cluster-of-workstations configuration — instead runs some
//! task instances as separate operating-system processes reachable over a
//! transport (TCP, Unix sockets). This module is the narrow waist between
//! the two worlds:
//!
//! * [`JobFleet`] — somewhere a proxy process can hand one unit of work
//!   to without waiting for it: [`JobFleet::submit`] returns at once, and
//!   two callbacks report the job reaching a remote task instance
//!   ([`Started`]) and its answer or its loss ([`Completion`]). The
//!   `transport` crate's worker pool is behind the one the procs backend
//!   uses; tests implement it in memory.
//! * [`RemoteIdentity`] — the (machine, task-instance uid) pair a proxy
//!   process adopts so the §6 chronological trace reports the *real* host
//!   executing the work instead of the local placement label (see
//!   [`ProcessCtx::set_remote_identity`]).
//!
//! Nothing here knows about sockets or wire formats: `manifold` stays a
//! pure coordination runtime, and the transport can be swapped (or faked)
//! without touching the protocol or application layers — the backend is
//! chosen by configuration, never by code.
//!
//! [`ProcessCtx::set_remote_identity`]: crate::process::ProcessCtx::set_remote_identity

use crate::config::HostName;
use crate::unit::Unit;

/// The trace-visible identity of a remote task instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemoteIdentity {
    /// The machine the task instance really runs on (its reported
    /// hostname, not the CONFIG label).
    pub host: HostName,
    /// The task-instance uid in the paper's composite encoding.
    pub task_uid: u64,
}

/// A job that came back without an answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lost {
    /// The remote instance the job was on (its stable index within the
    /// fleet), or `None` when it never reached one.
    pub instance: Option<u64>,
    /// What happened: connection loss, heartbeat silence, an application
    /// error on the far side, no instance left to run it.
    pub reason: String,
}

/// Called once when the job has been given to a remote instance — its
/// index within the fleet and its trace identity — on the thread that
/// gave it, possibly while the fleet holds its own lock: it must not call
/// back into the fleet. Not called for a job that never reaches an
/// instance.
pub type Started = Box<dyn FnOnce(u64, RemoteIdentity) + Send>;

/// Called once with the job's answer or its loss, after [`Started`] if
/// that was called at all, on whichever thread learned the outcome —
/// possibly inside [`JobFleet::submit`] itself. It must not block.
pub type Completion = Box<dyn FnOnce(Result<Unit, Lost>) + Send>;

/// Remote task instances that take jobs without making the caller wait.
pub trait JobFleet: Send + Sync {
    /// Where the next job should preferably run (a shard pool), if whoever
    /// dispatches it left word. One-shot: taking it clears it. A proxy
    /// takes it when it is *created* — once per dispatch, in dispatch
    /// order — and passes it to its own [`JobFleet::submit`] later.
    fn take_hint(&self) -> Option<u64> {
        None
    }

    /// Hand `job` over and return at once. The job runs on an instance of
    /// pool `hint` if one is free right now, on any free instance
    /// otherwise, and waits its turn when none is.
    fn submit(&self, hint: Option<u64>, job: Unit, started: Started, done: Completion);
}
