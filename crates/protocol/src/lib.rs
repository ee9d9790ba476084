//! # protocol — the generic master/worker coordination protocol
//!
//! This crate is the Rust transliteration of the paper's `protocolMW.m`:
//! a *generic* master/worker protocol in which the master and the worker
//! are parameters. The protocol only prescribes how instances of the master
//! and worker definitions communicate; what they compute is irrelevant to
//! it — the hallmark of exogenous coordination.
//!
//! The pieces, with their §4 counterparts:
//!
//! * [`ProtocolMw`] — the `ProtocolMW` manner (lines 54–64) and the
//!   `Create_Worker_Pool` manner it calls (lines 11–51), as one state
//!   machine: reacts to the master's `create_pool` requests by running a
//!   worker pool — one worker per `create_worker` event, wired with the
//!   three streams of line 36 (`&worker -> master`, `master -> worker`,
//!   `worker -> master.dataport`, the last one `KK` so it survives
//!   preemption), the rendezvous organized by counting `death_worker`
//!   events — and to `finished` by halting. [`protocol_mw`] drives it from
//!   a coordinator's own thread; a stepped coordinator steps it on the
//!   threads that raise into it ([`PerpetualPool::step`]).
//! * [`MasterHandle`] / [`WorkerHandle`] — the behavior interfaces of §4.3,
//!   step by step.
//! * [`scheduler`] — dispatch policies layered over the protocol: the
//!   paper's fork-per-job discipline ([`PaperFaithful`]), a bounded pool
//!   with backpressure ([`BoundedReuse`]), and longest-job-first ordering
//!   ([`CostAware`]). Both the live runtime and the cluster simulator
//!   consume the same [`DispatchPolicy`] trait.
//! * [`shard`] — the sharded dispatch layer above the policies: cost-aware
//!   partition of one pool across several shard masters ([`ShardPlan`]),
//!   pop-two-merge work stealing between their queues ([`StealQueues`]),
//!   and elastic fleet membership ([`MembershipDirectory`]). Each shard
//!   runs its [`DispatchPolicy`] unchanged over its slice.
//!
//! The event vocabulary matches the paper exactly: [`CREATE_POOL`],
//! [`CREATE_WORKER`], [`RENDEZVOUS`], [`A_RENDEZVOUS`], [`FINISHED`],
//! [`DEATH_WORKER`].

pub mod handles;
pub mod interpreted;
pub mod mw;
pub mod remote;
pub mod scheduler;
pub mod shard;

pub use handles::{MasterHandle, WorkerHandle};
pub use interpreted::{run_protocol_mc, run_protocol_source};
pub use mw::{protocol_mw, PerpetualPool, PoolStats, ProtocolMw, ProtocolOutcome};
pub use remote::{as_lost_job, lost_job_marker, remote_worker_factory, WORKER_LOST};
pub use scheduler::{
    parse_policy, BoundedReuse, CostAware, DispatchPolicy, PaperFaithful, PolicyRef,
};
pub use shard::{
    ChurnPlan, Membership, MembershipDirectory, ShardPlan, ShardSpec, StealEvent, StealQueues,
};

/// Master → coordinator: "I need a workers-pool to delegate work to"
/// (handled at line 61 of `protocolMW.m`).
pub const CREATE_POOL: &str = "create_pool";
/// Master → coordinator: "create one more worker in the pool" (line 27).
pub const CREATE_WORKER: &str = "create_worker";
/// Master → coordinator: "organize a rendezvous" (line 39).
pub const RENDEZVOUS: &str = "rendezvous";
/// Coordinator → master: "rendezvous acknowledged" (line 50).
pub const A_RENDEZVOUS: &str = "a_rendezvous";
/// Master → coordinator: "I do not need workers anymore" (line 63).
pub const FINISHED: &str = "finished";
/// Worker → coordinator: "I am done and going to die" (line 42).
pub const DEATH_WORKER: &str = "death_worker";
