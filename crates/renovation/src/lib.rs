//! # renovation — the renovated concurrent application
//!
//! The paper's end product: the sequential sparse-grid program restructured
//! into a concurrent application *without rewriting its numerical core*.
//! This crate contains the pieces §5 describes:
//!
//! * [`master`] — the Master wrapper: everything the original `main` did
//!   except the `subsolve` calls, expressed through the master behavior
//!   interface of §4.3 (create a pool, request workers, feed them, collect
//!   results, rendezvous, prolongate);
//! * [`worker`] — the Worker wrapper around `subsolve` (read the job from
//!   the input port, compute, write the result, raise `death_worker`);
//! * [`codec`] — the unit encoding of [`SubsolveRequest`] /
//!   [`SubsolveResult`] payloads travelling through MANIFOLD streams;
//! * [`app`] — `mainprog.m`: wiring Master + Worker into `ProtocolMW` under
//!   an [`Environment`], in the paper's two flavours — **parallel** (all
//!   processes bundled into one task instance: `load 6`) and
//!   **distributed** (one worker per task instance per machine: `load 1`,
//!   `perpetual`);
//! * [`engine`] — the multi-job [`Engine`](engine::Engine): one persistent
//!   worker fleet (threads, OS processes, or the simulated cluster)
//!   serving a stream of jobs, each bit-identical to a solo run; the
//!   one-shot entry points are thin wrappers over a single-job engine;
//! * [`cost`] — the calibrated cost model translating solver work into the
//!   virtual seconds of the `cluster` simulator;
//! * [`virtualrun`] — the Table 1 / Figure 1 experiment driver running the
//!   paper's full parameter sweep on the simulated cluster.
//!
//! The headline guarantee, tested end to end: the concurrent versions
//! produce **bit-identical** results to the sequential program ("These are
//! written to a file and are exactly the same as in the sequential
//! version", §6).
//!
//! [`SubsolveRequest`]: solver::SubsolveRequest
//! [`SubsolveResult`]: solver::SubsolveResult
//! [`Environment`]: manifold::Environment

pub mod app;
pub mod checkpoint;
pub mod codec;
pub mod cost;
pub mod engine;
pub mod master;
pub mod procs;
pub mod supervisor;
pub mod virtualrun;
pub mod worker;

pub use app::{
    run_concurrent, run_concurrent_opts, run_concurrent_with_policy, ConcurrentResult, RunMode,
    RunOpts,
};
pub use checkpoint::{atomic_replace, Checkpoint, CheckpointStore, RunKey};
pub use cost::{parse_subsolve_label, CostModel};
pub use engine::{
    AppConfig, Engine, EngineBackend, EngineOpts, EngineSummary, FleetFootprint, JobHandle,
    JobReport, SubmitError,
};
pub use master::{master_body, FleetMembership, MasterConfig};
pub use procs::{run_concurrent_procs, run_worker_child, ProcsConfig};
pub use supervisor::{supervise, SupervisedRun};
pub use virtualrun::{
    run_distributed_experiment, run_distributed_experiment_with_policy, ExperimentPoint,
};
pub use worker::{worker_factory, worker_factory_with_gauge, WorkerGauge};
