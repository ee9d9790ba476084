//! # cluster — a simulated cluster of workstations
//!
//! The paper evaluates the renovated application "on a cluster of 32 single
//! processor workstations … All the machines in our cluster have an AMD
//! Athlon Processor and a cache size of 256Kb. However 24 machines have a
//! clock cycle of 1200Hz, 5 machines have a clock cycle of 1400Hz, and 3
//! machines have a clock cycle of 1466Hz. … The workstations in the cluster
//! are connected to each other by a switched Ethernet (100 Mbps)."
//!
//! We do not have that cluster, so this crate simulates it: a
//! discrete-event timeline model of the *distributed* execution of the
//! master/worker protocol, faithful to the MANIFOLD semantics that shape
//! the paper's results:
//!
//! * the master is strictly serial — it requests workers, feeds them data
//!   and collects their results one at a time through its own ports;
//! * task instances are forked and reused according to the *same*
//!   [`manifold::link::Bundler`] the live runtime uses (`perpetual`,
//!   `load 1`, one worker per machine);
//! * workers compute concurrently, each at its host's speed, perturbed by a
//!   seeded multi-user noise model (the paper ran at night, five times, and
//!   averaged);
//! * every data transfer crosses the 100 Mbps switched Ethernet model.
//!
//! Outputs per run: the elapsed (virtual) wall-clock time, the §6-format
//! chronological `Welcome`/`Bye` trace with virtual timestamps, and the
//! machines-in-use step function behind Figure 1 and the `m` column of
//! Table 1.
//!
//! There is one event loop, [`SimFleet`]'s ([`sim`]). The same loop runs
//! the sharded fleet past the paper's lab: [`DistributedSim::shards`]
//! masters over 1,000–10,000 synthetic hosts ([`hosts::synthetic_cluster`])
//! behind a two-level fabric ([`network::FabricModel`]), with work
//! stealing, membership churn and `poolkill` re-homing ([`shard`]). One
//! shard is the paper's flat master, so the scaling study's flat baseline
//! is the model Table 1 validates.

pub mod des;
pub mod hosts;
pub mod network;
pub mod noise;
pub mod shard;
pub mod sim;
pub mod timeline;
pub mod workload;

pub use hosts::{paper_cluster, synthetic_cluster, ClusterSpec, Host};
pub use network::{FabricModel, NetworkModel};
pub use noise::Perturbation;
pub use sim::{CoordCosts, DistributedReport, DistributedSim, SimFleet};
pub use timeline::StepTrace;
pub use workload::{Job, Workload};
