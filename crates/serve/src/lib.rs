//! # serve — event-driven multi-tenant admission and serving
//!
//! The paper's renovation ends with one concurrent application; this
//! crate is what a renovated codebase grows next: a *serving layer* that
//! multiplexes many tenants' job streams over the one persistent
//! [`Engine`](renovation::Engine) fleet, with the properties a shared
//! service needs and a batch run does not:
//!
//! * [`reactor`] — a readiness front end: nonblocking sockets in one
//!   hand-rolled `poll(2)` loop ([`transport::poll`]), frames in and out through the
//!   same CRC codec the worker transport uses. No thread per connection,
//!   so thousands of tenant sessions cost what their sockets cost;
//! * [`admission`] — bounded per-tenant queues, weighted fair-share
//!   dispatch (start-time fair queuing), explicit backpressure
//!   (`Reject` + retry-after instead of unbounded buffering), and
//!   per-tenant retry/fault budgets with quarantine;
//! * [`registry`] — the session table that routes a finished job's reply
//!   back to the socket that asked for it;
//! * [`daemon`] — the glue: one thread, `serve-loop`, owns the sockets,
//!   the session table and the engine; each turn it accepts, handles
//!   what the sockets brought, answers finished jobs, fills free engine
//!   slots from the fair-share queue and flushes; drain finishes every
//!   accepted job before the last outbox flush;
//! * [`proto`] / [`client`] — the tenant session protocol (`Hello` …
//!   `Drained`) and a blocking client for tests and load generators;
//! * [`journal`] — the crash-durability layer: a CRC-framed write-ahead
//!   journal of admissions and outcomes with snapshot compaction, resume
//!   tokens, and exactly-once reply replay across daemon restarts;
//! * [`backoff`] — seeded jittered exponential backoff for the client's
//!   Reject/reconnect retry loops, so a thousand tenants bounced by one
//!   crash do not stampede back in lockstep.
//!
//! The serving guarantee extends the paper's: every `Done` reply carries
//! the full combined field, **bit-identical** to a solo sequential run of
//! the same problem — multi-tenancy changes who waits, never what they
//! get.

pub mod admission;
pub mod backoff;
pub mod client;
pub mod daemon;
pub mod journal;
pub mod proto;
pub mod reactor;
pub mod registry;

pub use admission::{
    Admission, AdmissionConfig, AdmissionStats, Next, Offer, QueuedJob, TenantStats,
};
pub use backoff::Backoff;
pub use client::TenantClient;
pub use daemon::{Daemon, DaemonConfig, DaemonReport, DrainTrigger, EngineBuilder};
pub use journal::{Journal, JournalConfig, OutcomeBody, PendingJob, Recovery};
pub use proto::{field_checksum, RejectReason, ServeMsg, SERVE_PROTOCOL_VERSION};
