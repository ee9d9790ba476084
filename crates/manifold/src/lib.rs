//! # manifold — an IWIM coordination runtime in Rust
//!
//! This crate reimplements the semantic core of the MANIFOLD coordination
//! language (Arbab et al., CWI) as an embedded Rust DSL plus a multithreaded
//! runtime. MANIFOLD is a *coordination* language, not a computation
//! language: it expresses the cooperation protocols among the processes of a
//! concurrent application — who is connected to whom, through which streams,
//! and how the connection topology changes in reaction to events.
//!
//! The model is IWIM (Idealized Worker Idealized Manager). Its basic
//! concepts, all present here, are:
//!
//! * **Processes** ([`process::ProcessRef`]) — black boxes that can only read
//!   and write through the openings (**ports**) in their own bounding walls.
//!   *Atomic* processes ([`process::AtomicProcess`]) carry computation (they
//!   are the "C wrappers" of the paper); *coordinator* processes
//!   ([`coord::Coord`]) never compute — they only (re)connect ports and react
//!   to events.
//! * **Events** ([`event`]) — asynchronous broadcast signals. Every process
//!   owns an *event memory*; coordinators are state machines whose
//!   transitions are labelled by event patterns, with `save` / `ignore` /
//!   `priority` semantics and state *preemption*.
//! * **Ports** ([`port`]) — named openings (`input`, `output`, `error`, plus
//!   user-defined ones such as the paper's `dataport`).
//! * **Streams** ([`stream`]) — asynchronous, unbounded, FIFO channels
//!   connecting an output port to an input port, always set up by a *third
//!   party* (exogenous coordination). Streams have dismantling types
//!   ([`stream::StreamType`]): `BK` (Break source / Keep sink — the default),
//!   `KK`, `BB`, `KB`, governing what happens when the state that created
//!   them is preempted.
//!
//! On top of the language core, this crate also provides the two separate
//! application-construction stages the MANIFOLD toolchain implements:
//!
//! * [`link`] — the MLINK stage: bundling of process instances into
//!   *task instances* (operating-system-level processes) driven by
//!   `{task …}` specifications (`weight`, `load`, `perpetual`);
//! * [`config`] — the CONFIG stage: mapping of task instances onto named
//!   hosts (`{host …}` / `{locus …}` specifications).
//!
//! Inside this library a task instance is a bookkeeping entity: all process
//! instances really run as threads of the calling program, but the
//! assignment of processes to task instances and of task instances to hosts
//! is tracked faithfully and is exported to the [`trace`] facility (which
//! reproduces the chronological `Welcome` / `Bye` output format of the
//! paper) and to the `cluster` crate's discrete-event simulator.
//!
//! ## Quick example
//!
//! ```
//! use manifold::prelude::*;
//!
//! let env = Environment::new();
//! let result = env.run_coordinator("Main", |coord| {
//!     // An atomic "worker" that doubles every number it reads.
//!     let doubler = coord.create_atomic("Doubler", |ctx: ProcessCtx| {
//!         let x = ctx.read("input")?.as_real().unwrap();
//!         ctx.write("output", Unit::real(2.0 * x))?;
//!         Ok(())
//!     });
//!     coord.activate(&doubler)?;
//!     let mut st = coord.state();
//!     st.send(Unit::real(21.0), &doubler, "input")?;
//!     st.connect_to_self(&doubler, "output", "input", StreamType::BK)?;
//!     // Read while the state (and its streams) are still connected.
//!     let out = coord.read("input")?;
//!     drop(st);
//!     assert_eq!(out.as_real(), Some(42.0));
//!     Ok(())
//! });
//! result.unwrap();
//! env.shutdown();
//! ```

pub mod builtin;
pub mod config;
pub mod coord;
pub mod env;
pub mod error;
pub mod event;
pub mod ident;
pub mod lang;
pub mod link;
pub(crate) mod pool;
pub mod port;
pub mod process;
pub mod remote;
pub mod stream;
pub mod trace;
pub mod unit;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::config::{ConfigSpec, HostName};
    pub use crate::coord::{Coord, StateExit, StateScope};
    pub use crate::env::Environment;
    pub use crate::error::{MfError, MfResult};
    pub use crate::event::{Event, EventOccurrence, EventPattern};
    pub use crate::ident::{Name, ProcessId};
    pub use crate::link::{LinkSpec, TaskSpec};
    pub use crate::process::{AtomicProcess, ProcessCtx, ProcessRef, Step};
    pub use crate::stream::StreamType;
    pub use crate::unit::Unit;
}

pub use prelude::*;
