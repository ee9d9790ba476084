//! The executor seam: everything the tree-walking interpreter and the
//! compiled state-machine VM share, and the one way to run a manner under
//! either.
//!
//! The two executors differ only in *how* they run a manner. The
//! [`Interp`] walks the AST on a closure coordinator's thread and blocks
//! in its waits; the [`Vm`] steps pre-compiled code as a stepped
//! coordinator, on whichever thread raises an event into it, and owns no
//! thread. The value model ([`Value`]), the host interface
//! ([`AtomicFactory`] plus the typed `expect_*_arg` helpers), the trace
//! attribution, and the structural checks are shared verbatim.
//! [`CoordExec`] is the user-facing selector (`--coord interp|compiled`,
//! compiled by default); [`Mc`] bundles a parsed program with its compiled
//! form, and [`Environment::run_manner`] runs one of its manners under
//! either executor.

use std::str::FromStr;
use std::sync::Arc;
use std::task::Poll;

use parking_lot::Mutex;

use crate::builtin::Variable;
use crate::coord::Coord;
use crate::env::Environment;
use crate::error::{MfError, MfResult};
use crate::ident::Name;
use crate::lang::ast::Program;
use crate::lang::compile::{compile, CompiledProgram};
use crate::lang::error::{LangError, LangErrorKind};
use crate::lang::interp::Interp;
use crate::lang::parse::parse_program;
use crate::lang::vm::Vm;
use crate::process::{LifeState, ProcessRef, Step};

/// Host-supplied constructor for an atomic manifold: receives the
/// coordinator and the (resolved) constructor arguments, returns a created
/// (not yet activated) process.
pub type AtomicFactory = Arc<dyn Fn(&Coord, &[Value]) -> MfResult<ProcessRef> + Send + Sync>;

/// A runtime value bound to a MANIFOLD name.
#[derive(Clone)]
pub enum Value {
    /// A process instance.
    Process(ProcessRef),
    /// A `variable` instance.
    Variable(Variable),
    /// An event name.
    Event(Name),
    /// A manifold definition (atomic factory).
    Manifold(AtomicFactory),
    /// An integer.
    Int(i64),
}

impl Value {
    /// The kind of this value, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Process(_) => "process",
            Value::Variable(_) => "variable",
            Value::Event(_) => "event",
            Value::Manifold(_) => "manifold",
            Value::Int(_) => "int",
        }
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Process(p) => write!(f, "Process({p:?})"),
            Value::Variable(_) => write!(f, "Variable"),
            Value::Event(e) => write!(f, "Event({e})"),
            Value::Manifold(_) => write!(f, "Manifold"),
            Value::Int(v) => write!(f, "Int({v})"),
        }
    }
}

fn bad_arg(args: &[Value], index: usize, expected: &'static str) -> LangError {
    LangError::new(LangErrorKind::BadArgument {
        index,
        expected,
        found: args.get(index).map(Value::kind).unwrap_or("nothing"),
    })
}

/// Typed access to an [`AtomicFactory`] argument: the event at `index`, or
/// a [`LangError`] the runtime re-attributes to the `process … is …`
/// declaration that invoked the factory (instead of the historical
/// `panic!("worker factory expected an event")`).
pub fn expect_event_arg(args: &[Value], index: usize) -> Result<Name, LangError> {
    match args.get(index) {
        Some(Value::Event(e)) => Ok(e.clone()),
        _ => Err(bad_arg(args, index, "event")),
    }
}

/// Typed access to an [`AtomicFactory`] argument: the process at `index`.
pub fn expect_process_arg(args: &[Value], index: usize) -> Result<ProcessRef, LangError> {
    match args.get(index) {
        Some(Value::Process(p)) => Ok(p.clone()),
        Some(Value::Variable(v)) => Ok(v.process().clone()),
        _ => Err(bad_arg(args, index, "process")),
    }
}

/// Typed access to an [`AtomicFactory`] argument: the integer at `index`.
pub fn expect_int_arg(args: &[Value], index: usize) -> Result<i64, LangError> {
    match args.get(index) {
        Some(Value::Int(v)) => Ok(*v),
        Some(Value::Variable(v)) => Ok(v.get_int()),
        _ => Err(bad_arg(args, index, "int")),
    }
}

/// Executor selector: which engine runs coordinator specs.
///
/// The compiled VM is the default — it is bit-identical to the interpreter
/// (enforced by differential tests) and keeps coordination overhead within
/// a small factor of the hand-written native protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoordExec {
    /// Tree-walk the AST (the original `lang::interp` path).
    Interp,
    /// Step compiled state-machine IR (`lang::compile` + `lang::vm`).
    #[default]
    Compiled,
}

impl CoordExec {
    /// Both executors, in comparison order (interp first, then compiled).
    pub const ALL: [CoordExec; 2] = [CoordExec::Interp, CoordExec::Compiled];

    /// The selector's command-line spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CoordExec::Interp => "interp",
            CoordExec::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for CoordExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for CoordExec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" | "interpreter" | "tree" => Ok(CoordExec::Interp),
            "compiled" | "vm" => Ok(CoordExec::Compiled),
            other => Err(format!(
                "unknown coordinator executor {other:?} (expected interp or compiled)"
            )),
        }
    }
}

/// The whole `Mc` compiler as one artifact: a parsed [`Program`] plus its
/// [`CompiledProgram`], from which either executor runs a manner
/// ([`Environment::run_manner`]); every [`Vm`] shares the compiled code.
pub struct Mc {
    program: Program,
    pub(super) compiled: Arc<CompiledProgram>,
}

impl Mc {
    /// Parse and compile MANIFOLD source.
    pub fn from_source(source: &str) -> MfResult<Mc> {
        Self::from_program(parse_program(source)?)
    }

    /// Compile an already-parsed program.
    pub(crate) fn from_program(program: Program) -> MfResult<Mc> {
        let compiled = Arc::new(compile(&program)?);
        Ok(Mc { program, compiled })
    }

    /// The parsed AST.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The compiled state-machine code the VM steps.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }
}

/// [`Environment::run_manner`].
pub(crate) fn run_manner(
    env: &Environment,
    mc: &Mc,
    kind: CoordExec,
    source_name: &str,
    manner: &str,
    make_args: impl FnOnce(&mut Coord) -> MfResult<Vec<Value>>,
) -> MfResult<()> {
    match kind {
        CoordExec::Interp => env.run_coordinator(Name::new(manner), |coord| {
            let args = make_args(coord)?;
            for p in unstarted(&args) {
                coord.activate(&p)?;
            }
            Interp::new(&mc.program, source_name).call_manner(coord, manner, args)
        }),
        CoordExec::Compiled => {
            let ended = Arc::new(Mutex::new(None));
            let ended2 = ended.clone();
            let mut drivers = Vec::new();
            let log = env.log().clone();
            let coordinator = env.prepare_stepped_coordinator(manner, log, |coord| {
                let args = make_args(coord)?;
                drivers = unstarted(&args);
                let mut vm = Vm::new(mc, source_name, manner, args);
                Ok(move |coord: &Coord| {
                    Ok(match vm.step(coord) {
                        Poll::Pending => Step::Pending,
                        Poll::Ready(r) => {
                            *ended2.lock() = Some(r);
                            Step::Done
                        }
                    })
                })
            })?;
            // The first step runs here and now, up to the manner's first
            // wait.
            env.activate(&coordinator)?;
            // Activation fails only for a process that is no longer
            // unstarted: the manner returned first, and its coordinator's
            // exit ended it without ever running it.
            if let Some((first, others)) = drivers.split_first() {
                for p in others {
                    let _ = env.activate(p);
                }
                let _ = env.run_to_completion(first);
            }
            coordinator.core().wait_until_terminated();
            let ended = ended.lock().take();
            // Never ended: the coordinator was killed, or its step panicked.
            ended.unwrap_or_else(|| Err(coordinator.core().failure().unwrap_or(MfError::Killed)))
        }
    }
}

/// The process arguments `make_args` created but did not activate.
fn unstarted(args: &[Value]) -> Vec<ProcessRef> {
    args.iter()
        .filter_map(|a| match a {
            Value::Process(p) if p.life_state() == LifeState::Created => Some(p.clone()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessCtx;

    #[test]
    fn selector_parses_and_defaults_to_compiled() {
        assert_eq!(CoordExec::default(), CoordExec::Compiled);
        assert_eq!("interp".parse::<CoordExec>().unwrap(), CoordExec::Interp);
        assert_eq!("vm".parse::<CoordExec>().unwrap(), CoordExec::Compiled);
        assert_eq!(
            "compiled".parse::<CoordExec>().unwrap(),
            CoordExec::Compiled
        );
        assert!("native".parse::<CoordExec>().is_err());
    }

    #[test]
    fn expect_helpers_diagnose_kind_and_index() {
        let args = vec![Value::Int(3)];
        let e = expect_event_arg(&args, 0).unwrap_err();
        assert!(matches!(
            e.kind,
            LangErrorKind::BadArgument {
                index: 0,
                expected: "event",
                found: "int"
            }
        ));
        let e = expect_process_arg(&args, 1).unwrap_err();
        assert!(matches!(
            e.kind,
            LangErrorKind::BadArgument {
                found: "nothing",
                ..
            }
        ));
        assert_eq!(expect_int_arg(&args, 0).unwrap(), 3);
    }

    #[test]
    fn mc_builds_both_executors_for_the_paper_source() {
        let mc = Mc::from_source(crate::lang::PROTOCOL_MW_SOURCE).unwrap();
        assert!(mc.program().coordinator("ProtocolMW").is_some());
        assert!(mc.compiled().manner("ProtocolMW").is_some());
        for kind in CoordExec::ALL {
            let env = Environment::new();
            // A master that leaves at once ends the protocol in its `begin`
            // state; `run_manner` starts it, since nobody else did.
            env.run_manner(&mc, kind, "protocolMW.m", "ProtocolMW", |coord| {
                let master = coord.create_atomic("Master", |_ctx: ProcessCtx| Ok(()));
                let worker: AtomicFactory = Arc::new(|_, _| unreachable!("no worker requested"));
                Ok(vec![Value::Process(master), Value::Manifold(worker)])
            })
            .unwrap();
            assert_eq!(env.live_processes(), 0, "{kind}");
            env.shutdown();
            assert!(env.failures().is_empty(), "{kind}");
        }
    }
}
