//! The tree-walking interpreter for the coordinator subset of MANIFOLD:
//! runs parsed manners (e.g. the paper's `protocolMW.m`, verbatim) against
//! the live runtime.
//!
//! This is the *reference* executor: it walks the AST directly, which keeps
//! it auditably close to the language report but re-derives structure
//! (label sorts, pattern lists, name hashing) on every step, and it runs
//! as a closure coordinator, blocking its thread in every wait. The
//! compiled [`crate::lang::vm::Vm`] is the production path; the
//! differential property tests in `tests/lang_proptests.rs` hold the two
//! bit-identical. Select between them with [`crate::lang::CoordExec`].
//!
//! ## Semantics implemented
//!
//! * A block performs its declarations, then visits its `begin` state.
//! * A state body runs to completion unless a waiting action (`IDLE` =
//!   `terminated(void)`, or `terminated(p)`) is preempted by an event that
//!   labels a state of this block (or an enclosing one).
//! * When a body completes, a pending occurrence matching a local label
//!   causes a transition; one matching an outer label exits the block;
//!   otherwise the block *completes* and control returns to its caller —
//!   which is how `Create_Worker_Pool` returns after its `end` state, and
//!   how `ProtocolMW` returns when `terminated(master)` completes.
//! * `halt` returns from the enclosing manner immediately.
//! * `priority a > b.` orders the wait patterns; `ignore e.` purges `e`
//!   occurrences on block exit; `stream TY a -> b.` gives matching chain
//!   segments the dismantling type `TY`; `post`/`raise`/assignments/`if`
//!   behave as in §4.2.
//!
//! ## Host interface
//!
//! Atomic manifolds (the "C wrappers") are supplied by the host as
//! [`AtomicFactory`](super::exec::AtomicFactory) closures; already-running
//! processes (the paper's `master` parameter) are passed as bindings. `variable` is built in.
//! Malformed specs diagnose with typed [`LangError`]s carrying source
//! lines, never panics.

use std::collections::HashMap;

use crate::builtin::Variable;
use crate::coord::Coord;
use crate::error::{MfError, MfResult};
use crate::event::{EventOccurrence, EventPattern};
use crate::ident::Name;
use crate::lang::ast::*;
use crate::lang::compile::{endpoints_match, parse_stream_type};
use crate::lang::error::{attribute_line, LangError, LangErrorKind};
#[cfg(test)]
use crate::lang::exec::AtomicFactory;
use crate::lang::exec::Value;
use crate::process::ProcessRef;
use crate::stream::{Stream, StreamType};
use crate::unit::Unit;

/// The interpreter for one program.
pub struct Interp<'p> {
    program: &'p Program,
    source_name: String,
}

/// How a body/block finished.
enum Flow {
    /// Ran to completion.
    Done,
    /// Preempted by an event occurrence (not matching any local label).
    Preempted(EventOccurrence),
    /// `halt` executed: unwind to the manner boundary.
    Halted,
}

struct Frame<'f> {
    bindings: HashMap<String, Value>,
    parent: Option<&'f Frame<'f>>,
}

impl<'f> Frame<'f> {
    fn lookup(&self, name: &str) -> Option<Value> {
        match self.bindings.get(name) {
            Some(v) => Some(v.clone()),
            None => self.parent.and_then(|p| p.lookup(name)),
        }
    }
}

impl<'p> Interp<'p> {
    /// Create an interpreter for `program`. `source_name` labels MES trace
    /// records.
    pub fn new(program: &'p Program, source_name: impl Into<String>) -> Self {
        Interp {
            program,
            source_name: source_name.into(),
        }
    }

    /// Call an exported manner by name with the given arguments.
    pub fn call_manner(&self, coord: &Coord, name: &str, args: Vec<Value>) -> MfResult<()> {
        let (params, body, _) = self
            .program
            .coordinator(name)
            .ok_or_else(|| LangError::new(LangErrorKind::UnknownManner(name.to_string())))?;
        let root = Frame {
            bindings: HashMap::new(),
            parent: None,
        };
        self.run_manner(coord, name, params, body, args, &root, 0)?;
        Ok(())
    }

    fn bind_params(
        &self,
        manner: &str,
        params: &[Param],
        args: Vec<Value>,
        line: u32,
    ) -> MfResult<HashMap<String, Value>> {
        if params.len() != args.len() {
            return Err(LangError::at(
                LangErrorKind::ArityMismatch {
                    manner: manner.to_string(),
                    params: params.len(),
                    args: args.len(),
                },
                line,
            )
            .into());
        }
        let mut bindings = HashMap::new();
        for (p, a) in params.iter().zip(args) {
            let name = match p {
                Param::Process { name, .. } => name,
                Param::Manifold { name, .. } => name,
                Param::Event(name) => name,
                Param::Port { name, .. } => name,
            };
            bindings.insert(name.clone(), a);
        }
        Ok(bindings)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_manner(
        &self,
        coord: &Coord,
        name: &str,
        params: &[Param],
        body: &Block,
        args: Vec<Value>,
        parent: &Frame<'_>,
        line: u32,
    ) -> MfResult<()> {
        let bindings = self.bind_params(name, params, args, line)?;
        // Mentioning a process parameter in a manner tunes the coordinator
        // to its events (as the `terminated(master)` sensitivity of §4.2);
        // watch process arguments up front so no early raise is lost.
        for v in bindings.values() {
            if let Value::Process(p) = v {
                coord.watch(p);
            }
        }
        let frame = Frame {
            bindings,
            parent: Some(parent),
        };
        // The manner's block owns what it declares: its `variable`s and the
        // processes its factories create die when it returns.
        let flow = coord.scope(|coord| self.run_block(coord, body, &frame, &[]))?;
        // A manner boundary absorbs `halt`.
        match flow {
            Flow::Done | Flow::Halted => Ok(()),
            Flow::Preempted(occ) => Err(MfError::App(format!(
                "manner exited on unhandled occurrence {occ:?}"
            ))),
        }
    }

    /// Execute one block: declarations, then the state machine.
    fn run_block(
        &self,
        coord: &Coord,
        block: &Block,
        parent: &Frame<'_>,
        outer_labels: &[Name],
    ) -> MfResult<Flow> {
        let mut bindings: HashMap<String, Value> = HashMap::new();
        let mut priorities: Vec<(String, String)> = Vec::new();
        let mut ignores: Vec<Name> = Vec::new();
        let mut stream_decls: Vec<(StreamType, Endpoint, Endpoint)> = Vec::new();

        for d in &block.declarations {
            match d {
                Declaration::Save(_) | Declaration::Hold(_) | Declaration::Internal => {}
                Declaration::Ignore(names) => {
                    ignores.extend(names.iter().map(Name::new));
                }
                Declaration::Event(names) => {
                    for n in names {
                        bindings.insert(n.clone(), Value::Event(Name::new(n)));
                    }
                }
                Declaration::Priority { higher, lower } => {
                    priorities.push((higher.clone(), lower.clone()));
                }
                Declaration::Process {
                    name,
                    ctor,
                    args,
                    line,
                    ..
                } => {
                    let frame = Frame {
                        bindings: bindings.clone(),
                        parent: Some(parent),
                    };
                    let value = if ctor == "variable" {
                        let init = match args.first() {
                            Some(e) => self.eval_int(e, &frame, *line)?,
                            None => 0,
                        };
                        Value::Variable(Variable::spawn(coord, name, Unit::int(init))?)
                    } else {
                        let factory = match frame.lookup(ctor) {
                            Some(Value::Manifold(f)) => f,
                            _ => {
                                return Err(LangError::at(
                                    LangErrorKind::NotAManifold(ctor.clone()),
                                    *line,
                                )
                                .into())
                            }
                        };
                        let argv: Vec<Value> = args
                            .iter()
                            .map(|a| self.eval_value(a, &frame, *line))
                            .collect::<MfResult<_>>()?;
                        let p = factory(coord, &argv).map_err(|e| attribute_line(e, *line))?;
                        Value::Process(p)
                    };
                    bindings.insert(name.clone(), value);
                }
                Declaration::Stream { ty, from, to } => match parse_stream_type(ty) {
                    Some(sty) => stream_decls.push((sty, from.clone(), to.clone())),
                    None => {
                        return Err(
                            LangError::new(LangErrorKind::UnknownStreamType(ty.clone())).into()
                        )
                    }
                },
            }
        }

        let frame = Frame {
            bindings,
            parent: Some(parent),
        };
        let local_labels: Vec<Name> = block.states.iter().map(|s| Name::new(&s.label)).collect();
        // Wait patterns: local labels (priority-sorted) then outer labels.
        let mut ordered: Vec<Name> = local_labels.clone();
        ordered.sort_by_key(|n| {
            // Lower index = higher priority; default order of appearance,
            // bumped by explicit priority declarations.
            let base = block
                .states
                .iter()
                .position(|s| s.label == n.as_str())
                .unwrap_or(usize::MAX);
            let boost = priorities
                .iter()
                .position(|(hi, _)| hi == n.as_str())
                .map(|_| 0usize)
                .unwrap_or(1);
            (boost, base)
        });

        let mut current = "begin".to_string();
        let exit = loop {
            let state = block
                .state(&current)
                .ok_or_else(|| LangError::new(LangErrorKind::NoSuchState(current.clone())))?;
            let mut streams: Vec<Arc2> = Vec::new();
            let flow = self.exec(
                coord,
                &state.body,
                &frame,
                &ordered,
                outer_labels,
                &stream_decls,
                &mut streams,
                state.line,
            );
            // State preemption: dismantle this state's streams.
            for s in &streams {
                s.dismantle();
            }
            let flow = flow?;
            match flow {
                Flow::Halted => break Flow::Halted,
                Flow::Preempted(occ) => {
                    let name = occ.name().cloned();
                    match name {
                        Some(n) if local_labels.contains(&n) => {
                            current = n.as_str().to_string();
                        }
                        _ => break Flow::Preempted(occ),
                    }
                }
                Flow::Done => {
                    // Body completed: pending local label → transition;
                    // pending outer label → exit; else the block completes.
                    let local_pats: Vec<EventPattern> = ordered
                        .iter()
                        .map(|n| EventPattern::Named(n.clone()))
                        .collect();
                    if let Some((_, occ)) = coord.ctx().core().events().try_select(&local_pats) {
                        current = occ.name().unwrap().as_str().to_string();
                        continue;
                    }
                    let outer_pats: Vec<EventPattern> = outer_labels
                        .iter()
                        .map(|n| EventPattern::Named(n.clone()))
                        .collect();
                    if let Some((_, occ)) = coord.ctx().core().events().try_select(&outer_pats) {
                        break Flow::Preempted(occ);
                    }
                    break Flow::Done;
                }
            }
        };
        // `ignore e.`: purge on departure from the block.
        for e in &ignores {
            coord.ctx().core().events().purge_named(e);
        }
        Ok(exit)
    }

    /// Execute one action.
    #[allow(clippy::too_many_arguments)]
    fn exec(
        &self,
        coord: &Coord,
        action: &Action,
        frame: &Frame<'_>,
        local_labels: &[Name],
        outer_labels: &[Name],
        stream_decls: &[(StreamType, Endpoint, Endpoint)],
        streams: &mut Vec<Arc2>,
        line: u32,
    ) -> MfResult<Flow> {
        match action {
            Action::Seq(parts) | Action::Group(parts) => {
                for p in parts {
                    match self.exec(
                        coord,
                        p,
                        frame,
                        local_labels,
                        outer_labels,
                        stream_decls,
                        streams,
                        line,
                    )? {
                        Flow::Done => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Done)
            }
            Action::Block(b) => {
                let mut outer: Vec<Name> = local_labels.to_vec();
                outer.extend_from_slice(outer_labels);
                self.run_block(coord, b, frame, &outer)
            }
            Action::Chain(endpoints) => {
                self.build_chain(coord, endpoints, frame, stream_decls, streams, line)?;
                Ok(Flow::Done)
            }
            Action::Call { name, args } => {
                let argv: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval_value(a, frame, line))
                    .collect::<MfResult<_>>()?;
                if let Some((params, body, _)) = self.program.coordinator(name) {
                    self.run_manner(coord, name, params, body, argv, frame, line)?;
                    return Ok(Flow::Done);
                }
                Err(LangError::at(LangErrorKind::UnknownManner(name.clone()), line).into())
            }
            Action::Post(e) => {
                coord.post(e.as_str());
                Ok(Flow::Done)
            }
            Action::Raise(e) => {
                coord.raise(e.as_str());
                Ok(Flow::Done)
            }
            Action::Halt => Ok(Flow::Halted),
            Action::PreemptAll => Ok(Flow::Done),
            Action::Mes(msg) => {
                coord.ctx().trace(&self.source_name, line, msg.clone());
                Ok(Flow::Done)
            }
            Action::Terminated(pname) => {
                let mut pats: Vec<EventPattern> = local_labels
                    .iter()
                    .chain(outer_labels)
                    .map(|n| EventPattern::Named(n.clone()))
                    .collect();
                if pname == "void" {
                    // IDLE: only events can get us out.
                    let (_, occ) = coord.ctx().core().events().wait_select(&pats)?;
                    return Ok(Flow::Preempted(occ));
                }
                let p = match frame.lookup(pname) {
                    Some(Value::Process(p)) => p,
                    _ => {
                        return Err(
                            LangError::at(LangErrorKind::NotAProcess(pname.clone()), line).into(),
                        )
                    }
                };
                coord.watch(&p);
                pats.push(EventPattern::Terminated(p.id()));
                let (idx, occ) = coord.ctx().core().events().wait_select(&pats)?;
                if idx == pats.len() - 1 && occ.is_termination_of(p.id()) {
                    Ok(Flow::Done)
                } else {
                    Ok(Flow::Preempted(occ))
                }
            }
            Action::Assign { name, value } => {
                let v = self.eval_int(value, frame, line)?;
                match frame.lookup(name) {
                    Some(Value::Variable(var)) => {
                        var.set(Unit::int(v));
                        Ok(Flow::Done)
                    }
                    _ => Err(LangError::at(LangErrorKind::NotAVariable(name.clone()), line).into()),
                }
            }
            Action::If {
                cond,
                then,
                otherwise,
            } => {
                let lhs = self.eval_int(&cond.lhs, frame, line)?;
                let rhs = self.eval_int(&cond.rhs, frame, line)?;
                let hit = match cond.op {
                    '<' => lhs < rhs,
                    '>' => lhs > rhs,
                    '=' => lhs == rhs,
                    _ => unreachable!(),
                };
                let branch = if hit {
                    Some(then.as_ref())
                } else {
                    otherwise.as_deref()
                };
                match branch {
                    Some(a) => self.exec(
                        coord,
                        a,
                        frame,
                        local_labels,
                        outer_labels,
                        stream_decls,
                        streams,
                        line,
                    ),
                    None => Ok(Flow::Done),
                }
            }
            Action::Mention(_) => Ok(Flow::Done),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_chain(
        &self,
        _coord: &Coord,
        endpoints: &[Endpoint],
        frame: &Frame<'_>,
        stream_decls: &[(StreamType, Endpoint, Endpoint)],
        streams: &mut Vec<Arc2>,
        line: u32,
    ) -> MfResult<()> {
        for pair in endpoints.windows(2) {
            let (from, to) = (&pair[0], &pair[1]);
            let ty = stream_decls
                .iter()
                .find(|(_, f, t)| endpoints_match(f, from) && endpoints_match(t, to))
                .map(|(ty, _, _)| *ty)
                .unwrap_or(StreamType::BK);
            let sink = self.resolve_process(&to.process, frame, line)?;
            let sink_port = sink.port(to.port.clone().unwrap_or_else(|| "input".into()));
            if from.is_ref {
                // `&p -> q`: a one-shot reference unit from the coordinator.
                let p = self.resolve_process(&from.process, frame, line)?;
                let s = Stream::preloaded(ty, [Unit::ProcessRef(p)]);
                sink_port.attach_incoming(&s);
                streams.push(s);
            } else {
                let src = self.resolve_process(&from.process, frame, line)?;
                let src_port = src.port(from.port.clone().unwrap_or_else(|| "output".into()));
                let s = Stream::new(ty);
                src_port.attach_outgoing(&s);
                sink_port.attach_incoming(&s);
                streams.push(s);
            }
        }
        Ok(())
    }

    fn resolve_process(&self, name: &str, frame: &Frame<'_>, line: u32) -> MfResult<ProcessRef> {
        match frame.lookup(name) {
            Some(Value::Process(p)) => Ok(p),
            Some(Value::Variable(v)) => Ok(v.process().clone()),
            _ => Err(LangError::at(LangErrorKind::NotAProcess(name.to_string()), line).into()),
        }
    }

    fn eval_value(&self, e: &Expr, frame: &Frame<'_>, line: u32) -> MfResult<Value> {
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Var(name) | Expr::Ref(name) => frame
                .lookup(name)
                .ok_or_else(|| LangError::at(LangErrorKind::Unbound(name.clone()), line).into()),
            Expr::Binary { .. } => Ok(Value::Int(self.eval_int(e, frame, line)?)),
            Expr::Call { .. } => Err(LangError::at(LangErrorKind::NestedCall, line).into()),
        }
    }

    fn eval_int(&self, e: &Expr, frame: &Frame<'_>, line: u32) -> MfResult<i64> {
        match e {
            Expr::Int(v) => Ok(*v),
            Expr::Var(name) => match frame.lookup(name) {
                Some(Value::Int(v)) => Ok(v),
                Some(Value::Variable(var)) => Ok(var.get_int()),
                other => Err(LangError::at(
                    LangErrorKind::NotNumeric {
                        name: name.clone(),
                        found: format!("{other:?}"),
                    },
                    line,
                )
                .into()),
            },
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval_int(lhs, frame, line)?;
                let r = self.eval_int(rhs, frame, line)?;
                Ok(match op {
                    '+' => l + r,
                    '-' => l - r,
                    _ => unreachable!(),
                })
            }
            _ => Err(LangError::at(LangErrorKind::NonNumericExpr, line).into()),
        }
    }
}

type Arc2 = std::sync::Arc<Stream>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environment;
    use crate::lang::parse::parse_program;
    use crate::process::ProcessCtx;
    use std::sync::Arc;

    #[test]
    fn interprets_trivial_manner() {
        let prog = parse_program("manner Go() { begin: halt. }").unwrap();
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            Interp::new(&prog, "go.m").call_manner(coord, "Go", vec![])
        })
        .unwrap();
        env.shutdown();
    }

    #[test]
    fn interprets_post_transitions_and_variables() {
        let src = "manner Count() {\
            auto process n is variable(0).\
            begin: n = n + 1; if (n < 3) then ( post (begin) ) else ( post (done) ).\
            done: (MES(\"counted\"), halt).\
        }";
        let prog = parse_program(src).unwrap();
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            Interp::new(&prog, "count.m").call_manner(coord, "Count", vec![])
        })
        .unwrap();
        let msgs: Vec<String> = env
            .trace()
            .snapshot()
            .into_iter()
            .map(|r| r.message)
            .collect();
        assert!(msgs.contains(&"counted".to_string()));
        env.shutdown();
    }

    #[test]
    fn manner_calls_nest_and_halt_stops_only_the_inner_manner() {
        // Outer calls Inner; Inner halts; Outer continues to its own done
        // state — `halt` returns from the *enclosing manner* only.
        let src = "\
            manner Inner() { begin: (MES(\"inner\"), halt). }\
            manner Outer() { begin: Inner(); post (done). \
                             done: (MES(\"outer done\"), halt). }";
        let prog = parse_program(src).unwrap();
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            Interp::new(&prog, "nest.m").call_manner(coord, "Outer", vec![])
        })
        .unwrap();
        let msgs: Vec<String> = env
            .trace()
            .snapshot()
            .into_iter()
            .map(|r| r.message)
            .collect();
        assert_eq!(msgs, vec!["inner".to_string(), "outer done".into()]);
        env.shutdown();
    }

    #[test]
    fn block_completion_returns_to_caller() {
        // A manner whose begin state completes (no waits, no pending
        // events) simply returns — the `terminated(master)` completion
        // semantics of ProtocolMW's begin state.
        let src = "manner Quick() { begin: MES(\"ran\"). }";
        let prog = parse_program(src).unwrap();
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            Interp::new(&prog, "quick.m").call_manner(coord, "Quick", vec![])
        })
        .unwrap();
        assert_eq!(env.trace().len(), 1);
        env.shutdown();
    }

    #[test]
    fn unknown_manner_and_arity_errors_are_typed() {
        let prog = parse_program("manner F(process p) { begin: halt. }").unwrap();
        let env = Environment::new();
        let r = env.run_coordinator("Main", |coord| {
            let i = Interp::new(&prog, "f.m");
            assert_eq!(
                i.call_manner(coord, "Nope", vec![]),
                Err(LangError::new(LangErrorKind::UnknownManner("Nope".into())).into())
            );
            // Arity mismatch, diagnosed with the manner's name.
            match i.call_manner(coord, "F", vec![]) {
                Err(MfError::Lang(e)) => assert_eq!(
                    e.kind,
                    LangErrorKind::ArityMismatch {
                        manner: "F".into(),
                        params: 1,
                        args: 0
                    }
                ),
                other => panic!("expected arity error, got {other:?}"),
            }
            Ok(())
        });
        assert!(r.is_ok());
        env.shutdown();
    }

    #[test]
    fn interprets_stream_chain_to_worker() {
        // A manner that wires an externally-supplied producer to a worker
        // built from a manifold parameter, waits for its `done` event.
        let src = "manner Wire(process source, manifold Sink(event)) {\
            event done.\
            process snk is Sink(done).\
            begin: (source -> snk, terminated (void)).\
            done: halt.\
        }";
        let prog = parse_program(src).unwrap();
        let env = Environment::new();
        let got = Arc::new(parking_lot::Mutex::new(None));
        let got2 = got.clone();
        env.run_coordinator("Main", |coord| {
            let source = coord.create_atomic("Source", |ctx: ProcessCtx| {
                ctx.write("output", Unit::int(99))?;
                // Stay alive until shutdown so the stream's source persists.
                let _ = ctx.read("park");
                Ok(())
            });
            coord.activate(&source)?;
            let sink_factory: AtomicFactory = Arc::new(move |coord, args| {
                let death = crate::lang::exec::expect_event_arg(args, 0)?;
                let got3 = got2.clone();
                let p = coord.create_atomic("Sink", move |ctx: ProcessCtx| {
                    let v = ctx.read("input")?.expect_int()?;
                    *got3.lock() = Some(v);
                    ctx.raise(death.as_str());
                    Ok(())
                });
                coord.activate(&p)?;
                Ok(p)
            });
            Interp::new(&prog, "wire.m").call_manner(
                coord,
                "Wire",
                vec![Value::Process(source), Value::Manifold(sink_factory)],
            )
        })
        .unwrap();
        env.shutdown();
        assert_eq!(*got.lock(), Some(99));
    }

    #[test]
    fn factory_errors_attribute_the_declaration_line() {
        let src = "manner Go(manifold W(event)) {\n\
            process p is W(7).\n\
            begin: halt.\n\
        }";
        let prog = parse_program(src).unwrap();
        let env = Environment::new();
        let r = env.run_coordinator("Main", |coord| {
            let factory: AtomicFactory = Arc::new(|_coord, args| {
                // Wrong kind: the factory wanted an event, got an int.
                let e = crate::lang::exec::expect_event_arg(args, 0)?;
                unreachable!("{e}");
            });
            Interp::new(&prog, "go.m").call_manner(coord, "Go", vec![Value::Manifold(factory)])
        });
        match r {
            Err(MfError::Lang(e)) => {
                assert_eq!(e.line, 2, "error should carry the declaration line");
                assert!(matches!(e.kind, LangErrorKind::BadArgument { .. }));
            }
            other => panic!("expected a typed factory error, got {other:?}"),
        }
        env.shutdown();
    }
}
