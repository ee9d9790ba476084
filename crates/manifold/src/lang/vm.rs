//! The state-machine VM: steps [`CompiledProgram`] code against a live
//! [`Coord`], bit-identically to the tree-walking interpreter, as the step
//! function of a stepped coordinator
//! ([`Environment::create_stepped_coordinator`](crate::env::Environment::create_stepped_coordinator)).
//!
//! Where [`crate::lang::interp::Interp`] re-parses structure on every step
//! — hashing identifier strings into per-frame maps, re-sorting wait
//! labels, rebuilding pattern vectors — the VM only indexes: states are
//! numbers, bindings are `(symbol, value)` pairs on one scope stack, and
//! every wait-pattern list was built at compile time. In the steady state
//! the dispatch loop performs **zero allocations**: transitions select
//! straight from [`CompiledBlock::local_pats`](crate::lang::CompiledBlock::local_pats)
//! into [`CompiledBlock::local_targets`](crate::lang::CompiledBlock::local_targets),
//! `post` clones interned [`Name`](crate::ident::Name)s (a refcount bump),
//! and the growable state — the frame stack, the scope stack, the
//! `terminated(p)` wait list — keeps its capacity from step to step.
//! The protocol crate's `coord_budget` test enforces this with a counting
//! allocator.
//!
//! ## No thread
//!
//! A [`Vm`] never blocks. Its state is a resumable stack of frames, one per
//! active block (a manner's root block, or a block entered from a state
//! body), each holding its current state and an instruction index into
//! that state's body — the straight-line [`Ins`] code `lang::compile`
//! emitted, run as it is. A body suspended in a wait, or in a manner or
//! block it entered, resumes at a plain index. [`Vm::step`] runs until the
//! manner needs something that has not happened yet:
//!
//! * **Waits.** `IDLE` (`terminated(void)`) and `terminated(p)` select
//!   from the coordinator's event memory with `try_select`; when nothing
//!   matches the step is [`Poll::Pending`], and the next occurrence to
//!   arrive steps the coordinator again, on the thread that raised it.
//!   Self-`post`ed transitions loop inside one step.
//! * **Streams.** A state's streams are held across steps in a
//!   [`HeldState`] and dismantled when the state is preempted.
//! * **Exits.** A manner's block owns what it declares; on exit it closes
//!   with [`Coord::close_pending`], which never joins: while a member is
//!   still on its way out (the worker whose `raise(death_worker)` is
//!   running this very step) the step is pending, and that member's
//!   termination notice resumes it.
//!
//! ## Scope discipline
//!
//! The interpreter uses dynamically-scoped frames: a manner call's frame
//! has the *calling* frame as its parent. The VM replicates this with a
//! single stack of `(symbol, value)` slots scanned backwards — the most
//! recent binding of a symbol wins, which is exactly the nearest frame in
//! the interpreter's parent chain. Manner calls and block entries record a
//! mark and truncate back to it on exit.
//!
//! ## Fidelity
//!
//! Every error, trace record, and event interaction matches the
//! interpreter exactly (the differential property tests in
//! `tests/lang_proptests.rs` and the three-way protocol tests in
//! `tests/interpreted_protocol.rs` hold both executors to it): same
//! [`LangError`] kinds with the same source lines, same `MES` attribution,
//! same event-memory operations in the same order. On the error path a
//! block's streams are dismantled and each manner's block closes before
//! the error reaches its caller, and `ignore` purges are skipped.

use std::sync::Arc;
use std::task::Poll;

use crate::builtin::Variable;
use crate::coord::{Coord, HeldState, ScopeMark};
use crate::error::{MfError, MfResult};
use crate::event::{EventOccurrence, EventPattern};
use crate::ident::ProcessId;
use crate::lang::compile::{CExpr, CompiledBlock, CompiledProgram, DeclOp, Ins, Sym};
use crate::lang::error::{attribute_line, LangError, LangErrorKind};
use crate::lang::exec::{Mc, Value};
use crate::process::ProcessRef;
use crate::stream::Stream;
use crate::unit::Unit;

/// How a state body, a block or a manner finished (mirror of the
/// interpreter's control flow).
enum Flow {
    /// Ran to completion.
    Done,
    /// Preempted by an event occurrence (not matching any local label).
    Preempted(EventOccurrence),
    /// `halt` executed: unwind to the manner boundary.
    Halted,
}

/// One active block.
struct Frame {
    block: usize,
    /// `slots` below this index belong to the frames underneath.
    mark: usize,
    /// For a manner's root block: the manner's scope, and where its
    /// parameters start in `slots`.
    manner: Option<(ScopeMark, usize)>,
    /// The current state, and the next instruction of its body.
    state: usize,
    pc: usize,
    /// The current state's streams.
    held: HeldState,
}

/// What the next step does.
enum Next {
    /// Enter the manner with these arguments (the first step).
    Enter(String, Vec<Value>),
    /// Run the innermost frame's body from its `pc`.
    Run,
    /// Wait in `IDLE`: select from the innermost block's patterns.
    Idle,
    /// Wait in `terminated(p)`: select from `scratch`.
    Await(ProcessId),
    /// A manner's block is closing; once it has closed, `flow` goes to the
    /// manner's caller and `slots` shrink back to `mark`.
    Close {
        scope: ScopeMark,
        mark: usize,
        flow: MfResult<Flow>,
    },
}

/// One manner activation of a compiled program: the step function of a
/// stepped coordinator. [`Environment::run_manner`](crate::env::Environment::run_manner)
/// runs one under [`CoordExec::Compiled`](crate::lang::CoordExec::Compiled).
pub struct Vm {
    program: Arc<CompiledProgram>,
    source_name: String,
    /// The dynamic scope: `(symbol, value)` slots, innermost last.
    slots: Vec<(u32, Value)>,
    /// The wait list of `terminated(p)` (block patterns + one termination
    /// pattern), reused from wait to wait.
    scratch: Vec<EventPattern>,
    /// The active blocks, innermost last.
    frames: Vec<Frame>,
    next: Next,
}

impl Vm {
    /// An activation of `mc`'s manner `manner` with `args`, entered by the
    /// first [`Vm::step`]. `source_name` labels MES trace records.
    pub fn new(mc: &Mc, source_name: &str, manner: &str, args: Vec<Value>) -> Vm {
        Vm {
            program: Arc::clone(&mc.compiled),
            source_name: source_name.to_string(),
            slots: Vec::new(),
            scratch: Vec::new(),
            frames: Vec::new(),
            next: Next::Enter(manner.to_string(), args),
        }
    }

    /// Run the manner on `coord` (always the same coordinator) as far as
    /// it goes without waiting: `Ready` with what the manner returned, or
    /// `Pending` until an occurrence arrives in `coord`'s event memory. A
    /// `Ready` activation is not stepped again.
    pub fn step(&mut self, coord: &Coord) -> Poll<MfResult<()>> {
        let prog = Arc::clone(&self.program);
        let events = coord.ctx().core().events();
        loop {
            match std::mem::replace(&mut self.next, Next::Run) {
                Next::Enter(manner, args) => {
                    let entered = match prog.manners.iter().position(|m| m.name.as_str() == manner)
                    {
                        Some(m) => self.enter_manner(&prog, coord, m, args, 0),
                        None => Err(LangError::new(LangErrorKind::UnknownManner(manner)).into()),
                    };
                    if let Err(e) = entered {
                        return Poll::Ready(Err(e));
                    }
                }
                Next::Run => {
                    let f = self
                        .frames
                        .last_mut()
                        .expect("a running manner has a frame");
                    match prog.blocks[f.block].states[f.state].body.get(f.pc) {
                        Some(ins) => {
                            f.pc += 1;
                            if let Err(e) = self.exec(&prog, coord, ins) {
                                self.end_state(&prog, coord, Err(e));
                            }
                        }
                        None => self.end_state(&prog, coord, Ok(Flow::Done)),
                    }
                }
                Next::Idle => {
                    let f = self.frames.last().expect("a waiting manner has a frame");
                    let pats = &prog.blocks[f.block].all_pats;
                    match events.try_select(pats) {
                        // IDLE: only events can get us out.
                        Some((_, occ)) => self.end_state(&prog, coord, Ok(Flow::Preempted(occ))),
                        None if events.is_killed() => {
                            self.end_state(&prog, coord, Err(MfError::Killed))
                        }
                        None => {
                            self.next = Next::Idle;
                            return Poll::Pending;
                        }
                    }
                }
                Next::Await(p) => match events.try_select(&self.scratch) {
                    Some((idx, occ))
                        if idx == self.scratch.len() - 1 && occ.is_termination_of(p) => {}
                    Some((_, occ)) => self.end_state(&prog, coord, Ok(Flow::Preempted(occ))),
                    None if events.is_killed() => {
                        self.end_state(&prog, coord, Err(MfError::Killed))
                    }
                    None => {
                        self.next = Next::Await(p);
                        return Poll::Pending;
                    }
                },
                Next::Close {
                    mut scope,
                    mark,
                    flow,
                } => {
                    if coord.close_pending(&mut scope).is_some() {
                        self.next = Next::Close { scope, mark, flow };
                        return Poll::Pending;
                    }
                    self.slots.truncate(mark);
                    // A manner boundary absorbs `halt`.
                    let ended = match flow {
                        Ok(Flow::Done | Flow::Halted) => Ok(()),
                        Ok(Flow::Preempted(occ)) => Err(MfError::App(format!(
                            "manner exited on unhandled occurrence {occ:?}"
                        ))),
                        Err(e) => Err(e),
                    };
                    if self.frames.is_empty() {
                        return Poll::Ready(ended);
                    }
                    self.returned(&prog, coord, ended.map(|()| Flow::Done));
                }
            }
        }
    }

    /// Enter manner `manner`: bind its parameters, open the block that
    /// owns what it declares, and enter it. Only an arity mismatch fails
    /// here; a failing declaration exits the block like any error.
    fn enter_manner(
        &mut self,
        prog: &CompiledProgram,
        coord: &Coord,
        manner: usize,
        args: Vec<Value>,
        line: u32,
    ) -> MfResult<()> {
        let m = &prog.manners[manner];
        if m.params.len() != args.len() {
            return Err(LangError::at(
                LangErrorKind::ArityMismatch {
                    manner: m.name.as_str().to_string(),
                    params: m.params.len(),
                    args: args.len(),
                },
                line,
            )
            .into());
        }
        // Watch process arguments up front so no early raise is lost (the
        // `terminated(master)` sensitivity of §4.2).
        for a in &args {
            if let Value::Process(p) = a {
                coord.watch(p);
            }
        }
        let mark = self.slots.len();
        self.slots.extend(m.params.iter().map(|s| s.0).zip(args));
        // The manner's block owns what it declares: its `variable`s and the
        // processes its factories create die when it returns.
        let scope = coord.open_scope();
        self.enter_block(prog, coord, m.block, Some((scope, mark)));
        Ok(())
    }

    /// Push a frame for `block`, run its declarations, and visit its
    /// `begin` state.
    fn enter_block(
        &mut self,
        prog: &CompiledProgram,
        coord: &Coord,
        block: usize,
        manner: Option<(ScopeMark, usize)>,
    ) {
        let b = &prog.blocks[block];
        self.frames.push(Frame {
            block,
            mark: self.slots.len(),
            manner,
            state: 0,
            pc: 0,
            held: HeldState::default(),
        });
        let begin = self.declare(prog, coord, b).and_then(|()| {
            b.begin
                .ok_or_else(|| LangError::new(LangErrorKind::NoSuchState("begin".into())).into())
        });
        match begin {
            Ok(begin) => {
                self.frames.last_mut().expect("just pushed").state = begin;
                self.next = Next::Run;
            }
            Err(e) => self.exit_block(prog, coord, Err(e)),
        }
    }

    /// Run a block's declaration opcodes, in order.
    fn declare(
        &mut self,
        prog: &CompiledProgram,
        coord: &Coord,
        b: &CompiledBlock,
    ) -> MfResult<()> {
        for d in &b.decls {
            match d {
                DeclOp::Event { sym } => {
                    let name = prog.name(*sym).clone();
                    self.slots.push((sym.0, Value::Event(name)));
                }
                DeclOp::Variable { sym, init, line } => {
                    let init = match init {
                        Some(e) => self.eval_int(prog, e, *line)?,
                        None => 0,
                    };
                    let name = prog.name(*sym).clone();
                    let var = Variable::spawn(coord, name.as_str(), Unit::int(init))?;
                    self.slots.push((sym.0, Value::Variable(var)));
                }
                DeclOp::Process {
                    sym,
                    ctor,
                    args,
                    line,
                } => {
                    let factory = match self.lookup(*ctor) {
                        Some(Value::Manifold(f)) => f.clone(),
                        _ => {
                            return Err(LangError::at(
                                LangErrorKind::NotAManifold(prog.name(*ctor).as_str().to_string()),
                                *line,
                            )
                            .into())
                        }
                    };
                    let argv: Vec<Value> = args
                        .iter()
                        .map(|a| self.eval_value(prog, a, *line))
                        .collect::<MfResult<_>>()?;
                    let p = factory(coord, &argv).map_err(|e| attribute_line(e, *line))?;
                    self.slots.push((sym.0, Value::Process(p)));
                }
                DeclOp::InvalidStream { ty } => {
                    return Err(LangError::new(LangErrorKind::UnknownStreamType(ty.clone())).into())
                }
            }
        }
        Ok(())
    }

    /// Execute one instruction of the innermost frame's body (its `pc` is
    /// already past it). An error ends the state.
    fn exec(&mut self, prog: &CompiledProgram, coord: &Coord, ins: &Ins) -> MfResult<()> {
        match ins {
            Ins::Chain { steps, line } => {
                for s in steps {
                    let sink = self.resolve_process(prog, s.to, *line)?;
                    let sink_port = sink.port(prog.name(s.to_port).clone());
                    let st = if s.from_ref {
                        // `&p -> q`: a one-shot reference unit from the
                        // coordinator.
                        let p = self.resolve_process(prog, s.from, *line)?;
                        Stream::preloaded(s.ty, [Unit::ProcessRef(p)])
                    } else {
                        let src = self.resolve_process(prog, s.from, *line)?;
                        let st = Stream::new(s.ty);
                        src.port(prog.name(s.from_port).clone())
                            .attach_outgoing(&st);
                        st
                    };
                    sink_port.attach_incoming(&st);
                    self.frames.last_mut().expect("running").held.push(st);
                }
            }
            Ins::Call {
                manner,
                name,
                args,
                line,
            } => {
                // Arguments evaluate before the callee is resolved, exactly
                // like the interpreter.
                let argv: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval_value(prog, a, *line))
                    .collect::<MfResult<_>>()?;
                match manner {
                    Some(m) => self.enter_manner(prog, coord, *m, argv, *line)?,
                    None => {
                        return Err(LangError::at(
                            LangErrorKind::UnknownManner(prog.name(*name).as_str().to_string()),
                            *line,
                        )
                        .into())
                    }
                }
            }
            Ins::Post(e) => coord.post(prog.name(*e).clone()),
            Ins::Raise(e) => coord.raise(prog.name(*e).clone()),
            Ins::Halt => self.end_state(prog, coord, Ok(Flow::Halted)),
            Ins::Mes { msg, line } => coord.ctx().trace(&self.source_name, *line, msg.clone()),
            Ins::Idle => self.next = Next::Idle,
            Ins::Await { proc, line } => {
                let p = match self.lookup(*proc) {
                    Some(Value::Process(p)) => p.clone(),
                    _ => {
                        return Err(LangError::at(
                            LangErrorKind::NotAProcess(prog.name(*proc).as_str().to_string()),
                            *line,
                        )
                        .into())
                    }
                };
                coord.watch(&p);
                let f = self.frames.last().expect("running");
                self.scratch.clear();
                self.scratch
                    .extend_from_slice(&prog.blocks[f.block].all_pats);
                self.scratch.push(EventPattern::Terminated(p.id()));
                self.next = Next::Await(p.id());
            }
            Ins::Assign { var, value, line } => {
                let v = self.eval_int(prog, value, *line)?;
                match self.lookup(*var) {
                    Some(Value::Variable(target)) => target.set(Unit::int(v)),
                    _ => {
                        return Err(LangError::at(
                            LangErrorKind::NotAVariable(prog.name(*var).as_str().to_string()),
                            *line,
                        )
                        .into())
                    }
                }
            }
            Ins::Block(b) => self.enter_block(prog, coord, *b, None),
            Ins::Unless {
                lhs,
                op,
                rhs,
                line,
                otherwise,
            } => {
                let l = self.eval_int(prog, lhs, *line)?;
                let r = self.eval_int(prog, rhs, *line)?;
                let hit = match op {
                    '<' => l < r,
                    '>' => l > r,
                    '=' => l == r,
                    _ => unreachable!(),
                };
                if !hit {
                    self.frames.last_mut().expect("running").pc = *otherwise;
                }
            }
            Ins::Jump(to) => self.frames.last_mut().expect("running").pc = *to,
        }
        Ok(())
    }

    /// The innermost frame's state body has finished with `flow`: preempt
    /// the state (dismantle its streams, also on the error path), then
    /// transition, or exit the block.
    fn end_state(&mut self, prog: &CompiledProgram, coord: &Coord, flow: MfResult<Flow>) {
        let f = self.frames.last_mut().expect("a state ends in its frame");
        f.held = HeldState::default();
        let b = &prog.blocks[f.block];
        let exit = match flow {
            Ok(Flow::Preempted(occ)) => {
                match occ
                    .name()
                    .and_then(|n| b.states.iter().position(|s| s.label == *n))
                {
                    Some(i) => {
                        f.state = i;
                        f.pc = 0;
                        self.next = Next::Run;
                        return;
                    }
                    None => Ok(Flow::Preempted(occ)),
                }
            }
            Ok(Flow::Done) => {
                // Body completed: pending local label → transition via the
                // dispatch table; pending outer label → exit; else the
                // block completes.
                let events = coord.ctx().core().events();
                if let Some((i, _)) = events.try_select(&b.local_pats) {
                    f.state = b.local_targets[i];
                    f.pc = 0;
                    self.next = Next::Run;
                    return;
                }
                match events.try_select(&b.outer_pats) {
                    Some((_, occ)) => Ok(Flow::Preempted(occ)),
                    None => Ok(Flow::Done),
                }
            }
            other => other,
        };
        self.exit_block(prog, coord, exit);
    }

    /// Leave the innermost block with `flow`: unbind what it declared and,
    /// unless it failed, purge its `ignore`d events; then close it if it is
    /// a manner's, or hand `flow` to the state body that entered it.
    fn exit_block(&mut self, prog: &CompiledProgram, coord: &Coord, flow: MfResult<Flow>) {
        let f = self.frames.pop().expect("a block exits from its frame");
        self.slots.truncate(f.mark);
        if flow.is_ok() {
            // `ignore e.`: purge on departure from the block (skipped on
            // the error path, exactly like the interpreter).
            for e in &prog.blocks[f.block].ignores {
                coord.ctx().core().events().purge_named(e);
            }
        }
        match f.manner {
            Some((scope, mark)) => self.next = Next::Close { scope, mark, flow },
            None => self.returned(prog, coord, flow),
        }
    }

    /// A block or manner entered from the innermost frame's state body has
    /// finished with `flow`: the body goes on, or ends with it.
    fn returned(&mut self, prog: &CompiledProgram, coord: &Coord, flow: MfResult<Flow>) {
        match flow {
            Ok(Flow::Done) => self.next = Next::Run,
            other => self.end_state(prog, coord, other),
        }
    }

    fn lookup(&self, sym: Sym) -> Option<&Value> {
        self.slots
            .iter()
            .rev()
            .find(|(s, _)| *s == sym.0)
            .map(|(_, v)| v)
    }

    fn resolve_process(&self, prog: &CompiledProgram, sym: Sym, line: u32) -> MfResult<ProcessRef> {
        match self.lookup(sym) {
            Some(Value::Process(p)) => Ok(p.clone()),
            Some(Value::Variable(v)) => Ok(v.process().clone()),
            _ => Err(LangError::at(
                LangErrorKind::NotAProcess(prog.name(sym).as_str().to_string()),
                line,
            )
            .into()),
        }
    }

    fn eval_value(&self, prog: &CompiledProgram, e: &CExpr, line: u32) -> MfResult<Value> {
        match e {
            CExpr::Int(v) => Ok(Value::Int(*v)),
            CExpr::Var(sym) | CExpr::Ref(sym) => self.lookup(*sym).cloned().ok_or_else(|| {
                LangError::at(
                    LangErrorKind::Unbound(prog.name(*sym).as_str().to_string()),
                    line,
                )
                .into()
            }),
            CExpr::Binary { .. } => Ok(Value::Int(self.eval_int(prog, e, line)?)),
            CExpr::Call => Err(LangError::at(LangErrorKind::NestedCall, line).into()),
        }
    }

    fn eval_int(&self, prog: &CompiledProgram, e: &CExpr, line: u32) -> MfResult<i64> {
        match e {
            CExpr::Int(v) => Ok(*v),
            CExpr::Var(sym) => match self.lookup(*sym) {
                Some(Value::Int(v)) => Ok(*v),
                Some(Value::Variable(var)) => Ok(var.get_int()),
                other => Err(LangError::at(
                    LangErrorKind::NotNumeric {
                        name: prog.name(*sym).as_str().to_string(),
                        found: format!("{other:?}"),
                    },
                    line,
                )
                .into()),
            },
            CExpr::Binary { op, lhs, rhs } => {
                let l = self.eval_int(prog, lhs, line)?;
                let r = self.eval_int(prog, rhs, line)?;
                Ok(match op {
                    '+' => l + r,
                    '-' => l - r,
                    _ => unreachable!(),
                })
            }
            CExpr::Ref(_) | CExpr::Call => {
                Err(LangError::at(LangErrorKind::NonNumericExpr, line).into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environment;
    use crate::lang::CoordExec;

    fn run_vm(src: &str, manner: &str) -> (MfResult<()>, Vec<String>) {
        let mc = Mc::from_source(src).unwrap();
        let env = Environment::new();
        let r = env.run_manner(&mc, CoordExec::Compiled, "test.m", manner, |_| Ok(vec![]));
        let msgs = env
            .trace()
            .snapshot()
            .into_iter()
            .map(|r| r.message)
            .collect();
        assert_eq!(env.live_processes(), 0);
        env.shutdown();
        (r, msgs)
    }

    #[test]
    fn steps_trivial_manner() {
        let (r, _) = run_vm("manner Go() { begin: halt. }", "Go");
        r.unwrap();
    }

    #[test]
    fn counts_with_variables_and_transitions() {
        let src = "manner Count() {\
            auto process n is variable(0).\
            begin: n = n + 1; if (n < 3) then ( post (begin) ) else ( post (done) ).\
            done: (MES(\"counted\"), halt).\
        }";
        let (r, msgs) = run_vm(src, "Count");
        r.unwrap();
        assert!(msgs.contains(&"counted".to_string()));
    }

    #[test]
    fn halt_stops_only_the_inner_manner() {
        let src = "\
            manner Inner() { begin: (MES(\"inner\"), halt). }\
            manner Outer() { begin: Inner(); post (done). \
                             done: (MES(\"outer done\"), halt). }";
        let (r, msgs) = run_vm(src, "Outer");
        r.unwrap();
        assert_eq!(msgs, vec!["inner".to_string(), "outer done".into()]);
    }

    #[test]
    fn typed_errors_carry_lines() {
        // Missing begin.
        let (r, _) = run_vm("manner NoBegin() { other: halt. }", "NoBegin");
        assert_eq!(
            r.unwrap_err(),
            MfError::Lang(LangError::new(LangErrorKind::NoSuchState("begin".into())))
        );
        // Unknown manner call carries the state's line.
        let (r, _) = run_vm("manner Go() { begin: Missing(). }", "Go");
        match r.unwrap_err() {
            MfError::Lang(e) => {
                assert_eq!(e.kind, LangErrorKind::UnknownManner("Missing".into()));
                assert_ne!(e.line, 0);
            }
            other => panic!("expected LangError, got {other:?}"),
        }
        // So does an unknown entry manner, with no line.
        let (r, _) = run_vm("manner Go() { begin: halt. }", "Gone");
        assert_eq!(
            r.unwrap_err(),
            MfError::Lang(LangError::new(LangErrorKind::UnknownManner("Gone".into())))
        );
    }

    #[test]
    fn flattened_if_falls_through_then_and_jumps_over_else() {
        let src = "manner Go() {\n\
            begin: if (1 < 2) then (MES(\"a\"); MES(\"b\")) else (MES(\"c\")); \
                   if (2 < 1) then (MES(\"d\")) else (MES(\"e\"); MES(\"f\")); \
                   if (2 < 1) then (MES(\"g\")); MES(\"h\").\n\
        }";
        let (r, msgs) = run_vm(src, "Go");
        r.unwrap();
        assert_eq!(msgs, ["a", "b", "e", "f", "h"]);
    }

    #[test]
    fn a_suspended_nested_manner_resumes_mid_sequence() {
        // The nested manner idles until the host's process raises `go`; the
        // outer body goes on after the call, into its `if`.
        let src = "\
            manner Inner(process p) { begin: (MES(\"waiting\"), terminated (void)). go: MES(\"woken\"). }\n\
            manner Outer(process p) { begin: Inner(p); MES(\"after\"); if (1 < 2) then (MES(\"then\")). }";
        let mc = Mc::from_source(src).unwrap();
        let env = Environment::new();
        let raiser = Arc::new(parking_lot::Mutex::new(None));
        let raiser2 = raiser.clone();
        let here = std::thread::current().id();
        env.run_manner(&mc, CoordExec::Compiled, "t.m", "Outer", |coord| {
            let p = coord.create_atomic("P", move |ctx: crate::process::ProcessCtx| {
                *raiser2.lock() = Some(std::thread::current().id());
                ctx.raise("go");
                Ok(())
            });
            Ok(vec![Value::Process(p)])
        })
        .unwrap();
        let msgs: Vec<String> = env
            .trace()
            .snapshot()
            .into_iter()
            .map(|r| r.message)
            .collect();
        assert_eq!(msgs, ["waiting", "woken", "after", "then"]);
        // The unstarted argument ran on the calling thread.
        assert_eq!(*raiser.lock(), Some(here));
        assert_eq!(env.live_processes(), 0);
        env.shutdown();
    }

    #[test]
    fn a_manner_returns_only_once_its_block_has_closed() {
        // `Sub`'s block owns a process that takes a while to unwind once
        // killed: the caller goes on only after it has.
        let src = "\
            manner Sub(manifold Slow()) { process z is Slow. begin: MES(\"sub\"). }\n\
            manner Main(manifold Slow()) { begin: Sub(Slow); MES(\"after\"). }";
        let mc = Mc::from_source(src).unwrap();
        for kind in CoordExec::ALL {
            let env = Environment::new();
            env.run_manner(&mc, kind, "t.m", "Main", |_| {
                let slow: crate::lang::AtomicFactory = Arc::new(|coord, _| {
                    let p = coord.create_atomic("Slow", |ctx: crate::process::ProcessCtx| {
                        let _ = ctx.read("input");
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        ctx.trace("slow.rs", 1, "unwound".into());
                        Ok(())
                    });
                    coord.activate(&p)?;
                    Ok(p)
                });
                Ok(vec![Value::Manifold(slow)])
            })
            .unwrap();
            let msgs: Vec<String> = env
                .trace()
                .snapshot()
                .into_iter()
                .map(|r| r.message)
                .collect();
            assert_eq!(msgs, ["sub", "unwound", "after"], "{kind}");
            env.shutdown();
        }
    }
}
