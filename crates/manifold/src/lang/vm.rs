//! The state-machine VM: steps [`CompiledProgram`] IR against a live
//! [`Coord`], bit-identically to the tree-walking interpreter.
//!
//! Where [`crate::lang::interp::Interp`] re-parses structure on every step
//! — hashing identifier strings into per-frame maps, re-sorting wait
//! labels, rebuilding pattern vectors — the VM only indexes: states are
//! numbers, bindings are `(symbol, value)` pairs on one scope stack, and
//! every wait-pattern list was built at compile time. In the steady state
//! the dispatch loop performs **zero allocations**: transitions select
//! straight from [`CompiledBlock::local_pats`] into
//! [`CompiledBlock::local_targets`], `post` clones interned
//! [`Name`](crate::ident::Name)s
//! (a refcount bump), and the only growable scratch (the `terminated(p)`
//! wait list) is reused across steps. `coord_bench --assert-zero-alloc`
//! enforces this with a counting allocator.
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
//! same event-memory operations in the same order.

use std::sync::Arc;

use crate::builtin::Variable;
use crate::coord::Coord;
use crate::error::{MfError, MfResult};
use crate::event::{EventOccurrence, EventPattern};
use crate::lang::compile::{CExpr, CompiledBlock, CompiledProgram, DeclOp, Op, Sym};
use crate::lang::error::{attribute_line, LangError, LangErrorKind};
use crate::lang::exec::Value;
use crate::process::ProcessRef;
use crate::stream::Stream;
use crate::unit::Unit;

/// The VM for one compiled program.
pub struct Vm<'p> {
    program: &'p CompiledProgram,
    source_name: String,
}

/// How a body/block finished (mirror of the interpreter's control flow).
enum Flow {
    /// Ran to completion.
    Done,
    /// Preempted by an event occurrence (not matching any local label).
    Preempted(EventOccurrence),
    /// `halt` executed: unwind to the manner boundary.
    Halted,
}

/// Mutable state of one `call_manner` activation.
struct Run {
    /// The dynamic scope: `(symbol, value)` slots, innermost last.
    slots: Vec<(u32, Value)>,
    /// Reusable wait list for `terminated(p)` (block patterns + one
    /// termination pattern); keeps the hot loop allocation-free.
    scratch: Vec<EventPattern>,
}

impl Run {
    fn lookup(&self, sym: Sym) -> Option<Value> {
        self.slots
            .iter()
            .rev()
            .find(|(s, _)| *s == sym.0)
            .map(|(_, v)| v.clone())
    }
}

impl<'p> Vm<'p> {
    /// Create a VM for `program`. `source_name` labels MES trace records.
    pub fn new(program: &'p CompiledProgram, source_name: impl Into<String>) -> Self {
        Vm {
            program,
            source_name: source_name.into(),
        }
    }

    /// Call an exported manner by name with the given arguments.
    pub fn call_manner(&self, coord: &Coord, name: &str, args: Vec<Value>) -> MfResult<()> {
        let idx = self
            .program
            .manners
            .iter()
            .position(|m| m.name.as_str() == name)
            .ok_or_else(|| LangError::new(LangErrorKind::UnknownManner(name.to_string())))?;
        let mut run = Run {
            slots: Vec::new(),
            scratch: Vec::new(),
        };
        self.run_manner(coord, &mut run, idx, args, 0)
    }

    fn run_manner(
        &self,
        coord: &Coord,
        run: &mut Run,
        manner: usize,
        args: Vec<Value>,
        line: u32,
    ) -> MfResult<()> {
        let m = &self.program.manners[manner];
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
        let mark = run.slots.len();
        for (s, a) in m.params.iter().zip(args) {
            run.slots.push((s.0, a));
        }
        // The manner's block owns what it declares: its `variable`s and the
        // processes its factories create die when it returns.
        let r = coord.scope(|coord| self.run_block(coord, run, m.block));
        run.slots.truncate(mark);
        // A manner boundary absorbs `halt`.
        match r? {
            Flow::Done | Flow::Halted => Ok(()),
            Flow::Preempted(occ) => Err(MfError::App(format!(
                "manner exited on unhandled occurrence {occ:?}"
            ))),
        }
    }

    /// Execute one block: declaration opcodes, then the state machine.
    fn run_block(&self, coord: &Coord, run: &mut Run, block: usize) -> MfResult<Flow> {
        let b = &self.program.blocks[block];
        let mark = run.slots.len();
        let r = self.run_block_inner(coord, run, b);
        run.slots.truncate(mark);
        if r.is_ok() {
            // `ignore e.`: purge on departure from the block (skipped on
            // the error path, exactly like the interpreter).
            for e in &b.ignores {
                coord.ctx().core().events().purge_named(e);
            }
        }
        r
    }

    fn run_block_inner(&self, coord: &Coord, run: &mut Run, b: &CompiledBlock) -> MfResult<Flow> {
        for d in &b.decls {
            match d {
                DeclOp::Event { sym } => {
                    let name = self.program.name(*sym).clone();
                    run.slots.push((sym.0, Value::Event(name)));
                }
                DeclOp::Variable { sym, init, line } => {
                    let init = match init {
                        Some(e) => self.eval_int(run, e, *line)?,
                        None => 0,
                    };
                    let name = self.program.name(*sym).clone();
                    let var = Variable::spawn(coord, name.as_str(), Unit::int(init))?;
                    run.slots.push((sym.0, Value::Variable(var)));
                }
                DeclOp::Process {
                    sym,
                    ctor,
                    args,
                    line,
                } => {
                    let factory = match run.lookup(*ctor) {
                        Some(Value::Manifold(f)) => f,
                        _ => {
                            return Err(LangError::at(
                                LangErrorKind::NotAManifold(
                                    self.program.name(*ctor).as_str().to_string(),
                                ),
                                *line,
                            )
                            .into())
                        }
                    };
                    let argv: Vec<Value> = args
                        .iter()
                        .map(|a| self.eval_value(run, a, *line))
                        .collect::<MfResult<_>>()?;
                    let p = factory(coord, &argv).map_err(|e| attribute_line(e, *line))?;
                    run.slots.push((sym.0, Value::Process(p)));
                }
                DeclOp::InvalidStream { ty } => {
                    return Err(LangError::new(LangErrorKind::UnknownStreamType(ty.clone())).into())
                }
            }
        }

        let mut current = match b.begin {
            Some(i) => i,
            None => return Err(LangError::new(LangErrorKind::NoSuchState("begin".into())).into()),
        };
        loop {
            let state = &b.states[current];
            // Empty Vec: no allocation until a chain op actually pushes.
            let mut streams: Vec<Arc<Stream>> = Vec::new();
            let flow = self.exec_op(coord, run, b, &state.body, &mut streams);
            // State preemption: dismantle this state's streams (also on the
            // error path, as the interpreter does).
            for s in &streams {
                s.dismantle();
            }
            match flow? {
                Flow::Halted => return Ok(Flow::Halted),
                Flow::Preempted(occ) => {
                    let target = occ
                        .name()
                        .and_then(|n| b.states.iter().position(|s| s.label == *n));
                    match target {
                        Some(i) => current = i,
                        None => return Ok(Flow::Preempted(occ)),
                    }
                }
                Flow::Done => {
                    // Body completed: pending local label → transition via
                    // the dispatch table; pending outer label → exit; else
                    // the block completes.
                    let events = coord.ctx().core().events();
                    if let Some((i, _)) = events.try_select(&b.local_pats) {
                        current = b.local_targets[i];
                        continue;
                    }
                    if let Some((_, occ)) = events.try_select(&b.outer_pats) {
                        return Ok(Flow::Preempted(occ));
                    }
                    return Ok(Flow::Done);
                }
            }
        }
    }

    fn exec_op(
        &self,
        coord: &Coord,
        run: &mut Run,
        b: &CompiledBlock,
        op: &Op,
        streams: &mut Vec<Arc<Stream>>,
    ) -> MfResult<Flow> {
        match op {
            Op::Seq(parts) => {
                for p in parts {
                    match self.exec_op(coord, run, b, p, streams)? {
                        Flow::Done => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Done)
            }
            Op::Block(idx) => self.run_block(coord, run, *idx),
            Op::Chain { steps, line } => {
                for s in steps {
                    let sink = self.resolve_process(run, s.to, *line)?;
                    let sink_port = sink.port(self.program.name(s.to_port).clone());
                    if s.from_ref {
                        // `&p -> q`: a one-shot reference unit from the
                        // coordinator.
                        let p = self.resolve_process(run, s.from, *line)?;
                        let st = Stream::preloaded(s.ty, [Unit::ProcessRef(p)]);
                        sink_port.attach_incoming(&st);
                        streams.push(st);
                    } else {
                        let src = self.resolve_process(run, s.from, *line)?;
                        let src_port = src.port(self.program.name(s.from_port).clone());
                        let st = Stream::new(s.ty);
                        src_port.attach_outgoing(&st);
                        sink_port.attach_incoming(&st);
                        streams.push(st);
                    }
                }
                Ok(Flow::Done)
            }
            Op::Call {
                manner,
                name,
                args,
                line,
            } => {
                // Arguments evaluate before the callee is resolved, exactly
                // like the interpreter.
                let argv: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval_value(run, a, *line))
                    .collect::<MfResult<_>>()?;
                match manner {
                    Some(idx) => {
                        self.run_manner(coord, run, *idx, argv, *line)?;
                        Ok(Flow::Done)
                    }
                    None => Err(LangError::at(
                        LangErrorKind::UnknownManner(self.program.name(*name).as_str().to_string()),
                        *line,
                    )
                    .into()),
                }
            }
            Op::Post(e) => {
                coord.post(self.program.name(*e).clone());
                Ok(Flow::Done)
            }
            Op::Raise(e) => {
                coord.raise(self.program.name(*e).clone());
                Ok(Flow::Done)
            }
            Op::Halt => Ok(Flow::Halted),
            Op::PreemptAll => Ok(Flow::Done),
            Op::Mes { msg, line } => {
                coord.ctx().trace(&self.source_name, *line, msg.clone());
                Ok(Flow::Done)
            }
            Op::Idle => {
                // IDLE: only events can get us out; the wait list is the
                // precomputed local ++ outer patterns.
                let (_, occ) = coord.ctx().core().events().wait_select(&b.all_pats)?;
                Ok(Flow::Preempted(occ))
            }
            Op::AwaitTermination { proc, line } => {
                let p = match run.lookup(*proc) {
                    Some(Value::Process(p)) => p,
                    _ => {
                        return Err(LangError::at(
                            LangErrorKind::NotAProcess(
                                self.program.name(*proc).as_str().to_string(),
                            ),
                            *line,
                        )
                        .into())
                    }
                };
                coord.watch(&p);
                run.scratch.clear();
                run.scratch.extend_from_slice(&b.all_pats);
                run.scratch.push(EventPattern::Terminated(p.id()));
                let (idx, occ) = coord.ctx().core().events().wait_select(&run.scratch)?;
                if idx == run.scratch.len() - 1 && occ.is_termination_of(p.id()) {
                    Ok(Flow::Done)
                } else {
                    Ok(Flow::Preempted(occ))
                }
            }
            Op::Assign { var, value, line } => {
                let v = self.eval_int(run, value, *line)?;
                match run.lookup(*var) {
                    Some(Value::Variable(target)) => {
                        target.set(Unit::int(v));
                        Ok(Flow::Done)
                    }
                    _ => Err(LangError::at(
                        LangErrorKind::NotAVariable(self.program.name(*var).as_str().to_string()),
                        *line,
                    )
                    .into()),
                }
            }
            Op::If {
                lhs,
                op,
                rhs,
                then,
                otherwise,
                line,
            } => {
                let l = self.eval_int(run, lhs, *line)?;
                let r = self.eval_int(run, rhs, *line)?;
                let hit = match op {
                    '<' => l < r,
                    '>' => l > r,
                    '=' => l == r,
                    _ => unreachable!(),
                };
                let branch = if hit {
                    Some(then.as_ref())
                } else {
                    otherwise.as_deref()
                };
                match branch {
                    Some(a) => self.exec_op(coord, run, b, a, streams),
                    None => Ok(Flow::Done),
                }
            }
            Op::Nop => Ok(Flow::Done),
        }
    }

    fn resolve_process(&self, run: &Run, sym: Sym, line: u32) -> MfResult<ProcessRef> {
        match run.lookup(sym) {
            Some(Value::Process(p)) => Ok(p),
            Some(Value::Variable(v)) => Ok(v.process().clone()),
            _ => Err(LangError::at(
                LangErrorKind::NotAProcess(self.program.name(sym).as_str().to_string()),
                line,
            )
            .into()),
        }
    }

    fn eval_value(&self, run: &Run, e: &CExpr, line: u32) -> MfResult<Value> {
        match e {
            CExpr::Int(v) => Ok(Value::Int(*v)),
            CExpr::Var(sym) | CExpr::Ref(sym) => run.lookup(*sym).ok_or_else(|| {
                LangError::at(
                    LangErrorKind::Unbound(self.program.name(*sym).as_str().to_string()),
                    line,
                )
                .into()
            }),
            CExpr::Binary { .. } => Ok(Value::Int(self.eval_int(run, e, line)?)),
            CExpr::Call => Err(LangError::at(LangErrorKind::NestedCall, line).into()),
        }
    }

    fn eval_int(&self, run: &Run, e: &CExpr, line: u32) -> MfResult<i64> {
        match e {
            CExpr::Int(v) => Ok(*v),
            CExpr::Var(sym) => match run.lookup(*sym) {
                Some(Value::Int(v)) => Ok(v),
                Some(Value::Variable(var)) => Ok(var.get_int()),
                other => Err(LangError::at(
                    LangErrorKind::NotNumeric {
                        name: self.program.name(*sym).as_str().to_string(),
                        found: format!("{other:?}"),
                    },
                    line,
                )
                .into()),
            },
            CExpr::Binary { op, lhs, rhs } => {
                let l = self.eval_int(run, lhs, line)?;
                let r = self.eval_int(run, rhs, line)?;
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
    use crate::lang::compile::compile;
    use crate::lang::parse::parse_program;

    fn run_vm(src: &str, manner: &str) -> (MfResult<()>, Vec<String>) {
        let prog = parse_program(src).unwrap();
        let ir = compile(&prog).unwrap();
        let env = Environment::new();
        let r = env.run_coordinator("Main", |coord| {
            Vm::new(&ir, "test.m").call_manner(coord, manner, vec![])
        });
        let msgs = env
            .trace()
            .snapshot()
            .into_iter()
            .map(|r| r.message)
            .collect();
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
    }
}
