//! The back half of `Mc`: compile MANIFOLD ASTs to the flat state-machine
//! code the VM steps.
//!
//! The tree-walking interpreter re-derives everything on every step: it
//! hashes identifier strings into per-frame maps, re-sorts wait labels,
//! rebuilds `Vec<EventPattern>` lists, and re-matches stream declarations
//! against chain endpoints. All of that is static — it depends only on the
//! source text — so this module hoists it to compile time:
//!
//! * **Numbered states** — every block becomes a [`CompiledBlock`] whose
//!   states are indexed; transitions resolve to state indices, not labels.
//! * **Straight-line bodies** — each state body is one `Vec<`[`Ins`]`>`:
//!   sequences and groups are their parts in order, an `if` is an
//!   [`Ins::Unless`] test with its branches and an [`Ins::Jump`] over the
//!   else-branch, and `preemptall` and mentions emit nothing. A body
//!   suspended in a wait, or in a manner or block it entered, resumes at a
//!   plain instruction index.
//! * **Event-dispatch tables** — the priority-ordered wait-pattern list of
//!   each block (`priority a > b` boosts, then appearance order) is built
//!   once as [`CompiledBlock::local_pats`], with a parallel
//!   [`CompiledBlock::local_targets`] table mapping the selected pattern
//!   index straight to the next state. The enclosing blocks' patterns
//!   ([`CompiledBlock::outer_pats`]) are static too, because a manner call
//!   resets the preemption context — so even `terminated(p)` waits reuse a
//!   precomputed prefix.
//! * **Interned identifiers** — every name becomes a [`Sym`] index into one
//!   program-wide table of [`Name`]s; runtime binding lookups compare `u32`s
//!   and never hash or allocate.
//! * **Pre-resolved opcodes** — declarations lower to [`DeclOp`]s, stream
//!   chains to [`ChainStep`]s with their dismantling type and default ports
//!   (`input`/`output`) already decided, and manner calls to indices.
//!
//! Compilation is *total* on anything the interpreter accepts: conditions
//! the interpreter only detects while running (an unknown constructor, a
//! missing `begin`, a bad stream type) lower to opcodes that fail at the
//! same execution point with the same [`LangError`](super::LangError) —
//! never at compile time. That is what makes the differential
//! interpreter-vs-VM tests meaningful.
//!
//! [`disassemble`](CompiledProgram::disassemble) renders the code in a
//! stable textual form, every instruction with its index and every jump
//! with its target; the committed snapshot for `protocolMW.m` documents
//! the state machine the paper implies, exactly as the VM runs it.

use std::collections::HashMap;

use crate::error::MfResult;
use crate::event::EventPattern;
use crate::ident::Name;
use crate::lang::ast::*;
use crate::stream::StreamType;

/// An interned identifier: an index into [`CompiledProgram::name`]'s table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sym(pub u32);

/// A whole compiled program: symbol table, manners, and the block arena.
pub struct CompiledProgram {
    names: Vec<Name>,
    /// Compiled manners, in source order.
    pub manners: Vec<CompiledManner>,
    /// All blocks (manner bodies and nested blocks), arena-indexed.
    pub blocks: Vec<CompiledBlock>,
}

/// A compiled manner: parameter symbols plus its root block.
pub struct CompiledManner {
    /// The manner's name.
    pub name: Name,
    /// Whether it was declared `export`.
    pub export: bool,
    /// Parameter binding symbols, in order.
    pub params: Vec<Sym>,
    /// Root block index into [`CompiledProgram::blocks`].
    pub block: usize,
}

/// A compiled block: declaration opcodes, numbered states, and the
/// precomputed event-dispatch tables.
pub struct CompiledBlock {
    /// Declaration opcodes, in source order.
    pub decls: Vec<DeclOp>,
    /// Numbered states, in source order.
    pub states: Vec<CompiledState>,
    /// Index of the `begin` state (None lowers to a runtime error, exactly
    /// when the interpreter would report it).
    pub begin: Option<usize>,
    /// Priority-ordered wait patterns over this block's own labels.
    pub local_pats: Vec<EventPattern>,
    /// `local_pats[i]` selected → transition to state `local_targets[i]`.
    pub local_targets: Vec<usize>,
    /// Wait patterns of the enclosing blocks (nearest first); selecting one
    /// exits this block with a preemption.
    pub outer_pats: Vec<EventPattern>,
    /// `local_pats` ++ `outer_pats`: the prefix of every `terminated`/IDLE
    /// wait in this block.
    pub all_pats: Vec<EventPattern>,
    /// Events purged on block exit (`ignore e.`).
    pub ignores: Vec<Name>,
}

/// One numbered state.
pub struct CompiledState {
    /// The event label.
    pub label: Name,
    /// Source line of the label (MES records and diagnostics attribute to
    /// it, exactly as the interpreter does).
    pub line: u32,
    /// The body, as the straight-line code the VM steps.
    pub body: Vec<Ins>,
}

/// Compiled declaration opcodes (run once, at block entry, in order).
pub enum DeclOp {
    /// `event e.` — bind `e` to itself as an event value.
    Event {
        /// Binding symbol.
        sym: Sym,
    },
    /// `process v is variable(init).` — spawn a built-in variable.
    Variable {
        /// Binding symbol.
        sym: Sym,
        /// Initialiser (defaults to 0).
        init: Option<CExpr>,
        /// Declaration line.
        line: u32,
    },
    /// `process p is Ctor(args).` — invoke a manifold factory in scope.
    Process {
        /// Binding symbol.
        sym: Sym,
        /// Constructor symbol (resolved in the dynamic scope at runtime).
        ctor: Sym,
        /// Argument expressions.
        args: Vec<CExpr>,
        /// Declaration line.
        line: u32,
    },
    /// `stream XY …` with an unknown type: fails at block entry, at the
    /// same point the interpreter reports it.
    InvalidStream {
        /// The unknown type keyword.
        ty: String,
    },
}

/// One pre-resolved segment of a stream chain (`a -> b.port`).
#[derive(Clone)]
pub struct ChainStep {
    /// Dismantling type (from a matching `stream TY …` declaration of the
    /// same block, else the default `BK`).
    pub ty: StreamType,
    /// `&from`: deliver the process *reference* as a one-shot unit.
    pub from_ref: bool,
    /// Source process symbol.
    pub from: Sym,
    /// Source port (default `output` already applied).
    pub from_port: Sym,
    /// Sink process symbol.
    pub to: Sym,
    /// Sink port (default `input` already applied).
    pub to_port: Sym,
}

/// One instruction of a state body. A body runs from instruction 0 until it
/// falls off its end (it completed) or an instruction ends the state early:
/// `halt`, an error, or a wait preempted by an event. `preemptall` and
/// mentions have no runtime effect and emit nothing.
pub enum Ins {
    /// Build a stream chain from its pre-resolved segments.
    Chain {
        /// Pre-resolved segments.
        steps: Vec<ChainStep>,
        /// Source line (for resolution diagnostics).
        line: u32,
    },
    /// Call a manner. `manner` is `None` when the program defines no such
    /// manner — executing the instruction reports it, as the interpreter
    /// does.
    Call {
        /// Resolved manner index.
        manner: Option<usize>,
        /// The callee symbol (for diagnostics).
        name: Sym,
        /// Argument expressions.
        args: Vec<CExpr>,
        /// Source line.
        line: u32,
    },
    /// `post (e)`.
    Post(Sym),
    /// `raise (e)`.
    Raise(Sym),
    /// `halt`.
    Halt,
    /// `MES("…")`, attributed to `line`.
    Mes {
        /// The message.
        msg: String,
        /// Source line (trace attribution).
        line: u32,
    },
    /// `terminated (void)` — wait until an event preempts the state.
    Idle,
    /// `terminated (p)` — watch `p`, wait for its termination or a
    /// preempting event.
    Await {
        /// The process symbol.
        proc: Sym,
        /// Source line.
        line: u32,
    },
    /// `name = expr`.
    Assign {
        /// The variable symbol.
        var: Sym,
        /// The value expression.
        value: CExpr,
        /// Source line.
        line: u32,
    },
    /// Enter a nested block.
    Block(usize),
    /// The test of an `if`: fall through into the then-branch when
    /// `lhs op rhs` holds (`op` is `<`, `>` or `=`), else go on at
    /// instruction `otherwise`.
    Unless {
        /// Left operand.
        lhs: CExpr,
        /// The comparison.
        op: char,
        /// Right operand.
        rhs: CExpr,
        /// Source line.
        line: u32,
        /// Where the else-branch, or what follows the `if`, starts.
        otherwise: usize,
    },
    /// From the end of a then-branch past its else-branch.
    Jump(usize),
}

/// Compiled expressions.
#[derive(Clone)]
pub enum CExpr {
    /// Integer literal.
    Int(i64),
    /// Name lookup.
    Var(Sym),
    /// `&name` (same lookup; the reference-ness is carried by the use).
    Ref(Sym),
    /// `a + b` / `a - b`.
    Binary {
        /// Operator.
        op: char,
        /// Left side.
        lhs: Box<CExpr>,
        /// Right side.
        rhs: Box<CExpr>,
    },
    /// Nested constructor call: unsupported, fails on evaluation (exactly
    /// like the interpreter).
    Call,
}

impl CompiledProgram {
    /// The interned [`Name`] behind a symbol.
    pub fn name(&self, sym: Sym) -> &Name {
        &self.names[sym.0 as usize]
    }

    /// Number of interned symbols.
    pub fn symbol_count(&self) -> usize {
        self.names.len()
    }

    /// Find a compiled manner by name.
    pub fn manner(&self, name: &str) -> Option<&CompiledManner> {
        self.manners.iter().find(|m| m.name.as_str() == name)
    }

    /// Render the code in a stable, human-readable text form: each state
    /// body as its numbered instructions (the committed snapshot for
    /// `protocolMW.m` pins this down).
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        let p = |s: &mut String, line: &str| {
            s.push_str(line);
            s.push('\n');
        };
        p(
            &mut out,
            &format!(
                "; compiled MANIFOLD IR — {} manner(s), {} block(s), {} symbol(s)",
                self.manners.len(),
                self.blocks.len(),
                self.names.len()
            ),
        );
        out.push('\n');
        p(&mut out, "symbols:");
        for (i, n) in self.names.iter().enumerate() {
            p(&mut out, &format!("  %{i} = {n}"));
        }
        for m in &self.manners {
            out.push('\n');
            let params: Vec<String> = m.params.iter().map(|s| self.sym_str(*s)).collect();
            p(
                &mut out,
                &format!(
                    "manner {}({}){} -> block {}",
                    m.name,
                    params.join(", "),
                    if m.export { " export" } else { "" },
                    m.block
                ),
            );
        }
        for (bi, b) in self.blocks.iter().enumerate() {
            out.push('\n');
            p(&mut out, &format!("block {bi}:"));
            for d in &b.decls {
                p(&mut out, &format!("  {}", self.decl_str(d)));
            }
            if !b.ignores.is_empty() {
                let names: Vec<String> = b.ignores.iter().map(|n| n.to_string()).collect();
                p(&mut out, &format!("  ignore [{}]", names.join(", ")));
            }
            let waits: Vec<String> = b
                .local_pats
                .iter()
                .zip(&b.local_targets)
                .map(|(pat, tgt)| format!("{} -> state {tgt}", pat_str(pat)))
                .collect();
            p(&mut out, &format!("  dispatch [{}]", waits.join(", ")));
            let outer: Vec<String> = b.outer_pats.iter().map(pat_str).collect();
            p(&mut out, &format!("  outer    [{}]", outer.join(", ")));
            match b.begin {
                Some(i) => p(&mut out, &format!("  begin    state {i}")),
                None => p(&mut out, "  begin    (missing: fails on entry)"),
            }
            for (si, st) in b.states.iter().enumerate() {
                p(
                    &mut out,
                    &format!("  state {si} '{}' @line {}:", st.label, st.line),
                );
                for (i, ins) in st.body.iter().enumerate() {
                    p(&mut out, &format!("    {i}: {}", self.ins_str(ins)));
                }
            }
        }
        out
    }

    fn sym_str(&self, s: Sym) -> String {
        format!("%{}:{}", s.0, self.names[s.0 as usize])
    }

    fn decl_str(&self, d: &DeclOp) -> String {
        match d {
            DeclOp::Event { sym } => format!("event    {}", self.sym_str(*sym)),
            DeclOp::Variable { sym, init, line } => format!(
                "variable {} = {} ; line {line}",
                self.sym_str(*sym),
                match init {
                    Some(e) => self.expr_str(e),
                    None => "0".into(),
                }
            ),
            DeclOp::Process {
                sym,
                ctor,
                args,
                line,
            } => {
                let a: Vec<String> = args.iter().map(|e| self.expr_str(e)).collect();
                format!(
                    "process  {} = {}({}) ; line {line}",
                    self.sym_str(*sym),
                    self.sym_str(*ctor),
                    a.join(", ")
                )
            }
            DeclOp::InvalidStream { ty } => format!("!invalid-stream-type {ty}"),
        }
    }

    fn expr_str(&self, e: &CExpr) -> String {
        match e {
            CExpr::Int(v) => v.to_string(),
            CExpr::Var(s) => self.sym_str(*s),
            CExpr::Ref(s) => format!("&{}", self.sym_str(*s)),
            CExpr::Binary { op, lhs, rhs } => {
                format!("({} {op} {})", self.expr_str(lhs), self.expr_str(rhs))
            }
            CExpr::Call => "!nested-call".into(),
        }
    }

    fn ins_str(&self, ins: &Ins) -> String {
        match ins {
            Ins::Chain { steps, line } => {
                let mut s = format!("chain ; line {line}");
                for st in steps {
                    let from = if st.from_ref {
                        format!("&{}", self.sym_str(st.from))
                    } else {
                        format!("{}.{}", self.sym_str(st.from), self.name(st.from_port))
                    };
                    s.push_str(&format!(
                        "\n         {:?} {from} -> {}.{}",
                        st.ty,
                        self.sym_str(st.to),
                        self.name(st.to_port)
                    ));
                }
                s
            }
            Ins::Call {
                manner,
                name,
                args,
                line,
            } => {
                let a: Vec<String> = args.iter().map(|e| self.expr_str(e)).collect();
                let target = match manner {
                    Some(i) => format!("manner {i}"),
                    None => "!unknown".into(),
                };
                let name = self.sym_str(*name);
                format!("call {name} ({}) = {target} ; line {line}", a.join(", "))
            }
            Ins::Post(s) => format!("post {}", self.sym_str(*s)),
            Ins::Raise(s) => format!("raise {}", self.sym_str(*s)),
            Ins::Halt => "halt".into(),
            Ins::Mes { msg, line } => format!("mes {msg:?} ; line {line}"),
            Ins::Idle => "idle".into(),
            Ins::Await { proc, line } => {
                format!("await-termination {} ; line {line}", self.sym_str(*proc))
            }
            Ins::Assign { var, value, line } => format!(
                "assign {} = {} ; line {line}",
                self.sym_str(*var),
                self.expr_str(value)
            ),
            Ins::Block(b) => format!("enter block {b}"),
            Ins::Unless {
                lhs,
                op,
                rhs,
                line,
                otherwise,
            } => format!(
                "unless {} {op} {} -> {otherwise} ; line {line}",
                self.expr_str(lhs),
                self.expr_str(rhs)
            ),
            Ins::Jump(to) => format!("jump -> {to}"),
        }
    }
}

fn pat_str(p: &EventPattern) -> String {
    match p {
        EventPattern::Named(n) => n.to_string(),
        other => format!("{other:?}"),
    }
}

/// Compile a parsed program to state-machine code. Total on everything the
/// interpreter accepts (see module docs); the `Result` is for future
/// front-end limits.
///
/// Every callable coordinator body becomes a [`CompiledManner`]: `manner`
/// items first, then manifolds declared with coordinator blocks (like
/// `mainprog.m`'s `Main`) — the same order and shadowing rule as
/// [`Program::coordinator`], so call resolution matches the interpreter.
pub fn compile(program: &Program) -> MfResult<CompiledProgram> {
    // (name, params, body, export), in the interpreter's resolution order.
    let callables: Vec<(&String, &Vec<Param>, &Block, bool)> = program
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Manner {
                export,
                name,
                params,
                body,
            } => Some((name, params, body, *export)),
            _ => None,
        })
        .chain(program.items.iter().filter_map(|i| match i {
            Item::Manifold {
                name,
                params,
                body: Some(b),
                ..
            } => Some((name, params, b, false)),
            _ => None,
        }))
        .collect();
    let mut c = Compiler {
        names: Vec::new(),
        map: HashMap::new(),
        blocks: Vec::new(),
        manner_names: callables.iter().map(|(n, ..)| (*n).clone()).collect(),
    };
    let mut manners = Vec::new();
    for (name, params, body, export) in &callables {
        let params: Vec<Sym> = params.iter().map(|p| c.intern(param_name(p))).collect();
        let block = c.compile_block(body, &[]);
        manners.push(CompiledManner {
            name: Name::new(name),
            export: *export,
            params,
            block,
        });
    }
    Ok(CompiledProgram {
        names: c.names,
        manners,
        blocks: c.blocks,
    })
}

fn param_name(p: &Param) -> &str {
    match p {
        Param::Process { name, .. } => name,
        Param::Manifold { name, .. } => name,
        Param::Event(name) => name,
        Param::Port { name, .. } => name,
    }
}

struct Compiler {
    names: Vec<Name>,
    map: HashMap<String, u32>,
    blocks: Vec<CompiledBlock>,
    manner_names: Vec<String>,
}

impl Compiler {
    fn intern(&mut self, s: &str) -> Sym {
        if let Some(&i) = self.map.get(s) {
            return Sym(i);
        }
        let i = self.names.len() as u32;
        self.names.push(Name::new(s));
        self.map.insert(s.to_string(), i);
        Sym(i)
    }

    /// Compile one block. `outer` is the static chain of enclosing wait
    /// labels (nearest block first, already priority-ordered), empty at a
    /// manner boundary.
    fn compile_block(&mut self, block: &Block, outer: &[Name]) -> usize {
        let mut decls = Vec::new();
        let mut priorities: Vec<(String, String)> = Vec::new();
        let mut ignores: Vec<Name> = Vec::new();
        let mut stream_decls: Vec<(StreamType, Endpoint, Endpoint)> = Vec::new();

        for d in &block.declarations {
            match d {
                Declaration::Save(_) | Declaration::Hold(_) | Declaration::Internal => {}
                Declaration::Ignore(names) => ignores.extend(names.iter().map(Name::new)),
                Declaration::Event(names) => {
                    for n in names {
                        let sym = self.intern(n);
                        decls.push(DeclOp::Event { sym });
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
                    let sym = self.intern(name);
                    if ctor == "variable" {
                        decls.push(DeclOp::Variable {
                            sym,
                            init: args.first().map(|e| self.compile_expr(e)),
                            line: *line,
                        });
                    } else {
                        let ctor = self.intern(ctor);
                        let args = args.iter().map(|e| self.compile_expr(e)).collect();
                        decls.push(DeclOp::Process {
                            sym,
                            ctor,
                            args,
                            line: *line,
                        });
                    }
                }
                Declaration::Stream { ty, from, to } => match parse_stream_type(ty) {
                    Some(sty) => stream_decls.push((sty, from.clone(), to.clone())),
                    None => decls.push(DeclOp::InvalidStream { ty: ty.clone() }),
                },
            }
        }

        // The event-dispatch table: local labels priority-sorted exactly as
        // the interpreter sorts them (explicit `priority … >` boosts ahead,
        // then appearance order; the sort is stable).
        let local_labels: Vec<Name> = block.states.iter().map(|s| Name::new(&s.label)).collect();
        let mut ordered = local_labels;
        ordered.sort_by_key(|n| {
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
        let local_targets: Vec<usize> = ordered
            .iter()
            .map(|n| {
                block
                    .states
                    .iter()
                    .position(|s| s.label == n.as_str())
                    .expect("ordered labels come from states")
            })
            .collect();
        let local_pats: Vec<EventPattern> = ordered
            .iter()
            .map(|n| EventPattern::Named(n.clone()))
            .collect();
        let outer_pats: Vec<EventPattern> = outer
            .iter()
            .map(|n| EventPattern::Named(n.clone()))
            .collect();
        let mut all_pats = local_pats.clone();
        all_pats.extend_from_slice(&outer_pats);

        // Nested blocks see this block's ordered labels, then our outers.
        let mut child_outer = ordered.clone();
        child_outer.extend_from_slice(outer);

        let begin = block.states.iter().position(|s| s.label == "begin");
        let states: Vec<CompiledState> = block
            .states
            .iter()
            .map(|s| {
                let mut body = Vec::new();
                self.compile_action(&s.body, &stream_decls, &child_outer, s.line, &mut body);
                CompiledState {
                    label: Name::new(&s.label),
                    line: s.line,
                    body,
                }
            })
            .collect();

        self.blocks.push(CompiledBlock {
            decls,
            states,
            begin,
            local_pats,
            local_targets,
            outer_pats,
            all_pats,
            ignores,
        });
        self.blocks.len() - 1
    }

    /// Append `action` to the state body `code`. A sequence or group is its
    /// parts in order; an `if` is its test, its then-branch and, with an
    /// else-branch, a jump over it, each jump patched once its target is
    /// known.
    fn compile_action(
        &mut self,
        action: &Action,
        stream_decls: &[(StreamType, Endpoint, Endpoint)],
        child_outer: &[Name],
        line: u32,
        code: &mut Vec<Ins>,
    ) {
        let ins = match action {
            Action::Seq(parts) | Action::Group(parts) => {
                for p in parts {
                    self.compile_action(p, stream_decls, child_outer, line, code);
                }
                return;
            }
            Action::If {
                cond,
                then,
                otherwise,
            } => {
                let test = code.len();
                code.push(Ins::Unless {
                    lhs: self.compile_expr(&cond.lhs),
                    op: cond.op,
                    rhs: self.compile_expr(&cond.rhs),
                    line,
                    otherwise: 0,
                });
                self.compile_action(then, stream_decls, child_outer, line, code);
                let at = match otherwise {
                    None => code.len(),
                    Some(o) => {
                        let jump = code.len();
                        code.push(Ins::Jump(0));
                        self.compile_action(o, stream_decls, child_outer, line, code);
                        code[jump] = Ins::Jump(code.len());
                        jump + 1
                    }
                };
                if let Ins::Unless { otherwise, .. } = &mut code[test] {
                    *otherwise = at;
                }
                return;
            }
            Action::PreemptAll | Action::Mention(_) => return,
            Action::Block(b) => Ins::Block(self.compile_block(b, child_outer)),
            Action::Chain(endpoints) => {
                let steps = endpoints
                    .windows(2)
                    .map(|pair| {
                        let (from, to) = (&pair[0], &pair[1]);
                        let ty = stream_decls
                            .iter()
                            .find(|(_, f, t)| endpoints_match(f, from) && endpoints_match(t, to))
                            .map(|(ty, _, _)| *ty)
                            .unwrap_or(StreamType::BK);
                        ChainStep {
                            ty,
                            from_ref: from.is_ref,
                            from: self.intern(&from.process),
                            from_port: self.intern(from.port.as_deref().unwrap_or("output")),
                            to: self.intern(&to.process),
                            to_port: self.intern(to.port.as_deref().unwrap_or("input")),
                        }
                    })
                    .collect();
                Ins::Chain { steps, line }
            }
            Action::Call { name, args } => Ins::Call {
                manner: self.manner_names.iter().position(|m| m == name),
                name: self.intern(name),
                args: args.iter().map(|e| self.compile_expr(e)).collect(),
                line,
            },
            Action::Post(e) => Ins::Post(self.intern(e)),
            Action::Raise(e) => Ins::Raise(self.intern(e)),
            Action::Halt => Ins::Halt,
            Action::Mes(msg) => Ins::Mes {
                msg: msg.clone(),
                line,
            },
            Action::Terminated(pname) if pname == "void" => Ins::Idle,
            Action::Terminated(pname) => Ins::Await {
                proc: self.intern(pname),
                line,
            },
            Action::Assign { name, value } => Ins::Assign {
                var: self.intern(name),
                value: self.compile_expr(value),
                line,
            },
        };
        code.push(ins);
    }

    fn compile_expr(&mut self, e: &Expr) -> CExpr {
        match e {
            Expr::Int(v) => CExpr::Int(*v),
            Expr::Var(name) => CExpr::Var(self.intern(name)),
            Expr::Ref(name) => CExpr::Ref(self.intern(name)),
            Expr::Binary { op, lhs, rhs } => CExpr::Binary {
                op: *op,
                lhs: Box::new(self.compile_expr(lhs)),
                rhs: Box::new(self.compile_expr(rhs)),
            },
            Expr::Call { .. } => CExpr::Call,
        }
    }
}

pub(crate) fn endpoints_match(decl: &Endpoint, used: &Endpoint) -> bool {
    decl.process == used.process
        && (decl.port.is_none() || decl.port == used.port)
        && decl.is_ref == used.is_ref
}

pub(crate) fn parse_stream_type(s: &str) -> Option<StreamType> {
    Some(match s {
        "BK" => StreamType::BK,
        "KK" => StreamType::KK,
        "BB" => StreamType::BB,
        "KB" => StreamType::KB,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse::parse_program;
    use crate::lang::{MAINPROG_SOURCE, PROTOCOL_MW_SOURCE};

    #[test]
    fn compiles_protocol_mw_with_expected_shape() {
        let prog = parse_program(PROTOCOL_MW_SOURCE).unwrap();
        let ir = compile(&prog).unwrap();
        assert_eq!(ir.manners.len(), 2);
        let pool = ir.manner("Create_Worker_Pool").unwrap();
        let root = &ir.blocks[pool.block];
        // begin, create_worker, rendezvous, end — with create_worker
        // boosted ahead by `priority create_worker > rendezvous.`
        assert_eq!(root.states.len(), 4);
        assert_eq!(
            root.local_pats.first(),
            Some(&EventPattern::Named(Name::new("create_worker")))
        );
        assert_eq!(root.local_targets.first(), Some(&1));
        assert_eq!(root.begin, Some(0));
        // The nested create_worker block resolved `stream KK worker ->
        // master.dataport` into its chain.
        let nested: Vec<&CompiledBlock> = ir
            .blocks
            .iter()
            .filter(|b| !b.outer_pats.is_empty())
            .collect();
        assert!(!nested.is_empty());
        let has_kk = ir.blocks.iter().flat_map(|b| &b.states).any(|s| {
            s.body.iter().any(
                |i| matches!(i, Ins::Chain { steps, .. } if steps.iter().any(|s| s.ty == StreamType::KK)),
            )
        });
        assert!(has_kk, "KK stream type not resolved into any chain");
    }

    #[test]
    fn compiles_mainprog() {
        let prog = parse_program(MAINPROG_SOURCE).unwrap();
        let ir = compile(&prog).unwrap();
        assert!(ir.symbol_count() > 0);
        assert!(!ir.blocks.is_empty());
    }

    #[test]
    fn compilation_is_total_on_runtime_only_errors() {
        // Unknown ctor, unknown manner call, missing begin, bad stream
        // type: all must *compile* (they fail at the same execution point
        // as the interpreter).
        let src = "manner Odd() {\
            stream XX a -> b.inport.\
            process p is NotBound(1).\
            begin: Missing(); terminated(q).\
        }\
        manner NoBegin() { other: halt. }";
        let prog = parse_program(src).unwrap();
        let ir = compile(&prog).unwrap();
        let odd = ir.manner("Odd").unwrap();
        assert!(matches!(
            ir.blocks[odd.block].decls[0],
            DeclOp::InvalidStream { .. }
        ));
        let nb = ir.manner("NoBegin").unwrap();
        assert_eq!(ir.blocks[nb.block].begin, None);
    }

    #[test]
    fn disassembly_is_deterministic() {
        let prog = parse_program(PROTOCOL_MW_SOURCE).unwrap();
        let a = compile(&prog).unwrap().disassemble();
        let b = compile(&prog).unwrap().disassemble();
        assert_eq!(a, b);
        assert!(a.contains("manner ProtocolMW"));
        assert!(a.contains("dispatch ["));
    }
}
