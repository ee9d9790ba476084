//! The whole `Mc` compiler for the MANIFOLD subset the paper uses, plus
//! two executors for running compiled coordinator specs.
//!
//! The paper presents its coordination protocol as literal MANIFOLD source
//! (`protocolMW.m`, `mainprog.m`). This module takes that source the whole
//! way: lex → parse → check → **compile to a state-machine IR** → execute,
//! with a tree-walking interpreter kept as the reference semantics:
//!
//! * [`token`] — lexer with `/* … */`, `//` comments, `#include`
//!   recording and object-like `#define` macro substitution (the paper's
//!   `#define IDLE terminated (void)`);
//! * [`ast`] — the abstract syntax: manner/manifold declarations, blocks
//!   with declarative statements (`save`, `ignore`, `priority`, `hold`,
//!   `auto process … is …`, `stream KK …`), event-labelled states, and
//!   action expressions (sequential `;`, grouped `(…, …)`, stream chains
//!   `&worker -> master -> worker -> master.dataport`, `post`/`raise`/
//!   `halt`/`terminated`, assignments and `if … then … else …`);
//! * [`parse`] — a recursive-descent parser;
//! * [`check`] — structural semantic checks (every block has a `begin`
//!   state, priority declarations reference handled events, …) and
//!   protocol-level queries used by the tests to verify that the paper's
//!   source and this crate's embedded-DSL implementation agree;
//! * [`compile`](mod@compile) — the back end: AST → flat per-manner
//!   state-machine IR (numbered states, priority-ordered event-dispatch
//!   tables, interned identifiers, pre-resolved stream chains and
//!   declaration opcodes), plus a stable disassembler;
//! * [`vm`] — the production executor: steps the IR against the live
//!   runtime with zero per-step parsing, hashing, or allocation in the
//!   steady state;
//! * [`interp`] — the reference executor: tree-walks the AST with the same
//!   observable semantics (the differential tests in
//!   `tests/lang_proptests.rs` hold the two bit-identical);
//! * [`exec`] — the seam between them: the shared [`Value`] model,
//!   [`AtomicFactory`] host interface with typed `expect_*_arg` argument
//!   access, the [`CoordExecutor`] trait, the [`CoordExec`] selector
//!   (`--coord interp|compiled`, compiled by default), and [`Mc`], which
//!   bundles a parsed program with its compiled form;
//! * [`error`] — typed [`LangError`] diagnostics carrying source lines.
//!
//! The paper's two source files ship as fixtures (`fixtures/protocolMW.m`,
//! `fixtures/mainprog.m`, transcribed from §4.2/§5); the committed IR
//! snapshot `fixtures/protocolMW.ir.txt` documents the state machine the
//! paper implies.

pub mod ast;
pub mod check;
pub mod compile;
pub mod error;
pub mod exec;
pub mod interp;
pub mod parse;
pub mod print;
pub mod token;
pub mod vm;

pub use ast::{Action, BlockItem, Declaration, Item, Program, State};
pub use check::{check_program, ProgramSummary};
pub use compile::{compile, CompiledBlock, CompiledManner, CompiledProgram, CompiledState};
pub use error::{LangError, LangErrorKind};
pub use exec::{
    expect_event_arg, expect_int_arg, expect_process_arg, AtomicFactory, CoordExec, CoordExecutor,
    Executor, Mc, Value,
};
pub use interp::Interp;
pub use parse::parse_program;
pub use print::print_program;
pub use token::{lex, Token, TokenKind};
pub use vm::Vm;

/// The paper's `protocolMW.m` (§4.2), transcribed.
pub const PROTOCOL_MW_SOURCE: &str = include_str!("fixtures/protocolMW.m");

/// The paper's `mainprog.m` (§5), transcribed.
pub const MAINPROG_SOURCE: &str = include_str!("fixtures/mainprog.m");
