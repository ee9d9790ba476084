//! Typed diagnostics for the MANIFOLD language layer.
//!
//! Both executors (the tree-walking [`crate::lang::interp::Interp`] and the
//! compiled [`crate::lang::vm::Vm`]) report malformed coordinator specs
//! through [`LangError`]: a typed kind plus the source line it was detected
//! at, instead of the bare `MfError::Spec(String)` (and the occasional
//! `panic!` in host-supplied factories) they used historically. Host code
//! building an [`crate::lang::AtomicFactory`] gets the same treatment via
//! the `expect_*_arg` helpers in [`crate::lang::exec`], so a wrong argument
//! kind diagnoses with the declaration's span rather than aborting.

use std::fmt;

use crate::error::MfError;

/// A diagnosed problem in a coordinator spec, with the source line where it
/// was detected (`0` when no span is known — e.g. inside a host factory
/// before the runtime re-attributes it to the declaration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// What went wrong.
    pub kind: LangErrorKind,
    /// 1-based source line, or 0 when unknown.
    pub line: u32,
}

/// The kinds of language-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LangErrorKind {
    /// Call (or entry) to a manner the program does not define.
    UnknownManner(String),
    /// A manner was invoked with the wrong number of arguments.
    ArityMismatch {
        /// The manner called.
        manner: String,
        /// Declared parameter count.
        params: usize,
        /// Supplied argument count.
        args: usize,
    },
    /// A `process … is Ctor(…)` constructor is not a manifold in scope.
    NotAManifold(String),
    /// A name used where a process is required is not one.
    NotAProcess(String),
    /// Assignment target is not a `variable` instance.
    NotAVariable(String),
    /// A name used in arithmetic is bound to a non-numeric value.
    NotNumeric {
        /// The offending name.
        name: String,
        /// Debug rendering of what it is bound to.
        found: String,
    },
    /// An expression mentions a name with no binding in scope.
    Unbound(String),
    /// A block transitioned to (or started without) a missing state.
    NoSuchState(String),
    /// `stream XY …` with an unknown dismantling type.
    UnknownStreamType(String),
    /// Nested constructor calls are not supported as arguments.
    NestedCall,
    /// A host [`crate::lang::AtomicFactory`] received an argument of the
    /// wrong kind (reported by the `expect_*_arg` helpers).
    BadArgument {
        /// Zero-based argument index.
        index: usize,
        /// The kind the factory required.
        expected: &'static str,
        /// The kind it actually received.
        found: &'static str,
    },
    /// A non-numeric expression where an integer was required.
    NonNumericExpr,
    /// Blocks, groups or expressions nested deeper than
    /// [`MAX_NESTING`](crate::lang::parse::MAX_NESTING).
    RecursionLimitExceeded,
}

impl LangError {
    /// An error with no known source line.
    pub fn new(kind: LangErrorKind) -> Self {
        LangError { kind, line: 0 }
    }

    /// An error detected at `line`.
    pub fn at(kind: LangErrorKind, line: u32) -> Self {
        LangError { kind, line }
    }

    /// Attach `line` if the error has no span yet (used to re-attribute
    /// factory-reported errors to the `process … is …` declaration).
    pub(crate) fn or_line(mut self, line: u32) -> Self {
        if self.line == 0 {
            self.line = line;
        }
        self
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line != 0 {
            write!(f, "line {}: ", self.line)?;
        }
        match &self.kind {
            LangErrorKind::UnknownManner(n) => write!(f, "no manner `{n}`"),
            LangErrorKind::ArityMismatch {
                manner,
                params,
                args,
            } => write!(
                f,
                "arity mismatch calling `{manner}`: {params} params, {args} args"
            ),
            LangErrorKind::NotAManifold(n) => write!(f, "`{n}` is not a manifold in scope"),
            LangErrorKind::NotAProcess(n) => write!(f, "`{n}` is not a process in scope"),
            LangErrorKind::NotAVariable(n) => write!(f, "`{n}` is not a variable"),
            LangErrorKind::NotNumeric { name, found } => {
                write!(f, "`{name}` is not numeric: {found}")
            }
            LangErrorKind::Unbound(n) => write!(f, "unbound name `{n}`"),
            LangErrorKind::NoSuchState(l) => write!(f, "no state `{l}`"),
            LangErrorKind::UnknownStreamType(t) => write!(f, "unknown stream type {t}"),
            LangErrorKind::NestedCall => write!(
                f,
                "nested constructor calls are not supported as manner arguments here; \
                 pre-instantiate and pass the process"
            ),
            LangErrorKind::BadArgument {
                index,
                expected,
                found,
            } => write!(
                f,
                "factory argument {index}: expected {expected}, got {found}"
            ),
            LangErrorKind::NonNumericExpr => write!(f, "non-numeric expression"),
            LangErrorKind::RecursionLimitExceeded => {
                write!(f, "nested deeper than {}", crate::lang::parse::MAX_NESTING)
            }
        }
    }
}

impl std::error::Error for LangError {}

impl From<LangError> for MfError {
    fn from(e: LangError) -> Self {
        MfError::Lang(e)
    }
}

/// Re-attribute a factory error to the declaration line that invoked it,
/// when the error is a span-less [`LangError`].
pub(crate) fn attribute_line(e: MfError, line: u32) -> MfError {
    match e {
        MfError::Lang(le) => MfError::Lang(le.or_line(line)),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_span() {
        let e = LangError::at(LangErrorKind::NotAVariable("t".into()), 43);
        assert_eq!(e.to_string(), "line 43: `t` is not a variable");
        let e = LangError::new(LangErrorKind::NestedCall);
        assert!(!e.to_string().starts_with("line"));
    }

    #[test]
    fn or_line_keeps_existing_span() {
        let e = LangError::at(LangErrorKind::Unbound("x".into()), 7).or_line(9);
        assert_eq!(e.line, 7);
        let e = LangError::new(LangErrorKind::Unbound("x".into())).or_line(9);
        assert_eq!(e.line, 9);
    }

    #[test]
    fn converts_into_mf_error() {
        let e: MfError = LangError::new(LangErrorKind::UnknownManner("Nope".into())).into();
        assert!(matches!(e, MfError::Lang(_)));
        assert!(e.to_string().contains("no manner"));
    }
}
