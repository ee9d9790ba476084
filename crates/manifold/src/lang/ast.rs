//! Abstract syntax of the MANIFOLD subset.

/// A whole source file.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Top-level declarations in order.
    pub items: Vec<Item>,
    /// Files this source `#include`d.
    pub includes: Vec<String>,
    /// `//pragma` lines.
    pub pragmas: Vec<String>,
}

/// A top-level declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// `manner Name(params) { block }` — a parameterized coordination
    /// subprogram; `export` makes it visible to other compilation units.
    Manner {
        /// Exported?
        export: bool,
        /// Manner name.
        name: String,
        /// Formal parameters.
        params: Vec<Param>,
        /// The body.
        body: Block,
    },
    /// `manifold Name(params) …` — a process definition; `atomic` bodies
    /// are external (the C wrappers), otherwise a coordinator block.
    Manifold {
        /// Manifold name.
        name: String,
        /// Formal parameters.
        params: Vec<Param>,
        /// Declared ports (beyond the standard ones).
        ports: Vec<PortDecl>,
        /// Atomic (externally implemented)?
        atomic: bool,
        /// Events an atomic manifold exchanges (`{internal. event …}`).
        atomic_events: Vec<String>,
        /// Coordinator body, when not atomic.
        body: Option<Block>,
    },
}

/// A formal parameter.
#[derive(Clone, Debug, PartialEq)]
pub enum Param {
    /// `process name <inports / outports>`.
    Process {
        /// Parameter name.
        name: String,
        /// Required input ports.
        inputs: Vec<String>,
        /// Required output ports.
        outputs: Vec<String>,
    },
    /// `manifold Name(event, …)` — a process *definition* parameter.
    Manifold {
        /// Parameter name.
        name: String,
        /// Parameter kinds of the manifold (e.g. `event`).
        arg_kinds: Vec<String>,
    },
    /// `event name`.
    Event(String),
    /// `port in name` / `port out name`.
    Port {
        /// Direction: true = input.
        is_input: bool,
        /// Port name.
        name: String,
    },
}

/// A port declaration on a manifold header (`port in dataport.`).
#[derive(Clone, Debug, PartialEq)]
pub struct PortDecl {
    /// true = input port.
    pub is_input: bool,
    /// Port name.
    pub name: String,
}

/// A coordinator block: declarations followed by event-labelled states.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Block {
    /// Declarative statements.
    pub declarations: Vec<Declaration>,
    /// States in order.
    pub states: Vec<State>,
}

/// A block item (used during parsing).
#[derive(Clone, Debug, PartialEq)]
pub enum BlockItem {
    /// Declarative statement.
    Decl(Declaration),
    /// Event-labelled state.
    State(State),
}

/// Declarative statements of a block.
#[derive(Clone, Debug, PartialEq)]
pub enum Declaration {
    /// `save *.` or `save e1, e2.`
    Save(Vec<String>),
    /// `ignore e1, e2.`
    Ignore(Vec<String>),
    /// `event e1, e2.`
    Event(Vec<String>),
    /// `priority a > b.`
    Priority {
        /// Higher-priority event.
        higher: String,
        /// Lower-priority event.
        lower: String,
    },
    /// `auto? process name is Ctor(args).`
    Process {
        /// Auto-activated?
        auto: bool,
        /// Instance name.
        name: String,
        /// Constructor manifold.
        ctor: String,
        /// Constructor arguments.
        args: Vec<Expr>,
        /// Source line of the declaration (diagnostic attribution).
        line: u32,
    },
    /// `hold name.`
    Hold(String),
    /// `stream KK a -> b.c.` — a stream-type declaration for matching
    /// connections.
    Stream {
        /// Stream type keyword (`KK`, `BK`, `BB`, `KB`).
        ty: String,
        /// Source endpoint.
        from: Endpoint,
        /// Sink endpoint.
        to: Endpoint,
    },
    /// `internal.` (atomic manifold body marker).
    Internal,
}

/// One state: a label and its body.
#[derive(Clone, Debug, PartialEq)]
pub struct State {
    /// The event label (e.g. `begin`, `create_worker`).
    pub label: String,
    /// The body action.
    pub body: Action,
    /// Source line of the label.
    pub line: u32,
}

/// A stream endpoint: optionally-deref'd process name with optional port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// `&name` — the *reference* to the process (a unit), not its port.
    pub is_ref: bool,
    /// Process name (or `self` port when `process` is empty — not used in
    /// the paper subset).
    pub process: String,
    /// Port name (`None` = default `input`/`output` by position).
    pub port: Option<String>,
}

/// Actions (state bodies and their pieces).
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// `a ; b` — sequential composition.
    Seq(Vec<Action>),
    /// `(a, b, …)` — simultaneous group.
    Group(Vec<Action>),
    /// A nested block (sub-states).
    Block(Block),
    /// `x -> y -> z` — a stream configuration chain.
    Chain(Vec<Endpoint>),
    /// `Name(args)` — a manner call or process-definition invocation.
    Call {
        /// Callee.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `post (e)`.
    Post(String),
    /// `raise (e)`.
    Raise(String),
    /// `halt`.
    Halt,
    /// `terminated (p)`.
    Terminated(String),
    /// `preemptall`.
    PreemptAll,
    /// `MES("…")`.
    Mes(String),
    /// `name = expr`.
    Assign {
        /// Variable name.
        name: String,
        /// New value.
        value: Expr,
    },
    /// `if (cond) then a else b`.
    If {
        /// Condition.
        cond: Cond,
        /// Then-branch.
        then: Box<Action>,
        /// Else-branch.
        otherwise: Option<Box<Action>>,
    },
    /// A bare identifier (process/port mention, e.g. sensitivity).
    Mention(String),
}

/// Comparison conditions (`t < now`).
#[derive(Clone, Debug, PartialEq)]
pub struct Cond {
    /// Left side.
    pub lhs: Expr,
    /// `<`, `>`, or `=`.
    pub op: char,
    /// Right side.
    pub rhs: Expr,
}

/// Arithmetic / value expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Variable / process mention.
    Var(String),
    /// `&name` — a process reference.
    Ref(String),
    /// `a + b` / `a - b`.
    Binary {
        /// Operator.
        op: char,
        /// Left side.
        lhs: Box<Expr>,
        /// Right side.
        rhs: Box<Expr>,
    },
    /// Nested call, e.g. `Master(argv)` used as an argument.
    Call {
        /// Callee.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Block {
    /// The state with the given label, if present.
    pub fn state(&self, label: &str) -> Option<&State> {
        self.states.iter().find(|s| s.label == label)
    }

    /// Labels of all states, in order.
    #[cfg(test)]
    pub(crate) fn state_labels(&self) -> Vec<&str> {
        self.states.iter().map(|s| s.label.as_str()).collect()
    }
}

impl Program {
    /// Find a manner by name.
    pub fn manner(&self, name: &str) -> Option<(&Vec<Param>, &Block, bool)> {
        self.items.iter().find_map(|i| match i {
            Item::Manner {
                name: n,
                params,
                body,
                export,
            } if n == name => Some((params, body, *export)),
            _ => None,
        })
    }

    /// Find a callable coordinator body by name: a manner, or — as in
    /// `mainprog.m`'s `Main` — a manifold declared with a coordinator
    /// block. Manners shadow manifolds of the same name.
    pub fn coordinator(&self, name: &str) -> Option<(&Vec<Param>, &Block, bool)> {
        self.manner(name).or_else(|| {
            self.items.iter().find_map(|i| match i {
                Item::Manifold {
                    name: n,
                    params,
                    body: Some(b),
                    ..
                } if n == name => Some((params, b, false)),
                _ => None,
            })
        })
    }

    /// Find a manifold by name.
    pub fn manifold(&self, name: &str) -> Option<&Item> {
        self.items.iter().find(|i| match i {
            Item::Manifold { name: n, .. } => n == name,
            _ => false,
        })
    }
}
