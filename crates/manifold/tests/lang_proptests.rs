//! Property-based tests of the MANIFOLD language front-end and the two
//! coordinator executors: arbitrary programs survive print → parse round
//! trips, the lexer never panics on arbitrary input, and — the differential
//! property — generated well-formed manner programs produce identical
//! results, trace records, and leftover events under the tree-walking
//! interpreter and the compiled state-machine VM, including programs that
//! wait between states for events raised by processes on other threads.

use std::sync::Arc;

use manifold::env::Environment;
use manifold::lang::ast::*;
use manifold::lang::{
    compile, expect_event_arg, lex, parse_program, print_program, AtomicFactory, CompiledProgram,
    CoordExec, Ins, Mc, Value, MAINPROG_SOURCE, PROTOCOL_MW_SOURCE,
};
use manifold::prelude::{Coord, MfResult, ProcessCtx};
use proptest::prelude::*;

fn ident() -> impl Strategy<Value = String> {
    // Avoid keywords the parser treats specially.
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword", |s| {
        ![
            "manner",
            "manifold",
            "process",
            "event",
            "port",
            "atomic",
            "save",
            "ignore",
            "priority",
            "hold",
            "stream",
            "auto",
            "is",
            "begin",
            "post",
            "raise",
            "halt",
            "terminated",
            "preemptall",
            "if",
            "then",
            "else",
            "internal",
            "export",
            "in",
            "out",
            "end",
        ]
        .contains(&s.as_str())
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-99i64..99).prop_map(Expr::Int),
        ident().prop_map(Expr::Var),
        ident().prop_map(Expr::Ref),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        (inner.clone(), prop_oneof![Just('+'), Just('-')], inner).prop_map(|(lhs, op, rhs)| {
            Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }
        })
    })
}

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (any::<bool>(), ident(), prop::option::of(ident())).prop_map(|(is_ref, process, port)| {
        Endpoint {
            is_ref,
            process,
            port,
        }
    })
}

fn arb_simple_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Halt),
        Just(Action::PreemptAll),
        ident().prop_map(Action::Post),
        ident().prop_map(Action::Raise),
        ident().prop_map(Action::Terminated),
        ident().prop_map(Action::Mention),
        "[ -~&&[^\"\\\\{}]]{0,12}".prop_map(Action::Mes),
        (ident(), arb_expr()).prop_map(|(name, value)| Action::Assign { name, value }),
        prop::collection::vec(arb_endpoint(), 2..4).prop_map(Action::Chain),
        (ident(), prop::collection::vec(arb_expr(), 0..3))
            .prop_map(|(name, args)| Action::Call { name, args }),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    arb_simple_action().prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Action::Group),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Action::Seq),
            (
                (
                    arb_expr(),
                    prop_oneof![Just('<'), Just('>'), Just('=')],
                    arb_expr()
                ),
                inner.clone(),
                prop::option::of(inner)
            )
                .prop_map(|((lhs, op, rhs), then, otherwise)| Action::If {
                    cond: Cond { lhs, op, rhs },
                    then: Box::new(then),
                    otherwise: otherwise.map(Box::new),
                }),
        ]
    })
}

fn arb_block() -> impl Strategy<Value = Block> {
    (
        prop::collection::vec(
            prop_oneof![
                prop::collection::vec(ident(), 1..3).prop_map(Declaration::Ignore),
                prop::collection::vec(ident(), 1..3).prop_map(Declaration::Event),
                ident().prop_map(Declaration::Hold),
                (
                    any::<bool>(),
                    ident(),
                    ident(),
                    prop::collection::vec(arb_expr(), 0..2)
                )
                    .prop_map(|(auto, name, ctor, args)| Declaration::Process {
                        auto,
                        name,
                        ctor,
                        args,
                        line: 0,
                    }),
            ],
            0..3,
        ),
        prop::collection::vec((ident(), arb_action()), 0..3),
        arb_action(),
    )
        .prop_map(|(declarations, extra_states, begin_body)| {
            let mut states = vec![State {
                label: "begin".into(),
                body: begin_body,
                line: 0,
            }];
            let mut seen = std::collections::HashSet::new();
            for (label, body) in extra_states {
                if label != "begin" && seen.insert(label.clone()) {
                    states.push(State {
                        label,
                        body,
                        line: 0,
                    });
                }
            }
            Block {
                declarations,
                states,
            }
        })
}

fn arb_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(
        (any::<bool>(), ident(), arb_block()).prop_map(|(export, name, body)| Item::Manner {
            export,
            name,
            params: Vec::new(),
            body,
        }),
        1..3,
    )
    .prop_map(|items| Program {
        items,
        includes: Vec::new(),
        pragmas: Vec::new(),
    })
}

fn scrub(p: &Program) -> Program {
    fn scrub_block(b: &mut Block) {
        for d in &mut b.declarations {
            if let Declaration::Process { line, .. } = d {
                *line = 0;
            }
        }
        for s in &mut b.states {
            s.line = 0;
            scrub_action(&mut s.body);
        }
    }
    fn scrub_action(a: &mut Action) {
        match a {
            Action::Seq(v) => {
                v.iter_mut().for_each(scrub_action);
                // `a; b; c` is associativity-free in the syntax: normalize
                // nested sequences to a flat one before comparing.
                let flat: Vec<Action> = std::mem::take(v)
                    .into_iter()
                    .flat_map(|p| match p {
                        Action::Seq(inner) => inner,
                        other => vec![other],
                    })
                    .collect();
                if flat.len() == 1 {
                    *a = flat.into_iter().next().unwrap();
                } else {
                    *a = Action::Seq(flat);
                }
            }
            Action::Group(v) => {
                v.iter_mut().for_each(scrub_action);
                // `(a)` is just `a`: collapse one-element groups, since the
                // printer may introduce them around sequence branches.
                if v.len() == 1 {
                    *a = v.pop().unwrap();
                    scrub_action(a);
                }
            }
            Action::Block(b) => scrub_block(b),
            Action::If {
                then, otherwise, ..
            } => {
                scrub_action(then);
                if let Some(o) = otherwise {
                    scrub_action(o);
                }
            }
            _ => {}
        }
    }
    let mut p = p.clone();
    for item in &mut p.items {
        match item {
            Item::Manner { body, .. } => scrub_block(body),
            Item::Manifold { body: Some(b), .. } => scrub_block(b),
            _ => {}
        }
    }
    p
}

// ------------------------------------------------------------------------
// Differential executor testing: generated *terminating* coordinator
// programs, rendered to source text (so both executors see the same line
// numbers), run under the interpreter and the compiled VM.
//
// Termination by construction: states are ordered `begin, s1, s2, done`,
// every `post` targets a strictly later state, and event memory keeps one
// occurrence per (name, source). Dispatch priority is appearance order, so
// the current state index strictly increases and the manner must return.

/// One generated state-body action.
#[derive(Clone, Debug)]
enum PAct {
    /// `v{var} = v{var} {op} {k}`.
    Assign { var: usize, op: char, k: i64 },
    /// `MES("…")` — lands in the trace with the state's source line.
    Mes(String),
    /// `post (label)` to a strictly later state.
    Post(usize),
    /// `if (v{var} < bound) then post(later) else post(later)`.
    If {
        var: usize,
        bound: i64,
        then_t: usize,
        else_t: usize,
    },
    /// `Sub()` — exercises dynamic scoping (Sub mutates the caller's v0).
    CallSub,
    /// `Nap(Ping)` — a nested manner that idles until its own `Ping`
    /// process wakes it, then bumps the caller's v0 (suspending programs
    /// only).
    Nap,
}

/// Actions legal in state `state` of `n` total states: posts may only
/// target later states (none in the last state).
fn arb_pact(state: usize, n: usize) -> BoxedStrategy<PAct> {
    let base = prop_oneof![
        (0usize..2, prop_oneof![Just('+'), Just('-')], 0i64..4)
            .prop_map(|(var, op, k)| PAct::Assign { var, op, k }),
        "[a-z]{1,8}".prop_map(PAct::Mes),
        Just(PAct::CallSub),
    ];
    if state + 1 < n {
        let later = (state + 1)..n;
        prop_oneof![
            base,
            later.clone().prop_map(PAct::Post),
            (0usize..2, -2i64..5, later.clone(), later).prop_map(|(var, bound, then_t, else_t)| {
                PAct::If {
                    var,
                    bound,
                    then_t,
                    else_t,
                }
            }),
        ]
        .boxed()
    } else {
        base.boxed()
    }
}

const STATE_LABELS: [&str; 4] = ["begin", "s1", "s2", "done"];

fn render_act(a: &PAct) -> String {
    match a {
        PAct::Assign { var, op, k } => format!("v{var} = v{var} {op} {k}"),
        PAct::Mes(s) => format!("MES(\"{s}\")"),
        PAct::Post(t) => format!("post ({})", STATE_LABELS[*t]),
        PAct::If {
            var,
            bound,
            then_t,
            else_t,
        } => format!(
            "if (v{var} < {bound}) then (post ({})) else (post ({}))",
            STATE_LABELS[*then_t], STATE_LABELS[*else_t]
        ),
        PAct::CallSub => "Sub()".to_string(),
        PAct::Nap => "Nap(Ping)".to_string(),
    }
}

fn render_program(init0: i64, init1: i64, bodies: &[Vec<PAct>]) -> String {
    let mut src = String::new();
    src.push_str("manner Sub() {\n    begin: v0 = v0 + 1.\n}\n");
    src.push_str("manner Main() {\n");
    src.push_str(&format!("    auto process v0 is variable({init0}).\n"));
    src.push_str(&format!("    auto process v1 is variable({init1}).\n"));
    for (i, body) in bodies.iter().enumerate() {
        let rendered: Vec<String> = body.iter().map(render_act).collect();
        let stmt = if rendered.is_empty() {
            "preemptall".to_string()
        } else {
            rendered.join("; ")
        };
        src.push_str(&format!("    {}: {}.\n", STATE_LABELS[i], stmt));
    }
    src.push_str("}\n");
    src
}

/// Everything observable from one execution: the result (errors as their
/// Debug rendering — kind *and* line must agree), every trace record, and
/// the names of events left pending in the coordinator's event memory.
type Observation = (Result<(), String>, Vec<(String, u32, String)>, Vec<String>);

fn run_once(src: &str, kind: CoordExec) -> Observation {
    run_with(src, kind, |_| Ok(Vec::new()))
}

/// [`run_once`] for a `Main(manifold Ping(event), manifold Once())`.
fn run_with_helpers(src: &str, kind: CoordExec) -> Observation {
    run_with(src, kind, |_| {
        Ok(vec![Value::Manifold(ping()), Value::Manifold(once())])
    })
}

fn run_with(
    src: &str,
    kind: CoordExec,
    make_args: impl FnOnce(&mut Coord) -> MfResult<Vec<Value>>,
) -> Observation {
    let mc = Mc::from_source(src).expect("generated program must compile");
    let env = Environment::new();
    let mut coordinator = None;
    let result = env.run_manner(&mc, kind, "prop.m", "Main", |coord| {
        coordinator = Some(coord.self_ref());
        make_args(coord)
    });
    // Everything the manner declared died with it, and so did its
    // coordinator.
    assert_eq!(
        env.live_processes(),
        0,
        "{kind}: processes outlived the manner"
    );
    let leftovers: Vec<String> = coordinator
        .expect("the coordinator was created")
        .core()
        .events()
        .snapshot()
        .iter()
        .filter_map(|o| o.name().map(|n| n.as_str().to_string()))
        .collect();
    let trace: Vec<(String, u32, String)> = env
        .trace()
        .snapshot()
        .iter()
        .map(|t| (t.source_file.clone(), t.line, t.message.clone()))
        .collect();
    env.shutdown();
    (result.map_err(|e| format!("{e:?}")), trace, leftovers)
}

/// `Ping(e)`: a process on a thread of its own that raises `e` for every
/// unit arriving at its input, and otherwise waits.
fn ping() -> AtomicFactory {
    Arc::new(|coord, args| {
        let e = expect_event_arg(args, 0)?;
        let p = coord.create_atomic("Ping", move |ctx: ProcessCtx| loop {
            ctx.read("input")?;
            ctx.raise(e.clone());
        });
        coord.activate(&p)?;
        Ok(p)
    })
}

/// `Once`: a process on a thread of its own that terminates once a unit
/// has arrived at its input.
fn once() -> AtomicFactory {
    Arc::new(|coord, _| {
        let p = coord.create_atomic("Once", |ctx: ProcessCtx| ctx.read("input").map(drop));
        coord.activate(&p)?;
        Ok(p)
    })
}

/// Malformed-at-runtime programs must fail identically — same error kind,
/// same source line — under both executors.
#[test]
fn executors_agree_on_errors() {
    let cases = [
        // Unknown manner call.
        "manner Main() { begin: Nope(). }",
        // Arity mismatch (callee name and call line in the error).
        "manner Sub() { begin: halt. }\nmanner Main() { begin: Sub(1, 2). }",
        // `terminated` of a non-process.
        "manner Main() { event x. begin: terminated(x). }",
        // Assignment to a non-variable.
        "manner Main() { event x. begin: x = 1. }",
        // No `begin` state.
        "manner Main() { s: halt. }",
        // Unknown stream type fails when the declaration executes.
        "manner Main() { stream XX a -> b.inport. begin: halt. }",
        // Unbound constructor in a process declaration.
        "manner Main() { process p is NotBound(1). begin: halt. }",
        // Nested call used as a call argument.
        "manner Sub(event e) { begin: halt. }\nmanner Main() { event x. begin: Sub(Nested(x)). }",
        // Non-numeric operand in arithmetic.
        "manner Main() { auto process v is variable(0). event x. begin: v = x + 1. }",
    ];
    for src in cases {
        let interp = run_once(src, CoordExec::Interp);
        let vm = run_once(src, CoordExec::Compiled);
        assert!(interp.0.is_err(), "expected a runtime error for {src:?}");
        assert_eq!(interp, vm, "executors disagree on source:\n{src}");
    }
    // A failure inside a nested manner whose block still has live members:
    // a variable, and a process blocked on its input in a thread of its
    // own. The block closes — the compiled coordinator waiting, without a
    // thread, for that process to unwind — before the error surfaces.
    let nested = "\
        manner Sub(manifold Ping(event)) {\n\
            event e.\n\
            auto process v is variable(0).\n\
            process z is Ping(e).\n\
            begin: v = v + 1; MES(\"failing\"); Nope().\n\
        }\n\
        manner Main(manifold Ping(event), manifold Once()) {\n\
            begin: MES(\"calling\"); Sub(Ping); MES(\"unreachable\").\n\
        }\n";
    let interp = run_with_helpers(nested, CoordExec::Interp);
    let vm = run_with_helpers(nested, CoordExec::Compiled);
    assert!(
        interp.0.as_ref().is_err_and(|e| e.contains("Nope")),
        "{interp:?}"
    );
    assert_eq!(interp, vm, "executors disagree on source:\n{nested}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print → parse is the identity on arbitrary programs.
    #[test]
    fn print_parse_round_trip(prog in arb_program()) {
        let printed = print_program(&prog);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n----\n{printed}"));
        prop_assert_eq!(scrub(&prog), scrub(&reparsed));
    }

    /// The lexer never panics and either lexes or errors cleanly.
    #[test]
    fn lexer_total_on_arbitrary_input(s in "[ -~\\n]{0,200}") {
        let _ = lex(&s);
    }

    /// The parser never panics on arbitrary token soup.
    #[test]
    fn parser_total_on_arbitrary_input(s in "[a-z{}();.,:<>&/*=+\\- \\n]{0,120}") {
        let _ = parse_program(&s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The differential property: generated terminating coordinator
    /// programs behave identically under `Interp` and the compiled VM —
    /// same result, same trace (file, line, message), same leftover events.
    #[test]
    fn executors_agree_on_generated_programs(
        (init0, init1, b0, b1, b2, b3) in (
            -5i64..6,
            -5i64..6,
            prop::collection::vec(arb_pact(0, 4), 0..4),
            prop::collection::vec(arb_pact(1, 4), 0..4),
            prop::collection::vec(arb_pact(2, 4), 0..4),
            prop::collection::vec(arb_pact(3, 4), 0..4),
        )
    ) {
        let src = render_program(init0, init1, &[b0, b1, b2, b3]);
        let interp = run_once(&src, CoordExec::Interp);
        let vm = run_once(&src, CoordExec::Compiled);
        prop_assert_eq!(interp, vm, "executors disagree on source:\n{}", src);
    }

    /// The code the VM steps is well formed: every jump lands inside its
    /// body or just past its end, and every block and resolved manner it
    /// names exists.
    #[test]
    fn compiled_code_is_well_formed(
        (init0, init1, b0, b1, b2, b3) in (
            -5i64..6,
            -5i64..6,
            prop::collection::vec(arb_pact(0, 4), 0..4),
            prop::collection::vec(arb_pact(1, 4), 0..4),
            prop::collection::vec(arb_pact(2, 4), 0..4),
            prop::collection::vec(arb_pact(3, 4), 0..4),
        )
    ) {
        let src = render_program(init0, init1, &[b0, b1, b2, b3]);
        let mc = Mc::from_source(&src).expect("generated program must compile");
        assert_well_formed(mc.compiled(), &src);
    }
}

/// [`compiled_code_is_well_formed`] on the paper's two fixtures.
#[test]
fn paper_fixtures_compile_to_well_formed_code() {
    for (name, source) in [
        ("protocolMW.m", PROTOCOL_MW_SOURCE),
        ("mainprog.m", MAINPROG_SOURCE),
    ] {
        let compiled = compile(&parse_program(source).expect("parse")).expect("compile");
        assert_well_formed(&compiled, name);
    }
}

fn assert_well_formed(prog: &CompiledProgram, what: &str) {
    for (bi, b) in prog.blocks.iter().enumerate() {
        for (si, st) in b.states.iter().enumerate() {
            let at = format!("{what}: block {bi} state {si}");
            for ins in &st.body {
                match ins {
                    Ins::Unless { otherwise: to, .. } | Ins::Jump(to) => {
                        assert!(*to <= st.body.len(), "{at}: jump to {to}")
                    }
                    Ins::Block(to) => assert!(*to < prog.blocks.len(), "{at}: block {to}"),
                    Ins::Call {
                        manner: Some(m), ..
                    } => {
                        assert!(*m < prog.manners.len(), "{at}: manner {m}")
                    }
                    _ => {}
                }
            }
        }
    }
}

// ------------------------------------------------------------------------
// Differential testing of programs that wait. Every state of `Main` runs
// some actions that never leave it, then is left one way, last:
//
// * completing, or posting (directly or in an `if`) a later state, as
//   above;
// * `(&p{i} -> p{i}, terminated (void))` — idling until `p{i}`, a `Ping`
//   of the later state's label, has read the reference and raised it from
//   its own thread;
// * `(&q{i} -> q{i}, terminated (q{i}))`, then posting a later state if
//   there is one — waiting for `q{i}`, a `Once`, to terminate.
//
// At most one label occurrence is ever pending, and only the wait it is
// meant for can select it, so the run is deterministic however the helper
// threads are scheduled — and the compiled coordinator, which has no
// thread, is stepped on theirs. `Nap(Ping)` suspends the same way inside a
// nested manner, so the caller resumes mid-sequence after it returns.

/// How a state of a suspending program is left.
#[derive(Clone, Debug)]
enum Leave {
    /// The body completes with nothing pending: the block completes.
    Complete,
    /// `post`, or an `if` that posts: transition to a later state.
    Then(PAct),
    /// Idle until `Ping(label)` wakes the state into the later one.
    Idle(usize),
    /// Wait for a `Once` to terminate, then post the later state, if any.
    Await(Option<usize>),
}

fn arb_suspending_state(state: usize, n: usize) -> BoxedStrategy<(Vec<PAct>, Leave)> {
    let act = prop_oneof![
        (0usize..2, prop_oneof![Just('+'), Just('-')], 0i64..4)
            .prop_map(|(var, op, k)| PAct::Assign { var, op, k }),
        "[a-z]{1,8}".prop_map(PAct::Mes),
        Just(PAct::CallSub),
        Just(PAct::Nap),
    ];
    let leave = if state + 1 < n {
        let later = (state + 1)..n;
        // The shim's union is uniform: the waits are listed twice to be
        // drawn more often.
        prop_oneof![
            Just(Leave::Complete),
            later.clone().prop_map(|t| Leave::Then(PAct::Post(t))),
            (0usize..2, -2i64..5, later.clone(), later.clone()).prop_map(
                |(var, bound, then_t, else_t)| Leave::Then(PAct::If {
                    var,
                    bound,
                    then_t,
                    else_t,
                })
            ),
            later.clone().prop_map(Leave::Idle),
            later.clone().prop_map(Leave::Idle),
            later.clone().prop_map(|t| Leave::Await(Some(t))),
            later.prop_map(|t| Leave::Await(Some(t))),
        ]
        .boxed()
    } else {
        prop_oneof![Just(Leave::Complete), Just(Leave::Await(None))].boxed()
    };
    (prop::collection::vec(act, 0..3), leave).boxed()
}

fn render_suspending(init0: i64, init1: i64, states: &[(Vec<PAct>, Leave)]) -> String {
    let mut src = String::new();
    src.push_str("manner Sub() {\n    begin: v0 = v0 + 1.\n}\n");
    src.push_str("manner Nap(manifold Ping(event)) {\n");
    src.push_str("    event wake.\n    process z is Ping(wake).\n");
    src.push_str("    begin: (&z -> z, terminated (void)).\n");
    src.push_str("    wake: v0 = v0 + 1.\n}\n");
    src.push_str("manner Main(manifold Ping(event), manifold Once()) {\n");
    for label in &STATE_LABELS[1..] {
        src.push_str(&format!("    event {label}.\n"));
    }
    src.push_str(&format!("    auto process v0 is variable({init0}).\n"));
    src.push_str(&format!("    auto process v1 is variable({init1}).\n"));
    for (i, (_, leave)) in states.iter().enumerate() {
        match leave {
            Leave::Idle(t) => src.push_str(&format!(
                "    process p{i} is Ping({}).\n",
                STATE_LABELS[*t]
            )),
            Leave::Await(_) => src.push_str(&format!("    process q{i} is Once.\n")),
            Leave::Complete | Leave::Then(_) => {}
        }
    }
    for (i, (acts, leave)) in states.iter().enumerate() {
        let mut rendered: Vec<String> = acts.iter().map(render_act).collect();
        match leave {
            Leave::Complete => {}
            Leave::Then(a) => rendered.push(render_act(a)),
            Leave::Idle(_) => rendered.push(format!("(&p{i} -> p{i}, terminated (void))")),
            Leave::Await(then) => {
                rendered.push(format!("(&q{i} -> q{i}, terminated (q{i}))"));
                if let Some(t) = then {
                    rendered.push(render_act(&PAct::Post(*t)));
                }
            }
        }
        let stmt = if rendered.is_empty() {
            "preemptall".to_string()
        } else {
            rendered.join("; ")
        };
        src.push_str(&format!("    {}: {}.\n", STATE_LABELS[i], stmt));
    }
    src.push_str("}\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The differential property over programs that suspend between
    /// states: the compiled coordinator is stepped by the helper threads
    /// that wake it and must still agree with the interpreter on the
    /// result, the trace, and the leftover events.
    #[test]
    fn executors_agree_on_generated_suspending_programs(
        (init0, init1, s0, s1, s2, s3) in (
            -5i64..6,
            -5i64..6,
            arb_suspending_state(0, 4),
            arb_suspending_state(1, 4),
            arb_suspending_state(2, 4),
            arb_suspending_state(3, 4),
        )
    ) {
        let src = render_suspending(init0, init1, &[s0, s1, s2, s3]);
        let interp = run_with_helpers(&src, CoordExec::Interp);
        let vm = run_with_helpers(&src, CoordExec::Compiled);
        prop_assert_eq!(interp, vm, "executors disagree on source:\n{}", src);
    }
}
