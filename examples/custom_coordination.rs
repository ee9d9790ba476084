//! Write your own coordination *in MANIFOLD source* and run it: the `Mc`
//! front-end (`manifold::lang`) parses, checks, compiles, and executes a
//! manner you author — here a fan-out/fan-in reduction that is *not* from
//! the paper — against Rust atomic processes.
//!
//! ```text
//! cargo run -p renovation --release --example custom_coordination [-- --coord interp|compiled]
//! ```
//!
//! `--coord` selects the executor (the compiled state-machine VM by
//! default; `interp` tree-walks the AST instead). Both are bit-identical.

use std::sync::Arc;

use manifold::lang::{check_program, expect_event_arg, print_program, CoordExec, Mc, Value};
use manifold::prelude::*;
use parking_lot::Mutex;

/// A broadcast-reduction protocol in MANIFOLD: one source port fans out to
/// two stages built from the same manifold definition (a MANIFOLD port
/// write delivers a copy to *every* attached stream), both feed the sink,
/// and the manner finishes when both stages signal completion.
const REDUCTION_M: &str = r#"
// reduction.m — fan-out through two stages of the same manifold.

manner Reduce(process source, process sink, manifold Stage(event)) {
    save *.

    event stage_done.

    auto process done is variable(0).

    process a is Stage(stage_done).
    process b is Stage(stage_done).

    begin: (source -> a, source -> b,
            a -> sink, b -> sink,
            terminated (void)).

    stage_done: done = done + 1;
        if (done < 2) then ( post (begin) ) else ( post (all_done) ).

    all_done: (MES("reduction complete"), halt).
}
"#;

fn main() -> MfResult<()> {
    let kind: CoordExec = std::env::args()
        .skip_while(|a| a != "--coord")
        .nth(1)
        .map(|v| v.parse().expect("--coord interp|compiled"))
        .unwrap_or_default();

    let mc = Mc::from_source(REDUCTION_M).expect("parse + compile");
    let summary = check_program(mc.program()).expect("check");
    println!("parsed manner(s): {:?}", summary.manners);
    println!("events: {:?}", summary.events.iter().collect::<Vec<_>>());
    println!();
    println!("normal form:\n{}", print_program(mc.program()));
    println!("executor: {kind}");

    let env = Environment::new();
    let received = Arc::new(Mutex::new(Vec::<f64>::new()));
    let received2 = received.clone();

    env.run_manner(&mc, kind, "reduction.m", "Reduce", |coord| {
        // The source emits one number; the port fan-out copies it to each
        // stage. It parks afterwards so its streams stay connected.
        let source = coord.create_atomic("Source", |ctx: ProcessCtx| {
            ctx.write("output", Unit::real(3.0))?;
            let _ = ctx.read("park"); // stay alive until shutdown
            Ok(())
        });
        coord.activate(&source)?;
        // The sink sums everything it sees.
        let sink = coord.create_atomic("Sink", move |ctx: ProcessCtx| loop {
            let v = ctx.read("input")?.expect_real()?;
            received2.lock().push(v);
        });
        coord.activate(&sink)?;

        // Stage manifold: squares one number, raises its completion event.
        let stage: manifold::lang::AtomicFactory = Arc::new(|coord, args| {
            let done = expect_event_arg(args, 0)?;
            let p = coord.create_atomic("Stage", move |ctx: ProcessCtx| {
                let x = ctx.read("input")?.expect_real()?;
                ctx.write("output", Unit::real(x * x))?;
                ctx.raise(done.as_str());
                Ok(())
            });
            coord.activate(&p)?;
            Ok(p)
        });

        Ok(vec![
            Value::Process(source),
            Value::Process(sink),
            Value::Manifold(stage),
        ])
    })?;

    // Wait for the two squares to land.
    for _ in 0..200 {
        if received.lock().len() >= 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    env.shutdown();

    let mut got = received.lock().clone();
    got.sort_by(f64::total_cmp);
    println!("sink received: {got:?}");
    assert_eq!(got, vec![9.0, 9.0], "both stages squared the broadcast 3.0");
    println!("custom coordination ran to completion.");
    Ok(())
}
