//! The deepest fidelity test in the repository: take the paper's
//! `protocolMW.m` **source code** (§4.2), parse it with the `Mc` front-end,
//! and *execute* it — under the tree-walking interpreter AND the compiled
//! state-machine VM — against real master and worker processes. Both
//! executors must behave exactly like the hand-transliterated
//! `protocol::protocol_mw`, down to the sparse-grid application's results.

use std::sync::Arc;

use manifold::lang::CoordExec;
use manifold::prelude::*;
use parking_lot::Mutex;
use protocol::{run_protocol_source, MasterHandle, WorkerHandle};
use renovation::codec::{request_from_unit, request_to_unit, result_from_unit, result_to_unit};
use solver::SequentialApp;

/// Run the paper's ProtocolMW (from source) over a squaring master/worker
/// pair and return the collected results.
fn run_interpreted_squares(kind: CoordExec, jobs: Vec<f64>) -> Vec<f64> {
    let env = Environment::new();
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = out.clone();
    let n = jobs.len();

    run_protocol_source(
        &env,
        kind,
        move |h: MasterHandle| {
            h.create_pool();
            for x in &jobs {
                let _w = h.request_worker()?;
                h.send_work(Unit::real(*x))?;
            }
            for _ in 0..n {
                out2.lock().push(h.collect()?.expect_real()?);
            }
            h.rendezvous()?;
            h.finished();
            Ok(())
        },
        |h: WorkerHandle| {
            let x = h.receive()?.expect_real()?;
            h.submit(Unit::real(x * x))?;
            h.die();
            Ok(())
        },
    )
    .unwrap();
    env.shutdown();
    assert!(env.failures().is_empty());
    let mut v = out.lock().clone();
    v.sort_by(f64::total_cmp);
    v
}

#[test]
fn interpreted_paper_source_squares_numbers() {
    for kind in CoordExec::ALL {
        let got = run_interpreted_squares(kind, vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(got, vec![4.0, 9.0, 16.0, 25.0], "executor {kind}");
    }
}

#[test]
fn interpreted_paper_source_single_worker() {
    for kind in CoordExec::ALL {
        assert_eq!(
            run_interpreted_squares(kind, vec![7.0]),
            vec![49.0],
            "executor {kind}"
        );
    }
}

#[test]
fn interpreted_paper_source_runs_sparse_grid_app() {
    // The full renovated application coordinated by the paper source:
    // results must be bit-identical to the sequential run — under *both*
    // coordinator executors.
    let app = SequentialApp::new(2, 1, 1.0e-3);
    let seq = app.run().unwrap();

    for kind in CoordExec::ALL {
        let app = SequentialApp::new(2, 1, 1.0e-3);
        let env = Environment::new();
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = out.clone();

        run_protocol_source(
            &env,
            kind,
            move |h: MasterHandle| {
                let grids = app.grids();
                h.create_pool();
                for idx in &grids {
                    let _w = h.request_worker()?;
                    h.send_work(request_to_unit(&app.request_for(*idx)))?;
                }
                for _ in &grids {
                    out2.lock().push(result_from_unit(&h.collect()?)?);
                }
                h.rendezvous()?;
                h.finished();
                Ok(())
            },
            |h: WorkerHandle| {
                let req = request_from_unit(&h.receive()?)?;
                let res = solver::subsolve(&req).map_err(|e| MfError::App(e.to_string()))?;
                h.submit(result_to_unit(&res))?;
                h.die();
                Ok(())
            },
        )
        .unwrap();
        env.shutdown();
        assert!(env.failures().is_empty());

        let mut per_grid = out.lock().clone();
        per_grid.sort_by_key(|r| (r.l + r.m, r.l));
        let mut work = solver::WorkCounter::new();
        let combined = solver::sequential::prolongation_phase(2, 1, &per_grid, &mut work);
        assert_eq!(
            combined, seq.combined,
            "{kind} run diverged from sequential"
        );
    }
}

#[test]
fn interpreted_source_emits_paper_trace_messages() {
    // A 4-worker squaring run: the coordinator's MES lines of
    // protocolMW.m, in order, attributed to the .m source and the line of
    // the state that prints them — the same under both executors.
    let mut want = vec![("protocolMW.m".to_string(), 26, "begin".to_string())];
    for _ in 0..4 {
        want.push(("protocolMW.m".into(), 35, "create_worker: begin".into()));
    }
    want.push(("protocolMW.m".into(), 51, "rendezvous acknowledged".into()));
    for kind in CoordExec::ALL {
        let env = Environment::new();
        run_protocol_source(
            &env,
            kind,
            |h: MasterHandle| {
                h.create_pool();
                for x in 1..=4 {
                    let _w = h.request_worker()?;
                    h.send_work(Unit::real(x as f64))?;
                }
                for _ in 0..4 {
                    let _ = h.collect()?;
                }
                h.rendezvous()?;
                h.finished();
                Ok(())
            },
            |h: WorkerHandle| {
                let x = h.receive()?.expect_real()?;
                h.submit(Unit::real(x * x))?;
                h.die();
                Ok(())
            },
        )
        .unwrap();
        let got: Vec<(String, u32, String)> = env
            .trace()
            .snapshot()
            .into_iter()
            .filter(|r| r.source_file == "protocolMW.m")
            .map(|r| (r.source_file, r.line, r.message))
            .collect();
        env.shutdown();
        assert_eq!(got, want, "executor {kind}");
    }
}
