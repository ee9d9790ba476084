//! End-to-end daemon tests over a Unix socket: served results are
//! bit-identical to the sequential oracle, backpressure is explicit,
//! fault budgets quarantine, and a drain loses nothing it accepted.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use chaos::{FaultKind, FaultPlan};
use protocol::PaperFaithful;
use renovation::{Engine, EngineOpts, RunMode};
use serve::admission::AdmissionConfig;
use serve::daemon::{Daemon, DaemonConfig, EngineBuilder};
use serve::proto::{RejectReason, ServeMsg};
use serve::TenantClient;
use solver::sequential::SequentialApp;
use transport::Addr;

fn sock_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("serve-{}-{name}.sock", std::process::id()))
}

fn threads_engine(capacity_level: u32) -> EngineBuilder {
    Box::new(move || {
        Engine::threads(
            RunMode::Parallel,
            Arc::new(PaperFaithful),
            EngineOpts {
                capacity_level,
                ..EngineOpts::default()
            },
        )
    })
}

fn start_daemon(name: &str, admission: AdmissionConfig, faults: Option<FaultPlan>) -> Daemon {
    let capacity = admission.capacity_level;
    Daemon::start(
        DaemonConfig {
            addr: Addr::Unix(sock_path(name)),
            admission,
            tenant_faults: faults,
            drain_grace: Duration::from_secs(5),
            journal: None,
        },
        threads_engine(capacity),
    )
    .expect("daemon start")
}

/// Three tenants, mixed problem sizes, pipelined submits: every `Done`
/// carries the *exact* bits of a solo sequential run — the whole field,
/// not a summary — and the drain finishes every accepted job.
#[test]
fn served_results_are_bit_identical_to_the_sequential_oracle() {
    let daemon = start_daemon(
        "identity",
        AdmissionConfig {
            capacity_level: 3,
            ..AdmissionConfig::default()
        },
        None,
    );
    let addr = daemon.local_addr().clone();

    let mix: Vec<(u32, u32)> = vec![(2, 2), (1, 3), (2, 1), (1, 2), (2, 0), (1, 1)];
    let mut joins = Vec::new();
    for t in 0..3u32 {
        let addr = addr.clone();
        let mix = mix.clone();
        joins.push(std::thread::spawn(move || {
            let mut c = TenantClient::connect(&addr, &format!("tenant-{t}"), 1).expect("connect");
            c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            // Pipeline the whole mix, then collect replies in any order.
            for (seq, (root, level)) in mix.iter().enumerate() {
                c.submit(seq as u64, *root, *level, 1e-3).expect("submit");
            }
            let mut got = 0;
            while got < mix.len() {
                match c.recv().expect("recv") {
                    ServeMsg::Done {
                        seq,
                        l2_error,
                        combined,
                        grids,
                        ..
                    } => {
                        let (root, level) = mix[seq as usize];
                        let oracle = SequentialApp::new(root, level, 1e-3).run().unwrap();
                        assert_eq!(
                            combined, oracle.combined,
                            "tenant {t} seq {seq}: served field drifted from the solo \
                             sequential run"
                        );
                        assert_eq!(l2_error, oracle.l2_error);
                        assert_eq!(grids as usize, oracle.per_grid.len());
                        got += 1;
                    }
                    other => panic!("tenant {t}: unexpected reply {other:?}"),
                }
            }
            c.bye().unwrap();
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    daemon.drain_trigger().drain();
    let report = daemon.wait();
    assert_eq!(report.served, 18, "3 tenants × 6 jobs all served");
    assert_eq!(report.rejected, 0);
    assert_eq!(report.orphaned, 0);
    assert!(report.clean, "drain must flush and join cleanly");
    assert_eq!(report.engine.expect("engine summary").jobs_served, 18);
}

/// A burst far beyond the bounded queue is answered with typed
/// `Reject{QueueFull, retry_after}` replies — never buffered without
/// limit, never dropped silently. Everything accepted still resolves.
#[test]
fn queue_full_backpressure_is_explicit_and_lossless() {
    let daemon = start_daemon(
        "backpressure",
        AdmissionConfig {
            queue_cap: 1,
            capacity_level: 2,
            ..AdmissionConfig::default()
        },
        None,
    );
    let addr = daemon.local_addr().clone();

    let mut c = TenantClient::connect(&addr, "burster", 1).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let burst = 12u64;
    for seq in 0..burst {
        c.submit(seq, 1, 2, 1e-3).expect("submit");
    }
    let mut done = 0u64;
    let mut rejected = 0u64;
    for _ in 0..burst {
        match c.recv().expect("recv") {
            ServeMsg::Done { .. } => done += 1,
            ServeMsg::Reject {
                reason,
                retry_after_ms,
                ..
            } => {
                assert_eq!(reason, RejectReason::QueueFull);
                assert!(retry_after_ms > 0, "backpressure must carry a retry hint");
                rejected += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(
        done + rejected,
        burst,
        "every submit gets exactly one answer"
    );
    assert!(done >= 1, "the queue still serves while rejecting");
    assert!(
        rejected >= 1,
        "a 12-deep burst into a 1-deep queue must trip backpressure"
    );
    c.bye().unwrap();

    daemon.drain_trigger().drain();
    let report = daemon.wait();
    assert_eq!(report.served, done);
    assert_eq!(report.rejected, rejected);
    assert!(report.clean);
}

/// Per-tenant chaos: with no retry budget, an injected engine failure on
/// the tenant's second job surfaces as `Fail`, spends the fault budget,
/// and quarantines the tenant — while the *other* tenant sails on.
#[test]
fn fault_budget_quarantines_the_faulty_tenant_only() {
    let plan = FaultPlan::new(7).push(FaultKind::WorkerCrash {
        instance: 0, // tenant ordinal 0 = first Hello = "flaky"
        on_job: 2,
    });
    let daemon = start_daemon(
        "faults",
        AdmissionConfig {
            capacity_level: 2,
            retry_budget: 0,
            fault_budget: 1,
            ..AdmissionConfig::default()
        },
        Some(plan),
    );
    let addr = daemon.local_addr().clone();

    let mut flaky = TenantClient::connect(&addr, "flaky", 1).expect("connect");
    flaky
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Serial submits so the dispatched-job ordinals are deterministic.
    flaky.submit(1, 1, 1, 1e-3).unwrap();
    assert!(matches!(
        flaky.recv().unwrap(),
        ServeMsg::Done { seq: 1, .. }
    ));
    flaky.submit(2, 1, 1, 1e-3).unwrap();
    match flaky.recv().unwrap() {
        ServeMsg::Fail { seq, error, .. } => {
            assert_eq!(seq, 2);
            assert!(error.contains("chaos"), "unexpected failure text {error:?}");
        }
        other => panic!("expected Fail, got {other:?}"),
    }
    // Budget spent: quarantined.
    flaky.submit(3, 1, 1, 1e-3).unwrap();
    match flaky.recv().unwrap() {
        ServeMsg::Reject { seq, reason, .. } => {
            assert_eq!(seq, 3);
            assert_eq!(reason, RejectReason::FaultBudgetExhausted);
        }
        other => panic!("expected quarantine Reject, got {other:?}"),
    }

    // A second tenant is untouched by the first one's quarantine.
    let mut steady = TenantClient::connect(&addr, "steady", 1).expect("connect");
    steady
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    steady.submit(1, 1, 1, 1e-3).unwrap();
    assert!(matches!(
        steady.recv().unwrap(),
        ServeMsg::Done { seq: 1, .. }
    ));

    flaky.bye().unwrap();
    steady.bye().unwrap();
    daemon.drain_trigger().drain();
    let report = daemon.wait();
    let rows = &report.stats.tenants;
    let flaky_row = rows.iter().find(|r| r.tenant == "flaky").unwrap();
    let steady_row = rows.iter().find(|r| r.tenant == "steady").unwrap();
    assert_eq!(flaky_row.failed, 1);
    assert_eq!(flaky_row.faults_left, 0);
    assert_eq!(steady_row.failed, 0);
    assert!(report.clean);
}

/// A tenant-initiated `Drain` mid-pipeline: every job accepted before the
/// drain resolves with `Done`, later submits are rejected `Draining`, the
/// session hears `Drained{served}` last, and the daemon reports a clean,
/// lossless stop.
#[test]
fn drain_finishes_accepted_jobs_and_loses_nothing() {
    let daemon = start_daemon(
        "drain",
        AdmissionConfig {
            capacity_level: 2,
            queue_cap: 64,
            ..AdmissionConfig::default()
        },
        None,
    );
    let addr = daemon.local_addr().clone();

    let mut c = TenantClient::connect(&addr, "worker-bee", 1).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let before = 10u64;
    for seq in 0..before {
        c.submit(seq, 1, 2, 1e-3).unwrap();
    }
    c.send(&ServeMsg::Drain).unwrap();
    // Submits landing after the drain marker on the same pipe are
    // refused, not silently eaten.
    for seq in before..before + 3 {
        c.submit(seq, 1, 2, 1e-3).unwrap();
    }

    let mut done = 0u64;
    let mut draining_rejects = 0u64;
    let drained_served;
    loop {
        match c.recv().expect("recv") {
            ServeMsg::Done { .. } => done += 1,
            ServeMsg::Reject { reason, .. } => {
                assert_eq!(reason, RejectReason::Draining);
                draining_rejects += 1;
            }
            ServeMsg::Drained { served } => {
                drained_served = served;
                break;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(done, before, "every pre-drain job must be served");
    assert_eq!(draining_rejects, 3);
    assert_eq!(drained_served, before);

    let report = daemon.wait();
    assert_eq!(report.served, before);
    assert_eq!(report.orphaned, 0, "drain lost accepted jobs");
    assert!(report.clean);
}
