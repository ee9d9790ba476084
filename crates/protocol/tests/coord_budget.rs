//! The compiled coordinator's budget: what running the paper's protocol
//! from its `.m` source may cost next to the hand-written native one.
//!
//! * A steady-state dispatch step allocates nothing. A `Count()` manner
//!   whose only work is assign / compare / post / state transition runs
//!   5,000 and then 55,000 iterations; the second run may not allocate
//!   once more than the first. The binary installs a counting global
//!   allocator that tallies each thread's allocations, and the compiled
//!   VM runs on the thread that calls `run_manner`, so the count is the
//!   VM's. Runs in every `cargo test`.
//! * The squaring protocol (16 jobs, median of 3) under the compiled
//!   executor takes at most 4.0× the wall time of the native
//!   `protocol_mw`. It measures time, so it is `#[ignore]`d; run it in
//!   release:
//!
//! ```text
//! cargo test --release -p protocol --test coord_budget -- --ignored
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use manifold::lang::{CoordExec, Mc};
use manifold::prelude::*;
use parking_lot::Mutex;
use protocol::{protocol_mw, run_protocol_mc, MasterHandle, WorkerHandle};

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers to the system allocator; the counter is a thread-local
// side effect and `try_with` makes it safe during TLS teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn count_source(limit: u64) -> String {
    format!(
        "manner Count() {{\n\
         \x20   auto process n is variable(0).\n\
         \x20   begin: n = n + 1; if (n < {limit}) then (post (begin)) else (post (done)).\n\
         \x20   done: halt.\n\
         }}\n"
    )
}

/// Allocations this thread makes during one compiled `Count()` run.
fn count_run_allocs(limit: u64) -> u64 {
    let mc = Mc::from_source(&count_source(limit)).expect("count source");
    let env = Environment::new();
    let before = ALLOC_COUNT.with(Cell::get);
    env.run_manner(&mc, CoordExec::Compiled, "count.m", "Count", |_| {
        Ok(Vec::new())
    })
    .expect("count run");
    let allocs = ALLOC_COUNT.with(Cell::get) - before;
    env.shutdown();
    allocs
}

#[test]
fn compiled_dispatch_loop_allocates_nothing_in_steady_state() {
    // Lazily grown buffers (carrier pool, event memory) settle first.
    count_run_allocs(64);
    let short = count_run_allocs(5_000);
    let long = count_run_allocs(55_000);
    assert_eq!(
        long.saturating_sub(short),
        0,
        "50,000 extra compiled dispatch steps allocated ({short} vs {long})"
    );
}

/// Which coordinator runs the squaring protocol.
#[derive(Clone, Copy, Debug)]
enum Coordinator {
    Native,
    Compiled,
}

/// Wall seconds of one squaring-protocol run of `jobs` jobs.
fn squaring_run(coordinator: Coordinator, mc: &Mc, jobs: usize) -> f64 {
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = out.clone();
    let master_body = move |h: MasterHandle| {
        h.create_pool();
        for x in 0..jobs {
            let _w = h.request_worker()?;
            h.send_work(Unit::real(x as f64))?;
        }
        for _ in 0..jobs {
            out2.lock().push(h.collect()?.expect_real()?);
        }
        h.rendezvous()?;
        h.finished();
        Ok(())
    };
    let worker_body = |h: WorkerHandle| {
        let x = h.receive()?.expect_real()?;
        h.submit(Unit::real(x * x))?;
        h.die();
        Ok(())
    };
    let env = Environment::new();
    let t0 = Instant::now();
    match coordinator {
        Coordinator::Compiled => {
            run_protocol_mc(&env, mc, CoordExec::Compiled, master_body, worker_body)
                .expect("protocol run");
        }
        Coordinator::Native => {
            let worker = Arc::new(worker_body);
            env.run_coordinator("ProtocolMW", |coord| {
                let coord_ref = coord.self_ref();
                let env2 = coord.env().clone();
                let master = coord.create_atomic("Master(port in)", move |ctx: ProcessCtx| {
                    master_body(MasterHandle::new(ctx, coord_ref, env2))
                });
                coord.watch(&master);
                coord.activate(&master)?;
                protocol_mw(coord, &master, |coord, death| {
                    let w = worker.clone();
                    let death = death.clone();
                    coord.create_atomic("Worker(event)", move |ctx: ProcessCtx| {
                        w(WorkerHandle::new(ctx, death))
                    })
                })
                .map(|_| ())
            })
            .expect("protocol run");
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    env.shutdown();
    assert!(env.failures().is_empty(), "{coordinator:?}: worker failed");
    assert_eq!(out.lock().len(), jobs, "{coordinator:?}: lost results");
    secs
}

/// Median wall seconds over `reps` runs.
fn squaring_secs(coordinator: Coordinator, mc: &Mc, jobs: usize, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| squaring_run(coordinator, mc, jobs))
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

#[test]
#[ignore = "measures wall time; run in release with --ignored"]
fn compiled_squaring_protocol_stays_within_four_times_native() {
    const BUDGET: f64 = 4.0;
    let mc = Mc::from_source(manifold::lang::PROTOCOL_MW_SOURCE).expect("protocolMW.m");
    let native = squaring_secs(Coordinator::Native, &mc, 16, 3);
    let compiled = squaring_secs(Coordinator::Compiled, &mc, 16, 3);
    let overhead = compiled / native;
    eprintln!(
        "squaring, 16 jobs: native {:.3} ms, compiled {:.3} ms, {overhead:.3}x",
        native * 1e3,
        compiled * 1e3
    );
    assert!(
        overhead <= BUDGET,
        "compiled/native overhead {overhead:.3} exceeds the {BUDGET} budget"
    );
}
