//! Fair-share guarantees of the admission layer, pinned deterministically:
//! a tenant that floods its bounded queue cannot starve a light tenant,
//! and weights shift the interleave in the promised ratio — whether the
//! dispatcher runs one job at a time or keeps two in flight.

use std::sync::Arc;
use std::time::Instant;

use serve::admission::{Admission, AdmissionConfig, Next, QueuedJob};

fn job(tenant: &Arc<str>, seq: u64) -> QueuedJob {
    QueuedJob {
        tenant: Arc::clone(tenant),
        session: 1,
        seq,
        root: 1,
        level: 2,
        tol: 1e-3,
        attempts: 0,
        enqueued: Instant::now(),
    }
}

/// Dispatcher widths the guarantees are pinned at.
const WIDTHS: [usize; 2] = [1, 2];

/// Pop `total` jobs the way a dispatcher `width` jobs wide does: a job is
/// popped whenever a slot is free, and with every slot taken the *newest*
/// running job completes first — overlapped jobs do not finish in the
/// order they started.
fn pop_order(adm: &Admission, total: usize, width: usize) -> Vec<(String, u64)> {
    let mut order = Vec::with_capacity(total);
    let mut running: Vec<QueuedJob> = Vec::new();
    while order.len() < total {
        match adm.next_when(running.len() < width) {
            Next::Job(j) => {
                order.push((j.tenant.to_string(), j.seq));
                running.push(j);
            }
            other => panic!("expected a job, got {other:?}"),
        }
        if running.len() == width {
            adm.complete(&running.pop().unwrap(), true);
        }
    }
    for j in running {
        adm.complete(&j, true);
    }
    order
}

/// The starvation test: 500 queued greedy jobs, 10 light jobs arriving
/// behind them. In arrival (FIFO) order the light tenant's last job would
/// wait out all 500; under fair queuing the two interleave 1:1, so every
/// light job is served within a couple of pops of its fair slot and the
/// light tenant's p99 queue position is two orders of magnitude better
/// than the greedy backlog it arrived behind.
#[test]
fn greedy_tenant_cannot_starve_a_light_tenants_p99() {
    WIDTHS.into_iter().for_each(greedy_cannot_starve_light);
}

fn greedy_cannot_starve_light(width: usize) {
    let adm = Admission::new(AdmissionConfig {
        queue_cap: 1000,
        ..AdmissionConfig::default()
    });
    adm.register("greedy", 1);
    adm.register("light", 1);
    let greedy: Arc<str> = Arc::from("greedy");
    let light: Arc<str> = Arc::from("light");
    for i in 0..500 {
        adm.offer(job(&greedy, i));
    }
    for i in 0..10 {
        adm.offer(job(&light, 1000 + i));
    }

    let order = pop_order(&adm, 510, width);
    let light_positions: Vec<usize> = order
        .iter()
        .enumerate()
        .filter(|(_, (t, _))| t == "light")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(light_positions.len(), 10);
    // Light job k's fair slot is ~2k (1:1 interleave); allow slack for the
    // clock forwarding at the head, none of which may compound.
    for (k, pos) in light_positions.iter().enumerate() {
        assert!(
            *pos <= 2 * k + 4,
            "light job {k} served at position {pos}, not interleaved \
             (arrival order would be {})",
            500 + k
        );
    }
    // The p99 claim, in queue positions: the light tenant's worst wait is
    // a sliver of the greedy tenant's backlog.
    let worst = *light_positions.last().unwrap();
    assert!(
        worst < 30,
        "light tenant's worst-case position {worst} is inside the greedy backlog"
    );
}

/// Weights steer the interleave: a weight-3 tenant gets 3 of every 4 pops
/// while both queues are non-empty, exactly.
#[test]
fn weights_split_service_in_ratio() {
    WIDTHS.into_iter().for_each(weights_split_service);
}

fn weights_split_service(width: usize) {
    let adm = Admission::new(AdmissionConfig {
        queue_cap: 1000,
        ..AdmissionConfig::default()
    });
    adm.register("paying", 3);
    adm.register("free", 1);
    let paying: Arc<str> = Arc::from("paying");
    let free: Arc<str> = Arc::from("free");
    for i in 0..90 {
        adm.offer(job(&paying, i));
    }
    for i in 0..30 {
        adm.offer(job(&free, 1000 + i));
    }
    let order = pop_order(&adm, 120, width);
    // While both are backlogged (first 120 pops cover exactly both
    // queues), every window of 4 pops contains exactly 3 paying jobs.
    let paying_served = order.iter().take(40).filter(|(t, _)| t == "paying").count();
    assert_eq!(paying_served, 30, "3:1 weights must serve 3 of every 4");
}

/// An idle tenant's virtual clock forwards on wake: going quiet does not
/// bank a burst entitlement that would starve the others later.
#[test]
fn idle_time_is_not_a_burst_entitlement() {
    WIDTHS.into_iter().for_each(idle_time_is_not_banked);
}

fn idle_time_is_not_banked(width: usize) {
    let adm = Admission::new(AdmissionConfig {
        queue_cap: 1000,
        ..AdmissionConfig::default()
    });
    adm.register("steady", 1);
    adm.register("sleeper", 1);
    let steady: Arc<str> = Arc::from("steady");
    let sleeper: Arc<str> = Arc::from("sleeper");
    // The sleeper is absent while steady consumes 100 service slots.
    for i in 0..100 {
        adm.offer(job(&steady, i));
    }
    let _ = pop_order(&adm, 100, width);
    // Now both offer 20: the sleeper must *share* from here (1:1), not
    // get 20 consecutive pops as repayment for its idle time.
    for i in 0..20 {
        adm.offer(job(&steady, 200 + i));
        adm.offer(job(&sleeper, 300 + i));
    }
    let order = pop_order(&adm, 40, width);
    let sleeper_in_first_10 = order
        .iter()
        .take(10)
        .filter(|(t, _)| t == "sleeper")
        .count();
    assert!(
        (4..=6).contains(&sleeper_in_first_10),
        "woken tenant took {sleeper_in_first_10} of the first 10 pops; \
         expected a fair half, not a banked burst"
    );
}
