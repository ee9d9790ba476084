//! Property-based tests of the stream codec: every well-formed request and
//! result survives the unit encoding bit-for-bit, including the degenerate
//! grids (empty interior, single cell) and the `initial_interior: None`
//! sentinel, and bulk payloads stay shared rather than copied.

use std::sync::Arc;

use proptest::prelude::*;
use renovation::codec::{request_from_unit, request_to_unit, result_from_unit, result_to_unit};
use solver::grid::Grid2;
use solver::problem::{Problem, ProblemKind};
use solver::subsolve::{SubsolveRequest, SubsolveResult};
use solver::WorkCounter;

fn arb_problem() -> impl Strategy<Value = Problem> {
    (
        -2.0..2.0f64,
        -2.0..2.0f64,
        1e-6..1.0f64,
        0.0..0.5f64,
        0.5..2.0f64,
        prop_oneof![
            Just(ProblemKind::Manufactured),
            (0.0..1.0f64, 0.0..1.0f64, 0.01..0.3f64)
                .prop_map(|(x0, y0, s0)| ProblemKind::Gaussian { x0, y0, s0 }),
        ],
    )
        .prop_map(|(ax, ay, eps, t0, t_end, kind)| Problem {
            ax,
            ay,
            eps,
            t0,
            t_end,
            kind,
        })
}

fn arb_request() -> impl Strategy<Value = SubsolveRequest> {
    (
        (0u32..3, 0u32..5, 0u32..5),
        (0.0..1.0f64, 1.0..2.0f64, 1e-6..1e-2f64),
        arb_problem(),
        prop::option::of(-10.0..10.0f64),
    )
        .prop_map(
            |((root, l, m), (t0, t1, tol), problem, init)| SubsolveRequest {
                root,
                l,
                m,
                t0,
                t1,
                tol,
                problem,
                // The decoder checks the payload against the grid, so it is
                // sized to the interior.
                initial_interior: init.map(|v| {
                    let g = Grid2::new(root, l, m);
                    Arc::new(g.sample_interior(|x, y| v * x - y))
                }),
            },
        )
}

fn arb_result() -> impl Strategy<Value = SubsolveResult> {
    (
        (0u32..8, 0u32..8),
        prop::collection::vec(-100.0..100.0f64, 0..60),
        (0usize..10_000, 0usize..100),
        prop::collection::vec(0u64..1_000_000, 7),
    )
        .prop_map(|((l, m), values, (steps, rejected), w)| SubsolveResult {
            l,
            m,
            values: Arc::new(values),
            steps,
            rejected,
            work: WorkCounter {
                flops: w[0],
                steps: w[1],
                rejected: w[2],
                lin_iters: w[3],
                factorizations: w[4],
                refactorizations: w[5],
                assemblies: w[6],
            },
        })
}

proptest! {
    /// Any request — with or without initial data, including the empty
    /// payload — round-trips exactly.
    #[test]
    fn request_round_trips(req in arb_request()) {
        let back = request_from_unit(&request_to_unit(&req)).unwrap();
        prop_assert_eq!(back, req);
    }

    /// Any result round-trips exactly, values bit-for-bit.
    #[test]
    fn result_round_trips(res in arb_result()) {
        let back = result_from_unit(&result_to_unit(&res)).unwrap();
        prop_assert_eq!(back, res);
    }

    /// The bulk buffers cross the codec as shared allocations: what comes
    /// back is pointer-equal to what went in, never a deep copy.
    #[test]
    fn payloads_stay_shared(req in arb_request(), res in arb_result()) {
        let breq = request_from_unit(&request_to_unit(&req)).unwrap();
        if let (Some(a), Some(b)) = (&req.initial_interior, &breq.initial_interior) {
            prop_assert!(Arc::ptr_eq(a, b));
        }
        let bres = result_from_unit(&result_to_unit(&res)).unwrap();
        prop_assert!(Arc::ptr_eq(&bres.values, &res.values));
    }

    /// Degenerate grids: the initial payload sized to the *actual* interior
    /// of an `(root, l, m)` grid — which is empty for any grid with a
    /// single row or column of cells — still round-trips.
    #[test]
    fn degenerate_grid_payloads_round_trip(
        root in 0u32..2,
        l in 0u32..3,
        m in 0u32..3,
        p in arb_problem()
    ) {
        let g = Grid2::new(root, l, m);
        let interior = g.sample_interior(|x, y| x + 2.0 * y);
        prop_assert_eq!(interior.len(), g.interior_count());
        let mut req = SubsolveRequest::for_grid(root, l, m, 1e-3, p);
        req.initial_interior = Some(Arc::new(interior));
        let back = request_from_unit(&request_to_unit(&req)).unwrap();
        prop_assert_eq!(back, req);
    }
}

#[test]
fn empty_and_single_cell_grids_have_empty_interiors() {
    // root 0, l 0, m 0: one cell, no interior nodes at all — the smallest
    // payload the codec must carry.
    let g = Grid2::new(0, 0, 0);
    assert_eq!(g.interior_count(), 0);
    assert!(g.sample_interior(|_, _| 1.0).is_empty());
    let mut req = SubsolveRequest::for_grid(0, 0, 0, 1e-3, Problem::transport_benchmark());
    req.initial_interior = Some(Arc::new(Vec::new()));
    let back = request_from_unit(&request_to_unit(&req)).unwrap();
    assert_eq!(back, req);
}
