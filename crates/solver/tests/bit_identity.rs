//! Bit-identity regression: the zero-allocation subsolve hot path against
//! the retained reference implementation (`solver::reference`).
//!
//! The optimization contract for this solver is strict: direct CSR
//! assembly, cached stage matrices, in-place ILU(0) refactorization,
//! level-scheduled triangular sweeps and workspace reuse must change *how*
//! the arithmetic is scheduled, never *what* is computed. These tests pin
//! that down — bitwise-equal solution values and identical step, rejection,
//! iteration and flop counts on a set of anisotropic and isotropic grids.
//!
//! Two roots cover every kernel route: root 2's grids are thin (3 or 7
//! wide) and wide stencils, and root 1's include the 1-D grids (one
//! interior line) that production runs on the scalar fallback.

use solver::problem::Problem;
use solver::reference::{bit_identity_grids, subsolve_reference};
use solver::rosenbrock::Ros2Workspace;
use solver::subsolve::{subsolve, subsolve_with, SubsolveRequest};

fn assert_identical(p: Problem, tol: f64) {
    let grids = bit_identity_grids();
    assert!(grids.len() >= 3, "need at least three regression grids");

    // One shared workspace across all grids: reuse (with its pattern-cache
    // resets between differently shaped grids) must not perturb anything.
    let mut ws = Ros2Workspace::new();
    let cases = [1, 2]
        .into_iter()
        .flat_map(|root| grids.iter().map(move |&(l, m)| (root, l, m)));
    for (root, l, m) in cases {
        let req = SubsolveRequest::for_grid(root, l, m, tol, p);
        let reference = subsolve_reference(&req).expect("reference subsolve");
        let fresh = subsolve(&req).expect("optimized subsolve");
        let warm = subsolve_with(&req, &mut ws).expect("warm-workspace subsolve");

        for res in [&fresh, &warm] {
            assert_eq!(
                reference.values, res.values,
                "root {root} grid ({l},{m}): values diverged from the reference"
            );
            assert_eq!(
                reference.steps, res.steps,
                "root {root} grid ({l},{m}): step count"
            );
            assert_eq!(
                reference.rejected, res.rejected,
                "root {root} grid ({l},{m}): rejected-step count"
            );
            assert_eq!(
                reference.work.flops, res.work.flops,
                "root {root} grid ({l},{m}): counted flops"
            );
            assert_eq!(
                reference.work.lin_iters, res.work.lin_iters,
                "root {root} grid ({l},{m}): linear iterations"
            );
            // The reference only ever performs full factorizations; the
            // optimized path splits the same events into one factorization
            // plus in-place refactorizations.
            assert_eq!(
                reference.work.factorizations,
                res.work.factorizations + res.work.refactorizations,
                "root {root} grid ({l},{m}): (re)factorization events"
            );
        }
    }
}

#[test]
fn transport_problem_is_bit_identical_to_reference() {
    assert_identical(Problem::transport_benchmark(), 1e-4);
}

#[test]
fn manufactured_problem_is_bit_identical_to_reference() {
    assert_identical(Problem::manufactured_benchmark(), 1e-3);
}
