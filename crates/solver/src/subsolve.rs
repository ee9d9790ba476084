//! `subsolve(l, m)` — the unit of work the renovation delegates to workers.
//!
//! "In this routine, a linear system of equations (Ax = b) is solved for
//! every time step" (§3). A subsolve owns one grid `(l, m)` completely: it
//! reads and writes data only from and to its own grid, which is the
//! concurrency property that makes it safe to run all subsolves of the
//! nested loop in parallel.
//!
//! The request/result types below are deliberately *plain data*: in the
//! renovated application they are serialized into stream units and travel
//! from the master to a worker and back.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::assemble::assemble;
use crate::grid::Grid2;
use crate::problem::Problem;
use crate::rosenbrock::{integrate_with, IntegrateError, Ros2Options, Ros2Workspace};
use crate::work::WorkCounter;

/// Everything a worker needs to run one subsolve.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubsolveRequest {
    /// Root refinement level (coarsest grid), the paper's first argument.
    pub root: u32,
    /// Extra x-refinement of this grid.
    pub l: u32,
    /// Extra y-refinement of this grid.
    pub m: u32,
    /// Integration start time.
    pub t0: f64,
    /// Integration end time.
    pub t1: f64,
    /// The integrator tolerance, the paper's `le_tol`.
    pub tol: f64,
    /// The problem instance.
    pub problem: Problem,
    /// Initial interior values; `None` means "sample the problem's initial
    /// condition", which is what the paper's application does. Shared
    /// (`Arc`) so the master → worker hand-off never deep-copies the field.
    pub initial_interior: Option<Arc<Vec<f64>>>,
}

impl SubsolveRequest {
    /// Standard request for the paper's application: integrate grid
    /// `(l, m)` over the whole problem horizon from the analytic initial
    /// condition.
    pub fn for_grid(root: u32, l: u32, m: u32, tol: f64, problem: Problem) -> Self {
        SubsolveRequest {
            root,
            l,
            m,
            t0: problem.t0,
            t1: problem.t_end,
            tol,
            problem,
            initial_interior: None,
        }
    }

    /// The grid this request addresses.
    pub fn grid(&self) -> Grid2 {
        Grid2::new(self.root, self.l, self.m)
    }

    /// Size in bytes of the request as it would travel to a remote worker:
    /// parameters plus the initial data (if any). Used by the cluster
    /// simulator's network model.
    pub fn wire_size(&self) -> usize {
        64 + self.initial_interior.as_ref().map_or(0, |v| 8 * v.len())
    }
}

/// What a worker sends back.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubsolveResult {
    /// Which grid was solved.
    pub l: u32,
    /// Which grid was solved (y index).
    pub m: u32,
    /// Full node vector (boundary included) at `t1`. Shared (`Arc`) so the
    /// worker → master → prolongation path passes one buffer by reference.
    pub values: Arc<Vec<f64>>,
    /// Work performed.
    pub work: WorkCounter,
    /// Accepted integrator steps.
    pub steps: usize,
    /// Rejected integrator steps.
    pub rejected: usize,
}

impl SubsolveResult {
    /// Wire size of the result (the full node field).
    pub fn wire_size(&self) -> usize {
        64 + 8 * self.values.len()
    }
}

/// Run one subsolve to completion. This is the computational heart the
/// paper's workers wrap. Allocates a fresh [`Ros2Workspace`]; workers that
/// process many requests should keep one workspace per thread and call
/// [`subsolve_with`] so the integrator's hot loop stays allocation-free
/// across jobs with matching sparsity patterns.
pub fn subsolve(req: &SubsolveRequest) -> Result<SubsolveResult, IntegrateError> {
    let mut ws = Ros2Workspace::new();
    subsolve_with(req, &mut ws)
}

/// [`subsolve`] on a caller-owned integrator workspace. Bit-identical to
/// [`subsolve`]; repeated calls reuse the stage-matrix pattern, ILU(0)
/// factors and Krylov scratch whenever consecutive requests share a grid
/// shape.
pub fn subsolve_with(
    req: &SubsolveRequest,
    ws: &mut Ros2Workspace,
) -> Result<SubsolveResult, IntegrateError> {
    let grid = req.grid();
    let mut work = WorkCounter::new();
    let disc = assemble(&grid, &req.problem, &mut work);
    let u0 = match &req.initial_interior {
        Some(v) => {
            assert_eq!(v.len(), grid.interior_count(), "bad initial data size");
            // The integrator owns its state vector; this is the single
            // copy on the whole master → worker path.
            v.as_ref().clone()
        }
        None => disc.exact_interior(req.t0),
    };
    let (u1, stats) = integrate_with(
        &disc,
        u0,
        req.t0,
        req.t1,
        &Ros2Options::with_tol(req.tol),
        ws,
        &mut work,
    )?;
    let p = req.problem;
    let t1 = req.t1;
    let values = Arc::new(grid.expand_interior(&u1, |x, y| p.boundary(x, y, t1)));
    Ok(SubsolveResult {
        l: req.l,
        m: req.m,
        values,
        work,
        steps: stats.steps,
        rejected: stats.rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l2_norm;

    #[test]
    fn subsolve_accuracy_on_isotropic_grid() {
        let p = Problem::manufactured_benchmark();
        let req = SubsolveRequest::for_grid(2, 2, 2, 1e-5, p);
        let res = subsolve(&req).unwrap();
        let grid = req.grid();
        let want = grid.sample(|x, y| p.exact(x, y, p.t_end));
        let d: Vec<f64> = res.values.iter().zip(&want).map(|(a, b)| a - b).collect();
        assert!(l2_norm(&d) < 5e-3, "error {}", l2_norm(&d));
        assert!(res.steps > 0);
        assert!(res.work.flops > 0);
    }

    #[test]
    fn subsolve_on_anisotropic_grids() {
        let p = Problem::manufactured_benchmark();
        for (l, m) in [(0, 3), (3, 0), (1, 2)] {
            let req = SubsolveRequest::for_grid(2, l, m, 1e-4, p);
            let res = subsolve(&req).unwrap();
            assert_eq!((res.l, res.m), (l, m));
            assert_eq!(res.values.len(), req.grid().node_count());
            assert!(res.values.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn boundary_values_are_exact() {
        let p = Problem::transport_benchmark();
        let req = SubsolveRequest::for_grid(2, 1, 1, 1e-3, p);
        let res = subsolve(&req).unwrap();
        let g = req.grid();
        for i in 0..=g.nx {
            let top = res.values[g.node_idx(i, g.ny)];
            assert!((top - p.boundary(g.x(i), 1.0, p.t_end)).abs() < 1e-12);
        }
    }

    #[test]
    fn explicit_initial_data_is_used() {
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 1, 1);
        let mut req = SubsolveRequest::for_grid(2, 1, 1, 1e-4, p);
        // Start from zero instead of the analytic initial condition over a
        // tiny horizon: result must stay near zero (≠ analytic evolution).
        req.t1 = req.t0 + 1e-4;
        req.initial_interior = Some(Arc::new(vec![0.0; g.interior_count()]));
        let res = subsolve(&req).unwrap();
        let interior = g.restrict_interior(&res.values);
        assert!(l2_norm(&interior) < 0.2, "{}", l2_norm(&interior));
    }

    #[test]
    fn deterministic_given_same_request() {
        let p = Problem::transport_benchmark();
        let req = SubsolveRequest::for_grid(2, 2, 1, 1e-3, p);
        let a = subsolve(&req).unwrap();
        let b = subsolve(&req).unwrap();
        assert_eq!(a.values, b.values);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn shared_workspace_matches_fresh_workspace() {
        // A worker reusing one Ros2Workspace across jobs — including jobs
        // with different grid shapes, which force a cache rebuild — must
        // produce bitwise the same results as fresh-workspace runs.
        let p = Problem::transport_benchmark();
        let mut ws = Ros2Workspace::new();
        for (l, m) in [(2, 1), (2, 1), (1, 2), (2, 1)] {
            let req = SubsolveRequest::for_grid(2, l, m, 1e-3, p);
            let fresh = subsolve(&req).unwrap();
            let shared = subsolve_with(&req, &mut ws).unwrap();
            assert_eq!(fresh.values, shared.values);
            assert_eq!(fresh.steps, shared.steps);
            assert_eq!(fresh.work.flops, shared.work.flops);
        }
    }

    #[test]
    fn work_scales_with_grid_size() {
        let p = Problem::transport_benchmark();
        let small = subsolve(&SubsolveRequest::for_grid(2, 0, 0, 1e-3, p)).unwrap();
        let large = subsolve(&SubsolveRequest::for_grid(2, 2, 2, 1e-3, p)).unwrap();
        assert!(
            large.work.flops > 4 * small.work.flops,
            "large {} vs small {}",
            large.work.flops,
            small.work.flops
        );
    }

    #[test]
    fn wire_sizes_track_payloads() {
        let p = Problem::transport_benchmark();
        let req = SubsolveRequest::for_grid(2, 1, 1, 1e-3, p);
        assert_eq!(req.wire_size(), 64);
        let res = subsolve(&req).unwrap();
        assert_eq!(res.wire_size(), 64 + 8 * res.values.len());
    }
}
