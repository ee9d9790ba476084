//! Retained pre-optimization solver path, kept as a bit-identity oracle.
//!
//! This module preserves the original allocating hot path exactly as it
//! was before the zero-allocation rework of the `subsolve` inner loop:
//! triplet-based matrix assembly ([`crate::assemble::assemble_reference`]),
//! the bounds-checked sparse kernels (matvec and ILU(0) triangular solves
//! as originally written), full stage-matrix rebuilds
//! (`identity_minus_scaled` + a fresh factorization per dead-band trigger
//! — including the original factorization's per-row temporary copies), a
//! BiCGSTAB that allocates its scratch vectors on every call, an
//! allocating right-hand-side evaluation, and a per-step heap-allocated
//! error vector.
//!
//! It exists so that the optimized path can be *proven* equivalent, not
//! just believed: `tests/bit_identity.rs` runs both on the same grids and
//! asserts bitwise-equal solution values plus identical step, rejection,
//! iteration and flop counts. Any rewrite of the hot loops that changes a
//! floating-point operation order will trip that test. Keep this module
//! frozen — it is the oracle, not a second production path.

use crate::assemble::{assemble_reference, Discretization};
use crate::linsolve::{SolveError, SolveStats};
use crate::rosenbrock::{error_norm, IntegrateError, Ros2Options, Ros2Stats, GAMMA};
use crate::sparse::Csr;
use crate::subsolve::{SubsolveRequest, SubsolveResult};
use crate::work::WorkCounter;

/// The original bounds-checked CSR matvec, row slices and all.
fn ref_matvec_into(a: &Csr, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.n());
    assert_eq!(y.len(), a.n());
    #[allow(clippy::needless_range_loop)] // verbatim original kernel
    for r in 0..a.n() {
        let (cols, vals) = a.row(r);
        let mut acc = 0.0;
        for (c, v) in cols.iter().zip(vals) {
            acc += v * x[*c];
        }
        y[r] = acc;
    }
}

/// The original right-hand side `A u + g(t)`: matvec plus an allocating
/// forcing evaluation.
fn ref_rhs_into(disc: &Discretization, t: f64, u: &[f64], out: &mut [f64], work: &mut WorkCounter) {
    ref_matvec_into(&disc.a, u, out);
    let mut g = vec![0.0; disc.n()];
    disc.forcing_into(t, &mut g);
    for (o, gi) in out.iter_mut().zip(&g) {
        *o += gi;
    }
    work.add_matvec(disc.a.nnz());
}

/// The original ILU(0): factorization with per-row index/value copies to
/// satisfy the borrow checker, and the branch-per-entry triangular solves.
struct RefIlu0 {
    lu: Csr,
    diag_pos: Vec<usize>,
}

impl RefIlu0 {
    fn new(a: &Csr, work: &mut WorkCounter) -> Self {
        let n = a.n();
        let mut lu = a.clone();
        let mut diag_pos = vec![0usize; n];
        #[allow(clippy::needless_range_loop)] // row index drives two arrays
        for r in 0..n {
            let (cols, _) = lu.row(r);
            diag_pos[r] = cols
                .iter()
                .position(|&c| c == r)
                .unwrap_or_else(|| panic!("ILU(0): row {r} has no diagonal entry"));
        }
        // IKJ-variant ILU(0).
        for i in 0..n {
            // We need row i (mutable) and rows k < i (immutable). Copy row
            // i's indices first to appease the borrow checker cheaply.
            let (icols, _) = lu.row(i);
            let icols: Vec<usize> = icols.to_vec();
            for (ki, &k) in icols.iter().enumerate() {
                if k >= i {
                    break;
                }
                // pivot = a[i][k] / a[k][k]
                let akk = {
                    let (_, kvals) = lu.row(k);
                    kvals[diag_pos[k]]
                };
                let akk = if akk.abs() < 1e-300 {
                    1e-300_f64.copysign(akk)
                } else {
                    akk
                };
                let pivot = lu.with_row_vals_mut(i, |ivals| {
                    ivals[ki] /= akk;
                    ivals[ki]
                });
                // Row update: a[i][j] -= pivot * a[k][j] for j > k in both
                // patterns.
                let (kcols, kvals) = {
                    let (c, v) = lu.row(k);
                    (c.to_vec(), v.to_vec())
                };
                lu.with_row_vals_mut(i, |ivals| {
                    let mut ji = ki + 1;
                    for (kc, kv) in kcols.iter().zip(&kvals) {
                        if *kc <= k {
                            continue;
                        }
                        // advance ji to the first column >= kc
                        while ji < icols.len() && icols[ji] < *kc {
                            ji += 1;
                        }
                        if ji == icols.len() {
                            break;
                        }
                        if icols[ji] == *kc {
                            ivals[ji] -= pivot * kv;
                        }
                    }
                });
            }
        }
        work.add_factorization(lu.nnz());
        RefIlu0 { lu, diag_pos }
    }

    fn apply(&self, r: &[f64], z: &mut [f64], work: &mut WorkCounter) {
        let n = self.lu.n();
        // Forward solve L y = r (unit diagonal), y stored in z.
        for i in 0..n {
            let (cols, vals) = self.lu.row(i);
            let mut acc = r[i];
            for (c, v) in cols.iter().zip(vals) {
                if *c >= i {
                    break;
                }
                acc -= v * z[*c];
            }
            z[i] = acc;
        }
        // Backward solve U z = y.
        for i in (0..n).rev() {
            let (cols, vals) = self.lu.row(i);
            let mut acc = z[i];
            let dp = self.diag_pos[i];
            for k in (dp + 1)..cols.len() {
                acc -= vals[k] * z[cols[k]];
            }
            z[i] = acc / vals[dp];
        }
        work.add_precond_apply(self.lu.nnz());
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// The original BiCGSTAB: scratch vectors allocated on every call, the
/// original kernels underneath.
fn ref_bicgstab(
    a: &Csr,
    precond: &RefIlu0,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iters: usize,
    work: &mut WorkCounter,
) -> Result<SolveStats, SolveError> {
    let n = a.n();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let bnorm = norm2(b).max(1e-300);

    let mut r = vec![0.0; n];
    ref_matvec_into(a, x, &mut r);
    work.add_matvec(a.nnz());
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let r_hat = r.clone();
    let mut rho = 1.0_f64;
    let mut alpha = 1.0_f64;
    let mut omega = 1.0_f64;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut p_hat = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut s_hat = vec![0.0; n];
    let mut t = vec![0.0; n];

    let mut resid = norm2(&r) / bnorm;
    if resid <= rel_tol {
        return Ok(SolveStats {
            iterations: 0,
            residual: resid,
        });
    }

    for it in 1..=max_iters {
        work.add_lin_iter();
        let rho_new = dot(&r_hat, &r);
        if rho_new.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it - 1 });
        }
        let beta = (rho_new / rho) * (alpha / omega);
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        precond.apply(&p, &mut p_hat, work);
        ref_matvec_into(a, &p_hat, &mut v);
        work.add_matvec(a.nnz());
        let rv = dot(&r_hat, &v);
        if rv.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        alpha = rho_new / rv;
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        if norm2(&s) / bnorm <= rel_tol {
            for i in 0..n {
                x[i] += alpha * p_hat[i];
            }
            work.add_vector_ops(n, 6);
            return Ok(SolveStats {
                iterations: it,
                residual: norm2(&s) / bnorm,
            });
        }
        precond.apply(&s, &mut s_hat, work);
        ref_matvec_into(a, &s_hat, &mut t);
        work.add_matvec(a.nnz());
        let tt = dot(&t, &t);
        if tt.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        omega = dot(&t, &s) / tt;
        if omega.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        for i in 0..n {
            x[i] += alpha * p_hat[i] + omega * s_hat[i];
            r[i] = s[i] - omega * t[i];
        }
        work.add_vector_ops(n, 10);
        resid = norm2(&r) / bnorm;
        if resid <= rel_tol {
            return Ok(SolveStats {
                iterations: it,
                residual: resid,
            });
        }
        rho = rho_new;
    }
    Err(SolveError::MaxIterations { residual: resid })
}

struct StageMatrix {
    dt: f64,
    m: Csr,
    ilu: RefIlu0,
}

impl StageMatrix {
    fn build(a: &Csr, dt: f64, work: &mut WorkCounter) -> Self {
        let m = a.identity_minus_scaled(GAMMA * dt);
        let ilu = RefIlu0::new(&m, work);
        StageMatrix { dt, m, ilu }
    }
}

/// The original allocating ROS2 integrator, verbatim. See the module docs:
/// this is the oracle for `crate::rosenbrock::integrate` and must stay
/// bit-identical to the state of the code before the zero-allocation
/// rework.
fn integrate_reference(
    disc: &Discretization,
    mut u: Vec<f64>,
    t0: f64,
    t1: f64,
    opts: &Ros2Options,
    work: &mut WorkCounter,
) -> Result<(Vec<f64>, Ros2Stats), IntegrateError> {
    assert_eq!(u.len(), disc.n());
    let span = t1 - t0;
    assert!(span > 0.0, "empty integration interval");
    let mut t = t0;
    let mut dt = opts.dt0.unwrap_or(span / 64.0).min(span);
    let dt_floor = span * 1e-12;

    let mut stats = Ros2Stats {
        steps: 0,
        rejected: 0,
        final_dt: dt,
        refactorizations: 0,
    };

    let n = disc.n();
    let mut f1 = vec![0.0; n];
    let mut f2 = vec![0.0; n];
    let mut k1 = vec![0.0; n];
    let mut k2 = vec![0.0; n];
    let mut u_stage = vec![0.0; n];
    let mut u_new = vec![0.0; n];

    let mut stage = StageMatrix::build(&disc.a, dt, work);
    stats.refactorizations += 1;

    while t < t1 - 1e-14 * span {
        if stats.steps + stats.rejected >= opts.max_steps {
            return Err(IntegrateError::MaxSteps { t });
        }
        let dt_step = dt.min(t1 - t);
        if (dt_step - stage.dt).abs() > 1e-14 * dt_step.max(stage.dt) {
            stage = StageMatrix::build(&disc.a, dt_step, work);
            stats.refactorizations += 1;
        }

        // Stage 1.
        ref_rhs_into(disc, t, &u, &mut f1, work);
        k1.fill(0.0);
        ref_bicgstab(
            &stage.m,
            &stage.ilu,
            &f1,
            &mut k1,
            opts.lin_tol,
            opts.lin_max_iters,
            work,
        )
        .map_err(IntegrateError::Linear)?;

        // Stage 2.
        for i in 0..n {
            u_stage[i] = u[i] + dt_step * k1[i];
        }
        ref_rhs_into(disc, t + dt_step, &u_stage, &mut f2, work);
        for i in 0..n {
            f2[i] -= 2.0 * k1[i];
        }
        k2.fill(0.0);
        ref_bicgstab(
            &stage.m,
            &stage.ilu,
            &f2,
            &mut k2,
            opts.lin_tol,
            opts.lin_max_iters,
            work,
        )
        .map_err(IntegrateError::Linear)?;

        // Candidate solution and error estimate.
        for i in 0..n {
            u_new[i] = u[i] + dt_step * (1.5 * k1[i] + 0.5 * k2[i]);
        }
        let err: Vec<f64> = (0..n).map(|i| 0.5 * dt_step * (k1[i] + k2[i])).collect();
        let enorm = error_norm(&err, &u, opts.tol);
        work.add_vector_ops(n, 8);

        if enorm <= 1.0 {
            std::mem::swap(&mut u, &mut u_new);
            t += dt_step;
            stats.steps += 1;
            work.add_step();
        } else {
            stats.rejected += 1;
            work.add_rejected();
        }

        let factor = (0.8 / enorm.sqrt()).clamp(0.2, 2.0);
        let dt_proposed = (dt_step * factor).min(span);
        if !(0.9..=1.1).contains(&(dt_proposed / dt)) || enorm > 1.0 {
            dt = dt_proposed;
        }
        if dt < dt_floor {
            return Err(IntegrateError::StepSizeUnderflow { t });
        }
    }

    stats.final_dt = dt;
    Ok((u, stats))
}

/// The original allocating `subsolve`, verbatim: triplet assembly plus
/// `integrate_reference`. Oracle for [`crate::subsolve::subsolve`].
pub fn subsolve_reference(req: &SubsolveRequest) -> Result<SubsolveResult, IntegrateError> {
    let grid = req.grid();
    let mut work = WorkCounter::new();
    let disc = assemble_reference(&grid, &req.problem, &mut work);
    let u0 = match &req.initial_interior {
        Some(v) => {
            assert_eq!(v.len(), grid.interior_count(), "bad initial data size");
            v.as_ref().clone()
        }
        None => disc.exact_interior(req.t0),
    };
    let (u1, stats) = integrate_reference(
        &disc,
        u0,
        req.t0,
        req.t1,
        &Ros2Options::with_tol(req.tol),
        &mut work,
    )?;
    let p = req.problem;
    let t1 = req.t1;
    let values = std::sync::Arc::new(grid.expand_interior(&u1, |x, y| p.boundary(x, y, t1)));
    Ok(SubsolveResult {
        l: req.l,
        m: req.m,
        values,
        work,
        steps: stats.steps,
        rejected: stats.rejected,
    })
}

/// The grid set the bit-identity regression covers: anisotropic and
/// isotropic members of a combination-technique level, exercising both
/// tall and wide pentadiagonal layouts (including rows with no east/west
/// or no north/south interior neighbors).
pub fn bit_identity_grids() -> Vec<(u32, u32)> {
    vec![(0, 4), (4, 0), (1, 3), (3, 1), (2, 2)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;

    #[test]
    fn reference_subsolve_runs_and_counts_work() {
        let p = Problem::manufactured_benchmark();
        let req = SubsolveRequest::for_grid(2, 1, 1, 1e-4, p);
        let res = subsolve_reference(&req).unwrap();
        assert!(res.steps > 0);
        assert!(res.work.flops > 0);
        // The reference path only ever performs full factorizations.
        assert_eq!(res.work.refactorizations, 0);
        assert!(res.work.factorizations > 0);
    }

    #[test]
    fn reference_kernels_match_production_kernels() {
        // The retained kernels and the optimized ones must agree bitwise on
        // the same inputs — matvec, ILU factors, and preconditioner solve.
        let p = Problem::transport_benchmark();
        let g = crate::grid::Grid2::new(2, 2, 1);
        let mut w = WorkCounter::new();
        let d = crate::assemble::assemble(&g, &p, &mut w);
        let m = d.a.identity_minus_scaled(GAMMA * 0.013);

        let x: Vec<f64> = (0..m.n()).map(|i| ((i % 13) as f64) - 6.0).collect();
        let mut y_ref = vec![0.0; m.n()];
        let mut y_opt = vec![0.0; m.n()];
        ref_matvec_into(&m, &x, &mut y_ref);
        m.matvec_into(&x, &mut y_opt);
        assert_eq!(y_ref, y_opt);

        let ref_ilu = RefIlu0::new(&m, &mut w);
        let opt_ilu = crate::linsolve::Ilu0::new(&m, &mut w);
        let mut z_ref = vec![0.0; m.n()];
        let mut z_opt = vec![0.0; m.n()];
        ref_ilu.apply(&x, &mut z_ref, &mut w);
        use crate::linsolve::Preconditioner;
        opt_ilu.apply(&x, &mut z_opt, &mut w);
        assert_eq!(z_ref, z_opt);
    }

    #[test]
    fn grid_set_is_anisotropic_and_nonempty() {
        let grids = bit_identity_grids();
        assert!(grids.len() >= 3);
        assert!(grids.iter().any(|&(l, m)| l != m));
        assert!(grids.iter().any(|&(l, m)| l < m));
        assert!(grids.iter().any(|&(l, m)| l > m));
    }
}
