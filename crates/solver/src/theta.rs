//! θ-scheme time integrators: the classical fixed-step baselines.
//!
//! The production integrator is the adaptive ROS2 Rosenbrock method
//! ([`crate::rosenbrock`]); implicit Euler (θ = 1) and Crank-Nicolson
//! (θ = 1/2) provide the reference points a numerical library owes its
//! users — and the benches use them to show what the adaptive Rosenbrock
//! buys on the transport problem.
//!
//! For the semi-discrete system `du/dt = A u + g(t)` one θ-step solves
//!
//! ```text
//! (I − θ·dt·A) uₙ₊₁ = (I + (1−θ)·dt·A) uₙ + dt·[θ·g(tₙ₊₁) + (1−θ)·g(tₙ)]
//! ```

use crate::assemble::Discretization;
use crate::linsolve::{bicgstab_with, Ilu0, KrylovWorkspace, SolveError};
use crate::work::WorkCounter;

/// Which θ-scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThetaScheme {
    /// θ = 1: first order, L-stable.
    ImplicitEuler,
    /// θ = 1/2: second order, A-stable.
    CrankNicolson,
}

impl ThetaScheme {
    /// The θ value.
    pub fn theta(&self) -> f64 {
        match self {
            ThetaScheme::ImplicitEuler => 1.0,
            ThetaScheme::CrankNicolson => 0.5,
        }
    }
}

/// Integrate with a fixed step `dt` from `t0` to `t1` (the last step is
/// shortened to land exactly on `t1`).
pub fn integrate_theta(
    disc: &Discretization,
    mut u: Vec<f64>,
    t0: f64,
    t1: f64,
    dt: f64,
    scheme: ThetaScheme,
    work: &mut WorkCounter,
) -> Result<(Vec<f64>, usize), SolveError> {
    assert!(dt > 0.0 && t1 > t0);
    let theta = scheme.theta();
    let n = disc.n();
    let mut g0 = vec![0.0; n];
    let mut g1 = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut au = vec![0.0; n];
    let mut ws = KrylovWorkspace::new();
    let mut steps = 0usize;

    let mut t = t0;
    let mut stage: Option<(f64, crate::sparse::Csr, Ilu0)> = None;
    while t < t1 - 1e-14 * (t1 - t0) {
        let h = dt.min(t1 - t);
        // (Re)factor when the step changes (only at the final clip).
        let needs = match &stage {
            Some((hh, _, _)) => (hh - h).abs() > 1e-14 * h,
            None => true,
        };
        if needs {
            let m = disc.a.identity_minus_scaled(theta * h);
            let ilu = Ilu0::new(&m, work);
            stage = Some((h, m, ilu));
        }
        let (_, m, ilu) = stage.as_ref().unwrap();

        disc.forcing_into(t, &mut g0);
        disc.forcing_into(t + h, &mut g1);
        disc.a.matvec_into(&u, &mut au);
        work.add_matvec(disc.a.nnz());
        for i in 0..n {
            rhs[i] = u[i] + (1.0 - theta) * h * au[i] + h * (theta * g1[i] + (1.0 - theta) * g0[i]);
        }
        // Warm start from the current state.
        bicgstab_with(m, ilu, &rhs, &mut u, 1e-10, 500, &mut ws, work)?;
        work.add_vector_ops(n, 4);
        t += h;
        steps += 1;
        work.add_step();
    }
    Ok((u, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble;
    use crate::grid::Grid2;
    use crate::l2_norm;
    use crate::problem::Problem;
    use crate::rosenbrock::{integrate, Ros2Options};

    fn theta_error(scheme: ThetaScheme, dt: f64) -> f64 {
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 1, 1); // small grid: isolates the time error
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let u0 = d.exact_interior(p.t0);
        let (u1, _) = integrate_theta(&d, u0, p.t0, p.t_end, dt, scheme, &mut w).unwrap();
        // Compare against a tight reference (not the exact solution, to
        // isolate the *time* error from the spatial error).
        let (uref, _) = integrate(
            &d,
            d.exact_interior(p.t0),
            p.t0,
            p.t_end,
            &Ros2Options::with_tol(1e-8),
            &mut w,
        )
        .unwrap();
        let diff: Vec<f64> = u1.iter().zip(&uref).map(|(a, b)| a - b).collect();
        l2_norm(&diff)
    }

    #[test]
    fn implicit_euler_is_first_order() {
        let e1 = theta_error(ThetaScheme::ImplicitEuler, 0.05);
        let e2 = theta_error(ThetaScheme::ImplicitEuler, 0.025);
        let order = (e1 / e2).log2();
        assert!(
            (0.7..1.4).contains(&order),
            "IE order {order} (e1={e1}, e2={e2})"
        );
    }

    #[test]
    fn crank_nicolson_is_second_order() {
        let e1 = theta_error(ThetaScheme::CrankNicolson, 0.05);
        let e2 = theta_error(ThetaScheme::CrankNicolson, 0.025);
        let order = (e1 / e2).log2();
        assert!(
            (1.6..2.4).contains(&order),
            "CN order {order} (e1={e1}, e2={e2})"
        );
    }

    #[test]
    fn cn_beats_ie_at_equal_step() {
        let dt = 0.025;
        assert!(
            theta_error(ThetaScheme::CrankNicolson, dt)
                < theta_error(ThetaScheme::ImplicitEuler, dt)
        );
    }

    #[test]
    fn stable_at_large_steps() {
        // Implicit schemes take dt far beyond any explicit stability limit.
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 2, 2);
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let u0 = d.exact_interior(p.t0);
        let (u1, steps) = integrate_theta(
            &d,
            u0,
            p.t0,
            p.t_end,
            0.25,
            ThetaScheme::ImplicitEuler,
            &mut w,
        )
        .unwrap();
        assert_eq!(steps, 2);
        assert!(u1.iter().all(|v| v.is_finite() && v.abs() < 10.0));
    }

    #[test]
    fn lands_exactly_on_t_end() {
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 1, 1);
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let u0 = d.exact_interior(p.t0);
        // dt that does not divide the interval: the last step is clipped.
        let (u1, steps) =
            integrate_theta(&d, u0, 0.0, 0.5, 0.3, ThetaScheme::CrankNicolson, &mut w).unwrap();
        assert_eq!(steps, 2);
        let exact = d.exact_interior(0.5);
        let diff: Vec<f64> = u1.iter().zip(&exact).map(|(a, b)| a - b).collect();
        assert!(l2_norm(&diff) < 0.05);
    }

    #[test]
    fn adaptive_ros2_matches_fine_cn() {
        // The adaptive Rosenbrock at 1e-6 and a fine Crank-Nicolson agree.
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 1, 1);
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let (ros, _) = integrate(
            &d,
            d.exact_interior(p.t0),
            p.t0,
            p.t_end,
            &Ros2Options::with_tol(1e-6),
            &mut w,
        )
        .unwrap();
        let (cn, _) = integrate_theta(
            &d,
            d.exact_interior(p.t0),
            p.t0,
            p.t_end,
            2.5e-3,
            ThetaScheme::CrankNicolson,
            &mut w,
        )
        .unwrap();
        let diff: Vec<f64> = ros.iter().zip(&cn).map(|(a, b)| a - b).collect();
        assert!(l2_norm(&diff) < 1e-4, "disagreement {}", l2_norm(&diff));
    }
}
