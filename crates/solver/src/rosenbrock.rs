//! The adaptive Rosenbrock (ROS2) time integrator.
//!
//! The paper: "the adaptive time step in the time integrator (a so-called
//! Rosenbrock solver) is something that must be computed again and again."
//!
//! We implement the classic two-stage, second-order, L-stable ROS2 scheme
//! (γ = 1 + 1/√2), the workhorse for advection-diffusion problems at CWI:
//!
//! ```text
//! (I - γ·dt·A) k₁ = f(tₙ, uₙ)
//! (I - γ·dt·A) k₂ = f(tₙ + dt, uₙ + dt·k₁) - 2·k₁
//! uₙ₊₁ = uₙ + (3/2)·dt·k₁ + (1/2)·dt·k₂
//! ```
//!
//! The embedded first-order result `ûₙ₊₁ = uₙ + dt·k₁` yields the local
//! error estimate `dt·(k₁ + k₂)/2`, which drives the adaptive step
//! controller against the user tolerance (`le_tol` in the paper's command
//! line). The stage matrix depends only on `dt`, so the ILU factorization
//! is reused across steps and only recomputed when the controller actually
//! changes the step — with a ±10% dead band to avoid refactoring on noise.
//!
//! **Zero-allocation hot path.** The step loop performs no heap allocation
//! once the workspace is warm: the stage matrix `I − γ·dt·A` lives in a
//! pattern-reusing [`CachedStage`] whose values are rewritten in place when
//! `dt` changes, the ILU(0) factors are refreshed via
//! [`Ilu0::refactor`] on the cached combined-LU pattern, the Krylov scratch
//! is a reused [`KrylovWorkspace`], and the ROS2 stage vectors live in a
//! per-subsolve [`Ros2Workspace`].
//!
//! **One forcing per step.** Stage 2 evaluates the forcing at `t + dt`,
//! the same f64 sum that `t += dt` makes when the step is accepted, so the
//! accepted step's stage-2 forcing is the next step's stage-1 forcing bit
//! for bit; after a rejection, stage 1's is unchanged. The workspace keeps
//! both and swaps them on accept, so each step evaluates `g` once.
//!
//! The optimized path is bit-identical to the retained reference
//! implementation in [`crate::reference`] — same floating-point results,
//! same adaptive step sequence, same (re)factorization counts.

use crate::assemble::Discretization;
use crate::linsolve::{bicgstab_with, Ilu0, KrylovWorkspace, SolveError};
use crate::sparse::CachedStage;
use crate::work::WorkCounter;

/// γ for L-stable ROS2.
pub const GAMMA: f64 = 1.0 + std::f64::consts::FRAC_1_SQRT_2;

/// Integration failure modes.
#[derive(Clone, Debug, PartialEq)]
pub enum IntegrateError {
    /// Step size driven below the representable floor.
    StepSizeUnderflow {
        /// Time at which the controller gave up.
        t: f64,
    },
    /// The stage linear solve failed.
    Linear(SolveError),
    /// Step budget exhausted before reaching `t1`.
    MaxSteps {
        /// Time reached.
        t: f64,
    },
}

impl std::fmt::Display for IntegrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrateError::StepSizeUnderflow { t } => {
                write!(f, "step size underflow at t = {t}")
            }
            IntegrateError::Linear(e) => write!(f, "linear solve failed: {e}"),
            IntegrateError::MaxSteps { t } => write!(f, "max steps reached at t = {t}"),
        }
    }
}

impl std::error::Error for IntegrateError {}

/// Options for [`integrate`].
#[derive(Clone, Copy, Debug)]
pub struct Ros2Options {
    /// Local error tolerance (used as both absolute and relative weight) —
    /// the paper's `le_tol`.
    pub tol: f64,
    /// Initial step (default: 1/64 of the interval).
    pub dt0: Option<f64>,
    /// Step budget.
    pub max_steps: usize,
    /// Relative tolerance for the stage linear solves.
    pub lin_tol: f64,
    /// Iteration cap for the stage linear solves.
    pub lin_max_iters: usize,
}

impl Ros2Options {
    /// Defaults for a given `le_tol`.
    pub fn with_tol(tol: f64) -> Self {
        Ros2Options {
            tol,
            dt0: None,
            max_steps: 200_000,
            lin_tol: 1e-10,
            lin_max_iters: 500,
        }
    }
}

/// Outcome statistics of an integration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ros2Stats {
    /// Accepted steps.
    pub steps: usize,
    /// Rejected steps.
    pub rejected: usize,
    /// Final step size.
    pub final_dt: f64,
    /// Number of stage-matrix refactorizations performed.
    pub refactorizations: usize,
}

/// Weighted RMS norm of the error estimate against `tol·(1 + |u|)`.
pub(crate) fn error_norm(err: &[f64], u: &[f64], tol: f64) -> f64 {
    let n = err.len().max(1);
    let sum: f64 = err
        .iter()
        .zip(u)
        .map(|(e, ui)| {
            let w = tol * (1.0 + ui.abs());
            let r = e / w;
            r * r
        })
        .sum();
    (sum / n as f64).sqrt()
}

/// The cached stage system: `I − γ·dt·A` with pattern-reusing values and
/// in-place-refreshable ILU(0) factors.
struct StageState {
    dt: f64,
    cache: CachedStage,
    ilu: Ilu0,
}

/// Reusable per-subsolve scratch for [`integrate_with`]: the six ROS2 stage
/// vectors, the error-estimate buffer, the two forcing buffers, the Krylov
/// workspace, and the cached stage matrix + ILU(0) factors. After the
/// workspace is warm (first stage build at a given sparsity pattern), the
/// integrate loop performs zero heap allocations.
#[derive(Default)]
pub struct Ros2Workspace {
    f1: Vec<f64>,
    f2: Vec<f64>,
    k1: Vec<f64>,
    k2: Vec<f64>,
    u_stage: Vec<f64>,
    u_new: Vec<f64>,
    err: Vec<f64>,
    /// The forcing `g(t)` at the current time (stage 1).
    g_now: Vec<f64>,
    /// The forcing `g(t + dt)` at the step's end (stage 2).
    g_end: Vec<f64>,
    krylov: KrylovWorkspace,
    stage: Option<StageState>,
}

impl Ros2Workspace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        for buf in [
            &mut self.f1,
            &mut self.f2,
            &mut self.k1,
            &mut self.k2,
            &mut self.u_stage,
            &mut self.u_new,
            &mut self.err,
            &mut self.g_now,
            &mut self.g_end,
        ] {
            buf.resize(n, 0.0);
        }
    }
}

/// Integrate `du/dt = A u + g(t)` from `t0` to `t1` starting from the
/// interior vector `u0`, with adaptive ROS2. Returns the solution at `t1`
/// and run statistics; all work is charged to `work`. Allocates its own
/// scratch; repeated integrations should reuse a [`Ros2Workspace`] via
/// [`integrate_with`].
pub fn integrate(
    disc: &Discretization,
    u: Vec<f64>,
    t0: f64,
    t1: f64,
    opts: &Ros2Options,
    work: &mut WorkCounter,
) -> Result<(Vec<f64>, Ros2Stats), IntegrateError> {
    let mut ws = Ros2Workspace::new();
    integrate_with(disc, u, t0, t1, opts, &mut ws, work)
}

/// [`integrate`] on a caller-owned [`Ros2Workspace`]. Bit-identical to the
/// allocating entry point (and to the retained [`crate::reference`]
/// implementation): the same floating-point operations run in the same
/// order, only the buffers and the stage matrix pattern are reused.
pub fn integrate_with(
    disc: &Discretization,
    mut u: Vec<f64>,
    t0: f64,
    t1: f64,
    opts: &Ros2Options,
    ws: &mut Ros2Workspace,
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
    ws.ensure(n);

    // Initial stage system: reuse the cached pattern when the workspace was
    // warmed on a matrix with the same sparsity structure (in-place value
    // rewrite + refactorization), build it once otherwise.
    match ws.stage.as_mut() {
        Some(st) if st.cache.matches(&disc.a) => {
            st.cache.rewrite(&disc.a, GAMMA * dt);
            st.ilu.refactor(st.cache.matrix(), work);
            st.dt = dt;
        }
        _ => {
            let cache = CachedStage::new(&disc.a, GAMMA * dt);
            let ilu = Ilu0::new(cache.matrix(), work);
            ws.stage = Some(StageState { dt, cache, ilu });
        }
    }
    stats.refactorizations += 1;
    disc.forcing_into(t, &mut ws.g_now);

    while t < t1 - 1e-14 * span {
        if stats.steps + stats.rejected >= opts.max_steps {
            return Err(IntegrateError::MaxSteps { t });
        }
        // Clip the step so it lands exactly on t1. When the clipped step
        // differs from the factored one (beyond round-off), rewrite the
        // stage matrix and refactor.
        let dt_step = dt.min(t1 - t);
        {
            let st = ws.stage.as_mut().expect("stage built above");
            if (dt_step - st.dt).abs() > 1e-14 * dt_step.max(st.dt) {
                st.cache.rewrite(&disc.a, GAMMA * dt_step);
                st.ilu.refactor(st.cache.matrix(), work);
                st.dt = dt_step;
                stats.refactorizations += 1;
            }
        }
        let st = ws.stage.as_ref().expect("stage built above");

        // Stage 1.
        disc.rhs_with_forcing(&u, &ws.g_now, &mut ws.f1, work);
        bicgstab_with(
            st.cache.matrix(),
            &st.ilu,
            &ws.f1,
            &mut ws.k1,
            opts.lin_tol,
            opts.lin_max_iters,
            &mut ws.krylov,
            work,
        )
        .map_err(IntegrateError::Linear)?;

        // Stage 2.
        for ((usi, ui), k1i) in ws.u_stage.iter_mut().zip(&u).zip(&ws.k1) {
            *usi = ui + dt_step * k1i;
        }
        disc.forcing_into(t + dt_step, &mut ws.g_end);
        disc.rhs_with_forcing(&ws.u_stage, &ws.g_end, &mut ws.f2, work);
        for (f2i, k1i) in ws.f2.iter_mut().zip(&ws.k1) {
            *f2i -= 2.0 * k1i;
        }
        bicgstab_with(
            st.cache.matrix(),
            &st.ilu,
            &ws.f2,
            &mut ws.k2,
            opts.lin_tol,
            opts.lin_max_iters,
            &mut ws.krylov,
            work,
        )
        .map_err(IntegrateError::Linear)?;

        // Candidate solution and error estimate.
        for (((uni, ui), k1i), k2i) in ws.u_new.iter_mut().zip(&u).zip(&ws.k1).zip(&ws.k2) {
            *uni = ui + dt_step * (1.5 * k1i + 0.5 * k2i);
        }
        for ((ei, k1i), k2i) in ws.err.iter_mut().zip(&ws.k1).zip(&ws.k2) {
            *ei = 0.5 * dt_step * (k1i + k2i);
        }
        let enorm = error_norm(&ws.err, &u, opts.tol);
        work.add_vector_ops(n, 8);

        if enorm <= 1.0 {
            // Accept.
            std::mem::swap(&mut u, &mut ws.u_new);
            // g(t + dt_step) is the new t's forcing, bit for bit.
            std::mem::swap(&mut ws.g_now, &mut ws.g_end);
            t += dt_step;
            stats.steps += 1;
            work.add_step();
        } else {
            stats.rejected += 1;
            work.add_rejected();
        }

        // PI-less elementary controller with safety factor and dead band.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble;
    use crate::grid::Grid2;
    use crate::l2_norm;
    use crate::problem::Problem;

    fn solve_error(p: &Problem, grid: &Grid2, tol: f64) -> (f64, Ros2Stats, WorkCounter) {
        let mut work = WorkCounter::new();
        let disc = assemble(grid, p, &mut work);
        let u0 = disc.exact_interior(p.t0);
        let (u1, stats) = integrate(
            &disc,
            u0,
            p.t0,
            p.t_end,
            &Ros2Options::with_tol(tol),
            &mut work,
        )
        .unwrap();
        let exact = disc.exact_interior(p.t_end);
        let diff: Vec<f64> = u1.iter().zip(&exact).map(|(a, b)| a - b).collect();
        (l2_norm(&diff), stats, work)
    }

    #[test]
    fn integrates_manufactured_problem_accurately() {
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 2, 2);
        let (err, stats, _) = solve_error(&p, &g, 1e-5);
        assert!(err < 5e-3, "error too large: {err}");
        assert!(stats.steps > 0);
    }

    #[test]
    fn integrates_transport_benchmark() {
        let p = Problem::transport_benchmark();
        let g = Grid2::new(2, 3, 3); // 32x32
        let (err, _, _) = solve_error(&p, &g, 1e-4);
        // The sharp Gaussian (width ~0.1) dominates the spatial error on a
        // 32x32 grid; ~2% L2 error is the expected discretization level.
        assert!(err < 3e-2, "error too large: {err}");
    }

    #[test]
    fn tighter_tolerance_costs_more_steps() {
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 1, 1);
        let (_, s3, _) = solve_error(&p, &g, 1e-3);
        let (_, s5, _) = solve_error(&p, &g, 1e-5);
        assert!(
            s5.steps > s3.steps,
            "1e-5 ({}) should need more steps than 1e-3 ({})",
            s5.steps,
            s3.steps
        );
    }

    #[test]
    fn tighter_tolerance_reduces_time_error() {
        // Use a fine grid so spatial error does not dominate.
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 3, 3);
        let (e_loose, _, _) = solve_error(&p, &g, 1e-2);
        let (e_tight, _, _) = solve_error(&p, &g, 1e-6);
        assert!(
            e_tight <= e_loose,
            "tight {e_tight} should be <= loose {e_loose}"
        );
    }

    #[test]
    fn dead_band_limits_refactorizations() {
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 1, 1);
        let (_, stats, _) = solve_error(&p, &g, 1e-4);
        assert!(
            stats.refactorizations < stats.steps + stats.rejected,
            "refactorizations {} should be below step count {}",
            stats.refactorizations,
            stats.steps
        );
    }

    #[test]
    fn work_is_charged() {
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 1, 1);
        let (_, stats, work) = solve_error(&p, &g, 1e-4);
        assert!(work.flops > 0);
        assert_eq!(work.steps as usize, stats.steps);
        assert!(work.lin_iters > 0);
        // The first stage build is a full factorization; every dead-band
        // triggered rebuild afterwards is an in-place refactorization.
        assert_eq!(work.factorizations, 1);
        assert_eq!(
            (work.factorizations + work.refactorizations) as usize,
            stats.refactorizations
        );
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        // A second integration on a warmed workspace (same matrix pattern)
        // must reproduce the fresh-workspace run exactly, including the
        // step sequence, and must take the refactor-in-place path.
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 2, 1);
        let mut work = WorkCounter::new();
        let disc = assemble(&g, &p, &mut work);
        let u0 = disc.exact_interior(p.t0);
        let opts = Ros2Options::with_tol(1e-4);

        let (u_fresh, s_fresh) =
            integrate(&disc, u0.clone(), p.t0, p.t_end, &opts, &mut work).unwrap();

        let mut ws = Ros2Workspace::new();
        let mut w1 = WorkCounter::new();
        let (u_cold, s_cold) =
            integrate_with(&disc, u0.clone(), p.t0, p.t_end, &opts, &mut ws, &mut w1).unwrap();
        let mut w2 = WorkCounter::new();
        let (u_warm, s_warm) =
            integrate_with(&disc, u0, p.t0, p.t_end, &opts, &mut ws, &mut w2).unwrap();

        assert_eq!(u_fresh, u_cold);
        assert_eq!(u_fresh, u_warm);
        assert_eq!(s_fresh, s_cold);
        assert_eq!(s_fresh, s_warm);
        // Cold: one full factorization; warm: none at all.
        assert_eq!(w1.factorizations, 1);
        assert_eq!(w2.factorizations, 0);
        assert_eq!(w2.refactorizations as usize, s_warm.refactorizations);
    }

    #[test]
    fn max_steps_is_enforced() {
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 1, 1);
        let mut work = WorkCounter::new();
        let disc = assemble(&g, &p, &mut work);
        let u0 = disc.exact_interior(p.t0);
        let mut opts = Ros2Options::with_tol(1e-10);
        opts.max_steps = 3;
        let err = integrate(&disc, u0, p.t0, p.t_end, &opts, &mut work).unwrap_err();
        assert!(matches!(err, IntegrateError::MaxSteps { .. }));
    }

    #[test]
    fn lands_exactly_on_t_end() {
        // The error vs. the exact solution at t_end implicitly checks this,
        // but verify the stats too: integrating a *tiny* interval works.
        let p = Problem::manufactured_benchmark();
        let g = Grid2::new(2, 0, 0);
        let mut work = WorkCounter::new();
        let disc = assemble(&g, &p, &mut work);
        let u0 = disc.exact_interior(0.0);
        let (u1, stats) = integrate(
            &disc,
            u0,
            0.0,
            1e-3,
            &Ros2Options::with_tol(1e-4),
            &mut work,
        )
        .unwrap();
        assert!(stats.steps >= 1);
        let exact = disc.exact_interior(1e-3);
        let diff: Vec<f64> = u1.iter().zip(&exact).map(|(a, b)| a - b).collect();
        assert!(l2_norm(&diff) < 1e-4);
    }
}
