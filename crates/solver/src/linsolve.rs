//! Sparse linear solvers: ILU(0) preconditioning and **BiCGSTAB**, the
//! production Krylov solver of the integrator.
//!
//! Every Rosenbrock stage solves `(I - γ·dt·A)·k = rhs`. The matrix is
//! nonsymmetric (advection), so we use BiCGSTAB preconditioned with an
//! ILU(0) factorization that is recomputed only when `dt` changes — exactly
//! the kind of "A matrix must be built up … again and again" cost structure
//! the paper describes. When `dt` does change, [`Ilu0::refactor`] rewrites
//! the combined LU values in place on the cached pattern instead of
//! reallocating, and [`bicgstab_with`] runs on a caller-owned
//! [`KrylovWorkspace`] so the integrator's inner loop performs no heap
//! allocation at all. BiCGSTAB is the crate's one Krylov solver.

use crate::simd::{self, Backend, Dot, F64x4, Square};
use crate::sparse::{Csr, StencilPlan};
use crate::work::WorkCounter;

/// A left preconditioner `M ≈ A`: given `r`, produce `z ≈ A⁻¹ r`.
pub trait Preconditioner {
    /// Apply `z = M⁻¹ r`.
    fn apply(&self, r: &[f64], z: &mut [f64], work: &mut WorkCounter);
}

/// Incomplete LU factorization with zero fill-in, on the sparsity pattern
/// of the input matrix.
pub struct Ilu0 {
    /// Combined LU factors (unit lower L below the diagonal, U on and above).
    lu: Csr,
    /// Position of the diagonal entry within each row's value slice.
    diag_pos: Vec<usize>,
    /// The [`StencilPlan`] of the pattern, when it conforms — enables the
    /// skewed-wavefront sweeps (ILU(0) preserves the pattern, so the plan
    /// of `A` is the plan of the combined LU factor).
    plan: Option<StencilPlan>,
}

/// IKJ-variant ILU(0) over the combined LU values, in place. Rows `k < i`
/// live entirely before row `i` in the flat value array, so a single
/// `split_at_mut` yields the already-factored rows immutably while row `i`
/// is updated — no per-row copies, no allocation.
fn factor_in_place(row_ptr: &[usize], col_idx: &[usize], vals: &mut [f64], diag_pos: &[usize]) {
    let n = row_ptr.len() - 1;
    for i in 0..n {
        let (ilo, ihi) = (row_ptr[i], row_ptr[i + 1]);
        let (done, rest) = vals.split_at_mut(ilo);
        let ivals = &mut rest[..ihi - ilo];
        let icols = &col_idx[ilo..ihi];
        for ki in 0..icols.len() {
            let k = icols[ki];
            if k >= i {
                break;
            }
            // pivot = a[i][k] / a[k][k]; small pivots are bumped to keep
            // the factorization finite.
            let (klo, khi) = (row_ptr[k], row_ptr[k + 1]);
            let akk = done[klo + diag_pos[k]];
            let akk = if akk.abs() < 1e-300 {
                1e-300_f64.copysign(akk)
            } else {
                akk
            };
            ivals[ki] /= akk;
            let pivot = ivals[ki];
            // Row update: a[i][j] -= pivot * a[k][j] for j > k in both
            // patterns.
            let kcols = &col_idx[klo..khi];
            let kvals = &done[klo..khi];
            let mut ji = ki + 1;
            for (kc, kv) in kcols.iter().zip(kvals) {
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
        }
    }
}

impl Ilu0 {
    /// Factor `a`. Rows must contain their diagonal entry (the Rosenbrock
    /// matrices always do). Small pivots are bumped to keep the
    /// factorization finite.
    pub fn new(a: &Csr, work: &mut WorkCounter) -> Self {
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
        lu.with_raw_parts_mut(|row_ptr, col_idx, vals| {
            factor_in_place(row_ptr, col_idx, vals, &diag_pos)
        });
        work.add_factorization(lu.nnz());
        let plan = a.stencil_plan();
        Ilu0 { lu, diag_pos, plan }
    }

    /// Refactor in place from a matrix with the *same sparsity pattern* as
    /// the one this factorization was built from: copy the values onto the
    /// cached combined-LU pattern and re-run the elimination. No
    /// allocation; `diag_pos` is reused verbatim.
    pub fn refactor(&mut self, a: &Csr, work: &mut WorkCounter) {
        debug_assert!(
            self.lu.same_pattern(a),
            "Ilu0::refactor: pattern mismatch — use Ilu0::new"
        );
        let diag_pos = &self.diag_pos;
        self.lu.with_raw_parts_mut(|row_ptr, col_idx, vals| {
            vals.copy_from_slice(a.vals());
            factor_in_place(row_ptr, col_idx, vals, diag_pos)
        });
        work.add_refactorization(self.lu.nnz());
    }
}

impl Ilu0 {
    /// The combined factors on the input's pattern: the unit lower `L`
    /// strictly below the diagonal (its unit diagonal is not stored), `U`
    /// on and above.
    pub fn factors(&self) -> &Csr {
        &self.lu
    }

    /// Natural-order sweeps with the plain scalar inner loops: the route of
    /// every factor without a stencil plan (1-D grids, general matrices),
    /// and the differential-test oracle for the wavefront sweeps. Performs
    /// no work accounting.
    ///
    /// Row `i`'s entries before its diagonal are exactly its columns `< i`
    /// (rows are sorted), so each row splits into its strict-L and
    /// strict-U slices at `diag_pos[i]`.
    pub fn apply_scalar(&self, r: &[f64], z: &mut [f64]) {
        let n = self.lu.n();
        assert_eq!(r.len(), n);
        assert_eq!(z.len(), n);
        let row_ptr = self.lu.row_ptr();
        let (cols, vals) = (self.lu.col_indices(), self.lu.vals());
        let rows = || row_ptr.windows(2).zip(&self.diag_pos).enumerate();
        // Forward solve L y = r (unit diagonal), y stored in z.
        for (i, (ends, &dp)) in rows() {
            let lower = ends[0]..ends[0] + dp;
            let mut acc = r[i];
            for (&c, v) in cols[lower.clone()].iter().zip(&vals[lower]) {
                acc -= v * z[c];
            }
            z[i] = acc;
        }
        // Backward solve U z = y.
        for (i, (ends, &dp)) in rows().rev() {
            let diag = ends[0] + dp;
            let upper = diag + 1..ends[1];
            let mut acc = z[i];
            for (&c, v) in cols[upper.clone()].iter().zip(&vals[upper]) {
                acc -= v * z[c];
            }
            z[i] = acc / vals[diag];
        }
    }

    /// Skewed-wavefront sweeps for a stencil-plan factorization. The
    /// triangular recurrences of a 5-point stencil couple each row to its
    /// west and north (forward) or east and south (backward) neighbors, so
    /// the natural sweep is one long latency chain per grid line. The
    /// wavefront runs blocks of up to four *lines* concurrently, skewed one
    /// column apart, which makes the four in-flight row updates mutually
    /// independent — the CPU overlaps their multiply/subtract(/divide)
    /// chains — while each neighbor value is carried in a register instead
    /// of re-loaded through `col_idx` gathers.
    ///
    /// The factors' values come from their band-major copy, so each lane
    /// reads its line of every band it needs as a slice `w` long, indexed
    /// by column. Row order is a valid topological order of the triangular
    /// dependencies and every row evaluates the exact scalar per-row
    /// expression (ascending-column subtract order, final divide), so the
    /// result is bitwise identical to [`Ilu0::apply_scalar`].
    #[inline(always)]
    fn apply_wavefront(&self, plan: StencilPlan, r: &[f64], z: &mut [f64]) {
        let StencilPlan { w, h } = plan;
        assert!(plan.is_detected(), "a detected stencil plan");
        assert!(
            r.len() == w * h && z.len() == w * h,
            "wavefront operand lengths"
        );
        let f = FactorLines {
            w,
            band: std::array::from_fn(|b| self.lu.band(b)),
        };
        // Forward solve L y = r (unit diagonal), y stored in z.
        // Line 0 rides as lane 0 of the first block (`TOP`: no north term),
        // so there is no serial boundary pass — every row is wavefronted.
        // Grids shorter than a full block (h = 3: the thinnest detectable
        // plan) run as one under-laned TOP block.
        let mut j0 = h.min(4);
        match j0 {
            3 => fwd_wave_block::<3, true>(f, 0, r, z),
            _ => fwd_wave_block::<4, true>(f, 0, r, z),
        }
        while j0 + 4 <= h {
            fwd_wave_block::<4, false>(f, j0, r, z);
            j0 += 4;
        }
        match h - j0 {
            1 => fwd_wave_block::<1, false>(f, j0, r, z),
            2 => fwd_wave_block::<2, false>(f, j0, r, z),
            3 => fwd_wave_block::<3, false>(f, j0, r, z),
            _ => {}
        }
        // Backward solve U z = y. Line h-1 rides as lane 0 of the first
        // block (`BOTTOM`: no south term), mirroring the forward solve.
        match h.min(4) {
            3 => bwd_wave_block::<3, true>(f, h - 1, z),
            _ => bwd_wave_block::<4, true>(f, h - 1, z),
        }
        let mut rem = h - h.min(4);
        while rem >= 4 {
            bwd_wave_block::<4, false>(f, rem - 1, z);
            rem -= 4;
        }
        match rem {
            1 => bwd_wave_block::<1, false>(f, rem - 1, z),
            2 => bwd_wave_block::<2, false>(f, rem - 1, z),
            3 => bwd_wave_block::<3, false>(f, rem - 1, z),
            _ => {}
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn apply_wavefront_avx2(&self, plan: StencilPlan, r: &[f64], z: &mut [f64]) {
        self.apply_wavefront(plan, r, z)
    }
}

/// A stencil-plan factor's bands (north, west, center, east, south), each
/// `n` long, and the line width that cuts them into lines.
#[derive(Clone, Copy)]
struct FactorLines<'a> {
    w: usize,
    band: [&'a [f64]; 5],
}

impl<'a> FactorLines<'a> {
    /// Line `j` of band `b`: the entry of row `(j, c)` is element `c`.
    #[inline(always)]
    fn line(self, b: usize, j: usize) -> &'a [f64] {
        &self.band[b][j * self.w..][..self.w]
    }
}

/// One forward wavefront block: lines `j0 .. j0+L`, lane `k` on line
/// `j0+k`, skewed so lane `k` sits one column behind lane `k-1`. At
/// wavefront step `t`, lane `k` updates column `t−k`; its west operand is
/// its own previous value (`carry[k]`) and its north operand is lane
/// `k−1`'s previous value (`carry[k−1]`, still unwritten at step `t`
/// because lanes run in descending `k`) — lane 0 reads the north line from
/// `z`, finalized by the previous block, except in the grid's first block
/// (`TOP`, `j0 == 0`), where lane 0 is line 0 and has no north term at all.
/// Per row: north subtract before west subtract (ascending columns),
/// exactly the scalar sweep's operation sequence.
#[inline(always)]
fn fwd_wave_block<const L: usize, const TOP: bool>(
    f: FactorLines<'_>,
    j0: usize,
    r: &[f64],
    z: &mut [f64],
) {
    let w = f.w;
    let (done, rest) = z.split_at_mut(j0 * w);
    let north = if TOP {
        &[][..]
    } else {
        &done[(j0 - 1) * w..][..w]
    };
    let mut z_lines = rest.chunks_exact_mut(w);
    let zl: [&mut [f64]; L] = std::array::from_fn(|_| z_lines.next().expect("block line"));
    let rl: [&[f64]; L] = std::array::from_fn(|k| &r[(j0 + k) * w..][..w]);
    let nl: [&[f64]; L] = std::array::from_fn(|k| f.line(0, j0 + k));
    let wl: [&[f64]; L] = std::array::from_fn(|k| f.line(1, j0 + k));
    let mut carry = [0.0f64; L];
    for t in 0..w + L - 1 {
        let mut k = L;
        while k > 0 {
            k -= 1;
            if t < k || t - k >= w {
                continue;
            }
            let c = t - k;
            let mut acc;
            if TOP && k == 0 {
                // Line 0: no north entry.
                acc = rl[k][c];
                if c > 0 {
                    acc -= wl[k][c] * carry[0];
                }
            } else {
                let zup = if k == 0 { north[c] } else { carry[k - 1] };
                acc = rl[k][c] - nl[k][c] * zup;
                if c > 0 {
                    acc -= wl[k][c] * carry[k];
                }
            }
            zl[k][c] = acc;
            carry[k] = acc;
        }
    }
}

/// One backward wavefront block: lines `jtop, jtop-1, …`, lane `k` on line
/// `jtop−k`, columns walked east-to-west. The east operand is the lane's
/// own previous value, the south operand is lane `k−1`'s (lane 0 reads the
/// finalized south line from `z`, except in the grid's first block
/// (`BOTTOM`, `jtop == h−1`), where lane 0 is line h-1 and has no south
/// term at all). Per row: east subtract before south subtract (ascending
/// columns), then the diagonal divide — the scalar sweep's exact sequence.
///
/// Each step runs in two phases: numerators and diagonals for every active
/// lane first (all carry reads see step `t-1` values), then packed divides
/// — inactive lanes divide padding by 1.0 and are discarded. IEEE division
/// is per-lane correctly rounded, so each quotient is bit-identical to its
/// scalar divide; batching quadruples divider throughput, which is what
/// the backward recurrence is bound on.
#[inline(always)]
fn bwd_wave_block<const L: usize, const BOTTOM: bool>(
    f: FactorLines<'_>,
    jtop: usize,
    z: &mut [f64],
) {
    let w = f.w;
    let (block, after) = z.split_at_mut((jtop + 1) * w);
    let south = if BOTTOM { &[][..] } else { &after[..w] };
    let mut z_lines = block[(jtop + 1 - L) * w..].chunks_exact_mut(w).rev();
    let zl: [&mut [f64]; L] = std::array::from_fn(|_| z_lines.next().expect("block line"));
    let dl: [&[f64]; L] = std::array::from_fn(|k| f.line(2, jtop - k));
    let el: [&[f64]; L] = std::array::from_fn(|k| f.line(3, jtop - k));
    let sl: [&[f64]; L] = std::array::from_fn(|k| f.line(4, jtop - k));
    let mut carry = [0.0f64; L];
    for t in 0..w + L - 1 {
        let mut acc = [0.0f64; L];
        let mut d = [1.0f64; L];
        for k in 0..L {
            if t < k || t - k >= w {
                continue;
            }
            let c = (w - 1) - (t - k);
            let mut a = zl[k][c];
            if BOTTOM && k == 0 {
                // Line h-1: no south entry; only the east term remains.
                if c + 1 < w {
                    a -= el[k][c] * carry[0];
                }
            } else {
                let zdown = if k == 0 { south[c] } else { carry[k - 1] };
                if c + 1 < w {
                    a -= el[k][c] * carry[k];
                }
                a -= sl[k][c] * zdown;
            }
            acc[k] = a;
            d[k] = dl[k][c];
        }
        let mut out = [0.0f64; L];
        if L.is_multiple_of(4) {
            for ((o, a), d) in out
                .as_chunks_mut::<4>()
                .0
                .iter_mut()
                .zip(acc.as_chunks::<4>().0)
                .zip(d.as_chunks::<4>().0)
            {
                *o = F64x4(*a).div(F64x4(*d)).0;
            }
        } else {
            for k in 0..L {
                out[k] = acc[k] / d[k];
            }
        }
        for k in 0..L {
            if t < k || t - k >= w {
                continue;
            }
            let c = (w - 1) - (t - k);
            zl[k][c] = out[k];
            carry[k] = out[k];
        }
    }
}

impl Preconditioner for Ilu0 {
    /// Sweeps bit-identical to [`Ilu0::apply_scalar`] on every backend. Two
    /// routes: stencil-plan factorizations take the skewed wavefront
    /// (`Ilu0::apply_wavefront`, dispatched on the SIMD backend),
    /// everything else `apply_scalar` — in both, per-row operation order is
    /// unchanged and only the scheduling across independent rows differs.
    ///
    /// Any detected stencil takes the wavefront: even at the minimum line
    /// width (w = 3) it breaks the serial west-neighbor chain across four
    /// lines, beating the chain-bound scalar sweep (measured on the level-8
    /// anisotropic family — see BENCH_solver.json).
    #[allow(unsafe_code)]
    fn apply(&self, r: &[f64], z: &mut [f64], work: &mut WorkCounter) {
        assert_eq!(r.len(), self.lu.n());
        assert_eq!(z.len(), self.lu.n());
        match self.plan {
            Some(plan) => match simd::backend() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `backend()` returns Avx2 only after detecting AVX2
                // on this CPU, the one precondition of the safe
                // `target_feature` twin.
                Backend::Avx2 => unsafe { self.apply_wavefront_avx2(plan, r, z) },
                _ => self.apply_wavefront(plan, r, z),
            },
            None => self.apply_scalar(r, z),
        }
        work.add_precond_apply(self.lu.nnz());
    }
}

/// Why a solve failed.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// Scalar breakdown (`rho` or `omega` vanished) before convergence.
    Breakdown {
        /// Iterations completed before the breakdown.
        iterations: usize,
    },
    /// Iteration limit reached.
    MaxIterations {
        /// Relative residual at the limit.
        residual: f64,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Breakdown { iterations } => {
                write!(f, "BiCGSTAB breakdown after {iterations} iterations")
            }
            SolveError::MaxIterations { residual } => {
                write!(f, "BiCGSTAB hit max iterations (residual {residual:.3e})")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Statistics of a successful solve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveStats {
    /// Iterations used.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Reusable scratch vectors for the Krylov solver ([`bicgstab_with`]).
/// Allocate one per integration (or per subsolve) and thread it through
/// every stage solve: after the first call at a given size, subsequent
/// solves perform zero heap allocations.
#[derive(Debug, Default)]
pub struct KrylovWorkspace {
    pub(crate) r: Vec<f64>,
    pub(crate) r_hat: Vec<f64>,
    pub(crate) v: Vec<f64>,
    pub(crate) p: Vec<f64>,
    pub(crate) p_hat: Vec<f64>,
    pub(crate) s: Vec<f64>,
    pub(crate) s_hat: Vec<f64>,
    pub(crate) t: Vec<f64>,
}

impl KrylovWorkspace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the BiCGSTAB vectors for problems of dimension `n`.
    pub(crate) fn ensure(&mut self, n: usize) {
        for buf in [
            &mut self.r,
            &mut self.r_hat,
            &mut self.v,
            &mut self.p,
            &mut self.p_hat,
            &mut self.s,
            &mut self.s_hat,
            &mut self.t,
        ] {
            buf.resize(n, 0.0);
        }
    }
}

/// Preconditioned BiCGSTAB from a zero initial guess: solve `A x = b` into
/// `x` (output only: overwritten with zeros on entry, the solution on
/// success), on caller-owned scratch: zero heap allocations once the
/// workspace has been sized (first call at dimension `n`). A fresh
/// workspace and a reused one give bit-identical results.
///
/// With `x = 0` the initial residual `r = b − A·0` is `b` bit for bit: a
/// finite `A` gives `+0.0` in every row of `A·0`, and `b − (+0.0) = b`. So
/// the solve skips that matvec and starts from `r = b`, and `‖b‖²` is also
/// `‖r‖²`. [`WorkCounter`] still charges the skipped matvec: the counters
/// count the nominal work of the reference algorithm
/// ([`crate::reference`]), which `bit_identity`, the DES golden files and
/// BENCH_solver's `counts_match` pin.
///
/// Every dot product and norm adds its products in strict sequential order
/// — bit-identical to `solver::reference`, whose iteration runs six of
/// these serial chains, each in a pass of its own. Here each one rides the
/// pass that writes its operand ([`crate::simd::Chain`]), so its adds
/// overlap that pass's work:
///
/// * `‖s‖²` — the `s = r − αv` update;
/// * `‖r‖²` and `(r̂, r)` — the `r = s − ωt` update, which also applies
///   `x += αp̂ + ωŝ`; `(r̂, r)` is the next iteration's `ρ`. Before the
///   first iteration one pass over `b` forms `‖b‖²`, which is also the
///   first `ρ` (`r̂ = r = b`);
/// * `(r̂, v)` — the matvec writing `v`;
/// * `(t, t)` and `(t, s)` — the matvec writing `t`.
#[allow(clippy::too_many_arguments)] // a solver signature
pub fn bicgstab_with(
    a: &Csr,
    precond: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iters: usize,
    ws: &mut KrylovWorkspace,
    work: &mut WorkCounter,
) -> Result<SolveStats, SolveError> {
    let n = a.n();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);

    ws.ensure(n);
    let KrylovWorkspace {
        r,
        r_hat,
        v,
        p,
        p_hat,
        s,
        s_hat,
        t,
        ..
    } = ws;

    x.fill(0.0);
    // r = b − A·0 = b; the matvec is charged, not run (see above).
    work.add_matvec(a.nnz());
    r.copy_from_slice(b);
    r_hat.copy_from_slice(b);
    let bb = simd::dot_exact(b, b);
    let bnorm = bb.sqrt().max(1e-300);
    let mut rho = 1.0_f64;
    let mut alpha = 1.0_f64;
    let mut omega = 1.0_f64;
    v.fill(0.0);
    p.fill(0.0);

    let mut rho_next = bb;
    let mut resid = bb.sqrt() / bnorm;
    if resid <= rel_tol {
        return Ok(SolveStats {
            iterations: 0,
            residual: resid,
        });
    }

    for it in 1..=max_iters {
        work.add_lin_iter();
        let rho_new = rho_next;
        if rho_new.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it - 1 });
        }
        let beta = (rho_new / rho) * (alpha / omega);
        simd::p_update(p, r, beta, omega, v);
        precond.apply(p, p_hat, work);
        let [rv] = a.matvec_dots(p_hat, v, (Dot(r_hat),));
        work.add_matvec(a.nnz());
        if rv.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        alpha = rho_new / rv;
        let [ss] = simd::s_update(s, r, alpha, v, (Square,));
        let s_resid = ss.sqrt() / bnorm;
        if s_resid <= rel_tol {
            simd::axpy(x, alpha, p_hat);
            work.add_vector_ops(n, 6);
            return Ok(SolveStats {
                iterations: it,
                residual: s_resid,
            });
        }
        precond.apply(s, s_hat, work);
        let [tt, ts] = a.matvec_dots(s_hat, t, (Square, Dot(s)));
        work.add_matvec(a.nnz());
        if tt.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        omega = ts / tt;
        if omega.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        let [rr, rhat_r] =
            simd::xr_update(x, alpha, p_hat, s_hat, r, s, omega, t, (Square, Dot(r_hat)));
        work.add_vector_ops(n, 10);
        resid = rr.sqrt() / bnorm;
        if resid <= rel_tol {
            return Ok(SolveStats {
                iterations: it,
                residual: resid,
            });
        }
        rho = rho_new;
        rho_next = rhat_r;
    }
    Err(SolveError::MaxIterations { residual: resid })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble;
    use crate::grid::Grid2;
    use crate::problem::Problem;
    use crate::sparse::tests::{poisoned_stencil_matrix, stencil_matrix, KERNEL_SHAPES};

    /// The trivial preconditioner (`M = I`).
    struct IdentityPrecond;

    impl Preconditioner for IdentityPrecond {
        fn apply(&self, r: &[f64], z: &mut [f64], _work: &mut WorkCounter) {
            z.copy_from_slice(r);
        }
    }

    fn laplacian_1d(n: usize) -> Csr {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Csr::from_triplets(n, &t)
    }

    #[test]
    fn wavefront_apply_matches_scalar_bitwise_on_manual_stencils() {
        // h drives the line-block partition: h-1 wavefront lines split into
        // blocks of four plus a 1/2/3-line remainder — every remainder size
        // and the multi-block case are covered, as are w = 2 (no interior
        // columns) and wide lines with chunk remainders.
        for (w, h) in [
            (2, 2),
            (3, 3),
            (2, 6),
            (5, 4),
            (4, 5),
            (6, 6),
            (9, 7),
            (3, 9),
            (17, 5),
        ] {
            let a = stencil_matrix(w, h);
            assert_eq!(a.stencil_plan().is_some(), w >= 3 && h >= 3, "{w}x{h}");
            let mut wk = WorkCounter::new();
            let ilu = Ilu0::new(&a, &mut wk);
            let n = w * h;
            let r: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.17).sin() * 3.0 - 0.4)
                .collect();
            let mut z = vec![0.0; n];
            let mut z_scalar = vec![0.0; n];
            ilu.apply(&r, &mut z, &mut wk);
            ilu.apply_scalar(&r, &mut z_scalar);
            assert_eq!(z, z_scalar, "{w}x{h}");
        }
    }

    #[test]
    fn portable_and_dispatched_wavefront_match_scalar_bitwise() {
        // The portable body runs here whatever the host; the dispatched
        // call runs the AVX2 twin on a host with AVX2.
        let (widths, heights) = KERNEL_SHAPES;
        for (w, h) in widths.into_iter().flat_map(|w| heights.map(|h| (w, h))) {
            let a = poisoned_stencil_matrix(w, h);
            let mut wk = WorkCounter::new();
            let ilu = Ilu0::new(&a, &mut wk);
            let plan = ilu.plan.expect("a stencil plan");
            let n = w * h;
            let r: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.17).sin() * 3.0 - 0.4)
                .collect();
            let mut want = vec![0.0; n];
            ilu.apply_scalar(&r, &mut want);
            let (mut portable, mut dispatched) = (vec![0.0; n], vec![0.0; n]);
            ilu.apply_wavefront(plan, &r, &mut portable);
            ilu.apply(&r, &mut dispatched, &mut wk);
            assert_eq!(portable, want, "{w}x{h}");
            assert_eq!(dispatched, want, "{w}x{h}");
        }
    }

    #[test]
    fn wavefront_apply_matches_scalar_bitwise_on_assembled_grids() {
        // The production path: assembled advection-diffusion stage matrices,
        // including the strongly anisotropic shapes. Non-stencil shapes (if
        // a grid degenerates below the plan's minimum) take `apply_scalar`
        // itself.
        let p = Problem::transport_benchmark();
        let mut planned = 0;
        for (lx, ly) in [(1, 1), (2, 2), (0, 4), (4, 0), (1, 3), (3, 1), (2, 3)] {
            let g = Grid2::new(2, lx, ly);
            let mut wk = WorkCounter::new();
            let d = assemble(&g, &p, &mut wk);
            let m = d.a.identity_minus_scaled(0.013);
            if m.stencil_plan().is_some() {
                planned += 1;
            }
            let ilu = Ilu0::new(&m, &mut wk);
            let r: Vec<f64> = (0..m.n()).map(|i| ((i % 23) as f64) * 0.11 - 1.0).collect();
            let mut z = vec![0.0; m.n()];
            let mut z_scalar = vec![0.0; m.n()];
            ilu.apply(&r, &mut z, &mut wk);
            ilu.apply_scalar(&r, &mut z_scalar);
            assert_eq!(z, z_scalar, "({lx},{ly})");
        }
        assert!(planned >= 4, "only {planned} grids had a stencil plan");
    }

    #[test]
    fn ilu0_of_triangular_matrix_is_exact() {
        // For a lower or upper triangular matrix, ILU(0) = exact LU, so the
        // preconditioner solves exactly.
        let a = Csr::from_triplets(
            3,
            &[
                (0, 0, 2.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (2, 1, -1.0),
                (2, 2, 4.0),
            ],
        );
        let mut w = WorkCounter::new();
        let ilu = Ilu0::new(&a, &mut w);
        let b = [2.0, 8.0, 3.0];
        let mut z = vec![0.0; 3];
        ilu.apply(&b, &mut z, &mut w);
        let az = a.matvec(&z);
        for (ai, bi) in az.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-12, "{az:?} vs {b:?}");
        }
    }

    #[test]
    fn ilu0_is_exact_for_tridiagonal() {
        // Tridiagonal matrices incur no fill, so ILU(0) == LU.
        let a = laplacian_1d(10);
        let mut w = WorkCounter::new();
        let ilu = Ilu0::new(&a, &mut w);
        let b: Vec<f64> = (0..10).map(|i| (i as f64).sin() + 1.0).collect();
        let mut z = vec![0.0; 10];
        ilu.apply(&b, &mut z, &mut w);
        let az = a.matvec(&z);
        for (ai, bi) in az.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn bicgstab_solves_identity_instantly() {
        let a = Csr::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut x = vec![0.0; 4];
        let mut w = WorkCounter::new();
        let stats = bicgstab_with(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            1e-12,
            10,
            &mut KrylovWorkspace::new(),
            &mut w,
        )
        .unwrap();
        assert!(stats.iterations <= 1);
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn bicgstab_solves_spd_system() {
        let a = laplacian_1d(50);
        let x_true: Vec<f64> = (0..50).map(|i| (0.3 * i as f64).cos()).collect();
        let b = a.matvec(&x_true);
        let mut x = vec![0.0; 50];
        let mut w = WorkCounter::new();
        let stats = bicgstab_with(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            1e-10,
            500,
            &mut KrylovWorkspace::new(),
            &mut w,
        )
        .unwrap();
        assert!(stats.residual <= 1e-10);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-6);
        }
    }

    #[test]
    fn ilu_precondition_cuts_iterations() {
        // 2D advection-diffusion operator: nonsymmetric, modest size.
        let p = Problem::transport_benchmark();
        let g = Grid2::new(2, 2, 2); // 16x16 → 225 unknowns
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let m = d.a.identity_minus_scaled(0.01);
        let x_true: Vec<f64> = (0..m.n()).map(|i| ((i % 17) as f64) / 17.0).collect();
        let b = m.matvec(&x_true);

        let mut x1 = vec![0.0; m.n()];
        let plain = bicgstab_with(
            &m,
            &IdentityPrecond,
            &b,
            &mut x1,
            1e-10,
            2000,
            &mut KrylovWorkspace::new(),
            &mut w,
        )
        .unwrap();

        let ilu = Ilu0::new(&m, &mut w);
        let mut x2 = vec![0.0; m.n()];
        let pre = bicgstab_with(
            &m,
            &ilu,
            &b,
            &mut x2,
            1e-10,
            2000,
            &mut KrylovWorkspace::new(),
            &mut w,
        )
        .unwrap();

        assert!(
            pre.iterations < plain.iterations,
            "ILU ({}) should beat plain ({})",
            pre.iterations,
            plain.iterations
        );
        for (xi, ti) in x2.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-6);
        }
    }

    #[test]
    fn refactor_matches_fresh_factorization() {
        // Refactoring in place from a same-pattern matrix must produce the
        // same factors (bitwise) as a fresh Ilu0::new.
        let p = Problem::transport_benchmark();
        let g = Grid2::new(2, 1, 2);
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let m1 = d.a.identity_minus_scaled(0.01);
        let m2 = d.a.identity_minus_scaled(0.037);

        let mut reused = Ilu0::new(&m1, &mut w);
        reused.refactor(&m2, &mut w);
        let fresh = Ilu0::new(&m2, &mut w);

        let r: Vec<f64> = (0..m2.n()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut z1 = vec![0.0; m2.n()];
        let mut z2 = vec![0.0; m2.n()];
        reused.apply(&r, &mut z1, &mut w);
        fresh.apply(&r, &mut z2, &mut w);
        assert_eq!(z1, z2, "refactor must be bit-identical to new");
        assert_eq!(w.refactorizations, 1);
    }

    #[test]
    fn reused_workspace_matches_a_fresh_one() {
        let p = Problem::transport_benchmark();
        let g = Grid2::new(2, 2, 1);
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let m = d.a.identity_minus_scaled(0.02);
        let ilu = Ilu0::new(&m, &mut w);
        let b: Vec<f64> = (0..m.n()).map(|i| ((i % 11) as f64) / 11.0).collect();

        let mut x1 = vec![0.0; m.n()];
        let s1 = bicgstab_with(
            &m,
            &ilu,
            &b,
            &mut x1,
            1e-10,
            500,
            &mut KrylovWorkspace::new(),
            &mut w,
        )
        .unwrap();
        let mut ws = KrylovWorkspace::new();
        let mut x2 = vec![0.0; m.n()];
        // Two calls on the same workspace: the second must not be polluted
        // by the first.
        bicgstab_with(&m, &ilu, &b, &mut x2, 1e-10, 500, &mut ws, &mut w).unwrap();
        let mut x3 = vec![0.0; m.n()];
        let s3 = bicgstab_with(&m, &ilu, &b, &mut x3, 1e-10, 500, &mut ws, &mut w).unwrap();
        assert_eq!(x1, x2);
        assert_eq!(x1, x3);
        assert_eq!(s1.iterations, s3.iterations);
    }

    #[test]
    fn max_iterations_error() {
        let a = laplacian_1d(100);
        let b = vec![1.0; 100];
        let mut x = vec![0.0; 100];
        let mut w = WorkCounter::new();
        let err = bicgstab_with(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            1e-14,
            2,
            &mut KrylovWorkspace::new(),
            &mut w,
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::MaxIterations { .. }));
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian_1d(10);
        let b = vec![0.0; 10];
        let mut x = vec![0.0; 10];
        let mut w = WorkCounter::new();
        let stats = bicgstab_with(
            &a,
            &IdentityPrecond,
            &b,
            &mut x,
            1e-10,
            10,
            &mut KrylovWorkspace::new(),
            &mut w,
        )
        .unwrap();
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn rosenbrock_matrix_is_well_conditioned_for_small_dt() {
        // I - γ dt A with small dt should need very few iterations.
        let p = Problem::transport_benchmark();
        let g = Grid2::new(2, 1, 1);
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let m = d.a.identity_minus_scaled(1e-4);
        let ilu = Ilu0::new(&m, &mut w);
        let b = vec![1.0; m.n()];
        let mut x = vec![0.0; m.n()];
        let stats = bicgstab_with(
            &m,
            &ilu,
            &b,
            &mut x,
            1e-10,
            100,
            &mut KrylovWorkspace::new(),
            &mut w,
        )
        .unwrap();
        assert!(stats.iterations <= 5, "took {}", stats.iterations);
    }
}
