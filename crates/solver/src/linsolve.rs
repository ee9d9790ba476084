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

use crate::simd::{self, Backend, F64x4, Tier, LANES};
use crate::sparse::{Csr, MultiVec, StencilPlan};
use crate::work::WorkCounter;

/// A left preconditioner `M ≈ A`: given `r`, produce `z ≈ A⁻¹ r`.
pub trait Preconditioner {
    /// Apply `z = M⁻¹ r`.
    fn apply(&self, r: &[f64], z: &mut [f64], work: &mut WorkCounter);
}

/// The trivial preconditioner (`M = I`).
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64], _work: &mut WorkCounter) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner.
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Build from the matrix diagonal (zero entries are treated as 1).
    pub fn new(a: &Csr) -> Self {
        JacobiPrecond {
            inv_diag: a
                .diag()
                .iter()
                .map(|&d| if d.abs() < 1e-300 { 1.0 } else { 1.0 / d })
                .collect(),
        }
    }
}

impl Preconditioner for JacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64], work: &mut WorkCounter) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
        work.add_vector_ops(r.len(), 1);
    }
}

/// Incomplete LU factorization with zero fill-in, on the sparsity pattern
/// of the input matrix.
pub struct Ilu0 {
    /// Combined LU factors (unit lower L below the diagonal, U on and above).
    lu: Csr,
    /// Position of the diagonal entry within each row's value slice.
    diag_pos: Vec<usize>,
    /// Rows grouped by forward-solve dependency level (see
    /// [`level_schedule`]); `fwd_level_ptr` delimits the groups.
    fwd_order: Vec<u32>,
    fwd_level_ptr: Vec<u32>,
    /// Same for the backward solve.
    bwd_order: Vec<u32>,
    bwd_level_ptr: Vec<u32>,
    /// The [`StencilPlan`] of the pattern, when it conforms — enables the
    /// skewed-wavefront sweeps (ILU(0) preserves the pattern, so the plan
    /// of `A` is the plan of the combined LU factor).
    plan: Option<StencilPlan>,
}

/// Level schedule for a sparse triangular solve: `level[i]` is the longest
/// dependency chain ending at row `i`, so rows sharing a level are mutually
/// independent and the out-of-order core can overlap their long-latency
/// multiply/subtract(/divide) chains instead of serializing on the
/// row-to-row recurrence. The sweep still computes every row with exactly
/// the same operations in the same order — only the *scheduling* across
/// independent rows changes, so results are bitwise identical to the
/// natural-order sweep. The schedule depends only on the sparsity pattern
/// and is reused verbatim by [`Ilu0::refactor`].
///
/// For `forward = true` a row's dependencies are its strict lower part
/// (columns before the diagonal) and rows are walked ascending; for the
/// backward sweep they are the strict upper part, walked descending. The
/// group ordering follows the walk, which keeps memory access roughly
/// sequential within each level.
fn level_schedule(
    forward: bool,
    row_ptr: &[usize],
    col_idx: &[usize],
    diag_pos: &[usize],
) -> (Vec<u32>, Vec<u32>) {
    let n = row_ptr.len() - 1;
    let mut level = vec![0u32; n];
    let mut nlevels = 0u32;
    let rows: Box<dyn Iterator<Item = usize>> = if forward {
        Box::new(0..n)
    } else {
        Box::new((0..n).rev())
    };
    for i in rows {
        let dp = row_ptr[i] + diag_pos[i];
        let deps = if forward {
            &col_idx[row_ptr[i]..dp]
        } else {
            &col_idx[dp + 1..row_ptr[i + 1]]
        };
        let mut lv = 0u32;
        for &c in deps {
            lv = lv.max(level[c] + 1);
        }
        level[i] = lv;
        nlevels = nlevels.max(lv + 1);
    }
    let mut level_ptr = vec![0u32; nlevels as usize + 1];
    for &lv in &level {
        level_ptr[lv as usize + 1] += 1;
    }
    for l in 1..level_ptr.len() {
        level_ptr[l] += level_ptr[l - 1];
    }
    let mut cursor: Vec<u32> = level_ptr[..level_ptr.len() - 1].to_vec();
    let mut order = vec![0u32; n];
    let fill: Box<dyn Iterator<Item = usize>> = if forward {
        Box::new(0..n)
    } else {
        Box::new((0..n).rev())
    };
    for i in fill {
        let lv = level[i] as usize;
        order[cursor[lv] as usize] = i as u32;
        cursor[lv] += 1;
    }
    (order, level_ptr)
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
        let (fwd_order, fwd_level_ptr) =
            level_schedule(true, lu.row_ptr(), lu.col_indices(), &diag_pos);
        let (bwd_order, bwd_level_ptr) =
            level_schedule(false, lu.row_ptr(), lu.col_indices(), &diag_pos);
        {
            let (row_ptr, col_idx, vals) = lu.raw_parts_mut();
            factor_in_place(row_ptr, col_idx, vals, &diag_pos);
        }
        work.add_factorization(lu.nnz());
        let plan = a.stencil_plan();
        Ilu0 {
            lu,
            diag_pos,
            fwd_order,
            fwd_level_ptr,
            bwd_order,
            bwd_level_ptr,
            plan,
        }
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
        self.lu.vals_mut().copy_from_slice(a.vals());
        let (row_ptr, col_idx, vals) = self.lu.raw_parts_mut();
        factor_in_place(row_ptr, col_idx, vals, &self.diag_pos);
        work.add_refactorization(self.lu.nnz());
    }
}

impl Ilu0 {
    /// Level-scheduled sweeps with the plain scalar inner loops — the
    /// differential-test oracle for the lane-blocked [`Preconditioner::apply`]
    /// and the `force-scalar` code path. Performs no work accounting.
    pub fn apply_scalar(&self, r: &[f64], z: &mut [f64]) {
        let n = self.lu.n();
        assert_eq!(r.len(), n);
        assert_eq!(z.len(), n);
        let row_ptr = self.lu.row_ptr();
        let cols = self.lu.col_indices();
        let vals = self.lu.vals();
        let diag_pos = &self.diag_pos;
        debug_assert_eq!(diag_pos.len(), n);
        // SAFETY: the Csr invariants bound `row_ptr` by `cols.len()` /
        // `vals.len()` and every stored column by `n`; `diag_pos[i]` is the
        // verified in-row position of the diagonal (checked in `new`, pattern
        // unchanged by `refactor`), so `lo + diag_pos[i] < row_ptr[i + 1]`.
        // Entries before the diagonal are exactly the columns `< i`
        // (sorted rows), giving the branch-free strict-L / strict-U splits.
        // The level schedule (built in `new`) is a permutation of `0..n`, so
        // every `order` entry indexes in bounds, and it groups mutually
        // independent rows: each row still runs exactly the operations of
        // the natural-order sweep, in the same order, reading only rows from
        // earlier levels — results are bitwise identical, but the CPU can
        // overlap the multiply/subtract(/divide) latency chains of the rows
        // inside a level instead of serializing on the row recurrence.
        unsafe {
            // Forward solve L y = r (unit diagonal), y stored in z.
            for w in self.fwd_level_ptr.windows(2) {
                for idx in w[0]..w[1] {
                    let i = *self.fwd_order.get_unchecked(idx as usize) as usize;
                    let lo = *row_ptr.get_unchecked(i);
                    let dp = lo + *diag_pos.get_unchecked(i);
                    let mut acc = *r.get_unchecked(i);
                    for k in lo..dp {
                        acc -= *vals.get_unchecked(k) * *z.get_unchecked(*cols.get_unchecked(k));
                    }
                    *z.get_unchecked_mut(i) = acc;
                }
            }
            // Backward solve U z = y.
            for w in self.bwd_level_ptr.windows(2) {
                for idx in w[0]..w[1] {
                    let i = *self.bwd_order.get_unchecked(idx as usize) as usize;
                    let lo = *row_ptr.get_unchecked(i);
                    let hi = *row_ptr.get_unchecked(i + 1);
                    let dp = lo + *diag_pos.get_unchecked(i);
                    let mut acc = *z.get_unchecked(i);
                    for k in dp + 1..hi {
                        acc -= *vals.get_unchecked(k) * *z.get_unchecked(*cols.get_unchecked(k));
                    }
                    *z.get_unchecked_mut(i) = acc / *vals.get_unchecked(dp);
                }
            }
        }
    }

    /// Lane-blocked level-scheduled sweeps: rows inside a level are mutually
    /// independent, so blocks of four equal-dependency-count rows run one
    /// row per lane. Each row still evaluates exactly the scalar per-row
    /// expression, so the result is bit-identical to [`Ilu0::apply_scalar`].
    ///
    /// # Safety
    /// Relies on the same invariants as `apply_scalar` (see the safety
    /// comment there); additionally, rows within one level never read each
    /// other's `z`, so the four lanes of a block are data-independent.
    #[inline(always)]
    unsafe fn apply_lanes(&self, r: &[f64], z: &mut [f64]) {
        let row_ptr = self.lu.row_ptr();
        let cols = self.lu.col_indices();
        let vals = self.lu.vals();
        let diag_pos = &self.diag_pos;

        // Forward solve L y = r (unit diagonal), y stored in z.
        for w in self.fwd_level_ptr.windows(2) {
            let (mut idx, hi) = (w[0] as usize, w[1] as usize);
            while idx + LANES <= hi {
                let i0 = *self.fwd_order.get_unchecked(idx) as usize;
                let i1 = *self.fwd_order.get_unchecked(idx + 1) as usize;
                let i2 = *self.fwd_order.get_unchecked(idx + 2) as usize;
                let i3 = *self.fwd_order.get_unchecked(idx + 3) as usize;
                let lo0 = *row_ptr.get_unchecked(i0);
                let lo1 = *row_ptr.get_unchecked(i1);
                let lo2 = *row_ptr.get_unchecked(i2);
                let lo3 = *row_ptr.get_unchecked(i3);
                let len = *diag_pos.get_unchecked(i0);
                if *diag_pos.get_unchecked(i1) == len
                    && *diag_pos.get_unchecked(i2) == len
                    && *diag_pos.get_unchecked(i3) == len
                {
                    let mut acc = F64x4([
                        *r.get_unchecked(i0),
                        *r.get_unchecked(i1),
                        *r.get_unchecked(i2),
                        *r.get_unchecked(i3),
                    ]);
                    for p in 0..len {
                        let a = F64x4([
                            *vals.get_unchecked(lo0 + p),
                            *vals.get_unchecked(lo1 + p),
                            *vals.get_unchecked(lo2 + p),
                            *vals.get_unchecked(lo3 + p),
                        ]);
                        let zz = F64x4([
                            *z.get_unchecked(*cols.get_unchecked(lo0 + p)),
                            *z.get_unchecked(*cols.get_unchecked(lo1 + p)),
                            *z.get_unchecked(*cols.get_unchecked(lo2 + p)),
                            *z.get_unchecked(*cols.get_unchecked(lo3 + p)),
                        ]);
                        acc = acc.sub(a.mul(zz));
                    }
                    *z.get_unchecked_mut(i0) = acc.0[0];
                    *z.get_unchecked_mut(i1) = acc.0[1];
                    *z.get_unchecked_mut(i2) = acc.0[2];
                    *z.get_unchecked_mut(i3) = acc.0[3];
                    idx += LANES;
                    continue;
                }
                for q in idx..idx + LANES {
                    self.fwd_row_scalar(q, r, z, row_ptr, cols, vals);
                }
                idx += LANES;
            }
            while idx < hi {
                self.fwd_row_scalar(idx, r, z, row_ptr, cols, vals);
                idx += 1;
            }
        }
        // Backward solve U z = y.
        for w in self.bwd_level_ptr.windows(2) {
            let (mut idx, hi) = (w[0] as usize, w[1] as usize);
            while idx + LANES <= hi {
                let i0 = *self.bwd_order.get_unchecked(idx) as usize;
                let i1 = *self.bwd_order.get_unchecked(idx + 1) as usize;
                let i2 = *self.bwd_order.get_unchecked(idx + 2) as usize;
                let i3 = *self.bwd_order.get_unchecked(idx + 3) as usize;
                let dp0 = *row_ptr.get_unchecked(i0) + *diag_pos.get_unchecked(i0);
                let dp1 = *row_ptr.get_unchecked(i1) + *diag_pos.get_unchecked(i1);
                let dp2 = *row_ptr.get_unchecked(i2) + *diag_pos.get_unchecked(i2);
                let dp3 = *row_ptr.get_unchecked(i3) + *diag_pos.get_unchecked(i3);
                let len = *row_ptr.get_unchecked(i0 + 1) - dp0 - 1;
                if *row_ptr.get_unchecked(i1 + 1) - dp1 - 1 == len
                    && *row_ptr.get_unchecked(i2 + 1) - dp2 - 1 == len
                    && *row_ptr.get_unchecked(i3 + 1) - dp3 - 1 == len
                {
                    let mut acc = F64x4([
                        *z.get_unchecked(i0),
                        *z.get_unchecked(i1),
                        *z.get_unchecked(i2),
                        *z.get_unchecked(i3),
                    ]);
                    for p in 1..=len {
                        let a = F64x4([
                            *vals.get_unchecked(dp0 + p),
                            *vals.get_unchecked(dp1 + p),
                            *vals.get_unchecked(dp2 + p),
                            *vals.get_unchecked(dp3 + p),
                        ]);
                        let zz = F64x4([
                            *z.get_unchecked(*cols.get_unchecked(dp0 + p)),
                            *z.get_unchecked(*cols.get_unchecked(dp1 + p)),
                            *z.get_unchecked(*cols.get_unchecked(dp2 + p)),
                            *z.get_unchecked(*cols.get_unchecked(dp3 + p)),
                        ]);
                        acc = acc.sub(a.mul(zz));
                    }
                    let d = F64x4([
                        *vals.get_unchecked(dp0),
                        *vals.get_unchecked(dp1),
                        *vals.get_unchecked(dp2),
                        *vals.get_unchecked(dp3),
                    ]);
                    let out = acc.div(d);
                    *z.get_unchecked_mut(i0) = out.0[0];
                    *z.get_unchecked_mut(i1) = out.0[1];
                    *z.get_unchecked_mut(i2) = out.0[2];
                    *z.get_unchecked_mut(i3) = out.0[3];
                    idx += LANES;
                    continue;
                }
                for q in idx..idx + LANES {
                    self.bwd_row_scalar(q, z, row_ptr, cols, vals);
                }
                idx += LANES;
            }
            while idx < hi {
                self.bwd_row_scalar(idx, z, row_ptr, cols, vals);
                idx += 1;
            }
        }
    }

    /// One forward-sweep row (scalar), addressed by schedule position.
    ///
    /// # Safety
    /// Same invariants as [`Ilu0::apply_lanes`]; `q` must be a valid index
    /// into `fwd_order`.
    #[inline(always)]
    unsafe fn fwd_row_scalar(
        &self,
        q: usize,
        r: &[f64],
        z: &mut [f64],
        row_ptr: &[usize],
        cols: &[usize],
        vals: &[f64],
    ) {
        let i = *self.fwd_order.get_unchecked(q) as usize;
        let lo = *row_ptr.get_unchecked(i);
        let dp = lo + *self.diag_pos.get_unchecked(i);
        let mut acc = *r.get_unchecked(i);
        for k in lo..dp {
            acc -= *vals.get_unchecked(k) * *z.get_unchecked(*cols.get_unchecked(k));
        }
        *z.get_unchecked_mut(i) = acc;
    }

    /// One backward-sweep row (scalar), addressed by schedule position.
    ///
    /// # Safety
    /// Same invariants as [`Ilu0::apply_lanes`]; `q` must be a valid index
    /// into `bwd_order`.
    #[inline(always)]
    unsafe fn bwd_row_scalar(
        &self,
        q: usize,
        z: &mut [f64],
        row_ptr: &[usize],
        cols: &[usize],
        vals: &[f64],
    ) {
        let i = *self.bwd_order.get_unchecked(q) as usize;
        let lo = *row_ptr.get_unchecked(i);
        let hi = *row_ptr.get_unchecked(i + 1);
        let dp = lo + *self.diag_pos.get_unchecked(i);
        let mut acc = *z.get_unchecked(i);
        for k in dp + 1..hi {
            acc -= *vals.get_unchecked(k) * *z.get_unchecked(*cols.get_unchecked(k));
        }
        *z.get_unchecked_mut(i) = acc / *vals.get_unchecked(dp);
    }

    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_lanes_avx2(&self, r: &[f64], z: &mut [f64]) {
        self.apply_lanes(r, z)
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
    /// Row order is a valid topological order of the triangular
    /// dependencies and every row evaluates the exact scalar per-row
    /// expression (ascending-column subtract order, final divide), so the
    /// result is bitwise identical to [`Ilu0::apply_scalar`] — same
    /// argument as the level-scheduled sweeps (see [`level_schedule`]).
    ///
    /// # Safety
    /// `plan` must be the verified [`StencilPlan`] of `self.lu`'s pattern;
    /// `r.len() == z.len() == w·h`.
    #[inline(always)]
    unsafe fn apply_wavefront(&self, plan: StencilPlan, r: &[f64], z: &mut [f64]) {
        let StencilPlan { w, h } = plan;
        let row_ptr = self.lu.row_ptr();
        let vals = self.lu.vals();
        // Forward solve L y = r (unit diagonal), y stored in z.
        // Line 0 rides as lane 0 of the first block (`TOP`: no north term),
        // so there is no serial boundary pass — every row is wavefronted.
        // Grids shorter than a full block (h = 3: the thinnest detectable
        // plan) run as one under-laned TOP block.
        let mut j0 = h.min(4);
        match j0 {
            3 => fwd_wave_block::<3, true>(0, w, row_ptr, vals, r, z),
            _ => fwd_wave_block::<4, true>(0, w, row_ptr, vals, r, z),
        }
        while j0 + 4 <= h {
            fwd_wave_block::<4, false>(j0, w, row_ptr, vals, r, z);
            j0 += 4;
        }
        match h - j0 {
            1 => fwd_wave_block::<1, false>(j0, w, row_ptr, vals, r, z),
            2 => fwd_wave_block::<2, false>(j0, w, row_ptr, vals, r, z),
            3 => fwd_wave_block::<3, false>(j0, w, row_ptr, vals, r, z),
            _ => {}
        }
        // Backward solve U z = y. Line h-1 rides as lane 0 of the first
        // block (`BOTTOM`: no south term), mirroring the forward solve.
        match h.min(4) {
            3 => bwd_wave_block::<3, true>(h - 1, w, row_ptr, vals, z),
            _ => bwd_wave_block::<4, true>(h - 1, w, row_ptr, vals, z),
        }
        let mut rem = h - h.min(4);
        while rem >= 4 {
            bwd_wave_block::<4, false>(rem - 1, w, row_ptr, vals, z);
            rem -= 4;
        }
        match rem {
            1 => bwd_wave_block::<1, false>(rem - 1, w, row_ptr, vals, z),
            2 => bwd_wave_block::<2, false>(rem - 1, w, row_ptr, vals, z),
            3 => bwd_wave_block::<3, false>(rem - 1, w, row_ptr, vals, z),
            _ => {}
        }
    }

    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_wavefront_avx2(&self, plan: StencilPlan, r: &[f64], z: &mut [f64]) {
        self.apply_wavefront(plan, r, z)
    }

    /// Apply the factorization to `k` right-hand sides in SoA layout, lanes
    /// across members. Sweeps run in natural row order — any topological
    /// order gives bitwise-identical results (each row's arithmetic is
    /// unchanged; dependencies are honored) — and every stored entry is
    /// broadcast against the k contiguous member values, so the batched
    /// sweep vectorizes without the gather traffic of the single-RHS lane
    /// kernel. Bit-identical per member to [`Ilu0::apply_scalar`]. No work
    /// accounting: the batched solver charges per active member.
    pub fn apply_multi(&self, r: &MultiVec, z: &mut MultiVec) {
        let n = self.lu.n();
        assert_eq!(r.n(), n);
        assert_eq!(z.n(), n);
        assert_eq!(r.k(), z.k());
        let k = r.k();
        // SAFETY: Csr invariants as in `apply_scalar`; member blocks stay
        // within buffers of length `n * k`.
        match simd::backend() {
            #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
            Backend::Avx2 => unsafe {
                self.apply_multi_lanes_avx2(k, r.as_slice(), z.as_mut_slice())
            },
            Backend::Scalar => {
                let rs = r.as_slice();
                let zs = z.as_mut_slice();
                let row_ptr = self.lu.row_ptr();
                let cols = self.lu.col_indices();
                let vals = self.lu.vals();
                for j in 0..k {
                    for i in 0..n {
                        let lo = row_ptr[i];
                        let dp = lo + self.diag_pos[i];
                        let mut acc = rs[i * k + j];
                        for p in lo..dp {
                            acc -= vals[p] * zs[cols[p] * k + j];
                        }
                        zs[i * k + j] = acc;
                    }
                    for i in (0..n).rev() {
                        let lo = row_ptr[i];
                        let hi = row_ptr[i + 1];
                        let dp = lo + self.diag_pos[i];
                        let mut acc = zs[i * k + j];
                        for p in dp + 1..hi {
                            acc -= vals[p] * zs[cols[p] * k + j];
                        }
                        zs[i * k + j] = acc / vals[dp];
                    }
                }
            }
            _ => unsafe { self.apply_multi_lanes(k, r.as_slice(), z.as_mut_slice()) },
        }
    }

    /// SoA sweep body for [`Ilu0::apply_multi`].
    ///
    /// # Safety
    /// Csr invariants as in `apply_scalar`; `r.len() == z.len() == n * k`.
    #[inline(always)]
    unsafe fn apply_multi_lanes(&self, k: usize, r: &[f64], z: &mut [f64]) {
        let n = self.lu.n();
        let row_ptr = self.lu.row_ptr();
        let cols = self.lu.col_indices();
        let vals = self.lu.vals();
        // Forward solve L y = r (unit diagonal), y stored in z.
        for i in 0..n {
            let lo = *row_ptr.get_unchecked(i);
            let dp = lo + *self.diag_pos.get_unchecked(i);
            let mut jb = 0;
            while jb + LANES <= k {
                let mut acc = F64x4::load(r, i * k + jb);
                for p in lo..dp {
                    let a = F64x4::splat(*vals.get_unchecked(p));
                    let zz = F64x4::load(z, *cols.get_unchecked(p) * k + jb);
                    acc = acc.sub(a.mul(zz));
                }
                acc.store(z, i * k + jb);
                jb += LANES;
            }
            while jb < k {
                let mut acc = *r.get_unchecked(i * k + jb);
                for p in lo..dp {
                    acc -=
                        *vals.get_unchecked(p) * *z.get_unchecked(*cols.get_unchecked(p) * k + jb);
                }
                *z.get_unchecked_mut(i * k + jb) = acc;
                jb += 1;
            }
        }
        // Backward solve U z = y.
        for i in (0..n).rev() {
            let lo = *row_ptr.get_unchecked(i);
            let hi = *row_ptr.get_unchecked(i + 1);
            let dp = lo + *self.diag_pos.get_unchecked(i);
            let d = *vals.get_unchecked(dp);
            let mut jb = 0;
            while jb + LANES <= k {
                let mut acc = F64x4::load(z, i * k + jb);
                for p in dp + 1..hi {
                    let a = F64x4::splat(*vals.get_unchecked(p));
                    let zz = F64x4::load(z, *cols.get_unchecked(p) * k + jb);
                    acc = acc.sub(a.mul(zz));
                }
                acc.div(F64x4::splat(d)).store(z, i * k + jb);
                jb += LANES;
            }
            while jb < k {
                let mut acc = *z.get_unchecked(i * k + jb);
                for p in dp + 1..hi {
                    acc -=
                        *vals.get_unchecked(p) * *z.get_unchecked(*cols.get_unchecked(p) * k + jb);
                }
                *z.get_unchecked_mut(i * k + jb) = acc / d;
                jb += 1;
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_multi_lanes_avx2(&self, k: usize, r: &[f64], z: &mut [f64]) {
        self.apply_multi_lanes(k, r, z)
    }
}

/// One forward wavefront block: lines `j0 .. j0+L`, lane `k` on line
/// `j0+k`, skewed so lane `k` sits one column behind lane `k-1`. At
/// wavefront step `t`, lane `k` updates column `t−k`; its west operand is
/// its own previous value (`carry[k]`) and its north operand is lane
/// `k−1`'s previous value (`carry[k−1]`, still unwritten at step `t`
/// because lanes run in descending `k`) — lane 0 reads the north line from
/// `z`, finalized by the previous block, except in the grid's first block
/// (`TOP`), where lane 0 is line 0 and has no north term at all. Per row:
/// north subtract before west subtract (ascending columns), exactly the
/// scalar sweep's operation sequence.
///
/// # Safety
/// The stencil plan must hold for lines `j0 ..= j0+L-1` (and `j0-1` when
/// not `TOP`) of the pattern behind `row_ptr`/`vals` (callers pass a
/// verified [`StencilPlan`]); `r.len() == z.len() == w·h` with
/// `j0+L <= h`; `TOP` iff `j0 == 0`.
#[inline(always)]
unsafe fn fwd_wave_block<const L: usize, const TOP: bool>(
    j0: usize,
    w: usize,
    row_ptr: &[usize],
    vals: &[f64],
    r: &[f64],
    z: &mut [f64],
) {
    let mut carry = [0.0f64; L];
    for t in 0..w + L - 1 {
        let mut k = L;
        while k > 0 {
            k -= 1;
            if t < k || t - k >= w {
                continue;
            }
            let c = t - k;
            let i = (j0 + k) * w + c;
            let base = *row_ptr.get_unchecked(i);
            let mut acc;
            if TOP && k == 0 {
                // Line 0: no north entry, so the west value (when present)
                // sits first in the row.
                acc = *r.get_unchecked(i);
                if c > 0 {
                    acc -= *vals.get_unchecked(base) * carry[0];
                }
            } else {
                let zup = if k == 0 {
                    *z.get_unchecked(i - w)
                } else {
                    carry[k - 1]
                };
                acc = *r.get_unchecked(i) - *vals.get_unchecked(base) * zup;
                if c > 0 {
                    acc -= *vals.get_unchecked(base + 1) * carry[k];
                }
            }
            *z.get_unchecked_mut(i) = acc;
            carry[k] = acc;
        }
    }
}

/// One backward wavefront block: lines `jtop, jtop-1, …`, lane `k` on line
/// `jtop−k`, columns walked east-to-west. The east operand is the lane's
/// own previous value, the south operand is lane `k−1`'s (lane 0 reads the
/// finalized south line from `z`, except in the grid's first block
/// (`BOTTOM`), where lane 0 is line h-1 and has no south term at all). Per
/// row: east subtract before south subtract (ascending columns), then the
/// diagonal divide — the scalar sweep's exact sequence.
///
/// Each step runs in two phases: numerators and diagonals for every active
/// lane first (all carry reads see step `t-1` values), then packed divides
/// — inactive lanes divide padding by 1.0 and are discarded. IEEE division
/// is per-lane correctly rounded, so each quotient is bit-identical to its
/// scalar divide; batching quadruples divider throughput, which is what
/// the backward recurrence is bound on.
///
/// # Safety
/// As [`fwd_wave_block`], for lines `jtop-L+1 ..= jtop` (and `jtop+1` when
/// not `BOTTOM`) with `L-1 <= jtop <= h-1`; `BOTTOM` iff `jtop == h-1`.
#[inline(always)]
unsafe fn bwd_wave_block<const L: usize, const BOTTOM: bool>(
    jtop: usize,
    w: usize,
    row_ptr: &[usize],
    vals: &[f64],
    z: &mut [f64],
) {
    let mut carry = [0.0f64; L];
    for t in 0..w + L - 1 {
        let mut acc = [0.0f64; L];
        let mut d = [1.0f64; L];
        for k in 0..L {
            if t < k || t - k >= w {
                continue;
            }
            let c = (w - 1) - (t - k);
            let i = (jtop - k) * w + c;
            let base = *row_ptr.get_unchecked(i);
            let dp = base + usize::from(jtop - k > 0) + usize::from(c > 0);
            let mut a = *z.get_unchecked(i);
            if BOTTOM && k == 0 {
                // Line h-1: no south entry; only the east term remains.
                if c + 1 < w {
                    a -= *vals.get_unchecked(dp + 1) * carry[0];
                }
            } else {
                let zdown = if k == 0 {
                    *z.get_unchecked(i + w)
                } else {
                    carry[k - 1]
                };
                let up_pos = if c + 1 < w {
                    a -= *vals.get_unchecked(dp + 1) * carry[k];
                    dp + 2
                } else {
                    dp + 1
                };
                a -= *vals.get_unchecked(up_pos) * zdown;
            }
            acc[k] = a;
            d[k] = *vals.get_unchecked(dp);
        }
        let mut out = [0.0f64; L];
        if L.is_multiple_of(4) {
            let mut b = 0;
            while b < L {
                let num = F64x4([acc[b], acc[b + 1], acc[b + 2], acc[b + 3]]);
                let den = F64x4([d[b], d[b + 1], d[b + 2], d[b + 3]]);
                out[b..b + 4].copy_from_slice(&num.div(den).0);
                b += 4;
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
            let i = (jtop - k) * w + (w - 1) - (t - k);
            *z.get_unchecked_mut(i) = out[k];
            carry[k] = out[k];
        }
    }
}

impl Preconditioner for Ilu0 {
    /// Backend-dispatched sweeps, bit-identical to [`Ilu0::apply_scalar`]
    /// on every backend: stencil-plan factorizations take the skewed
    /// wavefront ([`Ilu0::apply_wavefront`]), everything else the
    /// lane-blocked level schedule — in both, per-row operation order is
    /// unchanged and only the scheduling across independent rows differs.
    fn apply(&self, r: &[f64], z: &mut [f64], work: &mut WorkCounter) {
        assert_eq!(r.len(), self.lu.n());
        assert_eq!(z.len(), self.lu.n());
        match simd::backend() {
            #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
            // SAFETY: backend() returned Avx2, so the CPU supports it; the
            // sweep invariants are documented on `apply_scalar`/`apply_lanes`,
            // and `self.plan` was verified against this pattern in `new`.
            Backend::Avx2 => unsafe {
                // Any detected stencil takes the wavefront: even at the
                // minimum line width (w = 3) it breaks the serial
                // west-neighbor chain across four lines, beating the
                // chain-bound scalar sweep (measured on the level-8
                // anisotropic family — see BENCH_solver.json).
                match self.plan {
                    Some(plan) => self.apply_wavefront_avx2(plan, r, z),
                    None => self.apply_lanes_avx2(r, z),
                }
            },
            Backend::Scalar => self.apply_scalar(r, z),
            // SAFETY: sweep invariants as documented on `apply_scalar`.
            _ => unsafe {
                match self.plan {
                    Some(plan) => self.apply_wavefront(plan, r, z),
                    None => self.apply_lanes(r, z),
                }
            },
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

/// Tier-dispatched dot product: strict sequential order on the exact tier
/// (bit-identical to `solver::reference`), the fixed stride-8 reassociated
/// pattern of [`crate::simd::dot_fast`] on the fast tier.
#[inline]
fn tier_dot(tier: Tier, a: &[f64], b: &[f64]) -> f64 {
    match tier {
        Tier::Exact => simd::dot_exact(a, b),
        Tier::Fast => simd::dot_fast(a, b),
    }
}

#[inline]
fn tier_norm2(tier: Tier, a: &[f64]) -> f64 {
    tier_dot(tier, a, a).sqrt()
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

/// Preconditioned BiCGSTAB: solve `A x = b` in place (`x` holds the initial
/// guess on entry, the solution on success). Allocates its own scratch;
/// hot paths should use [`bicgstab_with`] and a reused [`KrylovWorkspace`].
pub fn bicgstab(
    a: &Csr,
    precond: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iters: usize,
    work: &mut WorkCounter,
) -> Result<SolveStats, SolveError> {
    let mut ws = KrylovWorkspace::new();
    bicgstab_with(a, precond, b, x, rel_tol, max_iters, &mut ws, work)
}

/// [`bicgstab`] on caller-owned scratch: zero heap allocations once the
/// workspace has been sized (first call at dimension `n`). Bit-identical to
/// the allocating entry point — same operations in the same order.
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
    bicgstab_tiered(a, precond, b, x, rel_tol, max_iters, Tier::Exact, ws, work)
}

/// [`bicgstab_with`] with an explicit numerical [`Tier`].
///
/// `Tier::Exact` is byte-for-byte the historical solver: every reduction in
/// strict sequential order. `Tier::Fast` reroutes the seven per-iteration
/// dot products/norms — the latency-bound scalar chains that dominate the
/// iteration once sweeps and matvec are vectorized — through the
/// reassociated [`crate::simd::dot_fast`] pattern; the elementwise updates
/// and sweeps are identical between the tiers. Fast-tier results carry a
/// measured error bound (see the tier tests and DESIGN.md), not bitwise
/// reproducibility against the reference oracle.
#[allow(clippy::too_many_arguments)] // a solver signature
pub fn bicgstab_tiered(
    a: &Csr,
    precond: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iters: usize,
    tier: Tier,
    ws: &mut KrylovWorkspace,
    work: &mut WorkCounter,
) -> Result<SolveStats, SolveError> {
    let n = a.n();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let bnorm = tier_norm2(tier, b).max(1e-300);

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

    a.matvec_into(x, r);
    work.add_matvec(a.nnz());
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    r_hat.copy_from_slice(r);
    let mut rho = 1.0_f64;
    let mut alpha = 1.0_f64;
    let mut omega = 1.0_f64;
    v.fill(0.0);
    p.fill(0.0);

    let mut resid = tier_norm2(tier, r) / bnorm;
    if resid <= rel_tol {
        return Ok(SolveStats {
            iterations: 0,
            residual: resid,
        });
    }

    for it in 1..=max_iters {
        work.add_lin_iter();
        let rho_new = tier_dot(tier, r_hat, r);
        if rho_new.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it - 1 });
        }
        let beta = (rho_new / rho) * (alpha / omega);
        simd::p_update(p, r, beta, omega, v);
        precond.apply(p, p_hat, work);
        a.matvec_into(p_hat, v);
        work.add_matvec(a.nnz());
        let rv = tier_dot(tier, r_hat, v);
        if rv.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        alpha = rho_new / rv;
        simd::s_update(s, r, alpha, v);
        if tier_norm2(tier, s) / bnorm <= rel_tol {
            simd::axpy(x, alpha, p_hat);
            work.add_vector_ops(n, 6);
            return Ok(SolveStats {
                iterations: it,
                residual: tier_norm2(tier, s) / bnorm,
            });
        }
        precond.apply(s, s_hat, work);
        a.matvec_into(s_hat, t);
        work.add_matvec(a.nnz());
        let tt = tier_dot(tier, t, t);
        if tt.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        omega = tier_dot(tier, t, s) / tt;
        if omega.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        simd::x_update(x, alpha, p_hat, omega, s_hat);
        // r = s - omega * t: same expression shape as the s-update kernel.
        simd::s_update(r, s, omega, t);
        work.add_vector_ops(n, 10);
        resid = tier_norm2(tier, r) / bnorm;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble;
    use crate::grid::Grid2;
    use crate::problem::Problem;

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

    /// A w×h 5-point-stencil matrix with row-distinct values (mirrors the
    /// sparse-module helper; here it drives the wavefront sweeps).
    fn stencil_matrix(w: usize, h: usize) -> Csr {
        let n = w * h;
        let mut t = Vec::new();
        for j in 0..h {
            for c in 0..w {
                let i = j * w + c;
                let f = i as f64;
                if j > 0 {
                    t.push((i, i - w, -1.0 - 0.01 * f));
                }
                if c > 0 {
                    t.push((i, i - 1, -0.5 - 0.002 * f));
                }
                t.push((i, i, 4.0 + 0.1 * f));
                if c + 1 < w {
                    t.push((i, i + 1, -0.6 + 0.003 * f));
                }
                if j + 1 < h {
                    t.push((i, i + w, -1.1 + 0.004 * f));
                }
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
    fn wavefront_apply_matches_scalar_bitwise_on_assembled_grids() {
        // The production path: assembled advection-diffusion stage matrices,
        // including the strongly anisotropic shapes. Non-stencil shapes (if
        // a grid degenerates below the plan's minimum) still must agree —
        // they take the lane-blocked path instead.
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
        let stats = bicgstab(&a, &IdentityPrecond, &b, &mut x, 1e-12, 10, &mut w).unwrap();
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
        let stats = bicgstab(&a, &IdentityPrecond, &b, &mut x, 1e-10, 500, &mut w).unwrap();
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
        let plain = bicgstab(&m, &IdentityPrecond, &b, &mut x1, 1e-10, 2000, &mut w).unwrap();

        let ilu = Ilu0::new(&m, &mut w);
        let mut x2 = vec![0.0; m.n()];
        let pre = bicgstab(&m, &ilu, &b, &mut x2, 1e-10, 2000, &mut w).unwrap();

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
    fn workspace_bicgstab_matches_allocating_entry_point() {
        let p = Problem::transport_benchmark();
        let g = Grid2::new(2, 2, 1);
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let m = d.a.identity_minus_scaled(0.02);
        let ilu = Ilu0::new(&m, &mut w);
        let b: Vec<f64> = (0..m.n()).map(|i| ((i % 11) as f64) / 11.0).collect();

        let mut x1 = vec![0.0; m.n()];
        let s1 = bicgstab(&m, &ilu, &b, &mut x1, 1e-10, 500, &mut w).unwrap();
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
    fn jacobi_preconditioner_scales_by_diagonal() {
        let a = Csr::from_triplets(2, &[(0, 0, 2.0), (1, 1, 4.0)]);
        let j = JacobiPrecond::new(&a);
        let mut z = vec![0.0; 2];
        let mut w = WorkCounter::new();
        j.apply(&[2.0, 4.0], &mut z, &mut w);
        assert_eq!(z, vec![1.0, 1.0]);
    }

    #[test]
    fn max_iterations_error() {
        let a = laplacian_1d(100);
        let b = vec![1.0; 100];
        let mut x = vec![0.0; 100];
        let mut w = WorkCounter::new();
        let err = bicgstab(&a, &IdentityPrecond, &b, &mut x, 1e-14, 2, &mut w).unwrap_err();
        assert!(matches!(err, SolveError::MaxIterations { .. }));
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian_1d(10);
        let b = vec![0.0; 10];
        let mut x = vec![0.0; 10];
        let mut w = WorkCounter::new();
        let stats = bicgstab(&a, &IdentityPrecond, &b, &mut x, 1e-10, 10, &mut w).unwrap();
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
        let stats = bicgstab(&m, &ilu, &b, &mut x, 1e-10, 100, &mut w).unwrap();
        assert!(stats.iterations <= 5, "took {}", stats.iterations);
    }
}
