//! Compressed-sparse-row matrices.
//!
//! The discretized advection-diffusion operator is a pentadiagonal sparse
//! matrix; the Rosenbrock integrator additionally needs `I - γ·dt·A` every
//! time the step size changes. This module provides the minimal CSR tool
//! set for both, with sorted column indices per row (required by the ILU(0)
//! factorization in [`crate::linsolve`]).
//!
//! The matvec has one kernel per production shape. Every assembled matrix
//! is a 5-point stencil on a grid whose interior width is `2^(root+l) − 1`,
//! so it is 1-D (width or height 1), thin (width 3 or 7), or wide (width
//! 15 and up). Wide lines run the chunked `matvec_stencil`, thin ones the
//! unrolled `matvec_thin`, and everything else — 1-D grids, non-stencil
//! patterns, widths no grid has — the plain [`Csr::matvec_into_scalar`],
//! which is also the `force-scalar` code path and the differential-test
//! oracle. Each kernel keeps every row's accumulation order, so all three
//! are bit-identical.

use std::sync::OnceLock;

use crate::simd::{self, Backend, Chains, F64x4, LANES};

/// The tensor-product 5-point-stencil shape of a CSR pattern, when every
/// row conforms: row `i = j·w + c` stores exactly the columns
/// `{i−w if j>0, i−1 if c>0, i, i+1 if c+1<w, i+w if j+1<h}`, ascending.
/// This is the pattern every [`crate::assemble`] interior operator (and
/// its `I − γ·dt·A` stage matrices, and their ILU(0) factors) has, and it
/// unlocks the structure-aware kernels: a run-vectorized matvec with
/// contiguous loads instead of per-entry gathers, and skewed-wavefront
/// triangular sweeps that pipeline the row recurrence across grid lines.
/// The plan depends only on the sparsity pattern, which is immutable after
/// construction, so it is detected once and cached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StencilPlan {
    /// Interior row width (fast index): rows `j·w .. (j+1)·w` form line `j`.
    pub w: usize,
    /// Number of grid lines; `n == w · h`.
    pub h: usize,
}

/// Below this line width, the four-row interior chunks of
/// [`matvec_stencil`] degenerate (at most one chunk plus remainders per
/// line) and the const-width unrolled [`matvec_thin`] kernel wins instead
/// (measured on the level-8 anisotropic family — see BENCH_solver.json).
const STENCIL_MATVEC_MIN_W: usize = 8;

/// Detect the [`StencilPlan`] of a CSR pattern, conservatively: `None`
/// unless *every* row matches the positional stencil exactly.
fn detect_stencil(n: usize, row_ptr: &[usize], col_idx: &[usize]) -> Option<StencilPlan> {
    // Width from the first 5-entry row; bail unless it is a conforming
    // interior row (w >= 2 keeps the five columns distinct).
    let mut w = 0usize;
    for i in 0..n {
        let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
        if row.len() == 5 {
            if row[2] == i && row[1] + 1 == i && row[3] == i + 1 {
                let cand = i - row[0];
                if cand >= 2 && row[4] == i + cand {
                    w = cand;
                }
            }
            break;
        }
    }
    if w < 2 || !n.is_multiple_of(w) {
        return None;
    }
    let h = n / w;
    if h < 2 {
        return None;
    }
    let mut expect = [0usize; 5];
    for i in 0..n {
        let (j, c) = (i / w, i % w);
        let mut len = 0;
        if j > 0 {
            expect[len] = i - w;
            len += 1;
        }
        if c > 0 {
            expect[len] = i - 1;
            len += 1;
        }
        expect[len] = i;
        len += 1;
        if c + 1 < w {
            expect[len] = i + 1;
            len += 1;
        }
        if j + 1 < h {
            expect[len] = i + w;
            len += 1;
        }
        if col_idx[row_ptr[i]..row_ptr[i + 1]] != expect[..len] {
            return None;
        }
    }
    Some(StencilPlan { w, h })
}

/// A square sparse matrix in CSR format with per-row sorted columns.
///
/// # Invariants
///
/// Every constructor establishes (and no public method can break):
/// `row_ptr.len() == n + 1`, `row_ptr[0] == 0`, `row_ptr` monotone with
/// `row_ptr[n] == col_idx.len() == vals.len()`, and every stored column
/// index `< n`. The hot kernels ([`Csr::matvec_into`], the ILU(0)
/// triangular solves in [`crate::linsolve`]) rely on these invariants to
/// skip per-element bounds checks.
#[derive(Clone, Debug)]
pub struct Csr {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
    /// Lazily detected [`StencilPlan`] of the (immutable) pattern.
    stencil: OnceLock<Option<StencilPlan>>,
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        // The stencil cache is derived state — equality is the matrix.
        self.n == other.n
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.vals == other.vals
    }
}

impl Csr {
    /// Build from (row, col, value) triplets; duplicate entries are summed.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Csr {
        let mut entries: Vec<(usize, usize, f64)> = triplets.to_vec();
        entries.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        let mut current_row = 0usize;
        for (r, c, v) in entries {
            assert!(r < n && c < n, "triplet ({r},{c}) out of range for n={n}");
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            if let (Some(&lc), Some(lv)) = (col_idx.last(), vals.last_mut()) {
                if lc == c && row_ptr.len() - 1 == r && col_idx.len() > *row_ptr.last().unwrap() {
                    // same row, same col as previous entry → accumulate
                    *lv += v;
                    continue;
                }
            }
            col_idx.push(c);
            vals.push(v);
        }
        while current_row < n {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }
        Csr {
            n,
            row_ptr,
            col_idx,
            vals,
            stencil: OnceLock::new(),
        }
    }

    /// Build from pre-assembled CSR parts. `row_ptr` must be monotone with
    /// `row_ptr[0] == 0` and `row_ptr[n] == col_idx.len()`, and every row's
    /// columns must be strictly increasing. This is the fast path for
    /// stencil assemblies whose pattern is known a priori (no triplet sort).
    pub fn from_parts(n: usize, row_ptr: Vec<usize>, col_idx: Vec<usize>, vals: Vec<f64>) -> Csr {
        assert_eq!(row_ptr.len(), n + 1);
        assert_eq!(row_ptr[0], 0);
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        assert_eq!(col_idx.len(), vals.len());
        // Hard invariants the unchecked kernels rely on (one O(nnz) pass at
        // construction buys bounds-check-free matvec and triangular solves).
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        assert!(col_idx.iter().all(|&c| c < n));
        debug_assert!((0..n).all(|r| {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            row.windows(2).all(|w| w[0] < w[1])
        }));
        Csr {
            n,
            row_ptr,
            col_idx,
            vals,
            stencil: OnceLock::new(),
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Csr {
        Csr {
            n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![1.0; n],
            stencil: OnceLock::new(),
        }
    }

    /// The [`StencilPlan`] of this matrix's pattern, if it is a conforming
    /// tensor-product 5-point stencil. Detected on first call and cached;
    /// the pattern is immutable so the cache can never go stale (values may
    /// change in place, but the plan does not depend on them).
    pub fn stencil_plan(&self) -> Option<StencilPlan> {
        *self
            .stencil
            .get_or_init(|| detect_stencil(self.n, &self.row_ptr, &self.col_idx))
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row slice accessors: `(columns, values)` of row `r`.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Mutable values of row `r` (columns stay fixed).
    pub fn row_vals_mut(&mut self, r: usize) -> &mut [f64] {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        &mut self.vals[lo..hi]
    }

    /// The row-pointer array (`n + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// All stored column indices, row-major.
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// All stored values, row-major.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// All stored values, mutable (the pattern stays fixed).
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Split borrow for in-place factorizations: `(row_ptr, col_idx, vals)`
    /// with only the values mutable.
    pub fn raw_parts_mut(&mut self) -> (&[usize], &[usize], &mut [f64]) {
        (&self.row_ptr, &self.col_idx, &mut self.vals)
    }

    /// Do `self` and `other` store exactly the same sparsity pattern?
    pub fn same_pattern(&self, other: &Csr) -> bool {
        self.n == other.n && self.row_ptr == other.row_ptr && self.col_idx == other.col_idx
    }

    /// `y = A·x`, backend-dispatched. Bit-identical to
    /// [`Csr::matvec_into_scalar`] on every backend: every route keeps each
    /// row's accumulation order.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        let [] = self.matvec_dots(x, y, ());
    }

    /// `y = A·x`, carrying `chains` over the new `y`: the bits of
    /// [`Csr::matvec_into`] followed by [`simd::dot_exact`] per chain.
    ///
    /// Each SIMD backend has three routes: the chunked stencil kernel
    /// (lines at least 8 wide), the thin kernel (lines 3 or 7 wide), and
    /// [`Csr::matvec_into_scalar`] for everything else. The chunked kernel
    /// adds each row to every chain as it writes it, so the serial adds
    /// overlap the matvec; the other two write `y` first and then run all
    /// the chains in one pass.
    pub fn matvec_dots<C: Chains>(&self, x: &[f64], y: &mut [f64], chains: C) -> C::Sums {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let (row_ptr, vals) = (&self.row_ptr[..], &self.vals[..]);
        match simd::backend() {
            #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
            // SAFETY: `backend()` returns Avx2 only after detecting AVX2 on
            // this CPU. Each kernel runs on `stencil_plan()`, the plan
            // `detect_stencil` verified row by row against this pattern, with
            // the width it was instantiated for; `x` and `y` were asserted to
            // have length `n == w·h` above.
            Backend::Avx2 => unsafe {
                match self.stencil_plan() {
                    Some(plan) if plan.w >= STENCIL_MATVEC_MIN_W => {
                        return matvec_stencil_avx2(row_ptr, vals, plan, x, y, chains);
                    }
                    Some(plan) if plan.w == 3 => matvec_thin::<3>(row_ptr, vals, plan, x, y),
                    Some(plan) if plan.w == 7 => matvec_thin::<7>(row_ptr, vals, plan, x, y),
                    _ => self.matvec_into_scalar(x, y),
                }
            },
            Backend::Scalar => self.matvec_into_scalar(x, y),
            // SAFETY: as for the Avx2 arm, minus the feature probe: these are
            // the baseline-ISA instantiations.
            _ => unsafe {
                match self.stencil_plan() {
                    Some(plan) if plan.w >= STENCIL_MATVEC_MIN_W => {
                        return matvec_stencil(row_ptr, vals, plan, x, y, chains);
                    }
                    Some(plan) if plan.w == 3 => matvec_thin::<3>(row_ptr, vals, plan, x, y),
                    Some(plan) if plan.w == 7 => matvec_thin::<7>(row_ptr, vals, plan, x, y),
                    _ => self.matvec_into_scalar(x, y),
                }
            },
        }
        simd::dots_exact(y, chains)
    }

    /// `y = A·x` with the plain per-row scalar loop: the route of every
    /// pattern without a stencil kernel (1-D grids, general matrices), the
    /// `force-scalar` code path, and the differential-test oracle for the
    /// stencil kernels.
    pub fn matvec_into_scalar(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        // SAFETY: the struct invariants guarantee `row_ptr` is monotone with
        // `row_ptr[n] == col_idx.len() == vals.len()` and every stored column
        // `< n == x.len()`; `i < n` bounds the row_ptr and y accesses. The
        // accumulation order is unchanged from the checked loop.
        unsafe {
            for i in 0..self.n {
                let lo = *self.row_ptr.get_unchecked(i);
                let hi = *self.row_ptr.get_unchecked(i + 1);
                let mut acc = 0.0;
                for k in lo..hi {
                    acc += *self.vals.get_unchecked(k)
                        * *x.get_unchecked(*self.col_idx.get_unchecked(k));
                }
                *y.get_unchecked_mut(i) = acc;
            }
        }
    }

    /// Allocating matvec.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec_into(x, &mut y);
        y
    }

    /// Entry `(r, c)` if stored.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|k| vals[k])
    }

    /// Compute `I - s·A`. Every diagonal entry is materialized even when
    /// `A` has none stored.
    pub fn identity_minus_scaled(&self, s: f64) -> Csr {
        let mut triplets = Vec::with_capacity(self.nnz() + self.n);
        for r in 0..self.n {
            let (cols, vals) = self.row(r);
            let mut has_diag = false;
            for (c, v) in cols.iter().zip(vals) {
                if *c == r {
                    has_diag = true;
                    triplets.push((r, r, 1.0 - s * v));
                } else {
                    triplets.push((r, *c, -s * v));
                }
            }
            if !has_diag {
                triplets.push((r, r, 1.0));
            }
        }
        Csr::from_triplets(self.n, &triplets)
    }

    /// Dense representation (tests/diagnostics only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.n]; self.n];
        #[allow(clippy::needless_range_loop)] // row index drives two arrays
        for r in 0..self.n {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                d[r][*c] += v;
            }
        }
        d
    }
}

/// Stencil matvec body: the [`StencilPlan`] pins every column index, so no
/// `col_idx` indirection (and no per-entry gather) is needed. Per grid
/// line, the two boundary rows run scalar; the interior rows all have the
/// same entry count `E` (4 on the first/last line, 5 elsewhere) with
/// values contiguous at stride `E`, and are processed in four-row chunks:
/// for each of the `E` stencil bands, four row values come from strided
/// positions in `vals` and the four `x` operands are one *contiguous* load
/// at the band's column offset. Bands accumulate in ascending-column order
/// from a zero accumulator with separate mul/add — exactly the scalar
/// kernel's per-row operation sequence, so the result is bit-identical to
/// [`Csr::matvec_into_scalar`].
///
/// Every written row then joins `chains`; rows are written in ascending
/// order, so each chain has the bits of [`simd::dot_exact`] over `y`. With
/// no chains (`()`) this is the plain matvec.
///
/// # Safety
/// `plan` must be the verified [`StencilPlan`] of this pattern (so row
/// `j·w + c` has exactly the positional stencil columns and `row_ptr`
/// matches the implied row lengths); `x.len() == y.len() == w·h`.
#[inline(always)]
unsafe fn matvec_stencil<C: Chains>(
    row_ptr: &[usize],
    vals: &[f64],
    plan: StencilPlan,
    x: &[f64],
    y: &mut [f64],
    chains: C,
) -> C::Sums {
    let StencilPlan { w, h } = plan;
    let mut sums = chains.start(w * h);
    for j in 0..h {
        let row0 = j * w;
        // First column of the line: scalar (no west neighbor).
        {
            let i = row0;
            let mut p = *row_ptr.get_unchecked(i);
            let mut acc = 0.0;
            if j > 0 {
                acc += *vals.get_unchecked(p) * *x.get_unchecked(i - w);
                p += 1;
            }
            acc += *vals.get_unchecked(p) * *x.get_unchecked(i);
            acc += *vals.get_unchecked(p + 1) * *x.get_unchecked(i + 1);
            if j + 1 < h {
                acc += *vals.get_unchecked(p + 2) * *x.get_unchecked(i + w);
            }
            *y.get_unchecked_mut(i) = acc;
            chains.add(&mut sums, i, acc);
        }
        // Interior columns 1..w-1: equal-length rows, vals at stride e.
        let (e, offs): (usize, [isize; 5]) = if j == 0 {
            (4, [-1, 0, 1, w as isize, 0])
        } else if j + 1 == h {
            (4, [-(w as isize), -1, 0, 1, 0])
        } else {
            (5, [-(w as isize), -1, 0, 1, w as isize])
        };
        let first = row0 + 1;
        let m = w - 2;
        let p0 = *row_ptr.get_unchecked(first);
        let mut r = 0usize;
        while r + LANES <= m {
            let i = first + r;
            let p = p0 + r * e;
            let mut acc = F64x4::zero();
            for (b, off) in offs.iter().enumerate().take(e) {
                let a = F64x4([
                    *vals.get_unchecked(p + b),
                    *vals.get_unchecked(p + e + b),
                    *vals.get_unchecked(p + 2 * e + b),
                    *vals.get_unchecked(p + 3 * e + b),
                ]);
                let xx = F64x4::load(x, (i as isize + off) as usize);
                acc = acc.add(a.mul(xx));
            }
            acc.store(y, i);
            chains.add4(&mut sums, i, acc);
            r += LANES;
        }
        while r < m {
            let i = first + r;
            let p = p0 + r * e;
            let mut acc = 0.0;
            for (b, off) in offs.iter().enumerate().take(e) {
                acc += *vals.get_unchecked(p + b) * *x.get_unchecked((i as isize + off) as usize);
            }
            *y.get_unchecked_mut(i) = acc;
            chains.add(&mut sums, i, acc);
            r += 1;
        }
        // Last column of the line: scalar (no east neighbor).
        {
            let i = row0 + w - 1;
            let mut p = *row_ptr.get_unchecked(i);
            let mut acc = 0.0;
            if j > 0 {
                acc += *vals.get_unchecked(p) * *x.get_unchecked(i - w);
                p += 1;
            }
            acc += *vals.get_unchecked(p) * *x.get_unchecked(i - 1);
            acc += *vals.get_unchecked(p + 1) * *x.get_unchecked(i);
            if j + 1 < h {
                acc += *vals.get_unchecked(p + 2) * *x.get_unchecked(i + w);
            }
            *y.get_unchecked_mut(i) = acc;
            chains.add(&mut sums, i, acc);
        }
    }
    sums
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
#[target_feature(enable = "avx2")]
unsafe fn matvec_stencil_avx2<C: Chains>(
    row_ptr: &[usize],
    vals: &[f64],
    plan: StencilPlan,
    x: &[f64],
    y: &mut [f64],
    chains: C,
) -> C::Sums {
    matvec_stencil(row_ptr, vals, plan, x, y, chains)
}

/// One line of the thin-stencil matvec: straight-line code for all `W`
/// columns of line `j` (the `c` loop fully unrolls for const `W`, erasing
/// the boundary branches and the per-entry `col_idx` loads the generic
/// kernels pay). Each row accumulates its bands in ascending-column order
/// from a zero accumulator — the scalar kernel's exact operation sequence,
/// so the result is bit-identical to [`Csr::matvec_into_scalar`].
///
/// # Safety
/// As for [`matvec_thin`], with `j` a valid line index (`TOP` iff `j == 0`,
/// `BOTTOM` iff `j + 1 == h`).
#[inline(always)]
unsafe fn thin_line<const W: usize, const TOP: bool, const BOTTOM: bool>(
    j: usize,
    row_ptr: &[usize],
    vals: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    for c in 0..W {
        let i = j * W + c;
        let mut p = *row_ptr.get_unchecked(i);
        let mut acc = 0.0;
        if !TOP {
            acc += *vals.get_unchecked(p) * *x.get_unchecked(i - W);
            p += 1;
        }
        if c > 0 {
            acc += *vals.get_unchecked(p) * *x.get_unchecked(i - 1);
            p += 1;
        }
        acc += *vals.get_unchecked(p) * *x.get_unchecked(i);
        p += 1;
        if c + 1 < W {
            acc += *vals.get_unchecked(p) * *x.get_unchecked(i + 1);
            p += 1;
        }
        if !BOTTOM {
            acc += *vals.get_unchecked(p) * *x.get_unchecked(i + W);
        }
        *y.get_unchecked_mut(i) = acc;
    }
}

/// Thin-stencil matvec body for the two line widths below
/// [`STENCIL_MATVEC_MIN_W`] that grids have, `W ∈ {3, 7}` (interior widths
/// are `2^k − 1`): too narrow for the four-row interior chunks of
/// [`matvec_stencil`], but the const line width lets every line run as
/// unrolled straight-line code with full instruction-level parallelism
/// (`W` independent accumulators per line). Bit-identical to
/// [`Csr::matvec_into_scalar`] — see [`thin_line`].
///
/// # Safety
/// `plan` must be the verified [`StencilPlan`] of this pattern with
/// `plan.w == W` (detection guarantees `h >= 3`, so the first and last
/// lines are distinct); `x.len() == y.len() == w·h`.
unsafe fn matvec_thin<const W: usize>(
    row_ptr: &[usize],
    vals: &[f64],
    plan: StencilPlan,
    x: &[f64],
    y: &mut [f64],
) {
    debug_assert_eq!(plan.w, W);
    let h = plan.h;
    thin_line::<W, true, false>(0, row_ptr, vals, x, y);
    for j in 1..h - 1 {
        thin_line::<W, false, false>(j, row_ptr, vals, x, y);
    }
    thin_line::<W, false, true>(h - 1, row_ptr, vals, x, y);
}

/// Where a stage-matrix entry takes its value from.
#[derive(Clone, Copy, Debug)]
enum StageSrc {
    /// Diagonal entry backed by the `A` value at this flat index: `1 − s·a`.
    DiagFrom(usize),
    /// Diagonal entry with no stored `A` counterpart: constant `1`.
    DiagOne,
    /// Off-diagonal entry backed by the `A` value at this flat index: `−s·a`.
    Off(usize),
}

/// A cached stage matrix `I − s·A` whose sparsity pattern (and the mapping
/// back to `A`'s entries) is computed exactly once. A change of `s` — the
/// Rosenbrock integrator's `γ·dt` — only rewrites the value array in place,
/// so the per-step-size-change cost is a single pass over the nonzeros
/// instead of a triplet sort and a fresh allocation.
///
/// [`CachedStage::rewrite`] produces bit-identical values to
/// [`Csr::identity_minus_scaled`]: the same expressions are evaluated for
/// the same entries in the same order.
#[derive(Clone, Debug)]
pub struct CachedStage {
    m: Csr,
    src: Vec<StageSrc>,
}

impl CachedStage {
    /// Build the pattern and initial values of `I − s·A`.
    pub fn new(a: &Csr, s: f64) -> CachedStage {
        let m = a.identity_minus_scaled(s);
        let mut src = Vec::with_capacity(m.nnz());
        for r in 0..m.n {
            let (mcols, _) = m.row(r);
            let (acols, _) = a.row(r);
            let base = a.row_ptr[r];
            for &c in mcols {
                if c == r {
                    match acols.binary_search(&r) {
                        Ok(k) => src.push(StageSrc::DiagFrom(base + k)),
                        Err(_) => src.push(StageSrc::DiagOne),
                    }
                } else {
                    let k = acols
                        .binary_search(&c)
                        .expect("stage pattern out of sync with A");
                    src.push(StageSrc::Off(base + k));
                }
            }
        }
        CachedStage { m, src }
    }

    /// The current stage matrix.
    pub fn matrix(&self) -> &Csr {
        &self.m
    }

    /// Does `a` still have the pattern this cache was built from? (The
    /// stage pattern is `A`'s pattern with the diagonal materialized.)
    pub fn matches(&self, a: &Csr) -> bool {
        if a.n != self.m.n {
            return false;
        }
        for r in 0..a.n {
            let (acols, _) = a.row(r);
            let (mcols, _) = self.m.row(r);
            let has_diag = acols.binary_search(&r).is_ok();
            if mcols.len() != acols.len() + usize::from(!has_diag) {
                return false;
            }
            let mut ai = 0;
            for &c in mcols {
                if ai < acols.len() && acols[ai] == c {
                    ai += 1;
                } else if c != r {
                    return false;
                }
            }
            if ai != acols.len() {
                return false;
            }
        }
        true
    }

    /// Rewrite the values for a new scale `s`, allocation-free.
    pub fn rewrite(&mut self, a: &Csr, s: f64) {
        debug_assert!(self.matches(a), "CachedStage pattern out of sync");
        let avals = &a.vals;
        for (v, src) in self.m.vals.iter_mut().zip(&self.src) {
            *v = match *src {
                StageSrc::DiagFrom(k) => 1.0 - s * avals[k],
                StageSrc::DiagOne => 1.0,
                StageSrc::Off(k) => -s * avals[k],
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Csr {
        // [ 2 -1  0]
        // [-1  2 -1]
        // [ 0 -1  2]
        Csr::from_triplets(
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
    }

    #[test]
    fn from_triplets_and_get() {
        let a = example();
        assert_eq!(a.n(), 3);
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), Some(2.0));
        assert_eq!(a.get(0, 2), None);
        assert_eq!(a.get(2, 1), Some(-1.0));
    }

    #[test]
    fn duplicates_are_summed() {
        let a = Csr::from_triplets(2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(a.get(0, 0), Some(3.5));
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn empty_rows_are_handled() {
        let a = Csr::from_triplets(4, &[(0, 0, 1.0), (3, 3, 2.0)]);
        assert_eq!(a.row(1).0.len(), 0);
        assert_eq!(a.row(2).0.len(), 0);
        let y = a.matvec(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = example();
        let x = [1.0, 2.0, 3.0];
        let y = a.matvec(&x);
        let d = a.to_dense();
        for r in 0..3 {
            let want: f64 = (0..3).map(|c| d[r][c] * x[c]).sum();
            assert!((y[r] - want).abs() < 1e-14);
        }
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = Csr::identity(5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(i.matvec(&x), x.to_vec());
    }

    #[test]
    fn identity_minus_scaled() {
        let a = example();
        let m = a.identity_minus_scaled(0.5);
        // m = I - 0.5 A: diag = 1 - 1 = 0, off-diag = 0.5
        assert_eq!(m.get(0, 0), Some(0.0));
        assert_eq!(m.get(0, 1), Some(0.5));
        assert_eq!(m.get(1, 2), Some(0.5));
    }

    #[test]
    fn identity_minus_scaled_materializes_diagonal() {
        let a = Csr::from_triplets(2, &[(0, 1, 1.0)]);
        let m = a.identity_minus_scaled(2.0);
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(0, 1), Some(-2.0));
        assert_eq!(m.get(1, 1), Some(1.0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_triplet_panics() {
        let _ = Csr::from_triplets(2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn columns_are_sorted_per_row() {
        let a = Csr::from_triplets(3, &[(0, 2, 1.0), (0, 0, 2.0), (0, 1, 3.0)]);
        let (cols, _) = a.row(0);
        assert_eq!(cols, &[0, 1, 2]);
    }

    #[test]
    fn from_parts_equals_from_triplets() {
        let t = example();
        let d = Csr::from_parts(
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0],
        );
        assert_eq!(t, d);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_bad_row_ptr() {
        let _ = Csr::from_parts(2, vec![0, 1], vec![0], vec![1.0]);
    }

    #[test]
    fn cached_stage_matches_identity_minus_scaled() {
        let a = example();
        let mut cache = CachedStage::new(&a, 0.5);
        for s in [0.5, 0.017, -1.25, 0.0, 1e-9] {
            cache.rewrite(&a, s);
            let fresh = a.identity_minus_scaled(s);
            assert_eq!(cache.matrix(), &fresh, "s = {s}");
        }
    }

    #[test]
    fn cached_stage_materializes_missing_diagonal() {
        let a = Csr::from_triplets(2, &[(0, 1, 1.0)]);
        let mut cache = CachedStage::new(&a, 2.0);
        cache.rewrite(&a, 3.0);
        assert_eq!(cache.matrix(), &a.identity_minus_scaled(3.0));
        assert_eq!(cache.matrix().get(1, 1), Some(1.0));
    }

    #[test]
    fn cached_stage_pattern_match() {
        let a = example();
        let cache = CachedStage::new(&a, 0.1);
        assert!(cache.matches(&a));
        let other = Csr::from_triplets(3, &[(0, 0, 1.0), (2, 2, 1.0), (1, 1, 1.0)]);
        assert!(!cache.matches(&other));
        assert!(!cache.matches(&Csr::identity(4)));
    }

    #[test]
    fn non_stencil_matvec_matches_scalar_bitwise() {
        // Bandwidth-3 pentadiagonal matrices: from n = 7 on, the first
        // 5-entry row looks like a width-3 stencil row, so this guards that
        // a pattern the plan rejects still routes to the scalar loop.
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 31] {
            let mut t = Vec::new();
            for i in 0..n {
                t.push((i, i, 4.0 + i as f64 * 0.01));
                if i >= 1 {
                    t.push((i, i - 1, -1.0 - 0.001 * i as f64));
                }
                if i + 1 < n {
                    t.push((i, i + 1, -1.1));
                }
                if i >= 3 {
                    t.push((i, i - 3, -0.3));
                }
                if i + 3 < n {
                    t.push((i, i + 3, -0.31));
                }
            }
            let a = Csr::from_triplets(n, &t);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
            let mut y_lanes = vec![0.0; n];
            let mut y_scalar = vec![0.0; n];
            a.matvec_into(&x, &mut y_lanes);
            a.matvec_into_scalar(&x, &mut y_scalar);
            assert_eq!(y_lanes, y_scalar, "n = {n}");
        }
    }

    /// A w×h 5-point-stencil matrix with smoothly varying, row-distinct
    /// values (so a misplaced band or a swapped neighbor cannot cancel).
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
    fn stencil_plan_detected_on_grids() {
        for (w, h) in [(3, 3), (3, 4), (5, 3), (4, 7), (9, 4), (16, 16)] {
            let a = stencil_matrix(w, h);
            assert_eq!(a.stencil_plan(), Some(StencilPlan { w, h }), "{w}x{h}");
        }
        // Width- or height-2 grids have no interior (5-entry) row to anchor
        // detection — they conservatively stay on the scalar loops.
        for (w, h) in [(2, 2), (2, 5), (5, 2)] {
            assert_eq!(stencil_matrix(w, h).stencil_plan(), None, "{w}x{h}");
        }
    }

    #[test]
    fn stencil_plan_rejects_non_stencil_patterns() {
        assert_eq!(Csr::identity(6).stencil_plan(), None);
        assert_eq!(example().stencil_plan(), None, "tridiagonal");
        // A 1-D pentadiagonal (bandwidth-3) matrix: its first 5-entry row
        // looks like a width-3 stencil row, but the full verification pass
        // must reject it.
        let n = 12;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0));
            if i >= 1 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
            if i >= 3 {
                t.push((i, i - 3, -0.3));
            }
            if i + 3 < n {
                t.push((i, i + 3, -0.3));
            }
        }
        assert_eq!(Csr::from_triplets(n, &t).stencil_plan(), None);
        // A true stencil with one interior entry knocked out.
        let a = stencil_matrix(4, 4);
        let mut dropped = Vec::new();
        for r in 0..a.n() {
            let (cols, vals) = a.row(r);
            for (c, v) in cols.iter().zip(vals) {
                if !(r == 5 && *c == 6) {
                    dropped.push((r, *c, *v));
                }
            }
        }
        assert_eq!(Csr::from_triplets(a.n(), &dropped).stencil_plan(), None);
    }

    #[test]
    fn stencil_matvec_matches_scalar_bitwise() {
        // Shapes cover w == 2 (no interior columns), both thin widths (3
        // and 7), widths no grid has (4–6, scalar), wide-and-short, chunk
        // remainders (w-2 mod 4 in every class), and a square large enough
        // for several four-row chunks per line.
        for (w, h) in [
            (2, 2),
            (2, 7),
            (3, 3),
            (4, 5),
            (5, 4),
            (6, 3),
            (7, 2),
            (7, 5),
            (8, 4),
            (9, 6),
            (10, 3),
            (11, 5),
            (17, 5),
        ] {
            let a = stencil_matrix(w, h);
            assert_eq!(a.stencil_plan().is_some(), w >= 3 && h >= 3, "{w}x{h}");
            let n = w * h;
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() * 2.5).collect();
            let mut y = vec![0.0; n];
            let mut y_scalar = vec![0.0; n];
            a.matvec_into(&x, &mut y);
            a.matvec_into_scalar(&x, &mut y_scalar);
            assert_eq!(y, y_scalar, "{w}x{h}");
        }
    }

    #[test]
    fn same_pattern_detects_structure() {
        let a = example();
        let mut b = example();
        assert!(a.same_pattern(&b));
        b.vals_mut()[0] = 9.0;
        assert!(a.same_pattern(&b), "values do not affect the pattern");
        let c = Csr::identity(3);
        assert!(!a.same_pattern(&c));
    }
}
