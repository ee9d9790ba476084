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
//! 15 and up). Wide lines run the chunked `matvec_stencil` over the
//! matrix's band-major copy of its values, thin ones the unrolled
//! `matvec_thin`, and everything else — 1-D grids, non-stencil patterns,
//! widths no grid has — the plain [`Csr::matvec_into_scalar`], which is
//! also the `force-scalar` code path and the differential-test oracle. Each
//! kernel keeps every row's accumulation order, so all three are
//! bit-identical.

use std::sync::OnceLock;

use crate::simd::{self, Backend, Chains, F64x4, LANES};

/// The tensor-product 5-point-stencil shape of a CSR pattern, when every
/// row conforms: row `i = j·w + c` stores exactly the columns
/// `{i−w if j>0, i−1 if c>0, i, i+1 if c+1<w, i+w if j+1<h}`, ascending.
/// This is the pattern every [`crate::assemble`] interior operator (and
/// its `I − γ·dt·A` stage matrices, and their ILU(0) factors) has, and it
/// unlocks the structure-aware kernels: a chunked matvec whose values and
/// `x` operands are both contiguous loads (a wide plan's matrix keeps its
/// values band-major as well as row-major), and skewed-wavefront
/// triangular sweeps that pipeline the row recurrence across grid lines.
/// The plan depends only on the sparsity pattern, which is immutable after
/// construction, so it is detected once, row by row, and cached.
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

/// The stencil bands, in a row's storage (ascending-column) order: columns
/// `i−w`, `i−1`, `i`, `i+1` and `i+w` of row `i`.
const BANDS: usize = 5;

impl StencilPlan {
    /// Does the chunked kernel run this plan (and its matrix keep bands)?
    /// Detected plans all have `h >= 3`; the check also answers for a
    /// shape not built yet, such as a one-line grid.
    pub(crate) fn is_wide(self) -> bool {
        self.w >= STENCIL_MATVEC_MIN_W && self.h >= 3
    }

    /// Which bands row `(j, c)` stores: all five but those a grid edge
    /// cuts off.
    fn present(self, j: usize, c: usize) -> [bool; BANDS] {
        [j > 0, c > 0, true, c + 1 < self.w, j + 1 < self.h]
    }
}

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
    let plan = StencilPlan { w, h: n / w };
    if plan.h < 2 {
        return None;
    }
    for j in 0..plan.h {
        for c in 0..w {
            let i = j * w + c;
            let mut row = col_idx[row_ptr[i]..row_ptr[i + 1]].iter();
            for (off, present) in band_offsets(w).into_iter().zip(plan.present(j, c)) {
                if present && row.next() != Some(&i.wrapping_add_signed(off)) {
                    return None;
                }
            }
            if row.next().is_some() {
                return None;
            }
        }
    }
    Some(plan)
}

/// The CSR invariants the unchecked kernels rely on (one O(nnz) pass at
/// construction buys bounds-check-free matvec and triangular solves).
fn check_parts(n: usize, row_ptr: &[usize], col_idx: &[usize], vals: &[f64]) {
    assert_eq!(row_ptr.len(), n + 1);
    assert_eq!(row_ptr[0], 0);
    assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
    assert_eq!(col_idx.len(), vals.len());
    assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
    assert!(col_idx.iter().all(|&c| c < n));
    debug_assert!((0..n).all(|r| {
        let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
        row.windows(2).all(|w| w[0] < w[1])
    }));
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
///
/// Two pieces of derived state ride along: the [`StencilPlan`], detected
/// once and cached, and — when the plan is wide (at least
/// `STENCIL_MATVEC_MIN_W` columns) — the values again, band-major: five
/// arrays of `n`, where `bands[b·n + i]` is row `i`'s entry in band `b`
/// (see `BANDS`); a slot a boundary row lacks holds a value no kernel
/// reads. Every value writer writes them: the constructors (which detect
/// the plan to know whether to), [`crate::assemble::assemble`] (as five
/// fills of its five stencil weights), [`CachedStage`], and the
/// closure-taking mutators ([`Csr::with_raw_parts_mut`],
/// [`Csr::with_row_vals_mut`]), which re-derive them after the closure
/// returns. So the bands never go stale.
#[derive(Clone, Debug)]
pub struct Csr {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
    /// Lazily detected [`StencilPlan`] of the (immutable) pattern.
    stencil: OnceLock<Option<StencilPlan>>,
    /// The values band-major for a wide plan; empty otherwise.
    bands: Vec<f64>,
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        // The plan and the bands are derived state — equality is the matrix.
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
        Csr::with_derived_bands(n, row_ptr, col_idx, vals)
    }

    /// Build from pre-assembled CSR parts. `row_ptr` must be monotone with
    /// `row_ptr[0] == 0` and `row_ptr[n] == col_idx.len()`, and every row's
    /// columns must be strictly increasing. This is the fast path for
    /// stencil assemblies whose pattern is known a priori (no triplet sort).
    pub fn from_parts(n: usize, row_ptr: Vec<usize>, col_idx: Vec<usize>, vals: Vec<f64>) -> Csr {
        check_parts(n, &row_ptr, &col_idx, &vals);
        Csr::with_derived_bands(n, row_ptr, col_idx, vals)
    }

    /// [`Csr::from_parts`] for a caller that wrote the band-major values
    /// itself ([`crate::assemble::assemble`]): `bands` is empty when the
    /// pattern's plan is not wide, and otherwise holds five arrays of `n`
    /// with the values the derivation would write. Both are checked, the
    /// values in debug builds. The plan stays undetected until first use,
    /// as for a matrix without bands.
    pub(crate) fn from_parts_and_bands(
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
        bands: Vec<f64>,
    ) -> Csr {
        check_parts(n, &row_ptr, &col_idx, &vals);
        assert!(bands.is_empty() || bands.len() == BANDS * n, "band arrays");
        let a = Csr {
            n,
            row_ptr,
            col_idx,
            vals,
            stencil: OnceLock::new(),
            bands,
        };
        debug_assert!(a.bands_in_sync(), "caller-written bands");
        a
    }

    /// Detect the plan now and derive the bands when it is wide.
    fn with_derived_bands(
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Csr {
        let stencil = OnceLock::from(detect_stencil(n, &row_ptr, &col_idx));
        let mut a = Csr {
            n,
            row_ptr,
            col_idx,
            vals,
            stencil,
            bands: Vec::new(),
        };
        if a.wide_plan().is_some() {
            a.bands = vec![0.0; BANDS * n];
            a.derive_bands();
        }
        a
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Csr {
        Csr {
            n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![1.0; n],
            stencil: OnceLock::from(None),
            bands: Vec::new(),
        }
    }

    /// The [`StencilPlan`] of this matrix's pattern, if it is a conforming
    /// tensor-product 5-point stencil. Detected on first call (or at
    /// construction) and cached; the pattern is immutable so the cache can
    /// never go stale (values may change in place, but the plan does not
    /// depend on them).
    pub fn stencil_plan(&self) -> Option<StencilPlan> {
        *self
            .stencil
            .get_or_init(|| detect_stencil(self.n, &self.row_ptr, &self.col_idx))
    }

    /// The plan, when the chunked kernel runs it over the bands.
    fn wide_plan(&self) -> Option<StencilPlan> {
        self.stencil_plan().filter(|p| p.is_wide())
    }

    /// Rewrite every band slot from the row-major values. A line's edge
    /// rows go one by one; its interior rows all store the same bands and
    /// sit back to back, so each band is one strided copy out of that run.
    fn derive_bands(&mut self) {
        let Some(plan) = self.wide_plan() else {
            return;
        };
        let (n, w) = (self.n, plan.w);
        for j in 0..plan.h {
            self.derive_row_bands(plan, j, 0);
            self.derive_row_bands(plan, j, w - 1);
            let first = j * w + 1;
            let run = &self.vals[self.row_ptr[first]..self.row_ptr[first + w - 2]];
            let present = plan.present(j, 1);
            let stride = present.iter().filter(|&&p| p).count();
            let bands = (0..BANDS).filter(|&b| present[b]);
            for (k, b) in bands.enumerate() {
                let slots = &mut self.bands[b * n + first..][..w - 2];
                for (slot, row) in slots.iter_mut().zip(run.chunks_exact(stride)) {
                    *slot = row[k];
                }
            }
        }
    }

    /// Rewrite row `(j, c)`'s band slots from its row-major values.
    fn derive_row_bands(&mut self, plan: StencilPlan, j: usize, c: usize) {
        let i = j * plan.w + c;
        let mut row = self.vals[self.row_ptr[i]..self.row_ptr[i + 1]].iter();
        for (b, present) in plan.present(j, c).into_iter().enumerate() {
            if present {
                self.bands[b * self.n + i] = *row.next().expect("plan-conforming row");
            }
        }
    }

    /// Are the bands there exactly when the plan is wide, holding the bits
    /// [`Csr::derive_bands`] writes?
    fn bands_in_sync(&self) -> bool {
        let wide = self.wide_plan().is_some();
        if self.bands.len() != usize::from(wide) * BANDS * self.n {
            return false;
        }
        let mut fresh = self.clone();
        fresh.derive_bands();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&fresh.bands) == bits(&self.bands)
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

    /// Edit the values of row `r` in place (columns stay fixed); the row's
    /// band slots follow when `f` returns.
    pub fn with_row_vals_mut<R>(&mut self, r: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        let out = f(&mut self.vals[lo..hi]);
        if let Some(plan) = self.wide_plan() {
            self.derive_row_bands(plan, r / plan.w, r % plan.w);
        }
        out
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

    /// Edit all stored values in place, as in-place factorizations do: `f`
    /// gets `(row_ptr, col_idx, vals)` with only the values mutable; the
    /// bands follow when it returns.
    pub fn with_raw_parts_mut<R>(
        &mut self,
        f: impl FnOnce(&[usize], &[usize], &mut [f64]) -> R,
    ) -> R {
        let out = f(&self.row_ptr, &self.col_idx, &mut self.vals);
        self.derive_bands();
        out
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
        let (row_ptr, vals, bands) = (&self.row_ptr[..], &self.vals[..], &self.bands[..]);
        let plan = self.stencil_plan();
        if plan.is_some_and(StencilPlan::is_wide) {
            assert_eq!(
                bands.len(),
                BANDS * self.n,
                "a wide stencil keeps its bands"
            );
        }
        match simd::backend() {
            #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
            // SAFETY: `backend()` returns Avx2 only after detecting AVX2 on
            // this CPU. Each kernel runs on `stencil_plan()`, the plan
            // `detect_stencil` verified row by row against this pattern, with
            // the width it was instantiated for; `x` and `y` were asserted to
            // have length `n == w·h` above, and a wide plan's `bands` to have
            // length `BANDS·n`.
            Backend::Avx2 => unsafe {
                match plan {
                    Some(plan) if plan.is_wide() => {
                        return matvec_stencil_avx2(bands, plan, x, y, chains);
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
                match plan {
                    Some(plan) if plan.is_wide() => {
                        return matvec_stencil(bands, plan, x, y, chains);
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

/// Column offsets of the bands, in `BANDS` order.
#[inline(always)]
fn band_offsets(w: usize) -> [isize; BANDS] {
    [-(w as isize), -1, 0, 1, w as isize]
}

/// One row of the band matvec, scalar: the bands `has` marks, in
/// ascending-column order, from a zero accumulator — the scalar kernel's
/// per-row operation sequence.
///
/// # Safety
/// As [`matvec_stencil`], with `i < n` and every marked band's column in
/// `0..n`.
#[inline(always)]
unsafe fn band_row(
    bands: &[f64],
    n: usize,
    w: usize,
    i: usize,
    x: &[f64],
    has: [bool; BANDS],
) -> f64 {
    let mut acc = 0.0;
    for (b, off) in band_offsets(w).into_iter().enumerate() {
        if has[b] {
            acc += *bands.get_unchecked(b * n + i) * *x.get_unchecked(i.wrapping_add_signed(off));
        }
    }
    acc
}

/// Rows `i .. i+4` of the band matvec: per marked band, one contiguous
/// load of four values and one of the four `x` operands, multiplied and
/// added lanewise in ascending-column order from a zero accumulator — each
/// lane is [`band_row`]'s operation sequence.
///
/// # Safety
/// As [`band_row`], for all four rows.
#[inline(always)]
unsafe fn band_chunk(
    bands: &[f64],
    n: usize,
    w: usize,
    i: usize,
    x: &[f64],
    has: [bool; BANDS],
) -> F64x4 {
    let mut acc = F64x4::zero();
    for (b, off) in band_offsets(w).into_iter().enumerate() {
        if has[b] {
            let a = F64x4::load(bands, b * n + i);
            acc = acc.add(a.mul(F64x4::load(x, i.wrapping_add_signed(off))));
        }
    }
    acc
}

/// Line `j` of the band matvec. The first and last columns run
/// [`band_row`] without their west or east band; the interior columns run
/// [`band_chunk`] four rows at a time, then [`band_row`] for the remainder.
/// Boundary rows never touch the band slots they lack, so no zero
/// coefficient is ever multiplied in.
///
/// # Safety
/// As [`matvec_stencil`], with `j < h`, `top` iff `j == 0` and `bottom`
/// iff `j + 1 == h`.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one line of a kernel
unsafe fn band_line<C: Chains>(
    bands: &[f64],
    plan: StencilPlan,
    j: usize,
    top: bool,
    bottom: bool,
    x: &[f64],
    y: &mut [f64],
    chains: C,
    sums: &mut C::Sums,
) {
    let StencilPlan { w, h } = plan;
    let n = w * h;
    let (north, south) = (!top, !bottom);
    let row0 = j * w;
    let end = row0 + w - 1;
    let first = band_row(bands, n, w, row0, x, [north, false, true, true, south]);
    *y.get_unchecked_mut(row0) = first;
    chains.add(sums, row0, first);
    let interior = [north, true, true, true, south];
    let mut i = row0 + 1;
    while i + LANES <= end {
        let acc = band_chunk(bands, n, w, i, x, interior);
        acc.store(y, i);
        chains.add4(sums, i, acc);
        i += LANES;
    }
    while i < end {
        let acc = band_row(bands, n, w, i, x, interior);
        *y.get_unchecked_mut(i) = acc;
        chains.add(sums, i, acc);
        i += 1;
    }
    let last = band_row(bands, n, w, end, x, [north, true, true, false, south]);
    *y.get_unchecked_mut(end) = last;
    chains.add(sums, end, last);
}

/// Stencil matvec body over a wide plan's band-major values: the
/// [`StencilPlan`] pins every column, so there is no `col_idx` indirection,
/// and the bands make the values as contiguous as the `x` operands — an
/// interior chunk of four rows loads each band's four values with one
/// load. Every row accumulates its bands in ascending-column order from a
/// zero accumulator with separate mul/add — exactly the scalar kernel's
/// per-row operation sequence, so the result is bit-identical to
/// [`Csr::matvec_into_scalar`].
///
/// Every written row then joins `chains`; rows are written in ascending
/// order, so each chain has the bits of [`simd::dot_exact`] over `y`. With
/// no chains (`()`) this is the plain matvec.
///
/// # Safety
/// `plan` must be the verified [`StencilPlan`] of the matrix `bands` was
/// derived from (which guarantees `h >= 3`), `bands.len() == BANDS·w·h`,
/// and `x.len() == y.len() == w·h`.
#[inline(always)]
unsafe fn matvec_stencil<C: Chains>(
    bands: &[f64],
    plan: StencilPlan,
    x: &[f64],
    y: &mut [f64],
    chains: C,
) -> C::Sums {
    let h = plan.h;
    let mut sums = chains.start(plan.w * h);
    band_line(bands, plan, 0, true, false, x, y, chains, &mut sums);
    for j in 1..h - 1 {
        band_line(bands, plan, j, false, false, x, y, chains, &mut sums);
    }
    band_line(bands, plan, h - 1, false, true, x, y, chains, &mut sums);
    sums
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
#[target_feature(enable = "avx2")]
unsafe fn matvec_stencil_avx2<C: Chains>(
    bands: &[f64],
    plan: StencilPlan,
    x: &[f64],
    y: &mut [f64],
    chains: C,
) -> C::Sums {
    matvec_stencil(bands, plan, x, y, chains)
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

    /// Rewrite the values (and the bands) for a new scale `s`,
    /// allocation-free.
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
        self.m.derive_bands();
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
        b.with_row_vals_mut(0, |v| v[0] = 9.0);
        assert!(a.same_pattern(&b), "values do not affect the pattern");
        let c = Csr::identity(3);
        assert!(!a.same_pattern(&c));
    }
}
