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
//! so it is 1-D (width or height 1) or has a [`StencilPlan`] (width and
//! height 3 and up). A planned matrix keeps a band-major copy of its
//! values, which the band-line `matvec_stencil` runs over; everything else —
//! 1-D grids, non-stencil patterns — runs the plain
//! [`Csr::matvec_into_scalar`], which is also the differential-test oracle.
//! Both keep every row's accumulation order, so they are bit-identical.
//!
//! Every kernel is safe code that checks its operands once per call or
//! per line: a line's operands are slices one line long and its lane
//! blocks come from `as_chunks`, so the slice shapes prove the inner
//! loops' bounds.

use std::hint;
use std::sync::OnceLock;

use crate::simd::{self, Backend, Chains, F64x4, LANES};

/// The tensor-product 5-point-stencil shape of a CSR pattern, when every
/// row conforms: row `i = j·w + c` stores exactly the columns
/// `{i−w if j>0, i−1 if c>0, i, i+1 if c+1<w, i+w if j+1<h}`, ascending.
/// This is the pattern every [`crate::assemble`] interior operator (and
/// its `I − γ·dt·A` stage matrices, and their ILU(0) factors) has, and it
/// unlocks the structure-aware kernels: a band-line matvec whose values and
/// `x` operands are both contiguous loads (a planned matrix keeps its
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

/// The stencil bands, in a row's storage (ascending-column) order: columns
/// `i−w`, `i−1`, `i`, `i+1` and `i+w` of row `i`.
const BANDS: usize = 5;

impl StencilPlan {
    /// Would a `w × h` stencil pattern have this plan detected (and its
    /// matrix keep bands)? Detection needs an interior row, so `w, h >= 3`.
    pub(crate) fn is_detected(self) -> bool {
        self.w >= 3 && self.h >= 3
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

/// The CSR invariants every reader of the parts relies on, checked in one
/// O(nnz) pass at construction.
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
/// index `< n`. The kernels ([`Csr::matvec_into`], the ILU(0) triangular
/// solves in [`crate::linsolve`]) still check their slices, so a broken
/// invariant would panic, not misread memory.
///
/// Two pieces of derived state ride along: the [`StencilPlan`], detected
/// once and cached, and — when there is one — the values again,
/// band-major: five arrays of `n`, where `bands[b·n + i]` is row `i`'s
/// entry in band `b` (see `BANDS`); a slot a boundary row lacks holds a
/// value whose product no kernel keeps. Every value writer writes them: the constructors (which detect
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
    /// The values band-major for a stencil plan; empty otherwise.
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

    /// Build from pre-assembled CSR parts, for a caller that wrote the
    /// band-major values itself ([`crate::assemble::assemble`]): `row_ptr`
    /// must be monotone with `row_ptr[0] == 0` and `row_ptr[n] ==
    /// col_idx.len()`, every row's columns strictly increasing, and `bands`
    /// empty when the pattern has no plan and otherwise five arrays of `n`
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

    /// Detect the plan now and derive the bands when there is one.
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
        if a.stencil_plan().is_some() {
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

    /// Band `b` (in `BANDS` order) of a stencil-plan matrix: row `i`'s
    /// entry in that band is element `i`.
    pub(crate) fn band(&self, b: usize) -> &[f64] {
        &self.bands[b * self.n..(b + 1) * self.n]
    }

    /// Rewrite every band slot from the row-major values. A line's edge
    /// rows go one by one; its interior rows all store the same bands and
    /// sit back to back, so each band is one strided copy out of that run.
    fn derive_bands(&mut self) {
        let Some(plan) = self.stencil_plan() else {
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

    /// Are the bands there exactly when there is a plan, holding the bits
    /// [`Csr::derive_bands`] writes?
    fn bands_in_sync(&self) -> bool {
        let planned = self.stencil_plan().is_some();
        if self.bands.len() != usize::from(planned) * BANDS * self.n {
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
        if let Some(plan) = self.stencil_plan() {
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
    /// Two routes: the band-line stencil kernel for a matrix with a plan,
    /// dispatched on the SIMD backend, and [`Csr::matvec_into_scalar`] for
    /// everything else. The band-line kernel adds each row to every chain as
    /// it writes it, so the serial adds overlap the matvec; the scalar route
    /// writes `y` first and then runs all the chains in one pass.
    #[allow(unsafe_code)]
    pub fn matvec_dots<C: Chains>(&self, x: &[f64], y: &mut [f64], chains: C) -> C::Sums {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        match self.stencil_plan() {
            Some(plan) => {
                let bands = &self.bands[..];
                match simd::backend() {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `backend()` returns Avx2 only after detecting
                    // AVX2 on this CPU, the one precondition of the safe
                    // `target_feature` twin.
                    Backend::Avx2 => unsafe { matvec_stencil_avx2(bands, plan, x, y, chains) },
                    _ => matvec_stencil(bands, plan, x, y, chains),
                }
            }
            _ => {
                self.matvec_into_scalar(x, y);
                simd::dots_exact(y, chains)
            }
        }
    }

    /// `y = A·x` with the plain per-row scalar loop: the route of every
    /// pattern without a stencil kernel (1-D grids, general matrices), and
    /// the differential-test oracle for the stencil kernels.
    pub fn matvec_into_scalar(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (yi, ends) in y.iter_mut().zip(self.row_ptr.windows(2)) {
            let (cols, vals) = (
                &self.col_idx[ends[0]..ends[1]],
                &self.vals[ends[0]..ends[1]],
            );
            let mut acc = 0.0;
            for (&c, v) in cols.iter().zip(vals) {
                acc += v * x[c];
            }
            *yi = acc;
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

/// One row of the band matvec, scalar: the products of the bands `has`
/// marks, added in ascending-column order to a zero accumulator — the
/// scalar kernel's per-row operation sequence. `a` and `x` hold each band's
/// coefficient and `x` operand; an unmarked one is never read.
#[inline(always)]
fn band_row(a: [f64; BANDS], x: [f64; BANDS], has: [bool; BANDS]) -> f64 {
    let mut acc = 0.0;
    for b in 0..BANDS {
        if has[b] {
            acc += a[b] * x[b];
        }
    }
    acc
}

/// `f` of each band's entry of `a`, spelled out: `array::map` and
/// `array::from_fn` can compile to an out-of-line call per use, which a
/// kernel cannot afford per line.
#[inline(always)]
fn per_band<T: Copy, U>(a: [T; BANDS], f: impl Fn(T) -> U) -> [U; BANDS] {
    [f(a[0]), f(a[1]), f(a[2]), f(a[3]), f(a[4])]
}

/// Column `c` of a [`band_line`], scalar: [`band_row`] over the bands
/// `has` marks. (A fn, not a closure: a closure called from several places
/// can be compiled out of line.)
#[inline(always)]
fn line_row<const NORTH: bool, const SOUTH: bool>(
    a: [&[f64]; BANDS],
    [xn, xl, xs]: [&[f64]; 3],
    c: usize,
    has: [bool; BANDS],
) -> f64 {
    let x = [
        if NORTH { xn[c] } else { 0.0 },
        if has[1] { xl[c - 1] } else { 0.0 },
        xl[c],
        if has[3] { xl[c + 1] } else { 0.0 },
        if SOUTH { xs[c] } else { 0.0 },
    ];
    band_row(per_band(a, |s| s[c]), x, has)
}

/// One line of the band matvec, `w` rows, on a line that has (`NORTH`,
/// `SOUTH`) or lacks the north and south bands. `a` holds each band's
/// values for the line's rows; `[xn, xl, xs]` the line of `x` above, the
/// line's own and the line below (an absent one may be any line: it is
/// not read); `y` the line's rows; and `chains` runs over the line alone.
/// Each is `w` long, so the slice shapes and the loop bounds bound every
/// index. `W` is the width as a constant, or 0 to take it from `y`.
///
/// The first and last columns run [`band_row`] without their west or east
/// band. The interior columns `1 .. w−1` run four rows at a time — per
/// band one lane block of values and one of `x`, multiplied and added
/// lanewise in band order from zero, so each lane is [`band_row`]'s
/// operation sequence — and then [`band_row`] for the remainder. Rows join
/// `chains` in order; a lane block joins once the next one is written,
/// read back from `y`: fed straight from the lanes, the chain's adds
/// lead LLVM to split the whole block's arithmetic into 128-bit halves.
#[inline(always)]
fn band_line<const NORTH: bool, const SOUTH: bool, const W: usize, C: Chains>(
    a: [&[f64]; BANDS],
    [xn, xl, xs]: [&[f64]; 3],
    y: &mut [f64],
    chains: C,
    sums: &mut C::Sums,
) {
    let w = if W == 0 { y.len() } else { W };
    assert!(w >= 3 && y.len() == w, "a stencil line");
    let (a, xn, xl, xs) = (per_band(a, |s| &s[..w]), &xn[..w], &xl[..w], &xs[..w]);
    let xo = [xn, xl, xs];
    let interior = [NORTH, true, true, true, SOUTH];
    y[0] = line_row::<NORTH, SOUTH>(a, xo, 0, [NORTH, false, true, true, SOUTH]);
    chains.add(sums, 0, y[0]);
    // Every interior operand is a slice w − 2 long, so its lane blocks
    // line up with `y`'s.
    let (y4, _) = y[1..w - 1].as_chunks_mut::<LANES>();
    let k = y4.len();
    let a4 = per_band(a, |s| &s[1..w - 1].as_chunks::<LANES>().0[..k]);
    let xb = [
        &xn[1..w - 1],
        &xl[..w - 2],
        &xl[1..w - 1],
        &xl[2..],
        &xs[1..w - 1],
    ];
    let x4 = per_band(xb, |s| &s.as_chunks::<LANES>().0[..k]);
    for q in 0..k {
        let mut v = F64x4::zero();
        for b in 0..BANDS {
            if interior[b] {
                v = v.add(F64x4(a4[b][q]).mul(F64x4(x4[b][q])));
            }
        }
        y4[q] = v.0;
        if q > 0 {
            chains.add4(sums, 1 + (q - 1) * LANES, F64x4(y4[q - 1]));
        }
    }
    if k > 0 {
        chains.add4(sums, 1 + (k - 1) * LANES, F64x4(y4[k - 1]));
    }
    #[allow(clippy::needless_range_loop)] // the column indexes every operand
    for c in 1 + k * LANES..w - 1 {
        y[c] = line_row::<NORTH, SOUTH>(a, xo, c, interior);
        chains.add(sums, c, y[c]);
    }
    y[w - 1] = line_row::<NORTH, SOUTH>(a, xo, w - 1, [NORTH, true, true, false, SOUTH]);
    chains.add(sums, w - 1, y[w - 1]);
}

/// Stencil matvec body over a planned matrix's band-major values: the
/// [`StencilPlan`] pins every column, so there is no `col_idx` indirection,
/// and the bands make the values as contiguous as the `x` operands — an
/// interior chunk of four rows loads each band's four values with one
/// load. Every row accumulates its bands in ascending-column order from a
/// zero accumulator with separate mul/add — exactly the scalar kernel's
/// per-row operation sequence, so the result is bit-identical to
/// [`Csr::matvec_into_scalar`].
///
/// Lines run in ascending order through [`band_line`], each handed its
/// band, `x` and `y` lines and its stretch of `chains`, so each chain has
/// the bits of [`simd::dot_exact`] over `y`. With no chains (`()`) this is
/// the plain matvec. Lines up to 31 wide — the grids' 3, 7, 15 and 31 —
/// run with the width as a constant: slicing and setting up a line then
/// compiles to a few adds, where at run-time width it costs as much as
/// the line's rows (1.3–2× at w ≤ 15).
#[inline(always)]
fn matvec_stencil<C: Chains>(
    bands: &[f64],
    plan: StencilPlan,
    x: &[f64],
    y: &mut [f64],
    chains: C,
) -> C::Sums {
    match plan.w {
        3 => band_lines::<3, C>(bands, plan, x, y, chains),
        7 => band_lines::<7, C>(bands, plan, x, y, chains),
        15 => band_lines::<15, C>(bands, plan, x, y, chains),
        31 => band_lines::<31, C>(bands, plan, x, y, chains),
        _ => band_lines::<0, C>(bands, plan, x, y, chains),
    }
}

/// [`matvec_stencil`] with the line width `W`, or `plan.w` for `W = 0`.
#[inline(always)]
fn band_lines<const W: usize, C: Chains>(
    bands: &[f64],
    plan: StencilPlan,
    x: &[f64],
    y: &mut [f64],
    chains: C,
) -> C::Sums {
    let h = plan.h;
    let w = if W == 0 { plan.w } else { W };
    let n = w * h;
    assert!(plan.is_detected() && plan.w == w, "a stencil plan");
    assert!(
        x.len() == n && y.len() == n && bands.len() == BANDS * n,
        "matvec_stencil operand lengths"
    );
    let mut sums = chains.start(n);
    let band = per_band([0, 1, 2, 3, 4], |b| &bands[b * n..(b + 1) * n]);
    let line = |j: usize| j * w..(j + 1) * w;
    let acc = &mut sums;
    let (a, yl) = (per_band(band, |s| &s[line(0)]), &mut y[line(0)]);
    band_line::<false, true, W, C>(a, [x, x, &x[line(1)]], yl, chains.sub(line(0)), acc);
    for j in 1..h - 1 {
        // With no chain ordering the lines, LLVM vectorizes this loop
        // across lines, with strided gathers (2× slower at w = 7); an
        // opaque line index keeps it a loop of lines.
        let j = if size_of::<C::Sums>() == 0 {
            hint::black_box(j)
        } else {
            j
        };
        let (a, yl) = (per_band(band, |s| &s[line(j)]), &mut y[line(j)]);
        let xo = [&x[line(j - 1)], &x[line(j)], &x[line(j + 1)]];
        band_line::<true, true, W, C>(a, xo, yl, chains.sub(line(j)), acc);
    }
    let (a, yl) = (per_band(band, |s| &s[line(h - 1)]), &mut y[line(h - 1)]);
    let xo = [&x[line(h - 2)], &x[line(h - 1)], x];
    band_line::<true, false, W, C>(a, xo, yl, chains.sub(line(h - 1)), acc);
    sums
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matvec_stencil_avx2<C: Chains>(
    bands: &[f64],
    plan: StencilPlan,
    x: &[f64],
    y: &mut [f64],
    chains: C,
) -> C::Sums {
    matvec_stencil(bands, plan, x, y, chains)
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
pub(crate) mod tests {
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
        let d = Csr::from_parts_and_bands(
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0],
            Vec::new(),
        );
        assert_eq!(t, d);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_bad_row_ptr() {
        let _ = Csr::from_parts_and_bands(2, vec![0, 1], vec![0], vec![1.0], Vec::new());
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

    /// A [`stencil_matrix`] whose band slots for bands a row lacks hold
    /// NaN, so a kernel that keeps a product of one fails loudly.
    pub(crate) fn poisoned_stencil_matrix(w: usize, h: usize) -> Csr {
        let mut a = stencil_matrix(w, h);
        let n = a.n;
        for i in 0..n {
            let present = StencilPlan { w, h }.present(i / w, i % w);
            for b in (0..BANDS).filter(|&b| !present[b]) {
                a.bands[b * n + i] = f64::NAN;
            }
        }
        a
    }

    /// A w×h 5-point-stencil matrix with smoothly varying, row-distinct
    /// values (so a misplaced band or a swapped neighbor cannot cancel).
    pub(crate) fn stencil_matrix(w: usize, h: usize) -> Csr {
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
        // Shapes cover w == 2 (no plan: scalar), the widths below 8 (3 and
        // 7 at constant width, as grids have them, 4–6 as no grid has),
        // wide-and-short, chunk remainders (w-2 mod 4 in every class), and
        // a square large enough for several four-row chunks per line.
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

    /// The shapes every backend's stencil kernels are pinned on: every
    /// line width up to 8 (no lane block, or one, per line), wider lines
    /// with every chunk remainder, the constant widths 3, 7, 15 and 31, and
    /// line counts that give one or several interior lines.
    pub(crate) const KERNEL_SHAPES: ([usize; 10], [usize; 4]) =
        ([3, 4, 5, 6, 7, 8, 10, 11, 15, 31], [3, 4, 5, 9]);

    #[test]
    fn portable_and_dispatched_matvec_match_scalar_bitwise() {
        // The portable body runs here whatever the host; the dispatched
        // call runs the AVX2 twin on a host with AVX2. Both carry a square
        // and a dot chain, which must have `dot_exact`'s bits.
        let (widths, heights) = KERNEL_SHAPES;
        for (w, h) in widths.into_iter().flat_map(|w| heights.map(|h| (w, h))) {
            let a = poisoned_stencil_matrix(w, h);
            let plan = a.stencil_plan().expect("a stencil plan");
            let n = w * h;
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() * 2.5).collect();
            let r: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let mut want = vec![0.0; n];
            a.matvec_into_scalar(&x, &mut want);
            let want_sums = [simd::dot_exact(&want, &want), simd::dot_exact(&want, &r)];
            let (mut portable, mut dispatched) = (vec![0.0; n], vec![0.0; n]);
            let chains = (simd::Square, simd::Dot(&r));
            let sums = [
                matvec_stencil(&a.bands, plan, &x, &mut portable, chains),
                a.matvec_dots(&x, &mut dispatched, chains),
            ];
            for (y, got) in [portable, dispatched].iter().zip(sums) {
                assert_eq!(*y, want, "{w}x{h}");
                assert_eq!(
                    got.map(f64::to_bits),
                    want_sums.map(f64::to_bits),
                    "{w}x{h}"
                );
            }
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
