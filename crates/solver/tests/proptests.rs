//! Property-based tests of the numerical substrate.

use proptest::prelude::*;
use solver::assemble::assemble;
use solver::combine::{combine, prolong_bilinear};
use solver::grid::{Grid2, GridIndex};
use solver::linsolve::{bicgstab_with, Ilu0, KrylovWorkspace, Preconditioner};
use solver::problem::Problem;
use solver::simd::{dot_exact, s_update, Dot, Square};
use solver::sparse::{CachedStage, Csr, StencilPlan};
use solver::{l2_norm, linf_norm, WorkCounter};

// -------------------------------------------------------------------- CSR

/// Random small sparse matrix with a guaranteed nonzero diagonal.
fn arb_csr(n: usize) -> impl Strategy<Value = Csr> {
    let off = prop::collection::vec((0..n, 0..n, -2.0..2.0f64), 0..3 * n);
    let diag = prop::collection::vec(1.0..4.0f64, n);
    (off, diag).prop_map(move |(off, diag)| {
        let mut t: Vec<(usize, usize, f64)> = off;
        for (i, d) in diag.into_iter().enumerate() {
            t.push((i, i, d + 4.0)); // diagonally dominant-ish
        }
        Csr::from_triplets(n, &t)
    })
}

proptest! {
    /// CSR matvec agrees with the dense product.
    #[test]
    fn csr_matvec_matches_dense(a in arb_csr(8), x in prop::collection::vec(-3.0..3.0f64, 8)) {
        let y = a.matvec(&x);
        let d = a.to_dense();
        for r in 0..8 {
            let want: f64 = (0..8).map(|c| d[r][c] * x[c]).sum();
            prop_assert!((y[r] - want).abs() < 1e-10);
        }
    }

    /// `I - s·A` evaluated against a vector equals `x - s·A·x`.
    #[test]
    fn identity_minus_scaled_consistent(
        a in arb_csr(6),
        x in prop::collection::vec(-2.0..2.0f64, 6),
        s in -1.0..1.0f64
    ) {
        let m = a.identity_minus_scaled(s);
        let lhs = m.matvec(&x);
        let ax = a.matvec(&x);
        for i in 0..6 {
            prop_assert!((lhs[i] - (x[i] - s * ax[i])).abs() < 1e-10);
        }
    }

    /// Triplet order never matters.
    #[test]
    fn csr_from_triplets_is_order_independent(
        mut t in prop::collection::vec((0usize..5, 0usize..5, -1.0..1.0f64), 1..20),
        seed in any::<u64>()
    ) {
        let a = Csr::from_triplets(5, &t);
        // Deterministic shuffle.
        let mut s = seed;
        for i in (1..t.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            t.swap(i, j);
        }
        let b = Csr::from_triplets(5, &t);
        for r in 0..5 {
            for c in 0..5 {
                let av = a.get(r, c).unwrap_or(0.0);
                let bv = b.get(r, c).unwrap_or(0.0);
                prop_assert!((av - bv).abs() < 1e-12);
            }
        }
    }

    /// `from_triplets` against the naive oracle: accumulate every triplet
    /// (duplicates included, shuffled order) into a dense matrix, then
    /// compare entry by entry. Also pins the structural contract the
    /// solver kernels rely on: one stored entry per distinct `(r, c)` pair
    /// and strictly increasing columns within each row.
    #[test]
    fn csr_from_triplets_matches_dense_accumulation(
        t in prop::collection::vec((0usize..6, 0usize..6, -2.0..2.0f64), 1..40),
        seed in any::<u64>()
    ) {
        const N: usize = 6;
        // Shuffle deterministically so duplicates arrive in varied order.
        let mut shuffled = t.clone();
        let mut s = seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }

        // Oracle: accumulation order per (r, c) must follow the *sorted*
        // input order (stable sort by (r, c)), which is what a dense
        // accumulator over the stably sorted triplets produces.
        let mut sorted = shuffled.clone();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut dense = [[0.0f64; N]; N];
        for &(r, c, v) in &sorted {
            dense[r][c] += v;
        }

        let a = Csr::from_triplets(N, &shuffled);

        // Every stored entry agrees with the dense oracle, bit for bit in
        // the common case (same summation order) and to roundoff always.
        for (r, row) in dense.iter().enumerate() {
            for (c, want) in row.iter().enumerate() {
                let av = a.get(r, c).unwrap_or(0.0);
                prop_assert!((av - want).abs() < 1e-12, "({r},{c}): {av} vs {want}");
            }
        }

        // nnz equals the number of *distinct* coordinates — duplicates
        // merge, nothing is dropped (even if values cancel to 0.0).
        let mut coords: Vec<(usize, usize)> = t.iter().map(|&(r, c, _)| (r, c)).collect();
        coords.sort_unstable();
        coords.dedup();
        prop_assert_eq!(a.nnz(), coords.len());

        // Rows hold strictly increasing column indices.
        for r in 0..N {
            let (cols, _) = a.row(r);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r}: {cols:?}");
        }
    }
}

// ------------------------------------------------- SIMD kernel dispatch
//
// The production kernels (`Csr::matvec_into`, `Ilu0::apply`) promise *bit
// identity* with the plain scalar loops on every backend and for every
// dispatch route (the band-line matvec, at constant or run-time width, the
// wavefront sweeps, and the scalar fallback for everything else). These
// differentials pin that promise on adversarial shapes: odd lengths,
// remainder lanes, and stencil grids of every width from 3; the census
// test below pins which route every production grid takes.

/// Deterministic pseudo-random vector (splitmix-style) in roughly ±1.
fn test_vector(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let mut z = seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            ((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// Random pentadiagonal CSR: bands at offsets `{-b, -1, 0, +1, +b}`, each
/// off-diagonal entry present with probability ~0.7 (so rows have ragged
/// lengths and the pattern rarely conforms to a stencil plan), strongly
/// diagonally dominant. Its first full row often looks like a stencil row
/// of width `b`, so it is the routing guard for non-stencil patterns: a
/// plan must be rejected (scalar fallback) unless every row conforms.
fn arb_pentadiagonal() -> impl Strategy<Value = Csr> {
    // The vendored proptest has no `prop_flat_map`, so draw fixed-size
    // entry pools for the largest `n` and slice what the drawn size needs.
    (
        1usize..26,
        2usize..6,
        prop::collection::vec((0.0..1.0f64, -1.5..1.5f64), 100..101),
        prop::collection::vec(7.0..9.0f64, 25..26),
    )
        .prop_map(|(n, b, offdiag, diag)| {
            let mut t = Vec::new();
            for i in 0..n {
                t.push((i, i, diag[i]));
                for (q, &off) in [1usize, b].iter().enumerate() {
                    let (pl, vl) = offdiag[4 * i + 2 * q];
                    let (pu, vu) = offdiag[4 * i + 2 * q + 1];
                    if pl < 0.7 && i >= off {
                        t.push((i, i - off, vl));
                    }
                    if pu < 0.7 && i + off < n {
                        t.push((i, i + off, vu));
                    }
                }
            }
            Csr::from_triplets(n, &t)
        })
}

/// Exact 5-point tensor-product stencil matrix on a `w × h` grid with
/// random band values, spanning the band-line matvec at constant (`w ∈
/// {3, 7}`) and run-time width and the wavefront sweep. Width starts at 3:
/// a 2-wide grid has no 5-entry row for detection to anchor on.
fn arb_stencil_csr() -> impl Strategy<Value = (Csr, usize, usize)> {
    // Entry pools sized for the largest `w × h` (see `arb_pentadiagonal`).
    (
        3usize..11,
        3usize..9,
        prop::collection::vec(-1.0..1.0f64, 320..321),
        prop::collection::vec(7.0..9.0f64, 80..81),
    )
        .prop_map(|(w, h, bands, diag)| {
            let n = w * h;
            let mut t = Vec::new();
            for i in 0..n {
                let (j, c) = (i / w, i % w);
                t.push((i, i, diag[i]));
                if j > 0 {
                    t.push((i, i - w, bands[4 * i]));
                }
                if c > 0 {
                    t.push((i, i - 1, bands[4 * i + 1]));
                }
                if c + 1 < w {
                    t.push((i, i + 1, bands[4 * i + 2]));
                }
                if j + 1 < h {
                    t.push((i, i + w, bands[4 * i + 3]));
                }
            }
            (Csr::from_triplets(n, &t), w, h)
        })
}

proptest! {
    /// Dispatched matvec and ILU(0) sweeps are bit-identical to the scalar
    /// loops on ragged pentadiagonal systems: a near-stencil pattern must
    /// still route to the scalar fallback.
    #[test]
    fn simd_kernels_bit_identical_on_pentadiagonal(
        a in arb_pentadiagonal(),
        seed in any::<u64>()
    ) {
        let n = a.n();
        let x = test_vector(n, seed);
        let mut y = vec![0.0; n];
        let mut y_s = vec![0.0; n];
        a.matvec_into(&x, &mut y);
        a.matvec_into_scalar(&x, &mut y_s);
        for i in 0..n {
            prop_assert_eq!(y[i].to_bits(), y_s[i].to_bits(), "matvec row {}", i);
        }

        let mut w = WorkCounter::new();
        let ilu = Ilu0::new(&a, &mut w);
        let mut z = vec![0.0; n];
        let mut z_s = vec![0.0; n];
        ilu.apply(&x, &mut z, &mut w);
        ilu.apply_scalar(&x, &mut z_s);
        for i in 0..n {
            prop_assert_eq!(z[i].to_bits(), z_s[i].to_bits(), "sweep row {}", i);
        }
    }

    /// On conforming stencil grids the plan is detected and the
    /// structure-aware routes (band-line matvec, wavefront sweeps) stay
    /// bit-identical to the scalar loops.
    #[test]
    fn simd_kernels_bit_identical_on_stencil_grids(
        (a, w, h) in arb_stencil_csr(),
        seed in any::<u64>()
    ) {
        prop_assert_eq!(a.stencil_plan(), Some(StencilPlan { w, h }));
        let n = a.n();
        let x = test_vector(n, seed);
        let mut y = vec![0.0; n];
        let mut y_s = vec![0.0; n];
        a.matvec_into(&x, &mut y);
        a.matvec_into_scalar(&x, &mut y_s);
        for i in 0..n {
            prop_assert_eq!(y[i].to_bits(), y_s[i].to_bits(), "matvec row {}", i);
        }

        let mut wk = WorkCounter::new();
        let ilu = Ilu0::new(&a, &mut wk);
        let mut z = vec![0.0; n];
        let mut z_s = vec![0.0; n];
        ilu.apply(&x, &mut z, &mut wk);
        ilu.apply_scalar(&x, &mut z_s);
        for i in 0..n {
            prop_assert_eq!(z[i].to_bits(), z_s[i].to_bits(), "sweep row {}", i);
        }
    }
}

/// The census of production shapes, pinned. A grid's interior width is
/// `2^(root+l) − 1`, so every stage matrix of every combination grid is a
/// stencil with `w ∈ {3, 7}` or `w ≥ 8` — all run the band-line matvec and
/// the wavefront sweeps, lines 3, 7, 15 and 31 wide at constant width —
/// or a 1-D grid with no plan (the scalar fallback). A grid family whose
/// stage matrices lose their plan fails here instead of silently running
/// the scalar loops. Assembly only; levels are capped so the largest grid
/// stays near 4k unknowns.
#[test]
fn every_combination_grid_has_a_stencil_kernel_or_is_1d() {
    let p = Problem::transport_benchmark();
    for root in 0..=4u32 {
        for level in 0..=8 - root {
            for idx in Grid2::combination_indices(level) {
                let g = Grid2::new(root, idx.l, idx.m);
                let (w, h) = (g.nx - 1, g.ny - 1);
                let mut wk = WorkCounter::new();
                let m = assemble(&g, &p, &mut wk).a.identity_minus_scaled(0.01);
                let plan = m.stencil_plan();
                let at = format!("root {root} grid {idx}: {w}x{h}");
                if w <= 1 || h <= 1 {
                    assert_eq!(plan, None, "{at}");
                } else {
                    assert_eq!(plan, Some(StencilPlan { w, h }), "{at}");
                    assert!(
                        h >= 3 && (w == 3 || w == 7 || w >= 8),
                        "{at}: no stencil kernel for this width"
                    );
                }
            }
        }
    }
}

// ------------------------------------------------------ fused reductions
//
// BiCGSTAB's dot products ride the passes that write their operands
// (`s_update`, `Csr::matvec_dots`). Each fused kernel must give exactly
// the bits of the unfused sequence: the plain update or matvec, then one
// `dot_exact` per chain.

/// The unfused oracle for a chain set over a finished `y`.
fn unfused_chains(y: &[f64], w: &[f64]) -> [u64; 2] {
    [dot_exact(y, y).to_bits(), dot_exact(y, w).to_bits()]
}

/// `matvec_dots` against `matvec_into` + `dot_exact` per chain, with one
/// and two chains, on a matrix whose route the caller picked.
fn check_matvec_dots(a: &Csr, seed: u64) {
    let n = a.n();
    let x = test_vector(n, seed);
    let w = test_vector(n, seed ^ 0x5eed);
    let mut y = vec![0.0; n];
    a.matvec_into(&x, &mut y);

    let mut y2 = vec![0.0; n];
    let [sq, dot] = a.matvec_dots(&x, &mut y2, (Square, Dot(&w)));
    prop_assert_eq!(&y2, &y);
    prop_assert_eq!([sq.to_bits(), dot.to_bits()], unfused_chains(&y, &w));

    let mut y1 = vec![0.0; n];
    let [dot1] = a.matvec_dots(&x, &mut y1, (Dot(&w),));
    prop_assert_eq!(&y1, &y);
    prop_assert_eq!(dot1.to_bits(), dot.to_bits());
}

proptest! {
    /// `s = r − αv` with `‖s‖²` and `(s, w)` riding the update, at lengths
    /// with every lane-remainder size.
    #[test]
    fn s_update_chains_match_unfused(
        n in 0usize..40,
        alpha in -3.0..3.0f64,
        seed in any::<u64>()
    ) {
        let r = test_vector(n, seed);
        let v = test_vector(n, seed ^ 1);
        let w = test_vector(n, seed ^ 2);
        let want: Vec<f64> = r.iter().zip(&v).map(|(ri, vi)| ri - alpha * vi).collect();

        let mut s = vec![0.0; n];
        let [sq, dot] = s_update(&mut s, &r, alpha, &v, (Square, Dot(&w)));
        prop_assert_eq!(&s, &want);
        prop_assert_eq!([sq.to_bits(), dot.to_bits()], unfused_chains(&want, &w));

        let mut s1 = vec![0.0; n];
        let [sq1] = s_update(&mut s1, &r, alpha, &v, (Square,));
        prop_assert_eq!(&s1, &want);
        prop_assert_eq!(sq1.to_bits(), sq.to_bits());
    }

    /// Stencil grids on both sides of the width where the matvec starts
    /// carrying its chains itself (narrower ones take the one-pass
    /// fallback).
    #[test]
    fn matvec_dots_match_unfused_on_stencil_grids(
        (a, w, h) in arb_stencil_csr(),
        seed in any::<u64>()
    ) {
        prop_assert_eq!(a.stencil_plan(), Some(StencilPlan { w, h }));
        check_matvec_dots(&a, seed);
    }

    /// Ragged non-stencil patterns: the scalar matvec, then the one-pass
    /// chains.
    #[test]
    fn matvec_dots_match_unfused_on_pentadiagonal(
        a in arb_pentadiagonal(),
        seed in any::<u64>()
    ) {
        check_matvec_dots(&a, seed);
    }
}

/// `matvec_dots` against the scalar loop and `dot_exact` per chain: what
/// any route must give, whatever state (bands included) it reads.
fn check_matvec_dots_against_scalar(a: &Csr, seed: u64) {
    let n = a.n();
    let x = test_vector(n, seed);
    let w = test_vector(n, seed ^ 0x5eed);
    let mut y = vec![0.0; n];
    a.matvec_into_scalar(&x, &mut y);
    let mut y2 = vec![0.0; n];
    let [sq, dot] = a.matvec_dots(&x, &mut y2, (Square, Dot(&w)));
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&y2), bits(&y));
    prop_assert_eq!([sq.to_bits(), dot.to_bits()], unfused_chains(&y, &w));
}

/// `Ilu0::apply` (the wavefront sweeps on a stencil factor) against
/// `apply_scalar`, bit for bit.
fn check_sweeps_against_scalar(ilu: &Ilu0, seed: u64) {
    let n = ilu.factors().n();
    let r = test_vector(n, seed ^ 0x5ee9);
    let (mut z, mut z_s) = (vec![0.0; n], vec![0.0; n]);
    ilu.apply(&r, &mut z, &mut WorkCounter::new());
    ilu.apply_scalar(&r, &mut z_s);
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&z), bits(&z_s));
}

/// [`check_matvec_dots_against_scalar`] on `a`, and
/// [`check_sweeps_against_scalar`] on the ILU(0) built from it.
fn check_kernels_against_scalar(a: &Csr, seed: u64) {
    check_matvec_dots_against_scalar(a, seed);
    check_sweeps_against_scalar(&Ilu0::new(a, &mut WorkCounter::new()), seed);
}

/// The 5-point stencil matrix of a `w × h` grid with values drawn from
/// `seed` and a dominant diagonal (so its ILU(0) stays finite).
fn seeded_stencil(w: usize, h: usize, seed: u64) -> Csr {
    let n = w * h;
    let v = test_vector(5 * n, seed);
    let mut t = Vec::new();
    for i in 0..n {
        let (j, c) = (i / w, i % w);
        if j > 0 {
            t.push((i, i - w, v[5 * i]));
        }
        if c > 0 {
            t.push((i, i - 1, v[5 * i + 1]));
        }
        t.push((i, i, 8.0 + v[5 * i + 2]));
        if c + 1 < w {
            t.push((i, i + 1, v[5 * i + 3]));
        }
        if j + 1 < h {
            t.push((i, i + w, v[5 * i + 4]));
        }
    }
    Csr::from_triplets(n, &t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No value writer leaves a band-major copy stale: after each one, the
    /// fused matvec (which reads the bands) still equals the scalar loop
    /// (which reads the row-major values) and `dot_exact`, and the ILU(0)
    /// of the matrix sweeps (the wavefront reads the factor's bands) as
    /// `apply_scalar` does, bit for bit. Widths 3, 7, 15 and 31 run the
    /// constant-width kernel and 8 the run-time one (h = 3 and 9); h = 2
    /// has no stencil plan and pins the scalar route.
    #[test]
    fn matvec_dots_match_scalar_after_every_value_writer(
        seed in any::<u64>(),
        s1 in 0.001..0.1f64,
        s2 in 0.001..0.1f64,
        pick in any::<u64>()
    ) {
        for w in [3, 7, 8, 15, 31] {
            for h in [2, 3, 9] {
                let n = w * h;
                let mut a = seeded_stencil(w, h, seed);
                check_kernels_against_scalar(&a, seed);

                let bump = test_vector(a.nnz(), seed ^ 1);
                a.with_raw_parts_mut(|_, _, v| v.iter_mut().zip(&bump).for_each(|(vi, d)| *vi += d));
                check_kernels_against_scalar(&a, seed ^ 2);
                a.with_raw_parts_mut(|_, _, v| v.iter_mut().for_each(|vi| *vi *= -1.5));
                check_kernels_against_scalar(&a, seed ^ 3);
                for r in [0, (pick % n as u64) as usize, n - 1] {
                    a.with_row_vals_mut(r, |v| v.iter_mut().for_each(|vi| *vi += 3.25));
                    check_kernels_against_scalar(&a, seed ^ 4);
                }

                let mut stage = CachedStage::new(&a, s1);
                check_kernels_against_scalar(stage.matrix(), seed ^ 5);
                stage.rewrite(&a, s2);
                check_kernels_against_scalar(stage.matrix(), seed ^ 6);

                let mut wk = WorkCounter::new();
                let mut ilu = Ilu0::new(stage.matrix(), &mut wk);
                check_matvec_dots_against_scalar(ilu.factors(), seed ^ 7);
                check_sweeps_against_scalar(&ilu, seed ^ 7);
                stage.rewrite(&a, s1);
                ilu.refactor(stage.matrix(), &mut wk);
                check_matvec_dots_against_scalar(ilu.factors(), seed ^ 8);
                check_sweeps_against_scalar(&ilu, seed ^ 8);
            }
        }
    }
}

/// When every product is `-0.0`, only the chain's start value decides the
/// sign of the sum, so this pins it to `dot_exact`'s on every route.
#[test]
fn fused_chains_start_where_dot_exact_starts() {
    let neg = |n: usize| vec![-0.0f64; n];
    // A matvec over x = 0 writes +0.0 rows; against w = -0.0 each product
    // is -0.0. Widths 7 (constant) and 12 (run-time) take the two widths
    // of the band-line matvec; the 1-D Laplacian has no stencil plan.
    let stencil = |w: usize, h: usize| {
        let mut t = Vec::new();
        for i in 0..w * h {
            let (j, c) = (i / w, i % w);
            t.push((i, i, 4.0));
            if j > 0 {
                t.push((i, i - w, -1.0));
            }
            if c > 0 {
                t.push((i, i - 1, -1.0));
            }
            if c + 1 < w {
                t.push((i, i + 1, -1.0));
            }
            if j + 1 < h {
                t.push((i, i + w, -1.0));
            }
        }
        Csr::from_triplets(w * h, &t)
    };
    let lap: Vec<_> = (0..9)
        .flat_map(|i| [(i, i, 2.0), (i, (i + 1) % 9, -1.0)])
        .collect();
    for a in [stencil(7, 5), stencil(12, 5), Csr::from_triplets(9, &lap)] {
        let n = a.n();
        let (x, w) = (vec![0.0; n], neg(n));
        let mut y = vec![0.0; n];
        let [dot] = a.matvec_dots(&x, &mut y, (Dot(&w),));
        assert_eq!(dot.to_bits(), (-0.0f64).to_bits(), "n = {n}");
        assert_eq!(dot.to_bits(), dot_exact(&y, &w).to_bits());
    }
    // s = (-0.0) - 1·(+0.0) = -0.0; against w = +0.0 each product is -0.0.
    for n in [1, 3, 4, 7] {
        let (r, v, w) = (neg(n), vec![0.0; n], vec![0.0; n]);
        let mut s = vec![0.0; n];
        let [dot] = s_update(&mut s, &r, 1.0, &v, (Dot(&w),));
        assert_eq!(dot.to_bits(), (-0.0f64).to_bits(), "n = {n}");
        assert_eq!(dot.to_bits(), dot_exact(&s, &w).to_bits());
    }
}

// --------------------------------------------------------------- linsolve

proptest! {
    /// BiCGSTAB + ILU(0) solves diagonally dominant systems to the
    /// requested residual.
    #[test]
    fn bicgstab_converges_on_dominant_systems(
        a in arb_csr(10),
        x_true in prop::collection::vec(-2.0..2.0f64, 10)
    ) {
        let b = a.matvec(&x_true);
        let mut w = WorkCounter::new();
        let ilu = Ilu0::new(&a, &mut w);
        let mut x = vec![0.0; 10];
        let stats = bicgstab_with(&a, &ilu, &b, &mut x, 1e-9, 500, &mut KrylovWorkspace::new(), &mut w);
        prop_assert!(stats.is_ok(), "solve failed: {stats:?}");
        let r: Vec<f64> = a
            .matvec(&x)
            .iter()
            .zip(&b)
            .map(|(ax, bi)| ax - bi)
            .collect();
        prop_assert!(l2_norm(&r) <= 1e-6 * (1.0 + l2_norm(&b)));
    }

    /// The ILU(0) preconditioner of a *triangular* system is an exact
    /// solver.
    #[test]
    fn ilu_exact_on_lower_triangular(
        diag in prop::collection::vec(0.5..3.0f64, 6),
        sub in prop::collection::vec(-1.0..1.0f64, 5)
    ) {
        let mut t = Vec::new();
        for (i, d) in diag.iter().enumerate() {
            t.push((i, i, *d));
        }
        for (i, v) in sub.iter().enumerate() {
            t.push((i + 1, i, *v));
        }
        let a = Csr::from_triplets(6, &t);
        let mut w = WorkCounter::new();
        let ilu = Ilu0::new(&a, &mut w);
        let rhs: Vec<f64> = (0..6).map(|i| (i as f64) - 2.5).collect();
        let mut z = vec![0.0; 6];
        ilu.apply(&rhs, &mut z, &mut w);
        let az = a.matvec(&z);
        for (ai, bi) in az.iter().zip(&rhs) {
            prop_assert!((ai - bi).abs() < 1e-9);
        }
    }
}

// ------------------------------------------------------------ grids & co.

proptest! {
    /// Prolongation is exact on bilinear functions between *any* two grids.
    #[test]
    fn prolongation_exact_on_bilinear(
        (la, ma, lb, mb) in (0u32..3, 0u32..3, 0u32..3, 0u32..3),
        (c0, cx, cy, cxy) in (-2.0..2.0f64, -2.0..2.0f64, -2.0..2.0f64, -2.0..2.0f64)
    ) {
        let from = Grid2::new(2, la, ma);
        let to = Grid2::new(2, lb, mb);
        let f = |x: f64, y: f64| c0 + cx * x + cy * y + cxy * x * y;
        let v = from.sample(f);
        let p = prolong_bilinear(&from, &v, &to);
        let want = to.sample(f);
        for (a, b) in p.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    /// Prolongation never overshoots: output values stay within the input
    /// range (bilinear interpolation is a convex combination).
    #[test]
    fn prolongation_is_monotone_bounded(
        values in prop::collection::vec(-5.0..5.0f64, 25)
    ) {
        let from = Grid2::new(1, 1, 1); // 4x4 cells → 25 nodes
        let to = Grid2::new(1, 2, 2);
        let lo = values.iter().copied().fold(f64::MAX, f64::min);
        let hi = values.iter().copied().fold(f64::MIN, f64::max);
        let p = prolong_bilinear(&from, &values, &to);
        for v in &p {
            prop_assert!(*v >= lo - 1e-12 && *v <= hi + 1e-12);
        }
    }

    /// Combination of constant fields is the constant (the weights sum to
    /// one), at any level.
    #[test]
    fn combination_partition_of_unity(level in 0u32..5, k in -3.0..3.0f64) {
        let root = 2;
        let sols: Vec<(GridIndex, Vec<f64>)> = Grid2::combination_indices(level)
            .into_iter()
            .map(|idx| {
                let g = Grid2::new(root, idx.l, idx.m);
                (idx, g.sample(|_, _| k))
            })
            .collect();
        let mut w = WorkCounter::new();
        let c = combine(root, level, &sols, &mut w);
        for v in &c {
            prop_assert!((v - k).abs() < 1e-10);
        }
    }

    /// Restrict ∘ expand is the identity on interiors for any boundary.
    #[test]
    fn interior_round_trip(
        interior in prop::collection::vec(-4.0..4.0f64, 9),
        bval in -2.0..2.0f64
    ) {
        let g = Grid2::new(2, 0, 0); // 4x4 cells → 3x3 interior
        let full = g.expand_interior(&interior, |_, _| bval);
        prop_assert_eq!(g.restrict_interior(&full), interior);
    }
}

// ------------------------------------------------------------ discretize

proptest! {
    /// The assembled operator annihilates constants (consistency) for any
    /// velocity/diffusion combination.
    #[test]
    fn stencil_consistency(
        ax in -3.0..3.0f64,
        ay in -3.0..3.0f64,
        eps in 1e-4..1.0f64
    ) {
        let p = Problem {
            ax,
            ay,
            eps,
            t0: 0.0,
            t_end: 1.0,
            kind: solver::problem::ProblemKind::Manufactured,
        };
        let g = Grid2::new(2, 1, 0);
        let mut w = WorkCounter::new();
        let d = assemble(&g, &p, &mut w);
        let ones = vec![1.0; d.n()];
        let mut au = d.a.matvec(&ones);
        for &(row, _, _, c) in d.boundary_couplings() {
            au[row] += c;
        }
        prop_assert!(linf_norm(&au) < 1e-8, "residual {}", linf_norm(&au));
    }
}
