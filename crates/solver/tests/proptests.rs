//! Property-based tests of the numerical substrate.

use proptest::prelude::*;
use solver::assemble::assemble;
use solver::combine::{combine, prolong_bilinear};
use solver::grid::{Grid2, GridIndex};
use solver::linsolve::{bicgstab, Ilu0, Preconditioner};
use solver::problem::Problem;
use solver::rosenbrock::{integrate_with, Ros2Options, Ros2Workspace};
use solver::sparse::{Csr, StencilPlan};
use solver::{l2_norm, linf_norm, Tier, WorkCounter};

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
// dispatch route (lane-blocked, thin stencil, chunked stencil, wavefront).
// These differentials pin that promise on
// adversarial shapes: odd lengths, remainder lanes, systems smaller than
// the lane width, and stencil grids across the thin/chunked width split.

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
/// diagonally dominant. `n` ranges below the lane width (4) up to several
/// lane blocks plus remainders.
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
/// random band values, spanning the thin-width (`w < 8`) and chunked
/// (`w >= 8`) matvec routes and the wavefront sweep. Width starts at 3:
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
    /// loops on ragged pentadiagonal systems (lane-blocked route).
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
    /// structure-aware routes (thin/chunked matvec, wavefront sweeps) stay
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

/// The fast tier trades bit-reproducibility for speed (blocked dots, fused
/// error norm) but must not degrade *accuracy*: on the anisotropic
/// regression grids, the fast-tier solution error against the manufactured
/// exact solution stays within a whisker of the exact tier's.
#[test]
fn fast_tier_error_bound_on_regression_grids() {
    let problem = Problem::manufactured_benchmark();
    for (l, m) in [(0u32, 4u32), (4, 0), (1, 3), (3, 1), (2, 2)] {
        let g = Grid2::new(2, l, m);
        let mut wk = WorkCounter::new();
        let disc = assemble(&g, &problem, &mut wk);
        let u0 = disc.exact_interior(problem.t0);
        let want = disc.exact_interior(problem.t_end);
        let mut err = [0.0f64; 2];
        for (slot, tier) in [(0, Tier::Exact), (1, Tier::Fast)] {
            let opts = Ros2Options::with_tol(1e-4).with_tier(tier);
            let mut ws = Ros2Workspace::new();
            let (u, _) = integrate_with(
                &disc,
                u0.clone(),
                problem.t0,
                problem.t_end,
                &opts,
                &mut ws,
                &mut wk,
            )
            .expect("integration");
            let diff: Vec<f64> = u.iter().zip(&want).map(|(a, b)| a - b).collect();
            err[slot] = l2_norm(&diff) / (1.0 + l2_norm(&want));
        }
        assert!(
            err[1] <= 1.05 * err[0] + 1e-7,
            "grid ({l},{m}): fast-tier error {} vs exact-tier {}",
            err[1],
            err[0]
        );
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
        let stats = bicgstab(&a, &ilu, &b, &mut x, 1e-9, 500, &mut w);
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
