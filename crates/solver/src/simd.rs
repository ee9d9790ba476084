//! Explicit-width SIMD lanes for the solver hot path.
//!
//! Everything here follows one discipline, inherited from the PR-3 rule that
//! the optimized path must stay bit-identical to [`crate::reference`]:
//!
//! * **Lanewise kernels** (axpy-style elementwise updates, the four-row
//!   chunks of the stencil matvec, the wavefront sweeps' packed divides)
//!   evaluate *exactly the same expression tree per element* as the scalar
//!   code — lanes never interact — so they are bit-identical to scalar by
//!   construction.
//! * **Reductions are never reassociated.** Every dot product and norm adds
//!   its products in ascending index order from the start value of `f64`'s
//!   `Sum`, exactly as [`dot_exact`]. What the hot ones change is *where*
//!   the chain runs: a [`Chain`] rides the pass that writes its operand (the
//!   BiCGSTAB updates here, the stencil matvec in [`crate::sparse`]), so
//!   its serial adds overlap that pass's work instead of getting a pass of
//!   their own.
//!
//! Dispatch is resolved once at startup ([`backend`]): on `x86_64` with AVX2
//! detected at runtime the kernels run as `#[target_feature(enable =
//! "avx2")]` instantiations of the same portable [`F64x4`] bodies;
//! otherwise the portable bodies run under the baseline ISA.
//!
//! Every kernel body is safe code. Lanes come from `as_chunks`, so a lane
//! block is a `[f64; 4]` whose bounds the slice shape proves, and operand
//! lengths are checked once per call. The `target_feature` twins are safe
//! fns too; the one `unsafe` is the call into a twin right after
//! [`backend`] returned [`Backend::Avx2`].

use std::ops::Range;
use std::sync::OnceLock;

/// Lane width of the explicit vector type. All blocked kernels consume
/// elements in chunks of this many `f64`s with a scalar remainder loop.
pub const LANES: usize = 4;

/// Which instantiation of the kernels this process runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `#[target_feature(enable = "avx2")]` instantiations (x86_64, detected
    /// at startup).
    Avx2,
    /// Portable [`F64x4`] bodies compiled for the baseline target ISA.
    Portable,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Portable => "portable",
        }
    }
}

/// The process-wide kernel backend, detected once on first use.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(detect)
}

fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Backend::Avx2;
    }
    Backend::Portable
}

/// Four `f64` lanes. Operations are plain per-lane IEEE ops (no FMA, no
/// reassociation), so a lane computes exactly what the scalar code computes
/// for the same element. LLVM lowers this to `ymm` arithmetic inside the
/// AVX2-instantiated kernels and to the baseline vector ISA elsewhere.
/// Kernels build one from a `[f64; 4]` lane block and store its `.0` back.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(32))]
pub struct F64x4(pub [f64; 4]);

// The named lane-wise ops deliberately shadow the operator names: kernel
// code spells arithmetic as explicit method chains (`a.mul(x).add(y)`) so
// the unfused, per-lane evaluation order the bit-identity contract relies
// on stays visible at every call site.
#[allow(clippy::should_implement_trait)]
impl F64x4 {
    #[inline(always)]
    fn splat(v: f64) -> F64x4 {
        F64x4([v; 4])
    }

    #[inline(always)]
    pub fn zero() -> F64x4 {
        F64x4([0.0; 4])
    }

    #[inline(always)]
    pub fn add(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0] + o.0[0],
            self.0[1] + o.0[1],
            self.0[2] + o.0[2],
            self.0[3] + o.0[3],
        ])
    }

    #[inline(always)]
    pub fn sub(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0] - o.0[0],
            self.0[1] - o.0[1],
            self.0[2] - o.0[2],
            self.0[3] - o.0[3],
        ])
    }

    #[inline(always)]
    pub fn mul(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0] * o.0[0],
            self.0[1] * o.0[1],
            self.0[2] * o.0[2],
            self.0[3] * o.0[3],
        ])
    }

    #[inline(always)]
    pub fn div(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0] / o.0[0],
            self.0[1] / o.0[1],
            self.0[2] / o.0[2],
            self.0[3] / o.0[3],
        ])
    }

    #[inline(always)]
    pub fn abs(self) -> F64x4 {
        F64x4([
            self.0[0].abs(),
            self.0[1].abs(),
            self.0[2].abs(),
            self.0[3].abs(),
        ])
    }
}

// ---------------------------------------------------------------------------
// Ordered reductions (strict left-to-right order, same as reference).
//
// A scalar dot product is *latency*-bound: one dependent add per element,
// and strict IEEE semantics forbid breaking the chain. BiCGSTAB runs six
// such chains per iteration, so instead of a pass each they ride the passes
// that produce their operands (see `bicgstab_with`): `‖s‖²` the `s`
// update, `‖r‖²` and `(r̂, r)` the `r` update, `(r̂, v)` the matvec that
// writes `v`, `(t, t)` and `(t, s)` the one that writes `t`. Each chain
// still adds one product per element in ascending order from `SUM_START`,
// so its bits are [`dot_exact`]'s.
// ---------------------------------------------------------------------------

/// The start value of `f64`'s `Sum` (`-0.0`, so a sum of `-0.0` terms stays
/// `-0.0`). Every fused chain starts here, as [`dot_exact`]'s `.sum()` does.
pub(crate) const SUM_START: f64 = -0.0;

/// Sequential dot product, bit-identical to the reference solver's.
#[inline]
pub fn dot_exact(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One ordered reduction a fused kernel carries over the vector `y` it
/// writes — [`Square`] or [`Dot`]. The sum has the bits of [`dot_exact`]
/// over the finished `y`. Chain kinds are types, not values, so a kernel
/// instance carries exactly its chains' arithmetic and nothing that picks
/// between them per element.
pub trait Chain: Copy {
    /// The factor element `i` (value `y`) is multiplied by.
    fn factor(self, i: usize, y: f64) -> f64;

    /// Panics unless the chain can run over a `y` of length `n`.
    fn check(self, _n: usize) {}

    /// The chain over elements `r` of `y` alone, indexed from `r.start`.
    #[inline(always)]
    fn sub(self, _r: Range<usize>) -> Self {
        self
    }
}

/// `Σ yᵢ·yᵢ`, a squared norm.
#[derive(Clone, Copy, Debug)]
pub struct Square;

/// `Σ yᵢ·wᵢ` against a vector `w` of `y`'s length.
#[derive(Clone, Copy, Debug)]
pub struct Dot<'a>(pub &'a [f64]);

impl Chain for Square {
    #[inline(always)]
    fn factor(self, _i: usize, y: f64) -> f64 {
        y
    }
}

impl Chain for Dot<'_> {
    #[inline(always)]
    fn factor(self, i: usize, _y: f64) -> f64 {
        self.0[i]
    }

    fn check(self, n: usize) {
        assert_eq!(self.0.len(), n, "chain operand length");
    }

    #[inline(always)]
    fn sub(self, r: Range<usize>) -> Self {
        Dot(&self.0[r])
    }
}

/// The [`Chain`]s one pass carries — `()`, `(A,)` or `(A, B)` — and their
/// running sums, returned as an array in the same order. Elements must be
/// added exactly once each, in ascending index order.
pub trait Chains: Copy {
    /// `[f64; k]` for `k` chains.
    type Sums;

    /// Panics unless every chain can run over length `n`; every sum starts
    /// where `f64`'s `Sum` starts, at `-0.0`.
    fn start(self, n: usize) -> Self::Sums;

    /// Add element `i` (value `y`) to every chain.
    fn add(self, sums: &mut Self::Sums, i: usize, y: f64);

    /// Add elements `i .. i+4` from four lanes, in lane order.
    #[inline(always)]
    fn add4(self, sums: &mut Self::Sums, i: usize, y: F64x4) {
        for (q, &yq) in y.0.iter().enumerate() {
            self.add(sums, i + q, yq);
        }
    }

    /// The chains over elements `r` of `y` alone, indexed from `r.start`
    /// (a kernel that works a line at a time checks the operands once per
    /// line, not once per element).
    fn sub(self, r: Range<usize>) -> Self;
}

impl Chains for () {
    type Sums = [f64; 0];

    #[inline(always)]
    fn start(self, _n: usize) -> [f64; 0] {
        []
    }

    #[inline(always)]
    fn add(self, _sums: &mut [f64; 0], _i: usize, _y: f64) {}

    #[inline(always)]
    fn sub(self, _r: Range<usize>) -> Self {}
}

impl<A: Chain> Chains for (A,) {
    type Sums = [f64; 1];

    #[inline(always)]
    fn start(self, n: usize) -> [f64; 1] {
        self.0.check(n);
        [SUM_START]
    }

    #[inline(always)]
    fn add(self, sums: &mut [f64; 1], i: usize, y: f64) {
        sums[0] += y * self.0.factor(i, y);
    }

    #[inline(always)]
    fn sub(self, r: Range<usize>) -> Self {
        (self.0.sub(r),)
    }
}

impl<A: Chain, B: Chain> Chains for (A, B) {
    type Sums = [f64; 2];

    #[inline(always)]
    fn start(self, n: usize) -> [f64; 2] {
        self.0.check(n);
        self.1.check(n);
        [SUM_START; 2]
    }

    #[inline(always)]
    fn add(self, sums: &mut [f64; 2], i: usize, y: f64) {
        sums[0] += y * self.0.factor(i, y);
        sums[1] += y * self.1.factor(i, y);
    }

    #[inline(always)]
    fn sub(self, r: Range<usize>) -> Self {
        (self.0.sub(r.clone()), self.1.sub(r))
    }
}

/// Every chain of `chains` over a finished `y`, in one pass — what a kernel
/// that does not carry chains itself runs after writing `y`.
#[inline]
pub(crate) fn dots_exact<C: Chains>(y: &[f64], chains: C) -> C::Sums {
    let mut sums = chains.start(y.len());
    for (i, &yi) in y.iter().enumerate() {
        chains.add(&mut sums, i, yi);
    }
    sums
}

// ---------------------------------------------------------------------------
// Lanewise elementwise kernels.
//
// Each kernel's per-element expression tree is written once in a portable
// body; `dispatch_lanes!` instantiates it a second time under
// `#[target_feature(enable = "avx2")]` so the hot builds use ymm registers
// without a separate source body to keep in sync. The portable backend runs
// the body as written.
// ---------------------------------------------------------------------------

macro_rules! dispatch_lanes {
    ($(#[$attr:meta])* $pub_name:ident, $portable:ident, $avx2:ident, $(<$g:ident: $bound:ident>)?
     ($($arg:ident : $ty:ty),*) $(-> $ret:ty)?) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        $(#[$attr])*
        fn $avx2$(<$g: $bound>)?($($arg: $ty),*) $(-> $ret)? {
            $portable($($arg),*)
        }

        #[inline]
        #[allow(unsafe_code)]
        $(#[$attr])*
        pub fn $pub_name$(<$g: $bound>)?($($arg: $ty),*) $(-> $ret)? {
            match backend() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `backend()` returns Avx2 only after detecting AVX2
                // on this CPU, the one precondition of the `target_feature`
                // twin; the twin is a safe fn that checks its own operands.
                Backend::Avx2 => unsafe { $avx2($($arg),*) },
                _ => $portable($($arg),*),
            }
        }
    };
}

/// `y[i] += a * x[i]` — same op order per element as the scalar loop.
#[inline(always)]
fn axpy_portable(y: &mut [f64], a: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy operand lengths");
    let av = F64x4::splat(a);
    let (yc, yt) = y.as_chunks_mut::<LANES>();
    let (xc, xt) = x.as_chunks::<LANES>();
    for (yy, xx) in yc.iter_mut().zip(xc) {
        *yy = F64x4(*yy).add(av.mul(F64x4(*xx))).0;
    }
    for (yi, xi) in yt.iter_mut().zip(xt) {
        *yi += a * xi;
    }
}

dispatch_lanes!(axpy, axpy_portable, axpy_avx2, (y: &mut [f64], a: f64, x: &[f64]));

/// BiCGSTAB search-direction update: `p[i] = r[i] + beta * (p[i] - omega * v[i])`.
#[inline(always)]
fn p_update_portable(p: &mut [f64], r: &[f64], beta: f64, omega: f64, v: &[f64]) {
    assert!(
        p.len() == r.len() && p.len() == v.len(),
        "p_update operand lengths"
    );
    let (bv, ov) = (F64x4::splat(beta), F64x4::splat(omega));
    let (pc, pt) = p.as_chunks_mut::<LANES>();
    let (rc, rt) = r.as_chunks::<LANES>();
    let (vc, vt) = v.as_chunks::<LANES>();
    for ((pp, rr), vv) in pc.iter_mut().zip(rc).zip(vc) {
        *pp = F64x4(*rr).add(bv.mul(F64x4(*pp).sub(ov.mul(F64x4(*vv))))).0;
    }
    for ((pi, ri), vi) in pt.iter_mut().zip(rt).zip(vt) {
        *pi = ri + beta * (*pi - omega * vi);
    }
}

dispatch_lanes!(
    p_update,
    p_update_portable,
    p_update_avx2,
    (p: &mut [f64], r: &[f64], beta: f64, omega: f64, v: &[f64])
);

/// `s[i] = r[i] - alpha * v[i]`, carrying `chains` over the new `s` — in
/// BiCGSTAB both `s = r − αv` (with `‖s‖²`) and `r = s − ωt` (with `‖r‖²`
/// and `(r̂, r)`). Each lane block is stored, then its four elements join
/// every chain in index order.
#[inline(always)]
fn s_update_portable<C: Chains>(
    s: &mut [f64],
    r: &[f64],
    alpha: f64,
    v: &[f64],
    chains: C,
) -> C::Sums {
    let n = s.len();
    assert!(r.len() == n && v.len() == n, "s_update operand lengths");
    let mut sums = chains.start(n);
    let av = F64x4::splat(alpha);
    let (sc, st) = s.as_chunks_mut::<LANES>();
    let (rc, rt) = r.as_chunks::<LANES>();
    let (vc, vt) = v.as_chunks::<LANES>();
    for (q, ((ss, rr), vv)) in sc.iter_mut().zip(rc).zip(vc).enumerate() {
        let out = F64x4(*rr).sub(av.mul(F64x4(*vv)));
        *ss = out.0;
        chains.add4(&mut sums, q * LANES, out);
    }
    let tail = n - st.len();
    for (k, ((si, ri), vi)) in st.iter_mut().zip(rt).zip(vt).enumerate() {
        *si = ri - alpha * vi;
        chains.add(&mut sums, tail + k, *si);
    }
    sums
}

dispatch_lanes!(
    s_update,
    s_update_portable,
    s_update_avx2,
    <C: Chains>(s: &mut [f64], r: &[f64], alpha: f64, v: &[f64], chains: C) -> C::Sums
);

/// BiCGSTAB's closing update in one pass: `x[i] += alpha * p[i] + omega *
/// s_hat[i]` and `r[i] = s[i] - omega * t[i]`, carrying `chains` over the
/// new `r` (`‖r‖²` and `(r̂, r)`). Each element evaluates the expressions
/// the two updates had as separate passes; each lane block of `r` is
/// stored, then its four elements join every chain in index order.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // two updates' operands
fn xr_update_portable<C: Chains>(
    x: &mut [f64],
    alpha: f64,
    p: &[f64],
    s_hat: &[f64],
    r: &mut [f64],
    s: &[f64],
    omega: f64,
    t: &[f64],
    chains: C,
) -> C::Sums {
    let n = x.len();
    assert!(
        [p.len(), s_hat.len(), r.len(), s.len(), t.len()]
            .iter()
            .all(|&len| len == n),
        "xr_update operand lengths"
    );
    let mut sums = chains.start(n);
    let (av, ov) = (F64x4::splat(alpha), F64x4::splat(omega));
    let (xc, xt) = x.as_chunks_mut::<LANES>();
    let (rc, rt) = r.as_chunks_mut::<LANES>();
    let (pc, pt) = p.as_chunks::<LANES>();
    let (hc, ht) = s_hat.as_chunks::<LANES>();
    let (sc, st) = s.as_chunks::<LANES>();
    let (tc, tt) = t.as_chunks::<LANES>();
    let lanes = xc
        .iter_mut()
        .zip(rc)
        .zip(pc.iter().zip(hc))
        .zip(sc.iter().zip(tc));
    for (q, (((xx, rr), (pp, hh)), (ss, t4))) in lanes.enumerate() {
        *xx = F64x4(*xx).add(av.mul(F64x4(*pp)).add(ov.mul(F64x4(*hh)))).0;
        let out = F64x4(*ss).sub(ov.mul(F64x4(*t4)));
        *rr = out.0;
        chains.add4(&mut sums, q * LANES, out);
    }
    let tail = n - xt.len();
    let rows = xt
        .iter_mut()
        .zip(rt)
        .zip(pt.iter().zip(ht))
        .zip(st.iter().zip(tt));
    for (k, (((xi, ri), (pi, hi)), (si, ti))) in rows.enumerate() {
        *xi += alpha * pi + omega * hi;
        *ri = si - omega * ti;
        chains.add(&mut sums, tail + k, *ri);
    }
    sums
}

dispatch_lanes!(
    #[allow(clippy::too_many_arguments)]
    xr_update,
    xr_update_portable,
    xr_update_avx2,
    <C: Chains>(
        x: &mut [f64], alpha: f64, p: &[f64], s_hat: &[f64],
        r: &mut [f64], s: &[f64], omega: f64, t: &[f64], chains: C
    ) -> C::Sums
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_is_detected_once() {
        assert_eq!(backend(), backend());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            backend() == Backend::Avx2,
            std::arch::is_x86_feature_detected!("avx2")
        );
    }

    #[test]
    fn chains_start_where_sum_starts() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(SUM_START.to_bits(), empty.to_bits());
        // Every product is -0.0, so only the start value decides the sign.
        let (y, w) = ([-0.0, -0.0, -0.0], [0.0, 0.0, 0.0]);
        let [dot] = dots_exact(&y, (Dot(&w),));
        assert_eq!(dot.to_bits(), (-0.0f64).to_bits());
        assert_eq!(dot.to_bits(), dot_exact(&y, &w).to_bits());
    }

    #[test]
    fn kernels_reject_mismatched_lengths() {
        // Input validation, in release builds too: the lane loops zip their
        // operands, so a short one would silently truncate the update
        // instead of failing.
        let (long, short) = (vec![1.0; 9], vec![1.0; 5]);
        let panics =
            |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
        assert!(panics(&|| axpy(&mut long.clone(), 1.0, &short)));
        assert!(panics(&|| p_update(
            &mut long.clone(),
            &short,
            1.0,
            1.0,
            &long
        )));
        assert!(panics(&|| {
            let [] = xr_update(
                &mut long.clone(),
                1.0,
                &long,
                &short,
                &mut long.clone(),
                &long,
                1.0,
                &long,
                (),
            );
        }));
        assert!(panics(&|| {
            let [] = xr_update(
                &mut long.clone(),
                1.0,
                &long,
                &long,
                &mut long.clone(),
                &long,
                1.0,
                &short,
                (),
            );
        }));
        assert!(panics(&|| {
            let [] = s_update(&mut long.clone(), &long, 1.0, &short, ());
        }));
        assert!(panics(&|| {
            let [_] = s_update(&mut long.clone(), &long, 1.0, &long, (Dot(&short),));
        }));
        assert!(panics(&|| {
            let [_] = dots_exact(&long, (Dot(&short),));
        }));
    }

    #[test]
    fn elementwise_kernels_match_scalar_bitwise() {
        // Each portable body is called directly, and through its dispatcher,
        // which runs the AVX2 twin on a host with AVX2. Odd lengths exercise
        // every remainder; values with different exponents make
        // reassociation visible if it ever sneaks in.
        let (a, beta, omega) = (1.625, -0.3125, 0.78125);
        for n in [0, 1, 3, 4, 5, 7, 9, 37] {
            let x: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.7).sin() * 1e3_f64.powi((i % 5) as i32 - 2))
                .collect();
            let v: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 1.3).cos() + 0.01 * i as f64)
                .collect();
            let r: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();

            let mut y2 = x.clone();
            let mut p2 = x.clone();
            let mut s2 = vec![0.0; n];
            let mut x2 = x.clone();
            let mut r2 = vec![0.0; n];
            for i in 0..n {
                y2[i] += a * v[i];
                p2[i] = r[i] + beta * (p2[i] - omega * v[i]);
                s2[i] = r[i] - a * v[i];
                x2[i] += a * r[i] + omega * v[i];
                r2[i] = x[i] - omega * v[i];
            }

            for portable in [true, false] {
                let at = format!("n = {n}, portable body: {portable}");
                let mut y1 = x.clone();
                let mut p1 = x.clone();
                let mut s1 = vec![0.0; n];
                let [ss] = if portable {
                    axpy_portable(&mut y1, a, &v);
                    p_update_portable(&mut p1, &r, beta, omega, &v);
                    s_update_portable(&mut s1, &r, a, &v, (Square,))
                } else {
                    axpy(&mut y1, a, &v);
                    p_update(&mut p1, &r, beta, omega, &v);
                    s_update(&mut s1, &r, a, &v, (Square,))
                };
                assert_eq!(y1, y2, "axpy, {at}");
                assert_eq!(p1, p2, "p_update, {at}");
                assert_eq!(s1, s2, "s_update, {at}");
                assert_eq!(ss.to_bits(), dot_exact(&s2, &s2).to_bits(), "{at}");

                // The fused closing update against its two separate passes,
                // with both chains against the unfused `dot_exact`s.
                let mut x1 = x.clone();
                let mut r1 = vec![0.0; n];
                let chains = (Square, Dot(&r));
                let [rr, rv] = if portable {
                    xr_update_portable(&mut x1, a, &r, &v, &mut r1, &x, omega, &v, chains)
                } else {
                    xr_update(&mut x1, a, &r, &v, &mut r1, &x, omega, &v, chains)
                };
                assert_eq!(x1, x2, "xr_update x, {at}");
                assert_eq!(r1, r2, "xr_update r, {at}");
                assert_eq!(rr.to_bits(), dot_exact(&r2, &r2).to_bits(), "{at}");
                assert_eq!(rv.to_bits(), dot_exact(&r2, &r).to_bits(), "{at}");
            }
        }
    }
}
