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
//! otherwise the portable bodies run under the baseline ISA. Building the
//! crate with the `force-scalar` feature pins plain scalar loops everywhere,
//! which is the baseline CI keeps green and the denominator the benches
//! report against.

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
    /// Plain scalar loops (the `force-scalar` build).
    Scalar,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Portable => "portable",
            Backend::Scalar => "scalar",
        }
    }
}

/// The process-wide kernel backend, detected once on first use.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(detect)
}

#[cfg(feature = "force-scalar")]
fn detect() -> Backend {
    Backend::Scalar
}

#[cfg(not(feature = "force-scalar"))]
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
    pub fn splat(v: f64) -> F64x4 {
        F64x4([v; 4])
    }

    #[inline(always)]
    pub fn zero() -> F64x4 {
        F64x4([0.0; 4])
    }

    /// Load four consecutive elements starting at `s[i]`.
    ///
    /// # Safety
    /// `i + 4 <= s.len()`.
    #[inline(always)]
    pub unsafe fn load(s: &[f64], i: usize) -> F64x4 {
        debug_assert!(i + 4 <= s.len());
        F64x4([
            *s.get_unchecked(i),
            *s.get_unchecked(i + 1),
            *s.get_unchecked(i + 2),
            *s.get_unchecked(i + 3),
        ])
    }

    /// Store the four lanes to consecutive elements starting at `s[i]`.
    ///
    /// # Safety
    /// `i + 4 <= s.len()`.
    #[inline(always)]
    pub unsafe fn store(self, s: &mut [f64], i: usize) {
        debug_assert!(i + 4 <= s.len());
        *s.get_unchecked_mut(i) = self.0[0];
        *s.get_unchecked_mut(i + 1) = self.0[1];
        *s.get_unchecked_mut(i + 2) = self.0[2];
        *s.get_unchecked_mut(i + 3) = self.0[3];
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
}

impl Chains for () {
    type Sums = [f64; 0];

    #[inline(always)]
    fn start(self, _n: usize) -> [f64; 0] {
        []
    }

    #[inline(always)]
    fn add(self, _sums: &mut [f64; 0], _i: usize, _y: f64) {}
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
// without a separate source body to keep in sync. Every other backend,
// `force-scalar` included, runs the portable body as written.
// ---------------------------------------------------------------------------

macro_rules! dispatch_lanes {
    ($(#[$attr:meta])* $pub_name:ident, $portable:ident, $avx2:ident, $(<$g:ident: $bound:ident>)?
     ($($arg:ident : $ty:ty),*) $(-> $ret:ty)?) => {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        #[target_feature(enable = "avx2")]
        $(#[$attr])*
        unsafe fn $avx2$(<$g: $bound>)?($($arg: $ty),*) $(-> $ret)? {
            $portable($($arg),*)
        }

        #[inline]
        $(#[$attr])*
        pub fn $pub_name$(<$g: $bound>)?($($arg: $ty),*) $(-> $ret)? {
            match backend() {
                #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
                // SAFETY: `backend()` returns Avx2 only after detecting AVX2
                // on this CPU, the one precondition of the `target_feature`
                // twin; the portable body checks its own operands.
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
    let n = y.len();
    let av = F64x4::splat(a);
    let mut i = 0;
    // SAFETY: i + 4 <= n inside the loop.
    unsafe {
        while i + 4 <= n {
            let yy = F64x4::load(y, i).add(av.mul(F64x4::load(x, i)));
            yy.store(y, i);
            i += 4;
        }
    }
    while i < n {
        y[i] += a * x[i];
        i += 1;
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
    let n = p.len();
    let (bv, ov) = (F64x4::splat(beta), F64x4::splat(omega));
    let mut i = 0;
    // SAFETY: i + 4 <= n inside the loop.
    unsafe {
        while i + 4 <= n {
            let pp =
                F64x4::load(r, i).add(bv.mul(F64x4::load(p, i).sub(ov.mul(F64x4::load(v, i)))));
            pp.store(p, i);
            i += 4;
        }
    }
    while i < n {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
        i += 1;
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
    let mut i = 0;
    // SAFETY: i + 4 <= n == r.len() == v.len() inside the first loop and
    // i < n in the second.
    unsafe {
        while i + 4 <= n {
            let ss = F64x4::load(r, i).sub(av.mul(F64x4::load(v, i)));
            ss.store(s, i);
            chains.add4(&mut sums, i, ss);
            i += 4;
        }
        while i < n {
            let si = *r.get_unchecked(i) - alpha * *v.get_unchecked(i);
            *s.get_unchecked_mut(i) = si;
            chains.add(&mut sums, i, si);
            i += 1;
        }
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
    let mut i = 0;
    // SAFETY: every operand has length n (asserted above); i + 4 <= n
    // inside the first loop and i < n in the second.
    unsafe {
        while i + 4 <= n {
            let xx =
                F64x4::load(x, i).add(av.mul(F64x4::load(p, i)).add(ov.mul(F64x4::load(s_hat, i))));
            xx.store(x, i);
            let rr = F64x4::load(s, i).sub(ov.mul(F64x4::load(t, i)));
            rr.store(r, i);
            chains.add4(&mut sums, i, rr);
            i += 4;
        }
        while i < n {
            *x.get_unchecked_mut(i) +=
                alpha * *p.get_unchecked(i) + omega * *s_hat.get_unchecked(i);
            let ri = *s.get_unchecked(i) - omega * *t.get_unchecked(i);
            *r.get_unchecked_mut(i) = ri;
            chains.add(&mut sums, i, ri);
            i += 1;
        }
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
        #[cfg(feature = "force-scalar")]
        assert_eq!(backend(), Backend::Scalar);
        #[cfg(not(feature = "force-scalar"))]
        assert_ne!(backend(), Backend::Scalar);
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
        // Release builds too: the lane loops index unchecked, so a short
        // operand must stop the kernel before its first load.
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
        // Odd length exercises the remainder loop; values with different
        // exponents make reassociation visible if it ever sneaks in.
        let n = 37;
        let x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.7).sin() * 1e3_f64.powi((i % 5) as i32 - 2))
            .collect();
        let v: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 1.3).cos() + 0.01 * i as f64)
            .collect();
        let r: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let (a, beta, omega) = (1.625, -0.3125, 0.78125);

        let mut y1 = x.clone();
        let mut y2 = x.clone();
        axpy(&mut y1, a, &v);
        for i in 0..n {
            y2[i] += a * v[i];
        }
        assert_eq!(y1, y2);

        let mut p1 = x.clone();
        let mut p2 = x.clone();
        p_update(&mut p1, &r, beta, omega, &v);
        for i in 0..n {
            p2[i] = r[i] + beta * (p2[i] - omega * v[i]);
        }
        assert_eq!(p1, p2);

        let mut s1 = vec![0.0; n];
        let mut s2 = vec![0.0; n];
        let [] = s_update(&mut s1, &r, a, &v, ());
        for i in 0..n {
            s2[i] = r[i] - a * v[i];
        }
        assert_eq!(s1, s2);

        // The fused closing update against its two separate passes, with
        // both chains against the unfused `dot_exact`s.
        let mut x1 = x.clone();
        let mut x2 = x.clone();
        let (mut r1, mut r2) = (vec![0.0; n], vec![0.0; n]);
        let [rr, rv] = xr_update(
            &mut x1,
            a,
            &r,
            &v,
            &mut r1,
            &x,
            omega,
            &v,
            (Square, Dot(&r)),
        );
        for i in 0..n {
            x2[i] += a * r[i] + omega * v[i];
            r2[i] = x[i] - omega * v[i];
        }
        assert_eq!(x1, x2);
        assert_eq!(r1, r2);
        assert_eq!(rr.to_bits(), dot_exact(&r2, &r2).to_bits());
        assert_eq!(rv.to_bits(), dot_exact(&r2, &r).to_bits());
    }
}
