//! Offline stand-in for `proptest` (API subset).
//!
//! The vendored registry is unreachable in this build environment, so the
//! workspace ships a minimal re-implementation of the `proptest` surface
//! its tests use: the [`strategy::Strategy`] trait with `prop_map` /
//! `prop_filter` / `prop_recursive`, range / tuple / vec / option /
//! string-pattern strategies, `prop_oneof!`, `Just`, `any`, and the
//! `proptest!` test macro.
//!
//! Differences from upstream, deliberately accepted:
//! - no shrinking: a failing case panics with the generated inputs'
//!   `Debug` representation instead of a minimized one;
//! - string strategies implement only the character-class subset of
//!   regex syntax that the in-tree tests use (`[a-z]`, ranges, escapes,
//!   `&&[^…]` class subtraction, `{m,n}` quantifiers);
//! - generation is deterministic per test name and case index, so runs
//!   are reproducible without a persistence file.

pub mod strategy;
pub mod test_runner;

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Size specification for [`vec()`]: an exact size or a half-open range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate vectors whose length lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy + 'static> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.min, self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`prop::option::of`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `Option`s of an inner strategy's values.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `None` or `Some(inner)`, roughly evenly.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy + 'static> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Everything tests normally import.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced re-exports, mirroring upstream's `prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}
