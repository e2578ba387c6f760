#![forbid(unsafe_code)]

//! Offline vendored stand-in for the `proptest` crate.
//!
//! The build container has no network access to crates.io, so this crate
//! implements the subset of the proptest v1 API the workspace's property
//! tests use: the [`proptest!`] macro, `prop_assert*`, [`prop_oneof!`],
//! [`strategy::Strategy`] with `prop_map`, range/tuple/[`strategy::Just`]
//! strategies, [`collection::vec`], and the `bool::ANY` / `num::u64::ANY`
//! constants.
//!
//! Differences from upstream: failing cases are **not shrunk** — the
//! generated inputs are printed (via `Debug`) and the test panics with the
//! original assertion message. Case generation is deterministic per test
//! (seeded from the test's module path), so failures reproduce exactly.

use rand::rngs::StdRng;

/// The RNG threaded through strategy generation.
pub type TestRng = StdRng;

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::TestRng;
    use rand::Rng;
    use std::fmt::Debug;
    use std::ops::Range;

    /// Generates values of an associated type from an RNG. The trimmed-down
    /// analogue of proptest's `Strategy` (no shrinking, no value trees).
    pub trait Strategy {
        /// The type of generated values.
        type Value: Debug;

        /// Produces one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between same-typed strategies (backs [`prop_oneof!`](crate::prop_oneof)).
    #[derive(Debug, Clone)]
    pub struct Union<S> {
        options: Vec<S>,
    }

    impl<S: Strategy> Union<S> {
        /// Builds a union over `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        pub fn new(options: Vec<S>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<S: Strategy> Strategy for Union<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    /// The `any::<T>()` strategy: full-domain uniform values.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T> Any<T> {
        /// The (zero-sized) strategy value, usable in `const` position.
        pub const ANY: Any<T> = Any(std::marker::PhantomData);
    }

    /// Returns the full-domain strategy for `T`.
    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy,
    {
        Any(std::marker::PhantomData)
    }

    impl Strategy for Any<u64> {
        type Value = u64;
        fn generate(&self, rng: &mut TestRng) -> u64 {
            rng.gen::<u64>()
        }
    }

    impl Strategy for Any<u32> {
        type Value = u32;
        fn generate(&self, rng: &mut TestRng) -> u32 {
            rng.gen::<u32>()
        }
    }

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen::<bool>()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident / $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Anything usable as a `vec` size: a fixed length or a length range.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for `Vec`s of values from `element`, with length in `size`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use super::strategy::{Any, Strategy};
    use super::TestRng;
    use rand::Rng;

    /// Uniform `true`/`false`.
    pub const ANY: Any<bool> = Any::ANY;

    /// Weighted boolean: `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        Weighted(p)
    }

    /// Strategy returned by [`weighted`].
    #[derive(Debug, Clone, Copy)]
    pub struct Weighted(f64);

    impl Strategy for Weighted {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen_bool(self.0)
        }
    }
}

pub mod num {
    //! Numeric full-domain strategy constants.

    /// `u64` strategies.
    pub mod u64 {
        use crate::strategy::Any;

        /// Uniform over all of `u64`.
        pub const ANY: Any<u64> = Any::ANY;
    }

    /// `u32` strategies.
    pub mod u32 {
        use crate::strategy::Any;

        /// Uniform over all of `u32`.
        pub const ANY: Any<u32> = Any::ANY;
    }
}

pub mod test_runner {
    //! Per-test configuration and the case-execution loop.

    use super::TestRng;
    use rand::SeedableRng;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// Knobs for a `proptest!` block (only `cases` is supported).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Upstream defaults to 256; keep the debug-profile test suite
            // quick while still exercising plenty of inputs.
            ProptestConfig { cases: 64 }
        }
    }

    /// Runs `case` for each of `config.cases` deterministically-seeded
    /// cases. `case` receives a fresh RNG and must panic on failure; the
    /// macro wrapper prints the generated inputs before propagating.
    pub fn run_cases(test_name: &str, config: &ProptestConfig, case: impl Fn(&mut TestRng)) {
        for i in 0..config.cases {
            let mut h = DefaultHasher::new();
            test_name.hash(&mut h);
            i.hash(&mut h);
            let mut rng = TestRng::seed_from_u64(h.finish());
            case(&mut rng);
        }
    }
}

pub mod prelude {
    //! One-stop imports for property tests.

    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supported grammar (the subset this workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))] // optional
///     /// doc comments and attributes pass through
///     #[test]
///     fn my_test(x in 0u8..16, v in proptest::collection::vec(any::<u64>(), 0..50)) {
///         prop_assert!(x < 16);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (@with_config ($config:expr)
        $($(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                $crate::test_runner::run_cases(
                    concat!(module_path!(), "::", stringify!($name)),
                    &config,
                    |rng| {
                        use $crate::strategy::Strategy as _;
                        $(let $arg = (&$strategy).generate(rng);)*
                        let inputs = format!(
                            concat!($(stringify!($arg), " = {:?}; ",)*),
                            $(&$arg,)*
                        );
                        let result = ::std::panic::catch_unwind(
                            ::std::panic::AssertUnwindSafe(move || { $body })
                        );
                        if let Err(payload) = result {
                            eprintln!(
                                "proptest case failed for {}: {}",
                                stringify!($name),
                                inputs
                            );
                            ::std::panic::resume_unwind(payload);
                        }
                    },
                );
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Asserts a condition inside a `proptest!` body (panics on failure; the
/// macro wrapper reports the generated inputs).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies of the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($strategy),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn union_and_just() {
        use crate::strategy::{Just, Strategy, Union};
        use rand::SeedableRng;
        let u = Union::new(vec![Just(1u32), Just(2), Just(3)]);
        let mut rng = crate::TestRng::seed_from_u64(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(u.generate(&mut rng));
        }
        assert_eq!(seen, [1, 2, 3].into_iter().collect());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges stay in bounds and vec sizes honor their range.
        #[test]
        fn generated_values_in_bounds(
            x in 0u8..16,
            v in crate::collection::vec(0u64..100, 3..7),
            flag in crate::bool::ANY,
            pair in (0usize..4, 0.0f64..1.0),
        ) {
            prop_assert!(x < 16);
            prop_assert!(v.len() >= 3 && v.len() < 7);
            prop_assert!(v.iter().all(|&e| e < 100));
            prop_assert!(pair.0 < 4);
            prop_assert!((0.0..1.0).contains(&pair.1));
            let _ = flag;
        }

        /// prop_map transforms values.
        #[test]
        fn map_applies(n in (0u32..10).prop_map(|n| n * 2)) {
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n, 21);
        }

        /// prop_oneof picks only listed options.
        #[test]
        fn oneof_picks_listed(k in prop_oneof![Just(2usize), Just(4), Just(8)]) {
            prop_assert!(k == 2 || k == 4 || k == 8);
        }
    }
}
