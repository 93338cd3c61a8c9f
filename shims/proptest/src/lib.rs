//! Offline drop-in shim for the subset of `proptest` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace pins
//! this path crate instead of the real `proptest`. It implements the surface
//! the property-test suites consume:
//!
//! - the [`Strategy`](strategy::Strategy) trait with `prop_map`, `prop_recursive`, `boxed`
//! - integer-range strategies (`0u32..2`), [`strategy::Just`],
//!   [`collection::vec`] with `usize` size ranges
//! - the [`proptest!`], [`prop_oneof!`], [`prop_assert!`],
//!   [`prop_assert_eq!`] and [`prop_assert_ne!`] macros
//! - [`test_runner::ProptestConfig::with_cases`]
//!
//! Differences from the real crate, by design: inputs are generated from a
//! deterministic per-test RNG (seeded from the test name, overridable via
//! `PROPTEST_SEED`), and failing cases are reported with their inputs but
//! **not shrunk**. That trades minimal counterexamples for a dependency-free
//! build; the assertions and coverage are unchanged.

pub mod test_runner {
    /// Execution parameters for a `proptest!` block.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each test runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed property (carried via `Err` out of the test-case closure so
    /// the harness can report the generating inputs).
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// SplitMix64 — deterministic per test, so CI failures reproduce locally.
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Seed from the test name (FNV-1a), XORed with `PROPTEST_SEED` if
        /// set, so a failing run can be re-explored from another seed.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            if let Ok(s) = std::env::var("PROPTEST_SEED") {
                if let Ok(extra) = s.parse::<u64>() {
                    h ^= extra.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                }
            }
            TestRng(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: usize) -> usize {
            assert!(n > 0, "below(0)");
            (self.next_u64() % n as u64) as usize
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};
    use std::sync::Arc;

    /// A recipe for generating random values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value-tree/shrinking layer: a
    /// strategy is just a sampler.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, map: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { source: self, map }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }

        /// Bounded-depth recursive strategy: `depth` rounds of wrapping the
        /// current strategy with `recurse`, unioned 50/50 with the leaf at
        /// each level (the `desired_size`/`expected_branch_size` knobs of the
        /// real API are accepted and ignored).
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + Clone + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut current = self.clone().boxed();
            for _ in 0..depth {
                let deeper = recurse(current).boxed();
                current = Union::new(vec![self.clone().boxed(), deeper]).boxed();
            }
            current
        }
    }

    trait DynStrategy<T> {
        fn generate_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// Type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.map)(self.source.generate(rng))
        }
    }

    /// Uniform choice between alternative strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128) - (self.start as u128);
                    (self.start as u128 + (rng.next_u64() as u128) % span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128) - (lo as u128) + 1;
                    (lo as u128 + (rng.next_u64() as u128) % span) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// `proptest::collection::vec`: a vector whose length is drawn from
    /// `size` and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.max - self.size.min + 1;
            let len = self.size.min + rng.below(span);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Fail the current property unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current property unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
                            l, r
                        ),
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
                            l, r, format!($($fmt)+)
                        ),
                    ));
                }
            }
        }
    };
}

/// Fail the current property unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `(left != right)`\n  both: `{:?}`",
                            l
                        ),
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `(left != right)`\n  both: `{:?}`: {}",
                            l, format!($($fmt)+)
                        ),
                    ));
                }
            }
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// The test-definition macro. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs `config.cases` generated cases; a failing
/// case panics with the inputs that produced it (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {}/{} failed: {}\n  inputs: {}",
                        case + 1,
                        config.cases,
                        e,
                        inputs
                    );
                }
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_vec() -> impl Strategy<Value = Vec<u32>> {
        crate::collection::vec(0u32..5, 0..=4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3u32..7, y in 0usize..=2) {
            prop_assert!((3..7).contains(&x));
            prop_assert!(y <= 2);
        }

        #[test]
        fn vec_sizes_respected(v in small_vec()) {
            prop_assert!(v.len() <= 4);
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            Just(0u32),
            (10u32..20).prop_map(|x| x * 2),
        ]) {
            prop_assert!(v == 0 || (20..40).contains(&v), "unexpected {v}");
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Tree {
        Leaf,
        Node(Vec<Tree>),
    }

    fn depth(t: &Tree) -> usize {
        match t {
            Tree::Leaf => 0,
            Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn recursion_depth_bounded(t in Just(Tree::Leaf).prop_recursive(3, 24, 3, |inner| {
            crate::collection::vec(inner, 1..=3).prop_map(Tree::Node)
        })) {
            prop_assert!(depth(&t) <= 3, "depth {} for {:?}", depth(&t), t);
        }
    }

    #[test]
    fn failing_case_reports_inputs() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(8))]
                fn always_fails(x in 0u32..10) {
                    prop_assert_eq!(x, 12345u32, "forced failure");
                }
            }
            always_fails();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("x = "), "missing inputs in: {msg}");
        assert!(msg.contains("forced failure"), "missing message in: {msg}");
    }
}
