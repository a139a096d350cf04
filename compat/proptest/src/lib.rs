//! Offline-compatible subset of `proptest`.
//!
//! Same macro and combinator surface (`proptest!`, `prop_oneof!`,
//! `any`, ranges, tuples, `collection::vec`, `prop_map`), but inputs
//! come from a deterministic per-test RNG (seeded from the test path)
//! and failures are plain panics — no persistence file and no
//! shrinking. A failing case therefore reports the generated values
//! via the assertion message rather than a minimized counterexample.

use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

pub mod test_runner {
    /// Per-test configuration; only `cases` is meaningful in the stub.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic RNG (SplitMix64) seeded from the test path, so
    /// every run of a given test sees the same inputs.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test's module path + name.
        pub fn for_test(name: &str) -> TestRng {
            let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
            for b in name.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: seed }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }
    }
}

use test_runner::TestRng;

/// A source of random values of one type.
///
/// Unlike the real crate there is no shrinking: `generate` produces a
/// value directly from the RNG.
pub trait Strategy {
    /// The type of value generated.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for Rc<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Strategy adapter mapping generated values through a function.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generate an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_uint!(u8, u16, u32, u64, usize);

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy generating any value of `T` (see [`any`]).
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Any<T> {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! range_strategy_signed {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + rng.below(span) as i64) as $t
            }
        }
    )*};
}
range_strategy_signed!(i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A: 0);
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9);

/// Uniform choice among boxed strategies (built by [`prop_oneof!`]).
#[derive(Clone)]
pub struct Union<T> {
    options: Vec<Rc<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// An empty union; `push` options onto it.
    pub fn empty() -> Union<T> {
        Union {
            options: Vec::new(),
        }
    }

    /// Add one option, builder style.
    pub fn or(mut self, s: impl Strategy<Value = T> + 'static) -> Union<T> {
        self.options.push(Rc::new(s));
        self
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(!self.options.is_empty(), "empty prop_oneof!");
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

pub mod collection {
    use super::test_runner::TestRng;
    use super::Strategy;
    use std::ops::Range;

    /// Strategy for `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Uniform choice among several strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($option:expr),+ $(,)?) => {{
        let union = $crate::Union::empty();
        $( let union = union.or($option); )+
        union
    }};
}

/// Assert within a property (plain `assert!` in the stub).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality within a property (plain `assert_eq!` in the stub).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Assert inequality within a property (plain `assert_ne!` in the stub).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Define property tests: each `fn` runs `cases` times with inputs
/// drawn from its strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )+) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let mut rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for _ in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                $body
            }
        }
    )+};
}

pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, Any, Arbitrary, Map, Strategy, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn determinism_per_test_name() {
        let mut a = crate::test_runner::TestRng::for_test("x");
        let mut b = crate::test_runner::TestRng::for_test("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u64..10).prop_map(|x| x * 2),
            (100u64..110).prop_map(|x| x),
        ]) {
            prop_assert!(v < 20 || (100..110).contains(&v));
        }

        #[test]
        fn vecs_respect_size(xs in crate::collection::vec(any::<u8>(), 1..9)) {
            prop_assert!(!xs.is_empty() && xs.len() < 9);
        }
    }
}
