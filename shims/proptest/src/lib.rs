//! Offline stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no registry access, so this workspace vendors
//! the small slice of the proptest API its property tests use: strategies
//! built from ranges, `Just`, tuples, `prop_map`, `prop_flat_map`,
//! `prop_filter`, weighted `prop_oneof!`, `collection::vec`,
//! `sample::select`, `any::<T>()`, and the `proptest!` test macro with an
//! optional `ProptestConfig`. Values are generated from a deterministic
//! SplitMix64 stream seeded per test and case, so failures are
//! reproducible. Unlike real proptest there is **no shrinking**: a failing
//! case panics with the generated inputs visible in the assertion message.

use std::fmt::Debug;
use std::ops::Range;

/// Deterministic generator state (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift reduction is fine for test-case generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Build the per-case generator for `proptest!`-expanded tests.
pub fn test_rng(module: &str, test: &str, case: u64) -> TestRng {
    // FNV-1a over the identifying strings keeps seeds stable across runs.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in module.bytes().chain([b':']).chain(test.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    TestRng::new(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A value generator. The mirror of proptest's `Strategy`, minus shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Dependent strategies: generate a value, build a second strategy
    /// from it, and draw the final value from that. The backbone of
    /// state-machine tests where the operation alphabet depends on an
    /// earlier structural choice (e.g. pick a core count, then generate
    /// operations addressed to those cores).
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Rejection sampling: re-draw until `f` accepts a value. `reason` is
    /// reported if generation fails [`FILTER_RETRIES`] times in a row —
    /// keep predicates loose, exactly as with real proptest.
    fn prop_filter<R, F>(self, reason: R, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        R: Into<String>,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason: reason.into(),
            f,
        }
    }
}

/// Give up on a [`Strategy::prop_filter`] predicate after this many
/// consecutive rejections (real proptest's local-rejection cap is 64 per
/// draw with global backtracking; without shrinking a flat cap suffices).
pub const FILTER_RETRIES: usize = 1000;

/// Object-safe strategy view, used by [`Union`] for `prop_oneof!`.
#[doc(hidden)]
pub trait StrategyObj<T> {
    fn generate_obj(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> StrategyObj<S::Value> for S {
    fn generate_obj(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// `prop_map` adapter.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_flat_map` adapter.
#[derive(Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// `prop_filter` adapter.
#[derive(Clone)]
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..FILTER_RETRIES {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter({:?}): no accepted value in {FILTER_RETRIES} draws",
            self.reason
        );
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
tuple_strategy!(
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3),
    (A / 0, B / 1, C / 2, D / 3, E / 4)
);

/// Weighted choice between boxed strategies (`prop_oneof!`).
pub struct Union<T> {
    variants: Vec<(u32, Box<dyn StrategyObj<T>>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` pairs.
    pub fn new(variants: Vec<(u32, Box<dyn StrategyObj<T>>)>) -> Self {
        let total = variants.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        Union { variants, total }
    }

    /// Type-erase one strategy (macro helper).
    pub fn boxit<S>(s: S) -> Box<dyn StrategyObj<T>>
    where
        S: Strategy<Value = T> + 'static,
    {
        Box::new(s)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.variants {
            if pick < *w as u64 {
                return s.generate_obj(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights exhausted")
    }
}

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// The strategy type `any` returns.
    type Strategy: Strategy<Value = Self>;
    /// The full-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// `any::<T>()` strategy for primitives.
#[derive(Clone, Debug, Default)]
pub struct AnyPrim<T>(std::marker::PhantomData<T>);

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyPrim<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyPrim<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyPrim(std::marker::PhantomData)
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for AnyPrim<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyPrim<bool>;
    fn arbitrary() -> Self::Strategy {
        AnyPrim(std::marker::PhantomData)
    }
}

/// Strategies over collections.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// `Vec` strategy: length drawn from `len`, elements from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    /// The strategy [`vec()`] returns.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Strategies that sample from explicit value sets
/// (`proptest::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniformly select one of the given values. Panics on an empty set,
    /// matching real proptest.
    pub fn select<T: Clone + std::fmt::Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "sample::select of an empty set");
        Select { options }
    }

    /// The strategy [`select`] returns.
    #[derive(Clone, Debug)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone + std::fmt::Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 128 keeps the no-shrink shim's
        // whole-workspace test time reasonable while still exploring widely.
        ProptestConfig { cases: 128 }
    }
}

/// The common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Weighted (`w => strat`) or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(($weight as u32, $crate::Union::boxit($strat))),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$((1u32, $crate::Union::boxit($strat))),+])
    };
}

/// Bind one `proptest!` parameter list entry to a generated value.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident in $strat:expr) => {
        let $name = $crate::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident, $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $name:ident : $ty:ty) => {
        let $name = $crate::Strategy::generate(&$crate::any::<$ty>(), &mut $rng);
    };
    ($rng:ident, $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name = $crate::Strategy::generate(&$crate::any::<$ty>(), &mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
}

/// Expand the test functions of a `proptest!` block.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$attr:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng =
                    $crate::test_rng(module_path!(), stringify!($name), __case as u64);
                $crate::__proptest_bind!(__rng, $($params)*);
                $body
            }
        }
        $crate::__proptest_fns!(cfg = $cfg; $($rest)*);
    };
}

/// Property-test block: each contained `#[test] fn` runs once per generated
/// case, with parameters bound via `name in strategy` or `name: Type`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(cfg = $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(cfg = $crate::ProptestConfig::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Op {
        A(u64),
        B,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u64..10).prop_map(Op::A),
            1 => Just(Op::B),
        ]
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_rng("m", "t", 0);
        for _ in 0..1000 {
            let v = (5u64..17).generate(&mut rng);
            assert!((5..17).contains(&v));
            let s = (-4i32..3).generate(&mut rng);
            assert!((-4..3).contains(&s));
        }
    }

    #[test]
    fn oneof_hits_all_variants() {
        let mut rng = crate::test_rng("m", "t2", 0);
        let strat = op();
        let (mut a, mut b) = (0, 0);
        for _ in 0..500 {
            match strat.generate(&mut rng) {
                Op::A(v) => {
                    assert!(v < 10);
                    a += 1;
                }
                Op::B => b += 1,
            }
        }
        assert!(a > b, "weight 3 should dominate weight 1");
        assert!(b > 0);
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = crate::test_rng("m", "t3", 1);
        for _ in 0..200 {
            let v = crate::collection::vec(0u8..4, 1..9).generate(&mut rng);
            assert!((1..9).contains(&v.len()));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let strat = crate::collection::vec(0u64..1000, 1..50);
        let a = strat.generate(&mut crate::test_rng("m", "t4", 7));
        let b = strat.generate(&mut crate::test_rng("m", "t4", 7));
        assert_eq!(a, b);
    }

    #[test]
    fn flat_map_builds_dependent_strategies() {
        // Pick a length, then a vector of exactly that length — the
        // classic dependency prop_map cannot express.
        let strat = (1usize..8)
            .prop_flat_map(|n| crate::collection::vec(0u8..10, n..n + 1).prop_map(move |v| (n, v)));
        let mut rng = crate::test_rng("m", "t5", 0);
        for _ in 0..300 {
            let (n, v) = strat.generate(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn filter_rejects_until_predicate_holds() {
        let strat = (0u64..100).prop_filter("must be even", |v| v % 2 == 0);
        let mut rng = crate::test_rng("m", "t6", 0);
        for _ in 0..300 {
            assert_eq!(strat.generate(&mut rng) % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "no accepted value")]
    fn impossible_filter_panics_with_reason() {
        let strat = (0u64..10).prop_filter("impossible", |_| false);
        let mut rng = crate::test_rng("m", "t7", 0);
        let _ = strat.generate(&mut rng);
    }

    #[test]
    fn select_draws_every_option() {
        let strat = crate::sample::select(vec!['a', 'b', 'c']);
        let mut rng = crate::test_rng("m", "t8", 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(strat.generate(&mut rng));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn combinators_compose() {
        // select a base, flat_map into an offset range over it, filter to
        // keep block-aligned results — the shape the coherence-oracle
        // strategies use.
        let strat = crate::sample::select(vec![0x1000u64, 0x2000])
            .prop_flat_map(|base| (0u64..64).prop_map(move |i| base + i * 8))
            .prop_filter("aligned", |a| a % 16 == 0);
        let mut rng = crate::test_rng("m", "t9", 0);
        for _ in 0..200 {
            let a = strat.generate(&mut rng);
            assert!(a % 16 == 0 && (0x1000..0x2200).contains(&a));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_binds_mixed_params(x in 0u64..100, flag: bool, pair in (0u8..4, 1usize..6)) {
            prop_assert!(x < 100);
            let _ = flag;
            prop_assert!(pair.0 < 4);
            prop_assert_eq!(pair.1.clamp(1, 5), pair.1);
        }
    }
}
