//! Offline shim for `proptest` — see `shims/README.md`.
//!
//! Implements the API surface the workspace's property tests use:
//! the [`proptest!`] macro, [`prop_assert!`]/[`prop_assert_eq!`],
//! `ProptestConfig::with_cases`, `prop::collection::vec`, `any::<bool>()`,
//! integer-range strategies, tuple strategies, and a small
//! `[a-z]{m,n}`-style string pattern strategy.
//!
//! Differences from the real crate, by design:
//! * **No shrinking** — a failing case reports its inputs (via the seed
//!   and case number) but is not minimized.
//! * **Deterministic seeding** — each `(test name, case index)` pair maps
//!   to a fixed RNG seed, so failures reproduce across runs without a
//!   persistence file.
//! * **`PROPTEST_CASES` wins** — when set, it overrides every test's
//!   case count, `with_cases` included. A larger count runs the default
//!   cases first, then new ones.

pub mod test_runner {
    //! Config, error type, and the deterministic per-case RNG.

    use std::fmt;

    /// Stand-in for `proptest::test_runner::Config`.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases each test runs.
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }

        /// The cases a test runs: `PROPTEST_CASES` when it is set, which
        /// overrides the configured count, else [`Config::cases`].
        pub fn effective_cases(&self) -> u32 {
            match std::env::var("PROPTEST_CASES") {
                Ok(v) => v.trim().parse().unwrap_or_else(|_| {
                    panic!("PROPTEST_CASES must be an unsigned integer, got {v:?}")
                }),
                Err(_) => self.cases,
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Stand-in for `proptest::test_runner::TestCaseError`.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        Fail(String),
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(reason) => f.write_str(reason),
            }
        }
    }

    /// SplitMix64 seeded from the test name and case index: reproducible
    /// without a regressions file.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn for_case(test_name: &str, case: u32) -> Self {
            // FNV-1a over the name, mixed with the case counter.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng {
                state: h ^ ((case as u64) << 32 | 0x5eed),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[lo, hi)`.
        pub fn below(&mut self, lo: u64, hi: u64) -> u64 {
            assert!(lo < hi, "cannot sample empty range");
            lo + self.next_u64() % (hi - lo)
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its implementations for ranges, tuples,
    //! and string patterns.

    use crate::test_runner::TestRng;

    /// A recipe for generating random values; stand-in for
    /// `proptest::strategy::Strategy` (generation only, no shrinking).
    pub trait Strategy {
        type Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.below(self.start as u64, self.end as u64) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.below(*self.start() as u64, *self.end() as u64 + 1) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($s:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);

    /// String-pattern strategy: a `&str` used as a strategy is treated as
    /// a tiny regex subset — sequences of literal characters and char
    /// classes `[a-z...]`, each optionally quantified with `{n}`/`{m,n}`,
    /// `*` (0..=8), `+` (1..=8) or `?`. Covers patterns like
    /// `"[a-z]{1,12}"`; anything unsupported panics loudly.
    impl Strategy for &str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let atoms = parse_pattern(self);
            let mut out = String::new();
            for (chars, lo, hi) in &atoms {
                let n = rng.below(*lo as u64, *hi as u64 + 1) as usize;
                for _ in 0..n {
                    out.push(chars[rng.below(0, chars.len() as u64) as usize]);
                }
            }
            out
        }
    }

    type Atom = (Vec<char>, u32, u32);

    fn parse_pattern(pattern: &str) -> Vec<Atom> {
        let mut atoms: Vec<Atom> = Vec::new();
        let mut it = pattern.chars().peekable();
        while let Some(c) = it.next() {
            let chars = match c {
                '[' => {
                    let mut class = Vec::new();
                    let mut prev: Option<char> = None;
                    loop {
                        match it.next() {
                            Some(']') => break,
                            Some('-') if prev.is_some() && it.peek() != Some(&']') => {
                                let lo = prev.take().expect("range start");
                                let hi = it.next().expect("unterminated char class");
                                for x in lo..=hi {
                                    class.push(x);
                                }
                            }
                            Some(x) => {
                                if let Some(p) = prev.replace(x) {
                                    class.push(p);
                                }
                            }
                            None => panic!("unterminated char class in pattern {pattern:?}"),
                        }
                    }
                    if let Some(p) = prev {
                        class.push(p);
                    }
                    assert!(!class.is_empty(), "empty char class in pattern {pattern:?}");
                    class
                }
                '\\' => vec![it.next().expect("dangling escape")],
                '{' | '}' | '*' | '+' | '?' => {
                    panic!("quantifier without atom in pattern {pattern:?}")
                }
                lit => vec![lit],
            };
            let (lo, hi) = match it.peek() {
                Some('{') => {
                    it.next();
                    let spec: String = it.by_ref().take_while(|&x| x != '}').collect();
                    match spec.split_once(',') {
                        Some((m, n)) => (
                            m.trim().parse().expect("bad quantifier"),
                            n.trim().parse().expect("bad quantifier"),
                        ),
                        None => {
                            let n = spec.trim().parse().expect("bad quantifier");
                            (n, n)
                        }
                    }
                }
                Some('*') => {
                    it.next();
                    (0, 8)
                }
                Some('+') => {
                    it.next();
                    (1, 8)
                }
                Some('?') => {
                    it.next();
                    (0, 1)
                }
                _ => (1, 1),
            };
            assert!(lo <= hi, "inverted quantifier in pattern {pattern:?}");
            atoms.push((chars, lo, hi));
        }
        atoms
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn pattern_strategy_respects_class_and_bounds() {
            let mut rng = TestRng::for_case("pattern", 0);
            for _ in 0..200 {
                let s = "[a-z]{1,12}".generate(&mut rng);
                assert!((1..=12).contains(&s.len()));
                assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            }
        }

        #[test]
        fn literal_and_quantified_atoms() {
            let mut rng = TestRng::for_case("lit", 0);
            let s = "ab{3}[01]?".generate(&mut rng);
            assert!(s.starts_with("abbb"));
            assert!(s.len() <= 5);
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()`; stand-in for `proptest::arbitrary`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary {
        fn sample(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn sample(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn sample(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_uint!(u8, u16, u32, u64, usize);

    /// The canonical strategy for an [`Arbitrary`] type.
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample(rng)
        }
    }

    /// Stand-in for `proptest::prelude::any`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies; stand-in for `proptest::collection`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    /// Stand-in for `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(!size.is_empty(), "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.below(self.size.start as u64, self.size.end as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Namespace alias so `prop::collection::vec(...)` resolves, mirroring the
/// real prelude's `prop` module.
pub mod prop {
    pub use crate::collection;
}

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::collection;
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Stand-in for `proptest::proptest!`: runs each embedded test function
/// over `config.cases` deterministic random cases, or over
/// `PROPTEST_CASES` of them when that variable is set.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($config:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let cases = config.effective_cases();
                for case in 0..cases {
                    let mut proptest_rng =
                        $crate::test_runner::TestRng::for_case(stringify!($name), case);
                    $(
                        let $arg = $crate::strategy::Strategy::generate(
                            &($strat),
                            &mut proptest_rng,
                        );
                    )+
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            case,
                            cases,
                            e
                        );
                    }
                }
            }
        )+
    };
}

/// Stand-in for `proptest::prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Stand-in for `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: {:?} != {:?}: {}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn generated_values_respect_strategies(
            xs in prop::collection::vec((0u8..12, any::<bool>()), 1..10),
            word in "[a-c]{2,4}",
            k in 3usize..7,
        ) {
            prop_assert!(!xs.is_empty());
            prop_assert!(xs.len() < 10);
            for (x, _flag) in &xs {
                prop_assert!(*x < 12);
            }
            prop_assert!((2..=4).contains(&word.len()));
            prop_assert!(word.chars().all(|c| ('a'..='c').contains(&c)));
            prop_assert!((3..7).contains(&k));
            prop_assert_eq!(k + 1, 1 + k);
        }
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn proptest_cases_overrides_the_configured_count() {
        let before = std::env::var_os("PROPTEST_CASES");
        std::env::set_var("PROPTEST_CASES", "7");
        let cases = ProptestConfig::with_cases(32).effective_cases();
        match before {
            Some(v) => std::env::set_var("PROPTEST_CASES", v),
            None => std::env::remove_var("PROPTEST_CASES"),
        }
        assert_eq!(cases, 7);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_info() {
        proptest! {
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 100, "x is small: {x}");
            }
        }
        always_fails();
    }
}
