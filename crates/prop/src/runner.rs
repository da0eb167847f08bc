//! The property runner: sample cases, report the first failure after
//! greedily shrinking it to a minimal counterexample.

use crate::gen::{Gen, Shrinkable};
use crate::SeededRng;

/// Knobs for a property run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of random cases to try.
    pub cases: usize,
    /// Base seed; each property mixes its own name in so suites don't see
    /// correlated inputs.
    pub seed: u64,
    /// Upper bound on shrink-candidate evaluations after a failure.
    pub max_shrinks: usize,
}

/// Default base seed when `DOCQL_PROP_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0xD0C9_1D0C;

impl Config {
    /// A config from the environment: `DOCQL_PROP_CASES` overrides the
    /// suite's default case count, `DOCQL_PROP_SEED` the base seed.
    pub fn from_env(default_cases: usize) -> Config {
        let cases = std::env::var("DOCQL_PROP_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default_cases);
        let seed = std::env::var("DOCQL_PROP_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_SEED);
        Config {
            cases,
            seed,
            max_shrinks: 2000,
        }
    }
}

/// FNV-1a over the property name, used to decorrelate per-property seeds.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Check `prop` against `default_cases` samples of `gen` (overridable via
/// `DOCQL_PROP_CASES`/`DOCQL_PROP_SEED`), panicking with a shrunk minimal
/// counterexample on failure. `prop` returns `Ok(())` to pass (or to skip a
/// vacuous case) and `Err(message)` to fail — the [`crate::prop_assert!`]
/// and [`crate::prop_assert_eq!`] macros produce those `Err`s.
pub fn check<T: std::fmt::Debug + Clone + 'static>(
    name: &str,
    default_cases: usize,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    check_with(name, Config::from_env(default_cases), gen, prop);
}

/// [`check`] with an explicit [`Config`].
pub fn check_with<T: std::fmt::Debug + Clone + 'static>(
    name: &str,
    config: Config,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    let seed = config.seed ^ fnv1a(name);
    let mut rng = SeededRng::seed_from_u64(seed);
    for case in 0..config.cases {
        let sample = gen.sample(&mut rng);
        if let Err(msg) = prop(&sample.value) {
            let (min, min_msg, steps) = shrink(sample, msg, &prop, config.max_shrinks);
            panic!(
                "property '{name}' failed at case {case}/{cases} \
                 (base seed {base}, {steps} shrink steps)\n  \
                 minimal input: {min:?}\n  error: {min_msg}",
                cases = config.cases,
                base = config.seed,
            );
        }
    }
}

/// Greedy shrink: repeatedly descend into the first shrink candidate that
/// still fails, bounded by `budget` total candidate evaluations.
fn shrink<T: Clone + 'static>(
    failing: Shrinkable<T>,
    msg: String,
    prop: &impl Fn(&T) -> Result<(), String>,
    budget: usize,
) -> (T, String, usize) {
    let mut cur = failing;
    let mut cur_msg = msg;
    let mut left = budget;
    let mut steps = 0;
    'outer: loop {
        for cand in cur.shrinks() {
            if left == 0 {
                break 'outer;
            }
            left -= 1;
            if let Err(m) = prop(&cand.value) {
                cur = cand;
                cur_msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (cur.value.clone(), cur_msg, steps)
}

/// Fail the enclosing property unless the condition holds. With extra
/// arguments, they format the failure message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fail the enclosing property unless both expressions are equal, showing
/// both values in the failure message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left:  {:?}\n  right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}\n  left:  {:?}\n  right: {:?}",
                format!($($fmt)+),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{usize_in, vec_of};

    #[test]
    fn passing_property_completes() {
        check("sum_is_bounded", 64, &vec_of(usize_in(0..10), 0..5), |xs| {
            prop_assert!(xs.iter().sum::<usize>() <= 9 * 4);
            Ok(())
        });
    }

    #[test]
    fn failing_property_shrinks_to_minimal() {
        let res = std::panic::catch_unwind(|| {
            check_with(
                "has_no_big_element",
                Config {
                    cases: 200,
                    seed: DEFAULT_SEED,
                    max_shrinks: 2000,
                },
                &vec_of(usize_in(0..100), 0..8),
                |xs| {
                    prop_assert!(xs.iter().all(|&x| x < 50), "found element >= 50");
                    Ok(())
                },
            );
        });
        let err = res.expect_err("property should fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        // Greedy shrinking should reduce the witness to a single minimal
        // offending element: the vector [50].
        assert!(msg.contains("minimal input: [50]"), "got: {msg}");
    }

    #[test]
    fn seed_env_is_deterministic() {
        // Same config twice must sample identical failures.
        let run = || {
            std::panic::catch_unwind(|| {
                check_with(
                    "always_fails",
                    Config {
                        cases: 1,
                        seed: 99,
                        max_shrinks: 0,
                    },
                    &usize_in(0..1000),
                    |_| Err("nope".to_string()),
                )
            })
            .expect_err("fails")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
        };
        assert_eq!(run(), run());
    }
}
