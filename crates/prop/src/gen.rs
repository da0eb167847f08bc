//! Generator combinators with integrated shrinking.
//!
//! A [`Gen<T>`] samples a [`Shrinkable<T>`]: the generated value plus a
//! lazily-computed list of *simpler* candidate values, each itself
//! shrinkable. The runner walks this tree greedily on failure — descend
//! into the first child that still fails, repeat — which is the classic
//! integrated-shrinking design (Hypothesis, proptest): shrinks are derived
//! from the generator, so they always satisfy its invariants.

use crate::SeededRng;
use std::ops::Range;
use std::rc::Rc;

/// A generated value together with its lazily-computed shrink candidates.
pub struct Shrinkable<T> {
    /// The generated value.
    pub value: T,
    shrinks: Rc<dyn Fn() -> Vec<Shrinkable<T>>>,
}

impl<T: Clone> Clone for Shrinkable<T> {
    fn clone(&self) -> Shrinkable<T> {
        Shrinkable {
            value: self.value.clone(),
            shrinks: Rc::clone(&self.shrinks),
        }
    }
}

impl<T: 'static> Shrinkable<T> {
    /// A value with no shrinks.
    pub fn leaf(value: T) -> Shrinkable<T> {
        Shrinkable {
            value,
            shrinks: Rc::new(Vec::new),
        }
    }

    /// A value with the given shrink-candidate producer.
    pub fn with(value: T, shrinks: impl Fn() -> Vec<Shrinkable<T>> + 'static) -> Shrinkable<T> {
        Shrinkable {
            value,
            shrinks: Rc::new(shrinks),
        }
    }

    /// The shrink candidates, simplest-first by convention.
    pub fn shrinks(&self) -> Vec<Shrinkable<T>> {
        (self.shrinks)()
    }

    /// Map the value and every shrink through `f`.
    pub fn map<U: 'static>(&self, f: Rc<dyn Fn(&T) -> U>) -> Shrinkable<U>
    where
        T: 'static,
    {
        let value = f(&self.value);
        let inner = Rc::clone(&self.shrinks);
        Shrinkable {
            value,
            shrinks: Rc::new(move || {
                let f = Rc::clone(&f);
                inner().iter().map(|s| s.map(Rc::clone(&f))).collect()
            }),
        }
    }
}

/// The boxed sampling function inside a [`Gen`].
type GenFn<T> = Rc<dyn Fn(&mut SeededRng) -> Shrinkable<T>>;

/// A reusable, clonable generator of shrinkable values.
pub struct Gen<T> {
    run: GenFn<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Gen<T> {
        Gen {
            run: Rc::clone(&self.run),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// A generator from a sampling function.
    pub fn new(f: impl Fn(&mut SeededRng) -> Shrinkable<T> + 'static) -> Gen<T> {
        Gen { run: Rc::new(f) }
    }

    /// Sample one shrinkable value.
    pub fn sample(&self, rng: &mut SeededRng) -> Shrinkable<T> {
        (self.run)(rng)
    }

    /// Transform generated values (shrinks are mapped through `f` too).
    pub fn map<U: 'static>(&self, f: impl Fn(&T) -> U + 'static) -> Gen<U> {
        let g = self.clone();
        let f: Rc<dyn Fn(&T) -> U> = Rc::new(f);
        Gen::new(move |rng| g.sample(rng).map(Rc::clone(&f)))
    }
}

/// Always the same value (no shrinks) — proptest's `Just`.
pub fn just<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::new(move |_| Shrinkable::leaf(value.clone()))
}

fn element_at<T: Clone + 'static>(items: Rc<Vec<T>>, i: usize) -> Shrinkable<T> {
    let value = items[i].clone();
    Shrinkable::with(value, move || {
        (0..i).map(|j| element_at(Rc::clone(&items), j)).collect()
    })
}

/// One of the given values, uniformly; shrinks toward earlier elements.
pub fn element<T: Clone + 'static>(items: Vec<T>) -> Gen<T> {
    assert!(!items.is_empty(), "element: no choices");
    let items = Rc::new(items);
    Gen::new(move |rng| {
        let i = rng.gen_range(0..items.len());
        element_at(Rc::clone(&items), i)
    })
}

/// Sample from one of the given generators, uniformly.
pub fn one_of<T: 'static>(gens: Vec<Gen<T>>) -> Gen<T> {
    assert!(!gens.is_empty(), "one_of: no choices");
    Gen::new(move |rng| {
        let i = rng.gen_range(0..gens.len());
        gens[i].sample(rng)
    })
}

/// Sample from the generators with the given relative weights.
pub fn weighted<T: 'static>(choices: Vec<(u32, Gen<T>)>) -> Gen<T> {
    let total: u64 = choices.iter().map(|(w, _)| u64::from(*w)).sum();
    assert!(total > 0, "weighted: zero total weight");
    Gen::new(move |rng| {
        let mut ticket = (rng.next_u64() % total) as i64;
        for (w, g) in &choices {
            ticket -= i64::from(*w);
            if ticket < 0 {
                return g.sample(rng);
            }
        }
        choices[choices.len() - 1].1.sample(rng)
    })
}

fn shrink_usize(min: usize, v: usize) -> Shrinkable<usize> {
    Shrinkable::with(v, move || {
        let mut cands = Vec::new();
        if v > min {
            cands.push(min);
            let half = min + (v - min) / 2;
            if half != min {
                cands.push(half);
            }
            if v - 1 != half {
                cands.push(v - 1);
            }
        }
        cands.into_iter().map(|c| shrink_usize(min, c)).collect()
    })
}

/// A `usize` in `[range.start, range.end)`; shrinks toward the start.
pub fn usize_in(range: Range<usize>) -> Gen<usize> {
    Gen::new(move |rng| shrink_usize(range.start, rng.gen_range(range.clone())))
}

fn shrink_i64(v: i64) -> Shrinkable<i64> {
    Shrinkable::with(v, move || {
        let mut cands = Vec::new();
        if v != 0 {
            cands.push(0);
            if v / 2 != 0 {
                cands.push(v / 2);
            }
            let step = v - v.signum();
            if step != 0 && step != v / 2 {
                cands.push(step);
            }
        }
        cands.into_iter().map(shrink_i64).collect()
    })
}

/// Any `i64` (uniform bits); shrinks toward zero.
pub fn i64_any() -> Gen<i64> {
    Gen::new(|rng| shrink_i64(rng.next_u64() as i64))
}

/// Any `f64` bit pattern — including infinities and NaNs, like proptest's
/// `any::<f64>()`; shrinks to `0.0`.
pub fn f64_any() -> Gen<f64> {
    Gen::new(|rng| {
        let v = f64::from_bits(rng.next_u64());
        Shrinkable::with(v, move || {
            if v.to_bits() == 0 {
                Vec::new()
            } else {
                vec![Shrinkable::leaf(0.0)]
            }
        })
    })
}

/// Either boolean; `true` shrinks to `false`.
pub fn bool_any() -> Gen<bool> {
    Gen::new(|rng| {
        if rng.gen_bool(0.5) {
            Shrinkable::with(true, || vec![Shrinkable::leaf(false)])
        } else {
            Shrinkable::leaf(false)
        }
    })
}

fn shrinkable_vec<T: Clone + 'static>(items: Vec<Shrinkable<T>>, min: usize) -> Shrinkable<Vec<T>> {
    let value: Vec<T> = items.iter().map(|s| s.value.clone()).collect();
    Shrinkable::with(value, move || {
        let mut out = Vec::new();
        // First try removing an element (bigger simplification) …
        if items.len() > min {
            for i in 0..items.len() {
                let mut rest = items.clone();
                rest.remove(i);
                out.push(shrinkable_vec(rest, min));
            }
        }
        // … then shrinking an element in place.
        for i in 0..items.len() {
            for s in items[i].shrinks() {
                let mut next = items.clone();
                next[i] = s;
                out.push(shrinkable_vec(next, min));
            }
        }
        out
    })
}

/// A vector with length in `[len.start, len.end)`; shrinks by removing
/// elements (down to the minimum length) and by shrinking elements.
pub fn vec_of<T: Clone + 'static>(item: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
    Gen::new(move |rng| {
        let n = if len.start < len.end {
            rng.gen_range(len.clone())
        } else {
            len.start
        };
        let items: Vec<Shrinkable<T>> = (0..n).map(|_| item.sample(rng)).collect();
        shrinkable_vec(items, len.start)
    })
}

/// A string of `min..=max` characters drawn from `charset` — the harness's
/// analogue of proptest's `"[abc]{0,8}"` regex strategies. Shrinks by
/// dropping characters and by moving characters toward the charset's first.
pub fn string_of(charset: &str, min: usize, max: usize) -> Gen<String> {
    let chars: Vec<char> = charset.chars().collect();
    vec_of(element(chars), min..max + 1).map(|cs| cs.iter().collect::<String>())
}

fn shrink_pair<A: Clone + 'static, B: Clone + 'static>(
    a: Shrinkable<A>,
    b: Shrinkable<B>,
) -> Shrinkable<(A, B)> {
    let value = (a.value.clone(), b.value.clone());
    Shrinkable::with(value, move || {
        let mut out = Vec::new();
        for sa in a.shrinks() {
            out.push(shrink_pair(sa, b.clone()));
        }
        for sb in b.shrinks() {
            out.push(shrink_pair(a.clone(), sb));
        }
        out
    })
}

/// Pair two independent generators; shrinks interleave both components.
pub fn zip<A: Clone + 'static, B: Clone + 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    Gen::new(move |rng| {
        let sa = a.sample(rng);
        let sb = b.sample(rng);
        shrink_pair(sa, sb)
    })
}

/// Triple three independent generators.
pub fn zip3<A: Clone + 'static, B: Clone + 'static, C: Clone + 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
) -> Gen<(A, B, C)> {
    zip(a, zip(b, c)).map(|(a, (b, c))| (a.clone(), b.clone(), c.clone()))
}

/// A recursive generator: start from `leaf` and apply `rec` up to `depth`
/// times, choosing recursion with 2:1 odds at each layer — the analogue of
/// proptest's `prop_recursive`.
pub fn recursive<T: 'static>(
    leaf: Gen<T>,
    depth: usize,
    rec: impl Fn(&Gen<T>) -> Gen<T>,
) -> Gen<T> {
    let mut g = leaf.clone();
    for _ in 0..depth {
        let inner = rec(&g);
        g = weighted(vec![(1, leaf.clone()), (2, inner)]);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_shrinks_toward_first() {
        let g = element(vec![10, 20, 30]);
        let mut rng = SeededRng::seed_from_u64(1);
        for _ in 0..20 {
            let s = g.sample(&mut rng);
            for sh in s.shrinks() {
                assert!(sh.value < s.value);
            }
        }
    }

    #[test]
    fn vec_shrinks_respect_min_len() {
        let g = vec_of(usize_in(0..5), 2..6);
        let mut rng = SeededRng::seed_from_u64(2);
        for _ in 0..20 {
            let s = g.sample(&mut rng);
            assert!((2..6).contains(&s.value.len()));
            for sh in s.shrinks() {
                assert!(sh.value.len() >= 2);
            }
        }
    }

    #[test]
    fn string_of_draws_from_charset() {
        let g = string_of("abc", 0, 8);
        let mut rng = SeededRng::seed_from_u64(3);
        for _ in 0..50 {
            let s = g.sample(&mut rng);
            assert!(s.value.len() <= 8);
            assert!(s.value.chars().all(|c| "abc".contains(c)));
        }
    }

    #[test]
    fn weighted_respects_weights() {
        let g = weighted(vec![(1, just(false)), (9, just(true))]);
        let mut rng = SeededRng::seed_from_u64(4);
        let trues = (0..1000).filter(|_| g.sample(&mut rng).value).count();
        assert!((800..1000).contains(&trues), "trues = {trues}");
    }

    #[test]
    fn recursive_terminates() {
        #[derive(Clone, Debug)]
        enum Tree {
            Leaf,
            Node(Vec<Tree>),
        }
        fn size(t: &Tree) -> usize {
            match t {
                Tree::Leaf => 1,
                Tree::Node(kids) => 1 + kids.iter().map(size).sum::<usize>(),
            }
        }
        let g = recursive(just(Tree::Leaf), 4, |inner| {
            vec_of(inner.clone(), 0..3).map(|kids| Tree::Node(kids.clone()))
        });
        let mut rng = SeededRng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(size(&g.sample(&mut rng).value) >= 1);
        }
    }
}
