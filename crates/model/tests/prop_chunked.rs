//! Property tests for [`ChunkedVec`], the copy-on-write vector under the
//! store's snapshot tables: random operation sequences must leave it
//! equal to a `Vec` (or, used as a sorted map, a `BTreeMap`) model, and a
//! clone taken part-way ("a fork") must keep the contents it had, whatever
//! is written to the original afterwards. Sorted inserts, one at a time or
//! in batches, must keep the pairs in key order.

use docql_model::ChunkedVec;
use docql_prop::{
    check, i64_any, just, prop_assert, prop_assert_eq, usize_in, vec_of, weighted, zip, Gen,
};
use std::collections::BTreeMap;

const CASES: usize = 64;

#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    /// Push this many elements, enough to cross chunk and group boundaries.
    PushMany(usize),
    /// Overwrite the element at this index, modulo the length.
    Set(usize, u32),
    /// Insert at this index, modulo the length plus one.
    Insert(usize, u32),
    /// Clone the vector and keep the clone.
    Fork,
}

fn op() -> Gen<Op> {
    let val = || i64_any().map(|x| *x as u32);
    weighted(vec![
        (4, val().map(|x| Op::Push(*x))),
        (1, usize_in(0..6_000).map(|n| Op::PushMany(*n))),
        (
            3,
            zip(usize_in(0..10_000), val()).map(|(i, x)| Op::Set(*i, *x)),
        ),
        (
            2,
            zip(usize_in(0..10_000), val()).map(|(i, x)| Op::Insert(*i, *x)),
        ),
        (2, just(Op::Fork)),
    ])
}

fn same(v: &ChunkedVec<u32>, model: &[u32]) -> Result<(), String> {
    prop_assert_eq!(v.len(), model.len());
    prop_assert_eq!(v.is_empty(), model.is_empty());
    prop_assert_eq!(v.get(model.len()), None);
    prop_assert!(
        v.iter().eq(model.iter()),
        "iteration differs from the model"
    );
    for (i, x) in model.iter().enumerate() {
        prop_assert_eq!(v.get(i), Some(x), "element {i}");
    }
    Ok(())
}

#[test]
fn chunked_vec_matches_a_vec_and_forks_keep_their_contents() {
    check(
        "chunked_vec_matches_a_vec_and_forks_keep_their_contents",
        CASES,
        &vec_of(op(), 0..40),
        |ops| {
            let mut v = ChunkedVec::new();
            let mut model: Vec<u32> = Vec::new();
            let mut forks: Vec<(ChunkedVec<u32>, Vec<u32>)> = Vec::new();
            for op in ops {
                match op {
                    Op::Push(x) => {
                        v.push(*x);
                        model.push(*x);
                    }
                    Op::PushMany(n) => {
                        for k in 0..*n as u32 {
                            v.push(k);
                            model.push(k);
                        }
                    }
                    Op::Set(i, x) => {
                        if !model.is_empty() {
                            let i = i % model.len();
                            *v.make_mut(i).ok_or("make_mut in range")? = *x;
                            model[i] = *x;
                        }
                        prop_assert!(v.make_mut(model.len()).is_none());
                    }
                    Op::Insert(i, x) => {
                        let i = i % (model.len() + 1);
                        v.insert(i, *x);
                        model.insert(i, *x);
                    }
                    Op::Fork => forks.push((v.clone(), model.clone())),
                }
                same(&v, &model)?;
            }
            for (fork, frozen) in &forks {
                same(fork, frozen)?;
            }
            Ok(())
        },
    );
}

#[test]
fn sorted_pairs_match_a_btreemap() {
    check(
        "sorted_pairs_match_a_btreemap",
        CASES,
        &zip(vec_of(usize_in(0..3_000), 0..600), usize_in(1..600)),
        |(keys, fork_at)| {
            let mut map: ChunkedVec<(usize, u32)> = ChunkedVec::new();
            let mut model: BTreeMap<usize, u32> = BTreeMap::new();
            let mut fork = None;
            for (n, k) in keys.iter().enumerate() {
                if n == *fork_at {
                    fork = Some((map.clone(), model.clone()));
                }
                *map.find_or_insert(k, || (*k, 0)) += 1;
                *model.entry(*k).or_default() += 1;
            }
            let pairs: Vec<(usize, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert!(map.iter().eq(pairs.iter()), "pairs differ from the model");
            for q in (0..3_000).step_by(37) {
                prop_assert_eq!(map.find(&q), model.get(&q), "find {q}");
                prop_assert_eq!(
                    map.partition_point(|(k, _)| *k < q),
                    model.range(..q).count(),
                    "partition point {q}"
                );
            }
            if let Some((fork, frozen)) = fork {
                let pairs: Vec<(usize, u32)> = frozen.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert!(fork.iter().eq(pairs.iter()), "fork changed");
            }
            Ok(())
        },
    );
}

#[test]
fn batched_sorted_inserts_match_a_btreemap() {
    check(
        "batched_sorted_inserts_match_a_btreemap",
        CASES,
        &zip(
            zip(vec_of(usize_in(0..50_000), 0..6_000), usize_in(50..1_000)),
            usize_in(0..6_000),
        ),
        |((keys, batch), fork_at)| {
            let mut map: ChunkedVec<(usize, u32)> = ChunkedVec::new();
            let mut model: BTreeMap<usize, u32> = BTreeMap::new();
            let mut fork = None;
            for (n, keys) in keys.chunks(*batch).enumerate() {
                if n * batch >= *fork_at && fork.is_none() {
                    fork = Some((map.clone(), model.clone()));
                }
                // Present keys count in place; absent ones go in together.
                let mut absent: BTreeMap<usize, u32> = BTreeMap::new();
                for k in keys {
                    match map.find_mut(k) {
                        Some(count) => *count += 1,
                        None => *absent.entry(*k).or_default() += 1,
                    }
                    *model.entry(*k).or_default() += 1;
                }
                map.insert_sorted(absent.into_iter().collect());
            }
            let pairs: Vec<(usize, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(map.len(), pairs.len());
            prop_assert!(map.iter().eq(pairs.iter()), "pairs differ from the model");
            for q in (0..50_000).step_by(97) {
                prop_assert_eq!(map.find(&q), model.get(&q), "find {q}");
            }
            if let Some((fork, frozen)) = fork {
                let pairs: Vec<(usize, u32)> = frozen.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert!(fork.iter().eq(pairs.iter()), "fork changed");
            }
            Ok(())
        },
    );
}
