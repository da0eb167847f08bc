//! The set answers are deduplicated in: rows kept in the order they were
//! first inserted, found by hash.
//!
//! Answer rows are compared often and ordered never, so a hash table
//! beats an ordered map: a path-valued row of ~11 steps hashes once
//! instead of being compared step by step at every level of a tree. The
//! hasher is an Fx-style multiply-rotate over machine words, seeded once
//! per process from [`std::collections::hash_map::RandomState`] so that
//! collisions do not repeat from one process to the next.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// Rows in first-insertion order, each kept once.
#[derive(Debug)]
pub struct RowSet<R> {
    rows: Vec<R>,
    /// `rows[i]`'s hash.
    hashes: Vec<u64>,
    /// Open addressing with linear probing: `0` is an empty slot, `i + 1`
    /// names `rows[i]`. A power of two, at least twice `rows.len()`.
    table: Vec<usize>,
}

impl<R> Default for RowSet<R> {
    fn default() -> RowSet<R> {
        RowSet {
            rows: Vec::new(),
            hashes: Vec::new(),
            table: vec![0; MIN_TABLE],
        }
    }
}

const MIN_TABLE: usize = 8;

impl<R: Hash + Eq> RowSet<R> {
    /// An empty set.
    pub fn new() -> RowSet<R> {
        RowSet::default()
    }

    /// Is `row` in the set?
    pub fn contains<Q: Hash + Eq + ?Sized>(&self, row: &Q) -> bool
    where
        R: Borrow<Q>,
    {
        self.find(hash(row), row).is_ok()
    }

    /// Insert `row` unless it is in the set; `true` when it was not.
    pub fn insert(&mut self, row: R) -> bool {
        let h = hash(&row);
        match self.find(h, &row) {
            Ok(_) => false,
            Err(slot) => {
                self.push(slot, h, row);
                true
            }
        }
    }

    /// Insert the row `key` views unless it is in the set, building it
    /// with `make` only when it is not; `true` when it was not.
    pub fn insert_with<Q: Hash + Eq + ?Sized>(&mut self, key: &Q, make: impl FnOnce() -> R) -> bool
    where
        R: Borrow<Q>,
    {
        let h = hash(key);
        match self.find(h, key) {
            Ok(_) => false,
            Err(slot) => {
                self.push(slot, h, make());
                true
            }
        }
    }

    /// The rows, in first-insertion order.
    pub fn into_vec(self) -> Vec<R> {
        self.rows
    }

    /// The row equal to `key` (`Ok`, its index) or the empty slot where a
    /// row with hash `h` goes (`Err`).
    fn find<Q: Eq + ?Sized>(&self, h: u64, key: &Q) -> Result<usize, usize>
    where
        R: Borrow<Q>,
    {
        let mask = self.table.len() - 1;
        let mut slot = home(h, self.table.len());
        loop {
            match self.table[slot] {
                0 => return Err(slot),
                n if self.hashes[n - 1] == h && self.rows[n - 1].borrow() == key => {
                    return Ok(n - 1)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Put `row` in the empty `slot`, growing the table once it is half
    /// full.
    fn push(&mut self, slot: usize, h: u64, row: R) {
        self.rows.push(row);
        self.hashes.push(h);
        self.table[slot] = self.rows.len();
        if 2 * self.rows.len() > self.table.len() {
            self.grow();
        }
    }

    /// Double the table, placing each row by its stored hash.
    fn grow(&mut self) {
        let len = 2 * self.table.len();
        let mut table = vec![0; len];
        for (i, h) in self.hashes.iter().enumerate() {
            let mut slot = home(*h, len);
            while table[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            table[slot] = i + 1;
        }
        self.table = table;
    }
}

impl<R: Hash + Eq> FromIterator<R> for RowSet<R> {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> RowSet<R> {
        let mut set = RowSet::new();
        for row in rows {
            set.insert(row);
        }
        set
    }
}

/// The slot a hash starts probing at in a table of `len` (a power of two)
/// slots: the hash's top bits, which the multiply mixes best.
fn home(h: u64, len: usize) -> usize {
    (h >> (64 - len.trailing_zeros())) as usize
}

/// `value`'s hash under the process's seed.
fn hash<Q: Hash + ?Sized>(value: &Q) -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0u64));
    let mut h = FxHasher(seed);
    value.hash(&mut h);
    h.finish()
}

/// Fx-style hashing: each word is mixed in by a rotate, an xor and a
/// multiply by an odd constant.
struct FxHasher(u64);

const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(w);
            self.add(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_first_insertion_order_and_drops_repeats() {
        let mut set = RowSet::new();
        for row in [vec![3], vec![1], vec![3], vec![2], vec![1]] {
            set.insert(row);
        }
        assert!(set.contains(&vec![2]));
        assert!(set.contains(&[1][..]), "a row is found by its slice");
        assert!(!set.contains(&vec![4]));
        assert_eq!(set.into_vec(), vec![vec![3], vec![1], vec![2]]);
    }

    #[test]
    fn builds_a_row_only_when_it_is_new() {
        let mut set: RowSet<Vec<String>> = RowSet::new();
        let key = ["a".to_string()];
        assert!(set.insert_with(&key[..], || key.to_vec()));
        assert!(!set.insert_with(&key[..], || unreachable!("already in the set")));
    }

    #[test]
    fn agrees_with_a_btreeset_across_growth() {
        let mut set = RowSet::new();
        let mut reference = std::collections::BTreeSet::new();
        let mut order = Vec::new();
        // Keys repeat and collide in their low bits, and the table grows
        // many times.
        for i in 0u64..5_000 {
            let row = vec![((i * 7919) % 1_531) << 8, i % 3];
            let new = reference.insert(row.clone());
            if new {
                order.push(row.clone());
            }
            assert_eq!(set.insert(row), new);
        }
        assert_eq!(set.into_vec(), order);
    }
}
