//! A copy-on-write vector of `Arc`'d fixed-size chunks.
//!
//! The store publishes a new snapshot per write by cloning its tables
//! ([`Instance`](crate::Instance)'s object slots, the inverted index's
//! vocabulary and posting lists, the path-extent table). A plain `Vec`
//! makes that clone O(length). A [`ChunkedVec`] keeps its elements in
//! chunks of [`CHUNK`], and the chunks in groups of [`CHUNK`], each behind
//! an `Arc`: a clone copies one `Arc` per group (per 4,096 elements), and a
//! later write copies only the group and the chunk it touches
//! ([`ChunkedVec::make_mut`], [`ChunkedVec::push`]).

use std::borrow::Borrow;
use std::sync::Arc;

/// Elements per chunk, and chunks per group: a write to a shared vector
/// copies at most this many elements and this many chunk pointers.
pub const CHUNK: usize = 64;

/// Elements per full group.
const GROUP: usize = CHUNK * CHUNK;

type Chunk<T> = Arc<Vec<T>>;

/// A vector split into `Arc`'d chunks of [`CHUNK`] elements, held in
/// `Arc`'d groups of [`CHUNK`] chunks. Every chunk and group but the last
/// is full, so element `i` lives in group `i / 4096`, chunk
/// `i / 64 % 64`, slot `i % 64`.
#[derive(Debug, Clone)]
pub struct ChunkedVec<T> {
    groups: Vec<Arc<Vec<Chunk<T>>>>,
    len: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> ChunkedVec<T> {
        ChunkedVec {
            groups: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// An empty vector.
    pub fn new() -> ChunkedVec<T> {
        ChunkedVec::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.groups
            .get(i / GROUP)?
            .get(i / CHUNK % CHUNK)?
            .get(i % CHUNK)
    }

    /// Mutable access to element `i`, copying its group and chunk first if
    /// another clone shares them.
    pub fn make_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let group = Arc::make_mut(self.groups.get_mut(i / GROUP)?);
        Arc::make_mut(group.get_mut(i / CHUNK % CHUNK)?).get_mut(i % CHUNK)
    }

    /// Append an element; copies the last group and chunk if they are
    /// shared and not full.
    pub fn push(&mut self, value: T) {
        if self.len.is_multiple_of(GROUP) {
            self.groups.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let Some(group) = self.groups.last_mut() else {
            return;
        };
        let group = Arc::make_mut(group);
        if self.len.is_multiple_of(CHUNK) {
            group.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        if let Some(chunk) = group.last_mut() {
            Arc::make_mut(chunk).push(value);
            self.len += 1;
        }
    }

    /// Insert `value` at `i`, shifting later elements up; an `i` at or
    /// past the end appends. Rebuilds the chunks from `i`'s onwards, so
    /// inserting near the end costs about what [`ChunkedVec::push`] does.
    pub fn insert(&mut self, i: usize, value: T) {
        if i >= self.len {
            return self.push(value);
        }
        let first = i / CHUNK;
        let mut tail = self.split_off_chunks(first);
        tail.insert(i - first * CHUNK, value);
        for v in tail {
            self.push(v);
        }
    }

    /// Remove and return the elements of chunk `c` and every later chunk,
    /// in order, keeping the chunks before it shared. Chunks no other clone
    /// shares give up their elements without copying them.
    fn split_off_chunks(&mut self, c: usize) -> Vec<T> {
        let (g, keep) = (c / CHUNK, c % CHUNK);
        let later = self.groups.split_off(g.min(self.groups.len()));
        let mut tail = Vec::new();
        for (i, group) in later.into_iter().enumerate() {
            let mut chunks = Arc::unwrap_or_clone(group);
            if i == 0 && keep > 0 {
                let rest = chunks.split_off(keep.min(chunks.len()));
                self.groups.push(Arc::new(chunks));
                chunks = rest;
            }
            for chunk in chunks {
                tail.extend(Arc::unwrap_or_clone(chunk));
            }
        }
        self.len = self.len.min(c * CHUNK);
        tail
    }

    /// The index of the first element for which `pred` is false, given
    /// that `pred` holds for a prefix of the vector and fails for the rest
    /// (the contract of [`slice::partition_point`]).
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        // Groups, then chunks, before the answer end with an element `pred`
        // accepts.
        let g = self
            .groups
            .partition_point(|group| group.last().and_then(|c| c.last()).is_some_and(&mut pred));
        let Some(group) = self.groups.get(g) else {
            return self.len;
        };
        let c = group.partition_point(|chunk| chunk.last().is_some_and(&mut pred));
        match group.get(c) {
            Some(chunk) => g * GROUP + c * CHUNK + chunk.partition_point(pred),
            None => self.len,
        }
    }

    /// The elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks().flat_map(|c| c.iter())
    }

    /// The chunks in order.
    fn chunks(&self) -> impl Iterator<Item = &Chunk<T>> {
        self.groups.iter().flat_map(|g| g.iter())
    }

    /// How many of this vector's groups and chunks are not shared with
    /// `other` at the same position — what writes copied or added since
    /// the two were one clone.
    pub fn unshared_chunks(&self, other: &ChunkedVec<T>) -> usize {
        self.groups
            .iter()
            .enumerate()
            .map(|(g, group)| match other.groups.get(g) {
                Some(o) if Arc::ptr_eq(group, o) => 0,
                o => {
                    let chunks = group.iter().enumerate().filter(|(c, chunk)| {
                        o.and_then(|o| o.get(*c))
                            .is_none_or(|o| !Arc::ptr_eq(chunk, o))
                    });
                    1 + chunks.count()
                }
            })
            .sum()
    }
}

/// Pushes every element in order: the way to build a large vector, since
/// [`ChunkedVec::insert`] before the end rebuilds the chunks after it.
impl<T: Clone> FromIterator<T> for ChunkedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> ChunkedVec<T> {
        let mut v = ChunkedVec::new();
        for x in items {
            v.push(x);
        }
        v
    }
}

/// A vector of `(key, value)` pairs kept sorted by key, used as a map.
impl<K: Clone, V: Clone> ChunkedVec<(K, V)> {
    /// Where `key` is, or would go, and whether it is there.
    fn locate<Q: Ord + ?Sized>(&self, key: &Q) -> (usize, bool)
    where
        K: Borrow<Q>,
    {
        let at = self.partition_point(|(k, _)| k.borrow() < key);
        (at, self.get(at).is_some_and(|(k, _)| k.borrow() == key))
    }

    /// The value under `key`.
    pub fn find<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        match self.locate(key) {
            (at, true) => self.get(at).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable access to the value under `key`, copying its group and
    /// chunk first if they are shared.
    pub fn find_mut<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        match self.locate(key) {
            (at, true) => self.make_mut(at).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert `pairs`, sorted by key and none of whose keys is present, in
    /// key order: one rebuild of the chunks from the first pair's position
    /// on, however many pairs there are.
    pub fn insert_sorted(&mut self, pairs: Vec<(K, V)>)
    where
        K: Ord,
    {
        let Some((key, _)) = pairs.first() else {
            return;
        };
        let first = self.partition_point(|(k, _)| k < key) / CHUNK;
        let mut tail = self.split_off_chunks(first).into_iter().peekable();
        let mut pairs = pairs.into_iter().peekable();
        loop {
            let next = match (tail.peek(), pairs.peek()) {
                (Some(t), Some(p)) if t.0 < p.0 => tail.next(),
                (_, Some(_)) => pairs.next(),
                (Some(_), None) => tail.next(),
                (None, None) => return,
            };
            if let Some(pair) = next {
                self.push(pair);
            }
        }
    }

    /// Mutable access to the value under `key`, first inserting the pair
    /// `make` builds (its key must equal `key`) when `key` is absent.
    /// Copies chunks as [`ChunkedVec::make_mut`] and
    /// [`ChunkedVec::insert`] do; an insertion before the end rebuilds the
    /// chunks after it, so bulk builds collect sorted pairs instead.
    pub fn find_or_insert<Q: Ord + ?Sized>(
        &mut self,
        key: &Q,
        make: impl FnOnce() -> (K, V),
    ) -> &mut V
    where
        K: Borrow<Q>,
    {
        let (at, found) = self.locate(key);
        if !found {
            self.insert(at, make());
        }
        // `at < len` now: the key was there or was just inserted there.
        let group = Arc::make_mut(&mut self.groups[at / GROUP]);
        &mut Arc::make_mut(&mut group[at / CHUNK % CHUNK])[at % CHUNK].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of<T: Clone>(items: impl IntoIterator<Item = T>) -> ChunkedVec<T> {
        items.into_iter().collect()
    }

    #[test]
    fn push_get_and_chunk_boundaries() {
        let n = GROUP + CHUNK * 2 + 3;
        let v = of(0..n);
        assert_eq!(v.len(), n);
        assert_eq!(v.groups.len(), 2);
        assert_eq!(v.chunks().count(), CHUNK + 3);
        for i in 0..v.len() {
            assert_eq!(v.get(i), Some(&i));
        }
        assert_eq!(v.get(v.len()), None);
        assert!(v.iter().copied().eq(0..n));
    }

    #[test]
    fn a_write_to_a_clone_copies_one_group_and_chunk() {
        let a = of(0..CHUNK as u32 * 3);
        let mut b = a.clone();
        assert_eq!(b.unshared_chunks(&a), 0);
        *b.make_mut(CHUNK + 1).unwrap() = 7;
        assert_eq!(b.unshared_chunks(&a), 2, "the group and the chunk");
        assert_eq!(a.get(CHUNK + 1), Some(&(CHUNK as u32 + 1)));
        assert_eq!(b.get(CHUNK + 1), Some(&7));
        assert_eq!(b.make_mut(CHUNK * 3), None);
        b.push(1);
        assert_eq!(
            b.unshared_chunks(&a),
            3,
            "a full last chunk starts a new one"
        );
    }

    #[test]
    fn insert_and_partition_point_keep_order() {
        for n in [200u32, GROUP as u32 + 100] {
            let mut v = of((0..n).map(|x| x * 2));
            assert_eq!(v.partition_point(|x| *x < 101), 51);
            assert_eq!(v.partition_point(|x| *x < n + 1), n as usize / 2 + 1);
            assert_eq!(v.partition_point(|_| true), n as usize);
            assert_eq!(v.partition_point(|_| false), 0);
            let mut want: Vec<u32> = v.iter().copied().collect();
            for (i, x) in [(51, 101), (0, 0), (CHUNK, 5), (v.len(), 9999)] {
                v.insert(i, x);
                want.insert(i.min(want.len()), x);
            }
            assert_eq!(v.len(), want.len());
            assert!(v.iter().eq(want.iter()));
        }
        assert_eq!(ChunkedVec::<u32>::new().partition_point(|_| true), 0);
    }

    #[test]
    fn sorted_pairs_work_as_a_map() {
        let mut m: ChunkedVec<(u32, u32)> = ChunkedVec::new();
        for k in [5, 1, 9, 3, 5] {
            *m.find_or_insert(&k, || (k, 0)) += 1;
        }
        let pairs: Vec<(u32, u32)> = m.iter().copied().collect();
        assert_eq!(pairs, [(1, 1), (3, 1), (5, 2), (9, 1)]);
        assert_eq!(m.find(&5), Some(&2));
        assert_eq!(m.find(&4), None);
    }
}
