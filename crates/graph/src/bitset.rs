//! A dense fixed-capacity bitset.
//!
//! The visited sets of the product searches in `cxrpq-core` are keyed by
//! `node · |Q| + state` — a dense rectangle — so a flat `u64` word array
//! beats hashing every `(node, state)` pair: one shift/mask per membership
//! test, no hashing, no per-entry allocation, and the whole set lives in
//! `⌈len/64⌉` contiguous words.

/// A fixed-capacity set of `usize` indices below `len`.
#[derive(Clone, Debug, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitSet {
    /// An empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The set containing every index of the universe `0..len`, built by
    /// whole words (trailing bits beyond `len` stay clear so `count` and
    /// `ones` remain exact).
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for w in &mut s.words {
            *w = !0;
        }
        let tail = len % 64;
        if tail != 0 {
            if let Some(last) = s.words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        s
    }

    /// The universe size.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `i`, returning `true` when it was not yet present.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "index {i} out of capacity {}", self.len);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    /// Removes `i`, returning `true` when it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "index {i} out of capacity {}", self.len);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let present = self.words[w] & b != 0;
        self.words[w] &= !b;
        present
    }

    /// Whether `i` is present.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "index {i} out of capacity {}", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Removes every element (capacity unchanged).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Word-level intersection: AND-merges `other` into `self` with one
    /// pass over the word arrays instead of element-wise tests.
    ///
    /// Both sets must cover the same universe.
    pub fn intersect_with(&mut self, other: &Self) {
        assert_eq!(
            self.len, other.len,
            "intersection over mismatched universes ({} vs {})",
            self.len, other.len
        );
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Number of elements present.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The smallest present index `≥ i`, or `None` when no such element
    /// exists. One mask plus a word scan, so a leapfrog intersection can
    /// treat the set as a sorted ascending iterator with random seeks
    /// (resuming from wherever the previous probe landed costs nothing:
    /// the scan always starts at `i`'s word).
    #[inline]
    pub fn seek_ge(&self, i: usize) -> Option<usize> {
        if i >= self.len {
            return None;
        }
        let mut w = i / 64;
        let mut word = self.words[w] & (!0u64 << (i % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            word = *self.words.get(w)?;
        }
    }

    /// Iterates over the present indices in increasing order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut m = w;
            std::iter::from_fn(move || {
                if m == 0 {
                    return None;
                }
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                Some(wi * 64 + b)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_clear() {
        let mut s = DenseBitSet::new(130);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0), "second insert reports already-present");
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(s.contains(129) && s.contains(64));
        assert_eq!(s.count(), 4);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert!(s.remove(64));
        assert!(!s.remove(64), "second remove reports absent");
        assert!(!s.contains(64));
        s.clear();
        assert_eq!(s.count(), 0);
        assert!(!s.contains(63));
    }

    #[test]
    fn intersect_keeps_common_words() {
        let mut a = DenseBitSet::new(130);
        let mut b = DenseBitSet::new(130);
        a.insert(0);
        a.insert(70);
        a.insert(129);
        b.insert(70);
        b.insert(129);
        b.insert(1);
        a.intersect_with(&b);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![70, 129]);
        assert_eq!(b.count(), 3, "source of the merge is untouched");
    }

    #[test]
    fn full_sets_every_index_and_no_more() {
        for len in [0, 1, 63, 64, 65, 130] {
            let s = DenseBitSet::full(len);
            assert_eq!(s.count(), len, "len {len}");
            assert_eq!(s.ones().collect::<Vec<_>>(), (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn seek_ge_finds_next_member() {
        let mut s = DenseBitSet::new(200);
        for i in [0, 63, 64, 129, 199] {
            s.insert(i);
        }
        assert_eq!(s.seek_ge(0), Some(0));
        assert_eq!(s.seek_ge(1), Some(63));
        assert_eq!(s.seek_ge(63), Some(63));
        assert_eq!(s.seek_ge(65), Some(129), "crosses an all-zero word");
        assert_eq!(s.seek_ge(130), Some(199));
        assert_eq!(s.seek_ge(199), Some(199));
        assert_eq!(s.seek_ge(200), None, "past the universe");
        let empty = DenseBitSet::new(100);
        assert_eq!(empty.seek_ge(0), None);
        // seek_ge agrees with the ascending iterator on every start point.
        for i in 0..200 {
            assert_eq!(s.seek_ge(i), s.ones().find(|&x| x >= i), "start {i}");
        }
    }

    #[test]
    fn empty_universe() {
        let s = DenseBitSet::new(0);
        assert_eq!(s.capacity(), 0);
        assert_eq!(s.count(), 0);
        assert_eq!(s.ones().count(), 0);
    }
}
