//! Packed coverage bitsets and word-parallel redundancy accounting.
//!
//! The composition solvers spend nearly all their time asking two
//! questions about a candidate: *which pairs does it cover* and *how many
//! of those still need coverers*. Representing a candidate's covered
//! (cell, modality) pairs as a packed `u64` bitset answers the second
//! question 64 pairs at a time: the marginal gain of a candidate is one
//! AND-NOT + popcount pass over its words instead of a per-pair loop.

/// A set of coverage-pair indices packed 64-per-word.
///
/// Construction order is irrelevant (bitsets are canonical), iteration
/// yields indices in ascending order, and equality/hashing follow set
/// semantics — all matching the sorted `Vec<u32>` representation this
/// type replaced.
#[derive(Clone, PartialEq, Eq)]
pub struct CoverageSet {
    words: Vec<u64>,
}

impl CoverageSet {
    /// An empty set able to hold pair indices `0..universe`.
    pub fn with_capacity(universe: usize) -> Self {
        CoverageSet {
            words: vec![0u64; universe.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Builds a set from pair indices (any order, duplicates collapse).
    pub fn from_indices(universe: usize, indices: impl IntoIterator<Item = u32>) -> Self {
        let mut set = CoverageSet::with_capacity(universe);
        for i in indices {
            set.insert(i);
        }
        set
    }

    /// Adds a pair index.
    ///
    /// # Panics
    ///
    /// Panics when `pair` is beyond the construction capacity.
    #[inline]
    pub fn insert(&mut self, pair: u32) {
        self.words_mut()[(pair / 64) as usize] |= 1u64 << (pair % 64);
    }

    /// Whether the set contains a pair index.
    #[inline]
    pub fn contains(&self, pair: u32) -> bool {
        self.words()
            .get((pair / 64) as usize)
            .is_some_and(|w| w & (1u64 << (pair % 64)) != 0)
    }

    /// Number of pairs in the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Iterates pair indices in ascending order.
    pub fn iter(&self) -> CoverageIter<'_> {
        let words = self.words();
        CoverageIter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// The backing words (low bit of word 0 is pair 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Counts pairs in `self` that are NOT in `mask` — the word-parallel
    /// core of marginal-gain evaluation (`mask` holds already-saturated
    /// pairs).
    pub fn count_outside(&self, mask: &[u64]) -> usize {
        self.words()
            .iter()
            .zip(mask)
            .map(|(w, m)| (w & !m).count_ones() as usize)
            .sum()
    }
}

/// Sets bits `start, start + stride, ...` (`count` of them) in a packed
/// word slice — the run form of [`CoverageSet::insert`], which the problem
/// constructor applies to a set's backing words directly. Strides 1 and 2
/// (one- and two-modality problems) set whole-word masks instead of
/// per-bit.
///
/// # Panics
///
/// Panics when the last bit is beyond `words`, or when
/// `count > 0 && stride == 0`.
#[inline]
pub(crate) fn set_strided_run(words: &mut [u64], start: u32, count: u32, stride: u32) {
    if count == 0 {
        return;
    }
    assert!(stride > 0, "stride must be nonzero");
    let end = start + (count - 1) * stride; // inclusive last bit
    let (w0, b0) = ((start / 64) as usize, start % 64);
    let (w1, b1) = ((end / 64) as usize, end % 64);
    // A stride that divides 64 repeats the same bit pattern in every
    // word, so the run becomes one masked OR per touched word.
    let pattern = match stride {
        1 => u64::MAX,
        2 => 0x5555_5555_5555_5555u64 << (start % 2),
        _ => {
            for i in 0..count {
                let p = start + i * stride;
                words[(p / 64) as usize] |= 1u64 << (p % 64);
            }
            return;
        }
    };
    assert!(w1 < words.len(), "run beyond capacity");
    let lo_mask = u64::MAX << b0;
    let hi_mask = u64::MAX >> (63 - b1);
    if w0 == w1 {
        words[w0] |= lo_mask & hi_mask & pattern;
        return;
    }
    words[w0] |= lo_mask & pattern;
    for w in &mut words[w0 + 1..w1] {
        *w |= pattern;
    }
    words[w1] |= hi_mask & pattern;
}

impl std::fmt::Debug for CoverageSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a CoverageSet {
    type Item = u32;
    type IntoIter = CoverageIter<'a>;

    fn into_iter(self) -> CoverageIter<'a> {
        self.iter()
    }
}

/// Ascending iterator over a [`CoverageSet`].
pub struct CoverageIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for CoverageIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.word_idx as u32 * 64 + bit)
    }
}

/// Incremental per-pair multiplicity tracking with a word-parallel
/// saturation mask.
///
/// Maintains, under candidate additions/removals: the exact per-pair
/// coverer count, the number of pairs at redundancy ≥ `k`, and a bitset of
/// those saturated pairs (so [`CoverageCounter::gain`] is word-parallel).
#[derive(Debug, Clone)]
pub struct CoverageCounter {
    k: u16,
    counts: Vec<u16>,
    saturated: Vec<u64>,
    satisfied: usize,
}

impl CoverageCounter {
    /// An empty counter over `pair_count` pairs at redundancy `k`.
    ///
    /// `k == 0` means every pair is trivially satisfied from the start.
    pub fn new(pair_count: usize, k: usize) -> Self {
        let k = k.min(u16::MAX as usize) as u16;
        let words = pair_count.div_ceil(64);
        let mut counter = CoverageCounter {
            k,
            counts: vec![0u16; pair_count],
            saturated: vec![0u64; words],
            satisfied: 0,
        };
        if k == 0 {
            // All pairs start saturated; mask bits beyond pair_count stay
            // clear so word-parallel gain never counts phantom pairs.
            for (i, w) in counter.saturated.iter_mut().enumerate() {
                let bits_here = (pair_count - i * 64).min(64);
                *w = if bits_here == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits_here) - 1
                };
            }
            counter.satisfied = pair_count;
        }
        counter
    }

    /// Number of pairs at redundancy ≥ `k`.
    #[inline]
    pub fn satisfied(&self) -> usize {
        self.satisfied
    }

    /// Exact per-pair multiplicities.
    pub fn counts(&self) -> &[u16] {
        &self.counts
    }

    /// Marginal gain of adding `covers`: how many of its pairs are not
    /// yet saturated. One AND-NOT + popcount pass per word.
    #[inline]
    pub fn gain(&self, covers: &CoverageSet) -> usize {
        covers.count_outside(&self.saturated)
    }

    /// How many pairs would newly reach redundancy `k` if `covers` were
    /// added (the annealer's add-move delta).
    pub fn newly_satisfied_if_added(&self, covers: &CoverageSet) -> usize {
        if self.k == 0 {
            return 0;
        }
        let target = self.k - 1;
        covers
            .iter()
            .filter(|&p| self.counts[p as usize] == target)
            .count()
    }

    /// How many pairs would drop below redundancy `k` if `covers` were
    /// removed (the annealer's remove-move delta).
    pub fn newly_unsatisfied_if_removed(&self, covers: &CoverageSet) -> usize {
        if self.k == 0 {
            return 0;
        }
        covers
            .iter()
            .filter(|&p| self.counts[p as usize] == self.k)
            .count()
    }

    /// Adds one candidate's coverage.
    pub fn add(&mut self, covers: &CoverageSet) {
        for p in covers.iter() {
            let c = &mut self.counts[p as usize];
            *c = c.saturating_add(1);
            if *c == self.k {
                self.saturated[(p / 64) as usize] |= 1u64 << (p % 64);
                self.satisfied += 1;
            }
        }
    }

    /// Removes one previously-added candidate's coverage.
    pub fn remove(&mut self, covers: &CoverageSet) {
        for p in covers.iter() {
            let c = &mut self.counts[p as usize];
            if *c == self.k && self.k > 0 {
                self.saturated[(p / 64) as usize] &= !(1u64 << (p % 64));
                self.satisfied -= 1;
            }
            *c = c.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_is_canonical() {
        let a = CoverageSet::from_indices(200, [7u32, 3, 130, 64]);
        let b = CoverageSet::from_indices(200, [130u32, 64, 3, 7, 7]);
        assert_eq!(a, b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 7, 64, 130]);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        assert!(a.contains(64) && !a.contains(65));
    }

    #[test]
    fn empty_set_behaves() {
        let s = CoverageSet::with_capacity(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn counter_tracks_saturation_incrementally() {
        let mut c = CoverageCounter::new(130, 2);
        let a = CoverageSet::from_indices(130, [0u32, 1, 128]);
        let b = CoverageSet::from_indices(130, [1u32, 128, 129]);
        assert_eq!(c.gain(&a), 3);
        assert_eq!(c.newly_satisfied_if_added(&a), 0);
        c.add(&a);
        assert_eq!(c.satisfied(), 0);
        assert_eq!(c.newly_satisfied_if_added(&b), 2); // pairs 1 and 128 reach k=2
        c.add(&b);
        assert_eq!(c.satisfied(), 2);
        // Saturated pairs no longer contribute gain.
        assert_eq!(c.gain(&a), 1); // only pair 0 still below k
        assert_eq!(c.newly_unsatisfied_if_removed(&b), 2);
        c.remove(&b);
        assert_eq!(c.satisfied(), 0);
        assert_eq!(c.counts()[1], 1);
    }

    #[test]
    fn insert_run_matches_repeated_insert() {
        for stride in [1u32, 2, 3, 5] {
            for start in [0u32, 1, 7, 63, 64, 65, 120, 200] {
                for count in [0u32, 1, 2, 3, 17, 64, 65, 90] {
                    let universe = 1_000;
                    let mut bulk = CoverageSet::with_capacity(universe);
                    set_strided_run(bulk.words_mut(), start, count, stride);
                    let mut single = CoverageSet::with_capacity(universe);
                    for i in 0..count {
                        single.insert(start + i * stride);
                    }
                    assert_eq!(
                        bulk, single,
                        "stride {stride} start {start} count {count}"
                    );
                }
            }
        }
    }

    #[test]
    fn insert_run_composes_with_existing_bits() {
        let mut s = CoverageSet::from_indices(300, [0u32, 64, 130]);
        set_strided_run(s.words_mut(), 62, 4, 2); // 62, 64, 66, 68
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![0, 62, 64, 66, 68, 130]
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn insert_run_past_capacity_panics() {
        let mut s = CoverageSet::with_capacity(100);
        set_strided_run(s.words_mut(), 90, 40, 2);
    }

    #[test]
    fn zero_redundancy_is_trivially_satisfied() {
        let c = CoverageCounter::new(70, 0);
        assert_eq!(c.satisfied(), 70);
        let s = CoverageSet::from_indices(70, [0u32, 69]);
        assert_eq!(c.gain(&s), 0);
    }
}
