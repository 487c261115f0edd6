//! Match vectors and the block's result Encoder (Fig. 3).
//!
//! The Encoder collects the per-cell `PATTERNDETECT` wires and compresses
//! them into the configured output representation — Table III calls this
//! the *Result Encoding* parameter. The paper's triangle-counting case
//! study uses the priority scheme; the others support different addressing
//! and management strategies.

use serde::{Deserialize, Serialize};

/// A bit-packed vector of per-cell match flags.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct MatchVector {
    bits: Vec<u64>,
    len: usize,
}

impl MatchVector {
    /// An all-miss vector over `len` cells.
    #[must_use]
    pub fn new(len: usize) -> Self {
        MatchVector {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Build a vector directly from packed match words (the bit-sliced
    /// [`BitSliceIndex`](crate::bitslice::BitSliceIndex) output). Bits at or
    /// beyond `len` are cleared so `count`/`first` invariants hold.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is shorter than `len` requires.
    pub(crate) fn from_raw(mut bits: Vec<u64>, len: usize) -> Self {
        assert!(bits.len() >= len.div_ceil(64), "packed words too short");
        bits.truncate(len.div_ceil(64));
        if let Some(last) = bits.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last &= (1u64 << tail) - 1;
            }
        }
        MatchVector { bits, len }
    }

    /// Re-initialise in place as an all-miss vector over `len` cells,
    /// reusing the existing allocation (the scratch-buffer twin of
    /// [`MatchVector::new`]).
    pub(crate) fn reset(&mut self, len: usize) {
        self.bits.clear();
        self.bits.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Run `fill` on the raw packed words (cleared first), then adopt
    /// `len` — the allocation-free bridge from the shadow indexes'
    /// `search_into` to a reusable vector. Bits at or beyond `len` are
    /// masked so `count`/`first` invariants hold; `fill` must leave at
    /// least `len.div_ceil(64)` words behind.
    pub(crate) fn fill_raw(&mut self, len: usize, fill: impl FnOnce(&mut Vec<u64>)) {
        fill(&mut self.bits);
        assert!(
            self.bits.len() >= len.div_ceil(64),
            "packed words too short"
        );
        self.bits.truncate(len.div_ceil(64));
        self.len = len;
        self.mask_tail();
    }

    fn mask_tail(&mut self) {
        if let Some(last) = self.bits.last_mut() {
            let tail = self.len % 64;
            if tail != 0 {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// OR `other` into this vector with its cell 0 landing at
    /// `offset` — the Post-Router's slot-interleaved combine, word-wide.
    ///
    /// # Panics
    ///
    /// Panics if `offset + other.len()` exceeds this vector's length.
    pub(crate) fn or_offset(&mut self, other: &MatchVector, offset: usize) {
        assert!(
            offset + other.len <= self.len,
            "combine window {offset}+{} out of range {}",
            other.len,
            self.len
        );
        for (i, &w) in other.bits.iter().enumerate() {
            self.or_word(offset + i * 64, w);
        }
    }

    /// OR one packed word of match flags into this vector with its bit 0
    /// landing at cell `at` (the caller keeps every set bit in range).
    pub(crate) fn or_word(&mut self, at: usize, bits: u64) {
        if bits == 0 {
            return;
        }
        let (word, shift) = (at / 64, at % 64);
        self.bits[word] |= bits << shift;
        if shift != 0 && bits >> (64 - shift) != 0 {
            self.bits[word + 1] |= bits >> (64 - shift);
        }
    }

    /// Number of cells covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector covers zero cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set the match flag for `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn set(&mut self, cell: usize) {
        assert!(cell < self.len, "cell {cell} out of range {}", self.len);
        self.bits[cell / 64] |= 1 << (cell % 64);
    }

    /// Read the match flag for `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn get(&self, cell: usize) -> bool {
        assert!(cell < self.len, "cell {cell} out of range {}", self.len);
        self.bits[cell / 64] >> (cell % 64) & 1 == 1
    }

    /// Whether any cell matched.
    #[must_use]
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    /// Number of matching cells.
    #[must_use]
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Lowest matching cell index, if any (the priority encoder's output).
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        for (i, &word) in self.bits.iter().enumerate() {
            if word != 0 {
                let idx = i * 64 + word.trailing_zeros() as usize;
                return (idx < self.len).then_some(idx);
            }
        }
        None
    }

    /// Iterate over the matching cell indices in ascending order.
    pub fn iter_matches(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }
}

impl FromIterator<bool> for MatchVector {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let flags: Vec<bool> = iter.into_iter().collect();
        let mut v = MatchVector::new(flags.len());
        for (i, flag) in flags.into_iter().enumerate() {
            if flag {
                v.set(i);
            }
        }
        v
    }
}

/// The configurable result-encoding schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Encoding {
    /// Lowest matching address (the case-study configuration).
    #[default]
    Priority,
    /// Full one-hot match bitmap.
    OneHot,
    /// All matching addresses, ascending.
    AddressList,
    /// Only the number of matches (set-membership counting).
    MatchCount,
}

/// The Encoder's output under a given [`Encoding`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchOutput {
    /// Priority encoding: lowest matching address, or `None` on miss.
    Priority(Option<usize>),
    /// One-hot encoding: the raw match vector.
    OneHot(MatchVector),
    /// Address-list encoding.
    AddressList(Vec<usize>),
    /// Match-count encoding.
    MatchCount(usize),
}

impl SearchOutput {
    /// Whether at least one cell matched.
    #[must_use]
    pub fn is_match(&self) -> bool {
        match self {
            SearchOutput::Priority(p) => p.is_some(),
            SearchOutput::OneHot(v) => v.any(),
            SearchOutput::AddressList(a) => !a.is_empty(),
            SearchOutput::MatchCount(n) => *n > 0,
        }
    }

    /// The lowest matching address, when the encoding preserves it.
    #[must_use]
    pub fn first_address(&self) -> Option<usize> {
        match self {
            SearchOutput::Priority(p) => *p,
            SearchOutput::OneHot(v) => v.first(),
            SearchOutput::AddressList(a) => a.first().copied(),
            SearchOutput::MatchCount(_) => None,
        }
    }

    /// The number of matches, when the encoding preserves it (priority
    /// encoding reports at most "one or more").
    #[must_use]
    pub fn match_count(&self) -> Option<usize> {
        match self {
            SearchOutput::Priority(_) => None,
            SearchOutput::OneHot(v) => Some(v.count()),
            SearchOutput::AddressList(a) => Some(a.len()),
            SearchOutput::MatchCount(n) => Some(*n),
        }
    }

    /// Fold one block's match vector, its cell 0 at address `offset`,
    /// into this answer — the Post-Router combining one more block's
    /// Encoder output. Folding blocks in ascending `offset` order from
    /// [`Encoding::miss`] encodes what [`Encoding::encode`] would of
    /// their side-by-side vector: Priority keeps the first hit,
    /// MatchCount adds up the counts, AddressList appends the shifted
    /// addresses, and only OneHot ORs the block into a full-width
    /// vector.
    pub(crate) fn fold_block(&mut self, block: &MatchVector, offset: usize) {
        match self {
            SearchOutput::Priority(first) => {
                if first.is_none() {
                    *first = block.first().map(|cell| offset + cell);
                }
            }
            SearchOutput::OneHot(vector) => vector.or_offset(block, offset),
            SearchOutput::AddressList(addresses) => {
                addresses.extend(block.iter_matches().map(|cell| offset + cell));
            }
            SearchOutput::MatchCount(n) => *n += block.count(),
        }
    }
}

impl Encoding {
    /// Encode a match vector.
    #[must_use]
    pub fn encode(self, matches: &MatchVector) -> SearchOutput {
        let mut output = self.miss(matches.len());
        output.fold_block(matches, 0);
        output
    }

    /// The answer of a walk over `len` cells that has folded in no block
    /// yet (see [`SearchOutput::fold_block`]): a miss.
    pub(crate) fn miss(self, len: usize) -> SearchOutput {
        match self {
            Encoding::Priority => SearchOutput::Priority(None),
            Encoding::OneHot => SearchOutput::OneHot(MatchVector::new(len)),
            Encoding::AddressList => SearchOutput::AddressList(Vec::new()),
            Encoding::MatchCount => SearchOutput::MatchCount(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector_with(len: usize, set: &[usize]) -> MatchVector {
        let mut v = MatchVector::new(len);
        for &i in set {
            v.set(i);
        }
        v
    }

    #[test]
    fn empty_vector() {
        let v = MatchVector::new(128);
        assert_eq!(v.len(), 128);
        assert!(!v.any());
        assert_eq!(v.count(), 0);
        assert_eq!(v.first(), None);
        assert!(!v.is_empty());
        assert!(MatchVector::new(0).is_empty());
    }

    #[test]
    fn set_get_across_word_boundaries() {
        let v = vector_with(130, &[0, 63, 64, 129]);
        assert!(v.get(0));
        assert!(v.get(63));
        assert!(v.get(64));
        assert!(v.get(129));
        assert!(!v.get(1));
        assert_eq!(v.count(), 4);
    }

    #[test]
    fn first_is_lowest_index() {
        let v = vector_with(256, &[200, 70, 130]);
        assert_eq!(v.first(), Some(70));
    }

    #[test]
    fn iter_matches_ascending() {
        let v = vector_with(100, &[5, 90, 17]);
        let got: Vec<usize> = v.iter_matches().collect();
        assert_eq!(got, vec![5, 17, 90]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        MatchVector::new(8).set(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let _ = MatchVector::new(8).get(9);
    }

    #[test]
    fn from_iterator_of_flags() {
        let v: MatchVector = [false, true, false, true].into_iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v.first(), Some(1));
        assert_eq!(v.count(), 2);
    }

    #[test]
    fn priority_encoding() {
        let v = vector_with(32, &[9, 20]);
        let out = Encoding::Priority.encode(&v);
        assert_eq!(out, SearchOutput::Priority(Some(9)));
        assert!(out.is_match());
        assert_eq!(out.first_address(), Some(9));
        assert_eq!(out.match_count(), None);
    }

    #[test]
    fn one_hot_encoding() {
        let v = vector_with(32, &[3]);
        let out = Encoding::OneHot.encode(&v);
        assert!(out.is_match());
        assert_eq!(out.first_address(), Some(3));
        assert_eq!(out.match_count(), Some(1));
    }

    #[test]
    fn address_list_encoding() {
        let v = vector_with(32, &[30, 2]);
        let out = Encoding::AddressList.encode(&v);
        assert_eq!(out, SearchOutput::AddressList(vec![2, 30]));
        assert_eq!(out.match_count(), Some(2));
    }

    #[test]
    fn match_count_encoding() {
        let v = vector_with(512, &[0, 511]);
        let out = Encoding::MatchCount.encode(&v);
        assert_eq!(out, SearchOutput::MatchCount(2));
        assert!(out.is_match());
        assert_eq!(out.first_address(), None);
    }

    #[test]
    fn folding_blocks_in_order_encodes_their_combined_vector() {
        // Three 70-cell blocks side by side, so offsets straddle words.
        let blocks = [
            vector_with(70, &[]),
            vector_with(70, &[3, 64, 69]),
            vector_with(70, &[0, 41]),
        ];
        let mut combined = MatchVector::new(210);
        for (b, block) in blocks.iter().enumerate() {
            combined.or_offset(block, 70 * b);
        }
        for enc in [
            Encoding::Priority,
            Encoding::OneHot,
            Encoding::AddressList,
            Encoding::MatchCount,
        ] {
            let mut folded = enc.miss(210);
            for (b, block) in blocks.iter().enumerate() {
                folded.fold_block(block, 70 * b);
            }
            assert_eq!(folded, enc.encode(&combined), "{enc:?}");
        }
        assert_eq!(
            Encoding::AddressList.encode(&combined),
            SearchOutput::AddressList(vec![73, 134, 139, 140, 181])
        );
    }

    #[test]
    fn miss_is_not_a_match_in_any_encoding() {
        let v = MatchVector::new(64);
        for enc in [
            Encoding::Priority,
            Encoding::OneHot,
            Encoding::AddressList,
            Encoding::MatchCount,
        ] {
            assert!(!enc.encode(&v).is_match(), "{enc:?}");
        }
    }
}
