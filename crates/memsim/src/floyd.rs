//! Distinct-cell bookkeeping of the per-die generator: a two-bit-per-cell
//! map of the die's faults and the Floyd-sampling step built on it.
//!
//! The per-die arena ([`DieScratch`](crate::scratch::DieScratch)) draws
//! distinct cell indices with Floyd's algorithm, and rejection placement
//! tracks occupied cells; both answer "is this cell taken?" from a
//! [`CellBitmap`]. Membership answers are the same as a hash set's, so the
//! substitution pattern — and with it every sampled map — is unchanged.
//! The map also keeps each fault's kind, and [`CellBitmap::drain`] hands
//! the die back in ascending cell order, which is `(row, col)` order, so no
//! die's faults are ever sorted.

use crate::fault::FaultKind;

/// The faulty cells of one die, two bits per cell: 0 for a healthy cell,
/// otherwise one more than the [`FaultKind::code`] of its fault.
///
/// A summary with one bit per word marks the words that hold a fault, and
/// a top level with one bit per summary word marks the summary words that
/// do, so [`CellBitmap::drain`] finds a die's cells in time proportional
/// to its fault count instead of the array size (the top level is one word
/// per 131 072 cells, so even a die without faults costs almost nothing to
/// drain). The map is sized once per geometry and reused die after die;
/// draining leaves it empty.
#[derive(Debug, Default)]
pub(crate) struct CellBitmap {
    words: Vec<u64>,
    summary: Vec<u64>,
    top: Vec<u64>,
}

/// The field [`CellBitmap::insert`] marks a cell with: a bit flip's code
/// plus one.
const FLIP_FIELD: u64 = 3;

impl CellBitmap {
    /// Readies the (empty) map for a memory of `cells` cells; grows only.
    pub(crate) fn reserve(&mut self, cells: usize) {
        let words = cells.div_ceil(32);
        if self.words.len() < words {
            self.words.resize(words, 0);
            self.summary.resize(words.div_ceil(64), 0);
            self.top.resize(words.div_ceil(64 * 64), 0);
        }
    }

    /// Marks `cell` as holding a bit flip if it was unmarked, reporting
    /// whether it was.
    #[inline]
    pub(crate) fn insert(&mut self, cell: usize) -> bool {
        let word = cell >> 5;
        let shift = (cell & 31) << 1;
        let fresh = (self.words[word] >> shift) & 0b11 == 0;
        if fresh {
            self.words[word] |= FLIP_FIELD << shift;
            self.summary[word >> 6] |= 1 << (word & 63);
            self.top[word >> 12] |= 1 << ((word >> 6) & 63);
        }
        fresh
    }

    /// Records the kind of the fault at `cell`, which must be marked.
    #[inline]
    pub(crate) fn set_kind(&mut self, cell: usize, kind: FaultKind) {
        let shift = (cell & 31) << 1;
        let word = &mut self.words[cell >> 5];
        *word = (*word & !(0b11 << shift)) | ((kind.code() + 1) << shift);
    }

    /// Empties the map, calling `visit(cell, kind)` for every marked cell
    /// in ascending cell order.
    pub(crate) fn drain(&mut self, mut visit: impl FnMut(usize, FaultKind)) {
        for (block, top) in self.top.iter_mut().enumerate() {
            let mut groups = std::mem::take(top);
            while groups != 0 {
                let group = (block << 6) | groups.trailing_zeros() as usize;
                groups &= groups - 1;
                let mut pending = std::mem::take(&mut self.summary[group]);
                while pending != 0 {
                    let word = (group << 6) | pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    let mut fields = std::mem::take(&mut self.words[word]);
                    while fields != 0 {
                        let shift = fields.trailing_zeros() & !1;
                        let field = (fields >> shift) & 0b11;
                        fields &= !(0b11 << shift);
                        visit(
                            (word << 5) | (shift >> 1) as usize,
                            FaultKind::from_code(field - 1),
                        );
                    }
                }
            }
        }
    }

    /// Clears the whole word holding `cell`. Calling it for every marked
    /// cell empties the cells (the summaries may keep stale bits, which a
    /// drain skips over): each marked field belongs to one of those cells.
    #[cfg(test)]
    pub(crate) fn clear_word_of(&mut self, cell: usize) {
        self.words[cell >> 5] = 0;
    }

    /// `true` when no cell is marked and no summary bit is set.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.words
            .iter()
            .chain(&self.summary)
            .chain(&self.top)
            .all(|&word| word == 0)
    }

    /// Heap capacity in words — what the arenas' realloc counters watch
    /// (the summary grows with it).
    pub(crate) fn capacity(&self) -> usize {
        self.words.capacity()
    }
}

/// One step of Floyd's algorithm: `t` was drawn uniformly from
/// `0..=bound`. Keeps `t` when it is fresh and otherwise substitutes
/// `bound`, which no earlier step can have chosen (earlier bounds are
/// smaller). Returns the cell the step chose.
#[inline]
pub(crate) fn floyd_step(chosen: &mut CellBitmap, t: usize, bound: usize) -> usize {
    if chosen.insert(t) {
        t
    } else {
        chosen.insert(bound);
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn floyd_steps_reproduce_the_hash_set_sampler() {
        // The allocating `rand::seq::index::sample` keeps a hash set; the
        // bitmap must pick the same cells from the same draws.
        let mut chosen = CellBitmap::default();
        for (cells, amount) in [
            (1usize, 1usize),
            (16, 0),
            (16, 16),
            (2048, 150),
            (131_072, 400),
        ] {
            chosen.reserve(cells);
            for seed in 0..8u64 {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                let expected = rand::seq::index::sample(&mut a, cells, amount).into_vec();
                let picked: Vec<usize> = (cells - amount..cells)
                    .map(|j| floyd_step(&mut chosen, b.gen_range(0..=j), j))
                    .collect();
                assert_eq!(picked, expected, "{amount} of {cells}, seed {seed}");
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG states diverged");
                for &cell in &picked {
                    chosen.clear_word_of(cell);
                }
                assert!(
                    chosen.words.iter().all(|&word| word == 0),
                    "sparse clearing left cells marked"
                );
            }
        }
    }

    #[test]
    fn drain_returns_the_sorted_keys_and_leaves_the_map_empty() {
        // The reference is the die's `cell << 2 | kind code` keys in
        // placement order, sorted. One warm map serves every die, from the
        // empty die through sparse ones to a sixteenth, half and all of
        // the array, with kinds that differ from cell to cell.
        let kinds = [
            FaultKind::StuckAtZero,
            FaultKind::StuckAtOne,
            FaultKind::BitFlip,
        ];
        let mut map = CellBitmap::default();
        for cells in [1usize, 31, 4096, 131_072] {
            map.reserve(cells);
            for (seed, amount) in [0, 1, 75, cells / 16, cells / 2, cells]
                .into_iter()
                .filter(|&amount| amount <= cells)
                .enumerate()
            {
                let mut rng = StdRng::seed_from_u64(seed as u64 ^ cells as u64);
                let mut keys = Vec::new();
                while keys.len() < amount {
                    let cell = rng.gen_range(0..cells);
                    if map.insert(cell) {
                        let kind = kinds[rng.gen_range(0..3usize)];
                        if kind != FaultKind::BitFlip {
                            map.set_kind(cell, kind);
                        }
                        keys.push(((cell as u64) << 2) | kind.code());
                    }
                }
                keys.sort_unstable();
                let mut drained = Vec::new();
                map.drain(|cell, kind| drained.push(((cell as u64) << 2) | kind.code()));
                assert_eq!(drained, keys, "{amount} of {cells} cells");
                assert!(map.is_empty(), "{amount} of {cells} cells left marks");
            }
        }
    }
}
