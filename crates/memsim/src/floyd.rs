//! Distinct-cell bookkeeping of the per-die generator: a one-bit-per-cell
//! set and the Floyd-sampling step built on it.
//!
//! The per-die arena ([`DieScratch`](crate::scratch::DieScratch)) draws
//! distinct cell indices with Floyd's algorithm, and rejection placement
//! tracks occupied cells; both answer "is this cell taken?" from a
//! [`CellBitmap`]. Membership answers are the same as a hash set's, so the
//! substitution pattern — and with it every sampled map — is unchanged.

/// A set of memory cells, one bit per cell.
///
/// The bitmap is sized once per geometry and reused die after die. A die
/// marks only its own cells, so it is emptied in time proportional to its
/// fault count ([`CellBitmap::clear_word_of`] on every marked cell) instead
/// of the array size.
#[derive(Debug, Default)]
pub(crate) struct CellBitmap {
    words: Vec<u64>,
}

impl CellBitmap {
    /// Readies the (empty) set for a memory of `cells` cells; grows only.
    pub(crate) fn reserve(&mut self, cells: usize) {
        let words = cells.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Marks `cell`, reporting whether it was unmarked.
    #[inline]
    pub(crate) fn insert(&mut self, cell: usize) -> bool {
        let word = &mut self.words[cell >> 6];
        let bit = 1u64 << (cell & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Clears the whole word holding `cell`. Calling it for every marked
    /// cell empties the set: each set bit belongs to one of those cells.
    #[inline]
    pub(crate) fn clear_word_of(&mut self, cell: usize) {
        self.words[cell >> 6] = 0;
    }

    /// Heap capacity in words — what the arenas' realloc counters watch.
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
}
