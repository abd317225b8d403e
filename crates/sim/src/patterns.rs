use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A source of input patterns for bit-parallel simulation.
///
/// One call to [`fill`](PatternSource::fill) produces up to 64 patterns:
/// `words[i]` holds, in its bit lanes, the value of primary input `i`
/// across those patterns (lane `p` = pattern `p` of the block).
///
/// Implementations must be deterministic for a given construction seed so
/// that experiments are reproducible.
///
/// # Wide blocks
///
/// Consumers simulating `w × 64`-pattern wide blocks (see
/// [`FaultSimulator::with_block_words`](crate::FaultSimulator::with_block_words))
/// compose up to `w` sequential `fill` calls into one block, word-major:
/// call `j` supplies patterns `j * 64 .. (j + 1) * 64` of the block. A
/// short fill (`< 64`) or exhaustion (`0`) terminates the block early,
/// so the pattern sequence a source produces — and therefore every
/// simulation result — is independent of the consumer's block width.
pub trait PatternSource {
    /// Fill `words` (one word per primary input) with the next block of
    /// patterns. Returns the number of valid patterns in the block
    /// (`1..=64`); `0` means the source is exhausted.
    fn fill(&mut self, words: &mut [u64]) -> usize;

    /// Reset the source to its initial state, if supported.
    fn reset(&mut self);
}

/// Software pseudo-random patterns from a seeded [`StdRng`].
///
/// Each primary input receives independent equiprobable bits — the
/// idealised model under which COP-style detection probabilities are
/// derived.
///
/// # Example
///
/// ```
/// use tpi_sim::{PatternSource, RandomPatterns};
/// let mut src = RandomPatterns::new(3, 42);
/// let mut block = [0u64; 3];
/// assert_eq!(src.fill(&mut block), 64);
/// let mut again = [0u64; 3];
/// src.reset();
/// src.fill(&mut again);
/// assert_eq!(block, again); // deterministic under a fixed seed
/// ```
#[derive(Clone, Debug)]
pub struct RandomPatterns {
    seed: u64,
    rng: StdRng,
    n_inputs: usize,
}

impl RandomPatterns {
    /// Create a source for `n_inputs` primary inputs with a fixed seed.
    pub fn new(n_inputs: usize, seed: u64) -> RandomPatterns {
        RandomPatterns {
            seed,
            rng: StdRng::seed_from_u64(seed),
            n_inputs,
        }
    }

    /// Number of inputs this source was configured for.
    pub fn input_count(&self) -> usize {
        self.n_inputs
    }
}

impl PatternSource for RandomPatterns {
    fn fill(&mut self, words: &mut [u64]) -> usize {
        debug_assert_eq!(words.len(), self.n_inputs);
        for w in words.iter_mut() {
            *w = self.rng.next_u64();
        }
        64
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

/// Pseudo-random patterns where every primary input draws from its own
/// counter-based stream, independent of how many inputs exist.
///
/// [`RandomPatterns`] draws one word per input from a *shared* sequential
/// stream, so appending an input (as control/full test points do) shifts
/// every later draw and changes all values. `IndependentPatterns` instead
/// hashes `(seed, input index, block index)`, which makes the stream of
/// input `i` invariant under the insertion of inputs `j > i`. This is the
/// property candidate scoring relies on: after a test-point insertion
/// appends aux inputs, all pre-existing inputs replay bit-identical
/// values, so only the structural fanout cone of the edit can differ.
///
/// # Example
///
/// ```
/// use tpi_sim::{IndependentPatterns, PatternSource};
/// let mut narrow = IndependentPatterns::new(3, 7);
/// let mut wide = IndependentPatterns::new(5, 7); // two extra inputs
/// let (mut a, mut b) = ([0u64; 3], [0u64; 5]);
/// narrow.fill(&mut a);
/// wide.fill(&mut b);
/// assert_eq!(a, b[..3], "existing inputs are unaffected by new ones");
/// ```
#[derive(Clone, Debug)]
pub struct IndependentPatterns {
    seed: u64,
    block: u64,
    n_inputs: usize,
}

impl IndependentPatterns {
    /// Create a source for `n_inputs` primary inputs with a fixed seed.
    pub fn new(n_inputs: usize, seed: u64) -> IndependentPatterns {
        IndependentPatterns {
            seed,
            block: 0,
            n_inputs,
        }
    }

    /// Number of inputs this source was configured for.
    pub fn input_count(&self) -> usize {
        self.n_inputs
    }

    /// The word for input `i` in block `b` — a pure function of
    /// `(seed, i, b)`. Crate-visible so the batched candidate scorer can
    /// materialise the exact stream any candidate circuit's aux input
    /// would see (each single-point candidate appends exactly one input,
    /// so its index and therefore its stream are known without building
    /// the candidate).
    pub(crate) fn word(seed: u64, input: u64, block: u64) -> u64 {
        // SplitMix64 finalizer over a mixed counter; full 64-bit
        // avalanche keeps lanes statistically independent.
        let mut z = seed
            ^ input.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ block.wrapping_mul(0xD1B5_4A32_D192_ED03);
        z = z.wrapping_add(0x2545_F491_4F6C_DD1D);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl PatternSource for IndependentPatterns {
    fn fill(&mut self, words: &mut [u64]) -> usize {
        debug_assert_eq!(words.len(), self.n_inputs);
        for (i, w) in words.iter_mut().enumerate() {
            *w = IndependentPatterns::word(self.seed, i as u64, self.block);
        }
        self.block += 1;
        64
    }

    fn reset(&mut self) {
        self.block = 0;
    }
}

/// Enumerates all `2^n` input patterns (for exact, exhaustive analyses on
/// small circuits).
///
/// Pattern `p` assigns bit `i` of the counter to input `i`. The source is
/// exhausted after `2^n` patterns.
///
/// # Example
///
/// ```
/// use tpi_sim::{ExhaustivePatterns, PatternSource};
/// let mut src = ExhaustivePatterns::new(2);
/// let mut block = [0u64; 2];
/// assert_eq!(src.fill(&mut block), 4);
/// assert_eq!(src.fill(&mut block), 0); // exhausted
/// ```
#[derive(Clone, Debug)]
pub struct ExhaustivePatterns {
    n_inputs: usize,
    next: u64,
    total: u64,
}

impl ExhaustivePatterns {
    /// Create an exhaustive source over `n_inputs ≤ 63` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n_inputs > 63` (the pattern space would not fit `u64`).
    pub fn new(n_inputs: usize) -> ExhaustivePatterns {
        assert!(
            n_inputs <= 63,
            "exhaustive enumeration limited to 63 inputs"
        );
        ExhaustivePatterns {
            n_inputs,
            next: 0,
            total: 1u64 << n_inputs,
        }
    }

    /// Total number of patterns the source will produce.
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl PatternSource for ExhaustivePatterns {
    fn fill(&mut self, words: &mut [u64]) -> usize {
        debug_assert_eq!(words.len(), self.n_inputs);
        let remaining = self.total - self.next;
        let n = remaining.min(64) as usize;
        for w in words.iter_mut() {
            *w = 0;
        }
        for p in 0..n {
            let pattern = self.next + p as u64;
            for (i, w) in words.iter_mut().enumerate() {
                if pattern & (1 << i) != 0 {
                    *w |= 1 << p;
                }
            }
        }
        self.next += n as u64;
        n
    }

    fn reset(&mut self) {
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_and_balanced() {
        let mut a = RandomPatterns::new(4, 7);
        let mut b = RandomPatterns::new(4, 7);
        let (mut wa, mut wb) = ([0u64; 4], [0u64; 4]);
        for _ in 0..10 {
            a.fill(&mut wa);
            b.fill(&mut wb);
            assert_eq!(wa, wb);
        }
        // Rough balance: over many words, ones frequency near 1/2.
        let mut src = RandomPatterns::new(1, 99);
        let mut ones = 0u32;
        let mut w = [0u64; 1];
        for _ in 0..256 {
            src.fill(&mut w);
            ones += w[0].count_ones();
        }
        let freq = f64::from(ones) / (256.0 * 64.0);
        assert!((freq - 0.5).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RandomPatterns::new(1, 1);
        let mut b = RandomPatterns::new(1, 2);
        let (mut wa, mut wb) = ([0u64; 1], [0u64; 1]);
        a.fill(&mut wa);
        b.fill(&mut wb);
        assert_ne!(wa, wb);
    }

    #[test]
    fn independent_streams_ignore_input_count() {
        let mut narrow = IndependentPatterns::new(2, 11);
        let mut wide = IndependentPatterns::new(6, 11);
        let (mut wn, mut ww) = ([0u64; 2], [0u64; 6]);
        for _ in 0..8 {
            assert_eq!(narrow.fill(&mut wn), 64);
            assert_eq!(wide.fill(&mut ww), 64);
            assert_eq!(wn, ww[..2]);
        }
    }

    #[test]
    fn independent_is_deterministic_and_balanced() {
        let mut a = IndependentPatterns::new(3, 5);
        let mut b = IndependentPatterns::new(3, 5);
        let (mut wa, mut wb) = ([0u64; 3], [0u64; 3]);
        a.fill(&mut wa);
        b.fill(&mut wb);
        assert_eq!(wa, wb);
        a.reset();
        a.fill(&mut wb);
        assert_eq!(wa, wb, "reset replays the stream");
        let mut src = IndependentPatterns::new(1, 99);
        let mut ones = 0u32;
        let mut w = [0u64; 1];
        for _ in 0..256 {
            src.fill(&mut w);
            ones += w[0].count_ones();
        }
        let freq = f64::from(ones) / (256.0 * 64.0);
        assert!((freq - 0.5).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn exhaustive_covers_every_pattern_once() {
        let mut src = ExhaustivePatterns::new(3);
        let mut words = [0u64; 3];
        let n = src.fill(&mut words);
        assert_eq!(n, 8);
        let mut seen = [false; 8];
        for p in 0..8 {
            let mut v = 0usize;
            for (i, w) in words.iter().enumerate() {
                if (w >> p) & 1 == 1 {
                    v |= 1 << i;
                }
            }
            assert!(!seen[v], "pattern {v} repeated");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exhaustive_spans_multiple_blocks() {
        let mut src = ExhaustivePatterns::new(7); // 128 patterns
        let mut words = [0u64; 7];
        assert_eq!(src.fill(&mut words), 64);
        assert_eq!(src.fill(&mut words), 64);
        assert_eq!(src.fill(&mut words), 0);
        src.reset();
        assert_eq!(src.fill(&mut words), 64);
    }

    #[test]
    fn exhaustive_zero_inputs() {
        let mut src = ExhaustivePatterns::new(0);
        let mut words = [0u64; 0];
        assert_eq!(src.fill(&mut words), 1); // the single empty pattern
        assert_eq!(src.fill(&mut words), 0);
    }
}
