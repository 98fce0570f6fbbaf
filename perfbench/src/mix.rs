//! Seeded request orders. The workload seed fixes the order requests
//! are issued in; which requests a workload issues, and in what
//! proportions, does not depend on the seed, so runs on different seeds
//! measure the same mix.

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Round-robin in seeded order: every round issues each of `n` items
/// exactly once, in a fresh seeded permutation, so every query keeps the
/// same share of any whole number of rounds.
#[derive(Debug, Clone)]
pub struct Rounds {
    rng: SplitMix64,
    order: Vec<usize>,
}

impl Rounds {
    /// Rounds over `n` items (`n > 0`), ordered by `seed`.
    pub fn new(n: usize, seed: u64) -> Rounds {
        assert!(n > 0, "a round needs at least one item");
        Rounds { rng: SplitMix64::new(seed), order: (0..n).collect() }
    }

    /// The next round's permutation (Fisher–Yates).
    pub fn next_round(&mut self) -> &[usize] {
        for i in (1..self.order.len()).rev() {
            let j = self.rng.below(i + 1);
            self.order.swap(i, j);
        }
        &self.order
    }
}

/// Zipf(s = 1) popularity: item `r` (0-based rank) is drawn with weight
/// `1 / (r + 1)`. Ranks are fixed; the seed only orders the draws.
#[derive(Debug, Clone)]
pub struct Zipf {
    rng: SplitMix64,
    /// Cumulative weights scaled to integers, one per rank.
    cumulative: Vec<u64>,
}

impl Zipf {
    /// A Zipf stream over `n` ranks (`n > 0`), ordered by `seed`.
    pub fn new(n: usize, seed: u64) -> Zipf {
        assert!(n > 0, "a mix needs at least one item");
        // Integer weights 1/(r+1) scaled by 2520 * 1024: 2520 is divisible
        // by 1..=10, so the weights are exact for up to ten ranks.
        let mut total = 0;
        let cumulative = (0..n)
            .map(|r| {
                total += 2_580_480 / (r as u64 + 1);
                total
            })
            .collect();
        Zipf { rng: SplitMix64::new(seed), cumulative }
    }

    /// The next drawn rank.
    pub fn next_rank(&mut self) -> usize {
        let total = *self.cumulative.last().expect("non-empty mix");
        let draw = self.rng.next_u64() % total;
        self.cumulative.partition_point(|&c| c <= draw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_is_a_permutation() {
        let mut r = Rounds::new(8, 3);
        for _ in 0..5 {
            let mut round = r.next_round().to_vec();
            round.sort_unstable();
            assert_eq!(round, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_seed_fixes_the_order_and_another_seed_changes_it() {
        let rounds = |seed| {
            let mut r = Rounds::new(16, seed);
            (0..3).flat_map(|_| r.next_round().to_vec()).collect::<Vec<_>>()
        };
        let zipf = |seed| {
            let mut z = Zipf::new(8, seed);
            (0..64).map(|_| z.next_rank()).collect::<Vec<_>>()
        };
        assert_eq!(rounds(42), rounds(42));
        assert_eq!(zipf(42), zipf(42));
        assert_ne!(rounds(42), rounds(7));
        assert_ne!(zipf(42), zipf(7));
    }

    #[test]
    fn zipf_head_outweighs_tail_and_covers_every_rank() {
        let mut z = Zipf::new(8, 11);
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            counts[z.next_rank()] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        // Rank 0 has weight 1, rank 7 weight 1/8.
        let ratio = counts[0] as f64 / counts[7] as f64;
        assert!((6.0..10.0).contains(&ratio), "{counts:?}");
    }
}
