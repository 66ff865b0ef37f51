//! The benchmark's seeded generator: SplitMix64, so that one `--seed`
//! gives the same inputs on every machine and build.

/// A small deterministic random source.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// A generator for one named stream of `seed`, independent of the
    /// other streams drawn from the same seed.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng::new(seed);
        for _ in 0..=stream % 7 {
            r.next_u64();
        }
        Rng(r.next_u64() ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as usize) as i64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
