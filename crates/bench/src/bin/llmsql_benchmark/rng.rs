//! The benchmark's own seeded generator (SplitMix64). The seed drives only
//! the data, query and arrival generators; the engine never sees it.

/// A small deterministic RNG: same seed, same stream, on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one generator, so adding draws to one
    /// generator never shifts another's output.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut child = Rng(self.0 ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        child.next_u64();
        child
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `(0, 1]` — never zero, so `ln` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// An exponentially distributed gap with the given mean.
    pub fn exp_gap(&mut self, mean: f64) -> f64 {
        -self.unit().ln() * mean
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert_ne!(
            Rng::new(1).fork(1).next_u64(),
            Rng::new(1).fork(2).next_u64()
        );
    }

    #[test]
    fn below_unit_and_shuffle_stay_in_range() {
        let mut rng = Rng::new(7);
        for n in 1..50 {
            assert!(rng.below(n) < n);
            let u = rng.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
        let mut items: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(items, sorted);
        let mean = (0..20_000).map(|_| rng.exp_gap(2.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 2.0).abs() < 0.1, "exp mean {mean}");
    }
}
