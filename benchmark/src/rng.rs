//! Seeded random numbers and the Zipf key chooser.
//!
//! The benchmark owns its generators so that an edit to `vendor/rand` or
//! `crates/wkld` cannot change the load it offers.

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator whose whole sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. The modulo bias is below
    /// 2^-40 for every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipfian ranks over `n` items (Gray et al., "Quickly generating
/// billion-record synthetic databases"), mapped to keys through a seeded
/// permutation so that the hot keys differ from seed to seed and are
/// spread over the table's pages.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    rank_to_key: Vec<u32>,
}

impl Zipf {
    /// `theta` in `[0, 1)`; `rng` draws the rank → key permutation.
    pub fn new(n: u64, theta: f64, rng: &mut Rng) -> Self {
        assert!(n > 1 && n <= u32::MAX as u64, "population out of range");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        let mut rank_to_key: Vec<u32> = (0..n as u32).collect();
        for i in (1..n as usize).rev() {
            rank_to_key.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
            rank_to_key,
        }
    }

    /// Draw one key in `[0, n)`.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            r.min(self.n - 1)
        };
        self.rank_to_key[rank as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn zipf_is_a_permutation_and_skewed() {
        let mut rng = Rng::new(1);
        let z = Zipf::new(4096, 0.9, &mut rng);
        let mut seen = z.rank_to_key.clone();
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &k)| i as u32 == k));
        let hot: Vec<u32> = z.rank_to_key[..10].to_vec();
        let n = 100_000;
        let hits = (0..n).filter(|_| hot.contains(&z.sample(&mut rng))).count();
        // zeta(10, 0.9) / zeta(4096, 0.9) is about 0.24.
        let share = hits as f64 / n as f64;
        assert!((0.18..0.30).contains(&share), "top-10 share {share}");
    }
}
