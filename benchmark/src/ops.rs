//! The operation stream: every input the system under test sees is
//! generated here from the seed, before any timed phase starts.

use crate::rng::{Rng, Zipf};

/// One operation: a point read of `key`, or an update that sets the
/// key's payload byte to `byte`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub key: u32,
    pub update: bool,
    pub byte: u8,
}

/// Longest stream held in memory (8 B per op, 32 MB); a longer phase cycles it.
const RING: usize = 1 << 22;

/// A pre-generated, seed-determined sequence of operations.
#[derive(Debug, Clone)]
pub struct OpStream {
    ops: Vec<Op>,
}

impl OpStream {
    /// `len` operations over `keys` keys with Zipf skew `theta`, of which
    /// `update_pct` percent are updates. With `own_parity`, an update whose
    /// key has the other parity is moved to the neighbouring key, so that
    /// two streams never write the same key.
    pub fn generate(
        seed: u64,
        keys: u64,
        theta: f64,
        update_pct: u32,
        own_parity: Option<u32>,
        len: u64,
    ) -> Self {
        let mut rng = Rng::new(seed);
        let zipf = Zipf::new(keys, theta, &mut rng);
        let n = (len as usize).clamp(1, RING);
        let ops = (0..n)
            .map(|_| {
                let mut key = zipf.sample(&mut rng);
                let update = rng.below(100) < update_pct as u64;
                // Never 0, so an updated payload differs from a loaded one.
                let byte = 1 + rng.below(255) as u8;
                if let (true, Some(parity)) = (update, own_parity) {
                    if key % 2 != parity {
                        key ^= 1;
                    }
                }
                Op { key, update, byte }
            })
            .collect();
        OpStream { ops }
    }

    /// The `i`-th operation of the (cyclic) stream.
    #[inline]
    pub fn at(&self, i: u64) -> Op {
        self.ops[(i % self.ops.len() as u64) as usize]
    }

    /// FNV-1a over every field of every operation: two streams with the
    /// same hash offered the same load.
    pub fn hash(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |b: u8| h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        for op in &self.ops {
            op.key.to_le_bytes().into_iter().for_each(&mut eat);
            eat(op.update as u8);
            eat(op.byte);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_the_stream() {
        let a = OpStream::generate(42, 5000, 0.3, 90, None, 20_000);
        let b = OpStream::generate(42, 5000, 0.3, 90, None, 20_000);
        let c = OpStream::generate(43, 5000, 0.3, 90, None, 20_000);
        assert_eq!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn mix_and_parity_hold() {
        let s = OpStream::generate(3, 4096, 0.9, 20, Some(1), 50_000);
        let updates = s.ops.iter().filter(|o| o.update).count();
        assert!((9_000..11_000).contains(&updates), "{updates} updates");
        assert!(s.ops.iter().all(|o| !o.update || o.key % 2 == 1));
        assert!(s.ops.iter().all(|o| o.key < 4096 && o.byte != 0));
    }
}
