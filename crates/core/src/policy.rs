//! The probabilistic multi-tier data migration policy (paper §3).
//!
//! A policy is the tuple ⟨D_r, D_w, N_r, N_w⟩ of probabilities with which
//! Spitfire routes data *through* DRAM (D) or NVM (N) on reads (r) and
//! writes (w):
//!
//! * `D_r` — probability of promoting an NVM-resident page to DRAM while
//!   serving a read (§3.1). `1.0` is the eager policy of a classic buffer
//!   manager; `0.01` is Spitfire's lazy default.
//! * `D_w` — probability of routing a write through DRAM rather than
//!   writing NVM directly (§3.2).
//! * `N_r` — probability of admitting an SSD page into the NVM buffer on a
//!   read miss, as opposed to loading it straight into DRAM (§3.3).
//! * `N_w` — probability of admitting a dirty page evicted from DRAM into
//!   the NVM buffer, as opposed to writing it straight to SSD (§3.4).
//!
//! The HyMem baseline replaces the `N_w` coin with an admission-queue test
//! ([`NvmAdmission::Queue`], paper §1/§6.5) and never admits SSD reads to
//! NVM (`N_r = 0`).

use spitfire_sync::atomic::{AtomicU32, AtomicU8, Ordering};

use serde::{Deserialize, Serialize};

use crate::types::AccessIntent;

/// Fixed-point denominator for probabilities stored in atomics.
const SCALE: u32 = 1_000_000;

/// How NVM admission on DRAM eviction is decided.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NvmAdmission {
    /// Admit with probability `N_w` (Spitfire).
    Probabilistic,
    /// Admit iff the page was recently denied admission (HyMem's queue,
    /// paper §2.1). The queue capacity is half the NVM buffer's page count
    /// (§6.5).
    Queue,
}

/// One of the policy's four coins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coin {
    /// NVM→DRAM promotion on read (§3.1).
    Dr,
    /// Routing a write through DRAM (§3.2).
    Dw,
    /// SSD→NVM admission on a read miss (§3.3).
    Nr,
    /// DRAM→NVM admission on a dirty eviction (§3.4).
    Nw,
}

impl Coin {
    /// The coin that decides whether an access with `intent` promotes an
    /// NVM-resident page to DRAM: D_r for a read, D_w for a write.
    pub fn promotion(intent: AccessIntent) -> Self {
        match intent {
            AccessIntent::Read => Coin::Dr,
            AccessIntent::Write => Coin::Dw,
        }
    }
}

/// The uniform value of the `n`-th coin drawn for page `pid`: a pure
/// function of the seed, the page, the coin and the page's own draw count.
/// No other page's draws and no thread's history can move it, so every
/// page sees the same sequence of independent Bernoulli trials (§3)
/// whichever thread draws and whatever else it drew before.
pub(crate) fn page_coin(seed: u64, pid: u64, coin: Coin, n: u32) -> u32 {
    let page = splitmix64(seed ^ splitmix64(pid));
    (splitmix64(page ^ ((coin as u64) << 32 | u64::from(n))) >> 32) as u32
}

/// SplitMix64 finalizer: a bijection on `u64` whose every output bit
/// depends on every input bit.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A data migration policy ⟨D_r, D_w, N_r, N_w⟩.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationPolicy {
    /// Probability of NVM→DRAM promotion on read.
    pub dr: f64,
    /// Probability of routing writes through DRAM.
    pub dw: f64,
    /// Probability of SSD→NVM admission on read miss.
    pub nr: f64,
    /// Probability of DRAM→NVM admission on dirty eviction (ignored when
    /// `admission` is [`NvmAdmission::Queue`]).
    pub nw: f64,
    /// NVM admission mechanism.
    pub admission: NvmAdmission,
}

impl MigrationPolicy {
    /// Construct a probabilistic policy; each probability is clamped to
    /// `[0, 1]`.
    pub fn new(dr: f64, dw: f64, nr: f64, nw: f64) -> Self {
        MigrationPolicy {
            dr: dr.clamp(0.0, 1.0),
            dw: dw.clamp(0.0, 1.0),
            nr: nr.clamp(0.0, 1.0),
            nw: nw.clamp(0.0, 1.0),
            admission: NvmAdmission::Probabilistic,
        }
    }

    /// The eager policy ⟨1, 1, 1, 1⟩ — a traditional buffer manager that
    /// always migrates through every tier (Table 3, "Spitfire-Eager").
    pub fn eager() -> Self {
        MigrationPolicy::new(1.0, 1.0, 1.0, 1.0)
    }

    /// Spitfire's lazy policy ⟨0.01, 0.01, 0.2, 1⟩ (Table 3,
    /// "Spitfire-Lazy").
    pub fn lazy() -> Self {
        MigrationPolicy::new(0.01, 0.01, 0.2, 1.0)
    }

    /// The HyMem policy: eager DRAM migration, no SSD→NVM admission, and
    /// queue-based NVM admission on eviction (Table 3).
    pub fn hymem() -> Self {
        MigrationPolicy {
            dr: 1.0,
            dw: 1.0,
            nr: 0.0,
            nw: 1.0,
            admission: NvmAdmission::Queue,
        }
    }

    /// Probability that a page absent from DRAM is promoted within `n`
    /// read requests: `1 - (1 - D_r)^n` (paper §3.5, Theoretical Analysis).
    pub fn promotion_probability(&self, n: u32) -> f64 {
        1.0 - (1.0 - self.dr).powi(n as i32)
    }
}

impl Default for MigrationPolicy {
    fn default() -> Self {
        MigrationPolicy::lazy()
    }
}

impl std::fmt::Display for MigrationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let adm = match self.admission {
            NvmAdmission::Probabilistic => format!("{}", self.nw),
            NvmAdmission::Queue => "AdmQueue".to_string(),
        };
        write!(
            f,
            "<Dr={}, Dw={}, Nr={}, Nw={}>",
            self.dr, self.dw, self.nr, adm
        )
    }
}

/// Lock-free cell holding the active policy so that the adaptive tuner
/// (paper §4) can swap it while worker threads are running.
///
/// Probabilities are stored as fixed-point millionths; a coin flip compares
/// a uniform `u32` against the threshold, keeping the per-access policy
/// overhead to one atomic load.
#[derive(Debug)]
pub struct PolicyCell {
    dr: AtomicU32,
    dw: AtomicU32,
    nr: AtomicU32,
    nw: AtomicU32,
    admission: AtomicU8,
}

impl PolicyCell {
    /// A cell initialized to `policy`.
    pub fn new(policy: MigrationPolicy) -> Self {
        let cell = PolicyCell {
            dr: AtomicU32::new(0),
            dw: AtomicU32::new(0),
            nr: AtomicU32::new(0),
            nw: AtomicU32::new(0),
            admission: AtomicU8::new(0),
        };
        cell.store(policy);
        cell
    }

    fn to_fixed(p: f64) -> u32 {
        (p.clamp(0.0, 1.0) * SCALE as f64).round() as u32
    }

    /// Replace the active policy.
    pub fn store(&self, policy: MigrationPolicy) {
        // relaxed: the four probability fields are independent knobs; a
        // reader observing a half-updated policy just flips coins with a
        // mix of old and new probabilities, which is harmless — every
        // individual value is valid.
        self.dr.store(Self::to_fixed(policy.dr), Ordering::Relaxed);
        self.dw.store(Self::to_fixed(policy.dw), Ordering::Relaxed);
        self.nr.store(Self::to_fixed(policy.nr), Ordering::Relaxed);
        self.nw.store(Self::to_fixed(policy.nw), Ordering::Relaxed);
        let adm = match policy.admission {
            NvmAdmission::Probabilistic => 0,
            NvmAdmission::Queue => 1,
        };
        // relaxed: same torn-update argument as the probability fields.
        self.admission.store(adm, Ordering::Relaxed);
    }

    /// Snapshot of the active policy.
    pub fn load(&self) -> MigrationPolicy {
        // relaxed: advisory snapshot; fields may mix concurrent updates
        // (see `store`), and each value alone is meaningful.
        MigrationPolicy {
            dr: self.dr.load(Ordering::Relaxed) as f64 / SCALE as f64,
            dw: self.dw.load(Ordering::Relaxed) as f64 / SCALE as f64,
            nr: self.nr.load(Ordering::Relaxed) as f64 / SCALE as f64,
            nw: self.nw.load(Ordering::Relaxed) as f64 / SCALE as f64,
            admission: if self.admission.load(Ordering::Relaxed) == 0 {
                NvmAdmission::Probabilistic
            } else {
                NvmAdmission::Queue
            },
        }
    }

    /// Flip `coin` against the active policy. `roll` yields a uniform
    /// `u32` and is called only when the coin's probability lies strictly
    /// between 0 and 1 (policy-draw elision): the degenerate probabilities
    /// that dominate hot paths (⟨0,0,·,·⟩ measurement configs, the eager
    /// ⟨1,1,1,1⟩ preset) need no randomness, so they draw nothing.
    #[inline]
    pub fn flip(&self, coin: Coin, roll: impl FnOnce() -> u32) -> bool {
        let threshold = match coin {
            Coin::Dr => &self.dr,
            Coin::Dw => &self.dw,
            Coin::Nr => &self.nr,
            Coin::Nw => &self.nw,
        };
        // relaxed: a coin flip against a possibly-stale threshold is still
        // a valid draw from either the old or new policy.
        let t = threshold.load(Ordering::Relaxed);
        if t == 0 {
            return false;
        }
        if t >= SCALE {
            return true;
        }
        roll() % SCALE < t
    }

    /// Whether the queue mechanism decides NVM admission.
    #[inline]
    pub fn uses_admission_queue(&self) -> bool {
        // relaxed: either the old or new admission mode is acceptable
        // during a policy change; the flag guards no other memory.
        self.admission.load(Ordering::Relaxed) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table3() {
        let h = MigrationPolicy::hymem();
        assert_eq!((h.dr, h.dw, h.nr), (1.0, 1.0, 0.0));
        assert_eq!(h.admission, NvmAdmission::Queue);

        let e = MigrationPolicy::eager();
        assert_eq!((e.dr, e.dw, e.nr, e.nw), (1.0, 1.0, 1.0, 1.0));

        let l = MigrationPolicy::lazy();
        assert_eq!((l.dr, l.dw, l.nr, l.nw), (0.01, 0.01, 0.2, 1.0));
        assert_eq!(l.admission, NvmAdmission::Probabilistic);
    }

    #[test]
    fn probabilities_are_clamped() {
        let p = MigrationPolicy::new(-0.5, 1.5, 0.3, 0.7);
        assert_eq!((p.dr, p.dw, p.nr, p.nw), (0.0, 1.0, 0.3, 0.7));
    }

    #[test]
    fn promotion_probability_converges_to_one() {
        let p = MigrationPolicy::new(0.01, 1.0, 1.0, 1.0);
        let one = p.promotion_probability(1);
        assert!((one - 0.01).abs() < 1e-12);
        assert!(p.promotion_probability(100) > 0.63);
        assert!(p.promotion_probability(1000) > 0.9999);
        // Eager promotes immediately.
        assert_eq!(MigrationPolicy::eager().promotion_probability(1), 1.0);
    }

    #[test]
    fn cell_round_trips() {
        let cell = PolicyCell::new(MigrationPolicy::lazy());
        let p = cell.load();
        assert!((p.dr - 0.01).abs() < 1e-6);
        assert!((p.nr - 0.2).abs() < 1e-6);
        cell.store(MigrationPolicy::hymem());
        assert!(cell.uses_admission_queue());
        assert_eq!(cell.load().nr, 0.0);
    }

    #[test]
    fn flips_respect_thresholds() {
        let cell = PolicyCell::new(MigrationPolicy::new(0.0, 1.0, 0.5, 0.25));
        // Intermediate probabilities compare the roll with the threshold.
        for (roll, nr, nw) in [
            (0u32, true, true),
            (249_999, true, true),
            (250_000, true, false),
            (499_999, true, false),
            (500_000, false, false),
            (999_999, false, false),
            (1_000_000, true, true),
        ] {
            assert_eq!(cell.flip(Coin::Nr, || roll), nr, "roll {roll}");
            assert_eq!(cell.flip(Coin::Nw, || roll), nw, "roll {roll}");
        }
    }

    #[test]
    fn lazy_flips_elide_degenerate_draws() {
        let cell = PolicyCell::new(MigrationPolicy::new(0.0, 1.0, 0.0, 1.0));
        // p = 0 and p = 1: decided without rolling.
        assert!(!cell.flip(Coin::Dr, || panic!("roll for p = 0")));
        assert!(cell.flip(Coin::Dw, || panic!("roll for p = 1")));
        assert!(!cell.flip(Coin::Nr, || panic!("roll for p = 0")));
        assert!(cell.flip(Coin::Nw, || panic!("roll for p = 1")));
    }

    /// Heads among `flips` coins at probability `p` lie within 5σ of the
    /// binomial mean.
    fn assert_binomial(heads: usize, flips: usize, p: f64, what: &str) {
        let mean = flips as f64 * p;
        let sigma = (flips as f64 * p * (1.0 - p)).sqrt();
        assert!(
            (heads as f64 - mean).abs() <= 5.0 * sigma,
            "{what}: {heads} heads in {flips} flips at p = {p} (mean {mean:.0}, σ {sigma:.1})"
        );
    }

    const SEED: u64 = 0x5f17f17e;
    const COINS: [Coin; 4] = [Coin::Dr, Coin::Dw, Coin::Nr, Coin::Nw];

    #[test]
    fn page_coins_land_heads_at_the_policys_rate() {
        for p in [0.01, 0.2, 0.5] {
            let cell = PolicyCell::new(MigrationPolicy::new(p, p, p, p));
            for coin in COINS {
                // 1 000 pages × their first 100 draws.
                let heads = (0..1_000u64)
                    .flat_map(|pid| (0..100u32).map(move |n| (pid, n)))
                    .filter(|&(pid, n)| cell.flip(coin, || page_coin(SEED, pid, coin, n)))
                    .count();
                assert_binomial(heads, 100_000, p, &format!("{coin:?} over pages × counts"));
                // The first draw of 100 000 consecutive pages.
                let heads = (0..100_000u64)
                    .filter(|&pid| cell.flip(coin, || page_coin(SEED, pid, coin, 0)))
                    .count();
                assert_binomial(heads, 100_000, p, &format!("{coin:?} over first draws"));
            }
        }
    }

    #[test]
    fn a_page_coin_depends_on_every_input() {
        let base = page_coin(SEED, 7, Coin::Dr, 3);
        assert_eq!(base, page_coin(SEED, 7, Coin::Dr, 3));
        for other in [
            page_coin(SEED + 1, 7, Coin::Dr, 3),
            page_coin(SEED, 8, Coin::Dr, 3),
            page_coin(SEED, 7, Coin::Dw, 3),
            page_coin(SEED, 7, Coin::Dr, 4),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn promotion_coin_follows_the_intent() {
        assert_eq!(Coin::promotion(AccessIntent::Read), Coin::Dr);
        assert_eq!(Coin::promotion(AccessIntent::Write), Coin::Dw);
    }

    #[test]
    fn display_formats_policy() {
        assert_eq!(
            MigrationPolicy::eager().to_string(),
            "<Dr=1, Dw=1, Nr=1, Nw=1>"
        );
        assert_eq!(
            MigrationPolicy::hymem().to_string(),
            "<Dr=1, Dw=1, Nr=0, Nw=AdmQueue>"
        );
    }
}
