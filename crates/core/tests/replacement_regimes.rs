//! Replacement-policy regime matrix as hit *counts*: every shipped
//! [`PolicyConfig`] crossed with five access regimes (tier ratio × Zipf
//! skew × read/write mix × scan phases), single-threaded, seeded, with
//! emulated delays off — so a cell is a number that repeats exactly, not
//! a throughput that a shared runner moves ±15 %.
//!
//! CLOCK, SIEVE and 2Q differ only under pressure: when the DRAM tier is
//! smaller than the touched set and the access pattern gives a policy
//! something to exploit (skew to protect, scans to resist). The whole
//! database stays NVM-resident, so a DRAM miss is an NVM hit and the
//! DRAM hit count measures replacement quality alone. What is pinned:
//!
//! * same seed ⇒ same counts, for every cell (determinism);
//! * `scan`: 2Q's probationary FIFO absorbs the sweeps, so it keeps
//!   strictly more DRAM hits than CLOCK, whose referenced-bit sweep lets
//!   the scan flush the hot set;
//! * in the regimes with structure to exploit, no policy falls below
//!   CLOCK; in `uniform-read`, where there is none, all three converge.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy, PageId, PolicyConfig};
use spitfire_device::TimeScale;

const PAGE: usize = 1024;
const DB_PAGES: usize = 96;
const OPS: usize = 12_000;
const SEED: u64 = 0x5F17_F17E;

/// One pressure pattern: who fits where, how skewed, how write-heavy, and
/// whether sequential sweeps punctuate the point operations.
struct Regime {
    name: &'static str,
    /// DRAM frames = database pages / this.
    dram_divisor: usize,
    /// Zipfian theta over the hot page range.
    theta: f64,
    /// Fraction of point operations that are writes.
    update_fraction: f64,
    /// Point operations hit only the first `1/hot_divisor` of the pages.
    hot_divisor: usize,
    /// Probability per op of one sequential sweep of the cold region.
    scan_probability: f64,
}

const REGIMES: [Regime; 5] = [
    // Skewed traffic over a generous DRAM tier: the cache-friendly
    // baseline every policy should handle.
    Regime {
        name: "hit-heavy",
        dram_divisor: 2,
        theta: 0.9,
        update_fraction: 0.5,
        hot_divisor: 1,
        scan_probability: 0.0,
    },
    // Near-uniform access over 8x the DRAM tier: miss-dominated — guards
    // against a policy that wins skewed regimes by burning unskewed ones.
    Regime {
        name: "miss-heavy",
        dram_divisor: 8,
        theta: 0.2,
        update_fraction: 0.5,
        hot_divisor: 1,
        scan_probability: 0.0,
    },
    // A hot set that fits DRAM plus periodic sweeps of a 5x-larger cold
    // region under eager promotion: the sweep offers each cold page
    // exactly once and must not evict the hot set.
    Regime {
        name: "scan",
        dram_divisor: 5,
        theta: 0.9,
        update_fraction: 0.0,
        hot_divisor: 6,
        scan_probability: 1.0 / 100.0,
    },
    // Skewed write-heavy traffic at a mid ratio: victims are usually
    // dirty, so victim choice decides write-back volume too.
    Regime {
        name: "write-skew",
        dram_divisor: 4,
        theta: 0.7,
        update_fraction: 0.9,
        hot_divisor: 1,
        scan_probability: 0.0,
    },
    // Uniform read-only: zero exploitable structure.
    Regime {
        name: "uniform-read",
        dram_divisor: 4,
        theta: 0.0,
        update_fraction: 0.0,
        hot_divisor: 1,
        scan_probability: 0.0,
    },
];

/// Zipfian ranks over `[0, n)` by inverse-CDF lookup (exact for these
/// sizes), scattered over the page range by a multiplier coprime to every
/// `n` used here so the hot pages are not simply the oldest ones.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|i| {
                acc += 1.0 / (i as f64).powf(theta);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let n = self.cdf.len();
        let u = rng.gen::<f64>() * self.cdf[n - 1];
        let rank = self.cdf.partition_point(|&c| c <= u).min(n - 1);
        rank * 7919 % n
    }
}

/// Fetches issued and DRAM hits among them for one (regime, policy) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    fetches: u64,
    dram_hits: u64,
}

fn run_cell(regime: &Regime, policy: PolicyConfig) -> Cell {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity((DB_PAGES / regime.dram_divisor) * PAGE)
        .nvm_capacity(2 * DB_PAGES * (PAGE + 64))
        .dram_policy(policy)
        .nvm_policy(policy)
        .policy(MigrationPolicy::eager())
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = BufferManager::new(config).unwrap();
    let pages: Vec<PageId> = (0..DB_PAGES)
        .map(|i| {
            let pid = bm.allocate_page().unwrap();
            bm.fetch_write(pid)
                .unwrap()
                .write(0, &(i as u64).to_le_bytes())
                .unwrap();
            pid
        })
        .collect();
    let hot_pages = DB_PAGES / regime.hot_divisor;
    let zipf = Zipf::new(hot_pages, regime.theta);
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut buf = [0u8; 64];
    let mut fetches = 0u64;
    bm.reset_metrics();
    for _ in 0..OPS {
        if regime.scan_probability > 0.0 && rng.gen::<f64>() < regime.scan_probability {
            for pid in &pages[hot_pages..] {
                bm.fetch_read(*pid).unwrap().read(0, &mut buf).unwrap();
            }
            fetches += (DB_PAGES - hot_pages) as u64;
            continue;
        }
        fetches += 1;
        let pid = pages[zipf.sample(&mut rng)];
        if rng.gen::<f64>() < regime.update_fraction {
            bm.fetch_write(pid)
                .unwrap()
                .write(64, &rng.gen::<u64>().to_le_bytes())
                .unwrap();
        } else {
            bm.fetch_read(pid).unwrap().read(0, &mut buf).unwrap();
        }
    }
    let m = bm.metrics();
    assert_eq!(
        m.ssd_fetches, 0,
        "the database is NVM-resident: a DRAM miss must be served from NVM"
    );
    Cell {
        fetches,
        dram_hits: m.dram_hits,
    }
}

#[test]
fn every_policy_in_every_regime_by_hit_count() {
    for regime in &REGIMES {
        let [clock, sieve, two_q] = PolicyConfig::ALL.map(|policy| {
            let cell = run_cell(regime, policy);
            assert_eq!(
                cell,
                run_cell(regime, policy),
                "{}/{policy}: same seed must give the same counts",
                regime.name
            );
            println!("{:>12} {:>5}: {cell:?}", regime.name, policy.name());
            cell
        });
        assert_eq!(clock.fetches, sieve.fetches);
        assert_eq!(clock.fetches, two_q.fetches);
        if regime.name == "uniform-read" {
            let all = [clock.dram_hits, sieve.dram_hits, two_q.dram_hits];
            let (lo, hi) = (all.iter().min().unwrap(), all.iter().max().unwrap());
            assert!(
                (hi - lo) * 50 <= clock.fetches,
                "uniform-read: no structure to exploit, yet DRAM hits spread {all:?}"
            );
        } else {
            for (name, cell) in [("sieve", sieve), ("2q", two_q)] {
                assert!(
                    cell.dram_hits >= clock.dram_hits,
                    "{}: {name} fell below clock ({} DRAM hits vs {})",
                    regime.name,
                    cell.dram_hits,
                    clock.dram_hits
                );
            }
        }
        if regime.name == "scan" {
            assert!(
                two_q.dram_hits > clock.dram_hits,
                "scan: 2q must be scan-resistant ({} DRAM hits vs clock {})",
                two_q.dram_hits,
                clock.dram_hits
            );
        }
    }
}
