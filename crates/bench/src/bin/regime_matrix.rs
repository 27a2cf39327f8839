//! Replacement-policy regime matrix: every shipped [`PolicyConfig`] crossed
//! with a set of access *regimes* (tier ratio × Zipf skew × read/write mix
//! × scan phases).
//!
//! CLOCK, SIEVE, and 2Q differ only under pressure: when the DRAM tier is
//! smaller than the touched set and the access pattern gives a policy
//! something to exploit (skew to protect, scans to resist). Each regime
//! pins one such pressure pattern; the matrix runs all policies through
//! all regimes on identical hierarchies and workloads, so a cell is a
//! direct like-for-like comparison. The `scan` regime is the scan-
//! resistance acceptance test: a hot Zipfian set that fits DRAM plus
//! periodic sequential sweeps of a cold region under eager promotion —
//! 2Q's probationary FIFO should absorb the sweep and keep a higher DRAM
//! hit rate than CLOCK, whose referenced-bit sweep lets the scan flush
//! the hot set.
//!
//! Emits `BENCH_regime.json` (override with `--json <path>`): one entry
//! per (regime, policy) with throughput, sampled p50/p99, and per-tier hit
//! rates. `scripts/compare_regime.py` diffs two such files and fails on
//! regression; CI runs the quick matrix against the committed baseline.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use spitfire_bench::{
    kops, manager_with, quick, runner, worker_threads, write_bench_json, Reporter, PAGE,
};
use spitfire_core::{BufferManager, MigrationPolicy, PageId, PolicyConfig};
use spitfire_obs::json::{self, Json};
use spitfire_wkld::{run_workload, ScrambledZipf};

/// One pressure pattern: who fits where, how skewed, how write-heavy, and
/// whether sequential sweeps punctuate the point operations.
struct Regime {
    name: &'static str,
    /// DRAM frames as a fraction of the database page count (denominator).
    dram_divisor: usize,
    /// Zipfian theta over the hot page range.
    theta: f64,
    /// Fraction of point operations that are writes.
    update_fraction: f64,
    /// Point operations hit only the first `1/hot_divisor` of the pages.
    hot_divisor: usize,
    /// Probability per op of a full sequential sweep of the cold region.
    scan_probability: f64,
}

/// The matrix rows. Axes covered: tier ratio {1/2, 1/4, 1/8}, theta
/// {0.0, 0.2, 0.7, 0.9}, mix {read-only, balanced, write-heavy}, scans
/// {off, on}.
const REGIMES: [Regime; 5] = [
    // Hot half of the database fits a generous DRAM tier: the baseline
    // cache-friendly regime every policy should handle.
    Regime {
        name: "hit-heavy",
        dram_divisor: 2,
        theta: 0.9,
        update_fraction: 0.5,
        hot_divisor: 1,
        scan_probability: 0.0,
    },
    // Near-uniform access over 8x the DRAM tier: miss-dominated, little
    // for any policy to exploit — guards against a policy that wins skewed
    // regimes by burning the unskewed ones.
    Regime {
        name: "miss-heavy",
        dram_divisor: 8,
        theta: 0.2,
        update_fraction: 0.5,
        hot_divisor: 1,
        scan_probability: 0.0,
    },
    // Scan resistance: a hot set that fits DRAM plus periodic sequential
    // sweeps of a 5x-larger cold region, under eager promotion. The sweep
    // offers each cold page exactly once; a scan-resistant policy must not
    // let it evict the hot set.
    Regime {
        name: "scan",
        dram_divisor: 5,
        theta: 0.9,
        update_fraction: 0.0,
        hot_divisor: 6,
        scan_probability: 1.0 / 100.0,
    },
    // Skewed write-heavy traffic at a mid ratio: eviction victims are
    // usually dirty, so victim choice decides write-back volume too.
    Regime {
        name: "write-skew",
        dram_divisor: 4,
        theta: 0.7,
        update_fraction: 0.9,
        hot_divisor: 1,
        scan_probability: 0.0,
    },
    // Uniform read-only: zero exploitable structure; all policies should
    // converge, so this cell detects raw bookkeeping overhead.
    Regime {
        name: "uniform-read",
        dram_divisor: 4,
        theta: 0.0,
        update_fraction: 0.0,
        hot_divisor: 1,
        scan_probability: 0.0,
    },
];

struct Cell {
    regime: &'static str,
    policy: PolicyConfig,
    scan: bool,
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    dram_hit_rate: f64,
    nvm_hit_rate: f64,
}

/// Point-op + periodic-scan driver over raw pages. Every worker draws
/// Zipfian point reads/writes on the hot range; with `scan_probability`
/// an op is instead one full sequential read pass over the cold region.
struct RegimeDriver {
    bm: Arc<BufferManager>,
    pages: Vec<PageId>,
    hot_pages: usize,
    zipf: ScrambledZipf,
    regime: &'static Regime,
}

impl RegimeDriver {
    fn build(regime: &'static Regime, policy: PolicyConfig, db_pages: usize) -> Self {
        let dram_frames = (db_pages / regime.dram_divisor).max(2);
        let bm = manager_with(|b| {
            b.dram_capacity(dram_frames * PAGE)
                // The whole database stays NVM-resident: misses cost NVM
                // (not SSD) latency, so cells measure replacement quality,
                // not SSD traffic.
                .nvm_capacity(2 * db_pages * (PAGE + 64))
                .dram_policy(policy)
                .nvm_policy(policy)
                .policy(MigrationPolicy::eager())
        });
        let pages: Vec<PageId> = spitfire_bench::with_fast_setup(&bm, || {
            (0..db_pages)
                .map(|i| {
                    let pid = bm.allocate_page().expect("allocate");
                    let g = bm.fetch_write(pid).expect("load");
                    g.write(0, &(i as u64).to_le_bytes()).expect("fill");
                    pid
                })
                .collect()
        });
        let hot_pages = (db_pages / regime.hot_divisor).max(1);
        RegimeDriver {
            bm,
            pages,
            hot_pages,
            zipf: ScrambledZipf::new(hot_pages as u64, regime.theta),
            regime,
        }
    }

    fn execute(&self, rng: &mut SmallRng) -> bool {
        if self.regime.scan_probability > 0.0 && rng.gen::<f64>() < self.regime.scan_probability {
            // Sequential sweep of the cold region: each page touched once.
            let mut buf = [0u8; 64];
            for pid in &self.pages[self.hot_pages..] {
                let g = self.bm.fetch_read(*pid).expect("scan read");
                g.read(0, &mut buf).expect("scan bytes");
            }
            return true;
        }
        let page = self.zipf.sample(rng) as usize;
        let pid = self.pages[page];
        if rng.gen::<f64>() < self.regime.update_fraction {
            let g = self.bm.fetch_write(pid).expect("point write");
            g.write(64, &rng.gen::<u64>().to_le_bytes())
                .expect("write bytes");
        } else {
            let mut buf = [0u8; 64];
            let g = self.bm.fetch_read(pid).expect("point read");
            g.read(0, &mut buf).expect("read bytes");
            std::hint::black_box(&buf);
        }
        true
    }
}

fn run_cell(
    regime: &'static Regime,
    policy: PolicyConfig,
    db_pages: usize,
    threads: usize,
) -> Cell {
    let d = RegimeDriver::build(regime, policy, db_pages);
    let before = d.bm.metrics();
    let report = run_workload(&runner(threads), |_, rng| d.execute(rng));
    let after = d.bm.metrics().delta(&before);
    let total = after.total_requests().max(1) as f64;
    let us = |q: f64| {
        report
            .latency_quantile(q)
            .map(|l| l.as_secs_f64() * 1e6)
            .unwrap_or(0.0)
    };
    Cell {
        regime: regime.name,
        policy,
        scan: regime.scan_probability > 0.0,
        ops_per_sec: report.throughput(),
        p50_us: us(0.5),
        p99_us: us(0.99),
        dram_hit_rate: after.dram_hits as f64 / total,
        nvm_hit_rate: after.nvm_hits as f64 / total,
    }
}

fn main() {
    let db_pages = if quick() { 96 } else { 192 };
    let threads = worker_threads().min(8);

    let mut r = Reporter::new(
        "regime_matrix",
        "replacement-policy regimes (tier ratio x skew x mix x scans)",
        "policies tie on structureless regimes; 2Q resists scans that flush \
         CLOCK's hot set; no policy pays a regression on its off-regimes",
    );
    r.headers(&[
        "regime",
        "policy",
        "ops/s",
        "p99",
        "dram hit %",
        "nvm hit %",
    ]);

    let mut cells: Vec<Cell> = Vec::new();
    for regime in &REGIMES {
        for policy in PolicyConfig::ALL {
            let c = run_cell(regime, policy, db_pages, threads);
            r.row(&[
                c.regime.to_string(),
                c.policy.name().to_string(),
                kops(c.ops_per_sec),
                format!("{:.0}µs", c.p99_us),
                format!("{:.1}", c.dram_hit_rate * 100.0),
                format!("{:.1}", c.nvm_hit_rate * 100.0),
            ]);
            cells.push(c);
        }
    }
    r.done();

    // The scan-resistance headline: 2Q's DRAM hit rate vs CLOCK's in the
    // scan regime (> 1.0 means the probationary FIFO is doing its job).
    let hit = |regime: &str, policy: PolicyConfig| {
        cells
            .iter()
            .find(|c| c.regime == regime && c.policy == policy)
            .map(|c| c.dram_hit_rate)
            .unwrap_or(0.0)
    };
    let scan_2q = hit("scan", PolicyConfig::TwoQ);
    let scan_clock = hit("scan", PolicyConfig::Clock);
    println!(
        "   scan regime DRAM hit rate: 2q {:.1}% vs clock {:.1}%{}",
        scan_2q * 100.0,
        scan_clock * 100.0,
        if scan_2q > scan_clock {
            " (scan-resistant)"
        } else {
            " (NOT resistant — investigate)"
        }
    );

    // `scan: true` marks cells whose latency distribution is bimodal
    // (point ops vs whole-region sweeps): the diff script skips their
    // p99, since which mode the sampled quantile lands in is noise.
    let cells = cells.iter().map(|c| {
        json::object([
            ("regime", Json::from(c.regime)),
            ("policy", c.policy.name().into()),
            ("scan", c.scan.into()),
            ("ops_per_sec", json::fixed(c.ops_per_sec, 0)),
            ("p50_us", json::fixed(c.p50_us, 1)),
            ("p99_us", json::fixed(c.p99_us, 1)),
            ("dram_hit_rate", json::fixed(c.dram_hit_rate, 4)),
            ("nvm_hit_rate", json::fixed(c.nvm_hit_rate, 4)),
        ])
    });
    let doc = json::object([
        ("bench", Json::from("regime_matrix")),
        ("quick", quick().into()),
        ("db_pages", db_pages.into()),
        ("threads", threads.into()),
        ("cells", json::array(cells)),
    ]);
    write_bench_json("regime", &doc);
}
