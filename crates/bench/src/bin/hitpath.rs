//! Hit-path microbenchmark: multi-threaded fetch/unpin loops on resident
//! pages.
//!
//! Once NVM removes the I/O bottleneck, the buffer manager's own hit path
//! is the scalability limiter (paper §6.6). This benchmark isolates that
//! path: every fetch is a buffer hit (DRAM-resident in the `dram-hit`
//! scenario, NVM-resident with promotion probability 0 in `nvm-hit`), all
//! emulated device delays are off, and the measured loop is nothing but
//! `fetch` + guard drop. Throughput at rising thread counts tracks the
//! hit path's synchronization cost; the paper's fix for this regime is
//! optimistic (latch-free) pinning, and this benchmark is the regression
//! gate for ours.
//!
//! Emits `BENCH_hitpath.json` (override with `--json <path>`): one entry
//! per (scenario, threads) with ops/s and sampled p50/p99 latency from the
//! observability histograms, so the perf trajectory is tracked from the
//! first optimistic-pinning PR onward.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spitfire_bench::{fmt_us, kops, quick, write_bench_json, Reporter};
use spitfire_core::{AccessIntent, BufferManager, BufferManagerConfig, MigrationPolicy, PageId};
use spitfire_device::{PersistenceTracking, TimeScale};
use spitfire_obs::json::{self, Json};
use spitfire_obs::Op;

const PAGE: usize = 4096;
/// Hot working set: small enough to stay resident, large enough to spread
/// CLOCK/descriptor traffic over many pages.
const PAGES: usize = 128;

struct Scenario {
    name: &'static str,
    op: Op,
    bm: Arc<BufferManager>,
    pids: Arc<Vec<PageId>>,
}

/// DRAM-over-SSD manager with every page prefaulted into DRAM.
fn dram_hit() -> Scenario {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(4 * PAGES * PAGE)
        .nvm_capacity(0)
        .policy(MigrationPolicy::new(0.0, 0.0, 0.0, 0.0))
        .persistence(PersistenceTracking::Counters)
        .time_scale(TimeScale::ZERO)
        .build()
        .expect("valid config");
    let bm = Arc::new(BufferManager::new(config).expect("buffer manager"));
    let pids: Vec<PageId> = (0..PAGES).map(|_| bm.allocate_page().unwrap()).collect();
    for pid in &pids {
        drop(bm.fetch(*pid, AccessIntent::Read).unwrap());
    }
    Scenario {
        name: "dram-hit",
        op: Op::FetchDramHit,
        bm,
        pids: Arc::new(pids),
    }
}

/// Three-tier manager with every page resident in NVM and a ⟨0,0,·,·⟩
/// policy, so reads are served from NVM in place and never promoted.
fn nvm_hit() -> Scenario {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(PAGES * PAGE)
        .nvm_capacity(4 * PAGES * (PAGE + 64))
        // N_r = 1 during load: read misses are admitted straight to NVM.
        .policy(MigrationPolicy::new(0.0, 0.0, 1.0, 0.0))
        .persistence(PersistenceTracking::Counters)
        .time_scale(TimeScale::ZERO)
        .build()
        .expect("valid config");
    let bm = Arc::new(BufferManager::new(config).expect("buffer manager"));
    let pids: Vec<PageId> = (0..PAGES).map(|_| bm.allocate_page().unwrap()).collect();
    for pid in &pids {
        let g = bm.fetch(*pid, AccessIntent::Read).unwrap();
        assert_eq!(g.tier(), spitfire_core::Tier::Nvm, "page loaded into NVM");
    }
    // Measurement policy: promotion probability 0 on reads and writes, so
    // every fetch is an in-place NVM hit (and the D_r coin is degenerate —
    // the draw-elision fast path).
    bm.admin()
        .set_policy(MigrationPolicy::new(0.0, 0.0, 0.0, 0.0));
    Scenario {
        name: "nvm-hit",
        op: Op::FetchNvmHit,
        bm,
        pids: Arc::new(pids),
    }
}

struct Point {
    scenario: &'static str,
    threads: usize,
    ops_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    fallbacks_per_kop: f64,
}

fn run_point(s: &Scenario, threads: usize, window: Duration) -> Point {
    spitfire_obs::registry().reset_histograms();
    s.bm.reset_metrics();
    let before = s.bm.metrics();
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let bm = Arc::clone(&s.bm);
            let pids = Arc::clone(&s.pids);
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                let mut ops = 0u64;
                let mut i = t * (PAGES / threads.max(1));
                // relaxed: stop flag is a window hint; an extra batch outside the window is timing noise.
                while !stop.load(Ordering::Relaxed) {
                    // 1024 fetch/unpin pairs between stop checks.
                    for _ in 0..1024 {
                        let pid = pids[i % PAGES];
                        i = i.wrapping_add(1);
                        let g = bm.fetch(pid, AccessIntent::Read).expect("hit");
                        drop(g);
                    }
                    ops += 1024;
                }
                // relaxed: throughput statistic folded after join.
                total.fetch_add(ops, Ordering::Relaxed);
            })
        })
        .collect();
    let t0 = Instant::now();
    std::thread::sleep(window);
    // relaxed: window hint (see the worker loop).
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    // relaxed: read after join; the join synchronizes.
    let ops = total.load(Ordering::Relaxed);
    let snap = spitfire_obs::registry().histogram(s.op).snapshot();
    let after = s.bm.metrics().delta(&before);
    let fallbacks = after.fetch_fallbacks;
    Point {
        scenario: s.name,
        threads,
        ops_per_sec: ops as f64 / elapsed,
        p50_ns: snap.quantile(0.5).unwrap_or(0),
        p99_ns: snap.quantile(0.99).unwrap_or(0),
        fallbacks_per_kop: if ops == 0 {
            0.0
        } else {
            fallbacks as f64 * 1000.0 / ops as f64
        },
    }
}

fn main() {
    let window = if quick() {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(400)
    };
    let thread_counts: &[usize] = if quick() {
        &[1, 4]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };

    // Observability on at the default 1-in-31 sampling: p50/p99 come from
    // the sampled stream without distorting the ~100 ns loop under test.
    spitfire_obs::set_enabled(true);

    let mut r = Reporter::new(
        "hitpath",
        "§5.2 / §6.6 (latch contention on the buffer hit path)",
        "lock-free hits scale with threads; fetch/unpin of a resident page \
         performs no mutex acquisition on the uncontended path",
    );
    let mut headers = vec!["scenario".to_string()];
    headers.extend(thread_counts.iter().map(|t| format!("{t} threads")));
    r.headers(&headers.iter().map(String::as_str).collect::<Vec<_>>());

    let mut points: Vec<Point> = Vec::new();
    for s in [dram_hit(), nvm_hit()] {
        let mut cells = vec![s.name.to_string()];
        for &threads in thread_counts {
            let p = run_point(&s, threads, window);
            cells.push(format!(
                "{} ops/s [p50 {} p99 {}]",
                kops(p.ops_per_sec),
                fmt_us(Duration::from_nanos(p.p50_ns)),
                fmt_us(Duration::from_nanos(p.p99_ns)),
            ));
            points.push(p);
        }
        r.row(&cells);
    }
    r.done();

    let results = points.iter().map(|p| {
        json::object([
            ("scenario", Json::from(p.scenario)),
            ("threads", p.threads.into()),
            ("ops_per_sec", json::fixed(p.ops_per_sec, 0)),
            ("p50_ns", p.p50_ns.into()),
            ("p99_ns", p.p99_ns.into()),
            (
                "slow_fallbacks_per_kop",
                json::fixed(p.fallbacks_per_kop, 3),
            ),
        ])
    });
    write_bench_json(
        "hitpath",
        &json::object([("results", json::array(results))]),
    );
}
