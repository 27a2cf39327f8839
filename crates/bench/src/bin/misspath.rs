//! Miss-path benchmark: write-heavy YCSB over a working set far larger
//! than DRAM, with and without the background maintenance service.
//!
//! Every fetch miss needs a free frame. Without maintenance the miss pays
//! for victim selection, dirty write-back, and NVM→SSD migration inline —
//! the foreground latency spikes this benchmark's `maint-off` scenario
//! measures at the tail. With the service running (`maint-on`), workers
//! pre-evict CLOCK victims to the configured watermarks and write dirty
//! NVM pages back in batches (one fsync per batch), so a miss is a
//! free-list pop plus the unavoidable read I/O: p99 fetch latency drops
//! and `backpressure_fallbacks` stays at zero once the free lists are
//! primed.
//!
//! Emits `BENCH_misspath.json` (override with `--json <path>`): per
//! scenario, fetch-latency quantiles measured around every fetch in the
//! op loop, plus the maintenance counters. The baseline to compare a run
//! against is the committed `BENCH_misspath.json`.

use std::time::{Duration, Instant};

use spitfire_bench::{fmt_us, quick, write_bench_json, Reporter};
use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy, PageId};
use spitfire_device::{PersistenceTracking, TimeScale};
use spitfire_obs::json::{self, Json};
use spitfire_wkld::{YcsbConfig, YcsbMix, YcsbOpStream};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

const PAGE: usize = 4096;
/// DRAM ≪ working set: 16 DRAM frames for a 160-page working set (10×
/// DRAM), spilling past the 64-frame NVM buffer so misses and evictions
/// need frames in both tiers.
const DRAM_FRAMES: usize = 16;
const NVM_FRAMES: usize = 64;
const PAGES: usize = 160;
/// Emulated-device time scale: full Table 1 ratios, compressed 10×.
const SCALE: TimeScale = TimeScale(0.5);
/// Per-op think time emulating the transaction work (WAL append, CC,
/// logging sync) that accompanies each page access in a real system — the
/// window in which background workers refill the free lists.
const THINK: Duration = Duration::from_micros(25);

struct Outcome {
    scenario: &'static str,
    ops: usize,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    backpressure: u64,
    steady_backpressure: u64,
    maint_evictions: u64,
    maint_writebacks: u64,
}

fn manager() -> Arc<BufferManager> {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(DRAM_FRAMES * PAGE)
        .nvm_capacity(NVM_FRAMES * (PAGE + 64))
        .policy(MigrationPolicy::lazy())
        .persistence(PersistenceTracking::Counters)
        .time_scale(TimeScale::ZERO) // load phase: no emulated delays
        .ssd_backend(spitfire_bench::ssd_backend_from_env())
        .build()
        .expect("valid config");
    Arc::new(BufferManager::new(config).expect("buffer manager"))
}

fn run_scenario(name: &'static str, with_maintenance: bool, ops: usize) -> Outcome {
    let bm = manager();
    let pids: Vec<PageId> = (0..PAGES).map(|_| bm.allocate_page().unwrap()).collect();
    let payload = vec![0xA5u8; 256];
    for pid in &pids {
        let g = bm.fetch_write(*pid).unwrap();
        g.write(0, &payload).unwrap();
    }
    // Measurement phase: emulated device delays on.
    bm.admin().set_time_scale(SCALE);

    let maintenance = bm.maintenance();
    if with_maintenance {
        maintenance.start();
        // Prime the free lists to the high watermarks before measuring.
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            let (d, n) = bm.free_frames();
            if d >= 1 && n >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    bm.reset_metrics();

    let stream = YcsbOpStream::new(&YcsbConfig {
        records: PAGES as u64,
        theta: 0.6,
        mix: YcsbMix::WriteHeavy,
    });
    let mut rng = SmallRng::seed_from_u64(42);
    let mut lat_ns: Vec<u64> = Vec::with_capacity(ops);
    let warmup = ops / 10;
    let mut steady_base = 0u64;
    let mut buf = [0u8; 256];
    for i in 0..ops {
        if i == warmup {
            steady_base = bm.metrics().backpressure_fallbacks;
        }
        let (key, is_update) = stream.next_op(&mut rng);
        let pid = pids[key as usize % PAGES];
        let t0 = Instant::now();
        if is_update {
            let g = bm.fetch_write(pid).expect("fetch_write");
            let dt = t0.elapsed();
            g.write(0, &payload).unwrap();
            lat_ns.push(dt.as_nanos() as u64);
        } else {
            let g = bm.fetch_read(pid).expect("fetch_read");
            let dt = t0.elapsed();
            g.read(0, &mut buf).unwrap();
            lat_ns.push(dt.as_nanos() as u64);
        }
        // Think time: the frame freed by this op's eviction (or by the
        // workers) comes back while the "transaction" does its other work.
        let spin = Instant::now();
        while spin.elapsed() < THINK {
            std::hint::spin_loop();
        }
    }

    let m = bm.metrics();
    maintenance.stop();
    bm.assert_quiescent();
    lat_ns.sort_unstable();
    let q = |f: f64| lat_ns[((lat_ns.len() - 1) as f64 * f) as usize];
    Outcome {
        scenario: name,
        ops,
        p50_ns: q(0.5),
        p99_ns: q(0.99),
        max_ns: *lat_ns.last().unwrap(),
        backpressure: m.backpressure_fallbacks,
        steady_backpressure: m.backpressure_fallbacks - steady_base,
        maint_evictions: m.maint_evictions,
        maint_writebacks: m.maint_writebacks,
    }
}

fn main() {
    let ops = if quick() { 2_000 } else { 10_000 };

    let mut r = Reporter::new(
        "misspath",
        "§5.2 (background flushing) applied to the fetch miss path",
        "watermark pre-eviction and batched write-back keep eviction I/O \
         off the miss path: lower p99 fetch latency, zero backpressure \
         fallbacks in steady state at default watermarks",
    );
    r.headers(&[
        "scenario",
        "p50 fetch",
        "p99 fetch",
        "max fetch",
        "backpressure (steady)",
        "maint evictions",
    ]);

    let results = [
        run_scenario("maint-off", false, ops),
        run_scenario("maint-on", true, ops),
    ];
    for o in &results {
        r.row(&[
            o.scenario.to_string(),
            fmt_us(Duration::from_nanos(o.p50_ns)),
            fmt_us(Duration::from_nanos(o.p99_ns)),
            fmt_us(Duration::from_nanos(o.max_ns)),
            format!("{} ({})", o.backpressure, o.steady_backpressure),
            format!("{} ({} wb)", o.maint_evictions, o.maint_writebacks),
        ]);
    }
    r.done();

    let results = results.iter().map(|o| {
        json::object([
            ("scenario", Json::from(o.scenario)),
            ("ops", o.ops.into()),
            ("p50_ns", o.p50_ns.into()),
            ("p99_ns", o.p99_ns.into()),
            ("max_ns", o.max_ns.into()),
            ("backpressure_fallbacks", o.backpressure.into()),
            ("steady_state_backpressure", o.steady_backpressure.into()),
            ("maint_evictions", o.maint_evictions.into()),
            ("maint_writebacks", o.maint_writebacks.into()),
        ])
    });
    write_bench_json(
        "misspath",
        &json::object([("results", json::array(results))]),
    );
}
