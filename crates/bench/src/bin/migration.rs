//! Migration-stall benchmark: hit-path readers racing a forced migration
//! storm.
//!
//! The shadow-copy protocol's whole point is that DRAM↔NVM moves and
//! checkpoint write-backs never close a page's pin word across device
//! I/O, so optimistic readers keep hitting lock-free while the copy is in
//! flight. This benchmark measures exactly that: reader fetch latency on
//! a hot DRAM-resident page set while a storm thread continuously
//! (a) re-dirties and checkpoint-flushes the hot pages and (b) churns a
//! colder page set through DRAM to force eviction write-backs and
//! re-promotions of the hot pages themselves.
//!
//! Two scenarios, same workload:
//!
//! * `quiescent`    — readers only, no storm (the floor);
//! * `shadow-storm` — the storm running beside the readers.
//!
//! Emits `BENCH_migration.json` (override with `--json <path>` via
//! `SPITFIRE_OBS_JSON`): per scenario, reader p50/p99/max fetch latency,
//! migration counts, and the shadow abort rate. CI asserts `shadow-storm`
//! p99 stays within 1.5× of `quiescent` p99. (The contrast against the
//! retired blocking protocol is recorded in EXPERIMENTS.md.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spitfire_bench::{fmt_us, quick, write_bench_json, Reporter};
use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPath, MigrationPolicy, PageId};
use spitfire_device::{PersistenceTracking, TimeScale};
use spitfire_obs::json::{self, Json};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PAGE: usize = 4096;
/// Hot set readers hammer; comfortably DRAM-resident on its own.
const HOT_PAGES: usize = 16;
/// Churn set the storm drags through DRAM to force evictions; hot + churn
/// overflow DRAM so the CLOCK regularly evicts (and the readers re-promote)
/// hot pages too.
const CHURN_PAGES: usize = 64;
const DRAM_FRAMES: usize = 32;
const NVM_FRAMES: usize = 96;
/// Emulated-device time scale during measurement: device writes take real
/// microseconds, so a reader stalled behind one pays a visible price.
const SCALE: TimeScale = TimeScale(0.5);
const READERS: usize = 4;

struct Outcome {
    scenario: &'static str,
    ops: usize,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    promotions: u64,
    demotions: u64,
    flushes: u64,
    aborted: u64,
    abort_rate: f64,
}

fn manager() -> Arc<BufferManager> {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(DRAM_FRAMES * PAGE)
        .nvm_capacity(NVM_FRAMES * (PAGE + 64))
        // Eager promotions: every NVM hit migrates back up, maximising
        // DRAM↔NVM traffic on the hot set.
        .policy(MigrationPolicy::eager())
        .persistence(PersistenceTracking::Counters)
        .time_scale(TimeScale::ZERO) // load phase: no emulated delays
        .ssd_backend(spitfire_bench::ssd_backend_from_env())
        .build()
        .expect("valid config");
    Arc::new(BufferManager::new(config).expect("buffer manager"))
}

fn run_scenario(name: &'static str, storm: bool, ops_per_reader: usize) -> Outcome {
    let bm = manager();
    let hot: Vec<PageId> = (0..HOT_PAGES)
        .map(|_| bm.allocate_page().unwrap())
        .collect();
    let churn: Vec<PageId> = (0..CHURN_PAGES)
        .map(|_| bm.allocate_page().unwrap())
        .collect();
    let payload = vec![0xC3u8; 256];
    for pid in hot.iter().chain(churn.iter()) {
        let g = bm.fetch_write(*pid).unwrap();
        g.write(0, &payload).unwrap();
    }
    // Re-touch the hot set so it is DRAM-resident (and dirty) at the start.
    for pid in &hot {
        let g = bm.fetch_write(*pid).unwrap();
        g.write(0, &payload).unwrap();
    }
    bm.admin().set_time_scale(SCALE);
    bm.reset_metrics();

    let stop = Arc::new(AtomicBool::new(false));
    let flushes = Arc::new(AtomicU64::new(0));
    let mut storm_handles = Vec::new();
    if storm {
        // Flusher: checkpoint-style write-backs of the hot pages, each one
        // racing the readers on that page.
        let (bm_f, hot_f, stop_f) = (Arc::clone(&bm), hot.clone(), Arc::clone(&stop));
        let (payload_f, flushes_f) = (payload.clone(), Arc::clone(&flushes));
        storm_handles.push(std::thread::spawn(move || {
            let mut i = 0usize;
            // relaxed: bench shutdown flag; staleness only delays exit.
            while !stop_f.load(Ordering::Relaxed) {
                let pid = hot_f[i % hot_f.len()];
                if let Ok(g) = bm_f.fetch_write(pid) {
                    let _ = g.write(0, &payload_f);
                }
                if matches!(bm_f.flush_page(pid), Ok(true)) {
                    // relaxed: bench-local statistic, read after join.
                    flushes_f.fetch_add(1, Ordering::Relaxed);
                }
                i += 1;
            }
        }));
        // Churner: drags the cold set through DRAM so the CLOCK must evict
        // dirty pages (DRAM→NVM write-backs) — including, regularly, hot
        // pages, which the readers then re-promote (NVM→DRAM).
        let (bm_c, churn_c, stop_c) = (Arc::clone(&bm), churn.clone(), Arc::clone(&stop));
        let payload_c = payload;
        storm_handles.push(std::thread::spawn(move || {
            let mut i = 0usize;
            // relaxed: bench shutdown flag; staleness only delays exit.
            while !stop_c.load(Ordering::Relaxed) {
                let pid = churn_c[i % churn_c.len()];
                if let Ok(g) = bm_c.fetch_write(pid) {
                    let _ = g.write(0, &payload_c);
                }
                i += 1;
            }
        }));
    }

    // Readers: uniform over the hot set, measuring each fetch.
    let mut reader_handles = Vec::new();
    for r in 0..READERS {
        let (bm_r, hot_r) = (Arc::clone(&bm), hot.clone());
        reader_handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0xF1E1D + r as u64);
            let mut lat = Vec::with_capacity(ops_per_reader);
            let mut buf = [0u8; 256];
            for _ in 0..ops_per_reader {
                let pid = hot_r[rng.gen::<u64>() as usize % hot_r.len()];
                let t0 = Instant::now();
                let g = bm_r.fetch_read(pid).expect("fetch_read");
                let dt = t0.elapsed();
                g.read(0, &mut buf).unwrap();
                drop(g);
                lat.push(dt.as_nanos() as u64);
            }
            lat
        }));
    }

    let mut lat_ns: Vec<u64> = Vec::with_capacity(READERS * ops_per_reader);
    for h in reader_handles {
        lat_ns.extend(h.join().expect("reader thread"));
    }
    // relaxed: bench shutdown flag; staleness only delays exit.
    stop.store(true, Ordering::Relaxed);
    for h in storm_handles {
        h.join().expect("storm thread");
    }
    let m = bm.metrics();
    bm.assert_quiescent();

    lat_ns.sort_unstable();
    let q = |f: f64| lat_ns[((lat_ns.len() - 1) as f64 * f) as usize];
    let promotions = m.path(MigrationPath::NvmToDram);
    let demotions = m.path(MigrationPath::DramToNvm) + m.path(MigrationPath::DramToSsd);
    // Every shadow attempt either lands as a migration/flush or is
    // recorded aborted; the rate is aborts over attempts.
    let attempts = promotions + demotions + m.migrations_aborted;
    Outcome {
        scenario: name,
        ops: lat_ns.len(),
        p50_ns: q(0.5),
        p99_ns: q(0.99),
        max_ns: *lat_ns.last().unwrap(),
        promotions,
        demotions,
        // relaxed: bench-local statistic, read after the threads joined.
        flushes: flushes.load(Ordering::Relaxed),
        aborted: m.migrations_aborted,
        abort_rate: if attempts == 0 {
            0.0
        } else {
            m.migrations_aborted as f64 / attempts as f64
        },
    }
}

fn main() {
    let ops = if quick() { 20_000 } else { 100_000 };

    let mut r = Reporter::new(
        "migration",
        "§5.2 latching vs Nomad-style transactional page migration",
        "shadow-copy migrations keep hit-path readers lock-free while \
         pages move between tiers: reader p99 under a migration storm \
         stays within 1.5x of the quiescent baseline",
    );
    r.headers(&[
        "scenario",
        "p50 read",
        "p99 read",
        "max read",
        "promotions",
        "demotions",
        "aborted (rate)",
    ]);

    let results = [
        run_scenario("quiescent", false, ops),
        run_scenario("shadow-storm", true, ops),
    ];
    for o in &results {
        r.row(&[
            o.scenario.to_string(),
            fmt_us(Duration::from_nanos(o.p50_ns)),
            fmt_us(Duration::from_nanos(o.p99_ns)),
            fmt_us(Duration::from_nanos(o.max_ns)),
            o.promotions.to_string(),
            o.demotions.to_string(),
            format!("{} ({:.1}%)", o.aborted, o.abort_rate * 100.0),
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
            ("promotions", o.promotions.into()),
            ("demotions", o.demotions.into()),
            ("flushes", o.flushes.into()),
            ("migrations_aborted", o.aborted.into()),
            ("abort_rate", json::fixed(o.abort_rate, 4)),
        ])
    });
    write_bench_json(
        "migration",
        &json::object([("results", json::array(results))]),
    );
}
