//! CLOCK replacement behaviour at the buffer-manager level: reference
//! bits must keep the frequently-touched pages resident (paper §3, §5.1:
//! "the cache replacement policy and the data migration policy work in
//! tandem to place the pages in the appropriate tiers based on their
//! access frequency").

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spitfire_core::{
    AccessIntent, BufferManager, BufferManagerConfig, MetricsSnapshot, MigrationPolicy, PageId,
    Tier,
};
use spitfire_device::TimeScale;

const PAGE: usize = 1024;

fn manager(dram_pages: usize, nvm_pages: usize, policy: MigrationPolicy) -> BufferManager {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(dram_pages * PAGE)
        .nvm_capacity(nvm_pages * (PAGE + 64))
        .policy(policy)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    BufferManager::new(config).unwrap()
}

#[test]
fn hot_pages_survive_cold_scans_in_dram() {
    // 8-frame DRAM-only buffer; 4 hot pages re-touched between every cold
    // access must stay resident (second chances), while 32 cold pages
    // stream through the remaining frames.
    let bm = manager(8, 0, MigrationPolicy::eager());
    let hot: Vec<PageId> = (0..4).map(|_| bm.allocate_page().unwrap()).collect();
    let cold: Vec<PageId> = (0..32).map(|_| bm.allocate_page().unwrap()).collect();
    for pid in &hot {
        let _ = bm.fetch(*pid, AccessIntent::Read).unwrap();
    }
    bm.reset_metrics();
    for round in 0..8 {
        for c in &cold {
            // Touch every hot page between cold fetches: their reference
            // bits stay set, so CLOCK gives them second chances.
            for h in &hot {
                let _ = bm.fetch(*h, AccessIntent::Read).unwrap();
            }
            let _ = bm.fetch(*c, AccessIntent::Read).unwrap();
            let _ = round;
        }
    }
    let m = bm.metrics();
    // Hot fetches: 8 rounds * 32 cold * 4 hot = 1024. All but a handful
    // must be DRAM hits (a hot page may lose its frame only in rare hand
    // races).
    let hot_fetches = 8 * 32 * 4;
    assert!(
        m.dram_hits >= hot_fetches - 64,
        "hot pages were evicted too often: {} hits of {}",
        m.dram_hits,
        hot_fetches
    );
    // Cold pages must actually stream through SSD.
    assert!(
        m.ssd_fetches > 200,
        "cold scan did not generate misses: {}",
        m.ssd_fetches
    );
}

#[test]
fn nvm_clock_keeps_warm_pages_under_streaming() {
    // NVM-only hierarchy: warm set of 6 pages vs streaming 40-page scans.
    let bm = manager(0, 12, MigrationPolicy::lazy());
    let warm: Vec<PageId> = (0..6).map(|_| bm.allocate_page().unwrap()).collect();
    let stream: Vec<PageId> = (0..40).map(|_| bm.allocate_page().unwrap()).collect();
    for pid in &warm {
        let _ = bm.fetch(*pid, AccessIntent::Read).unwrap();
    }
    bm.reset_metrics();
    for s in &stream {
        for w in &warm {
            let _ = bm.fetch(*w, AccessIntent::Read).unwrap();
        }
        let _ = bm.fetch(*s, AccessIntent::Read).unwrap();
    }
    let m = bm.metrics();
    let warm_fetches = (40 * 6) as u64;
    assert!(
        m.nvm_hits >= warm_fetches - 24,
        "warm pages churned out of NVM: {} hits of {}",
        m.nvm_hits,
        warm_fetches
    );
}

#[test]
fn eviction_counts_balance_with_buffer_occupancy() {
    let bm = manager(4, 8, MigrationPolicy::eager());
    let pids: Vec<PageId> = (0..64).map(|_| bm.allocate_page().unwrap()).collect();
    for pid in &pids {
        let g = bm.fetch(*pid, AccessIntent::Write).unwrap();
        g.write(0, &[1u8; 16]).unwrap();
    }
    let m = bm.metrics();
    let (dram_res, nvm_res) = bm.resident_pages();
    // Conservation: pages brought in = still resident + evicted/discarded.
    let brought_to_dram = m.path(spitfire_core::MigrationPath::SsdToDram)
        + m.path(spitfire_core::MigrationPath::NvmToDram);
    assert_eq!(
        brought_to_dram - m.evictions_dram,
        dram_res as u64,
        "DRAM in-flow minus evictions must equal residency"
    );
    assert!(nvm_res as u64 <= 8 + 1);
    assert!(dram_res as u64 <= 4);
}

#[test]
fn touch_on_hit_refreshes_reference_bit() {
    // Single-frame DRAM: alternating between two pages forces an eviction
    // on every access (no reference-bit protection possible), while
    // repeating one page produces pure hits. Distinguishes touch-on-hit
    // from touch-on-install.
    let bm = manager(1, 0, MigrationPolicy::eager());
    let a = bm.allocate_page().unwrap();
    let b = bm.allocate_page().unwrap();
    for _ in 0..10 {
        let _ = bm.fetch(a, AccessIntent::Read).unwrap();
    }
    let m1 = bm.metrics();
    assert_eq!(m1.ssd_fetches, 1, "repeated access to one page misses once");
    for _ in 0..10 {
        let _ = bm.fetch(a, AccessIntent::Read).unwrap();
        let _ = bm.fetch(b, AccessIntent::Read).unwrap();
    }
    let m2 = bm.metrics();
    assert!(
        m2.ssd_fetches >= 19,
        "alternating pages in a 1-frame pool must thrash: {} fetches",
        m2.ssd_fetches
    );
    // The device never read more pages than fetch misses (no double I/O).
    let ssd = bm.device_stats(Tier::Ssd).unwrap().snapshot();
    assert!(ssd.read_ops >= m2.ssd_fetches);
}

/// 12 000 Zipf(0.9) operations, half reads and half writes, single-threaded
/// and seeded, over 96 pages: DRAM holds half of them and NVM all of them
/// twice over, so a DRAM miss is an NVM hit and the DRAM hit count measures
/// CLOCK alone.
fn skewed_nvm_resident_run() -> MetricsSnapshot {
    const DB_PAGES: usize = 96;
    let bm = manager(DB_PAGES / 2, 2 * DB_PAGES, MigrationPolicy::eager());
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
    // Inverse-CDF Zipf ranks, scattered over the pages by a multiplier
    // coprime to DB_PAGES so the hot pages are not simply the oldest.
    let mut acc = 0.0;
    let cdf: Vec<f64> = (1..=DB_PAGES)
        .map(|i| {
            acc += 1.0 / (i as f64).powf(0.9);
            acc
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x5F17_F17E);
    let mut buf = [0u8; 64];
    bm.reset_metrics();
    for _ in 0..12_000 {
        let u = rng.gen::<f64>() * acc;
        let rank = cdf.partition_point(|&c| c <= u).min(DB_PAGES - 1);
        let pid = pages[rank * 7919 % DB_PAGES];
        if rng.gen::<bool>() {
            bm.fetch_write(pid)
                .unwrap()
                .write(64, &rng.gen::<u64>().to_le_bytes())
                .unwrap();
        } else {
            bm.fetch_read(pid).unwrap().read(0, &mut buf).unwrap();
        }
    }
    bm.metrics()
}

#[test]
fn same_seed_gives_the_same_counts() {
    let m = skewed_nvm_resident_run();
    // Every counter, fetch and DRAM-hit counts included, repeats exactly.
    assert_eq!(m, skewed_nvm_resident_run());
    assert_eq!(
        m.ssd_fetches, 0,
        "the database is NVM-resident: a DRAM miss must be served from NVM"
    );
    // Skew over a DRAM tier half the database: CLOCK keeps most hits there.
    assert!(m.dram_hits > 6_000, "CLOCK lost the hot set: {m:?}");
}
