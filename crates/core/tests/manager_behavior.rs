//! Behavioural tests for the buffer manager: migration paths, eviction
//! plans, policy effects, hierarchies, crash recovery.

use spitfire_core::{
    AccessIntent, BufferError, BufferManager, BufferManagerConfig, MetricsSnapshot, MigrationPath,
    MigrationPolicy, PageId, Tier,
};
use spitfire_device::{PersistenceTracking, TimeScale};

const PAGE: usize = 4096;

fn manager(dram_pages: usize, nvm_pages: usize, policy: MigrationPolicy) -> BufferManager {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(dram_pages * PAGE)
        // The NVM pool carves a 64 B header per frame out of its budget, so
        // over-provision slightly to get exactly `nvm_pages` frames.
        .nvm_capacity(nvm_pages * (PAGE + 64))
        .policy(policy)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    BufferManager::new(config).unwrap()
}

fn fill_page(bm: &BufferManager, pid: PageId, byte: u8) {
    let g = bm.fetch(pid, AccessIntent::Write).unwrap();
    g.write(0, &vec![byte; PAGE]).unwrap();
}

fn check_page(bm: &BufferManager, pid: PageId, byte: u8) {
    let g = bm.fetch(pid, AccessIntent::Read).unwrap();
    let mut buf = vec![0u8; PAGE];
    g.read(0, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == byte),
        "page {pid} corrupted (expected {byte:#x})"
    );
}

#[test]
fn read_your_writes_under_eviction_pressure() {
    // 4 DRAM + 8 NVM frames, 64 pages: every access cycles through SSD.
    let bm = manager(4, 8, MigrationPolicy::lazy());
    let pids: Vec<PageId> = (0..64).map(|_| bm.allocate_page().unwrap()).collect();
    for (i, pid) in pids.iter().enumerate() {
        fill_page(&bm, *pid, i as u8);
    }
    for (i, pid) in pids.iter().enumerate() {
        check_page(&bm, *pid, i as u8);
    }
    // Second round of updates to catch stale-copy bugs.
    for (i, pid) in pids.iter().enumerate() {
        fill_page(&bm, *pid, (i as u8).wrapping_add(100));
    }
    for (i, pid) in pids.iter().enumerate() {
        check_page(&bm, *pid, (i as u8).wrapping_add(100));
    }
}

#[test]
fn eager_policy_promotes_to_dram() {
    let bm = manager(4, 8, MigrationPolicy::eager());
    let pid = bm.allocate_page().unwrap();
    // Eager N_r = 1: the SSD miss lands in NVM; eager D_r promotes next.
    {
        let g = bm.fetch(pid, AccessIntent::Read).unwrap();
        assert_eq!(g.tier(), Tier::Nvm, "eager N_r admits SSD reads to NVM");
    }
    {
        let g = bm.fetch(pid, AccessIntent::Read).unwrap();
        assert_eq!(g.tier(), Tier::Dram, "eager D_r promotes NVM pages to DRAM");
    }
    {
        let g = bm.fetch(pid, AccessIntent::Read).unwrap();
        assert_eq!(g.tier(), Tier::Dram, "subsequent reads hit DRAM");
    }
    let m = bm.metrics();
    assert_eq!(m.path(MigrationPath::SsdToNvm), 1);
    assert_eq!(m.path(MigrationPath::NvmToDram), 1);
    assert_eq!(m.dram_hits, 1);
    assert_eq!(
        m.nvm_hits, 0,
        "the second fetch promoted rather than served from NVM"
    );
}

#[test]
fn fully_lazy_policy_reads_nvm_in_place() {
    let bm = manager(4, 8, MigrationPolicy::new(0.0, 0.0, 1.0, 1.0));
    let pid = bm.allocate_page().unwrap();
    for _ in 0..10 {
        let g = bm.fetch(pid, AccessIntent::Read).unwrap();
        assert_eq!(g.tier(), Tier::Nvm, "D_r = 0 never promotes");
    }
    assert_eq!(bm.metrics().path(MigrationPath::NvmToDram), 0);
    assert_eq!(bm.metrics().nvm_hits, 9);
}

/// A page with its first eight bytes set, resident on NVM only, under a
/// policy whose D_w is `dw` and which otherwise moves nothing.
fn nvm_resident(dram_pages: usize, dw: f64) -> (BufferManager, PageId) {
    let bm = manager(dram_pages, 8, MigrationPolicy::new(0.0, 0.0, 1.0, 1.0));
    let pid = bm.allocate_page().unwrap();
    bm.fetch_write(pid).unwrap().write_u64(0, 41).unwrap();
    bm.admin()
        .set_policy(MigrationPolicy::new(0.0, dw, 1.0, 1.0));
    (bm, pid)
}

#[test]
fn upgrade_on_nvm_flips_dw_once_before_the_write() {
    // Tails: the read's pin is the one written through, in place.
    let (bm, pid) = nvm_resident(4, 0.0);
    let before = bm.metrics();
    let read = bm.fetch_read(pid).unwrap();
    assert_eq!((read.tier(), read.read_u64(0).unwrap()), (Tier::Nvm, 41));
    let write = read.upgrade().unwrap();
    assert_eq!(write.tier(), Tier::Nvm);
    write.write_u64(0, 42).unwrap();
    drop(write);
    let d = bm.metrics().delta(&before);
    assert_eq!((d.total_requests(), d.fetch_fallbacks), (1, 0));
    assert_eq!(d.path(MigrationPath::NvmToDram), 0);
    assert_eq!(bm.dirty_pages(), (0, 1));
    bm.assert_quiescent();

    // Heads: the pin is released, the page promoted, and the write lands
    // on DRAM — NVM is not written at all.
    let (bm, pid) = nvm_resident(4, 1.0);
    let nvm_before = bm.device_stats(Tier::Nvm).unwrap().snapshot();
    let write = bm.fetch_read(pid).unwrap().upgrade().unwrap();
    assert_eq!((write.tier(), write.read_u64(0).unwrap()), (Tier::Dram, 41));
    write.write_u64(0, 42).unwrap();
    drop(write);
    assert_eq!(bm.metrics().path(MigrationPath::NvmToDram), 1);
    let nvm = bm.device_stats(Tier::Nvm).unwrap().snapshot();
    assert_eq!(nvm.delta(&nvm_before).write_ops, 0);
    assert_eq!(bm.fetch_read(pid).unwrap().read_u64(0).unwrap(), 42);
    bm.assert_quiescent();
}

/// The content latch lives in the page's descriptor, so it follows the
/// page: write-latched while the only copy is on NVM, it is still locked —
/// for any handle, on any thread — after the page was promoted to DRAM
/// and evicted back, and its version carries on from where it was.
#[test]
fn content_latch_follows_the_page_across_tiers() {
    let (bm, pid) = nvm_resident(4, 0.0);
    let guard = bm.fetch(pid, AccessIntent::Write).unwrap();
    assert_eq!(guard.tier(), Tier::Nvm);
    let v0 = guard.latch(|l| l.read_lock().unwrap()).unwrap();
    guard.latch(|l| l.upgrade(v0).unwrap()).unwrap();
    drop(guard); // the pin goes, the latch stays locked

    // Promote: D_w = 1 moves the page to DRAM on the next write fetch.
    bm.admin()
        .set_policy(MigrationPolicy::new(0.0, 1.0, 1.0, 1.0));
    let guard = bm.fetch(pid, AccessIntent::Write).unwrap();
    assert_eq!(guard.tier(), Tier::Dram);
    assert_eq!(bm.metrics().path(MigrationPath::NvmToDram), 1);
    assert!(guard.latch(|l| l.read_lock().is_err()).unwrap());
    drop(guard);

    // Evict it back: twelve more write fetches through four DRAM frames.
    for _ in 0..12 {
        let other = bm.allocate_page().unwrap();
        drop(bm.fetch(other, AccessIntent::Write).unwrap());
    }
    bm.admin()
        .set_policy(MigrationPolicy::new(0.0, 0.0, 1.0, 1.0));
    std::thread::scope(|s| {
        s.spawn(|| {
            let second = bm.fetch(pid, AccessIntent::Read).unwrap();
            assert_eq!(second.tier(), Tier::Nvm, "back on NVM only");
            assert_eq!(second.latch(|l| l.is_locked()), Some(true));
            assert!(second.latch(|l| l.read_lock().is_err()).unwrap());
            // Whoever holds a pin can release it; the version moved on by
            // exactly this one write.
            second.latch(|l| l.write_unlock()).unwrap();
            let v1 = second.latch(|l| l.read_lock().unwrap()).unwrap();
            assert!(v1 > v0);
            assert!(second.latch(|l| l.upgrade(v0).is_err()).unwrap());
        });
    });
    bm.assert_quiescent();

    // A guard that outlives a crash finds no descriptor: nothing to
    // unlock, like its unpin.
    let guard = bm.fetch(pid, AccessIntent::Read).unwrap();
    bm.simulate_crash();
    assert_eq!(guard.latch(|l| l.is_locked()), None);
}

#[test]
fn upgrade_draws_nothing_where_nothing_can_move() {
    // A DRAM-resident copy, and an NVM copy with no DRAM tier above it:
    // D_w = 1 would promote if the coin were flipped.
    let (bm, pid) = nvm_resident(4, 1.0);
    drop(bm.fetch_write(pid).unwrap()); // promote
    let (nvm_only, nvm_pid) = nvm_resident(0, 1.0);
    for (bm, pid, tier) in [(&bm, pid, Tier::Dram), (&nvm_only, nvm_pid, Tier::Nvm)] {
        let before = bm.metrics();
        let write = bm.fetch_read(pid).unwrap().upgrade().unwrap();
        assert_eq!(write.tier(), tier);
        write.write_u64(8, 7).unwrap();
        drop(write);
        let d = bm.metrics().delta(&before);
        assert_eq!((d.total_requests(), d.fetch_fast), (1, 1));
        assert_eq!(d.fetch_fallbacks, 0);
        assert_eq!(d.migrations, [0; 6]);
        bm.assert_quiescent();
    }
}

#[test]
fn nr_zero_bypasses_nvm_on_reads() {
    let bm = manager(4, 8, MigrationPolicy::new(1.0, 1.0, 0.0, 1.0));
    let pid = bm.allocate_page().unwrap();
    let g = bm.fetch(pid, AccessIntent::Read).unwrap();
    assert_eq!(
        g.tier(),
        Tier::Dram,
        "N_r = 0 loads SSD pages straight to DRAM"
    );
    drop(g);
    let m = bm.metrics();
    assert_eq!(m.path(MigrationPath::SsdToDram), 1);
    assert_eq!(m.path(MigrationPath::SsdToNvm), 0);
}

#[test]
fn clean_dram_evictions_are_discarded() {
    let bm = manager(2, 4, MigrationPolicy::new(1.0, 1.0, 0.0, 1.0));
    let pids: Vec<PageId> = (0..6).map(|_| bm.allocate_page().unwrap()).collect();
    // Read-only traffic: all pages go SSD->DRAM and are evicted clean.
    for pid in &pids {
        let _ = bm.fetch(*pid, AccessIntent::Read).unwrap();
    }
    let m = bm.metrics();
    assert!(
        m.discards >= 4,
        "clean pages must be discarded, got {}",
        m.discards
    );
    assert_eq!(
        m.path(MigrationPath::DramToSsd),
        0,
        "no clean page is written back"
    );
    assert_eq!(m.path(MigrationPath::DramToNvm), 0);
}

#[test]
fn dirty_eviction_with_nw_zero_writes_straight_to_ssd() {
    let bm = manager(2, 4, MigrationPolicy::new(1.0, 1.0, 0.0, 0.0));
    let pids: Vec<PageId> = (0..8).map(|_| bm.allocate_page().unwrap()).collect();
    for (i, pid) in pids.iter().enumerate() {
        fill_page(&bm, *pid, i as u8);
    }
    let m = bm.metrics();
    assert!(m.path(MigrationPath::DramToSsd) >= 6);
    assert_eq!(
        m.path(MigrationPath::DramToNvm),
        0,
        "N_w = 0 never admits to NVM"
    );
    for (i, pid) in pids.iter().enumerate() {
        check_page(&bm, *pid, i as u8);
    }
}

#[test]
fn dirty_eviction_with_nw_one_admits_to_nvm() {
    let bm = manager(2, 8, MigrationPolicy::new(1.0, 1.0, 0.0, 1.0));
    let pids: Vec<PageId> = (0..6).map(|_| bm.allocate_page().unwrap()).collect();
    for (i, pid) in pids.iter().enumerate() {
        fill_page(&bm, *pid, i as u8);
    }
    let m = bm.metrics();
    assert!(
        m.path(MigrationPath::DramToNvm) >= 4,
        "N_w = 1 admits dirty evictions to NVM"
    );
    for (i, pid) in pids.iter().enumerate() {
        check_page(&bm, *pid, i as u8);
    }
}

#[test]
fn dirty_dram_eviction_merges_into_existing_nvm_copy() {
    let bm = manager(1, 4, MigrationPolicy::new(1.0, 1.0, 1.0, 1.0));
    let a = bm.allocate_page().unwrap();
    let b = bm.allocate_page().unwrap();
    // Load a via NVM (N_r = 1) and promote it (D_w = 1): copies in both.
    let _ = bm.fetch(a, AccessIntent::Read).unwrap(); // SSD -> NVM
    fill_page(&bm, a, 0xAB); // promoted to DRAM, then dirtied
                             // Dirty b in DRAM (D_w = 1 places writes there) to evict a from the
                             // 1-frame DRAM buffer.
    fill_page(&bm, b, 0x01);
    // a's newer bytes must have been merged into its NVM copy.
    check_page(&bm, a, 0xAB);
    assert!(bm.metrics().path(MigrationPath::DramToNvm) >= 1);
}

#[test]
fn hymem_admission_queue_admits_on_second_eviction() {
    let mut policy = MigrationPolicy::hymem();
    policy.nr = 0.0;
    let bm = manager(1, 8, policy);
    let a = bm.allocate_page().unwrap();
    let b = bm.allocate_page().unwrap();
    // First dirty eviction of a: denied (queued), goes to SSD.
    fill_page(&bm, a, 1);
    fill_page(&bm, b, 2); // evicts a
    let m = bm.metrics();
    assert_eq!(m.path(MigrationPath::DramToSsd), 1);
    assert_eq!(m.path(MigrationPath::DramToNvm), 0);
    // Second dirty eviction of a: admitted to NVM.
    fill_page(&bm, a, 3); // evicts b (b is now queued)
    fill_page(&bm, b, 4); // evicts a -> admitted
    let m = bm.metrics();
    assert_eq!(
        m.path(MigrationPath::DramToNvm),
        1,
        "second consideration admits"
    );
    check_page(&bm, a, 3);
    check_page(&bm, b, 4);
}

#[test]
fn dram_ssd_hierarchy_works_without_nvm() {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(4 * PAGE)
        .nvm_capacity(0)
        .policy(MigrationPolicy::eager())
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = BufferManager::new(config).unwrap();
    let pids: Vec<PageId> = (0..12).map(|_| bm.allocate_page().unwrap()).collect();
    for (i, pid) in pids.iter().enumerate() {
        fill_page(&bm, *pid, i as u8);
        let g = bm.fetch(*pid, AccessIntent::Read).unwrap();
        assert_eq!(g.tier(), Tier::Dram);
    }
    for (i, pid) in pids.iter().enumerate() {
        check_page(&bm, *pid, i as u8);
    }
    assert_eq!(bm.metrics().path(MigrationPath::SsdToNvm), 0);
}

#[test]
fn nvm_ssd_hierarchy_works_without_dram() {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(0)
        .nvm_capacity(6 * (PAGE + 64))
        .policy(MigrationPolicy::lazy())
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = BufferManager::new(config).unwrap();
    let pids: Vec<PageId> = (0..12).map(|_| bm.allocate_page().unwrap()).collect();
    for (i, pid) in pids.iter().enumerate() {
        fill_page(&bm, *pid, i as u8);
        let g = bm.fetch(*pid, AccessIntent::Read).unwrap();
        assert_eq!(g.tier(), Tier::Nvm);
    }
    for (i, pid) in pids.iter().enumerate() {
        check_page(&bm, *pid, i as u8);
    }
}

#[test]
fn memory_mode_round_trips_and_counts_cache() {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .memory_mode(true)
        .dram_capacity(4 * PAGE) // DRAM cache
        .nvm_capacity(16 * PAGE) // visible capacity
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = BufferManager::new(config).unwrap();
    let pids: Vec<PageId> = (0..8).map(|_| bm.allocate_page().unwrap()).collect();
    for (i, pid) in pids.iter().enumerate() {
        fill_page(&bm, *pid, i as u8);
    }
    for (i, pid) in pids.iter().enumerate() {
        check_page(&bm, *pid, i as u8);
    }
    let (hits, misses) = bm.memory_mode_cache().expect("memory mode active");
    assert!(hits > 0 && misses > 0, "hits {hits}, misses {misses}");
}

#[test]
fn unknown_page_is_rejected() {
    let bm = manager(2, 2, MigrationPolicy::lazy());
    let err = bm.fetch(PageId(99), AccessIntent::Read).unwrap_err();
    assert_eq!(err, BufferError::UnknownPage(PageId(99)));
}

#[test]
fn exhausted_pins_report_no_frames() {
    // Two-tier DRAM-SSD: no fallback tier exists, so pinning every frame
    // must surface NoFrames.
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(2 * PAGE)
        .nvm_capacity(0)
        .policy(MigrationPolicy::eager())
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = BufferManager::new(config).unwrap();
    let pids: Vec<PageId> = (0..3).map(|_| bm.allocate_page().unwrap()).collect();
    let _g0 = bm.fetch(pids[0], AccessIntent::Read).unwrap();
    let _g1 = bm.fetch(pids[1], AccessIntent::Read).unwrap();
    let err = bm.fetch(pids[2], AccessIntent::Read).unwrap_err();
    assert_eq!(err, BufferError::NoFrames { tier: Tier::Dram });
    // Dropping a guard makes fetch succeed again.
    drop(_g0);
    assert!(bm.fetch(pids[2], AccessIntent::Read).is_ok());
}

#[test]
fn exhausted_dram_falls_back_to_nvm() {
    // Three-tier: with both DRAM frames pinned, a DRAM-destined fetch
    // degrades to NVM placement instead of failing.
    let bm = manager(2, 2, MigrationPolicy::new(1.0, 1.0, 0.0, 1.0));
    let pids: Vec<PageId> = (0..3).map(|_| bm.allocate_page().unwrap()).collect();
    let _g0 = bm.fetch(pids[0], AccessIntent::Read).unwrap();
    let _g1 = bm.fetch(pids[1], AccessIntent::Read).unwrap();
    let g2 = bm.fetch(pids[2], AccessIntent::Read).unwrap();
    assert_eq!(g2.tier(), Tier::Nvm);
}

#[test]
fn inclusivity_lower_for_lazy_than_eager() {
    let run = |policy: MigrationPolicy, seed: u64| {
        // Working set (24 pages) fits entirely in NVM (32 frames) with a
        // small DRAM buffer (4 frames), matching the cacheable regime of
        // Table 2 where the inclusivity difference shows.
        let config = BufferManagerConfig::builder()
            .page_size(PAGE)
            .dram_capacity(4 * PAGE)
            .nvm_capacity(32 * (PAGE + 64))
            .policy(policy)
            .seed(seed)
            .time_scale(TimeScale::ZERO)
            .build()
            .unwrap();
        let bm = BufferManager::new(config).unwrap();
        let pids: Vec<PageId> = (0..24).map(|_| bm.allocate_page().unwrap()).collect();
        // Skewed reads: page i accessed 24 - i times per round.
        for _round in 0..8 {
            for (i, pid) in pids.iter().enumerate() {
                for _ in 0..(24 - i) {
                    let _ = bm.fetch(*pid, AccessIntent::Read).unwrap();
                }
            }
        }
        bm.inclusivity()
    };
    let eager = run(MigrationPolicy::eager(), 1);
    let lazy = run(MigrationPolicy::lazy(), 1);
    assert!(
        lazy <= eager,
        "lazy inclusivity {lazy} should not exceed eager {eager} (Table 2)"
    );
    assert!(eager > 0.0, "eager policy must duplicate some pages");
}

#[test]
fn flush_all_dirty_clears_dirty_pages() {
    let bm = manager(4, 4, MigrationPolicy::new(1.0, 1.0, 0.0, 1.0));
    let pids: Vec<PageId> = (0..3).map(|_| bm.allocate_page().unwrap()).collect();
    for (i, pid) in pids.iter().enumerate() {
        fill_page(&bm, *pid, i as u8 + 1);
    }
    let flushed = bm.flush_all_dirty().unwrap();
    assert_eq!((flushed.written, flushed.left_behind), (3, Vec::new()));
    // A second flush finds nothing dirty.
    assert_eq!(bm.flush_all_dirty().unwrap().written, 0);
    for (i, pid) in pids.iter().enumerate() {
        check_page(&bm, *pid, i as u8 + 1);
    }
}

#[test]
fn crash_loses_dram_keeps_persisted_nvm() {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(4 * PAGE)
        .nvm_capacity(8 * (PAGE + 64))
        .policy(MigrationPolicy::new(0.0, 0.0, 1.0, 1.0)) // everything lives on NVM
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = BufferManager::new(config).unwrap();
    let pids: Vec<PageId> = (0..4).map(|_| bm.allocate_page().unwrap()).collect();
    for (i, pid) in pids.iter().enumerate() {
        fill_page(&bm, *pid, 0x40 + i as u8); // direct NVM writes, persisted
    }
    bm.simulate_crash();
    let recovered = bm.recover_nvm_buffer();
    assert_eq!(recovered.len(), 4, "all four pages were NVM-resident");
    for (i, pid) in pids.iter().enumerate() {
        check_page(&bm, *pid, 0x40 + i as u8);
    }
}

#[test]
fn crash_without_recovery_falls_back_to_ssd_versions() {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(4 * PAGE)
        .nvm_capacity(4 * (PAGE + 64))
        .policy(MigrationPolicy::new(1.0, 1.0, 0.0, 0.0)) // DRAM only, SSD write-back
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = BufferManager::new(config).unwrap();
    let pid = bm.allocate_page().unwrap();
    fill_page(&bm, pid, 0x77);
    bm.flush_all_dirty().unwrap();
    fill_page(&bm, pid, 0x99); // dirty in DRAM only
    bm.simulate_crash();
    bm.admin().set_next_page_id(pid.0 + 1);
    // The un-flushed 0x99 version is gone; SSD serves 0x77.
    check_page(&bm, pid, 0x77);
}

#[test]
fn concurrent_disjoint_writers_land_correct_bytes() {
    use std::sync::Arc;
    let bm = Arc::new(manager(8, 16, MigrationPolicy::lazy()));
    let pids: Vec<PageId> = (0..64).map(|_| bm.allocate_page().unwrap()).collect();
    let pids = Arc::new(pids);
    let handles: Vec<_> = (0..8usize)
        .map(|t| {
            let bm = Arc::clone(&bm);
            let pids = Arc::clone(&pids);
            std::thread::spawn(move || {
                // Thread t owns pages t, t+8, t+16, ...
                for round in 0..20u8 {
                    for chunk in 0..8 {
                        let pid = pids[t + chunk * 8];
                        let g = bm.fetch(pid, AccessIntent::Write).unwrap();
                        g.write(0, &[t as u8 ^ round; 128]).unwrap();
                        drop(g);
                        let g = bm.fetch(pid, AccessIntent::Read).unwrap();
                        let mut buf = [0u8; 128];
                        g.read(0, &mut buf).unwrap();
                        assert!(buf.iter().all(|&b| b == t as u8 ^ round));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn concurrent_readers_share_hot_pages() {
    use std::sync::Arc;
    let bm = Arc::new(manager(4, 8, MigrationPolicy::lazy()));
    let pid = bm.allocate_page().unwrap();
    fill_page(&bm, pid, 0x5A);
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let bm = Arc::clone(&bm);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let g = bm.fetch(pid, AccessIntent::Read).unwrap();
                    let mut buf = [0u8; 64];
                    g.read(512, &mut buf).unwrap();
                    assert!(buf.iter().all(|&b| b == 0x5A));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn promotion_probability_reaches_one_in_steady_state() {
    // Empirical check of §3.5's theoretical analysis: with D_r = 0.1 a page
    // absent from DRAM is eventually promoted.
    let bm = manager(4, 8, MigrationPolicy::new(0.1, 0.1, 1.0, 1.0));
    let pid = bm.allocate_page().unwrap();
    let mut promoted = false;
    for _ in 0..500 {
        let g = bm.fetch(pid, AccessIntent::Read).unwrap();
        if g.tier() == Tier::Dram {
            promoted = true;
            break;
        }
    }
    assert!(
        promoted,
        "a D_r = 0.1 page must be promoted within 500 reads"
    );
}

// ---- hint dirt ------------------------------------------------------------

/// A page whose first word is 41, written down to SSD and resident on NVM
/// clean, in a pool of `nvm_pages` frames under a policy that serves
/// everything where it lies (SSD misses land on NVM). Persistence is
/// tracked, so a simulated crash rolls back what was never persisted.
/// The page is written on NVM, pushed out — which writes it down — and
/// read back in.
fn clean_on_nvm(nvm_pages: usize) -> (BufferManager, PageId) {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(4 * PAGE)
        .nvm_capacity(nvm_pages * (PAGE + 64))
        .policy(MigrationPolicy::new(0.0, 0.0, 1.0, 1.0))
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = BufferManager::new(config).unwrap();
    let pid = bm.allocate_page().unwrap();
    let g = bm.fetch_write(pid).unwrap();
    assert_eq!(g.tier(), Tier::Nvm);
    g.write_u64(0, 41).unwrap();
    drop(g);
    push_out_of_nvm(&bm, |m| m.path(MigrationPath::NvmToSsd) == 1);
    assert_eq!(bm.fetch_read(pid).unwrap().tier(), Tier::Nvm);
    assert_eq!(bm.dirty_pages(), (0, 0));
    (bm, pid)
}

/// Read fresh pages (the policy must load SSD reads into NVM) until
/// `gone` says the page under test left NVM; every page read is clean, so
/// whatever the SSD is written meanwhile is the page under test's. Returns
/// the SSD writes made meanwhile.
fn push_out_of_nvm(bm: &BufferManager, gone: impl Fn(&MetricsSnapshot) -> bool) -> u64 {
    let others: Vec<PageId> = (0..16).map(|_| bm.allocate_page().unwrap()).collect();
    let ssd0 = bm.device_stats(Tier::Ssd).unwrap().snapshot();
    for other in others {
        drop(bm.fetch_read(other).unwrap());
        if gone(&bm.metrics()) {
            let ssd = bm.device_stats(Tier::Ssd).unwrap().snapshot();
            return ssd.delta(&ssd0).write_ops;
        }
    }
    panic!("the page never left NVM");
}

#[test]
fn hint_write_is_lost_with_its_copy_and_costs_no_ssd_write() {
    let (bm, pid) = clean_on_nvm(2);
    let g = bm.fetch_write(pid).unwrap();
    g.write_u64_hint(8, 99).unwrap();
    drop(g);
    // Not a dirty page — but there, for as long as the copy is.
    assert_eq!(bm.dirty_pages(), (0, 0));
    assert_eq!(bm.fetch_read(pid).unwrap().read_u64(8).unwrap(), 99);

    let before = bm.metrics();
    let ssd_writes = push_out_of_nvm(&bm, |m| m.hint_discards > before.hint_discards);
    let d = bm.metrics().delta(&before);
    assert_eq!(ssd_writes, 0, "a hint copy is dropped, not written back");
    assert_eq!(d.hint_discards, 1);
    assert_eq!(d.path(MigrationPath::NvmToSsd), 0);

    // The frame header went with it: a crash finds nothing to adopt, and
    // the page is its SSD image — the data, without the hint.
    bm.simulate_crash();
    assert!(!bm.recover_nvm_buffer().contains(&pid));
    let g = bm.fetch_read(pid).unwrap();
    assert_eq!((g.read_u64(0).unwrap(), g.read_u64(8).unwrap()), (41, 0));
}

#[test]
fn data_write_after_a_hint_restores_the_write_back() {
    let (bm, pid) = clean_on_nvm(2);
    let g = bm.fetch_write(pid).unwrap();
    g.write_u64_hint(8, 99).unwrap();
    g.write_u64(16, 7).unwrap();
    drop(g);
    assert_eq!(bm.dirty_pages(), (0, 1));

    let before = bm.metrics();
    let ssd_writes = push_out_of_nvm(&bm, |m| {
        m.path(MigrationPath::NvmToSsd) > before.path(MigrationPath::NvmToSsd)
    });
    assert_eq!(ssd_writes, 1, "one page image, hint included");
    assert_eq!(bm.metrics().delta(&before).hint_discards, 0);
    bm.simulate_crash();
    assert!(!bm.recover_nvm_buffer().contains(&pid));
    let g = bm.fetch_read(pid).unwrap();
    let words: Vec<u64> = [0, 8, 16].iter().map(|&o| g.read_u64(o).unwrap()).collect();
    assert_eq!(words, [41, 99, 7]);
}

#[test]
fn hint_dirt_moves_to_nvm_like_data_and_never_to_ssd() {
    // One DRAM frame: the next read evicts the hinted DRAM copy. N_r = 0
    // loads SSD reads into DRAM; N_w decides the eviction's destination.
    for nw in [1.0, 0.0] {
        let bm = manager(1, 2, MigrationPolicy::new(1.0, 1.0, 0.0, nw));
        let pid = bm.allocate_page().unwrap();
        drop(bm.fetch_read(pid).unwrap());
        let g = bm.fetch_write(pid).unwrap();
        assert_eq!(g.tier(), Tier::Dram);
        g.write_u64_hint(0, 5).unwrap();
        drop(g);
        // The flushes leave a hint copy alone.
        assert!(!bm.flush_page(pid).unwrap());
        assert_eq!(bm.flush_all_dirty().unwrap(), Default::default());
        assert_eq!(bm.dirty_pages(), (0, 0));

        let other = bm.allocate_page().unwrap();
        let ssd0 = bm.device_stats(Tier::Ssd).unwrap().snapshot();
        let before = bm.metrics();
        drop(bm.fetch_read(other).unwrap());
        let d = bm.metrics().delta(&before);
        assert_eq!(d.evictions_dram, 1);
        if nw == 1.0 {
            // Admitted like a data copy: the hint is on NVM now.
            assert_eq!(d.path(MigrationPath::DramToNvm), 1);
            assert_eq!(d.hint_discards, 0);
            bm.admin()
                .set_policy(MigrationPolicy::new(0.0, 0.0, 1.0, 1.0));
            let before = bm.metrics();
            let ssd = bm.device_stats(Tier::Ssd).unwrap().snapshot();
            assert_eq!(ssd.delta(&ssd0).write_ops, 0);
            let writes = push_out_of_nvm(&bm, |m| m.hint_discards > before.hint_discards);
            assert_eq!(writes, 0);
        } else {
            // The SSD leg of a hint copy is a drop.
            assert_eq!(d.path(MigrationPath::DramToSsd), 0);
            assert_eq!(d.hint_discards, 1);
            let ssd = bm.device_stats(Tier::Ssd).unwrap().snapshot();
            assert_eq!(ssd.delta(&ssd0).write_ops, 0);
        }
        assert_eq!(bm.fetch_read(pid).unwrap().read_u64(0).unwrap(), 0);
        bm.admin()
            .set_policy(MigrationPolicy::new(1.0, 1.0, 0.0, nw));

        // A data write makes the copy the checkpointer's again.
        bm.fetch_write(pid).unwrap().write_u64(8, 6).unwrap();
        assert!(bm.flush_page(pid).unwrap());
        bm.assert_quiescent();
    }
}

/// `manager`, with the policy coins seeded by `seed`.
fn seeded_manager(
    dram_pages: usize,
    nvm_pages: usize,
    policy: MigrationPolicy,
    seed: u64,
) -> BufferManager {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(dram_pages * PAGE)
        .nvm_capacity(nvm_pages * (PAGE + 64))
        .policy(policy)
        .seed(seed)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    BufferManager::new(config).unwrap()
}

#[test]
fn a_pages_coins_ignore_other_pages_draws() {
    // P and three unrelated pages sit on NVM under D_r = 0.5. One manager
    // reads only P; the other reads the unrelated pages (each read of one
    // still on NVM draws a D_r coin) before every read of P. P's coins are
    // its own, so it is promoted at the same read in both, on every seed.
    let promoted_at = |seed: u64, noise: bool| {
        let bm = seeded_manager(8, 8, MigrationPolicy::new(0.0, 0.0, 1.0, 1.0), seed);
        let pages: Vec<PageId> = (0..4).map(|_| bm.allocate_page().unwrap()).collect();
        let (p, others) = (pages[0], &pages[1..]);
        for &pid in &pages {
            assert_eq!(bm.fetch_read(pid).unwrap().tier(), Tier::Nvm);
        }
        bm.admin()
            .set_policy(MigrationPolicy::new(0.5, 0.0, 1.0, 1.0));
        let at = (1..=64)
            .find(|_| {
                if noise {
                    for &q in others {
                        drop(bm.fetch_read(q).unwrap());
                    }
                }
                bm.fetch_read(p).unwrap().tier() == Tier::Dram
            })
            .expect("a fair coin lands heads within 64 flips");
        let noise_promotions = others.iter().filter(|&&q| bm.is_dram_resident(q)).count();
        (at, noise_promotions)
    };
    let mut compared = 0;
    for seed in 1..=8 {
        let (quiet, _) = promoted_at(seed, false);
        let (noisy, promoted) = promoted_at(seed, true);
        assert_eq!(noisy, quiet, "seed {seed}");
        assert!(promoted > 0, "seed {seed}: no unrelated page drew heads");
        // A promotion at the first read compares no shifted coin.
        compared += usize::from(quiet > 1);
    }
    assert!(
        compared > 0,
        "P was promoted at its first read on every seed"
    );
}

#[test]
fn thread_order_does_not_move_any_pages_coins() {
    // Two threads read disjoint halves of 16 pages, one after the other,
    // under coins that every read draws (N_r and D_r strictly between 0
    // and 1). Nothing is evicted, so each page's tier is decided by its
    // own coins alone: the other order, on a fresh manager with the same
    // seed, leaves every page where it was.
    let run = |order: [usize; 2]| {
        let bm = manager(16, 32, MigrationPolicy::new(0.3, 0.0, 0.5, 1.0));
        let pages: Vec<PageId> = (0..16).map(|_| bm.allocate_page().unwrap()).collect();
        let halves = [&pages[..8], &pages[8..]];
        std::thread::scope(|s| {
            for half in order {
                let (bm, half) = (&bm, halves[half]);
                s.spawn(move || {
                    for _ in 0..6 {
                        for &pid in half {
                            drop(bm.fetch_read(pid).unwrap());
                        }
                    }
                })
                .join()
                .unwrap();
            }
        });
        let m = bm.metrics();
        let paths = [
            MigrationPath::SsdToNvm,
            MigrationPath::SsdToDram,
            MigrationPath::NvmToDram,
        ]
        .map(|path| m.path(path));
        let tiers: Vec<bool> = pages.iter().map(|&pid| bm.is_dram_resident(pid)).collect();
        (tiers, paths)
    };
    let (tiers, paths) = run([0, 1]);
    assert_eq!(run([1, 0]), (tiers.clone(), paths));
    assert!(
        paths.iter().all(|&n| n > 0),
        "every coin-driven path is taken: {paths:?}"
    );
    assert!(tiers.contains(&true) && tiers.contains(&false));
}

#[test]
fn upgrade_draws_one_dw_before_a_hint_write_as_before_a_data_write() {
    // D_w = 0.5 draws a real coin; D_r = 0 draws none. Each access is one
    // fetch and one write, and the page is promoted on the access whose
    // D_w coin lands heads. Same seed, same coins: the access that promotes
    // is the same whether the upgraded write is a hint or data, and the
    // same as for a write fetch, which draws exactly one D_w.
    let promoted_at = |access: &dyn Fn(&BufferManager, PageId)| {
        let (bm, pid) = nvm_resident(4, 0.5);
        (1..=64)
            .find(|_| {
                access(&bm, pid);
                bm.metrics().path(MigrationPath::NvmToDram) == 1
            })
            .expect("a fair coin lands heads within 64 flips")
    };
    let hint = promoted_at(&|bm, pid| {
        let w = bm.fetch_read(pid).unwrap().upgrade().unwrap();
        w.write_u64_hint(8, 1).unwrap();
    });
    let data = promoted_at(&|bm, pid| {
        let w = bm.fetch_read(pid).unwrap().upgrade().unwrap();
        w.write_u64(8, 1).unwrap();
    });
    let fetch = promoted_at(&|bm, pid| bm.fetch_write(pid).unwrap().write_u64(8, 1).unwrap());
    assert_eq!((hint, data), (fetch, fetch));
    assert!(
        fetch > 1,
        "the first coin landed heads: nothing was compared"
    );
}
