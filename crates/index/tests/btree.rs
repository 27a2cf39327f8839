//! B+Tree correctness: model comparison, splits, scans, concurrency.

use std::collections::BTreeMap;
use std::sync::Arc;

use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
use spitfire_device::TimeScale;
use spitfire_index::BTree;

/// Tiny pages (512 B → 31-key nodes) force deep trees and many splits.
fn small_page_tree() -> BTree {
    let config = BufferManagerConfig::builder()
        .page_size(512)
        .dram_capacity(64 * 512)
        .nvm_capacity(256 * (512 + 64))
        .policy(MigrationPolicy::lazy())
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    BTree::new(Arc::new(BufferManager::new(config).unwrap())).unwrap()
}

#[test]
fn insert_get_sequential_keys() {
    let t = small_page_tree();
    for k in 0..2000u64 {
        assert_eq!(t.insert(k, k * 10).unwrap(), None);
    }
    for k in 0..2000u64 {
        assert_eq!(t.get(k).unwrap(), Some(k * 10), "key {k}");
    }
    assert_eq!(t.get(2000).unwrap(), None);
    assert!(
        t.height().unwrap() >= 3,
        "2000 keys in 31-key nodes must be deep"
    );
}

#[test]
fn insert_get_reverse_and_random_order() {
    let t = small_page_tree();
    // Reverse order stresses splits at the left edge.
    for k in (0..1000u64).rev() {
        t.insert(k, k + 1).unwrap();
    }
    // Pseudo-random permutation (multiplicative hash) for the second batch.
    for i in 0..1000u64 {
        let k = 1000 + (i.wrapping_mul(2654435761) % 1000);
        t.insert(k, k + 1).unwrap();
    }
    for k in 0..1000u64 {
        assert_eq!(t.get(k).unwrap(), Some(k + 1));
    }
}

#[test]
fn upsert_returns_previous_value() {
    let t = small_page_tree();
    assert_eq!(t.insert(7, 70).unwrap(), None);
    assert_eq!(t.insert(7, 71).unwrap(), Some(70));
    assert_eq!(t.insert(7, 72).unwrap(), Some(71));
    assert_eq!(t.get(7).unwrap(), Some(72));
}

#[test]
fn remove_deletes_and_tolerates_missing() {
    let t = small_page_tree();
    for k in 0..500u64 {
        t.insert(k, k).unwrap();
    }
    for k in (0..500u64).step_by(2) {
        assert_eq!(t.remove(k).unwrap(), Some(k));
    }
    for k in 0..500u64 {
        let expect = if k % 2 == 0 { None } else { Some(k) };
        assert_eq!(t.get(k).unwrap(), expect, "key {k}");
    }
    assert_eq!(t.remove(9999).unwrap(), None);
    assert_eq!(t.remove(0).unwrap(), None, "double remove");
}

#[test]
fn matches_btreemap_model() {
    let t = small_page_tree();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x = 0x243F_6A88_85A3_08D3u64; // deterministic xorshift
    for step in 0..6000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 1500;
        match step % 5 {
            0..=2 => {
                let expected = model.insert(key, step as u64);
                assert_eq!(
                    t.insert(key, step as u64).unwrap(),
                    expected,
                    "insert {key}"
                );
            }
            3 => {
                assert_eq!(t.get(key).unwrap(), model.get(&key).copied(), "get {key}");
            }
            _ => {
                assert_eq!(t.remove(key).unwrap(), model.remove(&key), "remove {key}");
            }
        }
    }
    for (k, v) in &model {
        assert_eq!(t.get(*k).unwrap(), Some(*v));
    }
}

#[test]
fn scan_returns_sorted_ranges() {
    let t = small_page_tree();
    for k in (0..1000u64).step_by(3) {
        t.insert(k, k * 2).unwrap();
    }
    let hits = t.scan_from(300, 10).unwrap();
    assert_eq!(hits.len(), 10);
    assert_eq!(hits[0], (300, 600));
    for w in hits.windows(2) {
        assert!(w[0].0 < w[1].0, "scan must be sorted");
        assert_eq!(w[1].0 - w[0].0, 3);
    }
    // Scan starting between keys begins at the next key.
    let hits = t.scan_from(301, 2).unwrap();
    assert_eq!(hits[0].0, 303);
    // Scan past the end is empty.
    assert!(t.scan_from(10_000, 5).unwrap().is_empty());
    // Scan crossing many leaves.
    let all = t.scan_from(0, 10_000).unwrap();
    assert_eq!(all.len(), 334);
}

#[test]
fn concurrent_inserts_disjoint_ranges() {
    let t = Arc::new(small_page_tree());
    const THREADS: u64 = 8;
    const PER: u64 = 800;
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..PER {
                    let k = tid * PER + i;
                    t.insert(k, k ^ 0xFF).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for k in 0..THREADS * PER {
        assert_eq!(t.get(k).unwrap(), Some(k ^ 0xFF), "key {k}");
    }
    let all = t.scan_from(0, usize::MAX).unwrap();
    assert_eq!(all.len() as u64, THREADS * PER);
}

/// Writers overwrite their own key ranges and grow the tree with fresh
/// keys (so leaves split under the readers) while readers look up keys
/// that are always present; afterwards the whole tree must equal the
/// model the writers kept.
fn readers_and_writers_agree_with_the_model(t: BTree) {
    let t = &t;
    let mut model: BTreeMap<u64, u64> = (0..2000u64).map(|k| (k, 1)).collect();
    for (&k, &v) in &model {
        t.insert(k, v).unwrap();
    }
    let stop = &std::sync::atomic::AtomicBool::new(false);
    let written: Vec<BTreeMap<u64, u64>> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u64)
            .map(|tid| {
                s.spawn(move || {
                    let mut mine = BTreeMap::new();
                    let mut round = 1u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for k in (tid * 1000)..(tid * 1000 + 200) {
                            t.insert(k, round).unwrap();
                            mine.insert(k, round);
                        }
                        // Fresh keys above everyone's range, a few a round.
                        for i in 0..8 {
                            let k = 10_000 + (round * 8 + i) * 2 + tid;
                            assert_eq!(t.insert(k, round).unwrap(), None);
                            mine.insert(k, round);
                        }
                        round += 1;
                    }
                    mine
                })
            })
            .collect();
        let readers: Vec<_> = (0..4u64)
            .map(|_| {
                s.spawn(move || {
                    for k in 0..2000u64 {
                        let v = t.get(k).unwrap();
                        assert!(v.is_some(), "key {k} must always be present");
                    }
                })
            })
            .collect();
        for h in readers {
            h.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for mine in written {
        model.extend(mine);
    }
    let all = t.scan_from(0, usize::MAX).unwrap();
    assert_eq!(all.len(), model.len());
    assert!(all.into_iter().eq(model), "tree diverged from the model");
    t.buffer_manager().assert_quiescent();
}

#[test]
fn concurrent_readers_and_writers() {
    readers_and_writers_agree_with_the_model(small_page_tree());
    // Three tiers a fraction of the tree's size (≈ 150 nodes): nodes are
    // evicted, reloaded and promoted while their latches are held and
    // their versions are being validated, so a latch that did not follow
    // its page would lose an update or let a torn node through.
    let config = BufferManagerConfig::builder()
        .page_size(512)
        .dram_capacity(12 * 512)
        .nvm_capacity(24 * (512 + 64))
        .policy(MigrationPolicy::new(0.2, 0.2, 0.5, 0.5))
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = Arc::new(BufferManager::new(config).unwrap());
    readers_and_writers_agree_with_the_model(BTree::new(Arc::clone(&bm)).unwrap());
    let m = bm.metrics();
    assert!(
        m.migrations.iter().all(|&n| n > 0),
        "every tier move ran under the test: {:?}",
        m.migrations
    );
}

/// The pessimistic insert fetches each level once. A full leaf under a
/// height-2 tree: the optimistic attempt fetches root and leaf, finds the
/// leaf full, and the pessimistic descent fetches root, leaf and the new
/// right sibling — five. (Holding latches apart from nodes, the descent
/// fetched every level a second time as the next parent: seven.)
#[test]
fn pessimistic_insert_fetches_each_level_once() {
    // 28-key nodes, bulk-packed to 25: three leaves under one root.
    let entries: Vec<(u64, u64)> = (0..75u64).map(|k| (k * 10, k)).collect();
    // One key that stays in the split leaf, one that moves to the new one.
    for key in [5, 235] {
        let bm = small_page_bm();
        let t = BTree::bulk_load(Arc::clone(&bm), &entries).unwrap();
        assert_eq!(t.height().unwrap(), 2);
        for k in 1..=3 {
            t.insert(k, 0).unwrap(); // fills the first leaf: 28 of 28
        }
        let before = bm.metrics();
        assert_eq!(t.insert(key, 7).unwrap(), None);
        assert_eq!(bm.metrics().delta(&before).total_requests(), 5, "key {key}");
        assert_eq!(t.height().unwrap(), 2);
        assert_eq!(t.get(key).unwrap(), Some(7));
        assert_eq!(t.scan_from(0, usize::MAX).unwrap().len(), 75 + 3 + 1);
    }
}

#[test]
fn tree_survives_buffer_churn_to_ssd() {
    // Buffers far smaller than the tree: nodes round-trip through SSD.
    let config = BufferManagerConfig::builder()
        .page_size(512)
        .dram_capacity(8 * 512)
        .nvm_capacity(16 * (512 + 64))
        .policy(MigrationPolicy::lazy())
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let t = BTree::new(Arc::new(BufferManager::new(config).unwrap())).unwrap();
    for k in 0..3000u64 {
        t.insert(k, k + 7).unwrap();
    }
    for k in 0..3000u64 {
        assert_eq!(t.get(k).unwrap(), Some(k + 7), "key {k}");
    }
}

#[test]
fn reopen_from_root_page() {
    let config = BufferManagerConfig::builder()
        .page_size(512)
        .dram_capacity(32 * 512)
        .nvm_capacity(64 * (512 + 64))
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = Arc::new(BufferManager::new(config).unwrap());
    let t = BTree::new(Arc::clone(&bm)).unwrap();
    for k in 0..800u64 {
        t.insert(k, k).unwrap();
    }
    let root = t.root_page();
    drop(t);
    let t2 = BTree::open(bm, root);
    for k in 0..800u64 {
        assert_eq!(t2.get(k).unwrap(), Some(k));
    }
}

fn small_page_bm() -> Arc<BufferManager> {
    let config = BufferManagerConfig::builder()
        .page_size(512)
        .dram_capacity(64 * 512)
        .nvm_capacity(256 * (512 + 64))
        .policy(MigrationPolicy::lazy())
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    Arc::new(BufferManager::new(config).unwrap())
}

#[test]
fn bulk_load_matches_model_and_scans() {
    let entries: Vec<(u64, u64)> = (0..5000u64).map(|k| (k * 3, k * 3 + 1)).collect();
    let t = BTree::bulk_load(small_page_bm(), &entries).unwrap();
    for &(k, v) in &entries {
        assert_eq!(t.get(k).unwrap(), Some(v), "key {k}");
    }
    assert_eq!(t.get(1).unwrap(), None);
    assert!(t.height().unwrap() >= 3, "5000 keys in 31-key nodes");
    // Full range scan through the leaf sibling chain.
    let mut got = Vec::new();
    let mut start = 0u64;
    loop {
        let chunk = t.scan_from(start, 700).unwrap();
        let Some(&(last, _)) = chunk.last() else {
            break;
        };
        got.extend_from_slice(&chunk);
        if last == u64::MAX {
            break;
        }
        start = last + 1;
    }
    assert_eq!(got, entries);
}

#[test]
fn bulk_load_edge_sizes() {
    // Empty.
    let t = BTree::bulk_load(small_page_bm(), &[]).unwrap();
    assert_eq!(t.get(0).unwrap(), None);
    assert_eq!(t.insert(5, 50).unwrap(), None);
    assert_eq!(t.get(5).unwrap(), Some(50));
    // Single entry.
    let t = BTree::bulk_load(small_page_bm(), &[(9, 90)]).unwrap();
    assert_eq!(t.get(9).unwrap(), Some(90));
    // Exactly one full leaf plus one spilled key (31-key nodes).
    let entries: Vec<(u64, u64)> = (0..28u64).map(|k| (k, k)).collect();
    let t = BTree::bulk_load(small_page_bm(), &entries).unwrap();
    for &(k, v) in &entries {
        assert_eq!(t.get(k).unwrap(), Some(v));
    }
}

#[test]
fn bulk_loaded_tree_accepts_mutations() {
    let entries: Vec<(u64, u64)> = (0..2000u64).map(|k| (k * 2, k)).collect();
    let t = BTree::bulk_load(small_page_bm(), &entries).unwrap();
    // Insert between the bulk-loaded keys, forcing splits in packed leaves.
    for k in 0..2000u64 {
        assert_eq!(t.insert(k * 2 + 1, k + 1_000_000).unwrap(), None);
    }
    for k in 0..2000u64 {
        assert_eq!(t.get(k * 2).unwrap(), Some(k));
        assert_eq!(t.get(k * 2 + 1).unwrap(), Some(k + 1_000_000));
    }
    // Overwrite and remove still behave.
    assert_eq!(t.insert(0, 77).unwrap(), Some(0));
    assert_eq!(t.remove(2).unwrap(), Some(1));
    assert_eq!(t.get(2).unwrap(), None);
}
