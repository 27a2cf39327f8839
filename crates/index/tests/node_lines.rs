//! Device accesses per index operation, as counts.
//!
//! With `TimeScale::ZERO` and one thread the device counters repeat
//! exactly, so each measurement runs twice and the two must agree: these
//! pin the line-aware node's gain where the clock moves ±15 %.

use std::sync::Arc;

use spitfire_core::{BufferManager, BufferManagerConfig, Tier};
use spitfire_device::{StatsSnapshot, TimeScale};
use spitfire_index::BTree;

const PAGE: usize = 16 * 1024;
/// The `ycsb-ro-cached` table: 5 000 keys inserted in ascending order.
const KEYS: u64 = 5_000;

fn manager(page_size: usize, dram: usize, nvm: usize) -> Arc<BufferManager> {
    let config = BufferManagerConfig::builder()
        .page_size(page_size)
        .dram_capacity(dram)
        .nvm_capacity(nvm)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    Arc::new(BufferManager::new(config).unwrap())
}

/// A tree of `KEYS` ascending inserts held entirely in `tier`.
fn loaded(tier: Tier) -> BTree {
    let bm = match tier {
        Tier::Dram => manager(PAGE, 64 * PAGE, 0),
        _ => manager(PAGE, 0, 64 * PAGE),
    };
    let tree = BTree::new(bm).unwrap();
    for k in 0..KEYS {
        tree.insert(k, k + 1).unwrap();
    }
    assert_eq!(tree.height().unwrap(), 2);
    tree
}

/// What `f` costs on `tier`'s device; measured twice, and both must agree.
fn cost(tree: &BTree, tier: Tier, mut f: impl FnMut()) -> StatsSnapshot {
    let stats = tree.buffer_manager().device_stats(tier).unwrap();
    let mut measure = || {
        let before = stats.snapshot();
        f();
        stats.snapshot().delta(&before)
    };
    let first = measure();
    assert_eq!(measure(), first, "device counts must repeat exactly");
    first
}

/// (mean, worst) device reads of one `get`, over every key.
fn reads_per_get(tree: &BTree, tier: Tier) -> (f64, u64) {
    let mut total = 0;
    let mut worst = 0;
    for k in 0..KEYS {
        let c = cost(tree, tier, || assert_eq!(tree.get(k).unwrap(), Some(k + 1)));
        assert_eq!(c.write_ops, 0);
        total += c.read_ops;
        worst = worst.max(c.read_ops);
    }
    (total as f64 / KEYS as f64, worst)
}

#[test]
fn get_reads_eight_lines_on_dram_and_on_nvm() {
    let dram = reads_per_get(&loaded(Tier::Dram), Tier::Dram);
    println!("reads per get: mean {:.2}, worst {}", dram.0, dram.1);
    // Per-field accessors cost 17.4 here.
    assert!(dram.0 <= 8.5 && dram.1 <= 10, "mean, worst = {dram:?}");
    // The same tree held in NVM: the same accesses, on the other device.
    assert_eq!(reads_per_get(&loaded(Tier::Nvm), Tier::Nvm), dram);
}

#[test]
fn overwrite_costs_the_lookup_plus_one_write() {
    let tree = loaded(Tier::Dram);
    for k in (0..KEYS).step_by(97) {
        let get = cost(&tree, Tier::Dram, || {
            tree.get(k).unwrap();
        });
        // One 16 B entry write: no count change, so no header write and no
        // sample keys read for a hint refresh.
        let put = cost(&tree, Tier::Dram, || {
            assert_eq!(tree.insert(k, k + 1).unwrap(), Some(k + 1));
        });
        assert_eq!((put.read_ops, put.write_ops), (get.read_ops, 1), "key {k}");
        assert_eq!(put.bytes_written, 64);
    }
}

#[test]
fn scan_reads_one_header_and_one_run_per_leaf() {
    let tree = loaded(Tier::Dram);
    // Ascending inserts leave 510-key leaves: a scan of 1 100 entries
    // starting inside the second touches three of them.
    let start = 700;
    let scan = cost(&tree, Tier::Dram, || {
        let run = tree.scan_from(start, 1_100).unwrap();
        assert_eq!(run.len(), 1_100);
        assert_eq!((run[0], run[1_099]), ((700, 701), (1_799, 1_800)));
    });
    // The descent is the lookup's (root, then a searched leaf); the first
    // leaf adds its entries read, each sibling one header and one entries
    // read — no search, no separate count / sibling / tag reads.
    let descent = cost(&tree, Tier::Dram, || {
        tree.get(start).unwrap();
    });
    println!("reads per three-leaf scan: {}", scan.read_ops);
    assert_eq!(scan.read_ops, descent.read_ops + 1 + 2 * 2);
}

/// A 2 MiB page has room for 131 067 entries but the count field is two
/// bytes: uncapped, the 65 536th insert wrapped the count to 0 and dropped
/// every key in the node.
#[test]
fn huge_pages_do_not_wrap_the_count() {
    let page = 2 << 20;
    let tree = BTree::new(manager(page, 8 * page, 0)).unwrap();
    let n = 70_000;
    for k in 0..n {
        tree.insert(k, !k).unwrap();
    }
    for k in 0..n {
        assert_eq!(tree.get(k).unwrap(), Some(!k), "key {k}");
    }
    let all = tree.scan_from(0, usize::MAX).unwrap();
    assert_eq!(all.len() as u64, n);
    assert!(all.iter().zip(0..).all(|(&(k, v), i)| k == i && v == !i));
}
