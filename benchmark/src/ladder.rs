//! The ladder: layers below a public call cannot be spanned from outside,
//! so after the traced operations the harness times each layer's public
//! entry point on its own, bottom to top, over the same store and keys.
//!
//! It runs on the warmed store the traced operations left, but only after
//! the counters are read: its probes move CLOCK bits, draw from the
//! migration policy, allocate a tree of their own and — on a workload that
//! writes — put versions, which the crash check that follows must then find.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use spitfire_core::PageId;
use spitfire_device::{AccessPattern, CostModel, DeviceProfile, TimeScale};
use spitfire_index::BTree;
use spitfire_sync::{crc32, ConcurrentMap, PinWord};
use spitfire_txn::{Database, Session};

use crate::counters::{Counters, DeviceTraffic};
use crate::ops::OpStream;
use crate::oracle::Oracle;
use crate::spec::Metrics;
use crate::stats::{median, Samples};

/// Bytes the fetch rung reads from each page, and the size the DRAM and NVM
/// charge rungs are timed at: one tuple, rounded.
const READ_BYTES: usize = 1024;

/// Puts of the `Session::put` rung; recovery after a traced run redoes them too.
pub const SESSION_PUTS: u64 = 2048;

/// Median times of every rung, in nanoseconds unless named otherwise.
#[derive(Debug, Default, Clone)]
pub struct Ladder {
    pub clock_ns: f64,
    pub page_size: usize,
    pub charge_dram_ns: f64,
    pub charge_nvm_ns: f64,
    pub charge_ssd_ns: f64,
    pub charge_err_pct: f64,
    pub pinword_ns: f64,
    pub crc32_ns_per_kb: f64,
    pub chashmap_get_ns: f64,
    pub fetch_dram_hit_ns: f64,
    pub fetch_nvm_hit_ns: f64,
    pub fetch_miss_ns: f64,
    pub index_get_ns: f64,
    pub index_insert_ns: f64,
    pub index_height: f64,
    pub index_fetches_per_get: f64,
    /// Modelled device time inside one `BTree::get` / `insert`: a node
    /// search reads the page once per probe.
    pub index_get_device_ns: f64,
    pub index_insert_device_ns: f64,
    /// `fetch_read` + an 8 B read + drop on the tree's root: a DRAM hit on
    /// a page that is also in the CPU's cache, as index nodes are.
    pub fetch_hot_ns: f64,
    pub session_get_ns: f64,
    pub session_put_ns: f64,
}

/// Median nanoseconds per call of `f`, timed in batches so that the two
/// clock reads are a small share of what is measured.
pub fn per_call_ns(batches: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0;
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f(i);
                i += 1;
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&per_batch)
}

/// Time of an empty span: two clock reads.
pub fn clock_ns() -> f64 {
    let mut s = Samples::default();
    for _ in 0..20_000 {
        let t = Instant::now();
        s.push(black_box(t).elapsed());
    }
    s.p50()
}

/// Wall time of `CostModel::charge_read` against what the Table 1 profile
/// says it should take: (dram, nvm, ssd, worst relative error in percent).
fn charge_rungs(page_size: usize) -> (f64, f64, f64, f64) {
    let rung = |profile: DeviceProfile, bytes: usize, calls: usize| {
        let model = CostModel::new(profile, TimeScale::REAL);
        let wall = per_call_ns(calls / 8, 8, |_| {
            black_box(model.charge_read(bytes, AccessPattern::Random));
        });
        let modelled = profile.rand_read_latency_ns as f64
            + profile.effective_transfer(bytes) as f64 * 1e9 / profile.rand_read_bw as f64;
        (wall, 100.0 * (wall - modelled).abs() / modelled)
    };
    let (dram, e1) = rung(DeviceProfile::dram(), READ_BYTES, 8000);
    let (nvm, e2) = rung(DeviceProfile::optane_pmm(), READ_BYTES, 8000);
    let (ssd, e3) = rung(DeviceProfile::optane_ssd(), page_size, 800);
    (dram, nvm, ssd, e1.max(e2).max(e3))
}

fn sync_rungs(l: &mut Ladder) {
    let word = PinWord::new();
    word.open(0);
    l.pinword_ns = per_call_ns(200, 256, |_| {
        black_box(word.try_pin());
        word.unpin();
    });

    let block = vec![0xA5u8; 4096];
    l.crc32_ns_per_kb = per_call_ns(200, 16, |_| {
        black_box(crc32(black_box(&block)));
    }) / 4.0;

    let map: ConcurrentMap<u64, u64> = ConcurrentMap::new();
    for k in 0..8192u64 {
        map.insert(k, k);
    }
    l.chashmap_get_ns = per_call_ns(200, 256, |i| {
        black_box(map.get(&((i as u64).wrapping_mul(0x9E37_79B9) % 8192)));
    });
}

/// `fetch_read` + a 1 KB read + drop on the table's data pages, each call
/// timed on its own and classified by which buffer counter it moved.
fn fetch_rungs(
    l: &mut Ladder,
    db: &Database,
    table: u32,
    keys: u64,
    stream: &OpStream,
) -> Result<(), String> {
    let bm = db.buffer_manager();
    let pages: Vec<PageId> = db.table_data_pages(table).map_err(|e| e.to_string())?;
    if pages.is_empty() {
        return Err("table has no data pages".to_string());
    }
    let (mut dram, mut nvm, mut miss) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut buf = [0u8; READ_BYTES];
    let len = READ_BYTES.min(bm.page_size());
    for i in 0..20_000u64 {
        // The stream's keys are spread over the table in key order, so the
        // page popularity the workload saw carries over.
        let key = stream.at(i).key as u64;
        let pid = pages[(key * pages.len() as u64 / keys) as usize];
        let before = bm.metrics();
        let t = Instant::now();
        {
            let guard = bm.fetch_read(pid).map_err(|e| e.to_string())?;
            guard.read(0, &mut buf[..len]).map_err(|e| e.to_string())?;
        }
        let took = t.elapsed();
        black_box(&buf);
        let d = bm.metrics().delta(&before);
        if d.ssd_fetches > 0 {
            miss.push(took);
        } else if d.nvm_hits > 0 {
            nvm.push(took);
        } else if d.dram_hits > 0 {
            dram.push(took);
        }
    }
    // A class with a handful of samples has no median worth reporting.
    let clock = l.clock_ns;
    let p50 = |s: &mut Samples| {
        if s.len() >= 20 {
            (s.p50() - clock).max(0.0)
        } else {
            0.0
        }
    };
    l.fetch_dram_hit_ns = p50(&mut dram);
    l.fetch_nvm_hit_ns = p50(&mut nvm);
    l.fetch_miss_ns = p50(&mut miss);
    Ok(())
}

/// `BTree::get` and an overwriting `BTree::insert` on a tree of the
/// benchmark's own, bulk-loaded with the table's keys on the same manager.
fn index_rungs(l: &mut Ladder, db: &Database, keys: u64, stream: &OpStream) -> Result<(), String> {
    let bm = db.buffer_manager();
    let entries: Vec<(u64, u64)> = (0..keys).map(|k| (k, k)).collect();
    let tree = BTree::bulk_load(Arc::clone(bm), &entries).map_err(|e| e.to_string())?;
    l.index_height = tree.height().map_err(|e| e.to_string())? as f64;
    let key_at = |i: usize| stream.at(i as u64).key as u64;

    // Enough lookups for the lazy policy to promote the nodes the keys
    // touch, as the workload's own lookups did for the table's index.
    let warm = 100_000;
    for i in 0..warm {
        tree.get(key_at(i)).map_err(|e| e.to_string())?;
    }
    let mut failed = None;
    let root = tree.root_page();
    l.fetch_hot_ns = per_call_ns(200, 64, |_| match bm.fetch_read(root) {
        Ok(guard) => {
            black_box(guard.read_u64(0).ok());
        }
        Err(e) => failed = Some(e.to_string()),
    });

    let before = DeviceTraffic::read(bm);
    let fetches_before = bm.metrics();
    let calls = 200.0 * 64.0;
    l.index_get_ns = per_call_ns(200, 64, |i| match tree.get(key_at(i)) {
        Ok(v) => {
            black_box(v);
        }
        Err(e) => failed = Some(e.to_string()),
    });
    let after_gets = DeviceTraffic::read(bm);
    l.index_fetches_per_get = bm.metrics().delta(&fetches_before).total_requests() as f64 / calls;
    l.index_get_device_ns = after_gets.since(&before).busy_ns_total() / calls;

    let calls = 100.0 * 64.0;
    l.index_insert_ns = per_call_ns(100, 64, |i| {
        let k = key_at(i);
        if let Err(e) = tree.insert(k, k) {
            failed = Some(e.to_string());
        }
    });
    l.index_insert_device_ns = DeviceTraffic::read(bm).since(&after_gets).busy_ns_total() / calls;
    failed.map_or(Ok(()), Err)
}

/// `Session::get` and `Session::put` in autocommit mode, the calls the
/// server makes for a GET and a PUT. Puts go through `oracle` like any
/// acknowledged write; without one the workload is read-only, the rung is
/// skipped and reads 0.
fn session_rungs(
    l: &mut Ladder,
    db: &Arc<Database>,
    table: u32,
    stream: &OpStream,
    make_tuple: &dyn Fn(u32, u8) -> Vec<u8>,
    oracle: Option<&mut Oracle>,
) -> Result<(), String> {
    let mut session = Session::new(Arc::clone(db));
    let mut failed = None;
    l.session_get_ns = per_call_ns(200, 32, |i| {
        match session.get(table, stream.at(i as u64).key as u64) {
            Ok(v) => {
                black_box(v);
            }
            Err(e) => failed = Some(e.to_string()),
        }
    });
    if let Some(oracle) = oracle {
        let puts: Vec<(crate::ops::Op, Vec<u8>)> = (0..SESSION_PUTS)
            .map(|i| stream.at(i))
            .map(|op| (op, make_tuple(op.key, op.byte)))
            .collect();
        l.session_put_ns = per_call_ns(SESSION_PUTS as usize / 32, 32, |i| {
            let (op, tuple) = &puts[i];
            match session.put(table, op.key as u64, tuple) {
                Ok(()) => oracle.acknowledge(op.key, op.byte),
                Err(e) => failed = Some(e.to_string()),
            }
        });
    }
    failed.map_or(Ok(()), Err)
}

/// Climb every rung over `db`. `make_tuple` builds a valid tuple of the
/// table for a key and a payload byte.
pub fn climb(
    db: &Arc<Database>,
    table: u32,
    keys: u64,
    stream: &OpStream,
    make_tuple: &dyn Fn(u32, u8) -> Vec<u8>,
    oracle: Option<&mut Oracle>,
) -> Result<Ladder, String> {
    let mut l = Ladder {
        clock_ns: clock_ns(),
        ..Ladder::default()
    };
    l.page_size = db.buffer_manager().page_size();
    (
        l.charge_dram_ns,
        l.charge_nvm_ns,
        l.charge_ssd_ns,
        l.charge_err_pct,
    ) = charge_rungs(l.page_size);
    sync_rungs(&mut l);
    db.set_time_scale(TimeScale::REAL);
    fetch_rungs(&mut l, db, table, keys, stream)?;
    index_rungs(&mut l, db, keys, stream)?;
    session_rungs(&mut l, db, table, stream, make_tuple, oracle)?;
    db.set_time_scale(TimeScale::ZERO);
    Ok(l)
}

/// Report every rung under its layer's name.
pub fn put_rung_metrics(m: &mut Metrics, l: &Ladder) {
    m.put("harness.clock_ns", l.clock_ns);
    m.put("device.charge_dram_ns", l.charge_dram_ns);
    m.put("device.charge_nvm_ns", l.charge_nvm_ns);
    m.put("device.charge_ssd_ns", l.charge_ssd_ns);
    m.put("device.charge_err_pct", l.charge_err_pct);
    m.put("sync.pinword_ns", l.pinword_ns);
    m.put("sync.crc32_ns_per_kb", l.crc32_ns_per_kb);
    m.put("sync.chashmap_get_ns", l.chashmap_get_ns);
    m.put("core.fetch_dram_hit_ns", l.fetch_dram_hit_ns);
    m.put("core.fetch_nvm_hit_ns", l.fetch_nvm_hit_ns);
    m.put("core.fetch_miss_ns", l.fetch_miss_ns);
    m.put("index.get_ns", l.index_get_ns);
    m.put("index.insert_ns", l.index_insert_ns);
    m.put("index.height", l.index_height);
    m.put("index.fetches_per_get", l.index_fetches_per_get);
    m.put("txn.session_get_ns", l.session_get_ns);
    m.put("txn.session_put_ns", l.session_put_ns);
}

/// What the ledger needs beside the rungs: mean times from the spans and
/// the measured phase's counts.
#[derive(Debug)]
pub struct LedgerInput<'a> {
    /// Mean time per op in the harness itself: the op span's self time,
    /// plus the wire codec on `server-kv`.
    pub harness_ns: f64,
    /// Mean time per op between the client's send and the database call
    /// that serves it; 0 for the in-process workloads.
    pub server_ns: f64,
    /// Mean time per op inside the topmost database calls (begin, read or
    /// update, commit; or the `Session` call on `server-kv`).
    pub upper_ns: f64,
    pub update_share: f64,
    /// Mean latency of the untraced ops of the same run.
    pub lat_mean_ns: f64,
    /// Modelled device time per op of the traffic the ops themselves
    /// caused (maintenance calls taken out where the harness makes them).
    pub device_ns: f64,
    pub delta: &'a Counters,
    pub ops: f64,
}

/// Mean self time per operation, layer by layer. Means, because they add
/// up where medians do not: an op that misses costs ten times the median.
///
/// The device layer is the time the Table 1 profiles charge for the
/// counted traffic. A rung's self time is its median minus the modelled
/// device time of the reads it made and minus the rungs beneath it,
/// weighted by the counted calls. `txn` is what is left of its calls once
/// index, core and device are taken out; a difference of times taken at
/// different moments on a host whose speed drifts, it can be off by a few
/// hundred ns either way. The residual is how far the layers' sum lands
/// from the mean latency of the untraced ops: tracing overhead, mostly.
pub fn put_ledger(m: &mut Metrics, l: &Ladder, i: &LedgerInput<'_>) {
    let b = &i.delta.bm;
    let per_op = |n: u64| n as f64 / i.ops;
    // A fetch rung is the fetch plus one read of READ_BYTES; a miss also
    // reads the page from SSD.
    let modelled = |p: DeviceProfile, bytes: usize| {
        p.rand_read_latency_ns as f64 + bytes as f64 * 1e9 / p.rand_read_bw as f64
    };
    let dram_read = modelled(DeviceProfile::dram(), READ_BYTES);
    let nvm_read = modelled(DeviceProfile::optane_pmm(), READ_BYTES);
    let page_read = modelled(DeviceProfile::optane_ssd(), l.page_size);
    let core = per_op(b.dram_hits) * (l.fetch_dram_hit_ns - dram_read).max(0.0)
        + per_op(b.nvm_hits) * (l.fetch_nvm_hit_ns - nvm_read).max(0.0)
        + per_op(b.ssd_fetches) * (l.fetch_miss_ns - page_read - dram_read).max(0.0);
    // One index lookup per op, and one index insert per update; their
    // node fetches are hits on hot pages.
    let hot_fetch = (l.fetch_hot_ns - modelled(DeviceProfile::dram(), 8)).max(0.0);
    let descent = l.index_fetches_per_get * hot_fetch;
    let index = (l.index_get_ns - l.index_get_device_ns - descent).max(0.0)
        + i.update_share * (l.index_insert_ns - l.index_insert_device_ns - descent).max(0.0);
    let txn = i.upper_ns - index - core - i.device_ns;
    m.put("ledger.harness_ns", i.harness_ns);
    m.put("ledger.server_ns", i.server_ns);
    m.put("ledger.txn_ns", txn);
    m.put("ledger.index_ns", index);
    m.put("ledger.core_ns", core);
    m.put("ledger.device_ns", i.device_ns);
    let sum = i.harness_ns + i.server_ns + i.upper_ns;
    m.put(
        "ledger.residual_pct",
        100.0 * (sum - i.lat_mean_ns) / i.lat_mean_ns,
    );
}
