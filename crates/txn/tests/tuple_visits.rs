//! What a tuple access costs, as counts: fetches, charged device accesses
//! and policy decisions per `read_into` / update + commit / vacuum, plus the
//! error paths of a visit. Device delays are off and there is one thread,
//! so every count repeats exactly; each measurement is taken on two fresh
//! databases and must come out the same.
//!
//! The fixtures keep the table's data page and the index on *different*
//! tiers under a policy that moves nothing (D_r = D_w = 0), so one device's
//! counters and one hit counter see the table's accesses alone.

use std::sync::Arc;

use spitfire_core::{
    BufferManager, BufferManagerConfig, MetricsSnapshot, MigrationPath, MigrationPolicy, PageId,
    Tier,
};
use spitfire_device::{
    DeviceKind, FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule, StatsSnapshot, TimeScale,
    Trigger,
};
use spitfire_txn::{Database, DbConfig, Table, TxnError, VersionHeader, NO_RID};

const PAGE: usize = 4096;
const T: u32 = 1;
const TUPLE: usize = 100;
const KEY: u64 = 7;

/// Serve everything where it lies: no promotion on either intent, SSD
/// misses land on NVM.
fn stay() -> MigrationPolicy {
    MigrationPolicy::new(0.0, 0.0, 1.0, 1.0)
}

fn database(dram_pages: usize, policy: MigrationPolicy) -> Database {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(dram_pages * PAGE)
        .nvm_capacity(64 * (PAGE + 64))
        .policy(policy)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let db = Database::create(
        Arc::new(BufferManager::new(config).unwrap()),
        DbConfig::default(),
    )
    .unwrap();
    db.create_table(T, TUPLE).unwrap();
    db
}

fn put(db: &Database, key: u64, byte: u8) {
    let mut t = db.begin();
    let payload = [byte; TUPLE];
    match db.update(&mut t, T, key, &payload) {
        Ok(()) => {}
        Err(TxnError::NotFound) => db.insert(&mut t, T, key, &payload).unwrap(),
        Err(e) => panic!("{e}"),
    }
    db.commit(&mut t).unwrap();
}

/// Index in DRAM (created under an eager policy), `KEY`'s data page in NVM
/// (first touched with write intent under D_w = 0).
fn data_in_nvm() -> Database {
    let db = database(32, MigrationPolicy::eager());
    db.buffer_manager().admin().set_policy(stay());
    put(&db, KEY, 1);
    let page = db.table_data_pages(T).unwrap()[0];
    assert!(!db.buffer_manager().is_dram_resident(page));
    db
}

/// Index in NVM (created under D_w = 0), `KEY`'s data page promoted to DRAM
/// by one direct read under D_r = 1.
fn data_in_dram() -> Database {
    let db = database(32, stay());
    put(&db, KEY, 1);
    let bm = db.buffer_manager();
    let page = db.table_data_pages(T).unwrap()[0];
    bm.admin()
        .set_policy(MigrationPolicy::new(1.0, 0.0, 1.0, 1.0));
    drop(bm.fetch_read(page).unwrap());
    bm.admin().set_policy(stay());
    assert!(bm.is_dram_resident(page));
    db
}

#[derive(Debug, PartialEq, Eq)]
struct Cost {
    bm: MetricsSnapshot,
    dram: StatsSnapshot,
    nvm: StatsSnapshot,
}

impl Cost {
    fn of(db: &Database, op: impl FnOnce()) -> Cost {
        let bm = db.buffer_manager();
        let stats = |tier| {
            bm.device_stats(tier)
                .map(|s| s.snapshot())
                .unwrap_or_default()
        };
        let before = (bm.metrics(), stats(Tier::Dram), stats(Tier::Nvm));
        op();
        Cost {
            bm: bm.metrics().delta(&before.0),
            dram: stats(Tier::Dram).delta(&before.1),
            nvm: stats(Tier::Nvm).delta(&before.2),
        }
    }
}

/// The same measurement on two fresh databases.
fn twice(measure: impl Fn() -> Cost) -> Cost {
    let first = measure();
    assert_eq!(first, measure(), "counts must repeat exactly");
    first
}

fn read_key(db: &Database) {
    let t = db.begin();
    let mut buf = [0u8; TUPLE];
    db.read_into(&t, T, KEY, &mut buf).unwrap();
    assert_eq!(buf, [1u8; TUPLE]);
}

#[test]
fn dram_resident_read_is_one_fetch_one_read_one_write() {
    let cost = twice(|| {
        let db = data_in_dram();
        Cost::of(&db, || read_key(&db))
    });
    // The index lives in NVM, so every DRAM count is the data page's.
    assert_eq!(cost.bm.dram_hits, 1, "one pinned visit");
    assert_eq!(
        (cost.dram.read_ops, cost.dram.write_ops),
        (1, 1),
        "header + payload in one read, read_ts in one write"
    );
    assert_eq!(cost.dram.bytes_written, 64, "the stamp is one line");
    assert_eq!(cost.bm.total_requests(), cost.bm.nvm_hits + 1);
    assert_eq!(cost.nvm.write_ops, 0);
    assert_eq!(cost.bm.fetch_fallbacks, 0);
}

#[test]
fn update_and_commit_are_six_table_fetches_and_six_accesses() {
    let cost = twice(|| {
        let db = data_in_nvm();
        Cost::of(&db, || put(&db, KEY, 2))
    });
    // Index in DRAM: NVM hits and NVM device ops are the table's alone.
    // update: read visit, insert, `end` marker; commit: validate, two stamps.
    assert_eq!(cost.bm.nvm_hits, 6);
    assert_eq!(cost.nvm.read_ops + cost.nvm.write_ops, 6);
    assert_eq!((cost.nvm.read_ops, cost.nvm.write_ops), (2, 4));
    assert_eq!(cost.bm.path(MigrationPath::NvmToDram), 0);
}

/// An update descends the index once: the lookup returns where the key's
/// entry sits and the new rid is written there, so it fetches the index
/// `height + 1` times (it used to be `2 × height`: a lookup, then an
/// insert that descended again). Everything is DRAM-resident here; the
/// update's 3 table fetches are those counted above.
#[test]
fn an_update_descends_the_index_once() {
    for (keys, height) in [(1, 1), (600, 2)] {
        let cost = twice(|| {
            let db = database(64, MigrationPolicy::eager());
            let mut t = db.begin();
            for key in 0..keys {
                db.insert(&mut t, T, key, &[1; TUPLE]).unwrap();
            }
            db.commit(&mut t).unwrap();
            let mut t = db.begin();
            let cost = Cost::of(&db, || db.update(&mut t, T, 0, &[2; TUPLE]).unwrap());
            db.abort(&mut t).unwrap();
            cost
        });
        assert_eq!(cost.bm.total_requests(), 3 + height + 1, "{keys} keys");
        assert_eq!(cost.bm.dram_hits, cost.bm.total_requests());
    }
}

/// The log's share of an update and its commit: one persist per record,
/// the frame itself — no cursor word moves on NVM.
#[test]
fn an_update_and_its_commit_cost_the_log_two_nvm_writes_and_two_fences() {
    let db = data_in_nvm();
    let before = db.wal().nvm_stats().snapshot();
    put(&db, KEY, 2);
    let log = db.wal().nvm_stats().snapshot().delta(&before);
    assert_eq!((log.write_ops, log.fences), (2, 2));
}

#[test]
fn stamp_on_nvm_draws_dw_before_it_lands() {
    // D_w = 1: the upgrade promotes first, the stamp lands on DRAM and NVM
    // is never written.
    let heads = twice(|| {
        let db = data_in_nvm();
        db.buffer_manager()
            .admin()
            .set_policy(MigrationPolicy::new(0.0, 1.0, 1.0, 1.0));
        let cost = Cost::of(&db, || read_key(&db));
        let page = db.table_data_pages(T).unwrap()[0];
        assert!(db.buffer_manager().is_dram_resident(page));
        cost
    });
    assert_eq!(
        heads.bm.nvm_hits, 1,
        "the read visit itself is served in place"
    );
    assert_eq!(heads.bm.path(MigrationPath::NvmToDram), 1);
    assert_eq!(heads.nvm.write_ops, 0);
    assert_eq!(heads.nvm.bytes_flushed, 0);

    // D_w = 0: one 8-byte write in place, one flushed line, no promotion,
    // and the pin taken for the read is the pin written through.
    let tails = twice(|| {
        let db = data_in_nvm();
        Cost::of(&db, || read_key(&db))
    });
    assert_eq!(tails.bm.nvm_hits, 1);
    assert_eq!(tails.bm.fetch_fallbacks, 0);
    assert_eq!(tails.bm.path(MigrationPath::NvmToDram), 0);
    assert_eq!((tails.nvm.read_ops, tails.nvm.write_ops), (1, 1));
    assert_eq!(tails.nvm.bytes_written, 256, "8 bytes cost one media block");
    assert_eq!((tails.nvm.bytes_flushed, tails.nvm.fences), (64, 1));
    assert_eq!(tails.dram.write_ops, 0);
}

#[test]
fn nvm_ssd_hierarchy_draws_no_coin() {
    // No DRAM tier: even D_w = 1 has nowhere to promote to, so the upgrade
    // must not leave the fast path.
    let measure = |key: u64| {
        twice(|| {
            let db = database(0, MigrationPolicy::eager());
            put(&db, KEY, 1);
            Cost::of(&db, || {
                let t = db.begin();
                let mut buf = [0u8; TUPLE];
                match db.read_into(&t, T, key, &mut buf) {
                    Ok(()) => assert_eq!(key, KEY),
                    Err(e) => assert_eq!((key, e), (KEY + 1, TxnError::NotFound)),
                }
            })
        })
    };
    let index_only = measure(KEY + 1);
    let read = measure(KEY);
    assert_eq!(read.bm.total_requests(), index_only.bm.total_requests() + 1);
    assert_eq!(read.bm.fetch_fallbacks, 0);
    assert_eq!(read.bm.fetch_fast, read.bm.total_requests());
    assert_eq!(read.nvm.write_ops, 1);
}

#[test]
fn vacuum_frees_each_version_in_one_write_visit() {
    let cost = twice(|| {
        let db = data_in_nvm();
        for byte in 2..=4 {
            put(&db, KEY, byte);
        }
        Cost::of(&db, || assert_eq!(db.vacuum().unwrap().freed, 3))
    });
    // Walk to the keeper (the head), cut its `prev`, then one write visit
    // per freed version: read `prev`, zero the header.
    assert_eq!(cost.bm.nvm_hits, 1 + 1 + 3);
    assert_eq!((cost.nvm.read_ops, cost.nvm.write_ops), (1 + 3, 1 + 3));
}

#[test]
fn vacuum_visits_only_chains_in_debt_and_no_index_page() {
    const VERSIONS: u64 = 3; // superseded, per key in debt
    let in_debt = [2, 5, 6];
    let load = || {
        let db = data_in_nvm(); // holds KEY
        for key in 0..KEY {
            put(&db, key, 1);
        }
        for byte in 0..VERSIONS as u8 {
            for key in in_debt {
                put(&db, key, 2 + byte);
            }
        }
        db
    };
    let cost = twice(|| {
        let db = load();
        Cost::of(&db, || {
            let stats = db.vacuum().unwrap();
            assert_eq!((stats.chains, stats.freed), (3, 3 * VERSIONS as usize));
        })
    });
    // Index in DRAM: a DRAM hit would be an index page. Per key in debt
    // the walk finds the keeper at the recorded rid, cuts it, and frees.
    assert_eq!(cost.bm.dram_hits, 0, "vacuum fetched an index page");
    assert_eq!(cost.bm.nvm_hits, 3 * (1 + 1 + VERSIONS));
    assert_eq!(cost.bm.total_requests(), cost.bm.nvm_hits);

    let again = twice(|| {
        let db = load();
        db.vacuum().unwrap();
        Cost::of(&db, || assert_eq!(db.vacuum().unwrap().chains, 0))
    });
    assert_eq!(
        again.bm.total_requests(),
        0,
        "nothing in debt, nothing read"
    );
    assert_eq!(again.nvm.read_ops + again.dram.read_ops, 0);
}

#[test]
fn debt_held_back_by_a_reader_is_collected_once_it_ends() {
    let db = data_in_nvm();
    put(&db, KEY, 2);
    let mut reader = db.begin(); // sees 2: keeps it and everything newer
    put(&db, KEY, 3);

    // Chain 3 → 2 → 1 with the watermark between 2 and 3: version 1 goes,
    // and the key stays in debt because 2 is still below its newest.
    let held = Cost::of(&db, || assert_eq!(db.vacuum().unwrap().freed, 1));
    assert_eq!(held.bm.nvm_hits, 2 + 1 + 1, "walk past 3, cut at 2, free 1");
    let mut buf = [0u8; TUPLE];
    db.read_into(&reader, T, KEY, &mut buf).unwrap();
    assert_eq!(buf, [2u8; TUPLE]);
    db.commit(&mut reader).unwrap();

    // No commit touched the key since: the entry alone brings vacuum back.
    let after = Cost::of(&db, || {
        let stats = db.vacuum().unwrap();
        assert_eq!((stats.chains, stats.freed), (1, 1));
    });
    assert_eq!(after.bm.nvm_hits, 1 + 1 + 1);
    assert_eq!(after.bm.dram_hits, 0);
    let settled = Cost::of(&db, || assert_eq!(db.vacuum().unwrap().chains, 0));
    assert_eq!(settled.bm.total_requests(), 0);
}

#[test]
fn wrong_sized_buffer_fails_before_anything_is_touched() {
    let db = data_in_nvm();
    let mut writer = db.begin();
    let reader = db.begin(); // younger than the writer
    let cost = Cost::of(&db, || {
        let mut small = [0u8; TUPLE - 1];
        assert_eq!(
            db.read_into(&reader, T, KEY, &mut small),
            Err(TxnError::BadTupleSize {
                expected: TUPLE,
                got: TUPLE - 1
            })
        );
    });
    assert_eq!(
        cost.bm.total_requests(),
        0,
        "validated before the first fetch"
    );
    assert_eq!((cost.nvm.write_ops, cost.dram.write_ops), (0, 0));
    assert_eq!(cost.nvm.bytes_flushed, 0);
    // The failed read left no read timestamp behind: the older writer is
    // still in timestamp order.
    db.update(&mut writer, T, KEY, &[9u8; TUPLE]).unwrap();
    db.commit(&mut writer).unwrap();
}

fn header(begin: u64) -> VersionHeader {
    VersionHeader {
        begin,
        end: u64::MAX,
        read_ts: 0,
        prev: NO_RID,
        key: KEY,
    }
}

fn fail_writes_on(bm: &BufferManager, device: DeviceKind) {
    let rule = FaultRule::any(Trigger::Always, FaultKind::Fatal)
        .on_device(device)
        .on_op(FaultOp::Write);
    let plan = FaultPlan::new(1).rule(rule);
    bm.admin()
        .set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
}

#[test]
fn failed_insert_returns_its_slot() {
    let db = database(32, MigrationPolicy::eager());
    let bm = Arc::clone(db.buffer_manager());
    let table = Table::create(Arc::clone(&bm), 9, TUPLE);

    // The table cannot grow: the fresh slot must not be lost with the page.
    fail_writes_on(&bm, DeviceKind::Ssd);
    assert!(table.insert_version(header(5), &[1u8; TUPLE]).is_err());
    assert_eq!((table.recycled_slots(), table.data_pages().len()), (1, 0));
    bm.admin().set_fault_injector(None);
    assert_eq!(table.insert_version(header(5), &[1u8; TUPLE]), Ok(0));
    assert_eq!(table.recycled_slots(), 0);

    // The version write fails: nothing of it is on the page (no marker
    // header for vacuum to trip over) and the slot is handed out again,
    // whether it was fresh or recycled.
    fail_writes_on(&bm, DeviceKind::Dram);
    for _ in 0..2 {
        assert!(table.insert_version(header(6), &[2u8; TUPLE]).is_err());
        assert_eq!((table.recycled_slots(), table.allocated_slots()), (1, 2));
    }
    bm.admin().set_fault_injector(None);
    assert_eq!(table.read_visit(1).unwrap().header().unwrap().begin, 0);
    assert_eq!(table.insert_version(header(6), &[2u8; TUPLE]), Ok(1));
    let mut buf = [0u8; TUPLE];
    assert_eq!(
        table.read_visit(1).unwrap().version(&mut buf).unwrap(),
        header(6)
    );
    assert_eq!(buf, [2u8; TUPLE]);
}

// ---- which read stamps are hints --------------------------------------

/// NVM frames of the [`tiny`] stack: a handful of reads cycles them.
const TINY_NVM: usize = 4;

/// A three-tier stack whose NVM pool is [`TINY_NVM`] frames. The index
/// lives in DRAM (created under an eager policy), the table on NVM under
/// [`stay`]: `KEY` on data page 0, and enough keys behind it for
/// `2 * TINY_NVM` more data pages to push page 0 out of NVM with. Every
/// NVM copy is clean when this returns — the data pages are cycled through
/// the pool until each copy in it was loaded from SSD. Also returns those
/// other pages.
fn tiny() -> (Database, Vec<PageId>) {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(32 * PAGE)
        .nvm_capacity(TINY_NVM * (PAGE + 64))
        .policy(MigrationPolicy::eager())
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = Arc::new(BufferManager::new(config).unwrap());
    let db = Database::create(Arc::clone(&bm), DbConfig::default()).unwrap();
    db.create_table(T, TUPLE).unwrap();
    bm.admin().set_policy(stay());
    let per_page = (PAGE / (TUPLE + spitfire_txn::VERSION_HEADER)) as u64;
    for key in 0..per_page * (2 * TINY_NVM as u64 + 1) {
        put(&db, key, 1);
    }
    let pages = db.table_data_pages(T).unwrap();
    assert!(pages.len() > 2 * TINY_NVM);
    for &page in pages.iter().cycle().take(2 * pages.len()) {
        drop(bm.fetch_read(page).unwrap());
    }
    assert_eq!(bm.dirty_pages().1, 0);
    (db, pages[1..].to_vec())
}

/// Read `others` straight through the buffer manager — no stamps, nothing
/// dirtied — until `gone` says page 0 left NVM. Returns the SSD writes
/// made meanwhile: page 0's trip down, if it had one.
fn push_out(db: &Database, others: &[PageId], gone: impl Fn(&MetricsSnapshot) -> bool) -> u64 {
    let bm = db.buffer_manager();
    let ssd0 = bm.device_stats(Tier::Ssd).unwrap().snapshot();
    for &page in others.iter().cycle().take(4 * others.len()) {
        drop(bm.fetch_read(page).unwrap());
        if gone(&bm.metrics()) {
            let ssd = bm.device_stats(Tier::Ssd).unwrap().snapshot();
            return ssd.delta(&ssd0).write_ops;
        }
    }
    panic!("page 0 never left NVM");
}

#[test]
fn sole_readers_stamp_is_a_hint_and_never_reaches_the_ssd() {
    let (db, others) = tiny();
    let bm = db.buffer_manager();

    // The only transaction, so the oldest: its stamp may be lost.
    let mut reader = db.begin();
    let mut buf = [0u8; TUPLE];
    db.read_into(&reader, T, KEY, &mut buf).unwrap();
    db.commit(&mut reader).unwrap();
    assert_eq!(bm.dirty_pages().1, 0, "a hint stamp is no data dirt");

    let before = bm.metrics();
    let writes = push_out(&db, &others, |m| m.hint_discards > before.hint_discards);
    assert_eq!(writes, 0, "page 0 left NVM without a write-back");
    let d = bm.metrics().delta(&before);
    assert_eq!((d.hint_discards, d.path(MigrationPath::NvmToSsd)), (1, 0));

    // Nobody could have needed it: the next writer is younger anyway.
    put(&db, KEY, 2);
}

#[test]
fn stamp_under_an_older_transaction_is_data_and_still_refuses_it() {
    let (db, others) = tiny();
    let bm = db.buffer_manager();

    let mut older = db.begin();
    let mut reader = db.begin();
    let mut buf = [0u8; TUPLE];
    db.read_into(&reader, T, KEY, &mut buf).unwrap();
    db.commit(&mut reader).unwrap();
    assert_eq!(bm.dirty_pages().1, 1, "page 0 holds a data stamp");

    let before = bm.metrics();
    let writes = push_out(&db, &others, |m| {
        m.path(MigrationPath::NvmToSsd) > before.path(MigrationPath::NvmToSsd)
    });
    assert_eq!(writes, 1, "page 0 was written back with its stamp");
    assert_eq!(bm.metrics().delta(&before).hint_discards, 0);

    // Page 0 comes back from SSD with the younger reader's stamp on it, and
    // MVTO refuses the older transaction's write.
    let fetched = bm.metrics().ssd_fetches;
    assert_eq!(
        db.update(&mut older, T, KEY, &[9u8; TUPLE]),
        Err(TxnError::Conflict)
    );
    assert!(bm.metrics().ssd_fetches > fetched, "page 0 was reloaded");
    db.abort(&mut older).unwrap();
}
