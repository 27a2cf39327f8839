//! Property tests for tuple visits: a field stamp touches its field only,
//! and the database behind the visits is still MVTO — checked against an
//! in-memory model that is the reference for values and for
//! `Conflict` / `NotFound` / `Duplicate` outcomes.

use std::sync::Arc;

use proptest::prelude::*;
use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
use spitfire_device::{PersistenceTracking, TimeScale};
use spitfire_txn::{
    Database, DbConfig, Field, Table, Transaction, TxnError, VacuumStats, VersionHeader,
};

const T: u32 = 1;
const TUPLE: usize = 64;
const KEYS: usize = 4;
const INF: u64 = u64::MAX;

fn buffer_manager(page: usize) -> Arc<BufferManager> {
    let config = BufferManagerConfig::builder()
        .page_size(page)
        .dram_capacity(8 * page)
        .nvm_capacity(64 * (page + 64))
        .policy(MigrationPolicy::lazy())
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    Arc::new(BufferManager::new(config).unwrap())
}

// ---- the model --------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Version {
    begin: u64,
    end: u64,
    read_ts: u64,
    val: u8,
}

/// One key: its committed versions, oldest first, and at most one
/// uncommitted version `(writer id, value)` on top.
#[derive(Debug, Default)]
struct Chain {
    committed: Vec<Version>,
    pending: Option<(u64, u8)>,
}

#[derive(Debug, Default)]
struct Model {
    keys: [Chain; KEYS],
    /// Versions written by transactions that aborted or died in a crash:
    /// each one's slot is retired like a vacuumed version's.
    aborted: usize,
}

/// The model's half of a transaction: identity copied from the database's
/// handle, and the keys it has a pending version on.
#[derive(Debug)]
struct ModelTxn {
    id: u64,
    ts: u64,
    writes: Vec<usize>,
}

impl Model {
    fn read(&mut self, t: &ModelTxn, k: usize) -> Result<u8, TxnError> {
        let chain = &mut self.keys[k];
        if let Some((_, val)) = chain.pending.filter(|&(id, _)| id == t.id) {
            return Ok(val);
        }
        let seen = chain.committed.iter_mut().rev();
        let version = seen
            .into_iter()
            .find(|v| v.begin <= t.ts && t.ts < v.end)
            .ok_or(TxnError::NotFound)?;
        version.read_ts = version.read_ts.max(t.ts);
        Ok(version.val)
    }

    fn update(&mut self, t: &mut ModelTxn, k: usize, val: u8) -> Result<(), TxnError> {
        let chain = &mut self.keys[k];
        match chain.pending {
            Some((id, _)) if id != t.id => return Err(TxnError::Conflict),
            Some(_) => {}
            None => {
                let head = chain.committed.last().ok_or(TxnError::NotFound)?;
                if head.begin > t.ts || head.read_ts > t.ts {
                    return Err(TxnError::Conflict);
                }
                t.writes.push(k);
            }
        }
        chain.pending = Some((t.id, val));
        Ok(())
    }

    fn insert(&mut self, t: &mut ModelTxn, k: usize, val: u8) -> Result<(), TxnError> {
        let chain = &mut self.keys[k];
        if chain.pending.is_some() || !chain.committed.is_empty() {
            return Err(TxnError::Duplicate);
        }
        chain.pending = Some((t.id, val));
        t.writes.push(k);
        Ok(())
    }

    fn commit(&mut self, t: ModelTxn) -> Result<(), TxnError> {
        let read_later = |k: &usize| {
            self.keys[*k]
                .committed
                .last()
                .is_some_and(|v| v.read_ts > t.ts)
        };
        if t.writes.iter().any(read_later) {
            self.abort(t);
            return Err(TxnError::Conflict);
        }
        for k in t.writes {
            let chain = &mut self.keys[k];
            let (_, val) = chain
                .pending
                .take()
                .expect("a write left a pending version");
            if let Some(old) = chain.committed.last_mut() {
                old.end = t.ts;
            }
            chain.committed.push(Version {
                begin: t.ts,
                end: INF,
                read_ts: 0,
                val,
            });
        }
        Ok(())
    }

    fn abort(&mut self, t: ModelTxn) {
        self.aborted += t.writes.len();
        for k in t.writes {
            self.keys[k].pending = None;
        }
    }

    fn crash(&mut self) {
        for chain in &mut self.keys {
            self.aborted += chain.pending.take().is_some() as usize;
        }
    }

    /// Drop what no transaction at or above `watermark` can see: every
    /// committed version older than the newest one that began at or below
    /// it. Returns how many went.
    fn vacuum(&mut self, watermark: u64) -> usize {
        let mut freed = 0;
        for chain in &mut self.keys {
            let keeper = chain.committed.iter().rposition(|v| v.begin <= watermark);
            freed += chain.committed.drain(..keeper.unwrap_or(0)).count();
        }
        freed
    }
}

// ---- the schedule -----------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert,
    Read,
    Update,
    Commit,
    Abort,
}

/// Transaction slot, what it does, key, value.
type OpSpec = (usize, Op, usize, u8);

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    let kind = prop_oneof![
        2 => Just(Op::Insert),
        4 => Just(Op::Read),
        4 => Just(Op::Update),
        2 => Just(Op::Commit),
        1 => Just(Op::Abort),
    ];
    (0..3usize, kind, 0..KEYS, any::<u8>())
}

fn db_read(db: &Database, t: &Transaction, k: usize) -> Result<u8, TxnError> {
    let got = db.read(t, T, k as u64)?;
    assert!(got.iter().all(|&b| b == got[0]), "torn payload {got:?}");
    Ok(got[0])
}

fn begin(db: &Database) -> (Transaction, ModelTxn) {
    let t = db.begin();
    let m = ModelTxn {
        id: t.id,
        ts: t.ts,
        writes: Vec::new(),
    };
    (t, m)
}

/// Every key as `t` sees it, against the model (which records the same
/// read timestamps).
fn check_reads(db: &Database, model: &mut Model, t: &Transaction, m: &ModelTxn) {
    for k in 0..KEYS {
        assert_eq!(
            db_read(db, t, k),
            model.read(m, k),
            "key {k} as txn {}",
            t.id
        );
    }
}

type OpenTxns = [Option<(Transaction, ModelTxn)>; 3];

fn fresh() -> (Database, Model) {
    let db = Database::create(buffer_manager(1024), DbConfig::default()).unwrap();
    db.create_table(T, TUPLE).unwrap();
    (db, Model::default())
}

/// Play `ops` over three transaction slots on the database and the model,
/// holding every outcome against the model's. Returns what is still open.
fn play(db: &Database, model: &mut Model, ops: &[OpSpec]) -> OpenTxns {
    let mut slots: OpenTxns = [None, None, None];
    for &(slot, op, k, val) in ops {
        let (mut t, mut m) = slots[slot].take().unwrap_or_else(|| begin(db));
        let payload = [val; TUPLE];
        match op {
            Op::Read => assert_eq!(db_read(db, &t, k), model.read(&m, k)),
            Op::Update => {
                let got = db.update(&mut t, T, k as u64, &payload);
                assert_eq!(got, model.update(&mut m, k, val));
            }
            Op::Insert => {
                let got = db.insert(&mut t, T, k as u64, &payload);
                assert_eq!(got, model.insert(&mut m, k, val));
            }
            // Finished either way: a failed validation rolls back.
            Op::Commit => {
                assert_eq!(db.commit(&mut t), model.commit(m));
                assert!(!t.is_active());
                continue;
            }
            Op::Abort => {
                db.abort(&mut t).unwrap();
                model.abort(m);
                continue;
            }
        }
        slots[slot] = Some((t, m));
    }
    slots
}

/// Update every key in one fresh transaction (an absent key is `NotFound`
/// on both sides). Returns how many versions were written.
fn update_every_key(db: &Database, model: &mut Model) -> usize {
    let (mut t, mut m) = begin(db);
    let mut written = 0;
    for k in 0..KEYS {
        let got = db.update(&mut t, T, k as u64, &[k as u8; TUPLE]);
        assert_eq!(got, model.update(&mut m, k, k as u8));
        written += got.is_ok() as usize;
    }
    assert_eq!(db.commit(&mut t), model.commit(m));
    written
}

fn check_reads_as_newcomer(db: &Database, model: &mut Model) {
    let (mut t, m) = begin(db);
    check_reads(db, model, &t, &m);
    db.commit(&mut t).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Three interleaved transactions over four keys, then vacuum, then a
    /// crash with whatever is still open: the database and the model agree
    /// on every value and every outcome.
    #[test]
    fn interleaved_schedule_matches_the_mvto_model(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let (db, mut model) = fresh();
        let slots = play(&db, &mut model, &ops);

        // Vacuum under whatever is still open must not take a version any
        // of them (or a newcomer) can see, and takes every one they cannot.
        let freed = db.vacuum().unwrap().freed;
        prop_assert_eq!(freed, model.vacuum(db.oldest_active_ts()));
        for (t, m) in slots.iter().flatten() {
            check_reads(&db, &mut model, t, m);
        }
        check_reads_as_newcomer(&db, &mut model);

        // Crash with the open transactions in flight: they are losers.
        db.simulate_crash();
        model.crash();
        db.recover().unwrap();
        check_reads_as_newcomer(&db, &mut model);
        // The recovered chains (and vacuum's recycled slots) take writes.
        update_every_key(&db, &mut model);
        check_reads_as_newcomer(&db, &mut model);
    }

    /// Vacuum's debts die with the process, and so do the slots a vacuum
    /// before the crash retired: no checkpoint released them, and redo
    /// re-links every version it cut. The first pass after recovery finds
    /// through the index every version superseded before the crash, undo
    /// retires every version an aborted or in-flight transaction wrote,
    /// the checkpoint after it releases all their slots, they take the
    /// next writes, and the pass after that — driven by debts again —
    /// frees in an order the ops alone decide: the same schedule twice
    /// leaves the same free lists.
    #[test]
    fn debt_from_before_a_crash_is_collected_after_it(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let run = || {
            let (db, mut model) = fresh();
            let open = play(&db, &mut model, &ops); // whatever is open is a loser
            let cut = db.vacuum().unwrap().freed;
            assert_eq!(cut, model.vacuum(db.oldest_active_ts()));
            assert_eq!(db.table_free_slots(T).unwrap(), Vec::<u64>::new());
            drop(open);
            db.simulate_crash();
            model.crash();
            db.recover().unwrap();

            // Nothing is active: every chain is cut to its newest version.
            let superseded = cut + model.vacuum(u64::MAX);
            assert_eq!(db.vacuum().unwrap().freed, superseded);
            assert_eq!(db.table_free_slots(T).unwrap(), Vec::<u64>::new());
            assert_eq!(db.vacuum().unwrap(), VacuumStats::default());
            check_reads_as_newcomer(&db, &mut model);
            db.checkpoint().unwrap();
            let after_recovery = db.table_free_slots(T).unwrap();
            let freed = superseded + model.aborted;
            assert_eq!(after_recovery.len(), freed);

            let written = update_every_key(&db, &mut model);
            let left = db.table_free_slots(T).unwrap();
            assert_eq!(left.len(), freed.saturating_sub(written));
            assert!(after_recovery.starts_with(&left), "a freed slot was passed over");

            let stats = db.vacuum().unwrap();
            assert_eq!((stats.chains, stats.freed), (written, model.vacuum(u64::MAX)));
            check_reads_as_newcomer(&db, &mut model);
            (after_recovery, db.table_free_slots(T).unwrap())
        };
        prop_assert_eq!(run(), run());
    }

    /// A stamp writes its own eight bytes: the other four fields and the
    /// payload read back byte-identical, whatever the slot size and
    /// whichever kind of visit stamped.
    #[test]
    fn a_field_stamp_leaves_the_rest_of_the_slot_alone(
        tuple in prop_oneof![Just(64usize), Just(100usize), Just(1000usize)],
        fields in proptest::collection::vec(any::<u64>(), 5..6),
        fill in any::<u8>(),
        stamps in proptest::collection::vec((0..5usize, any::<u64>(), any::<bool>()), 1..12),
    ) {
        let table = Table::create(buffer_manager(4096), T, tuple);
        let payload: Vec<u8> = (0..tuple).map(|i| fill.wrapping_add(i as u8)).collect();
        let mut expect = VersionHeader {
            begin: fields[0],
            end: fields[1],
            read_ts: fields[2],
            prev: fields[3],
            key: fields[4],
        };
        // Neighbours on both sides: a stamp must not leak across slots.
        let before = table.insert_version(expect, &vec![!fill; tuple]).unwrap();
        let rid = table.insert_version(expect, &payload).unwrap();
        let after = table.insert_version(expect, &vec![!fill; tuple]).unwrap();
        let neighbour = expect;

        let mut buf = vec![0u8; tuple];
        for (which, value, via_upgrade) in stamps {
            let (field, slot) = match which {
                0 => (Field::Begin, &mut expect.begin),
                1 => (Field::End, &mut expect.end),
                2 => (Field::ReadTs, &mut expect.read_ts),
                3 => (Field::Prev, &mut expect.prev),
                _ => (Field::Key, &mut expect.key),
            };
            *slot = value;
            if via_upgrade {
                table.read_visit(rid).unwrap().upgrade().unwrap().stamp(field, value).unwrap();
            } else {
                table.write_visit(rid).unwrap().stamp(field, value).unwrap();
            }
            prop_assert_eq!(table.read_visit(rid).unwrap().version(&mut buf).unwrap(), expect);
            prop_assert_eq!(&buf, &payload);
            for other in [before, after] {
                let got = table.read_visit(other).unwrap().version(&mut buf).unwrap();
                prop_assert_eq!(got, neighbour);
                prop_assert!(buf.iter().all(|&b| b == !fill));
            }
        }
    }
}
