//! The transactional database: MVTO over versioned tables, indexed by
//! B+Trees, logged through the NVM-aware WAL, recovered ARIES-style.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use spitfire_core::{BufferManager, PageId};
use spitfire_index::BTree;

use crate::error::TxnError;
use crate::mvto::{is_marker, marker_txn, visible, KeyLocks, ABORTED, INF, MARK};
use crate::store::SnapshotStore;
use crate::table::{check_tuple_size, Field, Table, VersionHeader, NO_RID};
use crate::wal::{LogRecord, RecordKind, Wal};
use crate::Result;

/// Page size of the SSD log file: the SSD's write unit
/// (`DeviceProfile::optane_ssd().access_granularity`), so a drained log
/// page costs one device write of its own size.
const LOG_PAGE: usize = 16 * 1024;

/// Database construction options.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// NVM log buffer capacity in bytes.
    pub log_buffer_bytes: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            log_buffer_bytes: 1 << 20,
        }
    }
}

/// What a transaction did to one key (undo/stamping information).
#[derive(Debug, Clone, Copy)]
struct WriteEntry {
    table: u32,
    key: u64,
    new_rid: u64,
    old_rid: u64, // NO_RID for inserts
}

/// A transaction handle. Obtain with [`Database::begin`]; finish with
/// [`Database::commit`] or [`Database::abort`]. Dropping an unfinished
/// transaction leaks its markers until abort — always finish explicitly.
#[derive(Debug)]
pub struct Transaction {
    /// Transaction id (distinct from the timestamp).
    pub id: u64,
    /// MVTO timestamp: orders both reads and writes.
    pub ts: u64,
    writes: Vec<WriteEntry>,
    last_lsn: u64,
    active: bool,
}

impl Transaction {
    /// Whether the transaction is still active.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Number of writes performed so far.
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }
}

/// Counters reported by [`Database::recover`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Committed transactions in the replayed log tail.
    pub committed: usize,
    /// Loser transactions in the tail (writes but no commit record).
    pub losers: usize,
    /// Write records redone.
    pub redone: usize,
    /// Loser write records undone (marked aborted).
    pub undone: usize,
    /// Pages reconstructed from the NVM buffer scan.
    pub nvm_pages: usize,
    /// Entries the rebuilt indexes hold when recovery returns: the
    /// generation's runs plus the tail's fix-ups.
    pub index_entries: usize,
    /// Snapshot generation loaded (0 = none installed: the whole log is
    /// the tail).
    pub snapshot_generation: u64,
    /// Log bytes the scan read: the file stream from the generation's
    /// fence page on, plus the live region of the NVM log buffer.
    pub log_bytes: u64,
    /// Page images installed from the snapshot generation: always 0, since
    /// a checkpoint writes pages home instead of into the store. Kept for
    /// the benchmark's `snapshot.recover_pages`.
    pub snapshot_pages: usize,
    /// Wall time of the log scan: reading the tail and checking its frames.
    pub log_read_us: u64,
    /// Wall time of analysis, redo and undo over the tail.
    pub replay_us: u64,
    /// Wall time of the index rebuild: merging each table's fix-ups into
    /// its run and bulk-loading the result.
    pub index_us: u64,
}

/// A table and its primary index: what every operation on a table id
/// needs, handed out together so an op pays one catalog lookup.
pub(crate) struct Relation {
    pub(crate) table: Table,
    pub(crate) index: BTree,
}

/// A transactional multi-table database over one buffer manager.
pub struct Database {
    pub(crate) bm: Arc<BufferManager>,
    pub(crate) wal: Wal,
    /// Timestamp oracle (assigns begin timestamps, single-ts MVTO).
    pub(crate) oracle: AtomicU64,
    pub(crate) txn_ids: AtomicU64,
    /// Table id → its table and index. Emptied by a crash; recovery
    /// installs the reopened tables and rebuilt indexes in one piece.
    pub(crate) catalog: RwLock<HashMap<u32, Arc<Relation>>>,
    /// Key stripes, each with the vacuum debts of its keys.
    pub(crate) locks: KeyLocks,
    /// The debts died in a crash: the next vacuum finds its chains through
    /// the indexes. Set by [`Database::recover`].
    pub(crate) debts_lost: AtomicBool,
    commits: AtomicU64,
    aborts: AtomicU64,
    /// Version slots retired by rollbacks and recovery's loser undo.
    aborted_slots: AtomicU64,
    /// Timestamps of in-flight transactions (vacuum watermark, and which
    /// read stamps may be hints — see [`Database::read_into`]). A leaf
    /// lock: nothing is acquired while it is held. A timestamp is drawn
    /// under it and leaves it only when its transaction has nothing left
    /// to do.
    pub(crate) active: parking_lot::Mutex<std::collections::BTreeSet<u64>>,
    /// Checkpoint fence gate: [`Database::begin`] and
    /// [`Database::create_table`] hold it shared; the checkpointer holds it
    /// exclusively while it waits for the active set to drain and captures
    /// its fence (see `checkpoint`).
    pub(crate) fence_gate: RwLock<()>,
    /// The snapshot store: checkpoints write its generations, recovery
    /// loads them.
    pub(crate) snapshots: Arc<SnapshotStore>,
    /// Serializes checkpoints (one writer streams into the store at a
    /// time).
    pub(crate) ckpt_serial: parking_lot::Mutex<()>,
    /// Log position the last [`Database::maintain`] pass started at; held
    /// for the length of a pass.
    pub(crate) maint_from: parking_lot::Mutex<u64>,
    /// Maintenance passes whose checkpoint was contended.
    pub(crate) maint_contended: AtomicU64,
}

impl Database {
    /// Create a fresh database on `bm`, with its snapshot store (see
    /// [`Database::checkpoint`]).
    pub fn create(bm: Arc<BufferManager>, config: DbConfig) -> Result<Self> {
        let wal = Wal::new(
            config.log_buffer_bytes,
            LOG_PAGE,
            bm.config().time_scale,
            bm.config().persistence,
        )?;
        let snapshots = Arc::new(SnapshotStore::new(
            bm.page_size(),
            bm.config().time_scale,
            bm.config().persistence,
        ));
        Ok(Database {
            bm,
            wal,
            oracle: AtomicU64::new(2),
            txn_ids: AtomicU64::new(1),
            catalog: RwLock::new(HashMap::new()),
            locks: KeyLocks::default(),
            debts_lost: AtomicBool::new(false),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            aborted_slots: AtomicU64::new(0),
            active: parking_lot::Mutex::new(std::collections::BTreeSet::new()),
            fence_gate: RwLock::new(()),
            snapshots,
            ckpt_serial: parking_lot::Mutex::new(()),
            maint_from: parking_lot::Mutex::new(0),
            maint_contended: AtomicU64::new(0),
        })
    }

    /// The buffer manager backing this database.
    pub fn buffer_manager(&self) -> &Arc<BufferManager> {
        &self.bm
    }

    /// The write-ahead log (metrics access).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Change the emulated-delay scale across the buffer manager and the
    /// WAL devices (load phases run with delays off).
    pub fn set_time_scale(&self, scale: spitfire_device::TimeScale) {
        self.bm.admin().set_time_scale(scale);
        self.wal.set_time_scale(scale);
        self.snapshots.set_time_scale(scale);
    }

    /// Committed / aborted transaction counts.
    pub fn txn_stats(&self) -> (u64, u64) {
        (
            // relaxed: advisory transaction statistics.
            self.commits.load(Ordering::Relaxed),
            self.aborts.load(Ordering::Relaxed),
        )
    }

    /// Create a table with `tuple_size`-byte tuples and a primary index.
    /// Fails with [`TxnError::Duplicate`] if `table_id` exists, and with
    /// [`TxnError::TooManyTables`] past the tables a snapshot manifest
    /// lists in one block.
    ///
    /// The `CreateTable` log record is the durability point, as a commit
    /// record is; nothing else is written. The record and the catalog
    /// insert happen under the fence gate, so a checkpoint's fence comes
    /// before both (recovery creates the table from the log tail) or after
    /// both (its manifest lists the table).
    pub fn create_table(&self, table_id: u32, tuple_size: usize) -> Result<()> {
        let _gate = self.fence_gate.read();
        let mut catalog = self.catalog.write();
        if catalog.contains_key(&table_id) {
            return Err(TxnError::Duplicate);
        }
        let max_tables = crate::store::max_tables(self.bm.page_size());
        if catalog.len() >= max_tables {
            return Err(TxnError::TooManyTables(max_tables));
        }
        let table = Table::create(Arc::clone(&self.bm), table_id, tuple_size);
        let index = BTree::new(Arc::clone(&self.bm))?;
        self.wal.append(&LogRecord {
            kind: RecordKind::CreateTable,
            txn: 0,
            table: table_id,
            key: tuple_size as u64,
            rid: NO_RID,
            prev_rid: NO_RID,
            prev_lsn: u64::MAX,
            payload: &[],
        })?;
        catalog.insert(table_id, Arc::new(Relation { table, index }));
        Ok(())
    }

    pub(crate) fn relation(&self, id: u32) -> Result<Arc<Relation>> {
        self.catalog
            .read()
            .get(&id)
            .cloned()
            .ok_or(TxnError::UnknownTable(id))
    }

    /// Every table with its index (vacuum, checkpoint).
    pub(crate) fn relations(&self) -> Vec<Arc<Relation>> {
        self.catalog.read().values().cloned().collect()
    }

    /// Data-page ids of a table, for residency inspection (e.g. asking the
    /// buffer manager which of a tenant's pages are DRAM-resident).
    pub fn table_data_pages(&self, table_id: u32) -> Result<Vec<spitfire_core::PageId>> {
        Ok(self.relation(table_id)?.table.data_pages())
    }

    /// A table's free-slot list, for inspection: what vacuum reclaimed and
    /// inserts have not reused yet, the next slot handed out last.
    pub fn table_free_slots(&self, table_id: u32) -> Result<Vec<u64>> {
        Ok(self.relation(table_id)?.table.free_slots())
    }

    /// A table's index entries, `(key, rid)` in key order, for inspection:
    /// each key's newest version slot.
    pub fn index_entries(&self, table_id: u32) -> Result<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        index_chunks(&self.relation(table_id)?.index, |chunk| {
            out.extend_from_slice(chunk);
            Ok(())
        })?;
        Ok(out)
    }

    /// Begin a transaction. Briefly holds the checkpoint fence gate
    /// shared: a checkpoint that is waiting for the active set to drain
    /// blocks new transactions here until its fence is captured.
    ///
    /// The timestamp is drawn under the `active` lock, so `active` never
    /// lacks a timestamp smaller than one it holds: a transaction that
    /// finds itself first in `active` is older than every transaction that
    /// has not retired.
    pub fn begin(&self) -> Transaction {
        let _gate = self.fence_gate.read();
        let ts = {
            let mut active = self.active.lock();
            let ts = self.oracle.fetch_add(1, Ordering::AcqRel);
            active.insert(ts);
            ts
        };
        Transaction {
            id: self.txn_ids.fetch_add(1, Ordering::AcqRel),
            ts,
            writes: Vec::new(),
            last_lsn: u64::MAX,
            active: true,
        }
    }

    /// The last thing a transaction does: after this, no step of it —
    /// no validation, no stamp, no rollback — is still to come.
    fn retire(&self, txn: &Transaction) {
        self.active.lock().remove(&txn.ts);
    }

    /// Whether `txn` is the oldest transaction still active.
    fn is_oldest(&self, txn: &Transaction) -> bool {
        self.active.lock().first() == Some(&txn.ts)
    }

    /// The vacuum watermark: no active transaction has a timestamp below
    /// this, so versions superseded before it are unreachable.
    pub fn oldest_active_ts(&self) -> u64 {
        self.active
            .lock()
            .first()
            .copied()
            .unwrap_or_else(|| self.oracle.load(Ordering::Acquire))
    }

    /// Read the visible version of `key` into `buf` (`tuple_size` bytes;
    /// checked before anything is fetched). On error `buf` holds nothing
    /// meaningful.
    ///
    /// The read advances the version's read timestamp (MVTO: a writer with
    /// a smaller timestamp must not supersede what a later transaction
    /// read). When the reader is the oldest active transaction that stamp
    /// can never be consulted — every transaction with a smaller timestamp
    /// has retired, each after its last validation, and every new one
    /// draws a larger timestamp — so it is written as a hint
    /// ([`spitfire_core::WriteGuard::write_hint`]): it may be lost when the
    /// page leaves the buffer tiers, and costs no SSD write-back. Any other
    /// reader's stamp is data.
    pub fn read_into(
        &self,
        txn: &Transaction,
        table_id: u32,
        key: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        self.read_visible(&*self.relation(table_id)?, txn, key, buf)
    }

    /// Read the visible version of `key` (allocating).
    pub fn read(&self, txn: &Transaction, table_id: u32, key: u64) -> Result<Vec<u8>> {
        let rel = self.relation(table_id)?;
        let mut buf = vec![0u8; rel.table.tuple_size];
        self.read_visible(&rel, txn, key, &mut buf)?;
        Ok(buf)
    }

    /// One read visit per version walked: the whole version in one access,
    /// and on the visible one the read-timestamp stamp through the same
    /// pin (MVTO bookkeeping, a page write even on read-only workloads —
    /// paper §6.4) — a hint when `txn` is the oldest active transaction
    /// (see [`Database::read_into`]).
    fn read_visible(
        &self,
        rel: &Relation,
        txn: &Transaction,
        key: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        if !txn.active {
            return Err(TxnError::InactiveTransaction);
        }
        let table = &rel.table;
        check_tuple_size(table.tuple_size, buf.len())?;
        let _stripe = self.locks.lock(table.id, key);
        let Some(mut rid) = rel.index.get(key)? else {
            return Err(TxnError::NotFound);
        };
        loop {
            let visit = table.read_visit(rid)?;
            let hdr = visit.version(buf)?;
            if visible(&hdr, txn.ts, txn.id) {
                if !is_marker(hdr.begin) && hdr.read_ts < txn.ts {
                    let visit = visit.upgrade()?;
                    if self.is_oldest(txn) {
                        visit.stamp_hint(Field::ReadTs, txn.ts)?;
                    } else {
                        visit.stamp(Field::ReadTs, txn.ts)?;
                    }
                }
                return Ok(());
            }
            if hdr.prev == NO_RID {
                return Err(TxnError::NotFound);
            }
            rid = hdr.prev;
        }
    }

    /// Install a new version of `key`. Fails with [`TxnError::Conflict`]
    /// when MVTO ordering would be violated (caller aborts and retries).
    ///
    /// The index is descended once: the lookup returns where the key's
    /// entry sits, and the new rid is written there
    /// ([`BTree::set_at`](spitfire_index::BTree::set_at)). Once the new
    /// version is in, the write is the transaction's, so a failure at any
    /// later step is undone by [`abort`](Self::abort). The Update record
    /// is appended before the superseded version's `end` marker is
    /// stamped: on an NVM copy that stamp is durable at once, and a
    /// durable marker no log record names would refuse every later
    /// update of the key, since recovery's undo never reopens it.
    pub fn update(
        &self,
        txn: &mut Transaction,
        table_id: u32,
        key: u64,
        payload: &[u8],
    ) -> Result<()> {
        if !txn.active {
            return Err(TxnError::InactiveTransaction);
        }
        let rel = self.relation(table_id)?;
        let (table, index) = (&rel.table, &rel.index);
        let _stripe = self.locks.lock(table_id, key);
        let Some((rid, at)) = index.get_at(key)? else {
            return Err(TxnError::NotFound);
        };
        let hdr = table.read_visit(rid)?.header()?;

        if is_marker(hdr.begin) {
            if marker_txn(hdr.begin) == txn.id {
                // Our own pending version: overwrite in place.
                table.write_visit(rid)?.write_payload(payload)?;
                let lsn = self.wal.append(&LogRecord {
                    kind: RecordKind::Update,
                    txn: txn.id,
                    table: table_id,
                    key,
                    rid,
                    prev_rid: hdr.prev,
                    prev_lsn: txn.last_lsn,
                    payload,
                })?;
                txn.last_lsn = lsn;
                return Ok(());
            }
            return Err(TxnError::Conflict); // write-write conflict
        }
        if hdr.begin == ABORTED || hdr.begin > txn.ts {
            return Err(TxnError::Conflict); // newer committed version
        }
        if hdr.end != INF {
            return Err(TxnError::Conflict); // superseded concurrently
        }
        if hdr.read_ts > txn.ts {
            return Err(TxnError::Conflict); // read by a later transaction
        }

        let new_hdr = VersionHeader {
            begin: MARK | txn.id,
            end: INF,
            read_ts: 0,
            prev: rid,
            key,
        };
        // Insert before stamping: a failed insert leaves the old version
        // exactly as it was.
        let new_rid = table.insert_version(new_hdr, payload)?;
        txn.writes.push(WriteEntry {
            table: table_id,
            key,
            new_rid,
            old_rid: rid,
        });
        txn.last_lsn = self.wal.append(&LogRecord {
            kind: RecordKind::Update,
            txn: txn.id,
            table: table_id,
            key,
            rid: new_rid,
            prev_rid: rid,
            prev_lsn: txn.last_lsn,
            payload,
        })?;
        table.write_visit(rid)?.stamp(Field::End, MARK | txn.id)?;
        index.set_at(at, key, new_rid)?;
        Ok(())
    }

    /// Insert a fresh key. Fails with [`TxnError::Duplicate`] if a version
    /// chain already exists. Once the version is in, the write is the
    /// transaction's, so a failure at any later step is undone by
    /// [`abort`](Self::abort).
    pub fn insert(
        &self,
        txn: &mut Transaction,
        table_id: u32,
        key: u64,
        payload: &[u8],
    ) -> Result<()> {
        if !txn.active {
            return Err(TxnError::InactiveTransaction);
        }
        let rel = self.relation(table_id)?;
        let (table, index) = (&rel.table, &rel.index);
        let _stripe = self.locks.lock(table_id, key);
        if index.get(key)?.is_some() {
            return Err(TxnError::Duplicate);
        }
        let new_hdr = VersionHeader {
            begin: MARK | txn.id,
            end: INF,
            read_ts: 0,
            prev: NO_RID,
            key,
        };
        let new_rid = table.insert_version(new_hdr, payload)?;
        txn.writes.push(WriteEntry {
            table: table_id,
            key,
            new_rid,
            old_rid: NO_RID,
        });
        index.insert(key, new_rid)?;
        txn.last_lsn = self.wal.append(&LogRecord {
            kind: RecordKind::Insert,
            txn: txn.id,
            table: table_id,
            key,
            rid: new_rid,
            prev_rid: NO_RID,
            prev_lsn: txn.last_lsn,
            payload,
        })?;
        Ok(())
    }

    /// Scan up to `limit` visible tuples with keys ≥ `start`, in key order.
    pub fn scan(
        &self,
        txn: &Transaction,
        table_id: u32,
        start: u64,
        limit: usize,
    ) -> Result<Vec<(u64, Vec<u8>)>> {
        if !txn.active {
            return Err(TxnError::InactiveTransaction);
        }
        let rel = self.relation(table_id)?;
        let mut out = Vec::with_capacity(limit.min(256));
        let mut buf = vec![0u8; rel.table.tuple_size];
        let mut start = start;
        // A candidate key may have no version visible to `txn` (inserted
        // after it began, or aborted), so keep asking the index from where
        // the last batch ended until `limit` rows are found or it runs out.
        while out.len() < limit {
            let batch = (limit - out.len()).saturating_mul(2);
            let candidates = rel.index.scan_from(start, batch)?;
            let Some(&(last, _)) = candidates.last() else {
                break;
            };
            for &(key, _) in &candidates {
                match self.read_visible(&rel, txn, key, &mut buf) {
                    Ok(()) => {
                        out.push((key, buf.clone()));
                        if out.len() >= limit {
                            break;
                        }
                    }
                    Err(TxnError::NotFound) => continue,
                    Err(e) => return Err(e),
                }
            }
            if candidates.len() < batch || last == u64::MAX {
                break;
            }
            start = last + 1;
        }
        Ok(out)
    }

    /// Commit: validate MVTO read timestamps, persist the commit record in
    /// the NVM log buffer (the durability point, paper §5.2), then stamp
    /// all versions with the commit timestamp — and only then retire. A
    /// writer still validating must be visible in `active`: a reader that
    /// judged itself the oldest active transaction has written its read
    /// stamp as a hint that may be gone (see [`Database::read_into`]), and
    /// `checkpoint` waits for `active` to drain before it takes its fence.
    pub fn commit(&self, txn: &mut Transaction) -> Result<()> {
        if !txn.active {
            return Err(TxnError::InactiveTransaction);
        }
        let obs_t = spitfire_obs::op_start();
        txn.active = false;
        let result = self.commit_writes(txn);
        self.retire(txn);
        result?;
        // relaxed: commit statistic.
        self.commits.fetch_add(1, Ordering::Relaxed);
        spitfire_obs::record_since(spitfire_obs::Op::TxnCommit, obs_t);
        Ok(())
    }

    /// Everything a commit does before it retires: validation, the commit
    /// record, the stamps. A failed validation rolls the writes back and is
    /// a [`TxnError::Conflict`]; a commit record that cannot be appended
    /// rolls them back too and returns the I/O error. Whether that record
    /// reached the log is then unknown — a crash may still replay it as
    /// committed — but the live database no longer holds the
    /// transaction's markers.
    fn commit_writes(&self, txn: &Transaction) -> Result<()> {
        if txn.writes.is_empty() {
            return Ok(()); // read-only: nothing to log or stamp
        }
        // Lock every touched stripe in sorted order (deadlock freedom).
        let mut stripes: Vec<usize> = txn
            .writes
            .iter()
            .map(|w| self.locks.stripe_of(w.table, w.key))
            .collect();
        stripes.sort_unstable();
        stripes.dedup();
        let mut guards = self.locks.lock_many(&stripes);

        // Validation: a later transaction may have read a version we are
        // about to supersede; committing would break timestamp order.
        for w in &txn.writes {
            if w.old_rid == NO_RID {
                continue;
            }
            let rel = self.relation(w.table)?;
            if rel.table.read_visit(w.old_rid)?.header()?.read_ts > txn.ts {
                drop(guards);
                self.rollback(txn)?;
                return Err(TxnError::Conflict);
            }
        }

        // Durability point.
        let logged = self.wal.append(&LogRecord {
            kind: RecordKind::Commit,
            txn: txn.id,
            table: 0,
            key: 0,
            rid: txn.ts,
            prev_rid: NO_RID,
            prev_lsn: txn.last_lsn,
            payload: &[],
        });
        if let Err(e) = logged {
            drop(guards);
            self.rollback(txn)?;
            return Err(e);
        }

        // Stamp versions with the commit timestamp: the markers are ours
        // (key stripes held since validation), so both stamps are blind.
        // A write that superseded a version leaves its key in debt to
        // vacuum, which will start from `new_rid`.
        for w in &txn.writes {
            let table = &self.relation(w.table)?.table;
            table.write_visit(w.new_rid)?.stamp(Field::Begin, txn.ts)?;
            if w.old_rid != NO_RID {
                table.write_visit(w.old_rid)?.stamp(Field::End, txn.ts)?;
                let held = stripes
                    .binary_search(&self.locks.stripe_of(w.table, w.key))
                    .expect("every written key's stripe was locked above");
                guards[held].debts.insert((w.table, w.key), w.new_rid);
            }
        }
        Ok(())
    }

    /// Abort: restore index entries and mark installed versions aborted.
    pub fn abort(&self, txn: &mut Transaction) -> Result<()> {
        if !txn.active {
            return Err(TxnError::InactiveTransaction);
        }
        let obs_t = spitfire_obs::op_start();
        txn.active = false;
        let result = self.rollback(txn);
        self.retire(txn);
        if result.is_ok() {
            spitfire_obs::record_since(spitfire_obs::Op::TxnAbort, obs_t);
        }
        result
    }

    fn rollback(&self, txn: &Transaction) -> Result<()> {
        for w in txn.writes.iter().rev() {
            let rel = self.relation(w.table)?;
            let (table, index) = (&rel.table, &rel.index);
            let _stripe = self.locks.lock(w.table, w.key);
            // Unhook the new version; its slot is reused once a checkpoint
            // past this abort installs.
            table.write_visit(w.new_rid)?.stamp(Field::Begin, ABORTED)?;
            table.retire_slot(w.new_rid);
            // relaxed: advisory counter.
            self.aborted_slots.fetch_add(1, Ordering::Relaxed);
            if w.old_rid != NO_RID {
                let old = table.write_visit(w.old_rid)?;
                if old.header()?.end == (MARK | txn.id) {
                    old.stamp(Field::End, INF)?;
                }
                drop(old);
                index.insert(w.key, w.old_rid)?;
            } else {
                index.remove(w.key)?;
            }
        }
        if !txn.writes.is_empty() {
            self.wal.append(&LogRecord {
                kind: RecordKind::Abort,
                txn: txn.id,
                table: 0,
                key: 0,
                rid: NO_RID,
                prev_rid: NO_RID,
                prev_lsn: txn.last_lsn,
                payload: &[],
            })?;
        }
        // relaxed: abort statistic.
        self.aborts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Install (or clear) a fault injector on every device the database
    /// touches: all buffer-manager tiers, both WAL devices, and the
    /// snapshot store.
    pub fn set_fault_injector(&self, injector: Option<Arc<spitfire_device::FaultInjector>>) {
        self.bm.admin().set_fault_injector(injector.clone());
        self.wal.set_fault_injector(injector.clone());
        self.snapshots.set_fault_injector(injector);
    }

    /// Simulate a crash: volatile state everywhere is dropped, unflushed
    /// NVM lines roll back, and the snapshot store drops unsynced blocks.
    pub fn simulate_crash(&self) {
        self.bm.simulate_crash();
        self.wal.simulate_crash();
        self.snapshots.simulate_crash();
        self.locks.forget_debts();
        self.catalog.write().clear();
        // In-flight transactions died with the process; without this,
        // their abandoned timestamps would pin the vacuum watermark and
        // make every future checkpoint report contention.
        self.active.lock().clear();
    }

    /// Recover after a crash (paper §5.2, Recovery):
    ///
    /// 1. scan the NVM buffer to rebuild the mapping table;
    /// 2. load the newest valid snapshot generation — its manifest is the
    ///    table catalog at its fence, its page runs the tables' pages and
    ///    its index runs the indexes — or, when the store names none, an
    ///    empty one (no tables, fence 0); if its superblock is unreadable,
    ///    or it names generations and none validates, fail with
    ///    [`TxnError::Corrupt`]; the store reads each retained generation
    ///    once; drop the adopted NVM copies of pages allocated after its
    ///    fence, which nothing references any more;
    /// 3. read the log tail: the log file from the fence's page on (the
    ///    manifest records the whole [`WalFence`](crate::WalFence)), then
    ///    the (persistent) NVM log buffer; nothing before the fence is
    ///    read; a tail cut short by a tear or corruption is made the end
    ///    of the log ([`Wal::end_at_clean_prefix`]);
    /// 4. analysis — split the tail's transactions into winners and losers;
    /// 5. redo — create the tail's tables and re-apply winners' writes with
    ///    their commit timestamps, growing each table over the pages added
    ///    after the fence (they get fresh page ids; the old ids are
    ///    orphaned); undo — mark losers' versions aborted and, unless
    ///    the generation is a fallback, retire their slots;
    /// 6. rebuild each index in one bulk load: the generation's run with
    ///    the tail's outcome per key merged in.
    ///
    /// Recovery reads and redoes the log appended since the delivered
    /// generation's fence — one checkpoint interval when the newest
    /// generation validates, two on a fallback — not the whole retained
    /// log, database size or history.
    pub fn recover(&self) -> Result<RecoveryStats> {
        let adopted = self.bm.recover_nvm_buffer();
        let mut stats = RecoveryStats {
            nvm_pages: adopted.len(),
            ..RecoveryStats::default()
        };
        self.debts_lost.store(true, Ordering::Release);
        self.bm.recover_page_allocator();

        let (manifest, mut runs, fell_back) = self.snapshots.recover()?;
        stats.snapshot_generation = manifest.generation;
        // Covers every page the page runs list.
        self.bm.admin().set_next_page_id(manifest.next_page_id);
        // A page allocated after the fence is in no page run: replay
        // rebuilds the table growth under fresh ids and the index is bulk
        // loaded anew, so its adopted NVM copy is garbage.
        let orphans: Vec<PageId> = adopted
            .into_iter()
            .filter(|pid| pid.0 >= manifest.next_page_id)
            .collect();
        self.bm.drop_recovered(&orphans)?;
        let mut tables = BTreeMap::new();
        for meta in &manifest.tables {
            let table = Table::restore(
                Arc::clone(&self.bm),
                meta.id,
                meta.tuple_size as usize,
                runs.pages.remove(&meta.id).unwrap_or_default(),
                meta.allocated_slots,
            );
            tables.insert(meta.id, table);
        }

        let clock = Instant::now();
        let tail = self.wal.read_from(manifest.fence)?;
        // A torn or corrupt tail: the log continues from its clean end.
        self.wal.end_at_clean_prefix(&tail)?;
        stats.log_bytes = (tail.file_bytes + tail.nvm_bytes) as u64;
        stats.log_read_us = clock.elapsed().as_micros() as u64;

        let clock = Instant::now();
        let mut outcome =
            self.replay_records(&mut tables, tail.records(), !fell_back, &mut stats)?;
        drop(tail);
        stats.replay_us = clock.elapsed().as_micros() as u64;

        // Rebuild each index in one bulk load of its run with the tail's
        // outcome merged in. A bulk load of a sorted set is a pure function
        // of that set, so the rebuilt trees are the same on every recovery
        // from the same image (the chaos explorer's replay-equality
        // invariant depends on it).
        let clock = Instant::now();
        let mut catalog = HashMap::with_capacity(tables.len());
        for (id, table) in tables {
            let run = runs.index.remove(&id).unwrap_or_default();
            let entries = match outcome.fixups.remove(&id) {
                Some(fixups) => merge_fixups(run, fixups),
                None => run,
            };
            stats.index_entries += entries.len();
            let index = BTree::bulk_load(Arc::clone(&self.bm), &entries)?;
            catalog.insert(id, Arc::new(Relation { table, index }));
        }
        *self.catalog.write() = catalog;
        stats.index_us = clock.elapsed().as_micros() as u64;

        self.oracle
            .fetch_max(manifest.oracle_ts.max(outcome.max_ts), Ordering::AcqRel);
        self.txn_ids
            .fetch_max(manifest.next_txn_id.max(outcome.max_txn), Ordering::AcqRel);
        Ok(stats)
    }

    /// Analysis + redo + undo over the log tail `records`, in log order:
    /// a `CreateTable` record opens its table into `tables`, and a write
    /// to a table neither the manifest nor the tail created is corruption
    /// ([`TxnError::UnknownTable`]). With `retire_losers`, losers' slots
    /// are retired. Updates `stats` and returns the index fix-ups and
    /// timestamp watermarks.
    fn replay_records<'a>(
        &self,
        tables: &mut BTreeMap<u32, Table>,
        records: impl Iterator<Item = LogRecord<'a>> + Clone,
        retire_losers: bool,
        stats: &mut RecoveryStats,
    ) -> Result<ReplayOutcome> {
        // Analysis.
        let mut commit_ts: HashMap<u64, u64> = HashMap::new();
        let mut seen: HashMap<u64, bool> = HashMap::new(); // txn -> has writes
        for r in records.clone() {
            match r.kind {
                RecordKind::Commit => {
                    commit_ts.insert(r.txn, r.rid);
                }
                RecordKind::Update | RecordKind::Insert => {
                    seen.entry(r.txn).or_insert(true);
                }
                _ => {}
            }
        }
        stats.committed = commit_ts.len();
        stats.losers = seen.keys().filter(|t| !commit_ts.contains_key(t)).count();

        // Redo winners / undo losers, in log order. A key's last write
        // decides its index entry: a winner's points it at its slot; a
        // loser's points back at the version it superseded, or removes a
        // fresh insert.
        let mut fixups: BTreeMap<u32, BTreeMap<u64, u64>> = BTreeMap::new();
        let mut loser_slots = BTreeSet::new();
        let mut max_ts = 2u64;
        let mut max_txn = 1u64;
        for r in records {
            max_txn = max_txn.max(r.txn + 1);
            match r.kind {
                RecordKind::CreateTable => {
                    let table = Table::create(Arc::clone(&self.bm), r.table, r.key as usize);
                    tables.insert(r.table, table);
                }
                RecordKind::Update | RecordKind::Insert => {
                    let table = tables
                        .get(&r.table)
                        .ok_or(TxnError::UnknownTable(r.table))?;
                    let winner = commit_ts.get(&r.txn).copied();
                    fixups
                        .entry(r.table)
                        .or_default()
                        .insert(r.key, if winner.is_some() { r.rid } else { r.prev_rid });
                    if let Some(ts) = winner {
                        max_ts = max_ts.max(ts + 1);
                        let hdr = VersionHeader {
                            begin: ts,
                            end: INF,
                            read_ts: 0,
                            prev: r.prev_rid,
                            key: r.key,
                        };
                        table.redo_version(r.rid, hdr, r.payload)?;
                        if r.prev_rid != NO_RID {
                            table
                                .write_visit_or_grow(r.prev_rid)?
                                .stamp(Field::End, ts)?;
                        }
                        stats.redone += 1;
                    } else {
                        // Loser: make the slot permanently invisible.
                        table.undo_version(r.rid, r.key)?;
                        loser_slots.insert((r.table, r.rid));
                        // Reopen the superseded version if the marker
                        // survived on it.
                        if r.prev_rid != NO_RID {
                            let prev = table.write_visit_or_grow(r.prev_rid)?;
                            let end = prev.header()?.end;
                            if is_marker(end) && marker_txn(end) == r.txn {
                                prev.stamp(Field::End, INF)?;
                            }
                        }
                        stats.undone += 1;
                    }
                }
                _ => {}
            }
        }
        // A loser's slot is retired, as a rollback retires it, when the
        // tail follows the newest generation: the slot was fresh or
        // released at that install, so nothing else leads to it. After a
        // fallback it is not: a slot the newer install released may have
        // held a version in the older interval, and a chain that the older
        // image or a replayed record re-links still leads to it, so vacuum
        // retires it when it frees that chain.
        if retire_losers {
            // relaxed: advisory counter.
            self.aborted_slots
                .fetch_add(loser_slots.len() as u64, Ordering::Relaxed);
            for (id, rid) in loser_slots {
                tables[&id].retire_slot(rid);
            }
        }
        Ok(ReplayOutcome {
            fixups,
            max_ts,
            max_txn,
        })
    }
}

/// The database's own counters and gauges (transaction outcomes, WAL and
/// snapshot-store size, snapshot health); its buffer manager is a separate
/// [`Source`](spitfire_obs::Source). Before the first checkpoint the
/// generation and checkpoint gauges read 0.
impl spitfire_obs::Source for Database {
    fn report(&self, out: &mut spitfire_obs::Report) {
        let (commits, aborts) = self.txn_stats();
        out.add_counter("txn_commits", commits);
        out.add_counter("txn_aborts", aborts);
        // relaxed: advisory counter.
        let retired = self.aborted_slots.load(Ordering::Relaxed);
        out.add_counter("aborted_slots_retired", retired);
        let index_restarts = self.relations().iter().map(|r| r.index.restarts()).sum();
        out.add_counter("index_restarts", index_restarts);
        // relaxed: advisory counter.
        out.add_counter(
            "maint_contended",
            self.maint_contended.load(Ordering::Relaxed),
        );
        out.add_gauge("active_txns", self.active.lock().len() as f64);
        out.add_gauge("wal_bytes", self.wal.log_bytes() as f64);
        out.add_gauge("wal_file_pages", self.wal.file_pages() as f64);
        let store = &self.snapshots;
        out.add_gauge("snapshot_store_used_bytes", store.used_bytes() as f64);
        out.add_gauge("snapshot_store_free_blocks", store.free_blocks() as f64);
        out.add_gauge("snapshot_generation", store.generation() as f64);
        // relaxed: advisory gauges.
        let micros = store.last_micros.load(Ordering::Relaxed);
        out.add_gauge("last_checkpoint_ms", micros as f64 / 1000.0);
        let pages = store.last_pages.load(Ordering::Relaxed);
        out.add_gauge("last_checkpoint_pages", pages as f64);
    }
}

/// What [`Database::replay_records`] learned from one replay pass.
struct ReplayOutcome {
    /// Table → key → the rid its index entry holds after the tail, for
    /// every key the tail wrote; [`NO_RID`] removes the key.
    pub fixups: BTreeMap<u32, BTreeMap<u64, u64>>,
    /// One past the largest timestamp observed (oracle floor).
    pub max_ts: u64,
    /// One past the largest transaction id observed.
    pub max_txn: u64,
}

/// Hand `f` every entry of `index`, in key order, a chunk at a time.
pub(crate) fn index_chunks(
    index: &BTree,
    mut f: impl FnMut(&[(u64, u64)]) -> Result<()>,
) -> Result<()> {
    let mut start = 0u64;
    loop {
        let chunk = index.scan_from(start, 1024)?;
        let Some(&(last, _)) = chunk.last() else {
            return Ok(());
        };
        f(&chunk)?;
        if last == u64::MAX {
            return Ok(());
        }
        start = last + 1;
    }
}

/// A table's index after the tail: its generation's run (sorted by key)
/// with each fix-up replacing or adding its key's entry, and a [`NO_RID`]
/// fix-up removing it. Sorted by key, as [`BTree::bulk_load`] wants.
fn merge_fixups(run: Vec<(u64, u64)>, fixups: BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(run.len() + fixups.len());
    let mut fixups = fixups.into_iter().peekable();
    for (key, rid) in run {
        while let Some(fix) = fixups.next_if(|&(k, _)| k < key) {
            out.push(fix);
        }
        let rid = fixups.next_if(|&(k, _)| k == key).map_or(rid, |(_, r)| r);
        out.push((key, rid));
    }
    out.extend(fixups);
    out.retain(|&(_, rid)| rid != NO_RID);
    out
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.catalog.read().len())
            // relaxed: debug snapshot of advisory statistics.
            .field("commits", &self.commits.load(Ordering::Relaxed))
            .field("aborts", &self.aborts.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use spitfire_device::DeviceProfile;

    #[test]
    fn a_log_page_is_one_ssd_write_unit() {
        assert_eq!(
            super::LOG_PAGE,
            DeviceProfile::optane_ssd().access_granularity
        );
    }
}
