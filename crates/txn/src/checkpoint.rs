//! Crash-consistent checkpoints (instant restart).
//!
//! Every [`Database::checkpoint`] writes one snapshot generation into the
//! database's [`SnapshotStore`] (built by [`Database::create`]):
//!
//! 1. **Fence.** Under the database's fence gate (new transactions
//!    blocked) the checkpointer waits — bounded — for in-flight
//!    transactions to drain and captures a [`WalFence`] (every appended
//!    record durable in the log file). A non-quiescent database yields
//!    the *retryable* [`TxnError::CheckpointContended`] instead of
//!    silently corrupting state. With the fence, every table *seals* the
//!    slots vacuum retired so far — their cuts happened before the fence,
//!    so the home flush below makes them durable — and hands over its
//!    page list: with no transaction in flight no table is growing, so
//!    the list is exactly the pages allocated before the fence.
//! 2. **Home flush.** The gate drops and transactions resume while every
//!    DRAM copy with data dirt is written to its SSD home and synced
//!    ([`spitfire_core::BufferManager::flush_home`]). An NVM copy such a
//!    DRAM copy shadowed is older than home from then on and is dropped
//!    (16 bytes of header, not a 16 KB reconcile); NVM-resident dirt stays
//!    where it is, because NVM is persistent and recovery adopts it. The
//!    flush is fuzzy — a home image may carry post-fence effects, which
//!    is fine because recovery replays the WAL tail from the fence and
//!    redo rewrites whole version slots idempotently. Pages the flush had
//!    to leave behind (a shadow move in flight, a busy NVM copy, a
//!    fine-grained or mini-page frame — a pin alone never leaves one) are
//!    retried a few times; if any are still left, the checkpoint fails
//!    with `CheckpointContended` and leaves the WAL and the store
//!    untouched, because the WAL may only be truncated once every
//!    pre-fence change is home or in NVM.
//! 3. **Install + truncate.** The main SSD is synced, the index runs, the
//!    page runs (each table's page list at the fence) and the manifest
//!    (the whole WAL fence — LSN and log-file page — oracle state, the
//!    table catalog with per-table watermarks, the list of the runs) are
//!    written, CRC-checked, and atomically installed; the store keeps
//!    this generation and the one before it and reuses every block
//!    neither references. The WAL is then truncated to the *oldest
//!    retained* generation's fence — the previous one, so a CRC-mismatch
//!    fallback one generation back still finds its tail, or this one's
//!    own when it is the only one — and the truncated file pages go back
//!    to the log device. Last, the sealed slots join their tables' free
//!    lists in vacuum order: no record past this generation's fence names
//!    them, so a restart from it never links a chain into a reused slot.
//!    A failed checkpoint keeps its sealed slots for the next one.
//!
//! One edge stays open: a fallback to the *older* retained generation
//! (the newest failed its CRC) replays records from before the newest
//! fence, and those may still link a keeper to a slot released at the
//! newest install.
//!
//! Recovery ([`Database::recover`]) scans the NVM buffer, reads each
//! retained generation once and loads the newest that validates (or an
//! empty one when the store names none), restores tables from its
//! manifest and page runs, bulk-loads indexes from its index runs, and
//! reads and replays only the WAL tail past its fence — the scan starts
//! at the fence's log-file page — where the `CreateTable` records of
//! later tables are and whose writes grow every table over the pages
//! added after the fence. Recovery work is the log since that fence (one
//! interval, two on a fallback), not database size, history or the rest
//! of the retained log. The store's retained generations after recovery
//! are the ones that validated, so the first checkpoint after a restart
//! truncates the log as any other does.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spitfire_core::PageId;

use crate::db::{index_chunks, Database};
use crate::error::TxnError;
use crate::store::{SnapshotStore, TableMeta};
use crate::wal::WalFence;
use crate::Result;

/// How long a checkpoint waits for in-flight transactions to drain before
/// giving up with [`TxnError::CheckpointContended`].
const QUIESCE_WAIT: Duration = Duration::from_millis(250);

/// Retries of the pages a home flush left behind; the n-th waits
/// `FLUSH_BACKOFF << n` first (≈ 5 ms in all).
const FLUSH_RETRIES: u32 = 8;
const FLUSH_BACKOFF: Duration = Duration::from_micros(20);

/// Options of the snapshot store. There are none left; the type stays
/// only as the argument of the [`Database::enable_snapshots`] shim.
#[derive(Debug, Clone, Default)]
pub struct SnapshotConfig {}

/// Counters from one [`Database::checkpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Generation installed.
    pub generation: u64,
    /// DRAM pages the home flush wrote.
    pub pages: usize,
    /// Index entries dumped.
    pub index_entries: usize,
    /// Wall-clock duration in microseconds.
    pub micros: u64,
}

impl Database {
    /// The snapshot store [`Database::create`] built.
    pub fn snapshots(&self) -> &SnapshotStore {
        &self.snapshots
    }

    /// Shim for the repo benchmark, which calls it after `create`: returns
    /// the store [`Database::create`] built and ignores the config. Use
    /// [`Database::snapshots`].
    pub fn enable_snapshots(&self, _cfg: SnapshotConfig) -> Arc<SnapshotStore> {
        Arc::clone(&self.snapshots)
    }

    /// Shim for the repo benchmark: the store [`Database::create`] built,
    /// always `Some`. Use [`Database::snapshots`].
    pub fn snapshot_engine(&self) -> Option<Arc<SnapshotStore>> {
        Some(Arc::clone(&self.snapshots))
    }

    /// Checkpoint the database: write and install one snapshot generation
    /// (see the module docs).
    ///
    /// Requires a quiescent database: new transactions are blocked at the
    /// fence gate and, if in-flight transactions do not drain within a
    /// quarter second, the call fails with the *retryable*
    /// [`TxnError::CheckpointContended`] — it never runs concurrently
    /// with live transactions' durability window. The same error reports
    /// a home flush that could not write every dirty DRAM page.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        let _serial = self.ckpt_serial.lock();
        let started = Instant::now();
        let obs_t = spitfire_obs::op_start();
        let gate = self.fence_gate.write();
        let deadline = Instant::now() + QUIESCE_WAIT;
        while !self.active.lock().is_empty() {
            if Instant::now() >= deadline {
                drop(gate);
                return Err(TxnError::CheckpointContended);
            }
            std::thread::yield_now();
        }
        // Capture everything fence-consistent while quiescent.
        let fence = self.wal.fence()?;
        let oracle_ts = self.oracle.load(Ordering::Acquire);
        let next_txn_id = self.txn_ids.load(Ordering::Acquire);
        let next_page_id = self.bm.page_count();
        let relations = self.relations();
        for rel in &relations {
            rel.table.seal_retired();
        }
        let tables: Vec<(TableMeta, Vec<PageId>)> = relations
            .iter()
            .map(|rel| {
                let meta = TableMeta {
                    id: rel.table.id,
                    tuple_size: rel.table.tuple_size as u32,
                    allocated_slots: rel.table.allocated_slots(),
                };
                (meta, rel.table.data_pages())
            })
            .collect();
        drop(gate); // transactions resume; the flush below is fuzzy

        let pages = self.flush_home()?;
        let (generation, index_entries) =
            self.write_generation(fence, (oracle_ts, next_txn_id, next_page_id), tables)?;
        for rel in &relations {
            rel.table.release_sealed();
        }
        let micros = started.elapsed().as_micros() as u64;
        // relaxed: advisory gauges.
        let store = &self.snapshots;
        store.last_micros.store(micros, Ordering::Relaxed);
        store.last_pages.store(pages as u64, Ordering::Relaxed);
        spitfire_obs::record_since(spitfire_obs::Op::Checkpoint, obs_t);
        Ok(CheckpointStats {
            generation,
            pages,
            index_entries,
            micros,
        })
    }

    /// Write every dirty DRAM page home (see the module docs), retrying
    /// the pages left behind, then sync the main SSD so DRAM evictions'
    /// unsynced home writes are durable too. Returns the pages written.
    fn flush_home(&self) -> Result<usize> {
        let mut flush = self.bm.flush_all_dirty()?;
        let mut written = flush.written;
        for attempt in 0..FLUSH_RETRIES {
            if flush.left_behind.is_empty() {
                break;
            }
            std::thread::sleep(FLUSH_BACKOFF * (1 << attempt));
            flush = self.bm.flush_home(&flush.left_behind)?;
            written += flush.written;
        }
        if !flush.left_behind.is_empty() {
            return Err(TxnError::CheckpointContended);
        }
        self.bm.sync_ssd()?;
        Ok(written)
    }

    /// Stream one snapshot generation — each table's full index dump and
    /// page run, and the manifest — install it, then truncate the WAL to the
    /// oldest retained generation's fence. Returns the generation and the
    /// index entries dumped.
    fn write_generation(
        &self,
        fence: WalFence,
        (oracle_ts, next_txn_id, next_page_id): (u64, u64, u64),
        tables: Vec<(TableMeta, Vec<PageId>)>,
    ) -> Result<(u64, usize)> {
        let mut writer = self.snapshots.begin(fence);
        let mut index_entries = 0usize;
        let mut metas = Vec::with_capacity(tables.len());
        for (meta, pages) in tables {
            index_chunks(&self.relation(meta.id)?.index, |chunk| {
                index_entries += chunk.len();
                writer.index_entries(meta.id, chunk)
            })?;
            writer.page_ids(meta.id, &pages)?;
            metas.push(meta);
        }
        let info = writer.finish(next_page_id, oracle_ts, next_txn_id, metas)?;
        // No recovery reads below the oldest retained fence: the fallback
        // generation's tail starts there.
        if let Some(oldest) = self.snapshots.oldest_fence() {
            self.wal.truncate_to(oldest)?;
        }
        Ok((info.generation, index_entries))
    }
}
