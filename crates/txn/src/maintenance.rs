//! Maintenance: version-chain vacuum, and the pass that pairs it with a
//! checkpoint.
//!
//! MVTO version chains grow with every update. [`Database::vacuum`]
//! truncates the chains that grew since its last pass below the
//! *watermark* — the oldest active transaction timestamp — and retires
//! the freed slots; the next checkpoint that installs makes them
//! reusable. [`Database::maintain`] runs one vacuum and one checkpoint
//! per DRAM tier's worth of log, which bounds both the table footprint
//! and the log a restart replays.
//!
//! Dirty-page flushing is not a service of this crate: the buffer
//! manager's own [`spitfire_core::Maintenance`] workers keep free frames
//! stocked, and [`Database::checkpoint`] writes every dirty DRAM page to
//! its SSD home ([`spitfire_core::BufferManager::flush_all_dirty`])
//! before it truncates the WAL; NVM-resident pages are persistent where
//! they lie.

use std::collections::btree_map::Entry;
use std::sync::atomic::Ordering;

use crate::checkpoint::CheckpointStats;
use crate::db::Database;
use crate::error::TxnError;
use crate::mvto::{is_marker, ABORTED};
use crate::table::{Field, Table, NO_RID};
use crate::Result;

/// Counters from one [`Database::vacuum`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumStats {
    /// Version chains walked: the keys that were in debt (every indexed
    /// key on the first pass after a recovery).
    pub chains: usize,
    /// Versions unlinked and retired.
    pub freed: usize,
}

/// What one [`Database::maintain`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// The vacuum.
    pub vacuum: VacuumStats,
    /// The checkpoint; `None` when it was contended.
    pub checkpoint: Option<CheckpointStats>,
}

impl Database {
    /// Run one maintenance pass — [`vacuum`](Self::vacuum), then
    /// [`checkpoint`](Self::checkpoint) — if the log has grown by the top
    /// buffer tier's capacity (DRAM's, or NVM's without one) since the
    /// last pass started; otherwise, or while another pass runs, do
    /// nothing and return `Ok(None)`. Cheap enough to call on every poll
    /// of a monitor loop.
    ///
    /// Every version a commit creates is logged, so the versions made
    /// between two passes never outgrow DRAM, and a restart replays at
    /// most about one interval of log. A pass records where it started
    /// whatever its outcome: a contended checkpoint (an explicit
    /// transaction held open past the fence's quiesce wait) is counted as
    /// `maint_contended` and retried only after another interval of log,
    /// so an open transaction stalls new ones at most once per interval.
    pub fn maintain(&self) -> Result<Option<MaintainStats>> {
        let Some(mut from) = self.maint_from.try_lock() else {
            return Ok(None);
        };
        let config = self.bm.config();
        let interval = if config.dram_capacity > 0 {
            config.dram_capacity
        } else {
            config.nvm_capacity
        };
        let lsn = self.wal.current_lsn();
        if lsn.saturating_sub(*from) < interval as u64 {
            return Ok(None);
        }
        *from = lsn;
        let vacuum = self.vacuum()?;
        let checkpoint = match self.checkpoint() {
            Ok(stats) => Some(stats),
            Err(TxnError::CheckpointContended) => {
                // relaxed: advisory counter.
                self.maint_contended.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(e) => return Err(e),
        };
        Ok(Some(MaintainStats { vacuum, checkpoint }))
    }

    /// Truncate version chains below the oldest active transaction
    /// timestamp and retire the freed slots.
    ///
    /// A version is unreachable once a newer *committed* version exists
    /// with `begin ≤ watermark`: every active or future transaction reads
    /// that newer version (or something newer still). Vacuum walks a chain
    /// under its key stripe, cuts at the first such keeper, and retires
    /// everything below the cut.
    ///
    /// Only a chain *in debt* has anything below a keeper, and commit
    /// recorded which those are and where each starts (see
    /// [`Stripe`](crate::mvto::Stripe)): a pass drains the stripes in
    /// order, each stripe's keys in `(table, key)` order, and touches
    /// neither an index nor a key that was not updated, so it costs what
    /// changed since the last one. An entry whose recorded version an
    /// older reader still keeps above the watermark is cut as far as the
    /// watermark allows and stays for the next pass. The debts are
    /// volatile: the first pass after [`Database::recover`] takes its
    /// keys and chain heads from the indexes instead — every key, once.
    ///
    /// A retired slot is reused only after the next checkpoint that
    /// installs: until its cut is durable, the log records that link the
    /// keeper to it are still replayed after a crash, and a slot reused in
    /// the meantime would put another key's version into the keeper's
    /// chain. A vacuum with no checkpoint after it therefore frees no slot
    /// for inserts (see `Table::retire_slot`).
    pub fn vacuum(&self) -> Result<VacuumStats> {
        let watermark = self.oldest_active_ts();
        let mut stats = VacuumStats::default();
        if self.debts_lost.load(Ordering::Acquire) {
            self.vacuum_indexed(watermark, &mut stats)?;
            // Only a pass that reached every key stands in for the debts.
            self.debts_lost.store(false, Ordering::Release);
            return Ok(stats);
        }
        let catalog = self.catalog.read().clone();
        for index in 0..self.locks.stripe_count() {
            let mut stripe = self.locks.lock_stripe(index);
            let mut failed = None;
            stripe.debts.retain(|&(table_id, _), &mut newest| {
                if failed.is_some() {
                    return true;
                }
                let table = &catalog[&table_id].table;
                match Self::truncate_chain(table, newest, watermark, &mut stats) {
                    Ok(keeper) => keeper != Some(newest),
                    Err(e) => {
                        failed = Some(e);
                        true
                    }
                }
            });
            if let Some(e) = failed {
                return Err(e);
            }
        }
        Ok(stats)
    }

    /// The pass that needs no debts: every indexed key, its chain walked
    /// from the index entry re-read under the stripe.
    fn vacuum_indexed(&self, watermark: u64, stats: &mut VacuumStats) -> Result<()> {
        for rel in self.relations() {
            let (table, index) = (&rel.table, &rel.index);
            let mut start = 0u64;
            loop {
                let chunk = index.scan_from(start, 1024)?;
                let Some(&(last_key, _)) = chunk.last() else {
                    break;
                };
                for &(key, _) in &chunk {
                    let mut stripe = self.locks.lock(table.id, key);
                    // Re-read the head under the stripe (it may have moved).
                    let Some(head) = index.get(key)? else {
                        continue;
                    };
                    let keeper = Self::truncate_chain(table, head, watermark, stats)?;
                    // A commit since the recovery may have put the key in
                    // debt again; this walk settles that too.
                    if let Entry::Occupied(debt) = stripe.debts.entry((table.id, key)) {
                        if keeper == Some(*debt.get()) {
                            debt.remove();
                        }
                    }
                }
                if last_key == u64::MAX {
                    break;
                }
                start = last_key + 1;
            }
        }
        Ok(())
    }

    /// Walk one chain down from `rid` to its keeper, cut the keeper's
    /// `prev` and free everything below. Returns the keeper's rid, `None`
    /// when no version of the chain is below the watermark yet. The
    /// caller holds the key's stripe.
    fn truncate_chain(
        table: &Table,
        mut rid: u64,
        watermark: u64,
        stats: &mut VacuumStats,
    ) -> Result<Option<u64>> {
        stats.chains += 1;
        loop {
            let hdr = table.read_visit(rid)?.header()?;
            let keeper = !is_marker(hdr.begin)
                && hdr.begin != ABORTED
                && hdr.begin != 0
                && hdr.begin <= watermark;
            if keeper {
                if hdr.prev != NO_RID {
                    table.write_visit(rid)?.stamp(Field::Prev, NO_RID)?;
                    stats.freed += Self::free_chain(table, hdr.prev)?;
                }
                return Ok(Some(rid));
            }
            if hdr.prev == NO_RID {
                return Ok(None);
            }
            rid = hdr.prev;
        }
    }

    /// Free the chain starting at `rid`: one write visit per version reads
    /// its `prev` and clears its header, and the slot is retired.
    fn free_chain(table: &Table, mut rid: u64) -> Result<usize> {
        let mut freed = 0;
        while rid != NO_RID {
            let visit = table.write_visit(rid)?;
            let prev = visit.header()?.prev;
            visit.clear_header()?;
            table.retire_slot(rid);
            freed += 1;
            rid = prev;
        }
        Ok(freed)
    }
}
