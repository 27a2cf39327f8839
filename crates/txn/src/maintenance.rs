//! Maintenance: version-chain vacuum.
//!
//! MVTO version chains grow with every update. [`Database::vacuum`]
//! truncates each key's chain below the *watermark* — the oldest active
//! transaction timestamp — and recycles the freed slots, bounding the
//! table footprint of long write-heavy runs.
//!
//! Dirty-page flushing is not a service of this crate: the buffer
//! manager's own [`spitfire_core::Maintenance`] workers keep free frames
//! stocked, and [`Database::checkpoint`] flushes both tiers
//! ([`spitfire_core::BufferManager::flush_all_dirty`], then
//! [`spitfire_core::BufferManager::flush_nvm_dirty`] a batch at a time)
//! before it truncates the WAL.

use crate::db::Database;
use crate::mvto::{is_marker, ABORTED};
use crate::table::{Field, Table, NO_RID};
use crate::Result;

/// Counters from one [`Database::vacuum`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumStats {
    /// Version chains inspected.
    pub chains: usize,
    /// Versions unlinked and recycled.
    pub freed: usize,
}

impl Database {
    /// Truncate version chains below the oldest active transaction
    /// timestamp and recycle the freed slots.
    ///
    /// A version is unreachable once a newer *committed* version exists
    /// with `begin ≤ watermark`: every active or future transaction reads
    /// that newer version (or something newer still). Vacuum walks each
    /// chain under its key stripe, cuts at the first such keeper, and
    /// returns everything below the cut to the table's slot free list.
    ///
    /// Note: recycled slots may still be named as `prev` by pre-vacuum log
    /// records. Recovery rebuilds indexes from newest-committed versions
    /// only and fresh transactions never walk below them, so this is
    /// harmless; run [`Database::checkpoint`] before vacuum to truncate
    /// those records entirely.
    pub fn vacuum(&self) -> Result<VacuumStats> {
        let watermark = self.oldest_active_ts();
        let mut stats = VacuumStats::default();
        for rel in self.relations() {
            let (table, index) = (&rel.table, &rel.index);
            let table_id = table.id;
            let mut start = 0u64;
            loop {
                let chunk = index.scan_from(start, 1024)?;
                let Some(&(last_key, _)) = chunk.last() else {
                    break;
                };
                for &(key, _) in &chunk {
                    let _stripe = self.lock_key(table_id, key);
                    // Re-read the head under the stripe (it may have moved).
                    let Some(head) = index.get(key)? else {
                        continue;
                    };
                    stats.chains += 1;
                    let mut rid = head;
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
                            break;
                        }
                        if hdr.prev == NO_RID {
                            break;
                        }
                        rid = hdr.prev;
                    }
                }
                if last_key == u64::MAX {
                    break;
                }
                start = last_key + 1;
            }
        }
        Ok(stats)
    }

    /// Free the chain starting at `rid`: one write visit per version reads
    /// its `prev` and zeroes its header.
    fn free_chain(table: &Table, mut rid: u64) -> Result<usize> {
        let mut freed = 0;
        while rid != NO_RID {
            let visit = table.write_visit(rid)?;
            let prev = visit.header()?.prev;
            visit.clear_header()?;
            table.recycle_slot(rid);
            freed += 1;
            rid = prev;
        }
        Ok(freed)
    }
}
