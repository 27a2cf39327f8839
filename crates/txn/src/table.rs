//! Versioned tuple tables over the buffer manager.
//!
//! A table stores fixed-size tuples in buffer-managed pages. Every tuple
//! *version* occupies one slot: a 40-byte MVTO header (begin timestamp,
//! end timestamp, read timestamp, previous-version record id, key)
//! followed by the payload. Versions are append-only; record ids (RIDs) are dense slot
//! numbers mapped to `(page, offset)` positions.
//!
//! Because version headers live **on pages**, MVTO metadata traffic flows
//! through the buffer manager and the storage hierarchy — this is why the
//! paper observes page writes even on read-only YCSB ("Spitfire updates
//! pages containing meta-data related to the MVTO protocol", §6.4).
//!
//! # Visits
//!
//! Version bytes are reached only through a *visit*: one fetch of the
//! slot's page, one pin held until the visit is dropped, every access
//! through it charged to the tier that holds the page. A visit is the
//! unit the migration policy's coins are defined on (paper §3.5: a page
//! on NVM is promoted "within *n* read requests"): one tuple access is one
//! fetch, so it draws one coin per kind of access it makes, however many
//! fields it touches.
//!
//! **Intent names what the caller came to do.** Lookup, validation and
//! chain walks are [`ReadVisit`]s (`fetch_read`, D_r); anything that
//! changes what a version says is a [`WriteVisit`] (`fetch_write`, D_w),
//! even when it looks before it writes (rollback checks the `end` marker
//! it is about to clear; vacuum reads `prev` from the slot it frees). The
//! one mixed case is a tuple read, which learns only from the header
//! whether it has to record its read timestamp:
//! [`ReadVisit::upgrade`] keeps the pin and charges the stamp its own D_w
//! coin before it lands (see `spitfire_core::ReadGuard::upgrade`).
//!
//! **A stamp is a field write.** Commit, abort, the `end` marker of an
//! update, the read timestamp and vacuum's cut each change one `u64`;
//! [`WriteVisit::stamp`] writes those eight bytes blind. Reading 40 bytes
//! to write 40 back costs a second charged access and, worse, rewrites
//! four fields the caller did not mean to touch. A read timestamp that no
//! live transaction can consult goes through [`WriteVisit::stamp_hint`]:
//! the same write, which the buffer manager may lose instead of writing
//! the page back to SSD for it (`Database::read_into` says when).
//!
//! **What a read costs.** [`ReadVisit::version`] returns header and
//! payload from one charged access (one latency, `slot_size` bytes of
//! bandwidth), so a point read of a DRAM-resident tuple is 1 fetch,
//! 1 read and — when it advances the read timestamp — 1 eight-byte
//! write. An update is a read visit (checks), [`Table::insert_version`]
//! (one write) and a write visit (`end` marker); its commit is a read
//! visit (validation) and two stamps. A thread never holds two visits at
//! once: the old and the new version of an update often share a page,
//! and a page must not be pinned twice by one operation.
//!
//! Visits never grow the table: a rid past the last page is
//! [`TxnError::NotFound`]. Only [`Table::insert_version`] and log replay
//! ([`Table::redo_version`], [`Table::write_visit_or_grow`]) allocate
//! pages.
//!
//! The page list is volatile. Each checkpoint generation stores the list
//! as it stood at its fence, and recovery [`restore`](Table::restore)s the
//! table from it; a page added after the fence is rebuilt by replay, which
//! grows the table to cover every slot the log tail names.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use spitfire_core::{BufferManager, PageId, ReadGuard, WriteGuard};

use crate::error::TxnError;
use crate::mvto::ABORTED;
use crate::Result;

/// Bytes of MVTO header per version slot.
pub const VERSION_HEADER: usize = 40;

/// Record id sentinel: no previous version.
pub const NO_RID: u64 = u64::MAX;

/// MVTO version header stored at the head of each slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionHeader {
    /// Commit timestamp of the creating transaction, or a txn marker
    /// (`MARK` bit) while uncommitted, or `ABORTED`.
    pub begin: u64,
    /// Commit timestamp of the superseding transaction, a txn marker, or
    /// `INF` while current.
    pub end: u64,
    /// Largest transaction timestamp that read this version.
    pub read_ts: u64,
    /// Previous version's RID (`NO_RID` = none).
    pub prev: u64,
    /// The tuple's key, kept with every version.
    pub key: u64,
}

impl VersionHeader {
    fn to_bytes(self) -> [u8; VERSION_HEADER] {
        let mut b = [0u8; VERSION_HEADER];
        b[0..8].copy_from_slice(&self.begin.to_le_bytes());
        b[8..16].copy_from_slice(&self.end.to_le_bytes());
        b[16..24].copy_from_slice(&self.read_ts.to_le_bytes());
        b[24..32].copy_from_slice(&self.prev.to_le_bytes());
        b[32..40].copy_from_slice(&self.key.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8; VERSION_HEADER]) -> Self {
        VersionHeader {
            begin: u64::from_le_bytes(b[0..8].try_into().expect("8 bytes")),
            end: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
            read_ts: u64::from_le_bytes(b[16..24].try_into().expect("8 bytes")),
            prev: u64::from_le_bytes(b[24..32].try_into().expect("8 bytes")),
            key: u64::from_le_bytes(b[32..40].try_into().expect("8 bytes")),
        }
    }
}

/// One `u64` field of a [`VersionHeader`]; the discriminant is its byte
/// offset in the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// [`VersionHeader::begin`].
    Begin = 0,
    /// [`VersionHeader::end`].
    End = 8,
    /// [`VersionHeader::read_ts`].
    ReadTs = 16,
    /// [`VersionHeader::prev`].
    Prev = 24,
    /// [`VersionHeader::key`].
    Key = 32,
}

/// Run `f` on this thread's `len`-byte slot buffer: header and payload
/// are adjacent on the page, so a whole version moves in one charged
/// access through it.
fn with_slot_buf<T>(len: usize, f: impl FnOnce(&mut [u8]) -> T) -> T {
    thread_local! {
        static SLOT_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    SLOT_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0);
        }
        f(&mut buf[..len])
    })
}

/// Decode the header `read` fills in (one guard read at a slot's offset).
fn read_header(read: impl FnOnce(&mut [u8]) -> spitfire_core::Result<()>) -> Result<VersionHeader> {
    let mut b = [0u8; VERSION_HEADER];
    read(&mut b)?;
    Ok(VersionHeader::from_bytes(&b))
}

pub(crate) fn check_tuple_size(expected: usize, got: usize) -> Result<()> {
    if got == expected {
        Ok(())
    } else {
        Err(TxnError::BadTupleSize { expected, got })
    }
}

/// A read-intent visit to one version slot (see the module docs).
#[derive(Debug)]
pub struct ReadVisit<'a> {
    guard: ReadGuard<'a>,
    offset: usize,
    tuple_size: usize,
}

impl<'a> ReadVisit<'a> {
    /// The version's header: one 40-byte access.
    pub fn header(&self) -> Result<VersionHeader> {
        read_header(|b| self.guard.read(self.offset, b))
    }

    /// The whole version — header returned, payload into `payload` (must
    /// be `tuple_size` long) — in one access.
    pub fn version(&self, payload: &mut [u8]) -> Result<VersionHeader> {
        check_tuple_size(self.tuple_size, payload.len())?;
        with_slot_buf(VERSION_HEADER + self.tuple_size, |slot| {
            self.guard.read(self.offset, slot)?;
            let (header, body) = slot.split_at(VERSION_HEADER);
            payload.copy_from_slice(body);
            Ok(VersionHeader::from_bytes(
                header.try_into().expect("header-sized split"),
            ))
        })
    }

    /// Continue as a write visit on the same pin, charging the write its
    /// own D_w coin first (`spitfire_core::ReadGuard::upgrade`). What was
    /// read stays true only under the caller's key stripe.
    pub fn upgrade(self) -> Result<WriteVisit<'a>> {
        Ok(WriteVisit {
            guard: self.guard.upgrade()?,
            offset: self.offset,
            tuple_size: self.tuple_size,
        })
    }
}

/// A write-intent visit to one version slot (see the module docs).
#[derive(Debug)]
pub struct WriteVisit<'a> {
    guard: WriteGuard<'a>,
    offset: usize,
    tuple_size: usize,
}

impl WriteVisit<'_> {
    /// The version's header: one 40-byte access.
    pub fn header(&self) -> Result<VersionHeader> {
        read_header(|b| self.guard.read(self.offset, b))
    }

    /// Set one header field: an 8-byte write that reads nothing and
    /// leaves the other four fields and the payload as they are.
    pub fn stamp(&self, field: Field, value: u64) -> Result<()> {
        Ok(self.guard.write_u64(self.offset + field as usize, value)?)
    }

    /// [`stamp`](Self::stamp) as a hint
    /// ([`WriteGuard::write_u64_hint`]): the stamp may be lost when the
    /// page leaves the buffer tiers without another change.
    pub fn stamp_hint(&self, field: Field, value: u64) -> Result<()> {
        Ok(self
            .guard
            .write_u64_hint(self.offset + field as usize, value)?)
    }

    /// Overwrite the whole version in one access.
    pub fn write_version(&self, header: VersionHeader, payload: &[u8]) -> Result<()> {
        check_tuple_size(self.tuple_size, payload.len())?;
        with_slot_buf(VERSION_HEADER + self.tuple_size, |slot| {
            slot[..VERSION_HEADER].copy_from_slice(&header.to_bytes());
            slot[VERSION_HEADER..].copy_from_slice(payload);
            Ok(self.guard.write(self.offset, slot)?)
        })
    }

    /// Overwrite the payload in place (a transaction re-updating its own
    /// pending version).
    pub fn write_payload(&self, payload: &[u8]) -> Result<()> {
        check_tuple_size(self.tuple_size, payload.len())?;
        Ok(self.guard.write(self.offset + VERSION_HEADER, payload)?)
    }

    /// Clear the header (vacuum): `begin = 0` leaves nothing a reader could
    /// take for a version, and `prev = NO_RID` stops
    /// every chain walk that still reaches the slot — redo may re-link a
    /// keeper to it until the checkpoint that makes the cut durable.
    pub fn clear_header(&self) -> Result<()> {
        let cleared = VersionHeader {
            begin: 0,
            end: 0,
            read_ts: 0,
            prev: NO_RID,
            key: 0,
        };
        Ok(self.guard.write(self.offset, &cleared.to_bytes())?)
    }
}

/// A versioned tuple table.
pub struct Table {
    bm: Arc<BufferManager>,
    /// Table id (stable across restarts).
    pub id: u32,
    /// Payload bytes per tuple.
    pub tuple_size: usize,
    slot_size: usize,
    slots_per_page: usize,
    /// Data pages in slot order.
    pages: RwLock<Vec<PageId>>,
    next_slot: AtomicU64,
    /// Slots reclaimed by vacuum, reused before extending the table.
    free_slots: parking_lot::Mutex<Vec<u64>>,
    /// Slots vacuum freed that no installed checkpoint has released yet.
    retired: parking_lot::Mutex<Retired>,
}

/// A table's vacuumed slots on their way to the free list, each list in
/// vacuum order (see [`Table::retire_slot`]).
#[derive(Default)]
struct Retired {
    /// Freed since the last checkpoint fence.
    open: Vec<u64>,
    /// Freed before a fence whose generation has not installed yet.
    sealed: Vec<u64>,
}

impl Table {
    /// Create an empty table: it allocates its first page when it first
    /// stores a version.
    pub fn create(bm: Arc<BufferManager>, id: u32, tuple_size: usize) -> Self {
        Table::restore(bm, id, tuple_size, Vec::new(), 0)
    }

    /// Rebuild a table from its data pages in slot order and its slot
    /// watermark (recovery): a generation's page run and `allocated_slots`
    /// for a table its manifest lists. Tail redo grows the page list and
    /// raises the watermark past every slot it rewrites
    /// ([`Table::redo_version`]).
    pub fn restore(
        bm: Arc<BufferManager>,
        id: u32,
        tuple_size: usize,
        pages: Vec<PageId>,
        allocated_slots: u64,
    ) -> Self {
        let slot_size = VERSION_HEADER + tuple_size;
        let slots_per_page = bm.page_size() / slot_size;
        assert!(slots_per_page > 0, "tuple larger than a page");
        Table {
            bm,
            id,
            tuple_size,
            slot_size,
            slots_per_page,
            pages: RwLock::new(pages),
            next_slot: AtomicU64::new(allocated_slots),
            free_slots: parking_lot::Mutex::new(Vec::new()),
            retired: parking_lot::Mutex::new(Retired::default()),
        }
    }

    /// Number of version slots per page.
    pub fn slots_per_page(&self) -> usize {
        self.slots_per_page
    }

    /// Number of slots allocated so far.
    pub fn allocated_slots(&self) -> u64 {
        self.next_slot.load(Ordering::Acquire)
    }

    /// Current data pages (snapshot).
    pub fn data_pages(&self) -> Vec<PageId> {
        self.pages.read().clone()
    }

    fn locate(&self, rid: u64) -> (usize, usize) {
        let page_idx = (rid / self.slots_per_page as u64) as usize;
        let offset = (rid % self.slots_per_page as u64) as usize * self.slot_size;
        (page_idx, offset)
    }

    fn page_for(&self, page_idx: usize) -> Result<PageId> {
        {
            let pages = self.pages.read();
            if let Some(pid) = pages.get(page_idx) {
                return Ok(*pid);
            }
        }
        // Grow the table up to page_idx.
        let mut pages = self.pages.write();
        while pages.len() <= page_idx {
            pages.push(self.bm.allocate_page()?);
        }
        Ok(pages[page_idx])
    }

    /// The page holding `page_idx`'s slots, if the table has grown that far.
    fn page_at(&self, page_idx: usize) -> Result<PageId> {
        self.pages
            .read()
            .get(page_idx)
            .copied()
            .ok_or(TxnError::NotFound)
    }

    /// Visit `rid` to read it. A rid past the table's last page is
    /// [`TxnError::NotFound`].
    pub fn read_visit(&self, rid: u64) -> Result<ReadVisit<'_>> {
        let (page_idx, offset) = self.locate(rid);
        Ok(ReadVisit {
            guard: self.bm.fetch_read(self.page_at(page_idx)?)?,
            offset,
            tuple_size: self.tuple_size,
        })
    }

    /// Visit `rid` to change it. A rid past the table's last page is
    /// [`TxnError::NotFound`].
    pub fn write_visit(&self, rid: u64) -> Result<WriteVisit<'_>> {
        let (page_idx, offset) = self.locate(rid);
        self.write_visit_at(self.page_at(page_idx)?, offset)
    }

    /// [`write_visit`](Self::write_visit) that grows the table up to
    /// `rid`'s page first. For the two callers that may name a slot the
    /// page list does not cover yet: [`insert_version`](Self::insert_version)
    /// and log replay (a page added after the generation's fence is in no
    /// page run, while the WAL records that name its slots are in the tail).
    pub fn write_visit_or_grow(&self, rid: u64) -> Result<WriteVisit<'_>> {
        let (page_idx, offset) = self.locate(rid);
        self.write_visit_at(self.page_for(page_idx)?, offset)
    }

    fn write_visit_at(&self, pid: PageId, offset: usize) -> Result<WriteVisit<'_>> {
        Ok(WriteVisit {
            guard: self.bm.fetch_write(pid)?,
            offset,
            tuple_size: self.tuple_size,
        })
    }

    /// Reserve a fresh slot (recycled if available) and write a version
    /// into it with one access. Returns the RID. On any failure the slot
    /// goes (back) to the free list — straight back, since it was never in
    /// a chain — and holds nothing a reader or vacuum could mistake for a
    /// version.
    pub fn insert_version(&self, header: VersionHeader, payload: &[u8]) -> Result<u64> {
        check_tuple_size(self.tuple_size, payload.len())?;
        let recycled = self.free_slots.lock().pop();
        let rid = recycled.unwrap_or_else(|| self.next_slot.fetch_add(1, Ordering::AcqRel));
        let written = self
            .write_visit_or_grow(rid)
            .and_then(|visit| visit.write_version(header, payload));
        match written {
            Ok(()) => Ok(rid),
            Err(e) => {
                self.free_slots.lock().push(rid);
                Err(e)
            }
        }
    }

    /// Redo a logged version into `rid`, growing the table if need be, and
    /// keep the slot allocator from ever re-issuing the slot.
    pub fn redo_version(&self, rid: u64, header: VersionHeader, payload: &[u8]) -> Result<()> {
        self.write_visit_or_grow(rid)?
            .write_version(header, payload)?;
        self.next_slot.fetch_max(rid + 1, Ordering::AcqRel);
        Ok(())
    }

    /// Undo a loser's logged version in `rid` (recovery): stamp it aborted
    /// under its key, growing the table if need be, and keep the slot
    /// allocator from re-issuing the slot — it is reused only through
    /// [`retire_slot`](Self::retire_slot).
    pub(crate) fn undo_version(&self, rid: u64, key: u64) -> Result<()> {
        let slot = self.write_visit_or_grow(rid)?;
        slot.stamp(Field::Begin, ABORTED)?;
        slot.stamp(Field::Key, key)?;
        self.next_slot.fetch_max(rid + 1, Ordering::AcqRel);
        Ok(())
    }

    /// Retire `rid` (vacuum, or an aborted version). The caller must have
    /// already unlinked it from every version chain and either cleared its
    /// header (vacuum) or stamped its `Begin` as `ABORTED` (a rollback or
    /// recovery's undo, after which no chain or index entry leads to it).
    ///
    /// A retired slot is not reused yet: until a checkpoint makes the cut
    /// durable, a crash replays log records that link a keeper back to it.
    /// The checkpoint seals the slots retired before its fence
    /// ([`seal_retired`](Self::seal_retired)) and, once its generation has
    /// installed, moves them to the free list
    /// ([`release_sealed`](Self::release_sealed)).
    pub(crate) fn retire_slot(&self, rid: u64) {
        self.retired.lock().open.push(rid);
    }

    /// Seal every slot retired so far (the checkpoint fence). Slots a
    /// failed checkpoint sealed stay sealed, ahead of these.
    pub(crate) fn seal_retired(&self) {
        let retired = &mut *self.retired.lock();
        retired.sealed.append(&mut retired.open);
    }

    /// Append the sealed slots to the free list in vacuum order (their
    /// checkpoint's generation installed).
    pub(crate) fn release_sealed(&self) {
        let mut sealed = std::mem::take(&mut self.retired.lock().sealed);
        self.free_slots.lock().append(&mut sealed);
    }

    /// Number of slots currently awaiting reuse.
    pub fn recycled_slots(&self) -> usize {
        self.free_slots.lock().len()
    }

    /// The slots awaiting reuse, the next one handed out last (snapshot).
    pub fn free_slots(&self) -> Vec<u64> {
        self.free_slots.lock().clone()
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("id", &self.id)
            .field("tuple_size", &self.tuple_size)
            .field("slots", &self.allocated_slots())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitfire_core::BufferManagerConfig;
    use spitfire_device::TimeScale;

    fn bm() -> Arc<BufferManager> {
        let config = BufferManagerConfig::builder()
            .page_size(1024)
            .dram_capacity(32 * 1024)
            .nvm_capacity(64 * (1024 + 64))
            .time_scale(TimeScale::ZERO)
            .build()
            .unwrap();
        Arc::new(BufferManager::new(config).unwrap())
    }

    fn hdr(begin: u64) -> VersionHeader {
        VersionHeader {
            begin,
            end: u64::MAX,
            read_ts: 0,
            prev: NO_RID,
            key: 7,
        }
    }

    #[test]
    fn header_bytes_round_trip() {
        let h = VersionHeader {
            begin: 1,
            end: 2,
            read_ts: 3,
            prev: 4,
            key: 5,
        };
        assert_eq!(VersionHeader::from_bytes(&h.to_bytes()), h);
    }

    #[test]
    fn insert_read_versions() {
        let t = Table::create(bm(), 1, 100);
        assert_eq!(t.slots_per_page(), 1024 / 140);
        let r0 = t.insert_version(hdr(5), &[7u8; 100]).unwrap();
        let r1 = t.insert_version(hdr(6), &[8u8; 100]).unwrap();
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(t.read_visit(r0).unwrap().header().unwrap().begin, 5);
        let mut buf = [0u8; 100];
        assert_eq!(t.read_visit(r1).unwrap().version(&mut buf).unwrap(), hdr(6));
        assert_eq!(buf, [8u8; 100]);
    }

    #[test]
    fn payload_size_is_validated() {
        let t = Table::create(bm(), 1, 100);
        assert!(matches!(
            t.insert_version(hdr(1), &[0u8; 99]),
            Err(TxnError::BadTupleSize {
                expected: 100,
                got: 99
            })
        ));
        let mut small = [0u8; 10];
        t.insert_version(hdr(1), &[0u8; 100]).unwrap();
        assert!(t.read_visit(0).unwrap().version(&mut small).is_err());
        assert!(t.write_visit(0).unwrap().write_payload(&small).is_err());
    }

    #[test]
    fn visits_never_grow_the_table() {
        let t = Table::create(bm(), 1, 100);
        t.insert_version(hdr(1), &[0u8; 100]).unwrap();
        let stray = t.slots_per_page() as u64 * 3;
        assert_eq!(t.read_visit(stray).unwrap_err(), TxnError::NotFound);
        assert_eq!(t.write_visit(stray).unwrap_err(), TxnError::NotFound);
        assert_eq!(t.data_pages().len(), 1);
        // Redo may name a slot on a page added after the generation's
        // fence, which no page run lists.
        t.redo_version(stray, hdr(2), &[1u8; 100]).unwrap();
        assert_eq!(t.data_pages().len(), 4);
        assert_eq!(t.allocated_slots(), stray + 1);
    }

    #[test]
    fn table_grows_across_pages() {
        let t = Table::create(bm(), 2, 100);
        let spp = t.slots_per_page() as u64;
        for i in 0..spp * 3 + 1 {
            let rid = t.insert_version(hdr(i + 1), &[i as u8; 100]).unwrap();
            assert_eq!(rid, i);
        }
        assert_eq!(t.data_pages().len(), 4);
        let mut buf = [0u8; 100];
        t.read_visit(spp * 2 + 1)
            .unwrap()
            .version(&mut buf)
            .unwrap();
        assert_eq!(buf[0], (spp * 2 + 1) as u8);
    }

    #[test]
    fn header_updates_persist() {
        let t = Table::create(bm(), 3, 64);
        let rid = t.insert_version(hdr(1), &[0u8; 64]).unwrap();
        {
            let visit = t.write_visit(rid).unwrap();
            visit.stamp(Field::ReadTs, 99).unwrap();
            visit.stamp(Field::End, 120).unwrap();
        }
        let expect = VersionHeader {
            read_ts: 99,
            end: 120,
            ..hdr(1)
        };
        assert_eq!(t.read_visit(rid).unwrap().header().unwrap(), expect);
        // A read visit that goes on to write sees and changes the same slot.
        let visit = t.read_visit(rid).unwrap().upgrade().unwrap();
        assert_eq!(visit.header().unwrap(), expect);
        visit.clear_header().unwrap();
        assert_eq!(visit.header().unwrap().begin, 0);
    }

    #[test]
    fn reopen_restores_pages_and_slots() {
        let bm = bm();
        let t = Table::create(Arc::clone(&bm), 4, 100);
        assert!(t.data_pages().is_empty(), "created with no page");
        let spp = t.slots_per_page() as u64;
        for i in 0..spp + 3 {
            t.insert_version(hdr(i + 1), &[i as u8; 100]).unwrap();
        }
        let (pages, next) = (t.data_pages(), t.allocated_slots());
        drop(t);
        let t2 = Table::restore(bm, 4, 100, pages.clone(), next);
        assert_eq!((t2.data_pages(), t2.allocated_slots()), (pages, next));
        let mut buf = [0u8; 100];
        t2.read_visit(spp).unwrap().version(&mut buf).unwrap();
        assert_eq!(buf, [spp as u8; 100]);
        // New inserts continue after the restored watermark.
        let rid = t2.insert_version(hdr(50), &[9u8; 100]).unwrap();
        assert_eq!(rid, next);
    }
}
