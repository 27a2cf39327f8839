//! NVM-aware write-ahead log (paper §5.2, Recovery).
//!
//! Log records are first persisted into a shared **NVM log buffer** — a
//! ring in byte-addressable persistent memory, written with `clwb` +
//! `sfence`. A transaction is considered committed as soon as its commit
//! record is persistent in this buffer; no SSD I/O sits on the commit
//! path. When the buffer fills past a threshold its contents are appended
//! to an on-SSD log file and the buffer is recycled.
//!
//! After a crash, the NVM buffer still holds the records that were not yet
//! appended (NVM is persistent); recovery reads the log file from the
//! checkpoint's fence page on and then the live NVM region, which follows
//! the file in the record stream ("the NVM log buffer needs to be appended
//! to the log file since the buffer is persistent").
//!
//! The log labels itself. Each frame names its own LSN, and each log-file
//! page the LSN of its first byte; every retained stretch of the file
//! starts with such a page: the log's first page and each fence's page
//! ([`Wal::fence`]) carry no records, only the LSN the log continues at.
//! So an append persists its frame and nothing else, and a restart
//! reopens the log from two cursor words, at most two pages and one pass
//! over the ring — the base page names where the retained log starts, the
//! last page (its start plus its valid length) where the file ends, and
//! the ring's live region reaches past the last frame that names the LSN
//! its place in the ring gives it when the ring continues the file. A
//! scan checks that each page and each frame names the LSN the stream it
//! has assembled has reached.
//!
//! The log file does not grow with history: each checkpoint's
//! [`Wal::truncate_to`] persists one word, the base page, moving it to
//! the oldest retained generation's fence, and then hands the file pages
//! below it back to the device. Once two generations exist the file holds
//! the log since the older one's fence: the interval between the two
//! fences plus the log since the newest (at most two intervals when the
//! next checkpoint comes). Recovery reads only the tail past its
//! generation's fence ([`Wal::read_from`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use spitfire_device::{
    retry_io, AccessPattern, FaultInjector, NvmDevice, PersistenceTracking, SsdDevice, TimeScale,
};
use spitfire_sync::crc32;

use crate::error::TxnError;
use crate::Result;

/// Types of log records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A new version was installed for a key.
    Update,
    /// A key was inserted.
    Insert,
    /// Transaction committed (carries the commit timestamp in `rid`).
    Commit,
    /// Transaction aborted.
    Abort,
    /// A table was created (`table`: its id, `key`: its tuple size; `rid`
    /// carries nothing, `txn` 0). Durable once appended, as a commit is,
    /// and the only thing table creation writes; replay creates the table,
    /// empty, from it.
    CreateTable,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Update => 1,
            RecordKind::Insert => 2,
            RecordKind::Commit => 3,
            RecordKind::Abort => 4,
            RecordKind::CreateTable => 5,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => RecordKind::Update,
            2 => RecordKind::Insert,
            3 => RecordKind::Commit,
            4 => RecordKind::Abort,
            5 => RecordKind::CreateTable,
            _ => return None,
        })
    }
}

/// One log record (paper: "a log record consists of (1) transaction
/// identifier and page identifier, (2) type of record, (3) log sequence
/// number of previous log record for this transaction, and (4) before and
/// after images"). It borrows its payload: a writer's from the caller, a
/// scanned record's from the scan's stream ([`WalScanReport::records`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord<'a> {
    /// Record type.
    pub kind: RecordKind,
    /// Transaction id.
    pub txn: u64,
    /// Table the write touched or the table created (0 for commit/abort).
    pub table: u32,
    /// Key within the table (the tuple size for CreateTable records).
    pub key: u64,
    /// New version's record id (the commit timestamp for Commit records;
    /// unused by CreateTable records).
    pub rid: u64,
    /// Previous version's record id (`u64::MAX` = none).
    pub prev_rid: u64,
    /// LSN of this transaction's previous record (`u64::MAX` = first).
    pub prev_lsn: u64,
    /// After image (the new payload); before images are reachable through
    /// `prev_rid`, so they are not duplicated in the record.
    pub payload: &'a [u8],
}

/// Framing: len u32 | crc u32 | kind u8 | pad 3 | table u32 | txn u64 |
/// lsn u64 | key u64 | rid u64 | prev_rid u64 | prev_lsn u64 | payload.
/// The CRC covers everything after itself, the LSN included.
const FRAME_HEADER: usize = 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8;

fn le_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

fn le_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

impl<'a> LogRecord<'a> {
    /// Serialized length.
    pub fn frame_len(&self) -> usize {
        FRAME_HEADER + self.payload.len()
    }

    /// The record's frame at `lsn`.
    fn encode(&self, lsn: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.frame_len());
        buf.extend_from_slice(&(self.frame_len() as u32).to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]); // crc placeholder
        buf.push(self.kind.to_byte());
        buf.extend_from_slice(&[0u8; 3]);
        buf.extend_from_slice(&self.table.to_le_bytes());
        buf.extend_from_slice(&self.txn.to_le_bytes());
        buf.extend_from_slice(&lsn.to_le_bytes());
        buf.extend_from_slice(&self.key.to_le_bytes());
        buf.extend_from_slice(&self.rid.to_le_bytes());
        buf.extend_from_slice(&self.prev_rid.to_le_bytes());
        buf.extend_from_slice(&self.prev_lsn.to_le_bytes());
        buf.extend_from_slice(self.payload);
        let crc = crc32(&buf[8..]);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// The length of the frame `buf` starts with, when it is whole, its
    /// CRC matches, its kind is known and it names `lsn`; `None` on a
    /// torn or invalid frame, or a stale one from an earlier pass over the
    /// ring (end of log).
    fn check_frame(buf: &[u8], lsn: u64) -> Option<usize> {
        if buf.len() < FRAME_HEADER {
            return None;
        }
        let len = le_u32(buf, 0) as usize;
        if len < FRAME_HEADER || len > buf.len() {
            return None;
        }
        if le_u64(buf, 24) != lsn || crc32(&buf[8..len]) != le_u32(buf, 4) {
            return None;
        }
        RecordKind::from_byte(buf[8]).map(|_| len)
    }

    /// The record of a frame [`check_frame`](Self::check_frame) accepted
    /// (`frame` is exactly that frame).
    fn parse(frame: &'a [u8]) -> Self {
        LogRecord {
            kind: RecordKind::from_byte(frame[8]).expect("a checked frame"),
            txn: le_u64(frame, 16),
            table: le_u32(frame, 12),
            key: le_u64(frame, 32),
            rid: le_u64(frame, 40),
            prev_rid: le_u64(frame, 48),
            prev_lsn: le_u64(frame, 56),
            payload: &frame[FRAME_HEADER..],
        }
    }
}

/// The write-ahead log: NVM ring buffer + SSD log file.
pub struct Wal {
    /// Dedicated NVM region for the log buffer (separate from the buffer
    /// pool's NVM, as in the paper's shared log buffer). The region below
    /// [`DATA_BASE`] holds the two persistent cursor words; the ring of
    /// frames follows it.
    nvm: NvmDevice,
    state: Mutex<WalState>,
    /// SSD log file: fixed-size pages appended in sequence, each starting
    /// with a [`PAGE_HEADER`].
    file: SsdDevice,
    /// Drain threshold (fraction of the buffer).
    drain_at: usize,
    page_size: usize,
    /// Total bytes ever appended (monotonic LSN source).
    lsn: AtomicU64,
}

/// The log's cursors. The ring head is volatile — a reopen finds it as
/// the end of the frames that continue the file stream — and the other
/// two are each persisted in their own word below [`DATA_BASE`].
struct WalState {
    /// Byte offset of the next append within the NVM buffer.
    head: usize,
    /// Log-file pages appended and synced ([`FILE_PAGES_AT`]).
    file_pages: u64,
    /// The last truncation point. Only its page is persisted
    /// ([`FILE_BASE_AT`]): that page's header names its LSN.
    base: WalFence,
}

/// Byte offset where log records start in the NVM buffer (after the
/// persistent cursors).
const DATA_BASE: usize = 64;

/// Byte offset of the persistent count of synced log-file pages.
const FILE_PAGES_AT: usize = 0;

/// Byte offset of the persistent first-retained-file-page cursor.
const FILE_BASE_AT: usize = 8;

/// A log-file page starts with its valid length (u32) and the LSN of its
/// first byte (u64).
const PAGE_HEADER: usize = 12;

/// Bytes of the ring a reopen reads at a time ([`Wal::ring_end`]).
const RING_PIECE: usize = 64 << 10;

/// A WAL fence: the durable log position captured by a checkpoint. All
/// records appended before the fence have `LSN < lsn` and live entirely in
/// file pages below `file_page` (the fence is taken after a full drain, so
/// the NVM buffer is empty and no record straddles it). `file_page` is the
/// fence's own page: it holds no record and its header names `lsn`, so a
/// log truncated to the fence still tells where it starts. A checkpoint's
/// manifest records the whole fence, so recovery finds the tail by page.
///
/// The default fence, `{0, 0}`, is the start of the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalFence {
    /// First LSN past the fence.
    pub lsn: u64,
    /// The fence's own log-file page; the tail starts on the page after
    /// it.
    pub file_page: u64,
}

/// Outcome of a checked log scan ([`Wal::read_from`]): the clean prefix
/// of the scanned record stream, held once, and how much of each region
/// decoded cleanly. Its records borrow their payloads from it.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct WalScanReport {
    /// The clean prefix: the file portion's frames, then the NVM
    /// buffer's. Every frame in it passed [`LogRecord::check_frame`].
    stream: Vec<u8>,
    /// LSN of the stream's first byte (the scan's start).
    start_lsn: u64,
    /// Bytes reassembled from the SSD log-file pages.
    pub file_bytes: usize,
    /// Bytes of the file stream consumed by CRC-valid frames.
    pub file_consumed: usize,
    /// Bytes in the live region of the NVM log buffer.
    pub nvm_bytes: usize,
    /// Bytes of the NVM region consumed by CRC-valid frames.
    pub nvm_consumed: usize,
    /// `true` when a region held trailing bytes that failed the CRC or
    /// framing checks — a torn or corrupted suffix was cut off and only
    /// the clean prefix was returned.
    pub corrupt: bool,
    /// The first log-file page not wholly inside the clean prefix, and
    /// the stream offset its bytes start at, when the file stream is what
    /// was cut ([`Wal::end_at_clean_prefix`] rewrites that page).
    cut: Option<(u64, usize)>,
}

impl WalScanReport {
    /// The records, in replay order (file portion, then NVM buffer).
    pub fn records(&self) -> impl Iterator<Item = LogRecord<'_>> + Clone + '_ {
        self.frames().map(|(_, record)| record)
    }

    /// Each record's LSN (stream offset of its first byte), counted from
    /// the LSN of the scan's start, in the order of
    /// [`records`](Self::records). Recovery does not filter by them: the
    /// scan starts at the fence, so every record it returns is part of
    /// the tail.
    pub fn lsns(&self) -> impl Iterator<Item = u64> + '_ {
        self.frames().map(|(lsn, _)| lsn)
    }

    fn frames(&self) -> impl Iterator<Item = (u64, LogRecord<'_>)> + Clone + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let rest = &self.stream[at..];
            if rest.is_empty() {
                return None;
            }
            let len = le_u32(rest, 0) as usize;
            let lsn = self.start_lsn + at as u64;
            at += len;
            Some((lsn, LogRecord::parse(&rest[..len])))
        })
    }
}

impl std::fmt::Debug for WalScanReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalScanReport")
            .field("records", &self.records().count())
            .field("file_bytes", &self.file_bytes)
            .field("file_consumed", &self.file_consumed)
            .field("nvm_bytes", &self.nvm_bytes)
            .field("nvm_consumed", &self.nvm_consumed)
            .field("corrupt", &self.corrupt)
            .finish()
    }
}

impl Wal {
    /// Create a WAL with an NVM buffer of `buffer_bytes` draining into an
    /// SSD log file with `page_size` pages.
    pub fn new(
        buffer_bytes: usize,
        page_size: usize,
        scale: TimeScale,
        tracking: PersistenceTracking,
    ) -> Result<Self> {
        assert!(buffer_bytes > DATA_BASE + 1024, "log buffer too small");
        let wal = Wal {
            nvm: NvmDevice::new(buffer_bytes, scale, tracking),
            state: Mutex::new(WalState {
                head: DATA_BASE,
                file_pages: 0,
                base: WalFence::default(),
            }),
            file: SsdDevice::with_tracking(page_size, scale, tracking),
            drain_at: buffer_bytes * 3 / 4,
            page_size,
            lsn: AtomicU64::new(0),
        };
        wal.persist_word(FILE_BASE_AT, 0)?;
        // The log's first page is the default fence's: it names LSN 0.
        wal.fence()?;
        Ok(wal)
    }

    /// Persist one u64 cursor in the reserved region below [`DATA_BASE`].
    fn persist_word(&self, at: usize, value: u64) -> Result<()> {
        retry_io(|| {
            self.nvm
                .write(at, &value.to_le_bytes(), AccessPattern::Random)?;
            self.nvm.persist(at, 8)
        })?;
        Ok(())
    }

    /// Install (or clear) a fault injector on both log devices.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        self.nvm.set_fault_injector(injector.clone());
        self.file.set_fault_injector(injector);
    }

    /// Append a record; durable when this returns (the paper's synchronous
    /// NVM persistence commit path). Returns the record's LSN. The frame
    /// names that LSN, so its one persist is the whole append: no cursor
    /// moves on NVM.
    pub fn append(&self, record: &LogRecord) -> Result<u64> {
        let obs_t = spitfire_obs::op_start();
        let len = record.frame_len();
        let mut state = self.state.lock();
        if state.head + len > self.nvm.capacity() {
            self.drain_locked(&mut state, false)?;
            if state.head + len > self.nvm.capacity() {
                return Err(TxnError::LogRecordTooLarge(len));
            }
        }
        let lsn = self.lsn.load(Ordering::Acquire);
        let bytes = record.encode(lsn);
        let at = state.head;
        retry_io(|| {
            self.nvm.write(at, &bytes, AccessPattern::Sequential)?;
            self.nvm.persist(at, len)
        })?;
        state.head = at + len;
        self.lsn.store(lsn + len as u64, Ordering::Release);
        if state.head >= self.drain_at {
            self.drain_locked(&mut state, false)?;
        }
        spitfire_obs::record_since(spitfire_obs::Op::WalAppend, obs_t);
        Ok(lsn)
    }

    /// Move the NVM buffer's contents to the SSD log file and recycle it;
    /// with `fence`, end the appended pages with an empty one that names
    /// the LSN the log continues at (see [`Wal::fence`]).
    fn drain_locked(&self, state: &mut WalState, fence: bool) -> Result<()> {
        let live = state.head - DATA_BASE;
        if live == 0 && !fence {
            return Ok(());
        }
        let mut buf = vec![0u8; live];
        if live > 0 {
            retry_io(|| {
                self.nvm
                    .read(DATA_BASE, &mut buf, AccessPattern::Sequential)
            })?;
        }
        // Append as page-sized chunks, each behind a header naming its
        // valid length and its first byte's LSN, so partial pages from
        // different drains stitch back into one record stream. A failed
        // drain leaves `file_pages` where it was: the retry rewrites the
        // same pages with the same records.
        let mut lsn = self.lsn.load(Ordering::Acquire) - live as u64;
        let mut pid = state.file_pages;
        let chunks = buf.chunks(self.page_size - PAGE_HEADER);
        for chunk in chunks.chain(fence.then_some(&[][..])) {
            let page = self.log_page(lsn, chunk);
            retry_io(|| self.file.append_page(pid, &page))?;
            pid += 1;
            lsn += chunk.len() as u64;
        }
        // Durability barrier before recycling the buffer: the file pages
        // must reach stable storage before the page count names them. That
        // count is the drain's one NVM write: the ring's frames stay, but
        // they name LSNs below the file's new end, so a reopen keeps none
        // of them. A crash between the sync and the count persist leaves
        // the file ending where it did, and the ring's frames, which
        // continue from there, replay once.
        retry_io(|| self.file.sync())?;
        self.persist_word(FILE_PAGES_AT, pid)?;
        state.file_pages = pid;
        state.head = DATA_BASE;
        Ok(())
    }

    /// A log-file page holding `bytes`, the first of which is at `lsn`.
    fn log_page(&self, lsn: u64, bytes: &[u8]) -> Vec<u8> {
        let mut page = vec![0u8; self.page_size];
        page[..4].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
        page[4..PAGE_HEADER].copy_from_slice(&lsn.to_le_bytes());
        page[PAGE_HEADER..PAGE_HEADER + bytes.len()].copy_from_slice(bytes);
        page
    }

    /// Force the NVM buffer into the log file (checkpoint, shutdown).
    pub fn drain(&self) -> Result<()> {
        let mut state = self.state.lock();
        self.drain_locked(&mut state, false)
    }

    /// Capture a fence: drain the NVM buffer so every appended record is
    /// in the log file, append and sync the fence's own empty page (its
    /// header names the fence LSN), then record the durable log position.
    /// Used by the checkpointer; see [`WalFence`].
    pub fn fence(&self) -> Result<WalFence> {
        let mut state = self.state.lock();
        self.drain_locked(&mut state, true)?;
        Ok(WalFence {
            lsn: self.lsn.load(Ordering::Acquire),
            file_page: state.file_pages - 1,
        })
    }

    /// Truncate everything before `fence`: persist `fence.file_page` as
    /// the base page — one word; the page's header names `fence.lsn` — and
    /// give the file pages `[old base, fence.file_page)` back to the
    /// device ([`SsdDevice::discard`]), so the log file occupies its live
    /// pages, not every page it was ever handed. A checkpoint truncates to
    /// the oldest retained generation's fence so a CRC-mismatch fallback
    /// one generation back still finds its WAL tail. A crash before the
    /// persist leaves the log untruncated; one after it and before the
    /// discard strands the pages (unread, one interval at most); neither
    /// loses a live page or moves an LSN.
    pub fn truncate_to(&self, fence: WalFence) -> Result<()> {
        let mut state = self.state.lock();
        let old_base = state.base.file_page;
        if fence.file_page <= old_base {
            return Ok(());
        }
        self.persist_word(FILE_BASE_AT, fence.file_page)?;
        state.base = fence;
        self.file.discard(old_base..fence.file_page);
        Ok(())
    }

    /// Bytes of live log: everything appended past the last truncation
    /// point (including records still pending in the NVM buffer). What
    /// [`Database::maintain`](crate::Database::maintain) paces its passes
    /// by is [`current_lsn`](Self::current_lsn), which truncation does not
    /// move back.
    pub fn log_bytes(&self) -> u64 {
        self.lsn.load(Ordering::Acquire) - self.state.lock().base.lsn
    }

    /// LSN one past the last appended byte.
    pub fn current_lsn(&self) -> u64 {
        self.lsn.load(Ordering::Acquire)
    }

    /// The last truncation point: where the retained log starts. A scan
    /// of the whole retained log is [`read_from`](Self::read_from) it.
    pub fn base(&self) -> WalFence {
        self.state.lock().base
    }

    /// Simulate power loss on the log devices (volatile caches dropped),
    /// then remount: the volatile cursors are restored from the two
    /// persistent words, two log-file pages and one pass over the ring
    /// (`ring_end`), exactly as a restart re-opening the log would.
    pub fn simulate_crash(&self) {
        self.nvm.simulate_crash();
        self.file.simulate_crash();
        let mut word = [0u8; 8];
        let mut read_word = |at: usize| -> Option<u64> {
            self.nvm
                .read(at, &mut word, AccessPattern::Random)
                .ok()
                .map(|()| u64::from_le_bytes(word))
        };
        let mut state = self.state.lock();
        if let Some(n) = read_word(FILE_PAGES_AT) {
            state.file_pages = n;
        }
        if let Some(base) = read_word(FILE_BASE_AT) {
            state.base.file_page = base;
        }
        // Two pages rebuild the LSN cursors: the base page names the base
        // LSN, and the last synced page's start plus its valid length is
        // where the file stream ends; the live NVM region follows it.
        // Un-synced file pages evaporated with the crash, but their
        // records still sit in the NVM buffer (the drain recycles it only
        // after the page count names them), so they are counted exactly
        // once.
        //
        // A page torn before its first media block reads as zeros, and an
        // unreadable one reads as nothing; neither names an LSN, so each
        // search moves one page inwards past it. The page after a torn
        // base page names the same LSN (a fence's page holds no bytes);
        // before a torn last page the file ends where the page before it
        // does, so its lost bytes are not counted and the next drain
        // continues the stream there. Page 0 is taken as it reads: the
        // log's own first page names LSN 0 and no bytes, torn or not. Past
        // it, such a page is skipped even when it is not torn, which finds
        // the same LSN: until something is appended every page names 0.
        let header = |pid: u64| {
            let mut page = vec![0u8; self.page_size];
            retry_io(|| self.file.read_page(pid, &mut page)).ok()?;
            Some(page_header(&page)).filter(|&named| pid == 0 || named != (0, 0))
        };
        let pages = state.base.file_page..state.file_pages;
        state.base.lsn = pages.clone().find_map(header).map_or(0, |(start, _)| start);
        let end = pages.rev().find_map(header);
        let end = end.map_or(state.base.lsn, |(start, valid)| start + valid as u64);
        if let Some(head) = self.ring_end(end) {
            state.head = head;
        }
        self.lsn
            .store(end + (state.head - DATA_BASE) as u64, Ordering::Release);
    }

    /// Where the ring's live region ends when the file stream ends at
    /// `lsn`: past the last frame anywhere in the ring that names the LSN
    /// its place gives it in this pass — `lsn` plus its offset from
    /// [`DATA_BASE`]. Every frame appended since the last drain does; a
    /// drained frame, or one from any earlier pass, names an older LSN.
    /// Normally the region is the run of frames from the ring's start,
    /// ended by a stale frame, zeros or a frame torn by the crash. But an
    /// append can report success without persisting (a torn write or a
    /// dropped flush) and later appends persist: the region then spans
    /// the gap, so the scan of it reports the gap as corrupt and recovery
    /// cuts the ring there ([`end_at_clean_prefix`](Self::end_at_clean_prefix)).
    /// Ended at the gap, the region would let new frames take the gap's
    /// LSNs while the old ones past it still name the LSNs that follow,
    /// to be spliced in once a new frame ends where one of them starts.
    /// The bytes at the gap do not tell the two cases apart — a lost
    /// write of one media block or less leaves zeros or a stale frame, as
    /// a clean end does — so every offset past the run is checked, the
    /// ring read in pieces of [`RING_PIECE`] bytes. `None` when the ring
    /// cannot be read.
    fn ring_end(&self, lsn: u64) -> Option<usize> {
        let ring = self.nvm.capacity() - DATA_BASE;
        // `piece` holds the ring's bytes from offset `from`.
        let (mut piece, mut from) = (Vec::new(), 0);
        let (mut at, mut end) = (0, 0);
        while at + FRAME_HEADER <= ring {
            if at + FRAME_HEADER > from + piece.len() {
                from = at;
                self.read_ring(from, RING_PIECE, &mut piece)?;
            }
            let named = lsn + at as u64;
            let header = &piece[at - from..];
            let len = le_u32(header, 0) as usize;
            if le_u64(header, 24) != named || len < FRAME_HEADER || at + len > ring {
                at += 1;
                continue;
            }
            if at + len > from + piece.len() {
                from = at;
                self.read_ring(from, len.max(RING_PIECE), &mut piece)?;
            }
            match LogRecord::check_frame(&piece[at - from..], named) {
                Some(len) => {
                    at += len;
                    end = at;
                }
                None => at += 1,
            }
        }
        Some(DATA_BASE + end)
    }

    /// Read up to `len` bytes of the ring from offset `at` into `piece`.
    fn read_ring(&self, at: usize, len: usize, piece: &mut Vec<u8>) -> Option<()> {
        piece.resize(len.min(self.nvm.capacity() - DATA_BASE - at), 0);
        retry_io(|| {
            self.nvm
                .read(DATA_BASE + at, piece, AccessPattern::Sequential)
        })
        .ok()
    }

    /// Read the log from `fence` on — the SSD file pages after the fence's
    /// own page in one sequential request
    /// ([`SsdDevice::read_pages`]), then the live region of the
    /// (persistent) NVM buffer — labelling the first byte `fence.lsn`, and
    /// report how much of each region decoded cleanly. Used by recovery
    /// with its generation's fence, so it reads only the tail it replays,
    /// and with [`base`](Self::base) to read the whole retained log.
    /// Every frame is CRC-checked and must name the LSN the stream has
    /// reached; a torn, corrupted or misplaced frame ends the stream at
    /// the last clean record and sets [`WalScanReport::corrupt`]. So does
    /// a page whose header names another LSN than the one the stream has
    /// reached — a stale page, or one torn before its first media block,
    /// which reads as zeros — so such a page is never spliced in. A file
    /// page missing because a
    /// crash hit between append and fsync is benign (the read stops
    /// there): the drain had not recycled the NVM buffer yet, so those
    /// records are still decoded from NVM.
    ///
    /// A fence outside the live file — below the base page (truncated
    /// away) or at or past the end of the synced pages — is
    /// [`TxnError::Corrupt`]: the log no longer holds (or never held) the
    /// tail it names.
    pub fn read_from(&self, fence: WalFence) -> Result<WalScanReport> {
        let state = self.state.lock();
        let (file_base, n_pages) = (state.base.file_page, state.file_pages);
        let pending = state.head - DATA_BASE;
        drop(state);
        if fence.file_page < file_base {
            return Err(TxnError::Corrupt("WAL fence below the log's base"));
        }
        if fence.file_page >= n_pages {
            return Err(TxnError::Corrupt("WAL fence past the log's end"));
        }
        // One buffer holds the whole tail: the file pages past the fence's
        // own (empty) page are read into it in one request and compacted
        // in place to their valid bytes (pages are contiguous records
        // chunked at page boundaries, and a fence ends a drain, so the
        // stream starts on a frame), and the NVM region is read in after
        // them, into room sized by the buffer's head (a restart finds it
        // as the end of the frames that continue the file stream).
        let ps = self.page_size;
        let pages = fence.file_page + 1..n_pages;
        let run = (n_pages - pages.start) as usize * ps;
        let mut stream = vec![0u8; run + pending];
        let read = retry_io(|| self.file.read_pages(pages.clone(), &mut stream[..run]))?;
        // Each in-sequence page's stream offset and valid length.
        let mut spans = Vec::with_capacity(read);
        let mut len = 0;
        let mut in_sequence = true;
        for page in (0..read).map(|i| i * ps) {
            let (start, valid) = page_header(&stream[page..page + ps]);
            in_sequence = start == fence.lsn + len as u64;
            if !in_sequence {
                break;
            }
            stream.copy_within(page + PAGE_HEADER..page + PAGE_HEADER + valid, len);
            spans.push((len, valid));
            len += valid;
        }
        let mut report = WalScanReport {
            start_lsn: fence.lsn,
            file_bytes: len,
            file_consumed: check_stream(&stream[..len], fence.lsn),
            ..WalScanReport::default()
        };
        if !in_sequence || report.file_consumed < report.file_bytes {
            // A page out of sequence, or torn/corrupt bytes inside the
            // file stream: everything after them — including the NVM
            // region, which is later in the log — is past the clean
            // prefix and must not be replayed. The cut falls in the first
            // page that reaches past the clean bytes, or else on the page
            // out of sequence.
            let clean = report.file_consumed;
            let i = spans
                .iter()
                .position(|&(at, valid)| at + valid > clean)
                .unwrap_or(spans.len());
            let at = spans.get(i).map_or(len, |&(at, _)| at);
            report.cut = Some((pages.start + i as u64, at));
            report.corrupt = true;
            stream.truncate(clean);
            report.stream = stream;
            return Ok(report);
        }
        // NVM buffer portion: its frames sit in the stream directly after
        // the drained file bytes.
        if pending > 0 {
            let live = &mut stream[len..len + pending];
            retry_io(|| self.nvm.read(DATA_BASE, live, AccessPattern::Sequential))?;
            report.nvm_bytes = pending;
            report.nvm_consumed = check_stream(live, fence.lsn + len as u64);
            report.corrupt = report.nvm_consumed < report.nvm_bytes;
            len += report.nvm_consumed;
        }
        stream.truncate(len);
        report.stream = stream;
        Ok(report)
    }

    /// Make a scan's clean prefix the end of the log, so what is appended
    /// next continues it: recovery calls this with its tail scan, before
    /// anything is appended. A no-op on a clean scan. Otherwise the ring
    /// past the clean frames is zeroed first, up to its head — the log's
    /// end moves back, so LSNs past it will be named again, and no old
    /// frame may then pass for a new one — and when the cut is in the
    /// file, all of the ring is zeroed, the page it
    /// falls in is rewritten with only its clean bytes and synced, the
    /// page count is persisted right after it, and the pages past it are
    /// given back. Without this the next drain would append behind the
    /// tear, and every later scan from before it would stop there again.
    /// A crash at any step leaves a log the next recovery cuts the same
    /// way.
    pub fn end_at_clean_prefix(&self, scan: &WalScanReport) -> Result<()> {
        if !scan.corrupt {
            return Ok(());
        }
        let mut state = self.state.lock();
        // A cut in the file leaves the ring no frame to keep, and moves
        // the log's end below the ring's first LSN, where a drained frame
        // may name one the stream will reach again: all of the ring goes.
        // A cut in the ring keeps the ring's LSNs where they are, and no
        // frame past the head names one of them (`ring_end`).
        let (head, upto) = if scan.cut.is_some() {
            (DATA_BASE, self.nvm.capacity())
        } else {
            (DATA_BASE + scan.nvm_consumed, state.head)
        };
        let zeros = vec![0u8; upto - head];
        retry_io(|| {
            self.nvm.write(head, &zeros, AccessPattern::Sequential)?;
            self.nvm.persist(head, zeros.len())
        })?;
        if let Some((pid, at)) = scan.cut {
            let page = self.log_page(scan.start_lsn + at as u64, &scan.stream[at..]);
            retry_io(|| self.file.write_page(pid, &page))?;
            retry_io(|| self.file.sync())?;
            self.persist_word(FILE_PAGES_AT, pid + 1)?;
            self.file.discard(pid + 1..state.file_pages);
            state.file_pages = pid + 1;
        }
        state.head = head;
        self.lsn
            .store(scan.start_lsn + scan.stream.len() as u64, Ordering::Release);
        Ok(())
    }

    /// Bytes currently pending in the NVM buffer.
    pub fn pending_bytes(&self) -> usize {
        self.state.lock().head - DATA_BASE
    }

    /// Change the emulated-delay scale on the log devices.
    pub fn set_time_scale(&self, scale: TimeScale) {
        self.nvm.set_time_scale(scale);
        self.file.set_time_scale(scale);
    }

    /// Pages the log file occupies on its device (live pages only: a
    /// truncation gives its prefix back).
    pub fn file_pages(&self) -> usize {
        self.file.page_count()
    }

    /// Device statistics for the NVM log buffer.
    pub fn nvm_stats(&self) -> std::sync::Arc<spitfire_device::DeviceStats> {
        self.nvm.stats()
    }

    /// Device statistics for the SSD log file.
    pub fn file_stats(&self) -> std::sync::Arc<spitfire_device::DeviceStats> {
        self.file.stats()
    }
}

/// A log-file page's header: the LSN of its first byte and its valid
/// length (capped to the page, so a torn header cannot overrun it).
fn page_header(page: &[u8]) -> (u64, usize) {
    let valid = le_u32(page, 0) as usize;
    (le_u64(page, 4), valid.min(page.len() - PAGE_HEADER))
}

/// The number of bytes the valid frames at the start of `buf` take, the
/// first of which must name `lsn` and each next one the LSN the one
/// before it ends at: the clean prefix a scan keeps.
fn check_stream(buf: &[u8], lsn: u64) -> usize {
    let mut consumed = 0;
    while let Some(len) = LogRecord::check_frame(&buf[consumed..], lsn + consumed as u64) {
        consumed += len;
    }
    consumed
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Wal")
            .field("pending_bytes", &(state.head - DATA_BASE))
            .field("file_pages", &state.file_pages)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record whose payload is leaked, so a test's expected records
    /// outlive the temporaries their payloads are built from.
    fn record(txn: u64, kind: RecordKind, payload: &[u8]) -> LogRecord<'static> {
        LogRecord {
            kind,
            txn,
            table: 1,
            key: 42,
            rid: 7,
            prev_rid: u64::MAX,
            prev_lsn: u64::MAX,
            payload: payload.to_vec().leak(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        for kind in [
            RecordKind::Update,
            RecordKind::Insert,
            RecordKind::Commit,
            RecordKind::Abort,
            RecordKind::CreateTable,
        ] {
            let r = record(9, kind, b"hello world");
            let bytes = r.encode(1234);
            assert_eq!(bytes.len(), r.frame_len());
            assert_eq!(LogRecord::check_frame(&bytes, 1234), Some(bytes.len()));
            assert_eq!(LogRecord::parse(&bytes), r);
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let r = record(9, RecordKind::Commit, b"x");
        let mut bytes = r.encode(0);
        bytes[20] ^= 0xFF;
        assert!(LogRecord::check_frame(&bytes, 0).is_none());
        // Truncated frame.
        let bytes = r.encode(0);
        assert!(LogRecord::check_frame(&bytes[..bytes.len() - 1], 0).is_none());
        // Empty/zero region (the padding case).
        assert!(LogRecord::check_frame(&[0u8; 128], 0).is_none());
        // A whole frame at another LSN: a stale frame from an earlier
        // pass over the ring.
        let bytes = r.encode(64);
        assert!(LogRecord::check_frame(&bytes, 0).is_none());
        assert_eq!(LogRecord::check_frame(&bytes, 64), Some(bytes.len()));
    }

    fn txns(report: &WalScanReport) -> Vec<u64> {
        report.records().map(|r| r.txn).collect()
    }

    fn wal() -> Wal {
        Wal::new(8192, 1024, TimeScale::ZERO, PersistenceTracking::Full).unwrap()
    }

    #[test]
    fn append_and_read_back() {
        let w = wal();
        let mut expect = Vec::new();
        for i in 0..10u64 {
            let r = record(i, RecordKind::Update, &[i as u8; 33]);
            w.append(&r).unwrap();
            expect.push(r);
        }
        assert_eq!(
            w.read_from(w.base()).unwrap().records().collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn drain_moves_records_to_file_and_preserves_order() {
        let w = wal();
        let mut expect = Vec::new();
        for i in 0..8u64 {
            let r = record(i, RecordKind::Insert, &[0xAB; 100]);
            w.append(&r).unwrap();
            expect.push(r);
        }
        w.drain().unwrap();
        assert_eq!(w.pending_bytes(), 0);
        // More records after the drain land in the NVM buffer.
        let r = record(99, RecordKind::Commit, &[]);
        w.append(&r).unwrap();
        expect.push(r);
        assert_eq!(
            w.read_from(w.base()).unwrap().records().collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn auto_drain_when_threshold_reached() {
        let w = wal();
        // Each record ~ 564 bytes; the 8 KB buffer drains automatically.
        for i in 0..40u64 {
            w.append(&record(i, RecordKind::Update, &[1u8; 500]))
                .unwrap();
        }
        assert_eq!(w.read_from(w.base()).unwrap().records().count(), 40);
        assert!(w.pending_bytes() < 8192);
    }

    #[test]
    fn unpersisted_tail_lost_on_crash_but_persisted_survives() {
        let w = wal();
        for i in 0..5u64 {
            w.append(&record(i, RecordKind::Update, b"durable"))
                .unwrap();
        }
        // Crash: appended records were persisted record-by-record.
        w.simulate_crash();
        let recovered = w.read_from(w.base()).unwrap();
        assert_eq!(recovered.records().count(), 5);
        assert!(recovered.records().all(|r| r.payload == b"durable"));
    }

    #[test]
    fn oversized_record_is_rejected() {
        let w = wal();
        let r = record(1, RecordKind::Update, &vec![0u8; 10_000]);
        assert!(matches!(w.append(&r), Err(TxnError::LogRecordTooLarge(_))));
    }

    #[test]
    fn torn_file_frame_is_caught_by_crc_and_prefix_survives() {
        use spitfire_device::{DeviceKind, FaultKind, FaultOp, FaultPlan, FaultRule, Trigger};
        let w = wal();
        // 6 records of 184 bytes: the drain produces one full file page and
        // one partial one.
        for i in 0..6u64 {
            w.append(&record(i, RecordKind::Update, &[i as u8; 120]))
                .unwrap();
        }
        // Tear the first file-page append of the drain: a full page always
        // loses at least one 256-byte media block, so the stream is cut
        // mid-record no matter which blocks survive.
        let plan = FaultPlan::new(7).rule(
            FaultRule::any(Trigger::NthOp(1), FaultKind::TornWrite)
                .on_device(DeviceKind::Ssd)
                .on_op(FaultOp::Write),
        );
        let inj = Arc::new(FaultInjector::new(plan));
        w.set_fault_injector(Some(Arc::clone(&inj)));
        // The torn write succeeds from the device's point of view.
        w.drain().unwrap();
        w.set_fault_injector(None);
        assert_eq!(inj.stats().torn, 1);
        let report = w.read_from(w.base()).unwrap();
        assert!(report.corrupt, "torn frame must be flagged");
        assert!(report.file_consumed < report.file_bytes);
        assert!(report.records().count() < 6, "some records must be cut off");
        // Whatever survived is the *clean prefix*, in order from the start.
        for (i, r) in report.records().enumerate() {
            assert_eq!(r.txn, i as u64);
        }
    }

    #[test]
    fn drained_records_survive_crash_via_file_sync() {
        let w = wal();
        let mut expect = Vec::new();
        for i in 0..6u64 {
            let r = record(i, RecordKind::Update, &[i as u8; 120]);
            w.append(&r).unwrap();
            expect.push(r);
        }
        w.drain().unwrap();
        // One more record that persists only in the NVM buffer.
        let r = record(9, RecordKind::Commit, &[]);
        w.append(&r).unwrap();
        expect.push(r);
        // Power loss: the drained file pages were fsynced, the tail is in
        // persistent NVM, and the remounted cursors find both.
        w.simulate_crash();
        assert_eq!(
            w.read_from(w.base()).unwrap().records().collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn failed_drain_sync_keeps_records_in_nvm() {
        use spitfire_device::{DeviceKind, FaultKind, FaultOp, FaultPlan, FaultRule, Trigger};
        let w = wal();
        let mut expect = Vec::new();
        for i in 0..6u64 {
            let r = record(i, RecordKind::Update, &[i as u8; 120]);
            w.append(&r).unwrap();
            expect.push(r);
        }
        let plan = FaultPlan::new(3).rule(
            FaultRule::any(Trigger::Always, FaultKind::Fatal)
                .on_device(DeviceKind::Ssd)
                .on_op(FaultOp::Sync),
        );
        w.set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
        // The fsync barrier fails fatally: the drain errors out *without*
        // recycling the NVM buffer.
        assert!(w.drain().is_err());
        w.set_fault_injector(None);
        assert_eq!(
            w.pending_bytes(),
            expect.iter().map(LogRecord::frame_len).sum::<usize>()
        );
        // Crash: the un-synced file pages evaporate, but every record is
        // still in the persistent NVM buffer.
        w.simulate_crash();
        assert_eq!(
            w.read_from(w.base()).unwrap().records().collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn scan_reports_parallel_lsns() {
        let w = wal();
        let mut expect_lsns = Vec::new();
        let mut at = 0u64;
        for i in 0..6u64 {
            let r = record(i, RecordKind::Update, &[i as u8; 50]);
            let lsn = w.append(&r).unwrap();
            assert_eq!(lsn, at);
            expect_lsns.push(at);
            at += r.frame_len() as u64;
        }
        // LSNs survive the move from NVM to the file: drain mid-stream.
        w.drain().unwrap();
        w.append(&record(6, RecordKind::Commit, &[])).unwrap();
        expect_lsns.push(at);
        let report = w.read_from(w.base()).unwrap();
        assert_eq!(report.records().count(), report.lsns().count());
        assert_eq!(report.lsns().collect::<Vec<_>>(), expect_lsns);
        assert_eq!(w.current_lsn(), w.log_bytes());
    }

    #[test]
    fn corrupt_mid_record_cuts_the_clean_prefix() {
        let w = wal();
        for i in 0..4u64 {
            w.append(&record(i, RecordKind::Update, &[i as u8; 40]))
                .unwrap();
        }
        // Flip one payload byte in the middle of the *second* record,
        // directly in the persistent NVM buffer.
        let second_at = DATA_BASE + record(0, RecordKind::Update, &[0u8; 40]).frame_len();
        let mut b = [0u8; 1];
        w.nvm
            .read(second_at + FRAME_HEADER + 10, &mut b, AccessPattern::Random)
            .unwrap();
        b[0] ^= 0x01;
        w.nvm
            .write(second_at + FRAME_HEADER + 10, &b, AccessPattern::Random)
            .unwrap();
        w.nvm.persist(second_at + FRAME_HEADER + 10, 1).unwrap();

        let report = w.read_from(w.base()).unwrap();
        assert!(report.corrupt, "mid-record corruption must be flagged");
        // Only the first record survives: the CRC failure ends the stream
        // even though records 3 and 4 are intact after the bad frame.
        assert_eq!(txns(&report), vec![0]);
        assert!(report.nvm_consumed < report.nvm_bytes);
    }

    #[test]
    fn clean_scan_consumes_both_regions_exactly() {
        let w = wal();
        for i in 0..5u64 {
            w.append(&record(i, RecordKind::Update, &[1u8; 80]))
                .unwrap();
        }
        w.drain().unwrap();
        w.append(&record(9, RecordKind::Commit, &[])).unwrap();
        let report = w.read_from(w.base()).unwrap();
        assert!(!report.corrupt);
        assert_eq!(report.file_consumed, report.file_bytes);
        assert_eq!(report.nvm_consumed, report.nvm_bytes);
        assert_eq!(report.records().count(), 6);
    }

    #[test]
    fn truncation_interplay_with_corrupt_tail() {
        let w = wal();
        for i in 0..5u64 {
            w.append(&record(i, RecordKind::Update, b"pre")).unwrap();
        }
        let fence = w.fence().unwrap();
        w.truncate_to(fence).unwrap();
        // Post-truncation records only; the old file pages must not leak
        // back into the scan.
        for i in 10..13u64 {
            w.append(&record(i, RecordKind::Update, &[2u8; 30]))
                .unwrap();
        }
        let report = w.read_from(w.base()).unwrap();
        assert!(!report.corrupt);
        assert_eq!(txns(&report), vec![10, 11, 12]);
        // LSNs keep counting across the truncation (monotonic stream).
        assert_eq!(report.lsns().next(), Some(w.base().lsn));
        // Now corrupt the newest record's tail: the clean prefix is the
        // post-truncation records minus the damaged one.
        let head = w.state.lock().head;
        let last_len = record(12, RecordKind::Update, &[2u8; 30]).frame_len();
        let at = head - last_len + FRAME_HEADER;
        w.nvm.write(at, &[0xEE], AccessPattern::Random).unwrap();
        w.nvm.persist(at, 1).unwrap();
        let report = w.read_from(w.base()).unwrap();
        assert!(report.corrupt);
        assert_eq!(txns(&report), vec![10, 11]);
    }

    #[test]
    fn fence_and_truncate_to_keep_only_the_tail() {
        let w = wal();
        for i in 0..5u64 {
            w.append(&record(i, RecordKind::Update, &[3u8; 60]))
                .unwrap();
        }
        let fence = w.fence().unwrap();
        assert_eq!(w.pending_bytes(), 0, "fence drains the buffer");
        for i in 5..8u64 {
            w.append(&record(i, RecordKind::Update, &[4u8; 60]))
                .unwrap();
        }
        // Before truncation the full stream is visible; the fence splits
        // it by LSN.
        let report = w.read_from(w.base()).unwrap();
        let past: Vec<u64> = report
            .records()
            .zip(report.lsns())
            .filter(|&(_, lsn)| lsn >= fence.lsn)
            .map(|(r, _)| r.txn)
            .collect();
        assert_eq!(past, vec![5, 6, 7]);

        let pages_before = w.file_pages();
        w.truncate_to(fence).unwrap();
        // The truncated prefix is given back to the device, crash or not:
        // the fence's own page is all the file keeps.
        assert_eq!(fence.file_page as usize + 1, pages_before);
        assert_eq!(w.file_pages(), 1);
        let tail_len = 3 * record(0, RecordKind::Update, &[0u8; 60]).frame_len() as u64;
        assert_eq!(w.log_bytes(), tail_len);
        let report = w.read_from(w.base()).unwrap();
        assert_eq!(txns(&report), vec![5, 6, 7]);
        assert!(report.lsns().all(|l| l >= fence.lsn));

        // The cursors and the recomputed LSN survive a crash; the
        // discarded pages stay gone.
        w.drain().unwrap();
        let live_pages = w.file_pages();
        w.simulate_crash();
        assert_eq!(w.file_pages(), live_pages);
        assert_eq!(w.base(), fence);
        assert_eq!(w.log_bytes(), tail_len);
        let report = w.read_from(w.base()).unwrap();
        assert_eq!(report.records().count(), 3);
        assert_eq!(report.lsns().next(), Some(fence.lsn));
    }

    #[test]
    fn read_from_a_fence_outside_the_live_file_is_corrupt() {
        let w = wal();
        for i in 0..5u64 {
            w.append(&record(i, RecordKind::Update, &[5u8; 200]))
                .unwrap();
        }
        let old = w.fence().unwrap();
        for i in 5..10u64 {
            w.append(&record(i, RecordKind::Update, &[6u8; 200]))
                .unwrap();
        }
        let new = w.fence().unwrap();
        assert!(old.file_page > 0 && new.file_page > old.file_page);
        w.truncate_to(new).unwrap();
        // The pages `old` names were truncated away: scanning from it
        // would silently start somewhere else.
        assert_eq!(
            w.read_from(old),
            Err(TxnError::Corrupt("WAL fence below the log's base"))
        );
        let past = WalFence {
            lsn: new.lsn,
            file_page: new.file_page + 1,
        };
        assert_eq!(
            w.read_from(past),
            Err(TxnError::Corrupt("WAL fence past the log's end"))
        );
        assert_eq!(w.read_from(new).unwrap().records().count(), 0);
    }

    #[test]
    fn read_from_labels_the_first_record_with_the_fence_lsn() {
        let w = wal();
        for i in 0..5u64 {
            w.append(&record(i, RecordKind::Update, &[7u8; 200]))
                .unwrap();
        }
        let fence = w.fence().unwrap();
        let mut expect_lsns = Vec::new();
        for i in 5..8u64 {
            expect_lsns.push(
                w.append(&record(i, RecordKind::Update, &[8u8; 200]))
                    .unwrap(),
            );
        }
        w.drain().unwrap();
        w.append(&record(8, RecordKind::Commit, &[])).unwrap();
        let tail = |w: &Wal| {
            let report = w.read_from(fence).unwrap();
            (txns(&report), report.lsns().collect::<Vec<_>>())
        };
        let (txns, lsns) = tail(&w);
        assert_eq!(txns, vec![5, 6, 7, 8]);
        assert_eq!(lsns[0], fence.lsn);
        assert_eq!(lsns[..3], expect_lsns[..]);

        // Untruncated, a scan from the base reads the prefix too, labelled
        // from LSN 0.
        let from_base = w.read_from(w.base()).unwrap();
        assert_eq!(from_base.records().next().unwrap().txn, 0);
        assert_eq!(from_base.lsns().next(), Some(0));
        // Truncated to the fence and reopened, the log starts at the fence:
        // a scan from its base and one from the fence read and label
        // exactly the tail.
        w.truncate_to(fence).unwrap();
        w.simulate_crash();
        assert_eq!(w.base(), fence);
        let from_base = w.read_from(w.base()).unwrap();
        assert_eq!(from_base.lsns().collect::<Vec<_>>(), lsns);
        let (txns, lsns) = tail(&w);
        assert_eq!(txns, vec![5, 6, 7, 8]);
        assert_eq!(lsns[0], fence.lsn);
        assert_eq!(lsns[..3], expect_lsns[..]);
    }

    #[test]
    fn a_crash_right_after_truncation_keeps_the_lsn() {
        let w = wal();
        for i in 0..5u64 {
            w.append(&record(i, RecordKind::Update, &[7u8; 200]))
                .unwrap();
        }
        let fence = w.fence().unwrap();
        for i in 5..8u64 {
            w.append(&record(i, RecordKind::Update, &[8u8; 200]))
                .unwrap();
        }
        w.drain().unwrap();
        w.append(&record(8, RecordKind::Commit, &[])).unwrap();
        // Truncation's one persist is the base page; the crash hits right
        // after it, before the truncated pages go back to the device.
        w.persist_word(FILE_BASE_AT, fence.file_page).unwrap();
        let (lsn, bytes) = (w.current_lsn(), w.current_lsn() - fence.lsn);
        w.simulate_crash();
        assert_eq!((w.current_lsn(), w.log_bytes()), (lsn, bytes));
        assert_eq!(w.base(), fence);
        // And the same through `truncate_to` itself.
        w.truncate_to(fence).unwrap();
        w.simulate_crash();
        assert_eq!((w.current_lsn(), w.log_bytes()), (lsn, bytes));
        assert_eq!(txns(&w.read_from(w.base()).unwrap()), vec![5, 6, 7, 8]);
    }

    #[test]
    fn lsns_stay_continuous_across_a_truncation_that_empties_the_file() {
        let w = wal();
        let mut at = 0;
        for i in 0..5u64 {
            let r = record(i, RecordKind::Update, &[1u8; 300]);
            at = w.append(&r).unwrap() + r.frame_len() as u64;
        }
        let fence = w.fence().unwrap();
        assert_eq!(fence.lsn, at);
        w.truncate_to(fence).unwrap();
        assert_eq!(w.file_pages(), 1, "only the fence's own page is left");
        w.simulate_crash();
        assert_eq!((w.current_lsn(), w.log_bytes()), (fence.lsn, 0));
        // New records continue the stream where the fence left it, in the
        // NVM buffer and after a drain and another crash.
        let mut expect = Vec::new();
        for i in 5..9u64 {
            let r = record(i, RecordKind::Update, &[2u8; 300]);
            expect.push(w.append(&r).unwrap());
            if i == 6 {
                w.drain().unwrap();
            }
        }
        assert_eq!(expect[0], fence.lsn);
        w.simulate_crash();
        let report = w.read_from(w.base()).unwrap();
        assert_eq!(txns(&report), vec![5, 6, 7, 8]);
        assert_eq!(report.lsns().collect::<Vec<_>>(), expect);
        assert_eq!(w.log_bytes(), w.current_lsn() - fence.lsn);
    }

    #[test]
    fn reopening_reads_at_most_two_log_pages() {
        let w = wal();
        for i in 0..80u64 {
            w.append(&record(i, RecordKind::Update, &[3u8; 300]))
                .unwrap();
        }
        w.append(&record(80, RecordKind::Commit, &[])).unwrap();
        assert!(w.file_pages() >= 20, "{} pages", w.file_pages());
        let lsn = w.current_lsn();
        let before = w.file_stats().snapshot();
        w.simulate_crash();
        let reads = w.file_stats().snapshot().delta(&before).read_ops;
        assert!(reads <= 2, "{reads} log-device reads");
        assert_eq!(w.current_lsn(), lsn);
        assert_eq!(w.read_from(w.base()).unwrap().records().count(), 81);
    }

    #[test]
    fn a_page_naming_the_wrong_lsn_ends_the_clean_prefix() {
        let w = wal();
        for i in 0..10u64 {
            w.append(&record(i, RecordKind::Update, &[4u8; 300]))
                .unwrap();
        }
        w.drain().unwrap();
        w.append(&record(10, RecordKind::Commit, &[])).unwrap();
        assert!(w.file_pages() > 3);
        // Page 2 claims to start one byte later than it does: the scan
        // keeps the records page 1 holds whole and nothing after them, not
        // even the NVM buffer's.
        let mut page = vec![0u8; w.page_size];
        w.file.read_page(2, &mut page).unwrap();
        let (start, _) = page_header(&page);
        page[4..PAGE_HEADER].copy_from_slice(&(start + 1).to_le_bytes());
        w.file.write_page(2, &page).unwrap();
        let report = w.read_from(w.base()).unwrap();
        assert!(report.corrupt);
        assert_eq!(txns(&report), vec![0, 1]);
        assert_eq!(report.nvm_bytes, 0);
    }

    #[test]
    fn a_page_torn_to_zeros_clips_the_log_and_keeps_the_lsn() {
        use spitfire_device::{DeviceKind, FaultKind, FaultOp, FaultPlan, FaultRule, Trigger};
        // Seed 2 tears the next log-file write before its first media
        // block: the page reads as zeros.
        let tear_next_page = |w: &Wal| {
            let plan = FaultPlan::new(2).rule(
                FaultRule::any(Trigger::NthOp(1), FaultKind::TornWrite)
                    .on_device(DeviceKind::Ssd)
                    .on_op(FaultOp::Write),
            );
            w.set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
        };
        let zeroed = |w: &Wal, pid: u64| {
            let mut page = vec![0u8; w.page_size];
            w.file.read_page(pid, &mut page).unwrap();
            page.iter().all(|&b| b == 0)
        };
        let w = wal();
        for i in 0..3u64 {
            w.append(&record(i, RecordKind::Update, &[1u8; 120]))
                .unwrap();
        }
        w.drain().unwrap();
        // The next drain's first page (page 2) is torn; two pages follow.
        for i in 3..15u64 {
            w.append(&record(i, RecordKind::Update, &[2u8; 120]))
                .unwrap();
        }
        tear_next_page(&w);
        w.drain().unwrap();
        w.set_fault_injector(None);
        assert!(zeroed(&w, 2));
        assert_eq!(w.file_pages(), 5);
        let report = w.read_from(w.base()).unwrap();
        assert!(report.corrupt, "the torn page is out of sequence");
        assert_eq!(txns(&report), vec![0, 1, 2]);
        let lsn = w.current_lsn();
        w.simulate_crash();
        assert_eq!(w.current_lsn(), lsn);

        // A torn fence page is the last page: the reopen takes the end
        // from the page before it, which is where the fence is, so the
        // stream past the fence reads clean.
        tear_next_page(&w);
        let fence = w.fence().unwrap();
        w.set_fault_injector(None);
        assert!(zeroed(&w, fence.file_page));
        w.simulate_crash();
        assert_eq!(w.current_lsn(), lsn);
        let mut expect = Vec::new();
        for i in 15..18u64 {
            let r = record(i, RecordKind::Update, &[3u8; 120]);
            expect.push(w.append(&r).unwrap());
        }
        w.drain().unwrap();
        w.simulate_crash();
        let report = w.read_from(fence).unwrap();
        assert!(!report.corrupt);
        assert_eq!(txns(&report), vec![15, 16, 17]);
        assert_eq!(report.lsns().collect::<Vec<_>>(), expect);
        assert_eq!(expect[0], fence.lsn);
    }

    /// A one-shot fault on the `n`-th `op` of the WAL's `device`.
    fn fault_nth(
        w: &Wal,
        seed: u64,
        device: spitfire_device::DeviceKind,
        op: spitfire_device::FaultOp,
        n: u64,
        kind: spitfire_device::FaultKind,
    ) -> Arc<FaultInjector> {
        use spitfire_device::{FaultPlan, FaultRule, Trigger};
        let plan = FaultPlan::new(seed).rule(
            FaultRule::any(Trigger::NthOp(n), kind)
                .on_device(device)
                .on_op(op),
        );
        let inj = Arc::new(FaultInjector::new(plan));
        w.set_fault_injector(Some(Arc::clone(&inj)));
        inj
    }

    #[test]
    fn a_crash_right_after_an_append_keeps_the_record_with_no_cursor_written() {
        let w = wal();
        w.append(&record(0, RecordKind::Update, &[1u8; 40]))
            .unwrap();
        let before = w.nvm_stats().snapshot();
        let r = record(1, RecordKind::Commit, &[]);
        let lsn = w.append(&r).unwrap();
        let cost = w.nvm_stats().snapshot().delta(&before);
        assert_eq!(
            (cost.write_ops, cost.fences),
            (1, 1),
            "the frame is the append"
        );
        w.simulate_crash();
        assert_eq!(w.current_lsn(), lsn + r.frame_len() as u64);
        let report = w.read_from(w.base()).unwrap();
        assert!(!report.corrupt);
        assert_eq!(txns(&report), vec![0, 1]);
    }

    #[test]
    fn a_reopen_after_a_drain_splices_in_no_stale_frame() {
        let w = wal();
        let len = record(0, RecordKind::Update, &[0u8; 100]).frame_len();
        for i in 0..6u64 {
            w.append(&record(i, RecordKind::Update, &[1u8; 100]))
                .unwrap();
        }
        w.drain().unwrap();
        // A second, shorter pass over the ring with frames of the same
        // size: the first pass's third frame sits, whole and CRC-clean,
        // exactly where a third frame of this pass would.
        for i in 6..8u64 {
            w.append(&record(i, RecordKind::Update, &[2u8; 100]))
                .unwrap();
        }
        let mut stale = vec![0u8; len];
        w.nvm
            .read(DATA_BASE + 2 * len, &mut stale, AccessPattern::Random)
            .unwrap();
        assert_eq!(
            LogRecord::check_frame(&stale, 2 * len as u64),
            Some(len),
            "the first pass's frame is still there"
        );
        let lsn = w.current_lsn();
        w.simulate_crash();
        assert_eq!(w.current_lsn(), lsn);
        assert_eq!(w.pending_bytes(), 2 * len);
        let report = w.read_from(w.base()).unwrap();
        assert!(!report.corrupt);
        assert_eq!(txns(&report), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_torn_last_frame_ends_the_ring() {
        use spitfire_device::{DeviceKind, FaultKind, FaultOp};
        let w = wal();
        for i in 0..3u64 {
            w.append(&record(i, RecordKind::Update, &[1u8; 40]))
                .unwrap();
        }
        // A 664-byte frame spans three media blocks; the tear keeps at
        // most two of them and reports success.
        let inj = fault_nth(
            &w,
            1,
            DeviceKind::Nvm,
            FaultOp::Write,
            1,
            FaultKind::TornWrite,
        );
        let torn_lsn = w
            .append(&record(3, RecordKind::Update, &[2u8; 600]))
            .unwrap();
        w.set_fault_injector(None);
        assert_eq!(inj.stats().torn, 1);
        w.simulate_crash();
        assert_eq!(w.current_lsn(), torn_lsn);
        let report = w.read_from(w.base()).unwrap();
        assert!(
            !report.corrupt,
            "the torn frame is the ring's end: {report:?}"
        );
        assert_eq!(txns(&report), vec![0, 1, 2]);
        // The next record takes the torn frame's place and LSN.
        assert_eq!(
            w.append(&record(4, RecordKind::Commit, &[])).unwrap(),
            torn_lsn
        );
        w.simulate_crash();
        assert_eq!(txns(&w.read_from(w.base()).unwrap()), vec![0, 1, 2, 4]);
    }

    #[test]
    fn a_frame_lost_before_acknowledged_ones_is_cut_and_never_spliced_back() {
        use spitfire_device::{DeviceKind, FaultKind, FaultOp};
        // A 164-byte frame is torn to nothing; a 464-byte one keeps its
        // first media block under seed 3, so its header survives.
        for payload in [100, 400] {
            let w = wal();
            for i in 0..2u64 {
                w.append(&record(i, RecordKind::Update, &[1u8; 40]))
                    .unwrap();
            }
            let inj = fault_nth(
                &w,
                3,
                DeviceKind::Nvm,
                FaultOp::Write,
                1,
                FaultKind::TornWrite,
            );
            let torn_lsn = w
                .append(&record(2, RecordKind::Update, &vec![2u8; payload]))
                .unwrap();
            w.set_fault_injector(None);
            assert_eq!(inj.stats().torn, 1);
            let mut header = [0u8; FRAME_HEADER];
            w.nvm
                .read(
                    DATA_BASE + torn_lsn as usize,
                    &mut header,
                    AccessPattern::Random,
                )
                .unwrap();
            assert_eq!(le_u64(&header, 24) == torn_lsn, payload == 400);
            // Acknowledged after the tear, so it names an LSN past it.
            w.append(&record(3, RecordKind::Commit, &[])).unwrap();
            w.simulate_crash();
            // What recovery does with its tail scan: the lost frame is a
            // gap before an acknowledged one, and the ring is cut there.
            let scan = w.read_from(w.base()).unwrap();
            assert!(scan.corrupt, "payload {payload}: {scan:?}");
            assert_eq!(txns(&scan), vec![0, 1]);
            w.end_at_clean_prefix(&scan).unwrap();
            assert_eq!(w.current_lsn(), torn_lsn);
            // A frame the torn one's size takes its place and LSN and
            // ends where the old commit starts, at the LSN it names.
            w.append(&record(4, RecordKind::Update, &vec![4u8; payload]))
                .unwrap();
            w.simulate_crash();
            let report = w.read_from(w.base()).unwrap();
            assert!(!report.corrupt, "payload {payload}: {report:?}");
            assert_eq!(txns(&report), vec![0, 1, 4], "payload {payload}");
        }
    }

    #[test]
    fn a_crash_between_a_drains_sync_and_its_page_count_replays_the_ring_once() {
        use spitfire_device::{DeviceKind, FaultKind, FaultOp};
        let w = wal();
        let mut expect = Vec::new();
        for i in 0..6u64 {
            let r = record(i, RecordKind::Update, &[i as u8; 120]);
            w.append(&r).unwrap();
            expect.push(r);
        }
        let lsn = w.current_lsn();
        // The drain's one NVM write is the page-count persist, after the
        // log-file sync.
        fault_nth(&w, 1, DeviceKind::Nvm, FaultOp::Write, 1, FaultKind::Fatal);
        assert!(w.drain().is_err());
        w.set_fault_injector(None);
        w.simulate_crash();
        assert_eq!(w.current_lsn(), lsn);
        let report = w.read_from(w.base()).unwrap();
        assert_eq!((report.file_bytes, report.nvm_consumed), (0, lsn as usize));
        assert_eq!(report.records().collect::<Vec<_>>(), expect);
        // The next drain rewrites the same pages; still once.
        w.drain().unwrap();
        w.simulate_crash();
        let report = w.read_from(w.base()).unwrap();
        assert_eq!((report.file_bytes, report.nvm_bytes), (lsn as usize, 0));
        assert_eq!(report.records().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn a_torn_page_is_cut_and_the_log_continues_from_its_clean_end() {
        use spitfire_device::{DeviceKind, FaultKind, FaultOp};
        let w = wal();
        let mut clean_end = 0;
        for i in 0..3u64 {
            let r = record(i, RecordKind::Update, &[1u8; 120]);
            clean_end = w.append(&r).unwrap() + r.frame_len() as u64;
        }
        w.drain().unwrap();
        for i in 3..15u64 {
            w.append(&record(i, RecordKind::Update, &[2u8; 120]))
                .unwrap();
        }
        // Seed 2 tears the next log-file write before its first media
        // block: page 2, the drain's first, reads as zeros; two follow.
        fault_nth(
            &w,
            2,
            DeviceKind::Ssd,
            FaultOp::Write,
            1,
            FaultKind::TornWrite,
        );
        w.drain().unwrap();
        w.set_fault_injector(None);
        assert_eq!(w.file_pages(), 5);
        w.simulate_crash();
        // What recovery does with its tail scan.
        let scan = w.read_from(w.base()).unwrap();
        assert!(scan.corrupt);
        assert_eq!(txns(&scan), vec![0, 1, 2]);
        w.end_at_clean_prefix(&scan).unwrap();
        assert_eq!((w.current_lsn(), w.file_pages()), (clean_end, 3));
        let mut expect = Vec::new();
        for i in 15..18u64 {
            let r = record(i, RecordKind::Update, &[3u8; 120]);
            expect.push(w.append(&r).unwrap());
            if i == 16 {
                w.drain().unwrap();
            }
        }
        assert_eq!(expect[0], clean_end);
        for crash in [false, true] {
            if crash {
                w.simulate_crash();
            }
            let report = w.read_from(w.base()).unwrap();
            assert!(!report.corrupt, "{report:?}");
            assert_eq!(txns(&report), vec![0, 1, 2, 15, 16, 17]);
            assert_eq!(report.lsns().skip(3).collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    fn a_cut_in_the_ring_leaves_no_old_frame_to_splice_in() {
        let w = wal();
        let len = record(0, RecordKind::Update, &[0u8; 40]).frame_len();
        for i in 0..4u64 {
            w.append(&record(i, RecordKind::Update, &[1u8; 40]))
                .unwrap();
        }
        // Rot the second frame: the third and fourth stay whole.
        let at = DATA_BASE + len + FRAME_HEADER;
        w.nvm.write(at, &[0xEE], AccessPattern::Random).unwrap();
        w.nvm.persist(at, 1).unwrap();
        let scan = w.read_from(w.base()).unwrap();
        assert!(scan.corrupt);
        w.end_at_clean_prefix(&scan).unwrap();
        assert_eq!(w.current_lsn(), len as u64);
        // Two new frames of the same size reach the third's position and
        // LSN; the old third and fourth must not follow them.
        for i in 10..12u64 {
            w.append(&record(i, RecordKind::Update, &[2u8; 40]))
                .unwrap();
        }
        w.simulate_crash();
        let report = w.read_from(w.base()).unwrap();
        assert!(!report.corrupt);
        assert_eq!(txns(&report), vec![0, 10, 11]);
    }

    #[test]
    fn concurrent_appends_are_all_recovered() {
        use std::sync::Arc;
        let w =
            Arc::new(Wal::new(1 << 20, 4096, TimeScale::ZERO, PersistenceTracking::Full).unwrap());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        w.append(&record(t * 1000 + i, RecordKind::Update, &[t as u8; 64]))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = w.read_from(w.base()).unwrap();
        let recs: Vec<_> = report.records().collect();
        assert_eq!(recs.len(), 400);
        // Per-thread order must be preserved.
        for t in 0..4u64 {
            let txns: Vec<u64> = recs
                .iter()
                .map(|r| r.txn)
                .filter(|x| x / 1000 == t)
                .collect();
            assert!(
                txns.windows(2).all(|w| w[0] < w[1]),
                "thread {t} out of order"
            );
        }
    }
}
