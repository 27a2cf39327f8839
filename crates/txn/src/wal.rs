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
//! The log file does not grow with history: each checkpoint's
//! [`Wal::truncate_to`] moves the persistent base cursors to the previous
//! generation's fence and then hands the file pages below it back to the
//! device. Once two generations exist the file holds the log since the
//! older one's fence: the interval between the two fences plus the log
//! since the newest (at most two intervals when the next checkpoint
//! comes). Until the second checkpoint nothing is truncated and the file
//! holds everything since the start; recovery still reads only the tail
//! past its generation's fence ([`Wal::read_from`]).

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

/// Framing: len u32 | crc u32 | kind u8 | pad 3 | txn u64 | table u32 |
/// pad 4 | key u64 | rid u64 | prev_rid u64 | prev_lsn u64 | payload.
const FRAME_HEADER: usize = 4 + 4 + 4 + 4 + 8 + 4 + 4 + 8 + 8 + 8 + 8;

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

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.frame_len());
        buf.extend_from_slice(&(self.frame_len() as u32).to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]); // crc placeholder
        buf.push(self.kind.to_byte());
        buf.extend_from_slice(&[0u8; 3]);
        buf.extend_from_slice(&[0u8; 4]); // reserved
        buf.extend_from_slice(&self.txn.to_le_bytes());
        buf.extend_from_slice(&self.table.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
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
    /// CRC matches and its kind is known; `None` on a torn or invalid
    /// frame (end of log).
    fn check_frame(buf: &[u8]) -> Option<usize> {
        if buf.len() < FRAME_HEADER {
            return None;
        }
        let len = le_u32(buf, 0) as usize;
        if len < FRAME_HEADER || len > buf.len() {
            return None;
        }
        if crc32(&buf[8..len]) != le_u32(buf, 4) {
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
            table: le_u32(frame, 24),
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
    /// pool's NVM, as in the paper's shared log buffer).
    nvm: NvmDevice,
    /// Byte offset of the next append within the NVM buffer. The low
    /// region `[0, 8)` persistently stores this offset so recovery knows
    /// how much of the buffer is live.
    state: Mutex<WalState>,
    /// SSD log file: fixed-size pages appended in sequence.
    file: SsdDevice,
    next_file_page: AtomicU64,
    /// First live log-file page: pages below this were truncated away by a
    /// checkpoint fence ([`Wal::truncate_to`]). Persisted below
    /// [`DATA_BASE`] like the other cursors.
    file_base_page: AtomicU64,
    /// LSN of the first byte of `file_base_page` — the stream position the
    /// live log starts at. `log_bytes()` and the LSNs
    /// [`Wal::read_all_checked`] assigns are measured from here.
    base_lsn: AtomicU64,
    /// Drain threshold (fraction of the buffer).
    drain_at: usize,
    page_size: usize,
    /// Total bytes ever appended (monotonic LSN source).
    lsn: AtomicU64,
}

struct WalState {
    head: usize,
}

/// Byte offset where log records start in the NVM buffer (after the
/// persistent head word).
const DATA_BASE: usize = 64;

/// Byte offset of the persistent count of synced log-file pages. Like the
/// head word, this lives in the reserved region below [`DATA_BASE`] so a
/// restart can re-open the log file at the right length.
const FILE_PAGES_AT: usize = 8;

/// Byte offset of the persistent first-live-file-page cursor.
const FILE_BASE_AT: usize = 16;

/// Byte offset of the persistent base LSN (stream position of the first
/// live file page).
const BASE_LSN_AT: usize = 24;

/// A WAL fence: the durable log position captured by a checkpoint. All
/// records appended before the fence have `LSN < lsn` and live entirely in
/// file pages below `file_page` (the fence is taken after a full drain, so
/// the NVM buffer is empty and no record straddles it). A checkpoint's
/// manifest records the whole fence, so recovery finds the tail by page.
///
/// The default fence, `{0, 0}`, is the start of the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalFence {
    /// First LSN past the fence.
    pub lsn: u64,
    /// First log-file page past the fence.
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
            state: Mutex::new(WalState { head: DATA_BASE }),
            file: SsdDevice::with_tracking(page_size, scale, tracking),
            next_file_page: AtomicU64::new(0),
            file_base_page: AtomicU64::new(0),
            base_lsn: AtomicU64::new(0),
            drain_at: buffer_bytes * 3 / 4,
            page_size,
            lsn: AtomicU64::new(0),
        };
        wal.persist_head(DATA_BASE)?;
        wal.persist_file_pages(0)?;
        wal.persist_word(FILE_BASE_AT, 0)?;
        wal.persist_word(BASE_LSN_AT, 0)?;
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

    fn persist_head(&self, head: usize) -> Result<()> {
        retry_io(|| {
            self.nvm
                .write(0, &(head as u64).to_le_bytes(), AccessPattern::Random)?;
            self.nvm.persist(0, 8)
        })?;
        Ok(())
    }

    /// Persist the count of durably-synced log-file pages.
    fn persist_file_pages(&self, n: u64) -> Result<()> {
        retry_io(|| {
            self.nvm
                .write(FILE_PAGES_AT, &n.to_le_bytes(), AccessPattern::Random)?;
            self.nvm.persist(FILE_PAGES_AT, 8)
        })?;
        Ok(())
    }

    /// Install (or clear) a fault injector on both log devices.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        self.nvm.set_fault_injector(injector.clone());
        self.file.set_fault_injector(injector);
    }

    /// Append a record; durable when this returns (the paper's synchronous
    /// NVM persistence commit path). Returns the record's LSN.
    pub fn append(&self, record: &LogRecord) -> Result<u64> {
        let obs_t = spitfire_obs::op_start();
        let bytes = record.encode();
        let mut state = self.state.lock();
        if state.head + bytes.len() > self.nvm.capacity() {
            self.drain_locked(&mut state)?;
            if state.head + bytes.len() > self.nvm.capacity() {
                return Err(TxnError::LogRecordTooLarge(bytes.len()));
            }
        }
        let at = state.head;
        retry_io(|| {
            self.nvm.write(at, &bytes, AccessPattern::Sequential)?;
            self.nvm.persist(at, bytes.len())
        })?;
        state.head = at + bytes.len();
        self.persist_head(state.head)?;
        let lsn = self.lsn.fetch_add(bytes.len() as u64, Ordering::AcqRel);
        if state.head >= self.drain_at {
            self.drain_locked(&mut state)?;
        }
        spitfire_obs::record_since(spitfire_obs::Op::WalAppend, obs_t);
        Ok(lsn)
    }

    /// Move the NVM buffer's contents to the SSD log file and recycle it.
    fn drain_locked(&self, state: &mut WalState) -> Result<()> {
        let live = state.head - DATA_BASE;
        if live == 0 {
            return Ok(());
        }
        let mut buf = vec![0u8; live];
        retry_io(|| {
            self.nvm
                .read(DATA_BASE, &mut buf, AccessPattern::Sequential)
        })?;
        // Append as page-sized chunks. Each file page starts with a 4-byte
        // valid-length header so partial pages from different drains can be
        // stitched back into one record stream.
        for chunk in buf.chunks(self.page_size - 4) {
            let mut page = vec![0u8; self.page_size];
            page[..4].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
            page[4..4 + chunk.len()].copy_from_slice(chunk);
            let pid = self.next_file_page.fetch_add(1, Ordering::AcqRel);
            retry_io(|| self.file.append_page(pid, &page))?;
        }
        // Durability barrier before recycling the buffer: the file pages
        // must reach stable storage before the NVM copy of the records is
        // dropped. A crash between the sync and the head reset merely
        // replays the drained records twice — redo is idempotent.
        retry_io(|| self.file.sync())?;
        self.persist_file_pages(self.next_file_page.load(Ordering::Acquire))?;
        state.head = DATA_BASE;
        self.persist_head(DATA_BASE)?;
        Ok(())
    }

    /// Force the NVM buffer into the log file (checkpoint, shutdown).
    pub fn drain(&self) -> Result<()> {
        let mut state = self.state.lock();
        self.drain_locked(&mut state)
    }

    /// Capture a fence: drain the NVM buffer so every appended record is
    /// in the log file, then record the durable log position. Used by the
    /// checkpointer; see [`WalFence`].
    pub fn fence(&self) -> Result<WalFence> {
        let mut state = self.state.lock();
        self.drain_locked(&mut state)?;
        Ok(WalFence {
            lsn: self.lsn.load(Ordering::Acquire),
            file_page: self.next_file_page.load(Ordering::Acquire),
        })
    }

    /// Truncate everything before `fence`: subsequent scans start at
    /// `fence.file_page` with LSNs measured from `fence.lsn`, and the file
    /// pages `[old base, fence.file_page)` go back to the device
    /// ([`SsdDevice::discard`]) — the log file occupies its live pages,
    /// not every page it was ever handed. A checkpoint truncates to the
    /// oldest retained generation's fence so a CRC-mismatch fallback one
    /// generation back still finds its WAL tail.
    ///
    /// The base LSN is persisted before the base page. A crash between the
    /// two leaves the base page below the fence, so [`read_all_checked`]
    /// (which scans from the base cursors) labels the leftover prefix with
    /// LSNs at or above the fence. Recovery is not affected: it scans from
    /// its generation's fence with [`read_from`], which labels by the
    /// fence it is given and never reads the leftover pages. The pages are
    /// discarded only after both cursors are durable; a crash in between
    /// strands them (unread, one interval at most), it never loses a live
    /// page.
    ///
    /// [`read_all_checked`]: Wal::read_all_checked
    /// [`read_from`]: Wal::read_from
    pub fn truncate_to(&self, fence: WalFence) -> Result<()> {
        let _state = self.state.lock();
        if fence.lsn <= self.base_lsn.load(Ordering::Acquire) {
            return Ok(());
        }
        self.base_lsn.store(fence.lsn, Ordering::Release);
        self.persist_word(BASE_LSN_AT, fence.lsn)?;
        let old_base = self.file_base_page.swap(fence.file_page, Ordering::AcqRel);
        self.persist_word(FILE_BASE_AT, fence.file_page)?;
        self.file.discard(old_base..fence.file_page);
        Ok(())
    }

    /// Bytes of live log: everything appended past the last truncation
    /// point (including records still pending in the NVM buffer). What
    /// [`Database::maintain`](crate::Database::maintain) paces its passes
    /// by is [`current_lsn`](Self::current_lsn), which truncation does not
    /// move back.
    pub fn log_bytes(&self) -> u64 {
        self.lsn.load(Ordering::Acquire) - self.base_lsn.load(Ordering::Acquire)
    }

    /// LSN one past the last appended byte.
    pub fn current_lsn(&self) -> u64 {
        self.lsn.load(Ordering::Acquire)
    }

    /// LSN the live log starts at (the last truncation point).
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn.load(Ordering::Acquire)
    }

    /// Simulate power loss on the log devices (volatile caches dropped),
    /// then remount: the volatile cursors are restored from their
    /// persistent images, exactly as a restart re-opening the log would.
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
        if let Some(n) = read_word(FILE_PAGES_AT) {
            self.next_file_page.store(n, Ordering::Release);
        }
        if let Some(base) = read_word(FILE_BASE_AT) {
            self.file_base_page.store(base, Ordering::Release);
        }
        if let Some(base_lsn) = read_word(BASE_LSN_AT) {
            self.base_lsn.store(base_lsn, Ordering::Release);
        }
        if let Some(head) = read_word(0) {
            let head = (head as usize).clamp(DATA_BASE, self.nvm.capacity());
            self.state.lock().head = head;
        }
        // Recompute the volatile LSN cursor from the durable state: base
        // LSN plus the surviving file-stream bytes plus the live NVM
        // region. Un-synced file pages evaporated with the crash, but
        // their records still sit in the NVM buffer (the drain recycles it
        // only after the fsync), so they are counted exactly once.
        let mut lsn = self.base_lsn.load(Ordering::Acquire);
        let mut page = vec![0u8; self.page_size];
        let base = self.file_base_page.load(Ordering::Acquire);
        let n_pages = self.next_file_page.load(Ordering::Acquire);
        for pid in base..n_pages {
            if self.file.read_page(pid, &mut page).is_err() {
                break;
            }
            let valid = u32::from_le_bytes(page[..4].try_into().expect("4 bytes")) as usize;
            lsn += valid.min(self.page_size - 4) as u64;
        }
        lsn += (self.state.lock().head - DATA_BASE) as u64;
        self.lsn.store(lsn, Ordering::Release);
    }

    /// Read the whole live log back: [`read_from`](Self::read_from) the
    /// base cursors (the last truncation point).
    pub fn read_all_checked(&self) -> Result<WalScanReport> {
        self.read_from(WalFence {
            lsn: self.base_lsn.load(Ordering::Acquire),
            file_page: self.file_base_page.load(Ordering::Acquire),
        })
    }

    /// Read the log from `fence` on — SSD file pages from
    /// `fence.file_page` in one sequential request
    /// ([`SsdDevice::read_pages`]), then the live region of the
    /// (persistent) NVM buffer — labelling the first byte `fence.lsn`, and
    /// report how much of each region decoded cleanly. Used by recovery
    /// with its generation's fence, so it reads only the tail it replays.
    /// Every frame is CRC-checked; a torn or corrupted frame ends the
    /// stream at the last clean record and sets
    /// [`WalScanReport::corrupt`]. A file page missing because a crash hit
    /// between append and fsync is benign (the read stops there): the
    /// drain had not recycled the NVM buffer yet, so those records are
    /// still decoded from NVM.
    ///
    /// A fence outside the live file — below the base page (truncated
    /// away) or past the last synced page — is [`TxnError::Corrupt`]: the
    /// log no longer holds (or never held) the tail it names.
    pub fn read_from(&self, fence: WalFence) -> Result<WalScanReport> {
        let file_base = self.file_base_page.load(Ordering::Acquire);
        let n_pages = self.next_file_page.load(Ordering::Acquire);
        if fence.file_page < file_base {
            return Err(TxnError::Corrupt("WAL fence below the log's base"));
        }
        if fence.file_page > n_pages {
            return Err(TxnError::Corrupt("WAL fence past the log's end"));
        }
        // One buffer holds the whole tail: the file pages are read into it
        // in one request and compacted in place to their valid bytes (a
        // page starts with its 4-byte valid length; pages are contiguous
        // records chunked at page boundaries, and a fence begins a fresh
        // page, so the stream starts on a frame), and the NVM region is
        // read in after them, into room sized by the buffer's volatile
        // head (a restart restores it from the persistent one).
        let ps = self.page_size;
        let run = (n_pages - fence.file_page) as usize * ps;
        let mut stream = vec![0u8; run + self.pending_bytes()];
        let read = retry_io(|| {
            self.file
                .read_pages(fence.file_page..n_pages, &mut stream[..run])
        })?;
        let mut len = 0;
        for page in (0..read).map(|i| i * ps) {
            let valid = (le_u32(&stream, page) as usize).min(ps - 4);
            stream.copy_within(page + 4..page + 4 + valid, len);
            len += valid;
        }
        let mut report = WalScanReport {
            start_lsn: fence.lsn,
            file_bytes: len,
            file_consumed: check_stream(&stream[..len]),
            ..WalScanReport::default()
        };
        if report.file_consumed < report.file_bytes {
            // Torn/corrupt bytes inside the file stream: everything after
            // them — including the NVM region, which is later in the log —
            // is past the clean prefix and must not be replayed.
            report.corrupt = true;
            stream.truncate(report.file_consumed);
            report.stream = stream;
            return Ok(report);
        }
        // NVM buffer portion: head offset is persistent. Its records sit
        // in the stream directly after the drained file bytes.
        let mut head_bytes = [0u8; 8];
        retry_io(|| self.nvm.read(0, &mut head_bytes, AccessPattern::Random))?;
        let head = (u64::from_le_bytes(head_bytes) as usize).clamp(DATA_BASE, self.nvm.capacity());
        if head > DATA_BASE {
            let end = len + head - DATA_BASE;
            if stream.len() < end {
                stream.resize(end, 0);
            }
            let live = &mut stream[len..end];
            retry_io(|| self.nvm.read(DATA_BASE, live, AccessPattern::Sequential))?;
            report.nvm_bytes = live.len();
            report.nvm_consumed = check_stream(live);
            report.corrupt = report.nvm_consumed < report.nvm_bytes;
            len += report.nvm_consumed;
        }
        stream.truncate(len);
        report.stream = stream;
        Ok(report)
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

/// The number of bytes the valid frames at the start of `buf` take: the
/// clean prefix a scan keeps.
fn check_stream(buf: &[u8]) -> usize {
    let mut consumed = 0;
    while let Some(len) = LogRecord::check_frame(&buf[consumed..]) {
        consumed += len;
    }
    consumed
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("pending_bytes", &self.pending_bytes())
            // relaxed: debug snapshot; the allocator's RMW provides the uniqueness that matters.
            .field("file_pages", &self.next_file_page.load(Ordering::Relaxed))
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
            let bytes = r.encode();
            assert_eq!(LogRecord::check_frame(&bytes), Some(bytes.len()));
            assert_eq!(LogRecord::parse(&bytes), r);
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let r = record(9, RecordKind::Commit, b"x");
        let mut bytes = r.encode();
        bytes[20] ^= 0xFF;
        assert!(LogRecord::check_frame(&bytes).is_none());
        // Truncated frame.
        let bytes = r.encode();
        assert!(LogRecord::check_frame(&bytes[..bytes.len() - 1]).is_none());
        // Empty/zero region (the padding case).
        assert!(LogRecord::check_frame(&[0u8; 128]).is_none());
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
            w.read_all_checked().unwrap().records().collect::<Vec<_>>(),
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
            w.read_all_checked().unwrap().records().collect::<Vec<_>>(),
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
        assert_eq!(w.read_all_checked().unwrap().records().count(), 40);
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
        let recovered = w.read_all_checked().unwrap();
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
        let report = w.read_all_checked().unwrap();
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
            w.read_all_checked().unwrap().records().collect::<Vec<_>>(),
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
            w.read_all_checked().unwrap().records().collect::<Vec<_>>(),
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
        let report = w.read_all_checked().unwrap();
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

        let report = w.read_all_checked().unwrap();
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
        let report = w.read_all_checked().unwrap();
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
        let report = w.read_all_checked().unwrap();
        assert!(!report.corrupt);
        assert_eq!(txns(&report), vec![10, 11, 12]);
        // LSNs keep counting across the truncation (monotonic stream).
        assert_eq!(report.lsns().next(), Some(w.base_lsn()));
        // Now corrupt the newest record's tail: the clean prefix is the
        // post-truncation records minus the damaged one.
        let head = w.state.lock().head;
        let last_len = record(12, RecordKind::Update, &[2u8; 30]).frame_len();
        let at = head - last_len + FRAME_HEADER;
        w.nvm.write(at, &[0xEE], AccessPattern::Random).unwrap();
        w.nvm.persist(at, 1).unwrap();
        let report = w.read_all_checked().unwrap();
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
        let report = w.read_all_checked().unwrap();
        let past: Vec<u64> = report
            .records()
            .zip(report.lsns())
            .filter(|&(_, lsn)| lsn >= fence.lsn)
            .map(|(r, _)| r.txn)
            .collect();
        assert_eq!(past, vec![5, 6, 7]);

        let pages_before = w.file_pages();
        w.truncate_to(fence).unwrap();
        // The truncated prefix is given back to the device, crash or not.
        assert_eq!(fence.file_page as usize, pages_before);
        assert_eq!(w.file_pages(), 0);
        let tail_len = 3 * record(0, RecordKind::Update, &[0u8; 60]).frame_len() as u64;
        assert_eq!(w.log_bytes(), tail_len);
        let report = w.read_all_checked().unwrap();
        assert_eq!(txns(&report), vec![5, 6, 7]);
        assert!(report.lsns().all(|l| l >= fence.lsn));

        // The cursors and the recomputed LSN survive a crash; the
        // discarded pages stay gone.
        w.drain().unwrap();
        let live_pages = w.file_pages();
        w.simulate_crash();
        assert_eq!(w.file_pages(), live_pages);
        assert_eq!(w.base_lsn(), fence.lsn);
        assert_eq!(w.log_bytes(), tail_len);
        let report = w.read_all_checked().unwrap();
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

        // `truncate_to(fence)` crashes after persisting the base LSN but
        // not the base page: the base cursors now disagree, and a scan
        // from them labels the leftover prefix at or above the fence.
        w.persist_word(BASE_LSN_AT, fence.lsn).unwrap();
        w.simulate_crash();
        let from_base = w.read_all_checked().unwrap();
        assert_eq!(from_base.records().next().unwrap().txn, 0);
        assert_eq!(from_base.lsns().next(), Some(fence.lsn));
        // A scan from the fence reads and labels exactly the tail.
        let (txns, lsns) = tail(&w);
        assert_eq!(txns, vec![5, 6, 7, 8]);
        assert_eq!(lsns[0], fence.lsn);
        assert_eq!(lsns[..3], expect_lsns[..]);
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
        let report = w.read_all_checked().unwrap();
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
