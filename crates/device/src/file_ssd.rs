//! Real-file SSD backend: pages live at `pid * page_size` in one flat
//! file, written through `pwrite`/`pread` with `O_DIRECT` when the
//! filesystem supports it.
//!
//! This is the "measure against real block-device behaviour" half of the
//! [`crate::SsdDevice`]: instead of the emulated arena plus cost model,
//! reads and writes hit an actual file descriptor, so miss-path and
//! write-back numbers reflect the kernel block layer (or the page cache,
//! when direct I/O is unavailable — tmpfs rejects `O_DIRECT` with
//! `EINVAL`, in which case the device transparently falls back to
//! buffered I/O and reports that via [`FileSsdDevice::is_direct`]).
//!
//! Durability semantics mirror the emulated device exactly, which is what
//! lets the chaos suite run unchanged: under
//! [`PersistenceTracking::Full`](crate::PersistenceTracking::Full) every
//! first write to a page since the last sync records an in-memory
//! pre-image, `sync` is a real `fdatasync` that discards the pre-images,
//! and `simulate_crash` rolls every un-synced page back to its pre-image
//! (removing pages that did not exist) — the file-backed analogue of the
//! arena's synced-image rollback. The fault injector stays layered in the
//! [`crate::SsdDevice`] wrapper, above this module, so torn writes and
//! dropped flushes behave identically on both backends.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::{FileExt, OpenOptionsExt};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::error::DeviceError;
use crate::Result;

/// `open(2)` flag requesting direct I/O; not in `std`, value from
/// `asm-generic/fcntl.h` (x86-64 and every Linux ABI this crate targets).
const O_DIRECT: i32 = 0x4000;

/// Alignment for direct-I/O transfer buffers. 4 KiB satisfies every
/// logical-block size in practice (512 and 4096).
const DIRECT_ALIGN: usize = 4096;

/// Monotonic suffix for auto-generated backing-file names, so concurrent
/// devices in one process (tests, benches) never collide.
static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A transfer buffer (a page, or a run of pages) aligned for `O_DIRECT`.
struct AlignedBuf {
    ptr: *mut u8,
    layout: Layout,
}

impl AlignedBuf {
    fn new(len: usize) -> Self {
        let layout = Layout::from_size_align(len.max(1), DIRECT_ALIGN).expect("valid layout");
        // SAFETY: layout has non-zero size (len.max(1)) and a valid
        // power-of-two alignment; the pointer is checked for null below.
        let ptr = unsafe { alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "aligned page buffer allocation failed");
        AlignedBuf { ptr, layout }
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr is a live allocation of layout.size() bytes owned by
        // self; the lifetime is tied to &self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.layout.size()) }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as above, with exclusive access through &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.layout.size()) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        // SAFETY: ptr was returned by alloc_zeroed with exactly this layout.
        unsafe { dealloc(self.ptr, self.layout) };
    }
}

// SAFETY: AlignedBuf owns its allocation exclusively; sending it to
// another thread transfers that ownership like a Vec<u8>.
unsafe impl Send for AlignedBuf {}

/// Page bookkeeping for the backing file, all behind one mutex: which
/// pages exist (the file itself cannot distinguish "never written" from
/// "written zeros"), which are dirty since the last sync, and — under
/// full persistence tracking — the pre-image each un-synced page had at
/// its first write since the last sync.
struct FileState {
    present: HashSet<u64>,
    dirty: HashSet<u64>,
    /// `pid -> pre-image` for crash rollback; `None` = page did not exist.
    /// Populated only when `durable` is set.
    undo: HashMap<u64, Option<Box<[u8]>>>,
    /// Reusable aligned scratch buffers (one page each).
    scratch: Vec<AlignedBuf>,
}

/// File-backed page store with direct I/O. See the module docs; normally
/// reached through [`crate::SsdDevice`] with
/// [`crate::SsdBackendConfig::File`], which layers fault injection, cost
/// accounting, and stats on top.
pub struct FileSsdDevice {
    file: File,
    path: PathBuf,
    unlink_on_drop: bool,
    page_size: usize,
    direct: bool,
    durable: bool,
    state: Mutex<FileState>,
}

fn io_err(op: &'static str, e: &io::Error) -> DeviceError {
    DeviceError::Io {
        op,
        message: e.to_string(),
    }
}

impl FileSsdDevice {
    /// Open (or create) the backing file. With `path = None` a unique
    /// temporary file is created and unlinked when the device drops; an
    /// explicit path is left in place. `durable` enables the pre-image
    /// undo log that makes [`FileSsdDevice::simulate_crash`] meaningful.
    ///
    /// `O_DIRECT` is attempted whenever `page_size` is a multiple of 512;
    /// filesystems that reject it (tmpfs) fall back to buffered I/O.
    pub fn new(page_size: usize, path: Option<PathBuf>, durable: bool) -> Result<Self> {
        assert!(page_size > 0, "page size must be non-zero");
        let unlink_on_drop = path.is_none();
        let path = path.unwrap_or_else(|| {
            // relaxed: the counter only needs uniqueness, not ordering.
            let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("spitfire-ssd-{}-{seq}.img", std::process::id()))
        });
        let mut direct = page_size % 512 == 0;
        let open = |flags: i32| {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(unlink_on_drop)
                .custom_flags(flags)
                .open(&path)
        };
        let file = if direct {
            match open(O_DIRECT) {
                Ok(f) => f,
                Err(_) => {
                    // tmpfs and friends reject O_DIRECT at open time.
                    direct = false;
                    open(0).map_err(|e| io_err("open", &e))?
                }
            }
        } else {
            open(0).map_err(|e| io_err("open", &e))?
        };
        // An explicit pre-existing file is adopted: every page slot up to
        // its length is considered present (holes read as zeros).
        let mut present = HashSet::new();
        if !unlink_on_drop {
            let len = file.metadata().map_err(|e| io_err("open", &e))?.len();
            present.extend(0..len / page_size as u64);
        }
        Ok(FileSsdDevice {
            file,
            path,
            unlink_on_drop,
            page_size,
            direct,
            durable,
            state: Mutex::new(FileState {
                present,
                dirty: HashSet::new(),
                undo: HashMap::new(),
                scratch: Vec::new(),
            }),
        })
    }

    /// The fixed page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Whether the file is open with `O_DIRECT` (false after the buffered
    /// fallback on filesystems without direct-I/O support).
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    /// The backing file's path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    fn take_scratch(&self, st: &mut FileState) -> AlignedBuf {
        st.scratch
            .pop()
            .unwrap_or_else(|| AlignedBuf::new(self.page_size))
    }

    fn read_into(&self, pid: u64, out: &mut [u8], st: &mut FileState) -> Result<()> {
        let off = pid * self.page_size as u64;
        if self.direct {
            let mut scratch = self.take_scratch(st);
            let res = self.file.read_exact_at(scratch.as_mut_slice(), off);
            out.copy_from_slice(scratch.as_slice());
            st.scratch.push(scratch);
            res.map_err(|e| io_err("read", &e))?;
        } else {
            self.file
                .read_exact_at(out, off)
                .map_err(|e| io_err("read", &e))?;
        }
        Ok(())
    }

    fn write_full(&self, pid: u64, data: &[u8], st: &mut FileState) -> Result<()> {
        debug_assert_eq!(data.len(), self.page_size);
        let off = pid * self.page_size as u64;
        if self.direct {
            let mut scratch = self.take_scratch(st);
            scratch.as_mut_slice().copy_from_slice(data);
            let res = self.file.write_all_at(scratch.as_slice(), off);
            st.scratch.push(scratch);
            res.map_err(|e| io_err("write", &e))?;
        } else {
            self.file
                .write_all_at(data, off)
                .map_err(|e| io_err("write", &e))?;
        }
        Ok(())
    }

    /// Read page `pid` into `buf` (exactly one page).
    pub fn read_page(&self, pid: u64, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(DeviceError::BadPageSize {
                expected: self.page_size,
                got: buf.len(),
            });
        }
        let mut st = self.state.lock();
        if !st.present.contains(&pid) {
            return Err(DeviceError::PageNotFound(pid));
        }
        self.read_into(pid, buf, &mut st)
    }

    /// Read the pages from `first` on into `buf` (a whole number of pages,
    /// every one present) with one `pread` over the run.
    pub fn read_pages(&self, first: u64, buf: &mut [u8]) -> Result<()> {
        if buf.is_empty() || buf.len() % self.page_size != 0 {
            return Err(DeviceError::BadPageSize {
                expected: self.page_size,
                got: buf.len(),
            });
        }
        let n = (buf.len() / self.page_size) as u64;
        let st = self.state.lock();
        if let Some(pid) = (first..first + n).find(|pid| !st.present.contains(pid)) {
            return Err(DeviceError::PageNotFound(pid));
        }
        let off = first * self.page_size as u64;
        if self.direct {
            let mut run = AlignedBuf::new(buf.len());
            let res = self.file.read_exact_at(run.as_mut_slice(), off);
            buf.copy_from_slice(run.as_slice());
            res.map_err(|e| io_err("read", &e))?;
        } else {
            self.file
                .read_exact_at(buf, off)
                .map_err(|e| io_err("read", &e))?;
        }
        Ok(())
    }

    /// Write `data[..keep]` as page `pid` (`keep < page_size` models a
    /// torn write: the old tail survives for an existing page, a fresh
    /// page gets a zero tail — identical to the emulated arena). The
    /// write is volatile until [`FileSsdDevice::sync`] when durability
    /// tracking is on.
    pub fn write_page(&self, pid: u64, data: &[u8], keep: usize) -> Result<()> {
        if data.len() != self.page_size {
            return Err(DeviceError::BadPageSize {
                expected: self.page_size,
                got: data.len(),
            });
        }
        let mut st = self.state.lock();
        let existed = st.present.contains(&pid);
        if self.durable && !st.undo.contains_key(&pid) {
            let pre = if existed {
                let mut img = vec![0u8; self.page_size].into_boxed_slice();
                self.read_into(pid, &mut img, &mut st)?;
                Some(img)
            } else {
                None
            };
            st.undo.insert(pid, pre);
        }
        if keep == self.page_size {
            self.write_full(pid, data, &mut st)?;
        } else {
            // Torn write: read-modify-write a full page so the file always
            // holds whole pages (direct I/O cannot issue sub-sector
            // writes anyway).
            let mut img = vec![0u8; self.page_size];
            if existed {
                self.read_into(pid, &mut img, &mut st)?;
            }
            img[..keep].copy_from_slice(&data[..keep]);
            self.write_full(pid, &img, &mut st)?;
        }
        st.present.insert(pid);
        st.dirty.insert(pid);
        Ok(())
    }

    /// Write a batch of pages, sorted by page id and with runs of
    /// *contiguous* ids coalesced into single multi-page submissions —
    /// the direct-I/O batching the maintenance and checkpoint write-back
    /// paths amortize their one fsync over. Returns the number of
    /// submissions issued (diagnostics; `<= pages.len()`).
    ///
    /// All-or-nothing per submission: an I/O error aborts the batch with
    /// pages up to the failure written. Callers that need per-page
    /// fault handling (injected faults) use [`FileSsdDevice::write_page`]
    /// per page instead; this path is for fault-free bulk submission.
    pub fn write_pages(&self, pages: &mut Vec<(u64, &[u8])>) -> Result<usize> {
        for (_, data) in pages.iter() {
            if data.len() != self.page_size {
                return Err(DeviceError::BadPageSize {
                    expected: self.page_size,
                    got: data.len(),
                });
            }
        }
        pages.sort_unstable_by_key(|(pid, _)| *pid);
        let mut st = self.state.lock();
        if self.durable {
            for (pid, _) in pages.iter() {
                if !st.undo.contains_key(pid) {
                    let pre = if st.present.contains(pid) {
                        let mut img = vec![0u8; self.page_size].into_boxed_slice();
                        self.read_into(*pid, &mut img, &mut st)?;
                        Some(img)
                    } else {
                        None
                    };
                    st.undo.insert(*pid, pre);
                }
            }
        }
        let mut submissions = 0usize;
        let mut i = 0;
        while i < pages.len() {
            // Extend the run while page ids stay contiguous.
            let mut j = i + 1;
            while j < pages.len() && pages[j].0 == pages[j - 1].0 + 1 {
                j += 1;
            }
            let run = &pages[i..j];
            let off = run[0].0 * self.page_size as u64;
            let mut buf = vec![0u8; run.len() * self.page_size];
            for (k, (_, data)) in run.iter().enumerate() {
                buf[k * self.page_size..(k + 1) * self.page_size].copy_from_slice(data);
            }
            if self.direct {
                // One aligned submission per run; runs are rarely longer
                // than the maintenance batch, so the copy is bounded.
                let layout = Layout::from_size_align(buf.len(), DIRECT_ALIGN).expect("layout");
                // SAFETY: non-zero size (runs are non-empty), power-of-two
                // alignment; null-checked below; deallocated before return.
                let ptr = unsafe { alloc_zeroed(layout) };
                assert!(!ptr.is_null(), "aligned batch buffer allocation failed");
                // SAFETY: ptr spans layout.size() == buf.len() bytes.
                let slice = unsafe { std::slice::from_raw_parts_mut(ptr, buf.len()) };
                slice.copy_from_slice(&buf);
                let res = self.file.write_all_at(slice, off);
                // SAFETY: allocated above with exactly this layout.
                unsafe { dealloc(ptr, layout) };
                res.map_err(|e| io_err("write", &e))?;
            } else {
                self.file
                    .write_all_at(&buf, off)
                    .map_err(|e| io_err("write", &e))?;
            }
            for (pid, _) in run {
                st.present.insert(*pid);
                st.dirty.insert(*pid);
            }
            submissions += 1;
            i = j;
        }
        Ok(submissions)
    }

    /// Durability barrier: `fdatasync` the file and discard the undo log
    /// (writes before this point survive [`FileSsdDevice::simulate_crash`]).
    /// Returns the number of bytes made durable by this sync.
    pub fn sync(&self) -> Result<usize> {
        self.file.sync_data().map_err(|e| io_err("sync", &e))?;
        let mut st = self.state.lock();
        let bytes = st.dirty.len() * self.page_size;
        st.dirty.clear();
        st.undo.clear();
        Ok(bytes)
    }

    /// Model power loss: roll every page written since the last sync back
    /// to its pre-image (pages that did not exist disappear). A no-op
    /// without durability tracking.
    pub fn simulate_crash(&self) {
        if !self.durable {
            return;
        }
        let mut st = self.state.lock();
        let undo = std::mem::take(&mut st.undo);
        for (pid, pre) in undo {
            match pre {
                Some(img) => {
                    // Rollback of an in-process simulation: failure to
                    // restore would be a harness I/O error, not a modelled
                    // crash outcome, so it is fatal.
                    self.write_full(pid, &img, &mut st)
                        .expect("crash-rollback write");
                }
                None => {
                    st.present.remove(&pid);
                }
            }
        }
        st.dirty.clear();
    }

    /// Forget pages `pids`: they leave the presence set (and the dirty
    /// set and the undo log, so a crash rollback cannot bring them back).
    /// The bytes stay in the file — punching the hole needs `fallocate`,
    /// which `std` does not expose — until ROADMAP item 6 gives the
    /// devices a data directory of their own. Only the buffer manager's
    /// SSD runs on this backend today, and it never discards.
    pub fn discard(&self, pids: std::ops::Range<u64>) {
        let mut st = self.state.lock();
        for pid in pids {
            st.present.remove(&pid);
            st.dirty.remove(&pid);
            st.undo.remove(&pid);
        }
    }

    /// Whether page `pid` exists.
    pub fn contains(&self, pid: u64) -> bool {
        self.state.lock().present.contains(&pid)
    }

    /// Number of pages currently stored.
    pub fn page_count(&self) -> usize {
        self.state.lock().present.len()
    }

    /// Highest page id stored, if any.
    pub fn max_page_id(&self) -> Option<u64> {
        self.state.lock().present.iter().max().copied()
    }
}

impl Drop for FileSsdDevice {
    fn drop(&mut self) {
        if self.unlink_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl std::fmt::Debug for FileSsdDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileSsdDevice")
            .field("path", &self.path)
            .field("page_size", &self.page_size)
            .field("direct", &self.direct)
            .field("pages", &self.page_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(durable: bool) -> FileSsdDevice {
        FileSsdDevice::new(4096, None, durable).expect("file ssd")
    }

    #[test]
    fn write_read_round_trip() {
        let d = dev(false);
        let page = vec![7u8; 4096];
        d.write_page(42, &page, 4096).unwrap();
        let mut buf = vec![0u8; 4096];
        d.read_page(42, &mut buf).unwrap();
        assert_eq!(buf, page);
        assert!(d.contains(42));
        assert!(!d.contains(43));
        assert_eq!(d.page_count(), 1);
        assert_eq!(d.max_page_id(), Some(42));
    }

    #[test]
    fn missing_page_is_an_error() {
        let d = dev(false);
        let mut buf = vec![0u8; 4096];
        assert_eq!(
            d.read_page(1, &mut buf).unwrap_err(),
            DeviceError::PageNotFound(1)
        );
    }

    #[test]
    fn torn_write_keeps_old_tail() {
        let d = dev(false);
        d.write_page(3, &vec![1u8; 4096], 4096).unwrap();
        d.write_page(3, &vec![2u8; 4096], 256).unwrap();
        let mut buf = vec![0u8; 4096];
        d.read_page(3, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
        assert_eq!(buf[255], 2);
        assert_eq!(buf[256], 1, "old tail survives a torn write");
        // Fresh page: zero tail.
        d.write_page(4, &vec![9u8; 4096], 128).unwrap();
        d.read_page(4, &mut buf).unwrap();
        assert_eq!(buf[127], 9);
        assert_eq!(buf[128], 0);
    }

    #[test]
    fn unsynced_writes_roll_back_on_crash() {
        let d = dev(true);
        d.write_page(1, &vec![1u8; 4096], 4096).unwrap();
        d.sync().unwrap();
        d.write_page(1, &vec![9u8; 4096], 4096).unwrap();
        d.write_page(2, &vec![2u8; 4096], 4096).unwrap();
        d.simulate_crash();
        let mut buf = vec![0u8; 4096];
        d.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "page 1 rolled back to synced image");
        assert_eq!(
            d.read_page(2, &mut buf).unwrap_err(),
            DeviceError::PageNotFound(2),
            "never-synced page vanishes"
        );
        assert_eq!(d.page_count(), 1);
    }

    #[test]
    fn batch_coalesces_contiguous_runs() {
        let d = dev(false);
        let pages: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i + 1; 4096]).collect();
        // Out-of-order ids 7,5,6 plus isolated 10, 12: two runs + two singles.
        let mut batch: Vec<(u64, &[u8])> = vec![
            (7, &pages[0]),
            (5, &pages[1]),
            (10, &pages[2]),
            (6, &pages[3]),
            (12, &pages[4]),
        ];
        let submissions = d.write_pages(&mut batch).unwrap();
        assert_eq!(submissions, 3, "5..=7 coalesce; 10 and 12 stand alone");
        let mut buf = vec![0u8; 4096];
        d.read_page(5, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
        d.read_page(6, &mut buf).unwrap();
        assert_eq!(buf[0], 4);
        d.read_page(7, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        d.read_page(12, &mut buf).unwrap();
        assert_eq!(buf[0], 5);
        assert_eq!(d.page_count(), 5);
    }

    #[test]
    fn batch_writes_roll_back_on_crash() {
        let d = dev(true);
        d.write_page(5, &vec![1u8; 4096], 4096).unwrap();
        d.sync().unwrap();
        let new5 = vec![9u8; 4096];
        let new6 = vec![6u8; 4096];
        let mut batch: Vec<(u64, &[u8])> = vec![(5, &new5), (6, &new6)];
        d.write_pages(&mut batch).unwrap();
        d.simulate_crash();
        let mut buf = vec![0u8; 4096];
        d.read_page(5, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        assert!(!d.contains(6));
    }

    #[test]
    fn explicit_path_survives_drop_and_reopen() {
        let path = std::env::temp_dir().join(format!(
            "spitfire-ssd-test-{}-{}.img",
            std::process::id(),
            line!()
        ));
        {
            let d = FileSsdDevice::new(4096, Some(path.clone()), false).unwrap();
            d.write_page(1, &vec![3u8; 4096], 4096).unwrap();
            d.sync().unwrap();
        }
        assert!(path.exists(), "explicit path is not unlinked on drop");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_reports_dirty_bytes() {
        let d = dev(true);
        d.write_page(1, &vec![1u8; 4096], 4096).unwrap();
        d.write_page(2, &vec![2u8; 4096], 4096).unwrap();
        assert_eq!(d.sync().unwrap(), 8192);
        assert_eq!(d.sync().unwrap(), 0);
    }
}
