//! Pinned-page guards.
//!
//! A [`PageGuard`] represents one pinned copy of a page. While a guard is
//! alive its copy cannot be evicted or migrated. Reads and writes through
//! the guard are charged to the device the copy resides on — this is how
//! directly operating on NVM-resident data (paper §3.1) pays NVM latency
//! instead of DRAM latency.

use spitfire_device::AccessPattern;
use spitfire_sync::VersionLatch;

use crate::descriptor::Dirt;
use crate::manager::BufferManager;
use crate::types::{FrameId, PageId, Tier};
use crate::Result;

/// Which copy the guard pinned and how to reach its bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GuardKind {
    /// Full-page copy in the tier-1 (DRAM / memory-mode) pool.
    FullDram(FrameId),
    /// Full-page copy in the NVM pool.
    FullNvm(FrameId),
    /// Fine-grained or mini copy in DRAM; all access goes through the
    /// descriptor lock (see `fgpage`).
    FineGrained,
}

/// A pinned reference to one resident copy of a page.
///
/// Dropping the guard unpins the copy. A thread must not hold two guards on
/// the same page at once (migrations assume each pin belongs to a distinct
/// operation).
pub struct PageGuard<'a> {
    bm: &'a BufferManager,
    pid: PageId,
    kind: GuardKind,
    /// True if the pinned copy lives in the DRAM slot of the descriptor
    /// (fine-grained copies always do), so its pin is on the DRAM word.
    in_dram_slot: bool,
}

impl<'a> PageGuard<'a> {
    /// Wrap a pin the caller already took on the copy `kind` names, in
    /// that copy's pin word — lock-free or under the descriptor mutex, the
    /// drop is the same.
    #[inline]
    pub(crate) fn new(bm: &'a BufferManager, pid: PageId, kind: GuardKind) -> Self {
        PageGuard {
            bm,
            pid,
            kind,
            in_dram_slot: !matches!(kind, GuardKind::FullNvm(_)),
        }
    }

    /// The page this guard pins.
    pub fn page_id(&self) -> PageId {
        self.pid
    }

    /// The tier serving this guard's accesses.
    pub fn tier(&self) -> Tier {
        match self.kind {
            GuardKind::FullDram(_) | GuardKind::FineGrained => Tier::Dram,
            GuardKind::FullNvm(_) => Tier::Nvm,
        }
    }

    /// Read `buf.len()` bytes of page content starting at `offset`.
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        match self.kind {
            GuardKind::FullDram(f) => {
                self.bm
                    .tier1_pool()
                    .read(f, offset, buf, AccessPattern::Random)
            }
            GuardKind::FullNvm(f) => self
                .bm
                .nvm_pool()
                .read(f, offset, buf, AccessPattern::Random),
            GuardKind::FineGrained => self.bm.fg_read(self.pid, offset, buf),
        }
    }

    /// Write `data` into the page at `offset`, marking the copy dirty.
    ///
    /// Writes to an NVM-resident copy are persisted (`clwb` + `sfence`)
    /// before returning, matching the paper's durability protocol for the
    /// NVM buffer (§5.2: NVM-resident pages are never flushed to SSD on
    /// checkpoint because they are already persistent).
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.write_dirt(offset, data, Dirt::Data)
    }

    /// [`write`](Self::write), raising the copy's dirt to at most `dirt`
    /// ([`WriteGuard::write_hint`] passes [`Dirt::Hint`]). The device
    /// write, the NVM persist and the pin-word version bump are the same
    /// whatever `dirt` is; only data dirt is ever written to SSD.
    /// Fine-grained and mini copies take every write as data.
    pub(crate) fn write_dirt(&self, offset: usize, data: &[u8], dirt: Dirt) -> Result<()> {
        match self.kind {
            GuardKind::FullDram(f) => {
                self.bm
                    .tier1_pool()
                    .write(f, offset, data, AccessPattern::Random)?;
            }
            GuardKind::FullNvm(f) => {
                let pool = self.bm.nvm_pool();
                pool.write(f, offset, data, AccessPattern::Random)?;
                pool.persist(f, offset, data.len())?;
            }
            GuardKind::FineGrained => self.bm.fg_write(self.pid, offset, data)?,
        }
        if !matches!(self.kind, GuardKind::FineGrained) {
            self.bm.mark_dirty(self.pid, self.in_dram_slot, dirt);
        }
        Ok(())
    }

    /// Read a little-endian `u64` at `offset` (convenience for headers).
    pub fn read_u64(&self, offset: usize) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian `u64` at `offset`.
    pub fn write_u64(&self, offset: usize, value: u64) -> Result<()> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Page size in bytes (content addressable through this guard).
    pub fn page_size(&self) -> usize {
        self.bm.page_size()
    }

    /// Run `f` on the page's content latch: one optimistic
    /// [`VersionLatch`] per page, kept in the page's descriptor, so every
    /// guard on the page — on whichever tier its copy sits, before and
    /// after any migration — reaches the same word. The buffer manager
    /// never takes it; it is for whoever structures the page's bytes (the
    /// B+tree couples these down a descent).
    ///
    /// The descriptor is resolved the way this guard's writes and its drop
    /// resolve it: from the per-thread cache the fetch filled, no lock and
    /// no reference count, with the mapping table as the fallback when the
    /// slot was stolen. `f` must not fetch a page. `None` means the
    /// descriptor is gone — `simulate_crash` ran under this guard, and the
    /// latch state died with every other volatile structure.
    pub fn latch<R>(&self, f: impl FnOnce(&VersionLatch) -> R) -> Option<R> {
        self.bm.with_desc(self.pid, |desc| f(&desc.latch))
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.bm.unpin_fast(self.pid, self.in_dram_slot);
    }
}

impl std::fmt::Debug for PageGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("pid", &self.pid)
            .field("tier", &self.tier())
            .finish_non_exhaustive()
    }
}

/// A read-only pinned page, returned by
/// [`BufferManager::fetch_read`](crate::BufferManager::fetch_read).
///
/// Wraps a [`PageGuard`] but exposes no write methods, so writing through
/// a read-intent fetch is a compile error rather than a silently
/// mis-charged policy decision (the D_r/D_w coins differ by intent). A
/// holder that read first and now has to write converts the guard with
/// [`upgrade`](Self::upgrade), which charges the write its own coin.
#[derive(Debug)]
pub struct ReadGuard<'a> {
    inner: PageGuard<'a>,
}

impl<'a> ReadGuard<'a> {
    pub(crate) fn new(inner: PageGuard<'a>) -> Self {
        ReadGuard { inner }
    }

    /// The page this guard pins.
    pub fn page_id(&self) -> PageId {
        self.inner.page_id()
    }

    /// The tier serving this guard's accesses.
    pub fn tier(&self) -> Tier {
        self.inner.tier()
    }

    /// Page size in bytes (content addressable through this guard).
    pub fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    /// Read `buf.len()` bytes of page content starting at `offset`.
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.inner.read(offset, buf)
    }

    /// Read a little-endian `u64` at `offset` (convenience for headers).
    pub fn read_u64(&self, offset: usize) -> Result<u64> {
        self.inner.read_u64(offset)
    }

    /// Trade this guard for a [`WriteGuard`] on the same page: one logical
    /// access that reads and then writes (a tuple read that stamps its
    /// read timestamp) pins once instead of fetching twice.
    ///
    /// The write still pays the coin a write-intent fetch would have: on
    /// an NVM-resident copy with a DRAM tier above it, D_w is flipped once,
    /// *before* anything is written. Tails keeps the pin and the write
    /// lands in place on NVM; heads releases the pin, promotes the page
    /// and returns a guard on its DRAM copy (or on the NVM copy again if
    /// the promotion stood down — the coin is not re-drawn). A
    /// DRAM-resident copy, or any copy in a hierarchy with no tier to
    /// promote into, keeps its pin and draws nothing. Bytes read before
    /// the upgrade stay valid only under whatever the caller holds to
    /// keep writers off them (the heads path is unpinned for an instant).
    pub fn upgrade(self) -> Result<WriteGuard<'a>> {
        let bm = self.inner.bm;
        bm.upgrade(self.inner).map(WriteGuard::new)
    }
}

/// A writable pinned page, returned by
/// [`BufferManager::fetch_write`](crate::BufferManager::fetch_write) or
/// [`ReadGuard::upgrade`]: everything a [`ReadGuard`] offers, plus
/// [`write`](Self::write) / [`write_u64`](Self::write_u64) and their
/// may-be-lost twins [`write_hint`](Self::write_hint) /
/// [`write_u64_hint`](Self::write_u64_hint).
#[derive(Debug)]
pub struct WriteGuard<'a> {
    inner: PageGuard<'a>,
}

impl<'a> WriteGuard<'a> {
    pub(crate) fn new(inner: PageGuard<'a>) -> Self {
        WriteGuard { inner }
    }

    /// The page this guard pins.
    pub fn page_id(&self) -> PageId {
        self.inner.page_id()
    }

    /// The tier serving this guard's accesses.
    pub fn tier(&self) -> Tier {
        self.inner.tier()
    }

    /// Page size in bytes (content addressable through this guard).
    pub fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    /// Read `buf.len()` bytes of page content starting at `offset`.
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.inner.read(offset, buf)
    }

    /// Read a little-endian `u64` at `offset` (convenience for headers).
    pub fn read_u64(&self, offset: usize) -> Result<u64> {
        self.inner.read_u64(offset)
    }

    /// Write `data` into the page at `offset`, marking the copy dirty.
    /// See [`PageGuard::write`] for the NVM durability semantics.
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.inner.write(offset, data)
    }

    /// Write a little-endian `u64` at `offset`.
    pub fn write_u64(&self, offset: usize, value: u64) -> Result<()> {
        self.inner.write_u64(offset, value)
    }

    /// Write `data` as a *hint*: bytes the page may lose. The write itself
    /// is [`write`](Self::write)'s — same device write, same NVM persist,
    /// same pin-word version bump, so readers and shadow copies see it like
    /// any other — but it raises a clean copy only to hint dirt and never
    /// lowers data dirt. Hint dirt moves between DRAM and NVM exactly like data dirt and is
    /// never written to SSD: a copy holding nothing else is dropped like a
    /// clean one when it leaves the buffer, and the hint is gone. Use it
    /// only for bytes whose loss no reader can observe (an MVTO read
    /// timestamp no live transaction can consult). Fine-grained and mini
    /// copies treat it as a plain write.
    pub fn write_hint(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.inner.write_dirt(offset, data, Dirt::Hint)
    }

    /// [`write_hint`](Self::write_hint) of a little-endian `u64`.
    pub fn write_u64_hint(&self, offset: usize, value: u64) -> Result<()> {
        self.write_hint(offset, &value.to_le_bytes())
    }
}
