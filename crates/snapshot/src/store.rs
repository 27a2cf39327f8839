//! The snapshot store: a block file over a dedicated SSD device whose
//! blocks are reused as generations retire.
//!
//! | block | holds                                                        |
//! |-------|--------------------------------------------------------------|
//! | 0     | the superblock: the two newest generations, whole-page CRC   |
//! | ≥ 1   | an image block (one raw page), or a metadata block (index    |
//! |       | run, directory run, manifest) — see [`crate::format`]        |
//!
//! **Liveness rule.** A block is free exactly when no retained generation
//! and no writer in flight references it. A generation references its
//! manifest block, the metadata blocks the manifest lists, and every block
//! its directory names — including the ones it inherited. The writer takes
//! the lowest free block first (else the next block past the high-water
//! mark), so block addresses stay bounded by the high water of
//! `retained generations + one writer`, not by history; a writer that is
//! dropped or fails hands its blocks back.
//!
//! Install protocol (the emulated-device analogue of write-new + fsync +
//! atomic rename):
//!
//! 1. stream the generation's blocks into free blocks and sync them;
//! 2. rewrite the superblock (block 0) to name the previous newest
//!    generation and the new one, then sync again;
//! 3. only then swap the in-memory list and free what the retired
//!    generation alone referenced.
//!
//! A crash before step 2's sync leaves the old superblock governing, and
//! everything it names is untouched: reuse only ever overwrites blocks
//! that neither retained generation references, so a torn or half-done
//! reuse cannot damage the newest generation or its fallback. A failure in
//! step 2 leaves memory exactly as it was.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use spitfire_device::{
    retry_io, DeviceError, FaultInjector, PersistenceTracking, SsdDevice, StatsSnapshot, TimeScale,
};

use crate::format::{
    decode_block, encode_block, BlockKind, DirEntry, Manifest, TableMeta, BLOCK_HEADER,
    DIRECTORY_ENTRY, SUPER_MAGIC,
};
use spitfire_sync::crc32;

use crate::{Result, SnapshotError};

const SUPER_HEADER: usize = 16;
const SUPER_ENTRY: usize = 32;

/// Generations the superblock keeps: the newest and its fallback.
const RETAINED: usize = 2;

/// Smallest page that holds the superblock and a manifest listing a few
/// tables and metadata blocks.
const MIN_PAGE: usize = 256;

/// One installed generation, as recorded in the superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationInfo {
    /// Generation number (increasing; a failed attempt burns its number).
    pub generation: u64,
    /// Block holding the generation's manifest.
    pub manifest: u64,
    /// WAL fence LSN recorded at the generation's checkpoint.
    pub fence_lsn: u64,
    /// Whether this generation is a full (SSD-backed) snapshot.
    pub full: bool,
}

/// A retained generation and everything it references.
struct Retained {
    info: GenerationInfo,
    /// Page directory, page ids strictly ascending. Shared with the writer
    /// of the next incremental generation, which inherits it.
    directory: Arc<[DirEntry]>,
    /// Index-run and directory blocks (the manifest's list).
    meta: Vec<u64>,
}

impl Retained {
    fn blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.directory
            .iter()
            .map(|e| e.block)
            .chain(self.meta.iter().copied())
            .chain(std::iter::once(self.info.manifest))
    }
}

struct StoreState {
    /// Retained generations, ascending, at most [`RETAINED`].
    retained: Vec<Retained>,
    /// Number the next writer takes. Never handed out twice between two
    /// reloads, so blocks of a failed attempt cannot pass for blocks of
    /// the attempt that follows it.
    next_generation: u64,
    /// Free blocks in `1..high_water`.
    free: BTreeSet<u64>,
    /// First block never handed out (block 0 is the superblock).
    high_water: u64,
    /// Blocks held by writers in flight.
    in_flight: u64,
}

impl StoreState {
    fn empty() -> Self {
        StoreState {
            retained: Vec::new(),
            next_generation: 1,
            free: BTreeSet::new(),
            high_water: 1,
            in_flight: 0,
        }
    }

    /// Return `blocks` to the free set and pull the high-water mark back
    /// over a free tail, so a writer that comes and goes leaves the
    /// allocator as it found it.
    fn release(&mut self, blocks: impl IntoIterator<Item = u64>) {
        // Blocks at or past the mark are already "never handed out" (a
        // writer that outlived a `reload()` may hold some).
        let high_water = self.high_water;
        self.free
            .extend(blocks.into_iter().filter(|&b| b < high_water));
        while self.high_water > 1 && self.free.remove(&(self.high_water - 1)) {
            self.high_water -= 1;
        }
    }
}

/// A generation-numbered snapshot file over a dedicated SSD device.
pub struct SnapshotStore {
    dev: SsdDevice,
    /// Store block size = database page size = one device transfer.
    page_size: usize,
    state: Mutex<StoreState>,
}

/// A structurally invalid generation, as opposed to a device that failed.
fn is_invalid(e: &SnapshotError) -> bool {
    matches!(
        e,
        SnapshotError::Corrupt(_) | SnapshotError::Device(DeviceError::PageNotFound(_))
    )
}

impl SnapshotStore {
    /// Create a store for a database with `page_size`-byte pages. The
    /// backing device uses the same page size, so every block — image or
    /// metadata — is one device page.
    pub fn new(page_size: usize, scale: TimeScale, tracking: PersistenceTracking) -> Self {
        assert!(page_size >= MIN_PAGE, "snapshot page size too small");
        SnapshotStore {
            dev: SsdDevice::with_tracking(page_size, scale, tracking),
            page_size,
            state: Mutex::new(StoreState::empty()),
        }
    }

    /// The backing device (chaos schedules attach fault injectors here;
    /// tests corrupt block pages through it).
    pub fn device(&self) -> &SsdDevice {
        &self.dev
    }

    /// Attach (or detach) a fault injector on the backing device.
    pub fn set_fault_injector(&self, injector: Option<std::sync::Arc<FaultInjector>>) {
        self.dev.set_fault_injector(injector);
    }

    /// Change the emulated-delay scale of the backing device.
    pub fn set_time_scale(&self, scale: TimeScale) {
        self.dev.set_time_scale(scale);
    }

    /// Counters of the backing device.
    pub fn stats(&self) -> StatsSnapshot {
        self.dev.stats().snapshot()
    }

    /// Model power loss on the backing device: un-synced writes vanish.
    /// Call [`SnapshotStore::reload`] afterwards to re-read the surviving
    /// superblock.
    pub fn simulate_crash(&self) {
        self.dev.simulate_crash();
    }

    /// Bytes occupied on the backing device: every block ever handed out
    /// (free ones included) plus the superblock.
    pub fn used_bytes(&self) -> u64 {
        self.dev.used_bytes()
    }

    /// Blocks below the high-water mark that nothing references.
    pub fn free_blocks(&self) -> usize {
        self.state.lock().free.len()
    }

    /// Pages the newest generation's directory names (0 with no
    /// generation, or a full one).
    pub fn directory_pages(&self) -> usize {
        let state = self.state.lock();
        state.retained.last().map_or(0, |r| r.directory.len())
    }

    /// `gen`'s directory as `(page id, block)` pairs, page ids ascending —
    /// which block holds which page. `None` if `gen` is not retained.
    pub fn directory(&self, gen: u64) -> Option<Vec<(u64, u64)>> {
        let state = self.state.lock();
        let r = state.retained.iter().find(|r| r.info.generation == gen)?;
        Some(r.directory.iter().map(|e| (e.pid, e.block)).collect())
    }

    /// Re-read the superblock and the metadata of the generations it
    /// names, replacing the in-memory state: the generation list, each
    /// directory, and the free set (every block below the highest
    /// referenced one that no readable generation references). A missing
    /// or checksum-invalid superblock yields an empty store (the caller
    /// falls back to full-WAL recovery). A generation whose metadata does
    /// not read back cleanly is dead — its damage is permanent, it could
    /// never validate — so it is dropped here and its blocks are free.
    pub fn reload(&self) -> Result<()> {
        let mut page = vec![0u8; self.page_size];
        let entries = match retry_io(|| self.dev.read_page(0, &mut page)) {
            Ok(()) => decode_superblock(&page).unwrap_or_default(),
            Err(DeviceError::PageNotFound(_)) => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut state = StoreState::empty();
        for info in &entries {
            state.next_generation = state.next_generation.max(info.generation + 1);
            match self.read_metadata(info, &mut page, |_, _| {}) {
                Ok((manifest, directory)) => state.retained.push(Retained {
                    info: *info,
                    directory: directory.into(),
                    meta: manifest.meta_blocks,
                }),
                Err(e) if is_invalid(&e) => {}
                Err(e) => return Err(e),
            }
        }
        let referenced: BTreeSet<u64> = state.retained.iter().flat_map(Retained::blocks).collect();
        state.high_water = referenced.last().map_or(1, |b| b + 1);
        state.free = (1..state.high_water)
            .filter(|b| !referenced.contains(b))
            .collect();
        *self.state.lock() = state;
        Ok(())
    }

    /// The retained generations, ascending.
    pub fn generations(&self) -> Vec<GenerationInfo> {
        let state = self.state.lock();
        state.retained.iter().map(|r| r.info).collect()
    }

    /// The newest installed generation, if any.
    pub fn latest(&self) -> Option<GenerationInfo> {
        self.state.lock().retained.last().map(|r| r.info)
    }

    /// The recorded entry for `gen`, if still retained.
    pub fn entry(&self, gen: u64) -> Option<GenerationInfo> {
        let state = self.state.lock();
        let r = state.retained.iter().find(|r| r.info.generation == gen)?;
        Some(r.info)
    }

    /// Start streaming a new generation. `full` starts from an empty
    /// directory (also implied when the store is empty); an incremental
    /// generation inherits the directory of the current newest one. The
    /// generation becomes visible only when [`SnapshotWriter::finish`]
    /// installs it.
    pub fn begin(&self, full: bool, fence_lsn: u64) -> SnapshotWriter<'_> {
        let mut state = self.state.lock();
        let generation = state.next_generation;
        state.next_generation += 1;
        let (full, parent, inherited) = match state.retained.last() {
            Some(newest) if !full => (false, newest.info.generation, Arc::clone(&newest.directory)),
            _ => (true, 0, Arc::from(Vec::new())),
        };
        SnapshotWriter {
            store: self,
            generation,
            parent,
            full,
            fence_lsn,
            inherited,
            images: Vec::new(),
            meta: Vec::new(),
            manifest: None,
            index_table: 0,
            index_buf: Vec::new(),
            block: vec![0u8; self.page_size],
        }
    }

    /// The newest generation that passes validation, walking newest →
    /// oldest. Transient read faults are retried; anything else just
    /// disqualifies the generation.
    pub fn newest_valid(&self) -> Option<u64> {
        let gens: Vec<u64> = self.generations().iter().map(|e| e.generation).collect();
        gens.into_iter()
            .rev()
            .find(|&g| self.validate(g).unwrap_or(false))
    }

    /// Check every block `gen` references, re-reading all of them from
    /// the device: the metadata blocks against their own CRCs, each image
    /// against the CRC its directory entry records. No payloads are
    /// delivered.
    pub fn validate(&self, gen: u64) -> Result<bool> {
        match self.load(gen, |_, _| {}, |_, _| {}) {
            Ok(_) => Ok(true),
            Err(e) if is_invalid(&e) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Stream `gen` to the callbacks: its index runs, then each page its
    /// directory names, once, at its newest image as of `gen`. Returns
    /// `gen`'s manifest. Every block is re-read from the device and
    /// checked as in [`SnapshotStore::validate`] — run that first: a
    /// checksum failure here is an error, not a fallback.
    pub fn load(
        &self,
        gen: u64,
        mut on_page: impl FnMut(u64, &[u8]),
        on_index: impl FnMut(u32, &[(u64, u64)]),
    ) -> Result<Manifest> {
        let info = self
            .entry(gen)
            .ok_or(SnapshotError::Corrupt("generation not retained"))?;
        let mut page = vec![0u8; self.page_size];
        let (manifest, directory) = self.read_metadata(&info, &mut page, on_index)?;
        for e in &directory {
            retry_io(|| self.dev.read_page(e.block, &mut page))?;
            if crc32(&page) != e.crc {
                return Err(SnapshotError::Corrupt("image CRC mismatch"));
            }
            on_page(e.pid, &page);
        }
        Ok(manifest)
    }

    /// Read and check `info`'s manifest and the metadata blocks it lists,
    /// from the device. Index runs go to `on_index`; the directory is
    /// returned, page ids strictly ascending.
    fn read_metadata(
        &self,
        info: &GenerationInfo,
        page: &mut [u8],
        mut on_index: impl FnMut(u32, &[(u64, u64)]),
    ) -> Result<(Manifest, Vec<DirEntry>)> {
        retry_io(|| self.dev.read_page(info.manifest, page))?;
        let block = decode_block(page)?;
        if block.kind != BlockKind::Manifest || block.gen != info.generation {
            return Err(SnapshotError::Corrupt("not this generation's manifest"));
        }
        let manifest = Manifest::decode(block.payload)?;
        if manifest.generation != info.generation
            || manifest.fence_lsn != info.fence_lsn
            || manifest.full != info.full
            || block.seq != manifest.meta_blocks.len() as u64
        {
            return Err(SnapshotError::Corrupt("manifest disagrees with superblock"));
        }
        let mut directory = Vec::new();
        for (seq, &at) in manifest.meta_blocks.iter().enumerate() {
            retry_io(|| self.dev.read_page(at, page))?;
            let block = decode_block(page)?;
            if block.gen != info.generation || block.seq != seq as u64 {
                return Err(SnapshotError::Corrupt("metadata block out of place"));
            }
            match block.kind {
                BlockKind::IndexRun => {
                    if block.payload.len() % 16 != 0 {
                        return Err(SnapshotError::Corrupt("ragged index run"));
                    }
                    let entries: Vec<(u64, u64)> = block
                        .payload
                        .chunks_exact(16)
                        .map(|c| {
                            (
                                u64::from_le_bytes(c[0..8].try_into().unwrap()),
                                u64::from_le_bytes(c[8..16].try_into().unwrap()),
                            )
                        })
                        .collect();
                    on_index(block.tag, &entries);
                }
                BlockKind::Directory => DirEntry::decode_run(block.payload, &mut directory)?,
                BlockKind::Manifest => {
                    return Err(SnapshotError::Corrupt("manifest listed as metadata"))
                }
            }
        }
        if directory.len() as u64 != manifest.directory_pages {
            return Err(SnapshotError::Corrupt("directory length mismatch"));
        }
        if !directory.windows(2).all(|w| w[0].pid < w[1].pid) {
            return Err(SnapshotError::Corrupt("directory names a page twice"));
        }
        Ok((manifest, directory))
    }

    fn alloc(&self) -> u64 {
        let mut state = self.state.lock();
        state.in_flight += 1;
        state.free.pop_first().unwrap_or_else(|| {
            state.high_water += 1;
            state.high_water - 1
        })
    }

    /// A writer is done with `blocks` without having installed them.
    fn give_back(&self, blocks: Vec<u64>) {
        let mut state = self.state.lock();
        // Saturating: a reload() under a live writer reset the count.
        state.in_flight = state.in_flight.saturating_sub(blocks.len() as u64);
        state.release(blocks);
    }

    /// Make `new` the newest generation: write and sync a superblock that
    /// names it and the previous newest, *then* swap the in-memory list
    /// and free what only the retired generation referenced, plus whatever
    /// of `allocated` (the writer's blocks) `new` does not reference.
    /// `parent` is the generation whose directory `new` inherited.
    /// Called by the writer after its blocks are durable. On failure the
    /// state is untouched — the durable superblock still describes it.
    fn install(&self, new: Retained, parent: u64, allocated: &[u64]) -> Result<()> {
        let mut state = self.state.lock();
        // An inherited directory is only protected while its owner is the
        // newest generation: had another writer installed meanwhile, the
        // blocks it names could already be free.
        let newest = state.retained.last().map_or(0, |r| r.info.generation);
        if new.info.generation <= newest || !(new.info.full || parent == newest) {
            return Err(SnapshotError::Corrupt(
                "generation superseded while it was written",
            ));
        }
        let retire = state.retained.len().saturating_sub(RETAINED - 1);
        let infos: Vec<GenerationInfo> = state.retained[retire..]
            .iter()
            .map(|r| r.info)
            .chain(std::iter::once(new.info))
            .collect();
        let mut page = vec![0u8; self.page_size];
        encode_superblock(&mut page, &infos);
        retry_io(|| {
            self.dev.write_page(0, &page)?;
            self.dev.sync()
        })?;

        let retired: Vec<Retained> = state.retained.drain(..retire).collect();
        state.retained.push(new);
        let live: HashSet<u64> = state.retained.iter().flat_map(Retained::blocks).collect();
        let dead: Vec<u64> = retired
            .iter()
            .flat_map(Retained::blocks)
            .chain(allocated.iter().copied())
            .filter(|b| !live.contains(b))
            .collect();
        state.in_flight = state.in_flight.saturating_sub(allocated.len() as u64);
        state.release(dead);
        Ok(())
    }

    /// Walk the allocator's invariants: at most two generations, ascending;
    /// every directory names a page at most once; every block a retained
    /// generation references exists on the device, lies below the
    /// high-water mark, is referenced once within its generation and is
    /// not free; and free, referenced and in-flight blocks together are
    /// exactly `1..high_water` — nothing leaks.
    pub fn check(&self) -> std::result::Result<(), String> {
        let state = self.state.lock();
        if state.retained.len() > RETAINED {
            return Err(format!("{} generations retained", state.retained.len()));
        }
        let gens: Vec<u64> = state.retained.iter().map(|r| r.info.generation).collect();
        if !gens.windows(2).all(|w| w[0] < w[1]) || gens.last() >= Some(&state.next_generation) {
            return Err(format!(
                "generations {gens:?} out of order (next {})",
                state.next_generation
            ));
        }
        let mut referenced = BTreeSet::new();
        for r in &state.retained {
            let gen = r.info.generation;
            if !r.directory.windows(2).all(|w| w[0].pid < w[1].pid) {
                return Err(format!("generation {gen}: directory names a page twice"));
            }
            let mut own = HashSet::new();
            for b in r.blocks() {
                if !own.insert(b) {
                    return Err(format!("generation {gen}: block {b} referenced twice"));
                }
                if b == 0 || b >= state.high_water || !self.dev.contains(b) {
                    return Err(format!("generation {gen}: block {b} does not exist"));
                }
                if state.free.contains(&b) {
                    return Err(format!("generation {gen}: block {b} is free"));
                }
                referenced.insert(b);
            }
        }
        if state.free.iter().any(|&b| b == 0 || b >= state.high_water) {
            return Err(format!(
                "free block outside 1..{}: {:?}",
                state.high_water, state.free
            ));
        }
        let accounted = (state.free.len() + referenced.len()) as u64 + state.in_flight;
        if accounted != state.high_water - 1 {
            return Err(format!(
                "{} free + {} referenced + {} in flight != {} blocks handed out",
                state.free.len(),
                referenced.len(),
                state.in_flight,
                state.high_water - 1
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("SnapshotStore")
            .field("generations", &state.retained.len())
            .field("high_water", &state.high_water)
            .field("free", &state.free.len())
            .finish_non_exhaustive()
    }
}

/// Streams one generation's blocks; see [`SnapshotStore::begin`]. Memory
/// is one block of scratch plus one directory entry (20 bytes on disk)
/// per image written; the inherited directory is shared, not copied,
/// until [`SnapshotWriter::finish`] merges the two.
pub struct SnapshotWriter<'a> {
    store: &'a SnapshotStore,
    generation: u64,
    parent: u64,
    full: bool,
    fence_lsn: u64,
    /// The parent's directory (empty for a full generation).
    inherited: Arc<[DirEntry]>,
    /// One entry per image written, in write order. With `meta` and
    /// `manifest`, these are exactly the blocks this writer holds.
    images: Vec<DirEntry>,
    /// Index-run and directory blocks written, in sequence order.
    meta: Vec<u64>,
    manifest: Option<u64>,
    index_table: u32,
    index_buf: Vec<u8>,
    /// Single-block scratch for metadata framing.
    block: Vec<u8>,
}

impl SnapshotWriter<'_> {
    /// The generation number being written.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether this generation is a full snapshot.
    pub fn is_full(&self) -> bool {
        self.full
    }

    fn payload_capacity(&self) -> usize {
        self.store.page_size - BLOCK_HEADER
    }

    fn held_blocks(&self) -> Vec<u64> {
        self.images
            .iter()
            .map(|e| e.block)
            .chain(self.meta.iter().copied())
            .chain(self.manifest)
            .collect()
    }

    /// Write one metadata block into a fresh block; its sequence number
    /// is its position in the manifest's list (the manifest itself comes
    /// one past the end).
    fn write_meta(&mut self, kind: BlockKind, tag: u32, payload: &[u8]) -> Result<()> {
        let at = self.store.alloc();
        let seq = self.meta.len() as u64;
        // Recorded before the write: a failed write still holds the block.
        match kind {
            BlockKind::Manifest => self.manifest = Some(at),
            BlockKind::IndexRun | BlockKind::Directory => self.meta.push(at),
        }
        encode_block(&mut self.block, kind, tag, self.generation, seq, payload);
        retry_io(|| self.store.dev.append_page(at, &self.block))?;
        Ok(())
    }

    /// Write one page image, raw, into a fresh block; its identity and
    /// CRC go to the directory. A page written twice keeps the later image.
    pub fn page_image(&mut self, pid: u64, image: &[u8]) -> Result<()> {
        assert_eq!(
            image.len(),
            self.store.page_size,
            "page image size mismatch"
        );
        let block = self.store.alloc();
        self.images.push(DirEntry {
            pid,
            block,
            crc: crc32(image),
        });
        retry_io(|| self.store.dev.append_page(block, image))?;
        Ok(())
    }

    /// Append sorted `(key, rid)` index entries for `table`. Entries are
    /// packed into full blocks; a partial run is held until the table
    /// changes or the generation finishes.
    pub fn index_entries(&mut self, table: u32, entries: &[(u64, u64)]) -> Result<()> {
        if table != self.index_table && !self.index_buf.is_empty() {
            self.flush_index_run()?;
        }
        self.index_table = table;
        for &(key, rid) in entries {
            self.index_buf.extend_from_slice(&key.to_le_bytes());
            self.index_buf.extend_from_slice(&rid.to_le_bytes());
            if self.index_buf.len() + 16 > self.payload_capacity() {
                self.flush_index_run()?;
            }
        }
        Ok(())
    }

    fn flush_index_run(&mut self) -> Result<()> {
        if self.index_buf.is_empty() {
            return Ok(());
        }
        let payload = std::mem::take(&mut self.index_buf);
        self.write_meta(BlockKind::IndexRun, self.index_table, &payload)?;
        self.index_buf = payload;
        self.index_buf.clear();
        Ok(())
    }

    /// This generation's whole directory: every inherited entry whose
    /// page was not rewritten, plus the newest image of each page that
    /// was. Page ids strictly ascending.
    fn merged_directory(&self) -> Vec<DirEntry> {
        let mut merged: BTreeMap<u64, DirEntry> =
            self.inherited.iter().map(|e| (e.pid, *e)).collect();
        // In write order: a page written twice keeps the later image.
        merged.extend(self.images.iter().map(|e| (e.pid, *e)));
        merged.into_values().collect()
    }

    /// Close the generation: flush the pending index run, write the
    /// directory and the manifest that lists every metadata block, sync,
    /// then atomically install the generation in the superblock. Nothing
    /// becomes visible on failure, and the blocks go back to the free set.
    /// A manifest too large for one block is an error, never a truncation.
    pub fn finish(
        mut self,
        catalog_root: u64,
        next_page_id: u64,
        oracle_ts: u64,
        next_txn_id: u64,
        tables: Vec<TableMeta>,
    ) -> Result<GenerationInfo> {
        self.flush_index_run()?;
        let directory = self.merged_directory();
        let per_block = self.payload_capacity() / DIRECTORY_ENTRY;
        let mut payload = Vec::with_capacity(per_block * DIRECTORY_ENTRY);
        for run in directory.chunks(per_block) {
            payload.clear();
            run.iter().for_each(|e| e.encode_into(&mut payload));
            self.write_meta(BlockKind::Directory, 0, &payload)?;
        }
        let manifest = Manifest {
            generation: self.generation,
            parent: self.parent,
            full: self.full,
            fence_lsn: self.fence_lsn,
            catalog_root,
            next_page_id,
            oracle_ts,
            next_txn_id,
            page_images: self.images.len() as u64,
            directory_pages: directory.len() as u64,
            tables,
            meta_blocks: self.meta.clone(),
        };
        let payload = manifest.encode();
        if payload.len() > self.payload_capacity() {
            return Err(SnapshotError::Corrupt("manifest exceeds one block"));
        }
        self.write_meta(BlockKind::Manifest, 0, &payload)?;
        retry_io(|| self.store.dev.sync())?;
        let info = GenerationInfo {
            generation: self.generation,
            manifest: self.manifest.expect("manifest block just written"),
            fence_lsn: self.fence_lsn,
            full: self.full,
        };
        let new = Retained {
            info,
            directory: directory.into(),
            meta: manifest.meta_blocks,
        };
        let held = self.held_blocks();
        self.store.install(new, self.parent, &held)?;
        // Installed: the blocks are the generation's (or already freed).
        self.images.clear();
        self.meta.clear();
        self.manifest = None;
        Ok(info)
    }
}

impl Drop for SnapshotWriter<'_> {
    /// A writer that did not install hands its blocks back.
    fn drop(&mut self) {
        let held = self.held_blocks();
        if !held.is_empty() {
            self.store.give_back(held);
        }
    }
}

impl std::fmt::Debug for SnapshotWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter")
            .field("generation", &self.generation)
            .field("images", &self.images.len())
            .field("meta_blocks", &self.meta.len())
            .finish_non_exhaustive()
    }
}

fn encode_superblock(page: &mut [u8], entries: &[GenerationInfo]) {
    page.fill(0);
    page[0..8].copy_from_slice(&SUPER_MAGIC.to_le_bytes());
    page[8..12].copy_from_slice(&2u32.to_le_bytes());
    page[12..16].copy_from_slice(&(entries.len() as u32).to_le_bytes());
    for (i, e) in entries.iter().enumerate() {
        let o = SUPER_HEADER + i * SUPER_ENTRY;
        page[o..o + 8].copy_from_slice(&e.generation.to_le_bytes());
        page[o + 8..o + 16].copy_from_slice(&e.manifest.to_le_bytes());
        page[o + 16..o + 24].copy_from_slice(&e.fence_lsn.to_le_bytes());
        page[o + 24..o + 32].copy_from_slice(&u64::from(e.full).to_le_bytes());
    }
    let crc_at = page.len() - 4;
    let crc = crc32(&page[..crc_at]);
    page[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

fn decode_superblock(page: &[u8]) -> Option<Vec<GenerationInfo>> {
    if page.len() < SUPER_HEADER + 4 {
        return None;
    }
    let crc_at = page.len() - 4;
    let stored = u32::from_le_bytes(page[crc_at..].try_into().unwrap());
    if stored != crc32(&page[..crc_at]) {
        return None;
    }
    let u64_at = |o: usize| u64::from_le_bytes(page[o..o + 8].try_into().unwrap());
    if u64_at(0) != SUPER_MAGIC {
        return None;
    }
    let n = u32::from_le_bytes(page[12..16].try_into().unwrap()) as usize;
    if n > RETAINED {
        return None;
    }
    let mut entries: Vec<GenerationInfo> = (0..n)
        .map(|i| {
            let o = SUPER_HEADER + i * SUPER_ENTRY;
            GenerationInfo {
                generation: u64_at(o),
                manifest: u64_at(o + 8),
                fence_lsn: u64_at(o + 16),
                full: u64_at(o + 24) != 0,
            }
        })
        .collect();
    entries.sort_by_key(|e| e.generation);
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitfire_device::{FaultKind, FaultOp, FaultPlan, FaultRule, Trigger};

    const PAGE: usize = 256;

    fn store() -> SnapshotStore {
        SnapshotStore::new(PAGE, TimeScale::ZERO, PersistenceTracking::Full)
    }

    fn image(fill: u8) -> Vec<u8> {
        vec![fill; PAGE]
    }

    /// Install one generation holding `pages` (`(pid, fill)`) and a
    /// one-entry index run.
    fn generation(s: &SnapshotStore, full: bool, pages: &[(u64, u8)]) -> GenerationInfo {
        let mut w = s.begin(full, 0);
        for &(pid, fill) in pages {
            w.page_image(pid, &image(fill)).unwrap();
        }
        w.index_entries(1, &[(1, 10)]).unwrap();
        let info = w.finish(0, 0, 0, 0, Vec::new()).unwrap();
        s.check().unwrap();
        info
    }

    /// What `load` delivers for `gen`: `pid -> fill`, each page once.
    fn pages_of(s: &SnapshotStore, gen: u64) -> Vec<(u64, u8)> {
        let mut pages = Vec::new();
        s.load(gen, |pid, img| pages.push((pid, img[0])), |_, _| {})
            .unwrap();
        pages
    }

    fn allocator(s: &SnapshotStore) -> (Vec<u64>, u64, u64) {
        let state = s.state.lock();
        (
            state.free.iter().copied().collect(),
            state.high_water,
            state.in_flight,
        )
    }

    /// Overwrite `block` with garbage and make it durable.
    fn rot(s: &SnapshotStore, block: u64) {
        s.device().write_page(block, &[0xEE; PAGE]).unwrap();
        s.device().sync().unwrap();
    }

    /// Fails every superblock write; everything else proceeds.
    fn failing_superblock() -> Arc<FaultInjector> {
        let plan = FaultPlan::new(1).rule(
            FaultRule::any(Trigger::Always, FaultKind::Fatal)
                .on_op(FaultOp::Write)
                .in_range(0, PAGE as u64),
        );
        Arc::new(FaultInjector::new(plan))
    }

    #[test]
    fn write_install_reload_round_trip() {
        let s = store();
        let mut w = s.begin(true, 100);
        w.page_image(7, &image(0xAA)).unwrap();
        w.page_image(9, &image(0xBB)).unwrap();
        w.index_entries(1, &[(1, 10), (2, 20)]).unwrap();
        let info = w
            .finish(
                0,
                12,
                500,
                6,
                vec![TableMeta {
                    id: 1,
                    tuple_size: 64,
                    catalog_head: 2,
                    allocated_slots: 3,
                }],
            )
            .unwrap();
        assert_eq!(info.generation, 1);
        assert!(info.full);
        // Two images, one index run, one directory block, the manifest,
        // the superblock: every block is exactly one device page.
        assert_eq!(s.used_bytes(), 6 * PAGE as u64);
        assert_eq!(s.stats().write_ops, 6);

        // A crash after install keeps the generation (everything synced).
        s.simulate_crash();
        s.reload().unwrap();
        s.check().unwrap();
        assert_eq!(s.newest_valid(), Some(1));

        let mut pages = Vec::new();
        let mut idx = Vec::new();
        let m = s
            .load(
                1,
                |pid, img| pages.push((pid, img[0])),
                |t, e| idx.push((t, e.to_vec())),
            )
            .unwrap();
        assert_eq!(pages, vec![(7, 0xAA), (9, 0xBB)]);
        assert_eq!(idx, vec![(1, vec![(1, 10), (2, 20)])]);
        assert_eq!(m.fence_lsn, 100);
        assert_eq!(m.oracle_ts, 500);
        assert_eq!(m.tables.len(), 1);
        assert_eq!((m.page_images, m.directory_pages), (2, 2));
        assert_eq!(s.directory_pages(), 2);
    }

    #[test]
    fn uninstalled_generation_vanishes_on_crash() {
        let s = store();
        let mut w = s.begin(true, 0);
        w.page_image(1, &image(1)).unwrap();
        drop(w); // never finished: no superblock update
        s.simulate_crash();
        s.reload().unwrap();
        s.check().unwrap();
        assert_eq!(s.latest(), None);
        assert_eq!(s.newest_valid(), None);
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn corrupt_newest_falls_back_a_generation() {
        // Victim: an image block, the directory block, the manifest.
        for victim in 0..3 {
            let s = store();
            generation(&s, true, &[(3, 1)]);
            generation(&s, false, &[(3, 2), (4, 2)]);
            let g3 = generation(&s, false, &[(4, 3)]);
            assert_eq!(s.newest_valid(), Some(3));
            let manifest = s.load(3, |_, _| {}, |_, _| {}).unwrap();
            let block = match victim {
                0 => s.directory(3).unwrap()[1].1,
                1 => *manifest.meta_blocks.last().unwrap(),
                _ => g3.manifest,
            };
            rot(&s, block);
            assert!(!s.validate(3).unwrap(), "victim {victim}");
            assert!(s.load(3, |_, _| {}, |_, _| {}).is_err());
            assert_eq!(s.newest_valid(), Some(2), "victim {victim}");
            assert_eq!(pages_of(&s, 2), vec![(3, 2), (4, 2)]);

            // Reload drops the dead generation but not its number.
            s.simulate_crash();
            s.reload().unwrap();
            s.check().unwrap();
            let gens: Vec<u64> = s.generations().iter().map(|e| e.generation).collect();
            if victim == 0 {
                // Metadata reads back; only validation sees the image.
                assert_eq!(gens, vec![2, 3]);
            } else {
                assert_eq!(gens, vec![2]);
            }
            assert_eq!(s.newest_valid(), Some(2));
            assert_eq!(s.begin(false, 0).generation(), 4);
        }
    }

    #[test]
    fn rot_in_an_inherited_image_disqualifies_every_generation_naming_it() {
        let s = store();
        generation(&s, true, &[(3, 1), (4, 1)]);
        generation(&s, false, &[(4, 2)]);
        // Page 3's only image is shared by both directories.
        let shared = s.directory(2).unwrap()[0];
        assert_eq!(shared, s.directory(1).unwrap()[0]);
        rot(&s, shared.1);
        assert_eq!(s.newest_valid(), None);
    }

    #[test]
    fn stale_image_of_the_same_page_fails_the_directory_crc() {
        let s = store();
        generation(&s, true, &[(7, 1)]);
        generation(&s, false, &[(7, 2)]);
        let old = s.directory(1).unwrap()[0].1;
        let new = s.directory(2).unwrap()[0].1;
        assert_ne!(old, new);
        // A lost write: generation 2's block still holds the older image
        // of the very page its entry names. No header could tell.
        let mut stale = image(0);
        s.device().read_page(old, &mut stale).unwrap();
        s.device().write_page(new, &stale).unwrap();
        s.device().sync().unwrap();
        assert!(!s.validate(2).unwrap());
        assert_eq!(s.newest_valid(), Some(1));
    }

    #[test]
    fn superblock_keeps_the_two_newest_generations() {
        let s = store();
        for i in 0..6u8 {
            generation(&s, i % 3 == 0, &[(1, i)]);
        }
        let gens: Vec<u64> = s.generations().iter().map(|e| e.generation).collect();
        assert_eq!(gens, vec![5, 6]);
        assert_eq!(s.newest_valid(), Some(6));
        assert!(!s.validate(4).unwrap(), "retired generations are gone");
        // Reload rebuilds the list and the allocator exactly.
        let before = allocator(&s);
        s.simulate_crash();
        s.reload().unwrap();
        s.check().unwrap();
        assert_eq!(s.generations().len(), 2);
        assert_eq!(allocator(&s), before);
    }

    #[test]
    fn incremental_directory_inherits_then_overrides() {
        let s = store();
        generation(&s, true, &[(1, 0x11), (2, 0x22)]);
        generation(&s, false, &[(2, 0x99)]);
        generation(&s, false, &[(5, 0x55)]);
        generation(&s, false, &[(1, 0x77)]);
        // Generations 1 and 2 are retired, and 4 needs neither: each page
        // once, at its newest image, inherited or not.
        assert_eq!(pages_of(&s, 4), vec![(1, 0x77), (2, 0x99), (5, 0x55)]);
        assert_eq!(pages_of(&s, 3), vec![(1, 0x11), (2, 0x99), (5, 0x55)]);
        let m = s.load(4, |_, _| {}, |_, _| {}).unwrap();
        assert_eq!((m.parent, m.full), (3, false));
        assert_eq!((m.page_images, m.directory_pages), (1, 3));
        // The same from the device alone.
        s.simulate_crash();
        s.reload().unwrap();
        assert_eq!(pages_of(&s, 4), vec![(1, 0x77), (2, 0x99), (5, 0x55)]);

        // A page written twice keeps the later image, and gives the
        // earlier block back.
        let mut w = s.begin(false, 0);
        w.page_image(2, &image(0xA1)).unwrap();
        w.page_image(2, &image(0xA2)).unwrap();
        w.finish(0, 0, 0, 0, Vec::new()).unwrap();
        s.check().unwrap();
        assert_eq!(pages_of(&s, 5), vec![(1, 0x77), (2, 0xA2), (5, 0x55)]);

        // A full generation starts from an empty directory.
        generation(&s, true, &[]);
        assert_eq!(pages_of(&s, 6), vec![]);
        assert_eq!(s.directory_pages(), 0);
    }

    #[test]
    fn index_runs_split_across_blocks() {
        let s = store();
        let mut w = s.begin(true, 0);
        // 208-byte payload = 13 entries per block; write 40.
        let entries: Vec<(u64, u64)> = (0..40u64).map(|k| (k, k * 2)).collect();
        w.index_entries(3, &entries).unwrap();
        w.finish(0, 0, 0, 0, Vec::new()).unwrap();
        generation(&s, false, &[]);
        let read_index = |gen| {
            let mut got = Vec::new();
            s.load(gen, |_, _| {}, |t, e| got.push((t, e.to_vec())))
                .unwrap();
            got
        };
        let runs = read_index(1);
        assert_eq!(runs.len(), 4);
        assert!(runs.iter().all(|(t, _)| *t == 3));
        let flat: Vec<(u64, u64)> = runs.into_iter().flat_map(|(_, e)| e).collect();
        assert_eq!(flat, entries);
        // Index runs are never inherited.
        assert_eq!(read_index(2), vec![(1, vec![(1, 10)])]);
    }

    #[test]
    fn blocks_are_reused_and_addresses_stay_bounded() {
        let s = store();
        let all: Vec<(u64, u8)> = (0..5u64).map(|p| (p, 0)).collect();
        let mut used = Vec::new();
        for round in 0..12u8 {
            let pages: Vec<(u64, u8)> = all.iter().map(|&(p, _)| (p, round)).collect();
            generation(&s, round == 0, &pages);
            assert!(allocator(&s).1 <= 1 + 3 * 8);
            used.push(s.used_bytes());
        }
        // Two retained generations plus the writer: three images per page
        // (+ 3 metadata blocks each), reached by the third round and
        // never exceeded.
        assert!(used[2..].iter().all(|&u| u == (1 + 3 * 8) * PAGE as u64));
        assert_eq!(allocator(&s).0.len() as u64 + 1 + 2 * 8, allocator(&s).1);
        assert_eq!(
            pages_of(&s, 12),
            (0..5).map(|p| (p, 11)).collect::<Vec<_>>()
        );
        assert_eq!(
            pages_of(&s, 11),
            (0..5).map(|p| (p, 10)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn failed_superblock_write_leaves_the_store_as_it_was() {
        let s = store();
        for round in 0..4u8 {
            generation(&s, round == 0, &[(1, round), (2, round)]);
        }
        let before = (s.generations(), allocator(&s), s.used_bytes());
        assert!(!before.1 .0.is_empty(), "the failing writer reuses blocks");

        s.set_fault_injector(Some(failing_superblock()));
        let mut w = s.begin(false, 0);
        w.page_image(1, &image(0xF1)).unwrap();
        w.page_image(2, &image(0xF2)).unwrap();
        assert!(w.finish(0, 0, 0, 0, Vec::new()).is_err());
        s.set_fault_injector(None);
        s.check().unwrap();
        // Nothing was forgotten: the retired-to-be generation is still
        // listed, its blocks are still its own, the writer's went back.
        assert_eq!((s.generations(), allocator(&s), s.used_bytes()), before);
        assert!(s.validate(3).unwrap() && s.validate(4).unwrap());

        // The next generation installs; the failed one burnt its number.
        let g = generation(&s, false, &[(1, 0xA1)]);
        assert_eq!(g.generation, 6);
        assert_eq!(pages_of(&s, 6), vec![(1, 0xA1), (2, 3)]);
        // What the durable superblock says is what memory says.
        let gens = s.generations();
        s.simulate_crash();
        s.reload().unwrap();
        assert_eq!(s.generations(), gens);
    }

    #[test]
    fn dropped_or_failed_writer_leaves_the_free_set_as_it_found_it() {
        let s = store();
        for round in 0..4u8 {
            generation(&s, round == 0, &[(1, round), (2, round)]);
        }
        let before = allocator(&s);
        // Dropped mid-stream, past the free blocks and the high water.
        let mut w = s.begin(false, 0);
        for pid in 0..20u64 {
            w.page_image(pid, &image(9)).unwrap();
        }
        w.index_entries(1, &[(1, 1)]).unwrap();
        assert_eq!(allocator(&s).2, 20);
        drop(w);
        s.check().unwrap();
        assert_eq!(allocator(&s), before);

        // A manifest that cannot list its metadata blocks is an error,
        // not a shorter list: (208 - 96) / 8 = 14 blocks at most.
        let mut w = s.begin(false, 0);
        let entries: Vec<(u64, u64)> = (0..13 * 14).map(|k| (k, k)).collect();
        w.index_entries(1, &entries).unwrap();
        assert_eq!(
            w.finish(0, 0, 0, 0, Vec::new()),
            Err(SnapshotError::Corrupt("manifest exceeds one block"))
        );
        s.check().unwrap();
        assert_eq!(allocator(&s), before);
        assert_eq!(s.latest().unwrap().generation, 4);
    }

    #[test]
    fn torn_or_interrupted_reuse_never_damages_a_retained_generation() {
        for torn in [false, true] {
            let s = store();
            for round in 0..4u8 {
                let fill = 0x10 + round;
                generation(&s, round == 0, &[(1, fill), (2, fill), (3, fill)]);
            }
            let reusable = allocator(&s).0;
            assert!(reusable.len() >= 3);
            let mut was = image(0);
            s.device().read_page(reusable[0], &mut was).unwrap();
            if torn {
                // Every image write tears (reported as success), the
                // blocks are synced, and the install then fails.
                let plan = FaultPlan::new(5)
                    .rule(
                        FaultRule::any(Trigger::Always, FaultKind::Fatal)
                            .on_op(FaultOp::Write)
                            .in_range(0, PAGE as u64),
                    )
                    .rule(
                        FaultRule::any(Trigger::Always, FaultKind::TornWrite).on_op(FaultOp::Write),
                    );
                let inj = Arc::new(FaultInjector::new(plan));
                s.set_fault_injector(Some(Arc::clone(&inj)));
                let mut w = s.begin(false, 0);
                for pid in 1..=3u64 {
                    w.page_image(pid, &image(0xEE)).unwrap();
                }
                assert!(w.finish(0, 0, 0, 0, Vec::new()).is_err());
                s.set_fault_injector(None);
                assert!(inj.stats().torn >= 3);
            } else {
                // Power fails mid-stream, after the device had already
                // made the overwritten blocks durable.
                let mut w = s.begin(false, 0);
                for pid in 1..=3u64 {
                    w.page_image(pid, &image(0xEE)).unwrap();
                }
                s.device().sync().unwrap();
                drop(w);
            }
            let mut now = image(0);
            s.device().read_page(reusable[0], &mut now).unwrap();
            assert_ne!(now, was, "the reused block was overwritten");
            s.simulate_crash();
            s.reload().unwrap();
            s.check().unwrap();
            assert!(s.validate(3).unwrap() && s.validate(4).unwrap());
            assert_eq!(pages_of(&s, 4), vec![(1, 0x13), (2, 0x13), (3, 0x13)]);
            assert_eq!(pages_of(&s, 3), vec![(1, 0x12), (2, 0x12), (3, 0x12)]);
            generation(&s, false, &[(2, 9)]);
            assert_eq!(pages_of(&s, 5), vec![(1, 0x13), (2, 9), (3, 0x13)]);
        }
    }

    #[test]
    fn a_superseded_writer_cannot_install() {
        let s = store();
        generation(&s, true, &[(1, 1)]);
        let mut slow = s.begin(false, 0);
        slow.page_image(2, &image(2)).unwrap();
        generation(&s, false, &[(1, 3)]);
        // `slow` inherited generation 1's directory, which is no longer
        // the newest: its blocks are one install from being free.
        assert!(slow.finish(0, 0, 0, 0, Vec::new()).is_err());
        s.check().unwrap();
        assert_eq!(s.latest().unwrap().generation, 3);
    }
}
