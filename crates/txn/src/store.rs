//! The snapshot store: generation-numbered, checksummed snapshot blocks
//! over a dedicated SSD device, reused as generations retire.
//!
//! The device's page size is the database page size — the device's
//! transfer unit — so every **block** is exactly one device page:
//!
//! | block | holds                                                         |
//! |-------|---------------------------------------------------------------|
//! | 0     | the **superblock**: the two newest generations (number,       |
//! |       | manifest block, fence LSN), whole-page CRC-32                 |
//! | ≥ 1   | a **metadata block**: a 48-byte header *inside* the page      |
//! |       | (magic, CRC-32, kind, generation, sequence, next block) +     |
//! |       | payload: an index run, a page run, or the generation's        |
//! |       | manifest — the whole WAL fence (LSN and log-file page),       |
//! |       | allocator and oracle state, tables (see [`Manifest`])         |
//!
//! Each checkpoint writes one *generation*: full index runs, each table's
//! page list as a page run, and a manifest. Its blocks chain through their
//! headers — manifest → first run → … → last run → manifest — so a
//! generation of any size is found from its manifest alone. Page images
//! are not the store's business:
//! the checkpointer writes every dirty DRAM page to its SSD home before
//! the generation installs, and NVM-resident pages are persistent where
//! they lie, so the data a generation stands for is the main SSD plus the
//! NVM buffer. A generation never needs another one: validation and
//! recovery read its manifest and runs, nothing else. Only this module
//! encodes and decodes blocks (`format` is private to it).
//!
//! **Liveness rule.** The superblock keeps the two newest generations
//! (the newest and the fallback recovery uses when the newest fails a
//! checksum). A block is free exactly when neither of them, nor a writer
//! in flight, references it; a generation references the blocks on its
//! chain. The writer takes the lowest free block first (else the next
//! block past the high-water mark), so block addresses stay bounded by
//! the high water of `retained generations + one writer`, not by history;
//! a writer that is dropped or fails hands its blocks back.
//! [`SnapshotStore::check`] walks the invariants.
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
//!
//! A generation is *valid* only if every block on its chain passes its
//! checksum and names the generation, its place in the chain and its kind,
//! and the chain closes at the manifest after the manifest's run count,
//! all read from the device. Recovery ([`SnapshotStore::recover`]) reads
//! the superblock once and each retained generation once, newest first:
//! the first that validates is loaded, one that does not is dead (its
//! damage is permanent) and its blocks are free. The writer holds one
//! block of scratch plus the pending run, and takes each block's successor
//! before writing it, so every block names its successor when it is
//! written.
//!
//! The checksum is the canonical [`spitfire_sync::crc32`] — CRC-32C —
//! shared with the WAL framing and the server wire protocol.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::AtomicU64;

use parking_lot::Mutex;
use spitfire_core::{BufferError, PageId};
use spitfire_device::{
    retry_io, DeviceError, FaultInjector, PersistenceTracking, SsdDevice, StatsSnapshot, TimeScale,
};
use spitfire_sync::crc32;

use crate::error::TxnError;
use crate::wal::WalFence;
use crate::Result;

mod format;

pub(crate) use format::max_tables;
use format::{
    decode_block, decode_index_run, decode_page_run, encode_block, BlockKind, SUPER_MAGIC,
};
pub use format::{Manifest, TableMeta, BLOCK_HEADER};

/// A generation's runs by table.
#[derive(Debug, Default)]
pub(crate) struct Runs {
    /// Index entries: `(key, rid)` pairs in key order.
    pub(crate) index: HashMap<u32, Vec<(u64, u64)>>,
    /// Data pages in slot order.
    pub(crate) pages: HashMap<u32, Vec<PageId>>,
}

/// One decoded run block's entries.
enum Run {
    Index(Vec<(u64, u64)>),
    Pages(Vec<PageId>),
}

const SUPER_HEADER: usize = 16;
const SUPER_ENTRY: usize = 24;

/// Generations the superblock keeps: the newest and its fallback.
const RETAINED: usize = 2;

/// Smallest page that holds the superblock and a manifest listing a few
/// tables.
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
}

/// A retained generation and everything it references.
struct Retained {
    info: GenerationInfo,
    /// The manifest's whole WAL fence: the log from here on is the
    /// generation's tail.
    fence: WalFence,
    /// Run blocks, in chain order.
    meta: Vec<u64>,
}

impl Retained {
    fn blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.meta
            .iter()
            .copied()
            .chain(std::iter::once(self.info.manifest))
    }
}

struct StoreState {
    /// Retained generations, ascending, at most [`RETAINED`].
    retained: Vec<Retained>,
    /// Number the next writer takes. Never handed out twice between two
    /// recoveries, so blocks of a failed attempt cannot pass for blocks of
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
        // writer that outlived a `recover()` may hold some).
        let high_water = self.high_water;
        self.free
            .extend(blocks.into_iter().filter(|&b| b < high_water));
        while self.high_water > 1 && self.free.remove(&(self.high_water - 1)) {
            self.high_water -= 1;
        }
    }
}

/// A database's snapshot store and checkpointer state: checkpoints write
/// its generations, recovery loads them.
pub struct SnapshotStore {
    dev: SsdDevice,
    /// Store block size = database page size = one device transfer.
    page_size: usize,
    state: Mutex<StoreState>,
    /// Wall-clock microseconds of the last completed checkpoint.
    pub(crate) last_micros: AtomicU64,
    /// DRAM pages the last completed checkpoint wrote home.
    pub(crate) last_pages: AtomicU64,
}

/// A structurally invalid generation, as opposed to a device that failed.
fn is_invalid(e: &TxnError) -> bool {
    matches!(
        e,
        TxnError::Corrupt(_) | TxnError::Buffer(BufferError::Device(DeviceError::PageNotFound(_)))
    )
}

impl SnapshotStore {
    /// Create a store for a database with `page_size`-byte pages. The
    /// backing device uses the same page size, so every block is one
    /// device page.
    pub(crate) fn new(page_size: usize, scale: TimeScale, tracking: PersistenceTracking) -> Self {
        assert!(page_size >= MIN_PAGE, "snapshot page size too small");
        SnapshotStore {
            dev: SsdDevice::with_tracking(page_size, scale, tracking),
            page_size,
            state: Mutex::new(StoreState::empty()),
            last_micros: AtomicU64::new(0),
            last_pages: AtomicU64::new(0),
        }
    }

    /// Shim for the repo benchmark, which reaches the store through
    /// `snapshot_engine().store()`: the store itself.
    pub fn store(&self) -> &SnapshotStore {
        self
    }

    /// Newest installed generation number (0 = none).
    pub fn generation(&self) -> u64 {
        let state = self.state.lock();
        state.retained.last().map_or(0, |r| r.info.generation)
    }

    /// The backing device (chaos schedules attach fault injectors here;
    /// tests corrupt block pages through it).
    pub fn device(&self) -> &SsdDevice {
        &self.dev
    }

    /// Attach (or detach) a fault injector on the backing device only
    /// (chaos: crash-mid-checkpoint schedules fault snapshot writes
    /// without touching the data or log devices).
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
    /// Recovery ([`crate::Database::recover`]) re-reads what survived.
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

    /// The one read at recovery: read the superblock once and each
    /// generation it names once, newest first, and return the manifest
    /// and runs (by table) of the first that validates, and whether a
    /// newer named generation failed to (a fallback). The in-memory
    /// state is rebuilt from the same reads: the generations that
    /// validate, and the free set (every block below the highest
    /// referenced one that none of them references). A generation that
    /// does not validate is dead — its damage is permanent — so its blocks
    /// are free, and its fence no longer bounds the log
    /// ([`oldest_fence`](Self::oldest_fence)); on a fallback the WAL was
    /// already cut at the delivered generation's fence.
    ///
    /// A superblock that was never written or names no generation stands
    /// for the empty manifest (generation 0, fence 0, no tables). One that
    /// is present but fails to decode may have named generations, so it is
    /// [`TxnError::Corrupt`]; so is one that names generations none of
    /// which validates.
    pub(crate) fn recover(&self) -> Result<(Manifest, Runs, bool)> {
        let mut page = vec![0u8; self.page_size];
        let named = self.read_superblock(&mut page)?;
        let mut state = StoreState::empty();
        let mut newest = None;
        for info in named.iter().rev() {
            state.next_generation = state.next_generation.max(info.generation + 1);
            let deliver = newest.is_none();
            let mut runs = Runs::default();
            let read = self.read_metadata(info, &mut page, |table, run| {
                if !deliver {
                    return;
                }
                match run {
                    Run::Index(entries) => runs.index.entry(table).or_default().extend(entries),
                    Run::Pages(ids) => runs.pages.entry(table).or_default().extend(ids),
                }
            });
            match read {
                Ok((manifest, retained)) => {
                    state.retained.insert(0, retained);
                    newest.get_or_insert((manifest, runs));
                }
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
        match newest {
            Some((manifest, runs)) => {
                let fell_back = named.last().map(|g| g.generation) != Some(manifest.generation);
                Ok((manifest, runs, fell_back))
            }
            None if named.is_empty() => Ok((Manifest::default(), Runs::default(), false)),
            None => Err(TxnError::Corrupt("no retained generation validates")),
        }
    }

    /// The generations block 0 names, ascending: none when it was never
    /// written, [`TxnError::Corrupt`] when it is present but unreadable.
    fn read_superblock(&self, page: &mut [u8]) -> Result<Vec<GenerationInfo>> {
        match retry_io(|| self.dev.read_page(0, page)) {
            Ok(()) => decode_superblock(page).ok_or(TxnError::Corrupt("unreadable superblock")),
            Err(DeviceError::PageNotFound(_)) => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    /// The retained generations, ascending.
    pub fn generations(&self) -> Vec<GenerationInfo> {
        let state = self.state.lock();
        state.retained.iter().map(|r| r.info).collect()
    }

    /// The WAL fence of the oldest retained generation: no recovery reads
    /// the log below it, so a checkpoint truncates the log here (`None`
    /// while no generation is retained).
    pub fn oldest_fence(&self) -> Option<WalFence> {
        self.state.lock().retained.first().map(|r| r.fence)
    }

    /// The recorded entry for `gen`, if still retained.
    pub fn entry(&self, gen: u64) -> Option<GenerationInfo> {
        let state = self.state.lock();
        let r = state.retained.iter().find(|r| r.info.generation == gen)?;
        Some(r.info)
    }

    /// The blocks `gen` references, for inspection: its run blocks in
    /// chain order, then its manifest (empty if `gen` is not retained).
    pub fn blocks(&self, gen: u64) -> Vec<u64> {
        let state = self.state.lock();
        let r = state.retained.iter().find(|r| r.info.generation == gen);
        r.map_or_else(Vec::new, |r| r.blocks().collect())
    }

    /// Start streaming a new generation fenced at `fence`. It becomes
    /// visible only when [`SnapshotWriter::finish`] installs it.
    pub fn begin(&self, fence: WalFence) -> SnapshotWriter<'_> {
        let mut state = self.state.lock();
        let generation = state.next_generation;
        state.next_generation += 1;
        drop(state);
        SnapshotWriter {
            store: self,
            generation,
            fence,
            chain: vec![self.alloc()],
            run_kind: BlockKind::IndexRun,
            run_table: 0,
            run_buf: Vec::new(),
            block: vec![0u8; self.page_size],
        }
    }

    /// Check every block `gen` references against its own CRC, re-reading
    /// all of them from the device. No payloads are delivered.
    pub fn validate(&self, gen: u64) -> Result<bool> {
        match self.load(gen, |_, _| {}) {
            Ok(_) => Ok(true),
            Err(e) if is_invalid(&e) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Stream `gen`'s index runs to `on_index` and return its manifest.
    /// Every block is re-read from the device and checked as in
    /// [`SnapshotStore::validate`]: a checksum failure is an error.
    pub fn load(&self, gen: u64, mut on_index: impl FnMut(u32, &[(u64, u64)])) -> Result<Manifest> {
        let info = self
            .entry(gen)
            .ok_or(TxnError::Corrupt("generation not retained"))?;
        let mut page = vec![0u8; self.page_size];
        self.read_metadata(&info, &mut page, |table, run| {
            if let Run::Index(entries) = run {
                on_index(table, &entries);
            }
        })
        .map(|(manifest, _)| manifest)
    }

    /// Read and check `info`'s manifest and the run blocks on its chain,
    /// from the device, delivering each run with its table to `on_run`.
    /// Returns the manifest and the generation as retained.
    fn read_metadata(
        &self,
        info: &GenerationInfo,
        page: &mut [u8],
        mut on_run: impl FnMut(u32, Run),
    ) -> Result<(Manifest, Retained)> {
        retry_io(|| self.dev.read_page(info.manifest, page))?;
        let block = decode_block(page)?;
        if block.kind != BlockKind::Manifest || block.gen != info.generation {
            return Err(TxnError::Corrupt("not this generation's manifest"));
        }
        let manifest = Manifest::decode(block.payload)?;
        if manifest.generation != info.generation || manifest.fence.lsn != info.fence_lsn {
            return Err(TxnError::Corrupt("manifest disagrees with superblock"));
        }
        let (runs, mut at) = (block.seq, block.next);
        let mut retained = Retained {
            info: *info,
            fence: manifest.fence,
            meta: Vec::new(),
        };
        for seq in 0..runs {
            retry_io(|| self.dev.read_page(at, page))?;
            let block = decode_block(page)?;
            if block.gen != info.generation || block.seq != seq {
                return Err(TxnError::Corrupt("metadata block out of place"));
            }
            let run = match block.kind {
                BlockKind::IndexRun => Run::Index(decode_index_run(block.payload)?),
                BlockKind::PageRun => Run::Pages(decode_page_run(block.payload)?),
                BlockKind::Manifest => return Err(TxnError::Corrupt("manifest chained as a run")),
            };
            on_run(block.tag, run);
            retained.meta.push(at);
            at = block.next;
        }
        if at != info.manifest {
            return Err(TxnError::Corrupt("chain does not close at the manifest"));
        }
        Ok((manifest, retained))
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
        // Saturating: a recover() under a live writer reset the count.
        state.in_flight = state.in_flight.saturating_sub(blocks.len() as u64);
        state.release(blocks);
    }

    /// Make `new` the newest generation: write and sync a superblock that
    /// names it and the previous newest, *then* swap the in-memory list
    /// and free what only the retired generation referenced. `held` counts
    /// the writer's blocks, all of which `new` references. Called by the
    /// writer after its blocks are durable. On failure the state is
    /// untouched — the durable superblock still describes it.
    fn install(&self, new: Retained, held: u64) -> Result<()> {
        let mut state = self.state.lock();
        // A writer that began before another installed carries an older
        // number: installing it would put the list out of order.
        let newest = state.retained.last().map_or(0, |r| r.info.generation);
        if new.info.generation <= newest {
            return Err(TxnError::Corrupt(
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
        state.in_flight = state.in_flight.saturating_sub(held);
        state.release(retired.iter().flat_map(Retained::blocks));
        Ok(())
    }

    /// Walk the allocator's invariants: at most two generations, ascending;
    /// every block a retained generation references exists on the device,
    /// lies below the high-water mark, is referenced once and is not free;
    /// and free, referenced and in-flight blocks together are exactly
    /// `1..high_water` — nothing leaks.
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
        let mut referenced = HashSet::new();
        for r in &state.retained {
            let gen = r.info.generation;
            for b in r.blocks() {
                if !referenced.insert(b) {
                    return Err(format!("generation {gen}: block {b} referenced twice"));
                }
                if b == 0 || b >= state.high_water || !self.dev.contains(b) {
                    return Err(format!("generation {gen}: block {b} does not exist"));
                }
                if state.free.contains(&b) {
                    return Err(format!("generation {gen}: block {b} is free"));
                }
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
/// is one block of scratch plus the pending run.
pub struct SnapshotWriter<'a> {
    store: &'a SnapshotStore,
    generation: u64,
    fence: WalFence,
    /// The blocks this writer holds, in chain order: the run blocks
    /// written, then the one the next block goes to (taken ahead, so each
    /// block names its successor), which the manifest takes last.
    chain: Vec<u64>,
    /// Kind and table of the pending run in `run_buf`.
    run_kind: BlockKind,
    run_table: u32,
    run_buf: Vec<u8>,
    /// Single-block scratch for metadata framing.
    block: Vec<u8>,
}

impl SnapshotWriter<'_> {
    /// The generation number being written.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Write one metadata block into the block taken for it. Its sequence
    /// number is its place in the chain (the manifest's is the run count),
    /// and it names the next block: a fresh one for a run, the chain's
    /// first for the manifest.
    fn write_meta(&mut self, kind: BlockKind, tag: u32, payload: &[u8]) -> Result<()> {
        let (gen, seq) = (self.generation, self.chain.len() as u64 - 1);
        let at = self.chain[seq as usize];
        let next = if kind == BlockKind::Manifest {
            self.chain[0]
        } else {
            // Held before the write: a failed write still holds it.
            let next = self.store.alloc();
            self.chain.push(next);
            next
        };
        encode_block(&mut self.block, kind, tag, gen, seq, next, payload);
        retry_io(|| self.store.dev.append_page(at, &self.block))?;
        Ok(())
    }

    /// Append sorted `(key, rid)` index entries for `table`. Entries are
    /// packed into full blocks; a partial run is held until the table or
    /// the kind of run changes or the generation finishes.
    pub fn index_entries(&mut self, table: u32, entries: &[(u64, u64)]) -> Result<()> {
        for &(key, rid) in entries {
            let mut entry = [0u8; 16];
            entry[..8].copy_from_slice(&key.to_le_bytes());
            entry[8..].copy_from_slice(&rid.to_le_bytes());
            self.push_entry(BlockKind::IndexRun, table, &entry)?;
        }
        Ok(())
    }

    /// Append `table`'s data pages, in slot order, packed into blocks as
    /// [`index_entries`](Self::index_entries) packs index entries.
    pub fn page_ids(&mut self, table: u32, pages: &[PageId]) -> Result<()> {
        for pid in pages {
            self.push_entry(BlockKind::PageRun, table, &pid.0.to_le_bytes())?;
        }
        Ok(())
    }

    /// Add one entry to the pending run of `kind` for `table`, writing the
    /// run out first if it belongs to another, and right after if the next
    /// entry would not fit.
    fn push_entry(&mut self, kind: BlockKind, table: u32, entry: &[u8]) -> Result<()> {
        if (kind, table) != (self.run_kind, self.run_table) {
            self.flush_run()?;
            (self.run_kind, self.run_table) = (kind, table);
        }
        self.run_buf.extend_from_slice(entry);
        if self.run_buf.len() + entry.len() > self.store.page_size - BLOCK_HEADER {
            self.flush_run()?;
        }
        Ok(())
    }

    fn flush_run(&mut self) -> Result<()> {
        if self.run_buf.is_empty() {
            return Ok(());
        }
        let payload = std::mem::take(&mut self.run_buf);
        self.write_meta(self.run_kind, self.run_table, &payload)?;
        self.run_buf = payload;
        self.run_buf.clear();
        Ok(())
    }

    /// Close the generation: flush the pending run, write the manifest
    /// that closes the chain, sync, then atomically install the generation
    /// in the superblock. Nothing becomes visible on failure, and the
    /// blocks go back to the free set.
    pub fn finish(
        mut self,
        next_page_id: u64,
        oracle_ts: u64,
        next_txn_id: u64,
        tables: Vec<TableMeta>,
    ) -> Result<GenerationInfo> {
        self.flush_run()?;
        let manifest = Manifest {
            generation: self.generation,
            fence: self.fence,
            next_page_id,
            oracle_ts,
            next_txn_id,
            tables,
        };
        self.write_meta(BlockKind::Manifest, 0, &manifest.encode())?;
        retry_io(|| self.store.dev.sync())?;
        let mut meta = self.chain.clone();
        let info = GenerationInfo {
            generation: self.generation,
            manifest: meta.pop().expect("manifest block just written"),
            fence_lsn: self.fence.lsn,
        };
        let new = Retained {
            info,
            fence: self.fence,
            meta,
        };
        self.store.install(new, self.chain.len() as u64)?;
        // Installed: the blocks are the generation's.
        self.chain.clear();
        Ok(info)
    }
}

impl Drop for SnapshotWriter<'_> {
    /// A writer that did not install hands its blocks back.
    fn drop(&mut self) {
        if !self.chain.is_empty() {
            self.store.give_back(std::mem::take(&mut self.chain));
        }
    }
}

impl std::fmt::Debug for SnapshotWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter")
            .field("generation", &self.generation)
            .field("blocks", &self.chain.len())
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
    }
    let crc_at = page.len() - 4;
    let crc = crc32(&page[..crc_at]);
    page[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

fn decode_superblock(page: &[u8]) -> Option<Vec<GenerationInfo>> {
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
    use std::sync::Arc;

    const PAGE: usize = 256;
    /// Index entries one block holds: 208 payload bytes, 16 an entry.
    const PER_BLOCK: usize = (PAGE - BLOCK_HEADER) / 16;

    fn store() -> SnapshotStore {
        SnapshotStore::new(PAGE, TimeScale::ZERO, PersistenceTracking::Full)
    }

    /// `blocks` full index-run blocks' worth of entries, every rid `fill`.
    fn entries(blocks: usize, fill: u64) -> Vec<(u64, u64)> {
        (0..(blocks * PER_BLOCK) as u64)
            .map(|k| (k, fill))
            .collect()
    }

    /// Install one generation of `blocks` index-run blocks (table 1).
    fn generation(s: &SnapshotStore, blocks: usize, fill: u64) -> GenerationInfo {
        let mut w = s.begin(WalFence::default());
        w.index_entries(1, &entries(blocks, fill)).unwrap();
        let info = w.finish(0, 0, 0, Vec::new()).unwrap();
        s.check().unwrap();
        info
    }

    /// The one rid every entry `load` delivers for `gen` carries.
    fn fill_of(s: &SnapshotStore, gen: u64) -> u64 {
        let mut rids = BTreeSet::new();
        s.load(gen, |_, e| rids.extend(e.iter().map(|&(_, rid)| rid)))
            .unwrap();
        assert_eq!(rids.len(), 1, "generation {gen}: {rids:?}");
        rids.pop_first().unwrap()
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

    impl SnapshotStore {
        /// Recovery's one read, reporting how many generations the
        /// superblock names, readable or not.
        fn reload(&self) -> Result<usize> {
            let named = self.read_superblock(&mut vec![0u8; self.page_size])?;
            self.recover().map(|_| named.len())
        }

        /// The newest retained generation that validates.
        fn newest_valid(&self) -> Option<u64> {
            let gens = self.generations();
            gens.iter()
                .rev()
                .map(|e| e.generation)
                .find(|&g| self.validate(g).unwrap_or(false))
        }
    }

    #[test]
    fn write_install_reload_round_trip() {
        let s = store();
        let mut w = s.begin(WalFence {
            lsn: 100,
            file_page: 3,
        });
        w.index_entries(1, &[(1, 10), (2, 20)]).unwrap();
        w.index_entries(2, &[(5, 50)]).unwrap();
        let info = w
            .finish(
                12,
                500,
                6,
                vec![TableMeta {
                    id: 1,
                    tuple_size: 64,
                    allocated_slots: 3,
                }],
            )
            .unwrap();
        assert_eq!(info.generation, 1);
        // Two index runs, the manifest, the superblock: every block is
        // exactly one device page.
        assert_eq!(s.used_bytes(), 4 * PAGE as u64);
        assert_eq!(s.stats().write_ops, 4);

        // A crash after install keeps the generation (everything synced).
        s.simulate_crash();
        s.reload().unwrap();
        s.check().unwrap();
        assert_eq!(s.newest_valid(), Some(1));

        let mut idx = Vec::new();
        let m = s.load(1, |t, e| idx.push((t, e.to_vec()))).unwrap();
        assert_eq!(idx, vec![(1, vec![(1, 10), (2, 20)]), (2, vec![(5, 50)])]);
        assert_eq!((m.fence.lsn, m.fence.file_page), (100, 3));
        assert_eq!((m.next_page_id, m.oracle_ts, m.next_txn_id), (12, 500, 6));
        assert_eq!(m.tables.len(), 1);
    }

    #[test]
    fn uninstalled_generation_vanishes_on_crash() {
        let s = store();
        let mut w = s.begin(WalFence::default());
        w.index_entries(1, &entries(1, 1)).unwrap();
        assert_eq!(s.stats().write_ops, 1);
        drop(w); // never finished: no superblock update
        s.simulate_crash();
        assert_eq!(s.reload().unwrap(), 0, "the superblock names nothing");
        s.check().unwrap();
        assert_eq!(s.generation(), 0);
        assert_eq!(s.newest_valid(), None);
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn unreadable_superblock_is_corrupt_not_empty() {
        let s = store();
        generation(&s, 1, 1);
        rot(&s, 0);
        s.simulate_crash();
        assert_eq!(s.reload(), Err(TxnError::Corrupt("unreadable superblock")));
    }

    #[test]
    fn corrupt_newest_falls_back_a_generation() {
        for victim in ["index run", "manifest"] {
            let s = store();
            generation(&s, 1, 1);
            generation(&s, 2, 2);
            let g3 = generation(&s, 1, 3);
            assert_eq!(s.newest_valid(), Some(3));
            let block = match victim {
                "index run" => s.blocks(3)[0],
                _ => g3.manifest,
            };
            rot(&s, block);
            assert!(!s.validate(3).unwrap(), "{victim}");
            assert!(s.load(3, |_, _| {}).is_err());
            assert_eq!(s.newest_valid(), Some(2), "{victim}");
            assert_eq!(fill_of(&s, 2), 2);

            // Reload drops the dead generation but not its number, and
            // reports both the superblock names.
            s.simulate_crash();
            assert_eq!(s.reload().unwrap(), 2, "{victim}");
            s.check().unwrap();
            let gens: Vec<u64> = s.generations().iter().map(|e| e.generation).collect();
            assert_eq!(gens, vec![2], "{victim}");
            assert_eq!(s.newest_valid(), Some(2));
            assert_eq!(s.begin(WalFence::default()).generation(), 4);
        }
    }

    #[test]
    fn superblock_keeps_the_two_newest_generations() {
        let s = store();
        for i in 0..6u64 {
            generation(&s, 1, i);
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
    fn index_runs_split_across_blocks() {
        let s = store();
        let mut w = s.begin(WalFence::default());
        // 13 entries per block; write 40.
        let many: Vec<(u64, u64)> = (0..40u64).map(|k| (k, k * 2)).collect();
        w.index_entries(3, &many).unwrap();
        w.finish(0, 0, 0, Vec::new()).unwrap();
        generation(&s, 1, 7);
        let read_index = |gen| {
            let mut got = Vec::new();
            s.load(gen, |t, e| got.push((t, e.to_vec()))).unwrap();
            got
        };
        let runs = read_index(1);
        assert_eq!(runs.len(), 4);
        assert!(runs.iter().all(|(t, _)| *t == 3));
        let flat: Vec<(u64, u64)> = runs.into_iter().flat_map(|(_, e)| e).collect();
        assert_eq!(flat, many);
        // A generation carries its own runs only.
        assert_eq!(read_index(2), vec![(1, entries(1, 7))]);
    }

    #[test]
    fn page_runs_split_across_blocks_and_come_back_in_slot_order() {
        let s = store();
        let mut w = s.begin(WalFence::default());
        // 26 page ids per block; 60 pages of table 3 around an index run
        // and table 4's pages.
        let pages: Vec<PageId> = (0..60u64).map(|p| PageId(1000 - p)).collect();
        w.page_ids(3, &pages).unwrap();
        w.index_entries(3, &[(1, 10)]).unwrap();
        w.page_ids(4, &[PageId(7)]).unwrap();
        w.page_ids(5, &[]).unwrap();
        w.finish(0, 0, 0, Vec::new()).unwrap();
        let blocks = s.blocks(1).len();
        assert_eq!(
            blocks,
            3 + 1 + 1 + 1,
            "60 ids in three blocks, a run, one id, the manifest"
        );

        s.simulate_crash();
        let (_, runs, _) = s.recover().unwrap();
        assert_eq!(runs.pages.len(), 2, "an empty list writes no run");
        assert_eq!(runs.pages[&3], pages);
        assert_eq!(runs.pages[&4], [PageId(7)]);
        assert_eq!(runs.index[&3], [(1, 10)]);
        // `load` delivers the index runs only.
        let mut idx = Vec::new();
        s.load(1, |t, e| idx.push((t, e.to_vec()))).unwrap();
        assert_eq!(idx, vec![(3, vec![(1, 10)])]);
    }

    #[test]
    fn the_oldest_retained_generation_bounds_the_log() {
        let s = store();
        let fence = |lsn| WalFence {
            lsn,
            file_page: lsn / 10,
        };
        assert_eq!(s.oldest_fence(), None);
        for (lsn, oldest) in [(100, 100), (200, 100), (300, 200)] {
            s.begin(fence(lsn)).finish(0, 0, 0, Vec::new()).unwrap();
            assert_eq!(s.oldest_fence(), Some(fence(oldest)), "after {lsn}");
        }
        // Recovery rebuilds it from the manifests.
        s.simulate_crash();
        s.recover().unwrap();
        assert_eq!(s.oldest_fence(), Some(fence(200)));
    }

    #[test]
    fn blocks_are_reused_and_addresses_stay_bounded() {
        let s = store();
        let mut used = Vec::new();
        for round in 0..12u64 {
            generation(&s, 5, round);
            assert!(allocator(&s).1 <= 1 + 3 * 6);
            used.push(s.used_bytes());
        }
        // Two retained generations plus the writer, six blocks each (five
        // runs + the manifest): reached by the third round and never
        // exceeded.
        assert!(used[2..].iter().all(|&u| u == (1 + 3 * 6) * PAGE as u64));
        assert_eq!(allocator(&s).0.len() as u64 + 1 + 2 * 6, allocator(&s).1);
        assert_eq!(fill_of(&s, 12), 11);
        assert_eq!(fill_of(&s, 11), 10);
    }

    #[test]
    fn failed_superblock_write_leaves_the_store_as_it_was() {
        let s = store();
        for round in 0..4u64 {
            generation(&s, 2, round);
        }
        let before = (s.generations(), allocator(&s), s.used_bytes());
        assert!(!before.1 .0.is_empty(), "the failing writer reuses blocks");

        s.set_fault_injector(Some(failing_superblock()));
        let mut w = s.begin(WalFence::default());
        w.index_entries(1, &entries(2, 0xF1)).unwrap();
        assert!(w.finish(0, 0, 0, Vec::new()).is_err());
        s.set_fault_injector(None);
        s.check().unwrap();
        // Nothing was forgotten: the retired-to-be generation is still
        // listed, its blocks are still its own, the writer's went back.
        assert_eq!((s.generations(), allocator(&s), s.used_bytes()), before);
        assert!(s.validate(3).unwrap() && s.validate(4).unwrap());

        // The next generation installs; the failed one burnt its number.
        let g = generation(&s, 1, 0xA1);
        assert_eq!(g.generation, 6);
        assert_eq!(fill_of(&s, 6), 0xA1);
        // What the durable superblock says is what memory says.
        let gens = s.generations();
        s.simulate_crash();
        s.reload().unwrap();
        assert_eq!(s.generations(), gens);
    }

    #[test]
    fn dropped_or_failed_writer_leaves_the_free_set_as_it_found_it() {
        let s = store();
        for round in 0..4u64 {
            generation(&s, 2, round);
        }
        let before = allocator(&s);
        // Dropped mid-stream, past the free blocks and the high water: 20
        // run blocks and the block taken for the next one.
        let mut w = s.begin(WalFence::default());
        w.index_entries(1, &entries(20, 9)).unwrap();
        assert_eq!(allocator(&s).2, 21);
        drop(w);
        s.check().unwrap();
        assert_eq!(allocator(&s), before);

        // A block write fails partway along the chain: the writer holds
        // the failed block and its successor, and hands every block back.
        let plan = FaultPlan::new(2)
            .rule(FaultRule::any(Trigger::NthOp(10), FaultKind::Fatal).on_op(FaultOp::Write));
        s.set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
        let mut w = s.begin(WalFence::default());
        assert!(w.index_entries(1, &entries(20, 9)).is_err());
        assert_eq!(allocator(&s).2, 11);
        drop(w);
        s.set_fault_injector(None);
        s.check().unwrap();
        assert_eq!(allocator(&s), before);
        assert_eq!(s.generation(), 4);
    }

    #[test]
    fn torn_or_interrupted_reuse_never_damages_a_retained_generation() {
        for torn in [false, true] {
            let s = store();
            for round in 0..4u64 {
                generation(&s, 3, 0x10 + round);
            }
            let reusable = allocator(&s).0;
            assert!(reusable.len() >= 3);
            let mut was = vec![0u8; PAGE];
            s.device().read_page(reusable[0], &mut was).unwrap();
            let mut w = s.begin(WalFence::default());
            if torn {
                // Every block write tears (reported as success), the
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
                w.index_entries(1, &entries(3, 0xEE)).unwrap();
                assert!(w.finish(0, 0, 0, Vec::new()).is_err());
                s.set_fault_injector(None);
                assert!(inj.stats().torn >= 3);
            } else {
                // Power fails mid-stream, after the device had already
                // made the overwritten blocks durable.
                w.index_entries(1, &entries(3, 0xEE)).unwrap();
                s.device().sync().unwrap();
                drop(w);
            }
            let mut now = vec![0u8; PAGE];
            s.device().read_page(reusable[0], &mut now).unwrap();
            assert_ne!(now, was, "the reused block was overwritten");
            s.simulate_crash();
            s.reload().unwrap();
            s.check().unwrap();
            assert!(s.validate(3).unwrap() && s.validate(4).unwrap());
            assert_eq!(fill_of(&s, 4), 0x13);
            assert_eq!(fill_of(&s, 3), 0x12);
            generation(&s, 1, 9);
            assert_eq!(fill_of(&s, 5), 9);
        }
    }

    #[test]
    fn a_superseded_writer_cannot_install() {
        let s = store();
        generation(&s, 1, 1);
        let mut slow = s.begin(WalFence::default());
        slow.index_entries(1, &entries(1, 2)).unwrap();
        generation(&s, 1, 3);
        // `slow` drew generation 2 before generation 3 installed:
        // installing it now would put the list out of order.
        assert!(slow.finish(0, 0, 0, Vec::new()).is_err());
        s.check().unwrap();
        assert_eq!(s.generation(), 3);
    }
    #[test]
    fn a_broken_link_mid_chain_costs_the_newest_generation() {
        for damage in ["rot", "torn", "next into the fallback"] {
            let s = store();
            generation(&s, 3, 1);
            generation(&s, 3, 2);
            let (fallback, newest) = (s.blocks(1), s.blocks(2));
            let mut page = vec![0u8; PAGE];
            s.device().read_page(newest[1], &mut page).unwrap();
            match damage {
                "rot" => page.fill(0xEE),
                "torn" => page[PAGE / 2..].fill(0),
                _ => {
                    // A well-formed block whose link leads to the fallback's
                    // block in the place the chain expects next.
                    let b = decode_block(&page).unwrap();
                    let mut relinked = vec![0u8; PAGE];
                    let (gen, seq) = (b.gen, b.seq);
                    encode_block(
                        &mut relinked,
                        b.kind,
                        b.tag,
                        gen,
                        seq,
                        fallback[2],
                        b.payload,
                    );
                    page = relinked;
                }
            }
            s.device().write_page(newest[1], &page).unwrap();
            s.device().sync().unwrap();
            assert!(!s.validate(2).unwrap(), "{damage}");
            assert!(s.validate(1).unwrap(), "{damage}");

            s.simulate_crash();
            let (m, runs, fell_back) = s.recover().unwrap();
            assert!(fell_back, "{damage}");
            assert_eq!(m.generation, 1, "{damage}");
            assert_eq!(runs.index[&1], entries(3, 1), "{damage}");
            s.check().unwrap();
            assert_eq!(s.blocks(1), fallback);
        }
    }

    /// Ten times as many run blocks as a manifest that listed them could
    /// list in one 1 KB block (112 with one table).
    #[test]
    fn a_generation_of_any_size_installs_recovers_and_falls_back() {
        const KB: usize = 1024;
        let s = SnapshotStore::new(KB, TimeScale::ZERO, PersistenceTracking::Full);
        // 1 100 index-run blocks (61 entries each) and 20 page-run blocks
        // (122 ids each).
        let keys: Vec<(u64, u64)> = (0..1_100 * 61u64).map(|k| (k, k ^ 0x55)).collect();
        let pages: Vec<PageId> = (0..20 * 122u64).map(|p| PageId(p * 3)).collect();
        let table = |slots| TableMeta {
            id: 1,
            tuple_size: 8,
            allocated_slots: slots,
        };
        for gen in 1..=2u64 {
            let mut w = s.begin(WalFence::default());
            w.index_entries(1, &keys[gen as usize..]).unwrap();
            w.page_ids(1, &pages).unwrap();
            w.finish(0, 0, 0, vec![table(gen)]).unwrap();
            s.check().unwrap();
        }
        assert_eq!(s.blocks(2).len(), 1_120 + 1);

        s.simulate_crash();
        let (m, runs, fell_back) = s.recover().unwrap();
        assert!(!fell_back);
        assert_eq!((m.generation, &m.tables[..]), (2, &[table(2)][..]));
        assert_eq!(runs.index[&1], keys[2..]);
        assert_eq!(runs.pages[&1], pages);
        s.check().unwrap();

        let mid = s.blocks(2)[560];
        s.device().write_page(mid, &[0xEE; KB]).unwrap();
        s.device().sync().unwrap();
        s.simulate_crash();
        let (m, runs, fell_back) = s.recover().unwrap();
        assert!(fell_back);
        assert_eq!((m.generation, &m.tables[..]), (1, &[table(1)][..]));
        assert_eq!(runs.index[&1], keys[1..]);
        assert_eq!(runs.pages[&1], pages);
        s.check().unwrap();
    }
}
