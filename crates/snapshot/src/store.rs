//! The snapshot store: an append-only block file over a dedicated SSD
//! device with a superblock naming the installed generations.
//!
//! Install protocol (the emulated-device analogue of write-new + fsync +
//! atomic rename):
//!
//! 1. stream the generation's blocks to fresh pages past every live
//!    generation and sync them;
//! 2. rewrite the one-page superblock (page 0) to include the new
//!    generation, then sync again.
//!
//! A crash before step 2's sync leaves the old superblock governing: the
//! half-written generation is unreachable garbage whose pages the next
//! checkpoint simply overwrites. Old generations are garbage-collected at
//! install time by dropping every superblock entry outside the chains of
//! the two newest generations — the previous generation stays whole so
//! recovery can fall back to it when the newest fails its checksums.

use std::collections::BTreeSet;

use parking_lot::Mutex;
use spitfire_device::{
    retry_io, DeviceError, FaultInjector, PersistenceTracking, SsdDevice, StatsSnapshot, TimeScale,
};

use crate::format::{
    decode_block, encode_block, BlockKind, Manifest, TableMeta, BLOCK_HEADER, SUPER_MAGIC,
};
use spitfire_sync::crc32;

use crate::{Result, SnapshotError, MAX_SUPERBLOCK_GENERATIONS};

const SUPER_HEADER: usize = 16;
const SUPER_ENTRY: usize = 48;

/// One installed generation, as recorded in the superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationInfo {
    /// Generation number (monotonically increasing from 1).
    pub generation: u64,
    /// Parent generation this increment builds on (0 for a full snapshot).
    pub parent: u64,
    /// First store page of the generation's block run.
    pub start: u64,
    /// Number of blocks (the last one is the manifest).
    pub blocks: u64,
    /// WAL fence LSN recorded at the generation's checkpoint.
    pub fence_lsn: u64,
    /// Whether this generation is a full snapshot (chain base).
    pub full: bool,
}

struct StoreState {
    /// Live generations, ascending by generation number.
    entries: Vec<GenerationInfo>,
    /// First free store page for the next generation's block run.
    next_page: u64,
}

/// A generation-numbered snapshot file over a dedicated SSD device.
pub struct SnapshotStore {
    dev: SsdDevice,
    /// Store page size = [`BLOCK_HEADER`] + database page size.
    page_size: usize,
    /// Payload capacity per block = database page size.
    payload: usize,
    state: Mutex<StoreState>,
}

impl SnapshotStore {
    /// Create a store for a database with `db_page_size`-byte pages. The
    /// backing device gets its own page size (`db_page_size` plus the
    /// block header) so one block carries exactly one pool page.
    pub fn new(db_page_size: usize, scale: TimeScale, tracking: PersistenceTracking) -> Self {
        let page_size = db_page_size + BLOCK_HEADER;
        SnapshotStore {
            dev: SsdDevice::with_tracking(page_size, scale, tracking),
            page_size,
            payload: db_page_size,
            state: Mutex::new(StoreState {
                entries: Vec::new(),
                next_page: 1,
            }),
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

    /// Bytes occupied on the backing device.
    pub fn used_bytes(&self) -> u64 {
        self.dev.used_bytes()
    }

    fn max_entries(&self) -> usize {
        ((self.page_size - SUPER_HEADER - 4) / SUPER_ENTRY).min(MAX_SUPERBLOCK_GENERATIONS)
    }

    /// Re-read the superblock, replacing the in-memory generation list. A
    /// missing or checksum-invalid superblock yields an empty store (the
    /// caller falls back to full-WAL recovery).
    pub fn reload(&self) -> Result<()> {
        let mut page = vec![0u8; self.page_size];
        let entries = match retry_io(|| self.dev.read_page(0, &mut page)) {
            Ok(()) => decode_superblock(&page, self.max_entries()).unwrap_or_default(),
            Err(DeviceError::PageNotFound(_)) => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let next_page = entries
            .iter()
            .map(|e| e.start + e.blocks)
            .max()
            .unwrap_or(1);
        *self.state.lock() = StoreState { entries, next_page };
        Ok(())
    }

    /// All live generations, ascending.
    pub fn generations(&self) -> Vec<GenerationInfo> {
        self.state.lock().entries.clone()
    }

    /// The newest installed generation, if any.
    pub fn latest(&self) -> Option<GenerationInfo> {
        self.state.lock().entries.last().copied()
    }

    /// The recorded entry for `gen`, if still live.
    pub fn entry(&self, gen: u64) -> Option<GenerationInfo> {
        self.state
            .lock()
            .entries
            .iter()
            .find(|e| e.generation == gen)
            .copied()
    }

    /// The chain for `gen`: the nearest full ancestor first, `gen` last.
    /// `None` if any link is missing (GC'd or never installed).
    pub fn chain(&self, gen: u64) -> Option<Vec<GenerationInfo>> {
        let state = self.state.lock();
        chain_of(&state.entries, gen)
    }

    /// Start streaming a new generation. `full` forces a chain base (also
    /// implied when the store is empty); incremental generations parent on
    /// the current newest. The generation becomes visible only when
    /// [`SnapshotWriter::finish`] installs it.
    pub fn begin(&self, full: bool, fence_lsn: u64) -> SnapshotWriter<'_> {
        let state = self.state.lock();
        let latest = state.entries.last();
        let full = full || latest.is_none();
        let generation = latest.map_or(0, |e| e.generation) + 1;
        let parent = if full {
            0
        } else {
            latest.map_or(0, |e| e.generation)
        };
        SnapshotWriter {
            store: self,
            generation,
            parent,
            full,
            fence_lsn,
            start: state.next_page,
            seq: 0,
            page_images: 0,
            index_table: 0,
            index_buf: Vec::new(),
            block: vec![0u8; self.page_size],
        }
    }

    /// The newest generation whose whole chain passes validation, walking
    /// newest → oldest. Transient read faults are retried; anything else
    /// just disqualifies the generation.
    pub fn newest_valid(&self) -> Option<u64> {
        let gens: Vec<u64> = {
            let state = self.state.lock();
            state.entries.iter().map(|e| e.generation).collect()
        };
        gens.into_iter()
            .rev()
            .find(|&g| self.validate(g).unwrap_or(false))
    }

    /// CRC-check every block in `gen`'s chain (no payloads are delivered).
    pub fn validate(&self, gen: u64) -> Result<bool> {
        let Some(chain) = self.chain(gen) else {
            return Ok(false);
        };
        let mut page = vec![0u8; self.page_size];
        for link in &chain {
            for i in 0..link.blocks {
                match retry_io(|| self.dev.read_page(link.start + i, &mut page)) {
                    Ok(()) => {}
                    Err(DeviceError::PageNotFound(_)) => return Ok(false),
                    Err(e) => return Err(e.into()),
                }
                let Ok(block) = decode_block(&page) else {
                    return Ok(false);
                };
                if block.gen != link.generation || block.seq != i {
                    return Ok(false);
                }
                let is_last = i + 1 == link.blocks;
                if is_last != (block.kind == BlockKind::Manifest) {
                    return Ok(false);
                }
                if is_last && Manifest::decode(block.payload).is_err() {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Stream `gen`'s chain to the callbacks: page images from every link
    /// (base first, so newer images overwrite older ones at the consumer),
    /// index runs from `gen` itself only (each generation dumps its
    /// indexes in full). Returns `gen`'s manifest. Run
    /// [`SnapshotStore::validate`] first — a checksum failure here is an
    /// error, not a fallback.
    pub fn load(
        &self,
        gen: u64,
        mut on_page: impl FnMut(u64, &[u8]),
        mut on_index: impl FnMut(u32, &[(u64, u64)]),
    ) -> Result<Manifest> {
        let chain = self
            .chain(gen)
            .ok_or(SnapshotError::Corrupt("generation chain missing"))?;
        let mut page = vec![0u8; self.page_size];
        let mut manifest = None;
        for link in &chain {
            for i in 0..link.blocks {
                retry_io(|| self.dev.read_page(link.start + i, &mut page))?;
                let block = decode_block(&page)?;
                match block.kind {
                    BlockKind::PageImage => on_page(block.aux, block.payload),
                    BlockKind::IndexRun => {
                        if link.generation == gen {
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
                    }
                    BlockKind::Manifest => {
                        if link.generation == gen {
                            manifest = Some(Manifest::decode(block.payload)?);
                        }
                    }
                }
            }
        }
        manifest.ok_or(SnapshotError::Corrupt("manifest missing"))
    }

    /// Install `info` in the superblock, garbage-collecting generations
    /// outside the two newest chains. Called by the writer after its
    /// blocks are durable.
    fn install(&self, info: GenerationInfo) -> Result<()> {
        let mut state = self.state.lock();
        state.entries.push(info);
        gc(&mut state.entries);
        if state.entries.len() > self.max_entries() {
            state.entries.pop();
            return Err(SnapshotError::Corrupt("superblock overflow"));
        }
        state.next_page = state
            .entries
            .iter()
            .map(|e| e.start + e.blocks)
            .max()
            .unwrap_or(1);
        let mut page = vec![0u8; self.page_size];
        encode_superblock(&mut page, &state.entries);
        let install = retry_io(|| {
            self.dev.write_page(0, &page)?;
            self.dev.sync()
        });
        if let Err(e) = install {
            // Roll the in-memory view back; the durable superblock still
            // describes the previous generation set.
            state.entries.retain(|e| e.generation != info.generation);
            return Err(e.into());
        }
        Ok(())
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("SnapshotStore")
            .field("generations", &state.entries.len())
            .field("next_page", &state.next_page)
            .finish_non_exhaustive()
    }
}

/// Streams one generation's blocks; see [`SnapshotStore::begin`].
pub struct SnapshotWriter<'a> {
    store: &'a SnapshotStore,
    generation: u64,
    parent: u64,
    full: bool,
    fence_lsn: u64,
    start: u64,
    seq: u64,
    page_images: u64,
    index_table: u32,
    index_buf: Vec<u8>,
    /// Single-block scratch: the writer holds O(1) memory regardless of
    /// database size.
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

    fn write_block(&mut self, kind: BlockKind, tag: u32, aux: u64, payload: &[u8]) -> Result<()> {
        let mut block = std::mem::take(&mut self.block);
        encode_block(
            &mut block,
            kind,
            tag,
            self.generation,
            self.seq,
            aux,
            payload,
        );
        let res = retry_io(|| self.store.dev.append_page(self.start + self.seq, &block));
        self.block = block;
        res?;
        self.seq += 1;
        Ok(())
    }

    /// Append one page image.
    pub fn page_image(&mut self, pid: u64, image: &[u8]) -> Result<()> {
        assert_eq!(image.len(), self.store.payload, "page image size mismatch");
        self.flush_index_run()?;
        self.page_images += 1;
        self.write_block(BlockKind::PageImage, 0, pid, image)
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
            if self.index_buf.len() + 16 > self.store.payload {
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
        self.write_block(BlockKind::IndexRun, self.index_table, 0, &payload)?;
        self.index_buf = payload;
        self.index_buf.clear();
        Ok(())
    }

    /// Close the generation: flush the pending index run, write the
    /// manifest block, sync the blocks, then atomically install the
    /// generation in the superblock. Nothing becomes visible on failure.
    pub fn finish(
        mut self,
        catalog_root: u64,
        next_page_id: u64,
        oracle_ts: u64,
        next_txn_id: u64,
        tables: Vec<TableMeta>,
    ) -> Result<GenerationInfo> {
        self.flush_index_run()?;
        let manifest = Manifest {
            generation: self.generation,
            parent: self.parent,
            full: self.full,
            fence_lsn: self.fence_lsn,
            catalog_root,
            next_page_id,
            oracle_ts,
            next_txn_id,
            page_images: self.page_images,
            tables,
        };
        let payload = manifest.encode();
        if payload.len() > self.store.payload {
            return Err(SnapshotError::Corrupt("manifest exceeds one block"));
        }
        self.write_block(BlockKind::Manifest, 0, 0, &payload)?;
        retry_io(|| self.store.dev.sync())?;
        let info = GenerationInfo {
            generation: self.generation,
            parent: self.parent,
            start: self.start,
            blocks: self.seq,
            fence_lsn: self.fence_lsn,
            full: self.full,
        };
        self.store.install(info)?;
        Ok(info)
    }
}

impl std::fmt::Debug for SnapshotWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter")
            .field("generation", &self.generation)
            .field("blocks", &self.seq)
            .finish_non_exhaustive()
    }
}

fn chain_of(entries: &[GenerationInfo], gen: u64) -> Option<Vec<GenerationInfo>> {
    let mut chain = Vec::new();
    let mut cur = gen;
    loop {
        let e = entries.iter().find(|e| e.generation == cur)?;
        chain.push(*e);
        if e.full {
            break;
        }
        cur = e.parent;
    }
    chain.reverse();
    Some(chain)
}

/// Retain only the chains of the two newest generations; the previous
/// generation stays recoverable for the corrupt-newest fallback.
fn gc(entries: &mut Vec<GenerationInfo>) {
    let mut keep: BTreeSet<u64> = BTreeSet::new();
    let newest: Vec<u64> = entries.iter().rev().take(2).map(|e| e.generation).collect();
    for g in newest {
        if let Some(chain) = chain_of(entries, g) {
            keep.extend(chain.iter().map(|e| e.generation));
        }
    }
    entries.retain(|e| keep.contains(&e.generation));
}

fn encode_superblock(page: &mut [u8], entries: &[GenerationInfo]) {
    page.fill(0);
    page[0..8].copy_from_slice(&SUPER_MAGIC.to_le_bytes());
    page[8..12].copy_from_slice(&1u32.to_le_bytes());
    page[12..16].copy_from_slice(&(entries.len() as u32).to_le_bytes());
    for (i, e) in entries.iter().enumerate() {
        let o = SUPER_HEADER + i * SUPER_ENTRY;
        page[o..o + 8].copy_from_slice(&e.generation.to_le_bytes());
        page[o + 8..o + 16].copy_from_slice(&e.parent.to_le_bytes());
        page[o + 16..o + 24].copy_from_slice(&e.start.to_le_bytes());
        page[o + 24..o + 32].copy_from_slice(&e.blocks.to_le_bytes());
        page[o + 32..o + 40].copy_from_slice(&e.fence_lsn.to_le_bytes());
        page[o + 40..o + 48].copy_from_slice(&u64::from(e.full).to_le_bytes());
    }
    let crc_at = page.len() - 4;
    let crc = crc32(&page[..crc_at]);
    page[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

fn decode_superblock(page: &[u8], max_entries: usize) -> Option<Vec<GenerationInfo>> {
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
    if n > max_entries {
        return None;
    }
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let o = SUPER_HEADER + i * SUPER_ENTRY;
        entries.push(GenerationInfo {
            generation: u64_at(o),
            parent: u64_at(o + 8),
            start: u64_at(o + 16),
            blocks: u64_at(o + 24),
            fence_lsn: u64_at(o + 32),
            full: u64_at(o + 40) != 0,
        });
    }
    entries.sort_by_key(|e| e.generation);
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SnapshotStore {
        SnapshotStore::new(256, TimeScale::ZERO, PersistenceTracking::Full)
    }

    fn image(fill: u8) -> Vec<u8> {
        vec![fill; 256]
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

        // A crash after install keeps the generation (everything synced).
        s.simulate_crash();
        s.reload().unwrap();
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
    }

    #[test]
    fn uninstalled_generation_vanishes_on_crash() {
        let s = store();
        let mut w = s.begin(true, 0);
        w.page_image(1, &image(1)).unwrap();
        drop(w); // never finished: no superblock update
        s.simulate_crash();
        s.reload().unwrap();
        assert_eq!(s.latest(), None);
        assert_eq!(s.newest_valid(), None);
    }

    #[test]
    fn corrupt_newest_falls_back_a_generation() {
        let s = store();
        s.begin(true, 10).finish(0, 1, 2, 1, Vec::new()).unwrap();
        let mut w = s.begin(false, 20);
        w.page_image(3, &image(3)).unwrap();
        let g2 = w.finish(0, 4, 5, 2, Vec::new()).unwrap();
        assert_eq!(s.newest_valid(), Some(2));

        // Smash a block of generation 2 on the device and make it durable.
        let garbage = vec![0xFFu8; s.page_size];
        s.device().write_page(g2.start, &garbage).unwrap();
        s.device().sync().unwrap();
        assert_eq!(s.newest_valid(), Some(1));
        assert!(!s.validate(2).unwrap());
        assert!(s.validate(1).unwrap());
    }

    #[test]
    fn gc_drops_generations_outside_the_two_newest_chains() {
        let s = store();
        for i in 0..6u64 {
            // Alternate full/incremental so chains stay short.
            let full = i.is_multiple_of(2);
            s.begin(full, i * 10)
                .finish(0, 0, 0, 0, Vec::new())
                .unwrap();
        }
        let gens: Vec<u64> = s.generations().iter().map(|e| e.generation).collect();
        // Newest = 6 (incremental on 5), previous = 5 (full): chains {5,6}.
        assert_eq!(gens, vec![5, 6]);
        assert_eq!(s.newest_valid(), Some(6));
    }

    #[test]
    fn incremental_chain_applies_base_then_deltas() {
        let s = store();
        let mut w = s.begin(true, 0);
        w.page_image(1, &image(0x11)).unwrap();
        w.page_image(2, &image(0x22)).unwrap();
        w.index_entries(1, &[(5, 50)]).unwrap();
        w.finish(0, 3, 9, 1, Vec::new()).unwrap();

        let mut w = s.begin(false, 40);
        w.page_image(2, &image(0x99)).unwrap(); // overwrites base image
        w.index_entries(1, &[(5, 51), (6, 60)]).unwrap();
        w.finish(0, 3, 11, 2, Vec::new()).unwrap();

        let mut latest: std::collections::BTreeMap<u64, u8> = Default::default();
        let mut idx = Vec::new();
        let m = s
            .load(
                2,
                |pid, img| {
                    latest.insert(pid, img[0]);
                },
                |t, e| idx.push((t, e.to_vec())),
            )
            .unwrap();
        assert_eq!(latest.get(&1), Some(&0x11));
        assert_eq!(latest.get(&2), Some(&0x99)); // newer image won
        assert_eq!(idx, vec![(1, vec![(5, 51), (6, 60)])]); // newest gen only
        assert!(!m.full);
        assert_eq!(m.parent, 1);
    }

    #[test]
    fn index_runs_split_across_blocks() {
        let s = store();
        let mut w = s.begin(true, 0);
        // 256-byte payload = 16 entries per block; write 40.
        let entries: Vec<(u64, u64)> = (0..40u64).map(|k| (k, k * 2)).collect();
        w.index_entries(3, &entries).unwrap();
        w.finish(0, 0, 0, 0, Vec::new()).unwrap();
        let mut got = Vec::new();
        s.load(
            1,
            |_, _| {},
            |t, e| {
                assert_eq!(t, 3);
                got.extend_from_slice(e);
            },
        )
        .unwrap();
        assert_eq!(got, entries);
    }
}
