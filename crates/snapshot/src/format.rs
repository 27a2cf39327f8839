//! On-disk layout of the snapshot store: image blocks, metadata blocks,
//! directory entries, manifests, and the superblock.
//!
//! All integers are little-endian. A store block is exactly one database
//! page (and so one device transfer unit). An **image block** is a raw
//! page image with no framing at all; its identity and checksum live in
//! the owning generation's directory. A **metadata block** (index run,
//! directory, manifest) carries a `BLOCK_HEADER`-byte header *inside* the
//! page, followed by up to `page_size - BLOCK_HEADER` payload bytes.
//!
//! Metadata block header (48 bytes):
//!
//! | off | size | field                                        |
//! |-----|------|----------------------------------------------|
//! | 0   | 8    | magic `SPIFBLK2`                             |
//! | 8   | 4    | CRC-32 over bytes `12..48+payload_len`       |
//! | 12  | 1    | kind (1 index run, 2 directory, 3 manifest)  |
//! | 13  | 3    | zero padding                                 |
//! | 16  | 4    | tag (table id for index runs, else 0)        |
//! | 20  | 4    | payload length in bytes                      |
//! | 24  | 8    | generation number                            |
//! | 32  | 8    | sequence number in the manifest's block list |
//! | 40  | 8    | reserved (zero)                              |
//!
//! Payloads: an index run is packed `(key u64, rid u64)` pairs; a
//! directory block is packed [`DIRECTORY_ENTRY`]-byte entries
//! `(pid u64, block u64, crc u32)`, page ids strictly ascending across
//! the generation's directory blocks; the manifest is described at
//! [`Manifest`].

use spitfire_sync::crc32;

use crate::{Result, SnapshotError};

/// Bytes of header at the start of every metadata block.
pub const BLOCK_HEADER: usize = 48;

/// Bytes of one directory entry: page id, block number, image CRC-32.
pub const DIRECTORY_ENTRY: usize = 20;

pub(crate) const BLOCK_MAGIC: u64 = 0x5350_4946_424C_4B32; // "SPIFBLK2"
pub(crate) const SUPER_MAGIC: u64 = 0x5350_4946_5355_5032; // "SPIFSUP2"
pub(crate) const MANIFEST_MAGIC: u64 = 0x5350_4946_4D41_4E32; // "SPIFMAN2"

/// What a metadata block carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A run of sorted `(key, rid)` index entries; `tag` is the table id.
    IndexRun,
    /// A run of the generation's page directory.
    Directory,
    /// The generation's manifest.
    Manifest,
}

impl BlockKind {
    fn to_byte(self) -> u8 {
        match self {
            BlockKind::IndexRun => 1,
            BlockKind::Directory => 2,
            BlockKind::Manifest => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(BlockKind::IndexRun),
            2 => Some(BlockKind::Directory),
            3 => Some(BlockKind::Manifest),
            _ => None,
        }
    }
}

/// A decoded metadata block header plus borrowed payload.
pub(crate) struct Block<'a> {
    pub kind: BlockKind,
    pub tag: u32,
    pub gen: u64,
    pub seq: u64,
    pub payload: &'a [u8],
}

/// Frame `payload` into `page` (a full store page) as a checksummed
/// metadata block.
pub(crate) fn encode_block(
    page: &mut [u8],
    kind: BlockKind,
    tag: u32,
    gen: u64,
    seq: u64,
    payload: &[u8],
) {
    assert!(payload.len() <= page.len() - BLOCK_HEADER);
    page.fill(0);
    page[0..8].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
    page[12] = kind.to_byte();
    page[16..20].copy_from_slice(&tag.to_le_bytes());
    page[20..24].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    page[24..32].copy_from_slice(&gen.to_le_bytes());
    page[32..40].copy_from_slice(&seq.to_le_bytes());
    page[BLOCK_HEADER..BLOCK_HEADER + payload.len()].copy_from_slice(payload);
    let crc = crc32(&page[12..BLOCK_HEADER + payload.len()]);
    page[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// Decode and CRC-check one store page as a metadata block.
pub(crate) fn decode_block(page: &[u8]) -> Result<Block<'_>> {
    if page.len() < BLOCK_HEADER {
        return Err(SnapshotError::Corrupt("short block"));
    }
    let u64_at = |o: usize| u64::from_le_bytes(page[o..o + 8].try_into().unwrap());
    let u32_at = |o: usize| u32::from_le_bytes(page[o..o + 4].try_into().unwrap());
    if u64_at(0) != BLOCK_MAGIC {
        return Err(SnapshotError::Corrupt("bad block magic"));
    }
    let payload_len = u32_at(20) as usize;
    if payload_len > page.len() - BLOCK_HEADER {
        return Err(SnapshotError::Corrupt("bad block payload length"));
    }
    if u32_at(8) != crc32(&page[12..BLOCK_HEADER + payload_len]) {
        return Err(SnapshotError::Corrupt("block CRC mismatch"));
    }
    let kind =
        BlockKind::from_byte(page[12]).ok_or(SnapshotError::Corrupt("unknown block kind"))?;
    Ok(Block {
        kind,
        tag: u32_at(16),
        gen: u64_at(24),
        seq: u64_at(32),
        payload: &page[BLOCK_HEADER..BLOCK_HEADER + payload_len],
    })
}

/// One directory entry: where a page's newest image as of this generation
/// lives, and the CRC-32 the block must have. The checksum sits here, not
/// in the image block, so the block stays one device page *and* a block
/// that was since reused for another image (or still holds an older image
/// of the same page) fails the check instead of passing its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DirEntry {
    pub pid: u64,
    pub block: u64,
    pub crc: u32,
}

impl DirEntry {
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.pid.to_le_bytes());
        out.extend_from_slice(&self.block.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
    }

    /// Decode a directory block's payload, appending to `out`.
    pub(crate) fn decode_run(payload: &[u8], out: &mut Vec<DirEntry>) -> Result<()> {
        if payload.len() % DIRECTORY_ENTRY != 0 {
            return Err(SnapshotError::Corrupt("ragged directory block"));
        }
        out.extend(payload.chunks_exact(DIRECTORY_ENTRY).map(|c| DirEntry {
            pid: u64::from_le_bytes(c[0..8].try_into().unwrap()),
            block: u64::from_le_bytes(c[8..16].try_into().unwrap()),
            crc: u32::from_le_bytes(c[16..20].try_into().unwrap()),
        }));
        Ok(())
    }
}

/// Per-table metadata recorded in the manifest so recovery can reopen a
/// table without the legacy reverse slot-allocator scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableMeta {
    /// Table id.
    pub id: u32,
    /// Fixed tuple payload size in bytes.
    pub tuple_size: u32,
    /// First page of the table's catalog chain.
    pub catalog_head: u64,
    /// Slot-allocator high-water mark at the checkpoint fence.
    pub allocated_slots: u64,
}

/// The checksummed manifest of a generation, held in the one block the
/// superblock entry names. Everything recovery needs besides the page
/// images, index runs, and the WAL tail lives here — including the list
/// of the generation's other metadata blocks, so a generation is found
/// from its manifest alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// This generation's number.
    pub generation: u64,
    /// The generation whose directory this one inherited (0 for a full
    /// snapshot). Lineage only: nothing is ever read through it.
    pub parent: u64,
    /// Whether this generation is a full snapshot (SSD-backed, so its
    /// directory holds only what the writer was handed — normally nothing).
    pub full: bool,
    /// WAL fence: recovery replays only records with LSN ≥ this.
    pub fence_lsn: u64,
    /// Root catalog page id of the database.
    pub catalog_root: u64,
    /// Page-allocator high-water mark at the fence.
    pub next_page_id: u64,
    /// Timestamp-oracle value at the fence.
    pub oracle_ts: u64,
    /// Transaction-id counter at the fence.
    pub next_txn_id: u64,
    /// Number of page images this generation wrote itself.
    pub page_images: u64,
    /// Number of pages its directory names (written + inherited).
    pub directory_pages: u64,
    /// Per-table metadata.
    pub tables: Vec<TableMeta>,
    /// The generation's index-run and directory blocks, in sequence order.
    pub meta_blocks: Vec<u64>,
}

const MANIFEST_FIXED: usize = 96;
const TABLE_META: usize = 24;

impl Manifest {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let blocks_at = MANIFEST_FIXED + self.tables.len() * TABLE_META;
        let mut out = vec![0u8; blocks_at + self.meta_blocks.len() * 8];
        out[0..8].copy_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out[8..16].copy_from_slice(&self.generation.to_le_bytes());
        out[16..24].copy_from_slice(&self.parent.to_le_bytes());
        out[24..32].copy_from_slice(&self.fence_lsn.to_le_bytes());
        out[32..40].copy_from_slice(&self.catalog_root.to_le_bytes());
        out[40..48].copy_from_slice(&self.next_page_id.to_le_bytes());
        out[48..56].copy_from_slice(&self.oracle_ts.to_le_bytes());
        out[56..64].copy_from_slice(&self.next_txn_id.to_le_bytes());
        out[64..72].copy_from_slice(&self.page_images.to_le_bytes());
        out[72..76].copy_from_slice(&(self.tables.len() as u32).to_le_bytes());
        out[76..80].copy_from_slice(&u32::from(self.full).to_le_bytes());
        out[80..88].copy_from_slice(&self.directory_pages.to_le_bytes());
        out[88..92].copy_from_slice(&(self.meta_blocks.len() as u32).to_le_bytes());
        for (i, t) in self.tables.iter().enumerate() {
            let o = MANIFEST_FIXED + i * TABLE_META;
            out[o..o + 4].copy_from_slice(&t.id.to_le_bytes());
            out[o + 4..o + 8].copy_from_slice(&t.tuple_size.to_le_bytes());
            out[o + 8..o + 16].copy_from_slice(&t.catalog_head.to_le_bytes());
            out[o + 16..o + 24].copy_from_slice(&t.allocated_slots.to_le_bytes());
        }
        for (i, b) in self.meta_blocks.iter().enumerate() {
            let o = blocks_at + i * 8;
            out[o..o + 8].copy_from_slice(&b.to_le_bytes());
        }
        out
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<Manifest> {
        if payload.len() < MANIFEST_FIXED {
            return Err(SnapshotError::Corrupt("short manifest"));
        }
        let u64_at = |o: usize| u64::from_le_bytes(payload[o..o + 8].try_into().unwrap());
        let u32_at = |o: usize| u32::from_le_bytes(payload[o..o + 4].try_into().unwrap());
        if u64_at(0) != MANIFEST_MAGIC {
            return Err(SnapshotError::Corrupt("bad manifest magic"));
        }
        let n_tables = u32_at(72) as usize;
        let n_blocks = u32_at(88) as usize;
        let blocks_at = MANIFEST_FIXED + n_tables * TABLE_META;
        // Both counts are bounded by the payload (one block) before
        // anything is allocated for them.
        if payload.len() != blocks_at + n_blocks * 8 {
            return Err(SnapshotError::Corrupt("manifest length mismatch"));
        }
        let tables = (0..n_tables)
            .map(|i| {
                let o = MANIFEST_FIXED + i * TABLE_META;
                TableMeta {
                    id: u32_at(o),
                    tuple_size: u32_at(o + 4),
                    catalog_head: u64_at(o + 8),
                    allocated_slots: u64_at(o + 16),
                }
            })
            .collect();
        Ok(Manifest {
            generation: u64_at(8),
            parent: u64_at(16),
            full: u32_at(76) != 0,
            fence_lsn: u64_at(24),
            catalog_root: u64_at(32),
            next_page_id: u64_at(40),
            oracle_ts: u64_at(48),
            next_txn_id: u64_at(56),
            page_images: u64_at(64),
            directory_pages: u64_at(80),
            tables,
            meta_blocks: (0..n_blocks).map(|i| u64_at(blocks_at + i * 8)).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_round_trip_and_crc() {
        let mut page = vec![0u8; 256];
        let payload: Vec<u8> = (0..200u32).map(|i| (i * 7) as u8).collect();
        encode_block(&mut page, BlockKind::IndexRun, 5, 3, 17, &payload);
        let b = decode_block(&page).unwrap();
        assert_eq!(b.kind, BlockKind::IndexRun);
        assert_eq!((b.tag, b.gen, b.seq), (5, 3, 17));
        assert_eq!(b.payload, &payload[..]);

        // Any flipped payload bit must fail the CRC.
        page[BLOCK_HEADER + 100] ^= 0x40;
        assert!(matches!(
            decode_block(&page),
            Err(SnapshotError::Corrupt("block CRC mismatch"))
        ));
    }

    #[test]
    fn directory_run_round_trip_and_ragged_tail() {
        let entries = [
            DirEntry {
                pid: 3,
                block: 9,
                crc: 0xDEAD_BEEF,
            },
            DirEntry {
                pid: u64::MAX,
                block: 1,
                crc: 0,
            },
        ];
        let mut bytes = Vec::new();
        entries.iter().for_each(|e| e.encode_into(&mut bytes));
        assert_eq!(bytes.len(), 2 * DIRECTORY_ENTRY);
        let mut out = Vec::new();
        DirEntry::decode_run(&bytes, &mut out).unwrap();
        assert_eq!(out, entries);
        assert!(DirEntry::decode_run(&bytes[..30], &mut out).is_err());
    }

    #[test]
    fn manifest_round_trip() {
        let m = Manifest {
            generation: 9,
            parent: 8,
            full: false,
            fence_lsn: 123_456,
            catalog_root: 0,
            next_page_id: 77,
            oracle_ts: 1000,
            next_txn_id: 55,
            page_images: 12,
            directory_pages: 40,
            tables: vec![
                TableMeta {
                    id: 1,
                    tuple_size: 64,
                    catalog_head: 2,
                    allocated_slots: 500,
                },
                TableMeta {
                    id: 7,
                    tuple_size: 128,
                    catalog_head: 9,
                    allocated_slots: 0,
                },
            ],
            meta_blocks: vec![4, 5, 17],
        };
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        // A manifest is exactly as long as its counts say.
        assert!(Manifest::decode(&bytes[..bytes.len() - 8]).is_err());
    }
}
