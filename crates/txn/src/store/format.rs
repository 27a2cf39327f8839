//! On-disk layout of the snapshot store: metadata blocks, manifests, and
//! the superblock.
//!
//! All integers are little-endian. A store block is exactly one database
//! page (and so one device transfer unit). Every block but the superblock
//! is a **metadata block** (index run, page run, manifest): a
//! `BLOCK_HEADER`-byte header *inside* the page, followed by up to
//! `page_size - BLOCK_HEADER` payload bytes.
//!
//! Metadata block header (48 bytes):
//!
//! | off | size | field                                        |
//! |-----|------|----------------------------------------------|
//! | 0   | 8    | magic `SPIFBLK3`                             |
//! | 8   | 4    | CRC-32 over bytes `12..48+payload_len`       |
//! | 12  | 1    | kind (1 index run, 2 manifest, 3 page run)   |
//! | 13  | 3    | zero padding                                 |
//! | 16  | 4    | tag (table id for runs, 0 for the manifest)  |
//! | 20  | 4    | payload length in bytes                      |
//! | 24  | 8    | generation number                            |
//! | 32  | 8    | sequence number: a run's place in the chain, |
//! |     |      | the run count for the manifest               |
//! | 40  | 8    | next block of the generation's chain         |
//!
//! A generation's blocks form one cycle: manifest → first run → … → last
//! run → manifest (a manifest with no runs names itself). Payloads: an
//! index run is packed `(key u64, rid u64)` pairs; a page run is a table's
//! data-page ids (`u64`) in slot order; the manifest is described at
//! [`Manifest`].

use spitfire_core::PageId;
use spitfire_sync::crc32;

use crate::error::TxnError;
use crate::wal::WalFence;
use crate::Result;

/// Bytes of header at the start of every metadata block.
pub const BLOCK_HEADER: usize = 48;

const BLOCK_MAGIC: u64 = 0x5350_4946_424C_4B33; // "SPIFBLK3"
pub(super) const SUPER_MAGIC: u64 = 0x5350_4946_5355_5032; // "SPIFSUP2"
const MANIFEST_MAGIC: u64 = 0x5350_4946_4D41_4E36; // "SPIFMAN6"

/// What a metadata block carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum BlockKind {
    /// A run of sorted `(key, rid)` index entries; `tag` is the table id.
    IndexRun,
    /// The generation's manifest.
    Manifest,
    /// A table's data-page ids in slot order; `tag` is the table id.
    PageRun,
}

impl BlockKind {
    fn to_byte(self) -> u8 {
        match self {
            BlockKind::IndexRun => 1,
            BlockKind::Manifest => 2,
            BlockKind::PageRun => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(BlockKind::IndexRun),
            2 => Some(BlockKind::Manifest),
            3 => Some(BlockKind::PageRun),
            _ => None,
        }
    }
}

/// A decoded metadata block header plus borrowed payload.
pub(super) struct Block<'a> {
    pub kind: BlockKind,
    pub tag: u32,
    pub gen: u64,
    pub seq: u64,
    pub next: u64,
    pub payload: &'a [u8],
}

/// Frame `payload` into `page` (a full store page) as a checksummed
/// metadata block whose chain goes on at block `next`.
pub(super) fn encode_block(
    page: &mut [u8],
    kind: BlockKind,
    tag: u32,
    gen: u64,
    seq: u64,
    next: u64,
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
    page[40..48].copy_from_slice(&next.to_le_bytes());
    page[BLOCK_HEADER..BLOCK_HEADER + payload.len()].copy_from_slice(payload);
    let crc = crc32(&page[12..BLOCK_HEADER + payload.len()]);
    page[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// Decode and CRC-check one store page (at least `BLOCK_HEADER` bytes) as
/// a metadata block.
pub(super) fn decode_block(page: &[u8]) -> Result<Block<'_>> {
    let u64_at = |o: usize| u64::from_le_bytes(page[o..o + 8].try_into().unwrap());
    let u32_at = |o: usize| u32::from_le_bytes(page[o..o + 4].try_into().unwrap());
    if u64_at(0) != BLOCK_MAGIC {
        return Err(TxnError::Corrupt("bad block magic"));
    }
    let payload_len = u32_at(20) as usize;
    if payload_len > page.len() - BLOCK_HEADER {
        return Err(TxnError::Corrupt("bad block payload length"));
    }
    if u32_at(8) != crc32(&page[12..BLOCK_HEADER + payload_len]) {
        return Err(TxnError::Corrupt("block CRC mismatch"));
    }
    let kind = BlockKind::from_byte(page[12]).ok_or(TxnError::Corrupt("unknown block kind"))?;
    Ok(Block {
        kind,
        tag: u32_at(16),
        gen: u64_at(24),
        seq: u64_at(32),
        next: u64_at(40),
        payload: &page[BLOCK_HEADER..BLOCK_HEADER + payload_len],
    })
}

/// Per-table metadata recorded in the manifest; the table's data pages
/// are its page run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableMeta {
    /// Table id.
    pub id: u32,
    /// Fixed tuple payload size in bytes.
    pub tuple_size: u32,
    /// Slot-allocator high-water mark at the checkpoint fence.
    pub allocated_slots: u64,
}

/// Decode an index-run payload: packed `(key, rid)` pairs.
pub(super) fn decode_index_run(payload: &[u8]) -> Result<Vec<(u64, u64)>> {
    let pairs = payload.chunks_exact(16);
    if !pairs.remainder().is_empty() {
        return Err(TxnError::Corrupt("ragged index run"));
    }
    Ok(pairs
        .map(|c| {
            (
                u64::from_le_bytes(c[0..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..16].try_into().unwrap()),
            )
        })
        .collect())
}

/// Decode a page-run payload: packed page ids.
pub(super) fn decode_page_run(payload: &[u8]) -> Result<Vec<PageId>> {
    let ids = payload.chunks_exact(8);
    if !ids.remainder().is_empty() {
        return Err(TxnError::Corrupt("ragged page run"));
    }
    Ok(ids
        .map(|c| PageId(u64::from_le_bytes(c.try_into().unwrap())))
        .collect())
}

/// The checksummed manifest of a generation, held in the one block the
/// superblock entry names. Everything recovery needs besides the pages'
/// homes, the persistent NVM buffer, the runs and the WAL tail lives here;
/// the runs are found by following the chain from the manifest's header,
/// which also carries their count (its sequence number).
///
/// Payload layout (`MANIFEST_FIXED` = 56 bytes, then the tables):
///
/// | off | size | field                                         |
/// |-----|------|-----------------------------------------------|
/// | 0   | 8    | magic `SPIFMAN6`                              |
/// | 8   | 8    | generation                                    |
/// | 16  | 8    | fence LSN                                     |
/// | 24  | 8    | fence page (first log-file page of the tail)  |
/// | 32  | 8    | next page id                                  |
/// | 40  | 8    | oracle timestamp                              |
/// | 48  | 8    | next transaction id                           |
/// | 56  | 16·t | tables, to the end of the payload: id u32,    |
/// |     |      | tuple size u32, allocated slots u64           |
///
/// The table list is the only part that grows: `create_table` refuses a
/// table past what one block can list (`max_tables`), so no checkpoint
/// writes a manifest that does not fit.
///
/// The default manifest — generation 0, fence `{0, 0}`, no tables — is
/// what an empty store stands for: recovery then replays the whole log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// This generation's number.
    pub generation: u64,
    /// The WAL fence the generation was taken at: recovery starts its log
    /// scan at `fence.file_page`, whose first byte is LSN `fence.lsn`, so
    /// it reads and replays exactly the records appended after the fence.
    pub fence: WalFence,
    /// Page-allocator high-water mark at the fence.
    pub next_page_id: u64,
    /// Timestamp-oracle value at the fence.
    pub oracle_ts: u64,
    /// Transaction-id counter at the fence.
    pub next_txn_id: u64,
    /// Per-table metadata.
    pub tables: Vec<TableMeta>,
}

const MANIFEST_FIXED: usize = 56;
const TABLE_META: usize = 16;

/// Tables a manifest lists in one `page_size`-byte block.
pub(crate) fn max_tables(page_size: usize) -> usize {
    (page_size - BLOCK_HEADER - MANIFEST_FIXED) / TABLE_META
}

impl Manifest {
    pub(super) fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; MANIFEST_FIXED];
        out[0..8].copy_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out[8..16].copy_from_slice(&self.generation.to_le_bytes());
        out[16..24].copy_from_slice(&self.fence.lsn.to_le_bytes());
        out[24..32].copy_from_slice(&self.fence.file_page.to_le_bytes());
        out[32..40].copy_from_slice(&self.next_page_id.to_le_bytes());
        out[40..48].copy_from_slice(&self.oracle_ts.to_le_bytes());
        out[48..56].copy_from_slice(&self.next_txn_id.to_le_bytes());
        for t in &self.tables {
            out.extend_from_slice(&t.id.to_le_bytes());
            out.extend_from_slice(&t.tuple_size.to_le_bytes());
            out.extend_from_slice(&t.allocated_slots.to_le_bytes());
        }
        out
    }

    pub(super) fn decode(payload: &[u8]) -> Result<Manifest> {
        if payload.len() < MANIFEST_FIXED {
            return Err(TxnError::Corrupt("short manifest"));
        }
        let u64_at = |o: usize| u64::from_le_bytes(payload[o..o + 8].try_into().unwrap());
        if u64_at(0) != MANIFEST_MAGIC {
            return Err(TxnError::Corrupt("bad manifest magic"));
        }
        let tables = payload[MANIFEST_FIXED..].chunks_exact(TABLE_META);
        if !tables.remainder().is_empty() {
            return Err(TxnError::Corrupt("ragged manifest table list"));
        }
        let tables = tables
            .map(|t| TableMeta {
                id: u32::from_le_bytes(t[0..4].try_into().unwrap()),
                tuple_size: u32::from_le_bytes(t[4..8].try_into().unwrap()),
                allocated_slots: u64::from_le_bytes(t[8..16].try_into().unwrap()),
            })
            .collect();
        Ok(Manifest {
            generation: u64_at(8),
            fence: WalFence {
                lsn: u64_at(16),
                file_page: u64_at(24),
            },
            next_page_id: u64_at(32),
            oracle_ts: u64_at(40),
            next_txn_id: u64_at(48),
            tables,
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
        encode_block(&mut page, BlockKind::IndexRun, 5, 3, 17, 40, &payload);
        let b = decode_block(&page).unwrap();
        assert_eq!(b.kind, BlockKind::IndexRun);
        assert_eq!((b.tag, b.gen, b.seq, b.next), (5, 3, 17, 40));
        assert_eq!(b.payload, &payload[..]);

        // Any flipped payload bit must fail the CRC.
        page[BLOCK_HEADER + 100] ^= 0x40;
        assert!(matches!(
            decode_block(&page),
            Err(TxnError::Corrupt("block CRC mismatch"))
        ));
    }

    #[test]
    fn index_run_round_trip_and_ragged_tail() {
        let entries = [(3u64, 9u64), (u64::MAX, 1)];
        let bytes: Vec<u8> = entries
            .iter()
            .flat_map(|&(k, r)| k.to_le_bytes().into_iter().chain(r.to_le_bytes()))
            .collect();
        assert_eq!(decode_index_run(&bytes).unwrap(), entries);
        assert!(decode_index_run(&bytes[..30]).is_err());
    }

    #[test]
    fn page_run_round_trip_and_ragged_tail() {
        let bytes: Vec<u8> = [7u64, 3, u64::MAX]
            .iter()
            .flat_map(|p| p.to_le_bytes())
            .collect();
        let ids: Vec<u64> = decode_page_run(&bytes)
            .unwrap()
            .iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(ids, [7, 3, u64::MAX]);
        assert!(decode_page_run(&bytes[..20]).is_err());
    }

    #[test]
    fn manifest_round_trip() {
        let m = Manifest {
            generation: 9,
            fence: WalFence {
                lsn: 123_456,
                file_page: 31,
            },
            next_page_id: 77,
            oracle_ts: 1000,
            next_txn_id: 55,
            tables: vec![
                TableMeta {
                    id: 1,
                    tuple_size: 64,
                    allocated_slots: 500,
                },
                TableMeta {
                    id: 7,
                    tuple_size: 128,
                    allocated_slots: 0,
                },
            ],
        };
        let bytes = m.encode();
        // 16 bytes a table, to the end of the payload.
        assert_eq!(bytes.len(), MANIFEST_FIXED + 2 * 16);
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        assert!(Manifest::decode(&bytes[..bytes.len() - 8]).is_err());
        // The tables a block can list fit in one block's payload.
        let full = Manifest {
            tables: vec![m.tables[0]; max_tables(256)],
            ..m
        };
        assert!(full.encode().len() <= 256 - BLOCK_HEADER);
        assert!(full.encode().len() + TABLE_META > 256 - BLOCK_HEADER);
    }
}
