//! Generation-numbered, checksummed snapshot files for instant restart.
//!
//! A snapshot *store* is a dedicated SSD device whose page size is the
//! database page size — the device's transfer unit — so every **block** is
//! exactly one device page:
//!
//! | block | holds                                                         |
//! |-------|---------------------------------------------------------------|
//! | 0     | the **superblock**: the two newest generations (number,       |
//! |       | manifest block, fence LSN, full flag), whole-page CRC-32      |
//! | ≥ 1   | an **image block**: one page image, raw — no header           |
//! | ≥ 1   | a **metadata block**: a 48-byte header *inside* the page      |
//! |       | (magic, CRC-32, kind, generation, sequence) + payload: an     |
//! |       | index run, a directory run, or the generation's manifest      |
//!
//! Each checkpoint writes one *generation*: page images for the pages it
//! was handed, full index runs, and **one self-contained page directory**
//! (`page id → block, CRC-32`, 20 bytes an entry) listing the newest image
//! of every page — the ones it wrote and, for an incremental generation,
//! every entry of the previous generation's directory it did not
//! overwrite. A full generation (SSD-backed: the checkpointer flushed the
//! pages home instead) starts from an empty directory. The manifest lists
//! the index-run and directory blocks; the superblock entry names the
//! manifest's block. A generation therefore never needs an ancestor:
//! validation and recovery read each page's newest image once, from the
//! generation's own directory.
//!
//! **Why the image's CRC lives in the directory.** A header in the image
//! block would push it to two device pages (16 KB + 48 B is charged, and
//! moved, as 32 KB), and it could only vouch for the block, not for the
//! reference: with blocks reused, a block holding an intact but *older*
//! image — of another page or of the same one — would pass its own
//! checksum. The directory's CRC is over what the entry is supposed to
//! find.
//!
//! **Liveness rule.** The superblock keeps the two newest generations
//! (the newest and the fallback recovery uses when the newest fails a
//! checksum). A block is free exactly when neither of them, nor a writer
//! in flight, references it. Writers take the lowest free block first and
//! hand their blocks back when dropped or failed, so the store's high
//! water is two retained generations plus one writer — three images per
//! page when every page is dirty in every interval — however long it
//! runs. [`SnapshotStore::reload`] rebuilds the free set from the
//! superblock and the directories it can read; [`SnapshotStore::check`]
//! walks the invariants.
//!
//! A generation is installed atomically by rewriting and syncing the
//! superblock after its blocks are durable (the emulated-device analogue
//! of an atomic rename); the in-memory list changes only after that sync
//! succeeds. A generation is *valid* only if its manifest, every metadata
//! block the manifest lists and every image its directory names pass their
//! checksums, all re-read from the device; recovery falls back one
//! generation on any mismatch. The writer holds one block of scratch plus
//! one directory entry (20 bytes on disk) per image it wrote. A manifest
//! that cannot list its metadata blocks in one block is an error, never a
//! truncation.
//!
//! The checksum is the canonical [`spitfire_sync::crc32`] — CRC-32C, the
//! polynomial the CPU has an instruction for — shared with the WAL framing
//! and the server wire protocol. This crate knows nothing
//! about transactions: the checkpointer and the recovery path in
//! `crates/txn` drive it.

#![warn(missing_docs)]

mod format;
mod store;

pub use format::{BlockKind, Manifest, TableMeta, BLOCK_HEADER, DIRECTORY_ENTRY};
pub use store::{GenerationInfo, SnapshotStore, SnapshotWriter};

/// Errors from snapshot reading/writing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The underlying device failed (possibly injected by the fault plane).
    Device(spitfire_device::DeviceError),
    /// A block or superblock failed structural validation. Recovery treats
    /// this as "generation invalid" and falls back, it is not fatal.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Device(e) => write!(f, "snapshot device error: {e}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Device(e) => Some(e),
            SnapshotError::Corrupt(_) => None,
        }
    }
}

impl From<spitfire_device::DeviceError> for SnapshotError {
    fn from(e: spitfire_device::DeviceError) -> Self {
        SnapshotError::Device(e)
    }
}

/// Result alias for snapshot operations.
pub type Result<T> = std::result::Result<T, SnapshotError>;
