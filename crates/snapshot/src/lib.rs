//! Generation-numbered, checksummed snapshot files for instant restart.
//!
//! A snapshot *store* is a dedicated SSD device holding an append-only
//! sequence of fixed-size **blocks** plus a single **superblock** (page 0)
//! naming the installed generations. Each checkpoint writes one new
//! *generation*: a contiguous run of blocks — page images, index runs, and
//! a trailing manifest — written in a single pass with O(1) writer memory,
//! then installed atomically by rewriting and syncing the superblock (the
//! emulated-device analogue of an atomic rename). Every block carries a
//! CRC-32 over its header and payload; the superblock carries a whole-page
//! CRC. A generation is *valid* only if every block in its chain (itself
//! plus the incremental ancestors back to the nearest full snapshot)
//! passes its checksum; recovery falls back one generation — then another —
//! on any mismatch.
//!
//! The checksum is the canonical [`spitfire_sync::crc32`] shared with the
//! WAL framing and the server wire protocol. This crate knows nothing
//! about transactions: the checkpointer and the recovery path in
//! `crates/txn` drive it.

#![warn(missing_docs)]

mod format;
mod store;

pub use format::{BlockKind, Manifest, TableMeta, BLOCK_HEADER, MAX_SUPERBLOCK_GENERATIONS};
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
