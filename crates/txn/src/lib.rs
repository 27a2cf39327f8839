//! Transactions, logging, and recovery for Spitfire (paper §5.2).
//!
//! This crate layers a transactional key-value database on top of the
//! Spitfire buffer manager:
//!
//! * **Versioned tables** ([`Table`]) store fixed-size tuples with on-page
//!   MVTO version headers, so concurrency-control metadata traffic flows
//!   through the storage hierarchy exactly as in the paper.
//! * **MVTO** (multi-version timestamp ordering, [`mvto`]) provides
//!   serializable transactions: each transaction gets one timestamp;
//!   reads record themselves on versions; writes abort when they would
//!   violate timestamp order.
//! * **NVM-aware WAL** ([`Wal`]) persists log records in a byte-addressable
//!   NVM buffer (`clwb`/`sfence`) — the commit path never touches SSD —
//!   and drains to an SSD log file in the background.
//! * **Recovery** ([`Database::recover`]) scans the persistent NVM buffer
//!   to rebuild the mapping table, loads the newest snapshot generation,
//!   and runs analysis / redo / undo over the log tail past its fence
//!   (the NVM log buffer included) before rebuilding indexes.
//! * **Checkpoints** ([`Database::checkpoint`]) write generation-numbered,
//!   checksummed snapshot generations (index runs, page runs and a
//!   manifest) into the database's [`SnapshotStore`], a block file on its
//!   own SSD device.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod checkpoint;
mod db;
mod error;
mod maintenance;
pub mod mvto;
mod session;
mod store;
mod table;
mod wal;

pub use checkpoint::{CheckpointStats, SnapshotConfig};
pub use db::{Database, DbConfig, RecoveryStats, Transaction};
pub use error::TxnError;
pub use maintenance::{MaintainStats, VacuumStats};
pub use session::Session;
pub use store::{GenerationInfo, Manifest, SnapshotStore, SnapshotWriter, TableMeta, BLOCK_HEADER};
pub use table::{Field, ReadVisit, Table, VersionHeader, WriteVisit, NO_RID, VERSION_HEADER};
pub use wal::{LogRecord, RecordKind, Wal, WalFence, WalScanReport};

/// Result alias for transaction-layer operations.
pub type Result<T> = std::result::Result<T, TxnError>;
