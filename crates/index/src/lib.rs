//! Concurrent B+Tree with optimistic lock coupling over Spitfire pages.
//!
//! The paper (§5.2) implements "a concurrent B+Tree with optimistic lock
//! coupling on top of Spitfire \[24\]" because, once NVM removes most of the
//! I/O bottleneck, index synchronization becomes the next contention point.
//! This crate is that index:
//!
//! * every node is a buffer-managed page, so the tree spans the whole
//!   DRAM–NVM–SSD hierarchy and hot nodes migrate upward like any other
//!   page;
//! * readers descend optimistically, validating per-node version latches
//!   ([`spitfire_sync::VersionLatch`]) instead of taking shared locks;
//! * a node's latch is its page's: the buffer manager keeps it in the
//!   page's descriptor and hands it out through the pin
//!   ([`spitfire_core::PageGuard::latch`]), so it follows the node across
//!   tiers and the tree holds no per-page state — no side table, no hash
//!   order, no reference counts on the way down (`cargo xtask lint` rule
//!   `index-state` keeps it that way);
//! * there is one optimistic descent and one bounded, counted restart
//!   loop ([`BTree::restarts`]); every operation is built on them;
//! * writers take a write latch only on the leaf they modify; structural
//!   changes (splits) restart the descent pessimistically, splitting full
//!   nodes top-down while never holding more than two write latches and
//!   fetching each level once.
//!
//! Keys and values are `u64` — the workloads in `spitfire-wkld` map YCSB
//! primary keys and TPC-C composite keys onto `u64` and store tuple
//! locations as values.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod node;
mod tree;

pub use tree::{BTree, EntryAt, IndexError};

/// Result alias for index operations.
pub type Result<T> = std::result::Result<T, IndexError>;
