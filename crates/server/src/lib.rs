//! TCP front end for the Spitfire database.
//!
//! This crate wires [`spitfire_txn::Database`] to the network for
//! thousands of concurrent clients:
//!
//! * [`protocol`] — a versioned, length-prefixed binary wire protocol
//!   (GET / PUT / DELETE / SCAN / BEGIN / COMMIT / ABORT / STATS /
//!   SHUTDOWN) with a per-frame CRC32 reusing the WAL's checksum.
//! * [`admission`] — bounded per-connection queues, a global in-flight
//!   cap, buffer-memory-pressure shedding driven by
//!   [`spitfire_core::BufferManager::pressure`], and per-tenant
//!   token-bucket quotas. Shed requests get typed, retryable errors.
//! * [`scheduler`] — deficit round-robin over per-tenant rings so a
//!   flooding tenant cannot starve a quiet one, and the execution slots
//!   that bound how many threads run database work at once.
//! * [`server`] — the listener, per-connection reader threads (which run
//!   a request themselves when nothing waits behind or ahead of it), the
//!   worker pool executing against per-connection
//!   [`spitfire_txn::Session`]s, and the pressure monitor.
//!
//! ```no_run
//! use spitfire_server::{Server, ServerConfig, TenantConfig};
//!
//! let mut config = ServerConfig::default();
//! config.tenants = vec![
//!     TenantConfig { weight: 4, quota_ops_per_sec: None },
//!     TenantConfig { weight: 1, quota_ops_per_sec: Some(10_000.0) },
//! ];
//! let server = Server::start(config).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use admission::{Admission, AdmissionConfig, TenantConfig, Verdict};
pub use protocol::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, Command, ErrorCode,
    FrameError, Opcode, Reply, ReplyFrame, Request,
};
pub use scheduler::{Schedulable, Scheduler};
pub use server::{decode_value, encode_value, tombstone, Server, ServerConfig};
