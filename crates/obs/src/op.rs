//! The instrumented operation vocabulary.

/// Every operation the observability layer tracks, used as a dense index
/// into the histogram registry.
///
/// The three `Fetch*` variants classify `BufferManager::fetch` calls by
/// where the page was found; the `Mig*` variants mirror the paper's five
/// migration paths (§3: NVM→DRAM ①, SSD→DRAM ②, SSD→NVM ③, DRAM→NVM ④,
/// DRAM→SSD / NVM→SSD eviction write-backs); the rest cover the logging,
/// commit, eviction, and end-to-end workload paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// `fetch` served directly from a DRAM-resident page.
    FetchDramHit,
    /// `fetch` served from an NVM-resident page (with or without promotion).
    FetchNvmHit,
    /// `fetch` that had to load the page from SSD.
    FetchSsdMiss,
    /// Migration ①: promotion NVM → DRAM.
    MigNvmToDram,
    /// Migration ②: SSD load admitted straight to DRAM.
    MigSsdToDram,
    /// Migration ③: SSD load admitted to NVM.
    MigSsdToNvm,
    /// Migration ④: DRAM eviction admitted to NVM.
    MigDramToNvm,
    /// Migration ⑤a: DRAM eviction written back to SSD.
    MigDramToSsd,
    /// Migration ⑤b: NVM eviction written back to SSD.
    MigNvmToSsd,
    /// One DRAM eviction decision + execution.
    EvictDram,
    /// One NVM eviction decision + execution.
    EvictNvm,
    /// One WAL record appended to the NVM log buffer.
    WalAppend,
    /// Transaction commit (validation + log + install).
    TxnCommit,
    /// Transaction abort (rollback).
    TxnAbort,
    /// One end-to-end workload operation (YCSB op / TPC-C transaction).
    WorkloadOp,
    /// A fault injected by the chaos plane (`spitfire-chaos`).
    FaultInjected,
    /// One retry of a device operation after a transient I/O error.
    IoRetry,
    /// An optimistic pin attempt that raced a page transition and
    /// restarted into the descriptor-mutex slow path.
    PinRestart,
    /// One database checkpoint (one snapshot generation).
    Checkpoint,
    /// Time a shadow-copy migration commit spent draining optimistic
    /// readers (the `shadow_commit` spin), successful or aborted.
    MigrationStall,
    /// Time a fetch spent blocked on the descriptor condvar waiting for a
    /// copy in a transitional state — the reader-visible stall that
    /// shadow-copy migrations are designed to eliminate.
    ReaderStall,
}

/// Number of [`Op`] variants (size of the histogram registry).
pub const OP_COUNT: usize = 21;

impl Op {
    /// All variants, in index order.
    pub const ALL: [Op; OP_COUNT] = [
        Op::FetchDramHit,
        Op::FetchNvmHit,
        Op::FetchSsdMiss,
        Op::MigNvmToDram,
        Op::MigSsdToDram,
        Op::MigSsdToNvm,
        Op::MigDramToNvm,
        Op::MigDramToSsd,
        Op::MigNvmToSsd,
        Op::EvictDram,
        Op::EvictNvm,
        Op::WalAppend,
        Op::TxnCommit,
        Op::TxnAbort,
        Op::WorkloadOp,
        Op::FaultInjected,
        Op::IoRetry,
        Op::PinRestart,
        Op::Checkpoint,
        Op::MigrationStall,
        Op::ReaderStall,
    ];

    /// Dense index of this variant.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used as the metric label.
    pub const fn name(self) -> &'static str {
        match self {
            Op::FetchDramHit => "fetch_dram_hit",
            Op::FetchNvmHit => "fetch_nvm_hit",
            Op::FetchSsdMiss => "fetch_ssd_miss",
            Op::MigNvmToDram => "migration_nvm_to_dram",
            Op::MigSsdToDram => "migration_ssd_to_dram",
            Op::MigSsdToNvm => "migration_ssd_to_nvm",
            Op::MigDramToNvm => "migration_dram_to_nvm",
            Op::MigDramToSsd => "migration_dram_to_ssd",
            Op::MigNvmToSsd => "migration_nvm_to_ssd",
            Op::EvictDram => "evict_dram",
            Op::EvictNvm => "evict_nvm",
            Op::WalAppend => "wal_append",
            Op::TxnCommit => "txn_commit",
            Op::TxnAbort => "txn_abort",
            Op::WorkloadOp => "workload_op",
            Op::FaultInjected => "fault_injected",
            Op::IoRetry => "io_retry",
            Op::PinRestart => "pin_restart",
            Op::Checkpoint => "checkpoint",
            Op::MigrationStall => "migration_stall",
            Op::ReaderStall => "reader_stall",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_names_unique() {
        let mut names = std::collections::BTreeSet::new();
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert!(names.insert(op.name()));
        }
        assert_eq!(names.len(), OP_COUNT);
    }
}
