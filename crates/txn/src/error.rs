//! Error type for transaction-layer operations.

use spitfire_core::BufferError;
use spitfire_index::IndexError;

/// Errors surfaced by the transaction layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TxnError {
    /// The buffer manager failed.
    Buffer(BufferError),
    /// The index failed.
    Index(IndexError),
    /// MVTO conflict: the transaction must abort and retry (a newer
    /// version exists, a newer reader was recorded, or a concurrent
    /// uncommitted writer holds the key).
    Conflict,
    /// The key was not visible to this transaction.
    NotFound,
    /// A key or table id already exists (insert of a duplicate key,
    /// `create_table` of an existing id).
    Duplicate,
    /// The transaction was already finished (commit/abort called twice).
    InactiveTransaction,
    /// A transaction is already open on this session (nested `BEGIN`).
    TransactionOpen,
    /// A log record exceeds the NVM log buffer capacity.
    LogRecordTooLarge(usize),
    /// A payload does not match the table's tuple size.
    BadTupleSize {
        /// Expected tuple size.
        expected: usize,
        /// Provided payload length.
        got: usize,
    },
    /// Unknown table id.
    UnknownTable(u32),
    /// A checkpoint could not reach a quiescent point: transactions were
    /// still in flight when the bounded wait expired. Retry once they
    /// finish (same contract as [`TxnError::TransactionOpen`] on a
    /// session: the caller backs off instead of corrupting state).
    CheckpointContended,
    /// The snapshot store failed.
    Snapshot(spitfire_snapshot::SnapshotError),
}

impl TxnError {
    /// Whether retrying the failed operation can plausibly succeed:
    /// MVTO conflicts (retry the transaction) and transient buffer/device
    /// faults. Same shape as [`BufferError::is_retryable`] and
    /// [`spitfire_device::DeviceError::is_retryable`], so callers never
    /// need to match variant names to decide.
    pub fn is_retryable(&self) -> bool {
        match self {
            TxnError::Conflict | TxnError::CheckpointContended => true,
            TxnError::Buffer(e) => e.is_retryable(),
            _ => false,
        }
    }
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Buffer(e) => write!(f, "buffer error: {e}"),
            TxnError::Index(e) => write!(f, "index error: {e}"),
            TxnError::Conflict => write!(f, "MVTO conflict; abort and retry"),
            TxnError::NotFound => write!(f, "no visible version for key"),
            TxnError::Duplicate => write!(f, "key or table id already exists"),
            TxnError::InactiveTransaction => write!(f, "transaction already finished"),
            TxnError::TransactionOpen => write!(f, "a transaction is already open"),
            TxnError::LogRecordTooLarge(n) => {
                write!(f, "log record of {n} bytes exceeds the NVM log buffer")
            }
            TxnError::BadTupleSize { expected, got } => {
                write!(
                    f,
                    "payload of {got} bytes does not match tuple size {expected}"
                )
            }
            TxnError::UnknownTable(t) => write!(f, "unknown table {t}"),
            TxnError::CheckpointContended => {
                write!(f, "checkpoint contended: transactions in flight; retry")
            }
            TxnError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl std::error::Error for TxnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TxnError::Buffer(e) => Some(e),
            TxnError::Index(e) => Some(e),
            TxnError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BufferError> for TxnError {
    fn from(e: BufferError) -> Self {
        TxnError::Buffer(e)
    }
}

impl From<spitfire_device::DeviceError> for TxnError {
    fn from(e: spitfire_device::DeviceError) -> Self {
        TxnError::Buffer(BufferError::Device(e))
    }
}

impl From<spitfire_snapshot::SnapshotError> for TxnError {
    fn from(e: spitfire_snapshot::SnapshotError) -> Self {
        TxnError::Snapshot(e)
    }
}

impl From<IndexError> for TxnError {
    fn from(e: IndexError) -> Self {
        TxnError::Index(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(TxnError::Conflict.to_string().contains("abort"));
        assert!(TxnError::BadTupleSize {
            expected: 8,
            got: 9
        }
        .to_string()
        .contains('9'));
        let e: TxnError = BufferError::UnknownPage(spitfire_core::PageId(1)).into();
        assert!(matches!(e, TxnError::Buffer(_)));
    }
}
