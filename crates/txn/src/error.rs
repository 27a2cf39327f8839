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
    /// `create_table` past the tables one snapshot manifest lists at this
    /// page size (the limit it carries).
    TooManyTables(usize),
    /// A checkpoint could not finish its fence or its home flush:
    /// transactions were still in flight when the bounded wait expired, or
    /// the flush had to leave dirty DRAM pages behind (a shadow move in
    /// flight, a busy NVM copy, a fine-grained or mini-page frame) after
    /// its retries. Retry later (same contract as
    /// [`TxnError::TransactionOpen`] on a session: the caller backs off
    /// instead of corrupting state).
    CheckpointContended,
    /// A snapshot block or superblock failed structural validation. For
    /// one generation's block recovery treats this as "generation invalid"
    /// and falls back to the other retained one; an unreadable superblock,
    /// or no retained generation that validates, fails recovery with it.
    Corrupt(&'static str),
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
            TxnError::TooManyTables(n) => write!(f, "a manifest lists at most {n} tables"),
            TxnError::CheckpointContended => write!(
                f,
                "checkpoint contended: transactions in flight or dirty pages \
                 left behind by the home flush; retry"
            ),
            TxnError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for TxnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TxnError::Buffer(e) => Some(e),
            TxnError::Index(e) => Some(e),
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
        let contended = TxnError::CheckpointContended.to_string();
        assert!(contended.contains("in flight") && contended.contains("left behind"));
        assert!(TxnError::Corrupt("block CRC mismatch")
            .to_string()
            .contains("block CRC mismatch"));
    }
}
