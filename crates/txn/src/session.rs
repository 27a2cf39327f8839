//! Connection-scoped transaction handle for front ends.
//!
//! A network server maps one client connection to one [`Session`]: many
//! transactions over the connection's lifetime, at most one active at a
//! time, and a guarantee that a dropped connection never leaks an open
//! transaction — [`Session`]'s `Drop` aborts whatever is still active, so
//! its pending versions are rolled back and its key stripes released.
//!
//! Operations issued outside an explicit [`begin`](Session::begin) /
//! [`commit`](Session::commit) window run in *autocommit* mode: the
//! session wraps the single operation in its own transaction.

use std::sync::Arc;

use crate::db::{Database, Transaction};
use crate::error::TxnError;
use crate::Result;

/// One connection's transactional view of a [`Database`].
///
/// ```
/// # use std::sync::Arc;
/// # use spitfire_core::{BufferManager, BufferManagerConfig};
/// # use spitfire_txn::{Database, DbConfig, Session};
/// # let config = BufferManagerConfig::builder()
/// #     .page_size(4096)
/// #     .dram_capacity(64 * 4096)
/// #     .nvm_capacity(64 * 4096)
/// #     .build()
/// #     .unwrap();
/// # let bm = Arc::new(BufferManager::new(config).unwrap());
/// # let db = Arc::new(Database::create(bm, DbConfig::default()).unwrap());
/// db.create_table(1, 64).unwrap();
/// let mut session = Session::new(Arc::clone(&db));
/// session.put(1, 7, &[1u8; 64]).unwrap();          // autocommit
/// session.begin().unwrap();
/// session.put(1, 8, &[2u8; 64]).unwrap();
/// session.commit().unwrap();
/// assert_eq!(session.get(1, 7).unwrap()[0], 1);
/// ```
pub struct Session {
    db: Arc<Database>,
    txn: Option<Transaction>,
}

impl Session {
    /// A session with no transaction in progress.
    pub fn new(db: Arc<Database>) -> Self {
        Session { db, txn: None }
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Whether an explicit transaction is in progress.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Id of the in-progress transaction, if any.
    pub fn txn_id(&self) -> Option<u64> {
        self.txn.as_ref().map(|t| t.id)
    }

    /// Start an explicit transaction; returns its id. Fails with
    /// [`TxnError::TransactionOpen`] if one is already in progress
    /// (protocols should make nesting an explicit client error rather
    /// than silently discarding work).
    pub fn begin(&mut self) -> Result<u64> {
        if self.txn.is_some() {
            return Err(TxnError::TransactionOpen);
        }
        let txn = self.db.begin();
        let id = txn.id;
        self.txn = Some(txn);
        Ok(id)
    }

    /// Commit the in-progress transaction. The transaction is finished
    /// afterwards even on error (a failed validation aborts it, matching
    /// [`Database::commit`]).
    pub fn commit(&mut self) -> Result<()> {
        let mut txn = self.txn.take().ok_or(TxnError::InactiveTransaction)?;
        self.db.commit(&mut txn)
    }

    /// Abort the in-progress transaction.
    pub fn abort(&mut self) -> Result<()> {
        let mut txn = self.txn.take().ok_or(TxnError::InactiveTransaction)?;
        self.db.abort(&mut txn)
    }

    /// Read the visible version of `key` (inside the open transaction, or
    /// autocommitted).
    pub fn get(&mut self, table_id: u32, key: u64) -> Result<Vec<u8>> {
        match &self.txn {
            Some(txn) => self.db.read(txn, table_id, key),
            None => {
                let mut txn = self.db.begin();
                let out = self.db.read(&txn, table_id, key);
                // Read-only: commit is free and cannot conflict, but an
                // abort keeps the timestamp bookkeeping honest on error.
                if out.is_ok() {
                    self.db.commit(&mut txn)?;
                } else {
                    let _ = self.db.abort(&mut txn);
                }
                out
            }
        }
    }

    /// Upsert `key`: update the existing version chain or insert a fresh
    /// one (inside the open transaction, or autocommitted).
    pub fn put(&mut self, table_id: u32, key: u64, payload: &[u8]) -> Result<()> {
        match &mut self.txn {
            Some(txn) => Self::upsert(&self.db, txn, table_id, key, payload),
            None => {
                let mut txn = self.db.begin();
                let out = Self::upsert(&self.db, &mut txn, table_id, key, payload);
                match out {
                    Ok(()) => self.db.commit(&mut txn),
                    Err(e) => {
                        let _ = self.db.abort(&mut txn);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Scan up to `limit` visible tuples with keys ≥ `start` (inside the
    /// open transaction, or autocommitted).
    pub fn scan(&mut self, table_id: u32, start: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        match &self.txn {
            Some(txn) => self.db.scan(txn, table_id, start, limit),
            None => {
                let mut txn = self.db.begin();
                let out = self.db.scan(&txn, table_id, start, limit);
                if out.is_ok() {
                    self.db.commit(&mut txn)?;
                } else {
                    let _ = self.db.abort(&mut txn);
                }
                out
            }
        }
    }

    fn upsert(
        db: &Database,
        txn: &mut Transaction,
        table_id: u32,
        key: u64,
        payload: &[u8],
    ) -> Result<()> {
        match db.update(txn, table_id, key, payload) {
            Err(TxnError::NotFound) => db.insert(txn, table_id, key, payload),
            other => other,
        }
    }
}

impl Drop for Session {
    /// A dropped session (disconnected client) aborts its open
    /// transaction so pending versions are rolled back rather than left
    /// as permanently-uncommitted markers blocking the key.
    fn drop(&mut self) {
        if let Some(mut txn) = self.txn.take() {
            let _ = self.db.abort(&mut txn);
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("in_txn", &self.in_txn())
            .field("txn_id", &self.txn_id())
            .finish()
    }
}
