//! The concurrent B+Tree (optimistic lock coupling).
//!
//! Reads descend without taking locks: each node has a version latch; the
//! reader samples the version, reads the node through its page guard, and
//! re-validates. Writers bump the version, forcing concurrent readers to
//! restart (Leis et al., the paper's \[24\]).
//!
//! Inserts use the optimistic path while the target leaf has room. When a
//! split is needed they fall back to a pessimistic top-down descent that
//! holds at most two write latches (parent + child) and splits every full
//! node on the way down, so the leaf insert itself never propagates
//! upward. Root splits additionally hold the tree's root pointer lock;
//! since splits are amortized-rare this serialization is invisible in the
//! workloads.

use std::sync::Arc;

use parking_lot::RwLock;
use spitfire_core::{AccessIntent, BufferError, BufferManager, PageId};
use spitfire_sync::{ConcurrentMap, VersionLatch};

use crate::node::{capacity_for, Found, Header, Node, NodeTag, NO_SIBLING};
use crate::Result;

/// Maximum optimistic restarts before reporting a corrupted tree.
const MAX_RESTARTS: usize = 1_000_000;

/// Restart backoff: on hosts with fewer cores than workers, a reader can
/// burn its entire scheduler quantum restarting against a write latch whose
/// holder is descheduled — yield, then sleep, so the writer (or whatever
/// else starves the core) can finish.
#[inline]
fn backoff(attempt: usize) {
    if attempt < 4 {
        std::hint::spin_loop();
    } else if attempt < 512 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

/// Errors surfaced by the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The underlying buffer manager failed.
    Buffer(BufferError),
    /// An operation restarted too many times (corrupted structure or a
    /// livelock — never expected in healthy trees).
    RestartLimit,
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Buffer(e) => write!(f, "buffer error: {e}"),
            IndexError::RestartLimit => write!(f, "optimistic restart limit exceeded"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Buffer(e) => Some(e),
            IndexError::RestartLimit => None,
        }
    }
}

impl From<BufferError> for IndexError {
    fn from(e: BufferError) -> Self {
        IndexError::Buffer(e)
    }
}

/// Outcome of one optimistic attempt.
enum Attempt<T> {
    Done(T),
    Restart,
}

/// A concurrent B+Tree mapping `u64` keys to `u64` values, stored in
/// buffer-managed pages.
pub struct BTree {
    bm: Arc<BufferManager>,
    root: RwLock<PageId>,
    latches: ConcurrentMap<u64, Arc<VersionLatch>>,
}

impl BTree {
    /// Create an empty tree (allocates the root leaf).
    pub fn new(bm: Arc<BufferManager>) -> Result<Self> {
        let root = bm.allocate_page()?;
        {
            let guard = bm.fetch(root, AccessIntent::Write)?;
            Node::new(guard).init(NodeTag::Leaf, NO_SIBLING, &[])?;
        }
        Ok(BTree {
            bm,
            root: RwLock::new(root),
            latches: ConcurrentMap::new(),
        })
    }

    /// Re-open a tree whose root page is already known (after recovery).
    pub fn open(bm: Arc<BufferManager>, root: PageId) -> Self {
        BTree {
            bm,
            root: RwLock::new(root),
            latches: ConcurrentMap::new(),
        }
    }

    /// Build a tree in one pass from sorted, strictly-ascending
    /// `(key, value)` entries — snapshot recovery's index rebuild path.
    /// Leaves are packed directly and inner levels assembled bottom-up:
    /// no per-key descent, no latching (the tree is private until
    /// returned). Panics in debug builds if `entries` is not sorted with
    /// unique keys.
    pub fn bulk_load(bm: Arc<BufferManager>, entries: &[(u64, u64)]) -> Result<Self> {
        if entries.is_empty() {
            return Self::new(bm);
        }
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires sorted unique keys"
        );
        let capacity = capacity_for(bm.config().page_size);
        // Pack to ~7/8 so early post-recovery inserts do not split every
        // node they touch.
        let fill = (capacity - capacity / 8).max(1);

        // Leaves: allocate ids up front so each can name its right sibling.
        let n_leaves = entries.len().div_ceil(fill);
        let leaf_pids = (0..n_leaves)
            .map(|_| bm.allocate_page())
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let mut level: Vec<(u64, PageId)> = Vec::with_capacity(n_leaves);
        for (i, chunk) in entries.chunks(fill).enumerate() {
            let pid = leaf_pids[i];
            let sibling = leaf_pids.get(i + 1).map_or(NO_SIBLING, |p| p.0);
            let guard = bm.fetch(pid, AccessIntent::Write)?;
            Node::new(guard).init(NodeTag::Leaf, sibling, chunk)?;
            level.push((chunk[0].0, pid));
        }
        // Inner levels bottom-up until one node remains. Each inner node
        // takes `fill + 1` children: the leftmost via `aux`, the rest as
        // (first-key, child) separator entries — matching `child_for`.
        while level.len() > 1 {
            let mut next: Vec<(u64, PageId)> = Vec::with_capacity(level.len().div_ceil(fill + 1));
            for group in level.chunks(fill + 1) {
                let pid = bm.allocate_page()?;
                let guard = bm.fetch(pid, AccessIntent::Write)?;
                let seps: Vec<(u64, u64)> = group[1..].iter().map(|&(k, p)| (k, p.0)).collect();
                Node::new(guard).init(NodeTag::Inner, group[0].1 .0, &seps)?;
                next.push((group[0].0, pid));
            }
            level = next;
        }
        Ok(BTree {
            bm,
            root: RwLock::new(level[0].1),
            latches: ConcurrentMap::new(),
        })
    }

    /// The current root page id (persist this to reopen the tree).
    pub fn root_page(&self) -> PageId {
        *self.root.read()
    }

    /// The buffer manager backing this tree.
    pub fn buffer_manager(&self) -> &BufferManager {
        &self.bm
    }

    fn latch(&self, pid: PageId) -> Arc<VersionLatch> {
        self.latches
            .get_or_insert_with(pid.0, || Arc::new(VersionLatch::new()))
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Result<Option<u64>> {
        for attempt in 0..MAX_RESTARTS {
            match self.try_get(key)? {
                Attempt::Done(v) => return Ok(v),
                Attempt::Restart => backoff(attempt),
            }
        }
        Err(IndexError::RestartLimit)
    }

    fn try_get(&self, key: u64) -> Result<Attempt<Option<u64>>> {
        let mut pid = *self.root.read();
        let mut latch = self.latch(pid);
        let Ok(mut version) = latch.read_lock() else {
            return Ok(Attempt::Restart);
        };
        if *self.root.read() != pid {
            return Ok(Attempt::Restart);
        }
        loop {
            let guard = match self.bm.fetch(pid, AccessIntent::Read) {
                Ok(g) => g,
                // A torn child pointer can reference an unallocated page.
                Err(BufferError::UnknownPage(_)) => return Ok(Attempt::Restart),
                Err(e) => return Err(e.into()),
            };
            let node = Node::new(guard);
            let Some(h) = node.header()? else {
                return Ok(Attempt::Restart);
            };
            match h.tag {
                NodeTag::Inner => {
                    let child = node.child_for(key, &h)?;
                    let child_latch = self.latch(child);
                    let Ok(child_version) = child_latch.read_lock() else {
                        return Ok(Attempt::Restart);
                    };
                    if latch.read_unlock(version).is_err() {
                        return Ok(Attempt::Restart);
                    }
                    pid = child;
                    latch = child_latch;
                    version = child_version;
                }
                NodeTag::Leaf => {
                    let result = match node.search(key, &h)? {
                        Found::Hit { value, .. } => Some(value),
                        Found::Miss { .. } => None,
                    };
                    if latch.read_unlock(version).is_err() {
                        return Ok(Attempt::Restart);
                    }
                    return Ok(Attempt::Done(result));
                }
            }
        }
    }

    /// Insert or update; returns the previous value for `key`, if any.
    pub fn insert(&self, key: u64, value: u64) -> Result<Option<u64>> {
        for attempt in 0..MAX_RESTARTS {
            match self.try_insert_optimistic(key, value)? {
                Attempt::Done(Some(outcome)) => return Ok(outcome),
                // Leaf full: go pessimistic (splits on the way down).
                Attempt::Done(None) => match self.insert_pessimistic(key, value)? {
                    Attempt::Done(outcome) => return Ok(outcome),
                    Attempt::Restart => backoff(attempt),
                },
                Attempt::Restart => backoff(attempt),
            }
        }
        Err(IndexError::RestartLimit)
    }

    /// Optimistic insert. `Done(Some(old))` on success; `Done(None)` when
    /// the leaf is full (caller switches to the pessimistic path).
    #[allow(clippy::type_complexity)]
    fn try_insert_optimistic(&self, key: u64, value: u64) -> Result<Attempt<Option<Option<u64>>>> {
        let mut pid = *self.root.read();
        let mut latch = self.latch(pid);
        let Ok(mut version) = latch.read_lock() else {
            return Ok(Attempt::Restart);
        };
        if *self.root.read() != pid {
            return Ok(Attempt::Restart);
        }
        loop {
            let guard = match self.bm.fetch(pid, AccessIntent::Write) {
                Ok(g) => g,
                Err(BufferError::UnknownPage(_)) => return Ok(Attempt::Restart),
                Err(e) => return Err(e.into()),
            };
            let node = Node::new(guard);
            let Some(h) = node.header()? else {
                return Ok(Attempt::Restart);
            };
            match h.tag {
                NodeTag::Inner => {
                    let child = node.child_for(key, &h)?;
                    let child_latch = self.latch(child);
                    let Ok(child_version) = child_latch.read_lock() else {
                        return Ok(Attempt::Restart);
                    };
                    if latch.read_unlock(version).is_err() {
                        return Ok(Attempt::Restart);
                    }
                    pid = child;
                    latch = child_latch;
                    version = child_version;
                }
                NodeTag::Leaf => {
                    if latch.upgrade(version).is_err() {
                        return Ok(Attempt::Restart);
                    }
                    // Write latch held, and the upgrade proves no writer
                    // intervened since `h` was read: it is the node's
                    // header. All fallible work happens inside the closure
                    // so the latch is always released below.
                    let result = (|| -> Result<Option<Option<u64>>> {
                        match node.search(key, &h)? {
                            Found::Hit { pos, value: old } => {
                                node.set_entry(pos, key, value)?;
                                Ok(Some(Some(old)))
                            }
                            Found::Miss { pos, .. } => {
                                if h.count >= node.capacity() {
                                    return Ok(None); // full: pessimistic path
                                }
                                node.insert_at(pos, key, value, &h)?;
                                Ok(Some(None))
                            }
                        }
                    })();
                    latch.write_unlock();
                    return Ok(Attempt::Done(result?));
                }
            }
        }
    }

    /// Pessimistic top-down insert: hold the root pointer lock, write-latch
    /// parent + child, split every full node encountered. Write latches are
    /// held by RAII guards so transient buffer errors (`?`) cannot leak a
    /// locked latch and livelock the subtree.
    fn insert_pessimistic(&self, key: u64, value: u64) -> Result<Attempt<Option<u64>>> {
        /// RAII write latch: unlocks (bumping the version) on drop.
        struct Held(Option<Arc<VersionLatch>>);
        impl Held {
            fn acquire(latch: Arc<VersionLatch>) -> Option<Held> {
                latch.write_lock().ok()?;
                Some(Held(Some(latch)))
            }
        }
        impl Drop for Held {
            fn drop(&mut self) {
                if let Some(latch) = self.0.take() {
                    latch.write_unlock();
                }
            }
        }

        let mut root_guard = self.root.write();
        let mut pid = *root_guard;
        let Some(mut held) = Held::acquire(self.latch(pid)) else {
            return Ok(Attempt::Restart);
        };

        // Split the root first if it is full (grows the tree by one level).
        {
            let guard = self.bm.fetch(pid, AccessIntent::Write)?;
            let node = Node::new(guard);
            let h = node.header()?.expect("write-latched node has a valid tag");
            if h.count >= node.capacity() {
                let new_root_pid = self.bm.allocate_page()?;
                {
                    let nr_guard = self.bm.fetch(new_root_pid, AccessIntent::Write)?;
                    let (separator, right) = self.split(&node, &h)?;
                    Node::new(nr_guard).init(NodeTag::Inner, pid.0, &[(separator, right.0)])?;
                }
                let Some(new_held) = Held::acquire(self.latch(new_root_pid)) else {
                    return Ok(Attempt::Restart);
                };
                held = new_held; // old root unlocks via drop
                *root_guard = new_root_pid;
                pid = new_root_pid;
            }
        }

        // Descend holding parent write latch; child is split before entry.
        loop {
            let guard = self.bm.fetch(pid, AccessIntent::Write)?;
            let node = Node::new(guard);
            let h = node.header()?.expect("write-latched node has a valid tag");
            let found = node.search(key, &h)?;
            match h.tag {
                NodeTag::Inner => {
                    let child_pid = found.child(&h);
                    let Some(child_held) = Held::acquire(self.latch(child_pid)) else {
                        return Ok(Attempt::Restart);
                    };
                    let child_guard = self.bm.fetch(child_pid, AccessIntent::Write)?;
                    let child = Node::new(child_guard);
                    let ch = child.header()?.expect("write-latched node has a valid tag");
                    if ch.count >= child.capacity() {
                        // Parent is guaranteed non-full (split on the way
                        // down), so the separator insert cannot overflow.
                        debug_assert!(h.count < node.capacity(), "parent split preemptively");
                        // The separator goes right after the key the child
                        // hangs off.
                        let child_pos = match found {
                            Found::Hit { pos, .. } => pos + 1,
                            Found::Miss { pos, .. } => pos,
                        };
                        let (separator, right) = self.split(&child, &ch)?;
                        node.insert_at(child_pos, separator, right.0, &h)?;
                        // The split may have moved our key's range to the
                        // new right node; re-route.
                        if key >= separator {
                            drop(child_held);
                            let Some(new_held) = Held::acquire(self.latch(right)) else {
                                return Ok(Attempt::Restart);
                            };
                            held = new_held; // parent unlocks via drop
                            pid = right;
                            continue;
                        }
                    }
                    held = child_held; // parent unlocks via drop
                    pid = child_pid;
                }
                NodeTag::Leaf => {
                    debug_assert!(h.count < node.capacity(), "leaf split preemptively");
                    let outcome = match found {
                        Found::Hit { pos, value: old } => {
                            node.set_entry(pos, key, value)?;
                            Some(old)
                        }
                        Found::Miss { pos, .. } => {
                            node.insert_at(pos, key, value, &h)?;
                            None
                        }
                    };
                    drop(held);
                    return Ok(Attempt::Done(outcome));
                }
            }
        }
    }

    /// Split the write-latched, full `node` (header `h`): its upper half
    /// moves to a new right node. Returns the separator and the new node
    /// for the caller to publish in the (write-latched) parent.
    fn split(&self, node: &Node<'_>, h: &Header) -> Result<(u64, PageId)> {
        let mid = h.count / 2;
        let new_pid = self.bm.allocate_page()?;
        let new_node = Node::new(self.bm.fetch(new_pid, AccessIntent::Write)?);
        let moved = node.entries(mid, h.count)?;
        let (separator, right_of_separator) = moved[0];
        match h.tag {
            // The right half moves, first key copied up as the separator;
            // sibling chain: node -> new -> old next.
            NodeTag::Leaf => {
                new_node.init(NodeTag::Leaf, h.aux, &moved)?;
                node.truncate(mid, new_pid.0, h)?;
            }
            // The middle key is promoted; its right child becomes the new
            // node's leftmost child.
            NodeTag::Inner => {
                new_node.init(NodeTag::Inner, right_of_separator, &moved[1..])?;
                node.truncate(mid, h.aux, h)?;
            }
        }
        Ok((separator, new_pid))
    }

    /// Remove `key`; returns its value if present. Leaves are not
    /// rebalanced (lazy deletion, as in LeanStore): under-full leaves are
    /// absorbed by future inserts.
    pub fn remove(&self, key: u64) -> Result<Option<u64>> {
        for attempt in 0..MAX_RESTARTS {
            match self.try_remove(key)? {
                Attempt::Done(v) => return Ok(v),
                Attempt::Restart => backoff(attempt),
            }
        }
        Err(IndexError::RestartLimit)
    }

    fn try_remove(&self, key: u64) -> Result<Attempt<Option<u64>>> {
        let mut pid = *self.root.read();
        let mut latch = self.latch(pid);
        let Ok(mut version) = latch.read_lock() else {
            return Ok(Attempt::Restart);
        };
        if *self.root.read() != pid {
            return Ok(Attempt::Restart);
        }
        loop {
            let guard = match self.bm.fetch(pid, AccessIntent::Write) {
                Ok(g) => g,
                Err(BufferError::UnknownPage(_)) => return Ok(Attempt::Restart),
                Err(e) => return Err(e.into()),
            };
            let node = Node::new(guard);
            let Some(h) = node.header()? else {
                return Ok(Attempt::Restart);
            };
            match h.tag {
                NodeTag::Inner => {
                    let child = node.child_for(key, &h)?;
                    let child_latch = self.latch(child);
                    let Ok(child_version) = child_latch.read_lock() else {
                        return Ok(Attempt::Restart);
                    };
                    if latch.read_unlock(version).is_err() {
                        return Ok(Attempt::Restart);
                    }
                    pid = child;
                    latch = child_latch;
                    version = child_version;
                }
                NodeTag::Leaf => {
                    if latch.upgrade(version).is_err() {
                        return Ok(Attempt::Restart);
                    }
                    let outcome = (|| -> Result<Option<u64>> {
                        match node.search(key, &h)? {
                            Found::Hit { pos, value: old } => {
                                node.remove_at(pos, &h)?;
                                Ok(Some(old))
                            }
                            Found::Miss { .. } => Ok(None),
                        }
                    })();
                    latch.write_unlock();
                    return Ok(Attempt::Done(outcome?));
                }
            }
        }
    }

    /// Collect up to `limit` entries with keys in `[start, ∞)`, in key
    /// order (used by TPC-C order scans).
    pub fn scan_from(&self, start: u64, limit: usize) -> Result<Vec<(u64, u64)>> {
        'restart: for attempt in 0..MAX_RESTARTS {
            if attempt > 0 {
                backoff(attempt);
            }
            let mut out = Vec::with_capacity(limit.min(1024));
            // Descend to the leaf containing `start`.
            let mut pid = *self.root.read();
            let mut latch = self.latch(pid);
            let Ok(mut version) = latch.read_lock() else {
                continue 'restart;
            };
            if *self.root.read() != pid {
                continue 'restart;
            }
            loop {
                let guard = match self.bm.fetch(pid, AccessIntent::Read) {
                    Ok(g) => g,
                    Err(BufferError::UnknownPage(_)) => continue 'restart,
                    Err(e) => return Err(e.into()),
                };
                let node = Node::new(guard);
                let Some(mut h) = node.header()? else {
                    continue 'restart;
                };
                match h.tag {
                    NodeTag::Inner => {
                        let child = node.child_for(start, &h)?;
                        let child_latch = self.latch(child);
                        let Ok(child_version) = child_latch.read_lock() else {
                            continue 'restart;
                        };
                        if latch.read_unlock(version).is_err() {
                            continue 'restart;
                        }
                        pid = child;
                        latch = child_latch;
                        version = child_version;
                    }
                    NodeTag::Leaf => {
                        // Walk the sibling chain collecting entries. Only
                        // the first leaf is searched: every later one is
                        // taken from its first entry.
                        let mut leaf = node;
                        let mut from = leaf.search(start, &h)?.pos();
                        loop {
                            let entries = leaf.entries(from, h.count)?;
                            if latch.read_unlock(version).is_err() {
                                continue 'restart;
                            }
                            for e in entries {
                                if out.len() >= limit {
                                    return Ok(out);
                                }
                                out.push(e);
                            }
                            if h.aux == NO_SIBLING || out.len() >= limit {
                                return Ok(out);
                            }
                            let next = PageId(h.aux);
                            let next_latch = self.latch(next);
                            let Ok(next_version) = next_latch.read_lock() else {
                                continue 'restart;
                            };
                            let guard = match self.bm.fetch(next, AccessIntent::Read) {
                                Ok(g) => g,
                                Err(BufferError::UnknownPage(_)) => continue 'restart,
                                Err(e) => return Err(e.into()),
                            };
                            latch = next_latch;
                            version = next_version;
                            leaf = Node::new(guard);
                            match leaf.header()? {
                                Some(next_h) if next_h.tag == NodeTag::Leaf => h = next_h,
                                _ => continue 'restart,
                            }
                            from = 0;
                        }
                    }
                }
            }
        }
        Err(IndexError::RestartLimit)
    }

    /// Height of the tree (levels from root to leaf), for diagnostics.
    pub fn height(&self) -> Result<usize> {
        let mut pid = *self.root.read();
        let mut h = 1;
        loop {
            let guard = self.bm.fetch(pid, AccessIntent::Read)?;
            match Node::new(guard).header()? {
                Some(header) if header.tag == NodeTag::Inner => {
                    pid = PageId(header.aux);
                    h += 1;
                }
                _ => return Ok(h),
            }
        }
    }
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("root", &self.root_page())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use spitfire_core::BufferManagerConfig;
    use spitfire_device::TimeScale;
    use std::collections::BTreeMap;

    impl BTree {
        /// Walk every node: stored hints must be the keys at their sample
        /// positions. Returns (leaves, inner nodes) visited.
        fn check_hints(&self) -> (usize, usize) {
            let (mut leaves, mut inners) = (0, 0);
            let mut todo = vec![self.root_page()];
            while let Some(pid) = todo.pop() {
                let node = Node::new(self.bm.fetch(pid, AccessIntent::Read).unwrap());
                let h = node.header().unwrap().expect("valid tag");
                node.check_hints(&h);
                match h.tag {
                    NodeTag::Leaf => leaves += 1,
                    NodeTag::Inner => {
                        inners += 1;
                        todo.push(PageId(h.aux));
                        let children = node.entries(0, h.count).unwrap();
                        todo.extend(children.iter().map(|&(_, child)| PageId(child)));
                    }
                }
            }
            (leaves, inners)
        }
    }

    /// After every step of a random insert / overwrite / remove sequence
    /// the hints of every node are in step with its entries — through leaf
    /// splits, a leaf root split, and (on the two small page sizes, where
    /// a few thousand keys are enough) inner and inner-root splits.
    #[test]
    fn hints_track_entries_through_every_mutation() {
        for (page_size, steps, min_inners) in
            [(512, 2_500, 3), (1024, 9_000, 3), (16 * 1024, 3_000, 1)]
        {
            let config = BufferManagerConfig::builder()
                .page_size(page_size)
                .dram_capacity(512 * 1024)
                .nvm_capacity(0)
                .time_scale(TimeScale::ZERO)
                .build()
                .unwrap();
            let tree = BTree::new(Arc::new(BufferManager::new(config).unwrap())).unwrap();
            let mut model = BTreeMap::new();
            let mut rng = StdRng::seed_from_u64(page_size as u64);
            let mut shape = (0, 0);
            for step in 0..steps {
                // Mostly inserts, so the tree keeps growing; keys from a
                // range twice the step count, so a fifth or so of the
                // inserts overwrite.
                let key = rng.gen_range(0..2 * steps);
                if rng.gen_bool(0.8) {
                    assert_eq!(tree.insert(key, step).unwrap(), model.insert(key, step));
                } else {
                    // Remove a key that exists, when there is one at or
                    // above the draw.
                    let key = model.range(key..).next().map_or(key, |(&k, _)| k);
                    assert_eq!(tree.remove(key).unwrap(), model.remove(&key));
                }
                shape = tree.check_hints();
            }
            assert!(
                shape.1 >= min_inners,
                "{page_size} B pages ended with {shape:?} (leaves, inner nodes)"
            );
            let all = tree.scan_from(0, usize::MAX).unwrap();
            assert!(all.into_iter().eq(model));
        }
    }
}
