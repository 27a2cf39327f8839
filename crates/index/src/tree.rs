//! The concurrent B+Tree (optimistic lock coupling).
//!
//! Reads descend without taking locks: each node has a version latch; the
//! reader samples the version, reads the node through its page guard, and
//! re-validates. Writers bump the version, forcing concurrent readers to
//! restart (Leis et al., the paper's \[24\]).
//!
//! A node's latch is its page's latch: the buffer manager keeps one
//! [`VersionLatch`] in every page's descriptor and hands it out through
//! the pin ([`spitfire_core::PageGuard::latch`]), so whoever fetched a
//! node already holds the way to its latch — the tree keeps no state per
//! page, and the latch stays with the node whichever tier it sits in.
//!
//! There is one way down ([`BTree::descend`]) and one restart loop
//! ([`BTree::retry`]); `get`, `remove`, the optimistic insert and a scan's
//! first leaf are built on them.
//!
//! Inserts use the optimistic path while the target leaf has room. When a
//! split is needed they fall back to a pessimistic top-down descent that
//! holds at most two write latches (parent + child) and splits every full
//! node on the way down, so the leaf insert itself never propagates
//! upward. Root splits additionally hold the tree's root pointer lock;
//! since splits are amortized-rare this serialization is invisible in the
//! workloads.

use std::ops::Deref;
use std::sync::Arc;

use parking_lot::RwLock;
use spitfire_core::{AccessIntent, BufferError, BufferManager, PageId};
use spitfire_sync::atomic::{AtomicU64, Ordering};
use spitfire_sync::VersionLatch;

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

/// Validate an optimistic read of `node` begun at `version`.
fn validate(node: &Node<'_>, version: u64) -> bool {
    node.latch(|l| l.read_unlock(version).is_ok()) == Some(true)
}

/// A write-latched node: unlocks (bumping the version), then unpins, on
/// drop — so a transient buffer error (`?`) cannot leak a locked latch and
/// livelock the subtree.
struct Held<'a>(Node<'a>);

impl<'a> Deref for Held<'a> {
    type Target = Node<'a>;

    fn deref(&self) -> &Node<'a> {
        &self.0
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.latch(VersionLatch::write_unlock);
    }
}

/// Where a lookup found a key's entry ([`BTree::get_at`]): the leaf, the
/// latch version the leaf was read under, and the entry's position in it.
/// [`BTree::set_at`] writes through it while that version holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryAt {
    leaf: PageId,
    version: u64,
    pos: usize,
}

/// A concurrent B+Tree mapping `u64` keys to `u64` values, stored in
/// buffer-managed pages.
pub struct BTree {
    bm: Arc<BufferManager>,
    root: RwLock<PageId>,
    /// Optimistic attempts that had to start over.
    restarts: AtomicU64,
}

impl BTree {
    fn with_root(bm: Arc<BufferManager>, root: PageId) -> Self {
        BTree {
            bm,
            root: RwLock::new(root),
            restarts: AtomicU64::new(0),
        }
    }

    /// Create an empty tree (allocates the root leaf).
    pub fn new(bm: Arc<BufferManager>) -> Result<Self> {
        let root = bm.allocate_page()?;
        {
            let guard = bm.fetch(root, AccessIntent::Write)?;
            Node::new(guard).init(NodeTag::Leaf, NO_SIBLING, &[])?;
        }
        Ok(Self::with_root(bm, root))
    }

    /// Re-open a tree whose root page is already known (after recovery).
    pub fn open(bm: Arc<BufferManager>, root: PageId) -> Self {
        Self::with_root(bm, root)
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
        let root = level[0].1;
        Ok(Self::with_root(bm, root))
    }

    /// The current root page id (persist this to reopen the tree).
    pub fn root_page(&self) -> PageId {
        *self.root.read()
    }

    /// The buffer manager backing this tree.
    pub fn buffer_manager(&self) -> &BufferManager {
        &self.bm
    }

    /// Optimistic attempts that restarted since the tree was built — every
    /// operation's, summed. A healthy tree restarts only under write
    /// contention.
    pub fn restarts(&self) -> u64 {
        // relaxed: a statistic; publishes nothing.
        self.restarts.load(Ordering::Relaxed)
    }

    /// Run `attempt` until it completes, backing off after each restart;
    /// [`IndexError::RestartLimit`] once `limit` attempts have restarted.
    fn retry<T>(&self, limit: usize, mut attempt: impl FnMut() -> Result<Attempt<T>>) -> Result<T> {
        for n in 0..limit {
            match attempt()? {
                Attempt::Done(v) => return Ok(v),
                Attempt::Restart => {
                    // relaxed: a statistic; publishes nothing.
                    self.restarts.fetch_add(1, Ordering::Relaxed);
                    backoff(n);
                }
            }
        }
        Err(IndexError::RestartLimit)
    }

    /// Pin `pid` and begin an optimistic read of it: the node and the
    /// latch version everything read from it must be validated against.
    /// `None` means restart — the node is write-latched, or `pid` is a
    /// torn child pointer naming a page that was never allocated.
    fn pin_versioned(&self, pid: PageId, intent: AccessIntent) -> Result<Option<(Node<'_>, u64)>> {
        let node = match self.bm.fetch(pid, intent) {
            Ok(guard) => Node::new(guard),
            Err(BufferError::UnknownPage(_)) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let version = node.latch(|l| l.read_lock().ok()).flatten();
        Ok(version.map(|version| (node, version)))
    }

    /// The one optimistic descent: from the root to the leaf covering
    /// `key`, fetching every node with `intent`. Returns the pinned leaf,
    /// its header, and the version that header was read under; the caller
    /// validates (a read) or upgrades (a write) against it.
    ///
    /// Lock coupling, one level at a time: pin the child, take the child's
    /// version, *then* validate the parent — so the child pointer came out
    /// of a parent nobody wrote, and the child's version predates anything
    /// read from it.
    fn descend(&self, key: u64, intent: AccessIntent) -> Result<Attempt<(Node<'_>, Header, u64)>> {
        let root = *self.root.read();
        let Some((mut node, mut version)) = self.pin_versioned(root, intent)? else {
            return Ok(Attempt::Restart);
        };
        if *self.root.read() != root {
            return Ok(Attempt::Restart);
        }
        loop {
            let Some(h) = node.header()? else {
                return Ok(Attempt::Restart);
            };
            if h.tag == NodeTag::Leaf {
                return Ok(Attempt::Done((node, h, version)));
            }
            let child = node.child_for(key, &h)?;
            let Some((child, child_version)) = self.pin_versioned(child, intent)? else {
                return Ok(Attempt::Restart);
            };
            if !validate(&node, version) {
                return Ok(Attempt::Restart);
            }
            node = child;
            version = child_version;
        }
    }

    /// Descend to `key`'s leaf with write intent and upgrade its latch.
    /// The upgrade proves no writer intervened since the header was read:
    /// it is the latched node's header.
    fn descend_for_write(&self, key: u64) -> Result<Attempt<(Held<'_>, Header)>> {
        let Attempt::Done((leaf, h, version)) = self.descend(key, AccessIntent::Write)? else {
            return Ok(Attempt::Restart);
        };
        if leaf.latch(|l| l.upgrade(version).is_ok()) != Some(true) {
            return Ok(Attempt::Restart);
        }
        Ok(Attempt::Done((Held(leaf), h)))
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Result<Option<u64>> {
        Ok(self.get_at(key)?.map(|(value, _)| value))
    }

    /// Point lookup that also says where the entry sits, so a caller that
    /// reads a key and then overwrites it ([`set_at`](Self::set_at))
    /// descends once.
    pub fn get_at(&self, key: u64) -> Result<Option<(u64, EntryAt)>> {
        self.retry(MAX_RESTARTS, || {
            let Attempt::Done((leaf, h, version)) = self.descend(key, AccessIntent::Read)? else {
                return Ok(Attempt::Restart);
            };
            let found = match leaf.search(key, &h)? {
                Found::Hit { pos, value } => {
                    let leaf = leaf.page_id();
                    Some((value, EntryAt { leaf, version, pos }))
                }
                Found::Miss { .. } => None,
            };
            Ok(if validate(&leaf, version) {
                Attempt::Done(found)
            } else {
                Attempt::Restart
            })
        })
    }

    /// Overwrite `key`'s value where [`get_at`](Self::get_at) found it:
    /// one write-intent fetch of the leaf, and a latch upgrade at the
    /// version the lookup read it under, which proves the entry is still
    /// at `at`. If anything wrote the leaf since, the version has moved
    /// and this is an [`insert`](Self::insert). (A leaf's latch lives in
    /// its page's descriptor, which no tier move replaces, so the version
    /// never repeats.)
    pub fn set_at(&self, at: EntryAt, key: u64, value: u64) -> Result<()> {
        let leaf = Node::new(self.bm.fetch(at.leaf, AccessIntent::Write)?);
        if leaf.latch(|l| l.upgrade(at.version).is_ok()) == Some(true) {
            return Held(leaf).set_entry(at.pos, key, value);
        }
        drop(leaf);
        self.insert(key, value).map(drop)
    }

    /// Insert or update; returns the previous value for `key`, if any.
    pub fn insert(&self, key: u64, value: u64) -> Result<Option<u64>> {
        self.retry(MAX_RESTARTS, || {
            let Attempt::Done((leaf, h)) = self.descend_for_write(key)? else {
                return Ok(Attempt::Restart);
            };
            match leaf.search(key, &h)? {
                Found::Hit { pos, value: old } => {
                    leaf.set_entry(pos, key, value)?;
                    Ok(Attempt::Done(Some(old)))
                }
                Found::Miss { pos, .. } if h.count < leaf.capacity() => {
                    leaf.insert_at(pos, key, value, &h)?;
                    Ok(Attempt::Done(None))
                }
                // Leaf full: go pessimistic (splits on the way down).
                Found::Miss { .. } => {
                    drop(leaf);
                    self.insert_pessimistic(key, value).map(Attempt::Done)
                }
            }
        })
    }

    /// Write-latch a pinned node and read its header.
    fn write_latch<'a>(node: Node<'a>) -> Result<(Held<'a>, Header)> {
        node.latch(VersionLatch::write_lock);
        let node = Held(node);
        let h = node.header()?.expect("write-latched node has a valid tag");
        Ok((node, h))
    }

    /// Pessimistic top-down insert: hold the root pointer lock, write-latch
    /// parent + child, split every full node encountered. Each level is
    /// fetched once — the latched child becomes the next parent.
    fn insert_pessimistic(&self, key: u64, value: u64) -> Result<Option<u64>> {
        let mut root = self.root.write();
        let (mut parent, mut h) =
            Self::write_latch(Node::new(self.bm.fetch(*root, AccessIntent::Write)?))?;

        // Split the root first if it is full (grows the tree by one level).
        // Nobody reaches the new root before the pointer names it.
        if h.count >= parent.capacity() {
            let new_root = self.bm.allocate_page()?;
            let above = Node::new(self.bm.fetch(new_root, AccessIntent::Write)?);
            let (separator, right) = self.split(&parent, &h)?;
            above.init(NodeTag::Inner, root.0, &[(separator, right.page_id().0)])?;
            drop(right);
            (parent, h) = Self::write_latch(above)?; // old root unlocks via drop
            *root = new_root;
        }

        // Descend holding the parent's write latch; a full child is split
        // before it is entered.
        loop {
            let found = parent.search(key, &h)?;
            if h.tag == NodeTag::Leaf {
                debug_assert!(h.count < parent.capacity(), "leaf split preemptively");
                return Ok(match found {
                    Found::Hit { pos, value: old } => {
                        parent.set_entry(pos, key, value)?;
                        Some(old)
                    }
                    Found::Miss { pos, .. } => {
                        parent.insert_at(pos, key, value, &h)?;
                        None
                    }
                });
            }
            let child = self.bm.fetch(found.child(&h), AccessIntent::Write)?;
            let (mut child, mut ch) = Self::write_latch(Node::new(child))?;
            if ch.count >= child.capacity() {
                // Parent is guaranteed non-full (split on the way down), so
                // the separator insert cannot overflow.
                debug_assert!(h.count < parent.capacity(), "parent split preemptively");
                // The separator goes right after the key the child hangs
                // off.
                let child_pos = match found {
                    Found::Hit { pos, .. } => pos + 1,
                    Found::Miss { pos, .. } => pos,
                };
                let (separator, right) = self.split(&child, &ch)?;
                parent.insert_at(child_pos, separator, right.page_id().0, &h)?;
                // The split may have moved our key's range to the new right
                // node; re-route. Either way the header changed.
                if key >= separator {
                    drop(child);
                    (child, ch) = Self::write_latch(right)?;
                } else {
                    drop(right);
                    ch = child.header()?.expect("write-latched node has a valid tag");
                }
            }
            (parent, h) = (child, ch); // parent unlocks via drop
        }
    }

    /// Split the write-latched, full `node` (header `h`): its upper half
    /// moves to a new right node. Returns the separator and the new node,
    /// still pinned, for the caller to publish in the (write-latched)
    /// parent.
    fn split(&self, node: &Node<'_>, h: &Header) -> Result<(u64, Node<'_>)> {
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
        Ok((separator, new_node))
    }

    /// Remove `key`; returns its value if present. Leaves are not
    /// rebalanced (lazy deletion, as in LeanStore): under-full leaves are
    /// absorbed by future inserts.
    pub fn remove(&self, key: u64) -> Result<Option<u64>> {
        self.retry(MAX_RESTARTS, || {
            let Attempt::Done((leaf, h)) = self.descend_for_write(key)? else {
                return Ok(Attempt::Restart);
            };
            Ok(Attempt::Done(match leaf.search(key, &h)? {
                Found::Hit { pos, value: old } => {
                    leaf.remove_at(pos, &h)?;
                    Some(old)
                }
                Found::Miss { .. } => None,
            }))
        })
    }

    /// Collect up to `limit` entries with keys in `[start, ∞)`, in key
    /// order (used by TPC-C order scans).
    pub fn scan_from(&self, start: u64, limit: usize) -> Result<Vec<(u64, u64)>> {
        self.retry(MAX_RESTARTS, || {
            let mut out = Vec::with_capacity(limit.min(1024));
            let Attempt::Done((mut leaf, mut h, mut version)) =
                self.descend(start, AccessIntent::Read)?
            else {
                return Ok(Attempt::Restart);
            };
            // Walk the sibling chain collecting entries. Only the first
            // leaf is searched: every later one is taken from its first
            // entry.
            let mut from = leaf.search(start, &h)?.pos();
            loop {
                let entries = leaf.entries(from, h.count)?;
                if !validate(&leaf, version) {
                    return Ok(Attempt::Restart);
                }
                for e in entries {
                    if out.len() >= limit {
                        return Ok(Attempt::Done(out));
                    }
                    out.push(e);
                }
                if h.aux == NO_SIBLING || out.len() >= limit {
                    return Ok(Attempt::Done(out));
                }
                let Some(next) = self.pin_versioned(PageId(h.aux), AccessIntent::Read)? else {
                    return Ok(Attempt::Restart);
                };
                (leaf, version) = next;
                match leaf.header()? {
                    Some(next_h) if next_h.tag == NodeTag::Leaf => h = next_h,
                    _ => return Ok(Attempt::Restart),
                }
                from = 0;
            }
        })
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

    fn tiny_tree() -> BTree {
        let config = BufferManagerConfig::builder()
            .page_size(512)
            .dram_capacity(16 * 512)
            .nvm_capacity(0)
            .time_scale(TimeScale::ZERO)
            .build()
            .unwrap();
        BTree::new(Arc::new(BufferManager::new(config).unwrap())).unwrap()
    }

    /// The restart loop is bounded by its argument and counts restarts,
    /// and only restarts.
    #[test]
    fn retry_is_bounded_and_counted() {
        let tree = tiny_tree();
        let mut calls = 0;
        let stuck: Result<()> = tree.retry(7, || {
            calls += 1;
            Ok(Attempt::Restart)
        });
        assert_eq!(stuck, Err(IndexError::RestartLimit));
        assert_eq!((calls, tree.restarts()), (7, 7));
        // Two restarts, then done: two more counted, the completion not.
        let mut calls = 0;
        let done = tree.retry(7, || {
            calls += 1;
            Ok(if calls < 3 {
                Attempt::Restart
            } else {
                Attempt::Done(calls)
            })
        });
        assert_eq!((done, tree.restarts()), (Ok(3), 9));
        // An error ends the loop at once.
        let failed: Result<()> = tree.retry(7, || Err(IndexError::RestartLimit));
        assert_eq!(
            (failed, tree.restarts()),
            (Err(IndexError::RestartLimit), 9)
        );
    }

    /// A reader that meets a write-latched node restarts — counted — until
    /// the holder unlocks, then sees what the holder wrote. The latch is
    /// the page's: the holder reaches it through a plain fetch of the root
    /// page, not through the tree.
    #[test]
    fn operations_restart_against_a_held_latch_and_are_counted() {
        let tree = tiny_tree();
        tree.insert(1, 10).unwrap();
        assert_eq!(tree.restarts(), 0, "uncontended operations never restart");
        let root = tree
            .bm
            .fetch(tree.root_page(), AccessIntent::Write)
            .unwrap();
        root.latch(VersionLatch::write_lock).unwrap();
        drop(root); // the pin goes, the latch stays
        std::thread::scope(|s| {
            let reader = s.spawn(|| tree.get(1).unwrap());
            while tree.restarts() == 0 {
                std::thread::yield_now();
            }
            assert!(!reader.is_finished());
            let root = tree.bm.fetch(tree.root_page(), AccessIntent::Read).unwrap();
            root.latch(VersionLatch::write_unlock).unwrap();
            assert_eq!(reader.join().unwrap(), Some(10));
        });
    }

    /// A write through the location a lookup returned lands in place while
    /// nothing else wrote the leaf; once something did, the latch version
    /// has moved and the write falls back to an insert, which finds the
    /// entry where it now is.
    #[test]
    fn a_write_through_a_stale_location_falls_back_to_insert() {
        let tree = tiny_tree();
        for k in (0..20).step_by(2) {
            tree.insert(k, k).unwrap();
        }
        let (value, at) = tree.get_at(10).unwrap().unwrap();
        assert_eq!(value, 10);
        tree.set_at(at, 10, 100).unwrap();
        assert_eq!(tree.get(10).unwrap(), Some(100));
        // Key 5 goes into the same leaf before key 10, moving it one
        // position right: the old position now holds key 8.
        let (_, at) = tree.get_at(10).unwrap().unwrap();
        tree.insert(5, 50).unwrap();
        tree.set_at(at, 10, 1000).unwrap();
        let mut expect: Vec<(u64, u64)> = (0..20).step_by(2).map(|k| (k, k)).collect();
        expect.push((5, 50));
        expect.sort_unstable();
        expect.iter_mut().find(|e| e.0 == 10).unwrap().1 = 1000;
        assert_eq!(tree.scan_from(0, usize::MAX).unwrap(), expect);
        assert_eq!(tree.get_at(10).unwrap().map(|(v, _)| v), Some(1000));
        assert_eq!(tree.get_at(7).unwrap(), None);
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
