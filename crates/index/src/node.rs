//! On-page B+Tree node layout, read and searched by cache line.
//!
//! ```text
//! offset  size  field
//! 0       1     tag: 1 = leaf, 2 = inner
//! 2..4    2     count (number of keys)
//! 8..16   8     leaf: right-sibling page id (u64::MAX = none)
//!               inner: leftmost child page id
//! 16..64  8·6   hints: hint j = the key at position (j+1)·⌊count/7⌋
//!               (zero and unused while count < 7)
//! 64..    16·i  entries: (key u64, value-or-right-child u64), four per
//!               64 B line, line-aligned
//! ```
//!
//! All node reads and writes go through a [`spitfire_core::PageGuard`], so
//! every access is charged to the device the node currently resides on —
//! index traversals on NVM-resident nodes pay NVM latency, exactly the
//! effect the paper measures. The device rounds each access up to a whole
//! line (64 B on DRAM, 256 B on Optane — §6.5, Figure 11), so the node is
//! laid out and read in lines rather than fields.
//!
//! **What a lookup reads.** [`Node::header`] is one read of line 0 and
//! yields tag, count, aux and the six hints. [`Node::search`] first narrows
//! `[lo, hi)` to one seventh of the node from the hints, touching nothing;
//! then halves it by reading whole entries (key and value together, so a
//! probe that hits needs no second read) while it spans more than four;
//! and finishes with one read of the ≤ 4 entries left. It returns the
//! position together with the matched value or the floor entry's value,
//! which is all `child_for`, leaf lookups and the insert / remove paths
//! need: a 510-key leaf costs 1 + 4 + 1 reads where per-field accessors
//! cost 13.
//!
//! **What a writer writes.** Every count change rewrites line 0 — count
//! and re-sampled hints in one write, the same effective bytes as a 2-byte
//! count store — reading at most six sample keys it does not already hold.
//! Overwriting a value in place touches neither.
//!
//! **Clamp, then validate.** Readers parse nodes *optimistically* (a
//! concurrent writer may be mid-modification). Everything derived from an
//! unvalidated header is clamped — `count ≤ capacity`, and `lo ≤ hi ≤
//! count` because window bounds are computed from the count, never from a
//! hint's value — so torn bytes can only produce a wrong position, never an
//! out-of-page read; the caller validates the node's version latch before
//! trusting anything returned from here.

use std::cmp::Ordering;

use spitfire_core::{PageGuard, PageId};
use spitfire_sync::VersionLatch;

use crate::Result;

/// Bytes per cache line: the header's size, and the alignment of the entry
/// array.
const LINE: usize = 64;
/// Bytes per entry (key + value/child).
const ENTRY: usize = 16;
/// Hint keys in the header: what is left of line 0 after tag, count, aux.
const HINTS: usize = (LINE - 16) / 8;
/// Entries per line: the search stops halving once one read covers the
/// rest.
const PER_LINE: usize = LINE / ENTRY;

/// Sentinel page id meaning "no sibling".
pub(crate) const NO_SIBLING: u64 = u64::MAX;

/// Keys a node on a `page_size`-byte page holds: what fits after the
/// header line, and no more than the 2-byte count field can represent.
pub(crate) fn capacity_for(page_size: usize) -> usize {
    ((page_size - LINE) / ENTRY).min(u16::MAX as usize)
}

/// Node type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeTag {
    /// Key → value entries.
    Leaf,
    /// Key → child separators.
    Inner,
}

/// Line 0 of a node, as one read saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) tag: NodeTag,
    /// Number of keys, clamped to capacity (a torn read may exceed it).
    pub(crate) count: usize,
    /// Leaf: right sibling. Inner: leftmost child.
    pub(crate) aux: u64,
    hints: [u64; HINTS],
}

impl Header {
    /// Distance between sample positions in a node of `count` keys; 0
    /// means the node is too small to carry hints.
    fn step(count: usize) -> usize {
        count / (HINTS + 1)
    }

    /// The `[lo, hi)` slice of the entry array the hints leave for `key`:
    /// entry `lo` is the last sampled key ≤ `key` (or `lo` is 0), entry
    /// `hi` the first sampled key above it (or `hi` is the count).
    fn window(&self, key: u64) -> (usize, usize) {
        let step = Self::step(self.count);
        if step == 0 {
            return (0, self.count);
        }
        let below = self.hints.iter().take_while(|&&h| h <= key).count();
        let hi = if below == HINTS {
            self.count
        } else {
            (below + 1) * step
        };
        (below * step, hi)
    }
}

/// Outcome of [`Node::search`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Found {
    /// Entry `pos` holds the key; `value` is its value.
    Hit { pos: usize, value: u64 },
    /// The key is absent and would be inserted at `pos`; `floor` is the
    /// value of entry `pos - 1` (`None` when the key is below every key).
    Miss { pos: usize, floor: Option<u64> },
}

impl Found {
    /// The matched position or the insertion point.
    pub(crate) fn pos(&self) -> usize {
        match *self {
            Found::Hit { pos, .. } | Found::Miss { pos, .. } => pos,
        }
    }

    /// In an inner node with header `h`: the child page covering the
    /// searched key.
    pub(crate) fn child(&self, h: &Header) -> PageId {
        PageId(match *self {
            // Exact match or in the range of key i: right child of key i.
            Found::Hit { value, .. } => value,
            // Before the first key: leftmost child.
            Found::Miss { floor, .. } => floor.unwrap_or(h.aux),
        })
    }
}

fn decode(entry: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(entry[..8].try_into().expect("8 bytes")),
        u64::from_le_bytes(entry[8..ENTRY].try_into().expect("8 bytes")),
    )
}

/// A parsed view over a node page. Holds the page guard for its lifetime.
pub(crate) struct Node<'a> {
    guard: PageGuard<'a>,
    capacity: usize,
}

impl<'a> Node<'a> {
    /// Wrap a fetched page.
    pub(crate) fn new(guard: PageGuard<'a>) -> Self {
        let capacity = capacity_for(guard.page_size());
        Node { guard, capacity }
    }

    /// Maximum number of keys a node holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The page this node lives on.
    pub(crate) fn page_id(&self) -> PageId {
        self.guard.page_id()
    }

    /// Run `f` on the node's version latch — its page's latch, reached
    /// through the pin ([`PageGuard::latch`]).
    pub(crate) fn latch<R>(&self, f: impl FnOnce(&VersionLatch) -> R) -> Option<R> {
        self.guard.latch(f)
    }

    fn offset(i: usize) -> usize {
        LINE + i * ENTRY
    }

    /// Initialize this page as a node of the given kind holding `entries`
    /// (sorted; at most `capacity`).
    pub(crate) fn init(&self, tag: NodeTag, aux: u64, entries: &[(u64, u64)]) -> Result<()> {
        self.write_entries(0, entries)?;
        let blank = Header {
            tag,
            count: 0,
            aux,
            hints: [0; HINTS],
        };
        self.write_header(&blank, entries.len(), aux, 0, entries)
    }

    /// Read line 0. `None` if the tag byte is torn garbage (caller
    /// restarts).
    pub(crate) fn header(&self) -> Result<Option<Header>> {
        let mut line = [0u8; LINE];
        self.guard.read(0, &mut line)?;
        let tag = match line[0] {
            1 => NodeTag::Leaf,
            2 => NodeTag::Inner,
            _ => return Ok(None),
        };
        let count = u16::from_le_bytes([line[2], line[3]]) as usize;
        let mut hints = [0u64; HINTS];
        for (hint, bytes) in hints.iter_mut().zip(line[16..].chunks_exact(8)) {
            *hint = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        }
        Ok(Some(Header {
            tag,
            count: count.min(self.capacity),
            aux: u64::from_le_bytes(line[8..16].try_into().expect("8 bytes")),
            hints,
        }))
    }

    /// Rewrite line 0 after a change. `h` is the header read before it;
    /// `count` and `aux` are the new values; `held` are the entries now at
    /// positions `from..`, which the caller has in hand, and entries below
    /// `from` are where `h` saw them. Sample keys found in neither `held`
    /// nor `h`'s hints are read, one key each.
    fn write_header(
        &self,
        h: &Header,
        count: usize,
        aux: u64,
        from: usize,
        held: &[(u64, u64)],
    ) -> Result<()> {
        assert!(count <= self.capacity, "node overflow: {count} keys");
        let stored = u16::try_from(count).expect("capacity fits the count field");
        let step = Header::step(count);
        let mut line = [0u8; LINE];
        line[0] = match h.tag {
            NodeTag::Leaf => 1,
            NodeTag::Inner => 2,
        };
        line[2..4].copy_from_slice(&stored.to_le_bytes());
        line[8..16].copy_from_slice(&aux.to_le_bytes());
        if step > 0 {
            for (j, bytes) in line[16..].chunks_exact_mut(8).enumerate() {
                let pos = (j + 1) * step;
                let key = match pos.checked_sub(from).and_then(|i| held.get(i)) {
                    Some(&(key, _)) => key,
                    None if pos < from && step == Header::step(h.count) => h.hints[j],
                    None => self.guard.read_u64(Self::offset(pos))?,
                };
                bytes.copy_from_slice(&key.to_le_bytes());
            }
        }
        self.guard.write(0, &line)?;
        Ok(())
    }

    /// Read entry `i` — key and value in one transfer.
    fn entry(&self, i: usize) -> Result<(u64, u64)> {
        let mut buf = [0u8; ENTRY];
        self.guard.read(Self::offset(i), &mut buf)?;
        Ok(decode(&buf))
    }

    /// Overwrite entry `i` in place (count and hints are untouched: the
    /// caller keeps the key where it was).
    pub(crate) fn set_entry(&self, i: usize, key: u64, value: u64) -> Result<()> {
        let mut e = [0u8; ENTRY];
        e[..8].copy_from_slice(&key.to_le_bytes());
        e[8..].copy_from_slice(&value.to_le_bytes());
        self.guard.write(Self::offset(i), &e)?;
        Ok(())
    }

    /// Read entries `[from, to)` as `(key, value)` pairs in one transfer.
    pub(crate) fn entries(&self, from: usize, to: usize) -> Result<Vec<(u64, u64)>> {
        let n = to.saturating_sub(from);
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut buf = vec![0u8; n * ENTRY];
        self.guard.read(Self::offset(from), &mut buf)?;
        Ok(buf.chunks_exact(ENTRY).map(decode).collect())
    }

    /// Write entries starting at index `at` in one transfer.
    fn write_entries(&self, at: usize, entries: &[(u64, u64)]) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let mut buf = vec![0u8; entries.len() * ENTRY];
        for (chunk, (k, v)) in buf.chunks_exact_mut(ENTRY).zip(entries) {
            chunk[..8].copy_from_slice(&k.to_le_bytes());
            chunk[8..].copy_from_slice(&v.to_le_bytes());
        }
        self.guard.write(Self::offset(at), &buf)?;
        Ok(())
    }

    /// Insert `(key, value)` at position `pos` of a non-full node whose
    /// header is `h`, shifting the tail right.
    pub(crate) fn insert_at(&self, pos: usize, key: u64, value: u64, h: &Header) -> Result<()> {
        let mut shifted = vec![(key, value)];
        shifted.extend(self.entries(pos, h.count)?);
        self.write_entries(pos, &shifted)?;
        self.write_header(h, h.count + 1, h.aux, pos, &shifted)
    }

    /// Remove the entry at position `pos` of a node whose header is `h`,
    /// shifting the tail left.
    pub(crate) fn remove_at(&self, pos: usize, h: &Header) -> Result<()> {
        let tail = self.entries(pos + 1, h.count)?;
        self.write_entries(pos, &tail)?;
        self.write_header(h, h.count - 1, h.aux, pos, &tail)
    }

    /// Keep the first `count` entries of a node whose header is `h` (the
    /// rest moved to a split sibling) and set its aux.
    pub(crate) fn truncate(&self, count: usize, aux: u64, h: &Header) -> Result<()> {
        self.write_header(h, count, aux, count, &[])
    }

    /// Find `key` among the keys of a node whose header is `h`.
    pub(crate) fn search(&self, key: u64, h: &Header) -> Result<Found> {
        let (mut lo, mut hi) = h.window(key);
        // Value of entry `lo - 1` once a probe has read it and found its
        // key below `key`.
        let mut floor = None;
        while hi - lo > PER_LINE {
            let mid = lo + (hi - lo) / 2;
            let (k, value) = self.entry(mid)?;
            match k.cmp(&key) {
                Ordering::Less => {
                    floor = Some(value);
                    lo = mid + 1;
                }
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(Found::Hit { pos: mid, value }),
            }
        }
        let mut rest = [0u8; LINE];
        let rest = &mut rest[..(hi - lo) * ENTRY];
        if !rest.is_empty() {
            self.guard.read(Self::offset(lo), rest)?;
        }
        for (i, (k, value)) in rest.chunks_exact(ENTRY).map(decode).enumerate() {
            match k.cmp(&key) {
                Ordering::Less => floor = Some(value),
                Ordering::Greater => return Ok(Found::Miss { pos: lo + i, floor }),
                Ordering::Equal => return Ok(Found::Hit { pos: lo + i, value }),
            }
        }
        Ok(Found::Miss { pos: hi, floor })
    }

    /// Inner node: the child page covering `key`.
    pub(crate) fn child_for(&self, key: u64, h: &Header) -> Result<PageId> {
        Ok(self.search(key, h)?.child(h))
    }

    /// Panic unless the stored hints are the keys at their sample
    /// positions.
    #[cfg(test)]
    pub(crate) fn check_hints(&self, h: &Header) {
        let step = Header::step(h.count);
        for (j, &hint) in h.hints.iter().enumerate() {
            let expect = if step == 0 {
                0
            } else {
                self.entry((j + 1) * step).unwrap().0
            };
            assert_eq!(hint, expect, "hint {j} of a {}-key node", h.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use spitfire_core::{AccessIntent, BufferManager, BufferManagerConfig};
    use spitfire_device::TimeScale;

    fn bm(page_size: usize) -> BufferManager {
        let config = BufferManagerConfig::builder()
            .page_size(page_size)
            .dram_capacity(4 * page_size)
            .nvm_capacity(0)
            .time_scale(TimeScale::ZERO)
            .build()
            .unwrap();
        BufferManager::new(config).unwrap()
    }

    fn node(bm: &BufferManager) -> Node<'_> {
        let pid = bm.allocate_page().unwrap();
        Node::new(bm.fetch(pid, AccessIntent::Write).unwrap())
    }

    #[test]
    fn format_and_parse_round_trip() {
        let bm = bm(1024);
        let node = node(&bm);
        assert_eq!(node.capacity(), (1024 - LINE) / ENTRY);
        node.init(NodeTag::Leaf, NO_SIBLING, &[]).unwrap();
        let h = node.header().unwrap().unwrap();
        assert_eq!((h.tag, h.count, h.aux), (NodeTag::Leaf, 0, NO_SIBLING));

        node.insert_at(0, 20, 200, &h).unwrap();
        let h = node.header().unwrap().unwrap();
        node.insert_at(0, 10, 100, &h).unwrap();
        let h = node.header().unwrap().unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(node.entry(1).unwrap(), (20, 200));
        assert_eq!(node.entries(0, 2).unwrap(), vec![(10, 100), (20, 200)]);

        node.set_entry(1, 20, 201).unwrap();
        node.remove_at(0, &h).unwrap();
        let h = node.header().unwrap().unwrap();
        assert_eq!(node.entries(0, h.count).unwrap(), vec![(20, 201)]);
    }

    #[test]
    fn search_finds_positions() {
        let bm = bm(1024);
        let node = node(&bm);
        node.init(NodeTag::Leaf, NO_SIBLING, &[(10, 1), (20, 2), (30, 3)])
            .unwrap();
        let h = node.header().unwrap().unwrap();
        let search = |key| node.search(key, &h).unwrap();
        assert_eq!(search(20), Found::Hit { pos: 1, value: 2 });
        assert_eq!(
            search(5),
            Found::Miss {
                pos: 0,
                floor: None
            }
        );
        assert_eq!(
            search(25),
            Found::Miss {
                pos: 2,
                floor: Some(2)
            }
        );
        assert_eq!(
            search(35),
            Found::Miss {
                pos: 3,
                floor: Some(3)
            }
        );
    }

    #[test]
    fn child_for_picks_correct_subtree() {
        let bm = bm(1024);
        let node = node(&bm);
        // Children: [left=7] 10 [8] 20 [9]
        node.init(NodeTag::Inner, 7, &[(10, 8), (20, 9)]).unwrap();
        let h = node.header().unwrap().unwrap();
        let child = |key| node.child_for(key, &h).unwrap();
        assert_eq!(child(5), PageId(7));
        assert_eq!(child(10), PageId(8));
        assert_eq!(child(15), PageId(8));
        assert_eq!(child(20), PageId(9));
        assert_eq!(child(99), PageId(9));
    }

    #[test]
    fn count_is_clamped_to_capacity() {
        let bm = bm(1024);
        let node = node(&bm);
        node.init(NodeTag::Leaf, NO_SIBLING, &[]).unwrap();
        // Simulate a torn count read.
        node.guard.write(2, &u16::MAX.to_le_bytes()).unwrap();
        assert_eq!(node.header().unwrap().unwrap().count, node.capacity());
        // And a page too large for the count field holds what the field
        // can say, not what would fit.
        assert_eq!(capacity_for(2 << 20), u16::MAX as usize);
    }

    #[test]
    fn unknown_tag_reports_none() {
        let bm = bm(1024);
        let node = node(&bm);
        node.guard.write(0, &[0xFF]).unwrap();
        assert_eq!(node.header().unwrap(), None);
    }

    /// `search` against `binary_search` over the same entries, at every
    /// count where the hint step or the final-read size changes shape.
    #[test]
    fn search_agrees_with_binary_search() {
        for page_size in [512, 1024, 16 * 1024] {
            let bm = bm(page_size);
            let node = node(&bm);
            let cap = node.capacity();
            for count in (0..=8).chain([27, 28, cap - 1, cap]) {
                // Keys 10, 20, …: every multiple of 5 in between is absent,
                // 0 and 5 are below the minimum, the last two above the
                // maximum.
                let entries: Vec<(u64, u64)> =
                    (1..=count as u64).map(|i| (10 * i, 7 * i)).collect();
                node.init(NodeTag::Inner, 99, &entries).unwrap();
                let h = node.header().unwrap().unwrap();
                assert_eq!(h.count, count);
                node.check_hints(&h);
                let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
                for key in (0..=10 * count as u64 + 10).step_by(5) {
                    let expect = match keys.binary_search(&key) {
                        Ok(pos) => Found::Hit {
                            pos,
                            value: entries[pos].1,
                        },
                        Err(pos) => Found::Miss {
                            pos,
                            floor: pos.checked_sub(1).map(|i| entries[i].1),
                        },
                    };
                    assert_eq!(
                        node.search(key, &h).unwrap(),
                        expect,
                        "key {key}, {count} keys, {page_size} B pages"
                    );
                }
            }
        }
    }

    /// Torn bytes may make a reader wrong, never out of bounds: the pool
    /// debug-asserts every access against the page size.
    #[test]
    fn random_bytes_never_read_outside_the_page() {
        let mut rng = StdRng::seed_from_u64(17);
        for page_size in [512, 1024, 16 * 1024] {
            let bm = bm(page_size);
            let node = node(&bm);
            let mut page = vec![0u8; page_size];
            for round in 0..200 {
                rng.fill(&mut page);
                // A random tag byte is valid once in 128 rounds; force it
                // on the others so the search runs.
                if round % 8 != 0 {
                    page[0] = 1 + (round % 2) as u8;
                }
                node.guard.write(0, &page).unwrap();
                let Some(h) = node.header().unwrap() else {
                    continue;
                };
                assert!(h.count <= node.capacity());
                for _ in 0..16 {
                    // Half the keys from the page itself, so that hints
                    // and entries compare equal as well as unequal.
                    let key = if rng.gen_bool(0.5) {
                        let at = rng.gen_range(0..page_size / 8) * 8;
                        u64::from_le_bytes(page[at..at + 8].try_into().unwrap())
                    } else {
                        rng.gen()
                    };
                    assert!(node.search(key, &h).unwrap().pos() <= h.count);
                    node.child_for(key, &h).unwrap();
                }
            }
        }
    }
}
