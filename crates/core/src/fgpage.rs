//! Cache-line-grained pages and mini pages (paper §2.1, Figure 2).
//!
//! When fine-grained loading is enabled, a page promoted from NVM to DRAM
//! is not copied wholesale. Instead the DRAM copy starts empty and loads
//! *granules* (64–512 B units, Figure 11) on demand from the backing
//! NVM-resident page, tracked by `resident` and `dirty` masks. Two layouts
//! exist:
//!
//! * [`FinePage`] — a full-size DRAM frame with per-granule masks
//!   (Figure 2a); granule `i` of the page lives at offset `i * granule`.
//! * [`MiniPage`] — room for only sixteen granules carved out of a shared
//!   slab frame, with a slot array mapping logical granule ids to slots
//!   (Figure 2b). On overflow (a seventeenth distinct granule) the mini
//!   page is transparently promoted to a [`FinePage`].
//!
//! The masks and slot arrays live beside the descriptor (their on-device
//! headers are accounted for in the slab stride), so this module is pure
//! bookkeeping; the buffer manager performs all device I/O.

use std::collections::HashMap;

use spitfire_sync::lock::Mutex;

use crate::types::{FrameId, PageId};

/// Maximum number of granules per page (16 KB page / 64 B granule).
pub(crate) const MAX_GRANULES: usize = 256;

/// Number of slots in a mini page (Figure 2b).
pub(crate) const MINI_SLOTS: usize = 16;

/// Sentinel for an empty mini-page slot.
const EMPTY_SLOT: u16 = u16::MAX;

/// A bitmask over up to 256 granules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct GranuleMask {
    words: [u64; MAX_GRANULES / 64],
}

impl GranuleMask {
    /// All-clear mask.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Set granule `i`; returns the previous value.
    pub(crate) fn set(&mut self, i: usize) -> bool {
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & m != 0;
        self.words[w] |= m;
        was
    }

    /// Whether granule `i` is set.
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Iterate over set granule indices.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(bit)
            })
            .map(move |bit| wi * 64 + bit)
        })
    }
}

/// Cache-line-grained page state (Figure 2a).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FinePage {
    /// The full-size DRAM frame holding loaded granules at their natural
    /// offsets.
    pub frame: FrameId,
    /// Granules present in DRAM.
    pub resident: GranuleMask,
    /// Granules modified since promotion (must be written back to NVM on
    /// eviction).
    pub dirty: GranuleMask,
}

impl FinePage {
    /// An empty fine page over `frame`.
    pub(crate) fn new(frame: FrameId) -> Self {
        FinePage {
            frame,
            resident: GranuleMask::new(),
            dirty: GranuleMask::new(),
        }
    }
}

/// Location of a mini page inside a slab frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MiniSlot {
    /// The shared slab frame.
    pub slab: FrameId,
    /// Index of this mini page within the slab.
    pub index: u8,
}

/// Mini page state (Figure 2b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MiniPage {
    /// Where this mini page's sixteen granule slots live.
    pub slot: MiniSlot,
    /// `slots[j]` = logical granule id stored in slot `j`
    /// (`u16::MAX` = empty).
    pub slots: [u16; MINI_SLOTS],
    /// Occupied slot count (the paper's `count` field).
    pub count: u8,
    /// Per-slot dirty bits (the paper's `dirty` mask).
    pub dirty: u16,
    /// Per-slot "content present" bits: a slot exists as soon as a granule
    /// is assigned, but its bytes arrive with the on-demand load (or the
    /// first fully-covering write).
    pub loaded: u16,
}

impl MiniPage {
    /// An empty mini page at `slot`.
    pub(crate) fn new(slot: MiniSlot) -> Self {
        MiniPage {
            slot,
            slots: [EMPTY_SLOT; MINI_SLOTS],
            count: 0,
            dirty: 0,
            loaded: 0,
        }
    }

    /// Slot index holding logical granule `gid`, if loaded.
    ///
    /// Linear scan of the slot array — this is the indirection overhead the
    /// paper attributes the mini page's limited gains to (§6.5).
    pub(crate) fn find(&self, gid: u16) -> Option<usize> {
        self.slots[..self.count as usize]
            .iter()
            .position(|&s| s == gid)
    }

    /// Claim a slot for granule `gid`; `None` when the mini page is full
    /// (caller promotes to a [`FinePage`]).
    pub(crate) fn insert(&mut self, gid: u16) -> Option<usize> {
        if let Some(j) = self.find(gid) {
            return Some(j);
        }
        if (self.count as usize) < MINI_SLOTS {
            let j = self.count as usize;
            self.slots[j] = gid;
            self.count += 1;
            Some(j)
        } else {
            None
        }
    }

    /// Mark slot `j` dirty.
    pub(crate) fn mark_dirty(&mut self, j: usize) {
        self.dirty |= 1 << j;
    }

    /// Whether slot `j` is dirty.
    pub(crate) fn is_dirty(&self, j: usize) -> bool {
        self.dirty & (1 << j) != 0
    }

    /// Mark slot `j`'s content as present.
    pub(crate) fn mark_loaded(&mut self, j: usize) {
        self.loaded |= 1 << j;
    }

    /// Whether slot `j`'s content is present.
    pub(crate) fn loaded(&self, j: usize) -> bool {
        self.loaded & (1 << j) != 0
    }

    /// Iterate `(slot, granule id)` over occupied slots.
    pub(crate) fn occupied(&self) -> impl Iterator<Item = (usize, u16)> + '_ {
        self.slots[..self.count as usize]
            .iter()
            .copied()
            .enumerate()
    }
}

/// Per-slab bookkeeping.
#[derive(Debug)]
struct SlabInfo {
    free_slots: Vec<u8>,
    /// `members[i]` = page occupying mini slot `i`.
    members: Vec<Option<PageId>>,
}

/// Allocator carving mini pages out of full DRAM frames ("slabs").
///
/// This is how the mini-page layout actually reduces DRAM footprint
/// (Figure 2b): several mini pages share one 16 KB frame, so the DRAM
/// buffer caches proportionally more pages. The buffer manager allocates
/// and frees the slab frames; this structure tracks slots and slab
/// membership (needed when CLOCK picks a slab frame for eviction).
#[derive(Debug)]
pub(crate) struct MiniSlabs {
    /// Byte stride of one mini page within a slab: sixteen granules plus a
    /// one-cache-line header (Figure 2b: "the header of a mini page fits
    /// within a cache line").
    stride: usize,
    minis_per_slab: usize,
    slabs: Mutex<HashMap<u32, SlabInfo>>,
}

impl MiniSlabs {
    /// An allocator for `page_size`-byte slabs and `granule`-byte granules.
    pub(crate) fn new(page_size: usize, granule: usize) -> Self {
        let stride = MINI_SLOTS * granule + 64;
        MiniSlabs {
            stride,
            minis_per_slab: (page_size / stride).max(1),
            slabs: Mutex::new(HashMap::new()),
        }
    }

    /// Byte offset of slot `j`'s granule `k` within the slab frame.
    pub(crate) fn content_offset(&self, slot: MiniSlot, j: usize, granule: usize) -> usize {
        slot.index as usize * self.stride + 64 + j * granule
    }

    /// Take a free mini slot from an existing slab, if any, registering
    /// `pid` as its occupant.
    pub(crate) fn try_alloc(&self, pid: PageId) -> Option<MiniSlot> {
        let mut slabs = self.slabs.lock();
        for (frame, info) in slabs.iter_mut() {
            if let Some(index) = info.free_slots.pop() {
                info.members[index as usize] = Some(pid);
                return Some(MiniSlot {
                    slab: FrameId(*frame),
                    index,
                });
            }
        }
        None
    }

    /// Register a freshly allocated slab frame and claim its first slot for
    /// `pid`.
    pub(crate) fn register_slab(&self, frame: FrameId, pid: PageId) -> MiniSlot {
        let mut slabs = self.slabs.lock();
        let mut info = SlabInfo {
            free_slots: (1..self.minis_per_slab as u8).rev().collect(),
            members: vec![None; self.minis_per_slab],
        };
        info.members[0] = Some(pid);
        slabs.insert(frame.0, info);
        MiniSlot {
            slab: frame,
            index: 0,
        }
    }

    /// Release `slot`. Returns `true` if the slab frame is now empty and
    /// should be freed by the caller.
    pub(crate) fn free_slot(&self, slot: MiniSlot) -> bool {
        let mut slabs = self.slabs.lock();
        let Some(info) = slabs.get_mut(&slot.slab.0) else {
            return false;
        };
        info.members[slot.index as usize] = None;
        info.free_slots.push(slot.index);
        if info.free_slots.len() == self.minis_per_slab {
            slabs.remove(&slot.slab.0);
            true
        } else {
            false
        }
    }

    /// Whether `frame` is a registered slab.
    pub(crate) fn is_slab(&self, frame: FrameId) -> bool {
        self.slabs.lock().contains_key(&frame.0)
    }

    /// Pages currently hosted by slab `frame`.
    pub(crate) fn members_of(&self, frame: FrameId) -> Vec<PageId> {
        self.slabs
            .lock()
            .get(&frame.0)
            .map(|info| info.members.iter().flatten().copied().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GranuleMask {
        /// Number of set granules.
        fn count(&self) -> usize {
            self.words.iter().map(|w| w.count_ones() as usize).sum()
        }
    }

    impl MiniSlabs {
        /// Minis hosted per slab frame.
        fn minis_per_slab(&self) -> usize {
            self.minis_per_slab
        }
    }

    #[test]
    fn mask_set_get_iter() {
        let mut m = GranuleMask::new();
        assert!(!m.set(0));
        assert!(!m.set(255));
        assert!(!m.set(64));
        assert!(m.set(64));
        assert!(m.get(0) && m.get(64) && m.get(255));
        assert!(!m.get(1));
        assert_eq!(m.count(), 3);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 64, 255]);
    }

    #[test]
    fn mini_page_insert_find_overflow() {
        let mut mp = MiniPage::new(MiniSlot {
            slab: FrameId(0),
            index: 0,
        });
        // The paper's example: granule 255 loaded into the second slot.
        assert_eq!(mp.insert(8), Some(0));
        assert_eq!(mp.insert(255), Some(1));
        assert_eq!(mp.insert(2), Some(2));
        assert_eq!(mp.find(255), Some(1));
        assert_eq!(mp.find(9), None);
        // Re-inserting an existing granule reuses its slot.
        assert_eq!(mp.insert(8), Some(0));
        assert_eq!(mp.count, 3);
        // Fill to sixteen, then overflow.
        for gid in 100..113 {
            assert!(mp.insert(gid).is_some());
        }
        assert_eq!(mp.count as usize, MINI_SLOTS);
        assert_eq!(
            mp.insert(999),
            None,
            "seventeenth distinct granule overflows"
        );
    }

    #[test]
    fn mini_page_dirty_bits() {
        let mut mp = MiniPage::new(MiniSlot {
            slab: FrameId(0),
            index: 0,
        });
        let j = mp.insert(42).unwrap();
        assert!(!mp.is_dirty(j));
        mp.mark_dirty(j);
        assert!(mp.is_dirty(j));
        assert_eq!(mp.occupied().collect::<Vec<_>>(), vec![(0, 42)]);
    }

    #[test]
    fn slabs_allocate_and_reclaim() {
        // 4096-byte slabs, 64 B granules: stride = 16*64 + 64 = 1088,
        // 3 minis per slab.
        let slabs = MiniSlabs::new(4096, 64);
        assert_eq!(slabs.minis_per_slab(), 3);
        assert!(
            slabs.try_alloc(PageId(1)).is_none(),
            "no slabs registered yet"
        );

        let s0 = slabs.register_slab(FrameId(7), PageId(1));
        assert_eq!(
            s0,
            MiniSlot {
                slab: FrameId(7),
                index: 0
            }
        );
        assert!(slabs.is_slab(FrameId(7)));

        let s1 = slabs.try_alloc(PageId(2)).unwrap();
        let s2 = slabs.try_alloc(PageId(3)).unwrap();
        assert_eq!(s1.slab, FrameId(7));
        assert_eq!(s2.slab, FrameId(7));
        assert!(slabs.try_alloc(PageId(4)).is_none(), "slab full");

        let mut members = slabs.members_of(FrameId(7));
        members.sort();
        assert_eq!(members, vec![PageId(1), PageId(2), PageId(3)]);

        assert!(!slabs.free_slot(s0));
        assert!(!slabs.free_slot(s1));
        assert!(slabs.free_slot(s2), "last slot frees the slab");
        assert!(!slabs.is_slab(FrameId(7)));
        assert!(slabs.members_of(FrameId(7)).is_empty());
    }

    #[test]
    fn content_offsets_do_not_overlap() {
        let slabs = MiniSlabs::new(16384, 256);
        // stride = 16*256 + 64 = 4160; 3 minis per 16 KB slab.
        assert_eq!(slabs.minis_per_slab(), 3);
        let a = MiniSlot {
            slab: FrameId(0),
            index: 0,
        };
        let b = MiniSlot {
            slab: FrameId(0),
            index: 1,
        };
        let a_end = slabs.content_offset(a, MINI_SLOTS - 1, 256) + 256;
        let b_start = slabs.content_offset(b, 0, 256);
        assert!(
            a_end <= b_start,
            "mini {a_end} overlaps next mini at {b_start}"
        );
        // The last mini's last granule must fit in the slab frame.
        let c = MiniSlot {
            slab: FrameId(0),
            index: 2,
        };
        let c_end = slabs.content_offset(c, MINI_SLOTS - 1, 256) + 256;
        assert!(c_end <= 16384);
    }
}
