//! CLOCK on frames occupied the way recovery occupies them.
//!
//! Recovery rebuilds an NVM pool frame by frame with [`Pool::adopt`], not
//! through the allocator. These tests check that CLOCK treats such frames
//! like allocated ones: adoption sets the reference bit, the hand skips
//! frames nobody adopted, and victims come in bounded batches. The tests
//! in `pool.rs` drive the same CLOCK through [`Pool::try_alloc`].
//!
//! Compiled for tests only; CLOCK itself lives in [`Pool`].

use std::sync::Arc;

use spitfire_device::TimeScale;

use crate::metrics::BufferMetrics;
use crate::pool::Pool;
use crate::types::{FrameId, PageId};

/// A DRAM pool of `n` frames in which exactly `frames` are adopted, each
/// by the page of the same number.
fn adopted(n: usize, frames: impl IntoIterator<Item = u32>) -> Pool {
    let p = Pool::dram(
        n * 4096,
        4096,
        TimeScale::ZERO,
        Arc::new(BufferMetrics::new()),
    );
    for f in frames {
        p.adopt(FrameId(f), PageId(u64::from(f)));
    }
    p
}

mod clock {
    mod tests {
        use super::super::adopted;
        use crate::types::FrameId;

        #[test]
        fn second_chances_then_victim() {
            let p = adopted(3, 0..3);
            // Adoption set every reference bit; the first sweep clears
            // them, then the second finds a victim.
            let v = p.next_victim().expect("a victim after ref bits cleared");
            assert!((v.0 as usize) < 3);
            // Touch a frame: it survives the next victim search longer.
            p.touch(FrameId(1));
            let v2 = p.next_victim().expect("victim");
            assert_ne!(v2, FrameId(1));
        }

        #[test]
        fn skips_unoccupied() {
            // Only frame 2 is adopted; the hand starts at frame 0, so it
            // passes two free frames, gives frame 2 its second chance and
            // must come back to it.
            let p = adopted(4, [2]);
            assert_eq!(p.next_victim(), Some(FrameId(2)));
        }

        #[test]
        fn empty_pool_has_no_victims() {
            assert!(adopted(2, []).next_victim().is_none());
            assert!(adopted(0, []).next_victim().is_none());
        }
    }
}

mod tests {
    use super::adopted;

    #[test]
    fn batched_victims_respect_max() {
        let p = adopted(8, 0..8);
        let mut out = Vec::new();
        p.next_victims(3, &mut out);
        assert!(out.len() <= 3, "over-filled batch");
        assert!(!out.is_empty(), "empty batch from full pool");
        let mut distinct = out.clone();
        distinct.sort_by_key(|f| f.0);
        distinct.dedup();
        assert_eq!(distinct.len(), out.len(), "a frame named twice: {out:?}");
    }
}
