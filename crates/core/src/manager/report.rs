//! Read-only views of the manager's state: residency and occupancy
//! probes, the observability [`Source`](obs::Source) that names every
//! exported counter and gauge, and the stress-harness quiescence
//! assertion.

use spitfire_obs as obs;
use spitfire_sync::AdmissionQueue;

use super::BufferManager;
use crate::descriptor::{CopyState, Dirt, FrameRef};
use crate::metrics::{inclusivity_ratio, ShadowPath};
use crate::pool::Pool;
use crate::types::{PageId, Tier};

impl BufferManager {
    /// Whether `pid` currently has a DRAM-resident copy. Non-blocking:
    /// returns `false` when the descriptor mutex is contended, so this is
    /// a monitoring probe, not a synchronization primitive.
    pub fn is_dram_resident(&self, pid: PageId) -> bool {
        self.mapping
            .get(&pid.0)
            .is_some_and(|desc| desc.state.try_lock().is_some_and(|st| st.dram.is_some()))
    }

    /// The inclusivity ratio of the DRAM and NVM buffers (paper §3.3,
    /// Table 2): pages resident in both, over pages resident in either.
    pub fn inclusivity(&self) -> f64 {
        let mut both = 0usize;
        let mut either = 0usize;
        self.mapping.for_each(|_, desc| {
            if let Some(st) = desc.state.try_lock() {
                let d = st.dram.is_some();
                let n = st.nvm.is_some();
                if d || n {
                    either += 1;
                }
                if d && n {
                    both += 1;
                }
            }
        });
        inclusivity_ratio(both, either)
    }

    /// Number of pages currently resident in (DRAM, NVM).
    pub fn resident_pages(&self) -> (usize, usize) {
        let mut dram = 0;
        let mut nvm = 0;
        self.mapping.for_each(|_, desc| {
            if let Some(st) = desc.state.try_lock() {
                dram += usize::from(st.dram.is_some());
                nvm += usize::from(st.nvm.is_some());
            }
        });
        (dram, nvm)
    }

    /// Frames currently occupied in the (DRAM, NVM) pools.
    pub fn occupied_frames(&self) -> (usize, usize) {
        (
            self.tier1.as_ref().map_or(0, Pool::occupied_frames),
            self.nvm.as_ref().map_or(0, Pool::occupied_frames),
        )
    }

    /// Number of resident pages in (DRAM, NVM) holding changes that must
    /// be written down before the copy may go. A copy changed only by hint
    /// writes does not count: it is never written down.
    pub fn dirty_pages(&self) -> (usize, usize) {
        fn is_dirty(slot: &Option<CopyState>) -> bool {
            matches!(
                slot,
                Some(CopyState::Resident { dirt, .. } | CopyState::Busy { dirt, .. })
                    if *dirt == Dirt::Data
            )
        }
        let mut dram = 0;
        let mut nvm = 0;
        self.mapping.for_each(|_, desc| {
            if let Some(st) = desc.state.try_lock() {
                dram += usize::from(is_dirty(&st.dram));
                nvm += usize::from(is_dirty(&st.nvm));
            }
        });
        (dram, nvm)
    }

    /// Current occupancy of the NVM admission queue (0 without an NVM tier).
    pub fn admission_queue_len(&self) -> usize {
        self.admission.as_ref().map_or(0, AdmissionQueue::len)
    }

    /// Assert that no pins are outstanding and every descriptor's pin
    /// words agree with its copy states (stress-harness invariant check;
    /// call only when no guards are live and no migrations are running).
    ///
    /// Invariants checked per page: both pin words count zero pins — a
    /// copy's guards are counted nowhere else — the DRAM word is open iff
    /// the DRAM slot holds a Resident full-frame copy, and the NVM word is
    /// open iff the NVM slot holds one *and* no DRAM copy shadows it.
    pub fn assert_quiescent(&self) {
        fn full_resident(slot: &Option<CopyState>) -> bool {
            matches!(
                slot,
                Some(CopyState::Resident {
                    frame: FrameRef::Full(_),
                    ..
                })
            )
        }
        self.mapping.for_each(|pid, desc| {
            let st = desc.state.lock();
            assert!(!st.shadow_dram, "page {pid}: dram shadow op in flight");
            assert!(!st.shadow_nvm, "page {pid}: nvm shadow op in flight");
            assert_eq!(desc.dram_pin.pins(), 0, "page {pid}: dram pins");
            assert_eq!(desc.nvm_pin.pins(), 0, "page {pid}: nvm pins");
            assert_eq!(
                desc.dram_pin.is_open(),
                full_resident(&st.dram),
                "page {pid}: dram word/slot disagree ({:?})",
                st.dram
            );
            assert_eq!(
                desc.nvm_pin.is_open(),
                st.dram.is_none() && full_resident(&st.nvm),
                "page {pid}: nvm word/slot disagree (dram {:?}, nvm {:?})",
                st.dram,
                st.nvm
            );
        });
    }
}

/// Everything the manager exports, each name spelled once: the
/// [`BufferMetrics`](crate::metrics::BufferMetrics) counter list, per-tier
/// device counters, and point-in-time gauges. Register with
/// [`obs::register_source`]; the report, the sampler series and the
/// server's STATS reply are all views of this one walk.
impl obs::Source for BufferManager {
    fn report(&self, out: &mut obs::Report) {
        let m = self.metrics.snapshot();
        m.for_each_counter(|name, value| out.add_counter(name, value));
        for tier in [Tier::Dram, Tier::Nvm, Tier::Ssd] {
            let Some(stats) = self.device_stats(tier) else {
                continue;
            };
            let (label, s) = (tier.label(), stats.snapshot());
            out.add_counter(format!("{label}_read_ops"), s.read_ops);
            out.add_counter(format!("{label}_write_ops"), s.write_ops);
            out.add_counter(format!("{label}_bytes_read"), s.bytes_read);
            out.add_counter(format!("{label}_bytes_written"), s.bytes_written);
            out.add_counter(format!("{label}_bytes_flushed"), s.bytes_flushed);
            out.add_counter(format!("{label}_fences"), s.fences);
        }

        let mut per_tier = |suffix: &str, (dram, nvm): (usize, usize)| {
            out.add_gauge(format!("dram_{suffix}"), dram as f64);
            out.add_gauge(format!("nvm_{suffix}"), nvm as f64);
        };
        per_tier("frames_total", (self.dram_frames(), self.nvm_frames()));
        per_tier("occupied_frames", self.occupied_frames());
        per_tier("free_frames", self.free_frames());
        let pressure = self.pressure();
        per_tier(
            "low_watermark_frames",
            (pressure.dram_low, pressure.nvm_low),
        );
        per_tier("dirty_pages", self.dirty_pages());
        out.add_gauge("admission_queue_len", self.admission_queue_len() as f64);
        let p = self.policy();
        out.add_gauge("policy_dr", p.dr);
        out.add_gauge("policy_dw", p.dw);
        out.add_gauge("policy_nr", p.nr);
        out.add_gauge("policy_nw", p.nw);
        out.add_gauge("buffer_hit_ratio", m.buffer_hit_ratio());
        out.add_gauge("inclusivity", self.inclusivity());
        // Per-path shadow-migration abort rates: aborts / (aborts +
        // commits). A rising promote rate means foreground writes are
        // racing promotions; evict/flush rates expose write-back pressure.
        for path in ShadowPath::ALL {
            out.add_gauge(
                format!("shadow_abort_rate_{}", path.name()),
                m.shadow_abort_rate(path),
            );
        }
        // What the emulator measured about itself: the per-charge
        // bookkeeping cost subtracted from every emulated delay (0 until
        // the first delay is charged in this process).
        out.add_gauge(
            "device_charge_overhead_ns",
            spitfire_device::charge_overhead_calibration().unwrap_or(0) as f64,
        );
    }
}
