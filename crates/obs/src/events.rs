//! Bounded per-thread trace-event rings with CSV and chrome-trace export.
//!
//! When tracing is enabled (see [`crate::set_tracing`]), instrumented code
//! pushes structured [`TraceEvent`]s into a ring owned by the recording
//! thread (capacity [`RING_CAPACITY`]; oldest events are overwritten).
//! [`drain`] collects and clears every ring; the result can be formatted
//! with [`to_csv`] or [`to_chrome_trace`] (loadable in `chrome://tracing`
//! / Perfetto).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use crate::json::{self, Json};
use crate::op::Op;

/// Maximum events retained per thread before the oldest are overwritten.
pub const RING_CAPACITY: usize = 8192;

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start time in nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Operation kind.
    pub op: Op,
    /// Page id the operation touched (`u64::MAX` when not applicable).
    pub page: u64,
    /// Tier label (`"dram"`, `"nvm"`, `"ssd"`, or `""`).
    pub tier: &'static str,
    /// Dense id of the recording thread.
    pub thread: u32,
}

struct Ring {
    thread: u32,
    buf: Mutex<RingBuf>,
}

struct RingBuf {
    events: Vec<TraceEvent>,
    /// Next write position once `events` has reached capacity.
    head: usize,
}

struct Registry {
    rings: Mutex<Vec<Weak<Ring>>>,
    next_thread: AtomicU32,
    epoch: Instant,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        rings: Mutex::new(Vec::new()),
        next_thread: AtomicU32::new(0),
        epoch: Instant::now(),
    })
}

thread_local! {
    static LOCAL_RING: Arc<Ring> = {
        let reg = registry();
        let ring = Arc::new(Ring {
            // relaxed: thread-slot allocation needs uniqueness only.
            thread: reg.next_thread.fetch_add(1, Ordering::Relaxed),
            buf: Mutex::new(RingBuf { events: Vec::new(), head: 0 }),
        });
        reg.rings.lock().unwrap().push(Arc::downgrade(&ring));
        ring
    };
}

/// Nanoseconds since the process trace epoch.
pub(crate) fn now_ns() -> u64 {
    registry().epoch.elapsed().as_nanos() as u64
}

/// Push one event into the calling thread's ring.
pub(crate) fn push(mut ev: TraceEvent) {
    LOCAL_RING.with(|ring| {
        ev.thread = ring.thread;
        let mut buf = ring.buf.lock().unwrap();
        if buf.events.len() < RING_CAPACITY {
            buf.events.push(ev);
        } else {
            let head = buf.head;
            buf.events[head] = ev;
            buf.head = (head + 1) % RING_CAPACITY;
        }
    });
}

/// Collect and clear all per-thread rings, ordered by start time.
pub fn drain() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    let mut rings = registry().rings.lock().unwrap();
    rings.retain(|weak| {
        let Some(ring) = weak.upgrade() else {
            return false;
        };
        let mut buf = ring.buf.lock().unwrap();
        // Restore chronological order for wrapped rings.
        let head = buf.head;
        out.extend(buf.events[head..].iter().cloned());
        out.extend(buf.events[..head].iter().cloned());
        buf.events.clear();
        buf.head = 0;
        true
    });
    out.sort_by_key(|e| e.ts_ns);
    out
}

/// Render events as CSV (`ts_ns,dur_ns,op,page,tier,thread`).
pub fn to_csv(events: &[TraceEvent]) -> String {
    let mut s = String::with_capacity(events.len() * 48 + 64);
    s.push_str("ts_ns,dur_ns,op,page,tier,thread\n");
    for e in events {
        s.push_str(&format!(
            "{},{},{},{},{},{}\n",
            e.ts_ns,
            e.dur_ns,
            e.op.name(),
            e.page,
            e.tier,
            e.thread
        ));
    }
    s
}

/// Render events in the chrome-trace "X" (complete-event) JSON format.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    // chrome-trace timestamps are microseconds (floats allowed).
    let micros = |ns: u64| json::fixed(ns as f64 / 1000.0, 3);
    json::array(events.iter().map(|e| {
        json::object([
            ("name", Json::from(e.op.name())),
            ("cat", "spitfire".into()),
            ("ph", "X".into()),
            ("ts", micros(e.ts_ns)),
            ("dur", micros(e.dur_ns)),
            ("pid", 1u32.into()),
            ("tid", e.thread.into()),
            (
                "args",
                json::object([("page", e.page.into()), ("tier", e.tier.into())]),
            ),
        ])
    }))
    .compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            dur_ns: 5,
            op: Op::FetchDramHit,
            page: 7,
            tier: "dram",
            thread: 0,
        }
    }

    #[test]
    fn push_drain_roundtrip_and_bounded() {
        let _g = crate::test_guard();
        // Drain anything left over from other tests first.
        let _ = drain();
        for i in 0..(RING_CAPACITY + 10) as u64 {
            push(ev(i));
        }
        let drained = drain();
        assert_eq!(drained.len(), RING_CAPACITY);
        // Oldest 10 were overwritten; order is chronological.
        assert_eq!(drained.first().unwrap().ts_ns, 10);
        assert!(drained.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert!(drain().is_empty());
    }

    #[test]
    fn csv_and_chrome_trace_render() {
        let events = vec![ev(1000), ev(2000)];
        let csv = to_csv(&events);
        assert!(csv.starts_with("ts_ns,dur_ns,op,page,tier,thread\n"));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("fetch_dram_hit"));
        let json = to_chrome_trace(&events);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ts\": 1, \"dur\": 0.005"));
        assert_eq!(json.matches("{\"name\"").count(), 2);
    }
}
