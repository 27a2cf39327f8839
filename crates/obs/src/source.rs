//! Metric sources: the one way counters and gauges reach a [`Report`].
//!
//! Anything that owns numbers worth exporting — the buffer manager, the
//! database, the server — implements [`Source`] and names each of its
//! counters and gauges exactly once, in `report`. [`register_source`] adds
//! a weak reference to the process-wide list; [`Report::capture`] and the
//! sampler tick walk that list, so a registered object shows up in the
//! JSON and Prometheus exports and in the time series with no further
//! glue, and drops out when its last strong reference goes away.
//!
//! Values that have no owning object (the annealing temperature) are
//! pushed with [`set_gauge`] instead.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::export::Report;

/// An object that can describe itself to a [`Report`].
pub trait Source: Send + Sync {
    /// Add every counter and gauge this object owns to `out`.
    fn report(&self, out: &mut Report);
}

struct Sources {
    live: Mutex<Vec<Weak<dyn Source>>>,
    manual: Mutex<BTreeMap<String, f64>>,
}

fn sources() -> &'static Sources {
    static SOURCES: OnceLock<Sources> = OnceLock::new();
    SOURCES.get_or_init(|| Sources {
        live: Mutex::new(Vec::new()),
        manual: Mutex::new(BTreeMap::new()),
    })
}

/// Add `source` to the process-wide list walked by [`Report::capture`] and
/// the sampler. Only a weak reference is kept. Registering the same object
/// again is a no-op; when two *different* live sources export the same
/// name, the one registered later supplies the value.
pub fn register_source<S: Source + 'static>(source: &Arc<S>) {
    let weak = Arc::downgrade(source) as Weak<dyn Source>;
    let mut live = sources().live.lock().expect("source list poisoned");
    live.retain(|w| w.strong_count() > 0);
    if !live.iter().any(|w| Weak::ptr_eq(w, &weak)) {
        live.push(weak);
    }
}

/// Set a manual gauge (creates it on first use).
pub fn set_gauge(name: &str, value: f64) {
    sources()
        .manual
        .lock()
        .expect("manual gauges poisoned")
        .insert(name.to_string(), value);
}

/// Add the manual gauges and every live source's counters and gauges to
/// `out`, pruning sources whose owner is gone.
pub(crate) fn collect(out: &mut Report) {
    for (name, value) in sources()
        .manual
        .lock()
        .expect("manual gauges poisoned")
        .iter()
    {
        out.add_gauge(name.clone(), *value);
    }
    // Upgrade under the lock, report outside it: a source may take its own
    // locks, and the last strong reference may die in this thread.
    let live: Vec<Arc<dyn Source>> = {
        let mut live = sources().live.lock().expect("source list poisoned");
        live.retain(|w| w.strong_count() > 0);
        live.iter().filter_map(Weak::upgrade).collect()
    };
    for source in live {
        source.report(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(u64);

    impl Source for Fixed {
        fn report(&self, out: &mut Report) {
            out.add_counter("test_source", self.0);
            out.add_gauge("test_source_gauge", self.0 as f64);
        }
    }

    /// How many list entries point at `source`.
    fn registrations(source: &Arc<Fixed>) -> usize {
        let weak = Arc::downgrade(source) as Weak<dyn Source>;
        let live = sources().live.lock().unwrap();
        live.iter().filter(|w| Weak::ptr_eq(w, &weak)).count()
    }

    #[test]
    fn sources_register_once_and_vanish_with_their_owner() {
        // No other walk may hold a source's last reference while this
        // test watches it die.
        let _g = crate::test_guard();
        set_gauge("test_manual_gauge", 1.5);
        let a = Arc::new(Fixed(7));
        register_source(&a);
        register_source(&a);
        assert_eq!(registrations(&a), 1);
        let mut r = Report::default();
        collect(&mut r);
        assert_eq!(r.counters.get("test_source"), Some(&7));
        assert_eq!(r.gauges.get("test_source_gauge"), Some(&7.0));
        assert_eq!(r.gauges.get("test_manual_gauge"), Some(&1.5));

        // A later registration of the same name wins while both live.
        let b = Arc::new(Fixed(9));
        register_source(&b);
        let mut r = Report::default();
        collect(&mut r);
        assert_eq!(r.counters.get("test_source"), Some(&9));

        set_gauge("test_manual_gauge", 2.5);
        drop((a, b));
        let mut r = Report::default();
        collect(&mut r);
        assert!(!r.counters.contains_key("test_source"));
        assert_eq!(r.gauges.get("test_manual_gauge"), Some(&2.5));
    }
}
