//! Model-checked protocol bodies shared by the exhaustive protocol tests
//! (`protocols.rs`, which assert they pass) and the mutation kill tests
//! (`mutants.rs`, which assert the checker finds the seeded bug).
//!
//! Each body is one closed scenario over 2–3 model threads: it builds its
//! shared state fresh, races the protocol's fast path against its slow
//! path, and asserts the protocol's invariant. Invariants are expressed
//! either as plain assertions or as [`RaceCell`] accesses — the latter
//! lets the checker's vector-clock race detector prove the *absence* of
//! required happens-before edges, which a value assertion alone can miss.

use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

use spitfire_modelcheck::cell::RaceCell;
use spitfire_modelcheck::thread;
use spitfire_sync::atomic::{AtomicU64, Ordering};
use spitfire_sync::lock::Mutex;
use spitfire_sync::{
    AtomicBitmap, ConcurrentMap, PinAttempt, PinWord, ShadowOutcome, StripedCounter, VersionLatch,
};

/// PinWord quiescence: a transition may only proceed after `close()`
/// returns zero, and the last reader's page access must happen-before the
/// transition's page write.
///
/// Kills `PinCloseRelaxed` (closer stops acquiring the draining unpin),
/// `PinUnpinRelaxed` (reader stops releasing its page read), and
/// `PinBlindPin` (a pin lands after quiescence was claimed): all three
/// surface as a data race on `page`.
pub fn pin_quiescence() {
    let word = Arc::new(PinWord::new());
    let page = Arc::new(RaceCell::new(0u64));
    word.open(1);

    let w = Arc::clone(&word);
    let p = Arc::clone(&page);
    let reader = thread::spawn(move || {
        if let PinAttempt::Pinned(frame) = w.try_pin() {
            assert_eq!(frame, 1, "pinned against a frame that was never open");
            // The protected read: must be ordered before any transition
            // that observed a zero pin count.
            let _ = p.get();
            w.unpin();
        }
    });

    if word.close() == 0 {
        // Quiescent: no optimistic pin exists and none can be taken.
        page.set(42);
    } else {
        // Reader still draining; abort the transition.
        word.open(1);
    }
    reader.join();
}

/// One pin count for both paths: a mutex-path pinner (the fetch slow
/// path) takes the descriptor lock, finds the copy resident, pins with
/// `pin_locked`, drops the lock, reads the page and unpins. The main
/// thread races it twice: first as a fast-path reader whose `try_pin`
/// and unpin land on the same word, then as a closer that, under the
/// lock, retires the copy when `close()` reports zero pins. The mutex-path
/// read must be ordered before any retirement. (Two model threads, not
/// three: a separate fast-path thread makes the space too large to
/// exhaust, and `pin_quiescence` already covers the fast path's own read.)
///
/// Kills `PinLockedSplit`: the fast pin lands between the split load and
/// store and is overwritten, the fast unpin then zeroes a count that
/// still owes the mutex-path pin, and the closer retires the page under
/// that pinner's read.
pub fn pin_locked_vs_fast_path() {
    let word = Arc::new(PinWord::new());
    let resident = Arc::new(Mutex::new(true));
    let page = Arc::new(RaceCell::new(0u64));
    word.open(1);

    let (w, r, p) = (Arc::clone(&word), Arc::clone(&resident), Arc::clone(&page));
    let locked = thread::spawn(move || {
        let pinned = {
            let resident = r.lock();
            if *resident {
                w.pin_locked();
            }
            *resident
        };
        if pinned {
            let _ = p.get();
            w.unpin();
        }
    });

    if let PinAttempt::Pinned(_) = word.try_pin() {
        word.unpin();
    }
    {
        let mut resident = resident.lock();
        if word.close() == 0 {
            // No pin of either kind: retire the copy.
            *resident = false;
            page.set(99);
        } else {
            word.open(1);
        }
    }
    locked.join();
}

/// PinWord open/pin publication: a pinner that wins its CAS must observe
/// the payload written by the `open` it pinned against, never a stale
/// frame id.
///
/// Kills `PinOpenRelaxed`: without the release on `open`'s CAS the reader
/// can see the OPEN bit but read the pre-open payload.
pub fn pin_open_payload() {
    let word = Arc::new(PinWord::new());
    let w = Arc::clone(&word);
    let reader = thread::spawn(move || {
        if let PinAttempt::Pinned(frame) = w.try_pin() {
            assert_eq!(frame, 7, "pin observed OPEN without the payload store");
            w.unpin();
        }
    });
    word.open(7);
    reader.join();
}

/// Eviction racing the fetch fast path: after `close()` proves
/// quiescence the frame is reused for another page and the word reopens
/// with the new frame id. A racing pinner must either restart
/// (`Raced`/`Closed`) or land a pin whose frame id matches the bytes in
/// the frame — never read page B's bytes under a page A pin.
///
/// Kills `PinBlindPin`: the check-then-increment pin slips in around the
/// close/reopen and pairs frame id 1 with page B's contents (or races
/// the rewrite itself).
pub fn pin_eviction_frame_reuse() {
    let word = Arc::new(PinWord::new());
    let frame = Arc::new(RaceCell::new(100u64));
    word.open(1);

    let w = Arc::clone(&word);
    let f = Arc::clone(&frame);
    let reader = thread::spawn(move || match w.try_pin() {
        PinAttempt::Pinned(1) => {
            assert_eq!(f.get(), 100, "page A pin read page B bytes");
            w.unpin();
        }
        PinAttempt::Pinned(2) => {
            assert_eq!(f.get(), 200, "page B pin read stale page A bytes");
            w.unpin();
        }
        PinAttempt::Pinned(other) => panic!("pinned unknown frame {other}"),
        PinAttempt::Raced | PinAttempt::Closed => {}
    });

    if word.close() == 0 {
        // Evict page A, reuse the frame for page B.
        frame.set(200);
        word.open(2);
    } else {
        word.open(1);
    }
    reader.join();
}

/// Shadow-copy migration vs an optimistic writer: the migrator snapshots
/// the page while the word stays open, then `shadow_commit` may install
/// the snapshot only if no write overlapped the copy window. A writer
/// publishes its write with `bump_version()` *before* unpinning, so a
/// commit that observed zero pins has also observed every bump — a stale
/// snapshot must never be installed (lost update).
///
/// Page content is an instrumented atomic rather than a [`RaceCell`]
/// because the migrator's snapshot read *legitimately* races the writer's
/// store: the protocol's job is to detect the race via the version and
/// discard the snapshot, not to prevent the access. A vector-clock race
/// on the bytes is therefore expected; staleness of a *committed* copy is
/// the bug.
///
/// Kills `ShadowSkipVersionCheck`: without the version re-check after the
/// drain, an interleaving where the writer stores + bumps + unpins during
/// the copy window commits the pre-write snapshot.
pub fn shadow_copy_no_lost_update() {
    let word = Arc::new(PinWord::new());
    let content = Arc::new(AtomicU64::new(10));
    word.open(1);

    let w = Arc::clone(&word);
    let c = Arc::clone(&content);
    let writer = thread::spawn(move || {
        if let PinAttempt::Pinned(_) = w.try_pin() {
            // relaxed: the write is published by bump_version's AcqRel RMW
            // on the pin word, which the committer's zero-pin observation
            // orders after; content itself needs no stronger ordering.
            c.store(20, Ordering::Relaxed);
            w.bump_version();
            w.unpin();
        }
    });

    let token = word.shadow_begin().expect("source word is open");
    // The copy window: snapshot the page while readers/writers stay live.
    // relaxed: staleness is detected via the version check, not via this
    // load's ordering.
    let snapshot = content.load(Ordering::Relaxed);
    match word.shadow_commit(&token, 2) {
        ShadowOutcome::Committed => {
            // relaxed: writer (if any) is fully drained and version-checked.
            assert_eq!(
                snapshot,
                content.load(Ordering::Relaxed),
                "stale shadow copy committed: concurrent write lost"
            );
            // Retire the source mapping; reopen against the destination.
            word.open(2);
        }
        ShadowOutcome::RacedWrite | ShadowOutcome::Draining => {
            // Abort: discard the snapshot, the source stays authoritative.
            word.open(1);
        }
    }
    writer.join();
}

/// Shadow-copy retirement vs an optimistic reader: after `shadow_commit`
/// returns `Committed` the old copy is quiescent — no optimistic pin is
/// live and none can land — so retiring (scrubbing/reusing) the source
/// frame must not race any reader's page access.
///
/// Kills `PinBlindPin` through the shadow path: a check-then-increment
/// pin lands after `shadow_commit`'s internal `close()` claimed
/// quiescence, so the retirement write races the late reader's read.
pub fn shadow_retire_after_quiescence() {
    let word = Arc::new(PinWord::new());
    let src = Arc::new(RaceCell::new(11u64));
    word.open(1);

    let w = Arc::clone(&word);
    let s = Arc::clone(&src);
    let reader = thread::spawn(move || match w.try_pin() {
        PinAttempt::Pinned(1) => {
            // Optimistic read of the source copy: must be ordered before
            // any retirement that observed a zero pin count.
            let _ = s.get();
            w.unpin();
        }
        PinAttempt::Pinned(2) => {
            // Landed on the destination copy after the migration
            // committed; the source is retired and must not be touched.
            w.unpin();
        }
        PinAttempt::Pinned(other) => panic!("pinned unknown frame {other}"),
        PinAttempt::Raced | PinAttempt::Closed => {}
    });

    let token = word.shadow_begin().expect("source word is open");
    match word.shadow_commit(&token, 2) {
        ShadowOutcome::Committed => {
            // Quiescent and unchanged: retire the source copy. A live
            // reader pin here would be a race on `src`.
            src.set(999);
            word.open(2);
        }
        ShadowOutcome::RacedWrite | ShadowOutcome::Draining => word.open(1),
    }
    reader.join();
}

/// VersionLatch optimistic read vs write — the B+tree's node protocol: a
/// writer takes the latch (once by upgrading an optimistic read, the
/// leaf-write path; once by `write_lock`, the split path), writes both
/// halves of a pair, unlocks; a reader read-locks, reads both halves,
/// validates. A read that validates never saw a torn pair.
///
/// The halves are instrumented atomics, not [`RaceCell`]s: an optimistic
/// reader *legitimately* races the writer's stores — detecting that
/// through the version and throwing the read away is the protocol. They
/// are Release stores and Acquire loads because that is what the bytes
/// behind them are on the hardware the index runs on: page content moves
/// by plain loads and stores, which x86-TSO never reorders against the
/// loads of the latch word around them. Under C++11 `Relaxed` data the
/// latch as written would need a fence before its validating load and
/// after its locking CAS (the checker shows the torn pair at once); the
/// model of the data, not the latch's orderings, is what this scenario
/// assumes, and ROADMAP 3(b) — validation moves onto the `PinWord` — is
/// where the fences get decided.
///
/// Kills `LatchUnlockRelaxed`: without the release on `write_unlock` a
/// reader takes the new version, still reads the first half from before
/// the write, reads the second from after it, and validates.
pub fn version_latch_read_vs_write() {
    let latch = Arc::new(VersionLatch::new());
    let pair = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));

    let l = Arc::clone(&latch);
    let p = Arc::clone(&pair);
    let writer = thread::spawn(move || {
        let v = l.read_lock().expect("no other writer");
        l.upgrade(v).expect("no other writer");
        p.0.store(1, Ordering::Release);
        p.1.store(1, Ordering::Release);
        l.write_unlock();
        l.write_lock();
        p.0.store(2, Ordering::Release);
        p.1.store(2, Ordering::Release);
        l.write_unlock();
    });

    if let Ok(v) = latch.read_lock() {
        let a = pair.0.load(Ordering::Acquire);
        let b = pair.1.load(Ordering::Acquire);
        if latch.read_unlock(v).is_ok() {
            assert_eq!(a, b, "validated read saw a torn pair");
        }
    }
    writer.join();
}

/// ConcurrentMap read-lock upgrade: two threads missing on the same key
/// concurrently must agree on one stored value (the re-probe under the
/// write lock discards the loser's speculative value).
///
/// Kills `MapUpgradeNoRecheck`: without the re-probe both missers
/// install their own value and return descriptors that are not the same
/// allocation.
///
/// The map is built with a deterministic hasher: the default
/// `RandomState` would vary shard choice across executions and break the
/// checker's schedule replay.
pub fn map_get_or_insert() {
    type Hasher = BuildHasherDefault<DefaultHasher>;
    let map: Arc<ConcurrentMap<u64, Arc<u64>, Hasher>> =
        Arc::new(ConcurrentMap::with_hasher(Hasher::default()));
    let m = Arc::clone(&map);
    let t = thread::spawn(move || m.get_or_insert_with(7, || Arc::new(1)));
    let mine = map.get_or_insert_with(7, || Arc::new(2));
    let theirs = t.join();
    assert!(
        Arc::ptr_eq(&mine, &theirs),
        "racing missers observed different descriptors for one page"
    );
    let stored = map.get(&7).expect("key present after insert");
    assert!(
        Arc::ptr_eq(&mine, &stored),
        "returned value is not the stored one"
    );
}

/// StripedCounter merge: increments from every stripe — including two
/// threads folded onto the *same* stripe — survive into `sum()`.
///
/// Kills `CounterAddSplit`: the torn load-then-store loses one of the
/// same-stripe increments. Under the model checker, stripes derive from
/// the model thread index mod 2, so the main thread (index 0) and the
/// second spawned thread (index 2) deliberately collide.
pub fn counter_merge() {
    let counter = Arc::new(StripedCounter::new());
    let c1 = Arc::clone(&counter);
    let t1 = thread::spawn(move || c1.add(1));
    let c2 = Arc::clone(&counter);
    let t2 = thread::spawn(move || c2.add(1));
    counter.add(1);
    t1.join();
    t2.join();
    assert_eq!(counter.sum(), 3, "a striped increment was lost");
}

/// AtomicBitmap touch vs sweep: a reference-bit touch racing the clock
/// hand's clear and a frame acquisition on the same word must all
/// survive — single-word RMWs never lose each other's updates.
///
/// Kills `BitmapSetSplit`: the torn set either erases the concurrent
/// clear (bit 1 resurrected) or is itself erased (bit 3 lost).
pub fn bitmap_touch_sweep() {
    let bits = Arc::new(AtomicBitmap::new(64));
    bits.set(1);
    let b = Arc::clone(&bits);
    let toucher = thread::spawn(move || {
        b.set(3);
    });
    // The sweep: clear a cold page's reference bit, then claim a frame.
    bits.clear(1);
    assert!(bits.try_acquire(5), "frame 5 was free");
    toucher.join();
    assert!(bits.get(3), "reference-bit touch was lost");
    assert!(!bits.get(1), "cleared bit resurrected by a racing touch");
    assert!(bits.get(5), "acquired frame bit was lost");
    assert_eq!(bits.count_ones(), 2);
}

/// The orderings of `Database::begin` and `Database::commit` an
/// [`oldest_reader_rule`] run models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOrdering {
    /// As shipped: the timestamp is drawn under the `active` lock, and a
    /// writer retires after it validated.
    Shipped,
    /// The timestamp is drawn before the `active` lock is taken (how
    /// `begin` used to do it).
    TimestampBeforeLock,
    /// The writer retires before it validates (how `commit` used to do
    /// it).
    RetireBeforeValidation,
}

/// The transaction manager's part of MVTO, as far as the oldest-reader
/// rule needs it: the timestamp oracle, the `active` set, and the key's
/// read stamp — modelled only when it is a hint, as the timestamp of the
/// reader that wrote it.
///
/// In the database every step on `active` holds its mutex. Only `begin`
/// holds it across two steps — draw a timestamp, insert it — so only
/// `begin` takes the lock here (with the oracle a counter it guards); every
/// other step is one read or one read-modify-write of the set, so the set
/// is one atomic word (bit `t`: timestamp `t` is active) and those steps
/// are single atomic operations on it. The stamp is one word too: a
/// writer's validation reads it, a reader's look and stamp write it, and
/// in the database the key's stripe keeps a validation from falling
/// between a look and its stamp — here it may, which only adds schedules
/// in which the validation sees no stamp. Fewer lock operations keep the
/// exhaustive search small.
#[derive(Default)]
struct TxnModel {
    /// Next timestamp, drawn under the lock by `begin`.
    next_ts: Mutex<u64>,
    /// The parent's oracle, drawn before the lock is taken.
    oracle: AtomicU64,
    active: AtomicU64,
    /// Timestamp of the reader whose stamp is a hint, plus one (0: none).
    hint: AtomicU64,
}

impl TxnModel {
    fn begin(&self, ordering: TxnOrdering) -> u64 {
        let insert = |ts: u64| self.active.fetch_or(1 << ts, Ordering::AcqRel);
        if ordering == TxnOrdering::TimestampBeforeLock {
            // relaxed: the timestamp only has to be unique, and this
            // ordering is the one under test for being too weak.
            let ts = self.oracle.fetch_add(1, Ordering::Relaxed);
            let _lock = self.next_ts.lock();
            insert(ts);
            ts
        } else {
            let mut next_ts = self.next_ts.lock();
            let ts = *next_ts;
            *next_ts += 1;
            insert(ts);
            ts
        }
    }

    fn retire(&self, ts: u64) {
        self.active.fetch_and(!(1 << ts), Ordering::AcqRel);
    }

    /// A read of the key: the one look at `active` that decides whether
    /// its read stamp is a hint (`Database::read_into`) — is no smaller
    /// timestamp active? — and the stamp.
    fn read(&self, ts: u64) {
        let older = self.active.load(Ordering::Acquire) & ((1 << ts) - 1);
        if older == 0 {
            self.hint.store(ts + 1, Ordering::Release);
        }
    }

    /// A writer's commit validation of the key: the stamp it checks may be
    /// a lost hint, so no hint may belong to a reader younger than the
    /// writer.
    fn validate(&self, ts: u64) {
        if let Some(reader) = self.hint.load(Ordering::Acquire).checked_sub(1) {
            assert!(
                ts > reader,
                "writer {ts} validated after reader {reader} judged itself the oldest"
            );
        }
    }
}

/// MVTO's oldest-reader rule: a reader that finds itself first in
/// `active` writes its read stamp as a hint the buffer manager may lose.
/// That is sound only if no writer with a smaller timestamp validates
/// after the reader judged itself oldest — the writer's validation would
/// read a stamp that may be gone and let it supersede what the younger
/// reader saw. Two writers and one reader, each beginning a transaction;
/// the reader reads the key, each writer validates the key and retires, in
/// the order `ordering` names. (The reader's own retire comes after
/// everything it could race with and is left out.)
///
/// Passes with [`TxnOrdering::Shipped`]. Fails with either of the parent's
/// orderings: a timestamp drawn before the lock lets the younger reader
/// look at `active` while an older writer sits between its draw and its
/// insert; a retire before validation lets the reader look after the
/// writer left `active` but before it validated.
pub fn oldest_reader_rule(ordering: TxnOrdering) -> impl Fn() + Send + Sync + 'static {
    move || {
        let txns = Arc::new(TxnModel::default());
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let txns = Arc::clone(&txns);
                thread::spawn(move || {
                    let ts = txns.begin(ordering);
                    if ordering == TxnOrdering::RetireBeforeValidation {
                        txns.retire(ts);
                        txns.validate(ts);
                    } else {
                        txns.validate(ts);
                        txns.retire(ts);
                    }
                })
            })
            .collect();
        let ts = txns.begin(ordering);
        txns.read(ts);
        for writer in writers {
            writer.join();
        }
    }
}
