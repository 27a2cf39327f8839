//! Optimistic pin word for latch-free buffer pins (paper §5.2).
//!
//! A [`PinWord`] lets readers pin a resident page copy without taking the
//! page's descriptor mutex, in the style of LeanStore/Umbra optimistic
//! latching: the slow path (migrations, evictions — always under the
//! descriptor mutex) *opens* the word while the copy is stably resident
//! and *closes* it before any state transition. Readers pin with a single
//! CAS that only succeeds against an open word, so a successful pin proves
//! the copy was resident — and stays resident, because every transition
//! must first close the word and observe a zero pin count.
//!
//! # Word layout
//!
//! One `AtomicU64` packs the whole protocol state:
//!
//! ```text
//! 63        33 32 31                    0
//! +-----------+--+----------------------+
//! |  version  |O |  pins                |
//! +-----------+--+----------------------+
//! ```
//!
//! * bits 0..32 — count of outstanding pins, however they were taken;
//! * bit 32 — OPEN: optimistic pins may be taken;
//! * bits 33.. — version, bumped by every open/close so a reader's CAS
//!   (which covers the *entire* word) fails if the copy was closed and
//!   re-opened between its load and its CAS. That makes the payload read
//!   in between — the frame id of the resident copy — valid on success.
//!
//! # Protocol
//!
//! * `open(frame)` / `close()` are called only by the slow path, under the
//!   descriptor mutex; they are the only writers of the OPEN and version
//!   bits.
//! * `try_pin()` / `unpin()` are lock-free and may be called by any
//!   thread at any time.
//! * `pin_locked()` counts a pin the slow path grants under the descriptor
//!   mutex, open word or not. Every closer holds that mutex too, so the
//!   count a closer reads includes every such pin: the word's count is
//!   the copy's only pin count.
//! * `close()` returns the number of pins at the instant the word closed.
//!   Because the close CAS and every pin RMW contend on the same word, a
//!   return of zero proves no pin exists *and* none can be created until
//!   the word is re-opened (or the closer drops the mutex) — the
//!   transition may proceed. Non-zero means readers are still draining:
//!   the caller must re-open and retry later (evictions simply skip the
//!   victim).
//!
//! The theoretical ABA window — a full 31-bit version wrap between one
//! reader's load and CAS — would require ~2³¹ open/close cycles while a
//! single pin attempt is suspended, which the slow path's mutex
//! serialization makes unreachable in practice.

use crate::atomic::{AtomicU32, AtomicU64, Ordering};

/// Low 32 bits: pin count.
const PIN_MASK: u64 = (1 << 32) - 1;
/// Bit 32: the word is open for optimistic pins.
const OPEN: u64 = 1 << 32;
/// Version counter step (bits 33..).
const VERSION_STEP: u64 = 1 << 33;

/// Version snapshot taken by [`PinWord::shadow_begin`]; consumed by
/// [`PinWord::shadow_commit`] or [`PinWord::shadow_still_clean`].
///
/// Not `Clone`/`Copy` on purpose: a token witnesses exactly one
/// begin→commit attempt, and an aborted attempt must re-begin.
#[derive(Debug)]
pub struct ShadowToken {
    version: u64,
}

impl ShadowToken {
    /// The version recorded at `shadow_begin` (diagnostics and tests).
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Outcome of a [`PinWord::shadow_commit`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowOutcome {
    /// The word is closed, no pins remain, and no write
    /// intervened since `shadow_begin`: the shadow copy is faithful and
    /// the caller may install it and retire the source copy.
    Committed,
    /// A writer bumped the version during the copy window — the shadow
    /// copy may be stale. The word is left *closed*; the caller must
    /// re-open it (abort) or restart the copy.
    RacedWrite,
    /// Optimistic pins did not drain within the spin budget. The word is
    /// left *closed*; the caller must re-open it (abort) and retry later.
    /// A pinned writer that has not yet recorded its write blocks on the
    /// descriptor mutex the caller holds, so an unbounded wait here would
    /// deadlock — the budget is what makes the protocol abort instead.
    Draining,
}

/// Outcome of one optimistic pin attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinAttempt {
    /// The pin was taken; the payload (frame id) identifies the copy.
    Pinned(u32),
    /// The word was closed the whole time — the copy is absent or the
    /// caller must use the slow path.
    Closed,
    /// The word was open when first observed but closed before the pin
    /// CAS succeeded: a transition raced the reader, who must restart
    /// into the slow path.
    Raced,
}

/// Seqlock-style version-plus-pin word (see module docs).
#[derive(Debug, Default)]
pub struct PinWord {
    word: AtomicU64,
    /// Frame id of the resident copy; valid while the word is open.
    /// Written before the opening CAS (ordered by its `Release`), read
    /// between a pinner's load and CAS (validated by the CAS itself).
    payload: AtomicU32,
}

impl PinWord {
    /// A closed word with no pins.
    pub const fn new() -> Self {
        PinWord {
            word: AtomicU64::new(0),
            payload: AtomicU32::new(0),
        }
    }

    /// Attempt to take one optimistic pin. Lock-free; never blocks.
    ///
    /// On [`PinAttempt::Pinned`] the returned payload is the frame id the
    /// slow path stored in the `open` call this pin was granted against.
    pub fn try_pin(&self) -> PinAttempt {
        // Mutant PinBlindPin replaces the full-word CAS below with a
        // check-then-increment, losing the "no pin lands after close
        // observed zero" guarantee; the eviction-vs-pin model check must
        // catch the pin that slips in after quiescence was claimed.
        #[cfg(spitfire_modelcheck)]
        if spitfire_modelcheck::mutation_active(spitfire_modelcheck::Mutation::PinBlindPin) {
            let w = self.word.load(Ordering::Acquire);
            if w & OPEN == 0 {
                return PinAttempt::Closed;
            }
            // relaxed: mutant code — the breakage under test is the
            // missing full-word CAS, not this payload read.
            let payload = self.payload.load(Ordering::Relaxed);
            self.word.fetch_add(1, Ordering::AcqRel);
            return PinAttempt::Pinned(payload);
        }
        let mut w = self.word.load(Ordering::Acquire);
        let was_open = w & OPEN != 0;
        loop {
            if w & OPEN == 0 {
                return if was_open {
                    PinAttempt::Raced
                } else {
                    PinAttempt::Closed
                };
            }
            debug_assert!(w & PIN_MASK < PIN_MASK, "optimistic pin count overflow");
            // relaxed: the CAS below validates this read — if the word
            // changed (close, or close + re-open with a different frame)
            // the CAS fails and we re-read. The acquire load above pairs
            // with `open`'s release CAS, making this payload store
            // visible.
            let payload = self.payload.load(Ordering::Relaxed);
            match self
                .word
                .compare_exchange_weak(w, w + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return PinAttempt::Pinned(payload),
                Err(cur) => w = cur,
            }
        }
    }

    /// Take one pin whatever the OPEN bit says. Slow path only: the
    /// caller holds the descriptor mutex, has seen the copy `Resident`
    /// under it, and so excludes every closer until it drops the mutex.
    /// A racing [`try_pin`](Self::try_pin) CAS fails on the changed count
    /// and retries, so neither pin is lost.
    pub fn pin_locked(&self) {
        // Mutant PinLockedSplit tears the RMW into load-then-store: a
        // fast-path pin landing in between is overwritten, and the
        // mutex-vs-fast-path model check must catch the closer that
        // trusts the short count.
        #[cfg(spitfire_modelcheck)]
        if spitfire_modelcheck::mutation_active(spitfire_modelcheck::Mutation::PinLockedSplit) {
            let w = self.word.load(Ordering::Acquire);
            self.word.store(w + 1, Ordering::Release);
            return;
        }
        let prev = self.word.fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev & PIN_MASK < PIN_MASK, "pin count overflow");
    }

    /// Drop one pin, however it was taken. Lock-free.
    ///
    /// A no-op when the count is already zero: after a simulated crash the
    /// descriptor a guard pinned may have been discarded and re-created,
    /// so a late unpin must never underflow into the OPEN/version bits.
    pub fn unpin(&self) {
        // relaxed: just a CAS seed; the CAS validates the value and
        // carries the ordering.
        let mut w = self.word.load(Ordering::Relaxed);
        loop {
            if w & PIN_MASK == 0 {
                return;
            }
            // Release: the reader's page accesses happen-before a closer
            // observing the decremented count. (Mutant PinUnpinRelaxed
            // drops the release; the quiescence model check must then see
            // the reader's page access race the transition.)
            // relaxed: the weak arm is the seeded mutant; the CAS
            // failure order is a plain re-read of the seed.
            let success = mutant_ordering!(PinUnpinRelaxed, Ordering::Release, Ordering::Relaxed);
            match self
                .word
                .compare_exchange_weak(w, w - 1, success, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(cur) => w = cur,
            }
        }
    }

    /// Open the word for optimistic pins against `frame`. Slow path only
    /// (descriptor mutex held). Idempotent: re-opening an open word only
    /// refreshes the payload.
    pub fn open(&self, frame: u32) {
        // relaxed: the payload store is published by the opening CAS's
        // release below; the word load is just a CAS seed.
        self.payload.store(frame, Ordering::Relaxed);
        let mut w = self.word.load(Ordering::Relaxed);
        loop {
            if w & OPEN != 0 {
                return;
            }
            let new = (w | OPEN).wrapping_add(VERSION_STEP);
            // Release publishes the payload store above to pinners whose
            // acquire load sees the OPEN bit. (Mutant PinOpenRelaxed drops
            // the release; a pinner may then read a stale frame id, which
            // the pin model check asserts against.)
            // relaxed: the weak arm is the seeded mutant; the CAS
            // failure order is a plain re-read of the seed.
            let success = mutant_ordering!(PinOpenRelaxed, Ordering::Release, Ordering::Relaxed);
            match self
                .word
                .compare_exchange_weak(w, new, success, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(cur) => w = cur,
            }
        }
    }

    /// Close the word and return the pin count at that instant. Slow path
    /// only (descriptor mutex held). Idempotent: closing a closed word
    /// returns the current count without bumping the version.
    ///
    /// A return of zero proves the copy has no pins and can acquire none
    /// until re-opened; non-zero means readers are draining and the caller
    /// must re-open (abort the transition) or retry.
    pub fn close(&self) -> u32 {
        let mut w = self.word.load(Ordering::Acquire);
        loop {
            if w & OPEN == 0 {
                return (w & PIN_MASK) as u32;
            }
            let new = (w & !OPEN).wrapping_add(VERSION_STEP);
            // AcqRel: acquire pairs with draining unpins' release (their
            // page reads happen-before a zero count observed here).
            // (Mutant PinCloseRelaxed drops both sides; the quiescence
            // model check must then see the last reader's page access race
            // the transition that trusted the zero count.)
            // relaxed: the weak arm is the seeded mutant only.
            let success = mutant_ordering!(PinCloseRelaxed, Ordering::AcqRel, Ordering::Relaxed);
            match self
                .word
                .compare_exchange_weak(w, new, success, Ordering::Acquire)
            {
                Ok(prev) => return (prev & PIN_MASK) as u32,
                Err(cur) => w = cur,
            }
        }
    }

    /// Bump the version without touching the OPEN bit or the pin count —
    /// the write-end marker of the shadow-copy protocol. Called (under
    /// the descriptor mutex) when a writer finishes mutating the copy's
    /// bytes, so a concurrent [`PinWord::shadow_commit`] observes that
    /// its copy raced a write and aborts.
    pub fn bump_version(&self) {
        // AcqRel: the writer's byte stores happen-before any commit that
        // observes the bumped version (the descriptor mutex also orders
        // the two, but the word must not be weaker than its observers).
        self.word.fetch_add(VERSION_STEP, Ordering::AcqRel);
    }

    /// Begin a shadow copy of the resident copy this word protects:
    /// record the current version *without closing the word*, so
    /// optimistic readers keep hitting the source copy while the caller
    /// copies it into the destination tier. Slow path only (descriptor
    /// mutex held). Returns `None` if the word is closed (no stably
    /// resident copy to shadow).
    pub fn shadow_begin(&self) -> Option<ShadowToken> {
        let w = self.word.load(Ordering::Acquire);
        if w & OPEN == 0 {
            return None;
        }
        Some(ShadowToken {
            version: w / VERSION_STEP,
        })
    }

    /// Attempt to commit a shadow copy begun with [`PinWord::shadow_begin`]:
    /// close the word (stopping new optimistic pins), verify no write
    /// bumped the version during the copy window, and wait up to
    /// `spin_budget` iterations for outstanding pins to drain.
    /// Slow path only (descriptor mutex held).
    ///
    /// On [`ShadowOutcome::Committed`] the word is closed with zero pins:
    /// the copy is proven faithful and quiescent, and the caller installs
    /// the shadow copy / retires the source. On the two failure outcomes
    /// the word is also left closed and the caller must re-open it to
    /// abort (see each variant's docs). The version check is what makes
    /// the copy *transactional*: a writer's `bump_version` between begin
    /// and commit invalidates the token, because the bytes the caller
    /// copied may predate that write.
    pub fn shadow_commit(&self, token: &ShadowToken, spin_budget: u32) -> ShadowOutcome {
        let mut pins = self.close();
        // Mutant ShadowSkipVersionCheck drops the staleness test below:
        // a copy that raced a writer then commits anyway, and the shadow
        // protocol model check must observe the lost update.
        #[cfg(spitfire_modelcheck)]
        let skip_check = spitfire_modelcheck::mutation_active(
            spitfire_modelcheck::Mutation::ShadowSkipVersionCheck,
        );
        #[cfg(not(spitfire_modelcheck))]
        let skip_check = false;
        // The close above bumped the version exactly once; any other
        // delta means a writer (or a foreign transition) intervened.
        let expected = token.version.wrapping_add(1);
        if !skip_check && self.word.load(Ordering::Acquire) / VERSION_STEP != expected {
            return ShadowOutcome::RacedWrite;
        }
        let mut budget = spin_budget;
        while pins > 0 {
            if budget == 0 {
                return ShadowOutcome::Draining;
            }
            budget -= 1;
            std::hint::spin_loop();
            pins = self.pins();
        }
        // Re-check after the drain. A pinned writer bumps the version
        // *before* it unpins, and both are RMWs on this same word, so any
        // load that observes the zero pin count also observes the bump in
        // the word's modification order — a write that completed during
        // the drain cannot slip past this check.
        if !skip_check && self.word.load(Ordering::Acquire) / VERSION_STEP != expected {
            return ShadowOutcome::RacedWrite;
        }
        ShadowOutcome::Committed
    }

    /// Whether the shadow copy begun with `token` is still faithful:
    /// the word is open and no write bumped the version. Slow path only
    /// (descriptor mutex held). This is the commit check for shadow
    /// *write-backs* that never close the word at all (`flush_page`):
    /// because the flushed bytes only mark the copy clean, a racing
    /// write needs no quiescence wait — a stale flush is simply detected
    /// and the copy stays dirty.
    pub fn shadow_still_clean(&self, token: &ShadowToken) -> bool {
        let w = self.word.load(Ordering::Acquire);
        w & OPEN != 0 && w / VERSION_STEP == token.version
    }

    /// Current pin count. Under the descriptor mutex no slow-path pin can
    /// appear, so a zero read there can only grow through `try_pin` on an
    /// open word.
    pub fn pins(&self) -> u32 {
        (self.word.load(Ordering::Acquire) & PIN_MASK) as u32
    }

    /// Whether the word is currently open (diagnostics; racy by nature —
    /// only `try_pin` gives an authoritative answer).
    pub fn is_open(&self) -> bool {
        self.word.load(Ordering::Acquire) & OPEN != 0
    }

    /// Version counter (diagnostics and tests). Every *effective* open or
    /// close transition bumps it exactly once; idempotent re-opens and
    /// re-closes do not. It is what invalidates a pinner's CAS across a
    /// close/re-open, so tests assert its exact arithmetic.
    pub fn version(&self) -> u64 {
        self.word.load(Ordering::Acquire) / VERSION_STEP
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;

    #[test]
    fn closed_word_rejects_pins() {
        let w = PinWord::new();
        assert_eq!(w.try_pin(), PinAttempt::Closed);
        assert_eq!(w.pins(), 0);
        assert!(!w.is_open());
    }

    #[test]
    fn pin_unpin_round_trip() {
        let w = PinWord::new();
        w.open(7);
        assert!(w.is_open());
        assert_eq!(w.try_pin(), PinAttempt::Pinned(7));
        assert_eq!(w.try_pin(), PinAttempt::Pinned(7));
        assert_eq!(w.pins(), 2);
        w.unpin();
        w.unpin();
        assert_eq!(w.pins(), 0);
        // Extra unpins never underflow.
        w.unpin();
        assert_eq!(w.pins(), 0);
        assert!(w.is_open());
    }

    #[test]
    fn close_reports_outstanding_pins() {
        let w = PinWord::new();
        w.open(3);
        assert_eq!(w.try_pin(), PinAttempt::Pinned(3));
        assert_eq!(w.close(), 1);
        // Closed: no new pins.
        assert_eq!(w.try_pin(), PinAttempt::Closed);
        // The straggler drains; closing again sees zero.
        w.unpin();
        assert_eq!(w.close(), 0);
    }

    #[test]
    fn reopen_changes_payload() {
        let w = PinWord::new();
        w.open(1);
        assert_eq!(w.close(), 0);
        w.open(2);
        assert_eq!(w.try_pin(), PinAttempt::Pinned(2));
        w.unpin();
    }

    #[test]
    fn open_is_idempotent() {
        let w = PinWord::new();
        w.open(5);
        assert_eq!(w.try_pin(), PinAttempt::Pinned(5));
        w.open(5);
        assert_eq!(w.pins(), 1, "re-open preserves the pin count");
        w.unpin();
    }

    #[test]
    fn unpin_on_closed_word_with_pins_drains() {
        let w = PinWord::new();
        w.open(9);
        assert_eq!(w.try_pin(), PinAttempt::Pinned(9));
        assert_eq!(w.close(), 1);
        w.unpin();
        assert_eq!(w.pins(), 0);
        assert!(!w.is_open());
    }

    #[test]
    fn shadow_commit_on_quiescent_word() {
        let w = PinWord::new();
        w.open(4);
        let t = w.shadow_begin().expect("open word");
        // No readers, no writes: commit succeeds and leaves the word
        // closed (the caller installs the new copy before re-opening).
        assert_eq!(w.shadow_commit(&t, 0), ShadowOutcome::Committed);
        assert!(!w.is_open());
        assert_eq!(w.pins(), 0);
    }

    #[test]
    fn shadow_begin_requires_open_word() {
        let w = PinWord::new();
        assert!(w.shadow_begin().is_none());
    }

    #[test]
    fn shadow_commit_detects_racing_write() {
        let w = PinWord::new();
        w.open(4);
        let t = w.shadow_begin().unwrap();
        w.bump_version(); // a writer finished during the copy window
        assert_eq!(w.shadow_commit(&t, 16), ShadowOutcome::RacedWrite);
        // Abort: the caller re-opens and a fresh attempt can succeed.
        w.open(4);
        let t = w.shadow_begin().unwrap();
        assert_eq!(w.shadow_commit(&t, 0), ShadowOutcome::Committed);
    }

    #[test]
    fn shadow_commit_times_out_on_pinned_readers() {
        let w = PinWord::new();
        w.open(4);
        let t = w.shadow_begin().unwrap();
        assert_eq!(w.try_pin(), PinAttempt::Pinned(4));
        assert_eq!(w.shadow_commit(&t, 8), ShadowOutcome::Draining);
        assert!(!w.is_open(), "failed commit leaves the word closed");
        w.unpin();
        w.open(4);
        let t = w.shadow_begin().unwrap();
        assert_eq!(w.shadow_commit(&t, 0), ShadowOutcome::Committed);
    }

    #[test]
    fn shadow_commit_drains_within_budget() {
        let w = Arc::new(PinWord::new());
        w.open(2);
        assert_eq!(w.try_pin(), PinAttempt::Pinned(2));
        let t = w.shadow_begin().unwrap();
        let unpinner = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.unpin())
        };
        // A generous budget outlasts the unpinning thread.
        assert_eq!(w.shadow_commit(&t, u32::MAX), ShadowOutcome::Committed);
        unpinner.join().unwrap();
    }

    #[test]
    fn shadow_still_clean_tracks_writes_and_closes() {
        let w = PinWord::new();
        w.open(6);
        let t = w.shadow_begin().unwrap();
        assert!(w.shadow_still_clean(&t));
        w.bump_version();
        assert!(!w.shadow_still_clean(&t), "a write dirties the token");
        w.close();
        assert!(!w.shadow_still_clean(&t), "a closed word is never clean");
    }

    #[test]
    fn bump_version_preserves_open_and_pins() {
        let w = PinWord::new();
        w.open(3);
        assert_eq!(w.try_pin(), PinAttempt::Pinned(3));
        let v = w.version();
        w.bump_version();
        assert_eq!(w.version(), v + 1);
        assert!(w.is_open());
        assert_eq!(w.pins(), 1);
        w.unpin();
    }

    #[test]
    fn pin_locked_counts_on_open_and_closed_words() {
        let w = PinWord::new();
        // A closed word (a fine-grained copy's, say) still counts.
        w.pin_locked();
        assert_eq!(w.pins(), 1);
        assert_eq!(w.try_pin(), PinAttempt::Closed);
        assert_eq!(w.close(), 1, "close reports the slow-path pin");
        w.open(4);
        let v = w.version();
        assert_eq!(w.try_pin(), PinAttempt::Pinned(4));
        w.pin_locked();
        assert_eq!(w.pins(), 3, "both kinds add to one count");
        assert_eq!(w.version(), v, "a pin moves no version");
        assert!(w.is_open());
        assert_eq!(w.close(), 3);
        for _ in 0..3 {
            w.unpin();
        }
        assert_eq!(w.pins(), 0);
    }

    /// A closer and many pinners race; the closer only proceeds on a zero
    /// count, and whenever it does, no pin may be granted until it
    /// re-opens. Model the protected state with a flag that must never be
    /// observed "torn".
    #[test]
    fn close_excludes_new_pins() {
        let w = Arc::new(PinWord::new());
        let resident = Arc::new(AtomicBool::new(true));
        let stop = Arc::new(AtomicBool::new(false));
        // Pins taken so far, across all pinners: the closer keeps cycling
        // until some pinner has been scheduled at all, however busy the
        // host is.
        let progress = Arc::new(AtomicU64::new(0));
        w.open(1);

        let pinners: Vec<_> = (0..4)
            .map(|_| {
                let w = Arc::clone(&w);
                let resident = Arc::clone(&resident);
                let stop = Arc::clone(&stop);
                let progress = Arc::clone(&progress);
                std::thread::spawn(move || {
                    let mut pinned = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if let PinAttempt::Pinned(_) = w.try_pin() {
                            assert!(
                                resident.load(Ordering::Relaxed),
                                "pinned a non-resident copy"
                            );
                            std::hint::spin_loop();
                            assert!(
                                resident.load(Ordering::Relaxed),
                                "copy vanished under a pin"
                            );
                            w.unpin();
                            pinned += 1;
                            progress.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    pinned
                })
            })
            .collect();

        // Miri explores this loop orders of magnitude slower; a handful of
        // transitions still exercises every code path.
        const TRANSITIONS: u32 = if cfg!(miri) { 10 } else { 200 };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let mut transitions = 0u32;
        while transitions < TRANSITIONS
            || (progress.load(Ordering::Relaxed) == 0 && std::time::Instant::now() < deadline)
        {
            if w.close() == 0 {
                // No optimistic pins and none can be taken: transition.
                resident.store(false, Ordering::Relaxed);
                std::hint::spin_loop();
                resident.store(true, Ordering::Relaxed);
                transitions += 1;
            }
            w.open(1);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = pinners.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "pinners made progress");
        assert_eq!(w.close(), 0);
    }
}
