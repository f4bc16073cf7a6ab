//! The lock-free published clock snapshot — the serving-path half of
//! the sync-core / serving-front split.
//!
//! The paper's read operation is pure: a time request is answered with
//! `⟨C_i(t), E_i(t)⟩` where `E_i(t) = ε_i + (C_i(t) − r_i)·δ_i` (rule
//! MM-1) — a function of the last published `(r_i, ε_i)` pair and the
//! current clock reading, touching none of the synchronization
//! machinery. That makes the read path trivially parallelisable *if*
//! the `(r_i, ε_i)` pair can be read consistently without taking the
//! sync actor's lock (or, worse, funnelling every request through its
//! single-threaded event loop).
//!
//! [`SnapshotCell`] is that publication point: a seqlock. The sync
//! core (single writer) calls [`SnapshotCell::publish`] at every reset
//! and lifecycle transition; any number of serving threads call
//! [`SnapshotCell::read`] concurrently, wait-free on the writer's
//! side and obstruction-free on theirs (a reader retries only while a
//! write is in flight — and writes are rare: one per adoption, i.e.
//! per resync period, not per request).
//!
//! ## Memory-ordering argument
//!
//! The payload is stored as individually atomic `u64` words, so no
//! load ever observes a torn *word* (this is what keeps the whole
//! construction inside safe Rust). Tuple consistency across words is
//! the seqlock's job. A `Release` access orders only what precedes it
//! and an `Acquire` access only what follows it, so two fences do it:
//!
//! * the writer bumps `seq` to **odd**, issues `fence(Release)`, stores
//!   the words (`Relaxed`), then stores the **even** successor with
//!   `Release`. A reader whose `Acquire` load sees that even value sees
//!   every word before it; the fence keeps the odd bump before the words.
//! * a reader loads `seq` (`Acquire`), retries on odd, loads the words
//!   (`Relaxed`), issues `fence(Acquire)`, and re-loads `seq`
//!   (`Relaxed`). If any word came from a later write, the two fences
//!   synchronise and the re-load sees at least that write's odd bump;
//!   so equal even values prove the words are one generation's.
//!
//! Without the fences (a `Release` bump and an `Acquire` re-read) the
//! word stores may pass the bump and the word loads the re-read: the
//! old code held only under x86-TSO, where both fences compile to no
//! instruction.
//!
//! Belt and braces, every payload carries a mixing checksum over its
//! words, verified on read — so even a hypothetical ordering bug (or a
//! cosmic-ray word flip) surfaces as a retry, never as a garbage
//! estimate. The stress test in `tests/snapshot_stress.rs` hammers
//! exactly this property from eight threads.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use crate::estimate::{ErrorState, TimeEstimate};
use crate::time::{DriftRate, Duration, Timestamp};

/// Number of payload words in a [`SnapshotCell`] (checksum excluded).
const WORDS: usize = 7;

/// One published serving state: the rule MM-1 triple plus the affine
/// clock map and lifecycle tag a detached serving thread needs to
/// answer `⟨C, E⟩` on its own.
///
/// * `reset_clock`, `inherited_error`, `drift_bound` — the MM-1 state
///   `(r, ε, δ)`: given a clock reading `C`, the served error is
///   `E = ε + (C − r)·δ`.
/// * `base_clock`, `base_real` — the served clock reading and the
///   publisher's real-time axis value at the publish instant, so a
///   thread that cannot read the hardware clock extrapolates
///   `C(t) ≈ base_clock + (t − base_real)` (the claimed rate is 1; the
///   approximation error over one resync period is bounded by the true
///   drift, which rule MM-1's `δ` already budgets for).
/// * `epoch` — the publisher's crash–restart lifecycle epoch; bumps
///   prove a snapshot straddled a crash.
/// * `serving` — false while the publisher is crashed, booting after
///   an amnesia restart, or departed: readers must refuse (the actor
///   answers `Uninitialized` or stays silent in those states, and the
///   front must not serve stale time on its behalf).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSnapshot {
    /// Clock reading `r` at the last reset.
    pub reset_clock: Timestamp,
    /// Error `ε` inherited at that reset.
    pub inherited_error: Duration,
    /// Claimed drift bound `δ`.
    pub drift_bound: DriftRate,
    /// Served clock reading at the publish instant.
    pub base_clock: Timestamp,
    /// Publisher's real-time ("seconds since runtime start") at the
    /// publish instant.
    pub base_real: Timestamp,
    /// Crash–restart lifecycle epoch at the publish instant.
    pub epoch: u32,
    /// Whether the publisher was actively serving time.
    pub serving: bool,
}

impl ClockSnapshot {
    /// The reply `⟨C, E⟩` for clock reading `clock_now`, by rule MM-1 —
    /// the exact float-op sequence of [`ErrorState::estimate_at`], so a
    /// snapshot-served reading is bit-identical to an actor-served one
    /// taken at the same clock reading.
    ///
    /// Readings that precede the reset point (possible only through
    /// affine extrapolation racing a fresh publish) are clamped to it
    /// rather than panicking: the serving path must never fall over on
    /// a boundary the sync core has already moved past.
    #[must_use]
    pub fn estimate_at(&self, clock_now: Timestamp) -> TimeEstimate {
        let clock = clock_now.max(self.reset_clock);
        ErrorState::new(self.reset_clock, self.inherited_error, self.drift_bound).estimate_at(clock)
    }

    /// The extrapolated clock reading at publisher real time
    /// `real_now`, via the affine map `base_clock + (real_now −
    /// base_real)` (claimed rate 1).
    #[must_use]
    pub fn clock_at(&self, real_now: Timestamp) -> Timestamp {
        self.base_clock + (real_now - self.base_real)
    }

    /// The full serving-path read: extrapolate the clock to
    /// `real_now`, then apply rule MM-1. `None` while the publisher is
    /// not serving (crashed, booting, or departed).
    #[must_use]
    pub fn serve(&self, real_now: Timestamp) -> Option<TimeEstimate> {
        if !self.serving {
            return None;
        }
        Some(self.estimate_at(self.clock_at(real_now)))
    }

    /// The payload as checksum-covered words (field order fixed).
    fn to_words(self) -> [u64; WORDS] {
        [
            self.reset_clock.as_secs().to_bits(),
            self.inherited_error.as_secs().to_bits(),
            self.drift_bound.as_f64().to_bits(),
            self.base_clock.as_secs().to_bits(),
            self.base_real.as_secs().to_bits(),
            u64::from(self.epoch),
            u64::from(self.serving),
        ]
    }

    /// Rebuilds a payload from its words. `None` when a word violates
    /// a field invariant (non-finite float, negative error, boolean
    /// out of range) — possible only for a corrupted payload, which
    /// the checksum should already have rejected.
    fn from_words(words: &[u64; WORDS]) -> Option<ClockSnapshot> {
        let finite = |w: u64| Some(f64::from_bits(w)).filter(|v| v.is_finite());
        let error = finite(words[1]).filter(|&e| e >= 0.0)?;
        let drift = finite(words[2]).filter(|&d| (0.0..1.0).contains(&d))?;
        if words[5] > u64::from(u32::MAX) || words[6] > 1 {
            return None;
        }
        Some(ClockSnapshot {
            reset_clock: Timestamp::from_secs(finite(words[0])?),
            inherited_error: Duration::from_secs(error),
            drift_bound: DriftRate::new(drift),
            base_clock: Timestamp::from_secs(finite(words[3])?),
            base_real: Timestamp::from_secs(finite(words[4])?),
            epoch: words[5] as u32,
            serving: words[6] == 1,
        })
    }
}

/// Mixes the payload words (and the generation) into a 64-bit
/// checksum — an FNV-1a-style fold with an avalanche finish, strong
/// enough that any cross-generation mix of words fails to verify.
fn mix(words: &[u64; WORDS], generation: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ generation;
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h ^= h >> 32;
    h.wrapping_mul(0xd6e8_feb8_6659_fd93)
}

/// The seqlock cell: one writer (the sync core), many readers (the
/// serving front). See the module docs for the ordering argument.
pub struct SnapshotCell {
    /// Even: a coherent payload of generation `seq/2` is published.
    /// Odd: a write is in flight. Zero: nothing published yet.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
    checksum: AtomicU64,
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for SnapshotCell {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotCell {
    /// An empty cell: reads return `None` until the first publish.
    #[must_use]
    pub fn new() -> Self {
        SnapshotCell {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
            checksum: AtomicU64::new(0),
        }
    }

    /// Publishes a new snapshot. Single-writer: only the sync core may
    /// call this, and never concurrently with itself.
    pub fn publish(&self, snapshot: &ClockSnapshot) {
        let words = snapshot.to_words();
        // Odd: write in flight. The fence orders the bump before the
        // word stores from any reader's viewpoint (a Release RMW alone
        // orders only what precedes it).
        let prev = self.seq.fetch_add(1, Ordering::Release);
        fence(Ordering::Release);
        debug_assert!(
            prev.is_multiple_of(2),
            "concurrent writers on a SnapshotCell"
        );
        let generation = prev / 2 + 1;
        for (slot, &word) in self.words.iter().zip(&words) {
            slot.store(word, Ordering::Relaxed);
        }
        self.checksum
            .store(mix(&words, generation), Ordering::Relaxed);
        // Even successor: payload coherent again.
        self.seq.store(prev + 2, Ordering::Release);
    }

    /// Reads the current snapshot, retrying while a write is in
    /// flight. `None` until the first publish.
    #[must_use]
    pub fn read(&self) -> Option<ClockSnapshot> {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 == 0 {
                return None;
            }
            if !s1.is_multiple_of(2) {
                std::hint::spin_loop();
                continue;
            }
            let mut words = [0u64; WORDS];
            for (word, slot) in words.iter_mut().zip(&self.words) {
                *word = slot.load(Ordering::Relaxed);
            }
            let checksum = self.checksum.load(Ordering::Relaxed);
            // The fence keeps the word loads above the re-read and pairs
            // with the writer's fence; only an unchanged even value
            // proves the words are one generation's.
            fence(Ordering::Acquire);
            let s2 = self.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                std::hint::spin_loop();
                continue;
            }
            if mix(&words, s1 / 2) != checksum {
                // A torn read the sequence check somehow missed (or a
                // corrupted word): retry, never serve it.
                std::hint::spin_loop();
                continue;
            }
            match ClockSnapshot::from_words(&words) {
                Some(snapshot) => return Some(snapshot),
                None => continue,
            }
        }
    }

    /// The publication count so far (generation of the last coherent
    /// payload).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.seq.load(Ordering::Acquire) / 2
    }
}

/// A cloneable, thread-safe handle for the serving front: reads the
/// publisher's [`SnapshotCell`] without any access to the sync core.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
}

impl SnapshotReader {
    /// Wraps a shared cell.
    #[must_use]
    pub fn new(cell: Arc<SnapshotCell>) -> Self {
        SnapshotReader { cell }
    }

    /// The current snapshot, if one has been published.
    #[must_use]
    pub fn read(&self) -> Option<ClockSnapshot> {
        self.cell.read()
    }

    /// One-call serving read: `⟨C, E⟩` at publisher real time
    /// `real_now`, or `None` when nothing is published or the
    /// publisher is not serving.
    #[must_use]
    pub fn serve(&self, real_now: Timestamp) -> Option<TimeEstimate> {
        self.cell.read()?.serve(real_now)
    }

    /// The publication count so far.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    fn snapshot(r: f64, eps: f64) -> ClockSnapshot {
        ClockSnapshot {
            reset_clock: ts(r),
            inherited_error: dur(eps),
            drift_bound: DriftRate::new(1e-4),
            base_clock: ts(r + 0.25),
            base_real: ts(r + 0.25),
            epoch: 3,
            serving: true,
        }
    }

    #[test]
    fn empty_cell_reads_none() {
        let cell = SnapshotCell::new();
        assert_eq!(cell.read(), None);
        assert_eq!(cell.generation(), 0);
    }

    #[test]
    fn publish_then_read_roundtrips() {
        let cell = SnapshotCell::new();
        let snap = snapshot(100.0, 0.02);
        cell.publish(&snap);
        assert_eq!(cell.read(), Some(snap));
        assert_eq!(cell.generation(), 1);
        let newer = snapshot(110.0, 0.01);
        cell.publish(&newer);
        assert_eq!(cell.read(), Some(newer));
        assert_eq!(cell.generation(), 2);
    }

    #[test]
    fn estimate_matches_error_state_bit_for_bit() {
        let snap = snapshot(1234.5, 0.037);
        let state = ErrorState::new(snap.reset_clock, snap.inherited_error, snap.drift_bound);
        for c in [1234.5, 1234.6, 2000.0, 99999.25] {
            let via_snapshot = snap.estimate_at(ts(c));
            let via_state = state.estimate_at(ts(c));
            assert_eq!(
                via_snapshot.time().as_secs().to_bits(),
                via_state.time().as_secs().to_bits()
            );
            assert_eq!(
                via_snapshot.error().as_secs().to_bits(),
                via_state.error().as_secs().to_bits()
            );
        }
    }

    #[test]
    fn pre_reset_reading_is_clamped_not_panicking() {
        let snap = snapshot(100.0, 0.05);
        let e = snap.estimate_at(ts(99.0));
        assert_eq!(e.time(), ts(100.0));
        assert_eq!(e.error(), dur(0.05));
    }

    #[test]
    fn clock_extrapolates_from_the_publish_base() {
        // Base pair is (C, t) = (100.25, 100.25): rate-1 extrapolation.
        let snap = snapshot(100.0, 0.01);
        assert_eq!(snap.clock_at(ts(100.75)), ts(100.75));
        let served = snap.serve(ts(101.25)).unwrap();
        assert_eq!(served.time(), ts(101.25));
        // E = ε + (C − r)·δ = 0.01 + 1.25·1e-4
        assert!((served.error().as_secs() - (0.01 + 1.25e-4)).abs() < 1e-12);
    }

    #[test]
    fn not_serving_snapshot_refuses() {
        let mut snap = snapshot(50.0, 0.01);
        snap.serving = false;
        assert_eq!(snap.serve(ts(50.5)), None);
        let cell = SnapshotCell::new();
        cell.publish(&snap);
        let reader = SnapshotReader::new(Arc::new(cell));
        assert_eq!(reader.serve(ts(50.5)), None);
        assert!(reader.read().is_some(), "the payload itself stays readable");
    }

    #[test]
    fn reader_handle_clones_share_the_cell() {
        let cell = Arc::new(SnapshotCell::new());
        let reader = SnapshotReader::new(Arc::clone(&cell));
        let clone = reader.clone();
        cell.publish(&snapshot(7.0, 0.001));
        assert_eq!(reader.generation(), 1);
        assert_eq!(clone.read(), reader.read());
    }

    #[test]
    fn corrupted_word_is_rejected_by_the_checksum() {
        let cell = SnapshotCell::new();
        cell.publish(&snapshot(10.0, 0.5));
        // Flip one payload bit behind the seqlock's back; the read loop
        // must not return the corrupted payload. (It would spin forever
        // on it, so probe via a fresh publish restoring coherence.)
        let bad = cell.words[1].load(Ordering::Relaxed) ^ 1;
        cell.words[1].store(bad, Ordering::Relaxed);
        let words: [u64; WORDS] = std::array::from_fn(|i| cell.words[i].load(Ordering::Relaxed));
        assert_ne!(
            mix(&words, cell.generation()),
            cell.checksum.load(Ordering::Relaxed),
            "checksum must detect the flip"
        );
        cell.publish(&snapshot(11.0, 0.25));
        assert_eq!(cell.read().unwrap().reset_clock, ts(11.0));
    }

    #[test]
    fn from_words_rejects_invariant_violations() {
        let good = snapshot(1.0, 0.1).to_words();
        assert!(ClockSnapshot::from_words(&good).is_some());
        for (slot, bad) in [
            (0, f64::NAN.to_bits()),
            (1, (-1.0f64).to_bits()),
            (2, 2.0f64.to_bits()),
            (5, u64::from(u32::MAX) + 1),
            (6, 2),
        ] {
            let mut words = good;
            words[slot] = bad;
            assert!(
                ClockSnapshot::from_words(&words).is_none(),
                "word {slot} = {bad:#x} accepted"
            );
        }
    }
}
