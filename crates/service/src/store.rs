//! Stable storage for the crash–restart lifecycle.
//!
//! §5 of the paper assumes a recovering server can tell whether it
//! still *has* a trustworthy interval. [`StableStore`] is that
//! distinction made explicit: a server persists `(r_i, ε_i)` — the
//! clock reading at its last reset and the error it inherited there —
//! plus the real time of the write, at every reset. On restart it
//! rehydrates and re-derives its maximum error per rule MM-1,
//! `E = ε + (now − r)·δ`, grown across the downtime; a server whose
//! store was lost (an *amnesia* restart) rehydrates nothing, must
//! treat its error as unbounded, and re-acquires the time from a
//! quorum before serving it.

use tempo_core::{Duration, Timestamp};

/// The `(r_i, ε_i, last reset timestamp)` triple a server persists at
/// each reset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistedState {
    /// The clock reading `r_i` at the last reset.
    pub reset_clock: Timestamp,
    /// The inherited error `ε_i` written by that reset.
    pub inherited_error: Duration,
    /// Real (simulated) time at which the reset was persisted. Kept
    /// for audit; MM-1 rehydration needs only the clock-side pair.
    pub reset_at: Timestamp,
}

/// The `(view, high-water mark)` pair a cluster-time replica persists
/// before releasing any timestamp: the highest view it has adopted and
/// the highest timestamp it has promised never to reissue. A new
/// primary's quorum read takes the max over acked marks, so as long as
/// the pair hits stable storage *before* the reply leaves, monotonicity
/// survives crashes — even amnesia restarts of a minority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterState {
    /// The highest view this replica has adopted.
    pub view: u64,
    /// The highest cluster timestamp (µs ticks) this replica has
    /// durably promised (issued, acked, or learned via replication).
    pub high_water: u64,
}

/// Durable storage surviving a server crash.
///
/// A state machine keeps its durable record as a plain
/// [`MemoryStore`] value: durability here means "survives the
/// *crash*", which in a discrete-event world is simply "not wiped when
/// the lifecycle machine crashes the actor". A host that must survive
/// the *process* mirrors that value to disk after every callback
/// (`tempo_transport::UdpRuntime`). An amnesia restart models a lost
/// disk by calling [`StableStore::wipe`] before rehydrating.
pub trait StableStore: std::fmt::Debug {
    /// Records the state written by a reset, replacing any previous
    /// record.
    fn persist(&mut self, state: PersistedState);

    /// The most recently persisted state, if any survives.
    fn load(&self) -> Option<PersistedState>;

    /// Destroys the store's contents (the amnesia restart path).
    fn wipe(&mut self);

    /// Records the cluster-time `(view, high-water)` pair, replacing
    /// any previous record.
    fn persist_cluster(&mut self, state: ClusterState);

    /// The most recently persisted cluster state, if any survives.
    fn load_cluster(&self) -> Option<ClusterState>;
}

/// The durable record itself: a single slot (plus a second slot for the
/// cluster-time record), a plain value a host can compare and copy.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct MemoryStore {
    state: Option<PersistedState>,
    cluster: Option<ClusterState>,
}

impl MemoryStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        MemoryStore::default()
    }
}

impl StableStore for MemoryStore {
    fn persist(&mut self, state: PersistedState) {
        self.state = Some(state);
    }

    fn load(&self) -> Option<PersistedState> {
        self.state
    }

    fn wipe(&mut self) {
        self.state = None;
        self.cluster = None;
    }

    fn persist_cluster(&mut self, state: ClusterState) {
        self.cluster = Some(state);
    }

    fn load_cluster(&self) -> Option<ClusterState> {
        self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(r: f64, eps: f64, at: f64) -> PersistedState {
        PersistedState {
            reset_clock: Timestamp::from_secs(r),
            inherited_error: Duration::from_secs(eps),
            reset_at: Timestamp::from_secs(at),
        }
    }

    #[test]
    fn empty_store_loads_nothing() {
        assert_eq!(MemoryStore::new().load(), None);
    }

    #[test]
    fn persist_overwrites_and_load_round_trips() {
        let mut store = MemoryStore::new();
        store.persist(state(10.0, 0.01, 10.002));
        store.persist(state(20.0, 0.005, 20.001));
        assert_eq!(store.load(), Some(state(20.0, 0.005, 20.001)));
    }

    #[test]
    fn wipe_is_amnesia() {
        let mut store = MemoryStore::new();
        store.persist(state(10.0, 0.01, 10.0));
        store.wipe();
        assert_eq!(store.load(), None);
    }

    #[test]
    fn cluster_slot_round_trips_and_wipes() {
        let mut store = MemoryStore::new();
        assert_eq!(store.load_cluster(), None);
        let cs = ClusterState {
            view: 3,
            high_water: 12_500_000,
        };
        store.persist_cluster(cs);
        assert_eq!(store.load_cluster(), Some(cs));
        // The two slots are independent until a wipe takes both.
        assert_eq!(store.load(), None);
        store.persist(state(1.0, 0.1, 1.0));
        store.wipe();
        assert_eq!(store.load_cluster(), None);
        assert_eq!(store.load(), None);
    }
}
