//! # tempo-telemetry
//!
//! One typed event stream for the whole tempo reproduction.
//!
//! The paper's experience sections (§3–§4 of Marzullo & Owicki 1983)
//! are *observations* of a live service: how fast error grows between
//! resynchronizations, what a recovering server adopted, which peers
//! stopped answering. This crate gives every layer a single way to
//! report such facts:
//!
//! * [`TelemetryEvent`] — a typed enum covering clock steps, message
//!   send/recv/drop/duplicate, round begin/adopt/reject (with the
//!   MM-2/IM-2 inputs), timeout/retry, peer-health transitions,
//!   degraded-mode enter/exit, recovery, join/leave, and periodic
//!   sample snapshots,
//! * [`Observer`] — a sink with a cheap [`Observer::enabled`] gate so
//!   producers can skip building events nobody wants,
//! * [`Bus`] — a fan-out dispatcher with a lazy
//!   [`Bus::emit_with`] API, an aggregate kind mask, and a count of the
//!   events offered, from which [`Bus::dropped_events`] reports what a
//!   bounded post-mortem ring would have evicted.
//!
//! A disabled bus ([`Bus::disabled`]) is a single `Option` check per
//! emission and never builds the event, so instrumented code costs
//! near zero when nobody is listening.
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use tempo_core::Timestamp;
//! use tempo_telemetry::{Bus, EventKind, Observer, TelemetryEvent};
//!
//! #[derive(Default)]
//! struct Counter(usize);
//! impl Observer for Counter {
//!     fn enabled(&self, kind: EventKind) -> bool {
//!         kind == EventKind::MsgSend
//!     }
//!     fn observe(&mut self, _event: &TelemetryEvent) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let bus = Bus::new();
//! let counter = Rc::new(RefCell::new(Counter::default()));
//! bus.subscribe(counter.clone());
//! bus.emit_with(EventKind::MsgSend, || TelemetryEvent::MsgSend {
//!     at: Timestamp::from_secs(1.0),
//!     from: 0,
//!     to: 1,
//! });
//! // MsgRecv is gated off by `enabled`, so the closure never runs.
//! bus.emit_with(EventKind::MsgRecv, || unreachable!());
//! assert_eq!(counter.borrow().0, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod num;

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use tempo_core::{Duration, TimeEstimate, Timestamp};

/// Declares enums whose variants export as fixed JSONL labels: the one
/// list gives the variants, `label()` and the labels the reader takes
/// back.
macro_rules! label_enums {
    ($($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident = $label:literal,)+ })+) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every variant with its JSONL label, in declaration order.
            pub const LABELS: &[(&str, $name)] = &[$(($label, $name::$variant)),+];

            /// Stable JSONL tag.
            #[must_use]
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }

        impl json::Value for $name {
            fn write_json(&self, out: &mut Vec<u8>) {
                json::Value::write_json(self.label(), out);
            }
            fn read_json(json: &json::Json) -> Result<Self, String> {
                json::one_of(json, Self::LABELS)
            }
        }
    )+};
}

label_enums! {
    /// Why the network dropped a message.
    DropCause {
        /// Random loss on the link.
        Loss = "loss",
        /// An active partition blocked the link.
        Partition = "partition",
    }

    /// Why a resynchronization round did not adopt a new estimate.
    RejectCause {
        /// The synchronization algorithm detected inconsistent estimates.
        Inconsistent = "inconsistent",
        /// Too few replies arrived to satisfy the quorum.
        Starved = "starved",
    }

    /// Why a cluster-time replica refused a timestamp request, mirroring
    /// the cluster crate's refusal taxonomy without depending on it.
    RefusalCause {
        /// The replica holds no valid serving lease (it is a backup, was
        /// deposed, or its lease expired before a renewal quorum arrived).
        NoLease = "no_lease",
        /// Not enough replicas acknowledged the high-water replication in
        /// time — the request is refused rather than released unreplicated.
        NoQuorum = "no_quorum",
        /// The replica (or its embedded time server) is still booting and
        /// holds no trustworthy interval yet.
        Booting = "booting",
        /// The next monotonic timestamp would exceed the quorum
        /// intersection's upper edge — issuing it would break the
        /// boundedness invariant, so the primary waits for time to catch
        /// up.
        Ahead = "ahead",
    }

    /// A peer-health classification, mirroring the service's tracker
    /// states without depending on the service crate.
    HealthState {
        /// The peer answers within the deadline.
        Healthy = "healthy",
        /// The peer missed enough consecutive deadlines to be suspect.
        Suspect = "suspect",
        /// The peer is presumed dead and only probed occasionally.
        Dead = "dead",
    }
}

/// One server's state at a sampling instant, as carried by
/// [`TelemetryEvent::Sample`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSnapshot {
    /// The server's clock reading `C_i(t)`.
    pub clock: Timestamp,
    /// The server's error bound `E_i(t)`.
    pub error: Duration,
    /// Signed offset from real time (ground truth, sim only).
    pub true_offset: Duration,
    /// Whether real time lies inside `[C_i - E_i, C_i + E_i]`.
    pub correct: bool,
    /// Whether the server is currently part of the service (between
    /// its join and leave). Inactive servers are still snapshotted —
    /// their free-running clocks remain observable — but exports may
    /// elide them and checkers must not hold the theorems against
    /// them.
    pub active: bool,
}

impl SampleSnapshot {
    /// The sample as a reported estimate `⟨C, E⟩`.
    #[must_use]
    pub fn estimate(&self) -> TimeEstimate {
        TimeEstimate::new(self.clock, self.error)
    }
}

/// The event catalogue: the one place an event is declared. A row is
///
/// ```text
/// /// what happened (the docs of the variant, in both enums)
/// Variant = discriminant, "jsonl tag" {
///     /// when
///     at,
///     /// what the field holds
///     field: RustType [= "json key, if not the field name"] [| "label" | …],
/// }
/// ```
///
/// and `events!(consumer)` hands every row to `consumer!`: `define_events!`
/// below makes [`EventKind`] and [`TelemetryEvent`] of them, `json`'s
/// `define_codec!` makes [`json::write_event`] and its inverse
/// [`json::read_event`]. Every event has its real (simulated-world)
/// time `at`, exported as `"t"`, so a row gives only that field's docs.
/// A field is written and read as its Rust type's [`json::Value`]; the
/// `| "label"` list is for a string whose legal values a crate above
/// this one owns, and is what the reader accepts for it.
/// Discriminants are bit positions in the bus mask and never change;
/// a deleted row leaves its bit unused (11 was the slewed reset, 24
/// the server's own stabilization claim).
/// EXPERIMENTS.md § "Telemetry export" documents tags, keys and labels,
/// and a test in `json` fails when it and this table disagree.
macro_rules! events {
    ($consumer:ident) => {
        $consumer! {
            /// A message was handed to the network.
            MsgSend = 0, "send" {
                /// Real time of the send.
                at,
                /// Sending node index.
                from: usize,
                /// Destination node index.
                to: usize,
            }
            /// A message was delivered to its destination.
            MsgRecv = 1, "recv" {
                /// Real time of the delivery.
                at,
                /// Sending node index.
                from: usize,
                /// Destination node index.
                to: usize,
            }
            /// A message was dropped in flight (loss or partition).
            MsgDrop = 2, "drop" {
                /// Real time of the (attempted) send.
                at,
                /// Sending node index.
                from: usize,
                /// Destination node index.
                to: usize,
                /// Whether loss or a partition killed it.
                cause: DropCause,
            }
            /// A message was duplicated by the network.
            MsgDuplicate = 3, "dup" {
                /// Real time of the send.
                at,
                /// Sending node index.
                from: usize,
                /// Destination node index.
                to: usize,
            }
            /// A node's timer fired.
            TimerFired = 4, "timer" {
                /// Real time the timer fired.
                at,
                /// Node whose timer fired.
                node: usize,
                /// The timer tag the node set.
                tag: u64,
            }
            /// A server joined the service.
            Join = 5, "join" {
                /// Real time of the join.
                at,
                /// Joining server index.
                server: usize,
                /// Its clock reading at the join.
                clock: Timestamp,
            }
            /// A server left the service.
            Leave = 6, "leave" {
                /// Real time of the leave.
                at,
                /// Leaving server index.
                server: usize,
            }
            /// A resynchronization round started polling peers.
            RoundBegin = 7, "round_begin" {
                /// Real time the round began.
                at,
                /// Polling server index.
                server: usize,
                /// Monotonic round number on that server.
                round: u64,
                /// The server's clock when the round began.
                clock: Timestamp,
                /// How many peers it polled this round.
                polled: usize,
            }
            /// A round adopted a new estimate (rule MM-2 / IM-2, the
            /// fault-tolerant intersection, or a recovery adoption).
            RoundAdopt = 8, "adopt" {
                /// Real time of the adoption.
                at,
                /// Adopting server index.
                server: usize,
                /// Monotonic round number on that server.
                round: u64,
                /// The server's clock just before applying the reset.
                clock: Timestamp,
                /// Error bound before the round.
                error_before: Duration = "e_before",
                /// Error bound adopted by the round.
                error_after: Duration = "e_after",
                /// Full widths (2·error) of every input interval the decision
                /// saw, own estimate first. Empty when no observer wants
                /// adoption events (the widths are built lazily).
                input_widths: Vec<Duration> = "inputs",
                /// True when the adoption came from the §3 recovery protocol
                /// (exempt from the "result no wider than an input" check).
                recovery: bool,
            }
            /// A round ended without adopting (inconsistency or starvation).
            RoundReject = 9, "reject" {
                /// Real time of the rejection.
                at,
                /// Rejecting server index.
                server: usize,
                /// Monotonic round number on that server.
                round: u64,
                /// Why nothing was adopted.
                cause: RejectCause,
            }
            /// The clock was stepped to a new value.
            ClockStep = 10, "step" {
                /// Real time of the step.
                at,
                /// Stepping server index.
                server: usize,
                /// Clock reading before the step.
                from: Timestamp,
                /// Clock reading after the step.
                to: Timestamp,
                /// Error bound after the step.
                error: Duration,
            }
            /// A pending request exceeded its deadline.
            Timeout = 12, "timeout" {
                /// Real time of the timeout.
                at,
                /// Waiting server index.
                server: usize,
                /// The peer that failed to answer.
                peer: usize,
                /// The round the request belonged to.
                round: u64,
                /// Which attempt timed out (0 = first send).
                attempt: u32,
            }
            /// A timed-out request was retried with backoff.
            Retry = 13, "retry" {
                /// Real time of the retry.
                at,
                /// Retrying server index.
                server: usize,
                /// The peer being asked again.
                peer: usize,
                /// The round the request belongs to.
                round: u64,
                /// The new attempt number.
                attempt: u32,
            }
            /// A peer's health classification changed.
            HealthChanged = 14, "health" {
                /// Real time of the transition.
                at,
                /// The observing server.
                server: usize,
                /// The peer whose classification changed.
                peer: usize,
                /// Previous classification.
                from: HealthState,
                /// New classification.
                to: HealthState,
            }
            /// The server entered degraded (quorum-starved) mode.
            DegradedEnter = 15, "degraded_enter" {
                /// Real time the starved round closed.
                at,
                /// The starved server.
                server: usize,
                /// The round that starved.
                round: u64,
                /// How many usable replies arrived.
                replies: usize,
                /// The configured quorum.
                quorum: usize,
            }
            /// The server left degraded mode (a round met quorum again).
            DegradedExit = 16, "degraded_exit" {
                /// Real time of the recovering round.
                at,
                /// The recovering server.
                server: usize,
                /// The round that met quorum.
                round: u64,
            }
            /// The §3 third-server recovery protocol was triggered.
            RecoveryStarted = 17, "recovery" {
                /// Real time recovery was triggered.
                at,
                /// The recovering server.
                server: usize,
            }
            /// A periodic snapshot of every server's estimate, indexed by
            /// server. Every server appears, active or not; see
            /// [`SampleSnapshot::active`].
            Sample = 18, "sample" {
                /// Real time of the snapshot.
                at,
                /// Per-server state, indexed by server.
                servers: Vec<SampleSnapshot>,
            }
            /// A server process crashed: it answers nothing and runs no rounds
            /// until (and unless) a scheduled restart brings it back. Its
            /// hardware clock keeps running through the downtime.
            ServerCrashed = 19, "crash" {
                /// Real time of the crash.
                at,
                /// The crashed server.
                server: usize,
            }
            /// A crashed server's process came back up and entered the
            /// lifecycle's re-entry path.
            ServerRestarted = 20, "restart" {
                /// Real time of the restart.
                at,
                /// The restarting server.
                server: usize,
                /// Whether stable storage was lost: an amnesia restart holds
                /// no interval and must bootstrap from a quorum before
                /// serving; a durable restart rehydrates and re-enters
                /// directly.
                amnesia: bool,
            }
            /// A durable restart rehydrated `(r_i, ε_i)` from stable storage
            /// and re-derived its error per rule MM-1 across the downtime.
            StateRehydrated = 21, "rehydrate" {
                /// Real time of the rehydration.
                at,
                /// The rehydrating server.
                server: usize,
                /// The server's clock reading at rehydration.
                clock: Timestamp,
                /// The re-derived error `ε + (clock − r)·δ`.
                error: Duration,
                /// The persisted reset reading `r_i`.
                reset_clock: Timestamp,
                /// The persisted inherited error `ε_i`.
                persisted_error: Duration,
            }
            /// A booting server completed the §5 bootstrap read of a quorum of
            /// neighbours and promoted to active.
            BootstrapCompleted = 22, "bootstrap" {
                /// Real time of the promotion.
                at,
                /// The promoted server.
                server: usize,
                /// How many bootstrap rounds it took (`0` for a durable
                /// restart, which needs none).
                rounds: u32,
                /// The server's clock reading at promotion.
                clock: Timestamp,
                /// Its error bound at promotion.
                error: Duration,
            }
            /// A transient `CorruptState` fault overwrote a server's
            /// `(r, ε, reset-t)` and health tables with garbage. The server
            /// does not crash: it keeps serving and synchronising from the
            /// corrupted state until the protocol pulls it back, which only
            /// a checker that knows real time can judge.
            StateCorrupted = 23, "corrupt" {
                /// Real time of the corruption.
                at,
                /// The corrupted server.
                server: usize,
                /// Its (garbage) clock reading just after the overwrite.
                clock: Timestamp,
                /// Its (garbage) error bound just after the overwrite.
                error: Duration,
            }
            /// A datagram failed wire-codec decoding and was dropped at the
            /// transport boundary — truncated in flight, bit-flipped past the
            /// checksum, or outright garbage. The protocol never sees it; this
            /// event is the audit trail proving the drop was deliberate, not
            /// silent. Only real transports emit it — the simulator delivers
            /// typed messages and never produces one.
            MalformedFrame = 25, "malformed" {
                /// Real time of the arrival.
                at,
                /// The server that received (and discarded) the datagram.
                server: usize,
                /// The datagram's byte length as received.
                len: usize,
                /// The decoder's verdict: `tempo-service`'s
                /// `DecodeError::label`, whose tests hold it to this list.
                cause: &'static str
                    | "truncated" | "bad_magic" | "unknown_type" | "bad_length"
                    | "bad_checksum" | "bad_payload",
            }
            /// A cluster-time replica adopted a new view (failover). Emitted
            /// both by an elected primary (quorum of acks gathered, high-water
            /// caught up by quorum read) and by a replica that merely observed
            /// a higher view on the wire.
            ViewChange = 26, "view_change" {
                /// Real time of the adoption.
                at,
                /// The replica adopting the view.
                server: usize,
                /// The adopted view number.
                view: u64,
                /// The replica's high-water mark after the catch-up.
                high_water: u64,
            }
            /// A cluster-time primary acquired or renewed its serving lease:
            /// a quorum of replicas answered the renewal with their current
            /// estimates and the Marzullo intersection of those estimates is
            /// non-empty.
            LeaseGranted = 27, "lease_granted" {
                /// Real time of the grant.
                at,
                /// The lease-holding primary.
                server: usize,
                /// The view the lease belongs to.
                view: u64,
                /// When the lease runs out (local-time deadline).
                until: Timestamp,
            }
            /// A cluster-time primary's lease expired before a renewal quorum
            /// answered. It refuses timestamp requests until re-leased.
            LeaseExpired = 28, "lease_expired" {
                /// Real time of the expiry.
                at,
                /// The deposed (or starved) primary.
                server: usize,
                /// The view whose lease lapsed.
                view: u64,
            }
            /// A cluster-time primary released a strictly monotonic timestamp
            /// to a client: the high-water mark was persisted and acknowledged
            /// by a quorum *before* this event.
            TsIssued = 29, "ts_issued" {
                /// Real time of the release.
                at,
                /// The issuing primary.
                server: usize,
                /// The view under which it was issued.
                view: u64,
                /// The issued timestamp (microsecond ticks).
                timestamp: u64,
                /// Lower edge of the issuing quorum's Marzullo intersection.
                lo: Timestamp,
                /// Upper edge of the issuing quorum's Marzullo intersection.
                hi: Timestamp,
            }
            /// A cluster-time replica refused a timestamp request rather than
            /// risk a regression (no lease, no quorum, still booting, or the
            /// high-water mark is ahead of the quorum intersection) — the
            /// failover-safe alternative to guessing.
            TsRefused = 30, "ts_refused" {
                /// Real time of the refusal.
                at,
                /// The refusing replica.
                server: usize,
                /// Its current view.
                view: u64,
                /// Why it refused.
                cause: RefusalCause,
            }
            /// A restarted cluster-time replica reloaded its durable
            /// high-water mark (and last view) from stable storage before
            /// answering anything.
            HwRehydrated = 31, "hw_rehydrated" {
                /// Real time of the rehydration.
                at,
                /// The restarted replica.
                server: usize,
                /// The persisted view.
                view: u64,
                /// The persisted high-water mark.
                high_water: u64,
            }
        }
    };
}
pub(crate) use events;

/// Turns the rows of [`events!`] into the two enums and the accessors
/// that are one arm per event.
macro_rules! define_events {
    ($(
        $(#[$doc:meta])* $variant:ident = $bit:literal, $tag:literal {
            $(#[$at_doc:meta])* at,
            $($(#[$field_doc:meta])* $field:ident : $ty:ty $(= $key:literal)? $(| $label:literal)*),* $(,)?
        }
    )*) => {
        /// Discriminant-only mirror of [`TelemetryEvent`], used for the cheap
        /// `enabled` gate and the bus's aggregate bitmask.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum EventKind {
            $($(#[$doc])* $variant = $bit,)*
        }

        impl EventKind {
            /// Every kind, in discriminant order.
            pub const ALL: [EventKind; [$($bit),*].len()] = [$(EventKind::$variant),*];

            /// This kind's position in the bus bitmask.
            #[must_use]
            pub fn bit(self) -> u64 {
                1 << (self as u8)
            }

            /// The stable tag used as the `"type"` field of the JSONL export.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$variant => $tag,)*
                }
            }
        }

        /// A typed telemetry event. `at` is always real (simulated-world)
        /// time; clock readings are the emitting server's logical time.
        ///
        /// Node and server identifiers are plain actor indexes so the crate
        /// stays dependency-free below `tempo-core`.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TelemetryEvent {
            $(
                $(#[$doc])*
                $variant {
                    $(#[$at_doc])*
                    at: Timestamp,
                    $($(#[$field_doc])* $field: $ty,)*
                },
            )*
        }

        impl TelemetryEvent {
            /// The kind discriminant of this event.
            #[must_use]
            pub fn kind(&self) -> EventKind {
                match self {
                    $(TelemetryEvent::$variant { .. } => EventKind::$variant,)*
                }
            }

            /// Real time the event happened.
            #[must_use]
            pub fn at(&self) -> Timestamp {
                match self {
                    $(TelemetryEvent::$variant { at, .. })|* => *at,
                }
            }
        }
    };
}
events!(define_events);

/// A telemetry sink. Implementations are subscribed to a [`Bus`] and
/// receive every event whose kind they declare interest in.
pub trait Observer {
    /// Whether this observer wants events of `kind`. Queried once per
    /// subscription (for the bus mask) and once per delivery; must be
    /// cheap and stable for the observer's lifetime.
    fn enabled(&self, kind: EventKind) -> bool {
        let _ = kind;
        true
    }

    /// Receives one event. Events arrive in emission order, which the
    /// deterministic simulator makes reproducible for a fixed seed.
    fn observe(&mut self, event: &TelemetryEvent);
}

struct Shared {
    /// OR of every subscriber's enabled kinds. Checked before the event
    /// is even built.
    mask: Cell<u64>,
    /// Emissions offered so far (see [`Bus::offered_events`]).
    offered: Cell<u64>,
    /// The window [`Bus::dropped_events`] is counted past (see
    /// [`Bus::with_ring`]); `u64::MAX` when none was asked for.
    ring: u64,
    observers: RefCell<Vec<Rc<RefCell<dyn Observer>>>>,
}

/// A fan-out dispatcher for [`TelemetryEvent`]s.
///
/// Cloning a `Bus` is cheap and every clone feeds the same
/// subscribers, so one bus can be handed to the network, every server,
/// and the scenario loop. The default bus is *disabled*: emissions are
/// a single branch and the event is never constructed.
#[derive(Clone, Default)]
pub struct Bus {
    shared: Option<Rc<Shared>>,
}

impl Bus {
    /// An enabled bus with no subscribers and no ring.
    #[must_use]
    pub fn new() -> Self {
        Bus::counting_past(u64::MAX)
    }

    /// The no-op bus: emissions cost one branch and build nothing.
    #[must_use]
    pub const fn disabled() -> Self {
        Bus { shared: None }
    }

    /// An enabled bus that counts the events a ring of the most recent
    /// `capacity` would evict, in [`Bus::dropped_events`]. No ring is
    /// kept: subscribers see every event they want regardless.
    #[must_use]
    pub fn with_ring(capacity: usize) -> Self {
        Bus::counting_past(capacity as u64)
    }

    fn counting_past(ring: u64) -> Self {
        Bus {
            shared: Some(Rc::new(Shared {
                mask: Cell::new(0),
                offered: Cell::new(0),
                ring,
                observers: RefCell::new(Vec::new()),
            })),
        }
    }

    /// Whether this bus dispatches at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Whether any subscriber wants events of `kind`.
    /// Producers may use this to skip expensive bookkeeping that only
    /// feeds a given event kind — never to skip the [`Bus::emit_with`]
    /// itself, which [`Bus::offered_events`] must still see.
    #[must_use]
    pub fn enabled(&self, kind: EventKind) -> bool {
        match &self.shared {
            Some(shared) => shared.mask.get() & kind.bit() != 0,
            None => false,
        }
    }

    /// Subscribes an observer. The caller keeps its own `Rc` handle to
    /// harvest results after the run. No-op on a disabled bus.
    pub fn subscribe<O: Observer + 'static>(&self, observer: Rc<RefCell<O>>) {
        let Some(shared) = &self.shared else {
            return;
        };
        let mut bits = 0u64;
        for kind in EventKind::ALL {
            if observer.borrow().enabled(kind) {
                bits |= kind.bit();
            }
        }
        shared.mask.set(shared.mask.get() | bits);
        shared.observers.borrow_mut().push(observer);
    }

    /// Emits an event, building it lazily: `build` only runs when some
    /// subscriber wants events of `kind`.
    #[inline]
    pub fn emit_with(&self, kind: EventKind, build: impl FnOnce() -> TelemetryEvent) {
        let Some(shared) = &self.shared else {
            return;
        };
        shared.offered.set(shared.offered.get() + 1);
        if shared.mask.get() & kind.bit() == 0 {
            return;
        }
        let event = build();
        debug_assert_eq!(event.kind(), kind);
        for observer in shared.observers.borrow().iter() {
            let mut observer = observer.borrow_mut();
            if observer.enabled(kind) {
                observer.observe(&event);
            }
        }
    }

    /// Emits an already-built event. Prefer [`Bus::emit_with`] on hot
    /// paths so disabled kinds cost nothing.
    #[inline]
    pub fn emit(&self, event: TelemetryEvent) {
        let kind = event.kind();
        self.emit_with(kind, || event);
    }

    /// How many events a ring of [`Bus::with_ring`]'s capacity would
    /// have evicted: the offered events past it. Zero without one.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |s| s.offered.get().saturating_sub(s.ring))
    }

    /// How many events producers offered to this bus: every
    /// [`Bus::emit_with`] on an enabled bus, wanted or not — the length
    /// of the stream a subscriber to every kind would have seen, so a
    /// run that subscribes to less still knows what a ring would drop.
    #[must_use]
    pub fn offered_events(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| s.offered.get())
    }
}

impl fmt::Debug for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.shared {
            None => f.write_str("Bus(disabled)"),
            Some(shared) => f
                .debug_struct("Bus")
                .field("mask", &format_args!("{:#x}", shared.mask.get()))
                .field("observers", &shared.observers.borrow().len())
                .field("offered", &shared.offered.get())
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        kinds: Vec<EventKind>,
        only: Option<EventKind>,
    }

    impl Observer for Recorder {
        fn enabled(&self, kind: EventKind) -> bool {
            self.only.is_none_or(|k| k == kind)
        }
        fn observe(&mut self, event: &TelemetryEvent) {
            self.kinds.push(event.kind());
        }
    }

    fn send_at(secs: f64) -> TelemetryEvent {
        TelemetryEvent::MsgSend {
            at: Timestamp::from_secs(secs),
            from: 0,
            to: 1,
        }
    }

    #[test]
    fn disabled_bus_never_builds() {
        let bus = Bus::disabled();
        assert!(!bus.is_enabled());
        bus.emit_with(EventKind::MsgSend, || unreachable!());
        assert_eq!(bus.dropped_events(), 0);
        assert_eq!(bus.offered_events(), 0);
    }

    #[test]
    fn unwanted_kinds_never_build() {
        let bus = Bus::new();
        let rec = Rc::new(RefCell::new(Recorder {
            only: Some(EventKind::Join),
            ..Recorder::default()
        }));
        bus.subscribe(rec.clone());
        assert!(bus.enabled(EventKind::Join));
        assert!(!bus.enabled(EventKind::MsgSend));
        bus.emit_with(EventKind::MsgSend, || unreachable!());
        bus.emit(TelemetryEvent::Join {
            at: Timestamp::from_secs(1.0),
            server: 2,
            clock: Timestamp::from_secs(1.5),
        });
        assert_eq!(rec.borrow().kinds, vec![EventKind::Join]);
        // Offered counts both: the one built and the one nobody wanted.
        assert_eq!(bus.offered_events(), 2);
    }

    #[test]
    fn fan_out_reaches_every_interested_observer() {
        let bus = Bus::new();
        let all = Rc::new(RefCell::new(Recorder::default()));
        let joins = Rc::new(RefCell::new(Recorder {
            only: Some(EventKind::Join),
            ..Recorder::default()
        }));
        bus.subscribe(all.clone());
        bus.subscribe(joins.clone());
        bus.emit(send_at(0.5));
        assert_eq!(all.borrow().kinds, vec![EventKind::MsgSend]);
        assert!(joins.borrow().kinds.is_empty());
    }

    #[test]
    fn ring_counts_the_offered_events_past_its_capacity() {
        let bus = Bus::with_ring(2);
        for i in 0..2 {
            bus.emit(send_at(f64::from(i)));
        }
        assert_eq!(bus.dropped_events(), 0);
        // Unwanted emissions count too: a ring would have kept them.
        for i in 2..5 {
            bus.emit_with(EventKind::MsgSend, || send_at(f64::from(i)));
        }
        assert_eq!(bus.dropped_events(), 3);
        assert_eq!(Bus::new().dropped_events(), 0);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let bus = Bus::with_ring(0);
        bus.emit(send_at(1.0));
        assert_eq!(bus.dropped_events(), 1);
    }

    #[test]
    fn clones_share_subscribers() {
        let bus = Bus::new();
        let clone = bus.clone();
        let rec = Rc::new(RefCell::new(Recorder::default()));
        bus.subscribe(rec.clone());
        clone.emit(send_at(2.0));
        assert_eq!(rec.borrow().kinds, vec![EventKind::MsgSend]);
    }

    #[test]
    fn every_kind_is_distinct_in_the_mask() {
        let mut seen = 0u64;
        for kind in EventKind::ALL {
            assert_eq!(seen & kind.bit(), 0, "{kind:?} reuses a bit");
            seen |= kind.bit();
        }
        assert_eq!(seen.count_ones() as usize, EventKind::ALL.len());
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Bus::disabled()), "Bus(disabled)");
        assert!(format!("{:?}", Bus::with_ring(8)).contains("offered"));
    }
}
