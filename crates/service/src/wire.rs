//! A PUP-flavoured wire format for the time-service protocol.
//!
//! The paper's service ran over the Xerox PUP internet ([Boggs 80]);
//! PUP datagrams carried a type byte, a 32-bit id, source/destination
//! ports, a payload, and a 16-bit ones'-complement checksum. This
//! module implements a compact, self-checking encoding of [`Message`]
//! in that spirit so that deployments outside the simulator (or tests
//! injecting corruption) have a real codec to exercise.
//!
//! Layout (big-endian):
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0x7E30 ("tempo/0")
//! 2       1     message type (1 = request, 2 = reply, 3 = uninitialized)
//! 3       1     retry attempt (requests), reserved 0 (others)
//! 4       8     request id
//! 12      8     received-at T2 (IEEE-754 bits; replies only)
//! 20      8     clock time C   (IEEE-754 bits; replies only)
//! 28      8     max error E    (IEEE-754 bits; replies only)
//! last 2        checksum (ones'-complement sum of 16-bit words)
//! ```
//!
//! Requests and uninitialized refusals are 14 bytes, replies 38: those
//! three rows, and the cluster-time frames' ten, are the `frames!` table
//! below — the one place a type byte is paired with its length, which
//! every decoder's envelope check reads.
//!
//! ## Batch frames
//!
//! The serving front answers bursts of requests with one datagram per
//! *batch* of replies (PUP gateways did the same aggregation for
//! routing tables). A batch frame is:
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0x7E30
//! 2       1     message type 4 (batch)
//! 3       1     count n (1–255)
//! 4       …     n complete inner frames, each with its own checksum
//! last 2        outer checksum over everything before it
//! ```
//!
//! Inner frames are byte-identical to their stand-alone encodings, so
//! batching is transparent: decoding a batch and decoding its frames
//! one at a time yield the same messages (`wire_properties.rs` pins
//! this as a property).

use std::fmt;

use tempo_core::{Duration, TimeEstimate, Timestamp};
use tempo_telemetry::RefusalCause;

use crate::message::Message;

const MAGIC: u16 = 0x7E30;
/// Batch header: magic + type + count.
const BATCH_HEADER_LEN: usize = 4;
/// The trailing ones'-complement checksum of every frame.
const CHECKSUM_LEN: usize = 2;
/// Most inner frames one batch can carry (the count is a byte).
pub const MAX_BATCH: usize = 255;
/// The longest valid batch of requests: [`MAX_BATCH`] request frames
/// between the batch header and the outer checksum. A receive buffer of
/// this size takes every datagram the serving front answers.
pub const MAX_REQUEST_BATCH_LEN: usize = BATCH_HEADER_LEN + MAX_BATCH * REQUEST_LEN + CHECKSUM_LEN;
/// The batch frame's type byte. It is the one variable-length frame, so
/// it has no row below: its length follows from the inner frames.
const TYPE_BATCH: u8 = 4;

/// Which decoder admits a frame type.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Family {
    /// The base time-service protocol (types 1–3): [`decode`], the inner
    /// frames of a batch, and [`decode_cluster`].
    Base,
    /// The cluster-time superset (types 5–14): [`decode_cluster`] only.
    Cluster,
}

/// Declares the frame table: one row per fixed-length frame, giving its
/// type byte, its encoded length and its family — each stated here and
/// nowhere else. [`frame_spec`] is how every decoder reads it.
macro_rules! frames {
    ($($kind:ident = $byte:literal, $len:ident = $bytes:literal, $family:ident;)*) => {
        $(
            const $kind: u8 = $byte;
            const $len: usize = $bytes;
            // The envelope reports a datagram shorter than this as
            // truncated before it trusts the type byte.
            const _: () = assert!($len >= REQUEST_LEN);
        )*

        /// The encoded length and family of frame type `kind`, if there
        /// is such a type.
        fn frame_spec(kind: u8) -> Option<(usize, Family)> {
            match kind {
                $($kind => Some(($len, Family::$family)),)*
                _ => None,
            }
        }
    };
}

// Every frame is a 4-byte header (magic, type, one type-specific byte),
// 8-byte big-endian fields, and a 2-byte checksum; the module docs draw
// the base frames byte by byte.
frames! {
    // type byte              encoded length            family    fields after the header
    TYPE_REQUEST = 1,         REQUEST_LEN = 14,         Base;     // request id (attempt in header byte 3)
    TYPE_REPLY = 2,           REPLY_LEN = 38,           Base;     // request id, received-at T2, clock C, error E
    TYPE_UNINIT = 3,          UNINIT_LEN = 14,          Base;     // request id
    TYPE_TS_REQUEST = 5,      TS_REQUEST_LEN = 14,      Cluster;  // request id (attempt in header byte 3)
    TYPE_TS_REPLY = 6,        TS_REPLY_LEN = 30,        Cluster;  // request id, view, timestamp
    TYPE_TS_REFUSED = 7,      TS_REFUSED_LEN = 22,      Cluster;  // request id, view (cause in header byte 3)
    TYPE_TS_REDIRECT = 8,     TS_REDIRECT_LEN = 26,     Cluster;  // request id, view, primary (u32)
    TYPE_LEASE_RENEW = 9,     LEASE_RENEW_LEN = 22,     Cluster;  // view, seq
    TYPE_LEASE_ACK = 10,      LEASE_ACK_LEN = 46,       Cluster;  // view, seq, clock C, error E, high water
    TYPE_VIEW_CHANGE_REQ = 11, VIEW_CHANGE_REQ_LEN = 14, Cluster; // view
    TYPE_VIEW_CHANGE_ACK = 12, VIEW_CHANGE_ACK_LEN = 22, Cluster; // view, high water (ok in header byte 3)
    TYPE_HW_UPDATE = 13,      HW_UPDATE_LEN = 22,       Cluster;  // view, high water
    TYPE_HW_ACK = 14,         HW_ACK_LEN = 22,          Cluster;  // view, high water
}

/// Why a packet failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the declared (or smallest valid) packet: the
    /// frame was cut off at some field boundary in flight.
    Truncated {
        /// How many bytes arrived.
        len: usize,
    },
    /// The magic number did not match.
    BadMagic {
        /// The value found where the magic belongs.
        found: u16,
    },
    /// Unknown message-type byte.
    UnknownType {
        /// The offending type byte.
        found: u8,
    },
    /// More bytes than the declared type allows (trailing garbage; a
    /// *shortfall* is reported as [`DecodeError::Truncated`]).
    BadLength {
        /// Declared type byte.
        kind: u8,
        /// Actual packet length.
        len: usize,
    },
    /// The checksum did not verify.
    BadChecksum,
    /// A reply carried a non-finite clock value or a negative/non-finite
    /// error.
    BadPayload,
}

impl DecodeError {
    /// A stable snake_case label for telemetry (the
    /// `"malformed".cause` enum of the JSONL schema).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DecodeError::Truncated { .. } => "truncated",
            DecodeError::BadMagic { .. } => "bad_magic",
            DecodeError::UnknownType { .. } => "unknown_type",
            DecodeError::BadLength { .. } => "bad_length",
            DecodeError::BadChecksum => "bad_checksum",
            DecodeError::BadPayload => "bad_payload",
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { len } => write!(f, "packet truncated at {len} bytes"),
            DecodeError::BadMagic { found } => write!(f, "bad magic {found:#06x}"),
            DecodeError::UnknownType { found } => write!(f, "unknown message type {found}"),
            DecodeError::BadLength { kind, len } => {
                write!(f, "wrong length {len} for message type {kind}")
            }
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::BadPayload => write!(f, "non-finite or negative payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Ones'-complement sum of 16-bit big-endian words (odd trailing byte
/// padded with zero), PUP/IP style.
fn checksum(bytes: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = bytes.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

// ----- the envelope, written once for every frame -----

/// Starts a frame at the end of `out`: magic, type byte, header byte 3,
/// then `words` big-endian, laid out on the stack and appended at once.
/// [`seal`] closes it.
fn begin(out: &mut Vec<u8>, kind: u8, byte3: u8, words: &[u64]) {
    // The longest frame, a lease ack, holds the longest header and words.
    let mut frame = [0; LEASE_ACK_LEN];
    let [m0, m1] = MAGIC.to_be_bytes();
    frame[..4].copy_from_slice(&[m0, m1, kind, byte3]);
    for (field, word) in frame[4..].chunks_exact_mut(8).zip(words) {
        field.copy_from_slice(&word.to_be_bytes());
    }
    out.extend_from_slice(&frame[..4 + 8 * words.len()]);
}

/// Closes the frame that starts at `start` with its checksum.
fn seal(out: &mut Vec<u8>, start: usize) {
    let ck = checksum(&out[start..]);
    out.extend_from_slice(&ck.to_be_bytes());
}

/// The magic of a datagram at least a header long.
fn check_magic(bytes: &[u8]) -> Result<(), DecodeError> {
    match u16::from_be_bytes([bytes[0], bytes[1]]) {
        MAGIC => Ok(()),
        found => Err(DecodeError::BadMagic { found }),
    }
}

/// Holds `bytes` to being one whole frame of type `kind`: exactly `len`
/// bytes, the last two the checksum of the rest. Returns the rest.
fn sealed_body(bytes: &[u8], kind: u8, len: usize) -> Result<&[u8], DecodeError> {
    // A shortfall is truncation — a reply cut anywhere between the
    // header and its last checksum byte lands here — while excess
    // bytes are a framing error. Distinguishing them keeps a
    // truncation-under-fault soak attributable in telemetry.
    if bytes.len() < len {
        return Err(DecodeError::Truncated { len: bytes.len() });
    }
    if bytes.len() > len {
        return Err(DecodeError::BadLength {
            kind,
            len: bytes.len(),
        });
    }
    let (body, ck_bytes) = bytes.split_at(len - 2);
    if checksum(body) != u16::from_be_bytes([ck_bytes[0], ck_bytes[1]]) {
        return Err(DecodeError::BadChecksum);
    }
    Ok(body)
}

/// The checks every fixed-length frame passes before a field of it is
/// read, in this order: long enough to be any frame, the magic, a type
/// of a family the caller `speaks`, exactly the length the frame table
/// gives that type, the checksum. Returns the type byte and the frame
/// without its checksum.
fn envelope(bytes: &[u8], speaks: Family) -> Result<(u8, &[u8]), DecodeError> {
    // No frame is shorter than a request (the frame table asserts it),
    // so this much is missing whatever the type byte claims.
    if bytes.len() < REQUEST_LEN {
        return Err(DecodeError::Truncated { len: bytes.len() });
    }
    check_magic(bytes)?;
    let kind = bytes[2];
    match frame_spec(kind) {
        Some((len, family)) if family <= speaks => Ok((kind, sealed_body(bytes, kind, len)?)),
        _ => Err(DecodeError::UnknownType { found: kind }),
    }
}

/// The big-endian word at `off` of a frame the envelope has measured.
fn word(body: &[u8], off: usize) -> u64 {
    u64::from_be_bytes(body[off..off + 8].try_into().expect("length checked"))
}

/// The `(clock C, error E)` pair at `off`: both finite, `E` not negative.
fn estimate_at(body: &[u8], off: usize) -> Result<TimeEstimate, DecodeError> {
    let time = f64::from_bits(word(body, off));
    let error = f64::from_bits(word(body, off + 8));
    if !time.is_finite() || !error.is_finite() || error < 0.0 {
        return Err(DecodeError::BadPayload);
    }
    Ok(TimeEstimate::new(
        Timestamp::from_secs(time),
        Duration::from_secs(error),
    ))
}

// ----- base frames -----

/// Encodes a message.
#[must_use]
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(REPLY_LEN);
    encode_into(msg, &mut out);
    out
}

/// Encodes a message by appending to `out` — the allocation-free form
/// the serving front uses on its per-thread reply buffers (and the
/// batch encoder uses for inner frames). The bytes appended are
/// exactly [`encode`]'s output.
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {
    let start = out.len();
    match *msg {
        Message::TimeRequest {
            request_id,
            attempt,
        } => begin(out, TYPE_REQUEST, attempt, &[request_id]),
        Message::TimeReply {
            request_id,
            received_at,
            estimate,
        } => {
            let words = [
                request_id,
                received_at.as_secs().to_bits(),
                estimate.time().as_secs().to_bits(),
                estimate.error().as_secs().to_bits(),
            ];
            begin(out, TYPE_REPLY, 0, &words)
        }
        Message::Uninitialized { request_id } => begin(out, TYPE_UNINIT, 0, &[request_id]),
    }
    seal(out, start);
}

/// Encodes a batch of messages as one self-checking frame (see the
/// module docs for the layout). Inner frames are byte-identical to
/// their stand-alone [`encode`] form.
///
/// # Panics
///
/// Panics on an empty batch or more than [`MAX_BATCH`] messages — the
/// caller owns the aggregation loop and must split at the cap.
#[must_use]
pub fn encode_batch(msgs: &[Message]) -> Vec<u8> {
    let mut out = Vec::with_capacity(BATCH_HEADER_LEN + msgs.len() * REPLY_LEN + CHECKSUM_LEN);
    encode_batch_into(msgs, &mut out);
    out
}

/// [`encode_batch`] as a buffer append — the serving front's reply
/// path reuses one buffer per thread. The bytes appended are exactly
/// [`encode_batch`]'s output.
///
/// # Panics
///
/// As [`encode_batch`]: empty batches and more than [`MAX_BATCH`]
/// messages are the caller's bug.
pub fn encode_batch_into(msgs: &[Message], out: &mut Vec<u8>) {
    assert!(
        !msgs.is_empty(),
        "a batch frame carries at least one message"
    );
    assert!(msgs.len() <= MAX_BATCH, "batch count is a single byte");
    let start = out.len();
    begin(out, TYPE_BATCH, msgs.len() as u8, &[]);
    let header = checksum(&out[start..]);
    for msg in msgs {
        encode_into(msg, out);
    }
    // A sealed frame's words sum to 0xFFFF, which is zero in ones'
    // complement, so the outer checksum is the header's alone.
    out.extend_from_slice(&header.to_be_bytes());
}

/// Whether a received frame declares itself a batch (so the caller
/// routes it to [`decode_batch`] instead of [`decode`]). Purely a
/// dispatch hint: full validation happens in the decoder.
#[must_use]
pub fn is_batch_frame(bytes: &[u8]) -> bool {
    bytes.len() >= 3 && bytes[..2] == MAGIC.to_be_bytes() && bytes[2] == TYPE_BATCH
}

/// Decodes a batch frame into its messages, in order.
///
/// # Errors
///
/// Returns a [`DecodeError`] describing the first defect: any shortfall
/// anywhere — mid-header, mid-inner-frame, or into the outer checksum —
/// is [`DecodeError::Truncated`] (pinned at every byte boundary by
/// `wire_properties.rs`); excess bytes after the declared frames are
/// [`DecodeError::BadLength`]; a non-batch type byte is
/// [`DecodeError::UnknownType`]; inner-frame defects surface as the
/// inner [`decode`]'s error.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<Message>, DecodeError> {
    // Every frame is at least a request long, so this holds the count.
    let mut msgs = Vec::with_capacity(bytes.len() / REQUEST_LEN);
    decode_batch_into(bytes, &mut msgs)?;
    Ok(msgs)
}

/// [`decode_batch`] as a buffer append — the serving front decodes into
/// one request buffer per thread. On `Ok` the batch's messages follow
/// whatever `out` held; on `Err`, [`decode_batch`]'s error, `out` is
/// exactly as it was.
///
/// # Errors
///
/// As [`decode_batch`].
pub fn decode_batch_into(bytes: &[u8], out: &mut Vec<Message>) -> Result<(), DecodeError> {
    let kept = out.len();
    let walked = walk_batch(bytes, out);
    if walked.is_err() {
        out.truncate(kept);
    }
    walked
}

/// One walk over a batch: decodes each inner frame into `out` while it
/// finds the batch's extent, then checks the outer frame.
fn walk_batch(bytes: &[u8], out: &mut Vec<Message>) -> Result<(), DecodeError> {
    if bytes.len() < BATCH_HEADER_LEN {
        return Err(DecodeError::Truncated { len: bytes.len() });
    }
    check_magic(bytes)?;
    if bytes[2] != TYPE_BATCH {
        return Err(DecodeError::UnknownType { found: bytes[2] });
    }
    let count = usize::from(bytes[3]);
    if count == 0 {
        // A batch that declares no frames is a framing error, not a
        // short read: no amount of further bytes makes it valid.
        return Err(DecodeError::BadLength {
            kind: TYPE_BATCH,
            len: bytes.len(),
        });
    }
    // Type bytes sit at fixed offsets, so the walk is deterministic for
    // every prefix of a valid frame: any shortfall is a truncation. A
    // shortfall or unknown type later in the walk, and a defect of the
    // outer frame, outrank an inner frame's own defect, so the first of
    // those waits in `inner` until the walk and the outer checksum pass.
    let truncated = DecodeError::Truncated { len: bytes.len() };
    let mut inner = Ok(());
    let mut offset = BATCH_HEADER_LEN;
    for _ in 0..count {
        let &kind = bytes.get(offset + 2).ok_or(truncated)?;
        let Some((len, Family::Base)) = frame_spec(kind) else {
            return Err(DecodeError::UnknownType { found: kind });
        };
        let frame = bytes.get(offset..offset + len).ok_or(truncated)?;
        if inner.is_ok() {
            // The walk has read the type and measured the frame; these
            // are the rest of `decode`'s checks, in its order.
            inner = check_magic(frame)
                .and_then(|()| sealed_body(frame, kind, len))
                .and_then(|body| base_payload(kind, body))
                .map(|msg| out.push(msg));
        }
        offset += len;
    }
    sealed_body(bytes, TYPE_BATCH, offset + CHECKSUM_LEN)?;
    inner
}

/// Decodes a packet.
///
/// # Errors
///
/// Returns a [`DecodeError`] describing the first defect found:
/// truncation, bad magic, unknown type, wrong length, checksum
/// mismatch, or an invalid payload.
pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
    let (kind, body) = envelope(bytes, Family::Base)?;
    base_payload(kind, body)
}

/// The fields of a base frame whose envelope has been checked.
fn base_payload(kind: u8, body: &[u8]) -> Result<Message, DecodeError> {
    let request_id = word(body, 4);
    match kind {
        TYPE_REQUEST => Ok(Message::TimeRequest {
            request_id,
            attempt: body[3],
        }),
        TYPE_UNINIT => Ok(Message::Uninitialized { request_id }),
        TYPE_REPLY => {
            let received = f64::from_bits(word(body, 12));
            if !received.is_finite() {
                return Err(DecodeError::BadPayload);
            }
            Ok(Message::TimeReply {
                request_id,
                received_at: Timestamp::from_secs(received),
                estimate: estimate_at(body, 20)?,
            })
        }
        _ => unreachable!("the envelope admits base types only"),
    }
}

// ----- cluster-time frames -----
//
// The ClusterTime layer (tempo-cluster) speaks a superset of the base
// protocol: type bytes 5–14 carry the timestamp service and its
// view-change/lease/replication control plane. The payloads here are
// plain data — the cluster crate maps them onto its actor messages —
// so the codec stays self-contained and every frame keeps the same
// magic/type/checksum discipline (and the same truncation taxonomy) as
// the base frames. Their rows in the frame table list the fields.

/// A message of the cluster-time protocol: either a base time-service
/// message (types 1–3, encoded exactly as [`encode`] would — the
/// embedded `TimeServer`s keep running their resync rounds through the
/// same links) or one of the cluster control/data frames (types 5–14).
///
/// This is the one declaration of the protocol: the `tempo-cluster`
/// actors send and match on these values in the simulator, and
/// [`encode_cluster`] / [`decode_cluster`] put the same values on a
/// socket, so there is no message-to-frame conversion to keep in step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterFrame {
    /// A base time-service message, byte-identical to its stand-alone
    /// encoding (batch frames are not part of the cluster protocol).
    Base(Message),
    /// Client → primary: assign a monotonic cluster timestamp.
    TsRequest {
        /// Client-chosen correlation id (stable across retries).
        request_id: u64,
        /// Retry ordinal (0 for the first send).
        attempt: u8,
    },
    /// Primary → client: the assigned timestamp, released only after a
    /// quorum has the high-water mark on stable storage.
    TsReply {
        /// Echoed correlation id.
        request_id: u64,
        /// View under which the timestamp was issued.
        view: u64,
        /// The strictly monotonic cluster timestamp (µs ticks).
        timestamp: u64,
    },
    /// Replica → client: refused rather than risk a regression.
    TsRefused {
        /// Echoed correlation id.
        request_id: u64,
        /// The refusing replica's current view.
        view: u64,
        /// Why the request was refused.
        cause: RefusalCause,
    },
    /// Backup → client: not the primary; try the view's primary.
    TsRedirect {
        /// Echoed correlation id.
        request_id: u64,
        /// The redirecting replica's current view.
        view: u64,
        /// Replica index (`view mod n`) of the believed primary. A
        /// client reduces it modulo its replica list: a confused or
        /// hostile backup can put any value here.
        primary: u32,
    },
    /// Primary → backups: heartbeat asking for a lease extension.
    LeaseRenew {
        /// The primary's view.
        view: u64,
        /// Renewal sequence number (matches acks to renewals).
        seq: u64,
    },
    /// Backup → primary: lease granted, carrying the backup's current
    /// interval reading and durable high-water mark.
    LeaseAck {
        /// Echoed view.
        view: u64,
        /// Echoed renewal sequence number.
        seq: u64,
        /// The backup's `(clock, error)` reading at ack time.
        estimate: TimeEstimate,
        /// The backup's durable high-water mark.
        high_water: u64,
    },
    /// Candidate → replicas: vote for me as primary of `view`.
    ViewChangeReq {
        /// The proposed (strictly higher) view.
        view: u64,
    },
    /// Replica → candidate: vote granted or refused.
    ViewChangeAck {
        /// The view being acked (the candidate's on a grant, the
        /// voter's higher view on a refusal).
        view: u64,
        /// Whether the vote was granted.
        ok: bool,
        /// The voter's durable high-water mark, for the new primary's
        /// catch-up.
        high_water: u64,
    },
    /// Primary → backups: replicate the high-water mark before release.
    HwUpdate {
        /// The primary's view.
        view: u64,
        /// The pending high-water mark.
        high_water: u64,
    },
    /// Backup → primary: high-water mark persisted.
    HwAck {
        /// Echoed view.
        view: u64,
        /// The highest high-water mark the backup has persisted.
        high_water: u64,
    },
}

fn cause_to_byte(cause: RefusalCause) -> u8 {
    match cause {
        RefusalCause::NoLease => 0,
        RefusalCause::NoQuorum => 1,
        RefusalCause::Booting => 2,
        RefusalCause::Ahead => 3,
    }
}

fn cause_from_byte(b: u8) -> Option<RefusalCause> {
    match b {
        0 => Some(RefusalCause::NoLease),
        1 => Some(RefusalCause::NoQuorum),
        2 => Some(RefusalCause::Booting),
        3 => Some(RefusalCause::Ahead),
        _ => None,
    }
}

/// Encodes a cluster frame. `Base` messages encode byte-identically to
/// [`encode`], so a cluster endpoint interoperates with base peers.
#[must_use]
pub fn encode_cluster(frame: &ClusterFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(LEASE_ACK_LEN);
    match *frame {
        ClusterFrame::Base(ref msg) => {
            encode_into(msg, &mut out);
            return out;
        }
        ClusterFrame::TsRequest {
            request_id,
            attempt,
        } => begin(&mut out, TYPE_TS_REQUEST, attempt, &[request_id]),
        ClusterFrame::TsReply {
            request_id,
            view,
            timestamp,
        } => begin(&mut out, TYPE_TS_REPLY, 0, &[request_id, view, timestamp]),
        ClusterFrame::TsRefused {
            request_id,
            view,
            cause,
        } => {
            let cause = cause_to_byte(cause);
            begin(&mut out, TYPE_TS_REFUSED, cause, &[request_id, view])
        }
        ClusterFrame::TsRedirect {
            request_id,
            view,
            primary,
        } => {
            begin(&mut out, TYPE_TS_REDIRECT, 0, &[request_id, view]);
            out.extend_from_slice(&primary.to_be_bytes());
        }
        ClusterFrame::LeaseRenew { view, seq } => {
            begin(&mut out, TYPE_LEASE_RENEW, 0, &[view, seq])
        }
        ClusterFrame::LeaseAck {
            view,
            seq,
            estimate,
            high_water,
        } => {
            let words = [
                view,
                seq,
                estimate.time().as_secs().to_bits(),
                estimate.error().as_secs().to_bits(),
                high_water,
            ];
            begin(&mut out, TYPE_LEASE_ACK, 0, &words)
        }
        ClusterFrame::ViewChangeReq { view } => begin(&mut out, TYPE_VIEW_CHANGE_REQ, 0, &[view]),
        ClusterFrame::ViewChangeAck {
            view,
            ok,
            high_water,
        } => begin(
            &mut out,
            TYPE_VIEW_CHANGE_ACK,
            u8::from(ok),
            &[view, high_water],
        ),
        ClusterFrame::HwUpdate { view, high_water } => {
            begin(&mut out, TYPE_HW_UPDATE, 0, &[view, high_water])
        }
        ClusterFrame::HwAck { view, high_water } => {
            begin(&mut out, TYPE_HW_ACK, 0, &[view, high_water])
        }
    }
    seal(&mut out, 0);
    out
}

/// Decodes a cluster frame. Types 1–3 come back as
/// [`ClusterFrame::Base`], decoded as [`decode`] would; batch frames
/// (type 4) are not part of the cluster protocol and are rejected as an
/// unknown type.
///
/// # Errors
///
/// The same taxonomy as [`decode`]: any shortfall at any byte boundary
/// is [`DecodeError::Truncated`], excess bytes are
/// [`DecodeError::BadLength`], checksum mismatches are
/// [`DecodeError::BadChecksum`], and an out-of-range cause byte,
/// non-boolean ok byte, or non-finite/negative lease estimate is
/// [`DecodeError::BadPayload`].
pub fn decode_cluster(bytes: &[u8]) -> Result<ClusterFrame, DecodeError> {
    let (kind, body) = envelope(bytes, Family::Cluster)?;
    Ok(match kind {
        TYPE_TS_REQUEST => ClusterFrame::TsRequest {
            request_id: word(body, 4),
            attempt: body[3],
        },
        TYPE_TS_REPLY => ClusterFrame::TsReply {
            request_id: word(body, 4),
            view: word(body, 12),
            timestamp: word(body, 20),
        },
        TYPE_TS_REFUSED => ClusterFrame::TsRefused {
            request_id: word(body, 4),
            view: word(body, 12),
            cause: cause_from_byte(body[3]).ok_or(DecodeError::BadPayload)?,
        },
        TYPE_TS_REDIRECT => ClusterFrame::TsRedirect {
            request_id: word(body, 4),
            view: word(body, 12),
            primary: u32::from_be_bytes(body[20..24].try_into().expect("length checked")),
        },
        TYPE_LEASE_RENEW => ClusterFrame::LeaseRenew {
            view: word(body, 4),
            seq: word(body, 12),
        },
        TYPE_LEASE_ACK => ClusterFrame::LeaseAck {
            view: word(body, 4),
            seq: word(body, 12),
            estimate: estimate_at(body, 20)?,
            high_water: word(body, 36),
        },
        TYPE_VIEW_CHANGE_REQ => ClusterFrame::ViewChangeReq {
            view: word(body, 4),
        },
        TYPE_VIEW_CHANGE_ACK => {
            if body[3] > 1 {
                return Err(DecodeError::BadPayload);
            }
            ClusterFrame::ViewChangeAck {
                view: word(body, 4),
                ok: body[3] == 1,
                high_water: word(body, 12),
            }
        }
        TYPE_HW_UPDATE => ClusterFrame::HwUpdate {
            view: word(body, 4),
            high_water: word(body, 12),
        },
        TYPE_HW_ACK => ClusterFrame::HwAck {
            view: word(body, 4),
            high_water: word(body, 12),
        },
        // The envelope admits table rows only, and the rest are base.
        _ => ClusterFrame::Base(base_payload(kind, body)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_telemetry::TelemetryEvent;

    fn reply(id: u64, c: f64, e: f64) -> Message {
        Message::TimeReply {
            request_id: id,
            received_at: Timestamp::from_secs(c - 0.001),
            estimate: TimeEstimate::new(Timestamp::from_secs(c), Duration::from_secs(e)),
        }
    }

    #[test]
    fn request_roundtrip() {
        for attempt in [0, 1, u8::MAX] {
            let msg = Message::TimeRequest {
                request_id: 0xDEAD_BEEF,
                attempt,
            };
            let bytes = encode(&msg);
            assert_eq!(bytes.len(), REQUEST_LEN);
            assert_eq!(bytes[3], attempt);
            assert_eq!(decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn uninitialized_roundtrip_and_corruption() {
        let msg = Message::Uninitialized {
            request_id: 0xFEED_FACE,
        };
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), UNINIT_LEN);
        assert_eq!(bytes[2], TYPE_UNINIT);
        assert_eq!(decode(&bytes).unwrap(), msg);
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xA5;
            assert!(
                decode(&corrupted).is_err(),
                "flip at byte {i} slipped through"
            );
        }
    }

    #[test]
    fn reply_roundtrip() {
        let msg = reply(42, 1234.5678, 0.025);
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), REPLY_LEN);
        assert_eq!(decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn reply_roundtrip_extreme_values() {
        for (c, e) in [(0.0, 0.0), (-1.0e9, 3600.0), (4.0e9, 1e-9)] {
            let msg = reply(u64::MAX, c, e);
            assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn truncated_rejected() {
        let bytes = encode(&Message::TimeRequest {
            request_id: 1,
            attempt: 0,
        });
        assert_eq!(decode(&bytes[..5]), Err(DecodeError::Truncated { len: 5 }));
        assert_eq!(decode(&[]), Err(DecodeError::Truncated { len: 0 }));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&Message::TimeRequest {
            request_id: 1,
            attempt: 0,
        });
        bytes[0] = 0x00;
        assert!(matches!(decode(&bytes), Err(DecodeError::BadMagic { .. })));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = encode(&Message::TimeRequest {
            request_id: 1,
            attempt: 0,
        });
        bytes[2] = 9;
        assert_eq!(decode(&bytes), Err(DecodeError::UnknownType { found: 9 }));
    }

    #[test]
    fn wrong_length_rejected() {
        let mut bytes = encode(&Message::TimeRequest {
            request_id: 1,
            attempt: 0,
        });
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(DecodeError::BadLength { .. })));
        // A reply-typed packet at request length: the declared type
        // promises 38 bytes, so 14 is a truncation.
        let mut bytes = encode(&Message::TimeRequest {
            request_id: 1,
            attempt: 0,
        });
        bytes[2] = TYPE_REPLY;
        assert_eq!(decode(&bytes), Err(DecodeError::Truncated { len: 14 }));
    }

    #[test]
    fn every_field_boundary_truncation_rejected() {
        // Cut each frame type at every byte, including exactly at each
        // field boundary (magic|type|attempt|id|T2|C|E|checksum): all
        // shortfalls must decode to `Truncated`, never panic, never
        // alias another error or a valid message.
        let frames = [
            encode(&Message::TimeRequest {
                request_id: 0x0102_0304_0506_0708,
                attempt: 3,
            }),
            encode(&Message::Uninitialized {
                request_id: 0x1122_3344_5566_7788,
            }),
            encode(&reply(9, 1234.5, 0.125)),
        ];
        for bytes in &frames {
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode(&bytes[..cut]),
                    Err(DecodeError::Truncated { len: cut }),
                    "cut at {cut} of a {}-byte frame",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = encode(&reply(7, 100.0, 0.5));
        // Flip every single byte in turn; the checksum (or a validator)
        // must catch each.
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xA5;
            assert!(
                decode(&corrupted).is_err(),
                "flip at byte {i} slipped through"
            );
        }
    }

    #[test]
    fn non_finite_payload_rejected() {
        // Hand-build a reply with a NaN clock value and a valid
        // checksum.
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC.to_be_bytes());
        body.push(TYPE_REPLY);
        body.push(0);
        body.extend_from_slice(&7u64.to_be_bytes());
        body.extend_from_slice(&1.0f64.to_bits().to_be_bytes());
        body.extend_from_slice(&f64::NAN.to_bits().to_be_bytes());
        body.extend_from_slice(&0.5f64.to_bits().to_be_bytes());
        let ck = checksum(&body);
        body.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(decode(&body), Err(DecodeError::BadPayload));
    }

    #[test]
    fn negative_error_payload_rejected() {
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC.to_be_bytes());
        body.push(TYPE_REPLY);
        body.push(0);
        body.extend_from_slice(&7u64.to_be_bytes());
        body.extend_from_slice(&99.9f64.to_bits().to_be_bytes());
        body.extend_from_slice(&100.0f64.to_bits().to_be_bytes());
        body.extend_from_slice(&(-0.5f64).to_bits().to_be_bytes());
        let ck = checksum(&body);
        body.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(decode(&body), Err(DecodeError::BadPayload));
    }

    #[test]
    fn checksum_matches_ip_style_properties() {
        // Appending the (complemented) checksum makes the total sum
        // come out to 0xFFFF — the classic verification identity.
        let bytes = encode(&reply(3, 50.0, 0.1));
        let (body, ck) = bytes.split_at(bytes.len() - 2);
        let declared = u16::from_be_bytes([ck[0], ck[1]]);
        assert_eq!(checksum(body), declared);
        // Odd-length bodies are padded, not rejected.
        assert_ne!(checksum(&[0x12]), checksum(&[0x13]));
    }

    #[test]
    fn every_decode_error_label_is_in_the_jsonl_schema() {
        // `"malformed".cause` exports `label()`, and the schema's list
        // of legal causes lives in tempo-telemetry, which cannot see
        // this enum: a new variant must be added there too.
        for error in [
            DecodeError::Truncated { len: 3 },
            DecodeError::BadMagic { found: 0 },
            DecodeError::UnknownType { found: 99 },
            DecodeError::BadLength { kind: 1, len: 15 },
            DecodeError::BadChecksum,
            DecodeError::BadPayload,
        ] {
            // Exhaustive on purpose: a new variant fails to compile
            // here until it joins the list above.
            match error {
                DecodeError::Truncated { .. }
                | DecodeError::BadMagic { .. }
                | DecodeError::UnknownType { .. }
                | DecodeError::BadLength { .. }
                | DecodeError::BadChecksum
                | DecodeError::BadPayload => {}
            }
            let line = tempo_telemetry::json::event_line(&TelemetryEvent::MalformedFrame {
                at: Timestamp::from_secs(1.5),
                server: 0,
                len: 3,
                cause: error.label(),
            });
            assert_eq!(
                tempo_telemetry::json::validate_line(&line),
                Ok(()),
                "{line}"
            );
        }
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::BadChecksum.to_string().contains("checksum"));
        assert!(DecodeError::Truncated { len: 3 }.to_string().contains('3'));
    }

    // ----- batch frames -----

    fn mixed_batch() -> Vec<Message> {
        vec![
            reply(1, 100.0, 0.5),
            Message::TimeRequest {
                request_id: 2,
                attempt: 1,
            },
            Message::Uninitialized { request_id: 3 },
            reply(4, -5.25, 0.0),
        ]
    }

    #[test]
    fn batch_roundtrip() {
        let msgs = mixed_batch();
        let bytes = encode_batch(&msgs);
        assert_eq!(bytes[2], TYPE_BATCH);
        assert_eq!(bytes[3], 4);
        assert_eq!(decode_batch(&bytes).unwrap(), msgs);
    }

    #[test]
    fn batch_inner_frames_are_standalone_encodings() {
        let msgs = mixed_batch();
        let bytes = encode_batch(&msgs);
        let mut offset = BATCH_HEADER_LEN;
        for msg in &msgs {
            let single = encode(msg);
            assert_eq!(
                &bytes[offset..offset + single.len()],
                &single[..],
                "inner frame differs from stand-alone encoding"
            );
            offset += single.len();
        }
        assert_eq!(offset + 2, bytes.len());
    }

    #[test]
    fn a_full_request_batch_is_max_request_batch_len_long() {
        let requests: Vec<Message> = (0..MAX_BATCH as u64)
            .map(|request_id| Message::TimeRequest {
                request_id,
                attempt: 0,
            })
            .collect();
        assert_eq!(encode_batch(&requests).len(), MAX_REQUEST_BATCH_LEN);
        assert_eq!(MAX_REQUEST_BATCH_LEN, 4 + 255 * 14 + 2);
    }

    #[test]
    fn singleton_batch_roundtrip() {
        let msgs = vec![reply(77, 1.5, 0.25)];
        assert_eq!(decode_batch(&encode_batch(&msgs)).unwrap(), msgs);
    }

    #[test]
    fn batch_truncation_rejected_at_every_boundary() {
        let bytes = encode_batch(&mixed_batch());
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_batch(&bytes[..cut]),
                Err(DecodeError::Truncated { len: cut }),
                "cut at {cut} of a {}-byte batch",
                bytes.len()
            );
        }
    }

    #[test]
    fn batch_corruption_is_detected() {
        let bytes = encode_batch(&mixed_batch());
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xA5;
            assert!(
                decode_batch(&corrupted).is_err(),
                "flip at byte {i} slipped through"
            );
        }
    }

    #[test]
    fn batch_trailing_garbage_rejected() {
        let mut bytes = encode_batch(&mixed_batch());
        bytes.push(0);
        assert!(matches!(
            decode_batch(&bytes),
            Err(DecodeError::BadLength {
                kind: TYPE_BATCH,
                ..
            })
        ));
    }

    #[test]
    fn zero_count_batch_rejected() {
        let mut bytes = encode_batch(&[Message::Uninitialized { request_id: 1 }]);
        bytes[3] = 0;
        assert!(matches!(
            decode_batch(&bytes),
            Err(DecodeError::BadLength {
                kind: TYPE_BATCH,
                ..
            })
        ));
    }

    #[test]
    fn non_batch_frame_rejected_by_decode_batch() {
        let single = encode(&reply(5, 10.0, 0.1));
        assert_eq!(
            decode_batch(&single),
            Err(DecodeError::UnknownType { found: TYPE_REPLY })
        );
        // And the single-frame decoder refuses batch frames in turn.
        let batch = encode_batch(&[reply(5, 10.0, 0.1)]);
        assert_eq!(
            decode(&batch),
            Err(DecodeError::UnknownType { found: TYPE_BATCH })
        );
    }

    #[test]
    fn encode_into_appends_exactly_encode() {
        let mut buf = vec![0xAB, 0xCD];
        let msg = reply(9, 42.0, 0.01);
        encode_into(&msg, &mut buf);
        assert_eq!(&buf[..2], &[0xAB, 0xCD]);
        assert_eq!(&buf[2..], &encode(&msg)[..]);
    }

    #[test]
    fn encoders_write_the_documented_layout() {
        // Each frame laid out by hand from the module docs, its checksum
        // summed over every byte before it: `begin`'s one append and the
        // batch's header-only outer checksum must write these bytes.
        let framed = |mut bytes: Vec<u8>| {
            let ck = checksum(&bytes);
            bytes.extend_from_slice(&ck.to_be_bytes());
            bytes
        };
        let by_hand = |kind: u8, byte3: u8, words: &[u64]| {
            let mut bytes = vec![0x7E, 0x30, kind, byte3];
            words
                .iter()
                .for_each(|w| bytes.extend_from_slice(&w.to_be_bytes()));
            framed(bytes)
        };
        let msgs = mixed_batch();
        let singles = [
            by_hand(
                TYPE_REPLY,
                0,
                &[
                    1,
                    (100.0f64 - 0.001).to_bits(),
                    100f64.to_bits(),
                    0.5f64.to_bits(),
                ],
            ),
            by_hand(TYPE_REQUEST, 1, &[2]),
            by_hand(TYPE_UNINIT, 0, &[3]),
            by_hand(
                TYPE_REPLY,
                0,
                &[4, (-5.25f64 - 0.001).to_bits(), (-5.25f64).to_bits(), 0],
            ),
        ];
        for (msg, want) in msgs.iter().zip(&singles) {
            assert_eq!(&encode(msg), want, "{msg:?}");
        }
        let mut batch = vec![0x7E, 0x30, TYPE_BATCH, 4];
        singles
            .iter()
            .for_each(|single| batch.extend_from_slice(single));
        assert_eq!(encode_batch(&msgs), framed(batch));
        let redirect = ClusterFrame::TsRedirect {
            request_id: 5,
            view: 6,
            primary: 7,
        };
        let mut want = by_hand(TYPE_TS_REDIRECT, 0, &[5, 6]);
        want.truncate(want.len() - 2);
        want.extend_from_slice(&7u32.to_be_bytes());
        assert_eq!(encode_cluster(&redirect), framed(want));
    }

    #[test]
    #[should_panic(expected = "at least one message")]
    fn empty_batch_panics() {
        let _ = encode_batch(&[]);
    }

    // ----- cluster frames -----

    fn every_cluster_frame() -> Vec<ClusterFrame> {
        vec![
            ClusterFrame::Base(Message::TimeRequest {
                request_id: 11,
                attempt: 2,
            }),
            ClusterFrame::Base(reply(12, 99.5, 0.125)),
            ClusterFrame::Base(Message::Uninitialized { request_id: 13 }),
            ClusterFrame::TsRequest {
                request_id: 0xAAAA_BBBB,
                attempt: 3,
            },
            ClusterFrame::TsReply {
                request_id: 1,
                view: 7,
                timestamp: 12_500_001,
            },
            ClusterFrame::TsRefused {
                request_id: 2,
                view: 7,
                cause: RefusalCause::NoQuorum,
            },
            ClusterFrame::TsRedirect {
                request_id: 3,
                view: 8,
                primary: 4,
            },
            ClusterFrame::LeaseRenew { view: 8, seq: 41 },
            ClusterFrame::LeaseAck {
                view: 8,
                seq: 41,
                estimate: TimeEstimate::new(Timestamp::from_secs(12.5), Duration::from_secs(0.004)),
                high_water: 12_500_000,
            },
            ClusterFrame::ViewChangeReq { view: 9 },
            ClusterFrame::ViewChangeAck {
                view: 9,
                ok: true,
                high_water: 12_600_000,
            },
            ClusterFrame::ViewChangeAck {
                view: 9,
                ok: false,
                high_water: 0,
            },
            ClusterFrame::HwUpdate {
                view: 9,
                high_water: 12_700_000,
            },
            ClusterFrame::HwAck {
                view: 9,
                high_water: 12_700_000,
            },
        ]
    }

    #[test]
    fn cluster_roundtrip_every_variant() {
        for frame in every_cluster_frame() {
            let bytes = encode_cluster(&frame);
            assert_eq!(
                decode_cluster(&bytes).unwrap(),
                frame,
                "round trip failed for {frame:?}"
            );
        }
    }

    #[test]
    fn cluster_base_frames_are_byte_identical_to_standalone() {
        let msg = reply(21, 50.0, 0.5);
        assert_eq!(encode_cluster(&ClusterFrame::Base(msg)), encode(&msg));
        // And the base decoder accepts what the cluster encoder wrote.
        assert_eq!(
            decode(&encode_cluster(&ClusterFrame::Base(msg))).unwrap(),
            msg
        );
    }

    #[test]
    fn cluster_truncation_rejected_at_every_boundary() {
        for frame in every_cluster_frame() {
            let bytes = encode_cluster(&frame);
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode_cluster(&bytes[..cut]),
                    Err(DecodeError::Truncated { len: cut }),
                    "cut at {cut} of {frame:?}"
                );
            }
        }
    }

    #[test]
    fn cluster_corruption_is_detected() {
        for frame in every_cluster_frame() {
            let bytes = encode_cluster(&frame);
            for i in 0..bytes.len() {
                let mut corrupted = bytes.clone();
                corrupted[i] ^= 0xA5;
                assert!(
                    decode_cluster(&corrupted).is_err(),
                    "flip at byte {i} of {frame:?} slipped through"
                );
            }
        }
    }

    #[test]
    fn cluster_trailing_garbage_rejected() {
        for frame in every_cluster_frame() {
            let mut bytes = encode_cluster(&frame);
            bytes.push(0);
            assert!(
                decode_cluster(&bytes).is_err(),
                "trailing byte accepted for {frame:?}"
            );
        }
    }

    #[test]
    fn cluster_rejects_batch_frames() {
        let batch = encode_batch(&[reply(5, 10.0, 0.1)]);
        assert_eq!(
            decode_cluster(&batch),
            Err(DecodeError::UnknownType { found: TYPE_BATCH })
        );
    }

    #[test]
    fn cluster_bad_cause_byte_rejected() {
        // Hand-build a refusal with an out-of-range cause and a valid
        // checksum: the checksum passes, the payload validator must not.
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC.to_be_bytes());
        body.push(TYPE_TS_REFUSED);
        body.push(9);
        body.extend_from_slice(&1u64.to_be_bytes());
        body.extend_from_slice(&2u64.to_be_bytes());
        let ck = checksum(&body);
        body.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(decode_cluster(&body), Err(DecodeError::BadPayload));
    }

    #[test]
    fn cluster_bad_ok_byte_rejected() {
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC.to_be_bytes());
        body.push(TYPE_VIEW_CHANGE_ACK);
        body.push(2);
        body.extend_from_slice(&1u64.to_be_bytes());
        body.extend_from_slice(&2u64.to_be_bytes());
        let ck = checksum(&body);
        body.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(decode_cluster(&body), Err(DecodeError::BadPayload));
    }

    #[test]
    fn cluster_non_finite_lease_estimate_rejected() {
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC.to_be_bytes());
        body.push(TYPE_LEASE_ACK);
        body.push(0);
        body.extend_from_slice(&1u64.to_be_bytes());
        body.extend_from_slice(&2u64.to_be_bytes());
        body.extend_from_slice(&f64::NAN.to_bits().to_be_bytes());
        body.extend_from_slice(&0.5f64.to_bits().to_be_bytes());
        body.extend_from_slice(&3u64.to_be_bytes());
        let ck = checksum(&body);
        body.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(decode_cluster(&body), Err(DecodeError::BadPayload));
    }
}
