//! Property tests for the PUP-flavoured wire codec: lossless round
//! trips for every representable message, graceful rejection of every
//! malformed byte string, and detection of arbitrary single-byte
//! corruption.

use tempo_check::{check, Gen};

use tempo_core::{Duration, TimeEstimate, Timestamp};
use tempo_service::wire::{
    decode, decode_batch, decode_batch_into, decode_cluster, encode, encode_batch, encode_cluster,
    encode_into, ClusterFrame, DecodeError, MAX_BATCH,
};
use tempo_service::Message;
use tempo_telemetry::RefusalCause;

fn arb_cluster_frame(g: &mut Gen) -> ClusterFrame {
    match g.int(0..11u8) {
        0 => ClusterFrame::Base(arb_message(g)),
        1 => ClusterFrame::TsRequest {
            request_id: g.u64(),
            attempt: g.int(0..=u8::MAX),
        },
        2 => ClusterFrame::TsReply {
            request_id: g.u64(),
            view: g.u64(),
            timestamp: g.u64(),
        },
        3 => ClusterFrame::TsRefused {
            request_id: g.u64(),
            view: g.u64(),
            cause: *g.pick(&[
                RefusalCause::NoLease,
                RefusalCause::NoQuorum,
                RefusalCause::Booting,
                RefusalCause::Ahead,
            ]),
        },
        4 => ClusterFrame::TsRedirect {
            request_id: g.u64(),
            view: g.u64(),
            primary: g.int(0..=u32::MAX),
        },
        5 => ClusterFrame::LeaseRenew {
            view: g.u64(),
            seq: g.u64(),
        },
        6 => ClusterFrame::LeaseAck {
            view: g.u64(),
            seq: g.u64(),
            estimate: TimeEstimate::new(
                Timestamp::from_secs(g.f64(-1.0e12..1.0e12)),
                Duration::from_secs(g.f64(0.0..1.0e9)),
            ),
            high_water: g.u64(),
        },
        7 => ClusterFrame::ViewChangeReq { view: g.u64() },
        8 => ClusterFrame::ViewChangeAck {
            view: g.u64(),
            ok: g.bool(),
            high_water: g.u64(),
        },
        9 => ClusterFrame::HwUpdate {
            view: g.u64(),
            high_water: g.u64(),
        },
        _ => ClusterFrame::HwAck {
            view: g.u64(),
            high_water: g.u64(),
        },
    }
}

fn arb_message(g: &mut Gen) -> Message {
    match g.int(0..3u8) {
        0 => Message::TimeRequest {
            request_id: g.u64(),
            attempt: g.int(0..=u8::MAX),
        },
        1 => {
            let request_id = g.u64();
            let (c, e, r) = (g.f64(-1.0e12..1.0e12), g.f64(0.0..1.0e9), g.f64(-1.0..1.0));
            Message::TimeReply {
                request_id,
                received_at: Timestamp::from_secs(c + r),
                estimate: TimeEstimate::new(Timestamp::from_secs(c), Duration::from_secs(e)),
            }
        }
        _ => Message::Uninitialized {
            request_id: g.u64(),
        },
    }
}

/// encode → decode is the identity for every representable message.
#[test]
fn roundtrip() {
    check("roundtrip", 256, |g| {
        let msg = arb_message(g);
        let bytes = encode(&msg);
        assert_eq!(decode(&bytes), Ok(msg));
    });
}

/// Decoding arbitrary bytes never panics; it returns a structured
/// error or — only when the bytes happen to be a valid packet — a
/// message that re-encodes to the same bytes.
#[test]
fn decode_never_panics() {
    check("decode_never_panics", 256, |g| {
        let bytes = g.bytes(0..64);
        if let Ok(msg) = decode(&bytes) {
            assert_eq!(encode(&msg), bytes);
        }
    });
}

/// Any single-byte corruption of a valid packet is rejected.
#[test]
fn single_byte_corruption_detected() {
    check("single_byte_corruption_detected", 256, |g| {
        let msg = arb_message(g);
        let idx_seed = g.int(0..=usize::MAX);
        let flip = g.int(1u8..=255);
        let mut bytes = encode(&msg);
        let idx = idx_seed % bytes.len();
        bytes[idx] ^= flip;
        // Corruption may coincidentally produce another *valid* packet
        // only if it still checksums — the ones'-complement sum makes
        // that impossible for a single-byte change.
        if let Ok(other) = decode(&bytes) {
            assert_eq!(other, msg, "corruption accepted as a different message");
        }
    });
}

/// Truncating a valid packet anywhere — any field boundary, any
/// mid-field byte — is rejected *as a truncation*, so a fault
/// soak's cut datagrams stay attributable.
#[test]
fn truncation_detected() {
    check("truncation_detected", 256, |g| {
        let msg = arb_message(g);
        let cut_seed = g.int(0..=usize::MAX);
        let bytes = encode(&msg);
        let cut = cut_seed % bytes.len();
        assert_eq!(
            decode(&bytes[..cut]),
            Err(DecodeError::Truncated { len: cut })
        );
    });
}

/// A valid packet with trailing garbage is rejected, never panics —
/// the declared type fixes the length exactly.
#[test]
fn trailing_garbage_rejected() {
    check("trailing_garbage_rejected", 256, |g| {
        let msg = arb_message(g);
        let tail = g.bytes(1..512);
        let mut bytes = encode(&msg);
        bytes.extend_from_slice(&tail);
        assert!(decode(&bytes).is_err());
    });
}

/// Wild buffer lengths — far beyond any valid packet — error
/// cleanly. Catches any indexing that trusts `len` before checking.
#[test]
fn wild_lengths_never_panic() {
    check("wild_lengths_never_panic", 256, |g| {
        let len = g.int(0usize..4096);
        let fill = g.int(0..=u8::MAX);
        let msg = arb_message(g);
        // A worst-case buffer: a *valid header prefix* followed by
        // `fill` up to a wild length, so decode gets past the cheap
        // checks before the length lies to it.
        let valid = encode(&msg);
        let mut bytes = vec![fill; len];
        let header = valid.len().min(len).min(6);
        bytes[..header].copy_from_slice(&valid[..header]);
        if let Ok(decoded) = decode(&bytes) {
            // Only reachable when the buffer happens to be exactly a
            // valid packet again.
            assert_eq!(encode(&decoded), bytes);
        }
    });
}

/// Every corruption of the type byte errors or still round-trips;
/// no declared type may cause an out-of-bounds body read.
#[test]
fn arbitrary_type_byte_never_panics() {
    check("arbitrary_type_byte_never_panics", 256, |g| {
        let msg = arb_message(g);
        let kind = g.int(0..=u8::MAX);
        let mut bytes = encode(&msg);
        bytes[2] = kind;
        if let Ok(decoded) = decode(&bytes) {
            assert_eq!(encode(&decoded), bytes);
        }
    });
}

// ----- batch frames (the serving front's aggregated replies) -----

/// Batch encode → decode is the identity for any message sequence,
/// and batching is *transparent*: the inner frames are byte-for-byte
/// the stand-alone encodings, so decoding them one at a time yields
/// exactly the same messages in the same order.
#[test]
fn batch_equals_one_at_a_time() {
    check("batch_equals_one_at_a_time", 256, |g| {
        let msgs = g.vec(1..24, arb_message);
        let bytes = encode_batch(&msgs);
        let decoded = decode_batch(&bytes);
        assert_eq!(decoded.as_ref(), Ok(&msgs));
        // Walk the inner frames exactly as a one-at-a-time decoder
        // would, comparing against individual encodings.
        let mut offset = 4; // magic + type + count
        for msg in &msgs {
            let single = encode(msg);
            let inner = &bytes[offset..offset + single.len()];
            assert_eq!(inner, &single[..], "inner frame ≠ stand-alone encoding");
            assert_eq!(decode(inner), Ok(*msg));
            offset += single.len();
        }
        assert_eq!(
            offset + 2,
            bytes.len(),
            "only the outer checksum may follow"
        );
    });
}

/// `encode_into` is `encode` as a buffer append, at any prefix.
#[test]
fn encode_into_matches_encode() {
    check("encode_into_matches_encode", 256, |g| {
        let msg = arb_message(g);
        let prefix = g.bytes(0..32);
        let mut buf = prefix.clone();
        encode_into(&msg, &mut buf);
        assert_eq!(&buf[..prefix.len()], &prefix[..]);
        assert_eq!(&buf[prefix.len()..], &encode(&msg)[..]);
    });
}

/// Truncating a batch frame anywhere — mid-header, at an inner
/// frame boundary, mid-inner-frame, or into the outer checksum —
/// is rejected *as a truncation* at every byte boundary.
#[test]
fn batch_truncation_detected() {
    check("batch_truncation_detected", 256, |g| {
        let msgs = g.vec(1..12, arb_message);
        let cut_seed = g.int(0..=usize::MAX);
        let bytes = encode_batch(&msgs);
        let cut = cut_seed % bytes.len();
        assert_eq!(
            decode_batch(&bytes[..cut]),
            Err(DecodeError::Truncated { len: cut })
        );
    });
}

/// Any single-byte corruption of a batch frame is rejected (or, at
/// the impossible limit, decodes back to the identical sequence).
#[test]
fn batch_single_byte_corruption_detected() {
    check("batch_single_byte_corruption_detected", 256, |g| {
        let msgs = g.vec(1..12, arb_message);
        let idx_seed = g.int(0..=usize::MAX);
        let flip = g.int(1u8..=255);
        let mut bytes = encode_batch(&msgs);
        let idx = idx_seed % bytes.len();
        bytes[idx] ^= flip;
        if let Ok(other) = decode_batch(&bytes) {
            assert_eq!(other, msgs, "corruption accepted as a different batch");
        }
    });
}

/// Decoding arbitrary bytes as a batch never panics; a success
/// re-encodes to the same bytes.
#[test]
fn batch_decode_never_panics() {
    check("batch_decode_never_panics", 256, |g| {
        let bytes = g.bytes(0..256);
        if let Ok(msgs) = decode_batch(&bytes) {
            assert_eq!(encode_batch(&msgs), bytes);
        }
    });
}

/// A batch with trailing garbage is rejected: the declared count
/// and inner types fix the total length exactly.
#[test]
fn batch_trailing_garbage_rejected() {
    check("batch_trailing_garbage_rejected", 256, |g| {
        let msgs = g.vec(1..8, arb_message);
        let tail = g.bytes(1..128);
        let mut bytes = encode_batch(&msgs);
        bytes.extend_from_slice(&tail);
        assert!(decode_batch(&bytes).is_err());
    });
}

/// The batch decoder as it was before it walked a batch once: find every
/// inner frame's extent, check the outer frame, then decode the inner
/// frames one at a time. It states the first-error order on its own, so
/// the one-walk decoder is held to it rather than to itself.
fn two_pass_reference(bytes: &[u8]) -> Result<Vec<Message>, DecodeError> {
    let checksum = |body: &[u8]| {
        let mut sum: u32 = body
            .chunks(2)
            .map(|w| u32::from(u16::from_be_bytes([w[0], *w.get(1).unwrap_or(&0)])))
            .sum();
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    };
    let (len, truncated) = (bytes.len(), DecodeError::Truncated { len: bytes.len() });
    if len < 4 {
        return Err(truncated);
    }
    match (u16::from_be_bytes([bytes[0], bytes[1]]), bytes[2], bytes[3]) {
        (0x7E30, 4, 1..) => {}
        (0x7E30, 4, 0) => return Err(DecodeError::BadLength { kind: 4, len }),
        (0x7E30, found, _) => return Err(DecodeError::UnknownType { found }),
        (found, ..) => return Err(DecodeError::BadMagic { found }),
    }
    let mut bounds = Vec::new();
    let mut offset = 4;
    for _ in 0..bytes[3] {
        // The base frame table: requests and refusals 14 bytes, replies 38.
        let frame_len = match *bytes.get(offset + 2).ok_or(truncated)? {
            1 | 3 => 14,
            2 => 38,
            found => return Err(DecodeError::UnknownType { found }),
        };
        if offset + frame_len > len {
            return Err(truncated);
        }
        bounds.push(offset..offset + frame_len);
        offset += frame_len;
    }
    if len < offset + 2 {
        return Err(truncated);
    }
    if len > offset + 2 {
        return Err(DecodeError::BadLength { kind: 4, len });
    }
    if checksum(&bytes[..offset]) != u16::from_be_bytes([bytes[offset], bytes[offset + 1]]) {
        return Err(DecodeError::BadChecksum);
    }
    bounds
        .into_iter()
        .map(|frame| decode(&bytes[frame]))
        .collect()
}

/// `decode_batch_into` behind `prefix` gives what `decode_batch` and the
/// two-pass reference give: on `Ok`, the messages after the untouched
/// prefix; on `Err`, the same error and the buffer exactly as it was.
fn assert_into_agrees(bytes: &[u8], prefix: &[Message]) {
    let want = decode_batch(bytes);
    assert_eq!(want, two_pass_reference(bytes), "{bytes:02x?}");
    let mut buf = prefix.to_vec();
    let got = decode_batch_into(bytes, &mut buf);
    assert_eq!(got, want.as_ref().map(|_| ()).map_err(|e| *e));
    assert_eq!(&buf[..prefix.len()], prefix, "the prefix is kept");
    match want {
        Ok(msgs) => assert_eq!(&buf[prefix.len()..], &msgs[..]),
        Err(_) => assert_eq!(buf.len(), prefix.len(), "an error appends nothing"),
    }
}

/// `decode_batch_into` agrees with `decode_batch`, `Ok` and `Err` alike,
/// at every truncation cut and every single-byte corruption of a batch,
/// behind an empty or a non-empty buffer.
#[test]
fn batch_into_agrees_at_every_cut_and_corruption() {
    check("batch_into_agrees_at_every_cut_and_corruption", 128, |g| {
        let msgs = g.vec(1..12, arb_message);
        let prefix = g.vec(0..4, arb_message);
        let flip = g.int(1u8..=255);
        let bytes = encode_batch(&msgs);
        assert_into_agrees(&bytes, &prefix);
        for cut in 0..bytes.len() {
            assert_into_agrees(&bytes[..cut], &prefix);
        }
        for idx in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[idx] ^= flip;
            assert_into_agrees(&corrupted, &prefix);
        }
    });
}

/// The same agreement for trailing garbage and for a full 255-frame
/// batch, whole and with one byte corrupted.
#[test]
fn batch_into_agrees_on_garbage_and_a_full_batch() {
    check("batch_into_agrees_on_garbage_and_a_full_batch", 64, |g| {
        let prefix = g.vec(0..4, arb_message);
        let mut bytes = encode_batch(&g.vec(1..8, arb_message));
        bytes.extend_from_slice(&g.bytes(1..128));
        assert_into_agrees(&bytes, &prefix);
        assert_into_agrees(&g.bytes(0..256), &prefix);
        let mut full = encode_batch(&g.vec(MAX_BATCH..=MAX_BATCH, arb_message));
        assert_into_agrees(&full, &prefix);
        let idx = g.int(0..full.len());
        full[idx] ^= g.int(1u8..=255);
        assert_into_agrees(&full, &prefix);
    });
}

// ----- cluster frames (the ClusterTime protocol, types 5–14) -----

/// encode → decode is the identity for every representable cluster
/// frame, including delegated base messages.
#[test]
fn cluster_roundtrip() {
    check("cluster_roundtrip", 256, |g| {
        let frame = arb_cluster_frame(g);
        let bytes = encode_cluster(&frame);
        assert_eq!(decode_cluster(&bytes), Ok(frame));
    });
}

/// Decoding arbitrary bytes as a cluster frame never panics; a
/// success re-encodes to the same bytes.
#[test]
fn cluster_decode_never_panics() {
    check("cluster_decode_never_panics", 256, |g| {
        let bytes = g.bytes(0..64);
        if let Ok(frame) = decode_cluster(&bytes) {
            assert_eq!(encode_cluster(&frame), bytes);
        }
    });
}

/// Truncating a cluster frame anywhere is rejected *as a
/// truncation* at every byte boundary.
#[test]
fn cluster_truncation_detected() {
    check("cluster_truncation_detected", 256, |g| {
        let frame = arb_cluster_frame(g);
        let cut_seed = g.int(0..=usize::MAX);
        let bytes = encode_cluster(&frame);
        let cut = cut_seed % bytes.len();
        assert_eq!(
            decode_cluster(&bytes[..cut]),
            Err(DecodeError::Truncated { len: cut })
        );
    });
}

/// Any single-byte corruption of a cluster frame is rejected (or at
/// the impossible limit decodes to the identical frame).
#[test]
fn cluster_single_byte_corruption_detected() {
    check("cluster_single_byte_corruption_detected", 256, |g| {
        let frame = arb_cluster_frame(g);
        let idx_seed = g.int(0..=usize::MAX);
        let flip = g.int(1u8..=255);
        let mut bytes = encode_cluster(&frame);
        let idx = idx_seed % bytes.len();
        bytes[idx] ^= flip;
        if let Ok(other) = decode_cluster(&bytes) {
            assert_eq!(other, frame, "corruption accepted as a different frame");
        }
    });
}

/// A cluster frame with trailing garbage is rejected: the declared
/// type fixes the length exactly.
#[test]
fn cluster_trailing_garbage_rejected() {
    check("cluster_trailing_garbage_rejected", 256, |g| {
        let frame = arb_cluster_frame(g);
        let tail = g.bytes(1..128);
        let mut bytes = encode_cluster(&frame);
        bytes.extend_from_slice(&tail);
        assert!(decode_cluster(&bytes).is_err());
    });
}

/// Every corruption of the type byte errors or still round-trips;
/// no declared type may cause an out-of-bounds body read.
#[test]
fn cluster_arbitrary_type_byte_never_panics() {
    check("cluster_arbitrary_type_byte_never_panics", 256, |g| {
        let frame = arb_cluster_frame(g);
        let kind = g.int(0..=u8::MAX);
        let mut bytes = encode_cluster(&frame);
        bytes[2] = kind;
        if let Ok(decoded) = decode_cluster(&bytes) {
            assert_eq!(encode_cluster(&decoded), bytes);
        }
    });
}
