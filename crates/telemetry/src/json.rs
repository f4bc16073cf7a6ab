//! JSONL export: serialization of [`TelemetryEvent`]s to one-object-
//! per-line JSON, plus a minimal parser and schema validator so CI can
//! check an exported stream without external dependencies.
//!
//! The schema is stable and documented in EXPERIMENTS.md. Every line
//! is a flat JSON object whose `"type"` field names the record; field
//! order is fixed and numbers are written by [`crate::num`] exactly as
//! Rust's `{}` formats them (shortest round-trip, never an exponent),
//! so a fixed seed yields a byte-identical stream.

use tempo_core::{Duration, Timestamp};

use crate::num::{write_f64, write_u64};
use crate::{SampleSnapshot, TelemetryEvent};

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// A value [`json_record!`](crate::json_record) can append to a line
/// in place.
pub trait Value {
    /// Appends `self` as JSON.
    fn write_json(&self, out: &mut Vec<u8>);
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut Vec<u8>) {
        (**self).write_json(out);
    }
}

impl Value for f64 {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_f64(out, *self);
    }
}

impl Value for Timestamp {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_f64(out, self.as_secs());
    }
}

impl Value for Duration {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_f64(out, self.as_secs());
    }
}

impl Value for u64 {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_u64(out, *self);
    }
}

impl Value for u32 {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_u64(out, u64::from(*self));
    }
}

impl Value for usize {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_u64(out, *self as u64);
    }
}

impl Value for bool {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
}

/// A string literal, quoted and escaped.
impl Value for str {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.push(b'"');
        let mut rest = self.as_bytes();
        // Bytes of a multi-byte scalar are all >= 0x80 and pass through.
        while let Some(at) = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        {
            out.extend_from_slice(&rest[..at]);
            match rest[at] {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                control => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    out.extend_from_slice(b"\\u00");
                    out.push(HEX[usize::from(control >> 4)]);
                    out.push(HEX[usize::from(control & 0xf)]);
                }
            }
            rest = &rest[at + 1..];
        }
        out.extend_from_slice(rest);
        out.push(b'"');
    }
}

/// An array, written in place.
impl<T: Value> Value for [T] {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            item.write_json(out);
        }
        out.push(b']');
    }
}

// Inactive servers export as `null`: their free-running clocks are
// visible in-process, but the JSONL schema only carries service
// members.
impl Value for SampleSnapshot {
    fn write_json(&self, out: &mut Vec<u8>) {
        if !self.active {
            out.extend_from_slice(b"null");
            return;
        }
        out.extend_from_slice(b"{\"clock\":");
        self.clock.write_json(out);
        out.extend_from_slice(b",\"error\":");
        self.error.write_json(out);
        out.extend_from_slice(b",\"offset\":");
        self.true_offset.write_json(out);
        out.extend_from_slice(b",\"correct\":");
        self.correct.write_json(out);
        out.push(b'}');
    }
}

/// Appends one record `{"type":<tag>,<key>:<value>,…}` to a
/// `&mut Vec<u8>` (no trailing newline). Tag and keys are literals
/// (plain ASCII, nothing to escape), so each key is one pre-quoted
/// fragment copied into the line; values are anything implementing
/// [`json::Value`](crate::json::Value).
#[macro_export]
macro_rules! json_record {
    ($out:expr, $tag:literal, $first:literal : $head:expr $(, $key:literal : $value:expr)* $(,)?) => {{
        let out: &mut ::std::vec::Vec<u8> = $out;
        out.extend_from_slice(concat!("{\"type\":\"", $tag, "\",\"", $first, "\":").as_bytes());
        $crate::json::Value::write_json(&$head, out);
        $(
            out.extend_from_slice(concat!(",\"", $key, "\":").as_bytes());
            $crate::json::Value::write_json(&$value, out);
        )*
        out.push(b'}');
    }};
}

/// Appends one event's JSONL line (no trailing newline) to `out`,
/// allocating nothing beyond `out`'s own growth. The tags repeat
/// [`crate::EventKind::name`]; the per-kind fixtures in this module's
/// tests hold the two together.
#[rustfmt::skip]
pub fn write_event(out: &mut Vec<u8>, event: &TelemetryEvent) {
    match event {
        TelemetryEvent::MsgSend { at, from, to } =>
            json_record!(out, "send", "t": at, "from": from, "to": to),
        TelemetryEvent::MsgRecv { at, from, to } =>
            json_record!(out, "recv", "t": at, "from": from, "to": to),
        TelemetryEvent::MsgDuplicate { at, from, to } =>
            json_record!(out, "dup", "t": at, "from": from, "to": to),
        TelemetryEvent::MsgDrop { at, from, to, cause } =>
            json_record!(out, "drop", "t": at, "from": from, "to": to, "cause": cause.label()),
        TelemetryEvent::TimerFired { at, node, tag } =>
            json_record!(out, "timer", "t": at, "node": node, "tag": tag),
        TelemetryEvent::Join { at, server, clock } =>
            json_record!(out, "join", "t": at, "server": server, "clock": clock),
        TelemetryEvent::Leave { at, server } =>
            json_record!(out, "leave", "t": at, "server": server),
        TelemetryEvent::RecoveryStarted { at, server } =>
            json_record!(out, "recovery", "t": at, "server": server),
        TelemetryEvent::RoundBegin { at, server, round, clock, polled } =>
            json_record!(out, "round_begin", "t": at, "server": server, "round": round,
                "clock": clock, "polled": polled),
        TelemetryEvent::RoundAdopt {
            at, server, round, clock, error_before, error_after, input_widths, recovery,
        } =>
            json_record!(out, "adopt", "t": at, "server": server, "round": round,
                "clock": clock, "e_before": error_before, "e_after": error_after,
                "inputs": input_widths.as_slice(), "recovery": recovery),
        TelemetryEvent::RoundReject { at, server, round, cause } =>
            json_record!(out, "reject", "t": at, "server": server, "round": round,
                "cause": cause.label()),
        TelemetryEvent::ClockStep { at, server, from, to, error } =>
            json_record!(out, "step", "t": at, "server": server, "from": from, "to": to,
                "error": error),
        TelemetryEvent::ClockSlew { at, server, from, to, error } =>
            json_record!(out, "slew", "t": at, "server": server, "from": from, "to": to,
                "error": error),
        TelemetryEvent::Timeout { at, server, peer, round, attempt } =>
            json_record!(out, "timeout", "t": at, "server": server, "peer": peer,
                "round": round, "attempt": attempt),
        TelemetryEvent::Retry { at, server, peer, round, attempt } =>
            json_record!(out, "retry", "t": at, "server": server, "peer": peer,
                "round": round, "attempt": attempt),
        TelemetryEvent::HealthChanged { at, server, peer, from, to } =>
            json_record!(out, "health", "t": at, "server": server, "peer": peer,
                "from": from.label(), "to": to.label()),
        TelemetryEvent::DegradedEnter { at, server, round, replies, quorum } =>
            json_record!(out, "degraded_enter", "t": at, "server": server, "round": round,
                "replies": replies, "quorum": quorum),
        TelemetryEvent::DegradedExit { at, server, round } =>
            json_record!(out, "degraded_exit", "t": at, "server": server, "round": round),
        TelemetryEvent::Sample { at, servers } =>
            json_record!(out, "sample", "t": at, "servers": servers.as_slice()),
        TelemetryEvent::ServerCrashed { at, server } =>
            json_record!(out, "crash", "t": at, "server": server),
        TelemetryEvent::ServerRestarted { at, server, amnesia } =>
            json_record!(out, "restart", "t": at, "server": server, "amnesia": amnesia),
        TelemetryEvent::StateRehydrated {
            at, server, clock, error, reset_clock, persisted_error,
        } =>
            json_record!(out, "rehydrate", "t": at, "server": server, "clock": clock,
                "error": error, "reset_clock": reset_clock,
                "persisted_error": persisted_error),
        TelemetryEvent::BootstrapCompleted { at, server, rounds, clock, error } =>
            json_record!(out, "bootstrap", "t": at, "server": server, "rounds": rounds,
                "clock": clock, "error": error),
        TelemetryEvent::StateCorrupted { at, server, clock, error } =>
            json_record!(out, "corrupt", "t": at, "server": server, "clock": clock,
                "error": error),
        TelemetryEvent::Stabilized { at, server, elapsed } =>
            json_record!(out, "stabilized", "t": at, "server": server, "elapsed": elapsed),
        TelemetryEvent::MalformedFrame { at, server, len, cause } =>
            json_record!(out, "malformed", "t": at, "server": server, "len": len,
                "cause": cause),
        TelemetryEvent::ViewChange { at, server, view, high_water } =>
            json_record!(out, "view_change", "t": at, "server": server, "view": view,
                "high_water": high_water),
        TelemetryEvent::LeaseGranted { at, server, view, until } =>
            json_record!(out, "lease_granted", "t": at, "server": server, "view": view,
                "until": until),
        TelemetryEvent::LeaseExpired { at, server, view } =>
            json_record!(out, "lease_expired", "t": at, "server": server, "view": view),
        TelemetryEvent::TsIssued { at, server, view, timestamp, lo, hi } =>
            json_record!(out, "ts_issued", "t": at, "server": server, "view": view,
                "timestamp": timestamp, "lo": lo, "hi": hi),
        TelemetryEvent::TsRefused { at, server, view, cause } =>
            json_record!(out, "ts_refused", "t": at, "server": server, "view": view,
                "cause": cause.label()),
        TelemetryEvent::HwRehydrated { at, server, view, high_water } =>
            json_record!(out, "hw_rehydrated", "t": at, "server": server, "view": view,
                "high_water": high_water),
    }
}

/// One event's JSONL line as a `String`, for callers that want text
/// rather than a buffer to append to.
#[must_use]
pub fn event_line(event: &TelemetryEvent) -> String {
    let mut line = Vec::with_capacity(96);
    write_event(&mut line, event);
    String::from_utf8(line).expect("the encoder writes UTF-8")
}

// ---------------------------------------------------------------------------
// Parsing (for schema validation — no external JSON crate available)
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a field of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(_) => self.parse_number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        let value: f64 = text
            .parse()
            .map_err(|_| self.err(&format!("bad number '{text}'")))?;
        if !value.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(Json::Num(value))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf8 in string"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses one JSON document (rejects trailing garbage).
pub fn parse(input: &str) -> Result<Json, String> {
    let mut parser = Parser::new(input);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing garbage"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

/// Expected type of a schema field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Num,
    Int,
    Str,
    Bool,
    NumArr,
    SampleArr,
}

fn check_field(value: &Json, expected: Field) -> bool {
    match (expected, value) {
        (Field::Num, Json::Num(_)) => true,
        (Field::Int, Json::Num(n)) => n.fract() == 0.0 && *n >= 0.0,
        (Field::Str, Json::Str(_)) => true,
        (Field::Bool, Json::Bool(_)) => true,
        (Field::NumArr, Json::Arr(items)) => items.iter().all(|i| matches!(i, Json::Num(_))),
        (Field::SampleArr, Json::Arr(items)) => items.iter().all(|item| match item {
            Json::Null => true,
            Json::Obj(_) => {
                const SNAP: [(&str, Field); 4] = [
                    ("clock", Field::Num),
                    ("error", Field::Num),
                    ("offset", Field::Num),
                    ("correct", Field::Bool),
                ];
                fields_match(item, &SNAP)
            }
            _ => false,
        }),
        _ => false,
    }
}

/// Exact match: every listed field present with the right type, and no
/// unlisted field (besides `"type"`).
fn fields_match(obj: &Json, schema: &[(&str, Field)]) -> bool {
    let Json::Obj(fields) = obj else {
        return false;
    };
    for (key, expected) in schema {
        match obj.get(key) {
            Some(value) if check_field(value, *expected) => {}
            _ => return false,
        }
    }
    fields
        .iter()
        .all(|(k, _)| k == "type" || schema.iter().any(|(key, _)| key == k))
}

/// Required fields (beyond `"type"`) for each record type.
fn schema_for(tag: &str) -> Option<&'static [(&'static str, Field)]> {
    Some(match tag {
        "run_start" => &[
            ("seed", Field::Int),
            ("servers", Field::Int),
            ("strategy", Field::Str),
            ("xi", Field::Num),
            ("tau", Field::Num),
        ],
        "send" | "recv" | "dup" => &[("t", Field::Num), ("from", Field::Int), ("to", Field::Int)],
        "drop" => &[
            ("t", Field::Num),
            ("from", Field::Int),
            ("to", Field::Int),
            ("cause", Field::Str),
        ],
        "timer" => &[("t", Field::Num), ("node", Field::Int), ("tag", Field::Int)],
        "join" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("clock", Field::Num),
        ],
        "leave" | "recovery" => &[("t", Field::Num), ("server", Field::Int)],
        "round_begin" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("round", Field::Int),
            ("clock", Field::Num),
            ("polled", Field::Int),
        ],
        "adopt" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("round", Field::Int),
            ("clock", Field::Num),
            ("e_before", Field::Num),
            ("e_after", Field::Num),
            ("inputs", Field::NumArr),
            ("recovery", Field::Bool),
        ],
        "reject" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("round", Field::Int),
            ("cause", Field::Str),
        ],
        "step" | "slew" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("from", Field::Num),
            ("to", Field::Num),
            ("error", Field::Num),
        ],
        "timeout" | "retry" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("peer", Field::Int),
            ("round", Field::Int),
            ("attempt", Field::Int),
        ],
        "health" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("peer", Field::Int),
            ("from", Field::Str),
            ("to", Field::Str),
        ],
        "degraded_enter" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("round", Field::Int),
            ("replies", Field::Int),
            ("quorum", Field::Int),
        ],
        "degraded_exit" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("round", Field::Int),
        ],
        "sample" => &[("t", Field::Num), ("servers", Field::SampleArr)],
        "crash" => &[("t", Field::Num), ("server", Field::Int)],
        "restart" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("amnesia", Field::Bool),
        ],
        "rehydrate" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("clock", Field::Num),
            ("error", Field::Num),
            ("reset_clock", Field::Num),
            ("persisted_error", Field::Num),
        ],
        "bootstrap" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("rounds", Field::Int),
            ("clock", Field::Num),
            ("error", Field::Num),
        ],
        "corrupt" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("clock", Field::Num),
            ("error", Field::Num),
        ],
        "stabilized" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("elapsed", Field::Num),
        ],
        "malformed" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("len", Field::Int),
            ("cause", Field::Str),
        ],
        "view_change" | "hw_rehydrated" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("view", Field::Int),
            ("high_water", Field::Int),
        ],
        "lease_granted" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("view", Field::Int),
            ("until", Field::Num),
        ],
        "lease_expired" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("view", Field::Int),
        ],
        "ts_issued" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("view", Field::Int),
            ("timestamp", Field::Int),
            ("lo", Field::Num),
            ("hi", Field::Num),
        ],
        "ts_refused" => &[
            ("t", Field::Num),
            ("server", Field::Int),
            ("view", Field::Int),
            ("cause", Field::Str),
        ],
        "summary" => &[
            ("events", Field::Int),
            ("dropped", Field::Int),
            ("xi_witness", Field::Num),
            ("sent", Field::Int),
            ("delivered", Field::Int),
            ("lost", Field::Int),
            ("duplicated", Field::Int),
            ("partitioned", Field::Int),
            ("timers", Field::Int),
        ],
        _ => return None,
    })
}

const ENUM_FIELDS: [(&str, &str, &[&str]); 6] = [
    ("drop", "cause", &["loss", "partition"]),
    (
        "ts_refused",
        "cause",
        &["no_lease", "no_quorum", "booting", "ahead"],
    ),
    ("reject", "cause", &["inconsistent", "starved"]),
    ("health", "from", &["healthy", "suspect", "dead"]),
    ("health", "to", &["healthy", "suspect", "dead"]),
    (
        "malformed",
        "cause",
        &[
            "truncated",
            "bad_magic",
            "unknown_type",
            "bad_length",
            "bad_checksum",
            "bad_payload",
        ],
    ),
];

/// Validates one JSONL line against the documented schema: it must
/// parse, carry a known `"type"`, have exactly the documented fields
/// with the documented types, and use only documented enum labels.
pub fn validate_line(line: &str) -> Result<(), String> {
    let value = parse(line)?;
    let Some(Json::Str(tag)) = value.get("type") else {
        return Err("missing string field \"type\"".into());
    };
    let schema = schema_for(tag).ok_or_else(|| format!("unknown record type \"{tag}\""))?;
    if !fields_match(&value, schema) {
        return Err(format!("record \"{tag}\" does not match its schema"));
    }
    for (record, field, allowed) in ENUM_FIELDS {
        if record == tag {
            if let Some(Json::Str(label)) = value.get(field) {
                if !allowed.contains(&label.as_str()) {
                    return Err(format!("\"{tag}\".{field} has unknown label \"{label}\""));
                }
            }
        }
    }
    Ok(())
}

/// Validates a whole JSONL stream: every non-empty line must satisfy
/// [`validate_line`], the first line must be `run_start`, and the last
/// must be `summary`. Returns the number of lines checked.
pub fn validate_stream(text: &str) -> Result<usize, String> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    if lines.is_empty() {
        return Err("empty stream".into());
    }
    let mut tags = Vec::with_capacity(lines.len());
    for (lineno, line) in &lines {
        validate_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let Json::Obj(fields) = parse(line)? else {
            unreachable!("validate_line accepts objects only");
        };
        if let Some((_, Json::Str(tag))) = fields.iter().find(|(k, _)| k == "type") {
            tags.push(tag.clone());
        }
    }
    if tags.first().map(String::as_str) != Some("run_start") {
        return Err("stream must start with a run_start record".into());
    }
    if tags.last().map(String::as_str) != Some("summary") {
        return Err("stream must end with a summary record".into());
    }
    Ok(lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DropCause, EventKind, HealthState, RefusalCause, RejectCause};

    const RUN_START: &str = "{\"type\":\"run_start\",\"seed\":7,\"servers\":3,\"strategy\":\"im\",\"xi\":0.02,\"tau\":10}";
    const SUMMARY: &str = "{\"type\":\"summary\",\"events\":1,\"dropped\":0,\"xi_witness\":0.009,\"sent\":1,\"delivered\":1,\"lost\":0,\"duplicated\":0,\"partitioned\":0,\"timers\":2}";

    /// Hands out seeded numbers with every digit in play and remembers
    /// them in the order drawn: a fixture written in schema order
    /// thereby lists the numbers its line must carry.
    struct Pool {
        state: u64,
        drawn: Vec<f64>,
    }

    impl Pool {
        /// splitmix64.
        fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn ts(&mut self) -> Timestamp {
            let secs = self.unit() * 86_400.0;
            self.drawn.push(secs);
            Timestamp::from_secs(secs)
        }

        fn dur(&mut self) -> Duration {
            let secs = (self.unit() - 0.5) * 0.1;
            self.drawn.push(secs);
            Duration::from_secs(secs)
        }

        fn int(&mut self, below: u64) -> u64 {
            let value = self.next() % below;
            self.drawn.push(value as f64);
            value
        }

        /// Any integer a JSON reader holding doubles keeps exact.
        fn count(&mut self) -> u64 {
            self.int(1 << 53)
        }

        fn id(&mut self) -> usize {
            self.int(10_000) as usize
        }

        fn small(&mut self) -> u32 {
            self.int(1000) as u32
        }

        /// One event and the numbers drawn while building it.
        fn fixture(
            &mut self,
            build: impl FnOnce(&mut Pool) -> TelemetryEvent,
        ) -> (TelemetryEvent, Vec<f64>) {
            let event = build(self);
            (event, std::mem::take(&mut self.drawn))
        }
    }

    /// At least one event of every kind (and every label of every
    /// enum-valued field), each with the numbers its line must carry,
    /// in order.
    fn fixtures() -> Vec<(TelemetryEvent, Vec<f64>)> {
        let mut p = Pool {
            state: 0x5EED,
            drawn: Vec::new(),
        };
        let mut events = Vec::new();
        for cause in [DropCause::Loss, DropCause::Partition] {
            events.push(p.fixture(|p| TelemetryEvent::MsgDrop {
                at: p.ts(),
                from: p.id(),
                to: p.id(),
                cause,
            }));
        }
        for cause in [RejectCause::Inconsistent, RejectCause::Starved] {
            events.push(p.fixture(|p| TelemetryEvent::RoundReject {
                at: p.ts(),
                server: p.id(),
                round: p.count(),
                cause,
            }));
        }
        for (from, to) in [
            (HealthState::Healthy, HealthState::Suspect),
            (HealthState::Suspect, HealthState::Dead),
            (HealthState::Dead, HealthState::Healthy),
        ] {
            events.push(p.fixture(|p| TelemetryEvent::HealthChanged {
                at: p.ts(),
                server: p.id(),
                peer: p.id(),
                from,
                to,
            }));
        }
        for cause in [
            RefusalCause::NoLease,
            RefusalCause::NoQuorum,
            RefusalCause::Booting,
            RefusalCause::Ahead,
        ] {
            events.push(p.fixture(|p| TelemetryEvent::TsRefused {
                at: p.ts(),
                server: p.id(),
                view: p.count(),
                cause,
            }));
        }
        for amnesia in [false, true] {
            events.push(p.fixture(|p| TelemetryEvent::ServerRestarted {
                at: p.ts(),
                server: p.id(),
                amnesia,
            }));
        }
        events.extend([
            p.fixture(|p| TelemetryEvent::MsgSend {
                at: p.ts(),
                from: p.id(),
                to: p.id(),
            }),
            p.fixture(|p| TelemetryEvent::MsgRecv {
                at: p.ts(),
                from: p.id(),
                to: p.id(),
            }),
            p.fixture(|p| TelemetryEvent::MsgDuplicate {
                at: p.ts(),
                from: p.id(),
                to: p.id(),
            }),
            p.fixture(|p| TelemetryEvent::TimerFired {
                at: p.ts(),
                node: p.id(),
                tag: p.count(),
            }),
            p.fixture(|p| TelemetryEvent::Join {
                at: p.ts(),
                server: p.id(),
                clock: p.ts(),
            }),
            p.fixture(|p| TelemetryEvent::Leave {
                at: p.ts(),
                server: p.id(),
            }),
            p.fixture(|p| TelemetryEvent::RecoveryStarted {
                at: p.ts(),
                server: p.id(),
            }),
            p.fixture(|p| TelemetryEvent::RoundBegin {
                at: p.ts(),
                server: p.id(),
                round: p.count(),
                clock: p.ts(),
                polled: p.id(),
            }),
            p.fixture(|p| TelemetryEvent::RoundAdopt {
                at: p.ts(),
                server: p.id(),
                round: p.count(),
                clock: p.ts(),
                error_before: p.dur(),
                error_after: p.dur(),
                input_widths: vec![p.dur(), p.dur(), p.dur()],
                recovery: false,
            }),
            p.fixture(|p| TelemetryEvent::RoundAdopt {
                at: p.ts(),
                server: p.id(),
                round: p.count(),
                clock: p.ts(),
                error_before: p.dur(),
                error_after: p.dur(),
                input_widths: Vec::new(),
                recovery: true,
            }),
            p.fixture(|p| TelemetryEvent::ClockStep {
                at: p.ts(),
                server: p.id(),
                from: p.ts(),
                to: p.ts(),
                error: p.dur(),
            }),
            p.fixture(|p| TelemetryEvent::ClockSlew {
                at: p.ts(),
                server: p.id(),
                from: p.ts(),
                to: p.ts(),
                error: p.dur(),
            }),
            p.fixture(|p| TelemetryEvent::Timeout {
                at: p.ts(),
                server: p.id(),
                peer: p.id(),
                round: p.count(),
                attempt: p.small(),
            }),
            p.fixture(|p| TelemetryEvent::Retry {
                at: p.ts(),
                server: p.id(),
                peer: p.id(),
                round: p.count(),
                attempt: p.small(),
            }),
            p.fixture(|p| TelemetryEvent::DegradedEnter {
                at: p.ts(),
                server: p.id(),
                round: p.count(),
                replies: p.id(),
                quorum: p.id(),
            }),
            p.fixture(|p| TelemetryEvent::DegradedExit {
                at: p.ts(),
                server: p.id(),
                round: p.count(),
            }),
            p.fixture(|p| TelemetryEvent::Sample {
                at: p.ts(),
                servers: vec![
                    SampleSnapshot {
                        clock: p.ts(),
                        error: p.dur(),
                        true_offset: p.dur(),
                        correct: true,
                        active: true,
                    },
                    // Exported as `null`: its numbers are not drawn
                    // from the pool because the line must not carry
                    // them.
                    SampleSnapshot {
                        clock: Timestamp::from_secs(0.8),
                        error: Duration::from_millis(9.0),
                        true_offset: Duration::from_millis(-200.0),
                        correct: false,
                        active: false,
                    },
                    SampleSnapshot {
                        clock: p.ts(),
                        error: p.dur(),
                        true_offset: p.dur(),
                        correct: false,
                        active: true,
                    },
                ],
            }),
            p.fixture(|p| TelemetryEvent::ServerCrashed {
                at: p.ts(),
                server: p.id(),
            }),
            p.fixture(|p| TelemetryEvent::StateRehydrated {
                at: p.ts(),
                server: p.id(),
                clock: p.ts(),
                error: p.dur(),
                reset_clock: p.ts(),
                persisted_error: p.dur(),
            }),
            p.fixture(|p| TelemetryEvent::BootstrapCompleted {
                at: p.ts(),
                server: p.id(),
                rounds: p.small(),
                clock: p.ts(),
                error: p.dur(),
            }),
            p.fixture(|p| TelemetryEvent::StateCorrupted {
                at: p.ts(),
                server: p.id(),
                clock: p.ts(),
                error: p.dur(),
            }),
            p.fixture(|p| TelemetryEvent::Stabilized {
                at: p.ts(),
                server: p.id(),
                elapsed: p.dur(),
            }),
            p.fixture(|p| TelemetryEvent::MalformedFrame {
                at: p.ts(),
                server: p.id(),
                len: p.id(),
                cause: "truncated",
            }),
            p.fixture(|p| TelemetryEvent::ViewChange {
                at: p.ts(),
                server: p.id(),
                view: p.count(),
                high_water: p.count(),
            }),
            p.fixture(|p| TelemetryEvent::LeaseGranted {
                at: p.ts(),
                server: p.id(),
                view: p.count(),
                until: p.ts(),
            }),
            p.fixture(|p| TelemetryEvent::LeaseExpired {
                at: p.ts(),
                server: p.id(),
                view: p.count(),
            }),
            p.fixture(|p| TelemetryEvent::TsIssued {
                at: p.ts(),
                server: p.id(),
                view: p.count(),
                timestamp: p.count(),
                lo: p.ts(),
                hi: p.ts(),
            }),
            p.fixture(|p| TelemetryEvent::HwRehydrated {
                at: p.ts(),
                server: p.id(),
                view: p.count(),
                high_water: p.count(),
            }),
        ]);
        events
    }

    fn numbers_of(value: &Json, found: &mut Vec<f64>) {
        match value {
            Json::Num(n) => found.push(*n),
            Json::Arr(items) => items.iter().for_each(|item| numbers_of(item, found)),
            Json::Obj(fields) => fields.iter().for_each(|(_, v)| numbers_of(v, found)),
            Json::Null | Json::Bool(_) | Json::Str(_) => {}
        }
    }

    #[test]
    fn every_kind_encodes_validates_and_round_trips_its_numbers() {
        let fixtures = fixtures();
        for kind in EventKind::ALL {
            assert!(
                fixtures.iter().any(|(event, _)| event.kind() == kind),
                "no fixture for {kind:?}"
            );
        }
        let mut stream = format!("{RUN_START}\n");
        let mut line = Vec::new();
        for (event, numbers) in &fixtures {
            line.clear();
            write_event(&mut line, event);
            let text = std::str::from_utf8(&line).expect("the encoder writes UTF-8");
            assert_eq!(text, event_line(event));
            let parsed = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(
                parsed.get("type"),
                Some(&Json::Str(event.kind().name().into())),
                "{text}"
            );
            let mut found = Vec::new();
            numbers_of(&parsed, &mut found);
            let bits = |numbers: &[f64]| numbers.iter().map(|n| n.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&found), bits(numbers), "{text}");
            stream.push_str(text);
            stream.push('\n');
        }
        stream.push_str(SUMMARY);
        stream.push('\n');
        assert_eq!(validate_stream(&stream), Ok(fixtures.len() + 2));
    }

    #[test]
    fn strings_are_escaped_as_the_parser_expects() {
        let awkward = "q\"\\\n\r\t\u{1}\u{1f} é ✓";
        let mut line = Vec::new();
        json_record!(&mut line, "run_start", "strategy": awkward);
        let text = std::str::from_utf8(&line).expect("the encoder writes UTF-8");
        assert_eq!(
            text,
            "{\"type\":\"run_start\",\"strategy\":\"q\\\"\\\\\\n\\r\\t\\u0001\\u001f é ✓\"}"
        );
        let parsed = parse(text).expect("parses");
        assert_eq!(parsed.get("strategy"), Some(&Json::Str(awkward.into())));
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let json = r#"{"a": "q\"\\\nA", "b": [1, -2.5e3, true, null], "c": {"d": []}}"#;
        let parsed = parse(json).expect("parses");
        assert_eq!(parsed.get("a"), Some(&Json::Str("q\"\\\nA".into())));
        let Some(Json::Arr(items)) = parsed.get("b") else {
            panic!("b should be an array");
        };
        assert_eq!(items[1], Json::Num(-2500.0));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1e999").is_err(), "non-finite numbers rejected");
    }

    #[test]
    fn validation_rejects_wrong_shapes() {
        assert!(validate_line("[1,2]").is_err(), "not an object");
        assert!(validate_line("{\"t\":1}").is_err(), "no type");
        assert!(
            validate_line("{\"type\":\"teleport\"}").is_err(),
            "unknown type"
        );
        assert!(
            validate_line("{\"type\":\"send\",\"t\":0.5,\"from\":0}").is_err(),
            "missing field"
        );
        assert!(
            validate_line("{\"type\":\"send\",\"t\":0.5,\"from\":0,\"to\":1,\"x\":2}").is_err(),
            "extra field"
        );
        assert!(
            validate_line("{\"type\":\"send\",\"t\":0.5,\"from\":0.5,\"to\":1}").is_err(),
            "non-integer id"
        );
        assert!(
            validate_line(
                "{\"type\":\"drop\",\"t\":0.5,\"from\":0,\"to\":1,\"cause\":\"gremlin\"}"
            )
            .is_err(),
            "unknown enum label"
        );
    }

    #[test]
    fn stream_validation_enforces_framing() {
        let start = RUN_START;
        let mid = event_line(&TelemetryEvent::MsgSend {
            at: Timestamp::from_secs(1.0),
            from: 0,
            to: 1,
        });
        let end = SUMMARY;
        let good = format!("{start}\n{mid}\n{end}\n");
        assert_eq!(validate_stream(&good), Ok(3));
        assert!(validate_stream(&format!("{mid}\n{end}\n")).is_err());
        assert!(validate_stream(&format!("{start}\n{mid}\n")).is_err());
        assert!(validate_stream("").is_err());
    }

    #[test]
    fn number_formatting_is_shortest_roundtrip() {
        let line = event_line(&TelemetryEvent::MsgSend {
            at: Timestamp::from_secs(0.1),
            from: 0,
            to: 1,
        });
        assert!(line.contains("\"t\":0.1"), "{line}");
    }
}
