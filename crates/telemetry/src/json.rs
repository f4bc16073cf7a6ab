//! JSONL export: serialization of [`TelemetryEvent`]s to one-object-
//! per-line JSON, plus a minimal parser and the reader that turns a
//! line back into its event, so CI can check an exported stream — and
//! a checker can replay one — without external dependencies.
//!
//! The format is stable and documented in EXPERIMENTS.md. Every line
//! is a flat JSON object whose `"type"` field names the record; field
//! order is fixed and numbers are written by [`crate::num`] exactly as
//! Rust's `{}` formats them (shortest round-trip, never an exponent),
//! so a fixed seed yields a byte-identical stream.
//!
//! Which records exist, under which tag, with which keys, is the event
//! table in the crate root: [`write_event`] and [`read_event`] are both
//! generated from its rows, each field written and read by its [`Value`]
//! impl. Validating a line *is* reading it back.

use tempo_core::{Duration, Timestamp};

use crate::num::{write_f64, write_u64};
// The event table names its field types as the crate root spells them.
use crate::{DropCause, HealthState, RefusalCause, RejectCause, SampleSnapshot, TelemetryEvent};

// ---------------------------------------------------------------------------
// Values and records
// ---------------------------------------------------------------------------

/// A value [`json_record!`](crate::json_record) can append to a line
/// in place, and [`read_event`] can read back from the parsed line.
pub trait Value {
    /// Appends `self` as JSON.
    fn write_json(&self, out: &mut Vec<u8>);

    /// Reads back what [`Value::write_json`] wrote, or says why `json` is
    /// not that, as a phrase to follow the field's name (`is not a number`).
    fn read_json(json: &Json) -> Result<Self, String>
    where
        Self: Sized;
}

/// Any string.
fn text(json: &Json) -> Result<&str, String> {
    match json {
        Json::Str(text) => Ok(text),
        _ => Err("is not a string".into()),
    }
}

/// A string that must be one of `labels`' first elements, read as the
/// second: how label enums and the event table's label lists read.
pub(crate) fn one_of<T: Copy>(json: &Json, labels: &[(&str, T)]) -> Result<T, String> {
    let text = text(json)?;
    let found = labels.iter().find(|(label, _)| *label == text);
    found
        .map(|&(_, value)| value)
        .ok_or_else(|| format!("has unknown label \"{text}\""))
}

/// Times and spans: seconds, as any finite number.
macro_rules! seconds {
    ($($ty:ty),*) => {$(
        impl Value for $ty {
            fn write_json(&self, out: &mut Vec<u8>) {
                write_f64(out, self.as_secs());
            }
            fn read_json(json: &Json) -> Result<Self, String> {
                match *json {
                    Json::Num(secs) if secs.is_finite() => Ok(<$ty>::from_secs(secs)),
                    _ => Err("is not a number".into()),
                }
            }
        }
    )*};
}
seconds!(Timestamp, Duration);

/// Ids, rounds and counts: non-negative whole numbers.
macro_rules! integers {
    ($($ty:ty),*) => {$(
        impl Value for $ty {
            fn write_json(&self, out: &mut Vec<u8>) {
                write_u64(out, *self as u64);
            }
            fn read_json(json: &Json) -> Result<Self, String> {
                match *json {
                    // Every whole `f64` below 2^64 converts to `u64` exactly.
                    Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n < 2f64.powi(64) => {
                        <$ty>::try_from(n as u64).map_err(|_| format!("is out of range: {n}"))
                    }
                    _ => Err("is not a non-negative integer".into()),
                }
            }
        }
    )*};
}
integers!(u64, u32, usize);

impl Value for bool {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
    fn read_json(json: &Json) -> Result<Self, String> {
        match *json {
            Json::Bool(b) => Ok(b),
            _ => Err("is not a boolean".into()),
        }
    }
}

/// A string literal, quoted and escaped; `text` reads it back.
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

impl<T: Value> Value for Vec<T> {
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
    fn read_json(json: &Json) -> Result<Self, String> {
        let Json::Arr(items) = json else {
            return Err("is not an array".into());
        };
        let item = |(i, item)| T::read_json(item).map_err(|e| format!("at item {i}: {e}"));
        items.iter().enumerate().map(item).collect()
    }
}

// Inactive servers export as `null`: their free-running clocks are
// visible in-process, but the JSONL format only carries service
// members. A `null` reads back as an inactive snapshot of zeros.
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
    fn read_json(json: &Json) -> Result<Self, String> {
        if *json == Json::Null {
            return Ok(SampleSnapshot {
                clock: Timestamp::ZERO,
                error: Duration::ZERO,
                true_offset: Duration::ZERO,
                correct: false,
                active: false,
            });
        }
        let mut record = Record::new(json)?;
        let snapshot = SampleSnapshot {
            clock: record.field("clock", Value::read_json)?,
            error: record.field("error", Value::read_json)?,
            true_offset: record.field("offset", Value::read_json)?,
            correct: record.field("correct", Value::read_json)?,
            active: true,
        };
        record.end().map(|()| snapshot)
    }
}

/// Appends one record `{"type":<tag>,<key>:<value>,…}` to a
/// `&mut Vec<u8>` (no trailing newline). Tag and keys are literals
/// (plain ASCII, nothing to escape), so each key is one pre-quoted
/// fragment copied into the line; values are anything implementing
/// [`json::Value`](crate::json::Value), or a reference to one.
#[macro_export]
macro_rules! json_record {
    // Keys as anything `concat!` expands to a literal — the event
    // table's codec passes `stringify!`-ed field names.
    (@keys $out:expr, $tag:literal, $first:expr => $head:expr $(, $key:expr => $value:expr)*) => {{
        use $crate::json::Value as _;
        let out: &mut ::std::vec::Vec<u8> = $out;
        out.extend_from_slice(concat!("{\"type\":\"", $tag, "\",\"", $first, "\":").as_bytes());
        ($head).write_json(out);
        $(
            out.extend_from_slice(concat!(",\"", $key, "\":").as_bytes());
            ($value).write_json(out);
        )*
        out.push(b'}');
    }};
    ($out:expr, $tag:literal, $first:literal : $head:expr $(, $key:literal : $value:expr)* $(,)?) => {
        $crate::json_record!(@keys $out, $tag, $first => $head $(, $key => $value)*)
    };
}

/// A field's JSON key: stated in the event table, or else its name.
macro_rules! key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// How a field reads back: as one of the labels stated in the event
/// table, or else as its Rust type.
macro_rules! read {
    ($ty:ty) => {
        <$ty as Value>::read_json
    };
    ($ty:ty, $($label:literal),+) => {
        |json| one_of(json, &[$(($label, $label)),+])
    };
}

/// Turns the rows of [`events!`](crate::events) into the encoder and
/// its inverse. The encoder is straight-line code per event — one
/// `json_record!` whose key fragments are `concat!`-ed at compile time
/// — not a loop over a field list: the audited simulator spends its
/// export time here.
macro_rules! define_codec {
    ($(
        $(#[$doc:meta])* $variant:ident = $bit:literal, $tag:literal {
            $(#[$at_doc:meta])* at,
            $($(#[$field_doc:meta])* $field:ident : $ty:ty $(= $key:literal)? $(| $label:literal)*),* $(,)?
        }
    )*) => {
        /// Appends one event's JSONL line (no trailing newline) to `out`,
        /// allocating nothing beyond `out`'s own growth.
        pub fn write_event(out: &mut Vec<u8>, event: &TelemetryEvent) {
            match event {
                $(TelemetryEvent::$variant { at $(, $field)* } => json_record!(
                    @keys out, $tag, "t" => at $(, key!($field $($key)?) => $field)*
                ),)*
            }
        }

        /// The fields of the event record `tag`, read from `record`.
        fn read_fields(tag: &str, record: &mut Record<'_>) -> Result<TelemetryEvent, String> {
            Ok(match tag {
                $($tag => TelemetryEvent::$variant {
                    at: record.field("t", Value::read_json)?,
                    $($field: record.field(key!($field $($key)?), read!($ty $(, $label)*))?,)*
                },)*
                _ => return Err("is not a known record type".into()),
            })
        }
    };
}
crate::events!(define_codec);

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

/// Deepest array/object nesting [`parse`] follows. The parser recurses
/// once per level and its input comes from files, so without a cap one
/// line of `[[[[…` overflows the stack. The JSONL schema nests 3 deep.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
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

    /// Consumes the next byte if it is one of `any`.
    fn eat(&mut self, any: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| any.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(&[byte]) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(_) => self.parse_number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// At least one digit.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// The JSON grammar, not `f64::from_str`'s (which also takes `+1`,
    /// `.5`, `1.`, `inf`): `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b"-");
        let int = self.pos;
        let mut ok = self.digits() && (self.bytes[int] != b'0' || self.pos == int + 1);
        if self.eat(b".") {
            ok &= self.digits();
        }
        if self.eat(b"eE") {
            self.eat(b"+-");
            ok &= self.digits();
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("only ASCII was scanned");
        match text.parse::<f64>() {
            Ok(value) if ok && value.is_finite() => Ok(Json::Num(value)),
            _ => Err(self.err(&format!("bad number '{text}'"))),
        }
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

    /// `open close`, or `open item (, item)* close`.
    fn sequence<T>(
        &mut self,
        (open, close): (u8, u8),
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(&[close]) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(&[close]) {
                return Ok(items);
            }
            if !self.eat(b",") {
                return Err(self.err(&format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.sequence((b'[', b']'), Self::parse_value)
            .map(Json::Arr)
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        let field = |p: &mut Self| {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            Ok((key, p.parse_value()?))
        };
        self.sequence((b'{', b'}'), field).map(Json::Obj)
    }
}

/// Parses one JSON document (rejects trailing garbage, and nesting
/// deeper than 64 levels).
pub fn parse(input: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing garbage"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Reading back
// ---------------------------------------------------------------------------

/// An object read field by field: no key may appear twice, each is
/// read at most once, and [`Record::end`] refuses any left unread —
/// so a record that reads has exactly the keys its reader asked for.
/// Holds each key and value in source order; a value is taken when read.
struct Record<'a>(Vec<(&'a str, Option<&'a Json>)>);

/// How a field's value is read.
type Reader<'a, T> = fn(&'a Json) -> Result<T, String>;

impl<'a> Record<'a> {
    fn new(json: &'a Json) -> Result<Self, String> {
        let Json::Obj(fields) = json else {
            return Err("is not an object".into());
        };
        let mut record = Vec::with_capacity(fields.len());
        for (key, value) in fields {
            if record.iter().any(|&(earlier, _)| earlier == key) {
                return Err(format!("field \"{key}\" appears twice"));
            }
            record.push((key.as_str(), Some(value)));
        }
        Ok(Record(record))
    }

    /// Reads the field `key` with `read`.
    fn field<T>(&mut self, key: &str, read: Reader<'a, T>) -> Result<T, String> {
        let slot = self.0.iter_mut().find(|(k, _)| *k == key);
        let value = slot.and_then(|(_, value)| value.take());
        let value = value.ok_or_else(|| format!("missing field \"{key}\""))?;
        read(value).map_err(|e| format!("field \"{key}\" {e}"))
    }

    /// Ends the read: a field nobody read is unexpected.
    fn end(self) -> Result<(), String> {
        match self.0.iter().find(|(_, value)| value.is_some()) {
            Some((key, _)) => Err(format!("unexpected field \"{key}\"")),
            None => Ok(()),
        }
    }
}

/// Reads one record: its `"type"`, then the rest with `read`, which
/// is handed the tag. Errors name the record type.
fn read_record<T>(
    json: &Json,
    read: impl FnOnce(&str, &mut Record<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let mut record = Record::new(json)?;
    let tag = record.field("type", text)?;
    let value = read(tag, &mut record).and_then(|value| record.end().map(|()| value));
    value.map_err(|e| format!("record \"{tag}\": {e}"))
}

/// Reads one event back from its parsed JSONL line: the inverse of
/// [`write_event`]. A line that is no event record is refused, naming its
/// fault: the `"type"`, a key (twice, missing, unexpected) or a value.
pub fn read_event(json: &Json) -> Result<TelemetryEvent, String> {
    read_record(json, read_fields)
}

/// Reads one line back and returns its record type. Besides the
/// events there are the two framing records `tempo-sim`'s JSONL sink
/// writes around them (`run_start` and `summary`), which come from no
/// event and so are read here rather than from the event table.
fn read_line(line: &str) -> Result<&'static str, String> {
    read_record(&parse(line)?, |tag, record| match tag {
        "run_start" => {
            record.field("seed", u64::read_json)?;
            record.field("servers", u64::read_json)?;
            record.field("strategy", text)?;
            record.field("xi", Duration::read_json)?;
            record.field("tau", Duration::read_json)?;
            Ok("run_start")
        }
        "summary" => {
            record.field("xi_witness", Duration::read_json)?;
            let counts = "events dropped sent delivered lost duplicated partitioned timers";
            for count in counts.split(' ') {
                record.field(count, u64::read_json)?;
            }
            Ok("summary")
        }
        _ => read_fields(tag, record).map(|event| event.kind().name()),
    })
}

/// Validates one JSONL line against the documented format by reading
/// it back: it must parse, carry a known `"type"`, have exactly that
/// record's keys (each once) with values of their types, and use only
/// documented labels.
pub fn validate_line(line: &str) -> Result<(), String> {
    read_line(line).map(|_| ())
}

/// Validates a whole JSONL stream: every non-empty line must satisfy
/// [`validate_line`], the first line must be `run_start`, and the last
/// must be `summary`. Returns the number of lines checked.
pub fn validate_stream(text: &str) -> Result<usize, String> {
    let mut tags = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            tags.push(read_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
    }
    if tags.is_empty() {
        return Err("empty stream".into());
    }
    if tags.first() != Some(&"run_start") {
        return Err("stream must start with a run_start record".into());
    }
    if tags.last() != Some(&"summary") {
        return Err("stream must end with a summary record".into());
    }
    Ok(tags.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DropCause, EventKind, HealthState, RefusalCause, RejectCause};

    /// Every label the event table states after a field's type (only
    /// `malformed`'s `cause` has a list).
    macro_rules! stated_labels {
        ($($(#[$doc:meta])* $variant:ident = $bit:literal, $tag:literal {
            $(#[$at_doc:meta])* at,
            $($(#[$field_doc:meta])* $field:ident : $ty:ty $(= $key:literal)? $(| $label:literal)*),* $(,)?
        })*) => {
            [$($($($label,)*)*)*]
        };
    }
    const STATED_LABELS: &[&str] = &crate::events!(stated_labels);

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
        for &(_, cause) in DropCause::LABELS {
            events.push(p.fixture(|p| TelemetryEvent::MsgDrop {
                at: p.ts(),
                from: p.id(),
                to: p.id(),
                cause,
            }));
        }
        for &(_, cause) in RejectCause::LABELS {
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
        for &(_, cause) in RefusalCause::LABELS {
            events.push(p.fixture(|p| TelemetryEvent::TsRefused {
                at: p.ts(),
                server: p.id(),
                view: p.count(),
                cause,
            }));
        }
        for &cause in STATED_LABELS {
            events.push(p.fixture(|p| TelemetryEvent::MalformedFrame {
                at: p.ts(),
                server: p.id(),
                len: p.id(),
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
            let read = read_event(&parsed).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(event_line(&read), text, "write → read → write");
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
        for not_json in ["+1", ".5", "1.", "01", "-", "1e", "1e+", "--1", "1.e2"] {
            assert!(parse(not_json).is_err(), "{not_json} is not a JSON number");
        }
        for number in ["-0", "10", "0.5", "1E+2", "-2.5e-3"] {
            assert!(parse(number).is_ok(), "{number} is a JSON number");
        }
        // One stack frame per level: uncapped, this line overflows the
        // stack and aborts the process instead of returning.
        assert!(parse(&"[".repeat(200_000)).is_err());
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
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
        assert!(
            validate_line("{\"type\":\"leave\",\"t\":1,\"server\":2,\"server\":\"x\"}").is_err(),
            "duplicate key"
        );
        assert!(
            validate_line("{\"type\":\"leave\",\"type\":\"send\",\"t\":1,\"server\":2}").is_err(),
            "duplicate type"
        );
    }

    /// Read back, an event equals the one written, but for an inactive
    /// sample entry: its `null` carries no numbers, only that it is
    /// inactive.
    #[test]
    fn read_event_inverts_write_event() {
        for (event, _) in fixtures() {
            let read = read_event(&parse(&event_line(&event)).expect("parses")).expect("reads");
            match (&event, &read) {
                (
                    TelemetryEvent::Sample { servers, .. },
                    TelemetryEvent::Sample { servers: back, .. },
                ) => {
                    assert_eq!(servers.len(), back.len());
                    for (written, read) in servers.iter().zip(back) {
                        assert_eq!(read.active, written.active);
                        if written.active {
                            assert_eq!(read, written);
                        }
                    }
                }
                _ => assert_eq!(read, event),
            }
        }
    }

    /// What the writer never writes, the reader refuses, naming the
    /// field — nested ones included.
    #[test]
    fn read_event_refuses_what_write_event_cannot_write() {
        let refusals = [
            (
                r#"{"type":"retry","t":1,"server":0,"peer":1,"round":2,"attempt":4294967296}"#,
                "field \"attempt\" is out of range",
            ),
            (
                r#"{"type":"timer","t":null,"node":0,"tag":1}"#,
                "field \"t\" is not a number",
            ),
            (
                r#"{"type":"restart","t":1,"server":0,"amnesia":1}"#,
                "field \"amnesia\" is not a boolean",
            ),
            (
                r#"{"type":"malformed","t":1,"server":0,"len":3,"cause":"gremlins"}"#,
                "field \"cause\" has unknown label \"gremlins\"",
            ),
            (
                r#"{"type":"adopt","t":1,"server":0,"round":1,"clock":1,"e_before":1,"e_after":1,"inputs":[0.1,"x"],"recovery":false}"#,
                "field \"inputs\" at item 1: is not a number",
            ),
            (
                r#"{"type":"sample","t":1,"servers":[true]}"#,
                "field \"servers\" at item 0: is not an object",
            ),
            (
                r#"{"type":"sample","t":1,"servers":[{"clock":1,"error":0,"offset":0,"correct":true,"x":0}]}"#,
                "unexpected field \"x\"",
            ),
            (
                r#"{"type":"sample","t":1,"servers":[{"clock":1,"clock":1}]}"#,
                "field \"clock\" appears twice",
            ),
            // A framing record is no event.
            (
                r#"{"type":"run_start","t":1}"#,
                "is not a known record type",
            ),
        ];
        for (line, complaint) in refusals {
            let refused = read_event(&parse(line).expect("parses")).expect_err(line);
            assert!(refused.contains(complaint), "{line}: {refused}");
            assert!(validate_line(line).is_err(), "{line}");
        }
        assert_eq!(
            read_event(&Json::Obj(vec![
                ("type".into(), Json::Str("leave".into())),
                ("t".into(), Json::Num(f64::NAN)),
                ("server".into(), Json::Num(0.0)),
            ])),
            Err("record \"leave\": field \"t\" is not a number".into()),
            "a hand-built non-finite number is refused, not a panic"
        );
    }

    /// EXPERIMENTS.md § "Telemetry export" is what a third party reads
    /// the JSONL by. It writes a record as `` `tag` / `tag` — `{key, …}` ``
    /// and an enum-valued field as `` ∈ `a | b` `` after the record;
    /// both must say what the reader takes, for every tag. A line that
    /// reads has exactly its reader's keys, so the keys come from one
    /// written line per tag; a string field's labels are the documented
    /// ones the reader accepts there, or none if it also takes garbage.
    #[test]
    fn experiments_md_documents_exactly_the_table() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let section = doc
            .split("\n## ")
            .find(|s| s.starts_with("Telemetry export"))
            .expect("EXPERIMENTS.md has a Telemetry export section");
        // Odd pieces are code spans, even pieces the prose between them.
        let pieces: Vec<&str> = section.split('`').collect();
        let span = |i: usize| pieces.get(i).copied().unwrap_or("");
        // `servers: [...]` documents the key `servers`.
        let list = |text: &'static str, sep: char| -> Vec<&str> {
            let items = text.split(sep);
            items
                .map(|item| item.split(':').next().unwrap_or(item).trim())
                .collect()
        };
        let mut lines: Vec<String> = fixtures().iter().map(|(e, _)| event_line(e)).collect();
        lines.extend([RUN_START.to_string(), SUMMARY.to_string()]);
        let fields = |line: &str| -> Vec<(String, Json)> {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let Ok(Json::Obj(fields)) = parse(line) else {
                panic!("{line} is not an object");
            };
            fields
                .into_iter()
                .filter(|(key, _)| key != "type")
                .collect()
        };
        let line_of = |tag: &str| -> &str {
            let tagged = format!("{{\"type\":\"{tag}\",");
            let found = lines.iter().find(|line| line.starts_with(&tagged));
            found.unwrap_or_else(|| panic!("`{tag}` is not a record"))
        };
        // Every label the table states, writes or the section documents,
        // and one nobody does.
        let mut candidates = vec!["gremlins".to_string()];
        candidates.extend(STATED_LABELS.iter().map(|label| label.to_string()));
        for line in &lines {
            let Ok(Json::Obj(fields)) = parse(line) else {
                continue;
            };
            candidates.extend(fields.into_iter().filter_map(|(key, value)| match value {
                Json::Str(label) if key != "type" => Some(label),
                _ => None,
            }));
        }
        for i in (2..pieces.len()).step_by(2) {
            if span(i).trim().ends_with('∈') {
                candidates.extend(list(span(i + 1), '|').into_iter().map(String::from));
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        // The labels the reader takes for `line`'s string field `key`, in
        // order; `None` for a free string, which takes garbage too.
        let labels_of = |line: &str, key: &str, value: &str| -> Option<Vec<&str>> {
            let written = format!("\"{key}\":\"{value}\"");
            let taken: Vec<&str> = candidates
                .iter()
                .map(String::as_str)
                .filter(|candidate| {
                    let probe = line.replacen(&written, &format!("\"{key}\":\"{candidate}\""), 1);
                    validate_line(&probe).is_ok()
                })
                .collect();
            (!taken.contains(&"gremlins")).then_some(taken)
        };
        let mut documented = Vec::new();
        for i in (1..pieces.len()).step_by(2) {
            let Some(keys) = span(i).strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
                continue;
            };
            let keys = list(keys, ',');
            if span(i - 1).trim().ends_with("each entry is") {
                let sample = fields(line_of("sample"));
                let entry = sample.iter().find_map(|(_, servers)| match servers {
                    Json::Arr(entries) => entries.iter().find_map(|e| match e {
                        Json::Obj(entry) => Some(entry.iter().map(|(k, _)| k.as_str()).collect()),
                        _ => None,
                    }),
                    _ => None,
                });
                assert_eq!(Some(keys), entry, "sample entry");
                documented.push("sample entry");
                continue;
            }
            if span(i - 1).trim() != "—" {
                continue;
            }
            let mut labels = span(i + 1)
                .trim()
                .ends_with('∈')
                .then(|| list(span(i + 2), '|'));
            if let Some(labels) = labels.as_mut() {
                labels.sort_unstable();
            }
            // The tags sharing this field list: `a` / `b` / `c` — `{…}`.
            let mut at = i - 2;
            loop {
                let tag = span(at);
                let line = line_of(tag);
                let fields = fields(line);
                let record_keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
                assert_eq!(keys, record_keys, "fields of `{tag}`");
                // Every enum-valued field of the record takes the one
                // documented list (`health`'s `from` and `to` share it).
                let mut enums = fields.iter().filter_map(|(key, value)| match value {
                    Json::Str(value) => labels_of(line, key, value),
                    _ => None,
                });
                assert_eq!(enums.next(), labels, "labels of `{tag}`");
                assert!(enums.all(|taken| Some(taken) == labels), "`{tag}`");
                documented.push(tag);
                if at < 2 || span(at - 1).trim() != "/" {
                    break;
                }
                at -= 2;
            }
        }
        let tags = EventKind::ALL.map(EventKind::name);
        for tag in tags.iter().chain(&["run_start", "summary", "sample entry"]) {
            assert!(documented.contains(tag), "`{tag}` is undocumented");
        }
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
