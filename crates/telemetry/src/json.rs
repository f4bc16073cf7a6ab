//! JSONL export: serialization of [`TelemetryEvent`]s to one-object-
//! per-line JSON, plus a minimal parser and schema validator so CI can
//! check an exported stream without external dependencies.
//!
//! The schema is stable and documented in EXPERIMENTS.md. Every line
//! is a flat JSON object whose `"type"` field names the record; field
//! order is fixed and numbers are written by [`crate::num`] exactly as
//! Rust's `{}` formats them (shortest round-trip, never an exponent),
//! so a fixed seed yields a byte-identical stream.
//!
//! Which records exist, under which tag, with which keys, is the event
//! table in the crate root: [`write_event`] and the schema
//! [`validate_line`] checks are both generated from its rows.

use tempo_core::{Duration, Timestamp};

use crate::num::{write_f64, write_u64};
// The event table names its field types as the crate root spells them.
use crate::{DropCause, HealthState, RefusalCause, RejectCause, SampleSnapshot, TelemetryEvent};

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// A value [`json_record!`](crate::json_record) can append to a line
/// in place.
pub trait Value {
    /// The JSON shape `write_json` produces: the schema type of an
    /// event field of this Rust type.
    const FIELD: Field;

    /// Appends `self` as JSON.
    fn write_json(&self, out: &mut Vec<u8>);
}

impl<T: Value + ?Sized> Value for &T {
    const FIELD: Field = T::FIELD;
    fn write_json(&self, out: &mut Vec<u8>) {
        (**self).write_json(out);
    }
}

impl Value for f64 {
    const FIELD: Field = Field::Num;
    fn write_json(&self, out: &mut Vec<u8>) {
        write_f64(out, *self);
    }
}

impl Value for Timestamp {
    const FIELD: Field = Field::Num;
    fn write_json(&self, out: &mut Vec<u8>) {
        write_f64(out, self.as_secs());
    }
}

impl Value for Duration {
    const FIELD: Field = Field::Num;
    fn write_json(&self, out: &mut Vec<u8>) {
        write_f64(out, self.as_secs());
    }
}

impl Value for u64 {
    const FIELD: Field = Field::Int;
    fn write_json(&self, out: &mut Vec<u8>) {
        write_u64(out, *self);
    }
}

impl Value for u32 {
    const FIELD: Field = Field::Int;
    fn write_json(&self, out: &mut Vec<u8>) {
        write_u64(out, u64::from(*self));
    }
}

impl Value for usize {
    const FIELD: Field = Field::Int;
    fn write_json(&self, out: &mut Vec<u8>) {
        write_u64(out, *self as u64);
    }
}

impl Value for bool {
    const FIELD: Field = Field::Bool;
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
}

/// A string literal, quoted and escaped.
impl Value for str {
    const FIELD: Field = Field::Str;
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
    const FIELD: Field = Field::Arr(&T::FIELD);
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

impl<T: Value> Value for Vec<T> {
    const FIELD: Field = <[T]>::FIELD;
    fn write_json(&self, out: &mut Vec<u8>) {
        self.as_slice().write_json(out);
    }
}

// Inactive servers export as `null`: their free-running clocks are
// visible in-process, but the JSONL schema only carries service
// members.
impl Value for SampleSnapshot {
    const FIELD: Field = Field::NullOr(&[
        ("clock", Field::Num),
        ("error", Field::Num),
        ("offset", Field::Num),
        ("correct", Field::Bool),
    ]);
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
    // Keys as anything `concat!` expands to a literal — the event
    // table's codec passes `stringify!`-ed field names.
    (@keys $out:expr, $tag:literal, $first:expr => $head:expr $(, $key:expr => $value:expr)*) => {{
        let out: &mut ::std::vec::Vec<u8> = $out;
        out.extend_from_slice(concat!("{\"type\":\"", $tag, "\",\"", $first, "\":").as_bytes());
        $crate::json::Value::write_json(&$head, out);
        $(
            out.extend_from_slice(concat!(",\"", $key, "\":").as_bytes());
            $crate::json::Value::write_json(&$value, out);
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

/// A field's schema type: the labels stated in the event table, or else
/// what its Rust type exports as.
macro_rules! field {
    ($ty:ty) => {
        <$ty as Value>::FIELD
    };
    ($ty:ty, $($label:literal),+) => {
        Field::Label(&[$($label),+])
    };
}

/// Turns the rows of [`events!`](crate::events) into the encoder and
/// the schema. The encoder is straight-line code per event — one
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

        /// The fields of each event record.
        fn event_schema(tag: &str) -> Option<Schema> {
            match tag {
                $($tag => Some(&[
                    ("type", Field::Str),
                    ("t", Field::Num),
                    $((key!($field $($key)?), field!($ty $(, $label)*)),)*
                ]),)*
                _ => None,
            }
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
// Schema validation
// ---------------------------------------------------------------------------

/// The JSON shape a [`Value`] exports as, which is what the validator
/// holds a record's field of that type to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field {
    /// Any number.
    Num,
    /// A non-negative whole number.
    Int,
    /// Any string.
    Str,
    /// `true` or `false`.
    Bool,
    /// One of these strings.
    Label(&'static [&'static str]),
    /// An array whose items all have this shape.
    Arr(&'static Field),
    /// `null`, or an object with exactly these fields.
    NullOr(&'static [(&'static str, Field)]),
}

/// The fields of one record or object: key and shape, in export order.
type Schema = &'static [(&'static str, Field)];

impl Field {
    fn check(&self, value: &Json) -> Result<(), String> {
        match (self, value) {
            (Field::Num, Json::Num(_))
            | (Field::Str, Json::Str(_))
            | (Field::Bool, Json::Bool(_))
            | (Field::NullOr(_), Json::Null) => Ok(()),
            (Field::Int, Json::Num(n)) if n.fract() == 0.0 && *n >= 0.0 => Ok(()),
            (Field::Label(known), Json::Str(label)) if known.contains(&label.as_str()) => Ok(()),
            (Field::Label(_), Json::Str(label)) => Err(format!("has unknown label \"{label}\"")),
            (Field::Arr(item), Json::Arr(items)) => items.iter().try_for_each(|i| item.check(i)),
            (Field::NullOr(schema), Json::Obj(fields)) => check_fields(fields, schema),
            _ => Err(format!("is not {self:?}")),
        }
    }
}

/// Exact match: every field of the schema present once with the right
/// shape, and no other field.
fn check_fields(fields: &[(String, Json)], schema: Schema) -> Result<(), String> {
    for (i, (key, value)) in fields.iter().enumerate() {
        if fields[..i].iter().any(|(earlier, _)| earlier == key) {
            return Err(format!("field \"{key}\" appears twice"));
        }
        let Some((_, shape)) = schema.iter().find(|(k, _)| k == key) else {
            return Err(format!("unexpected field \"{key}\""));
        };
        shape
            .check(value)
            .map_err(|e| format!("field \"{key}\" {e}"))?;
    }
    match schema
        .iter()
        .find(|(k, _)| fields.iter().all(|(f, _)| f != k))
    {
        Some((missing, _)) => Err(format!("missing field \"{missing}\"")),
        None => Ok(()),
    }
}

/// The fields of each record type. The two framing records are written
/// by `tempo-sim`'s JSONL sink, not from an event, so they are listed
/// here; every other tag is a row of the event table.
fn schema_for(tag: &str) -> Option<Schema> {
    match tag {
        "run_start" => Some(&[
            ("type", Field::Str),
            ("seed", Field::Int),
            ("servers", Field::Int),
            ("strategy", Field::Str),
            ("xi", Field::Num),
            ("tau", Field::Num),
        ]),
        "summary" => Some(&[
            ("type", Field::Str),
            ("events", Field::Int),
            ("dropped", Field::Int),
            ("xi_witness", Field::Num),
            ("sent", Field::Int),
            ("delivered", Field::Int),
            ("lost", Field::Int),
            ("duplicated", Field::Int),
            ("partitioned", Field::Int),
            ("timers", Field::Int),
        ]),
        _ => event_schema(tag),
    }
}

/// Checks one line and returns its record type.
fn record_tag(line: &str) -> Result<String, String> {
    let Json::Obj(fields) = parse(line)? else {
        return Err("not an object".into());
    };
    let Some((_, Json::Str(tag))) = fields.iter().find(|(k, _)| k == "type") else {
        return Err("missing string field \"type\"".into());
    };
    let schema = schema_for(tag).ok_or_else(|| format!("unknown record type \"{tag}\""))?;
    check_fields(&fields, schema).map_err(|e| format!("record \"{tag}\": {e}"))?;
    Ok(tag.clone())
}

/// Validates one JSONL line against the documented schema: it must
/// parse, carry a known `"type"`, have exactly the documented fields
/// (each once) with the documented types, and use only documented enum
/// labels.
pub fn validate_line(line: &str) -> Result<(), String> {
    record_tag(line).map(|_| ())
}

/// Validates a whole JSONL stream: every non-empty line must satisfy
/// [`validate_line`], the first line must be `run_start`, and the last
/// must be `summary`. Returns the number of lines checked.
pub fn validate_stream(text: &str) -> Result<usize, String> {
    let mut tags = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            tags.push(record_tag(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
    }
    if tags.is_empty() {
        return Err("empty stream".into());
    }
    if tags.first().map(String::as_str) != Some("run_start") {
        return Err("stream must start with a run_start record".into());
    }
    if tags.last().map(String::as_str) != Some("summary") {
        return Err("stream must end with a summary record".into());
    }
    Ok(tags.len())
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

    /// EXPERIMENTS.md § "Telemetry export" is what a third party reads
    /// the JSONL by. It writes a record as `` `tag` / `tag` — `{key, …}` ``
    /// and an enum-valued field as `` ∈ `a | b` `` after the record;
    /// both must say what the event table says, for every tag.
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
        let keys_of = |schema: Schema| -> Vec<&str> {
            let keys = schema.iter().map(|(key, _)| *key);
            keys.filter(|key| *key != "type").collect()
        };
        let mut documented = Vec::new();
        for i in (1..pieces.len()).step_by(2) {
            let Some(keys) = span(i).strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
                continue;
            };
            let keys = list(keys, ',');
            if span(i - 1).trim().ends_with("each entry is") {
                let Field::NullOr(snapshot) = SampleSnapshot::FIELD else {
                    panic!("a snapshot exports as null or an object");
                };
                assert_eq!(keys, keys_of(snapshot), "sample entry");
                documented.push("sample entry");
                continue;
            }
            if span(i - 1).trim() != "—" {
                continue;
            }
            let labels = span(i + 1)
                .trim()
                .ends_with('∈')
                .then(|| list(span(i + 2), '|'));
            // The tags sharing this field list: `a` / `b` / `c` — `{…}`.
            let mut at = i - 2;
            loop {
                let tag = span(at);
                let schema = schema_for(tag).unwrap_or_else(|| panic!("`{tag}` is not a record"));
                assert_eq!(keys, keys_of(schema), "fields of `{tag}`");
                // Every enum-valued field of the record takes the one
                // documented list (`health`'s `from` and `to` share it).
                let mut enums = schema.iter().filter_map(|(_, field)| match field {
                    Field::Label(allowed) => Some(allowed.to_vec()),
                    _ => None,
                });
                assert_eq!(enums.next(), labels, "labels of `{tag}`");
                assert!(enums.all(|allowed| Some(allowed) == labels), "`{tag}`");
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
