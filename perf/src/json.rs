//! Writing and reading the benchmark's own JSON. The value type and
//! the parser are `tempo_telemetry::json`'s (the repository's only JSON
//! reader); this adds the serializer that module has no use for.

use std::fmt::Write as _;

pub use tempo_telemetry::json::{parse, Json};

pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

pub fn num(v: f64) -> Json {
    Json::Num(v)
}

/// `{"value": v, "unit": u}` — how every metric is written.
pub fn metric(value: f64, unit: &str) -> Json {
    obj(vec![("value", num(value)), ("unit", text(unit))])
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Shortest round-trip form; JSON has no NaN or infinity.
        Json::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// One-line serialization.
pub fn to_line(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

pub fn as_f64(value: &Json) -> Option<f64> {
    match value {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

pub fn as_str(value: &Json) -> Option<&str> {
    match value {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_arr(value: &Json) -> Option<&[Json]> {
    match value {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

pub fn as_obj(value: &Json) -> Option<&[(String, Json)]> {
    match value {
        Json::Obj(fields) => Some(fields),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn what_is_written_parses_back() {
        let doc = obj(vec![
            ("name", text("a \"quoted\"\nline")),
            ("n", num(1.25)),
            ("whole", num(3.0)),
            ("list", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("m", metric(0.5, "ms")),
        ]);
        let line = to_line(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap(), doc);
    }
}
