//! Minimal deterministic JSON writing and flat-object parsing.
//!
//! The workspace has no serialization dependency, so trace and registry
//! exports hand-roll their JSON. Everything here is deterministic
//! by construction: callers iterate `Vec`s or `BTreeMap`s (never a
//! `HashMap`), and float formatting uses Rust's shortest-roundtrip `{}`
//! display, which is stable across runs and platforms.

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` to `out` as a JSON number, or `null` when not finite.
///
/// Uses the shortest-roundtrip display (`1.5` → `1.5`, `2.0` → `2`), which
/// is deterministic and re-parses to the identical `f64`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// A parsed scalar from a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
}

impl JsonValue {
    /// Numeric view (also accepts booleans as 0/1), `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            JsonValue::Bool(b) => Some(*b as u8 as f64),
            _ => None,
        }
    }

    /// String view, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one *flat* JSON object (`{"k": scalar, ...}`) into key/value
/// pairs in document order. Nested objects/arrays are rejected — trace
/// lines are flat by construction, so hitting one means the input is not a
/// trace file.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.next();
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_scalar()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing garbage after object".into());
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = self.parse_hex4()?;
                        let code = match code {
                            // High surrogate: must pair with a following
                            // \uDC00..\uDFFF low surrogate.
                            0xD800..=0xDBFF => {
                                if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                    return Err("high surrogate without \\u pair".into());
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!("bad low surrogate \\u{low:04x}"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            }
                            0xDC00..=0xDFFF => {
                                return Err(format!("unpaired low surrogate \\u{code:04x}"))
                            }
                            code => code,
                        };
                        out.push(char::from_u32(code).ok_or("invalid \\u codepoint")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(_) => {
                    // Multi-byte UTF-8: re-decode from the byte slice.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..]).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.next().ok_or("truncated \\u escape")?;
            code = code * 16 + (d as char).to_digit(16).ok_or("bad hex in \\u escape")?;
        }
        Ok(code)
    }

    fn parse_scalar(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_lit("null", JsonValue::Null),
            Some(b'{' | b'[') => Err("nested values not supported in flat objects".into()),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| format!("bad number {text:?}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected literal {lit}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_str_escapes() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd");
        assert_eq!(out, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn write_f64_roundtrip_and_nonfinite() {
        let mut out = String::new();
        write_f64(&mut out, 2.5);
        out.push(' ');
        write_f64(&mut out, 3.0);
        out.push(' ');
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "2.5 3 null");
    }

    #[test]
    fn parse_flat_object_roundtrip() {
        let fields =
            parse_flat_object(r#"{"t_ms":120,"kind":"transport.send","ok":true,"x":-1.5}"#)
                .unwrap();
        assert_eq!(fields[0], ("t_ms".into(), JsonValue::Num(120.0)));
        assert_eq!(fields[1].1.as_str(), Some("transport.send"));
        assert_eq!(fields[2].1, JsonValue::Bool(true));
        assert_eq!(fields[3].1.as_f64(), Some(-1.5));
    }

    #[test]
    fn parse_rejects_nested_and_garbage() {
        assert!(parse_flat_object(r#"{"a":{"b":1}}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1} trailing"#).is_err());
        assert!(parse_flat_object("not json").is_err());
    }

    #[test]
    fn parse_handles_escapes_and_empty() {
        assert_eq!(parse_flat_object("{}").unwrap(), vec![]);
        let fields = parse_flat_object(r#"{"k":"line\nbreak A"}"#).unwrap();
        assert_eq!(fields[0].1.as_str(), Some("line\nbreak A"));
    }

    #[test]
    fn parse_escaped_quotes_and_backslashes_in_fields() {
        // A field value that is itself quoted JSON-ish text.
        let fields = parse_flat_object(r#"{"msg":"said \"hi\" to node 3"}"#).unwrap();
        assert_eq!(fields[0].1.as_str(), Some(r#"said "hi" to node 3"#));
        // Windows-style path: every backslash doubled.
        let fields = parse_flat_object(r#"{"path":"C:\\data\\trace.jsonl"}"#).unwrap();
        assert_eq!(fields[0].1.as_str(), Some(r"C:\data\trace.jsonl"));
        // Adjacent escapes: backslash immediately before a closing quote.
        let fields = parse_flat_object(r#"{"k":"tail\\"}"#).unwrap();
        assert_eq!(fields[0].1.as_str(), Some("tail\\"));
        // Escaped quote in a *key*.
        let fields = parse_flat_object(r#"{"a\"b":1}"#).unwrap();
        assert_eq!(fields[0].0, "a\"b");
    }

    #[test]
    fn parse_rejects_malformed_escapes() {
        assert!(parse_flat_object(r#"{"k":"dangling\"#).is_err());
        assert!(parse_flat_object(r#"{"k":"bad\qescape"}"#).is_err());
        assert!(parse_flat_object(r#"{"k":"trunc\u12"}"#).is_err());
        assert!(parse_flat_object(r#"{"k":"nothex\uZZZZ"}"#).is_err());
        assert!(parse_flat_object(r#"{"k":"unterminated"#).is_err());
    }

    #[test]
    fn parse_unicode_escapes_and_surrogate_pairs() {
        let fields = parse_flat_object(r#"{"k":"nul\u0000end"}"#).unwrap();
        assert_eq!(fields[0].1.as_str(), Some("nul\u{0}end"));
        // Astral codepoint via a surrogate pair.
        let fields = parse_flat_object(r#"{"k":"\ud83d\ude00"}"#).unwrap();
        assert_eq!(fields[0].1.as_str(), Some("\u{1f600}"));
        // Lone surrogates are invalid JSON text.
        assert!(parse_flat_object(r#"{"k":"\ud83d"}"#).is_err());
        assert!(parse_flat_object(r#"{"k":"\ud83dx"}"#).is_err());
        assert!(parse_flat_object(r#"{"k":"\ude00"}"#).is_err());
    }

    #[test]
    fn write_parse_roundtrip_hostile_strings() {
        let hostile = [
            r#"quote " backslash \ both \" end"#,
            "tabs\tand\r\nnewlines",
            "ctrl\u{1}\u{1f}chars",
            "unicode ✓ 中文 \u{1f600}",
            r"\\\\",
            r#"\"\"\""#,
        ];
        for s in hostile {
            let mut line = String::new();
            line.push_str("{\"k\": ");
            write_str(&mut line, s);
            line.push('}');
            let fields = parse_flat_object(&line)
                .unwrap_or_else(|e| panic!("roundtrip of {s:?} failed: {e}"));
            assert_eq!(fields[0].1.as_str(), Some(s), "roundtrip of {s:?}");
        }
    }

    #[test]
    fn trace_event_with_hostile_fields_roundtrips() {
        use crate::trace::{TraceEvent, Value};
        let ev = TraceEvent {
            t_ms: 42,
            kind: "test.escape",
            fields: vec![("msg", Value::Str(r#"a "b" \c\ d"#.to_string()))],
        };
        let mut line = String::new();
        ev.write_jsonl(&mut line);
        let fields = parse_flat_object(&line).unwrap();
        let msg = fields.iter().find(|(k, _)| k == "msg").unwrap();
        assert_eq!(msg.1.as_str(), Some(r#"a "b" \c\ d"#));
    }
}
