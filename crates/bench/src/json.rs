//! Minimal JSON reader for the benchmark artifact trail.
//!
//! The dependency set has no serde, and the scaling recorder only needs
//! to read back hand-rolled JSON records (a shard's metrics snapshot), so
//! this is a small recursive-descent parser over the JSON grammar subset
//! those records use (objects, arrays, numbers, strings without escapes
//! beyond `\"` and `\\`, booleans, null). It is strict about structure —
//! trailing garbage and malformed values are errors, not best-effort
//! guesses — because a silently misparsed record is worse than none.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; the bench records stay
    /// well inside its exact-integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is irrelevant to its readers, so a sorted
    /// map keeps lookups simple.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object, `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Array items, `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: `self[key]` as a number.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What the parser expected.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input or trailing content.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            at: pos,
            what: "end of input",
        });
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8, what: &'static str) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError { at: *pos, what })
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, b"null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        _ => Err(JsonError {
            at: *pos,
            what: "a JSON value",
        }),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8], v: Json) -> Result<Json, JsonError> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(JsonError {
            at: *pos,
            what: "a literal (true/false/null)",
        })
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(JsonError {
            at: start,
            what: "a number",
        })
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    let start = *pos;
    expect(b, pos, b'"', "an opening quote")?;
    // Accumulate raw bytes (multi-byte UTF-8 sequences pass through
    // intact) and validate once at the closing quote; escapes only ever
    // insert ASCII, so the result is valid whenever the source was.
    let mut out: Vec<u8> = Vec::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| JsonError {
                    at: start,
                    what: "valid UTF-8 string content",
                });
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            what: "a supported escape",
                        })
                    }
                }
                *pos += 1;
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
    Err(JsonError {
        at: *pos,
        what: "a closing quote",
    })
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(b, pos, b'[', "an opening bracket")?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    what: "',' or ']'",
                })
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(b, pos, b'{', "an opening brace")?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':', "':' after an object key")?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    what: "',' or '}'",
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_shaped_document() {
        let doc = r#"{
  "bench": "scaling",
  "omega": 450.0,
  "results": [
    {"n": 500, "t_reduce_us": 1234.5, "t_dense_factor_solve_us": null, "ok": true},
    {"n": 10000, "t_reduce_us": 9.5e4, "neg": -2}
  ]
}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("bench"), Some(&Json::Str("scaling".into())));
        assert_eq!(v.num("omega"), Some(450.0));
        let rows = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].num("n"), Some(500.0));
        assert_eq!(rows[0].get("t_dense_factor_solve_us"), Some(&Json::Null));
        assert_eq!(rows[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(rows[1].num("t_reduce_us"), Some(9.5e4));
        assert_eq!(rows[1].num("neg"), Some(-2.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "nope",
            "\"unterminated",
            "[1,]",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\nd""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\nd".into()));
    }

    #[test]
    fn non_ascii_strings_survive() {
        let v = parse(r#""100×100 mesh — µs""#).unwrap();
        assert_eq!(v, Json::Str("100×100 mesh — µs".into()));
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = parse("[1]").unwrap();
        assert!(v.get("x").is_none());
        assert!(v.as_f64().is_none());
        assert_eq!(v.as_arr().map(<[Json]>::len), Some(1));
        assert!(parse("3.5").unwrap().as_arr().is_none());
        let e = parse("{x}").unwrap_err();
        assert!(e.to_string().contains("byte"));
    }
}
