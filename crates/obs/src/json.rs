//! The one JSON emitter: every JSON document the workspace writes — the
//! Chrome span trace, the metrics snapshots, the certificate and artifact
//! dumps, the `scaling` records — is built from these pieces, so the
//! format is decided here once:
//!
//! * **strings** are escaped by [`push_json_string`];
//! * **floats** print as Rust's shortest round-trip `{:e}` (`0.1` →
//!   `1e-1`, `1000.0` → `1e3`, `-0.0` → `-0e0`), which parses back to the
//!   identical bits; NaN and ±∞ print as `null`;
//! * **spacing** is `{"k": v, "k2": v2}` and `[a, b]` on one line — there
//!   is no pretty-printer.
//!
//! ```
//! use bdsm_obs::json::{self, Object};
//!
//! let doc = Object::new()
//!     .field("name", "a\"b")
//!     .field("xs", vec![0.1, f64::NAN])
//!     .field("inner", Object::new().field("n", 3u64))
//!     .finish();
//! assert_eq!(doc, r#"{"name": "a\"b", "xs": [1e-1, null], "inner": {"n": 3}}"#);
//! assert_eq!(json::to_string(&Some(2.5)), "2.5e0");
//! ```

use std::fmt::Write as _;

/// A value with a JSON rendering.
pub trait Json {
    /// Appends the JSON rendering of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

/// Renders `value` as a JSON document.
pub fn to_string<T: Json + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Appends `s` to `out` as a JSON string literal — quotes included, `"`,
/// `\` and control characters escaped.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:e}");
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! display_json {
    ($($t:ty),*) => {
        $(impl Json for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        })*
    };
}
display_json!(u32, u64, usize, i64, bool);

impl Json for str {
    fn write_json(&self, out: &mut String) {
        push_json_string(out, self);
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String) {
        push_json_string(out, self);
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Json> Json for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Json> Json for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// A pair is a two-element array: `[a, b]`.
impl<A: Json, B: Json> Json for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push_str(", ");
        self.1.write_json(out);
        out.push(']');
    }
}

/// A JSON object under construction. Fields print in the order they are
/// added; the object places the commas. Nest one by passing it as a
/// field value.
#[derive(Debug, Clone, Default)]
pub struct Object(String);

impl Object {
    pub fn new() -> Object {
        Object::default()
    }

    /// Appends `"key": value`.
    pub fn field(mut self, key: &str, value: impl Json) -> Object {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        push_json_string(&mut self.0, key);
        self.0.push_str(": ");
        value.write_json(&mut self.0);
        self
    }

    /// The finished object as a JSON document.
    pub fn finish(self) -> String {
        to_string(&self)
    }
}

impl Json for Object {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        out.push_str(&self.0);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(to_string("plain ω"), "\"plain ω\"");
        assert_eq!(to_string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(
            to_string("\n\t\u{0}\u{1f}"),
            r#""\u000a\u0009\u0000\u001f""#
        );
        assert_eq!(Object::new().field("k\"", 1u64).finish(), r#"{"k\"": 1}"#);
    }

    #[test]
    fn non_finite_floats_are_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string(&v), "null");
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let subnormal = f64::from_bits(1);
        for v in [
            -0.0,
            subnormal,
            5e-310,
            f64::MAX,
            f64::MIN_POSITIVE,
            0.1,
            1e-300,
            -42.5,
            0.0,
        ] {
            let s = to_string(&v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} printed as {s}");
        }
        assert_eq!(to_string(&-0.0), "-0e0");
        assert_eq!(to_string(&0.1), "1e-1");
        assert_eq!(to_string(&1000.0), "1e3");
    }

    #[test]
    fn commas_in_nested_objects_and_arrays() {
        assert_eq!(Object::new().finish(), "{}");
        assert_eq!(to_string::<[u64]>(&[]), "[]");
        assert_eq!(to_string(&vec![1u64, 2, 3]), "[1, 2, 3]");
        assert_eq!(
            to_string(&vec![(1usize, 2usize), (3, 4)]),
            "[[1, 2], [3, 4]]"
        );
        let doc = Object::new()
            .field("a", Object::new())
            .field("b", Object::new().field("c", true).field("d", None::<u64>))
            .field("e", vec![Object::new().field("f", -1i64), Object::new()])
            .field("g", Vec::<u64>::new())
            .finish();
        assert_eq!(
            doc,
            r#"{"a": {}, "b": {"c": true, "d": null}, "e": [{"f": -1}, {}], "g": []}"#
        );
    }
}
