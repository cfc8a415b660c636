//! Minimal, deterministic JSON support.
//!
//! The workspace builds with no external crates (the build environment has
//! no network access to crates.io), so this module replaces `serde` +
//! `serde_json` for the small amount of (de)serialization the harness needs:
//! metric snapshots, sweep results, machine-config hashing and golden-test
//! fixtures.
//!
//! Determinism is a hard requirement: the sweep engine asserts that a
//! parallel run emits **byte-identical** JSON to a single-threaded run, and
//! golden tests diff snapshots textually. Object keys therefore preserve
//! insertion order (no hash maps), integers and floats are kept distinct,
//! and floats print via Rust's shortest-roundtrip `Display`.
//!
//! # Example
//!
//! ```
//! use d2m_common::json::{Json, ToJson};
//!
//! let j = Json::Obj(vec![
//!     ("name".into(), "fft".to_json()),
//!     ("cycles".into(), 1234u64.to_json()),
//! ]);
//! let text = j.to_string_compact();
//! assert_eq!(text, r#"{"name":"fft","cycles":1234}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("cycles").and_then(Json::as_u64), Some(1234));
//! ```

use std::fmt;

use crate::stats::Counters;

/// A JSON value with insertion-ordered objects and exact integers.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (most counters).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number; non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved exactly as built or parsed.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`] or a [`FromJson`] conversion.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts any numeric representation).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Typed field extraction for [`FromJson`] struct decoding.
    ///
    /// # Errors
    ///
    /// Fails when the key is missing or the value does not convert.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| JsonError(format!("field {key:?}: {}", e.0))),
            None => err(format!("missing field {key:?}")),
        }
    }

    /// Compact rendering (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    // Rust's Display for f64 is shortest-roundtrip and
                    // deterministic; "2" (no dot) is fine, the parser keeps
                    // numeric kinds interchangeable for f64 targets.
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => err("unexpected end of input"),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| JsonError("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| JsonError("bad \\u escape".into()))?;
                            // Surrogate pairs are not needed for our own
                            // output (counter names and workload names are
                            // ASCII); reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| JsonError("surrogate \\u escape".into()))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError("invalid utf-8".into()))?;
                    let c = rest.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::F64(v)),
            Err(_) => err(format!("bad number {text:?} at byte {start}")),
        }
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes `Self` from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first mismatch.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_bool().ok_or_else(|| JsonError("expected bool".into()))
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
        impl FromJson for $ty {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                let v = j.as_u64().ok_or_else(|| JsonError("expected unsigned integer".into()))?;
                <$ty>::try_from(v).map_err(|_| JsonError("integer out of range".into()))
            }
        }
    )+};
}
impl_json_uint!(u8, u16, u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            // Non-finite floats serialize as null; accept that back.
            Json::Null => Ok(f64::NAN),
            _ => j
                .as_f64()
                .ok_or_else(|| JsonError("expected number".into())),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError("expected string".into()))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_array()
            .ok_or_else(|| JsonError("expected array".into()))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl ToJson for Counters {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), Json::U64(v)))
                .collect(),
        )
    }
}

impl FromJson for Counters {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| JsonError(format!("counter {k:?} not an integer")))
                })
                .collect(),
            _ => err("expected counters object"),
        }
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a struct with named fields.
///
/// All listed fields are serialized in declaration order and are required on
/// decode; fields after `skip:` are excluded from the JSON and rebuilt with
/// `Default::default()`.
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        $crate::impl_json_struct!(@imp $ty { $($field),+ } skip { });
    };
    ($ty:ty { $($field:ident),+ $(,)? } skip { $($skipped:ident),* $(,)? }) => {
        $crate::impl_json_struct!(@imp $ty { $($field),+ } skip { $($skipped),* });
    };
    (@imp $ty:ty { $($field:ident),+ } skip { $($skipped:ident),* }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field))),+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: j.field(stringify!($field))?,)+
                    $($skipped: Default::default(),)*
                })
            }
        }
    };
}

/// Implements [`ToJson`] and [`FromJson`] for a fieldless enum, using each
/// variant's identifier as its JSON string.
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ty { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $(<$ty>::$variant => stringify!($variant)),+
                };
                $crate::json::Json::Str(name.to_string())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match j.as_str() {
                    $(Some(stringify!($variant)) => Ok(<$ty>::$variant),)+
                    Some(other) => Err($crate::json::JsonError(format!(
                        "unknown {} variant {other:?}", stringify!($ty)
                    ))),
                    None => Err($crate::json::JsonError("expected string".into())),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text, "{text}");
        }
    }

    #[test]
    fn parse_nested_document() {
        let v = Json::parse(r#"{"a": [1, 2.5, {"b": "x\n"}], "c": null}"#).unwrap();
        let Some(Json::Arr(a)) = v.get("a") else {
            panic!("\"a\" is not an array");
        };
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].get("b").unwrap().as_str(), Some("x\n"));
        assert_eq!(v.get("c"), Some(&Json::Null));
    }

    #[test]
    fn compact_output_reparses_identically() {
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("a \"quote\" and \\ slash".into())),
            ("n".into(), Json::F64(0.125)),
            ("i".into(), Json::U64(u64::MAX)),
            ("arr".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = v.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
        let pretty = v.to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn key_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(v.to_string_compact(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn rejects_malformed_input() {
        for text in ["{", "[1,", "{\"a\" 1}", "tru", "1.2.3", "\"abc", "{} {}"] {
            assert!(Json::parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn counters_roundtrip() {
        let mut c = Counters::new();
        c.add("l1d.misses", 10).add("noc.msg_total", 3);
        let j = c.to_json();
        assert_eq!(Counters::from_json(&j).unwrap(), c);
    }

    #[derive(Debug, PartialEq, Default)]
    struct Demo {
        x: u64,
        y: f64,
        name: String,
    }
    impl_json_struct!(Demo { x, y, name });

    #[test]
    fn struct_macro_roundtrips() {
        let d = Demo {
            x: 5,
            y: 1.25,
            name: "n".into(),
        };
        let j = d.to_json();
        assert_eq!(j.to_string_compact(), r#"{"x":5,"y":1.25,"name":"n"}"#);
        assert_eq!(Demo::from_json(&j).unwrap(), d);
        assert!(Demo::from_json(&Json::parse(r#"{"x":5}"#).unwrap()).is_err());
    }

    #[derive(Debug, PartialEq)]
    enum Color {
        Red,
        Blue,
    }
    impl_json_enum!(Color { Red, Blue });

    #[test]
    fn enum_macro_roundtrips() {
        assert_eq!(Color::Red.to_json().as_str(), Some("Red"));
        assert_eq!(
            Color::from_json(&Json::Str("Blue".into())).unwrap(),
            Color::Blue
        );
        assert!(Color::from_json(&Json::Str("Green".into())).is_err());
    }

    #[test]
    fn float_display_is_shortest_roundtrip() {
        // 2.0 prints as "2": numeric kind may change across a roundtrip but
        // the value may not, and output is deterministic either way.
        assert_eq!(Json::F64(2.0).to_string_compact(), "2");
        assert_eq!(Json::parse("2").unwrap().as_f64(), Some(2.0));
        assert_eq!(Json::F64(f64::NAN).to_string_compact(), "null");
    }
}
