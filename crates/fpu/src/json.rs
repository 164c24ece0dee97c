//! The workspace's one JSON codec. Result documents, cache entries and
//! the wire protocol are plain JSON, but the no-dependency policy rules
//! out serde, so this module holds the whole codec: a recursive-descent
//! parser into a [`JsonValue`] tree, a compact writer (the tree's
//! `Display`: members in the order built, no whitespace), constructors,
//! typed member readers ([`Fields`]) that fail with one message shape,
//! `<context> needs <kind> "<field>"`, and the [`JsonCodec`] trait every
//! wire type implements. [`fnv1a_64`] derives content-addressed cache
//! keys from the canonical text.
//!
//! Numbers are kept as text ([`JsonValue::Number`] wraps a `String`): a
//! parsed number keeps its source text, and a constructed one is its
//! `Display` form, Rust's shortest round-trip formatting for `f64`. So a
//! document parses back to the exact same bits and re-serializes to the
//! same bytes — the property the campaign cache's content hashing relies
//! on.

use std::fmt;
use std::str::FromStr;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so without a bound one request line of
/// `[`s overflows the thread's stack and aborts the whole process; the
/// deepest document the workspace emits nests fewer than a dozen levels.
const MAX_DEPTH: usize = 128;

/// A parsed or constructed JSON document node.
///
/// Object member order is preserved as written or built, which keeps
/// `parse(s).and_then(|v| v.get(..))` deterministic and makes the writer
/// canonical.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its text for exact round-tripping.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, member order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (`None` for missing keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value parsed as a `T` (`f64`, `u64`, …), if it is a number of
    /// that type.
    fn as_number<T: FromStr>(&self) -> Option<T> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value parsed as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_number()
    }

    /// The value parsed as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_number()
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// A document number: `null` for `None` and for a non-finite value,
    /// which JSON cannot represent.
    pub fn finite(value: impl Into<Option<f64>>) -> JsonValue {
        value.into().filter(|v| v.is_finite()).into()
    }

    /// Typed readers over this object's members, for errors that name
    /// `context` (e.g. `"solver spec"`).
    pub fn fields<'a>(&'a self, context: &'a str) -> Fields<'a> {
        Fields(self, context)
    }
}

/// An object literal, members in the order written, each value converted
/// by `JsonValue::from`: `json_object!("kind" => "burst", "length" => 3)`.
#[macro_export]
macro_rules! json_object {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::json::JsonValue::Object(vec![
            $(($key.to_string(), $crate::json::JsonValue::from($value))),*
        ])
    };
}

/// Scalar conversions; a number is its `Display` text, so a non-finite
/// `f64` would write `inf` or `NaN`, which no parser reads back (documents
/// that may hold one use [`JsonValue::finite`]).
macro_rules! from {
    ($($t:ty => $into:expr,)*) => {$(
        impl From<$t> for JsonValue {
            fn from(x: $t) -> Self {
                $into(x)
            }
        }
    )*};
}
from! {
    bool => JsonValue::Bool,
    &str => |s: &str| JsonValue::String(s.to_string()),
    String => JsonValue::String,
    f64 => number,
    u64 => number,
    u32 => number,
    usize => number,
}

/// A number's `Display` text, in one allocation for every number short
/// enough to be common.
fn number(n: impl fmt::Display) -> JsonValue {
    let mut text = String::with_capacity(24);
    fmt::write(&mut text, format_args!("{n}")).expect("writing to a String cannot fail");
    JsonValue::Number(text)
}

/// `None` is `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(value: Option<T>) -> Self {
        value.map_or(JsonValue::Null, Into::into)
    }
}

impl<T: Into<JsonValue> + Clone> From<&[T]> for JsonValue {
    fn from(items: &[T]) -> Self {
        items.iter().cloned().collect()
    }
}

/// A wire value's canonical tree.
impl<T: JsonCodec> From<&T> for JsonValue {
    fn from(value: &T) -> Self {
        value.to_value()
    }
}

/// Collects into an array.
impl<T: Into<JsonValue>> FromIterator<T> for JsonValue {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

impl JsonValue {
    /// The compact writer: appends the text to `out`, with no whitespace,
    /// members in stored order and numbers as their text.
    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(raw) => out.push_str(raw),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The compact text (see [`JsonCodec::to_json`]).
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// A wire type with one canonical JSON form: `from_value` reads back
/// exactly what `to_value` builds, applying the checks the type's
/// constructors apply, and a canonical document re-serializes to the same
/// bytes, so its text can serve as a content key.
pub trait JsonCodec: Sized {
    /// The canonical JSON tree.
    fn to_value(&self) -> JsonValue;

    /// Reads the [`to_value`](Self::to_value) shape, or names the first
    /// missing, mistyped or invalid field.
    fn from_value(value: &JsonValue) -> Result<Self, String>;

    /// The canonical single-line JSON text.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.to_value().write(&mut out);
        out
    }

    /// Parses JSON text and reads it with [`from_value`](Self::from_value).
    fn from_json(text: &str) -> Result<Self, String> {
        Self::from_value(&parse(text).map_err(|e| e.to_string())?)
    }
}

/// A type [`Fields`] reads a member as.
pub trait FieldKind<'a>: Sized {
    /// The kind as error messages name it, with its article.
    const KIND: &'static str;

    /// The member as this kind, if it is one.
    fn read(value: &'a JsonValue) -> Option<Self>;
}

macro_rules! field_kind {
    ($($t:ty, $kind:literal, $read:expr;)*) => {$(
        impl<'a> FieldKind<'a> for $t {
            const KIND: &'static str = $kind;
            fn read(value: &'a JsonValue) -> Option<Self> {
                $read(value)
            }
        }
    )*};
}
field_kind! {
    &'a JsonValue, "a", Some;
    &'a str, "a string", JsonValue::as_str;
    String, "a string", |v: &JsonValue| v.as_str().map(str::to_string);
    &'a [JsonValue], "an array", JsonValue::as_array;
    f64, "a numeric", JsonValue::as_number;
    u64, "an integer", JsonValue::as_number;
    usize, "an integer", JsonValue::as_number;
    bool, "a boolean", |v: &JsonValue| match v { JsonValue::Bool(b) => Some(*b), _ => None };
    Option<f64>, "a numeric or null", |v: &JsonValue| match v {
        JsonValue::Null => Some(None),
        number => number.as_f64().map(Some),
    };
    Vec<f64>, "a numeric array", |v: &JsonValue| v.as_array()?.iter().map(JsonValue::as_f64).collect();
}

/// Typed readers over one object's members ([`JsonValue::fields`]). Each
/// fails with `<context> needs <kind> "<field>"`.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a>(&'a JsonValue, &'a str);

impl<'a> Fields<'a> {
    /// The member `name` as a `T`.
    pub fn get<T: FieldKind<'a>>(&self, name: &str) -> Result<T, String> {
        self.map(T::KIND, name, Some)
    }

    /// The member `name` as a `T`, converted by `convert` (`None` for a
    /// value it refuses); `kind` names the accepted values.
    pub fn map<T: FieldKind<'a>, U>(
        &self,
        kind: &str,
        name: &str,
        convert: impl FnOnce(T) -> Option<U>,
    ) -> Result<U, String> {
        let value = self.0.get(name).and_then(T::read).and_then(convert);
        value.ok_or_else(|| format!("{} needs {kind} \"{name}\"", self.1))
    }

    /// The member `name` as a `T` that passes `ok`; `kind` names the
    /// accepted values (`"a positive"`).
    pub fn check<T: FieldKind<'a>>(
        &self,
        kind: &str,
        name: &str,
        ok: impl FnOnce(&T) -> bool,
    ) -> Result<T, String> {
        self.map(kind, name, |value| ok(&value).then_some(value))
    }

    /// The member `name` as a `T`, or `None` when it is missing or `null`.
    pub fn opt<T: FieldKind<'a>>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.get(name) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(_) => self.get(name).map(Some),
        }
    }

    /// The member `name` decoded as a `T`.
    pub fn decode<T: JsonCodec>(&self, name: &str) -> Result<T, String> {
        T::from_value(self.get(name)?)
    }

    /// The member `name` decoded as a `T`, or `None` when it is missing
    /// or `null`.
    pub fn decode_opt<T: JsonCodec>(&self, name: &str) -> Result<Option<T>, String> {
        self.opt(name)?.map(T::from_value).transpose()
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document, rejecting trailing non-whitespace and
/// arrays or objects nested more than 128 levels deep.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    /// Parses `open`, comma-separated items (each through `item`), then
    /// `close`: one array or object, one level deeper, refusing to pass
    /// [`MAX_DEPTH`]. An error ends the whole parse, so only success
    /// restores the depth.
    fn items<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.expect(open)?;
        self.skip_ws();
        let mut items = Vec::new();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.error(&format!("expected ',' or '{}'", close as char)));
                }
            }
        }
        self.depth -= 1;
        Ok(items)
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        let members = self.items(b'{', b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            Ok((key, p.value()?))
        })?;
        Ok(JsonValue::Object(members))
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        Ok(JsonValue::Array(self.items(b'[', b']', Self::value)?))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run is whole characters of the input.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
            let run = run.unwrap_or(rest.len());
            out.push_str(std::str::from_utf8(&rest[..run]).expect("input was a str"));
            self.pos += run;
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.error("unterminated string"));
            }
            let escaped = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{0008}',
                Some(b'f') => '\u{000C}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    self.pos += 1;
                    // Surrogate pairs are not produced by any emitter in
                    // this workspace; accept lone escapes for BMP scalars
                    // only.
                    let code = char::from_u32(self.hex4()?);
                    out.push(code.ok_or_else(|| self.error("invalid \\u escape"))?);
                    continue;
                }
                _ => return Err(self.error("invalid escape sequence")),
            };
            out.push(escaped);
            self.pos += 1;
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self.bytes.get(self.pos..self.pos + 4);
        let hex = hex.filter(|hex| hex.iter().all(u8::is_ascii_hexdigit));
        let hex = hex.ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        let hex = std::str::from_utf8(hex).expect("ASCII hex digits");
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// Consumes one or more ASCII digits, failing with `message` on none.
    fn digits(&mut self, message: &str) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error(message));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        self.digits("expected digits")?;
        if self.eat(b'.') {
            self.digits("expected fraction digits")?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            self.digits("expected exponent digits")?;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        Ok(JsonValue::Number(raw.to_string()))
    }
}

/// Escapes a string for embedding in a JSON document (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped(&mut out, s);
    out
}

/// Appends `s` quoted and escaped.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    write_escaped(out, s);
    out.push('"');
}

/// Appends `s` escaped, copying each run of plain characters whole.
fn write_escaped(out: &mut String, s: &str) {
    let mut plain = 0;
    // Every escaped character is ASCII, so each split is a char boundary.
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..0x20 => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        match escaped {
            "" => out.push_str(&format!("\\u{b:04x}")),
            escaped => out.push_str(escaped),
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// The 64-bit FNV-1a hash of `bytes` — the workspace's content-address
/// function for canonical spec JSON (cache keys, provenance digests).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
    }

    #[test]
    fn numbers_keep_raw_text() {
        let v = parse("0.30000000000000004").unwrap();
        assert_eq!(v, JsonValue::Number("0.30000000000000004".to_string()));
        assert_eq!(v.as_f64(), Some(0.1 + 0.2));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a":[1,2,{"b":null}],"c":"x","d":{"e":true}}"#;
        let v = parse(doc).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&JsonValue::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("d").unwrap().get("e"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn object_member_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nquote\"slash\\tab\tunit\u{1}";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn writer_is_compact_and_reads_back() {
        let doc = json_object!(
            "s" => "q\"\n\u{1}", "n" => 0.1 + 0.2, "big" => u64::MAX, "none" => None::<f64>,
            "nan" => JsonValue::finite(f64::NAN), "list" => [1.5, -2.0].as_slice(),
        );
        let text = doc.to_string();
        assert_eq!(
            text,
            r#"{"s":"q\"\n\u0001","n":0.30000000000000004,"big":18446744073709551615,"none":null,"nan":null,"list":[1.5,-2]}"#
        );
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn field_readers_fail_with_one_shape() {
        let doc = parse(r#"{"n":"x","m":-1,"v":null}"#).unwrap();
        let f = doc.fields("test object");
        assert_eq!(
            f.get::<u64>("n"),
            Err("test object needs an integer \"n\"".into())
        );
        assert_eq!(
            f.get::<&str>("gone"),
            Err("test object needs a string \"gone\"".into())
        );
        let positive = f.check("a positive", "m", |m: &f64| *m > 0.0);
        assert_eq!(positive, Err("test object needs a positive \"m\"".into()));
        assert_eq!(f.opt::<f64>("v"), Ok(None));
        assert_eq!(f.opt::<f64>("gone"), Ok(None));
        assert!(f.opt::<f64>("n").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"open", "01x", "{\"a\"}", "1 2", "{,}"] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        let objects =
            |levels: usize| format!("{}0{}", "{\"a\":".repeat(levels), "}".repeat(levels));
        // At the limit both kinds of container parse.
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        // One level past it, or far past it (unterminated), is an error,
        // not a stack overflow.
        for doc in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
        ] {
            let err = parse(&doc).expect_err("over-deep document accepted");
            assert!(err.message.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" {\n \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}
