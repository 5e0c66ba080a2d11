//! A small JSON document model, emitter and parser.
//!
//! The offline build has no `serde_json`, so the figure binaries build their
//! machine-readable series through this module instead: construct a
//! [`JsonValue`] (usually via [`ToJson`]) and render it with
//! [`JsonValue::to_pretty_string`]. The emitter covers exactly what the
//! EXPERIMENTS flow needs — objects, arrays, strings, finite and non-finite
//! numbers, booleans and nulls — with standard JSON escaping.
//!
//! [`JsonValue::parse`] is the inverse: a recursive-descent parser for
//! standard JSON used by the sharded-campaign machinery to read shard-state
//! checkpoints back. Numbers parse through [`str::parse::<f64>`], and the
//! emitter prints floats with Rust's shortest round-trippable
//! representation, so an emit → parse cycle reproduces every finite `f64`
//! bit-for-bit. The single exception is `-0.0`, which the emitter has always
//! normalised to `"0"` (the byte format of every historical figure JSON).
//! Shard-state catalogue values do not depend on either property: they are
//! stored as hex strings of their raw bits. The numbers a checkpoint still
//! writes through this path are the CDF weights, which are strictly
//! positive, and the record metrics, whose `±0.0` no reduction of a rendered
//! figure distinguishes, so normalisation cannot change a rendered figure
//! byte.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values render as `null` (JSON has no NaN/Inf).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn object<I>(fields: I) -> Self
    where
        I: IntoIterator<Item = (&'static str, JsonValue)>,
    {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_owned(), value))
                .collect(),
        )
    }

    /// Builds an array by converting each element.
    #[must_use]
    pub fn array<T: ToJson, I: IntoIterator<Item = T>>(items: I) -> Self {
        JsonValue::Array(items.into_iter().map(|item| item.to_json()).collect())
    }

    /// Renders the document with two-space indentation.
    #[must_use]
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Parses a JSON document (the inverse of
    /// [`JsonValue::to_pretty_string`]).
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] with a byte offset and reason for
    /// malformed input or trailing garbage.
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The number carried by this node, if it is one (`null` is *not* a
    /// number even though non-finite numbers emit as `null`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The number as an exactly-representable unsigned integer, if it is
    /// one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(value)
                if *value >= 0.0 && value.trunc() == *value && *value < 2f64.powi(53) =>
            {
                Some(*value as u64)
            }
            _ => None,
        }
    }

    /// The string carried by this node, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(value) => Some(value),
            _ => None,
        }
    }

    /// The boolean carried by this node, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The elements of this node, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` fields of this node, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field of an object node (first match wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(field, _)| field == key)
            .map(|(_, value)| value)
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            JsonValue::Number(value) if !value.is_finite() => out.push_str("null"),
            // Numbers format straight into `out` (writing to a `String`
            // cannot fail). Integral values print without a fraction, like
            // serde_json. Note this normalises -0.0 to "0" (the format every
            // historical figure JSON was emitted in; empty f64 iterator sums
            // are -0.0, so figure probabilities do hit this case) — see the
            // module docs for why the shard-state round-trip tolerates it.
            JsonValue::Number(value) if *value == value.trunc() && value.abs() < 1e15 => {
                let _ = write!(out, "{}", *value as i64);
            }
            // Shortest representation that round-trips the exact f64.
            JsonValue::Number(value) => {
                let _ = write!(out, "{value}");
            }
            JsonValue::String(value) => write_escaped(out, value),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Error produced by [`JsonValue::parse`]: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            reason: reason.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain UTF-8 characters in one go.
            let rest = &self.bytes[start..];
            self.pos += find_byte(rest, |byte| byte == b'"' || byte == b'\\').unwrap_or(rest.len());
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("unfinished escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs are not emitted by our writer
                            // (it escapes only control characters), but
                            // accept them for standard-JSON compatibility.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        let combined = 0x10000
                                            + ((u32::from(code) - 0xD800) << 10)
                                            + (u32::from(low) - 0xDC00);
                                        char::from_u32(combined)
                                    } else {
                                        // A high surrogate must be followed
                                        // by a low surrogate.
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(u32::from(code))
                            };
                            out.push(c.ok_or_else(|| self.error("invalid \\u escape"))?);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                None => return Err(self.error("unterminated string")),
                _ => unreachable!("loop consumes all plain characters"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonParseError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|slice| std::str::from_utf8(slice).ok())
            .ok_or_else(|| self.error("expected 4 hex digits"))?;
        let code =
            u16::from_str_radix(digits, 16).map_err(|_| self.error("expected 4 hex digits"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number spans are plain ASCII");
        match text.parse::<f64>() {
            // Literals like `1e999` overflow to ±inf, which the emitter can
            // never have produced (non-finite numbers emit as `null`), so
            // accepting them would silently break the emit → parse
            // round-trip invariant shard state rests on.
            Ok(value) if value.is_finite() => Ok(JsonValue::Number(value)),
            Ok(_) => Err(self.error(&format!("number '{text}' out of f64 range"))),
            Err(_) => Err(self.error(&format!("invalid number '{text}'"))),
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    // Two spaces per level, pushed a slice at a time.
    const SPACES: &str = "                                                                ";
    let mut width = 2 * indent;
    while width > SPACES.len() {
        out.push_str(SPACES);
        width -= SPACES.len();
    }
    out.push_str(&SPACES[..width]);
}

/// Index of the first byte `hit` accepts. Scans whole 16-byte chunks
/// without an early exit, which the compiler vectorises, before locating
/// the byte inside the chunk that has one.
fn find_byte(bytes: &[u8], hit: impl Fn(u8) -> bool) -> Option<usize> {
    const CHUNK: usize = 16;
    let mut offset = 0;
    for chunk in bytes.chunks_exact(CHUNK) {
        if chunk.iter().fold(false, |found, &byte| found | hit(byte)) {
            break;
        }
        offset += CHUNK;
    }
    bytes[offset..]
        .iter()
        .position(|&byte| hit(byte))
        .map(|i| offset + i)
}

fn write_escaped(out: &mut String, value: &str) {
    out.push('"');
    let mut rest = value;
    // Every byte that needs escaping is ASCII, so the runs between them
    // split `value` on char boundaries and go out as slices.
    while let Some(i) = find_byte(rest.as_bytes(), |byte| {
        byte < 0x20 || byte == b'"' || byte == b'\\'
    }) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            byte => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Conversion into the JSON document model.
pub trait ToJson {
    /// Converts `self` into a JSON node.
    fn to_json(&self) -> JsonValue;
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Number(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> JsonValue {
        JsonValue::String(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::String(self.clone())
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::Number(*self as f64)
            }
        }
    )*};
}

int_to_json!(i32, i64, u32, u64, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(value) => value.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> JsonValue {
        (**self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.to_pretty_string(), "null");
        assert_eq!(true.to_json().to_pretty_string(), "true");
        assert_eq!(3.0f64.to_json().to_pretty_string(), "3");
        assert_eq!(3.5f64.to_json().to_pretty_string(), "3.5");
        assert_eq!(f64::NAN.to_json().to_pretty_string(), "null");
        assert_eq!(42usize.to_json().to_pretty_string(), "42");
        assert_eq!("hi".to_json().to_pretty_string(), "\"hi\"");
    }

    #[test]
    fn strings_are_escaped() {
        let rendered = "a\"b\\c\nd".to_json().to_pretty_string();
        assert_eq!(rendered, "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(
            "\u{1}\u{1f}".to_json().to_pretty_string(),
            "\"\\u0001\\u001f\""
        );
        // The escaper and the parser search whole chunks of bytes, so put
        // each special character at every offset of a string longer than
        // two chunks, next to multi-byte characters, and compare with a
        // character-at-a-time escaper.
        fn escape_by_char(value: &str) -> String {
            let mut out = String::from('"');
            for c in value.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        for special in [
            "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "😀",
        ] {
            for offset in 0..40 {
                let value = format!(
                    "{}{special}{}é",
                    "a".repeat(offset),
                    "b".repeat(39 - offset)
                );
                let rendered = value.to_json().to_pretty_string();
                assert_eq!(rendered, escape_by_char(&value), "{value:?}");
                assert_eq!(JsonValue::parse(&rendered).unwrap().as_str(), Some(&*value));
            }
        }
    }

    /// The emitter as it was before numbers were formatted in place: one
    /// `format!` string per number, indentation pushed two spaces at a time.
    fn format_path_pretty(value: &JsonValue) -> String {
        fn indent(out: &mut String, depth: usize) {
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
        fn write(value: &JsonValue, out: &mut String, depth: usize) {
            match value {
                JsonValue::Number(value) => {
                    if value.is_finite() {
                        if *value == value.trunc() && value.abs() < 1e15 {
                            out.push_str(&format!("{}", *value as i64));
                        } else {
                            out.push_str(&format!("{value}"));
                        }
                    } else {
                        out.push_str("null");
                    }
                }
                JsonValue::Array(items) if !items.is_empty() => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('\n');
                        indent(out, depth + 1);
                        write(item, out, depth + 1);
                    }
                    out.push('\n');
                    indent(out, depth);
                    out.push(']');
                }
                JsonValue::Object(fields) if !fields.is_empty() => {
                    out.push('{');
                    for (i, (key, value)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('\n');
                        indent(out, depth + 1);
                        write_escaped(out, key);
                        out.push_str(": ");
                        write(value, out, depth + 1);
                    }
                    out.push('\n');
                    indent(out, depth);
                    out.push('}');
                }
                // Strings, literals and empty containers never went through
                // `format!` or the indentation.
                other => out.push_str(&other.to_pretty_string()),
            }
        }
        let mut out = String::new();
        write(value, &mut out, 0);
        out
    }

    /// Pins the in-place number formatting and the slice indentation to the
    /// old emitter byte for byte: over 10 000 f64 bit patterns plus the
    /// edge cases (-0.0, integral values either side of the 1e15 cutoff,
    /// subnormals, the extremes and non-finite values), alone and nested
    /// in arrays and objects deeper than the indentation slice.
    #[test]
    fn emitter_matches_the_format_path_byte_for_byte() {
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1e15,
            -1e15,
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15 - 0.5,
            1e15 + 2.0,
            2f64.powi(53),
            1e16,
            1e21,
            1e22,
            -1e300,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        for i in 0..12_000_i32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            values.push(match i % 3 {
                // Any bit pattern (mostly huge or tiny magnitudes).
                0 => f64::from_bits(state),
                // Integers around the cutoff, of both signs.
                1 => (state >> 13) as f64 * if state & 1 == 0 { 1.0 } else { -1.0 } / 4.0,
                // Typical magnitudes.
                _ => (state >> 11) as f64 / (1u64 << 53) as f64 * 10f64.powi(i % 41 - 20),
            });
        }
        for &value in &values {
            let node = JsonValue::Number(value);
            assert_eq!(
                node.to_pretty_string(),
                format_path_pretty(&node),
                "{value:e} ({:#x})",
                value.to_bits()
            );
        }
        // Nest runs of values up to 40 levels deep (past the 32 levels
        // the indentation slice covers) under arrays and objects.
        let mut nested = Vec::new();
        for (depth, run) in values.chunks(300).enumerate() {
            let mut node = JsonValue::array(run.iter().copied());
            for level in 0..depth {
                node = if level % 2 == 0 {
                    JsonValue::Array(vec![node, JsonValue::Null])
                } else {
                    JsonValue::object([("level", level.to_json()), ("inner", node)])
                };
            }
            nested.push(node);
        }
        let document = JsonValue::object([("nested", JsonValue::Array(nested))]);
        assert_eq!(document.to_pretty_string(), format_path_pretty(&document));
    }

    #[test]
    fn arrays_and_objects_nest() {
        let doc = JsonValue::object([
            ("name", "fig5".to_json()),
            ("cdf", vec![(1.0, 0.5), (2.0, 1.0)].to_json()),
            ("missing", Option::<f64>::None.to_json()),
        ]);
        let rendered = doc.to_pretty_string();
        assert!(rendered.contains("\"name\": \"fig5\""));
        assert!(rendered.contains("\"missing\": null"));
        // Round-trip sanity: balanced brackets, nested array present.
        assert_eq!(rendered.matches('[').count(), rendered.matches(']').count());
        assert!(rendered.contains("0.5"));
    }

    #[test]
    fn empty_containers_render_compact() {
        assert_eq!(JsonValue::Array(vec![]).to_pretty_string(), "[]");
        assert_eq!(JsonValue::Object(vec![]).to_pretty_string(), "{}");
    }

    #[test]
    fn parse_handles_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(
            JsonValue::parse("-3.5e2").unwrap(),
            JsonValue::Number(-350.0)
        );
        assert_eq!(
            JsonValue::parse("\"hi\\n\\\"there\\\"\"").unwrap(),
            JsonValue::String("hi\n\"there\"".to_owned())
        );
        assert_eq!(
            JsonValue::parse("\"\\u0041\\u00e9\"").unwrap(),
            JsonValue::String("Aé".to_owned())
        );
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::String("😀".to_owned())
        );
    }

    #[test]
    fn parse_handles_nested_containers() {
        let doc = JsonValue::parse(
            r#"{ "name": "fig5", "cdf": [[1.0, 0.5], [2, 1]], "flags": {"full": false}, "x": null }"#,
        )
        .unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("fig5"));
        let cdf = doc.get("cdf").unwrap().as_array().unwrap();
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf[0].as_array().unwrap()[1].as_f64(), Some(0.5));
        assert_eq!(
            doc.get("flags").unwrap().get("full").unwrap().as_bool(),
            Some(false)
        );
        assert_eq!(doc.get("x"), Some(&JsonValue::Null));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(JsonValue::parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(JsonValue::parse("{}").unwrap(), JsonValue::Object(vec![]));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "nul",
            "truee",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "\"open",
            "1..2",
            "[1] trailing",
            "{\"a\":1,}x",
            "\"\\q\"",
            "\"\\u12\"",
            // A high surrogate must pair with a low surrogate.
            "\"\\ud800\\u0041\"",
            "\"\\ud800x\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_truncated_documents_with_positions() {
        // Truncation at every structural depth: the error carries the byte
        // offset where input ran out.
        for bad in [
            "{",
            "{\"a\"",
            "{\"a\":",
            "{\"a\": 1",
            "{\"a\": 1,",
            "[",
            "[1",
            "[1,",
            "[[1, 2]",
            "\"half a stri",
            "\"escape at the end\\",
            "\"\\u00",
            "-",
            "tr",
            "{\"nested\": {\"deep\": [",
        ] {
            let error = JsonValue::parse(bad).unwrap_err();
            assert!(
                error.offset <= bad.len(),
                "offset {} beyond input {bad:?}",
                error.offset
            );
            assert!(!error.reason.is_empty(), "empty reason for {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_trailing_garbage_after_any_document() {
        for bad in [
            "null null",
            "1 2",
            "{} {}",
            "[] ,",
            "\"done\" x",
            "{\"a\": 1}[]",
            "3.5e2 // comment",
        ] {
            let error = JsonValue::parse(bad).unwrap_err();
            assert!(error.reason.contains("trailing"), "{bad:?} gave: {error}");
        }
    }

    #[test]
    fn parse_rejects_bad_escapes() {
        for bad in [
            "\"\\x41\"",
            "\"\\U0041\"",
            "\"\\u00zz\"",
            "\"\\ \"",
            "\"\\'\"",
            // Lone low surrogate and unpaired high surrogate.
            "\"\\udc00\"",
            "\"\\ud800\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_non_finite_number_literals() {
        // JSON has no NaN/Infinity tokens…
        for bad in ["NaN", "nan", "Infinity", "-Infinity", "inf", "-inf"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // …and literals that overflow f64 to ±inf must not sneak a
        // non-finite number past the emitter's null convention.
        for bad in ["1e999", "-1e999", "1e308999"] {
            let error = JsonValue::parse(bad).unwrap_err();
            assert!(
                error.reason.contains("out of f64 range"),
                "{bad:?} gave: {error}"
            );
        }
        // The largest finite values still parse exactly.
        let max = format!("{}", f64::MAX);
        assert_eq!(
            JsonValue::parse(&max).unwrap().as_f64().unwrap().to_bits(),
            f64::MAX.to_bits()
        );
        // Subnormal underflow to zero is fine (it is finite).
        assert_eq!(JsonValue::parse("1e-999").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn emit_parse_round_trip_preserves_f64_bits() {
        let values = [
            0.0,
            1.0,
            -1.0,
            0.1,
            1.0 / 3.0,
            1e-300,
            -2.5e300,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            987654321.125,
            5e-6,
            2f64.powi(52) + 1.0,
        ];
        for value in values {
            let rendered = JsonValue::Number(value).to_pretty_string();
            let parsed = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(
                parsed.to_bits(),
                value.to_bits(),
                "{value} rendered as {rendered} re-parsed as {parsed}"
            );
        }
        // A deterministic pseudo-random sweep over the f64 space.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let value = f64::from_bits(state);
            if !value.is_finite() {
                continue;
            }
            let rendered = JsonValue::Number(value).to_pretty_string();
            let parsed = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), value.to_bits(), "{value} via {rendered}");
        }
    }

    #[test]
    fn negative_zero_keeps_its_historical_rendering() {
        // Empty f64 iterator sums are -0.0, so figure probabilities hit
        // this path; the byte format of the historical figure JSON ("0")
        // wins over sign preservation. Parsing normalises to +0.0 — safe
        // for the numbers shard state writes through this path: weights
        // are strictly positive and no figure distinguishes ±0.0 record
        // metrics (catalogue values are stored as raw bits instead).
        let rendered = JsonValue::Number(-0.0).to_pretty_string();
        assert_eq!(rendered, "0");
        let parsed = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
        assert_eq!(parsed.to_bits(), 0f64.to_bits());
    }

    #[test]
    fn structured_documents_round_trip() {
        let doc = JsonValue::object([
            ("name", "shard \"0\"\n".to_json()),
            ("cdf", vec![(1.5, 0.25), (2.0, 0.75)].to_json()),
            ("count", 3u64.to_json()),
            ("none", JsonValue::Null),
            ("ok", true.to_json()),
            ("empty", JsonValue::Array(vec![])),
        ]);
        let rendered = doc.to_pretty_string();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), doc);
    }

    #[test]
    fn accessors_discriminate_types() {
        assert_eq!(JsonValue::Number(7.0).as_u64(), Some(7));
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::Null.as_f64(), None);
        assert_eq!(JsonValue::Bool(true).as_str(), None);
        assert_eq!(JsonValue::String("x".into()).as_array(), None);
        assert_eq!(JsonValue::Array(vec![]).as_object(), None);
    }
}
