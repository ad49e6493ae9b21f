//! Minimal JSON machinery shared by the engine's result stream, the
//! `psdacc-serve` wire protocol, and the observability layer (metric
//! snapshots and trace JSONL). It lives in `psdacc-obs` — the one crate
//! every layer can depend on — and is re-exported as
//! `psdacc_engine::json` for the existing call sites.
//!
//! The workspace has no serde (the build environment has no crates.io
//! access), so both directions are hand-rolled and deliberately small:
//!
//! * [`JsonWriter`] — append-only object writer producing one-line objects.
//!   `f64` fields use `{:e}`, whose shortest-round-trip guarantee makes
//!   string equality of emitted numbers equivalent to bit equality.
//! * [`Json`] + [`parse`] — a recursive-descent parser for the subset the
//!   protocol needs (objects, arrays, strings, numbers, booleans, null).

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, mirroring typical JSON semantics).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (last occurrence wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional parts).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a signed integer (rejects fractional parts).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && *v >= i64::MIN as f64 && *v <= i64::MAX as f64 => {
                Some(*v as i64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Re-serializes this value as one JSON line. Numbers render via
    /// `{:e}` when fractional (shortest-round-trip) and as plain integers
    /// when integral, matching what [`JsonWriter`] emits; object key
    /// order is preserved.
    pub fn to_json_line(&self) -> String {
        let mut buf = String::new();
        self.write_into(&mut buf);
        buf
    }

    fn write_into(&self, buf: &mut String) {
        match self {
            Json::Null => buf.push_str("null"),
            Json::Bool(b) => buf.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if !v.is_finite() => buf.push_str("null"),
            Json::Num(v) => {
                if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
                    let _ = write!(buf, "{}", *v as i64);
                } else {
                    let _ = write!(buf, "{v:e}");
                }
            }
            Json::Str(s) => buf.push_str(&escape_str(s)),
            Json::Arr(items) => {
                buf.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        buf.push(',');
                    }
                    item.write_into(buf);
                }
                buf.push(']');
            }
            Json::Obj(fields) => {
                buf.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        buf.push(',');
                    }
                    buf.push_str(&escape_str(k));
                    buf.push(':');
                    v.write_into(buf);
                }
                buf.push('}');
            }
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// A human-readable description with the byte offset of the problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

/// The top-level fields of a result line that the fleet coordinator acts
/// on, as [`scan_result`] reads them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultFields<'a> {
    /// `kind`, when it is a string. Borrowed from the line unless the
    /// string holds an escape.
    pub kind: Option<Cow<'a, str>>,
    /// `job`, when it is a non-negative integer.
    pub job: Option<u64>,
    /// Whether an `error` field is present, whatever its value.
    pub has_error: bool,
}

/// Reads `kind`, `job` and the presence of `error` from the top level of
/// one JSON document without building its tree: nested values are
/// validated and skipped, and a string is copied only if it holds an
/// escape. The fields agree with [`parse`] followed by [`Json::get`] (the
/// last duplicate wins, a non-object has none of them), and the scan
/// rejects exactly the documents [`parse`] rejects.
///
/// # Errors
///
/// A human-readable description with the byte offset of the problem.
pub fn scan_result(text: &str) -> Result<ResultFields<'_>, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let mut fields = ResultFields { kind: None, job: None, has_error: false };
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        skip_value(bytes, &mut pos, 0)?;
    } else {
        pos += 1;
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) == Some(&b'}') {
            pos += 1;
        } else {
            loop {
                skip_ws(bytes, &mut pos);
                let key = borrowed_string(text, &mut pos)?;
                skip_ws(bytes, &mut pos);
                expect(bytes, &mut pos, b':')?;
                skip_ws(bytes, &mut pos);
                let start = pos;
                let kind = if &*key == "kind" && bytes.get(pos) == Some(&b'"') {
                    Some(borrowed_string(text, &mut pos)?)
                } else {
                    skip_value(bytes, &mut pos, 1)?;
                    None
                };
                match &*key {
                    "kind" => fields.kind = kind,
                    // A value that skipped as a number is a number token.
                    "job" => {
                        fields.job =
                            text[start..pos].parse().ok().and_then(|v| Json::Num(v).as_u64())
                    }
                    "error" => fields.has_error = true,
                    _ => {}
                }
                skip_ws(bytes, &mut pos);
                match bytes.get(pos) {
                    Some(b',') => pos += 1,
                    Some(b'}') => {
                        pos += 1;
                        break;
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
    }
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(fields)
}

/// One string token of `text`: the slice between its quotes, or its
/// decoded copy when it holds an escape.
fn borrowed_string<'a>(text: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    let start = *pos;
    if scan_string(text.as_bytes(), pos, None)? {
        *pos = start;
        return parse_string(text.as_bytes(), pos).map(Cow::Owned);
    }
    Ok(Cow::Borrowed(&text[start + 1..*pos - 1]))
}

/// [`parse_value`] without the tree: validates one value and moves past it.
fn skip_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    skip_ws(bytes, pos);
    let (open, close) = match bytes.get(*pos) {
        None => return Err("unexpected end of input".to_string()),
        Some(b'{') => (b'{', b'}'),
        Some(b'[') => (b'[', b']'),
        Some(b'"') => return scan_string(bytes, pos, None).map(drop),
        Some(b't') => return parse_literal(bytes, pos, "true", Json::Null).map(drop),
        Some(b'f') => return parse_literal(bytes, pos, "false", Json::Null).map(drop),
        Some(b'n') => return parse_literal(bytes, pos, "null", Json::Null).map(drop),
        Some(_) => return parse_number(bytes, pos).map(drop),
    };
    expect(bytes, pos, open)?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        if open == b'{' {
            skip_ws(bytes, pos);
            scan_string(bytes, pos, None)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
        }
        skip_value(bytes, pos, depth + 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `{}` at byte {}", close as char, *pos)),
        }
    }
}

/// Recursion ceiling: the parser runs on untrusted network input, and a
/// line of a few hundred thousand `[`s must be an error, not a stack
/// overflow (which aborts the whole process, not just the connection).
const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    token
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number `{token}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let mut out = String::new();
    scan_string(bytes, pos, Some(&mut out))?;
    Ok(out)
}

/// Reads one string token, decoding it into `out` when given and only
/// validating it otherwise. Returns whether the token held an escape.
fn scan_string(
    bytes: &[u8],
    pos: &mut usize,
    mut out: Option<&mut String>,
) -> Result<bool, String> {
    expect(bytes, pos, b'"')?;
    let mut escaped = false;
    loop {
        // Copy the run up to the next delimiter as one slice. Both
        // delimiters are ASCII and the input is a &str, so the run starts
        // and ends on char boundaries and is validated once — the scan is
        // linear in the line, not in string chars × line length.
        let run = bytes[*pos..].iter().position(|&b| b == b'"' || b == b'\\');
        let end = run.map_or(bytes.len(), |n| *pos + n);
        if let Some(out) = out.as_mut() {
            out.push_str(std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?);
        }
        *pos = end;
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(escaped);
            }
            _ => {
                // The run stopped at a `\`: decode one escape.
                escaped = true;
                *pos += 1;
                let c = match bytes.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(b'r') => '\r',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        // Exactly four hex digits; no sign, unlike
                        // `from_str_radix` (`\u+abc`).
                        let code = hex
                            .iter()
                            .try_fold(0u32, |acc, &b| Some(acc << 4 | char::from(b).to_digit(16)?))
                            .ok_or_else(|| {
                                format!(
                                    "bad \\u escape at byte {}: expected four hex digits",
                                    *pos - 1
                                )
                            })?;
                        *pos += 4;
                        // Surrogates are not paired up; the protocol never
                        // emits them (the writer escapes only controls).
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    other => return Err(format!("bad escape {other:?}")),
                };
                if let Some(out) = out.as_mut() {
                    out.push(c);
                }
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// Append-only single-line JSON object writer.
#[derive(Debug)]
pub struct JsonWriter {
    buf: String,
    first: bool,
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonWriter { buf: String::from("{"), first: true }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(name);
        self.buf.push_str("\":");
    }

    /// Appends an escaped string into `buf`, quotes included.
    fn push_escaped(buf: &mut String, value: &str) {
        buf.push('"');
        for c in value.chars() {
            match c {
                '"' => buf.push_str("\\\""),
                '\\' => buf.push_str("\\\\"),
                '\n' => buf.push_str("\\n"),
                '\t' => buf.push_str("\\t"),
                '\r' => buf.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(buf, "\\u{:04x}", c as u32);
                }
                c => buf.push(c),
            }
        }
        buf.push('"');
    }

    /// String field (escaped).
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.key(name);
        Self::push_escaped(&mut self.buf, value);
    }

    /// Float field; non-finite values become `null` (JSON has no Inf/NaN).
    pub fn field_f64(&mut self, name: &str, value: f64) {
        self.key(name);
        if value.is_finite() {
            let _ = write!(self.buf, "{value:e}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Signed integer field.
    pub fn field_i64(&mut self, name: &str, value: i64) {
        self.key(name);
        self.buf.push_str(&value.to_string());
    }

    /// Unsigned integer field (`u64` covers `usize` everywhere we build).
    pub fn field_u64(&mut self, name: &str, value: u64) {
        self.key(name);
        self.buf.push_str(&value.to_string());
    }

    /// `usize` convenience over [`JsonWriter::field_u64`].
    pub fn field_usize(&mut self, name: &str, value: usize) {
        self.field_u64(name, value as u64);
    }

    /// Boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Raw field: `value` must itself be valid JSON (e.g. a nested object
    /// produced by another writer, or an array assembled by the caller).
    pub fn field_raw(&mut self, name: &str, value: &str) {
        self.key(name);
        self.buf.push_str(value);
    }

    /// Closes the object and returns the single-line string.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Escapes `value` as a standalone JSON string (quotes included) — for
/// assembling arrays of strings without a writer.
pub fn escape_str(value: &str) -> String {
    let mut buf = String::new();
    JsonWriter::push_escaped(&mut buf, value);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary strings biased toward what the escaper touches: quotes,
    /// backslashes and controls, mixed with ASCII and any Unicode scalar.
    fn any_string() -> impl Strategy<Value = String> {
        prop::collection::vec((0u8..3, 0u32..0x11_0000), 0..48).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(class, code)| match class {
                    0 => ['"', '\\', '/', '\n', '\t', '\r', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}']
                        [code as usize % 10],
                    1 => char::from(b' ' + (code % 95) as u8),
                    _ => char::from_u32(code).unwrap_or('\u{fffd}'),
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn escaped_strings_parse_back_exactly(s in any_string()) {
            prop_assert_eq!(parse(&escape_str(&s)), Ok(Json::Str(s.clone())));
        }
    }

    #[test]
    fn writer_and_parser_round_trip() {
        let mut w = JsonWriter::new();
        w.field_str("s", "a\"b\\c\nd");
        w.field_f64("x", 1.25e-7);
        w.field_i64("i", -42);
        w.field_usize("u", 7);
        w.field_bool("b", true);
        w.field_raw("arr", "[1,2,3]");
        let line = w.finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.25e-7));
        assert_eq!(v.get("i").unwrap().as_i64(), Some(-42));
        assert_eq!(v.get("u").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("arr").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for &x in &[0.1, 1.0 / 3.0, 2.5e-300, 1.7976931348623157e308, -0.0] {
            let mut w = JsonWriter::new();
            w.field_f64("v", x);
            let line = w.finish();
            let back = parse(&line).unwrap().get("v").unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{line}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.field_f64("v", f64::NAN);
        assert_eq!(w.finish(), r#"{"v":null}"#);
    }

    #[test]
    fn parser_accepts_the_protocol_shapes() {
        let v = parse(r#"{"kind":"evaluate","scenario":"fir-bank index=3","npsd":256,"bits":12}"#)
            .unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("evaluate"));
        assert_eq!(v.get("npsd").unwrap().as_u64(), Some(256));
        let v = parse("  [1, \"two\", null, {\"k\": false}]  ").unwrap();
        assert_eq!(v.as_array().unwrap().len(), 4);
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1e999").is_err(), "non-finite numbers rejected");
        // `\u` takes exactly four hex digits: no sign, no short form.
        for bad in [r#""\u+abc""#, r#""\u-abc""#, r#""\u12g4""#, r#""\u12""#, r#""\u00é""#] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
        assert_eq!(parse(r#""\u00e9\u00C9""#).unwrap(), Json::Str("éÉ".to_string()));
    }

    #[test]
    fn one_mebibyte_string_parses_in_linear_time() {
        // One string filling a wire line up to the 1 MiB cap. A scan that
        // re-validates the rest of the line per char spends tens of
        // seconds here.
        let body = "a".repeat((1 << 20) - 64);
        let line = format!("{{\"k\":\"{body}\"}}");
        let t0 = std::time::Instant::now();
        let v = parse(&line).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(v.get("k").and_then(Json::as_str).map(str::len), Some(body.len()));
        assert!(elapsed < std::time::Duration::from_secs(1), "took {elapsed:?}");
    }

    #[test]
    fn multibyte_runs_next_to_escapes_round_trip() {
        let v = parse(r#""é\"x\\nÿ""#).unwrap();
        assert_eq!(v, Json::Str("é\"x\\nÿ".to_string()));
        for s in ["é\"x\\nÿ", "\"é", "ÿ\\", "日本\n語\t", "\u{1f}€\u{1F600}\"", ""] {
            assert_eq!(parse(&escape_str(s)).unwrap(), Json::Str(s.to_string()), "{s:?}");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let bomb = "[".repeat(200_000);
        let err = parse(&bomb).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = "{\"k\":".repeat(200_000);
        assert!(parse(&objects).unwrap_err().contains("nesting"));
        // Reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse(r#"{"k":"héllo é \t"}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("héllo é \t"));
        assert_eq!(escape_str("a\"b"), r#""a\"b""#);
    }

    #[test]
    fn reserialization_is_a_fixpoint_on_writer_output() {
        // parse ∘ to_json_line is identity on anything a JsonWriter (or
        // the nested raw fields it carries) can emit.
        for line in [
            r#"{"kind":"evaluate","scenario":"a b","npsd":256,"x":1.25e-7,"neg":-42}"#,
            r#"{"arr":[1,"two",null,{"k":false}],"s":"q\"w\\e\nr"}"#,
            r#"{}"#,
            r#"[0,-0.5,18446744073709551615]"#,
        ] {
            let v = parse(line).unwrap();
            let re = v.to_json_line();
            assert_eq!(parse(&re).unwrap(), v, "{line} -> {re}");
        }
        // Integral floats render as integers, fractional via {:e}.
        assert_eq!(Json::Num(256.0).to_json_line(), "256");
        assert_eq!(Json::Num(0.1).to_json_line(), format!("{:e}", 0.1f64));
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn integer_helpers_reject_fractions() {
        let v = parse(r#"{"a":1.5,"b":-3}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), None);
        assert_eq!(v.get("a").unwrap().as_i64(), None);
        assert_eq!(v.get("b").unwrap().as_i64(), Some(-3));
        assert_eq!(v.get("b").unwrap().as_u64(), None);
    }
}
