//! Minimal JSON support for the exporters and their validators.
//!
//! The telemetry formats (JSONL events, Chrome Trace) are flat and
//! machine-written, so a dependency-free writer plus a small strict
//! recursive-descent parser is all the subsystem needs. The parser exists
//! so tests and the CI artifact check can prove exported files are
//! well-formed without a serde dependency (unavailable offline).
//!
//! Two ways in, one grammar (both run the same `Parser` routines):
//! [`parse`] is for **documents**: it builds an owned [`Value`] tree of
//! any depth, which is what a validator walking a `trace.json` wants.
//! [`members`] is for **flat records** read by the million (a campaign
//! ledger line): it lists one object's `(key, scalar)` pairs in input
//! order with strings borrowed from the input, and builds no tree.

use raccd_sim::Field;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string into a JSON string literal (including the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// [`escape`], appended to `out`.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Render an `f64` as a JSON number (JSON has no NaN/Inf: mapped to 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        "0".to_string()
    }
}

/// Render one [`Field`] of a telemetry record as a JSON value.
pub fn field(value: Field) -> String {
    match value {
        Field::U64(n) => n.to_string(),
        Field::F64(x) => num(x),
        Field::Bool(b) => b.to_string(),
        Field::Str(s) => escape(s),
        Field::Null => "null".to_string(),
    }
}

/// An ordered JSON object builder for one-line records.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    /// Empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Add a raw (pre-rendered) JSON value.
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Add a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        let v = escape(value);
        self.raw(key, v)
    }

    /// Add an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    /// Add a float field.
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.raw(key, num(value))
    }

    /// Add a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Append one field of a telemetry record's name/value walk.
    pub fn push(&mut self, key: &str, value: Field) {
        self.fields.push((key.to_string(), field(value)));
    }

    /// Render as `{"k":v,...}`.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(k));
            out.push(':');
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written as a plain non-negative integer that fits a
    /// `u64` (ledger sequence numbers, seeds, cycle counts): kept exact.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (keys sorted; duplicate keys rejected at parse time).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Array elements (empty for non-arrays).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(v) => v,
            _ => &[],
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Exact integer value, if the number was written as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// One member value of a flat record, as [`members`] reports it.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar<'a> {
    /// A string: borrowed from the input unless it holds an escape.
    Str(Cow<'a, str>),
    /// `null`, a boolean or a number, as the [`Value`] variant [`parse`]
    /// would give it (never `Str`, `Arr` or `Obj`).
    Plain(Value),
    /// An array or an object: well-formed, consumed, not a scalar.
    Nested,
}

/// List the members of one flat object into `out` (cleared first), in
/// input order. `inner` is the text *between* the object's braces, which
/// is what a checksummed ledger line has in hand; the language is exactly
/// that of `parse("{inner}")`, duplicate keys rejected included.
pub fn members<'a>(
    inner: &'a str,
    out: &mut Vec<(Cow<'a, str>, Scalar<'a>)>,
) -> Result<(), String> {
    out.clear();
    Parser::new(inner).list(None, |p| {
        let key = p.key()?;
        if out.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        let val = match p.peek() {
            Some(b'"') => Scalar::Str(p.string()?),
            Some(b'{' | b'[') => p.value().map(|_| Scalar::Nested)?,
            _ => Scalar::Plain(p.value()?),
        };
        out.push((key, val));
        Ok(())
    })
}

/// The input is a `&str`, valid UTF-8 already: strings and numbers are
/// sliced from it, never validated again.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let bytes = text.as_bytes();
        Parser {
            text,
            bytes,
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.list(Some(b'}'), |p| {
            let key = p.key()?;
            match map.insert(key.to_string(), p.value()?) {
                None => Ok(()),
                Some(_) => Err(format!("duplicate key {key:?}")),
            }
        })?;
        Ok(Value::Obj(map))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.list(Some(b']'), |p| p.value().map(|v| items.push(v)))?;
        Ok(Value::Arr(items))
    }

    /// Comma-separated items whose opening bracket is behind us, up to
    /// and over `close` (`None`: up to the end of the input); `item`
    /// consumes one.
    fn list(
        &mut self,
        close: Option<u8>,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.peek() != close {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    c if c == close => break,
                    c => {
                        let c = c.map(|c| c as char);
                        return Err(format!(
                            "expected ',' or the end of the list at byte {}, found {c:?}",
                            self.pos
                        ));
                    }
                }
            }
        }
        self.pos += close.is_some() as usize;
        Ok(())
    }

    /// `"key" :` of an object member, up to its value.
    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// A string literal: a slice of the input when it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let run = self.run()?;
        if self.bytes[self.pos - 1] == b'"' {
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::from(run);
        loop {
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    // Exactly four hex digits, no sign.
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let mut code = 0;
                    for &h in hex {
                        let Some(digit) = char::from(h).to_digit(16) else {
                            return Err(format!("bad \\u escape at byte {}", self.pos));
                        };
                        code = code * 16 + digit;
                    }
                    self.pos += 4;
                    // Surrogate pairs are not needed by our writers.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                other => return Err(format!("bad escape {other:?}")),
            };
            out.push(c);
            self.pos += 1;
            out.push_str(self.run()?);
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(Cow::Owned(out));
            }
        }
    }

    /// The run of a string up to the next quote or escape, and over it.
    /// That byte is ASCII: both ends of the slice are character boundaries.
    fn run(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        let n = self.bytes[start..]
            .iter()
            .position(|b| matches!(b, b'"' | b'\\'))
            .ok_or("unterminated string")?;
        self.pos += n + 1;
        Ok(&self.text[start..start + n])
    }

    /// RFC 8259's `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        self.pos += (self.peek() == Some(b'-')) as usize;
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(bad()),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += matches!(self.peek(), Some(b'+' | b'-')) as usize;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = &self.text[start..self.pos];
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    /// Consume a run of decimal digits; how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let line = Obj::new()
            .str("kind", "task")
            .u64("t", 42)
            .f64("occ", 0.5)
            .bool("nc", true)
            .render();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("task"));
        assert_eq!(v.get("t").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("occ").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("nc"), Some(&Value::Bool(true)));
    }

    #[test]
    fn escapes_survive() {
        let line = Obj::new().str("s", "a\"b\\c\nd\te\u{1}").render();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("{\"a\":1,\"a\":2}").is_err(), "duplicate keys");
        assert!(parse("nul").is_err());
        // RFC 8259 numbers: no leading zero, a digit after `.` and after
        // the exponent (sign); a `\u` escape is exactly four hex digits.
        for text in [
            "{\"a\":01}",
            "00",
            "-01",
            "1.",
            "1.e5",
            "1e",
            "1e+",
            "-",
            "-a",
            ".5",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u04g1\"",
            "\"\\u04\"",
        ] {
            assert!(parse(text).is_err(), "{text}");
        }
        for text in ["0", "-0", "0.5", "-0.0e-0", "10", "1E+2", "\"\\u00E9\""] {
            assert!(parse(text).is_ok(), "{text}");
        }
    }

    #[test]
    fn parses_nested() {
        let v =
            parse(r#"{"traceEvents":[{"ph":"B","ts":1.5},{"ph":"E","ts":2}],"n":-3e2}"#).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().items().len(), 2);
        assert_eq!(
            v.get("traceEvents").unwrap().items()[0]
                .get("ph")
                .unwrap()
                .as_str(),
            Some("B")
        );
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-300.0));
    }

    #[test]
    fn integer_tokens_are_exact_over_the_whole_u64_range() {
        for n in [0, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let v = parse(&Obj::new().u64("n", n).render()).unwrap();
            assert_eq!(v.get("n").unwrap().as_u64(), Some(n));
            assert_eq!(v.get("n").unwrap().as_f64(), Some(n as f64));
        }
        // Fractions, exponents, negatives and overflow stay floats.
        for text in ["1.0", "1e3", "-1", "18446744073709551616"] {
            let v = parse(text).unwrap();
            assert_eq!(v.as_u64(), None, "{text}");
            assert!(v.as_f64().is_some(), "{text}");
        }
    }

    /// `Parser::string` used to re-validate the whole rest of the input per
    /// character: 1.25 MB took 9.4 s, and 4 MB would take minutes. Linear,
    /// this is tens of milliseconds.
    #[test]
    fn a_large_string_heavy_document_parses_in_linear_time() {
        let event = r#"{"name":"task_start","cat":"core é","ph":"B","args":{"why":"a\"b"}},"#;
        let mut doc = String::from("[");
        while doc.len() < 4 << 20 {
            doc.push_str(event);
        }
        doc.push_str("null]");
        let t = std::time::Instant::now();
        let v = parse(&doc).expect("parses");
        assert!(t.elapsed().as_secs() < 5, "took {:?}", t.elapsed());
        assert_eq!(v.items().len(), doc.len() / event.len() + 1);
        assert_eq!(
            v.items()[0]
                .get("args")
                .unwrap()
                .get("why")
                .unwrap()
                .as_str(),
            Some("a\"b")
        );
    }

    /// `members` is `parse` without the tree: same verdict on every
    /// input, same values member by member, strings borrowed when plain.
    #[test]
    fn members_agree_with_parse() {
        let mut out = Vec::new();
        for inner in [
            "",
            "  ",
            r#""a":1"#,
            r#" "a" : 1 , "b" : "x" "#,
            r#""s":"pl\u0061in","t":"é","n":null,"b":true,"f":-1.5e3,"u":18446744073709551615"#,
            r#""a":[1,{"b":2}],"c":{"d":[]},"e":"f""#,
            r#""a":1,"#,
            r#","a":1"#,
            r#""a":1,"a":2"#,
            r#""a":1}"#,
            r#""a":1 "b":2"#,
            r#""a":[1,"#,
            r#""a":"unterminated"#,
            r#""a":"bad \x escape""#,
            r#"a:1"#,
            r#""a":nul"#,
        ] {
            let tree = parse(&format!("{{{inner}}}"));
            let flat = members(inner, &mut out);
            assert_eq!(tree.is_ok(), flat.is_ok(), "{inner:?}: {tree:?} / {flat:?}");
            let Ok(Value::Obj(map)) = tree else { continue };
            assert_eq!(map.len(), out.len(), "{inner:?}");
            for (key, val) in &out {
                match (val, &map[&**key]) {
                    (Scalar::Str(s), Value::Str(t)) => assert_eq!(s, t),
                    (Scalar::Nested, Value::Arr(_) | Value::Obj(_)) => {}
                    (Scalar::Plain(v), t) => assert_eq!(v, t),
                    (v, t) => panic!("{inner:?}: {v:?} against {t:?}"),
                }
            }
        }
        members(r#""plain":"as is","esc":"a\nb""#, &mut out).unwrap();
        assert!(matches!(
            &out[0],
            (Cow::Borrowed("plain"), Scalar::Str(Cow::Borrowed("as is")))
        ));
        assert!(matches!(&out[1].1, Scalar::Str(Cow::Owned(s)) if s == "a\nb"));
    }

    #[test]
    fn num_renders_integers_exactly() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(f64::NAN), "0");
    }
}
