//! Minimal JSON support for the exporters and their validators.
//!
//! The telemetry formats (JSONL events, Chrome Trace) are flat and
//! machine-written, so a dependency-free writer plus a small strict
//! recursive-descent parser is all the subsystem needs. The parser exists
//! so tests and the CI artifact check can prove exported files are
//! well-formed without a serde dependency (unavailable offline).

use raccd_sim::Field;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string into a JSON string literal (including the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
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
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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
            Some(b'"') => Ok(Value::Str(self.string()?)),
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
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs are not needed by our writers.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
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

    #[test]
    fn num_renders_integers_exactly() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(f64::NAN), "0");
    }
}
