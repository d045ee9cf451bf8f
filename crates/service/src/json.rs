//! A minimal line-oriented JSON value: parser and writer.
//!
//! The wire format of `audexd` is one JSON object per line. DESIGN.md §5
//! keeps the workspace free of serde, and the build runs with no registry
//! access, so this module hand-rolls the small subset the protocol needs:
//! objects, arrays, strings (with escapes), integers, floats, booleans and
//! null. Objects preserve insertion order so encoded output is
//! deterministic — tests compare response lines byte-for-byte.

use std::fmt;

/// Maximum container nesting the parser accepts. The parser is recursive
/// descent, so unbounded nesting on a network-facing input would overflow
/// the thread stack; 64 levels is far beyond anything the protocol emits.
pub const MAX_NESTING_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that parsed as an integer (no `.`, `e`, or overflow).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys keep the last value
    /// on lookup, like every mainstream parser).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload (floats with zero fraction qualify).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// The numeric payload as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON value and requires only whitespace after it.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Appends this value as one protocol line — its encoding, then `\n` —
    /// to `out`: byte for byte `format!("{self}\n")`, rendered in place.
    pub fn push_line(&self, out: &mut String) {
        use fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = writeln!(out, "{self}");
    }
}

/// Convenience: builds an object from (key, value) pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        i64::try_from(i).map(Json::Int).unwrap_or(Json::Float(i as f64))
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::from(i as u64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING_DEPTH}")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            self.depth -= 1;
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
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&hex) {
                                let lo = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 7)
                                    .filter(|t| t.starts_with(b"\\u"))
                                    .and_then(|t| std::str::from_utf8(&t[2..]).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .filter(|lo| (0xdc00..0xe000).contains(lo))
                                    .ok_or_else(|| self.err("lone high surrogate"))?;
                                self.pos += 6;
                                0x10000 + ((hex - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hex
                            };
                            out.push(char::from_u32(c).ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(s);
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if !self.eat(b'-') {
                let _ = self.eat(b'+');
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| self.err("bad number"))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(x) if x.is_finite() => write!(f, "{x}"),
            // JSON has no Infinity/NaN; null is the least-surprising spelling.
            Json::Float(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    fmt::Display::fmt(v, f)?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    fmt::Display::fmt(v, f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` quoted and escaped, by runs: every byte that needs an escape
/// is ASCII, so the clean stretch before it is a valid `str` slice and goes
/// out in one `write_str` (the common string has none: quote, body, quote).
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        f.write_str(&s[start..i])?;
        match escape {
            Some(escape) => f.write_str(escape)?,
            None => write!(f, "\\u{b:04x}")?,
        }
        start = i + 1;
    }
    f.write_str(&s[start..])?;
    f.write_str("\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for text in [
            r#"{"cmd":"log","ts":1199145600,"user":"u-4","ok":true,"x":null}"#,
            r#"[1,-2,3.5,"a\nb",[],{}]"#,
            r#""quote \" backslash \\ unicode é""#,
            "-9007199254740993",
        ] {
            let v = Json::parse(text).unwrap();
            let v2 = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, v2, "{text}");
        }
    }

    #[test]
    fn lookup_and_coercions() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":[true],"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_int), Some(2), "last duplicate wins");
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::parse("3.0").unwrap().as_int(), Some(3));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""🤔""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f914}"));
        assert!(Json::parse(r#""\ud83e""#).is_err(), "lone surrogate is rejected");
    }

    #[test]
    fn garbage_is_rejected_with_position() {
        for bad in ["{", r#"{"a"}"#, "[1,]", "tru", "\"unterminated", "1 2"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("byte"), "{bad} -> {err}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // At the limit: fine. One past: clean error, not a stack overflow.
        let ok = format!("{}{}", "[".repeat(MAX_NESTING_DEPTH), "]".repeat(MAX_NESTING_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        for deep in [MAX_NESTING_DEPTH + 1, 100_000] {
            let bad = format!("{}{}", "[".repeat(deep), "]".repeat(deep));
            let err = Json::parse(&bad).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
        // Mixed object/array nesting counts the same.
        let mixed = format!(r#"{}"x"{}"#, r#"{"k":["#.repeat(40), "]}".repeat(40));
        let err = Json::parse(&mixed).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    /// The renderer this module shipped before escaping by runs: one
    /// formatted write per `char`. Kept as the byte-identity oracle.
    fn escaped_per_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
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

    #[test]
    fn escaping_by_runs_is_byte_identical_to_per_char() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let mut cases: Vec<String> = [
            "",
            "plain",
            "\"",
            "\\",
            "say \"hi\" \\ bye",
            "\n\r\t",
            "tab\tmid, newline at end\n",
            "\"leading and trailing\"",
            "é",
            "naïve — 患者 🤔",
            "🤔\"患\\者\n",
            "\u{7f}\u{80}\u{9f}",
            "SELECT name FROM Patients WHERE zipcode = '120016'",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cases.push(controls.clone());
        cases.extend(controls.chars().map(|c| format!("a{c}é{c}")));
        for s in &cases {
            let rendered = Json::Str(s.clone()).to_string();
            assert_eq!(rendered, escaped_per_char(s), "{s:?}");
            assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(s.as_str()), "{s:?}");
            // Keys go through the same escaper.
            let keyed = Json::Obj(vec![(s.clone(), Json::Null)]).to_string();
            assert_eq!(keyed, format!("{{{}:null}}", escaped_per_char(s)), "{s:?}");
        }
    }

    #[test]
    fn push_line_is_display_plus_newline() {
        let v = Json::parse(r#"{"a":[1,2.5,"x\ny",null,true],"b":{"c":"é\"q"},"d":-7}"#).unwrap();
        let mut out = String::from("prefix|");
        v.push_line(&mut out);
        assert_eq!(out, format!("prefix|{v}\n"));
        assert_eq!(v.to_string(), r#"{"a":[1,2.5,"x\ny",null,true],"b":{"c":"é\"q"},"d":-7}"#);
    }

    #[test]
    fn control_chars_escape() {
        let s = Json::Str("a\u{1}\n".into()).to_string();
        assert_eq!(s, "\"a\\u0001\\n\"");
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("a\u{1}\n"));
    }
}
