//! A minimal recursive JSON reader shared by the result store, shard
//! documents, fleet worker streams, the perf-artifact writer, `st audit`
//! and `st plot`.
//!
//! The spec parser is flat-only; store entries and JSONL records need
//! strings with escapes, nested arrays/objects and nothing else the full
//! grammar offers, so ~150 lines beat a vendored dependency. Numbers
//! accept the non-standard `NaN`/`inf` tokens the exact float encoding
//! of [`crate::persist`] may produce. Nesting deeper than a fixed limit
//! is an error, so hostile input cannot exhaust the stack.

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document this crate writes (`BENCH_sweep.json`) nests 4 levels.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Any number, including the non-standard `NaN`/`inf` the exact
    /// float encoding may produce.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Reader { chars: text.chars().collect(), pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing input at {}", p.pos));
        }
        Ok(v)
    }

    /// The object's fields, or an error for non-objects.
    pub fn as_obj(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(format!("expected object, got {other:?}")),
        }
    }

    /// The string value, or an error for non-strings.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// The numeric value, or an error for non-numbers.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// The value as an unsigned integer, or an error.
    pub fn as_u64(&self) -> Result<u64, String> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Ok(n as u64)
        } else {
            Err(format!("expected unsigned integer, got {n}"))
        }
    }

    /// The array as a vector of floats, or an error.
    pub fn as_f64_vec(&self) -> Result<Vec<f64>, String> {
        match self {
            Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// The array as a vector of unsigned integers, or an error.
    pub fn as_u64_vec(&self) -> Result<Vec<u64>, String> {
        match self {
            Json::Arr(items) => items.iter().map(Json::as_u64).collect(),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// Looks up a field of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Reader {
    chars: Vec<char>,
    pos: usize,
    /// Arrays/objects currently open around the cursor.
    depth: usize,
}

impl Reader {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{c}` at {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(c @ ('{' | '[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at {}", self.pos));
                }
                self.depth += 1;
                let v = if c == '{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some('"') => Ok(Json::Str(self.string()?)),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some('}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some(']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at {}", self.pos)),
            }
        }
    }

    /// Reads one 4-digit hex escape unit at the cursor.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex: String = self.chars.iter().skip(self.pos).take(4).collect();
        if hex.len() != 4 {
            return Err("truncated \\u escape".to_string());
        }
        self.pos += 4;
        u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some('"') {
            return Err(format!("expected string at {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else { return Err("unterminated string".to_string()) };
            self.pos += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("dangling escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let code = self.hex4()?;
                            // Non-BMP characters arrive as a surrogate
                            // pair of \u escapes; fold them back.
                            let code = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() != Some('\\') {
                                    return Err(format!("unpaired high surrogate \\u{code:04x}"));
                                }
                                self.pos += 1;
                                if self.peek() != Some('u') {
                                    return Err(format!("unpaired high surrogate \\u{code:04x}"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!("invalid low surrogate \\u{low:04x}"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{other}`")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    /// Numbers, plus the bare `NaN`/`inf`/`-inf`/`null` tokens (the exact
    /// float encoding emits non-finite values; JSONL emits `null` for
    /// them). `null` and `true`/`false` parse as numbers for simplicity:
    /// NaN, 1 and 0 respectively.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || "+-.".contains(c)) {
            self.pos += 1;
        }
        let token: String = self.chars[start..self.pos].iter().collect();
        match token.as_str() {
            "null" => return Ok(Json::Num(f64::NAN)),
            "true" => return Ok(Json::Num(1.0)),
            "false" => return Ok(Json::Num(0.0)),
            _ => {}
        }
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("cannot parse number `{token}` at {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let j = Json::parse(r#"{"a":[1,2.5,{"b":"x"}],"c":"y"}"#).expect("parse");
        assert_eq!(j.get("c").unwrap().as_str().unwrap(), "y");
        let arr = j.get("a").unwrap();
        match arr {
            Json::Arr(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[1].as_f64().unwrap(), 2.5);
                assert_eq!(items[2].get("b").unwrap().as_str().unwrap(), "x");
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn accepts_null_and_booleans_as_numbers() {
        let j = Json::parse(r#"{"a":null,"b":true,"c":false}"#).expect("parse");
        assert!(j.get("a").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(j.get("b").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(j.get("c").unwrap().as_f64().unwrap(), 0.0);
    }

    #[test]
    fn decodes_surrogate_pair_escapes() {
        let j = Json::parse(r#"{"s":"\ud83d\ude00","t":"\u0041"}"#).expect("parse");
        assert_eq!(j.get("s").unwrap().as_str().unwrap(), "\u{1f600}");
        assert_eq!(j.get("t").unwrap().as_str().unwrap(), "A");
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(Json::parse(r#""\ud83dA""#).is_err(), "invalid low surrogate");
    }

    #[test]
    fn rejects_nesting_past_the_depth_limit() {
        // 200,000 `[` used to recurse until the stack overflowed.
        let err = Json::parse(&"[".repeat(200_000)).expect_err("too deep");
        assert!(err.contains("nesting deeper than"), "{err}");
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok(), "the limit itself still parses");
        let past = format!("{{\"a\":{at_limit}}}");
        assert!(Json::parse(&past).is_err(), "objects count towards the depth too");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
    }
}
