//! The crate's one JSON reader: sweep specs, the result store, shard
//! documents, fleet worker streams, `st audit` and `st plot` all read
//! through [`Json::parse`].
//!
//! Everything those documents hold fits a small recursive reader, so it
//! beats a vendored dependency. Numbers accept the non-standard
//! `NaN`/`inf` tokens the exact float encoding of [`crate::persist`] may
//! produce, and `_` digit grouping (`100_000`) as spec files write it.
//! One trailing comma may close an array or object (`[64, 128,]`).
//! Nesting deeper than a fixed limit is an error, so hostile input
//! cannot exhaust the stack.

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document this crate writes (an `st run --shard` document) nests 3
/// levels.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Any number, including the non-standard `NaN`/`inf` the exact
    /// float encoding may produce (and `null`, read as NaN).
    Num(f64),
    /// `true` or `false`; never read as a number.
    Bool(bool),
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
        self.members('}', |r| {
            let key = r.string()?;
            r.expect(':')?;
            fields.push((key, r.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.members(']', |r| {
            items.push(r.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    /// Reads comma-separated members up to and including `close`, one
    /// `member` call each. One trailing comma before `close` is allowed;
    /// an empty member (`[1,,2]`, `{,}`) is not.
    fn members(
        &mut self,
        close: char,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        loop {
            // `close` right after the opener (an empty container) or after
            // a comma (a trailing comma) ends the container.
            self.skip_ws();
            if self.peek() == Some(close) {
                self.pos += 1;
                return Ok(());
            }
            member(self)?;
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `{close}` at {}", self.pos)),
            }
        }
    }

    /// Reads one 4-digit hex escape unit at the cursor: exactly four
    /// ASCII hex digits (`from_str_radix` alone would take `+041`).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex: String = self.chars.iter().skip(self.pos).take(4).collect();
        if hex.len() != 4 {
            return Err("truncated \\u escape".to_string());
        }
        self.pos += 4;
        match u32::from_str_radix(&hex, 16) {
            Ok(unit) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => Ok(unit),
            _ => Err(format!("bad \\u escape `{hex}`")),
        }
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
    /// them, read back as NaN) and `true`/`false`. A `_` inside a number
    /// groups digits and is dropped.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || "+-._".contains(c)) {
            self.pos += 1;
        }
        let token: String = self.chars[start..self.pos].iter().collect();
        match token.as_str() {
            "null" => return Ok(Json::Num(f64::NAN)),
            "true" => return Ok(Json::Bool(true)),
            "false" => return Ok(Json::Bool(false)),
            _ => {}
        }
        let parsed = if token.contains('_') {
            token.replace('_', "").parse::<f64>()
        } else {
            token.parse::<f64>()
        };
        parsed.map(Json::Num).map_err(|_| format!("cannot parse number `{token}` at {start}"))
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
    fn reads_null_as_nan_and_booleans_as_bools() {
        let j = Json::parse(r#"{"a":null,"b":true,"c":false}"#).expect("parse");
        assert!(j.get("a").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(j.get("b"), Some(&Json::Bool(true)));
        assert_eq!(j.get("c"), Some(&Json::Bool(false)));
        assert!(j.get("b").unwrap().as_f64().is_err(), "a boolean is not a number");
        assert!(j.get("c").unwrap().as_u64().is_err(), "nor an integer");
    }

    #[test]
    fn numbers_take_underscores_and_containers_one_trailing_comma() {
        let j = Json::parse("[100_000, 1_0.5, -2_5,]").expect("parse");
        assert_eq!(j.as_f64_vec().unwrap(), [100_000.0, 10.5, -25.0]);
        assert_eq!(Json::parse(r#"{"a": 1,}"#).unwrap().get("a"), Some(&Json::Num(1.0)));
        for bad in ["[1,,]", "[,]", "[,1]", "{,}", r#"{"a":1,,"b":2}"#, r#"{"a":1,,}"#] {
            assert!(Json::parse(bad).is_err(), "{bad} has an empty member");
        }
        assert!(Json::parse("tr_ue").is_err(), "`_` groups digits only");
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
