//! A minimal hand-rolled JSON reader/writer — the offline workspace vendors
//! no serde, so certificates and campaign checkpoints share this instead
//! (the same spirit as the `BENCH_solver.json` field scanner, but a real
//! recursive-descent parser: certificates nest boxes inside traces inside
//! regions, which a flat scanner cannot address).
//!
//! Two deliberate deviations from strict JSON, both needed to round-trip
//! `f64` exactly:
//!
//! * numbers are written with Rust's shortest-round-trip `Display`, and the
//!   bare tokens `inf` / `-inf` / `nan` are accepted (and written) for the
//!   non-finite values JSON cannot express;
//! * everything else — objects, arrays, strings with escapes, booleans,
//!   null — is standard, so ordinary JSON tooling reads the files whenever
//!   no non-finite number appears.
//!
//! Parsing is linear in the document size: a string body is copied one
//! run of bytes at a time (up to the next `"` or `\`), validating only
//! that run. `\u` escapes take exactly four hex digits; a UTF-16
//! surrogate pair (`\ud83d\ude00`) decodes to its one scalar, and a lone
//! surrogate is an error. Arrays and objects may nest at most 64 levels
//! deep (`MAX_DEPTH`) — past that the reader returns an `Err`
//! rather than recursing on, so a hostile line of `[[[[…` cannot overflow
//! the stack of whoever parses it (the daemon reads requests with this
//! reader). Certificates nest about five levels deep.

/// Deepest array/object nesting [`Json::parse`] accepts.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object keys keep insertion order (a `Vec`, not a
/// map): files stay diffable and key lookup is linear over a handful of
/// keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object member lookup that reports which key was missing.
    pub fn want(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key {key:?}"))
    }

    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(v) => Ok(*v),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }

    pub fn as_usize(&self) -> Result<usize, String> {
        let v = self.as_f64()?;
        if v.fract() != 0.0 || !(0.0..=9.007_199_254_740_992e15).contains(&v) {
            return Err(format!("expected a non-negative integer, found {v}"));
        }
        Ok(v as usize)
    }

    pub fn as_u64(&self) -> Result<u64, String> {
        Ok(self.as_usize()? as u64)
    }

    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, found {other:?}")),
        }
    }

    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a bool, found {other:?}")),
        }
    }

    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected an array, found {other:?}")),
        }
    }
}

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
        Err(format!(
            "expected {:?} at byte {}, found {:?}",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

/// Parse one value nested inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                expect(bytes, pos, b'"')?;
                let key = parse_string_body(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let v = parse_value(bytes, pos, depth + 1)?;
                members.push((key, v));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    other => return Err(format!("expected ',' or '}}', found {other:?}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
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
                    other => return Err(format!("expected ',' or ']', found {other:?}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            Ok(Json::Str(parse_string_body(bytes, pos)?))
        }
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'i') => parse_keyword(bytes, pos, "inf", Json::Num(f64::INFINITY)),
        Some(b'N') => parse_keyword(bytes, pos, "NaN", Json::Num(f64::NAN)),
        Some(b'n') => {
            if bytes[*pos..].starts_with(b"nan") {
                parse_keyword(bytes, pos, "nan", Json::Num(f64::NAN))
            } else {
                parse_keyword(bytes, pos, "null", Json::Null)
            }
        }
        Some(b'-') if bytes.get(*pos + 1) == Some(&b'i') => {
            parse_keyword(bytes, pos, "-inf", Json::Num(f64::NEG_INFINITY))
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let tok = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            tok.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number {tok:?} at byte {start}: {e}"))
        }
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected {word:?} at byte {}", *pos))
    }
}

/// Parse the body of a string whose opening quote is already consumed.
fn parse_string_body(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one step. Both
        // are ASCII, so the run ends on a character boundary of the `&str`
        // the bytes came from and validating it alone is enough.
        let start = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // A backslash: one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        out.push(parse_unicode_escape(bytes, pos)?);
                        continue;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
        }
    }
}

/// Decode the `\u` escape whose `u` is at `*pos`, leaving `*pos` just past
/// it. A high surrogate must be followed by a `\u` low surrogate; the pair
/// decodes to one scalar.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let hi = hex4(bytes, *pos + 1)?;
    *pos += 5;
    let code = match hi {
        0xD800..=0xDBFF => {
            if bytes.get(*pos..*pos + 2) != Some(b"\\u") {
                return Err(format!("unpaired surrogate \\u{hi:04x}"));
            }
            let lo = hex4(bytes, *pos + 2)?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(format!("unpaired surrogate \\u{hi:04x}"));
            }
            *pos += 6;
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(format!("unpaired surrogate \\u{hi:04x}")),
        _ => hi,
    };
    Ok(char::from_u32(code).expect("surrogates are handled above"))
}

/// The four hex digits at `bytes[at..at + 4]`, exactly (no sign, no
/// shorter run).
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let digits = bytes
        .get(at..at + 4)
        .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
        .ok_or("\\u escape needs four hex digits")?;
    Ok(digits.iter().fold(0, |acc, &d| {
        acc * 16 + (d as char).to_digit(16).expect("hex digit")
    }))
}

/// Render an `f64` so that parsing it back is bit-exact: Rust's shortest
/// round-trip `Display` for finite values, the bare tokens this module's
/// parser accepts for the rest.
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else if v == f64::INFINITY {
        "inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Escape a string for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e-2], "b": {"c": "x\"y", "d": true}, "e": null}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "x\"y"
        );
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Ok(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn non_finite_numbers_round_trip() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, 1.5e308, -0.0, 1e-320] {
            let text = format!("[{}]", fmt_f64(v));
            let back = Json::parse(&text).unwrap();
            let got = back.as_arr().unwrap()[0].as_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits(), "{v}");
        }
        let nan = Json::parse("[nan]").unwrap().as_arr().unwrap()[0]
            .as_f64()
            .unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn shortest_display_round_trips_exactly() {
        for v in [0.1, 1.0 / 3.0, 2.0_f64.sqrt(), 6.62607015e-34, 12345.6789] {
            let got: f64 = fmt_f64(v).parse().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "[] []", "tru"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs() {
        let str_of = |doc: &str| Json::parse(doc).map(|v| v.as_str().unwrap().to_string());
        assert_eq!(str_of(r#""\ud83d\ude00""#).as_deref(), Ok("\u{1f600}"));
        assert_eq!(
            str_of(r#""a\u00e9\u4E2Db""#).as_deref(),
            Ok("a\u{e9}\u{4e2d}b")
        );
        assert_eq!(str_of(r#""\udbff\udfff""#).as_deref(), Ok("\u{10ffff}"));
        // Lone or mismatched surrogates are not scalars.
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u041""#,
            r#""\u04g1""#,
            r#""\u 041""#,
            r#""\u00"#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
        let v = Json::parse(r#""\u0041\u00411""#).unwrap();
        assert_eq!(v.as_str(), Ok("AA1"));
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&nested("{\"k\": ", "}", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("{\"k\": ", "}", MAX_DEPTH + 1)).is_err());
        // A million unclosed brackets (the daemon's 1 MiB line cap) is an
        // error, not a stack overflow.
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn escape_round_trips() {
        let s = "line\nwith \"quotes\" \\ and\ttabs";
        let doc = format!("{{\"k\": \"{}\"}}", escape(s));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str().unwrap(), s);
    }
}
