//! Minimal hand-rolled JSON support.
//!
//! The campaign engine emits results as JSON lines, the `swiftsim --json`
//! flag prints single runs in the same schema, and the on-disk result cache
//! reads rows back. No external serialization crate is available offline,
//! so this module provides the small self-contained value model, writer,
//! and parser they all share.
//!
//! The writer produces deterministic output: object keys are emitted in
//! insertion order and integers are printed without a decimal point, so a
//! value round-trips byte-identically through `dump` → `parse` → `dump`.
//!
//! A value served many times can be rendered once and kept as
//! [`Json::Raw`] text, which `dump` copies verbatim: the serve daemon
//! splices each cached result into every reply that carries it this way.
//!
//! The parser nests at most [`MAX_DEPTH`] arrays and objects deep, so a
//! hostile line cannot exhaust a thread's stack.

use std::fmt::Write as _;
use std::sync::Arc;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
///
/// The deepest document any caller reads is six levels: a serve `result`
/// reply (reply → rows → row → result → metrics or confidence → entry).
/// Each level costs the parser one stack frame, so the limit keeps a
/// malicious line within a small thread stack.
pub const MAX_DEPTH: usize = 256;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Integers up to 2^53 are preserved exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
    /// One JSON value already rendered as compact text, which `dump`
    /// copies verbatim. Whoever builds it vouches that the text is one
    /// valid value in `dump`'s own form.
    ///
    /// It is opaque: the parser never produces it, the accessors see
    /// nothing inside it, and it equals only a `Raw` with the same text.
    Raw(Arc<str>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value.
    pub fn int(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
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

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact one-line JSON string.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                // JSON has no NaN/Infinity literals; emitting `{v}` for a
                // non-finite value would produce an unparseable document
                // (and silently corrupt --json output, campaign JSONL rows,
                // and the result cache). Serialize them as `null`.
                if !v.is_finite() {
                    out.push_str("null");
                } else if v.fract() == 0.0 && v.abs() < 9e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, with its byte
    /// offset, also for arrays and objects nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Write `s` as a quoted JSON string. Every byte that needs an escape is
/// ASCII, so the runs between them are copied whole and each cut falls on
/// a character boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
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
        out.push_str(&s[run..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let container = matches!(bytes.get(*pos), Some(b'[' | b'{'));
    if container && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match bytes.get(*pos) {
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(text, pos),
        Some(&b) => Err(format!("unexpected byte {:?} at {}", b as char, *pos)),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

// The number and string scanners stop only at ASCII bytes (or the end), so
// every slice they take of `text` falls on character boundaries.

fn parse_number(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    text[start..*pos]
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

/// The four hex digits of a `\u` escape starting at `at`.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)?
        .iter()
        .try_fold(0, |acc, &b| Some(acc * 16 + (b as char).to_digit(16)?))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let start = *pos;
        while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
            *pos += 1;
        }
        out.push_str(&text[start..*pos]);
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let unit = hex4(bytes, *pos + 1)
                            .ok_or_else(|| format!("invalid \\u escape at byte {pos}"))?;
                        *pos += 4;
                        // A high surrogate followed by an escaped low one is
                        // one character outside the BMP (how encoders that
                        // escape all non-ASCII write it); any other
                        // surrogate is replaced.
                        let mut code = unit;
                        if (0xd800..0xdc00).contains(&unit)
                            && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                        {
                            if let Some(low) =
                                hex4(bytes, *pos + 3).filter(|low| (0xdc00..0xe000).contains(low))
                            {
                                code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            _ => return Err("unterminated string".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_shapes() {
        let v = Json::obj(vec![
            ("name", Json::str("bfs")),
            ("cycles", Json::int(12345)),
            ("ipc", Json::Num(1.5)),
            ("ok", Json::Bool(true)),
            ("tags", Json::Arr(vec![Json::Null, Json::int(2)])),
        ]);
        assert_eq!(
            v.dump(),
            r#"{"name":"bfs","cycles":12345,"ipc":1.5,"ok":true,"tags":[null,2]}"#
        );
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f — π";
        let dumped = Json::str(nasty).dump();
        assert_eq!(Json::parse(&dumped).unwrap(), Json::str(nasty));
    }

    /// The per-character escaper `write_escaped` replaced: the reference
    /// its output must match byte for byte.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from('"');
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

    #[test]
    fn escaping_by_runs_matches_the_per_char_escaper() {
        use swiftsim_rng::SmallRng;
        let mut alphabet: Vec<char> = (0..0x20u8).map(char::from).collect();
        alphabet.extend([
            '"',
            '\\',
            '\u{7f}',
            'a',
            'Z',
            ' ',
            '/',
            'é',
            'π',
            '—',
            '😀',
            '\u{10ffff}',
        ]);
        let mut rng = SmallRng::seed_from_u64(43);
        for _ in 0..2000 {
            let len = rng.gen_range(0..40usize);
            let s: String = (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect();
            let mut out = String::new();
            write_escaped(&mut out, &s);
            assert_eq!(out, escape_per_char(&s), "{s:?}");
            assert_eq!(Json::parse(&out).unwrap(), Json::Str(s));
        }
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_one_character() {
        let parsed = Json::parse(r#""a\ud83d\ude00b""#).unwrap();
        assert_eq!(parsed, Json::str("a😀b"));
        // The way Python's `json.dumps` writes U+10FFFF, in both hex cases.
        assert_eq!(
            Json::parse(r#""\udbff\udfff""#).unwrap(),
            Json::str("\u{10ffff}")
        );
        assert_eq!(
            Json::parse(r#""\uDBFF\uDFFF""#).unwrap(),
            Json::str("\u{10ffff}")
        );
        // Lone or misordered surrogates are each replaced, and whatever
        // follows a lone high surrogate is read on its own.
        for (text, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
        ] {
            assert_eq!(Json::parse(text).unwrap(), Json::str(want), "{text}");
        }
        assert!(
            Json::parse(r#""\ud83d\ude0""#).is_err(),
            "short second escape"
        );
        assert!(
            Json::parse(r#""\u+041""#).is_err(),
            "a sign is not a hex digit"
        );
    }

    #[test]
    fn strings_and_numbers_slice_the_text() {
        let v = Json::parse(r#"{"é—😀": ["π", -1.5e3, 0, "a\"b"]}"#).unwrap();
        let items = v.get("é—😀").and_then(Json::as_arr).unwrap();
        assert_eq!(items[0], Json::str("π"));
        assert_eq!(items[1], Json::Num(-1500.0));
        assert_eq!(items[2], Json::Num(0.0));
        assert_eq!(items[3], Json::str("a\"b"));
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("1e").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let at_limit = Json::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(at_limit.dump(), nested(MAX_DEPTH));
        let objects = "{\"k\":".repeat(MAX_DEPTH - 1) + "{}" + &"}".repeat(MAX_DEPTH - 1);
        assert!(Json::parse(&objects).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(
            Json::parse(&("{\"k\":".repeat(MAX_DEPTH) + "{}" + &"}".repeat(MAX_DEPTH))).is_err()
        );
        // A serve connection thread's stack: a deep line is an error there,
        // not a stack overflow that takes the process down.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| Json::parse(&"[".repeat(100_000)).map(|_| ()))
            .unwrap()
            .join()
            .expect("parsing a deep line does not overflow the stack");
        assert!(deep.unwrap_err().contains("nesting deeper than 256"));
    }

    #[test]
    fn raw_text_is_copied_verbatim() {
        let inner = Json::obj(vec![("s", Json::str("a\"b")), ("n", Json::Num(0.5))]);
        let raw = Json::Raw(inner.dump().into());
        let outer = Json::obj(vec![("x", raw.clone()), ("y", Json::Arr(vec![raw]))]);
        let deep = Json::obj(vec![("x", inner.clone()), ("y", Json::Arr(vec![inner]))]);
        assert_eq!(outer.dump(), deep.dump());
        assert_eq!(Json::parse(&outer.dump()).unwrap(), deep);
    }

    #[test]
    fn parse_round_trips_dump() {
        let v = Json::obj(vec![
            ("s", Json::str("x")),
            ("n", Json::Num(-2.25)),
            ("big", Json::int(1 << 50)),
            ("a", Json::Arr(vec![Json::Bool(false), Json::obj(vec![])])),
        ]);
        let text = v.dump();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.dump(), text);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        // Regression: these used to be written as bare `NaN`/`inf`/`-inf`
        // literals, which no JSON parser (including ours) accepts.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).dump(), "null");
        }
        let doc = Json::obj(vec![
            ("ok", Json::Num(1.5)),
            ("bad", Json::Num(f64::NAN)),
            ("arr", Json::Arr(vec![Json::Num(f64::INFINITY)])),
        ]);
        let text = doc.dump();
        assert_eq!(text, r#"{"ok":1.5,"bad":null,"arr":[null]}"#);
        // The emitted document must round-trip through our own parser.
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("bad"), Some(&Json::Null));
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": 3, "b": "x", "c": [1, 2], "d": 1.5}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("d").and_then(Json::as_u64), None);
        assert_eq!(v.get("d").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn whitespace_and_errors() {
        assert!(Json::parse(" { \"k\" : [ true , null ] } ").is_ok());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("nul").is_err());
    }
}
