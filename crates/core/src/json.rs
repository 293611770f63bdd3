//! The one JSON module: every document the program emits (run report,
//! server bodies, `sts run|resume|shard` stdout) is a [`Json`] rendered by
//! its `Display`, and every document it reads goes through [`Json::parse`].
//!
//! The reader takes RFC 8259 only: numbers like `064`, `1.` or `1e400`,
//! raw control characters, duplicate keys, trailing garbage and absurd
//! nesting are errors, never panics. Numbers keep their raw token (`u64`
//! seeds skip `f64`); objects keep document order. The writer has one
//! layout: an object outside an array is one `"key": value` per line,
//! indented two spaces per depth, `}` at its parent's indent; an array is
//! one item per line, `]` at its parent's indent; an array's item is one
//! line, as `{"k": v, "k": v}`; a document ends with a newline.

use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted. Job specs are two levels deep; 32
/// leaves headroom while keeping the recursive parser stack-safe on
/// hostile input.
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (see [`Json::as_u64`]).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: its pairs in document order, keys unique.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// An object of `pairs`, in order.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number: an integer, or a float its caller has formatted.
    pub fn num(n: impl fmt::Display) -> Json {
        Json::Num(n.to_string())
    }

    /// `key`'s value in an object (`None` if absent or not an object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(pairs) = self else { return None };
        pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// This value as a `u64`, if it is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Num(raw) = self else { return None };
        raw.parse().ok()
    }

    /// This value as an `f64`, if it is a number token.
    pub fn as_f64(&self) -> Option<f64> {
        let Json::Num(raw) = self else { return None };
        raw.parse().ok()
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// This value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        let Json::Bool(b) = self else { return None };
        Some(*b)
    }

    /// Write this value from `depth`; `inline` keeps all of it on one line.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize, inline: bool) -> fmt::Result {
        let (brackets, items): (&str, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(raw) => return f.write_str(raw),
            Json::Str(s) => return write!(f, "\"{}\"", escape(s)),
            Json::Arr(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
            Json::Obj(pairs) => ("{}", pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect()),
        };
        f.write_str(&brackets[..1])?;
        for (i, (key, value)) in items.into_iter().enumerate() {
            if inline {
                f.write_str(if i == 0 { "" } else { ", " })?;
            } else {
                write!(f, "{}\n{:2$}", if i == 0 { "" } else { "," }, "", 2 * depth + 2)?;
            }
            if let Some(key) = key {
                write!(f, "\"{}\": ", escape(key))?;
            }
            value.write(f, depth + 1, inline || key.is_none())?;
        }
        if !inline {
            write!(f, "\n{:1$}", "", 2 * depth)?;
        }
        f.write_str(&brackets[1..])
    }
}

/// The document: the layout in the module docs, then a newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0, false)?;
        f.write_char('\n')
    }
}

/// Escape `s` for the inside of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

/// Skip whitespace, then consume `b` if it comes next.
fn eat(bytes: &[u8], pos: &mut usize, b: u8) -> bool {
    skip_ws(bytes, pos);
    let hit = bytes.get(*pos) == Some(&b);
    *pos += usize::from(hit);
    hit
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_seq(bytes, pos, depth, b'}').map(Json::Obj),
        Some(b'[') => parse_seq(bytes, pos, depth, b']')
            .map(|items| Json::Arr(items.into_iter().map(|(_, v)| v).collect())),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_num(bytes, pos),
        Some(&b) => Err(format!("unexpected byte `{}` at {pos:?}", b as char)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

/// RFC 8259's `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, finite.
fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let n = bytes[*pos..].iter().take_while(|b| b.is_ascii_digit()).count();
        *pos += n;
        n
    };
    *pos += usize::from(bytes[*pos] == b'-');
    let lead = bytes.get(*pos).copied();
    let int = digits(pos);
    let mut ok = int == 1 || (int > 1 && lead != Some(b'0'));
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok &= digits(pos) > 0;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1 + usize::from(matches!(bytes.get(*pos + 1), Some(b'+' | b'-')));
        ok &= digits(pos) > 0;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).expect("number tokens are ascii");
    // Validated once, here, so `as_u64`/`as_f64` can be plain `parse` calls.
    if !ok || !raw.parse::<f64>().is_ok_and(f64::is_finite) {
        return Err(format!("bad number `{raw}` at byte {start}"));
    }
    Ok(Json::Num(raw.to_string()))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid utf-8 in string".into());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(&e @ (b'"' | b'\\' | b'/')) => out.push(e),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        let c = char::from_u32(code).ok_or("bad \\u code point")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(format!("raw control character at byte {pos}")),
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

/// The items of an array or, when `close` is `}`, the pairs of an object
/// (an array's keys are empty), from the opening bracket at `pos`.
fn parse_seq(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    close: u8,
) -> Result<Vec<(String, Json)>, String> {
    *pos += 1;
    let mut items: Vec<(String, Json)> = Vec::new();
    if eat(bytes, pos, close) {
        return Ok(items);
    }
    loop {
        let mut key = String::new();
        if close == b'}' {
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b'"') {
                return Err(format!("expected string key at byte {pos}"));
            }
            key = parse_str(bytes, pos)?;
            if items.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            if !eat(bytes, pos, b':') {
                return Err(format!("expected `:` at byte {pos}"));
            }
        }
        items.push((key, parse_value(bytes, pos, depth + 1)?));
        if eat(bytes, pos, close) {
            return Ok(items);
        }
        if !eat(bytes, pos, b',') {
            return Err(format!("expected `,` or `{}` at byte {pos}", close as char));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn round_trips_a_job_spec_shape() {
        let j = Json::parse(
            r#"{"workload":{"kind":"synth","seed":18446744073709551615,"b_max":8},
                "p":64,"scheme":"gp-dk","ledger":true,"x":[1,2.5,-3]}"#,
        )
        .unwrap();
        assert_eq!(
            j.get("workload").unwrap().get("seed").unwrap().as_u64(),
            Some(u64::MAX),
            "u64 seeds survive without an f64 detour"
        );
        assert_eq!(j.get("p").unwrap().as_u64(), Some(64));
        assert_eq!(j.get("scheme").unwrap().as_str(), Some("gp-dk"));
        assert_eq!(j.get("ledger").unwrap().as_bool(), Some(true));
        assert_eq!(
            j.get("x").unwrap(),
            &Json::Arr(vec![
                Json::Num("1".into()),
                Json::Num("2.5".into()),
                Json::Num("-3".into())
            ])
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "{} x",
            "\"unterminated",
            "{'a':1}",
            "nul",
            "+1",
            "--2",
            // A duplicate key: the last one used to win silently.
            r#"{"workload":{"kind":"synth"},"p":64,"p":4}"#,
            // Numbers outside RFC 8259 that Rust's float parser accepts.
            "064",
            r#"{"p":064}"#,
            "1.",
            "-.5",
            "1.e3",
            "1e400",
            "-1e400",
            "1e",
            "1e+",
            // Raw control characters inside a string, and a signed \u.
            "\"a\nb\"",
            "\"tab\there\"",
            "\"\u{1}\"",
            r#""\u+041""#,
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        for good in ["0", "-0", "0.5", "-0.5e-3", "1E+2", "10", r#""é\/""#] {
            assert!(Json::parse(good).is_ok(), "`{good}` is RFC 8259");
        }
    }

    #[test]
    fn rejects_absurd_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn unescapes_strings_and_escape_inverts() {
        let j = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn writes_the_one_layout() {
        let doc = Json::obj([
            ("n", Json::num(1)),
            ("empty", Json::Arr(vec![])),
            (
                "inner",
                Json::obj([(
                    "rows",
                    Json::Arr(vec![
                        Json::obj([("a", Json::Bool(true)), ("b", Json::Arr(vec![Json::Null]))]),
                        Json::Arr(vec![Json::Str("x".into()), Json::obj([])]),
                    ]),
                )]),
            ),
        ]);
        let want = "{\n  \"n\": 1,\n  \"empty\": [\n  ],\n  \"inner\": {\n    \"rows\": [\n      \
                    {\"a\": true, \"b\": [null]},\n      [\"x\", {}]\n    ]\n  }\n}\n";
        assert_eq!(doc.to_string(), want);
    }

    /// Any value: scalars at the leaves, arrays and objects (distinct keys)
    /// down to depth 4, strings drawn from quotes, backslashes, control
    /// characters and non-ASCII text, numbers up to `u64::MAX`.
    struct AnyJson(u32);

    impl Strategy for AnyJson {
        type Value = Json;
        fn sample(&self, rng: &mut TestRng) -> Json {
            let text = |rng: &mut TestRng| -> String {
                const CHARS: &[char] =
                    &['a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\0', '\u{1f}', 'é', '漢', '🦀'];
                (0..rng.below(6)).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize]).collect()
            };
            let leaf_only = self.0 >= 4;
            match rng.below(if leaf_only { 4 } else { 6 }) {
                0 => {
                    [Json::Null, Json::Bool(true), Json::Bool(false)][rng.below(3) as usize].clone()
                }
                1 => Json::Num(match rng.below(5) {
                    0 => u64::MAX.to_string(),
                    1 => rng.next_u64().to_string(),
                    2 => format!("-{}", rng.below(1000)),
                    3 => format!("{:.6}", rng.unit_f64() * 1e3),
                    _ => format!("{}.{}e-{}", rng.below(10), rng.below(100), rng.below(300)),
                }),
                2 | 3 => Json::Str(text(rng)),
                4 => {
                    Json::Arr((0..rng.below(4)).map(|_| AnyJson(self.0 + 1).sample(rng)).collect())
                }
                _ => {
                    let mut pairs: Vec<(String, Json)> = Vec::new();
                    for _ in 0..rng.below(4) {
                        let key = text(rng);
                        if pairs.iter().all(|(k, _)| *k != key) {
                            pairs.push((key, AnyJson(self.0 + 1).sample(rng)));
                        }
                    }
                    Json::Obj(pairs)
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn written_documents_parse_back_to_the_same_value(v in AnyJson(0)) {
            let text = v.to_string();
            prop_assert!(text.ends_with('\n'));
            prop_assert_eq!(Json::parse(&text), Ok(v), "{}", text);
        }
    }
}
