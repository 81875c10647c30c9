//! The serve protocol's JSON (the build is offline, so no serde): one pull
//! `Reader` holds the grammar (RFC 8259: objects, arrays, numbers,
//! strings, booleans, null), and two decoders sit on it.
//!
//! * [`parse`] builds a [`Json`] tree. The CLI client, the fleet's
//!   `stats`/`compact` merge and the ladder read replies with it.
//! * The typed decoders read straight into their types and build no
//!   tree: `proto::Request::decode` for every served request payload,
//!   `fleet::parse_hits` for every shard `knn` reply.
//!
//! Both see the same grammar and the same error texts, so a payload is
//! malformed for one exactly when it is for the other.
//!
//! Writing stays hand-rolled `format!` strings, matching the CLI's
//! existing `--json` output style.

use std::borrow::Cow;
use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number: its value, and the unsigned integer it reads as
    /// (see [`Json::as_u64`]), read from its text at parse time.
    Num(f64, Option<u64>),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order irrelevant to the protocol).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n, _) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, by the rule the typed decoders
    /// read with: a plain digit run is exact (`None` past `u64::MAX`),
    /// any other form (`1e3`, `1.0`, `-0`) counts when its value is an
    /// integer below 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(_, int) => *int,
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Deepest accepted container nesting. The reader recurses per level, so
/// without a limit a frame of a few hundred kilobytes of `[` overflows
/// the stack — an abort `catch_unwind` cannot contain. Protocol payloads
/// nest three levels deep; 128 leaves generous headroom.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value (trailing garbage is an error).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader::new(text);
    let value = tree(&mut r, 0)?;
    r.finish()?;
    Ok(value)
}

fn tree(r: &mut Reader<'_>, depth: usize) -> Result<Json, String> {
    Ok(match r.value(depth)? {
        Item::Null => Json::Null,
        Item::Bool(b) => Json::Bool(b),
        item @ Item::Num(n, _) => Json::Num(n, item.as_u64()),
        Item::Str(s) => Json::Str(s.into_owned()),
        Item::Arr => {
            let mut items = Vec::new();
            r.array(|r| {
                items.push(tree(r, depth + 1)?);
                Ok(())
            })?;
            Json::Arr(items)
        }
        Item::Obj => {
            let mut map = BTreeMap::new();
            r.object(|r, key| {
                let value = tree(r, depth + 1)?;
                map.insert(key.into_owned(), value);
                Ok(())
            })?;
            Json::Obj(map)
        }
    })
}

/// Integers below this are exact in an `f64`; a number written in any
/// form but a plain digit run is an integer only below it.
const F64_EXACT_INTS: f64 = 9_007_199_254_740_992.0; // 2^53

/// What [`Reader::value`] found: a scalar, read whole, or the opening
/// bracket of a container, which the caller reads next with
/// [`Reader::object`] / [`Reader::array`] or passes over with
/// [`Reader::skip_rest`].
#[derive(Debug)]
pub(crate) enum Item<'a> {
    Null,
    Bool(bool),
    /// A number: its value (always finite) and its text.
    Num(f64, &'a str),
    /// Borrowed from the text when it holds no escape.
    Str(Cow<'a, str>),
    Arr,
    Obj,
}

impl Item<'_> {
    /// A number as an unsigned integer: the one rule behind
    /// [`Json::as_u64`] and every typed decoder.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match *self {
            Item::Num(_, text) if text.bytes().all(|c| c.is_ascii_digit()) => text.parse().ok(),
            Item::Num(n, _) => {
                (n >= 0.0 && n.fract() == 0.0 && n < F64_EXACT_INTS).then_some(n as u64)
            }
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match *self {
            Item::Num(n, _) => Some(n),
            _ => None,
        }
    }
}

/// A pull reader over one JSON text. Every value is read at a nesting
/// `depth` (0 for the document itself, one more per enclosing container)
/// and refused at [`MAX_DEPTH`]; errors name the byte offset they were
/// found at.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(c), self.pos))
        }
    }

    /// The next value: a scalar is read whole, a container only named.
    fn value(&mut self, depth: usize) -> Result<Item<'a>, String> {
        if depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Item::Obj),
            Some(b'[') => Ok(Item::Arr),
            Some(b'"') => self.string().map(Item::Str),
            Some(b't') => self.literal("true", Item::Bool(true)),
            Some(b'f') => self.literal("false", Item::Bool(false)),
            Some(b'n') => self.literal("null", Item::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// The next value where the caller wants a scalar: a container is
    /// read past (validated) and comes back as its bare [`Item::Arr`] /
    /// [`Item::Obj`], for the caller to refuse.
    pub(crate) fn scalar(&mut self, depth: usize) -> Result<Item<'a>, String> {
        let item = self.value(depth)?;
        self.skip_rest(&item, depth)?;
        Ok(item)
    }

    /// Reads past the next value, validating it.
    pub(crate) fn skip_value(&mut self, depth: usize) -> Result<(), String> {
        self.scalar(depth).map(drop)
    }

    /// Reads past the contents of the container `item` names (a scalar
    /// has none left).
    fn skip_rest(&mut self, item: &Item<'a>, depth: usize) -> Result<(), String> {
        match item {
            Item::Obj => self.object(|r, _| r.skip_value(depth + 1)),
            Item::Arr => self.array(|r| r.skip_value(depth + 1)),
            _ => Ok(()),
        }
    }

    /// Reads the object [`Reader::value`] just named, handing each key to
    /// `member`, which must read that member's value (one level deeper).
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.consume(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// Reads the array [`Reader::value`] just named, calling `item` once
    /// per element, which must read that element (one level deeper).
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.consume(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Reads the next value as an object's members (see
    /// [`Reader::object`]); any other value is read past and has none.
    pub(crate) fn members(
        &mut self,
        depth: usize,
        member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        match self.value(depth)? {
            Item::Obj => self.object(member),
            item => self.skip_rest(&item, depth),
        }
    }

    /// Reads the next value as an array's elements (see
    /// [`Reader::array`]); any other value is read past and has none.
    /// Whether it was an array.
    pub(crate) fn elements(
        &mut self,
        depth: usize,
        item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        match self.value(depth)? {
            Item::Arr => self.array(item).map(|()| true),
            other => self.skip_rest(&other, depth).map(|()| false),
        }
    }

    /// Checks that only whitespace follows the value just read.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing characters at byte {}", self.pos))
        }
    }

    fn literal(&mut self, lit: &str, item: Item<'a>) -> Result<Item<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(item)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Takes the longest run of number characters, then holds it to the
    /// RFC 8259 grammar and to a finite value.
    fn number(&mut self) -> Result<Item<'a>, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.text
            .get(start..self.pos)
            .filter(|text| is_json_number(text.as_bytes()))
            .and_then(|text| {
                let value: f64 = text.parse().ok()?;
                value.is_finite().then_some(Item::Num(value, text))
            })
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    /// A string, borrowed from the text unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.consume(b'"')?;
        let b = self.text.as_bytes();
        let mut decoded: Option<String> = None;
        // Start of the run since the last escape. Runs end only at an
        // ASCII `"` or `\`, which is always a char boundary of the text.
        let mut run = self.pos;
        loop {
            match b.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    let esc = *b.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = b
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates are unsupported (the protocol is ASCII).
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("unknown escape \\{}", char::from(other))),
                    }
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, the whole of `t`.
fn is_json_number(t: &[u8]) -> bool {
    // Advances `i` past a run of digits; whether there was one.
    let digits = |i: &mut usize| {
        let start = *i;
        while t.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > start
    };
    let mut i = usize::from(t.first() == Some(&b'-'));
    match t.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            digits(&mut i);
        }
        _ => return false,
    }
    if t.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return false;
        }
    }
    if matches!(t.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(t.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return false;
        }
    }
    i == t.len()
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(r#"{"op":"knn","traj":[[1.5,-2.0],[3,4]],"k":5}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("knn"));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(5));
        let traj = v.get("traj").unwrap().as_arr().unwrap();
        assert_eq!(traj.len(), 2);
        assert_eq!(traj[0].as_arr().unwrap()[1].as_f64(), Some(-2.0));
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.25e2").unwrap(), Json::Num(-125.0, None));
        assert_eq!(
            parse(r#""a\"b\n""#).unwrap(),
            Json::Str("a\"b\n".to_string())
        );
        assert_eq!(parse("[]").unwrap(), Json::Arr(Vec::new()));
        assert!(matches!(parse("{}").unwrap(), Json::Obj(m) if m.is_empty()));
        let v = parse(r#"{"a":{"b":[1,2,{"c":null}]}}"#).unwrap();
        assert!(v.get("a").unwrap().get("b").is_some());
        // The number forms RFC 8259 allows beside plain digits.
        for (text, n) in [
            ("-0", -0.0),
            ("1E+2", 100.0),
            ("1e5", 1e5),
            ("0.5e-1", 0.05),
        ] {
            assert_eq!(parse(text).unwrap().as_f64(), Some(n), "{text}");
        }
        assert_eq!(
            parse(r#""été \/ café""#).unwrap(),
            Json::Str("été / café".to_string())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"x",
            "{\"a\" 1}",
            "01x",
            "1 2",
            "nul",
            "{\"a\":}",
            // Number forms outside RFC 8259.
            "+1",
            "01",
            "00",
            "1.",
            ".5",
            "-",
            "1e",
            "1.e5",
            "-.5",
            "[01]",
            "{\"k\":+1}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        assert_eq!(parse("+1").unwrap_err(), "invalid number at byte 0");
        assert_eq!(parse("[1,01]").unwrap_err(), "invalid number at byte 3");
    }

    #[test]
    fn rejects_deep_nesting_without_overflow() {
        // Fuzz regression: unbounded recursion turned ~100k open brackets
        // into a stack overflow (an abort, not a catchable panic).
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
        let deep_obj = "{\"a\":".repeat(100_000);
        assert!(parse(&deep_obj).is_err());
        // Nesting at the protocol's actual depth still parses.
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        assert!(parse(&ok).is_ok());
        let over = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn the_tree_reads_integers_by_the_reader_rule() {
        let tree_u64 = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(tree_u64("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(tree_u64("18446744073709551615"), Some(u64::MAX));
        assert_eq!(tree_u64("18446744073709551616"), None);
        assert_eq!(tree_u64("9007199254740993e0"), None);
        assert_eq!(tree_u64("1e3"), Some(1000));
    }

    /// What a typed decoder reads from one number's text.
    fn number_as_u64(text: &str) -> Option<u64> {
        Reader::new(text).value(0).unwrap().as_u64()
    }

    #[test]
    fn a_digit_run_is_an_exact_integer_and_other_forms_stop_at_2_pow_53() {
        assert_eq!(number_as_u64("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(number_as_u64("18446744073709551615"), Some(u64::MAX));
        assert_eq!(number_as_u64("18446744073709551616"), None);
        assert_eq!(number_as_u64("0"), Some(0));
        for (text, n) in [("1e3", Some(1000)), ("1.0", Some(1)), ("-0", Some(0))] {
            assert_eq!(number_as_u64(text), n, "{text}");
        }
        for text in [
            "-1",
            "1.5",
            "9007199254740992.0",
            "9007199254740993e0",
            "1e19",
        ] {
            assert_eq!(number_as_u64(text), None, "{text}");
        }
        assert_eq!(number_as_u64("9007199254740991.0"), Some((1 << 53) - 1));
    }

    #[test]
    fn strings_without_escapes_are_borrowed() {
        let mut r = Reader::new(r#"["plain","es\"caped"]"#);
        assert!(matches!(r.value(0).unwrap(), Item::Arr));
        let mut strings = Vec::new();
        r.array(|r| {
            strings.push(r.value(1)?);
            Ok(())
        })
        .unwrap();
        assert!(matches!(&strings[0], Item::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&strings[1], Item::Str(Cow::Owned(s)) if s == "es\"caped"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = format!("{{\"s\":\"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(nasty));
    }
}
