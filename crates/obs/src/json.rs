//! The one JSON writer: a small value tree and two renderers.
//!
//! Every machine-readable artifact in the tree — the obs [`Report`],
//! the server's STATS reply, the `BENCH_*.json` files, loadgen's output —
//! is built as a [`Json`] value and rendered here, so string escaping,
//! non-finite floats and nesting are handled in exactly one place.
//!
//! Rendering rules: strings are escaped per RFC 8259; `NaN` and `±inf`
//! render as `0` (JSON has no spelling for them and every consumer wants a
//! number); object keys keep insertion order. [`Json::compact`] emits one
//! line with `": "` and `", "` separators; [`Json::pretty`] puts each
//! child of a container on its own line *unless* the container holds only
//! scalars, which keeps one record per line in result arrays.
//!
//! [`Report`]: crate::Report

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, rendered exactly.
    U64(u64),
    /// A float; non-finite values render as `0`.
    F64(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order and must be unique.
    Object(Vec<(String, Json)>),
}

/// Build an object from `(key, value)` pairs, keeping their order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Build an array.
pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
    Json::Array(items.into_iter().collect())
}

/// Round `v` to `places` decimals, so a float renders with bounded width
/// (`fixed(1.03549, 3)` → `1.035`).
pub fn fixed(v: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::F64((v * scale).round() / scale)
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    /// Render on one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// Render indented by two spaces per level, with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Array(_) | Json::Object(_))
    }

    /// `depth` is `None` for compact output, else the indentation level of
    /// the line this value starts on.
    fn render(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
            Json::F64(_) => out.push('0'),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                let depth = depth.filter(|_| !items.iter().all(Json::is_scalar));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    separate(out, i, depth);
                    item.render(out, depth.map(|d| d + 1));
                }
                close(out, ']', items.is_empty(), depth);
            }
            Json::Object(fields) => {
                debug_assert!(
                    fields
                        .iter()
                        .enumerate()
                        .all(|(i, (k, _))| fields[..i].iter().all(|(seen, _)| seen != k)),
                    "duplicate key in JSON object"
                );
                let depth = depth.filter(|_| !fields.iter().all(|(_, v)| v.is_scalar()));
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    separate(out, i, depth);
                    write_str(out, key);
                    out.push_str(": ");
                    value.render(out, depth.map(|d| d + 1));
                }
                close(out, '}', fields.is_empty(), depth);
            }
        }
    }
}

/// Emit what goes before child `i`: a comma, then either a space (inline)
/// or a newline plus the child's indentation.
fn separate(out: &mut String, i: usize, depth: Option<usize>) {
    if i > 0 {
        out.push(',');
    }
    match depth {
        Some(d) => {
            out.push('\n');
            out.push_str(&"  ".repeat(d + 1));
        }
        None if i > 0 => out.push(' '),
        None => {}
    }
}

fn close(out: &mut String, bracket: char, empty: bool, depth: Option<usize>) {
    if let (Some(d), false) = (depth, empty) {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(bracket);
}

/// Append `s` as a quoted JSON string.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

/// Escape `s` for use inside a JSON (or Prometheus label) string literal.
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Minimal strict JSON reader for the round-trip tests: rejects
    /// duplicate object keys, trailing garbage, raw control characters and
    /// anything that is not a number where a number must be.
    struct Parser<'a> {
        s: &'a [u8],
        at: usize,
    }

    impl Parser<'_> {
        fn parse(text: &str) -> Json {
            let mut p = Parser {
                s: text.as_bytes(),
                at: 0,
            };
            let v = p.value();
            p.ws();
            assert_eq!(p.at, p.s.len(), "trailing bytes in {text:?}");
            v
        }

        fn ws(&mut self) {
            while self.at < self.s.len() && matches!(self.s[self.at], b' ' | b'\n') {
                self.at += 1;
            }
        }

        fn eat(&mut self, b: u8) -> bool {
            self.ws();
            let hit = self.s.get(self.at) == Some(&b);
            self.at += usize::from(hit);
            hit
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.at] {
                b'{' => {
                    self.at += 1;
                    let mut fields: Vec<(String, Json)> = Vec::new();
                    while !self.eat(b'}') {
                        assert!(fields.is_empty() || self.eat(b','), "missing comma");
                        self.ws();
                        let key = self.string();
                        assert!(
                            fields.iter().all(|(k, _)| *k != key),
                            "duplicate key {key:?}"
                        );
                        assert!(self.eat(b':'), "missing colon");
                        fields.push((key, self.value()));
                    }
                    Json::Object(fields)
                }
                b'[' => {
                    self.at += 1;
                    let mut items = Vec::new();
                    while !self.eat(b']') {
                        assert!(items.is_empty() || self.eat(b','), "missing comma");
                        items.push(self.value());
                    }
                    Json::Array(items)
                }
                b'"' => Json::Str(self.string()),
                b't' => {
                    self.at += 4;
                    Json::Bool(true)
                }
                b'f' => {
                    self.at += 5;
                    Json::Bool(false)
                }
                _ => {
                    let start = self.at;
                    while self.at < self.s.len()
                        && matches!(self.s[self.at], b'0'..=b'9' | b'-' | b'.')
                    {
                        self.at += 1;
                    }
                    let num = std::str::from_utf8(&self.s[start..self.at]).unwrap();
                    match num.parse::<u64>() {
                        Ok(v) => Json::U64(v),
                        Err(_) => Json::F64(num.parse().unwrap_or_else(|_| panic!("bad {num:?}"))),
                    }
                }
            }
        }

        fn string(&mut self) -> String {
            assert_eq!(self.s[self.at], b'"');
            self.at += 1;
            let mut out = Vec::new();
            loop {
                let b = self.s[self.at];
                self.at += 1;
                match b {
                    b'"' => return String::from_utf8(out).expect("utf-8"),
                    b'\\' => {
                        let e = self.s[self.at];
                        self.at += 1;
                        match e {
                            b'n' => out.push(b'\n'),
                            b'r' => out.push(b'\r'),
                            b't' => out.push(b'\t'),
                            b'u' => {
                                let hex = std::str::from_utf8(&self.s[self.at..self.at + 4]);
                                out.push(u8::from_str_radix(hex.unwrap(), 16).unwrap());
                                self.at += 4;
                            }
                            other => out.push(other),
                        }
                    }
                    b if b < 0x20 => panic!("raw control byte {b:#x} in string"),
                    b => out.push(b),
                }
            }
        }
    }

    /// What a value reads back as: non-finite floats become `0`, and a
    /// non-negative float that prints without a fraction is
    /// indistinguishable from an integer.
    fn readback(v: &Json) -> Json {
        match v {
            Json::F64(f) if !f.is_finite() => Json::U64(0),
            Json::F64(f) if f.fract() == 0.0 && *f >= 0.0 && *f < 1.8e19 => Json::U64(*f as u64),
            Json::Array(items) => Json::Array(items.iter().map(readback).collect()),
            Json::Object(fields) => Json::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), readback(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(escape("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(escape("µs → ok"), "µs → ok");
        let v = object([("k\"ey", Json::from("line\nbreak"))]);
        assert_eq!(v.compact(), "{\"k\\\"ey\": \"line\\nbreak\"}");
        assert_eq!(Parser::parse(&v.compact()), v);
    }

    #[test]
    fn non_finite_floats_render_as_zero() {
        let v = array([
            f64::NAN.into(),
            f64::INFINITY.into(),
            f64::NEG_INFINITY.into(),
        ]);
        assert_eq!(v.compact(), "[0, 0, 0]");
        assert_eq!(fixed(f64::NAN, 2).compact(), "0");
    }

    #[test]
    fn fixed_bounds_the_printed_width() {
        assert_eq!(fixed(1.03549, 3).compact(), "1.035");
        assert_eq!(fixed(0.2, 4).compact(), "0.2");
        assert_eq!(fixed(9020624.6, 0).compact(), "9020625");
        assert_eq!(Json::from(1.5).compact(), "1.5");
    }

    #[test]
    fn compact_keeps_the_grep_friendly_separators() {
        let v = object([
            ("ops", Json::from(0u64)),
            ("ok", true.into()),
            ("tenants", array([object([("tenant", Json::from(1u32))])])),
        ]);
        assert_eq!(
            v.compact(),
            "{\"ops\": 0, \"ok\": true, \"tenants\": [{\"tenant\": 1}]}"
        );
    }

    #[test]
    fn pretty_inlines_scalar_only_containers() {
        let v = object([
            ("quick", Json::from(false)),
            (
                "results",
                array([
                    object([("scenario", Json::from("a")), ("ops", 1u64.into())]),
                    object([("scenario", Json::from("b")), ("ops", 2u64.into())]),
                ]),
            ),
            ("growth", object([("wal", Json::from(8.25))])),
            ("empty", array([])),
        ]);
        let want = "{\n  \"quick\": false,\n  \"results\": [\n    \
                    {\"scenario\": \"a\", \"ops\": 1},\n    \
                    {\"scenario\": \"b\", \"ops\": 2}\n  ],\n  \
                    \"growth\": {\"wal\": 8.25},\n  \"empty\": []\n}\n";
        assert_eq!(v.pretty(), want);
        assert_eq!(Parser::parse(&v.pretty()), v);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_keys_are_a_bug() {
        object([("a", Json::from(1u64)), ("a", Json::from(2u64))]).compact();
    }

    /// Seeded generator for the property test. (The vendored proptest has
    /// no recursive or string strategies, so trees are drawn by hand.)
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, span: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % span
        }

        /// Strings biased toward quotes, backslashes, control characters
        /// and non-ASCII.
        fn string(&mut self) -> String {
            (0..self.below(10))
                .map(|_| match self.below(4) {
                    0 => char::from(self.below(0x30) as u8),
                    1 => ['"', '\\', 'µ', '→'][self.below(4) as usize],
                    _ => char::from(b'a' + self.below(26) as u8),
                })
                .collect()
        }

        /// Every leaf kind, containers nested up to four deep.
        fn json(&mut self, depth: u32) -> Json {
            match self.below(if depth < 4 { 7 } else { 5 }) {
                0 => Json::Bool(self.below(2) == 0),
                1 => Json::U64(self.below(1 << 31) << self.below(34)),
                2 => {
                    Json::F64([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][self.below(3) as usize])
                }
                3 => Json::F64(
                    (self.below(2_000_001) as f64 - 1e6)
                        / [1.0, 7.0, 1e3, 1e9][self.below(4) as usize],
                ),
                4 => Json::Str(self.string()),
                5 => Json::Array((0..self.below(6)).map(|_| self.json(depth + 1)).collect()),
                // Keys made unique by position: the writer rejects repeats.
                _ => Json::Object(
                    (0..self.below(6))
                        .map(|i| (format!("{}#{i}", self.string()), self.json(depth + 1)))
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #[test]
        fn both_renderings_read_back_to_the_same_tree(seed in any::<u64>()) {
            let v = Gen(seed).json(0);
            let want = readback(&v);
            let compact = v.compact();
            prop_assert!(!compact.contains('\n'));
            prop_assert!(!compact.contains("NaN") && !compact.contains("inf"));
            prop_assert_eq!(readback(&Parser::parse(&compact)), want.clone());
            prop_assert_eq!(readback(&Parser::parse(&v.pretty())), want);
        }
    }
}
