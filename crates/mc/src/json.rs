//! One JSON value type for every document the workspace writes or reads:
//! the model checker's ITF traces ([`crate::itf`]) and the engine perf
//! trajectory `BENCH_engine.json` (built and gated by `gcs-bench`).
//!
//! No serde: the workspace is offline-vendored without it, so this
//! module is a small tree ([`Json`]), one recursive-descent parser
//! ([`Json::parse`]) and one writer ([`Json::write`]). Integers are their
//! own variant, so counts print as `2`, not `2.0`; every other number is
//! written with Rust's shortest round-tripping representation (`{:?}`),
//! which `str::parse::<f64>()` recovers exactly. Parse → write is
//! therefore a byte-for-byte fixpoint on anything the writer produced.
//!
//! ```
//! use gcs_mc::json::Json;
//!
//! let doc = Json::obj([
//!     ("events", Json::from(2_u64)),
//!     ("wall_s", Json::from(0.5)),
//!     ("peaks", Json::from_iter([Json::from(1_u64), Json::from(3_u64)])),
//! ]);
//! let text = doc.write(usize::MAX);
//! assert_eq!(text, "{\n  \"events\": 2,\n  \"wall_s\": 0.5,\n  \"peaks\": [1, 3]\n}\n");
//! assert_eq!(Json::parse(&text).unwrap().write(usize::MAX), text);
//! assert_eq!(doc.write(1), text);
//! assert_eq!(doc.write(0), "{\"events\": 2, \"wall_s\": 0.5, \"peaks\": [1, 3]}\n");
//! ```

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i64),
    /// Any other number — always finite.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(JsonObj),
}

/// Object fields in document order (lookups return the first match).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsonObj(pub Vec<(String, Json)>);

impl JsonObj {
    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value under `key`, or an error naming the missing field.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Appends one field.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        self.0.push((key.into(), value.into()));
    }
}

impl Json {
    /// An object with `fields` in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(JsonObj(
            fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        ))
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The document text, newline-terminated. A container at nesting
    /// depth below `break_depth` (the root is depth 0) puts each element
    /// on its own line with a two-space indent, unless it is an array of
    /// scalars; deeper containers, arrays of scalars and empty containers
    /// are written inline with `, ` and `: `. `usize::MAX` sets no limit.
    ///
    /// # Panics
    /// On a non-finite [`Json::Num`], which JSON cannot encode.
    pub fn write(&self, break_depth: usize) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0, break_depth);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, depth: usize, break_depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                assert!(v.is_finite(), "JSON cannot encode the number {v}");
                out.push_str(&format!("{v:?}"));
            }
            Json::Str(v) => write_str(out, v),
            Json::Arr(items) => {
                let items = items.iter().map(|v| (None, v)).collect();
                write_container(out, "[]", items, depth, break_depth);
            }
            Json::Obj(obj) => {
                let fields = obj.0.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
                write_container(out, "{}", fields, depth, break_depth);
            }
        }
    }

    /// This value as an object, or an error naming `what`.
    pub fn as_obj(&self, what: &str) -> Result<&JsonObj, String> {
        match self {
            Json::Obj(o) => Ok(o),
            _ => Err(format!("{what}: expected object")),
        }
    }

    /// This value as an array, or an error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err(format!("{what}: expected array")),
        }
    }

    /// This value as a number (an integer converts), or an error naming
    /// `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match *self {
            Json::Num(v) => Ok(v),
            Json::Int(v) => Ok(v as f64),
            _ => Err(format!("{what}: expected number")),
        }
    }

    /// This value as a non-negative integer, or an error naming `what`.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match *self {
            Json::Int(v) if v >= 0 => Ok(v as u64),
            _ => Err(format!("{what}: expected a non-negative integer")),
        }
    }

    /// This value as a bool, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match *self {
            Json::Bool(v) => Ok(v),
            _ => Err(format!("{what}: expected bool")),
        }
    }

    /// This value as a string, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(v) => Ok(v),
            _ => Err(format!("{what}: expected string")),
        }
    }

    /// This value as an array of numbers, or an error naming `what`.
    pub fn as_f64_array(&self, what: &str) -> Result<Vec<f64>, String> {
        self.as_arr(what)?.iter().map(|v| v.as_f64(what)).collect()
    }
}

/// Writes a container's elements (keyed for an object) between
/// `brackets`. Below `break_depth`, an object breaks over lines when it
/// has fields and an array when it holds a container.
fn write_container(
    out: &mut String,
    brackets: &str,
    items: Vec<(Option<&str>, &Json)>,
    depth: usize,
    break_depth: usize,
) {
    let broken = depth < break_depth
        && items
            .iter()
            .any(|(key, v)| key.is_some() || matches!(v, Json::Arr(_) | Json::Obj(_)));
    let newline = |d: usize| match broken {
        true => format!("\n{}", "  ".repeat(d)),
        false => String::new(),
    };
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(if broken { "," } else { ", " });
        }
        out.push_str(&newline(depth + 1));
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write_into(out, depth + 1, break_depth);
    }
    out.push_str(&newline(depth));
    out.push_str(&brackets[1..]);
}

fn write_str(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `[(name, Json)]` for every field of a struct value, named after the
/// field and in the listed order — feed it to [`Json::obj`]. The
/// destructuring has no `..`, so a field added to the struct fails to
/// compile at every use until it is listed.
#[macro_export]
macro_rules! json_fields {
    ($ty:ident { $($field:ident),* $(,)? } = $value:expr) => {{
        let $ty { $($field),* } = $value;
        [$((stringify!($field), $crate::json::Json::from($field))),*]
    }};
}

/// One `From<$from> for Json` per scalar the writers hand over.
macro_rules! json_from {
    ($($from:ty => |$v:ident| $to:expr),* $(,)?) => {$(
        impl From<$from> for Json {
            fn from($v: $from) -> Json {
                $to
            }
        }
    )*};
}

json_from! {
    bool => |v| Json::Bool(v),
    u32 => |v| Json::Int(v.into()),
    u64 => |v| Json::Int(i64::try_from(v).expect("JSON integers fit in i64")),
    usize => |v| Json::Int(i64::try_from(v).expect("JSON integers fit in i64")),
    f64 => |v| Json::Num(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
    JsonObj => |v| Json::Obj(v),
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into an array.
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

/// A recursive-descent parser over the document text; `pos` is a byte
/// offset that only ever stops on a character boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.sequence(b'{', b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(JsonObj(fields)))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b'[', b']', |p| p.value().map(|v| items.push(v)))?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// `open`, then `item`s separated by commas, then `close`.
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected `,` or `{}` at byte {}",
                        char::from(close),
                        self.pos
                    ))
                }
            }
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid keyword at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    self.pos += 4;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    char::from_u32(code).ok_or("invalid \\u code point")?
                }
                _ => return Err(format!("unknown escape at byte {}", self.pos - 1)),
            });
        }
    }

    /// An integer literal (no fraction, no exponent, fits `i64`) parses
    /// as [`Json::Int`], anything else as a finite [`Json::Num`].
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.peek() {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(format!("number `{text}` at byte {start} is not finite")),
            Err(e) => Err(format!("bad number `{text}` at byte {start}: {e}")),
        }
    }
}
