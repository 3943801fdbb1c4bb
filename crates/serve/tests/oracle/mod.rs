//! The codec as it was before it streamed, kept only as a test oracle:
//! a recursive-descent parser into a [`Value`] tree, tree-to-type
//! conversions with the old derive's rules (first duplicate key wins,
//! unknown fields ignored, integral floats accepted as integers), and
//! the old per-`char` renderer. None of it shares code with the
//! production codec except the `Value` type itself.

#![allow(dead_code)]

use serde_json::{Number, Value};
use std::fmt::Write;

type Result<T> = std::result::Result<T, String>;

/// Errors are plain messages; only `Ok`/`Err` agreement is checked.
fn err(message: impl Into<String>) -> String {
    message.into()
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting the parser accepts.
const RECURSION_LIMIT: usize = 128;

/// Parses a whole document into a tree (trailing input is an error).
pub fn parse(text: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(err(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8> {
        let b = self.peek().ok_or_else(|| err("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        let got = self.bump()?;
        if got != b {
            return Err(err(format!(
                "expected `{}`, found `{}` at byte {}",
                b as char,
                got as char,
                self.pos - 1
            )));
        }
        Ok(())
    }

    fn eat_keyword(&mut self, word: &str) -> Result<()> {
        for &b in word.as_bytes() {
            self.expect(b)?;
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => {
                self.eat_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == RECURSION_LIMIT {
                    return Err(err(format!(
                        "recursion limit exceeded at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            ))),
            None => Err(err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => {}
                b']' => return Ok(Value::Array(items)),
                other => {
                    return Err(err(format!(
                        "expected `,` or `]`, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
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
            match self.bump()? {
                b',' => {}
                b'}' => return Ok(Value::Object(fields)),
                other => {
                    return Err(err(format!(
                        "expected `,` or `}}`, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| err("invalid UTF-8 in string"))?,
            );
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let cp = self.hex4()?;
                        // Surrogate pairs for astral-plane characters.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        out.push(c.ok_or_else(|| err("invalid \\u escape"))?);
                    }
                    other => return Err(err(format!("invalid escape `\\{}`", other as char))),
                },
                other if other < 0x20 => return Err(err("raw control character in string")),
                _ => unreachable!("fast path consumed plain bytes"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self.bump()?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| err("invalid hex digit in \\u escape"))?;
            cp = cp * 16 + digit;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| err("invalid number bytes"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::Float(f)))
            .map_err(|_| err(format!("invalid number `{text}`")))
    }
}

// ---------------------------------------------------------------------------
// Renderer
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
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
}

/// Compact JSON text of a tree.
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

fn render_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Number(Number::PosInt(x)) => {
            let _ = write!(out, "{x}");
        }
        Value::Number(Number::NegInt(x)) => {
            let _ = write!(out, "{x}");
        }
        Value::Number(Number::Float(x)) if x.is_finite() => {
            let _ = write!(out, "{x:?}");
        }
        Value::Number(Number::Float(_)) => out.push_str("null"),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                render_into(v, out);
            }
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Tree <-> type conversions (the old derive's rules)
// ---------------------------------------------------------------------------

/// A type with the old tree-based (de)serialization.
pub trait Tree: Sized {
    /// The value as a tree.
    fn to_tree(&self) -> Value;
    /// Rebuilds the value from a tree.
    fn from_tree(value: &Value) -> Result<Self>;
}

/// Old `Value::as_u64`: non-negative integers and integral floats.
fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::Number(Number::PosInt(x)) => Some(*x),
        Value::Number(Number::Float(f))
            if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 =>
        {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(*f as u64)
        }
        _ => None,
    }
}

impl Tree for u64 {
    fn to_tree(&self) -> Value {
        Value::Number(Number::PosInt(*self))
    }
    fn from_tree(value: &Value) -> Result<Self> {
        as_u64(value).ok_or_else(|| err("expected unsigned integer"))
    }
}

impl Tree for u32 {
    fn to_tree(&self) -> Value {
        u64::from(*self).to_tree()
    }
    fn from_tree(value: &Value) -> Result<Self> {
        u32::try_from(u64::from_tree(value)?).map_err(|e| e.to_string())
    }
}

impl Tree for bool {
    fn to_tree(&self) -> Value {
        Value::Bool(*self)
    }
    fn from_tree(value: &Value) -> Result<Self> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(err("expected bool")),
        }
    }
}

impl Tree for String {
    fn to_tree(&self) -> Value {
        Value::String(self.clone())
    }
    fn from_tree(value: &Value) -> Result<Self> {
        match value {
            Value::String(s) => Ok(s.clone()),
            _ => Err(err("expected string")),
        }
    }
}

impl<T: Tree> Tree for Option<T> {
    fn to_tree(&self) -> Value {
        self.as_ref().map_or(Value::Null, Tree::to_tree)
    }
    fn from_tree(value: &Value) -> Result<Self> {
        match value {
            Value::Null => Ok(None),
            other => T::from_tree(other).map(Some),
        }
    }
}

impl<T: Tree> Tree for Vec<T> {
    fn to_tree(&self) -> Value {
        Value::Array(self.iter().map(Tree::to_tree).collect())
    }
    fn from_tree(value: &Value) -> Result<Self> {
        match value {
            Value::Array(items) => items.iter().map(T::from_tree).collect(),
            _ => Err(err("expected array")),
        }
    }
}

impl<T: Tree> Tree for [T; 2] {
    fn to_tree(&self) -> Value {
        Value::Array(self.iter().map(Tree::to_tree).collect())
    }
    fn from_tree(value: &Value) -> Result<Self> {
        match value {
            Value::Array(items) if items.len() == 2 => {
                Ok([T::from_tree(&items[0])?, T::from_tree(&items[1])?])
            }
            _ => Err(err("expected fixed-size array")),
        }
    }
}

/// The fields of an object value.
pub fn expect_object(value: &Value) -> Result<&[(String, Value)]> {
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err(err("expected object")),
    }
}

/// The first field named `name`, converted.
pub fn get_field<T: Tree>(fields: &[(String, Value)], name: &str) -> Result<T> {
    let found = fields
        .iter()
        .find(|(k, _)| k == name)
        .ok_or_else(|| err(format!("missing field `{name}`")))?;
    T::from_tree(&found.1)
}

/// `{"name": inner}`, an externally tagged variant.
pub fn tagged(name: &str, inner: Value) -> Value {
    Value::Object(vec![(name.to_string(), inner)])
}

/// Implements [`Tree`] for a newtype over a [`Tree`] leaf, given its
/// constructor and accessor.
macro_rules! tree_newtype {
    ($ty:ty, $inner:ty, $new:expr, $get:expr) => {
        impl $crate::oracle::Tree for $ty {
            fn to_tree(&self) -> ::serde_json::Value {
                let get: fn(&$ty) -> $inner = $get;
                $crate::oracle::Tree::to_tree(&get(self))
            }
            fn from_tree(value: &::serde_json::Value) -> ::std::result::Result<Self, String> {
                let new: fn($inner) -> $ty = $new;
                <$inner as $crate::oracle::Tree>::from_tree(value).map(new)
            }
        }
    };
}

/// Implements [`Tree`] for a struct with named fields.
macro_rules! tree_struct {
    ($ty:ident { $($f:ident),* $(,)? }) => {
        impl $crate::oracle::Tree for $ty {
            fn to_tree(&self) -> ::serde_json::Value {
                ::serde_json::Value::Object(vec![
                    $((stringify!($f).to_string(), $crate::oracle::Tree::to_tree(&self.$f))),*
                ])
            }
            fn from_tree(value: &::serde_json::Value) -> ::std::result::Result<Self, String> {
                let fields = $crate::oracle::expect_object(value)?;
                Ok($ty { $($f: $crate::oracle::get_field(fields, stringify!($f))?),* })
            }
        }
    };
}

/// Implements [`Tree`] for an externally tagged enum, its variants
/// listed by shape: unit, newtype, and named-field.
macro_rules! tree_enum {
    ($ty:ident;
     unit: $($u:ident),*;
     newtype: $($t:ident),*;
     named: $($n:ident { $($f:ident),* }),* $(,)?) => {
        impl $crate::oracle::Tree for $ty {
            fn to_tree(&self) -> ::serde_json::Value {
                match self {
                    $($ty::$u => ::serde_json::Value::String(stringify!($u).to_string()),)*
                    $($ty::$t(inner) => $crate::oracle::tagged(
                        stringify!($t),
                        $crate::oracle::Tree::to_tree(inner),
                    ),)*
                    $($ty::$n { $($f),* } => $crate::oracle::tagged(
                        stringify!($n),
                        ::serde_json::Value::Object(vec![
                            $((stringify!($f).to_string(), $crate::oracle::Tree::to_tree($f))),*
                        ]),
                    ),)*
                    #[allow(unreachable_patterns)]
                    _ => panic!("a {} variant is missing from the oracle", stringify!($ty)),
                }
            }
            #[allow(unused_variables)]
            fn from_tree(value: &::serde_json::Value) -> ::std::result::Result<Self, String> {
                match value {
                    ::serde_json::Value::String(s) => match s.as_str() {
                        $(stringify!($u) => Ok($ty::$u),)*
                        _ => Err(format!("unknown variant of {}", stringify!($ty))),
                    },
                    ::serde_json::Value::Object(tag) if tag.len() == 1 => {
                        let (key, inner) = &tag[0];
                        match key.as_str() {
                            $(stringify!($t) => Ok($ty::$t($crate::oracle::Tree::from_tree(inner)?)),)*
                            $(stringify!($n) => {
                                let fields = $crate::oracle::expect_object(inner)?;
                                Ok($ty::$n {
                                    $($f: $crate::oracle::get_field(fields, stringify!($f))?),*
                                })
                            })*
                            _ => Err(format!("unknown variant of {}", stringify!($ty))),
                        }
                    }
                    _ => Err(format!("expected {} variant", stringify!($ty))),
                }
            }
        }
    };
}
