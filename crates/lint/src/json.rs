//! A minimal, panic-free JSON reader for the linter's baseline file.
//! Writing JSON stays hand-rolled in the emitters; this module only
//! parses.
//!
//! Deliberately small: no streaming, no number-precision guarantees
//! beyond `f64`, a fixed recursion depth limit. A parse failure yields
//! `None` and callers treat the file as absent (an empty baseline) —
//! corruption can never fail a run.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Maximum nesting depth accepted.
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document. Returns `None` on any syntax
/// error, depth overflow, or trailing garbage.
pub fn parse(src: &str) -> Option<Json> {
    let bytes: Vec<char> = src.chars().collect();
    let mut p = P { c: &bytes, i: 0 };
    p.ws();
    let v = p.value(0)?;
    p.ws();
    if p.i == p.c.len() {
        Some(v)
    } else {
        None
    }
}

struct P<'a> {
    c: &'a [char],
    i: usize,
}

impl<'a> P<'a> {
    fn peek(&self) -> Option<char> {
        self.c.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let ch = self.c.get(self.i).copied();
        if ch.is_some() {
            self.i += 1;
        }
        ch
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let n = lit.chars().count();
        if self.c[self.i.min(self.c.len())..]
            .iter()
            .take(n)
            .copied()
            .eq(lit.chars())
        {
            self.i += n;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        if depth > MAX_DEPTH {
            return None;
        }
        self.ws();
        match self.peek()? {
            'n' => self.eat("null").then_some(Json::Null),
            't' => self.eat("true").then_some(Json::Bool(true)),
            'f' => self.eat("false").then_some(Json::Bool(false)),
            '"' => self.string().map(Json::Str),
            '[' => {
                self.bump();
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(']') {
                    self.bump();
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    match self.bump()? {
                        ',' => continue,
                        ']' => return Some(Json::Arr(items)),
                        _ => return None,
                    }
                }
            }
            '{' => {
                self.bump();
                let mut fields = Vec::new();
                self.ws();
                if self.peek() == Some('}') {
                    self.bump();
                    return Some(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if self.bump()? != ':' {
                        return None;
                    }
                    fields.push((key, self.value(depth + 1)?));
                    self.ws();
                    match self.bump()? {
                        ',' => continue,
                        '}' => return Some(Json::Obj(fields)),
                        _ => return None,
                    }
                }
            }
            c if c == '-' || c.is_ascii_digit() => self.number(),
            _ => None,
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.bump()? != '"' {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.bump()? {
                '"' => return Some(out),
                '\\' => match self.bump()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?.to_digit(16)?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.i;
        if self.peek() == Some('-') {
            self.bump();
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.bump();
        }
        let text: String = self.c[start..self.i].iter().collect();
        text.parse::<f64>().ok().map(Json::Num)
    }
}
