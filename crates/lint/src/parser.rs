//! A dependency-free recursive-descent parser over the lexer's token
//! stream, producing a lightweight item/statement tree.
//!
//! The tree is deliberately partial: it models exactly what the
//! dataflow rules need — `fn` items with signatures (name, params,
//! return type, attributes, visibility), `use` declarations, inline
//! modules and `impl` blocks, and statement-level structure inside
//! function bodies (`let` bindings with their patterns, expression
//! statements with or without `;`, nested blocks). Expression
//! *interiors* stay as token ranges into the file's code stream;
//! [`crate::dataflow`] walks those ranges with structural helpers.
//!
//! Invariants (checked by a property test): `parse` never panics on any
//! token stream the lexer can produce, and every statement's token
//! range lies inside its enclosing block's range.

use crate::lexer::{Tok, TokKind};

/// Parsed view of one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item (top-level or nested).
#[derive(Debug)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// 1-based line of the item's first token (attributes included).
    pub line: u32,
    /// Whether the item is `pub` (any visibility scope).
    pub is_pub: bool,
    /// Flattened attribute texts, e.g. `must_use`, `cfg ( test )`.
    pub attrs: Vec<String>,
}

/// Item classification.
#[derive(Debug)]
pub enum ItemKind {
    /// A function or method.
    Fn(FnItem),
    /// A `use` declaration with its flattened path text.
    Use {
        /// Flattened path, e.g. `std :: collections :: HashMap`.
        path: String,
    },
    /// An inline module with its child items.
    Mod {
        /// Module name (empty for `mod name;` out-of-line forms).
        name: String,
        /// Child items (empty for out-of-line modules).
        items: Vec<Item>,
    },
    /// An `impl` block; its methods appear as child items.
    Impl {
        /// Head identifier of the implemented-on type: `Foo` for
        /// `impl Foo<T>` and for `impl Trait for Foo`. Empty when the
        /// head is not a plain identifier (e.g. `impl &Foo`).
        type_name: String,
        /// Child items (methods, associated consts).
        items: Vec<Item>,
    },
    /// Anything else (struct, enum, trait, const, static, type, …).
    Other {
        /// The declared name when one follows the keyword.
        name: Option<String>,
    },
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Parameters (excluding any `self` receiver).
    pub params: Vec<Param>,
    /// Whether the fn takes a `self` receiver (it is a method).
    pub has_self: bool,
    /// Flattened return type text; empty when the fn returns `()`.
    pub ret: String,
    /// Body, when present (trait declarations have none).
    pub body: Option<Block>,
}

impl FnItem {
    /// Leading type name of the return type: the last path segment
    /// before any generic arguments. `io :: Result < Report >` and
    /// `Result < T , E >` both yield `Result`; an empty return type
    /// yields `""`.
    pub fn ret_head(&self) -> &str {
        let mut head = "";
        for word in self.ret.split_whitespace() {
            match word {
                "<" | "(" => break,
                ":" | "&" | "'" => continue,
                w if w.chars().all(|c| c == ':') => continue,
                w => {
                    if w.starts_with('<') || w.starts_with('(') {
                        break;
                    }
                    head = w;
                }
            }
        }
        head
    }
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// Binding name (last identifier of the pattern before the `:`).
    pub name: String,
    /// Flattened type text, e.g. `& mut DetRng`.
    pub ty: String,
}

/// A `{ … }` block: statements plus the token range it covers.
#[derive(Debug)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// Token index of the opening `{` in the file's code stream.
    pub start: usize,
    /// Token index one past the closing `}` (exclusive).
    pub end: usize,
}

/// One statement inside a block.
#[derive(Debug)]
pub struct Stmt {
    /// Statement classification.
    pub kind: StmtKind,
    /// 1-based line of the statement's first token.
    pub line: u32,
    /// Token index of the statement's first token.
    pub start: usize,
    /// Token index one past the statement's last token (the `;` when
    /// present is included in the range).
    pub end: usize,
    /// Brace-delimited sub-blocks of this statement (`if`/`match`
    /// bodies, closure bodies, …), parsed recursively.
    pub nested: Vec<Block>,
}

/// Statement classification.
#[derive(Debug)]
pub enum StmtKind {
    /// A `let` binding.
    Let {
        /// Binding name when the pattern is a single identifier.
        name: Option<String>,
        /// Whether the binding is `let mut`.
        is_mut: bool,
        /// Whether the pattern is exactly `_` (an explicit discard).
        discard: bool,
        /// Token index of the initializer's first token, when present.
        init_start: Option<usize>,
    },
    /// An expression statement; `has_semi` distinguishes `expr;` from a
    /// trailing expression.
    Expr {
        /// Whether the statement ends in `;`.
        has_semi: bool,
    },
    /// A nested item (fn, mod, use, …) in statement position.
    Item(Box<Item>),
}

/// Keywords that open an item when seen in item or statement position.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "use", "mod", "impl", "struct", "enum", "trait", "type", "static", "extern", "macro",
];

/// Parses a code-token stream (comments already stripped) into the
/// item/statement tree. Best-effort and total: malformed input degrades
/// into `Other` items or opaque statements, never a panic.
pub fn parse(toks: &[Tok]) -> ParsedFile {
    let mut p = Parser { toks, i: 0 };
    ParsedFile {
        items: p.parse_items(None),
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    i: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self, ahead: usize) -> Option<&'a Tok> {
        self.toks.get(self.i + ahead)
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek(0).is_some_and(|t| t.is_punct(c))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek(0).is_some_and(|t| t.is_ident(s))
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.i);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn line(&self) -> u32 {
        self.peek(0).map_or(0, |t| t.line)
    }

    /// Parses items until end of input or an unmatched `}` (when
    /// `closing` is set, the `}` is consumed).
    fn parse_items(&mut self, closing: Option<char>) -> Vec<Item> {
        let mut items = Vec::new();
        let mut guard = self.i;
        while let Some(t) = self.peek(0) {
            if let Some(c) = closing {
                if t.is_punct(c) {
                    self.bump();
                    break;
                }
            }
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
            // Forward-progress guarantee even on degenerate input.
            if self.i == guard {
                self.bump();
            }
            guard = self.i;
        }
        items
    }

    /// Parses one item starting at the current token.
    fn parse_item(&mut self) -> Option<Item> {
        let line = self.line();
        let attrs = self.parse_attrs();
        let is_pub = self.parse_visibility();
        // Qualifiers before `fn`.
        while self.at_ident("const") && self.peek(1).is_some_and(|t| t.is_ident("fn"))
            || self.at_ident("async")
            || self.at_ident("unsafe")
        {
            self.bump();
        }
        let kind = if self.at_ident("fn") {
            self.bump();
            ItemKind::Fn(self.parse_fn())
        } else if self.at_ident("use") {
            self.bump();
            let mut path = String::new();
            while let Some(t) = self.peek(0) {
                if t.is_punct(';') {
                    self.bump();
                    break;
                }
                if !path.is_empty() {
                    path.push(' ');
                }
                path.push_str(&t.text);
                self.bump();
            }
            ItemKind::Use { path }
        } else if self.at_ident("mod") {
            self.bump();
            let name = match self.peek(0) {
                Some(t) if t.kind == TokKind::Ident => {
                    let n = t.text.clone();
                    self.bump();
                    n
                }
                _ => String::new(),
            };
            if self.at_punct('{') {
                self.bump();
                ItemKind::Mod {
                    name,
                    items: self.parse_items(Some('}')),
                }
            } else {
                if self.at_punct(';') {
                    self.bump();
                }
                ItemKind::Mod {
                    name,
                    items: Vec::new(),
                }
            }
        } else if self.at_ident("impl") {
            self.bump();
            self.skip_generics();
            // Scan the head — the type (and optional `for Type`) plus
            // any where clause — up to the body `{`, capturing the
            // implemented-on type's name for call resolution.
            let type_name = self.impl_head_type();
            if self.at_punct('{') {
                self.bump();
                ItemKind::Impl {
                    type_name,
                    items: self.parse_items(Some('}')),
                }
            } else {
                ItemKind::Impl {
                    type_name,
                    items: Vec::new(),
                }
            }
        } else if self
            .peek(0)
            .is_some_and(|t| ITEM_KEYWORDS.iter().any(|k| t.is_ident(k)))
        {
            let name = self
                .peek(1)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
            self.bump();
            self.skip_item_rest();
            ItemKind::Other { name }
        } else {
            // Not an item; let the caller decide what to do.
            return None;
        };
        Some(Item {
            kind,
            line,
            is_pub,
            attrs,
        })
    }

    /// Collects leading `#[…]` / `#![…]` attributes, flattened.
    fn parse_attrs(&mut self) -> Vec<String> {
        let mut attrs = Vec::new();
        while self.at_punct('#') {
            let mut j = self.i + 1;
            if self.toks.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if !self.toks.get(j).is_some_and(|t| t.is_punct('[')) {
                break;
            }
            let mut depth = 0i32;
            let mut text = String::new();
            while let Some(t) = self.toks.get(j) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                if depth >= 1 && !(depth == 1 && t.is_punct('[')) {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    text.push_str(&t.text);
                }
                j += 1;
            }
            attrs.push(text);
            self.i = j;
        }
        attrs
    }

    /// Consumes `pub`, `pub(crate)`, `pub(in path)`, …
    fn parse_visibility(&mut self) -> bool {
        if !self.at_ident("pub") {
            return false;
        }
        self.bump();
        if self.at_punct('(') {
            let mut depth = 0i32;
            while let Some(t) = self.bump() {
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
        }
        true
    }

    /// Parses a fn from just after the `fn` keyword.
    fn parse_fn(&mut self) -> FnItem {
        let name = match self.peek(0) {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                self.bump();
                n
            }
            _ => String::new(),
        };
        self.skip_generics();
        let (params, has_self) = self.parse_params();
        let ret = self.parse_return_type();
        // Skip a where clause.
        if self.at_ident("where") {
            self.skip_until_body();
        }
        let body = if self.at_punct('{') {
            Some(self.parse_block())
        } else {
            if self.at_punct(';') {
                self.bump();
            }
            None
        };
        FnItem {
            name,
            params,
            has_self,
            ret,
            body,
        }
    }

    /// Skips `<…>` generics if present, tolerating `->` arrows inside
    /// (`F: Fn(&T) -> bool`): the `>` of an arrow never closes a depth.
    fn skip_generics(&mut self) {
        if !self.at_punct('<') {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.peek(0) {
            if t.is_punct('-') && self.peek(1).is_some_and(|n| n.is_punct('>')) {
                self.bump();
                self.bump();
                continue;
            }
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Parses the parenthesized parameter list.
    fn parse_params(&mut self) -> (Vec<Param>, bool) {
        let mut params = Vec::new();
        let mut has_self = false;
        if !self.at_punct('(') {
            return (params, has_self);
        }
        self.bump();
        let mut depth = 1i32;
        // Accumulate one parameter's tokens at a time, split on
        // top-level commas.
        let mut cur: Vec<&Tok> = Vec::new();
        while let Some(t) = self.peek(0) {
            // `-> bool` inside an `impl Fn(&T) -> bool` param: the `>`
            // of an arrow never closes a depth.
            if t.is_punct('-') && self.peek(1).is_some_and(|n| n.is_punct('>')) {
                cur.push(t);
                self.bump();
                if let Some(gt) = self.peek(0) {
                    cur.push(gt);
                }
                self.bump();
                continue;
            }
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    "<" => depth += 1,
                    ">" => {
                        // `->` cannot appear at param top level; `>`
                        // only closes generic depth.
                        depth -= 1;
                    }
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            self.bump();
                            if let Some(p) = finish_param(&cur) {
                                if p.name == "self" || p.ty.ends_with("self") {
                                    has_self = true;
                                } else {
                                    params.push(p);
                                }
                            }
                            break;
                        }
                    }
                    "," if depth == 1 => {
                        if let Some(p) = finish_param(&cur) {
                            if p.name == "self" || p.ty.ends_with("self") {
                                has_self = true;
                            } else {
                                params.push(p);
                            }
                        }
                        cur.clear();
                        self.bump();
                        continue;
                    }
                    _ => {}
                }
            }
            cur.push(t);
            self.bump();
        }
        (params, has_self)
    }

    /// Parses `-> Type` up to the body `{`, a `;`, or a `where`.
    fn parse_return_type(&mut self) -> String {
        if !(self.at_punct('-') && self.peek(1).is_some_and(|t| t.is_punct('>'))) {
            return String::new();
        }
        self.bump();
        self.bump();
        let mut out = String::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek(0) {
            if depth == 0 && (t.is_punct('{') || t.is_punct(';') || t.is_ident("where")) {
                break;
            }
            if t.is_punct('-') && self.peek(1).is_some_and(|n| n.is_punct('>')) {
                out.push_str(" - >");
                self.bump();
                self.bump();
                continue;
            }
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                _ => {}
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&t.text);
            self.bump();
        }
        out
    }

    /// Consumes an `impl` head (after its generics) up to the body `{`
    /// or a `;`, returning the head identifier of the implemented-on
    /// type: the last depth-0 path segment before the body, with the
    /// trait part of `impl Trait for Type` discarded and the `where`
    /// clause ignored.
    fn impl_head_type(&mut self) -> String {
        let mut name = String::new();
        let mut depth = 0i32;
        let mut in_where = false;
        while let Some(t) = self.peek(0) {
            if t.is_punct('-') && self.peek(1).is_some_and(|n| n.is_punct('>')) {
                self.bump();
                self.bump();
                continue;
            }
            if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
                return name;
            }
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                _ => {}
            }
            if depth == 0 && t.kind == TokKind::Ident {
                if t.is_ident("for") {
                    // `impl Trait for Type`: everything so far named the
                    // trait; the type follows.
                    name.clear();
                } else if t.is_ident("where") {
                    in_where = true;
                } else if !in_where {
                    name = t.text.clone();
                }
            }
            self.bump();
        }
        name
    }

    /// Skips tokens until a top-level `{` or `;` (neither consumed
    /// unless it is the `;`).
    fn skip_until_body(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek(0) {
            if t.is_punct('-') && self.peek(1).is_some_and(|n| n.is_punct('>')) {
                self.bump();
                self.bump();
                continue;
            }
            if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
                return;
            }
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                _ => {}
            }
            self.bump();
        }
    }

    /// Skips the remainder of a non-fn item: through a top-level `;`,
    /// or through a balanced `{ … }` body.
    fn skip_item_rest(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek(0) {
            if t.is_punct('-') && self.peek(1).is_some_and(|n| n.is_punct('>')) {
                self.bump();
                self.bump();
                continue;
            }
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    ";" if depth == 0 => {
                        self.bump();
                        return;
                    }
                    "{" => {
                        // Item body: consume the balanced braces and stop.
                        if depth == 0 {
                            self.skip_balanced_braces();
                            return;
                        }
                        depth += 1;
                    }
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" | "}" => depth -= 1,
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Consumes a balanced `{ … }` starting at the current `{`.
    fn skip_balanced_braces(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek(0) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Parses a block starting at the current `{`.
    fn parse_block(&mut self) -> Block {
        let start = self.i;
        self.bump(); // '{'
        let mut stmts = Vec::new();
        let mut guard = self.i;
        while let Some(t) = self.peek(0) {
            if t.is_punct('}') {
                self.bump();
                break;
            }
            if t.is_punct(';') {
                // Stray empty statement.
                self.bump();
                continue;
            }
            stmts.push(self.parse_stmt());
            if self.i == guard {
                self.bump();
            }
            guard = self.i;
        }
        Block {
            stmts,
            start,
            end: self.i,
        }
    }

    /// Parses one statement inside a block.
    fn parse_stmt(&mut self) -> Stmt {
        let start = self.i;
        let line = self.line();
        // Nested item? (Possibly attribute-prefixed.)
        if self.stmt_opens_item() {
            if let Some(item) = self.parse_item() {
                return Stmt {
                    kind: StmtKind::Item(Box::new(item)),
                    line,
                    start,
                    end: self.i,
                    nested: Vec::new(),
                };
            }
        }
        if self.at_ident("let") {
            return self.parse_let_stmt(start, line);
        }
        let (end, has_semi, nested) = self.consume_expr_stmt();
        Stmt {
            kind: StmtKind::Expr { has_semi },
            line,
            start,
            end,
            nested,
        }
    }

    /// Whether the current position starts a nested item rather than an
    /// expression. `const` is an item only outside expression position
    /// (a `const {}` block or closure qualifier is rare; treat `const`
    /// followed by an identifier as an item).
    fn stmt_opens_item(&mut self) -> bool {
        let mut j = self.i;
        // Look past attributes.
        while self.toks.get(j).is_some_and(|t| t.is_punct('#'))
            && self.toks.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut depth = 0i32;
            while let Some(t) = self.toks.get(j) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        let Some(t) = self.toks.get(j) else {
            return false;
        };
        if t.is_ident("pub") {
            return true;
        }
        if t.is_ident("const") {
            return self
                .toks
                .get(j + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && !n.is_ident("fn"))
                || self.toks.get(j + 1).is_some_and(|n| n.is_ident("fn"));
        }
        ITEM_KEYWORDS.iter().any(|k| t.is_ident(k))
    }

    /// Parses a `let` statement from the `let` keyword.
    fn parse_let_stmt(&mut self, start: usize, line: u32) -> Stmt {
        self.bump(); // `let`
        let is_mut = if self.at_ident("mut") {
            self.bump();
            true
        } else {
            false
        };
        // Pattern: tokens until a top-level `=` (single, not `==`) or `;`.
        let mut pat_idents: Vec<String> = Vec::new();
        let mut pat_len = 0usize;
        let mut depth = 0i32;
        let mut init_start = None;
        while let Some(t) = self.peek(0) {
            if depth == 0 && t.is_punct(';') {
                break;
            }
            if depth == 0
                && t.is_punct('=')
                && !self.peek(1).is_some_and(|n| n.is_punct('='))
                && !self.peek(1).is_some_and(|n| n.is_punct('>'))
            {
                self.bump();
                init_start = Some(self.i);
                break;
            }
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                _ => {}
            }
            if t.kind == TokKind::Ident {
                pat_idents.push(t.text.clone());
            }
            pat_len += 1;
            self.bump();
        }
        let discard = pat_len >= 1
            && pat_idents.len() == 1
            && pat_idents.first().is_some_and(|s| s == "_")
            && init_start.is_some();
        // A single-identifier pattern (`let [mut] name = …` or
        // `let name: Ty = …`) yields a binding name.
        let name = if pat_idents.len() == 1 && !discard {
            pat_idents.pop()
        } else if pat_idents.len() > 1 {
            // `let name: Vec<u32> = …` — type idents follow the binding.
            pat_idents.into_iter().next().filter(|n| n != "_")
        } else {
            None
        };
        // Initializer (and `let … else { }` tail) to the closing `;`.
        let (end, _semi, nested) = self.consume_expr_stmt();
        Stmt {
            kind: StmtKind::Let {
                name,
                is_mut,
                discard,
                init_start,
            },
            line,
            start,
            end,
            nested,
        }
    }

    /// Consumes an expression statement: through a top-level `;`, or to
    /// the end of a block-formed expression (`if`/`match`/`for`/… whose
    /// closing `}` is not followed by an expression continuation).
    /// Returns (end, has_semi, nested sub-blocks parsed recursively).
    fn consume_expr_stmt(&mut self) -> (usize, bool, Vec<Block>) {
        let mut nested = Vec::new();
        let mut depth = 0i32;
        loop {
            let Some(t) = self.peek(0) else {
                return (self.i, false, nested);
            };
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    ";" if depth == 0 => {
                        self.bump();
                        return (self.i, true, nested);
                    }
                    "{" if depth == 0 => {
                        // Sub-block: parse recursively, then decide
                        // whether the statement continues.
                        let block = self.parse_block();
                        nested.push(block);
                        if self.stmt_continues_after_block() {
                            continue;
                        }
                        return (self.i, false, nested);
                    }
                    "}" if depth == 0 => {
                        // Enclosing block closes; statement ends here
                        // (the `}` belongs to the caller).
                        return (self.i, false, nested);
                    }
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    _ => {}
                }
                if depth < 0 {
                    return (self.i, false, nested);
                }
            }
            self.bump();
        }
    }

    /// After a depth-0 sub-block, does the statement continue? (`else`,
    /// a method call on the block value, an operator, a match arm…)
    fn stmt_continues_after_block(&mut self) -> bool {
        let Some(t) = self.peek(0) else {
            return false;
        };
        if t.is_ident("else") {
            return true;
        }
        if t.kind == TokKind::Punct {
            return matches!(
                t.text.as_str(),
                "." | "?" | ";" | "+" | "-" | "*" | "/" | "=" | "<" | ">" | "&" | "|"
            );
        }
        false
    }
}

/// Builds a [`Param`] from one parameter's token slice.
fn finish_param(toks: &[&Tok]) -> Option<Param> {
    if toks.is_empty() {
        return None;
    }
    if toks.len() <= 2 && toks.iter().any(|t| t.is_ident("self")) {
        return Some(Param {
            name: "self".to_string(),
            ty: String::new(),
        });
    }
    // Split on the first top-level `:` (not `::`).
    let mut depth = 0i32;
    let mut split = None;
    let mut k = 0usize;
    while k < toks.len() {
        let t = toks[k];
        match t.text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            ":" if depth == 0 => {
                if toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                    || (k > 0 && toks[k - 1].is_punct(':'))
                {
                    // path `::`
                } else {
                    split = Some(k);
                    break;
                }
            }
            _ => {}
        }
        k += 1;
    }
    let (pat, ty) = match split {
        Some(k) => (&toks[..k], &toks[k + 1..]),
        None => (toks, &toks[..0]),
    };
    let name = pat
        .iter()
        .rev()
        .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))
        .map(|t| t.text.clone())
        .unwrap_or_default();
    let ty = ty
        .iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    Some(Param { name, ty })
}

/// Walks every fn item in the tree — fns nested in mods, impls and
/// other fns' bodies included — invoking `f` with the item, its fn data
/// and the head type of its enclosing `impl` block (empty for free fns;
/// a fn nested in a mod or a body is free).
pub fn walk_fns<'a>(items: &'a [Item], f: &mut dyn FnMut(&'a Item, &'a FnItem, &str)) {
    walk_items(items, "", f);
}

fn walk_items<'a>(
    items: &'a [Item],
    impl_type: &str,
    f: &mut dyn FnMut(&'a Item, &'a FnItem, &str),
) {
    for item in items {
        match &item.kind {
            ItemKind::Fn(func) => {
                f(item, func, impl_type);
                if let Some(body) = &func.body {
                    walk_body_items(body, f);
                }
            }
            ItemKind::Mod { items, .. } => walk_items(items, "", f),
            ItemKind::Impl { type_name, items } => walk_items(items, type_name, f),
            _ => {}
        }
    }
}

fn walk_body_items<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Item, &'a FnItem, &str)) {
    for stmt in &block.stmts {
        if let StmtKind::Item(item) = &stmt.kind {
            walk_items(std::slice::from_ref(&**item), "", f);
        }
        for b in &stmt.nested {
            walk_body_items(b, f);
        }
    }
}

/// Walks every block of a fn body (the body itself plus all nested
/// sub-blocks, recursively), invoking `f` on each. Bodies of *nested
/// fn items* are not visited — [`walk_fns`] enumerates those as
/// separate functions, so visiting them here would double-count.
pub fn walk_blocks<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Block)) {
    f(block);
    for stmt in &block.stmts {
        for b in &stmt.nested {
            walk_blocks(b, f);
        }
    }
}
