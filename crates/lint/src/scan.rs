//! Per-file analysis context: code/comment token streams, test-region
//! detection, `lint:allow` suppression parsing, and the file's hazard
//! sites.

use crate::config;
use crate::interproc::NHAZ;
use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{self, Site};

/// A parsed `// lint:allow(rule, …) — reason` directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rules the directive names.
    pub rules: Vec<String>,
    /// Free-text justification after the rule list.
    pub reason: String,
    /// Line the directive appears on.
    pub line: u32,
    /// Inclusive line range of code the directive covers. For
    /// file-level directives this is the whole file.
    pub covers: (u32, u32),
    /// Whether this is a `lint:allow-file` directive.
    pub file_level: bool,
}

/// A malformed suppression (empty reason or unknown rule name); these
/// are themselves reported as `allow-syntax` violations.
#[derive(Debug, Clone)]
pub struct BadAllow {
    /// Line of the malformed directive.
    pub line: u32,
    /// What is wrong with it.
    pub problem: String,
}

/// Everything the rules need to know about one source file.
pub struct FileCtx {
    /// Repo-relative path with forward slashes.
    pub rel_path: String,
    /// Workspace crate this file belongs to (`crates/<name>/…`), or
    /// `None` for files of the root facade package.
    pub crate_name: Option<String>,
    /// Source lines, for diagnostics snippets.
    pub lines: Vec<String>,
    /// Non-comment tokens.
    pub code: Vec<Tok>,
    /// Comment tokens only.
    pub comments: Vec<Tok>,
    /// Per-line flag: line is inside a `#[cfg(test)]` module or a
    /// `#[test]` function.
    pub test_lines: Vec<bool>,
    /// File lives under `tests/`, `benches/`, or `examples/`.
    pub in_test_tree: bool,
    /// File is a binary target (`src/main.rs` or `src/bin/…`).
    pub is_bin: bool,
    /// Parsed well-formed suppressions.
    pub suppressions: Vec<Suppression>,
    /// Malformed suppressions.
    pub bad_allows: Vec<BadAllow>,
    /// Hazard sites per kind ([`crate::interproc::H_PANIC`], …), in
    /// token order: found once, reported by the per-file rules and
    /// attributed to fns by [`crate::interproc::extract`].
    pub hazards: [Vec<Site>; NHAZ],
}

/// The workspace crate a repo-relative path belongs to
/// (`crates/<name>/…`), or `None` for the root package.
pub fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
}

impl FileCtx {
    /// Builds the context for one file.
    pub fn new(rel_path: &str, src: &str) -> FileCtx {
        let toks = lex(src);
        let mut code = Vec::new();
        let mut comments = Vec::new();
        for t in toks {
            if t.is_comment() {
                comments.push(t);
            } else {
                code.push(t);
            }
        }
        let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
        let nlines = lines.len();
        let test_lines = mark_test_lines(&code, nlines);
        let path = rel_path.replace('\\', "/");
        let crate_name = crate_of(&path).map(str::to_string);
        let in_test_tree = path
            .split('/')
            .any(|seg| matches!(seg, "tests" | "benches" | "examples"));
        let is_bin = path.ends_with("src/main.rs") || path.contains("/bin/");
        let mut ctx = FileCtx {
            rel_path: path,
            crate_name,
            lines,
            code,
            comments,
            test_lines,
            in_test_tree,
            is_bin,
            suppressions: Vec::new(),
            bad_allows: Vec::new(),
            hazards: Default::default(),
        };
        ctx.collect_suppressions();
        ctx.hazards = rules::hazard_sites(&ctx);
        ctx
    }

    /// Whether `line` (1-based) is inside detected test code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.in_test_tree
            || self
                .test_lines
                .get((line as usize).saturating_sub(1))
                .copied()
                .unwrap_or(false)
    }

    /// The trimmed source text of `line` (1-based), for diagnostics.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get((line as usize).saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn collect_suppressions(&mut self) {
        let mut parsed = Vec::new();
        for (i, c) in self.comments.iter().enumerate() {
            if c.is_doc_comment() {
                continue;
            }
            let Some((mut sup, problems)) = parse_allow(&c.text, c.line) else {
                continue;
            };
            // A reason may wrap onto following comment-only lines; a
            // directive on its own line re-attaches those continuation
            // lines to its reason.
            if !sup.reason.is_empty() && !self.line_has_code(c.line) {
                let mut prev_line = c.line;
                for cont in &self.comments[i + 1..] {
                    if cont.kind != TokKind::LineComment
                        || cont.line != prev_line + 1
                        || cont.is_doc_comment()
                        || cont.text.contains("lint:allow")
                        || self.line_has_code(cont.line)
                    {
                        break;
                    }
                    let text = cont.text.trim_start_matches('/').trim();
                    if text.is_empty() {
                        break;
                    }
                    sup.reason.push(' ');
                    sup.reason.push_str(text);
                    prev_line = cont.line;
                }
            }
            parsed.push((sup, problems));
        }
        let nlines = self.lines.len() as u32;
        for (mut sup, problems) in parsed {
            for problem in problems {
                self.bad_allows.push(BadAllow {
                    line: sup.line,
                    problem,
                });
            }
            if sup.rules.is_empty() {
                continue;
            }
            sup.covers = if sup.file_level {
                (1, nlines.max(1))
            } else if self.line_has_code(sup.line) {
                (sup.line, sup.line)
            } else {
                self.next_statement_range(sup.line)
            };
            self.suppressions.push(sup);
        }
    }

    fn line_has_code(&self, line: u32) -> bool {
        self.code.iter().any(|t| t.line == line)
    }

    /// Line range of the first statement/item starting after `line`:
    /// from its first token through the `;` or brace that closes it.
    fn next_statement_range(&self, line: u32) -> (u32, u32) {
        let start = match self.code.iter().position(|t| t.line > line) {
            Some(i) => i,
            None => return (line + 1, line + 1),
        };
        let first_line = self.code[start].line;
        let mut depth = 0i32;
        let mut last_line = first_line;
        for t in &self.code[start..] {
            last_line = t.line;
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "}" => {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                if depth < 0 {
                    break;
                }
            }
            // Safety valve: a directive should never stretch far.
            if last_line > first_line + 40 {
                break;
            }
        }
        (first_line, last_line)
    }
}

/// Parses a `lint:allow(…)` / `lint:allow-file(…)` directive out of a
/// comment. Returns the suppression plus any syntax problems found.
fn parse_allow(comment: &str, line: u32) -> Option<(Suppression, Vec<String>)> {
    let (file_level, tail) = if let Some(t) = comment.split("lint:allow-file(").nth(1) {
        (true, t)
    } else if let Some(t) = comment.split("lint:allow(").nth(1) {
        (false, t)
    } else {
        return None;
    };
    let mut problems = Vec::new();
    let Some((list, rest)) = tail.split_once(')') else {
        problems.push("unterminated rule list (missing `)`)".to_string());
        return Some((
            Suppression {
                rules: Vec::new(),
                reason: String::new(),
                line,
                covers: (0, 0),
                file_level,
            },
            problems,
        ));
    };
    let mut rules = Vec::new();
    for raw in list.split(',') {
        let name = raw.trim();
        if name.is_empty() {
            continue;
        }
        if config::rule_names().contains(&name) {
            rules.push(name.to_string());
        } else {
            problems.push(format!("unknown rule {name:?} in lint:allow"));
        }
    }
    if rules.is_empty() && problems.is_empty() {
        problems.push("empty rule list in lint:allow".to_string());
    }
    let reason = rest
        .trim_start_matches(|c: char| {
            c.is_whitespace() || c == '—' || c == '-' || c == '–' || c == ':'
        })
        .trim_end_matches("*/")
        .trim()
        .to_string();
    if reason.is_empty() {
        problems.push("lint:allow requires a reason after the rule list".to_string());
    }
    Some((
        Suppression {
            rules,
            reason,
            line,
            covers: (0, 0),
            file_level,
        },
        problems,
    ))
}

/// Marks every line covered by `#[cfg(test)] mod … { }` blocks and
/// `#[test] fn … { }` bodies.
fn mark_test_lines(code: &[Tok], nlines: usize) -> Vec<bool> {
    let mut marked = vec![false; nlines.max(1)];
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].is_punct('#') {
            i += 1;
            continue;
        }
        // Inner attribute `#![…]`: skip without item lookahead.
        if code.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            i = skip_attr_brackets(code, i + 2);
            continue;
        }
        // One or more consecutive outer attributes.
        let attr_start = i;
        let mut is_test = false;
        while code.get(i).is_some_and(|t| t.is_punct('#'))
            && code.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            let end = skip_attr_brackets(code, i + 1);
            is_test |= attr_marks_test(&code[i + 1..end]);
            i = end;
        }
        if i == attr_start {
            i += 1;
            continue;
        }
        if !is_test {
            continue;
        }
        let Some((_, close)) = item_body(code, i) else {
            continue;
        };
        for line in code[attr_start].line..=code[close].line {
            if let Some(slot) = marked.get_mut((line as usize).saturating_sub(1)) {
                *slot = true;
            }
        }
        i = close.max(i) + 1;
    }
    marked
}

/// The body of the item whose header starts at token `from`: the first
/// `{` outside brackets before a top-level `;` opens it, and the
/// matching `}` (or the last token, when unterminated) closes it.
/// Returns `(open, close)`, or `None` for a bodiless item.
pub(crate) fn item_body(code: &[Tok], from: usize) -> Option<(usize, usize)> {
    let mut paren = 0i32;
    let mut open = None;
    for (j, t) in code.iter().enumerate().skip(from) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            ";" if paren == 0 => return None,
            "{" if paren == 0 => {
                open = Some(j);
                break;
            }
            _ => {}
        }
    }
    let open = open?;
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some((open, k));
            }
        }
    }
    Some((open, code.len() - 1))
}

/// Skips a bracketed attribute body starting at the index of its `[`,
/// returning the index just past the matching `]`.
fn skip_attr_brackets(code: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while let Some(t) = code.get(j) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    code.len()
}

/// Whether an attribute token slice marks test-only code: it mentions
/// `test` and is not negated (`cfg(not(test))`).
fn attr_marks_test(attr: &[Tok]) -> bool {
    let has_test = attr.iter().any(|t| t.is_ident("test"));
    let negated = attr.iter().any(|t| t.is_ident("not"));
    has_test && !negated
}
