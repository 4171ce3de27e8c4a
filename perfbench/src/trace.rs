//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and for
//! serve the id of the request it belongs to. Phase totals drained from
//! `webdeps_model::timing` are attached to the span they ran under and
//! count as its children. Nothing is written until [`Tracer::write`].

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// A `webdeps_model::timing` label total drained under a span.
pub struct Phase {
    pub span: usize,
    pub label: &'static str,
    pub ms: f64,
    pub count: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    phases: Vec<Phase>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            phases: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one and turns phase timing
    /// on, so program phases inside it are recorded.
    pub fn begin(&mut self, name: &str) -> usize {
        webdeps_model::timing::enable();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request: None,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (the innermost open one) and attaches the phase
    /// totals the program recorded while it was open.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.retain(|&o| o != id);
        for sample in webdeps_model::timing::drain() {
            self.phases.push(Phase {
                span: id,
                label: sample.label,
                ms: sample.elapsed.as_secs_f64() * 1e3,
                count: sample.count,
            });
        }
        if self.open.is_empty() {
            webdeps_model::timing::disable();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a finished span measured elsewhere (a load-generator
    /// request).
    pub fn add(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) {
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
    }

    /// Self time of span `id`: its duration minus the part covered by
    /// child spans and by drained program phases, in ms.
    pub fn self_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let phases: f64 = self
            .phases
            .iter()
            .filter(|p| p.span == id)
            .map(|p| p.ms)
            .sum();
        (s.end_ns - s.start_ns - covered) as f64 / 1e6 - phases
    }

    /// Summed self time of every span named `name`, in ms.
    pub fn self_ms_named(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ms(i))
            .sum()
    }

    /// Summed time of program phase `label` across all spans, in ms.
    pub fn phase_ms(&self, label: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.label == label)
            .map(|p| p.ms)
            .sum()
    }

    /// Writes every span and phase, plus `extra` top-level JSON members,
    /// to `path` as one JSON document.
    pub fn write(&self, path: &std::path::Path, extra: &[(&str, String)]) -> std::io::Result<()> {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::from("{\n");
        for (key, json) in extra {
            let _ = writeln!(out, "  {}: {json},", json_str(key));
        }
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                json_str(&s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"span\": {}, \"label\": {}, \"ms\": {}, \"count\": {}}}",
                p.span,
                json_str(p.label),
                p.ms,
                p.count
            );
            out.push_str(if i + 1 < self.phases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let base = t.origin;
        let at = |ms: u64| base + Duration::from_millis(ms);
        t.add("root", at(0), at(100), None, None);
        t.add("a", at(10), at(40), Some(0), Some(1));
        t.add("b", at(30), at(50), Some(0), Some(2));
        t.add("c", at(90), at(120), Some(0), None);
        // Children cover 10..50 and 90..100: 50 ms of 100.
        assert!((t.self_ms(0) - 50.0).abs() < 1e-9);
        assert!((t.self_ms_named("a") - 30.0).abs() < 1e-9);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
