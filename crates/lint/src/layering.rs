//! Manifest-side checks: the crate DAG over `Cargo.toml`
//! `[dependencies]` edges, dev-only crate enforcement, and the
//! hermetic-build rule that no external dependency may appear.

use crate::config::{self, Config};
use crate::diag::{Severity, Violation};

/// One dependency entry parsed out of a manifest.
#[derive(Debug, Clone)]
struct ManifestDep {
    name: String,
    line: u32,
    section: Section,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Dependencies,
    DevDependencies,
    BuildDependencies,
    /// `[workspace.dependencies]` — a version catalog, not an edge;
    /// only hermeticity applies.
    WorkspaceDeps,
    Other,
}

/// Minimal line-oriented TOML scan: tracks `[section]` headers and
/// collects `name = …` / `name.workspace = true` keys inside
/// dependency sections. Ignores everything else.
fn parse_manifest_deps(src: &str) -> Vec<ManifestDep> {
    let mut out = Vec::new();
    let mut section = Section::Other;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            let header = line.trim_matches(|c| c == '[' || c == ']');
            section = match header {
                "workspace.dependencies" => Section::WorkspaceDeps,
                "dependencies" => Section::Dependencies,
                "dev-dependencies" => Section::DevDependencies,
                "build-dependencies" => Section::BuildDependencies,
                h if h.starts_with("dependencies.") => Section::Dependencies,
                h if h.starts_with("dev-dependencies.") => Section::DevDependencies,
                _ => Section::Other,
            };
            // `[dependencies.foo]` style declares `foo` itself.
            if let Some(name) = header
                .strip_prefix("dependencies.")
                .or_else(|| header.strip_prefix("dev-dependencies."))
            {
                out.push(ManifestDep {
                    name: name.to_string(),
                    line: idx as u32 + 1,
                    section,
                });
            }
            continue;
        }
        if section == Section::Other || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(key) = line.split('=').next() else {
            continue;
        };
        let name = key.trim().trim_matches('"');
        // `foo.workspace = true` keys carry the crate name first.
        let name = name.split('.').next().unwrap_or(name).trim();
        if name.is_empty() {
            continue;
        }
        out.push(ManifestDep {
            name: name.to_string(),
            line: idx as u32 + 1,
            section,
        });
    }
    out
}

/// Lints one `Cargo.toml`. `crate_name` is `None` for the workspace
/// root manifest (the facade package, exempt from DAG edges but not
/// from hermeticity).
pub fn lint_manifest(
    rel_path: &str,
    src: &str,
    crate_name: Option<&str>,
    cfg: &Config,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let deps = parse_manifest_deps(src);
    let snippet = |line: u32| {
        src.lines()
            .nth((line as usize).saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    for dep in &deps {
        if dep.section == Section::Other {
            continue;
        }
        let Some(short) = dep.name.strip_prefix("webdeps-") else {
            if cfg.enabled("extern-dep") {
                out.push(Violation {
                    rule: "extern-dep".to_string(),
                    severity: Severity::Deny,
                    file: rel_path.to_string(),
                    line: dep.line,
                    message: format!(
                        "external dependency `{}`; the workspace builds hermetically with zero external crates",
                        dep.name
                    ),
                    snippet: snippet(dep.line),
                });
            }
            continue;
        };
        if !cfg.enabled("layering") {
            continue;
        }
        if dep.section == Section::Dependencies {
            if config::DEV_ONLY_CRATES.contains(&short) {
                out.push(Violation {
                    rule: "layering".to_string(),
                    severity: Severity::Deny,
                    file: rel_path.to_string(),
                    line: dep.line,
                    message: format!(
                        "`{short}` is dev-only (leaf) and may not appear in [dependencies]"
                    ),
                    snippet: snippet(dep.line),
                });
                continue;
            }
            if let Some(name) = crate_name {
                if let Some(allowed) = config::allowed_deps(name) {
                    if !allowed.contains(&short) && short != name {
                        out.push(Violation {
                            rule: "layering".to_string(),
                            severity: Severity::Deny,
                            file: rel_path.to_string(),
                            line: dep.line,
                            message: format!(
                                "crate `{name}` may not depend on `{short}` (allowed: {})",
                                allowed.join(", ")
                            ),
                            snippet: snippet(dep.line),
                        });
                    }
                }
            }
        }
    }
    for v in &mut out {
        v.severity = cfg.severity(&v.rule);
    }
    out
}
