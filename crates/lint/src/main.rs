//! CLI entry point for `webdeps-lint`.
//!
//! Exit codes: 0 = clean, 1 = deny violations (or, under
//! `--deny-warnings`, warn violations / stale baseline entries),
//! 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use webdeps_lint::{config, driver, Config, Severity};

const USAGE: &str = "\
webdeps-lint — hermetic workspace static-analysis pass

USAGE:
    webdeps-lint [OPTIONS]

OPTIONS:
    --root <DIR>        Workspace root to scan (default: current dir,
                        falling back to the nearest ancestor with a
                        Cargo.toml)
    --json              Print the machine-readable report to stdout
    --json-out <FILE>   Additionally write the JSON report to FILE
    --allow <RULE>      Disable a rule globally (repeatable)
    --severity <R=S>    Override a rule's severity (S: deny|warn)
    --deny-warnings     Exit 1 on warn violations and stale baseline
                        entries too
    --baseline <FILE>   Baseline of accepted findings (default:
                        LINT_BASELINE.json under the root, if present)
    --no-baseline       Ignore any baseline file
    --write-baseline <FILE>
                        Write a baseline absorbing this run's
                        violations, then exit 0
    --suppressions      List every suppressed violation with its reason
    --list-rules        Print the rule catalog and exit
    --explain <RULE>    Print one rule's full catalog entry (severity,
                        rationale, example, allow syntax) and exit
    -h, --help          Show this help
";

struct Args {
    root: PathBuf,
    json: bool,
    json_out: Option<PathBuf>,
    show_suppressions: bool,
    deny_warnings: bool,
    baseline: Option<PathBuf>,
    no_baseline: bool,
    write_baseline: Option<PathBuf>,
    cfg: Config,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        json_out: None,
        show_suppressions: false,
        deny_warnings: false,
        baseline: None,
        no_baseline: false,
        write_baseline: None,
        cfg: Config::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a value")?);
            }
            "--json" => args.json = true,
            "--json-out" => {
                args.json_out = Some(PathBuf::from(it.next().ok_or("--json-out needs a value")?));
            }
            "--allow" => {
                let rule = it.next().ok_or("--allow needs a rule name")?;
                if !config::rule_names().contains(&rule.as_str()) {
                    return Err(format!("unknown rule {rule:?}; see --list-rules"));
                }
                args.cfg.disabled.insert(rule);
            }
            "--severity" => {
                let spec = it.next().ok_or("--severity needs rule=deny|warn")?;
                let (rule, sev) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--severity wants rule=deny|warn, got {spec:?}"))?;
                if !config::rule_names().contains(&rule) {
                    return Err(format!("unknown rule {rule:?}; see --list-rules"));
                }
                let sev = Severity::parse(sev)
                    .ok_or_else(|| format!("severity must be deny or warn, got {sev:?}"))?;
                args.cfg.severity_overrides.insert(rule.to_string(), sev);
            }
            "--deny-warnings" => args.deny_warnings = true,
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?));
            }
            "--no-baseline" => args.no_baseline = true,
            "--write-baseline" => {
                args.write_baseline = Some(PathBuf::from(
                    it.next().ok_or("--write-baseline needs a path")?,
                ));
            }
            "--suppressions" => args.show_suppressions = true,
            "--list-rules" => {
                for r in config::RULES {
                    println!("{:<20} [{:<4}] {}", r.name, r.severity.label(), r.summary);
                }
                return Ok(None);
            }
            "--explain" => {
                let rule = it.next().ok_or("--explain needs a rule name")?;
                let Some(info) = config::rule_info(&rule) else {
                    return Err(format!("unknown rule {rule:?}; see --list-rules"));
                };
                println!("{} [{}]", info.name, info.severity.label());
                println!("  {}", info.summary);
                println!("\nWhy:\n  {}", info.rationale);
                println!("\nExample (flagged):");
                for line in info.example.lines() {
                    println!("  {line}");
                }
                println!("\nJustified sites:");
                for line in info.allow_hint.lines() {
                    println!("  {line}");
                }
                return Ok(None);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    // Walk up to a directory that looks like the workspace root.
    if !args.root.join("Cargo.toml").is_file() {
        let mut cur = args.root.canonicalize().map_err(|e| e.to_string())?;
        while !cur.join("Cargo.toml").is_file() {
            let Some(parent) = cur.parent() else {
                return Err(format!("no Cargo.toml at or above {}", args.root.display()));
            };
            cur = parent.to_path_buf();
        }
        args.root = cur;
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("webdeps-lint: {e}");
            return ExitCode::from(2);
        }
    };
    // Baseline application is skipped entirely when *writing* one, so
    // the written file absorbs every current violation.
    let baseline_path = if args.no_baseline || args.write_baseline.is_some() {
        None
    } else {
        match &args.baseline {
            Some(p) => Some(p.clone()),
            None => {
                let p = args.root.join("LINT_BASELINE.json");
                p.is_file().then_some(p)
            }
        }
    };
    let report = match driver::lint_workspace(&args.root, &args.cfg, baseline_path.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("webdeps-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_baseline {
        let body = driver::render_baseline(&report.violations);
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("webdeps-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "webdeps-lint: wrote baseline {} absorbing {} violation(s)",
            path.display(),
            report.violations.len()
        );
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.json_out {
        if let Err(e) = std::fs::write(path, report.render_json()) {
            eprintln!("webdeps-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if args.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human(args.show_suppressions));
    }
    let warn_gate =
        args.deny_warnings && (report.warn_count() > 0 || !report.stale_baseline.is_empty());
    if report.is_clean() && !warn_gate {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
