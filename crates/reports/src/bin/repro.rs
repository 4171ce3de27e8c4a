//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale N] [--seed S] [--exp ID]... [--list]
//! ```
//!
//! Without `--exp`, every experiment runs in paper order. `--scale`
//! sets the site population per snapshot (default 20 000; the paper's
//! scale is 100 000 — use it when you have a few minutes).

use std::process::ExitCode;
use webdeps_reports::{all_experiment_ids, run_experiment, Workspace};

const USAGE: &str =
    "usage: repro [--scale N] [--seed S] [--exp ID]... [--dot FILE] [--csv DIR] [--list]";

struct Args {
    scale: usize,
    seed: u64,
    experiments: Vec<String>,
    list: bool,
    dot: Option<String>,
    csv: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 20_000,
        seed: 42,
        experiments: Vec::new(),
        list: false,
        dot: None,
        csv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = v.parse().map_err(|_| format!("bad --scale {v:?}"))?;
                if args.scale == 0 {
                    return Err(format!("--scale must be at least 1\n{USAGE}"));
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--exp" => {
                let v = it.next().ok_or("--exp needs a value")?;
                args.experiments.push(v);
            }
            "--list" => args.list = true,
            "--dot" => args.dot = Some(it.next().ok_or("--dot needs a path")?),
            "--csv" => args.csv = Some(it.next().ok_or("--csv needs a directory")?),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        for id in all_experiment_ids() {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let ids: Vec<String> = if args.experiments.is_empty() {
        all_experiment_ids().iter().map(|s| s.to_string()).collect()
    } else {
        args.experiments.clone()
    };
    for id in &ids {
        if !all_experiment_ids().contains(&id.as_str()) {
            eprintln!("unknown experiment {id:?}; use --list");
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "building workspace: 2×{} sites (2016+2020) + 200 hospitals, seed {} …",
        args.scale, args.seed
    );
    // lint:allow(wall-clock) — operator-facing progress timing in a CLI binary; never feeds into results
    let start = std::time::Instant::now();
    let ws = Workspace::new(args.seed, args.scale);
    eprintln!("workspace ready in {:.1?}\n", start.elapsed());

    for id in &ids {
        let report = run_experiment(&ws, id).expect("ids validated above");
        println!("{}", report.render());
    }

    if let Some(path) = &args.dot {
        // The Figure 5 graphs, renderable with `dot -Tsvg`.
        let dot = webdeps_core::to_dot(&ws.graph20, &webdeps_core::DotOptions::default());
        if let Err(e) = std::fs::write(path, dot) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("dependency graph written to {path} (render with `dot -Tsvg`)");
    }
    if let Some(dir) = &args.csv {
        let dir = std::path::Path::new(dir);
        if let Err(e) = webdeps_reports::write_csv_dir(&ws.ds20, dir) {
            eprintln!("failed to write CSVs to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "2020 dataset written to {}/sites.csv and providers.csv",
            dir.display()
        );
    }
    ExitCode::SUCCESS
}
