//! `perfbench` — the repository's benchmark: the three commands users
//! run (`repro`, `webdeps-serve`, `webdeps-chaos`) timed end to end, and
//! in a separate traced run, layer by layer.
//!
//! ```text
//! perfbench --workload repro-100k|serve-mix-100k|chaos-dyn-100k|all
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of stdout is the run's result: `correct`, ops
//! `attempted` and `failed`, and the metrics — every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. Progress
//! and run metadata go to stderr; a traced run also writes its spans to
//! `.bench_out/`. The exit code is non-zero when any output check
//! fails. `--workload all` runs each workload in its own child process.

mod batch;
mod chaos;
mod digest;
mod mix;
mod report;
mod repro;
mod serve;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

use report::{RunReport, END_TO_END};
use trace::{json_str, Tracer};

/// Per-layer metric ← `webdeps_model::timing` label of a worldgen phase.
pub const WORLDGEN_PHASES: [(&str, &str); 4] = [
    ("worldgen.plan_ms", "gen/plan"),
    ("worldgen.providers_ms", "gen/providers"),
    ("worldgen.sites_ms", "gen/sites"),
    ("worldgen.finalize_ms", "gen/finalize"),
];

const WORKLOADS: [&str; 3] = [repro::NAME, serve::NAME, chaos::NAME];

/// Sites per world, as the workload names say. Only the self-tests run
/// smaller worlds; the command line always runs this scale.
const SITES: usize = 100_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    sites: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 40,
        trace: false,
        sites: SITES,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Box facts recorded with every run; never used to adjust a metric.
fn metadata(args: &Args, calib_before: f64, calib_after: f64) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"sites\": {}, \
         \"nproc\": {}, \"webdeps_jobs\": {}, \"calibration_ms_before\": {calib_before}, \
         \"calibration_ms_after\": {calib_after}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.sites,
        sys::nproc(),
        webdeps_model::par::resolve_jobs(0),
    )
}

/// The metrics a run reports: every end-to-end metric, or with tracing
/// every per-layer one.
fn schema(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        report::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Runs one workload in this process.
fn measure(args: &Args, tracer: &mut Tracer) -> RunReport {
    let mut report = RunReport::default();
    let secs = args.seconds as f64;
    let (seed, sites) = (args.seed, args.sites);
    match (args.workload.as_str(), args.trace) {
        (repro::NAME, false) => repro::run(seed, sites, secs, &mut report),
        (serve::NAME, false) => serve::run(seed, sites, secs, &mut report),
        (chaos::NAME, false) => chaos::run(seed, sites, secs, &mut report),
        (repro::NAME, true) => repro::run_traced(seed, sites, &mut report, tracer),
        (serve::NAME, true) => serve::run_traced(seed, sites, secs, &mut report, tracer),
        (chaos::NAME, true) => chaos::run_traced(seed, sites, &mut report, tracer),
        _ => unreachable!("workload validated by parse_args"),
    }
    if args.trace && report.correct() {
        for (name, _) in schema(true) {
            // A layer this workload leaves idle did no work. Every
            // workload runs the probe path, so probe-path numbers a
            // failed replica check withheld stay missing.
            let probe_path = name.starts_with("dns.") || name == "web.probe_us";
            if report.get(&name).is_none() && !probe_path {
                report.set(&name, 0.0);
            }
        }
    }
    report
}

fn run_one(args: &Args) -> ExitCode {
    let calib_before = sys::calibrate_ms();
    let mut tracer = Tracer::new();
    let report = measure(args, &mut tracer);
    let meta = metadata(args, calib_before, sys::calibrate_ms());
    eprintln!("perfbench meta {meta}");
    for why in report.failures() {
        eprintln!("perfbench FAILED: {why}");
    }
    let schema = schema(args.trace);
    if args.trace && report.correct() {
        let path = format!(".bench_out/spans-{}-{}.json", args.workload, args.seed);
        let extra = [("meta", meta), ("metrics", report.metrics_json(&schema))];
        match tracer.write(std::path::Path::new(&path), &extra) {
            Ok(()) => eprintln!("perfbench spans written to {path}"),
            Err(e) => eprintln!("perfbench could not write {path}: {e}"),
        }
    }
    println!("{}", report.to_json(&schema));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process and relays the results.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        match out {
            Ok(o) => {
                let text = String::from_utf8_lossy(&o.stdout);
                println!("{w} {}", text.lines().last().unwrap_or("(no result)"));
                ok &= o.status.success();
            }
            Err(e) => {
                println!("{w} (did not run: {e})");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = parse_args(&argv(
            "--workload chaos-dyn-100k --seed 7 --seconds 30 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.sites),
            (7, 30, true, 100_000)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seed")).is_err());
        assert!(parse_args(&argv("--workload all --sites 300")).is_err());
    }

    #[test]
    fn every_workload_passes_its_checks_and_reports_its_schema_at_small_scale() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 1,
                    trace,
                    sites: 300,
                };
                let report = measure(&args, &mut Tracer::new());
                assert!(
                    report.correct(),
                    "{workload} trace={trace}: {:?}",
                    report.failures()
                );
                for (name, _) in schema(trace) {
                    let v = report.get(&name);
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{workload} trace={trace}: {name} {v:?}"
                    );
                }
            }
        }
    }
}
