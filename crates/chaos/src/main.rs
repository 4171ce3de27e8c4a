//! `webdeps-chaos` — replay incidents and run chaos campaigns.
//!
//! ```text
//! webdeps-chaos --replay dyn|globalsign [--seed S] [--sites N]
//! webdeps-chaos --campaign [--seed S] [--schedules N] [--sites N]
//! webdeps-chaos --replay-schedule --seed S [--sites N]
//! webdeps-chaos --smoke
//! ```
//!
//! `--replay` prints the incident's per-tick availability curve; the
//! output is byte-identical for identical arguments. On stderr it says
//! how many sites each tick probed: the incident's footprint, the rest
//! counting at their healthy baseline. `--campaign` runs
//! a randomized invariant campaign and exits non-zero on any violation.
//! `--replay-schedule` replays one campaign schedule by its seed — the
//! exact command a campaign violation prints as its repro line.
//! `--smoke` is the CI entry point: a small campaign plus truncated
//! replays of both canonical incidents. Exactly one mode flag is
//! allowed.

use std::process::ExitCode;
use webdeps_chaos::{
    check_schedule, dyn_two_wave, globalsign_stale_week, monotonicity_index, replay, run_campaign,
    CampaignConfig, Incident,
};
use webdeps_worldgen::incidents::{dyn_incident_world, globalsign_incident_world};
use webdeps_worldgen::World;

const USAGE: &str = "usage: webdeps-chaos --replay dyn|globalsign [--seed S] [--sites N] | \
                     --campaign [--seed S] [--schedules N] [--sites N] | \
                     --replay-schedule --seed S [--sites N] | --smoke";

/// What a run does: the one mode flag it was given.
enum Mode {
    Replay(String),
    Campaign,
    ReplaySchedule,
    Smoke,
}

struct Args {
    mode: Mode,
    seed: Option<u64>,
    sites: usize,
    schedules: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut mode = None;
    let mut seed = None;
    let mut sites = 1_500;
    let mut schedules = 8;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--replay" => {
                let which = it.next().ok_or("--replay needs dyn|globalsign")?;
                set_mode(&mut mode, Mode::Replay(which))?;
            }
            "--campaign" => set_mode(&mut mode, Mode::Campaign)?,
            "--replay-schedule" => set_mode(&mut mode, Mode::ReplaySchedule)?,
            "--smoke" => set_mode(&mut mode, Mode::Smoke)?,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--sites" => sites = count("--sites", it.next())?,
            "--schedules" => schedules = count("--schedules", it.next())?,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    let mode =
        mode.ok_or("pick one of --replay, --campaign, --replay-schedule, --smoke (try --help)")?;
    if matches!(mode, Mode::ReplaySchedule) && seed.is_none() {
        return Err(format!("--replay-schedule needs --seed\n{USAGE}"));
    }
    Ok(Args {
        mode,
        seed,
        sites,
        schedules,
    })
}

/// Records the run's mode. A second mode flag is an error, even a
/// repeated one: no flag silently beats another.
fn set_mode(mode: &mut Option<Mode>, next: Mode) -> Result<(), String> {
    match mode.replace(next) {
        None => Ok(()),
        Some(_) => Err(format!(
            "pick only one of --replay, --campaign, --replay-schedule, --smoke\n{USAGE}"
        )),
    }
}

/// Parses the value of a count flag. Zero is an error, in every mode: a
/// replay of zero sites has no curve, and a campaign of zero schedules
/// would pass without checking a schedule.
fn count(flag: &str, value: Option<String>) -> Result<usize, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    match v.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1\n{USAGE}")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad {flag} {v:?}")),
    }
}

/// World seed for fixture worlds: fixed so `--seed` varies only the
/// fault schedule, keeping curves comparable across seeds.
const WORLD_SEED: u64 = 71;

fn build_incident(which: &str, seed: u64, sites: usize) -> Result<(World, Incident), String> {
    match which {
        "dyn" => {
            let world = dyn_incident_world(WORLD_SEED, sites);
            let incident = dyn_two_wave(&world, seed).ok_or("2016 world unexpectedly lacks Dyn")?;
            Ok((world, incident))
        }
        "globalsign" => {
            let world = globalsign_incident_world(WORLD_SEED, sites);
            let incident =
                globalsign_stale_week(&world).ok_or("2020 world unexpectedly lacks GlobalSign")?;
            Ok((world, incident))
        }
        other => Err(format!("unknown incident {other:?} (dyn|globalsign)")),
    }
}

fn run_replay(which: &str, seed: u64, sites: usize) -> Result<(), String> {
    let (world, incident) = build_incident(which, seed, sites)?;
    let result = replay(&world, &incident);
    let total = result.samples.first().map_or(0, |s| s.total);
    eprintln!("probed {} of {total} sites per tick", result.probed);
    print!("{}", result.render());
    Ok(())
}

fn run_campaign_cmd(seed: u64, schedules: usize, sites: usize) -> Result<(), String> {
    let world = World::generate(webdeps_worldgen::WorldConfig::small(WORLD_SEED));
    let config = CampaignConfig {
        seed,
        schedules,
        probe_sites: sites.min(200),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&world, &config);
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} invariant violation(s)",
            report.violations.len()
        ))
    }
}

fn run_smoke() -> Result<(), String> {
    for which in ["dyn", "globalsign"] {
        let (world, mut incident) = build_incident(which, 42, 400)?;
        incident.options.max_sites = 150;
        let result = replay(&world, &incident);
        print!("{}", result.render());
        if result.samples.is_empty() {
            return Err(format!("{which} replay produced no samples"));
        }
        let max = result
            .samples
            .iter()
            .map(|s| s.availability())
            .fold(0.0, f64::max);
        // The GlobalSign fault lands at t=0, so the dip may start at the
        // first sample; "some tick is worse than the best tick" is the
        // shape-independent sanity check.
        if result.min_availability() >= max {
            return Err(format!("{which} replay shows no availability dip"));
        }
    }
    let world = World::generate(webdeps_worldgen::WorldConfig::small(WORLD_SEED));
    let report = run_campaign(&world, &CampaignConfig::smoke(42));
    print!("{}", report.render());
    if !report.passed() {
        return Err(format!(
            "{} invariant violation(s)",
            report.violations.len()
        ));
    }
    Ok(())
}

/// Replays one campaign schedule by seed: the repro path printed by a
/// failing campaign. Exit code mirrors the campaign: non-zero iff the
/// replayed schedule still violates monotonicity.
fn run_replay_schedule(seed: u64, sites: usize) -> Result<(), String> {
    let world = World::generate(webdeps_worldgen::WorldConfig::small(WORLD_SEED));
    let probe_sites = sites.min(200);
    let index = monotonicity_index(&world, probe_sites);
    let (checks, violations) = check_schedule(&world, &index, seed, 3);
    println!(
        "schedule replay (seed {seed}): {checks} monotonicity checks, {} violation(s)",
        violations.len()
    );
    for v in &violations {
        println!(
            "VIOLATION [{}] (seed {}): {}\n  repro: {}",
            v.invariant,
            v.seed,
            v.detail,
            v.repro_command(probe_sites)
        );
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("{} invariant violation(s)", violations.len()))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let seed = args.seed.unwrap_or(42);
    let outcome = match &args.mode {
        Mode::Smoke => run_smoke(),
        Mode::Replay(which) => run_replay(which, seed, args.sites),
        Mode::ReplaySchedule => run_replay_schedule(seed, args.sites),
        Mode::Campaign => run_campaign_cmd(seed, args.schedules, args.sites),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
