//! `webdeps-serve` — resident query daemon and torture driver.
//!
//! ```text
//! webdeps-serve --serve   [--addr A] [--seed S] [--sites N] [--workers W]
//! webdeps-serve --torture [--seed S] [--seeds K] [--connections C] [--clients T] [--sites N]
//!                         [--workers W] [--deadline-ms D]
//! webdeps-serve --smoke
//! ```
//!
//! `--serve` loads a world, binds, prints the address, and runs until
//! a client sends `SHUTDOWN`. `--torture` runs the seeded chaos
//! campaign against a private in-process server for `--seeds`
//! consecutive seeds and exits non-zero on any invariant violation,
//! printing a copy-pasteable replay line first. `--smoke` is the CI
//! entry point: a small world, a short torture, strict invariants.

use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use webdeps_model::ServiceKind;
use webdeps_serve::engine::Engine;
use webdeps_serve::server::{spawn, ServerConfig, ServerHandle};
use webdeps_serve::torture::{run_torture, TortureConfig};
use webdeps_worldgen::{World, WorldConfig};

const USAGE: &str = "usage: webdeps-serve --serve [--addr A] [--seed S] [--sites N] [--workers W] \
                     [--deadline-ms D] | --torture [--seed S] [--seeds K] [--connections C] \
                     [--clients T] [--sites N] [--workers W] [--deadline-ms D] | --smoke";

struct Args {
    serve: bool,
    torture: bool,
    smoke: bool,
    addr: String,
    seed: u64,
    seeds: usize,
    sites: usize,
    connections: usize,
    clients: usize,
    workers: usize,
    deadline_ms: u64,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        serve: false,
        torture: false,
        smoke: false,
        addr: "127.0.0.1:0".to_string(),
        seed: 42,
        seeds: 64,
        sites: 1_000,
        connections: 96,
        clients: 4,
        workers: 4,
        deadline_ms: 0,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--serve" => args.serve = true,
            "--torture" => args.torture = true,
            "--smoke" => args.smoke = true,
            "--addr" => args.addr = it.next().ok_or("--addr needs host:port")?,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seeds" => args.seeds = count("--seeds", it.next())?,
            "--sites" => args.sites = count("--sites", it.next())?,
            "--connections" => args.connections = count("--connections", it.next())?,
            "--clients" => args.clients = count("--clients", it.next())?,
            "--workers" => args.workers = count("--workers", it.next())?,
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a value")?;
                args.deadline_ms = v.parse().map_err(|_| format!("bad --deadline-ms {v:?}"))?;
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if !args.serve && !args.torture && !args.smoke {
        return Err("pick one of --serve, --torture, --smoke (try --help)".into());
    }
    Ok(args)
}

/// Parses the value of a count flag. Zero is an error, in every mode:
/// a run of zero seeds, connections, clients or workers would pass
/// without checking anything.
fn count(flag: &str, value: Option<String>) -> Result<usize, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    match v.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1\n{USAGE}")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad {flag} {v:?}")),
    }
}

/// World seed is fixed per invocation mode; `--seed` varies only the
/// torture chaos stream so failures replay against the same world.
fn build_engine(world_seed: u64, sites: usize, verify: bool, poison: bool) -> Engine {
    let world = World::generate(WorldConfig {
        n_sites: sites,
        ..WorldConfig::small(world_seed)
    });
    Engine::from_world(world, verify, poison)
}

fn torture_server_config(workers: usize, deadline_ms: u64) -> ServerConfig {
    ServerConfig {
        workers,
        queue_cap: 4,
        deadline_ms: if deadline_ms == 0 { 60 } else { deadline_ms },
        read_timeout_ms: 150,
        retry_after_ms: 10,
        verify_patches: true,
        allow_poison: true,
        ..ServerConfig::default()
    }
}

fn torture_client_config(
    engine: &Engine,
    seed: u64,
    connections: usize,
    clients: usize,
) -> TortureConfig {
    let mut keys = engine.provider_keys(ServiceKind::Dns, 6);
    keys.extend(engine.provider_keys(ServiceKind::Cdn, 6));
    keys.extend(engine.provider_keys(ServiceKind::Ca, 4));
    TortureConfig {
        seed,
        connections,
        clients,
        churn_keys: keys,
        site_count: u32::try_from(engine.site_count()).unwrap_or(u32::MAX),
        client_timeout_ms: 5_000,
        loris_stall_ms: 300,
        send_poison: true,
        ..TortureConfig::default()
    }
}

/// The command that replays the torture run of `seed` under `args`. It
/// names every flag that shapes the run: the world, the chaos stream,
/// the client load, and the server's workers and (effective) deadline.
fn replay_line(args: &Args, seed: u64) -> String {
    let server = torture_server_config(args.workers, args.deadline_ms);
    format!(
        "webdeps-serve --torture --seed {seed} --seeds 1 --connections {} --clients {} \
         --sites {} --workers {} --deadline-ms {}",
        args.connections, args.clients, args.sites, server.workers, server.deadline_ms
    )
}

/// Runs one torture campaign against a fresh server over `engine`.
fn torture_once(engine: &Arc<Engine>, args: &Args, seed: u64) -> Result<String, String> {
    let handle = spawn(
        Arc::clone(engine),
        torture_server_config(args.workers, args.deadline_ms),
    )
    .map_err(|e| format!("bind failed: {e}"))?;
    let cfg = torture_client_config(engine, seed, args.connections, args.clients);
    let report = run_torture(handle.addr(), &cfg);
    let stats = handle.stats();
    let contained = webdeps_serve::stats::ServerStats::read(&stats.contained_panics);
    handle.shutdown();
    if !report.passed() {
        let mut msg = String::new();
        for v in &report.violations {
            msg.push_str("violation: ");
            msg.push_str(v);
            msg.push('\n');
        }
        msg.push_str(&format!(
            "torture FAILED at seed {seed}; replay with:\n  {}\n",
            replay_line(args, seed)
        ));
        return Err(msg);
    }
    if report.poisons > 0 && contained == 0 {
        return Err(format!(
            "sent {} poison queries but server contained 0 panics (seed {seed})",
            report.poisons
        ));
    }
    Ok(format!(
        "seed {seed}: PASS {} (server contained_panics={contained})",
        report.summary()
    ))
}

/// Poison queries panic on purpose; the default hook would spray a
/// backtrace per containment. Replace it with one quiet line so smoke
/// and torture output stays readable (counters carry the tally).
fn quiet_contained_panics() {
    std::panic::set_hook(Box::new(|info| {
        let location = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_else(|| "unknown".to_string());
        eprintln!("contained panic at {location}");
    }));
}

fn run_torture_cmd(args: &Args) -> Result<(), String> {
    quiet_contained_panics();
    let engine = Arc::new(build_engine(71, args.sites, true, true));
    println!(
        "torture: world sites={} providers(dns/cdn/ca) loaded, {} seed(s) from {}",
        engine.site_count(),
        args.seeds,
        args.seed
    );
    for i in 0..args.seeds {
        let seed = args.seed.wrapping_add(i as u64);
        let line = torture_once(&engine, args, seed)?;
        println!("{line}");
    }
    println!("torture: all {} seed(s) passed", args.seeds);
    Ok(())
}

fn run_serve_cmd(args: &Args) -> Result<(), String> {
    let engine = Arc::new(build_engine(args.seed, args.sites, false, false));
    let mut cfg = ServerConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        ..ServerConfig::default()
    };
    if args.deadline_ms > 0 {
        cfg.deadline_ms = args.deadline_ms;
    }
    let handle: ServerHandle =
        spawn(Arc::clone(&engine), cfg).map_err(|e| format!("bind failed: {e}"))?;
    println!(
        "webdeps-serve listening on {} (sites={}, epoch={})",
        handle.addr(),
        engine.site_count(),
        engine.current_epoch()
    );
    while !handle.shutdown_requested() {
        thread::sleep(Duration::from_millis(50));
    }
    println!("webdeps-serve draining");
    handle.shutdown();
    Ok(())
}

fn run_smoke(args: &Args) -> Result<(), String> {
    quiet_contained_panics();
    let smoke = parse_smoke_base(args);
    let engine = Arc::new(build_engine(71, smoke.sites, true, true));
    for i in 0..smoke.seeds {
        let seed = smoke.seed.wrapping_add(i as u64);
        let line = torture_once(&engine, &smoke, seed)?;
        println!("{line}");
    }
    println!("serve smoke: PASS");
    Ok(())
}

fn parse_smoke_base(args: &Args) -> Args {
    Args {
        serve: false,
        torture: false,
        smoke: true,
        addr: "127.0.0.1:0".to_string(),
        seed: args.seed,
        seeds: 2,
        sites: 300,
        connections: 48,
        clients: 3,
        workers: 3,
        deadline_ms: 0,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.smoke {
        run_smoke(&args)
    } else if args.torture {
        run_torture_cmd(&args)
    } else {
        run_serve_cmd(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        let argv = line.split_ascii_whitespace().map(String::from);
        parse_args(argv).unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    /// What a torture run is made of, server config included.
    fn shape(args: &Args) -> (usize, usize, usize, usize, u64) {
        let server = torture_server_config(args.workers, args.deadline_ms);
        (
            args.sites,
            args.connections,
            args.clients,
            server.workers,
            server.deadline_ms,
        )
    }

    #[test]
    fn replay_line_names_every_flag_that_shapes_the_run() {
        for (line, want) in [
            (
                "--torture --seed 9 --seeds 5 --connections 7 --clients 2 --sites 123 \
                 --workers 1 --deadline-ms 2",
                (123, 7, 2, 1, 2),
            ),
            // The default deadline is spelled out as its effective value.
            (
                "--torture --seed 9 --seeds 5 --connections 7 --clients 2 --sites 123 \
                 --workers 3",
                (123, 7, 2, 3, 60),
            ),
        ] {
            let replay = replay_line(&parse(line), 11);
            let cmd = replay.strip_prefix("webdeps-serve ").expect("program name");
            let again = parse(cmd);
            assert!(again.torture, "{replay}");
            assert_eq!((again.seed, again.seeds), (11, 1), "{replay}");
            assert_eq!(shape(&again), want, "{replay}");
        }
    }
}
