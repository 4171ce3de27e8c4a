//! `repro-100k`: `repro --scale 100000 --seed S`, through the library
//! calls the CLI makes — `Workspace::new`, then `run_experiment` and
//! `render` for every id of `all_experiment_ids()`, then the drop of the
//! workspace, which the op's time includes.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use webdeps_chaos::{dyn_two_wave, globalsign_stale_week};
use webdeps_dns::ResolverStats;
use webdeps_reports::{all_experiment_ids, run_experiment, Workspace};
use webdeps_worldgen::WorldPair;

use crate::batch::{self, step, Timed};
use crate::chaos;
use crate::digest;
use crate::report::{RunReport, EXPERIMENTS};
use crate::sys;
use crate::trace::Tracer;

pub const NAME: &str = "repro-100k";

/// Hospital-vertical sites measured beside the two snapshots.
const HOSPITALS: usize = 200;

/// Sites each replay of the `incidents` experiment probes per tick (the
/// reports crate's `REPLAY_SITES`).
const INCIDENT_SITES: usize = 1_000;

pub struct Op {
    timed: Timed,
    structure: Result<(), String>,
    output_bytes: usize,
    sites_measured: usize,
    /// `up` of every tick row the `incidents` experiment printed.
    incident_ups: Vec<usize>,
}

impl batch::Op for Op {
    fn timed(&self) -> &Timed {
        &self.timed
    }

    fn check(&self) -> Result<(), String> {
        self.structure.clone()
    }

    fn units(&self) -> f64 {
        self.sites_measured as f64
    }
}

/// One `repro` invocation. The output is what the CLI prints to stdout.
pub fn op(seed: u64, sites: usize, mut tracer: Option<&mut Tracer>) -> Op {
    let root = tracer.as_mut().map(|t| t.begin("repro.op"));
    let cpu0 = sys::process_cpu_ms();
    let t0 = Instant::now();
    let ws = step(&mut tracer, "reports.workspace", || {
        Workspace::new(seed, sites)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let mut out = String::new();
    let mut incidents = String::new();
    for id in all_experiment_ids() {
        step(&mut tracer, &format!("reports.exp.{id}"), || {
            let report = run_experiment(&ws, id).expect("ids come from all_experiment_ids");
            let text = report.render();
            let _ = writeln!(out, "{text}");
            if id == "incidents" {
                incidents = text;
            }
        });
    }
    step(&mut tracer, "reports.teardown", || drop(black_box(ws)));
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = sys::process_cpu_ms() - cpu0;
    if let (Some(t), Some(id)) = (tracer, root) {
        t.end(id);
    }
    Op {
        timed: Timed {
            setup_s,
            latency_ms,
            cpu_ms,
            digest: digest::fnv1a(out.as_bytes()),
        },
        structure: check_structure(&out),
        output_bytes: out.len(),
        sites_measured: 2 * sites + HOSPITALS,
        incident_ups: printed_ups(&incidents),
    }
}

/// The `up` column of every tick row (`| t+<n>s | up | total | … |`) in
/// a rendered `incidents` report, in order.
fn printed_ups(text: &str) -> Vec<usize> {
    text.lines()
        .filter(|l| l.starts_with("| t+"))
        .filter_map(|l| l.split('|').nth(2)?.trim().parse().ok())
        .collect()
}

/// Every experiment printed its header, in paper order.
fn check_structure(out: &str) -> Result<(), String> {
    let mut from = 0;
    for id in EXPERIMENTS {
        let header = format!("=== {id} — ");
        match out[from..].find(&header) {
            Some(at) => from += at + header.len(),
            None => return Err(format!("experiment {id} missing or out of order")),
        }
    }
    Ok(())
}

pub fn run(seed: u64, sites: usize, seconds: f64, report: &mut RunReport) {
    // Set-up is a 10–13 s phase, so the ops' own set-ups suffice.
    batch::run(
        NAME,
        (seed, sites, seconds),
        report,
        || op(seed, sites, None),
        None,
    );
}

pub fn run_traced(seed: u64, sites: usize, report: &mut RunReport, tracer: &mut Tracer) {
    let run_op = |t: Option<&mut Tracer>| op(seed, sites, t);
    let Some(traced) = batch::traced_pair(NAME, (seed, sites), report, tracer, run_op) else {
        return;
    };
    report.set(
        "reports.workspace_self_ms",
        tracer.self_ms_named("reports.workspace"),
    );
    for id in EXPERIMENTS {
        let ms = tracer.self_ms_named(&format!("reports.exp.{id}"));
        report.set(&format!("reports.exp.{id}_ms"), ms);
    }
    report.set(
        "reports.teardown_ms",
        tracer.self_ms_named("reports.teardown"),
    );
    report.set("reports.output_bytes", traced.output_bytes as f64);
    if !incidents_replica(seed, sites, &traced.incident_ups, report) {
        eprintln!("{NAME}: dns.* and web.probe_us withheld (replica differs from repro's output)");
    }
}

/// Repeats the `incidents` experiment's two replays (Mirai-Dyn on the
/// 2016 world, GlobalSign on the 2020 world) with the chaos workload's
/// benchmark-owned client, on regenerated copies of the workspace's
/// worlds, and sets the probe-path metrics from its counters. Valid only
/// while its per-tick `up` counts equal the ones `repro` printed.
/// Measure's own crawl resolver is not reachable from outside the
/// program, so these numbers describe repro's probe path alone.
fn incidents_replica(seed: u64, sites: usize, printed: &[usize], report: &mut RunReport) -> bool {
    let pair = WorldPair::generate(seed, sites);
    let runs = [
        (&pair.y2016, dyn_two_wave(&pair.y2016, seed)),
        (&pair.y2020, globalsign_stale_week(&pair.y2020)),
    ];
    let mut ups = Vec::new();
    let mut stats = ResolverStats::default();
    let (mut probes, mut secs) = (0, 0.0);
    for (world, incident) in runs {
        let Some(mut incident) = incident else {
            continue;
        };
        incident.options.max_sites = INCIDENT_SITES;
        let rep = chaos::replica(world, &incident);
        ups.extend(rep.ups);
        chaos::add_stats(&mut stats, &rep.stats);
        probes += rep.probes;
        secs += rep.elapsed_s;
    }
    if ups != printed || probes == 0 {
        eprintln!("{NAME}: replica per-tick up counts {ups:?}, repro printed {printed:?}");
        return false;
    }
    chaos::set_probe_metrics(report, &stats, probes, secs);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_check_wants_every_header_in_order() {
        let full: String = EXPERIMENTS
            .iter()
            .map(|id| format!("=== {id} — title ===\n\nbody\n"))
            .collect();
        assert!(check_structure(&full).is_ok());
        let missing = full.replace("=== figure6 — ", "=== figure6 - ");
        assert!(check_structure(&missing).is_err());
    }

    #[test]
    fn printed_ups_reads_the_up_column_of_tick_rows() {
        let text = "dyn — caption\n| time    | up  | total | availability |\n\
                    |---------|-----|-------|--------------|\n\
                    | t+0s    | 981 | 1000  | 0.9810       |\n\
                    | t+3600s | 975 | 1000  | 0.9750       |\n";
        assert_eq!(printed_ups(text), vec![981, 975]);
    }

    #[test]
    fn a_replica_that_differs_from_the_printed_curves_sets_no_probe_metrics() {
        let mut report = RunReport::default();
        assert!(!incidents_replica(3, 300, &[1, 2, 3], &mut report));
        assert!(report.get("dns.queries_per_probe").is_none());
        assert!(report.get("web.probe_us").is_none());
    }
}
