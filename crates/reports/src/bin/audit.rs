//! `audit` — the dependency-audit service the paper envisions (§8.3),
//! as a command-line tool: generate a world, measure it, and print the
//! complete dependency structure, robustness score, and
//! recommendations for chosen sites.
//!
//! ```text
//! audit [--scale N] [--seed S] [--rank R]... [--domain D]... [--worst K]
//! ```
//!
//! Without site selectors, prints the `K` lowest-scoring sites
//! (default 3) plus the population score distribution. A selector that
//! matches no site is an error: nothing is printed but the miss, and the
//! exit status is 1.

use std::process::ExitCode;
use webdeps_core::{audit_site, DepGraph, RiskLevel, SiteAudit};
use webdeps_measure::{measure_world, MeasurementDataset};
use webdeps_worldgen::{SnapshotYear, World, WorldConfig};

const USAGE: &str = "usage: audit [--scale N] [--seed S] [--rank R]... [--domain D]... [--worst K]";

struct Args {
    scale: usize,
    seed: u64,
    ranks: Vec<u32>,
    domains: Vec<String>,
    worst: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 5_000,
        seed: 42,
        ranks: Vec::new(),
        domains: Vec::new(),
        worst: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--scale" => {
                args.scale = take("--scale")?.parse().map_err(|_| "bad --scale")?;
                if args.scale == 0 {
                    return Err(format!("--scale must be at least 1\n{USAGE}"));
                }
            }
            "--seed" => args.seed = take("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--rank" => args
                .ranks
                .push(take("--rank")?.parse().map_err(|_| "bad --rank")?),
            "--domain" => args.domains.push(take("--domain")?),
            "--worst" => {
                args.worst = take("--worst")?.parse().map_err(|_| "bad --worst")?;
                if args.worst == 0 {
                    return Err(format!("--worst must be at least 1\n{USAGE}"));
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn print_audit(ds: &MeasurementDataset, audit: &SiteAudit) {
    let site = ds.site(ds.row_of(audit.site).expect("audited site measured"));
    println!("== {} (rank {}) ==", site.domain(), site.rank());
    println!(
        "  robustness score: {:.0}/100   risk: {:?}",
        audit.score, audit.risk
    );
    println!("  dependency chains:");
    for chain in &audit.chains {
        println!("    {}", chain.describe());
    }
    if audit.recommendations.is_empty() {
        println!("  recommendations: none — nicely provisioned");
    } else {
        println!("  recommendations:");
        for r in &audit.recommendations {
            println!("    - {r}");
        }
    }
    println!();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "generating + measuring a {}-site world (seed {}) …",
        args.scale, args.seed
    );
    let world = World::generate(WorldConfig {
        seed: args.seed,
        n_sites: args.scale,
        year: SnapshotYear::Y2020,
    });
    let ds = measure_world(&world);
    let graph = DepGraph::from_dataset(&ds);

    let mut selected: Vec<SiteAudit> = Vec::new();
    let mut missed = false;
    for rank in &args.ranks {
        match ds.sites().find(|s| s.rank().get() == *rank) {
            Some(s) => selected.push(audit_site(&graph, &ds, s.id())),
            None => {
                eprintln!("no site at rank {rank}");
                missed = true;
            }
        }
    }
    for domain in &args.domains {
        match ds.sites().find(|s| s.domain() == domain) {
            Some(s) => selected.push(audit_site(&graph, &ds, s.id())),
            None => {
                eprintln!("no site {domain}");
                missed = true;
            }
        }
    }
    if missed {
        return ExitCode::FAILURE;
    }

    if selected.is_empty() {
        // Population view: score histogram + the worst offenders.
        let mut audits: Vec<SiteAudit> = ds
            .sites()
            .map(|s| audit_site(&graph, &ds, s.id()))
            .collect();
        let buckets = [0.0, 20.0, 40.0, 60.0, 80.0, 100.1];
        println!("robustness score distribution ({} sites):", audits.len());
        for w in buckets.windows(2) {
            let n = audits
                .iter()
                .filter(|a| a.score >= w[0] && a.score < w[1])
                .count();
            println!(
                "  {:>3.0}–{:<3.0} {:>6} ({:.1}%)",
                w[0],
                w[1].min(100.0),
                n,
                100.0 * n as f64 / audits.len() as f64
            );
        }
        let high = audits.iter().filter(|a| a.risk == RiskLevel::High).count();
        println!(
            "high-risk sites (≥3 critical providers): {} ({:.1}%)\n",
            high,
            100.0 * high as f64 / audits.len() as f64
        );
        audits.sort_by(|a, b| a.score.total_cmp(&b.score));
        println!("the {} lowest-scoring sites:", args.worst);
        for audit in audits.iter().take(args.worst) {
            print_audit(&ds, audit);
        }
    } else {
        for audit in &selected {
            print_audit(&ds, audit);
        }
    }
    ExitCode::SUCCESS
}
