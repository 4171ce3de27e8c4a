//! Quickstart: generate a calibrated synthetic Internet, measure it the
//! way the paper measured the real one, and print the headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use webdeps::core::{DepGraph, MetricOptions, Metrics};
use webdeps::measure::{measure_world, SiteView};
use webdeps::model::ServiceKind;
use webdeps::worldgen::{SnapshotYear, World, WorldConfig};

fn main() {
    // A 10K-site 2020 snapshot (the paper's scale is 100K; everything
    // here is percentage-calibrated so shapes hold at any size).
    let config = WorldConfig {
        seed: 42,
        n_sites: 10_000,
        year: SnapshotYear::Y2020,
    };
    println!(
        "generating a {}-site world (seed {}) …",
        config.n_sites, config.seed
    );
    let world = World::generate(config);
    println!(
        "  {} DNS zones, {} webservers/vhosts, {} CAs, {} CDNs",
        world.dns.zone_count(),
        world.web.vhost_count(),
        world.pki.cas().len(),
        world.cdn_dir.len(),
    );

    println!("\nrunning the measurement pipeline (crawl → DNS → CA → CDN → inter-service) …");
    let dataset = measure_world(&world);

    let n = dataset.len();
    let sites_where = |f: fn(SiteView<'_>) -> bool| dataset.sites().filter(|&s| f(s)).count();
    let third_dns = sites_where(|s| s.dns_state().is_some_and(|st| st.uses_third_party()));
    let critical_dns = sites_where(|s| s.dns_state().is_some_and(|st| st.is_critical()));
    let any_critical = sites_where(|s| {
        s.dns_state().is_some_and(|st| st.is_critical())
            || s.cdn_state().is_some_and(|st| st.is_critical())
            || s.ca_state().is_some_and(|st| st.is_critical())
    });
    println!("  sites measured:                  {n}");
    println!(
        "  third-party DNS:                 {third_dns} ({:.1}%)",
        100.0 * third_dns as f64 / n as f64
    );
    println!(
        "  critically dependent (DNS):      {critical_dns} ({:.1}%)",
        100.0 * critical_dns as f64 / n as f64
    );
    println!(
        "  critically dependent (any svc):  {any_critical} ({:.1}%)  ← the paper's 89% headline",
        100.0 * any_critical as f64 / n as f64
    );

    // Who are the single points of failure?
    let graph = DepGraph::from_dataset(&dataset);
    let metrics = Metrics::new(&graph);
    for kind in [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca] {
        println!("\ntop-3 {kind} providers by impact (with indirect dependencies):");
        for score in metrics.ranking(kind, &MetricOptions::full()).iter().take(3) {
            println!(
                "  {:24} impact {:6} ({:.1}%)   concentration {:6} ({:.1}%)",
                score.key.as_str(),
                score.impact,
                100.0 * score.impact as f64 / n as f64,
                score.concentration,
                100.0 * score.concentration as f64 / n as f64,
            );
        }
    }
}
