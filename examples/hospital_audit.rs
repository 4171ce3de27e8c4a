//! The §6.1 vertical: third-party dependencies of the top-200 US
//! hospitals, plus an outage what-if against their most concentrated
//! DNS provider.
//!
//! ```text
//! cargo run --release --example hospital_audit
//! ```

use std::collections::HashMap;
use webdeps::core::simulate_outage;
use webdeps::measure::{measure_world, SiteView};
use webdeps::model::ServiceKind;
use webdeps::worldgen::profiles::{CaProfile, DepState};
use webdeps::worldgen::verticals::hospital_world;

fn main() {
    println!("generating the top-200-US-hospitals world …");
    let world = hospital_world(7);
    let ds = measure_world(&world);
    let n = ds.len();
    let sites_where = |f: fn(SiteView<'_>) -> bool| ds.sites().filter(|&s| f(s)).count();
    let third_dns = sites_where(|s| s.dns_state().is_some_and(|st| st.uses_third_party()));
    let crit_dns = sites_where(|s| s.dns_state() == Some(DepState::SingleThird));
    let cdn_users = sites_where(|s| s.uses_cdn());
    let stapled = sites_where(|s| s.https() && s.stapled());
    let crit_ca = sites_where(|s| s.ca_state() == Some(CaProfile::ThirdNoStaple));

    println!("\n== Table 10 shape (measured / paper) ==");
    println!(
        "  third-party DNS:   {third_dns:3} ({:.0}%)   / 102 (51%)",
        100.0 * third_dns as f64 / n as f64
    );
    println!(
        "  DNS-critical:      {crit_dns:3} ({:.0}%)   / 92 (46%)",
        100.0 * crit_dns as f64 / n as f64
    );
    println!(
        "  CDN users:         {cdn_users:3} ({:.0}%)   / 32 (16%)  (all critical)",
        100.0 * cdn_users as f64 / n as f64
    );
    println!("  HTTPS:             {n:3} (100%)  / 200 (100%)");
    println!(
        "  OCSP stapling:     {stapled:3} ({:.0}%)   / 44 (22%)",
        100.0 * stapled as f64 / n as f64
    );
    println!(
        "  CA-critical:       {crit_ca:3} ({:.0}%)   / 156 (78%)",
        100.0 * crit_ca as f64 / n as f64
    );

    // The most concentrated DNS provider among hospitals (§6.1 names
    // GoDaddy at 13%).
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for s in ds.sites() {
        for name in s.third_parties(ServiceKind::Dns) {
            *counts.entry(ds.name(name)).or_default() += 1;
        }
    }
    let (top, top_count) = counts
        .iter()
        .max_by_key(|(_, c)| **c)
        .map(|(k, c)| (*k, *c))
        .expect("providers exist");
    println!(
        "\nmost concentrated hospital DNS provider: {top} ({top_count} hospitals, {:.0}%)",
        100.0 * top_count as f64 / n as f64
    );

    println!("simulating an outage of {top} …");
    let outage =
        simulate_outage(&world, &[top], false).expect("top provider came from the measurement");
    println!(
        "  {} of {} hospitals unreachable ({:.0}%) — every critical customer, no redundant one",
        outage.affected.len(),
        outage.total,
        100.0 * outage.affected_fraction()
    );
}
