//! Machine-readable export of measurement datasets.
//!
//! Writes the per-site and per-provider measurements as RFC 4180 CSV —
//! the interchange format measurement studies actually publish — so the
//! datasets can leave the Rust world (pandas, gnuplot, spreadsheets)
//! without any extra dependencies.

use webdeps_measure::{Classification, MeasurementDataset};
use webdeps_model::ServiceKind;

/// Escapes one CSV field (RFC 4180: quote when the value contains a
/// comma, quote, or newline; double embedded quotes).
fn field(value: &str) -> String {
    if value.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

fn row(cells: &[&str]) -> String {
    cells.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
}

fn class_label(c: Classification) -> &'static str {
    match c {
        Classification::Private => "private",
        Classification::ThirdParty => "third-party",
        Classification::Unknown => "unknown",
    }
}

/// Per-site CSV: one row per site with its measured states and
/// providers (provider lists are `;`-separated within the cell).
pub fn sites_csv(ds: &MeasurementDataset) -> String {
    let mut out = String::new();
    out.push_str(
        "rank,domain,reachable,dns_state,dns_providers,cdn_state,cdns,https,ca,ca_class,stapled\n",
    );
    let state = |st: Option<String>| st.unwrap_or_else(|| "uncharacterized".into());
    for s in ds.sites() {
        let dns_state = state(s.dns_state().map(|st| format!("{st:?}")));
        let dns_providers = s
            .third_parties(ServiceKind::Dns)
            .map(|n| ds.name(n))
            .collect::<Vec<_>>()
            .join(";");
        let cdn_state = state(s.cdn_state().map(|st| format!("{st:?}")));
        let cdns = s
            .cdns()
            .map(|(n, c)| format!("{}:{}", ds.name(n), class_label(c)))
            .collect::<Vec<_>>()
            .join(";");
        let (ca, ca_class) = match s.ca() {
            Some((n, class)) => (ds.name(n), class_label(class)),
            None => ("", ""),
        };
        out.push_str(&row(&[
            &s.rank().get().to_string(),
            s.domain(),
            &s.reachable().to_string(),
            &dns_state,
            &dns_providers,
            &cdn_state,
            &cdns,
            &s.https().to_string(),
            ca,
            ca_class,
            &s.stapled().to_string(),
        ]));
        out.push('\n');
    }
    out
}

/// Per-provider CSV: the §3.4 inter-service measurements.
pub fn providers_csv(ds: &MeasurementDataset) -> String {
    let mut out = String::new();
    out.push_str(
        "provider,kind,direct_sites,dns_third,dns_critical,dns_providers,cdn_third,cdn_critical,cdn_providers\n",
    );
    for p in ds.providers() {
        let dep_cells = |dep: &Option<webdeps_measure::InterServiceDep>| match dep {
            Some(d) => (
                d.uses_third.to_string(),
                d.critical.to_string(),
                d.providers
                    .iter()
                    .map(|k| k.as_str())
                    .collect::<Vec<_>>()
                    .join(";"),
            ),
            None => (String::new(), String::new(), String::new()),
        };
        let (dns_third, dns_crit, dns_providers) = dep_cells(&p.dns_dep);
        let (cdn_third, cdn_crit, cdn_providers) = dep_cells(&p.cdn_dep);
        out.push_str(&row(&[
            p.key.as_str(),
            &p.kind.to_string(),
            &p.direct_sites.to_string(),
            &dns_third,
            &dns_crit,
            &dns_providers,
            &cdn_third,
            &cdn_crit,
            &cdn_providers,
        ]));
        out.push('\n');
    }
    out
}

/// Writes both CSVs into a directory (`sites.csv`, `providers.csv`).
#[must_use]
pub fn write_csv_dir(ds: &MeasurementDataset, dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("sites.csv"), sites_csv(ds))?;
    std::fs::write(dir.join("providers.csv"), providers_csv(ds))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use webdeps_measure::measure_world;
    use webdeps_worldgen::{World, WorldConfig};

    fn dataset() -> &'static MeasurementDataset {
        static DS: OnceLock<MeasurementDataset> = OnceLock::new();
        DS.get_or_init(|| measure_world(&World::generate(WorldConfig::small(67))))
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(row(&["a", "b,c"]), "a,\"b,c\"");
    }

    #[test]
    fn sites_csv_is_rectangular_and_complete() {
        let ds = dataset();
        let csv = sites_csv(ds);
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        let cols = header.split(',').count();
        let mut n = 0;
        for line in lines {
            // No quoted commas expected in generated data; count plainly.
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
            n += 1;
        }
        assert_eq!(n, ds.len());
        assert!(csv.contains("SingleThird"));
        assert!(csv.contains("uncharacterized"));
        assert!(csv.contains("digicert.com"));
    }

    #[test]
    fn providers_csv_covers_all_kinds() {
        let ds = dataset();
        let csv = providers_csv(ds);
        assert!(csv.lines().count() > 20);
        assert!(csv.contains("CDN"));
        assert!(csv.contains("CA"));
        assert!(csv.contains("DNS"));
        assert!(csv.contains("dnsmadeeasy.com"), "DigiCert's wiring appears");
    }

    #[test]
    fn csv_dir_roundtrip_to_disk() {
        let ds = dataset();
        let dir = std::env::temp_dir().join(format!("webdeps-csv-{}", std::process::id()));
        write_csv_dir(ds, &dir).expect("write");
        let sites = std::fs::read_to_string(dir.join("sites.csv")).expect("read back");
        assert_eq!(sites, sites_csv(ds));
        std::fs::remove_dir_all(&dir).ok();
    }
}
