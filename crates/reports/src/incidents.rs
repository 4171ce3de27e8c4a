//! Incident-replay experiment.
//!
//! Runs the two canonical §2 incidents through the chaos replay engine
//! against the workspace's snapshot worlds and renders their
//! availability curves as report tables: Mirai-Dyn against the 2016
//! world (where Fastly's DNS still rode Dyn), GlobalSign against the
//! HTTPS-heavy 2020 world.

use crate::experiments::Report;
use crate::table::TextTable;
use crate::workspace::Workspace;
use webdeps_chaos::{dyn_two_wave, globalsign_stale_week, replay, ReplayResult};

/// Sites each replay covers (`max_sites`); replay curves stabilize well
/// below full population scale. The engine indexes these sites' fault
/// footprints once, then probes only the incident's footprint each tick.
const REPLAY_SITES: usize = 1_000;

fn curve_table(result: &ReplayResult) -> TextTable {
    let mut t = TextTable::new(
        format!("{} — {}", result.incident, result.description),
        &["time", "up", "total", "availability"],
    );
    for s in &result.samples {
        t.row(vec![
            format!("t+{}s", s.time.seconds()),
            s.up.to_string(),
            s.total.to_string(),
            format!("{:.4}", s.availability()),
        ]);
    }
    t
}

/// The `incidents` experiment: both canonical replays, rendered as
/// per-tick availability tables.
#[must_use]
pub fn incidents(ws: &Workspace) -> Report {
    let mut report = Report::new(
        "incidents",
        "Incident replay — §2 outages unfolded in time (chaos engine)",
    );

    if let Some(mut incident) = dyn_two_wave(&ws.world16, ws.seed) {
        incident.options.max_sites = REPLAY_SITES;
        let result = replay(&ws.world16, &incident);
        let min = result.min_availability();
        report = report.table(curve_table(&result)).note(format!(
            "Mirai-Dyn (2016 world): minimum availability {:.4}; wave 1 is 95% loss \
             (retries and TTL caches soften it), wave 2 is a hard outage",
            min
        ));
    }

    if let Some(mut incident) = globalsign_stale_week(&ws.world20) {
        incident.options.max_sites = REPLAY_SITES;
        let result = replay(&ws.world20, &incident);
        let min = result.min_availability();
        report = report.table(curve_table(&result)).note(format!(
            "GlobalSign (2020 world, hard-fail clients): minimum availability {:.4}; \
             the responder is fixed after one day but cached revoked responses keep \
             denying non-stapling sites for the rest of the week",
            min
        ));
    }

    report.note(
        "Deterministic: identical seeds reproduce these curves byte-for-byte \
         (cf. `webdeps-chaos --replay`)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incidents_experiment_renders_both_curves() {
        let ws = Workspace::new(42, 1_200);
        let report = incidents(&ws);
        assert_eq!(report.tables.len(), 2, "both incidents replay");
        let text = report.render();
        assert!(text.contains("dyn"));
        assert!(text.contains("globalsign"));
        assert!(text.contains("availability"));
    }
}
