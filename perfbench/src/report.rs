//! The run result: ops attempted and failed, and named metrics.

use crate::trace::json_str;

/// `(name, unit)` of every end-to-end metric; each `--trace 0` run
/// reports all of them. Kept equal to `end_to_end` in BENCHMARK.json.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The experiment ids of `repro`, as `reports.exp.<id>_ms` metrics use
/// them. A self-test keeps this equal to `all_experiment_ids()`.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "figure2",
    "table3",
    "figure3",
    "table4",
    "figure4",
    "table5",
    "figure5",
    "figure6",
    "table6",
    "figure7",
    "table7",
    "figure8",
    "table8",
    "figure9",
    "table9",
    "table10",
    "table11",
    "validation",
    "amplification",
    "incidents",
];

/// `(name, unit)` of every per-layer metric except the per-experiment
/// ones; each `--trace 1` run reports all of them, 0 for a layer the
/// workload leaves idle. Kept equal to `per_layer` in BENCHMARK.json.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("worldgen.plan_ms", "ms"),
    ("worldgen.providers_ms", "ms"),
    ("worldgen.sites_ms", "ms"),
    ("worldgen.finalize_ms", "ms"),
    ("reports.workspace_self_ms", "ms"),
    ("reports.teardown_ms", "ms"),
    ("reports.output_bytes", "count"),
    ("chaos.incident_ms", "ms"),
    ("chaos.replay_ms", "ms"),
    ("chaos.render_ms", "ms"),
    ("chaos.teardown_ms", "ms"),
    ("chaos.site_probes", "count"),
    ("dns.queries_per_probe", "ratio"),
    ("dns.cache_hit_ratio", "ratio"),
    ("dns.retries_per_probe", "ratio"),
    ("dns.timeouts_per_probe", "ratio"),
    ("web.probe_us", "us"),
    ("serve.engine_rank_us", "us"),
    ("serve.engine_sites_us", "us"),
    ("serve.engine_churn_us", "us"),
    ("serve.engine_outage_ms", "ms"),
    ("core.patched_share", "ratio"),
    ("serve.engine_build_ms", "ms"),
    ("serve.first_answer_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.rank_ms", "ms"),
    ("serve.sites_ms", "ms"),
    ("serve.churn_ms", "ms"),
    ("serve.outage_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("serve.sheds", "count"),
    ("serve.deadlines", "count"),
    ("serve.errors", "count"),
    ("trace.overhead_ms", "ms"),
];

/// Every per-layer `(name, unit)`, per-experiment metrics included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &str)> = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(
        EXPERIMENTS
            .iter()
            .map(|id| (format!("reports.exp.{id}_ms"), "ms")),
    );
    all
}

/// Metric names use only `[A-Za-z0-9_.-]` and start alphanumeric.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[derive(Default)]
pub struct RunReport {
    attempted: u64,
    failed: u64,
    /// Why each failed op failed (capped, for the log).
    failures: Vec<String>,
    metrics: Vec<(String, f64)>,
}

const MAX_LOGGED_FAILURES: usize = 20;

impl RunReport {
    /// Counts one attempted op that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempted op that failed, and why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.ok();
        self.flag(why);
    }

    /// Marks an op already counted as failed: a check made after its
    /// reply (snapshot equality, OUTAGE agreement) did not hold.
    pub fn flag(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < MAX_LOGGED_FAILURES {
            self.failures.push(why.into());
        }
    }

    /// Records (or overwrites) metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The `metrics` object: `schema` names every metric this run
    /// reports, in order; a metric without a finite value is left out.
    pub fn metrics_json(&self, schema: &[(String, &str)]) -> String {
        let mut metrics = Vec::new();
        for (name, unit) in schema {
            if let Some(v) = self.get(name).filter(|v| v.is_finite()) {
                metrics.push(format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                ));
            }
        }
        format!("{{{}}}", metrics.join(", "))
    }

    /// The result line. A run with a failed op reports no numbers.
    pub fn to_json(&self, schema: &[(String, &str)]) -> String {
        let metrics = if self.correct() {
            self.metrics_json(schema)
        } else {
            "{}".to_string()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.correct(),
            self.attempted,
            self.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        let e2e = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u));
        for (name, unit) in e2e.chain(per_layer()) {
            assert!(valid_metric_name(&name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        assert!(!valid_metric_name("serve p99"));
        assert!(!valid_metric_name("_hidden"));
        assert!(!valid_metric_name("lat/ms"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn experiments_match_the_program() {
        assert_eq!(
            EXPERIMENTS,
            webdeps_reports::all_experiment_ids().as_slice()
        );
    }

    #[test]
    fn schema_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let e2e = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u));
        let all: Vec<(String, &str)> = e2e.chain(per_layer()).collect();
        for (name, unit) in &all {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            all.len(),
            "extra metrics"
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = RunReport::default();
        r.ok();
        r.set("setup_s", 1.25);
        r.set("latency_ms", f64::NAN);
        let line = r.to_json(&[("setup_s".into(), "s"), ("latency_ms".into(), "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        r.fail("boom");
        assert!(!r.correct());
        assert!(r
            .to_json(&[("setup_s".into(), "s")])
            .ends_with("\"metrics\": {}}"));
    }
}
