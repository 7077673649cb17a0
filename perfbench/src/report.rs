//! Metric names, units and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the only names a run may print;
//! a test checks them against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write;

/// `(name, unit, better)` of every end-to-end metric, printed by an
/// untraced run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("knn_p50_us", "us", "lower"),
    ("knn_p95_us", "us", "lower"),
    ("box_p50_us", "us", "lower"),
    ("box_p95_us", "us", "lower"),
    ("range_p50_us", "us", "lower"),
    ("range_p95_us", "us", "lower"),
    ("write_p50_us", "us", "lower"),
    ("write_p95_us", "us", "lower"),
    ("write_per_s", "1/s", "higher"),
    ("pages_per_query", "count", "lower"),
    ("norm_cpu", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("space_amp", "ratio", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, printed by a traced
/// run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("page.storage.read_us", "us", "lower"),
    ("page.crc_us", "us", "lower"),
    ("page.storage.write_us", "us", "lower"),
    ("page.pool.hit_rate", "ratio", "higher"),
    ("page.pool.physical_reads_per_query", "count", "lower"),
    ("page.pool.physical_writes_per_write", "count", "lower"),
    ("page.cache.hit_rate", "ratio", "higher"),
    ("page.cache.decodes_per_query", "count", "lower"),
    ("page.cache.invalidations_per_write", "count", "lower"),
    ("core.decode_data_us", "us", "lower"),
    ("core.decode_index_us", "us", "lower"),
    ("core.view_filter_us", "us", "lower"),
    ("core.persist_ms", "ms", "lower"),
    ("core.open_ms", "ms", "lower"),
    ("core.recover_ms", "ms", "lower"),
    ("core.height", "count", "lower"),
    ("core.leaf_util", "ratio", "higher"),
    ("core.overlap_frac", "ratio", "lower"),
    ("core.pages", "count", "lower"),
    ("geom.l2_sq_ns", "ns", "lower"),
    ("geom.l2_within_ns", "ns", "lower"),
    ("geom.l1_ns", "ns", "lower"),
    ("geom.min_dist_rect_sq_ns", "ns", "lower"),
    ("exec.cursor_over_batch", "ratio", "lower"),
    ("exec.rest_us", "us", "lower"),
    ("knn_qps_2t", "1/s", "higher"),
    ("eval.parallel_efficiency", "ratio", "higher"),
    ("ref.flat_scan_us", "us", "lower"),
    ("ref.sr_tree.knn_p50_us", "us", "lower"),
    ("ref.sr_tree.pages_per_query", "count", "lower"),
    ("tail.knn_p99_us", "us", "lower"),
    ("trace.overhead", "ratio", "lower"),
];

/// Metric values of one run, with the sample count behind each where
/// there is one.
pub struct Report {
    specs: &'static [(&'static str, &'static str, &'static str)],
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Self {
            specs: if traced { PER_LAYER } else { END_TO_END },
            values: BTreeMap::new(),
        }
    }

    /// Records a metric. Metrics of the other mode are ignored, so a
    /// workload can compute both lists on one path.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, None);
    }

    /// Records a metric with the number of samples it summarizes.
    pub fn set_n(&mut self, name: &str, value: f64, n: Option<usize>) {
        match self.specs.iter().find(|s| s.0 == name) {
            Some(spec) => {
                self.values.insert(spec.0, (value, n));
            }
            None => assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|s| s.0 == name),
                "unknown metric {name}"
            ),
        }
    }

    /// Names of this run's metrics that are still unset or not finite.
    pub fn missing(&self) -> Vec<&'static str> {
        self.specs
            .iter()
            .filter(|s| !self.values.get(s.0).is_some_and(|v| v.0.is_finite()))
            .map(|s| s.0)
            .collect()
    }

    /// A human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit, better) in self.specs {
            let (v, n) = self.values.get(name).copied().unwrap_or((f64::NAN, None));
            let n = n.map_or(String::new(), |n| format!("  (n={n})"));
            let _ = writeln!(out, "  {name:<38} {v:>14.4} {unit:<6} {better}{n}");
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric as `{"value", "unit"}`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for (name, unit, _) in self.specs {
            let Some(&(v, _)) = self.values.get(name) else {
                continue;
            };
            if !v.is_finite() {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(section, name, unit, better)` of every metric in
    /// `BENCHMARK.json`, which lists one metric object per line.
    fn benchmark_json_metrics() -> Vec<(String, String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let field = |line: &str, key: &str| -> Option<String> {
            let at = line.find(&format!("\"{key}\""))?;
            let rest = &line[at + key.len() + 2..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_string())
        };
        let mut section = String::new();
        let mut out = Vec::new();
        for line in text.lines() {
            for s in ["workloads", "end_to_end", "per_layer"] {
                if line.contains(&format!("\"{s}\"")) {
                    section = s.to_string();
                }
            }
            if let Some(name) = field(line, "name") {
                let unit = field(line, "unit").unwrap_or_default();
                let better = field(line, "better").unwrap_or_default();
                out.push((section.clone(), name, unit, better));
            }
        }
        out
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let listed = benchmark_json_metrics();
        for (section, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String, String)> = listed
                .iter()
                .filter(|m| m.0 == section)
                .map(|m| (m.1.clone(), m.2.clone(), m.3.clone()))
                .collect();
            let have: Vec<(String, String, String)> = specs
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            assert_eq!(have, want, "{section} differs from BENCHMARK.json");
        }
        let workloads: Vec<&str> = listed
            .iter()
            .filter(|m| m.0 == "workloads")
            .map(|m| m.1.as_str())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn json_line_lists_exactly_the_mode_metrics() {
        let mut r = Report::new(false);
        for (i, (name, ..)) in END_TO_END.iter().enumerate() {
            r.set(name, i as f64 + 0.5);
        }
        // Per-layer values are dropped in an untraced run.
        r.set("core.pages", 7.0);
        assert!(r.missing().is_empty());
        let line = r.json(true, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, unit, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(!line.contains("core.pages"));
        let mut partial = Report::new(true);
        partial.set("trace.overhead", f64::NAN);
        assert_eq!(partial.missing().len(), PER_LAYER.len());
    }
}
