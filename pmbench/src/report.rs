//! Metric tables (mirroring `BENCHMARK.json`) and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_frac", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.  Every workload
/// reports all of them; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "fraction"),
    ("latency_samples", "count"),
    ("serve.call_ms", "ms"),
    ("serve.call_p99_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.allocs_per_op", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("solver.solve_ms", "ms"),
    ("solver.max_card_ms", "ms"),
    ("solver.infeasible_ms", "ms"),
    ("solver.reduce_ms", "ms"),
    ("solver.algorithm2_ms", "ms"),
    ("solver.promote_ms", "ms"),
    ("solver.peel_rounds", "count"),
    ("solver.allocs_per_solve", "count"),
    ("solver.relabeled_max_card_ms", "ms"),
    ("pram.depth", "count"),
    ("pram.work", "count"),
    ("pram.census_ms", "ms"),
    ("pram.jump_ms", "ms"),
    ("delta.apply_us", "us"),
    ("delta.flush_us", "us"),
    ("delta.install_s", "s"),
    ("delta.shard_solves_per_delta", "ratio"),
    ("delta.full_solves", "count"),
    ("delta.fallback_full_solves", "count"),
    ("delta.spliced_per_delta", "ratio"),
    ("instances.decode_ms", "ms"),
    ("instances.layout_ms", "ms"),
    ("instances.bytes_per_entity", "B"),
    ("switching.build_ms", "ms"),
    ("switching.components_ms", "ms"),
    ("switching.components", "count"),
    ("matching.ties_ms", "ms"),
    ("matching.hk_bfs_ms", "ms"),
    ("matching.hk_dfs_ms", "ms"),
    ("matching.hk_augment_ms", "ms"),
    ("stable.next_ms", "ms"),
    ("stable.walk_steps", "count"),
    ("stable.rotations", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.step_self_frac", "fraction"),
];

/// Metric values by name, filled in by a workload.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric; panics on a name outside both tables (a typo here is
    /// a benchmark bug, not an input error).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in the metric tables"
        );
        self.0.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed or answered wrongly.
    pub failed: u64,
    /// Answer checks that did not pass, described.
    pub problems: Vec<String>,
    /// The measured metrics.
    pub metrics: Metrics,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// Spans of a traced run (client spans, then replay spans).
    pub spans: Vec<crate::trace::Span>,
}

/// Formats a number as JSON: non-finite values become 0 so the line always
/// parses (and the run is marked incorrect by the caller).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: every metric of `table`, in table order.
/// Returns an error naming a metric the workload failed to set.
pub fn result_line(
    correct: bool,
    outcome: &Outcome,
    table: &[(&str, &str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let v = outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(v),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables and workload names must match `BENCHMARK.json`,
    /// which sits at the root of the repository beside this crate.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let names = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(END_TO_END));
        assert_eq!(section("per_layer"), names(PER_LAYER));
        let workloads: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(section("workloads"), workloads);
    }

    #[test]
    fn result_line_lists_metrics_in_table_order() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.set("setup_s", 0.5);
        o.metrics.set("ops_per_s", 2.0);
        let line = result_line(true, &o, &END_TO_END[..2]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 2, \"unit\": \"1/s\"}}}"
        );
        assert!(result_line(true, &o, END_TO_END).is_err());
    }
}
