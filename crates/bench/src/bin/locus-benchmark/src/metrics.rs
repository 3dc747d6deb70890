//! The metric catalogue and the one-line JSON result.
//!
//! Every workload reports every metric of a catalogue: the end-to-end
//! metrics from an untraced run, the per-layer metrics from a traced
//! one. `BENCHMARK.json` at the repository root lists the same names,
//! units and directions (a unit test keeps the two in step).

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the tuner sees, measured with tracing off. An
/// operation is one tuning session (library workloads) or one request
/// (service workload); latencies are in multiples of the reference
/// computation's time (see [`crate::calibrate`]).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("latency.p50", "ref", Lower),
    m("latency.p90", "ref", Lower),
    m("speedup.geomean", "x", Higher),
    m("peak_rss_mb", "MB", Lower),
];

/// Single layers, measured in a separate traced run. Times and counts
/// are means per operation unless the name says otherwise.
pub const PER_LAYER: &[Metric] = &[
    // core: the driver's own `phase` spans and its session accounting.
    m("core.prepare_ms", "ms", Lower),
    m("core.baseline_ms", "ms", Lower),
    m("core.propose_ms", "ms", Lower),
    m("core.build_verify_ms", "ms", Lower),
    m("core.merge_ms", "ms", Lower),
    m("core.finalize_ms", "ms", Lower),
    m("core.outside_ms", "ms", Lower),
    m("core.untraced_share", "ratio", Lower),
    m("core.proposed", "count", Lower),
    m("core.evaluations", "count", Lower),
    m("core.memo_hits", "count", Higher),
    m("core.store_hits", "count", Higher),
    m("core.fresh_ratio", "ratio", Higher),
    m("core.overshoot", "count", Lower),
    // search: the benchmark's timing wrapper around the module.
    m("search.propose_ms", "ms", Lower),
    m("search.propose_calls", "count", Lower),
    m("search.observe_ms", "ms", Lower),
    m("search.oracle_calls", "count", Lower),
    m("search.oracle_ms", "ms", Lower),
    m("search.budget_used", "ratio", Higher),
    m("search.budget_used.exhaustive", "ratio", Higher),
    m("search.budget_used.random", "ratio", Higher),
    m("search.budget_used.bandit", "ratio", Higher),
    m("search.budget_used.anneal", "ratio", Higher),
    m("search.budget_used.mcts", "ratio", Higher),
    m("search.budget_used.sampler", "ratio", Higher),
    m("search.budget_used.portfolio", "ratio", Higher),
    // machine: worker-lane spans of the driver plus isolated probes.
    m("machine.measure_ms", "ms", Lower),
    m("machine.compile_ms", "ms", Lower),
    m("machine.sim_ms", "ms", Lower),
    m("machine.busy_share", "ratio", Higher),
    m("machine.compile_us", "us", Lower),
    m("machine.sim_us", "us", Lower),
    // lang / transform / analysis: isolated probes on recorded points.
    m("lang.direct_program_us", "us", Lower),
    m("transform.build_variant_us", "us", Lower),
    m("analysis.deps_us", "us", Lower),
    // store
    m("store.open_ms", "ms", Lower),
    m("store.rehydrate_ms", "ms", Lower),
    m("store.append_ms", "ms", Lower),
    m("store.bytes", "B", Lower),
    m("store.rehydrated", "count", Higher),
    m("store.appended", "count", Lower),
    // daemon
    m("daemon.connect_ms", "ms", Lower),
    m("daemon.encode_us", "us", Lower),
    m("daemon.decode_us", "us", Lower),
    // load generator
    m("load.backlog", "count", Lower),
    m("load.late_ms.p90", "ms", Lower),
    // tracing itself
    m("trace.overhead", "ratio", Lower),
];

/// The values one run measured, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub values: Values,
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric of `catalogue` with its unit. A metric the run did not set,
/// or set to a non-finite value, is a bug in the benchmark; it is
/// reported as 0 and makes the result incorrect.
pub fn result_line(outcome: &Outcome, catalogue: &[Metric]) -> (String, bool) {
    let mut correct = outcome.failed == 0;
    let mut metrics = Vec::with_capacity(catalogue.len());
    for metric in catalogue {
        let value = match outcome.values.get(metric.name) {
            Some(v) if v.is_finite() => v,
            other => {
                eprintln!("metric {} has no finite value ({other:?})", metric.name);
                correct = false;
                0.0
            }
        };
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            json_number(value),
            metric.unit
        ));
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    (line, correct)
}

/// A finite float as a JSON number with every digit Rust's shortest
/// round-trip formatting produces.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name is 1..=64 characters of `[A-Za-z0-9_.-]`, starting
    /// with a letter or digit.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(
                !metric.unit.is_empty()
                    && metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                metric.unit
            );
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name(".x"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let squashed: String = text.split_whitespace().collect();
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = squashed
                .find(&format!("\"{section}\":["))
                .unwrap_or_else(|| panic!("section {section}"));
            let body = &squashed[start..];
            let body = &body[..body.find(']').expect("section closes")];
            for metric in catalogue {
                let entry = format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                    metric.name,
                    metric.unit,
                    metric.better.as_str()
                );
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
            assert_eq!(
                body.matches("\"name\":").count(),
                catalogue.len(),
                "{section} has entries the catalogue lacks"
            );
        }
    }

    #[test]
    fn result_line_reports_every_metric_with_its_unit() {
        let mut values = Values::default();
        for (i, metric) in END_TO_END.iter().enumerate() {
            values.set(metric.name, 1.25 + i as f64);
        }
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            values,
        };
        let (line, correct) = result_line(&outcome, END_TO_END);
        assert!(correct);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"latency.p50\": {\"value\": 2.25, \"unit\": \"ref\"}"));
        let missing = Outcome {
            attempted: 1,
            failed: 0,
            values: Values::default(),
        };
        assert!(!result_line(&missing, END_TO_END).1);
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1), "0.1");
    }
}
