//! Repeatability mode: each workload run `N` times in child processes,
//! alternating workloads, each run with the next seed, then every
//! metric's median, quartiles and spread across the runs.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::RunConfig;

/// One child's result line.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

/// Reads a line printed by [`crate::metrics::result_line`].
pub fn parse_result(line: &str) -> Option<Parsed> {
    let field = |key: &str| {
        let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[start..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    while let Some(open) = rest.find('"') {
        let name_end = open + 1 + rest[open + 1..].find('"')?;
        let name = rest[open + 1..name_end].to_string();
        rest = &rest[name_end..];
        let value_start = rest.find("\"value\": ")? + 9;
        let value_end = value_start + rest[value_start..].find(',')?;
        let value: f64 = rest[value_start..value_end].parse().ok()?;
        let unit_start = rest.find("\"unit\": \"")? + 9;
        let unit_end = unit_start + rest[unit_start..].find('"')?;
        let unit = rest[unit_start..unit_end].to_string();
        rest = &rest[unit_end + 1..];
        rest = &rest[rest.find('}')? + 1..];
        metrics.push((name, value, unit));
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Runs `n` rounds; round `i` runs every workload with seed
/// `config.seed + i`, in forward order on even rounds and reversed on
/// odd ones. Prints one row per workload and metric.
pub fn repeat(n: usize, workloads: &[String], config: &RunConfig) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut samples: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut all_correct = true;
    for round in 0..n {
        let seed = config.seed.wrapping_add(round as u64);
        let mut order: Vec<&String> = workloads.iter().collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            let output = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &config.seconds.to_string()])
                .args(["--trace", if config.traced { "1" } else { "0" }])
                .output();
            let parsed = output.as_ref().ok().and_then(|out| {
                let stdout = String::from_utf8_lossy(&out.stdout);
                parse_result(stdout.lines().last()?)
            });
            let Some(parsed) = parsed.filter(|p| p.correct) else {
                all_correct = false;
                eprintln!("{workload} seed {seed}: no correct result");
                if let Ok(out) = &output {
                    eprintln!("{}", String::from_utf8_lossy(&out.stderr));
                }
                continue;
            };
            eprintln!(
                "{workload} seed {seed}: {} attempted, {} failed",
                parsed.attempted, parsed.failed
            );
            for (name, value, unit) in parsed.metrics {
                samples
                    .entry((workload.clone(), name))
                    .or_insert_with(|| (unit, Vec::new()))
                    .1
                    .push(value);
            }
        }
    }
    println!(
        "{:<13} {:<32} {:>6} {:>6} {:>3} {:>14} {:>14} {:>14} {:>7}",
        "workload", "metric", "unit", "better", "n", "median", "q1", "q3", "spread"
    );
    for ((workload, name), (unit, values)) in &samples {
        let better = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .map_or("?", |m| m.better.as_str());
        let med = median(values).unwrap_or(f64::NAN);
        let (q1, _, q3) = quartiles(values).unwrap_or((med, med, med));
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!(
            "{workload:<13} {name:<32} {unit:>6} {better:>6} {:>3} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>7.4}",
            values.len()
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{result_line, Outcome, Values};

    #[test]
    fn result_lines_parse_back() {
        let mut values = Values::default();
        for (i, metric) in END_TO_END.iter().enumerate() {
            values.set(metric.name, 0.125 * (i + 1) as f64);
        }
        let outcome = Outcome {
            attempted: 42,
            failed: 1,
            values,
        };
        let (line, _) = result_line(&outcome, END_TO_END);
        let parsed = parse_result(&line).expect("parses");
        assert!(!parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (42, 1));
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        for (i, (metric, (name, value, unit))) in END_TO_END.iter().zip(&parsed.metrics).enumerate()
        {
            assert_eq!(name, metric.name);
            assert_eq!(unit, metric.unit);
            assert_eq!(*value, 0.125 * (i + 1) as f64);
        }
    }
}
