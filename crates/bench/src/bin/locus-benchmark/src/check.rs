//! Correctness checks run after every timed part. A violation marks the
//! operations it concerns as failed.
//!
//! The reference is the tree interpreter, an execution engine
//! independent of the register VM that measures variants while tuning:
//! every distinct variant a run shipped is measured again on it and the
//! two measurements must agree bit for bit.

use std::collections::BTreeMap;

use locus_core::LocusSystem;
use locus_machine::{ExecEngine, Machine, Measurement};
use locus_space::Point;
use locus_srcir::ast::Program;

use crate::library::{registry_contexts, Context, Library, LibraryRun};
use crate::service::{Service, ServiceRun};

/// Bit-identity of two measurements: every float compared by its bits.
pub fn identical(a: &Measurement, b: &Measurement) -> bool {
    a.cycles.to_bits() == b.cycles.to_bits()
        && a.time_ms.to_bits() == b.time_ms.to_bits()
        && a.ops == b.ops
        && a.flops == b.flops
        && a.checksum == b.checksum
        && a.cache == b.cache
}

/// Measures `program` on the tree interpreter under `system`'s machine.
fn tree_measure(system: &LocusSystem, program: &Program) -> Result<Measurement, String> {
    let config = system
        .machine
        .config()
        .clone()
        .with_engine(ExecEngine::Tree);
    Machine::new(config)
        .run(program, &system.entry)
        .map_err(|e| e.to_string())
}

/// Checks a library run; returns the indices of failed operations.
///
/// * every session accounts for each proposal exactly once
///   (`proposed == accounted()`);
/// * sessions that ship the same point ship bit-identical measurements;
/// * every distinct shipped variant measures bit-identically on the
///   tree interpreter.
pub fn library(workload: &Library, run: &LibraryRun) -> Vec<usize> {
    let mut failed = Vec::new();
    for (i, kept) in run.sessions.iter().enumerate() {
        let Some(kept) = kept else { continue };
        if kept.report.proposed != kept.report.accounted() {
            eprintln!(
                "check: session {i} proposed {} but accounted for {}",
                kept.report.proposed,
                kept.report.accounted()
            );
            failed.push(i);
        }
    }
    for ((context, point), shipped) in &run.shipped {
        let context = &workload.contexts[*context];
        if !shipped.diverged.is_empty() {
            eprintln!(
                "check: {point} on {} measured differently across sessions",
                context.label
            );
            failed.extend(&shipped.diverged);
        }
        match tree_measure(&context.system, &shipped.program) {
            Ok(reference) if identical(&reference, &shipped.measurement) => {}
            other => {
                eprintln!(
                    "check: {point} on {} does not reproduce on the tree interpreter: {other:?}",
                    context.label
                );
                failed.extend(&shipped.ops);
            }
        }
    }
    failed.sort_unstable();
    failed.dedup();
    failed
}

/// Checks a service run; returns the indices of failed requests.
///
/// * every tune reply's checksum equals the tree-interpreter baseline
///   checksum of its kernel on its profile;
/// * replies that ship the same point agree on `best_ms` and checksum;
/// * every distinct shipped variant, rebuilt from the reply's best
///   point, measures on the tree interpreter to the reply's `best_ms`
///   bits and checksum;
/// * every suggest reply carries a program.
pub fn service(workload: &Service, run: &ServiceRun) -> Vec<usize> {
    let mut failed = Vec::new();
    // (context label, best point) -> (requests, best_ms, checksum)
    let mut distinct: BTreeMap<(String, String), (Vec<usize>, f64, u64)> = BTreeMap::new();
    for (i, answered) in run.requests.iter().enumerate() {
        let Some(reply) = answered.response.as_ref().filter(|r| r.ok) else {
            continue;
        };
        let request = &answered.planned.request;
        if request.op == locus_daemon::Op::Suggest {
            if reply.get_str("program").is_none_or(str::is_empty) {
                eprintln!("check: suggest {} returned no program", request.id);
                failed.push(i);
            }
            continue;
        }
        let best_point = reply.get_str("best_point").unwrap_or_default();
        if best_point.is_empty() {
            continue;
        }
        let checksum = reply
            .get_str("checksum")
            .and_then(|c| u64::from_str_radix(c, 16).ok());
        let reference = workload.reference(&request.kernel, &request.machine);
        let (Some(checksum), Some(best_ms)) = (checksum, reply.get_f64("best_ms")) else {
            eprintln!("check: reply {} lacks checksum or best_ms", request.id);
            failed.push(i);
            continue;
        };
        if Some(checksum) != reference {
            eprintln!(
                "check: reply {} checksum {checksum:016x} differs from the baseline {:016x}",
                request.id,
                reference.unwrap_or_default()
            );
            failed.push(i);
        }
        let label = format!("{}@{}", request.kernel, request.machine);
        let (ops, first_ms, first_checksum) = distinct
            .entry((label, best_point.to_string()))
            .or_insert_with(|| (Vec::new(), best_ms, checksum));
        if first_ms.to_bits() == best_ms.to_bits() && *first_checksum == checksum {
            ops.push(i);
        } else {
            eprintln!(
                "check: reply {} differs from an earlier reply shipping the same point",
                request.id
            );
            failed.push(i);
        }
    }

    let contexts = registry_contexts();
    for ((label, point), (ops, best_ms, checksum)) in &distinct {
        let rebuilt = contexts
            .iter()
            .find(|c| &c.label == label)
            .ok_or_else(|| format!("no registry context {label}"))
            .and_then(|context| rebuild(context, point));
        match rebuilt {
            Ok(m) if m.time_ms.to_bits() == best_ms.to_bits() && m.checksum == *checksum => {}
            other => {
                eprintln!(
                    "check: {point} on {label} does not reproduce on the tree interpreter: {other:?}"
                );
                failed.extend(ops);
            }
        }
    }
    failed.sort_unstable();
    failed.dedup();
    failed
}

/// Rebuilds the variant a best point denotes and measures it on the
/// tree interpreter.
fn rebuild(context: &Context, point: &str) -> Result<Measurement, String> {
    let system = &context.system;
    let prepared = system
        .prepare(&context.program, &context.locus)
        .map_err(|e| e.to_string())?;
    let point = Point::parse_canonical_key(point).ok_or("unparseable best point")?;
    let program = system
        .build_variant(&context.program, &prepared, &point)
        .map_err(|e| format!("{e:?}"))?;
    tree_measure(system, &program)
}
