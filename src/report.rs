//! Narrative rendering of tuning-session traces — the library behind
//! the `locus-report` binary.
//!
//! A tuning run traced with [`locus_trace::Tracer`] leaves a flat event
//! stream: phase spans, per-evaluation instants, verifier prune events,
//! search-module decisions and a closing session summary. This module
//! replays that stream into a human-readable report: where the time
//! went (phase breakdown), how the memo cache and the persistent store
//! paid off (hit and prune rates), which variants won (top recipes) and
//! how the search converged. The same renderer also explains a
//! persistent [`TuningStore`] file directly, without a trace.
//!
//! Everything here is a pure function of its input, so reports over a
//! committed fixture trace are byte-stable — the property the golden
//! tests in `tests/report_golden.rs` pin down.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use locus_search::Objective;
use locus_store::TuningStore;
use locus_trace::{Event, Value};

/// Width of the phase-breakdown bar chart, in characters.
const BAR_WIDTH: usize = 32;

/// Validates that `events` form a replayable tuning trace: at least one
/// `phase` span and exactly one `session` summary event.
///
/// # Errors
///
/// Returns a description of the first missing ingredient.
pub fn check_trace(events: &[Event]) -> Result<(), String> {
    if events.is_empty() {
        return Err("trace is empty".to_string());
    }
    if !events
        .iter()
        .any(|e| e.cat == "phase" && e.dur_us.is_some())
    {
        return Err("trace has no phase spans".to_string());
    }
    match events
        .iter()
        .filter(|e| e.cat == "session" && e.name == "summary")
        .count()
    {
        0 => Err("trace has no session summary event".to_string()),
        1 => Ok(()),
        n => Err(format!("trace has {n} session summary events, expected 1")),
    }
}

/// Keeps only the events stamped with request id `id` (a `req` string
/// argument, as written by the `locusd` daemon via
/// `locus_trace::tag_events`). A daemon trace log interleaves many
/// requests; filtering first turns it back into a single-session trace
/// that [`check_trace`] and [`render_trace`] can replay.
pub fn filter_request(events: &[Event], id: &str) -> Vec<Event> {
    events
        .iter()
        .filter(|e| matches!(e.arg("req"), Some(Value::Str(s)) if s == id))
        .cloned()
        .collect()
}

/// Renders the full narrative report of one traced tuning session.
pub fn render_trace(events: &[Event]) -> String {
    let mut out = String::new();
    let summary = events
        .iter()
        .find(|e| e.cat == "session" && e.name == "summary");

    out.push_str("locus-report: tuning session\n");
    out.push_str("============================\n\n");

    if let Some(summary) = summary {
        render_summary(&mut out, summary);
    } else {
        out.push_str("(no session summary event: partial trace)\n\n");
    }
    render_phases(&mut out, events);
    if let Some(summary) = summary {
        render_rates(&mut out, summary);
    }
    render_prunes(&mut out, events);
    render_top_variants(&mut out, events);
    render_convergence(&mut out, events);
    out
}

/// Renders the session header from the `session`/`summary` event.
fn render_summary(out: &mut String, summary: &Event) {
    let field = |key: &str| -> String {
        summary
            .arg(key)
            .map(render_value)
            .unwrap_or_else(|| "?".to_string())
    };
    let _ = writeln!(out, "search module   {}", field("search"));
    let _ = writeln!(
        out,
        "budget          {} evaluations on {} thread(s)",
        field("budget"),
        field("threads")
    );
    let _ = writeln!(out, "space size      {} points", field("space_size"));
    let _ = writeln!(
        out,
        "machine         digest {}  space digest {}",
        field("machine_digest"),
        field("space_digest")
    );
    let baseline = summary.arg("baseline_ms").and_then(Value::as_f64);
    let best = summary.arg("best_ms").and_then(Value::as_f64);
    match (baseline, best) {
        (Some(b), Some(v)) if v > 1e-12 => {
            let _ = writeln!(
                out,
                "result          baseline {b:.4} ms -> best {v:.4} ms  (speedup {:.2}x)",
                (b / v).max(1.0)
            );
        }
        (Some(b), _) => {
            let _ = writeln!(
                out,
                "result          baseline {b:.4} ms, no improving variant"
            );
        }
        _ => {}
    }
    out.push('\n');
}

/// Renders the per-phase time breakdown (driver `phase` spans plus the
/// worker-side `machine` spans) as a bar chart.
fn render_phases(out: &mut String, events: &[Event]) {
    let mut driver: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    let mut worker: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for e in events {
        let Some(dur) = e.dur_us else { continue };
        let table = match e.cat.as_str() {
            "phase" => &mut driver,
            "machine" => &mut worker,
            _ => continue,
        };
        let entry = table.entry(e.name.as_str()).or_insert((0, 0));
        entry.0 += dur;
        entry.1 += 1;
    }
    if driver.is_empty() && worker.is_empty() {
        return;
    }

    out.push_str("phase breakdown\n---------------\n");
    let total: u64 = driver.values().map(|(us, _)| *us).sum::<u64>().max(1);
    let mut rows: Vec<(&str, u64, usize)> = driver
        .into_iter()
        .map(|(name, (us, n))| (name, us, n))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (name, us, n) in rows {
        let frac = us as f64 / total as f64;
        let bar = "#".repeat(((frac * BAR_WIDTH as f64).round() as usize).min(BAR_WIDTH));
        let _ = writeln!(
            out,
            "{name:<16} {:>9.3} ms {:>5.1}%  x{n:<4} {bar}",
            us as f64 / 1e3,
            frac * 100.0
        );
    }
    if !worker.is_empty() {
        out.push_str("worker time (inside measure, summed over threads)\n");
        for (name, (us, n)) in worker {
            let _ = writeln!(out, "  {name:<16} {:>9.3} ms  x{n}", us as f64 / 1e3);
        }
    }
    out.push('\n');
}

/// Renders memo / store / prune rates from the summary counters.
fn render_rates(out: &mut String, summary: &Event) {
    let count = |key: &str| summary.arg(key).and_then(Value::as_u64).unwrap_or(0);
    let proposed = count("proposed");
    if proposed == 0 {
        return;
    }
    let rate = |n: u64| n as f64 * 100.0 / proposed as f64;
    out.push_str("evaluation accounting\n---------------------\n");
    let _ = writeln!(out, "proposed        {proposed}");
    // Why the session ended; traces written before the driver said so
    // carry no `stop` key and render unchanged.
    if let Some(stop) = summary.arg("stop").and_then(Value::as_str) {
        let _ = writeln!(out, "stopped         {stop}");
    }
    for (label, key) in [
        ("measured", "evaluations"),
        ("memo hits", "memo_hits"),
        ("store hits", "store_hits"),
        ("pruned illegal", "pruned_illegal"),
        ("build failed", "build_failed"),
    ] {
        // Traces written before failed builds had their own counter
        // carry no `build_failed` key; they counted them as measured.
        if key == "build_failed" && summary.arg(key).is_none() {
            continue;
        }
        let n = count(key);
        let _ = writeln!(out, "{label:<15} {n:<6} ({:.1}%)", rate(n));
    }
    let (rehydrated, seeded, appended) = (count("rehydrated"), count("seeded"), count("appended"));
    if rehydrated + seeded + appended > 0 {
        let _ = writeln!(
            out,
            "store           rehydrated {rehydrated}, warm-start seeds {seeded}, appended {appended}"
        );
    }
    out.push('\n');
}

/// Renders the verifier's prune events, grouped by refusal category.
fn render_prunes(out: &mut String, events: &[Event]) {
    let prunes: Vec<&Event> = events
        .iter()
        .filter(|e| e.cat == "verify" && e.name == "prune")
        .collect();
    if prunes.is_empty() {
        return;
    }
    let mut by_category: BTreeMap<&str, (usize, &str)> = BTreeMap::new();
    for e in &prunes {
        let category = e.arg("category").and_then(Value::as_str).unwrap_or("other");
        let reason = e.arg("reason").and_then(Value::as_str).unwrap_or("?");
        let entry = by_category.entry(category).or_insert((0, reason));
        entry.0 += 1;
    }
    out.push_str("statically pruned points\n------------------------\n");
    for (category, (n, example)) in by_category {
        let _ = writeln!(out, "{category:<12} {n:<4} e.g. {example}");
    }
    // Verdict provenance (exact polyhedral engine vs conservative
    // fallback) — only traces written after the engine landed carry the
    // key, and older traces render unchanged.
    let mut exact = 0usize;
    let mut conservative = 0usize;
    for e in &prunes {
        match e.arg("provenance").and_then(Value::as_str) {
            Some("exact") => exact += 1,
            Some(_) => conservative += 1,
            None => {}
        }
    }
    if exact + conservative > 0 {
        let _ = writeln!(
            out,
            "provenance   {exact} exact / {conservative} conservative"
        );
    }
    out.push('\n');
}

/// Renders the top variants with their shippable direct recipes.
fn render_top_variants(out: &mut String, events: &[Event]) {
    let mut tops: Vec<&Event> = events
        .iter()
        .filter(|e| e.cat == "eval" && e.name == "top-variant")
        .collect();
    if tops.is_empty() {
        return;
    }
    tops.sort_by_key(|e| e.arg("rank").and_then(Value::as_u64).unwrap_or(u64::MAX));
    out.push_str("top variants\n------------\n");
    for e in tops {
        let rank = e.arg("rank").and_then(Value::as_u64).unwrap_or(0);
        let point = e.arg("point").and_then(Value::as_str).unwrap_or("?");
        let ms = e.arg("ms").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let _ = writeln!(out, "#{rank}  {ms:.4} ms  {point}");
        if let Some(recipe) = e.arg("recipe").and_then(Value::as_str) {
            for line in recipe.lines() {
                let _ = writeln!(out, "      {line}");
            }
        }
    }
    out.push('\n');
}

/// Renders the convergence curve: every evaluation that improved the
/// best-so-far, in merge order.
fn render_convergence(out: &mut String, events: &[Event]) {
    let mut best = f64::INFINITY;
    let mut steps: Vec<String> = Vec::new();
    let mut evals = 0usize;
    for e in events {
        if e.cat != "eval" || e.name != "point" {
            continue;
        }
        evals += 1;
        let Some(ms) = e.arg("ms").and_then(Value::as_f64) else {
            continue;
        };
        if ms < best {
            best = ms;
            let index = e.arg("index").and_then(Value::as_u64).unwrap_or(0);
            let origin = e.arg("origin").and_then(Value::as_str).unwrap_or("?");
            steps.push(format!("eval {index:<4} best -> {ms:.4} ms  ({origin})"));
        }
    }
    if steps.is_empty() {
        return;
    }
    out.push_str("convergence\n-----------\n");
    const SHOWN: usize = 12;
    let elided = steps.len().saturating_sub(SHOWN);
    for step in steps.iter().take(SHOWN) {
        out.push_str(step);
        out.push('\n');
    }
    if elided > 0 {
        let _ = writeln!(out, "... {elided} further improvement(s)");
    }
    let _ = writeln!(out, "({evals} evaluations merged in total)");
    out.push('\n');
}

/// Renders a value for the report (floats get a compact fixed format).
fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::F64(x) => format!("{x:.4}"),
        Value::Bool(b) => b.to_string(),
    }
}

/// Explains a persistent [`TuningStore`] file: per tuning context, the
/// record counts and best stored result; then every session summary
/// with its winning recipe.
pub fn render_store(store: &TuningStore) -> String {
    let mut out = String::new();
    out.push_str("locus-report: tuning store\n");
    out.push_str("==========================\n\n");
    let _ = writeln!(
        out,
        "{} evaluation record(s) across {} context(s); {} malformed line(s) skipped\n",
        store.len(),
        store.keys().len(),
        store.skipped_lines()
    );

    for key in store.keys() {
        let regions: Vec<&str> = key.regions.iter().map(|(id, _)| id.as_str()).collect();
        let _ = writeln!(
            out,
            "context [{}]  machine {:016x}  space {:016x}",
            regions.join(", "),
            key.machine,
            key.space
        );
        let evals = store.evals(key);
        let prunes = store.prunes(key);
        let valid = evals
            .iter()
            .filter(|r| matches!(r.objective, Objective::Value(_)))
            .count();
        let _ = writeln!(
            out,
            "  {} eval(s) ({valid} valid), {} prune(s)",
            evals.len(),
            prunes.len()
        );
        let best = evals
            .iter()
            .filter_map(|r| match r.objective {
                Objective::Value(ms) => Some((ms, r)),
                _ => None,
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.point_key.cmp(&b.1.point_key)));
        if let Some((ms, record)) = best {
            let _ = writeln!(
                out,
                "  best {ms:.4} ms at {} (search: {})",
                record.point_key, record.search
            );
        }
        out.push('\n');
    }

    let sessions: Vec<_> = store.sessions().collect();
    if !sessions.is_empty() {
        out.push_str("sessions\n--------\n");
        for (_, s) in sessions {
            let _ = writeln!(
                out,
                "region {}  best {:.4} ms at {}  (search: {})",
                s.region, s.best_ms, s.best_point, s.search
            );
            for line in s.recipe.lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        out.push('\n');
    }
    out
}
