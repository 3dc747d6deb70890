//! Golden-file tests for the `locus-report` renderer.
//!
//! Two committed fixture traces pin the narrative output byte-for-byte:
//!
//! * `tests/fixtures/session_trace.jsonl` — a real trace captured from
//!   `examples/traced_session.rs` (DGEMM, bandit search, 4 threads);
//! * `tests/fixtures/synthetic_trace.jsonl` — a hand-written trace that
//!   exercises the sections a lucky real run may skip (statically pruned
//!   points, store rehydrate/seed/append counters, invalid verdicts).
//!
//! Regenerate a golden after an intentional renderer change with
//! `cargo run --bin locus-report -- tests/fixtures/<trace> > tests/fixtures/<report>`.

use locus::report::{check_trace, render_trace};
use locus::trace::from_jsonl;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn assert_golden(trace_file: &str, report_file: &str) {
    let events = from_jsonl(&fixture(trace_file)).expect("fixture trace parses");
    check_trace(&events).expect("fixture trace is complete");
    let rendered = render_trace(&events);
    let golden = fixture(report_file);
    if rendered != golden {
        // A plain assert_eq! on multi-kilobyte strings is unreadable;
        // point at the first diverging line instead.
        for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "first divergence at line {}", i + 1);
        }
        assert_eq!(
            rendered.lines().count(),
            golden.lines().count(),
            "rendered report and golden differ in length"
        );
        panic!("report differs from golden {report_file} (trailing bytes?)");
    }
}

#[test]
fn session_trace_renders_the_committed_golden() {
    assert_golden("session_trace.jsonl", "session_report.txt");
}

#[test]
fn synthetic_trace_renders_the_committed_golden() {
    assert_golden("synthetic_trace.jsonl", "synthetic_report.txt");
}

#[test]
fn synthetic_golden_covers_the_optional_sections() {
    // Guard the fixture itself: if it ever stops exercising the prune and
    // store paths the golden test would silently lose coverage.
    let golden = fixture("synthetic_report.txt");
    assert!(golden.contains("statically pruned points"));
    assert!(golden.contains("race"));
    assert!(golden.contains("dependence"));
    assert!(golden.contains("rehydrated 1, warm-start seeds 1, appended 2"));
    assert!(golden.contains("provenance   2 exact / 1 conservative"));
}

#[test]
fn check_trace_rejects_incomplete_traces() {
    assert!(check_trace(&[]).is_err(), "empty trace must fail --check");

    // A trace with phases but no session summary is incomplete.
    let events =
        from_jsonl(r#"{"cat":"phase","name":"prepare","ts_us":0,"dur_us":5,"lane":0,"args":{}}"#)
            .expect("single span parses");
    let err = check_trace(&events).expect_err("summary-less trace must fail");
    assert!(err.contains("summary"), "unexpected message: {err}");
}

#[test]
fn rendering_is_deterministic() {
    let events = from_jsonl(&fixture("session_trace.jsonl")).unwrap();
    assert_eq!(render_trace(&events), render_trace(&events));
}

#[test]
fn stop_reason_renders_when_the_summary_carries_it() {
    let plain = fixture("synthetic_trace.jsonl");
    assert!(!render_trace(&from_jsonl(&plain).unwrap()).contains("stopped"));
    let stopped = plain.replace(r#""proposed":6,"#, r#""proposed":6,"stop":"space spent","#);
    assert_ne!(stopped, plain, "the fixture summary carries `proposed`");
    let report = render_trace(&from_jsonl(&stopped).unwrap());
    assert!(
        report.contains("proposed        6\nstopped         space spent\n"),
        "{report}"
    );
}
