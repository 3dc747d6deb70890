//! `locus-lint` — static safety diagnostics for mini-C sources.
//!
//! Runs the `locus-verify` analyses over whole files, outside any tuning
//! session: IR well-formedness (undefined variables, misplaced or
//! duplicate pragmas), data-race detection for every `#pragma omp
//! parallel for` already present in the source (including nested
//! parallelism), and `#pragma ivdep` assertions checked against the
//! dependence analysis.
//!
//! Usage: `locus-lint [--explain] <file.c>...`
//!
//! With `--explain`, every `omp parallel for` / `ivdep` verdict is
//! followed by `note:` lines showing the dependence evidence: the
//! offending dependence with its direction vector, the iteration-domain
//! constraints, and whether the verdict came from the exact polyhedral
//! engine or the conservative fallback. Notes are not diagnostics — the
//! exit status is the same with and without the flag.
//!
//! Exit status: 0 when every file is clean, 1 when any diagnostic was
//! emitted (a file that does not parse, such as one nested deeper than
//! the parser's limit, counts as one), 2 on usage or I/O errors.

use std::process::ExitCode;

use locus::analysis::deps::analyze_region;
use locus::srcir::ast::{OmpClause, Pragma, Program, Stmt};
use locus::srcir::parse_program;
use locus::srcir::HierIndex;
use locus::verify::{analyze_parallel_for, explain, validate_program, RaceFix, TransformStep};

fn main() -> ExitCode {
    let mut explain_mode = false;
    let files: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| {
            if arg == "--explain" {
                explain_mode = true;
                false
            } else {
                true
            }
        })
        .collect();
    if files.is_empty() {
        eprintln!("usage: locus-lint [--explain] <file.c>...");
        return ExitCode::from(2);
    }

    let mut diagnostics = 0usize;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                return ExitCode::from(2);
            }
        };
        match parse_program(&text) {
            Ok(program) => diagnostics += lint_file(path, &program, explain_mode),
            Err(e) => {
                println!("{path}: error: {e}");
                diagnostics += 1;
            }
        }
    }

    if diagnostics > 0 {
        eprintln!(
            "locus-lint: {diagnostics} diagnostic{} in {} file{}",
            if diagnostics == 1 { "" } else { "s" },
            files.len(),
            if files.len() == 1 { "" } else { "s" },
        );
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Lints one parsed file, printing diagnostics; returns how many.
fn lint_file(path: &str, program: &Program, explain_mode: bool) -> usize {
    let mut count = 0;
    for issue in validate_program(program) {
        println!("{path}: error: {issue}");
        count += 1;
    }
    for function in program.functions() {
        for stmt in &function.body {
            lint_stmt(path, &function.name, stmt, false, explain_mode, &mut count);
        }
    }
    count
}

/// Prints the `--explain` notes for one pragma-annotated loop: the
/// verdict provenance, the offending dependence (direction vector and
/// per-dependence provenance), and the iteration-domain constraints.
fn print_explanation(path: &str, fname: &str, stmt: &Stmt, step: &TransformStep) {
    let ex = explain(stmt, step);
    let verdict = if ex.verdict.is_legal() {
        "legal".to_string()
    } else {
        format!("illegal ({})", ex.verdict.reason().unwrap_or("?"))
    };
    println!(
        "{path}: note: {fname}: verdict {verdict}; provenance {}",
        ex.provenance
    );
    if let Some(dep) = &ex.offending {
        println!("{path}: note: {fname}: offending dependence: {dep}");
    }
    if !ex.domain.is_empty() {
        println!(
            "{path}: note: {fname}: iteration domain: {}",
            ex.domain.join("; ")
        );
    }
}

/// Recursively lints a statement tree. `in_parallel` is true inside the
/// body of an enclosing `omp parallel for` loop.
fn lint_stmt(
    path: &str,
    fname: &str,
    stmt: &Stmt,
    in_parallel: bool,
    explain_mode: bool,
    count: &mut usize,
) {
    let omp_clauses = stmt.pragmas.iter().find_map(|p| match p {
        Pragma::OmpParallelFor { clauses, .. } => Some(clauses),
        _ => None,
    });
    let is_parallel = omp_clauses.is_some();

    if let (Some(clauses), true) = (omp_clauses, stmt.is_for()) {
        if in_parallel {
            println!(
                "{path}: error: {fname}: `omp parallel for` nested inside another \
                 parallel loop"
            );
            *count += 1;
        }
        let report = analyze_parallel_for(stmt);
        if !report.available {
            println!(
                "{path}: error: {fname}: cannot prove `omp parallel for` safe — \
                 dependence information unavailable (non-affine subscripts?)"
            );
            *count += 1;
        }
        // A race is only reported when the pragma does not already
        // carry the clause that fixes it.
        for race in &report.races {
            let fixed = match &race.fix {
                RaceFix::Refuse => false,
                RaceFix::Reduction { var, op } => clauses.contains(&OmpClause::Reduction {
                    op: *op,
                    var: var.clone(),
                }),
                RaceFix::Privatize { var } => {
                    clauses.contains(&OmpClause::Private { var: var.clone() })
                }
            };
            if !fixed {
                println!("{path}: error: {fname}: {race}");
                *count += 1;
            }
        }
        if explain_mode {
            print_explanation(
                path,
                fname,
                stmt,
                &TransformStep::ParallelFor {
                    target: HierIndex::root(),
                },
            );
        }
    }

    if stmt.pragmas.iter().any(|p| matches!(p, Pragma::Ivdep)) && stmt.is_for() {
        let info = analyze_region(stmt);
        if !info.vectorizable() {
            println!(
                "{path}: error: {fname}: `#pragma ivdep` asserts no loop-carried \
                 dependences, but the analysis finds (or cannot rule out) one"
            );
            *count += 1;
        }
        if explain_mode {
            print_explanation(
                path,
                fname,
                stmt,
                &TransformStep::Vectorize {
                    target: HierIndex::root(),
                },
            );
        }
    }

    for child in children(stmt) {
        lint_stmt(
            path,
            fname,
            child,
            in_parallel || is_parallel,
            explain_mode,
            count,
        );
    }
}

/// The sub-statements of `stmt`, for the lint walk.
fn children(stmt: &Stmt) -> Vec<&Stmt> {
    use locus::srcir::ast::StmtKind;
    match &stmt.kind {
        StmtKind::Block(stmts) => stmts.iter().collect(),
        StmtKind::For(f) => vec![f.body.as_ref()],
        StmtKind::While { body, .. } => vec![body.as_ref()],
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            let mut out = vec![then_branch.as_ref()];
            if let Some(e) = else_branch {
                out.push(e.as_ref());
            }
            out
        }
        _ => Vec::new(),
    }
}
