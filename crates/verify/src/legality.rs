//! The unified legality engine.
//!
//! Every transformation module used to carry its own ad-hoc
//! `check_legality` block; this module consolidates them behind one
//! question — *may this step be applied to this region?* — so that the
//! transforms, the search driver and the `locus-lint` binary all consult
//! the same dependence-based reasoning. The engine never mutates the
//! program: fusion legality, for instance, is judged on a privately
//! reconstructed fused candidate.
//!
//! Answers are memoized process-wide (see [`memo_stats`]): a tuning
//! session asks the same question of the same region at every point of
//! its space, and each is judged once.

use std::collections::HashMap;
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};

use locus_analysis::deps::{analyze_region, Dependence, DependenceInfo};
use locus_analysis::loops::{canonicalize, perfect_nest_loops, CanonLoop};
use locus_analysis::polyhedron::band_hull;
use locus_srcir::ast::{Expr, OmpClause, Pragma, Stmt, StmtKind};
use locus_srcir::index::HierIndex;
use locus_srcir::printer::print_stmt;
use locus_srcir::visit::{
    child, child_count, substitute_ident, walk_exprs, walk_exprs_in_stmt, walk_stmts,
};

use crate::races::{analyze_parallel_for, RaceFix};
use crate::Verdict;

/// One transformation step, described by what it does to the region —
/// the vocabulary the legality engine reasons over.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TransformStep {
    /// Permute the perfect nest at the region root;
    /// `order[new_level] = old_level` over a prefix of the nest.
    Interchange {
        /// The permutation, old levels listed in their new order.
        order: Vec<usize>,
    },
    /// Tile the band of `width` perfectly nested loops at `target`.
    Tile {
        /// Root loop of the band.
        target: HierIndex,
        /// Number of band loops being tiled.
        width: usize,
    },
    /// Unroll the loop at `target` and jam the copies into its single
    /// inner loop.
    UnrollAndJam {
        /// The outer loop being unrolled.
        target: HierIndex,
    },
    /// Fuse the loop at `first` with its immediately following sibling.
    Fuse {
        /// The first of the two loops.
        first: HierIndex,
    },
    /// Distribute the loop at `target` over its body statements.
    Distribute {
        /// The loop being distributed.
        target: HierIndex,
    },
    /// Insert `#pragma omp parallel for` on the loop at `target`.
    ParallelFor {
        /// The candidate parallel loop.
        target: HierIndex,
    },
    /// Assert the loop at `target` free of loop-carried dependences
    /// (`#pragma ivdep` / vectorization).
    Vectorize {
        /// The candidate vector loop.
        target: HierIndex,
    },
}

/// Judges whether `step` may legally be applied to the region rooted at
/// `root`. The program is never modified.
///
/// Unavailable dependence information is always `Illegal("dependence
/// information unavailable")` — the engine is conservative, exactly like
/// the per-module checks it replaces. Callers that know better (the
/// paper's expert-override philosophy) skip the call entirely via their
/// `check_legality = false` flags.
///
/// The answer comes from the process-wide memo when this exact question
/// was judged before (see [`memo_stats`]).
pub fn legal(root: &Stmt, step: &TransformStep) -> Verdict {
    match MEMO.answer(root, step) {
        Ok(_) => Verdict::Legal,
        Err(refusal) => refusal,
    }
}

/// Entries the process-wide legality memo holds; an answer that finds it
/// full clears it whole first.
pub const MEMO_CAPACITY: usize = 4096;

static MEMO: LazyLock<LegalityMemo> = LazyLock::new(|| LegalityMemo::new(MEMO_CAPACITY));

/// Counters of the process-wide legality memo behind [`legal`] and
/// [`parallel_for_clauses`], since the process started.
pub fn memo_stats() -> MemoStats {
    MEMO.stats()
}

/// Counters of a legality memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Questions answered from the memo.
    pub hits: u64,
    /// Questions the engine judged.
    pub misses: u64,
    /// Answers held now.
    pub entries: usize,
    /// Times the memo was full and cleared whole.
    pub clears: u64,
}

/// What the engine answers: the clauses a legal step needs (only
/// `omp parallel for` ever needs any), or the refusal.
type Answer = Result<Vec<OmpClause>, Verdict>;

/// A bounded memo of the engine's answers. Every answer is a pure
/// function of the region and the step, so the key is exactly that: the
/// region's printed text (the text [`locus_srcir::hash::hash_region`]
/// digests) and the step. A hit needs equal text, never just an equal
/// digest, since a wrong verdict could ship a racy variant. The lock is
/// held for lookups and inserts only, never while the engine judges.
pub(crate) struct LegalityMemo {
    capacity: usize,
    state: Mutex<MemoState>,
}

#[derive(Default)]
struct MemoState {
    answers: HashMap<(String, TransformStep), Answer>,
    hits: u64,
    misses: u64,
    clears: u64,
}

impl LegalityMemo {
    pub(crate) fn new(capacity: usize) -> LegalityMemo {
        assert!(capacity > 0, "a legality memo holds at least one answer");
        LegalityMemo {
            capacity,
            state: Mutex::default(),
        }
    }

    pub(crate) fn stats(&self) -> MemoStats {
        let state = self.lock();
        MemoStats {
            hits: state.hits,
            misses: state.misses,
            entries: state.answers.len(),
            clears: state.clears,
        }
    }

    /// The engine's answer to `step` on `root`, judged once per key.
    pub(crate) fn answer(&self, root: &Stmt, step: &TransformStep) -> Answer {
        let key = (print_stmt(root), step.clone());
        {
            let mut state = self.lock();
            let hit = state.answers.get(&key).cloned();
            if let Some(answer) = hit {
                state.hits += 1;
                drop(state);
                debug_assert_eq!(
                    answer,
                    judge(root, step),
                    "legality memo disagrees with the engine on {step:?} at\n{}",
                    key.0
                );
                return answer;
            }
            state.misses += 1;
        }
        let answer = judge(root, step);
        let mut state = self.lock();
        if state.answers.len() >= self.capacity && !state.answers.contains_key(&key) {
            state.answers.clear();
            state.clears += 1;
        }
        state.answers.insert(key, answer.clone());
        answer
    }

    /// The guarded state. A panic while it was held can only have
    /// interrupted a whole-map insert or clear or a counter bump, each of
    /// which leaves a valid memo, so a poisoned lock is taken over as is.
    fn lock(&self) -> MutexGuard<'_, MemoState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The engine itself, unmemoized: judges `step` on `root`.
fn judge(root: &Stmt, step: &TransformStep) -> Answer {
    let verdict = match step {
        TransformStep::Interchange { order } => interchange_verdict(root, order),
        TransformStep::Tile { target, width } => band_verdict(
            root,
            target,
            *width,
            "band is not fully permutable; tiling would reverse a dependence",
            BandShape::HullOk,
        ),
        TransformStep::UnrollAndJam { target } => band_verdict(
            root,
            target,
            2,
            "outer and inner loops are not permutable; jamming would reverse a dependence",
            BandShape::RectangularOnly,
        ),
        TransformStep::Fuse { first } => fuse_verdict(root, first),
        TransformStep::Distribute { target } => distribute_verdict(root, target),
        TransformStep::ParallelFor { target } => return omp_clauses(root, target),
        TransformStep::Vectorize { target } => vectorize_verdict(root, target),
    };
    match verdict {
        Verdict::Legal => Ok(Vec::new()),
        refusal => Err(refusal),
    }
}

fn unavailable() -> Verdict {
    Verdict::illegal("dependence information unavailable")
}

/// A legality verdict unpacked for humans: what was decided, on which
/// engine's authority, which dependence forced a refusal, and the
/// iteration-domain constraints that were considered. Backs
/// `locus-lint --explain`.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The verdict [`legal`] returns for the same `(root, step)`.
    pub verdict: Verdict,
    /// `"exact"` when the region's dependence set was decided entirely by
    /// the polyhedral engine, `"conservative"` otherwise.
    pub provenance: &'static str,
    /// The offending dependence (rendered with its direction vector and
    /// per-dependence provenance), when the refusal is dependence-based.
    pub offending: Option<String>,
    /// The iteration-domain constraints, one per nest level, e.g.
    /// `0 <= j < i + 1`.
    pub domain: Vec<String>,
}

/// Judges `step` like [`legal`] and additionally reports the dependence
/// evidence behind the verdict.
pub fn explain(root: &Stmt, step: &TransformStep) -> Explanation {
    let verdict = legal(root, step);
    let region = match step {
        TransformStep::Interchange { .. } | TransformStep::Fuse { .. } => Some(root),
        TransformStep::Tile { target, .. }
        | TransformStep::UnrollAndJam { target }
        | TransformStep::Distribute { target }
        | TransformStep::ParallelFor { target }
        | TransformStep::Vectorize { target } => target.resolve(root).filter(|s| s.is_for()),
    };
    let Some(region) = region else {
        return Explanation {
            verdict,
            provenance: "conservative",
            offending: None,
            domain: Vec::new(),
        };
    };
    let info = analyze_region(region);
    let provenance = if info.available && info.exact {
        "exact"
    } else {
        "conservative"
    };
    let domain = perfect_nest_loops(region)
        .iter()
        .map(|l| {
            let mut s = format!(
                "{} <= {} < {}",
                locus_srcir::printer::print_expr(&l.lower),
                l.var,
                locus_srcir::printer::print_expr(&l.exclusive_upper()),
            );
            if l.step != 1 {
                s.push_str(&format!(" step {}", l.step));
            }
            s
        })
        .collect();
    let offending = offending_dep(&info, step).map(|d| d.to_string());
    Explanation {
        verdict,
        provenance,
        offending,
        domain,
    }
}

/// The first dependence that forces a refusal of `step`, found by
/// re-judging the step's legality predicate one dependence at a time.
fn offending_dep<'a>(info: &'a DependenceInfo, step: &TransformStep) -> Option<&'a Dependence> {
    if !info.available {
        return None;
    }
    let one = |d: &Dependence| DependenceInfo {
        available: true,
        loop_vars: info.loop_vars.clone(),
        deps: vec![d.clone()],
        stmt_count: info.stmt_count,
        exact: info.exact,
    };
    match step {
        TransformStep::Interchange { order } => {
            let full: Vec<usize> = order
                .iter()
                .copied()
                .chain(order.len()..info.loop_vars.len())
                .collect();
            info.deps.iter().find(|d| !one(d).interchange_legal(&full))
        }
        TransformStep::Tile { width, .. } => {
            let levels: Vec<usize> = (0..*width).collect();
            info.deps.iter().find(|d| !one(d).band_permutable(&levels))
        }
        TransformStep::UnrollAndJam { .. } => {
            info.deps.iter().find(|d| !one(d).band_permutable(&[0, 1]))
        }
        TransformStep::Distribute { .. } => info.deps.iter().find(|d| d.src_stmt > d.dst_stmt),
        TransformStep::Vectorize { .. } => info.deps.iter().find(|d| !d.is_loop_independent()),
        TransformStep::ParallelFor { .. } => {
            info.deps.iter().find(|d| d.carrier_level() == Some(0))
        }
        TransformStep::Fuse { .. } => None,
    }
}

fn resolve_loop<'a>(root: &'a Stmt, target: &HierIndex) -> Result<&'a Stmt, Verdict> {
    match target.resolve(root) {
        Some(stmt) if stmt.is_for() => Ok(stmt),
        Some(_) => Err(Verdict::illegal(format!(
            "statement at `{target}` is not a loop"
        ))),
        None => Err(Verdict::illegal(format!("no statement at `{target}`"))),
    }
}

/// Structural screening shared by the restructuring verdicts: walks
/// `width` perfectly nested loops from `loop_stmt`, refusing
/// non-canonical headers and imperfect nesting, and returns the band.
/// Shape questions beyond that — rectangularity, hull derivability,
/// permutation constructibility — are judged per-transform, because the
/// exact engine now proves many non-rectangular bands restructurable.
fn structured_band(loop_stmt: &Stmt, width: usize) -> Result<Vec<CanonLoop>, Verdict> {
    let mut band = Vec::with_capacity(width);
    let mut cur = loop_stmt;
    for level in 0..width {
        let Some(canon) = canonicalize(cur) else {
            return Err(Verdict::illegal(format!(
                "loop at band level {level} is not canonical"
            )));
        };
        band.push(canon);
        if level + 1 < width {
            let body = cur.as_for().expect("canonical loop").body.body_stmts();
            if body.len() != 1 || !body[0].is_for() {
                return Err(Verdict::illegal(format!(
                    "band is not perfectly nested at level {level}"
                )));
            }
            cur = &body[0];
        }
    }
    Ok(band)
}

/// For each band level, the *other* band levels whose induction variable
/// appears in this level's bounds. All-empty means a rectangular band.
fn band_bound_refs(band: &[CanonLoop]) -> Vec<Vec<usize>> {
    band.iter()
        .map(|canon| {
            let mut refs = Vec::new();
            for bound in [&canon.lower, &canon.upper] {
                walk_exprs(bound, &mut |e| {
                    if let Expr::Ident(n) = e {
                        if let Some(m) = band.iter().position(|l| &l.var == n && l.var != canon.var)
                        {
                            if !refs.contains(&m) {
                                refs.push(m);
                            }
                        }
                    }
                });
            }
            refs
        })
        .collect()
}

/// Marks a dependence-based refusal with its provenance: when the
/// region's dependence set is exact, the refusal is a proof, not a
/// conservative guess, and the reason says so.
fn dep_illegal(info: &DependenceInfo, msg: impl Into<String>) -> Verdict {
    let msg = msg.into();
    if info.exact {
        Verdict::Illegal(format!("{msg} [exact]"))
    } else {
        Verdict::Illegal(msg)
    }
}

fn interchange_verdict(root: &Stmt, order: &[usize]) -> Verdict {
    if order.iter().enumerate().all(|(i, &o)| i == o) {
        return Verdict::Legal;
    }
    let info = analyze_region(root);
    if !info.available {
        return unavailable();
    }
    let band = match structured_band(root, order.len()) {
        Ok(b) => b,
        Err(v) => return v,
    };
    // Constructibility on (possibly triangular) bands: a bound of loop
    // `l` referencing loop `m` is still well-defined after permutation
    // only if `m` remains *outside* `l` in the new order.
    let refs = band_bound_refs(&band);
    for (l, refs_l) in refs.iter().enumerate() {
        let pos_l = order.iter().position(|&o| o == l).expect("permutation");
        for &m in refs_l {
            let pos_m = order.iter().position(|&o| o == m).expect("permutation");
            if pos_m > pos_l {
                return Verdict::illegal(format!(
                    "band is not rectangular under permutation {order:?}: the bound of \
                     `{}` references `{}`, which the permutation moves inside it",
                    band[l].var, band[m].var
                ));
            }
        }
    }
    // Extend the permutation to the full analyzed nest depth: unlisted
    // deeper loops stay in place.
    let full: Vec<usize> = order
        .iter()
        .copied()
        .chain(order.len()..info.loop_vars.len())
        .collect();
    if info.interchange_legal(&full) {
        Verdict::Legal
    } else {
        dep_illegal(
            &info,
            format!("permutation {order:?} reverses a dependence"),
        )
    }
}

/// Which band shapes a restructuring transform can rebuild.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BandShape {
    /// Rectangular, or any non-rectangular band with a derivable affine
    /// bound hull (tiling lays rectangular tile loops over the hull and
    /// clips the point loops with `max`/`min` guards).
    HullOk,
    /// Strictly rectangular (unroll-and-jam duplicates the inner loop
    /// body across outer iterations, which has no hull construction).
    RectangularOnly,
}

fn band_verdict(
    root: &Stmt,
    target: &HierIndex,
    width: usize,
    refusal: &str,
    shape: BandShape,
) -> Verdict {
    let loop_stmt = match resolve_loop(root, target) {
        Ok(s) => s,
        Err(v) => return v,
    };
    let info = analyze_region(loop_stmt);
    if !info.available {
        return unavailable();
    }
    let band = match structured_band(loop_stmt, width) {
        Ok(b) => b,
        Err(v) => return v,
    };
    if band_bound_refs(&band).iter().any(|r| !r.is_empty()) {
        match shape {
            BandShape::RectangularOnly => {
                return Verdict::illegal(
                    "band is not rectangular: a bound references a band variable",
                );
            }
            BandShape::HullOk => {
                if band_hull(&band).is_none() {
                    return Verdict::illegal(
                        "band is not rectangular and no affine tile hull is derivable",
                    );
                }
            }
        }
    }
    let levels: Vec<usize> = (0..width).collect();
    if info.band_permutable(&levels) {
        Verdict::Legal
    } else {
        dep_illegal(&info, refusal)
    }
}

fn distribute_verdict(root: &Stmt, target: &HierIndex) -> Verdict {
    let loop_stmt = match resolve_loop(root, target) {
        Ok(s) => s,
        Err(v) => return v,
    };
    let info = analyze_region(loop_stmt);
    if !info.available {
        return unavailable();
    }
    if info.distribution_legal() {
        Verdict::Legal
    } else {
        dep_illegal(&info, "a backward dependence prevents distribution")
    }
}

fn vectorize_verdict(root: &Stmt, target: &HierIndex) -> Verdict {
    let loop_stmt = match resolve_loop(root, target) {
        Ok(s) => s,
        Err(v) => return v,
    };
    let info = analyze_region(loop_stmt);
    if !info.available {
        return unavailable();
    }
    if info.vectorizable() {
        Verdict::Legal
    } else {
        dep_illegal(&info, "a loop-carried dependence prevents vectorization")
    }
}

/// Fusion legality, judged on a reconstructed fused candidate: after
/// concatenating the bodies (second induction variable renamed to the
/// first's), no dependence may point from a second-body statement back
/// into the first body.
fn fuse_verdict(root: &Stmt, first: &HierIndex) -> Verdict {
    let Some(parent_idx) = first.parent() else {
        return Verdict::illegal("cannot fuse the region root");
    };
    let Some(parent) = parent_idx.resolve(root) else {
        return Verdict::illegal(format!("no statement at `{parent_idx}`"));
    };
    let position = *first.0.last().expect("non-empty index");
    let siblings = parent.body_stmts();
    let Some(a) = siblings.get(position) else {
        return Verdict::illegal(format!("no statement at `{first}`"));
    };
    let Some(b) = siblings.get(position + 1) else {
        return Verdict::illegal("loop to fuse has no following sibling statement");
    };
    let (Some(ca), Some(cb)) = (canonicalize(a), canonicalize(b)) else {
        return Verdict::illegal("loops to fuse are not canonical");
    };

    let mut body = a.as_for().expect("loop").body.body_stmts().to_vec();
    let first_len = body.len();
    let mut second_body = b.as_for().expect("loop").body.body_stmts().to_vec();
    if ca.var != cb.var {
        for s in &mut second_body {
            substitute_ident(s, &cb.var, &locus_srcir::ast::Expr::ident(&ca.var));
        }
    }
    body.extend(second_body);
    let mut fused = a.clone();
    *fused.as_for_mut().expect("loop").body = Stmt::block(body);

    let info = analyze_region(&fused);
    if !info.available {
        return unavailable();
    }
    let boundary = count_stmts(&fused.as_for().unwrap().body.body_stmts()[..first_len]);
    let preventing = info
        .deps
        .iter()
        .any(|d| d.src_stmt >= boundary && d.dst_stmt < boundary);
    if preventing {
        dep_illegal(
            &info,
            "fusion-preventing dependence between the loop bodies",
        )
    } else {
        Verdict::Legal
    }
}

/// Computes the data-sharing clauses `#pragma omp parallel for` on the
/// loop at `target` must carry for the parallelization to be legal.
///
/// This is the insertion-path companion of [`legal`]: a carried scalar
/// dependence whose suggested fix is a reduction or privatization is
/// only safe when the emitted pragma actually carries the fixing
/// clause, so `insert_omp_for` consults this function and attaches
/// exactly what the analyzer names. A privatization fix is additionally
/// refused when the scalar is live-out — read after the loop anywhere
/// in the region — because `private()` leaves the original variable
/// undefined once the loop completes.
///
/// Errors mirror [`legal`] on [`TransformStep::ParallelFor`]: nested
/// parallelism, unavailable dependence information, and unfixable races
/// all yield the corresponding illegal [`Verdict`]. Like [`legal`], the
/// answer comes from the process-wide memo when it is there.
pub fn parallel_for_clauses(root: &Stmt, target: &HierIndex) -> Result<Vec<OmpClause>, Verdict> {
    MEMO.answer(
        root,
        &TransformStep::ParallelFor {
            target: target.clone(),
        },
    )
}

/// `omp parallel for` legality and clauses, unmemoized: no nested
/// parallelism (neither an ancestor nor a descendant of the target may
/// already carry the pragma), and the loop must be race-free per
/// [`analyze_parallel_for`] or fixable by a clause.
fn omp_clauses(root: &Stmt, target: &HierIndex) -> Result<Vec<OmpClause>, Verdict> {
    let loop_stmt = resolve_loop(root, target)?;
    for len in 1..target.0.len() {
        let ancestor = HierIndex::new(target.0[..len].to_vec());
        if let Some(s) = ancestor.resolve(root) {
            if has_omp(s) {
                return Err(Verdict::illegal(format!(
                    "nested parallelism: enclosing loop at `{ancestor}` already carries \
                     `omp parallel for`"
                )));
            }
        }
    }
    let mut nested = false;
    walk_stmts(loop_stmt, &mut |s| {
        if !std::ptr::eq(s, loop_stmt) && has_omp(s) {
            nested = true;
        }
    });
    if nested {
        return Err(Verdict::illegal(format!(
            "nested parallelism: loop at `{target}` contains an `omp parallel for`"
        )));
    }

    let report = analyze_parallel_for(loop_stmt);
    if !report.available {
        return Err(unavailable());
    }
    let mut clauses: Vec<OmpClause> = Vec::new();
    let marker = if report.exact { " [exact]" } else { "" };
    for race in &report.races {
        let clause = match &race.fix {
            RaceFix::Refuse => return Err(Verdict::illegal(format!("data race: {race}{marker}"))),
            RaceFix::Reduction { var, op } => OmpClause::Reduction {
                op: *op,
                var: var.clone(),
            },
            RaceFix::Privatize { var } => {
                if scalar_live_after(root, target, var) {
                    return Err(Verdict::illegal(format!(
                        "data race on `{var}`: the scalar is read after the loop \
                         (live-out), so a private({var}) clause would change its \
                         final value"
                    )));
                }
                OmpClause::Private { var: var.clone() }
            }
        };
        if !clauses.contains(&clause) {
            clauses.push(clause);
        }
    }
    Ok(clauses)
}

/// `true` when scalar `var` may still be used after the loop at
/// `target` has finished executing. With straight-line ancestors the
/// statements that run after the target are exactly the following
/// siblings at each ancestor level; when a strict ancestor is itself a
/// loop, its next trip re-runs the whole region, so any mention outside
/// the target subtree keeps the value live. Mentions include writes;
/// the scan is conservative.
fn scalar_live_after(root: &Stmt, target: &HierIndex, var: &str) -> bool {
    let mentions_in = |s: &Stmt| {
        let mut count = 0usize;
        walk_exprs_in_stmt(s, &mut |e| {
            if matches!(e, Expr::Ident(n) if n == var) {
                count += 1;
            }
        });
        count
    };
    let reruns = (1..target.0.len()).any(|len| {
        HierIndex::new(target.0[..len].to_vec())
            .resolve(root)
            .is_some_and(|s| matches!(s.kind, StmtKind::For(_) | StmtKind::While { .. }))
    });
    if reruns {
        let inside = target.resolve(root).map_or(0, mentions_in);
        return mentions_in(root) > inside;
    }
    for len in 1..target.0.len() {
        let Some(ancestor) = HierIndex::new(target.0[..len].to_vec()).resolve(root) else {
            continue;
        };
        for i in (target.0[len] + 1)..child_count(ancestor) {
            if child(ancestor, i).is_some_and(|s| mentions_in(s) > 0) {
                return true;
            }
        }
    }
    false
}

fn has_omp(stmt: &Stmt) -> bool {
    stmt.pragmas
        .iter()
        .any(|p| matches!(p, Pragma::OmpParallelFor { .. }))
}

/// Counts assignment/expression statements the dependence analysis
/// numbers, in the same order it numbers them.
pub(crate) fn count_stmts(stmts: &[Stmt]) -> usize {
    fn rec(s: &Stmt, count: &mut usize) {
        match &s.kind {
            StmtKind::Expr(_) | StmtKind::Decl { init: Some(_), .. } => *count += 1,
            _ => {
                for i in 0..child_count(s) {
                    if let Some(c) = child(s, i) {
                        rec(c, count);
                    }
                }
            }
        }
    }
    let mut count = 0;
    for s in stmts {
        rec(s, &mut count);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_srcir::parse_program;

    fn region(src: &str) -> Stmt {
        let p = parse_program(src).unwrap();
        let s = p.functions().next().unwrap().body[0].clone();
        s
    }

    fn block_region(src: &str) -> Stmt {
        let p = parse_program(src).unwrap();
        let f = p.functions().next().unwrap();
        Stmt::block(f.body.clone())
    }

    fn matmul() -> Stmt {
        region(
            r#"void f(int n, double C[8][8], double A[8][8], double B[8][8]) {
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++)
                    for (int k = 0; k < n; k++)
                        C[i][j] = C[i][j] + A[i][k] * B[k][j];
            }"#,
        )
    }

    fn idx(s: &str) -> HierIndex {
        s.parse().unwrap()
    }

    #[test]
    fn matmul_interchange_and_tiling_are_legal() {
        let root = matmul();
        assert!(legal(
            &root,
            &TransformStep::Interchange {
                order: vec![0, 2, 1]
            }
        )
        .is_legal());
        assert!(legal(
            &root,
            &TransformStep::Tile {
                target: idx("0"),
                width: 3
            }
        )
        .is_legal());
        assert!(legal(&root, &TransformStep::UnrollAndJam { target: idx("0") }).is_legal());
    }

    #[test]
    fn skewed_dependence_blocks_interchange() {
        let root = region(
            r#"void f(int n, double A[8][8]) {
            for (int i = 1; i < n; i++)
                for (int j = 0; j < n - 1; j++)
                    A[i][j] = A[i - 1][j + 1];
            }"#,
        );
        let verdict = legal(&root, &TransformStep::Interchange { order: vec![1, 0] });
        assert!(verdict.reason().unwrap().contains("reverses a dependence"));
        // Identity stays legal without even consulting the analysis.
        assert!(legal(&root, &TransformStep::Interchange { order: vec![0, 1] }).is_legal());
        assert!(!legal(
            &root,
            &TransformStep::Tile {
                target: idx("0"),
                width: 2
            }
        )
        .is_legal());
    }

    #[test]
    fn fusion_verdict_matches_the_transform() {
        let fusable = block_region(
            r#"void f(int n, double A[64], double B[64]) {
            for (int i = 0; i < 64; i++) A[i] = 1.0;
            for (int j = 0; j < 64; j++) B[j] = A[j] * 2.0;
            }"#,
        );
        assert!(legal(&fusable, &TransformStep::Fuse { first: idx("0.0") }).is_legal());

        let preventing = block_region(
            r#"void f(int n, double A[66], double B[64]) {
            for (int i = 0; i < 64; i++) A[i] = 1.0;
            for (int j = 0; j < 64; j++) B[j] = A[j + 1];
            }"#,
        );
        let verdict = legal(&preventing, &TransformStep::Fuse { first: idx("0.0") });
        assert!(verdict.reason().unwrap().contains("fusion-preventing"));
    }

    #[test]
    fn distribution_verdict() {
        let backward = region(
            r#"void f(int n, double A[8], double B[8], double C[8]) {
            for (int i = 1; i < n; i++) {
                B[i] = A[i - 1];
                A[i] = C[i] + 1.0;
            }
            }"#,
        );
        assert!(!legal(&backward, &TransformStep::Distribute { target: idx("0") }).is_legal());
        let forward = region(
            r#"void f(int n, double A[8], double B[8]) {
            for (int i = 0; i < n; i++) {
                A[i] = 1.0;
                B[i] = A[i] * 2.0;
            }
            }"#,
        );
        assert!(legal(&forward, &TransformStep::Distribute { target: idx("0") }).is_legal());
    }

    #[test]
    fn parallel_for_verdict_detects_races() {
        let root = matmul();
        assert!(legal(&root, &TransformStep::ParallelFor { target: idx("0") }).is_legal());
        let verdict = legal(
            &root,
            &TransformStep::ParallelFor {
                target: idx("0.0.0"),
            },
        );
        assert!(
            verdict.reason().unwrap().contains("data race"),
            "{verdict:?}"
        );
    }

    #[test]
    fn parallel_for_refuses_nested_parallelism() {
        let mut root = matmul();
        root.pragmas.push(Pragma::OmpParallelFor {
            schedule: None,
            clauses: Vec::new(),
        });
        // An inner loop under an already-parallel outer loop.
        let verdict = legal(&root, &TransformStep::ParallelFor { target: idx("0.0") });
        assert!(
            verdict.reason().unwrap().contains("nested parallelism"),
            "{verdict:?}"
        );
        // The other direction: parallelizing an ancestor of a parallel loop.
        let mut root = matmul();
        idx("0.0")
            .resolve_mut(&mut root)
            .unwrap()
            .pragmas
            .push(Pragma::OmpParallelFor {
                schedule: None,
                clauses: Vec::new(),
            });
        let verdict = legal(&root, &TransformStep::ParallelFor { target: idx("0") });
        assert!(
            verdict.reason().unwrap().contains("nested parallelism"),
            "{verdict:?}"
        );
        // Re-judging the already-parallel loop itself is fine (the
        // insertion replaces the schedule, it does not nest).
        assert!(legal(&root, &TransformStep::ParallelFor { target: idx("0.0") }).is_legal());
    }

    #[test]
    fn parallel_for_clauses_name_the_analyzer_fixes() {
        // The reduction idiom is legal only under a reduction clause,
        // and the clause list says exactly that — even with a read of
        // `s` after the loop, since the reduction writes the combined
        // value back.
        let root = block_region(
            r#"void f(int n, double s, double r, double A[64]) {
            for (int i = 0; i < n; i++)
                s = s + A[i];
            r = s;
            }"#,
        );
        let clauses = parallel_for_clauses(&root, &idx("0.0")).unwrap();
        assert_eq!(
            clauses,
            vec![OmpClause::Reduction {
                op: locus_srcir::ast::BinOp::Add,
                var: "s".to_string()
            }]
        );
        // An independent loop needs no clauses at all.
        let root = matmul();
        assert_eq!(parallel_for_clauses(&root, &idx("0")).unwrap(), Vec::new());
    }

    #[test]
    fn live_out_scalar_is_not_privatizable() {
        // `t` is written before read in each iteration, but the value
        // of the last iteration is consumed after the loop — private()
        // would leave it undefined there.
        let root = block_region(
            r#"void f(int n, double t, double A[64], double B[64]) {
            for (int i = 0; i < n; i++) {
                t = A[i] * 2.0;
                B[i] = t + 1.0;
            }
            B[0] = t;
            }"#,
        );
        let verdict = legal(&root, &TransformStep::ParallelFor { target: idx("0.0") });
        assert!(
            verdict.reason().unwrap().contains("live-out"),
            "{verdict:?}"
        );
        // Without the trailing read the same loop is privatizable.
        let root = block_region(
            r#"void f(int n, double t, double A[64], double B[64]) {
            for (int i = 0; i < n; i++) {
                t = A[i] * 2.0;
                B[i] = t + 1.0;
            }
            }"#,
        );
        assert_eq!(
            parallel_for_clauses(&root, &idx("0.0")).unwrap(),
            vec![OmpClause::Private {
                var: "t".to_string()
            }]
        );
    }

    #[test]
    fn enclosing_loop_rerun_keeps_the_scalar_live() {
        // The read of `t` before the inner loop executes again on the
        // outer loop's next trip — i.e. after the candidate parallel
        // loop completes — so privatization must still be refused.
        let root = region(
            r#"void f(int n, double t, double A[64], double B[64], double C[64]) {
            for (int r = 0; r < n; r++) {
                C[r] = t;
                for (int i = 0; i < n; i++) {
                    t = A[i] * 2.0;
                    B[i] = t + 1.0;
                }
            }
            }"#,
        );
        let verdict = legal(&root, &TransformStep::ParallelFor { target: idx("0.1") });
        assert!(
            verdict.reason().unwrap().contains("live-out"),
            "{verdict:?}"
        );
    }

    #[test]
    fn vectorize_verdict() {
        let root = region(
            r#"void f(int n, double A[64]) {
            for (int i = 1; i < n; i++)
                A[i] = A[i - 1] + 1.0;
            }"#,
        );
        assert!(!legal(&root, &TransformStep::Vectorize { target: idx("0") }).is_legal());
    }

    #[test]
    fn missing_or_non_loop_targets_are_illegal() {
        let root = matmul();
        assert!(!legal(
            &root,
            &TransformStep::Tile {
                target: idx("0.7"),
                width: 1
            }
        )
        .is_legal());
        assert!(
            !legal(
                &root,
                &TransformStep::ParallelFor {
                    target: idx("0.0.0.0")
                }
            )
            .is_legal(),
            "the innermost statement is not a loop"
        );
    }

    #[test]
    fn triangular_band_tiling_is_proven_legal() {
        // The SYRK / Cholesky update shape: the inner bound references
        // the outer induction variable. The polyhedral engine proves the
        // band fully permutable, and a rectangular tile hull exists, so
        // tiling is now *legal* — only unroll-and-jam (which has no hull
        // construction) and a permutation that would move `i` inside the
        // `j <= i` bound keep their structural refusals.
        let root = region(
            r#"void f(int n, double C[8][8], double A[8][8]) {
            for (int i = 0; i < n; i++)
                for (int j = 0; j <= i; j++)
                    C[i][j] = C[i][j] + A[i][j];
            }"#,
        );
        assert!(legal(
            &root,
            &TransformStep::Tile {
                target: idx("0"),
                width: 2
            }
        )
        .is_legal());
        for step in [
            TransformStep::UnrollAndJam { target: idx("0") },
            TransformStep::Interchange { order: vec![1, 0] },
        ] {
            let verdict = legal(&root, &step);
            assert!(
                verdict.reason().unwrap().contains("not rectangular"),
                "{step:?}: {verdict:?}"
            );
        }
        // The identity permutation stays legal without consulting
        // anything — a no-op never needs restructuring.
        assert!(legal(&root, &TransformStep::Interchange { order: vec![0, 1] }).is_legal());
        // A width-1 band of the outer loop alone is rectangular: its
        // own bound references no *other* band variable.
        assert!(legal(
            &root,
            &TransformStep::Tile {
                target: idx("0"),
                width: 1
            }
        )
        .is_legal());
    }

    #[test]
    fn shifted_lower_bound_band_is_proven_tileable() {
        // The TRMM shape: `k = i + 1` makes the band non-rectangular
        // through the *lower* bound. The exact engine decides the cross
        // dependence `B[k][0]` vs `B[i][0]` as (<,<) — the conservative
        // engine could only say (*,*) — so the band is fully permutable
        // and tiling becomes legal.
        let root = region(
            r#"void f(int n, double B[8][8], double A[8][8]) {
            for (int i = 0; i < n; i++)
                for (int k = i + 1; k < n; k++)
                    B[i][0] = B[i][0] + A[k][i] * B[k][0];
            }"#,
        );
        let verdict = legal(
            &root,
            &TransformStep::Tile {
                target: idx("0"),
                width: 2,
            },
        );
        assert!(verdict.is_legal(), "{verdict:?}");
    }

    #[test]
    fn exact_refusals_carry_the_provenance_marker() {
        // Constant bounds and affine subscripts: the whole region is
        // decided exactly, so a dependence-based refusal says so.
        let root = region(
            r#"void f(double A[8][8]) {
            for (int i = 1; i < 8; i++)
                for (int j = 0; j < 7; j++)
                    A[i][j] = A[i - 1][j + 1];
            }"#,
        );
        let verdict = legal(&root, &TransformStep::Interchange { order: vec![1, 0] });
        let reason = verdict.reason().unwrap();
        assert!(reason.contains("reverses a dependence"), "{reason}");
        assert!(reason.ends_with(" [exact]"), "{reason}");
        // Symbolic bounds force the conservative tag even though the
        // refusal itself is the same.
        let root = region(
            r#"void f(int n, double A[8][8]) {
            for (int i = 1; i < n; i++)
                for (int j = 0; j < n - 1; j++)
                    A[i][j] = A[i - 1][j + 1];
            }"#,
        );
        let verdict = legal(&root, &TransformStep::Interchange { order: vec![1, 0] });
        assert!(!verdict.reason().unwrap().contains("[exact]"));
    }

    #[test]
    fn explain_names_the_offending_dependence_and_domain() {
        let root = region(
            r#"void f(double A[8][8]) {
            for (int i = 1; i < 8; i++)
                for (int j = 0; j < 7; j++)
                    A[i][j] = A[i - 1][j + 1];
            }"#,
        );
        let ex = explain(&root, &TransformStep::Interchange { order: vec![1, 0] });
        assert!(!ex.verdict.is_legal());
        assert_eq!(ex.provenance, "exact");
        let off = ex.offending.expect("a dependence forced the refusal");
        assert!(off.contains("A"), "{off}");
        assert!(off.contains("(<,>)"), "{off}");
        assert_eq!(ex.domain, vec!["1 <= i < 8", "0 <= j < 7"]);

        // A legal step explains itself with no offending dependence
        // (strip-mining one loop never reorders across iterations).
        let ex = explain(
            &root,
            &TransformStep::Tile {
                target: idx("0"),
                width: 1,
            },
        );
        assert!(ex.verdict.is_legal(), "{:?}", ex.verdict);
        assert!(ex.offending.is_none());
    }

    #[test]
    fn imperfect_nest_band_is_refused_with_a_typed_reason() {
        // The LU/Cholesky factorization shape: a statement between the
        // band loops makes the nest imperfect at level 0.
        let root = region(
            r#"void f(int n, double A[8][8]) {
            for (int i = 0; i < n; i++) {
                A[i][i] = A[i][i] + 1.0;
                for (int j = 0; j < n; j++)
                    A[i][j] = A[i][j] * 0.5;
            }
            }"#,
        );
        let verdict = legal(
            &root,
            &TransformStep::Tile {
                target: idx("0"),
                width: 2,
            },
        );
        assert!(
            verdict.reason().unwrap().contains("not perfectly nested"),
            "{verdict:?}"
        );
    }

    #[test]
    fn rectangular_guarded_nest_still_tiles() {
        // A guard *inside* the body does not make the band triangular:
        // the guarded-stencil corpus shape must stay verdict-legal.
        let root = region(
            r#"void f(int n, double A[8][8], double B[8][8]) {
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++) {
                    if (A[i][j] > 12.0)
                        B[i][j] = A[i][j] * 0.5;
                    else
                        B[i][j] = A[i][j] + 1.0;
                }
            }"#,
        );
        assert!(legal(
            &root,
            &TransformStep::Tile {
                target: idx("0"),
                width: 2
            }
        )
        .is_legal());
    }

    #[test]
    fn unavailable_dependences_refuse_everything() {
        let root = region(
            r#"void f(int n, double A[64], int idx[64]) {
            for (int i = 0; i < n; i++)
                A[idx[i]] = 1.0;
            }"#,
        );
        for step in [
            TransformStep::Interchange { order: vec![1, 0] },
            TransformStep::Tile {
                target: idx("0"),
                width: 1,
            },
            TransformStep::Distribute { target: idx("0") },
            TransformStep::ParallelFor { target: idx("0") },
            TransformStep::Vectorize { target: idx("0") },
        ] {
            assert_eq!(
                legal(&root, &step),
                Verdict::illegal("dependence information unavailable"),
                "{step:?}"
            );
        }
    }

    /// Every kind of step, at each loop of a perfect nest `depth` deep.
    fn all_steps(depth: usize) -> Vec<TransformStep> {
        let mut steps = vec![
            TransformStep::Interchange { order: vec![1, 0] },
            TransformStep::Interchange {
                order: vec![0, 2, 1],
            },
            TransformStep::Fuse { first: idx("0") },
        ];
        for level in 1..=depth {
            let target = HierIndex::new(vec![0; level]);
            steps.extend([
                TransformStep::Tile {
                    target: target.clone(),
                    width: 2,
                },
                TransformStep::UnrollAndJam {
                    target: target.clone(),
                },
                TransformStep::Distribute {
                    target: target.clone(),
                },
                TransformStep::ParallelFor {
                    target: target.clone(),
                },
                TransformStep::Vectorize { target },
            ]);
        }
        steps
    }

    #[test]
    fn memo_answers_equal_the_engine_and_the_second_ask_hits() {
        let memo = LegalityMemo::new(MEMO_CAPACITY);
        let reduction = region(
            r#"void f(int n, double s, double A[64]) {
            for (int i = 0; i < n; i++)
                s = s + A[i];
            }"#,
        );
        let mut asked = 0;
        for (root, depth) in [(matmul(), 3), (reduction, 1)] {
            for step in all_steps(depth) {
                let engine = judge(&root, &step);
                for ask in 0..2 {
                    assert_eq!(memo.answer(&root, &step), engine, "{step:?}");
                    let stats = memo.stats();
                    if ask == 0 {
                        asked += 1;
                        assert_eq!(stats.misses, asked, "first ask of {step:?} is judged");
                    } else {
                        assert_eq!(stats.misses, asked, "second ask of {step:?} is a hit");
                    }
                }
            }
        }
        let stats = memo.stats();
        assert_eq!(stats.entries as u64, stats.misses);
        assert!(stats.hits >= stats.misses);
        assert_eq!(stats.clears, 0);
    }

    #[test]
    fn a_region_one_subscript_or_one_pragma_apart_is_judged_afresh() {
        let memo = LegalityMemo::new(MEMO_CAPACITY);
        let nest = |read: &str, pragma: &str| {
            region(&format!(
                r#"void f(int n, double A[8][8]) {{
                for (int i = 1; i < n; i++)
                    {pragma}
                    for (int j = 1; j < n; j++)
                        A[i][j] = {read} + 1.0;
                }}"#
            ))
        };
        let outer = TransformStep::ParallelFor { target: idx("0") };
        let carried = nest("A[i - 1][j]", "");
        let independent = nest("A[i][j - 1]", "");
        let inner_parallel = nest("A[i][j - 1]", "#pragma omp parallel for\n");
        assert!(memo.answer(&carried, &outer).is_err());
        assert_eq!(memo.answer(&independent, &outer), Ok(Vec::new()));
        let nested = memo.answer(&inner_parallel, &outer);
        assert!(
            matches!(&nested, Err(v) if v.reason().unwrap().contains("nested parallelism")),
            "{nested:?}"
        );
        assert_eq!(memo.stats().misses, 3, "no variant may hit another's entry");
        assert_eq!(memo.stats().hits, 0);
    }

    #[test]
    fn a_full_memo_clears_whole_and_still_answers() {
        let memo = LegalityMemo::new(2);
        let root = matmul();
        let steps = all_steps(3);
        for (i, step) in steps.iter().enumerate() {
            assert_eq!(memo.answer(&root, step), judge(&root, step), "{step:?}");
            let stats = memo.stats();
            assert_eq!(stats.entries, i % 2 + 1, "at most the capacity is held");
            assert_eq!(stats.clears, i as u64 / 2);
        }
        // The first answers went with the clears: asked again, they are
        // judged again, and still right.
        let misses = memo.stats().misses;
        assert_eq!(memo.answer(&root, &steps[0]), judge(&root, &steps[0]));
        assert_eq!(memo.stats().misses, misses + 1);
    }
}
