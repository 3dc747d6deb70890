//! Static safety analysis for the Locus system.
//!
//! Locus composes transformation sequences and inserts compiler pragmas
//! (Sec. IV-A.3 of the paper); whether a *composed* sequence is still
//! semantics-preserving is what makes a search space trustworthy. This
//! crate layers three passes on top of the dependence analysis of
//! `locus-analysis`:
//!
//! * [`races`] — a data-race detector for `omp parallel for` insertion.
//!   A loop is parallelizable iff no dependence is carried by it; the
//!   detector recognizes reduction idioms (`s += ...` on a scalar) and
//!   privatizable scalars (defined before used each iteration) and
//!   returns a structured [`races::RaceReport`] naming the offending
//!   statement pair, its direction vector and a suggested fix.
//! * [`legality`] — a unified legality engine. Every transformation
//!   module's `check_legality` logic funnels through one
//!   [`legality::legal`]`(root, &TransformStep) -> Verdict` API, so new
//!   transforms (and the search driver) get legality for free.
//! * [`wellformed`] — an IR well-formedness validator (pragmas on
//!   non-loops, duplicate pragma kinds, non-canonicalizable parallel
//!   loops, undefined variables) run after every applied step during
//!   tuning in debug builds and by the `locus-lint` binary.
//!
//! The crate deliberately depends only on `locus-srcir` and
//! `locus-analysis`: verdicts flow *into* the transformation and search
//! layers, never the other way around.

#![warn(missing_docs)]

mod detile;
pub mod legality;
pub mod races;
pub mod wellformed;

/// The outcome of a legality or safety judgement.
///
/// Mirrors the paper's wrapper exit statuses: a transformation either
/// passes its legality check or is *illegal* with a reason. Structural
/// problems (missing targets, malformed arguments) are reported as
/// [`Verdict::Illegal`] too — the engine judges what it is given and
/// never mutates the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The step preserves all dependences.
    Legal,
    /// The step would violate a dependence (or safety could not be
    /// established); the payload says why.
    Illegal(String),
}

impl Verdict {
    /// Builds a [`Verdict::Illegal`] from any message.
    pub fn illegal(msg: impl Into<String>) -> Verdict {
        Verdict::Illegal(msg.into())
    }

    /// `true` when the verdict is [`Verdict::Legal`].
    pub fn is_legal(&self) -> bool {
        matches!(self, Verdict::Legal)
    }

    /// The refusal reason, when illegal.
    pub fn reason(&self) -> Option<&str> {
        match self {
            Verdict::Legal => None,
            Verdict::Illegal(msg) => Some(msg),
        }
    }
}

/// Coarse category of a refusal reason, for observability rollups
/// (`locus-report` groups pruned points by it): `"race"` for data-race
/// refusals, `"dependence"` for dependence or legality violations
/// (including unavailable dependence information, which the engine
/// conservatively refuses), `"structure"` for unresolvable or malformed
/// targets and nested parallelism, `"other"` for anything else.
pub fn refusal_category(reason: &str) -> &'static str {
    if reason.contains("data race") {
        "race"
    } else if reason.contains("dependence") || reason.contains("fusion-preventing") {
        "dependence"
    } else if reason.contains("nested parallelism")
        || reason.contains("no statement at")
        || reason.contains("is not a loop")
    {
        "structure"
    } else {
        "other"
    }
}

/// Provenance of a refusal reason: `"exact"` when the legality engine
/// marked the refusal as polyhedrally proven (the reason carries an
/// ` [exact]` suffix), `"conservative"` otherwise — including every
/// structural refusal, which no dependence engine decides.
pub fn refusal_provenance(reason: &str) -> &'static str {
    if reason.ends_with(" [exact]") {
        "exact"
    } else {
        "conservative"
    }
}

pub use legality::{
    explain, legal, memo_stats, parallel_for_clauses, Explanation, MemoStats, TransformStep,
    MEMO_CAPACITY,
};
pub use locus_analysis::deps::Provenance;
pub use races::{analyze_parallel_for, Race, RaceFix, RaceReport};
pub use wellformed::{validate_program, validate_region};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refusal_categories_cover_the_engine_messages() {
        assert_eq!(refusal_category("data race: flow s->s"), "race");
        assert_eq!(
            refusal_category("permutation [1, 0] reverses a dependence"),
            "dependence"
        );
        assert_eq!(
            refusal_category("dependence information unavailable"),
            "dependence"
        );
        assert_eq!(
            refusal_category("nested parallelism: loop at `0` contains an `omp parallel for`"),
            "structure"
        );
        assert_eq!(refusal_category("no statement at `3.1`"), "structure");
        assert_eq!(
            refusal_category("statement at `0` is not a loop"),
            "structure"
        );
        assert_eq!(refusal_category("unknown module"), "other");
    }

    #[test]
    fn refusal_provenance_reads_the_exact_marker() {
        assert_eq!(
            refusal_provenance("permutation [1, 0] reverses a dependence [exact]"),
            "exact"
        );
        assert_eq!(
            refusal_provenance("permutation [1, 0] reverses a dependence"),
            "conservative"
        );
        assert_eq!(
            refusal_provenance("dependence information unavailable"),
            "conservative"
        );
        // The marker also keeps the coarse category of the base reason.
        assert_eq!(
            refusal_category("a backward dependence prevents distribution [exact]"),
            "dependence"
        );
    }
}
