//! On-disk record types and the line codec.
//!
//! Every line of a store file is either the versioned header
//! (`#locus-store v1`) or one flat JSON object. Three record kinds
//! exist:
//!
//! * `eval` — one evaluated point: canonical point key, variant digest,
//!   objective, a measurement summary, the search module that proposed
//!   it and the wall-clock the measurement took;
//! * `prune` — one point the static safety verifier refused before any
//!   evaluation (a data race or an illegal transformation), with the
//!   refusal reason; a warm session replays the refusal from disk
//!   instead of re-running the analysis;
//! * `session` — one finished tuning session: the region's structural
//!   profile, the best point, and the *direct* (search-free) Locus
//!   recipe it denotes, which `suggest_program` retrieves for similar
//!   regions.
//!
//! Objectives are persisted as exact `f64` bit patterns (hex) next to a
//! human-readable decimal: warm-started sessions must replay *bit
//! identical* values, or cross-session determinism of the search
//! trajectory would silently break. The codec is hand-rolled (the
//! workspace has no serde) and tolerant: unknown keys are ignored and
//! unknown kinds are skipped, so the format can grow. Decoding reads
//! each line in one borrowed pass ([`read_object`]); the `locusd` wire
//! protocol reads its lines with the same reader.

use std::borrow::Cow;

use locus_search::Objective;

/// Version tag written as the first line of every store file.
pub const HEADER: &str = "#locus-store v1";

/// Structural profile of a code region, the retrieval key of `session`
/// records. Mirrors the analysis-derived `RegionProfile` of the core
/// crate without depending on it (the core crate depends on this one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionShape {
    /// Loop nest depth.
    pub depth: usize,
    /// Whether the nest is perfect.
    pub perfect: bool,
    /// Whether dependence analysis succeeded.
    pub deps_available: bool,
    /// Number of innermost loops.
    pub inner_loops: usize,
    /// Whether every innermost loop is provably vectorizable.
    pub vectorizable: bool,
}

impl RegionShape {
    /// Structural distance between two regions, used for
    /// nearest-neighbor recipe retrieval. Depth and dependence
    /// availability dominate — a recipe for a deep affine nest is
    /// useless on a flat non-affine one — while vectorizability is a
    /// tie-breaker.
    pub fn distance(&self, other: &RegionShape) -> u32 {
        (self.depth.abs_diff(other.depth) as u32) * 2
            + u32::from(self.perfect != other.perfect) * 2
            + u32::from(self.deps_available != other.deps_available) * 3
            + self.inner_loops.abs_diff(other.inner_loops) as u32
            + u32::from(self.vectorizable != other.vectorizable)
    }
}

/// One evaluated point.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// `Point::canonical_key` of the evaluated point.
    pub point_key: String,
    /// FNV-1a digest of the direct program the point denotes.
    pub variant: u64,
    /// The evaluation outcome (value = simulated milliseconds).
    pub objective: Objective,
    /// Simulated cycles of the measurement (0 for invalid/error).
    pub cycles: f64,
    /// Interpreted operations.
    pub ops: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Result checksum (semantic-equivalence witness).
    pub checksum: u64,
    /// Name of the search module that proposed the point.
    pub search: String,
    /// Wall-clock milliseconds the measurement took.
    pub wall_ms: f64,
}

/// One statically pruned point: the verifier refused it before any
/// evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneRecord {
    /// `Point::canonical_key` of the refused point.
    pub point_key: String,
    /// FNV-1a digest of the direct program the point denotes.
    pub variant: u64,
    /// Why the verifier refused (race report or legality verdict).
    pub reason: String,
    /// `"exact"` when the refusal was decided by the polyhedral
    /// dependence engine, `"conservative"` otherwise. Lines written
    /// before this field existed decode as `"conservative"`.
    pub provenance: String,
    /// Name of the search module that proposed the point.
    pub search: String,
}

/// One finished tuning session's summary: what region was tuned, what
/// recipe won.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Region id the session tuned.
    pub region: String,
    /// Structural profile of the region at tuning time.
    pub shape: RegionShape,
    /// `Point::canonical_key` of the winning point.
    pub best_point: String,
    /// Objective of the winning point (simulated milliseconds).
    pub best_ms: f64,
    /// The direct (search-free) Locus program of the winning point.
    pub recipe: String,
    /// Name of the search module that found it.
    pub search: String,
}

/// A parsed store line.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An `eval` line, with the group key it belongs to.
    Eval {
        /// Group key of the record.
        key: crate::StoreKey,
        /// The record itself.
        record: EvalRecord,
    },
    /// A `prune` line, with the group key it belongs to.
    Prune {
        /// Group key of the record.
        key: crate::StoreKey,
        /// The record itself.
        record: PruneRecord,
    },
    /// A `session` line, with the group key it belongs to.
    Session {
        /// Group key of the record.
        key: crate::StoreKey,
        /// The record itself.
        record: SessionRecord,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `"key":"value",` to a flat JSON object under construction,
/// with `value` escaped. The writer of the store's lines and of the
/// `locusd` wire: start with `{`, push fields, then [`finish`].
pub fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    escape(value, out);
    out.push(',');
}

/// Appends `"key":value,` with `value` written verbatim (a number or a
/// boolean).
pub fn push_raw_field(out: &mut String, key: &str, value: impl std::fmt::Display) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
    out.push(',');
}

/// Appends an `f64` bit-exactly: its bit pattern as 16 hex digits under
/// `key`, and an approximate decimal under `key_dec` for human readers.
pub fn push_bits_field(out: &mut String, key: &str, value: f64) {
    push_str_field(out, key, &format!("{:016x}", value.to_bits()));
    push_raw_field(out, &format!("{key}_dec"), format!("{value:.6}"));
}

fn key_fields(out: &mut String, key: &crate::StoreKey) {
    let mut regions = String::new();
    for (id, hash) in &key.regions {
        regions.push_str(id);
        regions.push(':');
        regions.push_str(&format!("{hash:016x}"));
        regions.push(',');
    }
    push_str_field(out, "regions", &regions);
    push_str_field(out, "machine", &format!("{:016x}", key.machine));
    push_str_field(out, "space", &format!("{:016x}", key.space));
}

/// Encodes an `eval` line (no trailing newline).
pub fn encode_eval(key: &crate::StoreKey, r: &EvalRecord) -> String {
    let mut out = String::from("{");
    push_str_field(&mut out, "kind", "eval");
    key_fields(&mut out, key);
    push_str_field(&mut out, "point", &r.point_key);
    push_str_field(&mut out, "variant", &format!("{:016x}", r.variant));
    let (tag, ms) = match r.objective {
        Objective::Value(v) => ("V", v),
        Objective::Invalid => ("I", 0.0),
        Objective::Error => ("E", 0.0),
    };
    push_str_field(&mut out, "obj", tag);
    push_bits_field(&mut out, "ms", ms);
    push_bits_field(&mut out, "cycles", r.cycles);
    push_raw_field(&mut out, "ops", r.ops);
    push_raw_field(&mut out, "flops", r.flops);
    push_str_field(&mut out, "checksum", &format!("{:016x}", r.checksum));
    push_str_field(&mut out, "search", &r.search);
    push_raw_field(&mut out, "wall_ms", format!("{:.6}", r.wall_ms));
    finish(out)
}

/// Encodes a `prune` line (no trailing newline).
pub fn encode_prune(key: &crate::StoreKey, r: &PruneRecord) -> String {
    let mut out = String::from("{");
    push_str_field(&mut out, "kind", "prune");
    key_fields(&mut out, key);
    push_str_field(&mut out, "point", &r.point_key);
    push_str_field(&mut out, "variant", &format!("{:016x}", r.variant));
    push_str_field(&mut out, "reason", &r.reason);
    push_str_field(&mut out, "provenance", &r.provenance);
    push_str_field(&mut out, "search", &r.search);
    finish(out)
}

/// Encodes a `session` line (no trailing newline).
pub fn encode_session(key: &crate::StoreKey, r: &SessionRecord) -> String {
    let mut out = String::from("{");
    push_str_field(&mut out, "kind", "session");
    key_fields(&mut out, key);
    push_str_field(&mut out, "region", &r.region);
    push_raw_field(&mut out, "depth", r.shape.depth);
    push_raw_field(&mut out, "perfect", r.shape.perfect);
    push_raw_field(&mut out, "deps", r.shape.deps_available);
    push_raw_field(&mut out, "inner", r.shape.inner_loops);
    push_raw_field(&mut out, "vec", r.shape.vectorizable);
    push_str_field(&mut out, "best_point", &r.best_point);
    push_bits_field(&mut out, "best_ms", r.best_ms);
    push_str_field(&mut out, "recipe", &r.recipe);
    push_str_field(&mut out, "search", &r.search);
    finish(out)
}

/// Closes a flat JSON object built with the `push_*_field` writers.
pub fn finish(mut out: String) -> String {
    if out.ends_with(',') {
        out.pop();
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// One `"key": value` pair of a flat JSON object. Both sides borrow the
/// line they were read from unless their text held an escape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field<'a> {
    /// The unescaped key.
    pub key: Cow<'a, str>,
    /// A string value unescaped; any other value (a number, a boolean)
    /// verbatim, with surrounding whitespace trimmed.
    pub value: Cow<'a, str>,
    /// Whether the value was a quoted string.
    pub quoted: bool,
}

/// Reads one flat JSON object — the dialect of store lines and of the
/// `locusd` wire — in a single pass over its bytes, handing each field
/// to `visit` in line order. Returns the text after the closing `}`,
/// which the store ignores and the wire refuses, or `None` when the line
/// is not such an object (whatever was visited before then is moot).
///
/// The dialect is lenient: the line is trimmed, any run of commas and
/// spaces separates fields, spaces around `:` are accepted, and an
/// unquoted value runs to the next `,` or `}`.
pub fn read_object<'a>(line: &'a str, mut visit: impl FnMut(Field<'a>)) -> Option<&'a str> {
    let mut rest = line.trim().strip_prefix('{')?;
    loop {
        match *rest.as_bytes().first()? {
            b'}' => return Some(&rest[1..]),
            b',' | b' ' => rest = &rest[1..],
            b'"' => {
                let (key, after) = read_string(rest)?;
                let after = after.trim_start_matches(' ').strip_prefix(':')?;
                let after = after.trim_start_matches(' ');
                let (value, quoted, after) = if after.starts_with('"') {
                    let (value, after) = read_string(after)?;
                    (value, true, after)
                } else {
                    let end = after
                        .bytes()
                        .position(|b| b == b',' || b == b'}')
                        .unwrap_or(after.len());
                    (Cow::Borrowed(after[..end].trim()), false, &after[end..])
                };
                visit(Field { key, value, quoted });
                rest = after;
            }
            _ => return None,
        }
    }
}

/// Reads the JSON string literal `text` starts with, returning its
/// unescaped contents and the text after the closing quote. The
/// contents borrow `text` unless they hold an escape. The escapes are
/// `\"`, `\\`, `\n`, `\r`, `\t` and `\uXXXX` (no surrogates); any other,
/// or a missing closing quote, is `None`.
pub fn read_string(text: &str) -> Option<(Cow<'_, str>, &str)> {
    let mut rest = text.strip_prefix('"')?;
    // Allocated at the first escape; until then the contents borrow.
    let mut owned: Option<String> = None;
    loop {
        let stop = rest.bytes().position(|b| b == b'"' || b == b'\\')?;
        let (plain, tail) = rest.split_at(stop);
        if let Some(after) = tail.strip_prefix('"') {
            let contents = match owned {
                None => Cow::Borrowed(plain),
                Some(mut out) => {
                    out.push_str(plain);
                    Cow::Owned(out)
                }
            };
            return Some((contents, after));
        }
        let out = owned.get_or_insert_with(String::new);
        out.push_str(plain);
        let (unescaped, width) = match *tail.as_bytes().get(1)? {
            b'"' => ('"', 2),
            b'\\' => ('\\', 2),
            b'n' => ('\n', 2),
            b'r' => ('\r', 2),
            b't' => ('\t', 2),
            b'u' => {
                let hex = tail.get(2..6)?;
                if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return None;
                }
                (char::from_u32(u32::from_str_radix(hex, 16).ok()?)?, 6)
            }
            _ => return None,
        };
        out.push(unescaped);
        rest = &tail[width..];
    }
}

/// The fields [`decode`] reads. The first occurrence of a key wins.
#[derive(Default)]
struct Fields<'a> {
    kind: Option<Cow<'a, str>>,
    regions: Option<Cow<'a, str>>,
    machine: Option<Cow<'a, str>>,
    space: Option<Cow<'a, str>>,
    point: Option<Cow<'a, str>>,
    variant: Option<Cow<'a, str>>,
    obj: Option<Cow<'a, str>>,
    ms: Option<Cow<'a, str>>,
    cycles: Option<Cow<'a, str>>,
    ops: Option<Cow<'a, str>>,
    flops: Option<Cow<'a, str>>,
    checksum: Option<Cow<'a, str>>,
    search: Option<Cow<'a, str>>,
    wall_ms: Option<Cow<'a, str>>,
    reason: Option<Cow<'a, str>>,
    provenance: Option<Cow<'a, str>>,
    region: Option<Cow<'a, str>>,
    depth: Option<Cow<'a, str>>,
    perfect: Option<Cow<'a, str>>,
    deps: Option<Cow<'a, str>>,
    inner: Option<Cow<'a, str>>,
    vec: Option<Cow<'a, str>>,
    best_point: Option<Cow<'a, str>>,
    best_ms: Option<Cow<'a, str>>,
    recipe: Option<Cow<'a, str>>,
}

impl<'a> Fields<'a> {
    fn read(line: &'a str) -> Option<Fields<'a>> {
        let mut f = Fields::default();
        read_object(line, |field| {
            let slot = match &*field.key {
                "kind" => &mut f.kind,
                "regions" => &mut f.regions,
                "machine" => &mut f.machine,
                "space" => &mut f.space,
                "point" => &mut f.point,
                "variant" => &mut f.variant,
                "obj" => &mut f.obj,
                "ms" => &mut f.ms,
                "cycles" => &mut f.cycles,
                "ops" => &mut f.ops,
                "flops" => &mut f.flops,
                "checksum" => &mut f.checksum,
                "search" => &mut f.search,
                "wall_ms" => &mut f.wall_ms,
                "reason" => &mut f.reason,
                "provenance" => &mut f.provenance,
                "region" => &mut f.region,
                "depth" => &mut f.depth,
                "perfect" => &mut f.perfect,
                "deps" => &mut f.deps,
                "inner" => &mut f.inner,
                "vec" => &mut f.vec,
                "best_point" => &mut f.best_point,
                "best_ms" => &mut f.best_ms,
                "recipe" => &mut f.recipe,
                _ => return,
            };
            slot.get_or_insert(field.value);
        })?;
        Some(f)
    }
}

fn hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

fn bits(s: &str) -> Option<f64> {
    hex64(s).map(f64::from_bits)
}

/// A line's group key as written. Consecutive lines of one group repeat
/// it, so [`crate::TuningStore`] parses it once per run of equal text.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct KeyText<'a> {
    regions: Cow<'a, str>,
    machine: Cow<'a, str>,
    space: Cow<'a, str>,
}

impl KeyText<'_> {
    /// Parses the key; `None` when any part is malformed.
    pub(crate) fn parse(&self) -> Option<crate::StoreKey> {
        let mut regions = Vec::new();
        for entry in self.regions.split(',') {
            if entry.is_empty() {
                continue;
            }
            let (id, hash) = entry.rsplit_once(':')?;
            regions.push((id.to_string(), hex64(hash)?));
        }
        Some(crate::StoreKey::new(
            regions,
            hex64(&self.machine)?,
            hex64(&self.space)?,
        ))
    }
}

/// A decoded record without its group key.
pub(crate) enum Body {
    Eval(EvalRecord),
    Prune(PruneRecord),
    Session(SessionRecord),
}

/// Decodes one store line into its raw group key and its record, or
/// `None` for a line [`decode`] would skip.
pub(crate) fn decode_parts(line: &str) -> Option<(KeyText<'_>, Body)> {
    let f = Fields::read(line)?;
    let key = KeyText {
        regions: f.regions?,
        machine: f.machine?,
        space: f.space?,
    };
    let body = match &*f.kind? {
        "eval" => {
            let objective = match &*f.obj? {
                "V" => Objective::Value(bits(&f.ms?)?),
                "I" => Objective::Invalid,
                "E" => Objective::Error,
                _ => return None,
            };
            Body::Eval(EvalRecord {
                point_key: f.point?.into_owned(),
                variant: hex64(&f.variant?)?,
                objective,
                cycles: bits(&f.cycles?)?,
                ops: f.ops?.parse().ok()?,
                flops: f.flops?.parse().ok()?,
                checksum: hex64(&f.checksum?)?,
                search: f.search?.into_owned(),
                wall_ms: f.wall_ms?.parse().ok()?,
            })
        }
        "prune" => Body::Prune(PruneRecord {
            point_key: f.point?.into_owned(),
            variant: hex64(&f.variant?)?,
            reason: f.reason?.into_owned(),
            provenance: f
                .provenance
                .map_or_else(|| "conservative".to_string(), Cow::into_owned),
            search: f.search?.into_owned(),
        }),
        "session" => Body::Session(SessionRecord {
            region: f.region?.into_owned(),
            shape: RegionShape {
                depth: f.depth?.parse().ok()?,
                perfect: f.perfect? == "true",
                deps_available: f.deps? == "true",
                inner_loops: f.inner?.parse().ok()?,
                vectorizable: f.vec? == "true",
            },
            best_point: f.best_point?.into_owned(),
            best_ms: bits(&f.best_ms?)?,
            recipe: f.recipe?.into_owned(),
            search: f.search?.into_owned(),
        }),
        _ => return None,
    };
    Some((key, body))
}

/// Decodes one store line. Returns `None` for lines this version does
/// not understand (malformed, or a future record kind) — callers skip
/// them so old binaries tolerate newer files.
pub fn decode(line: &str) -> Option<Record> {
    let (key_text, body) = decode_parts(line)?;
    let key = key_text.parse()?;
    Some(match body {
        Body::Eval(record) => Record::Eval { key, record },
        Body::Prune(record) => Record::Prune { key, record },
        Body::Session(record) => Record::Session { key, record },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> crate::StoreKey {
        crate::StoreKey::new(vec![("matmul".into(), 0xabcd)], 0x1111, 0x2222)
    }

    #[test]
    fn eval_round_trips_bit_exactly() {
        let r = EvalRecord {
            point_key: "tileI=i32;or:omp=c1;".into(),
            variant: 0xdead_beef_cafe_f00d,
            objective: Objective::Value(0.1 + 0.2), // a value with ugly bits
            cycles: 1234.5678,
            ops: 99,
            flops: 42,
            checksum: 0x0123_4567_89ab_cdef,
            search: "bandit (opentuner-like)".into(),
            wall_ms: 0.25,
        };
        let line = encode_eval(&key(), &r);
        let Some(Record::Eval { key: k, record }) = decode(&line) else {
            panic!("decodes: {line}");
        };
        assert_eq!(k, key());
        assert_eq!(record, r);
        // Bit-exactness is the contract, not approximate equality.
        let (Objective::Value(a), Objective::Value(b)) = (record.objective, r.objective) else {
            panic!();
        };
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn invalid_and_error_outcomes_round_trip() {
        for objective in [Objective::Invalid, Objective::Error] {
            let r = EvalRecord {
                point_key: "x=i1;".into(),
                variant: 7,
                objective,
                cycles: 0.0,
                ops: 0,
                flops: 0,
                checksum: 0,
                search: "exhaustive".into(),
                wall_ms: 0.0,
            };
            let Some(Record::Eval { record, .. }) = decode(&encode_eval(&key(), &r)) else {
                panic!("decodes");
            };
            assert_eq!(record.objective, objective);
        }
    }

    #[test]
    fn prune_round_trips_with_reason() {
        let r = PruneRecord {
            point_key: "or:omp=c1;".into(),
            variant: 0x1234_5678_9abc_def0,
            reason: "data race: write C[i][j] / write C[i][j] carried at level 0 (direction *)"
                .into(),
            provenance: "exact".into(),
            search: "exhaustive".into(),
        };
        let line = encode_prune(&key(), &r);
        assert!(!line.contains('\n'), "one record per line: {line}");
        let Some(Record::Prune { key: k, record }) = decode(&line) else {
            panic!("decodes: {line}");
        };
        assert_eq!(k, key());
        assert_eq!(record, r);
    }

    #[test]
    fn prune_lines_without_provenance_decode_as_conservative() {
        let r = PruneRecord {
            point_key: "or:omp=c1;".into(),
            variant: 0x1,
            reason: "dependence".into(),
            provenance: "exact".into(),
            search: "exhaustive".into(),
        };
        let line = encode_prune(&key(), &r)
            .replace(",\"provenance\":\"exact\"", "")
            .replace("\"provenance\":\"exact\",", "");
        assert!(!line.contains("provenance"), "{line}");
        let Some(Record::Prune { record, .. }) = decode(&line) else {
            panic!("decodes: {line}");
        };
        assert_eq!(record.provenance, "conservative");
    }

    #[test]
    fn session_round_trips_with_multiline_recipe() {
        let r = SessionRecord {
            region: "matmul".into(),
            shape: RegionShape {
                depth: 3,
                perfect: true,
                deps_available: true,
                inner_loops: 1,
                vectorizable: false,
            },
            best_point: "tileI=i16;".into(),
            best_ms: 1.5,
            recipe: "CodeReg matmul {\n    RoseLocus.Interchange(order=[0, 2, 1]);\n}\n".into(),
            search: "bandit".into(),
        };
        let line = encode_session(&key(), &r);
        assert!(!line.contains('\n'), "one record per line: {line}");
        let Some(Record::Session { record, .. }) = decode(&line) else {
            panic!("decodes: {line}");
        };
        assert_eq!(record, r);
    }

    #[test]
    fn strings_with_quotes_and_backslashes_survive() {
        let r = SessionRecord {
            region: "r".into(),
            shape: RegionShape {
                depth: 1,
                perfect: false,
                deps_available: false,
                inner_loops: 1,
                vectorizable: false,
            },
            best_point: String::new(),
            best_ms: 0.0,
            recipe: "Pips.Tiling(loop=\"0\", factor=[8]);\\ tab:\there".into(),
            search: "s".into(),
        };
        let Some(Record::Session { record, .. }) = decode(&encode_session(&key(), &r)) else {
            panic!("decodes");
        };
        assert_eq!(record.recipe, r.recipe);
    }

    #[test]
    fn unknown_kinds_and_garbage_are_skipped() {
        assert!(decode("not json at all").is_none());
        assert!(decode("{\"kind\":\"eval\"}").is_none(), "missing fields");
        let mut line = encode_eval(
            &key(),
            &EvalRecord {
                point_key: "x=i1;".into(),
                variant: 1,
                objective: Objective::Value(1.0),
                cycles: 0.0,
                ops: 0,
                flops: 0,
                checksum: 0,
                search: "s".into(),
                wall_ms: 0.0,
            },
        );
        line = line.replace("\"kind\":\"eval\"", "\"kind\":\"v2-hologram\"");
        assert!(decode(&line).is_none(), "future kinds skip, not crash");
    }

    /// Random text over an alphabet of everything the codec must
    /// escape or could mistake for structure.
    fn hostile(rng: &mut locus_space::SplitMix64) -> String {
        const ALPHABET: [char; 20] = [
            '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '{', '}', ',', ':', ' ', 'u', 'a', '0',
            '=', ';', 'é', '\u{2028}', '😀',
        ];
        (0..rng.below_usize(12))
            .map(|_| ALPHABET[rng.below_usize(ALPHABET.len())])
            .collect()
    }

    /// A finite `f64` from random bits (NaN would defeat `==`).
    fn any_f64(rng: &mut locus_space::SplitMix64) -> f64 {
        let x = f64::from_bits(rng.next_u64());
        if x.is_nan() {
            0.5
        } else {
            x
        }
    }

    #[test]
    fn random_hostile_records_round_trip_and_their_prefixes_do_not_decode() {
        let mut rng = locus_space::SplitMix64::new(0x10c5);
        for _ in 0..256 {
            let regions = (0..rng.below_usize(3))
                .map(|i| (format!("r{i}:{}", rng.below(9)), rng.next_u64()))
                .collect();
            let key = crate::StoreKey::new(regions, rng.next_u64(), rng.next_u64());
            let objective = match rng.below(3) {
                0 => Objective::Value(any_f64(&mut rng)),
                1 => Objective::Invalid,
                _ => Objective::Error,
            };
            let eval = EvalRecord {
                point_key: hostile(&mut rng),
                variant: rng.next_u64(),
                objective,
                cycles: any_f64(&mut rng),
                ops: rng.next_u64(),
                flops: rng.next_u64(),
                checksum: rng.next_u64(),
                search: hostile(&mut rng),
                // `wall_ms` is written with six decimals.
                wall_ms: rng.below(1 << 40) as f64 / 1e6,
            };
            let prune = PruneRecord {
                point_key: hostile(&mut rng),
                variant: rng.next_u64(),
                reason: hostile(&mut rng),
                provenance: hostile(&mut rng),
                search: hostile(&mut rng),
            };
            let session = SessionRecord {
                region: hostile(&mut rng),
                shape: RegionShape {
                    depth: rng.below_usize(9),
                    perfect: rng.chance(0.5),
                    deps_available: rng.chance(0.5),
                    inner_loops: rng.below_usize(9),
                    vectorizable: rng.chance(0.5),
                },
                best_point: hostile(&mut rng),
                best_ms: any_f64(&mut rng),
                recipe: hostile(&mut rng),
                search: hostile(&mut rng),
            };
            let cases = [
                (
                    encode_eval(&key, &eval),
                    Record::Eval {
                        key: key.clone(),
                        record: eval,
                    },
                ),
                (
                    encode_prune(&key, &prune),
                    Record::Prune {
                        key: key.clone(),
                        record: prune,
                    },
                ),
                (
                    encode_session(&key, &session),
                    Record::Session {
                        key: key.clone(),
                        record: session,
                    },
                ),
            ];
            for (line, record) in cases {
                assert!(!line.contains('\n'), "one record per line: {line:?}");
                assert_eq!(decode(&line), Some(record), "{line:?}");
                for (cut, _) in line.char_indices() {
                    assert_eq!(decode(&line[..cut]), None, "prefix of {line:?}");
                }
            }
        }
    }

    #[test]
    fn reader_borrows_plain_text_and_hands_back_the_tail() {
        let mut fields = Vec::new();
        let tail = read_object(r#" {"a" : "x\"y", ,"b":12 ,"c":"plain"} rest "#, |f| {
            fields.push(f)
        });
        assert_eq!(tail, Some(" rest"));
        let view: Vec<(&str, &str, bool)> = fields
            .iter()
            .map(|f| (&*f.key, &*f.value, f.quoted))
            .collect();
        assert_eq!(
            view,
            [
                ("a", "x\"y", true),
                ("b", "12", false),
                ("c", "plain", true)
            ]
        );
        assert!(matches!(fields[2].value, Cow::Borrowed(_)));
        assert!(matches!(fields[0].value, Cow::Owned(_)));
        assert_eq!(read_string(r#""é\t" tail"#), Some(("é\t".into(), " tail")));
        for bad in [r#""\ud800""#, r#""\u+123""#, r#""\x""#, r#""open"#, "bare"] {
            assert_eq!(read_string(bad), None, "{bad}");
        }
    }

    #[test]
    fn shape_distance_prefers_structurally_similar_regions() {
        let deep = RegionShape {
            depth: 3,
            perfect: true,
            deps_available: true,
            inner_loops: 1,
            vectorizable: true,
        };
        let same = deep;
        let shallow = RegionShape {
            depth: 1,
            perfect: true,
            deps_available: true,
            inner_loops: 1,
            vectorizable: true,
        };
        let nonaffine = RegionShape {
            depth: 3,
            perfect: true,
            deps_available: false,
            inner_loops: 1,
            vectorizable: false,
        };
        assert_eq!(deep.distance(&same), 0);
        assert!(deep.distance(&shallow) > 0);
        assert!(deep.distance(&nonaffine) > deep.distance(&same));
    }
}
