//! The optimization space: an ordered collection of parameters.

use crate::param::{ParamDef, ParamKind};
use crate::point::Point;
use crate::rng::SplitMix64;

/// An optimization space.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Space {
    params: Vec<ParamDef>,
}

/// One decision site of a space: a parameter viewed as a node of the
/// decision tree (see [`Space::decision_sites`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionSite {
    /// Position in declaration order — the depth at which a sequential
    /// sampler decides this site.
    pub index: usize,
    /// The parameter id.
    pub id: String,
    /// Number of alternatives at this site (the parameter cardinality).
    pub arity: u128,
}

impl Space {
    /// An empty space (a single trivial variant).
    pub fn new() -> Space {
        Space::default()
    }

    /// Adds a parameter. Ids must be unique; re-adding an existing id
    /// replaces its definition (the Locus optimizer uses this when a
    /// range is tightened by constant propagation).
    pub fn add(&mut self, def: ParamDef) {
        match self.params.iter_mut().find(|p| p.id == def.id) {
            Some(slot) => *slot = def,
            None => self.params.push(def),
        }
    }

    /// The parameters in declaration order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Looks up a parameter by id.
    pub fn param(&self, id: &str) -> Option<&ParamDef> {
        self.params.iter().find(|p| p.id == id)
    }

    /// Removes a parameter (dead-space elimination).
    pub fn remove(&mut self, id: &str) -> bool {
        let before = self.params.len();
        self.params.retain(|p| p.id != id);
        before != self.params.len()
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of grid points (saturating at `u128::MAX`).
    ///
    /// The count is exact — every point a module can propose is one of
    /// them — only when every parameter is discrete and the product does
    /// not saturate; [`Space::exact_size`] returns it then. A `Float` or
    /// `LogFloat` parameter counts its `steps` grid samples, but modules
    /// also draw values between them.
    ///
    /// This is the figure the paper quotes for Fig. 7's space
    /// ("34,012,224 possible variants according to OpenTuner") — the
    /// exact count depends on how the search module encodes OR blocks,
    /// so our flattened count may differ by small factors.
    pub fn size(&self) -> u128 {
        self.params
            .iter()
            .map(|p| p.kind.cardinality())
            .fold(1u128, |acc, c| acc.saturating_mul(c))
    }

    /// The number of points when it is exact: `None` when a parameter
    /// is `Float` or `LogFloat` (continuous domains whose modules draw
    /// off-grid values) or the count overflows `u128`.
    pub fn exact_size(&self) -> Option<u128> {
        self.params.iter().try_fold(1u128, |acc, p| match p.kind {
            ParamKind::Float { .. } | ParamKind::LogFloat { .. } => None,
            _ => acc.checked_mul(p.kind.cardinality()),
        })
    }

    /// Whether `point` is one of the space's grid points: it assigns
    /// exactly the space's parameters, each to a grid value, so it
    /// round-trips through [`Space::trace_of`] and
    /// [`Space::point_from_trace`] unchanged. Checked value by value,
    /// without building the decoded point.
    pub fn is_on_grid(&self, point: &Point) -> bool {
        point.len() == self.params.len()
            && self.params.iter().all(|p| {
                point.get(&p.id).is_some_and(|v| {
                    p.kind
                        .index_of(v)
                        .is_some_and(|i| i < p.kind.cardinality() && p.kind.value_at(i) == *v)
                })
            })
    }

    /// A stable 64-bit digest of the space: parameter ids, kinds and
    /// bounds in declaration order, hashed with FNV-1a (float bounds via
    /// their bit patterns, so the digest is exact, not format-dependent).
    ///
    /// Two spaces share a digest exactly when they enumerate the same
    /// points in the same order, which is what makes the digest usable as
    /// a persistence key: a stored tuning record is only replayed into a
    /// session whose space decodes canonical keys identically. It also
    /// serves as a provenance line in benchmark reports.
    pub fn digest(&self) -> u64 {
        use crate::point::fnv1a;
        let mut desc = String::new();
        for p in &self.params {
            desc.push_str(&p.id);
            desc.push('=');
            match &p.kind {
                ParamKind::Enum(labels) => {
                    desc.push_str("enum:");
                    for l in labels {
                        desc.push_str(l);
                        desc.push(',');
                    }
                }
                ParamKind::Bool => desc.push_str("bool"),
                ParamKind::Integer { min, max } => {
                    desc.push_str(&format!("int:{min}:{max}"));
                }
                ParamKind::PowerOfTwo { min, max } => {
                    desc.push_str(&format!("pow2:{min}:{max}"));
                }
                ParamKind::LogInteger { min, max } => {
                    desc.push_str(&format!("logint:{min}:{max}"));
                }
                ParamKind::Float { min, max, steps } => {
                    desc.push_str(&format!(
                        "float:{:016x}:{:016x}:{steps}",
                        min.to_bits(),
                        max.to_bits()
                    ));
                }
                ParamKind::LogFloat { min, max, steps } => {
                    desc.push_str(&format!(
                        "logfloat:{:016x}:{:016x}:{steps}",
                        min.to_bits(),
                        max.to_bits()
                    ));
                }
                ParamKind::Permutation(n) => desc.push_str(&format!("perm:{n}")),
            }
            desc.push(';');
        }
        fnv1a(desc.as_bytes())
    }

    /// Decodes the `index`-th point in lexicographic order. Useful for
    /// exhaustive search over small spaces.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.size()`.
    pub fn point_at(&self, mut index: u128) -> Point {
        assert!(index < self.size(), "point index out of range");
        let mut point = Point::new();
        for p in self.params.iter().rev() {
            let card = p.kind.cardinality();
            let digit = index % card;
            index /= card;
            point.set(p.id.clone(), p.kind.value_at(digit));
        }
        point
    }

    /// The decision sites of this space, in declaration order.
    ///
    /// A *decision site* is one parameter viewed as a node of the
    /// decision tree a sequential sampler walks: OR blocks, optional
    /// statements and value constructs each contribute one site whose
    /// arity is the parameter's cardinality. Dependent parameters (a
    /// `poweroftwo(2..tileI)` bounded by an earlier tile) keep their
    /// statically inferred outer arity here; the per-point revalidation
    /// at build time reports out-of-range combinations invalid, so
    /// tree/trace searches learn the true conditional structure from
    /// observed refusals.
    pub fn decision_sites(&self) -> Vec<DecisionSite> {
        self.params
            .iter()
            .enumerate()
            .map(|(index, p)| DecisionSite {
                index,
                id: p.id.clone(),
                arity: p.kind.cardinality(),
            })
            .collect()
    }

    /// Encodes a point as a *trace*: one decision index per site, in
    /// declaration order ([`ParamKind::index_of`](crate::ParamKind::index_of) per parameter, so
    /// off-grid numeric values snap to the nearest grid index).
    /// `None` when the point misses a parameter or a value's shape does
    /// not match its domain.
    pub fn trace_of(&self, point: &Point) -> Option<Vec<u128>> {
        self.params
            .iter()
            .map(|p| p.kind.index_of(point.get(&p.id)?))
            .collect()
    }

    /// Decodes a trace of per-site decision indices back into a point —
    /// the inverse of [`Space::trace_of`] for on-grid points. `None`
    /// when the trace length or any index is out of range.
    pub fn point_from_trace(&self, trace: &[u128]) -> Option<Point> {
        if trace.len() != self.params.len() {
            return None;
        }
        let mut point = Point::new();
        for (p, &idx) in self.params.iter().zip(trace) {
            if idx >= p.kind.cardinality() {
                return None;
            }
            point.set(p.id.clone(), p.kind.value_at(idx));
        }
        Some(point)
    }

    /// Samples a uniform random point.
    pub fn random_point(&self, rng: &mut SplitMix64) -> Point {
        let mut point = Point::new();
        for p in &self.params {
            point.set(p.id.clone(), p.kind.random(rng));
        }
        point
    }

    /// Mutates `count` randomly chosen parameters of a point.
    pub fn mutate(&self, point: &Point, count: usize, rng: &mut SplitMix64) -> Point {
        if self.params.is_empty() {
            return point.clone();
        }
        let mut out = point.clone();
        for _ in 0..count.max(1) {
            let p = &self.params[rng.below_usize(self.params.len())];
            let current = point
                .get(&p.id)
                .cloned()
                .unwrap_or_else(|| p.kind.random(rng));
            out.set(p.id.clone(), p.kind.mutate(&current, rng));
        }
        out
    }

    /// Uniform crossover of two points.
    pub fn crossover(&self, a: &Point, b: &Point, rng: &mut SplitMix64) -> Point {
        let mut out = Point::new();
        for p in &self.params {
            let pick = if rng.chance(0.5) { a } else { b };
            let value = pick
                .get(&p.id)
                .cloned()
                .unwrap_or_else(|| p.kind.random(rng));
            out.set(p.id.clone(), value);
        }
        out
    }

    /// Fills any missing parameters of `point` with random values (used
    /// when the space gained parameters after a program edit).
    pub fn complete(&self, point: &Point, rng: &mut SplitMix64) -> Point {
        let mut out = point.clone();
        for p in &self.params {
            if out.get(&p.id).is_none() {
                out.set(p.id.clone(), p.kind.random(rng));
            }
        }
        out
    }
}

impl FromIterator<ParamDef> for Space {
    fn from_iter<T: IntoIterator<Item = ParamDef>>(iter: T) -> Space {
        let mut space = Space::new();
        for def in iter {
            space.add(def);
        }
        space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamValue;
    use crate::rng::SplitMix64;

    fn rng() -> SplitMix64 {
        SplitMix64::new(7)
    }

    fn fig5_space() -> Space {
        // Fig. 5: two pow2 tiles 2..32 and a 2-way OR.
        vec![
            ParamDef::new("tileI", ParamKind::PowerOfTwo { min: 2, max: 32 }),
            ParamDef::new("tileJ", ParamKind::PowerOfTwo { min: 2, max: 32 }),
            ParamDef::new(
                "or:tiletype",
                ParamKind::Enum(vec!["2D".into(), "3D".into()]),
            ),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn size_multiplies_cardinalities() {
        // 5 * 5 * 2 = 50.
        assert_eq!(fig5_space().size(), 50);
        assert_eq!(Space::new().size(), 1);
    }

    #[test]
    fn fig7_space_size_is_in_the_tens_of_millions() {
        // The DGEMM space of Fig. 7: six pow2(2..512) tiles, the OMP OR
        // block, schedule enum and chunk integer(1..32).
        let mut space = Space::new();
        for v in ["tileI", "tileK", "tileJ", "tileI_2", "tileK_2", "tileJ_2"] {
            space.add(ParamDef::new(v, ParamKind::PowerOfTwo { min: 2, max: 512 }));
        }
        space.add(ParamDef::new(
            "or:omp",
            ParamKind::Enum(vec!["plain".into(), "sched".into()]),
        ));
        space.add(ParamDef::new(
            "schedule",
            ParamKind::Enum(vec!["static".into(), "dynamic".into()]),
        ));
        space.add(ParamDef::new(
            "chunk",
            ParamKind::Integer { min: 1, max: 32 },
        ));
        // 9^6 * 2 * 2 * 32 = 68,024,448 flattened (the paper's OpenTuner
        // encoding reports 34,012,224 — a factor-2 difference in how the
        // OR block is counted).
        assert_eq!(space.size(), 68_024_448);
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let a = fig5_space();
        let b = fig5_space();
        assert_eq!(a.digest(), b.digest(), "same definition, same digest");

        // Tightening a range changes the digest.
        let mut c = fig5_space();
        c.add(ParamDef::new(
            "tileI",
            ParamKind::PowerOfTwo { min: 2, max: 8 },
        ));
        assert_ne!(a.digest(), c.digest());

        // Declaration order matters: it drives point_at enumeration.
        let mut d = Space::new();
        d.add(ParamDef::new(
            "tileJ",
            ParamKind::PowerOfTwo { min: 2, max: 32 },
        ));
        d.add(ParamDef::new(
            "tileI",
            ParamKind::PowerOfTwo { min: 2, max: 32 },
        ));
        d.add(ParamDef::new(
            "or:tiletype",
            ParamKind::Enum(vec!["2D".into(), "3D".into()]),
        ));
        assert_ne!(a.digest(), d.digest());

        assert_ne!(Space::new().digest(), a.digest());
    }

    #[test]
    fn point_at_enumerates_all_distinct_points() {
        let space = fig5_space();
        let mut seen = std::collections::HashSet::new();
        for i in 0..space.size() {
            seen.insert(space.point_at(i).dedup_key());
        }
        assert_eq!(seen.len(), 50);
    }

    #[test]
    fn random_point_assigns_every_param() {
        let space = fig5_space();
        let p = space.random_point(&mut rng());
        assert_eq!(p.len(), 3);
        assert!(p.get("tileI").is_some());
    }

    #[test]
    fn mutate_changes_at_most_requested_params() {
        let space = fig5_space();
        let mut r = rng();
        let p = space.random_point(&mut r);
        let q = space.mutate(&p, 1, &mut r);
        let diff = p.iter().filter(|(k, v)| q.get(k) != Some(*v)).count();
        assert!(diff <= 1);
    }

    #[test]
    fn crossover_takes_values_from_parents() {
        let space = fig5_space();
        let mut r = rng();
        let a = space.random_point(&mut r);
        let b = space.random_point(&mut r);
        let c = space.crossover(&a, &b, &mut r);
        for (k, v) in c.iter() {
            assert!(a.get(k) == Some(v) || b.get(k) == Some(v));
        }
    }

    #[test]
    fn replacing_a_param_updates_definition() {
        let mut space = fig5_space();
        space.add(ParamDef::new(
            "tileI",
            ParamKind::PowerOfTwo { min: 2, max: 8 },
        ));
        assert_eq!(space.len(), 3);
        assert_eq!(
            space.param("tileI").unwrap().kind,
            ParamKind::PowerOfTwo { min: 2, max: 8 }
        );
    }

    #[test]
    fn complete_fills_missing_params() {
        let space = fig5_space();
        let mut r = rng();
        let partial: Point = vec![("tileI".to_string(), ParamValue::Int(4))]
            .into_iter()
            .collect();
        let full = space.complete(&partial, &mut r);
        assert_eq!(full.len(), 3);
        assert_eq!(full.get("tileI"), Some(&ParamValue::Int(4)));
    }

    #[test]
    fn decision_sites_follow_declaration_order() {
        let sites = fig5_space().decision_sites();
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].id, "tileI");
        assert_eq!(sites[0].index, 0);
        assert_eq!(sites[0].arity, 5);
        assert_eq!(sites[2].id, "or:tiletype");
        assert_eq!(sites[2].arity, 2);
    }

    #[test]
    fn traces_round_trip_through_points() {
        let space = fig5_space();
        for i in 0..space.size() {
            let p = space.point_at(i);
            let trace = space.trace_of(&p).expect("on-grid point encodes");
            let q = space.point_from_trace(&trace).expect("trace decodes");
            assert_eq!(p, q, "index {i}");
        }
        // Random points (possibly off-grid for log kinds) still encode,
        // and the decoded point re-encodes to the same trace.
        let mut r = rng();
        let mut space = fig5_space();
        space.add(ParamDef::new(
            "n",
            ParamKind::LogInteger { min: 1, max: 64 },
        ));
        for _ in 0..50 {
            let p = space.random_point(&mut r);
            let trace = space.trace_of(&p).expect("random point encodes");
            let q = space.point_from_trace(&trace).expect("trace decodes");
            assert_eq!(space.trace_of(&q).unwrap(), trace);
        }
    }

    #[test]
    fn malformed_traces_and_points_are_refused() {
        let space = fig5_space();
        assert_eq!(space.point_from_trace(&[0, 0]), None, "short trace");
        assert_eq!(space.point_from_trace(&[0, 0, 99]), None, "index range");
        let partial: Point = vec![("tileI".to_string(), ParamValue::Int(4))]
            .into_iter()
            .collect();
        assert_eq!(space.trace_of(&partial), None, "missing params");
        assert_eq!(space.trace_of(&Point::new()), None);
        assert_eq!(Space::new().trace_of(&Point::new()), Some(Vec::new()));
        assert_eq!(Space::new().point_from_trace(&[]), Some(Point::new()));
    }

    #[test]
    fn exact_size_is_none_for_continuous_domains() {
        assert_eq!(fig5_space().exact_size(), Some(50));
        assert_eq!(Space::new().exact_size(), Some(1));
        for kind in [
            ParamKind::Float {
                min: 0.0,
                max: 1.0,
                steps: 4,
            },
            ParamKind::LogFloat {
                min: 0.1,
                max: 10.0,
                steps: 4,
            },
        ] {
            let mut space = fig5_space();
            space.add(ParamDef::new("f", kind));
            assert_eq!(space.exact_size(), None);
            assert_eq!(space.size(), 200, "size still counts the grid");
        }
        let mut huge = Space::new();
        for i in 0..3 {
            huge.add(ParamDef::new(format!("p{i}"), ParamKind::Permutation(30)));
        }
        assert_eq!(huge.exact_size(), None, "the count overflows");
        assert_eq!(huge.size(), u128::MAX);
    }

    #[test]
    fn on_grid_points_round_trip_and_others_do_not() {
        let space = fig5_space();
        for i in 0..space.size() {
            assert!(space.is_on_grid(&space.point_at(i)), "index {i}");
        }
        let mut off = space.point_at(0);
        off.set("tileI", ParamValue::Int(3));
        assert!(!space.is_on_grid(&off), "3 is no power of two");
        let mut extra = space.point_at(0);
        extra.set("stray", ParamValue::Int(1));
        assert!(!space.is_on_grid(&extra), "a parameter the space lacks");
        let partial: Point = vec![("tileI".to_string(), ParamValue::Int(4))]
            .into_iter()
            .collect();
        assert!(!space.is_on_grid(&partial), "a missing parameter");
        let mut shape = space.point_at(0);
        shape.set("tileI", ParamValue::Choice(0));
        assert!(!space.is_on_grid(&shape), "a value of the wrong shape");
        // Agrees with the trace round trip on every kind, on and off grid.
        let mut mixed = fig5_space();
        mixed.add(ParamDef::new("n", ParamKind::Integer { min: 1, max: 4 }));
        mixed.add(ParamDef::new("p", ParamKind::Permutation(3)));
        let mut r = rng();
        for i in 0..200 {
            let mut p = mixed.random_point(&mut r);
            if i % 3 == 0 {
                p.set("n", ParamValue::Int(r.below(8) as i64));
            }
            if i % 5 == 0 {
                p.set("p", ParamValue::Perm(vec![0, 0, 1]));
            }
            let round_trip = mixed
                .trace_of(&p)
                .and_then(|t| mixed.point_from_trace(&t))
                .is_some_and(|q| q == p);
            assert_eq!(mixed.is_on_grid(&p), round_trip, "{p:?}");
        }
    }

    #[test]
    fn remove_eliminates_dead_params() {
        let mut space = fig5_space();
        assert!(!space.remove("chunk"));
        assert!(space.remove("tileJ"));
        assert_eq!(space.size(), 10);
    }
}
