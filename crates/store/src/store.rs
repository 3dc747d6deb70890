//! The persistent store: an append-only JSONL log plus a compact
//! in-memory index.

use std::collections::{HashMap, HashSet};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::lock::StoreLock;

use locus_space::Point;

use crate::record::{
    decode_parts, encode_eval, encode_prune, encode_session, Body, EvalRecord, KeyText,
    PruneRecord, RegionShape, SessionRecord, HEADER,
};

/// The identity of a tuning context: which code (region hashes), which
/// machine, which optimization space. Records are grouped under this
/// key; a session only rehydrates records whose key matches its own
/// exactly, so a changed region, machine or space can never replay a
/// stale measurement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// `(region id, region content hash)` pairs, sorted by id.
    pub regions: Vec<(String, u64)>,
    /// `MachineConfig::digest()` of the measuring machine.
    pub machine: u64,
    /// `Space::digest()` of the optimization space.
    pub space: u64,
}

impl StoreKey {
    /// Creates a key; region pairs are sorted so construction order
    /// never influences identity.
    pub fn new(mut regions: Vec<(String, u64)>, machine: u64, space: u64) -> StoreKey {
        regions.sort();
        regions.dedup();
        StoreKey {
            regions,
            machine,
            space,
        }
    }
}

/// All records of one [`StoreKey`], in insertion (= on-disk) order.
#[derive(Debug, Default)]
struct Group {
    records: Vec<EvalRecord>,
    points: HashSet<String>,
    prunes: Vec<PruneRecord>,
    pruned_points: HashSet<String>,
}

impl Group {
    /// Indexes an evaluation unless the group already holds its point.
    fn insert_eval(&mut self, record: EvalRecord) -> bool {
        if !self.points.insert(record.point_key.clone()) {
            return false;
        }
        self.records.push(record);
        true
    }

    /// Indexes a prune unless the group already holds one for its point.
    fn insert_prune(&mut self, record: PruneRecord) -> bool {
        if !self.pruned_points.insert(record.point_key.clone()) {
            return false;
        }
        self.prunes.push(record);
        true
    }
}

/// A persistent, append-only tuning-results database.
///
/// The on-disk format is line-oriented: a versioned header
/// (`#locus-store v1`) followed by one JSON record per line (see
/// [`crate::record`]). Appends never rewrite earlier lines, so a
/// crashed session loses at most its unflushed tail and concurrent
/// readers always see a valid prefix. The in-memory index deduplicates
/// by canonical point key within each group (first record wins — the
/// simulated machine is deterministic, so later duplicates carry no new
/// information).
#[derive(Debug)]
pub struct TuningStore {
    path: PathBuf,
    groups: HashMap<StoreKey, Group>,
    sessions: Vec<(StoreKey, SessionRecord)>,
    skipped_lines: usize,
    /// Advisory writer lock; `None` for read-only opens. Released on
    /// drop.
    lock: Option<StoreLock>,
    read_only: bool,
    /// The log ends inside a line (a torn write): the next append
    /// starts a fresh line first, so it cannot glue onto the torn one.
    torn_tail: bool,
}

/// What [`TuningStore::compact`] did to the on-disk log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// File size before compaction, in bytes.
    pub bytes_before: u64,
    /// File size after compaction, in bytes.
    pub bytes_after: u64,
    /// Live evaluation records rewritten.
    pub evals: usize,
    /// Live prune records rewritten.
    pub prunes: usize,
    /// Session records rewritten.
    pub sessions: usize,
}

impl TuningStore {
    /// Opens (or creates) a store file for writing, taking the advisory
    /// single-writer lock (`<path>.lock`). A fresh file gets the
    /// versioned header; an existing file's header is validated.
    ///
    /// The lock is *advisory*: it only arbitrates between cooperating
    /// openers (a daemon and a stray CLI session cannot interleave
    /// appends and corrupt the log), and a lock whose holder process is
    /// dead is stolen rather than honored. Readers that never append
    /// use [`TuningStore::open_read_only`] and take no lock.
    ///
    /// # Errors
    ///
    /// I/O errors, [`io::ErrorKind::WouldBlock`] when another live
    /// process holds the writer lock, or
    /// [`io::ErrorKind::InvalidData`] when the file exists but carries
    /// a different format version.
    pub fn open(path: impl AsRef<Path>) -> io::Result<TuningStore> {
        let lock = StoreLock::acquire(path.as_ref())?;
        let mut store = Self::open_unlocked(path.as_ref())?;
        store.lock = Some(lock);
        store.read_only = false;
        Ok(store)
    }

    /// Opens a store file for reading only: no writer lock is taken
    /// (concurrent with a live writer), and every append method fails
    /// with [`io::ErrorKind::PermissionDenied`]. A missing file is an
    /// error rather than being created.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] on a foreign
    /// format version.
    pub fn open_read_only(path: impl AsRef<Path>) -> io::Result<TuningStore> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)?;
        let mut store = TuningStore {
            path: path.to_path_buf(),
            groups: HashMap::new(),
            sessions: Vec::new(),
            skipped_lines: 0,
            lock: None,
            read_only: true,
            torn_tail: false,
        };
        store.load_text(&text)?;
        Ok(store)
    }

    fn open_unlocked(path: &Path) -> io::Result<TuningStore> {
        let path = path.to_path_buf();
        let mut store = TuningStore {
            path: path.clone(),
            groups: HashMap::new(),
            sessions: Vec::new(),
            skipped_lines: 0,
            lock: None,
            read_only: false,
            torn_tail: false,
        };
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                store.load(&text)?;
                store.torn_tail = !text.is_empty() && !text.ends_with('\n');
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                std::fs::write(&path, format!("{HEADER}\n"))?;
            }
            Err(e) => return Err(e),
        }
        Ok(store)
    }

    fn load(&mut self, text: &str) -> io::Result<()> {
        if matches!(text.lines().next(), None | Some("")) {
            // An empty file is adopted as a fresh v1 store.
            std::fs::write(&self.path, format!("{HEADER}\n"))?;
            return Ok(());
        }
        self.load_text(text)
    }

    fn load_text(&mut self, text: &str) -> io::Result<()> {
        let mut lines = text.lines();
        match lines.next() {
            None | Some("") => return Ok(()),
            Some(header) if header == HEADER => {}
            Some(header) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unsupported store header `{header}` (expected `{HEADER}`)"),
                ));
            }
        }
        // Runs of lines share one group key: parse its text and find its
        // group once per run rather than once per line.
        let mut run: Option<(KeyText<'_>, StoreKey)> = None;
        let mut group: Option<&mut Group> = None;
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let Some((text, body)) = decode_parts(line) else {
                self.skipped_lines += 1;
                continue;
            };
            if run.as_ref().is_none_or(|(last, _)| *last != text) {
                let Some(key) = text.parse() else {
                    self.skipped_lines += 1;
                    continue;
                };
                run = Some((text, key));
                group = None;
            }
            let key = &run.as_ref().expect("set above").1;
            if let Body::Session(record) = body {
                self.sessions.push((key.clone(), record));
                continue;
            }
            if group.is_none() {
                group = Some(self.groups.entry(key.clone()).or_default());
            }
            let group = group.as_mut().expect("set above");
            match body {
                Body::Eval(record) => group.insert_eval(record),
                Body::Prune(record) => group.insert_prune(record),
                Body::Session(_) => unreachable!("sessions index above"),
            };
        }
        Ok(())
    }

    /// The store file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lines skipped on load (malformed or future record kinds).
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Total live evaluation records across all groups.
    pub fn len(&self) -> usize {
        self.groups.values().map(|g| g.records.len()).sum()
    }

    /// Whether the store holds no evaluation records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every [`StoreKey`] holding at least one evaluation or prune
    /// record, in a deterministic order (sorted by region list, then
    /// machine and space digests) — the enumeration `locus-report` uses
    /// to walk a store file without knowing its tuning contexts.
    pub fn keys(&self) -> Vec<&StoreKey> {
        let mut keys: Vec<&StoreKey> = self.groups.keys().collect();
        keys.sort_by(|a, b| {
            a.regions
                .cmp(&b.regions)
                .then(a.machine.cmp(&b.machine))
                .then(a.space.cmp(&b.space))
        });
        keys
    }

    /// Live evaluation records of one key, in insertion order.
    pub fn evals(&self, key: &StoreKey) -> &[EvalRecord] {
        self.groups
            .get(key)
            .map(|g| g.records.as_slice())
            .unwrap_or(&[])
    }

    /// Live prune records of one key, in insertion order.
    pub fn prunes(&self, key: &StoreKey) -> &[PruneRecord] {
        self.groups
            .get(key)
            .map(|g| g.prunes.as_slice())
            .unwrap_or(&[])
    }

    /// All session records, in insertion order.
    pub fn sessions(&self) -> impl Iterator<Item = &(StoreKey, SessionRecord)> {
        self.sessions.iter()
    }

    /// Appends evaluation records under `key`, skipping point keys the
    /// group already holds. Returns how many records were written.
    ///
    /// # Errors
    ///
    /// I/O errors of the underlying append.
    pub fn append_evals(&mut self, key: &StoreKey, records: &[EvalRecord]) -> io::Result<usize> {
        self.require_writable()?;
        if records.is_empty() {
            return Ok(0);
        }
        let group = self.groups.entry(key.clone()).or_default();
        let mut lines = String::new();
        let mut appended = 0;
        for record in records {
            if group.insert_eval(record.clone()) {
                lines.push_str(&encode_eval(key, record));
                lines.push('\n');
                appended += 1;
            }
        }
        if appended > 0 {
            self.append_raw(&lines)?;
        }
        Ok(appended)
    }

    /// Appends prune records under `key`, skipping point keys the group
    /// already holds a prune for. Returns how many records were written.
    ///
    /// # Errors
    ///
    /// I/O errors of the underlying append.
    pub fn append_prunes(&mut self, key: &StoreKey, records: &[PruneRecord]) -> io::Result<usize> {
        self.require_writable()?;
        if records.is_empty() {
            return Ok(0);
        }
        let group = self.groups.entry(key.clone()).or_default();
        let mut lines = String::new();
        let mut appended = 0;
        for record in records {
            if group.insert_prune(record.clone()) {
                lines.push_str(&encode_prune(key, record));
                lines.push('\n');
                appended += 1;
            }
        }
        if appended > 0 {
            self.append_raw(&lines)?;
        }
        Ok(appended)
    }

    /// Appends one session summary under `key`, unless a record
    /// identical to it — bit for bit, under the same key — is already
    /// indexed. A pure replay re-derives its prior session's summary;
    /// [`TuningStore::nearest_session`] returns the first of equal
    /// candidates, so a second copy changes no retrieval and would only
    /// grow the log every later open decodes.
    ///
    /// # Errors
    ///
    /// I/O errors of the underlying append.
    pub fn append_session(&mut self, key: &StoreKey, record: SessionRecord) -> io::Result<()> {
        self.require_writable()?;
        let same = |(k, r): &(StoreKey, SessionRecord)| {
            r.best_ms.to_bits() == record.best_ms.to_bits()
                && r.best_point == record.best_point
                && r.region == record.region
                && r.shape == record.shape
                && r.recipe == record.recipe
                && r.search == record.search
                && k == key
        };
        if self.sessions.iter().any(same) {
            return Ok(());
        }
        let mut line = encode_session(key, &record);
        line.push('\n');
        self.append_raw(&line)?;
        self.sessions.push((key.clone(), record));
        Ok(())
    }

    fn append_raw(&mut self, text: &str) -> io::Result<()> {
        self.require_writable()?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if self.torn_tail {
            file.write_all(b"\n")?;
            self.torn_tail = false;
        }
        file.write_all(text.as_bytes())
    }

    fn require_writable(&self) -> io::Result<()> {
        if self.read_only {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!(
                    "store `{}` was opened read-only; reopen with TuningStore::open to write",
                    self.path.display()
                ),
            ));
        }
        Ok(())
    }

    /// Rewrites the on-disk log from the live in-memory index, dropping
    /// every superseded line: duplicate point keys (only the first of a
    /// group is live), records of groups the coherence check
    /// invalidated ([`TuningStore::invalidate_stale`]), and malformed
    /// or unknown-kind lines. Atomic: the new log is written to a
    /// sibling temp file and renamed over the original, so a crashed
    /// compaction leaves the old log intact.
    ///
    /// Rewriting is deterministic — groups in [`TuningStore::keys`]
    /// order, each group's evals then prunes in insertion order, then
    /// every session in insertion order — and reopening the compacted
    /// file reproduces the exact same index state.
    ///
    /// Unknown *future* record kinds are dropped with everything else
    /// this version cannot index; compact a store with a binary at
    /// least as new as the one that wrote it.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::PermissionDenied`] on a read-only store, or I/O
    /// errors of the rewrite.
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        self.require_writable()?;
        let bytes_before = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        let mut text = String::from(HEADER);
        text.push('\n');
        let mut stats = CompactStats {
            bytes_before,
            ..CompactStats::default()
        };
        for key in self.keys() {
            for record in self.evals(key) {
                text.push_str(&encode_eval(key, record));
                text.push('\n');
                stats.evals += 1;
            }
            for record in self.prunes(key) {
                text.push_str(&encode_prune(key, record));
                text.push('\n');
                stats.prunes += 1;
            }
        }
        for (key, record) in &self.sessions {
            text.push_str(&encode_session(key, record));
            text.push('\n');
            stats.sessions += 1;
        }
        let tmp = self.path.with_extension("compact-tmp");
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, &self.path)?;
        self.skipped_lines = 0;
        self.torn_tail = false;
        stats.bytes_after = text.len() as u64;
        Ok(stats)
    }

    /// Drops every group and session whose key mentions a region id
    /// present in `current` under a *different* content hash — the
    /// cross-session counterpart of the paper's Sec. II coherence check.
    /// Groups for regions absent from `current` (other source files
    /// sharing the store) stay live. Returns the number of evaluation
    /// records dropped.
    ///
    /// The on-disk log is untouched (append-only); stale lines are
    /// simply never rehydrated again because their group key can no
    /// longer match a live session's key.
    pub fn invalidate_stale(&mut self, current: &HashMap<String, u64>) -> usize {
        let stale = |regions: &[(String, u64)]| {
            regions
                .iter()
                .any(|(id, hash)| current.get(id).is_some_and(|cur| cur != hash))
        };
        let mut dropped = 0;
        self.groups.retain(|key, group| {
            if stale(&key.regions) {
                dropped += group.records.len();
                false
            } else {
                true
            }
        });
        self.sessions.retain(|(key, _)| !stale(&key.regions));
        dropped
    }

    /// The `k` best valid prior points of a group, sorted by objective
    /// (ties broken by canonical key, so the result is deterministic for
    /// a given store state) — the warm-start feed for
    /// `SearchModule::seed_observations`.
    pub fn top_k(&self, key: &StoreKey, k: usize) -> Vec<(Point, f64)> {
        let mut valid: Vec<(&EvalRecord, f64)> = self
            .evals(key)
            .iter()
            .filter_map(|r| r.objective.value().map(|v| (r, v)))
            .collect();
        valid.sort_by(|(ra, va), (rb, vb)| {
            va.total_cmp(vb)
                .then_with(|| ra.point_key.cmp(&rb.point_key))
        });
        valid
            .into_iter()
            .take(k)
            .filter_map(|(r, v)| Point::parse_canonical_key(&r.point_key).map(|p| (p, v)))
            .collect()
    }

    /// The structurally nearest session record within `max_distance` of
    /// `shape` — the retrieval behind store-backed `suggest_program`.
    /// Among equally near sessions the best (lowest `best_ms`) wins;
    /// remaining ties resolve to the earliest record, so retrieval is
    /// deterministic.
    pub fn nearest_session(
        &self,
        shape: &RegionShape,
        max_distance: u32,
    ) -> Option<(&SessionRecord, u32)> {
        self.sessions
            .iter()
            .map(|(_, s)| (s, s.shape.distance(shape)))
            .filter(|(_, d)| *d <= max_distance)
            .min_by(|(sa, da), (sb, db)| da.cmp(db).then_with(|| sa.best_ms.total_cmp(&sb.best_ms)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_search::Objective;

    fn tmp_path(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos();
        std::env::temp_dir().join(format!(
            "locus-store-{tag}-{}-{nanos}.jsonl",
            std::process::id()
        ))
    }

    fn eval(point: &str, ms: f64) -> EvalRecord {
        EvalRecord {
            point_key: point.to_string(),
            variant: 0x42,
            objective: Objective::Value(ms),
            cycles: ms * 1000.0,
            ops: 10,
            flops: 5,
            checksum: 0x99,
            search: "test".into(),
            wall_ms: 0.1,
        }
    }

    #[test]
    fn open_append_drop_reopen_round_trips() {
        let path = tmp_path("roundtrip");
        let k = StoreKey::new(vec![("matmul".into(), 0xaa)], 0x1, 0x5);
        {
            let mut store = TuningStore::open(&path).unwrap();
            assert!(store.is_empty());
            let n = store
                .append_evals(&k, &[eval("x=i1;", 2.0), eval("x=i2;", 1.0)])
                .unwrap();
            assert_eq!(n, 2);
            // Duplicate point keys are not re-written.
            assert_eq!(store.append_evals(&k, &[eval("x=i1;", 2.0)]).unwrap(), 0);
        }
        let store = TuningStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.skipped_lines(), 0);
        assert_eq!(store.evals(&k).len(), 2);
        let top = store.top_k(&k, 10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1, 1.0, "best first");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prunes_persist_and_dedupe_like_evals() {
        let path = tmp_path("prunes");
        let k = StoreKey::new(vec![("matmul".into(), 0xaa)], 0x1, 0x5);
        let prune = |point: &str| PruneRecord {
            point_key: point.to_string(),
            variant: 0x7,
            reason: "data race: write C[i][j]".into(),
            provenance: "conservative".into(),
            search: "exhaustive".into(),
        };
        {
            let mut store = TuningStore::open(&path).unwrap();
            let n = store
                .append_prunes(&k, &[prune("omp=c1;"), prune("omp=c2;")])
                .unwrap();
            assert_eq!(n, 2);
            // A point pruned once is never re-written.
            assert_eq!(store.append_prunes(&k, &[prune("omp=c1;")]).unwrap(), 0);
        }
        let store = TuningStore::open(&path).unwrap();
        assert_eq!(store.skipped_lines(), 0, "old kinds and prune both parse");
        assert_eq!(store.prunes(&k).len(), 2);
        assert_eq!(store.prunes(&k)[0].reason, "data race: write C[i][j]");
        assert!(store.evals(&k).is_empty(), "prunes are not evaluations");
        drop(store); // release the writer lock before reopening

        // An edited region invalidates its prunes along with its evals.
        let mut store = TuningStore::open(&path).unwrap();
        let current = HashMap::from([("matmul".to_string(), 0xbbu64)]);
        store.invalidate_stale(&current);
        assert!(store.prunes(&k).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_is_versioned() {
        let path = tmp_path("header");
        TuningStore::open(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("#locus-store v1\n"));

        std::fs::write(&path, "#locus-store v99\n").unwrap();
        let err = TuningStore::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalidation_is_per_region() {
        let path = tmp_path("invalidate");
        let ka = StoreKey::new(vec![("a".into(), 0xa1)], 0x1, 0x5);
        let kb = StoreKey::new(vec![("b".into(), 0xb1)], 0x1, 0x5);
        let mut store = TuningStore::open(&path).unwrap();
        store.append_evals(&ka, &[eval("x=i1;", 1.0)]).unwrap();
        store.append_evals(&kb, &[eval("x=i1;", 1.0)]).unwrap();

        // Region `a` changed, `b` did not; `c` is unknown to the source.
        let current = HashMap::from([("a".to_string(), 0xa2u64), ("b".to_string(), 0xb1u64)]);
        let dropped = store.invalidate_stale(&current);
        assert_eq!(dropped, 1);
        assert!(store.evals(&ka).is_empty(), "edited region invalidated");
        assert_eq!(store.evals(&kb).len(), 1, "sibling region stays live");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_future_lines_are_skipped_not_fatal() {
        let path = tmp_path("future");
        std::fs::write(
            &path,
            "#locus-store v1\n{\"kind\":\"telemetry\",\"regions\":\"\",\"machine\":\"0\",\"space\":\"0\"}\nnot json\n",
        )
        .unwrap();
        let store = TuningStore::open(&path).unwrap();
        assert_eq!(store.skipped_lines(), 2);
        assert!(store.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_superseded_lines_and_preserves_index_state() {
        let path = tmp_path("compact");
        let k = StoreKey::new(vec![("r".into(), 0x1)], 0x1, 0x1);
        {
            let mut store = TuningStore::open(&path).unwrap();
            store
                .append_evals(&k, &[eval("x=i1;", 1.0), eval("x=i2;", 2.0)])
                .unwrap();
        }
        // Simulate a historical interleaved writer: a duplicate of a
        // live line, garbage, and an unknown future kind.
        let live_line = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .nth(1)
            .unwrap()
            .to_string();
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.push_str(&live_line);
        raw.push_str("\nnot json\n{\"kind\":\"hologram\",\"regions\":\"\",\"machine\":\"0\",\"space\":\"0\"}\n");
        std::fs::write(&path, raw).unwrap();

        let mut store = TuningStore::open(&path).unwrap();
        assert_eq!(store.len(), 2, "duplicate line is superseded");
        assert_eq!(store.skipped_lines(), 2);
        let keys_before: Vec<StoreKey> = store.keys().into_iter().cloned().collect();
        let evals_before = store.evals(&k).to_vec();

        let stats = store.compact().unwrap();
        assert!(
            stats.bytes_after < stats.bytes_before,
            "compaction shrinks the log: {stats:?}"
        );
        assert_eq!(stats.evals, 2);
        drop(store);

        let store = TuningStore::open(&path).unwrap();
        assert_eq!(store.skipped_lines(), 0, "no dead lines survive");
        let keys_after: Vec<StoreKey> = store.keys().into_iter().cloned().collect();
        assert_eq!(keys_after, keys_before);
        assert_eq!(store.evals(&k), evals_before.as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_only_opens_refuse_appends_and_take_no_lock() {
        let path = tmp_path("readonly");
        let k = StoreKey::new(vec![("r".into(), 0x1)], 0x1, 0x1);
        let mut writer = TuningStore::open(&path).unwrap();
        writer.append_evals(&k, &[eval("x=i1;", 1.0)]).unwrap();

        // A reader coexists with the live writer...
        let mut reader = TuningStore::open_read_only(&path).unwrap();
        assert_eq!(reader.len(), 1);
        // ...but cannot write, and cannot compact.
        let err = reader.append_evals(&k, &[eval("x=i2;", 2.0)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(
            reader.compact().unwrap_err().kind(),
            io::ErrorKind::PermissionDenied
        );

        // A second *writer* is refused while the first is live.
        let err = TuningStore::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(writer);
        TuningStore::open(&path).expect("lock released on drop");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn top_k_breaks_value_ties_by_point_key() {
        let path = tmp_path("topk");
        let k = StoreKey::new(vec![("r".into(), 0x1)], 0x1, 0x1);
        let mut store = TuningStore::open(&path).unwrap();
        store
            .append_evals(
                &k,
                &[
                    eval("x=i3;", 1.0),
                    eval("x=i1;", 1.0),
                    eval("x=i2;", 0.5),
                    EvalRecord {
                        objective: Objective::Invalid,
                        ..eval("x=i9;", 0.0)
                    },
                ],
            )
            .unwrap();
        let top = store.top_k(&k, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1, 0.5);
        assert_eq!(top[1].0.canonical_key(), "x=i1;", "tie broken by key");
        std::fs::remove_file(&path).ok();
    }
}
