//! The persistent tuning store's cross-session contract, round-tripped
//! through the serialized store file:
//!
//! * a store written by one session, dropped, and reopened by a fresh
//!   process-equivalent session warm-starts to the identical best point
//!   with **zero** re-measurements;
//! * editing one region between sessions invalidates exactly that
//!   region's store entries — sibling regions' entries stay live and
//!   keep answering proposals from disk — mirroring what
//!   [`check_coherence`] reports about the edit.
//!
//! [`check_coherence`]: locus::system::check_coherence

use std::path::PathBuf;

use locus::lang::LocusProgram;
use locus::machine::{Machine, MachineConfig};
use locus::search::ExhaustiveSearch;
use locus::search::Objective;
use locus::srcir::ast::Program;
use locus::store::{EvalRecord, StoreKey, TuningStore};
use locus::system::{
    check_coherence, region_hashes, LocusSystem, StoreHandle, TuneReport, TuneRequest, TuneResult,
};

fn tiny_system() -> LocusSystem {
    LocusSystem::new(Machine::new(MachineConfig::scaled_tiny().with_cores(1)))
}

/// One store-backed exhaustive session on [`tiny_system`]: budget 16
/// on two threads.
fn session(
    source: &Program,
    locus: &LocusProgram,
    store: StoreHandle<'_>,
) -> (TuneResult, TuneReport) {
    let request = TuneRequest {
        store: Some(store),
        ..TuneRequest::new(16, 2)
    };
    let mut search = ExhaustiveSearch::default();
    tiny_system()
        .tune_parallel(source, locus, &mut search, request)
        .unwrap()
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "locus-store-persistence-{}-{tag}.jsonl",
        std::process::id()
    ))
}

/// Two independently tagged regions in one translation unit. The
/// `axpy` scale constant is the part the "edit" changes.
fn two_region_source(axpy_scale: &str) -> locus::srcir::ast::Program {
    locus::srcir::parse_program(&format!(
        r#"
        double C[16][16];
        double A[16][16];
        double B[16][16];
        double X[64];
        void kernel() {{
            #pragma @Locus loop=mm
            for (int i = 0; i < 16; i++)
                for (int j = 0; j < 16; j++)
                    for (int k = 0; k < 16; k++)
                        C[i][j] = C[i][j] + A[i][k] * B[k][j];
            #pragma @Locus loop=axpy
            for (int i = 0; i < 64; i++)
                X[i] = X[i] * {axpy_scale};
        }}
        "#
    ))
    .expect("two-region source parses")
}

fn mm_program() -> locus::lang::LocusProgram {
    locus::lang::parse(
        r#"CodeReg mm {
            t = poweroftwo(2..8);
            Pips.Tiling(loop="0", factor=[t, t, t]);
        }"#,
    )
    .unwrap()
}

fn axpy_program() -> locus::lang::LocusProgram {
    locus::lang::parse(
        r#"CodeReg axpy {
            u = poweroftwo(2..8);
            RoseLocus.Unroll(loop=innermost, factor=u);
        }"#,
    )
    .unwrap()
}

/// Write, drop, reopen: the warm session answers every proposal from
/// disk and lands on the bit-identical best point. This is the store
/// round-trip the CI gate names explicitly.
#[test]
fn reopened_store_warm_starts_to_identical_best() {
    let source = two_region_source("1.5");
    let locus = mm_program();
    let path = tmp_path("reopen");
    std::fs::remove_file(&path).ok();

    let (cold, cold_report) = {
        let mut store = TuningStore::open(&path).unwrap();
        session(&source, &locus, StoreHandle::Single(&mut store))
        // The store is dropped here; everything lives in the file now.
    };
    assert!(cold_report.evaluations() > 0, "cold session measures");
    assert_eq!(cold_report.store_hits(), 0);
    assert_eq!(cold_report.appended, cold_report.evaluations());

    let (warm, warm_report) = {
        let mut store = TuningStore::open(&path).unwrap();
        session(&source, &locus, StoreHandle::Single(&mut store))
    };
    assert_eq!(
        warm_report.evaluations(),
        0,
        "warm session re-measures nothing"
    );
    assert_eq!(
        warm_report.store_hits(),
        cold_report.evaluations() + cold_report.memo_hits()
    );
    assert_eq!(warm_report.rehydrated, cold_report.appended);

    let (cold_point, _, cold_m) = cold.best.as_ref().expect("cold best");
    let (warm_point, _, warm_m) = warm.best.as_ref().expect("warm best");
    assert_eq!(cold_point.canonical_key(), warm_point.canonical_key());
    assert_eq!(cold_m.time_ms.to_bits(), warm_m.time_ms.to_bits());
    std::fs::remove_file(&path).ok();
}

/// A pruning-aware session against a store that already holds every
/// point of its space builds and simulates nothing: the legality oracle
/// answers from the rehydrated records and every proposal is a store
/// hit. The one build allowed is finalize's, for the store-resolved
/// winner.
#[test]
fn store_replay_of_a_covered_space_builds_nothing() {
    use locus::search::{PortfolioSearch, SearchModule, TraceSampler};

    let source = two_region_source("1.5");
    // Nine points, each its own variant: every point gets a record.
    let locus = locus::lang::parse(
        r#"CodeReg mm {
            ti = poweroftwo(2..8);
            tj = poweroftwo(2..8);
            Pips.Tiling(loop="0", factor=[ti, tj, 4]);
        }"#,
    )
    .unwrap();
    let path = tmp_path("covered-replay");
    std::fs::remove_file(&path).ok();
    let (cold, cold_report) = {
        let mut store = TuningStore::open(&path).unwrap();
        session(&source, &locus, StoreHandle::Single(&mut store))
    };
    assert_eq!(cold.space_size, 9);
    assert_eq!(cold_report.proposed, 9, "the cold sweep covers the space");
    assert_eq!(cold_report.memo_hits(), 0, "no two points share a variant");

    let modules: [(&str, Box<dyn SearchModule>); 2] = [
        ("sampler", Box::new(TraceSampler::new(5))),
        ("portfolio", Box::new(PortfolioSearch::new(5))),
    ];
    for (name, mut search) in modules {
        let mut store = TuningStore::open(&path).unwrap();
        let request = TuneRequest {
            store: Some(StoreHandle::Single(&mut store)),
            ..TuneRequest::new(16, 2)
        };
        let (_, report) = tiny_system()
            .tune_parallel(&source, &locus, search.as_mut(), request)
            .unwrap();
        assert!(report.proposed > 0, "{name}: nothing proposed");
        assert_eq!(report.evaluations(), 0, "{name}: nothing simulated");
        assert_eq!(report.store_hits(), report.proposed, "{name}: {report:?}");
        assert!(report.builds <= 1, "{name}: {} builds", report.builds);
    }
    std::fs::remove_file(&path).ok();
}

/// A region edited between sessions invalidates exactly its own store
/// entries; the sibling region's entries stay live, all through one
/// serialized store file. `check_coherence` flags the same edit.
#[test]
fn edited_region_invalidates_only_its_own_entries() {
    let original = two_region_source("1.5");
    let edited = two_region_source("2.5");
    let path = tmp_path("coherence");
    std::fs::remove_file(&path).ok();

    // The coherence check agrees on what changed: `axpy` drifted, `mm`
    // did not.
    let stored_hashes = region_hashes(&original);
    let warnings = check_coherence(&edited, &stored_hashes);
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].contains("axpy"), "{warnings:?}");

    // Cold sessions populate the store for both regions.
    let (mm_cold, axpy_cold) = {
        let mut store = TuningStore::open(&path).unwrap();
        let (_, mm_cold) = session(&original, &mm_program(), StoreHandle::Single(&mut store));
        let (_, axpy_cold) = session(&original, &axpy_program(), StoreHandle::Single(&mut store));
        (mm_cold, axpy_cold)
    };
    assert!(mm_cold.evaluations() > 0);
    assert!(axpy_cold.evaluations() > 0);

    // Session over the *unchanged* sibling after the edit: its entries
    // are live, so nothing is re-measured; the edited region's stale
    // records are the ones dropped by the coherence pass.
    let mm_warm = {
        let mut store = TuningStore::open(&path).unwrap();
        let (_, report) = session(&edited, &mm_program(), StoreHandle::Single(&mut store));
        report
    };
    assert_eq!(mm_warm.evaluations(), 0, "sibling region replays from disk");
    assert_eq!(mm_warm.rehydrated, mm_cold.appended);
    assert_eq!(
        mm_warm.invalidated, axpy_cold.appended,
        "exactly the edited region's records are invalidated"
    );

    // Session over the *edited* region: its prior entries must not be
    // replayed — everything is re-measured and re-persisted.
    let axpy_warm = {
        let mut store = TuningStore::open(&path).unwrap();
        let (_, report) = session(&edited, &axpy_program(), StoreHandle::Single(&mut store));
        report
    };
    assert_eq!(
        axpy_warm.store_hits(),
        0,
        "stale entries must never be replayed"
    );
    assert_eq!(axpy_warm.rehydrated, 0);
    assert!(axpy_warm.evaluations() > 0);
    assert_eq!(axpy_warm.invalidated, axpy_cold.appended);
    std::fs::remove_file(&path).ok();
}

/// Compaction round-trip through real tuning sessions: a store that
/// accumulated superseded records (an edited region's invalidated
/// entries) compacts to a smaller file whose index state is identical —
/// and a warm session over the compacted store still re-measures
/// nothing.
#[test]
fn compaction_round_trips_a_real_session_store() {
    let original = two_region_source("1.5");
    let edited = two_region_source("2.5");
    let path = tmp_path("compact");
    std::fs::remove_file(&path).ok();

    // Populate both regions, then invalidate `axpy`'s records by
    // tuning the edited source: the log now carries dead weight, and
    // the live handle's index has already dropped the stale group.
    // Compacting through that handle rewrites only live state.
    let (stats, keys_before, len_before) = {
        let mut store = TuningStore::open(&path).unwrap();
        session(&original, &mm_program(), StoreHandle::Single(&mut store));
        session(&original, &axpy_program(), StoreHandle::Single(&mut store));
        session(&edited, &axpy_program(), StoreHandle::Single(&mut store));
        let stats = store.compact().unwrap();
        let keys: Vec<_> = store.keys().into_iter().cloned().collect();
        let len = store.len();
        (stats, keys, len)
    };
    assert!(
        stats.bytes_after < stats.bytes_before,
        "compaction must shrink a store with invalidated records: {stats:?}"
    );

    // Reopened post-compaction store: identical index state.
    let mut store = TuningStore::open(&path).unwrap();
    let keys_after: Vec<_> = store.keys().into_iter().cloned().collect();
    assert_eq!(keys_after, keys_before);
    assert_eq!(store.len(), len_before);

    // And it still warms a session end to end.
    let (_, report) = session(&edited, &mm_program(), StoreHandle::Single(&mut store));
    assert_eq!(report.evaluations(), 0, "compacted store still replays");
    drop(store);
    std::fs::remove_file(&path).ok();
}

/// The advisory writer lock: a second concurrent writer open is refused
/// with `WouldBlock`, a read-only open coexists with the writer, and
/// the lock releases on drop.
#[test]
fn concurrent_store_opens_are_arbitrated_by_the_writer_lock() {
    let path = tmp_path("lock");
    std::fs::remove_file(&path).ok();

    let writer = TuningStore::open(&path).unwrap();
    let refused = TuningStore::open(&path).unwrap_err();
    assert_eq!(refused.kind(), std::io::ErrorKind::WouldBlock);
    assert!(
        refused.to_string().contains("locked by live process"),
        "{refused}"
    );

    // Readers never take the lock.
    let reader = TuningStore::open_read_only(&path).unwrap();
    assert!(reader.is_empty());
    drop(reader);

    drop(writer);
    let relocked = TuningStore::open(&path).unwrap();
    drop(relocked);
    std::fs::remove_file(&path).ok();
}

/// The daemon's sharded store and the single-file store answer the same
/// tuning session identically: a cold sharded session lands on the
/// bit-identical best point, and its own warm replay re-measures
/// nothing.
#[test]
fn sharded_store_sessions_match_single_file_sessions() {
    use locus::store::ShardedStore;

    let source = two_region_source("1.5");
    let locus = mm_program();
    let path = tmp_path("sharded-single");
    let dir = std::env::temp_dir().join(format!(
        "locus-store-persistence-{}-sharded.d",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();

    let (single, _) = {
        let mut store = TuningStore::open(&path).unwrap();
        session(&source, &locus, StoreHandle::Single(&mut store))
    };

    let sharded_store = ShardedStore::open(&dir, 4).unwrap();
    let (sharded, cold_report) = session(&source, &locus, StoreHandle::Sharded(&sharded_store));
    assert!(cold_report.evaluations() > 0);

    let (sp, _, sm) = single.best.as_ref().expect("single best");
    let (hp, _, hm) = sharded.best.as_ref().expect("sharded best");
    assert_eq!(sp.canonical_key(), hp.canonical_key());
    assert_eq!(sm.time_ms.to_bits(), hm.time_ms.to_bits());

    // Warm replay against the sharded store re-measures nothing.
    let (_, warm_report) = session(&source, &locus, StoreHandle::Sharded(&sharded_store));
    assert_eq!(warm_report.evaluations(), 0);
    assert_eq!(warm_report.rehydrated, cold_report.appended);

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every part of a store's index in a stable order: what decoding a
/// pinned log must keep reproducing.
fn dump_index(store: &TuningStore) -> String {
    let mut out = format!(
        "skipped_lines {}\nevals {}\n",
        store.skipped_lines(),
        store.len()
    );
    for key in store.keys() {
        out.push_str(&format!("key {key:?}\n"));
        for record in store.evals(key) {
            out.push_str(&format!("  eval {record:?}\n"));
        }
        for record in store.prunes(key) {
            out.push_str(&format!("  prune {record:?}\n"));
        }
    }
    for (key, record) in store.sessions() {
        out.push_str(&format!("session {key:?} {record:?}\n"));
    }
    out
}

/// `tests/fixtures/store_v1.jsonl` holds lines an older encoder wrote
/// plus hand-edited ones: `\u`, quote and backslash escapes, a prune
/// without `provenance`, an unknown kind, garbage, duplicate keys in one
/// line, a duplicate point, spaces around separators, text after `}`,
/// a malformed group key and a line cut short. Its index is pinned in
/// `store_v1.index.txt` (`LOCUS_BLESS=1` rewrites it), so a decoder
/// change cannot move what an existing log means.
#[test]
fn pinned_log_decodes_to_its_pinned_index() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let store = TuningStore::open_read_only(dir.join("store_v1.jsonl")).unwrap();
    let dump = dump_index(&store);
    let golden = dir.join("store_v1.index.txt");
    if std::env::var("LOCUS_BLESS").is_ok() {
        std::fs::write(&golden, &dump).unwrap();
    }
    let want = std::fs::read_to_string(&golden).expect("fixture exists (LOCUS_BLESS=1 to create)");
    assert_eq!(dump, want, "the pinned log decodes differently");
}

/// A torn write: the log is cut at every byte offset of its last
/// appended batch. Each cut reopens to exactly the records whose lines
/// are whole, and the next append starts a fresh line, so the appended
/// record survives a reopen and never merges with the torn one.
#[test]
fn appends_after_a_torn_tail_start_a_fresh_line() {
    let path = tmp_path("torn-tail");
    std::fs::remove_file(&path).ok();
    let key = StoreKey::new(vec![("mm".into(), 0xa7c2_3818)], 0x1f6c, 0x2445);
    let record = |i: u64| EvalRecord {
        point_key: format!("tileI=i{i};tileJ=i4;"),
        variant: 0x5768_d30c ^ i,
        objective: Objective::Value(0.25 + i as f64),
        cycles: 1000.0 * i as f64,
        ops: 36470,
        flops: 2048,
        checksum: 0x286c_bc3c,
        search: "exhaustive".into(),
        wall_ms: 0.125,
    };
    let all: Vec<EvalRecord> = (0..4).map(record).collect();
    let batch_start = {
        let mut store = TuningStore::open(&path).unwrap();
        store.append_evals(&key, &all[..2]).unwrap();
        let start = std::fs::metadata(&path).unwrap().len() as usize;
        store.append_evals(&key, &all[2..]).unwrap();
        start
    };
    let full = std::fs::read(&path).unwrap();
    // Where each record's line ends; the first newline ends the header.
    let line_ends: Vec<usize> = (0..full.len())
        .filter(|&i| full[i] == b'\n')
        .skip(1)
        .collect();
    let fresh = record(99);
    for cut in batch_start..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let whole = line_ends.iter().filter(|&&end| end <= cut).count();
        let mut store = TuningStore::open(&path).unwrap();
        assert_eq!(store.evals(&key), &all[..whole], "cut at byte {cut}");
        assert!(store.skipped_lines() <= 1, "cut at byte {cut}");
        store
            .append_evals(&key, std::slice::from_ref(&fresh))
            .unwrap();
        drop(store);

        let store = TuningStore::open(&path).unwrap();
        let mut want = all[..whole].to_vec();
        want.push(fresh.clone());
        assert_eq!(
            store.evals(&key),
            want.as_slice(),
            "append after a cut at byte {cut}"
        );
        assert_eq!(store.len(), want.len(), "no record of mixed lines");
        assert!(store.prunes(&key).is_empty() && store.sessions().next().is_none());
        assert!(store.skipped_lines() <= 1, "cut at byte {cut}");
    }
    std::fs::remove_file(&path).ok();
}

/// Total bytes of the files directly under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

/// A pure replay re-derives its prior session's summary record bit for
/// bit; the store skips the identical copy, so replays add no bytes to
/// the log — single-file or sharded — and session retrieval answers
/// exactly as before.
#[test]
fn pure_replays_add_no_bytes_and_keep_retrieval() {
    use locus::store::ShardedStore;

    let source = two_region_source("1.5");
    let locus = mm_program();
    let path = tmp_path("replay-bytes");
    let dir = std::env::temp_dir().join(format!(
        "locus-store-persistence-{}-replay-bytes.d",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();

    {
        let mut store = TuningStore::open(&path).unwrap();
        session(&source, &locus, StoreHandle::Single(&mut store));
    }
    let retrieve = || {
        let store = TuningStore::open_read_only(&path).unwrap();
        let (_, first) = store
            .sessions()
            .next()
            .expect("the cold session left a summary");
        let shape = first.shape;
        let sessions = store.sessions().count();
        let nearest = store
            .nearest_session(&shape, u32::MAX)
            .map(|(s, d)| (s.clone(), d));
        (shape, sessions, nearest)
    };
    let bytes = std::fs::metadata(&path).unwrap().len();
    let (shape, sessions, nearest) = retrieve();
    for _ in 0..2 {
        let mut store = TuningStore::open(&path).unwrap();
        let (_, report) = session(&source, &locus, StoreHandle::Single(&mut store));
        assert_eq!(report.evaluations(), 0, "a pure replay");
    }
    assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
    assert_eq!(retrieve(), (shape, sessions, nearest.clone()));

    let sharded = ShardedStore::open(&dir, 4).unwrap();
    session(&source, &locus, StoreHandle::Sharded(&sharded));
    let bytes = dir_bytes(&dir);
    let want = sharded.nearest_session(&shape, u32::MAX);
    assert_eq!(want, nearest, "sharded and single-file retrieval agree");
    for _ in 0..2 {
        let (_, report) = session(&source, &locus, StoreHandle::Sharded(&sharded));
        assert_eq!(report.evaluations(), 0, "a pure replay");
    }
    assert_eq!(dir_bytes(&dir), bytes);
    assert_eq!(sharded.nearest_session(&shape, u32::MAX), want);

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}
