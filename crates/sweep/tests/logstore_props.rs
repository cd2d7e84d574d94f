//! Property tests for the segment-log result store's durability
//! contract: **any** committed record survives **any** crash or
//! corruption byte-for-byte, or is detected and skipped — never served
//! mangled.
//!
//! * a torn tail (simulated at *every* byte boundary of the file)
//!   recovers to exactly the committed prefix;
//! * any single-byte tamper is detected — what loads is a strict,
//!   byte-identical subset of what was written.
//!
//! The round trip of arbitrary record sets across reopens and eviction
//! orders, at several segment sizes, is a unit test of
//! `st_sweep::logstore`, since only unit tests can shrink the segment
//! size.

use std::sync::OnceLock;

use proptest::prelude::*;
use st_core::SimReport;
use st_sweep::logstore::LogStore;
use st_sweep::persist::report_to_json;
use st_sweep::JobSpec;

/// The 8-byte segment header of the on-disk format (documented in
/// `st_sweep::logstore`).
const SEGMENT_HEADER_BYTES: u64 = 8;

/// One real (tiny) simulation, reused as the payload template; each
/// record perturbs one field so payloads are pairwise distinct but stay
/// realistic in size and shape.
fn report_for(seed: u64) -> SimReport {
    static BASE: OnceLock<SimReport> = OnceLock::new();
    let base = BASE.get_or_init(|| {
        let spec = st_workloads::by_name("go").expect("known workload");
        JobSpec::new(spec, 500).run()
    });
    let mut r = base.clone();
    r.perf.cycles = r.perf.cycles.wrapping_add(seed);
    r
}

/// Opens the store at `dir` and reads every live report back through
/// [`LogStore::load`], ascending by fingerprint.
fn open_and_read(dir: &std::path::Path) -> (LogStore, Vec<(u64, SimReport)>) {
    let store = LogStore::open(dir);
    let loaded =
        store.fingerprints().into_iter().filter_map(|fp| Some((fp, store.load(fp)?))).collect();
    (store, loaded)
}

/// A throwaway store directory unique to this test and case.
fn scratch_dir(label: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("st-logstore-props-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Torn-tail recovery, exhaustively: a store of `N` records is cut at
/// **every** byte length between the segment header and the full file,
/// and every cut must recover exactly the records fully committed
/// before it — with the partial frame's bytes counted as torn.
#[test]
fn torn_tail_recovers_the_committed_prefix_at_every_byte_boundary() {
    let dir = scratch_dir("torn-write");
    let seg = dir.join("seg-0.log");
    let mut boundaries = vec![SEGMENT_HEADER_BYTES];
    {
        let store = LogStore::open(&dir);
        for seed in 1..=3u64 {
            store.store(seed, &report_for(seed)).expect("append");
            boundaries.push(std::fs::metadata(&seg).expect("segment exists").len());
        }
    }
    let pristine = std::fs::read(&seg).expect("read segment");
    assert_eq!(*boundaries.last().expect("nonempty") as usize, pristine.len());

    let cut_dir = scratch_dir("torn-cut");
    std::fs::create_dir_all(&cut_dir).expect("mkdir");
    let cut_seg = cut_dir.join("seg-0.log");
    for cut in SEGMENT_HEADER_BYTES as usize..=pristine.len() {
        std::fs::write(&cut_seg, &pristine[..cut]).expect("write cut copy");
        let (store, loaded) = open_and_read(&cut_dir);
        // Records whose frame is entirely below the cut survive.
        let committed = boundaries.iter().skip(1).filter(|&&end| end as usize <= cut).count();
        let fps: Vec<u64> = loaded.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(
            fps,
            (1..=committed as u64).collect::<Vec<u64>>(),
            "cut at byte {cut}: expected exactly the committed prefix"
        );
        for (fp, report) in &loaded {
            assert_eq!(
                report_to_json(report),
                report_to_json(&report_for(*fp)),
                "cut at byte {cut}: record {fp} must be byte-identical"
            );
        }
        // The partial frame is accounted as torn and physically gone.
        let last_boundary =
            *boundaries.iter().filter(|&&b| b as usize <= cut).max().expect("header boundary");
        assert_eq!(store.load_stats().torn_tail_bytes, cut as u64 - last_boundary);
        drop(store);
        assert_eq!(
            std::fs::metadata(&cut_seg).expect("segment kept").len(),
            last_boundary,
            "cut at byte {cut}: torn tail must be physically truncated"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cut_dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any single-byte change anywhere in a segment file is detected:
    /// the reload serves a strict, byte-identical subset of what was
    /// written and reports the damage in its counters.
    #[test]
    fn any_single_byte_tamper_is_detected(
        records in 1u64..=4,
        tamper_pos in any::<u64>(),
        tamper_xor in 1u8..=255,
    ) {
        let dir = scratch_dir(&format!("tamper-{records}"));
        {
            let store = LogStore::open(&dir);
            for seed in 1..=records {
                store.store(seed, &report_for(seed)).expect("append");
            }
        }
        let seg = dir.join("seg-0.log");
        let mut buf = std::fs::read(&seg).expect("read segment");
        let pos = (tamper_pos % buf.len() as u64) as usize;
        buf[pos] ^= tamper_xor;
        std::fs::write(&seg, &buf).expect("write tampered segment");

        let (store, loaded) = open_and_read(&dir);
        prop_assert!(
            (loaded.len() as u64) < records,
            "a tampered byte at {pos} must lose at least one record"
        );
        for (fp, report) in &loaded {
            prop_assert_eq!(
                report_to_json(report),
                report_to_json(&report_for(*fp)),
                "surviving record {} must be byte-identical",
                fp
            );
        }
        let stats = store.load_stats();
        prop_assert!(
            stats.skipped_corrupt + stats.torn_tail_bytes > 0,
            "damage must be visible in the load counters"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
