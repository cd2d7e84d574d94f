//! The append-only segment-log result store: `<out>/.store/seg-<n>.log`.
//!
//! Every `st` command that keeps results — `repro`, `run`, `serve` —
//! writes them here. [`LogStore`] keeps a handful of append-only segment
//! files and an in-memory fingerprint → (segment, offset) index rebuilt
//! by **one sequential read** per segment at startup, which verifies
//! every frame but decodes none. [`LogStore::load`] reads one report
//! back, from its frame alone, when it is asked for; `st cache stats`
//! and `GET /status` answer from the index instead of rescanning the
//! disk.
//!
//! ## On-disk format
//!
//! Each segment starts with an 8-byte header (`b"STSG"` magic + u32 LE
//! format version), followed by frames:
//!
//! ```text
//! [u32 payload_len LE][u8 kind][u64 fingerprint LE][u64 checksum LE][payload]
//! ```
//!
//! `kind` is 0 for a put (payload = the bit-exact [`report_to_json`]
//! line) or 1 for a tombstone (empty payload, records an eviction).
//! `checksum` is the same FNV-1a 64 the shard files use, folded over
//! `kind ‖ fingerprint ‖ payload` — every byte of a frame is covered, so
//! any single-byte tamper is detected at open. Later frames supersede
//! earlier ones for the same fingerprint (last-wins), which is what
//! makes blind appends safe.
//!
//! Several handles may append to one directory at once (concurrent
//! `st run --shard i/N` workers share one `--out` store). Every segment
//! is written in append mode, so two handles sharing a tail segment
//! interleave whole frames instead of overwriting each other, and a
//! handle that finds its next segment id already created by another
//! writer takes the next free one. Recovery and compaction still assume no other process is
//! writing: a torn-tail truncation at open could cut a frame another
//! process is appending at that instant.
//!
//! ## Recovery posture
//!
//! Opening and reading never panic and never trust damaged bytes:
//!
//! * a **torn tail** (crash mid-append) in the newest segment is
//!   detected, physically truncated back to the last committed frame,
//!   and counted in [`LoadStats::torn_tail_bytes`];
//! * a damaged frame in a **sealed** segment is skipped (re-syncing at
//!   the framed length when possible, abandoning the segment's remainder
//!   when not) and counted in [`LoadStats::skipped_corrupt`];
//! * a segment with a damaged header is ignored wholesale (and swept up
//!   by the next compaction);
//! * a frame that no longer reads, verifies or decodes when
//!   [`LogStore::load`] asks for it is not served: the caller simulates
//!   the point again and its new frame supersedes the old one.
//!
//! ## Compaction and eviction
//!
//! [`LogStore::compact`] rewrites live frames (in stable original
//! order) into a fresh segment via temp-file + rename, then deletes the
//! old segments — a crash at any point leaves either the old segments
//! or a superset, never a loss. [`LogStore::evict_to_budget`] appends
//! tombstones for least-recently-used entries until the store's
//! *compacted* size fits the byte budget, then compacts; entries pinned
//! by an in-flight submission ([`LogStore::pin`]) are never victims.

use std::collections::{hash_map, BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use st_core::SimReport;

use crate::job::Fnv1a;
use crate::persist::{report_from_json, report_to_json};

/// Magic bytes opening every segment file.
const MAGIC: [u8; 4] = *b"STSG";
/// Segment format version; bump when the frame encoding changes.
const FORMAT_VERSION: u32 = 1;
/// Bytes of `MAGIC` + version at the start of each segment.
const SEGMENT_HEADER_BYTES: u64 = 8;
/// Bytes of frame header before the payload: len + kind + fp + checksum.
const FRAME_HEADER_BYTES: u64 = 21;
/// Frame kind: a live report payload.
const KIND_PUT: u8 = 0;
/// Frame kind: an eviction tombstone (empty payload).
const KIND_TOMBSTONE: u8 = 1;

/// Appends roll to a new segment once the active one reaches this size
/// (existing segments are never rewritten in place).
const SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// A store's segment size, for unit tests that roll segments early.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub struct LogStoreConfig {
    /// Appends roll to a new segment once the active one reaches this
    /// size.
    pub segment_bytes: u64,
}

/// What one startup scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Live entries indexed after last-wins/tombstone resolution.
    pub entries: u64,
    /// Frames superseded by a later put or tombstone for the same
    /// fingerprint (dead weight a compaction would reclaim).
    pub superseded: u64,
    /// Corrupt frames or segments skipped (checksum mismatch, mangled
    /// framing, unreadable or version-skewed segment) — detected,
    /// counted, never trusted.
    pub skipped_corrupt: u64,
    /// Bytes physically truncated from a torn tail in the newest
    /// segment (a crash mid-append; recovery keeps the committed
    /// prefix exactly).
    pub torn_tail_bytes: u64,
}

/// A point-in-time accounting of a result store, for `st cache stats`
/// and the service's `GET /status`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreStats {
    /// Live (indexed) entries.
    pub entries: u64,
    /// Bytes of live frames (payloads plus their frame headers).
    pub live_bytes: u64,
    /// Bytes a compaction would reclaim (superseded frames, tombstones).
    pub dead_bytes: u64,
    /// Total bytes of all segment files on disk.
    pub file_bytes: u64,
    /// Number of segment files.
    pub segments: u64,
    /// Corrupt entries skipped at load.
    pub skipped_corrupt: u64,
    /// Torn-tail bytes truncated at load.
    pub torn_tail_bytes: u64,
    /// Entries evicted over this store handle's lifetime.
    pub evictions: u64,
    /// Compactions run over this store handle's lifetime.
    pub compactions: u64,
}

impl StoreStats {
    /// Fraction of on-disk record bytes that are live (1.0 for a fully
    /// compacted store; low values mean compaction is worth running).
    #[must_use]
    pub fn live_ratio(&self) -> f64 {
        let total = self.live_bytes + self.dead_bytes;
        if total == 0 {
            1.0
        } else {
            self.live_bytes as f64 / total as f64
        }
    }
}

/// What one [`LogStore::evict_to_budget`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictStats {
    /// Entries tombstoned out of the index.
    pub evicted: u64,
    /// Frame bytes those entries occupied.
    pub evicted_bytes: u64,
    /// Whether a compaction ran afterwards.
    pub compacted: bool,
    /// Total segment-file bytes after the call.
    pub file_bytes: u64,
}

/// What one [`LogStore::compact`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Live records carried into the new segment.
    pub live_records: u64,
    /// Segment-file bytes before compaction.
    pub before_bytes: u64,
    /// Segment-file bytes after compaction.
    pub after_bytes: u64,
    /// Records dropped because their bytes no longer verified when
    /// re-read (rot since the startup scan); never silently copied. A
    /// segment that cannot be read at all fails the compaction instead.
    pub dropped_corrupt: u64,
}

/// One live index entry: where the newest frame for a fingerprint lives.
#[derive(Debug, Clone, Copy)]
struct Entry {
    seg: u64,
    offset: u64,
    len: u32,
    /// Logical LRU clock stamp; higher = more recently written/touched.
    stamp: u64,
}

/// The open file appends currently go to.
#[derive(Debug)]
struct ActiveSeg {
    id: u64,
    file: File,
    bytes: u64,
}

#[derive(Debug, Default)]
struct Inner {
    index: HashMap<u64, Entry>,
    /// segment id → file bytes, for every segment file present on disk
    /// (including corrupt ones, so compaction can sweep them up).
    segs: BTreeMap<u64, u64>,
    /// The newest segment, if its scan ended cleanly (safe to append).
    appendable: Option<u64>,
    active: Option<ActiveSeg>,
    /// segment id → the handle [`LogStore::load`] reads it through,
    /// opened by the first read from the segment and dropped by the
    /// compaction that deletes it.
    readers: HashMap<u64, File>,
    clock: u64,
    /// fingerprint → pin refcount; pinned entries are never evicted.
    pinned: HashMap<u64, u64>,
    evictions: u64,
    compactions: u64,
    load: LoadStats,
}

/// An append-only segment-log store of `fingerprint → SimReport`
/// records. See the module docs for format and recovery posture.
#[derive(Debug)]
pub struct LogStore {
    dir: PathBuf,
    /// [`SEGMENT_BYTES`], except in unit tests.
    segment_bytes: u64,
    inner: Mutex<Inner>,
}

/// Keeps a set of fingerprints safe from eviction while an in-flight
/// submission streams them; unpins on drop.
#[derive(Debug)]
pub struct PinGuard<'a> {
    store: &'a LogStore,
    fps: Vec<u64>,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.store.inner.lock().expect("logstore lock");
        for fp in &self.fps {
            if let Some(n) = inner.pinned.get_mut(fp) {
                *n -= 1;
                if *n == 0 {
                    inner.pinned.remove(fp);
                }
            }
        }
    }
}

impl LogStore {
    /// Where the result store of an output directory lives:
    /// `<out>/.store`.
    #[must_use]
    pub fn dir_under(out_dir: &Path) -> PathBuf {
        out_dir.join(".store")
    }

    /// Opens (or creates) the store at `dir`, rebuilding the index with
    /// one sequential read per segment. Damage is recovered per the
    /// module docs — this never fails and never panics on bad bytes.
    #[must_use]
    pub fn open(dir: impl Into<PathBuf>) -> LogStore {
        LogStore::open_impl(dir.into(), SEGMENT_BYTES)
    }

    /// [`LogStore::open`] with another segment size.
    #[cfg(test)]
    #[must_use]
    pub fn open_with_config(dir: impl Into<PathBuf>, config: LogStoreConfig) -> LogStore {
        LogStore::open_impl(dir.into(), config.segment_bytes)
    }

    fn open_impl(dir: PathBuf, segment_bytes: u64) -> LogStore {
        let mut inner = Inner::default();
        let ids = list_segments(&dir);
        let last = ids.last().copied();
        for &id in &ids {
            scan_segment(&dir, id, Some(id) == last, &mut inner);
        }
        inner.load.entries = inner.index.len() as u64;
        LogStore { dir, segment_bytes, inner: Mutex::new(inner) }
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the startup scan found.
    #[must_use]
    pub fn load_stats(&self) -> LoadStats {
        self.inner.lock().expect("logstore lock").load
    }

    /// Appends one report frame (last-wins for the fingerprint).
    pub fn store(&self, fingerprint: u64, report: &SimReport) -> std::io::Result<()> {
        self.store_payload(fingerprint, report_to_json(report).as_bytes())
    }

    /// Appends one put frame carrying `payload`: a report's JSON line
    /// from [`LogStore::store`], or bytes that do not decode in tests.
    pub(crate) fn store_payload(&self, fingerprint: u64, payload: &[u8]) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("logstore lock");
        append_locked(&self.dir, self.segment_bytes, &mut inner, KIND_PUT, fingerprint, payload)
    }

    /// Reads the report stored under `fingerprint`. Only its frame is
    /// read, with the store lock held, so no compaction or eviction can
    /// move the frame mid-read; its checksum and fingerprint are
    /// verified again before the payload is decoded. `None` if the
    /// fingerprint is not live or its frame does not read, verify or
    /// decode: such a report is never served. Each segment is opened
    /// once, by its first read, and read through that handle until a
    /// compaction deletes it.
    #[must_use]
    pub fn load(&self, fingerprint: u64) -> Option<SimReport> {
        let frame = {
            let mut guard = self.inner.lock().expect("logstore lock");
            let inner = &mut *guard;
            let e = *inner.index.get(&fingerprint)?;
            #[cfg(test)]
            tests::pause_before_read(fingerprint);
            let file = match inner.readers.entry(e.seg) {
                hash_map::Entry::Occupied(held) => held.into_mut(),
                hash_map::Entry::Vacant(slot) => {
                    slot.insert(File::open(segment_path(&self.dir, e.seg)).ok()?)
                }
            };
            let mut frame = vec![0; FRAME_HEADER_BYTES as usize + e.len as usize];
            file.seek(SeekFrom::Start(e.offset)).ok()?;
            file.read_exact(&mut frame).ok()?;
            frame
        };
        match parse_frame(&frame, 0) {
            FrameOutcome::Record { kind: KIND_PUT, fp, payload, .. } if fp == fingerprint => {
                report_from_json(std::str::from_utf8(payload).ok()?).ok()
            }
            _ => None,
        }
    }

    /// Every live fingerprint, ascending.
    #[must_use]
    pub fn fingerprints(&self) -> Vec<u64> {
        let mut fps: Vec<u64> =
            self.inner.lock().expect("logstore lock").index.keys().copied().collect();
        fps.sort_unstable();
        fps
    }

    /// Marks fingerprints as recently used, so steady working sets are
    /// not eviction victims. Unknown fingerprints are ignored.
    pub fn touch_all(&self, fingerprints: &[u64]) {
        let mut guard = self.inner.lock().expect("logstore lock");
        let inner = &mut *guard;
        for fp in fingerprints {
            if let Some(e) = inner.index.get_mut(fp) {
                e.stamp = inner.clock;
                inner.clock += 1;
            }
        }
    }

    /// Pins fingerprints against eviction until the guard drops.
    #[must_use]
    pub fn pin(&self, fingerprints: &[u64]) -> PinGuard<'_> {
        let mut inner = self.inner.lock().expect("logstore lock");
        for fp in fingerprints {
            *inner.pinned.entry(*fp).or_insert(0) += 1;
        }
        drop(inner);
        PinGuard { store: self, fps: fingerprints.to_vec() }
    }

    /// Current accounting.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("logstore lock");
        let live: u64 = inner.index.values().map(|e| FRAME_HEADER_BYTES + u64::from(e.len)).sum();
        let file: u64 = inner.segs.values().sum();
        let headers = SEGMENT_HEADER_BYTES * inner.segs.len() as u64;
        StoreStats {
            entries: inner.index.len() as u64,
            live_bytes: live,
            dead_bytes: file.saturating_sub(live + headers),
            file_bytes: file,
            segments: inner.segs.len() as u64,
            skipped_corrupt: inner.load.skipped_corrupt,
            torn_tail_bytes: inner.load.torn_tail_bytes,
            evictions: inner.evictions,
            compactions: inner.compactions,
        }
    }

    /// Rewrites every live frame into one fresh segment (temp file +
    /// rename, crash-safe) and deletes the old segments.
    pub fn compact(&self) -> std::io::Result<CompactStats> {
        let mut inner = self.inner.lock().expect("logstore lock");
        compact_locked(&self.dir, &mut inner)
    }

    /// Evicts least-recently-used unpinned entries until the compacted
    /// store fits in `max_bytes`, then compacts. Pinned entries are
    /// never victims, so the result may still exceed the budget while
    /// submissions are in flight (check [`EvictStats::file_bytes`]).
    pub fn evict_to_budget(&self, max_bytes: u64) -> std::io::Result<EvictStats> {
        let mut guard = self.inner.lock().expect("logstore lock");
        let inner = &mut *guard;
        let mut projected: u64 = SEGMENT_HEADER_BYTES
            + inner.index.values().map(|e| FRAME_HEADER_BYTES + u64::from(e.len)).sum::<u64>();
        let mut victims: Vec<u64> = Vec::new();
        let mut evicted_bytes = 0u64;
        if projected > max_bytes {
            let mut order: Vec<(u64, u64, u64)> = inner
                .index
                .iter()
                .filter(|(fp, _)| !inner.pinned.contains_key(fp))
                .map(|(fp, e)| (e.stamp, *fp, FRAME_HEADER_BYTES + u64::from(e.len)))
                .collect();
            order.sort_unstable();
            for (_, fp, frame_bytes) in order {
                if projected <= max_bytes {
                    break;
                }
                projected -= frame_bytes;
                evicted_bytes += frame_bytes;
                victims.push(fp);
            }
        }
        for fp in &victims {
            append_locked(&self.dir, self.segment_bytes, inner, KIND_TOMBSTONE, *fp, &[])?;
            inner.index.remove(fp);
        }
        inner.evictions += victims.len() as u64;
        let file_bytes: u64 = inner.segs.values().sum();
        if victims.is_empty() && file_bytes <= max_bytes {
            return Ok(EvictStats { evicted: 0, evicted_bytes: 0, compacted: false, file_bytes });
        }
        let compacted = compact_locked(&self.dir, inner)?;
        Ok(EvictStats {
            evicted: victims.len() as u64,
            evicted_bytes,
            compacted: true,
            file_bytes: compacted.after_bytes,
        })
    }
}

/// `<dir>/seg-<id>.log`.
fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id}.log"))
}

/// Lists segment ids ascending; sweeps up stale `.tmp` files left by an
/// interrupted compaction (they were never renamed, so never committed).
fn list_segments(dir: &Path) -> Vec<u64> {
    let mut ids = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return ids };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if name.starts_with("seg-") && name.ends_with(".log.tmp") {
            let _ = std::fs::remove_file(&path);
            continue;
        }
        if let Some(id) = name
            .strip_prefix("seg-")
            .and_then(|r| r.strip_suffix(".log"))
            .and_then(|r| r.parse().ok())
        {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    ids
}

/// The frame checksum: FNV-1a 64 over `kind ‖ fingerprint ‖ payload`.
fn frame_hash(kind: u8, fp: u64, payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&[kind]);
    h.write(&fp.to_le_bytes());
    h.write(payload);
    h.finish()
}

fn encode_frame(kind: u8, fp: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES as usize + payload.len());
    frame.extend_from_slice(&u32::try_from(payload.len()).expect("payload fits u32").to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(&fp.to_le_bytes());
    frame.extend_from_slice(&frame_hash(kind, fp, payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// What decoding one frame at `buf[off..]` found.
enum FrameOutcome<'a> {
    /// A verified frame.
    Record { kind: u8, fp: u64, payload: &'a [u8], frame_len: usize },
    /// Well-formed framing but the checksum does not match — the next
    /// frame boundary is still trustworthy enough to try re-syncing.
    BadChecksum { frame_len: usize },
    /// Unusable framing (short header, bad kind, length out of bounds) —
    /// no boundary to re-sync at.
    Mangled,
}

fn parse_frame(buf: &[u8], off: usize) -> FrameOutcome<'_> {
    let Some(header) = buf.get(off..off + FRAME_HEADER_BYTES as usize) else {
        return FrameOutcome::Mangled;
    };
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let kind = header[4];
    let fp = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
    let hash = u64::from_le_bytes(header[13..21].try_into().expect("8 bytes"));
    if kind > KIND_TOMBSTONE {
        return FrameOutcome::Mangled;
    }
    let frame_len = FRAME_HEADER_BYTES as usize + len;
    let Some(payload) = buf.get(off + FRAME_HEADER_BYTES as usize..off + frame_len) else {
        return FrameOutcome::Mangled;
    };
    if frame_hash(kind, fp, payload) != hash {
        return FrameOutcome::BadChecksum { frame_len };
    }
    FrameOutcome::Record { kind, fp, payload, frame_len }
}

/// One sequential scan of a segment, indexing its frames into `inner`.
/// `is_last` selects the recovery posture: the newest segment truncates
/// its torn tail; sealed segments skip damage and keep going.
fn scan_segment(dir: &Path, id: u64, is_last: bool, inner: &mut Inner) {
    let path = segment_path(dir, id);
    let Ok(buf) = std::fs::read(&path) else {
        eprintln!("logstore: cannot read {}; ignoring segment", path.display());
        inner.load.skipped_corrupt += 1;
        inner.segs.insert(id, 0);
        return;
    };
    if buf.len() < SEGMENT_HEADER_BYTES as usize {
        if is_last {
            // A crash before the header finished: nothing was committed.
            eprintln!("logstore: {} torn before its header; removing", path.display());
            inner.load.torn_tail_bytes += buf.len() as u64;
            let _ = std::fs::remove_file(&path);
        } else {
            eprintln!("logstore: {} has a short header; ignoring segment", path.display());
            inner.load.skipped_corrupt += 1;
            inner.segs.insert(id, buf.len() as u64);
        }
        return;
    }
    if buf[0..4] != MAGIC
        || u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) != FORMAT_VERSION
    {
        eprintln!("logstore: {} has a bad magic/version header; ignoring segment", path.display());
        inner.load.skipped_corrupt += 1;
        inner.segs.insert(id, buf.len() as u64);
        return;
    }
    let mut off = SEGMENT_HEADER_BYTES as usize;
    let mut file_len = buf.len() as u64;
    let mut clean = true;
    while off < buf.len() {
        match parse_frame(&buf, off) {
            FrameOutcome::Record { kind, fp, payload, frame_len } => {
                if kind == KIND_PUT {
                    let entry = Entry {
                        seg: id,
                        offset: off as u64,
                        len: payload.len() as u32,
                        stamp: inner.clock,
                    };
                    inner.clock += 1;
                    if inner.index.insert(fp, entry).is_some() {
                        inner.load.superseded += 1;
                    }
                } else if inner.index.remove(&fp).is_some() {
                    inner.load.superseded += 1;
                }
                off += frame_len;
            }
            FrameOutcome::BadChecksum { frame_len } if !is_last => {
                eprintln!(
                    "logstore: {} has a corrupt record at offset {off}; skipping it",
                    path.display()
                );
                inner.load.skipped_corrupt += 1;
                off += frame_len;
            }
            FrameOutcome::Mangled if !is_last => {
                eprintln!(
                    "logstore: {} is mangled at offset {off}; ignoring the segment's remainder",
                    path.display()
                );
                inner.load.skipped_corrupt += 1;
                break;
            }
            FrameOutcome::BadChecksum { .. } | FrameOutcome::Mangled => {
                // Torn tail in the newest segment: truncate back to the
                // committed prefix, physically and in memory.
                let dropped = buf.len() as u64 - off as u64;
                eprintln!(
                    "logstore: {} has a torn tail at offset {off}; truncating {dropped} bytes",
                    path.display()
                );
                inner.load.torn_tail_bytes += dropped;
                clean = truncate_segment(&path, off as u64);
                file_len = off as u64;
                break;
            }
        }
    }
    inner.segs.insert(id, file_len);
    if is_last && clean {
        inner.appendable = Some(id);
    }
}

/// Physically truncates a torn tail; returns whether the file is now
/// safe to append to.
fn truncate_segment(path: &Path, len: u64) -> bool {
    match OpenOptions::new().write(true).open(path).and_then(|f| f.set_len(len)) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("logstore: cannot truncate {}: {e}", path.display());
            false
        }
    }
}

/// Appends one frame with the lock held, adopting the scanned tail
/// segment or rolling a new one as needed.
fn append_locked(
    dir: &Path,
    segment_bytes: u64,
    inner: &mut Inner,
    kind: u8,
    fp: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    if inner.active.is_none() {
        inner.active = match inner.appendable {
            Some(id) if inner.segs.get(&id).copied().unwrap_or(0) < segment_bytes => {
                let file = OpenOptions::new().append(true).open(segment_path(dir, id))?;
                Some(ActiveSeg { id, file, bytes: inner.segs[&id] })
            }
            _ => Some(create_segment(dir, inner)?),
        };
    }
    if inner.active.as_ref().is_some_and(|a| a.bytes >= segment_bytes) {
        inner.active = Some(create_segment(dir, inner)?);
    }
    let frame = encode_frame(kind, fp, payload);
    let active = inner.active.as_mut().expect("active segment");
    if let Err(e) = active.file.write_all(&frame) {
        // The tail may now hold a partial frame; stop trusting this
        // segment (the next open's torn-tail recovery will repair it)
        // and refresh its size from disk for accounting.
        let path = segment_path(dir, active.id);
        let id = active.id;
        inner.active = None;
        inner.appendable = None;
        if let Ok(meta) = std::fs::metadata(&path) {
            inner.segs.insert(id, meta.len());
        }
        return Err(e);
    }
    // Every segment is opened in append mode, so the write landed at the
    // end of the file even if another process appended to the same
    // segment meanwhile; the descriptor's position is where it ended.
    active.bytes = active.file.stream_position().unwrap_or(active.bytes + frame.len() as u64);
    let (id, bytes) = (active.id, active.bytes);
    inner.segs.insert(id, bytes);
    inner.appendable = Some(id);
    if kind == KIND_PUT {
        let entry = Entry {
            seg: id,
            offset: bytes - frame.len() as u64,
            len: payload.len() as u32,
            stamp: inner.clock,
        };
        inner.clock += 1;
        inner.index.insert(fp, entry);
    } else {
        inner.index.remove(&fp);
    }
    Ok(())
}

/// Creates the next segment file (header only) and registers it. An id
/// another writer on the same directory already created is skipped:
/// the next free id is taken instead.
fn create_segment(dir: &Path, inner: &mut Inner) -> std::io::Result<ActiveSeg> {
    std::fs::create_dir_all(dir)?;
    let mut id = inner.segs.keys().next_back().map_or(0, |m| m + 1);
    let mut file = loop {
        match OpenOptions::new().create_new(true).append(true).open(segment_path(dir, id)) {
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => id += 1,
            opened => break opened?,
        }
    };
    file.write_all(&MAGIC)?;
    file.write_all(&FORMAT_VERSION.to_le_bytes())?;
    inner.segs.insert(id, SEGMENT_HEADER_BYTES);
    Ok(ActiveSeg { id, file, bytes: SEGMENT_HEADER_BYTES })
}

/// Compaction with the lock held: copy live frames (original order)
/// into `seg-<new>.log.tmp`, fsync, rename, delete old segments. A
/// crash or an error before the rename leaves the old segments
/// untouched (the tmp file is swept at the next open): a source segment
/// that cannot be read fails the compaction, since its frames are not
/// known to be bad. A crash after the rename leaves the new segment
/// plus stale old ones, which last-wins scanning resolves.
fn compact_locked(dir: &Path, inner: &mut Inner) -> std::io::Result<CompactStats> {
    inner.active = None;
    let before_bytes: u64 = inner.segs.values().sum();
    if inner.segs.is_empty() && inner.index.is_empty() {
        return Ok(CompactStats::default());
    }
    let mut live: Vec<(u64, Entry)> = inner.index.iter().map(|(fp, e)| (*fp, *e)).collect();
    live.sort_unstable_by_key(|(_, e)| (e.seg, e.offset));
    let new_id = inner.segs.keys().next_back().map_or(0, |m| m + 1);
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("seg-{new_id}.log.tmp"));
    let mut out = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp)?;
    out.write_all(&MAGIC)?;
    out.write_all(&FORMAT_VERSION.to_le_bytes())?;
    let mut offset = SEGMENT_HEADER_BYTES;
    let mut new_index: HashMap<u64, Entry> = HashMap::with_capacity(live.len());
    let mut dropped = 0u64;
    let mut src: Option<(u64, Vec<u8>)> = None;
    for (fp, e) in live {
        if src.as_ref().map(|(id, _)| *id) != Some(e.seg) {
            src = Some((e.seg, std::fs::read(segment_path(dir, e.seg))?));
        }
        let buf = &src.as_ref().expect("source segment").1;
        let start = e.offset as usize;
        let frame_len = FRAME_HEADER_BYTES as usize + e.len as usize;
        let verified = buf.get(start..start + frame_len).filter(|frame| {
            matches!(parse_frame(frame, 0),
                FrameOutcome::Record { kind: KIND_PUT, fp: got, .. } if got == fp)
        });
        match verified {
            Some(frame) => {
                out.write_all(frame)?;
                new_index.insert(fp, Entry { seg: new_id, offset, len: e.len, stamp: e.stamp });
                offset += frame_len as u64;
            }
            None => {
                eprintln!(
                    "logstore: record {fp:016x} no longer verifies; dropped during compaction"
                );
                dropped += 1;
            }
        }
    }
    out.sync_all()?;
    drop(out);
    std::fs::rename(&tmp, segment_path(dir, new_id))?;
    for id in inner.segs.keys().copied().collect::<Vec<u64>>() {
        let _ = std::fs::remove_file(segment_path(dir, id));
    }
    inner.readers.clear();
    let live_records = new_index.len() as u64;
    inner.index = new_index;
    inner.segs = BTreeMap::from([(new_id, offset)]);
    inner.appendable = Some(new_id);
    inner.compactions += 1;
    Ok(CompactStats { live_records, before_bytes, after_bytes: offset, dropped_corrupt: dropped })
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Mutex, TryLockError};

    use proptest::prelude::*;
    use st_isa::WorkloadSpec;

    use super::*;
    use crate::JobSpec;

    fn report(seed: u64) -> SimReport {
        JobSpec::new(WorkloadSpec::builder("logstore-test").seed(seed).blocks(64).build(), 1_500)
            .run()
    }

    /// The load that pauses between its index lookup and its frame
    /// read: its fingerprint, the sender it reports the pause on, and
    /// the receiver it then waits on. Taken by the first such load.
    type PausedLoad = (u64, mpsc::Sender<()>, mpsc::Receiver<()>);
    static PAUSED_LOAD: Mutex<Option<PausedLoad>> = Mutex::new(None);

    pub(super) fn pause_before_read(fingerprint: u64) {
        let paused = PAUSED_LOAD.lock().unwrap().take_if(|(fp, ..)| *fp == fingerprint);
        if let Some((_, reached, resume)) = paused {
            reached.send(()).expect("the test waits for the pause");
            // The test ends the pause by sending, or by dropping the
            // sender when it fails.
            let _ = resume.recv();
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("st-logstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every live report of `store`, read through [`LogStore::load`],
    /// ascending by fingerprint.
    fn read_all(store: &LogStore) -> Vec<(u64, SimReport)> {
        store.fingerprints().into_iter().filter_map(|fp| Some((fp, store.load(fp)?))).collect()
    }

    #[test]
    fn frame_hash_matches_the_shard_fnv() {
        let payload = b"the same constants as job::fnv1a64";
        let mut concat = vec![7u8];
        concat.extend_from_slice(&0xdead_beefu64.to_le_bytes());
        concat.extend_from_slice(payload);
        assert_eq!(frame_hash(7, 0xdead_beef, payload), crate::job::fnv1a64(&concat));
    }

    #[test]
    fn round_trips_and_supersedes_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let (a, b, c) = (report(1), report(2), report(3));
        {
            let store = LogStore::open(&dir);
            store.store(10, &a).unwrap();
            store.store(20, &b).unwrap();
            store.store(10, &c).unwrap(); // supersedes `a`
        }
        let store = LogStore::open(&dir);
        let loaded = read_all(&store);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0], (10, c.clone()));
        assert_eq!(loaded[1], (20, b.clone()));
        let stats = store.load_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.superseded, 1);
        assert_eq!(stats.skipped_corrupt, 0);
        assert_eq!(stats.torn_tail_bytes, 0);
        assert_eq!(store.load(10).map(|r| report_to_json(&r)), Some(report_to_json(&c)));
        assert_eq!(store.load(30), None, "never stored");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_serves_only_frames_that_verify_and_decode() {
        let dir = tmp_dir("load");
        let store = LogStore::open(&dir);
        store.store(1, &report(1)).unwrap();
        store.store_payload(2, b"{\"not\":\"a report\"}").unwrap();
        store.store_payload(3, &[0xff, 0xfe]).unwrap();
        assert_eq!(store.load(1), Some(report(1)));
        assert_eq!(store.load(2), None, "checksum-valid, but not a report");
        assert_eq!(store.load(3), None, "checksum-valid, but not UTF-8");
        assert_eq!(store.fingerprints(), vec![1, 2, 3], "both stay indexed");
        // Rot after the open: `load` verifies the checksum again.
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[SEGMENT_HEADER_BYTES as usize + FRAME_HEADER_BYTES as usize + 3] ^= 0x20;
        std::fs::write(&seg, &bytes).unwrap();
        assert_eq!(store.load(1), None, "a rotted frame is not served");
        // A superseding frame is served again.
        store.store(1, &report(1)).unwrap();
        assert_eq!(store.load(1), Some(report(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_roll_segments_at_the_size_target() {
        let dir = tmp_dir("roll");
        let config = LogStoreConfig { segment_bytes: 1024 };
        let store = LogStore::open_with_config(&dir, config);
        for i in 0..12 {
            store.store(i, &report(i)).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.entries, 12);
        assert!(stats.segments > 1, "small target must roll: {stats:?}");
        drop(store);
        let reopened = LogStore::open_with_config(&dir, config);
        assert_eq!(read_all(&reopened).len(), 12);
        assert_eq!(reopened.stats().segments, stats.segments);
        // And appends continue in the scanned tail segment.
        reopened.store(100, &report(100)).unwrap();
        assert_eq!(reopened.stats().entries, 13);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_same_fingerprint_stores_leave_one_valid_entry() {
        // The sweep service makes write-through concurrent within one
        // process: N threads racing the same fingerprint through one
        // handle must each append a whole frame, and the surviving entry
        // must be one complete, bit-exact report — never an interleaving
        // of two.
        let dir = tmp_dir("race");
        let (a, b) = (report(10), report(11));
        assert_ne!(report_to_json(&a), report_to_json(&b), "distinct payloads");
        let store = LogStore::open(&dir);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (store, start, a, b) = (&store, &start, &a, &b);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..25 {
                        let r = if (t + i) % 2 == 0 { a } else { b };
                        store.store(0xfeed, r).expect("racing store");
                    }
                });
            }
        });
        drop(store);
        let store = LogStore::open(&dir);
        let loaded = read_all(&store);
        assert_eq!(loaded.len(), 1, "exactly one entry");
        assert_eq!(store.load_stats().skipped_corrupt, 0, "no torn writes");
        assert!(loaded[0].1 == a || loaded[0].1 == b, "entry is one complete report");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_handles_on_one_dir_lose_no_appends() {
        // N `st run --shard i/N` workers share one store. With a 1-byte
        // target every append rolls, so the handles race to create each
        // new segment id; the loser must take the next free id rather
        // than fail the append.
        let dir = tmp_dir("two-handles");
        let config = LogStoreConfig { segment_bytes: 1 };
        let first = LogStore::open_with_config(&dir, config);
        let second = LogStore::open_with_config(&dir, config);
        let reports: Vec<SimReport> = (1..=4).map(report).collect();
        for (i, r) in (0u64..).zip(&reports) {
            first.store(i, r).expect("first handle appends");
            second.store(100 + i, r).expect("second handle appends");
        }
        drop((first, second));
        let store = LogStore::open_with_config(&dir, config);
        let loaded = read_all(&store);
        let fps: Vec<u64> = loaded.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(fps, vec![0, 1, 2, 3, 100, 101, 102, 103], "every write survives");
        for (fp, r) in &loaded {
            assert_eq!(*r, reports[(*fp % 100) as usize]);
        }
        assert_eq!(store.load_stats().skipped_corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handles_sharing_a_tail_segment_lose_no_appends() {
        // The second handle opens after the first created seg-0, so both
        // append to the same file: neither may overwrite the other's
        // frames, and each index must point at its own frames.
        let dir = tmp_dir("shared-tail");
        let reports: Vec<SimReport> = (0..4).map(report).collect();
        let first = LogStore::open(&dir);
        first.store(0, &reports[0]).expect("first handle creates seg-0");
        let second = LogStore::open(&dir);
        for i in 1..4u64 {
            second.store(100 + i, &reports[i as usize]).expect("second handle appends");
            first.store(i, &reports[i as usize]).expect("first handle appends");
        }
        for i in 0..4u64 {
            let want = Some(reports[i as usize].clone());
            assert_eq!(first.load(i), want, "first handle's offset for {i}");
            if i > 0 {
                assert_eq!(second.load(100 + i), want, "second handle's offset for {i}");
            }
        }
        drop((first, second));
        let store = LogStore::open(&dir);
        let fps: Vec<u64> = read_all(&store).iter().map(|(fp, _)| *fp).collect();
        assert_eq!(fps, vec![0, 1, 2, 3, 101, 102, 103], "every write survives");
        assert_eq!(store.stats().segments, 1, "both handles appended to seg-0");
        assert_eq!(store.load_stats().skipped_corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_preserves_live_bytes() {
        let dir = tmp_dir("compact");
        let store = LogStore::open(&dir);
        for i in 0..6 {
            store.store(i, &report(i)).unwrap();
        }
        for i in 0..6 {
            store.store(i, &report(i + 50)).unwrap(); // supersede everything once
        }
        let before = store.stats();
        assert!(before.dead_bytes > 0);
        let c = store.compact().unwrap();
        assert_eq!(c.live_records, 6);
        assert!(c.after_bytes < c.before_bytes);
        assert_eq!(c.dropped_corrupt, 0);
        let after = store.stats();
        assert_eq!(after.entries, 6);
        assert_eq!(after.dead_bytes, 0);
        assert_eq!(after.segments, 1);
        assert_eq!(after.compactions, 1);
        for i in 0..6 {
            assert_eq!(store.load(i), Some(report(i + 50)));
        }
        // The store still accepts appends and survives reopen.
        store.store(99, &report(99)).unwrap();
        drop(store);
        assert_eq!(read_all(&LogStore::open(&dir)).len(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_fails_without_loss_on_a_segment_it_cannot_read() {
        let dir = tmp_dir("unreadable");
        let store = LogStore::open_with_config(&dir, LogStoreConfig { segment_bytes: 1024 });
        for i in 0..12 {
            store.store(i, &report(i)).unwrap();
        }
        let before = store.stats();
        assert!(before.segments > 1, "{before:?}");
        // A sealed segment becomes unreadable after the open.
        let seg0 = segment_path(&dir, 0);
        std::fs::remove_file(&seg0).unwrap();
        std::fs::create_dir(&seg0).unwrap();
        assert!(store.compact().is_err(), "an unreadable segment fails the compaction");
        assert_eq!(store.stats().entries, before.entries, "no record is dropped");
        for id in 1..before.segments {
            assert!(segment_path(&dir, id).is_file(), "seg-{id} is not deleted");
        }
        assert_eq!(store.load(11), Some(report(11)), "the readable segments still serve");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_is_exact_while_compactions_move_every_frame() {
        let dir = tmp_dir("load-compact");
        let store = LogStore::open_with_config(&dir, LogStoreConfig { segment_bytes: 4096 });
        let reports: Vec<SimReport> = (1..=16).map(report_for).collect();
        for (fp, r) in (1..).zip(&reports) {
            store.store(fp, r).unwrap();
        }
        // The size of the compacted store: every entry fits this budget,
        // so eviction only compacts away the superseded frame below.
        let budget = store.compact().unwrap().after_bytes;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let mover = scope.spawn(|| {
                start.wait();
                for round in 0..20u64 {
                    let fp = round % 16 + 1;
                    store.store(fp, &reports[fp as usize - 1]).expect("supersede");
                    store.compact().expect("compact");
                    store.store(fp, &reports[fp as usize - 1]).expect("supersede");
                    let evicted = store.evict_to_budget(budget).expect("evict");
                    assert_eq!(evicted.evicted, 0, "round {round}");
                }
            });
            start.wait();
            let mut rounds = 0;
            while rounds == 0 || !mover.is_finished() {
                for (fp, r) in (1..).zip(&reports) {
                    assert_eq!(store.load(fp).as_ref(), Some(r), "round {rounds}: {fp}");
                }
                rounds += 1;
            }
        });
        assert_eq!(store.stats().compactions, 41);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loads_open_each_segment_once_and_a_compaction_drops_the_handles() {
        let dir = tmp_dir("read-handles");
        let writer = LogStore::open_with_config(&dir, LogStoreConfig { segment_bytes: 4096 });
        let reports: Vec<SimReport> = (1..=8).map(report_for).collect();
        for (fp, r) in (1..).zip(&reports) {
            writer.store(fp, r).unwrap();
        }
        let segments = writer.stats().segments;
        assert!(segments > 1, "the reports span several segments");
        drop(writer);

        let store = LogStore::open_with_config(&dir, LogStoreConfig { segment_bytes: 4096 });
        let readers = || store.inner.lock().unwrap().readers.len() as u64;
        assert_eq!(readers(), 0, "opening reads no frame");
        for _ in 0..2 {
            for (fp, r) in (1..).zip(&reports) {
                assert_eq!(store.load(fp).as_ref(), Some(r));
            }
        }
        assert_eq!(readers(), segments, "one handle per segment read");
        store.compact().unwrap();
        assert_eq!(readers(), 0, "the compaction deleted every segment read");
        assert_eq!(store.load(3).as_ref(), Some(&reports[2]));
        assert_eq!(readers(), 1, "the compacted segment");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A load holds the store lock from its index lookup through its
    /// frame read, so a compaction cannot move the frame in between: a
    /// load paused there still holds the lock, a compaction started
    /// during the pause cannot run until the load has read its frame,
    /// and the load returns the report.
    #[test]
    fn a_compaction_waits_for_a_load_between_lookup_and_read() {
        let dir = tmp_dir("paused-load");
        let store = LogStore::open(&dir);
        // A fingerprint no other test stores, so no other load pauses.
        let fp = 0x5EED_0000_0000_0001;
        let stored = report(5);
        store.store(fp, &stored).unwrap();
        std::thread::scope(|scope| {
            let (reached_tx, reached) = mpsc::channel();
            let (resume, resume_rx) = mpsc::channel::<()>();
            *PAUSED_LOAD.lock().unwrap() = Some((fp, reached_tx, resume_rx));
            let loader = scope.spawn(|| store.load(fp));
            reached.recv().expect("the load pauses");
            let held = matches!(store.inner.try_lock(), Err(TryLockError::WouldBlock));
            assert!(held, "a load between lookup and read holds the store lock");
            let compactor = scope.spawn(|| store.compact());
            resume.send(()).unwrap();
            assert_eq!(loader.join().unwrap(), Some(stored.clone()), "the paused load");
            assert_eq!(compactor.join().unwrap().unwrap().live_records, 1);
        });
        assert_eq!(store.load(fp), Some(stored), "the compacted frame");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_honours_lru_order_and_the_byte_budget() {
        let dir = tmp_dir("evict");
        let store = LogStore::open(&dir);
        for i in 1..=4 {
            store.store(i, &report(i)).unwrap();
        }
        store.touch_all(&[1]); // 1 becomes most recent; 2 is now LRU
                               // A budget that holds exactly the two most-recent entries (1, 4).
        let frame = |fp: u64| report_to_json(&report(fp)).len() as u64 + FRAME_HEADER_BYTES;
        let keep_two = SEGMENT_HEADER_BYTES + frame(1) + frame(4);
        let e = store.evict_to_budget(keep_two).unwrap();
        assert_eq!(e.evicted, 2);
        assert!(e.compacted);
        assert!(e.file_bytes <= keep_two);
        let stats = store.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        assert!(store.load(2).is_none(), "LRU entry 2 evicted");
        assert!(store.load(3).is_none(), "next-LRU entry 3 evicted");
        assert!(store.load(1).is_some(), "touched entry survives");
        assert!(store.load(4).is_some(), "newest entry survives");
        // Under budget already: a no-op.
        let noop = store.evict_to_budget(u64::MAX).unwrap();
        assert_eq!(
            noop,
            EvictStats {
                evicted: 0,
                evicted_bytes: 0,
                compacted: false,
                file_bytes: stats.file_bytes
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_entries_are_never_eviction_victims() {
        let dir = tmp_dir("pin");
        let store = LogStore::open(&dir);
        for i in 1..=3 {
            store.store(i, &report(i)).unwrap();
        }
        let guard = store.pin(&[1]); // 1 is the LRU entry, but pinned
        let e = store.evict_to_budget(SEGMENT_HEADER_BYTES).unwrap();
        assert_eq!(e.evicted, 2);
        assert!(store.load(1).is_some(), "pinned entry survives a zero-entry budget");
        drop(guard);
        let e = store.evict_to_budget(SEGMENT_HEADER_BYTES).unwrap();
        assert_eq!(e.evicted, 1, "unpinned, it is evictable again");
        assert_eq!(store.stats().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_committed_prefix() {
        let dir = tmp_dir("torn");
        let (a, b) = (report(1), report(2));
        {
            let store = LogStore::open(&dir);
            store.store(1, &a).unwrap();
            store.store(2, &b).unwrap();
        }
        let seg = segment_path(&dir, 0);
        let full = std::fs::read(&seg).unwrap();
        let after_first =
            SEGMENT_HEADER_BYTES as usize + FRAME_HEADER_BYTES as usize + report_to_json(&a).len();
        // Tear the file mid-way through the second record.
        std::fs::write(&seg, &full[..after_first + 5]).unwrap();
        let store = LogStore::open(&dir);
        assert_eq!(read_all(&store), vec![(1, a)]);
        assert_eq!(store.load_stats().torn_tail_bytes, 5);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), after_first as u64);
        // The truncated segment accepts appends again.
        store.store(3, &report(3)).unwrap();
        drop(store);
        assert_eq!(read_all(&LogStore::open(&dir)).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_segment_damage_is_skipped_not_fatal() {
        let dir = tmp_dir("sealed");
        let config = LogStoreConfig { segment_bytes: 1 }; // every record seals a segment
        let reports: Vec<SimReport> = (1..=3).map(report).collect();
        {
            let store = LogStore::open_with_config(&dir, config);
            for (i, r) in reports.iter().enumerate() {
                store.store(i as u64 + 1, r).unwrap();
            }
        }
        // With a 1-byte target every record seals its own segment
        // (record i lands in seg-i; seg-0 stays header-only). Flip one
        // payload byte in a sealed middle segment.
        let seg = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        let store = LogStore::open_with_config(&dir, config);
        let fps: Vec<u64> = read_all(&store).iter().map(|(fp, _)| *fp).collect();
        assert_eq!(fps, vec![2, 3], "damaged record skipped, neighbours kept");
        assert_eq!(store.load_stats().skipped_corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_segment_header_is_ignored_and_swept_by_compaction() {
        let dir = tmp_dir("badheader");
        let config = LogStoreConfig { segment_bytes: 1 };
        {
            let store = LogStore::open_with_config(&dir, config);
            store.store(1, &report(1)).unwrap();
            store.store(2, &report(2)).unwrap();
        }
        // Record 1 lives in seg-1 (seg-0 is header-only with a 1-byte
        // target); destroy seg-1's magic.
        let seg1 = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg1).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&seg1, &bytes).unwrap();
        // A stale compaction temp file is swept at open.
        std::fs::write(dir.join("seg-9.log.tmp"), b"leftover").unwrap();
        let store = LogStore::open_with_config(&dir, config);
        let loaded = read_all(&store);
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, 2);
        assert_eq!(store.load_stats().skipped_corrupt, 1);
        assert!(!dir.join("seg-9.log.tmp").exists());
        store.compact().unwrap();
        assert!(!seg1.exists(), "compaction sweeps the corrupt segment");
        assert_eq!(store.stats().entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacting_an_empty_store_is_a_no_op() {
        let dir = tmp_dir("empty");
        let store = LogStore::open(&dir);
        assert_eq!(store.compact().unwrap(), CompactStats::default());
        assert_eq!(store.stats().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One real (tiny) simulation, reused as the payload template; each
    /// record perturbs one field so payloads are pairwise distinct but
    /// stay realistic in size and shape.
    fn report_for(seed: u64) -> SimReport {
        static BASE: std::sync::OnceLock<SimReport> = std::sync::OnceLock::new();
        let base = BASE.get_or_init(|| {
            let spec = st_workloads::by_name("go").expect("known workload");
            JobSpec::new(spec, 500).run()
        });
        let mut r = base.clone();
        r.perf.cycles = r.perf.cycles.wrapping_add(seed);
        r
    }

    /// A deterministic permutation of `0..n` from a seed (tiny LCG
    /// Fisher-Yates, so proptest shrinking stays meaningful).
    fn permutation(n: usize, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Arbitrary record sets round-trip byte-identically across a
        /// reopen — at any segment-roll granularity — and after evicting
        /// in an arbitrary LRU order the survivors are still
        /// byte-identical.
        #[test]
        fn round_trip_survives_reopens_and_arbitrary_eviction_orders(
            records in 1usize..=10,
            keep in 0usize..=10,
            segment_pick in 0usize..4,
            order_seed in any::<u64>(),
        ) {
            let keep = keep.min(records);
            // segment_bytes 1 seals a segment per record; larger targets
            // pack several records per segment.
            let segment_kib = [0u64, 1, 4, 64][segment_pick];
            let config = LogStoreConfig {
                segment_bytes: if segment_kib == 0 { 1 } else { segment_kib * 1024 },
            };
            let dir = tmp_dir(&format!("props-roundtrip-{records}-{segment_kib}"));
            {
                let store = LogStore::open_with_config(&dir, config);
                for seed in 1..=records as u64 {
                    store.store(seed, &report_for(seed)).expect("append");
                }
            }
            let store = LogStore::open_with_config(&dir, config);
            let loaded = read_all(&store);
            prop_assert_eq!(loaded.len(), records);
            let mut frame_bytes = HashMap::new();
            for (fp, report) in &loaded {
                let expected = report_to_json(&report_for(*fp));
                prop_assert_eq!(&report_to_json(report), &expected, "bytes preserved verbatim");
                frame_bytes.insert(*fp, FRAME_HEADER_BYTES + expected.len() as u64);
            }

            // Touch in an arbitrary order; the last `keep` touched must be
            // exactly the survivors of an eviction sized to fit them.
            let order = permutation(records, order_seed);
            for &i in &order {
                store.touch_all(&[i as u64 + 1]);
            }
            let survivors: Vec<u64> =
                order[records - keep..].iter().map(|&i| i as u64 + 1).collect();
            let budget = SEGMENT_HEADER_BYTES
                + survivors.iter().map(|fp| frame_bytes[fp]).sum::<u64>();
            store.evict_to_budget(budget).expect("evict");
            drop(store);

            let store = LogStore::open_with_config(&dir, config);
            let reloaded = read_all(&store);
            let mut expected: Vec<u64> = survivors.clone();
            expected.sort_unstable();
            let fps: Vec<u64> = reloaded.iter().map(|(fp, _)| *fp).collect();
            prop_assert_eq!(fps, expected, "exactly the {} most recently used survive", keep);
            for (fp, report) in &reloaded {
                prop_assert_eq!(
                    report_to_json(report),
                    report_to_json(&report_for(*fp)),
                    "survivor bytes preserved verbatim across eviction + reopen"
                );
            }
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
