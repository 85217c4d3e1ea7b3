//! Checkpointed sweep execution: a content-addressed on-disk store that
//! makes sweeps resumable, shardable and effectively unbounded.
//!
//! [`Sweep::run`](crate::sweep::Sweep::run) holds every per-variant accumulator in memory and caps
//! the matrix at [`crate::sweep::MAX_VARIANTS`]; a killed run loses
//! everything. This module lifts both limits for `sixg-cli sweep
//! --checkpoint DIR`. It drives the sweep fold over the run-major work
//! list of the runs a shard owns, one `interval` round at a time, with a
//! sink that spills each completed run to disk; the cap is a limit of
//! in-memory execution only, so any loaded [`Sweep`] runs here. Each run
//! folds its own work list, while the in-memory run shares draws across a
//! draw group's cadences: two implementations of every run's field, which
//! the store identity gates compare byte for byte.
//!
//! * **Store layout.** One directory per (sweep, shard): `manifest.json`
//!   (store version, the sweep's content hash, shard geometry),
//!   `run_NNNNN.blob` — the completed per-run [`CellField`] accumulators,
//!   spilled as raw Welford bits the moment a run's last work item folds —
//!   and `cursor.blob`, the `(run, pass, cell)` resume point plus the
//!   in-progress run's partial accumulator state. Every blob carries a
//!   versioned header, the sweep's content hash (FNV-1a 64 over the sweep
//!   spec and base spec JSON) and a trailing checksum; every write is
//!   tmp-file + fsync + rename, so a kill leaves either the old record or
//!   the new one, never a torn file.
//!
//! * **Record layout** ([`STORE_VERSION`] 2). All integers little-endian.
//!   A blob is a 24-byte header (magic `SIXGSWP\0`, version `u32`, kind
//!   `u32`, spec hash `u64`), the payload, and an FNV-1a 64 checksum of
//!   everything before it. A field is its grid's columns and rows (`u32`
//!   each), its cell count (`u64`), then each cell's accumulator in
//!   row-major order as three `u64`s: the count and the bits of the mean
//!   and of M2, 24 bytes a cell. A run blob's payload is the run index
//!   (`u32`) and its field. A cursor's is the next item and the item
//!   total (`u64` each), the next item's run, pass, column and row (`u32`
//!   each), then a `0` byte, or a `1` byte, the partial run's index
//!   (`u32`) and its field. Each record is written into one buffer of its
//!   exact length. Version 1 stored each cell's minimum and maximum too,
//!   40 bytes a cell; a version-1 manifest or blob is refused.
//!
//! * **Why resume is bitwise.** A shard's work list is run-major over the
//!   runs it owns, and a shard builds the work lists of those runs only
//!   (see [`crate::sweep`]): folding items `0..k` then — after a crash —
//!   items `k..n` replays the exact floating-point accumulation sequence
//!   of one uninterrupted pass, because [`Welford::raw_parts`](sixg_netsim::stats::Welford::raw_parts) round-trips
//!   the accumulator state bit for bit and sample *collection* is a pure
//!   function of each item. A checkpoint boundary therefore commutes with
//!   the fold: kill anywhere, resume, and the report is indistinguishable
//!   from a run that never died, at every thread-pool size.
//!
//! * **Sharding and merge.** `--shard i/N` gives shard `i` the contiguous
//!   run range `[total·i/N, total·(i+1)/N)`, so every run is folded and
//!   spilled by exactly one shard. [`merge_stores`] reads each run's blob
//!   back verbatim from the store that owns it and hands the fields to the
//!   one report-construction path, so it reassembles the exact
//!   single-machine [`SweepReport`](crate::sweep::SweepReport) from shard
//!   stores produced on different machines.

use crate::aggregate::CellField;
use crate::spec::SpecError;
use crate::sweep::{Sweep, SweepRun};
use serde::Value;
use sixg_geo::GridSpec;
use sixg_netsim::stats::Welford;
use std::fmt;
use std::io::Write as _;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// On-disk format version; bump on any layout change.
pub const STORE_VERSION: u32 = 2;

/// Default number of work items folded between cursor checkpoints.
pub const CHECKPOINT_INTERVAL: usize = 1024;

const MAGIC: &[u8; 8] = b"SIXGSWP\0";
const KIND_RUN: u32 = 1;
const KIND_CURSOR: u32 = 2;
/// magic + version + kind + spec hash.
const HEADER_LEN: usize = 8 + 4 + 4 + 8;

/// File name of the store's identity card.
pub const MANIFEST_FILE: &str = "manifest.json";

/// File name of the resume-cursor blob.
pub const CURSOR_FILE: &str = "cursor.blob";

/// File name of run `run`'s spilled-accumulator blob.
pub fn run_blob_name(run: u32) -> String {
    format!("run_{run:05}.blob")
}

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// A store-level failure, anchored at the file (or directory) it concerns.
#[derive(Debug, Clone)]
pub struct StoreError {
    /// The path the error is about.
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl StoreError {
    fn new(path: impl AsRef<Path>, message: impl Into<String>) -> Self {
        Self { path: path.as_ref().display().to_string(), message: message.into() }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for StoreError {}

/// A checkpointed-execution failure: either the sweep itself is invalid,
/// or the store is.
#[derive(Debug)]
pub enum CheckpointError {
    /// Sweep/spec-level failure.
    Spec(SpecError),
    /// Store-level failure.
    Store(StoreError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Spec(e) => write!(f, "{e}"),
            CheckpointError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SpecError> for CheckpointError {
    fn from(e: SpecError) -> Self {
        CheckpointError::Spec(e)
    }
}

impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> Self {
        CheckpointError::Store(e)
    }
}

// ---------------------------------------------------------------------------
// Content addressing.
// ---------------------------------------------------------------------------

/// FNV-1a 64 over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The sweep's content hash: FNV-1a 64 over the canonical (decoded,
/// re-serialised) sweep spec and base spec JSON. Two sweeps hash equal iff
/// they compile to the same campaign matrix, so the hash binds every store
/// record to the exact study it belongs to.
pub fn sweep_content_hash(sweep: &Sweep) -> u64 {
    let mut text = sweep.spec.to_json();
    text.push('\n');
    text.push_str(&sweep.base.to_json());
    fnv1a64(text.as_bytes())
}

// ---------------------------------------------------------------------------
// Binary records.
// ---------------------------------------------------------------------------

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bytes of one accumulator in a field record: count, mean, M2.
const CELL_RECORD_LEN: usize = 3 * 8;

/// The length of `field`'s record: its shape, its cell count and its
/// accumulators.
fn field_len(field: &CellField) -> usize {
    4 + 4 + 8 + field.accumulators().len() * CELL_RECORD_LEN
}

fn push_field(buf: &mut Vec<u8>, field: &CellField) {
    push_u32(buf, field.grid().cols);
    push_u32(buf, field.grid().rows);
    push_u64(buf, field.accumulators().len() as u64);
    for w in field.accumulators() {
        let (n, mean, m2) = w.raw_parts();
        push_u64(buf, n);
        push_u64(buf, mean.to_bits());
        push_u64(buf, m2.to_bits());
    }
}

/// Sequential decoder over one record's bytes, producing path-anchored
/// truncation errors.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.buf.len() {
            return Err(StoreError::new(
                self.path,
                format!(
                    "truncated record: wanted {n} bytes at offset {}, only {} remain",
                    self.pos,
                    self.buf.len() - self.pos
                ),
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn done(&self) -> Result<(), StoreError> {
        if self.pos != self.buf.len() {
            return Err(StoreError::new(
                self.path,
                format!("{} trailing bytes after the record payload", self.buf.len() - self.pos),
            ));
        }
        Ok(())
    }

    fn field(&mut self, expected: &GridSpec) -> Result<CellField, StoreError> {
        let cols = self.u32()?;
        let rows = self.u32()?;
        if (cols, rows) != (expected.cols, expected.rows) {
            return Err(StoreError::new(
                self.path,
                format!(
                    "grid shape mismatch: store has {cols}×{rows}, the sweep needs {}×{}",
                    expected.cols, expected.rows
                ),
            ));
        }
        let count = self.u64()? as usize;
        if count != expected.len() {
            return Err(StoreError::new(
                self.path,
                format!(
                    "accumulator count mismatch: store has {count}, the grid has {} cells",
                    expected.len()
                ),
            ));
        }
        let mut acc = Vec::with_capacity(count);
        for _ in 0..count {
            let n = self.u64()?;
            let mean = f64::from_bits(self.u64()?);
            let m2 = f64::from_bits(self.u64()?);
            acc.push(Welford::from_raw_parts(n, mean, m2));
        }
        Ok(CellField::from_accumulators(expected.clone(), acc))
    }
}

/// One record: the magic, version, kind and spec hash, the
/// `payload_len`-byte payload that `payload` writes, and the trailing
/// checksum, in one buffer allocated at its exact length.
fn frame(
    kind: u32,
    spec_hash: u64,
    payload_len: usize,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload_len + 8);
    buf.extend_from_slice(MAGIC);
    push_u32(&mut buf, STORE_VERSION);
    push_u32(&mut buf, kind);
    push_u64(&mut buf, spec_hash);
    payload(&mut buf);
    assert_eq!(buf.len(), HEADER_LEN + payload_len, "the payload has its stated length");
    let sum = fnv1a64(&buf);
    push_u64(&mut buf, sum);
    buf
}

/// Verifies a record's frame and returns the payload. Check order is the
/// diagnostic one: truncation, magic, version, checksum (covers torn or
/// doctored payloads), then the spec-hash binding and record kind.
fn unframe<'a>(
    path: &Path,
    buf: &'a [u8],
    kind: u32,
    spec_hash: u64,
) -> Result<&'a [u8], StoreError> {
    if buf.len() < HEADER_LEN + 8 {
        return Err(StoreError::new(
            path,
            format!("truncated store file: {} bytes is shorter than any record", buf.len()),
        ));
    }
    if &buf[..8] != MAGIC {
        return Err(StoreError::new(path, "not a sixg sweep-store file (bad magic)"));
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    if version != STORE_VERSION {
        return Err(StoreError::new(
            path,
            format!("unsupported store version {version} (this build reads {STORE_VERSION})"),
        ));
    }
    let body = &buf[..buf.len() - 8];
    let want = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a64(body) != want {
        return Err(StoreError::new(
            path,
            "checksum mismatch — the file is truncated, partially written or corrupt",
        ));
    }
    let got_hash = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
    if got_hash != spec_hash {
        return Err(StoreError::new(
            path,
            format!(
                "spec hash mismatch: store was written for sweep {got_hash:016x}, \
                 this sweep hashes to {spec_hash:016x}"
            ),
        ));
    }
    let got_kind = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes"));
    if got_kind != kind {
        return Err(StoreError::new(
            path,
            format!("wrong record kind {got_kind} (expected {kind})"),
        ));
    }
    Ok(&body[HEADER_LEN..])
}

/// Decodes one run blob from bytes — the byte-level twin of
/// [`CheckpointStore::read_run`], used by the dispatch coordinator to fold
/// run records it received over the wire without ever touching disk.
/// `label` anchors error messages (a file path on disk, a descriptive
/// label for wire-received bytes).
pub fn decode_run_blob(
    label: &Path,
    buf: &[u8],
    run: u32,
    spec_hash: u64,
    grid: &GridSpec,
) -> Result<CellField, StoreError> {
    let payload = unframe(label, buf, KIND_RUN, spec_hash)?;
    let mut r = Reader { buf: payload, pos: 0, path: label };
    let stored_run = r.u32()?;
    if stored_run != run {
        return Err(StoreError::new(
            label,
            format!("blob is for run {stored_run}, expected run {run}"),
        ));
    }
    let field = r.field(grid)?;
    r.done()?;
    Ok(field)
}

/// Durable write: tmp file, fsync, rename over the target, best-effort
/// directory fsync — a kill leaves either the old record or the new one.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    let io = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    io.map_err(|e| StoreError::new(path, format!("cannot write: {e}")))
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

/// The store's identity card, written once at creation as `manifest.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMeta {
    /// [`sweep_content_hash`] of the sweep this store belongs to.
    pub spec_hash: u64,
    /// Sweep name (informational; the hash is the binding).
    pub sweep: String,
    /// Total runs of the *whole* matrix (base + variants), all shards.
    pub total_runs: u64,
    /// Work items owned by this shard.
    pub total_items: u64,
    /// This shard's index (0 for an unsharded run).
    pub shard_index: u32,
    /// Total shards (1 for an unsharded run).
    pub shard_count: u32,
    /// First run this shard owns (inclusive).
    pub runs_from: u64,
    /// One past the last run this shard owns.
    pub runs_to: u64,
}

impl StoreMeta {
    /// The manifest's canonical JSON — deterministic field order, so the
    /// same meta always serialises to the same bytes (dispatch streams
    /// these bytes over the wire and seeds reassigned stores with them).
    pub fn to_json(&self) -> String {
        let v = Value::Object(vec![
            ("store_version".into(), Value::U64(STORE_VERSION as u64)),
            ("spec_hash".into(), Value::String(format!("{:016x}", self.spec_hash))),
            ("sweep".into(), Value::String(self.sweep.clone())),
            ("total_runs".into(), Value::U64(self.total_runs)),
            ("total_items".into(), Value::U64(self.total_items)),
            ("shard_index".into(), Value::U64(self.shard_index as u64)),
            ("shard_count".into(), Value::U64(self.shard_count as u64)),
            ("runs_from".into(), Value::U64(self.runs_from)),
            ("runs_to".into(), Value::U64(self.runs_to)),
        ]);
        serde_json::to_string_pretty(&v).expect("manifest serialises")
    }

    fn from_json(path: &Path, text: &str) -> Result<Self, StoreError> {
        let v: Value = serde_json::from_str(text)
            .map_err(|e| StoreError::new(path, format!("manifest is invalid JSON: {e}")))?;
        let u64_of = |name: &str| -> Result<u64, StoreError> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| StoreError::new(path, format!("manifest lacks `{name}`")))
        };
        let u32_of = |name: &str| -> Result<u32, StoreError> {
            let n = u64_of(name)?;
            u32::try_from(n).map_err(|_| {
                StoreError::new(path, format!("manifest `{name}` {n} does not fit 32 bits"))
            })
        };
        let version = u64_of("store_version")?;
        if version != STORE_VERSION as u64 {
            return Err(StoreError::new(
                path,
                format!("unsupported store version {version} (this build reads {STORE_VERSION})"),
            ));
        }
        let hash_text = v
            .get("spec_hash")
            .and_then(Value::as_str)
            .ok_or_else(|| StoreError::new(path, "manifest lacks `spec_hash`"))?;
        let spec_hash = u64::from_str_radix(hash_text, 16)
            .map_err(|_| StoreError::new(path, format!("bad `spec_hash` {hash_text:?}")))?;
        Ok(Self {
            spec_hash,
            sweep: v.get("sweep").and_then(Value::as_str).unwrap_or_default().to_string(),
            total_runs: u64_of("total_runs")?,
            total_items: u64_of("total_items")?,
            shard_index: u32_of("shard_index")?,
            shard_count: u32_of("shard_count")?,
            runs_from: u64_of("runs_from")?,
            runs_to: u64_of("runs_to")?,
        })
    }
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

/// The `(run, pass, cell)` resume point plus the in-progress run's partial
/// accumulator state. `next_item` indexes this shard's owned work list;
/// the `(run, pass, cell)` triple is that item spelled out, both as a
/// human-readable cursor and as a tamper check against the recomputed
/// work list at resume.
#[derive(Debug, Clone)]
pub struct CursorRecord {
    /// Index of the next unfolded item in the shard's work list
    /// (`== total_items` when the shard is complete).
    pub next_item: u64,
    /// The shard's work-list length (must match the recomputed plan).
    pub total_items: u64,
    /// Run index of the next item (0 when complete).
    pub next_run: u32,
    /// Traversal pass of the next item (0 when complete).
    pub next_pass: u32,
    /// Grid column of the next item's cell (0 when complete).
    pub next_col: u32,
    /// Grid row of the next item's cell (0 when complete).
    pub next_row: u32,
    /// The in-progress run's `(run, partial field)`, when the cursor sits
    /// mid-run.
    pub partial: Option<(u32, CellField)>,
}

impl CursorRecord {
    /// True when every owned item has been folded and spilled.
    pub fn is_complete(&self) -> bool {
        self.next_item == self.total_items && self.partial.is_none()
    }
}

/// One shard's on-disk checkpoint store.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    spec_hash: u64,
}

impl CheckpointStore {
    /// Opens (or initialises) the store at `dir` for the sweep described
    /// by `meta`. An existing manifest must agree with `meta` in every
    /// field — a directory holding some *other* sweep, shard range or
    /// format version is rejected, never silently adopted. A directory
    /// with blobs but no manifest is rejected as corrupt.
    pub fn open(dir: impl Into<PathBuf>, meta: &StoreMeta) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::new(&dir, format!("cannot create store directory: {e}")))?;
        let manifest = dir.join(MANIFEST_FILE);
        if manifest.exists() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| StoreError::new(&manifest, format!("cannot read: {e}")))?;
            let found = StoreMeta::from_json(&manifest, &text)?;
            if found.spec_hash != meta.spec_hash {
                return Err(StoreError::new(
                    &manifest,
                    format!(
                        "spec hash mismatch: store was written for sweep {:016x} (`{}`), \
                         this sweep hashes to {:016x}",
                        found.spec_hash, found.sweep, meta.spec_hash
                    ),
                ));
            }
            if found != *meta {
                return Err(StoreError::new(
                    &manifest,
                    format!(
                        "store geometry mismatch: manifest has shard {}/{} runs \
                         [{}, {}) over {} items, this invocation asks for shard {}/{} runs \
                         [{}, {}) over {} items",
                        found.shard_index,
                        found.shard_count,
                        found.runs_from,
                        found.runs_to,
                        found.total_items,
                        meta.shard_index,
                        meta.shard_count,
                        meta.runs_from,
                        meta.runs_to,
                        meta.total_items
                    ),
                ));
            }
        } else {
            let has_blobs = std::fs::read_dir(&dir)
                .map_err(|e| StoreError::new(&dir, format!("cannot list: {e}")))?
                .flatten()
                .any(|e| e.path().extension().is_some_and(|x| x == "blob"));
            if has_blobs {
                return Err(StoreError::new(
                    &dir,
                    "directory holds checkpoint blobs but no manifest — refusing to adopt it",
                ));
            }
            write_atomic(&manifest, meta.to_json().as_bytes())?;
        }
        Ok(Self { dir, spec_hash: meta.spec_hash })
    }

    /// Loads an existing store (merge path): the manifest must be present.
    pub fn load(dir: impl Into<PathBuf>) -> Result<(Self, StoreMeta), StoreError> {
        let dir = dir.into();
        let manifest = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| StoreError::new(&manifest, format!("cannot read: {e}")))?;
        let meta = StoreMeta::from_json(&manifest, &text)?;
        let spec_hash = meta.spec_hash;
        Ok((Self { dir, spec_hash }, meta))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn run_path(&self, run: u32) -> PathBuf {
        self.dir.join(run_blob_name(run))
    }

    fn cursor_path(&self) -> PathBuf {
        self.dir.join(CURSOR_FILE)
    }

    /// Spills one completed run's accumulators and returns the exact
    /// framed bytes written to disk — the dispatch worker streams them
    /// verbatim, so the coordinator's copy is the on-disk record.
    pub fn write_run_bytes(&self, run: u32, field: &CellField) -> Result<Vec<u8>, StoreError> {
        let bytes = frame(KIND_RUN, self.spec_hash, 4 + field_len(field), |buf| {
            push_u32(buf, run);
            push_field(buf, field);
        });
        write_atomic(&self.run_path(run), &bytes)?;
        Ok(bytes)
    }

    /// Reads one run's accumulators back, bit for bit. `grid` is the grid
    /// the sweep's plan assigns to the run; a blob of any other shape is
    /// rejected.
    pub fn read_run(&self, run: u32, grid: &GridSpec) -> Result<CellField, StoreError> {
        let path = self.run_path(run);
        let buf = std::fs::read(&path)
            .map_err(|e| StoreError::new(&path, format!("cannot read: {e}")))?;
        decode_run_blob(&path, &buf, run, self.spec_hash, grid)
    }

    /// Writes the resume cursor (checkpoint commit point) and returns the
    /// exact framed bytes written to disk (see [`Self::write_run_bytes`]).
    pub fn write_cursor_bytes(&self, cursor: &CursorRecord) -> Result<Vec<u8>, StoreError> {
        let partial_len = cursor.partial.as_ref().map_or(0, |(_, field)| 4 + field_len(field));
        let bytes = frame(KIND_CURSOR, self.spec_hash, 8 + 8 + 4 * 4 + 1 + partial_len, |buf| {
            push_u64(buf, cursor.next_item);
            push_u64(buf, cursor.total_items);
            push_u32(buf, cursor.next_run);
            push_u32(buf, cursor.next_pass);
            push_u32(buf, cursor.next_col);
            push_u32(buf, cursor.next_row);
            match &cursor.partial {
                None => buf.push(0),
                Some((run, field)) => {
                    buf.push(1);
                    push_u32(buf, *run);
                    push_field(buf, field);
                }
            }
        });
        write_atomic(&self.cursor_path(), &bytes)?;
        Ok(bytes)
    }

    /// Reads the resume cursor; `None` when no checkpoint was ever
    /// committed (fresh store). `grid_of` resolves a run index to its grid
    /// (from the sweep's plan) so the partial field can be rebuilt.
    pub fn read_cursor(
        &self,
        grid_of: impl Fn(u32) -> Option<GridSpec>,
    ) -> Result<Option<CursorRecord>, StoreError> {
        let path = self.cursor_path();
        let buf = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::new(&path, format!("cannot read: {e}"))),
        };
        let payload = unframe(&path, &buf, KIND_CURSOR, self.spec_hash)?;
        let mut r = Reader { buf: payload, pos: 0, path: &path };
        let next_item = r.u64()?;
        let total_items = r.u64()?;
        let next_run = r.u32()?;
        let next_pass = r.u32()?;
        let next_col = r.u32()?;
        let next_row = r.u32()?;
        let partial = match r.take(1)?[0] {
            0 => None,
            1 => {
                let run = r.u32()?;
                let grid = grid_of(run).ok_or_else(|| {
                    StoreError::new(
                        &path,
                        format!("partial field names run {run}, which the sweep does not have"),
                    )
                })?;
                Some((run, r.field(&grid)?))
            }
            other => {
                return Err(StoreError::new(&path, format!("bad partial-field marker {other}")))
            }
        };
        r.done()?;
        Ok(Some(CursorRecord {
            next_item,
            total_items,
            next_run,
            next_pass,
            next_col,
            next_row,
            partial,
        }))
    }
}

// ---------------------------------------------------------------------------
// Checkpointed execution.
// ---------------------------------------------------------------------------

/// The contiguous run range shard `index` of `count` owns:
/// `[total·i/N, total·(i+1)/N)`. Covers every run exactly once across all
/// shards, with sizes differing by at most one.
pub fn shard_run_range(total_runs: usize, index: u32, count: u32) -> (usize, usize) {
    assert!(count >= 1 && index < count, "shard {index}/{count} is not a valid shard");
    let (i, n) = (index as usize, count as usize);
    (total_runs * i / n, total_runs * (i + 1) / n)
}

/// How to run a sweep checkpointed.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Store directory (one per sweep × shard).
    pub dir: PathBuf,
    /// This shard's index.
    pub shard_index: u32,
    /// Total shards.
    pub shard_count: u32,
    /// Work items folded between cursor commits.
    pub interval: usize,
    /// Testing hook: stop (with the cursor committed) once this many owned
    /// items have been folded, as if the process had been killed there.
    pub stop_after_items: Option<u64>,
}

impl CheckpointConfig {
    /// Unsharded checkpointing into `dir` with the default interval.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            shard_index: 0,
            shard_count: 1,
            interval: CHECKPOINT_INTERVAL,
            stop_after_items: None,
        }
    }
}

/// What a checkpointed invocation produced.
#[derive(Debug)]
pub enum CheckpointOutcome {
    /// Unsharded run finished: the full report, bitwise identical to
    /// [`Sweep::run`] on the same sweep.
    Complete(Box<SweepRun>),
    /// This shard's run range is fully spilled; merge the shards'
    /// stores with [`merge_stores`] (or `sixg-cli merge`) for the report.
    ShardComplete {
        /// This shard.
        shard_index: u32,
        /// Total shards.
        shard_count: u32,
        /// Items this shard folded in total.
        done_items: u64,
    },
    /// Stopped at a checkpoint boundary by `stop_after_items`; the store
    /// resumes from exactly here.
    Interrupted {
        /// Items folded so far (the committed cursor position).
        done_items: u64,
        /// The shard's work-list length.
        total_items: u64,
    },
}

/// One store mutation, observed as it commits. The dispatch worker maps
/// each event to a `STORE` frame so the coordinator always holds exactly
/// the state a fresh worker would need to resume this shard: spills are
/// observed *before* the cursor commit that covers them, so an observer
/// cut off mid-round is left with a cursor no newer than its blob set.
#[derive(Debug)]
pub enum StoreEvent<'a> {
    /// The store is open and validated (fresh or resumed); `manifest` is
    /// the canonical `manifest.json` bytes.
    Opened {
        /// The manifest bytes, exactly as on disk.
        manifest: &'a [u8],
    },
    /// A completed run's accumulators were spilled.
    RunSpilled {
        /// The run index.
        run: u32,
        /// The framed blob bytes, exactly as on disk.
        blob: &'a [u8],
    },
    /// The resume cursor was committed.
    CursorCommitted {
        /// Items folded so far (the committed cursor position).
        done_items: u64,
        /// The shard's work-list length.
        total_items: u64,
        /// The framed blob bytes, exactly as on disk.
        blob: &'a [u8],
    },
}

/// Runs `sweep` with on-disk checkpointing, resuming from whatever the
/// store already holds. See the module docs for the layout and the
/// bitwise-resume argument. The in-memory variant cap does not apply: a
/// sweep of any size, loaded with [`Sweep::new`] or [`Sweep::from_file`],
/// runs here.
pub fn run_checkpointed(
    sweep: &Sweep,
    cfg: &CheckpointConfig,
) -> Result<CheckpointOutcome, CheckpointError> {
    run_checkpointed_observed(sweep, cfg, &mut |_| true)
}

/// [`run_checkpointed`] with a [`StoreEvent`] observer called at every
/// store mutation. The observer returning `false` stops the sweep at the
/// next safe point with [`CheckpointOutcome::Interrupted`] — the store
/// (and everything already observed) stays valid for resumption, exactly
/// as if the process had been killed there.
pub fn run_checkpointed_observed(
    sweep: &Sweep,
    cfg: &CheckpointConfig,
    observe: &mut dyn FnMut(StoreEvent<'_>) -> bool,
) -> Result<CheckpointOutcome, CheckpointError> {
    assert!(cfg.interval >= 1, "checkpoint interval must be at least 1");
    if !(cfg.shard_count >= 1 && cfg.shard_index < cfg.shard_count) {
        return Err(StoreError::new(
            &cfg.dir,
            format!("shard {}/{} is not a valid shard", cfg.shard_index, cfg.shard_count),
        )
        .into());
    }

    let plan = sweep.plan()?;
    let total_runs = plan.runs.len();
    let (runs_from, runs_to) = shard_run_range(total_runs, cfg.shard_index, cfg.shard_count);
    // Work lists and items of the owned runs only.
    let runners = plan.indexed(runs_from..runs_to);
    let owned = runners.items();
    let shard_of = |item| runners.shard(item);

    let meta = StoreMeta {
        spec_hash: sweep_content_hash(sweep),
        sweep: sweep.spec.name.clone(),
        total_runs: total_runs as u64,
        total_items: owned.len() as u64,
        shard_index: cfg.shard_index,
        shard_count: cfg.shard_count,
        runs_from: runs_from as u64,
        runs_to: runs_to as u64,
    };
    let store = CheckpointStore::open(&cfg.dir, &meta)?;

    // Resume point: the committed cursor, validated against the recomputed
    // work list, plus the in-progress run's partial accumulators.
    let grid_of = |r: u32| ((r as usize) < total_runs).then(|| plan.grid_of(r as usize).clone());
    let cursor = store.read_cursor(grid_of)?;
    let cursor_path = store.cursor_path();
    let (mut next, mut cur): (usize, Option<(u32, CellField)>) = match cursor {
        None => (0, None),
        Some(c) => {
            if c.total_items != owned.len() as u64 || c.next_item > c.total_items {
                return Err(StoreError::new(
                    &cursor_path,
                    format!(
                        "cursor covers {} items at position {}, but this shard's work list \
                         has {} items — the store belongs to a different sweep or shard",
                        c.total_items,
                        c.next_item,
                        owned.len()
                    ),
                )
                .into());
            }
            let next = c.next_item as usize;
            if next < owned.len() {
                let (ri, shard) = (owned[next].0, shard_of(owned[next]));
                let want = (ri, shard.pass, shard.cell.col, shard.cell.row);
                let got = (c.next_run, c.next_pass, c.next_col, c.next_row);
                if got != want {
                    return Err(StoreError::new(
                        &cursor_path,
                        format!(
                            "cursor points at (run {}, pass {}, cell {},{}) but item {next} \
                             of the recomputed work list is (run {}, pass {}, cell {},{})",
                            got.0, got.1, got.2, got.3, want.0, want.1, want.2, want.3
                        ),
                    )
                    .into());
                }
                if let Some((pr, _)) = &c.partial {
                    if *pr != ri {
                        return Err(StoreError::new(
                            &cursor_path,
                            format!(
                                "partial accumulator is for run {pr}, but the cursor's next \
                                 item belongs to run {ri}"
                            ),
                        )
                        .into());
                    }
                }
            } else if c.partial.is_some() {
                return Err(StoreError::new(
                    &cursor_path,
                    "cursor is complete yet carries a partial accumulator",
                )
                .into());
            }
            // Every owned run strictly before the cursor must have been
            // spilled; read each blob back now so corruption surfaces at
            // resume, not at the very end of a long run.
            let boundary = if next < owned.len() { owned[next].0 as usize } else { runs_to };
            for run in runs_from..boundary {
                store.read_run(run as u32, plan.grid_of(run))?;
            }
            (next, c.partial)
        }
    };

    // The store is open and the resume point validated: give the observer
    // the manifest first, so a streaming consumer can bind every later
    // blob to the store identity.
    let manifest_json = meta.to_json();
    let interrupted = |done: usize| CheckpointOutcome::Interrupted {
        done_items: done as u64,
        total_items: owned.len() as u64,
    };
    if !observe(StoreEvent::Opened { manifest: manifest_json.as_bytes() }) {
        return Ok(interrupted(next));
    }

    // The fold loop: rounds of `interval` items, cursor committed after
    // each round. The sweep fold hands over each run the moment its last
    // item folds, and the sink spills it.
    let stop = cfg.stop_after_items.map(|s| s as usize);
    while next < owned.len() {
        if stop.is_some_and(|s| next >= s) {
            return Ok(interrupted(next));
        }
        let mut end = (next + cfg.interval).min(owned.len());
        if let Some(s) = stop {
            end = end.min(s.max(next + 1));
        }

        // An observer that bails at a spill leaves the cursor on disk (and
        // on the observer's side) at the round start, which is a valid
        // resume point — runs spilled past it are harmless extras a resume
        // rewrites with identical bytes.
        let spilled = plan.fold(&runners, &owned, next..end, &mut cur, |run, field| {
            match store.write_run_bytes(run, &field) {
                Err(e) => ControlFlow::Break(Err(e.into())),
                Ok(blob) if !observe(StoreEvent::RunSpilled { run, blob: &blob }) => {
                    ControlFlow::Break(Ok(interrupted(next)))
                }
                Ok(_) => ControlFlow::Continue(()),
            }
        });
        if let ControlFlow::Break(outcome) = spilled {
            return outcome;
        }

        next = end;
        let (next_run, next_pass, next_col, next_row) = if next < owned.len() {
            let shard = shard_of(owned[next]);
            (owned[next].0, shard.pass, shard.cell.col, shard.cell.row)
        } else {
            (0, 0, 0, 0)
        };
        let blob = store.write_cursor_bytes(&CursorRecord {
            next_item: next as u64,
            total_items: owned.len() as u64,
            next_run,
            next_pass,
            next_col,
            next_row,
            partial: cur.clone(),
        })?;
        if !observe(StoreEvent::CursorCommitted {
            done_items: next as u64,
            total_items: owned.len() as u64,
            blob: &blob,
        }) {
            return Ok(interrupted(next));
        }
    }

    // Shard complete. An unsharded run reassembles the full report from the
    // spilled blobs — the same read-back path `merge_stores` uses, so the
    // resumed, the never-killed and the merged reports share every bit.
    if cfg.shard_count == 1 {
        let fields = (0..total_runs)
            .map(|run| store.read_run(run as u32, plan.grid_of(run)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CheckpointOutcome::Complete(Box::new(plan.build_sweep_run(sweep, fields))))
    } else {
        Ok(CheckpointOutcome::ShardComplete {
            shard_index: cfg.shard_index,
            shard_count: cfg.shard_count,
            done_items: owned.len() as u64,
        })
    }
}

/// Folds the disjoint shard stores of one sweep into the full
/// [`SweepRun`], bit-identical to an unsharded run. Every shard must be
/// complete, every run covered exactly once, and every store must carry
/// the sweep's content hash.
pub fn merge_stores(sweep: &Sweep, dirs: &[impl AsRef<Path>]) -> Result<SweepRun, CheckpointError> {
    let plan = sweep.plan()?;
    let total_runs = plan.runs.len();
    let spec_hash = sweep_content_hash(sweep);
    if dirs.is_empty() {
        return Err(SpecError::new("$", "merge needs at least one shard store").into());
    }

    let mut owner: Vec<Option<usize>> = vec![None; total_runs];
    let mut stores = Vec::with_capacity(dirs.len());
    for (di, dir) in dirs.iter().enumerate() {
        let dir = dir.as_ref();
        let (store, meta) = CheckpointStore::load(dir)?;
        if meta.spec_hash != spec_hash {
            return Err(StoreError::new(
                dir.join("manifest.json"),
                format!(
                    "spec hash mismatch: store was written for sweep {:016x} (`{}`), \
                     this sweep hashes to {spec_hash:016x}",
                    meta.spec_hash, meta.sweep
                ),
            )
            .into());
        }
        if meta.total_runs != total_runs as u64 {
            return Err(StoreError::new(
                dir.join("manifest.json"),
                format!(
                    "store covers a {}-run matrix, this sweep compiles to {total_runs} runs",
                    meta.total_runs
                ),
            )
            .into());
        }
        let grid_of =
            |r: u32| ((r as usize) < total_runs).then(|| plan.grid_of(r as usize).clone());
        let complete = store.read_cursor(grid_of)?.is_some_and(|c| c.is_complete());
        if !complete {
            return Err(StoreError::new(
                dir,
                "shard is incomplete — resume it with `sweep --checkpoint` before merging",
            )
            .into());
        }
        for run in meta.runs_from..meta.runs_to {
            let run = run as usize;
            if run >= total_runs {
                return Err(StoreError::new(
                    dir.join("manifest.json"),
                    format!(
                        "run range [{}, {}) exceeds the {total_runs}-run matrix",
                        meta.runs_from, meta.runs_to
                    ),
                )
                .into());
            }
            if let Some(prev) = owner[run] {
                return Err(StoreError::new(
                    dir,
                    format!(
                        "run {run} is owned by both {} and this store — shard ranges overlap",
                        dirs[prev].as_ref().display()
                    ),
                )
                .into());
            }
            owner[run] = Some(di);
        }
        stores.push(store);
    }

    let mut fields = Vec::with_capacity(total_runs);
    for (run, slot) in owner.iter().enumerate() {
        let Some(di) = *slot else {
            return Err(StoreError::new(
                dirs[0].as_ref().parent().unwrap_or_else(|| dirs[0].as_ref()),
                format!("no shard store covers run {run} — the shard set is incomplete"),
            )
            .into());
        };
        fields.push(stores[di].read_run(run as u32, plan.grid_of(run))?);
    }
    Ok(plan.build_sweep_run(sweep, fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixg_geo::{CellId, GeoPoint};

    fn grid() -> GridSpec {
        GridSpec::new(GeoPoint::new(46.65, 14.25), 4, 3, 1.0)
    }

    fn sample_field() -> CellField {
        let mut f = CellField::new(grid());
        for i in 0..200u64 {
            let cell = CellId::new((i % 4) as u32, (i % 3) as u32);
            f.push(cell, 35.0 + (i as f64 * 0.7).sin() * 12.0);
        }
        f
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sixg-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta(hash: u64) -> StoreMeta {
        StoreMeta {
            spec_hash: hash,
            sweep: "unit".into(),
            total_runs: 3,
            total_items: 42,
            shard_index: 0,
            shard_count: 1,
            runs_from: 0,
            runs_to: 3,
        }
    }

    #[test]
    fn run_blob_round_trips_bitwise() {
        let dir = scratch("roundtrip");
        let store = CheckpointStore::open(&dir, &meta(0xABCD)).expect("open");
        let f = sample_field();
        store.write_run_bytes(1, &f).expect("write");
        let back = store.read_run(1, &grid()).expect("read");
        assert_eq!(back.accumulator_bits(), f.accumulator_bits());
        // A record is its header, run index, shape, count, 24 bytes a cell
        // and the checksum.
        let bytes = std::fs::read(dir.join("run_00001.blob")).expect("read blob");
        assert_eq!(bytes.len(), HEADER_LEN + 4 + 16 + grid().len() * 24 + 8);
        let empty = CellField::new(grid());
        store.write_run_bytes(2, &empty).expect("write empty");
        let back = store.read_run(2, &grid()).expect("read empty");
        assert_eq!(back.accumulator_bits(), empty.accumulator_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cursor_round_trips_with_partial() {
        let dir = scratch("cursor");
        let store = CheckpointStore::open(&dir, &meta(7)).expect("open");
        assert!(store.read_cursor(|_| Some(grid())).expect("no cursor yet").is_none());
        let c = CursorRecord {
            next_item: 17,
            total_items: 42,
            next_run: 1,
            next_pass: 2,
            next_col: 3,
            next_row: 1,
            partial: Some((1, sample_field())),
        };
        store.write_cursor_bytes(&c).expect("write");
        let back = store.read_cursor(|_| Some(grid())).expect("read").expect("present");
        assert_eq!(back.next_item, 17);
        assert_eq!(back.total_items, 42);
        assert_eq!((back.next_run, back.next_pass, back.next_col, back.next_row), (1, 2, 3, 1));
        assert!(!back.is_complete());
        let (run, pf) = back.partial.expect("partial survives");
        assert_eq!(run, 1);
        assert_eq!(pf.accumulator_bits(), sample_field().accumulator_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_blob_is_rejected_with_path() {
        let dir = scratch("truncate");
        let store = CheckpointStore::open(&dir, &meta(9)).expect("open");
        store.write_run_bytes(0, &sample_field()).expect("write");
        let path = dir.join("run_00000.blob");
        let bytes = std::fs::read(&path).expect("read blob");
        for keep in [0usize, 10, 31, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..keep]).expect("truncate");
            let err = store.read_run(0, &grid()).expect_err("must reject");
            assert!(
                err.message.contains("truncated")
                    || err.message.contains("checksum")
                    || err.message.contains("shorter"),
                "keep={keep}: {err}"
            );
            assert!(err.path.contains("run_00000.blob"), "error must name the file: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        let dir = scratch("version");
        let store = CheckpointStore::open(&dir, &meta(9)).expect("open");
        store.write_run_bytes(0, &sample_field()).expect("write");
        let path = dir.join("run_00000.blob");
        let good = std::fs::read(&path).expect("read blob");

        let mut bad = good.clone();
        bad[8] = 0xFF; // version field
        std::fs::write(&path, &bad).expect("doctor");
        let err = store.read_run(0, &grid()).expect_err("bad version");
        // The checksum notices the flip first unless it is recomputed; a
        // *consistently* re-signed wrong version must name the version:
        // the previous layout's and a future one's.
        for version in [STORE_VERSION - 1, STORE_VERSION + 1] {
            let mut resigned = good.clone();
            resigned[8..12].copy_from_slice(&version.to_le_bytes());
            let body_len = resigned.len() - 8;
            let sum = fnv1a64(&resigned[..body_len]);
            resigned[body_len..].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &resigned).expect("doctor");
            let err2 = store.read_run(0, &grid()).expect_err("bad version resigned");
            let want =
                format!("unsupported store version {version} (this build reads {STORE_VERSION})");
            assert_eq!(err2.message, want);
        }
        assert!(err.message.contains("checksum") || err.message.contains("version"), "{err}");

        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).expect("doctor");
        let err = store.read_run(0, &grid()).expect_err("bad magic");
        assert!(err.message.contains("magic"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store directory of the version-1 layout (40 bytes a cell) is
    /// refused at its manifest, on open and on load, before any blob is
    /// read.
    #[test]
    fn version_1_manifest_is_refused() {
        let dir = scratch("v1-manifest");
        let store = CheckpointStore::open(&dir, &meta(3)).expect("open");
        store.write_run_bytes(0, &sample_field()).expect("write");
        let manifest = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        let (v2, v1) = ("\"store_version\": 2,", "\"store_version\": 1,");
        assert!(text.contains(v2), "{text}");
        std::fs::write(&manifest, text.replace(v2, v1)).expect("doctor manifest");
        for err in [
            CheckpointStore::open(&dir, &meta(3)).expect_err("open must refuse"),
            CheckpointStore::load(&dir).expect_err("load must refuse"),
        ] {
            assert_eq!(err.message, "unsupported store version 1 (this build reads 2)");
            assert!(err.path.ends_with(MANIFEST_FILE), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_hash_mismatch_is_rejected() {
        let dir = scratch("hash");
        let store = CheckpointStore::open(&dir, &meta(1)).expect("open");
        store.write_run_bytes(0, &sample_field()).expect("write");
        // Same directory opened for a different sweep: the manifest check
        // fires first.
        let err = CheckpointStore::open(&dir, &meta(2)).expect_err("different sweep");
        assert!(err.message.contains("spec hash mismatch"), "{err}");
        assert!(err.path.contains("manifest.json"), "{err}");
        // A blob smuggled across stores is caught by its own header.
        let other = CheckpointStore { dir: dir.clone(), spec_hash: 2 };
        let err = other.read_run(0, &grid()).expect_err("foreign blob");
        assert!(err.message.contains("spec hash mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let dir = scratch("corrupt");
        let store = CheckpointStore::open(&dir, &meta(5)).expect("open");
        store.write_run_bytes(0, &sample_field()).expect("write");
        let path = dir.join("run_00000.blob");
        let mut bytes = std::fs::read(&path).expect("read blob");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("doctor");
        let err = store.read_run(0, &grid()).expect_err("flipped bit");
        assert!(err.message.contains("checksum"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_shard_fields_must_fit_32_bits() {
        // Each wide value truncates to the unsharded store's own field
        // under `as u32`, so a truncating read would adopt the manifest.
        for (field, unsharded, wide) in
            [("shard_count", 1, 4_294_967_297u64), ("shard_index", 0, 4_294_967_296)]
        {
            let dir = scratch(&format!("wide-{field}"));
            CheckpointStore::open(&dir, &meta(4)).expect("open");
            let manifest = dir.join(MANIFEST_FILE);
            let text = std::fs::read_to_string(&manifest).expect("read manifest");
            let (from, to) = (format!("\"{field}\": {unsharded}"), format!("\"{field}\": {wide}"));
            assert!(text.contains(&from), "{text}");
            std::fs::write(&manifest, text.replace(&from, &to)).expect("doctor manifest");

            for err in [
                CheckpointStore::open(&dir, &meta(4)).expect_err("open must reject"),
                CheckpointStore::load(&dir).expect_err("load must reject"),
            ] {
                assert!(err.message.contains(field) && err.message.contains("32 bits"), "{err}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn blobs_without_manifest_are_not_adopted() {
        let dir = scratch("orphan");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("run_00000.blob"), b"junk").expect("plant blob");
        let err = CheckpointStore::open(&dir, &meta(1)).expect_err("orphan blobs");
        assert!(err.message.contains("no manifest"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_ranges_partition_all_runs() {
        for total in [1usize, 2, 3, 7, 100, 161] {
            for count in [1u32, 2, 3, 5, 8] {
                let mut covered = vec![false; total];
                let mut prev_end = 0;
                for i in 0..count {
                    let (a, b) = shard_run_range(total, i, count);
                    assert_eq!(a, prev_end, "ranges must be contiguous");
                    for slot in &mut covered[a..b] {
                        assert!(!*slot);
                        *slot = true;
                    }
                    prev_end = b;
                }
                assert_eq!(prev_end, total);
                assert!(covered.iter().all(|&c| c), "total={total} count={count}");
            }
        }
    }
}
