//! The fault-tolerant distributed sweep coordinator.
//!
//! [`dispatch_sweep`] farms one sweep out to a fleet of `sixg-serve`
//! workers and folds the results into a [`SweepRun`] **bitwise identical**
//! to a single-machine `sixg-cli sweep` — the distributed counterpart of
//! the shard/merge machinery in [`crate::store`].
//!
//! ## How a sweep distributes
//!
//! The run range splits into *more* shards than workers
//! ([`DispatchConfig::shards_per_worker`], the work-stealing granularity).
//! Each worker gets one coordinator thread that claims shards off a shared
//! queue one at a time, so a slow worker simply takes fewer shards, and a
//! dead worker strands less work. Each shard is one checkpointed
//! [`ExecRequest`] (`stream_store: true`) driven over the length-framed
//! wire protocol of [`crate::wire`]: the worker runs the shard through
//! [`crate::store::run_checkpointed_observed`] against its own scratch
//! store and streams every store mutation back as a `STORE` frame —
//! manifest at open, each spilled `run_NNNNN.blob`, each committed
//! `cursor.blob`. The coordinator never touches a shared filesystem; its
//! in-memory copy of each shard's store *is* the blobs the worker wrote,
//! byte for byte.
//!
//! ## Why reassignment preserves determinism
//!
//! Spills stream strictly before the cursor commit that covers them (see
//! [`crate::store::StoreEvent`]), and TCP delivers in order — so whatever
//! prefix of frames the coordinator holds when a worker dies, its cursor
//! is never *newer* than its run-blob set. Reassignment seeds a live
//! worker with exactly that state (`seed_store: true` + one `STORE`
//! frame); the worker plants it in a fresh store directory and
//! [`crate::store::run_checkpointed`]'s resume path takes over. Resume is
//! bitwise (the run-major fold replays the exact accumulation sequence),
//! so a shard that died and moved twice produces the same blob bytes as
//! one that never moved — which is why the final fold, and therefore the
//! merged report, cannot tell the difference.
//!
//! ## Failure policy
//!
//! Every connect has a 5 s deadline and every frame read or write a 600 s
//! one. Connection-shaped failures ([`crate::wire::is_transient_io`])
//! requeue the shard and retry the worker after capped exponential backoff
//! (50 ms, doubling up to 2 s); five consecutive failures declare the
//! worker dead and its thread exits. Protocol garbage (`InvalidData`)
//! declares the worker dead immediately — a peer that frames wrongly will
//! frame wrongly again. A worker answering with an `ERROR` frame aborts
//! the whole dispatch: request-level errors are deterministic, so every
//! reassignment would fail identically. When the last worker dies with
//! shards outstanding, the dispatch fails with
//! [`DispatchError::AllWorkersDead`].

use crate::aggregate::CellField;
use crate::exec::{build_sweep, run_checkpointed_request, ExecReport, ExecRequest, ShardSel};
use crate::spec::SpecError;
use crate::store::{
    decode_run_blob, run_blob_name, shard_run_range, sweep_content_hash, StoreEvent, CURSOR_FILE,
    MANIFEST_FILE,
};
use crate::sweep::{Sweep, SweepRun};
use crate::wire::{is_transient_io, read_frame, write_frame, FrameKind, StoreBundle};
use serde::Value;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Configuration, stats, errors.
// ---------------------------------------------------------------------------

/// Socket read/write deadline on every frame.
const FRAME_TIMEOUT: Duration = Duration::from_secs(600);
/// TCP connect deadline.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// First reconnect backoff; doubles per consecutive failure.
const BACKOFF_INITIAL: Duration = Duration::from_millis(50);
/// Backoff cap.
const BACKOFF_MAX: Duration = Duration::from_secs(2);
/// Consecutive transient failures before a worker is declared dead.
const MAX_ATTEMPTS: u32 = 5;

/// How to distribute a sweep over a worker fleet.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Worker addresses (`host:port`), each a running `sixg-serve`.
    pub workers: Vec<String>,
    /// Shards per worker — the work-stealing granularity. The shard count
    /// is `workers × shards_per_worker`, clamped to the run count.
    pub shards_per_worker: u32,
    /// Work items folded between cursor commits on the worker — the
    /// streaming cadence, and the upper bound on re-folded work after a
    /// mid-shard death.
    pub interval: usize,
}

impl DispatchConfig {
    /// Defaults tuned for a small LAN fleet.
    pub fn new(workers: Vec<String>) -> Self {
        Self { workers, shards_per_worker: 3, interval: 256 }
    }
}

/// What the coordinator did to get the report.
#[derive(Debug, Clone, Default)]
pub struct DispatchStats {
    /// Shards the run range was split into.
    pub shard_count: u32,
    /// Workers the dispatch started with.
    pub workers: usize,
    /// Shard assignments in total (first assignments + reassignments).
    pub assignments: u64,
    /// Assignments of a shard that had already been assigned before.
    pub reassignments: u64,
    /// Reassignments seeded with a streamed cursor — the shard resumed
    /// mid-flight instead of restarting.
    pub resumed_shards: u64,
    /// Reconnects after a transient connection failure.
    pub reconnects: u64,
    /// Workers declared dead, by address.
    pub dead_workers: Vec<String>,
}

/// A distributed sweep's result: the merged run plus the fault log.
#[derive(Debug)]
pub struct DispatchRun {
    /// The merged sweep run, bitwise identical to a single-machine sweep.
    pub run: Box<SweepRun>,
    /// What it took.
    pub stats: DispatchStats,
}

/// Why a dispatch failed.
#[derive(Debug)]
pub enum DispatchError {
    /// The sweep (or a request built from it) is invalid.
    Spec(SpecError),
    /// A worker answered with a protocol `ERROR` frame, streamed state
    /// failed to decode, or the folded state was inconsistent —
    /// deterministic failures no reassignment can fix.
    Fatal(String),
    /// Every worker died with shards outstanding.
    AllWorkersDead(String),
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::Spec(e) => write!(f, "{e}"),
            DispatchError::Fatal(m) => write!(f, "dispatch failed: {m}"),
            DispatchError::AllWorkersDead(m) => write!(f, "all workers dead: {m}"),
        }
    }
}

impl std::error::Error for DispatchError {}

impl From<SpecError> for DispatchError {
    fn from(e: SpecError) -> Self {
        DispatchError::Spec(e)
    }
}

// ---------------------------------------------------------------------------
// Coordinator state.
// ---------------------------------------------------------------------------

/// The coordinator's view of one shard: the latest streamed store state,
/// exactly the bytes a fresh worker needs to resume it.
#[derive(Debug, Default)]
struct ShardJob {
    manifest: Option<Vec<u8>>,
    cursor: Option<Vec<u8>>,
    runs: BTreeMap<u32, Vec<u8>>,
    assigned: u64,
    done: bool,
}

#[derive(Debug)]
struct Coord {
    queue: VecDeque<u32>,
    jobs: Vec<ShardJob>,
    pending: usize,
    live_workers: usize,
    /// `(all_workers_dead, message)` — the first fatal failure wins.
    fatal: Option<(bool, String)>,
    stats: DispatchStats,
}

struct Shared {
    coord: Mutex<Coord>,
    cv: Condvar,
}

impl Shared {
    fn set_fatal(&self, all_dead: bool, msg: String) {
        let mut g = self.coord.lock().expect("coord lock");
        if g.fatal.is_none() {
            g.fatal = Some((all_dead, msg));
        }
        self.cv.notify_all();
    }

    /// Declares the worker at `addr` dead. Its thread calls this once and
    /// exits; the last death with shards outstanding fails the dispatch.
    fn mark_dead(&self, addr: &str, why: &str) {
        let mut g = self.coord.lock().expect("coord lock");
        g.live_workers -= 1;
        g.stats.dead_workers.push(addr.to_string());
        if g.live_workers == 0 && g.pending > 0 && g.fatal.is_none() {
            g.fatal = Some((
                true,
                format!("last worker {addr} died ({why}) with {} shards outstanding", g.pending),
            ));
        }
        self.cv.notify_all();
    }
}

/// How one shard attempt ended, seen from a worker thread.
enum ShardFailure {
    /// Connection-shaped: requeue, back off, retry this worker.
    Transient(String),
    /// The worker speaks garbage: requeue and declare it dead now.
    WorkerBroken(String),
    /// Deterministic request-level failure: abort the whole dispatch.
    Fatal(String),
}

// ---------------------------------------------------------------------------
// The coordinator.
// ---------------------------------------------------------------------------

/// Process-unique store-name counter, so two dispatches from one process
/// (or two shards of one dispatch) never collide on a worker's scratch.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Distributes `sweep` over the fleet in `cfg` and folds the streamed
/// shard stores into the single-machine report. See the module docs for
/// the protocol and the failure policy.
pub fn dispatch_sweep(sweep: &Sweep, cfg: &DispatchConfig) -> Result<DispatchRun, DispatchError> {
    if cfg.workers.is_empty() {
        return Err(SpecError::new("$.workers", "dispatch needs at least one worker").into());
    }
    if cfg.shards_per_worker < 1 {
        return Err(SpecError::new("$.workers", "shards_per_worker must be at least 1").into());
    }

    let plan = sweep.plan()?;
    let total_runs = plan.runs.len();
    let spec_hash = sweep_content_hash(sweep);
    let shard_count = ((cfg.workers.len() as u64) * u64::from(cfg.shards_per_worker))
        .clamp(1, total_runs as u64) as u32;

    // Per-shard request JSON, both flavors, precomputed so worker threads
    // never touch the sweep. The store name is unique per (process,
    // dispatch, shard): reassignment reuses it — the new worker clears
    // the directory anyway, and a stable name keeps worker logs legible.
    let base_value = sweep.base_value().clone();
    let dispatch_id = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut requests = Vec::with_capacity(shard_count as usize);
    for index in 0..shard_count {
        let store_name =
            format!("dsp-{spec_hash:016x}-{}-{dispatch_id}-s{index:03}", std::process::id());
        let mut req = ExecRequest::sweep(sweep.spec.clone(), base_value.clone());
        req.checkpoint = Some(store_name);
        req.shard = Some(ShardSel { index, count: shard_count });
        req.interval = Some(cfg.interval);
        req.stream_store = true;
        let fresh = req.to_json();
        req.seed_store = true;
        let seeded = req.to_json();
        requests.push((fresh, seeded));
    }
    // Fail fast on an invalid request (e.g. an unsafe store name) before
    // any connection is made: every shard's request validates alike.
    {
        let mut probe = ExecRequest::sweep(sweep.spec.clone(), base_value.clone());
        probe.checkpoint =
            Some(format!("dsp-{spec_hash:016x}-{}-{dispatch_id}-s000", std::process::id()));
        probe.shard = Some(ShardSel { index: 0, count: shard_count });
        probe.interval = Some(cfg.interval);
        probe.stream_store = true;
        probe.validate()?;
    }

    let shared = Shared {
        coord: Mutex::new(Coord {
            queue: (0..shard_count).collect(),
            jobs: (0..shard_count).map(|_| ShardJob::default()).collect(),
            pending: shard_count as usize,
            live_workers: cfg.workers.len(),
            fatal: None,
            stats: DispatchStats {
                shard_count,
                workers: cfg.workers.len(),
                ..DispatchStats::default()
            },
        }),
        cv: Condvar::new(),
    };

    std::thread::scope(|scope| {
        for addr in &cfg.workers {
            let (shared, requests) = (&shared, &requests);
            scope.spawn(move || worker_thread(shared, requests, addr));
        }
    });

    let coord = shared.coord.into_inner().expect("coord lock");
    if let Some((all_dead, msg)) = coord.fatal {
        return Err(if all_dead {
            DispatchError::AllWorkersDead(msg)
        } else {
            DispatchError::Fatal(msg)
        });
    }
    debug_assert_eq!(coord.pending, 0);

    // The final fold: decode every shard's streamed run blobs and hand the
    // fields to the one report-construction path every execution mode
    // shares — byte identity with the offline sweep follows.
    let mut fields: Vec<CellField> = Vec::with_capacity(total_runs);
    for index in 0..shard_count {
        let job = &coord.jobs[index as usize];
        let (from, to) = shard_run_range(total_runs, index, shard_count);
        for run in from..to {
            let blob = job.runs.get(&(run as u32)).ok_or_else(|| {
                DispatchError::Fatal(format!(
                    "shard {index} completed without streaming run {run}'s blob"
                ))
            })?;
            let label = PathBuf::from(format!("wire:shard{index}/{}", run_blob_name(run as u32)));
            let field = decode_run_blob(&label, blob, run as u32, spec_hash, plan.grid_of(run))
                .map_err(|e| DispatchError::Fatal(e.to_string()))?;
            fields.push(field);
        }
    }
    Ok(DispatchRun { run: Box::new(plan.build_sweep_run(sweep, fields)), stats: coord.stats })
}

/// One worker's thread: claim shards off the queue one at a time, drive
/// each over the connection, survive transient failures, die after
/// [`MAX_ATTEMPTS`] in a row.
fn worker_thread(shared: &Shared, requests: &[(String, String)], addr: &str) {
    let mut conn: Option<TcpStream> = None;
    // Consecutive transient failures; a completed shard resets the count.
    let mut failures = 0u32;
    loop {
        // Claim a shard (or learn there is nothing left to do).
        let (index, request_json, seed) = {
            let mut g = shared.coord.lock().expect("coord lock");
            loop {
                if g.fatal.is_some() || g.pending == 0 {
                    return;
                }
                if let Some(index) = g.queue.pop_front() {
                    let (reassigned, resumed, seed) = {
                        let job = &mut g.jobs[index as usize];
                        job.assigned += 1;
                        let reassigned = job.assigned > 1;
                        let mut seed = StoreBundle::new();
                        if reassigned {
                            if let Some(m) = &job.manifest {
                                seed.push(MANIFEST_FILE, m.clone());
                            }
                            for (run, blob) in &job.runs {
                                seed.push(&run_blob_name(*run), blob.clone());
                            }
                            if let Some(c) = &job.cursor {
                                seed.push(CURSOR_FILE, c.clone());
                            }
                        }
                        (reassigned, job.cursor.is_some(), seed)
                    };
                    g.stats.assignments += 1;
                    if reassigned {
                        g.stats.reassignments += 1;
                        if resumed {
                            g.stats.resumed_shards += 1;
                        }
                    }
                    let json = if seed.is_empty() {
                        requests[index as usize].0.clone()
                    } else {
                        requests[index as usize].1.clone()
                    };
                    break (index, json, seed);
                }
                g = shared.cv.wait(g).expect("coord lock");
            }
        };

        match drive_shard(shared, addr, failures > 0, &mut conn, index, &request_json, &seed) {
            Ok(()) => {
                failures = 0;
                let mut g = shared.coord.lock().expect("coord lock");
                let job = &mut g.jobs[index as usize];
                if !job.done {
                    job.done = true;
                    g.pending -= 1;
                }
                shared.cv.notify_all();
            }
            Err(failure) => {
                conn = None;
                {
                    let mut g = shared.coord.lock().expect("coord lock");
                    g.queue.push_front(index);
                    shared.cv.notify_all();
                }
                match failure {
                    ShardFailure::Fatal(msg) => {
                        shared.set_fatal(false, msg);
                        return;
                    }
                    ShardFailure::WorkerBroken(msg) => {
                        shared.mark_dead(addr, &msg);
                        return;
                    }
                    ShardFailure::Transient(msg) => {
                        failures += 1;
                        if failures >= MAX_ATTEMPTS {
                            shared.mark_dead(addr, &msg);
                            return;
                        }
                        std::thread::sleep(backoff(failures));
                    }
                }
            }
        }
    }
}

/// Capped exponential backoff: `BACKOFF_INITIAL · 2^(failures-1)`, at most
/// `BACKOFF_MAX`.
fn backoff(failures: u32) -> Duration {
    let factor = 1u32 << (failures - 1).min(16);
    BACKOFF_INITIAL.saturating_mul(factor).min(BACKOFF_MAX)
}

/// Connects to `addr` within [`CONNECT_TIMEOUT`], with [`FRAME_TIMEOUT`]
/// on every read and write.
fn connect(addr: &str) -> io::Result<TcpStream> {
    let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: no address"))
    })?;
    let stream = TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
    stream.set_write_timeout(Some(FRAME_TIMEOUT))?;
    Ok(stream)
}

/// Drives one shard assignment over the worker's connection: request out,
/// store state in, terminal report. Store state is committed to the
/// shard's job under the coordinator lock per frame, so whatever prefix
/// arrives before a death is available for reassignment. A fresh
/// connection made after a failed attempt (`after_failure`) counts as a
/// reconnect.
fn drive_shard(
    shared: &Shared,
    addr: &str,
    after_failure: bool,
    conn: &mut Option<TcpStream>,
    index: u32,
    request_json: &str,
    seed: &StoreBundle,
) -> Result<(), ShardFailure> {
    let stream = match conn {
        Some(s) => s,
        None => {
            let fresh = connect(addr)
                .map_err(|e| ShardFailure::Transient(format!("worker {addr}: connect: {e}")))?;
            if after_failure {
                let mut g = shared.coord.lock().expect("coord lock");
                g.stats.reconnects += 1;
            }
            conn.insert(fresh)
        }
    };

    let io_failure = |what: &str, e: io::Error| -> ShardFailure {
        if is_transient_io(&e) {
            ShardFailure::Transient(format!("worker {addr}: {what}: {e}"))
        } else {
            ShardFailure::WorkerBroken(format!("worker {addr}: {what}: {e}"))
        }
    };

    write_frame(stream, FrameKind::Request, request_json.as_bytes())
        .map_err(|e| io_failure("send request", e))?;
    if !seed.is_empty() {
        write_frame(stream, FrameKind::Store, &seed.encode())
            .map_err(|e| io_failure("send seed store", e))?;
    }

    loop {
        let frame = read_frame(stream).map_err(|e| io_failure("read frame", e))?;
        let Some((kind, payload)) = frame else {
            return Err(ShardFailure::Transient(format!(
                "worker {addr}: connection closed mid-shard"
            )));
        };
        match kind {
            FrameKind::Store => {
                let bundle = StoreBundle::decode(&payload).map_err(|e| {
                    ShardFailure::WorkerBroken(format!("worker {addr}: bad store frame: {e}"))
                })?;
                let mut g = shared.coord.lock().expect("coord lock");
                let job = &mut g.jobs[index as usize];
                for (name, bytes) in bundle.entries() {
                    if name == MANIFEST_FILE {
                        job.manifest = Some(bytes.clone());
                    } else if name == CURSOR_FILE {
                        job.cursor = Some(bytes.clone());
                    } else if let Some(run) = parse_run_blob_name(name) {
                        job.runs.insert(run, bytes.clone());
                    } else {
                        return Err(ShardFailure::WorkerBroken(format!(
                            "worker {addr}: store frame names unknown entry {name:?}"
                        )));
                    }
                }
            }
            FrameKind::Variant => {
                // Checkpointed execution streams store state, not variant
                // reports; tolerate the frame for forward compatibility.
            }
            FrameKind::Report => {
                let text = std::str::from_utf8(&payload).unwrap_or("");
                let v: Value = serde_json::from_str(text).map_err(|e| {
                    ShardFailure::WorkerBroken(format!("worker {addr}: unparseable report: {e}"))
                })?;
                if v.get("interrupted").and_then(Value::as_bool) == Some(true) {
                    return Err(ShardFailure::Fatal(format!(
                        "worker {addr} reported shard {index} interrupted — dispatched \
                         requests never set stop_after_items, so the worker is misconfigured"
                    )));
                }
                return Ok(());
            }
            FrameKind::Error => {
                let text = String::from_utf8_lossy(&payload).into_owned();
                return Err(ShardFailure::Fatal(format!(
                    "worker {addr} rejected shard {index}: {text}"
                )));
            }
            FrameKind::Request => {
                return Err(ShardFailure::WorkerBroken(format!(
                    "worker {addr} sent a REQUEST frame to the coordinator"
                )));
            }
        }
    }
}

/// Parses `run_NNNNN.blob` back to the run index.
fn parse_run_blob_name(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("run_")?.strip_suffix(".blob")?;
    if digits.len() < 5 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// The worker side.
// ---------------------------------------------------------------------------

/// Runs one dispatched shard on the worker: plants the seed state (if
/// any) in a fresh store at `store_dir`, executes the checkpointed shard
/// with `observe` watching every store mutation, and maps the outcome to
/// the facade's [`ExecReport`]. The directory is cleared first — the
/// coordinator's streamed state is authoritative, never the worker's
/// leftovers from an earlier assignment.
pub fn run_streamed_shard(
    req: &ExecRequest,
    store_dir: &Path,
    seed: Option<&StoreBundle>,
    observe: &mut dyn FnMut(StoreEvent<'_>) -> bool,
) -> Result<ExecReport, SpecError> {
    req.validate()?;
    if !req.stream_store {
        return Err(SpecError::new(
            "$.stream_store",
            "run_streamed_shard drives stream_store requests only",
        ));
    }
    let sweep = build_sweep(req)?;

    let io_err = |what: &str, e: io::Error| {
        SpecError::coded(
            crate::spec::ErrorCode::Io,
            "$.checkpoint",
            format!("{what} {}: {e}", store_dir.display()),
        )
    };
    match std::fs::remove_dir_all(store_dir) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err("cannot clear store directory", e)),
    }
    std::fs::create_dir_all(store_dir).map_err(|e| io_err("cannot create store directory", e))?;
    if let Some(seed) = seed {
        for (name, bytes) in seed.entries() {
            // Bundle names are validated safe at decode; each resolves to
            // a plain file inside the fresh directory.
            std::fs::write(store_dir.join(name), bytes)
                .map_err(|e| io_err("cannot plant seed state in", e))?;
        }
    }

    run_checkpointed_request(req, &sweep, store_dir, observe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_blob_names_parse_back() {
        assert_eq!(parse_run_blob_name("run_00000.blob"), Some(0));
        assert_eq!(parse_run_blob_name("run_00042.blob"), Some(42));
        assert_eq!(parse_run_blob_name(&run_blob_name(123456)), Some(123456));
        assert_eq!(parse_run_blob_name("run_42.blob"), None);
        assert_eq!(parse_run_blob_name("manifest.json"), None);
        assert_eq!(parse_run_blob_name("run_abcde.blob"), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(1), Duration::from_millis(50));
        assert_eq!(backoff(2), Duration::from_millis(100));
        assert_eq!(backoff(3), Duration::from_millis(200));
        assert_eq!(backoff(10), Duration::from_secs(2));
        assert_eq!(backoff(63), Duration::from_secs(2));
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let sweep = Sweep::from_file(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/sweeps/klagenfurt_cadence.json"
        ))
        .expect("committed sweep loads");
        let err = dispatch_sweep(&sweep, &DispatchConfig::new(Vec::new()))
            .expect_err("no workers must fail");
        assert!(matches!(err, DispatchError::Spec(_)), "{err}");
    }
}
