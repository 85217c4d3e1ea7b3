//! The `sixg-serve` wire protocol and daemon core.
//!
//! A long-lived campaign daemon: one [`sixg_measure::Executor`] (facade +
//! compiled-scenario cache) shared across thread-per-connection clients on
//! a plain `std::net` TCP socket. No async runtime, no external protocol
//! crates — the frame codec (now in [`sixg_measure::wire`], re-exported
//! below) is the entire dependency surface.
//!
//! ## The exchange
//!
//! A client sends one `REQUEST` frame per exchange — the payload is an
//! [`ExecRequest`] JSON document (`{"action": "run" | "sweep" | "validate",
//! ...}`). The server answers with zero or more `VARIANT` frames (sweep
//! requests stream one per completed campaign, in run order:
//! `{"run": N, "report": {…VariantReport…}}`) followed by exactly one
//! terminal frame: `REPORT` carrying [`sixg_measure::ExecReport::to_json`]
//! bytes on success, or `ERROR` carrying `{"code", "path", "message"}`
//! from the
//! facade's [`SpecError`]. The connection then idles for the next request;
//! clients close by shutting the socket down between frames.
//!
//! A dispatched shard request (`"stream_store": true`, sent by
//! [`sixg_measure::dispatch`]) adds `STORE` frames to the exchange: an
//! optional seed bundle follows the request (`"seed_store": true`), and
//! the server streams one `STORE` frame per checkpoint-store mutation —
//! manifest, spilled run blobs, committed cursors — before the terminal
//! frame, so the coordinator can resume the shard elsewhere if this
//! worker dies. Store names resolve under the server's scratch root
//! ([`Server::set_scratch`]), never absolute paths.
//!
//! ## Determinism on the wire
//!
//! `REPORT` payloads are the same bytes [`sixg_measure::execute`] would
//! serialise in-process: no wall times, no connection state, no cache
//! tags. Identical requests therefore produce byte-identical payloads
//! regardless of concurrent load, scenario-cache hits, or pool size — the
//! property `repro_serve` and `tests/serve.rs` gate on.

use sixg_measure::dispatch::run_streamed_shard;
use sixg_measure::exec::{ExecRequest, Executor};
use sixg_measure::parallel::with_thread_count;
use sixg_measure::spec::{ErrorCode, SpecError};
use sixg_measure::store::{run_blob_name, StoreEvent, CURSOR_FILE, MANIFEST_FILE};
use sixg_measure::sweep::VariantReport;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

// The frame codec lives in `sixg_measure::wire` (the dispatch coordinator
// speaks it too); re-exported here so the daemon, its client, perfbench and
// the tests keep one import surface.
pub use sixg_measure::wire::{
    error_payload, read_frame, variant_payload, write_frame, FrameKind, StoreBundle, HEADER_LEN,
};

/// Process-unique scratch-directory counter: several in-process servers
/// (a test fleet) must never share a default scratch root.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A deterministic worker-death schedule for fault drills: the server
/// counts the `STORE` frames it writes across all connections and, when
/// the armed count is reached, shuts the active socket down mid-stream
/// and refuses every connection from then on — a worker that died
/// mid-shard and stayed dead, without any process-kill timing race.
#[derive(Debug)]
pub struct FaultPlan {
    /// `STORE` frames left until death; negative = disarmed.
    remaining: AtomicI64,
    dead: AtomicBool,
}

impl FaultPlan {
    fn disarmed() -> Self {
        Self { remaining: AtomicI64::new(-1), dead: AtomicBool::new(false) }
    }

    /// Called after each written `STORE` frame; true when the plan fires
    /// on exactly this frame.
    fn on_store_frame(&self) -> bool {
        if self.remaining.load(Ordering::SeqCst) < 0 {
            return false;
        }
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.dead.store(true, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// True once the plan has fired (the worker is dead).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }
}

/// The daemon: a bound listener plus the shared executor every connection
/// multiplexes onto.
pub struct Server {
    listener: TcpListener,
    executor: Arc<Executor>,
    threads: Option<usize>,
    scratch: PathBuf,
    fault: Arc<FaultPlan>,
}

impl Server {
    /// Binds `addr` (`"127.0.0.1:0"` picks an ephemeral port — read it
    /// back with [`Self::local_addr`]). `cache_capacity` bounds the shared
    /// compiled-scenario cache; `threads`, when set, pins the rayon pool
    /// size each connection thread uses (results are bitwise identical
    /// either way — this only shapes load).
    pub fn bind(addr: &str, cache_capacity: usize, threads: Option<usize>) -> io::Result<Self> {
        let scratch = std::env::temp_dir().join(format!(
            "sixg-serve-scratch-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            executor: Arc::new(Executor::with_capacity(cache_capacity)),
            threads,
            scratch,
            fault: Arc::new(FaultPlan::disarmed()),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared executor (for in-process smoke tests and stats).
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// The scratch root dispatched shard stores are resolved under
    /// (`--scratch` on the binary). Defaults to a process-unique
    /// directory under the system temp dir.
    pub fn scratch(&self) -> &PathBuf {
        &self.scratch
    }

    /// Overrides the scratch root.
    pub fn set_scratch(&mut self, dir: impl Into<PathBuf>) {
        self.scratch = dir.into();
    }

    /// Arms the worker-death drill: die mid-stream on the `k`-th written
    /// `STORE` frame (`k >= 1`) and refuse all connections afterwards.
    pub fn set_fault_plan(&self, kill_after_store_frames: u64) {
        self.fault.store_arm(kill_after_store_frames);
    }

    /// The accept loop: one thread per connection, forever. Accept errors
    /// on a single connection are skipped; only a dead listener returns.
    /// Once the fault plan fires, every accepted connection is dropped on
    /// the floor — the worker stays dead.
    pub fn run(&self) -> io::Result<()> {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(e),
            };
            if self.fault.is_dead() {
                drop(stream);
                continue;
            }
            let executor = Arc::clone(&self.executor);
            let threads = self.threads;
            let scratch = self.scratch.clone();
            let fault = Arc::clone(&self.fault);
            std::thread::spawn(move || {
                serve_connection(&executor, stream, threads, &scratch, &fault)
            });
        }
    }
}

impl FaultPlan {
    fn store_arm(&self, kill_after_store_frames: u64) {
        let k = kill_after_store_frames.max(1) as i64;
        self.remaining.store(k, Ordering::SeqCst);
    }
}

/// One connection's request loop: frames in, frames out, until the client
/// shuts down or the stream turns unrecoverable.
fn serve_connection(
    executor: &Executor,
    mut stream: TcpStream,
    threads: Option<usize>,
    scratch: &std::path::Path,
    fault: &FaultPlan,
) {
    let _ = stream.set_nodelay(true);
    loop {
        if fault.is_dead() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let (kind, payload) = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean shutdown, client vanished, or garbage on the wire:
            // nothing sensible to answer on this socket either way.
            Ok(None) | Err(_) => return,
        };
        if kind != FrameKind::Request {
            let e = SpecError::coded(
                ErrorCode::Schema,
                "$",
                format!("expected a REQUEST frame, got kind {}", kind.as_u8()),
            );
            let _ = write_frame(&mut stream, FrameKind::Error, &error_payload(&e));
            return;
        }
        let outcome = std::str::from_utf8(&payload)
            .map_err(|_| {
                SpecError::coded(ErrorCode::InvalidJson, "$", "request payload is not UTF-8")
            })
            .and_then(ExecRequest::from_json);
        let request = match outcome {
            Ok(request) => request,
            Err(e) => {
                // A malformed request poisons nothing: answer and keep the
                // connection for the client's next attempt.
                if write_frame(&mut stream, FrameKind::Error, &error_payload(&e)).is_err() {
                    return;
                }
                continue;
            }
        };
        let alive = if request.stream_store {
            answer_stream_request(&mut stream, &request, threads, scratch, fault)
        } else {
            answer_request(executor, &mut stream, &request, threads)
        };
        if !alive {
            return;
        }
    }
}

/// Executes one decoded request and writes the response frames; `false`
/// means the socket died and the connection loop should end.
fn answer_request(
    executor: &Executor,
    stream: &mut TcpStream,
    request: &ExecRequest,
    threads: Option<usize>,
) -> bool {
    let mut wire_dead = false;
    let mut emit = |run: usize, report: &VariantReport| {
        if !wire_dead {
            let payload = variant_payload(run, report);
            wire_dead = write_frame(&mut *stream, FrameKind::Variant, &payload).is_err();
        }
    };
    let result = match threads {
        Some(t) => with_thread_count(t, || executor.execute_streaming(request, &mut emit)),
        None => executor.execute_streaming(request, &mut emit),
    };
    if wire_dead {
        return false;
    }
    let written = match result {
        Ok(report) => write_frame(stream, FrameKind::Report, report.to_json().as_bytes()),
        Err(e) => write_frame(stream, FrameKind::Error, &error_payload(&e)),
    };
    written.is_ok()
}

/// Executes one dispatched shard request (`stream_store: true`): resolve
/// the store name under the scratch root, read the optional seed `STORE`
/// frame, run the shard with every store mutation echoed back as a
/// `STORE` frame, then the terminal `REPORT`/`ERROR`. `false` means the
/// socket died (or the fault drill fired) and the connection should end.
fn answer_stream_request(
    stream: &mut TcpStream,
    request: &ExecRequest,
    threads: Option<usize>,
    scratch: &std::path::Path,
    fault: &FaultPlan,
) -> bool {
    // Validate before touching the filesystem: the store name is only
    // trustworthy once `validate` vouched for it.
    if let Err(e) = request.validate() {
        return write_frame(stream, FrameKind::Error, &error_payload(&e)).is_ok();
    }
    let name = request.checkpoint.as_deref().expect("validated: stream_store has checkpoint");
    let store_dir = scratch.join(name);

    let seed = if request.seed_store {
        match read_frame(stream) {
            Ok(Some((FrameKind::Store, payload))) => match StoreBundle::decode(&payload) {
                Ok(bundle) => Some(bundle),
                // A corrupt seed is protocol garbage, not a request error:
                // the stream is out of step, close it.
                Err(_) => return false,
            },
            _ => return false,
        }
    } else {
        None
    };

    let mut wire_dead = false;
    let mut observe = |ev: StoreEvent<'_>| -> bool {
        if wire_dead {
            return false;
        }
        let (entry, bytes): (String, &[u8]) = match ev {
            StoreEvent::Opened { manifest } => (MANIFEST_FILE.to_string(), manifest),
            StoreEvent::RunSpilled { run, blob } => (run_blob_name(run), blob),
            StoreEvent::CursorCommitted { blob, .. } => (CURSOR_FILE.to_string(), blob),
        };
        let mut bundle = StoreBundle::new();
        bundle.push(&entry, bytes.to_vec());
        if write_frame(&mut *stream, FrameKind::Store, &bundle.encode()).is_err() {
            wire_dead = true;
            return false;
        }
        if fault.on_store_frame() {
            // The drill: die mid-stream, abruptly, exactly here.
            let _ = stream.shutdown(Shutdown::Both);
            wire_dead = true;
            return false;
        }
        true
    };
    let result = match threads {
        Some(t) => with_thread_count(t, || {
            run_streamed_shard(request, &store_dir, seed.as_ref(), &mut observe)
        }),
        None => run_streamed_shard(request, &store_dir, seed.as_ref(), &mut observe),
    };
    if wire_dead {
        return false;
    }
    let written = match result {
        Ok(report) => write_frame(stream, FrameKind::Report, report.to_json().as_bytes()),
        Err(e) => write_frame(stream, FrameKind::Error, &error_payload(&e)),
    };
    written.is_ok()
}

// The frame-codec unit tests moved to `sixg_measure::wire` with the codec
// itself; what stays here is the daemon's own machinery.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_fires_on_the_armed_frame_and_stays_dead() {
        let plan = FaultPlan::disarmed();
        for _ in 0..100 {
            assert!(!plan.on_store_frame(), "disarmed plan must never fire");
        }
        assert!(!plan.is_dead());

        plan.store_arm(3);
        assert!(!plan.on_store_frame());
        assert!(!plan.on_store_frame());
        assert!(!plan.is_dead());
        assert!(plan.on_store_frame(), "third frame fires the plan");
        assert!(plan.is_dead());
        assert!(!plan.on_store_frame(), "the plan fires exactly once");
        assert!(plan.is_dead(), "death is permanent");
    }

    #[test]
    fn scratch_roots_are_process_unique() {
        let a = Server::bind("127.0.0.1:0", 1, None).expect("bind");
        let b = Server::bind("127.0.0.1:0", 1, None).expect("bind");
        assert_ne!(a.scratch(), b.scratch(), "two in-process servers must not share scratch");
    }
}
