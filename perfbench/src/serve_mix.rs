//! The `serve_mix` workload: `nproc` closed-loop clients against a
//! `sixg_bench::serve::Server` bound to `127.0.0.1:0` inside this process.
//!
//! The mix (see [`crate::harness::mix_sequence`]) is mostly `run` cache
//! hits on the hot specs with a small `passes` override and a campaign seed
//! from the run's pool, some `validate` requests, a small share of cold
//! Klagenfurt runs with a fresh scenario seed (they miss the cache, compile
//! under the daemon-wide cache lock and evict), and requests the daemon must
//! answer with a coded ERROR. Every REPORT must equal the bytes an
//! in-process `execute` of the same request produces.

use crate::harness::{
    mix_sequence, ms, Expect, Got, MixKind, SplitMix, Tally, HOT_SPECS, SEED_SLOTS,
};
use crate::trace::Tracer;
use sixg_bench::serve::{read_frame, write_frame, FrameKind, Server, HEADER_LEN};
use sixg_bench::serve_client::ServeClient;
use sixg_measure::exec::{ExecReport, ExecRequest, Executor, DEFAULT_CACHE_CAPACITY};
use sixg_measure::spec::{ErrorCode, ScenarioSpec};
use sixg_measure::store::fnv1a64;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The hot specs hits draw from, in [`MixKind::Hit::spec`] order.
pub const HOT: [&str; HOT_SPECS as usize] = ["klagenfurt", "megacity", "skopje"];

/// The `passes` override of hit and cold runs.
pub const RUN_PASSES: u32 = 2;

/// Fresh scenario seeds the cold runs cycle through. The pool is longer
/// than the cache has room for beside the hot specs, so every cold run
/// misses.
pub const COLD_POOL: usize = DEFAULT_CACHE_CAPACITY - HOT.len() + 1;

/// Mix blocks generated per run (far more requests than a run completes).
const BLOCKS: usize = 400;

/// Socket timeout of the benchmark's clients.
const TIMEOUT: Duration = Duration::from_secs(60);

type Res<T> = Result<T, String>;

/// One distinct request of the mix.
#[derive(Debug, Clone)]
pub struct Payload {
    /// Stable label (`"hit-0-3"`, `"cold-2"`, …), the reference-file key.
    pub label: String,
    /// The REQUEST frame payload.
    pub text: String,
    /// Request class (`"hit"`, `"validate"`, `"cold"`, `"conflict"`,
    /// `"invalid_json"`), for the per-class time shares.
    pub class: &'static str,
    /// What the daemon must answer.
    pub expect: Expect,
    /// Samples the answer folds (0 for validations and errors).
    pub samples: u64,
}

/// The generated mix: its distinct payloads and the request sequence.
#[derive(Debug)]
pub struct Mix {
    /// Distinct payloads.
    pub payloads: Vec<Payload>,
    /// Payload index of every position of the sequence.
    pub sequence: Vec<usize>,
}

fn hit_index(spec: u8, slot: u8) -> usize {
    usize::from(spec) * usize::from(SEED_SLOTS) + usize::from(slot)
}

impl Mix {
    /// The mix of workload seed `seed`, with references computed by an
    /// in-process `execute` of every distinct payload.
    pub fn build(root: &Path, seed: u64) -> Res<Self> {
        let mut mix = Self::new(root, seed)?;
        mix.reference()?;
        Ok(mix)
    }

    /// The mix of workload seed `seed`, whose expectations are only the
    /// designed outcomes until [`Self::reference`] fills them in.
    pub fn new(root: &Path, seed: u64) -> Res<Self> {
        let mut hot = Vec::new();
        for name in HOT {
            let path = root.join(format!("specs/{name}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            hot.push(ScenarioSpec::from_json(&text).map_err(|e| e.to_string())?);
        }
        let mut rng = SplitMix::new(seed ^ 0x7365_7276_655F_6D78);
        let campaign_seeds: Vec<u64> = (0..SEED_SLOTS).map(|_| rng.next_u64() >> 1).collect();
        let cold_seeds: Vec<u64> = (0..COLD_POOL).map(|_| rng.next_u64()).collect();

        let run = |spec: &ScenarioSpec| {
            let mut req = ExecRequest::run(spec.clone());
            req.passes = Some(RUN_PASSES);
            req
        };
        let report = Expect::Report(0);
        let mut payloads = Vec::new();
        let mut push = |label: String, class: &'static str, text: String, expect: Expect| {
            payloads.push(Payload { label, class, text, expect, samples: 0 });
        };
        for (s, spec) in hot.iter().enumerate() {
            for (k, &cs) in campaign_seeds.iter().enumerate() {
                let mut req = run(spec);
                req.campaign_seed = Some(cs);
                push(format!("hit-{s}-{k}"), "hit", req.to_json(), report);
            }
        }
        for (s, spec) in hot.iter().enumerate() {
            push(
                format!("validate-{s}"),
                "validate",
                ExecRequest::validate_spec(spec.clone()).to_json(),
                report,
            );
        }
        for (k, &seed) in cold_seeds.iter().enumerate() {
            let mut req = run(&hot[0]);
            req.seed = Some(seed);
            push(format!("cold-{k}"), "cold", req.to_json(), report);
        }
        let mut req = run(&hot[0]);
        req.checkpoint = Some("perfbench".into());
        let conflict = Expect::Error(ErrorCode::Conflict.as_str());
        push("conflict".into(), "conflict", req.to_json(), conflict);
        push(
            "invalid_json".into(),
            "invalid_json",
            "{\"action\": \"run\", \"spec\": ".into(),
            Expect::Error(ErrorCode::InvalidJson.as_str()),
        );

        let validate0 = hit_index(HOT.len() as u8, 0);
        let cold0 = validate0 + HOT.len();
        let mut colds = 0usize;
        let sequence = mix_sequence(seed, BLOCKS)
            .into_iter()
            .map(|k| match k {
                MixKind::Hit { spec, seed_slot } => hit_index(spec, seed_slot),
                MixKind::Validate { spec } => validate0 + usize::from(spec),
                MixKind::Cold => {
                    colds += 1;
                    cold0 + (colds - 1) % COLD_POOL
                }
                MixKind::Conflict => cold0 + COLD_POOL,
                MixKind::InvalidJson => cold0 + COLD_POOL + 1,
            })
            .collect();
        Ok(Self { payloads, sequence })
    }

    /// Replaces each payload's expectation with the in-process answer,
    /// refusing a mix whose designed outcome does not happen in-process.
    fn reference(&mut self) -> Res<()> {
        let exec = Executor::new();
        for p in &mut self.payloads {
            let answer = ExecRequest::from_json(&p.text).and_then(|req| exec.execute(&req));
            match (answer, p.expect) {
                (Ok(report), Expect::Report(_)) => {
                    if let ExecReport::Run(out) = &report {
                        p.samples = out.report.total_samples;
                    }
                    p.expect = Expect::Report(fnv1a64(report.to_json().as_bytes()));
                }
                (Err(e), Expect::Error(code)) if e.code.as_str() == code => {}
                (answer, _) => {
                    return Err(format!(
                        "{}: in-process answer {:?} is not the design",
                        p.label,
                        answer.map(|_| "report")
                    ));
                }
            }
        }
        Ok(())
    }

    /// A hit payload per hot spec: the warm-up requests of set-up.
    pub fn warmups(&self) -> impl Iterator<Item = &Payload> {
        (0..HOT.len() as u8).map(|s| &self.payloads[hit_index(s, 0)])
    }

    /// The cold payloads' specs with their seed overrides applied.
    pub fn cold_specs(&self) -> Res<Vec<ScenarioSpec>> {
        let cold0 = hit_index(HOT.len() as u8, 0) + HOT.len();
        self.payloads[cold0..cold0 + COLD_POOL]
            .iter()
            .map(|p| {
                let req = ExecRequest::from_json(&p.text).map_err(|e| e.to_string())?;
                let mut spec = req.spec.ok_or("a cold payload carries a spec")?;
                spec.seed = req.seed.ok_or("a cold payload overrides the seed")?;
                Ok(spec)
            })
            .collect()
    }
}

/// A running daemon: its address and shared executor. The accept thread
/// runs until the process exits.
pub struct Daemon {
    /// `127.0.0.1:port`.
    pub addr: String,
    /// The daemon's executor (cache statistics).
    pub executor: Arc<Executor>,
}

impl Daemon {
    /// Binds a daemon on an ephemeral loopback port with the default cache
    /// capacity and the pool pinned to `threads`.
    pub fn start(threads: usize) -> Res<Self> {
        let server = Server::bind("127.0.0.1:0", DEFAULT_CACHE_CAPACITY, Some(threads))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let executor = Arc::clone(server.executor());
        std::thread::spawn(move || server.run());
        Ok(Self { addr, executor })
    }

    /// `(hits, misses, evictions)` of the daemon's cache so far. Entries
    /// leave the cache only by eviction, so evictions are misses minus the
    /// entries held.
    pub fn cache(&self) -> (u64, u64, u64) {
        let (hits, misses, len) = self.executor.cache_stats();
        (hits, misses, misses - len as u64)
    }
}

/// Sends one payload with the facade's client and classifies the answer.
fn ask(conn: &mut ServeClient, p: &Payload) -> Got {
    match conn.request(&p.text) {
        Ok(resp) => match resp.outcome {
            Ok(bytes) => Got::Report(fnv1a64(&bytes)),
            Err(e) => Got::Error(e.code),
        },
        Err(_) => Got::Dropped,
    }
}

/// Set-up: bind a daemon and compile the hot specs through one warm-up
/// request each. Returns the daemon, the warm-up answers (in
/// [`Mix::warmups`] order) and the set-up wall time.
pub fn set_up(mix: &Mix, threads: usize) -> Res<(Daemon, Vec<Got>, Duration)> {
    let t0 = Instant::now();
    let daemon = Daemon::start(threads)?;
    let mut conn = ServeClient::connect_with_timeout(&daemon.addr, TIMEOUT)
        .map_err(|e| format!("connect: {e}"))?;
    let answers = mix.warmups().map(|p| ask(&mut conn, p)).collect();
    Ok((daemon, answers, t0.elapsed()))
}

/// What a phase of closed-loop clients measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every completed request, ms.
    pub latencies: Vec<f64>,
    /// Outcome accounting.
    pub tally: Tally,
    /// Samples folded by correctly answered requests.
    pub samples: u64,
    /// Connections re-opened after a drop.
    pub reconnects: u64,
    /// Phase wall time.
    pub wall: Duration,
    /// Frames read, bytes written and read (traced phase only).
    pub frames: u64,
    /// REQUEST bytes written, frame headers included.
    pub bytes_out: u64,
    /// Response bytes read, frame headers included.
    pub bytes_in: u64,
    /// Requests and summed latency (ms) per request class.
    pub by_class: BTreeMap<&'static str, (u64, f64)>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.latencies.extend(other.latencies);
        self.tally.merge(&other.tally);
        self.samples += other.samples;
        self.reconnects += other.reconnects;
        self.frames += other.frames;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        for (class, (n, ms)) in other.by_class {
            let e = self.by_class.entry(class).or_default();
            e.0 += n;
            e.1 += ms;
        }
    }

    /// Records one completed request of `class` that took `ms`.
    fn complete(&mut self, class: &'static str, ms: f64) {
        self.latencies.push(ms);
        let e = self.by_class.entry(class).or_default();
        e.0 += 1;
        e.1 += ms;
    }
}

/// Runs `clients` closed-loop clients until `seconds` have passed, drawing
/// requests from the shared sequence cursor `next`. With `tracers`, every
/// client drives the wire by hand and records spans (one tracer each).
pub fn run_phase(
    mix: &Mix,
    addr: &str,
    clients: usize,
    seconds: f64,
    next: &AtomicUsize,
    epoch: Option<Instant>,
) -> Res<(Phase, Vec<Tracer>)> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<Res<(Phase, Option<Tracer>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || match epoch {
                    None => client(mix, addr, deadline, next).map(|p| (p, None)),
                    Some(epoch) => {
                        let mut tracer = Tracer::new(epoch);
                        traced_client(mix, addr, deadline, next, &mut tracer)
                            .map(|p| (p, Some(tracer)))
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut phase = Phase::default();
    let mut tracers = Vec::new();
    for r in results {
        let (p, t) = r?;
        phase.merge(p);
        tracers.extend(t);
    }
    phase.wall = start.elapsed();
    Ok((phase, tracers))
}

fn next_payload<'a>(mix: &'a Mix, next: &AtomicUsize) -> (usize, &'a Payload) {
    let i = next.fetch_add(1, Ordering::Relaxed);
    (i, &mix.payloads[mix.sequence[i % mix.sequence.len()]])
}

fn client(mix: &Mix, addr: &str, deadline: Instant, next: &AtomicUsize) -> Res<Phase> {
    let connect =
        || ServeClient::connect_with_timeout(addr, TIMEOUT).map_err(|e| format!("connect: {e}"));
    let mut conn = connect()?;
    let mut phase = Phase::default();
    while Instant::now() < deadline {
        let (_, p) = next_payload(mix, next);
        let t0 = Instant::now();
        let got = ask(&mut conn, p);
        phase.complete(p.class, ms(t0.elapsed()));
        if got == Got::Dropped {
            conn = connect()?;
            phase.reconnects += 1;
        }
        if phase.tally.record(p.expect, &got) {
            phase.samples += p.samples;
        }
    }
    Ok(phase)
}

/// Re-runs the daemon's request decoding and validation for the requests
/// at sequence positions `range`, as probe spans outside any operation
/// (run after the clients stop, so the probes compete with nothing).
pub fn replay_decode(mix: &Mix, range: std::ops::Range<usize>, t: &mut Tracer) {
    for i in range {
        let p = &mix.payloads[mix.sequence[i % mix.sequence.len()]];
        t.set_op(i as u64);
        if let Ok(req) = t.probe("spec.parse", || ExecRequest::from_json(&p.text)) {
            let _ = t.probe("spec.validate", || req.validate());
        }
    }
}

/// The traced client: the same exchange as [`ServeClient::request`], with
/// the frame codec called directly so the write, the wait for the first
/// response byte, and the reads are timed apart.
fn traced_client(
    mix: &Mix,
    addr: &str,
    deadline: Instant,
    next: &AtomicUsize,
    t: &mut Tracer,
) -> Res<Phase> {
    let connect = || -> Res<TcpStream> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true)
            .and_then(|_| s.set_read_timeout(Some(TIMEOUT)))
            .map_err(|e| e.to_string())?;
        Ok(s)
    };
    let mut stream = connect()?;
    let mut phase = Phase::default();
    while Instant::now() < deadline {
        let (i, p) = next_payload(mix, next);
        t.set_op(i as u64);
        let t0 = Instant::now();
        let got = t.span_with("op", |t| -> std::io::Result<Got> {
            t.span("wire.write", || {
                write_frame(&mut stream, FrameKind::Request, p.text.as_bytes())
            })?;
            let w0 = Instant::now();
            stream.peek(&mut [0u8; 1])?;
            t.record("serve.wait", w0, Instant::now());
            loop {
                let frame = t.span("wire.read", || read_frame(&mut stream))?;
                let Some((kind, payload)) = frame else { return Ok(Got::Dropped) };
                phase.frames += 1;
                phase.bytes_in += (HEADER_LEN + payload.len()) as u64;
                match kind {
                    FrameKind::Report => return Ok(Got::Report(fnv1a64(&payload))),
                    FrameKind::Error => return Ok(Got::Error(error_code(&payload))),
                    FrameKind::Variant => continue,
                    _ => return Ok(Got::Dropped),
                }
            }
        });
        phase.complete(p.class, ms(t0.elapsed()));
        phase.bytes_out += (HEADER_LEN + p.text.len()) as u64;
        let got = got.unwrap_or(Got::Dropped);
        if got == Got::Dropped {
            stream = connect()?;
            phase.reconnects += 1;
        }
        if phase.tally.record(p.expect, &got) {
            phase.samples += p.samples;
        }
    }
    Ok(phase)
}

fn error_code(payload: &[u8]) -> String {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|text| serde_json::from_str(text).ok())
        .and_then(|v: serde::Value| v.get("code").and_then(|c| c.as_str()).map(str::to_string))
        .unwrap_or_else(|| "<malformed ERROR payload>".into())
}
