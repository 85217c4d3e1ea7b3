//! Blocking client for the `sixg-serve` wire protocol.
//!
//! The harness side of the daemon: connect, send one
//! [`sixg_measure::ExecRequest`] JSON document per [`ServeClient::request`],
//! and collect the streamed `VARIANT` frames and the terminal
//! `REPORT`/`ERROR` frame into a [`WireResponse`]. Used by `repro_serve`,
//! the spawn-the-binary integration tests, perfbench's `serve_mix` workload
//! and the README walkthrough. [`ServeClient`] is deliberately dumb:
//! timeouts and an `io::Error` on anything unexpected, no retries. A
//! dropped connection fails the exchange; nothing replays it.

use crate::serve::{read_frame, write_frame, FrameKind};
use serde_json::Value;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Default socket timeout: campaigns are seconds, mega-sweeps minutes.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(600);

/// A decoded `ERROR` frame: the facade's [`sixg_measure::SpecError`] as it
/// crossed the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable code (`"conflict"`, `"schema"`, …).
    pub code: String,
    /// JSON path of the offending element.
    pub path: String,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] at {}: {}", self.code, self.path, self.message)
    }
}

/// One complete exchange: the streamed variant payloads (empty for run and
/// validate requests) plus the terminal outcome — raw `REPORT` bytes on
/// success, the decoded `ERROR` otherwise.
#[derive(Debug)]
pub struct WireResponse {
    /// `VARIANT` frame payloads, in arrival (= run) order.
    pub variants: Vec<Vec<u8>>,
    /// Terminal frame: `REPORT` payload bytes or the decoded error.
    pub outcome: Result<Vec<u8>, WireError>,
}

impl WireResponse {
    /// The `REPORT` payload as UTF-8, panicking on an error outcome — the
    /// test-harness convenience accessor.
    pub fn report_text(&self) -> &str {
        match &self.outcome {
            Ok(bytes) => std::str::from_utf8(bytes).expect("report payload is UTF-8"),
            Err(e) => panic!("request failed over the wire: {e}"),
        }
    }
}

/// A blocking connection to a `sixg-serve` daemon.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects with the default timeout.
    pub fn connect(addr: &str) -> io::Result<Self> {
        Self::connect_with_timeout(addr, DEFAULT_TIMEOUT)
    }

    /// Connects with an explicit read/write timeout.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self { stream })
    }

    /// Sends one request document and reads frames until the terminal
    /// `REPORT` or `ERROR`. A connection drop mid-response is an error —
    /// a well-behaved server always terminates the exchange.
    pub fn request(&mut self, request_json: &str) -> io::Result<WireResponse> {
        write_frame(&mut self.stream, FrameKind::Request, request_json.as_bytes())?;
        let mut variants = Vec::new();
        loop {
            let Some((kind, payload)) = read_frame(&mut self.stream)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            };
            match kind {
                FrameKind::Variant => variants.push(payload),
                FrameKind::Report => return Ok(WireResponse { variants, outcome: Ok(payload) }),
                FrameKind::Error => {
                    return Ok(WireResponse { variants, outcome: Err(decode_error(&payload)?) })
                }
                FrameKind::Request | FrameKind::Store => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected {kind:?} frame from the server"),
                    ))
                }
            }
        }
    }
}

/// Decodes an `ERROR` payload; a malformed one is itself an I/O error.
fn decode_error(payload: &[u8]) -> io::Result<WireError> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let text = std::str::from_utf8(payload).map_err(|_| bad("ERROR payload is not UTF-8"))?;
    let v = serde_json::from_str(text).map_err(|_| bad("ERROR payload is not JSON"))?;
    let field = |name: &str| {
        v.get(name)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad(&format!("ERROR payload lacks the {name:?} field")))
    };
    Ok(WireError { code: field("code")?, path: field("path")?, message: field("message")? })
}
