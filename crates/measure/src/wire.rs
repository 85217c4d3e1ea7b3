//! The length-framed wire codec shared by the `sixg-serve` daemon and the
//! [`crate::dispatch`] coordinator.
//!
//! The codec used to live inside the bench crate's serve module; moving it
//! here lets `measure::dispatch` speak the protocol without a dependency
//! cycle (bench depends on measure, never the reverse). The bench crate
//! re-exports every item, so daemon, client and coordinator share one
//! definition of a frame.
//!
//! ## Frame layout
//!
//! Every message in both directions is one length-prefixed frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "6GSV"
//!      4     1  kind   (1 = REQUEST, 2 = VARIANT, 3 = REPORT, 4 = ERROR,
//!                       5 = STORE)
//!      5     3  reserved, must be zero
//!      8     4  payload length, u32 little-endian (cap: 64 MiB)
//!     12     n  payload
//! ```
//!
//! `REQUEST`, `VARIANT`, `REPORT` and `ERROR` payloads are UTF-8 JSON —
//! see the daemon docs for the request/response exchange. `STORE` payloads
//! are binary: a [`StoreBundle`] of named checkpoint-store blobs. They
//! flow in both directions of a dispatched shard request
//! (`"stream_store": true`): the coordinator may send one bundle right
//! after the `REQUEST` to seed a reassigned shard's store
//! (`"seed_store": true`), and the worker streams one bundle per store
//! mutation (manifest written, run spilled, cursor committed) so the
//! coordinator always holds enough state to resume the shard elsewhere.
//!
//! ## Failure taxonomy
//!
//! Reading a frame distinguishes *worker death* from *protocol garbage*:
//! a clean EOF between frames is `Ok(None)`, EOF inside a frame is
//! `UnexpectedEof`, and a bad magic / kind / reserved byte / length is
//! `InvalidData`. [`is_transient_io`] encodes the dispatch coordinator's
//! retry policy: connection-shaped failures are retriable against a
//! reconnect (execution is deterministic and idempotent, so a replay can
//! never change results); `InvalidData` is a broken peer and is never
//! retried.

use crate::spec::SpecError;
use crate::sweep::VariantReport;
use serde::Value;
use std::io::{self, Read, Write};

/// Frame magic: every frame in either direction starts with these bytes.
pub const MAGIC: [u8; 4] = *b"6GSV";

/// Frame header size (magic + kind + reserved + length), bytes.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a frame payload — a mega-sweep report is a few MiB;
/// anything past this is a corrupt length field, not a real request.
pub const MAX_PAYLOAD_LEN: u32 = 64 << 20;

/// Initial payload buffer of [`read_frame`]: the buffer grows with the
/// bytes that actually arrive, so a header declaring a large length costs
/// no more memory than the payload bytes the peer really sends.
const READ_CHUNK: usize = 64 << 10;

/// Magic of a [`StoreBundle`] (`STORE` frame payload).
pub const BUNDLE_MAGIC: [u8; 4] = *b"6GSB";

/// Frame kind tags (byte 4 of the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: an [`crate::exec::ExecRequest`] JSON document.
    Request,
    /// Server → client: one streamed per-variant sweep report.
    Variant,
    /// Server → client, terminal: the [`crate::exec::ExecReport`] JSON.
    Report,
    /// Server → client, terminal: `{"code", "path", "message"}`.
    Error,
    /// Either direction of a dispatched shard: a binary [`StoreBundle`]
    /// of checkpoint-store blobs (seed on the way in, streamed store
    /// mutations on the way out).
    Store,
}

impl FrameKind {
    /// The wire tag.
    pub fn as_u8(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Variant => 2,
            FrameKind::Report => 3,
            FrameKind::Error => 4,
            FrameKind::Store => 5,
        }
    }

    /// Parses a wire tag.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => FrameKind::Request,
            2 => FrameKind::Variant,
            3 => FrameKind::Report,
            4 => FrameKind::Error,
            5 => FrameKind::Store,
            _ => return None,
        })
    }
}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_PAYLOAD_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame payload too large"))?;
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = kind.as_u8();
    header[8..].copy_from_slice(&len.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer shut the
/// connection down between frames); EOF inside a frame is
/// `UnexpectedEof`, and a bad magic, an unknown kind, non-zero reserved
/// bytes, or an oversized length are `InvalidData` errors — the stream is
/// unrecoverable after any of them. The payload is read as it arrives,
/// never allocated up front at its declared length.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(FrameKind, Vec<u8>)>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a frame header",
            ));
        }
        filled += n;
    }
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if header[..4] != MAGIC {
        return Err(bad("bad frame magic (expected \"6GSV\")"));
    }
    let kind = FrameKind::from_u8(header[4]).ok_or_else(|| bad("unknown frame kind"))?;
    if header[5..8] != [0, 0, 0] {
        return Err(bad("non-zero reserved bytes in frame header"));
    }
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD_LEN {
        return Err(bad("frame payload length exceeds the 64 MiB cap"));
    }
    let mut payload = Vec::with_capacity((len as usize).min(READ_CHUNK));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed inside a frame payload",
        ));
    }
    Ok(Some((kind, payload)))
}

/// The `ERROR` frame payload for a facade error: stable field order, so
/// identical failures serialise identically.
pub fn error_payload(e: &SpecError) -> Vec<u8> {
    let v = Value::Object(vec![
        ("code".into(), Value::String(e.code.as_str().into())),
        ("path".into(), Value::String(e.path.clone())),
        ("message".into(), Value::String(e.message.clone())),
    ]);
    serde_json::to_string_pretty(&v).expect("error payload serialises").into_bytes()
}

/// The `VARIANT` frame payload for one streamed sweep variant.
pub fn variant_payload(run: usize, report: &VariantReport) -> Vec<u8> {
    let v = Value::Object(vec![
        ("run".into(), Value::U64(run as u64)),
        ("report".into(), serde_json::to_value(report)),
    ]);
    serde_json::to_string_pretty(&v).expect("variant payload serialises").into_bytes()
}

/// True for connection-shaped I/O failures worth a reconnect-and-retry:
/// the peer died, the route flapped, or a deadline fired. `InvalidData`
/// (protocol garbage) is deliberately *not* transient — a peer that frames
/// wrongly will frame wrongly again.
pub fn is_transient_io(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
    )
}

/// True when `name` is safe as a store-blob (or scratch-store) file name:
/// it resolves to a plain file inside the store directory on every
/// platform. First character alphanumeric, the rest `[A-Za-z0-9._-]`,
/// length ≤ 128 — which structurally rules out path separators, `..`,
/// hidden files and empty names.
pub fn is_safe_store_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    name.len() <= 128
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// A `STORE` frame payload: named checkpoint-store blobs, order-preserving.
///
/// ```text
/// offset  size  field
///      0     4  magic "6GSB"
///      4     4  entry count, u32 LE
/// then per entry:
///             4  name length, u32 LE
///             n  name, ASCII (see `is_safe_store_name`)
///             8  blob length, u64 LE
///             m  blob bytes
/// ```
///
/// Entry names are the store's own file names (`manifest.json`,
/// `cursor.blob`, `run_NNNNN.blob`), so seeding a worker is literally
/// "write each entry into the fresh store directory". Decode rejects
/// unsafe names, so a hostile bundle cannot escape the scratch root.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreBundle {
    entries: Vec<(String, Vec<u8>)>,
}

impl StoreBundle {
    /// An empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a named blob. Panics on an unsafe name — callers build
    /// bundles from store file names, which are safe by construction.
    pub fn push(&mut self, name: &str, bytes: impl Into<Vec<u8>>) {
        assert!(is_safe_store_name(name), "unsafe store-bundle entry name {name:?}");
        self.entries.push((name.to_string(), bytes.into()));
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[(String, Vec<u8>)] {
        &self.entries
    }

    /// True when the bundle carries nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialises the bundle into `STORE` frame payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            8 + self.entries.iter().map(|(n, b)| 12 + n.len() + b.len()).sum::<usize>(),
        );
        out.extend_from_slice(&BUNDLE_MAGIC);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (name, bytes) in &self.entries {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Parses `STORE` frame payload bytes. Truncation, a bad magic, an
    /// unsafe entry name, or trailing garbage are all `InvalidData`.
    pub fn decode(buf: &[u8]) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let take = |pos: &mut usize, n: usize| -> io::Result<&[u8]> {
            let end = pos.checked_add(n).filter(|&e| e <= buf.len()).ok_or_else(|| {
                bad(format!("truncated store bundle: wanted {n} bytes at offset {pos}"))
            })?;
            let out = &buf[*pos..end];
            *pos = end;
            Ok(out)
        };
        let mut pos = 0usize;
        if take(&mut pos, 4)? != BUNDLE_MAGIC {
            return Err(bad("not a store bundle (bad magic)".into()));
        }
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
        let mut entries = Vec::with_capacity(count.min(1024) as usize);
        for _ in 0..count {
            let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
            let name = std::str::from_utf8(take(&mut pos, name_len as usize)?)
                .map_err(|_| bad("store-bundle entry name is not UTF-8".into()))?
                .to_string();
            if !is_safe_store_name(&name) {
                return Err(bad(format!("unsafe store-bundle entry name {name:?}")));
            }
            let blob_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
            let blob = take(&mut pos, blob_len as usize)?.to_vec();
            entries.push((name, blob));
        }
        if pos != buf.len() {
            return Err(bad(format!("{} trailing bytes after the store bundle", buf.len() - pos)));
        }
        Ok(Self { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ErrorCode;

    #[test]
    fn frame_kinds_round_trip() {
        for kind in [
            FrameKind::Request,
            FrameKind::Variant,
            FrameKind::Report,
            FrameKind::Error,
            FrameKind::Store,
        ] {
            assert_eq!(FrameKind::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(FrameKind::from_u8(0), None);
        assert_eq!(FrameKind::from_u8(6), None);
    }

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"{\"action\":\"validate\"}").unwrap();
        write_frame(&mut buf, FrameKind::Report, b"").unwrap();
        let mut r = &buf[..];
        let (kind, payload) = read_frame(&mut r).unwrap().expect("first frame");
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(payload, b"{\"action\":\"validate\"}");
        let (kind, payload) = read_frame(&mut r).unwrap().expect("second frame");
        assert_eq!(kind, FrameKind::Report);
        assert!(payload.is_empty());
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after the last frame");
    }

    #[test]
    fn corrupt_frames_are_invalid_data() {
        // Bad magic.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        buf[0] = b'!';
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Unknown kind.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        buf[4] = 9;
        assert_eq!(read_frame(&mut &buf[..]).unwrap_err().kind(), io::ErrorKind::InvalidData);

        // Non-zero reserved bytes.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        buf[6] = 1;
        assert_eq!(read_frame(&mut &buf[..]).unwrap_err().kind(), io::ErrorKind::InvalidData);

        // Length past the cap.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        buf[8..12].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        assert_eq!(read_frame(&mut &buf[..]).unwrap_err().kind(), io::ErrorKind::InvalidData);

        // EOF inside the header.
        let err = read_frame(&mut &buf[..7]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A header declaring the 64 MiB cap, then 10 payload bytes, then EOF:
    /// the read fails as a truncated frame, and the reader is never handed
    /// a buffer larger than the initial 64 KiB chunk.
    #[test]
    fn payload_buffer_grows_with_received_bytes() {
        struct Stingy {
            bytes: Vec<u8>,
            pos: usize,
            largest_buf: usize,
        }
        impl Read for Stingy {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.largest_buf = self.largest_buf.max(buf.len());
                let n = buf.len().min(self.bytes.len() - self.pos);
                buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let mut bytes = Vec::new();
        write_frame(&mut bytes, FrameKind::Request, b"x").unwrap();
        bytes[8..12].copy_from_slice(&MAX_PAYLOAD_LEN.to_le_bytes());
        bytes.truncate(HEADER_LEN);
        bytes.extend_from_slice(&[7u8; 10]);
        let mut r = Stingy { bytes, pos: 0, largest_buf: 0 };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.largest_buf <= 64 << 10, "reader was handed {} bytes", r.largest_buf);
    }

    #[test]
    fn error_payload_carries_the_machine_readable_code() {
        let e = SpecError::coded(ErrorCode::Conflict, "$.checkpoint", "no checkpointed runs");
        let text = String::from_utf8(error_payload(&e)).unwrap();
        let v = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("conflict"));
        assert_eq!(v.get("path").and_then(Value::as_str), Some("$.checkpoint"));
        assert_eq!(v.get("message").and_then(Value::as_str), Some("no checkpointed runs"));
    }

    #[test]
    fn store_bundles_round_trip() {
        let mut b = StoreBundle::new();
        b.push("manifest.json", b"{\"x\": 1}".to_vec());
        b.push("run_00003.blob", vec![0u8, 255, 7, 42]);
        b.push("cursor.blob", Vec::new());
        let back = StoreBundle::decode(&b.encode()).expect("decodes");
        assert_eq!(back, b);
        assert_eq!(back.entries().len(), 3);
        assert_eq!(back.entries()[1].0, "run_00003.blob");
        assert_eq!(back.entries()[1].1, vec![0u8, 255, 7, 42]);

        let empty = StoreBundle::new();
        assert!(StoreBundle::decode(&empty.encode()).expect("decodes").is_empty());
    }

    #[test]
    fn hostile_bundles_are_rejected() {
        // Truncation at every prefix of a real bundle.
        let mut b = StoreBundle::new();
        b.push("cursor.blob", vec![1, 2, 3]);
        let bytes = b.encode();
        for keep in 0..bytes.len() {
            assert!(StoreBundle::decode(&bytes[..keep]).is_err(), "keep={keep}");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(StoreBundle::decode(&long).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(StoreBundle::decode(&bad).is_err());
    }

    #[test]
    fn unsafe_store_names_are_rejected() {
        for bad in
            ["", "..", "../x", "a/b", "a\\b", ".hidden", "-dash-first", &"x".repeat(129), "a b"]
        {
            assert!(!is_safe_store_name(bad), "{bad:?} must be unsafe");
        }
        for good in ["manifest.json", "cursor.blob", "run_00042.blob", "dsp-1f-0-s001", "A1"] {
            assert!(is_safe_store_name(good), "{good:?} must be safe");
        }
        // An unsafe name cannot enter a bundle through decode either.
        let mut raw = Vec::new();
        raw.extend_from_slice(&BUNDLE_MAGIC);
        raw.extend_from_slice(&1u32.to_le_bytes());
        let name = b"../escape";
        raw.extend_from_slice(&(name.len() as u32).to_le_bytes());
        raw.extend_from_slice(name);
        raw.extend_from_slice(&0u64.to_le_bytes());
        let err = StoreBundle::decode(&raw).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
