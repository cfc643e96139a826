//! KHST wire frames: the store record grammar reused as a socket
//! protocol.
//!
//! A frame **is** a `khaos-store` record with an empty key block and a
//! wire-only kind:
//!
//! ```text
//! frame     := header payload checksum
//! header    := magic version kind payload_len     ; 17 bytes
//! magic     := "KHST"                             ; 4 bytes
//! version   := u32 = 2                            ; store FORMAT_VERSION
//! kind      := u8 in 16..=23                      ; wire kinds (disk kinds are 1..=6)
//! payload_len := u64 ≤ MAX_FRAME_PAYLOAD
//! checksum  := u64 FNV-1a over header ‖ payload
//! ```
//!
//! All integers little-endian, floats as raw IEEE-754 bits — the same
//! `Enc`/`Dec` pair the store uses, so scores round-trip bit-exactly.
//!
//! Wire kinds: 16 query, 17 hits, 18 error, 19 ping, 20 pong,
//! 21 stats request, 22 stats, 23 shutdown, 24 metrics request,
//! 25 metrics. Every validation failure is a typed [`FrameError`]; the
//! daemon answers kind-18 frames and never panics on malformed input.
//! Kinds 24/25 were added **additively** (no version bump): a client
//! that never sends kind 24 sees a byte-identical protocol.

use khaos_store::codec::{Dec, Enc};
use khaos_store::{fnv1a, FORMAT_VERSION, MAGIC};
use std::fmt;

/// Bytes before the payload: magic (4) + version (4) + kind (1) +
/// payload length (8).
pub const FRAME_HEADER_LEN: usize = 17;

/// Trailing FNV-1a checksum width.
pub const FRAME_CHECKSUM_LEN: usize = 8;

/// Hard cap on a frame payload; anything larger is rejected before a
/// single payload byte is read (a hostile length prefix must not make
/// the daemon allocate).
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 24;

/// Hard cap on query dimensionality (far above any real embedding).
pub const MAX_QUERY_DIM: u64 = 1 << 16;

/// Wire frame kinds. Disk records use 1..=6; the wire starts at 16 so
/// the two ranges can never be confused.
pub const KIND_QUERY: u8 = 16;
/// Ranked hits answering a query.
pub const KIND_HITS: u8 = 17;
/// Structured error reply.
pub const KIND_ERROR: u8 = 18;
/// Liveness probe carrying a token.
pub const KIND_PING: u8 = 19;
/// Ping reply echoing the token.
pub const KIND_PONG: u8 = 20;
/// Request for daemon statistics.
pub const KIND_STATS_REQ: u8 = 21;
/// Statistics reply.
pub const KIND_STATS: u8 = 22;
/// Orderly shutdown request (acked with another kind-23 frame).
pub const KIND_SHUTDOWN: u8 = 23;
/// Request for the daemon's metrics-registry rendering.
pub const KIND_METRICS_REQ: u8 = 24;
/// Metrics reply: the rendered `khaos_obs` registry text.
pub const KIND_METRICS: u8 = 25;

/// The valid wire kind range.
pub const WIRE_KINDS: std::ops::RangeInclusive<u8> = KIND_QUERY..=KIND_METRICS;

/// Error codes carried by kind-18 frames.
pub const ERR_BAD_FRAME: u32 = 1;
/// No index matches the requested tool/config.
pub const ERR_UNKNOWN_INDEX: u32 = 2;
/// Query dimensionality disagrees with the index.
pub const ERR_BAD_DIMS: u32 = 3;
/// Request parameters out of range.
pub const ERR_BAD_REQUEST: u32 = 4;
/// Valid frame kind that is not a request (e.g. a client sent hits).
pub const ERR_UNSUPPORTED: u32 = 5;
/// Daemon-side failure.
pub const ERR_INTERNAL: u32 = 6;
/// A frame was started but not completed within the per-frame
/// deadline — the daemon answers this and disconnects the stalled
/// client rather than pin a reader thread forever.
pub const ERR_TIMEOUT: u32 = 7;

/// Everything that can be wrong with a frame, as a typed value — the
/// daemon maps these onto [`ERR_BAD_FRAME`] replies and the fuzz suite
/// asserts the mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a header + checksum need.
    Truncated,
    /// First four bytes are not `KHST`.
    BadMagic([u8; 4]),
    /// Version field disagrees with the store format version.
    BadVersion(u32),
    /// Kind outside [`WIRE_KINDS`].
    UnknownKind(u8),
    /// Payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(u64),
    /// FNV-1a checksum mismatch.
    Checksum,
    /// Structurally valid frame whose payload does not parse.
    BadPayload(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?} (want \"KHST\")"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported frame version {v} (this build speaks {FORMAT_VERSION})"
                )
            }
            FrameError::UnknownKind(k) => write!(
                f,
                "unknown frame kind {k} (wire kinds are {}..={})",
                *WIRE_KINDS.start(),
                *WIRE_KINDS.end()
            ),
            FrameError::Oversized(n) => {
                write!(
                    f,
                    "payload length {n} exceeds the {MAX_FRAME_PAYLOAD}-byte frame cap"
                )
            }
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
            FrameError::BadPayload(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl From<String> for FrameError {
    fn from(why: String) -> FrameError {
        FrameError::BadPayload(why)
    }
}

/// One corpus hit: the ranked row, its exact clamped score (raw-bit
/// round-tripped), and the row's provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Hit {
    /// Corpus row index inside the answering index.
    pub row: u64,
    /// Exact re-ranked score (bit-identical to a local scan).
    pub score: f64,
    /// Source binary fingerprint.
    pub binary: u64,
    /// Function index inside that binary.
    pub function: u32,
    /// Function symbol name (may be empty).
    pub name: String,
}

/// A corpus query: rank the top `k` rows of the `(tool, config)` index
/// for one L2-normalized embedding row. `config = 0` matches any
/// config of the tool; `nprobe = 0` uses the index default.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReq {
    /// Differ name the corpus was embedded with.
    pub tool: String,
    /// Differ config fingerprint (`0` = any).
    pub config: u64,
    /// Result count.
    pub k: u32,
    /// Probe width (`0` = index default).
    pub nprobe: u32,
    /// The L2-normalized query row.
    pub q: Vec<f64>,
}

/// One loaded index, as reported by stats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexInfo {
    /// Differ name.
    pub tool: String,
    /// Differ config fingerprint.
    pub config: u64,
    /// Corpus fingerprint.
    pub corpus: u64,
    /// Corpus rows.
    pub rows: u64,
    /// Embedding dimensionality.
    pub dim: u64,
    /// Coarse cells.
    pub nlist: u64,
    /// Default probe width.
    pub nprobe: u32,
}

/// Daemon statistics. Every count is sourced from the daemon's
/// `khaos_obs` metrics registry — the same atomics the kind-25 metrics
/// frame renders — so the two frames cannot drift apart.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Query frames received since startup (including ones answered
    /// with an error — request counts never under-report).
    pub queries: u64,
    /// Whole seconds since the daemon started serving.
    pub uptime_secs: u64,
    /// Ping frames received.
    pub pings: u64,
    /// Stats-request frames received.
    pub stats_reqs: u64,
    /// Metrics-request frames received.
    pub metrics_reqs: u64,
    /// Error frames sent (frame violations and request errors alike).
    pub errors: u64,
    /// Loaded index segments.
    pub indexes: Vec<IndexInfo>,
}

/// A decoded wire message (one per frame kind).
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Kind 16.
    Query(QueryReq),
    /// Kind 17.
    Hits(Vec<Hit>),
    /// Kind 18.
    Error {
        /// One of the `ERR_*` codes.
        code: u32,
        /// Human-readable diagnosis.
        message: String,
    },
    /// Kind 19.
    Ping(u64),
    /// Kind 20.
    Pong(u64),
    /// Kind 21.
    StatsReq,
    /// Kind 22.
    Stats(ServerStats),
    /// Kind 23.
    Shutdown,
    /// Kind 24.
    MetricsReq,
    /// Kind 25: the daemon's rendered metrics registry (one metric per
    /// line, `khaos_obs::Registry::render_text` format).
    Metrics(String),
}

impl Message {
    /// The frame kind this message travels as.
    pub fn kind(&self) -> u8 {
        match self {
            Message::Query(_) => KIND_QUERY,
            Message::Hits(_) => KIND_HITS,
            Message::Error { .. } => KIND_ERROR,
            Message::Ping(_) => KIND_PING,
            Message::Pong(_) => KIND_PONG,
            Message::StatsReq => KIND_STATS_REQ,
            Message::Stats(_) => KIND_STATS,
            Message::Shutdown => KIND_SHUTDOWN,
            Message::MetricsReq => KIND_METRICS_REQ,
            Message::Metrics(_) => KIND_METRICS,
        }
    }

    /// Encodes the payload bytes (no header, no checksum).
    pub fn payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Message::Query(q) => {
                e.str(&q.tool);
                e.u64(q.config);
                e.u32(q.k);
                e.u32(q.nprobe);
                e.u64(q.q.len() as u64);
                for &v in &q.q {
                    e.f64(v);
                }
            }
            Message::Hits(hits) => {
                e.u64(hits.len() as u64);
                for h in hits {
                    e.u64(h.row);
                    e.f64(h.score);
                    e.u64(h.binary);
                    e.u32(h.function);
                    e.str(&h.name);
                }
            }
            Message::Error { code, message } => {
                e.u32(*code);
                e.str(message);
            }
            Message::Ping(t) | Message::Pong(t) => e.u64(*t),
            Message::StatsReq | Message::Shutdown | Message::MetricsReq => {}
            Message::Metrics(text) => e.str(text),
            Message::Stats(s) => {
                e.u64(s.queries);
                e.u64(s.uptime_secs);
                e.u64(s.pings);
                e.u64(s.stats_reqs);
                e.u64(s.metrics_reqs);
                e.u64(s.errors);
                e.u64(s.indexes.len() as u64);
                for i in &s.indexes {
                    e.str(&i.tool);
                    e.u64(i.config);
                    e.u64(i.corpus);
                    e.u64(i.rows);
                    e.u64(i.dim);
                    e.u64(i.nlist);
                    e.u32(i.nprobe);
                }
            }
        }
        e.into_bytes()
    }

    /// Encodes the complete frame: header, payload, checksum.
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.kind(), &self.payload())
    }

    /// Decodes a validated `(kind, payload)` pair into a message.
    /// Trailing payload bytes are an error — a frame says exactly what
    /// its grammar says, nothing more.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Message, FrameError> {
        let mut d = Dec::new(payload);
        let msg = match kind {
            KIND_QUERY => {
                let tool = d.str()?;
                let config = d.u64()?;
                let k = d.u32()?;
                let nprobe = d.u32()?;
                let dim = d.u64()?;
                if dim > MAX_QUERY_DIM {
                    return Err(FrameError::BadPayload(format!(
                        "query dimensionality {dim} exceeds the {MAX_QUERY_DIM} cap"
                    )));
                }
                if (dim as usize).saturating_mul(8) > d.remaining() {
                    return Err(FrameError::BadPayload(format!(
                        "query claims {dim} dims but only {} payload bytes remain",
                        d.remaining()
                    )));
                }
                let mut q = Vec::with_capacity(dim as usize);
                for _ in 0..dim {
                    q.push(d.f64()?);
                }
                Message::Query(QueryReq {
                    tool,
                    config,
                    k,
                    nprobe,
                    q,
                })
            }
            KIND_HITS => {
                let n = d.u64()?;
                // Minimum encoded hit: row + score + binary + function
                // + empty-name length = 8 + 8 + 8 + 4 + 4 = 32 bytes.
                if (n as usize).saturating_mul(32) > d.remaining() {
                    return Err(FrameError::BadPayload(format!(
                        "hit list claims {n} entries but only {} payload bytes remain",
                        d.remaining()
                    )));
                }
                let mut hits = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    hits.push(Hit {
                        row: d.u64()?,
                        score: d.f64()?,
                        binary: d.u64()?,
                        function: d.u32()?,
                        name: d.str()?,
                    });
                }
                Message::Hits(hits)
            }
            KIND_ERROR => Message::Error {
                code: d.u32()?,
                message: d.str()?,
            },
            KIND_PING => Message::Ping(d.u64()?),
            KIND_PONG => Message::Pong(d.u64()?),
            KIND_STATS_REQ => Message::StatsReq,
            KIND_STATS => {
                let queries = d.u64()?;
                let uptime_secs = d.u64()?;
                let pings = d.u64()?;
                let stats_reqs = d.u64()?;
                let metrics_reqs = d.u64()?;
                let errors = d.u64()?;
                let n = d.u64()?;
                // Minimum encoded index entry: empty-tool length + five
                // u64 fields + nprobe = 4 + 5*8 + 4 = 48 bytes.
                if (n as usize).saturating_mul(48) > d.remaining() {
                    return Err(FrameError::BadPayload(format!(
                        "stats claim {n} indexes but only {} payload bytes remain",
                        d.remaining()
                    )));
                }
                let mut indexes = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    indexes.push(IndexInfo {
                        tool: d.str()?,
                        config: d.u64()?,
                        corpus: d.u64()?,
                        rows: d.u64()?,
                        dim: d.u64()?,
                        nlist: d.u64()?,
                        nprobe: d.u32()?,
                    });
                }
                Message::Stats(ServerStats {
                    queries,
                    uptime_secs,
                    pings,
                    stats_reqs,
                    metrics_reqs,
                    errors,
                    indexes,
                })
            }
            KIND_SHUTDOWN => Message::Shutdown,
            KIND_METRICS_REQ => Message::MetricsReq,
            KIND_METRICS => Message::Metrics(d.str()?),
            k => return Err(FrameError::UnknownKind(k)),
        };
        if d.remaining() != 0 {
            return Err(FrameError::BadPayload(format!(
                "{} trailing payload bytes",
                d.remaining()
            )));
        }
        Ok(msg)
    }
}

/// Builds the raw frame bytes for a kind and payload.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.bytes(&MAGIC);
    e.u32(FORMAT_VERSION);
    e.u8(kind);
    e.u64(payload.len() as u64);
    e.bytes(payload);
    let mut out = e.into_bytes();
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates a 17-byte header, returning `(kind, payload_len)`.
/// Checks run in declaration order — magic, version, kind, length — so
/// the most diagnostic failure wins (a frame with bad magic is "not
/// ours", not "oversized").
pub fn validate_header(header: &[u8; FRAME_HEADER_LEN]) -> Result<(u8, u64), FrameError> {
    if header[..4] != MAGIC {
        return Err(FrameError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = header[8];
    if !WIRE_KINDS.contains(&kind) {
        return Err(FrameError::UnknownKind(kind));
    }
    let len = u64::from_le_bytes(header[9..17].try_into().unwrap());
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    Ok((kind, len))
}

/// Decodes one complete frame from a byte buffer (the non-streaming
/// path: property tests and tools). Returns the message and the bytes
/// consumed.
pub fn decode_frame(bytes: &[u8]) -> Result<(Message, usize), FrameError> {
    if bytes.len() < FRAME_HEADER_LEN + FRAME_CHECKSUM_LEN {
        return Err(FrameError::Truncated);
    }
    let header: [u8; FRAME_HEADER_LEN] = bytes[..FRAME_HEADER_LEN].try_into().unwrap();
    let (kind, len) = validate_header(&header)?;
    let total = FRAME_HEADER_LEN + len as usize + FRAME_CHECKSUM_LEN;
    if bytes.len() < total {
        return Err(FrameError::Truncated);
    }
    let body = &bytes[..FRAME_HEADER_LEN + len as usize];
    let want = u64::from_le_bytes(
        bytes[FRAME_HEADER_LEN + len as usize..total]
            .try_into()
            .unwrap(),
    );
    if fnv1a(body) != want {
        return Err(FrameError::Checksum);
    }
    let msg = Message::decode(
        kind,
        &bytes[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len as usize],
    )?;
    Ok((msg, total))
}
