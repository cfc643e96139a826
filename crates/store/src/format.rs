//! The on-disk record format: encoding, decoding, checksumming.
//!
//! Every record is one self-describing file (see the crate-level docs
//! for the byte-exact layout). This module owns the little-endian
//! encoder/decoder pair and the FNV-1a checksum both sides share; the
//! [`crate::Store`] layer never touches raw bytes directly.

#[cfg(test)]
mod reference;

use crate::{
    FlatTable, IndexTable, QuantTable, QuantView, StoredBuild, StoredPass, StoredReport,
    StoredRowMeta, StoredShape, TableView,
};

/// First four bytes of every record file.
pub const MAGIC: [u8; 4] = *b"KHST";

/// Format version written into (and required of) every record and the
/// store's `FORMAT` stamp. **Bumping this is a cache-invalidating
/// event**: readers refuse records of any other version, so every
/// artifact is recomputed and rewritten.
///
/// History: v1 — embeddings/matrices/reports; v2 — adds quantized
/// embedding records (kind 4, the `qnt/` section). The bump to 2 was
/// deliberate: v1 stores predate the quantized tier and are fully
/// recomputable, and stamping the version forward keeps the "one
/// store, one format" invariant simple (no per-record version skew).
///
/// IVF index segments (kind 5, the `idx/` section) were added
/// **without** a bump: the addition is purely additive — no existing
/// record changes shape, and older readers degrade diagnosably on the
/// new kind (`verify`/`cat` name the unknown kind; lookups miss). The
/// ROADMAP records this as the deliberate format decision of the index
/// tier. Memoized builds (kind 6, the `bld/` section) were added the
/// same additive way.
pub const FORMAT_VERSION: u32 = 2;

/// Record kind tag: a per-binary embedding table.
pub const KIND_EMBEDDINGS: u8 = 1;
/// Record kind tag: a query×target similarity matrix.
pub const KIND_MATRIX: u8 = 2;
/// Record kind tag: a pipeline/experiment report.
pub const KIND_REPORT: u8 = 3;
/// Record kind tag: a per-binary int8 quantized embedding table
/// (format v2).
pub const KIND_QUANT: u8 = 4;
/// Record kind tag: an IVF index segment over a corpus of embedding
/// rows (format v2, additive).
pub const KIND_INDEX: u8 = 5;
/// Record kind tag: a memoized build — the module a pipeline built from
/// a source, as text IR, plus its Table-2 counters (format v2,
/// additive).
pub const KIND_BUILD: u8 = 6;

/// Every kind tag this build reads, in tag order (the diagnosable
/// range named by unknown-kind decode errors).
pub const KNOWN_KINDS: std::ops::RangeInclusive<u8> = KIND_EMBEDDINGS..=KIND_BUILD;

/// FNV-1a over a byte slice — the record checksum (and the hash behind
/// content-addressed file names).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Little-endian record encoder.
#[derive(Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// An encoder whose buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Raw IEEE-754 bits: the byte-exact round trip the store pins.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A run of [`Enc::f64`]s, appended in one copy.
    pub fn f64s(&mut self, vs: &[f64]) {
        if cfg!(target_endian = "little") {
            // An f64 in memory is its bits in native order, which is
            // little-endian here: exactly the bytes `f64` writes.
            // SAFETY: the byte view covers exactly the memory of `vs`,
            // which any `u8` may alias, and lives only for this copy.
            self.buf.extend_from_slice(unsafe {
                std::slice::from_raw_parts(vs.as_ptr() as *const u8, std::mem::size_of_val(vs))
            });
        } else {
            for &v in vs {
                self.f64(v);
            }
        }
    }

    /// Length-prefixed UTF-8 (u32 length + bytes).
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends the FNV-1a checksum of everything written so far and
    /// returns the finished record bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian record decoder; every accessor fails loudly (with a
/// reason string the `verify` path surfaces) instead of reading out of
/// bounds.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated record: wanted {n} bytes at offset {}", self.pos))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "non-UTF-8 string field".to_string())
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn offset(&self) -> usize {
        self.pos
    }
}

/// A decoded record key, owned (as read back from disk).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OwnedKey {
    /// Embedding-table key.
    Emb {
        /// Differ name.
        tool: String,
        /// Differ configuration fingerprint.
        config: u64,
        /// `Binary::fingerprint` of the embedded binary.
        binary: u64,
    },
    /// Similarity-matrix key.
    Mat {
        /// Differ name.
        tool: String,
        /// Differ configuration fingerprint.
        config: u64,
        /// Query-side binary fingerprint.
        query: u64,
        /// Target-side binary fingerprint.
        target: u64,
    },
    /// Report key.
    Rep {
        /// `Pipeline::fingerprint` of the build that was measured.
        pipeline: u64,
        /// Obfuscation seed of the run.
        seed: u64,
        /// Free-form subject (program name, experiment cell, …).
        subject: String,
    },
    /// Quantized-embedding key — the same `(tool, config, binary)`
    /// triple as [`OwnedKey::Emb`]; the kind tag keeps the content
    /// addresses disjoint.
    Quant {
        /// Differ name.
        tool: String,
        /// Differ configuration fingerprint.
        config: u64,
        /// `Binary::fingerprint` of the embedded binary.
        binary: u64,
    },
    /// IVF index-segment key.
    Index {
        /// Differ name.
        tool: String,
        /// Differ configuration fingerprint.
        config: u64,
        /// Corpus fingerprint (FNV over the indexed rows' provenance).
        corpus: u64,
    },
    /// Memoized-build key.
    Build {
        /// `Module::content_fingerprint` of the source module.
        source: u64,
        /// `Pipeline::fingerprint` of the build.
        pipeline: u64,
        /// Obfuscation seed of the build.
        seed: u64,
        /// The memo version the build was recorded under.
        version: u64,
    },
}

impl std::fmt::Display for OwnedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OwnedKey::Emb {
                tool,
                config,
                binary,
            } => write!(f, "emb {tool} cfg={config:016x} bin={binary:016x}"),
            OwnedKey::Mat {
                tool,
                config,
                query,
                target,
            } => write!(
                f,
                "mat {tool} cfg={config:016x} q={query:016x} t={target:016x}"
            ),
            OwnedKey::Rep {
                pipeline,
                seed,
                subject,
            } => write!(f, "rep pipeline={pipeline:016x} seed={seed:#x} `{subject}`"),
            OwnedKey::Quant {
                tool,
                config,
                binary,
            } => write!(f, "qnt {tool} cfg={config:016x} bin={binary:016x}"),
            OwnedKey::Index {
                tool,
                config,
                corpus,
            } => write!(f, "idx {tool} cfg={config:016x} corpus={corpus:016x}"),
            OwnedKey::Build {
                source,
                pipeline,
                seed,
                version,
            } => write!(
                f,
                "bld src={source:016x} pipeline={pipeline:016x} seed={seed:#x} v{version}"
            ),
        }
    }
}

/// A decoded record payload.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Payload {
    Table(FlatTable),
    Report(StoredReport),
    Quant(QuantTable),
    Index(IndexTable),
    Build(StoredBuild),
}

/// A fully decoded, checksum-verified record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Record {
    pub kind: u8,
    pub key: OwnedKey,
    pub payload: Payload,
}

/// Encodes the key block of an embedding record (also the bytes the
/// content address is derived from, prefixed with the kind tag).
pub(crate) fn key_bytes_emb(tool: &str, config: u64, binary: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(tool);
    e.u64(config);
    e.u64(binary);
    e.into_bytes()
}

/// Encodes the key block of a matrix record.
pub(crate) fn key_bytes_mat(tool: &str, config: u64, query: u64, target: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(tool);
    e.u64(config);
    e.u64(query);
    e.u64(target);
    e.into_bytes()
}

/// Encodes the key block of a report record.
pub(crate) fn key_bytes_rep(pipeline: u64, seed: u64, subject: &str) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(pipeline);
    e.u64(seed);
    e.str(subject);
    e.into_bytes()
}

/// Encodes the key block of an index-segment record.
pub(crate) fn key_bytes_idx(tool: &str, config: u64, corpus: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(tool);
    e.u64(config);
    e.u64(corpus);
    e.into_bytes()
}

/// Encodes the key block of a memoized-build record.
pub(crate) fn key_bytes_bld(source: u64, pipeline: u64, seed: u64, version: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(source);
    e.u64(pipeline);
    e.u64(seed);
    e.u64(version);
    e.into_bytes()
}

/// Writes one complete record — header, key block, length-prefixed
/// payload, trailing checksum — into a single buffer. The payload is
/// written in place after a placeholder length, which is then patched
/// with the byte count `payload` actually wrote, so the payload is
/// never copied. `size_hint` is the payload's bulk (a table's cells, a
/// module's text) and only reserves room up front, with 64 bytes more
/// for the small fields around it and the checksum: a short hint costs
/// a reallocation, never a wrong byte.
fn encode_record(
    kind: u8,
    key_bytes: &[u8],
    size_hint: usize,
    payload: impl FnOnce(&mut Enc),
) -> Vec<u8> {
    let mut e = Enc::with_capacity(MAGIC.len() + 4 + 1 + key_bytes.len() + 8 + size_hint + 64);
    e.bytes(&MAGIC);
    e.u32(FORMAT_VERSION);
    e.u8(kind);
    e.bytes(key_bytes);
    let len_at = e.buf.len();
    e.u64(0);
    payload(&mut e);
    let len = (e.buf.len() - len_at - 8) as u64;
    e.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    e.finish()
}

/// Table payload: shape, then every cell's raw f64 bits.
fn encode_table(kind: u8, key_bytes: &[u8], t: TableView<'_>) -> Vec<u8> {
    encode_record(kind, key_bytes, 8 * t.data.len(), |e| {
        e.u64(t.rows);
        e.u64(t.dim);
        e.f64s(t.data);
    })
}

/// Encodes an embedding-table record.
pub(crate) fn encode_embeddings(tool: &str, config: u64, binary: u64, t: TableView<'_>) -> Vec<u8> {
    encode_table(KIND_EMBEDDINGS, &key_bytes_emb(tool, config, binary), t)
}

/// Encodes a similarity-matrix record.
pub(crate) fn encode_matrix(
    tool: &str,
    config: u64,
    query: u64,
    target: u64,
    t: TableView<'_>,
) -> Vec<u8> {
    encode_table(KIND_MATRIX, &key_bytes_mat(tool, config, query, target), t)
}

/// Encodes a quantized-embedding record. Payload: shape, per-row f64
/// scales and offsets (raw bits, byte-exact), then the i8 codes as one
/// raw byte run.
pub(crate) fn encode_quantized(tool: &str, config: u64, binary: u64, q: QuantView<'_>) -> Vec<u8> {
    let hint = q.data.len() + 8 * (q.scales.len() + q.offsets.len());
    encode_record(
        KIND_QUANT,
        &key_bytes_emb(tool, config, binary),
        hint,
        |e| {
            e.u64(q.rows);
            e.u64(q.dim);
            e.f64s(q.scales);
            e.f64s(q.offsets);
            // i8 → u8 is a bijection on bytes; decode casts back losslessly.
            // SAFETY: the byte view covers exactly the memory of `q.data`.
            e.bytes(unsafe {
                std::slice::from_raw_parts(q.data.as_ptr() as *const u8, q.data.len())
            });
        },
    )
}

/// Encodes an index-segment record. Payload: IVF parameters and shape,
/// the (normalized) centroid rows as raw f64 bits, the per-row cell
/// assignments, then per-row provenance (source binary fingerprint,
/// function index, symbol name). The corpus' f64 and int8 tables are
/// *not* inlined — they live in their own `emb`/`qnt` records keyed by
/// the corpus fingerprint, so the three records form one index segment.
pub(crate) fn encode_index(tool: &str, config: u64, corpus: u64, t: &IndexTable) -> Vec<u8> {
    let hint = 8 * t.centroids.len() + 4 * t.assignments.len();
    encode_record(
        KIND_INDEX,
        &key_bytes_idx(tool, config, corpus),
        hint,
        |e| {
            e.u64(t.rows);
            e.u64(t.dim);
            e.u64(t.nlist);
            e.u32(t.nprobe);
            e.u64(t.seed);
            e.f64s(&t.centroids);
            for &a in &t.assignments {
                e.u32(a);
            }
            for m in &t.meta {
                e.u64(m.binary);
                e.u32(m.function);
                e.str(&m.name);
            }
        },
    )
}

/// Encodes a memoized-build record. Payload: the module's text IR, then
/// the counters as f64 bits.
pub(crate) fn encode_build(
    source: u64,
    pipeline: u64,
    seed: u64,
    version: u64,
    b: &StoredBuild,
) -> Vec<u8> {
    let key = key_bytes_bld(source, pipeline, seed, version);
    encode_record(KIND_BUILD, &key, b.module.len() + 8 * b.stats.len(), |e| {
        e.str(&b.module);
        e.u32(b.stats.len() as u32);
        e.f64s(&b.stats);
    })
}

/// Encodes a report record.
pub(crate) fn encode_report(r: &StoredReport) -> Vec<u8> {
    let key = key_bytes_rep(r.pipeline, r.seed, &r.subject);
    encode_record(KIND_REPORT, &key, 0, |e| {
        e.str(&r.spec);
        e.u64(r.total_micros);
        e.u32(r.passes.len() as u32);
        for p in &r.passes {
            e.str(&p.pass);
            e.u64(p.micros);
            for s in [&p.before, &p.after] {
                e.u64(s.functions);
                e.u64(s.blocks);
                e.u64(s.insts);
            }
        }
        e.u32(r.metrics.len() as u32);
        for (name, value) in &r.metrics {
            e.str(name);
            e.f64(*value);
        }
    })
}

fn decode_table(payload: &[u8]) -> Result<FlatTable, String> {
    let mut d = Dec::new(payload);
    let rows = d.u64()?;
    let dim = d.u64()?;
    // Checked all the way through: a forged shape like rows=2^61 must
    // come back as a decode error (verify/cat name damage, lookups
    // degrade to misses), never wrap into a passing comparison and
    // panic in `with_capacity`.
    let cells = rows
        .checked_mul(dim)
        .filter(|&c| {
            c.checked_mul(8)
                .is_some_and(|bytes| bytes == d.remaining() as u64)
        })
        .ok_or_else(|| {
            format!(
                "table shape {rows}x{dim} disagrees with payload ({} bytes left)",
                d.remaining()
            )
        })?;
    let data = d
        .take(cells as usize * 8)?
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect();
    Ok(FlatTable { rows, dim, data })
}

fn decode_quant(payload: &[u8]) -> Result<QuantTable, String> {
    let mut d = Dec::new(payload);
    let rows = d.u64()?;
    let dim = d.u64()?;
    // Same checked-shape discipline as `decode_table`: per-row scale +
    // offset (8 bytes each) plus rows·dim code bytes must equal the
    // remaining payload exactly, with no overflow en route.
    let codes = rows
        .checked_mul(dim)
        .filter(|&c| {
            rows.checked_mul(16)
                .and_then(|meta| meta.checked_add(c))
                .is_some_and(|bytes| bytes == d.remaining() as u64)
        })
        .ok_or_else(|| {
            format!(
                "quantized shape {rows}x{dim} disagrees with payload ({} bytes left)",
                d.remaining()
            )
        })?;
    let mut scales = Vec::with_capacity(rows as usize);
    for _ in 0..rows {
        scales.push(d.f64()?);
    }
    let mut offsets = Vec::with_capacity(rows as usize);
    for _ in 0..rows {
        offsets.push(d.f64()?);
    }
    let mut data = Vec::with_capacity(codes as usize);
    for _ in 0..codes {
        data.push(d.u8()? as i8);
    }
    Ok(QuantTable {
        rows,
        dim,
        scales,
        offsets,
        data,
    })
}

fn decode_index(payload: &[u8]) -> Result<IndexTable, String> {
    let mut d = Dec::new(payload);
    let rows = d.u64()?;
    let dim = d.u64()?;
    let nlist = d.u64()?;
    let nprobe = d.u32()?;
    let seed = d.u64()?;
    // Checked-shape discipline (see `decode_table`): the fixed-width
    // runs (centroids, assignments) must fit the remaining payload
    // before anything is allocated, so a forged nlist=2^61 is a decode
    // error, never a `with_capacity` abort.
    let centroid_vals = nlist
        .checked_mul(dim)
        .filter(|&c| {
            c.checked_mul(8)
                .and_then(|cb| rows.checked_mul(4).map(|ab| (cb, ab)))
                .and_then(|(cb, ab)| cb.checked_add(ab))
                .is_some_and(|bytes| bytes <= d.remaining() as u64)
        })
        .ok_or_else(|| {
            format!(
                "index shape rows={rows} dim={dim} nlist={nlist} disagrees with payload \
                 ({} bytes left)",
                d.remaining()
            )
        })?;
    let mut centroids = Vec::with_capacity(centroid_vals as usize);
    for _ in 0..centroid_vals {
        centroids.push(d.f64()?);
    }
    let mut assignments = Vec::with_capacity(rows as usize);
    for _ in 0..rows {
        let a = d.u32()?;
        if u64::from(a) >= nlist {
            return Err(format!("row assigned to cell {a}, but nlist is {nlist}"));
        }
        assignments.push(a);
    }
    let mut meta = Vec::with_capacity((rows as usize).min(1 << 20));
    for _ in 0..rows {
        meta.push(StoredRowMeta {
            binary: d.u64()?,
            function: d.u32()?,
            name: d.str()?,
        });
    }
    if d.remaining() != 0 {
        return Err(format!("{} trailing payload bytes", d.remaining()));
    }
    Ok(IndexTable {
        rows,
        dim,
        nlist,
        nprobe,
        seed,
        centroids,
        assignments,
        meta,
    })
}

fn decode_build(payload: &[u8]) -> Result<StoredBuild, String> {
    let mut d = Dec::new(payload);
    let module = d.str()?;
    let n = d.u32()?;
    let mut stats = Vec::with_capacity(n.min(1 << 16) as usize);
    for _ in 0..n {
        stats.push(d.f64()?);
    }
    if d.remaining() != 0 {
        return Err(format!("{} trailing payload bytes", d.remaining()));
    }
    Ok(StoredBuild { module, stats })
}

fn decode_report(
    payload: &[u8],
    pipeline: u64,
    seed: u64,
    subject: String,
) -> Result<StoredReport, String> {
    let mut d = Dec::new(payload);
    let spec = d.str()?;
    let total_micros = d.u64()?;
    let n_passes = d.u32()?;
    let mut passes = Vec::with_capacity(n_passes.min(1 << 16) as usize);
    for _ in 0..n_passes {
        let pass = d.str()?;
        let micros = d.u64()?;
        let mut shapes = [StoredShape::default(), StoredShape::default()];
        for s in &mut shapes {
            s.functions = d.u64()?;
            s.blocks = d.u64()?;
            s.insts = d.u64()?;
        }
        let [before, after] = shapes;
        passes.push(StoredPass {
            pass,
            micros,
            before,
            after,
        });
    }
    let n_metrics = d.u32()?;
    let mut metrics = Vec::with_capacity(n_metrics.min(1 << 16) as usize);
    for _ in 0..n_metrics {
        let name = d.str()?;
        let value = d.f64()?;
        metrics.push((name, value));
    }
    if d.remaining() != 0 {
        return Err(format!("{} trailing payload bytes", d.remaining()));
    }
    Ok(StoredReport {
        spec,
        pipeline,
        seed,
        subject,
        total_micros,
        passes,
        metrics,
    })
}

/// Decodes and fully validates one record file: magic, format version,
/// checksum, key block, payload shape. Errors carry a human-readable
/// reason (surfaced by `khaos-store verify`).
pub(crate) fn decode_record(bytes: &[u8]) -> Result<Record, String> {
    if bytes.len() < MAGIC.len() + 4 + 1 + 8 + 8 {
        return Err(format!("file too short ({} bytes)", bytes.len()));
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    // The self-describing header (magic, version, kind) is validated
    // *before* the checksum: a record of a kind this build does not
    // know — written by a newer format, or with a damaged kind byte —
    // must be reported as exactly that, not as a generic checksum
    // error that points at nothing.
    let mut d = Dec::new(body);
    let magic = [d.u8()?, d.u8()?, d.u8()?, d.u8()?];
    if magic != MAGIC {
        return Err(format!("bad magic {magic:02x?}"));
    }
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version {version}, this build reads {FORMAT_VERSION} \
             (a version bump invalidates the store)"
        ));
    }
    let kind = d.u8()?;
    if !KNOWN_KINDS.contains(&kind) {
        return Err(format!(
            "unknown record kind {kind} (this build reads kinds {}..={}; \
             a newer format may have written it)",
            KNOWN_KINDS.start(),
            KNOWN_KINDS.end()
        ));
    }
    let want = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    let have = fnv1a(body);
    if want != have {
        return Err(format!(
            "checksum mismatch: stored {want:016x}, computed {have:016x}"
        ));
    }
    let key = match kind {
        KIND_EMBEDDINGS => OwnedKey::Emb {
            tool: d.str()?,
            config: d.u64()?,
            binary: d.u64()?,
        },
        KIND_MATRIX => OwnedKey::Mat {
            tool: d.str()?,
            config: d.u64()?,
            query: d.u64()?,
            target: d.u64()?,
        },
        KIND_REPORT => OwnedKey::Rep {
            pipeline: d.u64()?,
            seed: d.u64()?,
            subject: d.str()?,
        },
        KIND_QUANT => OwnedKey::Quant {
            tool: d.str()?,
            config: d.u64()?,
            binary: d.u64()?,
        },
        KIND_INDEX => OwnedKey::Index {
            tool: d.str()?,
            config: d.u64()?,
            corpus: d.u64()?,
        },
        KIND_BUILD => OwnedKey::Build {
            source: d.u64()?,
            pipeline: d.u64()?,
            seed: d.u64()?,
            version: d.u64()?,
        },
        _ => unreachable!("kind validated against KNOWN_KINDS above"),
    };
    let payload_len = d.u64()? as usize;
    if payload_len != d.remaining() {
        return Err(format!(
            "payload length {payload_len} disagrees with file ({} bytes after header)",
            d.remaining()
        ));
    }
    let payload_start = d.offset();
    let payload = &body[payload_start..];
    let payload = match &key {
        OwnedKey::Emb { .. } | OwnedKey::Mat { .. } => Payload::Table(decode_table(payload)?),
        OwnedKey::Quant { .. } => Payload::Quant(decode_quant(payload)?),
        OwnedKey::Index { .. } => Payload::Index(decode_index(payload)?),
        OwnedKey::Build { .. } => Payload::Build(decode_build(payload)?),
        OwnedKey::Rep {
            pipeline,
            seed,
            subject,
        } => Payload::Report(decode_report(payload, *pipeline, *seed, subject.clone())?),
    };
    Ok(Record { kind, key, payload })
}

/// The content address (file stem) of a record: FNV-1a over the kind
/// tag plus the encoded key block, rendered as 16 hex digits. The key
/// fields are themselves content fingerprints, so equal addresses mean
/// equal artifacts (up to 64-bit collision odds).
pub(crate) fn address(kind: u8, key_bytes: &[u8]) -> String {
    let mut all = Vec::with_capacity(1 + key_bytes.len());
    all.push(kind);
    all.extend_from_slice(key_bytes);
    format!("{:016x}", fnv1a(&all))
}
