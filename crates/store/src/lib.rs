//! # khaos-store — persistent content-addressed artifact store
//!
//! The evaluation protocol (§4.2 of the paper) re-runs the same differs
//! over the same obfuscated binaries across many configurations; the
//! per-binary analysis artifacts — embedding tables, similarity
//! matrices, pipeline reports — are deterministic functions of content
//! fingerprints the rest of the workspace already computes
//! (`Binary::fingerprint`, per-tool `config_fingerprint`,
//! `Pipeline::fingerprint`). This crate makes those artifacts durable:
//! an on-disk store that outlives the process, so sweeps and CI bench
//! runs warm-start instead of re-embedding everything from scratch.
//!
//! The store is the **disk tier** under `khaos_diff::EmbeddingCache`
//! (memory → disk → compute); set the `KHAOS_STORE` environment
//! variable to a directory to enable it process-wide. Artifacts served
//! from disk are **bit-identical** to freshly computed ones — payloads
//! round-trip raw IEEE-754 bits, never a decimal rendering.
//!
//! ## Directory layout
//!
//! ```text
//! <root>/FORMAT        "khaos-store 2\n" — refuse directories of any other version
//! <root>/tmp/          staging area for atomic renames
//! <root>/emb/<addr>.khs   per-binary embedding tables
//! <root>/mat/<addr>.khs   query×target similarity matrices
//! <root>/rep/<addr>.khs   pipeline / experiment reports
//! <root>/rep/<addr>.lease cell claim files (work-queue leases, see below)
//! <root>/qnt/<addr>.khs   per-binary int8 quantized embedding tables
//! <root>/idx/<addr>.khs   IVF index segments over embedding corpora
//! <root>/bld/<addr>.khs   memoized builds (built module as text IR)
//! ```
//!
//! `<addr>` is the content address: 16 hex digits of FNV-1a over the
//! record's kind tag + encoded key block. Keys are built from content
//! fingerprints, so the addressing is content addressing one hash
//! removed.
//!
//! ## Record format (version 2, all integers little-endian)
//!
//! ```text
//! magic            4 bytes   "KHST"
//! format version   u32       2
//! kind             u8        1 = embeddings, 2 = matrix, 3 = report,
//!                            4 = quantized embeddings, 5 = IVF index
//!                            segment, 6 = memoized build
//! key block        kind-specific, see below
//! payload length   u64       bytes of payload that follow
//! payload          kind-specific, see below
//! checksum         u64       FNV-1a over every preceding byte
//! ```
//!
//! Key blocks (strings are u32 length + UTF-8 bytes):
//!
//! * embeddings: `tool: str`, `config: u64`, `binary: u64`
//! * matrix:     `tool: str`, `config: u64`, `query: u64`, `target: u64`
//! * report:     `pipeline: u64`, `seed: u64`, `subject: str`
//! * quantized:  `tool: str`, `config: u64`, `binary: u64` (the
//!   embedding key; the kind tag keeps the addresses disjoint)
//! * index:      `tool: str`, `config: u64`, `corpus: u64` (FNV-1a
//!   fingerprint over the indexed rows' provenance)
//! * build:      `source: u64` (`Module::content_fingerprint` of the
//!   source), `pipeline: u64`, `seed: u64`, `version: u64` (the
//!   build memo's version, so a bump orphans every older record)
//!
//! Payloads:
//!
//! * embeddings / matrix: `rows: u64`, `dim: u64`, then `rows × dim`
//!   f64 values stored as raw bit patterns (`f64::to_bits`, LE) — the
//!   byte-exact round trip the store's tests pin;
//! * report: `spec: str`, `total_micros: u64`, pass count (u32) and
//!   per-pass `{atom: str, micros: u64, before/after shape: 3×u64}`,
//!   then metric count (u32) and per-metric `{name: str, value: f64
//!   bits}`;
//! * quantized: `rows: u64`, `dim: u64`, `rows` per-row scales then
//!   `rows` per-row offsets (f64 bits), then `rows × dim` i8 codes as
//!   raw bytes — i8 payload and scales round-trip bit-exactly;
//! * index: `rows: u64`, `dim: u64`, `nlist: u64`, `nprobe: u32`,
//!   `seed: u64`, `nlist × dim` centroid f64 bits, `rows` u32 cell
//!   assignments, then `rows` per-row provenance records
//!   `{binary: u64, function: u32, name: str}`. The corpus' f64 and
//!   int8 tables are separate `emb`/`qnt` records keyed by the corpus
//!   fingerprint — one index segment is those three records together;
//! * build: `module: str` (the built module's text IR, which the KIR
//!   parser reads back), then counter count (u32) and the counters as
//!   f64 bits — the pass statistics of the build, in the order its
//!   writer defines (the key's `version` covers that layout).
//!
//! **A format-version bump is a cache-invalidating event**: readers
//! refuse both records and whole store directories of any other
//! version, exactly like a `Binary::fingerprint` digest change
//! invalidates the in-memory cache keys. Version 2 (the quantized
//! record kind) was such a bump: v1 directories are refused and
//! recompute from scratch under a fresh stamp. The index kind was
//! added to version 2 **without** a bump — purely additive, and
//! readers that predate it diagnose the unknown kind by name instead
//! of refusing the store. The build kind was added the same way.
//!
//! ## Concurrency
//!
//! Writers serialize the full record in memory, write it to
//! `tmp/<pid>-<counter>.part`, and `rename(2)` it into place — readers
//! only ever observe complete records, so any number of `par_fan_out`
//! workers (or separate processes) can share one store without
//! coordination. Mutating maintenance ([`Store::gc`]) takes an
//! exclusive lock file (`gc.lock`, created with `O_EXCL`; stale locks
//! older than ten minutes are stolen) so two collectors never race.
//!
//! Stale locks are stolen with a rename-verify-delete dance, never a
//! bare `remove_file`: the stealer renames the suspect lock to a
//! process-unique grave name (the rename is the atomic arbiter — only
//! one stealer gets the inode), re-checks the *renamed* file's mtime,
//! and only then deletes it. A fresh lock that slipped into the window
//! between the staleness check and the rename is put back via
//! `hard_link` (which, unlike rename, refuses to clobber). The old
//! check-then-delete had a TOCTOU hole: another process could steal
//! and recreate the lock inside the window, and the late deleter would
//! remove the *fresh* holder's lock, letting two collectors run
//! concurrently.
//!
//! ## Cell leases (elastic work queues)
//!
//! The same stolen-stale-lock pattern, generalized per record, turns
//! the report keyspace into a persistent work queue: a worker claims a
//! grid cell by creating `rep/<addr>.lease` with `O_EXCL` next to
//! where the cell's report record will land ([`Store::try_lease_report`]),
//! computes, persists the record, and releases the claim. A worker
//! that dies mid-cell leaves the claim file behind; once it is older
//! than the lease horizon any other worker steals it (same
//! rename-verify-delete primitive) and recomputes the cell — cells are
//! deterministic functions of their key, so a re-steal is always safe.
//! Claim files use the `.lease` extension precisely so every record
//! scan (`stats`, `ls`, `verify`, `gc`, `merge`) ignores them: they
//! are coordination state, not artifacts, and are **excluded from gc
//! accounting** — a dangling claim never counts against `max_bytes`
//! and is never "collected" into a half-claimed queue.

mod format;

pub use format::{
    fnv1a, OwnedKey, FORMAT_VERSION, KIND_BUILD, KIND_EMBEDDINGS, KIND_INDEX, KIND_MATRIX,
    KIND_QUANT, KIND_REPORT, KNOWN_KINDS, MAGIC,
};

use format::{Payload, Record};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, SystemTime};

/// Global-registry handles for the disk tier's telemetry, resolved
/// once per process so the per-event cost is one relaxed atomic add.
/// Counters aggregate across every `Store` instance in the process;
/// `khaos-store stats` stays the per-directory view.
struct StoreObs {
    writes: Arc<khaos_obs::Counter>,
    write_bytes: Arc<khaos_obs::Counter>,
    reads: Arc<khaos_obs::Counter>,
    read_bytes: Arc<khaos_obs::Counter>,
    read_misses: Arc<khaos_obs::Counter>,
    gc_deleted: Arc<khaos_obs::Counter>,
    gc_freed_bytes: Arc<khaos_obs::Counter>,
    lease_acquired: Arc<khaos_obs::Counter>,
    lease_stolen: Arc<khaos_obs::Counter>,
    lease_contended: Arc<khaos_obs::Counter>,
    merge_copied: Arc<khaos_obs::Counter>,
    merge_skipped: Arc<khaos_obs::Counter>,
}

fn store_obs() -> &'static StoreObs {
    static OBS: OnceLock<StoreObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = khaos_obs::Registry::global();
        StoreObs {
            writes: r.counter("store.disk.writes"),
            write_bytes: r.counter("store.disk.write_bytes"),
            reads: r.counter("store.disk.reads"),
            read_bytes: r.counter("store.disk.read_bytes"),
            read_misses: r.counter("store.disk.read_misses"),
            gc_deleted: r.counter("store.gc.deleted"),
            gc_freed_bytes: r.counter("store.gc.freed_bytes"),
            lease_acquired: r.counter("store.lease.acquired"),
            lease_stolen: r.counter("store.lease.stolen"),
            lease_contended: r.counter("store.lease.contended"),
            merge_copied: r.counter("store.merge.copied"),
            merge_skipped: r.counter("store.merge.skipped"),
        }
    })
}

/// A flat row-major f64 table — the wire form of both embedding tables
/// (`rows` functions × `dim` features) and similarity matrices (`rows`
/// queries × `dim` targets). `data` round-trips bit-exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatTable {
    /// Row count.
    pub rows: u64,
    /// Row width.
    pub dim: u64,
    /// `rows * dim` values, row-major.
    pub data: Vec<f64>,
}

impl FlatTable {
    /// Wraps a flat buffer; panics when the shape disagrees with the
    /// data length (a caller bug, surfaced loudly before it hits disk).
    pub fn new(rows: usize, dim: usize, data: Vec<f64>) -> Self {
        assert_eq!(rows * dim, data.len(), "flat table shape mismatch");
        FlatTable {
            rows: rows as u64,
            dim: dim as u64,
            data,
        }
    }

    /// Borrowed view of this table (the write-side form).
    pub fn view(&self) -> TableView<'_> {
        TableView {
            rows: self.rows,
            dim: self.dim,
            data: &self.data,
        }
    }
}

/// Borrowed view of a flat row-major f64 table — what the write paths
/// take, so persisting an embedding table or matrix never clones its
/// buffer (the encoder serializes straight from the slice).
#[derive(Clone, Copy, Debug)]
pub struct TableView<'a> {
    /// Row count.
    pub rows: u64,
    /// Row width.
    pub dim: u64,
    /// `rows * dim` values, row-major.
    pub data: &'a [f64],
}

impl<'a> TableView<'a> {
    /// Wraps a flat buffer; panics when the shape disagrees with the
    /// data length (a caller bug, surfaced loudly before it hits disk).
    pub fn new(rows: usize, dim: usize, data: &'a [f64]) -> Self {
        assert_eq!(rows * dim, data.len(), "flat table shape mismatch");
        TableView {
            rows: rows as u64,
            dim: dim as u64,
            data,
        }
    }
}

/// An owned int8 quantized embedding table — the wire form of
/// `khaos_diff::quant::QuantizedEmbeddings` (`rows` functions × `dim`
/// i8 codes, one `(scale, offset)` f64 pair per row). Codes and the
/// f64 fields round-trip bit-exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantTable {
    /// Row count.
    pub rows: u64,
    /// Row width (codes per function).
    pub dim: u64,
    /// Per-row quantization scales (`rows` values).
    pub scales: Vec<f64>,
    /// Per-row affine offsets (`rows` values).
    pub offsets: Vec<f64>,
    /// `rows * dim` i8 codes, row-major.
    pub data: Vec<i8>,
}

impl QuantTable {
    /// Borrowed view of this table (the write-side form).
    pub fn view(&self) -> QuantView<'_> {
        QuantView {
            rows: self.rows,
            dim: self.dim,
            scales: &self.scales,
            offsets: &self.offsets,
            data: &self.data,
        }
    }
}

/// Borrowed view of a quantized embedding table — what
/// [`Store::put_quantized`] takes, serialized straight from the
/// slices.
#[derive(Clone, Copy, Debug)]
pub struct QuantView<'a> {
    /// Row count.
    pub rows: u64,
    /// Row width (codes per function).
    pub dim: u64,
    /// Per-row quantization scales (`rows` values).
    pub scales: &'a [f64],
    /// Per-row affine offsets (`rows` values).
    pub offsets: &'a [f64],
    /// `rows * dim` i8 codes, row-major.
    pub data: &'a [i8],
}

impl<'a> QuantView<'a> {
    /// Wraps borrowed quantized parts; panics on shape mismatches (a
    /// caller bug, surfaced loudly before it hits disk).
    pub fn new(
        rows: usize,
        dim: usize,
        scales: &'a [f64],
        offsets: &'a [f64],
        data: &'a [i8],
    ) -> Self {
        assert_eq!(rows * dim, data.len(), "quantized table shape mismatch");
        assert_eq!(scales.len(), rows, "one scale per row");
        assert_eq!(offsets.len(), rows, "one offset per row");
        QuantView {
            rows: rows as u64,
            dim: dim as u64,
            scales,
            offsets,
            data,
        }
    }
}

/// Per-row provenance inside a stored index segment: where the corpus
/// row came from, so a hit names the function that matched without
/// reloading any binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoredRowMeta {
    /// `Binary::fingerprint` of the source binary.
    pub binary: u64,
    /// Function index inside that binary.
    pub function: u32,
    /// Function symbol name (empty when anonymous).
    pub name: String,
}

/// An owned IVF index segment — the stored form of
/// `khaos_index::IvfIndex` minus the corpus tables (which persist as
/// their own `emb`/`qnt` records under the corpus fingerprint).
#[derive(Clone, Debug, PartialEq)]
pub struct IndexTable {
    /// Corpus row count.
    pub rows: u64,
    /// Embedding dimension.
    pub dim: u64,
    /// Number of coarse cells (k-means centroids).
    pub nlist: u64,
    /// Default number of cells probed per query.
    pub nprobe: u32,
    /// Seed the k-means build ran under.
    pub seed: u64,
    /// `nlist * dim` centroid values, row-major, L2-normalized.
    pub centroids: Vec<f64>,
    /// Per-corpus-row cell assignment (`rows` values, each `< nlist`).
    pub assignments: Vec<u32>,
    /// Per-corpus-row provenance (`rows` entries).
    pub meta: Vec<StoredRowMeta>,
}

/// IR shape snapshot inside a stored report (functions/blocks/insts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoredShape {
    /// Function count.
    pub functions: u64,
    /// Basic-block count.
    pub blocks: u64,
    /// Instruction count.
    pub insts: u64,
}

/// One pass of a stored pipeline report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredPass {
    /// Canonical spec atom of the pass.
    pub pass: String,
    /// Wall-clock duration in microseconds.
    pub micros: u64,
    /// Module shape before the pass.
    pub before: StoredShape,
    /// Module shape after the pass.
    pub after: StoredShape,
}

/// A persisted experiment artifact: what one pipeline run did to one
/// subject, plus any metric results measured on the outcome. Keyed by
/// `(pipeline fingerprint, seed, subject)`.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredReport {
    /// Canonical pipeline spec.
    pub spec: String,
    /// `Pipeline::fingerprint()` of the spec.
    pub pipeline: u64,
    /// Obfuscation seed of the run.
    pub seed: u64,
    /// What was built/measured (program name, experiment cell, …).
    pub subject: String,
    /// Total pipeline wall-clock in microseconds.
    pub total_micros: u64,
    /// Per-pass timing and IR deltas, in execution order.
    pub passes: Vec<StoredPass>,
    /// Named metric results (escape@k, similarity, overhead, …).
    pub metrics: Vec<(String, f64)>,
}

impl StoredReport {
    /// Converts a [`khaos_pass::PipelineReport`] into its persistent
    /// form, stamped with the subject (program name, experiment cell,
    /// …) it was measured on — the one conversion every driver
    /// (`khaos-bench`, `khaos-obf`, BinTuner) shares. Metrics start
    /// empty; push onto [`StoredReport::metrics`] before
    /// [`Store::put_report`] to attach results.
    pub fn from_pipeline(subject: &str, report: &khaos_pass::PipelineReport) -> StoredReport {
        let shape = |s: &khaos_pass::IrShape| StoredShape {
            functions: s.functions as u64,
            blocks: s.blocks as u64,
            insts: s.insts as u64,
        };
        StoredReport {
            spec: report.spec.clone(),
            pipeline: report.fingerprint,
            seed: report.seed,
            subject: subject.to_string(),
            total_micros: report.total.as_micros() as u64,
            passes: report
                .passes
                .iter()
                .map(|p| StoredPass {
                    pass: p.pass.clone(),
                    micros: p.duration.as_micros() as u64,
                    before: shape(&p.before),
                    after: shape(&p.after),
                })
                .collect(),
            metrics: Vec::new(),
        }
    }
}

/// A memoized build: the module one pipeline run produced, as text IR,
/// and the statistics counters the run collected. A build record holds
/// everything a caller needs to skip the rebuild.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredBuild {
    /// The built module, printed by `khaos_ir::printer`.
    pub module: String,
    /// Counters of the build, in the writer's order (f64 bits
    /// round-trip exactly). The store does not name them: a layout
    /// change is a new [`BuildKey::version`].
    pub stats: Vec<f64>,
}

/// Lookup key of an embedding-table record — the same
/// `(tool name, config fingerprint, binary fingerprint)` tuple the
/// in-memory embedding cache keys on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EmbKey<'a> {
    /// Differ name.
    pub tool: &'a str,
    /// Differ configuration fingerprint.
    pub config: u64,
    /// `Binary::fingerprint` of the embedded binary.
    pub binary: u64,
}

/// Lookup key of a similarity-matrix record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MatKey<'a> {
    /// Differ name.
    pub tool: &'a str,
    /// Differ configuration fingerprint.
    pub config: u64,
    /// Query-side binary fingerprint.
    pub query: u64,
    /// Target-side binary fingerprint.
    pub target: u64,
}

/// Lookup key of an index-segment record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IndexKey<'a> {
    /// Differ name.
    pub tool: &'a str,
    /// Differ configuration fingerprint.
    pub config: u64,
    /// Corpus fingerprint (FNV over the indexed rows' provenance).
    pub corpus: u64,
}

/// Lookup key of a report record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReportKey<'a> {
    /// `Pipeline::fingerprint()` of the build.
    pub pipeline: u64,
    /// Obfuscation seed of the run.
    pub seed: u64,
    /// Free-form subject string.
    pub subject: &'a str,
}

/// Lookup key of a memoized-build record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BuildKey {
    /// `Module::content_fingerprint` of the source module.
    pub source: u64,
    /// `Pipeline::fingerprint()` of the build.
    pub pipeline: u64,
    /// Obfuscation seed of the build.
    pub seed: u64,
    /// The memo version the caller keys on; bumping it orphans every
    /// record written under an older one.
    pub version: u64,
}

/// Record counts and byte totals of one store section.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SectionStats {
    /// Number of record files.
    pub records: u64,
    /// Their total size in bytes.
    pub bytes: u64,
}

/// Aggregate [`Store::stats`] over the six sections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// The `emb/` section.
    pub embeddings: SectionStats,
    /// The `mat/` section.
    pub matrices: SectionStats,
    /// The `rep/` section.
    pub reports: SectionStats,
    /// The `qnt/` section (int8 quantized embedding tables).
    pub quantized: SectionStats,
    /// The `idx/` section (IVF index segments).
    pub indexes: SectionStats,
    /// The `bld/` section (memoized builds).
    pub builds: SectionStats,
}

impl StoreStats {
    /// Total record count across sections.
    pub fn total_records(&self) -> u64 {
        self.embeddings.records
            + self.matrices.records
            + self.reports.records
            + self.quantized.records
            + self.indexes.records
            + self.builds.records
    }

    /// Total bytes across sections.
    pub fn total_bytes(&self) -> u64 {
        self.embeddings.bytes
            + self.matrices.bytes
            + self.reports.bytes
            + self.quantized.bytes
            + self.indexes.bytes
            + self.builds.bytes
    }
}

/// One record as listed by [`Store::ls`].
#[derive(Clone, Debug)]
pub struct RecordInfo {
    /// Section directory name (`emb`/`mat`/`rep`/`qnt`/`idx`/`bld`).
    pub section: &'static str,
    /// File name inside the section.
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Last-modified time, when the filesystem reports one.
    pub modified: Option<SystemTime>,
    /// Human-readable key, or `None` when the record does not decode.
    pub key: Option<String>,
}

/// One fully decoded record, as returned by [`Store::cat`] — the
/// single-record inspection the `khaos-store cat` subcommand prints.
#[derive(Clone, Debug)]
pub struct RecordDump {
    /// Section directory name (`emb`/`mat`/`rep`/`qnt`/`idx`/`bld`).
    pub section: &'static str,
    /// File name inside the section.
    pub file: String,
    /// The decoded key.
    pub key: OwnedKey,
    /// The decoded payload.
    pub payload: PayloadDump,
}

/// Decoded payload of a [`RecordDump`].
#[derive(Clone, Debug)]
pub enum PayloadDump {
    /// An embedding table or similarity matrix.
    Table(FlatTable),
    /// A pipeline/experiment report.
    Report(StoredReport),
    /// An int8 quantized embedding table.
    Quant(QuantTable),
    /// An IVF index segment.
    Index(IndexTable),
    /// A memoized build.
    Build(StoredBuild),
}

impl std::fmt::Display for RecordDump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}/{}", self.section, self.file)?;
        writeln!(f, "key: {}", self.key)?;
        match &self.payload {
            PayloadDump::Table(t) => {
                writeln!(f, "payload: {}x{} f64 table", t.rows, t.dim)?;
                for (i, row) in t.data.chunks(t.dim.max(1) as usize).take(4).enumerate() {
                    write!(f, "  row {i}:")?;
                    for v in row.iter().take(8) {
                        write!(f, " {v:.6}")?;
                    }
                    if row.len() > 8 {
                        write!(f, " … ({} more)", row.len() - 8)?;
                    }
                    writeln!(f)?;
                }
                if t.rows > 4 {
                    writeln!(f, "  … ({} more rows)", t.rows - 4)?;
                }
            }
            PayloadDump::Report(r) => {
                writeln!(
                    f,
                    "payload: report `{}` spec=`{}` total={}us",
                    r.subject, r.spec, r.total_micros
                )?;
                for p in &r.passes {
                    writeln!(
                        f,
                        "  pass {:<14} {:>8}us  {}f/{}b/{}i -> {}f/{}b/{}i",
                        p.pass,
                        p.micros,
                        p.before.functions,
                        p.before.blocks,
                        p.before.insts,
                        p.after.functions,
                        p.after.blocks,
                        p.after.insts
                    )?;
                }
                for (name, value) in &r.metrics {
                    writeln!(f, "  metric {name} = {value}")?;
                }
            }
            PayloadDump::Quant(q) => {
                writeln!(f, "payload: {}x{} i8 quantized table", q.rows, q.dim)?;
                for (i, row) in q.data.chunks(q.dim.max(1) as usize).take(4).enumerate() {
                    write!(
                        f,
                        "  row {i}: scale={:.6e} offset={:.6e} codes:",
                        q.scales.get(i).copied().unwrap_or(0.0),
                        q.offsets.get(i).copied().unwrap_or(0.0)
                    )?;
                    for v in row.iter().take(8) {
                        write!(f, " {v}")?;
                    }
                    if row.len() > 8 {
                        write!(f, " … ({} more)", row.len() - 8)?;
                    }
                    writeln!(f)?;
                }
                if q.rows > 4 {
                    writeln!(f, "  … ({} more rows)", q.rows - 4)?;
                }
            }
            PayloadDump::Index(t) => {
                writeln!(
                    f,
                    "payload: IVF index segment, {} rows x {} dim, nlist={} nprobe={} seed={:#x}",
                    t.rows, t.dim, t.nlist, t.nprobe, t.seed
                )?;
                let mut sizes = vec![0u64; t.nlist as usize];
                for &a in &t.assignments {
                    if let Some(s) = sizes.get_mut(a as usize) {
                        *s += 1;
                    }
                }
                let occupied = sizes.iter().filter(|&&s| s > 0).count();
                writeln!(
                    f,
                    "  cells: {occupied}/{} occupied, largest {}",
                    t.nlist,
                    sizes.iter().max().copied().unwrap_or(0)
                )?;
                for (i, m) in t.meta.iter().take(4).enumerate() {
                    writeln!(
                        f,
                        "  row {i}: bin={:016x} fn#{} `{}` -> cell {}",
                        m.binary,
                        m.function,
                        m.name,
                        t.assignments.get(i).copied().unwrap_or(0)
                    )?;
                }
                if t.rows > 4 {
                    writeln!(f, "  … ({} more rows)", t.rows - 4)?;
                }
            }
            PayloadDump::Build(b) => {
                writeln!(
                    f,
                    "payload: build, {} bytes of text IR in {} lines",
                    b.module.len(),
                    b.module.lines().count()
                )?;
                writeln!(f, "  stats {:?}", b.stats)?;
                for line in b.module.lines().take(4) {
                    writeln!(f, "  | {line}")?;
                }
            }
        }
        Ok(())
    }
}

/// One problem found by [`Store::verify`].
#[derive(Clone, Debug)]
pub struct VerifyIssue {
    /// `section/file` of the offending record.
    pub file: String,
    /// What is wrong with it.
    pub reason: String,
}

/// What one [`Store::gc`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcSummary {
    /// Records examined.
    pub scanned: u64,
    /// Records deleted (oldest-first).
    pub deleted: u64,
    /// Store size before collection.
    pub bytes_before: u64,
    /// Store size after collection.
    pub bytes_after: u64,
}

const FORMAT_FILE: &str = "FORMAT";
const TMP_DIR: &str = "tmp";
const GC_LOCK: &str = "gc.lock";
/// Lock files older than this are assumed to be left over from a
/// crashed collector and are stolen.
const STALE_LOCK: Duration = Duration::from_secs(600);
/// Extension of cell claim files (`rep/<addr>.lease`). Deliberately
/// not `.khs`: every record scan filters on the record extension, so
/// claim files are invisible to `stats`/`ls`/`verify`/`gc`/`merge`.
const LEASE_EXT: &str = "lease";
/// Default lease horizon when `KHAOS_LEASE_MS` is unset: a claim file
/// older than this marks a dead worker and is stolen. Must exceed the
/// slowest single cell build; well under the gc `STALE_LOCK` horizon
/// because cells are small units of work, not whole collections.
const DEFAULT_LEASE: Duration = Duration::from_secs(120);

/// The six record sections, in `(name, kind)` order.
const SECTIONS: [(&str, u8); 6] = [
    ("emb", KIND_EMBEDDINGS),
    ("mat", KIND_MATRIX),
    ("rep", KIND_REPORT),
    ("qnt", KIND_QUANT),
    ("idx", KIND_INDEX),
    ("bld", KIND_BUILD),
];

/// A content-addressed artifact store rooted at one directory. Cheap to
/// clone behind an `Arc`; all operations take `&self`.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

/// Exclusive store-maintenance lock; the lock file is removed on drop.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// A held claim on one report cell (see the crate docs' *Cell leases*
/// section). The claim file is removed on drop; a worker that dies
/// without dropping leaves it behind for another worker to steal after
/// the lease horizon.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    stolen: bool,
}

impl Lease {
    /// Whether this claim was stolen from a dead worker's stale claim
    /// file (as opposed to created on free ground).
    pub fn was_stolen(&self) -> bool {
        self.stolen
    }

    /// The claim file backing this lease.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-stamps the claim file's mtime (by rewriting the owner pid) so
    /// a long-running cell is not stolen mid-compute. Call at least
    /// once per lease horizon while still working.
    pub fn refresh(&self) -> io::Result<()> {
        fs::write(&self.path, format!("{}\n", std::process::id()))
    }

    /// Releases the claim (same as dropping, spelled for call sites
    /// where the release is the point).
    pub fn release(self) {}
}

impl Drop for Lease {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// What one [`Store::merge_from`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeSummary {
    /// Records copied into the destination.
    pub copied: u64,
    /// Records skipped because the destination already holds the
    /// byte-identical record.
    pub skipped: u64,
}

impl Store {
    /// Opens (creating if necessary) a store directory. Fails with
    /// `InvalidData` when the directory was written by a different
    /// format version — a version bump invalidates the whole store by
    /// design; delete the directory to rebuild it.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Store> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(root.join(TMP_DIR))?;
        for (section, _) in SECTIONS {
            fs::create_dir_all(root.join(section))?;
        }
        let store = Store { root };
        let stamp = store.root.join(FORMAT_FILE);
        let want = format!("khaos-store {FORMAT_VERSION}\n");
        match fs::read_to_string(&stamp) {
            Ok(have) if have == want => {}
            Ok(have) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: store format `{}` but this build writes `{}`; a format-version \
                         bump invalidates every record — delete the directory to rebuild it",
                        store.root.display(),
                        have.trim(),
                        want.trim()
                    ),
                ));
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                store.write_atomic(&stamp, want.as_bytes())?;
            }
            Err(e) => return Err(e),
        }
        Ok(store)
    }

    /// Opens a directory that must already be a store — the
    /// inspection/merge-side entry point ([`Store::open`] is for
    /// writers: it creates the tree, which would turn a typo'd path in
    /// `khaos-store report` or a shard merge into a freshly created
    /// empty store that misreads as "every cell missing"). The `FORMAT`
    /// stamp is the store marker: requiring it keeps read-only commands
    /// from silently converting some other existing directory into a
    /// store by planting section dirs and a stamp inside it.
    pub fn open_existing(root: impl AsRef<Path>) -> io::Result<Store> {
        let root = root.as_ref();
        if !root.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}: no such store directory", root.display()),
            ));
        }
        if !root.join(FORMAT_FILE).is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "{}: not a khaos-store directory (no {FORMAT_FILE} stamp)",
                    root.display()
                ),
            ));
        }
        Store::open(root)
    }

    /// The store configured by the `KHAOS_STORE` environment variable,
    /// opened once per process. `None` when the variable is unset,
    /// empty, or the directory cannot be opened (a warning is printed
    /// once — a broken disk cache must never fail the workload).
    pub fn from_env() -> Option<Arc<Store>> {
        static ENV_STORE: OnceLock<Option<Arc<Store>>> = OnceLock::new();
        ENV_STORE
            .get_or_init(|| {
                let dir = std::env::var("KHAOS_STORE")
                    .ok()
                    .filter(|s| !s.trim().is_empty())?;
                match Store::open(&dir) {
                    Ok(s) => Some(Arc::new(s)),
                    Err(e) => {
                        eprintln!(
                            "khaos-store: cannot open `{dir}`: {e}; continuing without a disk cache"
                        );
                        None
                    }
                }
            })
            .clone()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Serializes to a staging file, then atomically renames into
    /// place. Readers never observe a partial record.
    fn write_atomic(&self, dest: &Path, bytes: &[u8]) -> io::Result<()> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "{}-{}.part",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let tmp = self.root.join(TMP_DIR).join(unique);
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, dest)
            .inspect(|()| {
                let obs = store_obs();
                obs.writes.inc();
                obs.write_bytes.add(bytes.len() as u64);
            })
            .inspect_err(|_| {
                let _ = fs::remove_file(&tmp);
            })
    }

    /// Reads one record file, counting the disk-tier hit/miss in the
    /// metrics registry. `Ok(None)` on a missing file; other I/O errors
    /// surface.
    fn read_record_bytes(path: &Path) -> io::Result<Option<Vec<u8>>> {
        match fs::read(path) {
            Ok(b) => {
                let obs = store_obs();
                obs.reads.inc();
                obs.read_bytes.add(b.len() as u64);
                Ok(Some(b))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                store_obs().read_misses.inc();
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn record_path(&self, section: &str, kind: u8, key_bytes: &[u8]) -> PathBuf {
        self.root
            .join(section)
            .join(format!("{}.khs", format::address(kind, key_bytes)))
    }

    /// Persists an embedding table (zero-copy from the borrowed view).
    pub fn put_embeddings(&self, key: &EmbKey, table: TableView<'_>) -> io::Result<()> {
        assert_eq!(
            table.rows * table.dim,
            table.data.len() as u64,
            "flat table shape mismatch"
        );
        let kb = format::key_bytes_emb(key.tool, key.config, key.binary);
        let bytes = format::encode_embeddings(key.tool, key.config, key.binary, table);
        self.write_atomic(&self.record_path("emb", KIND_EMBEDDINGS, &kb), &bytes)
    }

    /// Loads an embedding table; `Ok(None)` on a miss **or** on a
    /// corrupt/foreign record (a damaged disk cache degrades to a cache
    /// miss, never to an error — `khaos-store verify` reports the
    /// damage explicitly).
    pub fn get_embeddings(&self, key: &EmbKey) -> io::Result<Option<FlatTable>> {
        let kb = format::key_bytes_emb(key.tool, key.config, key.binary);
        let want = OwnedKey::Emb {
            tool: key.tool.to_string(),
            config: key.config,
            binary: key.binary,
        };
        self.get_table(self.record_path("emb", KIND_EMBEDDINGS, &kb), &want)
    }

    /// Persists a similarity matrix (zero-copy from the borrowed view).
    pub fn put_matrix(&self, key: &MatKey, table: TableView<'_>) -> io::Result<()> {
        assert_eq!(
            table.rows * table.dim,
            table.data.len() as u64,
            "flat table shape mismatch"
        );
        let kb = format::key_bytes_mat(key.tool, key.config, key.query, key.target);
        let bytes = format::encode_matrix(key.tool, key.config, key.query, key.target, table);
        self.write_atomic(&self.record_path("mat", KIND_MATRIX, &kb), &bytes)
    }

    /// Loads a similarity matrix (same miss semantics as
    /// [`Store::get_embeddings`]).
    pub fn get_matrix(&self, key: &MatKey) -> io::Result<Option<FlatTable>> {
        let kb = format::key_bytes_mat(key.tool, key.config, key.query, key.target);
        let want = OwnedKey::Mat {
            tool: key.tool.to_string(),
            config: key.config,
            query: key.query,
            target: key.target,
        };
        self.get_table(self.record_path("mat", KIND_MATRIX, &kb), &want)
    }

    fn get_table(&self, path: PathBuf, want: &OwnedKey) -> io::Result<Option<FlatTable>> {
        let Some(bytes) = Self::read_record_bytes(&path)? else {
            return Ok(None);
        };
        match format::decode_record(&bytes) {
            Ok(Record {
                key,
                payload: Payload::Table(t),
                ..
            }) if key == *want => Ok(Some(t)),
            // Corrupt record or a 64-bit address collision with a
            // different key: both degrade to a miss.
            _ => Ok(None),
        }
    }

    /// Persists an int8 quantized embedding table under the embedding
    /// key (kind 4, the `qnt/` section — the content addresses stay
    /// disjoint from the f64 table's).
    pub fn put_quantized(&self, key: &EmbKey, table: QuantView<'_>) -> io::Result<()> {
        let kb = format::key_bytes_emb(key.tool, key.config, key.binary);
        let bytes = format::encode_quantized(key.tool, key.config, key.binary, table);
        self.write_atomic(&self.record_path("qnt", KIND_QUANT, &kb), &bytes)
    }

    /// Loads a quantized embedding table (same miss semantics as
    /// [`Store::get_embeddings`]: damage degrades to a miss; the i8
    /// codes and per-row scales round-trip bit-exactly on a hit).
    pub fn get_quantized(&self, key: &EmbKey) -> io::Result<Option<QuantTable>> {
        let kb = format::key_bytes_emb(key.tool, key.config, key.binary);
        let want = OwnedKey::Quant {
            tool: key.tool.to_string(),
            config: key.config,
            binary: key.binary,
        };
        let path = self.record_path("qnt", KIND_QUANT, &kb);
        let Some(bytes) = Self::read_record_bytes(&path)? else {
            return Ok(None);
        };
        match format::decode_record(&bytes) {
            Ok(Record {
                key,
                payload: Payload::Quant(q),
                ..
            }) if key == want => Ok(Some(q)),
            _ => Ok(None),
        }
    }

    /// Persists a report, keyed by its
    /// `(pipeline fingerprint, seed, subject)`.
    pub fn put_report(&self, report: &StoredReport) -> io::Result<()> {
        let kb = format::key_bytes_rep(report.pipeline, report.seed, &report.subject);
        let bytes = format::encode_report(report);
        self.write_atomic(&self.record_path("rep", KIND_REPORT, &kb), &bytes)
    }

    /// Loads a report (same miss semantics as [`Store::get_embeddings`]).
    pub fn get_report(&self, key: &ReportKey) -> io::Result<Option<StoredReport>> {
        let kb = format::key_bytes_rep(key.pipeline, key.seed, key.subject);
        let path = self.record_path("rep", KIND_REPORT, &kb);
        let Some(bytes) = Self::read_record_bytes(&path)? else {
            return Ok(None);
        };
        match format::decode_record(&bytes) {
            Ok(Record {
                payload: Payload::Report(r),
                ..
            }) if r.pipeline == key.pipeline && r.seed == key.seed && r.subject == key.subject => {
                Ok(Some(r))
            }
            _ => Ok(None),
        }
    }

    /// Persists an IVF index segment, keyed by
    /// `(tool, config, corpus fingerprint)`.
    pub fn put_index(&self, key: &IndexKey, table: &IndexTable) -> io::Result<()> {
        assert_eq!(
            table.rows as usize,
            table.assignments.len(),
            "one cell assignment per corpus row"
        );
        assert_eq!(
            table.rows as usize,
            table.meta.len(),
            "one provenance entry per corpus row"
        );
        assert_eq!(
            (table.nlist * table.dim) as usize,
            table.centroids.len(),
            "index centroid shape mismatch"
        );
        let kb = format::key_bytes_idx(key.tool, key.config, key.corpus);
        let bytes = format::encode_index(key.tool, key.config, key.corpus, table);
        self.write_atomic(&self.record_path("idx", KIND_INDEX, &kb), &bytes)
    }

    /// Loads an index segment (same miss semantics as
    /// [`Store::get_embeddings`]: damage degrades to a miss; `verify`
    /// names it).
    pub fn get_index(&self, key: &IndexKey) -> io::Result<Option<IndexTable>> {
        let kb = format::key_bytes_idx(key.tool, key.config, key.corpus);
        let want = OwnedKey::Index {
            tool: key.tool.to_string(),
            config: key.config,
            corpus: key.corpus,
        };
        let path = self.record_path("idx", KIND_INDEX, &kb);
        let Some(bytes) = Self::read_record_bytes(&path)? else {
            return Ok(None);
        };
        match format::decode_record(&bytes) {
            Ok(Record {
                key,
                payload: Payload::Index(t),
                ..
            }) if key == want => Ok(Some(t)),
            _ => Ok(None),
        }
    }

    /// Persists a memoized build, keyed by
    /// `(source, pipeline, seed, version)`.
    pub fn put_build(&self, key: &BuildKey, build: &StoredBuild) -> io::Result<()> {
        let kb = format::key_bytes_bld(key.source, key.pipeline, key.seed, key.version);
        let bytes = format::encode_build(key.source, key.pipeline, key.seed, key.version, build);
        self.write_atomic(&self.record_path("bld", KIND_BUILD, &kb), &bytes)
    }

    /// Loads a memoized build (same miss semantics as
    /// [`Store::get_embeddings`]: damage degrades to a miss; `verify`
    /// names it).
    pub fn get_build(&self, key: &BuildKey) -> io::Result<Option<StoredBuild>> {
        let kb = format::key_bytes_bld(key.source, key.pipeline, key.seed, key.version);
        let want = OwnedKey::Build {
            source: key.source,
            pipeline: key.pipeline,
            seed: key.seed,
            version: key.version,
        };
        let path = self.record_path("bld", KIND_BUILD, &kb);
        let Some(bytes) = Self::read_record_bytes(&path)? else {
            return Ok(None);
        };
        match format::decode_record(&bytes) {
            Ok(Record {
                key,
                payload: Payload::Build(b),
                ..
            }) if key == want => Ok(Some(b)),
            _ => Ok(None),
        }
    }

    /// Decodes every report record in the store, sorted by
    /// `(subject, pipeline, seed)` for deterministic output — the query
    /// side of the report keyspace (shard merge tooling and
    /// `khaos-store report` run on this). Records that fail to decode
    /// are skipped here; [`Store::verify`] is the tool that names them.
    pub fn reports(&self) -> io::Result<Vec<StoredReport>> {
        let mut out = Vec::new();
        for (path, _) in self.section_files("rep")? {
            if let Ok(bytes) = fs::read(&path) {
                if let Ok(Record {
                    payload: Payload::Report(r),
                    ..
                }) = format::decode_record(&bytes)
                {
                    out.push(r);
                }
            }
        }
        out.sort_by(|a, b| (&a.subject, a.pipeline, a.seed).cmp(&(&b.subject, b.pipeline, b.seed)));
        Ok(out)
    }

    /// Decodes one record named by `needle` — a bare 16-hex-digit
    /// content address, an address with the `.khs` extension, or a
    /// `section/file` path — searching every section. `Ok(None)`
    /// when no such file exists; a file that exists but does not decode
    /// is an `InvalidData` error carrying the decoder's reason (unlike
    /// the `get_*` lookups, inspection must name damage, not mask it).
    pub fn cat(&self, needle: &str) -> io::Result<Option<RecordDump>> {
        let (sections, stem): (Vec<&'static str>, &str) = match needle.split_once('/') {
            Some((section, file)) => {
                let section = SECTIONS
                    .iter()
                    .map(|(s, _)| *s)
                    .find(|s| *s == section)
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!(
                                "unknown section `{section}` (want emb, mat, rep, qnt, idx or bld)"
                            ),
                        )
                    })?;
                (vec![section], file)
            }
            None => (SECTIONS.iter().map(|(s, _)| *s).collect(), needle),
        };
        // The store only ever writes flat `<hex>.khs` names; a needle
        // smuggling path separators or `..` would otherwise read files
        // outside the store root.
        if stem.contains(['/', '\\']) || stem.contains("..") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("`{needle}` is not a record name (want a content address or section/file)"),
            ));
        }
        let file = format!("{}.khs", stem.trim_end_matches(".khs"));
        for section in sections {
            let path = self.root.join(section).join(&file);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let record = format::decode_record(&bytes).map_err(|reason| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{section}/{file}: {reason}"),
                )
            })?;
            return Ok(Some(RecordDump {
                section,
                file,
                key: record.key,
                payload: match record.payload {
                    Payload::Table(t) => PayloadDump::Table(t),
                    Payload::Report(r) => PayloadDump::Report(r),
                    Payload::Quant(q) => PayloadDump::Quant(q),
                    Payload::Index(t) => PayloadDump::Index(t),
                    Payload::Build(b) => PayloadDump::Build(b),
                },
            }));
        }
        Ok(None)
    }

    fn section_files(&self, section: &str) -> io::Result<Vec<(PathBuf, fs::Metadata)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.root.join(section))? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("khs") {
                out.push((path, entry.metadata()?));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Record counts and byte totals per section.
    pub fn stats(&self) -> io::Result<StoreStats> {
        let mut stats = StoreStats::default();
        for (section, _) in SECTIONS {
            let mut s = SectionStats::default();
            for (_, meta) in self.section_files(section)? {
                s.records += 1;
                s.bytes += meta.len();
            }
            match section {
                "emb" => stats.embeddings = s,
                "mat" => stats.matrices = s,
                "qnt" => stats.quantized = s,
                "idx" => stats.indexes = s,
                "bld" => stats.builds = s,
                _ => stats.reports = s,
            }
        }
        Ok(stats)
    }

    /// Lists every record with its decoded key (or `None` when the file
    /// does not decode).
    pub fn ls(&self) -> io::Result<Vec<RecordInfo>> {
        let mut out = Vec::new();
        for (section, _) in SECTIONS {
            for (path, meta) in self.section_files(section)? {
                let key = fs::read(&path)
                    .ok()
                    .and_then(|b| format::decode_record(&b).ok())
                    .map(|r| r.key.to_string());
                out.push(RecordInfo {
                    section,
                    file: path
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default(),
                    bytes: meta.len(),
                    modified: meta.modified().ok(),
                    key,
                });
            }
        }
        Ok(out)
    }

    /// Integrity-checks every record: magic, format version, checksum,
    /// payload shape, and that the file name matches the content
    /// address of the key stored inside. Returns the issues found
    /// (empty = clean).
    pub fn verify(&self) -> io::Result<Vec<VerifyIssue>> {
        let mut issues = Vec::new();
        for (section, kind) in SECTIONS {
            for (path, _) in self.section_files(section)? {
                let name = format!(
                    "{section}/{}",
                    path.file_name()
                        .map(|n| n.to_string_lossy())
                        .unwrap_or_default()
                );
                let bytes = match fs::read(&path) {
                    Ok(b) => b,
                    Err(e) => {
                        issues.push(VerifyIssue {
                            file: name,
                            reason: format!("unreadable: {e}"),
                        });
                        continue;
                    }
                };
                let record = match format::decode_record(&bytes) {
                    Ok(r) => r,
                    Err(reason) => {
                        issues.push(VerifyIssue { file: name, reason });
                        continue;
                    }
                };
                if record.kind != kind {
                    issues.push(VerifyIssue {
                        file: name,
                        reason: format!("kind {} record filed under `{section}/`", record.kind),
                    });
                    continue;
                }
                let want_stem = match &record.key {
                    OwnedKey::Emb {
                        tool,
                        config,
                        binary,
                    } => format::address(kind, &format::key_bytes_emb(tool, *config, *binary)),
                    OwnedKey::Mat {
                        tool,
                        config,
                        query,
                        target,
                    } => format::address(
                        kind,
                        &format::key_bytes_mat(tool, *config, *query, *target),
                    ),
                    OwnedKey::Rep {
                        pipeline,
                        seed,
                        subject,
                    } => format::address(kind, &format::key_bytes_rep(*pipeline, *seed, subject)),
                    OwnedKey::Quant {
                        tool,
                        config,
                        binary,
                    } => format::address(kind, &format::key_bytes_emb(tool, *config, *binary)),
                    OwnedKey::Index {
                        tool,
                        config,
                        corpus,
                    } => format::address(kind, &format::key_bytes_idx(tool, *config, *corpus)),
                    OwnedKey::Build {
                        source,
                        pipeline,
                        seed,
                        version,
                    } => format::address(
                        kind,
                        &format::key_bytes_bld(*source, *pipeline, *seed, *version),
                    ),
                };
                let stem = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                if stem != want_stem {
                    issues.push(VerifyIssue {
                        file: name,
                        reason: format!(
                            "file name does not match content address {want_stem} of key `{}`",
                            record.key
                        ),
                    });
                }
            }
        }
        Ok(issues)
    }

    /// Steals a stale lock/claim file, TOCTOU-free: rename it to a
    /// process-unique grave name (the rename is the atomic arbiter —
    /// exactly one stealer gets the inode), verify the *renamed*
    /// file's age, and only then delete it. Returns `true` when the
    /// caller may retry creating the file (the suspect was stale and
    /// is gone, or its holder released it meanwhile).
    ///
    /// A bare check-then-`remove_file` has a hole this closes: between
    /// the staleness check and the delete, another process can steal
    /// the stale file and recreate it fresh, and the late deleter then
    /// removes the *fresh* holder's file — two holders run
    /// concurrently. Rename preserves mtime, so a grave that measures
    /// fresh can only be such a slipped-in fresh file; it is restored
    /// via `hard_link`, which (unlike a rename back) refuses to
    /// clobber a lock created in the meantime.
    fn steal_stale(&self, path: &Path, horizon: Duration) -> bool {
        let age_of = |p: &Path| {
            fs::metadata(p)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|m| m.elapsed().ok())
        };
        match age_of(path) {
            Some(age) if age > horizon => {}
            Some(_) => return false,
            // Gone already: the holder released (or another stealer
            // won); the ground is free, retry the create.
            None => return true,
        }
        static GRAVE: AtomicU64 = AtomicU64::new(0);
        let grave = self.root.join(TMP_DIR).join(format!(
            "{}.steal-{}-{}",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            std::process::id(),
            GRAVE.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::rename(path, &grave).is_err() {
            // Lost the steal race (or the holder released): either way
            // the path's state changed under us — let the caller's
            // retry observe the new state.
            return true;
        }
        match age_of(&grave) {
            Some(age) if age > horizon => {
                let _ = fs::remove_file(&grave);
                true
            }
            _ => {
                // We moved a fresh holder's file. Put it back without
                // clobbering anything created since.
                let _ = fs::hard_link(&grave, path);
                let _ = fs::remove_file(&grave);
                false
            }
        }
    }

    /// Takes the exclusive maintenance lock (used by [`Store::gc`]).
    /// Lock files older than ten minutes are assumed stale (a crashed
    /// collector) and stolen via [`Store::steal_stale`].
    pub fn lock_exclusive(&self) -> io::Result<StoreLock> {
        let path = self.root.join(GC_LOCK);
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = writeln!(f, "{}", std::process::id());
                    return Ok(StoreLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists && attempt == 0 => {
                    if !self.steal_stale(&path, STALE_LOCK) {
                        return Err(io::Error::new(
                            io::ErrorKind::WouldBlock,
                            format!("{} is held by another maintainer", path.display()),
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            "could not acquire the store lock",
        ))
    }

    /// The cell-lease horizon: claim files older than this mark a dead
    /// worker and are stolen. `KHAOS_LEASE_MS` overrides the
    /// two-minute default (tests and CI smokes use sub-second
    /// horizons); read per call, so one process can host workers with
    /// different horizons.
    pub fn lease_horizon() -> Duration {
        std::env::var("KHAOS_LEASE_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(DEFAULT_LEASE)
    }

    /// Tries to claim the report cell `key` by creating its
    /// `rep/<addr>.lease` claim file with `O_EXCL`. `Ok(None)` when
    /// another live worker holds the claim; a claim older than
    /// `horizon` is stolen ([`Store::steal_stale`]) and re-acquired.
    /// The returned [`Lease`] releases on drop; a worker that dies
    /// holding it leaves the claim file for the next stealer.
    pub fn try_lease_report(
        &self,
        key: &ReportKey,
        horizon: Duration,
    ) -> io::Result<Option<Lease>> {
        let kb = format::key_bytes_rep(key.pipeline, key.seed, key.subject);
        let path = self
            .root
            .join("rep")
            .join(format!("{}.{LEASE_EXT}", format::address(KIND_REPORT, &kb)));
        let obs = store_obs();
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = writeln!(f, "{}", std::process::id());
                    obs.lease_acquired.inc();
                    if attempt > 0 {
                        obs.lease_stolen.inc();
                    }
                    return Ok(Some(Lease {
                        path,
                        stolen: attempt > 0,
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if attempt == 0 && self.steal_stale(&path, horizon) {
                        continue;
                    }
                    obs.lease_contended.inc();
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
        obs.lease_contended.inc();
        Ok(None)
    }

    /// Physically copies every record of `src` into this store —
    /// verify-then-copy. The whole source is integrity-checked first
    /// ([`Store::verify`]) and the merge **refuses checksum damage**,
    /// naming the first damaged file; it likewise refuses a record
    /// whose destination already exists with *different* bytes (grid
    /// cells are deterministic, so a same-address content conflict
    /// means damage or a foreign record, never legitimate divergence).
    /// Byte-identical records already present are skipped. Claim files
    /// (`.lease`) are coordination state and are never copied.
    pub fn merge_from(&self, src: &Store) -> io::Result<MergeSummary> {
        let _span = khaos_obs::span("store:merge");
        let issues = src.verify()?;
        if let Some(first) = issues.first() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "refusing to merge {}: {}: {} ({} issue(s) in total — repair or delete \
                     the damaged records and re-run)",
                    src.root.display(),
                    first.file,
                    first.reason,
                    issues.len()
                ),
            ));
        }
        let mut summary = MergeSummary::default();
        let obs = store_obs();
        for (section, _) in SECTIONS {
            for (path, _) in src.section_files(section)? {
                let bytes = fs::read(&path)?;
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let dest = self.root.join(section).join(&name);
                match fs::read(&dest) {
                    Ok(have) if have == bytes => {
                        summary.skipped += 1;
                        obs.merge_skipped.inc();
                    }
                    Ok(_) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "refusing to merge {}: {section}/{name} already exists in {} \
                                 with different content — same content address, different \
                                 bytes indicates damage or a foreign record",
                                src.root.display(),
                                self.root.display()
                            ),
                        ));
                    }
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {
                        self.write_atomic(&dest, &bytes)?;
                        summary.copied += 1;
                        obs.merge_copied.inc();
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(summary)
    }

    /// Shrinks the store to at most `max_bytes` of records by deleting
    /// the **oldest** records first (modification time, ties broken by
    /// file name for determinism). Also sweeps staging files older than
    /// the stale-lock horizon. Holds the exclusive lock for the whole
    /// collection. Claim files (`.lease`) are excluded from the
    /// accounting entirely: they neither count against `max_bytes` nor
    /// get collected — stealing a dead worker's claim is the lease
    /// horizon's job, not the collector's.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcSummary> {
        let _span = khaos_obs::span("store:gc");
        let _lock = self.lock_exclusive()?;
        // Leftover staging files from crashed writers.
        for entry in fs::read_dir(self.root.join(TMP_DIR))? {
            let entry = entry?;
            let old = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|m| m.elapsed().ok())
                .is_some_and(|age| age > STALE_LOCK);
            if old {
                let _ = fs::remove_file(entry.path());
            }
        }
        let mut files: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        for (section, _) in SECTIONS {
            for (path, meta) in self.section_files(section)? {
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                files.push((path, meta.len(), mtime));
            }
        }
        let bytes_before: u64 = files.iter().map(|(_, len, _)| len).sum();
        let mut summary = GcSummary {
            scanned: files.len() as u64,
            deleted: 0,
            bytes_before,
            bytes_after: bytes_before,
        };
        files.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        for (path, len, _) in files {
            if summary.bytes_after <= max_bytes {
                break;
            }
            fs::remove_file(&path)?;
            summary.deleted += 1;
            summary.bytes_after -= len;
        }
        let obs = store_obs();
        obs.gc_deleted.add(summary.deleted);
        obs.gc_freed_bytes
            .add(summary.bytes_before - summary.bytes_after);
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "khaos-store-unit-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn table(rows: usize, dim: usize, salt: u64) -> FlatTable {
        let data: Vec<f64> = (0..rows * dim)
            .map(|i| ((i as u64 ^ salt) as f64).sin())
            .collect();
        FlatTable::new(rows, dim, data)
    }

    #[test]
    fn embeddings_round_trip_bit_exact() {
        let dir = scratch("emb");
        let store = Store::open(&dir).unwrap();
        // Values chosen to exercise non-trivial bit patterns, including
        // a negative zero and a subnormal.
        let mut t = table(5, 7, 0x5eed);
        t.data[0] = -0.0;
        t.data[1] = f64::MIN_POSITIVE / 2.0;
        let key = EmbKey {
            tool: "Asm2Vec",
            config: 0xA5A5,
            binary: 0xB00B5,
        };
        assert_eq!(store.get_embeddings(&key).unwrap(), None);
        store.put_embeddings(&key, t.view()).unwrap();
        let back = store.get_embeddings(&key).unwrap().expect("hit");
        assert_eq!((back.rows, back.dim), (t.rows, t.dim));
        for (a, b) in back.data.iter().zip(&t.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact round trip");
        }
        // A different key is a miss, not the same record.
        let other = EmbKey {
            binary: 0xB00B6,
            ..key
        };
        assert_eq!(store.get_embeddings(&other).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matrix_and_report_round_trip() {
        let dir = scratch("matrep");
        let store = Store::open(&dir).unwrap();
        let m = table(3, 4, 0xC0FFEE);
        let mkey = MatKey {
            tool: "SAFE",
            config: 1,
            query: 2,
            target: 3,
        };
        store.put_matrix(&mkey, m.view()).unwrap();
        assert_eq!(store.get_matrix(&mkey).unwrap().as_ref(), Some(&m));

        let report = StoredReport {
            spec: "fission | O2+lto".into(),
            pipeline: 0xF1,
            seed: 0xC60,
            subject: "400.perlbench".into(),
            total_micros: 1234,
            passes: vec![StoredPass {
                pass: "fission".into(),
                micros: 900,
                before: StoredShape {
                    functions: 10,
                    blocks: 40,
                    insts: 400,
                },
                after: StoredShape {
                    functions: 23,
                    blocks: 61,
                    insts: 470,
                },
            }],
            metrics: vec![("escape@1".into(), 0.75), ("overhead%".into(), -2.5)],
        };
        store.put_report(&report).unwrap();
        let back = store
            .get_report(&ReportKey {
                pipeline: 0xF1,
                seed: 0xC60,
                subject: "400.perlbench",
            })
            .unwrap()
            .expect("hit");
        assert_eq!(back, report);
        // Same pipeline, different subject: distinct record.
        assert_eq!(
            store
                .get_report(&ReportKey {
                    pipeline: 0xF1,
                    seed: 0xC60,
                    subject: "401.bzip2",
                })
                .unwrap(),
            None
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_in_place() {
        let dir = scratch("rewrite");
        let store = Store::open(&dir).unwrap();
        let key = EmbKey {
            tool: "t",
            config: 0,
            binary: 0,
        };
        store.put_embeddings(&key, table(2, 2, 1).view()).unwrap();
        store.put_embeddings(&key, table(2, 2, 2).view()).unwrap();
        assert_eq!(store.stats().unwrap().embeddings.records, 1);
        assert_eq!(store.get_embeddings(&key).unwrap().unwrap(), table(2, 2, 2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_records_degrade_to_misses_and_verify_reports_them() {
        let dir = scratch("corrupt");
        let store = Store::open(&dir).unwrap();
        let key = EmbKey {
            tool: "t",
            config: 7,
            binary: 9,
        };
        store.put_embeddings(&key, table(2, 3, 3).view()).unwrap();
        assert!(store.verify().unwrap().is_empty(), "clean store verifies");
        // Flip one payload byte: checksum breaks.
        let (path, _) = store.section_files("emb").unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            store.get_embeddings(&key).unwrap(),
            None,
            "corruption is a miss, not an error"
        );
        let issues = store.verify().unwrap();
        assert_eq!(issues.len(), 1);
        assert!(
            issues[0].reason.contains("checksum"),
            "{}",
            issues[0].reason
        );
        // A renamed (mis-addressed) record is caught too.
        store.put_embeddings(&key, table(2, 3, 3).view()).unwrap();
        let (path, _) = store.section_files("emb").unwrap().pop().unwrap();
        let moved = path.with_file_name("0000000000000000.khs");
        fs::rename(&path, &moved).unwrap();
        let issues = store.verify().unwrap();
        assert_eq!(issues.len(), 1);
        assert!(
            issues[0].reason.contains("content address"),
            "{}",
            issues[0].reason
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_index(rows: usize, dim: usize, nlist: usize) -> IndexTable {
        IndexTable {
            rows: rows as u64,
            dim: dim as u64,
            nlist: nlist as u64,
            nprobe: 2,
            seed: 0xC60_2023,
            centroids: (0..nlist * dim).map(|i| (i as f64).cos()).collect(),
            assignments: (0..rows).map(|i| (i % nlist) as u32).collect(),
            meta: (0..rows)
                .map(|i| StoredRowMeta {
                    binary: 0xB00 + (i / 3) as u64,
                    function: (i % 3) as u32,
                    name: format!("fn_{i}"),
                })
                .collect(),
        }
    }

    #[test]
    fn index_round_trip() {
        let dir = scratch("idx");
        let store = Store::open(&dir).unwrap();
        let t = sample_index(9, 4, 3);
        let key = IndexKey {
            tool: "VulSeeker",
            config: 0xCF6,
            corpus: 0xC0DE,
        };
        assert_eq!(store.get_index(&key).unwrap(), None);
        store.put_index(&key, &t).unwrap();
        assert_eq!(store.get_index(&key).unwrap().as_ref(), Some(&t));
        assert!(store.verify().unwrap().is_empty(), "index records verify");
        assert_eq!(store.stats().unwrap().indexes.records, 1);
        // A different corpus fingerprint is a miss.
        let other = IndexKey {
            corpus: 0xC0DF,
            ..key
        };
        assert_eq!(store.get_index(&other).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_names_unknown_record_kinds() {
        // Regression: a record whose kind tag this build does not know
        // — a newer writer's kind, or a damaged kind byte — must be
        // reported as "unknown record kind N", never as a generic
        // checksum error that points at nothing. The kind byte sits
        // right after the 4-byte magic and the u32 version.
        let dir = scratch("unkind");
        let store = Store::open(&dir).unwrap();
        let key = EmbKey {
            tool: "t",
            config: 1,
            binary: 2,
        };
        store.put_embeddings(&key, table(2, 2, 9).view()).unwrap();
        let (path, _) = store.section_files("emb").unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        assert_eq!(bytes[8], KIND_EMBEDDINGS);

        // Case 1: kind byte damaged in place (checksum now also stale).
        bytes[8] = 42;
        fs::write(&path, &bytes).unwrap();
        let issues = store.verify().unwrap();
        assert_eq!(issues.len(), 1);
        assert!(
            issues[0].reason.contains("unknown record kind 42"),
            "want the kind named, got: {}",
            issues[0].reason
        );
        assert!(
            !issues[0].reason.contains("checksum"),
            "must not degrade to a checksum error: {}",
            issues[0].reason
        );

        // Case 2: a well-formed record of a future kind (checksum
        // recomputed, as a newer writer would produce): same diagnosis,
        // and the lookup degrades to a miss rather than an error.
        let body_len = bytes.len() - 8;
        bytes[8] = 77;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let issues = store.verify().unwrap();
        assert_eq!(issues.len(), 1);
        assert!(
            issues[0].reason.contains("unknown record kind 77"),
            "{}",
            issues[0].reason
        );
        assert_eq!(store.get_embeddings(&key).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_deletes_oldest_first_under_lock() {
        let dir = scratch("gc");
        let store = Store::open(&dir).unwrap();
        for i in 0..4u64 {
            let key = EmbKey {
                tool: "t",
                config: 0,
                binary: i,
            };
            store.put_embeddings(&key, table(4, 8, i).view()).unwrap();
            // Distinct mtimes so the oldest-first order is deterministic
            // even on coarse-grained filesystems.
            let (path, _) = store
                .section_files("emb")
                .unwrap()
                .into_iter()
                .max_by_key(|(_, m)| m.modified().unwrap())
                .unwrap();
            let t = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000 + i * 100);
            let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_modified(t).unwrap();
        }
        let before = store.stats().unwrap();
        assert_eq!(before.embeddings.records, 4);
        let keep = before.total_bytes() / 2;
        let summary = store.gc(keep).unwrap();
        assert_eq!(summary.scanned, 4);
        assert!(summary.deleted >= 2, "{summary:?}");
        assert!(summary.bytes_after <= keep);
        // The newest records survive.
        assert!(store
            .get_embeddings(&EmbKey {
                tool: "t",
                config: 0,
                binary: 3
            })
            .unwrap()
            .is_some());
        assert!(store
            .get_embeddings(&EmbKey {
                tool: "t",
                config: 0,
                binary: 0
            })
            .unwrap()
            .is_none());
        // The lock is released after gc.
        let lock = store.lock_exclusive().unwrap();
        // And held locks block a second taker.
        assert_eq!(
            store.lock_exclusive().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        drop(lock);
        assert!(store.lock_exclusive().is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A forged record declaring an absurd table shape — with a valid
    /// checksum, which is a plain FNV-1a anyone can recompute — must
    /// decode to an error (lookup: miss; verify/cat: named damage),
    /// never reach `Vec::with_capacity` and panic.
    #[test]
    fn forged_huge_shape_is_a_decode_error_not_a_panic() {
        let dir = scratch("forge");
        let store = Store::open(&dir).unwrap();
        let key = EmbKey {
            tool: "t",
            config: 1,
            binary: 2,
        };
        store.put_embeddings(&key, table(2, 2, 9).view()).unwrap();
        let (path, _) = store.section_files("emb").unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Record layout: 9-byte header, 21-byte emb key block ("t" as
        // 4+1 length-prefixed UTF-8, two u64s), u64 payload length,
        // then the payload's `rows` u64 — patch it to 2^61 and restamp
        // the trailing checksum so only the shape check can object.
        let rows_off = 9 + 21 + 8;
        bytes[rows_off..rows_off + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        fs::write(&path, &bytes).unwrap();

        assert_eq!(
            store.get_embeddings(&key).unwrap(),
            None,
            "forged shape degrades to a miss"
        );
        let issues = store.verify().unwrap();
        assert_eq!(issues.len(), 1);
        assert!(issues[0].reason.contains("shape"), "{}", issues[0].reason);
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let err = store.cat(&stem).unwrap_err();
        assert!(err.to_string().contains("shape"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Ages a file by rewinding its mtime `secs` into the past.
    fn rewind_mtime(path: &Path, secs: u64) {
        let t = SystemTime::now() - Duration::from_secs(secs);
        let f = fs::OpenOptions::new().write(true).open(path).unwrap();
        f.set_modified(t).unwrap();
    }

    #[test]
    fn stale_lock_is_stolen_fresh_lock_is_not() {
        let dir = scratch("steal");
        let store = Store::open(&dir).unwrap();
        // A fresh foreign lock blocks and survives the attempt intact.
        fs::write(dir.join(GC_LOCK), "99999\n").unwrap();
        assert_eq!(
            store.lock_exclusive().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(fs::read_to_string(dir.join(GC_LOCK)).unwrap(), "99999\n");
        // Aged past the horizon it is stolen.
        rewind_mtime(&dir.join(GC_LOCK), 601);
        let lock = store.lock_exclusive().expect("stale lock stolen");
        // The steal leaves no grave files behind.
        assert_eq!(fs::read_dir(dir.join(TMP_DIR)).unwrap().count(), 0);
        drop(lock);
        assert!(!dir.join(GC_LOCK).exists(), "released on drop");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression for the stale-steal TOCTOU: with the old
    /// check-then-`remove_file` steal, two thieves could both measure
    /// the same stale lock, the slow one then deleting the fast one's
    /// *fresh* replacement — two holders at once. The rename-based
    /// steal makes the rename the arbiter: across many racing rounds,
    /// at most one thread may ever hold the lock at a time.
    #[test]
    fn concurrent_stale_steal_never_yields_two_holders() {
        use std::sync::atomic::AtomicU32;
        use std::sync::Barrier;
        let dir = scratch("steal-race");
        let store = Arc::new(Store::open(&dir).unwrap());
        let holders = Arc::new(AtomicU32::new(0));
        for _round in 0..50 {
            fs::write(dir.join(GC_LOCK), "dead\n").unwrap();
            rewind_mtime(&dir.join(GC_LOCK), 601);
            let barrier = Arc::new(Barrier::new(2));
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    let (store, barrier, holders) =
                        (store.clone(), barrier.clone(), holders.clone());
                    std::thread::spawn(move || {
                        barrier.wait();
                        if let Ok(lock) = store.lock_exclusive() {
                            let live = holders.fetch_add(1, Ordering::SeqCst) + 1;
                            assert_eq!(live, 1, "two concurrent lock holders");
                            // Hold long enough for the loser's steal
                            // attempt to observe the fresh lock.
                            std::thread::sleep(Duration::from_millis(2));
                            holders.fetch_sub(1, Ordering::SeqCst);
                            drop(lock);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let _ = fs::remove_file(dir.join(GC_LOCK));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lease_claim_release_steal_cycle() {
        let dir = scratch("lease");
        let store = Store::open(&dir).unwrap();
        let key = ReportKey {
            pipeline: 0xF1,
            seed: 0xC60,
            subject: "fig10/demo/FuFiAll/SAFE",
        };
        let horizon = Duration::from_secs(60);
        let lease = store
            .try_lease_report(&key, horizon)
            .unwrap()
            .expect("free cell claims");
        assert!(!lease.was_stolen());
        // A second worker is refused while the claim is live.
        assert!(store.try_lease_report(&key, horizon).unwrap().is_none());
        // A different cell is independent.
        let other = ReportKey {
            subject: "fig10/demo/FuFiAll/Asm2Vec",
            ..key
        };
        assert!(store.try_lease_report(&other, horizon).unwrap().is_some());
        // Release → claimable again.
        let path = lease.path().to_path_buf();
        lease.release();
        assert!(!path.exists(), "claim file removed on release");
        let lease = store.try_lease_report(&key, horizon).unwrap().unwrap();
        // A dead worker's claim (stale mtime) is stolen; a live one's
        // is not.
        assert!(store.try_lease_report(&key, horizon).unwrap().is_none());
        rewind_mtime(lease.path(), 61);
        std::mem::forget(lease); // simulate the worker dying mid-cell
        let stolen = store
            .try_lease_report(&key, horizon)
            .unwrap()
            .expect("stale claim stolen");
        assert!(stolen.was_stolen());
        // refresh() re-stamps the mtime so long cells are not stolen.
        rewind_mtime(stolen.path(), 61);
        stolen.refresh().unwrap();
        assert!(store.try_lease_report(&key, horizon).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn claim_files_are_invisible_to_stats_verify_and_gc() {
        let dir = scratch("lease-gc");
        let store = Store::open(&dir).unwrap();
        let report = StoredReport {
            spec: "fission".into(),
            pipeline: 1,
            seed: 2,
            subject: "cell".into(),
            total_micros: 1,
            passes: vec![],
            metrics: vec![("m".into(), 1.0)],
        };
        store.put_report(&report).unwrap();
        let lease = store
            .try_lease_report(
                &ReportKey {
                    pipeline: 9,
                    seed: 9,
                    subject: "other-cell",
                },
                Duration::from_secs(60),
            )
            .unwrap()
            .unwrap();
        std::mem::forget(lease); // dangling claim from a "dead" worker
        let stats = store.stats().unwrap();
        assert_eq!(stats.reports.records, 1, "claim files are not records");
        assert!(store.verify().unwrap().is_empty(), "verify ignores claims");
        // gc to zero deletes every record but never touches the claim.
        let summary = store.gc(0).unwrap();
        assert_eq!(summary.scanned, 1);
        assert_eq!(summary.deleted, 1);
        let leases: Vec<_> = fs::read_dir(dir.join("rep"))
            .unwrap()
            .filter_map(|e| e.unwrap().path().extension().map(|x| x.to_os_string()))
            .collect();
        assert_eq!(leases, vec![std::ffi::OsString::from(LEASE_EXT)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_copies_skips_and_refuses() {
        let (a, b, dst) = (scratch("mrg-a"), scratch("mrg-b"), scratch("mrg-d"));
        let src_a = Store::open(&a).unwrap();
        let src_b = Store::open(&b).unwrap();
        let dest = Store::open(&dst).unwrap();
        let cell = |subject: &str, value: f64| StoredReport {
            spec: "fission".into(),
            pipeline: 0xF1,
            seed: 0xC60,
            subject: subject.into(),
            total_micros: 7,
            passes: vec![],
            metrics: vec![("escape@1".into(), value)],
        };
        src_a.put_report(&cell("cell/0", 0.25)).unwrap();
        src_a.put_report(&cell("cell/1", 0.5)).unwrap();
        src_b.put_report(&cell("cell/1", 0.5)).unwrap(); // overlap, same bytes
        src_b.put_report(&cell("cell/2", 0.75)).unwrap();
        src_b
            .put_embeddings(
                &EmbKey {
                    tool: "t",
                    config: 1,
                    binary: 2,
                },
                table(2, 2, 1).view(),
            )
            .unwrap();
        // A dangling claim in a source must not travel.
        let lease = src_a
            .try_lease_report(
                &ReportKey {
                    pipeline: 0xF1,
                    seed: 0xC60,
                    subject: "cell/9",
                },
                Duration::from_secs(60),
            )
            .unwrap()
            .unwrap();
        std::mem::forget(lease);

        assert_eq!(
            dest.merge_from(&src_a).unwrap(),
            MergeSummary {
                copied: 2,
                skipped: 0
            }
        );
        assert_eq!(
            dest.merge_from(&src_b).unwrap(),
            MergeSummary {
                copied: 2,
                skipped: 1
            }
        );
        // The union arrived bit-identically and no claim travelled.
        assert_eq!(dest.reports().unwrap().len(), 3);
        for (path, _) in src_a.section_files("rep").unwrap() {
            let dst_path = dst.join("rep").join(path.file_name().unwrap());
            assert_eq!(fs::read(&path).unwrap(), fs::read(&dst_path).unwrap());
        }
        assert!(fs::read_dir(dst.join("rep")).unwrap().all(|e| e
            .unwrap()
            .path()
            .extension()
            .unwrap()
            == "khs"));
        // Idempotent: a re-merge copies nothing.
        assert_eq!(
            dest.merge_from(&src_b).unwrap(),
            MergeSummary {
                copied: 0,
                skipped: 3
            }
        );

        // Refusal 1: checksum damage in the source, named precisely.
        let (victim, _) = src_b.section_files("emb").unwrap().pop().unwrap();
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&victim, &bytes).unwrap();
        let err = dest.merge_from(&src_b).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(err.to_string().contains("emb/"), "{err}");

        // Refusal 2: same address, different content.
        src_a.put_report(&cell("cell/0", 0.125)).unwrap(); // diverged
        let err = dest.merge_from(&src_a).unwrap_err();
        assert!(err.to_string().contains("different content"), "{err}");

        for d in [a, b, dst] {
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn foreign_format_version_is_refused() {
        let dir = scratch("version");
        {
            let _ = Store::open(&dir).unwrap();
        }
        fs::write(dir.join("FORMAT"), "khaos-store 999\n").unwrap();
        let err = Store::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("format-version"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
