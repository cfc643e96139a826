//! The record encoder as it was before every record was written into
//! one buffer sized up front: each payload went through a growing
//! [`Enc`] and was then copied into the record's own. It is the oracle
//! the one-buffer encoder is checked against, kind by kind, byte for
//! byte.

use super::{
    key_bytes_bld, key_bytes_emb, key_bytes_idx, key_bytes_mat, key_bytes_rep, Enc, FORMAT_VERSION,
    KIND_BUILD, KIND_EMBEDDINGS, KIND_INDEX, KIND_MATRIX, KIND_QUANT, KIND_REPORT, MAGIC,
};
use crate::{IndexTable, QuantView, StoredBuild, StoredReport, TableView};

fn payload_bytes_table(table: TableView<'_>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(table.rows);
    e.u64(table.dim);
    for &v in table.data {
        e.f64(v);
    }
    e.into_bytes()
}

/// Quantized-table payload: shape, per-row f64 scales and offsets
/// (raw bits, byte-exact), then the i8 codes as one raw byte run.
fn payload_bytes_quant(q: QuantView<'_>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(q.rows);
    e.u64(q.dim);
    for &s in q.scales {
        e.f64(s);
    }
    for &o in q.offsets {
        e.f64(o);
    }
    // i8 → u8 is a bijection on bytes; decode casts back losslessly.
    e.bytes(unsafe { std::slice::from_raw_parts(q.data.as_ptr() as *const u8, q.data.len()) });
    e.into_bytes()
}

fn payload_bytes_report(r: &StoredReport) -> Vec<u8> {
    let mut e = Enc::new();
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
    e.into_bytes()
}

/// Build payload: the module's text IR, then the counters as f64 bits.
fn payload_bytes_build(b: &StoredBuild) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(&b.module);
    e.u32(b.stats.len() as u32);
    for value in &b.stats {
        e.f64(*value);
    }
    e.into_bytes()
}

/// Assembles one complete record: header, key block, length-prefixed
/// payload, trailing checksum.
fn encode_record(kind: u8, key_bytes: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.bytes(&MAGIC);
    e.u32(FORMAT_VERSION);
    e.u8(kind);
    e.bytes(key_bytes);
    e.u64(payload.len() as u64);
    e.bytes(payload);
    e.finish()
}

/// Encodes an embedding-table record.
fn encode_embeddings(tool: &str, config: u64, binary: u64, t: TableView<'_>) -> Vec<u8> {
    encode_record(
        KIND_EMBEDDINGS,
        &key_bytes_emb(tool, config, binary),
        &payload_bytes_table(t),
    )
}

/// Encodes a similarity-matrix record.
fn encode_matrix(tool: &str, config: u64, query: u64, target: u64, t: TableView<'_>) -> Vec<u8> {
    encode_record(
        KIND_MATRIX,
        &key_bytes_mat(tool, config, query, target),
        &payload_bytes_table(t),
    )
}

/// Encodes a quantized-embedding record.
fn encode_quantized(tool: &str, config: u64, binary: u64, q: QuantView<'_>) -> Vec<u8> {
    encode_record(
        KIND_QUANT,
        &key_bytes_emb(tool, config, binary),
        &payload_bytes_quant(q),
    )
}

/// Index-segment payload: IVF parameters and shape, the (normalized)
/// centroid rows as raw f64 bits, the per-row cell assignments, then
/// per-row provenance (source binary fingerprint, function index,
/// symbol name). The corpus' f64 and int8 tables are *not* inlined —
/// they live in their own `emb`/`qnt` records keyed by the corpus
/// fingerprint, so the three records form one index segment.
fn payload_bytes_index(t: &IndexTable) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(t.rows);
    e.u64(t.dim);
    e.u64(t.nlist);
    e.u32(t.nprobe);
    e.u64(t.seed);
    for &c in &t.centroids {
        e.f64(c);
    }
    for &a in &t.assignments {
        e.u32(a);
    }
    for m in &t.meta {
        e.u64(m.binary);
        e.u32(m.function);
        e.str(&m.name);
    }
    e.into_bytes()
}

/// Encodes an index-segment record.
fn encode_index(tool: &str, config: u64, corpus: u64, t: &IndexTable) -> Vec<u8> {
    encode_record(
        KIND_INDEX,
        &key_bytes_idx(tool, config, corpus),
        &payload_bytes_index(t),
    )
}

/// Encodes a memoized-build record.
fn encode_build(source: u64, pipeline: u64, seed: u64, version: u64, b: &StoredBuild) -> Vec<u8> {
    encode_record(
        KIND_BUILD,
        &key_bytes_bld(source, pipeline, seed, version),
        &payload_bytes_build(b),
    )
}

/// Encodes a report record.
fn encode_report(r: &StoredReport) -> Vec<u8> {
    encode_record(
        KIND_REPORT,
        &key_bytes_rep(r.pipeline, r.seed, &r.subject),
        &payload_bytes_report(r),
    )
}

#[cfg(test)]
mod tests {
    use crate::format;
    use crate::{
        IndexTable, QuantView, StoredBuild, StoredPass, StoredReport, StoredRowMeta, StoredShape,
        TableView,
    };

    /// f64s that exercise every bit pattern class the store round-trips.
    fn values(n: usize) -> Vec<f64> {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            f64::MAX,
        ];
        (0..n)
            .map(|i| {
                if i % 5 == 0 {
                    specials[i % specials.len()]
                } else {
                    (i as f64 * 0.37).sin()
                }
            })
            .collect()
    }

    #[test]
    fn tables_encode_as_before() {
        for (rows, dim) in [(0, 0), (0, 128), (1, 1), (3, 5), (40, 128)] {
            let data = values(rows * dim);
            let t = TableView::new(rows, dim, &data);
            assert_eq!(
                format::encode_embeddings("SAFE", 7, 9, t),
                super::encode_embeddings("SAFE", 7, 9, t),
                "emb {rows}x{dim}"
            );
            assert_eq!(
                format::encode_matrix("BinDiff", 0, 1, 2, t),
                super::encode_matrix("BinDiff", 0, 1, 2, t),
                "mat {rows}x{dim}"
            );
        }
    }

    #[test]
    fn quantized_tables_encode_as_before() {
        for (rows, dim) in [(0, 0), (0, 16), (2, 3), (17, 128)] {
            let scales = values(rows);
            let offsets: Vec<f64> = values(rows + 3)[3..].to_vec();
            let codes: Vec<i8> = (0..rows * dim)
                .map(|i| (i * 37 % 256) as u8 as i8)
                .collect();
            let q = QuantView::new(rows, dim, &scales, &offsets, &codes);
            assert_eq!(
                format::encode_quantized("Asm2Vec", 3, 4, q),
                super::encode_quantized("Asm2Vec", 3, 4, q),
                "qnt {rows}x{dim}"
            );
        }
    }

    #[test]
    fn reports_encode_as_before() {
        let shape = |k: u64| StoredShape {
            functions: k,
            blocks: 2 * k,
            insts: 7 * k,
        };
        let empty = StoredReport {
            spec: String::new(),
            pipeline: 0,
            seed: 0,
            subject: String::new(),
            total_micros: 0,
            passes: vec![],
            metrics: vec![],
        };
        let full = StoredReport {
            spec: "O2+lto | fission".into(),
            pipeline: 0xfeed,
            seed: 42,
            subject: "fig10/quickjs/Sub/SAFE".into(),
            total_micros: 12_345,
            passes: (0..5)
                .map(|k| StoredPass {
                    pass: format!("pass-{k}"),
                    micros: k * 11,
                    before: shape(k),
                    after: shape(k + 1),
                })
                .collect(),
            metrics: values(6)
                .into_iter()
                .enumerate()
                .map(|(i, v)| (format!("metric.{i}"), v))
                .collect(),
        };
        for r in [empty, full] {
            assert_eq!(format::encode_report(&r), super::encode_report(&r));
        }
    }

    #[test]
    fn index_segments_encode_as_before() {
        let empty = IndexTable {
            rows: 0,
            dim: 0,
            nlist: 0,
            nprobe: 0,
            seed: 0,
            centroids: vec![],
            assignments: vec![],
            meta: vec![],
        };
        let full = IndexTable {
            rows: 9,
            dim: 4,
            nlist: 3,
            nprobe: 2,
            seed: 0xC60_2023,
            centroids: values(12),
            assignments: (0..9).map(|i| i % 3).collect(),
            meta: (0..9)
                .map(|i| StoredRowMeta {
                    binary: i as u64 * 3,
                    function: i,
                    name: "f".repeat(i as usize),
                })
                .collect(),
        };
        for t in [empty, full] {
            assert_eq!(
                format::encode_index("VulSeeker", 1, 2, &t),
                super::encode_index("VulSeeker", 1, 2, &t)
            );
        }
    }

    #[test]
    fn builds_encode_as_before() {
        // A `bld/` record's text is about 100 KB; this one is larger.
        let text: String = (0..6000)
            .map(|i| format!("  %v{i} = add i64 %v{}, {i}\n", i / 2))
            .collect();
        assert!(text.len() > 150_000);
        for b in [
            StoredBuild {
                module: String::new(),
                stats: vec![],
            },
            StoredBuild {
                module: text,
                stats: values(14),
            },
        ] {
            assert_eq!(
                format::encode_build(1, 2, 3, 4, &b),
                super::encode_build(1, 2, 3, 4, &b)
            );
        }
    }
}
