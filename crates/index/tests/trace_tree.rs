//! The span tree of one index query: `index:query` with the children
//! `index:probe`, `index:scan` and `index:rerank`, each linked to the
//! query span and lying inside its interval.
//!
//! Its own test binary: `khaos_obs::trace::install` redirects the
//! process-wide tracer, which no other test here should write into.

use khaos_diff::engine::FunctionEmbeddings;
use khaos_index::{IndexParams, IvfIndex, RowMeta};
use std::sync::Arc;

/// One exported span: name, id, parent id, start and end in ns.
#[derive(Debug)]
struct Span {
    name: String,
    id: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The raw text of `"key":value` in a trace line (up to `,` or `}`).
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    &rest[..end]
}

/// A microsecond value printed with three decimals, read back as the
/// exact nanosecond count the tracer printed.
fn micros_to_ns(v: &str) -> u64 {
    let (whole, frac) = v.split_once('.').unwrap_or((v, "0"));
    whole.parse::<u64>().unwrap() * 1000 + format!("{frac:0<3}").parse::<u64>().unwrap()
}

fn parse(line: &str) -> Span {
    let start_ns = micros_to_ns(field(line, "ts"));
    Span {
        name: field(line, "name").trim_matches('"').to_string(),
        id: field(line, "id").parse().unwrap(),
        parent: field(line, "parent").parse().unwrap(),
        start_ns,
        end_ns: start_ns + micros_to_ns(field(line, "dur")),
    }
}

/// `n` unit rows of dimension `dim` in seven loose clusters.
fn corpus(n: usize, dim: usize) -> (Arc<FunctionEmbeddings>, Vec<RowMeta>) {
    let rows = (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| ((i % 7 * 31 + d) as f64).sin() + ((i * dim + d) as f64).cos() * 0.1)
                .collect()
        })
        .collect();
    let meta = (0..n)
        .map(|i| RowMeta {
            binary: 0xB0 + (i / 16) as u64,
            function: (i % 16) as u32,
            name: format!("f{i}"),
        })
        .collect();
    (Arc::new(FunctionEmbeddings::from_rows(rows)), meta)
}

#[test]
fn query_leaves_probe_scan_rerank_under_index_query() {
    let (rows, meta) = corpus(300, 16);
    let index = IvfIndex::build(
        "VulSeeker",
        1,
        Arc::clone(&rows),
        meta,
        &IndexParams::default(),
    );

    let path = std::env::temp_dir().join(format!("khaos-index-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    khaos_obs::trace::install(&path).expect("install trace sink");
    let hits = index.query_with(rows.row(17), 10, index.nlist());
    khaos_obs::trace::set_enabled(false);
    assert_eq!(hits[0].0, 17, "a corpus row is its own best hit");

    let text = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).unwrap();
    let spans: Vec<Span> = text.lines().map(parse).collect();
    let named = |name: &str| -> &Span {
        let found: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
        assert_eq!(found.len(), 1, "one `{name}` span in {spans:?}");
        found[0]
    };

    let query = named("index:query");
    for child in ["index:probe", "index:scan", "index:rerank"] {
        let span = named(child);
        assert_eq!(span.parent, query.id, "`{child}` hangs under index:query");
        assert!(
            query.start_ns <= span.start_ns && span.end_ns <= query.end_ns,
            "`{child}` {span:?} lies inside index:query {query:?}"
        );
    }
}
