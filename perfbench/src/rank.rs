//! `rank-corpus` — diffing, ranking, index and store, with no
//! compilation in the timed phase.
//!
//! **Why.** Passes are absent, so `diff`/`index`/`store` do the work.
//! Pairwise exact ranking (step 2) and IVF corpus search (step 4) use
//! the ranking layer in two ways, so a change that helps one and costs
//! the other shows. Store reads happen only here.
//!
//! **Set-up** (`setup_s`, median of [`SETUP_REPS`]): build the Fig. 10
//! grid — T-III baselines at `O2+lto` plus the six Fig. 10 configs on
//! them — and the `O2+lto` baselines of T-I ∪ T-II, and lower them all.
//! Once, untimed, it also computes the references the checks compare
//! against: `escape_profile_streaming` for every pair × tool, and
//! `IvfIndex::brute_top_k` for every sampled query.
//!
//! **What the seed selects.** The [`QUERIES`] corpus rows queried
//! through the index in step 4.
//!
//! **Timed phase.** Passes (about 3 s each on one core of a 2-core
//! x86-64 host) repeat the same four steps, each on fresh state, until
//! `--seconds` have elapsed:
//! 1. embed every binary with all five differs into a fresh
//!    `EmbeddingCache` (`diff.fingerprint_s`, `diff.embed.<Tool>_s`);
//! 2. for every Fig. 10 pair × tool, escape@{1,10,50}
//!    (`diff.escape_s`, checked against the reference) and Precision@1
//!    (`diff.precision_s`), plus BinDiff whole-binary similarity per
//!    pair (`diff.bindiff_s`);
//! 3. write every embedding table to a fresh store (`store.write_s`)
//!    and read it back through a fresh cache attached to that store
//!    (`store.read_s`; bit-equal to the computed table, and served from
//!    disk);
//! 4. pool one tool's rows (more than the index's 4096-row exact
//!    cutoff, so the certified IVF path runs), build the index
//!    (`index.build_s`) and query the sample for the top 50
//!    (`index.query_s`; equal to brute force). Queries offer every
//!    cell, so the certified cell skips alone decide what is scanned;
//!    at the default probe width some self-queries of this corpus miss
//!    a true top-50 row.
//!
//! **Layer metric → end-to-end metric it should move**
//! - `diff.fingerprint_s`, `diff.embed*_s`, `diff.escape_s`,
//!   `diff.precision_s` → `items_per_s`; the last two also
//!   `item_p50_ms`
//! - `diff.bindiff_s`, `store.write_s`, `store.read_s`, `index.build_s`
//!   → `wall_s`
//! - `index.query_s`, `index.cells_probed_per_query`,
//!   `index.rerank_share` → `index.queries_per_s`,
//!   `index.query_p50_us`, `index.query_tail_us`
//! - `pass.*`, `ir.verify_audit_s` (set-up builds) → `setup_s` only

use crate::grid::{build, charge_report};
use crate::{
    cpu_seconds, fresh_dir, median, peak_rss_mb, secs, tail, Fault, Layers, Report, RunArgs, Size,
    SplitMix,
};
use khaos_bench::experiments::{fig10_configs, FIG10_KS};
use khaos_binary::{lower_module, Binary};
use khaos_diff::{
    binary_similarity_with, escape_profile_streaming, escape_profile_with, extended_differs,
    precision_at_1_with, BinDiff, Differ, EmbeddingCache, FunctionEmbeddings,
};
use khaos_index::{IndexParams, IvfIndex, RowMeta};
use khaos_ir::Module;
use khaos_obs::Registry;
use khaos_pass::PipelineReport;
use khaos_store::{EmbKey, Store, TableView};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Index queries per pass.
pub const QUERIES: usize = 1000;

/// Top-k of every index query.
pub const TOP_K: usize = 50;

/// The tool whose rows are pooled into the index.
pub const POOL_TOOL: &str = "Asm2Vec";

/// The built corpus: every binary, and the Fig. 10 pairs as indices
/// into it (baseline, obfuscated).
pub struct Corpus {
    /// Every lowered binary.
    pub bins: Vec<Binary>,
    /// Fig. 10 (baseline, obfuscated) index pairs.
    pub pairs: Vec<(usize, usize)>,
}

/// Builds the corpus (in parallel over at most `KHAOS_THREADS`
/// workers), returning it with every pipeline report.
pub fn build_corpus(size: Size) -> (Corpus, Vec<PipelineReport>) {
    let (tiii, others, configs) = match size {
        Size::Full => {
            let mut others = khaos_workloads::spec2006();
            others.extend(khaos_workloads::spec2017());
            others.extend(khaos_workloads::coreutils());
            (khaos_workloads::tiii(), others, fig10_configs())
        }
        Size::Tiny => {
            let mut t = khaos_workloads::tiii();
            t.truncate(1);
            let others = vec![khaos_workloads::coreutils_program("cat", 0)];
            let mut c = fig10_configs();
            c.truncate(2);
            (t, others, c)
        }
    };
    // T-III baselines first: the configs build on them.
    let sources: Vec<&Module> = tiii.iter().chain(&others).collect();
    let bases = khaos_par::par_map_slice(&sources, |src| build(src, "O2+lto"));
    let cells: Vec<(usize, usize)> = (0..tiii.len())
        .flat_map(|p| (0..configs.len()).map(move |c| (p, c)))
        .collect();
    let obfs = khaos_par::par_map_slice(&cells, |&(p, c)| {
        let cfg = &configs[c].1;
        let (m, r) = build(&bases[p].0, &cfg.spec());
        (lower_module(&m).with_build_provenance(cfg.fingerprint()), r)
    });
    let mut reports = Vec::new();
    let mut bins = Vec::new();
    for (m, r) in bases {
        bins.push(lower_module(&m));
        reports.push(r);
    }
    let mut pairs = Vec::new();
    for (i, (b, r)) in obfs.into_iter().enumerate() {
        pairs.push((i / configs.len(), bins.len()));
        bins.push(b);
        reports.push(r);
    }
    (Corpus { bins, pairs }, reports)
}

/// The per-tool embedding layer metric of one of the five differs.
pub fn embed_metric(tool: &str) -> Option<&'static str> {
    Some(match tool {
        "BinDiff" => "diff.embed.BinDiff_s",
        "VulSeeker" => "diff.embed.VulSeeker_s",
        "Asm2Vec" => "diff.embed.Asm2Vec_s",
        "SAFE" => "diff.embed.SAFE_s",
        "DataFlowDiff" => "diff.embed.DataFlowDiff_s",
        _ => return None,
    })
}

/// Pools `tool`'s embeddings of every binary into one corpus.
fn pool(
    tool: &dyn Differ,
    corpus: &Corpus,
    cache: &EmbeddingCache,
) -> (Arc<FunctionEmbeddings>, Vec<RowMeta>) {
    let mut data = Vec::new();
    let mut meta = Vec::new();
    let mut dim = 0;
    for bin in &corpus.bins {
        let fp = bin.fingerprint();
        let e = cache.get_or_embed((tool.name(), tool.config_fingerprint(), fp), || {
            tool.embed(bin)
        });
        dim = e.dim();
        data.extend_from_slice(e.as_flat());
        meta.extend(bin.functions.iter().enumerate().map(|(i, f)| RowMeta {
            binary: fp,
            function: i as u32,
            name: f.name.clone().unwrap_or_default(),
        }));
    }
    let rows = meta.len();
    (
        Arc::new(FunctionEmbeddings::from_flat_normalized(rows, dim, data)),
        meta,
    )
}

/// What the checks compare against, computed once in set-up.
struct References {
    /// Escape profile per pair × tool, pair-major.
    escape: Vec<Vec<f64>>,
    /// Sampled query rows and their brute-force top-k.
    queries: Vec<(usize, Vec<(usize, f64)>)>,
}

fn references(args: &RunArgs, corpus: &Corpus) -> References {
    let cache = EmbeddingCache::new(1 << 16);
    let mut escape = Vec::new();
    for &(b, o) in &corpus.pairs {
        for tool in extended_differs() {
            let (base, obf) = (&corpus.bins[b], &corpus.bins[o]);
            escape.push(escape_profile_streaming(
                tool.as_ref(),
                base,
                obf,
                &FIG10_KS,
                &cache,
            ));
        }
    }
    let tool = extended_differs()
        .into_iter()
        .find(|t| t.name() == POOL_TOOL)
        .expect("pool tool");
    let (rows, meta) = pool(tool.as_ref(), corpus, &cache);
    let index = IvfIndex::build(
        POOL_TOOL,
        tool.config_fingerprint(),
        rows.clone(),
        meta,
        &IndexParams::default(),
    );
    let mut rng = SplitMix::new(args.seed);
    let n = match args.size {
        Size::Full => QUERIES,
        Size::Tiny => 20,
    };
    let mut queries: Vec<(usize, Vec<(usize, f64)>)> = (0..n)
        .map(|_| {
            let q = rng.below(rows.len());
            (q, index.brute_top_k(rows.row(q), TOP_K))
        })
        .collect();
    if args.fault == Fault::Reference {
        queries[0].1[0].1 += 1.0;
    }
    References { escape, queries }
}

/// Bitwise equality of ranked lists (indices and f64 score bits).
fn same_ranking(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Latency samples of a run, in the order they were taken.
#[derive(Default)]
struct Samples {
    /// Per (pair × tool) ranking cell, milliseconds.
    cell_ms: Vec<f64>,
    /// Per index query, microseconds.
    query_us: Vec<f64>,
}

/// One timed pass; returns the (pair × tool) cells ranked and the
/// seconds steps 1–2 took.
fn pass(
    args: &RunArgs,
    k: usize,
    corpus: &Corpus,
    refs: &References,
    layers: &mut Layers,
    report: &mut Report,
    samples: &mut Samples,
) -> (usize, f64) {
    let tools = extended_differs();
    let cache = EmbeddingCache::new(1 << 16);

    // 1. Embed every binary with every tool.
    let t_cells = Instant::now();
    let mut tables = Vec::new();
    for bin in &corpus.bins {
        let fp = layers.time("diff.fingerprint_s", || bin.fingerprint());
        for tool in &tools {
            let key = (tool.name(), tool.config_fingerprint(), fp);
            let metric = embed_metric(tool.name()).expect("one of the five differs");
            let t = Instant::now();
            let e = layers.time(metric, || cache.get_or_embed(key, || tool.embed(bin)));
            layers.add("diff.embed_s", secs(t));
            tables.push((key, e));
        }
    }

    // 2. Rank every pair with every tool.
    let mut cells = 0;
    let mut r = refs.escape.iter();
    for &(b, o) in &corpus.pairs {
        let (base, obf) = (&corpus.bins[b], &corpus.bins[o]);
        for tool in &tools {
            let t = Instant::now();
            let esc = layers.time("diff.escape_s", || {
                escape_profile_with(tool.as_ref(), base, obf, &FIG10_KS, &cache)
            });
            let p1 = layers.time("diff.precision_s", || {
                precision_at_1_with(tool.as_ref(), base, obf, &cache)
            });
            samples.cell_ms.push(secs(t) * 1e3);
            cells += 1;
            let want = r.next().expect("one reference per cell");
            report.check(same_bits(&esc, want), || {
                format!(
                    "{} {}: escape {esc:?} != streaming reference {want:?}",
                    obf.name,
                    tool.name()
                )
            });
            report.check((0.0..=1.0).contains(&p1), || {
                format!("{}: P@1 {p1} outside [0, 1]", tool.name())
            });
        }
        let sim = layers.time("diff.bindiff_s", || {
            binary_similarity_with(&BinDiff::default(), base, obf, &cache)
        });
        report.check(sim.is_finite(), || {
            format!("{}: BinDiff similarity {sim}", obf.name)
        });
    }
    let cell_secs = secs(t_cells);

    // 3. Write every table to a fresh store, read it back through a
    //    fresh cache attached to it.
    let dir = fresh_dir(&args.work, &format!("rank-store-{k}"));
    let store = Arc::new(Store::open(&dir).expect("open pass store"));
    for ((tool, config, binary), e) in &tables {
        let key = EmbKey {
            tool,
            config: *config,
            binary: *binary,
        };
        let view = TableView::new(e.len(), e.dim(), e.as_flat());
        let ok = layers.time("store.write_s", || store.put_embeddings(&key, view));
        report.check(ok.is_ok(), || format!("store write {key:?}: {ok:?}"));
    }
    if k == 0 {
        let bytes = store.stats().map_or(0, |s| s.total_bytes());
        report.set("store.bytes_written", bytes as f64);
    }
    let reader = EmbeddingCache::new(1 << 16);
    reader.attach_store(Arc::clone(&store));
    for (key, e) in &tables {
        let mut recomputed = false;
        let back = layers.time("store.read_s", || {
            reader.get_or_embed(*key, || {
                recomputed = true;
                Vec::new()
            })
        });
        report.check(
            !recomputed && same_bits(back.as_flat(), e.as_flat()),
            || format!("store read-back of {key:?} is not the computed table"),
        );
    }
    drop(reader);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // 4. Pool one tool's rows, index them, query the sample.
    let tool = tools
        .iter()
        .find(|t| t.name() == POOL_TOOL)
        .expect("pool tool");
    let (rows, meta) = pool(tool.as_ref(), corpus, &cache);
    let index = layers.time("index.build_s", || {
        IvfIndex::build(
            POOL_TOOL,
            tool.config_fingerprint(),
            rows.clone(),
            meta,
            &IndexParams::default(),
        )
    });
    // Every cell is a candidate: the certified skips still prune whole
    // cells, and the result is exact. At the default width (an eighth
    // of the cells) some self-queries of this near-duplicate-rich
    // corpus miss a true top-50 row, which the check would count.
    let nprobe = index.nlist();
    for (q, want) in &refs.queries {
        let t = Instant::now();
        let got = layers.time("index.query_s", || {
            index.query_with(rows.row(*q), TOP_K, nprobe)
        });
        samples.query_us.push(secs(t) * 1e6);
        report.check(same_ranking(&got, want), || {
            format!("index top-{TOP_K} of row {q} at nprobe {nprobe} != brute force")
        });
    }
    (cells, cell_secs)
}

/// Runs the workload into `report`.
pub fn run(args: &RunArgs, report: &mut Report) {
    args.install_trace("rank-corpus");
    let mut setups = Vec::new();
    let mut built = None;
    let mut setup_layers = Layers::default();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let (corpus, reports) = build_corpus(args.size);
        setups.push(secs(start));
        if rep == 0 {
            for r in &reports {
                charge_report(&mut setup_layers, report, r);
            }
        }
        built = Some(corpus);
    }
    let corpus = built.expect("at least one set-up");
    report.set("setup_s", median(&setups));
    let refs = references(args, &corpus);

    let registry = Registry::global();
    let counter = |n: &str| registry.counter(n).get() as f64;
    let counters = [
        "index.queries",
        "index.cells_probed",
        "index.cells_skipped",
        "index.candidates_scanned",
        "index.rerank_scored",
    ];
    let before: Vec<f64> = counters.iter().map(|n| counter(n)).collect();
    let mut layers = Layers::default();
    let mut samples = Samples::default();
    let (started, cpu0) = (Instant::now(), cpu_seconds());
    let (mut k, mut cells, mut cell_secs) = (0, 0, 0.0);
    while k == 0 || secs(started) < args.seconds {
        let (c, s) = pass(args, k, &corpus, &refs, &mut layers, report, &mut samples);
        cells += c;
        cell_secs += s;
        k += 1;
    }
    let (wall, cpu) = (secs(started), cpu_seconds() - cpu0);
    let delta: Vec<f64> = counters
        .iter()
        .zip(before)
        .map(|(n, b)| counter(n) - b)
        .collect();

    report.set("wall_s", wall / k as f64);
    report.set("cpu_s", cpu / k as f64);
    report.set("items_per_s", cells as f64 / cell_secs);
    report.set("peak_rss_mb", peak_rss_mb());
    let Samples { cell_ms, query_us } = samples;
    report.set("item_p50_ms", median(&cell_ms));
    report.set_item_tail(&cell_ms);
    report.set(
        "index.cells_probed_per_query",
        (delta[1] - delta[2]) / delta[0].max(1.0),
    );
    report.set("index.rerank_share", delta[4] / delta[3].max(1.0));
    let query_s = layers.get("index.query_s");
    report.set(
        "index.queries_per_s",
        query_us.len() as f64 / query_s.max(1e-12),
    );
    report.set("index.query_p50_us", median(&query_us));
    let (tail_us, tail_pct) = tail(&query_us).unwrap_or((0.0, 0.0));
    report.set("index.query_tail_us", tail_us);
    report.set("index.query_tail_pct", tail_pct);
    report.set("index.query_samples", query_us.len() as f64);
    layers.into_report(report);
    setup_layers.into_report(report);
}
