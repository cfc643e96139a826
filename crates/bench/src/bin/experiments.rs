//! `experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--shard i/n] [--elastic]
//!             <fig6|fig7|fig8|fig9|fig10|fig11
//!              |table1|table2|table3|ablations
//!              |ext-arity|ext-dataflow|ext-stripped|all>
//! experiments [--quick] <fig7-merge|fig9-merge|fig10-merge|table2-merge> DIR...
//! ```
//!
//! The `ext-*` targets are extension experiments beyond the paper's
//! evaluation: the N-way fusion arity sweep, the §5 data-flow-diffing
//! prediction, and stripped-binary BinDiff.
//!
//! `--shard i/n` (or the `KHAOS_SHARD=i/n` environment variable) runs
//! this process as shard `i` of `n`: grid-shaped experiments measure
//! only their deterministic share of the flattened work grid, so `n`
//! processes — or machines sharing nothing but store directories —
//! split a sweep. Shard runs should set `KHAOS_STORE` so each cell is
//! persisted; `figN-merge`/`table2-merge DIR...` then reassembles the
//! complete grid from any union of shard stores (and fails, listing
//! every missing cell, when the union is incomplete).
//!
//! `--elastic` replaces the static partition with the leased work
//! queue in the shared `KHAOS_STORE` (see `khaos_bench::coordinator`):
//! every worker pointed at the same store claims open cells, steals
//! stale claims from dead peers after the lease horizon
//! (`KHAOS_LEASE_MS`, default 120s), and exits only when the whole
//! grid's records exist — no up-front `i/n` arithmetic, and a killed
//! worker costs one re-computed cell instead of a hole in the grid.
//!
//! `KHAOS_METRICS=stderr|path` dumps the metrics registry (memo hit
//! rates, store and cache counters) when the run ends.

use khaos_bench::experiments::{self, Scope};
use khaos_bench::ShardSpec;
use std::time::Instant;

/// A grid reassembler: prints the full table from shard-store DIRs,
/// returning whether the grid was complete.
type MergeFn = fn(Scope, &[String]) -> bool;

/// An elastic driver: one worker's pass over a target's leased work
/// queue, returning false when no store is configured.
type ElasticFn = fn(Scope) -> bool;

/// The merge targets: each reassembles one full grid from shard-store
/// DIRs and exits 1 when cells are missing.
const MERGE_TARGETS: [(&str, MergeFn); 4] = [
    ("fig7-merge", experiments::fig7_report),
    ("fig9-merge", experiments::fig9_report),
    ("fig10-merge", experiments::fig10_report),
    ("table2-merge", experiments::table2_report),
];

/// Targets whose drivers honour `KHAOS_SHARD` (grid-shaped, per-cell
/// persisted). Everything else runs FULL on every shard.
const SHARDED_TARGETS: [&str; 7] = ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table2"];

/// Targets with an elastic (leased work-queue) driver.
const ELASTIC_TARGETS: [(&str, ElasticFn); 4] = [
    ("fig7", experiments::fig7_elastic),
    ("fig9", experiments::fig9_elastic),
    ("fig10", experiments::fig10_elastic),
    ("table2", experiments::table2_elastic),
];

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--quick] [--shard i/n] [--elastic] \
         <fig6..fig11|table1..table3|ablations|ext-arity|ext-dataflow|ext-stripped|all>\n       \
         experiments [--quick] <fig7-merge|fig9-merge|fig10-merge|table2-merge> DIR..."
    );
    std::process::exit(2);
}

/// Dumps the metrics registry (per `KHAOS_METRICS`), then exits.
fn exit(code: i32) -> ! {
    khaos_obs::metrics::maybe_dump();
    std::process::exit(code);
}

fn main() {
    khaos_obs::cli::exit_quietly_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scope = if quick { Scope::Quick } else { Scope::Full };
    let mut elastic = false;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {}
            "--elastic" => elastic = true,
            "--shard" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                let shard = match ShardSpec::parse(v) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("experiments: --shard {e}");
                        std::process::exit(2);
                    }
                };
                // One mechanism for every driver: the flag writes the
                // same variable the harness reads (KHAOS_SHARD).
                std::env::set_var("KHAOS_SHARD", shard.to_string());
            }
            other if other.starts_with("--") => {
                eprintln!("experiments: unknown flag `{other}`");
                std::process::exit(2);
            }
            other => positional.push(other),
        }
    }

    // Merge targets consume the remaining positionals as store dirs.
    if let Some(&(name, report)) = positional
        .first()
        .and_then(|t| MERGE_TARGETS.iter().find(|(n, _)| n == t))
    {
        let dirs: Vec<String> = positional[1..].iter().map(|s| s.to_string()).collect();
        let dirs = if dirs.is_empty() {
            match std::env::var("KHAOS_STORE") {
                Ok(d) if !d.trim().is_empty() => vec![d],
                _ => {
                    eprintln!("experiments: {name} needs store DIRs (or KHAOS_STORE)");
                    std::process::exit(2);
                }
            }
        } else {
            dirs
        };
        let complete = report(scope, &dirs);
        exit(if complete { 0 } else { 1 });
    }

    let targets: Vec<&str> = if positional.is_empty() || positional.contains(&"all") {
        vec![
            "table1",
            "table2",
            "table3",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "ablations",
            "ext-arity",
            "ext-dataflow",
            "ext-stripped",
        ]
    } else {
        positional
    };

    let shard = khaos_bench::active_shard();
    if elastic && !shard.is_full() {
        eprintln!(
            "experiments: WARNING: --elastic ignores the static shard {shard} — \
             the work queue balances itself; every elastic worker scans the full grid"
        );
    }
    for t in targets {
        // Only the grid-shaped drivers shard. A sharded run of any
        // other target would duplicate its full cost on every shard,
        // so say so loudly instead of letting it pass as a smaller
        // sweep.
        if !shard.is_full() && !SHARDED_TARGETS.contains(&t) {
            eprintln!(
                "experiments: WARNING: `{t}` does not shard — shard {shard} runs it in FULL \
                 (every shard duplicates this cost; sharded targets: {})",
                SHARDED_TARGETS.join(", ")
            );
        }
        let start = Instant::now();
        if elastic {
            if let Some(&(_, run)) = ELASTIC_TARGETS.iter().find(|(n, _)| *n == t) {
                if !run(scope) {
                    exit(1);
                }
                eprintln!("[{t} took {:.1?}]\n", start.elapsed());
                continue;
            }
            eprintln!(
                "experiments: WARNING: `{t}` has no elastic driver — running it plainly \
                 (elastic targets: {})",
                ELASTIC_TARGETS.map(|(n, _)| n).join(", ")
            );
        }
        match t {
            "fig6" => experiments::fig6(scope),
            "fig7" => experiments::fig7(scope),
            "fig8" => experiments::fig8(scope),
            "fig9" => experiments::fig9(scope),
            "fig10" => experiments::fig10(scope),
            "fig11" => experiments::fig11(scope),
            "table1" => experiments::table1(),
            "table2" => experiments::table2(scope),
            "table3" => experiments::table3(),
            "ablations" => experiments::ablations(scope),
            "ext-arity" => experiments::ext_arity(scope),
            "ext-dataflow" => experiments::ext_dataflow(scope),
            "ext-stripped" => experiments::ext_stripped(scope),
            other => {
                eprintln!("unknown experiment `{other}`");
                usage();
            }
        }
        eprintln!("[{t} took {:.1?}]\n", start.elapsed());
    }
    khaos_obs::metrics::maybe_dump();
}
