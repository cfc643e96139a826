//! `experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--elastic]
//!             <fig6|fig7|fig8|fig9|fig10|fig11
//!              |table1|table2|table3|ablations
//!              |ext-arity|ext-dataflow|ext-stripped|all>...
//! experiments [--quick] <fig7-merge|fig9-merge|fig10-merge|table2-merge> DIR...
//! ```
//!
//! The `ext-*` targets are extension experiments beyond the paper's
//! evaluation: the N-way fusion arity sweep, the §5 data-flow-diffing
//! prediction, and stripped-binary BinDiff. Every target is checked
//! before any runs; an unknown one exits 2.
//!
//! fig7, fig9, fig10 and table2 are grids (`khaos_bench::grid`): with
//! `KHAOS_STORE` set, every cell persists in the store. `--elastic`
//! makes this process one worker of a leased work queue in the shared
//! `KHAOS_STORE` (see `khaos_bench::coordinator`): every worker pointed
//! at the same store, on any machine, claims open units (one program
//! each), steals stale claims from dead peers after the lease horizon
//! (`KHAOS_LEASE_MS`, default 120s), and prints the tables once the
//! whole grid's records exist. `<grid>-merge DIR...` prints a grid from
//! any union of stores, or lists every missing cell and exits 1.
//!
//! `KHAOS_METRICS=stderr|path` dumps the metrics registry (memo hit
//! rates, store and cache counters) when the run ends.

use khaos_bench::experiments::{self, Fig10, Fig7, Fig9, Scope, Table2};
use khaos_bench::grid::{self, Grid, Mode};
use std::time::Instant;

/// How a target runs.
enum Target {
    /// A driver that prints its table.
    Plain(fn(Scope)),
    /// A grid: runs plain or `--elastic`, and has a `-merge` form.
    Grid(fn(Scope) -> Box<dyn Grid>),
}

/// Every target, in the order `all` runs them.
const TARGETS: [(&str, Target); 13] = [
    ("table1", Target::Plain(|_| experiments::table1())),
    ("table2", Target::Grid(|s| Box::new(Table2::new(s)))),
    ("table3", Target::Plain(|_| experiments::table3())),
    ("fig6", Target::Plain(experiments::fig6)),
    ("fig7", Target::Grid(|s| Box::new(Fig7::new(s)))),
    ("fig8", Target::Plain(experiments::fig8)),
    ("fig9", Target::Grid(|s| Box::new(Fig9::new(s)))),
    ("fig10", Target::Grid(|s| Box::new(Fig10::new(s)))),
    ("fig11", Target::Plain(experiments::fig11)),
    ("ablations", Target::Plain(experiments::ablations)),
    ("ext-arity", Target::Plain(experiments::ext_arity)),
    ("ext-dataflow", Target::Plain(experiments::ext_dataflow)),
    ("ext-stripped", Target::Plain(experiments::ext_stripped)),
];

/// The grid a `<grid>-merge` target names.
fn merge_target(name: &str) -> Option<fn(Scope) -> Box<dyn Grid>> {
    let grid = name.strip_suffix("-merge")?;
    TARGETS.iter().find_map(|(n, t)| match t {
        Target::Grid(make) if *n == grid => Some(*make),
        _ => None,
    })
}

fn usage(error: &str) -> ! {
    eprintln!("experiments: {error}");
    eprintln!(
        "usage: experiments [--quick] [--elastic] \
         <fig6..fig11|table1..table3|ablations|ext-arity|ext-dataflow|ext-stripped|all>...\n       \
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
    if args.iter().any(|a| a == "--shard") || std::env::var_os("KHAOS_SHARD").is_some() {
        usage(
            "static sharding (--shard, KHAOS_SHARD) is gone: run `--elastic` workers on \
             a shared KHAOS_STORE instead (any number, on any machines; they split the \
             grid between them), or give each machine its own store and combine them \
             with `<grid>-merge DIR...`",
        );
    }
    let quick = args.iter().any(|a| a == "--quick");
    let scope = if quick { Scope::Quick } else { Scope::Full };
    let mut elastic = false;
    let mut positional: Vec<&str> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--quick" => {}
            "--elastic" => elastic = true,
            other if other.starts_with("--") => usage(&format!("unknown flag `{other}`")),
            other => positional.push(other),
        }
    }

    // A merge target consumes the remaining positionals as store dirs.
    if let Some(make) = positional.first().and_then(|t| merge_target(t)) {
        let dirs: Vec<String> = match &positional[1..] {
            [] => match std::env::var("KHAOS_STORE") {
                Ok(d) if !d.trim().is_empty() => vec![d],
                _ => usage(&format!(
                    "{} needs store DIRs (or KHAOS_STORE)",
                    positional[0]
                )),
            },
            dirs => dirs.iter().map(|d| d.to_string()).collect(),
        };
        let complete = grid::run(&*make(scope), scope, Mode::Merge(&dirs));
        exit(if complete { 0 } else { 1 });
    }

    // Check every target before running any.
    let mut targets: Vec<&(&str, Target)> = Vec::new();
    for t in &positional {
        if let Some(target) = TARGETS.iter().find(|(n, _)| n == t) {
            targets.push(target);
        } else if merge_target(t).is_some() {
            usage(&format!(
                "`{t}` runs alone: experiments [--quick] {t} DIR..."
            ));
        } else if *t != "all" {
            usage(&format!("unknown experiment `{t}`"));
        }
    }
    if positional.is_empty() || positional.contains(&"all") {
        targets = TARGETS.iter().collect();
    }

    for (name, target) in targets {
        let start = Instant::now();
        match target {
            Target::Grid(make) => {
                let mode = if elastic { Mode::Elastic } else { Mode::Plain };
                if !grid::run(&*make(scope), scope, mode) {
                    exit(1);
                }
            }
            Target::Plain(run) => {
                if elastic {
                    eprintln!(
                        "experiments: WARNING: `{name}` is not a grid — running it plainly \
                         (grids: fig7, fig9, fig10, table2)"
                    );
                }
                run(scope);
            }
        }
        eprintln!("[{name} took {:.1?}]\n", start.elapsed());
    }
    khaos_obs::metrics::maybe_dump();
}
