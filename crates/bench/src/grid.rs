//! One runner for the grid-shaped results: Figure 7, Figure 9,
//! Figure 10 and Table 2.
//!
//! Each of these results is a grid of cells, and every cell is a
//! deterministic function of `(program, config, seed)`. A [`Grid`]
//! names its cells (each with the `ReportKey` it persists under),
//! computes them a unit at a time, and prints its table from the cells'
//! metric rows. [`run`] drives every grid through the same three
//! modes, all built on [`Grid::units`], [`Grid::compute`] and
//! [`decode`]:
//!
//! - [`Mode::Plain`] computes every unit in this process
//!   ([`par_fan_out`]), persists each cell into `KHAOS_STORE` when it
//!   is set, and prints the rows it computed.
//! - [`Mode::Elastic`] makes this process one worker of the leased work
//!   queue in the shared `KHAOS_STORE` ([`crate::coordinator`]), then
//!   prints the grid decoded from the store.
//! - [`Mode::Merge`] decodes the grid from a union of stores, or lists
//!   every missing cell.
//!
//! A unit is one program: its baseline and every cell built from it,
//! so no mode builds a baseline more than once per program.

use crate::coordinator::{run_elastic, ElasticSummary, WorkUnit};
use crate::experiments::Scope;
use crate::harness::{artifact_store, par_fan_out, persist_metrics_to, SEED};
use khaos_store::{ReportKey, Store};
use std::time::Duration;

/// A grid-shaped result: its cells, how to compute them, and how to
/// print them.
pub trait Grid: Sync {
    /// The result's name in merge headers and worker logs (`Figure 7`).
    fn name(&self) -> &'static str;

    /// The heading line a plain or elastic run prints first.
    fn title(&self) -> &'static str;

    /// Whether a merge prints [`Grid::title`] above its header too
    /// (Table 2 always has).
    fn title_on_merge(&self) -> bool {
        false
    }

    /// The metric names every cell persists, in row order.
    fn metrics(&self) -> &'static [&'static str];

    /// The claimable units in canonical order, one per program. A
    /// unit's `outputs` are its cells' `(subject, pipeline)` keys; the
    /// grid's cells are every unit's outputs, concatenated.
    fn units(&self) -> Vec<WorkUnit>;

    /// Computes unit `unit`: one metric row per output cell, in
    /// `outputs` order.
    fn compute(&self, unit: usize) -> Vec<Vec<f64>>;

    /// Prints the table from every cell's row, in canonical order.
    fn print(&self, cells: &[Vec<f64>]);
}

/// Where [`run`] gets a grid's cells from.
#[derive(Clone, Copy, Debug)]
pub enum Mode<'a> {
    /// Compute every unit in this process.
    Plain,
    /// Work the shared `KHAOS_STORE` queue as one elastic worker.
    Elastic,
    /// Decode the grid from the union of these store directories.
    Merge(&'a [String]),
}

/// Runs `grid` in `mode` and prints its table, returning whether the
/// grid was complete. `scope` only labels a merge's header.
pub fn run(grid: &dyn Grid, scope: Scope, mode: Mode) -> bool {
    match mode {
        Mode::Plain => {
            println!("{}", grid.title());
            grid.print(&cells(grid, artifact_store().as_deref()));
            true
        }
        Mode::Elastic => {
            let Some(store) = artifact_store() else {
                eprintln!(
                    "experiments: --elastic needs KHAOS_STORE (the shared store is the work queue)"
                );
                return false;
            };
            println!("{}", grid.title());
            println!("# elastic worker over {}", store.root().display());
            let s = sweep(grid, &store, Store::lease_horizon());
            eprintln!(
                "# elastic {}: {} unit(s) — {} computed here, {} already done, \
                 {} stale lease(s) stolen, {} round(s)",
                grid.name(),
                s.units,
                s.computed,
                s.already_done,
                s.stolen,
                s.rounds
            );
            print_decoded(grid, &[&store])
        }
        Mode::Merge(dirs) => {
            if grid.title_on_merge() {
                println!("{}", grid.title());
            }
            println!("# {} (merged from {} store(s))", grid.name(), dirs.len());
            println!(
                "# scope: {scope:?} — expecting {} cells; match the shards' --quick \
                 flag, or a full-scope store merges into a silently smaller grid",
                cell_count(grid)
            );
            // A typo'd path must be an error, not an empty store whose
            // every cell reads as missing.
            let mut stores = Vec::new();
            for dir in dirs {
                match Store::open_existing(dir) {
                    Ok(s) => stores.push(s),
                    Err(e) => {
                        println!("# cannot open store `{dir}`: {e}");
                        return false;
                    }
                }
            }
            print_decoded(grid, &stores.iter().collect::<Vec<_>>())
        }
    }
}

/// Computes every cell of `grid` in this process, in canonical order,
/// persisting each into `store` when given.
pub fn cells(grid: &dyn Grid, store: Option<&Store>) -> Vec<Vec<f64>> {
    let units = grid.units();
    let indices: Vec<usize> = (0..units.len()).collect();
    par_fan_out(&indices, |&i| compute_unit(grid, &units[i], i, store)).concat()
}

/// One elastic worker's pass over `grid` at lease `horizon`: claims
/// open units in `store`, computes and persists them, and returns once
/// every unit's records exist.
pub fn sweep(grid: &dyn Grid, store: &Store, horizon: Duration) -> ElasticSummary {
    let units = grid.units();
    run_elastic(store, grid.name(), &units, horizon, |i| {
        compute_unit(grid, &units[i], i, Some(store));
    })
}

/// Decodes every cell of `grid` from a union of stores (earlier stores
/// win; duplicates are bit-identical by determinism), in canonical
/// order. When a cell is missing from every store, the `Err` lists each
/// missing cell with its pipeline fingerprint, so an operator sees
/// exactly which work never ran or never persisted.
pub fn decode(grid: &dyn Grid, stores: &[&Store]) -> Result<Vec<Vec<f64>>, Vec<String>> {
    let metrics = grid.metrics();
    let mut cells = Vec::new();
    let mut missing = Vec::new();
    for (subject, pipeline) in grid.units().into_iter().flat_map(|u| u.outputs) {
        let key = ReportKey {
            pipeline,
            seed: SEED,
            subject: &subject,
        };
        // A store I/O failure is not "the work never ran": keep the
        // distinction so the operator fixes the store instead of
        // re-running the sweep. (Corrupt records decode to `Ok(None)`
        // by design; `khaos-store verify` names those.)
        let mut found = None;
        let mut read_errors = Vec::new();
        for s in stores {
            match s.get_report(&key) {
                Ok(Some(r)) => {
                    found = Some(r);
                    break;
                }
                Ok(None) => {}
                Err(e) => read_errors.push(format!("{}: {e}", s.root().display())),
            }
        }
        let Some(report) = found else {
            missing.push(if read_errors.is_empty() {
                format!("{subject} (pipeline {pipeline:016x}, seed {SEED:#x})")
            } else {
                format!(
                    "{subject} (store read error — cell may exist: {})",
                    read_errors.join("; ")
                )
            });
            continue;
        };
        let row: Option<Vec<f64>> = metrics
            .iter()
            .map(|name| report.metrics.iter().find(|(n, _)| n == name).map(|m| m.1))
            .collect();
        match row {
            Some(row) => cells.push(row),
            None => missing.push(format!(
                "{subject} (record present but missing {} metrics)",
                metrics.join("/")
            )),
        }
    }
    if missing.is_empty() {
        Ok(cells)
    } else {
        Err(missing)
    }
}

/// The number of cells in `grid`.
fn cell_count(grid: &dyn Grid) -> usize {
    grid.units().iter().map(|u| u.outputs.len()).sum()
}

/// Computes unit `i` and persists its rows into `store` when given.
fn compute_unit(
    grid: &dyn Grid,
    unit: &WorkUnit,
    i: usize,
    store: Option<&Store>,
) -> Vec<Vec<f64>> {
    let rows = grid.compute(i);
    assert_eq!(
        rows.len(),
        unit.outputs.len(),
        "{}: one row per cell",
        unit.label
    );
    if let Some(store) = store {
        for ((subject, pipeline), row) in unit.outputs.iter().zip(&rows) {
            let metrics: Vec<(&str, f64)> = grid
                .metrics()
                .iter()
                .copied()
                .zip(row.iter().copied())
                .collect();
            persist_metrics_to(store, subject, *pipeline, &metrics);
        }
    }
    rows
}

/// Prints the grid decoded from `stores`, or lists every missing cell.
/// Returns whether the grid was complete.
fn print_decoded(grid: &dyn Grid, stores: &[&Store]) -> bool {
    match decode(grid, stores) {
        Ok(cells) => {
            grid.print(&cells);
            true
        }
        Err(missing) => {
            println!(
                "# INCOMPLETE GRID: {} of {} cells missing:",
                missing.len(),
                cell_count(grid)
            );
            for m in &missing {
                println!("#   missing {m}");
            }
            false
        }
    }
}
