//! End-to-end pins for merging the grid-shaped results (Figure 7,
//! Figure 9, Figure 10 and Table 2) from shard stores: the stores that
//! elastic workers, or machines that share nothing, fill with a grid's
//! cells.
//!
//! The same checks run over every grid:
//!
//! 1. **Merge fidelity**: a plain run persists every cell, and the
//!    cells decoded back from its store, or from one store holding
//!    both halves of the grid, equal the cells it computed, bit for
//!    bit.
//! 2. **Refusal and union**: a shard store holding every other unit's
//!    cells is refused with a listing of exactly the missing cells,
//!    each with its pipeline fingerprint; adding the complementary
//!    shard store completes the union, bit-identical to the plain run.

use khaos_bench::experiments::{Fig10, Fig7, Fig9, Scope, Table2};
use khaos_bench::grid::{self, Grid};
use khaos_bench::SEED;
use khaos_store::{ReportKey, Store};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("khaos-shard-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_bit_identical(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: cell count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ra), bits(rb), "{what}: cell {i}");
    }
}

/// Copies the records of every unit `keep` selects from `from` into
/// `to`.
fn copy_units(grid: &dyn Grid, from: &Store, to: &Store, keep: impl Fn(usize) -> bool) {
    for (_, unit) in grid.units().iter().enumerate().filter(|(i, _)| keep(*i)) {
        for (subject, pipeline) in &unit.outputs {
            let key = ReportKey {
                pipeline: *pipeline,
                seed: SEED,
                subject,
            };
            let report = from.get_report(&key).expect("read").expect("persisted");
            to.put_report(&report).expect("write");
        }
    }
}

/// A plain run over `grid` persisting into a fresh store; returns the
/// store, its directory and the computed cells, after checking that
/// the cells decoded back from the store equal them bit for bit.
fn plain_run(tag: &str, grid: &dyn Grid) -> (PathBuf, Store, Vec<Vec<f64>>) {
    let dir = scratch(&format!("{tag}-full"));
    let full = Store::open(&dir).expect("store opens");
    assert!(grid.units().len() >= 2, "{tag}: grid large enough to split");
    let computed = grid::cells(grid, Some(&full));
    let merged = grid::decode(grid, &[&full]).expect("a plain run persists every cell");
    assert_bit_identical(&merged, &computed, &format!("{tag} merged vs plain"));
    (dir, full, computed)
}

/// Merge fidelity through one shared store: both halves of the grid
/// copied into a single shard store decode to the plain run's cells.
fn check_one_store(tag: &str, grid: &dyn Grid, full: &Store, computed: &[Vec<f64>]) {
    let dir = scratch(&format!("{tag}-shared"));
    let shared = Store::open(&dir).expect("store opens");
    copy_units(grid, full, &shared, |i| i % 2 == 0);
    copy_units(grid, full, &shared, |i| i % 2 == 1);
    let merged = grid::decode(grid, &[&shared]).expect("both halves in one store merge");
    assert_bit_identical(&merged, computed, &format!("{tag} shared store vs plain"));
    std::fs::remove_dir_all(dir).unwrap();
}

/// Refusal and union: a store holding every other unit's cells is
/// refused with a listing of exactly the missing cells; adding the
/// complementary store completes the union.
fn check_refusal_and_union(tag: &str, grid: &dyn Grid, full: &Store, computed: &[Vec<f64>]) {
    let dirs = ["even", "odd"].map(|s| scratch(&format!("{tag}-{s}")));
    let [even, odd] = dirs.clone().map(|d| Store::open(d).expect("store opens"));
    let units = grid.units();

    copy_units(grid, full, &even, |i| i % 2 == 0);
    let missing = grid::decode(grid, &[&even]).expect_err("half a grid must not merge");
    let want: Vec<&(String, u64)> = units
        .iter()
        .skip(1)
        .step_by(2)
        .flat_map(|u| &u.outputs)
        .collect();
    assert_eq!(missing.len(), want.len(), "{tag}: {missing:?}");
    for (line, (subject, pipeline)) in missing.iter().zip(want) {
        assert!(
            line.starts_with(subject.as_str()) && line.contains(&format!("{pipeline:016x}")),
            "{tag}: `{line}` must name {subject} and its pipeline {pipeline:016x}"
        );
    }

    // An empty extra store changes nothing; the complementary half
    // completes the union.
    assert!(
        grid::decode(grid, &[&even, &odd]).is_err(),
        "{tag}: empty extra store"
    );
    copy_units(grid, full, &odd, |i| i % 2 == 1);
    let union = grid::decode(grid, &[&even, &odd]).expect("the two shard stores cover the grid");
    assert_bit_identical(&union, computed, &format!("{tag} union vs plain"));
    for d in dirs {
        std::fs::remove_dir_all(d).unwrap();
    }
}

fn check(tag: &str, grid: &dyn Grid) {
    let (dir, full, computed) = plain_run(tag, grid);
    check_one_store(tag, grid, &full, &computed);
    check_refusal_and_union(tag, grid, &full, &computed);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn fig7_shards_merge_bit_identically() {
    check("fig7", &Fig7::new(Scope::Quick));
}

#[test]
fn fig9_shards_merge_bit_identically() {
    check("fig9", &Fig9::new(Scope::Quick));
}

/// Figure 10 merge fidelity: both halves of the grid in one store
/// decode to the single-process cells, bit for bit.
#[test]
fn two_shards_into_one_store_merge_to_the_single_process_grid() {
    let grid = Fig10::new(Scope::Quick);
    let (dir, full, computed) = plain_run("fig10-one", &grid);
    check_one_store("fig10-one", &grid, &full, &computed);
    std::fs::remove_dir_all(dir).unwrap();
}

/// Figure 10 refusal: a store holding half the grid is rejected with a
/// precise listing of every missing cell.
#[test]
fn merge_refuses_an_incomplete_grid_listing_every_missing_cell() {
    let grid = Fig10::new(Scope::Quick);
    let (dir, full, computed) = plain_run("fig10-half", &grid);
    check_refusal_and_union("fig10-half", &grid, &full, &computed);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn table2_shards_merge_bit_identically() {
    check("table2", &Table2::new(Scope::Quick));
}
