//! End-to-end pins for the elastic (leased work-queue) coordinator.
//!
//! The acceptance scenario: a worker dies holding a claim on a
//! Figure-10 unit. Another worker pointed at the same store must steal
//! the stale claim after the lease horizon, redo the unit, and finish
//! the grid — and the merged grid must be **cell-for-cell
//! bit-identical** to the single-process run, because every cell is a
//! deterministic function of `(program, config, seed)`.
//!
//! The dead worker is simulated exactly: a claim file is taken through
//! the real [`Store::try_lease_report`] path and then leaked with
//! [`std::mem::forget`], which skips the lease's `Drop` just as a
//! SIGKILL would — the claim dangles on disk with no process behind
//! it. The horizon is injected as a parameter (not `KHAOS_LEASE_MS`)
//! so parallel tests can't race on process-global state.

use khaos_bench::experiments::{Fig10, Scope};
use khaos_bench::grid::{self, Grid};
use khaos_bench::{run_elastic, WorkUnit, SEED};
use khaos_store::{ReportKey, Store, StoredReport};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("khaos-elastic-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lease_files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "lease") {
                found.push(path);
            }
        }
    }
    found
}

fn assert_bit_identical(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: cell count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ra), bits(rb), "{what}: cell {i}");
    }
}

/// A worker killed mid-grid leaves a dangling claim; the surviving
/// worker steals it past the horizon, completes the grid, and the
/// merged result is bit-identical to the single-process reference.
/// A second worker pass over the finished store then computes nothing.
#[test]
fn stale_lease_is_stolen_and_the_merged_grid_is_bit_identical() {
    let dir = scratch("steal");
    let store = Store::open(&dir).expect("store opens");

    // Single-process reference grid (no store, no coordinator).
    let grid = Fig10::new(Scope::Quick);
    let reference = grid::cells(&grid, None);
    // One unit per T-III program, each covering all of its cells.
    let units = grid.units();
    assert_eq!(units.len(), 2, "one unit per --quick T-III program");
    assert_eq!(
        units.iter().map(|u| u.outputs.len()).sum::<usize>(),
        reference.len()
    );

    // The "dead worker": claim unit 0 (its first output cell is the
    // anchor the coordinator leases) and leak the lease — no release,
    // no Drop.
    let (subject, pipeline) = &units[0].outputs[0];
    let key = ReportKey {
        pipeline: *pipeline,
        seed: SEED,
        subject,
    };
    let planted = store
        .try_lease_report(&key, Duration::from_secs(3600))
        .expect("lease io")
        .expect("first claim wins");
    assert!(!planted.was_stolen(), "fresh claim on an empty store");
    std::mem::forget(planted);
    assert_eq!(lease_files(&dir).len(), 1, "the dangling claim is on disk");

    // The surviving worker: a tiny horizon makes the dangling claim go
    // stale almost immediately; the sweep must steal it, redo the
    // unit, and finish every unit.
    let summary = grid::sweep(&grid, &store, Duration::from_millis(100));
    assert_eq!(summary.units, units.len());
    assert!(
        summary.stolen >= 1,
        "the dangling claim must be stolen, not waited out: {summary:?}"
    );
    assert_eq!(summary.already_done, 0, "{summary:?}");
    assert_eq!(
        summary.computed,
        units.len(),
        "the survivor computes the whole grid: {summary:?}"
    );
    assert!(
        lease_files(&dir).is_empty(),
        "every claim (including the stolen one) is released"
    );

    // The records the stolen unit's redo wrote — and everything else —
    // merge bit-identically to the single-process reference.
    let merged = grid::decode(&grid, &[&store]).expect("grid is complete");
    assert_bit_identical(&merged, &reference, "elastic merged vs single-process");

    // Re-running a worker over the finished store is a no-op: records
    // are the ground truth of doneness.
    let again = grid::sweep(&grid, &store, Duration::from_millis(100));
    assert_eq!(again.already_done, units.len(), "{again:?}");
    assert_eq!(again.computed, 0, "{again:?}");
    assert_eq!(again.stolen, 0, "{again:?}");
    assert_eq!(again.rounds, 1, "{again:?}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A worker claims at most one unit per worker thread at a time: a
/// claim nobody computes yet would only keep a peer from taking it. The
/// check runs inside `compute`, while the batch's claims are held.
#[test]
fn a_worker_holds_at_most_one_claim_per_thread() {
    let dir = scratch("batch");
    let store = Store::open(&dir).expect("store opens");
    let units: Vec<WorkUnit> = (0..6)
        .map(|i| WorkUnit {
            label: format!("unit/{i}"),
            outputs: vec![(format!("unit/{i}"), 1)],
        })
        .collect();
    let most_held = AtomicUsize::new(0);
    let summary = run_elastic(&store, "batch", &units, Duration::from_secs(3600), |i| {
        most_held.fetch_max(lease_files(&dir).len(), Ordering::SeqCst);
        let (subject, pipeline) = &units[i].outputs[0];
        store
            .put_report(&StoredReport {
                spec: String::new(),
                pipeline: *pipeline,
                seed: SEED,
                subject: subject.clone(),
                total_micros: 0,
                passes: Vec::new(),
                metrics: vec![("unit".into(), i as f64)],
            })
            .expect("persist");
    });
    assert_eq!(summary.computed, units.len(), "{summary:?}");
    let held = most_held.into_inner();
    assert!(
        (1..=khaos_par::max_threads()).contains(&held),
        "held {held} claims with {} worker thread(s)",
        khaos_par::max_threads()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
