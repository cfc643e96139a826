//! The elastic coordinator: an experiment grid as a persistent work
//! queue with unit-level leases in `khaos-store`.
//!
//! Any number of workers, on any machines that share a store
//! directory, run the same loop over the same grid; the queue lives
//! *in the shared store itself*, so nothing partitions the grid up
//! front and the sweep finishes when the last unit does, whoever
//! computes it:
//!
//! - Every grid flattens into [`WorkUnit`]s (see [`crate::grid`]: one
//!   per program). A unit is **done** when all of its output report
//!   records exist in the store; the records are the ground truth, not
//!   any scheduler state.
//! - A worker claims an open unit by creating the claim file of the
//!   unit's first output (`rep/<addr>.lease`, atomic `O_EXCL` — see
//!   [`Store::try_lease_report`]) next to where the unit's records
//!   will land. Claim files are invisible to `stats`/`verify`/`gc`
//!   and never travel through `merge`.
//! - A worker that dies mid-unit leaves a dangling claim. Once the
//!   claim's age passes the **lease horizon** any other worker steals
//!   it — the same rename-verify-delete primitive that arbitrates the
//!   `gc.lock` steal, so two stealers can never both win — and redoes
//!   the unit. Every cell is a deterministic function of
//!   `(program, config, seed)`, so a redo (or even a double-compute
//!   when a horizon is set shorter than a live worker's build) writes
//!   byte-identical records: correctness never depends on the lease,
//!   only wasted work does.
//! - Adding a machine mid-run just works: point it at the same store
//!   and it claims whatever is still open.
//!
//! The loop exits only when every unit's records exist, no matter who
//! computed them — so any number of concurrent workers, each running
//! this same loop, converge on one complete, bit-identical grid.

use crate::harness::{par_fan_out, SEED};
use khaos_store::{Lease, ReportKey, Store};
use std::time::Duration;

/// How long an idle worker sleeps between scans when every open unit
/// is leased by someone else (waiting for their records to land or
/// their leases to go stale).
const POLL: Duration = Duration::from_millis(50);

/// One claimable unit of grid work: the grain of the work queue.
///
/// A unit covers one program's baseline and every cell built from it,
/// so the lease is taken on the first output cell while doneness
/// checks every output cell.
pub struct WorkUnit {
    /// Display name for steal/abort diagnostics, and the needle
    /// `KHAOS_COORD_ABORT_ON` is matched against.
    pub label: String,
    /// `(subject, pipeline)` of every report record the unit
    /// persists; the unit is done when all of them exist. The first
    /// one's claim file leases the whole unit.
    pub outputs: Vec<(String, u64)>,
}

/// What one worker's [`run_elastic`] loop did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ElasticSummary {
    /// Total units in the grid.
    pub units: usize,
    /// Units this worker computed (including re-computes of stolen
    /// stragglers).
    pub computed: usize,
    /// Units whose records already existed when this worker first
    /// scanned the grid (a resumed or partially-complete sweep).
    pub already_done: usize,
    /// Stale claims stolen from presumed-dead workers.
    pub stolen: usize,
    /// Scan rounds the loop ran.
    pub rounds: usize,
}

fn unit_done(store: &Store, unit: &WorkUnit) -> bool {
    unit.outputs.iter().all(|(subject, pipeline)| {
        matches!(
            store.get_report(&ReportKey {
                pipeline: *pipeline,
                seed: SEED,
                subject,
            }),
            Ok(Some(_))
        )
    })
}

/// Runs one worker's share of an elastic sweep: claim open units,
/// compute them (`compute(i)` must persist every `units[i].outputs`
/// record into `store`), release, repeat until the whole grid's
/// records exist. Blocks while other live workers hold the remaining
/// units, re-stealing their claims once they are older than `horizon`
/// (the experiments use [`Store::lease_horizon`], `KHAOS_LEASE_MS`).
///
/// Claims are taken at most a batch at a time, one per worker thread
/// ([`khaos_par::max_threads`]): a claim nobody is computing yet would
/// only keep a peer from taking it.
///
/// ## Deterministic failure injection
///
/// When `KHAOS_COORD_ABORT_ON` is set, the worker calls
/// [`std::process::abort`] immediately after claiming the first unit
/// whose label contains the value — skipping every `Drop`, so the
/// claim file dangles exactly as a SIGKILLed worker's would. The CI
/// work-stealing smoke uses this to kill a worker at a precise cell
/// instead of racing a timed `kill`.
///
/// # Panics
/// Panics when a computed unit's records are still absent on the
/// post-batch check — the store is misconfigured (e.g. read-only) and
/// looping would re-compute the unit forever.
pub fn run_elastic<F>(
    store: &Store,
    what: &str,
    units: &[WorkUnit],
    horizon: Duration,
    compute: F,
) -> ElasticSummary
where
    F: Fn(usize) + Sync,
{
    let batch_cap = khaos_par::max_threads();
    let abort_on = std::env::var("KHAOS_COORD_ABORT_ON")
        .ok()
        .filter(|s| !s.is_empty());
    let mut summary = ElasticSummary {
        units: units.len(),
        ..Default::default()
    };
    let mut first_scan = true;
    loop {
        summary.rounds += 1;
        let mut open = Vec::new();
        for (i, unit) in units.iter().enumerate() {
            if unit_done(store, unit) {
                if first_scan {
                    summary.already_done += 1;
                }
            } else {
                open.push(i);
            }
        }
        first_scan = false;
        if open.is_empty() {
            break;
        }
        let mut claimed: Vec<(usize, Lease)> = Vec::new();
        for &i in &open {
            if claimed.len() >= batch_cap {
                break;
            }
            let unit = &units[i];
            let (subject, pipeline) = &unit.outputs[0];
            let key = ReportKey {
                pipeline: *pipeline,
                seed: SEED,
                subject,
            };
            match store.try_lease_report(&key, horizon) {
                Ok(Some(lease)) => {
                    if lease.was_stolen() {
                        summary.stolen += 1;
                        eprintln!(
                            "# elastic {what}: stole stale lease for {} \
                             (holder presumed dead; redoing the unit)",
                            unit.label
                        );
                    }
                    if let Some(needle) = &abort_on {
                        if unit.label.contains(needle.as_str()) {
                            eprintln!(
                                "# elastic {what}: KHAOS_COORD_ABORT_ON={needle} matched \
                                 {} — aborting with the claim held",
                                unit.label
                            );
                            std::process::abort();
                        }
                    }
                    claimed.push((i, lease));
                }
                // Leased by a live peer: skip, it (or its stealer)
                // will produce the records.
                Ok(None) => {}
                Err(e) => eprintln!("# elastic {what}: cannot lease {}: {e}", unit.label),
            }
        }
        if claimed.is_empty() {
            // Every open unit is claimed elsewhere — wait for records
            // to land, or for a straggler's lease to cross the
            // horizon and become stealable next round.
            std::thread::sleep(POLL);
            continue;
        }
        par_fan_out(&claimed, |(i, _lease)| compute(*i));
        for (i, _) in &claimed {
            assert!(
                unit_done(store, &units[*i]),
                "elastic {what}: computed {} but its records are absent from {} — \
                 persistence is failing (read-only store?), refusing to loop forever",
                units[*i].label,
                store.root().display()
            );
        }
        summary.computed += claimed.len();
        // Dropping the batch's leases deletes the claim files — only
        // now, after the records they cover are durable.
        drop(claimed);
    }
    summary
}
