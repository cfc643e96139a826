//! # khaos-obs — unified tracing, metrics, and self-profiling
//!
//! A dependency-free observability substrate for the whole workspace
//! (offline-shim discipline, like `khaos-par`): every layer — build
//! pipelines, the three-tier embedding cache, the artifact store, the
//! IVF index, and the TCP daemon — reports health through one shared
//! registry and one shared timeline instead of scattered ad-hoc
//! structs.
//!
//! The crate has three parts (plus [`cli`], the process behaviour its
//! command-line tools share):
//!
//! * [`metrics`] — a process-wide [`metrics::Registry`] of named
//!   atomic [`metrics::Counter`]s, [`metrics::Gauge`]s, and
//!   fixed-bucket log-scale [`metrics::Histogram`]s with
//!   p50/p95/p99 snapshots. Layers pre-resolve their handles once
//!   (an `Arc` per metric) and update them with relaxed atomics, so
//!   counting is a handful of nanoseconds per event. `KHAOS_METRICS`
//!   selects an end-of-run dump target (see
//!   [`metrics::maybe_dump`]).
//! * [`trace`] — a span-based tracer: scoped RAII [`trace::SpanGuard`]s
//!   form a per-thread parent/child tree (cross-thread edges are
//!   linked explicitly, e.g. daemon request → dispatcher), stamped
//!   with `khaos-par` worker lane ids, and exported as Chrome
//!   trace-event JSONL when `KHAOS_TRACE=path` is set. When unset the
//!   whole tracer collapses to a single relaxed atomic load per
//!   span — the disabled path's overhead is bench-gated (see the
//!   `obs` section of `BENCH_similarity.json`).
//! * [`timer`] — the one blessed stopwatch: [`timer::Stopwatch`],
//!   [`timer::time`], and [`timer::best_of_ns`] subsume the
//!   hand-rolled timing idioms that used to live in `khaos-pass`
//!   (`PassReport`), `bench_similarity`, and the serve dispatcher.
//!
//! ## The standing invariant: observability never changes ranked bits
//!
//! Instrumentation is *pure observation*: counters, spans, and timers
//! may never influence any value on a ranked path. Tier-1 must pass
//! bit-identical with tracing on and off (CI's `obs` job runs the
//! suite both ways and diffs the output), exactly like the workspace's
//! thread-count and SIMD-dispatch invariance guarantees.
//!
//! ## Coordination telemetry
//!
//! The elastic grid coordinator reports through the same registry:
//! `store.lease.acquired` / `store.lease.stolen` /
//! `store.lease.contended` count cell-lease claims, stale-lease
//! steals, and claims lost to a live peer, and `store.merge.copied` /
//! `store.merge.skipped` count records a write-side `khaos-store
//! merge` moved vs found already present (the store's `store:merge`
//! span covers the verify-then-copy pass). A fleet-wide sweep's
//! health is readable from these five numbers: `stolen` > 0 means a
//! worker died (its units were redone), `contended` rising means
//! workers are racing over too-few open units near the end of a grid.
//!
//! ## Environment surface
//!
//! | variable        | effect |
//! |-----------------|--------|
//! | `KHAOS_TRACE`   | `path` — append Chrome trace-event JSONL there; `1`/`true` — default path `khaos-trace.jsonl`; unset/empty/`0` — tracing disabled |
//! | `KHAOS_METRICS` | `stderr`/`1` — dump the global registry to stderr via [`metrics::maybe_dump`]; `path` — append the dump there; unset — no dump |
//!
//! The exported JSONL (one complete `"ph":"X"` event per line) is
//! rendered into a text flamegraph / summary table by the
//! `khaos-profile` bin, and wraps trivially into the JSON array form
//! `chrome://tracing` loads.

pub mod cli;
pub mod metrics;
pub mod timer;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricValue, Registry};
pub use timer::Stopwatch;
pub use trace::{span, span_child_of, span_with, SpanGuard};
