//! # perfbench — the repository benchmark
//!
//! One command (`python3 perfbench/run.py --workload W --seed N
//! --seconds S --trace 0|1`) runs one of three workloads and prints one
//! JSON result line: every end-to-end metric ([`END_TO_END`]) on an
//! untraced run, every per-layer metric ([`PER_LAYER`]) on a traced one.
//! Each workload also checks its outputs; failed checks count against
//! the checks attempted (`failed`/`attempted` in the result line, whose
//! ratio is the workload's fail rate).
//!
//! The benchmark adds no span or counter inside the program. It links
//! the workspace crates and times its own calls into each layer's
//! public functions; on a traced run it wraps each of those calls in a
//! `khaos_obs` span of its own.
//!
//! ## Workloads
//!
//! | name | why | what the seed selects |
//! |------|-----|-----------------------|
//! | [`repro`] `repro-quick` | the north-star command, `experiments --quick all`, exactly as users run it: a fresh child process per pass against a fresh empty store | nothing — the suites are fixed |
//! | [`grid`] `build-grid` | every build is distinct, so `workloads`/`pass`/`ir`/`binary`/`vm` are timed with nothing to reuse | a cost-balanced half of T-I ∪ T-II: one program of each pair of neighbours by cost |
//! | [`rank`] `rank-corpus` | no compilation in the timed phase, so `diff`/`index`/`store` do the work | the sample of corpus rows queried through the index |
//!
//! Each workload module documents its timed phase, its set-up, and
//! which end-to-end metric each of its layer metrics should move; the
//! same mapping is machine-readable in [`MetricDef::moves`] and printed
//! by `perfbench describe`.
//!
//! Every metric is printed on every workload. A per-layer metric a
//! workload does not exercise reads 0 there; end-to-end metrics are
//! defined on all three (see [`END_TO_END`] for each one's per-workload
//! unit of work).

pub mod grid;
pub mod rank;
pub mod repro;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Whether a larger or a smaller value of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (rates, ratios of useful work).
    Higher,
    /// Smaller is better (times, sizes).
    Lower,
}

/// One metric the benchmark prints.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit printed beside the value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// What the metric measures on each workload, and — for a layer
    /// metric — which end-to-end metric on which workload it should
    /// move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed on every untraced run of every workload.
/// An *item* is the workload's unit of work: one experiments target on
/// `repro-quick`, one measured build (build + lower + VM run + check)
/// on `build-grid`, one (pair × tool) cell through embedding and
/// ranking on `rank-corpus`. The timed phase runs in passes, one
/// thread (`KHAOS_THREADS=1`), and every metric is taken over the whole
/// timed phase rather than over one pass.
///
/// The times are *at the reference host speed*: the measured time
/// divided by the run's `host.slowdown` (see [`HostSpeed`]). On a
/// shared host the same code runs up to 1.6 times slower from one
/// minute to the next: on a 2-core x86-64 VM, ten runs of the same work
/// spread (quartile distance over median) by 15–30% in wall time and by
/// 5–16% at the reference speed.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, "median of several set-ups in one run, at the reference host speed: repro-quick child start-up to ready (fresh store, suites generated); build-grid suite generation + reference VM runs; rank-corpus fig10 grid + T-I/T-II baseline builds"),
    m("wall_s", "s", Lower, "wall time of the timed phase / passes in it, at the reference host speed"),
    m("cpu_s", "s", Lower, "process CPU time (all threads) of the timed phase / passes in it, at the reference host speed"),
    m("peak_rss_mb", "MB", Lower, "peak resident set of the measured process (the child on repro-quick)"),
    m("items_per_s", "1/s", Higher, "items / wall time of the timed phase, at the reference host speed: targets (repro-quick), measured builds (build-grid), pair x tool cells through embed + rank (rank-corpus, over the time of those two steps)"),
];

/// Per-layer metrics, printed on every traced run of every workload
/// (0 where the workload does not exercise the layer).
pub const PER_LAYER: &[MetricDef] = &[
    // Workload generation.
    m("workloads.generate_s", "s", Lower, "build-grid: suite generation -> setup_s"),
    m("workloads.functions", "count", Lower, "build-grid: functions in the drawn programs (input size, not a speed)"),
    // Optimizer, obfuscation passes and the verify/audit wrapper.
    m("pass.opt_s", "s", Lower, "optimizer pass time -> build-grid items_per_s/item_p50_ms, repro-quick wall_s/cpu_s; rank-corpus setup_s only"),
    m("pass.khaos_s", "s", Lower, "Khaos pass time -> build-grid items_per_s/item_p50_ms, repro-quick wall_s/cpu_s; rank-corpus setup_s only"),
    m("pass.ollvm_s", "s", Lower, "O-LLVM pass time -> build-grid items_per_s/item_p50_ms, repro-quick wall_s/cpu_s; rank-corpus setup_s only"),
    m("pass.runs", "count", Lower, "pipeline runs (build-grid/rank-corpus: reports returned; repro-quick: pipeline:* spans)"),
    m("pass.ir_insts_out", "count", Lower, "IR instructions out of every pipeline run (build-grid, rank-corpus setup)"),
    m("ir.verify_audit_s", "s", Lower, "pipeline total minus pass time (verify + audit) -> build-grid item_p50_ms, repro-quick wall_s"),
    m("pass.useful_build_ratio", "ratio", Higher, "repro-quick: distinct build reports in the store / pipeline:* runs -> wall_s (1.0 on build-grid by construction)"),
    // Lowering and the VM.
    m("binary.lower_s", "s", Lower, "build-grid: lower_module -> items_per_s/item_p50_ms; repro-quick wall_s"),
    m("vm.reference_s", "s", Lower, "build-grid: VM runs of the unoptimized sources (the differential reference) -> setup_s"),
    m("vm.run_s", "s", Lower, "build-grid: VM runs of the builds -> items_per_s/item_p50_ms; repro-quick wall_s"),
    m("vm.steps", "count", Lower, "build-grid: interpreter steps of the build runs (work count)"),
    // Diffing.
    m("diff.fingerprint_s", "s", Lower, "rank-corpus: Binary::fingerprint -> items_per_s"),
    m("diff.embed_s", "s", Lower, "rank-corpus: all embeddings (repro-quick: embed:* span self time) -> rank-corpus items_per_s, repro-quick wall_s"),
    m("diff.embed.BinDiff_s", "s", Lower, "diff.embed_s for BinDiff"),
    m("diff.embed.VulSeeker_s", "s", Lower, "diff.embed_s for VulSeeker"),
    m("diff.embed.Asm2Vec_s", "s", Lower, "diff.embed_s for Asm2Vec"),
    m("diff.embed.SAFE_s", "s", Lower, "diff.embed_s for SAFE"),
    m("diff.embed.DataFlowDiff_s", "s", Lower, "diff.embed_s for DataFlowDiff"),
    m("diff.escape_s", "s", Lower, "rank-corpus: escape_profile_with -> items_per_s/item_p50_ms; repro-quick wall_s"),
    m("diff.precision_s", "s", Lower, "rank-corpus: precision_at_1_with -> items_per_s/item_p50_ms; repro-quick wall_s"),
    m("diff.bindiff_s", "s", Lower, "rank-corpus: BinDiff binary_similarity_with -> items_per_s; repro-quick wall_s"),
    m("diff.useful_embed_ratio", "ratio", Higher, "repro-quick: distinct emb/ tables / table loads (computed + re-read from disk) -> wall_s"),
    // Corpus index.
    m("index.build_s", "s", Lower, "rank-corpus: IvfIndex::build -> wall_s"),
    m("index.query_s", "s", Lower, "rank-corpus: all IvfIndex::query calls -> index.queries_per_s/index.query_p50_us"),
    m("index.cells_probed_per_query", "count", Lower, "rank-corpus: cells scanned per query, (index.cells_probed - index.cells_skipped) / index.queries (registry) -> index.query_p50_us"),
    m("index.rerank_share", "ratio", Lower, "rank-corpus: index.rerank_scored / index.candidates_scanned (registry) -> index.query_p50_us"),
    m("index.queries_per_s", "1/s", Higher, "rank-corpus: closed-loop queries per second of query time"),
    m("index.query_p50_us", "us", Lower, "rank-corpus: median query latency"),
    m("index.query_tail_us", "us", Lower, "rank-corpus: highest percentile with >= 10 samples beyond it (see index.query_tail_pct)"),
    m("index.query_tail_pct", "pct", Higher, "rank-corpus: the percentile index.query_tail_us reports"),
    m("index.query_samples", "count", Higher, "rank-corpus: query latency samples in the run"),
    // Store.
    m("store.write_s", "s", Lower, "rank-corpus: put_embeddings -> wall_s"),
    m("store.read_s", "s", Lower, "rank-corpus: read-back through a cache attached to the store -> wall_s"),
    m("store.bytes_written", "bytes", Lower, "rank-corpus: bytes of one pass's store"),
    m("store.emb_bytes", "bytes", Lower, "repro-quick: emb/ bytes after one run -> wall_s"),
    m("store.mat_bytes", "bytes", Lower, "repro-quick: mat/ bytes after one run -> wall_s"),
    m("store.rep_records", "count", Lower, "repro-quick: rep/ records after one run -> wall_s"),
    // The experiments drivers.
    m("experiments.table1_s", "s", Lower, "repro-quick: table1 -> wall_s"),
    m("experiments.table2_s", "s", Lower, "repro-quick: table2 -> wall_s"),
    m("experiments.table3_s", "s", Lower, "repro-quick: table3 -> wall_s"),
    m("experiments.fig6_s", "s", Lower, "repro-quick: fig6 -> wall_s"),
    m("experiments.fig7_s", "s", Lower, "repro-quick: fig7 -> wall_s"),
    m("experiments.fig8_s", "s", Lower, "repro-quick: fig8 -> wall_s"),
    m("experiments.fig9_s", "s", Lower, "repro-quick: fig9 -> wall_s"),
    m("experiments.fig10_s", "s", Lower, "repro-quick: fig10 -> wall_s"),
    m("experiments.fig11_s", "s", Lower, "repro-quick: fig11 -> wall_s"),
    m("experiments.ablations_s", "s", Lower, "repro-quick: ablations -> wall_s"),
    m("experiments.ext-arity_s", "s", Lower, "repro-quick: ext-arity -> wall_s"),
    m("experiments.ext-dataflow_s", "s", Lower, "repro-quick: ext-dataflow -> wall_s"),
    m("experiments.ext-stripped_s", "s", Lower, "repro-quick: ext-stripped -> wall_s"),
    // Trace quality.
    m("trace.coverage", "ratio", Higher, "repro-quick: program span self time / child CPU"),
    m("trace.overhead_pct", "pct", Lower, "repro-quick: traced child wall against untraced child wall"),
    // Workload outputs that are not speeds.
    m("grid.obf_overhead_pct", "pct", Lower, "build-grid: geomean simulated-cycle overhead of the Khaos modes vs O2+lto (Fig. 6)"),
    m("grid.code_size_insts", "count", Lower, "build-grid: lowered instructions of the run's builds"),
    m("item_p50_ms", "ms", Lower, "median latency over every item of the timed phase: per measured build (build-grid), per pair x tool ranking cell (rank-corpus), per target (repro-quick: the 7th of 13 targets, so it jumps between targets from run to run)"),
    m("item_tail_ms", "ms", Lower, "highest percentile of item latency with >= 10 samples beyond it (see item_tail_pct)"),
    m("item_tail_pct", "pct", Higher, "the percentile item_tail_ms reports (0 when the run has < 11 items)"),
    m("item_samples", "count", Higher, "item latency samples in the run"),
    m("checks.fail_rate", "ratio", Lower, "failed checks / checks attempted"),
    m("host.slowdown", "ratio", Lower, "how many times slower than the reference the host ran during the run (HostSpeed); the end-to-end times were divided by it, and the per-layer times are as measured"),
];

/// The result of one benchmark run: checks plus named metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one check; a failure is counted and described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
        ok
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    /// Panics when `name` is not a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metric_def(name).is_some(), "undeclared metric `{name}`");
        self.values.insert(name, value);
    }

    /// Adds to metric `name` (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let v = self.values.get(name).copied().unwrap_or(0.0);
        self.set(name, v + value);
    }

    /// The value of metric `name`, when set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Sets the item tail metrics from latency samples (milliseconds).
    pub fn set_item_tail(&mut self, samples_ms: &[f64]) {
        let (v, pct) = tail(samples_ms).unwrap_or((0.0, 0.0));
        self.set("item_tail_ms", v);
        self.set("item_tail_pct", pct);
        self.set("item_samples", samples_ms.len() as f64);
    }

    /// The result line: the end-to-end metrics untraced, the per-layer
    /// metrics traced. Unset per-layer metrics read 0; non-finite
    /// values print as 0 so the line stays valid JSON.
    pub fn to_json(&self, trace: bool) -> String {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let mut v = self.values.get(d.name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                v = 0.0;
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            ));
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The definition of metric `name`, end-to-end or per-layer.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Per-layer busy time accumulated around the benchmark's own calls.
/// On a traced run each call is also wrapped in a `khaos_obs` span
/// named after the metric, so the trace shows the same layers.
#[derive(Debug, Default)]
pub struct Layers {
    secs: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Times `f` into layer metric `name` (seconds).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = khaos_obs::span(name);
        let start = Instant::now();
        let r = f();
        *self.secs.entry(name).or_default() += start.elapsed().as_secs_f64();
        r
    }

    /// Adds already-measured seconds to layer `name`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        *self.secs.entry(name).or_default() += secs;
    }

    /// Seconds accumulated in layer `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    /// Copies every layer total into `report`.
    pub fn into_report(self, report: &mut Report) {
        for (name, secs) in self.secs {
            report.add(name, secs);
        }
    }
}

/// Process CPU time (user + system, all threads) in seconds.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread in seconds.
fn thread_cpu_seconds() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// The reading of POSIX clock `clock` in seconds.
fn clock_seconds(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The calibration kernel: xorshift-indexed loads and stores over a
/// 64 KiB table with a data-dependent branch. It is the benchmark's own
/// code, so a change to the program cannot speed it up.
fn calibration_kernel(table: &mut [u32]) -> u32 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x9e37_79b9_u32, 0_u32);
    for i in 0..1 << 17 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let j = x as usize & mask;
        let v = table[j];
        acc = if v & 1 == 0 {
            acc.wrapping_add(v)
        } else {
            acc ^ v.rotate_left(7)
        };
        table[(j + i) & mask] = v.wrapping_mul(31).wrapping_add(acc);
    }
    std::hint::black_box(acc)
}

/// Thread-CPU seconds of one calibration kernel call at the reference
/// speed: a 2-core x86-64 VM at the fast end of its range.
pub const REFERENCE_KERNEL_S: f64 = 4.5e-4;

/// Pause between two calibration samples (about 2% of one core).
const SAMPLE_PERIOD: Duration = Duration::from_millis(20);

/// The host's speed, sampled while a run goes on.
///
/// A background thread calls a fixed calibration kernel every
/// [`SAMPLE_PERIOD`] and records the thread-CPU time each call took: a
/// time the kernel spent waiting to be scheduled is not counted, a time
/// it ran slower (other tenants on the same cores, frequency changes)
/// is. Measured beside runs of the workloads, the kernel's mean time
/// over a run follows most of the run's own slowdowns: dividing by it
/// cut the run-to-run spread of the same work by up to three times.
pub struct HostSpeed {
    samples: Arc<Mutex<(f64, u64)>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HostSpeed {
    /// Starts sampling.
    pub fn start() -> Self {
        let samples = Arc::new(Mutex::new((0.0, 0)));
        let stop = Arc::new(AtomicBool::new(false));
        let (sink, stopped) = (Arc::clone(&samples), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            let mut table: Vec<u32> = (0..1 << 14)
                .map(|i: u32| i.wrapping_mul(2_654_435_761))
                .collect();
            while !stopped.load(Ordering::Relaxed) {
                let start = thread_cpu_seconds();
                calibration_kernel(&mut table);
                let took = thread_cpu_seconds() - start;
                let mut s = sink.lock().expect("speed samples");
                s.0 += took;
                s.1 += 1;
                drop(s);
                std::thread::sleep(SAMPLE_PERIOD);
            }
        });
        HostSpeed {
            samples,
            stop,
            thread: Some(thread),
        }
    }

    /// How many times slower than the reference the host ran since
    /// [`HostSpeed::start`]: the mean kernel time against
    /// [`REFERENCE_KERNEL_S`]. Waits for the first sample.
    pub fn slowdown(&self) -> f64 {
        loop {
            let (total, n) = *self.samples.lock().expect("speed samples");
            if n > 0 {
                return total / n as f64 / REFERENCE_KERNEL_S;
            }
            std::thread::sleep(SAMPLE_PERIOD / 4);
        }
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` with at least ten samples beyond it:
/// `(value, percentile)`, or `None` with fewer than eleven samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 11 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let i = s.len() - 11;
    Some((s[i], 100.0 * (i + 1) as f64 / s.len() as f64))
}

/// SplitMix64: the benchmark's only source of seeded choices.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x6b68_616f_735f_6231)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Workload size: the real benchmark, or the seconds-long smoke used by
/// the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark as the result line reports it.
    Full,
    /// A tiny instance of the same code paths.
    Tiny,
}

/// A deliberately seeded fault, so tests can show the checks bite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No fault.
    None,
    /// `repro-quick` compares against a wrong golden digest.
    Golden,
    /// `build-grid` perturbs the reference output; `rank-corpus`
    /// perturbs one reference top-k list.
    Reference,
}

/// Arguments of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed phase should measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Seeded fault.
    pub fault: Fault,
    /// Directory for the run's working files, removed afterwards.
    pub work: PathBuf,
}

impl RunArgs {
    /// On a traced run, points the in-process tracer at a file in the
    /// work directory.
    pub fn install_trace(&self, name: &str) {
        if self.trace {
            khaos_obs::trace::install(&self.work.join(format!("{name}.trace.jsonl")))
                .expect("open trace sink");
        }
    }
}

/// A fresh, empty directory under `parent`.
pub fn fresh_dir(parent: &Path, name: &str) -> PathBuf {
    let d = parent.join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create work dir");
    d
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_eleventh_largest() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        SplitMix::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
