//! Process-wide metrics: named atomic counters, gauges, and
//! fixed-bucket log-scale latency histograms.
//!
//! A [`Registry`] maps names to metric handles. The process-wide
//! default is [`Registry::global`]; code that must not share state
//! with the rest of the process (a test asserting exact counts)
//! creates its own [`Registry::new`] — the handles and snapshot
//! machinery are identical.
//!
//! Handles are `Arc`s: resolve once (a mutex-guarded map lookup),
//! then update forever with relaxed atomics. All updates are
//! wait-free; [`Registry::snapshot`] is only *approximately*
//! consistent while writers are live (count/sum/buckets are separate
//! atomics), and exactly consistent once writers have quiesced —
//! which is what the tests pin.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed level (queue depths, cache entry counts).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: 16 exact unit buckets for values
/// `0..=15`, then four sub-buckets per power of two ("quarter
/// octaves") up to `u64::MAX`.
pub const NUM_BUCKETS: usize = 256;

/// Maps a recorded value to its bucket index.
///
/// * `0..=15` map to buckets `0..=15` exactly;
/// * `v >= 16` with `e = floor(log2 v)` lands in
///   `16 + 4·(e−4) + sub` where `sub` is the two bits below the
///   leading one — a fixed log-scale layout with ≤ 12.5% relative
///   bucket width, so p50/p95/p99 read from bucket upper bounds are
///   conservative by at most one eighth.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize; // e >= 4
    let sub = ((v >> (e - 2)) & 3) as usize;
    16 + (e - 4) * 4 + sub
}

/// The inclusive `(lower, upper)` value range of bucket `idx`.
///
/// # Panics
/// Panics when `idx >= NUM_BUCKETS`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < NUM_BUCKETS, "bucket {idx} out of range");
    if idx < 16 {
        return (idx as u64, idx as u64);
    }
    let g = idx - 16;
    let e = 4 + g / 4;
    let sub = (g % 4) as u64;
    let quarter = 1u64 << (e - 2);
    let lo = (1u64 << e) + sub * quarter;
    (lo, lo + (quarter - 1))
}

/// A fixed-bucket log-scale histogram of `u64` samples (latencies in
/// nanoseconds, shortlist sizes, …). Recording is one relaxed
/// `fetch_add` per atomic touched; quantiles are estimated from
/// bucket upper bounds, so they are deterministic and conservative
/// (never an under-estimate by more than the ≤ 12.5% bucket width).
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); NUM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(f, "Histogram({s:?})")
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records the wall-clock nanoseconds `f` takes, returning its
    /// result.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let sw = crate::timer::Stopwatch::start();
        let out = f();
        self.record(sw.elapsed_ns());
        out
    }

    /// A point-in-time digest (see the module note on consistency:
    /// exact once writers quiesce).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-quantile sample, 1-based, at least 1.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_bounds(i).1;
                }
            }
            bucket_bounds(NUM_BUCKETS - 1).1
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// The digest [`Histogram::snapshot`] returns; quantiles are bucket
/// upper bounds (conservative, deterministic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: u64,
    /// Largest sample recorded (exact, not bucketed).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One registered metric, by kind.
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A snapshot value, by kind — what [`Registry::snapshot`] yields and
/// what [`maybe_dump`] prints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current level.
    Gauge(i64),
    /// A histogram's digest.
    Histogram(HistogramSnapshot),
}

/// A named collection of metrics. Names sort lexicographically in
/// snapshots, so renderings are deterministic.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry (for per-component isolation; most callers
    /// want [`Registry::global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide default registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different kind —
    /// that is a programming error, and silently returning a fresh
    /// handle would fork the metric.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, created on first use (panics on kind
    /// mismatch, like [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, created on first use (panics on
    /// kind mismatch, like [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::default()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// All metrics, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let map = self.inner.lock().expect("metrics registry poisoned");
        map.iter()
            .map(|(name, m)| {
                let value = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// A deterministic text rendering of [`Registry::snapshot`], one
    /// metric per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(v) => out.push_str(&format!("{name} counter {v}\n")),
                MetricValue::Gauge(v) => out.push_str(&format!("{name} gauge {v}\n")),
                MetricValue::Histogram(h) => out.push_str(&format!(
                    "{name} histogram count={} sum={} mean={:.1} p50={} p95={} p99={} max={}\n",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.p50,
                    h.p95,
                    h.p99,
                    h.max
                )),
            }
        }
        out
    }
}

/// Dumps [`Registry::global`] according to `KHAOS_METRICS`: unset or
/// empty — nothing; `1`, `true`, or `stderr` — write the text
/// rendering to stderr; anything else — append it to that path.
/// Binaries call this at orderly exit points; errors are reported to
/// stderr and swallowed (a metrics dump must never fail a run).
pub fn maybe_dump() {
    let target = match std::env::var("KHAOS_METRICS") {
        Ok(v) if !v.trim().is_empty() => v,
        _ => return,
    };
    let text = Registry::global().render_text();
    match target.trim() {
        "1" | "true" | "stderr" => eprint!("{text}"),
        path => {
            let res = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(text.as_bytes()));
            if let Err(e) = res {
                eprintln!("khaos-obs: cannot dump metrics to `{path}`: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_count() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("c").get(), 5, "same handle by name");
        let g = r.gauge("g");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn bucket_layout_is_exhaustive_and_monotonic() {
        // Every index round-trips through its bounds, bounds tile the
        // u64 line with no gap or overlap.
        let mut expected_lo = 0u64;
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(
                lo,
                expected_lo,
                "bucket {idx} starts where {} ended",
                idx.wrapping_sub(1)
            );
            assert!(hi >= lo);
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "last bucket must end at u64::MAX");
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn histogram_snapshot_digest() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        // Quantiles are conservative bucket upper bounds: within one
        // bucket width (≤ 12.5%) above the true quantile.
        assert!(s.p50 >= 50 && s.p50 <= 57, "p50={}", s.p50);
        assert!(s.p95 >= 95 && s.p95 <= 108, "p95={}", s.p95);
        assert!(s.p99 >= 99 && s.p99 <= 112, "p99={}", s.p99);
    }

    #[test]
    fn render_text_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter("z.last").add(2);
        r.counter("a.first").inc();
        r.histogram("m.hist").record(3);
        let text = r.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a.first counter 1");
        assert_eq!(
            lines[1],
            "m.hist histogram count=1 sum=3 mean=3.0 p50=3 p95=3 p99=3 max=3"
        );
        assert_eq!(lines[2], "z.last counter 2");
    }
}
