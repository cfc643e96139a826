//! khaos-obs battery: histogram bucket boundaries, snapshot exactness
//! under concurrent `khaos-par` writers, and span-tree well-formedness
//! over fuzzed nesting programs.

use khaos_obs::metrics::{bucket_bounds, bucket_index, Histogram, NUM_BUCKETS};
use khaos_obs::{trace, Registry};
use proptest::prelude::*;
use std::sync::Mutex;

/// Tracer state is process-global; tests that install a sink
/// serialize here (and the file keeps one tracer test per `#[test]`
/// anyway — this guards against future additions racing).
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic value stream for fuzz-style tests (the proptest shim
/// has no `vec` strategy, so sequences derive from sampled seeds).
fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Every value lands in a bucket whose bounds contain it, and the
    /// log-scale buckets stay within 25% relative width (quarter
    /// octaves: width = 2^(e-2), lower bound ≥ 2^e).
    #[test]
    fn bucket_contains_value_and_width_is_bounded(v in any::<u64>()) {
        let idx = bucket_index(v);
        prop_assert!(idx < NUM_BUCKETS);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v && v <= hi, "{v} outside bucket {idx} = [{lo}, {hi}]");
        if v >= 16 {
            prop_assert!(
                (hi - lo) as f64 <= 0.25 * lo as f64,
                "bucket {idx} = [{lo}, {hi}] wider than a quarter octave"
            );
        } else {
            prop_assert_eq!((lo, hi), (v, v), "values below 16 bucket exactly");
        }
    }

    /// A reported quantile is exactly the upper bound of the bucket
    /// holding the true rank-order sample: deterministic, and never
    /// below the true quantile.
    #[test]
    fn quantiles_are_bucket_upper_bounds_of_true_ranks(seed in any::<u64>(), n in 1u64..300) {
        let h = Histogram::default();
        let mut values: Vec<u64> = (0..n)
            // Spread across the full log scale: shift by a derived
            // amount so small and huge samples mix in one histogram.
            .map(|i| mix(seed, i) >> (mix(seed, i ^ 0xABCD) % 64))
            .collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let s = h.snapshot();
        prop_assert_eq!(s.count, n);
        prop_assert_eq!(s.max, *values.last().unwrap(), "max is exact, not bucketed");
        for (q, got) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let truth = values[rank as usize - 1];
            let want = bucket_bounds(bucket_index(truth)).1;
            prop_assert_eq!(got, want, "q={} rank={} truth={}", q, rank, truth);
            prop_assert!(got >= truth, "quantile under-reports: {got} < {truth}");
        }
    }
}

/// After concurrent `khaos-par` writers quiesce, the snapshot is
/// exact: count, sum, max, and bucket totals all agree with the
/// recorded samples, at any `KHAOS_THREADS`.
#[test]
fn snapshot_is_exact_after_concurrent_writers() {
    let r = Registry::new();
    let h = r.histogram("t.lat");
    let c = r.counter("t.events");
    const N: usize = 4096;
    khaos_par::par_map(N, |i| {
        // Every worker records through clones of the same handles.
        h.record(i as u64);
        c.inc();
    });
    assert_eq!(c.get(), N as u64);
    let s = h.snapshot();
    assert_eq!(s.count, N as u64);
    assert_eq!(s.sum, (N as u64 - 1) * N as u64 / 2);
    assert_eq!(s.max, N as u64 - 1);
    // The quantile estimates bound the true order statistics from
    // above by construction (samples here are 0..N, so the true
    // quantiles are known exactly).
    assert!(s.p50 >= (N / 2) as u64 - 1 && s.p50 <= (N as u64) * 5 / 8);
    // And a second snapshot with no writers in between is identical.
    assert_eq!(h.snapshot(), s, "snapshot must be stable once quiesced");
}

/// One parsed trace event (just the fields the tree checks need).
#[derive(Debug)]
struct Ev {
    id: u64,
    parent: u64,
    ts: f64,
    dur: f64,
}

fn field_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
    line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

fn field_f64(line: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
    line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect::<String>()
        .parse()
        .unwrap()
}

fn parse_events(text: &str) -> Vec<Ev> {
    text.lines()
        .map(|line| {
            assert!(
                line.contains("\"ph\":\"X\""),
                "not a complete event: {line}"
            );
            Ev {
                id: field_u64(line, "id"),
                parent: field_u64(line, "parent"),
                ts: field_f64(line, "ts"),
                dur: field_f64(line, "dur"),
            }
        })
        .collect()
}

/// Timestamps print at nanosecond resolution (µs with 3 decimals);
/// containment checks allow one rounding step per endpoint.
const ROUND_SLACK_US: f64 = 0.002;

fn assert_well_formed(events: &[Ev]) {
    let mut ids = std::collections::BTreeMap::new();
    for e in events {
        assert!(e.id != 0, "span ids are never zero");
        assert!(ids.insert(e.id, e).is_none(), "duplicate span id {}", e.id);
    }
    for e in events {
        if e.parent == 0 {
            continue;
        }
        let p = ids
            .get(&e.parent)
            .unwrap_or_else(|| panic!("span {} has unknown parent {}", e.id, e.parent));
        assert!(
            e.ts >= p.ts - ROUND_SLACK_US && e.ts + e.dur <= p.ts + p.dur + ROUND_SLACK_US,
            "child {} [{:.3}, {:.3}] escapes parent {} [{:.3}, {:.3}]",
            e.id,
            e.ts,
            e.ts + e.dur,
            p.id,
            p.ts,
            p.ts + p.dur,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Fuzzed nesting programs always export a well-formed span tree:
    /// unique non-zero ids, every parent resolves, child intervals
    /// nest inside their parents. Programs mix plain nesting and lazily
    /// named spans.
    #[test]
    fn fuzzed_span_programs_export_well_formed_trees(seed in any::<u64>(), steps in 1u64..60) {
        let _g = TRACE_LOCK.lock().unwrap();
        let was = trace::enabled();
        let path = std::env::temp_dir().join(format!(
            "khaos-obs-tree-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        trace::install(&path).expect("install trace sink");

        let mut open: Vec<khaos_obs::SpanGuard> = Vec::new();
        let mut created = 0u64;
        for i in 0..steps {
            let r = mix(seed, i);
            match r % 3 {
                // Push: two flavors of span creation.
                0 => open.push(khaos_obs::span("fixed")),
                1 => open.push(khaos_obs::span_with(|| format!("dyn-{i}"))),
                // Pop innermost (LIFO — the natural scoping).
                _ => {
                    open.pop();
                    continue;
                }
            }
            created += 1;
        }
        // Close everything, innermost first.
        while open.pop().is_some() {}
        trace::set_enabled(was);

        let text = std::fs::read_to_string(&path).expect("trace file");
        let events = parse_events(&text);
        prop_assert_eq!(events.len() as u64, created, "one event per span:\n{}", text);
        assert_well_formed(&events);
        let _ = std::fs::remove_file(&path);
    }
}
