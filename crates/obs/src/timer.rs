//! The workspace's one blessed stopwatch.
//!
//! The `PassReport` stopwatch in `khaos-pass` and the timing in
//! `bench_similarity` both route through here, so "how we measure" is
//! defined once: monotonic [`std::time::Instant`], nanosecond reads,
//! and best-of-N for benchmark repeatability.

use std::time::{Duration, Instant};

/// A started monotonic stopwatch.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Time elapsed since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX` (584 years).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Restarts the stopwatch, returning the time elapsed before the
    /// restart (lap timing).
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now - self.start;
        self.start = now;
        lap
    }
}

/// Runs `f` once and returns `(elapsed, result)`.
pub fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let sw = Stopwatch::start();
    let out = f();
    (sw.elapsed(), out)
}

/// Runs `f` once and returns `(elapsed nanoseconds, result)`.
pub fn time_ns<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let sw = Stopwatch::start();
    let out = f();
    (sw.elapsed_ns(), out)
}

/// Runs `f` `rounds` times and returns the **minimum** wall-clock
/// nanoseconds over the rounds plus the last result — the benchmark
/// idiom: the minimum is the least-noisy estimate of a deterministic
/// workload's cost. `rounds` is clamped to at least 1.
pub fn best_of_ns<R>(rounds: u32, mut f: impl FnMut() -> R) -> (f64, R) {
    let rounds = rounds.max(1);
    let (mut best, mut last) = time_ns(&mut f);
    for _ in 1..rounds {
        let (ns, out) = time_ns(&mut f);
        best = best.min(ns);
        last = out;
    }
    (best as f64, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_advances_and_laps() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let lap = sw.lap();
        assert!(lap >= Duration::from_millis(2), "{lap:?}");
        assert!(sw.elapsed() < lap, "lap must restart the clock");
        assert!(sw.elapsed_ns() > 0, "monotonic reads advance");
    }

    #[test]
    fn time_returns_result_and_elapsed() {
        let (dt, v) = time(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(dt >= Duration::ZERO);
        let (ns, v) = time_ns(|| "x");
        assert_eq!(v, "x");
        assert!(ns < u64::MAX);
    }

    #[test]
    fn best_of_is_min_over_rounds() {
        let mut calls = 0u32;
        let (best, last) = best_of_ns(5, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 5);
        assert_eq!(last, 5, "last round's result comes back");
        assert!(best >= 0.0);
        // Zero rounds clamps to one.
        let (_, one) = best_of_ns(0, || 1);
        assert_eq!(one, 1);
    }
}
