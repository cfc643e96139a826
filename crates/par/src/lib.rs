//! # khaos-par — scoped-thread data parallelism
//!
//! A small, dependency-free rayon stand-in for the offline build
//! environment. Work is fanned out over `std::thread::scope` with
//! dynamic block scheduling (an atomic cursor over fixed-size index
//! blocks), so uneven task costs — obfuscating a `gcc`-sized module vs
//! a `cat`-sized one — still balance across cores.
//!
//! * [`par_map`] / [`par_map_slice`] — order-preserving parallel maps;
//! * [`par_map_with`] — an order-preserving parallel map with one
//!   reusable scratch value per worker (the streaming rank path's
//!   per-row similarity buffer);
//! * [`par_chunks_mut`] — parallel in-place fill of disjoint chunks of
//!   a flat buffer (the similarity-matrix row loop);
//! * [`max_threads`] — the worker count, overridable with the
//!   `KHAOS_THREADS` environment variable (`KHAOS_THREADS=1` forces
//!   fully sequential execution, useful for profiling and debugging).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set while this thread is a khaos-par worker: nested `par_*`
    /// calls then run sequentially instead of spawning another full
    /// complement of threads (which would oversubscribe to ~cores²
    /// when an experiment fan-out reaches the engine's parallel
    /// matrix rows). Carries the worker's lane index within its
    /// fan-out so observability layers (`khaos-obs`) can attribute
    /// spans to a stable worker lane.
    static WORKER_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// True on threads spawned by this crate's parallel helpers. Nested
/// parallel calls detect this and degrade to sequential execution, so
/// total concurrency stays at one level of [`max_threads`].
pub fn is_worker_thread() -> bool {
    WORKER_ID.with(Cell::get).is_some()
}

/// The calling thread's worker lane index within the current fan-out
/// (`0..threads`), or `None` off the worker pool. Lane indices are
/// reused across successive fan-outs — they identify a *lane*, not a
/// task — which is exactly what trace timelines want: work scheduled
/// on lane `k` of any `par_*` call shows up on one timeline row.
pub fn worker_id() -> Option<usize> {
    WORKER_ID.with(Cell::get)
}

/// Runs `f` with this thread marked as worker lane `id`.
fn as_worker<T>(id: usize, f: impl FnOnce() -> T) -> T {
    WORKER_ID.with(|w| w.set(Some(id)));
    let out = f();
    WORKER_ID.with(|w| w.set(None));
    out
}

/// Parses a `KHAOS_THREADS` override: trimmed integer, clamped to at
/// least one worker. `None` when the value does not parse (the caller
/// falls back to the machine's parallelism).
fn parse_thread_override(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Warns — once per process — that a `KHAOS_THREADS` value was ignored.
/// A silently ignored override is worse than no override: a profiling
/// run the user believes is single-threaded would quietly fan out.
fn warn_bad_thread_override(raw: &str) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "khaos-par: ignoring unparseable KHAOS_THREADS value `{raw}` \
             (want a positive integer); using available parallelism"
        );
    });
}

/// Number of worker threads to use: `KHAOS_THREADS` when set and
/// parseable (a bad value warns once and is ignored), otherwise the
/// machine's available parallelism.
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("KHAOS_THREADS") {
        match parse_thread_override(&v) {
            Some(n) => return n,
            None => warn_bad_thread_override(&v),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sequential-or-parallel decision: tiny workloads are not worth the
/// thread spawn overhead, and nested calls from inside a worker run
/// sequentially (see [`is_worker_thread`]).
fn effective_threads(n: usize) -> usize {
    if n < 2 || is_worker_thread() {
        return 1;
    }
    max_threads().min(n)
}

/// Parallel, order-preserving map over `0..n`.
///
/// Spawns scoped workers that claim fixed-size index blocks from an
/// atomic cursor; results are reassembled in index order. Falls back to
/// a plain loop when `n` is small or one thread is available.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    // Block size: ~4 blocks per worker bounds scheduling overhead while
    // keeping enough blocks for balance.
    let block = (n / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for w in 0..threads {
            let (cursor, done, f) = (&cursor, &done, &f);
            s.spawn(move || {
                as_worker(w, || loop {
                    let start = cursor.fetch_add(block, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + block).min(n);
                    let part: Vec<T> = (start..end).map(f).collect();
                    done.lock()
                        .expect("par_map worker panicked")
                        .push((start, part));
                })
            });
        }
    });
    let mut parts = done.into_inner().expect("par_map worker panicked");
    parts.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(n);
    for (_, part) in parts {
        out.extend(part);
    }
    debug_assert_eq!(out.len(), n);
    out
}

/// Parallel, order-preserving map over `0..n` with one reusable
/// scratch value per worker.
///
/// `init` builds each worker's scratch once; `f` receives it mutably
/// for every index the worker claims. The streaming rank path uses this
/// for its per-row similarity buffer: one `O(T)` allocation per worker
/// instead of one per query row. Results come back in index order, and
/// because `f(scratch, i)` must not let the scratch influence the
/// output value (it is scratch, not state), the result is identical to
/// the sequential map at any thread count.
pub fn par_map_with<S, T, I, F>(n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = effective_threads(n);
    if threads == 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    let block = (n / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for w in 0..threads {
            let (cursor, done, init, f) = (&cursor, &done, &init, &f);
            s.spawn(move || {
                as_worker(w, || {
                    let mut scratch = init();
                    loop {
                        let start = cursor.fetch_add(block, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + block).min(n);
                        let part: Vec<T> = (start..end).map(|i| f(&mut scratch, i)).collect();
                        done.lock()
                            .expect("par_map_with worker panicked")
                            .push((start, part));
                    }
                })
            });
        }
    });
    let mut parts = done.into_inner().expect("par_map_with worker panicked");
    parts.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(n);
    for (_, part) in parts {
        out.extend(part);
    }
    debug_assert_eq!(out.len(), n);
    out
}

/// Parallel, order-preserving map over a slice.
pub fn par_map_slice<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map(items.len(), |i| f(&items[i]))
}

/// Splits `data` into consecutive `chunk_len`-sized chunks and fills
/// them in parallel; `f` receives each chunk's index and contents.
///
/// This is the flat-matrix row loop: `data` is the `rows × chunk_len`
/// storage and chunk `i` is row `i`.
///
/// # Panics
/// Panics when `chunk_len` is zero.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = effective_threads(n_chunks);
    if threads == 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let chunks: Mutex<Vec<(usize, &mut [T])>> =
        Mutex::new(data.chunks_mut(chunk_len).enumerate().rev().collect());
    std::thread::scope(|s| {
        for w in 0..threads {
            let (chunks, f) = (&chunks, &f);
            s.spawn(move || {
                as_worker(w, || loop {
                    // Claim a batch of rows per lock acquisition.
                    let mut batch = Vec::new();
                    {
                        let mut q = chunks.lock().expect("par_chunks_mut worker panicked");
                        for _ in 0..4 {
                            match q.pop() {
                                Some(item) => batch.push(item),
                                None => break,
                            }
                        }
                    }
                    if batch.is_empty() {
                        break;
                    }
                    for (i, chunk) in batch {
                        f(i, chunk);
                    }
                })
            });
        }
    });
}

/// Runs two closures, potentially in parallel, and returns both results.
pub fn join<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if max_threads() == 1 || is_worker_thread() {
        return (fa(), fb());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(|| as_worker(0, fb));
        let a = fa();
        let b = hb.join().expect("join closure panicked");
        (a, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_parallelism_degrades_to_sequential() {
        assert!(!is_worker_thread(), "test thread is not a worker");
        // Inner par_map calls from inside workers must still produce
        // correct results — and must observe the worker flag so they
        // do not spawn a second level of threads.
        let outer = par_map(8, |i| {
            let inner = par_map(50, |j| i * 50 + j);
            let flag_seen = if max_threads() > 1 {
                is_worker_thread()
            } else {
                true
            };
            (inner.iter().sum::<usize>(), flag_seen)
        });
        for (i, (sum, flag_seen)) in outer.iter().enumerate() {
            let want: usize = (0..50).map(|j| i * 50 + j).sum();
            assert_eq!(*sum, want);
            assert!(flag_seen, "worker {i} did not see the nesting flag");
        }
        assert!(!is_worker_thread(), "flag must reset after the fan-out");
    }

    #[test]
    fn thread_override_parsing_and_fallback() {
        // Parseable values win (clamped to >= 1 worker).
        assert_eq!(parse_thread_override("8"), Some(8));
        assert_eq!(parse_thread_override("  4 "), Some(4));
        assert_eq!(parse_thread_override("0"), Some(1), "zero clamps to one");
        // Unparseable values are rejected — max_threads then falls back.
        for bad in ["", "eight", "-2", "3.5", "1x"] {
            assert_eq!(parse_thread_override(bad), None, "`{bad}`");
        }
        // The fallback path end-to-end: with an unparseable override in
        // the environment, max_threads must ignore it (warning once)
        // and report the machine's parallelism, never zero. Other tests
        // in this binary that race this env var at worst also take the
        // fallback, which is the default behaviour anyway.
        std::env::set_var("KHAOS_THREADS", "not-a-number");
        let fallback = max_threads();
        std::env::remove_var("KHAOS_THREADS");
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(fallback, machine, "bad override must fall back");
        assert!(fallback >= 1);
    }

    #[test]
    fn worker_ids_are_lane_indices() {
        assert_eq!(worker_id(), None, "non-worker threads have no lane");
        let threads = max_threads();
        let ids = par_map(256, |_| worker_id());
        for id in &ids {
            if threads > 1 {
                let lane = id.expect("parallel fan-out must run on workers");
                assert!(lane < threads.min(256), "lane {lane} out of range");
            } else {
                assert_eq!(*id, None, "sequential fallback stays off-pool");
            }
        }
        assert_eq!(worker_id(), None, "lane must reset after the fan-out");
    }

    #[test]
    fn par_map_preserves_order() {
        let v = par_map(1000, |i| i * 2);
        assert_eq!(v.len(), 1000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * 2);
        }
    }

    #[test]
    fn par_map_handles_edges() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_map_slice_matches_sequential() {
        let items: Vec<u64> = (0..313).collect();
        let got = par_map_slice(&items, |x| x * x);
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_chunks_mut_fills_rows() {
        let rows = 57;
        let cols = 13;
        let mut data = vec![0usize; rows * cols];
        par_chunks_mut(&mut data, cols, |i, chunk| {
            assert_eq!(chunk.len(), cols);
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = i * cols + j;
            }
        });
        for (k, x) in data.iter().enumerate() {
            assert_eq!(*x, k);
        }
    }

    #[test]
    fn par_chunks_mut_ragged_tail() {
        let mut data = vec![0u32; 10];
        par_chunks_mut(&mut data, 4, |i, chunk| {
            for x in chunk.iter_mut() {
                *x = i as u32 + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn par_map_with_matches_sequential_and_reuses_scratch() {
        // The scratch is a reusable buffer; the output must not depend
        // on what a previous index left in it.
        let got = par_map_with(513, Vec::<usize>::new, |scratch, i| {
            scratch.push(i); // deliberately dirty the scratch
            i * 3
        });
        let want: Vec<usize> = (0..513).map(|i| i * 3).collect();
        assert_eq!(got, want);
        assert_eq!(par_map_with(0, || (), |_, i| i), Vec::<usize>::new());
    }
}
