//! Runtime-dispatched SIMD dot-product kernels.
//!
//! Every §4.2 metric bottoms out in a dot product over normalized
//! embedding rows. This module replaces "hope the autovectorizer shows
//! up" with explicit `std::arch` kernels behind **one-time runtime
//! CPU-feature detection**, wasmtime-ISA-flag style:
//!
//! * [`dot`] — the single *checked* dispatch entry point for `f64`
//!   rows (the length `debug_assert` that used to be duplicated across
//!   `dot_scalar`/`dot_blocked` lives here, and those entry points now
//!   delegate to the same raw kernels).
//! * [`dot_rows`] — one query row against a packed block of rows:
//!   one table lookup, then the tier's own [`dot`] per row, so every
//!   output is that row's `dot` bit for bit. (A register tile feeding
//!   four rows from one query load was measured and left out: it did
//!   not move end-to-end ranking time.)
//! * [`dot_i8`] — its integer sibling for the quantized tier: an
//!   `i32`-accumulating `i8` dot with its own per-ISA kernels.
//! * [`KernelKind`] — `Scalar` (the 8-wide blocked kernel, always
//!   available), `Avx2`, `Avx512` — selected once per process via
//!   [`is_x86_feature_detected!`] and cached in a [`OnceLock`], with
//!   the **`KHAOS_SIMD={auto,scalar,avx2,avx512}`** environment
//!   variable overriding detection so every variant is testable on one
//!   host. An unknown or unavailable request warns once and falls back
//!   to `auto`.
//!
//! # Bit-exactness (and why there is no FMA here)
//!
//! The repo's standing invariant is that **ranked artifacts are
//! bit-identical** across thread counts, shard splits, cache tiers —
//! and now dispatch choices. Ranked artifacts carry raw score bits, so
//! the f64 kernels must agree *bitwise*, not just to 1e-12. Every
//! variant therefore computes the exact same reduction as the scalar
//! blocked kernel: eight independent accumulators fed by
//! round-after-multiply, round-after-add (`a*b` then `+=`, two IEEE
//! roundings), combined in the fixed tree
//! `((acc0+acc4)+(acc2+acc6)) + ((acc1+acc5)+(acc3+acc7)) + tail`,
//! with the tail accumulated sequentially in index order. AVX2 holds
//! `acc0..3`/`acc4..7` in two 4-lane registers, AVX-512 holds all
//! eight in one — same values, same rounding, same bits. A fused
//! multiply-add would skip the intermediate rounding and change the
//! low bits per-ISA, which is exactly the divergence the invariant
//! forbids; the ~2× FLOP win is deliberately left on the table and the
//! speedup comes from width + the broken accumulator dependency chain.
//! (Equivalence to the *naive* [`crate::engine::dot_scalar`] stays
//! 1e-12, as before — reassociation vs. one accumulator.)
//!
//! The `i8` kernels accumulate in integers, where every summation
//! order is exact, so they are trivially bit-identical across ISAs;
//! the accumulator is an `i32`, exact while `dim · 127² < 2³¹`
//! (dim ≲ 133k — embedding rows here are 128-dimensional).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A dot-product kernel implementation, selected at runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The portable 8-accumulator blocked kernel. Always available.
    Scalar,
    /// 256-bit AVX2 lanes (four f64 / sixteen i8-pairs per op).
    Avx2,
    /// 512-bit AVX-512 lanes. Requires `avx512f` for the f64 kernel
    /// and `avx512bw` for the i8 kernel, so availability is gated on
    /// **both**.
    Avx512,
}

impl KernelKind {
    /// The spelling `KHAOS_SIMD` uses for this kernel.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
        }
    }

    fn index(self) -> u8 {
        match self {
            KernelKind::Scalar => 0,
            KernelKind::Avx2 => 1,
            KernelKind::Avx512 => 2,
        }
    }

    fn from_index(i: u8) -> KernelKind {
        match i {
            1 => KernelKind::Avx2,
            2 => KernelKind::Avx512,
            _ => KernelKind::Scalar,
        }
    }
}

/// The kernel function pointers of one [`KernelKind`]. The pointers
/// wrap `#[target_feature]` functions in safe `fn`s; installing a
/// table is only done after the matching CPU features were detected,
/// which is what makes the wrappers sound.
#[derive(Clone, Copy)]
pub struct KernelTable {
    /// Which kernel this table dispatches to.
    pub kind: KernelKind,
    dot_raw: fn(&[f64], &[f64]) -> f64,
    dot_i8_raw: fn(&[i8], &[i8]) -> i32,
    scan_i8_raw: fn(&[i8], &[i8], &mut [i32]),
}

impl KernelTable {
    /// `f64` dot product through this table, with the consolidated
    /// length check (`zip` would silently truncate otherwise).
    #[inline]
    pub fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dot over mismatched dimensions");
        (self.dot_raw)(a, b)
    }

    /// Row-batched `f64` dot: `out[r]` becomes the [`Self::dot`] of `q`
    /// against the `r`-th row of the packed block `rows`
    /// (`dim = q.len()`, `out.len()` consecutive rows). The block shape
    /// is checked in every build: a short block would leave outputs
    /// unwritten.
    #[inline]
    pub(crate) fn dot_rows(&self, q: &[f64], rows: &[f64], out: &mut [f64]) {
        assert_eq!(
            rows.len(),
            q.len() * out.len(),
            "dot over a mismatched row block"
        );
        if q.is_empty() {
            out.fill(0.0);
            return;
        }
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(q.len())) {
            *o = self.dot(q, row);
        }
    }

    /// `i8` dot product with `i32` accumulation through this table.
    #[inline]
    pub fn dot_i8(&self, a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len(), "dot over mismatched dimensions");
        (self.dot_i8_raw)(a, b)
    }

    /// Row-batched i8 scan: `out[r]` becomes the [`Self::dot_i8`] of
    /// `q` against the `r`-th row of the packed block `rows`
    /// (`dim = q.len()`, `out.len()` consecutive rows) — one dispatch
    /// call for a whole block instead of one per row. Integer adds
    /// are exact, so every `out[r]` equals the per-row call.
    #[inline]
    pub fn scan_i8(&self, q: &[i8], rows: &[i8], out: &mut [i32]) {
        debug_assert_eq!(
            rows.len(),
            q.len() * out.len(),
            "scan over a mismatched row block"
        );
        (self.scan_i8_raw)(q, rows, out)
    }
}

static SCALAR_TABLE: KernelTable = KernelTable {
    kind: KernelKind::Scalar,
    dot_raw: raw::dot_blocked,
    dot_i8_raw: raw::dot_i8,
    scan_i8_raw: raw::scan_i8,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    kind: KernelKind::Avx2,
    dot_raw: x86::dot_avx2_safe,
    dot_i8_raw: x86::dot_i8_avx2_safe,
    scan_i8_raw: x86::scan_i8_avx2_safe,
};

#[cfg(target_arch = "x86_64")]
static AVX512_TABLE: KernelTable = KernelTable {
    kind: KernelKind::Avx512,
    dot_raw: x86::dot_avx512_safe,
    dot_i8_raw: x86::dot_i8_avx512_safe,
    scan_i8_raw: x86::scan_i8_avx512_safe,
};

/// The table for `kind`, or `None` when this host lacks the features.
/// Tests and benches use this to exercise every variant directly
/// without touching the process-global dispatch.
pub fn table_for(kind: KernelKind) -> Option<&'static KernelTable> {
    match kind {
        KernelKind::Scalar => Some(&SCALAR_TABLE),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 if is_x86_feature_detected!("avx2") => Some(&AVX2_TABLE),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw") =>
        {
            Some(&AVX512_TABLE)
        }
        _ => None,
    }
}

/// Every kernel this host can run, `Scalar` first.
pub fn available() -> Vec<KernelKind> {
    [KernelKind::Scalar, KernelKind::Avx2, KernelKind::Avx512]
        .into_iter()
        .filter(|&k| table_for(k).is_some())
        .collect()
}

/// The best kernel the CPU supports, ignoring the env override.
fn detect_best() -> KernelKind {
    *[KernelKind::Avx512, KernelKind::Avx2]
        .iter()
        .find(|&&k| table_for(k).is_some())
        .unwrap_or(&KernelKind::Scalar)
}

/// Resolves `KHAOS_SIMD` once: `auto`/unset → best detected; a named
/// kernel → that kernel when available, else warn once and fall back
/// to `auto` (matching `khaos-par`'s `KHAOS_THREADS` discipline: a bad
/// value must not abort a long sweep, but it must not pass silently
/// either).
fn resolved_from_env() -> KernelKind {
    static RESOLVED: OnceLock<KernelKind> = OnceLock::new();
    *RESOLVED.get_or_init(|| {
        let raw = std::env::var("KHAOS_SIMD").unwrap_or_default();
        let want = raw.trim().to_ascii_lowercase();
        match want.as_str() {
            "" | "auto" => detect_best(),
            "scalar" => KernelKind::Scalar,
            "avx2" | "avx512" => {
                let kind = if want == "avx2" {
                    KernelKind::Avx2
                } else {
                    KernelKind::Avx512
                };
                if table_for(kind).is_some() {
                    kind
                } else {
                    eprintln!(
                        "khaos-diff: KHAOS_SIMD={want} is not available on this CPU; \
                         falling back to {}",
                        detect_best().name()
                    );
                    detect_best()
                }
            }
            other => {
                eprintln!(
                    "khaos-diff: ignoring unrecognized KHAOS_SIMD=`{other}` \
                     (expected auto, scalar, avx2 or avx512); using {}",
                    detect_best().name()
                );
                detect_best()
            }
        }
    })
}

/// The active dispatch choice: `UNRESOLVED` until first use (or a
/// [`force_kernel`] call), then a [`KernelKind::index`]. Relaxed
/// ordering is fine — every kernel returns bit-identical results, so
/// a racing resolve can only redundantly store the same decision.
const UNRESOLVED: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// The dispatch table of the active kernel — resolve once, then call
/// through it in a hot loop without re-paying the atomic load per dot
/// (the quantized shortlist scan does exactly this).
#[inline]
pub fn active_table() -> &'static KernelTable {
    let idx = ACTIVE.load(Ordering::Relaxed);
    let kind = if idx == UNRESOLVED {
        let k = resolved_from_env();
        ACTIVE.store(k.index(), Ordering::Relaxed);
        k
    } else {
        KernelKind::from_index(idx)
    };
    table_for(kind).unwrap_or(&SCALAR_TABLE)
}

/// The kernel the dispatched entry points currently run.
pub fn active() -> KernelKind {
    active_table().kind
}

/// Overrides the active dispatch: `Some(kind)` forces a specific
/// kernel (panicking when the host cannot run it — this is a bench /
/// test instrument, not a production path), `None` restores the
/// `KHAOS_SIMD`/auto resolution. Returns the now-active kind. Safe to
/// call with tests running concurrently because every kernel is
/// bit-identical; the observable effect is timing only.
pub fn force_kernel(kind: Option<KernelKind>) -> KernelKind {
    match kind {
        Some(k) => {
            assert!(
                table_for(k).is_some(),
                "KHAOS_SIMD kernel {} is not available on this host",
                k.name()
            );
            ACTIVE.store(k.index(), Ordering::Relaxed);
            k
        }
        None => {
            let k = resolved_from_env();
            ACTIVE.store(k.index(), Ordering::Relaxed);
            k
        }
    }
}

/// The dispatched `f64` dot product — the one checked entry point the
/// matrix build, every [`crate::engine::RowScore`] scorer and the
/// streaming top-k path run on.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    active_table().dot(a, b)
}

/// The dispatched row-batched dot: `out[r] = dot(q, row r of rows)`
/// for a packed block of `out.len()` rows of `q.len()` values — one
/// table lookup per block instead of one per dot.
#[inline]
pub(crate) fn dot_rows(q: &[f64], rows: &[f64], out: &mut [f64]) {
    active_table().dot_rows(q, rows, out)
}

/// The dispatched `i8` dot product (`i32` accumulation) under the
/// quantized tier's shortlist scan.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    active_table().dot_i8(a, b)
}

/// The portable kernels: the 8-accumulator blocked f64 reduction every
/// SIMD variant replicates bit-for-bit, and the index-order i8 sum.
pub(crate) mod raw {
    /// 8-wide blocked dot product with a scalar tail (unchecked; the
    /// length check lives in the dispatch entry points).
    pub fn dot_blocked(a: &[f64], b: &[f64]) -> f64 {
        let mut acc = [0.0f64; 8];
        let mut ca = a.chunks_exact(8);
        let mut cb = b.chunks_exact(8);
        for (xa, xb) in (&mut ca).zip(&mut cb) {
            for k in 0..8 {
                acc[k] += xa[k] * xb[k];
            }
        }
        let tail = tail_dot(ca.remainder(), cb.remainder());
        ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7])) + tail
    }

    /// The shared sequential tail: every variant must accumulate the
    /// sub-8 remainder in index order for the bits to agree.
    #[inline]
    pub fn tail_dot(a: &[f64], b: &[f64]) -> f64 {
        let mut tail = 0.0;
        for (x, y) in a.iter().zip(b) {
            tail += x * y;
        }
        tail
    }

    /// Index-order i8 dot with i32 accumulation. Integer adds are
    /// exact, so any reassociation in the SIMD variants is free.
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let mut acc = 0i32;
        for (x, y) in a.iter().zip(b) {
            acc += *x as i32 * *y as i32;
        }
        acc
    }

    /// The i8 tail shared by the SIMD variants.
    #[inline]
    pub fn tail_dot_i8(a: &[i8], b: &[i8]) -> i32 {
        dot_i8(a, b)
    }

    /// Row-batched i8 scan over a packed row block (`dim = q.len()`):
    /// one [`dot_i8`] per row, in row order.
    pub fn scan_i8(q: &[i8], rows: &[i8], out: &mut [i32]) {
        let dim = q.len();
        if dim == 0 {
            out.fill(0);
            return;
        }
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
            *o = dot_i8(q, row);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::raw;
    use std::arch::x86_64::*;

    // Safe wrappers: sound because the dispatch layer only hands out
    // these tables after `is_x86_feature_detected!` confirmed the
    // features (see `table_for`).
    pub fn dot_avx2_safe(a: &[f64], b: &[f64]) -> f64 {
        unsafe { dot_avx2(a, b) }
    }
    pub fn dot_avx512_safe(a: &[f64], b: &[f64]) -> f64 {
        unsafe { dot_avx512(a, b) }
    }
    pub fn dot_i8_avx2_safe(a: &[i8], b: &[i8]) -> i32 {
        unsafe { dot_i8_avx2(a, b) }
    }
    pub fn dot_i8_avx512_safe(a: &[i8], b: &[i8]) -> i32 {
        unsafe { dot_i8_avx512(a, b) }
    }
    pub fn scan_i8_avx2_safe(q: &[i8], rows: &[i8], out: &mut [i32]) {
        unsafe { scan_i8_avx2(q, rows, out) }
    }
    pub fn scan_i8_avx512_safe(q: &[i8], rows: &[i8], out: &mut [i32]) {
        unsafe { scan_i8_avx512(q, rows, out) }
    }

    /// AVX2 replica of the blocked reduction: `acc0..3` / `acc4..7`
    /// live in two 4-lane registers; `mul` then `add` keeps both IEEE
    /// roundings (no FMA — see the module docs), and the final tree
    /// `(l0+l2)+(l1+l3)` over `l = lo+hi` expands to exactly
    /// `((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7))`.
    ///
    /// # Safety
    /// Caller must have verified `avx2` is available.
    #[target_feature(enable = "avx2")]
    unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let blocks = n / 8;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        for blk in 0..blocks {
            let i = blk * 8;
            let a0 = _mm256_loadu_pd(ap.add(i));
            let b0 = _mm256_loadu_pd(bp.add(i));
            let a1 = _mm256_loadu_pd(ap.add(i + 4));
            let b1 = _mm256_loadu_pd(bp.add(i + 4));
            acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(a0, b0));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(a1, b1));
        }
        let mut l = [0.0f64; 4];
        _mm256_storeu_pd(l.as_mut_ptr(), _mm256_add_pd(acc_lo, acc_hi));
        let head = (l[0] + l[2]) + (l[1] + l[3]);
        head + raw::tail_dot(&a[blocks * 8..n], &b[blocks * 8..n])
    }

    /// AVX-512 replica: all eight accumulators in one 512-bit
    /// register; the reduction tree is spelled out lane-by-lane so it
    /// stays the scalar kernel's exact association.
    ///
    /// # Safety
    /// Caller must have verified `avx512f` is available.
    #[target_feature(enable = "avx512f")]
    unsafe fn dot_avx512(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let blocks = n / 8;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = _mm512_setzero_pd();
        for blk in 0..blocks {
            let i = blk * 8;
            let va = _mm512_loadu_pd(ap.add(i));
            let vb = _mm512_loadu_pd(bp.add(i));
            acc = _mm512_add_pd(acc, _mm512_mul_pd(va, vb));
        }
        let mut l = [0.0f64; 8];
        _mm512_storeu_pd(l.as_mut_ptr(), acc);
        let head = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
        head + raw::tail_dot(&a[blocks * 8..n], &b[blocks * 8..n])
    }

    /// AVX2 i8 dot: sign-extend 16 bytes to 16×i16, `madd` adjacent
    /// pairs into 8×i32, accumulate. Two accumulators break the (one
    /// cycle, but real) add dependency chain. Integer arithmetic is
    /// exact, so the horizontal sum order is free.
    ///
    /// # Safety
    /// Caller must have verified `avx2` is available.
    #[target_feature(enable = "avx2")]
    unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let blocks = n / 32;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        for blk in 0..blocks {
            let i = blk * 32;
            let a0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(ap.add(i) as *const __m128i));
            let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(i) as *const __m128i));
            let a1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(ap.add(i + 16) as *const __m128i));
            let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(i + 16) as *const __m128i));
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a0, b0));
            acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a1, b1));
        }
        let mut l = [0i32; 8];
        _mm256_storeu_si256(l.as_mut_ptr() as *mut __m256i, _mm256_add_epi32(acc0, acc1));
        let head: i32 = l.iter().sum();
        head + raw::tail_dot_i8(&a[blocks * 32..n], &b[blocks * 32..n])
    }

    /// AVX-512 i8 dot: 32 bytes per step through `vpmaddwd`
    /// (`avx512bw`), reduced with the `avx512f` horizontal add.
    ///
    /// # Safety
    /// Caller must have verified `avx512f` **and** `avx512bw`.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn dot_i8_avx512(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let blocks = n / 32;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = _mm512_setzero_si512();
        for blk in 0..blocks {
            let i = blk * 32;
            let va = _mm512_cvtepi8_epi16(_mm256_loadu_si256(ap.add(i) as *const __m256i));
            let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(bp.add(i) as *const __m256i));
            acc = _mm512_add_epi32(acc, _mm512_madd_epi16(va, vb));
        }
        let head = _mm512_reduce_add_epi32(acc);
        head + raw::tail_dot_i8(&a[blocks * 32..n], &b[blocks * 32..n])
    }

    /// Row-batched AVX2 i8 scan: the whole block loops inside one
    /// `target_feature` context, so the per-row dot inlines and the
    /// dispatch call is paid once per block instead of once per row.
    ///
    /// # Safety
    /// Caller must have verified `avx2` is available.
    #[target_feature(enable = "avx2")]
    unsafe fn scan_i8_avx2(q: &[i8], rows: &[i8], out: &mut [i32]) {
        let dim = q.len();
        if dim == 0 {
            out.fill(0);
            return;
        }
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
            *o = unsafe { dot_i8_avx2(q, row) };
        }
    }

    /// Row-batched AVX-512 i8 scan (same shape as the AVX2 one).
    ///
    /// # Safety
    /// Caller must have verified `avx512f` **and** `avx512bw`.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn scan_i8_avx512(q: &[i8], rows: &[i8], out: &mut [i32]) {
        let dim = q.len();
        if dim == 0 {
            out.fill(0);
            return;
        }
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
            *o = unsafe { dot_i8_avx512(q, row) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::dot_scalar;

    /// The remainder-length sweep the satellite task names: every
    /// block/tail split the kernels distinguish, plus a long row.
    const LENGTHS: [usize; 9] = [0, 1, 7, 8, 9, 63, 64, 65, 1000];

    /// Deterministic pseudo-random f64s in [-1, 1) (xorshift; no
    /// `rand` in this offline environment).
    fn rand_vec(seed: u64, len: usize) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    /// Plants IEEE edge cases — NaN, ±0.0, a subnormal, ±inf-adjacent
    /// magnitudes — in both the blocked head and the scalar tail.
    fn hostile_vec(seed: u64, len: usize) -> Vec<f64> {
        let mut v = rand_vec(seed, len);
        let specials = [
            f64::NAN,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            1e300,
            -1e300,
        ];
        for (i, x) in v.iter_mut().enumerate() {
            if i % 5 == 3 {
                *x = specials[i % specials.len()];
            }
        }
        v
    }

    #[test]
    fn every_variant_matches_scalar_bitwise_on_all_remainder_lengths() {
        for kind in available() {
            let table = table_for(kind).expect("listed as available");
            for &n in &LENGTHS {
                for seed in 0..4u64 {
                    let a = rand_vec(seed * 2 + 1, n);
                    let b = rand_vec(seed * 2 + 2, n);
                    let want = SCALAR_TABLE.dot(&a, &b);
                    let got = table.dot(&a, &b);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} vs scalar at n={n} seed={seed}: {got} vs {want}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn hostile_inputs_are_bit_identical_across_variants() {
        for kind in available() {
            let table = table_for(kind).expect("listed as available");
            for &n in &LENGTHS {
                let a = hostile_vec(0xA5, n);
                let b = hostile_vec(0x5A, n);
                let want = SCALAR_TABLE.dot(&a, &b);
                let got = table.dot(&a, &b);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} at n={n}: NaN/±0.0/subnormal row must not diverge",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn dispatched_dot_stays_within_1e12_of_naive_scalar() {
        // The historical pin: blocked (and therefore every SIMD
        // variant, which is bit-identical to blocked) reassociates
        // relative to the one-accumulator naive sum.
        for &n in &LENGTHS {
            let a = rand_vec(7, n);
            let b = rand_vec(11, n);
            let naive = dot_scalar(&a, &b);
            assert!(
                (dot(&a, &b) - naive).abs() <= 1e-12,
                "n={n}: dispatched vs naive"
            );
        }
    }

    #[test]
    fn i8_kernels_agree_exactly_across_variants() {
        for kind in available() {
            let table = table_for(kind).expect("listed as available");
            for &n in &LENGTHS {
                for seed in 0..4u64 {
                    // Full i8 range including -128 and saturating
                    // extremes; products fit i32 at these lengths.
                    let a: Vec<i8> = rand_vec(seed + 21, n)
                        .iter()
                        .map(|x| (x * 128.0).floor().clamp(-128.0, 127.0) as i8)
                        .collect();
                    let b: Vec<i8> = (0..n)
                        .map(|i| match i % 7 {
                            0 => i8::MIN,
                            1 => i8::MAX,
                            2 => 0,
                            k => (k as i8) * 17 - 34,
                        })
                        .collect();
                    let want = SCALAR_TABLE.dot_i8(&a, &b);
                    assert_eq!(
                        table.dot_i8(&a, &b),
                        want,
                        "{} i8 at n={n} seed={seed}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn i8_scan_matches_per_row_dots_across_variants() {
        for kind in available() {
            let table = table_for(kind).expect("listed as available");
            for &dim in &[0usize, 1, 7, 31, 32, 33, 64, 65] {
                let nrows = 5;
                let q: Vec<i8> = rand_vec(97, dim)
                    .iter()
                    .map(|x| (x * 128.0).floor().clamp(-128.0, 127.0) as i8)
                    .collect();
                let rows: Vec<i8> = rand_vec(131, dim * nrows)
                    .iter()
                    .map(|x| (x * 128.0).floor().clamp(-128.0, 127.0) as i8)
                    .collect();
                let mut got = vec![0i32; nrows];
                table.scan_i8(&q, &rows, &mut got);
                for r in 0..nrows {
                    assert_eq!(
                        got[r],
                        SCALAR_TABLE.dot_i8(&q, &rows[r * dim..(r + 1) * dim]),
                        "{} scan row {r} at dim={dim}",
                        kind.name()
                    );
                }
            }
        }
    }

    /// Row `r` of a hostile block: random values with NaN, ±0.0, ±inf,
    /// subnormals and huge magnitudes planted at row-dependent places,
    /// so the rows of one block differ in where the specials fall.
    fn hostile_row(seed: u64, r: usize, dim: usize) -> Vec<f64> {
        let specials = [
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            -1e300,
            1e-310,
        ];
        let mut v = rand_vec(seed ^ (r as u64 * 0x51), dim);
        for (i, x) in v.iter_mut().enumerate() {
            if (i + r).is_multiple_of(3) {
                *x = specials[(i * 7 + r) % specials.len()];
            }
        }
        v
    }

    /// Checks `dot_rows` against one `dot` per row on every tier, and
    /// against the scalar tier's `dot`. Tiers agree on every number but
    /// not on which NaN a NaN input yields (IEEE arithmetic on two NaNs
    /// keeps one by operand order, which the compiler may commute per
    /// kernel), so across tiers a NaN only has to stay a NaN.
    fn assert_rows_match(q: &[f64], rows: &[Vec<f64>], what: &str) {
        let flat: Vec<f64> = rows.concat();
        for kind in available() {
            let table = table_for(kind).expect("listed as available");
            let mut got = vec![0.5; rows.len()];
            table.dot_rows(q, &flat, &mut got);
            for (r, row) in rows.iter().enumerate() {
                let scalar = SCALAR_TABLE.dot(q, row);
                assert!(
                    got[r].is_nan() == scalar.is_nan(),
                    "{} {what}: row {r}: {} vs scalar {scalar}",
                    kind.name(),
                    got[r]
                );
                let wants = [table.dot(q, row)]
                    .into_iter()
                    .chain((!scalar.is_nan()).then_some(scalar));
                for want in wants {
                    assert_eq!(
                        got[r].to_bits(),
                        want.to_bits(),
                        "{} {what}: row {r} of {} at dim {}: {} vs {want}",
                        kind.name(),
                        rows.len(),
                        q.len(),
                        got[r]
                    );
                }
            }
        }
    }

    /// Dims 0–40 and 128 (empty, sub-chunk, chunked and chunked plus a
    /// tail), row counts 0–9.
    fn dot_rows_shapes() -> impl Iterator<Item = (usize, usize)> {
        (0..=40usize)
            .chain([128])
            .flat_map(|dim| (0..=9usize).map(move |n| (dim, n)))
    }

    #[test]
    fn dot_rows_equals_per_row_dot_on_every_tier() {
        for (dim, n) in dot_rows_shapes() {
            let q = rand_vec(dim as u64 * 31 + 5, dim);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|r| rand_vec((dim * 10 + r) as u64 + 1000, dim))
                .collect();
            assert_rows_match(&q, &rows, "random");
        }
    }

    #[test]
    fn dot_rows_equals_per_row_dot_on_hostile_values() {
        for (dim, n) in dot_rows_shapes() {
            let q = hostile_row(0xA5, 9, dim);
            let rows: Vec<Vec<f64>> = (0..n).map(|r| hostile_row(0x5A, r, dim)).collect();
            assert_rows_match(&q, &rows, "hostile");
            // A clean query against hostile rows, and the reverse.
            assert_rows_match(&rand_vec(3, dim), &rows, "hostile rows");
            let clean: Vec<Vec<f64>> = (0..n).map(|r| rand_vec(r as u64 + 77, dim)).collect();
            assert_rows_match(&q, &clean, "hostile query");
        }
    }

    #[test]
    fn dispatched_dot_rows_writes_every_output() {
        let q = rand_vec(1, 128);
        let rows: Vec<f64> = rand_vec(2, 128 * 7);
        let mut out = vec![0.5; 7];
        dot_rows(&q, &rows, &mut out);
        for (r, o) in out.iter().enumerate() {
            assert_eq!(
                o.to_bits(),
                dot(&q, &rows[r * 128..(r + 1) * 128]).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "dot over a mismatched row block")]
    fn dispatched_dot_rows_asserts_the_block_shape() {
        dot_rows(&[1.0, 2.0], &[1.0, 2.0, 3.0], &mut [0.0; 2]);
    }

    #[test]
    fn forcing_each_available_kernel_flips_active_and_keeps_bits() {
        let a = rand_vec(3, 128);
        let b = rand_vec(4, 128);
        let want = SCALAR_TABLE.dot(&a, &b).to_bits();
        for kind in available() {
            assert_eq!(force_kernel(Some(kind)), kind);
            assert_eq!(active(), kind);
            assert_eq!(dot(&a, &b).to_bits(), want, "{}", kind.name());
        }
        // Restore the env/auto resolution for the rest of the suite.
        let restored = force_kernel(None);
        assert_eq!(active(), restored);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dot over mismatched dimensions")]
    fn dispatched_dot_asserts_equal_lengths() {
        dot(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dot over mismatched dimensions")]
    fn dispatched_dot_i8_asserts_equal_lengths() {
        dot_i8(&[1, 2], &[1]);
    }
}
