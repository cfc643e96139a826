//! End-to-end pin for the persistent artifact store: an escape-profile
//! workload run cold (computing and writing through to a store), then
//! again from a *fresh cache over the same store* — standing in for a
//! fresh process, whose only shared state is the store directory —
//! must produce identical metrics with `CacheStats` showing disk hits
//! and **zero recomputed embeddings**.

use khaos::diff::{escape_profile_with, extended_differs, precision_at_1_with, EmbeddingCache};
use khaos::prelude::*;
use khaos_binary::Binary;
use khaos_store::Store;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "khaos-e2e-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The paper's §4.3 scenario: the T-III libcurl stand-in (which carries
/// `vulnerable` annotations) at `O2+lto`, against its Khaos-obfuscated
/// build with provenance stamped.
fn escape_workload() -> (Binary, Binary) {
    let mut reference = khaos::workloads::tiii()
        .into_iter()
        .last()
        .expect("libcurl stand-in");
    Pipeline::parse("O2+lto")
        .unwrap()
        .run(&mut reference, &mut PassCtx::new(0xC60))
        .expect("baseline build");
    let pipeline = Pipeline::parse("fufi_all | O2+lto").expect("spec");
    let mut shipped = reference.clone();
    pipeline
        .run(&mut shipped, &mut PassCtx::new(0xC60))
        .expect("obfuscation");
    (
        lower_module(&reference),
        lower_module(&shipped).with_build_provenance(pipeline.fingerprint()),
    )
}

#[test]
fn escape_profile_warm_starts_across_processes_bit_identically() {
    let dir = scratch("escape");
    let store = Arc::new(Store::open(&dir).expect("store opens"));
    let (base_bin, obf_bin) = escape_workload();
    let ks = [1usize, 10, 50];
    let tools = extended_differs();

    // Reference leg: no store anywhere — the pure computation.
    let plain = EmbeddingCache::new(64);
    let reference: Vec<Vec<f64>> = tools
        .iter()
        .map(|t| escape_profile_with(t.as_ref(), &base_bin, &obf_bin, &ks, &plain))
        .collect();

    // Cold leg: fresh store attached; everything computes and writes
    // through.
    let cold_cache = EmbeddingCache::new(64);
    cold_cache.attach_store(Arc::clone(&store));
    let cold: Vec<Vec<f64>> = tools
        .iter()
        .map(|t| escape_profile_with(t.as_ref(), &base_bin, &obf_bin, &ks, &cold_cache))
        .collect();
    let s = cold_cache.stats();
    assert!(s.embeds_computed > 0, "cold run embeds: {s:?}");
    assert_eq!(
        s.disk_writes, s.disk_misses,
        "every disk miss wrote through: {s:?}"
    );
    assert_eq!(s.disk_hits, 0, "nothing to hit in a fresh store: {s:?}");

    // Warm leg: a fresh cache over the same store — the fresh-process
    // stand-in. Identical metrics, disk hits, zero recomputation.
    let warm_cache = EmbeddingCache::new(64);
    warm_cache.attach_store(Arc::clone(&store));
    let warm: Vec<Vec<f64>> = tools
        .iter()
        .map(|t| escape_profile_with(t.as_ref(), &base_bin, &obf_bin, &ks, &warm_cache))
        .collect();
    let s = warm_cache.stats();
    assert_eq!(s.embeds_computed, 0, "warm run recomputed nothing: {s:?}");
    assert_eq!(s.disk_misses, 0, "warm run missed nothing on disk: {s:?}");
    assert!(s.disk_hits > 0, "warm run served from disk: {s:?}");
    // The escape path is rank-only: it must stream off disk-served
    // embeddings, never build (or load) a Q×T matrix.
    assert_eq!(s.matrix_entries, 0, "rank-only stays matrix-free: {s:?}");

    for (ti, tool) in tools.iter().enumerate() {
        // Identical — not close: the escape fractions are ratios of
        // rank comparisons over bit-identical similarity scores.
        assert_eq!(cold[ti], warm[ti], "{}: cold vs warm profiles", tool.name());
        assert_eq!(
            reference[ti],
            warm[ti],
            "{}: disk-served vs recomputed profiles",
            tool.name()
        );
    }
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

#[test]
fn matrix_metrics_warm_start_without_recomputation() {
    let dir = scratch("matrix");
    let store = Arc::new(Store::open(&dir).expect("store opens"));
    let (base_bin, obf_bin) = escape_workload();
    let tools = extended_differs();

    let cold_cache = EmbeddingCache::new(64);
    cold_cache.attach_store(Arc::clone(&store));
    let cold: Vec<f64> = tools
        .iter()
        .map(|t| precision_at_1_with(t.as_ref(), &base_bin, &obf_bin, &cold_cache))
        .collect();

    let warm_cache = EmbeddingCache::new(64);
    warm_cache.attach_store(Arc::clone(&store));
    let warm: Vec<f64> = tools
        .iter()
        .map(|t| precision_at_1_with(t.as_ref(), &base_bin, &obf_bin, &warm_cache))
        .collect();
    let s = warm_cache.stats();
    assert_eq!(s.embeds_computed, 0, "{s:?}");
    assert_eq!(s.disk_misses, 0, "{s:?}");
    // One matrix per tool, served straight from disk (embeddings are
    // not even touched on the matrix fast path).
    assert_eq!(s.disk_hits, tools.len() as u64, "{s:?}");
    assert_eq!(cold, warm, "precision@1 identical cold vs warm");
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}
