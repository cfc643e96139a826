//! Build provenance end-to-end: distinct build configurations produce
//! distinct `Pipeline::fingerprint()` values, provenance-stamped
//! binaries produce distinct `EmbeddingCache` keys (even at identical
//! content), and the cache actually partitions on them — closing the
//! ROADMAP note that "tools with knobs must override
//! `config_fingerprint`" on the build side too.

use khaos::diff::{EmbeddingCache, Safe};
use khaos::pass::Pipeline;
use khaos::prelude::*;
use khaos_diff::Differ;

fn fp(spec: &str) -> u64 {
    Pipeline::parse(spec).unwrap().fingerprint()
}

#[test]
fn knob_changes_change_the_pipeline_fingerprint() {
    // The satellite's canonical pairs: same transform, different knobs.
    assert_ne!(fp("fla(ratio=0.1) | O2+lto"), fp("fla | O2+lto"));
    assert_ne!(fp("fusion | O2+lto"), fp("fusion(deep=false) | O2+lto"));
    // Different modes, different arities, different opt levels.
    assert_ne!(fp("fufi_sep | O2+lto"), fp("fufi_ori | O2+lto"));
    assert_ne!(fp("fusion(arity=3)"), fp("fusion(arity=4)"));
    assert_ne!(fp("O2"), fp("O2+lto"));
    // And the full figure-8 table is collision-free.
    let specs = [
        "",
        "sub | O2+lto",
        "bog | O2+lto",
        "fla(ratio=0.1) | O2+lto",
        "fla | O2+lto",
        "fission | O2+lto",
        "fusion | O2+lto",
        "fufi_sep | O2+lto",
        "fufi_ori | O2+lto",
        "fufi_all | O2+lto",
    ];
    let mut seen = std::collections::HashSet::new();
    for s in specs {
        assert!(seen.insert(fp(s)), "fingerprint collision at `{s}`");
    }
}

#[test]
fn provenance_partitions_cache_keys_even_at_identical_content() {
    // Two binaries with identical content but different build
    // provenance must not alias in the embedding cache.
    let m = khaos::workloads::coreutils_program("cat", 6);
    let plain = lower_module(&m);
    let a = plain.clone().with_build_provenance(fp("fusion | O2+lto"));
    let b = plain
        .clone()
        .with_build_provenance(fp("fusion(deep=false) | O2+lto"));
    assert_ne!(a.fingerprint(), b.fingerprint());

    let tool = Safe::default();
    let ka = EmbeddingCache::key(tool.name(), tool.config_fingerprint(), &a);
    let kb = EmbeddingCache::key(tool.name(), tool.config_fingerprint(), &b);
    assert_ne!(ka, kb, "distinct configs must get distinct cache keys");

    // And the cache treats them as distinct entries.
    let cache = EmbeddingCache::new(8);
    cache.get_or_embed(ka, || tool.embed(&a));
    cache.get_or_embed(kb, || tool.embed(&b));
    assert_eq!(cache.stats().misses, 2);
    assert_eq!(cache.stats().entries, 2);
    cache.get_or_embed(ka, || panic!("same provenance must hit"));
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn unstamped_binaries_keep_their_legacy_fingerprint_behaviour() {
    // provenance 0 is the default: lowering alone never perturbs the
    // content fingerprint, so rebuilds of the same (program, pipeline)
    // pair share cache entries.
    let m = khaos::workloads::coreutils_program("ls", 1);
    assert_eq!(lower_module(&m).build_provenance, 0);
    assert_eq!(
        lower_module(&m).fingerprint(),
        lower_module(&m).fingerprint()
    );
}
