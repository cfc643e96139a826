//! The `bld/` section: memoized builds (kind 6) round-trip exactly,
//! damage is named by `verify` and degrades lookups to misses, and
//! `merge_from` carries build records like every other deterministic
//! record.

use khaos_store::{BuildKey, PayloadDump, Store, StoredBuild, KIND_BUILD, KNOWN_KINDS};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "khaos-store-bld-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const KEY: BuildKey = BuildKey {
    source: 0x50c3,
    pipeline: 0xF1,
    seed: 0xC60_2023,
    version: 1,
};

fn sample_build() -> StoredBuild {
    StoredBuild {
        module: "module demo\n\nfunc main(0) -> i64 exported {\n  prov original main\n  \
                 locals\nbb0:\n  ret i64:0\n}\n"
            .into(),
        // A value with a long bit pattern and a negative zero: stats
        // round-trip as bits.
        stats: vec![3.0, 0.1 + 0.2, -0.0],
    }
}

/// The one build file of a one-record store.
fn bld_file(store: &Store) -> PathBuf {
    let files: Vec<PathBuf> = fs::read_dir(store.root().join("bld"))
        .expect("bld dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(files.len(), 1, "exactly one build record expected");
    files[0].clone()
}

#[test]
fn build_records_round_trip_exactly() {
    assert!(KNOWN_KINDS.contains(&KIND_BUILD));
    let dir = scratch("rt");
    let store = Store::open(&dir).expect("store opens");
    assert_eq!(store.get_build(&KEY).expect("read"), None);
    let build = sample_build();
    store.put_build(&KEY, &build).expect("write");
    let back = store.get_build(&KEY).expect("read").expect("hit");
    assert_eq!(back.module, build.module);
    let bits = |b: &StoredBuild| -> Vec<u64> { b.stats.iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&back), bits(&build));
    // Every key field partitions the keyspace.
    for other in [
        BuildKey { source: 1, ..KEY },
        BuildKey { pipeline: 1, ..KEY },
        BuildKey { seed: 1, ..KEY },
        BuildKey { version: 2, ..KEY },
    ] {
        assert_eq!(store.get_build(&other).expect("read"), None, "{other:?}");
    }
    // The maintenance views see the section.
    let stats = store.stats().expect("stats");
    assert_eq!(stats.builds.records, 1);
    assert_eq!(stats.total_records(), 1);
    assert!(store.verify().expect("verify").is_empty());
    let listed = store.ls().expect("ls");
    assert_eq!(listed[0].section, "bld");
    assert!(listed[0].key.as_deref().unwrap().starts_with("bld src="));
    let stem = bld_file(&store)
        .file_stem()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    let dump = store
        .cat(&format!("bld/{stem}"))
        .expect("cat")
        .expect("hit");
    match &dump.payload {
        PayloadDump::Build(b) => assert_eq!(b.module, build.module),
        other => panic!("build record decoded as {other:?}"),
    }
    assert!(dump.to_string().contains("| module demo"), "{dump}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupted_build_record_is_named_and_misses() {
    let dir = scratch("corrupt");
    let store = Store::open(&dir).expect("store opens");
    store.put_build(&KEY, &sample_build()).expect("write");
    let path = bld_file(&store);
    let mut bytes = fs::read(&path).expect("read record");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).expect("corrupt record");

    let issues = store.verify().expect("verify runs");
    assert_eq!(issues.len(), 1, "damage must be reported");
    assert!(issues[0].file.starts_with("bld/"), "{}", issues[0].file);
    assert!(
        issues[0].reason.contains("checksum"),
        "{}",
        issues[0].reason
    );
    assert_eq!(
        store.get_build(&KEY).expect("read"),
        None,
        "damage is a miss"
    );
    // A rewrite heals it.
    store.put_build(&KEY, &sample_build()).expect("rewrite");
    assert!(store.verify().expect("verify").is_empty());
    assert_eq!(store.get_build(&KEY).expect("read"), Some(sample_build()));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_copies_build_records_and_skips_identical_ones() {
    let (a, b, d) = (scratch("mrg-a"), scratch("mrg-b"), scratch("mrg-d"));
    let (src_a, src_b) = (Store::open(&a).unwrap(), Store::open(&b).unwrap());
    let dest = Store::open(&d).unwrap();
    src_a.put_build(&KEY, &sample_build()).unwrap();
    src_b.put_build(&KEY, &sample_build()).unwrap();
    src_b
        .put_build(&BuildKey { seed: 7, ..KEY }, &sample_build())
        .unwrap();
    let first = dest.merge_from(&src_a).unwrap();
    assert_eq!((first.copied, first.skipped), (1, 0));
    let second = dest.merge_from(&src_b).unwrap();
    assert_eq!((second.copied, second.skipped), (1, 1));
    assert_eq!(dest.stats().unwrap().builds.records, 2);
    assert_eq!(dest.get_build(&KEY).unwrap(), Some(sample_build()));
    for dir in [a, b, d] {
        fs::remove_dir_all(&dir).unwrap();
    }
}
