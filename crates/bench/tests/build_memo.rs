//! The build memo is unobservable: a build served from the store is the
//! build a fresh run produces — the same module, the same lowered
//! binary, the same Table-2 counters, the same cycles — for one program
//! of every suite under every spec the `--quick` figures build.
//!
//! The build digests are pinned. A memo hit skips the pass code, so a
//! change to what a pipeline builds that leaves every fingerprint alone
//! would let warm stores serve stale builds. Two pins guard this: one
//! over the small programs above (every build), and one over every
//! program of the `--quick` suites, so a change that shows only on
//! constructs the small programs lack still trips it. The wide pin
//! runs hundreds of audited builds, so it runs in release builds only:
//! `cargo test --release -p khaos-bench --test build_memo`. When a pin
//! fails, the change altered pass output: bump
//! `khaos_bench::BUILD_MEMO_VERSION` and update the pins together (the
//! failure prints the new table).
//!
//! The VM results are pinned the same way: every build's and every
//! unoptimized source's `run_with_config` result (output, exit code,
//! cycles, steps) under the harness's run configuration. The cycles are
//! the paper's runtime, so a change to the interpreter that moves any of
//! them changes the figures; such a pin failure is a VM change, not a
//! pass change, and `BUILD_MEMO_VERSION` stays.

use khaos_bench::experiments::quick_programs;
use khaos_bench::{par_fan_out, run_cycles, run_spec_in, BuildConfig, BUILD_MEMO_VERSION, SEED};
use khaos_binary::lower_module;
use khaos_core::{FissionStats, FusionStats};
use khaos_ir::{printer, Module};
use khaos_ollvm::OllvmMode;
use khaos_pass::Pipeline;
use khaos_store::{BuildKey, Store, StoredBuild};
use khaos_vm::{run_with_config, RunConfig};
use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "khaos-build-memo-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The smallest program of each suite (the debug-build tests stay fast).
fn programs() -> Vec<Module> {
    [
        khaos_workloads::spec2006(),
        khaos_workloads::spec2017(),
        khaos_workloads::coreutils(),
        khaos_workloads::tiii(),
    ]
    .into_iter()
    .map(|suite| {
        suite
            .into_iter()
            .min_by_key(Module::inst_count)
            .expect("non-empty suite")
    })
    .collect()
}

/// Every spec the `--quick` figures pass to `run_spec`: `(spec, built
/// over the O2+lto baseline rather than the source)`.
fn specs() -> Vec<(String, bool)> {
    let mut v: Vec<(String, bool)> = ["O2+lto", "O0", "O1", "O2", "O3"]
        .iter()
        .map(|s| (s.to_string(), false))
        .collect();
    let mut over_base: Vec<String> = BuildConfig::figure8_set()
        .iter()
        .map(BuildConfig::spec)
        .collect();
    over_base.push(BuildConfig::Ollvm(OllvmMode::Fla(1.0)).spec());
    for arity in 2..=4 {
        over_base.push(format!("fusion_n(arity={arity}) | O2+lto"));
        over_base.push(format!("fufi_n(arity={arity}) | O2+lto"));
    }
    v.extend(over_base.into_iter().map(|s| (s, true)));
    v
}

/// One build and what the memo must reproduce of it.
struct Built {
    program: String,
    spec: String,
    module: Module,
    fission: FissionStats,
    fusion: FusionStats,
}

/// FNV-1a over a module's full VM result under the harness's run
/// configuration (`run_cycles`): output length and values, exit code,
/// cycles and steps, all little-endian.
fn run_digest(m: &Module) -> u64 {
    let config = RunConfig {
        inputs: vec![3, 7, 11],
        ..RunConfig::default()
    };
    let r = run_with_config(m, config).unwrap_or_else(|e| panic!("{} failed to run: {e}", m.name));
    let mut bytes = Vec::with_capacity(8 * (r.output.len() + 4));
    bytes.extend((r.output.len() as u64).to_le_bytes());
    for v in &r.output {
        bytes.extend(v.to_le_bytes());
    }
    bytes.extend(r.exit_code.to_le_bytes());
    bytes.extend(r.cycles.to_le_bytes());
    bytes.extend(r.steps.to_le_bytes());
    khaos_store::fnv1a(&bytes)
}

/// Builds `src` under every spec through `store` (or none).
fn build_program(store: Option<&Store>, src: &Module) -> Vec<Built> {
    let (base, _) = run_spec_in(store, src, "O2+lto", SEED);
    specs()
        .into_iter()
        .map(|(spec, over_base)| {
            let input = if over_base { &base } else { src };
            let (module, ctx) = run_spec_in(store, input, &spec, SEED);
            Built {
                program: src.name.clone(),
                spec,
                module,
                fission: ctx.fission_stats,
                fusion: ctx.fusion_stats,
            }
        })
        .collect()
}

/// Builds every (program, spec) pair through `store`.
fn build_all(store: &Store) -> Vec<Built> {
    programs()
        .iter()
        .flat_map(|src| build_program(Some(store), src))
        .collect()
}

/// Every record file of a store with its inode: a rewrite (atomic
/// rename) changes the inode, so equal snapshots mean nothing was
/// written.
fn snapshot(root: &Path) -> Vec<(PathBuf, u64)> {
    let mut files = Vec::new();
    for section in fs::read_dir(root).expect("store root") {
        let section = section.expect("entry").path();
        if section.is_dir() {
            for f in fs::read_dir(&section).expect("section") {
                let f = f.expect("entry");
                files.push((f.path(), f.metadata().expect("metadata").ino()));
            }
        }
    }
    files.sort();
    files
}

/// The cold builds (fresh store) and the warm ones (a fresh handle on
/// the same store), computed once for the tests of this file.
fn cold_and_warm() -> &'static (Vec<Built>, Vec<Built>) {
    static BUILDS: OnceLock<(Vec<Built>, Vec<Built>)> = OnceLock::new();
    BUILDS.get_or_init(|| {
        let dir = scratch("cold-warm");
        let cold = build_all(&Store::open(&dir).expect("store opens"));
        let before = snapshot(&dir);
        let warm = build_all(&Store::open(&dir).expect("store reopens"));
        assert_eq!(
            snapshot(&dir),
            before,
            "the warm pass must be all hits: a miss writes build and report records"
        );
        fs::remove_dir_all(&dir).unwrap();
        (cold, warm)
    })
}

#[test]
fn a_memo_hit_is_indistinguishable_from_a_rebuild() {
    let (cold, warm) = cold_and_warm();
    assert_eq!(cold.len(), 4 * specs().len());
    for (c, w) in cold.iter().zip(warm) {
        let what = format!("{} `{}`", c.program, c.spec);
        assert_eq!(
            printer::print_module(&c.module),
            printer::print_module(&w.module),
            "{what}: printed module"
        );
        assert_eq!(c.module, w.module, "{what}: module structure");
        assert_eq!(
            lower_module(&c.module).fingerprint(),
            lower_module(&w.module).fingerprint(),
            "{what}: lowered binary"
        );
        assert_eq!(c.fission, w.fission, "{what}: fission counters");
        assert_eq!(c.fusion, w.fusion, "{what}: fusion counters");
        assert_eq!(
            run_cycles(&c.module),
            run_cycles(&w.module),
            "{what}: cycles"
        );
    }
}

/// Per label, FNV-1a over the digests (little-endian) filed under it,
/// in order.
fn label_digests(labels: &[String], items: &[(String, u64)]) -> Vec<(String, u64)> {
    labels
        .iter()
        .map(|label| {
            let bytes: Vec<u8> = items
                .iter()
                .filter(|(l, _)| l == label)
                .flat_map(|(_, d)| d.to_le_bytes())
                .collect();
            (label.clone(), khaos_store::fnv1a(&bytes))
        })
        .collect()
}

/// Per spec, FNV-1a over the content fingerprints (little-endian) of
/// its builds, in build order.
fn spec_digests(builds: &[(String, u64)]) -> Vec<(String, u64)> {
    let labels: Vec<String> = specs().into_iter().map(|(spec, _)| spec).collect();
    label_digests(&labels, builds)
}

/// The label the VM pins file the unoptimized sources' runs under.
const SOURCE: &str = "source";

/// The VM pin table: the sources' run digests, then each spec's builds'.
fn run_digests(sources: &[u64], builds: &[(String, u64)]) -> Vec<(String, u64)> {
    let mut items: Vec<(String, u64)> = sources.iter().map(|d| (SOURCE.to_string(), *d)).collect();
    items.extend_from_slice(builds);
    let mut labels = vec![SOURCE.to_string()];
    labels.extend(specs().into_iter().map(|(spec, _)| spec));
    label_digests(&labels, &items)
}

/// Fails with the table to paste when `have` differs from `pinned`.
fn assert_pinned(have: &[(String, u64)], pinned: &[(&str, u64)], what: &str) {
    let want: Vec<(String, u64)> = pinned.iter().map(|(s, d)| (s.to_string(), *d)).collect();
    let table: String = have
        .iter()
        .map(|(s, d)| format!("    (\"{s}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(have, want, "{what}; the new pins are\n{table}");
}

/// The failure text of the build pins.
fn pass_changed() -> String {
    format!("pass output changed: bump BUILD_MEMO_VERSION (now {BUILD_MEMO_VERSION}) and pin")
}

/// The failure text of the VM pins.
const VM_CHANGED: &str = "VM results changed: output, exit code, cycles or steps of a run \
                          differ (a pass change fails the build pins too)";

/// The digests of the builds above, per spec, at [`BUILD_MEMO_VERSION`]
/// 1. (`fufi_n` at arity 2 builds what `fufi_all` builds.)
const PINNED: [(&str, u64); 20] = [
    ("O2+lto", 0xe1a9a61947771665),
    ("O0", 0x6e2e18e22e47a0e7),
    ("O1", 0xf3bf994135909ebb),
    ("O2", 0x830e6b39ccb09a9c),
    ("O3", 0x1983cc6c09f4c02b),
    ("sub | O2+lto", 0xd07d3282eacdddd5),
    ("bog | O2+lto", 0x9a393127655d16ff),
    ("fla(ratio=0.1) | O2+lto", 0x8b367ec56e0af9f1),
    ("fission | O2+lto", 0xfdcf80a39ecc8641),
    ("fusion | O2+lto", 0x7d413a6c8ca4a115),
    ("fufi_sep | O2+lto", 0xcd72f32acc7617ba),
    ("fufi_ori | O2+lto", 0xaa415d221d3de0a1),
    ("fufi_all | O2+lto", 0x3210eaca031f9aaf),
    ("fla | O2+lto", 0x5939ceb2c322413b),
    ("fusion_n(arity=2) | O2+lto", 0xd14c9d904f258f58),
    ("fufi_n(arity=2) | O2+lto", 0x3210eaca031f9aaf),
    ("fusion_n(arity=3) | O2+lto", 0x50fccb62a89cd2b9),
    ("fufi_n(arity=3) | O2+lto", 0xf3c814db1e24ac63),
    ("fusion_n(arity=4) | O2+lto", 0x4877c642597daaf5),
    ("fufi_n(arity=4) | O2+lto", 0xd168333d61d96534),
];

#[test]
fn build_digests_are_pinned() {
    let (cold, _) = cold_and_warm();
    let builds: Vec<(String, u64)> = cold
        .iter()
        .map(|b| (b.spec.clone(), b.module.content_fingerprint()))
        .collect();
    assert_pinned(&spec_digests(&builds), &PINNED, &pass_changed());
}

/// The VM results of the small programs' sources and builds above.
const PINNED_RUNS: [(&str, u64); 21] = [
    ("source", 0xa0cf9492dcfb4775),
    ("O2+lto", 0xfff6070b299d1b1c),
    ("O0", 0xa0cf9492dcfb4775),
    ("O1", 0x616a0065282486f6),
    ("O2", 0xcbf13a3facc95659),
    ("O3", 0x1d7030d01f321211),
    ("sub | O2+lto", 0xc68e3a35a0cf9421),
    ("bog | O2+lto", 0xb5a6a953aa82b1fc),
    ("fla(ratio=0.1) | O2+lto", 0x5ef96118f25f4d2f),
    ("fission | O2+lto", 0x687060deb112da40),
    ("fusion | O2+lto", 0x7baf5e3c9800719b),
    ("fufi_sep | O2+lto", 0xb13179cc5a9a8b21),
    ("fufi_ori | O2+lto", 0x6b3e3e574ce36f1e),
    ("fufi_all | O2+lto", 0xac1a791e548380fe),
    ("fla | O2+lto", 0x0623b3b92f86c9e7),
    ("fusion_n(arity=2) | O2+lto", 0x7baf5e3c9800719b),
    ("fufi_n(arity=2) | O2+lto", 0xac1a791e548380fe),
    ("fusion_n(arity=3) | O2+lto", 0x942ead49ba64422a),
    ("fufi_n(arity=3) | O2+lto", 0x1269a4f319cb8f8b),
    ("fusion_n(arity=4) | O2+lto", 0xeafe9dfa70a80fc0),
    ("fufi_n(arity=4) | O2+lto", 0x76e3f1d0efd2d77e),
];

#[test]
fn vm_results_are_pinned() {
    let (cold, _) = cold_and_warm();
    let sources: Vec<u64> = programs().iter().map(run_digest).collect();
    let builds: Vec<(String, u64)> = cold
        .iter()
        .map(|b| (b.spec.clone(), run_digest(&b.module)))
        .collect();
    assert_pinned(&run_digests(&sources, &builds), &PINNED_RUNS, VM_CHANGED);
}

/// The digests of every spec over every `--quick` program, at
/// [`BUILD_MEMO_VERSION`] 1.
const PINNED_QUICK: [(&str, u64); 20] = [
    ("O2+lto", 0x44a02417a4491988),
    ("O0", 0x072d0e9b0fd4adcd),
    ("O1", 0x971cfc4c92881056),
    ("O2", 0xdfd4cb8edf4bc99f),
    ("O3", 0x80d950d49dc97eaf),
    ("sub | O2+lto", 0xf212aea252ae30bb),
    ("bog | O2+lto", 0x34a04c9203868b5b),
    ("fla(ratio=0.1) | O2+lto", 0xd1408d7ddc1ed07e),
    ("fission | O2+lto", 0xaac2df11d255ccdc),
    ("fusion | O2+lto", 0x9278c08d06ea6fd5),
    ("fufi_sep | O2+lto", 0x4d1144f084985a64),
    ("fufi_ori | O2+lto", 0x9bd08c03ea50901d),
    ("fufi_all | O2+lto", 0x0d9dabf5277ffbfc),
    ("fla | O2+lto", 0x2b6b480d0e9adfa2),
    ("fusion_n(arity=2) | O2+lto", 0x8f86b1eba8de6e28),
    ("fufi_n(arity=2) | O2+lto", 0x222d56aaf1a37924),
    ("fusion_n(arity=3) | O2+lto", 0x792dff48ea44332c),
    ("fufi_n(arity=3) | O2+lto", 0x68deedac933c3d16),
    ("fusion_n(arity=4) | O2+lto", 0x12cc5ff841f45e11),
    ("fufi_n(arity=4) | O2+lto", 0xba648f711e8c66b2),
];

/// The VM results of every `--quick` program's source and builds.
const PINNED_QUICK_RUNS: [(&str, u64); 21] = [
    ("source", 0x49d666bb46ad1af2),
    ("O2+lto", 0xcabb5579f2b2c92c),
    ("O0", 0x49d666bb46ad1af2),
    ("O1", 0xe152f4d470ac6237),
    ("O2", 0x5d12a1550a3b29f6),
    ("O3", 0x19bffa88f6f1f5fa),
    ("sub | O2+lto", 0x9b765ebc91b9c5ab),
    ("bog | O2+lto", 0xa9166f26b6306012),
    ("fla(ratio=0.1) | O2+lto", 0xfcfa112e71280c6e),
    ("fission | O2+lto", 0xf599a4d77e6d85dd),
    ("fusion | O2+lto", 0x439d0efe23164edd),
    ("fufi_sep | O2+lto", 0x55ae1b5a8aab0b72),
    ("fufi_ori | O2+lto", 0x4016e320c6419757),
    ("fufi_all | O2+lto", 0x16412a4904096b5e),
    ("fla | O2+lto", 0x2dd957a66e844b1c),
    ("fusion_n(arity=2) | O2+lto", 0x439d0efe23164edd),
    ("fufi_n(arity=2) | O2+lto", 0x16412a4904096b5e),
    ("fusion_n(arity=3) | O2+lto", 0xf9e336247f724963),
    ("fufi_n(arity=3) | O2+lto", 0xcbd8c8d1c7b7d7dc),
    ("fusion_n(arity=4) | O2+lto", 0x58496042f0dc986a),
    ("fufi_n(arity=4) | O2+lto", 0x308eb7c080be13cc),
];

/// The digests the wide pins check, computed once for both.
struct QuickDigests {
    /// Every `--quick` program's source run digest.
    sources: Vec<u64>,
    /// Per build: its spec, content fingerprint and run digest.
    builds: Vec<(String, u64, u64)>,
}

fn quick_digests() -> &'static QuickDigests {
    static DIGESTS: OnceLock<QuickDigests> = OnceLock::new();
    DIGESTS.get_or_init(|| {
        let programs = quick_programs();
        let sources = par_fan_out(&programs, run_digest);
        // One program's builds at a time per worker: only digests are
        // kept.
        let builds: Vec<(String, u64, u64)> = par_fan_out(&programs, |src| {
            build_program(None, src)
                .into_iter()
                .map(|b| {
                    let run = run_digest(&b.module);
                    (b.spec, b.module.content_fingerprint(), run)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(builds.len(), programs.len() * specs().len());
        QuickDigests { sources, builds }
    })
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "hundreds of audited builds: run with --release"
)]
fn quick_build_digests_are_pinned() {
    let fps: Vec<(String, u64)> = quick_digests()
        .builds
        .iter()
        .map(|(spec, fp, _)| (spec.clone(), *fp))
        .collect();
    assert_pinned(&spec_digests(&fps), &PINNED_QUICK, &pass_changed());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "hundreds of audited builds: run with --release"
)]
fn quick_vm_results_are_pinned() {
    let QuickDigests { sources, builds } = quick_digests();
    let runs: Vec<(String, u64)> = builds
        .iter()
        .map(|(spec, _, run)| (spec.clone(), *run))
        .collect();
    assert_pinned(&run_digests(sources, &runs), &PINNED_QUICK_RUNS, VM_CHANGED);
}

/// A damaged record and a well-formed record whose module does not
/// parse are both misses: the build reruns and rewrites the record.
#[test]
fn damaged_and_unparsable_records_rebuild() {
    let dir = scratch("damaged");
    let store = Store::open(&dir).expect("store opens");
    let src = programs().remove(2);
    let spec = "fission | O2+lto";
    let (want, want_ctx) = run_spec_in(None, &src, spec, SEED);
    let key = BuildKey {
        source: src.content_fingerprint(),
        pipeline: Pipeline::parse(spec).unwrap().fingerprint(),
        seed: SEED,
        version: BUILD_MEMO_VERSION,
    };
    run_spec_in(Some(&store), &src, spec, SEED);
    let recorded = store
        .get_build(&key)
        .unwrap()
        .expect("a miss records the build");
    assert_eq!(recorded.module, printer::print_module(&want));

    let bld = fs::read_dir(dir.join("bld"))
        .unwrap()
        .next()
        .expect("one build record")
        .unwrap()
        .path();
    let mut bytes = fs::read(&bld).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&bld, &bytes).unwrap();
    assert!(store.get_build(&key).unwrap().is_none());
    let (rebuilt, ctx) = run_spec_in(Some(&store), &src, spec, SEED);
    assert_eq!(rebuilt, want);
    assert_eq!(ctx.fission_stats, want_ctx.fission_stats);
    assert!(
        store.verify().unwrap().is_empty(),
        "the rebuild healed the record"
    );

    let garbage = StoredBuild {
        module: "module broken\nfunc".into(),
        stats: recorded.stats.clone(),
    };
    store.put_build(&key, &garbage).unwrap();
    let (rebuilt, _) = run_spec_in(Some(&store), &src, spec, SEED);
    assert_eq!(rebuilt, want);
    assert_eq!(store.get_build(&key).unwrap(), Some(recorded));
    fs::remove_dir_all(&dir).unwrap();
}
