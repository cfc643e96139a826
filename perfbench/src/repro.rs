//! `repro-quick` — the paper reproduction exactly as users run it.
//!
//! **Why.** `experiments --quick all` is the north-star command. Most
//! of its pipeline runs repeat a build and many embeddings are computed
//! more than once, so build-memo, spec-macro and cache changes show
//! here, and so does the store write path (`emb/`, `mat/`, `rep/`).
//!
//! **What the seed selects.** Nothing: the suites are fixed.
//!
//! **Set-up** (`setup_s`, median of [`SETUP_REPS`]): a child start-up
//! to ready — process spawn, a fresh store opened, and the four suites
//! generated once. A start-up takes tens of milliseconds, so half of
//! the set-ups run before the timed phase and half after it: the
//! median then samples the host's speed over the whole run, not over
//! one moment of it.
//!
//! **Timed phase.** Passes until `--seconds` have elapsed (at least
//! one; a pass takes about 20 s on one core of a 2-core x86-64 host, so
//! at `run_seconds` = 20 that is one or two); each pass is one fresh
//! child process ([`child`]) against a fresh, empty `KHAOS_STORE`. The
//! child calls the `khaos_bench::experiments` drivers of every `--quick
//! all` target in order, timing each call, so its stdout must be
//! byte-identical to `experiments --quick all`:
//! the parent checks its FNV-1a digest and length against the golden
//! captured when the benchmark was defined (`golden.txt`). The child
//! reads the registry, cache and store statistics itself, because the
//! `experiments` binary never dumps them.
//!
//! A traced run makes one untraced pass and one traced pass (the child
//! with `KHAOS_TRACE` set, so its trace also carries the program's own
//! `pipeline:*`/`pass:*`/`embed:*` spans). The per-layer numbers come
//! from that trace.
//!
//! **Layer metric → end-to-end metric it should move.** Every
//! `experiments.<target>_s`, `pass.*`, `ir.verify_audit_s`,
//! `diff.embed*_s`, `pass.useful_build_ratio`,
//! `diff.useful_embed_ratio` and `store.*` footprint → `wall_s` (and
//! `cpu_s` for the CPU-bound layers).

use crate::grid::pass_layer;
use crate::{median, secs, Fault, Layers, Report, RunArgs, Size};
use khaos_bench::experiments::{self, Scope};
use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-ups per run (half before the timed phase, half after);
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 20;

/// The `experiments --quick all` targets in order, with their metrics.
pub const TARGETS: [(&str, &str); 13] = [
    ("table1", "experiments.table1_s"),
    ("table2", "experiments.table2_s"),
    ("table3", "experiments.table3_s"),
    ("fig6", "experiments.fig6_s"),
    ("fig7", "experiments.fig7_s"),
    ("fig8", "experiments.fig8_s"),
    ("fig9", "experiments.fig9_s"),
    ("fig10", "experiments.fig10_s"),
    ("fig11", "experiments.fig11_s"),
    ("ablations", "experiments.ablations_s"),
    ("ext-arity", "experiments.ext-arity_s"),
    ("ext-dataflow", "experiments.ext-dataflow_s"),
    ("ext-stripped", "experiments.ext-stripped_s"),
];

/// The targets of the tiny smoke instance.
pub const TINY_TARGETS: [&str; 3] = ["table1", "table2", "table3"];

/// Golden digests: `<name> <fnv1a hex> <bytes>` per line.
const GOLDEN: &str = include_str!("../golden.txt");

/// The golden `(digest, bytes)` of `experiments --quick` over `name`'s
/// targets (`all` or `tiny`).
pub fn golden(name: &str) -> (u64, usize) {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some(name)).then(|| {
                let d = u64::from_str_radix(f.next()?.trim_start_matches("0x"), 16).ok()?;
                Some((d, f.next()?.parse().ok()?))
            })?
        })
        .unwrap_or_else(|| panic!("no golden `{name}` in golden.txt"))
}

/// FNV-1a digest of captured output (the store's own hash).
pub fn digest(bytes: &[u8]) -> u64 {
    khaos_store::fnv1a(bytes)
}

/// Runs one experiments target the way the `experiments` binary does.
fn run_target(t: &str) {
    let scope = Scope::Quick;
    match t {
        "table1" => experiments::table1(),
        "table2" => experiments::table2(scope),
        "table3" => experiments::table3(),
        "fig6" => experiments::fig6(scope),
        "fig7" => experiments::fig7(scope),
        "fig8" => experiments::fig8(scope),
        "fig9" => experiments::fig9(scope),
        "fig10" => experiments::fig10(scope),
        "fig11" => experiments::fig11(scope),
        "ablations" => experiments::ablations(scope),
        "ext-arity" => experiments::ext_arity(scope),
        "ext-dataflow" => experiments::ext_dataflow(scope),
        "ext-stripped" => experiments::ext_stripped(scope),
        other => panic!("unknown experiments target `{other}`"),
    }
}

/// The child process: with `ready`, only start up (open the store,
/// generate the suites); otherwise run `targets` in order, printing
/// exactly what `experiments --quick` prints, and write its own
/// measurements to `out` as `key value` lines.
pub fn child(targets: &[String], out: &Path, ready: bool) {
    let store = khaos_bench::artifact_store();
    if ready {
        let _ = khaos_workloads::spec2006();
        let _ = khaos_workloads::spec2017();
        let _ = khaos_workloads::coreutils();
        let _ = khaos_workloads::tiii();
        std::fs::write(out, "ready 1\n").expect("write child stats");
        return;
    }
    let mut lines = String::new();
    for t in targets {
        let start = Instant::now();
        {
            let _span = khaos_obs::span_with(|| format!("bench:experiment:{t}"));
            run_target(t);
        }
        lines.push_str(&format!("target {t} {}\n", secs(start)));
    }
    lines.push_str(&format!("cpu_s {}\n", crate::cpu_seconds()));
    lines.push_str(&format!("peak_rss_mb {}\n", crate::peak_rss_mb()));
    let registry = khaos_obs::Registry::global();
    for counter in ["embeds_computed", "disk_hits"] {
        let n = registry.counter(&format!("diff.cache.{counter}")).get();
        lines.push_str(&format!("{counter} {n}\n"));
    }
    if let Some(store) = store {
        let s = store.stats().expect("store stats");
        let builds = store
            .reports()
            .expect("store reports")
            .iter()
            .filter(|r| r.metrics.is_empty())
            .count();
        lines.push_str(&format!(
            "emb_records {}\nemb_bytes {}\nmat_bytes {}\nrep_records {}\nbuild_reports {builds}\n",
            s.embeddings.records, s.embeddings.bytes, s.matrices.bytes, s.reports.records
        ));
    }
    std::fs::write(out, lines).expect("write child stats");
}

/// What the parent learns from one child process.
struct ChildRun {
    wall: f64,
    stdout: Vec<u8>,
    ok: bool,
    stats: HashMap<String, f64>,
    targets: Vec<(String, f64)>,
}

fn spawn_child(args: &RunArgs, targets: &[&str], ready: bool, trace: Option<&Path>) -> ChildRun {
    let store = crate::fresh_dir(&args.work, "repro-store");
    let out = args.work.join("child-stats.txt");
    let _ = std::fs::remove_file(&out);
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = Command::new(exe);
    cmd.arg("repro-child")
        .arg("--out")
        .arg(&out)
        .arg("--targets")
        .arg(targets.join(","))
        .env("KHAOS_STORE", &store)
        .env_remove("KHAOS_TRACE")
        .env_remove("KHAOS_METRICS")
        .env_remove("KHAOS_SHARD")
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if ready {
        cmd.arg("--ready");
    }
    if let Some(t) = trace {
        let _ = std::fs::remove_file(t);
        cmd.env("KHAOS_TRACE", t);
    }
    let start = Instant::now();
    let output = cmd.output().expect("spawn repro child");
    let wall = secs(start);
    let mut stats = HashMap::new();
    let mut per_target = Vec::new();
    for line in std::fs::read_to_string(&out).unwrap_or_default().lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["target", t, v] => per_target.push((t.to_string(), v.parse().unwrap_or(0.0))),
            [k, v] => {
                stats.insert(k.to_string(), v.parse().unwrap_or(0.0));
            }
            _ => {}
        }
    }
    let _ = std::fs::remove_dir_all(&store);
    ChildRun {
        wall,
        stdout: output.stdout,
        ok: output.status.success(),
        stats,
        targets: per_target,
    }
}

/// One span of a Chrome trace-event line.
struct TraceSpan {
    name: String,
    dur_s: f64,
    id: u64,
    parent: u64,
}

fn field<'a>(line: &'a str, key: &str, end: char) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    Some(&rest[..rest.find(end)?])
}

fn parse_trace(text: &str) -> Vec<TraceSpan> {
    text.lines()
        .filter_map(|l| {
            Some(TraceSpan {
                name: field(l, "\"name\":\"", '"')?.to_string(),
                dur_s: field(l, "\"dur\":", ',')?.parse::<f64>().ok()? * 1e-6,
                id: field(l, "\"id\":", ',')?.parse().ok()?,
                parent: field(l, "\"parent\":", '}')?.parse().ok()?,
            })
        })
        .collect()
}

/// Charges the program's spans to the layer metrics by self time and
/// returns `(pipeline runs, program span self time)`.
fn charge_trace(spans: &[TraceSpan], layers: &mut Layers) -> (usize, f64) {
    let mut child_time: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        *child_time.entry(s.parent).or_default() += s.dur_s;
    }
    let (mut runs, mut covered) = (0, 0.0);
    for s in spans.iter().filter(|s| !s.name.starts_with("bench:")) {
        let own = (s.dur_s - child_time.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        covered += own;
        if s.name.starts_with("pipeline:") {
            runs += 1;
        } else if s.name == "pass:verify" || s.name == "pass:audit" {
            layers.add("ir.verify_audit_s", own);
        } else if let Some(atom) = s.name.strip_prefix("pass:") {
            layers.add(pass_layer(atom), own);
        } else if let Some(tool) = s.name.strip_prefix("embed:") {
            layers.add("diff.embed_s", own);
            if let Some(m) = crate::rank::embed_metric(tool) {
                layers.add(m, own);
            }
        }
    }
    (runs, covered)
}

/// Runs the workload into `report`.
pub fn run(args: &RunArgs, report: &mut Report) {
    let targets: Vec<&str> = match args.size {
        Size::Full => TARGETS.iter().map(|t| t.0).collect(),
        Size::Tiny => TINY_TARGETS.to_vec(),
    };
    let (mut want, want_len) = golden(if args.size == Size::Full {
        "all"
    } else {
        "tiny"
    });
    if args.fault == Fault::Golden {
        want ^= 1;
    }

    let setup = |report: &mut Report, setups: &mut Vec<f64>| {
        for _ in 0..SETUP_REPS / 2 {
            let c = spawn_child(args, &[], true, None);
            report.check(c.ok, || "repro child failed to start up".into());
            setups.push(c.wall);
        }
    };
    let mut setups = Vec::new();
    setup(report, &mut setups);

    let check = |report: &mut Report, c: &ChildRun| {
        report.check(c.ok, || "repro child exited with failure".into());
        report.check(
            digest(&c.stdout) == want && c.stdout.len() == want_len,
            || {
                format!(
                    "stdout digest {:#x} ({} bytes) != golden {want:#x} ({want_len} bytes)",
                    digest(&c.stdout),
                    c.stdout.len()
                )
            },
        );
    };
    let mut passes: Vec<ChildRun> = Vec::new();
    let started = Instant::now();
    while passes.is_empty() || (!args.trace && secs(started) < args.seconds) {
        let c = spawn_child(args, &targets, false, None);
        check(report, &c);
        passes.push(c);
    }
    setup(report, &mut setups);
    report.set("setup_s", median(&setups));
    let stat = |c: &ChildRun, k: &str| c.stats.get(k).copied().unwrap_or(0.0);
    let target_ms: Vec<f64> = passes
        .iter()
        .flat_map(|c| c.targets.iter().map(|t| t.1 * 1e3))
        .collect();
    let total = |f: &dyn Fn(&ChildRun) -> f64| passes.iter().map(f).sum::<f64>();
    let wall = total(&|c| c.wall);
    report.set("wall_s", wall / passes.len() as f64);
    report.set("cpu_s", total(&|c| stat(c, "cpu_s")) / passes.len() as f64);
    let rss: Vec<f64> = passes.iter().map(|c| stat(c, "peak_rss_mb")).collect();
    report.set("peak_rss_mb", median(&rss));
    report.set("items_per_s", target_ms.len() as f64 / wall);
    report.set("item_p50_ms", median(&target_ms));
    report.set_item_tail(&target_ms);

    let first = &passes[0];
    for (t, secs) in &first.targets {
        if let Some((_, metric)) = TARGETS.iter().find(|(name, _)| name == t) {
            report.set(metric, *secs);
        }
    }
    report.set("store.emb_bytes", stat(first, "emb_bytes"));
    report.set("store.mat_bytes", stat(first, "mat_bytes"));
    report.set("store.rep_records", stat(first, "rep_records"));
    // Every table load — computed, or re-read from disk after the
    // memory tier evicted it — against the distinct tables stored.
    let loads = stat(first, "embeds_computed") + stat(first, "disk_hits");
    report.set(
        "diff.useful_embed_ratio",
        stat(first, "emb_records") / loads.max(1.0),
    );

    if args.trace {
        let trace_path = args.work.join("repro-child.trace.jsonl");
        let traced = spawn_child(args, &targets, false, Some(&trace_path));
        check(report, &traced);
        let spans = parse_trace(&std::fs::read_to_string(&trace_path).unwrap_or_default());
        let mut layers = Layers::default();
        let (runs, covered) = charge_trace(&spans, &mut layers);
        layers.into_report(report);
        report.set("pass.runs", runs as f64);
        report.set(
            "pass.useful_build_ratio",
            stat(&traced, "build_reports") / (runs as f64).max(1.0),
        );
        report.set("trace.coverage", covered / stat(&traced, "cpu_s").max(1e-9));
        report.set(
            "trace.overhead_pct",
            (traced.wall / first.wall - 1.0) * 100.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_lines_parse_and_charge_self_time() {
        let text = "\
{\"name\":\"pass:fission\",\"cat\":\"khaos\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.000,\"dur\":2000.000,\"args\":{\"id\":2,\"parent\":1}}
{\"name\":\"pipeline:fission | O2+lto\",\"cat\":\"khaos\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"dur\":3000.000,\"args\":{\"id\":1,\"parent\":9}}
{\"name\":\"bench:experiment:fig6\",\"cat\":\"khaos\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"dur\":9000.000,\"args\":{\"id\":9,\"parent\":0}}
";
        let spans = parse_trace(text);
        assert_eq!(spans.len(), 3);
        let mut layers = Layers::default();
        let (runs, covered) = charge_trace(&spans, &mut layers);
        assert_eq!(runs, 1);
        assert!((covered - 0.003).abs() < 1e-12, "{covered}");
        assert!((layers.get("pass.khaos_s") - 0.002).abs() < 1e-12);
    }

    #[test]
    fn goldens_parse() {
        assert!(golden("all").1 > 0);
        assert!(golden("tiny").1 > 0);
    }
}
