//! Tiny-size smoke of every workload: every declared metric is emitted
//! with its unit, the checks pass, and a seeded fault makes them fail.
//! Also pins `BENCHMARK.json` to the metric tables.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{Better, MetricDef, END_TO_END, PER_LAYER};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["repro-quick", "build-grid", "rank-corpus"];

/// Runs one tiny workload and returns its result line.
fn run(workload: &str, trace: u8, fault: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args([
            "--trace",
            &trace.to_string(),
            "--size",
            "tiny",
            "--fault",
            fault,
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 result");
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of `name` in a result line, asserting its unit.
fn value(line: &str, d: &MetricDef) -> f64 {
    let key = format!("\"{}\": {{\"value\": ", d.name);
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("{} missing in {line}", d.name))
        + key.len();
    let rest = &line[start..];
    let end = rest.find(',').expect("value ends");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{}\"}}", d.unit)),
        "{} has the wrong unit in {line}",
        d.name
    );
    rest[..end].parse().expect("numeric value")
}

fn counts(line: &str) -> (u64, u64) {
    let grab = |k: &str| {
        let s = line.find(k).expect(k) + k.len();
        line[s..]
            .split(',')
            .next()
            .unwrap()
            .trim()
            .parse::<u64>()
            .unwrap()
    };
    (grab("\"attempted\": "), grab("\"failed\": "))
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for w in WORKLOADS {
        let e2e = run(w, 0, "none");
        assert!(e2e.starts_with("{\"correct\": true"), "{w}: {e2e}");
        let (attempted, failed) = counts(&e2e);
        assert!(attempted > 0 && failed == 0, "{w}: {e2e}");
        for d in END_TO_END {
            assert!(
                value(&e2e, d) > 0.0,
                "{w}: end-to-end {} must be positive",
                d.name
            );
        }
        let layers = run(w, 1, "none");
        for d in PER_LAYER {
            value(&layers, d);
        }
        let fail_rate = PER_LAYER
            .iter()
            .find(|d| d.name == "checks.fail_rate")
            .unwrap();
        assert_eq!(value(&layers, fail_rate), 0.0, "{w}");
    }
}

#[test]
fn seeded_faults_make_the_checks_fail() {
    for (w, fault) in [
        ("repro-quick", "golden"),
        ("build-grid", "reference"),
        ("rank-corpus", "reference"),
    ] {
        let line = run(w, 1, fault);
        assert!(line.starts_with("{\"correct\": false"), "{w}: {line}");
        let fail_rate = PER_LAYER
            .iter()
            .find(|d| d.name == "checks.fail_rate")
            .unwrap();
        assert!(value(&line, fail_rate) > 0.0, "{w}: {line}");
    }
}

#[test]
fn benchmark_json_declares_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let better = match d.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            d.name, d.unit
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("\"better\":").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len(),
        "extra metrics declared"
    );
}
