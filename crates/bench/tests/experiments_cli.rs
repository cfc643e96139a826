//! The `experiments` command line refuses bad input before it runs
//! anything: every target is checked first, and the removed static
//! sharding options name their replacement. Each case exits 2 with an
//! empty stdout and no panic.

use std::process::Command;

fn experiments(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(args);
    for var in ["KHAOS_STORE", "KHAOS_TRACE", "KHAOS_METRICS", "KHAOS_SHARD"] {
        cmd.env_remove(var);
    }
    cmd
}

/// Runs `cmd`, asserts it was refused without running anything, and
/// returns its stderr.
fn refused(mut cmd: Command) -> String {
    let out = cmd.output().expect("experiments runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{cmd:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{cmd:?} ran something: {:?}",
        out.stdout
    );
    assert!(!stderr.contains("panicked"), "{cmd:?}: {stderr}");
    stderr
}

#[test]
fn every_target_is_checked_before_any_runs() {
    let stderr = refused(experiments(&["--quick", "fig7", "fgi10"]));
    assert!(stderr.contains("unknown experiment `fgi10`"), "{stderr}");
    // A merge target takes store DIRs and runs alone.
    let stderr = refused(experiments(&[
        "--quick",
        "fig7",
        "fig10-merge",
        "/nonexistent",
    ]));
    assert!(stderr.contains("`fig10-merge` runs alone"), "{stderr}");
    refused(experiments(&["--quick", "table1", "--bogus"]));
}

#[test]
fn static_sharding_is_refused_naming_elastic_workers() {
    for cmd in [experiments(&["--quick", "--shard", "0/2", "table1"]), {
        let mut cmd = experiments(&["--quick", "table1"]);
        cmd.env("KHAOS_SHARD", "0/2");
        cmd
    }] {
        let stderr = refused(cmd);
        assert!(
            stderr.contains("--elastic") && stderr.contains("KHAOS_STORE"),
            "{stderr}"
        );
    }
}
