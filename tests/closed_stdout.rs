//! Every command-line tool exits quietly when its stdout reader goes
//! away: `tool ... | head -1` must not print a panic. Each tool runs
//! with a reader that closes after the first line, on an input that
//! makes it keep writing afterwards (more than a pipe buffer, or more
//! lines after a long computation), so each one does hit `EPIPE`: it
//! must exit with `khaos_obs::cli::CLOSED_STDOUT_EXIT` and leave stderr
//! free of `panicked`.

use khaos_obs::cli::CLOSED_STDOUT_EXIT;
use khaos_store::{BuildKey, Store, StoredBuild};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The directory cargo puts this profile's binaries in.
fn bin_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable");
    exe.parent()
        .and_then(Path::parent)
        .expect("target/<profile>/deps")
        .to_path_buf()
}

/// Builds the other packages' tools (this package's `khaos_obf` is
/// built for the test already) in this test's profile.
fn build_tools() {
    let mut cargo = Command::new(env!("CARGO"));
    cargo.args(["build", "-q"]);
    if !cfg!(debug_assertions) {
        cargo.arg("--release");
    }
    for (package, bin) in [
        ("khaos-bench", "experiments"),
        ("khaos-bench", "khaos-lint"),
        ("khaos-obs", "khaos-profile"),
        ("khaos-store", "khaos-store"),
    ] {
        cargo.args(["-p", package, "--bin", bin]);
    }
    let out = cargo
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "building the tools failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn tool(name: &str) -> Command {
    let mut cmd = Command::new(bin_dir().join(name));
    // Keep the tools off the caller's store, trace and metrics files.
    for var in ["KHAOS_STORE", "KHAOS_TRACE", "KHAOS_METRICS", "KHAOS_SHARD"] {
        cmd.env_remove(var);
    }
    cmd
}

/// Runs `cmd` under a reader that closes after one line; returns the
/// first line, the exit code and stderr.
fn head_1(mut cmd: Command) -> (String, Option<i32>, String) {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut first)
        .expect("first line");
    // The reader (and with it the pipe's only read end) is gone.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("stderr");
    let status = child.wait().expect("exit status");
    (first, status.code(), stderr)
}

/// Asserts `cmd` exits quietly under [`head_1`]; returns its first line.
fn assert_quiet(what: &str, cmd: Command) -> String {
    let (first, code, stderr) = head_1(cmd);
    assert!(!first.is_empty(), "{what}: printed nothing");
    assert!(
        !stderr.contains("panicked"),
        "{what}: panicked on a closed stdout:\n{stderr}"
    );
    assert_eq!(
        code,
        Some(CLOSED_STDOUT_EXIT),
        "{what}: expected the closed-stdout exit; stderr:\n{stderr}"
    );
    first
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("khaos-closed-stdout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn tools_exit_quietly_when_stdout_closes() {
    build_tools();

    // khaos_obf: a module print well over a pipe buffer.
    let mut obf = Command::new(env!("CARGO_BIN_EXE_khaos_obf"));
    obf.args(["fla | bog | sub", "--demo", "cat"]);
    assert_quiet("khaos_obf", obf);

    // experiments: the title line, then the table after the builds.
    let mut experiments = tool("experiments");
    experiments.args(["--quick", "fig7"]);
    assert_quiet("experiments", experiments);

    // khaos-lint: thousands of diagnostics over the coreutils suite.
    let mut lint = tool("khaos-lint");
    lint.args(["--suite", "coreutils"]);
    assert_quiet("khaos-lint", lint);

    // khaos-profile: a trace of a few thousand distinct spans.
    let dir = scratch("tools");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let events: String = (1..=3000)
        .map(|i| {
            format!(
                "{{\"name\":\"span:{i}\",\"cat\":\"khaos\",\"ph\":\"X\",\"pid\":1,\"tid\":1000,\
                 \"ts\":{}.0,\"dur\":1.0,\"args\":{{\"id\":{i},\"parent\":0}}}}\n",
                2 * i
            )
        })
        .collect();
    std::fs::write(&trace, events).unwrap();
    let mut profile = tool("khaos-profile");
    profile.arg(&trace).args(["--top", "3000"]);
    assert_quiet("khaos-profile", profile);

    // khaos-store ls: a store of a thousand records.
    let store_dir = dir.join("store");
    let store = Store::open(&store_dir).unwrap();
    let build = StoredBuild {
        module: String::new(),
        stats: Vec::new(),
    };
    for source in 0..1000 {
        let key = BuildKey {
            source,
            pipeline: 1,
            seed: 0,
            version: 1,
        };
        store.put_build(&key, &build).unwrap();
    }
    let mut ls = tool("khaos-store");
    ls.arg("ls").arg(&store_dir);
    assert_quiet("khaos-store", ls);

    std::fs::remove_dir_all(&dir).unwrap();
}
