//! `khaos-obf` refuses the removed static sharding options, naming the
//! replacement (one process per input), with exit 2 and no panic; and it
//! answers malformed input modules with exit 1 and the parse error's line,
//! and modules whose globals overflow the VM's data arena with exit 1 and
//! the trap, never a panic.

use std::process::Command;

#[test]
fn static_sharding_is_refused_naming_one_process_per_input() {
    let with_flag = {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_khaos_obf"));
        cmd.args(["fission", "--shard", "0/2", "--demo", "cat"]);
        cmd.env_remove("KHAOS_SHARD");
        cmd
    };
    let with_env = {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_khaos_obf"));
        cmd.args(["fission", "--demo", "cat"]);
        cmd.env("KHAOS_SHARD", "0/2");
        cmd
    };
    for mut cmd in [with_flag, with_env] {
        let out = cmd.output().expect("khaos-obf runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd:?} wrote a module");
        assert!(stderr.contains("one process per input"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn malformed_input_is_a_parse_error_naming_the_line() {
    let body = |line: &str| {
        format!(
            "module m\nfunc f(0) -> void {{\n  prov original f\n  locals i64\nbb0:\n  {line}\n  ret\n}}\n"
        )
    };
    let cases = [
        (
            "close_before_open",
            "module m\nfunc f)(0) -> void {\n}\n".to_string(),
            2,
        ),
        (
            "switch_close_before_open",
            body("switch i64 %0 ] [ default bb0"),
            6,
        ),
        (
            "non_ascii_hex",
            "module m\nglobal g align 8 {\n  bytes a\u{e9}0\n}\n".into(),
            3,
        ),
    ];
    for (name, text, line) in cases {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.kir"));
        std::fs::write(&path, text).expect("write the input");
        let out = Command::new(env!("CARGO_BIN_EXE_khaos_obf"))
            .arg("fission")
            .arg(&path)
            .output()
            .expect("khaos-obf runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} wrote a module");
        assert!(
            stderr.contains(&format!("line {line}:")),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

#[test]
fn globals_past_the_data_arena_are_a_trap_not_a_panic() {
    // 5,000,000 zero bytes and then an initialized word: the word lies
    // past the default 4 MiB data arena.
    let text = "module big\nglobal g align 8 {\n  zero 5000000\n  int i64 1\n}\n\n\
                func main(0) -> i64 {\n  prov original main\n  locals i64\nbb0:\n  ret i64:0\n}\n";
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("big_globals.kir");
    std::fs::write(&path, text).expect("write the input");
    let out = Command::new(env!("CARGO_BIN_EXE_khaos_obf"))
        .args(["fission", "--run"])
        .arg(&path)
        .output()
        .expect("khaos-obf runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("execution failed: trap: globals: global `g` does not fit"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
