//! `khaos-obf` refuses the removed static sharding options, naming the
//! replacement (one process per input), with exit 2 and no panic.

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
