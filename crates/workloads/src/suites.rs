//! The concrete benchmark suites (T-I, T-II, T-III).

use crate::generator::{generate, generate_with_vulnerable, ProgramProfile};
use khaos_ir::Module;

fn profile(name: &str, seed: u64) -> ProgramProfile {
    ProgramProfile {
        name: name.into(),
        seed,
        ..ProgramProfile::default()
    }
}

/// T-I part 1: the 19 SPEC CPU 2006 C/C++ programs of Figure 6, with
/// per-program shape profiles echoing the real benchmarks' character.
pub fn spec2006() -> Vec<Module> {
    let mut out = Vec::new();
    let specs: [(&str, usize, usize, f64, f64, u32); 19] = [
        // (name, functions, constructs, loop_rate, float_rate, work)
        ("400.perlbench", 56, 7, 0.25, 0.05, 24),
        ("401.bzip2", 24, 6, 0.45, 0.05, 40),
        ("403.gcc", 72, 8, 0.20, 0.05, 16),
        ("429.mcf", 16, 5, 0.50, 0.05, 48),
        ("433.milc", 28, 6, 0.45, 0.55, 32),
        ("444.namd", 26, 6, 0.40, 0.60, 32),
        ("445.gobmk", 48, 7, 0.30, 0.05, 24),
        ("447.dealII", 40, 6, 0.35, 0.50, 24),
        ("450.soplex", 36, 6, 0.35, 0.45, 24),
        ("453.povray", 44, 6, 0.30, 0.60, 24),
        ("456.hmmer", 26, 6, 0.50, 0.15, 40),
        ("458.sjeng", 30, 6, 0.35, 0.05, 32),
        ("462.libquantum", 14, 5, 0.50, 0.25, 48),
        ("464.h264ref", 42, 7, 0.45, 0.20, 24),
        ("470.lbm", 10, 5, 0.60, 0.50, 64),
        ("471.omnetpp", 44, 6, 0.25, 0.10, 24),
        ("473.astar", 18, 5, 0.45, 0.20, 40),
        ("482.sphinx3", 30, 6, 0.40, 0.45, 32),
        ("483.xalancbmk", 64, 7, 0.20, 0.05, 16),
    ];
    for (i, (name, functions, constructs, loop_rate, float_rate, work)) in
        specs.into_iter().enumerate()
    {
        let mut p = profile(name, 0x2006 + i as u64);
        p.functions = functions;
        p.constructs = constructs;
        p.loop_rate = loop_rate;
        p.float_rate = float_rate;
        p.work_scale = work;
        p.exceptions = matches!(
            name,
            "447.dealII" | "450.soplex" | "453.povray" | "471.omnetpp" | "483.xalancbmk"
        );
        out.push(generate(&p));
    }
    out
}

/// T-I part 2: the 28 SPEC CPU 2017 C/C++ programs of Figure 6.
pub fn spec2017() -> Vec<Module> {
    let names: [&str; 28] = [
        "500.perlbench_r",
        "502.gcc_r",
        "505.mcf_r",
        "508.namd_r",
        "510.parest_r",
        "511.povray_r",
        "519.lbm_r",
        "520.omnetpp_r",
        "523.xalancbmk_r",
        "525.x264_r",
        "526.blender_r",
        "531.deepsjeng_r",
        "538.imagick_r",
        "541.leela_r",
        "544.nab_r",
        "557.xz_r",
        "600.perlbench_s",
        "602.gcc_s",
        "605.mcf_s",
        "619.lbm_s",
        "620.omnetpp_s",
        "623.xalancbmk_s",
        "625.x264_s",
        "631.deepsjeng_s",
        "638.imagick_s",
        "641.leela_s",
        "644.nab_s",
        "657.xz_s",
    ];
    names
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            let mut p = profile(name, 0x2017 + i as u64);
            // Base shape on the benchmark family.
            let family = name.split('.').nth(1).unwrap_or(name);
            let family = family.trim_end_matches("_r").trim_end_matches("_s");
            let (functions, constructs, loop_rate, float_rate, work) = match family {
                "perlbench" => (58, 7, 0.25, 0.05, 20),
                "gcc" => (76, 8, 0.20, 0.05, 14),
                "mcf" => (16, 5, 0.50, 0.05, 48),
                "namd" => (26, 6, 0.40, 0.60, 32),
                "parest" => (48, 6, 0.35, 0.50, 20),
                "povray" => (44, 6, 0.30, 0.60, 24),
                "lbm" => (10, 5, 0.60, 0.50, 64),
                "omnetpp" => (46, 6, 0.25, 0.10, 20),
                "xalancbmk" => (64, 7, 0.20, 0.05, 16),
                "x264" => (40, 7, 0.45, 0.20, 24),
                "blender" => (70, 7, 0.30, 0.45, 14),
                "deepsjeng" => (28, 6, 0.35, 0.05, 32),
                "imagick" => (44, 6, 0.40, 0.50, 20),
                "leela" => (30, 6, 0.35, 0.15, 28),
                "nab" => (22, 6, 0.45, 0.50, 32),
                "xz" => (24, 6, 0.45, 0.05, 36),
                _ => (30, 6, 0.35, 0.15, 24),
            };
            p.functions = functions;
            p.constructs = constructs;
            p.loop_rate = loop_rate;
            p.float_rate = float_rate;
            p.work_scale = work;
            p.exceptions = matches!(
                family,
                "parest" | "povray" | "omnetpp" | "xalancbmk" | "blender" | "leela"
            );
            generate(&p)
        })
        .collect()
}

/// The 108 CoreUtils 8.32 tool names (T-II).
pub const COREUTILS_NAMES: [&str; 108] = [
    "arch",
    "b2sum",
    "base32",
    "base64",
    "basename",
    "basenc",
    "cat",
    "chcon",
    "chgrp",
    "chmod",
    "chown",
    "chroot",
    "cksum",
    "comm",
    "cp",
    "csplit",
    "cut",
    "date",
    "dd",
    "df",
    "dir",
    "dircolors",
    "dirname",
    "du",
    "echo",
    "env",
    "expand",
    "expr",
    "factor",
    "false",
    "fmt",
    "fold",
    "groups",
    "head",
    "hostid",
    "id",
    "install",
    "join",
    "kill",
    "link",
    "ln",
    "logname",
    "ls",
    "md5sum",
    "mkdir",
    "mkfifo",
    "mknod",
    "mktemp",
    "mv",
    "nice",
    "nl",
    "nohup",
    "nproc",
    "numfmt",
    "od",
    "paste",
    "pathchk",
    "pinky",
    "pr",
    "printenv",
    "printf",
    "ptx",
    "pwd",
    "readlink",
    "realpath",
    "rm",
    "rmdir",
    "runcon",
    "seq",
    "sha1sum",
    "sha224sum",
    "sha256sum",
    "sha384sum",
    "sha512sum",
    "shred",
    "shuf",
    "sleep",
    "sort",
    "split",
    "stat",
    "stdbuf",
    "stty",
    "sum",
    "sync",
    "tac",
    "tail",
    "tee",
    "test",
    "timeout",
    "touch",
    "tr",
    "true",
    "truncate",
    "tsort",
    "tty",
    "uname",
    "unexpand",
    "uniq",
    "unlink",
    "uptime",
    "users",
    "vdir",
    "wc",
    "who",
    "whoami",
    "yes",
    "shuffle_mix",
    "digest_mix",
];

/// One CoreUtils-sized program.
pub fn coreutils_program(name: &str, seed: u64) -> Module {
    let mut p = profile(name, 0xC0DE + seed);
    let h = name
        .bytes()
        .fold(7u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
    p.functions = 8 + (h % 12) as usize; // 8..19 functions
    p.constructs = 4 + (h % 3) as usize;
    p.loop_rate = 0.35;
    p.float_rate = if h % 5 == 0 { 0.2 } else { 0.0 };
    p.table_size = if h % 3 == 0 { 3 } else { 0 };
    p.exceptions = false;
    p.setjmp = h % 7 == 0; // a handful use setjmp, as real coreutils do
    p.globals = 2 + (h % 3) as usize;
    p.work_scale = 24;
    generate(&p)
}

/// T-II: all 108 CoreUtils stand-ins.
pub fn coreutils() -> Vec<Module> {
    COREUTILS_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| coreutils_program(name, i as u64))
        .collect()
}

/// Table 3: program → (vulnerable function, CVE) list.
pub const TIII_CVES: &[(&str, &[(&str, &str)])] = &[
    (
        "jerryscript",
        &[("opfunc_spread_arguments", "CVE-2020-13991")],
    ),
    ("quickjs", &[("compute_stack_size_rec", "CVE-2020-22876")]),
    (
        "busybox-1.33.1",
        &[
            ("getvar_s", "CVE-2021-42382"),
            ("handle_special", "CVE-2021-42384"),
        ],
    ),
    (
        "openssl-1.1.1",
        &[
            ("init_sig_algs", "CVE-2021-3449"),
            ("EC_GROUP_set_generator", "CVE-2019-1547"),
        ],
    ),
    (
        "libcurl-7.34.0",
        &[
            ("suboption", "CVE-2021-22925,CVE-2021-22898"),
            ("init_wc_data", "CVE-2020-8285"),
            ("conn_is_conn", "CVE-2020-8231"),
            ("tftp_connect", "CVE-2019-5482,CVE-2019-5436"),
            ("ftp_state_list", "CVE-2018-1000120"),
            ("alloc_addbyter", "CVE-2016-8618"),
            ("Curl_cookie_getlist", "CVE-2016-8623"),
            (
                "ConnectionExists",
                "CVE-2016-8616,CVE-2016-0755,CVE-2014-0138,CVE-2015-3143",
            ),
        ],
    ),
];

/// T-III: the five vulnerable embedded-software stand-ins.
pub fn tiii() -> Vec<Module> {
    TIII_CVES
        .iter()
        .enumerate()
        .map(|(i, (name, funcs))| {
            let mut p = profile(name, 0x111 + i as u64);
            // Real embedded binaries carry hundreds of functions; the
            // escape@k metric only means something when the top-50 is a
            // small fraction of the candidate pool.
            let (functions, constructs, loops) = match *name {
                "jerryscript" => (200, 7, 0.30),
                "quickjs" => (190, 7, 0.30),
                "busybox-1.33.1" => (230, 6, 0.35),
                "openssl-1.1.1" => (260, 6, 0.30),
                _ => (280, 6, 0.30), // libcurl
            };
            p.functions = functions;
            p.constructs = constructs;
            p.loop_rate = loops;
            p.float_rate = 0.05;
            p.table_size = 4;
            p.exceptions = *name == "jerryscript" || *name == "quickjs";
            p.setjmp = *name == "quickjs"; // real QuickJS uses setjmp-style error paths
            p.work_scale = 16;
            let vuln_names: Vec<&str> = funcs.iter().map(|(f, _)| *f).collect();
            generate_with_vulnerable(&p, &vuln_names)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_vm::run_to_completion;

    #[test]
    fn coreutils_names_are_unique() {
        let mut names: Vec<&str> = COREUTILS_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 108);
    }

    #[test]
    fn tiii_programs_run() {
        for m in tiii() {
            khaos_ir::verify::assert_valid(&m);
            run_to_completion(&m, &[2]).unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn spec2017_profiles_differ_by_family() {
        let progs = spec2017();
        let gcc = progs.iter().find(|m| m.name == "502.gcc_r").unwrap();
        let lbm = progs.iter().find(|m| m.name == "519.lbm_r").unwrap();
        assert!(gcc.functions.len() > lbm.functions.len() * 3);
    }
}
