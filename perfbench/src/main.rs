//! `perfbench` — the benchmark binary (see the library docs).
//!
//! ```text
//! perfbench run --workload <repro-quick|build-grid|rank-corpus> --seed N
//!               --seconds S --trace <0|1> [--size full|tiny]
//!               [--fault none|golden|reference]
//! perfbench describe          # every metric, its unit and what it moves
//! perfbench digest FILE       # FNV-1a digest and length, as golden.txt holds them
//! perfbench repro-child ...   # internal: one repro-quick pass
//! ```
//!
//! `run` prints one JSON result line as the last line of stdout. Its
//! working files live under `.bench_work/` in the current directory
//! and are removed before it exits.

use perfbench::{Fault, HostSpeed, Report, RunArgs, Size, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench run --workload <repro-quick|build-grid|rank-corpus> --seed N \
         --seconds S --trace <0|1> [--size full|tiny] [--fault none|golden|reference]\n       \
         perfbench describe | digest FILE | repro-child --out FILE --targets T,.. [--ready]"
    );
    std::process::exit(2);
}

/// `--key value` pairs and bare `--flag`s after the subcommand.
fn flags(args: &[String]) -> Vec<(String, Option<String>)> {
    let mut out = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            usage()
        };
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned(),
            _ => None,
        };
        out.push((key.to_string(), value));
    }
    out
}

fn get<'a>(flags: &'a [(String, Option<String>)], key: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_deref())
}

fn parse<T: std::str::FromStr>(flags: &[(String, Option<String>)], key: &str) -> T {
    get(flags, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("perfbench: --{key} needs a valid value");
            usage()
        })
}

fn run(flags: &[(String, Option<String>)]) {
    let workload = get(flags, "workload")
        .unwrap_or_else(|| usage())
        .to_string();
    let runner: fn(&RunArgs, &mut Report) = match workload.as_str() {
        "repro-quick" => perfbench::repro::run,
        "build-grid" => perfbench::grid::run,
        "rank-corpus" => perfbench::rank::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            usage()
        }
    };
    let trace = match parse::<u8>(flags, "trace") {
        0 => false,
        1 => true,
        _ => usage(),
    };
    let size = match get(flags, "size").unwrap_or("full") {
        "full" => Size::Full,
        "tiny" => Size::Tiny,
        _ => usage(),
    };
    let fault = match get(flags, "fault").unwrap_or("none") {
        "none" => Fault::None,
        "golden" => Fault::Golden,
        "reference" => Fault::Reference,
        _ => usage(),
    };
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let args = RunArgs {
        seed: parse(flags, "seed"),
        seconds: parse(flags, "seconds"),
        trace,
        size,
        fault,
        work: perfbench::fresh_dir(&work, "")
            .canonicalize()
            .expect("work dir"),
    };
    let speed = HostSpeed::start();
    let mut report = Report::default();
    runner(&args, &mut report);
    // The end-to-end times at the reference host speed.
    let slowdown = speed.slowdown();
    drop(speed);
    for name in ["setup_s", "wall_s", "cpu_s"] {
        if let Some(v) = report.get(name) {
            report.set(name, v / slowdown);
        }
    }
    if let Some(v) = report.get("items_per_s") {
        report.set("items_per_s", v * slowdown);
    }
    report.set("host.slowdown", slowdown);
    let rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("checks.fail_rate", rate);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    println!("{}", report.to_json(trace));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    match cmd.as_str() {
        "run" => run(&flags(&argv[1..])),
        "repro-child" => {
            let flags = flags(&argv[1..]);
            let out = PathBuf::from(get(&flags, "out").unwrap_or_else(|| usage()));
            let targets: Vec<String> = get(&flags, "targets")
                .unwrap_or("")
                .split(',')
                .filter(|t| !t.is_empty())
                .map(String::from)
                .collect();
            let ready = flags.iter().any(|(k, _)| k == "ready");
            perfbench::repro::child(&targets, &out, ready);
        }
        "describe" => {
            for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
                for d in defs {
                    println!(
                        "{kind:<10} {:<32} {:<6} {:?}  {}",
                        d.name, d.unit, d.better, d.moves
                    );
                }
            }
        }
        "digest" => {
            let path = argv.get(1).unwrap_or_else(|| usage());
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("perfbench: {path}: {e}");
                std::process::exit(1)
            });
            println!("{:#018x} {}", perfbench::repro::digest(&bytes), bytes.len());
        }
        _ => usage(),
    }
}
