//! `khaos-obf` — command-line obfuscator for textual KIR modules.
//!
//! ```text
//! khaos-obf <mode|spec> [--seed N] [--arity K] [--o2] [--run] [--stats]
//!                       [--report] [input.kir|--demo NAME]
//!
//!   mode     fission | fusion | fusion-n | fufi-sep | fufi-ori | fufi-all |
//!            sub | bog | fla | fla-10
//!   spec     any khaos-pass pipeline spec, e.g. "fission | fusion(arity=3)"
//!   --arity  constituents per fusFunc for `fusion-n` (2–4, default 3)
//!   --demo   use a generated workload program instead of a file
//!   --o2     run the O2+LTO pipeline before and after obfuscation
//!   --run    execute baseline and obfuscated builds and diff the output
//!   --stats  print fission/fusion statistics
//!   --report print the per-pass timing / IR-delta report
//! ```
//!
//! Everything builds through a `khaos-pass` pipeline: the legacy mode
//! names are aliases for one-atom specs, and any full spec is accepted
//! in their place. The obfuscated module is printed to stdout in the
//! same textual format, so shell pipelines compose:
//! `khaos-obf fufi-all a.kir > a_obf.kir`. One process handles one
//! input; a batch runs one process per input (`xargs -P` splits a list
//! across cores or machines).
//!
//! `KHAOS_METRICS=stderr|path` dumps the metrics registry on exit.

use khaos::pass::{PassCtx, Pipeline};
use khaos::vm::run_to_completion;
use khaos_ir::{parser, printer, Module};
use std::process::ExitCode;

/// The error for the removed static-sharding options.
const SHARD_GONE: &str = "static sharding (--shard, KHAOS_SHARD) is gone: run one process \
     per input instead (`xargs -P N` splits an input list across cores)";

struct Args {
    mode: String,
    seed: u64,
    arity: usize,
    o2: bool,
    run: bool,
    stats: bool,
    report: bool,
    input: Option<String>,
    demo: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    if std::env::var_os("KHAOS_SHARD").is_some() {
        return Err(SHARD_GONE.into());
    }
    let mut args = Args {
        mode: String::new(),
        seed: 0xC60,
        arity: 3,
        o2: false,
        run: false,
        stats: false,
        report: false,
        input: None,
        demo: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--arity" => {
                args.arity = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|k| (2..=4).contains(k))
                    .ok_or("--arity needs an integer in 2..=4")?;
            }
            "--o2" => args.o2 = true,
            "--run" => args.run = true,
            "--stats" => args.stats = true,
            "--report" => args.report = true,
            "--shard" => return Err(SHARD_GONE.into()),
            "--demo" => args.demo = Some(it.next().ok_or("--demo needs a program name")?),
            _ if args.mode.is_empty() => args.mode = a,
            _ if args.input.is_none() => args.input = Some(a),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if args.mode.is_empty() {
        return Err("missing <mode|spec>".into());
    }
    Ok(args)
}

fn load_module(args: &Args) -> Result<Module, String> {
    if let Some(name) = &args.demo {
        return Ok(khaos::workloads::coreutils_program(name, args.seed));
    }
    let path = args
        .input
        .as_ref()
        .ok_or("missing input file (or use --demo NAME)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parser::parse_module(&text).map_err(|e| format!("{path}: {e}"))
}

/// Maps a legacy mode name to its pipeline spec; anything else is
/// treated as a raw spec.
fn mode_spec(mode: &str, arity: usize) -> String {
    match mode {
        "fission" | "fusion" | "sub" | "bog" | "fla" => mode.into(),
        "fusion-n" => format!("fusion_n(arity={arity})"),
        "fufi-sep" => "fufi_sep".into(),
        "fufi-ori" => "fufi_ori".into(),
        "fufi-all" => "fufi_all".into(),
        "fla-10" => "fla(ratio=0.1)".into(),
        raw => raw.into(),
    }
}

fn main() -> ExitCode {
    khaos_obs::cli::exit_quietly_on_closed_stdout();
    let code = run();
    khaos_obs::metrics::maybe_dump();
    code
}

fn run() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("khaos-obf: {e}");
            eprintln!(
                "usage: khaos-obf <fission|fusion|fusion-n|fufi-sep|fufi-ori|fufi-all|sub|bog|fla|fla-10|SPEC> \
                 [--seed N] [--arity K] [--o2] [--run] [--stats] [--report] \
                 [input.kir | --demo NAME]"
            );
            return ExitCode::from(2);
        }
    };

    let mut module = match load_module(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("khaos-obf: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(errs) = khaos_ir::verify::verify_module(&module) {
        eprintln!("khaos-obf: input does not verify: {}", errs[0]);
        return ExitCode::FAILURE;
    }

    let mut spec = mode_spec(&args.mode, args.arity);
    let pipeline = match Pipeline::parse(&spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("khaos-obf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.o2 {
        // The paper's pipeline position: obfuscation in the middle-end,
        // between the baseline optimization and a final re-optimization.
        let baseline_build = Pipeline::parse("O2+lto").expect("static spec");
        if let Err(e) = baseline_build.run(&mut module, &mut PassCtx::new(args.seed)) {
            eprintln!("khaos-obf: baseline build failed: {e}");
            return ExitCode::FAILURE;
        }
        spec = format!("{pipeline} | O2+lto");
    }
    let pipeline = match Pipeline::parse(&spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("khaos-obf: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = module.clone();

    let mut ctx = PassCtx::new(args.seed);
    let report = match pipeline.run(&mut module, &mut ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("khaos-obf: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.run {
        let want = run_to_completion(&baseline, &[]);
        let got = run_to_completion(&module, &[]);
        match (want, got) {
            (Ok(w), Ok(g)) if w.output == g.output && w.exit_code == g.exit_code => {
                eprintln!(
                    "khaos-obf: behaviour preserved (exit {}, {} outputs); cycles {} -> {} ({:+.1}%)",
                    g.exit_code,
                    g.output.len(),
                    w.cycles,
                    g.cycles,
                    (g.cycles as f64 / w.cycles as f64 - 1.0) * 100.0
                );
            }
            (Ok(_), Ok(_)) => {
                eprintln!("khaos-obf: BEHAVIOUR DIVERGED — this is a bug, please report");
                return ExitCode::FAILURE;
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("khaos-obf: execution failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.stats {
        eprintln!(
            "khaos-obf: fission: {} sepFuncs from {} functions (ratio {:.0}%, #BB {:.2}, RR {:.0}%)",
            ctx.fission_stats.sep_funcs,
            ctx.fission_stats.ori_funcs,
            ctx.fission_stats.ratio() * 100.0,
            ctx.fission_stats.avg_blocks(),
            ctx.fission_stats.reduced_ratio() * 100.0,
        );
        eprintln!(
            "khaos-obf: fusion: {} fusFuncs, ratio {:.0}%, #RP {:.2}, #HBB {:.2}, {} trampolines",
            ctx.fusion_stats.fus_funcs,
            ctx.fusion_stats.ratio() * 100.0,
            ctx.fusion_stats.avg_reduced_params(),
            ctx.fusion_stats.avg_innocuous(),
            ctx.fusion_stats.trampolines,
        );
    }
    if args.report {
        eprint!("{report}");
    }
    // With KHAOS_STORE configured, the report becomes a durable
    // experiment artifact keyed by the pipeline's fingerprint.
    if let Some(store) = khaos::store::Store::from_env() {
        let stored = khaos::store::StoredReport::from_pipeline(&module.name, &report);
        match store.put_report(&stored) {
            Ok(()) => eprintln!(
                "khaos-obf: report persisted to {} (pipeline {:016x})",
                store.root().display(),
                report.fingerprint
            ),
            Err(e) => eprintln!("khaos-obf: could not persist report: {e}"),
        }
    }

    print!("{}", printer::print_module(&module));
    ExitCode::SUCCESS
}
