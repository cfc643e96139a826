//! khaos-lint — static semantic auditor for build pipelines.
//!
//! Runs every example pipeline over the paper's workload suites under
//! [`VerifyPolicy::AuditAfterEach`]: after each pass the module must
//! stay structurally valid *and* preserve its observable-behavior
//! summary (reachable external calls, global read/write/escape sets,
//! exported signatures). Also reports the dataflow lints on the
//! pre-obfuscation inputs: use-before-init sites (defined behavior —
//! KIR zero-initializes locals — but usually a generator bug),
//! removable dead assignments, and unreachable blocks.
//!
//! ```text
//! khaos-lint [--suite NAME]... [--spec SPEC]... [--roots] [--quiet]
//! ```
//!
//! Exits non-zero when any pipeline fails its audit.

use khaos_ir::analysis::cfg::Cfg;
use khaos_ir::analysis::dataflow::{dead_assignments, unreachable_blocks, use_before_init};
use khaos_ir::audit::ModuleSummary;
use khaos_ir::Module;
use khaos_pass::{PassCtx, Pipeline, VerifyPolicy};
use std::process::ExitCode;

/// The plain `-O` sweep, run on the source module as
/// [`khaos_bench::harness::build_at`] does.
const RAW_SPECS: &[&str] = &["O0", "O1", "O2", "O3", "O2+lto"];

/// The obfuscation pipelines at their paper position: applied on top of
/// the `O2+lto` baseline, as [`khaos_bench::harness::khaos_apply`] does.
const OBF_SPECS: &[&str] = &[
    "fission | O2+lto",
    "fusion | O2+lto",
    "fufi_sep | O2+lto",
    "fufi_ori | O2+lto",
    "fufi_all | O2+lto",
    "fusion_n(arity=2) | O2+lto",
    "fusion_n(arity=3) | O2+lto",
    "fusion_n(arity=4) | O2+lto",
    "sub(ratio=0.5) | O2+lto",
    "bog(ratio=0.3) | O2+lto",
    "fla(ratio=0.5) | O2+lto",
];

const SEED: u64 = khaos_bench::harness::SEED;

struct Options {
    suites: Vec<String>,
    specs: Vec<String>,
    roots: bool,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        suites: Vec::new(),
        specs: Vec::new(),
        roots: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--suite" => opts
                .suites
                .push(args.next().ok_or("--suite needs a value")?),
            "--spec" => opts.specs.push(args.next().ok_or("--spec needs a value")?),
            "--roots" => opts.roots = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: khaos-lint [--suite NAME]... [--spec SPEC]... [--roots] [--quiet]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn suite_modules(name: &str) -> Option<Vec<Module>> {
    match name {
        "spec2006" => Some(khaos_workloads::spec2006()),
        "spec2017" => Some(khaos_workloads::spec2017()),
        "coreutils" => Some(khaos_workloads::coreutils()),
        "tiii" => Some(khaos_workloads::tiii()),
        _ => None,
    }
}

/// Static dataflow lints on one input module; returns the number of
/// warnings printed.
fn lint_module(m: &Module, quiet: bool) -> usize {
    let mut warnings = 0;
    for f in &m.functions {
        let cfg = Cfg::compute(f);
        for v in use_before_init(f, &cfg) {
            warnings += 1;
            if !quiet {
                let site = match v.inst {
                    Some(i) => format!("inst {i}"),
                    None => "terminator".to_string(),
                };
                println!(
                    "  warn {}/{}: local {} may be read before initialization at {} {site}",
                    m.name, f.name, v.local, v.block
                );
            }
        }
        let dead = dead_assignments(f, &cfg);
        let removable = dead.iter().filter(|d| d.removable).count();
        if removable > 0 && !quiet {
            println!(
                "  note {}/{}: {removable} removable dead assignment(s)",
                m.name, f.name
            );
        }
        let orphans = unreachable_blocks(f, &cfg);
        if !orphans.is_empty() && !quiet {
            println!(
                "  note {}/{}: {} structurally unreachable block(s)",
                m.name,
                f.name,
                orphans.len()
            );
        }
    }
    warnings
}

/// Runs one pipeline under [`VerifyPolicy::AuditAfterEach`]; returns
/// `true` when the audit (or structural verification) failed.
fn audit_run(suite: &str, m: &Module, spec: &str) -> bool {
    let pipeline = match Pipeline::parse(spec) {
        Ok(p) => p,
        Err(e) => {
            println!("FAIL {suite}/{} `{spec}`: bad spec: {e}", m.name);
            return true;
        }
    };
    let mut work = m.clone();
    let mut ctx = PassCtx::new(SEED).with_verify(VerifyPolicy::AuditAfterEach);
    match pipeline.run(&mut work, &mut ctx) {
        Ok(_) => false,
        Err(e) => {
            println!("FAIL {suite}/{} `{spec}`: {e}", m.name);
            true
        }
    }
}

fn main() -> ExitCode {
    khaos_obs::cli::exit_quietly_on_closed_stdout();
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let suite_names: Vec<String> = if opts.suites.is_empty() {
        ["spec2006", "spec2017", "coreutils", "tiii"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        opts.suites.clone()
    };
    let mut runs = 0usize;
    let mut failures = 0usize;
    let mut warnings = 0usize;
    for sname in &suite_names {
        let Some(mods) = suite_modules(sname) else {
            eprintln!("unknown suite `{sname}` (spec2006|spec2017|coreutils|tiii)");
            return ExitCode::FAILURE;
        };
        for m in &mods {
            warnings += lint_module(m, opts.quiet);
            if opts.roots {
                let s = ModuleSummary::compute(m);
                println!("{sname}/{}: {} audit root(s)", m.name, s.roots.len());
                for (root, eff) in &s.roots {
                    println!(
                        "  root {root}: {} ext call(s), {} global read(s), {} write(s), {} escape(s)",
                        eff.ext_calls.len(),
                        eff.global_reads.len(),
                        eff.global_writes.len(),
                        eff.global_escapes.len()
                    );
                }
            }
            if !opts.specs.is_empty() {
                // Explicit specs run directly on the source module.
                for spec in &opts.specs {
                    runs += 1;
                    failures += audit_run(sname, m, spec) as usize;
                }
                continue;
            }
            for spec in RAW_SPECS {
                runs += 1;
                failures += audit_run(sname, m, spec) as usize;
            }
            // The obfuscation pipelines start from the optimized
            // baseline, matching the harness' `khaos_apply` position.
            let baseline = khaos_bench::harness::build_baseline(m);
            for spec in OBF_SPECS {
                runs += 1;
                failures += audit_run(sname, &baseline, spec) as usize;
            }
        }
        if !opts.quiet {
            println!("suite {sname}: done");
        }
    }
    println!(
        "khaos-lint: {runs} pipeline run(s), {failures} audit failure(s), {warnings} dataflow warning(s)"
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
