//! `khaos-store` — inspect and maintain an artifact store directory.
//!
//! ```text
//! khaos-store <stats|ls|verify|gc|cat|report|merge> [--max-bytes N] [ARGS] [DIR...]
//!
//!   stats          record counts and byte totals per section
//!   ls             every record with its decoded key
//!   verify         integrity-check every record (exit 1 on damage)
//!   gc             shrink to --max-bytes, deleting oldest records first
//!   cat ADDR       decode one record (content address or section/file)
//!   report         every report record with its metrics, across one or
//!                  more store directories (the shard-merge query view)
//!   merge SRC.. DST  physically consolidate shard stores into DST
//!                  (created if absent): each SRC is integrity-checked
//!                  first and the merge refuses checksum damage and
//!                  same-address content conflicts; records already in
//!                  DST byte-identically are skipped, claim files never
//!                  travel. Grid *completeness* is the experiment
//!                  layer's concern — `experiments figN-merge DST` is
//!                  the command that refuses an incomplete grid with
//!                  the missing-cell listing.
//!   DIR            store directory; defaults to $KHAOS_STORE.
//!                  `report` accepts several DIRs and reads their union
//!                  (first store wins on duplicate keys).
//! ```

use khaos_store::Store;
use std::process::ExitCode;

struct Args {
    command: String,
    max_bytes: Option<u64>,
    /// Positional arguments after the command (needle and/or DIRs).
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        max_bytes: None,
        positional: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-bytes" => {
                let v = it.next().ok_or("--max-bytes needs a byte count")?;
                args.max_bytes = Some(parse_bytes(&v)?);
            }
            _ if args.command.is_empty() => args.command = a,
            _ => args.positional.push(a),
        }
    }
    if args.command.is_empty() {
        return Err("missing command".into());
    }
    Ok(args)
}

/// Parses `N`, `Nk`, `Nm`, `Ng` (binary multiples).
fn parse_bytes(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'm') | Some(b'M') => (&s[..s.len() - 1], 1 << 20),
        Some(b'g') | Some(b'G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("`{s}` is not a byte count (try 500m, 2g, 1048576)"))
}

fn human(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 30 => format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64),
        b if b >= 1 << 20 => format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64),
        b if b >= 1 << 10 => format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64),
        b => format!("{b} B"),
    }
}

const USAGE: &str =
    "usage: khaos-store <stats|ls|verify|gc|cat|report|merge> [--max-bytes N] [ADDR] [DIR...]";

/// Resolves the store directories of a command: the given positionals,
/// or `$KHAOS_STORE` when none were passed.
fn resolve_dirs(positional: &[String]) -> Result<Vec<String>, String> {
    if !positional.is_empty() {
        return Ok(positional.to_vec());
    }
    match std::env::var("KHAOS_STORE") {
        Ok(d) if !d.trim().is_empty() => Ok(vec![d]),
        _ => Err("no store directory (pass DIR or set KHAOS_STORE)".into()),
    }
}

fn open_all(dirs: &[String]) -> std::io::Result<Vec<Store>> {
    // Inspection/maintenance never creates a store: a typo'd DIR must
    // be an error, not a fresh empty store that "verifies clean" or
    // reports every record missing.
    dirs.iter().map(Store::open_existing).collect()
}

fn main() -> ExitCode {
    khaos_obs::cli::exit_quietly_on_closed_stdout();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("khaos-store: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    // `cat` consumes its first positional as the record needle; every
    // other positional (all commands) is a store directory.
    let mut positional = args.positional;
    let needle = if args.command == "cat" {
        if positional.is_empty() {
            eprintln!("khaos-store: cat needs a record address (16 hex digits or section/file)");
            return ExitCode::from(2);
        }
        Some(positional.remove(0))
    } else {
        None
    };
    // `merge SRC... DST` has its own positional grammar (and a
    // write-side destination), handled before the read-side open path.
    if args.command == "merge" {
        return cmd_merge(&positional);
    }
    if args.command != "report" && positional.len() > 1 {
        eprintln!("khaos-store: {} takes at most one DIR", args.command);
        return ExitCode::from(2);
    }
    let dirs = match resolve_dirs(&positional) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("khaos-store: {e}");
            return ExitCode::from(2);
        }
    };
    let stores = match open_all(&dirs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("khaos-store: {e}");
            return ExitCode::FAILURE;
        }
    };

    let result = match args.command.as_str() {
        "stats" => cmd_stats(&stores[0]),
        "ls" => cmd_ls(&stores[0]),
        "verify" => cmd_verify(&stores[0]),
        "cat" => cmd_cat(&stores[0], needle.as_deref().expect("checked above")),
        "report" => cmd_report(&stores),
        "gc" => match args.max_bytes {
            Some(max) => cmd_gc(&stores[0], max),
            None => {
                eprintln!("khaos-store: gc needs --max-bytes");
                return ExitCode::from(2);
            }
        },
        other => {
            eprintln!("khaos-store: unknown command `{other}`");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("khaos-store: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_merge(positional: &[String]) -> ExitCode {
    if positional.len() < 2 {
        eprintln!("khaos-store: merge needs at least one SRC and exactly one DST directory");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let (srcs, dst) = positional.split_at(positional.len() - 1);
    // Sources must already be stores (a typo'd SRC is an error, not an
    // empty merge); the destination is the one directory `merge` may
    // create.
    let dest = match Store::open(&dst[0]) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("khaos-store: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut copied = 0u64;
    let mut skipped = 0u64;
    for dir in srcs {
        let src = match Store::open_existing(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("khaos-store: {e}");
                return ExitCode::FAILURE;
            }
        };
        match dest.merge_from(&src) {
            Ok(s) => {
                println!(
                    "merged {dir}: {} record(s) copied, {} already present",
                    s.copied, s.skipped
                );
                copied += s.copied;
                skipped += s.skipped;
            }
            Err(e) => {
                eprintln!("khaos-store: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "merge: {copied} record(s) copied, {skipped} skipped into {}",
        dest.root().display()
    );
    ExitCode::SUCCESS
}

fn cmd_cat(store: &Store, needle: &str) -> std::io::Result<ExitCode> {
    match store.cat(needle)? {
        Some(dump) => {
            print!("{dump}");
            Ok(ExitCode::SUCCESS)
        }
        None => {
            eprintln!(
                "khaos-store: no record `{needle}` in {}",
                store.root().display()
            );
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_report(stores: &[Store]) -> std::io::Result<ExitCode> {
    // Union across stores, first store wins on duplicate keys —
    // exactly the precedence the shard-merge layer uses.
    let mut seen = std::collections::HashSet::new();
    let mut all = Vec::new();
    for store in stores {
        for r in store.reports()? {
            if seen.insert((r.subject.clone(), r.pipeline, r.seed)) {
                all.push(r);
            }
        }
    }
    all.sort_by(|a, b| (&a.subject, a.pipeline, a.seed).cmp(&(&b.subject, b.pipeline, b.seed)));
    for r in &all {
        let metrics: Vec<String> = r.metrics.iter().map(|(n, v)| format!("{n}={v}")).collect();
        println!(
            "{:<44} pipeline={:016x} seed={:#x} {}",
            r.subject,
            r.pipeline,
            r.seed,
            if metrics.is_empty() {
                format!("spec=`{}` total={}us", r.spec, r.total_micros)
            } else {
                metrics.join(" ")
            }
        );
    }
    println!(
        "{} report record(s) across {} store(s)",
        all.len(),
        stores.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(store: &Store) -> std::io::Result<ExitCode> {
    let s = store.stats()?;
    println!("store: {}", store.root().display());
    println!("{:<12} {:>8} {:>12}", "section", "records", "bytes");
    for (name, sec) in [
        ("embeddings", s.embeddings),
        ("matrices", s.matrices),
        ("reports", s.reports),
        ("quantized", s.quantized),
        ("indexes", s.indexes),
        ("builds", s.builds),
    ] {
        println!("{:<12} {:>8} {:>12}", name, sec.records, human(sec.bytes));
    }
    println!(
        "{:<12} {:>8} {:>12}",
        "total",
        s.total_records(),
        human(s.total_bytes())
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_ls(store: &Store) -> std::io::Result<ExitCode> {
    for r in store.ls()? {
        println!(
            "{:<4} {:<22} {:>12}  {}",
            r.section,
            r.file,
            human(r.bytes),
            r.key.as_deref().unwrap_or("<undecodable>")
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify(store: &Store) -> std::io::Result<ExitCode> {
    let issues = store.verify()?;
    let stats = store.stats()?;
    if issues.is_empty() {
        println!(
            "ok: {} records, {} — all checksums, addresses and shapes verify",
            stats.total_records(),
            human(stats.total_bytes())
        );
        return Ok(ExitCode::SUCCESS);
    }
    for i in &issues {
        println!("BAD {:<28} {}", i.file, i.reason);
    }
    println!(
        "{} of {} records damaged",
        issues.len(),
        stats.total_records()
    );
    Ok(ExitCode::FAILURE)
}

fn cmd_gc(store: &Store, max_bytes: u64) -> std::io::Result<ExitCode> {
    let g = store.gc(max_bytes)?;
    println!(
        "gc: scanned {} records, deleted {} (oldest first): {} -> {} (target {})",
        g.scanned,
        g.deleted,
        human(g.bytes_before),
        human(g.bytes_after),
        human(max_bytes)
    );
    Ok(ExitCode::SUCCESS)
}
