//! `khaos-serve` — run and exercise the corpus-search daemon.
//!
//! ```text
//! khaos-serve serve    --store DIR [--addr HOST:PORT] [--port-file PATH]
//! khaos-serve build    --store DIR [--tool NAME] [--config N] [--rows N]
//!                      [--dim N] [--seed N]
//! khaos-serve ping     (--addr HOST:PORT | --port-file PATH) [--token N]
//! khaos-serve query    (--addr | --port-file) --store DIR --tool NAME
//!                      [--as-tool NAME] [--config N] [--row I] [--k N]
//!                      [--nprobe N]
//! khaos-serve stats    (--addr | --port-file)
//! khaos-serve metrics  (--addr | --port-file)
//! khaos-serve shutdown (--addr | --port-file)
//! khaos-serve bad-frame (--addr | --port-file)
//!
//!   serve      load every index segment from the store, bind (port 0 =
//!              OS-assigned; the bound address goes to stdout and, with
//!              --port-file, to PATH), answer until a shutdown frame
//!   build      build a deterministic synthetic corpus index and persist
//!              it — the CI smoke corpus
//!   query      rank the top k corpus rows for row I of the tool's own
//!              indexed corpus (read client-side from the store), so the
//!              top hit must be the row itself; --as-tool sends the
//!              request under a different tool name (daemon-side miss
//!              smoke: expects the structured unknown-index error)
//!   metrics    print the daemon's rendered metrics registry (kind-25
//!              frame): request counters, per-request latency
//!              histograms, uptime, and the daemon process' global
//!              index/store telemetry
//!   bad-frame  send deliberate garbage and print the daemon's
//!              structured error reply (exits 0 only on an error frame)
//! ```

use khaos_index::{corpus_fingerprint, IndexParams, IvfIndex, RowMeta};
use khaos_serve::protocol::{Message, QueryReq, ERR_BAD_FRAME};
use khaos_serve::{Client, ServerHandle};
use khaos_store::Store;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    command: String,
    store: Option<String>,
    addr: Option<String>,
    port_file: Option<String>,
    tool: String,
    as_tool: Option<String>,
    config: u64,
    rows: usize,
    dim: usize,
    seed: u64,
    row: usize,
    k: usize,
    nprobe: usize,
    token: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        command: String::new(),
        store: std::env::var("KHAOS_STORE").ok(),
        addr: None,
        port_file: None,
        tool: "VulSeeker".to_string(),
        as_tool: None,
        config: 0,
        rows: 2000,
        dim: 64,
        seed: 0xC60_2023,
        row: 0,
        k: 10,
        nprobe: 0,
        token: 0xBEEF,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--store" => a.store = Some(val("--store")?),
            "--addr" => a.addr = Some(val("--addr")?),
            "--port-file" => a.port_file = Some(val("--port-file")?),
            "--tool" => a.tool = val("--tool")?,
            "--as-tool" => a.as_tool = Some(val("--as-tool")?),
            "--config" => a.config = num(&val("--config")?)?,
            "--rows" => a.rows = num(&val("--rows")?)? as usize,
            "--dim" => a.dim = num(&val("--dim")?)? as usize,
            "--seed" => a.seed = num(&val("--seed")?)?,
            "--row" => a.row = num(&val("--row")?)? as usize,
            "--k" => a.k = num(&val("--k")?)? as usize,
            "--nprobe" => a.nprobe = num(&val("--nprobe")?)? as usize,
            "--token" => a.token = num(&val("--token")?)?,
            _ if a.command.is_empty() => a.command = arg,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.command.is_empty() {
        return Err(
            "missing command (serve, build, ping, query, stats, metrics, shutdown, bad-frame)"
                .into(),
        );
    }
    Ok(a)
}

fn num(s: &str) -> Result<u64, String> {
    let (digits, radix) = match s.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (s, 10),
    };
    u64::from_str_radix(digits, radix).map_err(|e| format!("bad number {s:?}: {e}"))
}

fn addr_of(a: &Args) -> Result<String, String> {
    if let Some(addr) = &a.addr {
        return Ok(addr.clone());
    }
    if let Some(path) = &a.port_file {
        return std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .map_err(|e| format!("cannot read --port-file {path}: {e}"));
    }
    Err("need --addr or --port-file".into())
}

fn store_of(a: &Args) -> Result<Store, String> {
    let dir = a.store.as_ref().ok_or("need --store (or $KHAOS_STORE)")?;
    Store::open(dir).map_err(|e| format!("cannot open store {dir}: {e}"))
}

/// Deterministic clustered synthetic corpus: `rows` unit vectors in
/// 32 loose clusters — enough structure for IVF cells to mean
/// something, no RNG stream to drift between hosts.
fn synth_corpus(rows: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<RowMeta>) {
    let data = (0..rows)
        .map(|i| {
            let cluster = i % 32;
            (0..dim)
                .map(|d| {
                    let base = (((cluster * 131 + d * 17) % 255) as f64 / 127.5) - 1.0;
                    let h = (i as u64 ^ seed)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left((d % 61) as u32);
                    base + ((h as f64 / u64::MAX as f64) - 0.5) * 0.25
                })
                .collect()
        })
        .collect();
    let meta = (0..rows)
        .map(|i| RowMeta {
            binary: 0x5EED_0000 + (i / 64) as u64,
            function: (i % 64) as u32,
            name: format!("synth_{i}"),
        })
        .collect();
    (data, meta)
}

fn run(a: &Args) -> Result<(), String> {
    match a.command.as_str() {
        "serve" => {
            let store = store_of(a)?;
            let bind = a.addr.clone().unwrap_or_else(|| "127.0.0.1:0".to_string());
            let handle = ServerHandle::serve_store(&store, &bind)
                .map_err(|e| format!("cannot serve: {e}"))?;
            println!("{}", handle.addr());
            if let Some(path) = &a.port_file {
                // Atomic write: a polling client must never read half
                // an address.
                let tmp = format!("{path}.tmp");
                std::fs::write(&tmp, format!("{}\n", handle.addr()))
                    .and_then(|()| std::fs::rename(&tmp, path))
                    .map_err(|e| format!("cannot write --port-file {path}: {e}"))?;
            }
            handle.wait();
            Ok(())
        }
        "build" => {
            let store = store_of(a)?;
            let (data, meta) = synth_corpus(a.rows, a.dim, a.seed);
            let emb = Arc::new(khaos_diff::engine::FunctionEmbeddings::from_rows(data));
            let fp = corpus_fingerprint(&a.tool, a.config, a.dim, &meta);
            let idx = IvfIndex::build(
                &a.tool,
                a.config,
                emb,
                meta,
                &IndexParams {
                    seed: a.seed,
                    ..IndexParams::default()
                },
            );
            idx.save(&store)
                .map_err(|e| format!("cannot save index: {e}"))?;
            println!(
                "built {} rows={} dim={} nlist={} nprobe={} corpus={fp:016x}",
                a.tool,
                idx.len(),
                idx.dim(),
                idx.nlist(),
                idx.default_nprobe()
            );
            Ok(())
        }
        "ping" => {
            let mut c = client(a)?;
            let t = c.ping(a.token).map_err(|e| format!("ping failed: {e}"))?;
            if t != a.token {
                return Err(format!("pong token {t:#x} != sent {:#x}", a.token));
            }
            println!("pong {t:#x}");
            Ok(())
        }
        "query" => {
            let store = store_of(a)?;
            let segments =
                IvfIndex::load_all(&store).map_err(|e| format!("cannot load segments: {e}"))?;
            let local = segments
                .iter()
                .find(|i| i.tool() == a.tool && (a.config == 0 || i.config() == a.config))
                .ok_or(format!("store has no index for tool {:?}", a.tool))?;
            if a.row >= local.len() {
                return Err(format!(
                    "--row {} out of range ({} corpus rows)",
                    a.row,
                    local.len()
                ));
            }
            let q = local.exact_rows().row(a.row).to_vec();
            let wire_tool = a.as_tool.clone().unwrap_or_else(|| a.tool.clone());
            let expect_miss = wire_tool != a.tool;
            let mut c = client(a)?;
            let result = c.query(QueryReq {
                tool: wire_tool,
                config: a.config,
                k: a.k as u32,
                nprobe: a.nprobe as u32,
                q,
            });
            if expect_miss {
                return match result {
                    Err(e) if e.to_string().contains("daemon error 2") => {
                        println!("daemon diagnosed: {e}");
                        Ok(())
                    }
                    Err(e) => Err(format!("expected the unknown-index error, got: {e}")),
                    Ok(_) => Err("expected the unknown-index error, got hits".into()),
                };
            }
            let hits = result.map_err(|e| format!("query failed: {e}"))?;
            for h in &hits {
                println!(
                    "row={} score={:.6} bin={:016x} fn={} {}",
                    h.row, h.score, h.binary, h.function, h.name
                );
            }
            let top = hits.first().ok_or("daemon returned no hits")?;
            if top.row != a.row as u64 {
                return Err(format!(
                    "self-query top hit is row {} (expected {})",
                    top.row, a.row
                ));
            }
            Ok(())
        }
        "stats" => {
            let mut c = client(a)?;
            let s = c.stats().map_err(|e| format!("stats failed: {e}"))?;
            println!("uptime_secs {}", s.uptime_secs);
            println!("queries {}", s.queries);
            println!("pings {}", s.pings);
            println!("stats_reqs {}", s.stats_reqs);
            println!("metrics_reqs {}", s.metrics_reqs);
            println!("errors {}", s.errors);
            for i in &s.indexes {
                println!(
                    "index {} cfg={:016x} corpus={:016x} rows={} dim={} nlist={} nprobe={}",
                    i.tool, i.config, i.corpus, i.rows, i.dim, i.nlist, i.nprobe
                );
            }
            Ok(())
        }
        "metrics" => {
            let mut c = client(a)?;
            let text = c.metrics().map_err(|e| format!("metrics failed: {e}"))?;
            print!("{text}");
            Ok(())
        }
        "shutdown" => {
            let mut c = client(a)?;
            c.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
            println!("daemon acknowledged shutdown");
            Ok(())
        }
        "bad-frame" => {
            let mut c = client(a)?;
            let reply = c
                .send_raw(b"this is not a KHST frame at all................")
                .map_err(|e| format!("no structured reply to garbage: {e}"))?;
            match reply {
                Message::Error { code, message } if code == ERR_BAD_FRAME => {
                    println!("daemon diagnosed: {message}");
                    Ok(())
                }
                other => Err(format!("expected a kind-18 error frame, got {other:?}")),
            }
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn client(a: &Args) -> Result<Client, String> {
    let addr = addr_of(a)?;
    Client::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

fn main() -> ExitCode {
    khaos_obs::cli::exit_quietly_on_closed_stdout();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("khaos-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let code = match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("khaos-serve: {e}");
            ExitCode::FAILURE
        }
    };
    khaos_obs::metrics::maybe_dump();
    code
}
