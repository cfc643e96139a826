//! `khaos-profile` — render a `KHAOS_TRACE` JSONL file into a text
//! flamegraph and per-span summary table, and validate its schema.
//!
//! ```text
//! khaos-profile <trace.jsonl> [--validate] [--assert-coverage PCT] [--top N]
//! ```
//!
//! * default — print a summary table (per span name: count, total,
//!   self, mean, max) and a text flamegraph (span trees aggregated by
//!   path, self-time bars);
//! * `--validate` — additionally fail (exit 1) unless every line is a
//!   well-formed Chrome `"ph":"X"` event with the khaos-obs schema,
//!   span ids are unique per process, parent links resolve, and every
//!   child interval nests inside its parent;
//! * `--assert-coverage PCT` — fail unless, for every root span of
//!   the largest tree, the self-times of the tree sum to within
//!   `100−PCT` percent of the root's wall clock (the "where did this
//!   query's 4 ms go?" acceptance check);
//! * `--top N` — table rows to print (default 24).
//!
//! The parser is a tiny recursive-descent JSON reader: the offline
//! container has no serde, and the schema is our own emitter's.

use std::collections::BTreeMap;
use std::process::ExitCode;

// ---------------------------------------------------------------
// Minimal JSON value parser (objects/arrays/strings/numbers/atoms).
// ---------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        raw.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{raw}` at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("short \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------
// Trace model.
// ---------------------------------------------------------------

/// One complete span event, times in microseconds.
#[derive(Clone, Debug)]
struct Event {
    name: String,
    pid: u64,
    tid: u64,
    ts: f64,
    dur: f64,
    id: u64,
    parent: u64,
}

fn parse_event(line: &str, lineno: usize) -> Result<Event, String> {
    let v = Parser::new(line)
        .parse()
        .map_err(|e| format!("line {lineno}: {e}"))?;
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| format!("line {lineno}: missing `{key}`"))
    };
    let num = |key: &str| {
        field(key)?
            .as_f64()
            .ok_or_else(|| format!("line {lineno}: `{key}` is not a number"))
    };
    let ph = field("ph")?
        .as_str()
        .ok_or_else(|| format!("line {lineno}: `ph` is not a string"))?;
    if ph != "X" {
        return Err(format!("line {lineno}: `ph` is `{ph}`, want `X`"));
    }
    let name = field("name")?
        .as_str()
        .ok_or_else(|| format!("line {lineno}: `name` is not a string"))?
        .to_string();
    let args = field("args")?;
    let arg_num = |key: &str| {
        args.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("line {lineno}: missing numeric `args.{key}`"))
    };
    let ts = num("ts")?;
    let dur = num("dur")?;
    if dur < 0.0 || ts < 0.0 {
        return Err(format!("line {lineno}: negative ts/dur"));
    }
    Ok(Event {
        name,
        pid: num("pid")? as u64,
        tid: num("tid")? as u64,
        ts,
        dur,
        id: arg_num("id")? as u64,
        parent: arg_num("parent")? as u64,
    })
}

/// Clock-read slack when checking child-inside-parent containment, in
/// microseconds (two adjacent monotonic reads on different cores).
const NEST_SLACK_US: f64 = 50.0;

/// Validates per-process id uniqueness, parent resolution, and
/// interval containment; returns the error list.
fn validate(events: &[Event]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut by_pid: BTreeMap<u64, BTreeMap<u64, &Event>> = BTreeMap::new();
    for e in events {
        if let Some(old) = by_pid.entry(e.pid).or_default().insert(e.id, e) {
            errors.push(format!(
                "pid {}: span id {} used by both `{}` and `{}`",
                e.pid, e.id, old.name, e.name
            ));
        }
    }
    for e in events {
        if e.parent == 0 {
            continue;
        }
        match by_pid[&e.pid].get(&e.parent) {
            None => errors.push(format!(
                "pid {}: span `{}` ({}) has unknown parent {}",
                e.pid, e.name, e.id, e.parent
            )),
            Some(p) => {
                let starts_ok = e.ts + NEST_SLACK_US >= p.ts;
                let ends_ok = e.ts + e.dur <= p.ts + p.dur + NEST_SLACK_US;
                if !starts_ok || !ends_ok {
                    errors.push(format!(
                        "pid {}: span `{}` [{:.1}..{:.1}us] escapes parent `{}` [{:.1}..{:.1}us]",
                        e.pid,
                        e.name,
                        e.ts,
                        e.ts + e.dur,
                        p.name,
                        p.ts,
                        p.ts + p.dur
                    ));
                }
            }
        }
    }
    errors
}

/// Per-event self time: duration minus direct children durations
/// (clamped at zero — concurrent children can overlap the parent).
fn self_times(events: &[Event]) -> Vec<f64> {
    let mut child_dur: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for e in events {
        if e.parent != 0 {
            *child_dur.entry((e.pid, e.parent)).or_default() += e.dur;
        }
    }
    events
        .iter()
        .map(|e| (e.dur - child_dur.get(&(e.pid, e.id)).copied().unwrap_or(0.0)).max(0.0))
        .collect()
}

fn fmt_us(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if us >= 1_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{us:.1}us")
    }
}

fn summary_table(events: &[Event], selfs: &[f64], top: usize) {
    struct Row {
        count: u64,
        total: f64,
        self_t: f64,
        max: f64,
    }
    let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
    for (e, s) in events.iter().zip(selfs) {
        let r = rows.entry(&e.name).or_insert(Row {
            count: 0,
            total: 0.0,
            self_t: 0.0,
            max: 0.0,
        });
        r.count += 1;
        r.total += e.dur;
        r.self_t += s;
        r.max = r.max.max(e.dur);
    }
    let mut rows: Vec<(&str, Row)> = rows.into_iter().collect();
    rows.sort_by(|a, b| b.1.total.total_cmp(&a.1.total).then(a.0.cmp(b.0)));
    println!(
        "{:<34} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "span", "count", "total", "self", "mean", "max"
    );
    for (name, r) in rows.iter().take(top) {
        println!(
            "{:<34} {:>8} {:>10} {:>10} {:>10} {:>10}",
            name,
            r.count,
            fmt_us(r.total),
            fmt_us(r.self_t),
            fmt_us(r.total / r.count as f64),
            fmt_us(r.max)
        );
    }
    if rows.len() > top {
        println!("… {} more span names (raise --top)", rows.len() - top);
    }
}

/// Aggregated path node for the text flamegraph.
#[derive(Default)]
struct PathNode {
    total: f64,
    count: u64,
    children: BTreeMap<String, PathNode>,
}

fn flamegraph(events: &[Event]) {
    // Index events and group children under parents; roots carry
    // parent 0 or an unresolvable parent (trace cut mid-tree).
    let by_id: BTreeMap<(u64, u64), &Event> = events.iter().map(|e| ((e.pid, e.id), e)).collect();
    let mut root = PathNode::default();
    for e in events {
        // Build this event's name path by walking to its root.
        let mut path = vec![e.name.as_str()];
        let mut cur = e;
        while cur.parent != 0 {
            match by_id.get(&(cur.pid, cur.parent)) {
                Some(p) => {
                    path.push(p.name.as_str());
                    cur = p;
                }
                None => break,
            }
        }
        path.reverse();
        let mut node = &mut root;
        for part in path {
            node = node.children.entry(part.to_string()).or_default();
        }
        node.total += e.dur;
        node.count += 1;
    }
    let grand: f64 = root.children.values().map(|n| n.total).sum();
    if grand <= 0.0 {
        return;
    }
    println!("\nflame (total time per span path):");
    fn render(node: &PathNode, depth: usize, grand: f64) {
        let mut kids: Vec<(&String, &PathNode)> = node.children.iter().collect();
        kids.sort_by(|a, b| b.1.total.total_cmp(&a.1.total).then(a.0.cmp(b.0)));
        for (name, kid) in kids {
            let frac = kid.total / grand;
            let bar = "#".repeat(((frac * 40.0).round() as usize).clamp(1, 40));
            println!(
                "{:indent$}{:<w$} {:>10} ×{:<6} {}",
                "",
                name,
                fmt_us(kid.total),
                kid.count,
                bar,
                indent = depth * 2,
                w = 36usize.saturating_sub(depth * 2),
            );
            render(kid, depth + 1, grand);
        }
    }
    render(&root, 0, grand);
}

/// The coverage assertion: on the tree under the longest root span,
/// the self-times must sum to within `tolerance` of the root's wall
/// clock (they sum exactly when children nest sequentially; slack
/// covers clock-read jitter).
fn check_coverage(events: &[Event], selfs: &[f64], pct: f64) -> Result<String, String> {
    let root_idx = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.parent == 0)
        .max_by(|a, b| a.1.dur.total_cmp(&b.1.dur))
        .map(|(i, _)| i)
        .ok_or("no root span found")?;
    let root = &events[root_idx];
    // Collect the subtree.
    let mut children: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.parent != 0 {
            children.entry((e.pid, e.parent)).or_default().push(i);
        }
    }
    let mut stack = vec![root_idx];
    let mut self_sum = 0.0;
    let mut members = Vec::new();
    while let Some(i) = stack.pop() {
        self_sum += selfs[i];
        members.push(events[i].name.clone());
        if let Some(kids) = children.get(&(events[i].pid, events[i].id)) {
            stack.extend(kids.iter().copied());
        }
    }
    let frac = if root.dur > 0.0 {
        self_sum / root.dur
    } else {
        1.0
    };
    let line = format!(
        "coverage: root `{}` wall={} self-sum={} ({:.1}%) over {} spans",
        root.name,
        fmt_us(root.dur),
        fmt_us(self_sum),
        frac * 100.0,
        members.len()
    );
    if frac * 100.0 + 1e-9 < pct || frac > 1.0 + (100.0 - pct) / 100.0 {
        Err(format!("{line} — outside the {pct}% bound"))
    } else {
        Ok(line)
    }
}

fn main() -> ExitCode {
    khaos_obs::cli::exit_quietly_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut do_validate = false;
    let mut coverage: Option<f64> = None;
    let mut top = 24usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--validate" => do_validate = true,
            "--assert-coverage" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(p) if (0.0..=100.0).contains(&p) => coverage = Some(p),
                _ => {
                    eprintln!("--assert-coverage wants a percentage 0..=100");
                    return ExitCode::FAILURE;
                }
            },
            "--top" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => top = n.max(1),
                None => {
                    eprintln!("--top wants a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: khaos-profile <trace.jsonl> [--validate] \
                     [--assert-coverage PCT] [--top N]"
                );
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("unknown argument `{other}` (see --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: khaos-profile <trace.jsonl> [--validate] [--assert-coverage PCT]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("khaos-profile: cannot read `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut events = Vec::new();
    let mut parse_errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_event(line, i + 1) {
            Ok(e) => events.push(e),
            Err(e) => parse_errors.push(e),
        }
    }
    println!(
        "{path}: {} events, {} processes, {} timeline lanes",
        events.len(),
        events
            .iter()
            .map(|e| e.pid)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        events
            .iter()
            .map(|e| (e.pid, e.tid))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );
    if events.is_empty() && parse_errors.is_empty() {
        eprintln!("khaos-profile: empty trace");
        return ExitCode::FAILURE;
    }

    let selfs = self_times(&events);
    summary_table(&events, &selfs, top);
    flamegraph(&events);

    let mut failed = false;
    if do_validate {
        let mut errors = parse_errors.clone();
        errors.extend(validate(&events));
        if errors.is_empty() {
            println!("\nvalidate: ok ({} events)", events.len());
        } else {
            for e in errors.iter().take(20) {
                eprintln!("validate: {e}");
            }
            eprintln!("validate: {} error(s)", errors.len());
            failed = true;
        }
    } else if !parse_errors.is_empty() {
        eprintln!("warning: {} unparseable line(s)", parse_errors.len());
    }
    if let Some(pct) = coverage {
        match check_coverage(&events, &selfs, pct) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("khaos-profile: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
