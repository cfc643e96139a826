//! The streaming printer, `Module::content_fingerprint` and the one-pass
//! parser against the printer and parser they replaced, on real code:
//! every `--quick` program raw, built `O2+lto`, and after each Figure-7
//! obfuscation atom both before and after the closing `O2+lto`. The
//! printer must write the reference's text byte for byte, the
//! fingerprint must be FNV-1a over that text, and both parsers must read
//! it back to the same module. Then printed modules with one line cut
//! short or mutated: the new parser never panics, and wherever the
//! reference does not panic both return the same module or the same
//! error on the same line.

// The references name this crate's modules by `crate::` paths; these
// imports make the same paths resolve at this test's root.
use khaos_ir::{constant, function, ids, inst, module, parser, types};

#[allow(dead_code)]
#[path = "../src/printer/reference.rs"]
mod reference_printer;

#[allow(dead_code)]
#[path = "../src/parser/reference.rs"]
mod reference_parser;

mod common;

use khaos_ir::parser::{parse_module, ParseError};
use khaos_ir::printer::print_module;
use khaos_ir::Module;
use proptest::prelude::*;
use proptest::TestRng;
use std::cell::Cell;
use std::panic;
use std::sync::{Once, OnceLock};

/// The first line where two texts differ, for a readable failure.
fn first_difference(a: &str, b: &str) -> String {
    let (mut la, mut lb) = (a.lines(), b.lines());
    for n in 1.. {
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (None, None) => return "texts differ only in line endings".into(),
            (x, y) => return format!("line {n}: {x:?} vs {y:?}"),
        }
    }
    unreachable!()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "builds every --quick program under ten pipelines: run with --release"
)]
fn printer_fingerprint_and_parser_match_the_references_on_quick_builds() {
    let mut builds = 0;
    common::for_each_build(|what, m| {
        let text = print_module(m);
        let oracle = reference_printer::print_module(m);
        assert!(
            text == oracle,
            "{what}: printed text differs from the reference at {}",
            first_difference(&text, &oracle)
        );
        assert_eq!(
            m.content_fingerprint(),
            reference_printer::fnv1a(m),
            "{what}"
        );
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(
            parsed == *m,
            "{what}: parsing the printed text changed the module"
        );
        let by_reference = reference_parser::parse_module(&text).expect("the reference parses");
        assert!(
            by_reference == parsed,
            "{what}: the parsers read different modules"
        );
        builds += 1;
    });
    assert_eq!(builds, common::quick_programs().len() * 20);
}

/// Printed modules to mutate: the smallest `--quick` programs, raw and
/// after `fufi_all | O2+lto` (tagged function pointers, invokes and
/// landing pads).
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut programs = common::quick_programs();
        programs.sort_by_key(Module::inst_count);
        let mut texts = Vec::new();
        for mut m in programs.into_iter().take(4) {
            texts.push(print_module(&m));
            common::run("O2+lto | fufi_all | O2+lto", &mut m);
            texts.push(print_module(&m));
        }
        texts
    })
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// The reference parser's answer, or `None` where it panics (silently:
/// the panic hook stays quiet on this thread meanwhile).
fn reference_parse(text: &str) -> Option<Result<Module, ParseError>> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                default(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let r = panic::catch_unwind(|| reference_parser::parse_module(text));
    QUIET.with(|q| q.set(false));
    r.ok()
}

/// Characters the mutations write: the format's punctuation, digits,
/// letters, a tab and a two-byte character.
const CHARS: [char; 27] = [
    ' ', '%', '@', ':', ',', '(', ')', '[', ']', '{', '}', '=', '-', '+', '.', '>', ';', '0', '1',
    '9', 'a', 'b', 'f', 'n', 'x', '\t', 'é',
];

/// Words the mutations write over a word of a line: out-of-range ids,
/// constants of non-integer types, parentheses the wrong way round,
/// non-ASCII hex and the format's keywords.
const WORDS: [&str; 18] = [
    ")(",
    "ptr:0",
    "void:1",
    "%4294967296",
    "bb4294967296",
    "a\u{e9}0",
    "]",
    "[",
    "->",
    "=",
    "to",
    "unwind",
    "default",
    "pad",
    "%",
    "@",
    "ext:",
    "+",
];

/// `text` with line `line` mutated by `kind` at byte `pos` (rounded down
/// to a character boundary) with character `ch` (or `WORDS[ch]`), and a
/// note of what changed for failure messages.
fn mutate(text: &str, line: usize, kind: u8, pos: usize, ch: usize) -> (String, String) {
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let i = line % lines.len();
    let mut at = pos % (lines[i].len() + 1);
    while !lines[i].is_char_boundary(at) {
        at -= 1;
    }
    let before = lines[i].clone();
    match kind {
        0 => lines[i].truncate(at),
        1 if at < before.len() => {
            lines[i].remove(at);
        }
        2 if at < before.len() => {
            lines[i].remove(at);
            lines[i].insert(at, CHARS[ch % CHARS.len()]);
        }
        4 => {
            lines.remove(i);
        }
        5 => lines.insert(i, before.clone()),
        6 if i + 1 < lines.len() => lines.swap(i, i + 1),
        7 => {
            // The word around `at`, up to spaces, commas and brackets.
            let stop = |c: char| " ,()[]".contains(c);
            let start = before[..at].rfind(stop).map_or(0, |k| k + 1);
            let end = before[at..].find(stop).map_or(before.len(), |k| at + k);
            lines[i].replace_range(start..end, WORDS[ch % WORDS.len()]);
        }
        _ => lines[i].insert(at, CHARS[ch % CHARS.len()]),
    }
    let note = format!(
        "line {}: {before:?} became {:?}",
        i + 1,
        lines.get(i).map_or("", String::as_str)
    );
    (lines.join("\n") + "\n", note)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "parses thousands of modules with both parsers: run with --release"
)]
fn mutated_lines_fail_alike_and_never_panic() {
    let texts = corpus();
    let mut rng = TestRng::for_test("text_ir_quick::mutated_lines");
    // Outcomes: same module, same error, reference panicked.
    let (mut same_module, mut same_error, mut reference_panicked) = (0, 0, 0);
    for _ in 0..3000 {
        let which = (0..texts.len()).sample(&mut rng);
        let line = any::<usize>().sample(&mut rng);
        let kind = (0u8..8).sample(&mut rng);
        let pos = any::<usize>().sample(&mut rng);
        let ch = any::<usize>().sample(&mut rng);
        let (text, note) = mutate(&texts[which], line, kind, pos, ch);
        let got = panic::catch_unwind(|| parse_module(&text))
            .unwrap_or_else(|_| panic!("the parser panicked after {note}"));
        match (reference_parse(&text), got) {
            (None, got) => {
                prop_assert!(
                    got.is_err(),
                    "accepted what the reference panics on after {note}"
                );
                reference_panicked += 1;
            }
            (Some(Ok(want)), Ok(got)) => {
                // NaN != NaN: fall back to the Debug forms.
                prop_assert!(
                    want == got || format!("{want:?}") == format!("{got:?}"),
                    "the parsers read different modules after {note}"
                );
                same_module += 1;
            }
            (Some(want), got) => {
                prop_assert_eq!(got.err(), want.err(), "after {}", note);
                same_error += 1;
            }
        }
    }
    assert!(same_module > 0, "no mutation left a parseable module");
    assert!(same_error > 1000, "only {same_error} mutations were errors");
    assert!(
        reference_panicked > 0,
        "no mutation reached a reference panic"
    );
}
