//! Process behaviour shared by the workspace's command-line tools.

use std::io;

/// `EPIPE`, the same number on Linux, macOS and the BSDs.
const EPIPE: i32 = 32;

/// The exit status of a tool whose stdout reader went away: 128 +
/// `SIGPIPE`, what a shell reports for a process that signal stopped,
/// so a script can tell a cut-short run from a finished one.
pub const CLOSED_STDOUT_EXIT: i32 = 141;

/// Makes a closed stdout end the process quietly.
///
/// Rust ignores `SIGPIPE`, so once the reader of a pipe has gone
/// (`khaos-store ls DIR | head -1`) the next write to stdout fails with
/// `EPIPE`, and `println!` turns that failure into a panic with a
/// message and backtrace on stderr. After this call that panic exits
/// the process with [`CLOSED_STDOUT_EXIT`] and prints nothing; every
/// other panic goes to the previous hook unchanged. Sockets are not
/// affected: their writes report `EPIPE` as an error. Call it once,
/// first thing in `main`.
pub fn exit_quietly_on_closed_stdout() {
    let closed = format!(
        "failed printing to stdout: {}",
        io::Error::from_raw_os_error(EPIPE)
    );
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload_as_str() == Some(closed.as_str()) {
            std::process::exit(CLOSED_STDOUT_EXIT);
        }
        previous(info);
    }));
}
