//! End-to-end smoke test of the `anosy-served` binary: pipes the canned request script through
//! the real process twice — once over stdin/stdout (`--ticked` batching) and once over a real
//! loopback TCP socket (`--listen`) — and diffs both full response transcripts against the one
//! checked-in expectation. The CI smoke lane runs the same pipe from the shell; this test keeps
//! it under plain `cargo test` too.
//!
//! The transcript is deterministic end to end: synthesis is deterministic, tick batching is
//! response-equivalent to the sequential replay (proptested in `proptest_frontend.rs`), and
//! sharded counting reports counterexamples in deterministic chunk order. Both transports run
//! the same reactor, so their outputs must be **byte-identical** — a diff here means the *wire
//! format or protocol semantics changed*; update `smoke.expected` only for deliberate protocol
//! changes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

const SCRIPT: &str = include_str!("data/smoke.script");
const EXPECTED: &str = include_str!("data/smoke.expected");

#[test]
fn canned_script_round_trips_through_the_binary() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(["--layout", "x:0:400 y:0:400", "--workers", "2", "--ticked"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("anosy-served spawns");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(SCRIPT.as_bytes())
        .expect("script is written");
    let output = child.wait_with_output().expect("anosy-served exits");

    assert!(
        output.status.success(),
        "anosy-served failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let transcript = String::from_utf8(output.stdout).expect("transcript is UTF-8");
    assert_eq!(
        transcript, EXPECTED,
        "the anosy-served transcript diverged from tests/data/smoke.expected"
    );
}

#[test]
fn the_same_transcript_rides_a_loopback_socket() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args([
            "--layout",
            "x:0:400 y:0:400",
            "--workers",
            "2",
            "--ticked",
            "--listen",
            "127.0.0.1:0",
            "--accept",
            "1",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("anosy-served spawns");

    // The binary announces the actual port (we bound port 0) as its first stdout line.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner line is readable");
    let addr = banner
        .trim()
        .strip_prefix("# listening on ")
        .unwrap_or_else(|| panic!("unexpected banner `{banner}`"))
        .to_string();

    // One client connection: write the whole script (the kernel chunks it however it likes),
    // half-close, and read responses until the server closes. The trailing unterminated line
    // of the script doubles as the mid-line half-close case.
    let mut stream = TcpStream::connect(&addr).expect("loopback connect");
    stream.write_all(SCRIPT.as_bytes()).expect("script is written");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut transcript = String::new();
    stream.read_to_string(&mut transcript).expect("transcript is readable");

    let status = child.wait().expect("anosy-served exits");
    assert!(status.success(), "anosy-served failed in --listen mode");
    assert_eq!(
        transcript, EXPECTED,
        "the socket transcript diverged from the stdin/stdout transcript"
    );
}

#[test]
fn bad_arguments_fail_with_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(["--layout", "not a layout"])
        .output()
        .expect("anosy-served runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));

    let output =
        Command::new(env!("CARGO_BIN_EXE_anosy-served")).output().expect("anosy-served runs");
    assert_eq!(output.status.code(), Some(2), "a missing --layout is refused");

    let output = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(["--layout", "x:0:400", "--accept", "1"])
        .output()
        .expect("anosy-served runs");
    assert_eq!(output.status.code(), Some(2), "--accept without --listen is refused");

    // Modifier flags without the option they modify, and unknown flags, are refused, not
    // silently ignored.
    for (args, what) in [
        (&["--compact-every", "3"][..], "--compact-every without --journal"),
        (&["--journal-flush", "on-tick"][..], "--journal-flush without --journal"),
        (&["--verify-on-load"][..], "--verify-on-load without --warm-start or --journal"),
        (&["--listen", "127.0.0.1:0", "--tick-ms", "5"][..], "--tick-ms without --ticked"),
        (&["--no-telemetry"][..], "the unknown flag --no-telemetry"),
        (&["--io-log-cap", "8"][..], "the unknown flag --io-log-cap"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
            .args(["--layout", "x:0:400 y:0:400"])
            .args(args)
            .output()
            .expect("anosy-served runs");
        assert_eq!(output.status.code(), Some(2), "{what} is refused");
        assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"), "{what}");
    }
}
