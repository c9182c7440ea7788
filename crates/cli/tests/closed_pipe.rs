//! `ccs … | head`: a reader that goes away early is not an error.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    // A graph document far larger than a pipe buffer, written to a pipe
    // whose read end is closed before the first byte is taken.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ccs"))
        .args(["gen", "layered", "--layers", "32", "--width", "36"])
        .args(["--max-q", "1", "--seed", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ccs starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("ccs exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn an_open_stdout_still_gets_the_output_and_a_newline() {
    let out = Command::new(env!("CARGO_BIN_EXE_ccs"))
        .args(["gen", "pipeline", "--len", "3", "--state", "8"])
        .output()
        .expect("ccs runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.ends_with('\n') && text.contains("\"nodes\""), "{text}");
}
