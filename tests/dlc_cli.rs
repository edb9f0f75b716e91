//! `dlc`'s output may go to a reader that stops early.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // The read end is gone before `dlc` starts, as in `dlc bench-diff
    // a.json a.json | true`: its first write meets a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let record = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_e2e.json");
    let out = Command::new(env!("CARGO_BIN_EXE_dlc"))
        .args(["bench-diff", record, record])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("dlc starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
