//! `dlc` as a process: its output may go to a reader that stops
//! early, and a bad option ends it with exit 2 before any work.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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

#[test]
fn an_absurd_prefetch_degree_is_refused_before_the_run() {
    // A degree of 10^9 would issue a billion fills per triggering load.
    let path = std::env::temp_dir().join(format!("dlc_cli_prefetch_{}.mc", std::process::id()));
    std::fs::write(
        &path,
        "int a[64];\n\
         int main() { int i; int s; s = 0;\n\
           for (i = 0; i < 64; i = i + 1) { s = s + a[i]; }\n\
           print(s); return 0; }\n",
    )
    .expect("write program");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dlc"))
        .arg("run")
        .arg(&path)
        .args(["--prefetch", "1000000000"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dlc starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("dlc ran on with --prefetch 1000000000");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("dlc exits");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--prefetch degree must be at most 64"),
        "{stderr}"
    );
}
