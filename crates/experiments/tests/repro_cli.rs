//! `repro`'s flags are its only knobs: `--engine` selects the
//! simulator core, a bad value is a usage error, and no environment
//! variable reaches the engine the pipeline runs. Its output may go
//! to a reader that stops early.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use dl_obs::Json;

fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("repro starts")
}

/// Runs `repro` with a manifest on `table6`, which needs no
/// simulation, and returns the engine the manifest records: the
/// pipeline's, which every memoized simulation runs under.
fn manifest_engine(name: &str, flags: &[&str], env: &[(&str, &str)]) -> String {
    let path: PathBuf =
        std::env::temp_dir().join(format!("repro_cli_{name}_{}.json", std::process::id()));
    let path_arg = path.display().to_string();
    let mut args = vec!["--jobs", "1", "--manifest", &path_arg];
    args.extend_from_slice(flags);
    args.push("table6");
    let out = repro(&args, env);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("manifest written");
    std::fs::remove_file(&path).ok();
    let doc = Json::parse(&text).expect("manifest parses");
    match doc.get("sim").and_then(|sim| sim.get("engine")) {
        Some(Json::Str(engine)) => engine.clone(),
        other => panic!("manifest has no sim.engine: {other:?}"),
    }
}

#[test]
fn engine_flag_selects_the_engine_and_the_environment_does_not() {
    assert_eq!(manifest_engine("step", &["--engine", "step"], &[]), "step");
    assert_eq!(
        manifest_engine("env", &[], &[("DL_SIM_ENGINE", "step")]),
        "block"
    );
}

#[test]
fn unknown_engine_is_a_usage_error() {
    let out = repro(&["--engine", "jit", "list"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown engine 'jit'"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // The read end is gone before `repro` starts, as in
    // `repro list | true`: its first write meets a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("repro starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
