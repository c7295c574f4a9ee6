//! `pcd`'s exit code does not depend on whether its stderr can be
//! written: a closed stderr pipe must not turn an exit code into a panic's
//! 101.

use std::process::{Command, Stdio};

/// The exit code of `pcd args`, run with stderr on a pipe whose read end
/// was closed before the spawn, so every write to it fails with EPIPE.
fn exit_code_with_closed_stderr(args: &[&str]) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_pcd"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("pcd starts")
        .code()
}

#[test]
fn a_usage_error_exits_1_when_stderr_is_a_closed_pipe() {
    assert_eq!(
        exit_code_with_closed_stderr(&["info", "H2", "--bnd", "2"]),
        Some(1)
    );
}

#[test]
fn a_traced_run_exits_0_when_stderr_is_a_closed_pipe() {
    let trace = std::env::temp_dir().join(format!("pcd-cli-stderr-{}.jsonl", std::process::id()));
    let trace_arg = trace.to_str().expect("utf-8 temp path");
    let code =
        exit_code_with_closed_stderr(&["run", "H2", "--samples", "200", "--trace", trace_arg]);
    let _ = std::fs::remove_file(&trace);
    assert_eq!(code, Some(0));
}
