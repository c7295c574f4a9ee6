//! `pcd`'s exit code does not depend on whether its stdout can be
//! written: a closed stdout pipe (a reader that has gone, as in
//! `pcd yield | true`) must not turn an exit code into a panic's 101.

use std::process::{Command, Stdio};

/// The exit code of `pcd args`, run with stdout on a pipe whose read end
/// was closed before the spawn, so every write to it fails with EPIPE.
fn exit_code_with_closed_stdout(args: &[&str]) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_pcd"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::null())
        .status()
        .expect("pcd starts")
        .code()
}

#[test]
fn yield_exits_0_when_stdout_is_a_closed_pipe() {
    assert_eq!(
        exit_code_with_closed_stdout(&["yield", "--samples", "200"]),
        Some(0)
    );
}

#[test]
fn a_run_exits_0_when_stdout_is_a_closed_pipe() {
    assert_eq!(
        exit_code_with_closed_stdout(&["run", "H2", "--samples", "200"]),
        Some(0)
    );
}

#[test]
fn a_usage_error_exits_1_when_stdout_is_a_closed_pipe() {
    assert_eq!(
        exit_code_with_closed_stdout(&["yield", "--sigma", "nan"]),
        Some(1)
    );
}
