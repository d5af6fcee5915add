//! A reader that closes the CLI's stdout early (`greencell run | head -1`)
//! ends the command quietly: exit status 0, no panic and no error line.
//! A results directory the CLI cannot write is an error: a non-zero exit
//! with an `error:` line, and no panic.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Runs `greencell args` 20 times in a scratch working directory, each
/// time with the read end of its stdout closed before it writes anything.
fn closed_stdout_ends_quietly(args: &[&str]) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "greencell-cli-pipe-{}-{}",
        std::process::id(),
        args[0]
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for run in 0..20 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_greencell"))
            .args(args)
            .current_dir(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn greencell");
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("wait for greencell");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success(),
            "greencell {args:?} (run {run}): {}\n{stderr}",
            output.status
        );
        assert!(
            !stderr.contains("panicked") && !stderr.lines().any(|l| l.starts_with("error")),
            "greencell {args:?} (run {run}) wrote to stderr:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn run_with_a_closed_stdout_exits_zero() {
    closed_stdout_ends_quietly(&["run", "--horizon", "30"]);
}

#[test]
fn figure_with_a_closed_stdout_exits_zero() {
    closed_stdout_ends_quietly(&["fig2a", "--tiny", "--horizon", "5", "--v-values", "1e5,2e5"]);
}

#[test]
fn faults_with_a_closed_stdout_exits_zero() {
    closed_stdout_ends_quietly(&["faults", "--tiny", "--horizon", "3"]);
}

#[test]
fn faults_with_an_unwritable_results_dir_fails() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("greencell-cli-results-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // A plain file where the results directory belongs.
    std::fs::write(dir.join("results"), "not a directory").expect("results file");
    let output = Command::new(env!("CARGO_BIN_EXE_greencell"))
        .args(["faults", "--tiny", "--horizon", "3"])
        .current_dir(&dir)
        .stdin(Stdio::null())
        .output()
        .expect("run greencell");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        !stderr.contains("panicked") && stderr.lines().any(|l| l.starts_with("error:")),
        "expected a typed error, got:\n{stderr}"
    );
}
