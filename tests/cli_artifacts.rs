//! Figure actions write their CSV artifacts under `--out DIR`.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// `fig2f --out DIR` writes `DIR/fig2f.csv`: a header with one column per
/// `V`, then one row per architecture.
#[test]
fn fig2f_writes_its_csv_under_out() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("greencell-cli-fig2f-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = dir.join("out");
    let output = Command::new(env!("CARGO_BIN_EXE_greencell"))
        .args(["fig2f", "--tiny", "--horizon", "3", "--v-values", "1e5,2e5"])
        .arg("--out")
        .arg(&out)
        .current_dir(&dir)
        .stdin(Stdio::null())
        .output()
        .expect("run greencell");
    let csv = std::fs::read_to_string(out.join("fig2f.csv"));
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let csv = csv.expect("fig2f.csv written under --out");
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], "architecture,V=100000,V=200000");
    assert_eq!(lines.len(), 5, "{csv}");
    assert!(
        lines[1..].iter().all(|l| l.split(',').count() >= 3),
        "{csv}"
    );
}
