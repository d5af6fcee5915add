//! Stamps the binary with the compiler version, the commit (when the
//! source is a git checkout), and a digest of the measured source tree, so
//! every record names the code and toolchain that produced it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Source the benchmark measures, relative to this package.
const SOURCES: [&str; 4] = ["../crates", "../src", "../Cargo.toml", "../Cargo.lock"];

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let Ok(entries) = fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            collect(&entry.path(), out);
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// FNV-1a over every source file's relative path and contents, in sorted
/// path order.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in SOURCES {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        feed(&fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn main() {
    for root in SOURCES {
        println!("cargo:rerun-if-changed={root}");
    }
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git when the repository root itself is a checkout, so an
    // unrelated enclosing repository never lends its commit.
    let commit = Path::new("../.git")
        .exists()
        .then(|| command_line("git", &["-C", "..", "rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "not-a-git-checkout".into());
    if Path::new("../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SRC_DIGEST={}", source_digest());
}
