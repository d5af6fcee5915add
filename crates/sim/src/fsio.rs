//! Crash-safe file output and the one checksummed file container.
//!
//! Every artifact the workspace persists — sweep telemetry, trace
//! bundles, snapshots, resumable-sweep results — goes through
//! [`write_text_atomic`], so a crash mid-write can never leave a
//! half-written file at the destination path: readers either see the old
//! contents or the complete new contents, never a torn prefix.
//!
//! Snapshots and the per-point result files of resumable sweeps share one
//! two-line container, built by [`seal`] (or written straight to disk by
//! [`write_sealed_atomic`], which never joins header and payload in
//! memory) and validated by [`open`]:
//!
//! ```text
//! {"format":"<tag>","version":<u32>,"checksum":"0x<fnv1a64>"}
//! {...payload...}
//! ```
//!
//! The checksum is [`fnv1a_64`] over the payload line's exact bytes, so a
//! torn or bit-rotted file fails closed. A file that fails validation is
//! moved aside by [`quarantine`] and never read again.

use crate::snapshot::u64_of;
use crate::SimError;
use greencell_trace::json::{parse, Value};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit over `bytes` — the workspace's dependency-free content
/// checksum (container payloads, state fingerprints).
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The container's first line, newline included: `format`, `version` and
/// the checksum of `payload`. The one place the header is formatted.
fn header_line(format: &str, version: u32, payload: &str) -> String {
    let checksum = fnv1a_64(payload.as_bytes());
    format!(
        "{{\"format\":\"{format}\",\"version\":{version},\"checksum\":\"0x{checksum:016x}\"}}\n"
    )
}

/// Seals `payload` (one line of JSON) into the two-line container image:
/// a header carrying `format`, `version` and the payload checksum, then
/// the payload itself.
#[must_use]
pub fn seal(format: &str, version: u32, payload: &str) -> String {
    let header = header_line(format, version, payload);
    let mut image = String::with_capacity(header.len() + payload.len() + 1);
    image.push_str(&header);
    image.push_str(payload);
    image.push('\n');
    image
}

/// Writes the image [`seal`] would build to `path`, atomically as
/// [`write_text_atomic`] does, without first copying the payload behind
/// the header in memory.
///
/// # Errors
///
/// Propagates the underlying I/O error (create, write, sync, or rename).
pub fn write_sealed_atomic(
    path: &Path,
    format: &str,
    version: u32,
    payload: &str,
) -> std::io::Result<()> {
    let header = header_line(format, version, payload);
    write_atomic(path, &[header.as_bytes(), payload.as_bytes(), b"\n"])
}

/// Opens a container image, checking in order the line structure, the
/// `format` tag, the `version`, the checksum, and finally that the payload
/// parses. `path` is used only for error context.
///
/// # Errors
///
/// [`SimError::SnapshotVersionMismatch`] when the header declares a
/// version other than `version`; [`SimError::CorruptSnapshot`] for every
/// other failure (torn file, wrong tag, non-u32 version, bad checksum,
/// malformed payload).
pub fn open(text: &str, format: &str, version: u32, path: &str) -> Result<Value, SimError> {
    let corrupt = |detail: String| SimError::CorruptSnapshot {
        path: path.to_string(),
        detail,
    };
    let (header_line, rest) = text
        .split_once('\n')
        .ok_or_else(|| corrupt("missing payload line".to_string()))?;
    let payload = rest
        .strip_suffix('\n')
        .ok_or_else(|| corrupt("missing trailing newline".to_string()))?;
    if payload.contains('\n') {
        return Err(corrupt("more than two lines".to_string()));
    }
    let header = parse(header_line).map_err(|e| corrupt(format!("unparseable header: {e}")))?;
    match header.get("format").and_then(Value::as_str) {
        Some(tag) if tag == format => {}
        Some(other) => return Err(corrupt(format!("format is `{other}`, expected `{format}`"))),
        None => return Err(corrupt("header has no format tag".to_string())),
    }
    let found = header
        .get("version")
        .and_then(Value::as_f64)
        .ok_or_else(|| corrupt("header has no version".to_string()))?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let found = if found.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&found) {
        found as u32
    } else {
        return Err(corrupt(format!("version `{found}` is not a u32")));
    };
    if found != version {
        return Err(SimError::SnapshotVersionMismatch {
            path: path.to_string(),
            expected: version,
            found,
        });
    }
    let declared = header
        .get("checksum")
        .ok_or_else(|| corrupt("header has no checksum".to_string()))
        .and_then(|v| u64_of(v).map_err(|e| corrupt(format!("bad checksum field: {e}"))))?;
    let actual = fnv1a_64(payload.as_bytes());
    if declared != actual {
        return Err(corrupt(format!(
            "checksum mismatch: header declares 0x{declared:016x}, payload hashes to 0x{actual:016x}"
        )));
    }
    parse(payload).map_err(|e| corrupt(format!("unparseable payload: {e}")))
}

/// Renames a file that failed validation to `<name>.corrupt`, so it is
/// kept for postmortem but never read again as valid, and returns the new
/// path.
///
/// # Errors
///
/// Propagates the rename's I/O error (for example `NotFound` when a
/// concurrent reader quarantined the same file first).
pub fn quarantine(path: &Path) -> std::io::Result<PathBuf> {
    let mut name = path
        .file_name()
        .map_or_else(|| "file".into(), std::ffi::OsStr::to_os_string);
    name.push(".corrupt");
    let target = path.with_file_name(name);
    fs::rename(path, &target)?;
    Ok(target)
}

/// Distinguishes concurrent writers targeting the same destination from
/// within one process (parallel sweep threads); the process id separates
/// processes.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_sibling(path: &Path) -> PathBuf {
    let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map_or_else(|| "out".into(), |f| f.to_os_string());
    name.push(format!(".tmp.{}.{n}", std::process::id()));
    path.with_file_name(name)
}

/// Writes `text` to `path` atomically: the bytes land in a temp sibling
/// in the same directory (same filesystem, so the final rename cannot
/// cross a mount), are flushed and fsynced, and only then renamed over
/// the destination. On any error the temp file is removed and `path` is
/// left untouched.
///
/// # Errors
///
/// Propagates the underlying I/O error (create, write, sync, or rename).
pub fn write_text_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    write_atomic(path, &[text.as_bytes()])
}

/// [`write_text_atomic`] for a file made of `parts`, written in order.
fn write_atomic(path: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
    let tmp = temp_sibling(path);
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best-effort cleanup; the original error is the one that matters.
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume::{RESULT_FORMAT, RESULT_VERSION};
    use crate::{Scenario, Simulator, SweepPoint, SNAPSHOT_FORMAT, SNAPSHOT_VERSION};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("greencell-fsio-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn writes_and_replaces() {
        let dir = temp_dir("write");
        let path = dir.join("artifact.json");
        write_text_atomic(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        write_text_atomic(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        // No temp droppings left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The streamed write lands the exact bytes of the sealed image.
    #[test]
    fn sealed_write_matches_the_sealed_image() {
        let dir = temp_dir("sealed");
        let path = dir.join("image.json");
        for payload in ["{}", "{\"a\":[\"0x0000000000000001\"]}"] {
            write_sealed_atomic(&path, "greencell-test", 3, payload).unwrap();
            let text = fs::read_to_string(&path).unwrap();
            assert_eq!(text, seal("greencell-test", 3, payload));
            assert!(open(&text, "greencell-test", 3, "<sealed>").is_ok());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_leaves_no_temp() {
        let missing = Path::new("/nonexistent-greencell-dir/artifact.json");
        assert!(write_text_atomic(missing, "x").is_err());
    }

    /// One real image of each container format, with the tag and version
    /// it must be opened against.
    fn images() -> Vec<(&'static str, u32, String)> {
        let mut scenario = Scenario::tiny(5);
        scenario.horizon = 3;
        let mut sim = Simulator::new(&scenario).unwrap();
        sim.step().unwrap();
        let snapshot = sim.snapshot().to_file_string();

        let dir = temp_dir("images");
        let points = [SweepPoint::new("p0", scenario)];
        let (report, _) =
            crate::run_sweep_checkpointed(&points, &crate::SweepOptions::serial(), &dir)
                .expect("one-point sweep");
        assert_eq!(report.outcomes.len(), 1);
        let result = fs::read_to_string(dir.join("results").join("p0.json")).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        vec![
            (SNAPSHOT_FORMAT, SNAPSHOT_VERSION, snapshot),
            (RESULT_FORMAT, RESULT_VERSION, result),
        ]
    }

    /// Every damaged image is a typed rejection: never `Ok`, never a panic.
    #[test]
    fn damaged_containers_are_typed_rejections() {
        for (format, version, image) in images() {
            assert!(open(&image, format, version, "<ok>").is_ok(), "{format}");
            let header_len = image.find('\n').unwrap() + 1;
            let flip = |at: usize| {
                let mut bytes = image.clone().into_bytes();
                bytes[at] ^= 0x01;
                (
                    format!("byte {at} flipped"),
                    String::from_utf8(bytes).unwrap(),
                )
            };
            let edit =
                |what: &str, from: &str, to: &str| (what.to_string(), image.replacen(from, to, 1));
            let tag = format!("\"{format}\"");
            let ver = format!("\"version\":{version}");
            let checksum_at = image.find(",\"checksum\"").unwrap();
            let mut damaged: Vec<(String, String)> = (0..image.len())
                .map(|len| (format!("truncated to {len}"), image[..len].to_string()))
                .chain((0..header_len).map(flip))
                .chain(
                    (header_len..image.len())
                        .step_by(97)
                        .chain([image.len() - 1])
                        .map(flip),
                )
                .collect();
            damaged.extend([
                ("a third line".to_string(), format!("{image}{{}}\n")),
                edit("no checksum", &image[checksum_at..header_len - 2], ""),
                edit("wrong tag", &tag, "\"greencell-other\""),
                edit("version 3", &ver, "\"version\":3"),
                edit("version 2.5", &ver, "\"version\":2.5"),
            ]);
            for (what, text) in damaged {
                assert_ne!(text, image, "{format}: {what} must change the image");
                match open(&text, format, version, "<damaged>") {
                    Err(SimError::CorruptSnapshot { path, .. }) => assert_eq!(path, "<damaged>"),
                    Err(SimError::SnapshotVersionMismatch {
                        expected, found, ..
                    }) => {
                        assert_eq!(expected, version, "{format}: {what}");
                        assert_ne!(found, version, "{format}: {what}");
                    }
                    other => panic!("{format}: {what} opened as {other:?}"),
                }
            }
        }
    }
}
