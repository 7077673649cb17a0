//! End-to-end test of the `hyt` command-line tool: generate → build →
//! persist → reopen in a fresh process → query, with results checked
//! against an in-process brute-force oracle.

use std::path::PathBuf;
use std::process::Command;

fn hyt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hyt"))
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hyt_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_build_query_pipeline() {
    let dir = workdir();
    let csv = dir.join("vectors.csv");
    let pages = dir.join("db.pages");
    let meta = dir.join("db.meta");

    // 1. generate
    let out = hyt()
        .args([
            "generate", "--kind", "uniform", "--n", "2000", "--dim", "4", "--seed", "7", "--out",
        ])
        .arg(&csv)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 2. build (bulk path)
    let out = hyt()
        .args(["build", "--input"])
        .arg(&csv)
        .args(["--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .args(["--bulk"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("built 2000 entries"));

    // 3. stats on the persisted index (separate process)
    let out = hyt()
        .args(["stats", "--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stats = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stats.contains("entries            2000"));
    assert!(stats.contains("dimensionality     4"));

    // 4. box query, checked against the CSV itself.
    let body = std::fs::read_to_string(&csv).unwrap();
    let vectors: Vec<Vec<f32>> = body
        .lines()
        .map(|l| l.split(',').map(|t| t.parse().unwrap()).collect())
        .collect();
    let lo = [0.2f32, 0.2, 0.2, 0.2];
    let hi = [0.6f32, 0.7, 0.8, 0.9];
    let mut want: Vec<u64> = vectors
        .iter()
        .enumerate()
        .filter(|(_, v)| {
            v.iter().zip(&lo).all(|(x, l)| x >= l) && v.iter().zip(&hi).all(|(x, h)| x <= h)
        })
        .map(|(i, _)| i as u64)
        .collect();
    want.sort_unstable();
    let out = hyt()
        .args(["box", "--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .args(["--lo", "0.2,0.2,0.2,0.2", "--hi", "0.6,0.7,0.8,0.9"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got: Vec<u64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.trim().parse().unwrap())
        .collect();
    assert_eq!(got, want);

    // 5. knn: the nearest neighbor of a stored vector is itself.
    let q = body.lines().nth(42).unwrap();
    let out = hyt()
        .args(["knn", "--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .args(["--query", q, "--k", "1", "--metric", "l2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let line = String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .unwrap()
        .to_string();
    assert!(
        line.starts_with("42\t"),
        "expected oid 42 first, got {line}"
    );

    // 6. scrub: the freshly built index verifies clean (exit 0)...
    let out = hyt()
        .args(["scrub", "--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    // ...and a single flipped bit in the page file makes scrub exit 1.
    let mut bytes = std::fs::read(&pages).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&pages, &bytes).unwrap();
    let out = hyt()
        .args(["scrub", "--index"])
        .arg(&pages)
        .args(["--meta"])
        .arg(&meta)
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "scrub missed an injected bit flip: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("problem"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_reports_usage_on_bad_input() {
    let out = hyt().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage:"));

    let out = hyt().args(["knn", "--index"]).output().unwrap();
    assert!(!out.status.success());

    let out = hyt()
        .args([
            "generate",
            "--kind",
            "nope",
            "--n",
            "5",
            "--dim",
            "2",
            "--out",
            "/dev/null",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// A directory of its own for one test, so no other test's cleanup
/// removes it.
fn own_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hyt_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a three-vector 2-d index in `dir`; returns its page file and
/// catalog paths.
fn small_index(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let csv = dir.join("vectors.csv");
    std::fs::write(&csv, "0.1,0.2\n0.3,0.4\n0.5,0.6\n").unwrap();
    let (pages, meta) = (dir.join("db.pages"), dir.join("db.meta"));
    let out = hyt()
        .args(["build", "--input"])
        .arg(&csv)
        .arg("--index")
        .arg(&pages)
        .arg("--meta")
        .arg(&meta)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (pages, meta)
}

/// The command must fail on the CLI's error path (exit 1 with a message),
/// not panic (exit 101), when given a non-finite coordinate.
fn assert_rejects_non_finite(cmd: &mut Command) {
    let out = cmd.output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("non-finite coordinate"), "{err}");
}

#[test]
fn build_rejects_a_non_finite_csv_row() {
    let dir = own_dir("build_inf");
    let csv = dir.join("vectors.csv");
    std::fs::write(&csv, "0.1,0.2\n0.3,inf\n").unwrap();
    assert_rejects_non_finite(
        hyt()
            .args(["build", "--input"])
            .arg(&csv)
            .arg("--index")
            .arg(dir.join("db.pages"))
            .arg("--meta")
            .arg(dir.join("db.meta")),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn knn_rejects_a_non_finite_query() {
    let dir = own_dir("knn_nan");
    let (pages, meta) = small_index(&dir);
    assert_rejects_non_finite(
        hyt()
            .args(["knn", "--index"])
            .arg(&pages)
            .arg("--meta")
            .arg(&meta)
            .args(["--query", "nan,0.5", "--k", "1"]),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn box_rejects_a_non_finite_corner() {
    let dir = own_dir("box_nan");
    let (pages, meta) = small_index(&dir);
    assert_rejects_non_finite(
        hyt()
            .args(["box", "--index"])
            .arg(&pages)
            .arg("--meta")
            .arg(&meta)
            .args(["--lo", "nan,0", "--hi", "1,1"]),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_rejects_a_non_finite_line() {
    let dir = own_dir("batch_nan");
    let (pages, meta) = small_index(&dir);
    let queries = dir.join("batch.txt");
    std::fs::write(&queries, "knn 0.1,0.2 1\nknn 0.1,nan 3\n").unwrap();
    assert_rejects_non_finite(
        hyt()
            .args(["batch", "--index"])
            .arg(&pages)
            .arg("--meta")
            .arg(&meta)
            .arg("--queries")
            .arg(&queries),
    );
    std::fs::remove_dir_all(&dir).ok();
}
