//! End-to-end tests of the `louvain` CLI binary: file input, generator
//! input, solver selection, refinement, and output format.

use std::io::Write;
use std::process::Command;

fn louvain_bin() -> &'static str {
    env!("CARGO_BIN_EXE_louvain")
}

#[test]
fn generates_and_solves_lfr() {
    let out = Command::new(louvain_bin())
        .args(["--generate", "lfr:2000:0.3", "--solver", "seq", "--levels"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("graph: 2000 vertices"), "{stderr}");
    assert!(stderr.contains("Q = 0."), "{stderr}");
    assert!(stderr.contains("level  communities"), "{stderr}");
    // stdout: one "vertex community" line per vertex.
    let lines: Vec<&str> = out
        .stdout
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| std::str::from_utf8(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 2000);
    let first: Vec<&str> = lines[0].split(' ').collect();
    assert_eq!(first[0], "0");
    let _: u32 = first[1].parse().expect("community id");
}

#[test]
fn reads_edge_list_file_and_writes_output() {
    let dir = std::env::temp_dir();
    let input = dir.join("louvain_cli_test_input.edges");
    let output = dir.join("louvain_cli_test_output.txt");
    {
        let mut f = std::fs::File::create(&input).unwrap();
        // Two triangles + bridge.
        writeln!(f, "# n 6").unwrap();
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            writeln!(f, "{u} {v}").unwrap();
        }
    }
    let out = Command::new(louvain_bin())
        .args([
            input.to_str().unwrap(),
            "--solver",
            "parallel",
            "--ranks",
            "2",
            "--output",
            output.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&output).unwrap();
    let labels: Vec<u32> = written
        .lines()
        .map(|l| l.split(' ').nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(labels.len(), 6);
    // The two triangles must be separated.
    assert_eq!(labels[0], labels[1]);
    assert_eq!(labels[0], labels[2]);
    assert_eq!(labels[3], labels[4]);
    assert_ne!(labels[0], labels[3]);
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
}

#[test]
fn refine_flag_reports_polish() {
    let out = Command::new(louvain_bin())
        .args([
            "--generate",
            "lfr:1500:0.4",
            "--solver",
            "parallel",
            "--refine",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refine: Q"), "{stderr}");
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        vec!["--solver", "nope", "--generate", "gnm:10:5"],
        vec!["--generate", "bogus:1"],
        vec![], // no input at all
    ] {
        let out = Command::new(louvain_bin()).args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} should fail");
    }
}

#[test]
fn rejects_malformed_edge_lists_with_a_named_error() {
    let dir = std::env::temp_dir();
    for (name, text, needle) in [
        ("nan", "# n 3\n0 1\n1 2 NaN\n", "line 3: weight NaN"),
        ("negative", "0 1 -2\n", "line 1: weight -2"),
        ("past_n", "# n 3\n0 3\n", "line 2: vertex id 3"),
        ("u32_max", "4294967295 0\n", "does not fit the u32 id space"),
    ] {
        let input = dir.join(format!("louvain_cli_malformed_{name}.edges"));
        std::fs::write(&input, text).unwrap();
        let out = Command::new(louvain_bin())
            .args([input.to_str().unwrap(), "--solver", "seq"])
            .output()
            .expect("binary runs");
        let _ = std::fs::remove_file(&input);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(needle), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}
