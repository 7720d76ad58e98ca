//! Smoke runs of every workload at minimal length, untraced and traced:
//! every metric `BENCHMARK.json` names is printed with its unit and a
//! value, and no operation failed.
//!
//! Run from the repository root with
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (one metric object per line, as the file is written).
fn metrics(section: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = spec.find(&format!("\"{section}\"")).expect("section");
    let body = &spec[start..];
    let end = body.find(']').expect("section end");
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn workloads() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = spec.find("\"workloads\"").expect("workloads");
    let body = &spec[start..];
    body[..body.find(']').expect("end")]
        .lines()
        .filter_map(|l| {
            let at = l.find("\"name\": \"")? + 9;
            Some(l[at..at + l[at..].find('"')?].to_string())
        })
        .collect()
}

fn last_line(workload: &str, trace: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_trex-perfbench"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: &str, expected: &[(String, String)]) {
    let line = last_line(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{line}");
    for (name, unit) in expected {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: no {name}: {line}"));
        let rest = &line[at + key.len()..];
        assert!(!rest.starts_with("null"), "{workload}: {name} is null");
        let unit_field = format!("\"unit\": \"{unit}\"}}");
        assert!(
            rest[..rest.find('}').expect("object end") + 1].contains(&unit_field),
            "{workload}: {name} lacks unit {unit}"
        );
    }
    assert_eq!(
        line.matches("\"unit\"").count(),
        expected.len(),
        "{workload}: exactly the named metrics"
    );
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let end_to_end = metrics("end_to_end");
    let per_layer = metrics("per_layer");
    assert_eq!(end_to_end.len(), 7);
    let names = workloads();
    assert_eq!(names.len(), 3);
    for workload in &names {
        check(workload, "0", &end_to_end);
        check(workload, "1", &per_layer);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "cells-laliga", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_trex-perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
