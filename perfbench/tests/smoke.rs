//! Smoke test of the benchmark: every workload at its tiny size, untraced
//! and traced, must pass every output check and print exactly the metric
//! names `BENCHMARK.json` declares.
//!
//! ```sh
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use rdt_obs::json::{self, JsonValue};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

/// The metric names of one list in `BENCHMARK.json`, in order.
fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    let JsonValue::Arr(items) = doc.get(list).unwrap() else {
        panic!("{list} is not a list");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

/// Runs one tiny workload and returns its stdout lines.
fn run(workload: &str, trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_string).collect()
}

fn check(workload: &str) {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let lines = run(workload, trace);
        let result = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
        assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() > 0);
        let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics object");
        };
        let printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(printed, declared(list), "{workload} --trace {trace}");
        for (name, metric) in metrics {
            let value = match metric.get("value") {
                Some(JsonValue::Num(v)) => *v,
                Some(JsonValue::UInt(v)) => *v as f64,
                Some(JsonValue::Int(v)) => *v as f64,
                other => panic!("{name} has value {other:?}"),
            };
            assert!(value.is_finite(), "{name} = {value}");
            if trace == "0" {
                assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
            }
            assert!(metric.get("unit").and_then(JsonValue::as_str).is_some());
        }
        let counts = &lines[lines.len() - 2];
        assert!(
            counts.starts_with(&format!("counts workload={workload} seed=7 ")),
            "{counts}"
        );
    }
}

#[test]
fn every_workload_is_declared() {
    assert_eq!(
        declared("workloads"),
        [
            "ring_10k",
            "uniform_steady",
            "crash_recovery",
            "durable_live"
        ]
    );
}

#[test]
fn ring_10k() {
    check("ring_10k");
}

#[test]
fn uniform_steady() {
    check("uniform_steady");
}

#[test]
fn crash_recovery() {
    check("crash_recovery");
}

#[test]
fn durable_live() {
    check("durable_live");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
