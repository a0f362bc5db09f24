//! Quick-mode smoke test: every workload, untraced and traced, passes its
//! checks and prints every metric `BENCHMARK.json` names, with its unit.

use std::path::Path;
use std::process::Command;

use automode_core::json::{parse, Json};

fn metrics_of(benchmark: &Json, key: &str) -> Vec<(String, String)> {
    benchmark
        .get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("metric field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let benchmark = parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        ["sweep_hot", "sweep_cold", "sweep_trace", "explore"]
    );
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_automode-perfbench"))
                .current_dir(&root)
                .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
                .args(["--trace", trace, "--quick"])
                .output()
                .expect("benchmark runs");
            assert!(out.status.success(), "{workload}: exit {:?}", out.status);
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = parse(last).expect("result line is JSON");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload} trace={trace}:\n{stdout}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let printed = result.get("metrics").expect("metrics");
            let wanted = metrics_of(&benchmark, key);
            for (name, unit) in &wanted {
                let m = printed
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace}: {name} missing"));
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
            }
            match printed {
                Json::Obj(all) => assert_eq!(all.len(), wanted.len(), "{workload}: extra metrics"),
                _ => panic!("metrics is not an object"),
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "explore", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_automode-perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
