//! `BENCHMARK.json` at the repository root describes this program: the
//! same workloads, and every metric the program reports under the same
//! name and unit.

use spring_util::json::Value;
use springbench::run::{END_TO_END, PER_LAYER};
use springbench::workload::WORKLOADS;

fn doc() -> Value {
    Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("`{key}` list"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}`"))
}

#[test]
fn workloads_match_the_program() {
    let doc = doc();
    let listed: Vec<(&str, &str)> = list(&doc, "workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let program: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, program);
}

#[test]
fn metrics_match_the_program() {
    let doc = doc();
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str)> = list(&doc, key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(listed, table, "{key}");
        for m in list(&doc, key) {
            assert!(matches!(field(m, "better"), "lower" | "higher"));
        }
    }
    for m in list(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{bound}");
    }
}

#[test]
fn the_command_runs_the_wrapper_in_this_package() {
    let doc = doc();
    let command: Vec<&str> = list(&doc, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command, ["bash", "springbench/run.sh"]);
    let paths: Vec<&str> = list(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["springbench"]);
}
