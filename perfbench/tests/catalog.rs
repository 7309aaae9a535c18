//! `BENCHMARK.json` and the benchmark's metric catalogue must agree: the
//! result line reports exactly the metrics the file declares.

use dial_perfbench::report::{per_layer, END_TO_END, WORKLOADS};

fn benchmark_json() -> serde_json::Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside perfbench/");
    serde_json::from_str(&raw).expect("BENCHMARK.json parses")
}

fn entries(v: &serde_json::Value, key: &str) -> Vec<(String, String, String)> {
    v.get(key)
        .as_array()
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).as_str().unwrap_or_default().to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_catalogue() {
    let declared = entries(&benchmark_json(), "end_to_end");
    let ours: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
        .collect();
    assert_eq!(declared, ours);
}

#[test]
fn per_layer_metrics_match_the_catalogue() {
    let declared = entries(&benchmark_json(), "per_layer");
    let ours: Vec<(String, String, String)> = per_layer()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.as_str().to_string()))
        .collect();
    assert_eq!(declared, ours);
}

#[test]
fn workloads_match_the_catalogue() {
    let v = benchmark_json();
    let declared: Vec<&str> = v
        .get("workloads")
        .as_array()
        .expect("workloads is a list")
        .iter()
        .map(|w| w.get("name").as_str().unwrap_or_default())
        .collect();
    assert_eq!(declared, WORKLOADS);
}
