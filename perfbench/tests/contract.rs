//! The benchmark's own checks: its metric names match `BENCHMARK.json`, and
//! a tiny seeded configuration reproduces its simulated fingerprint.

use isp_image::BorderPattern;
use isp_json::Json;
use perfbench::layers::{END_TO_END, PER_LAYER};
use perfbench::run::run;
use perfbench::workloads::{Kind, Matrix};
use std::time::Instant;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, kinds);
}

/// Two apps, two patterns, 64² images, two 8-request fleet workloads.
fn tiny() -> Matrix {
    let apps = ["gaussian", "sobel"]
        .iter()
        .map(|n| isp_filters::by_name(n).expect("known app"))
        .collect();
    Matrix {
        apps,
        patterns: vec![BorderPattern::Clamp, BorderPattern::Mirror],
        sizes: vec![64],
        fleet_requests: 8,
        fleet_workloads: 2,
    }
}

#[test]
fn tiny_config_fingerprints_repeat_across_runs() {
    let matrix = tiny();
    for kind in Kind::ALL {
        let once = |seed| {
            let r = run(kind, &matrix, seed, 0, false, Instant::now());
            assert_eq!(r.failed, 0, "{}: {:?}", kind.name(), r.failures);
            assert!(r.fingerprint.sim_cycles > 0, "{}", kind.name());
            r.fingerprint
        };
        assert_eq!(once(7), once(7), "{}", kind.name());
    }
}

#[test]
fn tiny_config_traced_redrive_reproduces_every_op() {
    let matrix = tiny();
    for kind in Kind::ALL {
        let r = run(kind, &matrix, 3, 0, true, Instant::now());
        assert_eq!(r.failed, 0, "{}: {:?}", kind.name(), r.failures);
        let (layers, ops, _) = r.traced.expect("traced run");
        assert!(ops > 0);
        assert_eq!(layers.get("redrive_mismatches"), 0.0);
        assert!(
            layers.exclusive_ms() <= layers.get("traced_op_ms"),
            "{}",
            kind.name()
        );
    }
}
