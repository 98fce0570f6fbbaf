//! A short run of every workload through the library API emits every
//! metric `BENCHMARK.json` names, passes its correctness checks, and
//! writes JSON that parses. Small data keeps the runs quick.

use aqks_perfbench::data::Scale;
use aqks_perfbench::report;
use aqks_perfbench::trace;
use aqks_perfbench::workload::{self, Config, Workload};

/// The `"name"` fields of one metric list in `BENCHMARK.json`.
fn benchmark_names(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    aqks_obs::json::validate(&text).expect("BENCHMARK.json parses");
    let start = text.find(&format!("\"{list}\"")).expect("metric list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn config() -> Config {
    Config { seed: 42, seconds: 2.0, scale: Scale::Small }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let names = benchmark_names("end_to_end");
    assert!(names.contains(&"setup_s".to_string()), "{names:?}");
    for w in Workload::ALL {
        let out = workload::run(w, &config()).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(out.correct, "{}: {:?}", w.name(), out.failures);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        let got: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, names, "{}", w.name());
        for m in &out.metrics {
            assert!(m.value > 0.0 && m.n > 0, "{}: {m:?}", w.name());
        }
        let line = report::result_line(out.correct, out.attempted, out.failed, &out.metrics);
        aqks_obs::json::validate(&line).unwrap();
        aqks_obs::json::validate(&out.record_json(&config())).unwrap();
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let names = benchmark_names("per_layer");
    for w in Workload::ALL {
        let cfg = config();
        let prep = workload::prepare(w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let traced = trace::run(&prep, &cfg);
        assert!(prep.failures.is_empty(), "{}: {:?}", w.name(), prep.failures);
        prep.shutdown();
        let traced = traced.unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let got: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, names, "{}", w.name());
        aqks_obs::json::validate(&traced.layers_json(w, &cfg)).unwrap();
        aqks_obs::json::validate(&traced.trace.to_chrome_json()).unwrap();
        // One root span per re-driven request.
        assert_eq!(traced.trace.roots.len() as u64, traced.requests);
        // Stage medians plus the remainder are the untraced median.
        for q in &traced.queries {
            let stages: f64 = q.stages.iter().map(|s| s.1).sum();
            assert!((stages + q.unattributed_us() - q.untraced_us).abs() < 1e-6, "{q:?}");
        }
    }
}
