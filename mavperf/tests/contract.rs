//! The benchmark's own checks: metric names, the `BENCHMARK.json`
//! declaration, the prediction table, and a smoke-sized run of every
//! workload, timed and traced.

use mav_types::Json;
use mavperf::metrics::{MetricDef, END_TO_END, PER_LAYER, REPORTED};
use mavperf::{suite, trace, Scale, Workload};
use std::collections::BTreeSet;

fn read_json(relative: &str) -> Json {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn benchmark() -> Json {
    read_json("../BENCHMARK.json")
}

fn str_field<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {json}"))
}

fn array<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    json.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("missing array `{key}` in {json}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names(defs: &[MetricDef]) -> BTreeSet<&'static str> {
    defs.iter().map(|d| d.name).collect()
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(REPORTED)
        .chain(PER_LAYER)
        .map(|d| d.name)
        .collect();
    for name in &all {
        assert!(well_formed(name), "bad metric name `{name}`");
    }
    let unique: BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "metric names repeat");
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let bench = benchmark();
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = array(&bench, key);
        assert_eq!(declared.len(), defs.len(), "{key}: count differs");
        for (entry, def) in declared.iter().zip(defs) {
            assert_eq!(str_field(entry, "name"), def.name, "{key}: order or name");
            assert!(well_formed(def.name));
            assert_eq!(str_field(entry, "unit"), def.unit, "{}: unit", def.name);
            assert_eq!(
                str_field(entry, "better"),
                def.better.label(),
                "{}: better",
                def.name
            );
            if key == "end_to_end" {
                let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
            } else {
                assert!(
                    entry.get("bound").is_none(),
                    "{}: per-layer bound",
                    def.name
                );
            }
        }
    }
    let setup = array(&bench, "end_to_end")
        .iter()
        .find(|e| str_field(e, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(str_field(setup, "unit"), "s");
    assert_eq!(str_field(setup, "better"), "lower");
    let workloads: Vec<&str> = array(&bench, "workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn prediction_table_names_declared_metrics_and_workloads() {
    let predictions = read_json("predictions.json");
    let end_to_end: BTreeSet<&str> = names(END_TO_END).union(&names(REPORTED)).copied().collect();
    let per_layer = names(PER_LAYER);
    let workloads: BTreeSet<&str> = Workload::ALL.iter().map(|w| w.name()).collect();

    let documented = predictions.get("metrics").expect("metrics section");
    for def in END_TO_END.iter().chain(REPORTED).chain(PER_LAYER) {
        let doc = documented
            .get(def.name)
            .unwrap_or_else(|| panic!("{} is not documented", def.name));
        let time = str_field(doc, "time");
        assert!(
            matches!(time, "host" | "simulated" | "count" | "memory"),
            "{}: time base `{time}`",
            def.name
        );
    }
    for workload in &workloads {
        let doc = predictions
            .get("workloads")
            .and_then(|w| w.get(workload))
            .unwrap_or_else(|| panic!("workload {workload} is not documented"));
        for key in ["loop", "threads", "why"] {
            str_field(doc, key);
        }
    }

    let mut covered = BTreeSet::new();
    for layer in array(&predictions, "layers") {
        for metric in array(layer, "metrics") {
            let name = metric.as_str().expect("metric name");
            assert!(
                per_layer.contains(name),
                "layer metric {name} is not declared"
            );
            covered.insert(name);
        }
        for key in ["should_move", "should_not_move"] {
            for pair in array(layer, key) {
                let pair = pair.as_array().expect("[metric, workload]");
                let (metric, workload) = (pair[0].as_str().unwrap(), pair[1].as_str().unwrap());
                assert!(
                    end_to_end.contains(metric),
                    "{key}: {metric} is not declared"
                );
                assert!(
                    workloads.contains(workload),
                    "{key}: {workload} is not declared"
                );
            }
        }
    }
    assert_eq!(
        covered, per_layer,
        "every per-layer metric belongs to a layer"
    );
}

fn assert_complete(line: &str, defs: &[MetricDef], what: &str) {
    let result = Json::parse(line).expect("result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}: {line}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_i128),
        Some(0),
        "{what}"
    );
    assert!(result.get("attempted").and_then(Json::as_i128).unwrap() >= 1);
    let metrics = result.get("metrics").expect("metrics");
    for def in defs {
        let metric = metrics
            .get(def.name)
            .unwrap_or_else(|| panic!("{what}: {} missing", def.name));
        assert_eq!(str_field(metric, "unit"), def.unit, "{what}: {}", def.name);
        let value = metric.get("value").and_then(Json::as_f64).unwrap();
        assert!(value.is_finite(), "{what}: {} = {value}", def.name);
    }
}

#[test]
fn smoke_run_covers_every_workload_timed_and_traced() {
    for workload in Workload::ALL {
        let timed = suite::timed_run(workload, 3, 0.2, Scale::Smoke);
        assert_complete(&timed.result_line(END_TO_END), END_TO_END, workload.name());
        for def in END_TO_END.iter().chain(REPORTED) {
            assert!(
                timed.values[def.name] > 0.0,
                "{}: {} is 0",
                workload.name(),
                def.name
            );
            if REPORTED.iter().any(|r| r.name == def.name) {
                assert!(
                    timed.notes.iter().any(|n| n.contains(def.name)),
                    "{} not printed",
                    def.name
                );
            }
        }
        let traced = trace::run(workload, 3, Scale::Smoke);
        assert_complete(&traced.result_line(PER_LAYER), PER_LAYER, workload.name());
        assert_eq!(traced.values["service.cache_hit_ratio.cold"], 0.0);
        assert_eq!(traced.values["service.cache_hit_ratio.warm"], 1.0);
    }
}

#[test]
fn simulated_outcomes_repeat_exactly() {
    let a = trace::run(Workload::Sweep, 5, Scale::Smoke);
    let b = trace::run(Workload::Sweep, 5, Scale::Smoke);
    for name in [
        "sim.success_rate",
        "sim.collision_rate",
        "sim.mission_s_p50",
        "sim.energy_kj_p50",
    ] {
        assert_eq!(a.values[name], b.values[name], "{name}");
    }
    let digests = |o: &mavperf::metrics::Outcome| -> Vec<String> {
        o.notes
            .iter()
            .filter(|n| n.contains("digest"))
            .cloned()
            .collect()
    };
    assert_eq!(digests(&a), digests(&b));
}

#[test]
fn a_missing_metric_makes_the_run_incorrect() {
    let outcome = mavperf::metrics::Outcome {
        attempted: 1,
        ..Default::default()
    };
    let line = outcome.result_line(END_TO_END);
    let result = Json::parse(&line).unwrap();
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
}
