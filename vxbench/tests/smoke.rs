//! Runs every workload at smoke scale through the real binary and holds
//! what it prints against `BENCHMARK.json`, `vxbench list`, and itself.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use vx_core::json::{self, Json};

const VXBENCH: &str = env!("CARGO_BIN_EXE_vxbench");

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

fn fields(value: &Json) -> &[(String, Json)] {
    match value {
        Json::Object(fields) => fields,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn number(value: &Json) -> f64 {
    match value {
        Json::Num(n) => *n,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn names(list: &Json) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// `run --all --smoke --trace` for one seed; returns the `--out` document
/// and its path.
fn run_all(seed: u64, tag: &str) -> (Json, PathBuf) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}.json"));
    let run = Command::new(VXBENCH)
        .args([
            "run",
            "--all",
            "--smoke",
            "--trace",
            "--seed",
            &seed.to_string(),
            "--out",
        ])
        .arg(&out)
        .env("VX_PLAN", "merge")
        .output()
        .expect("vxbench runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "vxbench failed: {stderr}");
    // The knob set above must have been dropped, and said so.
    assert!(
        stderr.contains("VX_PLAN"),
        "no note about the dropped variable: {stderr}"
    );
    let doc =
        json::parse(&std::fs::read_to_string(&out).expect("--out written")).expect("--out parses");
    (doc, out)
}

#[test]
fn list_prints_the_names_of_benchmark_json() {
    let spec = spec();
    let listed = Command::new(VXBENCH)
        .arg("list")
        .output()
        .expect("vxbench list");
    assert!(listed.status.success());
    let text = String::from_utf8(listed.stdout).unwrap();
    let mut sections: BTreeMap<&str, Vec<Vec<&str>>> = BTreeMap::new();
    let mut current = "";
    for line in text.lines() {
        if let Some(title) = line.strip_suffix(':') {
            current = title;
        } else {
            sections
                .entry(current)
                .or_default()
                .push(line.split_whitespace().collect());
        }
    }
    for (section, key, with_units) in [
        ("workloads", "workloads", false),
        ("end-to-end metrics", "end_to_end", true),
        ("per-layer metrics", "per_layer", true),
    ] {
        let listed = &sections[section];
        let entries = spec.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(listed.len(), entries.len(), "{section}");
        for (row, entry) in listed.iter().zip(entries) {
            let field = |name: &str| entry.get(name).and_then(Json::as_str).expect(name);
            assert_eq!(row[0], field("name"), "{section}");
            if with_units {
                assert_eq!(row[1], field("unit"), "{}", row[0]);
                assert_eq!(row[2], field("better"), "{}", row[0]);
            } else {
                assert_eq!(row[1..].join(" "), field("why"), "{}", row[0]);
            }
        }
    }
}

#[test]
fn every_workload_runs_checks_and_repeats() {
    let spec = spec();
    let (first, first_path) = run_all(42, "a");
    let (again, _) = run_all(42, "b");
    let (other, _) = run_all(7, "c");

    let meta = first.get("meta").expect("meta");
    assert_eq!(meta.get("seed").and_then(Json::as_u64), Some(42));
    for key in ["commit", "nproc", "rustc", "flush_policy"] {
        assert!(meta.get(key).is_some(), "meta.{key}");
    }

    let workloads = fields(first.get("workloads").expect("workloads"));
    let expected = names(spec.get("workloads").unwrap());
    let ran: Vec<&str> = workloads.iter().map(|(name, _)| name.as_str()).collect();
    // `serve.mixed` needs the `vx` binary beside `vxbench`; a smoke run
    // does not build it and says so when it is absent.
    let vx = Path::new(VXBENCH).with_file_name("vx");
    let expected: Vec<&str> = expected
        .iter()
        .map(String::as_str)
        .filter(|name| *name != "serve.mixed" || vx.exists())
        .collect();
    assert_eq!(ran, expected);

    let exact = [
        "xml.events",
        "skeleton.visits",
        "tuples.emitted",
        "wal.bytes_per_user_byte",
    ];
    for (name, result) in workloads {
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(
            result.get("failed").and_then(Json::as_u64),
            Some(0),
            "{name}"
        );
        for (key, list) in [("metrics", "end_to_end"), ("per_layer", "per_layer")] {
            let printed = fields(result.get(key).unwrap_or_else(|| panic!("{name}.{key}")));
            let keys: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, names(spec.get(list).unwrap()), "{name}.{key}");
            for (metric, value) in printed {
                let v = number(value.get("value").expect("value"));
                assert!(v.is_finite() && v >= 0.0, "{name} {metric} = {v}");
                assert!(
                    value.get("unit").and_then(Json::as_str).is_some(),
                    "{name} {metric}"
                );
            }
        }
        for metric in [
            "setup_s",
            "latency_ms_p50",
            "ops_per_s",
            "peak_rss_mb",
            "store_bytes_per_input_byte",
        ] {
            let v = number(
                result
                    .get("metrics")
                    .unwrap()
                    .get(metric)
                    .unwrap()
                    .get("value")
                    .unwrap(),
            );
            assert!(v > 0.0, "{name} {metric} must never be 0");
        }

        // Counts repeat exactly for one seed and change for another.
        let value = |doc: &Json, key: &str, metric: &str| {
            let result = doc.get("workloads").unwrap().get(name).unwrap();
            number(
                result
                    .get(key)
                    .unwrap()
                    .get(metric)
                    .unwrap()
                    .get("value")
                    .unwrap(),
            )
        };
        let mut moved = false;
        for metric in exact {
            let v = value(&first, "per_layer", metric);
            assert_eq!(v, value(&again, "per_layer", metric), "{name} {metric}");
            moved |= v != value(&other, "per_layer", metric);
        }
        let ratio = value(&first, "metrics", "store_bytes_per_input_byte");
        assert_eq!(
            ratio,
            value(&again, "metrics", "store_bytes_per_input_byte"),
            "{name}"
        );
        moved |= ratio != value(&other, "metrics", "store_bytes_per_input_byte");
        assert!(moved, "{name}: another seed changed no count");

        check_trace(name, &first_path);
    }
}

/// Spans nest inside their parents, self times are not negative, and the
/// self times of the traced operations add up to their wall time.
fn check_trace(workload: &str, out: &Path) {
    let mut path = out.as_os_str().to_os_string();
    path.push(format!(".{workload}.trace.json"));
    let trace =
        json::parse(&std::fs::read_to_string(&path).expect("trace written")).expect("trace parses");
    let spans = trace.get("spans").and_then(Json::as_array).expect("spans");
    assert!(!spans.is_empty(), "{workload}: no spans");
    let field = |span: &Json, name: &str| number(span.get(name).expect(name));
    for span in spans {
        assert!(
            field(span, "end_us") >= field(span, "start_us"),
            "{workload}"
        );
        if let Some(Json::Num(parent)) = span.get("parent") {
            let parent = &spans[*parent as usize];
            assert_eq!(
                field(parent, "op"),
                field(span, "op"),
                "{workload}: spans of one op share it"
            );
            assert!(
                field(span, "start_us") >= field(parent, "start_us") - 1e-3,
                "{workload}"
            );
            assert!(
                field(span, "end_us") <= field(parent, "end_us") + 1e-3,
                "{workload}"
            );
        }
    }
    for layer in trace
        .get("layers")
        .and_then(Json::as_array)
        .expect("layers")
    {
        assert!(field(layer, "self_ms") >= -1e-6, "{workload}: {layer:?}");
    }
    let wall = field(&trace, "op_wall_ms");
    let self_sum = field(&trace, "self_sum_ms");
    assert!(
        (self_sum - wall).abs() <= 0.05 * wall,
        "{workload}: self {self_sum} ms, wall {wall} ms"
    );
    assert!(field(&trace, "overhead_ratio") > 0.0, "{workload}");
}

#[test]
fn agree_names_the_cell_that_differs() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let doc = |p50: f64| {
        format!(
            r#"{{"workloads": {{"query.scan": {{"metrics": {{
                "setup_s": {{"value": 1.0}}, "latency_ms_p50": {{"value": {p50}}},
                "latency_ms_p90": {{"value": 2.0}}, "ops_per_s": {{"value": 3.0}},
                "peak_rss_mb": {{"value": 4.0}}, "store_bytes_per_input_byte": {{"value": 0.5}}}}}}}}}}"#
        )
    };
    let (a, b, c) = (
        dir.join("agree-a.json"),
        dir.join("agree-b.json"),
        dir.join("agree-c.json"),
    );
    std::fs::write(&a, doc(10.0)).unwrap();
    std::fs::write(&b, doc(10.2)).unwrap();
    std::fs::write(&c, doc(20.0)).unwrap();
    let agree = |x: &Path, y: &Path| {
        Command::new(VXBENCH)
            .arg("agree")
            .arg(x)
            .arg(y)
            .output()
            .unwrap()
    };
    assert!(agree(&a, &b).status.success());
    let differs = agree(&a, &c);
    assert_eq!(differs.status.code(), Some(1));
    let text = String::from_utf8_lossy(&differs.stdout);
    assert!(
        text.contains("DIFFERS  latency_ms_p50 x query.scan"),
        "{text}"
    );
}
