//! The benchmark's own checks, at the tiny scale: every metric that
//! `BENCHMARK.json` names is printed with its unit, and one seed
//! always simulates the same thing.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["node-nas", "cluster-wide", "batch-easy", "batch-dfrs-coord"];

/// `(name, unit)` of every metric in the `section` array of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section array closes")];
    let field = |obj: &str, key: &str| {
        let rest = &obj[obj.find(&format!("\"{key}\"")).expect("metric field") + key.len() + 2..];
        let rest = &rest[rest.find('"').expect("string value") + 1..];
        rest[..rest.find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// The host line and the result line of one tiny run.
fn run(workload: &str, seed: u64, trace: bool) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.001",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--scale", "tiny"])
        .output()
        .expect("the benchmark runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: {stdout}");
    (
        lines[lines.len() - 2].to_string(),
        lines[lines.len() - 1].to_string(),
    )
}

fn digest(host_line: &str) -> String {
    let rest = &host_line[host_line.find("\"digest\": \"").expect("digest") + 11..];
    rest[..rest.find('"').expect("closing quote")].to_string()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for w in WORKLOADS {
            let (_, result) = run(w, 7, trace);
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{w}: {result}"
            );
            assert!(result.contains("\"failed\": 0,"), "{w}: {result}");
            for (name, unit) in &metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&key)
                    .unwrap_or_else(|| panic!("{w}: {name} missing from {result}"));
                let rest = &result[at + key.len()..];
                let (value, rest) = rest.split_once(", ").expect("unit follows value");
                let v: f64 = value.parse().expect("numeric value");
                assert!(v.is_finite(), "{w}: {name} = {value}");
                assert!(
                    rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
                    "{w}: {name} has the wrong unit in {result}"
                );
            }
            assert_eq!(
                result.matches("\"value\": ").count(),
                metrics.len(),
                "{w}: {section} prints a metric BENCHMARK.json does not declare"
            );
        }
    }
}

#[test]
fn one_seed_always_simulates_the_same_thing() {
    for w in WORKLOADS {
        // A traced run also checks, inside the run, that the traced
        // repetition's digest equals the untraced one's.
        let (a, result) = run(w, 11, true);
        assert!(result.contains("\"correct\": true"), "{w}: {result}");
        let (b, _) = run(w, 11, false);
        assert_eq!(digest(&a), digest(&b), "{w}: digest changed between runs");
        let (c, _) = run(w, 12, false);
        assert_ne!(
            digest(&a),
            digest(&c),
            "{w}: the seed does not reach the inputs"
        );
    }
}
