//! One-pass tiny-scale run of every workload. Run it on both feature
//! backends:
//!
//! ```text
//! cargo test --manifest-path perfbench/Cargo.toml
//! cargo test --manifest-path perfbench/Cargo.toml --no-default-features
//! ```
//!
//! Every metric `BENCHMARK.json` names must be printed with its unit, no
//! output check may fail, and a tampered response must fail the gate.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["lib_paper", "svc_hot", "svc_cold"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("metric has the key") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

struct Run {
    code: i32,
    stdout: String,
    json: String,
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .args(["--scale", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let json = stdout.lines().last().unwrap_or_default().to_string();
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout,
        json,
    }
}

fn assert_metrics(r: &Run, metrics: &[(String, String)], what: &str) {
    assert_eq!(r.code, 0, "{what} exited nonzero:\n{}", r.stdout);
    assert!(
        r.json.starts_with("{\"correct\": true, "),
        "{what}: {}",
        r.json
    );
    assert!(r.json.contains("\"failed\": 0,"), "{what}: {}", r.json);
    let backend = if cfg!(feature = "parallel") {
        "parallel"
    } else {
        "serial"
    };
    assert!(
        r.stdout.contains(&format!(" backend={backend} ")),
        "{what}: stamp"
    );
    for (name, unit) in metrics {
        let at = r
            .json
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{what}: metric {name} missing: {}", r.json));
        let obj = &r.json[at..];
        let obj = &obj[..obj.find('}').expect("metric object closes")];
        assert!(
            obj.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{what}: metric {name} lacks unit {unit}: {obj}"
        );
        assert!(
            r.stdout.contains(&format!("\n{name} = ")),
            "{what}: {name} not printed by name"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_the_gate() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        assert_metrics(&run(w, 0, &[]), &e2e, &format!("{w} --trace 0"));
        let traced = run(w, 1, &[]);
        assert_metrics(&traced, &layers, &format!("{w} --trace 1"));
        assert!(
            traced.json.contains("\"fail_ratio\": {\"value\": 0,"),
            "{}",
            traced.json
        );
    }
}

#[test]
fn the_gate_rejects_a_tampered_response() {
    for w in ["lib_paper", "svc_hot"] {
        let r = run(w, 0, &["--tamper"]);
        assert_ne!(r.code, 0, "{w}: tampered run exited 0:\n{}", r.stdout);
        assert!(
            r.json.starts_with("{\"correct\": false, "),
            "{w}: {}",
            r.json
        );
        assert!(
            r.stdout.contains("response differs from the direct call"),
            "{}",
            r.stdout
        );
    }
}

#[test]
fn a_run_without_a_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--seed", "1"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
