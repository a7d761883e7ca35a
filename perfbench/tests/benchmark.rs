//! The benchmark's own checks: every metric is emitted with its unit,
//! the counters reconcile, `BENCHMARK.json` names what the code emits,
//! and a fixed seed gives byte-identical inputs.
//!
//! Run: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use perfbench::inputs::{self, Size};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{ingest, recommend, serve_open, WORKLOADS};

/// Runs the binary on the tiny graph and returns its stdout lines.
fn run(workload: &str, seed: u64, trace: bool) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "2", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    stdout.lines().map(str::to_string).collect()
}

/// The value of `"name": {"value": V, "unit": "unit"}` in `json`.
fn metric(json: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {json}"));
    let rest = &json[at + key.len()..];
    let end = rest.find(',').expect("value is followed by its unit");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "{name} lacks unit {unit}"
    );
    rest[..end].parse().expect("a number")
}

// One test drives every binary run, so the runs do not compete with
// each other for the CPU while the traced ones check their timing
// tolerances.
#[test]
fn tiny_runs_emit_every_metric_and_reconcile() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let lines = run(w, 3, trace);
            let json = lines.last().expect("a result line");
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(json.contains("\"failed\": 0, "), "{json}");
            let names = if trace { PER_LAYER } else { END_TO_END };
            for &(name, unit) in names {
                let v = metric(json, name, unit);
                assert!(v.is_finite(), "{w} {name} = {v}");
                let line = format!("{w} {name} ");
                assert!(
                    lines
                        .iter()
                        .any(|l| l.starts_with(&line) && l.ends_with(unit)),
                    "{w}: no report line for {name}"
                );
            }
            assert!(!lines.iter().any(|l| l.contains("GATE FAILED")));
            // The object holds exactly the listed metrics.
            assert_eq!(json.matches("\"unit\": ").count(), names.len());
        }
    }
    // A different seed changes every workload's inputs, the same seed
    // reproduces them.
    let digest = |w: &str, seed| -> String {
        run(w, seed, false)
            .into_iter()
            .find(|l| l.starts_with(&format!("{w} inputs_hash ")))
            .expect("an inputs_hash line")
    };
    for w in WORKLOADS {
        assert_eq!(digest(w, 5), digest(w, 5));
        assert_ne!(digest(w, 5), digest(w, 6));
    }
}

#[test]
fn fixed_seed_gives_identical_inputs() {
    let g = Size::Tiny.spec().generate(9);
    let a = inputs::recommend_requests(&g, 9, 256);
    let b = inputs::recommend_requests(&Size::Tiny.spec().generate(9), 9, 256);
    assert_eq!(recommend::input_digest(&a), recommend::input_digest(&b));
    let c = inputs::recommend_requests(&g, 10, 256);
    assert_ne!(recommend::input_digest(&a), recommend::input_digest(&c));
    for req in &a {
        assert_eq!(req.len(), inputs::CANDIDATES);
        let u = req[0].0;
        assert!(req.iter().all(|&(x, v)| x == u && v != u));
    }

    let n = g.node_count();
    assert_eq!(
        serve_open::input_digest(n, 9),
        serve_open::input_digest(n, 9)
    );
    assert_ne!(
        serve_open::input_digest(n, 9),
        serve_open::input_digest(n, 10)
    );

    let e = ingest::make_inputs(Size::Tiny, 9);
    assert_eq!(e.hash(), ingest::make_inputs(Size::Tiny, 9).hash());
    assert_ne!(e.hash(), ingest::make_inputs(Size::Tiny, 10).hash());
    assert!(e.events.windows(2).all(|w| w[0].2 <= w[1].2));
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", "
            )),
            "{name} [{unit}] missing from BENCHMARK.json"
        );
    }
    let listed = json.matches("{\"name\": ").count();
    assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}
