//! The benchmark's own smoke test, at tiny scale: every workload of
//! `BENCHMARK.json` runs untraced and traced, passes its output checks,
//! prints every metric `BENCHMARK.json` names (with its unit) on its last
//! line, prints its own end-to-end metrics by name, and reports real work
//! in the layers it exercises.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```
//!
//! A debug build refuses to measure; under `cargo test` without
//! `--release` only that refusal is checked.

use std::process::{Command, Output};

use probkb_support::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

fn perfbench(workload: &str, trace: u8) -> Output {
    Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench")
}

#[test]
#[cfg(debug_assertions)]
fn debug_build_refuses_to_measure() {
    let out = perfbench("expand", 0);
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}

/// The end-to-end report metrics each workload prints, with units.
#[cfg(not(debug_assertions))]
fn named_metrics(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "expand" | "expand_paged" => &[("expand_s", "s")],
        "update" => &[
            ("setup_s", "s"),
            ("update_ms_p50", "ms"),
            ("update_ms_p90", "ms"),
        ],
        _ => &[
            ("setup_s", "s"),
            ("update_ms_p50", "ms"),
            ("read_us_p50", "us"),
            ("read_us_p99", "us"),
            ("read_qps", "1/s"),
            ("local_ms_p50", "ms"),
            ("local_ms_p99", "ms"),
            ("local_fresh_ms_p50", "ms"),
        ],
    }
}

/// Per-layer metrics that must show work on each workload.
#[cfg(not(debug_assertions))]
fn busy_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "expand" => &[
            "kb.parse_ms",
            "core.ground_s",
            "core.iterations",
            "core.facts_out",
            "factorgraph.build_ms",
            "factorgraph.lineage_ms",
            "inference.sample_s",
            "inference.writeback_ms",
        ],
        "expand_paged" => &["core.ground_s", "pager.pins", "pager.misses"],
        "update" => &[
            "core.delta_ms",
            "core.delta_rounds",
            "core.prepare_ms",
            "inference.blanket_ms",
            "inference.blanket_touched",
            "storage.wal_commit_ms",
            "storage.wal_bytes",
            "server.epoch_build_ms",
        ],
        _ => &[
            "core.delta_ms",
            "core.local_index_ms",
            "core.local_nodes",
            "server.lookup_us_p50",
            "server.local_miss_share",
        ],
    }
}

#[cfg(not(debug_assertions))]
fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

#[cfg(not(debug_assertions))]
fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
#[cfg(not(debug_assertions))]
fn every_workload_reports_every_metric() {
    let spec = spec();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["expand", "expand_paged", "update", "serve"]);

    for workload in &workloads {
        for trace in [0u8, 1] {
            let out = perfbench(workload, trace);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let context = format!(
                "{workload} trace={trace}\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{context}");
            let result = Json::parse(stdout.lines().last().expect("a result line"))
                .unwrap_or_else(|e| panic!("result is not JSON ({e:?}): {context}"));
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{context}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{context}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_u64) > Some(0),
                "{context}"
            );

            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{name}: {context}"
                    );
                    (name.clone(), unit.to_string())
                })
                .collect();
            let want = names(
                &spec,
                if trace == 0 {
                    "end_to_end"
                } else {
                    "per_layer"
                },
            );
            assert_eq!(got, want, "{context}");

            let value = |name: &str| {
                metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .and_then(|(_, m)| m.get("value").and_then(Json::as_f64))
                    .expect(name)
            };
            if trace == 0 {
                for (name, _) in want {
                    assert!(value(&name) > 0.0, "{name} reads 0: {context}");
                }
                for (name, unit) in named_metrics(workload) {
                    let line = format!("metric {name} = ");
                    let found = stdout
                        .lines()
                        .find(|l| l.starts_with(&line))
                        .unwrap_or_else(|| panic!("{name} not printed: {context}"));
                    assert!(found.contains(&format!(" {unit} (n=")), "{found}");
                }
                assert!(stdout.contains("\nfailed_share = 0 "), "{context}");
            } else {
                for name in busy_layers(workload) {
                    assert!(value(name) > 0.0, "{name} shows no work: {context}");
                }
                assert!(stdout.contains("tracing overhead: "), "{context}");
            }
            assert!(stdout.starts_with("meta workload="), "{context}");
            assert!(stdout.contains(" nproc="), "{context}");
            assert!(stdout.contains(" rustc=\""), "{context}");
        }
    }
}
