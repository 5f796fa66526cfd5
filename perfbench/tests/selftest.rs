//! Tiny-size self-test of the benchmark: every workload's referee
//! passes untraced and traced, every metric `BENCHMARK.json` names is
//! printed with its unit, and the traced span tree is well formed.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use iocov_perfbench::spans::{check_tree, Spans, Tracer};
use iocov_perfbench::{inputs::Sizes, run_traced, run_untraced, Config, Outcome, Workload, RAW};

#[global_allocator]
static ALLOC: iocov_bench::CountingAlloc = iocov_bench::CountingAlloc;

#[derive(serde::Deserialize)]
struct Bench {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<WorkloadEntry>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

#[derive(serde::Deserialize)]
struct WorkloadEntry {
    name: String,
    why: String,
}

#[derive(serde::Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(serde::Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

#[derive(serde::Deserialize)]
struct Printed {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, PrintedMetric>,
}

#[derive(serde::Deserialize)]
struct PrintedMetric {
    value: f64,
    unit: String,
}

fn bench() -> Bench {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark directory");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// A scratch directory under the target dir, relative to the working
/// directory when possible (the serve socket path must stay short).
fn work_dir(tag: &str) -> PathBuf {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"));
    let cwd = std::env::current_dir().expect("working directory");
    base.strip_prefix(&cwd).map(PathBuf::from).unwrap_or(base)
}

fn config(workload: Workload, tag: &str) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        work_dir: work_dir(&format!("{}-{tag}", workload.name())),
        sizes: Sizes::tiny(),
        setup_reps: 2,
        trace_out: None,
        baseline_events_per_s: Some(1.0),
    }
}

fn run(workload: Workload, traced: bool) -> Outcome {
    let cfg = config(workload, if traced { "traced" } else { "plain" });
    let outcome = if traced {
        run_traced(&cfg, iocov_bench::alloc_calls)
    } else {
        run_untraced(&cfg)
    }
    .expect("set-up succeeds");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    outcome
}

/// The printed line parses, and carries exactly `expected` (name, unit).
fn assert_prints(outcome: &Outcome, expected: &[(String, String)]) {
    let printed: Printed = serde_json::from_str(&outcome.to_json()).expect("result line is JSON");
    assert_eq!(printed.correct, outcome.correct);
    assert!(printed.attempted >= 1);
    assert_eq!(printed.failed, outcome.failed);
    let got: Vec<(String, String)> = printed
        .metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.value.is_finite(), "{name} is not finite");
            (name.clone(), m.unit.clone())
        })
        .collect();
    let mut want = expected.to_vec();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn every_workload_passes_its_referee_and_prints_every_metric() {
    let bench = bench();
    assert_eq!(bench.command, ["python3", "perfbench/run.py"]);
    assert_eq!(bench.paths, ["perfbench"]);
    assert!((1..=60).contains(&bench.run_seconds));
    let names: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    // `serve-streams` runs by hand only (see the README); the referee
    // and metric checks below still cover it.
    let bounded: Vec<&str> = Workload::ALL
        .into_iter()
        .filter(|&w| w != Workload::ServeStreams)
        .map(Workload::name)
        .collect();
    assert_eq!(names, bounded);
    assert!(bench
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200));
    assert!(bench.end_to_end.iter().all(|m| m.bound > 0.0
        && m.bound <= 0.25
        && ["higher", "lower"].contains(&m.better.as_str())));
    assert!(bench
        .per_layer
        .iter()
        .all(|m| ["higher", "lower"].contains(&m.better.as_str())));
    // The untraced binary prints the raw figures after the end-to-end
    // metrics; run.py moves them into the traced run's per-layer set.
    let is_raw = |name: &str| RAW.iter().any(|(raw, _)| *raw == name);
    let raw: Vec<(String, String)> = bench
        .per_layer
        .iter()
        .filter(|m| is_raw(&m.name))
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    assert_eq!(raw.len(), RAW.len(), "BENCHMARK.json names every raw figure");
    let untraced: Vec<(String, String)> = bench
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .chain(raw)
        .collect();
    let traced_only: Vec<(String, String)> = bench
        .per_layer
        .iter()
        .filter(|m| !is_raw(&m.name))
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();

    for workload in Workload::ALL {
        let plain = run(workload, false);
        assert!(
            plain.correct && plain.failed == 0,
            "{} untraced referee failed",
            workload.name()
        );
        assert_prints(&plain, &untraced);
        for (name, (value, _)) in &plain.metrics {
            assert!(
                *value > 0.0,
                "{} end-to-end metric {name} is 0",
                workload.name()
            );
        }

        let traced = run(workload, true);
        assert!(
            traced.correct && traced.failed == 0,
            "{} traced referee failed",
            workload.name()
        );
        assert_eq!(
            traced.fingerprints, plain.fingerprints,
            "same seed, same inputs"
        );
        assert_prints(&traced, &traced_only);
        // Children inside parents, siblings disjoint, self times (u64,
        // so non-negative) summing exactly to each root.
        check_tree(&traced.spans).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    }
}

#[test]
fn seeds_fix_the_inputs() {
    let dir = work_dir("seeds");
    let sizes = Sizes::tiny();
    let prepare = |seed| {
        iocov_perfbench::inputs::prepare(Workload::HarnessJsonl, seed, &sizes, &dir)
            .expect("set-up")
            .remove(0)
    };
    let (a, b, c) = (prepare(1), prepare(1), prepare(2));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.reference, b.reference);
    assert_ne!(a.fingerprint.digest, c.fingerprint.digest);
    assert!(
        a.expected_skips > 0,
        "the damaged top of the file has skippable lines"
    );
}

#[test]
fn check_tree_rejects_a_child_outside_its_parent() {
    let mut tracer = Tracer::new(Instant::now(), || 0, 0);
    let root = tracer.enter("bench.op");
    let child = tracer.enter("trace.source");
    tracer.exit(child, 1);
    tracer.exit(root, 1);
    let mut spans = tracer.spans().to_vec();
    check_tree(&spans).expect("a recorded tree is well formed");
    spans[1].end_ns = spans[0].end_ns + 1;
    assert!(check_tree(&spans).is_err());
}
