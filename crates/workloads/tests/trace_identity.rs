//! Trace golden: a small seeded run in the shape of the `suite-live`
//! benchmark (xfstests in 25-test chunks drained with `take_trace`, then
//! CrashMonkey) must serialize to exactly the bytes it always has.
//!
//! Descriptor numbers, errno outcomes, offsets and paths are all traced,
//! so any change to the simulated kernel's bookkeeping — the lowest-free
//! fd rule above all — that alters observable behaviour moves this hash.

use iocov_workloads::{CrashMonkeySim, TestEnv, XfstestsSim};

const SEED: u64 = 7;
const SCALE: f64 = 0.001;
const TESTS: usize = 75;
const CHUNK: usize = 25;

/// FNV-1a 64 of the run's `write_jsonl` bytes, captured from the
/// simulator before its descriptor table and maps were rewritten.
const GOLDEN_FNV: u64 = 16_957_865_319_127_983_562;
/// Events in the run.
const GOLDEN_EVENTS: usize = 28_993;

#[test]
fn suite_live_shaped_run_is_byte_identical() {
    let env = TestEnv::new();
    let sim = XfstestsSim::new(SEED, SCALE);
    assert!(sim.total_tests() >= TESTS, "the run covers {TESTS} tests");
    let mut kernel = env.fresh_kernel();
    let mut events = Vec::new();
    let mut start = 0;
    while start < TESTS {
        let end = (start + CHUNK).min(TESTS);
        let _ = sim.run_range(&mut kernel, start..end);
        events.extend(env.take_trace());
        start = end;
    }
    let _ = CrashMonkeySim::new(SEED, SCALE).run(&env);
    events.extend(env.take_trace());

    let trace = iocov_trace::Trace::from_events(events);
    let mut bytes = Vec::new();
    iocov_trace::write_jsonl(&mut bytes, &trace).unwrap();
    assert_eq!(trace.len(), GOLDEN_EVENTS, "event count");
    assert_eq!(
        iocov::checkpoint::fnv1a64(&bytes),
        GOLDEN_FNV,
        "trace bytes differ from the golden run"
    );
}
