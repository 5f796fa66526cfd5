//! Round trip: simulate a suite, serialize its trace, damage the bytes,
//! and recover the original through the lossy reader.

use iocov_trace::{EventSource, JsonlCursor, ReadOptions};
use iocov_workloads::{corrupt_jsonl, CrashMonkeySim, TestEnv};

#[test]
fn lossy_reader_recovers_simulated_trace_from_corruption() {
    let env = TestEnv::new();
    let _ = CrashMonkeySim::new(11, 0.01).run(&env);
    let clean = env.take_trace();
    assert!(clean.len() > 100, "simulation produced a real trace");
    let mut serialized = Vec::new();
    iocov_trace::write_jsonl(&mut serialized, &clean).unwrap();
    let text = String::from_utf8(serialized).unwrap();

    for seed in 0..16 {
        let corrupted = corrupt_jsonl(&text, seed);
        let mut source = JsonlCursor::new(&corrupted.bytes[..], ReadOptions::default());
        let trace = source.read_all().unwrap();
        let read = source.position().state;
        // A truncated tail destroys the final record; everything else
        // must survive intact.
        let survivors = if corrupted.truncated_tail {
            &clean.events()[..clean.len() - 1]
        } else {
            clean.events()
        };
        assert_eq!(
            trace.events(),
            survivors,
            "seed {seed}: recovered trace differs from the intact records"
        );
        assert_eq!(
            read.skipped.len(),
            corrupted.expected_skips(),
            "seed {seed}: skip count diverges from injected defects"
        );
        assert_eq!(read.bom_stripped, corrupted.bom, "seed {seed}");
        assert!(
            read.crlf_lines >= corrupted.crlf_lines,
            "seed {seed}: CRLF accounting lost lines"
        );
    }
}
