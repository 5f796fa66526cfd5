//! Write a many-pid trace for timing pid-sharded `analyze --jobs N`
//! against `--jobs 1`.
//!
//! The paper's suite traces have two pids each, which pid sharding
//! cannot balance. This example runs eight simulated xfstests suites
//! at scale 0.01 (seeds 1000–1007) and concatenates their traces. Pid
//! `p` of run `i` becomes `p * 16 + i`, which keeps the runs' pids
//! apart, and events are renumbered in order. The result, ~1.39M
//! events over 16 pids, is written twice: as `<prefix>.jsonl` and as a
//! block-indexed `.iotb` v2 container, `<prefix>.iotb`.
//!
//! ```text
//! cargo run --release --example many_pid_trace [prefix]
//! iocov analyze <prefix>.iotb --mount /mnt/test --json --jobs 2
//! ```

use std::fs::File;

use iocov_trace::{write_iotb_indexed, write_jsonl, Trace, DEFAULT_BLOCK_EVENTS};
use iocov_workloads::{TestEnv, XfstestsSim};

const RUNS: u32 = 8;
const SCALE: f64 = 0.01;
const FIRST_SEED: u64 = 1000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prefix = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "many_pid".to_owned());
    let mut events = Vec::new();
    for run in 0..RUNS {
        let env = TestEnv::new();
        let _ = XfstestsSim::new(FIRST_SEED + u64::from(run), SCALE).run(&env);
        events.extend(env.take_trace().into_events().into_iter().map(|mut event| {
            event.pid = event.pid * 16 + run;
            event
        }));
    }
    for (seq, event) in events.iter_mut().enumerate() {
        event.seq = seq as u64;
    }
    let trace = Trace::from_events(events);
    let mut pids: Vec<u32> = trace.iter().map(|event| event.pid).collect();
    pids.sort_unstable();
    pids.dedup();

    write_jsonl(File::create(format!("{prefix}.jsonl"))?, &trace)?;
    write_iotb_indexed(
        File::create(format!("{prefix}.iotb"))?,
        &trace,
        DEFAULT_BLOCK_EVENTS,
    )?;
    eprintln!(
        "wrote {prefix}.jsonl and {prefix}.iotb: {} events over {} pids",
        trace.len(),
        pids.len()
    );
    Ok(())
}
