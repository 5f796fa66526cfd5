//! Write the many-pid trace: a large multi-process input for the
//! restart referees, per-thread CPU measurements and peak-RSS checks.
//!
//! [`iocov_workloads::many_pid_trace`] builds the trace: eight
//! simulated xfstests runs at scale 0.01 (seeds 1000–1007), ~1.39M
//! events over 16 pids. It is written twice: as `<prefix>.jsonl` and as
//! a block-indexed `.iotb` v2 container, `<prefix>.iotb`.
//!
//! ```text
//! cargo run --release --example many_pid_trace [prefix]
//! iocov analyze <prefix>.iotb --mount /mnt/test --json
//! ```

use std::fs::File;

use iocov_trace::{write_iotb_indexed, write_jsonl, DEFAULT_BLOCK_EVENTS};
use iocov_workloads::many_pid_trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prefix = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "many_pid".to_owned());
    let trace = many_pid_trace();
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
