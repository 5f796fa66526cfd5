//! A large many-pid trace.
//!
//! The paper's suite traces have two pids each. [`many_pid_trace`] runs
//! eight simulated xfstests suites at scale 0.01 (seeds 1000–1007) and
//! concatenates their traces: ~1.39M events over 16 pids, the input of
//! the restart referees and of per-thread CPU and peak-RSS checks.

use iocov_trace::Trace;

use crate::{TestEnv, XfstestsSim};

const RUNS: u32 = 8;
const SCALE: f64 = 0.01;
const FIRST_SEED: u64 = 1000;

/// The eight runs' traces, concatenated. Pid `p` of run `i` becomes
/// `p * 16 + i`, which keeps the runs' pids apart, and events are
/// renumbered in order.
#[must_use]
pub fn many_pid_trace() -> Trace {
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
    Trace::from_events(events)
}
