//! Shared harness for the figure/table reproduction binary and the
//! Criterion benchmarks.
//!
//! The central entry point is [`run_suites`]: it executes both simulated
//! test suites (CrashMonkey and xfstests) against fresh in-memory file
//! systems, draining and analyzing the shared trace in chunks so that a
//! full paper-scale run (millions of events) stays within bounded
//! memory, and returns the merged [`AnalysisReport`] per suite with the
//! analysis counters and stage timings of the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use iocov::{
    AnalysisReport, ArgName, InputPartition, MetricsSnapshot, PipelineBuilder, PipelineMetrics,
    TraceFilter,
};
use iocov_workloads::{CrashMonkeySim, SuiteResult, TestEnv, XfstestsSim, MOUNT};

/// A counting wrapper over the system allocator, so an allocation
/// count is measured rather than estimated. perfbench's traced binary
/// registers it, and its `*.allocs_per_event` metrics read
/// [`alloc_calls`]. Register it in the binary that wants counts:
///
/// ```
/// #[global_allocator]
/// static ALLOC: iocov_bench::CountingAlloc = iocov_bench::CountingAlloc;
///
/// fn main() {
///     let before = iocov_bench::alloc_calls();
///     let buffer = std::hint::black_box(Vec::<u8>::with_capacity(64));
///     assert!(iocov_bench::alloc_calls() > before);
///     drop(buffer);
/// }
/// ```
///
/// The only overhead is one relaxed atomic increment per
/// alloc/realloc; without registration [`alloc_calls`] stays at zero.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Total alloc + realloc calls since process start (zero unless
/// [`CountingAlloc`] is the registered global allocator).
#[must_use]
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Chunk size (in xfstests tests) between recorder drains.
const CHUNK: usize = 25;

/// Reports and results for both suites.
#[derive(Debug, Clone)]
pub struct SuiteReports {
    /// CrashMonkey's coverage report.
    pub crashmonkey: AnalysisReport,
    /// xfstests' coverage report.
    pub xfstests: AnalysisReport,
    /// CrashMonkey run outcome (oracle violations, if bugs are injected).
    pub crashmonkey_result: SuiteResult,
    /// xfstests run outcome.
    pub xfstests_result: SuiteResult,
    /// Both suites' analysis counters, summed.
    pub counters: MetricsSnapshot,
    /// Wall-clock nanoseconds per stage (`simulate`, `analyze`).
    pub stage_timings: BTreeMap<String, u64>,
}

/// Runs both suites at `scale` and analyzes their traces with the
/// standard mount-point filter. Both suites' analysis sessions count
/// into the same metrics, and the simulation and analysis stages are
/// wall-clock timed.
#[must_use]
pub fn run_suites(seed: u64, scale: f64) -> SuiteReports {
    let Ok(filter) = TraceFilter::mount_point(MOUNT);
    let metrics = Arc::new(PipelineMetrics::default());
    let session = |filter: TraceFilter| {
        PipelineBuilder::new(filter)
            .metrics(Arc::clone(&metrics))
            .build_session()
    };

    // CrashMonkey: small; single pass.
    let cm_env = TestEnv::new();
    let cm_sim = CrashMonkeySim::new(seed, scale);
    let crashmonkey_result = {
        let _timer = metrics.time_stage("simulate");
        cm_sim.run(&cm_env)
    };
    let mut cm_session = session(filter.clone());
    cm_session.feed_owned(cm_env.take_trace().into_events());
    let (crashmonkey, _) = cm_session.finish();

    // xfstests: streamed so memory stays bounded at paper scale, with
    // the shard's descriptor-provenance state preserved across chunks.
    let xfs_env = TestEnv::new();
    let xfs_sim = XfstestsSim::new(seed, scale);
    let mut kernel = xfs_env.fresh_kernel();
    let mut xfs_session = session(filter);
    let mut xfstests_result = SuiteResult::new("xfstests");
    let total = xfs_sim.total_tests();
    let mut start = 0;
    while start < total {
        let end = (start + CHUNK).min(total);
        let chunk_result = {
            let _timer = metrics.time_stage("simulate");
            xfs_sim.run_range(&mut kernel, start..end)
        };
        xfstests_result.merge(chunk_result);
        xfs_session.feed_owned(xfs_env.take_trace().into_events());
        start = end;
    }
    let (xfstests, _) = xfs_session.finish();

    SuiteReports {
        crashmonkey,
        xfstests,
        crashmonkey_result,
        xfstests_result,
        counters: metrics.snapshot(),
        stage_timings: metrics.stage_timings(),
    }
}

/// Convenience: the per-flag frequency of `open.flags` for one suite, in
/// Figure 2 axis order.
#[must_use]
pub fn open_flag_frequencies(report: &AnalysisReport) -> Vec<(&'static str, u64)> {
    let cov = report.input_coverage(ArgName::OpenFlags);
    iocov::open_flag_names()
        .into_iter()
        .map(|name| (name, cov.count(&InputPartition::Flag(name.to_owned()))))
        .collect()
}

/// A small deterministic trace for benchmark inputs: `events` syscalls
/// with a realistic mix, recorded from real kernel activity.
#[must_use]
pub fn sample_trace(events: usize) -> iocov_trace::Trace {
    use iocov_workloads::emit_noise;
    let env = TestEnv::new();
    let mut kernel = env.fresh_kernel();
    kernel.mkdir(&format!("{MOUNT}/bench"), 0o755);
    let mut produced = 0usize;
    let mut i = 0u64;
    while produced < events {
        let path = format!("{MOUNT}/bench/f{}", i % 64);
        let fd = kernel.open(&path, 0o102 | 0o100, 0o644);
        if fd >= 0 {
            let fd = fd as i32;
            kernel.write(fd, &[0u8; 512]);
            kernel.pread64(fd, 512, 0);
            kernel.lseek(fd, 0, 2);
            kernel.close(fd);
        }
        if i.is_multiple_of(16) {
            emit_noise(&mut kernel, i as usize);
        }
        produced = env.recorder().len();
        i += 1;
    }
    env.take_trace()
}

/// A deterministic multi-process trace for the checkpoint benchmarks:
/// `pids` independent tester processes (as a parallel `check`-style
/// harness would spawn), interleaved round-robin, at least `events`
/// syscalls in total.
#[must_use]
pub fn multi_pid_trace(events: usize, pids: u32) -> iocov_trace::Trace {
    let pids = pids.max(1);
    let per_pid = events / pids as usize + 1;
    let streams: Vec<Vec<iocov_trace::TraceEvent>> = (0..pids)
        .map(|p| {
            let mut stream = sample_trace(per_pid).into_events();
            for event in &mut stream {
                event.pid = p + 1;
            }
            stream
        })
        .collect();
    let mut merged = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for stream in &streams {
            if let Some(event) = stream.get(i) {
                merged.push(event.clone());
            }
        }
    }
    iocov_trace::Trace::from_events(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iocov::Iocov;

    #[test]
    fn multi_pid_trace_interleaves_processes() {
        let trace = multi_pid_trace(400, 4);
        assert!(trace.len() >= 400);
        let pids: std::collections::BTreeSet<u32> = trace.iter().map(|e| e.pid).collect();
        assert_eq!(pids.len(), 4);
        // Round-robin interleave: the first events cycle through pids.
        let head: Vec<u32> = trace.iter().take(4).map(|e| e.pid).collect();
        assert_eq!(head, [1, 2, 3, 4]);
    }

    #[test]
    fn run_suites_produces_both_reports() {
        let reports = run_suites(5, 0.01);
        assert!(reports.crashmonkey.total_calls() > 1000);
        assert!(reports.xfstests.total_calls() > 1000);
        assert!(reports.crashmonkey_result.crash_violations.is_empty());
        assert_eq!(reports.xfstests_result.tests_run, 1014);
        // Both sessions counted into the run's metrics.
        let events = reports.crashmonkey.filter_stats.total + reports.xfstests.filter_stats.total;
        assert_eq!(reports.counters.events_read, events as u64);
        for stage in ["simulate", "analyze"] {
            assert!(reports.stage_timings.contains_key(stage), "{stage}");
        }
    }

    #[test]
    fn chunked_xfstests_equals_single_pass() {
        // The chunked analysis must agree with analyzing one big trace.
        let iocov = Iocov::with_mount_point(MOUNT).unwrap();
        let env = TestEnv::new();
        let sim = XfstestsSim::new(3, 0.01);
        let mut kernel = env.fresh_kernel();
        let _ = sim.run_range(&mut kernel, 0..26);
        let whole = iocov.analyze(&env.take_trace());

        let env2 = TestEnv::new();
        let mut kernel2 = env2.fresh_kernel();
        let mut merged = AnalysisReport::default();
        let _ = sim.run_range(&mut kernel2, 0..13);
        merged.merge(&iocov.analyze(&env2.take_trace()));
        let _ = sim.run_range(&mut kernel2, 13..26);
        merged.merge(&iocov.analyze(&env2.take_trace()));

        assert_eq!(whole.input, merged.input);
        assert_eq!(whole.output, merged.output);
    }

    #[test]
    fn flag_frequencies_cover_axis() {
        let reports = run_suites(6, 0.01);
        let freqs = open_flag_frequencies(&reports.xfstests);
        assert_eq!(freqs.len(), 20);
        assert!(freqs.iter().any(|(_, c)| *c > 0));
    }

    #[test]
    fn sample_trace_has_requested_volume() {
        let trace = sample_trace(500);
        assert!(trace.len() >= 500);
    }
}
