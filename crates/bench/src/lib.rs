//! Shared harness for the figure/table reproduction binary and the
//! Criterion benchmarks.
//!
//! The central entry point is [`run_suites`]: it executes both simulated
//! test suites (CrashMonkey and xfstests) against fresh in-memory file
//! systems, draining and analyzing the shared trace in chunks so that a
//! full paper-scale run (millions of events) stays within bounded
//! memory, and returns the merged [`AnalysisReport`] per suite.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use iocov::{
    AnalysisReport, AnalysisSession, ArgName, Driver, InputPartition, PipelineBuilder,
    PipelineMetrics, StreamingAnalyzer, TraceFilter,
};
use iocov_workloads::{CrashMonkeySim, SuiteResult, TestEnv, XfstestsSim, MOUNT};

/// A counting wrapper over the system allocator, for the real (not
/// estimated) allocations-per-event numbers in the `batch_throughput`
/// bench and `repro --full`. Register it in the binary that wants
/// counts:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: iocov_bench::CountingAlloc = iocov_bench::CountingAlloc;
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
}

/// Runs both suites at `scale` and analyzes their traces with the
/// standard mount-point filter.
#[must_use]
pub fn run_suites(seed: u64, scale: f64) -> SuiteReports {
    run_suites_parallel(seed, scale, 1)
}

/// Runs both suites at `scale`, analyzing their traces with `jobs`
/// pid-sharded worker threads. The reports are identical to
/// [`run_suites`] for any `jobs` — sharding is by pid, and all filter
/// state is per-pid.
#[must_use]
pub fn run_suites_parallel(seed: u64, scale: f64, jobs: usize) -> SuiteReports {
    run_suites_parallel_with_metrics(seed, scale, jobs, None)
}

/// [`run_suites_parallel`] with an optional shared metrics instance:
/// both suites' analysis pipelines record into the same counters, and
/// the simulation / analysis stages are wall-clock timed.
#[must_use]
pub fn run_suites_parallel_with_metrics(
    seed: u64,
    scale: f64,
    jobs: usize,
    metrics: Option<Arc<PipelineMetrics>>,
) -> SuiteReports {
    let filter = TraceFilter::mount_point(MOUNT).expect("static mount pattern compiles");
    let session = |filter: TraceFilter| {
        let mut builder = PipelineBuilder::new(filter).jobs(jobs);
        if let Some(m) = &metrics {
            builder = builder.metrics(Arc::clone(m));
        }
        builder.build_session()
    };

    // CrashMonkey: small; single pass.
    let cm_env = TestEnv::new();
    let cm_sim = CrashMonkeySim::new(seed, scale);
    let crashmonkey_result = {
        let _timer = metrics.as_deref().map(|m| m.time_stage("simulate"));
        cm_sim.run(&cm_env)
    };
    let mut cm_session = session(filter.clone());
    cm_session.feed_owned(cm_env.take_trace().into_events());
    let (crashmonkey, _) = cm_session.finish();

    // xfstests: streamed so memory stays bounded at paper scale, with
    // each shard's descriptor-provenance state preserved across chunks.
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
            let _timer = metrics.as_deref().map(|m| m.time_stage("simulate"));
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

/// A deterministic multi-process trace for the parallel-analysis
/// benchmarks: `pids` independent tester processes (as a parallel
/// `check`-style harness would spawn), interleaved round-robin, at least
/// `events` syscalls in total.
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

/// One ingest-throughput measurement for `BENCH_repro.json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct IngestThroughput {
    /// Reader under test: `jsonl-strict`, `jsonl-lossy`, `iotb`, or
    /// `iotb-indexed-jobsN` (block-indexed v2, N decode workers).
    pub format: String,
    /// Events decoded per pass.
    pub events: usize,
    /// Container size in bytes.
    pub bytes: usize,
    /// Best-of-three wall-clock seconds for one full decode.
    pub seconds: f64,
    /// Events decoded per second at that best time.
    pub events_per_sec: f64,
}

/// Measures ingest throughput of the trace readers — strict and lossy
/// JSONL, serial `.iotb`, and block-indexed v2 decode at 1/2/4 workers
/// — over the same `events`-call sample trace (best of three passes
/// each), for the `repro --full` benchmark document.
#[must_use]
pub fn measure_ingest_throughput(events: usize) -> Vec<IngestThroughput> {
    use iocov_trace::EventSource;
    let trace = sample_trace(events);
    let mut jsonl = Vec::new();
    iocov_trace::write_jsonl(&mut jsonl, &trace).expect("serialize jsonl");
    let mut iotb = Vec::new();
    iocov_trace::write_iotb(&mut iotb, &trace).expect("serialize iotb");
    let mut indexed = Vec::new();
    iocov_trace::write_iotb_indexed(&mut indexed, &trace, iocov_trace::DEFAULT_BLOCK_EVENTS)
        .expect("serialize indexed iotb");
    let indexed = std::sync::Arc::new(indexed);
    let options = iocov_trace::ReadOptions::default();

    let drain_indexed = |jobs: usize| -> usize {
        let mut source =
            iocov_trace::IotbBlockSource::new(std::sync::Arc::clone(&indexed), options, jobs)
                .expect("clean container");
        let mut decoded = 0;
        loop {
            let batch = source.next_batch(4096).expect("clean parses");
            if batch.is_empty() {
                break;
            }
            decoded += batch.len();
        }
        decoded
    };

    let best_of_3 = |run: &dyn Fn() -> usize| -> (usize, f64) {
        let mut best = f64::INFINITY;
        let mut decoded = 0;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            decoded = run();
            best = best.min(start.elapsed().as_secs_f64());
        }
        (decoded, best)
    };
    type Pass<'a> = (&'a str, usize, Box<dyn Fn() -> usize + 'a>);
    let passes: [Pass; 6] = [
        (
            "jsonl-strict",
            jsonl.len(),
            Box::new(|| {
                iocov_trace::read_jsonl(&jsonl[..])
                    .expect("clean parses")
                    .len()
            }),
        ),
        (
            "jsonl-lossy",
            jsonl.len(),
            Box::new(|| {
                iocov_trace::JsonlCursor::new(&jsonl[..], options)
                    .read_all()
                    .expect("clean parses")
                    .len()
            }),
        ),
        (
            "iotb",
            iotb.len(),
            Box::new(|| {
                iocov_trace::read_iotb(&iotb[..])
                    .expect("clean parses")
                    .len()
            }),
        ),
        (
            "iotb-indexed-jobs1",
            indexed.len(),
            Box::new(|| drain_indexed(1)),
        ),
        (
            "iotb-indexed-jobs2",
            indexed.len(),
            Box::new(|| drain_indexed(2)),
        ),
        (
            "iotb-indexed-jobs4",
            indexed.len(),
            Box::new(|| drain_indexed(4)),
        ),
    ];
    passes
        .iter()
        .map(|(format, bytes, run)| {
            let (decoded, seconds) = best_of_3(run);
            IngestThroughput {
                format: (*format).to_owned(),
                events: decoded,
                bytes: *bytes,
                seconds,
                events_per_sec: decoded as f64 / seconds,
            }
        })
        .collect()
}

/// Decode an `.iotb` byte stream the pre-batch way — every record
/// materialized as an owned [`iocov_trace::TraceEvent`] (name `String`
/// plus args `Vec` plus payload `String`s), pushed, dropped — and
/// analyze it with the standard mount filter. Returns
/// `(events, report)`.
///
/// This is the per-event baseline the columnar batch path is measured
/// against; both must produce the identical report.
#[must_use]
pub fn analyze_iotb_per_event(iotb: &[u8]) -> (usize, AnalysisReport) {
    let options = iocov_trace::ReadOptions::default();
    let mut cursor = iocov_trace::IotbCursor::new(iotb, options).expect("clean container");
    let filter = TraceFilter::mount_point(MOUNT).expect("static mount pattern compiles");
    let mut analyzer = StreamingAnalyzer::new(filter);
    let mut events = 0usize;
    while let Some(event) = cursor.next_event().expect("clean parses") {
        analyzer.push(&event);
        events += 1;
    }
    (events, analyzer.finish())
}

/// Decode the same `.iotb` byte stream through the columnar hot path —
/// records packed straight into [`iocov_trace::EventBatch`] rows and
/// walked as borrowed `EventRef`s, O(columns) allocations per batch —
/// and analyze it with the standard mount filter.
#[must_use]
pub fn analyze_iotb_batched(iotb: &[u8]) -> (usize, AnalysisReport) {
    let options = iocov_trace::ReadOptions::default();
    let mut cursor = iocov_trace::IotbCursor::new(iotb, options).expect("clean container");
    let filter = TraceFilter::mount_point(MOUNT).expect("static mount pattern compiles");
    let mut analyzer = StreamingAnalyzer::new(filter);
    let mut events = 0usize;
    loop {
        let mut batch = iocov_trace::EventBatch::with_capacity(1024);
        while batch.len() < 4096 {
            if !cursor.next_into(&mut batch).expect("clean parses") {
                break;
            }
        }
        if batch.is_empty() {
            break;
        }
        for event in batch.iter() {
            analyzer.push(&event);
        }
        events += batch.len();
    }
    (events, analyzer.finish())
}

/// Decode-only per-event baseline: materialize and drop an owned
/// [`iocov_trace::TraceEvent`] per record, no analysis. Isolates the
/// allocation cost of event materialization itself.
#[must_use]
pub fn decode_iotb_per_event(iotb: &[u8]) -> usize {
    let options = iocov_trace::ReadOptions::default();
    let mut cursor = iocov_trace::IotbCursor::new(iotb, options).expect("clean container");
    let mut events = 0usize;
    while let Some(event) = cursor.next_event().expect("clean parses") {
        std::hint::black_box(&event);
        events += 1;
    }
    events
}

/// Decode-only batch path: records packed into columnar
/// [`iocov_trace::EventBatch`]es, no analysis.
#[must_use]
pub fn decode_iotb_batched(iotb: &[u8]) -> usize {
    let options = iocov_trace::ReadOptions::default();
    let mut cursor = iocov_trace::IotbCursor::new(iotb, options).expect("clean container");
    let mut events = 0usize;
    loop {
        let mut batch = iocov_trace::EventBatch::with_capacity(1024);
        while batch.len() < 4096 {
            if !cursor.next_into(&mut batch).expect("clean parses") {
                break;
            }
        }
        if batch.is_empty() {
            break;
        }
        std::hint::black_box(&batch);
        events += batch.len();
    }
    events
}

/// One decode→filter→analyze measurement for `BENCH_repro.json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BatchThroughput {
    /// `per-event` / `batch` (full decode→filter→analyze with owned
    /// `TraceEvent`s vs columnar `EventBatch` rows), or
    /// `per-event-decode` / `batch-decode` (decode only — isolates
    /// the allocation cost of event materialization).
    pub path: String,
    /// Events analyzed per pass.
    pub events: usize,
    /// Best-of-three wall-clock seconds for one full pass.
    pub seconds: f64,
    /// Events analyzed per second at that best time.
    pub events_per_sec: f64,
    /// Allocator calls (alloc + realloc) in the best pass — real
    /// counts from [`CountingAlloc`] when registered, zero otherwise.
    pub allocs: u64,
    /// `allocs / events`.
    pub allocs_per_event: f64,
}

/// Measures the per-event vs columnar-batch decode→filter→analyze hot
/// path over the same `events`-call sample trace (best of three passes
/// each), asserting first that both paths produce the identical
/// report. Allocation counts are real iff [`CountingAlloc`] is the
/// caller's registered global allocator.
#[must_use]
pub fn measure_batch_throughput(events: usize) -> Vec<BatchThroughput> {
    let trace = sample_trace(events);
    let mut iotb = Vec::new();
    iocov_trace::write_iotb(&mut iotb, &trace).expect("serialize iotb");

    // Referee first: a speedup on a divergent report is meaningless.
    assert_eq!(
        analyze_iotb_per_event(&iotb).1,
        analyze_iotb_batched(&iotb).1,
        "per-event and batch analysis paths diverged"
    );

    type Pass<'a> = (&'a str, Box<dyn Fn(&[u8]) -> usize + 'a>);
    let passes: [Pass; 4] = [
        (
            "per-event",
            Box::new(|b: &[u8]| analyze_iotb_per_event(b).0),
        ),
        ("batch", Box::new(|b: &[u8]| analyze_iotb_batched(b).0)),
        ("per-event-decode", Box::new(decode_iotb_per_event)),
        ("batch-decode", Box::new(decode_iotb_batched)),
    ];
    passes
        .iter()
        .map(|(path, run)| {
            let mut best = f64::INFINITY;
            let mut best_allocs = u64::MAX;
            let mut decoded = 0usize;
            for _ in 0..3 {
                let allocs_before = alloc_calls();
                let start = std::time::Instant::now();
                let n = run(&iotb);
                let elapsed = start.elapsed().as_secs_f64();
                best_allocs = best_allocs.min(alloc_calls() - allocs_before);
                best = best.min(elapsed);
                decoded = n;
            }
            BatchThroughput {
                path: (*path).to_owned(),
                events: decoded,
                seconds: best,
                events_per_sec: decoded as f64 / best,
                allocs: best_allocs,
                allocs_per_event: best_allocs as f64 / decoded.max(1) as f64,
            }
        })
        .collect()
}

/// The chunk size both resident-path measurements pull at — the
/// `PipelineBuilder` default, so the comparison isolates the loop
/// ownership (who calls `feed`) rather than batch sizing.
const SERVE_CHUNK: usize = 4096;

fn serve_session() -> AnalysisSession {
    let filter = TraceFilter::mount_point(MOUNT).expect("static mount pattern compiles");
    PipelineBuilder::new(filter)
        .mount(Some(MOUNT.to_owned()))
        .build_session()
}

/// Analyze an `.iotb` byte stream with a caller-owned loop (as in
/// `suite-live`): it pulls [`EventBatch`]es from the source and pushes
/// them into a resident [`AnalysisSession`] via `feed`. Returns
/// `(events, report)`.
#[must_use]
pub fn analyze_iotb_session_feed(iotb: &[u8]) -> (usize, AnalysisReport) {
    use iocov_trace::EventSource;
    let options = iocov_trace::ReadOptions::default();
    let mut source =
        iocov_trace::IotbSource::new(std::io::Cursor::new(iotb), options).expect("clean container");
    let mut session = serve_session();
    loop {
        let batch = source.next_batch(SERVE_CHUNK).expect("clean parses");
        if batch.is_empty() {
            break;
        }
        session.feed(batch);
    }
    let events = usize::try_from(session.events()).expect("events fit usize");
    let (report, failures) = session.finish();
    assert!(failures.is_empty(), "fault-free feed produced failures");
    (events, report)
}

/// Analyze the same `.iotb` byte stream through the batch half: the
/// [`Driver`] owns the pull loop over the identical session. Returns
/// `(events, report)`.
#[must_use]
pub fn analyze_iotb_batch_driver(iotb: &[u8]) -> (usize, AnalysisReport) {
    let options = iocov_trace::ReadOptions::default();
    let mut source =
        iocov_trace::IotbSource::new(std::io::Cursor::new(iotb), options).expect("clean container");
    let run = Driver::new(serve_session(), SERVE_CHUNK, None)
        .run(&mut source)
        .expect("fault-free run");
    assert!(run.failures.is_empty(), "fault-free run produced failures");
    (
        usize::try_from(run.events).expect("events fit usize"),
        run.report,
    )
}

/// One resident-session vs batch-driver measurement for
/// `BENCH_repro.json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServeThroughput {
    /// `session-feed` (a caller-owned loop, as in `suite-live`, feeds
    /// a resident [`AnalysisSession`]) or `batch-driver` (the batch
    /// shape: [`Driver`] owns the pull loop over the same session).
    pub path: String,
    /// Events analyzed per pass.
    pub events: usize,
    /// Best-of-three wall-clock seconds for one full pass.
    pub seconds: f64,
    /// Events analyzed per second at that best time.
    pub events_per_sec: f64,
}

/// Measures the resident `session.feed` loop against the batch
/// [`Driver`] over the same `events`-call sample trace (best of three
/// passes each), asserting first that both paths produce the identical
/// report. The session *is* the driver's engine, so the two must stay
/// within a few percent of each other — the PR-10 inversion moved loop
/// ownership, not work; the `serve_throughput` bench pins that at 5%.
#[must_use]
pub fn measure_serve_throughput(events: usize) -> Vec<ServeThroughput> {
    let trace = sample_trace(events);
    let mut iotb = Vec::new();
    iocov_trace::write_iotb(&mut iotb, &trace).expect("serialize iotb");

    // Referee first: a speedup on a divergent report is meaningless.
    let (fed, session_report) = analyze_iotb_session_feed(&iotb);
    let (driven, driver_report) = analyze_iotb_batch_driver(&iotb);
    assert_eq!(fed, driven, "session and driver consumed different counts");
    assert_eq!(
        session_report, driver_report,
        "session-feed and batch-driver reports diverged"
    );

    type Pass<'a> = (&'a str, fn(&[u8]) -> (usize, AnalysisReport));
    let passes: [Pass; 2] = [
        ("session-feed", analyze_iotb_session_feed),
        ("batch-driver", analyze_iotb_batch_driver),
    ];
    // Interleave the rounds (A B A B …) rather than timing each path
    // in its own block: the two passes do identical work, so a noise
    // burst that lands on one block would otherwise read as a phantom
    // regression.
    let mut best = [f64::INFINITY; 2];
    let mut decoded = [0usize; 2];
    for _ in 0..7 {
        for (i, (_, run)) in passes.iter().enumerate() {
            let start = std::time::Instant::now();
            let (n, report) = run(&iotb);
            let elapsed = start.elapsed().as_secs_f64();
            std::hint::black_box(&report);
            best[i] = best[i].min(elapsed);
            decoded[i] = n;
        }
    }
    passes
        .iter()
        .enumerate()
        .map(|(i, (path, _))| ServeThroughput {
            path: (*path).to_owned(),
            events: decoded[i],
            seconds: best[i],
            events_per_sec: decoded[i] as f64 / best[i],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iocov::Iocov;

    #[test]
    fn parallel_run_matches_serial_run() {
        let serial = run_suites(9, 0.01);
        let parallel = run_suites_parallel(9, 0.01, 4);
        assert_eq!(serial.crashmonkey, parallel.crashmonkey);
        assert_eq!(serial.xfstests, parallel.xfstests);
    }

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

    #[test]
    fn per_event_and_batched_analysis_agree() {
        let trace = sample_trace(2_000);
        let mut iotb = Vec::new();
        iocov_trace::write_iotb(&mut iotb, &trace).unwrap();
        let (n_owned, owned) = analyze_iotb_per_event(&iotb);
        let (n_batch, batched) = analyze_iotb_batched(&iotb);
        assert_eq!(n_owned, trace.len());
        assert_eq!(n_batch, trace.len());
        assert_eq!(owned, batched);
    }
}
