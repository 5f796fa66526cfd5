//! One operation of each workload, in an untraced and a traced form.
//!
//! The untraced batch operations go through the `iocov` command line
//! exactly as a user runs it (`parse_args` + `run` into a buffer). The
//! traced forms make the same public calls layer by layer, wrapped in
//! spans, so the traced run checks the same referee on the same bytes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use iocov::{
    AnalysisReport, FeedConfig, PipelineBuilder, ServeConfig, StreamStatus, SupervisorPolicy,
    TraceFilter,
};
use iocov_trace::{
    open_source, ErrorPolicy, EventBatch, EventSource, ReadOptions, RetryRead, SkippedLine,
    SourceFormat, SourceOptions, SourcePos, TraceEvent, TraceIoError,
};
use iocov_workloads::{CrashMonkeySim, TestEnv, XfstestsSim, MOUNT};

use crate::inputs::{render, Prepared, Sizes, LIVE_CHUNK_TESTS};
use crate::spans::{SpanId, Spans, Tracer};

/// Feed client DATA frame size (the `iocov feed` default).
pub const FEED_CHUNK: usize = 64 * 1024;

/// Concurrent feed clients in `serve-streams` (one per core of the
/// two-core reference host).
pub const FEED_CLIENTS: usize = 2;

/// What one timed sample produced.
#[derive(Debug, Default)]
pub struct Sample {
    /// Wall time of the sample (one analyze run, or one serve session),
    /// at reference host speed once [`crate::host`] adjusted it.
    pub wall_s: f64,
    /// The wall time as measured on this host.
    pub raw_wall_s: f64,
    /// Events read.
    pub events: u64,
    /// Per-operation latencies: the run itself, or each stream's
    /// `run_feed` time.
    pub latencies: Vec<f64>,
    /// The latencies as measured on this host.
    pub raw_latencies: Vec<f64>,
    /// Operations attempted (1, or the stream count).
    pub attempted: u64,
    /// Operations that errored, mismatched the referee, or did not end
    /// `done`.
    pub failed: u64,
    /// Lossy-reader skips (traced batch runs only).
    pub skips: u64,
    /// The final report (runs that build it outside the CLI).
    pub report: Option<AnalysisReport>,
}

fn mount_filter() -> TraceFilter {
    TraceFilter::mount_point(MOUNT).expect("static mount pattern compiles")
}

/// The `iocov analyze` arguments of a batch workload.
#[must_use]
pub fn analyze_args(path: &Path, lossy: bool, jobs: usize) -> Vec<String> {
    let mut args = vec![
        "analyze".to_owned(),
        path.to_string_lossy().into_owned(),
        "--mount".to_owned(),
        MOUNT.to_owned(),
        "--json".to_owned(),
        "--jobs".to_owned(),
        jobs.to_string(),
    ];
    if lossy {
        args.push("--lossy".to_owned());
    }
    args
}

/// One `iocov analyze` run through the CLI library, from argument
/// parsing to the rendered report in a buffer.
#[must_use]
pub fn cli_op(args: &[String], prepared: &Prepared) -> Sample {
    let start = Instant::now();
    let mut out = Vec::with_capacity(prepared.reference.len());
    let result = iocov_cli::parse_args(args).and_then(|command| iocov_cli::run(&command, &mut out));
    let wall_s = start.elapsed().as_secs_f64();
    let ok = result.is_ok() && out == prepared.reference;
    if let Err(e) = &result {
        eprintln!("perfbench: analyze failed: {e}");
    } else if !ok {
        eprintln!("perfbench: analyze report differs from the reference");
    }
    Sample {
        wall_s,
        events: prepared.events,
        latencies: vec![wall_s],
        attempted: 1,
        failed: u64::from(!ok),
        ..Sample::default()
    }
}

/// An [`EventSource`] that records spans around the source and, in the
/// gaps between its pulls, around the caller's work: the [`Driver`]
/// feeds each batch into the session after its pull returns and pulls
/// again once the feed is done, and finishes the session after the
/// pull that returns no events.
///
/// [`Driver`]: iocov::Driver
struct SpanSource<'a> {
    inner: Box<dyn EventSource>,
    sp: &'a mut Tracer,
    /// The span over the caller's work since the last pull returned,
    /// and the events that pull delivered.
    gap: Option<(SpanId, u64)>,
    events: u64,
}

impl EventSource for SpanSource<'_> {
    fn next_batch(&mut self, max: usize) -> Result<EventBatch, TraceIoError> {
        if let Some((feed, n)) = self.gap.take() {
            self.sp.exit(feed, n);
        }
        let pull = self.sp.enter("trace.source");
        let batch = self.inner.next_batch(max);
        let n = batch.as_ref().map_or(0, |b| b.len() as u64);
        self.sp.exit(pull, n);
        if matches!(&batch, Ok(b) if !b.is_empty()) {
            self.events += n;
            self.gap = Some((self.sp.enter("core.session.feed"), n));
        } else {
            self.gap = Some((self.sp.enter("core.session.finish"), self.events));
        }
        batch
    }

    fn position(&self) -> SourcePos {
        self.inner.position()
    }

    fn skip_ledger(&self) -> &[SkippedLine] {
        self.inner.skip_ledger()
    }
}

/// The traced twin of [`cli_op`]: the same calls `iocov analyze` makes
/// (`open_source` over a `RetryRead`-wrapped file, a `PipelineBuilder`
/// pipeline with the default supervisor policy run by its `Driver`,
/// then the JSON rendering), with the source wrapped so that each pull,
/// each feed between pulls, and the finish get a span of their own.
#[must_use]
pub fn traced_batch_op(sp: &mut Tracer, prepared: &Prepared, lossy: bool, jobs: usize) -> Sample {
    let start = Instant::now();
    let root = sp.enter("bench.op");
    let open = sp.enter("trace.source");
    let options = SourceOptions {
        read: ReadOptions {
            max_errors: None,
            on_error: if lossy {
                ErrorPolicy::Skip
            } else {
                ErrorPolicy::Abort
            },
        },
        wrap: Some(Box::new(|file| Box::new(RetryRead::new(file)))),
        decode_jobs: jobs,
        ..SourceOptions::default()
    };
    let path = prepared.files[0].to_string_lossy().into_owned();
    let source = open_source(&path, options);
    sp.exit(open, 0);
    let inner = match source {
        Ok(source) => source,
        Err(e) => {
            sp.exit(root, 0);
            eprintln!("perfbench: cannot open {path}: {e}");
            return failed_sample(start);
        }
    };
    let mut source = SpanSource {
        inner,
        sp,
        gap: None,
        events: 0,
    };
    let run = PipelineBuilder::new(mount_filter())
        .mount(Some(MOUNT.to_owned()))
        .jobs(jobs)
        .policy(SupervisorPolicy::default())
        .build()
        .run(&mut source);
    let (events, gap) = (source.events, source.gap.take());
    if let Some((finish, n)) = gap {
        sp.exit(finish, n);
    }
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            sp.exit(root, events);
            eprintln!("perfbench: analyze failed: {e}");
            return failed_sample(start);
        }
    };
    let render_span = sp.enter("core.report.render");
    let bytes = render(&run.report);
    sp.exit(render_span, bytes.len() as u64);
    sp.exit(root, events);
    let wall_s = start.elapsed().as_secs_f64();
    let skips = run.skipped.len();
    let skips_ok = !lossy || skips == prepared.expected_skips;
    let ok = run.failures.is_empty()
        && bytes == prepared.reference
        && events == prepared.events
        && skips_ok;
    if !ok {
        eprintln!(
            "perfbench: traced analyze mismatch (events {events}/{}, skips {skips}/{}, shard failures {})",
            prepared.events,
            prepared.expected_skips,
            run.failures.len()
        );
    }
    Sample {
        wall_s,
        events,
        latencies: vec![wall_s],
        attempted: 1,
        failed: u64::from(!ok),
        skips: skips as u64,
        report: Some(run.report),
        ..Sample::default()
    }
}

fn failed_sample(start: Instant) -> Sample {
    let wall_s = start.elapsed().as_secs_f64();
    Sample {
        wall_s,
        latencies: vec![wall_s],
        attempted: 1,
        failed: 1,
        ..Sample::default()
    }
}

/// One `suite-live` run: simulate xfstests in 25-test chunks and then
/// CrashMonkey against the VFS, drain each chunk with `take_trace`, feed
/// it with `feed_owned` (jobs 1), finish and render.
pub fn live_op<S: Spans>(sp: &mut S, sizes: &Sizes, prepared: &Prepared) -> Sample {
    let seed = prepared.seed;
    let start = Instant::now();
    let root = sp.enter("bench.op");
    let mut session = PipelineBuilder::new(mount_filter())
        .mount(Some(MOUNT.to_owned()))
        .jobs(1)
        .build_session();
    let env = TestEnv::new();
    let sim = XfstestsSim::new(seed, sizes.live_scale);
    let mut kernel = env.fresh_kernel();
    let mut events = 0u64;
    let mut drain = |sp: &mut S, session: &mut iocov::AnalysisSession| {
        let take = sp.enter("trace.recorder.take");
        let chunk: Vec<TraceEvent> = env.take_trace().into_events();
        let n = chunk.len() as u64;
        sp.exit(take, n);
        let feed = sp.enter("core.session.feed_owned");
        session.feed_owned(chunk);
        sp.exit(feed, n);
        events += n;
    };
    let mut first = 0;
    while first < sizes.live_tests {
        let end = (first + LIVE_CHUNK_TESTS).min(sizes.live_tests);
        let simulate = sp.enter("workloads.simulate");
        let _ = sim.run_range(&mut kernel, first..end);
        sp.exit(simulate, env.recorder().len() as u64);
        drain(sp, &mut session);
        first = end;
    }
    let simulate = sp.enter("workloads.simulate");
    let _ = CrashMonkeySim::new(seed, sizes.live_scale).run(&env);
    sp.exit(simulate, env.recorder().len() as u64);
    drain(sp, &mut session);
    let finish = sp.enter("core.session.finish");
    let (report, failures) = session.finish();
    sp.exit(finish, events);
    let render_span = sp.enter("core.report.render");
    let bytes = render(&report);
    sp.exit(render_span, bytes.len() as u64);
    sp.exit(root, events);
    let wall_s = start.elapsed().as_secs_f64();
    let ok = failures.is_empty() && bytes == prepared.reference && events == prepared.events;
    if !ok {
        eprintln!("perfbench: suite-live report differs from the reference");
    }
    Sample {
        wall_s,
        events,
        latencies: vec![wall_s],
        attempted: 1,
        failed: u64::from(!ok),
        report: Some(report),
        ..Sample::default()
    }
}

/// The `status.json` document shape.
#[derive(serde::Deserialize)]
struct StatusDoc {
    streams: Vec<StreamStatus>,
}

/// Where one serve session keeps its state.
#[must_use]
pub fn serve_dir(work: &Path, session: u32) -> PathBuf {
    work.join(format!("serve-{session}"))
}

/// A serve session that does not drain within this time has hung.
const SERVE_DEADLINE: Duration = Duration::from_secs(120);

/// One `serve-streams` session: an in-process `run_serve` that drains
/// (returns) once every stream is done, fed by [`FEED_CLIENTS`]
/// closed-loop `run_feed` clients (each sends its next stream when the
/// previous call returns). With `tracer`, the server and client threads
/// record spans on lanes 1.. of their own, absorbed into `tracer`
/// afterwards.
///
/// # Panics
///
/// When the server thread panics, or a session outlives
/// [`SERVE_DEADLINE`] (the process exits rather than hang).
pub fn serve_op(
    work: &Path,
    session: u32,
    sizes: &Sizes,
    prepared: &Prepared,
    mut tracer: Option<&mut Tracer>,
) -> Sample {
    let dir = serve_dir(work, session);
    let socket = dir.join("s.sock");
    let streams = prepared.files.len();
    let cfg = ServeConfig {
        socket: Some(socket.clone()),
        spool: None,
        state_dir: dir.clone(),
        mount: Some(MOUNT.to_owned()),
        lossy: false,
        max_errors: None,
        checkpoint_every: sizes.serve_checkpoint_every,
        // A failed stream gives up at once, so the drain always ends.
        policy: SupervisorPolicy::default().with_max_restarts(0),
        drain: Some(streams),
    };
    let lane_tracer = |tid: u32| {
        tracer
            .as_ref()
            .map(|t| Tracer::new(t.epoch(), t.alloc_counter(), tid))
    };
    let mut server_tracer = lane_tracer(1);
    let client_tracers: Vec<Option<Tracer>> = (0..FEED_CLIENTS)
        .map(|c| lane_tracer(2 + c as u32))
        .collect();
    let run = tracer.as_ref().map_or(0, |t| t.run());
    let finished = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watchdog = {
        let finished = Arc::clone(&finished);
        thread::spawn(move || {
            let start = Instant::now();
            while !finished.load(Ordering::SeqCst) {
                if start.elapsed() > SERVE_DEADLINE {
                    eprintln!("perfbench: serve session {session} did not drain; giving up");
                    std::process::exit(3);
                }
                thread::sleep(Duration::from_millis(20));
            }
        })
    };
    let server = thread::spawn(move || {
        if let Some(t) = server_tracer.as_mut() {
            t.set_run(run);
        }
        let span = server_tracer.as_mut().map(|t| t.enter("core.serve.run"));
        let summary = iocov::run_serve(cfg);
        if let (Some(t), Some(span)) = (server_tracer.as_mut(), span) {
            t.exit(span, 0);
        }
        (summary, server_tracer)
    });
    // The socket file appears at bind(), before listen(); `status.json`
    // is first written once the listener accepts connections.
    while !dir.join("status.json").exists() {
        if server.is_finished() {
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, f64, bool)>> = Mutex::new(Vec::with_capacity(streams));
    let mut client_tracers_back = Vec::new();
    thread::scope(|scope| {
        let handles: Vec<_> = client_tracers
            .into_iter()
            .map(|mut client_tracer| {
                let (next, results, socket) = (&next, &results, &socket);
                scope.spawn(move || {
                    if let Some(t) = client_tracer.as_mut() {
                        t.set_run(run);
                    }
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= streams {
                            break;
                        }
                        let feed = FeedConfig {
                            socket: socket.clone(),
                            stream: format!("s{i:04}"),
                            trace: prepared.files[i].to_string_lossy().into_owned(),
                            format: SourceFormat::Iotb,
                            chunk: FEED_CHUNK,
                            abort: None,
                            stall: None,
                        };
                        let span = client_tracer.as_mut().map(|t| t.enter("core.serve.feed"));
                        let t0 = Instant::now();
                        let outcome = iocov::run_feed(&feed);
                        let secs = t0.elapsed().as_secs_f64();
                        if let (Some(t), Some(span)) = (client_tracer.as_mut(), span) {
                            t.exit(span, prepared.stream_events[i]);
                        }
                        let ok = match outcome {
                            Ok(outcome) => outcome.rejected.is_none() && !outcome.aborted,
                            Err(e) => {
                                eprintln!("perfbench: feed s{i:04} failed: {e}");
                                false
                            }
                        };
                        results
                            .lock()
                            .expect("no client panics holding the lock")
                            .push((i, secs, ok));
                    }
                    client_tracer
                })
            })
            .collect();
        for handle in handles {
            client_tracers_back.push(handle.join().expect("feed client panicked"));
        }
    });
    let (summary, server_tracer) = server.join().expect("serve thread panicked");
    let wall_s = start.elapsed().as_secs_f64();
    finished.store(true, Ordering::SeqCst);
    watchdog.join().expect("watchdog panicked");
    if let Some(t) = tracer.as_mut() {
        for lane in std::iter::once(server_tracer)
            .chain(client_tracers_back)
            .flatten()
        {
            t.absorb(lane);
        }
    }
    let mut results = results
        .into_inner()
        .expect("no client panics holding the lock");
    results.sort_by_key(|r| r.0);
    // Referee: the merged snapshot equals the batch reference over the
    // concatenated streams, and every stream ended `done`.
    let snapshot_ok =
        std::fs::read(dir.join("snapshot.json")).is_ok_and(|b| b == prepared.reference);
    let status: Option<StatusDoc> = std::fs::read(dir.join("status.json"))
        .ok()
        .and_then(|b| serde_json::from_slice(&b).ok());
    let done = |name: &str| {
        status.as_ref().is_some_and(|s| {
            s.streams
                .iter()
                .any(|row| row.stream == name && row.state == "done")
        })
    };
    let summary_ok = summary.is_ok();
    if !snapshot_ok || !summary_ok {
        eprintln!("perfbench: serve session {session}: snapshot mismatch or server error");
    }
    let failed = results
        .iter()
        .filter(|(i, _, ok)| !(*ok && snapshot_ok && summary_ok && done(&format!("s{i:04}"))))
        .count() as u64;
    Sample {
        wall_s,
        events: prepared.events,
        latencies: results.iter().map(|r| r.1).collect(),
        attempted: streams as u64,
        failed: failed + (streams - results.len()) as u64,
        ..Sample::default()
    }
}
