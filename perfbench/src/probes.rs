//! Per-call probes of the layers a workload's own path does not reach
//! from outside the program, measured after the timed operations.
//!
//! `serve` checkpoints, snapshot rewrites and frame I/O happen inside
//! the server, where the benchmark cannot put a span; a batch workload
//! never simulates, and `suite-live` never decodes. Each probe calls the
//! layer's public function on this workload's own data (its final
//! reports and checkpoint documents, a sample of its events) so every
//! per-layer metric has a measured value on every workload. The metric
//! derivation prefers spans from the operations and falls back to the
//! probe spans.

use std::io::{Cursor, Read};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;

use iocov::checkpoint::{read_checkpoint, write_atomic, write_checkpoint};
use iocov::distribute::{read_frame, write_frame, FRAME_DATA};
use iocov::{
    AnalysisReport, CheckpointDoc, MetricsSnapshot, PipelineBuilder, PipelineMetrics, TraceFilter,
    DEFAULT_CHUNK,
};
use iocov_trace::{EventSource, IotbSource, ReadOptions, Trace, TraceEvent};
use iocov_workloads::{TestEnv, XfstestsSim, MOUNT};

use crate::inputs::render;
use crate::ops::FEED_CHUNK;
use crate::spans::{Spans, Tracer};

/// Events in the probe sample.
pub const SAMPLE_EVENTS: usize = 32_768;

/// Repetitions of each per-call probe.
const CALL_REPEATS: usize = 8;

/// DATA frames pushed through the frame probe.
const FRAME_COUNT: usize = 256;

/// What the probes hand back besides their spans.
pub struct ProbeOutcome {
    /// Mean checkpoint document size on disk.
    pub checkpoint_bytes: f64,
    /// Size of the merged snapshot.
    pub snapshot_bytes: u64,
    /// Whether every probe's own check held (checkpoint read-back equal,
    /// merged snapshot equal to the reference).
    pub ok: bool,
}

/// Decodes a sample of `events` from `.iotb`, feeds the batches and an
/// owned copy into fresh sessions, and simulates a few xfstests tests,
/// all under spans. Returns a checkpoint document of the sample session.
pub fn layer_probes(sp: &mut Tracer, seed: u64, events: &[TraceEvent]) -> CheckpointDoc {
    let sample = &events[..events.len().min(SAMPLE_EVENTS)];
    let mut iotb = Vec::new();
    iocov_trace::write_iotb(&mut iotb, &Trace::from_events(sample.to_vec()))
        .expect("in-memory write cannot fail");
    let mut source = IotbSource::new(Cursor::new(&iotb[..]), ReadOptions::default())
        .expect("freshly written container is valid");
    let mut session = probe_session(None);
    loop {
        let pull = sp.enter("trace.source");
        let batch = source
            .next_batch(DEFAULT_CHUNK)
            .expect("freshly written container decodes");
        sp.exit(pull, batch.len() as u64);
        if batch.is_empty() {
            break;
        }
        let n = batch.len() as u64;
        let feed = sp.enter("core.session.feed");
        session.feed(batch);
        sp.exit(feed, n);
    }
    let doc = session.checkpoint_doc(&source.position());
    let finish = sp.enter("core.session.finish");
    let (report, _) = session.finish();
    sp.exit(finish, sample.len() as u64);
    let render_span = sp.enter("core.report.render");
    let bytes = render(&report);
    sp.exit(render_span, bytes.len() as u64);

    let mut owned = probe_session(None);
    for chunk in sample.chunks(DEFAULT_CHUNK) {
        let chunk = chunk.to_vec();
        let n = chunk.len() as u64;
        let feed = sp.enter("core.session.feed_owned");
        owned.feed_owned(chunk);
        sp.exit(feed, n);
    }
    let _ = owned.finish();

    let env = TestEnv::new();
    let sim = XfstestsSim::new(seed, 0.01);
    let mut kernel = env.fresh_kernel();
    for first in (0..100).step_by(25) {
        let simulate = sp.enter("workloads.simulate");
        let _ = sim.run_range(&mut kernel, first..first + 25);
        sp.exit(simulate, env.recorder().len() as u64);
        let take = sp.enter("trace.recorder.take");
        let n = env.take_trace().len() as u64;
        sp.exit(take, n);
    }
    doc
}

/// A fresh jobs-1 session under the standard mount filter.
#[must_use]
pub fn probe_session(metrics: Option<&Arc<PipelineMetrics>>) -> iocov::AnalysisSession {
    let mut builder = PipelineBuilder::new(
        TraceFilter::mount_point(MOUNT).expect("static mount pattern compiles"),
    )
    .mount(Some(MOUNT.to_owned()));
    if let Some(m) = metrics {
        builder = builder.metrics(Arc::clone(m));
    }
    builder.build_session()
}

/// Per-stream reports and the combined counters of `serve-streams`,
/// analyzed stream by stream outside any span.
#[must_use]
pub fn stream_reports(
    files: &[PathBuf],
) -> (Vec<AnalysisReport>, MetricsSnapshot, Vec<TraceEvent>) {
    let metrics = Arc::new(PipelineMetrics::default());
    let mut reports = Vec::with_capacity(files.len());
    let mut sample = Vec::new();
    for file in files {
        let bytes = std::fs::read(file).expect("stream inputs exist");
        let trace = iocov_trace::read_iotb(&bytes[..]).expect("stream inputs decode");
        if sample.len() < SAMPLE_EVENTS {
            sample.extend(trace.iter().cloned());
        }
        let mut session = probe_session(Some(&metrics));
        session.feed_owned(trace.into_events());
        reports.push(session.finish().0);
    }
    (reports, metrics.snapshot(), sample)
}

/// Writes each checkpoint document with `write_checkpoint` (repeated so
/// at least [`CALL_REPEATS`] writes are timed), reads every one back and
/// compares; then runs [`CALL_REPEATS`] snapshot cycles — merge every
/// report, render, `write_atomic` — and pushes [`FRAME_COUNT`] DATA
/// frames of [`FEED_CHUNK`] bytes through `write_frame`/`read_frame`
/// over a socket pair.
pub fn serve_probes(
    sp: &mut Tracer,
    work: &Path,
    docs: &[CheckpointDoc],
    reports: &[AnalysisReport],
    reference: &[u8],
) -> ProbeOutcome {
    let mut ok = true;
    let mut checkpoint_bytes = 0u64;
    let mut writes = 0u64;
    let rounds = CALL_REPEATS.div_ceil(docs.len().max(1));
    for round in 0..rounds {
        for (i, doc) in docs.iter().enumerate() {
            let path = work.join(format!("probe-{i:04}.iockpt"));
            let write = sp.enter("core.checkpoint.write");
            let written = write_checkpoint(&path, doc);
            sp.exit(write, 1);
            writes += 1;
            checkpoint_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            if round == 0 {
                ok &= written.is_ok() && read_checkpoint(&path).is_ok_and(|back| &back == doc);
            }
        }
    }
    let mut snapshot_bytes = 0u64;
    for _ in 0..CALL_REPEATS {
        let cycle = sp.enter("core.serve.snapshot_cycle");
        let mut merged = AnalysisReport::default();
        for report in reports {
            merged.merge(report);
        }
        let bytes = render(&merged);
        let written = write_atomic(&work.join("probe-snapshot.json"), &bytes);
        sp.exit(cycle, 1);
        ok &= written.is_ok() && bytes == reference;
        snapshot_bytes = bytes.len() as u64;
    }
    ok &= frame_probe(sp, reference);
    if !ok {
        eprintln!("perfbench: a layer probe's own check failed");
    }
    ProbeOutcome {
        checkpoint_bytes: checkpoint_bytes as f64 / writes.max(1) as f64,
        snapshot_bytes,
        ok,
    }
}

/// Frames of report bytes from a writer thread to this one over a
/// socket pair; the span's events are payload bytes.
fn frame_probe(sp: &mut Tracer, content: &[u8]) -> bool {
    let payload: Vec<u8> = content.iter().copied().cycle().take(FEED_CHUNK).collect();
    let (mut tx, mut rx) = UnixStream::pair().expect("socket pair");
    let span = sp.enter("core.distribute.frame");
    let writer = {
        let payload = payload.clone();
        thread::spawn(move || {
            for _ in 0..FRAME_COUNT {
                write_frame(&mut tx, FRAME_DATA, &payload)?;
            }
            Ok::<(), std::io::Error>(())
        })
    };
    let mut ok = true;
    for _ in 0..FRAME_COUNT {
        ok &= matches!(read_frame(&mut rx), Ok(Some(frame)) if frame.payload == payload);
    }
    ok &= writer.join().expect("frame writer panicked").is_ok();
    let mut rest = Vec::new();
    ok &= rx.read_to_end(&mut rest).is_ok() && rest.is_empty();
    sp.exit(span, (FRAME_COUNT * FEED_CHUNK) as u64);
    ok
}
