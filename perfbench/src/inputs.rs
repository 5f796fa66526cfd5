//! Seeded input generation and the reference reports the referees
//! compare against.
//!
//! Every input is a pure function of `(workload, seed, size)`: the
//! simulated testers are seeded, the whole-system noise comes from a
//! SplitMix64 stream, and event counts are fixed by truncation, so the
//! same seed always yields byte-identical files (see the digest in the
//! [`Fingerprint`]).

use std::collections::BTreeSet;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use iocov::{AnalysisReport, Iocov};
use iocov_trace::{ArgValue, Trace, TraceEvent};
use iocov_workloads::{corrupt_jsonl, CrashMonkeySim, TestEnv, XfstestsSim, MOUNT};

use crate::Workload;

/// Input sizes. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::tiny`] keeps the self-test fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// xfstests events in the `suite-iotb` trace.
    pub iotb_xfstests: usize,
    /// CrashMonkey events appended to the `suite-iotb` trace.
    pub iotb_crashmonkey: usize,
    /// Tester events in the `harness-jsonl` trace.
    pub harness_tester: usize,
    /// Whole-system noise events in the `harness-jsonl` trace.
    pub harness_noise: usize,
    /// One line in this many (from the top) goes through `corrupt_jsonl`.
    pub harness_damaged_share: usize,
    /// Number of `serve-streams` streams.
    pub serve_streams: usize,
    /// Events per stream.
    pub serve_stream_events: usize,
    /// Distinct simulated chunks the streams replay (under disjoint
    /// pids).
    pub serve_pool: usize,
    /// Serve checkpoint cadence in events.
    pub serve_checkpoint_every: u64,
    /// xfstests scale of one `suite-live` run.
    pub live_scale: f64,
    /// xfstests tests run by one `suite-live` run.
    pub live_tests: usize,
    /// `suite-live` input variants (sub-seeds) one operation runs in
    /// turn; the simulator's cost per event depends on the sampled I/O
    /// sizes, so several draws per operation average that out.
    pub live_variants: usize,
}

impl Sizes {
    /// The measured sizes.
    #[must_use]
    pub fn full() -> Self {
        Sizes {
            iotb_xfstests: 160_000,
            iotb_crashmonkey: 20_000,
            harness_tester: 10_000,
            harness_noise: 90_000,
            harness_damaged_share: 16,
            serve_streams: 100,
            serve_stream_events: 12_288,
            serve_pool: 8,
            serve_checkpoint_every: 1_024,
            live_scale: 0.005,
            live_tests: 507,
            live_variants: 4,
        }
    }

    /// Self-test sizes: every path runs, in well under a second.
    #[must_use]
    pub fn tiny() -> Self {
        Sizes {
            iotb_xfstests: 4_000,
            iotb_crashmonkey: 1_000,
            harness_tester: 500,
            harness_noise: 4_500,
            harness_damaged_share: 8,
            serve_streams: 6,
            serve_stream_events: 300,
            serve_pool: 4,
            serve_checkpoint_every: 128,
            live_scale: 0.001,
            live_tests: 60,
            live_variants: 2,
        }
    }
}

/// What identifies an input set: two runs that print the same
/// fingerprint measured the same inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Input bytes (trace files; the canonical `.iotb` encoding of the
    /// simulated events for `suite-live`).
    pub bytes: u64,
    /// Events the analysis reads.
    pub events: u64,
    /// Distinct pids among them (the relevance layer keeps one state
    /// per pid it sees, so this is also its state count).
    pub pids: u64,
    /// Share of read events the filter keeps.
    pub kept_ratio: f64,
    /// FNV-1a 64 over the input bytes.
    pub digest: u64,
}

/// One input variant of a workload plus its referee data.
pub struct Prepared {
    /// The seed this variant was generated from.
    pub seed: u64,
    /// Trace files (one for the batch workloads, one per stream for
    /// `serve-streams`, none for `suite-live`).
    pub files: Vec<PathBuf>,
    /// Expected report bytes: `to_string_pretty(report)` plus a newline,
    /// exactly what `iocov analyze --json` prints.
    pub reference: Vec<u8>,
    /// The reference report itself.
    pub report: AnalysisReport,
    /// Events one operation reads.
    pub events: u64,
    /// Lines a lossy reader must skip (`harness-jsonl`).
    pub expected_skips: usize,
    /// Events per stream (`serve-streams`).
    pub stream_events: Vec<u64>,
    /// Input identity.
    pub fingerprint: Fingerprint,
}

/// Generates `workload`'s input variants for `seed` under `dir` and
/// builds each one's reference report with `Iocov::analyze` over the
/// in-memory events. Only `suite-live` has several variants; variant `k`
/// of `n` uses the sub-seed `seed * n + k`.
///
/// # Errors
///
/// File-system errors while writing the inputs.
pub fn prepare(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
) -> io::Result<Vec<Prepared>> {
    fs::create_dir_all(dir)?;
    match workload {
        Workload::SuiteIotb => Ok(vec![prepare_suite_iotb(seed, sizes, dir)?]),
        Workload::HarnessJsonl => Ok(vec![prepare_harness(seed, sizes, dir)?]),
        Workload::ServeStreams => Ok(vec![prepare_serve(seed, sizes, dir)?]),
        Workload::SuiteLive => {
            let n = sizes.live_variants as u64;
            Ok((0..n)
                .map(|k| prepare_live(seed.wrapping_mul(n).wrapping_add(k), sizes))
                .collect())
        }
    }
}

fn reference_of(events: Vec<TraceEvent>) -> (Trace, AnalysisReport, Vec<u8>) {
    let trace = Trace::from_events(events);
    let report = Iocov::with_mount_point(MOUNT)
        .expect("static mount pattern compiles")
        .analyze(&trace);
    let bytes = render(&report);
    (trace, report, bytes)
}

/// Writes a `serve-streams` input file and flushes it to disk, so that
/// the kernel's deferred writeback of set-up's stream files does not
/// queue ahead of the first session's checkpoint `fsync`s.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Renders a report the way `iocov analyze --json` prints it.
#[must_use]
pub fn render(report: &AnalysisReport) -> Vec<u8> {
    let mut text = serde_json::to_string_pretty(report).expect("reports serialize");
    text.push('\n');
    text.into_bytes()
}

fn fingerprint(bytes: &[u8], trace: &Trace, report: &AnalysisReport) -> Fingerprint {
    fingerprint_of(
        bytes.len() as u64,
        fnv1a64_extend(FNV_OFFSET, bytes),
        trace,
        report,
    )
}

fn fingerprint_of(bytes: u64, digest: u64, trace: &Trace, report: &AnalysisReport) -> Fingerprint {
    let pids: BTreeSet<u32> = trace.iter().map(|e| e.pid).collect();
    let stats = &report.filter_stats;
    Fingerprint {
        bytes,
        events: trace.len() as u64,
        pids: pids.len() as u64,
        kept_ratio: stats.kept as f64 / stats.total.max(1) as f64,
        digest,
    }
}

/// FNV-1a 64 offset basis: the digest of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64 digest over `bytes`, so files written one
/// after another digest like their concatenation (`iocov::checkpoint::
/// fnv1a64` over a single buffer gives the same value).
fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Simulated tester traffic: `xfstests` events from the xfstests
/// simulator (drained in 25-test chunks, like `run_suites`) followed by
/// `crashmonkey` events from the CrashMonkey simulator, each truncated
/// to exactly the requested count. A suite that runs out is rerun under
/// the next seed on a fresh file system.
#[must_use]
pub fn tester_events(
    seed: u64,
    scale: f64,
    xfstests: usize,
    crashmonkey: usize,
) -> Vec<TraceEvent> {
    let mut events = Vec::with_capacity(xfstests + crashmonkey);
    let mut round = 0u64;
    while events.len() < xfstests {
        let env = TestEnv::new();
        let sim = XfstestsSim::new(seed.wrapping_add(round), scale);
        let mut kernel = env.fresh_kernel();
        let total = sim.total_tests();
        let mut start = 0;
        while start < total && events.len() < xfstests {
            let end = (start + 25).min(total);
            let _ = sim.run_range(&mut kernel, start..end);
            events.extend(env.take_trace());
            start = end;
        }
        round += 1;
    }
    events.truncate(xfstests);
    let mut cm = Vec::with_capacity(crashmonkey);
    let mut round = 0u64;
    while cm.len() < crashmonkey {
        let env = TestEnv::new();
        let _ = CrashMonkeySim::new(seed.wrapping_add(round), scale).run(&env);
        cm.extend(env.take_trace());
        round += 1;
    }
    cm.truncate(crashmonkey);
    events.extend(cm);
    events
}

fn prepare_suite_iotb(seed: u64, sizes: &Sizes, dir: &Path) -> io::Result<Prepared> {
    let events = tester_events(seed, 0.01, sizes.iotb_xfstests, sizes.iotb_crashmonkey);
    let (trace, report, reference) = reference_of(events);
    let mut bytes = Vec::new();
    iocov_trace::write_iotb_indexed(&mut bytes, &trace, iocov_trace::DEFAULT_BLOCK_EVENTS)
        .map_err(io::Error::other)?;
    let path = dir.join("suite.iotb");
    fs::write(&path, &bytes)?;
    Ok(Prepared {
        seed,
        files: vec![path],
        fingerprint: fingerprint(&bytes, &trace, &report),
        events: trace.len() as u64,
        reference,
        report,
        expected_skips: 0,
        stream_events: Vec::new(),
    })
}

/// SplitMix64: the noise generator's deterministic random stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const AT_FDCWD: i32 = -100;
const O_RDONLY_CLOEXEC: u32 = 0o2_000_000;
const COMMANDS: [&str; 6] = ["sh", "awk", "grep", "sed", "cat", "date"];
const LIBS: [&str; 4] = [
    "/etc/ld.so.cache",
    "/usr/lib/x86_64-linux-gnu/libc.so.6",
    "/usr/lib/x86_64-linux-gnu/libm.so.6",
    "/usr/lib/locale/locale-archive",
];

fn ev(pid: u32, name: &str, sysno: u32, args: Vec<ArgValue>, ret: i64) -> TraceEvent {
    let mut event = TraceEvent::build(name, sysno, args, ret);
    event.pid = pid;
    event
}

/// One step of a short-lived helper process (a `check`-script fork:
/// exec, map libraries, poke at /proc and /etc, exit). Step 0 is the
/// exec, the last step the exit; in between, library loads and
/// out-of-domain or out-of-mount calls.
fn noise_step(rng: &mut Rng, pid: u32, step: usize, last: usize) -> TraceEvent {
    if step == 0 {
        let cmd = COMMANDS[rng.below(COMMANDS.len() as u64) as usize];
        return ev(
            pid,
            "execve",
            59,
            vec![
                ArgValue::Path(format!("/usr/bin/{cmd}")),
                ArgValue::Ptr(0x7ffd_0000),
                ArgValue::Ptr(0x7ffd_0100),
            ],
            0,
        );
    }
    if step == last {
        return ev(pid, "exit_group", 231, vec![ArgValue::Int(0)], 0);
    }
    match rng.below(10) {
        0 | 1 => ev(
            pid,
            "openat",
            257,
            vec![
                ArgValue::Fd(AT_FDCWD),
                ArgValue::Path(LIBS[rng.below(LIBS.len() as u64) as usize].to_owned()),
                ArgValue::Flags(O_RDONLY_CLOEXEC),
                ArgValue::Mode(0),
            ],
            3,
        ),
        2 => ev(
            pid,
            "read",
            0,
            vec![
                ArgValue::Fd(3),
                ArgValue::Ptr(0x5555_0000),
                ArgValue::UInt(832),
            ],
            832,
        ),
        3 => ev(pid, "close", 3, vec![ArgValue::Fd(3)], 0),
        4 => ev(
            pid,
            "mmap",
            9,
            vec![
                ArgValue::Ptr(0),
                ArgValue::UInt(8192 << rng.below(6)),
                ArgValue::Int(1),
                ArgValue::Int(2),
                ArgValue::Fd(3),
                ArgValue::UInt(0),
            ],
            0x7f00_0000_0000,
        ),
        5 => ev(pid, "brk", 12, vec![ArgValue::Ptr(0)], 0x5555_6000),
        6 => ev(
            pid,
            "newfstatat",
            262,
            vec![
                ArgValue::Fd(AT_FDCWD),
                ArgValue::Path("/proc/self/status".into()),
                ArgValue::Ptr(0x7ffd_0200),
                ArgValue::Int(0),
            ],
            0,
        ),
        7 => ev(
            pid,
            "clock_gettime",
            228,
            vec![ArgValue::Int(1), ArgValue::Ptr(0x7ffd_0300)],
            0,
        ),
        8 => ev(
            pid,
            "open",
            2,
            vec![
                ArgValue::Path(format!("/tmp/check.{pid}")),
                ArgValue::Flags(0o101),
                ArgValue::Mode(0o644),
            ],
            4,
        ),
        _ => ev(
            pid,
            "futex",
            202,
            vec![
                ArgValue::Ptr(0x5555_0400),
                ArgValue::Int(129),
                ArgValue::Int(1),
            ],
            0,
        ),
    }
}

/// A whole-system-style trace: `tester` events interleaved with noise
/// from short-lived helper processes (a fresh pid every 6–17 events,
/// eight alive at a time), `tester + noise` events in total.
fn whole_system_events(seed: u64, tester: Vec<TraceEvent>, noise: usize) -> Vec<TraceEvent> {
    let mut rng = Rng(seed ^ 0x1057_a11e);
    let total = tester.len() + noise;
    let mut tester = tester.into_iter();
    let mut tester_left = total - noise;
    // (pid, next step, last step)
    let mut procs: Vec<(u32, usize, usize)> = Vec::new();
    let mut next_pid = 3_000u32;
    let mut out = Vec::with_capacity(total);
    for i in 0..total {
        let remaining = (total - i) as u64;
        let take_tester = tester_left > 0 && rng.below(remaining) < tester_left as u64;
        let mut event = if take_tester {
            tester_left -= 1;
            tester.next().expect("tester events counted")
        } else {
            while procs.len() < 8 {
                procs.push((next_pid, 0, 5 + rng.below(12) as usize));
                next_pid += 1;
            }
            let slot = rng.below(procs.len() as u64) as usize;
            let (pid, step, last) = procs[slot];
            let event = noise_step(&mut rng, pid, step, last);
            if step == last {
                procs.swap_remove(slot);
            } else {
                procs[slot].1 += 1;
            }
            event
        };
        event.seq = i as u64;
        event.timestamp_ns = i as u64 * 1_000;
        out.push(event);
    }
    out
}

fn prepare_harness(seed: u64, sizes: &Sizes, dir: &Path) -> io::Result<Prepared> {
    let tester = tester_events(seed, 0.01, sizes.harness_tester, 0);
    let mut events = whole_system_events(seed, tester, sizes.harness_noise);
    let mut clean = Vec::new();
    iocov_trace::write_jsonl(&mut clean, &Trace::from_events(events.clone()))
        .map_err(io::Error::other)?;
    let clean = String::from_utf8(clean).map_err(io::Error::other)?;
    // Damage the top of the file: corrupt_jsonl may prepend a BOM and
    // truncates (at most) its own last line, so the damaged part must
    // start the file; the truncated line is closed with a newline so the
    // clean remainder still parses.
    let damaged_lines = (events.len() / sizes.harness_damaged_share).max(1);
    let split = clean
        .match_indices('\n')
        .nth(damaged_lines - 1)
        .map_or(clean.len(), |(i, _)| i + 1);
    let damaged = corrupt_jsonl(&clean[..split], seed);
    let mut bytes = damaged.bytes.clone();
    if damaged.truncated_tail {
        bytes.push(b'\n');
        events.remove(damaged_lines - 1);
    }
    bytes.extend_from_slice(&clean.as_bytes()[split..]);
    let (trace, report, reference) = reference_of(events);
    let path = dir.join("harness.jsonl");
    fs::write(&path, &bytes)?;
    Ok(Prepared {
        seed,
        files: vec![path],
        fingerprint: fingerprint(&bytes, &trace, &report),
        events: trace.len() as u64,
        reference,
        report,
        expected_skips: damaged.expected_skips(),
        stream_events: Vec::new(),
    })
}

/// Pid offset between streams: stream `i` runs its tester's pids plus
/// `(i + 1) * STREAM_PID_STRIDE`, so streams never share a pid.
const STREAM_PID_STRIDE: u32 = 1_000;

/// Stream `i` replays pool chunk `i % pool` under its own pids, so
/// set-up simulates `pool` chunks rather than every stream.
fn prepare_serve(seed: u64, sizes: &Sizes, dir: &Path) -> io::Result<Prepared> {
    let per = sizes.serve_stream_events;
    let pool = tester_events(seed, 0.01, per * sizes.serve_pool, 0);
    let mut events = Vec::with_capacity(per * sizes.serve_streams);
    let mut files = Vec::with_capacity(sizes.serve_streams);
    let (mut total_bytes, mut digest) = (0u64, FNV_OFFSET);
    let mut bytes = Vec::new();
    for i in 0..sizes.serve_streams {
        let offset = (i as u32 + 1) * STREAM_PID_STRIDE;
        let stream: Trace = pool[(i % sizes.serve_pool) * per..][..per]
            .iter()
            .map(|event| {
                let mut event = event.clone();
                event.pid += offset;
                event
            })
            .collect();
        bytes.clear();
        iocov_trace::write_iotb(&mut bytes, &stream).map_err(io::Error::other)?;
        total_bytes += bytes.len() as u64;
        digest = fnv1a64_extend(digest, &bytes);
        let path = dir.join(format!("stream-{i:04}.iotb"));
        write_synced(&path, &bytes)?;
        files.push(path);
        events.extend(stream.into_events());
    }
    drop(pool);
    let stream_events = vec![per as u64; sizes.serve_streams];
    let (trace, report, reference) = reference_of(events);
    Ok(Prepared {
        seed,
        files,
        fingerprint: fingerprint_of(total_bytes, digest, &trace, &report),
        events: trace.len() as u64,
        reference,
        report,
        expected_skips: 0,
        stream_events,
    })
}

/// The events one `suite-live` operation records, in feed order.
#[must_use]
pub fn live_events(seed: u64, sizes: &Sizes) -> Vec<TraceEvent> {
    let env = TestEnv::new();
    let sim = XfstestsSim::new(seed, sizes.live_scale);
    let mut kernel = env.fresh_kernel();
    let mut events = Vec::new();
    let mut start = 0;
    while start < sizes.live_tests {
        let end = (start + LIVE_CHUNK_TESTS).min(sizes.live_tests);
        let _ = sim.run_range(&mut kernel, start..end);
        events.extend(env.take_trace());
        start = end;
    }
    let _ = CrashMonkeySim::new(seed, sizes.live_scale).run(&env);
    events.extend(env.take_trace());
    events
}

/// xfstests tests simulated between recorder drains in `suite-live`
/// (the `run_suites` chunk).
pub const LIVE_CHUNK_TESTS: usize = 25;

fn prepare_live(seed: u64, sizes: &Sizes) -> Prepared {
    let (trace, report, reference) = reference_of(live_events(seed, sizes));
    let mut bytes = Vec::new();
    iocov_trace::write_iotb(&mut bytes, &trace).expect("in-memory write cannot fail");
    Prepared {
        seed,
        files: Vec::new(),
        fingerprint: fingerprint(&bytes, &trace, &report),
        events: trace.len() as u64,
        reference,
        report,
        expected_skips: 0,
        stream_events: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_continues_like_one_buffer() {
        let split = fnv1a64_extend(fnv1a64_extend(FNV_OFFSET, b"stream-0000"), b"stream-0001");
        assert_eq!(split, iocov::checkpoint::fnv1a64(b"stream-0000stream-0001"));
    }
}
