//! Library behind the `iocov` command-line tool.
//!
//! The binary is a thin wrapper over [`run`], which takes parsed
//! arguments and an output writer — so every code path is testable
//! without spawning processes.
//!
//! [`USAGE`] is the synopsis of every subcommand and its flags. One flag
//! table backs [`parse_args`]: each flag names the subcommands that take
//! it, and giving it to any other subcommand is a usage error rather
//! than a silently ignored knob.
//!
//! Robustness: analysis is *supervised* — a panicking shard restarts
//! with backoff from its last checkpoint state, a stalled shard is
//! detected with `--shard-timeout`, and either way the run degrades to
//! a partial report plus a failure manifest instead of aborting the
//! process. `--checkpoint-every` periodically persists resumable state
//! to a `.iockpt` file so a killed run continues with `--resume`; the
//! resumed output is byte-identical to an uninterrupted run. The
//! `--inject-*` flags deterministically inject shard panics and
//! transient/hard I/O faults for testing those paths.
//!
//! Analysis runs on one shard thread beside the reading thread. To
//! isolate inputs from one another, run `serve` and give each input its
//! own `feed`: a feeder that dies fails only its own stream while the
//! others carry on.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use iocov::frame::MAX_FRAME_LEN;
use iocov::tcd::{deviation_ranking, tcd_uniform};
use iocov::{
    read_checkpoint_with_fallback, AnalysisReport, ArgName, BaseSyscall, CheckpointPolicy,
    PipelineBuilder, PipelineError, PipelineMetrics, PipelineRun, ShardFailureRecord,
    SupervisorPolicy, TraceFilter,
};
use iocov_faults::{DrillTrigger, FaultPlan, FaultyRead};
use iocov_trace::{
    open_source, unseekable_kind, ErrorPolicy, ReadOptions, RetryRead, SkippedLine, SourceError,
    SourceFormat, SourceOptions, SourcePos,
};

/// A CLI-level error with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

/// On-disk trace container format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Sniff the first four bytes: the `IOTB` magic selects the binary
    /// reader, anything else the JSONL reader.
    #[default]
    Auto,
    /// JSON Lines, one event object per line.
    Jsonl,
    /// Compact binary container (`.iotb`).
    Iotb,
}

impl TraceFormat {
    fn parse(value: &str) -> Option<Self> {
        match value {
            "auto" => Some(TraceFormat::Auto),
            "jsonl" => Some(TraceFormat::Jsonl),
            "iotb" => Some(TraceFormat::Iotb),
            _ => None,
        }
    }
}

/// A deterministic shard-panic injection: the shard panics on the
/// `times` consecutive batches from ordinal `tick` (`0:2` = the first
/// two batches — two restarts, within the default budget of 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicSpec {
    /// Batch ordinal since the last checkpoint cut.
    pub tick: u64,
    /// How many batches panic before the drill disarms.
    pub times: u32,
}

/// A deterministic transient-I/O fault schedule: `seed` drives the
/// interleaving of `EINTR`/`EWOULDBLOCK`/short reads; `hard_after`
/// additionally turns every read past that many calls into a hard error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFaultSpec {
    /// Schedule seed (same seed = same fault sequence).
    pub seed: u64,
    /// Hard-error threshold in read calls, if any.
    pub hard_after: Option<u64>,
}

/// Supervision, checkpointing, and fault-injection options for
/// `analyze`. Grouped so the common invocation stays readable and new
/// robustness knobs don't churn [`Command::Analyze`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RobustnessOpts {
    /// Write a checkpoint every N events (any format).
    pub checkpoint_every: Option<u64>,
    /// Checkpoint path (default `<trace>.iockpt`).
    pub checkpoint_file: Option<String>,
    /// Resume from this checkpoint file.
    pub resume: Option<String>,
    /// Stop (simulating a kill) after this many events, exit 0.
    pub stop_after: Option<u64>,
    /// Stall watchdog: restart the shard if silent this many seconds.
    pub shard_timeout: Option<u64>,
    /// Override the restart budget (per run).
    pub max_shard_restarts: Option<u32>,
    /// Inject a deterministic shard panic.
    pub inject_panic: Option<PanicSpec>,
    /// Inject deterministic I/O faults into the trace reader.
    pub inject_io: Option<IoFaultSpec>,
}

impl RobustnessOpts {
    /// The supervision policy implied by the flags.
    fn policy(&self) -> SupervisorPolicy {
        let mut policy = SupervisorPolicy::default();
        if let Some(max) = self.max_shard_restarts {
            policy = policy.with_max_restarts(max);
        }
        if let Some(secs) = self.shard_timeout {
            policy = policy.with_shard_timeout(Duration::from_secs(secs));
        }
        policy
    }
}

/// Parsed command-line invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Full coverage report.
    Analyze {
        /// Trace file path.
        trace: String,
        /// Trace container format (auto-sniffed by default).
        format: TraceFormat,
        /// Optional mount-point filter.
        mount: Option<String>,
        /// Emit machine-readable JSON instead of text.
        json: bool,
        /// Skip malformed trace lines instead of aborting.
        lossy: bool,
        /// Report pipeline counters alongside the coverage report.
        metrics: bool,
        /// Abort a lossy read after this many skipped lines.
        max_errors: Option<usize>,
        /// Supervision, checkpointing, and fault injection (boxed:
        /// these knobs dominate the variant's size).
        robust: Box<RobustnessOpts>,
    },
    /// Translate a trace between JSONL and the binary container.
    Convert {
        /// Input trace path (format auto-sniffed unless --format).
        input: String,
        /// Output trace path.
        output: String,
        /// Input container format.
        format: TraceFormat,
        /// Output container format (defaults to the output path's
        /// extension).
        to: Option<TraceFormat>,
        /// Write the block-indexed iotb v2 container: v1 plus a
        /// trailing block index that analysis does not read.
        index: bool,
        /// Skip malformed input records instead of aborting.
        lossy: bool,
        /// Abort a lossy read after this many skipped records.
        max_errors: Option<usize>,
    },
    /// Untested-partition summary.
    Untested {
        /// Trace file path.
        trace: String,
        /// Optional mount-point filter.
        mount: Option<String>,
    },
    /// Flag-combination coverage.
    Combos {
        /// Trace file path.
        trace: String,
        /// Optional mount-point filter.
        mount: Option<String>,
    },
    /// TCD of open flags against a uniform target.
    Tcd {
        /// Trace file path.
        trace: String,
        /// Optional mount-point filter.
        mount: Option<String>,
        /// Uniform per-partition target.
        target: u64,
    },
    /// Convert a Syzkaller log to a JSONL trace on stdout.
    ConvertSyz {
        /// Log file path.
        log: String,
    },
    /// Feedback-driven campaign: consume a coverage report, generate
    /// workloads biased toward its cold partitions, execute against the
    /// simulated VFS, re-measure, repeat.
    Generate {
        /// Starting coverage report (`analyze --json` output, bare or
        /// `{"report": …}`-wrapped).
        feedback: String,
        /// Base sampling profile: `xfstests` or `crashmonkey`.
        profile: String,
        /// Uniform per-partition target for TCD and cold extraction.
        target: u64,
        /// Stop early once the campaign TCD reaches this value.
        target_tcd: f64,
        /// Maximum generate→analyze rounds.
        max_rounds: usize,
        /// Traced-event budget per round.
        events_per_round: usize,
        /// Campaign seed (campaigns are byte-reproducible per seed).
        seed: u64,
        /// Write the campaign's syzlang execution log here.
        log_out: Option<String>,
        /// Emit a machine-readable JSON summary (its `report` field can
        /// seed the next campaign via --feedback).
        json: bool,
    },
    /// Compare the coverage of two traces.
    Diff {
        /// First trace file.
        trace_a: String,
        /// Second trace file.
        trace_b: String,
        /// Optional mount-point filter applied to both.
        mount: Option<String>,
    },
    /// Long-running analysis service: concurrent trace streams over a
    /// unix socket and/or a watched spool directory, one supervised
    /// checkpointed session per stream, merged snapshot on disk.
    Serve {
        /// Unix socket to accept `feed` streams on.
        socket: Option<String>,
        /// Directory watched for dropped `.jsonl`/`.iotb` traces.
        spool: Option<String>,
        /// State directory (checkpoints, snapshot.json, status.json).
        state_dir: String,
        /// Optional mount-point filter applied to every stream.
        mount: Option<String>,
        /// Skip malformed lines instead of failing the stream.
        lossy: bool,
        /// Cap on skipped lines per stream when lossy.
        max_errors: Option<usize>,
        /// Checkpoint/snapshot cadence in events (default 4096).
        checkpoint_every: Option<u64>,
        /// Per-stream restart budget override.
        max_stream_restarts: Option<u32>,
        /// Exit once this many streams completed (default: serve
        /// forever).
        drain: Option<usize>,
    },
    /// Ship one local trace file to a serve socket as one named
    /// stream.
    Feed {
        /// The server's unix socket.
        socket: String,
        /// Stream name.
        stream: String,
        /// Trace file to ship.
        trace: String,
        /// Trace container format (auto-sniffed by default).
        format: TraceFormat,
        /// DATA frame payload size in bytes.
        chunk_bytes: usize,
        /// Fault drill: drop the connection (no done frame) once this
        /// many payload bytes were sent.
        abort_after_bytes: Option<u64>,
        /// Fault drill: freeze for MILLIS before sending frame FRAME.
        stall_before_frame: Option<(u64, u64)>,
    },
    /// Print usage.
    Help,
}

/// One row of the flag table: a flag, what its value is, and the
/// subcommands that take it.
struct Flag {
    name: &'static str,
    /// What the value is, for `--X needs …`; `None` for a switch.
    value: Option<&'static str>,
    commands: &'static [&'static str],
}

/// Every flag, in usage order. A flag given to a subcommand outside its
/// row is a usage error.
const FLAGS: &[Flag] = &[
    flag("--format", Some("a value"), &["analyze", "convert", "feed"]),
    flag(
        "--mount",
        Some("a path"),
        &["analyze", "untested", "combos", "tcd", "diff", "serve"],
    ),
    flag("--json", None, &["analyze", "generate"]),
    flag("--jobs", Some("a worker count"), &["analyze"]),
    flag("--lossy", None, &["analyze", "convert", "serve"]),
    flag(
        "--max-errors",
        Some("a count"),
        &["analyze", "convert", "serve"],
    ),
    flag("--metrics", None, &["analyze"]),
    flag(
        "--checkpoint-every",
        Some("an event count"),
        &["analyze", "serve"],
    ),
    flag("--checkpoint-file", Some("a path"), &["analyze"]),
    flag("--resume", Some("a checkpoint path"), &["analyze"]),
    flag("--stop-after-events", Some("a count"), &["analyze"]),
    flag("--shard-timeout", Some("seconds"), &["analyze"]),
    flag(
        "--max-shard-restarts",
        Some("a count"),
        &["analyze", "serve"],
    ),
    flag("--inject-panic", Some("TICK[:TIMES]"), &["analyze"]),
    flag("--inject-io", Some("SEED[:HARD_AFTER]"), &["analyze"]),
    flag("--target", Some("a number"), &["tcd", "generate"]),
    flag("--to", Some("a value"), &["convert"]),
    flag("--index", None, &["convert"]),
    flag("--state-dir", Some("a directory"), &["serve"]),
    flag("--socket", Some("a path"), &["serve", "feed"]),
    flag("--spool", Some("a directory"), &["serve"]),
    flag("--drain", Some("a stream count"), &["serve"]),
    flag("--stream", Some("a name"), &["feed"]),
    flag("--chunk-bytes", Some("a byte count"), &["feed"]),
    flag("--abort-after-bytes", Some("a byte count"), &["feed"]),
    flag("--stall-before-frame", Some("FRAME:MILLIS"), &["feed"]),
    flag("--feedback", Some("a report path"), &["generate"]),
    flag("--profile", Some("a value"), &["generate"]),
    flag("--target-tcd", Some("a number"), &["generate"]),
    flag("--max-rounds", Some("a count"), &["generate"]),
    flag("--events-per-round", Some("a count"), &["generate"]),
    flag("--seed", Some("a number"), &["generate"]),
    flag("--log-out", Some("a path"), &["generate"]),
];

const fn flag(
    name: &'static str,
    value: Option<&'static str>,
    commands: &'static [&'static str],
) -> Flag {
    Flag {
        name,
        value,
        commands,
    }
}

/// Every subcommand, in usage order.
const COMMANDS: &[&str] = &[
    "analyze",
    "untested",
    "combos",
    "tcd",
    "convert",
    "convert-syz",
    "diff",
    "serve",
    "feed",
    "generate",
    "help",
];

/// One invocation's flag values and operands, read back by typed
/// getters. Every flag in it is one its subcommand takes.
struct Args {
    values: BTreeMap<&'static str, String>,
    operands: Vec<String>,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    fn string(&self, flag: &str) -> Option<String> {
        self.values.get(flag).cloned()
    }

    /// The flag's value through `parse`; `None` from it is
    /// ``bad --X value `…` ``.
    fn parse_with<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, CliError> {
        self.values
            .get(flag)
            .map(|v| parse(v).ok_or_else(|| CliError(format!("bad {flag} value `{v}`"))))
            .transpose()
    }

    fn parse<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.parse_with(flag, |v| v.parse().ok())
    }

    /// A count that must be at least 1.
    fn positive<T: FromStr + PartialOrd + From<u8>>(
        &self,
        flag: &str,
    ) -> Result<Option<T>, CliError> {
        self.parse_with(flag, |v| v.parse().ok().filter(|n| *n >= T::from(1)))
    }

    /// An `A:B[:C]` spec value, read field by field by `parse`; any
    /// malformation is ``bad --X value `…` (want A:B[:C])``.
    fn spec<T>(
        &self,
        flag: &'static str,
        parse: impl FnOnce(&mut Fields<'_>) -> Result<T, CliError>,
    ) -> Result<Option<T>, CliError> {
        let Some(value) = self.values.get(flag) else {
            return Ok(None);
        };
        let want = FLAGS
            .iter()
            .find(|f| f.name == flag)
            .and_then(|f| f.value)
            .unwrap_or_default();
        let mut fields = Fields {
            parts: value.split(':'),
            bad: format!("bad {flag} value `{value}` (want {want})"),
        };
        let spec = parse(&mut fields)?;
        match fields.parts.next() {
            Some(_) => Err(fields.bad()),
            None => Ok(Some(spec)),
        }
    }

    /// `--lossy` and its `--max-errors` cap.
    fn lossy(&self) -> Result<(bool, Option<usize>), CliError> {
        let max_errors = self.parse("--max-errors")?;
        if max_errors.is_some() && !self.has("--lossy") {
            return Err(CliError("--max-errors requires --lossy".into()));
        }
        Ok((self.has("--lossy"), max_errors))
    }

    fn format(&self) -> Result<TraceFormat, CliError> {
        self.values
            .get("--format")
            .map_or(Ok(TraceFormat::Auto), |v| {
                TraceFormat::parse(v).ok_or_else(|| {
                    CliError(format!(
                        "bad --format value `{v}` (expected auto, jsonl, or iotb)"
                    ))
                })
            })
    }

    /// Operand `index`, or `missing` as the error.
    fn operand(&self, index: usize, missing: &str) -> Result<String, CliError> {
        self.operands
            .get(index)
            .cloned()
            .ok_or_else(|| CliError(missing.into()))
    }

    fn trace(&self) -> Result<String, CliError> {
        self.operand(0, "missing trace-file operand")
    }
}

/// The `:`-separated fields of one spec value, shared by every
/// `A:B[:C]` flag.
struct Fields<'v> {
    parts: std::str::Split<'v, char>,
    bad: String,
}

impl Fields<'_> {
    fn bad(&self) -> CliError {
        CliError(self.bad.clone())
    }

    /// The next field, parsed, if there is one.
    fn next<T: FromStr>(&mut self) -> Result<Option<T>, CliError> {
        self.parts
            .next()
            .map(|s| s.parse().map_err(|_| self.bad()))
            .transpose()
    }

    fn required<T: FromStr>(&mut self) -> Result<T, CliError> {
        self.next()?.ok_or_else(|| self.bad())
    }

    /// An optional last `:TIMES` field, defaulting to 1 and never 0.
    fn times(&mut self) -> Result<u32, CliError> {
        match self.next()? {
            Some(0) => Err(self.bad()),
            times => Ok(times.unwrap_or(1)),
        }
    }
}

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, flags the subcommand does
/// not take, missing operands, or malformed flag values.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let command = match command.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    if !COMMANDS.contains(&command) {
        return Err(CliError(format!("unknown command `{command}`")));
    }
    let mut a = Args {
        values: BTreeMap::new(),
        operands: Vec::new(),
    };
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let (name, inline) = match arg.strip_prefix("--format=") {
            Some(value) => ("--format", Some(value)),
            None => (arg.as_str(), None),
        };
        if !name.starts_with("--") {
            a.operands.push(arg.clone());
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| CliError(format!("unknown flag `{name}`")))?;
        if !flag.commands.contains(&command) {
            return Err(CliError(format!("`{command}` does not take {name}")));
        }
        let value = match flag.value {
            None => String::new(),
            Some(what) => inline
                .or_else(|| iter.next().map(String::as_str))
                .ok_or_else(|| CliError(format!("{name} needs {what}")))?
                .to_owned(),
        };
        a.values.insert(flag.name, value);
    }
    match command {
        "analyze" => parse_analyze(&a),
        "convert" => {
            let format = a.format()?;
            let to = match a.string("--to").as_deref() {
                None => None,
                Some("auto") => {
                    return Err(CliError("--to must be jsonl or iotb, not auto".into()));
                }
                Some(value) => Some(TraceFormat::parse(value).ok_or_else(|| {
                    CliError(format!("bad --to value `{value}` (expected jsonl or iotb)"))
                })?),
            };
            let (lossy, max_errors) = a.lossy()?;
            Ok(Command::Convert {
                input: a.trace()?,
                output: a.operand(1, "convert needs input and output paths")?,
                format,
                to,
                index: a.has("--index"),
                lossy,
                max_errors,
            })
        }
        "untested" => Ok(Command::Untested {
            trace: a.trace()?,
            mount: a.string("--mount"),
        }),
        "combos" => Ok(Command::Combos {
            trace: a.trace()?,
            mount: a.string("--mount"),
        }),
        "tcd" => {
            let target = a.parse("--target")?;
            Ok(Command::Tcd {
                trace: a.trace()?,
                mount: a.string("--mount"),
                target: target.ok_or_else(|| CliError("tcd requires --target N".into()))?,
            })
        }
        "convert-syz" => Ok(Command::ConvertSyz { log: a.trace()? }),
        "generate" => parse_generate(&a),
        "serve" => {
            let checkpoint_every = a.positive("--checkpoint-every")?;
            let max_stream_restarts = a.parse("--max-shard-restarts")?;
            let drain = a.positive("--drain")?;
            let (lossy, max_errors) = a.lossy()?;
            if !a.has("--socket") && !a.has("--spool") {
                return Err(CliError(
                    "serve needs --socket PATH and/or --spool DIR".into(),
                ));
            }
            Ok(Command::Serve {
                socket: a.string("--socket"),
                spool: a.string("--spool"),
                state_dir: a
                    .string("--state-dir")
                    .ok_or_else(|| CliError("serve requires --state-dir DIR".into()))?,
                mount: a.string("--mount"),
                lossy,
                max_errors,
                checkpoint_every,
                max_stream_restarts,
                drain,
            })
        }
        "feed" => {
            let format = a.format()?;
            // A chunk is one DATA frame, which the server refuses past
            // MAX_FRAME_LEN.
            let chunk_bytes = a.parse_with("--chunk-bytes", |v| {
                let n: u64 = v.parse().ok().filter(|n| (1..=MAX_FRAME_LEN).contains(n))?;
                usize::try_from(n).ok()
            })?;
            let abort_after_bytes = a.parse("--abort-after-bytes")?;
            let stall_before_frame = a.parse_with("--stall-before-frame", |v| {
                let (frame, millis) = v.split_once(':')?;
                Some((frame.parse().ok()?, millis.parse().ok()?))
            })?;
            Ok(Command::Feed {
                socket: a
                    .string("--socket")
                    .ok_or_else(|| CliError("feed requires --socket PATH".into()))?,
                stream: a
                    .string("--stream")
                    .ok_or_else(|| CliError("feed requires --stream NAME".into()))?,
                trace: a.trace()?,
                format,
                chunk_bytes: chunk_bytes.unwrap_or(64 * 1024),
                abort_after_bytes,
                stall_before_frame,
            })
        }
        "diff" => Ok(Command::Diff {
            trace_a: a.trace()?,
            trace_b: a.operand(1, "diff needs two trace files")?,
            mount: a.string("--mount"),
        }),
        _ => Ok(Command::Help),
    }
}

/// Builds `analyze`: every value first, then the cross-flag checks,
/// then the operand.
fn parse_analyze(a: &Args) -> Result<Command, CliError> {
    let robust = RobustnessOpts {
        checkpoint_every: a.positive("--checkpoint-every")?,
        checkpoint_file: a.string("--checkpoint-file"),
        resume: a.string("--resume"),
        stop_after: a.parse("--stop-after-events")?,
        shard_timeout: a.positive("--shard-timeout")?,
        max_shard_restarts: a.parse("--max-shard-restarts")?,
        inject_panic: a.spec("--inject-panic", |f| {
            Ok(PanicSpec {
                tick: f.required()?,
                times: f.times()?,
            })
        })?,
        inject_io: a.spec("--inject-io", |f| {
            Ok(IoFaultSpec {
                seed: f.required()?,
                hard_after: f.next()?,
            })
        })?,
    };
    let format = a.format()?;
    // `--jobs 1` names the one shard thread analysis runs on. The flag
    // stays for callers that still pass it, and goes with the benchmark
    // change (ROADMAP.md items 1 and 2); any other count is refused
    // rather than ignored.
    if a.parse::<usize>("--jobs")?.is_some_and(|jobs| jobs != 1) {
        return Err(CliError(
            "--jobs takes only 1: analysis runs on one shard thread".into(),
        ));
    }
    let (lossy, max_errors) = a.lossy()?;
    if robust.checkpoint_file.is_some() && robust.checkpoint_every.is_none() {
        return Err(CliError(
            "--checkpoint-file requires --checkpoint-every".into(),
        ));
    }
    Ok(Command::Analyze {
        trace: a.trace()?,
        format,
        mount: a.string("--mount"),
        json: a.has("--json"),
        lossy,
        metrics: a.has("--metrics"),
        max_errors,
        robust: Box::new(robust),
    })
}

fn parse_generate(a: &Args) -> Result<Command, CliError> {
    let profile = match a.string("--profile") {
        None => "xfstests".to_owned(),
        Some(p) if p == "xfstests" || p == "crashmonkey" => p,
        Some(other) => {
            return Err(CliError(format!(
                "bad --profile value `{other}` (expected xfstests or crashmonkey)"
            )));
        }
    };
    let target = a.parse("--target")?;
    let target_tcd = a.parse_with("--target-tcd", |v| {
        v.parse().ok().filter(|t: &f64| t.is_finite() && *t >= 0.0)
    })?;
    let max_rounds = a.positive("--max-rounds")?;
    let events_per_round = a.positive("--events-per-round")?;
    let seed = a.parse("--seed")?;
    Ok(Command::Generate {
        feedback: a
            .string("--feedback")
            .ok_or_else(|| CliError("generate requires --feedback <report.json>".into()))?,
        profile,
        target: target.unwrap_or(10),
        target_tcd: target_tcd.unwrap_or(0.0),
        max_rounds: max_rounds.unwrap_or(6),
        events_per_round: events_per_round.unwrap_or(300),
        seed: seed.unwrap_or(0),
        log_out: a.string("--log-out"),
        json: a.has("--json"),
    })
}

/// Usage text.
pub const USAGE: &str = "\
iocov — input/output coverage for file system testing

USAGE:
  iocov analyze  <trace> [--format auto|jsonl|iotb] [--mount PATH]
                 [--json] [--jobs 1] [--lossy [--max-errors N]]
                 [--metrics]
                 [--checkpoint-every N [--checkpoint-file FILE]]
                 [--resume FILE] [--stop-after-events K]
                 [--shard-timeout SECS] [--max-shard-restarts N]
                 [--inject-panic TICK[:TIMES]]
                 [--inject-io SEED[:HARD_AFTER]]
  iocov untested <trace> [--mount PATH]
  iocov combos   <trace> [--mount PATH]
  iocov tcd      <trace> [--mount PATH] --target N
  iocov convert  <in> <out> [--to jsonl|iotb] [--index]
                 [--format auto|jsonl|iotb]
                 [--lossy [--max-errors N]]
  iocov convert-syz <syz-log.txt>
  iocov diff     <a> <b> [--mount PATH]
  iocov serve    --state-dir DIR [--socket PATH] [--spool DIR]
                 [--mount PATH] [--lossy [--max-errors N]]
                 [--checkpoint-every N] [--max-shard-restarts N]
                 [--drain N]
  iocov feed     <trace> --socket PATH --stream NAME
                 [--format auto|jsonl|iotb] [--chunk-bytes N]
                 [--abort-after-bytes N] [--stall-before-frame F:MS]
  iocov generate --feedback <report.json>
                 [--profile xfstests|crashmonkey] [--target N]
                 [--target-tcd X] [--max-rounds N]
                 [--events-per-round N] [--seed S]
                 [--log-out FILE] [--json]

Traces are JSON Lines of syscall events, as written by
iocov_trace::write_jsonl (or produced from Syzkaller logs with
`convert-syz`), or the compact binary container written by
`convert --to iotb`. --format selects the reader; the default `auto`
sniffs the IOTB magic bytes. --mount filters to the tester's mount
point, e.g. --mount /mnt/test. Analysis runs on one shard thread
while the caller reads the trace; --jobs accepts only 1. --lossy skips
malformed trace lines or records (reporting each skip) instead of
aborting; --max-errors caps how many. --metrics reports pipeline
counters — events read, parse-skipped, drops by reason, variant
merges, partition records, shard restarts and failures — alongside the
coverage report. `convert` translates between the two containers; --to
defaults to the output path's extension. `convert --index` writes the
block-indexed iotb v2 container: v1 plus a trailing block index that
analysis does not read, so every command reads v1 and v2 alike.

Analysis is supervised and its memory stays bounded however long the
trace; `untested`, `combos`, `tcd` and `diff` stream through the same
analysis session. A panicking or stalled shard is restarted with
exponential backoff from its restore point, a copy of its state taken
at the last checkpoint (or the start of the run). It is not replayed:
its events since that point are lost and it goes on with the next
batch, so any restart leaves a partial report, and the failure
manifest counts the lost events. --checkpoint-every bounds that loss.
A shard that exhausts its restart budget (--max-shard-restarts,
default 3, per run: checkpoints do not refill it) gives up and loses
everything after its restore point; the run still completes.
--shard-timeout SECS enables the stall watchdog; a shard declared
stalled costs its events since the restore point like a panic does.
--checkpoint-every N writes resumable state every N events to
--checkpoint-file (default <trace>.iockpt; works with any --format);
--resume FILE continues a killed run from its last checkpoint,
producing output byte-identical to an uninterrupted run.
--stop-after-events K stops the run after K events (simulating a kill)
for testing resume. --inject-panic TICK[:TIMES] panics the shard on
TIMES (default 1) consecutive batches from batch TICK, counted from
the last checkpoint; --inject-io deterministically
injects transient/hard I/O faults. Both exercise these recovery
paths.

`generate` closes the measure→generate loop: it reads a coverage
report (`analyze --json` output, bare or `{\"report\": …}`-wrapped),
extracts the partitions still below --target, and runs a feedback
campaign against the simulated VFS — each round re-weights the
generator toward cold partitions, stages preconditions that elicit
rare errnos, executes, re-analyzes, and reports the TCD movement
(lower is better). Stops at --target-tcd or after --max-rounds.
Campaigns are byte-reproducible per --seed. --log-out saves the
syzlang execution log (replayable with `convert-syz`); --json emits a
summary whose `report` field can seed the next campaign.

`serve` keeps the analysis resident: it accepts many concurrent trace
streams — `feed` connections over the --socket unix socket plus
.jsonl/.iotb files dropped into the --spool directory — and runs one
supervised, checkpointed analysis session per stream. At every
--checkpoint-every boundary (default 4096 events) it persists the
stream's .iockpt and atomically rewrites DIR/snapshot.json (the merged
coverage report over all streams, byte-identical to `analyze --json`
over the same events) and DIR/status.json (the per-stream failure
manifest). A feeder that dies mid-stream is recorded as failed but
keeps its checkpoint; reconnecting with the same --stream name resumes
from it. A stream that fails more than --max-shard-restarts times
(default 3) gives up. --drain N exits once N streams completed. `feed`
ships one local trace file as one named stream, so one `feed` per
input keeps a failing input from stopping the others; --abort-after-bytes
and --stall-before-frame deterministically crash or freeze the feeder
to drill that recovery.";

/// The container format `--format` forces, or `None` to sniff it.
fn forced_format(format: TraceFormat) -> Option<SourceFormat> {
    match format {
        TraceFormat::Auto => None,
        TraceFormat::Jsonl => Some(SourceFormat::Jsonl),
        TraceFormat::Iotb => Some(SourceFormat::Iotb),
    }
}

/// Resolves the container format, sniffing the file's magic bytes for
/// `auto`.
fn resolve_format(path: &str, format: TraceFormat) -> Result<SourceFormat, CliError> {
    match forced_format(format) {
        Some(format) => Ok(format),
        None => iocov_trace::sniff_format(path).map_err(|e| source_error(path, e)),
    }
}

/// The one message convention for every way opening a trace can fail.
fn source_error(path: &str, error: SourceError) -> CliError {
    CliError(match error {
        SourceError::Open(e) => format!("cannot open {path}: {e}"),
        SourceError::Sniff(e) => format!("cannot read {path}: {e}"),
        SourceError::Seek(e) => format!("cannot seek {path}: {e}"),
        e @ SourceError::Unseekable { .. } => format!("cannot resume over {path}: {e}"),
        e @ SourceError::FormatMismatch { .. } => format!("cannot resume: {e}"),
        SourceError::Trace(e) => format!("cannot parse {path}: {e}"),
    })
}

/// Wraps an opened trace file for reading: optional deterministic fault
/// injection (innermost, mimicking a flaky device), then
/// retry-with-backoff so transient errors — injected or real —
/// are absorbed instead of failing the run.
fn fault_reader(file: File, io: Option<IoFaultSpec>) -> Box<dyn Read> {
    match io {
        Some(spec) => {
            let mut plan = FaultPlan::new(spec.seed);
            if let Some(after) = spec.hard_after {
                plan = plan.with_hard_error_after(after);
            }
            Box::new(RetryRead::new(FaultyRead::new(file, plan)))
        }
        None => Box::new(RetryRead::new(file)),
    }
}

/// The `analyze --json --metrics` document: report plus counters.
#[derive(serde::Serialize)]
struct AnalyzeDoc {
    report: iocov::AnalysisReport,
    metrics: iocov::MetricsSnapshot,
}

/// The `generate --json` summary document. Its `report` field is a
/// bare [`AnalysisReport`] under a `report` key, so the document feeds
/// straight back into `generate --feedback` (see [`load_report`]).
#[derive(serde::Serialize)]
struct GenerateDoc {
    profile: String,
    seed: u64,
    target: u64,
    final_tcd: f64,
    converged: bool,
    total_events: u64,
    rounds: Vec<RoundDoc>,
    report: AnalysisReport,
}

/// One round's statistics in the `generate --json` document.
#[derive(serde::Serialize)]
struct RoundDoc {
    round: usize,
    events: u64,
    tcd_before: f64,
    tcd_after: f64,
    cold_inputs: usize,
    cold_errnos: usize,
    cold_outputs: usize,
    probes_staged: usize,
    probes_hit: usize,
}

/// Loads a coverage report for `generate --feedback`: a bare
/// [`AnalysisReport`] document (`analyze --json`), or any wrapper with a
/// `report` field (`analyze --json --metrics`, `generate --json`).
fn load_report(path: &str) -> Result<AnalysisReport, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    if let Ok(report) = serde_json::from_str::<AnalysisReport>(&text) {
        return Ok(report);
    }
    #[derive(serde::Deserialize)]
    struct Wrapped {
        report: AnalysisReport,
    }
    serde_json::from_str::<Wrapped>(&text)
        .map(|w| w.report)
        .map_err(|e| CliError(format!("cannot parse report {path}: {e}")))
}

/// The `analyze` invocation. The default is how
/// `untested`, `combos`, `tcd` and `diff` read their traces: strict,
/// format-sniffed, with no robustness options.
#[derive(Default)]
struct AnalyzeCtx<'a> {
    trace: &'a str,
    format: TraceFormat,
    mount: Option<&'a str>,
    json: bool,
    lossy: bool,
    metrics: bool,
    max_errors: Option<usize>,
    robust: RobustnessOpts,
}

impl AnalyzeCtx<'_> {
    /// Where `--checkpoint-every` writes (default `<trace>.iockpt`).
    fn checkpoint_path(&self) -> String {
        self.robust
            .checkpoint_file
            .clone()
            .unwrap_or_else(|| format!("{}.iockpt", self.trace))
    }
}

/// Renders an analysis result — JSON document or text report — shared by
/// the batch and checkpointed paths so both produce byte-identical
/// output for the same report.
fn render_analyze<W: Write>(
    out: &mut W,
    json: bool,
    skipped: Option<&[SkippedLine]>,
    report: AnalysisReport,
    metrics: Option<&PipelineMetrics>,
    run: (u64, &[ShardFailureRecord]),
) -> Result<(), CliError> {
    let (events, failures) = run;
    if json {
        // The failure manifest lives in the metrics snapshot, so the
        // JSON document shape is unchanged by degraded runs.
        let text = match metrics {
            Some(m) => serde_json::to_string_pretty(&AnalyzeDoc {
                metrics: m.snapshot(),
                report,
            }),
            None => serde_json::to_string_pretty(&report),
        }
        .map_err(|e| CliError(format!("serialization failed: {e}")))?;
        writeln!(out, "{text}")?;
        return Ok(());
    }
    for f in failures {
        let (n, plural) = (f.restarts, if f.restarts == 1 { "" } else { "s" });
        let outcome = if f.gave_up {
            format!("gave up after {n} restart{plural}")
        } else {
            format!("restarted {n} time{plural}")
        };
        writeln!(
            out,
            "warning: shard {} {outcome}; its pids are missing from {} events \
             since its restore point (partial report): {}",
            f.shard, f.lost_events, f.last_error
        )?;
    }
    if let Some(skipped) = skipped {
        writeln!(
            out,
            "lossy ingest: {} malformed line{} skipped",
            skipped.len(),
            if skipped.len() == 1 { "" } else { "s" }
        )?;
        for skip in skipped {
            writeln!(out, "  {skip}")?;
        }
    }
    if !failures.is_empty() {
        // The report holds only what the surviving shard states saw, so
        // say how much was read and how much the restarts lost.
        let lost: u64 = failures.iter().map(|f| f.lost_events).sum();
        write!(
            out,
            "{events} events read, {lost} lost to shard restarts; {} scanned, ",
            report.filter_stats.total
        )?;
    } else {
        write!(out, "{} events, ", report.filter_stats.total)?;
    }
    writeln!(
        out,
        "{} analyzed, {} filtered out\n",
        report.total_calls(),
        report.filter_stats.dropped
    )?;
    for arg in ArgName::ALL {
        if report.input_coverage(arg).calls > 0 {
            write!(out, "{}", iocov::report::render_input(&report, arg))?;
            writeln!(out)?;
        }
    }
    for base in BaseSyscall::ALL {
        if report.output_coverage(base).calls > 0 {
            write!(out, "{}", iocov::report::render_output(&report, base))?;
            writeln!(out)?;
        }
    }
    if let Some(m) = metrics {
        let text = serde_json::to_string_pretty(&m.snapshot())
            .map_err(|e| CliError(format!("serialization failed: {e}")))?;
        writeln!(out, "=== pipeline metrics ===\n{text}")?;
    }
    Ok(())
}

/// The unified analysis path: open the trace as an [`EventSource`]
/// (strict or lossy, JSONL or `.iotb`, optional fault injection,
/// optional resume position) and pump it through a
/// [`PipelineBuilder`]-configured session and its shard thread, cutting
/// a checkpoint every N events.
/// Returns the finished run and the metrics it counted into, if any.
/// `analyze`, `untested`, `combos`, `tcd` and `diff` all take this one
/// path, and every flag combination produces reports byte-identical to
/// a plain serial run over the same events. A panicking shard is
/// restarted with backoff from its restore point and loses its events
/// since; a failure leaves a partial report plus a failure manifest —
/// never a process abort. `extended` also counts identifier and
/// flag-combination coverage ([`PipelineBuilder::extended_coverage`]).
fn run_session(
    ctx: &AnalyzeCtx<'_>,
    extended: bool,
) -> Result<(PipelineRun, Option<Arc<PipelineMetrics>>), CliError> {
    let robust = &ctx.robust;
    let filter = TraceFilter::for_mount(ctx.mount);
    let resume_doc = match &robust.resume {
        Some(resume_path) => {
            let (doc, fell_back) = read_checkpoint_with_fallback(Path::new(resume_path))
                .map_err(|e| CliError(format!("cannot resume from {resume_path}: {e}")))?;
            if fell_back {
                // Warn on stderr so report bytes on stdout stay
                // comparable with an uninterrupted run.
                eprintln!(
                    "iocov: warning: checkpoint {resume_path} failed validation \
                     (torn write?); resumed from previous generation {resume_path}.prev"
                );
            }
            if TraceFilter::for_mount(doc.mount.as_deref()) != filter {
                return Err(CliError(format!(
                    "cannot resume: checkpoint mount filter {:?} does not match this run's {:?}",
                    doc.mount,
                    ctx.mount.map(str::to_owned),
                )));
            }
            Some(doc)
        }
        None => None,
    };
    if robust.checkpoint_every.is_some() {
        // A checkpoint is only useful if --resume can later seek the
        // source back to its cursor; refuse configs whose input can
        // never support that, before any events are consumed.
        if let Some(kind) = unseekable_kind(ctx.trace) {
            return Err(CliError(format!(
                "cannot checkpoint {}: --checkpoint-every records a cursor that --resume \
                 must seek back to, but a {kind} cannot be re-read; \
                 save the stream to a file first",
                ctx.trace
            )));
        }
    }
    let io = robust.inject_io;
    let options = SourceOptions {
        read: ReadOptions {
            max_errors: ctx.max_errors,
            on_error: if ctx.lossy {
                ErrorPolicy::Skip
            } else {
                ErrorPolicy::Abort
            },
        },
        format: forced_format(ctx.format),
        resume: resume_doc.as_ref().map(|doc| SourcePos {
            format: doc.format,
            state: doc.cursor.clone(),
        }),
        wrap: Some(Box::new(move |file| fault_reader(file, io))),
        ..SourceOptions::default()
    };
    let mut source = open_source(ctx.trace, options).map_err(|e| source_error(ctx.trace, e))?;
    let pipeline_metrics = ctx.metrics.then(|| Arc::new(PipelineMetrics::default()));
    let mut builder = PipelineBuilder::new(filter)
        .mount(ctx.mount.map(str::to_owned))
        .policy(robust.policy());
    if let Some(spec) = robust.inject_panic {
        // A restarted shard goes on with the next batch, so each charge
        // panics a batch of its own.
        let trigger = DrillTrigger::new(spec.tick, spec.times);
        builder = builder.hook(Arc::new(move |tick| {
            if trigger.fire_from(tick) {
                panic!("injected panic: shard 0 at tick {tick}");
            }
        }));
    }
    if let Some(m) = &pipeline_metrics {
        builder = builder.metrics(Arc::clone(m));
    }
    if let Some(every) = robust.checkpoint_every {
        builder = builder.checkpoint(CheckpointPolicy {
            every,
            path: PathBuf::from(ctx.checkpoint_path()),
        });
    }
    if let Some(doc) = resume_doc {
        builder = builder.resume(doc);
    }
    if let Some(stop) = robust.stop_after {
        builder = builder.stop_after(stop);
    }
    if extended {
        builder = builder.extended_coverage();
    }
    let run = builder.build().run(source.as_mut()).map_err(|e| match e {
        PipelineError::Source(e) => source_error(ctx.trace, SourceError::Trace(e)),
        e @ PipelineError::Checkpoint { .. } => CliError(e.to_string()),
    })?;
    Ok((run, pipeline_metrics))
}

/// `analyze`: one [`run_session`], rendered as a JSON document or a
/// text report (or the resume hint of a stopped run).
fn run_analyze<W: Write>(ctx: &AnalyzeCtx<'_>, out: &mut W) -> Result<(), CliError> {
    let (run, pipeline_metrics) = run_session(ctx, false)?;
    if run.stopped {
        writeln!(
            out,
            "stopped after {} events; resume with --resume {}",
            run.events,
            ctx.checkpoint_path()
        )?;
        return Ok(());
    }
    let skipped = ctx.lossy.then_some(run.skipped);
    render_analyze(
        out,
        ctx.json,
        skipped.as_deref(),
        run.report,
        pipeline_metrics.as_deref(),
        (run.events, &run.failures),
    )
}

/// The report of a whole trace for `untested`, `combos`, `tcd` and
/// `diff`: one [`run_session`] over the default context.
fn analyze_whole_trace(
    trace: &str,
    mount: Option<&str>,
    extended: bool,
) -> Result<AnalysisReport, CliError> {
    let ctx = AnalyzeCtx {
        trace,
        mount,
        ..AnalyzeCtx::default()
    };
    Ok(run_session(&ctx, extended)?.0.report)
}

/// `serve`'s checkpoint cadence when `--checkpoint-every` is not given.
const SERVE_CHECKPOINT_EVERY: u64 = 4096;

/// Executes a command, writing human-readable or JSON output to `out`.
///
/// # Errors
///
/// Propagates file and parse errors as [`CliError`].
pub fn run<W: Write>(command: &Command, out: &mut W) -> Result<(), CliError> {
    match command {
        Command::Help => writeln!(out, "{USAGE}")?,
        Command::Analyze {
            trace,
            format,
            mount,
            json,
            lossy,
            metrics,
            max_errors,
            robust,
        } => {
            let ctx = AnalyzeCtx {
                trace,
                format: *format,
                mount: mount.as_deref(),
                json: *json,
                lossy: *lossy,
                metrics: *metrics,
                max_errors: *max_errors,
                robust: RobustnessOpts::clone(robust),
            };
            run_analyze(&ctx, out)?;
        }
        Command::Untested { trace, mount } => {
            let report = analyze_whole_trace(trace, mount.as_deref(), true)?;
            write!(out, "{}", iocov::report::untested_summary(&report))?;
            // Identifier coverage (future-work metric) rides along.
            let ids = report.identifiers.unwrap_or_default();
            let fd_gaps: Vec<String> = ids.untested_fd().iter().map(ToString::to_string).collect();
            let path_gaps: Vec<String> = ids
                .untested_path()
                .iter()
                .map(ToString::to_string)
                .collect();
            writeln!(out, "identifier gaps: fd {{{}}}", fd_gaps.join(", "))?;
            writeln!(out, "identifier gaps: path {{{}}}", path_gaps.join(", "))?;
        }
        Command::Combos { trace, mount } => {
            let combos = analyze_whole_trace(trace, mount.as_deref(), true)?
                .combos
                .unwrap_or_default();
            writeln!(
                out,
                "{} open calls, {} distinct flag combinations, pairwise coverage {:.1}%",
                combos.calls,
                combos.distinct_combinations(),
                100.0 * combos.pairwise_fraction()
            )?;
            for (combo, count) in combos.top_combinations(10) {
                writeln!(out, "  {count:>10}  {}", combo.join("|"))?;
            }
            let untested = combos.untested_pairs();
            writeln!(out, "untested pairs: {}", untested.len())?;
            for (a, b) in untested.iter().take(10) {
                writeln!(out, "  {a} + {b}")?;
            }
        }
        Command::Tcd {
            trace,
            mount,
            target,
        } => {
            let report = analyze_whole_trace(trace, mount.as_deref(), false)?;
            let freqs = report
                .input_coverage(ArgName::OpenFlags)
                .frequency_vector(ArgName::OpenFlags);
            writeln!(
                out,
                "TCD(open.flags, uniform target {target}) = {:.4}",
                tcd_uniform(&freqs, *target)
            )?;
            // The actionable ranking: which partitions deviate most.
            let partitions = iocov::arg_domain(ArgName::OpenFlags).all_partitions();
            let ranked = deviation_ranking(&partitions, &freqs, *target);
            writeln!(out, "worst deviations (− under-tested, + over-tested):")?;
            for d in ranked.iter().take(5) {
                writeln!(
                    out,
                    "  {:<14} freq {:>10}  {:+.2} decades",
                    d.partition.to_string(),
                    d.frequency,
                    d.deviation
                )?;
            }
        }
        Command::Diff {
            trace_a,
            trace_b,
            mount,
        } => {
            let a = analyze_whole_trace(trace_a, mount.as_deref(), false)?;
            let b = analyze_whole_trace(trace_b, mount.as_deref(), false)?;
            let d = iocov::report::diff(&a, &b);
            if d.is_empty() {
                writeln!(out, "identical partition coverage")?;
            } else {
                write!(out, "{}", iocov::report::render_diff(&d, trace_a, trace_b))?;
            }
        }
        Command::Convert {
            input,
            output,
            format,
            to,
            index,
            lossy,
            max_errors,
        } => {
            let target = match to {
                Some(target) => *target,
                None if output.ends_with(".iotb") => TraceFormat::Iotb,
                None if output.ends_with(".jsonl") || output.ends_with(".json") => {
                    TraceFormat::Jsonl
                }
                None => {
                    return Err(CliError(format!(
                        "cannot infer output format from `{output}`; pass --to jsonl|iotb"
                    )));
                }
            };
            if *index && target != TraceFormat::Iotb {
                return Err(CliError("--index requires an iotb output".into()));
            }
            let read = if *lossy {
                ReadOptions {
                    max_errors: *max_errors,
                    on_error: ErrorPolicy::Skip,
                }
            } else {
                ReadOptions::STRICT
            };
            let options = SourceOptions {
                read,
                format: forced_format(*format),
                wrap: Some(Box::new(|file| fault_reader(file, None))),
                ..SourceOptions::default()
            };
            let mut source = open_source(input, options).map_err(|e| source_error(input, e))?;
            let trace = source
                .read_all()
                .map_err(|e| source_error(input, SourceError::Trace(e)))?;
            let skipped = source.skip_ledger();
            let file = File::create(output)
                .map_err(|e| CliError(format!("cannot create {output}: {e}")))?;
            match target {
                TraceFormat::Iotb if *index => {
                    iocov_trace::write_iotb_indexed(file, &trace, iocov_trace::DEFAULT_BLOCK_EVENTS)
                }
                TraceFormat::Iotb => iocov_trace::write_iotb(file, &trace),
                TraceFormat::Jsonl => iocov_trace::write_jsonl(file, &trace),
                TraceFormat::Auto => unreachable!("--to rejects auto at parse time"),
            }
            .map_err(|e| CliError(format!("cannot write {output}: {e}")))?;
            if !skipped.is_empty() {
                writeln!(
                    out,
                    "lossy ingest: {} malformed record{} skipped",
                    skipped.len(),
                    if skipped.len() == 1 { "" } else { "s" }
                )?;
                for skip in skipped {
                    writeln!(out, "  {skip}")?;
                }
            }
            writeln!(out, "wrote {} events to {output}", trace.len())?;
        }
        Command::ConvertSyz { log } => {
            let text = std::fs::read_to_string(log)
                .map_err(|e| CliError(format!("cannot read {log}: {e}")))?;
            let trace = iocov::syzlang::parse_to_trace(&text)
                .map_err(|e| CliError(format!("cannot parse {log}: {e}")))?;
            iocov_trace::write_jsonl(out, &trace)
                .map_err(|e| CliError(format!("cannot write trace: {e}")))?;
        }
        Command::Generate {
            feedback,
            profile,
            target,
            target_tcd,
            max_rounds,
            events_per_round,
            seed,
            log_out,
            json,
        } => {
            let initial = load_report(feedback)?;
            let suite = match profile.as_str() {
                "crashmonkey" => iocov_workloads::profile::crashmonkey_profile(),
                _ => iocov_workloads::profile::xfstests_profile(),
            };
            let config = iocov_workloads::CampaignConfig {
                seed: *seed,
                max_rounds: *max_rounds,
                events_per_round: *events_per_round,
                target: *target,
                target_tcd: *target_tcd,
            };
            let env =
                iocov_workloads::TestEnv::new().with_config(iocov_workloads::campaign_config());
            let outcome = iocov_workloads::FeedbackCampaign::new(suite, config).run(&env, &initial);
            if let Some(path) = log_out {
                std::fs::write(path, &outcome.log)
                    .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            }
            if *json {
                let doc = GenerateDoc {
                    profile: profile.clone(),
                    seed: *seed,
                    target: *target,
                    final_tcd: outcome.final_tcd,
                    converged: outcome.converged,
                    total_events: outcome.total_events(),
                    rounds: outcome
                        .rounds
                        .iter()
                        .map(|r| RoundDoc {
                            round: r.round,
                            events: r.events,
                            tcd_before: r.tcd_before,
                            tcd_after: r.tcd_after,
                            cold_inputs: r.cold_inputs,
                            cold_errnos: r.cold_errnos,
                            cold_outputs: r.cold_outputs,
                            probes_staged: r.probes_staged,
                            probes_hit: r.probes_hit,
                        })
                        .collect(),
                    report: outcome.report.clone(),
                };
                let text = serde_json::to_string_pretty(&doc)
                    .map_err(|e| CliError(format!("serialization failed: {e}")))?;
                writeln!(out, "{text}")?;
            } else {
                for r in &outcome.rounds {
                    writeln!(
                        out,
                        "round {}: tcd {:.4} -> {:.4}  ({} events, {} cold inputs, \
                         {} cold errnos, {} cold return buckets, probes {}/{})",
                        r.round,
                        r.tcd_before,
                        r.tcd_after,
                        r.events,
                        r.cold_inputs,
                        r.cold_errnos,
                        r.cold_outputs,
                        r.probes_hit,
                        r.probes_staged,
                    )?;
                }
                let start = outcome
                    .rounds
                    .first()
                    .map_or(outcome.final_tcd, |r| r.tcd_before);
                writeln!(
                    out,
                    "campaign: tcd {start:.4} -> {:.4} over {} round{} ({} events), {}",
                    outcome.final_tcd,
                    outcome.rounds.len(),
                    if outcome.rounds.len() == 1 { "" } else { "s" },
                    outcome.total_events(),
                    if outcome.converged {
                        "converged"
                    } else {
                        "round budget exhausted"
                    }
                )?;
            }
        }
        Command::Serve {
            socket,
            spool,
            state_dir,
            mount,
            lossy,
            max_errors,
            checkpoint_every,
            max_stream_restarts,
            drain,
        } => {
            #[cfg(not(unix))]
            {
                let _ = (
                    socket,
                    spool,
                    state_dir,
                    mount,
                    lossy,
                    max_errors,
                    checkpoint_every,
                    max_stream_restarts,
                    drain,
                );
                return Err(CliError("iocov serve needs a unix platform".into()));
            }
            #[cfg(unix)]
            {
                let mut policy = SupervisorPolicy::default();
                if let Some(max) = max_stream_restarts {
                    policy = policy.with_max_restarts(*max);
                }
                let summary = iocov::run_serve(iocov::ServeConfig {
                    socket: socket.as_ref().map(PathBuf::from),
                    spool: spool.as_ref().map(PathBuf::from),
                    state_dir: PathBuf::from(state_dir),
                    mount: mount.clone(),
                    lossy: *lossy,
                    max_errors: *max_errors,
                    checkpoint_every: checkpoint_every.unwrap_or(SERVE_CHECKPOINT_EVERY),
                    policy,
                    drain: *drain,
                })
                .map_err(|e| CliError(format!("serve: {e}")))?;
                for s in &summary.streams {
                    writeln!(
                        out,
                        "stream {} [{}]: {} — {} events, {} restart{}{}",
                        s.stream,
                        s.origin,
                        s.state,
                        s.events,
                        s.restarts,
                        if s.restarts == 1 { "" } else { "s" },
                        s.last_error
                            .as_deref()
                            .map(|e| format!(" (last error: {e})"))
                            .unwrap_or_default(),
                    )?;
                }
                writeln!(
                    out,
                    "served {} stream{}; merged snapshot at {state_dir}/snapshot.json",
                    summary.streams.len(),
                    if summary.streams.len() == 1 { "" } else { "s" },
                )?;
            }
        }
        Command::Feed {
            socket,
            stream,
            trace,
            format,
            chunk_bytes,
            abort_after_bytes,
            stall_before_frame,
        } => {
            #[cfg(not(unix))]
            {
                let _ = (
                    socket,
                    stream,
                    trace,
                    format,
                    chunk_bytes,
                    abort_after_bytes,
                    stall_before_frame,
                );
                return Err(CliError("iocov feed needs a unix platform".into()));
            }
            #[cfg(unix)]
            {
                let format = resolve_format(trace, *format)?;
                let outcome = iocov::run_feed(&iocov::FeedConfig {
                    socket: PathBuf::from(socket),
                    stream: stream.clone(),
                    trace: trace.clone(),
                    format,
                    chunk: *chunk_bytes,
                    abort: abort_after_bytes.map(|bytes| -> iocov::FeedAbortHook {
                        let trigger = DrillTrigger::new(bytes, 1);
                        Arc::new(move |sent| trigger.fire_from(sent))
                    }),
                    stall: stall_before_frame.map(|(frame, millis)| -> iocov::FeedStallHook {
                        let trigger = DrillTrigger::new(frame, 1);
                        Arc::new(move |ordinal| {
                            if trigger.fire(ordinal) {
                                std::thread::sleep(Duration::from_millis(millis));
                            }
                        })
                    }),
                })
                .map_err(|e| CliError(format!("feed {trace}: {e}")))?;
                if let Some(reason) = &outcome.rejected {
                    writeln!(out, "stream {stream} rejected: {reason}")?;
                } else if outcome.aborted {
                    writeln!(
                        out,
                        "stream {stream}: dropped the connection after {} bytes \
                         ({} frames), no done frame",
                        outcome.sent_bytes, outcome.frames,
                    )?;
                } else if outcome.resumed {
                    writeln!(
                        out,
                        "stream {stream}: resumed at byte {} and fed {} bytes in {} frames",
                        outcome.resumed_from, outcome.sent_bytes, outcome.frames,
                    )?;
                } else {
                    writeln!(
                        out,
                        "stream {stream}: fed {} bytes in {} frames",
                        outcome.sent_bytes, outcome.frames,
                    )?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    fn sample_trace_file() -> tempfile::TempTrace {
        use iocov_syscalls::Kernel;
        use iocov_trace::Recorder;
        let recorder = Arc::new(Recorder::new());
        let mut kernel = Kernel::new();
        kernel.attach_recorder(Arc::clone(&recorder));
        kernel.mkdir("/mnt", 0o755);
        kernel.mkdir("/mnt/test", 0o755);
        let fd = kernel.open("/mnt/test/f", 0o102 | 0o100, 0o644) as i32;
        kernel.write(fd, &[0u8; 300]);
        kernel.close(fd);
        kernel.open("/mnt/test/missing", 0, 0);
        kernel.open("/etc/noise", 0, 0);
        tempfile::TempTrace::new(&recorder.take())
    }

    /// Minimal temp-file helper (std-only).
    mod tempfile {
        pub struct TempTrace {
            pub path: String,
        }
        impl TempTrace {
            pub fn new(trace: &iocov_trace::Trace) -> Self {
                let path = std::env::temp_dir().join(format!(
                    "iocov-cli-test-{}-{:p}.jsonl",
                    std::process::id(),
                    trace
                ));
                let mut file = std::fs::File::create(&path).unwrap();
                iocov_trace::write_jsonl(&mut file, trace).unwrap();
                TempTrace {
                    path: path.to_string_lossy().into_owned(),
                }
            }
        }
        impl Drop for TempTrace {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.path);
            }
        }
    }

    #[test]
    fn parse_commands() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&args(&[
                "analyze",
                "t.jsonl",
                "--mount",
                "/mnt/test",
                "--json"
            ]))
            .unwrap(),
            Command::Analyze {
                trace: "t.jsonl".into(),
                format: TraceFormat::Auto,
                mount: Some("/mnt/test".into()),
                json: true,
                lossy: false,
                metrics: false,
                max_errors: None,
                robust: Box::new(RobustnessOpts::default())
            }
        );
        assert_eq!(
            parse_args(&args(&["analyze", "t.jsonl", "--jobs", "1"])).unwrap(),
            Command::Analyze {
                trace: "t.jsonl".into(),
                format: TraceFormat::Auto,
                mount: None,
                json: false,
                lossy: false,
                metrics: false,
                max_errors: None,
                robust: Box::new(RobustnessOpts::default())
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "analyze",
                "t.jsonl",
                "--lossy",
                "--metrics",
                "--max-errors",
                "5"
            ]))
            .unwrap(),
            Command::Analyze {
                trace: "t.jsonl".into(),
                format: TraceFormat::Auto,
                mount: None,
                json: false,
                lossy: true,
                metrics: true,
                max_errors: Some(5),
                robust: Box::new(RobustnessOpts::default())
            }
        );
        assert_eq!(
            parse_args(&args(&["tcd", "t.jsonl", "--target", "1000"])).unwrap(),
            Command::Tcd {
                trace: "t.jsonl".into(),
                mount: None,
                target: 1000
            }
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&args(&["bogus"])).is_err());
        assert!(parse_args(&args(&["analyze"])).is_err());
        assert!(parse_args(&args(&["analyze", "t", "--mount"])).is_err());
        assert!(
            parse_args(&args(&["tcd", "t"])).is_err(),
            "tcd needs --target"
        );
        assert!(parse_args(&args(&["tcd", "t", "--target", "abc"])).is_err());
        assert!(parse_args(&args(&["analyze", "t", "--nope"])).is_err());
        assert!(parse_args(&args(&["analyze", "t", "--jobs"])).is_err());
        for jobs in ["0", "2", "4", "x"] {
            assert!(
                parse_args(&args(&["analyze", "t", "--jobs", jobs])).is_err(),
                "--jobs {jobs}"
            );
        }
        assert!(parse_args(&args(&["analyze", "t", "--max-errors"])).is_err());
        assert!(parse_args(&args(&["analyze", "t", "--lossy", "--max-errors", "x"])).is_err());
        assert!(
            parse_args(&args(&["analyze", "t", "--max-errors", "3"])).is_err(),
            "--max-errors requires --lossy"
        );
    }

    /// Every (subcommand, flag) pair outside the table is a usage error
    /// naming both; every pair inside it gets past the table.
    #[test]
    fn flags_outside_their_row_are_rejected() {
        let mut accepted = 0;
        for command in COMMANDS {
            for flag in FLAGS {
                let mut all = vec![*command, "t.jsonl", "u.jsonl", flag.name];
                if flag.value.is_some() {
                    all.push("1");
                }
                let result = parse_args(&args(&all));
                if flag.commands.contains(command) {
                    accepted += 1;
                    if let Err(e) = result {
                        assert!(!e.0.contains("does not take"), "{all:?}: {e}");
                    }
                } else {
                    let err = result.expect_err(&format!("{all:?} must be rejected"));
                    assert_eq!(err.0, format!("`{command}` does not take {}", flag.name));
                }
            }
        }
        assert_eq!(accepted, 49);
        let err = parse_args(&args(&["untested", "t", "--format=iotb"])).unwrap_err();
        assert_eq!(err.0, "`untested` does not take --format");
    }

    /// Each subcommand's synopsis in `USAGE` lists exactly the flags its
    /// table row gives it.
    #[test]
    fn usage_synopsis_matches_the_flag_table() {
        let synopsis = USAGE
            .split_once("USAGE:\n")
            .and_then(|(_, rest)| rest.split_once("\n\n"))
            .map(|(synopsis, _)| synopsis)
            .unwrap();
        let mut listed: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut current = "";
        for line in synopsis.lines() {
            if let Some(rest) = line.strip_prefix("  iocov ") {
                current = rest.split_whitespace().next().unwrap();
                listed.insert(current, Vec::new());
            }
            let words = line.split(|c: char| !(c.is_ascii_lowercase() || c == '-'));
            let flags = words.filter(|w| w.starts_with("--"));
            listed.get_mut(current).unwrap().extend(flags);
        }
        for command in COMMANDS.iter().filter(|c| **c != "help") {
            let mut want: Vec<&str> = FLAGS
                .iter()
                .filter(|f| f.commands.contains(command))
                .map(|f| f.name)
                .collect();
            let mut got = listed.remove(command).unwrap_or_default();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{command}");
        }
        assert!(
            listed.is_empty(),
            "USAGE lists unknown subcommands: {listed:?}"
        );
    }

    #[test]
    fn analyze_text_output() {
        let file = sample_trace_file();
        let cmd = parse_args(&args(&["analyze", &file.path, "--mount", "/mnt/test"])).unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("filtered out"));
        assert!(text.contains("open.flags"));
        assert!(text.contains("ENOENT"));
    }

    #[test]
    fn analyze_json_output_roundtrips() {
        let file = sample_trace_file();
        let cmd = parse_args(&args(&["analyze", &file.path, "--json"])).unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let report: iocov::AnalysisReport = serde_json::from_slice(&out).unwrap();
        assert!(report.total_calls() > 0);
    }

    #[test]
    fn analyze_with_jobs_one_matches_the_default_byte_for_byte() {
        // `--jobs 1` is accepted and changes neither the report nor the
        // metrics document.
        let file = sample_trace_file();
        let run_with = |extra: &[&str]| {
            let base = ["analyze", &file.path, "--mount", "/mnt/test", "--json"];
            let mut out = Vec::new();
            run(
                &parse_args(&args(&[&base[..], extra].concat())).unwrap(),
                &mut out,
            )
            .unwrap();
            out
        };
        assert_eq!(run_with(&[]), run_with(&["--jobs", "1"]));
        assert_eq!(
            run_with(&["--metrics"]),
            run_with(&["--metrics", "--jobs", "1"])
        );
    }

    /// Path of the checked-in corrupt-trace fixture (BOM, CRLF lines,
    /// malformed JSON, invalid UTF-8, blank lines, truncated tail).
    fn corrupt_fixture() -> String {
        format!(
            "{}/../../fixtures/corrupt_trace.jsonl",
            env!("CARGO_MANIFEST_DIR")
        )
    }

    #[test]
    fn strict_analyze_rejects_corrupt_fixture() {
        let cmd = parse_args(&args(&["analyze", &corrupt_fixture()])).unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        assert!(err.to_string().contains("cannot parse"), "{err}");
    }

    /// The checked-in non-canonical trace (spaces, reordered keys, an
    /// escaped path, leading zeros) decodes through the serde fallback
    /// and must render, byte for byte, the report committed beside it.
    #[test]
    fn noncanonical_fixture_renders_committed_report() {
        let dir = format!("{}/../../fixtures", env!("CARGO_MANIFEST_DIR"));
        let trace = format!("{dir}/noncanonical_trace.jsonl");
        let cmd = parse_args(&args(&[
            "analyze",
            &trace,
            "--json",
            "--mount",
            "/mnt/test",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let expected = std::fs::read(format!("{dir}/noncanonical_report.json")).unwrap();
        assert!(out == expected, "{}", String::from_utf8_lossy(&out));
    }

    #[test]
    fn lossy_analyze_recovers_corrupt_fixture() {
        let fixture = corrupt_fixture();
        let cmd = parse_args(&args(&[
            "analyze",
            &fixture,
            "--mount",
            "/mnt/test",
            "--lossy",
            "--metrics",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("lossy ingest: 3 malformed lines skipped"),
            "{text}"
        );
        for class in ["malformed-json", "invalid-utf8", "truncated-tail"] {
            assert!(text.contains(class), "missing {class} in:\n{text}");
        }
        // All four intact events analyzed, none filtered.
        assert!(
            text.contains("4 events, 4 analyzed, 0 filtered out"),
            "{text}"
        );
        assert!(text.contains("=== pipeline metrics ==="), "{text}");
        assert!(text.contains("\"parse_skipped\": 3"), "{text}");
    }

    #[test]
    fn lossy_json_metrics_document_wraps_report_and_counters() {
        let fixture = corrupt_fixture();
        let cmd = parse_args(&args(&[
            "analyze",
            &fixture,
            "--mount",
            "/mnt/test",
            "--lossy",
            "--metrics",
            "--json",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        #[derive(serde::Deserialize)]
        struct Doc {
            report: iocov::AnalysisReport,
            metrics: iocov::MetricsSnapshot,
        }
        let doc: Doc = serde_json::from_slice(&out).unwrap();
        assert_eq!(doc.report.filter_stats.total, 4);
        assert_eq!(doc.metrics.parse_skipped, 3);
        assert_eq!(doc.metrics.events_read, 4);
    }

    #[test]
    fn parse_convert_command() {
        assert_eq!(
            parse_args(&args(&["convert", "in.jsonl", "out.iotb"])).unwrap(),
            Command::Convert {
                input: "in.jsonl".into(),
                output: "out.iotb".into(),
                format: TraceFormat::Auto,
                to: None,
                index: false,
                lossy: false,
                max_errors: None,
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "convert", "in.iotb", "out", "--to", "jsonl", "--lossy"
            ]))
            .unwrap(),
            Command::Convert {
                input: "in.iotb".into(),
                output: "out".into(),
                format: TraceFormat::Auto,
                to: Some(TraceFormat::Jsonl),
                index: false,
                lossy: true,
                max_errors: None,
            }
        );
        match parse_args(&args(&["convert", "in.jsonl", "out.iotb", "--index"])).unwrap() {
            Command::Convert { index, .. } => assert!(index),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["convert", "only-input"])).is_err());
        assert!(parse_args(&args(&["convert", "a", "b", "--to", "auto"])).is_err());
        let err = parse_args(&args(&["convert", "a", "b", "--to", "xml"])).unwrap_err();
        assert_eq!(err.0, "bad --to value `xml` (expected jsonl or iotb)");
        assert!(parse_args(&args(&["analyze", "t", "--format", "nope"])).is_err());
        // --format=value spelling parses too.
        match parse_args(&args(&["analyze", "t", "--format=iotb"])).unwrap() {
            Command::Analyze { format, .. } => assert_eq!(format, TraceFormat::Iotb),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Converts `path` to `.iotb` in a temp file and returns the new
    /// path (caller removes it).
    fn convert_to_iotb(path: &str, tag: &str, lossy: bool) -> String {
        let out_path = std::env::temp_dir()
            .join(format!("iocov-cli-test-{}-{tag}.iotb", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let mut all = vec!["convert", path, &out_path];
        if lossy {
            all.push("--lossy");
        }
        let mut out = Vec::new();
        run(&parse_args(&args(&all)).unwrap(), &mut out).unwrap();
        out_path
    }

    #[test]
    fn iotb_analyze_is_byte_identical_to_jsonl() {
        // A converted binary trace must analyze to byte-identical report
        // JSON *and* byte-identical metrics counters.
        let file = sample_trace_file();
        let iotb = convert_to_iotb(&file.path, "identity", false);
        let run_path = |path: &str| {
            let cmd = parse_args(&args(&[
                "analyze",
                path,
                "--mount",
                "/mnt/test",
                "--json",
                "--metrics",
            ]))
            .unwrap();
            let mut out = Vec::new();
            run(&cmd, &mut out).unwrap();
            out
        };
        assert_eq!(run_path(&file.path), run_path(&iotb), "jsonl vs iotb");
        let _ = std::fs::remove_file(&iotb);
    }

    #[test]
    fn lossy_converted_corrupt_fixture_analyzes_to_same_report() {
        // Lossy-converting the corrupt fixture drops the 3 bad lines at
        // convert time, so the .iotb path sees a clean container: the
        // coverage *report* must match the lossy JSONL run exactly
        // (parse_skipped metrics legitimately differ, so compare the
        // report document only).
        let fixture = corrupt_fixture();
        let iotb = convert_to_iotb(&fixture, "corrupt", true);
        let report_of = |path: &str, lossy: bool| -> String {
            let mut all = vec!["analyze", path, "--mount", "/mnt/test", "--json"];
            if lossy {
                all.push("--lossy");
            }
            let mut out = Vec::new();
            run(&parse_args(&args(&all)).unwrap(), &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        assert_eq!(report_of(&fixture, true), report_of(&iotb, false));
        let _ = std::fs::remove_file(&iotb);
    }

    #[test]
    fn explicit_jsonl_format_rejects_iotb_input() {
        let file = sample_trace_file();
        let iotb = convert_to_iotb(&file.path, "mismatch", false);
        let cmd = parse_args(&args(&["analyze", &iotb, "--format", "jsonl"])).unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        assert!(err.to_string().contains("cannot parse"), "{err}");
        let _ = std::fs::remove_file(&iotb);
    }

    #[test]
    fn convert_iotb_back_to_jsonl_roundtrips_bytes() {
        let file = sample_trace_file();
        let iotb = convert_to_iotb(&file.path, "roundtrip", false);
        let back = std::env::temp_dir()
            .join(format!("iocov-cli-test-{}-back.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let mut out = Vec::new();
        run(
            &parse_args(&args(&["convert", &iotb, &back])).unwrap(),
            &mut out,
        )
        .unwrap();
        assert_eq!(
            std::fs::read(&file.path).unwrap(),
            std::fs::read(&back).unwrap(),
            "jsonl → iotb → jsonl must reproduce the original bytes"
        );
        let _ = std::fs::remove_file(&iotb);
        let _ = std::fs::remove_file(&back);
    }

    #[test]
    fn convert_without_inferable_target_is_an_error() {
        let file = sample_trace_file();
        let cmd = parse_args(&args(&["convert", &file.path, "out.bin"])).unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        assert!(err.to_string().contains("--to"), "{err}");
    }

    /// Converts `path` to a block-indexed `.iotb` v2 container and
    /// returns the new path (caller removes it).
    fn convert_to_indexed_iotb(path: &str, tag: &str) -> String {
        let out_path = std::env::temp_dir()
            .join(format!(
                "iocov-cli-test-{}-{tag}-v2.iotb",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned();
        let mut out = Vec::new();
        run(
            &parse_args(&args(&["convert", path, &out_path, "--index"])).unwrap(),
            &mut out,
        )
        .unwrap();
        out_path
    }

    #[test]
    fn indexed_convert_writes_v2_and_analyzes_byte_identical() {
        // `convert --index` emits a v2 file (footer magic present), and
        // analyzing it renders byte-identical output to the JSONL
        // original and the v1 container.
        let file = sample_trace_file();
        let v1 = convert_to_iotb(&file.path, "v2-identity", false);
        let v2 = convert_to_indexed_iotb(&file.path, "v2-identity");
        let bytes = std::fs::read(&v2).unwrap();
        assert!(
            bytes.ends_with(&iocov_trace::IOTB_INDEX_FOOTER_MAGIC),
            "indexed container must end with the index footer magic"
        );
        let run_path = |path: &str| {
            run_bytes(&[
                "analyze",
                path,
                "--mount",
                "/mnt/test",
                "--json",
                "--metrics",
            ])
        };
        let baseline = run_path(&file.path);
        assert_eq!(baseline, run_path(&v1), "v1 diverged");
        assert_eq!(baseline, run_path(&v2), "v2 diverged");
        let _ = std::fs::remove_file(&v1);
        let _ = std::fs::remove_file(&v2);
    }

    #[test]
    fn indexed_convert_to_jsonl_is_rejected() {
        let file = sample_trace_file();
        let cmd = parse_args(&args(&["convert", &file.path, "out.jsonl", "--index"])).unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        assert!(err.to_string().contains("--index requires"), "{err}");
    }

    #[test]
    fn kill_and_resume_over_indexed_iotb_is_byte_identical() {
        // Checkpoint/resume over the v2 container matches an
        // uninterrupted run.
        let file = sample_trace_file();
        let v2 = convert_to_indexed_iotb(&file.path, "kill-resume");
        let ckpt = ckpt_path("v2-kill-resume");
        let uninterrupted = run_bytes(&["analyze", &v2, "--mount", "/mnt/test", "--json"]);
        let killed = run_bytes(&[
            "analyze",
            &v2,
            "--mount",
            "/mnt/test",
            "--json",
            "--checkpoint-every",
            "2",
            "--checkpoint-file",
            &ckpt,
            "--stop-after-events",
            "3",
        ]);
        let text = String::from_utf8(killed).unwrap();
        assert!(text.contains("stopped after 3 events"), "{text}");
        let resumed = run_bytes(&[
            "analyze",
            &v2,
            "--mount",
            "/mnt/test",
            "--json",
            "--checkpoint-every",
            "2",
            "--checkpoint-file",
            &ckpt,
            "--resume",
            &ckpt,
        ]);
        assert_eq!(resumed, uninterrupted);
        let _ = std::fs::remove_file(&v2);
    }

    #[cfg(unix)]
    #[test]
    fn resume_from_pipe_is_a_structured_cli_error() {
        // Resuming re-reads earlier trace bytes, which a FIFO cannot
        // replay: the CLI must explain that, not surface a raw seek
        // (or hang opening the pipe).
        let file = sample_trace_file();
        let ckpt = ckpt_path("fifo-resume");
        run_bytes(&[
            "analyze",
            &file.path,
            "--checkpoint-every",
            "2",
            "--checkpoint-file",
            &ckpt,
            "--stop-after-events",
            "3",
        ]);
        let fifo = std::env::temp_dir()
            .join(format!("iocov-cli-test-{}-resume.fifo", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&fifo);
        let status = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .expect("mkfifo");
        assert!(status.success());
        let cmd = parse_args(&args(&["analyze", &fifo, "--resume", &ckpt])).unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        let _ = std::fs::remove_file(&fifo);
        let msg = err.to_string();
        assert!(msg.contains("cannot resume over"), "{msg}");
        assert!(msg.contains("pipe (FIFO)"), "{msg}");
        assert!(msg.contains("save the stream to a file"), "{msg}");
    }

    #[cfg(unix)]
    #[test]
    fn checkpoint_every_over_a_fifo_is_a_structured_cli_error() {
        // --checkpoint-every records a cursor that --resume must later
        // seek back to; an unseekable input makes every checkpoint
        // useless, so the config is refused up front, before the open
        // could block on a writerless FIFO.
        let fifo = std::env::temp_dir()
            .join(format!("iocov-cli-test-{}-ckpt.fifo", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&fifo);
        let status = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .expect("mkfifo");
        assert!(status.success());
        let cmd = parse_args(&args(&["analyze", &fifo, "--checkpoint-every", "2"])).unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        let _ = std::fs::remove_file(&fifo);
        let msg = err.to_string();
        assert!(msg.contains("cannot checkpoint"), "{msg}");
        assert!(msg.contains("pipe (FIFO)"), "{msg}");
        assert!(msg.contains("save the stream to a file"), "{msg}");
    }

    fn big_trace_file(n: usize) -> tempfile::TempTrace {
        use iocov_syscalls::Kernel;
        use iocov_trace::Recorder;
        let recorder = Arc::new(Recorder::new());
        let mut kernel = Kernel::new();
        kernel.attach_recorder(Arc::clone(&recorder));
        kernel.mkdir("/mnt", 0o755);
        kernel.mkdir("/mnt/test", 0o755);
        for i in 0..n {
            let fd = kernel.open(&format!("/mnt/test/f{i}"), 0o102, 0o644) as i32;
            kernel.close(fd);
        }
        tempfile::TempTrace::new(&recorder.take())
    }

    /// Starts an in-process `serve` that drains after one stream, in a
    /// fresh directory named by `tag`: `(dir, socket, state dir, server)`.
    #[cfg(unix)]
    fn start_serve(tag: &str) -> (PathBuf, String, String, std::thread::JoinHandle<String>) {
        let dir = std::env::temp_dir().join(format!("iocov-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("sock").to_string_lossy().into_owned();
        let state = dir.join("state").to_string_lossy().into_owned();
        let serve_cmd = parse_args(&args(&[
            "serve",
            "--socket",
            &socket,
            "--state-dir",
            &state,
            "--mount",
            "/mnt/test",
            "--checkpoint-every",
            "16",
            "--drain",
            "1",
        ]))
        .unwrap();
        let server = std::thread::spawn(move || {
            let mut out = Vec::new();
            run(&serve_cmd, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });
        while !Path::new(&socket).exists() {
            std::thread::sleep(Duration::from_millis(5));
        }
        (dir, socket, state, server)
    }

    /// Feeds `trace` to `socket` as stream `s1` in 512-byte frames,
    /// under the `drill` flags; returns what the feed printed.
    #[cfg(unix)]
    fn feed(trace: &str, socket: &str, drill: &[&str]) -> String {
        let mut all = vec![
            "feed",
            trace,
            "--socket",
            socket,
            "--stream",
            "s1",
            "--chunk-bytes",
            "512",
        ];
        all.extend_from_slice(drill);
        let mut out = Vec::new();
        run(&parse_args(&args(&all)).unwrap(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[cfg(unix)]
    #[test]
    fn serve_recovers_a_killed_stream_and_matches_batch_analyze() {
        let file = big_trace_file(100);
        let expected = run_bytes(&["analyze", &file.path, "--mount", "/mnt/test", "--json"]);
        let (dir, socket, state, server) = start_serve("serve");
        // Kill the feeder mid-stream: drop the connection without a
        // done frame once ~8 KiB (dozens of events) went out.
        let text = feed(&file.path, &socket, &["--abort-after-bytes", "8000"]);
        assert!(text.contains("no done frame"), "{text}");
        // Reconnect: the server answers with the stream's checkpoint
        // and the feed resumes mid-file.
        let text = feed(&file.path, &socket, &[]);
        assert!(text.contains("resumed at byte"), "{text}");
        let serve_text = server.join().unwrap();
        assert!(serve_text.contains("1 restart"), "{serve_text}");
        let snapshot = std::fs::read(Path::new(&state).join("snapshot.json")).unwrap();
        assert_eq!(
            snapshot, expected,
            "merged snapshot must be byte-identical to analyze --json"
        );
        let status = std::fs::read_to_string(Path::new(&state).join("status.json")).unwrap();
        assert!(status.contains("\"restarts\": 1"), "{status}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn feed_stall_drill_delays_the_stream_and_it_still_finishes() {
        // A feeder frozen before its second frame is slow, not failed:
        // the stream ends done and merges like a batch analyze.
        let stall = Duration::from_millis(300);
        let file = big_trace_file(100);
        let expected = run_bytes(&["analyze", &file.path, "--mount", "/mnt/test", "--json"]);
        let (dir, socket, state, server) = start_serve("feed-stall");
        let started = std::time::Instant::now();
        let drill = format!("1:{}", stall.as_millis());
        let text = feed(&file.path, &socket, &["--stall-before-frame", &drill]);
        let took = started.elapsed();
        assert!(took >= stall, "the feed took {took:?}, less than the stall");
        assert!(!text.contains("no done frame"), "{text}");
        server.join().unwrap();
        let status = std::fs::read_to_string(Path::new(&state).join("status.json")).unwrap();
        assert!(status.contains("\"state\": \"done\""), "{status}");
        let snapshot = std::fs::read(Path::new(&state).join("snapshot.json")).unwrap();
        assert_eq!(
            snapshot, expected,
            "merged snapshot must be byte-identical to analyze --json"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_serve_and_feed() {
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "--socket",
                "/tmp/s.sock",
                "--state-dir",
                "/tmp/state",
                "--drain",
                "2"
            ]))
            .unwrap(),
            Command::Serve {
                socket: Some("/tmp/s.sock".into()),
                spool: None,
                state_dir: "/tmp/state".into(),
                mount: None,
                lossy: false,
                max_errors: None,
                checkpoint_every: None,
                max_stream_restarts: None,
                drain: Some(2),
            }
        );
        let err = parse_args(&args(&["serve", "--socket", "/tmp/s.sock"])).unwrap_err();
        assert!(err.to_string().contains("--state-dir"), "{err}");
        let err = parse_args(&args(&["serve", "--state-dir", "/tmp/state"])).unwrap_err();
        assert!(err.to_string().contains("--socket"), "{err}");
        let err = parse_args(&args(&["feed", "t.jsonl", "--socket", "/tmp/s.sock"])).unwrap_err();
        assert!(err.to_string().contains("--stream"), "{err}");
        assert_eq!(
            parse_args(&args(&[
                "feed",
                "t.jsonl",
                "--socket",
                "/tmp/s.sock",
                "--stream",
                "a",
                "--stall-before-frame",
                "3:40"
            ]))
            .unwrap(),
            Command::Feed {
                socket: "/tmp/s.sock".into(),
                stream: "a".into(),
                trace: "t.jsonl".into(),
                format: TraceFormat::Auto,
                chunk_bytes: 64 * 1024,
                abort_after_bytes: None,
                stall_before_frame: Some((3, 40)),
            }
        );
    }

    #[test]
    fn feed_chunk_bytes_is_capped_at_the_frame_limit() {
        let feed = |chunk: &str| {
            parse_args(&args(&[
                "feed",
                "t.jsonl",
                "--socket",
                "s",
                "--stream",
                "a",
                "--chunk-bytes",
                chunk,
            ]))
        };
        for too_big in [u64::MAX, MAX_FRAME_LEN + 1] {
            let err = feed(&too_big.to_string()).unwrap_err();
            assert_eq!(err.0, format!("bad --chunk-bytes value `{too_big}`"));
        }
        match feed(&MAX_FRAME_LEN.to_string()).unwrap() {
            Command::Feed { chunk_bytes, .. } => assert_eq!(chunk_bytes as u64, MAX_FRAME_LEN),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn max_errors_aborts_lossy_analyze() {
        let fixture = corrupt_fixture();
        let cmd = parse_args(&args(&[
            "analyze",
            &fixture,
            "--lossy",
            "--max-errors",
            "1",
        ]))
        .unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        assert!(
            err.to_string().contains("too many malformed lines"),
            "{err}"
        );
    }

    #[test]
    fn untested_and_combos_and_tcd() {
        let file = sample_trace_file();
        for cmd_args in [
            vec!["untested", file.path.as_str()],
            vec!["combos", file.path.as_str()],
            vec!["tcd", file.path.as_str(), "--target", "100"],
        ] {
            let cmd = parse_args(&args(&cmd_args)).unwrap();
            let mut out = Vec::new();
            run(&cmd, &mut out).unwrap();
            assert!(!out.is_empty(), "{cmd_args:?}");
        }
    }

    #[test]
    fn convert_syz_produces_jsonl() {
        let log_path = std::env::temp_dir().join(format!("iocov-syz-{}.txt", std::process::id()));
        std::fs::write(
            &log_path,
            "r0 = open(&(0x7f0000000000)='/f\\x00', 0x42, 0x1a4) # 3\nclose(r0) # 0\n",
        )
        .unwrap();
        let cmd = parse_args(&args(&["convert-syz", log_path.to_str().unwrap()])).unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let trace = iocov_trace::read_jsonl(&out[..]).unwrap();
        assert_eq!(trace.len(), 2);
        let _ = std::fs::remove_file(&log_path);
    }

    /// Runs a parsed command and returns its output bytes.
    fn run_bytes(all: &[&str]) -> Vec<u8> {
        let mut out = Vec::new();
        run(&parse_args(&args(all)).unwrap(), &mut out).unwrap();
        out
    }

    /// A unique temp path for a checkpoint file. Dropping it removes
    /// the checkpoint and the `.prev` generation its rotation leaves,
    /// also when the test panics.
    struct CkptPath(String);

    impl std::ops::Deref for CkptPath {
        type Target = str;

        fn deref(&self) -> &str {
            &self.0
        }
    }

    impl Drop for CkptPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(format!("{}.prev", self.0));
        }
    }

    fn ckpt_path(tag: &str) -> CkptPath {
        CkptPath(
            std::env::temp_dir()
                .join(format!(
                    "iocov-cli-test-{}-{tag}.iockpt",
                    std::process::id()
                ))
                .to_string_lossy()
                .into_owned(),
        )
    }

    #[test]
    fn parse_robustness_flags() {
        match parse_args(&args(&[
            "analyze",
            "t.jsonl",
            "--checkpoint-every",
            "100",
            "--checkpoint-file",
            "c.iockpt",
            "--stop-after-events",
            "5",
            "--shard-timeout",
            "30",
            "--max-shard-restarts",
            "2",
            "--inject-panic",
            "2:3",
            "--inject-io",
            "42:7",
        ]))
        .unwrap()
        {
            Command::Analyze { robust, .. } => {
                assert_eq!(robust.checkpoint_every, Some(100));
                assert_eq!(robust.checkpoint_file.as_deref(), Some("c.iockpt"));
                assert_eq!(robust.stop_after, Some(5));
                assert_eq!(robust.shard_timeout, Some(30));
                assert_eq!(robust.max_shard_restarts, Some(2));
                assert_eq!(robust.inject_panic, Some(PanicSpec { tick: 2, times: 3 }));
                assert_eq!(
                    robust.inject_io,
                    Some(IoFaultSpec {
                        seed: 42,
                        hard_after: Some(7)
                    })
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Short spellings default TIMES to 1 and HARD_AFTER to none.
        match parse_args(&args(&[
            "analyze",
            "t.jsonl",
            "--inject-panic",
            "0",
            "--inject-io",
            "9",
        ]))
        .unwrap()
        {
            Command::Analyze { robust, .. } => {
                assert_eq!(robust.inject_panic.unwrap().times, 1);
                assert_eq!(robust.inject_io.unwrap().hard_after, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_robustness_errors() {
        let bad = [
            vec!["analyze", "t", "--checkpoint-file", "c"],
            vec!["analyze", "t", "--checkpoint-every", "0"],
            vec!["analyze", "t", "--inject-panic", "x"],
            vec!["analyze", "t", "--inject-panic", "1:0"],
            // The old SHARD:TICK:TIMES spelling has one field too many.
            vec!["analyze", "t", "--inject-panic", "0:1:1"],
            vec!["analyze", "t", "--inject-io", "x"],
            vec!["analyze", "t", "--inject-io", "1:2:3"],
            vec!["analyze", "t", "--shard-timeout", "0"],
        ];
        for cmd_args in bad {
            assert!(parse_args(&args(&cmd_args)).is_err(), "{cmd_args:?}");
        }
    }

    #[test]
    fn checkpointed_analyze_matches_batch_byte_for_byte() {
        let file = sample_trace_file();
        let ckpt = ckpt_path("match-batch");
        for extra in [&["--json"][..], &["--json", "--metrics"][..]] {
            let mut batch = vec!["analyze", &file.path, "--mount", "/mnt/test"];
            batch.extend_from_slice(extra);
            let mut chk = batch.clone();
            chk.extend_from_slice(&["--checkpoint-every", "2", "--checkpoint-file", &ckpt]);
            assert_eq!(run_bytes(&batch), run_bytes(&chk), "{extra:?}");
        }
    }

    #[test]
    fn kill_and_resume_is_byte_identical() {
        let file = sample_trace_file();
        let ckpt = ckpt_path("kill-resume");
        let uninterrupted = run_bytes(&[
            "analyze",
            &file.path,
            "--mount",
            "/mnt/test",
            "--json",
            "--metrics",
        ]);
        let killed = run_bytes(&[
            "analyze",
            &file.path,
            "--mount",
            "/mnt/test",
            "--json",
            "--metrics",
            "--checkpoint-every",
            "2",
            "--checkpoint-file",
            &ckpt,
            "--stop-after-events",
            "3",
        ]);
        let text = String::from_utf8(killed).unwrap();
        assert!(text.contains("stopped after 3 events"), "{text}");
        let resumed = run_bytes(&[
            "analyze",
            &file.path,
            "--mount",
            "/mnt/test",
            "--json",
            "--metrics",
            "--checkpoint-every",
            "2",
            "--checkpoint-file",
            &ckpt,
            "--resume",
            &ckpt,
        ]);
        assert_eq!(resumed, uninterrupted);
    }

    #[test]
    fn resume_with_different_mount_is_rejected() {
        let file = sample_trace_file();
        let ckpt = ckpt_path("mount-mismatch");
        run_bytes(&[
            "analyze",
            &file.path,
            "--mount",
            "/mnt/test",
            "--checkpoint-every",
            "2",
            "--checkpoint-file",
            &ckpt,
            "--stop-after-events",
            "3",
        ]);
        let cmd = parse_args(&args(&["analyze", &file.path, "--resume", &ckpt])).unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        assert!(err.to_string().contains("mount filter"), "{err}");
    }

    #[test]
    fn resume_accepts_an_equivalent_mount_spelling() {
        // `/mnt/test/` and `/mnt/test` are one filter, so a checkpoint
        // cut under one spelling resumes under the other.
        let trace = format!(
            "{}/../../fixtures/whole_trace.jsonl",
            env!("CARGO_MANIFEST_DIR")
        );
        let ckpt = ckpt_path("mount-spelling");
        let analyze = |mount: &str, extra: &[&str]| {
            let mut all = vec!["analyze", &trace, "--mount", mount, "--json", "--metrics"];
            all.extend_from_slice(extra);
            let mut out = Vec::new();
            run(&parse_args(&args(&all)).unwrap(), &mut out).map(|()| out)
        };
        let uninterrupted = analyze("/mnt/test", &[]).unwrap();
        let cut = ["--checkpoint-every", "5", "--checkpoint-file", &ckpt];
        let mut killed = cut.to_vec();
        killed.extend_from_slice(&["--stop-after-events", "20"]);
        let text = String::from_utf8(analyze("/mnt/test/", &killed).unwrap()).unwrap();
        assert!(text.contains("stopped after 20 events"), "{text}");
        let mut resume = cut.to_vec();
        resume.extend_from_slice(&["--resume", &ckpt]);
        let resumed = analyze("/mnt/test", &resume).unwrap();
        assert_eq!(
            String::from_utf8(resumed).unwrap(),
            String::from_utf8(uninterrupted).unwrap()
        );
        let err = analyze("/mnt/other", &["--resume", &ckpt]).unwrap_err();
        assert!(err.to_string().contains("mount filter"), "{err}");
    }

    #[test]
    fn kill_and_resume_over_iotb_is_byte_identical() {
        // Checkpoint/resume over the binary container — illegal before
        // the pipeline unification — matches an uninterrupted run.
        let file = sample_trace_file();
        let iotb = convert_to_iotb(&file.path, "iotb-ckpt", false);
        let ckpt = ckpt_path("iotb-kill-resume");
        let uninterrupted = run_bytes(&["analyze", &iotb, "--mount", "/mnt/test", "--json"]);
        let killed = run_bytes(&[
            "analyze",
            &iotb,
            "--mount",
            "/mnt/test",
            "--json",
            "--checkpoint-every",
            "2",
            "--checkpoint-file",
            &ckpt,
            "--stop-after-events",
            "3",
        ]);
        let text = String::from_utf8(killed).unwrap();
        assert!(text.contains("stopped after 3 events"), "{text}");
        let resumed = run_bytes(&[
            "analyze",
            &iotb,
            "--mount",
            "/mnt/test",
            "--json",
            "--checkpoint-every",
            "2",
            "--checkpoint-file",
            &ckpt,
            "--resume",
            &ckpt,
        ]);
        assert_eq!(resumed, uninterrupted);
        let _ = std::fs::remove_file(&iotb);
    }

    #[test]
    fn resume_against_wrong_container_format_is_rejected() {
        // A checkpoint cut over a JSONL trace indexes JSONL bytes;
        // resuming it against the .iotb conversion must be a structured
        // error, not a garbage read.
        let file = sample_trace_file();
        let iotb = convert_to_iotb(&file.path, "format-mismatch", false);
        let ckpt = ckpt_path("format-mismatch");
        run_bytes(&[
            "analyze",
            &file.path,
            "--mount",
            "/mnt/test",
            "--checkpoint-every",
            "2",
            "--checkpoint-file",
            &ckpt,
            "--stop-after-events",
            "3",
        ]);
        let cmd = parse_args(&args(&[
            "analyze",
            &iotb,
            "--mount",
            "/mnt/test",
            "--resume",
            &ckpt,
        ]))
        .unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("cannot resume"), "{text}");
        assert!(
            text.contains("resume position is for a jsonl trace but the file is iotb"),
            "{text}"
        );
        let _ = std::fs::remove_file(&iotb);
    }

    /// A JSONL trace of `batches` full `DEFAULT_CHUNK` batches plus a
    /// short one, over three pids, and its events.
    fn multi_batch_trace_file(
        batches: usize,
    ) -> (tempfile::TempTrace, Vec<iocov_trace::TraceEvent>) {
        use iocov_trace::{ArgValue, TraceEvent};
        let events: Vec<TraceEvent> = (0..batches * iocov::DEFAULT_CHUNK + 100)
            .map(|i| {
                let fd = 3 + (i % 5) as i32;
                let mut event = match i % 3 {
                    0 => TraceEvent::build(
                        "open",
                        2,
                        vec![
                            ArgValue::Path(format!("/mnt/test/f{}", i % 7)),
                            ArgValue::Flags(0o102),
                            ArgValue::Mode(0o644),
                        ],
                        i64::from(fd),
                    ),
                    1 => TraceEvent::build(
                        "write",
                        1,
                        vec![
                            ArgValue::Fd(fd),
                            ArgValue::Ptr(1),
                            ArgValue::UInt(1 << (i % 13)),
                        ],
                        1 << (i % 13),
                    ),
                    _ => TraceEvent::build("close", 3, vec![ArgValue::Fd(fd)], 0),
                };
                event.seq = i as u64;
                event.pid = 1 + (i / 3 % 3) as u32;
                event
            })
            .collect();
        let file = tempfile::TempTrace::new(&iocov_trace::Trace::from_events(events.clone()));
        (file, events)
    }

    /// `analyze --json` of `events`.
    fn analyze_events(events: Vec<iocov_trace::TraceEvent>) -> Vec<u8> {
        let file = tempfile::TempTrace::new(&iocov_trace::Trace::from_events(events));
        run_bytes(&["analyze", &file.path, "--mount", "/mnt/test", "--json"])
    }

    #[test]
    fn injected_panic_loses_the_events_since_the_restore_point() {
        // The shard panics on batch 1. With no checkpoint its restore
        // point is the start of the run, so it loses batches 0 and 1,
        // goes on with batch 2, and the report is exactly the analysis
        // of the events that survived.
        let (file, events) = multi_batch_trace_file(3);
        let lost = 2 * iocov::DEFAULT_CHUNK;
        let faulty = |extra: &str| {
            run_bytes(&[
                "analyze",
                &file.path,
                "--mount",
                "/mnt/test",
                "--inject-panic",
                "1",
                extra,
            ])
        };
        assert_eq!(analyze_events(events[lost..].to_vec()), faulty("--json"));
        let text = String::from_utf8(faulty("--metrics")).unwrap();
        assert!(
            text.contains(&format!(
                "warning: shard 0 restarted 1 time; its pids are missing from {lost} events"
            )),
            "{text}"
        );
        assert!(text.contains(&format!("\"lost_events\": {lost}")), "{text}");
        assert!(text.contains("\"gave_up\": false"), "{text}");
        let read = format!(
            "\n{} events read, {lost} lost to shard restarts; ",
            events.len()
        );
        assert!(text.contains(&read), "{text}");
    }

    #[test]
    fn exhausted_restarts_degrade_to_partial_report_not_abort() {
        // `0:99` panics the shard on every batch: batches 0–2 spend the
        // budget of 3 restarts and batch 3 gives it up. Every event is
        // lost, so the report is that of an empty trace.
        let (file, events) = multi_batch_trace_file(4);
        let faulty = |extra: &str| {
            run_bytes(&[
                "analyze",
                &file.path,
                "--mount",
                "/mnt/test",
                extra,
                "--inject-panic",
                "0:99",
            ])
        };
        assert_eq!(analyze_events(Vec::new()), faulty("--json"));
        let text = String::from_utf8(faulty("--metrics")).unwrap();
        assert!(text.contains("gave up after 3 restarts"), "{text}");
        // The summary counts what was read, not the empty report alone.
        let n = events.len();
        let summary = format!(
            "\n{n} events read, {n} lost to shard restarts; 0 scanned, 0 analyzed, 0 filtered out\n"
        );
        assert!(text.contains(&summary), "{text}");
        assert!(text.contains("\"gave_up\": true"), "{text}");
        assert!(text.contains("\"shard_restarts\": 3"), "{text}");
        let lost = format!("\"lost_events\": {}", events.len());
        assert!(text.contains(&lost), "{text}");
    }

    #[test]
    fn injected_transient_io_faults_recover_byte_identical() {
        let file = sample_trace_file();
        let clean = run_bytes(&["analyze", &file.path, "--mount", "/mnt/test", "--json"]);
        for seed in ["1", "42", "1234567"] {
            let faulty = run_bytes(&[
                "analyze",
                &file.path,
                "--mount",
                "/mnt/test",
                "--json",
                "--inject-io",
                seed,
            ]);
            assert_eq!(clean, faulty, "seed {seed}");
        }
    }

    #[test]
    fn injected_hard_io_fault_is_a_structured_error() {
        let file = sample_trace_file();
        let cmd = parse_args(&args(&["analyze", &file.path, "--inject-io", "7:0"])).unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        assert!(err.to_string().contains("cannot parse"), "{err}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let cmd = parse_args(&args(&["analyze", "/definitely/missing.jsonl"])).unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        assert!(err.to_string().contains("cannot open"));
    }

    #[test]
    fn help_prints_usage() {
        let mut out = Vec::new();
        run(&Command::Help, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("USAGE"));
    }
}

#[cfg(test)]
mod diff_tests {
    use super::*;
    use std::sync::Arc;

    fn trace_file(flags: u32, path_suffix: &str) -> String {
        use iocov_syscalls::Kernel;
        use iocov_trace::Recorder;
        let recorder = Arc::new(Recorder::new());
        let mut kernel = Kernel::new();
        kernel.attach_recorder(Arc::clone(&recorder));
        kernel.open(&format!("/f-{path_suffix}"), flags | 0o100, 0o644);
        let path = std::env::temp_dir().join(format!(
            "iocov-diff-test-{}-{path_suffix}.jsonl",
            std::process::id()
        ));
        let mut file = std::fs::File::create(&path).unwrap();
        iocov_trace::write_jsonl(&mut file, &recorder.take()).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn diff_command_reports_one_sided_coverage() {
        let a = trace_file(0o1, "a"); // O_WRONLY|O_CREAT
        let b = trace_file(0o2002, "b"); // O_RDWR|O_APPEND|O_CREAT
        let cmd = parse_args(&["diff".to_owned(), a.clone(), b.clone()]).unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("O_WRONLY"), "{text}");
        assert!(text.contains("O_APPEND"), "{text}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn diff_of_same_file_is_identical() {
        let a = trace_file(0, "same");
        let cmd = parse_args(&["diff".to_owned(), a.clone(), a.clone()]).unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("identical"));
        let _ = std::fs::remove_file(&a);
    }

    #[test]
    fn diff_requires_two_operands() {
        assert!(parse_args(&["diff".to_owned(), "one.jsonl".to_owned()]).is_err());
    }
}

#[cfg(test)]
mod generate_tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    /// Path of the checked-in seed coverage report (a bare
    /// `analyze --json` document over a small xfstests-ish trace).
    fn report_fixture() -> String {
        format!(
            "{}/../../fixtures/feedback_report.json",
            env!("CARGO_MANIFEST_DIR")
        )
    }

    #[test]
    fn parse_generate_command() {
        assert_eq!(
            parse_args(&args(&[
                "generate",
                "--feedback",
                "r.json",
                "--profile",
                "crashmonkey",
                "--target",
                "20",
                "--target-tcd",
                "0.5",
                "--max-rounds",
                "3",
                "--events-per-round",
                "150",
                "--seed",
                "9",
                "--log-out",
                "c.syz",
                "--json",
            ]))
            .unwrap(),
            Command::Generate {
                feedback: "r.json".into(),
                profile: "crashmonkey".into(),
                target: 20,
                target_tcd: 0.5,
                max_rounds: 3,
                events_per_round: 150,
                seed: 9,
                log_out: Some("c.syz".into()),
                json: true,
            }
        );
        // Defaults.
        assert_eq!(
            parse_args(&args(&["generate", "--feedback", "r.json"])).unwrap(),
            Command::Generate {
                feedback: "r.json".into(),
                profile: "xfstests".into(),
                target: 10,
                target_tcd: 0.0,
                max_rounds: 6,
                events_per_round: 300,
                seed: 0,
                log_out: None,
                json: false,
            }
        );
        assert!(
            parse_args(&args(&["generate"])).is_err(),
            "needs --feedback"
        );
        assert!(parse_args(&args(&["generate", "--feedback", "r", "--profile", "ltp"])).is_err());
        assert!(parse_args(&args(&["generate", "--feedback", "r", "--max-rounds", "0"])).is_err());
        assert!(parse_args(&args(&[
            "generate",
            "--feedback",
            "r",
            "--target-tcd",
            "-1"
        ]))
        .is_err());
        assert!(parse_args(&args(&["generate", "--feedback", "r", "--seed", "x"])).is_err());
    }

    #[test]
    fn generate_improves_tcd_and_reports_rounds() {
        let fixture = report_fixture();
        let cmd = parse_args(&args(&[
            "generate",
            "--feedback",
            &fixture,
            "--max-rounds",
            "2",
            "--events-per-round",
            "150",
            "--seed",
            "42",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("round 0: tcd"), "{text}");
        assert!(text.contains("round 1: tcd"), "{text}");
        assert!(text.contains("campaign: tcd"), "{text}");
        // Every round's `tcd A -> B` improves: B < A.
        for line in text.lines().filter(|l| l.starts_with("round")) {
            let words: Vec<&str> = line.split_whitespace().collect();
            let before: f64 = words[3].parse().unwrap();
            let after: f64 = words[5].parse().unwrap();
            assert!(after < before, "TCD did not improve: {line}");
        }
        // TCD strictly improves over the seed report's baseline.
        let initial = load_report(&fixture).unwrap();
        let baseline = iocov::campaign_tcd(&initial, 10);
        let final_tcd: f64 = text
            .lines()
            .find(|l| l.starts_with("campaign: tcd"))
            .and_then(|l| l.split("-> ").nth(1))
            .and_then(|s| s.split_whitespace().next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(final_tcd < baseline, "{final_tcd} !< {baseline}");
    }

    /// Mirror of the `generate --json` document, for deserializing in
    /// tests (the vendored serde derive wants every field present).
    #[derive(serde::Deserialize)]
    struct GenDocIn {
        profile: String,
        seed: u64,
        target: u64,
        final_tcd: f64,
        converged: bool,
        total_events: u64,
        rounds: Vec<RoundDocIn>,
        report: iocov::AnalysisReport,
    }

    #[derive(serde::Deserialize)]
    struct RoundDocIn {
        round: usize,
        events: u64,
        tcd_before: f64,
        tcd_after: f64,
        cold_inputs: usize,
        cold_errnos: usize,
        cold_outputs: usize,
        probes_staged: usize,
        probes_hit: usize,
    }

    #[test]
    fn generate_json_document_feeds_back_as_a_report() {
        let fixture = report_fixture();
        let run_json = |feedback: &str| -> Vec<u8> {
            let cmd = parse_args(&args(&[
                "generate",
                "--feedback",
                feedback,
                "--max-rounds",
                "1",
                "--events-per-round",
                "120",
                "--seed",
                "7",
                "--json",
            ]))
            .unwrap();
            let mut out = Vec::new();
            run(&cmd, &mut out).unwrap();
            out
        };
        let first = run_json(&fixture);
        let doc: GenDocIn = serde_json::from_slice(&first).unwrap();
        assert_eq!(doc.profile, "xfstests");
        assert_eq!(doc.seed, 7);
        assert_eq!(doc.target, 10);
        assert!(!doc.converged);
        assert_eq!(doc.rounds.len(), 1);
        let round = &doc.rounds[0];
        assert_eq!(round.round, 0);
        assert!(round.events > 0);
        assert!(round.cold_inputs > 0 && round.cold_errnos > 0);
        assert!(round.cold_outputs > 0);
        assert!(round.probes_hit <= round.probes_staged);
        assert_eq!(doc.total_events, doc.rounds.iter().map(|r| r.events).sum());
        assert!(round.tcd_after < round.tcd_before);
        assert!(doc.report.total_calls() > 0);
        // The emitted document is itself valid --feedback input: the
        // next campaign resumes exactly where this one left off.
        let next = std::env::temp_dir()
            .join(format!("iocov-gen-test-{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::write(&next, &first).unwrap();
        let second = run_json(&next);
        let doc2: GenDocIn = serde_json::from_slice(&second).unwrap();
        let before2 = doc2.rounds[0].tcd_before;
        assert!(
            (doc.final_tcd - before2).abs() < 1e-12,
            "{} vs {before2}",
            doc.final_tcd
        );
        let _ = std::fs::remove_file(&next);
    }

    #[test]
    fn generate_is_reproducible_and_log_converts() {
        let fixture = report_fixture();
        let run_with_log = |tag: &str, seed: &str| -> (Vec<u8>, String) {
            let log = std::env::temp_dir()
                .join(format!("iocov-gen-test-{}-{tag}.syz", std::process::id()))
                .to_string_lossy()
                .into_owned();
            let cmd = parse_args(&args(&[
                "generate",
                "--feedback",
                &fixture,
                "--max-rounds",
                "2",
                "--events-per-round",
                "120",
                "--seed",
                seed,
                "--log-out",
                &log,
            ]))
            .unwrap();
            let mut out = Vec::new();
            run(&cmd, &mut out).unwrap();
            (out, log)
        };
        let (out_a, log_a) = run_with_log("a", "5");
        let (out_b, log_b) = run_with_log("b", "5");
        assert_eq!(out_a, out_b);
        assert_eq!(
            std::fs::read(&log_a).unwrap(),
            std::fs::read(&log_b).unwrap(),
            "same seed must produce a byte-identical campaign log"
        );
        let (_, log_c) = run_with_log("c", "6");
        assert_ne!(
            std::fs::read(&log_a).unwrap(),
            std::fs::read(&log_c).unwrap()
        );
        // The saved log round-trips through convert-syz.
        let cmd = parse_args(&args(&["convert-syz", &log_a])).unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let trace = iocov_trace::read_jsonl(out.as_slice()).unwrap();
        assert!(trace.len() > 100);
        for path in [&log_a, &log_b, &log_c] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn generate_with_missing_report_is_an_error() {
        let cmd = parse_args(&args(&["generate", "--feedback", "/no/such/report.json"])).unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
    }
}
