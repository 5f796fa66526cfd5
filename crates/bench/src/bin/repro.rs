//! Reproduces every table and figure of the IOCov paper's evaluation.
//!
//! ```text
//! repro [--scale X] [--seed N] [--full] [fig2 table1 fig3 fig4 fig5 untested bugstudy difftest fuzzer feedback dataset]
//! ```
//!
//! With no exhibit arguments, everything is generated. `--full` runs the
//! workload simulators at paper scale (≈14M syscalls; ~10 s on a 2-vCPU VM);
//! the default `--scale 0.05` keeps the shapes while finishing quickly.
//! Any other `--` option is refused. A `--full` run additionally writes
//! `metrics.json`: the analysis pipeline's
//! counters (events read, drops by reason, variant merges, partition
//! records) and per-stage wall-clock timings. It measures no reader or
//! pipeline throughput: perfbench (`perfbench/`) is the one throughput
//! harness.
//! Each exhibit ends with `shape-check` lines asserting the qualitative
//! claims the paper makes about it.

use std::collections::{BTreeMap, BTreeSet};

use iocov::tcd::{crossover, log_targets, tcd_uniform};
use iocov::{ArgName, BaseSyscall, InputPartition, NumericPartition};
use iocov_bench::{open_flag_frequencies, run_suites, SuiteReports};
use iocov_faults::{dataset, demo_bugs, StudyStats};

struct Options {
    scale: f64,
    seed: u64,
    full: bool,
    exhibits: BTreeSet<String>,
}

/// The `metrics.json` document a `--full` run writes: deterministic
/// pipeline counters plus (nondeterministic) per-stage wall-clock times.
#[derive(serde::Serialize)]
struct MetricsDoc {
    counters: iocov::MetricsSnapshot,
    stage_timings_ns: BTreeMap<String, u64>,
}

/// Every exhibit `repro` knows; a run that names none runs them all.
const EXHIBITS: [&str; 11] = [
    "fig2", "table1", "fig3", "fig4", "fig5", "untested", "bugstudy", "difftest", "fuzzer",
    "feedback", "dataset",
];

fn parse_args() -> Options {
    let mut scale = 0.05;
    let mut seed = 42;
    let mut full = false;
    let mut exhibits = BTreeSet::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a number");
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--full" => {
                scale = 1.0;
                full = true;
            }
            other if other.starts_with("--") => panic!("unknown option {other}"),
            other if !EXHIBITS.contains(&other) => panic!(
                "unknown exhibit {other}; known exhibits: {}",
                EXHIBITS.join(" ")
            ),
            other => {
                exhibits.insert(other.to_owned());
            }
        }
    }
    if exhibits.is_empty() {
        exhibits.extend(EXHIBITS.map(str::to_owned));
    }
    Options {
        scale,
        seed,
        full,
        exhibits,
    }
}

fn check(name: &str, ok: bool) {
    println!(
        "  shape-check {}: {}",
        name,
        if ok { "PASS" } else { "FAIL" }
    );
}

fn main() {
    let opts = parse_args();
    println!(
        "IOCov reproduction — scale {} seed {} (use --full for paper-scale volumes)\n",
        opts.scale, opts.seed
    );
    let needs_suites = ["fig2", "table1", "fig3", "fig4", "fig5", "untested"]
        .iter()
        .any(|e| opts.exhibits.contains(*e));
    let reports = needs_suites.then(|| {
        eprintln!("[running CrashMonkey and xfstests simulations …]");
        let start = std::time::Instant::now();
        let reports = run_suites(opts.seed, opts.scale);
        let elapsed = start.elapsed().as_secs_f64();
        let events = reports.crashmonkey.filter_stats.total + reports.xfstests.filter_stats.total;
        eprintln!(
            "[simulated + analyzed {events} events in {elapsed:.2} s — {:.0} events/s]",
            events as f64 / elapsed,
        );
        reports
    });
    // A --full run accounts for itself: the pipeline counters and stage
    // timings land in metrics.json next to the exhibits.
    if let Some(reports) = reports.as_ref().filter(|_| opts.full) {
        let doc = MetricsDoc {
            counters: reports.counters.clone(),
            stage_timings_ns: reports.stage_timings.clone(),
        };
        let json = serde_json::to_string_pretty(&doc).expect("metrics serialize");
        let path = "metrics.json";
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("[wrote pipeline metrics to {path}]"),
            Err(e) => eprintln!("[could not write {path}: {e}]"),
        }
    }
    if let Some(reports) = &reports {
        if opts.exhibits.contains("fig2") {
            fig2(reports);
        }
        if opts.exhibits.contains("table1") {
            table1(reports);
        }
        if opts.exhibits.contains("fig3") {
            fig3(reports);
        }
        if opts.exhibits.contains("fig4") {
            fig4(reports);
        }
        if opts.exhibits.contains("fig5") {
            fig5(reports);
        }
        if opts.exhibits.contains("untested") {
            untested(reports);
        }
    }
    if opts.exhibits.contains("bugstudy") {
        bugstudy();
    }
    if opts.exhibits.contains("difftest") {
        difftest();
    }
    if opts.exhibits.contains("fuzzer") {
        fuzzer(opts.seed, opts.scale);
    }
    if opts.exhibits.contains("feedback") {
        feedback(opts.seed, opts.scale);
    }
    if opts.exhibits.contains("dataset") {
        dataset_artifact();
    }
}

/// Writes the §2 bug-study dataset artifact ("we will make the bug study
/// dataset publicly available") and prints a sample.
fn dataset_artifact() {
    println!("== Section 2: bug-study dataset artifact ==");
    let records = dataset();
    let json = serde_json::to_string_pretty(&records).expect("dataset serializes");
    let path = "bug_study_dataset.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {} records to {path}", records.len()),
        Err(e) => println!("could not write {path}: {e}"),
    }
    println!(
        "{:<14} {:<7} {:<8} {:<9} {:<9} trigger",
        "id", "kind", "detected", "line-cov", "arg-trig"
    );
    for bug in records.iter().take(8) {
        println!(
            "{:<14} {:<7} {:<8} {:<9} {:<9} {}",
            bug.id,
            format!("{:?}", bug.kind),
            bug.detected,
            bug.line_covered,
            bug.arg_triggered,
            bug.trigger
        );
    }
    println!("… ({} records total)\n", records.len());
}

/// §6: evaluating a fuzzer through the Syzkaller-log adapter.
fn fuzzer(seed: u64, scale: f64) {
    println!("== Section 6: fuzzer evaluation via the Syzkaller-log adapter ==");
    use iocov::syzlang::parse_to_trace;
    use iocov::{InputPartition, NumericPartition};
    use iocov_workloads::{SyzFuzzerSim, TestEnv};
    let programs = ((600.0 * scale) as usize).max(40);
    let env = TestEnv::new();
    let log = SyzFuzzerSim::new(seed, programs, 14).run(&env);
    println!(
        "fuzzer emitted {} log lines over {programs} programs",
        log.lines().count()
    );
    let trace = parse_to_trace(&log).expect("fuzzer logs parse");
    let report = iocov::Iocov::new().analyze(&trace);
    let wc = report.input_coverage(ArgName::WriteCount);
    let buckets = (0..=32u32)
        .filter(|&k| wc.count(&InputPartition::Numeric(NumericPartition::Log2(k))) > 0)
        .count();
    println!(
        "write-size coverage: {buckets} log2 buckets, '=0' hit {} times",
        wc.count(&InputPartition::Numeric(NumericPartition::Zero))
    );
    let open_out = report.output_coverage(BaseSyscall::Open);
    let codes = iocov::output_errnos(BaseSyscall::Open)
        .iter()
        .filter(|e| open_out.errno_count(e) > 0)
        .count();
    println!("open output coverage: {codes} error codes");
    check(
        "fuzzer logs parse into the standard pipeline",
        report.total_calls() > 0,
    );
    check(
        "boundary-driven mutation exercises the '=0' write partition",
        wc.count(&InputPartition::Numeric(NumericPartition::Zero)) > 0,
    );
    check(
        "invalid categorical values are reached (bad whence)",
        report
            .input_coverage(ArgName::LseekWhence)
            .count(&InputPartition::Categorical(iocov::INVALID_CATEGORY.into()))
            > 0,
    );
    println!();
}

/// §7 (future work made concrete): the feedback campaign closes the
/// measure→generate loop and converges faster than blind generation.
fn feedback(seed: u64, scale: f64) {
    println!("== Feedback campaign: coverage-guided workload generation ==");
    use iocov::{campaign_tcd, AnalysisReport, Iocov};
    use iocov_workloads::{
        campaign_config, CampaignConfig, FeedbackCampaign, SyzFuzzerSim, TestEnv, MOUNT,
    };
    let rounds = ((6.0 * scale.max(0.05) * 10.0) as usize).clamp(3, 8);
    let config = CampaignConfig {
        seed,
        max_rounds: rounds,
        events_per_round: 300,
        target: 10,
        target_tcd: 0.0,
    };
    let env = TestEnv::new().with_config(campaign_config());
    let campaign = FeedbackCampaign::new(iocov_workloads::profile::xfstests_profile(), config);
    let outcome = campaign.run(&env, &AnalysisReport::default());
    println!(
        "{:<7} {:>10} {:>10} {:>8} {:>12} {:>12} {:>13} {:>9}",
        "round",
        "tcd before",
        "tcd after",
        "events",
        "cold inputs",
        "cold errnos",
        "cold buckets",
        "probes"
    );
    for r in &outcome.rounds {
        println!(
            "{:<7} {:>10.4} {:>10.4} {:>8} {:>12} {:>12} {:>13} {:>6}/{}",
            r.round,
            r.tcd_before,
            r.tcd_after,
            r.events,
            r.cold_inputs,
            r.cold_errnos,
            r.cold_outputs,
            r.probes_hit,
            r.probes_staged,
        );
    }
    // The baseline: an unguided fuzzer burning at least the same event
    // budget under identical VFS limits.
    let budget = outcome.total_events();
    let fenv = TestEnv::new().with_config(campaign_config());
    let programs = usize::try_from(budget / 5).unwrap_or(100).max(8);
    let _ = SyzFuzzerSim::new(seed, programs, 12).run(&fenv);
    let ftrace = fenv.take_trace();
    let freport = Iocov::with_mount_point(MOUNT).unwrap().analyze(&ftrace);
    let fuzzer_tcd = campaign_tcd(&freport, 10);
    println!(
        "campaign TCD {:.4} after {budget} events — unguided fuzzer TCD {fuzzer_tcd:.4} \
         after {} events (lower is better)",
        outcome.final_tcd,
        ftrace.len()
    );
    check(
        "TCD is monotone non-increasing across rounds",
        outcome
            .rounds
            .iter()
            .all(|r| r.tcd_after <= r.tcd_before + 1e-9),
    );
    check(
        "feedback beats unguided generation at equal event budget",
        ftrace.len() as u64 >= budget && outcome.final_tcd < fuzzer_tcd,
    );
    check(
        "staged errno probes overwhelmingly elicit their target errno",
        {
            let staged: usize = outcome.rounds.iter().map(|r| r.probes_staged).sum();
            let hit: usize = outcome.rounds.iter().map(|r| r.probes_hit).sum();
            staged > 0 && hit * 10 >= staged * 8
        },
    );
    println!();
}

/// Figure 2: input coverage of `open` flags for both suites.
fn fig2(reports: &SuiteReports) {
    println!("== Figure 2: input coverage of open flags ==");
    println!("{:<14} {:>14} {:>14}", "flag", "CrashMonkey", "xfstests");
    let cm = open_flag_frequencies(&reports.crashmonkey);
    let xfs = open_flag_frequencies(&reports.xfstests);
    let mut xfs_beats_cm = true;
    for ((flag, cm_count), (_, xfs_count)) in cm.iter().zip(&xfs) {
        println!("{flag:<14} {cm_count:>14} {xfs_count:>14}");
        if xfs_count < cm_count {
            xfs_beats_cm = false;
        }
    }
    let cm_rdonly = cm
        .iter()
        .find(|(f, _)| *f == "O_RDONLY")
        .map_or(0, |(_, c)| *c);
    let xfs_rdonly = xfs
        .iter()
        .find(|(f, _)| *f == "O_RDONLY")
        .map_or(0, |(_, c)| *c);
    println!("(paper anchors: O_RDONLY 7,924 CrashMonkey / 4,099,770 xfstests at full scale)");
    check("xfstests >= CrashMonkey on every flag", xfs_beats_cm);
    check(
        "O_RDONLY is the most-used flag for both suites",
        cm.iter().all(|(_, c)| *c <= cm_rdonly) && xfs.iter().all(|(_, c)| *c <= xfs_rdonly),
    );
    check(
        "some flags untested by both suites",
        cm.iter()
            .zip(&xfs)
            .any(|((_, c), (_, x))| *c == 0 && *x == 0),
    );
    println!();
}

/// Table 1: percentage of opens combining 1–6 flags.
fn table1(reports: &SuiteReports) {
    println!("== Table 1: open flag combination sizes (% of opens) ==");
    println!(
        "{:<28} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "suite / #flags", 1, 2, 3, 4, 5, 6
    );
    let rows = [
        ("CrashMonkey: all flags", &reports.crashmonkey, false),
        ("CrashMonkey: O_RDONLY", &reports.crashmonkey, true),
        ("xfstests: all flags", &reports.xfstests, false),
        ("xfstests: O_RDONLY", &reports.xfstests, true),
    ];
    for (label, report, restricted) in rows {
        let pct = report.open_combos.percentages(restricted);
        print!("{label:<28}");
        for size in 1..=6 {
            let value = pct
                .iter()
                .find(|(s, _)| *s == size)
                .map_or(0.0, |(_, p)| *p);
            print!(" {value:>6.1}");
        }
        println!();
    }
    let modal = |r: &iocov::AnalysisReport| {
        r.open_combos
            .percentages(false)
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(0, |(s, _)| s)
    };
    let second = |r: &iocov::AnalysisReport| {
        let mut pct = r.open_combos.percentages(false);
        pct.sort_by(|a, b| b.1.total_cmp(&a.1));
        pct.get(1).map_or(0, |(s, _)| *s)
    };
    check(
        "modal combination size is 4 for both suites",
        modal(&reports.crashmonkey) == 4 && modal(&reports.xfstests) == 4,
    );
    check(
        "second-most frequent: 3 flags for CrashMonkey, 2 for xfstests",
        second(&reports.crashmonkey) == 3 && second(&reports.xfstests) == 2,
    );
    check(
        "no more than 6 flags ever combined",
        reports.crashmonkey.open_combos.max_size() <= 6
            && reports.xfstests.open_combos.max_size() <= 6,
    );
    println!("(paper: CM 9.3/2.8/22.1/65.4/0.5/0 — xfstests 6.1/28.2/18.2/46.8/0.5/0.4)\n");
}

/// Figure 3: input coverage of write sizes.
fn fig3(reports: &SuiteReports) {
    println!("== Figure 3: input coverage of write size (bytes) ==");
    println!("{:<10} {:>14} {:>14}", "bucket", "CrashMonkey", "xfstests");
    let cm = reports.crashmonkey.input_coverage(ArgName::WriteCount);
    let xfs = reports.xfstests.input_coverage(ArgName::WriteCount);
    let mut xfs_beats_cm = true;
    let mut beyond_28 = false;
    let zero = InputPartition::Numeric(NumericPartition::Zero);
    println!(
        "{:<10} {:>14} {:>14}",
        "=0",
        cm.count(&zero),
        xfs.count(&zero)
    );
    for k in 0..=32u32 {
        let p = InputPartition::Numeric(NumericPartition::Log2(k));
        let (c, x) = (cm.count(&p), xfs.count(&p));
        println!("{:<10} {:>14} {:>14}", format!("2^{k}"), c, x);
        if x < c {
            xfs_beats_cm = false;
        }
        if k > 28 && (c > 0 || x > 0) {
            beyond_28 = true;
        }
    }
    println!("(paper: max observed write is 258 MiB, in the 2^28 bucket)");
    check("xfstests >= CrashMonkey in every bucket", xfs_beats_cm);
    check("nothing above the 2^28 bucket", !beyond_28);
    check(
        "xfstests exercises the '=0' boundary, CrashMonkey does not",
        xfs.count(&zero) > 0 && cm.count(&zero) == 0,
    );
    println!();
}

/// Figure 4: output coverage of `open`.
fn fig4(reports: &SuiteReports) {
    println!("== Figure 4: output coverage of open ==");
    println!("{:<16} {:>12} {:>12}", "output", "CrashMonkey", "xfstests");
    let cm = reports.crashmonkey.output_coverage(BaseSyscall::Open);
    let xfs = reports.xfstests.output_coverage(BaseSyscall::Open);
    println!(
        "{:<16} {:>12} {:>12}",
        "OK",
        cm.successes(),
        xfs.successes()
    );
    let mut cm_covered = 0usize;
    let mut xfs_covered = 0usize;
    let mut untested_by_both = 0usize;
    for errno in iocov::output_errnos(BaseSyscall::Open) {
        let (c, x) = (cm.errno_count(errno), xfs.errno_count(errno));
        println!("{errno:<16} {c:>12} {x:>12}");
        cm_covered += usize::from(c > 0);
        xfs_covered += usize::from(x > 0);
        untested_by_both += usize::from(c == 0 && x == 0);
    }
    check(
        "xfstests covers more error codes than CrashMonkey",
        xfs_covered > cm_covered,
    );
    check(
        "ENOTDIR is the one errno CrashMonkey beats xfstests on",
        cm.errno_count("ENOTDIR") > xfs.errno_count("ENOTDIR"),
    );
    check(
        "many error codes remain untested by both",
        untested_by_both >= 3,
    );
    println!();
}

/// Figure 5: TCD of open flags against uniform targets.
fn fig5(reports: &SuiteReports) {
    println!("== Figure 5: Test Coverage Deviation (open flags) ==");
    let cm: Vec<u64> = open_flag_frequencies(&reports.crashmonkey)
        .iter()
        .map(|(_, c)| *c)
        .collect();
    let xfs: Vec<u64> = open_flag_frequencies(&reports.xfstests)
        .iter()
        .map(|(_, c)| *c)
        .collect();
    println!("{:<12} {:>12} {:>12}", "target", "CM TCD", "xfs TCD");
    for target in log_targets(7, 1) {
        println!(
            "{:<12} {:>12.3} {:>12.3}",
            target,
            tcd_uniform(&cm, target),
            tcd_uniform(&xfs, target)
        );
    }
    match crossover(&cm, &xfs, 1, 10_000_000) {
        Some(t) => {
            println!("crossover: CrashMonkey better below target ≈ {t}, xfstests above");
            println!("(paper: crossover at target ≈ 5,237 at full scale)");
            check("a crossover exists", true);
            check(
                "CrashMonkey has lower TCD at small targets",
                tcd_uniform(&cm, 1) < tcd_uniform(&xfs, 1),
            );
            check(
                "xfstests has lower TCD at large targets",
                tcd_uniform(&cm, 10_000_000) > tcd_uniform(&xfs, 10_000_000),
            );
        }
        None => check("a crossover exists", false),
    }
    println!();
}

/// The paper's headline application: untested inputs and outputs.
fn untested(reports: &SuiteReports) {
    println!("== Untested cases identified by IOCov ==");
    for (name, report) in [
        ("CrashMonkey", &reports.crashmonkey),
        ("xfstests", &reports.xfstests),
    ] {
        println!("--- {name} ---");
        print!("{}", iocov::report::untested_summary(report));
    }
    println!();
}

/// §2: the bug study, plus the live covered-but-missed demonstration.
fn bugstudy() {
    println!("== Section 2: real-world bug study ==");
    let stats = StudyStats::compute(&dataset());
    println!("{stats}");
    check(
        "53% covered-but-missed (37/70)",
        stats.line_covered_missed == 37,
    );
    check(
        "61% function-covered-but-missed (43/70)",
        stats.func_covered_missed == 43,
    );
    check(
        "29% branch-covered-but-missed (20/70)",
        stats.branch_covered_missed == 20,
    );
    check("71% input bugs (50/70)", stats.input_bugs == 50);
    check("59% output bugs (41/70)", stats.output_bugs == 41);
    check("81% input-or-output (57/70)", stats.input_or_output == 57);
    check(
        "65% of covered-missed are argument-triggered (24/37)",
        stats.covered_missed_arg_triggered == 24,
    );

    // Live demonstration: a suite covers the buggy function on every call
    // yet only the boundary input trips the injected bug.
    println!("\n-- live demo: covered code, input-triggered bug --");
    use iocov_codecov::{ProbeKind, Registry};
    use iocov_syscalls::Kernel;
    use std::sync::Arc;
    let registry = Arc::new(Registry::new());
    iocov_vfs::probes::declare_probes(&registry);
    let mut kernel = Kernel::new();
    kernel
        .vfs_mut()
        .set_coverage(iocov_codecov::CoverageHandle::enabled(Arc::clone(
            &registry,
        )));
    let bugs = demo_bugs().into_hook();
    kernel
        .vfs_mut()
        .set_fault_hook(Arc::clone(&bugs) as iocov_vfs::SharedHook);
    let fd = kernel.open("/f", 0o101, 0o644);
    assert!(fd >= 0, "create works");
    let fd = fd as i32;
    // "Typical" writes: cover the write path thoroughly, never trip the
    // bug.
    for len in [1u64, 512, 4096, 65536] {
        let ret = kernel.write_fill(fd, 0, len);
        assert_eq!(ret, len as i64, "typical writes succeed");
    }
    let write_hits = registry
        .count(ProbeKind::Function, "vfs::write")
        .unwrap_or(0);
    println!("vfs::write covered {write_hits} times; bug not triggered yet");
    // The boundary input: exactly 128 KiB — the injected output bug
    // corrupts the return value on the exit path.
    let ret = kernel.write_fill(fd, 0, 128 * 1024);
    println!("write of exactly 128 KiB returned {ret} (truth: 131072 bytes were written)");
    check("code was covered before the bug fired", write_hits >= 4);
    check(
        "boundary input produces a wrong output",
        ret == 128 * 1024 - 1,
    );
    println!();
}

/// §6: the coverage-guided differential tester finds injected bugs.
fn difftest() {
    println!("== Section 6: coverage-guided differential testing ==");
    use iocov_difftest::{mismatch_summary, DiffTester};
    let clean = DiffTester::new(7).rounds(4).ops_per_round(500).run();
    println!(
        "clean run: {} ops, {} mismatches, {} write-size buckets still untested",
        clean.ops_executed,
        clean.mismatches.len(),
        clean.untested_write_buckets
    );
    check(
        "clean VFS agrees with the specification",
        clean.mismatches.is_empty(),
    );

    // Bugs whose triggers lie inside the generator's op space: a
    // boundary-size output bug and an errno-corrupting truncate bug.
    use iocov_faults::{BugSet, BugTrigger, InjectedBug};
    use iocov_vfs::{Errno, FaultAction};
    let bugs = BugSet::new(vec![
        InjectedBug::new(
            "short-write-32k",
            "writes of >= 32 KiB report one byte fewer",
            BugTrigger::SizeAtLeast {
                op: "write",
                size: 32 * 1024,
            },
            FaultAction::OverrideReturn(32 * 1024 - 1),
        ),
        InjectedBug::new(
            "truncate-eio",
            "truncate past 8 KiB fails EIO",
            BugTrigger::SizeAtLeast {
                op: "truncate",
                size: 8192,
            },
            FaultAction::FailWith(Errno::EIO),
        ),
    ]);
    let buggy = DiffTester::new(7)
        .rounds(4)
        .ops_per_round(500)
        .with_vfs_hook(bugs.into_hook())
        .run();
    println!(
        "with injected bugs: {} mismatches {:?}",
        buggy.mismatches.len(),
        mismatch_summary(&buggy)
    );
    for m in buggy.mismatches.iter().take(3) {
        println!(
            "  e.g. {} → vfs {} vs model {}",
            m.op, m.vfs_ret, m.model_ret
        );
    }
    check(
        "differential testing finds the injected bugs",
        buggy.found_bugs(),
    );
    println!();
}
