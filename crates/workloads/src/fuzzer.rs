//! A Syzkaller-style fuzzer simulator.
//!
//! The paper's §6 plans to evaluate fuzzers with IOCov, noting that
//! "Syzkaller logs syscalls with declarative descriptions, which need to
//! be parsed by IOCov" rather than traced with LTTng. This simulator
//! plays the Syzkaller role: it generates random programs over the
//! file-system syscalls, executes them against the simulated kernel, and
//! emits the program **log** in Syzkaller syntax with executor-reported
//! results (`# ret` comments) — the input the `iocov::syzlang` adapter
//! consumes.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use iocov::splitmix64;

use crate::env::{TestEnv, MOUNT};
use crate::syzlog::Executor;

/// The fuzzer simulator.
#[derive(Debug, Clone)]
pub struct SyzFuzzerSim {
    seed: u64,
    programs: usize,
    calls_per_program: usize,
}

impl SyzFuzzerSim {
    /// A fuzzer generating `programs` programs of up to
    /// `calls_per_program` calls each.
    #[must_use]
    pub fn new(seed: u64, programs: usize, calls_per_program: usize) -> Self {
        SyzFuzzerSim {
            seed,
            programs,
            calls_per_program,
        }
    }

    /// Runs the fuzzing session against a kernel from `env` and returns
    /// the Syzkaller-style execution log.
    #[must_use]
    pub fn run(&self, env: &TestEnv) -> String {
        let mut kernel = env.fresh_kernel();
        let mut log = String::new();
        for p in 0..self.programs {
            let mut rng = StdRng::seed_from_u64(splitmix64(self.seed, p as u64));
            let _ = writeln!(log, "# program {p}");
            self.run_program(&mut Executor::new(&mut kernel, &mut log), &mut rng);
        }
        log
    }

    /// Generates and executes one program; each program restarts its
    /// variable numbering.
    fn run_program(&self, exec: &mut Executor<'_>, rng: &mut StdRng) {
        // Every program starts from a working descriptor, as syz corpus
        // programs typically do.
        let seed_path = format!("{MOUNT}/fuzz{}", rng.random_range(0..8u32));
        exec.open(&seed_path, 0o102, 0o644);
        // Between 3 and `calls_per_program` calls; a configured maximum
        // below 3 becomes the exact program length (floor of 1), and the
        // maximum is never exceeded.
        let max_calls = self.calls_per_program.max(1);
        let calls = rng.random_range(max_calls.min(3)..=max_calls);
        for _ in 0..calls {
            match rng.random_range(0..10u32) {
                0..=2 => {
                    // open / openat with fuzzed flags and mode.
                    let path = self.fuzz_path(rng);
                    let flags = self.fuzz_flags(rng);
                    let mode = rng.random_range(0..0o7777u32);
                    exec.open(&path, flags, mode);
                }
                3 | 4 => {
                    // write with a fuzzed (often boundary) size.
                    if let Some((var, fd)) = pick(rng, &exec.resources) {
                        let size = self.fuzz_size(rng);
                        exec.write(var, fd, size);
                    }
                }
                5 => {
                    if let Some((var, fd)) = pick(rng, &exec.resources) {
                        let size = self.fuzz_size(rng);
                        exec.read(var, fd, size);
                    }
                }
                6 => {
                    if let Some((var, fd)) = pick(rng, &exec.resources) {
                        let offset = rng.random_range(-16i64..1 << 20);
                        let whence = rng.random_range(0..6u32); // incl. invalid 5
                        exec.lseek(var, fd, offset, whence);
                    }
                }
                7 => {
                    let path = self.fuzz_path(rng);
                    let len = rng.random_range(-4i64..1 << 22);
                    exec.truncate(&path, len);
                }
                8 => {
                    let path = self.fuzz_path(rng);
                    let mode = rng.random_range(0..0o7777u32);
                    if rng.random_bool(0.5) {
                        exec.mkdir(&path, mode);
                    } else {
                        exec.chmod(&path, mode);
                    }
                }
                _ => {
                    if !exec.resources.is_empty() {
                        let idx = rng.random_range(0..exec.resources.len());
                        exec.close_at(idx);
                    }
                }
            }
        }
        // Programs close their leftover descriptors, oldest first (as
        // syz executors do between programs).
        for (var, fd) in std::mem::take(&mut exec.resources) {
            exec.close(var, fd);
        }
    }

    /// Paths mix valid mount-point targets with fuzz garbage.
    fn fuzz_path(&self, rng: &mut StdRng) -> String {
        match rng.random_range(0..6u32) {
            0 => format!("{MOUNT}/fuzz{}", rng.random_range(0..8u32)),
            1 => format!("{MOUNT}/dir{}/nested", rng.random_range(0..4u32)),
            2 => format!("{MOUNT}/fuzz{}/not-a-dir", rng.random_range(0..8u32)),
            3 => "./file0".to_owned(),
            4 => format!("{MOUNT}/{}", "x".repeat(rng.random_range(1..400usize))),
            _ => format!("{MOUNT}/missing-{}", rng.random_range(0..1000u32)),
        }
    }

    /// Flags are fuzzed bit-soup: real flag bits OR-ed with random noise
    /// sometimes, which is exactly how fuzzers reach odd combinations.
    fn fuzz_flags(&self, rng: &mut StdRng) -> u32 {
        let named = [
            0u32, 1, 2, 0o100, 0o200, 0o1000, 0o2000, 0o4000, 0o40000, 0o100000, 0o200000,
            0o400000, 0o1000000, 0o2000000, 0o4010000, 0o20200000,
        ];
        let mut flags = named[rng.random_range(0..named.len())];
        for _ in 0..rng.random_range(0..4u32) {
            flags |= named[rng.random_range(0..named.len())];
        }
        if rng.random_bool(0.05) {
            flags |= 1 << rng.random_range(3..26u32); // raw bit noise
        }
        flags
    }

    /// Sizes concentrate on power-of-two boundaries ±1 — fuzzer mutation
    /// heuristics love boundaries, which is why the paper expects
    /// fuzzers to score differently on input coverage.
    fn fuzz_size(&self, rng: &mut StdRng) -> u64 {
        let k = rng.random_range(0..24u32);
        let base = 1u64 << k;
        match rng.random_range(0..5u32) {
            0 => base - 1,
            1 => base,
            2 => base + 1,
            3 => 0, // the POSIX-legal boundary testing tends to skip
            _ => rng.random_range(0..=base),
        }
    }
}

fn pick(rng: &mut StdRng, resources: &[(usize, i32)]) -> Option<(usize, i32)> {
    if resources.is_empty() {
        None
    } else {
        Some(resources[rng.random_range(0..resources.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iocov::syzlang::parse_to_trace;
    use iocov::{ArgName, InputPartition, Iocov, NumericPartition};

    #[test]
    fn fuzzer_log_parses_cleanly() {
        let env = TestEnv::new();
        let log = SyzFuzzerSim::new(1, 20, 12).run(&env);
        let trace = parse_to_trace(&log).expect("every generated line parses");
        assert!(trace.len() > 50);
    }

    #[test]
    fn parsed_log_agrees_with_the_recorded_trace() {
        // The same session seen two ways: the in-process recorder (LTTng
        // path) and the parsed syz log (fuzzer path) must hold the same
        // calls and yield the same coverage. The second input is the
        // `repro fuzzer` exhibit's.
        for (seed, programs, calls) in [(2, 15, 10), (42, 600, 14)] {
            let env = TestEnv::new();
            let log = SyzFuzzerSim::new(seed, programs, calls).run(&env);
            let recorded = env.take_trace();
            let parsed = parse_to_trace(&log).unwrap();
            assert_eq!(
                parsed.len(),
                recorded.len(),
                "seed {seed}: one log line per call"
            );
            let iocov = Iocov::new();
            let from_recorder = iocov.analyze(&recorded);
            let from_log = iocov.analyze(&parsed);
            assert_eq!(from_recorder.input, from_log.input, "seed {seed}");
            assert_eq!(from_recorder.output, from_log.output, "seed {seed}");
            assert_eq!(
                from_recorder.calls_per_variant, from_log.calls_per_variant,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn fuzzer_reaches_boundary_partitions_suites_miss() {
        let env = TestEnv::new();
        let log = SyzFuzzerSim::new(3, 120, 14).run(&env);
        let report = Iocov::new().analyze(&parse_to_trace(&log).unwrap());
        let wc = report.input_coverage(ArgName::WriteCount);
        // Boundary-loving mutation hits the "=0" partition and a wide
        // bucket range.
        assert!(wc.count(&InputPartition::Numeric(NumericPartition::Zero)) > 0);
        let covered_buckets = (0..24u32)
            .filter(|&k| wc.count(&InputPartition::Numeric(NumericPartition::Log2(k))) > 0)
            .count();
        assert!(covered_buckets >= 20, "{covered_buckets} buckets");
        // Invalid whence (categorical fuzzing).
        let whence = report.input_coverage(ArgName::LseekWhence);
        assert!(whence.count(&InputPartition::Categorical("<invalid>".into())) > 0);
    }

    #[test]
    fn log_contains_no_raw_control_bytes() {
        // Regression: the seed-open line embedded a literal NUL where
        // every other site wrote the textual `\x00` escape, producing a
        // log no text tool (or strict parser) should have to accept.
        let env = TestEnv::new();
        let log = SyzFuzzerSim::new(11, 30, 10).run(&env);
        assert!(log.contains("= open("), "seed opens are present");
        for byte in log.bytes() {
            assert!(
                byte == b'\n' || !byte.is_ascii_control(),
                "raw control byte {byte:#04x} in log"
            );
        }
        // The textual escape form is what reaches the parser.
        assert!(log.contains("\\x00"));
        parse_to_trace(&log).expect("escaped log still parses");
    }

    #[test]
    fn calls_per_program_bound_is_respected() {
        // Regression: `random_range(3..=calls_per_program.max(4))` both
        // ignored configured maxima below 4 and silently raised them.
        for (cpp, max_lines) in [(1usize, 1), (2, 2), (3, 3), (8, 8)] {
            let env = TestEnv::new();
            let log = SyzFuzzerSim::new(13, 12, cpp).run(&env);
            for program in log.split("# program").skip(1) {
                let lines: Vec<&str> = program
                    .lines()
                    .skip(1) // the program-header remainder
                    .filter(|l| !l.is_empty())
                    .collect();
                // Each program logs: one seed open, `calls` fuzzed calls
                // (a few roll no line when no fd is live), and trailing
                // closes for leftovers (bounded by successful opens,
                // which are themselves bounded by lines).
                let fuzzed = lines
                    .iter()
                    .filter(|l| !l.trim_start().starts_with("close("))
                    .count()
                    .saturating_sub(1); // seed open
                assert!(
                    fuzzed <= max_lines,
                    "cpp={cpp}: {fuzzed} non-close calls\n{program}"
                );
            }
        }
    }

    #[test]
    fn per_program_seeds_are_decorrelated() {
        // The old mix (`seed ^ p * 0x9e3779b9`, a 32-bit constant) kept
        // the top 32 bits of every per-program seed equal to the session
        // seed's for small `p`. SplitMix64 finalization must spread them.
        for seed in [0u64, 1, 42, u64::MAX] {
            let mixed: Vec<u64> = (0..64).map(|p| splitmix64(seed, p)).collect();
            let top: std::collections::BTreeSet<u32> =
                mixed.iter().map(|m| (m >> 32) as u32).collect();
            assert!(
                top.len() > 32,
                "top halves collapse: {} distinct",
                top.len()
            );
            let all: std::collections::BTreeSet<u64> = mixed.iter().copied().collect();
            assert_eq!(all.len(), 64, "mixed seeds must be pairwise distinct");
        }
        // End to end: distinct programs of one session produce distinct
        // call sequences (bodies are comparable — each restarts its var
        // numbering).
        let env = TestEnv::new();
        let log = SyzFuzzerSim::new(17, 24, 10).run(&env);
        let bodies: std::collections::BTreeSet<String> = log
            .split("# program")
            .skip(1)
            // Drop the "# program N" remainder so bodies differing only
            // in their index don't count as distinct.
            .map(|p| p.lines().skip(1).collect::<Vec<_>>().join("\n"))
            .collect();
        assert_eq!(bodies.len(), 24, "duplicate program bodies");
    }

    #[test]
    fn fuzzer_is_deterministic_per_seed() {
        let log_a = SyzFuzzerSim::new(7, 5, 8).run(&TestEnv::new());
        let log_b = SyzFuzzerSim::new(7, 5, 8).run(&TestEnv::new());
        assert_eq!(log_a, log_b);
        let log_c = SyzFuzzerSim::new(8, 5, 8).run(&TestEnv::new());
        assert_ne!(log_a, log_c);
    }
}
