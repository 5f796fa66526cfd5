//! Feedback-driven workload campaigns: closing the measure → generate
//! loop.
//!
//! The paper measures input and output coverage; this module *acts* on
//! the measurement. A campaign alternates rounds of
//!
//! 1. **extract** — flatten the cumulative [`AnalysisReport`] against a
//!    uniform per-partition target into a
//!    [`ColdReport`] of under-tested partitions
//!    ([`iocov::extract_cold`]),
//! 2. **re-weight** — derive owned sampling profiles whose weights are
//!    the cold partitions' log-scale deficits (warm partitions keep a
//!    small exploration floor), plus a syscall menu biased toward the
//!    arguments and error spaces with the largest summed deficit,
//! 3. **generate + execute** — run the biased workload against a fresh
//!    kernel, spending part of the round's event budget on
//!    [`precond`]-staged probes that drive the VFS into rare errno
//!    paths (exhausted descriptor tables, filled quotas, read-only
//!    remounts, symlink loops),
//! 4. **analyze** — feed the recorded trace back through the §3
//!    pipeline, merge into the cumulative report, and re-measure the
//!    campaign TCD ([`iocov::campaign_tcd`]).
//!
//! Rounds stop when the TCD target is reached or the round budget is
//! exhausted. Campaigns are byte-reproducible per seed: the emitted
//! syzlang log, the round statistics, and the final report depend only
//! on `(profile, CampaignConfig)`.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use iocov::{
    campaign_tcd, extract_cold, AnalysisReport, ArgName, BaseSyscall, ColdReport, InputPartition,
    Iocov, NumericPartition, INVALID_CATEGORY, MODE_BITS, WHENCE_VALUES, XATTR_FLAG_BITS,
};
use iocov_syscalls::precond::{self, FdSpec, Probe, ProbeCall};
use iocov_syscalls::{Kernel, RawRet};
use iocov_vfs::{Pid, VfsConfig};

use crate::env::{TestEnv, MOUNT};
use crate::profile::{OpenProfile, SizeProfile, SuiteProfile};
use crate::sampler::{sample_open_flags, sample_size, weighted_index};

/// The unprivileged helper process [`TestEnv::fresh_kernel`] spawns;
/// permission-errno probes run as it.
const HELPER: Pid = Pid(2);

/// Exploration floor added to every weight so warm partitions never
/// fully starve (the report stays comparable round over round).
const EPS: f64 = 0.05;

/// A VFS configuration whose resource limits make every rare errno the
/// probe engine targets actually reachable in a few thousand untraced
/// operations: small capacity (`ENOSPC`), per-uid quota (`EDQUOT`),
/// tight descriptor tables (`EMFILE`/`ENFILE`), and a 1 MiB file-size
/// cap (`EFBIG`). Campaigns run under this instead of the 16 TiB
/// defaults.
#[must_use]
pub fn campaign_config() -> VfsConfig {
    VfsConfig::builder()
        .capacity_bytes(8 << 20)
        .max_inodes(512)
        .quota_bytes_per_uid(1 << 20)
        .max_fds_per_process(16)
        .max_open_files(40)
        .max_file_size(1 << 20)
        .build()
}

/// Knobs of a feedback campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Session seed; every derived stream is a splitmix of it.
    pub seed: u64,
    /// Maximum generate→analyze rounds.
    pub max_rounds: usize,
    /// Traced-event budget per round (probes included).
    pub events_per_round: usize,
    /// Uniform per-partition frequency target the TCD is measured
    /// against (the paper's "each partition tested `t` times").
    pub target: u64,
    /// Stop early once the campaign TCD falls to this value.
    pub target_tcd: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            max_rounds: 6,
            events_per_round: 300,
            target: 10,
            target_tcd: 0.0,
        }
    }
}

/// Per-round movement of the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Traced events this round contributed.
    pub events: u64,
    /// Campaign TCD before the round.
    pub tcd_before: f64,
    /// Campaign TCD after merging the round's coverage.
    pub tcd_after: f64,
    /// Cold input partitions the round was steered toward.
    pub cold_inputs: usize,
    /// Cold output partitions (errnos) the round was steered toward.
    pub cold_errnos: usize,
    /// Cold return-value buckets the round was steered toward.
    pub cold_outputs: usize,
    /// Errno probes successfully staged this round.
    pub probes_staged: usize,
    /// Staged probes that elicited exactly their target errno.
    pub probes_hit: usize,
}

/// The result of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Per-round statistics, in order.
    pub rounds: Vec<RoundStats>,
    /// Final campaign TCD.
    pub final_tcd: f64,
    /// Cumulative coverage (initial report plus every round).
    pub report: AnalysisReport,
    /// The full syzlang-syntax execution log (parses with
    /// [`iocov::syzlang::parse_to_trace`]; round markers are `#`
    /// comments).
    pub log: String,
    /// Whether `target_tcd` was reached before the rounds ran out.
    pub converged: bool,
}

impl CampaignOutcome {
    /// Total traced events across all rounds.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.rounds.iter().map(|r| r.events).sum()
    }
}

/// The campaign engine.
#[derive(Debug, Clone)]
pub struct FeedbackCampaign {
    profile: SuiteProfile,
    config: CampaignConfig,
}

impl FeedbackCampaign {
    /// A campaign starting from `profile`'s calibrated distributions.
    #[must_use]
    pub fn new(profile: SuiteProfile, config: CampaignConfig) -> Self {
        FeedbackCampaign { profile, config }
    }

    /// Runs the campaign against kernels minted from `env`, starting
    /// from `initial` coverage (pass a default report to start cold).
    #[must_use]
    pub fn run(&self, env: &TestEnv, initial: &AnalysisReport) -> CampaignOutcome {
        let Ok(analyzer) = Iocov::with_mount_point(MOUNT);
        let target = self.config.target;
        let mut cumulative = initial.clone();
        let mut log = String::new();
        let mut rounds = Vec::new();
        let mut converged = false;
        for round in 0..self.config.max_rounds {
            let tcd_before = campaign_tcd(&cumulative, target);
            if tcd_before <= self.config.target_tcd {
                converged = true;
                break;
            }
            let cold = extract_cold(&cumulative, target);
            let _ = writeln!(
                log,
                "# round {round} tcd {tcd_before:.4} cold_inputs {} cold_errnos {} cold_outputs {}",
                cold.input_count(),
                cold.errnos.len(),
                cold.outputs.len(),
            );
            let mut rng = StdRng::seed_from_u64(mix(self.config.seed, round as u64));
            let mut kernel = env.fresh_kernel();
            let (probes_staged, probes_hit) =
                self.run_round(&mut kernel, &mut rng, &cold, &mut log, round);
            let trace = env.take_trace();
            let events = trace.len() as u64;
            let round_report = analyzer.analyze(&trace);
            cumulative.merge(&round_report);
            let tcd_after = campaign_tcd(&cumulative, target);
            rounds.push(RoundStats {
                round,
                events,
                tcd_before,
                tcd_after,
                cold_inputs: cold.input_count(),
                cold_errnos: cold.errnos.len(),
                cold_outputs: cold.outputs.len(),
                probes_staged,
                probes_hit,
            });
            if tcd_after <= self.config.target_tcd {
                converged = true;
                break;
            }
        }
        CampaignOutcome {
            final_tcd: campaign_tcd(&cumulative, target),
            rounds,
            report: cumulative,
            log,
            converged,
        }
    }

    /// One round: errno probes first (≈30% of the budget), then biased
    /// generation for the remainder. Returns `(staged, hit)` probe
    /// counters.
    fn run_round(
        &self,
        kernel: &mut Kernel,
        rng: &mut StdRng,
        cold: &ColdReport,
        log: &mut String,
        round: usize,
    ) -> (usize, usize) {
        let budget = self.config.events_per_round;
        let mut gen = Gen {
            kernel,
            log,
            emitted: 0,
            resources: Vec::new(),
            next_var: 0,
        };

        // --- errno probes, worst deficit first --------------------
        let probe_budget = budget * 3 / 10;
        let mut staged = 0usize;
        let mut hit = 0usize;
        let mut nonce = (round as u64) << 20;
        for cold_errno in &cold.errnos {
            if gen.emitted >= probe_budget {
                break;
            }
            if cold_errno.errno == "OK" {
                continue; // success partitions come from biased generation
            }
            let Some(errno) = precond::errno_by_name(cold_errno.errno) else {
                continue;
            };
            nonce += 1;
            let Some(probe) =
                precond::stage_errno(gen.kernel, MOUNT, HELPER, cold_errno.base, errno, nonce)
            else {
                continue;
            };
            staged += 1;
            let ret = run_probe(&mut gen, &probe);
            if ret == -i64::from(errno.number()) {
                hit += 1;
            }
            precond::unstage(gen.kernel, &probe);
        }

        // --- biased generation ------------------------------------
        let bias = Bias::derive(cold, &self.profile);
        while gen.emitted < budget {
            bias.step(&mut gen, rng, round);
        }
        // Leftover descriptors are closed (traced), as executors do.
        while let Some((var, fd)) = gen.resources.pop() {
            gen.close(var, fd);
        }
        (staged, hit)
    }
}

/// SplitMix64 finalizer (same construction as the fuzzer's per-program
/// seeding) mixing the session seed with a round index.
fn mix(seed: u64, round: u64) -> u64 {
    let mut z = seed.wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Logged execution
// ---------------------------------------------------------------------

/// Executes traced calls while emitting one syzlang log line per call,
/// so the log parses back ([`iocov::syzlang::parse_to_trace`]) into the
/// same per-argument coverage the recorder saw.
struct Gen<'a> {
    kernel: &'a mut Kernel,
    log: &'a mut String,
    emitted: usize,
    /// Live descriptors as `(log variable, fd)`.
    resources: Vec<(usize, i32)>,
    next_var: usize,
}

impl Gen<'_> {
    fn open(&mut self, path: &str, flags: u32, mode: u32) -> RawRet {
        let ret = self.kernel.open(path, flags, mode);
        self.emitted += 1;
        if ret >= 0 {
            let var = self.next_var;
            self.next_var += 1;
            self.resources.push((var, ret as i32));
            let _ = writeln!(
                self.log,
                "r{var} = open(&(0x7f0000000000)='{path}\\x00', {flags:#x}, {mode:#x}) # {ret}"
            );
        } else {
            let _ = writeln!(
                self.log,
                "open(&(0x7f0000000000)='{path}\\x00', {flags:#x}, {mode:#x}) # {ret}"
            );
        }
        ret
    }

    fn close(&mut self, var: usize, fd: i32) -> RawRet {
        let ret = self.kernel.close(fd);
        self.emitted += 1;
        let _ = writeln!(self.log, "close(r{var}) # {ret}");
        ret
    }

    /// Closes the resource at `idx`, removing it from the live set.
    fn close_at(&mut self, idx: usize) {
        let (var, fd) = self.resources.swap_remove(idx);
        self.close(var, fd);
    }

    fn read(&mut self, var: usize, fd: i32, count: u64) -> RawRet {
        let ret = self.kernel.read_discard(fd, count);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "read(r{var}, &(0x7f0000002000)=\"00\", {count:#x}) # {ret}"
        );
        ret
    }

    fn pread(&mut self, var: usize, fd: i32, count: u64, offset: i64) -> RawRet {
        let ret = self.kernel.pread64(fd, count, offset);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "pread64(r{var}, &(0x7f0000002000)=\"00\", {count:#x}, {offset:#x}) # {ret}"
        );
        ret
    }

    fn write(&mut self, var: usize, fd: i32, count: u64) -> RawRet {
        let ret = self.kernel.write_fill(fd, 0x61, count);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "write(r{var}, &(0x7f0000001000)=\"6161\", {count:#x}) # {ret}"
        );
        ret
    }

    fn pwrite(&mut self, var: usize, fd: i32, count: u64, offset: i64) -> RawRet {
        let ret = self.kernel.pwrite64_fill(fd, 0x61, count, offset);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "pwrite64(r{var}, &(0x7f0000001000)=\"6161\", {count:#x}, {offset:#x}) # {ret}"
        );
        ret
    }

    fn lseek(&mut self, var: usize, fd: i32, offset: i64, whence: u32) -> RawRet {
        let ret = self.kernel.lseek(fd, offset, whence);
        self.emitted += 1;
        let _ = writeln!(self.log, "lseek(r{var}, {offset:#x}, {whence:#x}) # {ret}");
        ret
    }

    fn truncate(&mut self, path: &str, length: i64) -> RawRet {
        let ret = self.kernel.truncate(path, length);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "truncate(&(0x7f0000000000)='{path}\\x00', {length:#x}) # {ret}"
        );
        ret
    }

    fn mkdir(&mut self, path: &str, mode: u32) -> RawRet {
        let ret = self.kernel.mkdir(path, mode);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "mkdir(&(0x7f0000000000)='{path}\\x00', {mode:#x}) # {ret}"
        );
        ret
    }

    fn chmod(&mut self, path: &str, mode: u32) -> RawRet {
        let ret = self.kernel.chmod(path, mode);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "chmod(&(0x7f0000000000)='{path}\\x00', {mode:#x}) # {ret}"
        );
        ret
    }

    fn chdir(&mut self, path: &str) -> RawRet {
        let ret = self.kernel.chdir(path);
        self.emitted += 1;
        let _ = writeln!(self.log, "chdir(&(0x7f0000000000)='{path}\\x00') # {ret}");
        ret
    }

    fn setxattr(&mut self, path: &str, name: &str, size: u64, flags: u32) -> RawRet {
        let value = vec![0x61u8; usize::try_from(size).unwrap_or(0)];
        let ret = self.kernel.setxattr(path, name, &value, flags);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "setxattr(&(0x7f0000000000)='{path}\\x00', &(0x7f0000000100)='{name}\\x00', \
             &(0x7f0000000200)=\"61\", {size:#x}, {flags:#x}) # {ret}"
        );
        ret
    }

    fn getxattr(&mut self, path: &str, name: &str, size: u64) -> RawRet {
        let ret = self.kernel.getxattr(path, name, size);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "getxattr(&(0x7f0000000000)='{path}\\x00', &(0x7f0000000100)='{name}\\x00', \
             &(0x7f0000000300)=\"00\", {size:#x}) # {ret}"
        );
        ret
    }

    /// Opens a scratch descriptor per an [`FdSpec`] with logged, traced
    /// calls (so both the recorder and the parsed log know its
    /// provenance). Untraced root staging prepares the paths.
    fn stage_fd(&mut self, spec: FdSpec, scratch: &str) -> (usize, i32) {
        match spec {
            FdSpec::Fresh | FdSpec::Closed => {
                let dir = format!("{scratch}-gd");
                let path = format!("{dir}/scratch");
                let current = self.kernel.current();
                self.kernel.untraced(|k| {
                    let prev = k.current();
                    k.set_current(k.vfs().default_pid());
                    k.mkdir(&dir, 0o777);
                    k.chmod(&dir, 0o777);
                    k.set_current(current);
                    let fd = k.open(&path, 0o102 /* O_CREAT|O_RDWR */, 0o666);
                    if fd >= 0 {
                        k.close(fd as i32);
                    }
                    k.set_current(prev);
                });
                let fd = self.open(&path, 2, 0) as i32;
                if spec == FdSpec::Closed && fd >= 0 {
                    let idx = self.resources.iter().position(|&(_, f)| f == fd);
                    if let Some(idx) = idx {
                        let (var, fd) = self.resources.swap_remove(idx);
                        self.close(var, fd);
                        return (var, fd);
                    }
                }
                (self.next_var - 1, fd)
            }
            FdSpec::FreshDir => {
                let dir = format!("{scratch}-dd");
                self.kernel.untraced(|k| {
                    let prev = k.current();
                    k.set_current(k.vfs().default_pid());
                    k.mkdir(&dir, 0o755);
                    k.set_current(prev);
                });
                let fd = self.open(&dir, 0, 0) as i32;
                (self.next_var.saturating_sub(1), fd)
            }
        }
    }
}

/// Executes a staged probe through the logged generator (mirrors
/// [`precond::execute`], but every traced call lands in the log).
fn run_probe(gen: &mut Gen<'_>, probe: &Probe) -> RawRet {
    let prev = gen.kernel.current();
    if probe.as_helper {
        gen.kernel.set_current(HELPER);
    }
    let ret = match &probe.call {
        ProbeCall::Open { path, flags, mode } => {
            let r = gen.open(path, *flags, *mode);
            if r >= 0 {
                if let Some(idx) = gen.resources.iter().position(|&(_, f)| f == r as i32) {
                    gen.close_at(idx);
                }
            }
            r
        }
        ProbeCall::Read { fd, count } => {
            let (var, fd) = gen.stage_fd(*fd, &probe.scratch);
            let r = gen.read(var, fd, *count);
            release_fd(gen, fd);
            r
        }
        ProbeCall::Write { fd, count } => {
            let (var, fd) = gen.stage_fd(*fd, &probe.scratch);
            let r = gen.write(var, fd, *count);
            release_fd(gen, fd);
            r
        }
        ProbeCall::Lseek { fd, offset, whence } => {
            let (var, fd) = gen.stage_fd(*fd, &probe.scratch);
            let r = gen.lseek(var, fd, *offset, *whence);
            release_fd(gen, fd);
            r
        }
        ProbeCall::Truncate { path, length } => gen.truncate(path, *length),
        ProbeCall::Mkdir { path, mode } => gen.mkdir(path, *mode),
        ProbeCall::Chmod { path, mode } => gen.chmod(path, *mode),
        ProbeCall::CloseDead => {
            let (var, fd) = gen.stage_fd(FdSpec::Closed, &probe.scratch);
            let r = gen.kernel.close(fd);
            gen.emitted += 1;
            let _ = writeln!(gen.log, "close(r{var}) # {r}");
            r
        }
        ProbeCall::Chdir { path } => {
            let r = gen.chdir(path);
            if r == 0 {
                gen.kernel.untraced(|k| k.chdir("/"));
            }
            r
        }
        ProbeCall::Setxattr {
            path,
            name,
            size,
            flags,
        } => gen.setxattr(path, name, *size, *flags),
        ProbeCall::Getxattr { path, name, size } => gen.getxattr(path, name, *size),
    };
    gen.kernel.set_current(prev);
    ret
}

/// Closes a probe's live staged descriptor (traced + logged).
fn release_fd(gen: &mut Gen<'_>, fd: i32) {
    if let Some(idx) = gen.resources.iter().position(|&(_, f)| f == fd) {
        gen.close_at(idx);
    }
}

// ---------------------------------------------------------------------
// Deficit-derived sampling
// ---------------------------------------------------------------------

/// What one round's generation step can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallKind {
    Open,
    Read,
    PRead,
    Write,
    PWrite,
    Lseek,
    Truncate,
    Mkdir,
    Chmod,
    Chdir,
    Setxattr,
    Getxattr,
    Close,
}

const MENU: [CallKind; 13] = [
    CallKind::Open,
    CallKind::Read,
    CallKind::PRead,
    CallKind::Write,
    CallKind::PWrite,
    CallKind::Lseek,
    CallKind::Truncate,
    CallKind::Mkdir,
    CallKind::Chmod,
    CallKind::Chdir,
    CallKind::Setxattr,
    CallKind::Getxattr,
    CallKind::Close,
];

/// Cold-deficit-derived sampling state for one round.
struct Bias {
    open: OpenProfile,
    write_size: SizeProfile,
    read_size: SizeProfile,
    xattr_size: SizeProfile,
    /// Cold mode-bit names per mode-typed argument.
    open_mode_cold: BTreeSet<String>,
    mkdir_mode_cold: BTreeSet<String>,
    chmod_mode_cold: BTreeSet<String>,
    /// `(whence value, weight)`, including the `<invalid>` 99.
    whence_weights: Vec<(u32, f64)>,
    xattr_flag_cold: BTreeSet<String>,
    /// Per-offset-argument `(partition, weight)` tables.
    read_offset: Vec<(NumericPartition, f64)>,
    write_offset: Vec<(NumericPartition, f64)>,
    lseek_offset: Vec<(NumericPartition, f64)>,
    truncate_length: Vec<(NumericPartition, f64)>,
    /// Syscall-menu weights, aligned with [`MENU`].
    menu_weights: Vec<f64>,
}

impl Bias {
    fn derive(cold: &ColdReport, profile: &SuiteProfile) -> Self {
        let deficit_of = |arg: ArgName, part: &InputPartition| -> f64 {
            cold.inputs
                .get(&arg)
                .and_then(|v| v.iter().find(|c| &c.partition == part))
                .map_or(0.0, |c| c.deficit)
        };
        let flag_deficit =
            |arg: ArgName, name: &str| deficit_of(arg, &InputPartition::Flag(name.to_owned()));

        // open(2): access modes and optional flags by deficit.
        let accmode_weights = [
            flag_deficit(ArgName::OpenFlags, "O_RDONLY") + EPS,
            flag_deficit(ArgName::OpenFlags, "O_WRONLY") + EPS,
            flag_deficit(ArgName::OpenFlags, "O_RDWR") + EPS,
        ];
        let optional: Vec<(&'static str, f64)> = iocov::open_flag_names()
            .into_iter()
            .filter(|n| !matches!(*n, "O_RDONLY" | "O_WRONLY" | "O_RDWR" | "O_ACCMODE"))
            .map(|n| (n, flag_deficit(ArgName::OpenFlags, n) + EPS))
            .collect();
        let open = OpenProfile {
            accmode_weights,
            // Spread combo sizes: partially flattened vs the calibrated
            // suites (which concentrate on 4-flag combos).
            combo_size_pct: [20.0, 20.0, 20.0, 20.0, 10.0, 10.0],
            flag_weights: Cow::Owned(optional),
        };

        // A cold *return-value* bucket also raises the matching request
        // size: writes return their count, and reads/getxattrs return
        // sizes correlated with the staged content the biased writes
        // produced — so steering the input bucket is how the generator
        // elicits the cold output bucket.
        let out_bucket = |base: BaseSyscall, part: NumericPartition| -> f64 {
            cold.outputs
                .iter()
                .find(|c| c.base == base && c.partition == part)
                .map_or(0.0, |c| c.deficit)
        };
        let size_profile = |arg: ArgName, out: Option<BaseSyscall>, max_log2: u32| -> SizeProfile {
            let out_deficit =
                |part: NumericPartition| -> f64 { out.map_or(0.0, |base| out_bucket(base, part)) };
            let zero = deficit_of(arg, &InputPartition::Numeric(NumericPartition::Zero))
                + out_deficit(NumericPartition::Zero)
                + EPS;
            let buckets: Vec<(u32, f64)> = (0..=max_log2)
                .map(|k| {
                    let d = deficit_of(arg, &InputPartition::Numeric(NumericPartition::Log2(k)));
                    (k, d + out_deficit(NumericPartition::Log2(k)) + EPS)
                })
                .collect();
            SizeProfile {
                zero_weight: zero,
                bucket_weights: Cow::Owned(buckets),
            }
        };
        let _ = profile; // the calibrated profile seeds nothing cold-side

        let mode_cold = |arg: ArgName| -> BTreeSet<String> {
            MODE_BITS
                .iter()
                .filter(|(name, _)| flag_deficit(arg, name) > 0.0)
                .map(|(name, _)| (*name).to_owned())
                .collect()
        };

        let mut whence_weights: Vec<(u32, f64)> = WHENCE_VALUES
            .iter()
            .map(|(name, v)| {
                (
                    *v,
                    deficit_of(
                        ArgName::LseekWhence,
                        &InputPartition::Categorical((*name).to_owned()),
                    ) + EPS,
                )
            })
            .collect();
        whence_weights.push((
            99,
            deficit_of(
                ArgName::LseekWhence,
                &InputPartition::Categorical(INVALID_CATEGORY.to_owned()),
            ) + EPS,
        ));

        let xattr_flag_cold = XATTR_FLAG_BITS
            .iter()
            .filter(|(name, _)| flag_deficit(ArgName::SetxattrFlags, name) > 0.0)
            .map(|(name, _)| (*name).to_owned())
            .collect();

        let offset_table = |arg: ArgName| -> Vec<(NumericPartition, f64)> {
            let mut table = vec![
                (
                    NumericPartition::Negative,
                    deficit_of(arg, &InputPartition::Numeric(NumericPartition::Negative)) + EPS,
                ),
                (
                    NumericPartition::Zero,
                    deficit_of(arg, &InputPartition::Numeric(NumericPartition::Zero)) + EPS,
                ),
            ];
            for k in 0..=40u32 {
                table.push((
                    NumericPartition::Log2(k),
                    deficit_of(arg, &InputPartition::Numeric(NumericPartition::Log2(k))) + EPS,
                ));
            }
            table
        };

        let arg_sum =
            |args: &[ArgName]| -> f64 { args.iter().map(|&a| cold.arg_deficit(a)).sum::<f64>() };
        let menu_weights = MENU
            .iter()
            .map(|kind| {
                EPS + match kind {
                    CallKind::Open => {
                        arg_sum(&[ArgName::OpenFlags, ArgName::OpenMode])
                            + cold.base_deficit(BaseSyscall::Open)
                    }
                    CallKind::Read => {
                        arg_sum(&[ArgName::ReadCount]) + cold.bucket_deficit(BaseSyscall::Read)
                    }
                    CallKind::PRead => {
                        arg_sum(&[ArgName::ReadCount, ArgName::ReadOffset])
                            + cold.bucket_deficit(BaseSyscall::Read)
                    }
                    CallKind::Write => {
                        arg_sum(&[ArgName::WriteCount]) + cold.bucket_deficit(BaseSyscall::Write)
                    }
                    CallKind::PWrite => {
                        arg_sum(&[ArgName::WriteCount, ArgName::WriteOffset])
                            + cold.bucket_deficit(BaseSyscall::Write)
                    }
                    CallKind::Lseek => arg_sum(&[ArgName::LseekOffset, ArgName::LseekWhence]),
                    CallKind::Truncate => arg_sum(&[ArgName::TruncateLength]),
                    CallKind::Mkdir => arg_sum(&[ArgName::MkdirMode]),
                    CallKind::Chmod => arg_sum(&[ArgName::ChmodMode]),
                    CallKind::Chdir => cold.base_deficit(BaseSyscall::Chdir),
                    CallKind::Setxattr => arg_sum(&[ArgName::SetxattrSize, ArgName::SetxattrFlags]),
                    CallKind::Getxattr => {
                        arg_sum(&[ArgName::GetxattrSize])
                            + cold.bucket_deficit(BaseSyscall::Getxattr)
                    }
                    CallKind::Close => cold.base_deficit(BaseSyscall::Close),
                }
            })
            .collect();

        Bias {
            open,
            write_size: size_profile(ArgName::WriteCount, Some(BaseSyscall::Write), 32),
            read_size: size_profile(ArgName::ReadCount, Some(BaseSyscall::Read), 32),
            xattr_size: size_profile(ArgName::SetxattrSize, Some(BaseSyscall::Getxattr), 17),
            open_mode_cold: mode_cold(ArgName::OpenMode),
            mkdir_mode_cold: mode_cold(ArgName::MkdirMode),
            chmod_mode_cold: mode_cold(ArgName::ChmodMode),
            whence_weights,
            xattr_flag_cold,
            read_offset: offset_table(ArgName::ReadOffset),
            write_offset: offset_table(ArgName::WriteOffset),
            lseek_offset: offset_table(ArgName::LseekOffset),
            truncate_length: offset_table(ArgName::TruncateLength),
            menu_weights,
        }
    }

    /// A mode word: cold bits are likely, warm bits rare.
    fn sample_mode(rng: &mut StdRng, cold_bits: &BTreeSet<String>) -> u32 {
        let mut mode = 0u32;
        for (name, bits) in MODE_BITS {
            let p = if cold_bits.contains(name) { 0.6 } else { 0.08 };
            if rng.random_bool(p) {
                mode |= bits;
            }
        }
        mode
    }

    fn sample_offset(rng: &mut StdRng, table: &[(NumericPartition, f64)]) -> i64 {
        let weights: Vec<f64> = table.iter().map(|(_, w)| *w).collect();
        match table[weighted_index(rng, &weights)].0 {
            NumericPartition::Negative => -i64::from(rng.random_range(1..1 << 20u32)),
            NumericPartition::Zero => 0,
            NumericPartition::Log2(k) => {
                let k = k.min(40);
                let lo = 1i64 << k;
                rng.random_range(lo..lo << 1)
            }
        }
    }

    fn sample_whence(&self, rng: &mut StdRng) -> u32 {
        let weights: Vec<f64> = self.whence_weights.iter().map(|(_, w)| *w).collect();
        self.whence_weights[weighted_index(rng, &weights)].0
    }

    fn sample_xattr_flags(&self, rng: &mut StdRng) -> u32 {
        let mut flags = 0u32;
        for (name, bits) in XATTR_FLAG_BITS {
            let p = if self.xattr_flag_cold.contains(name) {
                0.5
            } else {
                0.15
            };
            if rng.random_bool(p) {
                flags |= bits;
            }
        }
        flags
    }

    /// Ensures a live descriptor exists, opening a seed file when the
    /// pool is empty, and returns an index into the live set.
    fn pick_fd(gen: &mut Gen<'_>, rng: &mut StdRng, round: usize) -> Option<usize> {
        if gen.resources.is_empty() {
            let path = format!("{MOUNT}/seed{}_{round}", rng.random_range(0..4u32));
            gen.open(&path, 0o102, 0o644);
        }
        if gen.resources.is_empty() {
            None
        } else {
            Some(rng.random_range(0..gen.resources.len()))
        }
    }

    /// One biased generation step (at least one traced call).
    fn step(&self, gen: &mut Gen<'_>, rng: &mut StdRng, round: usize) {
        let kind = MENU[weighted_index(rng, &self.menu_weights)];
        match kind {
            CallKind::Open => {
                let path = pick_path(rng, round);
                let flags = sample_open_flags(rng, &self.open);
                let mode = Self::sample_mode(rng, &self.open_mode_cold);
                gen.open(&path, flags, mode);
                // Keep the pool bounded so opens don't accumulate into
                // an EMFILE wall mid-round.
                if gen.resources.len() > 8 {
                    gen.close_at(0);
                }
            }
            CallKind::Read => {
                if let Some(idx) = Self::pick_fd(gen, rng, round) {
                    let (var, fd) = gen.resources[idx];
                    let count = sample_size(rng, &self.read_size);
                    gen.read(var, fd, count);
                }
            }
            CallKind::PRead => {
                if let Some(idx) = Self::pick_fd(gen, rng, round) {
                    let (var, fd) = gen.resources[idx];
                    let count = sample_size(rng, &self.read_size);
                    let offset = Self::sample_offset(rng, &self.read_offset);
                    gen.pread(var, fd, count, offset);
                }
            }
            CallKind::Write => {
                if let Some(idx) = Self::pick_fd(gen, rng, round) {
                    let (var, fd) = gen.resources[idx];
                    let count = sample_size(rng, &self.write_size);
                    gen.write(var, fd, count);
                }
            }
            CallKind::PWrite => {
                if let Some(idx) = Self::pick_fd(gen, rng, round) {
                    let (var, fd) = gen.resources[idx];
                    let count = sample_size(rng, &self.write_size);
                    let offset = Self::sample_offset(rng, &self.write_offset);
                    gen.pwrite(var, fd, count, offset);
                }
            }
            CallKind::Lseek => {
                if let Some(idx) = Self::pick_fd(gen, rng, round) {
                    let (var, fd) = gen.resources[idx];
                    let offset = Self::sample_offset(rng, &self.lseek_offset);
                    let whence = self.sample_whence(rng);
                    gen.lseek(var, fd, offset, whence);
                }
            }
            CallKind::Truncate => {
                let path = pick_path(rng, round);
                let length = Self::sample_offset(rng, &self.truncate_length);
                gen.truncate(&path, length);
            }
            CallKind::Mkdir => {
                let path = format!("{MOUNT}/dir{round}_{}", rng.random_range(0..64u32));
                let mode = Self::sample_mode(rng, &self.mkdir_mode_cold);
                gen.mkdir(&path, mode);
            }
            CallKind::Chmod => {
                let path = pick_path(rng, round);
                let mode = Self::sample_mode(rng, &self.chmod_mode_cold);
                gen.chmod(&path, mode);
            }
            CallKind::Chdir => {
                gen.chdir(MOUNT);
            }
            CallKind::Setxattr => {
                let path = pick_path(rng, round);
                let name = format!("user.a{}", rng.random_range(0..4u32));
                let size = sample_size(rng, &self.xattr_size);
                let flags = self.sample_xattr_flags(rng);
                gen.setxattr(&path, &name, size, flags);
            }
            CallKind::Getxattr => {
                let path = pick_path(rng, round);
                let name = format!("user.a{}", rng.random_range(0..4u32));
                let size = sample_size(rng, &self.xattr_size);
                gen.getxattr(&path, &name, size);
            }
            CallKind::Close => {
                if let Some(idx) = Self::pick_fd(gen, rng, round) {
                    gen.close_at(idx);
                }
            }
        }
    }
}

/// Paths mix seed files (usually present), per-round directories, and
/// the occasional miss.
fn pick_path(rng: &mut StdRng, round: usize) -> String {
    match rng.random_range(0..8u32) {
        0..=4 => format!("{MOUNT}/seed{}_{round}", rng.random_range(0..4u32)),
        5 | 6 => format!("{MOUNT}/dir{round}_{}", rng.random_range(0..64u32)),
        _ => format!("{MOUNT}/gone{}", rng.random_range(0..64u32)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzer::SyzFuzzerSim;
    use crate::profile::xfstests_profile;
    use iocov::syzlang::parse_to_trace;

    fn quick_config(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            max_rounds: 3,
            events_per_round: 220,
            target: 10,
            target_tcd: 0.0,
        }
    }

    #[test]
    fn campaign_beats_unguided_fuzzer_at_equal_budget() {
        let env = TestEnv::new().with_config(campaign_config());
        let campaign = FeedbackCampaign::new(xfstests_profile(), quick_config(42))
            .run(&env, &AnalysisReport::default());
        let budget = campaign.total_events();
        assert!(budget > 0);

        // The unguided fuzzer gets at least the same number of traced
        // events (typically more) under the same limits.
        let fenv = TestEnv::new().with_config(campaign_config());
        let programs = usize::try_from(budget / 5).unwrap().max(8);
        let _ = SyzFuzzerSim::new(42, programs, 12).run(&fenv);
        let ftrace = fenv.take_trace();
        assert!(
            ftrace.len() as u64 >= budget,
            "fuzzer budget {} < campaign budget {budget}",
            ftrace.len()
        );
        let freport = Iocov::with_mount_point(MOUNT).unwrap().analyze(&ftrace);
        let fuzzer_tcd = campaign_tcd(&freport, 10);
        assert!(
            campaign.final_tcd < fuzzer_tcd,
            "feedback {:.4} must beat unguided {fuzzer_tcd:.4}",
            campaign.final_tcd
        );
    }

    #[test]
    fn tcd_improves_every_round() {
        let env = TestEnv::new().with_config(campaign_config());
        let outcome = FeedbackCampaign::new(xfstests_profile(), quick_config(7))
            .run(&env, &AnalysisReport::default());
        assert!(!outcome.rounds.is_empty());
        for r in &outcome.rounds {
            assert!(
                r.tcd_after <= r.tcd_before + 1e-9,
                "round {}: {} -> {}",
                r.round,
                r.tcd_before,
                r.tcd_after
            );
        }
        assert_eq!(outcome.final_tcd, outcome.rounds.last().unwrap().tcd_after);
        // Probes land: at least one round stages several and most hit.
        let staged: usize = outcome.rounds.iter().map(|r| r.probes_staged).sum();
        let hit: usize = outcome.rounds.iter().map(|r| r.probes_hit).sum();
        assert!(staged >= 10, "{staged} probes staged");
        assert!(hit * 10 >= staged * 8, "{hit}/{staged} probes hit");
    }

    #[test]
    fn cold_return_buckets_raise_matching_request_sizes() {
        use iocov_trace::{ArgValue, Trace, TraceEvent};
        // Ten failed 5-byte writes: the WriteCount *input* bucket
        // Log2(2) is warm at target 10, but no successful return ever
        // landed — the Log2(2) *output* bucket is stone cold. Only the
        // output-bucket blend can lift that request size above the
        // exploration floor.
        let events: Vec<TraceEvent> = (0..10)
            .map(|_| {
                TraceEvent::build(
                    "write",
                    1,
                    vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(5)],
                    -28, // ENOSPC
                )
            })
            .collect();
        let report = Iocov::new().analyze(&Trace::from_events(events));
        let cold = extract_cold(&report, 10);
        assert!(!cold.inputs.get(&ArgName::WriteCount).is_some_and(|v| v
            .iter()
            .any(|c| c.partition == InputPartition::Numeric(NumericPartition::Log2(2)))));
        let bias = Bias::derive(&cold, &xfstests_profile());
        let weight_of = |k: u32| -> f64 {
            bias.write_size
                .bucket_weights
                .iter()
                .find(|(b, _)| *b == k)
                .map(|(_, w)| *w)
                .unwrap()
        };
        assert!(
            weight_of(2) > EPS + 0.5,
            "cold return bucket must outweigh the floor: {}",
            weight_of(2)
        );
        // The menu also leans toward the size-returning calls.
        assert!(cold.bucket_deficit(BaseSyscall::Write) > 0.0);
        assert!(cold.bucket_deficit(BaseSyscall::Open) == 0.0);
    }

    #[test]
    fn campaigns_are_byte_reproducible_per_seed() {
        let run = |seed: u64| {
            let env = TestEnv::new().with_config(campaign_config());
            FeedbackCampaign::new(xfstests_profile(), quick_config(seed))
                .run(&env, &AnalysisReport::default())
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a.log, b.log);
        assert_eq!(a.final_tcd, b.final_tcd);
        assert_eq!(a.rounds, b.rounds);
        let c = run(6);
        assert_ne!(a.log, c.log);
    }

    #[test]
    fn campaign_log_parses_and_is_clean() {
        let env = TestEnv::new().with_config(campaign_config());
        let outcome = FeedbackCampaign::new(xfstests_profile(), quick_config(9))
            .run(&env, &AnalysisReport::default());
        for byte in outcome.log.bytes() {
            assert!(
                byte == b'\n' || !byte.is_ascii_control(),
                "raw control byte {byte:#04x}"
            );
        }
        let parsed = parse_to_trace(&outcome.log).expect("campaign log parses");
        assert!(parsed.len() as u64 >= outcome.total_events() / 2);
        // The parsed log sees the same per-argument input coverage as
        // the recorder did (the log is a faithful account, not a
        // summary) for the core argument set.
        let from_log = Iocov::with_mount_point(MOUNT).unwrap().analyze(&parsed);
        for arg in [
            ArgName::OpenFlags,
            ArgName::WriteCount,
            ArgName::ReadCount,
            ArgName::LseekWhence,
            ArgName::SetxattrFlags,
        ] {
            assert_eq!(
                outcome.report.input_coverage(arg).counts,
                from_log.input_coverage(arg).counts,
                "{arg}"
            );
        }
    }

    #[test]
    fn campaign_reaches_argument_spaces_the_fuzzer_never_touches() {
        let env = TestEnv::new().with_config(campaign_config());
        let outcome = FeedbackCampaign::new(xfstests_profile(), quick_config(11))
            .run(&env, &AnalysisReport::default());
        // pread64/pwrite64 offsets and the xattr argument spaces are
        // invisible to the fuzzer sim; the campaign must exercise them.
        for arg in [
            ArgName::ReadOffset,
            ArgName::WriteOffset,
            ArgName::SetxattrSize,
            ArgName::GetxattrSize,
        ] {
            assert!(
                outcome.report.input_coverage(arg).calls > 0,
                "{arg} never exercised"
            );
        }
        // Rare errnos land through the probe engine.
        let open_out = outcome.report.output_coverage(BaseSyscall::Open);
        assert!(open_out.errno_count("EMFILE") > 0, "EMFILE unprobed");
        assert!(open_out.errno_count("EROFS") > 0, "EROFS unprobed");
        let write_out = outcome.report.output_coverage(BaseSyscall::Write);
        assert!(write_out.errno_count("EDQUOT") > 0, "EDQUOT unprobed");
    }

    #[test]
    fn converged_campaign_stops_early() {
        // A target of 0 is already satisfied: no rounds run.
        let env = TestEnv::new().with_config(campaign_config());
        let config = CampaignConfig {
            target: 0,
            ..quick_config(1)
        };
        let outcome =
            FeedbackCampaign::new(xfstests_profile(), config).run(&env, &AnalysisReport::default());
        assert!(outcome.converged);
        assert!(outcome.rounds.is_empty());
        assert_eq!(outcome.final_tcd, 0.0);
    }
}
