//! The logged executor: the one place a generated call runs on the
//! [`Kernel`] and is written to a Syzkaller-syntax log.
//!
//! The paper's §6 evaluates fuzzers through their Syzkaller logs, so a
//! generated log must account for every traced call. Both generators —
//! [`SyzFuzzerSim`](crate::SyzFuzzerSim) and the feedback campaign —
//! and the campaign's [`precond`](iocov_syscalls::precond)-staged errno
//! probes issue their calls
//! through [`Executor`], which writes exactly one syzlang line (with the
//! executor-reported result as a `# ret` comment) per traced call. The
//! log therefore parses back ([`iocov::syzlang::parse_to_trace`]) into
//! the same coverage the recorder saw.

use std::fmt::Write as _;

use iocov_syscalls::precond::{FdSpec, Probe, ProbeCall};
use iocov_syscalls::{Kernel, RawRet};
use iocov_vfs::Pid;

/// The unprivileged helper process
/// [`TestEnv::fresh_kernel`](crate::TestEnv::fresh_kernel) spawns;
/// permission-errno probes run as it.
pub(crate) const HELPER: Pid = Pid(2);

/// Executes traced calls while emitting one syzlang log line per call.
pub(crate) struct Executor<'a> {
    pub(crate) kernel: &'a mut Kernel,
    log: &'a mut String,
    /// Traced calls issued so far.
    pub(crate) emitted: usize,
    /// Live descriptors as `(log variable, fd)`.
    pub(crate) resources: Vec<(usize, i32)>,
    next_var: usize,
}

impl<'a> Executor<'a> {
    /// An executor appending to `log`; variable numbering starts at
    /// `r0`.
    pub(crate) fn new(kernel: &'a mut Kernel, log: &'a mut String) -> Self {
        Executor {
            kernel,
            log,
            emitted: 0,
            resources: Vec::new(),
            next_var: 0,
        }
    }

    pub(crate) fn open(&mut self, path: &str, flags: u32, mode: u32) -> RawRet {
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

    pub(crate) fn close(&mut self, var: usize, fd: i32) -> RawRet {
        let ret = self.kernel.close(fd);
        self.emitted += 1;
        let _ = writeln!(self.log, "close(r{var}) # {ret}");
        ret
    }

    /// Closes the resource at `idx`, removing it from the live set.
    pub(crate) fn close_at(&mut self, idx: usize) {
        let (var, fd) = self.resources.swap_remove(idx);
        self.close(var, fd);
    }

    pub(crate) fn read(&mut self, var: usize, fd: i32, count: u64) -> RawRet {
        let ret = self.kernel.read_discard(fd, count);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "read(r{var}, &(0x7f0000002000)=\"00\", {count:#x}) # {ret}"
        );
        ret
    }

    pub(crate) fn pread(&mut self, var: usize, fd: i32, count: u64, offset: i64) -> RawRet {
        let ret = self.kernel.pread64(fd, count, offset);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "pread64(r{var}, &(0x7f0000002000)=\"00\", {count:#x}, {offset:#x}) # {ret}"
        );
        ret
    }

    pub(crate) fn write(&mut self, var: usize, fd: i32, count: u64) -> RawRet {
        let ret = self.kernel.write_fill(fd, 0x61, count);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "write(r{var}, &(0x7f0000001000)=\"6161\", {count:#x}) # {ret}"
        );
        ret
    }

    pub(crate) fn pwrite(&mut self, var: usize, fd: i32, count: u64, offset: i64) -> RawRet {
        let ret = self.kernel.pwrite64_fill(fd, 0x61, count, offset);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "pwrite64(r{var}, &(0x7f0000001000)=\"6161\", {count:#x}, {offset:#x}) # {ret}"
        );
        ret
    }

    pub(crate) fn lseek(&mut self, var: usize, fd: i32, offset: i64, whence: u32) -> RawRet {
        let ret = self.kernel.lseek(fd, offset, whence);
        self.emitted += 1;
        let _ = writeln!(self.log, "lseek(r{var}, {offset:#x}, {whence:#x}) # {ret}");
        ret
    }

    pub(crate) fn truncate(&mut self, path: &str, length: i64) -> RawRet {
        let ret = self.kernel.truncate(path, length);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "truncate(&(0x7f0000000000)='{path}\\x00', {length:#x}) # {ret}"
        );
        ret
    }

    pub(crate) fn mkdir(&mut self, path: &str, mode: u32) -> RawRet {
        let ret = self.kernel.mkdir(path, mode);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "mkdir(&(0x7f0000000000)='{path}\\x00', {mode:#x}) # {ret}"
        );
        ret
    }

    pub(crate) fn chmod(&mut self, path: &str, mode: u32) -> RawRet {
        let ret = self.kernel.chmod(path, mode);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "chmod(&(0x7f0000000000)='{path}\\x00', {mode:#x}) # {ret}"
        );
        ret
    }

    pub(crate) fn chdir(&mut self, path: &str) -> RawRet {
        let ret = self.kernel.chdir(path);
        self.emitted += 1;
        let _ = writeln!(self.log, "chdir(&(0x7f0000000000)='{path}\\x00') # {ret}");
        ret
    }

    pub(crate) fn setxattr(&mut self, path: &str, name: &str, size: u64, flags: u32) -> RawRet {
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

    pub(crate) fn getxattr(&mut self, path: &str, name: &str, size: u64) -> RawRet {
        let ret = self.kernel.getxattr(path, name, size);
        self.emitted += 1;
        let _ = writeln!(
            self.log,
            "getxattr(&(0x7f0000000000)='{path}\\x00', &(0x7f0000000100)='{name}\\x00', \
             &(0x7f0000000300)=\"00\", {size:#x}) # {ret}"
        );
        ret
    }

    /// Executes a staged probe and returns the probe call's raw return
    /// value. Descriptor requirements are met with logged, traced calls
    /// and released afterwards; the caller still owns
    /// [`precond::unstage`](iocov_syscalls::precond::unstage).
    pub(crate) fn run_probe(&mut self, probe: &Probe) -> RawRet {
        let prev = self.kernel.current();
        if probe.as_helper {
            self.kernel.set_current(HELPER);
        }
        let ret = match &probe.call {
            ProbeCall::Open { path, flags, mode } => {
                let r = self.open(path, *flags, *mode);
                if r >= 0 {
                    self.release_fd(r as i32);
                }
                r
            }
            ProbeCall::Read { fd, count } => {
                let (var, fd) = self.stage_fd(*fd, &probe.scratch);
                let r = self.read(var, fd, *count);
                self.release_fd(fd);
                r
            }
            ProbeCall::Write { fd, count } => {
                let (var, fd) = self.stage_fd(*fd, &probe.scratch);
                let r = self.write(var, fd, *count);
                self.release_fd(fd);
                r
            }
            ProbeCall::Lseek { fd, offset, whence } => {
                let (var, fd) = self.stage_fd(*fd, &probe.scratch);
                let r = self.lseek(var, fd, *offset, *whence);
                self.release_fd(fd);
                r
            }
            ProbeCall::Truncate { path, length } => self.truncate(path, *length),
            ProbeCall::Mkdir { path, mode } => self.mkdir(path, *mode),
            ProbeCall::Chmod { path, mode } => self.chmod(path, *mode),
            ProbeCall::CloseDead => {
                let (var, fd) = self.stage_fd(FdSpec::Closed, &probe.scratch);
                self.close(var, fd)
            }
            ProbeCall::Chdir { path } => {
                let r = self.chdir(path);
                if r == 0 {
                    // Probes are built to fail; if one lands, put the cwd
                    // somewhere harmless without polluting the trace.
                    self.kernel.untraced(|k| k.chdir("/"));
                }
                r
            }
            ProbeCall::Setxattr {
                path,
                name,
                size,
                flags,
            } => self.setxattr(path, name, *size, *flags),
            ProbeCall::Getxattr { path, name, size } => self.getxattr(path, name, *size),
        };
        self.kernel.set_current(prev);
        ret
    }

    /// Opens a scratch descriptor per an [`FdSpec`] with logged, traced
    /// calls (so both the recorder and the parsed log know its
    /// provenance). Untraced root staging prepares the paths; the
    /// probing process creates the file itself, so ownership (and quota
    /// accounting) follows the prober.
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

    /// Closes a probe's live descriptor (traced + logged).
    fn release_fd(&mut self, fd: i32) {
        if let Some(idx) = self.resources.iter().position(|&(_, f)| f == fd) {
            self.close_at(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{TestEnv, MOUNT};
    use crate::feedback::campaign_config;
    use iocov_syscalls::precond::{stage_errno, unstage};
    use iocov_syscalls::BaseSyscall;
    use iocov_vfs::Errno;

    /// The campaign's own kernel: `campaign_config()` limits over the
    /// standard namespace, `/etc/fstab` included.
    fn campaign_env() -> TestEnv {
        TestEnv::new().with_config(campaign_config())
    }

    fn err(e: Errno) -> RawRet {
        -i64::from(e.number())
    }

    /// Every supported pair, as the feedback engine consumes them.
    fn supported_pairs() -> Vec<(BaseSyscall, Errno)> {
        use BaseSyscall::*;
        use Errno::*;
        vec![
            (Open, ENOENT),
            (Open, EEXIST),
            (Open, EISDIR),
            (Open, ENOTDIR),
            (Open, ENAMETOOLONG),
            (Open, ELOOP),
            (Open, EACCES),
            (Open, EINVAL),
            (Open, EMFILE),
            (Open, ENFILE),
            (Open, EROFS),
            (Open, ENOSPC),
            (Read, EBADF),
            (Read, EISDIR),
            (Write, EBADF),
            (Write, EFBIG),
            (Write, ENOSPC),
            (Write, EDQUOT),
            (Lseek, EBADF),
            (Lseek, EINVAL),
            (Lseek, ENXIO),
            (Truncate, ENOENT),
            (Truncate, EISDIR),
            (Truncate, ENOTDIR),
            (Truncate, ENAMETOOLONG),
            (Truncate, ELOOP),
            (Truncate, EINVAL),
            (Truncate, EACCES),
            (Truncate, EFBIG),
            (Truncate, EROFS),
            (Mkdir, EEXIST),
            (Mkdir, ENOENT),
            (Mkdir, ENOTDIR),
            (Mkdir, ENAMETOOLONG),
            (Mkdir, ELOOP),
            (Mkdir, EACCES),
            (Mkdir, EROFS),
            (Mkdir, ENOSPC),
            (Chmod, ENOENT),
            (Chmod, ENOTDIR),
            (Chmod, ENAMETOOLONG),
            (Chmod, ELOOP),
            (Chmod, EPERM),
            (Chmod, EACCES),
            (Chmod, EROFS),
            (Close, EBADF),
            (Chdir, ENOENT),
            (Chdir, ENOTDIR),
            (Chdir, ENAMETOOLONG),
            (Chdir, ELOOP),
            (Chdir, EACCES),
            (Setxattr, ENOENT),
            (Setxattr, EEXIST),
            (Setxattr, ENODATA),
            (Setxattr, ERANGE),
            (Setxattr, E2BIG),
            (Setxattr, EROFS),
            (Getxattr, ENOENT),
            (Getxattr, ENODATA),
            (Getxattr, ERANGE),
        ]
    }

    #[test]
    fn every_staged_probe_elicits_its_target_errno() {
        let env = campaign_env();
        for (i, (base, errno)) in supported_pairs().into_iter().enumerate() {
            let mut k = env.fresh_kernel();
            let probe = stage_errno(&mut k, MOUNT, HELPER, base, errno, i as u64)
                .unwrap_or_else(|| panic!("{base:?}/{errno:?} failed to stage"));
            let mut log = String::new();
            let ret = Executor::new(&mut k, &mut log).run_probe(&probe);
            assert_eq!(
                ret,
                err(errno),
                "{base:?}/{errno:?}: got {ret} ({})",
                Errno::from_number(i32::try_from(-ret).unwrap_or(0).unsigned_abs())
                    .map_or("?", Errno::name),
            );
            unstage(&mut k, &probe);
            // One log line per traced call, the probe's staging included.
            assert_eq!(
                log.lines().count(),
                env.take_trace().len(),
                "{base:?}/{errno:?}"
            );
        }
    }

    #[test]
    fn unstage_restores_a_usable_file_system() {
        let env = campaign_env();
        let mut k = env.fresh_kernel();
        let mut log = String::new();
        // EROFS leaves the fs read-only until unstaged.
        let probe = stage_errno(&mut k, MOUNT, HELPER, BaseSyscall::Mkdir, Errno::EROFS, 1)
            .expect("stage EROFS");
        assert_eq!(
            Executor::new(&mut k, &mut log).run_probe(&probe),
            err(Errno::EROFS)
        );
        unstage(&mut k, &probe);
        assert_eq!(k.mkdir(&format!("{MOUNT}/after-ro"), 0o755), 0);

        // EMFILE leaves the descriptor table full until unstaged.
        let probe = stage_errno(&mut k, MOUNT, HELPER, BaseSyscall::Open, Errno::EMFILE, 2)
            .expect("stage EMFILE");
        assert_eq!(
            Executor::new(&mut k, &mut log).run_probe(&probe),
            err(Errno::EMFILE)
        );
        unstage(&mut k, &probe);
        let fd = k.open(&format!("{MOUNT}/after-ro"), 0, 0);
        assert!(fd >= 0, "fd table should have room again: {fd}");
        k.close(fd as i32);

        // ENOSPC (inodes) leaves no room for new files until unstaged.
        let probe = stage_errno(&mut k, MOUNT, HELPER, BaseSyscall::Mkdir, Errno::ENOSPC, 3)
            .expect("stage ENOSPC");
        assert_eq!(
            Executor::new(&mut k, &mut log).run_probe(&probe),
            err(Errno::ENOSPC)
        );
        unstage(&mut k, &probe);
        assert_eq!(k.mkdir(&format!("{MOUNT}/after-nospc"), 0o755), 0);
    }

    #[test]
    fn staging_never_pollutes_the_trace() {
        let env = campaign_env();
        let mut k = env.fresh_kernel();
        // A staging-heavy pair: quota fill writes megabytes untraced.
        let probe = stage_errno(&mut k, MOUNT, HELPER, BaseSyscall::Write, Errno::EDQUOT, 4)
            .expect("stage EDQUOT");
        assert_eq!(env.recorder().len(), 0, "staging must be untraced");
        let mut log = String::new();
        let ret = Executor::new(&mut k, &mut log).run_probe(&probe);
        assert_eq!(ret, err(Errno::EDQUOT));
        let events = env.take_trace();
        // The probe itself is traced: an open, the failing write, a close.
        assert!(events.len() >= 3 && events.len() <= 6, "{}", events.len());
        assert!(events
            .iter()
            .any(|e| e.name == "write" && e.retval == err(Errno::EDQUOT)));
        assert_eq!(log.lines().count(), events.len());
        unstage(&mut k, &probe);
    }
}
