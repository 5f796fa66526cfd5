//! The `Kernel`: syscall entry points over the VFS, with trace emission.

use std::sync::Arc;

use iocov_trace::{ArgValue, Recorder, TraceEvent};
use iocov_vfs::{
    Errno, FaultAction, Mode, OpCtx, OpenFlags, Pid, ResolveFlags, Vfs, Whence, WriteSource,
    XattrFlags, XattrValue,
};

use crate::sysno::Sysno;

/// The raw return value of a syscall: `>= 0` on success, `-errno` on
/// failure — exactly what the tracer records.
pub type RawRet = i64;

/// A simulated kernel: the syscall ABI over an [`iocov_vfs::Vfs`].
///
/// Every method mirrors one Linux syscall prototype, marshals the raw
/// argument words, executes the operation on the VFS, applies any
/// return-value-override faults (exit-path "output bugs"), and emits a
/// [`TraceEvent`] when a recorder is attached — the in-process equivalent
/// of LTTng's `syscall_entry`/`syscall_exit` tracepoints.
///
/// # Examples
///
/// ```
/// use iocov_syscalls::Kernel;
/// use iocov_trace::Recorder;
/// use std::sync::Arc;
///
/// let recorder = Arc::new(Recorder::new());
/// let mut kernel = Kernel::new();
/// kernel.attach_recorder(Arc::clone(&recorder));
///
/// let fd = kernel.open("/f", 0o101 /* O_CREAT|O_WRONLY */, 0o644);
/// assert!(fd >= 0);
/// assert_eq!(kernel.write(fd as i32, b"hi"), 2);
/// assert_eq!(kernel.close(fd as i32), 0);
/// assert_eq!(recorder.take().len(), 3);
/// ```
#[derive(Debug)]
pub struct Kernel {
    vfs: Vfs,
    recorder: Option<Arc<Recorder>>,
    current: Pid,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

/// Converts a typed VFS result into a raw return value.
fn raw<T: Into<i64>>(result: Result<T, Errno>) -> RawRet {
    match result {
        Ok(v) => v.into(),
        Err(e) => e.as_retval(),
    }
}

impl Kernel {
    /// A kernel over a freshly created file system.
    #[must_use]
    pub fn new() -> Self {
        Kernel::with_vfs(Vfs::new())
    }

    /// A kernel over an existing file system.
    #[must_use]
    pub fn with_vfs(vfs: Vfs) -> Self {
        let current = vfs.default_pid();
        Kernel {
            vfs,
            recorder: None,
            current,
        }
    }

    /// Attaches a trace recorder; subsequent syscalls emit events.
    pub fn attach_recorder(&mut self, recorder: Arc<Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Detaches the recorder.
    pub fn detach_recorder(&mut self) {
        self.recorder = None;
    }

    /// Runs `f` with tracing suspended, then restores the recorder.
    ///
    /// Setup and teardown work (staging preconditions, filling quotas,
    /// cleaning scratch files) must not pollute the coverage trace; this
    /// scopes the suppression so callers cannot forget to re-attach.
    pub fn untraced<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let recorder = self.recorder.take();
        let out = f(self);
        self.recorder = recorder;
        out
    }

    /// The underlying file system.
    #[must_use]
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Mutable access to the underlying file system (setup, crash
    /// injection, remounts).
    pub fn vfs_mut(&mut self) -> &mut Vfs {
        &mut self.vfs
    }

    /// The pid syscalls execute as.
    #[must_use]
    pub fn current(&self) -> Pid {
        self.current
    }

    /// Switches the current process.
    pub fn set_current(&mut self, pid: Pid) {
        self.current = pid;
    }

    fn trace(&self, sysno: Sysno, args: Vec<ArgValue>, retval: RawRet) {
        if let Some(rec) = &self.recorder {
            let mut event = TraceEvent::build(sysno.name(), sysno.number(), args, retval);
            event.pid = self.current.0;
            rec.record(event);
        }
    }

    /// Emits an event for a syscall outside the 27 modelled ones
    /// (tester-internal noise, fsync, unlink, …).
    fn trace_aux(&self, name: &str, number: u32, args: Vec<ArgValue>, retval: RawRet) {
        if let Some(rec) = &self.recorder {
            let mut event = TraceEvent::build(name, number, args, retval);
            event.pid = self.current.0;
            rec.record(event);
        }
    }

    /// Applies a post-execution return-value override from the fault
    /// hook, modelling exit-path output bugs.
    fn override_ret(&self, op: &'static str, path: Option<&str>, ret: RawRet) -> RawRet {
        self.override_ret_sized(op, path, None, ret)
    }

    /// Like [`override_ret`](Self::override_ret), with the size/count
    /// argument exposed so size-triggered output bugs can fire at the
    /// ABI layer.
    fn override_ret_sized(
        &self,
        op: &'static str,
        path: Option<&str>,
        size: Option<u64>,
        ret: RawRet,
    ) -> RawRet {
        let Some(hook) = self.vfs.fault_hook() else {
            return ret;
        };
        let ctx = OpCtx {
            op,
            pid: Some(self.current),
            path,
            size,
            ..OpCtx::default()
        };
        match hook.intercept(&ctx) {
            Some(FaultAction::OverrideReturn(v)) => v,
            _ => ret,
        }
    }

    // ------------------------------------------------------------------
    // open family
    // ------------------------------------------------------------------

    /// `open(2)`.
    pub fn open(&mut self, path: &str, flags: u32, mode: u32) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .open(
                pid,
                path,
                OpenFlags::from_bits(flags),
                Mode::from_bits(mode),
            )
            .map(i64::from);
        let ret = self.override_ret("open", Some(path), raw(result));
        self.trace(
            Sysno::Open,
            vec![
                ArgValue::Path(path.to_owned()),
                ArgValue::Flags(flags),
                ArgValue::Mode(mode),
            ],
            ret,
        );
        ret
    }

    /// `open(2)` with a NULL pathname pointer (`EFAULT`).
    pub fn open_badptr(&mut self, flags: u32, mode: u32) -> RawRet {
        let ret = Errno::EFAULT.as_retval();
        self.trace(
            Sysno::Open,
            vec![
                ArgValue::Ptr(0),
                ArgValue::Flags(flags),
                ArgValue::Mode(mode),
            ],
            ret,
        );
        ret
    }

    /// `openat(2)`.
    pub fn openat(&mut self, dirfd: i32, path: &str, flags: u32, mode: u32) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .openat(
                pid,
                dirfd,
                path,
                OpenFlags::from_bits(flags),
                Mode::from_bits(mode),
            )
            .map(i64::from);
        let ret = self.override_ret("openat", Some(path), raw(result));
        self.trace(
            Sysno::Openat,
            vec![
                ArgValue::Fd(dirfd),
                ArgValue::Path(path.to_owned()),
                ArgValue::Flags(flags),
                ArgValue::Mode(mode),
            ],
            ret,
        );
        ret
    }

    /// `creat(2)`.
    pub fn creat(&mut self, path: &str, mode: u32) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .creat(pid, path, Mode::from_bits(mode))
            .map(i64::from);
        let ret = self.override_ret("creat", Some(path), raw(result));
        self.trace(
            Sysno::Creat,
            vec![ArgValue::Path(path.to_owned()), ArgValue::Mode(mode)],
            ret,
        );
        ret
    }

    /// `openat2(2)`.
    pub fn openat2(
        &mut self,
        dirfd: i32,
        path: &str,
        flags: u32,
        mode: u32,
        resolve: u32,
    ) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .openat2(
                pid,
                dirfd,
                path,
                OpenFlags::from_bits(flags),
                Mode::from_bits(mode),
                ResolveFlags::from_bits(resolve),
            )
            .map(i64::from);
        let ret = self.override_ret("openat2", Some(path), raw(result));
        self.trace(
            Sysno::Openat2,
            vec![
                ArgValue::Fd(dirfd),
                ArgValue::Path(path.to_owned()),
                ArgValue::Flags(flags),
                ArgValue::Mode(mode),
                ArgValue::Flags(resolve),
            ],
            ret,
        );
        ret
    }

    /// `close(2)`.
    pub fn close(&mut self, fd: i32) -> RawRet {
        let pid = self.current;
        let result = self.vfs.close(pid, fd).map(|()| 0i64);
        let ret = self.override_ret("close", None, raw(result));
        self.trace(Sysno::Close, vec![ArgValue::Fd(fd)], ret);
        ret
    }

    // ------------------------------------------------------------------
    // read family
    // ------------------------------------------------------------------

    /// `read(2)`: fills `buf`, returns bytes read.
    pub fn read(&mut self, fd: i32, buf: &mut [u8]) -> RawRet {
        let pid = self.current;
        let count = buf.len() as u64;
        let result = self.vfs.read_into(pid, fd, buf).map(|n| n as i64);
        let ret = self.override_ret_sized("read", None, Some(count), raw(result));
        self.trace(
            Sysno::Read,
            vec![ArgValue::Fd(fd), ArgValue::Ptr(1), ArgValue::UInt(count)],
            ret,
        );
        ret
    }

    /// `read(2)` discarding the data (workload-generator fast path; the
    /// requested `count` may exceed practical buffer sizes).
    pub fn read_discard(&mut self, fd: i32, count: u64) -> RawRet {
        let pid = self.current;
        let result = self.vfs.read_count(pid, fd, count).map(|n| n as i64);
        let ret = self.override_ret_sized("read", None, Some(count), raw(result));
        self.trace(
            Sysno::Read,
            vec![ArgValue::Fd(fd), ArgValue::Ptr(1), ArgValue::UInt(count)],
            ret,
        );
        ret
    }

    /// `read(2)` with a NULL buffer (`EFAULT` unless `count == 0`).
    pub fn read_null(&mut self, fd: i32, count: u64) -> RawRet {
        let ret = if count == 0 {
            0
        } else {
            Errno::EFAULT.as_retval()
        };
        self.trace(
            Sysno::Read,
            vec![ArgValue::Fd(fd), ArgValue::Ptr(0), ArgValue::UInt(count)],
            ret,
        );
        ret
    }

    /// `pread64(2)`.
    pub fn pread64(&mut self, fd: i32, count: u64, offset: i64) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .pread_count(pid, fd, count, offset)
            .map(|n| n as i64);
        let ret = self.override_ret_sized("pread64", None, Some(count), raw(result));
        self.trace(
            Sysno::Pread64,
            vec![
                ArgValue::Fd(fd),
                ArgValue::Ptr(1),
                ArgValue::UInt(count),
                ArgValue::Int(offset),
            ],
            ret,
        );
        ret
    }

    /// `readv(2)`: the tracer resolves the iovec to its total byte count,
    /// as LTTng payload extraction would (saturating at `u64::MAX`; a
    /// total past `isize::MAX` fails `EINVAL`).
    pub fn readv(&mut self, fd: i32, iov_lens: &[u64]) -> RawRet {
        let pid = self.current;
        let total = iov_lens
            .iter()
            .fold(0u64, |sum, &len| sum.saturating_add(len));
        let result = self.vfs.readv_count(pid, fd, iov_lens).map(|n| n as i64);
        let ret = self.override_ret_sized("readv", None, Some(total), raw(result));
        self.trace(
            Sysno::Readv,
            vec![ArgValue::Fd(fd), ArgValue::Ptr(1), ArgValue::UInt(total)],
            ret,
        );
        ret
    }

    // ------------------------------------------------------------------
    // write family
    // ------------------------------------------------------------------

    /// `write(2)`.
    pub fn write(&mut self, fd: i32, data: &[u8]) -> RawRet {
        let pid = self.current;
        let count = data.len() as u64;
        let result = self.vfs.write(pid, fd, data).map(|n| n as i64);
        let ret = self.override_ret_sized("write", None, Some(count), raw(result));
        self.trace(
            Sysno::Write,
            vec![ArgValue::Fd(fd), ArgValue::Ptr(1), ArgValue::UInt(count)],
            ret,
        );
        ret
    }

    /// `write(2)` of `len` copies of `byte` (O(1) memory; used for the
    /// paper's multi-hundred-MiB writes).
    pub fn write_fill(&mut self, fd: i32, byte: u8, len: u64) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .write_src(pid, fd, WriteSource::Fill { byte, len })
            .map(|n| n as i64);
        let ret = self.override_ret_sized("write", None, Some(len), raw(result));
        self.trace(
            Sysno::Write,
            vec![ArgValue::Fd(fd), ArgValue::Ptr(1), ArgValue::UInt(len)],
            ret,
        );
        ret
    }

    /// `write(2)` with a NULL buffer (`EFAULT` unless `count == 0`).
    pub fn write_null(&mut self, fd: i32, count: u64) -> RawRet {
        let ret = if count == 0 {
            0
        } else {
            Errno::EFAULT.as_retval()
        };
        self.trace(
            Sysno::Write,
            vec![ArgValue::Fd(fd), ArgValue::Ptr(0), ArgValue::UInt(count)],
            ret,
        );
        ret
    }

    /// `pwrite64(2)`.
    pub fn pwrite64(&mut self, fd: i32, data: &[u8], offset: i64) -> RawRet {
        let pid = self.current;
        let count = data.len() as u64;
        let result = self
            .vfs
            .pwrite(pid, fd, WriteSource::Bytes(data), offset)
            .map(|n| n as i64);
        let ret = self.override_ret_sized("pwrite64", None, Some(count), raw(result));
        self.trace(
            Sysno::Pwrite64,
            vec![
                ArgValue::Fd(fd),
                ArgValue::Ptr(1),
                ArgValue::UInt(count),
                ArgValue::Int(offset),
            ],
            ret,
        );
        ret
    }

    /// `pwrite64(2)` of a fill pattern.
    pub fn pwrite64_fill(&mut self, fd: i32, byte: u8, len: u64, offset: i64) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .pwrite(pid, fd, WriteSource::Fill { byte, len }, offset)
            .map(|n| n as i64);
        let ret = self.override_ret_sized("pwrite64", None, Some(len), raw(result));
        self.trace(
            Sysno::Pwrite64,
            vec![
                ArgValue::Fd(fd),
                ArgValue::Ptr(1),
                ArgValue::UInt(len),
                ArgValue::Int(offset),
            ],
            ret,
        );
        ret
    }

    /// `writev(2)`: traced with the iovec's total byte count.
    pub fn writev(&mut self, fd: i32, iovs: &[&[u8]]) -> RawRet {
        let pid = self.current;
        let total: u64 = iovs.iter().map(|s| s.len() as u64).sum();
        let result = self.vfs.writev(pid, fd, iovs).map(|n| n as i64);
        let ret = self.override_ret_sized("writev", None, Some(total), raw(result));
        self.trace(
            Sysno::Writev,
            vec![ArgValue::Fd(fd), ArgValue::Ptr(1), ArgValue::UInt(total)],
            ret,
        );
        ret
    }

    // ------------------------------------------------------------------
    // lseek / truncate
    // ------------------------------------------------------------------

    /// `lseek(2)`. An out-of-range `whence` fails `EINVAL` at the ABI
    /// boundary, before reaching the VFS.
    pub fn lseek(&mut self, fd: i32, offset: i64, whence: u32) -> RawRet {
        let pid = self.current;
        let result = match Whence::from_number(whence) {
            Some(w) => self.vfs.lseek(pid, fd, offset, w).map(|p| p as i64),
            None => Err(Errno::EINVAL),
        };
        let ret = self.override_ret("lseek", None, raw(result));
        self.trace(
            Sysno::Lseek,
            vec![
                ArgValue::Fd(fd),
                ArgValue::Int(offset),
                ArgValue::Whence(whence),
            ],
            ret,
        );
        ret
    }

    /// `truncate(2)`.
    pub fn truncate(&mut self, path: &str, length: i64) -> RawRet {
        let pid = self.current;
        let result = self.vfs.truncate(pid, path, length).map(|()| 0i64);
        let ret = self.override_ret_sized(
            "truncate",
            Some(path),
            Some(length.max(0) as u64),
            raw(result),
        );
        self.trace(
            Sysno::Truncate,
            vec![ArgValue::Path(path.to_owned()), ArgValue::Int(length)],
            ret,
        );
        ret
    }

    /// `ftruncate(2)`.
    pub fn ftruncate(&mut self, fd: i32, length: i64) -> RawRet {
        let pid = self.current;
        let result = self.vfs.ftruncate(pid, fd, length).map(|()| 0i64);
        let ret =
            self.override_ret_sized("ftruncate", None, Some(length.max(0) as u64), raw(result));
        self.trace(
            Sysno::Ftruncate,
            vec![ArgValue::Fd(fd), ArgValue::Int(length)],
            ret,
        );
        ret
    }

    // ------------------------------------------------------------------
    // mkdir / chdir / chmod families
    // ------------------------------------------------------------------

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str, mode: u32) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .mkdir(pid, path, Mode::from_bits(mode))
            .map(|()| 0i64);
        let ret = self.override_ret("mkdir", Some(path), raw(result));
        self.trace(
            Sysno::Mkdir,
            vec![ArgValue::Path(path.to_owned()), ArgValue::Mode(mode)],
            ret,
        );
        ret
    }

    /// `mkdirat(2)`.
    pub fn mkdirat(&mut self, dirfd: i32, path: &str, mode: u32) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .mkdirat(pid, dirfd, path, Mode::from_bits(mode))
            .map(|()| 0i64);
        let ret = self.override_ret("mkdirat", Some(path), raw(result));
        self.trace(
            Sysno::Mkdirat,
            vec![
                ArgValue::Fd(dirfd),
                ArgValue::Path(path.to_owned()),
                ArgValue::Mode(mode),
            ],
            ret,
        );
        ret
    }

    /// `chdir(2)`.
    pub fn chdir(&mut self, path: &str) -> RawRet {
        let pid = self.current;
        let result = self.vfs.chdir(pid, path).map(|()| 0i64);
        let ret = self.override_ret("chdir", Some(path), raw(result));
        self.trace(Sysno::Chdir, vec![ArgValue::Path(path.to_owned())], ret);
        ret
    }

    /// `fchdir(2)`.
    pub fn fchdir(&mut self, fd: i32) -> RawRet {
        let pid = self.current;
        let result = self.vfs.fchdir(pid, fd).map(|()| 0i64);
        let ret = self.override_ret("fchdir", None, raw(result));
        self.trace(Sysno::Fchdir, vec![ArgValue::Fd(fd)], ret);
        ret
    }

    /// `chmod(2)`.
    pub fn chmod(&mut self, path: &str, mode: u32) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .chmod(pid, path, Mode::from_bits(mode))
            .map(|()| 0i64);
        let ret = self.override_ret("chmod", Some(path), raw(result));
        self.trace(
            Sysno::Chmod,
            vec![ArgValue::Path(path.to_owned()), ArgValue::Mode(mode)],
            ret,
        );
        ret
    }

    /// `fchmod(2)`.
    pub fn fchmod(&mut self, fd: i32, mode: u32) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .fchmod(pid, fd, Mode::from_bits(mode))
            .map(|()| 0i64);
        let ret = self.override_ret("fchmod", None, raw(result));
        self.trace(
            Sysno::Fchmod,
            vec![ArgValue::Fd(fd), ArgValue::Mode(mode)],
            ret,
        );
        ret
    }

    /// `fchmodat(2)`.
    pub fn fchmodat(&mut self, dirfd: i32, path: &str, mode: u32, at_flags: u32) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .fchmodat(pid, dirfd, path, Mode::from_bits(mode), at_flags)
            .map(|()| 0i64);
        let ret = self.override_ret("fchmodat", Some(path), raw(result));
        self.trace(
            Sysno::Fchmodat,
            vec![
                ArgValue::Fd(dirfd),
                ArgValue::Path(path.to_owned()),
                ArgValue::Mode(mode),
                ArgValue::Flags(at_flags),
            ],
            ret,
        );
        ret
    }

    // ------------------------------------------------------------------
    // xattr family
    // ------------------------------------------------------------------

    /// `setxattr(2)`.
    pub fn setxattr(&mut self, path: &str, name: &str, value: &[u8], flags: u32) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .setxattr(pid, path, name, value, XattrFlags::from_bits(flags))
            .map(|()| 0i64);
        let ret = self.override_ret("setxattr", Some(path), raw(result));
        self.trace(
            Sysno::Setxattr,
            vec![
                ArgValue::Path(path.to_owned()),
                ArgValue::Str(name.to_owned()),
                ArgValue::Ptr(1),
                ArgValue::UInt(value.len() as u64),
                ArgValue::Flags(flags),
            ],
            ret,
        );
        ret
    }

    /// `lsetxattr(2)`.
    pub fn lsetxattr(&mut self, path: &str, name: &str, value: &[u8], flags: u32) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .lsetxattr(pid, path, name, value, XattrFlags::from_bits(flags))
            .map(|()| 0i64);
        let ret = self.override_ret("lsetxattr", Some(path), raw(result));
        self.trace(
            Sysno::Lsetxattr,
            vec![
                ArgValue::Path(path.to_owned()),
                ArgValue::Str(name.to_owned()),
                ArgValue::Ptr(1),
                ArgValue::UInt(value.len() as u64),
                ArgValue::Flags(flags),
            ],
            ret,
        );
        ret
    }

    /// `fsetxattr(2)`.
    pub fn fsetxattr(&mut self, fd: i32, name: &str, value: &[u8], flags: u32) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .fsetxattr(pid, fd, name, value, XattrFlags::from_bits(flags))
            .map(|()| 0i64);
        let ret = self.override_ret("fsetxattr", None, raw(result));
        self.trace(
            Sysno::Fsetxattr,
            vec![
                ArgValue::Fd(fd),
                ArgValue::Str(name.to_owned()),
                ArgValue::Ptr(1),
                ArgValue::UInt(value.len() as u64),
                ArgValue::Flags(flags),
            ],
            ret,
        );
        ret
    }

    /// `getxattr(2)` with an explicit buffer size (`size == 0` probes the
    /// value length).
    pub fn getxattr(&mut self, path: &str, name: &str, size: u64) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .getxattr(pid, path, name, size)
            .map(|v: XattrValue| v.len() as i64);
        let ret = self.override_ret("getxattr", Some(path), raw(result));
        self.trace(
            Sysno::Getxattr,
            vec![
                ArgValue::Path(path.to_owned()),
                ArgValue::Str(name.to_owned()),
                ArgValue::Ptr(1),
                ArgValue::UInt(size),
            ],
            ret,
        );
        ret
    }

    /// `lgetxattr(2)`.
    pub fn lgetxattr(&mut self, path: &str, name: &str, size: u64) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .lgetxattr(pid, path, name, size)
            .map(|v: XattrValue| v.len() as i64);
        let ret = self.override_ret("lgetxattr", Some(path), raw(result));
        self.trace(
            Sysno::Lgetxattr,
            vec![
                ArgValue::Path(path.to_owned()),
                ArgValue::Str(name.to_owned()),
                ArgValue::Ptr(1),
                ArgValue::UInt(size),
            ],
            ret,
        );
        ret
    }

    /// `fgetxattr(2)`.
    pub fn fgetxattr(&mut self, fd: i32, name: &str, size: u64) -> RawRet {
        let pid = self.current;
        let result = self
            .vfs
            .fgetxattr(pid, fd, name, size)
            .map(|v: XattrValue| v.len() as i64);
        let ret = self.override_ret("fgetxattr", None, raw(result));
        self.trace(
            Sysno::Fgetxattr,
            vec![
                ArgValue::Fd(fd),
                ArgValue::Str(name.to_owned()),
                ArgValue::Ptr(1),
                ArgValue::UInt(size),
            ],
            ret,
        );
        ret
    }

    // ------------------------------------------------------------------
    // Auxiliary syscalls (traced, but outside IOCov's 27-call domain)
    // ------------------------------------------------------------------

    /// `unlink(2)`.
    pub fn unlink(&mut self, path: &str) -> RawRet {
        let pid = self.current;
        let ret = raw(self.vfs.unlink(pid, path).map(|()| 0i64));
        self.trace_aux("unlink", 87, vec![ArgValue::Path(path.to_owned())], ret);
        ret
    }

    /// `rmdir(2)`.
    pub fn rmdir(&mut self, path: &str) -> RawRet {
        let pid = self.current;
        let ret = raw(self.vfs.rmdir(pid, path).map(|()| 0i64));
        self.trace_aux("rmdir", 84, vec![ArgValue::Path(path.to_owned())], ret);
        ret
    }

    /// `rename(2)`.
    pub fn rename(&mut self, old: &str, new: &str) -> RawRet {
        let pid = self.current;
        let ret = raw(self.vfs.rename(pid, old, new).map(|()| 0i64));
        self.trace_aux(
            "rename",
            82,
            vec![
                ArgValue::Path(old.to_owned()),
                ArgValue::Path(new.to_owned()),
            ],
            ret,
        );
        ret
    }

    /// `link(2)`.
    pub fn link(&mut self, existing: &str, new: &str) -> RawRet {
        let pid = self.current;
        let ret = raw(self.vfs.link(pid, existing, new).map(|()| 0i64));
        self.trace_aux(
            "link",
            86,
            vec![
                ArgValue::Path(existing.to_owned()),
                ArgValue::Path(new.to_owned()),
            ],
            ret,
        );
        ret
    }

    /// `symlink(2)`.
    pub fn symlink(&mut self, target: &str, link_path: &str) -> RawRet {
        let pid = self.current;
        let ret = raw(self.vfs.symlink(pid, target, link_path).map(|()| 0i64));
        self.trace_aux(
            "symlink",
            88,
            vec![
                ArgValue::Str(target.to_owned()),
                ArgValue::Path(link_path.to_owned()),
            ],
            ret,
        );
        ret
    }

    /// `fsync(2)`.
    pub fn fsync(&mut self, fd: i32) -> RawRet {
        let pid = self.current;
        let ret = raw(self.vfs.fsync(pid, fd).map(|()| 0i64));
        self.trace_aux("fsync", 74, vec![ArgValue::Fd(fd)], ret);
        ret
    }

    /// `fdatasync(2)`.
    pub fn fdatasync(&mut self, fd: i32) -> RawRet {
        let pid = self.current;
        let ret = raw(self.vfs.fdatasync(pid, fd).map(|()| 0i64));
        self.trace_aux("fdatasync", 75, vec![ArgValue::Fd(fd)], ret);
        ret
    }

    /// `sync(2)`.
    pub fn sync(&mut self) -> RawRet {
        self.vfs.sync();
        self.trace_aux("sync", 162, vec![], 0);
        0
    }

    /// `fallocate(2)`.
    pub fn fallocate(&mut self, fd: i32, mode: u32, offset: i64, length: i64) -> RawRet {
        let pid = self.current;
        let ret = raw(self
            .vfs
            .fallocate(pid, fd, mode, offset, length)
            .map(|()| 0i64));
        self.trace_aux(
            "fallocate",
            285,
            vec![
                ArgValue::Fd(fd),
                ArgValue::Flags(mode),
                ArgValue::Int(offset),
                ArgValue::Int(length),
            ],
            ret,
        );
        ret
    }

    /// `renameat2(2)` (with `AT_FDCWD`-relative paths).
    pub fn renameat2(&mut self, old: &str, new: &str, flags: u32) -> RawRet {
        let pid = self.current;
        let ret = raw(self.vfs.rename2(pid, old, new, flags).map(|()| 0i64));
        self.trace_aux(
            "renameat2",
            316,
            vec![
                ArgValue::Path(old.to_owned()),
                ArgValue::Path(new.to_owned()),
                ArgValue::Flags(flags),
            ],
            ret,
        );
        ret
    }

    /// `stat(2)` (traced; returns 0 or `-errno`).
    pub fn stat(&mut self, path: &str) -> RawRet {
        let pid = self.current;
        let ret = raw(self.vfs.stat(pid, path).map(|_| 0i64));
        self.trace_aux(
            "stat",
            4,
            vec![ArgValue::Path(path.to_owned()), ArgValue::Ptr(1)],
            ret,
        );
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_with_recorder() -> (Kernel, Arc<Recorder>) {
        let recorder = Arc::new(Recorder::new());
        let mut kernel = Kernel::new();
        kernel.attach_recorder(Arc::clone(&recorder));
        (kernel, recorder)
    }

    const O_CREAT_WRONLY: u32 = 0o101;

    #[test]
    fn syscalls_return_raw_abi_values() {
        let (mut k, _rec) = kernel_with_recorder();
        let fd = k.open("/f", O_CREAT_WRONLY, 0o644);
        assert!(fd >= 3);
        assert_eq!(k.write(fd as i32, b"abcd"), 4);
        assert_eq!(k.close(fd as i32), 0);
        assert_eq!(k.open("/missing", 0, 0), -2, "ENOENT is -2");
        assert_eq!(k.close(99), -9, "EBADF is -9");
    }

    #[test]
    fn every_traced_event_matches_the_call() {
        let (mut k, rec) = kernel_with_recorder();
        let fd = k.open("/f", O_CREAT_WRONLY, 0o644) as i32;
        k.write(fd, b"xy");
        k.lseek(fd, 0, 0);
        k.close(fd);
        let trace = rec.take();
        let names: Vec<&str> = trace.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["open", "write", "lseek", "close"]);
        let open = &trace.events()[0];
        assert_eq!(open.sysno, 2);
        assert_eq!(open.primary_path(), Some("/f"));
        assert_eq!(open.args[1], ArgValue::Flags(O_CREAT_WRONLY));
        assert_eq!(open.retval, i64::from(fd));
        let write = &trace.events()[1];
        assert_eq!(write.args[2], ArgValue::UInt(2));
        assert!(write.is_success());
    }

    #[test]
    fn variant_prototypes_trace_distinctly() {
        let (mut k, rec) = kernel_with_recorder();
        k.mkdir("/d", 0o755);
        let dirfd = k.open("/d", 0o200000 /* O_DIRECTORY */, 0) as i32;
        k.openat(dirfd, "f1", O_CREAT_WRONLY, 0o644);
        k.creat("/d/f2", 0o644);
        k.openat2(dirfd, "f3", O_CREAT_WRONLY, 0o644, 0x08 /* BENEATH */);
        k.mkdirat(dirfd, "sub", 0o755);
        k.fchmodat(dirfd, "f1", 0o600, 0);
        let trace = rec.take();
        let names: Vec<&str> = trace.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["mkdir", "open", "openat", "creat", "openat2", "mkdirat", "fchmodat"]
        );
        // openat carries the dirfd as its first argument.
        assert_eq!(trace.events()[2].args[0], ArgValue::Fd(dirfd));
        assert_eq!(trace.events()[4].sysno, 437);
    }

    #[test]
    fn read_write_variants() {
        let (mut k, rec) = kernel_with_recorder();
        let fd = k.open("/f", 0o102 /* O_CREAT|O_RDWR */, 0o644) as i32;
        assert_eq!(k.pwrite64(fd, b"0123456789", 0), 10);
        assert_eq!(k.pread64(fd, 4, 2), 4);
        let mut buf = [0u8; 4];
        assert_eq!(k.read(fd, &mut buf), 4);
        assert_eq!(&buf, b"0123");
        // Offset is 4 after read(); writev overwrites bytes 4..7.
        assert_eq!(k.writev(fd, &[b"ab", b"c"]), 3);
        // Only three bytes remain past offset 7.
        assert_eq!(k.readv(fd, &[2, 2]), 3);
        assert_eq!(k.read_discard(fd, 1 << 20), 0, "at EOF");
        assert_eq!(k.pread64(fd, 16, 0), 10);
        let trace = rec.take();
        let readv = trace.iter().find(|e| e.name == "readv").unwrap();
        assert_eq!(readv.args[2], ArgValue::UInt(4), "iovec resolved to bytes");
    }

    #[test]
    fn huge_read_counts_return_what_is_left() {
        let (mut k, rec) = kernel_with_recorder();
        let fd = k.open("/f", 0o102, 0o644) as i32;
        assert_eq!(k.write(fd, b"0123456789"), 10);
        assert_eq!(k.pread64(fd, u64::MAX, 5), 5);
        assert_eq!(k.lseek(fd, 5, 0), 5);
        assert_eq!(k.read_discard(fd, u64::MAX), 5);
        assert_eq!(k.lseek(fd, 5, 0), 5);
        assert_eq!(k.readv(fd, &[u64::MAX / 4, 3]), 5);
        let trace = rec.take();
        let pread = trace.iter().find(|e| e.name == "pread64").unwrap();
        assert_eq!(
            pread.args[2],
            ArgValue::UInt(u64::MAX),
            "traced as requested"
        );
    }

    #[test]
    fn readv_total_past_ssize_max_is_einval() {
        let (mut k, rec) = kernel_with_recorder();
        let fd = k.open("/f", 0o102, 0o644) as i32;
        assert_eq!(k.write(fd, b"0123456789"), 10);
        assert_eq!(k.lseek(fd, 0, 0), 0);
        assert_eq!(k.readv(fd, &[u64::MAX, 2]), -22, "sum overflows u64");
        assert_eq!(k.readv(fd, &[1 << 62, 1 << 62]), -22, "sum past isize::MAX");
        assert_eq!(k.lseek(fd, 0, 1), 0, "offset unmoved");
        let trace = rec.take();
        let totals: Vec<&ArgValue> = trace
            .iter()
            .filter(|e| e.name == "readv")
            .map(|e| &e.args[2])
            .collect();
        assert_eq!(
            totals,
            [&ArgValue::UInt(u64::MAX), &ArgValue::UInt(1 << 63)],
            "the traced total saturates"
        );
    }

    #[test]
    fn efault_simulations() {
        let (mut k, rec) = kernel_with_recorder();
        let fd = k.open("/f", 0o102, 0o644) as i32;
        assert_eq!(k.read_null(fd, 16), -14);
        assert_eq!(k.read_null(fd, 0), 0);
        assert_eq!(k.write_null(fd, 16), -14);
        assert_eq!(k.open_badptr(0, 0), -14);
        let trace = rec.take();
        let badptr = trace.iter().filter(|e| e.retval == -14).count();
        assert_eq!(badptr, 3);
    }

    #[test]
    fn invalid_whence_is_einval_at_abi_boundary() {
        let (mut k, _rec) = kernel_with_recorder();
        let fd = k.open("/f", 0o102, 0o644) as i32;
        assert_eq!(k.lseek(fd, 0, 99), -22);
    }

    #[test]
    fn write_fill_matches_byte_write() {
        let (mut k, _rec) = kernel_with_recorder();
        let fd = k.open("/a", 0o102, 0o644) as i32;
        assert_eq!(k.write_fill(fd, b'z', 1000), 1000);
        assert_eq!(k.pread64(fd, 1000, 0), 1000);
        assert_eq!(k.pwrite64_fill(fd, b'y', 8, 4), 8);
        let mut buf = [0u8; 2];
        k.lseek(fd, 3, 0);
        k.read(fd, &mut buf);
        assert_eq!(&buf, b"zy");
    }

    #[test]
    fn xattr_abi_roundtrip() {
        let (mut k, rec) = kernel_with_recorder();
        k.creat("/f", 0o644);
        assert_eq!(k.setxattr("/f", "user.k", b"value", 0), 0);
        assert_eq!(k.getxattr("/f", "user.k", 64), 5);
        assert_eq!(k.getxattr("/f", "user.k", 0), 5, "size probe");
        assert_eq!(k.getxattr("/f", "user.k", 2), -34, "ERANGE");
        assert_eq!(k.getxattr("/f", "user.miss", 64), -61, "ENODATA");
        k.symlink("/f", "/l");
        assert_eq!(k.lsetxattr("/l", "user.k", b"v", 0), -1, "EPERM on symlink");
        let fd = k.open("/f", 0, 0) as i32;
        assert_eq!(k.fsetxattr(fd, "user.k2", b"v2", 0x1), 0);
        assert_eq!(k.fgetxattr(fd, "user.k2", 8), 2);
        assert_eq!(k.lgetxattr("/l", "user.k", 8), -61, "link itself has none");
        let trace = rec.take();
        assert!(trace.iter().any(|e| e.name == "fsetxattr"));
    }

    #[test]
    fn aux_syscalls_are_traced_as_noise() {
        let (mut k, rec) = kernel_with_recorder();
        k.creat("/f", 0o644);
        k.stat("/f");
        k.rename("/f", "/g");
        k.unlink("/g");
        k.sync();
        let trace = rec.take();
        let names: Vec<&str> = trace.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["creat", "stat", "rename", "unlink", "sync"]);
    }

    #[test]
    fn override_return_fault_corrupts_exit_path() {
        use iocov_vfs::{FaultHook, OpCtx};
        struct WrongRet;
        impl FaultHook for WrongRet {
            fn intercept(&self, ctx: &OpCtx<'_>) -> Option<FaultAction> {
                // An output bug: write reports one byte fewer than written.
                (ctx.op == "write").then_some(FaultAction::OverrideReturn(3))
            }
        }
        let (mut k, rec) = kernel_with_recorder();
        let fd = k.open("/f", 0o102, 0o644) as i32;
        k.vfs_mut().set_fault_hook(Arc::new(WrongRet));
        assert_eq!(k.write(fd, b"abcd"), 3, "output bug visible at ABI");
        // The data was actually written in full.
        k.vfs_mut().clear_fault_hook();
        assert_eq!(k.pread64(fd, 8, 0), 4);
        let trace = rec.take();
        let write = trace.iter().find(|e| e.name == "write").unwrap();
        assert_eq!(write.retval, 3, "trace sees the corrupted value");
    }

    #[test]
    fn process_switching() {
        let (mut k, _rec) = kernel_with_recorder();
        k.vfs_mut()
            .spawn_process(Pid(7), iocov_vfs::Uid(1000), iocov_vfs::Gid(1000));
        k.creat("/rootfile", 0o600);
        k.set_current(Pid(7));
        assert_eq!(k.current(), Pid(7));
        assert_eq!(k.open("/rootfile", 0, 0), -13, "EACCES as uid 1000");
        k.set_current(Pid(1));
        assert!(k.open("/rootfile", 0, 0) >= 0);
    }
}
