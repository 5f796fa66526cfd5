//! POSIX error numbers returned by the in-memory file system.

use std::error::Error;
use std::fmt;

/// A POSIX `errno` value, using x86-64 Linux numbering.
///
/// The variants cover every error the 27 modelled file-system syscalls can
/// return per their manual pages — the same universe the IOCov paper uses
/// for the output-coverage axis of its Figure 4.
///
/// ```
/// use iocov_vfs::Errno;
///
/// assert_eq!(Errno::ENOENT.number(), 2);
/// assert_eq!(Errno::ENOENT.name(), "ENOENT");
/// assert_eq!(Errno::from_number(28), Some(Errno::ENOSPC));
/// assert_eq!(Errno::ENOSPC.to_string(), "ENOSPC: no space left on device");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(clippy::upper_case_acronyms)]
pub enum Errno {
    /// Operation not permitted.
    EPERM,
    /// No such file or directory.
    ENOENT,
    /// Interrupted system call.
    EINTR,
    /// Input/output error.
    EIO,
    /// No such device or address.
    ENXIO,
    /// Argument list too long (also: xattr value too large).
    E2BIG,
    /// Bad file descriptor.
    EBADF,
    /// Resource temporarily unavailable.
    EAGAIN,
    /// Cannot allocate memory.
    ENOMEM,
    /// Permission denied.
    EACCES,
    /// Bad address.
    EFAULT,
    /// Device or resource busy.
    EBUSY,
    /// File exists.
    EEXIST,
    /// Invalid cross-device link.
    EXDEV,
    /// No such device.
    ENODEV,
    /// Not a directory.
    ENOTDIR,
    /// Is a directory.
    EISDIR,
    /// Invalid argument.
    EINVAL,
    /// Too many open files in system.
    ENFILE,
    /// Too many open files (per process).
    EMFILE,
    /// Text file busy.
    ETXTBSY,
    /// File too large.
    EFBIG,
    /// No space left on device.
    ENOSPC,
    /// Illegal seek.
    ESPIPE,
    /// Read-only file system.
    EROFS,
    /// Too many links.
    EMLINK,
    /// Numerical result out of range (xattr buffer too small).
    ERANGE,
    /// File name too long.
    ENAMETOOLONG,
    /// Directory not empty.
    ENOTEMPTY,
    /// Too many levels of symbolic links.
    ELOOP,
    /// No data available (xattr does not exist).
    ENODATA,
    /// Value too large for defined data type.
    EOVERFLOW,
    /// Operation not supported.
    EOPNOTSUPP,
    /// Disk quota exceeded.
    EDQUOT,
}

impl Errno {
    /// All errno values, in ascending numeric order.
    pub const ALL: [Errno; 34] = [
        Errno::EPERM,
        Errno::ENOENT,
        Errno::EINTR,
        Errno::EIO,
        Errno::ENXIO,
        Errno::E2BIG,
        Errno::EBADF,
        Errno::EAGAIN,
        Errno::ENOMEM,
        Errno::EACCES,
        Errno::EFAULT,
        Errno::EBUSY,
        Errno::EEXIST,
        Errno::EXDEV,
        Errno::ENODEV,
        Errno::ENOTDIR,
        Errno::EISDIR,
        Errno::EINVAL,
        Errno::ENFILE,
        Errno::EMFILE,
        Errno::ETXTBSY,
        Errno::EFBIG,
        Errno::ENOSPC,
        Errno::ESPIPE,
        Errno::EROFS,
        Errno::EMLINK,
        Errno::ERANGE,
        Errno::ENAMETOOLONG,
        Errno::ENOTEMPTY,
        Errno::ELOOP,
        Errno::ENODATA,
        Errno::EOVERFLOW,
        Errno::EOPNOTSUPP,
        Errno::EDQUOT,
    ];

    /// The Linux x86-64 errno number.
    #[must_use]
    pub const fn number(self) -> u32 {
        match self {
            Errno::EPERM => 1,
            Errno::ENOENT => 2,
            Errno::EINTR => 4,
            Errno::EIO => 5,
            Errno::ENXIO => 6,
            Errno::E2BIG => 7,
            Errno::EBADF => 9,
            Errno::EAGAIN => 11,
            Errno::ENOMEM => 12,
            Errno::EACCES => 13,
            Errno::EFAULT => 14,
            Errno::EBUSY => 16,
            Errno::EEXIST => 17,
            Errno::EXDEV => 18,
            Errno::ENODEV => 19,
            Errno::ENOTDIR => 20,
            Errno::EISDIR => 21,
            Errno::EINVAL => 22,
            Errno::ENFILE => 23,
            Errno::EMFILE => 24,
            Errno::ETXTBSY => 26,
            Errno::EFBIG => 27,
            Errno::ENOSPC => 28,
            Errno::ESPIPE => 29,
            Errno::EROFS => 30,
            Errno::EMLINK => 31,
            Errno::ERANGE => 34,
            Errno::ENAMETOOLONG => 36,
            Errno::ENOTEMPTY => 39,
            Errno::ELOOP => 40,
            Errno::ENODATA => 61,
            Errno::EOVERFLOW => 75,
            Errno::EOPNOTSUPP => 95,
            Errno::EDQUOT => 122,
        }
    }

    /// This errno's position in [`Errno::ALL`] — a dense array index.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Looks up an errno by number, through a table indexed by number.
    #[must_use]
    pub fn from_number(number: u32) -> Option<Errno> {
        /// One past each number's position in [`Errno::ALL`]; 0 for
        /// numbers no errno has.
        const BY_NUMBER: [u8; 128] = {
            let mut table = [0; 128];
            let mut i = 0;
            while i < Errno::ALL.len() {
                table[Errno::ALL[i].number() as usize] = i as u8 + 1;
                i += 1;
            }
            table
        };
        let slot = *BY_NUMBER.get(usize::try_from(number).ok()?)?;
        Some(Errno::ALL[usize::from(slot.checked_sub(1)?)])
    }

    /// The symbolic name, e.g. `"ENOENT"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Errno::EPERM => "EPERM",
            Errno::ENOENT => "ENOENT",
            Errno::EINTR => "EINTR",
            Errno::EIO => "EIO",
            Errno::ENXIO => "ENXIO",
            Errno::E2BIG => "E2BIG",
            Errno::EBADF => "EBADF",
            Errno::EAGAIN => "EAGAIN",
            Errno::ENOMEM => "ENOMEM",
            Errno::EACCES => "EACCES",
            Errno::EFAULT => "EFAULT",
            Errno::EBUSY => "EBUSY",
            Errno::EEXIST => "EEXIST",
            Errno::EXDEV => "EXDEV",
            Errno::ENODEV => "ENODEV",
            Errno::ENOTDIR => "ENOTDIR",
            Errno::EISDIR => "EISDIR",
            Errno::EINVAL => "EINVAL",
            Errno::ENFILE => "ENFILE",
            Errno::EMFILE => "EMFILE",
            Errno::ETXTBSY => "ETXTBSY",
            Errno::EFBIG => "EFBIG",
            Errno::ENOSPC => "ENOSPC",
            Errno::ESPIPE => "ESPIPE",
            Errno::EROFS => "EROFS",
            Errno::EMLINK => "EMLINK",
            Errno::ERANGE => "ERANGE",
            Errno::ENAMETOOLONG => "ENAMETOOLONG",
            Errno::ENOTEMPTY => "ENOTEMPTY",
            Errno::ELOOP => "ELOOP",
            Errno::ENODATA => "ENODATA",
            Errno::EOVERFLOW => "EOVERFLOW",
            Errno::EOPNOTSUPP => "EOPNOTSUPP",
            Errno::EDQUOT => "EDQUOT",
        }
    }

    /// A short human-readable description (as `strerror` would give).
    #[must_use]
    pub fn strerror(self) -> &'static str {
        match self {
            Errno::EPERM => "operation not permitted",
            Errno::ENOENT => "no such file or directory",
            Errno::EINTR => "interrupted system call",
            Errno::EIO => "input/output error",
            Errno::ENXIO => "no such device or address",
            Errno::E2BIG => "argument list too long",
            Errno::EBADF => "bad file descriptor",
            Errno::EAGAIN => "resource temporarily unavailable",
            Errno::ENOMEM => "cannot allocate memory",
            Errno::EACCES => "permission denied",
            Errno::EFAULT => "bad address",
            Errno::EBUSY => "device or resource busy",
            Errno::EEXIST => "file exists",
            Errno::EXDEV => "invalid cross-device link",
            Errno::ENODEV => "no such device",
            Errno::ENOTDIR => "not a directory",
            Errno::EISDIR => "is a directory",
            Errno::EINVAL => "invalid argument",
            Errno::ENFILE => "too many open files in system",
            Errno::EMFILE => "too many open files",
            Errno::ETXTBSY => "text file busy",
            Errno::EFBIG => "file too large",
            Errno::ENOSPC => "no space left on device",
            Errno::ESPIPE => "illegal seek",
            Errno::EROFS => "read-only file system",
            Errno::EMLINK => "too many links",
            Errno::ERANGE => "numerical result out of range",
            Errno::ENAMETOOLONG => "file name too long",
            Errno::ENOTEMPTY => "directory not empty",
            Errno::ELOOP => "too many levels of symbolic links",
            Errno::ENODATA => "no data available",
            Errno::EOVERFLOW => "value too large for defined data type",
            Errno::EOPNOTSUPP => "operation not supported",
            Errno::EDQUOT => "disk quota exceeded",
        }
    }

    /// The raw syscall return value for this error (`-errno`).
    #[must_use]
    pub fn as_retval(self) -> i64 {
        -i64::from(self.number())
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name(), self.strerror())
    }
}

impl Error for Errno {}

/// Result alias used throughout the VFS.
pub type VfsResult<T> = Result<T, Errno>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_match_linux_abi() {
        assert_eq!(Errno::EPERM.number(), 1);
        assert_eq!(Errno::ENOENT.number(), 2);
        assert_eq!(Errno::EBADF.number(), 9);
        assert_eq!(Errno::EEXIST.number(), 17);
        assert_eq!(Errno::EINVAL.number(), 22);
        assert_eq!(Errno::ENOSPC.number(), 28);
        assert_eq!(Errno::ENAMETOOLONG.number(), 36);
        assert_eq!(Errno::ELOOP.number(), 40);
        assert_eq!(Errno::EDQUOT.number(), 122);
    }

    #[test]
    fn all_is_sorted_unique_and_complete() {
        let numbers: Vec<u32> = Errno::ALL.iter().map(|e| e.number()).collect();
        let mut sorted = numbers.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(numbers, sorted, "ALL must be in ascending unique order");
        assert_eq!(Errno::ALL.len(), 34);
    }

    #[test]
    fn from_number_roundtrips() {
        for e in Errno::ALL {
            assert_eq!(Errno::from_number(e.number()), Some(e));
        }
        for (i, e) in Errno::ALL.into_iter().enumerate() {
            assert_eq!(e.index(), i);
        }
        assert_eq!(Errno::from_number(0), None);
        assert_eq!(Errno::from_number(9999), None);
        for number in (0..300).chain([u32::MAX]) {
            let linear = Errno::ALL.iter().copied().find(|e| e.number() == number);
            assert_eq!(Errno::from_number(number), linear, "{number}");
        }
    }

    #[test]
    fn retval_is_negative_number() {
        assert_eq!(Errno::ENOENT.as_retval(), -2);
        assert_eq!(Errno::EDQUOT.as_retval(), -122);
    }

    #[test]
    fn names_match_variants() {
        assert_eq!(Errno::ENOTEMPTY.name(), "ENOTEMPTY");
        assert_eq!(Errno::EOPNOTSUPP.name(), "EOPNOTSUPP");
    }

    #[test]
    fn display_and_error_trait() {
        let e: Box<dyn Error> = Box::new(Errno::EROFS);
        assert!(e.to_string().contains("read-only"));
    }
}
