//! Syscall flag and mode words, matching the Linux x86-64 ABI values.

use std::fmt;

/// `open(2)` flags word.
///
/// Bit values match Linux on x86-64, so traces carry genuine ABI numbers
/// and the IOCov analyzer partitions the same bit positions the paper's
/// Figure 2 shows.
///
/// ```
/// use iocov_vfs::OpenFlags;
///
/// let flags = OpenFlags::O_WRONLY | OpenFlags::O_CREAT | OpenFlags::O_TRUNC;
/// assert!(flags.contains(OpenFlags::O_CREAT));
/// assert!(flags.writable());
/// assert!(!flags.readable());
/// assert_eq!(flags.bits(), 0x241);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct OpenFlags(u32);

impl OpenFlags {
    /// Open read-only (access mode 0).
    pub const O_RDONLY: OpenFlags = OpenFlags(0o0);
    /// Open write-only.
    pub const O_WRONLY: OpenFlags = OpenFlags(0o1);
    /// Open read-write.
    pub const O_RDWR: OpenFlags = OpenFlags(0o2);
    /// Mask of the access-mode bits.
    pub const O_ACCMODE: OpenFlags = OpenFlags(0o3);
    /// Create the file if it does not exist.
    pub const O_CREAT: OpenFlags = OpenFlags(0o100);
    /// With `O_CREAT`, fail if the file exists.
    pub const O_EXCL: OpenFlags = OpenFlags(0o200);
    /// Do not make the device the controlling terminal.
    pub const O_NOCTTY: OpenFlags = OpenFlags(0o400);
    /// Truncate the file to length 0.
    pub const O_TRUNC: OpenFlags = OpenFlags(0o1000);
    /// Writes always append.
    pub const O_APPEND: OpenFlags = OpenFlags(0o2000);
    /// Non-blocking open (FIFOs, devices).
    pub const O_NONBLOCK: OpenFlags = OpenFlags(0o4000);
    /// Synchronized data integrity writes.
    pub const O_DSYNC: OpenFlags = OpenFlags(0o10000);
    /// Signal-driven I/O.
    pub const O_ASYNC: OpenFlags = OpenFlags(0o20000);
    /// Direct (unbuffered) I/O.
    pub const O_DIRECT: OpenFlags = OpenFlags(0o40000);
    /// Allow >2 GiB files on 32-bit ABIs.
    pub const O_LARGEFILE: OpenFlags = OpenFlags(0o100000);
    /// Fail unless the path is a directory.
    pub const O_DIRECTORY: OpenFlags = OpenFlags(0o200000);
    /// Fail if the final component is a symlink.
    pub const O_NOFOLLOW: OpenFlags = OpenFlags(0o400000);
    /// Do not update the access time.
    pub const O_NOATIME: OpenFlags = OpenFlags(0o1000000);
    /// Close the descriptor on exec.
    pub const O_CLOEXEC: OpenFlags = OpenFlags(0o2000000);
    /// Synchronized file integrity writes (implies `O_DSYNC`).
    pub const O_SYNC: OpenFlags = OpenFlags(0o4010000);
    /// Obtain a path-only descriptor.
    pub const O_PATH: OpenFlags = OpenFlags(0o10000000);
    /// Create an unnamed temporary file (implies `O_DIRECTORY`).
    pub const O_TMPFILE: OpenFlags = OpenFlags(0o20200000);

    /// Every individual flag with its canonical name, in the order used on
    /// the x-axis of the paper's Figure 2. The three access modes appear
    /// first; `O_RDONLY` is the all-zero mode and is attributed whenever
    /// the access-mode bits are zero.
    pub const NAMED_FLAGS: [(&'static str, OpenFlags); 21] = [
        ("O_RDONLY", OpenFlags::O_RDONLY),
        ("O_WRONLY", OpenFlags::O_WRONLY),
        ("O_RDWR", OpenFlags::O_RDWR),
        ("O_CREAT", OpenFlags::O_CREAT),
        ("O_EXCL", OpenFlags::O_EXCL),
        ("O_NOCTTY", OpenFlags::O_NOCTTY),
        ("O_TRUNC", OpenFlags::O_TRUNC),
        ("O_APPEND", OpenFlags::O_APPEND),
        ("O_NONBLOCK", OpenFlags::O_NONBLOCK),
        ("O_DSYNC", OpenFlags::O_DSYNC),
        ("O_ASYNC", OpenFlags::O_ASYNC),
        ("O_DIRECT", OpenFlags::O_DIRECT),
        ("O_LARGEFILE", OpenFlags::O_LARGEFILE),
        ("O_DIRECTORY", OpenFlags::O_DIRECTORY),
        ("O_NOFOLLOW", OpenFlags::O_NOFOLLOW),
        ("O_NOATIME", OpenFlags::O_NOATIME),
        ("O_CLOEXEC", OpenFlags::O_CLOEXEC),
        ("O_SYNC", OpenFlags::O_SYNC),
        ("O_PATH", OpenFlags::O_PATH),
        ("O_TMPFILE", OpenFlags::O_TMPFILE),
        ("O_ACCMODE", OpenFlags::O_ACCMODE),
    ];

    /// Wraps a raw flags word.
    #[must_use]
    pub fn from_bits(bits: u32) -> Self {
        OpenFlags(bits)
    }

    /// The raw flags word.
    #[must_use]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Whether all bits of `other` are set (for `O_RDONLY`, whether the
    /// access mode is exactly read-only).
    #[must_use]
    pub fn contains(self, other: OpenFlags) -> bool {
        if other == OpenFlags::O_RDONLY {
            self.access_mode() == OpenFlags::O_RDONLY
        } else {
            self.0 & other.0 == other.0
        }
    }

    /// The access-mode bits (`O_RDONLY`, `O_WRONLY`, or `O_RDWR`).
    #[must_use]
    pub fn access_mode(self) -> OpenFlags {
        OpenFlags(self.0 & Self::O_ACCMODE.0)
    }

    /// Whether the access mode permits reading.
    #[must_use]
    pub fn readable(self) -> bool {
        matches!(self.access_mode().0, 0 | 2)
    }

    /// Whether the access mode permits writing.
    #[must_use]
    pub fn writable(self) -> bool {
        matches!(self.access_mode().0, 1 | 2)
    }

    /// Whether the access-mode bits are the invalid value 3.
    #[must_use]
    pub fn invalid_access_mode(self) -> bool {
        self.0 & Self::O_ACCMODE.0 == 3
    }
}

impl std::ops::BitOr for OpenFlags {
    type Output = OpenFlags;

    fn bitor(self, rhs: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for OpenFlags {
    fn bitor_assign(&mut self, rhs: OpenFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for OpenFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.access_mode().0 {
            0 => "O_RDONLY",
            1 => "O_WRONLY",
            2 => "O_RDWR",
            _ => "O_ACCMODE?",
        };
        f.write_str(mode)?;
        for (name, flag) in Self::NAMED_FLAGS {
            if flag.0 != 0
                && !matches!(name, "O_WRONLY" | "O_RDWR" | "O_ACCMODE")
                && self.0 & flag.0 == flag.0
            {
                write!(f, "|{name}")?;
            }
        }
        Ok(())
    }
}

impl fmt::LowerHex for OpenFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// `mode_t` permission bits.
///
/// ```
/// use iocov_vfs::Mode;
///
/// let m = Mode::from_bits(0o754);
/// assert!(m.allows_read(true, false));   // owner
/// assert!(!m.allows_write(false, true)); // group
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Mode(u32);

impl Mode {
    /// Set-user-ID bit.
    pub const S_ISUID: u32 = 0o4000;
    /// Set-group-ID bit.
    pub const S_ISGID: u32 = 0o2000;
    /// Sticky bit.
    pub const S_ISVTX: u32 = 0o1000;

    /// Wraps raw mode bits (only the low 12 bits are kept).
    #[must_use]
    pub fn from_bits(bits: u32) -> Self {
        Mode(bits & 0o7777)
    }

    /// The raw mode bits.
    #[must_use]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Permission bits only (no suid/sgid/sticky).
    #[must_use]
    pub fn permissions(self) -> u32 {
        self.0 & 0o777
    }

    fn class_bits(self, is_owner: bool, is_group: bool) -> u32 {
        if is_owner {
            (self.0 >> 6) & 0o7
        } else if is_group {
            (self.0 >> 3) & 0o7
        } else {
            self.0 & 0o7
        }
    }

    /// Whether the selected class may read.
    #[must_use]
    pub fn allows_read(self, is_owner: bool, is_group: bool) -> bool {
        self.class_bits(is_owner, is_group) & 0o4 != 0
    }

    /// Whether the selected class may write.
    #[must_use]
    pub fn allows_write(self, is_owner: bool, is_group: bool) -> bool {
        self.class_bits(is_owner, is_group) & 0o2 != 0
    }

    /// Whether the selected class may execute / search.
    #[must_use]
    pub fn allows_exec(self, is_owner: bool, is_group: bool) -> bool {
        self.class_bits(is_owner, is_group) & 0o1 != 0
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0o{:o}", self.0)
    }
}

/// `lseek(2)` origin selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Whence {
    /// Absolute offset.
    Set,
    /// Relative to the current position.
    Cur,
    /// Relative to end of file.
    End,
    /// Next data region at or after the offset.
    Data,
    /// Next hole at or after the offset.
    Hole,
}

impl Whence {
    /// All selectors in ABI order.
    pub const ALL: [Whence; 5] = [
        Whence::Set,
        Whence::Cur,
        Whence::End,
        Whence::Data,
        Whence::Hole,
    ];

    /// The ABI number (`SEEK_SET` = 0 …).
    #[must_use]
    pub fn number(self) -> u32 {
        match self {
            Whence::Set => 0,
            Whence::Cur => 1,
            Whence::End => 2,
            Whence::Data => 3,
            Whence::Hole => 4,
        }
    }

    /// Looks a selector up by ABI number.
    #[must_use]
    pub fn from_number(number: u32) -> Option<Whence> {
        Whence::ALL.iter().copied().find(|w| w.number() == number)
    }

    /// The C constant name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Whence::Set => "SEEK_SET",
            Whence::Cur => "SEEK_CUR",
            Whence::End => "SEEK_END",
            Whence::Data => "SEEK_DATA",
            Whence::Hole => "SEEK_HOLE",
        }
    }
}

impl fmt::Display for Whence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `setxattr(2)` flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct XattrFlags(u32);

impl XattrFlags {
    /// Fail with `EEXIST` if the attribute already exists.
    pub const CREATE: XattrFlags = XattrFlags(0x1);
    /// Fail with `ENODATA` if the attribute does not exist.
    pub const REPLACE: XattrFlags = XattrFlags(0x2);

    /// Wraps a raw flags word.
    #[must_use]
    pub fn from_bits(bits: u32) -> Self {
        XattrFlags(bits)
    }

    /// The raw flags word.
    #[must_use]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Whether all bits of `other` are set.
    #[must_use]
    pub fn contains(self, other: XattrFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether any bit outside the defined set is present.
    #[must_use]
    pub fn has_unknown_bits(self) -> bool {
        self.0 & !0x3 != 0
    }
}

/// `openat2(2)` resolve flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ResolveFlags(u32);

impl ResolveFlags {
    /// Reject crossing mount boundaries.
    pub const NO_XDEV: ResolveFlags = ResolveFlags(0x01);
    /// Reject magic links.
    pub const NO_MAGICLINKS: ResolveFlags = ResolveFlags(0x02);
    /// Reject all symlinks.
    pub const NO_SYMLINKS: ResolveFlags = ResolveFlags(0x04);
    /// Reject `..` escapes above the dirfd.
    pub const BENEATH: ResolveFlags = ResolveFlags(0x08);
    /// Treat the dirfd as the process root.
    pub const IN_ROOT: ResolveFlags = ResolveFlags(0x10);

    /// Wraps a raw flags word.
    #[must_use]
    pub fn from_bits(bits: u32) -> Self {
        ResolveFlags(bits)
    }

    /// The raw flags word.
    #[must_use]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Whether all bits of `other` are set.
    #[must_use]
    pub fn contains(self, other: ResolveFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether any bit outside the defined set is present.
    #[must_use]
    pub fn has_unknown_bits(self) -> bool {
        self.0 & !0x1f != 0
    }
}

/// Special `dirfd` value meaning "relative to the current directory".
pub const AT_FDCWD: i32 = -100;

/// `fchmodat`/`fstatat` flag: do not follow a trailing symlink.
pub const AT_SYMLINK_NOFOLLOW: u32 = 0x100;

/// Maximum length of one path component.
pub const NAME_MAX: usize = 255;

/// Maximum length of a whole path.
pub const PATH_MAX: usize = 4096;

/// Maximum number of symlink traversals in one resolution.
pub const SYMLOOP_MAX: usize = 40;

/// Maximum size of one xattr value (Linux `XATTR_SIZE_MAX`).
pub const XATTR_SIZE_MAX: usize = 65536;

/// Maximum length of an xattr name.
pub const XATTR_NAME_MAX: usize = 255;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_flag_values_match_linux() {
        assert_eq!(OpenFlags::O_CREAT.bits(), 64);
        assert_eq!(OpenFlags::O_EXCL.bits(), 128);
        assert_eq!(OpenFlags::O_TRUNC.bits(), 512);
        assert_eq!(OpenFlags::O_APPEND.bits(), 1024);
        assert_eq!(OpenFlags::O_DIRECTORY.bits(), 65536);
        assert_eq!(OpenFlags::O_CLOEXEC.bits(), 0o2000000);
        assert_eq!(
            OpenFlags::O_SYNC.bits() & OpenFlags::O_DSYNC.bits(),
            OpenFlags::O_DSYNC.bits()
        );
        assert_eq!(
            OpenFlags::O_TMPFILE.bits() & OpenFlags::O_DIRECTORY.bits(),
            OpenFlags::O_DIRECTORY.bits()
        );
    }

    #[test]
    fn access_mode_predicates() {
        assert!(OpenFlags::O_RDONLY.readable());
        assert!(!OpenFlags::O_RDONLY.writable());
        assert!(OpenFlags::O_WRONLY.writable());
        assert!(!OpenFlags::O_WRONLY.readable());
        assert!(OpenFlags::O_RDWR.readable());
        assert!(OpenFlags::O_RDWR.writable());
        assert!(OpenFlags::from_bits(3).invalid_access_mode());
        assert!(!OpenFlags::O_RDWR.invalid_access_mode());
    }

    #[test]
    fn contains_treats_rdonly_as_access_mode() {
        let rd = OpenFlags::O_RDONLY | OpenFlags::O_CREAT;
        assert!(rd.contains(OpenFlags::O_RDONLY));
        assert!(rd.contains(OpenFlags::O_CREAT));
        let wr = OpenFlags::O_WRONLY | OpenFlags::O_CREAT;
        assert!(!wr.contains(OpenFlags::O_RDONLY));
    }

    #[test]
    fn flag_display_lists_names() {
        let f = OpenFlags::O_WRONLY | OpenFlags::O_CREAT | OpenFlags::O_TRUNC;
        let s = f.to_string();
        assert!(s.starts_with("O_WRONLY"));
        assert!(s.contains("O_CREAT"));
        assert!(s.contains("O_TRUNC"));
        assert_eq!(OpenFlags::O_RDONLY.to_string(), "O_RDONLY");
    }

    #[test]
    fn named_flags_cover_unique_bits() {
        // All non-access-mode named flags must have distinct bit patterns.
        let mut seen = std::collections::HashSet::new();
        for (name, flag) in OpenFlags::NAMED_FLAGS {
            assert!(seen.insert((name, flag.bits())), "duplicate {name}");
        }
    }

    #[test]
    fn mode_class_permissions() {
        let m = Mode::from_bits(0o754);
        assert!(
            m.allows_read(true, false) && m.allows_write(true, false) && m.allows_exec(true, false)
        );
        assert!(
            m.allows_read(false, true)
                && !m.allows_write(false, true)
                && m.allows_exec(false, true)
        );
        assert!(
            m.allows_read(false, false)
                && !m.allows_write(false, false)
                && !m.allows_exec(false, false)
        );
    }

    #[test]
    fn mode_masks_to_12_bits() {
        assert_eq!(Mode::from_bits(0o177777).bits(), 0o7777);
        assert_eq!(Mode::from_bits(0o4755).permissions(), 0o755);
        assert_eq!(Mode::from_bits(0o644).to_string(), "0o644");
    }

    #[test]
    fn whence_roundtrip() {
        for w in Whence::ALL {
            assert_eq!(Whence::from_number(w.number()), Some(w));
        }
        assert_eq!(Whence::from_number(9), None);
        assert_eq!(Whence::End.to_string(), "SEEK_END");
    }

    #[test]
    fn xattr_flags() {
        let f = XattrFlags::CREATE;
        assert!(f.contains(XattrFlags::CREATE));
        assert!(!f.contains(XattrFlags::REPLACE));
        assert!(XattrFlags::from_bits(0x8).has_unknown_bits());
        assert!(!XattrFlags::from_bits(0x3).has_unknown_bits());
        assert_eq!(XattrFlags::from_bits(0x3).bits(), 3);
    }

    #[test]
    fn resolve_flags() {
        let f = ResolveFlags::NO_SYMLINKS;
        assert!(f.contains(ResolveFlags::NO_SYMLINKS));
        assert!(!f.contains(ResolveFlags::BENEATH));
        assert!(ResolveFlags::from_bits(0x40).has_unknown_bits());
        assert_eq!(ResolveFlags::from_bits(0x1f).bits(), 0x1f);
    }

    #[test]
    fn bitor_assign_accumulates() {
        let mut f = OpenFlags::O_WRONLY;
        f |= OpenFlags::O_APPEND;
        assert!(f.contains(OpenFlags::O_APPEND));
        assert!(f.writable());
    }
}
