//! Syscall identities: the 27 modelled syscalls and their variant groups.

use std::fmt;

/// One of the 27 file-system syscalls IOCov measures (11 base syscalls
/// plus their variants), with x86-64 ABI numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sysno {
    /// `read(2)`.
    Read,
    /// `write(2)`.
    Write,
    /// `open(2)`.
    Open,
    /// `close(2)`.
    Close,
    /// `lseek(2)`.
    Lseek,
    /// `pread64(2)`.
    Pread64,
    /// `pwrite64(2)`.
    Pwrite64,
    /// `readv(2)`.
    Readv,
    /// `writev(2)`.
    Writev,
    /// `truncate(2)`.
    Truncate,
    /// `ftruncate(2)`.
    Ftruncate,
    /// `chdir(2)`.
    Chdir,
    /// `fchdir(2)`.
    Fchdir,
    /// `mkdir(2)`.
    Mkdir,
    /// `creat(2)`.
    Creat,
    /// `chmod(2)`.
    Chmod,
    /// `fchmod(2)`.
    Fchmod,
    /// `setxattr(2)`.
    Setxattr,
    /// `lsetxattr(2)`.
    Lsetxattr,
    /// `fsetxattr(2)`.
    Fsetxattr,
    /// `getxattr(2)`.
    Getxattr,
    /// `lgetxattr(2)`.
    Lgetxattr,
    /// `fgetxattr(2)`.
    Fgetxattr,
    /// `openat(2)`.
    Openat,
    /// `mkdirat(2)`.
    Mkdirat,
    /// `fchmodat(2)`.
    Fchmodat,
    /// `openat2(2)`.
    Openat2,
}

/// The 11 logical (base) syscalls that variants merge into — the unit at
/// which IOCov reports coverage ("variants share almost the same kernel
/// implementation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BaseSyscall {
    /// `open` + `openat` + `creat` + `openat2`.
    Open,
    /// `read` + `pread64` + `readv`.
    Read,
    /// `write` + `pwrite64` + `writev`.
    Write,
    /// `lseek`.
    Lseek,
    /// `truncate` + `ftruncate`.
    Truncate,
    /// `mkdir` + `mkdirat`.
    Mkdir,
    /// `chmod` + `fchmod` + `fchmodat`.
    Chmod,
    /// `close`.
    Close,
    /// `chdir` + `fchdir`.
    Chdir,
    /// `setxattr` + `lsetxattr` + `fsetxattr`.
    Setxattr,
    /// `getxattr` + `lgetxattr` + `fgetxattr`.
    Getxattr,
}

impl Sysno {
    /// All 27 syscalls.
    pub const ALL: [Sysno; 27] = [
        Sysno::Read,
        Sysno::Write,
        Sysno::Open,
        Sysno::Close,
        Sysno::Lseek,
        Sysno::Pread64,
        Sysno::Pwrite64,
        Sysno::Readv,
        Sysno::Writev,
        Sysno::Truncate,
        Sysno::Ftruncate,
        Sysno::Chdir,
        Sysno::Fchdir,
        Sysno::Mkdir,
        Sysno::Creat,
        Sysno::Chmod,
        Sysno::Fchmod,
        Sysno::Setxattr,
        Sysno::Lsetxattr,
        Sysno::Fsetxattr,
        Sysno::Getxattr,
        Sysno::Lgetxattr,
        Sysno::Fgetxattr,
        Sysno::Openat,
        Sysno::Mkdirat,
        Sysno::Fchmodat,
        Sysno::Openat2,
    ];

    /// The x86-64 syscall number.
    #[must_use]
    pub fn number(self) -> u32 {
        match self {
            Sysno::Read => 0,
            Sysno::Write => 1,
            Sysno::Open => 2,
            Sysno::Close => 3,
            Sysno::Lseek => 8,
            Sysno::Pread64 => 17,
            Sysno::Pwrite64 => 18,
            Sysno::Readv => 19,
            Sysno::Writev => 20,
            Sysno::Truncate => 76,
            Sysno::Ftruncate => 77,
            Sysno::Chdir => 80,
            Sysno::Fchdir => 81,
            Sysno::Mkdir => 83,
            Sysno::Creat => 85,
            Sysno::Chmod => 90,
            Sysno::Fchmod => 91,
            Sysno::Setxattr => 188,
            Sysno::Lsetxattr => 189,
            Sysno::Fsetxattr => 190,
            Sysno::Getxattr => 191,
            Sysno::Lgetxattr => 192,
            Sysno::Fgetxattr => 193,
            Sysno::Openat => 257,
            Sysno::Mkdirat => 258,
            Sysno::Fchmodat => 268,
            Sysno::Openat2 => 437,
        }
    }

    /// The syscall name as LTTng reports it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Sysno::Read => "read",
            Sysno::Write => "write",
            Sysno::Open => "open",
            Sysno::Close => "close",
            Sysno::Lseek => "lseek",
            Sysno::Pread64 => "pread64",
            Sysno::Pwrite64 => "pwrite64",
            Sysno::Readv => "readv",
            Sysno::Writev => "writev",
            Sysno::Truncate => "truncate",
            Sysno::Ftruncate => "ftruncate",
            Sysno::Chdir => "chdir",
            Sysno::Fchdir => "fchdir",
            Sysno::Mkdir => "mkdir",
            Sysno::Creat => "creat",
            Sysno::Chmod => "chmod",
            Sysno::Fchmod => "fchmod",
            Sysno::Setxattr => "setxattr",
            Sysno::Lsetxattr => "lsetxattr",
            Sysno::Fsetxattr => "fsetxattr",
            Sysno::Getxattr => "getxattr",
            Sysno::Lgetxattr => "lgetxattr",
            Sysno::Fgetxattr => "fgetxattr",
            Sysno::Openat => "openat",
            Sysno::Mkdirat => "mkdirat",
            Sysno::Fchmodat => "fchmodat",
            Sysno::Openat2 => "openat2",
        }
    }

    /// Looks a syscall up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Sysno> {
        Some(match name {
            "read" => Sysno::Read,
            "write" => Sysno::Write,
            "open" => Sysno::Open,
            "close" => Sysno::Close,
            "lseek" => Sysno::Lseek,
            "pread64" => Sysno::Pread64,
            "pwrite64" => Sysno::Pwrite64,
            "readv" => Sysno::Readv,
            "writev" => Sysno::Writev,
            "truncate" => Sysno::Truncate,
            "ftruncate" => Sysno::Ftruncate,
            "chdir" => Sysno::Chdir,
            "fchdir" => Sysno::Fchdir,
            "mkdir" => Sysno::Mkdir,
            "creat" => Sysno::Creat,
            "chmod" => Sysno::Chmod,
            "fchmod" => Sysno::Fchmod,
            "setxattr" => Sysno::Setxattr,
            "lsetxattr" => Sysno::Lsetxattr,
            "fsetxattr" => Sysno::Fsetxattr,
            "getxattr" => Sysno::Getxattr,
            "lgetxattr" => Sysno::Lgetxattr,
            "fgetxattr" => Sysno::Fgetxattr,
            "openat" => Sysno::Openat,
            "mkdirat" => Sysno::Mkdirat,
            "fchmodat" => Sysno::Fchmodat,
            "openat2" => Sysno::Openat2,
            _ => return None,
        })
    }

    /// This syscall's position in [`Sysno::ALL`] — a dense array index.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The logical syscall this one is a variant of.
    #[must_use]
    pub fn base(self) -> BaseSyscall {
        match self {
            Sysno::Open | Sysno::Openat | Sysno::Creat | Sysno::Openat2 => BaseSyscall::Open,
            Sysno::Read | Sysno::Pread64 | Sysno::Readv => BaseSyscall::Read,
            Sysno::Write | Sysno::Pwrite64 | Sysno::Writev => BaseSyscall::Write,
            Sysno::Lseek => BaseSyscall::Lseek,
            Sysno::Truncate | Sysno::Ftruncate => BaseSyscall::Truncate,
            Sysno::Mkdir | Sysno::Mkdirat => BaseSyscall::Mkdir,
            Sysno::Chmod | Sysno::Fchmod | Sysno::Fchmodat => BaseSyscall::Chmod,
            Sysno::Close => BaseSyscall::Close,
            Sysno::Chdir | Sysno::Fchdir => BaseSyscall::Chdir,
            Sysno::Setxattr | Sysno::Lsetxattr | Sysno::Fsetxattr => BaseSyscall::Setxattr,
            Sysno::Getxattr | Sysno::Lgetxattr | Sysno::Fgetxattr => BaseSyscall::Getxattr,
        }
    }
}

impl fmt::Display for Sysno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl BaseSyscall {
    /// All 11 base syscalls.
    pub const ALL: [BaseSyscall; 11] = [
        BaseSyscall::Open,
        BaseSyscall::Read,
        BaseSyscall::Write,
        BaseSyscall::Lseek,
        BaseSyscall::Truncate,
        BaseSyscall::Mkdir,
        BaseSyscall::Chmod,
        BaseSyscall::Close,
        BaseSyscall::Chdir,
        BaseSyscall::Setxattr,
        BaseSyscall::Getxattr,
    ];

    /// The base syscall's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BaseSyscall::Open => "open",
            BaseSyscall::Read => "read",
            BaseSyscall::Write => "write",
            BaseSyscall::Lseek => "lseek",
            BaseSyscall::Truncate => "truncate",
            BaseSyscall::Mkdir => "mkdir",
            BaseSyscall::Chmod => "chmod",
            BaseSyscall::Close => "close",
            BaseSyscall::Chdir => "chdir",
            BaseSyscall::Setxattr => "setxattr",
            BaseSyscall::Getxattr => "getxattr",
        }
    }

    /// This base syscall's position in [`BaseSyscall::ALL`] — a dense
    /// array index.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The variants belonging to this base syscall.
    #[must_use]
    pub fn variants(self) -> Vec<Sysno> {
        Sysno::ALL
            .iter()
            .copied()
            .filter(|s| s.base() == self)
            .collect()
    }
}

impl fmt::Display for BaseSyscall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_27_syscalls_and_11_bases() {
        assert_eq!(Sysno::ALL.len(), 27);
        assert_eq!(BaseSyscall::ALL.len(), 11);
    }

    #[test]
    fn numbers_match_x86_64_abi() {
        assert_eq!(Sysno::Read.number(), 0);
        assert_eq!(Sysno::Write.number(), 1);
        assert_eq!(Sysno::Open.number(), 2);
        assert_eq!(Sysno::Openat.number(), 257);
        assert_eq!(Sysno::Openat2.number(), 437);
        assert_eq!(Sysno::Setxattr.number(), 188);
    }

    #[test]
    fn numbers_and_names_are_unique() {
        let mut numbers: Vec<u32> = Sysno::ALL.iter().map(|s| s.number()).collect();
        numbers.sort_unstable();
        numbers.dedup();
        assert_eq!(numbers.len(), 27);
        let mut names: Vec<&str> = Sysno::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 27);
    }

    #[test]
    fn from_name_roundtrips() {
        for s in Sysno::ALL {
            assert_eq!(Sysno::from_name(s.name()), Some(s));
        }
        assert_eq!(Sysno::from_name("fork"), None);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, s) in Sysno::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, b) in BaseSyscall::ALL.into_iter().enumerate() {
            assert_eq!(b.index(), i);
        }
    }

    #[test]
    fn every_variant_maps_to_a_base_and_back() {
        for base in BaseSyscall::ALL {
            let variants = base.variants();
            assert!(!variants.is_empty());
            for v in variants {
                assert_eq!(v.base(), base);
            }
        }
        // Variant counts match the paper's grouping.
        assert_eq!(BaseSyscall::Open.variants().len(), 4);
        assert_eq!(BaseSyscall::Read.variants().len(), 3);
        assert_eq!(BaseSyscall::Write.variants().len(), 3);
        assert_eq!(BaseSyscall::Chmod.variants().len(), 3);
        assert_eq!(BaseSyscall::Setxattr.variants().len(), 3);
        assert_eq!(BaseSyscall::Getxattr.variants().len(), 3);
        assert_eq!(BaseSyscall::Lseek.variants().len(), 1);
        assert_eq!(BaseSyscall::Close.variants().len(), 1);
    }

    #[test]
    fn display_uses_names() {
        assert_eq!(Sysno::Pread64.to_string(), "pread64");
        assert_eq!(BaseSyscall::Getxattr.to_string(), "getxattr");
    }
}
