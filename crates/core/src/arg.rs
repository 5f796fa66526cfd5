//! The tracked syscall arguments and their classification.
//!
//! IOCov classifies syscall arguments into four classes — identifiers,
//! bitmaps, numerics, and categoricals (§3 of the paper) — and currently
//! measures input coverage for **14 distinct arguments** across the 27
//! syscalls. This module names those arguments and carries their decoded
//! values.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The four argument classes of the paper's input-space partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArgClass {
    /// File descriptors, path names (partitioned structurally).
    Identifier,
    /// Flag words that can be OR-ed together (`open` flags, mode bits).
    Bitmap,
    /// Byte counts, offsets, lengths.
    Numeric,
    /// Fixed value sets (`lseek` whence).
    Categorical,
}

impl fmt::Display for ArgClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArgClass::Identifier => "identifier",
            ArgClass::Bitmap => "bitmap",
            ArgClass::Numeric => "numeric",
            ArgClass::Categorical => "categorical",
        };
        f.write_str(s)
    }
}

/// The 14 tracked arguments (after variant merging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ArgName {
    /// `open` flags word (all four open variants).
    OpenFlags,
    /// `open` creation mode.
    OpenMode,
    /// `read` byte count (`read`, `pread64`, `readv` total).
    ReadCount,
    /// `pread64` file offset.
    ReadOffset,
    /// `write` byte count (`write`, `pwrite64`, `writev` total).
    WriteCount,
    /// `pwrite64` file offset.
    WriteOffset,
    /// `lseek` offset.
    LseekOffset,
    /// `lseek` whence selector.
    LseekWhence,
    /// `truncate`/`ftruncate` length.
    TruncateLength,
    /// `mkdir`/`mkdirat` mode.
    MkdirMode,
    /// `chmod`/`fchmod`/`fchmodat` mode.
    ChmodMode,
    /// `setxattr` value size.
    SetxattrSize,
    /// `setxattr` flags (`XATTR_CREATE`/`XATTR_REPLACE`).
    SetxattrFlags,
    /// `getxattr` buffer size.
    GetxattrSize,
}

impl ArgName {
    /// All 14 tracked arguments.
    pub const ALL: [ArgName; 14] = [
        ArgName::OpenFlags,
        ArgName::OpenMode,
        ArgName::ReadCount,
        ArgName::ReadOffset,
        ArgName::WriteCount,
        ArgName::WriteOffset,
        ArgName::LseekOffset,
        ArgName::LseekWhence,
        ArgName::TruncateLength,
        ArgName::MkdirMode,
        ArgName::ChmodMode,
        ArgName::SetxattrSize,
        ArgName::SetxattrFlags,
        ArgName::GetxattrSize,
    ];

    /// This argument's position in [`ArgName::ALL`] — a dense array
    /// index.
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// A stable display name, e.g. `"open.flags"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ArgName::OpenFlags => "open.flags",
            ArgName::OpenMode => "open.mode",
            ArgName::ReadCount => "read.count",
            ArgName::ReadOffset => "read.offset",
            ArgName::WriteCount => "write.count",
            ArgName::WriteOffset => "write.offset",
            ArgName::LseekOffset => "lseek.offset",
            ArgName::LseekWhence => "lseek.whence",
            ArgName::TruncateLength => "truncate.length",
            ArgName::MkdirMode => "mkdir.mode",
            ArgName::ChmodMode => "chmod.mode",
            ArgName::SetxattrSize => "setxattr.size",
            ArgName::SetxattrFlags => "setxattr.flags",
            ArgName::GetxattrSize => "getxattr.size",
        }
    }

    /// The argument's class in the paper's four-way taxonomy.
    #[must_use]
    pub fn class(self) -> ArgClass {
        match self {
            ArgName::OpenFlags
            | ArgName::OpenMode
            | ArgName::MkdirMode
            | ArgName::ChmodMode
            | ArgName::SetxattrFlags => ArgClass::Bitmap,
            ArgName::ReadCount
            | ArgName::ReadOffset
            | ArgName::WriteCount
            | ArgName::WriteOffset
            | ArgName::LseekOffset
            | ArgName::TruncateLength
            | ArgName::SetxattrSize
            | ArgName::GetxattrSize => ArgClass::Numeric,
            ArgName::LseekWhence => ArgClass::Categorical,
        }
    }
}

impl fmt::Display for ArgName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A decoded argument value, carried from the variant handler to the
/// partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackedValue {
    /// An unsigned quantity (sizes, counts).
    Unsigned(u64),
    /// A signed quantity (offsets, lengths).
    Signed(i64),
    /// A raw bit pattern (flag and mode words).
    Bits(u32),
}

impl TrackedValue {
    /// The value as an i128 for ordering/bucketing.
    #[must_use]
    pub fn as_i128(self) -> i128 {
        match self {
            TrackedValue::Unsigned(v) => i128::from(v),
            TrackedValue::Signed(v) => i128::from(v),
            TrackedValue::Bits(v) => i128::from(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_tracked_arguments() {
        assert_eq!(ArgName::ALL.len(), 14, "the paper tracks 14 arguments");
        for (i, arg) in ArgName::ALL.into_iter().enumerate() {
            assert_eq!(arg.index(), i);
        }
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<&str> = ArgName::ALL.iter().map(|a| a.name()).collect();
        assert!(names.iter().all(|n| n.contains('.')));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn classes_cover_three_of_four_kinds() {
        // Identifier coverage (fds, paths) is future work in the paper;
        // the 14 tracked args span the other three classes.
        use std::collections::HashSet;
        let classes: HashSet<ArgClass> = ArgName::ALL.iter().map(|a| a.class()).collect();
        assert!(classes.contains(&ArgClass::Bitmap));
        assert!(classes.contains(&ArgClass::Numeric));
        assert!(classes.contains(&ArgClass::Categorical));
        assert!(!classes.contains(&ArgClass::Identifier));
    }

    #[test]
    fn tracked_value_ordering_view() {
        assert_eq!(TrackedValue::Unsigned(5).as_i128(), 5);
        assert_eq!(TrackedValue::Signed(-3).as_i128(), -3);
        assert_eq!(TrackedValue::Bits(0o644).as_i128(), 0o644);
    }

    #[test]
    fn display_impls() {
        assert_eq!(ArgName::OpenFlags.to_string(), "open.flags");
        assert_eq!(ArgClass::Bitmap.to_string(), "bitmap");
    }
}
