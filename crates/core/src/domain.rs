//! Domain definitions: what partitions *exist* for each argument and
//! each syscall's output.
//!
//! Coverage is "how much of the domain a tester exercised", so the
//! analyzer needs an explicit universe: the flag tables of bitmap
//! arguments, the displayed bucket range of numeric arguments (the
//! x-axis of the paper's Figure 3), the value set of categoricals, and
//! the per-syscall errno lists from the manual pages (Figure 4's x-axis,
//! which the paper also takes from the man pages).

use iocov_syscalls::{BaseSyscall, OpenFlags};

use crate::arg::{ArgName, TrackedValue};
use crate::partition::{InputPartition, NumericPartition};

/// Named bits of a `mode_t` word.
pub const MODE_BITS: [(&str, u32); 12] = [
    ("S_ISUID", 0o4000),
    ("S_ISGID", 0o2000),
    ("S_ISVTX", 0o1000),
    ("S_IRUSR", 0o400),
    ("S_IWUSR", 0o200),
    ("S_IXUSR", 0o100),
    ("S_IRGRP", 0o040),
    ("S_IWGRP", 0o020),
    ("S_IXGRP", 0o010),
    ("S_IROTH", 0o004),
    ("S_IWOTH", 0o002),
    ("S_IXOTH", 0o001),
];

/// Named bits of the `setxattr` flags word.
pub const XATTR_FLAG_BITS: [(&str, u32); 2] = [("XATTR_CREATE", 0x1), ("XATTR_REPLACE", 0x2)];

/// `lseek` whence values.
pub const WHENCE_VALUES: [(&str, u32); 5] = [
    ("SEEK_SET", 0),
    ("SEEK_CUR", 1),
    ("SEEK_END", 2),
    ("SEEK_DATA", 3),
    ("SEEK_HOLE", 4),
];

/// Label for categorical values outside the defined set.
pub const INVALID_CATEGORY: &str = "<invalid>";

/// The kind-specific shape of an argument's domain.
#[derive(Debug, Clone)]
pub enum DomainKind {
    /// A flags word with a table of named bits.
    Bitmap {
        /// `(name, bits)` pairs; membership is `value & bits == bits`.
        flags: &'static [(&'static str, u32)],
    },
    /// The `open` flags word, which needs special handling: `O_RDONLY`
    /// is the all-zero access mode, and composite flags (`O_SYNC`,
    /// `O_TMPFILE`) subsume their parts.
    OpenFlags,
    /// A power-of-two-bucketed number.
    Numeric {
        /// Whether negative values are representable at the ABI.
        signed: bool,
        /// Largest `Log2` bucket the domain displays/enumerates
        /// (values above it still count, into their true bucket).
        display_max_log2: u32,
    },
    /// A fixed value set.
    Categorical {
        /// `(name, value)` pairs.
        values: &'static [(&'static str, u32)],
    },
}

/// An argument's domain.
#[derive(Debug, Clone)]
pub struct ArgDomain {
    /// Which argument this describes.
    pub arg: ArgName,
    /// Its partition structure.
    pub kind: DomainKind,
}

/// Open-flag names in Figure 2 order (the `O_ACCMODE` pseudo-entry is
/// excluded — it is a mask, not a flag).
#[must_use]
pub fn open_flag_names() -> Vec<&'static str> {
    OpenFlags::NAMED_FLAGS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| *name != "O_ACCMODE")
        .collect()
}

/// A flag table indexed by bit. Each flag's highest bit names its slot,
/// so the flags a word holds are found by walking the word's set bits:
/// the work follows the bits set, not the length of the table. A flag
/// of several bits is checked against its full mask when its top bit
/// is seen, so `O_SYNC` needs both of its bits.
#[derive(Debug)]
pub(crate) struct BitSlots {
    /// The union of the flags' top bits.
    tops: u32,
    /// The slot of the flag whose top bit is bit `b`.
    slot_of_top: [u8; 32],
    /// Each slot's full flag word.
    masks: [u32; 32],
}

impl BitSlots {
    /// Indexes `flags`, slot `i` for `flags[i]`, leaving out zero words
    /// and words that share a bit with `skip`. Fails to compile if two
    /// flags share a top bit.
    const fn new(flags: &[u32], skip: u32) -> BitSlots {
        assert!(flags.len() <= 32, "a slot set is one u32");
        let mut table = BitSlots {
            tops: 0,
            slot_of_top: [0; 32],
            masks: [0; 32],
        };
        let mut slot = 0;
        while slot < flags.len() {
            let flag = flags[slot];
            if flag != 0 && flag & skip == 0 {
                let top = 31 - flag.leading_zeros();
                assert!(table.tops & (1 << top) == 0, "two flags share a top bit");
                table.tops |= 1 << top;
                table.slot_of_top[top as usize] = slot as u8;
                table.masks[slot] = flag;
            }
            slot += 1;
        }
        table
    }

    /// The slots of the flags `bits` holds, one set bit per slot.
    #[inline]
    fn hits(&self, bits: u32) -> u32 {
        let mut tops = bits & self.tops;
        let mut hits = 0;
        while tops != 0 {
            let slot = self.slot_of_top[tops.trailing_zeros() as usize];
            tops &= tops - 1;
            let mask = self.masks[slot as usize];
            if bits & mask == mask {
                hits |= 1 << slot;
            }
        }
        hits
    }
}

/// Visits the set bits of `slots`, lowest first.
#[inline]
fn for_each_set(mut slots: u32, mut f: impl FnMut(usize)) {
    while slots != 0 {
        f(slots.trailing_zeros() as usize);
        slots &= slots - 1;
    }
}

/// The words of a `(name, word)` table.
const fn words<const N: usize>(table: &[(&str, u32); N]) -> [u32; N] {
    let mut out = [0; N];
    let mut i = 0;
    while i < N {
        out[i] = table[i].1;
        i += 1;
    }
    out
}

/// The words of [`OpenFlags::NAMED_FLAGS`].
const NAMED_FLAG_WORDS: [u32; OpenFlags::NAMED_FLAGS.len()] = {
    let mut out = [0; OpenFlags::NAMED_FLAGS.len()];
    let mut i = 0;
    while i < out.len() {
        out[i] = OpenFlags::NAMED_FLAGS[i].1.bits();
        i += 1;
    }
    out
};

/// The named open flags outside the access mode, indexed by bit.
static OPEN_FLAG_SLOTS: BitSlots = BitSlots::new(&NAMED_FLAG_WORDS, OpenFlags::O_ACCMODE.bits());

/// The slot bit of a named open flag.
const fn named_flag_slot(flag: OpenFlags) -> u32 {
    let mut slot = 0;
    while NAMED_FLAG_WORDS[slot] != flag.bits() {
        slot += 1;
    }
    1 << slot
}

/// Composite open flags and the part each one hides.
const COMPOSITES: [(u32, u32); 2] = [
    (
        named_flag_slot(OpenFlags::O_SYNC),
        named_flag_slot(OpenFlags::O_DSYNC),
    ),
    (
        named_flag_slot(OpenFlags::O_TMPFILE),
        named_flag_slot(OpenFlags::O_DIRECTORY),
    ),
];

/// Visits every named flag an `open` flags word exercises, as its index
/// into [`OpenFlags::NAMED_FLAGS`], in ascending order — the
/// allocation-free form of [`open_flags_present`]. The access mode is a
/// 2-bit field, not independent bits: exactly one of the three modes
/// (indices 0–2) applies, and the invalid value 3 reports none.
/// Composite flags subsume their parts: `O_SYNC` hides `O_DSYNC`,
/// `O_TMPFILE` hides `O_DIRECTORY`. `O_ACCMODE` is a mask, never
/// visited. The word's set bits are walked, not the table.
pub fn for_each_open_flag(bits: u32, f: impl FnMut(usize)) {
    let mut slots = OPEN_FLAG_SLOTS.hits(bits);
    for (composite, part) in COMPOSITES {
        if slots & composite != 0 {
            slots &= !part;
        }
    }
    // The access-mode indices are the access-mode values.
    let mode = bits & OpenFlags::O_ACCMODE.bits();
    if mode < 3 {
        slots |= 1 << mode;
    }
    for_each_set(slots, f);
}

/// Decomposes an `open` flags word into the individual named flags it
/// exercises, handling the access-mode triple and composite flags; see
/// [`for_each_open_flag`].
#[must_use]
pub fn open_flags_present(bits: u32) -> Vec<&'static str> {
    let mut present = Vec::new();
    for_each_open_flag(bits, |i| present.push(OpenFlags::NAMED_FLAGS[i].0));
    present
}

/// Returns the domain of a tracked argument.
#[must_use]
pub fn arg_domain(arg: ArgName) -> ArgDomain {
    slot_domain(arg).domain.clone()
}

/// The domain of `arg`; `const`, so the scan's tables are built at
/// compile time.
const fn domain_of(arg: ArgName) -> ArgDomain {
    let kind = match arg {
        ArgName::OpenFlags => DomainKind::OpenFlags,
        ArgName::OpenMode | ArgName::MkdirMode | ArgName::ChmodMode => {
            DomainKind::Bitmap { flags: &MODE_BITS }
        }
        ArgName::SetxattrFlags => DomainKind::Bitmap {
            flags: &XATTR_FLAG_BITS,
        },
        ArgName::ReadCount | ArgName::WriteCount => DomainKind::Numeric {
            signed: false,
            // Figure 3's axis runs to 2^32.
            display_max_log2: 32,
        },
        ArgName::ReadOffset | ArgName::WriteOffset | ArgName::LseekOffset => DomainKind::Numeric {
            signed: true,
            display_max_log2: 40,
        },
        ArgName::TruncateLength => DomainKind::Numeric {
            signed: true,
            display_max_log2: 40,
        },
        ArgName::SetxattrSize | ArgName::GetxattrSize => DomainKind::Numeric {
            signed: false,
            // XATTR_SIZE_MAX is 64 KiB = 2^16; one bucket beyond for
            // over-limit probes.
            display_max_log2: 17,
        },
        ArgName::LseekWhence => DomainKind::Categorical {
            values: &WHENCE_VALUES,
        },
    };
    ArgDomain { arg, kind }
}

static MODE_SLOTS: BitSlots = BitSlots::new(&words(&MODE_BITS), 0);
static XATTR_FLAG_SLOTS: BitSlots = BitSlots::new(&words(&XATTR_FLAG_BITS), 0);
/// The table of a domain that is not a bitmap: no flags.
static NO_SLOTS: BitSlots = BitSlots::new(&[], 0);

/// A tracked argument's domain as the scan partitions it: the
/// [`ArgDomain`], and for a bitmap its flags indexed by bit.
#[derive(Debug)]
pub(crate) struct SlotDomain {
    pub(crate) domain: ArgDomain,
    /// The bitmap's flags indexed by bit; no flags for other kinds.
    flag_slots: &'static BitSlots,
}

impl SlotDomain {
    const fn of(arg: ArgName) -> SlotDomain {
        let flag_slots = match arg {
            ArgName::OpenMode | ArgName::MkdirMode | ArgName::ChmodMode => &MODE_SLOTS,
            ArgName::SetxattrFlags => &XATTR_FLAG_SLOTS,
            _ => &NO_SLOTS,
        };
        SlotDomain {
            domain: domain_of(arg),
            flag_slots,
        }
    }

    /// Visits the slot of each partition `value` exercises, in ascending
    /// order — the allocation-free twin of
    /// [`ArgDomain::partitions_of`], which the accumulation hot path
    /// goes through. Flag words walk their set bits.
    #[inline]
    pub(crate) fn for_each_slot(&self, value: TrackedValue, mut f: impl FnMut(usize)) {
        let bits = || match value {
            TrackedValue::Bits(b) => b,
            other => other.as_i128() as u32,
        };
        match &self.domain.kind {
            DomainKind::OpenFlags => for_each_open_flag(bits(), f),
            DomainKind::Bitmap { .. } => for_each_set(self.flag_slots.hits(bits()), f),
            DomainKind::Numeric { .. } => f(NumericPartition::of(value.as_i128()).slot()),
            DomainKind::Categorical { values } => {
                let v = value.as_i128();
                f(values
                    .iter()
                    .position(|(_, n)| i128::from(*n) == v)
                    .unwrap_or(values.len()));
            }
        }
    }
}

/// Every tracked argument's [`SlotDomain`], by [`ArgName::index`].
static SLOT_DOMAINS: [SlotDomain; ArgName::ALL.len()] = {
    const UNSET: SlotDomain = SlotDomain::of(ArgName::OpenFlags);
    let mut out = [UNSET; ArgName::ALL.len()];
    let mut i = 0;
    while i < out.len() {
        out[i] = SlotDomain::of(ArgName::ALL[i]);
        i += 1;
    }
    out
};

/// The scan's form of `arg`'s domain, built once at compile time.
pub(crate) const fn slot_domain(arg: ArgName) -> &'static SlotDomain {
    &SLOT_DOMAINS[arg.index()]
}

impl ArgDomain {
    /// Enumerates every partition in the displayed domain, in canonical
    /// order — the denominator of input coverage.
    #[must_use]
    pub fn all_partitions(&self) -> Vec<InputPartition> {
        match &self.kind {
            DomainKind::OpenFlags => open_flag_names()
                .into_iter()
                .map(|n| InputPartition::Flag(n.to_owned()))
                .collect(),
            DomainKind::Bitmap { flags } => flags
                .iter()
                .map(|(n, _)| InputPartition::Flag((*n).to_owned()))
                .collect(),
            DomainKind::Numeric {
                signed,
                display_max_log2,
            } => {
                let mut parts = Vec::new();
                if *signed {
                    parts.push(InputPartition::Numeric(NumericPartition::Negative));
                }
                parts.push(InputPartition::Numeric(NumericPartition::Zero));
                for k in 0..=*display_max_log2 {
                    parts.push(InputPartition::Numeric(NumericPartition::Log2(k)));
                }
                parts
            }
            DomainKind::Categorical { values } => {
                let mut parts: Vec<InputPartition> = values
                    .iter()
                    .map(|(n, _)| InputPartition::Categorical((*n).to_owned()))
                    .collect();
                parts.push(InputPartition::Categorical(INVALID_CATEGORY.to_owned()));
                parts
            }
        }
    }

    /// Partitions a concrete value into the (possibly several, for
    /// bitmaps) partitions it exercises.
    #[must_use]
    pub fn partitions_of(&self, value: TrackedValue) -> Vec<InputPartition> {
        match &self.kind {
            DomainKind::OpenFlags => {
                let bits = match value {
                    TrackedValue::Bits(b) => b,
                    other => other.as_i128() as u32,
                };
                open_flags_present(bits)
                    .into_iter()
                    .map(|n| InputPartition::Flag(n.to_owned()))
                    .collect()
            }
            DomainKind::Bitmap { flags } => {
                let bits = match value {
                    TrackedValue::Bits(b) => b,
                    other => other.as_i128() as u32,
                };
                flags
                    .iter()
                    .filter(|(_, f)| bits & f == *f && *f != 0)
                    .map(|(n, _)| InputPartition::Flag((*n).to_owned()))
                    .collect()
            }
            DomainKind::Numeric { .. } => {
                vec![InputPartition::Numeric(NumericPartition::of(
                    value.as_i128(),
                ))]
            }
            DomainKind::Categorical { values } => {
                let v = value.as_i128();
                let name = values
                    .iter()
                    .find(|(_, n)| i128::from(*n) == v)
                    .map_or(INVALID_CATEGORY, |(n, _)| *n);
                vec![InputPartition::Categorical(name.to_owned())]
            }
        }
    }

    /// Number of dense counter slots the domain's partitions occupy: one
    /// per flag, one per categorical value plus one for invalid values,
    /// or the [`NumericPartition::SLOTS`] numeric buckets.
    pub(crate) fn slot_count(&self) -> usize {
        match &self.kind {
            // NAMED_FLAGS minus the trailing O_ACCMODE mask.
            DomainKind::OpenFlags => OpenFlags::NAMED_FLAGS.len() - 1,
            DomainKind::Bitmap { flags } => flags.len(),
            DomainKind::Numeric { .. } => NumericPartition::SLOTS,
            DomainKind::Categorical { values } => values.len() + 1,
        }
    }

    /// The partition a slot of [`SlotDomain::for_each_slot`] stands for.
    pub(crate) fn slot_partition(&self, slot: usize) -> InputPartition {
        match &self.kind {
            DomainKind::OpenFlags => {
                InputPartition::Flag(OpenFlags::NAMED_FLAGS[slot].0.to_owned())
            }
            DomainKind::Bitmap { flags } => InputPartition::Flag(flags[slot].0.to_owned()),
            DomainKind::Numeric { .. } => {
                InputPartition::Numeric(NumericPartition::from_slot(slot))
            }
            DomainKind::Categorical { values } => InputPartition::Categorical(
                values
                    .get(slot)
                    .map_or(INVALID_CATEGORY, |(name, _)| *name)
                    .to_owned(),
            ),
        }
    }
}

/// The errnos a base syscall can return per its manual page — the
/// denominator of output coverage (Figure 4's x-axis).
#[must_use]
pub fn output_errnos(base: BaseSyscall) -> &'static [&'static str] {
    match base {
        BaseSyscall::Open => &[
            "EACCES",
            "EAGAIN",
            "EBADF",
            "EBUSY",
            "EDQUOT",
            "EEXIST",
            "EFAULT",
            "EFBIG",
            "EINTR",
            "EINVAL",
            "EISDIR",
            "ELOOP",
            "EMFILE",
            "ENAMETOOLONG",
            "ENFILE",
            "ENODEV",
            "ENOENT",
            "ENOMEM",
            "ENOSPC",
            "ENOTDIR",
            "ENXIO",
            "EOVERFLOW",
            "EPERM",
            "EROFS",
            "ETXTBSY",
            "EXDEV",
            "E2BIG",
        ],
        BaseSyscall::Read => &[
            "EAGAIN", "EBADF", "EFAULT", "EINTR", "EINVAL", "EIO", "EISDIR", "ESPIPE",
        ],
        BaseSyscall::Write => &[
            "EAGAIN", "EBADF", "EDQUOT", "EFAULT", "EFBIG", "EINTR", "EINVAL", "EIO", "ENOSPC",
            "EPERM", "EROFS", "ESPIPE",
        ],
        BaseSyscall::Lseek => &["EBADF", "EINVAL", "ENXIO", "EOVERFLOW", "ESPIPE"],
        BaseSyscall::Truncate => &[
            "EACCES",
            "EBADF",
            "EFAULT",
            "EFBIG",
            "EINTR",
            "EINVAL",
            "EIO",
            "EISDIR",
            "ELOOP",
            "ENAMETOOLONG",
            "ENOENT",
            "ENOTDIR",
            "EPERM",
            "EROFS",
            "ETXTBSY",
        ],
        BaseSyscall::Mkdir => &[
            "EACCES",
            "EBADF",
            "EDQUOT",
            "EEXIST",
            "EFAULT",
            "EINVAL",
            "ELOOP",
            "EMLINK",
            "ENAMETOOLONG",
            "ENOENT",
            "ENOMEM",
            "ENOSPC",
            "ENOTDIR",
            "EPERM",
            "EROFS",
        ],
        BaseSyscall::Chmod => &[
            "EACCES",
            "EBADF",
            "EFAULT",
            "EINVAL",
            "EIO",
            "ELOOP",
            "ENAMETOOLONG",
            "ENOENT",
            "ENOMEM",
            "ENOTDIR",
            "EOPNOTSUPP",
            "EPERM",
            "EROFS",
        ],
        BaseSyscall::Close => &["EBADF", "EDQUOT", "EINTR", "EIO", "ENOSPC"],
        BaseSyscall::Chdir => &[
            "EACCES",
            "EBADF",
            "EFAULT",
            "EIO",
            "ELOOP",
            "ENAMETOOLONG",
            "ENOENT",
            "ENOTDIR",
        ],
        BaseSyscall::Setxattr => &[
            "EACCES",
            "EBADF",
            "EDQUOT",
            "EEXIST",
            "EFAULT",
            "EINVAL",
            "ELOOP",
            "ENAMETOOLONG",
            "ENODATA",
            "ENOENT",
            "ENOSPC",
            "ENOTDIR",
            "EOPNOTSUPP",
            "EPERM",
            "ERANGE",
            "EROFS",
            "E2BIG",
        ],
        BaseSyscall::Getxattr => &[
            "EACCES",
            "EBADF",
            "EFAULT",
            "ELOOP",
            "ENAMETOOLONG",
            "ENODATA",
            "ENOENT",
            "ENOTDIR",
            "EOPNOTSUPP",
            "ERANGE",
        ],
    }
}

/// Whether a base syscall's successful returns are byte counts, and thus
/// sub-bucketed by powers of two.
#[must_use]
pub fn output_buckets_bytes(base: BaseSyscall) -> bool {
    matches!(
        base,
        BaseSyscall::Read | BaseSyscall::Write | BaseSyscall::Getxattr
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_flag_domain_has_20_flags() {
        let names = open_flag_names();
        assert_eq!(names.len(), 20);
        assert!(names.contains(&"O_RDONLY"));
        assert!(!names.contains(&"O_ACCMODE"));
    }

    #[test]
    fn open_flags_present_handles_access_modes() {
        assert_eq!(open_flags_present(0), vec!["O_RDONLY"]);
        assert_eq!(open_flags_present(1), vec!["O_WRONLY"]);
        assert_eq!(open_flags_present(2), vec!["O_RDWR"]);
        let creat_wronly = 0o101;
        assert_eq!(
            open_flags_present(creat_wronly),
            vec!["O_WRONLY", "O_CREAT"]
        );
        let creat_rdonly = 0o100;
        assert_eq!(
            open_flags_present(creat_rdonly),
            vec!["O_RDONLY", "O_CREAT"]
        );
    }

    #[test]
    fn composite_flags_subsume_parts() {
        let o_sync = 0o4010000;
        let present = open_flags_present(o_sync);
        assert!(present.contains(&"O_SYNC"));
        assert!(!present.contains(&"O_DSYNC"));
        let o_dsync_only = 0o10000;
        assert_eq!(
            open_flags_present(o_dsync_only),
            vec!["O_RDONLY", "O_DSYNC"]
        );
        let o_tmpfile = 0o20200000 | 2;
        let present = open_flags_present(o_tmpfile);
        assert!(present.contains(&"O_TMPFILE"));
        assert!(!present.contains(&"O_DIRECTORY"));
    }

    #[test]
    fn mode_domain_partitions_each_bit() {
        let domain = arg_domain(ArgName::ChmodMode);
        let parts = domain.partitions_of(TrackedValue::Bits(0o644));
        let names: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["S_IRUSR", "S_IWUSR", "S_IRGRP", "S_IROTH"]);
        assert_eq!(domain.all_partitions().len(), 12);
    }

    #[test]
    fn numeric_domain_enumerates_axis() {
        let domain = arg_domain(ArgName::WriteCount);
        let parts = domain.all_partitions();
        // "=0" plus buckets 2^0 .. 2^32.
        assert_eq!(parts.len(), 34);
        assert_eq!(parts[0].to_string(), "=0");
        assert_eq!(parts[33].to_string(), "2^32");
        // A signed domain adds the negative partition.
        let signed = arg_domain(ArgName::LseekOffset);
        assert_eq!(signed.all_partitions()[0].to_string(), "<0");
    }

    #[test]
    fn numeric_values_bucket_into_single_partition() {
        let domain = arg_domain(ArgName::WriteCount);
        assert_eq!(
            domain.partitions_of(TrackedValue::Unsigned(1024)),
            vec![InputPartition::Numeric(NumericPartition::Log2(10))]
        );
        let signed = arg_domain(ArgName::LseekOffset);
        assert_eq!(
            signed.partitions_of(TrackedValue::Signed(-5)),
            vec![InputPartition::Numeric(NumericPartition::Negative)]
        );
    }

    #[test]
    fn categorical_domain_maps_values_and_invalid() {
        let domain = arg_domain(ArgName::LseekWhence);
        assert_eq!(
            domain.partitions_of(TrackedValue::Bits(2)),
            vec![InputPartition::Categorical("SEEK_END".into())]
        );
        assert_eq!(
            domain.partitions_of(TrackedValue::Bits(77)),
            vec![InputPartition::Categorical(INVALID_CATEGORY.into())]
        );
        assert_eq!(domain.all_partitions().len(), 6);
    }

    #[test]
    fn xattr_flag_domain() {
        let domain = arg_domain(ArgName::SetxattrFlags);
        let parts = domain.partitions_of(TrackedValue::Bits(0x3));
        assert_eq!(parts.len(), 2);
        // Zero flags exercise no partition.
        assert!(domain.partitions_of(TrackedValue::Bits(0)).is_empty());
    }

    #[test]
    fn slots_agree_with_partitions_of_and_all_partitions() {
        let cases = [
            (ArgName::OpenFlags, TrackedValue::Bits(0o101)),
            (ArgName::OpenFlags, TrackedValue::Bits(0)),
            (ArgName::OpenFlags, TrackedValue::Bits(0o24210003)),
            (ArgName::ChmodMode, TrackedValue::Bits(0o644)),
            (ArgName::SetxattrFlags, TrackedValue::Bits(0)),
            (ArgName::WriteCount, TrackedValue::Unsigned(4096)),
            (ArgName::LseekOffset, TrackedValue::Signed(-3)),
            (ArgName::LseekWhence, TrackedValue::Bits(2)),
            (ArgName::LseekWhence, TrackedValue::Bits(77)),
        ];
        for (arg, value) in cases {
            let domain = arg_domain(arg);
            let mut via_slots = Vec::new();
            slot_domain(arg).for_each_slot(value, |slot| {
                assert!(slot < domain.slot_count(), "{arg}: slot {slot}");
                via_slots.push(domain.slot_partition(slot));
            });
            assert_eq!(via_slots, domain.partitions_of(value), "{arg}");
        }
        // Every displayed partition has a slot, so counts never collide.
        for arg in ArgName::ALL {
            let domain = arg_domain(arg);
            let slotted: Vec<InputPartition> = (0..domain.slot_count())
                .map(|slot| domain.slot_partition(slot))
                .collect();
            for partition in domain.all_partitions() {
                assert!(slotted.contains(&partition), "{arg}: {partition}");
            }
            let mut unique = slotted.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), slotted.len(), "{arg}: slots are distinct");
        }
    }

    #[test]
    fn open_flag_visitor_yields_ascending_named_indices() {
        for bits in [0, 1, 2, 3, 0o101, 0o4010000, 0o20200002, u32::MAX] {
            let mut seen = Vec::new();
            for_each_open_flag(bits, |i| seen.push(i));
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "{bits:#o}");
            assert!(seen.iter().all(|&i| i < open_flag_names().len()));
        }
        // The access-mode indices are the access-mode values.
        for (mode, name) in ["O_RDONLY", "O_WRONLY", "O_RDWR"].into_iter().enumerate() {
            assert_eq!(OpenFlags::NAMED_FLAGS[mode].0, name);
        }
        assert_eq!(OpenFlags::NAMED_FLAGS.last().unwrap().0, "O_ACCMODE");
    }

    /// The walk [`for_each_open_flag`] made before it walked set bits:
    /// every entry of `NAMED_FLAGS`, in table order.
    fn open_flags_by_table(bits: u32) -> Vec<usize> {
        let mut seen = Vec::new();
        let accmode = OpenFlags::O_ACCMODE.bits();
        let mode = (bits & accmode) as usize;
        if mode < 3 {
            seen.push(mode);
        }
        let has = |flag: OpenFlags| bits & flag.bits() == flag.bits();
        let hide_dsync = has(OpenFlags::O_SYNC);
        let hide_directory = has(OpenFlags::O_TMPFILE);
        for (i, (_, flag)) in OpenFlags::NAMED_FLAGS.iter().enumerate() {
            if flag.bits() == 0 || flag.bits() & accmode != 0 {
                continue;
            }
            if (hide_dsync && *flag == OpenFlags::O_DSYNC)
                || (hide_directory && *flag == OpenFlags::O_DIRECTORY)
            {
                continue;
            }
            if has(*flag) {
                seen.push(i);
            }
        }
        seen
    }

    /// The walk a `Bitmap` domain made before it walked set bits: every
    /// entry of its table, in order.
    fn bitmap_by_table(flags: &[(&str, u32)], bits: u32) -> Vec<usize> {
        let hit = |(_, (_, flag)): &(usize, &(&str, u32))| bits & flag == *flag && *flag != 0;
        flags
            .iter()
            .enumerate()
            .filter(hit)
            .map(|(i, _)| i)
            .collect()
    }

    fn open_flags_by_bits(bits: u32) -> Vec<usize> {
        let mut seen = Vec::new();
        for_each_open_flag(bits, |i| seen.push(i));
        seen
    }

    fn slots_by_bits(arg: ArgName, bits: u32) -> Vec<usize> {
        let mut seen = Vec::new();
        slot_domain(arg).for_each_slot(TrackedValue::Bits(bits), |i| seen.push(i));
        seen
    }

    /// Every subset of `mask`, the empty one and `mask` included.
    fn subsets(mask: u32) -> impl Iterator<Item = u32> {
        let mut next = Some(0u32);
        std::iter::from_fn(move || {
            let subset = next?;
            next = (subset != mask).then(|| subset.wrapping_sub(mask) & mask);
            Some(subset)
        })
    }

    #[test]
    fn open_flag_set_bit_walk_matches_the_table_walk() {
        let accmode = OpenFlags::O_ACCMODE.bits();
        let named = NAMED_FLAG_WORDS.iter().fold(0, |all, w| all | w) & !accmode;
        // Every subset of the named bits under every access mode, the
        // invalid mode 3 included: slots and their order.
        for subset in subsets(named) {
            for mode in 0..=accmode {
                let bits = subset | mode;
                assert_eq!(
                    open_flags_by_bits(bits),
                    open_flags_by_table(bits),
                    "{bits:#o}"
                );
            }
        }
        // The composites with and without their parts, and each
        // composite's own bit alone.
        let (sync, dsync) = (OpenFlags::O_SYNC.bits(), OpenFlags::O_DSYNC.bits());
        let (tmpfile, directory) = (OpenFlags::O_TMPFILE.bits(), OpenFlags::O_DIRECTORY.bits());
        for bits in [
            sync,
            dsync,
            sync & !dsync,
            tmpfile,
            directory,
            tmpfile & !directory,
            sync | tmpfile | 3,
            (sync | tmpfile) & !(dsync | directory),
        ] {
            assert_eq!(
                open_flags_by_bits(bits),
                open_flags_by_table(bits),
                "{bits:#o}"
            );
        }
        assert!(
            !open_flags_by_bits(sync).contains(&9),
            "O_SYNC hides O_DSYNC"
        );
        // Random words, unnamed bits included.
        for n in 0..200_000 {
            let bits = crate::splitmix64(30, n) as u32;
            assert_eq!(
                open_flags_by_bits(bits),
                open_flags_by_table(bits),
                "{bits:#x}"
            );
        }
    }

    #[test]
    fn bitmap_set_bit_walks_match_the_table_walks() {
        let cases: [(ArgName, &[(&str, u32)]); 4] = [
            (ArgName::OpenMode, &MODE_BITS),
            (ArgName::MkdirMode, &MODE_BITS),
            (ArgName::ChmodMode, &MODE_BITS),
            (ArgName::SetxattrFlags, &XATTR_FLAG_BITS),
        ];
        for (arg, flags) in cases {
            let named = flags.iter().fold(0, |all, (_, w)| all | w);
            let words = subsets(named)
                .chain((0..50_000).map(|n| crate::splitmix64(31, n) as u32))
                .chain([u32::MAX, !named]);
            for bits in words {
                assert_eq!(
                    slots_by_bits(arg, bits),
                    bitmap_by_table(flags, bits),
                    "{arg}: {bits:#o}"
                );
            }
        }
    }

    #[test]
    fn every_arg_has_a_domain_with_partitions() {
        for arg in ArgName::ALL {
            let domain = arg_domain(arg);
            assert!(!domain.all_partitions().is_empty(), "{arg} has partitions");
        }
    }

    #[test]
    fn open_output_domain_matches_figure4_scale() {
        let errnos = output_errnos(BaseSyscall::Open);
        assert_eq!(errnos.len(), 27, "27 error codes on Figure 4's axis");
        assert!(errnos.contains(&"ENOTDIR"));
        assert!(errnos.contains(&"EOVERFLOW"));
        // Every listed errno is a real one.
        for name in errnos {
            assert!(
                iocov_syscalls::Errno::ALL.iter().any(|e| e.name() == *name),
                "{name} must be a known errno"
            );
        }
    }

    #[test]
    fn byte_bucketing_applies_to_size_returning_calls() {
        assert!(output_buckets_bytes(BaseSyscall::Read));
        assert!(output_buckets_bytes(BaseSyscall::Write));
        assert!(output_buckets_bytes(BaseSyscall::Getxattr));
        assert!(!output_buckets_bytes(BaseSyscall::Open));
        assert!(!output_buckets_bytes(BaseSyscall::Close));
    }

    #[test]
    fn all_output_domains_are_valid_errnos() {
        for base in BaseSyscall::ALL {
            for name in output_errnos(base) {
                assert!(
                    iocov_syscalls::Errno::ALL.iter().any(|e| e.name() == *name),
                    "{base}: {name}"
                );
            }
        }
    }
}
