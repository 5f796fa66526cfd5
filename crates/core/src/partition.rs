//! Input- and output-space partitions.
//!
//! Numeric arguments partition by powers of two ("because they are common
//! in file systems", §3), with dedicated boundary partitions for zero and
//! negative values. Bitmap arguments partition per flag. Categorical
//! arguments partition per value. Outputs partition into success — with
//! log2 sub-buckets for byte-count returns — and one partition per errno.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A numeric partition: the paper's power-of-two bucketing with explicit
/// boundary partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NumericPartition {
    /// The value was negative (possible for offsets in ABI form).
    Negative,
    /// Exactly zero — "unusual but allowed under POSIX", and a boundary
    /// value easily neglected by testing (§4, Figure 3).
    Zero,
    /// `Log2(k)` covers `[2^k, 2^(k+1))`; `Log2(0)` is exactly 1.
    Log2(u32),
}

impl NumericPartition {
    /// Buckets a value.
    #[must_use]
    pub fn of(value: i128) -> NumericPartition {
        if value < 0 {
            NumericPartition::Negative
        } else if value == 0 {
            NumericPartition::Zero
        } else {
            NumericPartition::Log2(value.ilog2())
        }
    }

    /// Number of dense counter slots: `Negative`, `Zero`, then
    /// `Log2(0..=127)` — enough for every `i128`.
    pub(crate) const SLOTS: usize = 130;

    /// This partition's counter slot, in `0..SLOTS`, ordered like the
    /// partitions themselves.
    pub(crate) fn slot(self) -> usize {
        match self {
            NumericPartition::Negative => 0,
            NumericPartition::Zero => 1,
            NumericPartition::Log2(k) => 2 + k as usize,
        }
    }

    /// The partition counted in `slot`; the inverse of
    /// [`slot`](Self::slot).
    pub(crate) fn from_slot(slot: usize) -> NumericPartition {
        match slot {
            0 => NumericPartition::Negative,
            1 => NumericPartition::Zero,
            k => NumericPartition::Log2((k - 2) as u32),
        }
    }

    /// The inclusive lower bound of the bucket (`None` for `Negative`).
    #[must_use]
    pub fn lower_bound(self) -> Option<u128> {
        match self {
            NumericPartition::Negative => None,
            NumericPartition::Zero => Some(0),
            NumericPartition::Log2(k) => Some(1u128 << k),
        }
    }
}

impl fmt::Display for NumericPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericPartition::Negative => f.write_str("<0"),
            NumericPartition::Zero => f.write_str("=0"),
            NumericPartition::Log2(k) => write!(f, "2^{k}"),
        }
    }
}

/// One input-space partition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InputPartition {
    /// One bitmap flag (by canonical name, e.g. `"O_CREAT"`).
    Flag(String),
    /// One power-of-two numeric bucket.
    Numeric(NumericPartition),
    /// One categorical value (e.g. `"SEEK_SET"`), or `"<invalid>"`.
    Categorical(String),
}

impl fmt::Display for InputPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputPartition::Flag(name) => f.write_str(name),
            InputPartition::Numeric(p) => write!(f, "{p}"),
            InputPartition::Categorical(v) => f.write_str(v),
        }
    }
}

/// One output-space partition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OutputPartition {
    /// Any non-negative return ("OK" in the paper's Figure 4).
    Ok,
    /// A successful byte-count return, sub-bucketed by powers of two
    /// (`write`, `read`, `getxattr`).
    OkBytes(NumericPartition),
    /// A specific error code, by symbolic name.
    Err(String),
}

impl OutputPartition {
    /// Partitions a raw return value. `bucket_bytes` selects the byte-
    /// count sub-bucketing for size-returning syscalls.
    #[must_use]
    pub fn of(retval: i64, bucket_bytes: bool) -> OutputPartition {
        if retval >= 0 {
            if bucket_bytes {
                OutputPartition::OkBytes(NumericPartition::of(i128::from(retval)))
            } else {
                OutputPartition::Ok
            }
        } else {
            let number = errno_number(retval);
            let name = iocov_syscalls::Errno::from_number(number)
                .map_or_else(|| format!("E?{number}"), |e| e.name().to_owned());
            OutputPartition::Err(name)
        }
    }

    /// Whether this partition represents success.
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, OutputPartition::Ok | OutputPartition::OkBytes(_))
    }
}

/// The errno number of a failed call's negative `retval`, saturating at
/// `u32::MAX` for values no errno can have (including `i64::MIN`).
pub(crate) fn errno_number(retval: i64) -> u32 {
    u32::try_from(retval.unsigned_abs()).unwrap_or(u32::MAX)
}

impl fmt::Display for OutputPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutputPartition::Ok => f.write_str("OK"),
            OutputPartition::OkBytes(p) => write!(f, "OK({p})"),
            OutputPartition::Err(name) => f.write_str(name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_bucketing_matches_figure3_semantics() {
        assert_eq!(NumericPartition::of(-1), NumericPartition::Negative);
        assert_eq!(NumericPartition::of(0), NumericPartition::Zero);
        assert_eq!(NumericPartition::of(1), NumericPartition::Log2(0));
        assert_eq!(NumericPartition::of(2), NumericPartition::Log2(1));
        assert_eq!(NumericPartition::of(3), NumericPartition::Log2(1));
        assert_eq!(NumericPartition::of(1024), NumericPartition::Log2(10));
        assert_eq!(NumericPartition::of(2047), NumericPartition::Log2(10));
        assert_eq!(NumericPartition::of(2048), NumericPartition::Log2(11));
        // The paper's annotated maximum: 258 MiB falls in the 2^28 bucket.
        let mib258 = 258 * 1024 * 1024;
        assert_eq!(NumericPartition::of(mib258), NumericPartition::Log2(28));
    }

    #[test]
    fn bucket_boundaries_are_inclusive_lower() {
        for k in 0..40u32 {
            let lo = 1i128 << k;
            assert_eq!(NumericPartition::of(lo), NumericPartition::Log2(k));
            assert_eq!(NumericPartition::of(lo * 2 - 1), NumericPartition::Log2(k));
        }
        assert_eq!(NumericPartition::Log2(10).lower_bound(), Some(1024));
        assert_eq!(NumericPartition::Zero.lower_bound(), Some(0));
        assert_eq!(NumericPartition::Negative.lower_bound(), None);
    }

    #[test]
    fn output_partition_of_success_and_error() {
        assert_eq!(OutputPartition::of(0, false), OutputPartition::Ok);
        assert_eq!(OutputPartition::of(42, false), OutputPartition::Ok);
        assert_eq!(
            OutputPartition::of(0, true),
            OutputPartition::OkBytes(NumericPartition::Zero)
        );
        assert_eq!(
            OutputPartition::of(4096, true),
            OutputPartition::OkBytes(NumericPartition::Log2(12))
        );
        assert_eq!(
            OutputPartition::of(-2, false),
            OutputPartition::Err("ENOENT".into())
        );
        assert_eq!(
            OutputPartition::of(-28, true),
            OutputPartition::Err("ENOSPC".into())
        );
        assert_eq!(
            OutputPartition::of(-9999, false),
            OutputPartition::Err("E?9999".into())
        );
    }

    #[test]
    fn success_predicate() {
        assert!(OutputPartition::of(1, false).is_success());
        assert!(OutputPartition::of(1, true).is_success());
        assert!(!OutputPartition::of(-1, false).is_success());
    }

    #[test]
    fn display_forms() {
        assert_eq!(NumericPartition::Zero.to_string(), "=0");
        assert_eq!(NumericPartition::Negative.to_string(), "<0");
        assert_eq!(NumericPartition::Log2(28).to_string(), "2^28");
        assert_eq!(
            InputPartition::Flag("O_CREAT".into()).to_string(),
            "O_CREAT"
        );
        assert_eq!(
            InputPartition::Numeric(NumericPartition::Log2(3)).to_string(),
            "2^3"
        );
        assert_eq!(OutputPartition::Ok.to_string(), "OK");
        assert_eq!(
            OutputPartition::OkBytes(NumericPartition::Log2(2)).to_string(),
            "OK(2^2)"
        );
        assert_eq!(OutputPartition::Err("EIO".into()).to_string(), "EIO");
    }

    #[test]
    fn numeric_slots_roundtrip_in_partition_order() {
        let mut previous = None;
        for slot in 0..NumericPartition::SLOTS {
            let partition = NumericPartition::from_slot(slot);
            assert_eq!(partition.slot(), slot);
            assert!(previous < Some(partition));
            previous = Some(partition);
        }
        for value in [i128::MIN, -1, 0, 1, i128::from(u64::MAX), i128::MAX] {
            assert!(NumericPartition::of(value).slot() < NumericPartition::SLOTS);
        }
    }

    #[test]
    fn most_negative_retval_is_an_unknown_errno() {
        assert_eq!(
            OutputPartition::of(i64::MIN, false),
            OutputPartition::Err(format!("E?{}", u32::MAX))
        );
    }

    #[test]
    fn partitions_order_deterministically() {
        let mut parts = [
            InputPartition::Numeric(NumericPartition::Log2(3)),
            InputPartition::Flag("O_APPEND".into()),
            InputPartition::Numeric(NumericPartition::Zero),
        ];
        parts.sort();
        // Flags before numerics (enum order), zero before log2 buckets.
        assert_eq!(parts[0], InputPartition::Flag("O_APPEND".into()));
        assert_eq!(parts[1], InputPartition::Numeric(NumericPartition::Zero));
    }
}
