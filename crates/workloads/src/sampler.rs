//! Weighted sampling of syscall arguments from suite profiles.

use rand::RngExt;

use crate::profile::{OpenProfile, SizeProfile};

/// Samples an index from relative weights (all-zero weights yield 0).
pub fn weighted_index<R: rand::Rng>(rng: &mut R, weights: &[f64]) -> usize {
    weighted_index_of(rng, weights.iter().copied())
}

/// [`weighted_index`] over weights walked in place: summed in order,
/// then walked once more to the drawn index.
fn weighted_index_of<R, I>(rng: &mut R, weights: I) -> usize
where
    R: rand::Rng,
    I: Iterator<Item = f64> + Clone,
{
    let total: f64 = weights.clone().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut target = rng.random_range(0.0..total);
    let mut last = 0;
    for (i, w) in weights.enumerate() {
        if target < w {
            return i;
        }
        target -= w;
        last = i;
    }
    last
}

/// Samples an `open(2)` flags word from a profile: an access mode plus
/// `combo_size − 1` distinct optional flags.
pub fn sample_open_flags<R: rand::Rng>(rng: &mut R, profile: &OpenProfile) -> u32 {
    let accmode = match weighted_index(rng, &profile.accmode_weights) {
        0 => 0u32, // O_RDONLY
        1 => 1,    // O_WRONLY
        _ => 2,    // O_RDWR
    };
    let combo_size = weighted_index(rng, &profile.combo_size_pct) + 1;
    let mut flags = accmode;
    let mut weights: Vec<f64> = profile.flag_weights.iter().map(|(_, w)| *w).collect();
    let bits_of = |name: &str| -> u32 {
        iocov_syscalls::OpenFlags::NAMED_FLAGS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| f.bits())
            .unwrap_or(0)
    };
    for _ in 1..combo_size {
        if weights.iter().all(|w| *w <= 0.0) {
            break;
        }
        let idx = weighted_index(rng, &weights);
        let (name, _) = profile.flag_weights[idx];
        flags |= bits_of(name);
        weights[idx] = 0.0; // distinct flags per combo
    }
    flags
}

/// Samples a byte count from a size profile: picks a bucket by weight,
/// then a value uniformly inside `[2^k, 2^(k+1))`.
///
/// Degenerate profiles degrade instead of panicking: a profile whose
/// weights are all zero (or that has no buckets at all) samples 0, and
/// buckets at or beyond the top of `u64` clamp to bucket 63, whose upper
/// half-open bound saturates at `u64::MAX` (the `2^64` overflow would
/// otherwise wrap `hi` to 0 and panic in `random_range`).
pub fn sample_size<R: rand::Rng>(rng: &mut R, profile: &SizeProfile) -> u64 {
    if profile.bucket_weights.is_empty() {
        // No bucket exists; falling through to `bucket_weights[0]` would
        // panic.
        return 0;
    }
    // Index 0 is the zero entry, then one index per bucket. An all-zero
    // total draws nothing and yields index 0, so a profile with no
    // eligible bucket samples 0 instead of a zero-weight bucket.
    let weights =
        std::iter::once(profile.zero_weight).chain(profile.bucket_weights.iter().map(|&(_, w)| w));
    let idx = weighted_index_of(rng, weights);
    if idx == 0 {
        // Only reachable with a positive total when `zero_weight > 0`: a
        // zero-weight entry can never win a weighted draw against it.
        return 0;
    }
    let (bucket, _) = profile.bucket_weights[idx - 1];
    let bucket = bucket.min(63);
    let lo = 1u64 << bucket;
    if bucket == 63 {
        rng.random_range(lo..=u64::MAX)
    } else {
        rng.random_range(lo..lo << 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{crashmonkey_profile, xfstests_profile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let weights = [0.0, 10.0, 0.0];
        for _ in 0..100 {
            assert_eq!(weighted_index(&mut rng, &weights), 1);
        }
        // All-zero weights degrade to index 0.
        assert_eq!(weighted_index(&mut rng, &[0.0, 0.0]), 0);
    }

    #[test]
    fn weighted_index_distribution_roughly_matches() {
        let mut rng = StdRng::seed_from_u64(2);
        let weights = [75.0, 25.0];
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            counts[weighted_index(&mut rng, &weights)] += 1;
        }
        let frac = f64::from(counts[0]) / 10_000.0;
        assert!((frac - 0.75).abs() < 0.03, "{frac}");
    }

    #[test]
    fn open_flags_follow_combo_distribution() {
        let mut rng = StdRng::seed_from_u64(3);
        let profile = xfstests_profile();
        let mut sizes = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            let flags = sample_open_flags(&mut rng, &profile.open);
            let mut n = 0;
            iocov::for_each_open_flag(flags, |_| n += 1);
            *sizes.entry(n).or_insert(0u32) += 1;
        }
        // Modal combination size is 4, as in Table 1.
        let modal = sizes
            .iter()
            .max_by_key(|(_, c)| **c)
            .map(|(s, _)| *s)
            .unwrap();
        assert_eq!(modal, 4);
        // Never more than 6 flags.
        assert!(sizes.keys().all(|&s| (1..=6).contains(&s)));
    }

    #[test]
    fn cm_flags_never_include_untested_ones() {
        let mut rng = StdRng::seed_from_u64(4);
        let profile = crashmonkey_profile();
        for _ in 0..5_000 {
            let flags = sample_open_flags(&mut rng, &profile.open);
            iocov::for_each_open_flag(flags, |i| {
                let name = iocov_syscalls::OpenFlags::NAMED_FLAGS[i].0;
                assert!(!["O_TMPFILE", "O_LARGEFILE", "O_DIRECT"].contains(&name));
            });
        }
    }

    #[test]
    fn sampled_sizes_stay_in_profile_buckets() {
        let mut rng = StdRng::seed_from_u64(5);
        let profile = crashmonkey_profile();
        for _ in 0..5_000 {
            let size = sample_size(&mut rng, &profile.write_size);
            assert!(size > 0, "CM never writes zero bytes");
            let bucket = 63 - size.leading_zeros();
            assert!(
                profile
                    .write_size
                    .bucket_weights
                    .iter()
                    .any(|(k, w)| *k == bucket && *w > 0.0),
                "size {size} bucket {bucket}"
            );
        }
    }

    #[test]
    fn xfstests_samples_include_zero_sizes() {
        let mut rng = StdRng::seed_from_u64(6);
        let profile = xfstests_profile();
        let zeros = (0..20_000)
            .filter(|_| sample_size(&mut rng, &profile.write_size) == 0)
            .count();
        assert!(zeros > 0, "the '=0' boundary partition is exercised");
    }

    #[test]
    fn bucket_63_saturates_instead_of_overflowing() {
        // Regression: `hi = lo << 1` for bucket 63 wrapped to 0 and
        // panicked in `random_range(lo..0)`.
        let profile = SizeProfile {
            zero_weight: 0.0,
            bucket_weights: std::borrow::Cow::Owned(vec![(63u32, 1.0)]),
        };
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let size = sample_size(&mut rng, &profile);
            assert!(size >= 1u64 << 63);
        }
        // Out-of-range buckets clamp to 63 rather than overflowing the
        // shift itself.
        let profile = SizeProfile {
            zero_weight: 0.0,
            bucket_weights: std::borrow::Cow::Owned(vec![(64u32, 1.0), (200u32, 1.0)]),
        };
        assert!(sample_size(&mut rng, &profile) >= 1u64 << 63);
    }

    #[test]
    fn all_zero_weights_sample_zero_not_bucket_zero() {
        // Regression: an all-zero profile fell through to
        // `bucket_weights[0]` and sampled from a bucket with zero weight.
        let profile = SizeProfile {
            zero_weight: 0.0,
            bucket_weights: std::borrow::Cow::Owned(vec![(10u32, 0.0), (12u32, 0.0)]),
        };
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..100 {
            assert_eq!(sample_size(&mut rng, &profile), 0);
        }
        // An empty bucket table is equally degenerate, not a panic.
        let empty = SizeProfile {
            zero_weight: 0.0,
            bucket_weights: std::borrow::Cow::Owned(Vec::new()),
        };
        assert_eq!(sample_size(&mut rng, &empty), 0);
    }

    proptest::proptest! {
        /// `sample_size` never panics and respects the profile: every
        /// sample is 0 (only when the profile is degenerate or has
        /// `zero_weight > 0`) or falls inside a positive-weight bucket.
        #[test]
        fn sample_size_total_over_arbitrary_profiles(
            seed in proptest::prelude::any::<u64>(),
            zero_weight in 0.0f64..4.0,
            buckets in proptest::collection::vec((0u32..70, 0.0f64..10.0), 0..12),
        ) {
            let profile = SizeProfile {
                zero_weight,
                bucket_weights: std::borrow::Cow::Owned(buckets.clone()),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..32 {
                let size = sample_size(&mut rng, &profile);
                if size == 0 {
                    let degenerate = buckets.is_empty()
                        || zero_weight + buckets.iter().map(|(_, w)| w).sum::<f64>() <= 0.0;
                    proptest::prop_assert!(
                        zero_weight > 0.0 || degenerate,
                        "0 sampled from a profile with no zero mass"
                    );
                } else {
                    let k = 63 - size.leading_zeros();
                    proptest::prop_assert!(
                        buckets.iter().any(|(b, w)| b.min(&63) == &k && *w > 0.0),
                        "size {size} (bucket {k}) has no positive-weight source"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let profile = xfstests_profile();
        let run = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|_| sample_size(&mut rng, &profile.write_size))
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
