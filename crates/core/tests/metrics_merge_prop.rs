//! Property: metrics snapshots survive checkpoint JSON losslessly, and
//! summing them is order-independent. Every `.iockpt` (and the
//! checkpoint `iocov serve` sends a resuming stream) carries a
//! [`MetricsSnapshot`] (shard failures included) that a resumed session
//! parses back and absorbs, and a finishing session absorbs its restore
//! point's derived funnel into the shared metrics. For
//! `--metrics` to render the same bytes across kill/resume, absorbing
//! parsed snapshots into one
//! [`PipelineMetrics`] in *any* order must serialize to exactly the
//! bytes of an in-order absorb of the originals — which these
//! properties pin down over arbitrary counter values, drop/partition
//! tallies, and failure manifests.

use std::collections::BTreeMap;

use iocov::{MetricsSnapshot, PipelineMetrics, ShardFailureRecord};
use proptest::prelude::*;

/// The drop-reason keys a real `PipelineMetrics::snapshot` always
/// carries (every known reason, zero or not).
const DROP_REASONS: [&str; 3] = ["wrong-mount", "irrelevant-fd", "unknown-syscall"];

/// The partition-family keys a real snapshot always carries.
const PARTITION_FAMILIES: [&str; 5] = [
    "input-flag",
    "input-numeric",
    "input-categorical",
    "output-ok",
    "output-err",
];

fn failure_strategy() -> impl Strategy<Value = ShardFailureRecord> {
    (0u32..5, any::<bool>(), 0u64..10_000_000, "[ -~]{0,40}").prop_map(
        |(restarts, gave_up, lost_events, last_error)| ShardFailureRecord {
            shard: 0, // re-numbered below: one record per shard
            restarts,
            gave_up,
            lost_events,
            last_error,
        },
    )
}

fn keyed_map(keys: &'static [&'static str]) -> impl Strategy<Value = BTreeMap<String, u64>> {
    proptest::collection::vec(0u64..1_000_000, keys.len())
        .prop_map(move |values| keys.iter().map(|k| (*k).to_owned()).zip(values).collect())
}

/// A snapshot shaped exactly like a checkpoint's: every known
/// drop/partition key present.
fn snapshot_strategy() -> impl Strategy<Value = MetricsSnapshot> {
    (
        (0u64..1_000_000, 0u64..1_000, 0u64..1_000_000, 0u64..1_000),
        keyed_map(&DROP_REASONS),
        keyed_map(&PARTITION_FAMILIES),
        (0u64..1_000_000_000, 0u64..1_000_000_000),
        proptest::option::of(failure_strategy()),
    )
        .prop_map(
            |(
                (events_read, parse_skipped, variant_merged, shard_restarts),
                filter_dropped,
                partition_records,
                (batched_events, allocs_estimated),
                failure,
            )| MetricsSnapshot {
                events_read,
                parse_skipped,
                filter_dropped,
                variant_merged,
                partition_records,
                batched_events,
                allocs_estimated,
                shard_restarts,
                shard_failures: failure.into_iter().collect(),
            },
        )
}

/// Gives each snapshot's failure record its own shard index, so the
/// manifest, sorted by shard, is one list in any absorption order.
fn number_shards(snapshots: &mut [MetricsSnapshot]) {
    for (shard, snapshot) in snapshots.iter_mut().enumerate() {
        for failure in &mut snapshot.shard_failures {
            failure.shard = shard;
        }
    }
}

/// Sums snapshots the way `--metrics` does: absorbed, in the given
/// order, into one shared `PipelineMetrics`.
fn absorbed<'a>(snapshots: impl Iterator<Item = &'a MetricsSnapshot>) -> MetricsSnapshot {
    let live = PipelineMetrics::default();
    for snapshot in snapshots {
        live.absorb(snapshot);
    }
    live.snapshot()
}

/// The trip a snapshot takes through a checkpoint: serialized into its
/// JSON, parsed back on resume.
fn through_the_wire(snapshot: &MetricsSnapshot) -> MetricsSnapshot {
    let json = serde_json::to_string(snapshot).expect("serialize snapshot");
    serde_json::from_str(&json).expect("deserialize snapshot")
}

proptest! {
    /// Serialization round-trips exactly — a resumed session sees the
    /// same snapshot the checkpoint cut.
    #[test]
    fn snapshot_survives_the_wire(snapshot in snapshot_strategy()) {
        prop_assert_eq!(&through_the_wire(&snapshot), &snapshot);
    }

    /// Absorbing wire-tripped snapshots in an arbitrary arrival order
    /// serializes byte-identically to absorbing the originals in shard
    /// order, and both are the plain sums. `snapshot()` re-sorts the
    /// manifest by shard, so absorption order cannot leak into the
    /// bytes.
    #[test]
    fn absorb_of_wire_tripped_snapshots_is_order_independent(
        mut snapshots in proptest::collection::vec(snapshot_strategy(), 1..6),
        seed in any::<u64>(),
    ) {
        number_shards(&mut snapshots);

        // Reference: absorbed in shard order, no serialization.
        let reference = absorbed(snapshots.iter());
        prop_assert_eq!(
            reference.events_read,
            snapshots.iter().map(|s| s.events_read).sum::<u64>()
        );
        prop_assert_eq!(
            reference.filter_dropped["wrong-mount"],
            snapshots.iter().map(|s| s.filter_dropped["wrong-mount"]).sum::<u64>()
        );
        let manifest: Vec<ShardFailureRecord> =
            snapshots.iter().flat_map(|s| s.shard_failures.clone()).collect();
        prop_assert_eq!(&reference.shard_failures, &manifest);
        let reference_bytes = serde_json::to_string(&reference).unwrap();

        // Each snapshot goes through checkpoint JSON, then is absorbed
        // in an arbitrary order — a seeded shuffle.
        let mut arrived: Vec<MetricsSnapshot> =
            snapshots.iter().map(through_the_wire).collect();
        let n = arrived.len();
        for i in (1..n).rev() {
            let j = usize::try_from(iocov::splitmix64(seed, i as u64) % (i as u64 + 1)).unwrap();
            arrived.swap(i, j);
        }
        prop_assert_eq!(
            serde_json::to_string(&absorbed(arrived.iter())).unwrap(),
            reference_bytes
        );
    }
}
