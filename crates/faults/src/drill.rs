//! Deterministic fault drills: one charge-counted trigger for every
//! injected failure.
//!
//! A drill fails one deterministic point of a run a bounded number of
//! times: a shard thread panics at a batch tick (`--inject-panic`), or
//! a feed client drops its connection past a byte count or freezes
//! before a frame (`--abort-after-bytes`, `--stall-before-frame`). Each
//! drill is a [`DrillTrigger`] plus its action, written as a closure
//! where the drill is armed; the trigger alone decides when the action
//! runs.
//!
//! A trigger spends a charge only when it matches, so it fires at most
//! as many times as armed and then disarms. A restarted shard is never
//! handed the batch it failed on again, so the shard drill matches from
//! its tick on ([`DrillTrigger::fire_from`]): each charge fails the next
//! batch, and `TIMES` charges fail that many consecutive batches.

use std::sync::atomic::{AtomicU32, Ordering};

/// Fires a drill at one ordinal (a tick, a frame index or a byte
/// count), at most a fixed number of times.
#[derive(Debug)]
pub struct DrillTrigger {
    at: u64,
    charges: AtomicU32,
}

impl DrillTrigger {
    /// A trigger armed at ordinal `at` with `charges` firings.
    #[must_use]
    pub fn new(at: u64, charges: u32) -> Self {
        DrillTrigger {
            at,
            charges: AtomicU32::new(charges),
        }
    }

    /// Spends a charge if `ordinal` is the armed one; `true` when the
    /// drill should act.
    pub fn fire(&self, ordinal: u64) -> bool {
        ordinal == self.at && self.spend()
    }

    /// Spends a charge if `ordinal` has reached the armed one, for
    /// thresholds a run may step past (a byte count crossed mid-frame)
    /// and for drills that fail consecutive ordinals (a shard's batch
    /// ticks).
    pub fn fire_from(&self, ordinal: u64) -> bool {
        ordinal >= self.at && self.spend()
    }

    fn spend(&self) -> bool {
        self.charges
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_spends_a_charge_only_at_its_ordinal() {
        let trigger = DrillTrigger::new(5, 2);
        assert!(!trigger.fire(4), "wrong ordinal");
        assert!(!trigger.fire(6), "wrong ordinal");
        assert!(trigger.fire(5));
        assert!(trigger.fire(5), "a second match spends the second charge");
        assert!(!trigger.fire(5), "disarmed");
        assert!(!DrillTrigger::new(0, 0).fire(0), "no charge, no fire");
    }

    #[test]
    fn threshold_trigger_fires_once_at_or_past_its_ordinal() {
        let trigger = DrillTrigger::new(100, 1);
        assert!(!trigger.fire_from(0));
        assert!(!trigger.fire_from(99));
        assert!(trigger.fire_from(100), "must fire at the threshold");
        assert!(!trigger.fire_from(200), "one charge only");
        // A frame that straddles the threshold fires past it.
        let trigger = DrillTrigger::new(100, 1);
        assert!(!trigger.fire_from(64));
        assert!(trigger.fire_from(128));
    }

    #[test]
    fn shard_drill_fails_consecutive_ticks_from_its_own() {
        // `--inject-panic 2:3`: the restarted shard goes on with the
        // next batch, so the charges fail ticks 2, 3 and 4, once each.
        let trigger = DrillTrigger::new(2, 3);
        let fired: Vec<u64> = (0..8).filter(|&tick| trigger.fire_from(tick)).collect();
        assert_eq!(fired, [2, 3, 4]);
    }
}
