//! Deterministic fault drills: one charge-counted trigger for every
//! injected failure.
//!
//! A drill fails one deterministic point of a run a bounded number of
//! times: a shard thread panics at a batch tick (`--inject-panic`), a
//! worker process raises a [`WorkerSignal`] or freezes at a source-event
//! tick (`--inject-worker-kill`, `--inject-worker-stall`), a worker
//! flips a byte of an outgoing checkpoint frame after its checksum was
//! computed (`--inject-corrupt-frame`), or a feed client drops its
//! connection past a byte count or freezes before a frame
//! (`--abort-after-bytes`, `--stall-before-frame`). Each drill is a
//! [`DrillTrigger`] plus its action, written as a closure where the
//! drill is armed; the trigger alone decides when the action runs.
//!
//! A trigger spends a charge only when it matches, so it fires at most
//! as many times as armed and then disarms: a supervisor that restarts
//! a shard and replays its batches sees the retry succeed. Charges are
//! spent per process; a restarted worker process cannot remember that
//! it fired, so the `--distribute` coordinator re-arms each respawned
//! worker with one fewer charge.

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
    /// thresholds a run may step past (a byte count crossed mid-frame).
    pub fn fire_from(&self, ordinal: u64) -> bool {
        ordinal >= self.at && self.spend()
    }

    fn spend(&self) -> bool {
        self.charges
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// Signals a worker-kill drill can deliver to its own process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerSignal {
    /// `SIGABRT` semantics — [`std::process::abort`], works everywhere.
    #[default]
    Abort,
    /// `SIGKILL`: uncatchable, the harshest realistic worker death.
    Kill,
    /// `SIGTERM`: a polite kill the worker makes no attempt to handle.
    Term,
}

impl WorkerSignal {
    /// Parses a signal name (`KILL`, `SIGTERM`, …) or number (`9`,
    /// `15`, `6`). `None` for anything unrecognized.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_uppercase().as_str() {
            "ABRT" | "SIGABRT" | "ABORT" | "6" => Some(WorkerSignal::Abort),
            "KILL" | "SIGKILL" | "9" => Some(WorkerSignal::Kill),
            "TERM" | "SIGTERM" | "15" => Some(WorkerSignal::Term),
            _ => None,
        }
    }

    /// The canonical name, for spec serialization.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkerSignal::Abort => "ABRT",
            WorkerSignal::Kill => "KILL",
            WorkerSignal::Term => "TERM",
        }
    }

    /// Delivers the signal to the *current* process. Never returns: if
    /// raising is unavailable (non-unix) or somehow survived, the
    /// process hard-aborts — an injected death must never be survivable.
    pub fn raise(self) -> ! {
        #[cfg(unix)]
        {
            extern "C" {
                fn raise(sig: i32) -> i32;
            }
            let sig = match self {
                WorkerSignal::Abort => 6,
                WorkerSignal::Kill => 9,
                WorkerSignal::Term => 15,
            };
            // SAFETY: raise(3) is async-signal-safe and takes no
            // pointers; delivering a fatal signal to ourselves is the
            // entire point.
            unsafe {
                raise(sig);
            }
        }
        std::process::abort()
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
        assert!(trigger.fire(5), "a replay spends the second charge");
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
    fn signal_parsing_accepts_names_and_numbers() {
        assert_eq!(WorkerSignal::parse("KILL"), Some(WorkerSignal::Kill));
        assert_eq!(WorkerSignal::parse("sigkill"), Some(WorkerSignal::Kill));
        assert_eq!(WorkerSignal::parse("9"), Some(WorkerSignal::Kill));
        assert_eq!(WorkerSignal::parse("TERM"), Some(WorkerSignal::Term));
        assert_eq!(WorkerSignal::parse("15"), Some(WorkerSignal::Term));
        assert_eq!(WorkerSignal::parse("ABRT"), Some(WorkerSignal::Abort));
        assert_eq!(WorkerSignal::parse(" abort "), Some(WorkerSignal::Abort));
        assert_eq!(WorkerSignal::parse("HUP"), None);
        assert_eq!(WorkerSignal::parse(""), None);
    }
}
