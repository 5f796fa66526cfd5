//! Deterministic I/O fault injection.
//!
//! The VFS half of this crate injects *semantic* file-system bugs; this
//! module injects *environmental* faults — the flaky-disk conditions a
//! multi-hour CrashMonkey or xfstests run produces — so every retry path
//! in the trace readers is exercisable in-tree:
//!
//! * [`FaultPlan`] + [`FaultyRead`]/[`FaultyWrite`] wrap any
//!   `Read`/`Write` with a *seeded* schedule of transient errors
//!   (`ErrorKind::Interrupted`, `ErrorKind::WouldBlock`), short
//!   transfers, and an optional hard unrecoverable error. The schedule
//!   is a pure function of the seed, so a failing run is replayable.
//!
//! Shard panics, worker deaths and stalls, corrupt frames and dropped
//! feeds are drills instead: see [`DrillTrigger`](crate::DrillTrigger).

use std::io::{self, Read, Write};

/// The kinds of fault a [`FaultPlan`] can schedule for one I/O call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// `ErrorKind::Interrupted` — callers must retry unconditionally.
    Interrupted,
    /// `ErrorKind::WouldBlock` — transient; retry with backoff.
    WouldBlock,
    /// Transfer at most this many bytes (always ≥ 1, so a short read is
    /// never mistaken for EOF).
    Short(usize),
}

/// A deterministic, seeded schedule of I/O faults.
///
/// Rates are in per-mille (0–1000) of I/O calls. The underlying
/// generator is a 64-bit LCG, so two plans built from the same seed and
/// rates produce the same fault sequence on every run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
    interrupt_per_mille: u16,
    wouldblock_per_mille: u16,
    short_per_mille: u16,
    hard_error_after: Option<u64>,
    ops: u64,
}

impl FaultPlan {
    /// A plan with moderate default rates: 10% interrupted, 5%
    /// would-block, 20% short transfers, no hard error.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
            interrupt_per_mille: 100,
            wouldblock_per_mille: 50,
            short_per_mille: 200,
            hard_error_after: None,
            ops: 0,
        }
    }

    /// Overrides the per-mille fault rates (each clamped to 1000).
    #[must_use]
    pub fn with_rates(mut self, interrupted: u16, wouldblock: u16, short: u16) -> Self {
        self.interrupt_per_mille = interrupted.min(1000);
        self.wouldblock_per_mille = wouldblock.min(1000);
        self.short_per_mille = short.min(1000);
        self
    }

    /// After `ops` successful-or-transient I/O calls, every further call
    /// fails with a hard `ErrorKind::Other` error (an unrecoverable
    /// "disk died" condition that retry must *not* mask).
    #[must_use]
    pub fn with_hard_error_after(mut self, ops: u64) -> Self {
        self.hard_error_after = Some(ops);
        self
    }

    /// Total I/O calls this plan has scheduled so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    fn next_u64(&mut self) -> u64 {
        // Knuth's MMIX LCG; take the high bits, which have the longest
        // period.
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 33
    }

    /// Schedules the next I/O call: `Err` for an injected hard error,
    /// `Ok(Some(fault))` for a transient fault, `Ok(None)` to pass the
    /// call through untouched.
    fn schedule(&mut self) -> io::Result<Option<Fault>> {
        self.ops += 1;
        if let Some(limit) = self.hard_error_after {
            if self.ops > limit {
                return Err(io::Error::other(format!(
                    "injected hard I/O fault (after {limit} calls)"
                )));
            }
        }
        let roll = self.next_u64();
        let die = (roll % 1000) as u16;
        let interrupt_edge = self.interrupt_per_mille;
        let wouldblock_edge = interrupt_edge.saturating_add(self.wouldblock_per_mille);
        let short_edge = wouldblock_edge.saturating_add(self.short_per_mille);
        if die < interrupt_edge {
            Ok(Some(Fault::Interrupted))
        } else if die < wouldblock_edge {
            Ok(Some(Fault::WouldBlock))
        } else if die < short_edge {
            // The cap is derived from fresh random bits so short-read
            // lengths are independent of which fault class was rolled.
            Ok(Some(Fault::Short(1 + (self.next_u64() as usize & 0xff))))
        } else {
            Ok(None)
        }
    }
}

/// A `Read` adapter that injects the faults scheduled by a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyRead<R> {
    inner: R,
    plan: FaultPlan,
}

impl<R: Read> FaultyRead<R> {
    /// Wraps `inner`, injecting faults according to `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        FaultyRead { inner, plan }
    }

    /// Consumes the adapter, returning the wrapped reader.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// The fault plan's state (for asserting how many calls were made).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<R: Read> Read for FaultyRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        match self.plan.schedule()? {
            Some(Fault::Interrupted) => Err(io::ErrorKind::Interrupted.into()),
            Some(Fault::WouldBlock) => Err(io::ErrorKind::WouldBlock.into()),
            Some(Fault::Short(cap)) => {
                // Deliver at least one byte: a 0-byte read would read as
                // EOF and silently truncate the stream.
                let cap = cap.clamp(1, buf.len());
                self.inner.read(&mut buf[..cap])
            }
            None => self.inner.read(buf),
        }
    }
}

/// A `Write` adapter that injects the faults scheduled by a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyWrite<W> {
    inner: W,
    plan: FaultPlan,
}

impl<W: Write> FaultyWrite<W> {
    /// Wraps `inner`, injecting faults according to `plan`.
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        FaultyWrite { inner, plan }
    }

    /// Consumes the adapter, returning the wrapped writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        match self.plan.schedule()? {
            Some(Fault::Interrupted) => Err(io::ErrorKind::Interrupted.into()),
            Some(Fault::WouldBlock) => Err(io::ErrorKind::WouldBlock.into()),
            Some(Fault::Short(cap)) => self.inner.write(&buf[..cap.clamp(1, buf.len())]),
            None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn drain(mut r: impl Read) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match r.read(&mut buf) {
                Ok(0) => return Ok(out),
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted
                        || e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let data: Vec<u8> = (0..=255).collect();
        let a = FaultyRead::new(Cursor::new(data.clone()), FaultPlan::new(7));
        let b = FaultyRead::new(Cursor::new(data.clone()), FaultPlan::new(7));
        assert_eq!(drain(a).unwrap(), drain(b).unwrap());
    }

    #[test]
    fn retried_faulty_read_recovers_all_bytes() {
        let data: Vec<u8> = (0u16..2048).map(|v| (v % 251) as u8).collect();
        for seed in 0..32 {
            let plan = FaultPlan::new(seed).with_rates(300, 200, 400);
            let r = FaultyRead::new(Cursor::new(data.clone()), plan);
            assert_eq!(drain(r).unwrap(), data, "seed {seed}");
        }
    }

    #[test]
    fn hard_error_is_not_masked() {
        let data = vec![1u8; 4096];
        let plan = FaultPlan::new(3).with_hard_error_after(2);
        let r = FaultyRead::new(Cursor::new(data), plan);
        let err = drain(r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(err.to_string().contains("injected hard I/O fault"));
    }

    #[test]
    fn faulty_write_round_trips_under_retry() {
        let data: Vec<u8> = (0u16..1024).map(|v| (v % 199) as u8).collect();
        let plan = FaultPlan::new(11).with_rates(250, 250, 300);
        let mut w = FaultyWrite::new(Vec::new(), plan);
        let mut off = 0;
        while off < data.len() {
            match w.write(&data[off..]) {
                Ok(n) => off += n,
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted
                        || e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(w.into_inner(), data);
    }
}
