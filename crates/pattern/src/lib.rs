//! The error type of `TraceFilter::mount_point` and
//! `Iocov::with_mount_point`, which cannot fail: the mount point is
//! matched as a literal path prefix, so there is no pattern to reject.
//!
//! The alias exists only because the benchmark harness under
//! `perfbench/` lists this crate in its lockfile and calls `.expect(..)`
//! on both constructors. The next change to that harness deletes the
//! crate and makes both constructors return the filter directly.
pub type PatternError = std::convert::Infallible;
