//! Host-speed adjustment of the timed figures.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! 2x and more over minutes as neighbours load the memory system, while
//! a pure-CPU loop barely moves. A fixed hash-map-insert kernel, written
//! here against the standard library only (so no change to the program
//! under test can change its cost), slows with the allocation- and
//! hash-heavy analysis. Timing it right before every operation and
//! scaling the operation by `reference / kernel time` (median of the
//! last few kernel times) reports each operation at the reference host
//! speed. On the development host this cut the spread of 4-second
//! windows of `suite-iotb` analyze times from 2.1x to 1.5x, most
//! windows falling within 1.2x of each other.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// Kernel time on an unloaded 2-vCPU Xeon (2.0 GHz) development host.
pub const REFERENCE_S: f64 = 0.0037;

/// Kernel times the scale factor takes the median of.
const WINDOW: usize = 5;

/// One run of the kernel: 100k inserts into a 25k-key map of small
/// vectors, with a fixed (unkeyed) hasher so every run does the same
/// work. Returns seconds.
#[must_use]
pub fn kernel_s() -> f64 {
    let start = Instant::now();
    let mut map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..100_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % 25_000)
            .or_insert_with(|| Vec::with_capacity(24))
            .push(i as u8);
    }
    std::hint::black_box(map.len());
    start.elapsed().as_secs_f64()
}

/// Rolling host-speed estimate.
#[derive(Debug, Default)]
pub struct HostSpeed {
    recent: VecDeque<f64>,
    all: Vec<f64>,
}

impl HostSpeed {
    /// Times the kernel once more.
    pub fn measure(&mut self) {
        let t = kernel_s();
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(t);
        self.all.push(t);
    }

    /// Times the kernel [`WINDOW`] times in a row, so that
    /// [`factor`](Self::factor) reflects the host right now.
    pub fn calibrate(&mut self) {
        for _ in 0..WINDOW {
            self.measure();
        }
    }

    /// Factor that converts a time measured now into reference-host
    /// time: `REFERENCE_S / median(recent kernel times)`.
    #[must_use]
    pub fn factor(&self) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        REFERENCE_S / crate::median(&recent)
    }

    /// Median kernel time over the whole run divided by the reference:
    /// how much slower than the reference host this run's host was.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        crate::median(&self.all) / REFERENCE_S
    }
}
