//! The probe registry: declaration, hit counting, and snapshots.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::report::{CoverageReport, Snapshot};

/// The kind of source construct a probe instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProbeKind {
    /// Function entry (Gcov function coverage).
    Function,
    /// One arm of a conditional (Gcov branch coverage); by convention arm
    /// names end in `:T` or `:F`.
    Branch,
    /// An annotated source line (Gcov line coverage).
    Line,
}

impl fmt::Display for ProbeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProbeKind::Function => "function",
            ProbeKind::Branch => "branch",
            ProbeKind::Line => "line",
        };
        f.write_str(s)
    }
}

/// Key identifying one probe.
pub(crate) type ProbeKey = (ProbeKind, String);

/// A coverage-probe registry.
///
/// Probes may be declared up front (count 0, reported as uncovered until
/// hit) or created implicitly on first hit. All methods are thread-safe;
/// hits on existing probes take only a read lock plus a relaxed atomic
/// increment.
#[derive(Debug, Default)]
pub struct Registry {
    probes: RwLock<HashMap<ProbeKey, Arc<AtomicU64>>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Declares a probe without hitting it, so it shows up as uncovered in
    /// reports until executed. Declaring an existing probe is a no-op.
    pub fn declare(&self, kind: ProbeKind, name: &str) {
        let mut map = self.probes.write();
        map.entry((kind, name.to_owned()))
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
    }

    /// Declares many probes of one kind.
    pub fn declare_all<'a>(&self, kind: ProbeKind, names: impl IntoIterator<Item = &'a str>) {
        for name in names {
            self.declare(kind, name);
        }
    }

    /// Records one hit of the probe, creating it if necessary.
    pub fn hit(&self, kind: ProbeKind, name: &str) {
        {
            let map = self.probes.read();
            if let Some(counter) = map.get(&(kind, name.to_owned())) {
                counter.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let mut map = self.probes.write();
        map.entry((kind, name.to_owned()))
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a branch outcome: hits `"<name>:T"` when `taken` is true,
    /// `"<name>:F"` otherwise.
    pub fn hit_branch(&self, name: &str, taken: bool) {
        let arm = if taken { ":T" } else { ":F" };
        self.hit(ProbeKind::Branch, &format!("{name}{arm}"));
    }

    /// Declares both arms of a branch probe.
    pub fn declare_branch(&self, name: &str) {
        self.declare(ProbeKind::Branch, &format!("{name}:T"));
        self.declare(ProbeKind::Branch, &format!("{name}:F"));
    }

    /// Returns the current count for a probe, or `None` if it was never
    /// declared or hit.
    #[must_use]
    pub fn count(&self, kind: ProbeKind, name: &str) -> Option<u64> {
        let map = self.probes.read();
        map.get(&(kind, name.to_owned()))
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Number of known probes (declared or hit).
    #[must_use]
    pub fn len(&self) -> usize {
        self.probes.read().len()
    }

    /// Whether the registry knows no probes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.probes.read().is_empty()
    }

    /// Zeroes every counter but keeps all declarations.
    pub fn reset(&self) {
        let map = self.probes.read();
        for counter in map.values() {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Captures the current counts of every known probe.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let map = self.probes.read();
        Snapshot::from_counts(
            map.iter()
                .map(|((kind, name), c)| ((*kind, name.clone()), c.load(Ordering::Relaxed))),
        )
    }

    /// Builds a coverage report over every known probe.
    #[must_use]
    pub fn report(&self) -> CoverageReport {
        self.snapshot().report()
    }
}

/// A cheap, cloneable, optional handle to a registry.
///
/// Instrumented subsystems (like the VFS) hold a `CoverageHandle`; when it
/// is disabled every probe call is a no-op, so uninstrumented runs pay
/// almost nothing.
///
/// ```
/// use iocov_codecov::{CoverageHandle, ProbeKind, Registry};
/// use std::sync::Arc;
///
/// let reg = Arc::new(Registry::new());
/// let cov = CoverageHandle::enabled(Arc::clone(&reg));
/// cov.fn_hit("vfs::write");
/// assert_eq!(reg.count(ProbeKind::Function, "vfs::write"), Some(1));
///
/// let off = CoverageHandle::disabled();
/// off.fn_hit("vfs::write"); // no-op
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoverageHandle {
    registry: Option<Arc<Registry>>,
}

impl CoverageHandle {
    /// A handle that records into `registry`.
    #[must_use]
    pub fn enabled(registry: Arc<Registry>) -> Self {
        CoverageHandle {
            registry: Some(registry),
        }
    }

    /// A handle that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        CoverageHandle { registry: None }
    }

    /// Whether probe calls are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, if enabled.
    #[must_use]
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    // The three probes are `#[inline]` so that, across crates and
    // without LTO, a disabled probe costs one branch rather than a call.

    /// Records a function-entry hit.
    #[inline]
    pub fn fn_hit(&self, name: &str) {
        if let Some(reg) = &self.registry {
            reg.hit(ProbeKind::Function, name);
        }
    }

    /// Records a branch outcome and returns the condition, mirroring
    /// [`cov_branch!`](crate::cov_branch).
    #[inline]
    pub fn branch(&self, name: &str, taken: bool) -> bool {
        if let Some(reg) = &self.registry {
            reg.hit_branch(name, taken);
        }
        taken
    }

    /// Records an annotated-line hit.
    #[inline]
    pub fn line_hit(&self, name: &str) {
        if let Some(reg) = &self.registry {
            reg.hit(ProbeKind::Line, name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_probes_start_at_zero() {
        let reg = Registry::new();
        reg.declare(ProbeKind::Function, "f");
        assert_eq!(reg.count(ProbeKind::Function, "f"), Some(0));
        assert_eq!(reg.count(ProbeKind::Function, "missing"), None);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn hits_increment_and_create_probes() {
        let reg = Registry::new();
        reg.hit(ProbeKind::Line, "file.rs:10");
        reg.hit(ProbeKind::Line, "file.rs:10");
        reg.hit(ProbeKind::Line, "file.rs:10");
        assert_eq!(reg.count(ProbeKind::Line, "file.rs:10"), Some(3));
    }

    #[test]
    fn kinds_are_separate_namespaces() {
        let reg = Registry::new();
        reg.hit(ProbeKind::Function, "x");
        reg.hit(ProbeKind::Line, "x");
        assert_eq!(reg.count(ProbeKind::Function, "x"), Some(1));
        assert_eq!(reg.count(ProbeKind::Line, "x"), Some(1));
        assert_eq!(reg.count(ProbeKind::Branch, "x"), None);
    }

    #[test]
    fn branch_arms_are_recorded_separately() {
        let reg = Registry::new();
        reg.declare_branch("cond");
        reg.hit_branch("cond", true);
        reg.hit_branch("cond", true);
        reg.hit_branch("cond", false);
        assert_eq!(reg.count(ProbeKind::Branch, "cond:T"), Some(2));
        assert_eq!(reg.count(ProbeKind::Branch, "cond:F"), Some(1));
    }

    #[test]
    fn reset_zeroes_but_keeps_declarations() {
        let reg = Registry::new();
        reg.hit(ProbeKind::Function, "f");
        reg.reset();
        assert_eq!(reg.count(ProbeKind::Function, "f"), Some(0));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn declare_all_declares_each() {
        let reg = Registry::new();
        reg.declare_all(ProbeKind::Function, ["a", "b", "c"]);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn handle_disabled_is_noop() {
        let h = CoverageHandle::disabled();
        assert!(!h.is_enabled());
        assert!(h.registry().is_none());
        h.fn_hit("f");
        h.line_hit("l");
        assert!(h.branch("b", true));
        assert!(!h.branch("b", false));
    }

    #[test]
    fn handle_enabled_records() {
        let reg = Arc::new(Registry::new());
        let h = CoverageHandle::enabled(Arc::clone(&reg));
        assert!(h.is_enabled());
        h.fn_hit("f");
        h.line_hit("l");
        h.branch("b", false);
        assert_eq!(reg.count(ProbeKind::Function, "f"), Some(1));
        assert_eq!(reg.count(ProbeKind::Line, "l"), Some(1));
        assert_eq!(reg.count(ProbeKind::Branch, "b:F"), Some(1));
    }

    #[test]
    fn concurrent_hits_are_not_lost() {
        let reg = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    reg.hit(ProbeKind::Function, "hot");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.count(ProbeKind::Function, "hot"), Some(8000));
    }

    #[test]
    fn probe_kind_display() {
        assert_eq!(ProbeKind::Function.to_string(), "function");
        assert_eq!(ProbeKind::Branch.to_string(), "branch");
        assert_eq!(ProbeKind::Line.to_string(), "line");
    }
}
