//! Append-only string interning.
//!
//! The analysis hot path touches the same few dozen strings millions of
//! times: syscall names, variant names, flag names, and mount-relative
//! paths. [`StrInterner`] maps each distinct string to a dense [`Sym`]
//! (a `u32` index) exactly once, so the hot path can hash and compare
//! 4-byte symbols instead of cloning heap strings. The table is
//! append-only — symbols are never invalidated — and `Arc`-shareable, so
//! one interner can serve several threads at the same time.
//!
//! ```
//! use iocov_trace::StrInterner;
//!
//! let interner = StrInterner::new();
//! let a = interner.intern("openat");
//! let b = interner.intern("openat");
//! assert_eq!(a, b);
//! assert_eq!(interner.resolve(a).as_deref(), Some("openat"));
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

/// A symbol: a dense index into one [`StrInterner`]'s table.
///
/// Symbols are only meaningful relative to the interner that issued
/// them; they order by first-interned-wins insertion order, not
/// lexicographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The raw table index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Wraps a raw table index (e.g. one decoded from an `.iotb`
    /// string-table reference). Resolving an out-of-range symbol yields
    /// `None`.
    #[must_use]
    pub fn from_index(index: u32) -> Self {
        Sym(index)
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Arc<str>, Sym>,
    strings: Vec<Arc<str>>,
}

/// A thread-safe append-only symbol table. See the [module docs](self).
#[derive(Debug, Default)]
pub struct StrInterner {
    inner: RwLock<Inner>,
}

impl StrInterner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        StrInterner::default()
    }

    /// Interns `s`, returning its symbol. Repeated calls with equal
    /// strings return equal symbols; distinct strings get distinct
    /// symbols in first-seen order.
    pub fn intern(&self, s: &str) -> Sym {
        if let Some(&sym) = self.inner.read().map.get(s) {
            return sym;
        }
        let mut inner = self.inner.write();
        // Re-check: another thread may have interned between the locks.
        if let Some(&sym) = inner.map.get(s) {
            return sym;
        }
        let sym = Sym(u32::try_from(inner.strings.len()).expect("interner overflow"));
        let arc: Arc<str> = Arc::from(s);
        inner.strings.push(Arc::clone(&arc));
        inner.map.insert(arc, sym);
        sym
    }

    /// The string behind `sym`, or `None` if the symbol was not issued
    /// by this interner.
    #[must_use]
    pub fn resolve(&self, sym: Sym) -> Option<Arc<str>> {
        self.inner.read().strings.get(sym.0 as usize).cloned()
    }

    /// Number of distinct strings interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.read().strings.len()
    }

    /// Whether nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of the table in symbol order, for writing an
    /// `.iotb` string table.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Arc<str>> {
        self.inner.read().strings.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let i = StrInterner::new();
        assert!(i.is_empty());
        let a = i.intern("open");
        let b = i.intern("close");
        let a2 = i.intern("open");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_returns_the_interned_string() {
        let i = StrInterner::new();
        let s = i.intern("/mnt/test/a");
        assert_eq!(i.resolve(s).as_deref(), Some("/mnt/test/a"));
        assert!(i.resolve(Sym::from_index(99)).is_none());
    }

    #[test]
    fn snapshot_preserves_first_seen_order() {
        let i = StrInterner::new();
        i.intern("b");
        i.intern("a");
        i.intern("b");
        let snap = i.snapshot();
        let strs: Vec<&str> = snap.iter().map(AsRef::as_ref).collect();
        assert_eq!(strs, ["b", "a"]);
    }

    #[test]
    fn shared_across_threads() {
        let i = Arc::new(StrInterner::new());
        let base = i.intern("base");
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let i = Arc::clone(&i);
                std::thread::spawn(move || (i.intern("base"), i.intern(&format!("t{t}"))))
            })
            .collect();
        for h in handles {
            let (b, own) = h.join().unwrap();
            assert_eq!(b, base);
            assert!(i.resolve(own).is_some());
        }
        // "base" + 4 distinct per-thread strings.
        assert_eq!(i.len(), 5);
    }
}
