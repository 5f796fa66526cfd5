//! Property tests for [`StrInterner`] under concurrent interning: N
//! threads race `intern` over heavily overlapping symbol sets (syscall
//! names repeat across every thread).
//!
//! Invariants checked, for arbitrary symbol sets and thread counts:
//! equal strings always map to equal symbols no matter which thread
//! interned them first; distinct strings map to distinct symbols;
//! every issued symbol resolves back to its string; and the final
//! table is dense — exactly one entry per distinct string, indices
//! `0..len` with no gaps.

use std::collections::HashMap;
use std::sync::Arc;

use iocov_trace::{StrInterner, Sym};
use proptest::collection::vec;
use proptest::prelude::*;

/// Small alphabet so threads collide on the same strings constantly —
/// the interesting case for the read-lock / write-lock re-check dance.
fn arb_symbol() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-f]{1,3}",
        Just("openat".to_owned()),
        Just("read".to_owned()),
        Just(String::new()),
        Just("/mnt/test/\u{fffd}".to_owned()),
    ]
}

proptest! {
    /// N threads interning overlapping symbol sets agree on every id,
    /// and the table ends up dense and exact.
    #[test]
    fn concurrent_interning_is_consistent(
        per_thread in vec(vec(arb_symbol(), 1..24), 2..6),
    ) {
        let interner = Arc::new(StrInterner::new());

        let handles: Vec<_> = per_thread
            .iter()
            .cloned()
            .map(|symbols| {
                let interner = Arc::clone(&interner);
                std::thread::spawn(move || {
                    symbols
                        .into_iter()
                        .map(|s| {
                            let sym = interner.intern(&s);
                            (s, sym)
                        })
                        .collect::<Vec<(String, Sym)>>()
                })
            })
            .collect();

        let mut issued: HashMap<String, Sym> = HashMap::new();
        for handle in handles {
            for (s, sym) in handle.join().unwrap() {
                // Same string → same symbol, across threads; first
                // claim wins and never changes.
                if let Some(&prev) = issued.get(&s) {
                    prop_assert_eq!(prev, sym, "string {:?} got two ids", s);
                } else {
                    issued.insert(s, sym);
                }
            }
        }

        // Every symbol resolves to exactly the string that produced it.
        for (s, sym) in &issued {
            let resolved = interner.resolve(*sym);
            prop_assert_eq!(resolved.as_deref(), Some(s.as_str()));
        }

        // Dense table: one entry per distinct string, ids 0..len with
        // no gaps or phantom entries.
        prop_assert_eq!(interner.len(), issued.len());
        let mut indices: Vec<u32> = issued.values().map(|sym| sym.index()).collect();
        indices.sort_unstable();
        let expected: Vec<u32> = (0..issued.len() as u32).collect();
        prop_assert_eq!(indices, expected);

        // The snapshot (what the `.iotb` writer serializes) agrees with
        // resolve on every slot.
        let snap = interner.snapshot();
        prop_assert_eq!(snap.len(), issued.len());
        for (idx, entry) in snap.iter().enumerate() {
            let resolved = interner.resolve(Sym::from_index(idx as u32));
            prop_assert_eq!(resolved.as_deref(), Some(entry.as_ref()));
        }
    }
}
