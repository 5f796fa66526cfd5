//! In-memory spans recorded around the benchmark's calls into each
//! layer, their self times, and a Chrome trace-event dump.
//!
//! The untimed-overhead path uses [`NoSpans`], whose methods compile to
//! nothing; the traced run uses [`Tracer`]. Spans of one thread nest
//! strictly (a stack), so a span's self time is its duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::time::Instant;

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Span recording, implemented by the real tracer and by the no-op.
pub trait Spans {
    /// Opens a span named `name` as a child of the innermost open span.
    fn enter(&mut self, name: &'static str) -> SpanId;
    /// Closes `id` (the innermost open span), crediting it with
    /// `events` units of work.
    fn exit(&mut self, id: SpanId, events: u64);
}

/// Records nothing: the end-to-end runs use this.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) -> SpanId {
        SpanId(0)
    }

    #[inline(always)]
    fn exit(&mut self, _id: SpanId, _events: u64) {}
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `trace.source`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Operation (run) the span belongs to; spans of one op share it.
    pub run: u32,
    /// Thread lane (Chrome `tid`).
    pub tid: u32,
    /// Units of work done inside the span (events, bytes).
    pub events: u64,
    /// Allocator calls made (by any thread) while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recording tracer: a span list plus the stack of open spans.
pub struct Tracer {
    epoch: Instant,
    allocs: fn() -> u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
    tid: u32,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` and which reads the
    /// allocator call counter through `allocs`.
    #[must_use]
    pub fn new(epoch: Instant, allocs: fn() -> u64, tid: u32) -> Self {
        Tracer {
            epoch,
            allocs,
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
            tid,
        }
    }

    /// Tags the spans opened from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// The run tag of spans opened now.
    #[must_use]
    pub fn run(&self) -> u32 {
        self.run
    }

    /// The instant timestamps count from (shared by lane tracers).
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The allocator call counter (shared by lane tracers).
    #[must_use]
    pub fn alloc_counter(&self) -> fn() -> u64 {
        self.allocs
    }

    /// The closed spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (e.g. a client thread's), fixing
    /// up parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

impl Spans for Tracer {
    fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
            tid: self.tid,
            events: 0,
            allocs: (self.allocs)(),
        });
        self.stack.push(id);
        SpanId(id)
    }

    fn exit(&mut self, id: SpanId, events: u64) {
        assert_eq!(
            self.stack.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let end_ns = self.now_ns();
        let allocs = (self.allocs)();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.events = events;
        span.allocs = allocs - span.allocs;
    }
}

/// Self time of every span: its duration minus its direct children's.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            self_ns[p] = self_ns[p].saturating_sub(span.dur_ns());
        }
    }
    self_ns
}

/// Checks that the span forest is well formed: every child lies inside
/// its parent on the same thread, siblings do not overlap, and the self
/// times of each tree sum exactly to its root's duration (which also
/// makes every self time non-negative).
///
/// # Errors
///
/// A description of the first violation.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", span.name));
        }
        if let Some(p) = span.parent {
            let parent = spans
                .get(p)
                .ok_or_else(|| format!("span {i} has a dangling parent {p}"))?;
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) lies outside its parent {p} ({})",
                    span.name, parent.name
                ));
            }
            if span.tid != parent.tid || span.run != parent.run {
                return Err(format!("span {i} ({}) crosses threads or runs", span.name));
            }
            children[p].push(i);
        }
    }
    for (p, kids) in children.iter().enumerate() {
        let mut kids = kids.clone();
        kids.sort_by_key(|&k| spans[k].start_ns);
        let covered: u64 = kids.iter().map(|&k| spans[k].dur_ns()).sum();
        if covered > spans[p].dur_ns() {
            return Err(format!(
                "children of span {p} ({}) outlast it",
                spans[p].name
            ));
        }
        for pair in kids.windows(2) {
            if spans[pair[1]].start_ns < spans[pair[0]].end_ns {
                return Err(format!("children of span {p} ({}) overlap", spans[p].name));
            }
        }
    }
    let self_ns = self_times(spans);
    let mut tree_self: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, &ns) in self_ns.iter().enumerate() {
        *tree_self.entry(root_of(spans, i)).or_insert(0) += ns;
    }
    for (root, sum) in tree_self {
        if sum != spans[root].dur_ns() {
            return Err(format!(
                "self times under root {root} ({}) sum to {sum} ns, root lasts {} ns",
                spans[root].name,
                spans[root].dur_ns()
            ));
        }
    }
    Ok(())
}

/// Index of the root of the tree containing span `i`.
#[must_use]
pub fn root_of(spans: &[Span], mut i: usize) -> usize {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    i
}

/// The spans as Chrome trace-event JSON (complete `X` events, times in
/// microseconds), which Perfetto and `chrome://tracing` open offline.
/// Span names are plain dotted identifiers, so they need no escaping.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|span| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"run\":{},\"events\":{},\"allocs\":{}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.tid,
                span.run,
                span.events,
                span.allocs
            )
        })
        .collect();
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\"}}\n",
        events.join(",\n")
    )
}
