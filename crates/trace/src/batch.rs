//! Columnar event batches: the allocation-free hot-path representation.
//!
//! [`TraceEvent`] is the serde/interop type — one heap `String` for the
//! syscall name, one `Vec<ArgValue>`, and an owned `String` per path
//! argument, *per event*. That is the right shape for JSON wire
//! compatibility and for tests, but it taxes the decode→filter→analyze
//! hot path with O(events × args) allocator round-trips.
//!
//! [`EventBatch`] is the struct-of-arrays alternative: fixed-width
//! columns for `seq`/`timestamp_ns`/`pid`/`sysno`/`retval`, a dense
//! batch-local name table of `Arc<str>` syscall names referenced by
//! `u32` id, one shared `PackedArg` column addressed by per-event
//! ranges, and a single `String` bump arena holding every path/str
//! payload. Appending an event touches only column tails, so a batch of
//! N events costs O(columns) allocations (amortized) instead of
//! O(N × args).
//!
//! Lifetime rules:
//!
//! * [`EventRef`]/[`ArgView`] borrow from the batch and never outlive
//!   it; they are `Copy` and cost nothing to pass around.
//! * The arena only grows while the batch is being built; rows are never
//!   mutated or removed, so every issued `(start, len)` range stays
//!   valid for the life of the batch.
//! * Conversion to and from `Vec<TraceEvent>` is lossless
//!   ([`EventBatch::from_events`] / [`EventBatch::to_events`]), which is
//!   what keeps reports, checkpoints, and wire formats byte-identical to
//!   the owned-event pipeline.

use std::collections::HashMap;
use std::sync::Arc;

use crate::event::{ArgValue, TraceEvent};

/// One argument in packed columnar form. Scalars are stored inline;
/// variable-length `Path`/`Str` payloads live in the batch's text arena
/// and are referenced by `(start, len)` byte ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackedArg {
    Int(i64),
    UInt(u64),
    Fd(i32),
    Path { start: u32, len: u32 },
    Str { start: u32, len: u32 },
    Flags(u32),
    Mode(u32),
    Whence(u32),
    Ptr(u64),
}

/// A borrowed view of one decoded argument. Mirrors [`ArgValue`] with
/// `&str` payloads borrowed from the batch arena (or from an owned
/// event), so consumers can be written once against either layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgView<'a> {
    /// A signed integer (offsets, lengths that may be negative in ABI form).
    Int(i64),
    /// An unsigned integer (sizes, counts).
    UInt(u64),
    /// A file descriptor (including `AT_FDCWD` = -100).
    Fd(i32),
    /// A pathname string argument.
    Path(&'a str),
    /// A non-path string argument (e.g. xattr names).
    Str(&'a str),
    /// A flags bitmap word.
    Flags(u32),
    /// A permission-bits word (`mode_t`).
    Mode(u32),
    /// A categorical selector with a fixed value set.
    Whence(u32),
    /// A userspace pointer; only its null-ness is semantically relevant.
    Ptr(u64),
}

impl<'a> ArgView<'a> {
    /// Borrows a view of an owned [`ArgValue`].
    #[must_use]
    pub fn of(arg: &'a ArgValue) -> ArgView<'a> {
        match arg {
            ArgValue::Int(v) => ArgView::Int(*v),
            ArgValue::UInt(v) => ArgView::UInt(*v),
            ArgValue::Fd(v) => ArgView::Fd(*v),
            ArgValue::Path(s) => ArgView::Path(s),
            ArgValue::Str(s) => ArgView::Str(s),
            ArgValue::Flags(v) => ArgView::Flags(*v),
            ArgValue::Mode(v) => ArgView::Mode(*v),
            ArgValue::Whence(v) => ArgView::Whence(*v),
            ArgValue::Ptr(v) => ArgView::Ptr(*v),
        }
    }

    /// Materializes the owned [`ArgValue`] equivalent of this view.
    #[must_use]
    pub fn to_owned_arg(self) -> ArgValue {
        match self {
            ArgView::Int(v) => ArgValue::Int(v),
            ArgView::UInt(v) => ArgValue::UInt(v),
            ArgView::Fd(v) => ArgValue::Fd(v),
            ArgView::Path(s) => ArgValue::Path(s.to_owned()),
            ArgView::Str(s) => ArgValue::Str(s.to_owned()),
            ArgView::Flags(v) => ArgValue::Flags(v),
            ArgView::Mode(v) => ArgValue::Mode(v),
            ArgView::Whence(v) => ArgValue::Whence(v),
            ArgView::Ptr(v) => ArgValue::Ptr(v),
        }
    }

    /// The path string, if this argument is a pathname.
    #[must_use]
    pub fn as_path(self) -> Option<&'a str> {
        match self {
            ArgView::Path(p) => Some(p),
            _ => None,
        }
    }
}

/// One event's arguments, located once: the argument vector of an owned
/// [`TraceEvent`], or a batch row's packed argument slice with the arena
/// its text lives in. A consumer that reads several arguments of a row
/// takes this once and indexes it, instead of locating the row's
/// argument range again for every [`EventView::arg`] call.
#[derive(Debug, Clone, Copy)]
pub struct Args<'a>(ArgsRepr<'a>);

#[derive(Debug, Clone, Copy)]
enum ArgsRepr<'a> {
    Owned(&'a [ArgValue]),
    Packed {
        args: &'a [PackedArg],
        text: &'a str,
    },
}

impl<'a> Args<'a> {
    /// Number of arguments.
    #[must_use]
    pub fn len(self) -> usize {
        match self.0 {
            ArgsRepr::Owned(args) => args.len(),
            ArgsRepr::Packed { args, .. } => args.len(),
        }
    }

    /// Whether there are no arguments.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The argument at `index`, or `None` past the end.
    #[inline(always)]
    #[must_use]
    pub fn get(self, index: usize) -> Option<ArgView<'a>> {
        match self.0 {
            ArgsRepr::Owned(args) => args.get(index).map(ArgView::of),
            ArgsRepr::Packed { args, text } => args.get(index).map(|&p| unpack(p, text)),
        }
    }

    /// The arguments in order.
    #[inline(always)]
    pub fn iter(self) -> impl Iterator<Item = ArgView<'a>> {
        // One half of the chain is empty: the arguments are either an
        // owned vector or a packed slice.
        let (owned, packed, text) = match self.0 {
            ArgsRepr::Owned(args) => (args, &[][..], ""),
            ArgsRepr::Packed { args, text } => (&[][..], args, text),
        };
        owned
            .iter()
            .map(ArgView::of)
            .chain(packed.iter().map(move |&p| unpack(p, text)))
    }
}

/// The `(start, len)` byte range of an arena.
#[inline(always)]
fn text_range(text: &str, start: u32, len: u32) -> &str {
    &text[start as usize..(start + len) as usize]
}

/// The view of a packed argument whose text lives in `text`. Always
/// inlined: a consumer's match on the view then folds into this one.
#[inline(always)]
fn unpack(packed: PackedArg, text: &str) -> ArgView<'_> {
    let slice = |start, len| text_range(text, start, len);
    match packed {
        PackedArg::Int(v) => ArgView::Int(v),
        PackedArg::UInt(v) => ArgView::UInt(v),
        PackedArg::Fd(v) => ArgView::Fd(v),
        PackedArg::Flags(v) => ArgView::Flags(v),
        PackedArg::Mode(v) => ArgView::Mode(v),
        PackedArg::Whence(v) => ArgView::Whence(v),
        PackedArg::Ptr(v) => ArgView::Ptr(v),
        PackedArg::Path { start, len } => ArgView::Path(slice(start, len)),
        PackedArg::Str { start, len } => ArgView::Str(slice(start, len)),
    }
}

/// Uniform read access to one event, whether it is an owned
/// [`TraceEvent`] or a row of an [`EventBatch`].
///
/// The relevance tracker, the variant normalizer, and the report
/// accumulator are all generic over this trait, which is what
/// guarantees the keep/drop and partition decisions cannot diverge
/// between the owned-event path and the batch path.
pub trait EventView {
    /// Monotonic per-recorder sequence number.
    fn seq(&self) -> u64;
    /// Logical timestamp in nanoseconds.
    fn timestamp_ns(&self) -> u64;
    /// Process id of the issuing process.
    fn pid(&self) -> u32;
    /// Syscall name, e.g. `"openat2"`.
    fn name(&self) -> &str;
    /// Syscall ABI number.
    fn sysno(&self) -> u32;
    /// Raw return value: `>= 0` on success, `-errno` on failure.
    fn retval(&self) -> i64;
    /// The decoded arguments, located once.
    fn args(&self) -> Args<'_>;
    /// Number of decoded arguments.
    fn arg_count(&self) -> usize {
        self.args().len()
    }
    /// The argument at `index`, or `None` past the end.
    fn arg(&self, index: usize) -> Option<ArgView<'_>> {
        self.args().get(index)
    }
}

impl EventView for TraceEvent {
    fn seq(&self) -> u64 {
        self.seq
    }
    fn timestamp_ns(&self) -> u64 {
        self.timestamp_ns
    }
    fn pid(&self) -> u32 {
        self.pid
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn sysno(&self) -> u32 {
        self.sysno
    }
    fn retval(&self) -> i64 {
        self.retval
    }
    #[inline]
    fn args(&self) -> Args<'_> {
        Args(ArgsRepr::Owned(&self.args))
    }
}

/// A struct-of-arrays batch of trace events. See the [module docs](self).
#[derive(Debug, Default, Clone)]
pub struct EventBatch {
    seq: Vec<u64>,
    timestamp_ns: Vec<u64>,
    pid: Vec<u32>,
    sysno: Vec<u32>,
    retval: Vec<i64>,
    /// Per-event index into `name_table`.
    name_id: Vec<u32>,
    /// Per-event `(start, len)` range into `args`.
    arg_range: Vec<(u32, u32)>,
    /// All arguments of all events, in event order.
    args: Vec<PackedArg>,
    /// Bump arena for `Path`/`Str` payload bytes.
    text: String,
    /// Distinct syscall names seen by this batch, in first-seen order.
    name_table: Vec<Arc<str>>,
    /// Reverse lookup for `name_table` (names repeat heavily; hashing a
    /// short name is far cheaper than allocating it).
    name_lookup: HashMap<Arc<str>, u32>,
}

impl EventBatch {
    /// Creates an empty batch.
    #[must_use]
    pub fn new() -> Self {
        EventBatch::default()
    }

    /// Creates an empty batch with column capacity for `events` events.
    #[must_use]
    pub fn with_capacity(events: usize) -> Self {
        EventBatch {
            seq: Vec::with_capacity(events),
            timestamp_ns: Vec::with_capacity(events),
            pid: Vec::with_capacity(events),
            sysno: Vec::with_capacity(events),
            retval: Vec::with_capacity(events),
            name_id: Vec::with_capacity(events),
            arg_range: Vec::with_capacity(events),
            args: Vec::with_capacity(events.saturating_mul(3)),
            ..EventBatch::default()
        }
    }

    /// Number of events in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the batch holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Interns `name` into the batch-local name table, allocating only
    /// the first time each distinct name is seen.
    fn intern_name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_lookup.get(name) {
            return id;
        }
        self.insert_name(Arc::from(name))
    }

    /// Interns an already-shared name (e.g. an `.iotb` string-table
    /// entry) without copying the bytes.
    fn intern_name_arc(&mut self, name: &Arc<str>) -> u32 {
        if let Some(&id) = self.name_lookup.get(name.as_ref()) {
            return id;
        }
        self.insert_name(Arc::clone(name))
    }

    fn insert_name(&mut self, name: Arc<str>) -> u32 {
        let id = u32::try_from(self.name_table.len()).expect("batch name table overflow");
        self.name_table.push(Arc::clone(&name));
        self.name_lookup.insert(name, id);
        id
    }

    fn push_text(&mut self, payload: &str) -> PackedText {
        let start = u32::try_from(self.text.len()).expect("batch arena overflow");
        self.text.push_str(payload);
        let len = u32::try_from(payload.len()).expect("batch arena overflow");
        PackedText { start, len }
    }

    fn text_slice(&self, start: u32, len: u32) -> &str {
        text_range(&self.text, start, len)
    }

    /// Appends one owned event by copying it into the columns.
    pub fn push_event(&mut self, event: &TraceEvent) {
        let name_id = self.intern_name(&event.name);
        self.push_event_as(event, name_id);
    }

    /// [`push_event`](Self::push_event) with the name already interned.
    fn push_event_as(&mut self, event: &TraceEvent, name_id: u32) {
        let start = u32::try_from(self.args.len()).expect("batch args overflow");
        for arg in &event.args {
            let packed = self.pack_arg(ArgView::of(arg));
            self.args.push(packed);
        }
        let len = u32::try_from(event.args.len()).expect("batch args overflow");
        self.push_head(
            event.seq,
            event.timestamp_ns,
            event.pid,
            name_id,
            event.sysno,
            event.retval,
            (start, len),
        );
    }

    #[inline]
    fn pack_arg(&mut self, arg: ArgView<'_>) -> PackedArg {
        match arg {
            ArgView::Int(v) => PackedArg::Int(v),
            ArgView::UInt(v) => PackedArg::UInt(v),
            ArgView::Fd(v) => PackedArg::Fd(v),
            ArgView::Flags(v) => PackedArg::Flags(v),
            ArgView::Mode(v) => PackedArg::Mode(v),
            ArgView::Whence(v) => PackedArg::Whence(v),
            ArgView::Ptr(v) => PackedArg::Ptr(v),
            ArgView::Path(s) => {
                let PackedText { start, len } = self.push_text(s);
                PackedArg::Path { start, len }
            }
            ArgView::Str(s) => {
                let PackedText { start, len } = self.push_text(s);
                PackedArg::Str { start, len }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_head(
        &mut self,
        seq: u64,
        timestamp_ns: u64,
        pid: u32,
        name_id: u32,
        sysno: u32,
        retval: i64,
        arg_range: (u32, u32),
    ) {
        self.seq.push(seq);
        self.timestamp_ns.push(timestamp_ns);
        self.pid.push(pid);
        self.name_id.push(name_id);
        self.sysno.push(sysno);
        self.retval.push(retval);
        self.arg_range.push(arg_range);
    }

    /// Copies row `row` of `other` into this batch: columns are copied,
    /// the name is re-interned by `Arc` identity (no byte copy for
    /// repeat names), and path/str payloads are re-based into this
    /// batch's arena. Allocation-free per event once tables warm up.
    ///
    /// # Panics
    ///
    /// Panics if `row >= other.len()`.
    pub fn append_row(&mut self, other: &EventBatch, row: usize) {
        assert!(row < other.len(), "append_row: row {row} out of bounds");
        let name_id = self.intern_name_arc(&other.name_table[other.name_id[row] as usize]);
        let (ostart, olen) = other.arg_range[row];
        let start = u32::try_from(self.args.len()).expect("batch args overflow");
        for i in ostart..ostart + olen {
            let packed = match other.args[i as usize] {
                PackedArg::Path { start, len } => {
                    let t = self.push_text(other.text_slice(start, len));
                    PackedArg::Path {
                        start: t.start,
                        len: t.len,
                    }
                }
                PackedArg::Str { start, len } => {
                    let t = self.push_text(other.text_slice(start, len));
                    PackedArg::Str {
                        start: t.start,
                        len: t.len,
                    }
                }
                scalar => scalar,
            };
            self.args.push(packed);
        }
        self.push_head(
            other.seq[row],
            other.timestamp_ns[row],
            other.pid[row],
            name_id,
            other.sysno[row],
            other.retval[row],
            (start, olen),
        );
    }

    /// Appends every row of `other`, in order — [`EventBatch::append_row`]
    /// over the whole batch, used to coalesce sub-threshold batches
    /// without materializing owned events.
    pub fn append_batch(&mut self, other: &EventBatch) {
        for row in 0..other.len() {
            self.append_row(other, row);
        }
    }

    /// Begins a decoder-driven row: pushes arguments first via the
    /// returned builder, then seals the head columns. If the builder is
    /// dropped without [`RowBuilder::commit`], the partially-pushed
    /// arguments and arena bytes are rolled back and the batch is left
    /// exactly as before — malformed records never leave partial rows.
    pub(crate) fn begin_row(&mut self) -> RowBuilder<'_> {
        let arg_mark = self.args.len();
        let text_mark = self.text.len();
        RowBuilder {
            batch: self,
            arg_mark,
            text_mark,
            committed: false,
        }
    }

    /// The batch's distinct syscall names in first-seen order, indexed
    /// by [`EventRef::name_id`].
    #[must_use]
    pub fn names(&self) -> &[Arc<str>] {
        &self.name_table
    }

    /// Builds a batch by copying a slice of owned events. To pack events
    /// that are dropped afterwards, convert the `Vec` with `From`, which
    /// frees each event as it packs it.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut batch = EventBatch::with_capacity(events.len());
        let mut hints = NameHints::new();
        for event in events {
            let name_id = hints.intern(&mut batch, &event.name, event.sysno);
            batch.push_event_as(event, name_id);
        }
        batch
    }

    /// Materializes every row as an owned [`TraceEvent`]. Lossless
    /// inverse of [`EventBatch::from_events`].
    #[must_use]
    pub fn to_events(&self) -> Vec<TraceEvent> {
        self.iter().map(|e| e.to_event()).collect()
    }

    /// The event at `row`, or `None` past the end.
    #[must_use]
    pub fn get(&self, row: usize) -> Option<EventRef<'_>> {
        (row < self.len()).then_some(EventRef { batch: self, row })
    }

    /// Iterates the batch rows as borrowed [`EventRef`]s.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = EventRef<'_>> + '_ {
        (0..self.len()).map(move |row| EventRef { batch: self, row })
    }

    /// Estimated number of heap allocations the owned
    /// `Vec<TraceEvent>` representation of this batch would need: one
    /// name `String` and one args `Vec` per event, plus one `String`
    /// per path/str argument. The batch itself amortizes all of these
    /// into O(columns) buffers; the pipeline metrics report this figure
    /// as `allocs_estimated` so the saving is observable.
    #[must_use]
    pub fn estimated_owned_allocs(&self) -> u64 {
        let texts = self
            .args
            .iter()
            .filter(|a| matches!(a, PackedArg::Path { .. } | PackedArg::Str { .. }))
            .count() as u64;
        (self.len() as u64) * 2 + texts
    }
}

/// Consumes the events: each one is packed and freed in the same pass,
/// while its name, arguments and paths are still in cache.
impl From<Vec<TraceEvent>> for EventBatch {
    fn from(events: Vec<TraceEvent>) -> Self {
        let mut batch = EventBatch::with_capacity(events.len());
        let mut hints = NameHints::new();
        for event in events {
            let name_id = hints.intern(&mut batch, &event.name, event.sysno);
            batch.push_event_as(&event, name_id);
        }
        batch
    }
}

/// Syscall numbers below this get a [`NameHints`] slot; it covers the
/// x86-64 table. Higher numbers fall back to the lookup map.
const SYSNO_HINTS: usize = 512;

/// Name-table ids by syscall number, for packing a run of owned events
/// or decoding a run of lines: a name that repeats under its number
/// costs one byte comparison instead of a hash. A miss (a number never
/// seen, or one seen under another name) interns through the lookup map
/// and re-points the slot, so the name table comes out the same as
/// without hints. A hit is checked against the batch's own table, so
/// one set of hints stays correct across batches.
pub(crate) struct NameHints([u32; SYSNO_HINTS]);

impl NameHints {
    pub(crate) fn new() -> Self {
        // `u32::MAX` names no entry of any name table.
        NameHints([u32::MAX; SYSNO_HINTS])
    }

    fn intern(&mut self, batch: &mut EventBatch, name: &str, sysno: u32) -> u32 {
        let Some(slot) = self.0.get_mut(sysno as usize) else {
            return batch.intern_name(name);
        };
        let hit = batch
            .name_table
            .get(*slot as usize)
            .is_some_and(|known| **known == *name);
        if !hit {
            *slot = batch.intern_name(name);
        }
        *slot
    }
}

/// Name-table ids by `.iotb` string-table symbol, for decoding a run of
/// records: a name symbol that repeats costs one pointer comparison
/// instead of hashing the name. A hit is checked by `Arc` identity
/// against the batch's own table, so one set of hints stays correct
/// across batches; a miss interns through the lookup map and re-points
/// the slot, so the name table comes out the same as without hints.
/// The slots grow on demand up to the highest symbol seen, which the
/// decoder has already checked against the string table.
#[derive(Debug, Default)]
pub(crate) struct SymbolHints(Vec<u32>);

impl SymbolHints {
    fn intern(&mut self, batch: &mut EventBatch, symbol: u32, name: &Arc<str>) -> u32 {
        let index = symbol as usize;
        if index >= self.0.len() {
            // `u32::MAX` names no entry of any name table.
            self.0.resize(index + 1, u32::MAX);
        }
        let slot = &mut self.0[index];
        let hit = batch
            .name_table
            .get(*slot as usize)
            .is_some_and(|known| Arc::ptr_eq(known, name));
        if !hit {
            *slot = batch.intern_name_arc(name);
        }
        *slot
    }
}

struct PackedText {
    start: u32,
    len: u32,
}

/// An in-progress decoder row; see [`EventBatch::begin_row`].
pub(crate) struct RowBuilder<'a> {
    batch: &'a mut EventBatch,
    arg_mark: usize,
    text_mark: usize,
    committed: bool,
}

impl RowBuilder<'_> {
    /// Appends one argument to the pending row. Inlined, so that a
    /// decoder's match on the argument tag is the only dispatch.
    #[inline]
    pub(crate) fn push_arg(&mut self, arg: ArgView<'_>) {
        let packed = self.batch.pack_arg(arg);
        self.batch.args.push(packed);
    }

    /// Interns the syscall name for the pending row through `hints`,
    /// copying it only the first time the batch sees it.
    pub(crate) fn intern_hinted(&mut self, hints: &mut NameHints, name: &str, sysno: u32) -> u32 {
        hints.intern(self.batch, name, sysno)
    }

    /// Interns the syscall name `name`, string-table entry `symbol`, for
    /// the pending row through `hints`, without copying it.
    pub(crate) fn intern_symbol(
        &mut self,
        hints: &mut SymbolHints,
        symbol: u32,
        name: &Arc<str>,
    ) -> u32 {
        hints.intern(self.batch, symbol, name)
    }

    /// Seals the row by pushing the head columns.
    pub(crate) fn commit(
        mut self,
        seq: u64,
        timestamp_ns: u64,
        pid: u32,
        name_id: u32,
        sysno: u32,
        retval: i64,
    ) {
        let start = u32::try_from(self.arg_mark).expect("batch args overflow");
        let len = u32::try_from(self.batch.args.len() - self.arg_mark).expect("batch overflow");
        self.batch
            .push_head(seq, timestamp_ns, pid, name_id, sysno, retval, (start, len));
        self.committed = true;
    }
}

impl Drop for RowBuilder<'_> {
    fn drop(&mut self) {
        if !self.committed {
            // Abandoned row (decode error): roll back its args and arena
            // bytes. A name interned for the row may survive in the name
            // table; that is harmless (it is never referenced by a row).
            self.batch.args.truncate(self.arg_mark);
            self.batch.text.truncate(self.text_mark);
        }
    }
}

/// A borrowed, `Copy` view of one row of an [`EventBatch`].
#[derive(Debug, Clone, Copy)]
pub struct EventRef<'a> {
    batch: &'a EventBatch,
    row: usize,
}

impl<'a> EventRef<'a> {
    /// The row's index into [`EventBatch::names`]. Rows with the same
    /// name share an id within one batch, so a consumer can resolve
    /// each distinct name once per batch and look rows up by id.
    #[must_use]
    pub fn name_id(self) -> u32 {
        self.batch.name_id[self.row]
    }

    /// The syscall name, borrowed from the batch name table.
    #[must_use]
    pub fn name(self) -> &'a str {
        &self.batch.name_table[self.batch.name_id[self.row] as usize]
    }

    /// The row's packed argument slice, borrowed from the batch columns.
    #[inline]
    #[must_use]
    pub fn args(self) -> Args<'a> {
        let (start, len) = self.batch.arg_range[self.row];
        let args = &self.batch.args[start as usize..(start + len) as usize];
        Args(ArgsRepr::Packed {
            args,
            text: &self.batch.text,
        })
    }

    /// The argument at `index`, borrowed from the batch columns.
    #[must_use]
    pub fn arg(self, index: usize) -> Option<ArgView<'a>> {
        self.args().get(index)
    }

    /// Materializes this row as an owned [`TraceEvent`].
    #[must_use]
    pub fn to_event(self) -> TraceEvent {
        let args = self.args().iter().map(ArgView::to_owned_arg).collect();
        TraceEvent {
            seq: self.batch.seq[self.row],
            timestamp_ns: self.batch.timestamp_ns[self.row],
            pid: self.batch.pid[self.row],
            name: self.name().to_owned(),
            sysno: self.batch.sysno[self.row],
            args,
            retval: self.batch.retval[self.row],
        }
    }
}

impl EventView for EventRef<'_> {
    fn seq(&self) -> u64 {
        self.batch.seq[self.row]
    }
    fn timestamp_ns(&self) -> u64 {
        self.batch.timestamp_ns[self.row]
    }
    fn pid(&self) -> u32 {
        self.batch.pid[self.row]
    }
    fn name(&self) -> &str {
        EventRef::name(*self)
    }
    fn sysno(&self) -> u32 {
        self.batch.sysno[self.row]
    }
    fn retval(&self) -> i64 {
        self.batch.retval[self.row]
    }
    #[inline]
    fn args(&self) -> Args<'_> {
        EventRef::args(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let mut e1 = TraceEvent::build(
            "openat",
            257,
            vec![
                ArgValue::Fd(-100),
                ArgValue::Path("/mnt/test/a".into()),
                ArgValue::Flags(0x41),
                ArgValue::Mode(0o644),
            ],
            3,
        );
        e1.seq = 1;
        e1.timestamp_ns = 10;
        e1.pid = 42;
        let mut e2 = TraceEvent::build("read", 0, vec![ArgValue::Fd(3), ArgValue::UInt(4096)], 17);
        e2.seq = 2;
        e2.timestamp_ns = 20;
        e2.pid = 42;
        let mut e3 = TraceEvent::build(
            "setxattr",
            188,
            vec![
                ArgValue::Path("b".into()),
                ArgValue::Str("user.k".into()),
                ArgValue::Ptr(1),
                ArgValue::UInt(4),
                ArgValue::Flags(0),
            ],
            -2,
        );
        e3.seq = 3;
        e3.timestamp_ns = 30;
        e3.pid = 43;
        vec![e1, e2, e3]
    }

    #[test]
    fn roundtrip_is_lossless() {
        let events = sample_events();
        let batch = EventBatch::from_events(&events);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.to_events(), events);
    }

    #[test]
    fn refs_mirror_owned_events() {
        let events = sample_events();
        let batch = EventBatch::from_events(&events);
        for (event, row) in events.iter().zip(batch.iter()) {
            assert_eq!(EventView::seq(event), EventView::seq(&row));
            assert_eq!(EventView::pid(event), EventView::pid(&row));
            assert_eq!(EventView::name(event), EventView::name(&row));
            assert_eq!(EventView::sysno(event), EventView::sysno(&row));
            assert_eq!(EventView::retval(event), EventView::retval(&row));
            assert_eq!(EventView::arg_count(event), EventView::arg_count(&row));
            for i in 0..event.args.len() {
                assert_eq!(EventView::arg(event, i), EventView::arg(&row, i));
            }
            assert_eq!(EventView::arg(&row, event.args.len()), None);
        }
    }

    #[test]
    fn names_are_deduplicated() {
        let mut events = Vec::new();
        for seq in 0..100 {
            let mut e = TraceEvent::build("close", 3, vec![ArgValue::Fd(3)], 0);
            e.seq = seq;
            events.push(e);
        }
        let batch = EventBatch::from_events(&events);
        assert_eq!(batch.name_table.len(), 1);
        assert_eq!(batch.len(), 100);
    }

    #[test]
    fn consuming_pack_matches_copying_pack() {
        // Names that share a number (as unknown calls in whole-system
        // traces do), numbers past the hint table, and repeats.
        let mut events = sample_events();
        for (seq, (name, sysno)) in [
            ("close", 3),
            ("execve", 0),
            ("read", 0),
            ("close", 3),
            ("futex", 202),
            ("weird", 9_999),
            ("read", 0),
            ("weird", 9_999),
            ("other", 9_999),
            ("execve", 0),
        ]
        .into_iter()
        .enumerate()
        {
            let mut e = TraceEvent::build(name, sysno, vec![ArgValue::Path(format!("/p{seq}"))], 0);
            e.seq = 10 + seq as u64;
            events.push(e);
        }
        let copied = EventBatch::from_events(&events);
        let consumed = EventBatch::from(events.clone());
        assert_eq!(consumed.to_events(), events);
        assert_eq!(
            consumed.name_table, copied.name_table,
            "same first-seen order"
        );
        assert_eq!(consumed.name_id, copied.name_id);
        let mut pushed = EventBatch::new();
        for event in &events {
            pushed.push_event(event);
        }
        assert_eq!(copied.name_table, pushed.name_table, "hints change no id");
        assert_eq!(copied.name_id, pushed.name_id);
    }

    #[test]
    fn append_row_rebases_text() {
        let events = sample_events();
        let src = EventBatch::from_events(&events);
        let mut dst = EventBatch::new();
        // Copy in reverse so the arena offsets cannot line up by luck.
        for row in (0..src.len()).rev() {
            dst.append_row(&src, row);
        }
        let mut copied = dst.to_events();
        copied.reverse();
        assert_eq!(copied, events);
    }

    #[test]
    fn abandoned_row_rolls_back() {
        let mut batch = EventBatch::from_events(&sample_events());
        let args_before = batch.args.len();
        let text_before = batch.text.len();
        {
            let mut row = batch.begin_row();
            row.push_arg(ArgView::Path("/poisoned"));
            row.push_arg(ArgView::Fd(9));
            // dropped without commit
        }
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.args.len(), args_before);
        assert_eq!(batch.text.len(), text_before);
        assert_eq!(batch.to_events(), sample_events());
    }

    #[test]
    fn estimated_owned_allocs_counts_names_vecs_and_texts() {
        let batch = EventBatch::from_events(&sample_events());
        // 3 events × (name + args vec) + 3 path/str payloads.
        assert_eq!(batch.estimated_owned_allocs(), 9);
    }

    #[test]
    fn empty_batch() {
        let batch = EventBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.iter().count(), 0);
        assert!(batch.get(0).is_none());
        assert_eq!(batch.estimated_owned_allocs(), 0);
    }
}
