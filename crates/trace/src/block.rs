//! Parallel decoding of block-indexed `.iotb` v2 containers.
//!
//! The serial [`IotbCursor`](crate::IotbCursor) is a single stream of
//! length-prefixed records: correct, resumable, and the decode
//! bottleneck of every multi-worker analysis run, because one reader
//! thread feeds every analyzer shard. A v2 container's block index
//! (see the [format docs](crate::binary)) removes that serialization
//! point: each block is an independently checksummed run of whole
//! records at a known byte offset, so N workers can decode N disjoint
//! block ranges of one shared in-memory buffer at once.
//!
//! ```text
//!   Arc<[u8]> (whole container, read once)
//!        │ block index: offset/len/events/checksum per block
//!   ┌────┴─────┬──────────┐
//!   worker 0   worker 1   worker …    claim blocks via atomic counter,
//!   │          │          │           gated to a bounded decode-ahead
//!   └───(id, DecodedBlock)┘           window past the consumer
//!              │ mpsc
//!   IotbBlockSource::next_batch       reassembles blocks in file
//!              │                      order (BTreeMap reorder buffer)
//!          EventSource consumer       → events in exact serial order
//! ```
//!
//! Because events are re-sequenced into file order before they leave
//! [`next_batch`](crate::EventSource::next_batch), every downstream
//! consumer — inline shard, pid-sharded shard threads, checkpoint writer —
//! sees exactly the stream the serial cursor would have produced, and
//! serialized reports stay byte-identical by construction.
//!
//! Workers decode records straight from the shared buffer into a
//! per-block columnar [`EventBatch`] — no per-record payload copy
//! (unlike the serial reader's `vec![0u8; len]` per record) and no
//! per-record heap allocations: names intern into the batch table by
//! `Arc` identity and path bytes land in the batch arena. The consumer
//! re-sequences rows into its output batch with
//! [`EventBatch::append_row`], so no owned [`TraceEvent`] is ever
//! materialized on this path.
//!
//! There is no `mmap` here: the container is read into one
//! `Arc<Vec<u8>>` up front. That is a deliberate dependency-free
//! stand-in with the same sharing semantics (one immutable buffer,
//! many readers); the index layout would serve a real mapping
//! identically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::batch::EventBatch;
use crate::binary::{
    binary_error, decode_record, decode_record_into, fnv1a, read_block_index, read_table,
    IotbBlock, FNV_OFFSET, MAX_RECORD_LEN,
};
use crate::cursor::CursorState;
use crate::event::TraceEvent;
use crate::lossy::{ErrorClass, ErrorPolicy, ReadOptions, SkippedLine};
use crate::serial::TraceIoError;
use crate::source::{fill_batch, EventSource, SourceFormat, SourcePos};

/// How many blocks past the consumer's position workers may decode,
/// per worker: bounds reorder-buffer memory while keeping every worker
/// busy.
const DECODE_AHEAD_PER_WORKER: usize = 2;

/// A zero-copy view of one encoded record, borrowing the container
/// buffer. The fixed-width head fields decode on demand straight from
/// the slice; an owned [`TraceEvent`] (with interned strings resolved)
/// is materialized only by [`to_event`](Self::to_event), at yield
/// time.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    payload: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// A view over one record's payload (the bytes after its length
    /// prefix). Validates only that the fixed-width head is present;
    /// arguments are validated by [`to_event`](Self::to_event).
    ///
    /// # Errors
    ///
    /// Returns a description of the structural problem.
    pub fn parse(payload: &'a [u8]) -> Result<Self, String> {
        if payload.len() < 40 {
            return Err(format!(
                "record payload too short: {} of 40 head bytes",
                payload.len()
            ));
        }
        Ok(RecordView { payload })
    }

    fn u64_at(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.payload[at..at + 8].try_into().expect("8 bytes"))
    }

    fn u32_at(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.payload[at..at + 4].try_into().expect("4 bytes"))
    }

    /// The record's sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.u64_at(0)
    }

    /// The record's timestamp in nanoseconds.
    #[must_use]
    pub fn timestamp_ns(&self) -> u64 {
        self.u64_at(8)
    }

    /// The recording process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.u32_at(16)
    }

    /// The syscall-name symbol (an index into the string table).
    #[must_use]
    pub fn name_sym(&self) -> u32 {
        self.u32_at(20)
    }

    /// The syscall number.
    #[must_use]
    pub fn sysno(&self) -> u32 {
        self.u32_at(24)
    }

    /// The syscall return value.
    #[must_use]
    pub fn retval(&self) -> i64 {
        i64::from_le_bytes(self.payload[28..36].try_into().expect("8 bytes"))
    }

    /// Materializes the owned event, resolving symbols against `table`
    /// and validating the argument list.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn to_event(&self, table: &[Arc<str>]) -> Result<TraceEvent, String> {
        decode_record(self.payload, table)
    }
}

/// A fully decoded block: one columnar batch of its records in file
/// order, plus per-record bookkeeping the consumer needs for exact
/// checkpoints — the absolute end offset of each record's frame and its
/// 1-based ordinal in the whole container (parallel to the batch rows).
struct DecodedBlock {
    batch: EventBatch,
    /// `(end_offset, ordinal)` for each batch row, in row order.
    meta: Vec<(u64, usize)>,
    skips: Vec<SkippedLine>,
    /// Absolute offset just past the block.
    end_offset: u64,
    /// Record ordinal after the block (for blocks that yield nothing).
    end_ordinal: usize,
}

/// The in-order block currently being consumed, with a row cursor.
struct CurrentBlock {
    batch: EventBatch,
    meta: Vec<(u64, usize)>,
    row: usize,
}

/// What a worker delivers for one block id.
type BlockResult = Result<DecodedBlock, TraceIoError>;

/// Gates workers to a bounded decode-ahead window past the consumer.
struct Gate {
    next_needed: Mutex<usize>,
    cv: Condvar,
    window: usize,
    shutdown: AtomicBool,
}

impl Gate {
    fn new(window: usize) -> Self {
        Gate {
            next_needed: Mutex::new(0),
            cv: Condvar::new(),
            window: window.max(1),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Blocks until block `id` is within the window (or shutdown);
    /// returns whether decoding should proceed.
    fn admit(&self, id: usize) -> bool {
        let mut next = self
            .next_needed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while id >= *next + self.window {
            if self.shutdown.load(Ordering::Acquire) {
                return false;
            }
            next = self
                .cv
                .wait(next)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        !self.shutdown.load(Ordering::Acquire)
    }

    fn advance(&self, next_needed: usize) {
        let mut next = self
            .next_needed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *next = (*next).max(next_needed);
        drop(next);
        self.cv.notify_all();
    }

    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::Release);
        drop(
            self.next_needed
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        self.cv.notify_all();
    }
}

/// Parallel [`EventSource`] over a block-indexed v2 container held in
/// one shared buffer. Yields events in exact file order regardless of
/// worker count, so reports are byte-identical to the serial path; see
/// the [module docs](self) for the data flow.
pub struct IotbBlockSource {
    options: ReadOptions,
    state: CursorState,
    blocks: usize,
    next_block: usize,
    current: Option<CurrentBlock>,
    reorder: BTreeMap<usize, BlockResult>,
    rx: Receiver<(usize, BlockResult)>,
    gate: Arc<Gate>,
    workers: Vec<JoinHandle<()>>,
    /// Records whose end offset is at or below this were consumed
    /// before the checkpoint being resumed; drop them silently.
    resume_floor: u64,
    /// Skips with ordinals at or below this are already in the
    /// resumed ledger.
    skip_floor: usize,
    failed: bool,
}

impl IotbBlockSource {
    /// A source over a fresh container, decoding with `jobs` worker
    /// threads.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Binary`] when the container is not a
    /// valid v2 indexed file (including v1 files — callers route those
    /// to the serial cursor) or its header/table/index is corrupt.
    pub fn new(
        bytes: Arc<Vec<u8>>,
        options: ReadOptions,
        jobs: usize,
    ) -> Result<Self, TraceIoError> {
        Self::build(bytes, options, jobs, None)
    }

    /// Resumes from a checkpointed `state`, continuing exactly where
    /// the serial or parallel run left off: decoding restarts at the
    /// block containing the offset, and records already consumed are
    /// dropped before yielding.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Binary`] for container corruption or a
    /// resume offset outside the record region.
    pub fn resume(
        bytes: Arc<Vec<u8>>,
        options: ReadOptions,
        state: CursorState,
        jobs: usize,
    ) -> Result<Self, TraceIoError> {
        Self::build(bytes, options, jobs, Some(state))
    }

    fn build(
        bytes: Arc<Vec<u8>>,
        options: ReadOptions,
        jobs: usize,
        resume: Option<CursorState>,
    ) -> Result<Self, TraceIoError> {
        let blocks = read_block_index(&bytes)?
            .ok_or_else(|| binary_error("container has no block index (v1)"))?;
        let (table, table_end, _version) = read_table(&mut &bytes[..])?;
        let table: Arc<Vec<Arc<str>>> = Arc::new(table);

        // Record ordinals are global; precompute each block's base from
        // the index so workers can label skips without seeing
        // neighboring blocks.
        let mut bases = Vec::with_capacity(blocks.len());
        let mut base = 0usize;
        for block in &blocks {
            bases.push(base);
            base += usize::try_from(block.events).unwrap_or(usize::MAX);
        }

        let (state, start_block, resume_floor, skip_floor) = match resume {
            None => (
                CursorState {
                    byte_offset: table_end,
                    ..CursorState::default()
                },
                0,
                0,
                0,
            ),
            Some(state) => {
                let end = blocks.last().map_or(table_end, |b| b.offset + b.byte_len);
                if state.byte_offset < table_end || state.byte_offset > end {
                    return Err(binary_error(format!(
                        "resume offset {} is outside the record region ({table_end}..={end})",
                        state.byte_offset
                    )));
                }
                let start = blocks.partition_point(|b| b.offset + b.byte_len <= state.byte_offset);
                let floor = state.byte_offset;
                let lines = state.lines;
                (state, start, floor, lines)
            }
        };

        let blocks = Arc::new(blocks);
        let bases = Arc::new(bases);
        let jobs = jobs.max(1).min(blocks.len().max(1));
        let gate = Arc::new(Gate::new(jobs * DECODE_AHEAD_PER_WORKER));
        gate.advance(start_block);
        let counter = Arc::new(AtomicUsize::new(start_block));
        let (tx, rx) = channel();
        let strict = options.on_error == ErrorPolicy::Abort;
        let mut workers = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let bytes = Arc::clone(&bytes);
            let table = Arc::clone(&table);
            let blocks = Arc::clone(&blocks);
            let bases = Arc::clone(&bases);
            let gate = Arc::clone(&gate);
            let counter = Arc::clone(&counter);
            let tx: Sender<(usize, BlockResult)> = tx.clone();
            workers.push(std::thread::spawn(move || loop {
                let id = counter.fetch_add(1, Ordering::SeqCst);
                if id >= blocks.len() || !gate.admit(id) {
                    break;
                }
                let result = decode_block(&bytes, &blocks[id], &table, bases[id], strict);
                if tx.send((id, result)).is_err() {
                    break;
                }
            }));
        }

        Ok(IotbBlockSource {
            options,
            state,
            blocks: blocks.len(),
            next_block: start_block,
            current: None,
            reorder: BTreeMap::new(),
            rx,
            gate,
            workers,
            resume_floor,
            skip_floor,
            failed: false,
        })
    }

    /// The next in-order block, from the reorder buffer or the channel.
    fn take_block(&mut self, id: usize) -> Result<DecodedBlock, TraceIoError> {
        loop {
            if let Some(result) = self.reorder.remove(&id) {
                return result;
            }
            match self.rx.recv() {
                Ok((got, result)) if got == id => return result,
                Ok((got, result)) => {
                    self.reorder.insert(got, result);
                }
                Err(_) => {
                    return Err(binary_error(
                        "block decode worker exited before delivering its block",
                    ))
                }
            }
        }
    }

    /// Copies the next in-order record into `out`; returns whether one
    /// was appended (`false` means end of stream).
    fn next_into(&mut self, out: &mut EventBatch) -> Result<bool, TraceIoError> {
        loop {
            if let Some(cur) = &mut self.current {
                if cur.row < cur.meta.len() {
                    let row = cur.row;
                    cur.row += 1;
                    let (end_offset, ordinal) = cur.meta[row];
                    if end_offset <= self.resume_floor {
                        continue; // consumed before the resumed checkpoint
                    }
                    self.state.byte_offset = end_offset;
                    self.state.lines = ordinal;
                    self.state.events += 1;
                    out.append_row(&cur.batch, row);
                    return Ok(true);
                }
                self.current = None;
            }
            if self.next_block >= self.blocks {
                return Ok(false);
            }
            let id = self.next_block;
            let block = self.take_block(id)?;
            self.next_block = id + 1;
            self.gate.advance(self.next_block);
            for skip in block.skips {
                if skip.line <= self.skip_floor {
                    continue; // already in the resumed ledger
                }
                self.state.skipped.push(skip);
                if let Some(max) = self.options.max_errors {
                    if self.state.skipped.len() > max {
                        return Err(TraceIoError::TooManyErrors {
                            errors: self.state.skipped.len(),
                            max,
                        });
                    }
                }
            }
            if block.batch.is_empty() {
                // Nothing to yield from this block (skipped whole, or
                // fully below the resume floor): account for it now so
                // checkpoints do not point backwards.
                self.state.byte_offset = self.state.byte_offset.max(block.end_offset);
                self.state.lines = self.state.lines.max(block.end_ordinal);
            }
            self.current = Some(CurrentBlock {
                batch: block.batch,
                meta: block.meta,
                row: 0,
            });
        }
    }
}

impl EventSource for IotbBlockSource {
    fn next_batch(&mut self, max: usize) -> Result<EventBatch, TraceIoError> {
        if self.failed {
            return Ok(EventBatch::new());
        }
        let batch = fill_batch(max, |batch| self.next_into(batch));
        self.failed = batch.is_err();
        batch
    }

    fn position(&self) -> SourcePos {
        SourcePos {
            format: SourceFormat::Iotb,
            state: self.state.clone(),
        }
    }

    fn skip_ledger(&self) -> &[SkippedLine] {
        &self.state.skipped
    }
}

impl Drop for IotbBlockSource {
    fn drop(&mut self) {
        self.gate.shut_down();
        // Drain so no worker is ever blocked on a full channel (the
        // channel is unbounded, but be explicit about ordering): then
        // join to avoid leaking threads past the source's lifetime.
        while self.rx.try_recv().is_ok() {}
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Decodes one block against its index entry: verifies the block
/// checksum, then walks the frames as [`RecordView`]s over the shared
/// buffer.
///
/// Under [`ErrorPolicy::Abort`] any mismatch is an error. In lossy
/// mode a failed block checksum skips the whole block with one ledger
/// entry (the framing inside cannot be trusted), and a record that
/// fails to decode despite a good checksum — which a correct writer
/// never produces — is skipped individually.
fn decode_block(
    data: &[u8],
    block: &IotbBlock,
    table: &[Arc<str>],
    base_ordinal: usize,
    strict: bool,
) -> Result<DecodedBlock, TraceIoError> {
    let start = usize::try_from(block.offset).map_err(|_| binary_error("block offset overflow"))?;
    let len = usize::try_from(block.byte_len).map_err(|_| binary_error("block length overflow"))?;
    let end = start
        .checked_add(len)
        .filter(|&end| end <= data.len())
        .ok_or_else(|| binary_error("block extends past the container"))?;
    let slice = &data[start..end];
    let end_offset = end as u64;
    if fnv1a(slice, FNV_OFFSET) != block.checksum {
        let message = format!(
            "block checksum mismatch: {len} bytes at offset {} skipped",
            block.offset
        );
        if strict {
            return Err(binary_error(message));
        }
        return Ok(DecodedBlock {
            batch: EventBatch::new(),
            meta: Vec::new(),
            skips: vec![SkippedLine {
                line: base_ordinal + 1,
                class: ErrorClass::MalformedRecord,
                message,
            }],
            end_offset,
            end_ordinal: base_ordinal + 1,
        });
    }

    let events = usize::try_from(block.events).unwrap_or(0);
    let mut batch = EventBatch::with_capacity(events);
    let mut meta = Vec::with_capacity(events);
    let mut skips = Vec::new();
    let mut pos = 0usize;
    let mut ordinal = base_ordinal;
    while pos < slice.len() {
        ordinal += 1;
        if slice.len() - pos < 4 {
            return frame_corrupt(block, ordinal, strict, batch, meta, skips, end_offset);
        }
        let rec_len = u32::from_le_bytes(slice[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if rec_len > MAX_RECORD_LEN || slice.len() - pos - 4 < rec_len {
            return frame_corrupt(block, ordinal, strict, batch, meta, skips, end_offset);
        }
        let payload = &slice[pos + 4..pos + 4 + rec_len];
        pos += 4 + rec_len;
        // Decode straight into the block's columnar batch — no owned
        // TraceEvent is ever materialized on this path.
        match decode_record_into(payload, table, &mut batch) {
            Ok(()) => meta.push((block.offset + pos as u64, ordinal)),
            Err(detail) => {
                if strict {
                    return Err(TraceIoError::Record {
                        record: ordinal,
                        detail,
                    });
                }
                skips.push(SkippedLine {
                    line: ordinal,
                    class: ErrorClass::MalformedRecord,
                    message: detail,
                });
            }
        }
    }
    Ok(DecodedBlock {
        batch,
        meta,
        skips,
        end_offset,
        end_ordinal: ordinal,
    })
}

/// A framing failure inside a checksum-verified block: the index and
/// data disagree, so the rest of the block cannot be trusted.
#[allow(clippy::too_many_arguments)]
fn frame_corrupt(
    block: &IotbBlock,
    ordinal: usize,
    strict: bool,
    batch: EventBatch,
    meta: Vec<(u64, usize)>,
    mut skips: Vec<SkippedLine>,
    end_offset: u64,
) -> Result<DecodedBlock, TraceIoError> {
    let message = format!(
        "record framing corrupt inside checksummed block at offset {}",
        block.offset
    );
    if strict {
        return Err(binary_error(message));
    }
    skips.push(SkippedLine {
        line: ordinal,
        class: ErrorClass::MalformedRecord,
        message,
    });
    Ok(DecodedBlock {
        batch,
        meta,
        skips,
        end_offset,
        end_ordinal: ordinal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArgValue;
    use crate::{read_iotb, write_iotb_indexed, Trace};

    fn sample_trace(events: u32) -> Trace {
        Trace::from_events(
            (0..events)
                .map(|i| {
                    TraceEvent::build(
                        if i % 2 == 0 { "open" } else { "write" },
                        u32::from(i % 2 == 0),
                        vec![
                            ArgValue::Path(format!("/mnt/test/f{}", i % 7)),
                            ArgValue::Flags(i),
                        ],
                        i64::from(i),
                    )
                })
                .collect(),
        )
    }

    fn indexed(trace: &Trace, block_events: usize) -> Arc<Vec<u8>> {
        let mut bytes = Vec::new();
        write_iotb_indexed(&mut bytes, trace, block_events).unwrap();
        Arc::new(bytes)
    }

    fn drain(source: &mut IotbBlockSource, max: usize) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        loop {
            let batch = source.next_batch(max).unwrap();
            if batch.is_empty() {
                break;
            }
            events.extend(batch.to_events());
        }
        events
    }

    #[test]
    fn parallel_decode_matches_serial_order_at_every_job_count() {
        let trace = sample_trace(101);
        let bytes = indexed(&trace, 8);
        assert_eq!(read_iotb(&bytes[..]).unwrap(), trace);
        for jobs in [1, 2, 4, 7] {
            let mut source =
                IotbBlockSource::new(Arc::clone(&bytes), ReadOptions::default(), jobs).unwrap();
            let events = drain(&mut source, 13);
            assert_eq!(events, trace.events(), "jobs={jobs}");
            assert!(source.skip_ledger().is_empty());
            let pos = source.position();
            assert_eq!(pos.state.events, 101);
            assert_eq!(pos.state.lines, 101);
        }
    }

    #[test]
    fn record_view_exposes_head_fields_without_copying() {
        let trace = sample_trace(3);
        let bytes = indexed(&trace, 8);
        let blocks = read_block_index(&bytes).unwrap().unwrap();
        let start = usize::try_from(blocks[0].offset).unwrap();
        let len = u32::from_le_bytes(bytes[start..start + 4].try_into().unwrap()) as usize;
        let view = RecordView::parse(&bytes[start + 4..start + 4 + len]).unwrap();
        let first = &trace.events()[0];
        assert_eq!(view.seq(), first.seq);
        assert_eq!(view.timestamp_ns(), first.timestamp_ns);
        assert_eq!(view.pid(), first.pid);
        assert_eq!(view.sysno(), first.sysno);
        assert_eq!(view.retval(), first.retval);
        let (table, _, _) = read_table(&mut &bytes[..]).unwrap();
        assert_eq!(&view.to_event(&table).unwrap(), first);
    }

    #[test]
    fn resume_mid_block_continues_exactly() {
        let trace = sample_trace(40);
        let bytes = indexed(&trace, 8);
        for jobs in [1, 3] {
            for stop_after in [0usize, 1, 7, 8, 9, 20, 39, 40] {
                let mut head =
                    IotbBlockSource::new(Arc::clone(&bytes), ReadOptions::default(), jobs).unwrap();
                let mut events = Vec::new();
                while events.len() < stop_after {
                    let batch = head.next_batch(stop_after - events.len()).unwrap();
                    assert!(!batch.is_empty());
                    events.extend(batch.to_events());
                }
                let pos = head.position();
                drop(head);
                let mut tail = IotbBlockSource::resume(
                    Arc::clone(&bytes),
                    ReadOptions::default(),
                    pos.state,
                    jobs,
                )
                .unwrap();
                events.extend(drain(&mut tail, 6));
                assert_eq!(events, trace.events(), "jobs={jobs} stop={stop_after}");
                assert_eq!(tail.position().state.events, 40);
            }
        }
    }

    #[test]
    fn corrupt_block_is_skipped_whole_in_lossy_mode() {
        let trace = sample_trace(24);
        let mut raw = Vec::new();
        write_iotb_indexed(&mut raw, &trace, 8).unwrap();
        let blocks = read_block_index(&raw).unwrap().unwrap();
        assert_eq!(blocks.len(), 3);
        // Flip a byte in the middle block's record data.
        let mid = usize::try_from(blocks[1].offset + 10).unwrap();
        raw[mid] ^= 0x40;
        let bytes = Arc::new(raw);

        let mut lossy =
            IotbBlockSource::new(Arc::clone(&bytes), ReadOptions::default(), 2).unwrap();
        let events = drain(&mut lossy, 5);
        let expected: Vec<_> = trace.events()[..8]
            .iter()
            .chain(&trace.events()[16..])
            .cloned()
            .collect();
        assert_eq!(events, expected);
        assert_eq!(lossy.skip_ledger().len(), 1);
        assert_eq!(lossy.skip_ledger()[0].class, ErrorClass::MalformedRecord);
        assert_eq!(lossy.skip_ledger()[0].line, 9);
        assert!(lossy.skip_ledger()[0].message.contains("checksum"));

        let strict = ReadOptions {
            on_error: ErrorPolicy::Abort,
            ..ReadOptions::default()
        };
        let mut source = IotbBlockSource::new(bytes, strict, 2).unwrap();
        let mut err = None;
        loop {
            match source.next_batch(5) {
                Ok(batch) if batch.is_empty() => break,
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(err.unwrap().to_string().contains("checksum"));
    }

    #[test]
    fn max_errors_budget_applies_to_block_skips() {
        let trace = sample_trace(24);
        let mut raw = Vec::new();
        write_iotb_indexed(&mut raw, &trace, 8).unwrap();
        let blocks = read_block_index(&raw).unwrap().unwrap();
        for block in &blocks[..2] {
            let at = usize::try_from(block.offset + 10).unwrap();
            raw[at] ^= 0x40;
        }
        let options = ReadOptions {
            max_errors: Some(1),
            ..ReadOptions::default()
        };
        let mut source = IotbBlockSource::new(Arc::new(raw), options, 2).unwrap();
        let mut err = None;
        loop {
            match source.next_batch(50) {
                Ok(batch) if batch.is_empty() => break,
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(
            err,
            Some(TraceIoError::TooManyErrors { errors: 2, max: 1 })
        ));
    }

    #[test]
    fn v1_container_is_rejected() {
        let trace = sample_trace(4);
        let mut bytes = Vec::new();
        crate::write_iotb(&mut bytes, &trace).unwrap();
        let Err(err) = IotbBlockSource::new(Arc::new(bytes), ReadOptions::default(), 2) else {
            panic!("v1 container must be rejected");
        };
        assert!(err.to_string().contains("no block index"), "{err}");
    }

    #[test]
    fn empty_container_yields_nothing() {
        let bytes = indexed(&Trace::new(), 8);
        let mut source = IotbBlockSource::new(bytes, ReadOptions::default(), 4).unwrap();
        assert!(source.next_batch(10).unwrap().is_empty());
        assert_eq!(source.position().state.events, 0);
    }
}
