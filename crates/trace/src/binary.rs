//! The `.iotb` compact binary trace format.
//!
//! JSONL pays a full serde parse and several heap `String`s per event.
//! `.iotb` stores every distinct string — syscall names, paths, xattr
//! keys — exactly once in a leading string table, and each record
//! references them as 4-byte symbols, so re-reading a multi-million-event
//! trace is a linear scan of fixed-width little-endian fields.
//!
//! # Layout (version 1)
//!
//! ```text
//! magic    4 bytes  b"IOTB"
//! version  u32 LE   1
//! strings  u32 LE count, then count × (u32 LE byte length, UTF-8 bytes)
//! checksum u64 LE   FNV-1a over the string entries (lengths + bytes)
//! records  until EOF:
//!   u32 LE payload length, then the payload:
//!     seq u64, timestamp_ns u64, pid u32, name Sym u32, sysno u32,
//!     retval i64, argc u32, then argc × (tag u8, value)
//! ```
//!
//! Argument tags: `0` Int(i64) `1` UInt(u64) `2` Fd(i32) `3` Path(Sym)
//! `4` Str(Sym) `5` Flags(u32) `6` Mode(u32) `7` Whence(u32) `8` Ptr(u64).
//!
//! # Layout (version 2, block-indexed)
//!
//! Version 2 ([`write_iotb_indexed`]) keeps the header, string table,
//! and record encoding of version 1 byte-for-byte, and appends an index
//! of fixed-size blocks with a checksum per block:
//!
//! ```text
//! records  grouped into blocks of up to N events each
//! sentinel u32 LE 0xFFFF_FFFF  (an impossible record length prefix)
//! index    u32 LE block count, then per block:
//!            u64 LE absolute byte offset of the block's first prefix
//!            u64 LE block byte length (prefixes + payloads)
//!            u64 LE event count
//!            u64 LE FNV-1a over the block's bytes
//!          u64 LE FNV-1a over the index bytes above
//! footer   u64 LE absolute byte offset of the index, 8 bytes b"IOTBXEND"
//! ```
//!
//! The one reader ([`IotbCursor`]) streams a v2 container exactly like
//! v1 and treats the sentinel as a clean end of records. Nothing reads
//! the index: to analysis, v2 is v1 plus a trailing index it skips.
//!
//! Versioning rule: readers reject any other `version` outright — records
//! are not self-describing, so there is no forward-compatible partial
//! read. Adding argument tags is allowed within a version only for tags
//! old readers could never have produced errors on (i.e. never, in
//! practice — bump the version instead).
//!
//! # Failure model
//!
//! The header and string table are load-bearing for every record, so
//! corruption there is fatal even in lossy mode ([`TraceIoError::Binary`]).
//! Past the table, a lossy [`IotbCursor`] degrades per record exactly
//! like a lossy [`JsonlCursor`](crate::JsonlCursor): a record whose payload
//! decodes wrong is skipped with [`ErrorClass::MalformedRecord`] and the
//! scan continues at the next length prefix; a record cut off by EOF is
//! skipped with [`ErrorClass::TruncatedTail`] and ends the scan. A length
//! prefix larger than [`MAX_RECORD_LEN`] means the framing itself is
//! gone, so the scan records one skip and stops rather than chase a
//! corrupt offset. Skips report 1-based *record* ordinals in
//! [`SkippedLine::line`].
//!
//! The v2 block checksums are not verified by any reader. They guard
//! a reader that jumps to offsets taken from the index; the cursor
//! never jumps. It follows length prefixes from the table onward and
//! validates every record it reads — the [`MAX_RECORD_LEN`] cap,
//! argument tags, symbol references, exact payload consumption — behind
//! a string table whose own checksum is verified. A flipped bit inside
//! a field that still decodes (a timestamp, a retval) therefore reads
//! as that value, as it does in a v1 container.
//! Verifying the block checksums on every read would hash every record
//! byte on the hot path, a cost the reader does not pay.
//!
//! # Reading records
//!
//! [`IotbCursor::next_into`] decodes a record where it lies in the
//! cursor's 64 KiB read buffer when its length prefix and payload are
//! both there. A record that straddles a refill, is over
//! [`MAX_RECORD_LEN`], fails to decode or sits behind a resync is read
//! by the copying path instead, which hands the copy to the same
//! decoder; so events, skip messages and [`CursorState`] do not depend
//! on where refills fall. A record's name is interned into the batch
//! through hints indexed by its string-table symbol and checked by
//! `Arc` identity against the batch's own name table, so a repeated
//! name costs a pointer comparison, not a hash of the name.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::sync::Arc;

use crate::batch::{ArgView, EventBatch, SymbolHints};
use crate::cursor::CursorState;
use crate::event::{ArgValue, TraceEvent};
use crate::intern::StrInterner;
use crate::lossy::{ErrorClass, ErrorPolicy, ReadOptions, SkippedLine};
use crate::serial::TraceIoError;
use crate::source::{EventSource, READ_BUFFER};
use crate::Trace;

/// The `.iotb` magic bytes.
pub const IOTB_MAGIC: [u8; 4] = *b"IOTB";

/// The plain serial container version.
pub const IOTB_VERSION: u32 = 1;

/// The block-indexed container version ([`write_iotb_indexed`]).
pub const IOTB_VERSION_INDEXED: u32 = 2;

/// Default events per index block in a v2 container — large enough
/// that the 32-byte index entry per block is noise.
pub const DEFAULT_BLOCK_EVENTS: usize = 4096;

/// The 8 trailing bytes of a v2 container, preceded by the u64 index
/// offset. Sniffable without parsing the front of the file.
pub const IOTB_INDEX_FOOTER_MAGIC: [u8; 8] = *b"IOTBXEND";

/// Length-prefix value that terminates the record region of a v2
/// container. Above [`MAX_RECORD_LEN`] by construction, so a reader
/// that ignores versions would stop with "framing lost" instead of
/// misreading the index as records.
const INDEX_SENTINEL: u32 = u32::MAX;

/// Upper bound on one record's payload length. A longer prefix can only
/// come from corrupted framing: even a pathological event with thousands
/// of maximum-width arguments stays far below this.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Upper bound on one string-table entry's byte length.
const MAX_STRING_LEN: usize = 1 << 20;

/// Upper bound on the string-table entry count, to refuse absurd
/// allocations from a corrupt header before reading entry data.
const MAX_STRINGS: usize = 1 << 24;

/// Preallocation caps for untrusted table metadata. A declared entry
/// count or byte length is trusted only up to these bounds before the
/// bytes actually arrive; anything larger grows incrementally, so a
/// 12-byte forged header cannot demand hundreds of megabytes up front.
const TABLE_PREALLOC_ENTRIES: usize = 1 << 12;
const STRING_PREALLOC_BYTES: usize = 1 << 13;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Whether `bytes` starts with the `.iotb` magic — the format sniff used
/// by `iocov analyze --format=auto`.
#[must_use]
pub fn is_iotb(bytes: &[u8]) -> bool {
    bytes.len() >= IOTB_MAGIC.len() && bytes[..IOTB_MAGIC.len()] == IOTB_MAGIC
}

fn binary_error(detail: impl Into<String>) -> TraceIoError {
    TraceIoError::Binary {
        detail: detail.into(),
    }
}

/// Writes a trace in `.iotb` form. The string table is built in
/// first-appearance order over event names and `Path`/`Str` arguments.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the writer fails.
pub fn write_iotb<W: Write>(writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    let mut w = BufWriter::new(writer);
    let interner = intern_trace(trace);
    write_header_and_table(&mut w, &interner, IOTB_VERSION)?;

    let mut payload = Vec::new();
    for event in trace.iter() {
        payload.clear();
        encode_record(&mut payload, event, &interner);
        let len = u32::try_from(payload.len()).map_err(|_| binary_error("record too large"))?;
        w.write_all(&len.to_le_bytes())?;
        w.write_all(&payload)?;
    }
    w.flush()?;
    Ok(())
}

/// Interns every string the trace's records will reference, in
/// first-appearance order.
fn intern_trace(trace: &Trace) -> StrInterner {
    let interner = StrInterner::new();
    for event in trace.iter() {
        interner.intern(&event.name);
        for arg in &event.args {
            if let ArgValue::Path(s) | ArgValue::Str(s) = arg {
                interner.intern(s);
            }
        }
    }
    interner
}

/// Writes the magic, version, string table, and table checksum,
/// returning the total bytes written (= the first record's offset).
fn write_header_and_table<W: Write>(
    w: &mut W,
    interner: &StrInterner,
    version: u32,
) -> Result<u64, TraceIoError> {
    w.write_all(&IOTB_MAGIC)?;
    w.write_all(&version.to_le_bytes())?;
    let table = interner.snapshot();
    let count = u32::try_from(table.len()).map_err(|_| binary_error("string table too large"))?;
    w.write_all(&count.to_le_bytes())?;
    let mut hash = FNV_OFFSET;
    let mut written = 12u64;
    for s in &table {
        let len = u32::try_from(s.len()).map_err(|_| binary_error("string too long"))?;
        let len_bytes = len.to_le_bytes();
        hash = fnv1a(&len_bytes, hash);
        hash = fnv1a(s.as_bytes(), hash);
        w.write_all(&len_bytes)?;
        w.write_all(s.as_bytes())?;
        written += 4 + s.len() as u64;
    }
    w.write_all(&hash.to_le_bytes())?;
    Ok(written + 8)
}

/// One entry of a v2 container's block index: a run of whole records
/// and the FNV-1a of its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IotbBlock {
    /// Absolute byte offset of the block's first length prefix.
    offset: u64,
    /// Byte length of the block (prefixes + payloads).
    byte_len: u64,
    /// Events encoded in the block.
    events: u64,
    /// FNV-1a over the block's bytes.
    checksum: u64,
}

/// Writes a trace as a block-indexed v2 container: identical record
/// bytes to [`write_iotb`], grouped into blocks of up to `block_events`
/// events, followed by the sentinel, index, and footer (see the
/// [module docs](self)).
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the writer fails.
pub fn write_iotb_indexed<W: Write>(
    writer: W,
    trace: &Trace,
    block_events: usize,
) -> Result<(), TraceIoError> {
    let block_events = block_events.max(1);
    let mut w = BufWriter::new(writer);
    let interner = intern_trace(trace);
    let mut offset = write_header_and_table(&mut w, &interner, IOTB_VERSION_INDEXED)?;

    let mut blocks: Vec<IotbBlock> = Vec::new();
    let mut block_start = offset;
    let mut block_hash = FNV_OFFSET;
    let mut block_count = 0u64;
    let mut payload = Vec::new();
    for event in trace.iter() {
        payload.clear();
        encode_record(&mut payload, event, &interner);
        let len = u32::try_from(payload.len()).map_err(|_| binary_error("record too large"))?;
        let len_bytes = len.to_le_bytes();
        w.write_all(&len_bytes)?;
        w.write_all(&payload)?;
        block_hash = fnv1a(&len_bytes, block_hash);
        block_hash = fnv1a(&payload, block_hash);
        offset += 4 + payload.len() as u64;
        block_count += 1;
        if block_count as usize == block_events {
            blocks.push(IotbBlock {
                offset: block_start,
                byte_len: offset - block_start,
                events: block_count,
                checksum: block_hash,
            });
            block_start = offset;
            block_hash = FNV_OFFSET;
            block_count = 0;
        }
    }
    if block_count > 0 {
        blocks.push(IotbBlock {
            offset: block_start,
            byte_len: offset - block_start,
            events: block_count,
            checksum: block_hash,
        });
    }

    w.write_all(&INDEX_SENTINEL.to_le_bytes())?;
    let index_offset = offset + 4;
    let count = u32::try_from(blocks.len()).map_err(|_| binary_error("block index too large"))?;
    let mut index_bytes = Vec::with_capacity(4 + blocks.len() * 32);
    index_bytes.extend_from_slice(&count.to_le_bytes());
    for block in &blocks {
        index_bytes.extend_from_slice(&block.offset.to_le_bytes());
        index_bytes.extend_from_slice(&block.byte_len.to_le_bytes());
        index_bytes.extend_from_slice(&block.events.to_le_bytes());
        index_bytes.extend_from_slice(&block.checksum.to_le_bytes());
    }
    let index_hash = fnv1a(&index_bytes, FNV_OFFSET);
    w.write_all(&index_bytes)?;
    w.write_all(&index_hash.to_le_bytes())?;
    w.write_all(&index_offset.to_le_bytes())?;
    w.write_all(&IOTB_INDEX_FOOTER_MAGIC)?;
    w.flush()?;
    Ok(())
}

fn encode_record(out: &mut Vec<u8>, event: &TraceEvent, interner: &StrInterner) {
    out.extend_from_slice(&event.seq.to_le_bytes());
    out.extend_from_slice(&event.timestamp_ns.to_le_bytes());
    out.extend_from_slice(&event.pid.to_le_bytes());
    out.extend_from_slice(&interner.intern(&event.name).index().to_le_bytes());
    out.extend_from_slice(&event.sysno.to_le_bytes());
    out.extend_from_slice(&event.retval.to_le_bytes());
    out.extend_from_slice(&(event.args.len() as u32).to_le_bytes());
    for arg in &event.args {
        match arg {
            ArgValue::Int(v) => {
                out.push(0);
                out.extend_from_slice(&v.to_le_bytes());
            }
            ArgValue::UInt(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            ArgValue::Fd(v) => {
                out.push(2);
                out.extend_from_slice(&v.to_le_bytes());
            }
            ArgValue::Path(s) => {
                out.push(3);
                out.extend_from_slice(&interner.intern(s).index().to_le_bytes());
            }
            ArgValue::Str(s) => {
                out.push(4);
                out.extend_from_slice(&interner.intern(s).index().to_le_bytes());
            }
            ArgValue::Flags(v) => {
                out.push(5);
                out.extend_from_slice(&v.to_le_bytes());
            }
            ArgValue::Mode(v) => {
                out.push(6);
                out.extend_from_slice(&v.to_le_bytes());
            }
            ArgValue::Whence(v) => {
                out.push(7);
                out.extend_from_slice(&v.to_le_bytes());
            }
            ArgValue::Ptr(v) => {
                out.push(8);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// How much of a fixed-size read actually arrived; `Partial` carries
/// the byte count that did.
enum Fill {
    Full,
    Eof,
    Partial(usize),
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<Fill> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(if n == buf.len() {
        Fill::Full
    } else if n == 0 {
        Fill::Eof
    } else {
        Fill::Partial(n)
    })
}

/// Reads and verifies the header + string table, returning the table,
/// the absolute byte offset of the first record's length prefix (the
/// anchor [`IotbCursor`] checkpoints are measured from), and the
/// container version.
///
/// Every count and length here is attacker-controlled until the
/// checksum verifies, so buffers are preallocated only up to fixed
/// caps and grown as bytes actually arrive — a forged header earns an
/// allocation proportional to the file, never to its own claims.
fn read_table<R: Read>(r: &mut R) -> Result<(Vec<Arc<str>>, u64, u32), TraceIoError> {
    let mut header = [0u8; 12];
    match read_exact_or_eof(r, &mut header)? {
        Fill::Full => {}
        Fill::Eof | Fill::Partial(_) => return Err(binary_error("truncated header")),
    }
    if header[..4] != IOTB_MAGIC {
        return Err(binary_error("bad magic: not an .iotb trace"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != IOTB_VERSION && version != IOTB_VERSION_INDEXED {
        return Err(binary_error(format!(
            "unsupported version {version} (expected {IOTB_VERSION} or {IOTB_VERSION_INDEXED})"
        )));
    }
    let count = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
    if count > MAX_STRINGS {
        return Err(binary_error(format!(
            "string table count {count} too large"
        )));
    }
    let mut table = Vec::with_capacity(count.min(TABLE_PREALLOC_ENTRIES));
    let mut hash = FNV_OFFSET;
    let mut consumed = 12u64;
    let mut chunk = [0u8; 8192];
    for index in 0..count {
        let mut len_bytes = [0u8; 4];
        match read_exact_or_eof(r, &mut len_bytes)? {
            Fill::Full => {}
            _ => {
                return Err(binary_error(format!(
                    "truncated string table at entry {index}"
                )))
            }
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_STRING_LEN {
            return Err(binary_error(format!(
                "string table entry {index} length {len} too large"
            )));
        }
        let mut bytes = Vec::with_capacity(len.min(STRING_PREALLOC_BYTES));
        while bytes.len() < len {
            let want = (len - bytes.len()).min(chunk.len());
            match read_exact_or_eof(r, &mut chunk[..want])? {
                Fill::Full => bytes.extend_from_slice(&chunk[..want]),
                _ => {
                    return Err(binary_error(format!(
                        "truncated string table at entry {index}"
                    )))
                }
            }
        }
        hash = fnv1a(&len_bytes, hash);
        hash = fnv1a(&bytes, hash);
        consumed += 4 + len as u64;
        let s = String::from_utf8(bytes)
            .map_err(|_| binary_error(format!("string table entry {index} is not valid UTF-8")))?;
        table.push(Arc::from(s.as_str()));
    }
    let mut checksum = [0u8; 8];
    match read_exact_or_eof(r, &mut checksum)? {
        Fill::Full => {}
        _ => return Err(binary_error("truncated string table checksum")),
    }
    let stored = u64::from_le_bytes(checksum);
    if stored != hash {
        return Err(binary_error(format!(
            "string table checksum mismatch: stored {stored:#018x}, computed {hash:#018x}"
        )));
    }
    Ok((table, consumed + 8, version))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(self.too_short(n));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The error of a read past the payload, kept out of line so the
    /// reads that succeed stay small.
    #[cold]
    #[inline(never)]
    fn too_short(&self, n: usize) -> String {
        format!(
            "record payload too short: needed {n} bytes at offset {}",
            self.pos
        )
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    #[inline]
    fn i32(&mut self) -> Result<i32, String> {
        Ok(i32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    #[inline]
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    #[inline]
    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

#[inline]
fn resolve_ref(table: &[Arc<str>], index: u32) -> Result<&Arc<str>, String> {
    match table.get(index as usize) {
        Some(name) => Ok(name),
        None => Err(out_of_range(index, table.len())),
    }
}

#[cold]
#[inline(never)]
fn out_of_range(index: u32, len: usize) -> String {
    format!("symbol {index} out of range (table has {len})")
}

/// Decodes one framed record payload directly into `batch` columns —
/// the allocation-free hot path. The syscall name is interned into the
/// batch through `hints` by its string-table symbol, without copying,
/// and path/str payloads go straight into the batch arena, so a valid
/// record costs zero per-record allocations once the batch buffers are
/// warm. A malformed record leaves the batch untouched (the partial row
/// is rolled back).
fn decode_record_into(
    payload: &[u8],
    table: &[Arc<str>],
    batch: &mut EventBatch,
    hints: &mut SymbolHints,
) -> Result<(), String> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let seq = c.u64()?;
    let timestamp_ns = c.u64()?;
    let pid = c.u32()?;
    let name_symbol = c.u32()?;
    let name = resolve_ref(table, name_symbol)?;
    let sysno = c.u32()?;
    let retval = c.i64()?;
    let argc = c.u32()? as usize;
    // Each argument occupies at least 5 bytes; reject counts the payload
    // cannot possibly hold before decoding them.
    if argc > payload.len() / 5 {
        return Err(format!("argument count {argc} impossible for payload"));
    }
    let mut row = batch.begin_row();
    for _ in 0..argc {
        let arg = match c.u8()? {
            0 => ArgView::Int(c.i64()?),
            1 => ArgView::UInt(c.u64()?),
            2 => ArgView::Fd(c.i32()?),
            3 => ArgView::Path(resolve_ref(table, c.u32()?)?.as_ref()),
            4 => ArgView::Str(resolve_ref(table, c.u32()?)?.as_ref()),
            5 => ArgView::Flags(c.u32()?),
            6 => ArgView::Mode(c.u32()?),
            7 => ArgView::Whence(c.u32()?),
            8 => ArgView::Ptr(c.u64()?),
            tag => return Err(format!("unknown argument tag {tag}")),
        };
        row.push_arg(arg);
    }
    if c.pos != payload.len() {
        return Err(format!(
            "trailing bytes in record: {} of {} consumed",
            c.pos,
            payload.len()
        ));
    }
    let name_id = row.intern_symbol(hints, name_symbol, name);
    row.commit(seq, timestamp_ns, pid, name_id, sysno, retval);
    Ok(())
}

/// Decodes one record into an owned [`TraceEvent`]. Delegates to
/// [`decode_record_into`] so the two paths validate identically (same
/// checks, same error strings) by construction.
fn decode_record(payload: &[u8], table: &[Arc<str>]) -> Result<TraceEvent, String> {
    let mut batch = EventBatch::new();
    decode_record_into(payload, table, &mut batch, &mut SymbolHints::default())?;
    Ok(batch.get(0).expect("committed row").to_event())
}

/// A resumable `.iotb` record cursor — the binary counterpart of
/// [`JsonlCursor`](crate::JsonlCursor), and an
/// [`EventSource`] itself. The whole-trace reader
/// [`read_iotb`] is [`read_all`](crate::EventSource::read_all) over this
/// type, so the two share one skip-accounting implementation by
/// construction.
///
/// [`CursorState`] fields map onto records: `lines` is the 1-based
/// record ordinal, `byte_offset` the absolute container offset of the
/// next unread length prefix, and `bom_stripped`/`crlf_lines` stay zero
/// (JSONL-only concepts). The offset is only advanced past fully
/// consumed records, so the state is checkpoint-valid after any
/// [`next_event`](Self::next_event) return.
#[derive(Debug)]
pub struct IotbCursor<R> {
    reader: BufReader<R>,
    table: Vec<Arc<str>>,
    options: ReadOptions,
    state: CursorState,
    version: u32,
    /// Records recovered by resynchronizing past a corrupt length
    /// prefix, paired with the absolute end offset of each — yielded
    /// before any further reads so checkpoints stay exact.
    pending: VecDeque<(TraceEvent, u64)>,
    /// Record payload buffer for the copying path, reused across
    /// records.
    payload: Vec<u8>,
    /// Name ids by string-table symbol, kept across batches.
    hints: SymbolHints,
    done: bool,
}

impl<R: Read> IotbCursor<R> {
    /// A cursor over a fresh container. Reads and verifies the header
    /// and string table eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on read failure or
    /// [`TraceIoError::Binary`] on header/string-table corruption.
    pub fn new(reader: R, options: ReadOptions) -> Result<Self, TraceIoError> {
        let mut reader = BufReader::with_capacity(READ_BUFFER, reader);
        let (table, table_end, version) = read_table(&mut reader)?;
        Ok(IotbCursor {
            reader,
            table,
            options,
            state: CursorState {
                byte_offset: table_end,
                ..CursorState::default()
            },
            version,
            pending: VecDeque::new(),
            payload: Vec::new(),
            hints: SymbolHints::default(),
            done: false,
        })
    }

    /// Resumes from a checkpointed `state`. Because readers need not be
    /// seekable, `reader` must be positioned at the **start** of the
    /// container: the string table is re-read and re-verified, then
    /// bytes up to [`CursorState::byte_offset`] are discarded.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Binary`] for container corruption or a
    /// resume offset that does not land inside the record region.
    pub fn resume(
        reader: R,
        options: ReadOptions,
        state: CursorState,
    ) -> Result<Self, TraceIoError> {
        let mut reader = BufReader::with_capacity(READ_BUFFER, reader);
        let (table, table_end, version) = read_table(&mut reader)?;
        if state.byte_offset < table_end {
            return Err(binary_error(format!(
                "resume offset {} is inside the string table (records start at {table_end})",
                state.byte_offset
            )));
        }
        let skip = state.byte_offset - table_end;
        let discarded = std::io::copy(&mut (&mut reader).take(skip), &mut std::io::sink())?;
        if discarded != skip {
            return Err(binary_error(format!(
                "resume offset {} is past the end of the container",
                state.byte_offset
            )));
        }
        Ok(IotbCursor {
            reader,
            table,
            options,
            state,
            version,
            pending: VecDeque::new(),
            payload: Vec::new(),
            hints: SymbolHints::default(),
            done: false,
        })
    }

    /// The current resume point. Valid to checkpoint after any
    /// [`next_event`](Self::next_event) return.
    #[must_use]
    pub fn state(&self) -> &CursorState {
        &self.state
    }

    /// Consumes the cursor, yielding its final state.
    #[must_use]
    pub fn into_state(self) -> CursorState {
        self.state
    }

    /// Yields the next event, or `None` at end of stream (including
    /// after a skip that ends the scan — truncated tail, lost framing).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on read failure,
    /// [`TraceIoError::TooManyErrors`] when the lossy skip budget is
    /// exhausted, and — under [`ErrorPolicy::Abort`] —
    /// [`TraceIoError::Record`] for the first bad record.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        let mut batch = EventBatch::new();
        if self.next_into(&mut batch)? {
            Ok(Some(batch.get(0).expect("one decoded row").to_event()))
        } else {
            Ok(None)
        }
    }

    /// Decodes the next record directly into `batch` — the
    /// allocation-free counterpart of [`next_event`](Self::next_event).
    /// Returns whether a record was appended; `false` means end of
    /// stream. Skip accounting, resynchronization, and
    /// [`state`](Self::state) checkpoint validity are identical to the
    /// owned-event path (which is a one-row wrapper over this method).
    ///
    /// # Errors
    ///
    /// Same failure model as [`next_event`](Self::next_event).
    pub fn next_into(&mut self, batch: &mut EventBatch) -> Result<bool, TraceIoError> {
        loop {
            if let Some((event, end_offset)) = self.pending.pop_front() {
                self.state.lines += 1;
                self.state.byte_offset = end_offset;
                self.state.events += 1;
                batch.push_event(&event);
                return Ok(true);
            }
            if self.done {
                return Ok(false);
            }
            if self.next_in_place(batch)? {
                return Ok(true);
            }
            let mut len_bytes = [0u8; 4];
            let fill = read_exact_or_eof(&mut self.reader, &mut len_bytes)?;
            if matches!(fill, Fill::Eof) {
                self.done = true;
                continue;
            }
            if matches!(fill, Fill::Full)
                && self.version >= IOTB_VERSION_INDEXED
                && u32::from_le_bytes(len_bytes) == INDEX_SENTINEL
            {
                // Clean end of a v2 record region: the block index
                // follows, which the serial reader never consumes. The
                // offset stays on the sentinel so a resume re-reads it
                // and ends just as cleanly.
                self.done = true;
                continue;
            }
            let record = self.state.lines + 1;
            self.state.lines = record;
            let failure: (ErrorClass, String, bool) = if matches!(fill, Fill::Partial(_)) {
                (
                    ErrorClass::TruncatedTail,
                    "record length prefix cut off by end of stream".to_owned(),
                    true,
                )
            } else {
                let len = u32::from_le_bytes(len_bytes) as usize;
                if len > MAX_RECORD_LEN {
                    // The framing itself is corrupt; chasing this length
                    // would desynchronize every later record.
                    (
                        ErrorClass::MalformedRecord,
                        format!("record length {len} exceeds cap {MAX_RECORD_LEN}; framing lost"),
                        true,
                    )
                } else {
                    let payload = &mut self.payload;
                    payload.clear();
                    payload.resize(len, 0);
                    match read_exact_or_eof(&mut self.reader, payload)? {
                        Fill::Full => {
                            self.state.byte_offset += (4 + len) as u64;
                            match decode_record_into(payload, &self.table, batch, &mut self.hints) {
                                Ok(()) => {
                                    self.state.events += 1;
                                    return Ok(true);
                                }
                                Err(detail) => (ErrorClass::MalformedRecord, detail, false),
                            }
                        }
                        Fill::Eof => (
                            ErrorClass::TruncatedTail,
                            format!("record payload cut off: expected {len} bytes"),
                            true,
                        ),
                        Fill::Partial(got) => {
                            // The stream ended mid-"payload". Either the
                            // file really was cut here (a truncated
                            // tail), or the length prefix itself was
                            // corrupt and what we just swallowed holds
                            // intact records. Distinguish them by
                            // looking for an offset where the remaining
                            // bytes parse exactly as whole valid
                            // records — corruption, not EOF, if found.
                            match resync_tail(&payload[..got], &self.table) {
                                Some((skip_to, recovered)) => {
                                    let tail_start = self.state.byte_offset + 4;
                                    let resync_at = tail_start + skip_to as u64;
                                    let count = recovered.len();
                                    for (event, end_rel) in recovered {
                                        self.pending
                                            .push_back((event, tail_start + end_rel as u64));
                                    }
                                    self.state.byte_offset = resync_at;
                                    (
                                        ErrorClass::MalformedRecord,
                                        format!(
                                            "record length prefix claims {len} bytes but only \
                                             {got} remain; resynchronized at offset {resync_at}, \
                                             recovering {count} trailing record(s)"
                                        ),
                                        true,
                                    )
                                }
                                None => (
                                    ErrorClass::TruncatedTail,
                                    format!("record payload cut off: expected {len} bytes"),
                                    true,
                                ),
                            }
                        }
                    }
                }
            };
            let (class, message, stop) = failure;
            if self.options.on_error == ErrorPolicy::Abort {
                return Err(TraceIoError::Record {
                    record,
                    detail: message,
                });
            }
            self.state.skipped.push(SkippedLine {
                line: record,
                class,
                message,
            });
            if let Some(max) = self.options.max_errors {
                if self.state.skipped.len() > max {
                    return Err(TraceIoError::TooManyErrors {
                        errors: self.state.skipped.len(),
                        max,
                    });
                }
            }
            if stop {
                self.done = true;
            }
        }
    }

    /// Decodes the next record where it lies in the read buffer, and
    /// returns whether it did. It declines, consuming nothing, a record
    /// whose length prefix and payload are not both buffered, one over
    /// [`MAX_RECORD_LEN`] (the v2 sentinel included) and one that fails
    /// to decode. The copying path in [`next_into`](Self::next_into)
    /// then reads the same bytes and classifies them, so an accepted
    /// record and a declined one leave the same events and
    /// [`CursorState`] behind. Filling an empty buffer here is the read
    /// the copying path would make first, so the inner reader sees the
    /// same calls either way.
    fn next_in_place(&mut self, batch: &mut EventBatch) -> Result<bool, TraceIoError> {
        let buffered = loop {
            match self.reader.fill_buf() {
                Ok(buffered) => break buffered,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        };
        let Some((prefix, rest)) = buffered.split_first_chunk::<4>() else {
            return Ok(false);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_RECORD_LEN || rest.len() < len {
            return Ok(false);
        }
        if decode_record_into(&rest[..len], &self.table, batch, &mut self.hints).is_err() {
            return Ok(false);
        }
        self.reader.consume(4 + len);
        self.state.lines += 1;
        self.state.byte_offset += (4 + len) as u64;
        self.state.events += 1;
        Ok(true)
    }
}

/// Scans the bytes swallowed by an overlong length prefix for the
/// earliest offset at which the remainder parses exactly as one or
/// more complete, fully valid framed records. `Some((offset,
/// records))` means the prefix was corruption, not truncation; each
/// recovered record carries its end offset relative to `tail`'s start.
///
/// A false positive needs a 4-byte prefix matching the remaining
/// length exactly *and* a payload that decodes with every symbol in
/// range and no trailing bytes — vanishingly unlikely from a genuine
/// mid-record cut.
fn resync_tail(tail: &[u8], table: &[Arc<str>]) -> Option<(usize, Vec<(TraceEvent, usize)>)> {
    for start in 0..tail.len().saturating_sub(4) {
        let mut pos = start;
        let mut records = Vec::new();
        let mut valid = true;
        while pos < tail.len() {
            if tail.len() - pos < 4 {
                valid = false;
                break;
            }
            let len = u32::from_le_bytes(tail[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_RECORD_LEN || tail.len() - pos - 4 < len {
                valid = false;
                break;
            }
            match decode_record(&tail[pos + 4..pos + 4 + len], table) {
                Ok(event) => {
                    pos += 4 + len;
                    records.push((event, pos));
                }
                Err(_) => {
                    valid = false;
                    break;
                }
            }
        }
        if valid && !records.is_empty() {
            return Some((start, records));
        }
    }
    None
}

/// Reads an `.iotb` trace strictly: the first bad record aborts.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`], [`TraceIoError::Binary`] for container
/// corruption, or [`TraceIoError::Record`] (with the 1-based record
/// number) for the first undecodable record.
pub fn read_iotb<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    IotbCursor::new(reader, ReadOptions::STRICT)?.read_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lossy read: the drained trace plus the cursor's final state.
    fn read_lossy(
        bytes: &[u8],
        options: ReadOptions,
    ) -> Result<(Trace, CursorState), TraceIoError> {
        let mut source = IotbCursor::new(bytes, options)?;
        let trace = source.read_all()?;
        Ok((trace, source.position().state))
    }

    fn sample_trace() -> Trace {
        Trace::from_events(vec![
            TraceEvent {
                seq: 1,
                timestamp_ns: 10,
                pid: 42,
                name: "open".into(),
                sysno: 2,
                args: vec![
                    ArgValue::Path("/mnt/test/a".into()),
                    ArgValue::Flags(0o101),
                    ArgValue::Mode(0o644),
                ],
                retval: 3,
            },
            TraceEvent {
                seq: 2,
                timestamp_ns: 20,
                pid: 42,
                name: "write".into(),
                sysno: 1,
                args: vec![ArgValue::Fd(3), ArgValue::Ptr(0x1000), ArgValue::UInt(4096)],
                retval: 4096,
            },
            TraceEvent {
                seq: 3,
                timestamp_ns: u64::MAX,
                pid: 7,
                name: "close".into(),
                sysno: 3,
                args: vec![ArgValue::Fd(3)],
                retval: 0,
            },
        ])
    }

    fn encoded(trace: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_iotb(&mut buf, trace).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let trace = sample_trace();
        let back = read_iotb(&encoded(&trace)[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = Trace::new();
        let back = read_iotb(&encoded(&trace)[..]).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn strings_are_stored_once() {
        let trace = Trace::from_events(vec![
            TraceEvent::build("open", 2, vec![ArgValue::Path("/mnt/test/f".into())], 3),
            TraceEvent::build("open", 2, vec![ArgValue::Path("/mnt/test/f".into())], 4),
        ]);
        let bytes = encoded(&trace);
        let haystack = String::from_utf8_lossy(&bytes);
        assert_eq!(haystack.matches("/mnt/test/f").count(), 1);
    }

    #[test]
    fn magic_is_sniffable() {
        let bytes = encoded(&sample_trace());
        assert!(is_iotb(&bytes));
        assert!(!is_iotb(b"{\"seq\":0}"));
        assert!(!is_iotb(b"IO"));
    }

    #[test]
    fn bad_magic_is_a_binary_error() {
        let mut bytes = encoded(&sample_trace());
        bytes[0] = b'X';
        let err = read_iotb(&bytes[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::Binary { .. }), "{err}");
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = encoded(&sample_trace());
        bytes[4] = 9;
        let err = read_iotb(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn string_table_corruption_is_fatal_even_in_lossy_mode() {
        let mut bytes = encoded(&sample_trace());
        // Flip a byte inside the first string table entry ("open").
        let entry_start = 12 + 4;
        bytes[entry_start] ^= 0x20;
        let err = read_lossy(&bytes[..], ReadOptions::default()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn corrupt_record_is_skipped_lossily() {
        let trace = sample_trace();
        let mut bytes = encoded(&trace);
        // Corrupt the second record's argument tag region: find the
        // record boundaries by re-reading lengths after the table.
        let table_end = table_end_offset(&bytes);
        let rec1_len = u32::from_le_bytes(bytes[table_end..table_end + 4].try_into().unwrap());
        let rec2_start = table_end + 4 + rec1_len as usize;
        // Last byte of record 2's payload is part of an argument; an
        // unknown tag is easier: overwrite the first arg tag (offset 40
        // into the payload).
        bytes[rec2_start + 4 + 40] = 0xEE;
        let (read_trace, read) = read_lossy(&bytes[..], ReadOptions::default()).unwrap();
        assert_eq!(read_trace.len(), 2, "records 1 and 3 recovered");
        assert_eq!(read.skipped.len(), 1);
        assert_eq!(read.skipped[0].line, 2);
        assert_eq!(read.skipped[0].class, ErrorClass::MalformedRecord);
        assert_eq!(read.lines, 3);
    }

    #[test]
    fn truncated_tail_is_classified_and_ends_the_scan() {
        let trace = sample_trace();
        let bytes = encoded(&trace);
        let cut = bytes.len() - 5;
        let (read_trace, read) = read_lossy(&bytes[..cut], ReadOptions::default()).unwrap();
        assert_eq!(read_trace.len(), 2);
        assert_eq!(read.skipped.len(), 1);
        assert_eq!(read.skipped[0].class, ErrorClass::TruncatedTail);
        assert_eq!(read.skipped[0].line, 3);
    }

    #[test]
    fn oversized_length_prefix_stops_the_scan() {
        let trace = sample_trace();
        let mut bytes = encoded(&trace);
        let table_end = table_end_offset(&bytes);
        bytes[table_end..table_end + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (read_trace, read) = read_lossy(&bytes[..], ReadOptions::default()).unwrap();
        assert!(read_trace.is_empty());
        assert_eq!(read.skipped.len(), 1);
        assert_eq!(read.skipped[0].class, ErrorClass::MalformedRecord);
        assert!(read.skipped[0].message.contains("framing lost"));
    }

    #[test]
    fn forged_string_count_is_rejected_without_prealloc() {
        // A 12-byte file whose header demands the maximum table: the
        // reader must fail on the missing bytes, not allocate for the
        // claim. (The prealloc cap is what makes this safe; the
        // observable contract is the truncation error.)
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&IOTB_MAGIC);
        bytes.extend_from_slice(&IOTB_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::try_from(MAX_STRINGS).unwrap().to_le_bytes());
        let err = read_iotb(&bytes[..]).unwrap_err();
        assert!(
            err.to_string()
                .contains("truncated string table at entry 0"),
            "{err}"
        );
    }

    #[test]
    fn forged_entry_length_is_rejected_without_prealloc() {
        // One table entry claiming a megabyte, backed by three bytes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&IOTB_MAGIC);
        bytes.extend_from_slice(&IOTB_VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u32::try_from(MAX_STRING_LEN).unwrap().to_le_bytes());
        bytes.extend_from_slice(b"abc");
        let err = read_iotb(&bytes[..]).unwrap_err();
        assert!(
            err.to_string()
                .contains("truncated string table at entry 0"),
            "{err}"
        );
    }

    #[test]
    fn oversized_string_count_is_rejected_outright() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&IOTB_MAGIC);
        bytes.extend_from_slice(&IOTB_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_iotb(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");
    }

    #[test]
    fn corrupt_length_prefix_resyncs_to_trailing_records() {
        let trace = sample_trace();
        let mut bytes = encoded(&trace);
        let table_end = table_end_offset(&bytes);
        // Overwrite record 1's length prefix with a large-but-capped
        // bogus length that overruns EOF: records 2 and 3 are intact
        // and must be recovered, and the skip is corruption — not a
        // silently shortened file.
        bytes[table_end..table_end + 4]
            .copy_from_slice(&u32::try_from(MAX_RECORD_LEN).unwrap().to_le_bytes());
        let (read_trace, read) = read_lossy(&bytes[..], ReadOptions::default()).unwrap();
        assert_eq!(read_trace.events(), &trace.events()[1..]);
        assert_eq!(read.skipped.len(), 1);
        assert_eq!(read.skipped[0].class, ErrorClass::MalformedRecord);
        assert!(
            read.skipped[0].message.contains("resynchronized"),
            "{}",
            read.skipped[0].message
        );
        assert_eq!(read.skipped[0].line, 1);
        assert_eq!(read.lines, 3);
    }

    #[test]
    fn resynced_recovery_is_resumable_at_every_boundary() {
        let trace = sample_trace();
        let mut bytes = encoded(&trace);
        let table_end = table_end_offset(&bytes);
        bytes[table_end..table_end + 4]
            .copy_from_slice(&u32::try_from(MAX_RECORD_LEN).unwrap().to_le_bytes());
        let mut full = IotbCursor::new(&bytes[..], ReadOptions::default()).unwrap();
        let mut full_events = Vec::new();
        while let Some(e) = full.next_event().unwrap() {
            full_events.push(e);
        }
        let full_state = full.into_state();
        assert_eq!(full_events.len(), 2);

        for stop_after in 0..=full_events.len() {
            let mut head = IotbCursor::new(&bytes[..], ReadOptions::default()).unwrap();
            let mut events = Vec::new();
            for _ in 0..stop_after {
                events.push(head.next_event().unwrap().unwrap());
            }
            let saved = head.into_state();
            let mut tail = IotbCursor::resume(&bytes[..], ReadOptions::default(), saved).unwrap();
            while let Some(e) = tail.next_event().unwrap() {
                events.push(e);
            }
            assert_eq!(events, full_events, "stop_after={stop_after}");
            // The head that never saw the corrupt prefix discovers the
            // skip itself on resume; ledgers must converge either way.
            assert_eq!(
                tail.into_state().skipped,
                full_state.skipped,
                "stop_after={stop_after}"
            );
        }
    }

    #[test]
    fn genuinely_truncated_payload_still_classifies_as_tail() {
        // The resync probe must not reclassify a real truncation.
        let trace = sample_trace();
        let bytes = encoded(&trace);
        for cut_back in 1..20 {
            if cut_back >= bytes.len() - table_end_offset(&bytes) {
                break;
            }
            let cut = bytes.len() - cut_back;
            let (_, read) = read_lossy(&bytes[..cut], ReadOptions::default()).unwrap();
            for skip in &read.skipped {
                assert_eq!(skip.class, ErrorClass::TruncatedTail, "cut_back={cut_back}");
            }
        }
    }

    /// Parses the block index of a complete in-memory container, so the
    /// writer's index can be checked against the bytes it describes.
    /// Returns `Ok(None)` for a v1 container (no index to parse). No
    /// reader calls this: analysis never reads the index.
    fn read_block_index(bytes: &[u8]) -> Result<Option<Vec<IotbBlock>>, TraceIoError> {
        if bytes.len() < 12 || !is_iotb(bytes) {
            return Err(binary_error("bad magic: not an .iotb trace"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version == IOTB_VERSION {
            return Ok(None);
        }
        if version != IOTB_VERSION_INDEXED {
            return Err(binary_error(format!(
                "unsupported version {version} (expected {IOTB_VERSION} or {IOTB_VERSION_INDEXED})"
            )));
        }
        if bytes.len() < 16 || bytes[bytes.len() - 8..] != IOTB_INDEX_FOOTER_MAGIC {
            return Err(binary_error("v2 container is missing its index footer"));
        }
        let index_offset = u64::from_le_bytes(
            bytes[bytes.len() - 16..bytes.len() - 8]
                .try_into()
                .expect("8 bytes"),
        );
        let index_start = usize::try_from(index_offset)
            .ok()
            .filter(|&start| start >= 16 && start + 12 <= bytes.len())
            .ok_or_else(|| binary_error("v2 index offset out of range"))?;
        if bytes[index_start - 4..index_start] != INDEX_SENTINEL.to_le_bytes() {
            return Err(binary_error("v2 record sentinel missing before index"));
        }
        let count = u32::from_le_bytes(
            bytes[index_start..index_start + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        let entries_len = count
            .checked_mul(32)
            .filter(|&n| index_start + 4 + n + 8 + 16 == bytes.len())
            .ok_or_else(|| binary_error("v2 index length does not match the container"))?;
        let index_bytes = &bytes[index_start..index_start + 4 + entries_len];
        let stored = u64::from_le_bytes(
            bytes[index_start + 4 + entries_len..index_start + 4 + entries_len + 8]
                .try_into()
                .expect("8 bytes"),
        );
        let computed = fnv1a(index_bytes, FNV_OFFSET);
        if stored != computed {
            return Err(binary_error(format!(
                "v2 index checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        let sentinel_at = index_start as u64 - 4;
        let mut blocks = Vec::with_capacity(count.min(TABLE_PREALLOC_ENTRIES));
        let mut expected_offset: Option<u64> = None;
        for entry in index_bytes[4..].chunks_exact(32) {
            let block = IotbBlock {
                offset: u64::from_le_bytes(entry[0..8].try_into().expect("8 bytes")),
                byte_len: u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes")),
                events: u64::from_le_bytes(entry[16..24].try_into().expect("8 bytes")),
                checksum: u64::from_le_bytes(entry[24..32].try_into().expect("8 bytes")),
            };
            let contiguous = expected_offset.is_none_or(|at| at == block.offset);
            let end = block.offset.checked_add(block.byte_len);
            if !contiguous || block.byte_len == 0 || end.is_none_or(|end| end > sentinel_at) {
                return Err(binary_error(format!(
                    "v2 index entry at offset {} does not describe the record region",
                    block.offset
                )));
            }
            expected_offset = end;
            blocks.push(block);
        }
        Ok(Some(blocks))
    }

    #[test]
    fn indexed_container_roundtrips_serially() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        write_iotb_indexed(&mut bytes, &trace, 2).unwrap();
        assert_eq!(&bytes[bytes.len() - 8..], &IOTB_INDEX_FOOTER_MAGIC);
        // The serial readers stream v2 exactly like v1.
        let back = read_iotb(&bytes[..]).unwrap();
        assert_eq!(back, trace);
        let (read_trace, read) = read_lossy(&bytes[..], ReadOptions::default()).unwrap();
        assert!(read.skipped.is_empty());
        assert_eq!(read_trace, trace);
    }

    #[test]
    fn indexed_container_resumes_at_every_boundary() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        write_iotb_indexed(&mut bytes, &trace, 2).unwrap();
        let mut full = IotbCursor::new(&bytes[..], ReadOptions::default()).unwrap();
        let mut full_events = Vec::new();
        while let Some(e) = full.next_event().unwrap() {
            full_events.push(e);
        }
        let full_state = full.into_state();
        for stop_after in 0..=full_events.len() {
            let mut head = IotbCursor::new(&bytes[..], ReadOptions::default()).unwrap();
            let mut events = Vec::new();
            for _ in 0..stop_after {
                events.push(head.next_event().unwrap().unwrap());
            }
            let saved = head.into_state();
            let mut tail = IotbCursor::resume(&bytes[..], ReadOptions::default(), saved).unwrap();
            while let Some(e) = tail.next_event().unwrap() {
                events.push(e);
            }
            assert_eq!(events, full_events, "stop_after={stop_after}");
            assert_eq!(tail.into_state(), full_state, "stop_after={stop_after}");
        }
    }

    #[test]
    fn block_index_is_parsed_and_verified() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        write_iotb_indexed(&mut bytes, &trace, 2).unwrap();
        let blocks = read_block_index(&bytes).unwrap().expect("v2 has an index");
        assert_eq!(blocks.len(), 2, "3 events at 2 per block");
        assert_eq!(blocks[0].events, 2);
        assert_eq!(blocks[1].events, 1);
        assert_eq!(blocks[0].offset, table_end_offset(&bytes) as u64);
        assert_eq!(blocks[0].offset + blocks[0].byte_len, blocks[1].offset);
        for block in &blocks {
            let start = usize::try_from(block.offset).unwrap();
            let end = start + usize::try_from(block.byte_len).unwrap();
            assert_eq!(fnv1a(&bytes[start..end], FNV_OFFSET), block.checksum);
        }
    }

    #[test]
    fn v1_container_has_no_index() {
        let bytes = encoded(&sample_trace());
        assert!(read_block_index(&bytes).unwrap().is_none());
    }

    #[test]
    fn strict_cursor_never_reads_the_index() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        write_iotb_indexed(&mut bytes, &trace, 2).unwrap();
        let len = bytes.len();
        // Corrupt the first index entry (its offset field, so the index
        // checksum fails too) and the footer magic: the index parser
        // rejects the container, the serial read does not notice.
        let index_start = len - 16 - 8 - 2 * 32 - 4;
        bytes[index_start + 6] ^= 0x01;
        bytes[len - 1] = b'?';
        assert!(read_block_index(&bytes).is_err());
        assert_eq!(read_iotb(&bytes[..]).unwrap(), trace);
    }

    #[test]
    fn empty_indexed_container_roundtrips() {
        let mut bytes = Vec::new();
        write_iotb_indexed(&mut bytes, &Trace::new(), 2).unwrap();
        assert!(read_iotb(&bytes[..]).unwrap().is_empty());
        assert!(read_block_index(&bytes).unwrap().unwrap().is_empty());
    }

    #[test]
    fn strict_reader_reports_record_number() {
        let trace = sample_trace();
        let mut bytes = encoded(&trace);
        let table_end = table_end_offset(&bytes);
        let rec1_len = u32::from_le_bytes(bytes[table_end..table_end + 4].try_into().unwrap());
        let rec2_start = table_end + 4 + rec1_len as usize;
        bytes[rec2_start + 4 + 40] = 0xEE;
        let err = read_iotb(&bytes[..]).unwrap_err();
        match &err {
            TraceIoError::Record { record, .. } => assert_eq!(*record, 2),
            other => panic!("expected record error, got {other}"),
        }
        assert!(err.to_string().contains("record 2"));
    }

    #[test]
    fn max_errors_is_honored() {
        let trace = sample_trace();
        let mut bytes = encoded(&trace);
        let table_end = table_end_offset(&bytes);
        // Corrupt records 1 and 2 (unknown tags), keep record 3.
        let rec1_len =
            u32::from_le_bytes(bytes[table_end..table_end + 4].try_into().unwrap()) as usize;
        bytes[table_end + 4 + 40] = 0xEE;
        let rec2_start = table_end + 4 + rec1_len;
        bytes[rec2_start + 4 + 40] = 0xEE;
        let strict_cap = ReadOptions {
            max_errors: Some(1),
            ..ReadOptions::default()
        };
        let err = read_lossy(&bytes[..], strict_cap).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::TooManyErrors { errors: 2, max: 1 }
        ));
        let roomy = ReadOptions {
            max_errors: Some(2),
            ..ReadOptions::default()
        };
        let (read_trace, read) = read_lossy(&bytes[..], roomy).unwrap();
        assert_eq!(read_trace.len(), 1);
        assert_eq!(read.skipped.len(), 2);
    }

    #[test]
    fn out_of_range_symbol_is_malformed() {
        let trace = Trace::from_events(vec![TraceEvent::build("close", 3, vec![], 0)]);
        let mut bytes = encoded(&trace);
        let table_end = table_end_offset(&bytes);
        // Name symbol lives at payload offset 20 (seq 8 + ts 8 + pid 4).
        bytes[table_end + 4 + 20..table_end + 4 + 24].copy_from_slice(&77u32.to_le_bytes());
        let (read_trace, read) = read_lossy(&bytes[..], ReadOptions::default()).unwrap();
        assert!(read_trace.is_empty());
        assert!(read.skipped[0].message.contains("out of range"));
    }

    #[test]
    fn cursor_matches_batch_lossy_reader() {
        let trace = sample_trace();
        let mut bytes = encoded(&trace);
        // Corrupt record 2 (unknown tag) and truncate the tail so the
        // cursor exercises both skip classes.
        let table_end = table_end_offset(&bytes);
        let rec1_len = u32::from_le_bytes(bytes[table_end..table_end + 4].try_into().unwrap());
        bytes[table_end + 4 + rec1_len as usize + 4 + 40] = 0xEE;
        bytes.truncate(bytes.len() - 3);
        let (batch_trace, batch) = read_lossy(&bytes[..], ReadOptions::default()).unwrap();
        let mut cursor = IotbCursor::new(&bytes[..], ReadOptions::default()).unwrap();
        let mut events = Vec::new();
        while let Some(e) = cursor.next_event().unwrap() {
            events.push(e);
        }
        let state = cursor.into_state();
        assert_eq!(events, batch_trace.events());
        assert_eq!(state.skipped, batch.skipped);
        assert_eq!(state.lines, batch.lines);
        assert_eq!(state.events, events.len() as u64);
    }

    #[test]
    fn cursor_resume_at_every_record_boundary_is_seamless() {
        let trace = sample_trace();
        let bytes = encoded(&trace);
        let mut full = IotbCursor::new(&bytes[..], ReadOptions::default()).unwrap();
        let mut full_events = Vec::new();
        while let Some(e) = full.next_event().unwrap() {
            full_events.push(e);
        }
        let full_state = full.into_state();
        assert_eq!(full_state.byte_offset, bytes.len() as u64);

        for stop_after in 0..=full_events.len() {
            let mut head = IotbCursor::new(&bytes[..], ReadOptions::default()).unwrap();
            let mut events = Vec::new();
            for _ in 0..stop_after {
                events.push(head.next_event().unwrap().unwrap());
            }
            let saved = head.into_state();
            // Round-trip the state through serde, as a checkpoint would.
            let saved: CursorState =
                serde_json::from_str(&serde_json::to_string(&saved).unwrap()).unwrap();
            // Resume takes the whole container, not a seeked tail.
            let mut tail = IotbCursor::resume(&bytes[..], ReadOptions::default(), saved).unwrap();
            while let Some(e) = tail.next_event().unwrap() {
                events.push(e);
            }
            assert_eq!(events, full_events, "stop_after={stop_after}");
            assert_eq!(tail.into_state(), full_state, "stop_after={stop_after}");
        }
    }

    #[test]
    fn cursor_resume_rejects_offsets_outside_the_record_region() {
        let bytes = encoded(&sample_trace());
        let inside_table = CursorState {
            byte_offset: 4,
            ..CursorState::default()
        };
        let err = IotbCursor::resume(&bytes[..], ReadOptions::default(), inside_table).unwrap_err();
        assert!(err.to_string().contains("inside the string table"), "{err}");
        let past_end = CursorState {
            byte_offset: bytes.len() as u64 + 100,
            ..CursorState::default()
        };
        let err = IotbCursor::resume(&bytes[..], ReadOptions::default(), past_end).unwrap_err();
        assert!(err.to_string().contains("past the end"), "{err}");
    }

    /// Byte offset of the first record's length prefix.
    fn table_end_offset(bytes: &[u8]) -> usize {
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let mut pos = 12;
        for _ in 0..count {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + len;
        }
        pos + 8 // checksum
    }
}
