//! Sparse, extent-based file contents.
//!
//! Regular-file data is stored as a sorted map of non-overlapping extents,
//! like a real extent-based file system (the paper's subject, Ext4, is
//! one). Two extent kinds exist: literal bytes and constant-fill runs.
//! Fill runs let workloads issue the paper's largest observed writes
//! (258 MiB in Figure 3) without materializing buffers, while keeping the
//! read path honest: reads reconstruct exactly the bytes written, with
//! holes reading as zeros.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Chunk size of the bounded whole-file walks (`content_eq`, `checksum`).
const CHUNK: u64 = 1 << 16;

/// Payload of one extent.
#[derive(Debug, Clone)]
enum ExtentData {
    /// Literal bytes; `buf[off..off + len]` is the payload. The buffer is
    /// shared so cloning a store (for durability snapshots) is cheap.
    Bytes { buf: Arc<Vec<u8>>, off: usize },
    /// `len` copies of one byte.
    Fill(u8),
}

/// One extent: `len` bytes of payload at some file offset (the offset is
/// the key in the owning map).
#[derive(Debug, Clone)]
struct Extent {
    len: u64,
    data: ExtentData,
}

impl Extent {
    /// Copies this extent's payload from index `from` into all of `dst`.
    fn copy_into(&self, from: u64, dst: &mut [u8]) {
        match &self.data {
            ExtentData::Bytes { buf, off } => {
                let start = off + from as usize;
                dst.copy_from_slice(&buf[start..start + dst.len()]);
            }
            ExtentData::Fill(b) => dst.fill(*b),
        }
    }

    /// Splits off the sub-extent `[from, to)` (relative to this extent).
    fn slice(&self, from: u64, to: u64) -> Extent {
        debug_assert!(from < to && to <= self.len);
        match &self.data {
            ExtentData::Bytes { buf, off } => Extent {
                len: to - from,
                data: ExtentData::Bytes {
                    buf: Arc::clone(buf),
                    off: off + from as usize,
                },
            },
            ExtentData::Fill(b) => Extent {
                len: to - from,
                data: ExtentData::Fill(*b),
            },
        }
    }
}

/// Sparse file contents.
///
/// ```
/// use iocov_vfs::ExtentStore;
///
/// let mut store = ExtentStore::new();
/// store.write(4096, b"hello");
/// assert_eq!(store.len(), 4101);
/// assert_eq!(store.read(4094, 4), vec![0, 0, b'h', b'e']);
/// assert_eq!(store.charged_bytes(), 5); // holes are free
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExtentStore {
    /// Extents keyed by starting file offset; non-overlapping.
    extents: BTreeMap<u64, Extent>,
    /// Logical file size (may exceed the last extent: trailing hole).
    size: u64,
}

impl ExtentStore {
    /// Creates an empty (zero-length) store.
    #[must_use]
    pub fn new() -> Self {
        ExtentStore::default()
    }

    /// Logical file size in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.size
    }

    /// Whether the file is zero-length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Bytes charged against quota/capacity: the total length of all
    /// extents (holes are free; fill extents are charged like real data,
    /// as a non-sparse write would be on disk).
    #[must_use]
    pub fn charged_bytes(&self) -> u64 {
        self.extents.values().map(|e| e.len).sum()
    }

    /// Bytes of payload allocated inside `[start, end)`: what a write
    /// over that range releases before charging its own length.
    #[must_use]
    pub fn allocated_in(&self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        let lead = self
            .extents
            .range(..start)
            .next_back()
            .map_or(0, |(&s, e)| (s + e.len).min(end).saturating_sub(start));
        let inside: u64 = self
            .extents
            .range(start..end)
            .map(|(&s, e)| (s + e.len).min(end) - s)
            .sum();
        lead + inside
    }

    /// Number of extents (for introspection and tests).
    #[must_use]
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Removes all payload in `[start, end)`, splitting boundary extents.
    fn punch(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Find the extent that begins strictly before `start` and may
        // overlap into the range.
        if let Some((&e_start, extent)) = self.extents.range(..start).next_back() {
            let e_end = e_start + extent.len;
            if e_end > start {
                let left = extent.slice(0, start - e_start);
                let right = if e_end > end {
                    Some((end, extent.slice(end - e_start, extent.len)))
                } else {
                    None
                };
                self.extents.insert(e_start, left);
                if let Some((k, v)) = right {
                    self.extents.insert(k, v);
                }
            }
        }
        // Remove or trim extents beginning inside the range.
        let inside: Vec<u64> = self.extents.range(start..end).map(|(&k, _)| k).collect();
        for e_start in inside {
            let extent = self.extents.remove(&e_start).expect("extent present");
            let e_end = e_start + extent.len;
            if e_end > end {
                self.extents
                    .insert(end, extent.slice(end - e_start, extent.len));
            }
        }
    }

    /// Writes literal bytes at `offset`, extending the file if needed.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let len = data.len() as u64;
        self.punch(offset, offset + len);
        self.extents.insert(
            offset,
            Extent {
                len,
                data: ExtentData::Bytes {
                    buf: Arc::new(data.to_vec()),
                    off: 0,
                },
            },
        );
        self.size = self.size.max(offset + len);
    }

    /// Writes `len` copies of `byte` at `offset` without materializing a
    /// buffer, extending the file if needed.
    pub fn write_fill(&mut self, offset: u64, byte: u8, len: u64) {
        if len == 0 {
            return;
        }
        self.punch(offset, offset + len);
        self.extents.insert(
            offset,
            Extent {
                len,
                data: ExtentData::Fill(byte),
            },
        );
        self.size = self.size.max(offset + len);
    }

    /// Bytes a read of `len` at `offset` returns: `len` clamped to the
    /// file size, 0 at or past EOF. Computes the count without touching
    /// the payload; a `len` near `u64::MAX` saturates instead of wrapping.
    #[must_use]
    pub fn read_len(&self, offset: u64, len: u64) -> u64 {
        len.min(self.size.saturating_sub(offset))
    }

    /// Reads into the front of `dst`: copies the
    /// [`read_len`](Self::read_len)`(offset, dst.len())` bytes at `offset`
    /// and returns that count. Holes read as zeros; the rest of `dst` is
    /// left untouched.
    pub fn read_into(&self, offset: u64, dst: &mut [u8]) -> usize {
        let total = self.read_len(offset, dst.len() as u64) as usize;
        if total == 0 {
            return 0;
        }
        let out = &mut dst[..total];
        let end = offset + total as u64;
        out.fill(0);
        // Extent starting before `offset` that overlaps in.
        if let Some((&e_start, extent)) = self.extents.range(..offset).next_back() {
            let e_end = e_start + extent.len;
            if e_end > offset {
                let n = (e_end.min(end) - offset) as usize;
                extent.copy_into(offset - e_start, &mut out[..n]);
            }
        }
        for (&e_start, extent) in self.extents.range(offset..end) {
            let dst = (e_start - offset) as usize;
            let n = ((e_start + extent.len).min(end) - e_start) as usize;
            extent.copy_into(0, &mut out[dst..dst + n]);
        }
        total
    }

    /// Reads up to `len` bytes at `offset`, clamped to the file size.
    /// Holes read as zeros.
    #[must_use]
    pub fn read(&self, offset: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; self.read_len(offset, len) as usize];
        self.read_into(offset, &mut out);
        out
    }

    /// Punches a hole: deallocates `[offset, offset + len)` without
    /// changing the file size (`FALLOC_FL_PUNCH_HOLE` semantics). The
    /// range reads as zeros afterwards.
    pub fn punch_hole(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.punch(offset, offset.saturating_add(len));
    }

    /// Allocates the holes inside `[offset, offset + len)` as zero-fill
    /// extents without touching existing data (`fallocate` mode-0
    /// semantics), extending the file size to cover the range.
    pub fn allocate_range(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = offset.saturating_add(len);
        let mut pos = offset;
        while pos < end {
            // Find the extent covering `pos`, if any.
            let covered_until = self
                .extents
                .range(..=pos)
                .next_back()
                .filter(|(&s, e)| s + e.len > pos)
                .map(|(&s, e)| s + e.len);
            match covered_until {
                Some(until) => pos = until,
                None => {
                    // A hole from `pos` to the next extent (or `end`).
                    let hole_end = self.extents.range(pos..end).next().map_or(end, |(&s, _)| s);
                    self.write_fill(pos, 0, hole_end - pos);
                    pos = hole_end;
                }
            }
        }
        self.size = self.size.max(end);
    }

    /// Truncates or extends (with a hole) to `new_len`.
    pub fn truncate(&mut self, new_len: u64) {
        if new_len < self.size {
            self.punch(new_len, self.size);
        }
        self.size = new_len;
    }

    /// Offset of the next data byte at or after `offset` (`SEEK_DATA`), or
    /// `None` past the last data.
    #[must_use]
    pub fn next_data(&self, offset: u64) -> Option<u64> {
        if offset >= self.size {
            return None;
        }
        if let Some((&e_start, extent)) = self.extents.range(..=offset).next_back() {
            if e_start + extent.len > offset {
                return Some(offset);
            }
        }
        self.extents
            .range(offset..)
            .next()
            .map(|(&start, _)| start)
            .filter(|&s| s < self.size)
    }

    /// Offset of the next hole at or after `offset` (`SEEK_HOLE`); end of
    /// file counts as a hole, so this returns `None` only past EOF.
    #[must_use]
    pub fn next_hole(&self, offset: u64) -> Option<u64> {
        if offset >= self.size {
            return None;
        }
        let mut pos = offset;
        loop {
            let covering = self
                .extents
                .range(..=pos)
                .next_back()
                .filter(|(&s, e)| s + e.len > pos);
            match covering {
                Some((&s, e)) => pos = s + e.len,
                None => return Some(pos.min(self.size)),
            }
            if pos >= self.size {
                return Some(self.size);
            }
        }
    }

    /// Compares logical contents with another store in bounded chunks
    /// (suitable for large sparse files).
    #[must_use]
    pub fn content_eq(&self, other: &ExtentStore) -> bool {
        if self.size != other.size {
            return false;
        }
        let chunk = self.size.min(CHUNK) as usize;
        let (mut a, mut b) = (vec![0u8; chunk], vec![0u8; chunk]);
        let mut pos = 0;
        while pos < self.size {
            let n = self.read_into(pos, &mut a);
            other.read_into(pos, &mut b[..n]);
            if a[..n] != b[..n] {
                return false;
            }
            pos += n as u64;
        }
        true
    }

    /// FNV-1a hash of the logical contents (including zeros in holes),
    /// chunked so sparse terabyte files do not materialize.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut buf = vec![0u8; self.size.min(CHUNK) as usize];
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut pos = 0;
        while pos < self.size {
            let n = self.read_into(pos, &mut buf);
            for &b in &buf[..n] {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
            pos += n as u64;
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store() {
        let s = ExtentStore::new();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.read(0, 10), Vec::<u8>::new());
        assert_eq!(s.charged_bytes(), 0);
    }

    #[test]
    fn write_then_read_back() {
        let mut s = ExtentStore::new();
        s.write(0, b"hello world");
        assert_eq!(s.len(), 11);
        assert_eq!(s.read(0, 11), b"hello world");
        assert_eq!(s.read(6, 5), b"world");
        assert_eq!(s.read(6, 100), b"world", "read clamps at EOF");
    }

    #[test]
    fn huge_read_counts_saturate_at_eof() {
        let mut s = ExtentStore::new();
        s.write(0, b"0123456789");
        for len in [u64::MAX, u64::MAX - 4, u64::MAX - 5] {
            assert_eq!(s.read(5, len), b"56789");
            assert_eq!(s.read_len(5, len), 5);
        }
        assert_eq!(s.read_len(u64::MAX, u64::MAX), 0);
        assert_eq!(s.read(u64::MAX, 1), Vec::<u8>::new());
    }

    #[test]
    fn read_into_fills_only_the_front() {
        let mut s = ExtentStore::new();
        s.write(4, b"ab");
        s.write_fill(8, b'f', 2);
        let mut buf = [0xeeu8; 16];
        assert_eq!(s.read_into(2, &mut buf), 8);
        assert_eq!(buf[..8], [0, 0, b'a', b'b', 0, 0, b'f', b'f']);
        assert!(buf[8..].iter().all(|&b| b == 0xee));
        assert_eq!(s.read_into(10, &mut buf), 0, "at EOF");
    }

    #[test]
    fn holes_read_as_zeros() {
        let mut s = ExtentStore::new();
        s.write(10, b"xy");
        assert_eq!(s.len(), 12);
        assert_eq!(s.read(0, 12), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, b'x', b'y']);
        assert_eq!(s.charged_bytes(), 2);
    }

    #[test]
    fn overlapping_write_replaces_middle() {
        let mut s = ExtentStore::new();
        s.write(0, b"aaaaaaaaaa");
        s.write(3, b"BBB");
        assert_eq!(s.read(0, 10), b"aaaBBBaaaa");
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn overlapping_write_replaces_head_and_tail() {
        let mut s = ExtentStore::new();
        s.write(0, b"aaaa");
        s.write(6, b"cccc");
        s.write(2, b"BBBBBB");
        assert_eq!(s.read(0, 10), b"aaBBBBBBcc");
    }

    #[test]
    fn fill_writes_behave_like_byte_writes() {
        let mut s = ExtentStore::new();
        s.write_fill(5, b'z', 10);
        assert_eq!(s.len(), 15);
        assert_eq!(s.read(4, 3), [0, b'z', b'z']);
        assert_eq!(s.read(14, 5), [b'z']);
        assert_eq!(s.charged_bytes(), 10);
    }

    #[test]
    fn huge_fill_write_is_compact() {
        let mut s = ExtentStore::new();
        let len = 258 * 1024 * 1024; // the paper's max observed write
        s.write_fill(0, 7, len);
        assert_eq!(s.len(), len);
        assert_eq!(s.extent_count(), 1);
        assert_eq!(s.read(len - 2, 10), [7, 7]);
        assert_eq!(s.charged_bytes(), len);
    }

    #[test]
    fn punch_splits_fill_extents() {
        let mut s = ExtentStore::new();
        s.write_fill(0, b'f', 100);
        s.write(40, b"XY");
        assert_eq!(s.read(38, 6), [b'f', b'f', b'X', b'Y', b'f', b'f']);
        assert_eq!(s.extent_count(), 3);
        assert_eq!(s.charged_bytes(), 100);
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut s = ExtentStore::new();
        s.write(0, b"0123456789");
        s.truncate(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.read(0, 10), b"0123");
        s.truncate(8);
        assert_eq!(s.len(), 8);
        assert_eq!(s.read(0, 8), [b'0', b'1', b'2', b'3', 0, 0, 0, 0]);
    }

    #[test]
    fn truncate_mid_extent_keeps_prefix() {
        let mut s = ExtentStore::new();
        s.write_fill(0, 9, 1000);
        s.truncate(10);
        assert_eq!(s.charged_bytes(), 10);
        assert_eq!(s.read(0, 10), vec![9u8; 10]);
    }

    #[test]
    fn zero_length_ops_are_noops() {
        let mut s = ExtentStore::new();
        s.write(5, b"");
        s.write_fill(5, 1, 0);
        assert_eq!(s.len(), 0);
        assert_eq!(s.extent_count(), 0);
    }

    #[test]
    fn seek_data_and_hole() {
        let mut s = ExtentStore::new();
        s.write(100, b"abcd");
        s.truncate(300);
        // Hole at 0, data at 100..104, hole to 300 (EOF).
        assert_eq!(s.next_data(0), Some(100));
        assert_eq!(s.next_data(101), Some(101));
        assert_eq!(s.next_data(104), None);
        assert_eq!(s.next_hole(0), Some(0));
        assert_eq!(s.next_hole(100), Some(104));
        assert_eq!(s.next_hole(102), Some(104));
        assert_eq!(s.next_hole(300), None);
        assert_eq!(s.next_data(300), None);
    }

    #[test]
    fn next_hole_at_eof_of_dense_file() {
        let mut s = ExtentStore::new();
        s.write(0, b"abc");
        assert_eq!(s.next_hole(0), Some(3), "EOF is a hole");
        assert_eq!(s.next_hole(2), Some(3));
    }

    #[test]
    fn content_eq_ignores_representation() {
        let mut a = ExtentStore::new();
        a.write(0, &[5u8; 64]);
        let mut b = ExtentStore::new();
        b.write_fill(0, 5, 64);
        assert!(a.content_eq(&b));
        assert_eq!(a.checksum(), b.checksum());
        b.write(10, &[6]);
        assert!(!a.content_eq(&b));
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn content_eq_detects_size_difference() {
        let mut a = ExtentStore::new();
        a.write(0, b"x");
        let mut b = a.clone();
        b.truncate(2);
        assert!(!a.content_eq(&b));
    }

    #[test]
    fn hole_vs_explicit_zeros_compare_equal() {
        let mut a = ExtentStore::new();
        a.write(0, &[0u8; 32]);
        let mut b = ExtentStore::new();
        b.truncate(32);
        assert!(a.content_eq(&b));
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn clone_is_independent() {
        let mut a = ExtentStore::new();
        a.write(0, b"shared");
        let b = a.clone();
        a.write(0, b"XXXXXX");
        assert_eq!(b.read(0, 6), b"shared");
        assert_eq!(a.read(0, 6), b"XXXXXX");
    }
}

#[cfg(test)]
mod fallocate_tests {
    use super::*;

    #[test]
    fn punch_hole_keeps_size_and_zeroes_range() {
        let mut s = ExtentStore::new();
        s.write(0, b"0123456789");
        s.punch_hole(2, 5);
        assert_eq!(s.len(), 10);
        assert_eq!(s.read(0, 10), [b'0', b'1', 0, 0, 0, 0, 0, b'7', b'8', b'9']);
        assert_eq!(s.charged_bytes(), 5, "punched blocks are freed");
        // SEEK_HOLE finds the punched region.
        assert_eq!(s.next_hole(0), Some(2));
        assert_eq!(s.next_data(2), Some(7));
    }

    #[test]
    fn punch_hole_zero_len_is_noop() {
        let mut s = ExtentStore::new();
        s.write(0, b"abc");
        s.punch_hole(1, 0);
        assert_eq!(s.read(0, 3), b"abc");
    }

    #[test]
    fn allocate_range_fills_holes_without_clobbering_data() {
        let mut s = ExtentStore::new();
        s.write(10, b"DATA");
        s.allocate_range(5, 20);
        assert_eq!(s.len(), 25);
        assert_eq!(s.read(10, 4), b"DATA", "existing data preserved");
        assert_eq!(s.next_hole(5), Some(25), "range is fully allocated");
        assert_eq!(s.charged_bytes(), 20, "5..10 and 14..25 allocated + DATA");
    }

    #[test]
    fn allocate_range_extends_size() {
        let mut s = ExtentStore::new();
        s.write(0, b"x");
        s.allocate_range(100, 50);
        assert_eq!(s.len(), 150);
        assert_eq!(s.read(100, 3), [0, 0, 0]);
    }

    #[test]
    fn allocate_range_inside_existing_extent_is_noop() {
        let mut s = ExtentStore::new();
        s.write(0, &[7u8; 100]);
        let before = s.charged_bytes();
        s.allocate_range(10, 50);
        assert_eq!(s.charged_bytes(), before);
        assert_eq!(s.read(10, 3), [7, 7, 7]);
    }
}
