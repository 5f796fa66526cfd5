//! The read family's three outputs agree: a read into a fresh vector, a
//! read into a caller's buffer, and a read that only counts.
//!
//! Only the first two copy bytes; the count-only path computes how many
//! bytes a read would return and must leave the same side effects behind
//! (descriptor offset, atime, `bytes_read`), on regular files, FIFOs and
//! devices alike.

use std::sync::Arc;

use iocov_vfs::{
    Errno, ExtentStore, FaultAction, FaultHook, Mode, OpCtx, OpenFlags, Pid, Vfs, VfsResult,
    Whence, WriteSource,
};
use proptest::prelude::*;

/// One mutation of a file's contents.
#[derive(Debug, Clone)]
enum Edit {
    Write { offset: u64, data: Vec<u8> },
    Fill { offset: u64, byte: u8, len: u64 },
    Truncate { len: u64 },
    Punch { offset: u64, len: u64 },
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0u64..512, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(offset, data)| Edit::Write { offset, data }),
        (0u64..512, any::<u8>(), 0u64..128).prop_map(|(offset, byte, len)| Edit::Fill {
            offset,
            byte,
            len
        }),
        (0u64..600).prop_map(|len| Edit::Truncate { len }),
        (0u64..600, 1u64..128).prop_map(|(offset, len)| Edit::Punch { offset, len }),
    ]
}

/// Read counts: mostly small, sometimes at or near `u64::MAX`.
fn count() -> impl Strategy<Value = u64> {
    (0u8..6, 0u64..700).prop_map(|(pick, small)| match pick {
        0 => u64::MAX - small % 4,
        1 => 1 << 40,
        _ => small,
    })
}

/// Counts worth probing at `offset` in a store of `len` bytes: empty, short,
/// exactly to EOF, past it, and the saturating extremes.
fn probe_counts(offset: u64, len: u64) -> Vec<u64> {
    let to_eof = len.saturating_sub(offset);
    vec![
        0,
        1,
        7,
        to_eof,
        to_eof + 1,
        len + 64,
        1 << 40,
        u64::MAX - offset,
        u64::MAX - 1,
        u64::MAX,
    ]
}

proptest! {
    /// At every offset up to past EOF and every probe count, `read_len`
    /// equals `read(..).len()`, and `read_into` copies the same bytes into
    /// the front of the buffer without touching the rest.
    #[test]
    fn extent_store_count_and_slice_reads_match_copying_reads(
        edits in proptest::collection::vec(edit(), 1..40),
    ) {
        let mut store = ExtentStore::new();
        for e in &edits {
            match e {
                Edit::Write { offset, data } => store.write(*offset, data),
                Edit::Fill { offset, byte, len } => store.write_fill(*offset, *byte, *len),
                Edit::Truncate { len } => store.truncate(*len),
                Edit::Punch { offset, len } => store.punch_hole(*offset, *len),
            }
        }
        let len = store.len();
        for offset in 0..=len + 2 {
            for count in probe_counts(offset, len) {
                let copied = store.read(offset, count);
                prop_assert_eq!(store.read_len(offset, count), copied.len() as u64);
                // A caller's buffer is at most a little past EOF; the
                // count is its length.
                let buf_len = count.min(len + 16) as usize;
                let mut buf = vec![0xeeu8; buf_len + 4];
                let n = store.read_into(offset, &mut buf[..buf_len]);
                let expected = store.read(offset, buf_len as u64);
                prop_assert_eq!(&buf[..n], &expected[..]);
                prop_assert!(buf[n..].iter().all(|&b| b == 0xee), "tail untouched");
            }
        }
    }
}

/// What a read writes into.
#[derive(Debug, Clone, Copy)]
enum Out {
    /// `read`, `pread`, `readv`: a fresh vector.
    Vec,
    /// `read_count`, `pread_count`, `readv_count`: nothing.
    Count,
    /// `read_into` for plain reads (counts up to 64 KiB); the count-only
    /// calls otherwise.
    Slice,
}

/// One call of the read family.
#[derive(Debug, Clone)]
enum Call {
    Read { count: u64 },
    Pread { count: u64, offset: i64 },
    Readv { lens: Vec<u64> },
}

fn read_call() -> impl Strategy<Value = Call> {
    prop_oneof![
        count().prop_map(|count| Call::Read { count }),
        (count(), -2i64..700).prop_map(|(count, offset)| Call::Pread { count, offset }),
        proptest::collection::vec(count(), 0..4).prop_map(|lens| Call::Readv { lens }),
    ]
}

/// One step of the script: an edit through the descriptor, a seek, or a
/// read.
#[derive(Debug, Clone)]
enum Step {
    Edit(Edit),
    Seek(i64),
    Read(Call),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        edit().prop_map(Step::Edit),
        (0i64..700).prop_map(Step::Seek),
        read_call().prop_map(Step::Read),
        read_call().prop_map(Step::Read),
    ]
}

/// Runs one read; returns the count and the bytes, if the output kept any.
fn run_read(
    fs: &mut Vfs,
    pid: Pid,
    fd: i32,
    call: &Call,
    out: Out,
) -> VfsResult<(u64, Option<Vec<u8>>)> {
    match (call, out) {
        (Call::Read { count }, Out::Vec) => {
            fs.read(pid, fd, *count).map(|d| (d.len() as u64, Some(d)))
        }
        (Call::Read { count }, Out::Slice) if *count <= 1 << 16 => {
            let mut buf = vec![0xeeu8; *count as usize];
            let n = fs.read_into(pid, fd, &mut buf)?;
            assert!(
                buf[n as usize..].iter().all(|&b| b == 0xee),
                "tail untouched"
            );
            buf.truncate(n as usize);
            Ok((n, Some(buf)))
        }
        (Call::Read { count }, _) => fs.read_count(pid, fd, *count).map(|n| (n, None)),
        (Call::Pread { count, offset }, Out::Vec) => fs
            .pread(pid, fd, *count, *offset)
            .map(|d| (d.len() as u64, Some(d))),
        (Call::Pread { count, offset }, _) => {
            fs.pread_count(pid, fd, *count, *offset).map(|n| (n, None))
        }
        (Call::Readv { lens }, Out::Vec) => {
            fs.readv(pid, fd, lens).map(|d| (d.len() as u64, Some(d)))
        }
        (Call::Readv { lens }, _) => fs.readv_count(pid, fd, lens).map(|n| (n, None)),
    }
}

fn run_edit(fs: &mut Vfs, pid: Pid, fd: i32, e: &Edit) -> VfsResult<u64> {
    match e {
        Edit::Write { offset, data } => {
            fs.pwrite(pid, fd, WriteSource::Bytes(data), *offset as i64)
        }
        Edit::Fill { offset, byte, len } => fs.pwrite(
            pid,
            fd,
            WriteSource::Fill {
                byte: *byte,
                len: *len,
            },
            *offset as i64,
        ),
        Edit::Truncate { len } => fs.ftruncate(pid, fd, *len as i64).map(|()| 0),
        Edit::Punch { offset, len } => {
            // FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE
            fs.fallocate(pid, fd, 0x3, *offset as i64, *len as i64)
                .map(|()| 0)
        }
    }
}

/// The file kinds a script reads from.
#[derive(Debug, Clone, Copy)]
enum Kind {
    File,
    Fifo,
    NonblockingFifo,
    CharDev,
}

fn kind() -> impl Strategy<Value = Kind> {
    (0u8..6).prop_map(|pick| match pick {
        0 => Kind::Fifo,
        1 => Kind::NonblockingFifo,
        2 => Kind::CharDev,
        _ => Kind::File,
    })
}

/// A file system with the target of `kind` open, plus its descriptor.
fn open_target(kind: Kind, noatime: bool) -> (Vfs, Pid, i32) {
    let mut fs = Vfs::new();
    let pid = fs.default_pid();
    let mut flags = if noatime {
        OpenFlags::O_NOATIME
    } else {
        OpenFlags::O_RDONLY
    };
    let path = match kind {
        Kind::File => {
            flags |= OpenFlags::O_CREAT | OpenFlags::O_RDWR;
            "/f"
        }
        Kind::Fifo | Kind::NonblockingFifo => {
            fs.mkfifo(pid, "/pipe", Mode::from_bits(0o644)).unwrap();
            if matches!(kind, Kind::NonblockingFifo) {
                flags |= OpenFlags::O_NONBLOCK;
            }
            "/pipe"
        }
        Kind::CharDev => {
            fs.mknod_char(pid, "/chr", Mode::from_bits(0o666), 0x0501)
                .unwrap();
            fs.register_device(0x0501);
            flags |= OpenFlags::O_RDWR;
            "/chr"
        }
    };
    let fd = fs.open(pid, path, flags, Mode::from_bits(0o644)).unwrap();
    (fs, pid, fd)
}

/// What a read leaves behind: the descriptor offset (or its errno), the
/// metadata (atime among it) and the counters (`bytes_read` among them).
fn side_effects(fs: &mut Vfs, pid: Pid, fd: i32) -> impl PartialEq + std::fmt::Debug {
    (
        fs.lseek(pid, fd, 0, Whence::Cur),
        fs.fstat(pid, fd),
        fs.stats(),
    )
}

proptest! {
    /// The same script over three file systems, one per read output:
    /// every call returns the same result, the copying outputs the same
    /// bytes, and every step leaves the same offset, atime and counters.
    #[test]
    fn vfs_count_and_slice_reads_match_copying_reads(
        kind in kind(),
        noatime in any::<bool>(),
        steps in proptest::collection::vec(step(), 1..30),
    ) {
        let outs = [Out::Vec, Out::Count, Out::Slice];
        let mut systems: Vec<(Vfs, Pid, i32)> = outs.iter().map(|_| open_target(kind, noatime)).collect();
        for step in &steps {
            let mut results = Vec::new();
            let mut effects = Vec::new();
            for ((fs, pid, fd), out) in systems.iter_mut().zip(outs) {
                let (pid, fd) = (*pid, *fd);
                let result = match step {
                    Step::Edit(e) => run_edit(fs, pid, fd, e).map(|n| (n, None)),
                    Step::Seek(off) => fs.lseek(pid, fd, *off, Whence::Set).map(|n| (n, None)),
                    Step::Read(call) => run_read(fs, pid, fd, call, out),
                };
                results.push(result);
                effects.push(side_effects(fs, pid, fd));
            }
            let counts: Vec<_> = results.iter().map(|r| r.as_ref().map(|(n, _)| *n).map_err(|e| *e)).collect();
            prop_assert_eq!(&counts[0], &counts[1], "{:?}", step);
            prop_assert_eq!(&counts[0], &counts[2], "{:?}", step);
            if let (Ok((_, Some(copied))), Ok((_, Some(sliced)))) = (&results[0], &results[2]) {
                prop_assert_eq!(copied, sliced, "{:?}", step);
            }
            prop_assert_eq!(&effects[0], &effects[1], "{:?}", step);
            prop_assert_eq!(&effects[0], &effects[2], "{:?}", step);
        }
    }
}

#[test]
fn device_reads_are_capped_whatever_the_output() {
    const CAP: u64 = 1 << 20;
    let (mut a, pid, fd) = open_target(Kind::CharDev, false);
    let (mut b, _, _) = open_target(Kind::CharDev, false);
    let (mut c, _, _) = open_target(Kind::CharDev, false);
    let data = a.read(pid, fd, u64::MAX).unwrap();
    assert_eq!(data.len() as u64, CAP);
    assert!(data.iter().all(|&x| x == 0));
    assert_eq!(b.read_count(pid, fd, u64::MAX), Ok(CAP));
    let mut buf = vec![0xeeu8; 2 * CAP as usize];
    assert_eq!(c.read_into(pid, fd, &mut buf), Ok(CAP));
    assert!(buf[..CAP as usize].iter().all(|&x| x == 0));
    assert!(buf[CAP as usize..].iter().all(|&x| x == 0xee));
    let effects = side_effects(&mut a, pid, fd);
    assert_eq!(effects, side_effects(&mut b, pid, fd));
    assert_eq!(effects, side_effects(&mut c, pid, fd));
}

#[test]
fn fifo_errnos_are_the_same_whatever_the_output() {
    let (mut fs, pid, fd) = open_target(Kind::NonblockingFifo, false);
    let mut buf = [0u8; 4];
    assert_eq!(fs.read_into(pid, fd, &mut buf), Err(Errno::EAGAIN));
    assert_eq!(fs.read_count(pid, fd, 4), Err(Errno::EAGAIN));
    assert_eq!(fs.readv_count(pid, fd, &[2, 2]), Err(Errno::EAGAIN));
    assert_eq!(fs.pread_count(pid, fd, 4, 0), Err(Errno::ESPIPE));
    let (mut fs, pid, fd) = open_target(Kind::Fifo, false);
    assert_eq!(
        fs.read_into(pid, fd, &mut buf),
        Ok(0),
        "blocking read sees EOF"
    );
    assert_eq!(fs.pread_count(pid, fd, 4, 0), Err(Errno::ESPIPE));
}

#[test]
fn huge_reads_return_what_is_left() {
    let (mut fs, pid, fd) = open_target(Kind::File, false);
    fs.write(pid, fd, b"0123456789").unwrap();
    assert_eq!(fs.pread_count(pid, fd, u64::MAX, 5), Ok(5));
    assert_eq!(fs.pread(pid, fd, u64::MAX, 5).unwrap(), b"56789");
    fs.lseek(pid, fd, 5, Whence::Set).unwrap();
    assert_eq!(fs.read_count(pid, fd, u64::MAX), Ok(5));
    assert_eq!(fs.lseek(pid, fd, 0, Whence::Cur), Ok(10));
    fs.lseek(pid, fd, 5, Whence::Set).unwrap();
    assert_eq!(fs.read(pid, fd, u64::MAX).unwrap(), b"56789");
}

#[test]
fn readv_totals_past_ssize_max_fail_einval() {
    let (mut fs, pid, fd) = open_target(Kind::File, false);
    fs.write(pid, fd, b"0123456789").unwrap();
    fs.lseek(pid, fd, 0, Whence::Set).unwrap();
    let before = fs.stats();
    let half = 1u64 << 62;
    for lens in [
        &[u64::MAX, 1][..],
        &[half, half],
        &[1 << 63],
        &[isize::MAX as u64, 1],
    ] {
        assert_eq!(fs.readv(pid, fd, lens), Err(Errno::EINVAL), "{lens:?}");
        assert_eq!(
            fs.readv_count(pid, fd, lens),
            Err(Errno::EINVAL),
            "{lens:?}"
        );
    }
    assert_eq!(fs.lseek(pid, fd, 0, Whence::Cur), Ok(0), "offset unmoved");
    assert_eq!(fs.stats().bytes_read, before.bytes_read);
    // The largest legal total reads what is there.
    assert_eq!(fs.readv_count(pid, fd, &[isize::MAX as u64 - 1, 1]), Ok(10));
}

/// Corrupts the first byte of every read.
struct CorruptReads;

impl FaultHook for CorruptReads {
    fn intercept(&self, ctx: &OpCtx<'_>) -> Option<FaultAction> {
        (ctx.op == "read").then_some(FaultAction::CorruptData)
    }
}

#[test]
fn corrupt_data_flips_the_first_copied_byte_and_keeps_the_count() {
    let mut systems: Vec<_> = (0..3).map(|_| open_target(Kind::File, false)).collect();
    for (fs, pid, fd) in &mut systems {
        fs.write(*pid, *fd, b"abc").unwrap();
        fs.lseek(*pid, *fd, 0, Whence::Set).unwrap();
        fs.set_fault_hook(Arc::new(CorruptReads));
    }
    let [(a, pid, fd), (b, _, _), (c, _, _)] = &mut systems[..] else {
        unreachable!("three systems")
    };
    let (pid, fd) = (*pid, *fd);
    assert_eq!(a.read(pid, fd, 8).unwrap(), [b'a' ^ 0xff, b'b', b'c']);
    assert_eq!(b.read_count(pid, fd, 8), Ok(3));
    let mut buf = [0u8; 8];
    assert_eq!(c.read_into(pid, fd, &mut buf), Ok(3));
    assert_eq!(buf[..3], [b'a' ^ 0xff, b'b', b'c']);
    let effects = side_effects(a, pid, fd);
    assert_eq!(effects, side_effects(b, pid, fd));
    assert_eq!(effects, side_effects(c, pid, fd));
}
