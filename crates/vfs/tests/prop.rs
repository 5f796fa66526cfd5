//! Property-based tests: the VFS against a trivially-correct model.

use iocov_vfs::{Errno, ExtentStore, Mode, OpenFlags, Vfs, Whence};
use proptest::prelude::*;

/// A single-file I/O operation for the model-comparison property.
#[derive(Debug, Clone)]
enum FileOp {
    Write { offset: u64, data: Vec<u8> },
    Fill { offset: u64, byte: u8, len: u64 },
    Truncate { len: u64 },
    Read { offset: u64, len: u64 },
}

fn file_op() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        (0u64..512, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(offset, data)| FileOp::Write { offset, data }),
        (0u64..512, any::<u8>(), 0u64..128).prop_map(|(offset, byte, len)| FileOp::Fill {
            offset,
            byte,
            len
        }),
        (0u64..600).prop_map(|len| FileOp::Truncate { len }),
        (0u64..600, 0u64..128).prop_map(|(offset, len)| FileOp::Read { offset, len }),
    ]
}

/// Applies one op to the reference model (a plain byte vector).
fn apply_model(model: &mut Vec<u8>, op: &FileOp) {
    match op {
        FileOp::Write { offset, data } => {
            if data.is_empty() {
                return; // zero-length writes do not extend the file
            }
            let end = *offset as usize + data.len();
            if end > model.len() {
                model.resize(end, 0);
            }
            model[*offset as usize..end].copy_from_slice(data);
        }
        FileOp::Fill { offset, byte, len } => {
            let end = (*offset + *len) as usize;
            if *len > 0 {
                if end > model.len() {
                    model.resize(end, 0);
                }
                model[*offset as usize..end].fill(*byte);
            }
        }
        FileOp::Truncate { len } => {
            model.resize(*len as usize, 0);
        }
        FileOp::Read { .. } => {}
    }
}

proptest! {
    /// Arbitrary sequences of pwrite/fill/truncate/pread agree with a
    /// plain `Vec<u8>` model, byte for byte.
    #[test]
    fn vfs_file_io_matches_vec_model(ops in proptest::collection::vec(file_op(), 1..40)) {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        let fd = fs
            .open(pid, "/f", OpenFlags::O_CREAT | OpenFlags::O_RDWR, Mode::from_bits(0o644))
            .unwrap();
        let mut model: Vec<u8> = Vec::new();
        for op in &ops {
            match op {
                FileOp::Write { offset, data } => {
                    if data.is_empty() {
                        continue;
                    }
                    let n = fs
                        .pwrite(pid, fd, iocov_vfs::WriteSource::Bytes(data), *offset as i64)
                        .unwrap();
                    prop_assert_eq!(n, data.len() as u64);
                }
                FileOp::Fill { offset, byte, len } => {
                    if *len == 0 {
                        continue;
                    }
                    let src = iocov_vfs::WriteSource::Fill { byte: *byte, len: *len };
                    let n = fs.pwrite(pid, fd, src, *offset as i64).unwrap();
                    prop_assert_eq!(n, *len);
                }
                FileOp::Truncate { len } => {
                    fs.ftruncate(pid, fd, *len as i64).unwrap();
                }
                FileOp::Read { offset, len } => {
                    let got = fs.pread(pid, fd, *len, *offset as i64).unwrap();
                    let start = (*offset as usize).min(model.len());
                    let end = ((*offset + *len) as usize).min(model.len());
                    prop_assert_eq!(&got, &model[start..end]);
                }
            }
            apply_model(&mut model, op);
            prop_assert_eq!(fs.fstat(pid, fd).unwrap().size, model.len() as u64);
        }
        // Final full read-back.
        let all = fs.pread(pid, fd, model.len() as u64 + 64, 0).unwrap();
        prop_assert_eq!(all, model);
    }

    /// The extent store itself agrees with a byte-vector model,
    /// including `charged_bytes` never exceeding the logical size, and a
    /// write charging exactly its length less `allocated_in` its range
    /// (the delta the VFS charges before writing in place).
    #[test]
    fn extent_store_matches_model(ops in proptest::collection::vec(file_op(), 1..60)) {
        let mut store = ExtentStore::new();
        let mut model: Vec<u8> = Vec::new();
        for op in &ops {
            let written = match op {
                FileOp::Write { offset, data } => Some((*offset, data.len() as u64)),
                FileOp::Fill { offset, len, .. } => Some((*offset, *len)),
                _ => None,
            };
            let expected_charge = written.map(|(offset, len)| {
                store.charged_bytes() - store.allocated_in(offset, offset + len) + len
            });
            match op {
                FileOp::Write { offset, data } => store.write(*offset, data),
                FileOp::Fill { offset, byte, len } => store.write_fill(*offset, *byte, *len),
                FileOp::Truncate { len } => store.truncate(*len),
                FileOp::Read { offset, len } => {
                    let got = store.read(*offset, *len);
                    let start = (*offset as usize).min(model.len());
                    let end = ((*offset + *len) as usize).min(model.len());
                    prop_assert_eq!(&got, &model[start..end]);
                }
            }
            apply_model(&mut model, op);
            prop_assert_eq!(store.len(), model.len() as u64);
            prop_assert!(store.charged_bytes() <= store.len());
            if let Some(expected) = expected_charge {
                prop_assert_eq!(store.charged_bytes(), expected);
            }
        }
    }

    /// Everything written before the last `sync` survives a crash;
    /// `used_bytes` accounting is consistent after recovery.
    #[test]
    fn sync_point_data_survives_crash(
        files in proptest::collection::vec(
            ("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 1..64)),
            1..8,
        ),
        extra in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        let mut expected = std::collections::BTreeMap::new();
        for (name, data) in &files {
            let path = format!("/{name}");
            let fd = fs
                .open(pid, &path, OpenFlags::O_CREAT | OpenFlags::O_RDWR | OpenFlags::O_TRUNC,
                      Mode::from_bits(0o644))
                .unwrap();
            fs.write(pid, fd, data).unwrap();
            fs.close(pid, fd).unwrap();
            expected.insert(path, data.clone());
        }
        fs.sync();
        // Unsynced extra work that must NOT survive.
        let fd = fs
            .open(pid, "/volatile", OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Mode::from_bits(0o644))
            .unwrap();
        fs.write(pid, fd, &extra).unwrap();
        fs.crash();

        prop_assert_eq!(fs.stat(pid, "/volatile"), Err(Errno::ENOENT));
        let mut total = 0u64;
        for (path, data) in &expected {
            let fd = fs.open(pid, path, OpenFlags::O_RDONLY, Mode::from_bits(0)).unwrap();
            let got = fs.read(pid, fd, data.len() as u64 + 8).unwrap();
            prop_assert_eq!(&got, data);
            fs.close(pid, fd).unwrap();
            total += data.len() as u64;
        }
        prop_assert_eq!(fs.stats().used_bytes, total);
    }

    /// lseek arithmetic agrees with a model offset under all whence
    /// modes that cannot fail.
    #[test]
    fn lseek_offset_arithmetic(seeks in proptest::collection::vec((0i64..1000, 0u32..3), 1..20)) {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        let fd = fs
            .open(pid, "/f", OpenFlags::O_CREAT | OpenFlags::O_RDWR, Mode::from_bits(0o644))
            .unwrap();
        fs.write(pid, fd, &[7u8; 100]).unwrap();
        let size = 100i64;
        let mut model_pos = size; // offset after the write
        for (off, whence_no) in seeks {
            let whence = Whence::from_number(whence_no).unwrap();
            let target = match whence {
                Whence::Set => off,
                Whence::Cur => model_pos + off,
                Whence::End => size + off,
                _ => unreachable!("generator limits whence to 0..3"),
            };
            let got = fs.lseek(pid, fd, off, whence);
            if target < 0 {
                prop_assert_eq!(got, Err(Errno::EINVAL));
            } else {
                prop_assert_eq!(got, Ok(target as u64));
                model_pos = target;
            }
        }
    }

    /// Directory entries always list exactly what was created and not
    /// yet removed, regardless of operation interleaving.
    #[test]
    fn readdir_reflects_namespace(names in proptest::collection::btree_set("[a-z]{1,6}", 1..10)) {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        let names: Vec<String> = names.into_iter().collect();
        for n in &names {
            fs.mkdir(pid, &format!("/{n}"), Mode::from_bits(0o755)).unwrap();
        }
        let listed = fs.readdir(pid, "/").unwrap();
        prop_assert_eq!(&listed, &names, "BTreeMap keeps sorted order");
        // Remove every other entry.
        for n in names.iter().step_by(2) {
            fs.rmdir(pid, &format!("/{n}")).unwrap();
        }
        let listed = fs.readdir(pid, "/").unwrap();
        let remaining: Vec<String> =
            names.iter().enumerate().filter(|(i, _)| i % 2 == 1).map(|(_, n)| n.clone()).collect();
        prop_assert_eq!(listed, remaining);
    }
}
