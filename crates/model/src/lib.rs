//! An executable POSIX specification, used as a differential-testing
//! oracle.
//!
//! `ModelFs` is a deliberately simple file-system model: a flat map from
//! normalized absolute paths to nodes, with byte-vector file contents
//! behind shared handles (so unlinked-but-open files behave correctly).
//! It trades all performance and much generality (no symlinks, devices,
//! permissions, or durability) for being *obviously correct* on the
//! operation subset the coverage-guided differential tester
//! (`iocov-difftest`) generates. Mismatches between `ModelFs` and the
//! full `iocov-vfs` implementation indicate bugs in the latter — the
//! method of SibylFS-style oracle testing, and the §6 "future work"
//! direction of the IOCov paper.
//!
//! # Examples
//!
//! ```
//! use iocov_model::ModelFs;
//!
//! let mut fs = ModelFs::new();
//! let fd = fs.open("/f", 0o102 /* O_CREAT|O_RDWR */, 0o644);
//! assert!(fd >= 0);
//! assert_eq!(fs.write(fd as i32, b"spec"), 4);
//! assert_eq!(fs.lseek(fd as i32, 0, 0), 0);
//! assert_eq!(fs.read(fd as i32, 4), (4, b"spec".to_vec()));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use iocov_syscalls::Errno;

/// Raw syscall-style return value.
pub type RawRet = i64;

const O_ACCMODE: u32 = 0o3;
const O_CREAT: u32 = 0o100;
const O_EXCL: u32 = 0o200;
const O_TRUNC: u32 = 0o1000;
const O_APPEND: u32 = 0o2000;
const O_DIRECTORY: u32 = 0o200000;

/// Contents and attributes of one regular file, shared between the
/// namespace and any open descriptors (so data outlives `unlink` while
/// descriptors remain, as POSIX requires).
#[derive(Debug, Default)]
struct FileData {
    data: Vec<u8>,
    xattrs: BTreeMap<String, Vec<u8>>,
}

type FileHandle = Rc<RefCell<FileData>>;

/// One node of the model namespace.
#[derive(Debug, Clone)]
enum Node {
    Dir { xattrs: BTreeMap<String, Vec<u8>> },
    File(FileHandle),
}

/// What an open descriptor refers to.
#[derive(Debug, Clone)]
enum FdTarget {
    File(FileHandle),
    Dir,
}

/// One open descriptor.
#[derive(Debug, Clone)]
struct Fd {
    target: FdTarget,
    offset: u64,
    flags: u32,
}

/// The model file system.
#[derive(Debug, Default)]
pub struct ModelFs {
    /// Normalized absolute path → node. The root `"/"` is implicit.
    nodes: BTreeMap<String, Node>,
    fds: BTreeMap<i32, Fd>,
}

/// Normalizes an absolute path: collapses `//`, resolves `.` and `..`
/// lexically. Returns `None` for relative paths (outside the model's
/// scope).
#[must_use]
pub fn normalize_path(path: &str) -> Option<String> {
    if !path.starts_with('/') {
        return None;
    }
    let mut parts: Vec<&str> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            other => parts.push(other),
        }
    }
    Some(format!("/{}", parts.join("/")))
}

fn err(e: Errno) -> RawRet {
    e.as_retval()
}

impl ModelFs {
    /// An empty model (just the root directory).
    #[must_use]
    pub fn new() -> Self {
        ModelFs {
            nodes: BTreeMap::new(),
            fds: BTreeMap::new(),
        }
    }

    fn is_dir(&self, path: &str) -> bool {
        path == "/" || matches!(self.nodes.get(path), Some(Node::Dir { .. }))
    }

    fn parent_of(path: &str) -> String {
        match path.rfind('/') {
            Some(0) | None => "/".to_owned(),
            Some(idx) => path[..idx].to_owned(),
        }
    }

    /// Validates that `path`'s parent exists and is a directory;
    /// distinguishes a missing parent (`ENOENT`) from a file blocking the
    /// path (`ENOTDIR`).
    fn check_parent(&self, path: &str) -> Result<(), Errno> {
        let parent = Self::parent_of(path);
        if self.is_dir(&parent) {
            return Ok(());
        }
        let mut cursor = parent;
        loop {
            if cursor == "/" || self.is_dir(&cursor) {
                return Err(Errno::ENOENT);
            }
            if matches!(self.nodes.get(&cursor), Some(Node::File(_))) {
                return Err(Errno::ENOTDIR);
            }
            cursor = Self::parent_of(&cursor);
        }
    }

    /// `open(2)` over the modelled flag subset.
    pub fn open(&mut self, path: &str, flags: u32, _mode: u32) -> RawRet {
        let Some(path) = normalize_path(path) else {
            return err(Errno::ENOENT);
        };
        if flags & O_ACCMODE == 3 {
            return err(Errno::EINVAL);
        }
        let writable = matches!(flags & O_ACCMODE, 1 | 2);
        let target = if path == "/" || self.nodes.contains_key(&path) {
            if flags & O_CREAT != 0 && flags & O_EXCL != 0 {
                return err(Errno::EEXIST);
            }
            let is_dir = self.is_dir(&path);
            // O_TRUNC demands write intent, so it also trips EISDIR.
            if is_dir && (writable || flags & O_CREAT != 0 || flags & O_TRUNC != 0) {
                return err(Errno::EISDIR);
            }
            if !is_dir && flags & O_DIRECTORY != 0 {
                return err(Errno::ENOTDIR);
            }
            if is_dir {
                FdTarget::Dir
            } else {
                let Some(Node::File(handle)) = self.nodes.get(&path) else {
                    unreachable!("non-dir node is a file");
                };
                if flags & O_TRUNC != 0 {
                    handle.borrow_mut().data.clear();
                }
                FdTarget::File(Rc::clone(handle))
            }
        } else {
            // A file blocking the path yields ENOTDIR even without
            // O_CREAT, per POSIX resolution rules.
            if let Err(e) = self.check_parent(&path) {
                return err(e);
            }
            if flags & O_CREAT == 0 {
                return err(Errno::ENOENT);
            }
            let handle: FileHandle = Rc::new(RefCell::new(FileData::default()));
            self.nodes
                .insert(path.clone(), Node::File(Rc::clone(&handle)));
            FdTarget::File(handle)
        };
        // POSIX: the lowest descriptor not in use, counting from 3.
        let fd = (3..)
            .find(|fd| !self.fds.contains_key(fd))
            .expect("a free descriptor");
        self.fds.insert(
            fd,
            Fd {
                target,
                offset: 0,
                flags,
            },
        );
        i64::from(fd)
    }

    /// `close(2)`.
    pub fn close(&mut self, fd: i32) -> RawRet {
        match self.fds.remove(&fd) {
            Some(_) => 0,
            None => err(Errno::EBADF),
        }
    }

    /// `read(2)`: returns `(retval, data)`.
    pub fn read(&mut self, fd: i32, count: u64) -> (RawRet, Vec<u8>) {
        let Some(desc) = self.fds.get(&fd).cloned() else {
            return (err(Errno::EBADF), Vec::new());
        };
        if desc.flags & O_ACCMODE == 1 {
            return (err(Errno::EBADF), Vec::new());
        }
        match &desc.target {
            FdTarget::Dir => (err(Errno::EISDIR), Vec::new()),
            FdTarget::File(handle) => {
                let data = &handle.borrow().data;
                let start = (desc.offset as usize).min(data.len());
                let end = ((desc.offset + count) as usize).min(data.len());
                let out = data[start..end].to_vec();
                self.fds.get_mut(&fd).expect("fd exists").offset += out.len() as u64;
                (out.len() as i64, out)
            }
        }
    }

    /// `write(2)`.
    pub fn write(&mut self, fd: i32, buf: &[u8]) -> RawRet {
        let Some(desc) = self.fds.get(&fd).cloned() else {
            return err(Errno::EBADF);
        };
        if desc.flags & O_ACCMODE == 0 {
            return err(Errno::EBADF);
        }
        match &desc.target {
            FdTarget::Dir => err(Errno::EBADF),
            FdTarget::File(handle) => {
                if buf.is_empty() {
                    return 0;
                }
                let mut file = handle.borrow_mut();
                let pos = if desc.flags & O_APPEND != 0 {
                    file.data.len() as u64
                } else {
                    desc.offset
                };
                let end = pos as usize + buf.len();
                if end > file.data.len() {
                    file.data.resize(end, 0);
                }
                file.data[pos as usize..end].copy_from_slice(buf);
                drop(file);
                self.fds.get_mut(&fd).expect("fd exists").offset = end as u64;
                buf.len() as i64
            }
        }
    }

    /// `lseek(2)` over `SEEK_SET`/`SEEK_CUR`/`SEEK_END`.
    pub fn lseek(&mut self, fd: i32, offset: i64, whence: u32) -> RawRet {
        let Some(desc) = self.fds.get(&fd).cloned() else {
            return err(Errno::EBADF);
        };
        let size = match &desc.target {
            FdTarget::File(handle) => handle.borrow().data.len() as i64,
            FdTarget::Dir => 0,
        };
        let target = match whence {
            0 => offset,
            1 => desc.offset as i64 + offset,
            2 => size + offset,
            _ => return err(Errno::EINVAL),
        };
        if target < 0 {
            return err(Errno::EINVAL);
        }
        self.fds.get_mut(&fd).expect("fd exists").offset = target as u64;
        target
    }

    /// `truncate(2)`.
    pub fn truncate(&mut self, path: &str, length: i64) -> RawRet {
        if length < 0 {
            return err(Errno::EINVAL);
        }
        let Some(path) = normalize_path(path) else {
            return err(Errno::ENOENT);
        };
        if self.is_dir(&path) {
            return err(Errno::EISDIR);
        }
        match self.nodes.get(&path) {
            Some(Node::File(handle)) => {
                handle.borrow_mut().data.resize(length as usize, 0);
                0
            }
            _ => match self.check_parent(&path) {
                Err(e) => err(e),
                Ok(()) => err(Errno::ENOENT),
            },
        }
    }

    /// `ftruncate(2)`.
    pub fn ftruncate(&mut self, fd: i32, length: i64) -> RawRet {
        if length < 0 {
            return err(Errno::EINVAL);
        }
        let Some(desc) = self.fds.get(&fd) else {
            return err(Errno::EBADF);
        };
        if desc.flags & O_ACCMODE == 0 {
            return err(Errno::EINVAL);
        }
        match &desc.target {
            FdTarget::File(handle) => {
                handle.borrow_mut().data.resize(length as usize, 0);
                0
            }
            FdTarget::Dir => err(Errno::EINVAL),
        }
    }

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str, _mode: u32) -> RawRet {
        let Some(path) = normalize_path(path) else {
            return err(Errno::ENOENT);
        };
        if path == "/" || self.nodes.contains_key(&path) {
            return err(Errno::EEXIST);
        }
        if let Err(e) = self.check_parent(&path) {
            return err(e);
        }
        self.nodes.insert(
            path,
            Node::Dir {
                xattrs: BTreeMap::new(),
            },
        );
        0
    }

    /// `rmdir(2)`.
    pub fn rmdir(&mut self, path: &str) -> RawRet {
        let Some(path) = normalize_path(path) else {
            return err(Errno::ENOENT);
        };
        if path == "/" {
            return err(Errno::EBUSY);
        }
        match self.nodes.get(&path) {
            None => match self.check_parent(&path) {
                Err(e) => err(e),
                Ok(()) => err(Errno::ENOENT),
            },
            Some(Node::File(_)) => err(Errno::ENOTDIR),
            Some(Node::Dir { .. }) => {
                let prefix = format!("{path}/");
                if self.nodes.keys().any(|k| k.starts_with(&prefix)) {
                    return err(Errno::ENOTEMPTY);
                }
                self.nodes.remove(&path);
                0
            }
        }
    }

    /// `unlink(2)`. Open descriptors keep the data alive.
    pub fn unlink(&mut self, path: &str) -> RawRet {
        let Some(path) = normalize_path(path) else {
            return err(Errno::ENOENT);
        };
        if path == "/" {
            return err(Errno::EISDIR);
        }
        match self.nodes.get(&path) {
            None => match self.check_parent(&path) {
                Err(e) => err(e),
                Ok(()) => err(Errno::ENOENT),
            },
            Some(Node::Dir { .. }) => err(Errno::EISDIR),
            Some(Node::File(_)) => {
                self.nodes.remove(&path);
                0
            }
        }
    }

    /// `setxattr(2)` over the `user.` namespace without flags (Linux
    /// permits `user.*` on both regular files and directories).
    pub fn setxattr(&mut self, path: &str, name: &str, value: &[u8]) -> RawRet {
        let Some(path) = normalize_path(path) else {
            return err(Errno::ENOENT);
        };
        if path == "/" {
            return err(Errno::EPERM); // the model keeps its root pristine
        }
        match self.nodes.get_mut(&path) {
            Some(Node::File(handle)) => {
                handle
                    .borrow_mut()
                    .xattrs
                    .insert(name.to_owned(), value.to_vec());
                0
            }
            Some(Node::Dir { xattrs }) => {
                xattrs.insert(name.to_owned(), value.to_vec());
                0
            }
            None => match self.check_parent(&path) {
                Err(e) => err(e),
                Ok(()) => err(Errno::ENOENT),
            },
        }
    }

    /// `getxattr(2)`: returns the value length or `-errno`.
    pub fn getxattr(&mut self, path: &str, name: &str) -> RawRet {
        let Some(path) = normalize_path(path) else {
            return err(Errno::ENOENT);
        };
        if path == "/" {
            return err(Errno::ENODATA);
        }
        match self.nodes.get(&path) {
            Some(Node::File(handle)) => handle
                .borrow()
                .xattrs
                .get(name)
                .map_or(err(Errno::ENODATA), |v| v.len() as i64),
            Some(Node::Dir { xattrs }) => xattrs
                .get(name)
                .map_or(err(Errno::ENODATA), |v| v.len() as i64),
            None => match self.check_parent(&path) {
                Err(e) => err(e),
                Ok(()) => err(Errno::ENOENT),
            },
        }
    }

    /// The full contents of a file, for final-state comparison.
    #[must_use]
    pub fn file_contents(&self, path: &str) -> Option<Vec<u8>> {
        let path = normalize_path(path)?;
        match self.nodes.get(&path) {
            Some(Node::File(handle)) => Some(handle.borrow().data.clone()),
            _ => None,
        }
    }

    /// All live paths (sorted), for final-state comparison.
    #[must_use]
    pub fn paths(&self) -> Vec<String> {
        self.nodes.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_path_rules() {
        assert_eq!(normalize_path("/a//b/./c"), Some("/a/b/c".into()));
        assert_eq!(normalize_path("/a/b/../c"), Some("/a/c".into()));
        assert_eq!(normalize_path("/../.."), Some("/".into()));
        assert_eq!(normalize_path("relative"), None);
        assert_eq!(normalize_path("/"), Some("/".into()));
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = ModelFs::new();
        let fd = fs.open("/f", 0o102, 0o644) as i32;
        assert_eq!(fs.write(fd, b"hello"), 5);
        assert_eq!(fs.lseek(fd, 0, 0), 0);
        assert_eq!(fs.read(fd, 10), (5, b"hello".to_vec()));
        assert_eq!(fs.close(fd), 0);
        assert_eq!(fs.file_contents("/f"), Some(b"hello".to_vec()));
    }

    #[test]
    fn open_error_paths() {
        let mut fs = ModelFs::new();
        assert_eq!(fs.open("/missing", 0, 0), -2);
        fs.mkdir("/d", 0o755);
        assert_eq!(fs.open("/d", 1, 0), -21);
        let fd = fs.open("/d/f", 0o101, 0o644);
        assert!(fd >= 0);
        assert_eq!(fs.open("/d/f", 0o301, 0o644), -17, "O_CREAT|O_EXCL");
        assert_eq!(fs.open("/d/f/x", 0o101, 0o644), -20, "file as parent");
        assert_eq!(fs.open("/d/f/x", 0, 0), -20, "ENOTDIR beats ENOENT");
        assert_eq!(fs.open("/no/parent", 0o101, 0o644), -2);
        assert_eq!(fs.open("/d/f", 3, 0), -22, "bad access mode");
        assert_eq!(fs.open("/d/f", 0o200000, 0), -20, "O_DIRECTORY on file");
    }

    #[test]
    fn unlinked_open_file_keeps_data() {
        let mut fs = ModelFs::new();
        let fd = fs.open("/f", 0o102, 0o644) as i32;
        fs.write(fd, b"alive");
        assert_eq!(fs.unlink("/f"), 0);
        assert_eq!(fs.lseek(fd, 0, 0), 0);
        assert_eq!(fs.read(fd, 8), (5, b"alive".to_vec()));
        assert_eq!(fs.write(fd, b"!"), 1);
        assert_eq!(fs.file_contents("/f"), None);
    }

    #[test]
    fn two_descriptors_share_contents() {
        let mut fs = ModelFs::new();
        let a = fs.open("/f", 0o102, 0o644) as i32;
        let b = fs.open("/f", 0o102, 0o644) as i32;
        fs.write(a, b"shared");
        assert_eq!(fs.read(b, 8), (6, b"shared".to_vec()));
    }

    #[test]
    fn append_and_truncate() {
        let mut fs = ModelFs::new();
        let fd = fs.open("/log", 0o102, 0o644) as i32;
        fs.write(fd, b"aaaa");
        fs.close(fd);
        let fd = fs.open("/log", 0o2001 /* O_WRONLY|O_APPEND */, 0) as i32;
        fs.lseek(fd, 0, 0);
        fs.write(fd, b"bb");
        assert_eq!(fs.file_contents("/log"), Some(b"aaaabb".to_vec()));
        assert_eq!(fs.truncate("/log", 3), 0);
        assert_eq!(fs.file_contents("/log"), Some(b"aaa".to_vec()));
        assert_eq!(fs.truncate("/log", -1), -22);
        assert_eq!(fs.truncate("/missing", 0), -2);
        let fd = fs.open("/log", 0o1 /* O_WRONLY */, 0) as i32;
        assert_eq!(fs.ftruncate(fd, 10), 0);
        assert_eq!(fs.file_contents("/log").unwrap().len(), 10);
        let rd = fs.open("/log", 0, 0) as i32;
        assert_eq!(fs.ftruncate(rd, 0), -22, "read-only fd");
    }

    #[test]
    fn namespace_operations() {
        let mut fs = ModelFs::new();
        assert_eq!(fs.mkdir("/a", 0o755), 0);
        assert_eq!(fs.mkdir("/a", 0o755), -17);
        assert_eq!(fs.mkdir("/x/y", 0o755), -2);
        assert_eq!(fs.mkdir("/a/b", 0o755), 0);
        assert_eq!(fs.rmdir("/a"), -39, "ENOTEMPTY");
        assert_eq!(fs.rmdir("/a/b"), 0);
        assert_eq!(fs.rmdir("/a"), 0);
        assert_eq!(fs.rmdir("/a"), -2);
        let fd = fs.open("/f", 0o101, 0o644);
        assert!(fd >= 0);
        assert_eq!(fs.rmdir("/f"), -20);
        assert_eq!(fs.unlink("/f"), 0);
        assert_eq!(fs.unlink("/f"), -2);
        fs.mkdir("/d2", 0o755);
        assert_eq!(fs.unlink("/d2"), -21);
    }

    #[test]
    fn open_returns_the_lowest_free_descriptor() {
        let mut fs = ModelFs::new();
        let fds: Vec<RawRet> = (0..3).map(|_| fs.open("/f", 0o102, 0o644)).collect();
        assert_eq!(fds, [3, 4, 5]);
        assert_eq!(fs.close(4), 0);
        assert_eq!(fs.close(3), 0);
        assert_eq!(fs.open("/f", 0, 0), 3, "lowest free first");
        assert_eq!(fs.open("/f", 0, 0), 4);
        assert_eq!(fs.open("/f", 0, 0), 6, "past the still-open 5");
    }

    #[test]
    fn descriptor_misuse() {
        let mut fs = ModelFs::new();
        assert_eq!(fs.close(42), -9);
        assert_eq!(fs.read(42, 1).0, -9);
        assert_eq!(fs.write(42, b"x"), -9);
        assert_eq!(fs.lseek(42, 0, 0), -9);
        let fd = fs.open("/f", 0o101, 0o644) as i32; // write-only
        assert_eq!(fs.read(fd, 1).0, -9);
        let rd = fs.open("/f", 0, 0) as i32;
        assert_eq!(fs.write(rd, b"x"), -9);
        assert_eq!(fs.lseek(rd, -1, 0), -22);
        assert_eq!(fs.lseek(rd, 0, 9), -22);
    }

    #[test]
    fn xattrs_on_files_and_dirs() {
        let mut fs = ModelFs::new();
        fs.open("/f", 0o101, 0o644);
        assert_eq!(fs.setxattr("/f", "user.k", b"abc"), 0);
        assert_eq!(fs.getxattr("/f", "user.k"), 3);
        assert_eq!(fs.getxattr("/f", "user.miss"), -61);
        assert_eq!(fs.setxattr("/missing", "user.k", b"v"), -2);
        fs.mkdir("/d", 0o755);
        assert_eq!(
            fs.setxattr("/d", "user.k", b"dv"),
            0,
            "dirs hold user xattrs"
        );
        assert_eq!(fs.getxattr("/d", "user.k"), 2);
    }

    #[test]
    fn paths_listing_is_sorted() {
        let mut fs = ModelFs::new();
        fs.mkdir("/b", 0o755);
        fs.mkdir("/a", 0o755);
        fs.open("/a/f", 0o101, 0o644);
        assert_eq!(
            fs.paths(),
            vec!["/a".to_owned(), "/a/f".to_owned(), "/b".to_owned()]
        );
    }
}
