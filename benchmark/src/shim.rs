//! Tracing wrappers around the index and storage interfaces.
//!
//! Each wrapper forwards every call unchanged to the value it wraps and,
//! while [`crate::trace`] records, opens one span around the call.  They
//! measure a layer from outside: a span covers a call into the layer's
//! public interface, including whatever the layer below does for it.

use std::io;
use std::ops::Bound;
use std::path::Path;

use bskip_index::{ConcurrentIndex, Cursor, IndexCursor, IndexKey, IndexStats, IndexValue, Op};
use bskip_lsm::{Storage, StorageFile};

use crate::trace::{self, Detached};

/// Span names of one traced index layer.
#[derive(Debug)]
pub struct Names {
    pub get: &'static str,
    pub insert: &'static str,
    pub remove: &'static str,
    pub execute: &'static str,
    pub scan: &'static str,
}

/// The B-skiplist driven directly by the in-process workload.
pub const CORE: Names = Names {
    get: "core.get",
    insert: "core.put",
    remove: "core.del",
    execute: "core.execute",
    scan: "core.scan",
};

/// The sharded front-end a server serves from.
pub const SHARDED: Names = Names {
    get: "sharded.get",
    insert: "sharded.put",
    remove: "sharded.del",
    execute: "sharded.execute",
    scan: "sharded.scan",
};

/// One shard behind the sharded front-end.
pub const SHARD: Names = Names {
    get: "shard.get",
    insert: "shard.put",
    remove: "shard.del",
    execute: "shard.execute",
    scan: "shard.scan",
};

/// A [`ConcurrentIndex`] that records a span around each call.
pub struct TracedIndex<I> {
    inner: I,
    names: &'static Names,
}

impl<I> TracedIndex<I> {
    pub fn new(inner: I, names: &'static Names) -> Self {
        TracedIndex { inner, names }
    }

    pub fn inner(&self) -> &I {
        &self.inner
    }
}

/// A cursor whose span lasts until it is dropped, so a scan's span covers
/// the iteration as well as the positioning.
struct TracedCursor<'a, K: IndexKey, V: IndexValue> {
    inner: Cursor<'a, K, V>,
    _span: Detached,
}

impl<K: IndexKey, V: IndexValue> IndexCursor<K, V> for TracedCursor<'_, K, V> {
    fn next(&mut self) -> Option<(K, V)> {
        self.inner.next()
    }
    fn prev(&mut self) -> Option<(K, V)> {
        self.inner.prev()
    }
    fn seek(&mut self, key: &K) -> Option<(K, V)> {
        self.inner.seek(key)
    }
    fn entry(&self) -> Option<(K, V)> {
        self.inner.entry()
    }
    fn supports_prev(&self) -> bool {
        self.inner.supports_prev()
    }
}

impl<K, V, I> ConcurrentIndex<K, V> for TracedIndex<I>
where
    K: IndexKey,
    V: IndexValue,
    I: ConcurrentIndex<K, V>,
{
    fn insert(&self, key: K, value: V) -> Option<V> {
        let _span = trace::open(self.names.insert, 0);
        self.inner.insert(key, value)
    }

    fn get(&self, key: &K) -> Option<V> {
        let _span = trace::open(self.names.get, 0);
        self.inner.get(key)
    }

    fn contains_key(&self, key: &K) -> bool {
        let _span = trace::open(self.names.get, 0);
        self.inner.contains_key(key)
    }

    fn execute(&self, ops: &mut [Op<K, V>]) {
        let _span = trace::open(self.names.execute, ops.len() as u64);
        self.inner.execute(ops)
    }

    fn remove(&self, key: &K) -> Option<V> {
        let _span = trace::open(self.names.remove, 0);
        self.inner.remove(key)
    }

    fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V> {
        let span = trace::open(self.names.scan, 0);
        let inner = self.inner.scan_bounds(lo, hi);
        if span.is_recording() {
            Cursor::new(TracedCursor {
                inner,
                _span: span.detach(),
            })
        } else {
            inner
        }
    }

    fn range(&self, start: &K, len: usize, visit: &mut dyn FnMut(&K, &V)) -> usize {
        let _span = trace::open(self.names.scan, 0);
        self.inner.range(start, len, visit)
    }

    fn try_reclaim(&self) -> usize {
        self.inner.try_reclaim()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn stats(&self) -> IndexStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// What a storage file holds, judged from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Wal,
    Table,
    Other,
}

impl FileKind {
    pub fn of(path: &Path) -> Self {
        match path.extension().and_then(|ext| ext.to_str()) {
            Some("log") => FileKind::Wal,
            Some("sst") => FileKind::Table,
            _ => FileKind::Other,
        }
    }
}

/// Span names of storage calls, by file kind and call.
pub mod fs {
    pub const READ: [&str; 3] = ["fs.wal.read", "fs.table.read", "fs.other.read"];
    pub const APPEND: [&str; 3] = ["fs.wal.append", "fs.table.append", "fs.other.append"];
    pub const SYNC: [&str; 3] = ["fs.wal.sync", "fs.table.sync", "fs.other.sync"];
    pub const OPEN: [&str; 3] = ["fs.wal.open", "fs.table.open", "fs.other.open"];
    pub const META: &str = "fs.meta";
}

/// A [`Storage`] that records a span around each call and hands out
/// [`StorageFile`]s that do the same.
pub struct TracedStorage<S> {
    inner: S,
}

impl<S> TracedStorage<S> {
    pub fn new(inner: S) -> Self {
        TracedStorage { inner }
    }
}

struct TracedFile {
    inner: Box<dyn StorageFile>,
    kind: usize,
}

impl TracedFile {
    fn wrap(inner: Box<dyn StorageFile>, path: &Path) -> Box<dyn StorageFile> {
        Box::new(TracedFile {
            inner,
            kind: FileKind::of(path) as usize,
        })
    }
}

impl StorageFile for TracedFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let _span = trace::open(fs::APPEND[self.kind], data.len() as u64);
        self.inner.append(data)
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let _span = trace::open(fs::READ[self.kind], buf.len() as u64);
        self.inner.read_at(buf, offset)
    }

    fn sync_data(&self) -> io::Result<()> {
        let _span = trace::open(fs::SYNC[self.kind], 0);
        self.inner.sync_data()
    }

    fn sync_all(&self) -> io::Result<()> {
        let _span = trace::open(fs::SYNC[self.kind], 0);
        self.inner.sync_all()
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl<S: Storage> Storage for TracedStorage<S> {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let _span = trace::open(fs::OPEN[FileKind::of(path) as usize], 0);
        Ok(TracedFile::wrap(self.inner.create(path)?, path))
    }

    fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn StorageFile>> {
        let _span = trace::open(fs::OPEN[FileKind::of(path) as usize], 0);
        Ok(TracedFile::wrap(
            self.inner.open_append(path, valid_len)?,
            path,
        ))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let _span = trace::open(fs::OPEN[FileKind::of(path) as usize], 0);
        Ok(TracedFile::wrap(self.inner.open_read(path)?, path))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut span = trace::open(fs::READ[FileKind::of(path) as usize], 0);
        let data = self.inner.read(path)?;
        span.set_bytes(data.len() as u64);
        Ok(data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let _span = trace::open(fs::META, 0);
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let _span = trace::open(fs::META, 0);
        self.inner.remove(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let _span = trace::open(fs::META, 0);
        self.inner.read_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let _span = trace::open(fs::META, 0);
        self.inner.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let _span = trace::open(fs::SYNC[FileKind::Other as usize], 0);
        self.inner.sync_dir(dir)
    }
}
