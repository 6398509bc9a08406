//! In-memory span recorder.
//!
//! A span is a named interval on one thread with a parent (the span that
//! was open on the same thread when it started) and a request id shared
//! by every span one request causes, on whichever thread.  Spans are kept
//! in per-thread buffers while the run goes on and are taken out, written
//! and analysed after it ends.
//!
//! Recording is off unless [`set_enabled`] turned it on, and a span is
//! recorded only while the current thread works for a sampled request
//! (a non-zero id from [`set_request`], or else from
//! [`set_shared_request`] for server threads that cannot see the client's
//! id).  With recording off a traced call costs one relaxed load.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// `parent` of a span that started with no other span open.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's clock started.
    pub start: u64,
    /// `0` while the span is still open.
    pub end: u64,
    /// Index of the parent span in the same thread's buffer.
    pub parent: u32,
    pub request: u64,
    /// Bytes the traced call moved, where that applies.
    pub bytes: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SHARED_REQUEST: AtomicU64 = AtomicU64::new(0);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

struct Local {
    buffer: Buffer,
    /// Indices of the spans open on this thread, innermost last.
    open: Vec<u32>,
}

thread_local! {
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// The request the current thread works for; `0` for an unsampled one.
pub fn set_request(id: u64) {
    REQUEST.with(|request| request.set(id));
}

/// The request every thread without its own id works for.
pub fn set_shared_request(id: u64) {
    SHARED_REQUEST.store(id, Ordering::Relaxed);
}

fn lock<T>(buffer: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    buffer.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An open span; closing it (by drop) records its end and pops it.
#[must_use]
pub struct Open(Option<u32>);

/// A span that is no longer the innermost one on its thread but has not
/// ended: a cursor's span, which lives until the cursor is dropped.
pub struct Detached(Option<u32>);

/// Opens a span named `name` if recording is on and the thread works for
/// a sampled request.
pub fn open(name: &'static str, bytes: u64) -> Open {
    if !ENABLED.load(Ordering::Relaxed) {
        return Open(None);
    }
    let mut request = REQUEST.with(Cell::get);
    if request == 0 {
        request = SHARED_REQUEST.load(Ordering::Relaxed);
    }
    if request == 0 {
        return Open(None);
    }
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let local = local.get_or_insert_with(|| {
            let buffer = Buffer::default();
            lock(&BUFFERS).push(Arc::clone(&buffer));
            Local {
                buffer,
                open: Vec::new(),
            }
        });
        let mut spans = lock(&local.buffer);
        let index = spans.len() as u32;
        spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent: local.open.last().copied().unwrap_or(NO_PARENT),
            request,
            bytes,
        });
        local.open.push(index);
        Open(Some(index))
    })
}

fn end(index: u32) {
    let now = now_ns();
    LOCAL.with(|local| {
        if let Some(local) = local.borrow().as_ref() {
            if let Some(span) = lock(&local.buffer).get_mut(index as usize) {
                span.end = now;
            }
        }
    });
}

fn pop(index: u32) {
    LOCAL.with(|local| {
        if let Some(local) = local.borrow_mut().as_mut() {
            if local.open.last() == Some(&index) {
                local.open.pop();
            }
        }
    });
}

impl Open {
    /// Whether this span is being recorded.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Sets the bytes the traced call moved, once it knows them.
    pub fn set_bytes(&mut self, bytes: u64) {
        if let Some(index) = self.0 {
            LOCAL.with(|local| {
                if let Some(local) = local.borrow().as_ref() {
                    if let Some(span) = lock(&local.buffer).get_mut(index as usize) {
                        span.bytes = bytes;
                    }
                }
            });
        }
    }

    /// Stops this span from parenting later ones without ending it.
    pub fn detach(mut self) -> Detached {
        let index = self.0.take();
        if let Some(index) = index {
            pop(index);
        }
        Detached(index)
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            end(index);
            pop(index);
        }
    }
}

impl Drop for Detached {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            end(index);
        }
    }
}

/// Takes every span recorded so far, one vector per thread.  Call with no
/// span open.
pub fn take() -> Vec<Vec<Span>> {
    lock(&BUFFERS)
        .iter()
        .map(|buffer| std::mem::take(&mut *lock(buffer)))
        .filter(|spans| !spans.is_empty())
        .collect()
}

/// Writes spans as tab-separated lines:
/// `thread index name start end parent request bytes`.
pub fn write_tsv(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "thread\tindex\tname\tstart_ns\tend_ns\tparent\trequest\tbytes"
    )?;
    for (thread, spans) in threads.iter().enumerate() {
        for (index, span) in spans.iter().enumerate() {
            let parent = match span.parent {
                NO_PARENT => -1,
                parent => i64::from(parent),
            };
            writeln!(
                out,
                "{thread}\t{index}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                span.name, span.start, span.end, span.request, span.bytes
            )?;
        }
    }
    out.flush()
}

/// For each span of one thread, the indices of its children.
pub fn children(spans: &[Span]) -> Vec<Vec<u32>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (index, span) in spans.iter().enumerate() {
        if span.parent != NO_PARENT {
            children[span.parent as usize].push(index as u32);
        }
    }
    children
}

/// Self time of the interval `parent`: its length minus the part of it
/// that the `inner` intervals cover.  Inner intervals may overlap each
/// other and stick out of the parent; each covered nanosecond counts once.
pub fn self_time(parent: (u64, u64), inner: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = inner
        .iter()
        .map(|&(start, end)| (start.max(lo), end.min(hi)))
        .filter(|(start, end)| start < end)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (start, end) in clipped {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    hi.saturating_sub(lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 40)]), 80);
        // Overlapping children count their union once.
        assert_eq!(self_time((0, 100), &[(10, 50), (20, 30), (40, 60)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 200)]), 70);
        // A child nested in another, listed first, and a duplicate.
        assert_eq!(self_time((0, 10), &[(2, 8), (0, 10), (0, 10)]), 0);
        // Children outside the parent do not count.
        assert_eq!(self_time((50, 60), &[(0, 10), (70, 80)]), 10);
    }

    #[test]
    fn spans_record_parents_and_requests_only_when_sampled() {
        // Runs on its own thread so its buffer holds nothing else.
        std::thread::spawn(|| {
            set_enabled(true);
            set_request(0);
            drop(open("unsampled", 0));
            set_request(7);
            let outer = open("outer", 0);
            let inner = open("inner", 3).detach();
            let sibling = open("sibling", 0);
            drop(sibling);
            drop(inner);
            drop(outer);
            let spans = LOCAL.with(|local| lock(&local.borrow().as_ref().unwrap().buffer).clone());
            let names: Vec<_> = spans.iter().map(|span| span.name).collect();
            assert_eq!(names, ["outer", "inner", "sibling"]);
            assert_eq!(spans[0].parent, NO_PARENT);
            assert_eq!(spans[1].parent, 0);
            // The detached span no longer parents later ones.
            assert_eq!(spans[2].parent, 0);
            assert!(spans
                .iter()
                .all(|span| span.request == 7 && span.end >= span.start));
            assert_eq!(spans[1].bytes, 3);
            assert_eq!(children(&spans), vec![vec![1, 2], vec![], vec![]]);
        })
        .join()
        .unwrap();
    }
}
