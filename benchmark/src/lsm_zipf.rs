//! `lsm-zipf`: the LSM engine over the real filesystem, with zipfian reads
//! and uniform writes from one client thread.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bskip_index::{ConcurrentIndex, Op};
use bskip_lsm::{LsmConfig, LsmEngine, StdFs};
use bskip_ycsb::keygen::{record_key, ZipfianGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::run::{
    pick, put_state, value_of, Args, Oracle, Recorder, Report, Tails, DEL, GET, KINDS, PRESENT,
    PUT, SCAN, SCAN_LEN,
};
use crate::shim::{fs, FileKind, TracedStorage};
use crate::stats::{median, Histogram, Outcomes};
use crate::trace::{self, Span};
use crate::{sys, trace::NO_PARENT};

const PRELOAD: u64 = 2_000_000;
/// get 45%, put 35%, del 15%, scan 5%.
const MIX: [u64; 3] = [45, 80, 95];
const BATCH: usize = 64;
const REOPENS: usize = 3;
/// Windows of the timed loop (see [`Recorder`]).
const WINDOWS: usize = 5;
/// Smallest memtable charge per entry (a tombstone: 8-byte key plus the
/// memtable's 24-byte overhead), so `memtable_bytes / 32` bounds its
/// entry count from above.
const MIN_ENTRY_CHARGE: u64 = 32;
/// The memtable may hold at most this share of the live keys after the
/// preload, or reads would not reach the tables.
const MAX_MEMTABLE_SHARE: f64 = 0.1;

type Engine = LsmEngine<u64, u64>;

fn open(dir: &Path) -> Result<Engine, String> {
    // `LsmConfig::default()`: 4 MiB memtable, `SyncPolicy::Never`.
    LsmEngine::open_with(
        Arc::new(TracedStorage::new(StdFs)),
        dir,
        LsmConfig::default(),
    )
    .map_err(|err| format!("opening {}: {err}", dir.display()))
}

/// Preloads every record through 64-op group-commit batches.
fn preload(engine: &Engine, records: u64) -> Outcomes {
    let mut outcomes = Outcomes::default();
    let mut ops = Vec::with_capacity(BATCH);
    let mut next = 0;
    while next < records {
        ops.clear();
        let end = (next + BATCH as u64).min(records);
        ops.extend((next..end).map(|i| Op::insert(record_key(i), value_of(record_key(i), 0))));
        next = end;
        match engine.try_execute(&mut ops) {
            Ok(()) => ops.iter().for_each(|op| {
                outcomes.note(op.result().is_executed() && op.result().value().is_none())
            }),
            Err(_) => ops.iter().for_each(|_| outcomes.note(false)),
        }
    }
    outcomes
}

fn bytes_on_disk(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn stat(engine: &Engine, name: &str) -> u64 {
    engine.stats().get(name).unwrap_or(0)
}

/// The preload must leave a workload whose reads go below the memtable.
fn check_shape(engine: &Engine, report: &mut Report) -> Result<(), String> {
    let levels = engine.tables_per_level();
    let compactions = stat(engine, "compactions");
    let live = engine.len() as f64;
    let memtable_share = (stat(engine, "memtable_bytes") / MIN_ENTRY_CHARGE) as f64 / live;
    report.note(format!(
        "preloaded tables per level {levels:?}, {compactions} compactions, memtable <= {:.1}% of keys",
        memtable_share * 100.0
    ));
    let occupied = levels.iter().filter(|&&tables| tables > 0).count();
    if compactions == 0 || occupied < 2 || memtable_share > MAX_MEMTABLE_SHARE {
        return Err(format!(
            "precondition: after the preload the LSM needs a compaction, tables on two levels and \
             at most {MAX_MEMTABLE_SHARE} of the keys in the memtable; got {compactions} compactions, \
             levels {levels:?}, memtable share {memtable_share:.3}"
        ));
    }
    Ok(())
}

struct Client<'a> {
    engine: &'a Engine,
    oracle: Oracle,
    zipf: &'a ZipfianGenerator,
    records: u64,
    rng: SmallRng,
    outcomes: Outcomes,
    entries: Vec<(u64, u64)>,
}

const SPAN_NAMES: [&str; 4] = ["lsm.get", "lsm.put", "lsm.del", "lsm.scan"];

impl Client<'_> {
    fn op(&mut self, kind: usize, index: u64) {
        let key = record_key(index);
        let _span = trace::open(SPAN_NAMES[kind], 0);
        let ok = match kind {
            GET => self
                .engine
                .try_get(&key)
                .is_ok_and(|found| found == self.oracle.get(index)),
            PUT => {
                let before = self.oracle.get(index);
                let value = put_state(&mut self.oracle.states[index as usize], key);
                self.engine
                    .try_insert(key, value)
                    .is_ok_and(|found| found == before)
            }
            DEL => {
                let before = self.oracle.get(index);
                self.oracle.states[index as usize] &= !PRESENT;
                self.engine
                    .try_remove(&key)
                    .is_ok_and(|found| found == before)
            }
            _ => {
                let errors = self.engine.io_errors();
                self.entries.clear();
                self.entries.extend(
                    self.engine
                        .scan_bounds(Bound::Included(key), Bound::Unbounded)
                        .take(SCAN_LEN),
                );
                self.engine.io_errors() == errors
                    && self
                        .entries
                        .iter()
                        .copied()
                        .eq(self.oracle.scan(key, SCAN_LEN))
            }
        };
        self.outcomes.note(ok);
    }

    /// The closed loop; samples bytes on disk at each window's end.
    fn run(&mut self, recorder: &mut Recorder, dir: &Path, traced: bool) -> Vec<u64> {
        let mut disk = Vec::new();
        let mut current = 0;
        let mut count = 0u64;
        loop {
            let kind = pick(self.rng.gen(), MIX);
            let index = match kind {
                GET | SCAN => self.zipf.next_scrambled(&mut self.rng),
                _ => self.rng.gen_range(0..self.records),
            };
            count += 1;
            if traced {
                trace::set_request(count);
            }
            let start = trace::now_ns();
            self.op(kind, index);
            let end = trace::now_ns();
            let window = recorder.window(end);
            if window != Some(current) {
                disk.push(bytes_on_disk(dir));
                current += 1;
            }
            match window {
                Some(window) => recorder.record(window, kind, end - start),
                None => break,
            }
        }
        trace::set_request(0);
        disk
    }
}

/// The engine's directory, removed when the run ends however it ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let dir = crate::out_dir().join(format!("lsm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Reopens the engine `REOPENS` times after an unflushed drop and returns
/// the reopen times and the last engine.
fn reopen(dir: &Path) -> Result<(Vec<f64>, Engine), String> {
    let mut times = Vec::new();
    let mut engine = None;
    for _ in 0..REOPENS {
        drop(engine.take());
        let started = trace::now_ns();
        engine = Some(open(dir)?);
        times.push((trace::now_ns() - started) as f64 / 1e9);
    }
    Ok((times, engine.expect("reopened at least once")))
}

/// The whole acknowledged state, read back through one scan.
fn verify_all(engine: &Engine, oracle: &Oracle) -> Outcomes {
    let mut outcomes = Outcomes::default();
    let errors = engine.io_errors();
    let mut found = engine.scan_bounds(Bound::Unbounded, Bound::Unbounded);
    let mut wanted = oracle.scan(0, usize::MAX);
    loop {
        match (found.next(), wanted.next()) {
            (None, None) => break,
            (found, wanted) => outcomes.note(found == wanted),
        }
    }
    outcomes.note(engine.io_errors() == errors);
    outcomes
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let records = PRELOAD;
    let zipf = ZipfianGenerator::new(records);
    let scratch = ScratchDir::new();
    let dir = scratch.0.as_path();
    let started = trace::now_ns();
    let engine = open(dir)?;
    report.outcomes.add(preload(&engine, records));
    let setup_s = (trace::now_ns() - started) as f64 / 1e9;
    check_shape(&engine, report)?;

    let mut client = Client {
        engine: &engine,
        oracle: Oracle::new(vec![PRESENT; records as usize]),
        zipf: &zipf,
        records,
        rng: SmallRng::seed_from_u64(args.input_seed()),
        outcomes: Outcomes::default(),
        entries: Vec::with_capacity(SCAN_LEN),
    };
    if let Some(cpu) = sys::nth_cpu(&sys::allowed_cpus(), 0) {
        sys::pin_to(cpu);
    }
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut recorder = Recorder::new(trace::now_ns(), seconds, WINDOWS);
    let disk = client.run(&mut recorder, dir, false);

    if !args.trace {
        let live = client.oracle.live() as f64 * 16.0;
        let amps: Vec<f64> = disk.iter().map(|&bytes| bytes as f64 / live).collect();
        recorder.summarize(report, Tails::Pooled)?;
        report.metric("setup_s", setup_s, "s", None);
        report.metric("rss_mb", sys::peak_rss_bytes() as f64 / 1e6, "MB", None);
        report.metric("space_amp", median(&amps), "ratio", None);
        let outcomes = client.outcomes;
        let oracle = client.oracle;
        drop(engine);
        let (reopens, engine) = reopen(dir)?;
        report.note(format!("reopen seconds {reopens:?}"));
        report.outcomes.add(outcomes);
        report.outcomes.add(verify_all(&engine, &oracle));
        return Ok(());
    }

    // Traced half: every request traced, the engine's calls timed by the
    // client and its storage calls by the storage wrapper.
    let flushes = stat(&engine, "sst_flushes");
    let compactions = stat(&engine, "compactions");
    trace::take();
    trace::set_enabled(true);
    let mut traced = Recorder::new(trace::now_ns(), seconds, WINDOWS);
    client.run(&mut traced, dir, true);
    trace::set_enabled(false);
    let run_spans = trace::take();
    let flushes = stat(&engine, "sst_flushes") - flushes;
    let compactions = stat(&engine, "compactions") - compactions;
    let outcomes = client.outcomes;
    let oracle = client.oracle;
    drop(engine);

    trace::set_enabled(true);
    trace::set_request(u64::MAX);
    let reopened = reopen(dir);
    trace::set_request(0);
    trace::set_enabled(false);
    let (reopens, engine) = reopened?;
    let reopen_spans = trace::take();
    report.outcomes.add(outcomes);
    report.outcomes.add(verify_all(&engine, &oracle));
    drop(engine);

    layer_metrics(report, &run_spans, flushes, compactions);
    let reopen_read: u64 = reopen_spans
        .iter()
        .flatten()
        .filter(|span| fs::READ.contains(&span.name))
        .map(|span| span.bytes)
        .sum();
    report.metric(
        "lsm.reopen_s",
        median(&reopens),
        "s",
        Some(reopens.len() as u64),
    );
    report.metric(
        "lsm.reopen_read_bytes",
        (reopen_read / REOPENS as u64) as f64,
        "bytes",
        None,
    );
    crate::report_overhead(report, &recorder, &traced);
    let mut all = run_spans;
    all.extend(reopen_spans);
    crate::write_spans(&args.workload, &all);
    Ok(())
}

/// Per-layer metrics of the engine from the traced half's spans.
fn layer_metrics(report: &mut Report, threads: &[Vec<Span>], flushes: u64, compactions: u64) {
    let is_read = |span: &Span| fs::READ.contains(&span.name);
    let mut latency: BTreeMap<&str, Histogram> = BTreeMap::new();
    let mut get_cpu = Histogram::default();
    // Per engine call kind: calls, storage reads and bytes read.
    let mut reads: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let (mut appended, mut wal_appended, mut table_write_ns) = (0u64, 0u64, 0u64);
    for spans in threads {
        let children = trace::children(spans);
        for (span, children) in spans.iter().zip(&children) {
            if fs::APPEND.contains(&span.name) {
                appended += span.bytes;
            }
            if span.name == fs::APPEND[FileKind::Wal as usize] {
                wal_appended += span.bytes;
            }
            let table = FileKind::Table as usize;
            if [fs::APPEND[table], fs::SYNC[table], fs::OPEN[table]].contains(&span.name) {
                table_write_ns += span.duration();
            }
            if span.parent != NO_PARENT || !SPAN_NAMES.contains(&span.name) {
                continue;
            }
            latency
                .entry(span.name)
                .or_default()
                .record(span.duration());
            let inner: Vec<&Span> = children.iter().map(|&c| &spans[c as usize]).collect();
            if span.name == "lsm.get" {
                let covered: Vec<(u64, u64)> = inner.iter().map(|c| (c.start, c.end)).collect();
                get_cpu.record(trace::self_time((span.start, span.end), &covered));
            }
            // A write that also ran a flush or compaction reads tables for
            // that; only the lookup before the write is counted here.
            let maintained = inner.iter().any(|c| c.name == fs::APPEND[table]);
            if !maintained {
                let entry = reads.entry(span.name).or_default();
                entry.0 += 1;
                for child in inner.iter().filter(|c| is_read(c)) {
                    entry.1 += 1;
                    entry.2 += child.bytes;
                }
            }
        }
    }
    for (kind, name) in KINDS.iter().enumerate() {
        let p50 = latency
            .get(SPAN_NAMES[kind])
            .map_or(0.0, |h| h.quantile(0.5));
        report.metric(&format!("lsm.{name}_ns"), p50, "ns", None);
    }
    report.metric(
        "lsm.get_cpu_ns",
        get_cpu.quantile(0.5),
        "ns",
        Some(get_cpu.len()),
    );
    let per = |name: &str, pick: fn(&(u64, u64, u64)) -> u64| {
        reads.get(name).map_or(0.0, |r| {
            if r.0 == 0 {
                0.0
            } else {
                pick(r) as f64 / r.0 as f64
            }
        })
    };
    report.metric("lsm.reads_per_get", per("lsm.get", |r| r.1), "count", None);
    report.metric(
        "lsm.read_bytes_per_get",
        per("lsm.get", |r| r.2),
        "bytes",
        None,
    );
    report.metric("lsm.reads_per_put", per("lsm.put", |r| r.1), "count", None);
    report.metric(
        "lsm.reads_per_scan",
        per("lsm.scan", |r| r.1),
        "count",
        None,
    );
    let write_amp = if wal_appended == 0 {
        0.0
    } else {
        appended as f64 / wal_appended as f64
    };
    report.metric("lsm.write_amp", write_amp, "ratio", None);
    report.metric("lsm.maint_write_s", table_write_ns as f64 / 1e9, "s", None);
    report.metric("lsm.flushes", flushes as f64, "count", None);
    report.metric("lsm.compactions", compactions as f64, "count", None);
}
