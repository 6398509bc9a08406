//! Differential tests: each tracing wrapper, recording or not, answers
//! every call exactly as the bare value it wraps.

use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bskip_core::BSkipList;
use bskip_index::{ConcurrentIndex, Op, ShardedIndex};
use bskip_lsm::{FaultFs, LsmConfig, LsmEngine, Storage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::shim::{TracedIndex, TracedStorage, CORE, SHARD, SHARDED};
use crate::trace;

/// Every `ConcurrentIndex` call, rendered so two indices can be compared.
fn index_calls<I: ConcurrentIndex<u64, u64>>(index: &I, seed: u64) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut log = Vec::new();
    for step in 0..3000u64 {
        let key = rng.gen_range(0..500u64);
        let line = match rng.gen_range(0..9u32) {
            0 => format!("insert {:?}", index.insert(key, step)),
            1 => format!("get {:?}", index.get(&key)),
            2 => format!("contains {:?}", index.contains_key(&key)),
            3 => format!("remove {:?}", index.remove(&key)),
            4 => {
                let mut ops = vec![
                    Op::insert(key, step),
                    Op::get(key + 1),
                    Op::remove(key + 2),
                    Op::update(key, step + 1),
                ];
                index.execute(&mut ops);
                format!(
                    "execute {:?}",
                    ops.iter().map(|op| op.result().value()).collect::<Vec<_>>()
                )
            }
            5 => {
                let mut cursor = index.scan_bounds(Bound::Included(key), Bound::Excluded(key + 40));
                let forward: Vec<_> = cursor.by_ref().take(5).collect();
                let sought = cursor.seek(&(key + 20));
                let back = cursor.prev();
                format!(
                    "scan {forward:?} {sought:?} {back:?} {:?} {:?}",
                    cursor.entry(),
                    cursor.supports_prev()
                )
            }
            6 => {
                let mut seen = Vec::new();
                let visited = index.range(&key, 7, &mut |k, v| seen.push((*k, *v)));
                format!("range {visited} {seen:?}")
            }
            7 => format!(
                "len {} {} {}",
                index.len(),
                index.is_empty(),
                index.degraded()
            ),
            _ => format!(
                "name {} {}",
                index.name(),
                index.try_reclaim() > usize::MAX / 2
            ),
        };
        log.push(line);
    }
    log
}

fn with_recording<T>(recording: bool, f: impl FnOnce() -> T) -> T {
    // Spans are recorded for the current thread's request only.
    trace::set_enabled(true);
    trace::set_request(u64::from(recording));
    let out = f();
    trace::set_request(0);
    out
}

#[test]
fn traced_index_answers_like_the_bare_index() {
    for recording in [false, true] {
        let bare = index_calls(&BSkipList::<u64, u64>::new(), 11);
        let traced = with_recording(recording, || {
            index_calls(&TracedIndex::new(BSkipList::<u64, u64>::new(), &CORE), 11)
        });
        assert_eq!(bare, traced, "recording={recording}");

        let sharded = |traced: bool| {
            let index = ShardedIndex::hash(2, |_| {
                TracedIndex::new(BSkipList::<u64, u64>::new(), &SHARD)
            });
            if traced {
                index_calls(&TracedIndex::new(index, &SHARDED), 12)
            } else {
                index_calls(&index, 12)
            }
        };
        assert_eq!(sharded(false), with_recording(recording, || sharded(true)));
    }
}

#[test]
fn traced_index_records_nested_spans() {
    std::thread::spawn(|| {
        let index = TracedIndex::new(
            ShardedIndex::hash(2, |_| {
                TracedIndex::new(BSkipList::<u64, u64>::new(), &SHARD)
            }),
            &SHARDED,
        );
        // A request id of its own: tests running alongside record too.
        trace::set_enabled(true);
        trace::set_request(999);
        {
            let mut ops: Vec<Op<u64, u64>> = (0..10).map(|k| Op::insert(k, k)).collect();
            index.execute(&mut ops);
            assert_eq!(
                index
                    .scan_bounds(Bound::Unbounded, Bound::Unbounded)
                    .count(),
                10
            );
        }
        trace::set_request(0);
        let spans = trace::take()
            .into_iter()
            .find(|spans| spans[0].request == 999)
            .unwrap();
        let execute = spans
            .iter()
            .position(|s| s.name == "sharded.execute")
            .unwrap();
        let scan = spans.iter().position(|s| s.name == "sharded.scan").unwrap();
        for (name, parent) in [("shard.execute", execute), ("shard.scan", scan)] {
            let children: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
            assert_eq!(children.len(), 2, "{name}");
            assert!(children
                .iter()
                .all(|s| s.parent as usize == parent && s.end >= s.start));
        }
        // The scan's span lasts until its cursor is dropped.
        assert!(spans[scan].end > 0);
    })
    .join()
    .unwrap();
}

/// Every `Storage` and `StorageFile` call, rendered for comparison.
fn storage_calls(storage: &dyn Storage, root: &Path) -> Vec<String> {
    let mut log = Vec::new();
    let path = |name: &str| root.join(name);
    let show = |result: std::io::Result<String>| match result {
        Ok(text) => text,
        Err(err) => format!("err {:?}", err.kind()),
    };
    log.push(show(storage.create_dir_all(root).map(|()| "mkdir".into())));
    for name in ["wal-00000001.log", "tab-00000001.sst", "MANIFEST"] {
        log.push(show((|| {
            let mut file = storage.create(&path(name))?;
            file.append(b"hello ")?;
            file.append(name.as_bytes())?;
            file.sync_data()?;
            file.sync_all()?;
            let mut buf = [0u8; 4];
            file.read_at(&mut buf, 2)?;
            Ok(format!("{name} {:?} {}", buf, file.len()?))
        })()));
        log.push(show(
            storage.read(&path(name)).map(|data| format!("{data:?}")),
        ));
    }
    log.push(show((|| {
        let mut file = storage.open_append(&path("wal-00000001.log"), 3)?;
        file.append(b"XY")?;
        let reader = storage.open_read(&path("wal-00000001.log"))?;
        let mut buf = [0u8; 5];
        reader.read_at(&mut buf, 0)?;
        Ok(format!("{buf:?} {}", reader.len()?))
    })()));
    let mut short = [0u8; 64];
    log.push(show(
        storage
            .open_read(&path("MANIFEST"))
            .and_then(|f| f.read_at(&mut short, 0))
            .map(|()| "read".into()),
    ));
    log.push(show(
        storage
            .rename(&path("MANIFEST"), &path("MANIFEST.old"))
            .map(|()| "rename".into()),
    ));
    log.push(show(
        storage
            .remove(&path("tab-00000001.sst"))
            .map(|()| "remove".into()),
    ));
    log.push(show(
        storage.remove(&path("missing")).map(|()| "remove".into()),
    ));
    log.push(show(
        storage.open_read(&path("missing")).map(|_| "open".into()),
    ));
    log.push(show(storage.read_dir(root).map(|mut names| {
        names.sort();
        format!("{names:?}")
    })));
    log.push(show(storage.sync_dir(root).map(|()| "syncdir".into())));
    log
}

#[test]
fn traced_storage_answers_like_the_bare_storage() {
    for recording in [false, true] {
        let root = PathBuf::from("/db");
        let bare = storage_calls(&FaultFs::new(), &root);
        let traced = with_recording(recording, || {
            storage_calls(&TracedStorage::new(FaultFs::new()), &root)
        });
        assert_eq!(bare, traced, "recording={recording}");
        assert!(
            bare.iter().any(|line| line.starts_with("err")),
            "errors are compared too"
        );
    }
}

#[test]
fn an_engine_over_traced_storage_matches_one_over_bare_storage() {
    let run = |storage: Arc<dyn Storage>| {
        let engine: LsmEngine<u64, u64> =
            LsmEngine::open_with(Arc::clone(&storage), "/db", LsmConfig::small()).unwrap();
        let mut log = index_calls(&engine, 13);
        log.push(format!("{:?}", engine.tables_per_level()));
        drop(engine);
        let engine: LsmEngine<u64, u64> =
            LsmEngine::open_with(storage, "/db", LsmConfig::small()).unwrap();
        log.push(format!(
            "{:?}",
            engine
                .scan_bounds(Bound::Unbounded, Bound::Unbounded)
                .collect::<Vec<_>>()
        ));
        log
    };
    let bare = run(Arc::new(FaultFs::new()));
    let traced = with_recording(true, || run(Arc::new(TracedStorage::new(FaultFs::new()))));
    assert_eq!(bare, traced);
}
