//! `mem-uniform`: the B-skiplist in process, larger than the L3 cache,
//! under a uniform 75/10/10/5 get/put/del/scan mix from two threads.

use std::ops::Bound;

use bskip_core::{BSkipConfig, BSkipList};
use bskip_index::{ConcurrentIndex, Op};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::run::{
    expected, pick, put_state, version_of, Args, Permutation, Recorder, Report, Tails, DEL, GET,
    PUT, SCAN_LEN,
};
use crate::shim::{TracedIndex, CORE};
use crate::stats::{Histogram, Outcomes};
use crate::{sys, trace};

/// Keys preloaded; the key space holds twice as many, so equal put and
/// delete rates keep half of it live.
const PRELOAD: u64 = 8_000_000;
const THREADS: u64 = 2;
const MIX: [u64; 3] = [75, 85, 95];
/// One request in this many is traced.
const TRACE_EVERY: u64 = 8;
/// Windows of the timed loop (see [`Recorder`]).
const WINDOWS: usize = 10;
/// Seconds the loop runs untimed after the preload.
const WARMUP_S: f64 = 3.0;
const PRELOAD_BATCH: usize = 4096;

type List = TracedIndex<BSkipList<u64, u64>>;

/// The key space: slot `s` holds key `s << 16 | h(s)`, so keys are
/// hashed in their low bits but keep slot order.  Thread `t` owns the
/// slots `s ≡ t (mod THREADS)`, interleaved in key order with the other
/// thread's, so the threads share leaves and locks.
struct Space {
    slots: u64,
    preload: u64,
    order: Permutation,
}

impl Space {
    fn new(preload: u64, seed: u64) -> Self {
        Space {
            slots: 2 * preload,
            preload,
            order: Permutation::new(2 * preload, seed),
        }
    }

    fn key(slot: u64) -> u64 {
        slot << 16 | (bskip_ycsb::keygen::fnv_like_hash(slot) & 0xFFFF)
    }

    fn slot(key: u64) -> Option<u64> {
        let slot = key >> 16;
        (Space::key(slot) == key).then_some(slot)
    }

    /// The `i`-th preloaded slot, in insertion order.
    fn preloaded(&self, i: u64) -> u64 {
        self.order.apply(i)
    }

    /// One thread's oracle: a state byte per owned slot.
    fn oracle(&self, thread: u64) -> Vec<u8> {
        let mut states = vec![0u8; (self.slots / THREADS) as usize];
        for i in 0..self.preload {
            let slot = self.preloaded(i);
            if slot % THREADS == thread {
                states[(slot / THREADS) as usize] = crate::run::PRESENT;
            }
        }
        states
    }
}

/// Builds the preloaded list with two inserting threads.
fn build(space: &Space, collect_stats: bool) -> List {
    let list = TracedIndex::new(
        BSkipList::with_config(BSkipConfig::paper_default().with_stats(collect_stats)),
        &CORE,
    );
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let list = &list;
            scope.spawn(move || {
                let mut ops = Vec::with_capacity(PRELOAD_BATCH);
                let mut i = thread;
                while i < space.preload {
                    let key = Space::key(space.preloaded(i));
                    ops.push(Op::insert(key, crate::run::value_of(key, 0)));
                    if ops.len() == PRELOAD_BATCH {
                        list.execute(&mut ops);
                        ops.clear();
                    }
                    i += THREADS;
                }
                list.execute(&mut ops);
            });
        }
    });
    list
}

struct Worker<'a> {
    thread: u64,
    list: &'a List,
    space: &'a Space,
    states: &'a mut [u8],
    rng: SmallRng,
    outcomes: Outcomes,
    entries: Vec<(u64, u64)>,
}

impl Worker<'_> {
    fn state(&mut self, slot: u64) -> &mut u8 {
        &mut self.states[(slot / THREADS) as usize]
    }

    fn op(&mut self, kind: usize, slot: u64) {
        let key = Space::key(slot);
        let ok = match kind {
            GET => self.list.get(&key) == expected(*self.state(slot), key),
            PUT => {
                let before = expected(*self.state(slot), key);
                let value = put_state(self.state(slot), key);
                self.list.insert(key, value) == before
            }
            DEL => {
                let before = expected(*self.state(slot), key);
                *self.state(slot) &= !crate::run::PRESENT;
                self.list.remove(&key) == before
            }
            _ => {
                self.entries.clear();
                self.entries.extend(
                    self.list
                        .scan_bounds(Bound::Included(key), Bound::Unbounded)
                        .take(SCAN_LEN),
                );
                self.scan_ok(slot)
            }
        };
        self.outcomes.note(ok);
    }

    /// A scan from `first` must return ascending keys of the key space
    /// with values written for them, and exactly the owned slots the
    /// oracle holds in the range it covers.
    fn scan_ok(&self, first: u64) -> bool {
        let full = self.entries.len() == SCAN_LEN;
        let last = match (full, self.entries.last()) {
            (true, Some(&(key, _))) => key >> 16,
            _ => self.space.slots - 1,
        };
        let mut owned = self
            .entries
            .iter()
            .filter(|(key, _)| (key >> 16) % THREADS == self.thread);
        let mut previous = None;
        for &(key, value) in &self.entries {
            let fits =
                Space::slot(key).is_some_and(|slot| slot >= first && slot < self.space.slots);
            if !fits || version_of(key, value).is_none() || previous >= Some(key) {
                return false;
            }
            previous = Some(key);
        }
        let mut slot = first + (self.thread + THREADS - first % THREADS) % THREADS;
        while slot <= last {
            let key = Space::key(slot);
            if let Some(value) = expected(self.states[(slot / THREADS) as usize], key) {
                if owned.next() != Some(&(key, value)) {
                    return false;
                }
            }
            slot += THREADS;
        }
        owned.next().is_none()
    }

    /// The closed loop: one operation at a time until the recorder's last
    /// window ends.
    fn run(&mut self, recorder: &mut Recorder, traced: bool) {
        let half = self.space.slots / THREADS;
        let mut count = 0u64;
        loop {
            let kind = pick(self.rng.gen(), MIX);
            let slot = self.rng.gen_range(0..half) * THREADS + self.thread;
            if traced {
                let sampled = count.is_multiple_of(TRACE_EVERY);
                trace::set_request(if sampled {
                    (self.thread + 1) << 48 | count
                } else {
                    0
                });
            }
            count += 1;
            let start = trace::now_ns();
            self.op(kind, slot);
            let end = trace::now_ns();
            match recorder.window(end) {
                Some(window) => recorder.record(window, kind, end - start),
                None => break,
            }
        }
        trace::set_request(0);
    }
}

/// Runs the timed loop on two threads and returns the merged recorder.
fn measure(
    list: &List,
    space: &Space,
    oracles: &mut [Vec<u8>],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> (Recorder, Outcomes) {
    let cpus = sys::allowed_cpus();
    let start = trace::now_ns();
    let results: Vec<(Recorder, Outcomes)> = std::thread::scope(|scope| {
        let handles: Vec<_> = oracles
            .iter_mut()
            .enumerate()
            .map(|(thread, states)| {
                let cpu = sys::nth_cpu(&cpus, thread);
                scope.spawn(move || {
                    if let Some(cpu) = cpu {
                        sys::pin_to(cpu);
                    }
                    let mut worker = Worker {
                        thread: thread as u64,
                        list,
                        space,
                        states,
                        rng: SmallRng::seed_from_u64(seed ^ (thread as u64 + 1) << 56),
                        outcomes: Outcomes::default(),
                        entries: Vec::with_capacity(SCAN_LEN),
                    };
                    let mut recorder = Recorder::new(start, seconds, WINDOWS);
                    worker.run(&mut recorder, traced);
                    (recorder, worker.outcomes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut merged = Recorder::new(start, seconds, WINDOWS);
    let mut outcomes = Outcomes::default();
    for (recorder, thread_outcomes) in &results {
        merged.merge(recorder);
        outcomes.add(*thread_outcomes);
    }
    (merged, outcomes)
}

/// Checks, after a run, that the list holds exactly the oracle's state.
fn verify_all(list: &List, space: &Space, oracles: &[Vec<u8>]) -> Outcomes {
    let mut outcomes = Outcomes::default();
    let mut cursor = list.scan_bounds(Bound::Unbounded, Bound::Unbounded);
    let mut next = cursor.next();
    for slot in 0..space.slots {
        let key = Space::key(slot);
        let state = oracles[(slot % THREADS) as usize][(slot / THREADS) as usize];
        if let Some(value) = expected(state, key) {
            outcomes.note(next == Some((key, value)));
            if next.is_some_and(|(found, _)| found <= key) {
                next = cursor.next();
            }
        } else if next.is_some_and(|(found, _)| found == key) {
            outcomes.note(false);
            next = cursor.next();
        }
    }
    outcomes.note(next.is_none());
    outcomes
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let space = Space::new(PRELOAD, args.input_seed());
    let mut oracles: Vec<Vec<u8>> = (0..THREADS).map(|t| space.oracle(t)).collect();
    let before = sys::rss_bytes();
    let started = trace::now_ns();
    let plain = build(&space, false);
    let setup_s = (trace::now_ns() - started) as f64 / 1e9;
    let after = sys::rss_bytes();
    check_larger_than_l3(after, report)?;

    // Scans run slower for the first seconds after the preload (their
    // p99 about doubles), so the loop runs untimed for a while first.
    let (_, outcomes) = measure(
        &plain,
        &space,
        &mut oracles,
        args.input_seed() ^ 2,
        WARMUP_S,
        false,
    );
    report.outcomes.add(outcomes);

    if !args.trace {
        let (recorder, outcomes) = measure(
            &plain,
            &space,
            &mut oracles,
            args.input_seed(),
            args.seconds,
            false,
        );
        report.outcomes.add(outcomes);
        report.outcomes.add(verify_all(&plain, &space, &oracles));
        recorder.summarize(report, Tails::Pooled)?;
        report.metric("setup_s", setup_s, "s", None);
        report.metric("rss_mb", sys::peak_rss_bytes() as f64 / 1e6, "MB", None);
        let live_bytes = (space.preload * 16) as f64;
        report.metric(
            "space_amp",
            after.saturating_sub(before) as f64 / live_bytes,
            "ratio",
            None,
        );
        return Ok(());
    }

    // Traced run: half the time untraced on a plain list, half traced on
    // a list that collects the core counters.
    let half = args.seconds / 2.0;
    let (untraced, outcomes) =
        measure(&plain, &space, &mut oracles, args.input_seed(), half, false);
    report.outcomes.add(outcomes);
    report.outcomes.add(verify_all(&plain, &space, &oracles));
    drop(plain);

    let mut oracles: Vec<Vec<u8>> = (0..THREADS).map(|t| space.oracle(t)).collect();
    let list = build(&space, true);
    let (_, outcomes) = measure(
        &list,
        &space,
        &mut oracles,
        args.input_seed() ^ 3,
        WARMUP_S,
        false,
    );
    report.outcomes.add(outcomes);
    list.inner().stats().reset();
    let ebr_before = list.inner().reclamation();
    trace::take();
    trace::set_enabled(true);
    let (traced, outcomes) = measure(
        &list,
        &space,
        &mut oracles,
        args.input_seed() ^ 1,
        half,
        true,
    );
    trace::set_enabled(false);
    report.outcomes.add(outcomes);
    report.outcomes.add(verify_all(&list, &space, &oracles));
    let spans = trace::take();
    crate::write_spans(&args.workload, &spans);

    let mut by_name: std::collections::BTreeMap<&str, Histogram> = Default::default();
    for span in spans.iter().flatten() {
        by_name
            .entry(span.name)
            .or_default()
            .record(span.duration());
    }
    let p50 = |name: &str| by_name.get(name).map_or(0.0, |h| h.quantile(0.5));
    report.metric("core.get_ns", p50("core.get"), "ns", None);
    report.metric("core.put_ns", p50("core.put"), "ns", None);
    report.metric("core.del_ns", p50("core.del"), "ns", None);
    report.metric("core.scan_ns", p50("core.scan"), "ns", None);

    let stats = list.inner().stats();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let ops = stats.finds.get() + stats.inserts.get() + stats.removes.get() + stats.ranges.get();
    report.metric(
        "core.levels_per_find",
        ratio(stats.levels_visited.get(), ops),
        "count",
        None,
    );
    report.metric(
        "core.hsteps_per_find",
        ratio(stats.horizontal_steps.get(), ops),
        "count",
        None,
    );
    report.metric(
        "core.leaves_per_scan",
        stats.leaf_nodes_per_range(),
        "count",
        None,
    );
    report.metric(
        "core.optimistic_hit_rate",
        stats.optimistic_hit_rate(),
        "ratio",
        None,
    );
    report.metric(
        "core.locked_fallbacks",
        stats.locked_fallbacks.get() as f64,
        "count",
        None,
    );
    let splits = stats.promotion_splits.get() + stats.overflow_splits.get();
    report.metric(
        "core.splits_per_put",
        ratio(splits, stats.inserts.get()),
        "count",
        None,
    );
    report.metric(
        "core.merges_per_del",
        ratio(stats.nodes_merged.get(), stats.removes.get()),
        "count",
        None,
    );

    let ebr = list.inner().reclamation();
    let pins = ebr.pins - ebr_before.pins;
    report.metric("sync.pins_per_op", ratio(pins, traced.ops()), "count", None);
    report.metric(
        "sync.slot_cache_hit_rate",
        ratio(ebr.slot_cache_hits - ebr_before.slot_cache_hits, pins),
        "ratio",
        None,
    );
    report.metric("sync.ebr_backlog", ebr.backlog as f64, "count", None);
    crate::report_overhead(report, &untraced, &traced);
    Ok(())
}

fn check_larger_than_l3(rss: u64, report: &mut Report) -> Result<(), String> {
    let l3 = sys::l3_bytes()?;
    report.note(format!(
        "preloaded RSS {} MB, L3 {} MB",
        rss / 1_000_000,
        l3 / 1_000_000
    ));
    if rss <= l3 {
        return Err(format!(
            "precondition: RSS after preload ({rss} B) must exceed the L3 cache ({l3} B)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_keep_slot_order_and_decode() {
        for slot in [0u64, 1, 2, 1000, 15_999_999] {
            assert_eq!(Space::slot(Space::key(slot)), Some(slot));
            assert!(Space::key(slot) < Space::key(slot + 1));
        }
        assert_eq!(Space::slot(Space::key(5) ^ 1), None);
    }

    #[test]
    fn a_short_run_checks_clean_and_catches_a_corrupted_value() {
        let space = Space::new(20_000, 3);
        let mut oracles: Vec<Vec<u8>> = (0..THREADS).map(|t| space.oracle(t)).collect();
        let list = build(&space, true);
        assert_eq!(list.len() as u64, space.preload);
        let (recorder, outcomes) = measure(&list, &space, &mut oracles, 3, 0.2, false);
        assert!(recorder.ops() > 0);
        assert_eq!(outcomes.failed, 0, "{outcomes:?}");
        assert_eq!(verify_all(&list, &space, &oracles).failed, 0);

        // A value the oracle does not expect is caught by the final sweep.
        let slot = (0..space.slots)
            .find(|&s| {
                expected(oracles[(s % 2) as usize][(s / 2) as usize], Space::key(s)).is_some()
            })
            .unwrap();
        list.inner().insert(Space::key(slot), 12345);
        assert_eq!(verify_all(&list, &space, &oracles).failed, 1);
    }
}
