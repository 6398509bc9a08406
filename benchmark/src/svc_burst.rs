//! `svc-burst`: the KV server on loopback over a two-shard, hash-partitioned
//! B-skiplist, driven by one connection in rounds of 32 pipelined requests.

use std::collections::HashMap;

use bskip_core::{BSkipConfig, BSkipList};
use bskip_index::{ConcurrentIndex, ShardedIndex};
use bskip_net::{Connection, KvServer, Request, Response, ServerConfig, ServerHandle};
use bskip_ycsb::keygen::record_key;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::run::{
    expected, pick, put_state, Args, Oracle, Permutation, Recorder, Report, Tails, DEL, GET,
    PRESENT, PUT, SCAN, SCAN_LEN,
};
use crate::shim::{TracedIndex, SHARD, SHARDED};
use crate::stats::{Histogram, Outcomes};
use crate::sys;
use crate::trace::{self, Span, NO_PARENT};

/// Keys preloaded; the key space holds twice as many.
const PRELOAD: u64 = 100_000;
/// Requests per round: sent together, flushed once, all answered before
/// the next round.  Below `ShardedIndex`'s parallel threshold (64), so a
/// batch never fans out to helper threads.
const ROUND: usize = 32;
const SHARDS: usize = 2;
/// get 60%, put 25%, del 10%, scan 5%.
const MIX: [u64; 3] = [60, 85, 95];
/// Windows of the timed loop (see [`Recorder`]).
const WINDOWS: usize = 10;

type Index = TracedIndex<ShardedIndex<u64, u64, TracedIndex<BSkipList<u64, u64>>>>;

fn build(oracle: &Oracle) -> Index {
    let index = TracedIndex::new(
        ShardedIndex::hash(SHARDS, |_| {
            TracedIndex::new(BSkipList::with_config(BSkipConfig::paper_default()), &SHARD)
        }),
        &SHARDED,
    );
    for (slot, &state) in oracle.states.iter().enumerate() {
        if let Some(value) = expected(state, record_key(slot as u64)) {
            index.insert(record_key(slot as u64), value);
        }
    }
    index
}

struct Service {
    server: ServerHandle,
    connection: Connection,
}

fn serve(index: Index) -> Result<Service, String> {
    let server = KvServer::bind(index, "127.0.0.1:0", ServerConfig::default())
        .and_then(KvServer::spawn)
        .map_err(|err| format!("starting the server: {err}"))?;
    let connection = Connection::connect_windowed(server.addr(), ROUND)
        .map_err(|err| format!("connecting: {err}"))?;
    Ok(Service { server, connection })
}

fn server_stat(server: &ServerHandle, name: &str) -> u64 {
    server
        .stats()
        .into_iter()
        .find(|(stat, _)| stat == name)
        .map_or(0, |(_, value)| value)
}

/// One request of a round and what its answer may be.
struct Sent {
    kind: usize,
    slot: u64,
    /// The answer of a point request.
    answer: Option<u64>,
    /// Scans only: how many of the round's mutations precede it.
    mutations_before: usize,
}

struct Client {
    oracle: Oracle,
    rng: SmallRng,
    outcomes: Outcomes,
    sent: Vec<Sent>,
    /// `(slot, value before)` of each mutation of the current round, in
    /// request order.
    mutated: Vec<(u64, Option<u64>)>,
}

impl Client {
    /// Draws a round's requests, sends them and applies them to the
    /// oracle in request order.
    fn send_round(&mut self, connection: &mut Connection) -> std::io::Result<()> {
        self.sent.clear();
        self.mutated.clear();
        let slots = self.oracle.states.len() as u64;
        for _ in 0..ROUND {
            let kind = pick(self.rng.gen(), MIX);
            let slot = self.rng.gen_range(0..slots);
            let key = record_key(slot);
            let before = self.oracle.get(slot);
            let state = &mut self.oracle.states[slot as usize];
            let request = match kind {
                GET => Request::Get { key },
                PUT => Request::put(key, put_state(state, key)),
                DEL => {
                    *state &= !PRESENT;
                    Request::Del { key }
                }
                _ => Request::Scan {
                    lo: key,
                    hi: u64::MAX,
                    limit: SCAN_LEN as u32,
                },
            };
            if kind == PUT || kind == DEL {
                self.mutated.push((slot, before));
            }
            self.sent.push(Sent {
                kind,
                slot,
                answer: before,
                mutations_before: self.mutated.len(),
            });
            connection.send(&request)?;
        }
        Ok(())
    }

    fn check(&self, sent: &Sent, response: &Response) -> bool {
        match (sent.kind, response) {
            (SCAN, Response::Entries { entries }) => self.scan_ok(sent, entries),
            (SCAN, _) => false,
            (_, Response::Found { value }) => sent.answer == Some(*value),
            (_, Response::Missing) => sent.answer.is_none(),
            _ => false,
        }
    }

    /// The server answers a scan as soon as it decodes it, while the
    /// point requests decoded with it run afterwards in one batch.  So a
    /// key that an earlier request of the same round mutated may show any
    /// value it held during the round up to the scan; every other key
    /// must match the oracle exactly.
    fn scan_ok(&self, sent: &Sent, entries: &[(u64, u64)]) -> bool {
        // The key's states through the round: the value before each of
        // its mutations, then the oracle's current one.
        let allowed = |slot: u64, seen: Option<u64>| {
            let mut befores = self
                .mutated
                .iter()
                .filter(|(s, _)| *s == slot)
                .map(|&(_, b)| b);
            let earlier = self.mutated[..sent.mutations_before]
                .iter()
                .filter(|(s, _)| *s == slot)
                .count();
            let now = self.oracle.get(slot);
            (0..=earlier).any(|_| seen == befores.next().unwrap_or(now))
        };
        let mut found = entries.iter().peekable();
        let full = entries.len() == SCAN_LEN;
        for &(key, slot) in self.oracle.keys_from(record_key(sent.slot)) {
            let seen = match found.peek() {
                Some(&&(found_key, value)) if found_key == key => {
                    found.next();
                    Some(value)
                }
                Some(&&(found_key, _)) if found_key < key => return false,
                _ => None,
            };
            if !allowed(u64::from(slot), seen) {
                return false;
            }
            if full && found.peek().is_none() {
                return true;
            }
        }
        found.next().is_none()
    }

    /// Rounds until the recorder's last window ends.  Each request's
    /// latency runs from its round's start to its answer.
    fn run(
        &mut self,
        connection: &mut Connection,
        recorder: &mut Recorder,
        traced: bool,
    ) -> Result<(), String> {
        let mut round = 0u64;
        loop {
            round += 1;
            if traced {
                trace::set_request(round);
                trace::set_shared_request(round);
            }
            let start = trace::now_ns();
            let round_span = trace::open("net.round", 0);
            let sent = self.send_round(connection);
            let write_span = trace::open("net.write", 0);
            let flushed = sent.and_then(|()| connection.flush());
            drop(write_span);
            flushed.map_err(|err| format!("sending a round: {err}"))?;
            let wait_span = trace::open("net.wait", 0);
            let mut window = None;
            for at in 0..ROUND {
                let response = connection
                    .recv()
                    .map_err(|err| format!("receiving: {err}"))?;
                let end = trace::now_ns();
                let ok = self.check(&self.sent[at], &response);
                self.outcomes.note(ok);
                window = recorder.window(end);
                if let Some(window) = window {
                    recorder.record(window, self.sent[at].kind, end - start);
                }
            }
            drop(wait_span);
            drop(round_span);
            if window.is_none() {
                break;
            }
        }
        trace::set_request(0);
        trace::set_shared_request(0);
        Ok(())
    }
}

fn initial_states(seed: u64) -> Vec<u8> {
    let slots = 2 * PRELOAD;
    let order = Permutation::new(slots, seed);
    let mut states = vec![0u8; slots as usize];
    for i in 0..PRELOAD {
        states[order.apply(i) as usize] = PRESENT;
    }
    states
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let oracle = Oracle::new(initial_states(args.input_seed()));
    let oracle_live = oracle.live();
    // The server's threads inherit the mask of the thread that starts
    // them: server on one CPU, client on the other.
    let cpus = sys::allowed_cpus();
    if let Some(cpu) = sys::nth_cpu(&cpus, 1) {
        sys::pin_to(cpu);
    }
    let before = sys::rss_bytes();
    let started = trace::now_ns();
    let index = build(&oracle);
    let built = sys::rss_bytes();
    let Service {
        server,
        mut connection,
    } = serve(index)?;
    let setup_s = (trace::now_ns() - started) as f64 / 1e9;
    if let Some(cpu) = sys::nth_cpu(&cpus, 0) {
        sys::pin_to(cpu);
    }
    let mut client = Client {
        oracle,
        rng: SmallRng::seed_from_u64(args.input_seed()),
        outcomes: Outcomes::default(),
        sent: Vec::with_capacity(ROUND),
        mutated: Vec::with_capacity(ROUND),
    };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut recorder = Recorder::new(trace::now_ns(), seconds, WINDOWS);
    client.run(&mut connection, &mut recorder, false)?;
    let batches = server_stat(&server, "server_batches");
    let batched = server_stat(&server, "server_batched_ops");
    report.note(format!(
        "mean server batch {:.2}",
        batched as f64 / batches.max(1) as f64
    ));

    if !args.trace {
        report.outcomes.add(client.outcomes);
        recorder.summarize(report, Tails::PerWindow)?;
        report.metric("setup_s", setup_s, "s", None);
        report.metric("rss_mb", sys::peak_rss_bytes() as f64 / 1e6, "MB", None);
        let space_amp = built.saturating_sub(before) as f64 / (oracle_live * 16) as f64;
        report.metric("space_amp", space_amp, "ratio", None);
        drop(connection);
        server.shutdown();
        return Ok(());
    }

    trace::take();
    trace::set_enabled(true);
    let mut traced = Recorder::new(trace::now_ns(), seconds, WINDOWS);
    let result = client.run(&mut connection, &mut traced, true);
    trace::set_enabled(false);
    result?;
    report.outcomes.add(client.outcomes);
    let mean_batch = (server_stat(&server, "server_batched_ops") - batched) as f64
        / (server_stat(&server, "server_batches") - batches).max(1) as f64;
    drop(connection);
    server.shutdown();
    let spans = trace::take();
    layer_metrics(report, &spans, mean_batch);
    crate::report_overhead(report, &recorder, &traced);
    crate::write_spans(&args.workload, &spans);
    Ok(())
}

/// Per-layer metrics of the sharded index and the network path.
fn layer_metrics(report: &mut Report, threads: &[Vec<Span>], mean_batch: f64) {
    let mut hist: HashMap<&str, Histogram> = HashMap::new();
    let mut sharded_self = Histogram::default();
    let (mut executes, mut shard_calls) = (0u64, 0u64);
    // Top-level index spans by request, for the rounds' self time.
    let mut index_spans: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut rounds = Vec::new();
    for spans in threads {
        let children = trace::children(spans);
        for (span, children) in spans.iter().zip(&children) {
            hist.entry(span.name).or_default().record(span.duration());
            if span.parent != NO_PARENT {
                continue;
            }
            if span.name.starts_with("sharded.") {
                index_spans
                    .entry(span.request)
                    .or_default()
                    .push((span.start, span.end));
            }
            if span.name == "net.round" {
                rounds.push(*span);
            }
            if span.name == "sharded.execute" {
                executes += 1;
                shard_calls += children.len() as u64;
                let inner: Vec<(u64, u64)> = children
                    .iter()
                    .map(|&c| (spans[c as usize].start, spans[c as usize].end))
                    .collect();
                sharded_self.record(trace::self_time((span.start, span.end), &inner));
            }
        }
    }
    let p50 = |name: &str| hist.get(name).map_or(0.0, |h| h.quantile(0.5));
    report.metric("sharded.execute_ns", p50("sharded.execute"), "ns", None);
    report.metric(
        "sharded.self_ns",
        sharded_self.quantile(0.5),
        "ns",
        Some(sharded_self.len()),
    );
    report.metric(
        "sharded.shards_per_batch",
        shard_calls as f64 / executes.max(1) as f64,
        "count",
        None,
    );
    report.metric("sharded.scan_ns", p50("sharded.scan"), "ns", None);

    let mut round_self = Histogram::default();
    let (mut total, mut covered) = (0u64, 0u64);
    for round in &rounds {
        let inner = index_spans
            .get(&round.request)
            .map_or(&[][..], Vec::as_slice);
        let own = trace::self_time((round.start, round.end), inner);
        round_self.record(own);
        total += round.duration();
        covered += round.duration() - own;
    }
    report.metric(
        "net.round_us",
        p50("net.round") / 1e3,
        "us",
        Some(rounds.len() as u64),
    );
    report.metric(
        "net.index_share",
        covered as f64 / total.max(1) as f64,
        "ratio",
        None,
    );
    report.metric(
        "net.self_us_per_round",
        round_self.quantile(0.5) / 1e3,
        "us",
        None,
    );
    report.metric("net.mean_batch", mean_batch, "count", None);
    report.metric("net.client_write_ns", p50("net.write"), "ns", None);
    report.metric("net.client_wait_ns", p50("net.wait"), "ns", None);
}
