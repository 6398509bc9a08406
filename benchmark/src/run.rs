//! What every workload shares: arguments, keys, the timed loop's recorder
//! and the result line.

use std::fmt::Write as _;

use bskip_ycsb::keygen::record_key;

use crate::stats::{highest_tail_quantile, median, Histogram, Outcomes};

/// The tail percentile reported for every operation kind.
pub const TAIL: f64 = 0.99;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Which of the run's measuring processes this is.
    pub process: u64,
}

impl Args {
    /// The seed this process draws its inputs from: fixed by `--seed`,
    /// different in each measuring process of a run.
    pub fn input_seed(&self) -> u64 {
        bskip_ycsb::keygen::fnv_like_hash(self.seed).wrapping_add(self.process)
    }
}

/// Operation kinds, in the order of [`KINDS`].
pub const GET: usize = 0;
pub const PUT: usize = 1;
pub const DEL: usize = 2;
pub const SCAN: usize = 3;
pub const KINDS: [&str; 4] = ["get", "put", "del", "scan"];

/// Entries a scan asks for.
pub const SCAN_LEN: usize = 50;

/// Picks an operation kind from cumulative percentages
/// `[get, get+put, get+put+del]`; the rest are scans.
pub fn pick(roll: u64, cumulative: [u64; 3]) -> usize {
    let roll = roll % 100;
    cumulative
        .iter()
        .position(|&edge| roll < edge)
        .unwrap_or(SCAN)
}

/// A bijection of `0..n` keyed by a seed: a few invertible mixing rounds
/// over the enclosing power of two, walked until the result falls back
/// into range.
#[derive(Debug, Clone)]
pub struct Permutation {
    n: u64,
    bits: u32,
    keys: [u64; 3],
}

impl Permutation {
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n >= 2, "permutation of fewer than two items");
        let bits = 64 - (n - 1).leading_zeros();
        let key = |salt: u64| bskip_ycsb::keygen::fnv_like_hash(seed ^ salt);
        Permutation {
            n,
            bits,
            keys: [key(1) | 1, key(2), key(3) | 1],
        }
    }

    fn round(&self, x: u64) -> u64 {
        let mask = if self.bits == 64 {
            u64::MAX
        } else {
            (1 << self.bits) - 1
        };
        let half = self.bits.div_ceil(2);
        let mut x = x.wrapping_mul(self.keys[0]) & mask;
        x ^= x >> half;
        x = x.wrapping_add(self.keys[1]) & mask;
        x = x.wrapping_mul(self.keys[2]) & mask;
        x ^ (x >> half)
    }

    pub fn apply(&self, index: u64) -> u64 {
        debug_assert!(index < self.n);
        let mut x = self.round(index);
        while x >= self.n {
            x = self.round(x);
        }
        x
    }
}

/// The stored value for `key` at version `version` (`< 128`).  Any
/// reader can check that a value belongs to its key.
pub fn value_of(key: u64, version: u8) -> u64 {
    key.rotate_left(17) ^ u64::from(version)
}

/// The version `value` encodes for `key`, if it was written for `key`.
pub fn version_of(key: u64, value: u64) -> Option<u8> {
    let version = value ^ key.rotate_left(17);
    (version < 128).then_some(version as u8)
}

/// Oracle state of one key: the top bit says present, the low seven bits
/// hold the version of the value last written.
pub const PRESENT: u8 = 0x80;

pub fn expected(state: u8, key: u64) -> Option<u64> {
    (state & PRESENT != 0).then(|| value_of(key, state & 0x7F))
}

/// Applies a put to an oracle state and returns the new value.
pub fn put_state(state: &mut u8, key: u64) -> u64 {
    let version = (*state & 0x7F).wrapping_add(1) & 0x7F;
    *state = PRESENT | version;
    value_of(key, version)
}

/// Oracle of a hashed key space: key `i` is `record_key(i)`.
pub struct Oracle {
    pub states: Vec<u8>,
    /// `(key, index)` of every key, in key order, for checking scans.
    sorted: Vec<(u64, u32)>,
}

impl Oracle {
    pub fn new(states: Vec<u8>) -> Self {
        let mut sorted: Vec<(u64, u32)> = (0..states.len() as u64)
            .map(|i| (record_key(i), i as u32))
            .collect();
        sorted.sort_unstable();
        Oracle { states, sorted }
    }

    pub fn get(&self, index: u64) -> Option<u64> {
        expected(self.states[index as usize], record_key(index))
    }

    /// Every key from `from` upward in key order, with its index.
    pub fn keys_from(&self, from: u64) -> &[(u64, u32)] {
        &self.sorted[self.sorted.partition_point(|&(key, _)| key < from)..]
    }

    /// The first `limit` live entries with key `>= from`.
    pub fn scan(&self, from: u64, limit: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys_from(from)
            .iter()
            .filter_map(|&(key, index)| Some((key, expected(self.states[index as usize], key)?)))
            .take(limit)
    }

    pub fn live(&self) -> u64 {
        self.states
            .iter()
            .filter(|&&state| state & PRESENT != 0)
            .count() as u64
    }
}

/// Per-window latency histograms of one thread's timed loop.
///
/// The measured part of a run is split into equal windows.  Throughput is
/// computed per window and the median over the windows is reported, so
/// one disturbed window does not move it.
pub struct Recorder {
    start: u64,
    window_ns: u64,
    windows: Vec<[Histogram; 4]>,
}

impl Recorder {
    pub fn new(start: u64, seconds: f64, windows: usize) -> Self {
        Recorder {
            start,
            window_ns: ((seconds * 1e9) as u64 / windows as u64).max(1),
            windows: (0..windows).map(|_| Default::default()).collect(),
        }
    }

    /// The window `now` falls in, or `None` once the run is over.
    pub fn window(&self, now: u64) -> Option<usize> {
        let window = (now.saturating_sub(self.start) / self.window_ns) as usize;
        (window < self.windows.len()).then_some(window)
    }

    pub fn record(&mut self, window: usize, kind: usize, nanos: u64) {
        self.windows[window][kind].record(nanos);
    }

    pub fn merge(&mut self, other: &Recorder) {
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            for (mine, theirs) in mine.iter_mut().zip(theirs) {
                mine.merge(theirs);
            }
        }
    }

    pub fn ops(&self) -> u64 {
        self.windows.iter().flatten().map(Histogram::len).sum()
    }

    pub fn seconds(&self) -> f64 {
        self.window_ns as f64 * self.windows.len() as f64 / 1e9
    }

    /// Throughput per window and per-kind p50 / p99, each reported as the
    /// median over the run's windows (see [`Report::windowed`]).  With
    /// [`Tails::Pooled`] the percentiles are taken over all of this
    /// loop's samples instead, as one window.  Fails when a kind has too
    /// few samples for its p99.
    pub fn summarize(&self, report: &mut Report, tails: Tails) -> Result<(), String> {
        let window_s = self.window_ns as f64 / 1e9;
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|kinds| kinds.iter().map(Histogram::len).sum::<u64>() as f64 / window_s)
            .collect();
        report.note(format!("throughput per window {per_window:?}"));
        report.windowed("throughput_ops_s", per_window, "1/s", Some(self.ops()));
        for (kind, name) in KINDS.iter().enumerate() {
            let mut all = Histogram::default();
            for window in &self.windows {
                all.merge(&window[kind]);
            }
            let samples = Some(all.len());
            let parts = match tails {
                Tails::Pooled => vec![all],
                Tails::PerWindow => self.windows.iter().map(|w| w[kind].clone()).collect(),
            };
            if let Some(few) = parts
                .iter()
                .find(|h| highest_tail_quantile(h.len()).unwrap_or(0.0) < TAIL)
            {
                return Err(format!(
                    "{name}: {} samples are too few for a p99",
                    few.len()
                ));
            }
            for (q, label) in [(0.5, "p50"), (TAIL, "p99")] {
                let values = parts.iter().map(|h| h.quantile(q) / 1e3).collect();
                report.windowed(&format!("{name}_{label}_us"), values, "us", samples);
            }
        }
        Ok(())
    }
}

/// Where a loop's latency percentiles are taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tails {
    /// Over all of the loop's samples: for tails that sit where a percent
    /// or two of slow operations begins (node splits for puts), where a
    /// short window's p99 jumps between the fast and the slow population.
    Pooled,
    /// In each window: a host disturbance of a few hundred milliseconds
    /// then moves only the windows it falls in, not the median over them.
    PerWindow,
}

#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value, for timings.
    pub samples: Option<u64>,
    /// The value in each window, for a metric measured per window; the
    /// value is their median.
    pub windows: Vec<f64>,
}

/// A run's result: metrics plus the correctness tally.
#[derive(Default, Clone)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub outcomes: Outcomes,
    /// Human-readable facts printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: Option<u64>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
            windows: Vec::new(),
        });
    }

    /// A metric measured in each window of a run: the median over the
    /// windows.  Measuring processes pass the windows on, so the merged
    /// run reports the median over every window of every process.
    pub fn windowed(&mut self, name: &str, windows: Vec<f64>, unit: &str, samples: Option<u64>) {
        self.metric(name, median(&windows), unit, samples);
        self.metrics.last_mut().expect("just pushed").windows = windows;
    }

    /// Merges the reports of a run's measuring processes: outcomes add
    /// up, notes are tagged with their process, and each metric is the
    /// median over the processes, or over all their windows when every
    /// process measured it per window.
    pub fn merge_processes(reports: &[Report]) -> Result<Report, String> {
        let mut merged = Report::default();
        for (process, report) in reports.iter().enumerate() {
            merged.outcomes.add(report.outcomes);
            merged.notes.extend(
                report
                    .notes
                    .iter()
                    .map(|note| format!("[{process}] {note}")),
            );
        }
        let Some(first) = reports.first() else {
            return Ok(merged);
        };
        for metric in &first.metrics {
            let found: Vec<&Metric> = reports
                .iter()
                .map(|report| report.metrics.iter().find(|m| m.name == metric.name))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("a measuring process did not report {}", metric.name))?;
            let samples = found.iter().map(|m| m.samples).sum::<Option<u64>>();
            if found.iter().all(|m| !m.windows.is_empty()) {
                let windows = found.iter().flat_map(|m| m.windows.clone()).collect();
                merged.windowed(&metric.name, windows, &metric.unit, samples);
            } else {
                let values: Vec<f64> = found.iter().map(|m| m.value).collect();
                merged.metric(&metric.name, median(&values), &metric.unit, samples);
            }
        }
        Ok(merged)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn samples(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.samples)
    }

    /// The report as tab-separated lines, for passing between processes.
    pub fn lines(&self) -> String {
        let mut out = format!(
            "outcomes\t{}\t{}\n",
            self.outcomes.attempted, self.outcomes.failed
        );
        for note in &self.notes {
            let _ = writeln!(out, "note\t{note}");
        }
        for m in &self.metrics {
            let samples = m.samples.map_or("-".to_string(), |n| n.to_string());
            let _ = writeln!(
                out,
                "metric\t{}\t{:?}\t{}\t{samples}",
                m.name, m.value, m.unit
            );
            if !m.windows.is_empty() {
                let windows: Vec<String> = m.windows.iter().map(|w| format!("{w:?}")).collect();
                let _ = writeln!(out, "windows\t{}\t{}", m.name, windows.join(","));
            }
        }
        out
    }

    /// Reads back what [`Report::lines`] wrote.
    pub fn parse(text: &str) -> Result<Report, String> {
        let bad = |line: &str| format!("unreadable report line {line:?}");
        let mut report = Report::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                ["outcomes", attempted, failed] => {
                    report.outcomes.attempted = attempted.parse().map_err(|_| bad(line))?;
                    report.outcomes.failed = failed.parse().map_err(|_| bad(line))?;
                }
                ["note", note] => report.note(note.to_string()),
                ["metric", name, value, unit, samples] => {
                    let value = value.parse().map_err(|_| bad(line))?;
                    report.metric(name, value, unit, samples.parse().ok());
                }
                ["windows", name, windows] => {
                    let metric = report
                        .metrics
                        .iter_mut()
                        .find(|m| m.name == *name)
                        .ok_or_else(|| bad(line))?;
                    metric.windows = windows
                        .split(',')
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad(line))?;
                }
                _ => return Err(bad(line)),
            }
        }
        Ok(report)
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (at, metric) in self.metrics.iter().enumerate() {
            let sep = if at == 0 { "" } else { ", " };
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.outcomes.failed == 0 && self.outcomes.attempted > 0,
            self.outcomes.attempted.max(1),
            self.outcomes.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_bijection() {
        for n in [2u64, 3, 1000, 4096, 5000] {
            let perm = Permutation::new(n, 42);
            let mut seen = vec![false; n as usize];
            for i in 0..n {
                let x = perm.apply(i) as usize;
                assert!(!seen[x], "n={n}: {x} twice");
                seen[x] = true;
            }
        }
        let a = Permutation::new(1000, 1);
        let b = Permutation::new(1000, 2);
        assert!((0..1000).any(|i| a.apply(i) != b.apply(i)));
    }

    #[test]
    fn values_encode_their_key_and_version() {
        let mut state = 0u8;
        assert_eq!(expected(state, 9), None);
        let value = put_state(&mut state, 9);
        assert_eq!(expected(state, 9), Some(value));
        assert_eq!(version_of(9, value), Some(1));
        assert_eq!(version_of(10, value), None);
        state = PRESENT | 0x7F;
        put_state(&mut state, 9);
        assert_eq!(state, PRESENT);
    }

    #[test]
    fn mix_picks_each_kind_in_proportion() {
        let mut counts = [0; 4];
        for roll in 0..100 {
            counts[pick(roll, [75, 85, 95])] += 1;
        }
        assert_eq!(counts, [75, 10, 10, 5]);
    }

    #[test]
    fn reports_survive_the_trip_between_processes() {
        let mut report = Report::default();
        report.metric("a_us", 0.1 + 0.2, "us", Some(7));
        report.metric("b", 3.0, "count", None);
        report.windowed("c_us", vec![3.0, 1.0, 2.5], "us", Some(9));
        report.note("a note".into());
        report.outcomes.note(false);
        let back = Report::parse(&report.lines()).unwrap();
        assert_eq!(back.lines(), report.lines());
        assert_eq!(back.value("a_us"), Some(0.1 + 0.2));
        assert_eq!(back.samples("a_us"), Some(7));
        assert_eq!(back.samples("b"), None);
        assert_eq!(back.value("c_us"), Some(2.5));
        assert_eq!(back.metrics[2].windows, vec![3.0, 1.0, 2.5]);
        assert!(Report::parse("metric\tx").is_err());
        assert!(Report::parse("windows\tc_us\t1.0").is_err());
    }

    #[test]
    fn processes_merge_to_medians_over_all_windows() {
        let process = |value: f64, windows: Vec<f64>| {
            let mut report = Report::default();
            report.metric("setup_s", value, "s", None);
            report.windowed("p99_us", windows, "us", Some(10));
            report.outcomes.note(true);
            report
        };
        let reports = [
            process(1.0, vec![1.0, 9.0, 9.0]),
            process(3.0, vec![8.0, 9.0, 9.0]),
            process(2.0, vec![1.0, 1.0, 8.0]),
        ];
        let merged = Report::merge_processes(&reports).unwrap();
        assert_eq!(merged.value("setup_s"), Some(2.0));
        // The median over the nine windows, not the median (9.0) of the
        // processes' medians.
        assert_eq!(merged.value("p99_us"), Some(8.0));
        assert_eq!(merged.samples("p99_us"), Some(30));
        assert_eq!(merged.outcomes.attempted, 3);
        let missing = Report::default();
        assert!(Report::merge_processes(&[reports[0].clone(), missing]).is_err());
    }

    #[test]
    fn result_line_counts_failures() {
        let mut report = Report::default();
        report.metric("latency_ms", 1.5, "ms", None);
        report.outcomes.note(true);
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        report.outcomes.note(false);
        assert!(report
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
