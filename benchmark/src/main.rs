//! The repository's benchmark: end-to-end and per-layer metrics of the
//! B-skiplist serving stack on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <mem-uniform|lsm-zipf|svc-burst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it runs half its time untraced and half traced and reports
//! the per-layer metrics.  The last line of standard output is the result
//! as one JSON object.  See `DESIGN.md` for the workloads and metrics.

mod lsm_zipf;
mod mem_uniform;
mod run;
mod shim;
mod stats;
mod svc_burst;
mod sys;
mod trace;

#[cfg(test)]
mod shim_tests;

use std::path::PathBuf;

use run::{Args, Recorder, Report};

/// Every per-layer metric and its unit, so each traced run reports all of
/// them; a workload that does not run a layer reports its metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.get_ns", "ns"),
    ("core.put_ns", "ns"),
    ("core.del_ns", "ns"),
    ("core.scan_ns", "ns"),
    ("core.levels_per_find", "count"),
    ("core.hsteps_per_find", "count"),
    ("core.leaves_per_scan", "count"),
    ("core.optimistic_hit_rate", "ratio"),
    ("core.locked_fallbacks", "count"),
    ("core.splits_per_put", "count"),
    ("core.merges_per_del", "count"),
    ("sync.pins_per_op", "count"),
    ("sync.slot_cache_hit_rate", "ratio"),
    ("sync.ebr_backlog", "count"),
    ("sharded.execute_ns", "ns"),
    ("sharded.self_ns", "ns"),
    ("sharded.shards_per_batch", "count"),
    ("sharded.scan_ns", "ns"),
    ("lsm.get_ns", "ns"),
    ("lsm.put_ns", "ns"),
    ("lsm.del_ns", "ns"),
    ("lsm.scan_ns", "ns"),
    ("lsm.get_cpu_ns", "ns"),
    ("lsm.reads_per_get", "count"),
    ("lsm.read_bytes_per_get", "bytes"),
    ("lsm.reads_per_put", "count"),
    ("lsm.reads_per_scan", "count"),
    ("lsm.write_amp", "ratio"),
    ("lsm.maint_write_s", "s"),
    ("lsm.flushes", "count"),
    ("lsm.compactions", "count"),
    ("lsm.reopen_s", "s"),
    ("lsm.reopen_read_bytes", "bytes"),
    ("net.round_us", "us"),
    ("net.index_share", "ratio"),
    ("net.self_us_per_round", "us"),
    ("net.mean_batch", "count"),
    ("net.client_write_ns", "ns"),
    ("net.client_wait_ns", "ns"),
    ("trace.overhead", "ratio"),
];

/// Where runs leave their scratch files: LSM directories and span dumps.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans to `out/spans-<workload>.tsv`.
pub fn write_spans(workload: &str, spans: &[Vec<trace::Span>]) {
    let path = out_dir().join(format!("spans-{workload}.tsv"));
    if let Err(err) = trace::write_tsv(&path, spans) {
        eprintln!("writing {}: {err}", path.display());
    }
}

/// `trace.overhead`: the share of throughput the traced half lost against
/// the untraced half of the same run.
pub fn report_overhead(report: &mut Report, untraced: &Recorder, traced: &Recorder) {
    let rate = |r: &Recorder| r.ops() as f64 / r.seconds();
    let overhead = 1.0 - rate(traced) / rate(untraced);
    report.metric("trace.overhead", overhead, "ratio", None);
}

/// Measuring processes per untraced run.  Figures vary more between
/// processes than within one, so a run measures in several processes one
/// after another, each setting up afresh for its share of the time, and
/// reports each metric's median over them.  `svc-burst` sets up in a
/// twentieth of a second and affords more processes than the others,
/// whose set-ups take seconds.
fn processes(workload: &str) -> u64 {
    match workload {
        "svc-burst" => 5,
        _ => 3,
    }
}

fn parse_args() -> Result<(Args, bool), String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        process: 0,
    };
    let mut child = false;
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            "--process" => {
                args.process = value.parse().map_err(|_| bad)?;
                child = true;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((args, child))
}

/// Runs the workload in this process.
fn measure(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(out_dir()).map_err(|err| format!("creating out/: {err}"))?;
    let mut report = Report::default();
    match args.workload.as_str() {
        "mem-uniform" => mem_uniform::run(args, &mut report),
        "lsm-zipf" => lsm_zipf::run(args, &mut report),
        "svc-burst" => svc_burst::run(args, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    Ok(report)
}

/// Runs the workload in `processes` child processes in turn and merges
/// their reports (see [`Report::merge_processes`]).
fn measure_in_children(args: &Args, processes: u64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|err| format!("locating the benchmark: {err}"))?;
    let mut reports = Vec::new();
    for process in 0..processes {
        let output = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / processes as f64).to_string()])
            .args(["--trace", "0", "--process", &process.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|err| format!("starting a measuring process: {err}"))?;
        if !output.status.success() {
            return Err(format!(
                "measuring process {process} failed ({})",
                output.status
            ));
        }
        reports.push(Report::parse(&String::from_utf8_lossy(&output.stdout))?);
    }
    Report::merge_processes(&reports)
}

fn main() {
    let (args, child) = match parse_args() {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("benchmark: {err}");
            std::process::exit(2);
        }
    };
    let cores = sys::cores();
    let result = if child || args.trace {
        measure(&args)
    } else {
        measure_in_children(&args, processes(&args.workload))
    };
    let mut report = match result {
        Ok(report) => report,
        Err(err) => {
            eprintln!("benchmark failed: {err}");
            std::process::exit(1);
        }
    };
    if child {
        print!("{}", report.lines());
        return;
    }
    if args.trace {
        // Layers the workload does not run report 0.
        for &(name, unit) in PER_LAYER {
            if !report.metrics.iter().any(|m| m.name == name) {
                report.metric(name, 0.0, unit, None);
            }
        }
        let order = |name: &str| PER_LAYER.iter().position(|&(n, _)| n == name);
        report.metrics.sort_by_key(|m| order(&m.name));
    }
    println!(
        "workload {} seed {} seconds {} trace {} cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for metric in &report.metrics {
        let samples = metric
            .samples
            .map(|n| format!(" (n={n})"))
            .unwrap_or_default();
        println!(
            "  {:<26} {:>16.6} {}{samples}",
            metric.name, metric.value, metric.unit
        );
    }
    println!(
        "  fail_frac {} ({} failed of {} attempted)",
        report.outcomes.fail_frac(),
        report.outcomes.failed,
        report.outcomes.attempted
    );
    println!("{}", report.json());
}
