//! `hc-perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! hc-perfbench <workload> --seed N --seconds S --trace 0|1 [--root DIR]
//! ```
//!
//! Workloads: `f5-grid`, `scale-1k`, `serve-open`
//! (see `perfbench/README.md` for what each runs and why). `--root` is
//! the repository checkout (default `.`): frozen references are read
//! from `DIR/results/` and `DIR/perfbench/reference/`, and first-seen
//! reports of unfrozen seeds are kept in `DIR/perfbench/.refs/`.
//!
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end set, measured with nothing but a clock around each
//! pass; with `--trace 1` they are the per-layer set, taken by timing
//! the calls into each layer's public API from this program.

mod campaign;
mod replay;
mod serve;
mod sys;
mod timed;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads every workload uses. One, though the reference box has
/// two vCPUs: on its shared host the two rarely run fast at once, and a
/// 2×2 pass of a 1k-player campaign, which waits on both at every window,
/// took anywhere from 0.32 to 1.11 s where one thread took 0.23–0.30 s.
pub const THREADS: usize = 1;

/// End-to-end metrics (`--trace 0`), reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
];

/// Per-layer metrics (`--trace 1`). A workload that does not exercise a
/// layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead", "ratio"),
    ("games.play.calls", "count"),
    ("games.play.rounds", "count"),
    ("games.play.busy_s", "s"),
    ("games.play.ns_per_round", "ns"),
    ("games.plan.calls", "count"),
    ("games.plan.rounds", "count"),
    ("games.plan.busy_s", "s"),
    ("games.plan.ns_per_round", "ns"),
    ("games.plan.waste_share", "fraction"),
    ("games.hub_share_min", "fraction"),
    ("core.bucket.arrivals", "count"),
    ("core.bucket.ns_per_arrival", "ns"),
    ("core.bucket.live_pairs", "count"),
    ("core.bucket.replay_pairs", "count"),
    ("core.bucket.live_share", "fraction"),
    ("core.matchmaker.arrivals", "count"),
    ("core.matchmaker.sweeps", "count"),
    ("core.matchmaker.ns_per_arrival", "ns"),
    ("core.matchmaker.replay_share", "fraction"),
    ("core.platform.agreements", "count"),
    ("core.platform.promote_share", "fraction"),
    ("core.platform.ns_per_agreement", "ns"),
    ("core.platform.sessions", "count"),
    ("core.platform.ns_per_session", "ns"),
    ("sim.wheel.ops", "count"),
    ("sim.wheel.ns_per_op", "ns"),
    ("sim.event.ops", "count"),
    ("sim.event.ns_per_op", "ns"),
    ("sim.par.tasks", "count"),
    ("sim.par.idle_share", "fraction"),
    ("sim.par.task_max_over_p50", "ratio"),
    ("sim.shard.windows", "count"),
    ("sim.shard.messages", "count"),
    ("sim.shard.deferred", "count"),
    ("serve.requests", "count"),
    ("serve.wire.decode_ns", "ns"),
    ("serve.wire.encode_ns", "ns"),
    ("serve.service.handle_ns", "ns"),
    ("serve.wire.share", "fraction"),
    ("serve.wire.bytes_in", "B"),
    ("serve.wire.bytes_out", "B"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.gen_lag_p99_us", "us"),
    ("serve.late_share", "fraction"),
    ("serve.error_share", "fraction"),
    ("obs.overhead", "ratio"),
    ("obs.records", "count"),
    ("obs.trace_mb", "MB"),
    ("obs.peak_rss_mb", "MB"),
];

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Minimum length of the measured phase, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Repository checkout the references are read from.
    pub root: PathBuf,
}

/// Metric values of one run, restricted to a fixed list of names.
#[derive(Debug)]
pub struct Metrics {
    names: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    fn new(names: &'static [(&'static str, &'static str)], zero: bool) -> Self {
        Metrics {
            names,
            values: vec![zero.then_some(0.0); names.len()],
        }
    }

    /// Sets `name`; panics on a name outside the list (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .names
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the metric list"));
        self.values[i] = Some(value);
    }

    fn to_json(&self) -> Result<String, String> {
        let mut out = Vec::with_capacity(self.names.len());
        for ((name, unit), value) in self.names.iter().zip(&self.values) {
            let value = value.ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            out.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
        }
        Ok(format!("{{{}}}", out.join(",")))
    }
}

/// What a workload run produced: operations checked and metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Operations whose output was checked (sessions or requests).
    pub attempted: u64,
    /// Operations whose output did not match the reference.
    pub failed: u64,
    /// The run's metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// An empty outcome for the run mode `args` selects.
    pub fn new(args: &Args) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: if args.trace {
                Metrics::new(PER_LAYER, true)
            } else {
                Metrics::new(END_TO_END, false)
            },
        }
    }

    /// Counts `ops` checked operations, all failed unless `ok`.
    pub fn check(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }
}

/// The expected deterministic report of one workload at one seed.
///
/// A frozen file wins. Otherwise the first report seen at this seed is
/// the reference: it is compared with every later pass of the run and
/// stored under `perfbench/.refs/`, so later runs of the same seed are
/// checked against it too.
#[derive(Debug)]
pub struct Reference {
    expected: Option<String>,
    store: PathBuf,
}

impl Reference {
    /// Loads the reference for `workload` at `seed`; `frozen` is the
    /// canonical report text from a committed file, when one exists.
    pub fn load(args: &Args, workload: &str, frozen: Option<String>) -> Self {
        let store = args
            .root
            .join("perfbench/.refs")
            .join(format!("{workload}-{}.json", args.seed));
        let expected = frozen.or_else(|| std::fs::read_to_string(&store).ok());
        Reference { expected, store }
    }

    /// Whether `report` (canonical text) matches; the first report of an
    /// unfrozen seed becomes the reference.
    pub fn check(&mut self, report: &str) -> bool {
        if let Some(expected) = &self.expected {
            return expected == report;
        }
        self.expected = Some(report.to_string());
        if let Some(dir) = self.store.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let tmp = self.store.with_extension("tmp");
        if std::fs::write(&tmp, report).is_ok() {
            let _ = std::fs::rename(&tmp, &self.store);
        }
        true
    }
}

/// Reads a committed JSON file under the checkout, if present.
pub fn read_json(root: &Path, rel: &str) -> Option<serde_json::Value> {
    let text = std::fs::read_to_string(root.join(rel)).ok()?;
    serde_json::from_str(&text).ok()
}

/// Runs `pass` until at least `seconds` have elapsed (at least `min`
/// times), returning each pass's result.
pub fn repeat_for<T>(seconds: f64, min: usize, mut pass: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed().as_secs_f64() < seconds {
        out.push(pass());
    }
    out
}

/// Times `reps` calls of `setup`, appending each call's seconds to
/// `secs`, and returns the last call's result. Callers spread set-ups
/// over the run and report the median of `secs`.
pub fn timed_setup<T>(reps: usize, secs: &mut Vec<f64>, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let clock = Instant::now();
        last = Some(std::hint::black_box(setup()));
        secs.push(clock.elapsed().as_secs_f64());
    }
    last.expect("at least one setup ran")
}

const USAGE: &str = "usage: hc-perfbench <f5-grid|scale-1k|serve-open> --seed N --seconds S --trace 0|1 [--root DIR]";

fn die(message: &str) -> ! {
    eprintln!("hc-perfbench: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> (String, Args) {
    let mut argv = std::env::args().skip(1);
    let workload = argv.next().unwrap_or_else(|| die("missing workload"));
    let mut args = Args {
        seed: 42,
        seconds: 10.0,
        trace: false,
        root: PathBuf::from("."),
    };
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        let bad = format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| die(&bad)),
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| die(&bad));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die(&bad),
                }
            }
            "--root" => args.root = PathBuf::from(&value),
            _ => die(&format!("unknown flag `{flag}`")),
        }
    }
    (workload, args)
}

fn main() {
    let (workload, args) = parse_args();
    let outcome = match workload.as_str() {
        "f5-grid" => campaign::f5_grid(&args),
        "scale-1k" => campaign::scale(&args, &campaign::SCALE_1K),
        "serve-open" => serve::serve_open(&args),
        // The hc-obs-recorded pass of a scale cell, run in a child process
        // so its memory high-water mark is its own.
        "obs-pass" => {
            campaign::obs_pass(&args);
            return;
        }
        other => die(&format!("unknown workload `{other}`")),
    };
    let metrics = outcome.metrics.to_json().unwrap_or_else(|e| {
        eprintln!("hc-perfbench: {e}");
        std::process::exit(1);
    });
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{metrics}}}"#,
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
}
