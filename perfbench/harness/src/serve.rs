//! The `serve-open` workload: a crowd request script replayed through
//! `hc-serve`'s wire path (`front::handle_line`) on one thread.
//!
//! The script comes from the `hc-load` client model (`run_load`, which
//! drives `Service::handle` directly and logs every request with its
//! response), so each replayed response is checked byte for byte
//! against an answer produced without the JSON decode/encode path.

use crate::sys::{median, min, peak_rss_mb, quantile, ratio};
use crate::{repeat_for, timed_setup, Args, Outcome};
use hc_bench::load::{run_load, LoadOpts};
use hc_core::session::SessionConfig;
use hc_core::PlatformConfig;
use hc_serve::front::{handle_line, render_response};
use hc_serve::{Request, Service, ServiceConfig};
use hc_sim::SimDuration;
use std::time::{Duration, Instant};

/// Script size: 64 simulated clients over 100 waves (6,400 requests,
/// 0.13 s per open-loop pass). A small script keeps the working set
/// small, which on a shared host makes the timing far steadier, and
/// lets a run hold hundreds of passes.
const CLIENTS: usize = 64;
const STEPS: usize = 100;
/// Open-loop offered rate: ~10% of single-thread capacity.
const RATE_PER_S: u64 = 50_000;
/// Open-loop passes in a run, at least; more run until `--seconds` have
/// passed. Latency is each request's minimum over them: a host stall
/// (several ms on a shared 2-vCPU box, touching ~1% of one pass) rarely
/// hits the same request in every pass, while a slow request in the
/// program is slow in all of them.
const MIN_OPEN_PASSES: usize = 3;
/// Back-to-back passes after each open-loop pass.
const SAT_PER_OPEN: usize = 3;
/// Set-ups timed before each open-loop pass: service construction plus
/// the batch publishes takes well under 1 ms.
const SETUP_REPS: usize = 25;
/// Open-loop passes of the traced run.
const TRACED_OPEN_PASSES: usize = 10;
/// Plain and split back-to-back passes of the traced run.
const SPLIT_PASSES: usize = 3;
/// The latency limit of the serving boundary.
const LATE_US: f64 = 1000.0;

/// A request script with the response each line must produce.
#[derive(Debug)]
pub struct Script {
    seed: u64,
    /// Leading batch publishes: the service's set-up.
    setup: Vec<(String, String)>,
    /// The measured requests, in order, with their expected responses.
    requests: Vec<(String, String)>,
}

impl Script {
    /// Generates the script with the `hc-load` client model.
    pub fn generate(seed: u64, clients: usize, steps: usize) -> Self {
        let opts = LoadOpts {
            seed,
            threads: 1,
            clients,
            steps,
            ..LoadOpts::default()
        };
        let outcome = run_load(&opts).expect("the load scenario runs");
        let mut lines: Vec<(String, String)> = outcome
            .response_log
            .lines()
            .map(|line| {
                let v: serde_json::Value =
                    serde_json::from_str(line).expect("response log lines are JSON");
                let part = |k: &str| v.get(k).map(ToString::to_string).unwrap_or_default();
                (part("request"), part("response"))
            })
            .collect();
        let setup_len = lines
            .iter()
            .take_while(|(req, _)| {
                matches!(
                    serde_json::from_str::<Request>(req),
                    Ok(Request::PublishBatch { .. })
                )
            })
            .count();
        let requests = lines.split_off(setup_len);
        Script {
            seed,
            setup: lines,
            requests,
        }
    }

    /// A fresh service with the set-up requests applied; `false` when a
    /// set-up response differs from the script.
    fn fresh_service(&self) -> (Service, bool) {
        let mut service = Service::new(service_config(self.seed)).expect("load config is valid");
        let ok = self
            .setup
            .iter()
            .all(|(req, expected)| handle_line(req, &mut service) == *expected);
        (service, ok)
    }

    /// Requests one pass checks, set-up included.
    fn ops(&self) -> u64 {
        (self.setup.len() + self.requests.len()) as u64
    }

    /// Operations that failed in a pass: every request when set-up
    /// failed, else each response that differs from the script.
    fn failures(&self, setup_ok: bool, outputs: &[String]) -> u64 {
        if !setup_ok || outputs.len() != self.requests.len() {
            return self.ops();
        }
        self.requests
            .iter()
            .zip(outputs)
            .filter(|((_, expected), got)| expected != *got)
            .count() as u64
    }
}

/// The service configuration `hc-load` drives: promote on first
/// agreement, no gold, no rematch avoidance, sessions closed by clients.
fn service_config(seed: u64) -> ServiceConfig {
    let mut platform = PlatformConfig {
        agreement_threshold: 1,
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    };
    platform.matchmaker.avoid_rematch = false;
    platform.session = SessionConfig {
        max_rounds: 10_000,
        round_time_limit: SimDuration::from_secs(1_000_000),
        session_time_limit: SimDuration::from_secs(1_000_000),
        ..SessionConfig::default()
    };
    ServiceConfig { platform, seed }
}

/// One open-loop pass: request `i` is due `i / RATE_PER_S` after the
/// start and is timed from its due time.
struct OpenPass {
    latency_us: Vec<f64>,
    /// Time a due request waited for the previous one to finish.
    queue_us: Vec<f64>,
    /// Time between a request becoming startable and its start.
    lag_us: Vec<f64>,
    failed: u64,
}

fn open_loop(script: &Script) -> OpenPass {
    let (mut service, setup_ok) = script.fresh_service();
    let n = script.requests.len();
    let mut outputs = Vec::with_capacity(n);
    let (mut latency_us, mut queue_us, mut lag_us) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let t0 = Instant::now() + Duration::from_millis(1);
    let mut prev_end = t0;
    for (i, (line, _)) in script.requests.iter().enumerate() {
        let due = t0 + Duration::from_nanos(i as u64 * 1_000_000_000 / RATE_PER_S);
        let mut start = Instant::now();
        while start < due {
            std::hint::spin_loop();
            start = Instant::now();
        }
        let reply = handle_line(line, &mut service);
        let end = Instant::now();
        latency_us.push(us(end - due));
        if prev_end > due {
            queue_us.push(us(prev_end - due));
            lag_us.push(us(start.saturating_duration_since(prev_end)));
        } else {
            queue_us.push(0.0);
            lag_us.push(us(start - due));
        }
        prev_end = end;
        outputs.push(reply);
    }
    OpenPass {
        failed: script.failures(setup_ok, &outputs),
        latency_us,
        queue_us,
        lag_us,
    }
}

/// Lowers each of `best` to the matching value of `pass`.
fn fold_min(best: &mut [f64], pass: &[f64]) {
    for (b, v) in best.iter_mut().zip(pass) {
        *b = b.min(*v);
    }
}

/// One pass with the whole script offered at once.
struct SaturationPass {
    wall: f64,
    failed: u64,
}

fn saturation(script: &Script) -> SaturationPass {
    let (mut service, setup_ok) = script.fresh_service();
    let mut outputs = Vec::with_capacity(script.requests.len());
    let clock = Instant::now();
    for (line, _) in &script.requests {
        outputs.push(handle_line(line, &mut service));
    }
    let wall = clock.elapsed().as_secs_f64();
    SaturationPass {
        wall,
        failed: script.failures(setup_ok, &outputs),
    }
}

/// One back-to-back pass through decode, `Service::handle` and encode,
/// each timed on its own: `handle_line` split at its public seams.
#[derive(Debug, Default)]
struct SplitPass {
    wall: f64,
    decode_s: f64,
    handle_s: f64,
    encode_s: f64,
    bytes_in: u64,
    bytes_out: u64,
    errors: u64,
    failed: u64,
}

fn split(script: &Script) -> SplitPass {
    let (mut service, setup_ok) = script.fresh_service();
    let mut out = SplitPass::default();
    let mut outputs = Vec::with_capacity(script.requests.len());
    let clock = Instant::now();
    for (line, _) in &script.requests {
        let t0 = Instant::now();
        let request = serde_json::from_str::<Request>(line);
        let t1 = Instant::now();
        let Ok(request) = request else {
            outputs.push(String::new());
            continue;
        };
        let response = service.handle(&request);
        let t2 = Instant::now();
        let reply = render_response(&response);
        let t3 = Instant::now();
        out.decode_s += (t1 - t0).as_secs_f64();
        out.handle_s += (t2 - t1).as_secs_f64();
        out.encode_s += (t3 - t2).as_secs_f64();
        out.bytes_in += line.len() as u64;
        out.bytes_out += reply.len() as u64;
        out.errors += u64::from(response.is_error());
        outputs.push(reply);
    }
    out.wall = clock.elapsed().as_secs_f64();
    out.failed = script.failures(setup_ok, &outputs);
    out
}

pub fn serve_open(args: &Args) -> Outcome {
    let mut out = Outcome::new(args);
    let script = Script::generate(args.seed, CLIENTS, STEPS);
    let n = script.requests.len() as f64;

    if !args.trace {
        // Capacity passes interleave with the open-loop ones, and set-ups
        // with both, so slow spells of a shared host spread over all.
        // Passes repeat identical deterministic work, and contention on a
        // shared host only ever adds time: each figure is the fastest
        // repetition, and each request's latency its fastest pass.
        let mut setup_secs = Vec::new();
        let mut walls = Vec::new();
        let mut latency = vec![f64::INFINITY; script.requests.len()];
        repeat_for(args.seconds, MIN_OPEN_PASSES, || {
            let (_, setup_ok) = timed_setup(SETUP_REPS, &mut setup_secs, || script.fresh_service());
            out.check(script.setup.len() as u64, setup_ok);
            let open = open_loop(&script);
            out.attempted += script.ops();
            out.failed += open.failed;
            fold_min(&mut latency, &open.latency_us);
            for _ in 0..SAT_PER_OPEN {
                let pass = saturation(&script);
                out.attempted += script.ops();
                out.failed += pass.failed;
                walls.push(pass.wall);
            }
        });
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup_secs));
        m.set("run_s", min(&walls));
        m.set("throughput_per_s", n / min(&walls));
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("latency_p50_us", quantile(&latency, 0.5));
        m.set("latency_p99_us", quantile(&latency, 0.99));
        return out;
    }

    // Traced run: open-loop passes for the queueing figures, each
    // request's fastest kept, then back-to-back passes alternating plain
    // and split; the fastest of each is kept, as in the untraced run.
    let mut open = open_loop(&script);
    for _ in 1..TRACED_OPEN_PASSES {
        let pass = open_loop(&script);
        open.failed += pass.failed;
        fold_min(&mut open.latency_us, &pass.latency_us);
        fold_min(&mut open.queue_us, &pass.queue_us);
        fold_min(&mut open.lag_us, &pass.lag_us);
    }
    let mut sat = Vec::with_capacity(SPLIT_PASSES);
    let mut layers = Vec::with_capacity(SPLIT_PASSES);
    for _ in 0..SPLIT_PASSES {
        sat.push(saturation(&script));
        layers.push(split(&script));
    }
    out.attempted += script.ops() * (TRACED_OPEN_PASSES - 1) as u64;
    for failed in std::iter::once(open.failed)
        .chain(sat.iter().map(|p| p.failed))
        .chain(layers.iter().map(|p| p.failed))
    {
        out.attempted += script.ops();
        out.failed += failed;
    }
    let fastest = |f: fn(&SplitPass) -> f64| min(&layers.iter().map(f).collect::<Vec<_>>());
    let (decode_s, handle_s, encode_s) = (
        fastest(|p| p.decode_s),
        fastest(|p| p.handle_s),
        fastest(|p| p.encode_s),
    );
    let first = &layers[0];
    let late = open.latency_us.iter().filter(|&&l| l > LATE_US).count();
    let wire_s = decode_s + encode_s;
    let m = &mut out.metrics;
    m.set(
        "trace_overhead",
        fastest(|p| p.wall) / min(&sat.iter().map(|p| p.wall).collect::<Vec<_>>()),
    );
    m.set("serve.requests", n);
    m.set("serve.wire.decode_ns", decode_s * 1e9 / n);
    m.set("serve.wire.encode_ns", encode_s * 1e9 / n);
    m.set("serve.service.handle_ns", handle_s * 1e9 / n);
    m.set("serve.wire.share", ratio(wire_s, wire_s + handle_s));
    m.set("serve.wire.bytes_in", first.bytes_in as f64 / n);
    m.set("serve.wire.bytes_out", first.bytes_out as f64 / n);
    m.set("serve.queue_wait_p99_us", quantile(&open.queue_us, 0.99));
    m.set("serve.gen_lag_p99_us", quantile(&open.lag_us, 0.99));
    m.set("serve.late_share", late as f64 / n);
    m.set("serve.error_share", first.errors as f64 / n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_counts_a_tampered_response_as_failed() {
        let mut script = Script::generate(3, 8, 40);
        assert!(!script.setup.is_empty() && script.requests.len() > 10);
        assert_eq!(saturation(&script).failed, 0);
        assert_eq!(split(&script).failed, 0);
        script.requests[5].1.push(' ');
        assert_eq!(saturation(&script).failed, 1);
        assert_eq!(split(&script).failed, 1);
        assert_eq!(open_loop(&script).failed, 1);
    }
}
