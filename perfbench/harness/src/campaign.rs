//! The campaign workloads: the F5 grid on the serial engine and the
//! replication pool, and a scaled-down `exp_scale` cell on the sharded
//! engine.
//!
//! Inputs are built exactly as `exp_f5_throughput_scaling --smoke
//! --reps 24` and `exp_scale` build them, so at seed 42 the reports must
//! equal the frozen `results/bench_baseline.json` and the committed
//! `perfbench/reference/` files.

use crate::replay;
use crate::sys::{median, min_each, peak_rss_mb, quantile, ratio};
use crate::timed::{Checkpointed, GameStats, TimedGame};
use crate::{read_json, repeat_for, timed_setup, Args, Outcome, Reference, THREADS};
use hc_core::matchmaker::MatchmakerConfig;
use hc_games::shard::{
    EspShardGame, ShardGame, ShardedCampaign, ShardedCampaignConfig, ShardedCampaignReport,
};
use hc_games::world::WorldConfig;
use hc_games::{EspCampaign, EspCampaignConfig, EspCampaignReport};
use hc_sim::{run_replications, RngFactory, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// f5-grid
// ---------------------------------------------------------------------------

const F5_POPULATIONS: [usize; 4] = [8, 16, 32, 64];
const F5_REPS: usize = 24;
const F5_HORIZON_SECS: u64 = 24 * 3600;

/// One grid task's report, field for field as the F5 binary writes it.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct F5Row {
    players: usize,
    rep: usize,
    live_sessions: u64,
    replay_sessions: u64,
    replay_share: f64,
    mean_wait_secs: f64,
    labels_per_hour: f64,
    precision: f64,
}

impl F5Row {
    fn new(players: usize, rep: usize, report: &EspCampaignReport) -> Self {
        F5Row {
            players,
            rep,
            live_sessions: report.live_sessions,
            replay_sessions: report.replay_sessions,
            replay_share: report.matchmaker.replay_share(),
            mean_wait_secs: report.mean_wait_secs,
            labels_per_hour: report.metrics.throughput_per_human_hour,
            precision: report.precision_rate(),
        }
    }

    fn sessions(&self) -> u64 {
        self.live_sessions + self.replay_sessions
    }
}

/// One grid task: `(players, rep, task seed)`, seeded as `run_grid` does.
fn f5_tasks(seed: u64) -> Vec<(usize, usize, u64)> {
    let factory = RngFactory::new(seed).child("exp_f5_throughput_scaling");
    F5_POPULATIONS
        .iter()
        .flat_map(|&players| {
            (0..F5_REPS).map(move |rep| {
                let task_seed = factory
                    .indexed_child(&format!("players={players}"), rep as u64)
                    .master_seed();
                (players, rep, task_seed)
            })
        })
        .collect()
}

fn f5_config(players: usize) -> EspCampaignConfig {
    let mut config = EspCampaignConfig::small();
    config.players = players;
    config.horizon = SimTime::from_secs(F5_HORIZON_SECS);
    config.world.stimuli = 600;
    config.arrival_spread = SimDuration::from_mins(45);
    config
}

/// One pass over the whole grid on the replication pool.
struct F5Pass {
    rows: Vec<F5Row>,
    /// Per-task wall seconds, in task order (empty when `task_clocks`
    /// was off).
    task_secs: Vec<f64>,
    wall: f64,
}

fn f5_pass(tasks: &[(usize, usize, u64)], task_clocks: bool) -> F5Pass {
    let clock = Instant::now();
    let out = run_replications(tasks.len(), THREADS, |i| {
        let (players, rep, seed) = tasks[i];
        let task_clock = task_clocks.then(Instant::now);
        let report = EspCampaign::new(f5_config(players), seed).run();
        let secs = task_clock.map_or(0.0, |c| c.elapsed().as_secs_f64());
        (F5Row::new(players, rep, &report), secs)
    })
    .expect("grid tasks do not panic");
    let wall = clock.elapsed().as_secs_f64();
    let (rows, task_secs): (Vec<F5Row>, Vec<f64>) = out.into_iter().unzip();
    F5Pass {
        rows,
        task_secs: if task_clocks { task_secs } else { Vec::new() },
        wall,
    }
}

/// Canonical report text: the bench-JSON `results` section.
fn f5_results(rows: &[F5Row]) -> String {
    let cells: Vec<serde_json::Value> = F5_POPULATIONS
        .iter()
        .map(|&players| {
            let reps: Vec<&F5Row> = rows.iter().filter(|r| r.players == players).collect();
            serde_json::Value::Object(vec![
                (
                    "id".to_string(),
                    serde_json::Value::String(format!("players={players}")),
                ),
                (
                    "reps".to_string(),
                    serde_json::to_value(&reps).expect("rows serialize"),
                ),
            ])
        })
        .collect();
    serde_json::Value::Array(cells).to_string()
}

fn f5_sane(rows: &[F5Row]) -> bool {
    rows.len() == F5_POPULATIONS.len() * F5_REPS
        && rows.iter().all(|r| {
            r.sessions() > 0
                && (0.0..=1.0).contains(&r.replay_share)
                && (0.0..=1.0).contains(&r.precision)
                && r.mean_wait_secs.is_finite()
        })
}

/// Checks one pass and counts its sessions.
fn f5_check(out: &mut Outcome, reference: &mut Reference, rows: &[F5Row]) {
    let sessions = rows.iter().map(F5Row::sessions).sum();
    let ok = f5_sane(rows) && reference.check(&f5_results(rows));
    out.check(sessions, ok);
}

pub fn f5_grid(args: &Args) -> Outcome {
    let mut out = Outcome::new(args);
    let tasks = f5_tasks(args.seed);
    let frozen = (args.seed == 42)
        .then(|| read_json(&args.root, "results/bench_baseline.json"))
        .flatten()
        .and_then(|v| v.get("results").map(ToString::to_string));
    let mut reference = Reference::load(args, "f5-grid", frozen);

    if !args.trace {
        // One grid construction before each pass, so set-up is sampled
        // across the run.
        let mut setup_secs = Vec::new();
        let passes = repeat_for(args.seconds, 3, || {
            timed_setup(1, &mut setup_secs, || {
                for &(players, _, seed) in &tasks {
                    drop(std::hint::black_box(EspCampaign::new(
                        f5_config(players),
                        seed,
                    )));
                }
            });
            f5_pass(&tasks, true)
        });
        for pass in &passes {
            f5_check(&mut out, &mut reference, &pass.rows);
        }
        // Tasks run one after another, so a pass's time is the sum of its
        // tasks'. Each task repeats identical deterministic work in every
        // pass, and a shared host's slow spells only ever add time: the
        // grid's cost is the sum of each task's fastest run. Tasks of 5–60 ms
        // find fast stretches of the host that whole 1.5 s passes miss.
        let task_secs: Vec<Vec<f64>> = passes.iter().map(|p| p.task_secs.clone()).collect();
        let run_s: f64 = min_each(&task_secs).iter().sum();
        let sessions = passes[0].rows.iter().map(F5Row::sessions).sum::<u64>() as f64;
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup_secs));
        m.set("run_s", run_s);
        m.set("throughput_per_s", sessions / run_s);
        m.set("peak_rss_mb", peak_rss_mb());
        // A grid's user waits for the whole grid, as for a campaign.
        m.set("latency_p50_us", run_s * 1e6);
        m.set("latency_p99_us", run_s * 1e6);
        return out;
    }

    // Traced run: a pass without per-task clocks, a pass with them, then
    // the serial engine's layers replayed at this grid's volume.
    let plain = f5_pass(&tasks, false);
    let traced = f5_pass(&tasks, true);
    f5_check(&mut out, &mut reference, &plain.rows);
    f5_check(&mut out, &mut reference, &traced.rows);

    let busy: f64 = traced.task_secs.iter().sum();
    let live: u64 = plain.rows.iter().map(|r| r.live_sessions).sum();
    let replay: u64 = plain.rows.iter().map(|r| r.replay_sessions).sum();
    // Every pairing consumed one arrival per live seat (arrivals of
    // churned players, a few per grid, are not counted); sweeps tick
    // every `sweep_interval` to the horizon.
    let sweep_secs = EspCampaignConfig::small().sweep_interval.as_secs_f64();
    let sweeps_per_task = (F5_HORIZON_SECS as f64 / sweep_secs) as u64;
    let replay_tasks: Vec<replay::SerialTask> = plain
        .rows
        .iter()
        .map(|r| replay::SerialTask {
            players: r.players,
            arrivals: 2 * r.live_sessions + r.replay_sessions,
            sweeps: sweeps_per_task,
            sweep_interval: SimDuration::from_secs_f64(sweep_secs),
        })
        .collect();
    let mm_config = EspCampaignConfig::small().platform.matchmaker;
    let event = replay::event_queue(args.seed, &replay_tasks);
    let mm = replay::matchmaker(args.seed, &replay_tasks, mm_config);

    let m = &mut out.metrics;
    m.set("trace_overhead", traced.wall / plain.wall);
    m.set("sim.par.tasks", tasks.len() as f64);
    m.set(
        "sim.par.idle_share",
        1.0 - busy / (THREADS as f64 * traced.wall),
    );
    m.set(
        "sim.par.task_max_over_p50",
        ratio(
            quantile(&traced.task_secs, 1.0),
            quantile(&traced.task_secs, 0.5),
        ),
    );
    m.set("sim.event.ops", event.ops as f64);
    m.set("sim.event.ns_per_op", event.ns_per_op());
    m.set("core.matchmaker.arrivals", mm.ops as f64);
    m.set("core.matchmaker.sweeps", mm.extra as f64);
    m.set("core.matchmaker.ns_per_arrival", mm.ns_per_op());
    m.set(
        "core.matchmaker.replay_share",
        ratio(replay as f64, (live + replay) as f64),
    );
    out
}

// ---------------------------------------------------------------------------
// scale-1k
// ---------------------------------------------------------------------------

/// One sharded-engine cell, built as `exp_scale` builds its cells.
#[derive(Debug)]
pub struct ScaleCell {
    name: &'static str,
    players: usize,
    horizon_secs: u64,
    spread_mins: u64,
    /// Bench JSON whose only row is the committed report at seed 42.
    frozen: &'static str,
    /// Derived summary of the hc-obs-recorded pass at seed 42.
    frozen_trace: &'static str,
}

/// `exp_scale --smoke`'s steady-state shape (2 h horizon, 45 min arrival
/// spread, 2 shards) at a fiftieth of its 50k players, so one pass
/// takes ~0.2 s and its state stays small enough that other tenants'
/// cache pressure barely moves it.
pub const SCALE_1K: ScaleCell = ScaleCell {
    name: "scale-1k",
    players: 1_000,
    horizon_secs: 2 * 3600,
    spread_mins: 45,
    frozen: "perfbench/reference/scale-1k-seed42.json",
    frozen_trace: "perfbench/reference/scale-1k-trace-seed42.json",
};

const SHARDS: usize = 2;
const WINDOW_SECS: u64 = 10;
const MATCH_BUCKETS: u32 = 8;
/// Set-ups timed before each pass: world generation plus campaign
/// construction takes ~2 ms at 1k players.
const SCALE_SETUP_REPS: usize = 3;
/// Sessions played between two marks of an untraced pass: ~15 ms at 1k
/// players on one thread.
const STRETCH_SESSIONS: u64 = 500;

/// One cell's report, field for field as `exp_scale` writes it.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct ScaleRow {
    players: usize,
    live_sessions: u64,
    solo_sessions: u64,
    verified_labels: usize,
    labels_per_hour: f64,
    alp_hours: f64,
    precision: f64,
    mean_wait_secs: f64,
}

impl ScaleRow {
    fn new(players: usize, report: &ShardedCampaignReport) -> Self {
        ScaleRow {
            players,
            live_sessions: report.live_sessions,
            solo_sessions: report.solo_sessions,
            verified_labels: report.precision.1,
            labels_per_hour: report.metrics.throughput_per_human_hour,
            alp_hours: report.metrics.alp_hours,
            precision: report.precision_rate(),
            mean_wait_secs: report.mean_wait_secs,
        }
    }

    fn sessions(&self) -> u64 {
        self.live_sessions + self.solo_sessions
    }

    fn text(&self) -> String {
        serde_json::to_string(self).expect("row serializes")
    }

    fn sane(&self, report: &ShardedCampaignReport) -> bool {
        self.live_sessions > 0
            && self.verified_labels > 0
            && (0.0..=1.0).contains(&self.precision)
            && self.labels_per_hour.is_finite()
            && report.matchmaker.live_pairs == self.live_sessions
            && report.matchmaker.replay_pairs == self.solo_sessions
    }
}

impl ScaleCell {
    /// The task seed `run_grid` hands `exp_scale`'s only task.
    fn task_seed(&self, seed: u64) -> u64 {
        RngFactory::new(seed)
            .child("exp_scale")
            .indexed_child(&format!("players={}", self.players), 0)
            .master_seed()
    }

    fn config(&self) -> ShardedCampaignConfig {
        ShardedCampaignConfig {
            players: self.players,
            horizon: SimTime::from_secs(self.horizon_secs),
            arrival_spread: SimDuration::from_mins(self.spread_mins),
            shards: SHARDS,
            threads: THREADS,
            window: SimDuration::from_secs(WINDOW_SECS),
            match_buckets: MATCH_BUCKETS,
            ..ShardedCampaignConfig::small()
        }
    }

    fn game(&self, task_seed: u64) -> EspShardGame {
        let mut world_rng = RngFactory::new(task_seed).stream("world");
        let mut world = WorldConfig::small();
        world.stimuli = (self.players / 10).clamp(600, 20_000);
        EspShardGame::generate(&world, &mut world_rng)
    }

    /// World generation plus campaign construction.
    fn build<D: ShardGame>(
        &self,
        task_seed: u64,
        wrap: impl FnOnce(EspShardGame) -> D,
    ) -> ShardedCampaign<D> {
        ShardedCampaign::new(wrap(self.game(task_seed)), self.config(), task_seed)
    }

    fn reference(&self, args: &Args) -> Reference {
        let frozen = (args.seed == 42)
            .then(|| read_json(&args.root, self.frozen))
            .flatten()
            .and_then(|v| {
                Some(
                    v.get("results")?
                        .as_array()?
                        .first()?
                        .get("reps")?
                        .as_array()?
                        .first()?
                        .to_string(),
                )
            });
        Reference::load(args, self.name, frozen)
    }
}

/// One measured campaign pass.
struct ScalePass {
    row: ScaleRow,
    report: ShardedCampaignReport,
    wall: f64,
}

fn scale_pass<D: ShardGame>(cell: &ScaleCell, mut campaign: ShardedCampaign<D>) -> ScalePass {
    let clock = Instant::now();
    let report = campaign.run().expect("the sharded engine runs the cell");
    let wall = clock.elapsed().as_secs_f64();
    ScalePass {
        row: ScaleRow::new(cell.players, &report),
        report,
        wall,
    }
}

fn scale_check(out: &mut Outcome, reference: &mut Reference, pass: &ScalePass, consistent: bool) {
    let ok = consistent && pass.row.sane(&pass.report) && reference.check(&pass.row.text());
    out.check(pass.row.sessions(), ok);
}

pub fn scale(args: &Args, cell: &ScaleCell) -> Outcome {
    let mut out = Outcome::new(args);
    let task_seed = cell.task_seed(args.seed);
    let mut reference = cell.reference(args);

    if !args.trace {
        // Set-ups are timed before each pass, so they are sampled across
        // the run; the last one builds the campaign the pass runs.
        let mut setup_secs = Vec::new();
        let passes = repeat_for(args.seconds, 3, || {
            let (campaign, marks) = timed_setup(SCALE_SETUP_REPS, &mut setup_secs, || {
                let mut marks = None;
                let campaign = cell.build(task_seed, |g| {
                    let (game, m) = Checkpointed::new(g, STRETCH_SESSIONS);
                    marks = Some(m);
                    game
                });
                (campaign, marks.expect("the wrapper was built"))
            });
            marks.mark();
            let pass = scale_pass(cell, campaign);
            marks.mark();
            (pass, marks.stretches())
        });
        for (pass, _) in &passes {
            scale_check(&mut out, &mut reference, pass, true);
        }
        // Each stretch between marks repeats identical deterministic work
        // in every pass, and a shared host's slow spells only ever add
        // time: the pass's cost is the sum of each stretch's fastest run.
        // Stretches of ~15 ms find fast spells of the host that whole
        // passes miss.
        let stretches: Vec<Vec<f64>> = passes.iter().map(|(_, s)| s.clone()).collect();
        let run_s: f64 = min_each(&stretches).iter().sum();
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup_secs));
        m.set("run_s", run_s);
        m.set("throughput_per_s", passes[0].0.row.sessions() as f64 / run_s);
        m.set("peak_rss_mb", peak_rss_mb());
        // A campaign's user waits for the whole pass, so its latency is
        // the pass.
        m.set("latency_p50_us", run_s * 1e6);
        m.set("latency_p99_us", run_s * 1e6);
        return out;
    }

    // Traced run: an untraced pass, then a pass through the timing
    // wrapper (which also captures every session for the platform
    // replay), then the layers only engine-private code calls, replayed
    // at this pass's own volume.
    let plain = scale_pass(cell, cell.build(task_seed, |g| g));
    scale_check(&mut out, &mut reference, &plain, true);
    let mut stats: Option<Arc<GameStats>> = None;
    let traced = scale_pass(
        cell,
        cell.build(task_seed, |g| {
            let (timed, s) = TimedGame::new(g);
            stats = Some(s);
            timed
        }),
    );
    let stats = stats.expect("the wrapper was built");
    // Every session is planned once and played once.
    let counted =
        stats.play.calls() == traced.row.sessions() && stats.plan.calls() == stats.play.calls();
    scale_check(&mut out, &mut reference, &traced, counted);

    let captured = stats.take_captured();
    let platform = replay::platform(&cell.game(task_seed), cell.players, &captured);
    drop(captured);
    let mm = traced.report.matchmaker;
    let arrivals = 2 * mm.live_pairs + mm.replay_pairs + mm.abandonments;
    let bucket = replay::bucket_pool(
        args.seed,
        arrivals,
        MATCH_BUCKETS,
        cell.players,
        SimTime::from_secs(cell.horizon_secs),
        SimDuration::from_secs(WINDOW_SECS),
        MatchmakerConfig::default(),
    );
    let wheel = replay::wheel(
        args.seed,
        cell.players,
        SHARDS,
        // The calendar holds every first arrival plus every return.
        cell.players as u64 + arrivals,
        SimTime::from_secs(cell.horizon_secs),
        SimDuration::from_mins(cell.spread_mins),
        SimDuration::from_secs(WINDOW_SECS),
    );

    let m = &mut out.metrics;
    m.set("trace_overhead", traced.wall / plain.wall);
    let (plan, play) = (&stats.plan, &stats.play);
    m.set("games.play.calls", play.calls() as f64);
    m.set("games.play.rounds", play.rounds() as f64);
    m.set("games.play.busy_s", play.busy_secs());
    m.set(
        "games.play.ns_per_round",
        ratio(play.busy_secs() * 1e9, play.rounds() as f64),
    );
    m.set("games.plan.calls", plan.calls() as f64);
    m.set("games.plan.rounds", plan.rounds() as f64);
    m.set("games.plan.busy_s", plan.busy_secs());
    m.set(
        "games.plan.ns_per_round",
        ratio(plan.busy_secs() * 1e9, plan.rounds() as f64),
    );
    m.set(
        "games.plan.waste_share",
        1.0 - ratio(play.rounds() as f64, plan.rounds() as f64),
    );
    m.set("games.hub_share_min", plan.busy_secs() / traced.wall);
    m.set("core.bucket.arrivals", bucket.ops as f64);
    m.set("core.bucket.ns_per_arrival", bucket.ns_per_op());
    m.set("core.bucket.live_pairs", mm.live_pairs as f64);
    m.set("core.bucket.replay_pairs", mm.replay_pairs as f64);
    m.set(
        "core.bucket.live_share",
        ratio(
            mm.live_pairs as f64,
            (mm.live_pairs + mm.replay_pairs) as f64,
        ),
    );
    m.set("core.platform.agreements", platform.agreements as f64);
    m.set(
        "core.platform.promote_share",
        ratio(platform.promoted as f64, platform.agreements as f64),
    );
    m.set(
        "core.platform.ns_per_agreement",
        ratio(platform.agreement_secs * 1e9, platform.agreements as f64),
    );
    m.set("core.platform.sessions", platform.sessions as f64);
    m.set(
        "core.platform.ns_per_session",
        ratio(platform.session_secs * 1e9, platform.sessions as f64),
    );
    m.set("sim.wheel.ops", wheel.ops as f64);
    m.set("sim.wheel.ns_per_op", wheel.ns_per_op());

    let (row, plain_wall) = (plain.row.text(), plain.wall);
    // Free this process's campaigns before the child allocates its own.
    drop((plain, traced, stats));
    obs_child(args, &row, plain_wall, &mut out);
    out
}

/// Runs the hc-obs-recorded pass in a child process (so its memory
/// high-water mark is its own) and folds its counts into `out`. The
/// recorded report must equal the untraced one.
fn obs_child(args: &Args, expected_row: &str, plain_wall: f64, out: &mut Outcome) {
    let exe = std::env::current_exe().expect("own executable path");
    let child = std::process::Command::new(exe)
        .args(["obs-pass", "--seed", &args.seed.to_string(), "--root"])
        .arg(&args.root)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("obs-pass child starts");
    let stdout = String::from_utf8_lossy(&child.stdout);
    let parsed = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str::<ObsReport>(l).ok());
    let Some(obs) = parsed.filter(|_| child.status.success()) else {
        eprintln!("hc-perfbench: obs-pass child failed ({})", child.status);
        out.check(1, false);
        return;
    };
    out.check(obs.sessions, obs.ok && obs.row == expected_row);
    let m = &mut out.metrics;
    m.set("obs.overhead", obs.run_s / plain_wall);
    m.set("obs.records", obs.records as f64);
    m.set("obs.trace_mb", obs.trace_bytes as f64 / 1e6);
    m.set("obs.peak_rss_mb", obs.peak_rss_mb);
    m.set("sim.shard.windows", obs.windows as f64);
    m.set("sim.shard.messages", obs.messages as f64);
    m.set("sim.shard.deferred", obs.deferred as f64);
}

/// What the hc-obs-recorded pass reports to its parent.
#[derive(Debug, Serialize, Deserialize)]
struct ObsReport {
    /// The recorded pass's report row (canonical text).
    row: String,
    /// The trace agrees with the report (and, at seed 42, its derived
    /// summary equals the frozen one).
    ok: bool,
    sessions: u64,
    run_s: f64,
    records: u64,
    trace_bytes: u64,
    peak_rss_mb: f64,
    windows: u64,
    messages: u64,
    deferred: u64,
}

/// The hc-obs-recorded pass of the scale cell, run as `exp_scale --trace`
/// runs its cells (one task on the replication pool inside a
/// recording scope). Prints one JSON line: the report row, the run's
/// wall seconds, the trace's record count, rendered size and exchange
/// counters, the process's peak RSS, and whether the trace agrees with
/// the report (and, at seed 42, with the frozen derived summary).
pub fn obs_pass(args: &Args) {
    let cell = &SCALE_1K;
    let task_seed = cell.task_seed(args.seed);
    let (result, trace) = hc_obs::record_scope(0, || {
        hc_obs::name_track(0, "main");
        hc_obs::event(
            "bench",
            "grid",
            0,
            &[
                ("experiment", "exp_scale".into()),
                ("cells", 1usize.into()),
                ("reps", 1usize.into()),
            ],
        );
        run_replications(1, 1, |_| {
            let mut campaign = cell.build(task_seed, |g| g);
            let clock = Instant::now();
            let report = campaign.run().expect("the sharded engine runs the cell");
            (
                ScaleRow::new(cell.players, &report),
                clock.elapsed().as_secs_f64(),
            )
        })
    });
    let (row, run_s) = result
        .expect("the recorded pass does not panic")
        .pop()
        .expect("one task ran");
    let mut acc = hc_obs::analyze::DeriveAcc::new();
    for r in &trace.records {
        acc.add(r);
    }
    let derived = acc.finish();
    let counter = |k: &str| derived.counters.get(k).copied().unwrap_or(0);
    let windows = derived.spans.get("sim.shard/window").map_or(0, |s| s.count);
    let frozen_ok = args.seed != 42
        || std::fs::read_to_string(args.root.join(cell.frozen_trace))
            .is_ok_and(|f| f.trim() == derived.to_json().trim());
    let ok = frozen_ok
        && counter("core.pairs_live") == row.live_sessions
        && counter("core.pairs_replay") == row.solo_sessions
        && counter("metrics.outputs") == row.verified_labels as u64;
    let report = ObsReport {
        row: row.text(),
        ok,
        sessions: row.sessions(),
        run_s,
        records: trace.records.len() as u64,
        trace_bytes: hc_obs::sink::jsonl::render(&trace).len() as u64,
        peak_rss_mb: peak_rss_mb(),
        windows,
        messages: counter("shard.exchange.sent"),
        deferred: counter("shard.exchange.deferred"),
    };
    println!(
        "{}",
        serde_json::to_string(&report).expect("report serializes")
    );
}
