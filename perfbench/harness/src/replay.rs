//! Layers that only engine-private code calls, replayed through their
//! public APIs at a workload's own call volume and timed from here.
//!
//! Each replay draws its inputs from the workload seed and sizes itself
//! from the workload's deterministic counts (arrivals, sweeps, sessions,
//! calendar entries), so it does the same amount of work as the
//! workload asks of that layer, though not the identical sequence.

use crate::timed::CapturedSession;
use hc_core::matchmaker::MatchmakerConfig;
use hc_core::{BucketPool, Matchmaker, Platform, PlatformConfig, PlayerId};
use hc_games::shard::ShardGame;
use hc_sim::{EventQueue, Exponential, RngFactory, SimDuration, SimRng, SimTime, WheelQueue};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Operations a replay performed and how long they took.
#[derive(Debug, Clone, Copy)]
pub struct Replayed {
    /// The replay's base count (the `ns_per_*` denominator).
    pub ops: u64,
    /// A secondary count the replay also performed (e.g. sweeps).
    pub extra: u64,
    /// Wall seconds for the whole replay.
    pub secs: f64,
}

impl Replayed {
    /// Nanoseconds per base operation.
    pub fn ns_per_op(&self) -> f64 {
        crate::sys::ratio(self.secs * 1e9, self.ops as f64)
    }
}

fn rng(seed: u64, layer: &str) -> SimRng {
    RngFactory::new(seed)
        .child("perfbench.replay")
        .stream(layer)
}

fn exp(mean_secs: f64) -> Exponential {
    Exponential::new(1.0 / mean_secs.max(1e-6)).expect("positive rate")
}

/// One serial campaign's volume: its population, the arrivals its
/// matchmaker paired and the sweep ticks it ran.
#[derive(Debug, Clone, Copy)]
pub struct SerialTask {
    /// Population.
    pub players: usize,
    /// Matchmaker arrivals.
    pub arrivals: u64,
    /// Sweep ticks to the horizon.
    pub sweeps: u64,
    /// Time between sweep ticks.
    pub sweep_interval: SimDuration,
}

/// Arrival times for `n` arrivals over `[0, horizon)`: one uniformly
/// placed in each of `n` equal slots, so they ascend at a steady rate.
fn arrival_times(rng: &mut SimRng, n: u64, horizon_secs: f64) -> Vec<SimTime> {
    let slot = horizon_secs / n.max(1) as f64;
    (0..n)
        .map(|i| SimTime::from_secs_f64(slot * (i as f64 + rng.gen::<f64>())))
        .collect()
}

/// The serial engine's heap [`EventQueue`]: per task, one opening
/// arrival per player and a self-rescheduling sweep tick, with each
/// popped arrival rescheduling itself until the task's arrival count is
/// spent. Base count: pushes plus pops.
pub fn event_queue(seed: u64, tasks: &[SerialTask]) -> Replayed {
    let mut rng = rng(seed, "event");
    let spread = exp(45.0 * 60.0);
    let clock = Instant::now();
    let mut ops = 0u64;
    for task in tasks {
        let mut queue: EventQueue<u32> = EventQueue::with_capacity(task.players + 1);
        // Mean gap that spreads the task's returns over its sweep horizon.
        let horizon = task.sweep_interval.as_secs_f64() * task.sweeps as f64;
        let again = exp(horizon * task.players as f64 / task.arrivals.max(1) as f64);
        for p in 0..task.players as u32 {
            queue.push(SimTime::from_secs_f64(spread.sample(&mut rng)), p + 1);
        }
        queue.push(SimTime::ZERO + task.sweep_interval, 0);
        let (mut arrivals, mut sweeps) = (task.players as u64, 1u64);
        ops += arrivals + 1;
        while let Some((now, ev)) = queue.pop() {
            ops += 1;
            if ev == 0 {
                if sweeps < task.sweeps {
                    queue.push(now + task.sweep_interval, 0);
                    sweeps += 1;
                    ops += 1;
                }
            } else if arrivals < task.arrivals {
                let gap = SimDuration::from_secs_f64(again.sample(&mut rng));
                queue.push(now + gap, black_box(ev));
                arrivals += 1;
                ops += 1;
            }
        }
    }
    Replayed {
        ops,
        extra: 0,
        secs: clock.elapsed().as_secs_f64(),
    }
}

/// The serial [`Matchmaker`]: per task, its arrivals spread over the
/// horizon with a timeout sweep at every tick, as the serial engine
/// drives it. Base count: arrivals; `extra`: sweeps.
pub fn matchmaker(seed: u64, tasks: &[SerialTask], config: MatchmakerConfig) -> Replayed {
    let mut rng = rng(seed, "matchmaker");
    let inputs: Vec<Vec<SimTime>> = tasks
        .iter()
        .map(|t| {
            let horizon = t.sweep_interval.as_secs_f64() * t.sweeps as f64;
            arrival_times(&mut rng, t.arrivals, horizon)
        })
        .collect();
    let clock = Instant::now();
    let (mut arrivals, mut sweeps) = (0u64, 0u64);
    for (task, times) in tasks.iter().zip(&inputs) {
        let mut mm = Matchmaker::new(config);
        let mut next = times.iter().enumerate().peekable();
        for tick in 1..=task.sweeps {
            let now = SimTime::ZERO + task.sweep_interval * tick;
            while let Some((i, &at)) = next.next_if(|&(_, &at)| at < now) {
                let player = PlayerId::new((i % task.players.max(1)) as u64);
                black_box(mm.on_arrival(at, player, &mut rng));
                arrivals += 1;
            }
            black_box(mm.take_timed_out(now));
            sweeps += 1;
        }
    }
    Replayed {
        ops: arrivals,
        extra: sweeps,
        secs: clock.elapsed().as_secs_f64(),
    }
}

/// The sharded engine's skill-tier [`BucketPool`]s: `arrivals` spread
/// evenly over `buckets` pools and over the horizon, each pool swept for
/// timeouts at every window end and drained at the horizon. Player ids
/// cycle over each tier's share of the population. Base count: arrivals.
pub fn bucket_pool(
    seed: u64,
    arrivals: u64,
    buckets: u32,
    players: usize,
    horizon: SimTime,
    window: SimDuration,
    config: MatchmakerConfig,
) -> Replayed {
    let mut rng = rng(seed, "bucket");
    let per_bucket = arrivals / u64::from(buckets.max(1));
    let tier = (players / buckets.max(1) as usize).max(2) as u64;
    let horizon_secs = horizon.as_secs_f64();
    let inputs: Vec<Vec<SimTime>> = (0..buckets)
        .map(|_| arrival_times(&mut rng, per_bucket, horizon_secs))
        .collect();
    let windows = (horizon_secs / window.as_secs_f64()).ceil() as u64;
    let clock = Instant::now();
    let mut done = 0u64;
    let mut scratch = Vec::new();
    for (b, times) in inputs.iter().enumerate() {
        let mut pool = BucketPool::with_capacity(config, tier as usize);
        let mut next = times.iter().enumerate().peekable();
        for w in 1..=windows {
            let end = SimTime::ZERO + window * w;
            while let Some((i, &at)) = next.next_if(|&(_, &at)| at < end) {
                let player = PlayerId::new(b as u64 * tier + i as u64 % tier);
                black_box(pool.on_arrival(at, player, &mut rng));
                done += 1;
            }
            scratch.clear();
            pool.take_timed_out_into(end, &mut scratch);
            black_box(pool.next_deadline());
        }
        scratch.clear();
        pool.abandon_all_into(&mut scratch);
    }
    Replayed {
        ops: done,
        extra: 0,
        secs: clock.elapsed().as_secs_f64(),
    }
}

/// One shard's arrival calendar ([`WheelQueue`]), per shard: its share
/// of the population pushed at first-arrival times, then drained window
/// by window with every popped arrival re-pushed as a return until the
/// shard's share of `pushes` is spent. Base count: pushes plus pops.
pub fn wheel(
    seed: u64,
    players: usize,
    shards: usize,
    pushes: u64,
    horizon: SimTime,
    spread: SimDuration,
    window: SimDuration,
) -> Replayed {
    let mut rng = rng(seed, "wheel");
    let first = exp(spread.as_secs_f64());
    let per_shard = players / shards.max(1);
    let budget = pushes / shards.max(1) as u64;
    // Mean return gap that spends the push budget by the horizon.
    let again = exp(horizon.as_secs_f64() * per_shard as f64 / budget.max(1) as f64);
    let clock = Instant::now();
    let mut ops = 0u64;
    for _ in 0..shards {
        let mut calendar: WheelQueue<u32> = WheelQueue::with_capacity(per_shard + 1);
        let mut pushed = 0u64;
        for p in 0..per_shard as u32 {
            let t = SimTime::from_secs_f64(first.sample(&mut rng));
            if t <= horizon {
                calendar.push(t, p);
                pushed += 1;
            }
        }
        let mut end = SimTime::ZERO;
        while !calendar.is_empty() {
            end += window;
            while let Some((t, p)) = calendar.pop_before(end) {
                ops += 1;
                let back = t + SimDuration::from_secs_f64(again.sample(&mut rng));
                if pushed < budget && back <= horizon {
                    calendar.push(back, black_box(p));
                    pushed += 1;
                }
            }
        }
        ops += pushed;
    }
    Replayed {
        ops,
        extra: 0,
        secs: clock.elapsed().as_secs_f64(),
    }
}

/// The platform's outcome apply, replayed on a fresh [`Platform`] from
/// the sessions a traced pass captured, in session-id order.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlatformReplay {
    /// `ingest_agreement` calls.
    pub agreements: u64,
    /// Agreements that newly promoted a verified label.
    pub promoted: u64,
    /// Seconds inside `ingest_agreement`.
    pub agreement_secs: f64,
    /// `record_session` calls (live sessions).
    pub sessions: u64,
    /// Seconds inside `record_session`.
    pub session_secs: f64,
}

/// Feeds `captured` through `Platform::ingest_agreement` and
/// `Platform::record_session`, timing each call.
pub fn platform<G: ShardGame>(
    game: &G,
    players: usize,
    captured: &[CapturedSession],
) -> PlatformReplay {
    let mut platform = Platform::new(PlatformConfig::default()).expect("default config is valid");
    game.register(&mut platform);
    for _ in 0..players {
        platform.register_player();
    }
    let mut out = PlatformReplay::default();
    for s in captured {
        platform.set_time(s.transcript.ended);
        for (task, label, a, b) in &s.agreements {
            let clock = Instant::now();
            let promoted = platform.ingest_agreement(*task, label.clone(), *a, *b);
            out.agreement_secs += clock.elapsed().as_secs_f64();
            out.agreements += 1;
            out.promoted += u64::from(matches!(promoted, Ok(true)));
        }
        if s.solo {
            platform.tasks_clear_seen(s.transcript.players[0]);
        } else {
            let clock = Instant::now();
            platform.record_session(&s.transcript);
            out.session_secs += clock.elapsed().as_secs_f64();
            out.sessions += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_do_the_volume_they_are_sized_for() {
        let tasks = [SerialTask {
            players: 8,
            arrivals: 300,
            sweeps: 100,
            sweep_interval: SimDuration::from_secs(5),
        }];
        let mm = matchmaker(1, &tasks, MatchmakerConfig::default());
        assert_eq!((mm.ops, mm.extra), (300, 100));
        let bucket = bucket_pool(
            1,
            800,
            8,
            1000,
            SimTime::from_secs(600),
            SimDuration::from_secs(10),
            MatchmakerConfig::default(),
        );
        assert_eq!(bucket.ops, 800);
        let q = event_queue(1, &tasks);
        // Every push is popped: opening arrivals, sweeps, re-arrivals.
        assert_eq!(q.ops, 2 * (300 + 100));
        let w = wheel(
            1,
            100,
            2,
            400,
            SimTime::from_secs(600),
            SimDuration::from_secs(60),
            SimDuration::from_secs(10),
        );
        assert!(w.ops > 0 && w.ops <= 2 * 400);
    }
}
