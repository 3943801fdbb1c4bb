//! [`ShardGame`]s that forward every call unchanged: one times each
//! call, one marks the time every so many sessions.
//!
//! Hub planning (`plan_live`/`plan_solo`) and session play (`play`) are
//! the two layers of the sharded engine that cross a public trait, so
//! wrapping the game is enough to time them without touching a library
//! file. The wrapper also keeps what each played session hands the hub,
//! so the platform layer can be replayed afterwards.

use hc_core::{Label, Platform, PlayerId, ScoreRule, SessionConfig, SessionTranscript, TaskId};
use hc_games::shard::{PlannedRound, PlayedSession, SessionJob, ShardGame};
use hc_sim::SimRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Calls, rounds and busy time of one layer. The counters publish no
/// other data, so relaxed atomics suffice.
#[derive(Debug, Default)]
pub struct LayerClock {
    calls: AtomicU64,
    rounds: AtomicU64,
    nanos: AtomicU64,
}

impl LayerClock {
    fn add(&self, rounds: usize, elapsed: Duration) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rounds.fetch_add(rounds as u64, Ordering::Relaxed);
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Rounds planned or played so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the layer, summed over threads.
    pub fn busy_secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// What one played session hands the hub's outcome apply.
#[derive(Debug)]
pub struct CapturedSession {
    /// Solo (replay-rescue) session.
    pub solo: bool,
    /// The session transcript.
    pub transcript: SessionTranscript,
    /// Agreements to ingest, in submission order.
    pub agreements: Vec<(TaskId, Label, PlayerId, PlayerId)>,
}

/// What the wrapper measured; shared with the caller, since the
/// campaign owns the wrapper itself.
#[derive(Debug, Default)]
pub struct GameStats {
    /// Hub planning.
    pub plan: LayerClock,
    /// Session play.
    pub play: LayerClock,
    captured: Mutex<Vec<CapturedSession>>,
}

impl GameStats {
    /// Takes the captured sessions, in session-id order.
    pub fn take_captured(&self) -> Vec<CapturedSession> {
        let mut sessions =
            std::mem::take(&mut *self.captured.lock().expect("capture lock is not poisoned"));
        sessions.sort_by_key(|s| s.transcript.id);
        sessions
    }
}

/// The timing wrapper.
#[derive(Debug)]
pub struct TimedGame<G> {
    inner: G,
    stats: Arc<GameStats>,
}

impl<G: ShardGame> TimedGame<G> {
    /// Wraps `inner`; the returned handle reads what it measured.
    pub fn new(inner: G) -> (Self, Arc<GameStats>) {
        let stats = Arc::new(GameStats::default());
        (
            TimedGame {
                inner,
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }
}

impl<G: ShardGame> ShardGame for TimedGame<G> {
    fn register(&self, platform: &mut Platform) {
        self.inner.register(platform);
    }

    fn plan_live(
        &self,
        platform: &mut Platform,
        seats: [PlayerId; 2],
        rng: &mut SimRng,
    ) -> Vec<PlannedRound> {
        let clock = Instant::now();
        let rounds = self.inner.plan_live(platform, seats, rng);
        self.stats.plan.add(rounds.len(), clock.elapsed());
        rounds
    }

    fn plan_solo(
        &self,
        platform: &mut Platform,
        player: PlayerId,
        rng: &mut SimRng,
    ) -> Option<Vec<PlannedRound>> {
        let clock = Instant::now();
        let rounds = self.inner.plan_solo(platform, player, rng);
        self.stats
            .plan
            .add(rounds.as_ref().map_or(0, Vec::len), clock.elapsed());
        rounds
    }

    fn play(
        &self,
        job: &mut SessionJob,
        cfg: SessionConfig,
        rule: ScoreRule,
        rng: &mut SimRng,
    ) -> PlayedSession {
        let clock = Instant::now();
        let outcome = self.inner.play(job, cfg, rule, rng);
        self.stats.play.add(outcome.rounds.len(), clock.elapsed());
        let agreements = outcome
            .rounds
            .iter()
            .flat_map(|r| {
                r.agreements
                    .iter()
                    .map(|(label, a, b)| (r.task, label.clone(), *a, *b))
            })
            .collect();
        self.stats
            .captured
            .lock()
            .expect("capture lock is not poisoned")
            .push(CapturedSession {
                solo: job.solo,
                transcript: outcome.transcript.clone(),
                agreements,
            });
        outcome
    }

    fn precision(&self, platform: &Platform) -> (usize, usize) {
        self.inner.precision(platform)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Instants marked during a campaign pass, shared with the caller.
#[derive(Debug, Default)]
pub struct Marks(Mutex<Vec<Instant>>);

impl Marks {
    /// Notes the time now.
    pub fn mark(&self) {
        let now = Instant::now();
        self.0.lock().expect("mark lock is not poisoned").push(now);
    }

    /// Seconds of each stretch between consecutive marks.
    pub fn stretches(&self) -> Vec<f64> {
        let marks = self.0.lock().expect("mark lock is not poisoned");
        marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }
}

/// A [`ShardGame`] that forwards every call unchanged and marks the time
/// every `every` sessions played. At one worker thread the engine runs
/// everything on the calling thread in the same order in every pass, so
/// the stretches between marks repeat identical work from pass to pass.
#[derive(Debug)]
pub struct Checkpointed<G> {
    inner: G,
    every: u64,
    played: AtomicU64,
    marks: Arc<Marks>,
}

impl<G: ShardGame> Checkpointed<G> {
    /// Wraps `inner`; the returned handle reads the marks.
    pub fn new(inner: G, every: u64) -> (Self, Arc<Marks>) {
        let marks = Arc::new(Marks::default());
        let game = Checkpointed {
            inner,
            every,
            played: AtomicU64::new(0),
            marks: Arc::clone(&marks),
        };
        (game, marks)
    }
}

impl<G: ShardGame> ShardGame for Checkpointed<G> {
    fn register(&self, platform: &mut Platform) {
        self.inner.register(platform);
    }

    fn plan_live(
        &self,
        platform: &mut Platform,
        seats: [PlayerId; 2],
        rng: &mut SimRng,
    ) -> Vec<PlannedRound> {
        self.inner.plan_live(platform, seats, rng)
    }

    fn plan_solo(
        &self,
        platform: &mut Platform,
        player: PlayerId,
        rng: &mut SimRng,
    ) -> Option<Vec<PlannedRound>> {
        self.inner.plan_solo(platform, player, rng)
    }

    fn play(
        &self,
        job: &mut SessionJob,
        cfg: SessionConfig,
        rule: ScoreRule,
        rng: &mut SimRng,
    ) -> PlayedSession {
        let outcome = self.inner.play(job, cfg, rule, rng);
        if (self.played.fetch_add(1, Ordering::Relaxed) + 1) % self.every == 0 {
            self.marks.mark();
        }
        outcome
    }

    fn precision(&self, platform: &Platform) -> (usize, usize) {
        self.inner.precision(platform)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_games::shard::{EspShardGame, ShardedCampaign, ShardedCampaignConfig};
    use hc_games::world::WorldConfig;
    use hc_sim::RngFactory;

    fn game(seed: u64) -> EspShardGame {
        let mut rng = RngFactory::new(seed).stream("world");
        EspShardGame::generate(&WorldConfig::small(), &mut rng)
    }

    fn report<G: ShardGame>(game: G, shards: usize, threads: usize) -> String {
        let config = ShardedCampaignConfig {
            shards,
            threads,
            ..ShardedCampaignConfig::small()
        };
        let mut campaign = ShardedCampaign::new(game, config, 7);
        format!("{:?}", campaign.run().expect("small campaign runs"))
    }

    #[test]
    fn wrappers_leave_the_report_identical_at_every_layout() {
        for (shards, threads) in [(1, 1), (2, 2)] {
            let plain = report(game(7), shards, threads);
            let (timed, stats) = TimedGame::new(game(7));
            let wrapped = report(timed, shards, threads);
            assert_eq!(plain, wrapped, "layout {shards}x{threads}");
            assert!(stats.play.calls() > 0);
            assert_eq!(stats.plan.calls(), stats.play.calls());
            assert_eq!(stats.take_captured().len() as u64, stats.play.calls());
            let (marked, marks) = Checkpointed::new(game(7), 10);
            let checkpointed = report(marked, shards, threads);
            assert_eq!(plain, checkpointed, "layout {shards}x{threads}");
            let stretches = marks.stretches();
            assert_eq!(stretches.len() as u64 + 1, stats.play.calls() / 10);
        }
    }
}
