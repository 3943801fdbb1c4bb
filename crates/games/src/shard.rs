//! Sharded single-run campaigns over the [`hc_sim::shard`] engine.
//!
//! [`EspCampaign`](crate::esp::EspCampaign) and the generic
//! [`Campaign`](crate::campaign::Campaign) process one event at a time on
//! one core; this module re-architects the same deployment dynamics
//! (Poisson sittings, random matching, replay-bot fallback,
//! engagement-driven returns) as a [`ShardWorkload`] so one run scales
//! across cores while staying byte-identical at any `--shards` ×
//! `--threads` combination.
//!
//! ## Who owns what
//!
//! * **Shards** (`player_id % K`) own idle player profiles
//!   ([`PlayerStore`]), sitting plans (arena-allocated in a
//!   [`SliceArena`]), arrival calendars, and — the hot path — *session
//!   play*: every planned session is executed entirely on a worker
//!   thread from its own per-session RNG stream. **Matchmaking is
//!   sharded too**: the wait pool is partitioned into deterministic
//!   skill tiers ([`BucketLayout`]); bucket `b` lives on shard `b % K`
//!   as a [`BucketPool`] and pairing runs inside the shard window, with
//!   each arrival drawing from the bucket's own counter-indexed RNG
//!   stream.
//! * **The hub** owns everything semantically global: the
//!   [`Platform`] (task queues, verification, scoring, anti-cheat,
//!   replay store) and session-id allocation. It plans sessions and
//!   applies outcomes — its per-window work is proportional to the
//!   sessions starting and finishing, never to raw arrival traffic, so
//!   it falls off the critical path of large runs.
//!
//! ## The session protocol
//!
//! ```text
//! shard --Arrived{profile}--->  shard b % K    (arrival flies to its skill bucket)
//! shard --Paired{w, a}------->  hub            (bucket pool matched two players)
//! shard --TimedOut{profile}-->  hub            (bot-fallback deadline expired)
//! hub   --Play(SessionJob)--->  shard sid % K  (planned rounds + profiles)
//! shard --Done{outcome}------>  hub            (transcript + per-round effects)
//! shard --Return{profile}---->  shard p % K    (profile flies home)
//! hub   --Return{profile}---->  shard p % K    (give-up: no solo mode)
//! ```
//!
//! The hub *plans* sessions (task selection, taboo lists, replay
//! recordings — everything that reads platform state) and *applies*
//! outcomes in session-id order; shards *play* them purely from the
//! plan. Planning is optimistic: up to `max_rounds` rounds are planned
//! and marked served even when the session ends early — a documented,
//! deterministic deviation from the serial campaigns (see DESIGN.md,
//! "Sharding & determinism"). Matching inside a skill tier and the
//! arrival→bucket delivery hop (pairing lands one window after the
//! arrival is emitted) are likewise documented deviations.
//!
//! Replay-fallback sweeps run on the owning shard at each bucket's own
//! deadline windows ([`BucketPool::next_deadline`] feeds the shard
//! wake), so timeout timing is a pure function of pool contents —
//! never of which other work happens to share the shard.
//!
//! Exchange keys are pure functions of simulation state (times, player
//! ids, session ids), never of the shard layout, which is what makes
//! the merged order — and therefore every downstream byte —
//! `K`-invariant.

use crate::params::SessionParams;
use crate::world::WorldConfig;
use hc_collect::{DetMap, PlayerStore, SliceArena, Span};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, EngagementModel, PlayerProfile, PopulationBuilder};
use hc_sim::dist::Exponential;
use hc_sim::shard::{
    Addr, HubDecision, Mailbox, ShardConfig, ShardError, ShardWorkload, WindowInfo,
};
use hc_sim::{OnlineStats, RngFactory, SimRng, WheelQueue};
use rand::Rng;

/// Pause between rounds within a session (mirrors the serial drivers).
const INTER_ROUND_GAP: SimDuration = SimDuration::from_secs(2);

/// Maximum answers one seat may produce per round (ESP interface).
const MAX_GUESSES_PER_SEAT: usize = 15;

/// Maximum hints a Verbosity narrator sends per round.
const MAX_HINTS: usize = 6;

/// Verbosity guesses allowed per hint received.
const GUESSES_PER_HINT: usize = 2;

// Exchange-key tags (bits 120+). `Play`/`Done` use the raw session id
// (tag 0); timestamped player messages get a tag so the keyspaces never
// collide within one (window, destination) inbox.
const TAG_ARRIVED: u128 = 1 << 120;
const TAG_RETURN: u128 = 2 << 120;
const TAG_PAIRED: u128 = 3 << 120;
const TAG_TIMEOUT: u128 = 4 << 120;

/// Key for a timestamped per-player message: unique because a player
/// sends at most one arrival (and receives at most one return) per
/// window, and independent of the shard layout.
fn player_key(tag: u128, at: SimTime, player: PlayerId) -> u128 {
    tag | (u128::from(at.ticks()) << 64) | u128::from(player.raw())
}

/// One hub-planned round, shipped to the playing shard.
#[derive(Debug, Clone)]
pub struct PlannedRound {
    /// Task to play.
    pub task: TaskId,
    /// Taboo list frozen at plan time.
    pub taboo: TabooList,
    /// Replay recording for solo sessions (`None` live or unseeded).
    pub recording: Option<RecordedRound>,
}

/// Everything a shard needs to play one session without the platform.
#[derive(Debug)]
pub struct SessionJob {
    /// Allocated session id (also the exchange key and RNG index).
    pub sid: SessionId,
    /// Simulated start time.
    pub start: SimTime,
    /// Seated players (`[p, p]` for solo sessions).
    pub seats: [PlayerId; 2],
    /// `true` for a replay/give-up-rescue solo session.
    pub solo: bool,
    /// Owned profiles travelling with the job (2 live, 1 solo).
    pub profiles: Vec<PlayerProfile>,
    /// Hub-planned rounds, in play order.
    pub rounds: Vec<PlannedRound>,
}

/// Platform effects of one played round, applied by the hub in order.
#[derive(Debug)]
pub struct PlayedRound {
    /// The round's task.
    pub task: TaskId,
    /// Agreements to ingest, in submission order.
    pub agreements: Vec<(Label, PlayerId, PlayerId)>,
    /// Left-seat trace recorded for future replay bots.
    pub recording: Option<RecordedRound>,
}

/// A fully played session: the transcript plus the hub-applied effects.
#[derive(Debug)]
pub struct PlayedSession {
    /// The session transcript (recorded by the hub).
    pub transcript: SessionTranscript,
    /// Per-round platform effects, in play order.
    pub rounds: Vec<PlayedRound>,
}

/// Cross-shard campaign traffic.
#[derive(Debug)]
pub enum CampaignMsg {
    /// A player starts or resumes a sitting (home shard → the shard
    /// owning the player's skill bucket, with profile).
    Arrived {
        /// The arriving player's profile (ownership moves with it).
        profile: Box<PlayerProfile>,
    },
    /// A bucket pool matched two players (bucket shard → hub).
    Paired {
        /// The player who was waiting in the pool.
        waiter: Box<PlayerProfile>,
        /// The player whose arrival completed the pair.
        arriver: Box<PlayerProfile>,
        /// How long the waiter waited.
        waited: SimDuration,
    },
    /// A waiter crossed the bot-fallback deadline (bucket shard → hub).
    TimedOut {
        /// The timed-out player's profile.
        profile: Box<PlayerProfile>,
    },
    /// A planned session to execute (hub → shard `sid % K`).
    Play(Box<SessionJob>),
    /// A finished session's outcome (playing shard → hub).
    Done {
        /// Whether this was a solo (replay-rescue) session.
        solo: bool,
        /// Transcript and effects.
        outcome: Box<PlayedSession>,
    },
    /// A profile returns to its home shard after playing or giving up.
    Return {
        /// The returning player's profile.
        profile: Box<PlayerProfile>,
        /// Play time to charge against the sitting; `None` for a
        /// give-up (the sitting continues at the next return visit).
        played: Option<SimDuration>,
    },
}

/// A concrete game exposed over the sharded API: the hub-side planner
/// and the pure shard-side player.
pub trait ShardGame: Send + Sync + std::fmt::Debug {
    /// Registers the game's tasks on a fresh platform.
    fn register(&self, platform: &mut Platform);

    /// Plans a live session for `seats` (hub side; may mutate platform
    /// scheduling state).
    fn plan_live(
        &self,
        platform: &mut Platform,
        seats: [PlayerId; 2],
        rng: &mut SimRng,
    ) -> Vec<PlannedRound>;

    /// Plans a solo fallback session for a timed-out waiter, or `None`
    /// when the game has no solo mode (the player gives up instead).
    fn plan_solo(
        &self,
        platform: &mut Platform,
        player: PlayerId,
        rng: &mut SimRng,
    ) -> Option<Vec<PlannedRound>>;

    /// Plays a planned session purely: no platform, all randomness from
    /// `rng` (the session's own indexed stream, identical wherever the
    /// session lands). Profiles live inside `job`.
    fn play(
        &self,
        job: &mut SessionJob,
        cfg: SessionConfig,
        rule: ScoreRule,
        rng: &mut SimRng,
    ) -> PlayedSession;

    /// `(correct, total)` of the platform's verified outputs against
    /// this game's world truth.
    fn precision(&self, platform: &Platform) -> (usize, usize);

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Sharded campaign configuration.
#[derive(Debug, Clone)]
pub struct ShardedCampaignConfig {
    /// Platform/verification parameters.
    pub platform: PlatformConfig,
    /// Population size.
    pub players: usize,
    /// Behaviour mix.
    pub mix: ArchetypeMix,
    /// Engagement (sitting length / churn) model.
    pub engagement: EngagementModel,
    /// Mean gap between a player's sittings.
    pub mean_return_gap: SimDuration,
    /// Simulated horizon: no new sittings or sessions start after this.
    pub horizon: SimTime,
    /// Spread of first arrivals.
    pub arrival_spread: SimDuration,
    /// Shard count `K` (players are keyed `id % K`).
    pub shards: usize,
    /// Worker threads for the shard phase.
    pub threads: usize,
    /// Lock-step window length (also the matchmaker sweep cadence).
    pub window: SimDuration,
    /// Skill tiers the wait pool is partitioned into. A **semantic**
    /// parameter — it narrows who can pair with whom — so it must never
    /// be derived from the shard count: the same population must
    /// produce the same pairings at any layout.
    pub match_buckets: u32,
}

impl ShardedCampaignConfig {
    /// A small, fast configuration for tests.
    #[must_use]
    pub fn small() -> Self {
        ShardedCampaignConfig {
            platform: PlatformConfig::default(),
            players: 40,
            mix: ArchetypeMix::realistic(),
            engagement: EngagementModel::esp_calibrated(),
            mean_return_gap: SimDuration::from_mins(60),
            horizon: SimTime::from_secs(4 * 3600),
            arrival_spread: SimDuration::from_mins(30),
            shards: 2,
            threads: 1,
            window: SimDuration::from_secs(5),
            match_buckets: 2,
        }
    }
}

/// What a sharded campaign run produced. Engine statistics (window and
/// step counts) are deliberately excluded: step counts depend on `K`,
/// and everything in this report must be `K`/`thread`-invariant.
#[derive(Debug, Clone)]
pub struct ShardedCampaignReport {
    /// Which game ran.
    pub game: &'static str,
    /// The paper's three metrics over the campaign.
    pub metrics: GwapMetrics,
    /// Verified outputs: `(correct, total)` against world truth.
    pub precision: (usize, usize),
    /// Live + replay pairing statistics.
    pub matchmaker: hc_core::matchmaker::MatchmakerStats,
    /// Live two-player sessions completed.
    pub live_sessions: u64,
    /// Solo (replay-rescue) sessions completed.
    pub solo_sessions: u64,
    /// Mean matchmaking wait (seconds).
    pub mean_wait_secs: f64,
}

impl ShardedCampaignReport {
    /// Precision as a fraction (1.0 when nothing verified).
    #[must_use]
    pub fn precision_rate(&self) -> f64 {
        if self.precision.1 == 0 {
            1.0
        } else {
            self.precision.0 as f64 / self.precision.1 as f64
        }
    }
}

/// Per-player sitting plan; the sitting lengths live in the shard's
/// shared [`SliceArena`].
#[derive(Debug)]
struct SittingPlan {
    span: Span,
    next: u32,
    remaining: SimDuration,
    /// Gap draws so far — indexes the player's stateless gap RNG.
    gap_draws: u64,
}

/// One skill tier's matchmaking state, hosted on shard `bucket % K`.
///
/// Shard-reachable: no telemetry, no un-indexed RNG (rule R1). The
/// per-arrival stream is `indexed_stream("shard.match", (bucket << 40)
/// | draws)`, so the draw sequence is a pure function of the bucket's
/// arrival subsequence — identical wherever the bucket is hosted.
#[derive(Debug)]
struct MatchBucket {
    bucket: u32,
    pool: BucketPool,
    /// Profiles of queued waiters, keyed by player id.
    parked: DetMap<u64, PlayerProfile>,
    /// Arrivals handled so far — indexes the bucket's match RNG.
    draws: u64,
}

/// One shard's state: the players it is home to plus the skill-tier
/// match pools it owns (`bucket % K == shard`, ascending).
#[derive(Debug)]
pub struct GameShard {
    idle: PlayerStore<PlayerProfile>,
    plans: PlayerStore<SittingPlan>,
    sittings: SliceArena<SimDuration>,
    calendar: WheelQueue<PlayerId>,
    buckets: Vec<MatchBucket>,
    /// Reused timeout/abandon sweep output; never reallocated in
    /// steady state.
    sweep_scratch: Vec<PlayerId>,
}

/// The sharded deployment: implements [`ShardWorkload`] with shard-side
/// play and hub-side planning/application.
#[derive(Debug)]
pub struct ShardedCampaign<D: ShardGame> {
    driver: D,
    config: ShardedCampaignConfig,
    factory: RngFactory,
    session_cfg: SessionConfig,
    rule: ScoreRule,
    layout: BucketLayout,
    // Hub state (stepped serially on the calling thread).
    platform: Platform,
    session_ids: hc_core::id::IdAllocator<SessionId>,
    plan_rng: SimRng,
    in_flight: u64,
    live_sessions: u64,
    solo_sessions: u64,
    solo_play: ContributionLedger,
    // Bucket-pool statistics, merged post-run in ascending bucket order
    // so the floating-point reduction is layout-invariant.
    match_stats: hc_core::matchmaker::MatchmakerStats,
    wait_stats: OnlineStats,
    shards: Option<Vec<GameShard>>,
}

impl<D: ShardGame> ShardedCampaign<D> {
    /// Builds a campaign: world tasks registered, players dealt to their
    /// home shards with per-player plan/arrival RNG streams.
    ///
    /// # Panics
    ///
    /// Panics when the platform config is invalid or `shards == 0`.
    #[must_use]
    pub fn new(driver: D, config: ShardedCampaignConfig, seed: u64) -> Self {
        assert!(config.shards > 0, "at least one shard is required");
        let factory = RngFactory::new(seed);
        let mut platform = Platform::new(config.platform).expect("valid platform config"); // hc-analyze: allow(P1): documented # Panics contract for invalid experiment configs
        driver.register(&mut platform);
        let mut pop_rng = factory.stream("population");
        let population = PopulationBuilder::new(config.players)
            .mix(config.mix.clone())
            .build(&mut pop_rng);
        for _ in 0..config.players {
            platform.register_player();
        }
        let spread = Exponential::new(1.0 / config.arrival_spread.as_secs_f64().max(1e-6))
            .expect("positive spread"); // hc-analyze: allow(P1): rate argument clamped to at least 1e-6
        let k = config.shards;
        let layout = BucketLayout::new(config.match_buckets);
        let mm_cfg = platform.config().matchmaker;
        // Pre-size every per-player structure from the plan cardinality:
        // a shard is home to ~players/K calendars and hosts pools that
        // can hold at worst one tier's whole population.
        let per_shard = config.players / k + 1;
        let per_bucket = config.players / layout.buckets() as usize + 1;
        let mut shards: Vec<GameShard> = (0..k)
            .map(|s| GameShard {
                idle: PlayerStore::strided(k as u64, s as u64),
                plans: PlayerStore::strided(k as u64, s as u64),
                sittings: SliceArena::new(),
                calendar: WheelQueue::with_capacity(per_shard),
                buckets: (0..layout.buckets() as usize)
                    .filter(|b| b % k == s)
                    .map(|b| MatchBucket {
                        bucket: b as u32,
                        pool: BucketPool::with_capacity(mm_cfg, per_bucket),
                        parked: DetMap::with_capacity(per_bucket),
                        draws: 0,
                    })
                    .collect(),
                sweep_scratch: Vec::new(),
            })
            .collect();
        for profile in population.players() {
            let p = profile.id;
            let shard = &mut shards[(p.raw() % k as u64) as usize];
            let lifetime = config
                .engagement
                .sample_lifetime(&mut factory.indexed_stream("player.plan", p.raw()));
            let span = shard.sittings.alloc(lifetime.session_lengths);
            shard.plans.insert(
                p.raw(),
                SittingPlan {
                    span,
                    next: 0,
                    remaining: SimDuration::ZERO,
                    gap_draws: 0,
                },
            );
            let first = SimTime::from_secs_f64(
                spread.sample(&mut factory.indexed_stream("player.arrival", p.raw())),
            );
            if first <= config.horizon {
                shard.calendar.push(first, p);
            }
            shard.idle.insert(p.raw(), profile.clone());
        }
        let session_cfg = platform.config().session;
        let rule = platform.score_rule();
        let plan_rng = factory.stream("shard.plan");
        ShardedCampaign {
            driver,
            config,
            factory,
            session_cfg,
            rule,
            layout,
            platform,
            session_ids: hc_core::id::IdAllocator::new(),
            plan_rng,
            in_flight: 0,
            live_sessions: 0,
            solo_sessions: 0,
            solo_play: ContributionLedger::new(),
            match_stats: hc_core::matchmaker::MatchmakerStats::default(),
            wait_stats: OnlineStats::new(),
            shards: Some(shards),
        }
    }

    /// Runs the campaign to quiescence and reports.
    ///
    /// # Errors
    ///
    /// Propagates engine failures ([`ShardError`]) — a panicking shard,
    /// a dead worker, or a window-cap overrun.
    pub fn run(&mut self) -> std::result::Result<ShardedCampaignReport, ShardError> {
        let mut shards = self.shards.take().ok_or_else(|| ShardError::Config {
            message: "run() may only be called once".to_string(),
        })?;
        let cfg = ShardConfig::new(self.config.threads, self.config.window);
        // Scope span: the engine's run/window spans and every session
        // span nest under the campaign. Closed at the sim-time
        // high-water mark so the last window stays inside it.
        let campaign = hc_obs::enter("games", "shard.campaign", 0);
        hc_sim::shard::run(&cfg, self, &mut shards)?;
        // Reduce per-bucket matchmaking statistics in ascending bucket
        // order — a fixed reduction order keeps the floating-point sums
        // byte-identical at any shard layout.
        let mut tiers: Vec<&MatchBucket> = shards.iter().flat_map(|s| s.buckets.iter()).collect();
        tiers.sort_by_key(|mb| mb.bucket);
        for mb in tiers {
            self.match_stats.merge(&mb.pool.stats());
            self.wait_stats.merge(mb.pool.wait_stats());
        }
        campaign.close(&[
            ("live_sessions", self.live_sessions.into()),
            ("solo_sessions", self.solo_sessions.into()),
        ]);
        Ok(self.report())
    }

    /// The platform, for post-run inspection.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    fn report(&self) -> ShardedCampaignReport {
        // Campaign ALP = platform ledger (live sessions) merged with
        // solo-session play time, mirroring `EspCampaign::report`.
        let mut ledger = ContributionLedger::new();
        ledger.merge(&self.solo_play);
        let platform_metrics = self.platform.metrics();
        let hours = platform_metrics.total_human_hours + ledger.total_human_hours();
        let players = platform_metrics.player_count.max(ledger.player_count());
        let throughput = if hours > 0.0 {
            platform_metrics.total_outputs as f64 / hours
        } else {
            0.0
        };
        let alp = if players > 0 {
            hours / players as f64
        } else {
            0.0
        };
        ShardedCampaignReport {
            game: self.driver.name(),
            metrics: GwapMetrics {
                throughput_per_human_hour: throughput,
                alp_hours: alp,
                expected_contribution: throughput * alp,
                total_outputs: platform_metrics.total_outputs,
                total_human_hours: hours,
                player_count: players,
            },
            precision: self.driver.precision(&self.platform),
            matchmaker: self.match_stats,
            live_sessions: self.live_sessions,
            solo_sessions: self.solo_sessions,
            mean_wait_secs: self.wait_stats.mean(),
        }
    }

    fn home(&self, player: PlayerId) -> usize {
        (player.raw() % self.config.shards as u64) as usize
    }

    /// Shard-side: a profile lands home after a session (or give-up);
    /// update the sitting plan and schedule the next arrival.
    fn receive_return(
        &self,
        state: &mut GameShard,
        at: SimTime,
        profile: PlayerProfile,
        played: Option<SimDuration>,
    ) {
        let p = profile.id;
        let plan = state.plans.get_mut(p.raw()).expect("planned player"); // hc-analyze: allow(P1): every player gets a plan at construction
        let next_arrival = match played {
            Some(d) => {
                plan.remaining = plan
                    .remaining
                    .saturating_sub(d.max(SimDuration::from_secs(1)));
                if !plan.remaining.is_zero() {
                    Some(at)
                } else if (plan.next as usize) < plan.span.len() {
                    Some(at + self.gap_after(plan, p))
                } else {
                    None // churned for good
                }
            }
            // Give-up: the sitting continues at the next return visit.
            None => Some(at + self.gap_after(plan, p)),
        };
        state.idle.insert(p.raw(), profile);
        if let Some(t) = next_arrival {
            if t <= self.config.horizon {
                state.calendar.push(t, p);
            }
        }
    }

    /// Draws a return gap from the player's stateless counter-indexed
    /// stream — identical no matter which shard layout runs the draw.
    fn gap_after(&self, plan: &mut SittingPlan, p: PlayerId) -> SimDuration {
        let mut rng = self
            .factory
            .indexed_stream("player.gap", (plan.gap_draws << 40) | p.raw());
        plan.gap_draws += 1;
        let gap = Exponential::new(1.0 / self.config.mean_return_gap.as_secs_f64().max(1e-6))
            .expect("positive gap") // hc-analyze: allow(P1): rate argument clamped to at least 1e-6
            .sample(&mut rng);
        SimDuration::from_secs_f64(gap)
    }

    /// Hub-side: a bucket pool paired two players; plan and dispatch
    /// the session. The hub also owns the pairing telemetry — bucket
    /// pools are shard-reachable and must stay silent, so the pair is
    /// reported here through the serial matchmaker's own emitter.
    fn on_paired(
        &mut self,
        at: SimTime,
        waiter: PlayerProfile,
        arriver: PlayerProfile,
        waited: SimDuration,
        mail: &mut Mailbox<CampaignMsg>,
    ) {
        self.platform.set_time(at);
        let seats = [waiter.id, arriver.id];
        hc_core::matchmaker::record_live_pair(at, arriver.id, waiter.id, waited);
        let sid = self.session_ids.next();
        let rounds = self
            .driver
            .plan_live(&mut self.platform, seats, &mut self.plan_rng);
        self.dispatch(
            mail,
            SessionJob {
                sid,
                start: at,
                seats,
                solo: false,
                profiles: vec![waiter, arriver],
                rounds,
            },
        );
    }

    /// Hub-side: sends a planned session to the shard keyed by its id.
    fn dispatch(&mut self, mail: &mut Mailbox<CampaignMsg>, job: SessionJob) {
        self.in_flight += 1;
        let dest = (job.sid.raw() % self.config.shards as u64) as usize;
        let key = u128::from(job.sid.raw());
        mail.send(
            Addr::Shard(dest),
            job.start,
            key,
            CampaignMsg::Play(Box::new(job)),
        );
    }

    /// Hub-side: applies a finished session's effects in play order.
    fn apply_done(&mut self, solo: bool, outcome: PlayedSession) {
        self.in_flight -= 1;
        let transcript = &outcome.transcript;
        self.platform.set_time(transcript.ended);
        for round in &outcome.rounds {
            for (label, a, b) in &round.agreements {
                let _ = self
                    .platform
                    .ingest_agreement(round.task, label.clone(), *a, *b);
            }
            if let Some(rec) = &round.recording {
                self.platform.replay_mut().record(rec.clone());
            }
        }
        if solo {
            let player = transcript.players[0];
            self.platform.tasks_clear_seen(player);
            self.solo_play.record_play(player, transcript.duration());
            self.solo_sessions += 1;
        } else {
            self.platform.record_session(transcript);
            self.live_sessions += 1;
        }
        if hc_obs::active() {
            hc_obs::span(
                "games",
                "shard.session",
                transcript.started.ticks(),
                transcript.ended.ticks(),
                &[
                    ("rounds", transcript.rounds().into()),
                    ("matched", transcript.matched_count().into()),
                    ("solo", u64::from(solo).into()),
                ],
            );
        }
    }

    /// Hub-side: rescue one timed-out waiter (solo session or give-up).
    fn on_timed_out(
        &mut self,
        at: SimTime,
        profile: PlayerProfile,
        mail: &mut Mailbox<CampaignMsg>,
    ) {
        self.platform.set_time(at);
        let p = profile.id;
        match self
            .driver
            .plan_solo(&mut self.platform, p, &mut self.plan_rng)
        {
            Some(rounds) => {
                if hc_obs::active() {
                    hc_obs::counter("core.pairs_replay", at.ticks(), 1);
                    hc_obs::event(
                        "core",
                        "replay_fallback",
                        at.ticks(),
                        &[("player", u64::from(p).into())],
                    );
                }
                let sid = self.session_ids.next();
                self.dispatch(
                    mail,
                    SessionJob {
                        sid,
                        start: at,
                        seats: [p, p],
                        solo: true,
                        profiles: vec![profile],
                        rounds,
                    },
                );
            }
            None => {
                // No solo mode: give up and return at a later sitting.
                mail.send(
                    Addr::Shard(self.home(p)),
                    at,
                    player_key(TAG_RETURN, at, p),
                    CampaignMsg::Return {
                        profile: Box::new(profile),
                        played: None,
                    },
                );
            }
        }
    }
}

impl<D: ShardGame> ShardWorkload for ShardedCampaign<D> {
    type Shard = GameShard;
    type Msg = CampaignMsg;

    fn shard_step(
        &self,
        _shard: usize,
        state: &mut GameShard,
        win: &WindowInfo,
        inbox: Vec<(SimTime, CampaignMsg)>,
        mail: &mut Mailbox<CampaignMsg>,
    ) -> Option<SimTime> {
        let k = self.config.shards;
        for (at, msg) in inbox {
            match msg {
                CampaignMsg::Play(job) => {
                    let mut job = *job;
                    let mut rng = self.factory.indexed_stream("shard.session", job.sid.raw());
                    let outcome = self
                        .driver
                        .play(&mut job, self.session_cfg, self.rule, &mut rng);
                    let end = outcome.transcript.ended;
                    let played = outcome.transcript.duration();
                    mail.send(
                        Addr::Hub,
                        end,
                        u128::from(job.sid.raw()),
                        CampaignMsg::Done {
                            solo: job.solo,
                            outcome: Box::new(outcome),
                        },
                    );
                    for profile in job.profiles {
                        let home = self.home(profile.id);
                        let key = player_key(TAG_RETURN, end, profile.id);
                        mail.send(
                            Addr::Shard(home),
                            end,
                            key,
                            CampaignMsg::Return {
                                profile: Box::new(profile),
                                played: Some(played),
                            },
                        );
                    }
                }
                CampaignMsg::Return { profile, played } => {
                    self.receive_return(state, at, *profile, played);
                }
                CampaignMsg::Arrived { profile } => {
                    // This shard owns the arriver's skill bucket: pair
                    // against the tier pool or park the profile.
                    let profile = *profile;
                    let b = self.layout.bucket_of(profile.skill);
                    let mb = &mut state.buckets[b as usize / k]; // hc-analyze: allow(P1): bucket b is hosted at index b/K on shard b%K by construction
                    debug_assert_eq!(mb.bucket, b, "arrival routed to the wrong bucket host");
                    let mut rng = self
                        .factory
                        .indexed_stream("shard.match", (u64::from(b) << 40) | mb.draws);
                    mb.draws += 1;
                    match mb.pool.on_arrival(at, profile.id, &mut rng) {
                        MatchDecision::Paired { partner, waited } => {
                            let waiter = mb.parked.remove(&partner.raw()).expect("parked waiter"); // hc-analyze: allow(P1): queued players always park their profile
                            mail.send(
                                Addr::Hub,
                                at,
                                player_key(TAG_PAIRED, at, profile.id),
                                CampaignMsg::Paired {
                                    waiter: Box::new(waiter),
                                    arriver: Box::new(profile),
                                    waited,
                                },
                            );
                        }
                        MatchDecision::Queued => {
                            mb.parked.insert(profile.id.raw(), profile);
                        }
                    }
                }
                CampaignMsg::Paired { .. }
                | CampaignMsg::TimedOut { .. }
                | CampaignMsg::Done { .. } => {
                    debug_assert!(false, "hub-bound message delivered to a shard");
                }
            }
        }
        // Emit this window's arrivals (including any scheduled by the
        // returns above) to their bucket-owning shards.
        while let Some((t, p)) = state.calendar.pop_before(win.last_tick()) {
            let plan = state.plans.get_mut(p.raw()).expect("planned player"); // hc-analyze: allow(P1): every player gets a plan at construction
            if plan.remaining.is_zero() {
                if plan.next as usize >= plan.span.len() {
                    continue; // churned
                }
                let len = state.sittings.get(plan.span)[plan.next as usize];
                plan.next += 1;
                plan.remaining = len;
            }
            let Some(profile) = state.idle.take(p.raw()) else {
                debug_assert!(false, "arrival for a player who is not home");
                continue;
            };
            let dest = (self.layout.bucket_of(profile.skill) as usize) % k;
            mail.send(
                Addr::Shard(dest),
                t,
                player_key(TAG_ARRIVED, t, p),
                CampaignMsg::Arrived {
                    profile: Box::new(profile),
                },
            );
        }
        // Sweep the owned tier pools. Within the horizon, expired
        // waiters spill to the hub for replay rescue; past it nobody
        // new arrives, so any stragglers abandon. Sweeps in windows
        // before a pool's deadline are no-ops, which is what makes
        // timeout timing independent of co-scheduled shard work.
        let sweep_at = win.last_tick();
        if sweep_at <= self.config.horizon {
            for mb in &mut state.buckets {
                state.sweep_scratch.clear();
                if mb
                    .pool
                    .take_timed_out_into(sweep_at, &mut state.sweep_scratch)
                    == 0
                {
                    continue;
                }
                for &p in &state.sweep_scratch {
                    let profile = mb.parked.remove(&p.raw()).expect("parked waiter"); // hc-analyze: allow(P1): queued players always park their profile
                    mail.send(
                        Addr::Hub,
                        sweep_at,
                        player_key(TAG_TIMEOUT, sweep_at, p),
                        CampaignMsg::TimedOut {
                            profile: Box::new(profile),
                        },
                    );
                }
            }
        } else {
            for mb in &mut state.buckets {
                state.sweep_scratch.clear();
                mb.pool.abandon_all_into(&mut state.sweep_scratch);
                for &p in &state.sweep_scratch {
                    mb.parked.remove(&p.raw());
                }
            }
        }
        // Wake at the next calendar arrival or the earliest tier-pool
        // deadline, whichever comes first: the deadline wake is what
        // guarantees every pool's timeout window is actually stepped.
        let mut wake = state.calendar.peek_time();
        for mb in &state.buckets {
            if let Some(d) = mb.pool.next_deadline() {
                wake = Some(wake.map_or(d, |w| w.min(d)));
            }
        }
        wake
    }

    fn hub_step(
        &mut self,
        win: &WindowInfo,
        inbox: Vec<(SimTime, CampaignMsg)>,
        mail: &mut Mailbox<CampaignMsg>,
    ) -> HubDecision {
        // Canonical key order: all Dones (sid order) land first, then
        // Paireds ((time, arriver) order), then TimedOuts ((time,
        // player) order) — outcomes apply before new sessions are
        // planned, and pairing consumes the plan stream before replay
        // fallback, identically in every layout.
        let processed = inbox.len() as u64;
        for (at, msg) in inbox {
            match msg {
                CampaignMsg::Done { solo, outcome } => self.apply_done(solo, *outcome),
                CampaignMsg::Paired {
                    waiter,
                    arriver,
                    waited,
                } => self.on_paired(at, *waiter, *arriver, waited, mail),
                CampaignMsg::TimedOut { profile } => self.on_timed_out(at, *profile, mail),
                CampaignMsg::Play(_) | CampaignMsg::Return { .. } | CampaignMsg::Arrived { .. } => {
                    debug_assert!(false, "shard-bound message delivered to the hub");
                }
            }
        }
        if processed > 0 && hc_obs::active() {
            // Deterministic hub work proxy: one simulated microsecond
            // per message processed. Sim-time trace tooling attributes
            // serial-hub load from this span; it is layout-invariant
            // because the hub inbox is.
            hc_obs::span(
                "games",
                "hub",
                win.start.ticks(),
                win.start.ticks() + processed,
                &[("messages", processed.into())],
            );
        }
        // The hub never forces a wake: sessions in flight keep pending
        // messages inside the engine, and every matchmaking deadline
        // lives on the shards now.
        HubDecision::running(None)
    }
}

// ---------------------------------------------------------------------------
// ESP over the sharded API
// ---------------------------------------------------------------------------

/// The ESP Game as a [`ShardGame`]: live output-agreement sessions plus
/// replay-bot solo rescue, planned on the hub and played purely.
#[derive(Debug)]
pub struct EspShardGame {
    /// The image world (shared, read-only during the run).
    pub world: crate::esp::EspWorld,
}

impl EspShardGame {
    /// Generates the game's world.
    pub fn generate<R: Rng + ?Sized>(config: &WorldConfig, rng: &mut R) -> Self {
        EspShardGame {
            world: crate::esp::EspWorld::generate(config, rng),
        }
    }
}

impl ShardGame for EspShardGame {
    fn register(&self, platform: &mut Platform) {
        self.world.register_tasks(platform);
    }

    fn plan_live(
        &self,
        platform: &mut Platform,
        seats: [PlayerId; 2],
        rng: &mut SimRng,
    ) -> Vec<PlannedRound> {
        plan_rounds(platform, &seats, rng, false)
    }

    fn plan_solo(
        &self,
        platform: &mut Platform,
        player: PlayerId,
        rng: &mut SimRng,
    ) -> Option<Vec<PlannedRound>> {
        Some(plan_rounds(platform, &[player], rng, true))
    }

    fn play(
        &self,
        job: &mut SessionJob,
        cfg: SessionConfig,
        rule: ScoreRule,
        rng: &mut SimRng,
    ) -> PlayedSession {
        if job.solo {
            play_esp_solo_planned(&self.world, job, cfg, rule, rng)
        } else {
            play_esp_live_planned(&self.world, job, cfg, rule, rng)
        }
    }

    fn precision(&self, platform: &Platform) -> (usize, usize) {
        self.world.verified_precision(platform)
    }

    fn name(&self) -> &'static str {
        "esp"
    }
}

/// Plans up to `max_rounds` rounds for `seats`, marking tasks served.
/// Over-planning is deliberate: the shard stops early when the session
/// budget runs out, and the extra served marks are deterministic.
fn plan_rounds(
    platform: &mut Platform,
    seats: &[PlayerId],
    rng: &mut SimRng,
    with_recordings: bool,
) -> Vec<PlannedRound> {
    let max_rounds = platform.config().session.max_rounds as usize;
    let mut rounds = Vec::with_capacity(max_rounds);
    for _ in 0..max_rounds {
        let Some(task) = platform.next_task_for(seats, rng) else {
            break;
        };
        platform.record_served(task, seats);
        let recording = if with_recordings {
            platform.replay().sample(task, rng).cloned()
        } else {
            None
        };
        rounds.push(PlannedRound {
            task,
            taboo: platform.taboo_for(task),
            recording,
        });
    }
    rounds
}

/// Pure planned version of [`crate::esp::play_esp_session`]: same round
/// state machine, but tasks/taboos come from the plan and platform
/// effects are collected instead of applied.
fn play_esp_live_planned(
    world: &crate::esp::EspWorld,
    job: &mut SessionJob,
    cfg: SessionConfig,
    rule: ScoreRule,
    rng: &mut SimRng,
) -> PlayedSession {
    let params = SessionParams::pair(job.seats[0], job.seats[1], job.sid, job.start);
    let [left, right] = params.seats;
    let mut session = Session::new(job.sid, [left, right], job.start, cfg);
    let mut now = job.start;
    let mut streaks = [0u32; 2];
    // The hot loop: rounds are consumed by value so every taboo list
    // moves straight into its round (no per-round clone), the output is
    // pre-sized from the plan cardinality, and the recording trace is a
    // reused scratch buffer.
    let rounds = std::mem::take(&mut job.rounds);
    let mut played = Vec::with_capacity(rounds.len());
    let mut left_trace: Vec<(SimDuration, Label)> = Vec::new();
    let (pa, rest) = job.profiles.split_at_mut(1);

    for planned in rounds {
        if !session.can_play_more(now) {
            break;
        }
        let PlannedRound { task, taboo, .. } = planned;
        let Some(truth) = world.truth_for_task(task) else {
            break;
        };
        let mut round = OutputAgreementRound::with_guess_capacity(
            task,
            taboo,
            cfg.round_time_limit,
            MAX_GUESSES_PER_SEAT,
        );
        let deadline = now + cfg.round_time_limit;
        let mut profiles = [&mut pa[0], &mut rest[0]];
        let mut cursors = [now, now];
        let mut guesses_left = [MAX_GUESSES_PER_SEAT; 2];
        left_trace.clear();
        let mut matched_label: Option<Label> = None;
        let mut end = deadline;

        loop {
            let seat_idx = if cursors[0] <= cursors[1] { 0 } else { 1 };
            // hc-analyze: allow(P1): seat_idx is 0 or 1 by construction
            if guesses_left[seat_idx] == 0 && guesses_left[1 - seat_idx] == 0 {
                break;
            }
            if guesses_left[seat_idx] == 0 {
                cursors[seat_idx] = SimTime::MAX;
                continue;
            }
            let profile = &mut profiles[seat_idx];
            let answer =
                profile
                    .behavior
                    .next_answer(truth, world.vocabulary(), round.taboo(), rng);
            let latency = profile.response.sample(
                match &answer {
                    Answer::Text(l) => Some(l),
                    _ => None,
                },
                rng,
            );
            cursors[seat_idx] += latency;
            guesses_left[seat_idx] -= 1;
            let at = cursors[seat_idx];
            if at > deadline {
                end = deadline;
                break;
            }
            let seat = if seat_idx == 0 {
                Seat::Left
            } else {
                Seat::Right
            };
            if seat == Seat::Left {
                if let Answer::Text(l) = &answer {
                    left_trace.push((at.saturating_since(now), l.clone()));
                }
            }
            match round.submit(seat, answer, at) {
                SubmitOutcome::Matched(label) => {
                    matched_label = label;
                    end = at;
                    break;
                }
                SubmitOutcome::BothPassed => {
                    end = at;
                    break;
                }
                SubmitOutcome::RoundOver => {
                    end = deadline;
                    break;
                }
                _ => {}
            }
        }

        let result = round.finish(end);
        let matched = result.is_match();
        let mut agreements = Vec::new();
        if let Some(label) = matched_label.or(result.agreed_label) {
            agreements.push((label, left, right));
        }
        let recording = (!left_trace.is_empty())
            .then(|| RecordedRound::new(task, left, std::mem::take(&mut left_trace)));
        let duration = end.saturating_since(now);
        let points = [
            rule.round_score(matched, duration.as_secs_f64(), streaks[0]),
            rule.round_score(matched, duration.as_secs_f64(), streaks[1]),
        ];
        for s in &mut streaks {
            *s = if matched { *s + 1 } else { 0 };
        }
        session.record_round(RoundRecord {
            template: TemplateKind::OutputAgreement,
            task,
            matched,
            candidate_outputs: u32::from(matched),
            duration,
            points,
        });
        played.push(PlayedRound {
            task,
            agreements,
            recording,
        });
        now = end + INTER_ROUND_GAP;
    }

    PlayedSession {
        transcript: session.finish(now),
        rounds: played,
    }
}

/// Pure planned version of [`crate::esp::play_esp_replay_session`].
fn play_esp_solo_planned(
    world: &crate::esp::EspWorld,
    job: &mut SessionJob,
    cfg: SessionConfig,
    rule: ScoreRule,
    rng: &mut SimRng,
) -> PlayedSession {
    let player = job.seats[0];
    let mut session = Session::new(job.sid, [player, player], job.start, cfg);
    let mut now = job.start;
    let mut streak = 0u32;
    // Consumed by value: the taboo list moves into the round and the
    // seeded recording's labels move into the bot event feed — the
    // only per-round label clones left are the human's own trace.
    let rounds = std::mem::take(&mut job.rounds);
    let mut played = Vec::with_capacity(rounds.len());
    let mut trace: Vec<(SimDuration, Label)> = Vec::new();
    let profile = &mut job.profiles[0];

    for planned in rounds {
        if !session.can_play_more(now) {
            break;
        }
        let PlannedRound {
            task,
            taboo,
            recording: seeded,
        } = planned;
        let Some(truth) = world.truth_for_task(task) else {
            break;
        };
        let recorded_player = seeded.as_ref().map(|r| r.recorded_player);
        let mut round = OutputAgreementRound::with_guess_capacity(
            task,
            taboo,
            cfg.round_time_limit,
            MAX_GUESSES_PER_SEAT,
        );
        let deadline = now + cfg.round_time_limit;
        let mut bot_events: Vec<(SimTime, Label)> = seeded
            .map(|r| r.events.into_iter().map(|(d, l)| (now + d, l)).collect())
            .unwrap_or_default();
        bot_events.reverse(); // pop() from the back = chronological order

        let mut cursor = now;
        let mut guesses_left = MAX_GUESSES_PER_SEAT;
        trace.clear();
        let mut matched_label: Option<Label> = None;
        let mut end = deadline;

        loop {
            let next_bot = bot_events.last().map(|(t, _)| *t).unwrap_or(SimTime::MAX);
            let human_turn = cursor <= next_bot && guesses_left > 0;
            if !human_turn && next_bot == SimTime::MAX {
                break;
            }
            let (seat, at, answer) = if human_turn {
                let answer =
                    profile
                        .behavior
                        .next_answer(truth, world.vocabulary(), round.taboo(), rng);
                let latency = profile.response.sample(
                    match &answer {
                        Answer::Text(l) => Some(l),
                        _ => None,
                    },
                    rng,
                );
                cursor += latency;
                guesses_left -= 1;
                (Seat::Left, cursor, answer)
            } else {
                let (t, l) = bot_events.pop().expect("checked non-empty"); // hc-analyze: allow(P1): branch taken only when bot_events is non-empty
                (Seat::Right, t, Answer::Text(l))
            };
            if at > deadline {
                end = deadline;
                break;
            }
            if seat == Seat::Left {
                if let Answer::Text(l) = &answer {
                    trace.push((at.saturating_since(now), l.clone()));
                }
            }
            match round.submit(seat, answer, at) {
                SubmitOutcome::Matched(label) => {
                    matched_label = label;
                    end = at;
                    break;
                }
                SubmitOutcome::BothPassed => {
                    end = at;
                    break;
                }
                SubmitOutcome::RoundOver => {
                    end = deadline;
                    break;
                }
                _ => {}
            }
        }

        let result = round.finish(end);
        let matched = result.is_match();
        let mut agreements = Vec::new();
        if let (Some(label), Some(rec_player)) =
            (matched_label.or(result.agreed_label), recorded_player)
        {
            agreements.push((label, player, rec_player));
        }
        let recording = (!trace.is_empty())
            .then(|| RecordedRound::new(task, player, std::mem::take(&mut trace)));
        let duration = end.saturating_since(now);
        let points = rule.round_score(matched, duration.as_secs_f64(), streak);
        streak = if matched { streak + 1 } else { 0 };
        session.record_round(RoundRecord {
            template: TemplateKind::OutputAgreement,
            task,
            matched,
            candidate_outputs: u32::from(matched),
            duration,
            points: [points, 0],
        });
        played.push(PlayedRound {
            task,
            agreements,
            recording,
        });
        now = end + INTER_ROUND_GAP;
    }

    PlayedSession {
        transcript: session.finish(now),
        rounds: played,
    }
}

// ---------------------------------------------------------------------------
// Verbosity over the sharded API
// ---------------------------------------------------------------------------

/// Verbosity as a [`ShardGame`]: inversion-problem sessions with roles
/// alternating by session-id parity; no solo mode (timed-out waiters
/// give up and return at a later sitting).
#[derive(Debug)]
pub struct VerbosityShardGame {
    /// The secrets world (shared, read-only during the run).
    pub world: crate::verbosity::VerbosityWorld,
}

impl VerbosityShardGame {
    /// Generates the game's world.
    pub fn generate<R: Rng + ?Sized>(config: &WorldConfig, rng: &mut R) -> Self {
        VerbosityShardGame {
            world: crate::verbosity::VerbosityWorld::generate(config, rng),
        }
    }
}

impl ShardGame for VerbosityShardGame {
    fn register(&self, platform: &mut Platform) {
        self.world.register_tasks(platform);
    }

    fn plan_live(
        &self,
        platform: &mut Platform,
        seats: [PlayerId; 2],
        rng: &mut SimRng,
    ) -> Vec<PlannedRound> {
        plan_rounds(platform, &seats, rng, false)
    }

    fn plan_solo(
        &self,
        _platform: &mut Platform,
        _player: PlayerId,
        _rng: &mut SimRng,
    ) -> Option<Vec<PlannedRound>> {
        None // Verbosity has no replay-bot story
    }

    fn play(
        &self,
        job: &mut SessionJob,
        cfg: SessionConfig,
        rule: ScoreRule,
        rng: &mut SimRng,
    ) -> PlayedSession {
        play_verbosity_planned(&self.world, job, cfg, rule, rng)
    }

    fn precision(&self, platform: &Platform) -> (usize, usize) {
        let verified = platform.verified_labels();
        let correct = verified
            .iter()
            .filter(|v| self.world.is_true_fact(v.task, &v.label))
            .count();
        (correct, verified.len())
    }

    fn name(&self) -> &'static str {
        "verbosity"
    }
}

/// Pure planned version of
/// [`crate::verbosity::play_verbosity_session`]; roles alternate by
/// session-id parity (the serial driver flips a global bool, which a
/// sharded run cannot do order-independently).
fn play_verbosity_planned(
    world: &crate::verbosity::VerbosityWorld,
    job: &mut SessionJob,
    cfg: SessionConfig,
    rule: ScoreRule,
    rng: &mut SimRng,
) -> PlayedSession {
    let flip = job.sid.raw().is_multiple_of(2);
    let (n_idx, g_idx) = if flip { (0, 1) } else { (1, 0) };
    let (narrator, guesser) = (job.seats[n_idx], job.seats[g_idx]);
    let mut session = Session::new(job.sid, [narrator, guesser], job.start, cfg);
    let mut now = job.start;
    let mut streaks = [0u32; 2];
    let mut played = Vec::with_capacity(job.rounds.len());
    let empty_taboo = TabooList::new();

    for planned in &job.rounds {
        if !session.can_play_more(now) {
            break;
        }
        let task = planned.task;
        let (Some(secret), Some(facts)) = (
            world.secret_for_task(task).cloned(),
            world.facts_for_task(task),
        ) else {
            break;
        };
        let mut round = InversionRound::new(task, secret, cfg.round_time_limit);
        let deadline = now + cfg.round_time_limit;
        let mut cursor = now;
        let mut hints_sent = 0usize;
        let mut end = deadline;
        let mut matched = false;

        'round: while hints_sent < MAX_HINTS {
            let (front, back) = job.profiles.split_at_mut(1);
            let (pn, pg) = if n_idx == 0 {
                (&mut front[0], &mut back[0])
            } else {
                (&mut back[0], &mut front[0])
            };
            let hint = pn
                .behavior
                .next_answer(facts, world.vocabulary(), &empty_taboo, rng);
            let latency = pn.response.sample(
                match &hint {
                    Answer::Text(l) => Some(l),
                    _ => None,
                },
                rng,
            );
            cursor += latency;
            if cursor > deadline {
                break 'round;
            }
            match round.submit(Seat::Left, hint, cursor) {
                SubmitOutcome::BothPassed => {
                    end = cursor;
                    break 'round;
                }
                SubmitOutcome::RoundOver => {
                    break 'round;
                }
                _ => {}
            }
            hints_sent += 1;

            let Some(candidates) = world.guess_candidates(task, hints_sent, 8) else {
                break 'round;
            };
            for _ in 0..GUESSES_PER_HINT {
                let guess = pg
                    .behavior
                    .guess(&candidates, world.vocabulary(), pg.skill, rng);
                let latency = pg.response.sample(
                    match &guess {
                        Answer::Text(l) => Some(l),
                        _ => None,
                    },
                    rng,
                );
                cursor += latency;
                if cursor > deadline {
                    break 'round;
                }
                match round.submit(Seat::Right, guess, cursor) {
                    SubmitOutcome::Matched(_) => {
                        matched = true;
                        end = cursor;
                        break 'round;
                    }
                    SubmitOutcome::BothPassed => {
                        end = cursor;
                        break 'round;
                    }
                    SubmitOutcome::RoundOver => {
                        break 'round;
                    }
                    _ => {}
                }
            }
        }

        let result = round.finish(end.min(deadline));
        let facts_out = result.validated_facts();
        let n_facts = facts_out.len() as u32;
        let agreements = facts_out
            .into_iter()
            .map(|(_, clue)| (clue, narrator, guesser))
            .collect();
        let duration = result.duration;
        let points = [
            rule.round_score(matched, duration.as_secs_f64(), streaks[0]),
            rule.round_score(matched, duration.as_secs_f64(), streaks[1]),
        ];
        for s in &mut streaks {
            *s = if matched { *s + 1 } else { 0 };
        }
        session.record_round(RoundRecord {
            template: TemplateKind::InversionProblem,
            task,
            matched,
            candidate_outputs: n_facts,
            duration,
            points,
        });
        played.push(PlayedRound {
            task,
            agreements,
            recording: None,
        });
        now = end.min(deadline) + INTER_ROUND_GAP;
    }

    PlayedSession {
        transcript: session.finish(now),
        rounds: played,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn esp_campaign(
        players: usize,
        shards: usize,
        threads: usize,
        seed: u64,
    ) -> ShardedCampaign<EspShardGame> {
        let factory = RngFactory::new(seed);
        let mut world_rng = factory.stream("world");
        let driver = EspShardGame::generate(&WorldConfig::small(), &mut world_rng);
        let mut config = ShardedCampaignConfig::small();
        config.players = players;
        config.horizon = SimTime::from_secs(2 * 3600);
        config.shards = shards;
        config.threads = threads;
        ShardedCampaign::new(driver, config, seed)
    }

    fn fingerprint(report: &ShardedCampaignReport, platform: &Platform) -> String {
        // Everything downstream serialization would see, including the
        // exact verified-label order and float bits.
        format!(
            "{report:?}|verified={:?}|rejected={}",
            platform.verified_labels(),
            platform.rejected_agreements()
        )
    }

    #[test]
    fn esp_campaign_runs_and_reports() {
        let mut campaign = esp_campaign(40, 2, 1, 11);
        let report = campaign.run().expect("runs");
        assert!(
            report.live_sessions + report.solo_sessions > 0,
            "no sessions ran"
        );
        assert!(report.metrics.total_human_hours > 0.0);
        assert!(
            report.precision_rate() > 0.8,
            "precision {}",
            report.precision_rate()
        );
    }

    #[test]
    fn esp_results_are_shard_and_thread_invariant() {
        let baseline = {
            let mut c = esp_campaign(40, 1, 1, 13);
            let r = c.run().expect("runs");
            fingerprint(&r, c.platform())
        };
        for shards in [2, 4] {
            for threads in [1, 4] {
                let mut c = esp_campaign(40, shards, threads, 13);
                let r = c.run().expect("runs");
                assert_eq!(
                    fingerprint(&r, c.platform()),
                    baseline,
                    "shards={shards} threads={threads}"
                );
            }
        }
    }

    /// ISSUE acceptance: a 100k-player run is byte-identical at every
    /// `shards x threads` layout. Minutes-long in release mode, so it
    /// is ignored by default; run it with
    /// `cargo test -p hc-games --release -- --ignored`.
    #[test]
    #[ignore = "minutes-long acceptance check; run with --ignored in release mode"]
    fn esp_100k_players_are_byte_identical_across_layouts() {
        let run = |shards: usize, threads: usize| {
            let factory = RngFactory::new(41);
            let mut world_rng = factory.stream("world");
            let mut world_cfg = WorldConfig::small();
            world_cfg.stimuli = 10_000;
            let driver = EspShardGame::generate(&world_cfg, &mut world_rng);
            let mut config = ShardedCampaignConfig::small();
            config.players = 100_000;
            config.horizon = SimTime::from_secs(2 * 3600);
            config.arrival_spread = SimDuration::from_secs(45 * 60);
            config.window = SimDuration::from_secs(10);
            config.shards = shards;
            config.threads = threads;
            let mut c = ShardedCampaign::new(driver, config, 41);
            let r = c.run().expect("runs");
            fingerprint(&r, c.platform())
        };
        let baseline = run(1, 1);
        for shards in [2, 4] {
            for threads in [1, 4] {
                assert_eq!(
                    run(shards, threads),
                    baseline,
                    "shards={shards} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn verbosity_campaign_collects_facts_with_giveups() {
        let factory = RngFactory::new(21);
        let mut world_rng = factory.stream("world");
        let driver = VerbosityShardGame::generate(&WorldConfig::small(), &mut world_rng);
        let mut config = ShardedCampaignConfig::small();
        config.players = 30;
        config.horizon = SimTime::from_secs(2 * 3600);
        config.shards = 3;
        let mut campaign = ShardedCampaign::new(driver, config, 21);
        let report = campaign.run().expect("runs");
        assert_eq!(report.game, "verbosity");
        assert_eq!(report.solo_sessions, 0, "verbosity has no solo mode");
        assert!(report.live_sessions > 0);
        assert!(report.precision.1 > 0, "no facts verified");
        // Honest narrators only state true facts; the realistic mix
        // still verifies mostly-true ones.
        assert!(report.precision_rate() > 0.5);
    }

    #[test]
    fn verbosity_results_are_shard_invariant() {
        let run = |shards: usize, threads: usize| {
            let factory = RngFactory::new(23);
            let mut world_rng = factory.stream("world");
            let driver = VerbosityShardGame::generate(&WorldConfig::small(), &mut world_rng);
            let mut config = ShardedCampaignConfig::small();
            config.players = 24;
            config.horizon = SimTime::from_secs(3600);
            config.shards = shards;
            config.threads = threads;
            let mut c = ShardedCampaign::new(driver, config, 23);
            let r = c.run().expect("runs");
            fingerprint(&r, c.platform())
        };
        let baseline = run(1, 1);
        assert_eq!(run(2, 1), baseline);
        assert_eq!(run(4, 4), baseline);
    }

    #[test]
    fn run_twice_is_an_error() {
        let mut campaign = esp_campaign(8, 2, 1, 5);
        campaign.run().expect("first run");
        assert!(matches!(campaign.run(), Err(ShardError::Config { .. })));
    }

    #[test]
    fn reports_are_deterministic_per_seed() {
        let fp = |seed| {
            let mut c = esp_campaign(24, 2, 2, seed);
            let r = c.run().expect("runs");
            fingerprint(&r, c.platform())
        };
        assert_eq!(fp(99), fp(99));
        assert_ne!(fp(99), fp(100), "different seeds must differ");
    }
}
