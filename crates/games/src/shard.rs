//! Sharded single-run campaigns over the [`hc_sim::shard`] engine.
//!
//! The serial [`Campaign`](crate::campaign::Campaign) loop (which
//! [`EspCampaign`](crate::esp::EspCampaign) runs on) processes one event
//! at a time on one core; this module re-architects the same deployment
//! dynamics (Poisson sittings, random matching, replay-bot fallback,
//! engagement-driven returns) as a [`ShardWorkload`] so one run scales
//! across cores while staying byte-identical at any `--shards` ×
//! `--threads` combination. Sessions play their rounds through the same
//! round engine as serial sessions (`round.rs`): only where the
//! rounds come from differs.
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
//! outcomes in session-id order through `apply_round`; shards *play*
//! them purely from the plan. Planning is optimistic: up to
//! `max_rounds` rounds are planned and marked served even when the
//! session ends early — a documented, deterministic deviation from the
//! serial campaigns (see DESIGN.md,
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

pub use crate::round::{PlannedRound, PlayedRound};

use crate::esp::{live_round, solo_round, EspWorld};
use crate::round::{apply_round, play_session, RoundSource, Table};
use crate::verbosity::{verbosity_round, VerbosityWorld};
use crate::world::WorldConfig;
use hc_collect::{DetMap, PlayerStore, SliceArena, Span};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, EngagementModel, PlayerProfile};
use hc_sim::dist::Exponential;
use hc_sim::shard::{
    Addr, HubDecision, Mailbox, ShardConfig, ShardError, ShardWorkload, WindowInfo,
};
use hc_sim::{OnlineStats, RngFactory, SimRng, WheelQueue};
use rand::Rng;

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
    /// scheduling state). The default picks tasks as a serial session
    /// would, ahead of play.
    fn plan_live(
        &self,
        platform: &mut Platform,
        seats: [PlayerId; 2],
        rng: &mut SimRng,
    ) -> Vec<PlannedRound> {
        plan_rounds(platform, &seats, rng, false)
    }

    /// Plans a solo fallback session for a timed-out waiter, or `None`
    /// when the game has no solo mode (the default: the player gives up
    /// instead).
    fn plan_solo(
        &self,
        _platform: &mut Platform,
        _player: PlayerId,
        _rng: &mut SimRng,
    ) -> Option<Vec<PlannedRound>> {
        None
    }

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
        crate::world::precision_rate(self.precision)
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
        let (platform, population) = crate::campaign::deploy(
            config.platform,
            config.players,
            &config.mix,
            &factory,
            |platform| driver.register(platform),
        );
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
        ShardedCampaignReport {
            game: self.driver.name(),
            metrics: self.platform.metrics_with(&self.solo_play),
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
        let PlayedSession { transcript, rounds } = outcome;
        self.platform.set_time(transcript.ended);
        for round in rounds {
            apply_round(&mut self.platform, round);
        }
        if solo {
            let player = transcript.players[0];
            self.platform.tasks_clear_seen(player);
            self.solo_play.record_play(player, transcript.duration());
            self.solo_sessions += 1;
        } else {
            self.platform.record_session(&transcript);
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
        let (world, truth) = (&self.world, EspWorld::truth_for_task);
        let mut source = RoundSource::planned(std::mem::take(&mut job.rounds));
        let transcript = if job.solo {
            let session = Session::new(job.sid, [job.seats[0]; 2], job.start, cfg);
            let table = Table::new(world, session, &mut job.profiles[0], rule);
            play_session(table, &mut source, rng, truth, solo_round)
        } else {
            let session = Session::new(job.sid, job.seats, job.start, cfg);
            let (left, right) = job.profiles.split_at_mut(1);
            let table = Table::new(world, session, [&mut left[0], &mut right[0]], rule);
            play_session(table, &mut source, rng, truth, live_round)
        };
        PlayedSession {
            transcript,
            rounds: source.into_played(),
        }
    }

    fn precision(&self, platform: &Platform) -> (usize, usize) {
        self.world.verified_precision(platform)
    }

    fn name(&self) -> &'static str {
        "esp"
    }
}

/// Plans up to `max_rounds` rounds for `seats`, marking tasks served —
/// the serial sessions' task pick, run ahead of play. Over-planning is
/// deliberate: the shard stops early when the session budget runs out,
/// and the extra served marks are deterministic.
fn plan_rounds(
    platform: &mut Platform,
    seats: &[PlayerId],
    rng: &mut SimRng,
    with_recordings: bool,
) -> Vec<PlannedRound> {
    let max_rounds = platform.config().session.max_rounds as usize;
    let mut rounds = Vec::with_capacity(max_rounds);
    let mut source = RoundSource::platform(platform, seats, with_recordings);
    while rounds.len() < max_rounds {
        let Some((round, ())) = source.next(|_| Some(()), rng) else {
            break;
        };
        rounds.push(round);
    }
    rounds
}

// ---------------------------------------------------------------------------
// Verbosity over the sharded API
// ---------------------------------------------------------------------------

/// Verbosity as a [`ShardGame`]: inversion-problem sessions with roles
/// alternating by session-id parity; no solo mode (timed-out waiters
/// give up and return at a later sitting — Verbosity has no replay-bot
/// story).
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

    /// Roles alternate by session-id parity (the serial driver flips a
    /// global bool, which a sharded run cannot do order-independently).
    fn play(
        &self,
        job: &mut SessionJob,
        cfg: SessionConfig,
        rule: ScoreRule,
        rng: &mut SimRng,
    ) -> PlayedSession {
        let [a, b] = job.seats;
        let (first, second) = job.profiles.split_at_mut(1);
        let (seats, profiles) = if job.sid.raw().is_multiple_of(2) {
            ([a, b], [&mut first[0], &mut second[0]])
        } else {
            ([b, a], [&mut second[0], &mut first[0]])
        };
        let session = Session::new(job.sid, seats, job.start, cfg);
        let table = Table::new(&self.world, session, profiles, rule);
        let mut source = RoundSource::planned(std::mem::take(&mut job.rounds));
        let transcript = play_session(
            table,
            &mut source,
            rng,
            VerbosityWorld::round_truth,
            verbosity_round,
        );
        PlayedSession {
            transcript,
            rounds: source.into_played(),
        }
    }

    fn precision(&self, platform: &Platform) -> (usize, usize) {
        self.world.verified_precision(platform)
    }

    fn name(&self) -> &'static str {
        "verbosity"
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

    /// 64-bit FNV-1a over the fingerprint text.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Frozen bytes, not just layout invariance: a change to Verbosity
    /// round play, planning or outcome apply that moves any report
    /// field, float bit or verified fact shows here.
    #[test]
    fn verbosity_fingerprint_is_frozen() {
        let run = |shards: usize, threads: usize| {
            let factory = RngFactory::new(23);
            let mut world_rng = factory.stream("world");
            let driver = VerbosityShardGame::generate(&WorldConfig::small(), &mut world_rng);
            let mut config = ShardedCampaignConfig::small();
            config.players = 60;
            config.horizon = SimTime::from_secs(3 * 3600);
            config.shards = shards;
            config.threads = threads;
            let mut c = ShardedCampaign::new(driver, config, 23);
            let r = c.run().expect("runs");
            let fp = fingerprint(&r, c.platform());
            (
                format!(
                    "live={} solo={} precision={:?} outputs={} hours={:?}",
                    r.live_sessions,
                    r.solo_sessions,
                    r.precision,
                    r.metrics.total_outputs,
                    r.metrics.total_human_hours
                ),
                fnv1a(&fp),
            )
        };
        let frozen = (
            String::from(
                "live=47 solo=0 precision=(181, 207) outputs=207 hours=4.2449674761111105",
            ),
            4_053_805_824_663_624_231,
        );
        assert_eq!(run(1, 1), frozen, "1x1");
        assert_eq!(run(2, 2), frozen, "2x2");
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
