//! Event-driven campaigns — any game, full deployment dynamics.
//!
//! [`Campaign`] is the one serial campaign loop — Poisson sittings,
//! random matching, engagement-driven returns — over a [`SessionDriver`],
//! so every game runs the same deployment analyses (e.g. the F5
//! concurrency story). A driver with a solo session (the ESP Game's
//! replay bot, see [`EspCampaign`](crate::esp::EspCampaign)) gets a
//! periodic sweep in which each timed-out waiter plays solo; without one
//! an unpaired waiter gives up after a patience window and returns at a
//! later sitting. [`crate::shard`] runs the same dynamics across cores.

use crate::params::SessionParams;
use crate::tagatune::play_tagatune_session;
use crate::world::WorldConfig;
use hc_collect::DetMap;
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, EngagementModel, Population, PopulationBuilder};
use hc_sim::dist::Exponential;
use hc_sim::{RngFactory, SimRng, WheelQueue};

/// Drives the sessions of a concrete game.
pub trait SessionDriver {
    /// Plays one session between two live players, returning the
    /// transcript (already recorded into the platform by the game's
    /// session function).
    fn play(
        &mut self,
        platform: &mut Platform,
        population: &mut Population,
        params: SessionParams,
        rng: &mut SimRng,
    ) -> SessionTranscript;

    /// How often to sweep the wait pool for waiters past the
    /// bot-fallback deadline, who then play solo; `None` (the default)
    /// for games without a solo mode, whose unpaired waiters give up.
    fn solo_sweep(&self) -> Option<SimDuration> {
        None
    }

    /// Plays one solo session of `params.left()` (against replay bots,
    /// say), or returns `None` (the default) for no solo mode: the
    /// player gives up. The campaign ledgers solo play time itself.
    fn play_solo(
        &mut self,
        _platform: &mut Platform,
        _population: &mut Population,
        _params: SessionParams,
        _rng: &mut SimRng,
    ) -> Option<SessionTranscript> {
        None
    }

    /// Registers the game's tasks on a fresh platform.
    fn register(&mut self, platform: &mut Platform);

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// Campaign configuration shared by every game.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
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
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Spread of first arrivals.
    pub arrival_spread: SimDuration,
}

impl CampaignConfig {
    /// A small test-sized configuration.
    #[must_use]
    pub fn small() -> Self {
        CampaignConfig {
            platform: PlatformConfig {
                gold_injection_rate: 0.0,
                ..PlatformConfig::default()
            },
            players: 40,
            mix: ArchetypeMix::realistic(),
            engagement: EngagementModel::esp_calibrated(),
            mean_return_gap: SimDuration::from_mins(60),
            horizon: SimTime::from_secs(4 * 3600),
            arrival_spread: SimDuration::from_mins(30),
        }
    }
}

/// Report of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Which game ran.
    pub game: &'static str,
    /// GWAP metrics: the platform ledger plus solo play time.
    pub metrics: GwapMetrics,
    /// Live sessions completed.
    pub sessions: u64,
    /// Solo sessions completed (0 for games without a solo mode).
    pub solo_sessions: u64,
    /// Verified outputs.
    pub verified: usize,
    /// Pairing statistics (live and replay pairs).
    pub matchmaker: hc_core::matchmaker::MatchmakerStats,
    /// Mean pairing wait in seconds.
    pub mean_wait_secs: f64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival(PlayerId),
    /// Check whether a queued player is still waiting; if so they give up
    /// and come back at a later sitting (no solo mode).
    GiveUp(PlayerId),
    /// Every timed-out waiter plays solo (solo mode).
    Sweep,
}

#[derive(Debug)]
struct Plan {
    sittings: Vec<SimDuration>,
    next: usize,
    remaining: SimDuration,
}

/// The campaign runner.
#[derive(Debug)]
pub struct Campaign<D: SessionDriver> {
    driver: D,
    config: CampaignConfig,
    solo_sweep: Option<SimDuration>,
    platform: Platform,
    population: Population,
    // Per-player session plans: keyed lookups only (never iterated).
    plans: DetMap<PlayerId, Plan>,
    session_ids: hc_core::id::IdAllocator<SessionId>,
    rng: SimRng,
    sessions: u64,
    solo_sessions: u64,
    /// Solo play time, which the platform ledger never sees.
    solo_play: ContributionLedger,
}

impl<D: SessionDriver> Campaign<D> {
    /// Builds a campaign for `driver` from a config and seed.
    ///
    /// # Panics
    ///
    /// Panics when the platform config is invalid.
    pub fn new(mut driver: D, config: CampaignConfig, seed: u64) -> Self {
        let factory = RngFactory::new(seed);
        let (platform, population) = deploy(
            config.platform,
            config.players,
            &config.mix,
            &factory,
            |platform| driver.register(platform),
        );
        let mut plan_rng = factory.stream("plans");
        let plans = population
            .players()
            .iter()
            .map(|p| {
                let lifetime = config.engagement.sample_lifetime(&mut plan_rng);
                (
                    p.id,
                    Plan {
                        sittings: lifetime.session_lengths,
                        next: 0,
                        remaining: SimDuration::ZERO,
                    },
                )
            })
            .collect();
        Campaign {
            solo_sweep: driver.solo_sweep(),
            driver,
            config,
            platform,
            population,
            plans,
            session_ids: hc_core::id::IdAllocator::new(),
            rng: factory.stream("campaign"),
            sessions: 0,
            solo_sessions: 0,
            solo_play: ContributionLedger::new(),
        }
    }

    /// Runs to the horizon and reports.
    pub fn run(&mut self) -> CampaignReport {
        // Every player gets an opening arrival (plus the sweep tick), so
        // the queue's working set is at least the population; size it up
        // front instead of regrowing through the arrival storm.
        let mut queue: WheelQueue<Ev> = WheelQueue::with_capacity(
            self.config.players.max(16) + usize::from(self.solo_sweep.is_some()),
        );
        // First arrivals: exponential spread across the opening window.
        let spread = Exponential::new(1.0 / self.config.arrival_spread.as_secs_f64().max(1e-6))
            .expect("positive spread"); // hc-analyze: allow(P1): rate argument clamped to at least 1e-6
        let ids: Vec<PlayerId> = self.population.players().iter().map(|p| p.id).collect();
        for p in &ids {
            queue.push(
                SimTime::from_secs_f64(spread.sample(&mut self.rng)),
                Ev::Arrival(*p),
            );
        }
        if let Some(every) = self.solo_sweep {
            queue.push(SimTime::ZERO + every, Ev::Sweep);
        }

        // Captured once: the campaign loop must not change shape when a
        // recording subscriber appears mid-run on another layer.
        let tracing = hc_obs::active();
        let mut arrivals = 0u64;
        let mut sweeps = 0u64;
        let mut queue_high_water = 0usize;
        let mut last_now = SimTime::ZERO;

        while let Some((now, ev)) = queue.pop() {
            if now > self.config.horizon {
                break;
            }
            self.platform.set_time(now);
            match ev {
                Ev::Arrival(p) => {
                    self.handle_arrival(&mut queue, now, p);
                    arrivals += 1;
                }
                Ev::GiveUp(p) => {
                    if self.platform.matchmaker_mut().abandon(p) {
                        // Still waiting: give up and return next sitting.
                        self.give_up(&mut queue, now, p);
                    }
                }
                Ev::Sweep => {
                    self.handle_sweep(&mut queue, now);
                    if let Some(every) = self.solo_sweep {
                        queue.push(now + every, Ev::Sweep);
                    }
                    sweeps += 1;
                }
            }
            if tracing {
                queue_high_water = queue_high_water.max(queue.len());
                last_now = now;
            }
        }
        if tracing {
            hc_obs::counter("games.arrivals", last_now.ticks(), arrivals);
            hc_obs::counter("games.sweeps", last_now.ticks(), sweeps);
            hc_obs::gauge(
                "games.queue_high_water",
                last_now.ticks(),
                queue_high_water as f64,
            );
            hc_obs::span(
                "games",
                &format!("{}.campaign", self.driver.name()),
                0,
                last_now.ticks(),
                &[
                    ("live_sessions", self.sessions.into()),
                    ("replay_sessions", self.solo_sessions.into()),
                ],
            );
        }
        CampaignReport {
            game: self.driver.name(),
            metrics: self.platform.metrics_with(&self.solo_play),
            sessions: self.sessions,
            solo_sessions: self.solo_sessions,
            verified: self.platform.verified_labels().len(),
            matchmaker: self.platform.matchmaker().pool().stats(),
            mean_wait_secs: self.platform.matchmaker().pool().wait_stats().mean(),
        }
    }

    fn handle_arrival(&mut self, queue: &mut WheelQueue<Ev>, now: SimTime, player: PlayerId) {
        {
            let plan = self.plans.get_mut(&player).expect("planned player"); // hc-analyze: allow(P1): every registered player gets a plan at construction
            if plan.remaining.is_zero() {
                let Some(len) = plan.sittings.get(plan.next).copied() else {
                    return; // churned for good
                };
                plan.next += 1;
                plan.remaining = len;
            }
        }
        match self
            .platform
            .matchmaker_mut()
            .on_arrival(now, player, &mut self.rng)
        {
            MatchDecision::Paired { partner, .. } => {
                let sid = self.session_ids.next();
                let t = self.driver.play(
                    &mut self.platform,
                    &mut self.population,
                    SessionParams::pair(partner, player, sid, now),
                    &mut self.rng,
                );
                self.sessions += 1;
                let end = t.ended;
                let dur = t.duration();
                for p in [partner, player] {
                    self.schedule_next(queue, end, p, dur);
                }
            }
            MatchDecision::Queued => {
                // Without a solo sweep the player waits a patience window;
                // if nobody pairs with them by then they give up.
                if self.solo_sweep.is_none() {
                    let patience = self.config.platform.matchmaker.bot_fallback_wait * 6;
                    queue.push(now + patience, Ev::GiveUp(player));
                }
            }
        }
    }

    /// Every waiter past the bot-fallback deadline plays a solo session.
    fn handle_sweep(&mut self, queue: &mut WheelQueue<Ev>, now: SimTime) {
        for player in self.platform.matchmaker_mut().take_timed_out(now) {
            let sid = self.session_ids.next();
            let solo = self.driver.play_solo(
                &mut self.platform,
                &mut self.population,
                SessionParams::solo(player, sid, now),
                &mut self.rng,
            );
            match solo {
                Some(t) => {
                    self.solo_sessions += 1;
                    self.solo_play.record_play(player, t.duration());
                    self.schedule_next(queue, t.ended, player, t.duration());
                }
                None => self.give_up(queue, now, player),
            }
        }
    }

    /// A waiter nobody paired with returns after a fresh return gap.
    fn give_up(&mut self, queue: &mut WheelQueue<Ev>, now: SimTime, player: PlayerId) {
        queue.push(now + self.return_gap(), Ev::Arrival(player));
    }

    fn schedule_next(
        &mut self,
        queue: &mut WheelQueue<Ev>,
        end: SimTime,
        player: PlayerId,
        played: SimDuration,
    ) {
        let plan = self.plans.get_mut(&player).expect("planned player"); // hc-analyze: allow(P1): every registered player gets a plan at construction
        plan.remaining = plan
            .remaining
            .saturating_sub(played.max(SimDuration::from_secs(1)));
        if !plan.remaining.is_zero() {
            queue.push(end, Ev::Arrival(player));
        } else if plan.next < plan.sittings.len() {
            queue.push(end + self.return_gap(), Ev::Arrival(player));
        }
    }

    /// Draws the gap before a player's next sitting.
    fn return_gap(&mut self) -> SimDuration {
        let gap = Exponential::new(1.0 / self.config.mean_return_gap.as_secs_f64().max(1e-6))
            .expect("positive gap") // hc-analyze: allow(P1): rate argument clamped to at least 1e-6
            .sample(&mut self.rng);
        SimDuration::from_secs_f64(gap)
    }

    /// Post-run access to the platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Post-run access to the driver (and the world it plays over).
    #[must_use]
    pub(crate) fn driver(&self) -> &D {
        &self.driver
    }
}

/// A fresh platform with the game's tasks (`register`) and `players`
/// players registered, plus the matching population drawn from the
/// seed's `"population"` stream — the opening of every campaign.
///
/// # Panics
///
/// Panics when the platform config is invalid.
pub(crate) fn deploy(
    config: PlatformConfig,
    players: usize,
    mix: &ArchetypeMix,
    factory: &RngFactory,
    register: impl FnOnce(&mut Platform),
) -> (Platform, Population) {
    let mut platform = Platform::new(config).expect("valid platform config"); // hc-analyze: allow(P1): documented # Panics contract for invalid experiment configs
    register(&mut platform);
    let population = PopulationBuilder::new(players)
        .mix(mix.clone())
        .build(&mut factory.stream("population"));
    // Give the platform's player-id allocator the same ids.
    for _ in 0..players {
        platform.register_player();
    }
    (platform, population)
}

/// A ready-made driver for TagATune.
#[derive(Debug)]
pub struct TagATuneDriver {
    /// The clip world.
    pub world: crate::tagatune::TagATuneWorld,
    /// Probability a round shows both seats the same clip.
    pub p_same: f64,
}

impl TagATuneDriver {
    /// Generates a driver with a fresh world.
    pub fn generate<R: rand::Rng + ?Sized>(config: &WorldConfig, p_same: f64, rng: &mut R) -> Self {
        TagATuneDriver {
            world: crate::tagatune::TagATuneWorld::generate(config, rng),
            p_same,
        }
    }
}

impl SessionDriver for TagATuneDriver {
    fn play(
        &mut self,
        platform: &mut Platform,
        population: &mut Population,
        params: SessionParams,
        rng: &mut SimRng,
    ) -> SessionTranscript {
        let world = &self.world;
        play_tagatune_session(platform, world, population, params, self.p_same, rng)
    }

    fn register(&mut self, platform: &mut Platform) {
        self.world.register_tasks(platform);
    }

    fn name(&self) -> &'static str {
        "tagatune"
    }
}

/// A ready-made driver for Verbosity (roles alternate by session parity).
#[derive(Debug)]
pub struct VerbosityDriver {
    /// The secrets world.
    pub world: crate::verbosity::VerbosityWorld,
    flip: bool,
}

impl VerbosityDriver {
    /// Generates a driver with a fresh world.
    pub fn generate<R: rand::Rng + ?Sized>(config: &WorldConfig, rng: &mut R) -> Self {
        VerbosityDriver {
            world: crate::verbosity::VerbosityWorld::generate(config, rng),
            flip: false,
        }
    }
}

impl SessionDriver for VerbosityDriver {
    fn play(
        &mut self,
        platform: &mut Platform,
        population: &mut Population,
        mut params: SessionParams,
        rng: &mut SimRng,
    ) -> SessionTranscript {
        self.flip = !self.flip;
        if !self.flip {
            params.seats.reverse();
        }
        crate::verbosity::play_verbosity_session(platform, &self.world, population, params, rng)
    }

    fn register(&mut self, platform: &mut Platform) {
        self.world.register_tasks(platform);
    }

    fn name(&self) -> &'static str {
        "verbosity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_campaign<D: SessionDriver>(driver: D, seed: u64) -> CampaignReport {
        let mut config = CampaignConfig::small();
        config.players = 24;
        config.horizon = SimTime::from_secs(2 * 3600);
        Campaign::new(driver, config, seed).run()
    }

    #[test]
    fn tagatune_campaign_produces_verified_tags() {
        let factory = RngFactory::new(3);
        let mut rng = factory.stream("world");
        let driver = TagATuneDriver::generate(&WorldConfig::small(), 0.5, &mut rng);
        let report = run_campaign(driver, 3);
        assert_eq!(report.game, "tagatune");
        assert!(report.sessions > 0, "no sessions ran");
        assert!(report.verified > 0, "no tags verified");
        assert!(report.metrics.total_human_hours > 0.0);
    }

    #[test]
    fn verbosity_campaign_collects_facts() {
        let factory = RngFactory::new(4);
        let mut rng = factory.stream("world");
        let driver = VerbosityDriver::generate(&WorldConfig::small(), &mut rng);
        let report = run_campaign(driver, 4);
        assert_eq!(report.game, "verbosity");
        assert!(report.sessions > 0);
        assert!(report.verified > 0, "no facts verified");
    }

    #[test]
    fn generic_campaigns_are_deterministic() {
        let mk = || {
            let factory = RngFactory::new(5);
            let mut rng = factory.stream("world");
            let driver = TagATuneDriver::generate(&WorldConfig::small(), 0.5, &mut rng);
            let r = run_campaign(driver, 5);
            (r.sessions, r.verified, r.metrics.total_outputs)
        };
        assert_eq!(mk(), mk());
    }
}
