//! Generic event-driven campaigns — any game, full deployment dynamics.
//!
//! [`EspCampaign`](crate::esp::EspCampaign) hard-wires the flagship game;
//! this module generalizes the same machinery (Poisson sittings, random
//! matching, engagement-driven returns) over a [`SessionDriver`] trait so
//! TagATune, Verbosity, Peekaboom, Squigl and Matchin can run the same
//! deployment analyses (e.g. the F5 concurrency story) without
//! duplicating the event loop. Games without a replay-bot story simply
//! drop timed-out players back into the queue at their next sitting.

use crate::params::SessionParams;
use crate::world::WorldConfig;
use hc_collect::DetMap;
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, EngagementModel, Population, PopulationBuilder};
use hc_sim::dist::Exponential;
use hc_sim::{RngFactory, SimRng, WheelQueue};

/// Drives one session of a concrete game between two live players.
pub trait SessionDriver {
    /// Plays one session, returning the transcript (already recorded into
    /// the platform by the game's session function).
    fn play(
        &mut self,
        platform: &mut Platform,
        population: &mut Population,
        params: SessionParams,
        rng: &mut SimRng,
    ) -> SessionTranscript;

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

/// Report of a generic campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Which game ran.
    pub game: &'static str,
    /// GWAP metrics from the platform ledger.
    pub metrics: GwapMetrics,
    /// Sessions completed.
    pub sessions: u64,
    /// Verified outputs.
    pub verified: usize,
    /// Live-pairing statistics.
    pub matchmaker: hc_core::matchmaker::MatchmakerStats,
    /// Mean pairing wait in seconds.
    pub mean_wait_secs: f64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival(PlayerId),
    /// Check whether a queued player is still waiting; if so they give up
    /// and come back at a later sitting (no replay bots in the generic
    /// runner).
    GiveUp(PlayerId),
}

#[derive(Debug)]
struct Plan {
    sittings: Vec<SimDuration>,
    next: usize,
    remaining: SimDuration,
}

/// The generic campaign runner.
#[derive(Debug)]
pub struct Campaign<D: SessionDriver> {
    driver: D,
    config: CampaignConfig,
    platform: Platform,
    population: Population,
    // Per-player session plans: keyed lookups only (never iterated).
    plans: DetMap<PlayerId, Plan>,
    session_ids: hc_core::id::IdAllocator<SessionId>,
    rng: SimRng,
    sessions: u64,
}

impl<D: SessionDriver> Campaign<D> {
    /// Builds a campaign for `driver` from a config and seed.
    ///
    /// # Panics
    ///
    /// Panics when the platform config is invalid.
    pub fn new(mut driver: D, config: CampaignConfig, seed: u64) -> Self {
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
            driver,
            config,
            platform,
            population,
            plans,
            session_ids: hc_core::id::IdAllocator::new(),
            rng: factory.stream("campaign"),
            sessions: 0,
        }
    }

    /// Runs to the horizon and reports.
    pub fn run(&mut self) -> CampaignReport {
        // Every player gets an opening arrival, so the queue's working
        // set is at least the population; size it up front.
        let mut queue: WheelQueue<Ev> = WheelQueue::with_capacity(self.config.players.max(16));
        let spread = Exponential::new(1.0 / self.config.arrival_spread.as_secs_f64().max(1e-6))
            .expect("positive spread"); // hc-analyze: allow(P1): rate argument clamped to at least 1e-6
        let ids: Vec<PlayerId> = self.population.players().iter().map(|p| p.id).collect();
        for p in &ids {
            queue.push(
                SimTime::from_secs_f64(spread.sample(&mut self.rng)),
                Ev::Arrival(*p),
            );
        }
        while let Some((now, ev)) = queue.pop() {
            if now > self.config.horizon {
                break;
            }
            self.platform.set_time(now);
            match ev {
                Ev::Arrival(p) => self.handle_arrival(&mut queue, now, p),
                Ev::GiveUp(p) => {
                    if self.platform.matchmaker_mut().abandon(p) {
                        // Still waiting: give up and return next sitting.
                        let gap = Exponential::new(
                            1.0 / self.config.mean_return_gap.as_secs_f64().max(1e-6),
                        )
                        .expect("positive gap") // hc-analyze: allow(P1): rate argument clamped to at least 1e-6
                        .sample(&mut self.rng);
                        queue.push(now + SimDuration::from_secs_f64(gap), Ev::Arrival(p));
                    }
                }
            }
        }
        CampaignReport {
            game: self.driver.name(),
            metrics: self.platform.metrics(),
            sessions: self.sessions,
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
                // The player waits; if nobody pairs with them within a
                // patience window they give up (handled by GiveUp).
                let patience = self.config.platform.matchmaker.bot_fallback_wait * 6;
                queue.push(now + patience, Ev::GiveUp(player));
            }
        }
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
            let gap = Exponential::new(1.0 / self.config.mean_return_gap.as_secs_f64().max(1e-6))
                .expect("positive gap") // hc-analyze: allow(P1): rate argument clamped to at least 1e-6
                .sample(&mut self.rng);
            queue.push(end + SimDuration::from_secs_f64(gap), Ev::Arrival(player));
        }
    }

    /// Post-run access to the platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }
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
        crate::tagatune::play_tagatune_session(
            platform,
            &self.world,
            population,
            params.left(),
            params.right(),
            params.session_id,
            params.start,
            self.p_same,
            rng,
        )
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
        params: SessionParams,
        rng: &mut SimRng,
    ) -> SessionTranscript {
        self.flip = !self.flip;
        let (narrator, guesser) = if self.flip {
            (params.left(), params.right())
        } else {
            (params.right(), params.left())
        };
        crate::verbosity::play_verbosity_session(
            platform,
            &self.world,
            population,
            narrator,
            guesser,
            params.session_id,
            params.start,
            rng,
        )
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
