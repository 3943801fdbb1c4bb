//! The ESP Game — output-agreement image labeling.
//!
//! The canonical GWAP: two strangers see the same image, type labels, and
//! score when they agree; agreed labels become image metadata. This module
//! provides three layers:
//!
//! 1. [`EspWorld`] — the image world (stimulus truths + task registration).
//! 2. [`play_esp_session`] / [`play_esp_replay_session`] — drive one
//!    session between two live players (or one player and a recorded
//!    partner), answer by answer, through the `hc-core` round state
//!    machine and verification pipeline. Their round functions are the
//!    ESP round engine, shared with the sharded
//!    [`EspShardGame`](crate::shard::EspShardGame) (`round.rs`).
//! 3. [`EspCampaign`] — the full event-driven deployment (Poisson
//!    sittings, random matching, replay-bot fallback, engagement-driven
//!    returns) behind experiments T1 and F3–F6: the generic [`Campaign`]
//!    loop over an `EspDriver`.

use crate::campaign::{Campaign, CampaignConfig, SessionDriver};
use crate::params::SessionParams;
use crate::round::{
    play_session, session_span, PlannedRound, PlayedRound, Round, RoundSource, Table,
};
use crate::world::{BaseWorld, WorldConfig};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, EngagementModel, LabelDistribution, PlayerProfile, Population};
use hc_sim::{RngFactory, SimRng};
use rand::Rng;

/// Maximum answers one seat may produce in one round — the published ESP
/// interface shows players typing on the order of a dozen guesses per
/// image before passing or timing out.
const MAX_GUESSES_PER_SEAT: usize = 15;

/// The ESP image world.
#[derive(Debug, Clone)]
pub struct EspWorld {
    base: BaseWorld,
}

impl EspWorld {
    /// Generates a world.
    pub fn generate<R: Rng + ?Sized>(config: &WorldConfig, rng: &mut R) -> Self {
        EspWorld {
            base: BaseWorld::generate(config, rng),
        }
    }

    /// Number of images.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// `true` when the world has no images.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Registers every image as a platform task. **Must be called before
    /// any gold tasks are added** so that task ids equal stimulus indices.
    pub fn register_tasks(&self, platform: &mut Platform) -> Vec<TaskId> {
        (0..self.base.len())
            .map(|i| platform.add_task(Stimulus::Image(i as u64)))
            .collect()
    }

    /// Registers `count` *additional* gold tasks whose accepted answers
    /// are the truth labels of freshly sampled stimuli (appended to the
    /// world), returning their task ids.
    pub fn register_gold_tasks<R: Rng + ?Sized>(
        &mut self,
        platform: &mut Platform,
        config: &WorldConfig,
        count: usize,
        rng: &mut R,
    ) -> Vec<TaskId> {
        (0..count)
            .map(|_| {
                let truth = crate::world::sample_stimulus_truth(config, &self.base.vocabulary, rng);
                let accepted: Vec<Label> = truth.labels().to_vec();
                let stim = self.base.truths.len() as u64;
                self.base.truths.push(truth);
                platform.add_gold_task(Stimulus::Image(stim), accepted)
            })
            .collect()
    }

    /// Ground truth for a task (valid because task ids mirror stimulus
    /// indices — see [`EspWorld::register_tasks`]).
    #[must_use]
    pub fn truth_for_task(&self, task: TaskId) -> Option<&hc_crowd::LabelDistribution> {
        self.base.truth(task.raw() as usize)
    }

    /// Whether a verified label is actually true of its image.
    #[must_use]
    pub fn is_correct(&self, task: TaskId, label: &Label) -> bool {
        self.base.is_correct(task.raw() as usize, label)
    }

    /// The shared vocabulary.
    #[must_use]
    pub fn vocabulary(&self) -> &hc_crowd::Vocabulary {
        &self.base.vocabulary
    }

    /// Precision of the platform's verified labels against this world.
    /// Returns `(correct, total)`.
    #[must_use]
    pub fn verified_precision(&self, platform: &Platform) -> (usize, usize) {
        let verified = platform.verified_labels();
        let correct = verified
            .iter()
            .filter(|v| self.is_correct(v.task, &v.label))
            .count();
        (correct, verified.len())
    }
}

/// Drives one live two-player session; returns the transcript (already
/// recorded into the platform).
pub fn play_esp_session<R: Rng + ?Sized>(
    platform: &mut Platform,
    world: &EspWorld,
    population: &mut Population,
    params: SessionParams,
    rng: &mut R,
) -> SessionTranscript {
    let session = params.open(platform.config().session);
    let (pa, pb) = population
        .get_pair_mut(params.left(), params.right())
        .expect("both players exist and are distinct"); // hc-analyze: allow(P1): callers pass two distinct registered ids
    let table = Table::new(world, session, [pa, pb], platform.score_rule());
    let mut source = RoundSource::platform(platform, &params.seats, false);
    let transcript = play_session(
        table,
        &mut source,
        rng,
        EspWorld::truth_for_task,
        live_round,
    );
    platform.record_session(&transcript);
    session_span("esp.session", &transcript);
    transcript
}

/// Drives one session of `player` against replayed recordings. Tasks
/// without a recording are played "seeding": the player's guesses are
/// recorded for future replays but cannot verify anything.
pub fn play_esp_replay_session<R: Rng + ?Sized>(
    platform: &mut Platform,
    world: &EspWorld,
    population: &mut Population,
    params: SessionParams,
    rng: &mut R,
) -> SessionTranscript {
    // The replay partner keeps its recorded identity for pair accounting;
    // the transcript seats the lone human twice.
    let player = params.left();
    let session = SessionParams::solo(player, params.session_id, params.start)
        .open(platform.config().session);
    let profile = population.get_mut(player).expect("player exists"); // hc-analyze: allow(P1): callers pass a registered id
    let table = Table::new(world, session, profile, platform.score_rule());
    let mut source = RoundSource::platform(platform, std::slice::from_ref(&player), true);
    let transcript = play_session(
        table,
        &mut source,
        rng,
        EspWorld::truth_for_task,
        solo_round,
    );
    // Replay sessions deliberately bypass `record_session` (which assumes
    // two live players): the campaign credits the lone human's play time
    // to its own ledger, and the seen-task set clears here.
    platform.tasks_clear_seen(player);
    session_span("esp.replay_session", &transcript);
    transcript
}

/// One output-agreement round between two live seats: the live round
/// engine of serial and sharded sessions. The seat whose next answer
/// comes first moves; each seat has a guess budget.
pub(crate) fn live_round<R: Rng + ?Sized>(
    table: &mut Table<'_, EspWorld, [&mut PlayerProfile; 2]>,
    planned: PlannedRound,
    truth: &LabelDistribution,
    now: SimTime,
    rng: &mut R,
) -> Round {
    // The taboo list moves into the round: no per-round clone.
    let PlannedRound { task, taboo, .. } = planned;
    let limit = table.time_limit();
    let mut round =
        OutputAgreementRound::with_guess_capacity(task, taboo, limit, MAX_GUESSES_PER_SEAT);
    let mut cursors = [now, now];
    let mut guesses_left = [MAX_GUESSES_PER_SEAT; 2];
    let (world, profiles) = (table.world, &mut table.profiles);
    let (matched, agreed, end) = agree(&mut round, now, limit, &mut table.trace, |taboo| loop {
        let seat = usize::from(cursors[0] > cursors[1]);
        // hc-analyze: allow(P1): seat is 0 or 1 by construction
        if guesses_left[seat] == 0 && guesses_left[1 - seat] == 0 {
            return None;
        }
        if guesses_left[seat] == 0 {
            cursors[seat] = SimTime::MAX; // seat exhausted; let the other play
            continue;
        }
        let profile = &mut profiles[seat];
        let answer = profile
            .behavior
            .next_answer(truth, world.vocabulary(), taboo, rng);
        cursors[seat] += profile.response.sample(answer.as_text(), rng);
        guesses_left[seat] -= 1;
        return Some((Seat::both()[seat], cursors[seat], answer));
    });
    let [left, right] = table.seats();
    let agreements = agreed.map(|label| (label, left, right));
    let points = table.score(matched, end.saturating_since(now));
    finish_round(table, task, matched, agreements, points, now, end)
}

/// One output-agreement round of a solo player against a recorded
/// partner whose answers replay at their recorded offsets: the solo
/// round engine of serial replay sessions and sharded solo rescues.
/// Without a recording the round is "seeding": the player's trace is
/// kept, but nothing can agree.
pub(crate) fn solo_round<R: Rng + ?Sized>(
    table: &mut Table<'_, EspWorld, &mut PlayerProfile>,
    planned: PlannedRound,
    truth: &LabelDistribution,
    now: SimTime,
    rng: &mut R,
) -> Round {
    // Consumed by value: the taboo list moves into the round and the
    // recording's labels move into the bot's answer feed.
    let PlannedRound {
        task,
        taboo,
        recording: seeded,
    } = planned;
    let partner = seeded.as_ref().map(|r| r.recorded_player);
    let limit = table.time_limit();
    let mut round =
        OutputAgreementRound::with_guess_capacity(task, taboo, limit, MAX_GUESSES_PER_SEAT);
    let mut bot_events: Vec<(SimTime, Label)> = seeded
        .map(|r| r.events.into_iter().map(|(d, l)| (now + d, l)).collect())
        .unwrap_or_default();
    bot_events.reverse(); // pop() from the back = chronological order
    let mut cursor = now;
    let mut guesses_left = MAX_GUESSES_PER_SEAT;
    let (world, profile) = (table.world, &mut *table.profiles);
    let (matched, agreed, end) = agree(&mut round, now, limit, &mut table.trace, |taboo| {
        let next_bot = bot_events.last().map_or(SimTime::MAX, |(t, _)| *t);
        if cursor <= next_bot && guesses_left > 0 {
            let answer = profile
                .behavior
                .next_answer(truth, world.vocabulary(), taboo, rng);
            cursor += profile.response.sample(answer.as_text(), rng);
            guesses_left -= 1;
            Some((Seat::Left, cursor, answer))
        } else {
            // Both sides are exhausted once the bot's feed is empty too.
            let (t, l) = bot_events.pop()?;
            Some((Seat::Right, t, Answer::Text(l)))
        }
    });
    let player = table.seats()[0];
    let agreements = agreed
        .zip(partner)
        .map(|(label, partner)| (label, player, partner));
    // The recorded partner scores nothing.
    let [points, _] = table.score(matched, end.saturating_since(now));
    finish_round(table, task, matched, agreements, [points, 0], now, end)
}

/// Feeds `next_move`'s submissions `(seat, at, answer)` into `round` in
/// order until the round resolves, its `limit` passes, or both sides
/// run out. The left seat's text answers are traced into `trace` as
/// offsets from `now`. Returns whether the round matched, the label to
/// ingest, and when the round ended.
fn agree(
    round: &mut OutputAgreementRound,
    now: SimTime,
    limit: SimDuration,
    trace: &mut Vec<(SimDuration, Label)>,
    mut next_move: impl FnMut(&TabooList) -> Option<(Seat, SimTime, Answer)>,
) -> (bool, Option<Label>, SimTime) {
    let deadline = now + limit;
    trace.clear();
    let mut matched_label: Option<Label> = None;
    let mut end = deadline;
    while let Some((seat, at, answer)) = next_move(round.taboo()) {
        if at > deadline {
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
            SubmitOutcome::RoundOver => break,
            _ => {}
        }
    }
    let result = round.finish(end);
    (
        result.is_match(),
        matched_label.or(result.agreed_label),
        end,
    )
}

/// Packs a finished output-agreement round: its record, and its effects
/// — the agreement, if any, plus the left seat's trace as a replay
/// recording.
fn finish_round<P>(
    table: &mut Table<'_, EspWorld, P>,
    task: TaskId,
    matched: bool,
    agreement: Option<(Label, PlayerId, PlayerId)>,
    points: [u32; 2],
    now: SimTime,
    end: SimTime,
) -> Round {
    // The replay store keeps recordings for the rest of the run: move the
    // trace out at its exact length and keep the buffer's capacity here.
    let recording = (!table.trace.is_empty())
        .then(|| RecordedRound::new(task, table.seats()[0], table.trace.drain(..).collect()));
    let record = RoundRecord {
        template: TemplateKind::OutputAgreement,
        task,
        matched,
        candidate_outputs: u32::from(matched),
        duration: end.saturating_since(now),
        points,
    };
    let effects = PlayedRound {
        task,
        agreements: agreement.into_iter().collect(),
        recording,
    };
    (record, effects, end)
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct EspCampaignConfig {
    /// World shape.
    pub world: WorldConfig,
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
    /// Simulated wall-clock horizon.
    pub horizon: SimTime,
    /// How often the matchmaker sweeps for replay fallback.
    pub sweep_interval: SimDuration,
    /// Spread of first arrivals across the start of the campaign.
    pub arrival_spread: SimDuration,
}

impl EspCampaignConfig {
    /// A small, fast campaign for tests.
    #[must_use]
    pub fn small() -> Self {
        EspCampaignConfig {
            world: WorldConfig::small(),
            platform: PlatformConfig::default(),
            players: 40,
            mix: ArchetypeMix::realistic(),
            engagement: EngagementModel::esp_calibrated(),
            mean_return_gap: SimDuration::from_mins(60),
            horizon: SimTime::from_secs(4 * 3600),
            sweep_interval: SimDuration::from_secs(5),
            arrival_spread: SimDuration::from_mins(30),
        }
    }
}

/// What a campaign run produced.
#[derive(Debug, Clone)]
pub struct EspCampaignReport {
    /// The paper's three metrics over the campaign.
    pub metrics: GwapMetrics,
    /// Verified labels: `(correct, total)` against world truth.
    pub precision: (usize, usize),
    /// Live + replay pairing statistics.
    pub matchmaker: hc_core::matchmaker::MatchmakerStats,
    /// Sessions completed (live).
    pub live_sessions: u64,
    /// Sessions completed against replay bots.
    pub replay_sessions: u64,
    /// Mean matchmaking wait (seconds).
    pub mean_wait_secs: f64,
}

impl EspCampaignReport {
    /// Precision as a fraction (1.0 when nothing verified).
    #[must_use]
    pub fn precision_rate(&self) -> f64 {
        crate::world::precision_rate(self.precision)
    }
}

/// The ESP Game as a [`SessionDriver`]: live sessions plus the solo
/// replay-bot session, swept for every `sweep_interval`.
#[derive(Debug)]
pub(crate) struct EspDriver {
    world: EspWorld,
    /// How often the campaign sweeps the wait pool for timed-out waiters.
    sweep_interval: SimDuration,
}

impl SessionDriver for EspDriver {
    fn play(
        &mut self,
        platform: &mut Platform,
        population: &mut Population,
        params: SessionParams,
        rng: &mut SimRng,
    ) -> SessionTranscript {
        play_esp_session(platform, &self.world, population, params, rng)
    }

    fn solo_sweep(&self) -> Option<SimDuration> {
        Some(self.sweep_interval)
    }

    fn play_solo(
        &mut self,
        platform: &mut Platform,
        population: &mut Population,
        params: SessionParams,
        rng: &mut SimRng,
    ) -> Option<SessionTranscript> {
        let world = &self.world;
        Some(play_esp_replay_session(
            platform, world, population, params, rng,
        ))
    }

    fn register(&mut self, platform: &mut Platform) {
        self.world.register_tasks(platform);
    }

    fn name(&self) -> &'static str {
        "esp"
    }
}

/// The full event-driven ESP deployment: the generic [`Campaign`] loop
/// over an `EspDriver`.
#[derive(Debug)]
pub struct EspCampaign {
    campaign: Campaign<EspDriver>,
}

impl EspCampaign {
    /// Builds a campaign from a config and master seed: the world comes
    /// from the seed's `"world"` stream.
    ///
    /// # Panics
    ///
    /// Panics when the platform config is invalid.
    #[must_use]
    pub fn new(config: EspCampaignConfig, seed: u64) -> Self {
        let world = EspWorld::generate(&config.world, &mut RngFactory::new(seed).stream("world"));
        let driver = EspDriver {
            world,
            sweep_interval: config.sweep_interval,
        };
        let config = CampaignConfig {
            platform: config.platform,
            players: config.players,
            mix: config.mix,
            engagement: config.engagement,
            mean_return_gap: config.mean_return_gap,
            horizon: config.horizon,
            arrival_spread: config.arrival_spread,
        };
        EspCampaign {
            campaign: Campaign::new(driver, config, seed),
        }
    }

    /// Runs the campaign to its horizon and reports.
    pub fn run(&mut self) -> EspCampaignReport {
        let report = self.campaign.run();
        EspCampaignReport {
            metrics: report.metrics,
            precision: self.world().verified_precision(self.platform()),
            matchmaker: report.matchmaker,
            live_sessions: report.sessions,
            replay_sessions: report.solo_sessions,
            mean_wait_secs: report.mean_wait_secs,
        }
    }

    /// The platform, for post-run inspection.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        self.campaign.platform()
    }

    /// The world, for post-run inspection.
    #[must_use]
    pub fn world(&self) -> &EspWorld {
        &self.campaign.driver().world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_crowd::PopulationBuilder;
    use rand::SeedableRng;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(404)
    }

    fn setup(players: usize, mix: ArchetypeMix) -> (Platform, EspWorld, Population, SimRng) {
        let mut r = rng();
        let world = EspWorld::generate(&WorldConfig::small(), &mut r);
        let mut platform = Platform::new(PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        })
        .unwrap();
        world.register_tasks(&mut platform);
        let pop = PopulationBuilder::new(players).mix(mix).build(&mut r);
        for _ in 0..players {
            platform.register_player();
        }
        (platform, world, pop, r)
    }

    #[test]
    fn honest_pairs_match_and_verify() {
        let (mut platform, world, mut pop, mut r) = setup(2, ArchetypeMix::all_honest());
        let t = play_esp_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
            &mut r,
        );
        assert!(t.rounds() > 0);
        assert!(t.match_rate() > 0.5, "honest match rate {}", t.match_rate());
        assert!(!platform.verified_labels().is_empty());
        // All verified labels are true of their images.
        let (correct, total) = world.verified_precision(&platform);
        assert_eq!(correct, total);
    }

    #[test]
    fn random_players_rarely_match() {
        // A realistic (large) vocabulary: random typing almost never
        // collides across seats within a round's guess budget.
        let mut r = rng();
        let mut cfg = WorldConfig::small();
        cfg.vocabulary = 5_000;
        let world = EspWorld::generate(&cfg, &mut r);
        let mut platform = Platform::new(PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        })
        .unwrap();
        world.register_tasks(&mut platform);
        let mut pop = PopulationBuilder::new(2)
            .mix(ArchetypeMix::custom().with(hc_crowd::Behavior::Random, 1.0))
            .build(&mut r);
        platform.register_player();
        platform.register_player();
        let mut matched = 0;
        let mut rounds = 0;
        for s in 0..6 {
            let t = play_esp_session(
                &mut platform,
                &world,
                &mut pop,
                SessionParams::pair(
                    PlayerId::new(0),
                    PlayerId::new(1),
                    SessionId::new(s),
                    SimTime::from_secs(s * 1000),
                ),
                &mut r,
            );
            matched += t.matched_count();
            rounds += t.rounds();
        }
        let rate = matched as f64 / rounds.max(1) as f64;
        assert!(rate < 0.3, "random players matched {rate}");
    }

    #[test]
    fn session_respects_budgets() {
        let (mut platform, world, mut pop, mut r) = setup(2, ArchetypeMix::all_honest());
        let t = play_esp_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
            &mut r,
        );
        assert!(t.rounds() <= 15);
        // Duration can exceed the limit only by the final round + gap.
        assert!(t.duration() < SimDuration::from_secs(150 + 150 + 5));
    }

    #[test]
    fn sessions_record_replay_traces() {
        let (mut platform, world, mut pop, mut r) = setup(2, ArchetypeMix::all_honest());
        play_esp_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
            &mut r,
        );
        assert!(platform.replay().covered_tasks() > 0);
    }

    #[test]
    fn replay_session_verifies_against_recordings() {
        let (mut platform, world, mut pop, mut r) = setup(3, ArchetypeMix::all_honest());
        // Seed recordings with a live session between 0 and 1.
        play_esp_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
            &mut r,
        );
        let before = platform.verified_labels().len();
        let t = play_esp_replay_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::solo(
                PlayerId::new(2),
                SessionId::new(1),
                SimTime::from_secs(1000),
            ),
            &mut r,
        );
        assert!(t.rounds() > 0);
        // Replay rounds on recorded tasks can verify new labels (not
        // guaranteed every seed, but the pipeline must not error and the
        // platform must survive; with honest players and shared truth the
        // expected overlap is high).
        assert!(platform.verified_labels().len() >= before);
    }

    #[test]
    fn campaign_runs_to_horizon_and_reports() {
        let mut config = EspCampaignConfig::small();
        config.horizon = SimTime::from_secs(2 * 3600);
        let mut campaign = EspCampaign::new(config, 7);
        let report = campaign.run();
        assert!(
            report.live_sessions + report.replay_sessions > 0,
            "no sessions ran"
        );
        assert!(report.metrics.total_human_hours > 0.0);
        assert!(report.metrics.throughput_per_human_hour > 0.0);
        assert!(
            report.precision_rate() > 0.8,
            "precision {}",
            report.precision_rate()
        );
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let mk = || {
            let mut config = EspCampaignConfig::small();
            config.players = 20;
            config.horizon = SimTime::from_secs(3600);
            EspCampaign::new(config, 99).run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.metrics.total_outputs, b.metrics.total_outputs);
        assert_eq!(a.live_sessions, b.live_sessions);
        assert_eq!(a.replay_sessions, b.replay_sessions);
        assert_eq!(a.precision, b.precision);
    }

    #[test]
    fn world_gold_tasks_extend_truths() {
        let mut r = rng();
        let cfg = WorldConfig::small();
        let mut world = EspWorld::generate(&cfg, &mut r);
        let mut platform = Platform::new(PlatformConfig::default()).unwrap();
        world.register_tasks(&mut platform);
        let gold = world.register_gold_tasks(&mut platform, &cfg, 5, &mut r);
        assert_eq!(gold.len(), 5);
        assert_eq!(world.len(), 55);
        for g in gold {
            assert!(platform.gold().is_gold(g));
            assert!(world.truth_for_task(g).is_some());
        }
    }

    #[test]
    fn empty_report_precision_is_one() {
        let report = EspCampaignReport {
            metrics: ContributionLedger::new().metrics(),
            precision: (0, 0),
            matchmaker: Default::default(),
            live_sessions: 0,
            replay_sessions: 0,
            mean_wait_secs: 0.0,
        };
        assert_eq!(report.precision_rate(), 1.0);
    }
}
