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
//!    machine and verification pipeline.
//! 3. [`EspCampaign`] — the full event-driven deployment: Poisson player
//!    sittings, random matching, replay-bot fallback, engagement-driven
//!    return visits — the machinery behind experiments T1 and F3–F6.

use crate::params::SessionParams;
use crate::world::{BaseWorld, WorldConfig};
use hc_collect::DetMap;
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, EngagementModel, Population, PopulationBuilder};
use hc_sim::dist::Exponential;
use hc_sim::{RngFactory, SimRng, WheelQueue};
use rand::Rng;

/// Maximum answers one seat may produce in one round — the published ESP
/// interface shows players typing on the order of a dozen guesses per
/// image before passing or timing out.
const MAX_GUESSES_PER_SEAT: usize = 15;

/// Pause between rounds within a session (next image loads).
const INTER_ROUND_GAP: SimDuration = SimDuration::from_secs(2);

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
        let mut correct = 0;
        let total = platform.verified_labels().len();
        for v in platform.verified_labels() {
            if self.is_correct(v.task, &v.label) {
                correct += 1;
            }
        }
        (correct, total)
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
    let SessionParams {
        seats: [left, right],
        session_id,
        start,
    } = params;
    let cfg = platform.config().session;
    let mut session = Session::new(session_id, [left, right], start, cfg);
    let mut now = start;
    let mut streaks = [0u32; 2];

    while session.can_play_more(now) {
        let Some(task) = platform.next_task_for(&[left, right], rng) else {
            break;
        };
        platform.record_served(task, &[left, right]);
        let taboo = platform.taboo_for(task);
        let Some(truth) = world.truth_for_task(task) else {
            break;
        };
        let mut round = OutputAgreementRound::new(task, taboo.clone(), cfg.round_time_limit);
        let deadline = now + cfg.round_time_limit;

        let (pa, pb) = population
            .get_pair_mut(left, right)
            .expect("both players exist and are distinct"); // hc-analyze: allow(P1): callers pass two distinct registered ids
        let mut profiles = [pa, pb];
        let mut cursors = [now, now];
        let mut guesses_left = [MAX_GUESSES_PER_SEAT; 2];
        let mut left_trace: Vec<(SimDuration, Label)> = Vec::new();
        let mut matched_label: Option<Label> = None;
        let mut end = deadline;

        loop {
            // The seat whose next action is earliest moves.
            let seat_idx = if cursors[0] <= cursors[1] { 0 } else { 1 };
            // hc-analyze: allow(P1): seat_idx is 0 or 1 by construction
            if guesses_left[seat_idx] == 0 && guesses_left[1 - seat_idx] == 0 {
                break;
            }
            if guesses_left[seat_idx] == 0 {
                cursors[seat_idx] = SimTime::MAX; // seat exhausted; let other play
                continue;
            }
            let profile = &mut profiles[seat_idx];
            let answer = profile
                .behavior
                .next_answer(truth, &world.base.vocabulary, &taboo, rng);
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
        if let Some(label) = matched_label.or(result.agreed_label.clone()) {
            let _ = platform.ingest_agreement(task, label, left, right);
        }
        // Record the left seat's trace for future replay-bot sessions.
        if !left_trace.is_empty() {
            platform
                .replay_mut()
                .record(RecordedRound::new(task, left, left_trace));
        }
        let duration = end.saturating_since(now);
        let rule = platform.score_rule();
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
        now = end + INTER_ROUND_GAP;
    }

    let transcript = session.finish(now);
    platform.record_session(&transcript);
    if hc_obs::active() {
        hc_obs::span(
            "games",
            "esp.session",
            start.ticks(),
            transcript.ended.ticks(),
            &[
                ("rounds", transcript.rounds().into()),
                ("matched", transcript.matched_count().into()),
            ],
        );
    }
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
    let player = params.left();
    let (session_id, start) = (params.session_id, params.start);
    let cfg = platform.config().session;
    // The replay partner keeps its recorded identity for pair accounting;
    // sessions are created against a synthetic "bot seat" of the recorded
    // player when available.
    let mut session = Session::new(session_id, [player, player], start, cfg);
    let mut now = start;
    let mut streak = 0u32;

    while session.can_play_more(now) {
        let Some(task) = platform.next_task_for(&[player], rng) else {
            break;
        };
        platform.record_served(task, &[player]);
        let taboo = platform.taboo_for(task);
        let Some(truth) = world.truth_for_task(task) else {
            break;
        };
        let recording = platform.replay().sample(task, rng).cloned();
        let mut round = OutputAgreementRound::new(task, taboo.clone(), cfg.round_time_limit);
        let deadline = now + cfg.round_time_limit;

        // Feed the recorded partner's events up-front into a schedule.
        let mut bot_events: Vec<(SimTime, Label)> = recording
            .as_ref()
            .map(|r| {
                r.events
                    .iter()
                    .map(|(d, l)| (now + *d, l.clone()))
                    .collect()
            })
            .unwrap_or_default();
        bot_events.reverse(); // pop() from the back = chronological order

        let profile = population.get_mut(player).expect("player exists"); // hc-analyze: allow(P1): callers pass a registered id
        let mut cursor = now;
        let mut guesses_left = MAX_GUESSES_PER_SEAT;
        let mut trace: Vec<(SimDuration, Label)> = Vec::new();
        let mut matched_label: Option<Label> = None;
        let mut end = deadline;

        loop {
            let next_bot = bot_events.last().map(|(t, _)| *t).unwrap_or(SimTime::MAX);
            let human_turn = cursor <= next_bot && guesses_left > 0;
            if !human_turn && next_bot == SimTime::MAX {
                break; // both sides exhausted
            }
            let (seat, at, answer) = if human_turn {
                let answer =
                    profile
                        .behavior
                        .next_answer(truth, &world.base.vocabulary, &taboo, rng);
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
        if let (Some(label), Some(rec)) = (
            matched_label.or(result.agreed_label.clone()),
            recording.as_ref(),
        ) {
            let _ = platform.ingest_agreement(task, label, player, rec.recorded_player);
        }
        if !trace.is_empty() {
            platform
                .replay_mut()
                .record(RecordedRound::new(task, player, trace));
        }
        let duration = end.saturating_since(now);
        let rule = platform.score_rule();
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
        now = end + INTER_ROUND_GAP;
    }

    // Replay sessions deliberately bypass `record_session` (which assumes
    // two live players): the campaign credits the lone human's play time
    // to its own ledger, and the seen-task set clears here.
    let transcript = session.finish(now);
    platform.tasks_clear_seen(player);
    if hc_obs::active() {
        hc_obs::span(
            "games",
            "esp.replay_session",
            start.ticks(),
            transcript.ended.ticks(),
            &[
                ("rounds", transcript.rounds().into()),
                ("matched", transcript.matched_count().into()),
            ],
        );
    }
    transcript
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
        if self.precision.1 == 0 {
            1.0
        } else {
            self.precision.0 as f64 / self.precision.1 as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum CampaignEvent {
    Arrival(PlayerId),
    Sweep,
}

#[derive(Debug)]
struct PlanState {
    sittings: Vec<SimDuration>,
    next: usize,
    remaining: SimDuration,
}

/// The full event-driven ESP deployment.
#[derive(Debug)]
pub struct EspCampaign {
    config: EspCampaignConfig,
    platform: Platform,
    world: EspWorld,
    population: Population,
    // Per-player session plans: keyed lookups only (never iterated).
    plans: DetMap<PlayerId, PlanState>,
    session_ids: hc_core::id::IdAllocator<SessionId>,
    rng: SimRng,
    live_sessions: u64,
    replay_sessions: u64,
    replay_play: ContributionLedger,
}

impl EspCampaign {
    /// Builds a campaign from a config and master seed.
    ///
    /// # Panics
    ///
    /// Panics when the platform config is invalid.
    #[must_use]
    pub fn new(config: EspCampaignConfig, seed: u64) -> Self {
        let factory = RngFactory::new(seed);
        let mut world_rng = factory.stream("world");
        let world = EspWorld::generate(&config.world, &mut world_rng);
        let mut platform = Platform::new(config.platform).expect("valid platform config"); // hc-analyze: allow(P1): documented # Panics contract for invalid experiment configs
        world.register_tasks(&mut platform);
        let mut pop_rng = factory.stream("population");
        let population = PopulationBuilder::new(config.players)
            .mix(config.mix.clone())
            .build(&mut pop_rng);
        // Give the platform's player-id allocator the same ids.
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
                    PlanState {
                        sittings: lifetime.session_lengths,
                        next: 0,
                        remaining: SimDuration::ZERO,
                    },
                )
            })
            .collect();
        EspCampaign {
            config,
            platform,
            world,
            population,
            plans,
            session_ids: hc_core::id::IdAllocator::new(),
            rng: factory.stream("campaign"),
            live_sessions: 0,
            replay_sessions: 0,
            replay_play: ContributionLedger::new(),
        }
    }

    /// Runs the campaign to its horizon and reports.
    pub fn run(&mut self) -> EspCampaignReport {
        // Every player gets an opening arrival (plus the sweep tick), so
        // the queue's working set is at least the population; size it up
        // front instead of regrowing through the arrival storm.
        let mut queue: WheelQueue<CampaignEvent> =
            WheelQueue::with_capacity(self.config.players.max(16) + 1);
        // First arrivals: exponential spread across the opening window.
        let spread = Exponential::new(1.0 / self.config.arrival_spread.as_secs_f64().max(1e-6))
            .expect("positive spread"); // hc-analyze: allow(P1): rate argument clamped to at least 1e-6
        let ids: Vec<PlayerId> = self.population.players().iter().map(|p| p.id).collect();
        for p in &ids {
            let at = SimTime::from_secs_f64(spread.sample(&mut self.rng));
            queue.push(at, CampaignEvent::Arrival(*p));
        }
        queue.push(
            SimTime::ZERO + self.config.sweep_interval,
            CampaignEvent::Sweep,
        );

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
            match ev {
                CampaignEvent::Arrival(p) => {
                    self.handle_arrival(&mut queue, now, p);
                    arrivals += 1;
                }
                CampaignEvent::Sweep => {
                    self.handle_sweep(&mut queue, now);
                    queue.push(now + self.config.sweep_interval, CampaignEvent::Sweep);
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
                "esp.campaign",
                0,
                last_now.ticks(),
                &[
                    ("live_sessions", self.live_sessions.into()),
                    ("replay_sessions", self.replay_sessions.into()),
                ],
            );
        }
        self.report()
    }

    fn handle_arrival(
        &mut self,
        queue: &mut WheelQueue<CampaignEvent>,
        now: SimTime,
        player: PlayerId,
    ) {
        self.platform.set_time(now);
        // Starting a fresh sitting?
        {
            let plan = self.plans.get_mut(&player).expect("planned player"); // hc-analyze: allow(P1): every registered player gets a plan at construction
            if plan.remaining.is_zero() {
                let Some(len) = plan.sittings.get(plan.next).copied() else {
                    return; // churned
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
                let transcript = play_esp_session(
                    &mut self.platform,
                    &self.world,
                    &mut self.population,
                    SessionParams::pair(partner, player, sid, now),
                    &mut self.rng,
                );
                self.live_sessions += 1;
                let end = transcript.ended;
                let dur = transcript.duration();
                for p in [partner, player] {
                    self.after_session(queue, end, p, dur);
                }
            }
            MatchDecision::Queued => {}
        }
    }

    fn handle_sweep(&mut self, queue: &mut WheelQueue<CampaignEvent>, now: SimTime) {
        self.platform.set_time(now);
        let timed_out = self.platform.matchmaker_mut().take_timed_out(now);
        for player in timed_out {
            let sid = self.session_ids.next();
            let transcript = play_esp_replay_session(
                &mut self.platform,
                &self.world,
                &mut self.population,
                SessionParams::solo(player, sid, now),
                &mut self.rng,
            );
            self.replay_sessions += 1;
            self.replay_play.record_play(player, transcript.duration());
            let end = transcript.ended;
            let dur = transcript.duration();
            self.after_session(queue, end, player, dur);
        }
    }

    fn after_session(
        &mut self,
        queue: &mut WheelQueue<CampaignEvent>,
        end: SimTime,
        player: PlayerId,
        played: SimDuration,
    ) {
        let plan = self.plans.get_mut(&player).expect("planned player"); // hc-analyze: allow(P1): every registered player gets a plan at construction
        plan.remaining = plan
            .remaining
            .saturating_sub(played.max(SimDuration::from_secs(1)));
        if !plan.remaining.is_zero() {
            queue.push(end, CampaignEvent::Arrival(player));
        } else if plan.next < plan.sittings.len() {
            let gap = Exponential::new(1.0 / self.config.mean_return_gap.as_secs_f64().max(1e-6))
                .expect("positive gap") // hc-analyze: allow(P1): rate argument clamped to at least 1e-6
                .sample(&mut self.rng);
            queue.push(
                end + SimDuration::from_secs_f64(gap),
                CampaignEvent::Arrival(player),
            );
        }
    }

    fn report(&self) -> EspCampaignReport {
        // Campaign ALP = platform ledger (live sessions, both seats)
        // merged with replay-session play time.
        let mut ledger = ContributionLedger::new();
        ledger.merge(&self.replay_play);
        let platform_metrics = self.platform.metrics();
        // Merge platform per-player time by re-deriving from its ledger is
        // not exposed; approximate by adding totals: the platform ledger
        // already carries per-player live time, so ask it directly.
        let metrics = {
            // Combine: total outputs come from the platform; hours from both.
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
            GwapMetrics {
                throughput_per_human_hour: throughput,
                alp_hours: alp,
                expected_contribution: throughput * alp,
                total_outputs: platform_metrics.total_outputs,
                total_human_hours: hours,
                player_count: players,
            }
        };
        EspCampaignReport {
            metrics,
            precision: self.world.verified_precision(&self.platform),
            matchmaker: self.platform.matchmaker().pool().stats(),
            live_sessions: self.live_sessions,
            replay_sessions: self.replay_sessions,
            mean_wait_secs: self.platform.matchmaker().pool().wait_stats().mean(),
        }
    }

    /// The platform, for post-run inspection.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The world, for post-run inspection.
    #[must_use]
    pub fn world(&self) -> &EspWorld {
        &self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
